//! Snapshot/restore tests for [`Session`], the step-at-a-time inline
//! engine behind the turbo explorer.
//!
//! The contract under test is what makes snapshot-resume DPOR sound: after
//! `restore(save)`, the session must be **bit-identical** to one that never
//! left the save point — the same grants then produce the same events, the
//! same outputs, the same memory, and the same canonical fingerprint as an
//! uninterrupted run. The detour between `save` and `restore` may step any
//! processes, crash them, or finish them: the selective-restore fast path
//! (a suspended future's state is a function of its own step log, so
//! untouched processes keep their live futures) must not let any detour
//! state leak through.
//!
//! Sessions record at [`TraceLevel::Digest`], the level the explorer uses
//! when fingerprint dedup is on; every observation also replays the
//! session's schedule from scratch at [`TraceLevel::Full`] and checks that
//! the full-text run fingerprints identically.

use proptest::prelude::*;
use std::sync::Arc;
use upsilon_sim::{
    algo, orbit_trace_fingerprint, trace_fingerprint, Access, FailurePattern, Key, NullOracle,
    ObjectType, ProcessId, Scripted, Session, SessionAlgos, SimBuilder, TraceLevel,
};

/// A one-value register; `Write` overwrites, `Read` returns the content.
#[derive(Clone, Debug, Default)]
struct Cell(Option<u64>);

#[derive(Debug)]
enum Op {
    Write(u64),
    Read,
}

impl ObjectType for Cell {
    type Op = Op;
    type Resp = Option<u64>;
    fn invoke(&mut self, _p: ProcessId, op: Op) -> Option<u64> {
        match op {
            Op::Write(v) => {
                self.0 = Some(v);
                None
            }
            Op::Read => self.0,
        }
    }
    fn access(op: &Op) -> Access {
        match op {
            Op::Write(_) => Access::Write(0),
            Op::Read => Access::Read,
        }
    }
}

/// `n` ring processes: each repeatedly publishes to its own cell and polls
/// its successor's; whoever sees a value decides it. Every step reads or
/// writes shared state, so any restore glitch changes the trace.
fn ring_algos(n: usize, rounds: usize) -> SessionAlgos<()> {
    Arc::new(move || {
        (0..n)
            .map(|i| {
                Some(algo(move |ctx| async move {
                    let me = i as u64;
                    let next = ((i + 1) % n) as u64;
                    for r in 0..rounds {
                        ctx.invoke(
                            &Key::new("c").at(me),
                            Cell::default,
                            Op::Write(10 * me + r as u64),
                        )
                        .await?;
                        let seen = ctx
                            .invoke(&Key::new("c").at(next), Cell::default, Op::Read)
                            .await?;
                        if let Some(v) = seen {
                            ctx.decide(v).await?;
                            return Ok(());
                        }
                    }
                    Ok(())
                }))
            })
            .collect()
    })
}

fn new_session(n: usize, rounds: usize) -> Session<()> {
    Session::new(
        FailurePattern::failure_free(n),
        ring_algos(n, rounds),
        Box::new(NullOracle),
        TraceLevel::Digest,
        true,
    )
}

/// Grants each scheduled process in turn, skipping ineligible ones (the
/// same convention the explorer uses for its path replays).
fn drive(session: &mut Session<()>, grants: &[usize]) {
    for &i in grants {
        let p = ProcessId(i);
        if session.eligible(p) {
            session.step(p);
        }
    }
}

/// The run's full observable state, byte for byte: the `Debug` rendering
/// covers pattern, every event (kind, op signature, response detail),
/// outputs, fd samples, and status vectors.
///
/// Also checks the session's incrementally maintained fingerprints against
/// the from-scratch reference, so every restore and crash detour below
/// exercises the running digests too, and checks that a fresh replay of
/// the session's schedule at [`TraceLevel::Full`] fingerprints the same.
fn observed(session: &Session<()>, rounds: usize) -> (String, u64) {
    let n = session.n_plus_1();
    let reference = session.with_memory(|memory| trace_fingerprint(session.run(), memory));
    // Identity classes: the pid-order form of the orbit fingerprint.
    let identity: Vec<u32> = (0..n as u32).collect();
    let zeros = vec![0u64; n];
    assert_eq!(
        session.orbit_fingerprint(&identity, &zeros),
        session.with_memory(|memory| {
            orbit_trace_fingerprint(session.run(), memory, &identity, &zeros)
        })
    );
    let run = session.run();
    let mut full = SimBuilder::<()>::new(run.pattern().clone())
        .adversary(Scripted::new(run.schedule()))
        .max_steps(run.total_steps())
        .oracle(NullOracle)
        .trace_level(TraceLevel::Full)
        .record_op_sigs(true);
    for (i, a) in ring_algos(n, rounds)().into_iter().enumerate() {
        if let Some(a) = a {
            full = full.spawn(ProcessId(i), a);
        }
    }
    let full = full.run();
    assert_eq!(
        trace_fingerprint(&full.run, &full.memory),
        reference,
        "the Full replay and the Digest session must fingerprint alike"
    );
    // Pairs of adjacent pids share a class, and the extra words differ, so
    // both the sort and the per-process extras matter.
    let class_of: Vec<u32> = (0..n).map(|i| (i / 2) as u32).collect();
    let extra: Vec<u64> = (0..n).map(|i| 3 * i as u64 + 1).collect();
    let orbit_reference = session
        .with_memory(|memory| orbit_trace_fingerprint(session.run(), memory, &class_of, &extra));
    assert_eq!(
        session.orbit_fingerprint(&class_of, &extra),
        orbit_reference
    );
    (format!("{:?}", session.run()), reference)
}

fn pid_schedule(n: usize, choices: &[u8]) -> Vec<usize> {
    choices.iter().map(|&c| c as usize % n).collect()
}

#[test]
fn restore_resumes_bit_identically() {
    let schedule = [0usize, 1, 2, 0, 1, 2, 2, 1, 0, 0, 1, 2, 1, 2, 0];
    let (prefix, suffix) = schedule.split_at(6);

    let mut straight = new_session(3, 4);
    drive(&mut straight, &schedule);
    let want = observed(&straight, 4);

    let mut resumed = new_session(3, 4);
    drive(&mut resumed, prefix);
    let save = resumed.save();
    // Detour: wander down a different subtree, then rewind.
    drive(&mut resumed, &[2, 2, 2, 0, 1, 0, 2]);
    resumed.restore(&save, Box::new(NullOracle));
    drive(&mut resumed, suffix);
    assert_eq!(observed(&resumed, 4), want);
}

#[test]
fn restore_discards_a_crash_in_the_detour() {
    let schedule = [0usize, 1, 0, 1, 0, 1, 1, 0, 1, 0];
    let (prefix, suffix) = schedule.split_at(4);

    let mut straight = new_session(2, 4);
    drive(&mut straight, &schedule);
    let want = observed(&straight, 4);

    let mut resumed = new_session(2, 4);
    drive(&mut resumed, prefix);
    let save = resumed.save();
    // Crash p1 mid-detour: the pattern itself is mutated, so restore must
    // also roll the failure pattern and liveness flags back.
    drive(&mut resumed, &[0, 0]);
    resumed.crash(ProcessId(1));
    drive(&mut resumed, &[0, 0, 0]);
    resumed.restore(&save, Box::new(NullOracle));
    assert!(resumed.eligible(ProcessId(1)), "crash must be rolled back");
    drive(&mut resumed, suffix);
    assert_eq!(observed(&resumed, 4), want);
}

#[test]
fn nested_saves_restore_to_any_ancestor() {
    let schedule = [0usize, 1, 2, 1, 0, 2, 1, 1, 2, 0, 0, 1];
    let mut straight = new_session(3, 3);
    drive(&mut straight, &schedule);
    let want = observed(&straight, 3);

    let mut resumed = new_session(3, 3);
    drive(&mut resumed, &schedule[..3]);
    let shallow = resumed.save();
    drive(&mut resumed, &schedule[3..7]);
    let deep = resumed.save();
    drive(&mut resumed, &[2, 2, 0]);
    // Rewind to the deeper save, detour again, then all the way back to
    // the shallow ancestor — the explorer's backtracking pattern.
    resumed.restore(&deep, Box::new(NullOracle));
    drive(&mut resumed, &[1, 1]);
    resumed.restore(&shallow, Box::new(NullOracle));
    drive(&mut resumed, &schedule[3..]);
    assert_eq!(observed(&resumed, 3), want);
}

proptest! {
    /// Any prefix/detour/suffix split: the resumed run must match the
    /// uninterrupted one byte for byte.
    #[test]
    fn resumed_runs_match_uninterrupted_runs(
        sched in proptest::collection::vec(0u8..3, 6..20),
        detour in proptest::collection::vec(0u8..3, 0..10),
        cut in 0usize..6,
    ) {
        let schedule = pid_schedule(3, &sched);
        let detour = pid_schedule(3, &detour);
        let (prefix, suffix) = schedule.split_at(cut.min(schedule.len()));

        let mut straight = new_session(3, 4);
        drive(&mut straight, &schedule);
        let want = observed(&straight, 4);

        let mut resumed = new_session(3, 4);
        drive(&mut resumed, prefix);
        let save = resumed.save();
        drive(&mut resumed, &detour);
        resumed.restore(&save, Box::new(NullOracle));
        drive(&mut resumed, suffix);
        prop_assert_eq!(observed(&resumed, 4), want);
    }

    /// Same, with a crash delivered mid-detour — the selective-restore
    /// path must rebuild exactly the processes the detour touched.
    #[test]
    fn crashes_in_the_detour_never_leak(
        sched in proptest::collection::vec(0u8..3, 6..20),
        detour in proptest::collection::vec(0u8..3, 0..8),
        cut in 0usize..6,
        victim in 0u8..3,
    ) {
        let schedule = pid_schedule(3, &sched);
        let detour = pid_schedule(3, &detour);
        let (prefix, suffix) = schedule.split_at(cut.min(schedule.len()));

        let mut straight = new_session(3, 4);
        drive(&mut straight, &schedule);
        let want = observed(&straight, 4);

        let mut resumed = new_session(3, 4);
        drive(&mut resumed, prefix);
        let save = resumed.save();
        drive(&mut resumed, &detour);
        let p = ProcessId(victim as usize);
        if resumed.run().pattern().crash_time(p).is_none() {
            resumed.crash(p);
        }
        resumed.restore(&save, Box::new(NullOracle));
        drive(&mut resumed, suffix);
        prop_assert_eq!(observed(&resumed, 4), want);
    }
}
