//! Property tests for [`trace_fingerprint`], the dedup key of the turbo
//! explorer.
//!
//! The soundness contract the checker's fingerprint dedup relies on:
//!
//! * **Mazurkiewicz invariance** — two interleavings of the same
//!   per-process operation sequences over *disjoint* objects (every
//!   reordering of which is a sequence of commuting swaps) fingerprint
//!   identically, even though step times and object-id assignment differ;
//! * **conflict sensitivity** — swapping two *conflicting* steps (a write
//!   past a read, or two writes to one register) changes either a
//!   process's observation or the final memory, and the fingerprint moves
//!   with it;
//! * **state sensitivity** — runs that differ only in a written value
//!   fingerprint differently;
//! * **engine independence** — the inline and threads engines produce the
//!   same fingerprint for the same scripted schedule, so dedup decisions
//!   are engine-agnostic.
//!
//! Runs are recorded at [`TraceLevel::Full`] unless stated otherwise:
//! responses must be part of the per-process digests for the control-state
//! proxy to be sound, and both `Full` and the checker's dedup level
//! [`TraceLevel::Digest`] capture them. **Level independence** ties the two
//! together: a `Digest` run and the same schedule at `Full` carry one
//! fingerprint, and a `Digest` [`Session`](upsilon_sim::Session) stepped
//! through it carries the run's orbit fingerprint under identity classes
//! (the pid-order form the checker keys dedup with).

//! The orbit-canonical variant ([`orbit_trace_fingerprint`]) adds the
//! symmetry contract on top:
//!
//! * **within-class invariance** — renaming same-class processes (same
//!   permutation applied to the schedule, the per-process extras and the
//!   plans) leaves the fingerprint unchanged;
//! * **cross-class sensitivity** — the *same* renaming becomes visible the
//!   moment the renamed processes sit in different orbit classes, so a
//!   wrong class table cannot silently merge distinguishable states;
//! * **behaviour and extra sensitivity** — a changed written value or a
//!   changed explorer-side extra word moves the fingerprint exactly as it
//!   does for the pid-ordered digest.

use proptest::prelude::*;
use std::sync::Arc;
use upsilon_sim::{
    algo, orbit_trace_fingerprint, trace_fingerprint, Access, EngineKind, FailurePattern, Key,
    NullOracle, ObjectType, OrbitFingerprint, ProcessId, RoundRobin, Scripted, Session,
    SessionAlgos, SimBuilder, SimOutcome, TraceLevel,
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

/// One scripted operation for a process: `(key index, write value)` —
/// `None` reads, `Some(v)` writes `v`.
type PlannedOp = (u64, Option<u64>);

/// Each process executes its own fixed op list.
fn plan_algos(plans: &[Vec<PlannedOp>]) -> SessionAlgos<()> {
    let plans = plans.to_vec();
    Arc::new(move || {
        plans
            .iter()
            .map(|plan| {
                let plan = plan.clone();
                Some(algo(move |ctx| {
                    let plan = plan.clone();
                    async move {
                        for (key, write) in plan {
                            let op = match write {
                                Some(v) => Op::Write(v),
                                None => Op::Read,
                            };
                            ctx.invoke(&Key::new("r").at(key), Cell::default, op)
                                .await?;
                        }
                        Ok(())
                    }
                }))
            })
            .collect()
    })
}

/// Runs `n` processes, each executing its own fixed op list, under the
/// scripted grant order, and returns the run's canonical fingerprint.
fn fingerprint_of(n: usize, plans: &[Vec<PlannedOp>], script: &[usize], engine: EngineKind) -> u64 {
    fingerprint_at(n, plans, script, engine, TraceLevel::Full, false)
}

/// [`fingerprint_of`] at a given trace level, with or without op
/// signatures.
fn fingerprint_at(
    n: usize,
    plans: &[Vec<PlannedOp>],
    script: &[usize],
    engine: EngineKind,
    level: TraceLevel,
    sigs: bool,
) -> u64 {
    let outcome = outcome_at(n, plans, script, engine, level, sigs);
    trace_fingerprint(&outcome.run, &outcome.memory)
}

/// The run behind [`fingerprint_at`].
fn outcome_at(
    n: usize,
    plans: &[Vec<PlannedOp>],
    script: &[usize],
    engine: EngineKind,
    level: TraceLevel,
    sigs: bool,
) -> SimOutcome<()> {
    let script: Vec<ProcessId> = script.iter().map(|&i| ProcessId(i)).collect();
    let mut builder = SimBuilder::<()>::new(FailurePattern::failure_free(n))
        .adversary(Scripted::then(script, RoundRobin::new()))
        .engine(engine)
        .trace_level(level)
        .record_op_sigs(sigs)
        .max_steps(64);
    for (i, a) in plan_algos(plans)().into_iter().enumerate() {
        if let Some(a) = a {
            builder = builder.spawn(ProcessId(i), a);
        }
    }
    builder.run()
}

/// Like [`fingerprint_of`], but returns the orbit-canonical fingerprint
/// under the given class table and per-process extra words.
fn orbit_fp_of(
    n: usize,
    plans: &[Vec<PlannedOp>],
    script: &[usize],
    class_of: &[u32],
    extra: &[u64],
) -> OrbitFingerprint {
    let script: Vec<ProcessId> = script.iter().map(|&i| ProcessId(i)).collect();
    let mut builder = SimBuilder::<()>::new(FailurePattern::failure_free(n))
        .adversary(Scripted::then(script, RoundRobin::new()))
        .engine(EngineKind::Inline)
        .trace_level(TraceLevel::Full)
        .max_steps(64);
    for (i, a) in plan_algos(plans)().into_iter().enumerate() {
        if let Some(a) = a {
            builder = builder.spawn(ProcessId(i), a);
        }
    }
    let outcome = builder.run();
    orbit_trace_fingerprint(&outcome.run, &outcome.memory, class_of, extra)
}

/// The six permutations of `[0, 1, 2]`.
const PERMS3: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

/// Builds a complete schedule granting process `i` exactly `quotas[i]`
/// steps, steering by `picks` (falling back to the next process with
/// budget left). Covering *every* step keeps renamed runs fully scripted —
/// no schedule tail an applied permutation could miss.
fn interleave_n(quotas: &[usize], picks: &[usize]) -> Vec<usize> {
    let mut left = quotas.to_vec();
    let total: usize = quotas.iter().sum();
    let mut script = Vec::with_capacity(total);
    for k in 0..total {
        let mut chosen = picks.get(k).copied().unwrap_or(0) % quotas.len();
        while left[chosen] == 0 {
            chosen = (chosen + 1) % quotas.len();
        }
        left[chosen] -= 1;
        script.push(chosen);
    }
    script
}

/// Splices two per-process op counts into an interleaving: `choices[k]`
/// picks which process takes the next step (falling back to whichever
/// still has steps left).
fn interleave(len0: usize, len1: usize, choices: &[bool]) -> Vec<usize> {
    let (mut a, mut b) = (0, 0);
    let mut script = Vec::with_capacity(len0 + len1);
    for k in 0..(len0 + len1) {
        let pick0 = choices.get(k).copied().unwrap_or(k % 2 == 0);
        if (pick0 && a < len0) || b >= len1 {
            a += 1;
            script.push(0);
        } else {
            b += 1;
            script.push(1);
        }
    }
    script
}

proptest! {
    /// Disjoint objects: every interleaving of the two processes is a
    /// chain of commuting swaps away from every other, so all of them
    /// must fingerprint identically.
    #[test]
    fn disjoint_interleavings_fingerprint_identically(
        vals0 in proptest::collection::vec(0u64..8, 1..4),
        vals1 in proptest::collection::vec(0u64..8, 1..4),
        choices_a in proptest::collection::vec(proptest::bool::ANY, 8),
        choices_b in proptest::collection::vec(proptest::bool::ANY, 8),
    ) {
        // Process i touches only key r[i]: writes, then one read-back.
        let plan = |pid: u64, vals: &[u64]| -> Vec<PlannedOp> {
            let mut ops: Vec<PlannedOp> = vals.iter().map(|&v| (pid, Some(v))).collect();
            ops.push((pid, None));
            ops
        };
        let plans = vec![plan(0, &vals0), plan(1, &vals1)];
        let (l0, l1) = (plans[0].len(), plans[1].len());
        let sa = interleave(l0, l1, &choices_a);
        let sb = interleave(l0, l1, &choices_b);
        let fa = fingerprint_of(2, &plans, &sa, EngineKind::Inline);
        let fb = fingerprint_of(2, &plans, &sb, EngineKind::Inline);
        prop_assert_eq!(fa, fb);
    }

    /// Conflicting write/read on one register: the read observes the
    /// write in one order and misses it in the other, so the two
    /// interleavings must fingerprint differently.
    #[test]
    fn conflicting_swap_changes_fingerprint(v in 1u64..64) {
        let plans = vec![vec![(0, Some(v))], vec![(0, None)]];
        let write_first = fingerprint_of(2, &plans, &[0, 1], EngineKind::Inline);
        let read_first = fingerprint_of(2, &plans, &[1, 0], EngineKind::Inline);
        prop_assert!(write_first != read_first, "orders collide: {write_first:#x}");
    }

    /// Write/write conflict: the surviving value differs with the order,
    /// so the final-memory component must separate the fingerprints.
    #[test]
    fn write_order_on_shared_register_is_visible(
        v in 0u64..32,
        delta in 1u64..32,
    ) {
        let plans = vec![vec![(0, Some(v))], vec![(0, Some(v + delta))]];
        let a = fingerprint_of(2, &plans, &[0, 1], EngineKind::Inline);
        let b = fingerprint_of(2, &plans, &[1, 0], EngineKind::Inline);
        prop_assert!(a != b, "fingerprints collide: {a:#x}");
    }

    /// Distinct written values under the same schedule reach distinct
    /// states and must fingerprint differently.
    #[test]
    fn written_value_is_visible(v in 0u64..32, delta in 1u64..32) {
        let schedule = [0usize, 1];
        let a = fingerprint_of(
            2,
            &[vec![(0, Some(v))], vec![(1, Some(9))]],
            &schedule,
            EngineKind::Inline,
        );
        let b = fingerprint_of(
            2,
            &[vec![(0, Some(v + delta))], vec![(1, Some(9))]],
            &schedule,
            EngineKind::Inline,
        );
        prop_assert!(a != b, "fingerprints collide: {a:#x}");
    }

    /// Within-class renaming is invisible: three identical pid-parametric
    /// processes race on one shared register; applying any permutation π
    /// to the schedule and the extra words (the plans are already equal)
    /// yields the π-renamed run, and the orbit-canonical fingerprint of
    /// the renamed run equals the original's. The pid-ordered
    /// [`trace_fingerprint`] has no such invariance — which is exactly
    /// why the explorer needs the orbit variant.
    #[test]
    fn within_class_renaming_is_invisible(
        v1 in 0u64..8,
        v2 in 0u64..8,
        extras in proptest::collection::vec(0u64..1_000_000, 3),
        picks in proptest::collection::vec(0usize..3, 9),
        perm_idx in 0usize..6,
    ) {
        let perm = PERMS3[perm_idx];
        // Identical plans: two writes and a read-back on the shared r[0].
        let plan: Vec<PlannedOp> = vec![(0, Some(v1)), (0, Some(v2)), (0, None)];
        let plans = vec![plan.clone(), plan.clone(), plan];
        let script = interleave_n(&[3, 3, 3], &picks);
        let renamed_script: Vec<usize> = script.iter().map(|&i| perm[i]).collect();
        let mut renamed_extras = [0u64; 3];
        for i in 0..3 {
            renamed_extras[perm[i]] = extras[i];
        }
        let class_of = [0u32, 0, 0];
        let a = orbit_fp_of(3, &plans, &script, &class_of, &extras);
        let b = orbit_fp_of(3, &plans, &renamed_script, &class_of, &renamed_extras);
        prop_assert_eq!(a.fingerprint, b.fingerprint);
        // The canonicalizing permutation is always a true permutation.
        let mut seen = [false; 3];
        for &pos in &a.canon_of {
            prop_assert!(pos < 3 && !seen[pos]);
            seen[pos] = true;
        }
    }

    /// The same renaming becomes visible across classes: two processes
    /// with *distinct* behaviour collide under one shared class (the
    /// renamed run is the mirror image), but split the moment the class
    /// table separates them — a wrong orbit would be caught, not merged.
    #[test]
    fn cross_class_renaming_is_visible(v in 0u64..32, delta in 1u64..32) {
        let plans = vec![vec![(0, Some(v))], vec![(1, Some(v + delta))]];
        let renamed_plans = vec![vec![(1, Some(v + delta))], vec![(0, Some(v))]];
        let extra = [0u64, 0];
        let a_same = orbit_fp_of(2, &plans, &[0, 1], &[0, 0], &extra);
        let b_same = orbit_fp_of(2, &renamed_plans, &[1, 0], &[0, 0], &extra);
        prop_assert_eq!(a_same.fingerprint, b_same.fingerprint,
            "a same-class renaming must be invisible");
        let a_split = orbit_fp_of(2, &plans, &[0, 1], &[0, 1], &extra);
        let b_split = orbit_fp_of(2, &renamed_plans, &[1, 0], &[0, 1], &extra);
        prop_assert!(a_split.fingerprint != b_split.fingerprint,
            "distinct classes must keep renamed runs apart: {:#x}", a_split.fingerprint);
    }

    /// A changed written value under the same schedule and classes moves
    /// the orbit fingerprint, exactly like the pid-ordered digest.
    #[test]
    fn orbit_fingerprint_sees_behaviour_changes(v in 0u64..32, delta in 1u64..32) {
        let extra = [0u64, 0];
        let a = orbit_fp_of(
            2,
            &[vec![(0, Some(v))], vec![(0, None)]],
            &[0, 1],
            &[0, 0],
            &extra,
        );
        let b = orbit_fp_of(
            2,
            &[vec![(0, Some(v + delta))], vec![(0, None)]],
            &[0, 1],
            &[0, 0],
            &extra,
        );
        prop_assert!(a.fingerprint != b.fingerprint, "collide: {:#x}", a.fingerprint);
    }

    /// The caller-supplied extra words (unserved FD picks, crash timing)
    /// are part of the canonical digest: changing one process's word
    /// changes the fingerprint.
    #[test]
    fn orbit_fingerprint_sees_extra_words(e in 0u64..1_000_000, delta in 1u64..1024) {
        let plans = vec![vec![(0, Some(1))], vec![(0, None)]];
        let a = orbit_fp_of(2, &plans, &[0, 1], &[0, 0], &[e, 7]);
        let b = orbit_fp_of(2, &plans, &[0, 1], &[0, 0], &[e.wrapping_add(delta), 7]);
        prop_assert!(a.fingerprint != b.fingerprint, "collide: {:#x}", a.fingerprint);
    }

    /// Level independence: three processes race reads and writes over two
    /// shared registers, so responses differ across schedules. Recording
    /// a schedule at `Digest` or at `Full` — with or without op signatures
    /// — gives one fingerprint, and a `Digest` session stepped through the
    /// same schedule carries the run's identity-class orbit fingerprint
    /// incrementally.
    #[test]
    fn digest_and_full_levels_fingerprint_identically(
        plans in proptest::collection::vec(
            proptest::collection::vec((0u64..2, proptest::option::of(0u64..8)), 1..4),
            3,
        ),
        picks in proptest::collection::vec(0usize..3, 12),
        sigs in proptest::bool::ANY,
    ) {
        let quotas: Vec<usize> = plans.iter().map(Vec::len).collect();
        let script = interleave_n(&quotas, &picks);
        let at = |level| fingerprint_at(3, &plans, &script, EngineKind::Inline, level, sigs);
        let digest_run = outcome_at(3, &plans, &script, EngineKind::Inline, TraceLevel::Digest, sigs);
        let digest = trace_fingerprint(&digest_run.run, &digest_run.memory);
        prop_assert_eq!(digest, at(TraceLevel::Full));
        let mut session = Session::new(
            FailurePattern::failure_free(3),
            plan_algos(&plans),
            Box::new(NullOracle),
            TraceLevel::Digest,
            sigs,
        );
        for &i in &script {
            session.step(ProcessId(i));
        }
        let (identity, zeros) = ([0, 1, 2], [0; 3]);
        prop_assert_eq!(
            session.orbit_fingerprint(&identity, &zeros),
            orbit_trace_fingerprint(&digest_run.run, &digest_run.memory, &identity, &zeros)
        );
    }

    /// Both engines produce the same fingerprint for the same script —
    /// dedup keys never depend on which engine recorded the run.
    #[test]
    fn engines_agree_on_fingerprints(
        vals0 in proptest::collection::vec(0u64..8, 1..3),
        vals1 in proptest::collection::vec(0u64..8, 1..3),
        choices in proptest::collection::vec(proptest::bool::ANY, 6),
    ) {
        let plans = vec![
            vals0.iter().map(|&v| (0, Some(v))).collect::<Vec<_>>(),
            vals1.iter().map(|&v| (0, Some(v))).collect::<Vec<_>>(),
        ];
        let script = interleave(plans[0].len(), plans[1].len(), &choices);
        let inline = fingerprint_of(2, &plans, &script, EngineKind::Inline);
        let threads = fingerprint_of(2, &plans, &script, EngineKind::Threads);
        prop_assert_eq!(inline, threads);
    }
}
