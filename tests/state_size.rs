//! Ceilings on the size of suspended algorithm state.
//!
//! Under the inline engine a process between steps *is* its future: the
//! boxed state machine of its algorithm, which holds every live local and
//! every nested step future at its widest suspension point. In a packed
//! swarm campaign those boxes are most of what a resident instance costs.
//! Two layers keep them small, and these ceilings lock both in:
//!
//! * the `Ctx` step methods return a hand-written step future that holds
//!   only the context reference and the step's closure, not a nest of
//!   compiler-generated `async fn` states;
//! * `FlavoredSnapshot` boxes its register-based arm, so a native snapshot
//!   operation does not reserve room for the register-only construction.
//!
//! Sizes are measured on futures built (and dropped unpolled) inside a
//! real inline run, with the same types the protocols use. Each ceiling
//! sits between the size before those two changes and the size after, so
//! undoing either one fails the test.

use std::mem::size_of_val;
use std::sync::{Arc, Mutex};
use weakest_failure_detector::agreement::{fig1, fig2, Fig1Config, Fig2Config};
use weakest_failure_detector::converge::ConvergeInstance;
use weakest_failure_detector::mem::{
    FlavoredSnapshot, RegOp, Register, RegisterObject, Snapshot, SnapshotFlavor,
};
use weakest_failure_detector::sim::{algo, FailurePattern, Key, ProcessId, ProcessSet, SimBuilder};

/// `(future, measured bytes, ceiling)` rows, in the order measured.
type Rows = Vec<(&'static str, usize, usize)>;

/// Builds each future once inside process 1 of a two-process inline run
/// and records its size next to its ceiling.
fn measure() -> Rows {
    let rows = Arc::new(Mutex::new(Rows::new()));
    let sink = Arc::clone(&rows);
    let outcome = SimBuilder::<ProcessSet>::new(FailurePattern::failure_free(2))
        .spawn(
            ProcessId(0),
            algo(move |ctx| async move {
                let key = Key::new("R");
                let reg = Register::new(Key::new("R"), 0u64);
                let snap = FlavoredSnapshot::<u64>::new(SnapshotFlavor::Native, Key::new("S"), 2);
                let conv = ConvergeInstance::new(Key::new("C"), 2, SnapshotFlavor::Native);
                let measured = vec![
                    (
                        "ctx.invoke",
                        size_of_val(&ctx.invoke(&key, || RegisterObject::new(0u64), RegOp::Read)),
                        64,
                    ),
                    ("Register::read", size_of_val(&reg.read(&ctx)), 128),
                    (
                        "FlavoredSnapshot::update (native)",
                        size_of_val(&snap.update(&ctx, 1)),
                        256,
                    ),
                    (
                        "converge::<u64>",
                        size_of_val(&conv.converge(&ctx, 1, 1u64)),
                        640,
                    ),
                    (
                        "fig1::propose",
                        size_of_val(&fig1::propose(&ctx, Fig1Config::default(), 1)),
                        1152,
                    ),
                    (
                        "fig2::propose",
                        size_of_val(&fig2::propose(&ctx, Fig2Config::new(1), 1)),
                        1600,
                    ),
                ];
                sink.lock().expect("size sink").extend(measured);
                // One real step, so the measurement happened mid-run.
                ctx.yield_step().await
            }),
        )
        .run();
    assert_eq!(
        outcome.run.total_steps(),
        1,
        "the measuring process took its step"
    );
    let rows = rows.lock().expect("size sink").clone();
    rows
}

#[test]
fn suspended_state_stays_under_its_ceilings() {
    let rows = measure();
    assert_eq!(rows.len(), 6, "every future was measured");
    for (name, bytes, ceiling) in &rows {
        println!("{name:<34} {bytes:>5} B  (ceiling {ceiling} B)");
    }
    let over: Vec<String> = rows
        .iter()
        .filter(|(_, bytes, ceiling)| bytes > ceiling)
        .map(|(name, bytes, ceiling)| format!("{name}: {bytes} B > {ceiling} B"))
        .collect();
    assert!(
        over.is_empty(),
        "suspended futures grew past their ceilings: {over:?} (all: {rows:?})"
    );
}
