//! End-to-end tests of the lockstep runtime: atomicity, crash delivery,
//! determinism, budgets and stop predicates.

use upsilon_sim::{
    algo, DummyOracle, FailurePattern, FnAdversary, Key, ObjectType, Output, ProcessId, RoundRobin,
    Scripted, SeededRandom, SimBuilder, StepKind, StopReason, Time, TraceLevel, WeightedRandom,
};

/// A shared counter used to detect atomicity violations: `IncrTwoPhase`
/// would misbehave if two processes could interleave inside one step.
#[derive(Clone, Debug, Default)]
struct Counter(u64);

#[derive(Debug)]
enum CounterOp {
    Incr,
}

impl ObjectType for Counter {
    type Op = CounterOp;
    type Resp = u64;
    fn invoke(&mut self, _p: ProcessId, op: CounterOp) -> u64 {
        match op {
            CounterOp::Incr => {
                self.0 += 1;
                self.0
            }
        }
    }
}

fn counter_key() -> Key {
    Key::new("counter")
}

#[test]
fn steps_are_counted_and_attributed() {
    let outcome = SimBuilder::<()>::new(FailurePattern::failure_free(3))
        .spawn_all(|_| {
            algo(move |ctx| async move {
                for _ in 0..5 {
                    ctx.invoke(&counter_key(), Counter::default, CounterOp::Incr)
                        .await?;
                }
                Ok(())
            })
        })
        .run();
    assert_eq!(outcome.run.steps_by(), &[5, 5, 5]);
    assert_eq!(outcome.run.total_steps(), 15);
    assert_eq!(outcome.run.stop_reason(), StopReason::AllDone);
    let c = outcome
        .memory
        .get::<Counter>(&counter_key())
        .expect("created");
    assert_eq!(c.0, 15);
    assert!(outcome.run.all_correct_finished());
    assert_eq!(outcome.run.validate_run_conditions(), Ok(()));
}

#[test]
fn crashed_process_takes_no_step_at_or_after_crash_time() {
    let pattern = FailurePattern::builder(2)
        .crash(ProcessId(0), Time(4))
        .build();
    let outcome = SimBuilder::<()>::new(pattern)
        .adversary(RoundRobin::new())
        .spawn_all(|_| {
            algo(move |ctx| async move {
                loop {
                    let v = ctx
                        .invoke(&counter_key(), Counter::default, CounterOp::Incr)
                        .await?;
                    if v >= 50 {
                        return Ok(());
                    }
                }
            })
        })
        .run();
    // p1 took steps at times 0 and 2 only (round-robin), then crashed at 4.
    assert_eq!(outcome.run.steps_by()[0], 2);
    assert!(outcome
        .run
        .events()
        .iter()
        .all(|e| { e.pid != ProcessId(0) || e.time < Time(4) }));
    assert!(!outcome.run.finished(ProcessId(0)));
    assert!(outcome.run.finished(ProcessId(1)));
    assert_eq!(outcome.run.crash_observed(ProcessId(0)), Some(Time(4)));
    assert_eq!(outcome.run.validate_run_conditions(), Ok(()));
}

#[test]
fn identical_seeds_produce_identical_traces() {
    let run = |seed: u64| {
        let outcome = SimBuilder::<()>::new(FailurePattern::failure_free(4))
            .adversary(SeededRandom::new(seed))
            .trace_level(TraceLevel::Full)
            .spawn_all(|pid| {
                algo(move |ctx| async move {
                    for _ in 0..20 {
                        ctx.invoke(&counter_key(), Counter::default, CounterOp::Incr)
                            .await?;
                    }
                    ctx.decide(pid.index() as u64).await?;
                    Ok(())
                })
            })
            .run();
        outcome.run
    };
    let a = run(123);
    let b = run(123);
    let c = run(124);
    assert_eq!(a.events(), b.events(), "same seed, same trace");
    assert_eq!(a.outputs(), b.outputs());
    assert_ne!(a.events(), c.events(), "different seed, different schedule");
}

#[test]
fn budget_exhaustion_stops_non_terminating_algorithms() {
    let outcome = SimBuilder::<()>::new(FailurePattern::failure_free(2))
        .max_steps(100)
        .spawn_all(|_| {
            algo(move |ctx| async move {
                loop {
                    ctx.yield_step().await?;
                }
            })
        })
        .run();
    assert_eq!(outcome.run.stop_reason(), StopReason::BudgetExhausted);
    assert_eq!(outcome.run.total_steps(), 100);
    assert!(!outcome.run.finished(ProcessId(0)));
}

#[test]
fn stop_predicate_ends_run_when_everyone_published() {
    let outcome = SimBuilder::<()>::new(FailurePattern::failure_free(3))
        .stop_when(|view| view.last_output.iter().all(|o| o.is_some()))
        .spawn_all(|pid| {
            algo(move |ctx| async move {
                loop {
                    ctx.output(Output::Value(pid.index() as u64)).await?;
                    ctx.yield_step().await?;
                }
            })
        })
        .run();
    assert_eq!(outcome.run.stop_reason(), StopReason::Predicate);
    let last = outcome.run.last_outputs();
    assert!(last.iter().all(|o| o.is_some()));
}

#[test]
fn scripted_adversary_runs_exact_prefix() {
    let script = vec![ProcessId(1), ProcessId(1), ProcessId(0), ProcessId(1)];
    let outcome = SimBuilder::<()>::new(FailurePattern::failure_free(2))
        .adversary(Scripted::new(script))
        .spawn_all(|_| {
            algo(move |ctx| async move {
                loop {
                    ctx.invoke(&counter_key(), Counter::default, CounterOp::Incr)
                        .await?;
                }
            })
        })
        .run();
    assert_eq!(outcome.run.stop_reason(), StopReason::AdversaryStopped);
    let order: Vec<ProcessId> = outcome.run.events().iter().map(|e| e.pid).collect();
    assert_eq!(
        order,
        vec![ProcessId(1), ProcessId(1), ProcessId(0), ProcessId(1)]
    );
}

#[test]
fn solo_runs_are_possible() {
    // Asynchrony admits runs where one process runs alone for arbitrarily
    // long (the heart of the paper's Theorem 1 construction).
    let solo = ProcessId(2);
    let outcome = SimBuilder::<()>::new(FailurePattern::failure_free(3))
        .max_steps(40)
        .adversary(FnAdversary(move |v: &upsilon_sim::SchedView<'_>| {
            v.eligible.contains(solo).then_some(solo)
        }))
        .spawn_all(|_| {
            algo(move |ctx| async move {
                loop {
                    ctx.yield_step().await?;
                }
            })
        })
        .run();
    assert_eq!(outcome.run.steps_by(), &[0, 0, 40]);
}

#[test]
fn non_participating_processes_are_never_scheduled() {
    // Only p1 is spawned; the run models the §5.2 Remark where some process
    // never proposes.
    let outcome = SimBuilder::<()>::new(FailurePattern::failure_free(3))
        .spawn(
            ProcessId(0),
            algo(|ctx| async move {
                for _ in 0..7 {
                    ctx.yield_step().await?;
                }
                Ok(())
            }),
        )
        .run();
    assert_eq!(outcome.run.steps_by(), &[7, 0, 0]);
    assert_eq!(outcome.run.stop_reason(), StopReason::AllDone);
}

#[test]
fn fd_query_steps_record_history_samples() {
    let outcome = SimBuilder::<u64>::new(FailurePattern::failure_free(2))
        .oracle(DummyOracle::new(99u64))
        .spawn_all(|_| {
            algo(move |ctx| async move {
                let v = ctx.query_fd().await?;
                assert_eq!(v, 99);
                Ok(())
            })
        })
        .run();
    assert_eq!(outcome.run.fd_samples().len(), 2);
    assert!(outcome.run.fd_samples().iter().all(|(_, _, v)| *v == 99));
    let queries = outcome
        .run
        .events()
        .iter()
        .filter(|e| matches!(e.kind, StepKind::Query(_)))
        .count();
    assert_eq!(queries, 2);
    assert_eq!(outcome.run.validate_run_conditions(), Ok(()));
}

#[test]
fn full_trace_level_records_op_details() {
    let outcome = SimBuilder::<()>::new(FailurePattern::failure_free(1))
        .trace_level(TraceLevel::Full)
        .spawn_all(|_| {
            algo(move |ctx| async move {
                ctx.invoke(&counter_key(), Counter::default, CounterOp::Incr)
                    .await?;
                Ok(())
            })
        })
        .run();
    let ev = &outcome.run.events()[0];
    match &ev.kind {
        StepKind::Op {
            detail: Some(d), ..
        } => {
            let text = d.text().expect("full tracing keeps the rendering");
            assert!(text.contains("Incr"), "detail should render the op: {text}");
        }
        other => panic!("expected detailed op event, got {other:?}"),
    }
}

#[test]
fn panics_in_algorithms_propagate_by_default() {
    let result = std::panic::catch_unwind(|| {
        SimBuilder::<()>::new(FailurePattern::failure_free(2))
            .spawn_all(|pid| {
                algo(move |ctx| async move {
                    ctx.yield_step().await?;
                    if pid == ProcessId(1) {
                        panic!("deliberate test panic");
                    }
                    ctx.yield_step().await?;
                    Ok(())
                })
            })
            .run()
    });
    assert!(result.is_err(), "panic should propagate to the caller");
}

#[test]
fn panics_can_be_suppressed() {
    let outcome = SimBuilder::<()>::new(FailurePattern::failure_free(2))
        .propagate_panics(false)
        .spawn_all(|pid| {
            algo(move |ctx| async move {
                ctx.yield_step().await?;
                if pid == ProcessId(0) {
                    panic!("deliberate test panic");
                }
                ctx.yield_step().await?;
                Ok(())
            })
        })
        .run();
    assert!(!outcome.run.finished(ProcessId(0)));
    assert!(outcome.run.finished(ProcessId(1)));
}

#[test]
fn weighted_scheduler_biases_step_counts() {
    let outcome = SimBuilder::<()>::new(FailurePattern::failure_free(2))
        .adversary(WeightedRandom::new(5, vec![1, 20]))
        .max_steps(600)
        .spawn_all(|_| {
            algo(move |ctx| async move {
                loop {
                    ctx.yield_step().await?;
                }
            })
        })
        .run();
    let s = outcome.run.steps_by();
    assert!(s[1] > s[0] * 4, "p2 should take far more steps: {s:?}");
}

#[test]
fn crash_at_time_zero_means_no_steps_ever() {
    let pattern = FailurePattern::builder(2)
        .crash(ProcessId(1), Time(0))
        .build();
    let outcome = SimBuilder::<()>::new(pattern)
        .spawn_all(|_| {
            algo(move |ctx| async move {
                for _ in 0..3 {
                    ctx.yield_step().await?;
                }
                Ok(())
            })
        })
        .run();
    assert_eq!(outcome.run.steps_by(), &[3, 0]);
}

#[test]
fn eligible_set_shrinks_after_crash() {
    let pattern = FailurePattern::builder(3)
        .crash(ProcessId(1), Time(2))
        .build();
    let outcome = SimBuilder::<()>::new(pattern)
        .max_steps(30)
        .adversary(FnAdversary(move |v: &upsilon_sim::SchedView<'_>| {
            if v.time >= Time(2) {
                assert!(!v.eligible.contains(ProcessId(1)));
            }
            v.eligible.min()
        }))
        .spawn_all(|_| {
            algo(move |ctx| async move {
                loop {
                    ctx.yield_step().await?;
                }
            })
        })
        .run();
    assert_eq!(
        outcome.run.steps_by()[1],
        0,
        "round-robin min would pick p1 first otherwise"
    );
}

#[test]
fn recorded_schedules_replay_to_identical_runs() {
    // Record a random run, extract its schedule, replay it through a
    // Scripted adversary: every observable must match.
    let make = |adversary: Box<dyn upsilon_sim::Adversary>| {
        SimBuilder::<u64>::new(FailurePattern::failure_free(3))
            .oracle(DummyOracle::new(7u64))
            .adversary(adversary)
            .trace_level(TraceLevel::Full)
            .spawn_all(|pid| {
                algo(move |ctx| async move {
                    for i in 0..6u64 {
                        ctx.invoke(
                            &Key::new("c").at(pid.index() as u64),
                            Counter::default,
                            CounterOp::Incr,
                        )
                        .await?;
                        if i % 2 == 0 {
                            let _ = ctx.query_fd().await?;
                        }
                    }
                    ctx.decide(pid.index() as u64).await?;
                    Ok(())
                })
            })
            .run()
            .run
    };
    let original = make(Box::new(SeededRandom::new(99)));
    let replayed = make(Box::new(Scripted::new(original.schedule())));
    assert_eq!(original.events(), replayed.events());
    assert_eq!(original.outputs(), replayed.outputs());
    assert_eq!(original.fd_samples(), replayed.fd_samples());
    assert_eq!(original.decisions(), replayed.decisions());
}

#[test]
#[should_panic(expected = "spawned twice")]
fn double_spawn_is_rejected() {
    let _ = SimBuilder::<()>::new(FailurePattern::failure_free(2))
        .spawn(ProcessId(0), algo(|_| async { Ok(()) }))
        .spawn(ProcessId(0), algo(|_| async { Ok(()) }));
}

#[test]
#[should_panic(expected = "out of range")]
fn spawn_out_of_range_is_rejected() {
    let _ = SimBuilder::<()>::new(FailurePattern::failure_free(2))
        .spawn(ProcessId(2), algo(|_| async { Ok(()) }));
}

#[test]
#[should_panic(expected = "ineligible")]
fn adversary_scheduling_a_finished_process_is_rejected() {
    // An adversary that insists on p1 even after it finished: the runner
    // learns of the finish on the wasted grant, removes p1 from the
    // eligible set, and must reject the next p1 pick.
    let _ = SimBuilder::<()>::new(FailurePattern::failure_free(2))
        .adversary(FnAdversary(|_: &upsilon_sim::SchedView<'_>| {
            Some(ProcessId(0))
        }))
        .spawn_all(|pid| {
            algo(move |ctx| async move {
                if pid.index() == 0 {
                    ctx.yield_step().await?;
                    return Ok(()); // p1 finishes after one step
                }
                loop {
                    ctx.yield_step().await?;
                }
            })
        })
        .run();
}

#[test]
#[should_panic(expected = "no oracle was configured")]
fn querying_without_an_oracle_panics_clearly() {
    let _ = SimBuilder::<u64>::new(FailurePattern::failure_free(1))
        .spawn_all(|_| {
            algo(move |ctx| async move {
                let _ = ctx.query_fd().await?;
                Ok(())
            })
        })
        .run();
}

#[test]
fn now_tracks_the_granted_time() {
    let outcome = SimBuilder::<()>::new(FailurePattern::failure_free(2))
        .adversary(RoundRobin::new())
        .spawn_all(|pid| {
            algo(move |ctx| async move {
                ctx.yield_step().await?;
                // Round-robin: p1 moves at t=0, p2 at t=1.
                assert_eq!(ctx.now(), Time(pid.index() as u64));
                ctx.yield_step().await?;
                assert_eq!(ctx.now(), Time(2 + pid.index() as u64));
                Ok(())
            })
        })
        .run();
    assert_eq!(outcome.run.total_steps(), 4);
}
