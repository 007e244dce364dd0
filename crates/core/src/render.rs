//! Human-readable rendering of recorded runs — per-process summaries and
//! event timelines, used by examples and debugging sessions.

use std::fmt::Write as _;
use upsilon_sim::{FdValue, Memory, ProcessId, Run, StepKind};

/// A per-process summary of a run: steps, queries, outputs, fate.
pub fn render_summary<D: FdValue>(run: &Run<D>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "run under {} — {} steps total",
        run.pattern(),
        run.total_steps()
    );
    for i in 0..run.n_plus_1() {
        let p = ProcessId(i);
        let queries = run.fd_samples().iter().filter(|(_, q, _)| *q == p).count();
        let outputs = run.outputs_of(p).count();
        let fate = if run.finished(p) {
            "finished".to_string()
        } else if let Some(t) = run.crash_observed(p) {
            format!("crashed at {t}")
        } else if run.pattern().is_faulty(p) {
            "faulty (crash after last step)".to_string()
        } else {
            "still running at cutoff".to_string()
        };
        let decision = run.decisions()[i]
            .map(|v| format!("decided {v}"))
            .unwrap_or_else(|| "no decision".to_string());
        let _ = writeln!(
            out,
            "  {p}: {:>6} steps, {queries:>5} FD queries, {outputs:>3} outputs, {decision}, {fate}",
            run.steps_by()[i],
        );
    }
    out
}

/// The first and last `window` events of a run as a readable timeline.
/// With `memory`, shared-object operations are labelled by object name.
pub fn render_timeline<D: FdValue>(run: &Run<D>, memory: Option<&Memory>, window: usize) -> String {
    fn emit<D: FdValue>(
        out: &mut String,
        memory: Option<&Memory>,
        range: &[upsilon_sim::Event<D>],
    ) {
        for ev in range {
            let what = match &ev.kind {
                StepKind::Op { object, detail, .. } => {
                    let name = memory
                        .and_then(|m| m.name_of(*object))
                        .map(|k| k.to_string())
                        .unwrap_or_else(|| object.to_string());
                    match detail.as_ref().and_then(|d| d.text()) {
                        Some(d) => format!("op {name}: {d}"),
                        None => format!("op {name}"),
                    }
                }
                StepKind::Query(v) => format!("query FD -> {v:?}"),
                StepKind::Output(o) => format!("output {o}"),
                StepKind::NoOp => "noop".to_string(),
            };
            let _ = writeln!(
                out,
                "  {:>8} {:<4} {what}",
                ev.time.to_string(),
                ev.pid.to_string()
            );
        }
    }

    let events = run.events();
    let mut out = String::new();
    if events.len() <= 2 * window {
        emit(&mut out, memory, events);
    } else {
        emit(&mut out, memory, &events[..window]);
        let _ = writeln!(out, "  … {} events elided …", events.len() - 2 * window);
        emit(&mut out, memory, &events[events.len() - window..]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use upsilon_sim::{algo, FailurePattern, Key, Output, SimBuilder, Time, TraceLevel};

    fn sample_outcome() -> upsilon_sim::SimOutcome<()> {
        let pattern = FailurePattern::builder(2)
            .crash(upsilon_sim::ProcessId(1), Time(3))
            .build();
        SimBuilder::<()>::new(pattern)
            .trace_level(TraceLevel::Full)
            .spawn_all(|pid| {
                algo(move |ctx| async move {
                    let reg = crate::mem::Register::new(Key::new("r"), 0u64);
                    for i in 0..4 {
                        reg.write(&ctx, i).await?;
                    }
                    ctx.output(Output::Decide(pid.index() as u64)).await?;
                    Ok(())
                })
            })
            .run()
    }

    #[test]
    fn summary_mentions_every_process() {
        let outcome = sample_outcome();
        let text = render_summary(&outcome.run);
        assert!(text.contains("p1:"), "{text}");
        assert!(text.contains("p2:"), "{text}");
        assert!(text.contains("decided 0"), "{text}");
        assert!(text.contains("crashed at"), "{text}");
    }

    #[test]
    fn timeline_labels_objects_and_elides() {
        let outcome = sample_outcome();
        let text = render_timeline(&outcome.run, Some(&outcome.memory), 2);
        assert!(text.contains("op r"), "{text}");
        assert!(text.contains("elided"), "{text}");
        let full = render_timeline(&outcome.run, Some(&outcome.memory), 100);
        assert!(full.contains("output decide(0)"), "{full}");
        assert!(!full.contains("elided"));
    }

    #[test]
    fn timeline_without_memory_uses_ids() {
        let outcome = sample_outcome();
        let text = render_timeline(&outcome.run, None, 100);
        assert!(text.contains("op obj#0"), "{text}");
    }
}
