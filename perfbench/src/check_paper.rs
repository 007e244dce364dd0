//! `check-paper`: serial exhaustive checks of Fig. 1, Fig. 2 and Fig. 1
//! under a mutating detector, with the default reduction stack.
//!
//! The seed has no input to vary here; it is recorded, and node counts
//! must not depend on it.

use crate::probes::{self, TokenLayers};
use crate::trace::Tracer;
use crate::util::{measure, secs, Setups};
use crate::{Args, Outcome};
use std::time::{Duration, Instant};
use upsilon_check::{check, CheckConfig, CheckReport, CheckStats};
use upsilon_fuzz::{fuzz, FuzzConfig};
use upsilon_scenario::{load_file, resolve_check, AnyCheck};
use upsilon_sim::ProcessSet;

/// One resolved sample with the verdict it must produce.
struct Target {
    arm: String,
    label: String,
    cfg: CheckConfig<ProcessSet>,
    expect_pass: bool,
}

fn load(args: &Args) -> Result<Vec<Target>, String> {
    let doc = load_file(&args.scenarios.join("check-paper.toml"))?;
    doc.expand()
        .iter()
        .map(|cell| {
            let mut cfg = match resolve_check(cell)? {
                AnyCheck::Set(cfg) => cfg,
                AnyCheck::Unit(_) => {
                    return Err(format!("{}: expected a Υ-based sample", cell.label()))
                }
            };
            if args.quick {
                cfg.depth = cfg.depth.min(8);
            }
            Ok(Target {
                arm: cell.arm.clone(),
                label: cell.label(),
                cfg,
                expect_pass: args.expect_pass(cell.expect),
            })
        })
        .collect()
}

fn verdict(out: &mut Outcome, target: &Target, report: &CheckReport) {
    out.check(report.ok() == target.expect_pass, 1, || {
        format!(
            "{}: expected {}, got {} violation(s)",
            target.label,
            if target.expect_pass {
                "a clean verdict"
            } else {
                "a violation"
            },
            report.violations.len()
        )
    });
}

fn sum_stats(reports: &[CheckReport]) -> CheckStats {
    let mut s = CheckStats::default();
    for r in reports {
        s.nodes += r.stats.nodes;
        s.sleep_pruned += r.stats.sleep_pruned;
        s.dedup_pruned += r.stats.dedup_pruned;
        s.symmetry_pruned += r.stats.symmetry_pruned;
        s.fd_variant_nodes += r.stats.fd_variant_nodes;
    }
    s
}

/// The untraced run: `verdict_s` is the median time until all three
/// verdicts are in.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Setups::default();
    let targets = setups.sample(201, || load(args))?;
    out.workers.push(("check", 1));

    let (reps, peak) = measure(
        3,
        args.budget(),
        || setups.sample(20, || load(args)).map(drop),
        || targets.iter().map(|t| check(&t.cfg)).collect::<Vec<_>>(),
    )?;
    out.metrics.put("setup_s", setups.median(), "s");
    out.metrics.put("peak_rss_mb", peak as f64 / 1e6, "MB");
    let first = sum_stats(&reps[0].0);
    for (reports, _) in &reps {
        for (t, r) in targets.iter().zip(reports) {
            out.attempted += 1;
            verdict(&mut out, t, r);
        }
        out.check(sum_stats(reports) == first, 1, || {
            "node counts differ between repetitions of the same search".into()
        });
    }
    let verdict_s = out.repetitions(&reps);
    out.metrics.put("verdict_s", verdict_s, "s");
    out.metrics
        .put("ops_per_s", targets.len() as f64 / verdict_s, "1/s");
    out.info.put("check.verdict_s", verdict_s, "s");
    out.info.put("check.nodes", first.nodes as f64, "count");
    out.info
        .put("check.states_per_s", first.nodes as f64 / verdict_s, "1/s");
    Ok(out)
}

/// The traced run: explorer counters, then every token-fed layer on runs
/// of each sample.
pub fn traced(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut t = Tracer::new();
    let mut targets = Vec::new();
    let mark = t.mark();
    for _ in 0..201 {
        targets = t.span("scenario.load", 1, |_| load(args))?;
    }
    let load_us = t.agg_since(mark, "scenario.load").self_us_per();
    out.metrics.put("scenario.load_us", load_us, "us");
    out.workers.push(("check", 1));
    out.workers.push(("token_source_fuzz", 2));

    // Explore each sample once; the explorer is serial and untraced inside,
    // so its span time is the untraced verdict time.
    let mut reports = Vec::new();
    let mut explore_s = Vec::new();
    for target in &targets {
        let start = Instant::now();
        let report = t.span("check.explore", 1, |_| check(&target.cfg));
        explore_s.push(secs(start));
        out.attempted += 1;
        verdict(&mut out, target, &report);
        reports.push(report);
    }
    let stats = sum_stats(&reports);
    let total_explore: f64 = explore_s.iter().sum();
    let nodes = stats.nodes.max(1) as f64;

    // Runs of each sample: the corpus of a short fuzz campaign on the same
    // configuration, seeded by the benchmark seed.
    let per_target = Duration::from_secs_f64(args.seconds / (2.0 * targets.len() as f64));
    let mut layers = Vec::new();
    for (target, report) in targets.iter().zip(&reports) {
        let campaign = FuzzConfig::new(target.cfg.clone())
            .seed(args.seed)
            .budget(2, if args.quick { 256 } else { 1024 })
            .workers(2)
            .max_violations(1);
        let tokens = fuzz(&campaign, &[]).corpus;
        if tokens.is_empty() {
            return Err(format!("{}: no runs to probe", target.label));
        }
        let l = probes::measure(
            &mut t,
            &target.cfg,
            &tokens,
            campaign.window,
            target.cfg.use_matrix,
            per_target,
        );
        layers.push((report.stats.nodes as f64, l));
    }
    let mean = TokenLayers::weighted_mean(&layers);
    mean.put(&mut out.metrics);

    // Per-node cost model of the snapshot-resume explorer: one session
    // step, one save, one restore (backtracking to a sibling), one
    // fingerprint and one check of the configured specs per node (session
    // runs satisfy the §3.3 run conditions by construction).
    let per_node_us =
        mean.step_us + mean.save_us + mean.restore_us + mean.fingerprint_us + mean.specs_us;
    let explore_us = total_explore * 1e6 / nodes;
    out.metrics.put("check.nodes", stats.nodes as f64, "count");
    out.metrics
        .put("check.sleep_pruned", stats.sleep_pruned as f64, "count");
    out.metrics
        .put("check.dedup_pruned", stats.dedup_pruned as f64, "count");
    out.metrics.put(
        "check.symmetry_pruned",
        stats.symmetry_pruned as f64,
        "count",
    );
    out.metrics.put(
        "check.fd_variant_nodes",
        stats.fd_variant_nodes as f64,
        "count",
    );
    out.metrics.put(
        "check.dedup_yield",
        stats.dedup_pruned as f64 / nodes,
        "ratio",
    );
    out.metrics
        .put("check.states_per_s", nodes / total_explore, "1/s");
    out.metrics
        .put("check.explore_self_us", explore_us - per_node_us, "us");
    out.metrics
        .put("layer_share", per_node_us / explore_us, "ratio");
    out.metrics.put("trace_overhead", mean.overhead(), "ratio");
    for (target, s) in targets.iter().zip(&explore_s) {
        out.info
            .put(format!("check.explore_s.{}", target.arm), *s, "s");
    }
    out.spans = Some(t);
    Ok(out)
}
