//! `fuzz-fig1`: a coverage-guided campaign on Fig. 1 with crash injection
//! at two workers, at a fixed execution budget.

use crate::probes;
use crate::trace::Tracer;
use crate::util::{measure, secs, Setups};
use crate::{Args, Outcome};
use std::time::{Duration, Instant};
use upsilon_fuzz::{fuzz, FuzzConfig, FuzzReport};
use upsilon_scenario::{load_file, resolve_fuzz, AnyFuzz};
use upsilon_sim::ProcessSet;

/// Worker threads of the measured campaign.
const WORKERS: usize = 2;

fn load(args: &Args) -> Result<(FuzzConfig<ProcessSet>, bool), String> {
    let doc = load_file(&args.scenarios.join("fuzz-fig1.toml"))?;
    let cells = doc.expand();
    let [cell] = cells.as_slice() else {
        return Err(format!("fuzz-fig1: expected one cell, got {}", cells.len()));
    };
    let mut cfg = match resolve_fuzz(&doc, cell, args.seed)? {
        AnyFuzz::Set(cfg) => cfg,
        AnyFuzz::Unit(_) => return Err("fuzz-fig1: expected a Υ-based target".into()),
    };
    cfg.workers = WORKERS;
    if args.quick {
        cfg.execs_per_round = cfg.execs_per_round.min(2048);
    }
    Ok((cfg, args.expect_pass(cell.expect)))
}

fn verdict(out: &mut Outcome, report: &FuzzReport, expect_pass: bool) {
    out.attempted += report.execs;
    out.check(
        report.ok() == expect_pass,
        report.violations.len() as u64,
        || {
            format!(
                "fuzz-fig1: expected {}, got {} violation(s)",
                if expect_pass {
                    "no violation"
                } else {
                    "a violation"
                },
                report.violations.len()
            )
        },
    );
}

/// The untraced run: `verdict_s` is the median time of one campaign.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Setups::default();
    let (cfg, expect_pass) = setups.sample(201, || load(args))?;
    out.workers.push(("fuzz", cfg.workers));

    let (reps, peak) = measure(
        3,
        args.budget(),
        || setups.sample(20, || load(args)).map(drop),
        || fuzz(&cfg, &[]),
    )?;
    out.metrics.put("setup_s", setups.median(), "s");
    out.metrics.put("peak_rss_mb", peak as f64 / 1e6, "MB");
    let first = &reps[0].0;
    for (report, _) in &reps {
        verdict(&mut out, report, expect_pass);
        out.check(report == first, 1, || {
            "fuzz reports differ between repetitions of the same seed".into()
        });
    }
    let verdict_s = out.repetitions(&reps);
    let execs_per_s = first.execs as f64 / verdict_s;
    out.metrics.put("verdict_s", verdict_s, "s");
    out.metrics.put("ops_per_s", execs_per_s, "1/s");
    out.info.put("fuzz.execs_per_s", execs_per_s, "1/s");
    out.info
        .put("fuzz.coverage", first.coverage_hashes.len() as f64, "count");
    out.info.put("fuzz.execs", first.execs as f64, "count");
    out.info
        .put("fuzz.corpus", first.corpus.len() as f64, "count");
    Ok(out)
}

/// The traced run: worker scaling and the determinism spot-check, then
/// every token-fed layer on the campaign's corpus.
pub fn traced(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut t = Tracer::new();
    let mut loaded = None;
    let mark = t.mark();
    for _ in 0..201 {
        loaded = Some(t.span("scenario.load", 1, |_| load(args))?);
    }
    let (cfg, expect_pass) = loaded.expect("loaded at least once");
    out.metrics.put(
        "scenario.load_us",
        t.agg_since(mark, "scenario.load").self_us_per(),
        "us",
    );
    out.workers.push(("fuzz_serial", 1));
    out.workers.push(("fuzz", WORKERS));

    // The same campaign at one and two workers: identical reports by the
    // determinism contract; the time ratio is the steal pool's speed-up.
    let serial = FuzzConfig {
        workers: 1,
        ..cfg.clone()
    };
    let start = Instant::now();
    let one = t.span("fuzz.campaign.1w", 1, |_| fuzz(&serial, &[]));
    let one_s = secs(start);
    let start = Instant::now();
    let two = t.span("fuzz.campaign.2w", 1, |_| fuzz(&cfg, &[]));
    let two_s = secs(start);
    verdict(&mut out, &two, expect_pass);
    out.check(one == two, 1, || {
        "fuzz reports differ between 1 and 2 workers for the same seed".into()
    });
    out.metrics
        .put("sim.steal.speedup_2w", one_s / two_s, "ratio");
    out.metrics
        .put("fuzz.coverage", two.coverage_hashes.len() as f64, "count");

    let budget = Duration::from_secs_f64(args.seconds / 2.0);
    if two.corpus.is_empty() {
        return Err("fuzz-fig1: empty corpus, no runs to probe".into());
    }
    let l = probes::measure(&mut t, &cfg.target, &two.corpus, cfg.window, false, budget);
    l.put(&mut out.metrics);
    // Per-execution cost model of a campaign: one engine run at `Steps`,
    // one coverage pass and one validator call per execution, against the
    // untraced single-worker campaign.
    let per_exec_us = l.engine_run_us + l.coverage_us + l.validator_us;
    out.metrics.put(
        "layer_share",
        per_exec_us * two.execs as f64 / (one_s * 1e6),
        "ratio",
    );
    out.metrics.put("trace_overhead", l.overhead(), "ratio");
    out.info
        .put("fuzz.execs_per_s.1w", one.execs as f64 / one_s, "1/s");
    out.info
        .put("fuzz.execs_per_s.2w", two.execs as f64 / two_s, "1/s");
    out.spans = Some(t);
    Ok(out)
}
