//! Outside-in benchmark of the repository's three user-facing paths:
//! exhaustive checking (`check-paper`), coverage-guided fuzzing
//! (`fuzz-fig1`) and the packed swarm executor (`swarm-pack`).
//!
//! ```text
//! upsilon-perfbench --workload NAME --seed N --seconds S --trace 0|1 \
//!     --scenarios DIR [--out DIR] [--quick] [--expect-wrong]
//! ```
//!
//! Each workload is declared as a scenario file under `--scenarios`, set
//! up through the scenario layer (`load_file`, `expand`, resolve) and run
//! through the crates' public entry points. Only those calls are timed.
//! Every output is checked against the scenario's expected verdict.
//!
//! With `--trace 0` the run prints the end-to-end metrics; with
//! `--trace 1` it prints the per-layer metrics, measured by timing public
//! calls of each layer on the workload's own inputs, and writes its spans
//! to `--out`. stdout ends with two JSON lines: `INFO {...}` (counters and
//! the headline figures under their layer names) and the result object
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! `--quick` shrinks every workload for self-tests. `--expect-wrong`
//! inverts every expected verdict, so a correct program must fail the run.

mod check_paper;
mod fuzz_fig1;
mod probes;
mod swarm_pack;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use util::{quote, Metrics};

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("verdict_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run prints, with their units. A row
/// whose layer is not on a workload's path reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("check.nodes", "count"),
    ("check.sleep_pruned", "count"),
    ("check.dedup_pruned", "count"),
    ("check.symmetry_pruned", "count"),
    ("check.fd_variant_nodes", "count"),
    ("check.dedup_yield", "ratio"),
    ("check.states_per_s", "1/s"),
    ("check.explore_self_us", "us"),
    ("sim.session.step_us", "us"),
    ("sim.session.save_us", "us"),
    ("sim.session.restore_us", "us"),
    ("sim.trace.full_extra_us", "us"),
    ("sim.fingerprint_us", "us"),
    ("sim.engine.run_us", "us"),
    ("sim.engine.steps_per_s", "1/s"),
    ("sim.coverage_us", "us"),
    ("sim.steal.speedup_2w", "ratio"),
    ("analysis.validator_us", "us"),
    ("mem.ops.register", "count"),
    ("mem.ops.snapshot", "count"),
    ("mem.ops.consensus", "count"),
    ("mem.invoke_ns.register", "ns"),
    ("mem.invoke_ns.snapshot", "ns"),
    ("mem.invoke_ns.consensus", "ns"),
    ("fd.queries", "count"),
    ("fd.query_ns", "ns"),
    ("fuzz.coverage", "count"),
    ("swarm.build_us", "us"),
    ("swarm.pack_us", "us"),
    ("swarm.step_us", "us"),
    ("swarm.finish_us", "us"),
    ("swarm.fold_us", "us"),
    ("swarm.quota_calls_per_instance", "count"),
    ("swarm.approx_bytes_per_instance", "B"),
    ("swarm.rss_per_instance_b", "B"),
    ("swarm.bytes_reported_over_rss", "ratio"),
    ("swarm.speedup_2w", "ratio"),
    ("scenario.load_us", "us"),
    ("layer_share", "ratio"),
    ("trace_overhead", "ratio"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &["check-paper", "fuzz-fig1", "swarm-pack"];

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scenarios: PathBuf,
    pub out: PathBuf,
    pub quick: bool,
    pub expect_wrong: bool,
}

impl Args {
    /// The measuring budget.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// The verdict a cell must produce: its declared expectation, inverted
    /// under `--expect-wrong`.
    pub fn expect_pass(&self, expect: upsilon_scenario::Expect) -> bool {
        (expect == upsilon_scenario::Expect::Pass) != self.expect_wrong
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        scenarios: PathBuf::from("perfbench/scenarios"),
        out: PathBuf::from(".perfbench_out"),
        quick: false,
        expect_wrong: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--scenarios" => args.scenarios = PathBuf::from(value()?),
            "--out" => args.out = PathBuf::from(value()?),
            "--quick" => args.quick = true,
            "--expect-wrong" => args.expect_wrong = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// What one run produced.
#[derive(Default, Debug)]
pub struct Outcome {
    /// Operations attempted: check jobs, fuzz executions or swarm instances.
    pub attempted: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
    /// The contract metrics (end-to-end or per-layer).
    pub metrics: Metrics,
    /// Headline figures under their layer names, counters and checks.
    pub info: Metrics,
    /// Worker threads each measured call used.
    pub workers: Vec<(&'static str, usize)>,
    /// Failed output checks, one line each.
    pub errors: Vec<String>,
    /// The traced run's spans, written out when the run ends.
    pub spans: Option<trace::Tracer>,
}

impl Outcome {
    /// Records how many repetitions of the unit of work ran and their
    /// fastest and slowest times; returns their median time.
    pub fn repetitions<R>(&mut self, reps: &[(R, f64)]) -> f64 {
        let times: Vec<f64> = reps.iter().map(|r| r.1).collect();
        self.info.put("repetitions", times.len() as f64, "count");
        let fastest = times.iter().copied().fold(f64::INFINITY, f64::min);
        let slowest = times.iter().copied().fold(0.0, f64::max);
        self.info.put("repetition_min_s", fastest, "s");
        self.info.put("repetition_max_s", slowest, "s");
        util::median(&times)
    }

    /// Records an output check: a failed check counts `failures` failed
    /// operations and keeps `what` for the report.
    pub fn check(&mut self, ok: bool, failures: u64, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += failures.max(1);
            let what = what();
            if !self.errors.contains(&what) {
                self.errors.push(what);
            }
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("upsilon-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match (args.workload.as_str(), args.trace) {
        ("check-paper", false) => check_paper::run(&args),
        ("check-paper", true) => check_paper::traced(&args),
        ("fuzz-fig1", false) => fuzz_fig1::run(&args),
        ("fuzz-fig1", true) => fuzz_fig1::traced(&args),
        ("swarm-pack", false) => swarm_pack::run(&args),
        ("swarm-pack", true) => swarm_pack::traced(&args),
        _ => unreachable!("workload validated by parse_args"),
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("upsilon-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(spans) = &out.spans {
        let path = args.out.join(format!("spans-{}.jsonl", args.workload));
        if let Err(e) = spans.write_jsonl(&path) {
            eprintln!("upsilon-perfbench: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    let peak_mb = out
        .metrics
        .get("peak_rss_mb")
        .unwrap_or(util::peak_rss_bytes() as f64 / 1e6);
    out.info.put("peak_rss_mb", peak_mb, "MB");
    out.info.put(
        "fail_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );

    // Exactly the contract's metric list, in its order; a missing row is a
    // bug in this benchmark, not a zero.
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Metrics::default();
    for &(name, unit) in wanted {
        match out.metrics.get(name) {
            Some(v) => metrics.put(name, v, unit),
            None if args.trace => metrics.put(name, 0.0, unit),
            None => {
                eprintln!("upsilon-perfbench: metric {name} was not measured");
                return ExitCode::from(2);
            }
        }
    }

    for e in &out.errors {
        eprintln!("upsilon-perfbench: output check failed: {e}");
    }
    let workers = out
        .workers
        .iter()
        .map(|(k, v)| format!("{}: {v}", quote(k)))
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "INFO {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"workers\": {{{workers}}}, \"figures\": {}}}",
        quote(&args.workload),
        args.seed,
        u8::from(args.trace),
        out.info.to_json()
    );
    let correct = out.failed == 0 && out.errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
