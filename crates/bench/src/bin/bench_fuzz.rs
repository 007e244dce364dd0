//! Fuzzer throughput, coverage growth, and seeded-bug time-to-find,
//! emitting `BENCH_fuzz.json`.
//!
//! ```text
//! cargo run --release -p upsilon-bench --bin bench_fuzz [--out PATH]
//! ```
//!
//! Four measurements:
//!
//! 1. **Throughput** — a clean campaign over the stable-report workload
//!    (n + 1 = 2, depth 8) fanned out over the work-stealing pool,
//!    reported as executions/second with a 250k floor (release build).
//!    The short horizon makes this the harness-bound headline: campaign
//!    overhead, not algorithm compute, is what it guards.
//! 2. **Deep throughput** — the same campaign shape over Fig. 1
//!    (n + 1 = 3, depth 24, one crash allowed), the algorithm-bound
//!    reference workload, with its own floor. Its recipe (target, seed and
//!    round budget) lives in `scenarios/bench-fuzz.toml`.
//! 3. **Coverage growth** — the per-round coverage curves, so plateaus
//!    (a saturated corpus) are visible in the artifact.
//! 4. **Time-to-find** — for each seeded mutant, the index of the
//!    execution that produced the first counterexample under the fixed
//!    benchmark seed; a budget regression shows up as a growing index.
//!
//! Like `bench_check`, the JSON artifact is only written when every
//! acceptance check passes — a failing run never overwrites a good
//! baseline.

use std::process::ExitCode;
use std::time::Instant;
use upsilon_check::samples;
use upsilon_core::table::Table;
use upsilon_fuzz::{fuzz, FuzzConfig};
use upsilon_sim::ProcessId;

/// Throughput floor for the harness-bound headline campaign (release
/// build; the ISSUE's acceptance bar).
const MIN_EXECS_PER_SEC: f64 = 250_000.0;

/// Throughput floor for the algorithm-bound Fig. 1 depth-24 campaign.
const MIN_DEEP_EXECS_PER_SEC: f64 = 75_000.0;

const USAGE: &str = "usage: bench_fuzz [options]
  --out PATH       JSON artifact path (default BENCH_fuzz.json)
  --help           this text";

fn parse_args() -> Result<String, String> {
    let mut out = "BENCH_fuzz.json".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--out" => out = value("--out")?,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(out)
}

/// Times a deterministic campaign three times (every pass produces the
/// same report) and keeps the fastest pass, rejecting scheduler noise on
/// loaded machines.
fn best_timed(
    mut run: impl FnMut() -> upsilon_fuzz::FuzzReport,
) -> (upsilon_fuzz::FuzzReport, f64) {
    let mut best: Option<(upsilon_fuzz::FuzzReport, f64)> = None;
    for _ in 0..3 {
        let start = Instant::now();
        let report = run();
        let rate = report.execs as f64 / start.elapsed().as_secs_f64().max(1e-9);
        if best.as_ref().is_none_or(|(_, b)| rate > *b) {
            best = Some((report, rate));
        }
    }
    best.expect("three passes ran")
}

/// Resolves the deep campaign from `scenarios/bench-fuzz.toml`: the
/// file's first cell under its first seed, with its workload label.
fn deep_campaign() -> Result<(String, upsilon_scenario::AnyFuzz), String> {
    let doc = upsilon_scenario::load("bench-fuzz")?;
    let cell = doc
        .expand()
        .into_iter()
        .next()
        .ok_or("bench-fuzz: the scenario expands to no cells")?;
    let seed = doc.seeds.first().copied().unwrap_or(0);
    let axis = |key: &str| cell.get(key).map_or("-".to_string(), |v| v.to_string());
    let label = format!(
        "{} fuzzing, n_plus_1 = {}, depth {}",
        cell.protocol,
        axis("n_plus_1"),
        axis("depth")
    );
    Ok((label, upsilon_scenario::resolve_fuzz(&doc, &cell, seed)?))
}

/// One seeded-mutant measurement: `(execs spent, exec index of the first
/// counterexample)`, or why the mutant was not found.
type TimeToFind = Result<(u64, u64), String>;

/// Runs a fixed-seed campaign against one seeded mutant and returns
/// `(execs spent, exec index of the first counterexample)`.
fn time_to_find<D: upsilon_sim::FdValue>(
    target: upsilon_check::CheckConfig<D>,
    seed: u64,
    rounds: usize,
    execs: u64,
) -> TimeToFind {
    let cfg = FuzzConfig::new(target).seed(seed).budget(rounds, execs);
    let report = fuzz(&cfg, &[]);
    let first = report
        .violations
        .iter()
        .map(|v| v.exec)
        .min()
        .ok_or("mutant not found within the benchmark budget")?;
    Ok((report.execs, first))
}

fn main() -> ExitCode {
    let out = match parse_args() {
        Ok(v) => v,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let (deep_label, deep_cfg) = match deep_campaign() {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };

    // 1 + 3: throughput and coverage growth on the clean reference
    // workload, stable-report (n + 1 = 2, depth 8). Campaigns are
    // deterministic, so repeating one only re-times the identical work;
    // the best of three rejects scheduler noise on loaded machines.
    let cfg = FuzzConfig::new(samples::stable_report(2, 2, 8))
        .seed(42)
        .budget(4, 4096);
    let (report, execs_per_sec) = best_timed(|| fuzz(&cfg, &[]));

    // 2: the algorithm-bound deep campaign.
    let (deep, deep_execs_per_sec) = best_timed(|| deep_cfg.fuzz(&[]));

    let mut t = Table::new(
        format!(
            "Fuzzer — stable-report, n+1 = 2, depth 8, {} execs",
            report.execs
        ),
        &["metric", "value"],
    );
    t.row(["execs/sec".to_string(), format!("{execs_per_sec:.0}")]);
    t.row([
        "coverage".to_string(),
        report.coverage_hashes.len().to_string(),
    ]);
    t.row(["corpus".to_string(), report.corpus.len().to_string()]);
    println!("{t}");
    for g in &report.growth {
        println!("  growth: execs={} coverage={}", g.execs, g.coverage);
    }

    let mut dt = Table::new(
        format!("Fuzzer (deep) — {deep_label}, {} execs", deep.execs),
        &["metric", "value"],
    );
    dt.row(["execs/sec".to_string(), format!("{deep_execs_per_sec:.0}")]);
    dt.row([
        "coverage".to_string(),
        deep.coverage_hashes.len().to_string(),
    ]);
    dt.row(["corpus".to_string(), deep.corpus.len().to_string()]);
    println!("{dt}");

    // 4: time-to-find for the three seeded mutants (same seeds and budgets
    // as the fuzz crate's mutation-detection suite).
    let mutants: Vec<(&str, TimeToFind)> = vec![
        (
            "commit-buggy",
            time_to_find(samples::snapshot_commit(2, 1, 12, true), 1, 1, 256),
        ),
        (
            "converge-offby1",
            time_to_find(samples::converge_offby1(3, 1, 12, 1), 2, 2, 512),
        ),
        (
            "fig2-dropped",
            time_to_find(
                samples::fig2_dropped_write(2, 1, 16, 0, Some(ProcessId(1))),
                3,
                2,
                512,
            ),
        ),
    ];
    let mut mt = Table::new(
        "Seeded-mutant time-to-find (fixed seeds)".to_string(),
        &["mutant", "budget", "found at exec"],
    );
    for (name, r) in &mutants {
        match r {
            Ok((budget, at)) => mt.row([name.to_string(), budget.to_string(), at.to_string()]),
            Err(e) => mt.row([name.to_string(), "-".to_string(), e.clone()]),
        };
    }
    println!("{mt}");

    let mut failed = false;
    if !report.ok() {
        eprintln!(
            "FAIL: the reference campaign must be clean, found {:?}",
            report.violations[0].spec
        );
        failed = true;
    }
    if execs_per_sec < MIN_EXECS_PER_SEC {
        eprintln!("FAIL: {execs_per_sec:.0} execs/sec below the {MIN_EXECS_PER_SEC:.0} floor");
        failed = true;
    }
    if !deep.ok() {
        eprintln!(
            "FAIL: the deep campaign must be clean, found {:?}",
            deep.violations[0].spec
        );
        failed = true;
    }
    if deep_execs_per_sec < MIN_DEEP_EXECS_PER_SEC {
        eprintln!(
            "FAIL: deep campaign {deep_execs_per_sec:.0} execs/sec below the {MIN_DEEP_EXECS_PER_SEC:.0} floor"
        );
        failed = true;
    }
    for (name, r) in &mutants {
        if let Err(e) = r {
            eprintln!("FAIL: {name}: {e}");
            failed = true;
        }
    }
    if failed {
        eprintln!("not writing {out}: acceptance checks failed");
        return ExitCode::FAILURE;
    }

    let growth: Vec<String> = report
        .growth
        .iter()
        .map(|g| format!("{{\"execs\":{},\"coverage\":{}}}", g.execs, g.coverage))
        .collect();
    let ttf: Vec<String> = mutants
        .iter()
        .map(|(name, r)| {
            let (budget, at) = r.as_ref().expect("checked above");
            format!("{{\"mutant\":{name:?},\"budget\":{budget},\"found_at_exec\":{at}}}")
        })
        .collect();
    let deep_growth: Vec<String> = deep
        .growth
        .iter()
        .map(|g| format!("{{\"execs\":{},\"coverage\":{}}}", g.execs, g.coverage))
        .collect();
    let json = format!(
        "{{\n  \"workload\": \"stable-report fuzzing, n_plus_1 = 2, depth 8\",\n  \
         \"execs\": {},\n  \"execs_per_sec\": {execs_per_sec:.1},\n  \
         \"coverage\": {},\n  \"corpus\": {},\n  \"growth\": [{}],\n  \
         \"deep\": {{\n    \"workload\": \"{deep_label}\",\n    \
         \"execs\": {},\n    \"execs_per_sec\": {deep_execs_per_sec:.1},\n    \
         \"coverage\": {},\n    \"corpus\": {},\n    \"growth\": [{}]\n  }},\n  \
         \"time_to_find\": [{}],\n  \"clean\": true\n}}\n",
        report.execs,
        report.coverage_hashes.len(),
        report.corpus.len(),
        growth.join(","),
        deep.execs,
        deep.coverage_hashes.len(),
        deep.corpus.len(),
        deep_growth.join(","),
        ttf.join(","),
    );
    std::fs::write(&out, &json).expect("write benchmark artifact");
    println!("wrote {out}");
    ExitCode::SUCCESS
}
