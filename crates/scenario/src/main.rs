//! The scenario driver, the one command-line front end for check, fuzz,
//! experiment and swarm workloads. Usage:
//!
//! ```text
//! cargo run -p upsilon-scenario -- validate [FILE...]
//! cargo run -p upsilon-scenario -- expand FILE
//! cargo run -p upsilon-scenario -- run FILE [--workers N] [--json] [--expect] [--out PATH]
//!                                           [--corpus DIR]
//! cargo run -p upsilon-scenario -- ab FILE [--workers N]
//! ```
//!
//! `validate` parses and cell-resolves scenario files (all checked-in
//! files when none are named); `expand` prints the matrix cells; `run`
//! executes the full matrix and prints the evidence table (line-delimited
//! JSON with `--json`, written to `--out` if given), exiting non-zero
//! under `--expect` when any verdict misses its expectation; `ab` adds the
//! per-arm A/B comparison table.
//!
//! `--corpus DIR` (fuzz-kind files only) loads the on-disk corpus once,
//! seeds every campaign of the matrix with it, and saves the union of the
//! campaigns' corpora back after the merge; the evidence then depends only
//! on the file and the corpus contents, at any `--workers`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use upsilon_core::table::Table;
use upsilon_fuzz::{load_corpus, save_corpus_entry};
use upsilon_scenario::matrix::{arm_summaries, run_matrix_with_corpus, to_jsonl, validate_cells};
use upsilon_scenario::{load_all, load_file, Kind, ScenarioDoc};

const USAGE: &str = "usage: upsilon-scenario <command> [args]
  validate [FILE...]   parse and resolve scenario files (default: every checked-in file)
  expand FILE          print the matrix cells
  run FILE [options]   run the matrix and print the evidence table
  ab FILE [options]    run, then compare the variant arms
options:
  --workers N          worker threads (default 0 = auto)
  --json               print the evidence as line-delimited JSON
  --out PATH           also write the JSON evidence to PATH
  --expect             exit 1 when a verdict misses its expectation
  --corpus DIR         fuzz files only: seed every campaign from DIR and
                       save the merged corpus back";

/// The `run` / `ab` options.
struct RunOpts {
    workers: usize,
    json: bool,
    expect: bool,
    ab: bool,
    out: Option<PathBuf>,
    corpus: Option<PathBuf>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let mut files: Vec<PathBuf> = Vec::new();
    let mut opts = RunOpts {
        workers: 0,
        json: false,
        expect: false,
        ab: cmd == "ab",
        out: None,
        corpus: None,
    };
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workers" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.workers = v,
                None => {
                    eprintln!("--workers needs an integer");
                    return ExitCode::FAILURE;
                }
            },
            "--json" => opts.json = true,
            "--expect" => opts.expect = true,
            "--out" => match it.next() {
                Some(v) => opts.out = Some(PathBuf::from(v)),
                None => {
                    eprintln!("--out needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--corpus" => match it.next() {
                Some(v) => opts.corpus = Some(PathBuf::from(v)),
                None => {
                    eprintln!("--corpus needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            other => files.push(PathBuf::from(other)),
        }
    }

    match cmd.as_str() {
        "validate" => cmd_validate(&files),
        "expand" => match one_file(&files).and_then(|(p, d)| cmd_expand(&p, &d)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
        "run" | "ab" => {
            let (path, doc) = match one_file(&files) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            cmd_run(&path, &doc, &opts)
        }
        other => {
            eprintln!("unknown subcommand {other:?}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn one_file(files: &[PathBuf]) -> Result<(PathBuf, ScenarioDoc), String> {
    match files {
        [path] => Ok((path.clone(), load_file(path)?)),
        _ => Err("expected exactly one scenario file".into()),
    }
}

fn cmd_validate(files: &[PathBuf]) -> ExitCode {
    let docs = if files.is_empty() {
        match load_all() {
            Ok(docs) => docs,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let mut docs = Vec::new();
        for path in files {
            match load_file(path) {
                Ok(d) => docs.push((path.clone(), d)),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        docs
    };
    let mut failed = false;
    for (path, doc) in &docs {
        match validate_cells(doc) {
            Ok(cells) => {
                let s = doc.summary();
                println!(
                    "ok {} ({}, {} arm{}, {} cells, {} runs) — {}",
                    doc.name,
                    doc.kind,
                    s.arms,
                    if s.arms == 1 { "" } else { "s" },
                    cells.len(),
                    s.total_runs,
                    path.display()
                );
            }
            Err(e) => {
                eprintln!("{}: {e}", path.display());
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_expand(path: &Path, doc: &ScenarioDoc) -> Result<(), String> {
    let cells = validate_cells(doc).map_err(|e| format!("{}: {e}", path.display()))?;
    let s = doc.summary();
    println!(
        "{}: {} cells × {} seeds × {} repeats = {} runs",
        doc.name,
        cells.len(),
        s.seeds,
        s.repeats,
        s.total_runs
    );
    for (i, cell) in cells.iter().enumerate() {
        println!("  [{i}] {} (expect {})", cell.label(), cell.expect);
    }
    Ok(())
}

fn cmd_run(path: &Path, doc: &ScenarioDoc, opts: &RunOpts) -> ExitCode {
    let seeds = match &opts.corpus {
        None => Vec::new(),
        Some(_) if doc.kind != Kind::Fuzz => {
            eprintln!(
                "{}: --corpus needs a fuzz scenario, `{}` has kind `{}`",
                path.display(),
                doc.name,
                doc.kind
            );
            return ExitCode::FAILURE;
        }
        Some(dir) => match load_corpus(dir) {
            Ok(seeds) => {
                eprintln!(
                    "corpus: loaded {} entries from {}",
                    seeds.len(),
                    dir.display()
                );
                seeds
            }
            Err(e) => {
                eprintln!("--corpus: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let started = Instant::now();
    let report = match run_matrix_with_corpus(doc, opts.workers, &seeds) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let elapsed = started.elapsed().as_secs_f64();
    if let Some(dir) = &opts.corpus {
        for tok in &report.corpus {
            if let Err(e) = save_corpus_entry(dir, tok) {
                eprintln!("--corpus: {e}");
                return ExitCode::FAILURE;
            }
        }
        eprintln!(
            "corpus: saved {} entries to {}",
            report.corpus.len(),
            dir.display()
        );
    }
    let jsonl = to_jsonl(&report.records);
    if let Some(out) = &opts.out {
        if let Err(e) = std::fs::write(out, &jsonl) {
            eprintln!("{}: {e}", out.display());
            return ExitCode::FAILURE;
        }
    }
    if opts.json {
        print!("{jsonl}");
    } else {
        let mut t = Table::new(
            format!("scenario {} — evidence", report.scenario),
            &[
                "cell", "seed", "engine", "verdict", "expected", "states", "token",
            ],
        );
        for r in &report.records {
            t.row([
                format!("{}/{}", r.arm, r.cell),
                r.seed.to_string(),
                r.engine.to_string(),
                r.verdict.to_string(),
                r.expected.to_string(),
                r.out.states.to_string(),
                r.out.token.clone().unwrap_or_else(|| "-".into()),
            ]);
        }
        println!("{t}");
    }
    if opts.ab {
        let mut t = Table::new(
            format!("scenario {} — A/B arms", report.scenario),
            &["arm", "runs", "matched", "violations", "mean states"],
        );
        for a in arm_summaries(&report.records) {
            t.row([
                a.arm.clone(),
                a.runs.to_string(),
                format!("{}/{}", a.matched, a.runs),
                a.violations.to_string(),
                format!("{:.1}", a.mean_states),
            ]);
        }
        println!("{t}");
    }
    let states: u64 = report.records.iter().map(|r| r.out.states).sum();
    eprintln!(
        "{} runs, {} states/execs in {:.2}s ({:.0}/s), deterministic = {}, ok = {}",
        report.records.len(),
        states,
        elapsed,
        states as f64 / elapsed.max(1e-9),
        report.deterministic,
        report.ok
    );
    if opts.expect && !report.ok {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
