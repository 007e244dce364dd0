//! Unified analysis driver: one entry point for every static and dynamic
//! pass the repository ships.
//!
//! ```text
//! cargo run -p upsilon-analysis --bin analyze -- lint [--json]
//! cargo run -p upsilon-analysis --bin analyze -- conform [--json]
//! cargo run -p upsilon-analysis --bin analyze -- commute [--json | --emit]
//! cargo run -p upsilon-analysis --bin analyze -- symmetry [--json | --emit]
//! cargo run -p upsilon-analysis --bin analyze -- run-conditions [--json] \
//!     [--seeds <count>] [--procs <n+1>]
//! cargo run -p upsilon-analysis --bin analyze -- scenario [--json]
//! ```
//!
//! `lint`, `conform`, `commute` and `symmetry` are the static passes
//! (determinism lint over the simulator crates, §3.1 conformance over the
//! algorithm crates, DPOR-soundness audit of the shared objects' `access()`
//! classifications, and pid-parametricity audit plus orbit derivation over
//! the protocol crates). `commute --emit` and `symmetry --emit` print the
//! generated `crates/sim/src/{commute,symmetry}.rs` modules; they refuse
//! to emit from a failing audit. `run-conditions` is the dynamic pass: it
//! drives a built-in leader workload over a seed sweep and validates every
//! recorded run against the §3.3 run conditions with
//! [`upsilon_analysis::check_run_for`]. `scenario` is the declarative-layer
//! pass: it parses every `scenarios/*.toml` with the dependency-free schema
//! crate (analysis sits below the runner), reports axis cardinalities and
//! cell counts, and fails on orphans — parse failures or files whose `name`
//! does not match the stem — and on missing required check samples.
//!
//! Exit status: 0 when the pass is clean (or `--emit` succeeds), 1 on
//! findings, 2 on usage or I/O errors.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use upsilon_analysis::{check_run_for, RunStats};
use upsilon_mem::{RegOp, RegResp, RegisterObject};
use upsilon_sim::{
    algo, run_batch, DummyOracle, FailurePattern, Key, ProcessId, SeededRandom, SimBuilder, Time,
};

fn usage() -> ! {
    eprintln!(
        "usage: analyze <lint|conform|commute|symmetry|run-conditions|scenario> [options]\n\
         \n\
         common options:\n\
         \x20 --root <dir>        workspace root (default .)\n\
         \x20 --json              machine-readable output\n\
         \n\
         lint / conform / commute / symmetry options:\n\
         \x20 --allowlist <file>  audited-exception file (default under crates/analysis/)\n\
         \n\
         commute / symmetry options:\n\
         \x20 --emit              print the generated crates/sim/src/<pass>.rs\n\
         \n\
         run-conditions options:\n\
         \x20 --seeds <count>     schedules per pattern (default 16)\n\
         \x20 --procs <n+1>       processes, half of them also run a crashy pattern (default 3)\n\
         \n\
         scenario: validates <root>/scenarios/*.toml against the schema"
    );
    std::process::exit(2);
}

#[derive(Default)]
struct Opts {
    root: PathBuf,
    allowlist: Option<PathBuf>,
    json: bool,
    emit: bool,
    seeds: u64,
    procs: usize,
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mode = args.next().unwrap_or_else(|| usage());

    let mut opts = Opts {
        root: PathBuf::from("."),
        seeds: 16,
        procs: 3,
        ..Opts::default()
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => opts.root = PathBuf::from(args.next().unwrap_or_else(|| usage())),
            "--allowlist" => {
                opts.allowlist = Some(PathBuf::from(args.next().unwrap_or_else(|| usage())));
            }
            "--json" => opts.json = true,
            "--emit" => opts.emit = true,
            "--seeds" => {
                opts.seeds = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--procs" => {
                opts.procs = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }

    if opts.emit && !matches!(mode.as_str(), "commute" | "symmetry") {
        eprintln!("analyze {mode}: --emit applies only to commute and symmetry");
        return ExitCode::from(2);
    }
    match mode.as_str() {
        "lint" => lint(&opts),
        "conform" => conform(&opts),
        "commute" => commute(&opts),
        "symmetry" => symmetry(&opts),
        "run-conditions" => run_conditions(&opts),
        "scenario" => scenario(&opts),
        "--help" | "-h" => usage(),
        other => {
            eprintln!("unknown mode: {other}");
            usage();
        }
    }
}

fn lint(opts: &Opts) -> ExitCode {
    use upsilon_analysis::lint;
    let allow = match load_allowlist(opts, "lint", lint::Allowlist::load) {
        Ok(a) => a,
        Err(code) => return code,
    };
    let report = match lint::scan_workspace(&opts.root, &allow) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("analyze lint: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.json {
        print!("{}", report.to_json());
    } else {
        for finding in &report.violations {
            println!("{finding}");
        }
        println!(
            "lint: {} files scanned, {} violations, {} allowlisted",
            report.files_scanned,
            report.violations.len(),
            report.suppressed.len()
        );
    }
    pass_fail(report.is_clean())
}

fn conform(opts: &Opts) -> ExitCode {
    let allow = match load_allowlist(opts, "conform", upsilon_conform::load_allowlist) {
        Ok(a) => a,
        Err(code) => return code,
    };
    let report = match upsilon_conform::scan_workspace(&opts.root, &allow) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("analyze conform: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.json {
        print!("{}", report.to_json());
    } else {
        for finding in &report.findings {
            println!("{finding}");
        }
        for row in &report.bounds {
            match (&row.bound, &row.unbounded) {
                (Some(b), _) => println!(
                    "bound: {}:{} {} ≤ {}{}",
                    row.file,
                    row.line,
                    row.name,
                    b,
                    if row.wait_free { "  [wait_free]" } else { "" }
                ),
                (None, Some(why)) => {
                    println!(
                        "bound: {}:{} {} unbounded ({why})",
                        row.file, row.line, row.name
                    );
                }
                (None, None) => {}
            }
        }
        println!(
            "conform: {} files scanned, {} findings, {} allowlisted, {} routines bounded",
            report.files.len(),
            report.findings.len(),
            report.suppressed.len(),
            report.bounds.iter().filter(|b| b.bound.is_some()).count()
        );
    }
    pass_fail(report.findings.is_empty())
}

fn commute(opts: &Opts) -> ExitCode {
    let allow = match load_allowlist(opts, "commute", upsilon_commute::load_allowlist) {
        Ok(a) => a,
        Err(code) => return code,
    };
    let report = match upsilon_commute::scan_workspace(&opts.root, &allow) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("analyze commute: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.emit {
        // An unjustified classification would be baked into the explorer's
        // conflict relation.
        return emit("commute", &report.findings, || {
            upsilon_commute::emit::render(&report.impls)
        });
    }
    if opts.json {
        print!("{}", report.to_json());
    } else {
        for finding in &report.findings {
            println!("{finding}");
        }
        println!(
            "commute: {} files scanned, {} impls analyzed, {} findings, {} allowlisted",
            report.files.len(),
            report.impls.len(),
            report.findings.len(),
            report.suppressed.len()
        );
    }
    pass_fail(report.is_clean())
}

fn symmetry(opts: &Opts) -> ExitCode {
    let allow = match load_allowlist(opts, "symmetry", upsilon_symmetry::load_allowlist) {
        Ok(a) => a,
        Err(code) => return code,
    };
    let report = match upsilon_symmetry::scan_workspace(&opts.root, &allow) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("analyze symmetry: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.emit {
        // An undocumented symmetry break could otherwise be reclassified as
        // a certified orbit by a later edit without anyone noticing. (The
        // verdicts feeding the table ignore the allowlist regardless; this
        // gate keeps the diagnostics honest too.)
        return emit("symmetry", &report.findings, || {
            upsilon_symmetry::emit::render(&report.orbits)
        });
    }
    if opts.json {
        print!("{}", report.to_json());
    } else {
        for finding in &report.findings {
            println!("{finding}");
        }
        for orbit in &report.orbits {
            println!("orbit: {} -> {}", orbit.sample, orbit.orbit.label());
        }
        println!(
            "symmetry: {} files scanned, {} routines ({} symmetric), {} orbits, \
             {} findings, {} allowlisted",
            report.files.len(),
            report.routines.len(),
            report.routines.iter().filter(|v| v.symmetric).count(),
            report.orbits.len(),
            report.findings.len(),
            report.suppressed.len()
        );
    }
    pass_fail(report.is_clean())
}

/// The declarative-layer pass: schema-validate every checked-in scenario
/// file and report each matrix's cardinalities. Orphans — files that fail
/// to parse or whose `name` disagrees with the stem — and missing required
/// check samples fail the pass. Only the dependency-free schema crate is
/// used: analysis sits below the check/fuzz layer, so it validates the
/// documents without being able to run them.
fn scenario(opts: &Opts) -> ExitCode {
    use upsilon_conform::diag::json_string;
    use upsilon_scenario_schema::{Kind, ScenarioDoc, REQUIRED_SAMPLES};

    let dir = opts.root.join("scenarios");
    let mut paths: Vec<PathBuf> = match std::fs::read_dir(&dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "toml"))
            .collect(),
        Err(e) => {
            eprintln!("analyze scenario: {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    };
    paths.sort();

    let mut docs: Vec<(PathBuf, ScenarioDoc)> = Vec::new();
    let mut orphans: Vec<(PathBuf, String)> = Vec::new();
    for path in paths {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                orphans.push((path, e.to_string()));
                continue;
            }
        };
        match ScenarioDoc::parse(&text) {
            Ok(doc) => {
                let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
                if doc.name == stem {
                    docs.push((path, doc));
                } else {
                    let msg = format!("name {:?} does not match the file stem {stem:?}", doc.name);
                    orphans.push((path, msg));
                }
            }
            Err(d) => orphans.push((path, d.to_string())),
        }
    }
    let missing: Vec<&str> = REQUIRED_SAMPLES
        .iter()
        .copied()
        .filter(|r| {
            !docs
                .iter()
                .any(|(_, d)| d.name == *r && d.kind == Kind::Check)
        })
        .collect();
    let clean = orphans.is_empty() && missing.is_empty();

    if opts.json {
        let mut out = String::from("{\n  \"scenarios\": [");
        for (i, (path, doc)) in docs.iter().enumerate() {
            let s = doc.summary();
            let axes: Vec<String> = s
                .axes
                .iter()
                .map(|(name, card)| format!("{}: {card}", json_string(name)))
                .collect();
            out.push_str(&format!(
                "{}\n    {{\"name\": {}, \"path\": {}, \"kind\": {}, \"protocol\": {}, \
                 \"arms\": {}, \"axes\": {{{}}}, \"cells\": {}, \"seeds\": {}, \
                 \"repeats\": {}, \"total_runs\": {}}}",
                if i > 0 { "," } else { "" },
                json_string(&doc.name),
                json_string(&path.display().to_string()),
                json_string(doc.kind.as_str()),
                json_string(&doc.protocol),
                s.arms,
                axes.join(", "),
                s.cells,
                s.seeds,
                s.repeats,
                s.total_runs,
            ));
        }
        if !docs.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"orphans\": [");
        for (i, (path, err)) in orphans.iter().enumerate() {
            out.push_str(&format!(
                "{}\n    {{\"path\": {}, \"error\": {}}}",
                if i > 0 { "," } else { "" },
                json_string(&path.display().to_string()),
                json_string(err),
            ));
        }
        if !orphans.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"missing_required\": [");
        let quoted: Vec<String> = missing.iter().map(|m| json_string(m)).collect();
        out.push_str(&quoted.join(", "));
        out.push_str(&format!("],\n  \"ok\": {clean}\n}}\n"));
        print!("{out}");
    } else {
        for (path, doc) in &docs {
            let s = doc.summary();
            let axes: Vec<String> = s
                .axes
                .iter()
                .map(|(name, card)| format!("{name}={card}"))
                .collect();
            println!(
                "scenario: {} ({}, {}) — {} arm(s), axes [{}], {} cells x {} seeds x {} \
                 repeats = {} runs — {}",
                doc.name,
                doc.kind.as_str(),
                doc.protocol,
                s.arms,
                axes.join(", "),
                s.cells,
                s.seeds,
                s.repeats,
                s.total_runs,
                path.display()
            );
        }
        for (path, err) in &orphans {
            println!("scenario: ORPHAN {}: {err}", path.display());
        }
        for m in &missing {
            println!("scenario: MISSING required check sample {m}");
        }
        println!(
            "scenario: {} valid, {} orphaned, {} required missing",
            docs.len(),
            orphans.len(),
            missing.len()
        );
    }
    pass_fail(clean)
}

/// Loads a pass's audited-exception file: `--allowlist` if given, else
/// `crates/analysis/<pass>-allowlist.txt` under the root. Only the default
/// may be absent (an empty allowlist); a named file that is missing or
/// malformed is a usage error, so a typo cannot silently drop every audited
/// exception.
fn load_allowlist<A: Default>(
    opts: &Opts,
    pass: &str,
    load: impl Fn(&Path) -> std::io::Result<A>,
) -> Result<A, ExitCode> {
    let path = match &opts.allowlist {
        Some(path) => path.clone(),
        None => {
            let path = opts
                .root
                .join(format!("crates/analysis/{pass}-allowlist.txt"));
            if !path.exists() {
                return Ok(A::default());
            }
            path
        }
    };
    load(&path).map_err(|e| {
        eprintln!("analyze: bad allowlist {}: {e}", path.display());
        ExitCode::from(2)
    })
}

/// One seeded workload execution, producing (seed, crashy?, validated stats).
type RunJob = Box<dyn FnOnce() -> (u64, bool, Result<RunStats, String>) + Send>;

/// The dynamic pass: drive the built-in leader workload over failure-free
/// and crashy patterns for a seed sweep and validate every run against the
/// §3.3 run conditions.
fn run_conditions(opts: &Opts) -> ExitCode {
    let n_plus_1 = opts.procs.max(2);
    let mut jobs: Vec<RunJob> = Vec::new();
    for seed in 0..opts.seeds {
        jobs.push(Box::new(move || {
            let pattern = FailurePattern::failure_free(n_plus_1);
            let outcome = leader_workload(pattern, seed);
            (
                seed,
                false,
                check_run_for(&outcome.run).map_err(|v| v.to_string()),
            )
        }));
        jobs.push(Box::new(move || {
            // Crash the highest-numbered process partway through.
            let pattern = FailurePattern::builder(n_plus_1)
                .crash(ProcessId(n_plus_1 - 1), Time(4))
                .build();
            let outcome = leader_workload(pattern, seed);
            (
                seed,
                true,
                check_run_for(&outcome.run).map_err(|v| v.to_string()),
            )
        }));
    }
    let results = run_batch(jobs, 4);

    let mut failures: Vec<(u64, bool, String)> = Vec::new();
    let mut decisions = 0u64;
    for (seed, crashy, res) in results {
        match res {
            Ok(stats) => decisions += stats.decisions as u64,
            Err(v) => failures.push((seed, crashy, v)),
        }
    }
    failures.sort();

    if opts.json {
        use upsilon_conform::diag::json_string;
        let mut out = String::from("{\n  \"violations\": [");
        for (i, (seed, crashy, v)) in failures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"seed\": {seed}, \"crashy\": {crashy}, \"violation\": {}}}",
                json_string(v)
            ));
        }
        if !failures.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str(&format!(
            "],\n  \"runs_checked\": {},\n  \"decisions\": {decisions}\n}}\n",
            opts.seeds * 2
        ));
        print!("{out}");
    } else {
        for (seed, crashy, v) in &failures {
            println!(
                "run-conditions: seed {seed} ({}): {v}",
                if *crashy { "crashy" } else { "failure-free" }
            );
        }
        println!(
            "run-conditions: {} runs checked ({} seeds x 2 patterns, n+1={n_plus_1}), \
             {} violations, {decisions} decisions observed",
            opts.seeds * 2,
            opts.seeds,
            failures.len()
        );
    }
    pass_fail(failures.is_empty())
}

/// The same consensus-like workload the validator's mutation tests drive:
/// every process writes its proposal, queries the detector, then spins
/// reading the designated leader's register until it can decide.
fn leader_workload(pattern: FailurePattern, seed: u64) -> upsilon_sim::SimOutcome<u64> {
    SimBuilder::<u64>::new(pattern)
        .oracle(DummyOracle::new(0u64))
        .adversary(SeededRandom::new(seed))
        .spawn_all(move |pid| {
            algo(move |ctx| async move {
                let me = pid.index() as u64;
                let mine = Key::new("reg").at(me);
                ctx.invoke(&mine, || RegisterObject::new(u64::MAX), RegOp::Write(me))
                    .await?;
                let leader = ctx.query_fd().await?;
                loop {
                    let resp = ctx
                        .invoke(
                            &Key::new("reg").at(leader),
                            || RegisterObject::new(u64::MAX),
                            RegOp::Read,
                        )
                        .await?;
                    if let RegResp::Value(v) = resp {
                        if v != u64::MAX {
                            ctx.decide(v).await?;
                            return Ok(());
                        }
                    }
                    ctx.yield_step().await?;
                }
            })
        })
        .run()
}

/// `--emit`: print the generated module, but only from a clean audit.
fn emit(
    pass: &str,
    findings: &[impl std::fmt::Display],
    render: impl FnOnce() -> String,
) -> ExitCode {
    if !findings.is_empty() {
        for f in findings {
            eprintln!("{f}");
        }
        eprintln!("analyze {pass}: refusing to emit from a failing audit");
        return ExitCode::FAILURE;
    }
    print!("{}", render());
    ExitCode::SUCCESS
}

fn pass_fail(clean: bool) -> ExitCode {
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
