//! Explorer throughput and partial-order-reduction ratios, emitting
//! `BENCH_check.json`.
//!
//! ```text
//! cargo run --release -p upsilon-bench --bin bench_check -- [--scenario FILE] [--out PATH]
//! ```
//!
//! The suite comes from a `kind = "bench"` scenario file, by default
//! `scenarios/bench-check.toml`: each variant arm names a workload,
//! carries the check-registry axis bindings, and pins its per-workload
//! reduction floor.
//!
//! Each workload is explored in six modes at the same depth, walking the
//! explorer's `Reduction` ladder (`None < Sleep < Dedup`) and its two
//! other axes, the commutativity matrix and the certified orbit:
//!
//! | mode | configuration |
//! |---|---|
//! | **naive** | `Reduction::None`, `matrix(false)`: the full tree, the denominator |
//! | **lattice** | `Reduction::Sleep`, `matrix(false)`: sleep sets over the coarse 3-value `Access` lattice (the pre-matrix explorer) |
//! | **matrix** | `Reduction::Sleep`: the lattice refined by the generated per-op-pair matrix (`upsilon_sim::commute`), the explorer's default |
//! | **stateless** | the matrix search with `turbo(false)`: replay from the root |
//! | **dedup** | `Reduction::Dedup`, `orbit(Orbit::Trivial)`: fingerprint dedup, orbit-blind |
//! | **sym** | `Reduction::Dedup`: dedup keyed up to the certified orbit, plus its crash collapse |
//!
//! Reported per entry: node counts for the modes, the reduction ratio
//! `naive / matrix`, the matrix's own gain `lattice / matrix`, and the
//! sustained states/second of the matrix search. The `dedup / sym` node
//! ratio is the symmetry reduction factor. On the check-paper recipes
//! (Figs. 1–2, trivial orbits) dedup and symmetry prune nothing, which is
//! why `Dedup` is off the default path; they pay on `stable-report`
//! (12,217 lattice nodes, 1,183 matrix, 385 dedup, 109 sym). Every
//! workload must come back clean in all modes with naive and matrix
//! agreeing on violations (soundness spot-check); acceptance further
//! requires each entry to clear its reduction floor, the best entry to
//! beat the pre-matrix 18.72× baseline strictly, the matrix to strictly
//! improve on the lattice somewhere, and the symmetry reduction to reach
//! 2× on at least one certified-symmetric workload. The JSON artifact is
//! only written when every check passes, so a failing run can never
//! overwrite a good baseline.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use upsilon_check::{check, CheckConfig, CheckReport, Reduction};
use upsilon_core::table::Table;
use upsilon_sim::symmetry::Orbit;
use upsilon_sim::FdValue;

/// Throughput floor (nodes spec-checked per second, matrix-reduced search,
/// release build) — the only states/sec gate on the explorer.
/// Raised 200× with the snapshot-resume cursor (measured: >1M states/sec on
/// the stable-report headline; generous margin for slow shared runners).
const MIN_STATES_PER_SEC: f64 = 400_000.0;
/// Snapshot-resume must beat stateless re-execution on wall clock somewhere
/// (measured: 3-4× per workload).
const MIN_TURBO_SPEEDUP: f64 = 2.5;
/// The pre-matrix baseline (fig1, n+1 = 3, depth 9, lattice sleep sets):
/// the best entry's `naive / matrix` ratio must beat it strictly.
const BASELINE_RATIO: f64 = 18.72;
/// At least one entry must show the matrix strictly refining the lattice.
const MIN_BEST_MATRIX_GAIN: f64 = 1.0;
/// The symmetry reduction (`dedup / sym` nodes) must reach this factor on
/// at least one certified-symmetric workload (stable-report's full orbit
/// measures ~3× at the default recipe).
const MIN_SYMMETRY_REDUCTION: f64 = 2.0;

const USAGE: &str = "usage: bench_check [options]
  --scenario FILE  the kind = \"bench\" suite to run
                   (default scenarios/bench-check.toml)
  --out PATH       JSON artifact path (default BENCH_check.json)
  --help           this text";

#[derive(Clone, Debug)]
struct Args {
    scenario: PathBuf,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scenario: upsilon_scenario::scenarios_dir().join("bench-check.toml"),
        out: "BENCH_check.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--scenario" => args.scenario = PathBuf::from(value("--scenario")?),
            "--out" => args.out = value("--out")?,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// One explored mode of one workload.
struct Sample {
    report: CheckReport,
    secs: f64,
}

impl Sample {
    fn states_per_sec(&self) -> f64 {
        self.report.stats.nodes as f64 / self.secs
    }
}

/// The measured modes of one workload, plus its recipe parameters.
struct Entry {
    name: String,
    n: usize,
    depth: usize,
    faults: usize,
    /// Per-entry `naive / matrix` acceptance floor.
    floor: f64,
    naive: Sample,
    lattice: Sample,
    matrix: Sample,
    /// The matrix search re-executed stateless (turbo off) — the replay
    /// baseline the snapshot-resume cursor is measured against.
    stateless: Sample,
    /// The matrix search with fingerprint dedup on, under the trivial
    /// orbit.
    dedup: Sample,
    /// The dedup search under the certified orbit — orbit-canonical
    /// fingerprints plus crash collapse.
    sym: Sample,
}

impl Entry {
    fn ratio(&self) -> f64 {
        self.naive.report.stats.nodes as f64 / self.matrix.report.stats.nodes as f64
    }

    fn matrix_gain(&self) -> f64 {
        self.lattice.report.stats.nodes as f64 / self.matrix.report.stats.nodes as f64
    }

    fn states_per_sec(&self) -> f64 {
        self.matrix.states_per_sec()
    }

    /// Wall-clock speedup of snapshot-resume over stateless re-execution on
    /// the same (matrix-reduced) search.
    fn turbo_speedup(&self) -> f64 {
        self.stateless.secs / self.matrix.secs
    }

    /// States-explored factor the symmetry reduction buys on top of
    /// orbit-blind dedup (1.0 on trivial orbits).
    fn symmetry_reduction(&self) -> f64 {
        self.dedup.report.stats.nodes as f64 / self.sym.report.stats.nodes as f64
    }
}

fn explore<D: FdValue>(
    base: &CheckConfig<D>,
    vary: impl FnOnce(CheckConfig<D>) -> CheckConfig<D>,
) -> Sample {
    let cfg = vary(base.clone());
    let start = Instant::now();
    let report = check(&cfg);
    Sample {
        report,
        secs: start.elapsed().as_secs_f64().max(1e-9),
    }
}

fn measure<D: FdValue>(name: &str, base: &CheckConfig<D>, floor: f64) -> Entry {
    Entry {
        name: name.to_string(),
        n: base.n_plus_1,
        depth: base.depth,
        faults: base.max_faults,
        floor,
        naive: explore(base, |c| c.reduction(Reduction::None).matrix(false)),
        lattice: explore(base, |c| c.reduction(Reduction::Sleep).matrix(false)),
        matrix: explore(base, |c| c.reduction(Reduction::Sleep)),
        stateless: explore(base, |c| c.reduction(Reduction::Sleep).turbo(false)),
        dedup: explore(base, |c| {
            c.reduction(Reduction::Dedup).orbit(Orbit::Trivial)
        }),
        sym: explore(base, |c| c.reduction(Reduction::Dedup)),
    }
}

/// Builds the suite from a `kind = "bench"` scenario file: one entry per
/// variant arm, with the arm's registry bindings and pinned floor.
fn scenario_entries(path: &Path) -> Result<Vec<Entry>, String> {
    let doc = upsilon_scenario::load_file(path)?;
    if doc.kind != upsilon_scenario::Kind::Bench {
        return Err(format!(
            "{}: --scenario needs kind = \"bench\"",
            path.display()
        ));
    }
    let mut entries = Vec::new();
    for cell in doc.expand() {
        let (workload, target, floor) = upsilon_scenario::registry::bench_workload_of(&cell)?;
        let floor =
            floor.ok_or_else(|| format!("workload {workload:?}: the cell must pin a `floor`"))?;
        entries.push(match &target {
            upsilon_scenario::AnyCheck::Set(cfg) => measure(&workload, cfg, floor),
            upsilon_scenario::AnyCheck::Unit(cfg) => measure(&workload, cfg, floor),
        });
    }
    Ok(entries)
}

fn json_entry(e: &Entry) -> String {
    format!(
        "    {{\n      \"workload\": \"{}\",\n      \"n_plus_1\": {},\n      \"depth\": {},\n      \
         \"faults\": {},\n      \"nodes_naive\": {},\n      \"nodes_lattice\": {},\n      \
         \"nodes_matrix\": {},\n      \"nodes_dedup\": {},\n      \"nodes_symmetry\": {},\n      \
         \"dedup_pruned\": {},\n      \"symmetry_pruned\": {},\n      \
         \"sleep_pruned\": {},\n      \"reduction_ratio\": {:.2},\n      \
         \"matrix_gain\": {:.2},\n      \"symmetry_reduction\": {:.2},\n      \
         \"turbo_speedup\": {:.2},\n      \
         \"states_per_sec\": {:.1},\n      \"states_per_sec_naive\": {:.1},\n      \
         \"states_per_sec_stateless\": {:.1}\n    }}",
        e.name,
        e.n,
        e.depth,
        e.faults,
        e.naive.report.stats.nodes,
        e.lattice.report.stats.nodes,
        e.matrix.report.stats.nodes,
        e.dedup.report.stats.nodes,
        e.sym.report.stats.nodes,
        e.dedup.report.stats.dedup_pruned,
        e.sym.report.stats.symmetry_pruned,
        e.matrix.report.stats.sleep_pruned,
        e.ratio(),
        e.matrix_gain(),
        e.symmetry_reduction(),
        e.turbo_speedup(),
        e.states_per_sec(),
        e.naive.states_per_sec(),
        e.stateless.states_per_sec(),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let entries = match scenario_entries(&args.scenario) {
        Ok(e) => e,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut failed = false;
    for e in &entries {
        let mut t = Table::new(
            format!("Explorer — {}, n+1 = {}, depth {}", e.name, e.n, e.depth),
            &["mode", "nodes", "sleep_pruned", "secs", "states/sec"],
        );
        for (mode, s) in [
            ("naive", &e.naive),
            ("lattice", &e.lattice),
            ("matrix", &e.matrix),
            ("stateless", &e.stateless),
            ("dedup", &e.dedup),
            ("sym", &e.sym),
        ] {
            t.row([
                mode.to_string(),
                s.report.stats.nodes.to_string(),
                s.report.stats.sleep_pruned.to_string(),
                format!("{:.4}", s.secs),
                format!("{:.0}", s.states_per_sec()),
            ]);
        }
        println!("{t}");
        println!(
            "{}: reduction {:.1}x (floor {:.0}x), matrix gain {:.2}x, turbo speedup {:.2}x, \
             dedup pruned {}, symmetry reduction {:.2}x",
            e.name,
            e.ratio(),
            e.floor,
            e.matrix_gain(),
            e.turbo_speedup(),
            e.dedup.report.stats.dedup_pruned,
            e.symmetry_reduction(),
        );

        for (mode, s) in [
            ("naive", &e.naive),
            ("lattice", &e.lattice),
            ("matrix", &e.matrix),
            ("stateless", &e.stateless),
            ("dedup", &e.dedup),
            ("sym", &e.sym),
        ] {
            if !s.report.ok() {
                eprintln!("FAIL: {} must explore clean in {mode} mode", e.name);
                failed = true;
            }
        }
        if e.naive.report.violations != e.matrix.report.violations {
            eprintln!(
                "FAIL: {}: naive and matrix searches disagree on violations",
                e.name
            );
            failed = true;
        }
        if e.stateless.report != e.matrix.report {
            eprintln!(
                "FAIL: {}: snapshot-resume and stateless searches must produce \
                 identical reports",
                e.name
            );
            failed = true;
        }
        if e.dedup.report.violations != e.matrix.report.violations {
            eprintln!("FAIL: {}: fingerprint dedup changed the verdict", e.name);
            failed = true;
        }
        if e.dedup.report.stats.nodes > e.matrix.report.stats.nodes {
            eprintln!(
                "FAIL: {}: dedup explored more nodes than the plain search",
                e.name
            );
            failed = true;
        }
        if e.sym.report.violations != e.matrix.report.violations {
            eprintln!("FAIL: {}: symmetry reduction changed the verdict", e.name);
            failed = true;
        }
        if e.sym.report.stats.nodes > e.dedup.report.stats.nodes {
            eprintln!(
                "FAIL: {}: symmetry explored more nodes than orbit-blind dedup",
                e.name
            );
            failed = true;
        }
        if e.matrix_gain() < 1.0 {
            eprintln!(
                "FAIL: {}: matrix mode explored more nodes than the lattice — the refinement \
                 may only remove conflicts",
                e.name
            );
            failed = true;
        }
        if e.ratio() < e.floor {
            eprintln!(
                "FAIL: {}: reduction {:.1}x below the {:.0}x floor",
                e.name,
                e.ratio(),
                e.floor
            );
            failed = true;
        }
    }

    let best = entries.iter().map(Entry::ratio).fold(0.0, f64::max);
    let best_gain = entries.iter().map(Entry::matrix_gain).fold(0.0, f64::max);
    let best_turbo = entries.iter().map(Entry::turbo_speedup).fold(0.0, f64::max);
    let best_sym = entries
        .iter()
        .map(Entry::symmetry_reduction)
        .fold(0.0, f64::max);
    // The headline is the entry where the matrix refinement earns the
    // most — the number the artifact exists to defend — not a fixed
    // workload that may show a 1.00x gain.
    let headline = entries
        .iter()
        .max_by(|a, b| a.matrix_gain().total_cmp(&b.matrix_gain()));
    let Some(headline) = headline else {
        eprintln!("error: the suite declares no workloads\n{USAGE}");
        return ExitCode::from(2);
    };
    println!(
        "best reduction: {best:.1}x (baseline {BASELINE_RATIO}x), best matrix gain: \
         {best_gain:.2}x, best symmetry reduction: {best_sym:.2}x"
    );

    if best <= BASELINE_RATIO {
        eprintln!(
            "FAIL: best reduction {best:.1}x does not beat the pre-matrix \
             {BASELINE_RATIO}x baseline"
        );
        failed = true;
    }
    if best_gain <= MIN_BEST_MATRIX_GAIN {
        eprintln!(
            "FAIL: no entry shows the matrix strictly refining the lattice \
             (best gain {best_gain:.2}x)"
        );
        failed = true;
    }
    if best_turbo < MIN_TURBO_SPEEDUP {
        eprintln!(
            "FAIL: best snapshot-resume speedup {best_turbo:.2}x below the \
             {MIN_TURBO_SPEEDUP}x floor"
        );
        failed = true;
    }
    if best_sym < MIN_SYMMETRY_REDUCTION {
        eprintln!(
            "FAIL: best symmetry reduction {best_sym:.2}x below the \
             {MIN_SYMMETRY_REDUCTION}x floor"
        );
        failed = true;
    }
    if headline.states_per_sec() < MIN_STATES_PER_SEC {
        eprintln!(
            "FAIL: {:.0} states/sec below the {MIN_STATES_PER_SEC:.0} floor",
            headline.states_per_sec()
        );
        failed = true;
    }
    if failed {
        eprintln!("not writing {}: acceptance checks failed", args.out);
        return ExitCode::FAILURE;
    }

    // Headline fields mirror the best matrix-gain entry (legacy flat
    // shape), followed by the full per-workload entry list.
    let entries_json: Vec<String> = entries.iter().map(json_entry).collect();
    let json = format!(
        "{{\n  \"workload\": \"{} exploration, n_plus_1 = {}\",\n  \"depth\": {},\n  \
         \"nodes_reduced\": {},\n  \"nodes_naive\": {},\n  \"sleep_pruned\": {},\n  \
         \"reduction_ratio\": {:.2},\n  \"matrix_gain\": {:.2},\n  \"states_per_sec\": {:.1},\n  \
         \"best_reduction_ratio\": {best:.2},\n  \"best_matrix_gain\": {best_gain:.2},\n  \
         \"best_turbo_speedup\": {best_turbo:.2},\n  \
         \"best_symmetry_reduction\": {best_sym:.2},\n  \
         \"clean\": true,\n  \"entries\": [\n{}\n  ]\n}}\n",
        headline.name,
        headline.n,
        headline.depth,
        headline.matrix.report.stats.nodes,
        headline.naive.report.stats.nodes,
        headline.matrix.report.stats.sleep_pruned,
        headline.ratio(),
        headline.matrix_gain(),
        headline.states_per_sec(),
        entries_json.join(",\n"),
    );
    std::fs::write(&args.out, &json).expect("write benchmark artifact");
    println!("wrote {}", args.out);
    ExitCode::SUCCESS
}
