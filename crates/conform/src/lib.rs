//! `upsilon-conform`: a source-level conformance checker for the §3.1
//! shared-memory model.
//!
//! Every correctness claim in this repository is a claim *about the model*:
//! processes advance in atomic steps, each step performs at most one
//! shared-memory or failure-detector operation, and wait-free routines
//! (Theorems 2, 6, 10) take a bounded number of steps per invocation. The
//! simulator enforces the step discipline at runtime — it grants one step
//! per poll — but nothing stops algorithm *source* from quietly deviating:
//! stashing a step future and awaiting it later, reading the host clock,
//! leaking an object handle into a closure, or helping in an unbounded
//! loop while claiming wait-freedom.
//!
//! This crate closes that gap statically. It lexes and bracket-parses the
//! algorithm crates with a purpose-built, dependency-free front end (no
//! full Rust grammar — just enough structure to see items, bodies, postfix
//! chains and `.await` points) and enforces four rules:
//!
//! * **C1** — step atomicity: every `ctx`-mediated operation is awaited
//!   where it is issued, and every await point mediates exactly one
//!   shared operation.
//! * **C2** — no banned host APIs (threads, clocks, entropy, blocking
//!   I/O) inside algorithm bodies.
//! * **C3** — no execution context or shared-object handle smuggled out
//!   of the algorithm (aliasing, escape wrappers, channels, closures).
//! * **C4** — every routine annotated `// #[conform(wait_free)]` has a
//!   static per-invocation step bound, computed over the await graph with
//!   loop bounds taken from `// #[conform(bound = "…")]` annotations.
//!
//! Findings are reported with file, line, rule id and a suggested fix,
//! rendered either human-readably or as deterministic JSON (suitable for
//! golden-file tests). Audited exceptions live in an allowlist shared
//! with the determinism lint's format: `<rule-id> <path>` per line.
//!
//! The checker runs as `cargo run -p upsilon-analysis --bin analyze --
//! conform` (also in CI); the `crates/conform/fixtures`
//! crate holds deliberately nonconforming algorithms that pin down each
//! rule as a negative golden test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod allow;
pub mod awaitgraph;
pub mod bound;
pub mod diag;
pub mod lexer;
pub mod model;
pub mod rules;
pub mod tree;

pub use allow::Allowlist;
pub use bound::{parse_expr, Expr};
pub use diag::{BoundRow, ConformReport, Finding, RuleId};
pub use model::{model_file, FileModel};
pub use rules::FnIndex;

use std::fs;
use std::io;
use std::path::Path;

/// Crate directories under `crates/` whose `src/` trees hold algorithm
/// code governed by the §3.1 contract.
///
/// `mem` is included beyond the protocol crates because the base-object
/// routines (`Register::read`, the Afek et al. snapshot, …) are the very
/// algorithm code the bounds of composite routines rest on; `sim` and
/// `analysis` are harness code and are covered by the determinism lint
/// instead.
pub const SCANNED_CRATES: &[&str] = &["agreement", "check", "converge", "extract", "fd", "mem"];

/// All known rule identifiers, for allowlist validation.
pub fn known_rule_ids() -> Vec<&'static str> {
    RuleId::ALL.iter().map(|r| r.id()).collect()
}

/// Loads and parses an allowlist file.
///
/// # Errors
///
/// Propagates I/O failures; malformed entries surface as
/// [`io::ErrorKind::InvalidData`].
pub fn load_allowlist(path: &Path) -> io::Result<Allowlist> {
    let text = fs::read_to_string(path)?;
    Allowlist::parse(&text, &known_rule_ids())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Analyzes a set of already-loaded `(repo-relative path, source)` pairs.
///
/// This is the core entry point; [`scan_workspace`] reads the files of
/// [`SCANNED_CRATES`] and delegates here, and tests feed fixture sources
/// directly.
pub fn check_sources(sources: &[(String, String)], allow: &Allowlist) -> ConformReport {
    let mut report = ConformReport::default();
    let mut models: Vec<FileModel> = Vec::new();
    let mut parse_findings: Vec<Finding> = Vec::new();
    for (rel, src) in sources {
        report.files.push(rel.clone());
        let m = model::model_file(rel, src);
        for (line, msg) in &m.errors {
            parse_findings.push(Finding {
                rule: RuleId::Parse,
                file: rel.clone(),
                line: *line,
                message: msg.clone(),
                suggestion: "fix the file (or the annotation) so it can be analyzed; \
                             an unparsable file cannot be certified"
                    .to_string(),
            });
        }
        models.push(m);
    }
    let index = FnIndex::build(&models);
    let mut findings = parse_findings;
    for m in &models {
        for f in &m.fns {
            if f.takes_ctx && !f.body.is_empty() {
                rules::check_fn(f, &index, &mut findings);
                let handles = rules::handle_set(&f.params, &f.body);
                rules::check_escapes(&f.body, &handles, &f.file, &mut findings);
            }
        }
        for a in &m.algos {
            rules::check_algo(a, &index, &mut findings);
            let handles = rules::handle_set(&[], &a.body);
            rules::check_escapes(&a.body, &handles, &a.file, &mut findings);
        }
    }
    let (bounds, c4) = awaitgraph::compute(&models, &index);
    findings.extend(c4);
    report.bounds = bounds;
    for f in findings {
        if allow.permits(f.rule.id(), &f.file) {
            report.suppressed.push(f);
        } else {
            report.findings.push(f);
        }
    }
    report.normalize();
    report
}

/// Scans every non-test `.rs` file of the [`SCANNED_CRATES`] under
/// `root/crates` and checks the §3.1 contract.
///
/// `tests/` and `benches/` trees are excluded: harness code legitimately
/// uses host constructs and is not algorithm code. (`#[cfg(test)] mod`
/// regions inside `src/` files are excluded by the model walk itself.)
///
/// # Errors
///
/// Propagates filesystem errors; a missing crate directory is an error
/// (the checker must not silently pass because it looked in the wrong
/// place).
pub fn scan_workspace(root: &Path, allow: &Allowlist) -> io::Result<ConformReport> {
    let mut sources = Vec::new();
    for krate in SCANNED_CRATES {
        let dir = root.join("crates").join(krate).join("src");
        if !dir.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("scanned crate source directory missing: {}", dir.display()),
            ));
        }
        let mut files = Vec::new();
        collect_rust_files(&dir, &mut files)?;
        files.sort();
        for path in files {
            let rel = relative_path(root, &path);
            let source = fs::read_to_string(&path)?;
            sources.push((rel, source));
        }
    }
    Ok(check_sources(&sources, allow))
}

fn collect_rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_rule_ids_cover_all_rules() {
        let ids = known_rule_ids();
        assert_eq!(ids.len(), RuleId::ALL.len());
        for r in RuleId::ALL {
            assert!(ids.contains(&r.id()));
        }
    }

    #[test]
    fn check_sources_cross_file_composition() {
        // A routine in one file calls a routine defined in another; the
        // index resolves it and the bound composes.
        let lib = "
pub async fn base(ctx: &Ctx<()>) -> Result<u64, Crashed> { ctx.invoke(0).await }
"
        .to_string();
        let user = "
// #[conform(wait_free)]
pub async fn twice(ctx: &Ctx<()>) -> Result<u64, Crashed> {
    let a = base(ctx).await?;
    let b = base(ctx).await?;
    Ok(a + b)
}
"
        .to_string();
        let report = check_sources(
            &[
                ("crates/mem/src/lib.rs".to_string(), lib),
                ("crates/agreement/src/user.rs".to_string(), user),
            ],
            &Allowlist::empty(),
        );
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        let row = report.bound_for("user.rs", "twice").expect("row");
        assert_eq!(row.bound.as_deref(), Some("2"));
        assert!(row.wait_free);
    }

    #[test]
    fn parse_errors_become_parse_findings() {
        let report = check_sources(
            &[(
                "crates/mem/src/bad.rs".to_string(),
                "fn f() {\n".to_string(),
            )],
            &Allowlist::empty(),
        );
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert_eq!(report.findings[0].rule, RuleId::Parse);
    }

    #[test]
    fn allowlist_moves_findings_to_suppressed() {
        let src = "
async fn bad(ctx: &Ctx<()>) -> Result<(), Crashed> {
    let t = Instant::now();
    ctx.yield_step().await
}
"
        .to_string();
        let allow = Allowlist::parse("C2 crates/mem/src/t.rs", &known_rule_ids()).expect("valid");
        let report = check_sources(&[("crates/mem/src/t.rs".to_string(), src)], &allow);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.suppressed.len(), 1);
        assert_eq!(report.suppressed[0].rule, RuleId::C2);
    }
}
