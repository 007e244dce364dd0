//! The refactor acceptance criterion: every checked-in scenario resolves
//! to *exactly* the configuration its pre-refactor consumer built by hand,
//! so verdicts, state counts and shrunk tokens are identical to the
//! bespoke `samples::*` / `FuzzConfig` call sites the scenario files
//! replaced.

use upsilon_check::explore::check;
use upsilon_check::samples;
use upsilon_fuzz::{fuzz, FuzzConfig};
use upsilon_scenario::matrix::run_one;
use upsilon_scenario::registry::{resolve_check, resolve_fuzz, AnyCheck, AnyFuzz};
use upsilon_scenario::{load, Expect};
use upsilon_sim::EngineKind;

/// Each of the six required check samples, resolved through the scenario
/// registry, produces a report equal to the direct sample call.
#[test]
fn check_samples_match_direct_construction() {
    // (scenario, cell index, direct construction)
    let fig1 = load("fig1").expect("checked-in scenario");
    let cells = fig1.expand();
    assert_eq!(cells.len(), 6, "fig1 spans depth × max_faults");
    for (cell, (depth, faults)) in
        cells
            .iter()
            .zip([(5, 0), (5, 1), (6, 0), (6, 1), (8, 0), (8, 1)])
    {
        let via_registry = match resolve_check(cell).expect("resolves") {
            AnyCheck::Set(cfg) => check(&cfg),
            AnyCheck::Unit(_) => panic!("fig1 is a ProcessSet sample"),
        };
        let direct = check(&samples::fig1(3, depth, faults));
        assert_eq!(via_registry, direct, "fig1 depth={depth} faults={faults}");
    }

    let doc = load("fig1-mutating").expect("checked-in scenario");
    let cell = &doc.expand()[0];
    match resolve_check(cell).expect("resolves") {
        AnyCheck::Set(cfg) => {
            assert_eq!(check(&cfg), check(&samples::fig1_mutating(3, 5, 0, 1)))
        }
        AnyCheck::Unit(_) => panic!("fig1-mutating is a ProcessSet sample"),
    }

    let doc = load("fig2").expect("checked-in scenario");
    for (cell, depth) in doc.expand().iter().zip([5, 6]) {
        match resolve_check(cell).expect("resolves") {
            AnyCheck::Set(cfg) => {
                assert_eq!(check(&cfg), check(&samples::fig2(3, 1, depth, 0)))
            }
            AnyCheck::Unit(_) => panic!("fig2 is a ProcessSet sample"),
        }
    }

    let doc = load("pinned-upsilon").expect("checked-in scenario");
    let cell = &doc.expand()[0];
    match resolve_check(cell).expect("resolves") {
        AnyCheck::Set(cfg) => {
            let report = check(&cfg);
            assert_eq!(report, check(&samples::pinned_upsilon(3, 1, 3)));
            // The pivot really is found, with the same shrunk token.
            assert_eq!(report.violations.len(), 1);
        }
        AnyCheck::Unit(_) => panic!("pinned-upsilon is a ProcessSet sample"),
    }

    let doc = load("snapshot-commit").expect("checked-in scenario");
    let cells = doc.expand();
    assert_eq!(cells.len(), 2, "sound and buggy arms");
    for (cell, buggy) in cells.iter().zip([false, true]) {
        match resolve_check(cell).expect("resolves") {
            AnyCheck::Unit(cfg) => {
                let report = check(&cfg);
                assert_eq!(report, check(&samples::snapshot_commit(2, 1, 9, buggy)));
                assert_eq!(!report.violations.is_empty(), buggy, "arm {}", cell.arm);
            }
            AnyCheck::Set(_) => panic!("snapshot-commit is a unit sample"),
        }
    }

    let doc = load("stable-report").expect("checked-in scenario");
    let cell = &doc.expand()[0];
    match resolve_check(cell).expect("resolves") {
        AnyCheck::Unit(cfg) => {
            assert_eq!(check(&cfg), check(&samples::stable_report(3, 2, 7)))
        }
        AnyCheck::Set(_) => panic!("stable-report is a unit sample"),
    }
}

/// The fuzz campaign scenario reproduces the CI smoke campaign verbatim:
/// same execs, same coverage, same shrunk counterexample token.
#[test]
fn fuzz_campaign_matches_direct_construction() {
    let doc = load("fuzz-commit").expect("checked-in scenario");
    let cell = &doc.expand()[0];
    assert_eq!(doc.seeds, vec![1]);
    let via_registry = match resolve_fuzz(&doc, cell, 1).expect("resolves") {
        AnyFuzz::Unit(cfg) => fuzz(&cfg, &[]),
        AnyFuzz::Set(_) => panic!("snapshot-commit is a unit sample"),
    };
    let direct = fuzz(
        &FuzzConfig::new(samples::snapshot_commit(2, 1, 12, true))
            .seed(1)
            .budget(1, 256),
        &[],
    );
    assert_eq!(via_registry, direct);
    assert!(
        !via_registry.violations.is_empty(),
        "the smoke campaign finds the seeded commit bug"
    );
}

/// `run_one` verdicts agree with the scenario expectations for every cell
/// of every required sample — the end-to-end path the matrix driver takes.
#[test]
fn run_one_verdicts_match_expectations() {
    for name in upsilon_scenario::REQUIRED_SAMPLES {
        let doc = load(name).expect("required scenario file exists");
        for cell in doc.expand() {
            let out = run_one(&doc, &cell, 0, EngineKind::Inline)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let expected = matches!(cell.expect, Expect::Violation);
            assert_eq!(
                out.verdict.as_str() == "violation",
                expected,
                "{name} cell `{}`",
                cell.label()
            );
        }
    }
}
