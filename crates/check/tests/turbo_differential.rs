//! Differential equivalence suite for the turbo explorer: every execution
//! strategy the checker offers must produce the *same answers*.
//!
//! Three axes are swept against each other over a portfolio of clean and
//! buggy sample configurations:
//!
//! * **turbo vs stateless** — snapshot-resume execution against
//!   replay-from-root; byte-identical `CheckReport`s (stats, verdicts, and
//!   shrunk `UCHK1` tokens alike), since turbo changes only *how* nodes
//!   are executed, never which nodes exist;
//! * **`Reduction::Sleep` vs `Reduction::Dedup`** — fingerprint pruning
//!   may only *remove* explored nodes, and must preserve every verdict and
//!   every minimized counterexample token;
//! * **worker count 1 vs 2 vs 8** — the work-stealing frontier merges by
//!   coordinate, so reports are `assert_eq!`-identical whatever the
//!   parallelism, with and without dedup.

use std::sync::Arc;
use upsilon_agreement::fig1::{self, Fig1Config};
use upsilon_agreement::KSetAgreementSpec;
use upsilon_check::{
    check, samples, AlgoFactory, CheckConfig, CheckReport, ConstantMenu, Reduction,
};
use upsilon_extract::pinned_history;
use upsilon_mem::SnapshotFlavor;
use upsilon_sim::symmetry::Orbit;
use upsilon_sim::{AlgoFn, FdValue, ProcessSet};

/// Builds the report for one portfolio entry under a config transform.
fn run_with<D: FdValue>(
    cfg: CheckConfig<D>,
    vary: impl FnOnce(CheckConfig<D>) -> CheckConfig<D>,
) -> CheckReport {
    check(&vary(cfg))
}

macro_rules! for_each_sample {
    ($name:ident, $cfg:ident, $body:block) => {{
        let $name = "fig1 n2 d6 clean";
        let $cfg = samples::fig1(2, 6, 0);
        $body
    }
    {
        let $name = "fig1 n3 d4 crashes";
        let $cfg = samples::fig1(3, 4, 1);
        $body
    }
    {
        let $name = "fig2 n2 d6";
        let $cfg = samples::fig2(2, 1, 6, 1);
        $body
    }
    {
        let $name = "commit-buggy n2 d8";
        let $cfg = samples::snapshot_commit(2, 1, 8, true);
        $body
    }
    {
        let $name = "commit-sound n2 d8";
        let $cfg = samples::snapshot_commit(2, 1, 8, false);
        $body
    }
    {
        let $name = "converge-offby1 n2 d8";
        let $cfg = samples::converge_offby1(2, 1, 8, 1);
        $body
    }
    {
        let $name = "stable-report n2 d6";
        let $cfg = samples::stable_report(2, 2, 6);
        $body
    }
    {
        // Room for every counterexample: a truncated search stops at a
        // worker-dependent point, so its counters are not comparable.
        let $name = "commit-buggy n2 d9 all violations";
        let $cfg = samples::snapshot_commit(2, 1, 9, true).max_violations(16);
        $body
    }
    {
        let $name = "fig1 n2 d7 clean";
        let $cfg = samples::fig1(2, 7, 0);
        $body
    }
    {
        // The check-paper mutating-detector recipe at n+1 = 3.
        let $name = "fig1-mutating n3 d7 budget 1";
        let $cfg = samples::fig1_mutating(3, 7, 0, 1);
        $body
    }};
}

#[test]
fn turbo_and_stateless_reports_are_identical() {
    for_each_sample!(name, cfg, {
        let turbo = run_with(cfg.clone(), |c| c.turbo(true).reduction(Reduction::Sleep));
        let stateless = run_with(cfg, |c| c.turbo(false).reduction(Reduction::Sleep));
        assert_eq!(turbo, stateless, "{name}: turbo vs stateless diverged");
    });
}

#[test]
fn dedup_preserves_verdicts_and_tokens() {
    for_each_sample!(name, cfg, {
        let base = run_with(cfg.clone(), |c| c.turbo(true).reduction(Reduction::Sleep));
        let dedup = run_with(cfg, |c| c.turbo(true).reduction(Reduction::Dedup));
        assert_eq!(
            base.violations, dedup.violations,
            "{name}: dedup changed a verdict or a shrunk token"
        );
        assert_eq!(base.ok(), dedup.ok(), "{name}: dedup flipped the verdict");
        assert!(
            dedup.stats.nodes <= base.stats.nodes,
            "{name}: dedup executed more nodes ({} > {})",
            dedup.stats.nodes,
            base.stats.nodes
        );
    });
}

#[test]
fn dedup_actually_prunes_somewhere() {
    // The guard that dedup is not vacuous: on at least one portfolio
    // config, fingerprint pruning must fire and shrink the node count.
    let mut pruned_total = 0;
    let mut saved_total = 0i64;
    for_each_sample!(_name, cfg, {
        let base = run_with(cfg.clone(), |c| c.turbo(true).reduction(Reduction::Sleep));
        let dedup = run_with(cfg, |c| c.turbo(true).reduction(Reduction::Dedup));
        pruned_total += dedup.stats.dedup_pruned;
        saved_total += base.stats.nodes as i64 - dedup.stats.nodes as i64;
    });
    assert!(pruned_total > 0, "dedup never pruned a single node");
    assert!(saved_total > 0, "dedup never saved an executed node");
}

#[test]
fn worker_sweep_reports_are_assert_eq_identical() {
    for reduction in [Reduction::Sleep, Reduction::Dedup] {
        for_each_sample!(name, cfg, {
            let at = |workers: usize| {
                run_with(cfg.clone(), |c| c.reduction(reduction).parallel(2, workers))
            };
            let one = at(1);
            assert_eq!(one, at(2), "{name}: workers 1 vs 2 ({reduction:?})");
            assert_eq!(one, at(8), "{name}: workers 1 vs 8 ({reduction:?})");
        });
    }
}

#[test]
fn split_exploration_matches_serial() {
    for_each_sample!(name, cfg, {
        // Counters can match byte for byte only without dedup: the serial
        // search keeps one global fingerprint table while every frontier
        // job starts its own, so pruning opportunities differ (soundly) in
        // the split run.
        let serial = run_with(cfg.clone(), |c| c.reduction(Reduction::Sleep));
        let split = run_with(cfg.clone(), |c| {
            c.reduction(Reduction::Sleep).parallel(2, 8)
        });
        assert_eq!(
            serial.stats, split.stats,
            "{name}: split changed the search counters"
        );
        assert_eq!(
            serial.violations, split.violations,
            "{name}: split changed a verdict or token"
        );
        // With dedup on the *answers* still agree.
        let serial = run_with(cfg.clone(), |c| c.reduction(Reduction::Dedup));
        let split = run_with(cfg, |c| c.reduction(Reduction::Dedup).parallel(2, 8));
        assert_eq!(
            serial.violations, split.violations,
            "{name}: split with dedup changed a verdict or token"
        );
        assert_eq!(
            serial.ok(),
            split.ok(),
            "{name}: split with dedup flipped the verdict"
        );
    });
}

#[test]
fn portfolio_reports_are_reproducible() {
    // The harness itself is deterministic: two fresh evaluations of every
    // entry agree (this is what makes the suite's other comparisons
    // meaningful rather than flaky).
    for_each_sample!(name, cfg, {
        let a = run_with(cfg.clone(), |c| c.reduction(Reduction::Dedup));
        let b = run_with(cfg, |c| c.reduction(Reduction::Dedup));
        assert_eq!(a, b, "{name}: non-deterministic report");
    });
}

#[test]
fn disabled_reductions_keep_the_expected_verdicts() {
    // The seeded commit bug is still found without dedup under the
    // trivial orbit, and Fig. 1 still explores clean when every node
    // replays from the root.
    let buggy = run_with(samples::snapshot_commit(2, 1, 9, true), |c| {
        c.reduction(Reduction::Sleep).orbit(Orbit::Trivial)
    });
    assert!(!buggy.ok(), "commit-buggy n2 d9 lost its counterexample");
    let stateless = run_with(samples::fig1(2, 7, 0), |c| c.turbo(false));
    assert!(stateless.ok(), "fig1 n2 d7 found a violation");
}

/// [`samples::fig1`] with its converges over the register-only snapshot:
/// every snapshot op is a boxed Afek future, so each turbo restore that
/// rebuilds a process fast-forwards it through those boxed futures.
fn fig1_register_based(n_plus_1: usize, depth: usize) -> CheckConfig<ProcessSet> {
    let proposals: Vec<Option<u64>> = (0..n_plus_1).map(|i| Some(i as u64)).collect();
    let props = proposals.clone();
    let factory: AlgoFactory<ProcessSet> = Arc::new(move || {
        let mut algos: Vec<Option<AlgoFn<ProcessSet>>> = Vec::new();
        algos.resize_with(n_plus_1, || None);
        let cfg = Fig1Config {
            flavor: SnapshotFlavor::RegisterBased,
        };
        for (pid, a) in fig1::algorithms(cfg, &props) {
            algos[pid.index()] = Some(a);
        }
        algos
    });
    let menu = Arc::new(ConstantMenu(pinned_history(n_plus_1)));
    CheckConfig::new(n_plus_1, depth, factory, menu).spec(KSetAgreementSpec {
        k: n_plus_1 - 1,
        proposals,
    })
}

#[test]
fn turbo_replays_through_the_register_based_snapshot() {
    let turbo = run_with(fig1_register_based(2, 12), |c| {
        c.turbo(true).reduction(Reduction::Sleep)
    });
    let stateless = run_with(fig1_register_based(2, 12), |c| {
        c.turbo(false).reduction(Reduction::Sleep)
    });
    assert_eq!(
        turbo, stateless,
        "register-based fig1: turbo vs stateless diverged"
    );
    assert!(turbo.ok(), "register-based fig1 found a violation");
    assert!(turbo.stats.nodes > 8, "the search branched");
}
