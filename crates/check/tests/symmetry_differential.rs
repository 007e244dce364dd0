//! Differential soundness suite for the process-symmetry reduction: over
//! the whole sample portfolio, exploring *up to process renaming* must
//! change how much work the search does — never what it answers. The
//! reduction follows the configuration's certified orbit, so "off" is the
//! same configuration under `Orbit::Trivial`; both sides run with
//! `Reduction::Dedup`, where the orbit-canonical key does its work.
//!
//! Locked invariants:
//!
//! * **verdict and token preservation** — the certified orbit vs the
//!   trivial one produce `assert_eq!`-identical violation lists (including
//!   the shrunk `UCHK1:` replay tokens) and the same clean/dirty verdict,
//!   serial and at workers 1/2/8;
//! * **determinism** — under the certified orbit, the report is
//!   `assert_eq!`-equal at every worker count;
//! * **non-vacuity** — on certified-symmetric samples the reduction
//!   actually fires: `pinned_upsilon` collapses same-class crash
//!   injections, and `stable_report` (the fully symmetric write-race
//!   benchmark) explores at most half the states of the unreduced search.

use upsilon_check::{check, samples, CheckConfig, CheckReport, Reduction};
use upsilon_sim::symmetry::Orbit;
use upsilon_sim::FdValue;

/// Builds the report for one portfolio entry under a config transform,
/// with fingerprint dedup on.
fn run_with<D: FdValue>(
    cfg: CheckConfig<D>,
    vary: impl FnOnce(CheckConfig<D>) -> CheckConfig<D>,
) -> CheckReport {
    check(&vary(cfg.reduction(Reduction::Dedup)))
}

/// The full portfolio — clean and buggy, crash-free and crash-injecting,
/// trivial and certified-symmetric orbits.
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
        let $name = "fig1-mutating n2 d6 fd-variants";
        let $cfg = samples::fig1_mutating(2, 6, 1, 1);
        $body
    }
    {
        let $name = "fig2 n2 d6";
        let $cfg = samples::fig2(2, 1, 6, 1);
        $body
    }
    {
        let $name = "pinned n3 d4 f1";
        let $cfg = samples::pinned_upsilon(3, 1, 4);
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
        let $name = "stable-report n3 d8";
        let $cfg = samples::stable_report(3, 2, 8);
        $body
    }};
}

#[test]
fn symmetry_preserves_verdicts_and_tokens_serial() {
    for_each_sample!(name, cfg, {
        let off = run_with(cfg.clone(), |c| c.orbit(Orbit::Trivial));
        let on = run_with(cfg, |c| c);
        assert_eq!(
            off.violations, on.violations,
            "{name}: symmetry changed a verdict or a shrunk token"
        );
        assert_eq!(off.ok(), on.ok(), "{name}: symmetry flipped the verdict");
        assert!(
            on.stats.nodes <= off.stats.nodes,
            "{name}: symmetry executed more nodes ({} > {})",
            on.stats.nodes,
            off.stats.nodes
        );
    });
}

#[test]
fn symmetry_preserves_verdicts_at_every_worker_count() {
    for workers in [1usize, 2, 8] {
        for_each_sample!(name, cfg, {
            let off = run_with(cfg.clone(), |c| {
                c.orbit(Orbit::Trivial).parallel(2, workers)
            });
            let on = run_with(cfg, |c| c.parallel(2, workers));
            assert_eq!(
                off.violations, on.violations,
                "{name}: symmetry changed a verdict or token at {workers} workers"
            );
            assert_eq!(
                off.ok(),
                on.ok(),
                "{name}: symmetry flipped the verdict at {workers} workers"
            );
        });
    }
}

#[test]
fn symmetric_reports_are_identical_across_worker_counts() {
    for_each_sample!(name, cfg, {
        let at = |workers: usize| run_with(cfg.clone(), |c| c.parallel(2, workers));
        let one = at(1);
        assert_eq!(one, at(2), "{name}: workers 1 vs 2 under symmetry");
        assert_eq!(one, at(8), "{name}: workers 1 vs 8 under symmetry");
    });
}

#[test]
fn certified_orbits_are_wired_into_the_portfolio() {
    assert_eq!(samples::stable_report(3, 2, 8).orbit, Orbit::Full);
    assert_eq!(samples::pinned_upsilon(3, 1, 4).orbit, Orbit::PinnedLast);
    assert!(samples::snapshot_commit(2, 1, 8, true).orbit.is_trivial());
    assert!(samples::fig1(2, 6, 0).orbit.is_trivial());
}

#[test]
fn crash_collapse_fires_on_pinned_upsilon() {
    let cfg = samples::pinned_upsilon(3, 1, 4);
    let off = run_with(cfg.clone(), |c| c.orbit(Orbit::Trivial));
    let on = run_with(cfg, |c| c);
    assert!(
        on.stats.symmetry_pruned > 0,
        "same-class crash candidates must collapse: {:?}",
        on.stats
    );
    assert!(
        on.stats.nodes < off.stats.nodes,
        "collapsing crashes must shrink the search ({} !< {})",
        on.stats.nodes,
        off.stats.nodes
    );
    assert_eq!(off.violations, on.violations);
}

/// The acceptance gate's ≥2× claim, locked as a test on the fully
/// symmetric sample: with the orbit-canonical dedup key, the reduced
/// search explores at most half the states of the unreduced one.
#[test]
fn stable_report_reduces_states_at_least_2x() {
    let cfg = samples::stable_report(3, 2, 8);
    let off = run_with(cfg.clone(), |c| c.orbit(Orbit::Trivial));
    let on = run_with(cfg, |c| c);
    assert_eq!(off.violations, on.violations);
    assert!(off.ok() && on.ok(), "stable-report explores clean");
    assert!(
        on.stats.nodes * 2 <= off.stats.nodes,
        "expected >= 2x state reduction, got {} vs {}",
        off.stats.nodes,
        on.stats.nodes
    );
}
