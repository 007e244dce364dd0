//! End-to-end tests of the `analyze` binary, the single entry point for
//! every static pass: each pass is clean on the repository, `--emit`
//! reproduces the checked-in generated modules byte for byte, and usage
//! errors (an `--emit` with nothing to generate, a named allowlist that
//! does not exist) exit 2.

use std::path::PathBuf;
use std::process::{Command, Output};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn analyze(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_analyze"))
        .args(args)
        .current_dir(workspace_root())
        .output()
        .expect("spawn analyze")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

#[test]
fn every_static_pass_is_clean_on_the_workspace() {
    for pass in ["lint", "conform", "commute", "symmetry"] {
        let out = analyze(&[pass]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "analyze {pass} failed:\n{}{}",
            stdout(&out),
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn emit_reproduces_the_checked_in_modules() {
    for pass in ["commute", "symmetry"] {
        let out = analyze(&[pass, "--emit"]);
        assert_eq!(out.status.code(), Some(0), "analyze {pass} --emit");
        let checked_in =
            std::fs::read_to_string(workspace_root().join(format!("crates/sim/src/{pass}.rs")))
                .expect("checked-in generated module");
        assert!(
            stdout(&out) == checked_in,
            "crates/sim/src/{pass}.rs differs from `analyze {pass} --emit`"
        );
    }
}

#[test]
fn emit_without_a_generated_file_is_a_usage_error() {
    for pass in ["lint", "conform", "run-conditions", "scenario"] {
        let out = analyze(&[pass, "--emit"]);
        assert_eq!(out.status.code(), Some(2), "analyze {pass} --emit");
        assert!(out.stdout.is_empty());
    }
}

#[test]
fn conform_prints_per_routine_bounds() {
    let out = analyze(&["conform"]);
    let text = stdout(&out);
    assert!(
        text.lines().any(|l| l.starts_with("bound: ")),
        "no `bound:` rows in:\n{text}"
    );
}

#[test]
fn a_named_allowlist_that_does_not_exist_is_a_usage_error() {
    let missing = "crates/analysis/no-such-allowlist.txt";
    for pass in ["lint", "conform", "commute", "symmetry"] {
        let out = analyze(&[pass, "--allowlist", missing]);
        assert_eq!(out.status.code(), Some(2), "analyze {pass} --allowlist");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(missing),
            "diagnostic lacks the path: {stderr}"
        );
    }
}
