//! The `upsilon-scenario` binary end to end: expectation gating, the
//! `--corpus` round trip for fuzz files, and its rejection elsewhere.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use upsilon_scenario::scenarios_dir;

fn scenario(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_upsilon-scenario"))
        .args(args)
        .output()
        .expect("upsilon-scenario runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A fresh, empty scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("upsilon-scenario-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn checked_in(name: &str) -> String {
    scenarios_dir()
        .join(format!("{name}.toml"))
        .display()
        .to_string()
}

fn entries(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("corpus dir exists")
        .map(|e| e.expect("dir entry").path())
        .collect();
    paths.sort();
    paths
}

#[test]
fn run_expect_passes_on_a_met_expectation() {
    let out = scenario(&["run", &checked_in("pinned-upsilon"), "--expect"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(
        table.contains("UCHK1:n=3;c=-,-,0;q=-|-|-;s=0"),
        "the pivot's shrunk token is printed:\n{table}"
    );
}

#[test]
fn run_expect_fails_on_a_flipped_expectation() {
    let dir = scratch("flipped");
    let text = std::fs::read_to_string(checked_in("pinned-upsilon")).expect("read scenario");
    let flipped = text.replace("expect = \"violation\"", "expect = \"pass\"");
    assert_ne!(flipped, text, "the expectation line was found");
    let path = dir.join("pinned-upsilon.toml");
    std::fs::write(&path, flipped).expect("write flipped scenario");
    let out = scenario(&["run", path.to_str().expect("utf-8 path"), "--expect"]);
    assert!(!out.status.success(), "a missed expectation must fail");
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn corpus_round_trips_and_evidence_is_worker_invariant() {
    let file = checked_in("fuzz-commit-sound");
    let dir = scratch("corpus");
    let first = dir.join("a");
    let out = scenario(&[
        "run",
        &file,
        "--expect",
        "--json",
        "--corpus",
        first.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let saved = entries(&first);
    assert!(!saved.is_empty(), "the first campaign saves its corpus");
    assert!(
        stderr(&out).contains(&format!("saved {} entries", saved.len())),
        "{}",
        stderr(&out)
    );

    // The same corpus contents, once per worker count.
    let second = dir.join("b");
    std::fs::create_dir_all(&second).unwrap();
    for path in &saved {
        std::fs::copy(path, second.join(path.file_name().unwrap())).unwrap();
    }
    let rerun = |corpus: &Path, workers: &str| {
        let out = scenario(&[
            "run",
            &file,
            "--expect",
            "--json",
            "--workers",
            workers,
            "--corpus",
            corpus.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
        assert!(
            stderr(&out).contains(&format!("loaded {} entries", saved.len())),
            "the rerun loads every saved entry: {}",
            stderr(&out)
        );
        out.stdout
    };
    let one = rerun(&first, "1");
    let two = rerun(&second, "2");
    assert!(!one.is_empty(), "--json prints the evidence");
    assert_ne!(one, out.stdout, "the loaded corpus seeds the campaign");
    assert_eq!(
        String::from_utf8_lossy(&one),
        String::from_utf8_lossy(&two),
        "seeded evidence depends on the worker count"
    );
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn corpus_is_rejected_on_a_check_file() {
    let dir = scratch("reject");
    let corpus = dir.join("corpus");
    let out = scenario(&[
        "run",
        &checked_in("pinned-upsilon"),
        "--corpus",
        corpus.to_str().unwrap(),
    ]);
    assert!(!out.status.success(), "a check file takes no corpus");
    assert!(
        stderr(&out).contains("--corpus needs a fuzz scenario"),
        "{}",
        stderr(&out)
    );
    assert!(!corpus.exists(), "nothing was saved");
    std::fs::remove_dir_all(&dir).expect("clean up");
}
