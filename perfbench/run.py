#!/usr/bin/env python3
"""Builds and runs the repository's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The script builds the `upsilon-perfbench`
package (its own Cargo workspace, against the crates under `crates/`) in
release mode into `$CARGO_TARGET_DIR` (default `.bench_build`), runs one
workload, checks that the printed metric names and units equal those in
`BENCHMARK.json`, and prints:

  * on stderr, the build log and a readable table;
  * on stdout, an `INFO {...}` line with provenance (commit, dirty flag,
    rustc, nproc, CPU model, worker counts) and the headline figures, then
    as the last line the result object
    `{"correct", "attempted", "failed", "metrics"}`.

Exit codes: 0 when every output check passed; 1 when an output check
failed (the result line is still printed); 2 when the benchmark could not
build or run (no result line).

`--self-test` runs every workload in a shrunken `--quick` form and checks
the benchmark itself: metric names equal `BENCHMARK.json`, the seed reaches
the fuzz and swarm inputs (two seeds differ, one seed repeats exactly),
check node counts ignore the seed, and an inverted expected verdict makes
the run fail.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("check-paper", "fuzz-fig1", "swarm-pack")
# The benchmark must end within 180 s; leave room for start-up.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Builds the benchmark binary; returns its path or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        log(f"run.py: cannot start cargo: {e}")
        return None
    if r.returncode != 0:
        log("run.py: the benchmark did not build")
        return None
    return os.path.join(target_dir(), "release", "upsilon-perfbench")


def command_output(cmd):
    """stdout of `cmd` run at the repository root, or None. Git is kept from
    searching above the root, so a checkout that is not a repository reads
    as one without a commit."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(workers):
    nproc = len(os.sched_getaffinity(0))
    commit = command_output(["git", "rev-parse", "HEAD"])
    status = command_output(["git", "status", "--porcelain", "--untracked-files=no"])
    return {
        "commit": commit or "unknown",
        "dirty": None if commit is None or status is None else bool(status),
        "rustc": command_output(["rustc", "-V"]) or "unknown",
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "workers": {
            name: {"threads": n, "oversubscribed": n > nproc}
            for name, n in workers.items()
        },
    }


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {
        0: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        1: [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }


def run_once(binary, workload, seed, seconds, trace, extra=()):
    """Runs the binary once; returns (exit code, info dict, result dict)."""
    cmd = [
        binary, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--scenarios", os.path.join(HERE, "scenarios"),
        "--out", os.path.join(ROOT, ".perfbench_out"),
        *extra,
    ]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return 2, None, None
    info, result = None, None
    for line in r.stdout.splitlines():
        if line.startswith("INFO "):
            info = json.loads(line[5:])
        elif line.startswith("{"):
            result = json.loads(line)
    return r.returncode, info, result


def names_match(result, trace):
    """Whether the printed metrics are exactly BENCHMARK.json's, in order."""
    want = contract()[trace]
    got = [(k, v["unit"]) for k, v in result["metrics"].items()]
    if got != want:
        log(f"run.py: printed metrics {got} differ from BENCHMARK.json {want}")
        return False
    return True


def table(info, result):
    log(f"{info['workload']} seed={info['seed']} trace={info['trace']} "
        f"correct={result['correct']} attempted={result['attempted']} "
        f"failed={result['failed']}")
    for name, m in result["metrics"].items():
        log(f"  {name:<36} {m['value']:>16.6g} {m['unit']}")
    log("  figures:")
    for name, m in info["figures"].items():
        log(f"  {name:<36} {m['value']:>16.6g} {m['unit']}")


def bench(args):
    binary = build()
    if binary is None:
        return 2
    code, info, result = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    if info is None or result is None or code not in (0, 1):
        log(f"run.py: the benchmark failed (exit {code})")
        return 2
    if not names_match(result, args.trace):
        return 2
    info["provenance"] = provenance(info.pop("workers"))
    table(info, result)
    print("INFO " + json.dumps(info))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and code == 0 else 1


def self_test():
    binary = build()
    if binary is None:
        return 2
    failures = []

    def check(ok, what):
        log(f"self-test {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    figures = {}
    for w in WORKLOADS:
        for trace in (0, 1):
            code, info, result = run_once(binary, w, 1, 1, trace, ["--quick"])
            check(code == 0 and result is not None and result["correct"],
                  f"{w} trace={trace} runs clean")
            check(result is not None and names_match(result, trace),
                  f"{w} trace={trace} prints exactly BENCHMARK.json's metrics")
            if trace == 0 and info is not None:
                figures[(w, 1)] = info["figures"]
        for seed in (1, 2):
            code, info, _ = run_once(binary, w, seed, 1, 0, ["--quick"])
            key = (w, seed) if seed == 2 else (w, "1again")
            figures[key] = info["figures"] if info else {}
        code, _, result = run_once(binary, w, 1, 1, 0, ["--quick", "--expect-wrong"])
        check(code != 0 and result is not None and not result["correct"],
              f"{w} fails when its expected verdict is inverted")

    def fig(w, seed, name):
        return figures.get((w, seed), {}).get(name, {}).get("value")

    for w, name in (("fuzz-fig1", "fuzz.coverage"), ("swarm-pack", "swarm.total_steps")):
        check(fig(w, 1, name) is not None and fig(w, 1, name) == fig(w, "1again", name),
              f"{w}: one seed repeats {name} exactly")
        check(fig(w, 1, name) != fig(w, 2, name),
              f"{w}: two seeds give different {name}")
    check(fig("check-paper", 1, "check.nodes") is not None
          and fig("check-paper", 1, "check.nodes") == fig("check-paper", 2, "check.nodes"),
          "check-paper: node counts do not depend on the seed")
    log(f"self-test: {len(failures)} failure(s)")
    return 0 if not failures else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        p.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    start = time.monotonic()
    code = main()
    log(f"run.py: done in {time.monotonic() - start:.1f} s")
    sys.exit(code)
