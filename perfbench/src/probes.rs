//! Per-layer probes fed with a workload's own replay tokens.
//!
//! Every probe times public calls of one layer on the runs the workload
//! itself explores or executes: the engine (`SimBuilder::replay` at each
//! `TraceLevel`), the fingerprint, conflict coverage, the §3.3 validator
//! and specs (`violation_of`), the snapshot-resume `Session`, the shared
//! objects (`ObjectType::invoke`) and the failure-detector oracle
//! (`Oracle::output`).

use crate::trace::Tracer;
use crate::util::{secs, Metrics};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use upsilon_check::{path_of_token, violation_of, CheckConfig, Choice, MenuOracle};
use upsilon_mem::{ConsensusObject, Propose, RegOp, RegisterObject, SnapOp, SnapshotObject};
use upsilon_sim::{
    conflict_coverage, trace_fingerprint, Access, FailurePattern, Memory, ObjectType, Oracle,
    ProcessId, ProcessSet, ReplayToken, Run, RunArena, Session, SimBuilder, StepKind, Time,
    TraceLevel,
};

/// The shared-object families the `mem.*` rows break down by.
pub const OBJECT_KINDS: [&str; 3] = ["register", "snapshot", "consensus"];

fn object_kind(type_name: &str) -> Option<usize> {
    if type_name.contains("RegisterObject") {
        Some(0)
    } else if type_name.contains("SnapshotObject") {
        Some(1)
    } else if type_name.contains("ConsensusObject") {
        Some(2)
    } else {
        None
    }
}

/// At most this many of a workload's tokens feed the probes, evenly
/// spaced over its token list.
const MAX_TOKENS: usize = 400;

/// At most this many passes over the tokens.
const MAX_PASSES: u64 = 3;

/// Executes `token` under `cfg`'s algorithms and menu at `level`, with or
/// without op signatures, reusing `arena`'s trace storage as a campaign
/// does: the call `run_token` makes, with those knobs made explicit.
pub fn replay(
    cfg: &CheckConfig<ProcessSet>,
    token: &ReplayToken,
    level: TraceLevel,
    sigs: bool,
    arena: &mut RunArena<ProcessSet>,
) -> (Run<ProcessSet>, Memory) {
    let oracle = MenuOracle::new(
        Arc::clone(&cfg.menu),
        cfg.n_plus_1,
        token.fd_choices.clone(),
    );
    let mut builder = SimBuilder::<ProcessSet>::replay(token)
        .oracle(oracle)
        .trace_level(level)
        .record_op_sigs(sigs);
    for (i, a) in (cfg.algos)().into_iter().enumerate() {
        if let Some(a) = a {
            builder = builder.spawn(ProcessId(i), a);
        }
    }
    let out = builder.run_with(arena);
    (out.run, out.memory)
}

/// Shared-object operation counts of a run, by object family, split into
/// `(reads, writes or updates)`.
pub fn op_counts(run: &Run<ProcessSet>, memory: &Memory) -> [(u64, u64); 3] {
    let kinds: Vec<(upsilon_sim::ObjectId, Option<usize>)> = memory
        .inventory()
        .map(|(id, _, ty)| (id, object_kind(ty)))
        .collect();
    let mut out = [(0u64, 0u64); 3];
    for ev in run.events() {
        if let StepKind::Op { object, access, .. } = &ev.kind {
            let kind = kinds.iter().find(|(id, _)| id == object).and_then(|k| k.1);
            if let Some(k) = kind {
                if matches!(access, Access::Read) {
                    out[k].0 += 1;
                } else {
                    out[k].1 += 1;
                }
            }
        }
    }
    out
}

/// Invocations timed per object family.
const INVOKES: u64 = 200_000;

/// Runs `op(0..INVOKES)` in one span; nanoseconds per call.
fn ns_per_op(t: &mut Tracer, name: &'static str, mut op: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    t.span(name, INVOKES, |_| (0..INVOKES).for_each(&mut op));
    secs(start) * 1e9 / INVOKES as f64
}

/// Times `ObjectType::invoke` on each object family with the given
/// `(reads, writes)` mix, on `u64` cells over `n_plus_1` processes.
/// Returns nanoseconds per invocation.
pub fn invoke_ns(mix: [(u64, u64); 3], n_plus_1: usize, t: &mut Tracer) -> [f64; 3] {
    // Percentage of reads; an unused family gets an even mix.
    let [reg_reads, snap_reads, _] = mix.map(|(r, w)| (r * 100).checked_div(r + w).unwrap_or(50));
    let n = n_plus_1.max(1);
    let pid = |i: u64| ProcessId(i as usize % n);
    let mut reg = RegisterObject::new(0u64);
    let mut snap = SnapshotObject::<u64>::new(n);
    let mut cons = ConsensusObject::new(ProcessSet::all(n));
    [
        ns_per_op(t, "mem.invoke.register", |i| {
            let op = if i % 100 < reg_reads {
                RegOp::Read
            } else {
                RegOp::Write(i)
            };
            black_box(reg.invoke(pid(i), black_box(op)));
        }),
        ns_per_op(t, "mem.invoke.snapshot", |i| {
            let op = if i % 100 < snap_reads {
                SnapOp::Scan
            } else {
                SnapOp::Update(i as usize % n, i)
            };
            black_box(snap.invoke(pid(i), black_box(op)));
        }),
        // A fresh object every 64 proposals, so first proposals (which
        // decide) stay in the mix.
        ns_per_op(t, "mem.invoke.consensus", |i| {
            if i % 64 == 0 {
                cons = ConsensusObject::new(ProcessSet::all(n));
            }
            black_box(cons.invoke(pid(i), black_box(Propose(i))));
        }),
    ]
}

/// Per-run costs of the layers on a token set.
#[derive(Clone, Copy, Default, Debug)]
pub struct TokenLayers {
    /// `SimBuilder::replay(..).run()` at `TraceLevel::Steps`, µs per run.
    pub engine_run_us: f64,
    /// Scheduler steps per second of those runs.
    pub steps_per_s: f64,
    /// The same runs at `TraceLevel::Full` minus at `Steps`, µs per run.
    pub full_extra_us: f64,
    /// `trace_fingerprint` of a `Full` run, µs per run.
    pub fingerprint_us: f64,
    /// `conflict_coverage` at the campaign window, µs per run.
    pub coverage_us: f64,
    /// `violation_of` (§3.3 validator plus specs), µs per run.
    pub validator_us: f64,
    /// The configured specs alone (what the snapshot-resume explorer checks
    /// per node), µs per run.
    pub specs_us: f64,
    /// `Session::step` at `Full`, µs per step.
    pub step_us: f64,
    /// `Session::save`, µs per save.
    pub save_us: f64,
    /// `Session::restore` to the parent save (with its repositioned
    /// oracle), µs per restore.
    pub restore_us: f64,
    /// Shared-object operations per run, by family.
    pub ops_per_run: [f64; 3],
    /// `ObjectType::invoke`, ns per op, by family.
    pub invoke_ns: [f64; 3],
    /// Failure-detector queries per run.
    pub queries_per_run: f64,
    /// `Oracle::output` of the workload's menu oracle, ns per query.
    pub query_ns: f64,
    /// The untraced per-run pipeline (Steps run, coverage, validator, Full
    /// run, fingerprint), seconds per pass.
    pub untraced_pass_s: f64,
    /// The same pipeline with a span around every call, seconds per pass.
    pub traced_pass_s: f64,
}

impl TokenLayers {
    /// `(traced − untraced) / untraced` of the per-run pipeline.
    pub fn overhead(&self) -> f64 {
        (self.traced_pass_s - self.untraced_pass_s) / self.untraced_pass_s.max(1e-12)
    }

    /// The mean of several token sets' layers, each weighted by `w`.
    pub fn weighted_mean(parts: &[(f64, TokenLayers)]) -> TokenLayers {
        let total: f64 = parts.iter().map(|(w, _)| w).sum::<f64>().max(1e-12);
        let mean = |f: &dyn Fn(&TokenLayers) -> f64| -> f64 {
            parts.iter().map(|(w, l)| w * f(l)).sum::<f64>() / total
        };
        TokenLayers {
            engine_run_us: mean(&|l| l.engine_run_us),
            steps_per_s: mean(&|l| l.steps_per_s),
            full_extra_us: mean(&|l| l.full_extra_us),
            fingerprint_us: mean(&|l| l.fingerprint_us),
            coverage_us: mean(&|l| l.coverage_us),
            validator_us: mean(&|l| l.validator_us),
            specs_us: mean(&|l| l.specs_us),
            step_us: mean(&|l| l.step_us),
            save_us: mean(&|l| l.save_us),
            restore_us: mean(&|l| l.restore_us),
            ops_per_run: [0, 1, 2].map(|k| mean(&|l| l.ops_per_run[k])),
            invoke_ns: [0, 1, 2].map(|k| mean(&|l| l.invoke_ns[k])),
            queries_per_run: mean(&|l| l.queries_per_run),
            query_ns: mean(&|l| l.query_ns),
            untraced_pass_s: mean(&|l| l.untraced_pass_s),
            traced_pass_s: mean(&|l| l.traced_pass_s),
        }
    }

    /// Writes the rows every token-fed workload reports.
    pub fn put(&self, m: &mut Metrics) {
        m.put("sim.engine.run_us", self.engine_run_us, "us");
        m.put("sim.engine.steps_per_s", self.steps_per_s, "1/s");
        m.put("sim.trace.full_extra_us", self.full_extra_us, "us");
        m.put("sim.fingerprint_us", self.fingerprint_us, "us");
        m.put("sim.coverage_us", self.coverage_us, "us");
        m.put("analysis.validator_us", self.validator_us, "us");
        m.put("sim.session.step_us", self.step_us, "us");
        m.put("sim.session.save_us", self.save_us, "us");
        m.put("sim.session.restore_us", self.restore_us, "us");
        for (k, kind) in OBJECT_KINDS.iter().enumerate() {
            m.put(format!("mem.ops.{kind}"), self.ops_per_run[k], "count");
            m.put(format!("mem.invoke_ns.{kind}"), self.invoke_ns[k], "ns");
        }
        m.put("fd.queries", self.queries_per_run, "count");
        m.put("fd.query_ns", self.query_ns, "ns");
    }
}

/// The per-run layer calls, each in its own span: the engine at `Steps`,
/// coverage, the validator, the specs alone, the engine at `Full` and the
/// fingerprint.
fn pipeline(
    t: &mut Tracer,
    cfg: &CheckConfig<ProcessSet>,
    tokens: &[ReplayToken],
    window: usize,
    sigs: bool,
    arena: &mut RunArena<ProcessSet>,
) {
    for tok in tokens {
        let (run, memory) = t.span("sim.engine.run", 1, |_| {
            replay(cfg, tok, TraceLevel::Steps, sigs, arena)
        });
        t.span("sim.coverage", 1, |_| {
            black_box(conflict_coverage(&run, &memory, window))
        });
        t.span("analysis.validator", 1, |_| {
            black_box(violation_of(cfg, &run))
        });
        t.span("analysis.specs", 1, |_| black_box(specs_ok(cfg, &run)));
        arena.recycle(run);
        let (full, full_mem) = t.span("sim.engine.run_full", 1, |_| {
            replay(cfg, tok, TraceLevel::Full, sigs, arena)
        });
        t.span("sim.fingerprint", 1, |_| {
            black_box(trace_fingerprint(&full, &full_mem))
        });
        arena.recycle(full);
    }
}

/// Whether every configured spec holds on `run` (the run-condition
/// validator excluded).
fn specs_ok(cfg: &CheckConfig<ProcessSet>, run: &Run<ProcessSet>) -> bool {
    cfg.specs.iter().all(|spec| spec.check(run).is_ok())
}

/// Drives a `Session` along `token`, saving after every step, then
/// restores back to the root one step at a time.
fn session_walk(t: &mut Tracer, cfg: &CheckConfig<ProcessSet>, token: &ReplayToken) {
    let n = cfg.n_plus_1;
    let oracle = MenuOracle::new(Arc::clone(&cfg.menu), n, token.fd_choices.clone());
    let mut s = Session::new(
        FailurePattern::failure_free(n),
        Arc::clone(&cfg.algos),
        Box::new(oracle),
        TraceLevel::Full,
        cfg.use_matrix,
    );
    let mut saves = vec![s.save()];
    for choice in path_of_token(token) {
        match choice {
            Choice::Step(p) if s.eligible(p) => {
                t.span("sim.session.step", 1, |_| black_box(s.step(p)));
                let save = t.span("sim.session.save", 1, |_| s.save());
                saves.push(save);
            }
            Choice::Step(_) => {}
            Choice::Crash(p) => s.crash(p),
        }
    }
    saves.pop();
    while let Some(target) = saves.pop() {
        t.span("sim.session.restore", 1, |_| {
            let oracle = MenuOracle::with_counts(
                Arc::clone(&cfg.menu),
                n,
                token.fd_choices.clone(),
                &target.query_counts(),
            );
            s.restore(&target, Box::new(oracle));
        });
    }
    black_box(s.finish());
}

/// Measures every token-fed layer on `tokens`, repeating passes until
/// `budget` is spent (at least one pass). `sigs` records op signatures
/// on the engine runs, as the explorer does and a fuzz campaign does not.
pub fn measure(
    t: &mut Tracer,
    cfg: &CheckConfig<ProcessSet>,
    tokens: &[ReplayToken],
    window: usize,
    sigs: bool,
    budget: Duration,
) -> TokenLayers {
    assert!(!tokens.is_empty(), "layer probes need at least one token");
    let stride = tokens.len().div_ceil(MAX_TOKENS);
    let tokens: Vec<ReplayToken> = tokens.iter().step_by(stride).cloned().collect();
    let tokens = tokens.as_slice();
    let mark = t.mark();
    let mut out = TokenLayers::default();
    let mut arena = RunArena::new();

    // Op and query shapes of the workload's runs (untimed).
    let mut ops = [(0u64, 0u64); 3];
    let mut shapes: Vec<Vec<(ProcessId, Time)>> = Vec::with_capacity(tokens.len());
    let mut steps = 0u64;
    for tok in tokens {
        let (run, memory) = replay(cfg, tok, TraceLevel::Steps, sigs, &mut arena);
        steps += run.total_steps();
        for (k, (r, w)) in op_counts(&run, &memory).into_iter().enumerate() {
            ops[k].0 += r;
            ops[k].1 += w;
        }
        shapes.push(
            run.events()
                .iter()
                .filter(|e| matches!(e.kind, StepKind::Query(_)))
                .map(|e| (e.pid, e.time))
                .collect(),
        );
        arena.recycle(run);
    }
    let runs = tokens.len() as f64;
    out.ops_per_run = ops.map(|(r, w)| (r + w) as f64 / runs);
    let queries: u64 = shapes.iter().map(|s| s.len() as u64).sum();
    out.queries_per_run = queries as f64 / runs;

    // A warm-up pass, so neither timed pipeline pays first-touch costs.
    pipeline(&mut Tracer::off(), cfg, tokens, window, sigs, &mut arena);
    let start = Instant::now();
    let mut passes = 0u64;
    let mut untraced = 0.0;
    let mut traced = 0.0;
    while passes == 0 || (passes < MAX_PASSES && start.elapsed() < budget) {
        passes += 1;
        let t0 = Instant::now();
        pipeline(&mut Tracer::off(), cfg, tokens, window, sigs, &mut arena);
        untraced += secs(t0);
        let t0 = Instant::now();
        t.span("pipeline", tokens.len() as u64, |t| {
            pipeline(t, cfg, tokens, window, sigs, &mut arena)
        });
        traced += secs(t0);
        t.span("session", tokens.len() as u64, |t| {
            for tok in tokens {
                session_walk(t, cfg, tok);
            }
        });
        let mut oracles: Vec<MenuOracle<ProcessSet>> = tokens
            .iter()
            .map(|tok| MenuOracle::new(Arc::clone(&cfg.menu), cfg.n_plus_1, tok.fd_choices.clone()))
            .collect();
        t.span("fd.query", queries, |_| {
            for (oracle, shape) in oracles.iter_mut().zip(&shapes) {
                for &(p, at) in shape {
                    black_box(oracle.output(p, at));
                }
            }
        });
    }
    out.untraced_pass_s = untraced / passes as f64;
    out.traced_pass_s = traced / passes as f64;

    let engine = t.agg_since(mark, "sim.engine.run");
    let full = t.agg_since(mark, "sim.engine.run_full");
    out.engine_run_us = engine.self_us_per();
    out.steps_per_s = (steps * passes) as f64 / engine.self_s.max(1e-12);
    out.full_extra_us = full.self_us_per() - engine.self_us_per();
    out.fingerprint_us = t.agg_since(mark, "sim.fingerprint").self_us_per();
    out.coverage_us = t.agg_since(mark, "sim.coverage").self_us_per();
    out.validator_us = t.agg_since(mark, "analysis.validator").self_us_per();
    out.specs_us = t.agg_since(mark, "analysis.specs").self_us_per();
    out.step_us = t.agg_since(mark, "sim.session.step").self_us_per();
    out.save_us = t.agg_since(mark, "sim.session.save").self_us_per();
    out.restore_us = t.agg_since(mark, "sim.session.restore").self_us_per();
    out.query_ns = t.agg_since(mark, "fd.query").self_ns_per();
    out.invoke_ns = invoke_ns(ops, cfg.n_plus_1, t);
    out
}
