//! `swarm-pack`: a full-pack swarm campaign (every instance resident before
//! the first step) at two workers.

use crate::probes::{self, OBJECT_KINDS};
use crate::trace::Tracer;
use crate::util::{measure, peak_rss_bytes, rss_bytes, secs, Setups};
use crate::{Args, Outcome};
use std::hint::black_box;
use std::time::Instant;
use upsilon_fd::{UpsilonChoice, UpsilonOracle};
use upsilon_scenario::{load_file, resolve_swarm};
use upsilon_sim::{trace_fingerprint, Oracle, ProcessId, StepKind, Time};
use upsilon_swarm::{
    campaign_specs, fold_outcome, run_packed_specs, InstanceSpec, SwarmConfig, SwarmProtocol,
    SwarmReport,
};

/// Worker threads of the measured campaign.
const WORKERS: usize = 2;

/// Instances whose standalone runs feed the engine, validator,
/// fingerprint, object and oracle rows.
const SAMPLE: usize = 2000;

struct Campaign {
    cfg: SwarmConfig,
    specs: Vec<InstanceSpec>,
    expect_pass: bool,
}

fn load(args: &Args) -> Result<Campaign, String> {
    let doc = load_file(&args.scenarios.join("swarm-pack.toml"))?;
    let cells = doc.expand();
    let [cell] = cells.as_slice() else {
        return Err(format!(
            "swarm-pack: expected one cell, got {}",
            cells.len()
        ));
    };
    let mut cfg = resolve_swarm(&doc, cell, args.seed)?;
    cfg.workers = WORKERS;
    if args.quick {
        cfg.instances = cfg.instances.min(3000);
    }
    let specs = campaign_specs(&cfg.mix, cfg.campaign_seed, cfg.effective_range());
    Ok(Campaign {
        cfg,
        specs,
        expect_pass: args.expect_pass(cell.expect),
    })
}

fn run_campaign(c: &Campaign, workers: usize) -> SwarmReport {
    run_packed_specs(&c.specs, c.cfg.batch, workers, c.cfg.window, false).0
}

fn verdict(out: &mut Outcome, c: &Campaign, report: &SwarmReport) {
    out.attempted += report.instances;
    let bad = [report.finished, report.spec_ok, report.run_cond_ok]
        .into_iter()
        .map(|ok| report.instances - ok.min(report.instances))
        .max()
        .unwrap_or(0);
    let wrong = report.instances != c.specs.len() as u64 || (bad == 0) != c.expect_pass;
    out.check(!wrong, bad, || {
        format!(
            "swarm-pack: {} instances, {} finished, {} spec_ok, {} run_cond_ok; expected {}",
            report.instances,
            report.finished,
            report.spec_ok,
            report.run_cond_ok,
            if c.expect_pass {
                "all clean"
            } else {
                "a failure"
            }
        )
    });
}

/// Runs the campaign once and returns its report with the OS-measured
/// peak-RSS growth per resident instance over the resident set before it.
fn measured_first(c: &Campaign) -> (SwarmReport, f64) {
    let before = rss_bytes();
    let report = run_campaign(c, WORKERS);
    let growth = peak_rss_bytes().saturating_sub(before);
    (report, growth as f64 / report.instances.max(1) as f64)
}

/// The untraced run: `verdict_s` is the median time of one campaign.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Setups::default();
    let c = setups.sample(21, || load(args))?;
    out.workers.push(("swarm", WORKERS));

    let before = rss_bytes();
    let (reps, peak) = measure(
        3,
        args.budget(),
        || setups.sample(2, || load(args)).map(drop),
        || run_campaign(&c, WORKERS),
    )?;
    out.metrics.put("setup_s", setups.median(), "s");
    out.metrics.put("peak_rss_mb", peak as f64 / 1e6, "MB");
    let first = reps[0].0;
    let rss_per_instance = peak.saturating_sub(before) as f64 / first.instances.max(1) as f64;
    for (report, _) in &reps {
        verdict(&mut out, &c, report);
        out.check(*report == first, 1, || {
            "swarm reports differ between repetitions of the same seed".into()
        });
    }
    let verdict_s = out.repetitions(&reps);
    let decisions_per_s = first.decisions as f64 / verdict_s;
    out.metrics.put("verdict_s", verdict_s, "s");
    out.metrics.put("ops_per_s", decisions_per_s, "1/s");
    out.info
        .put("swarm.decisions_per_s", decisions_per_s, "1/s");
    out.info
        .put("swarm.rss_per_instance_b", rss_per_instance, "B");
    out.info.put(
        "swarm.approx_bytes_per_instance",
        first.bytes_per_instance() as f64,
        "B",
    );
    out.info
        .put("swarm.instances", first.instances as f64, "count");
    out.info
        .put("swarm.decisions", first.decisions as f64, "count");
    out.info
        .put("swarm.total_steps", first.total_steps as f64, "count");
    Ok(out)
}

/// The Υ oracle a Fig. 1/Fig. 2 instance queries (`None` for the
/// detector-free tenants), built as the instance's builder builds it.
fn oracle_of(spec: &InstanceSpec) -> Option<UpsilonOracle> {
    let cfg = spec.agreement_config();
    let f = match spec.protocol {
        SwarmProtocol::Fig1 => cfg.pattern.n(),
        SwarmProtocol::Fig2 { f } => f.max(1),
        SwarmProtocol::Echo | SwarmProtocol::Converge { .. } => return None,
    };
    Some(
        UpsilonOracle::new(
            &cfg.pattern,
            f,
            UpsilonChoice::default(),
            cfg.stabilize_at,
            cfg.seed,
        )
        .with_noise(cfg.noise),
    )
}

/// The packed executor's loop over one arena, rebuilt from the swarm's
/// public calls with a span around each: build, pack (`into_cell`),
/// `step_quota`, `finish` and the outcome fold. Returns the number of
/// `step_quota` calls and the arena's `approx_bytes` at retirement.
fn traced_pack(t: &mut Tracer, c: &Campaign) -> (u64, u64, SwarmReport) {
    let mut quota_calls = 0u64;
    let mut approx = 0u64;
    let mut report = SwarmReport {
        instances: c.specs.len() as u64,
        ..SwarmReport::default()
    };
    t.span("swarm.campaign", c.specs.len() as u64, |t| {
        let mut slots = Vec::with_capacity(c.specs.len());
        for spec in &c.specs {
            let (builder, k, proposals) = t.span("swarm.build", 1, |_| spec.build());
            let cell = t.span("swarm.pack", 1, |_| builder.into_cell());
            slots.push(Some((cell, k, proposals)));
        }
        let mut live = slots.len();
        while live > 0 {
            for slot in &mut slots {
                let Some((cell, _, _)) = slot.as_mut() else {
                    continue;
                };
                quota_calls += 1;
                if t.span("swarm.step", 1, |_| cell.step_quota(c.cfg.batch))
                    .is_none()
                {
                    continue;
                }
                let (cell, k, proposals) = slot.take().expect("slot checked live above");
                live -= 1;
                approx += cell.approx_bytes() as u64;
                let sim = t.span("swarm.finish", 1, |_| cell.finish());
                if sim.run.stop_reason() == upsilon_sim::StopReason::AllDone {
                    report.finished += 1;
                }
                let res = t.span("swarm.fold", 1, |_| fold_outcome(&sim, k, &proposals));
                report.decisions += res.decisions();
                report.spec_ok += u64::from(res.outcome.spec.is_ok());
                report.run_cond_ok += u64::from(res.outcome.run_conditions.is_ok());
            }
        }
    });
    (quota_calls, approx, report)
}

/// The traced run: memory and worker scaling from the real executor, then
/// the executor's loop rebuilt with spans, then the engine, validator,
/// fingerprint, object and oracle rows on standalone runs of a sample.
pub fn traced(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut t = Tracer::new();
    let mut loaded = None;
    let mark = t.mark();
    for _ in 0..9 {
        loaded = Some(t.span("scenario.load", 1, |_| load(args))?);
    }
    let c = loaded.expect("loaded at least once");
    out.metrics.put(
        "scenario.load_us",
        t.agg_since(mark, "scenario.load").self_us_per(),
        "us",
    );
    out.workers.push(("swarm_serial", 1));
    out.workers.push(("swarm", WORKERS));

    // The first campaign in the process measures memory; the timed pair
    // below runs on warm memory, so the first one's page faults do not
    // count against either worker count.
    let (two, rss_per_instance) = measured_first(&c);
    verdict(&mut out, &c, &two);
    let start = Instant::now();
    let one = run_campaign(&c, 1);
    let one_s = secs(start);
    let start = Instant::now();
    run_campaign(&c, WORKERS);
    let two_s = secs(start);
    out.check(one == two, 1, || {
        "swarm counters differ between 1 and 2 workers for the same seed".into()
    });
    let approx = two.bytes_per_instance() as f64;
    out.metrics.put("swarm.speedup_2w", one_s / two_s, "ratio");
    out.metrics
        .put("swarm.rss_per_instance_b", rss_per_instance, "B");
    out.metrics
        .put("swarm.approx_bytes_per_instance", approx, "B");
    out.metrics.put(
        "swarm.bytes_reported_over_rss",
        approx / rss_per_instance.max(1.0),
        "ratio",
    );

    // The executor's loop on one arena: a warm-up, then with spans off
    // (the same code untraced, for the tracing overhead), then with spans
    // on; the layer share is against the real single-worker campaign.
    traced_pack(&mut Tracer::off(), &c);
    let start = Instant::now();
    traced_pack(&mut Tracer::off(), &c);
    let untraced_s = secs(start);
    let mark = t.mark();
    let start = Instant::now();
    let (quota_calls, approx_sum, replica) = traced_pack(&mut t, &c);
    let traced_s = secs(start);
    let n = c.specs.len().max(1) as f64;
    out.check(
        replica.decisions == one.decisions
            && replica.spec_ok == one.spec_ok
            && replica.run_cond_ok == one.run_cond_ok
            && replica.finished == one.finished
            && approx_sum == one.arena_bytes,
        1,
        || "the traced executor loop disagrees with run_packed_specs".into(),
    );
    let mut layer_s = 0.0;
    for (row, span) in [
        ("swarm.build_us", "swarm.build"),
        ("swarm.pack_us", "swarm.pack"),
        ("swarm.step_us", "swarm.step"),
        ("swarm.finish_us", "swarm.finish"),
        ("swarm.fold_us", "swarm.fold"),
    ] {
        let a = t.agg_since(mark, span);
        layer_s += a.self_s;
        out.metrics.put(row, a.self_s * 1e6 / n, "us");
    }
    out.metrics.put(
        "swarm.quota_calls_per_instance",
        quota_calls as f64 / n,
        "count",
    );
    out.metrics.put("layer_share", layer_s / one_s, "ratio");
    out.metrics.put(
        "trace_overhead",
        (traced_s - untraced_s) / untraced_s,
        "ratio",
    );

    // Standalone runs of the first instances: engine, validator,
    // fingerprint, shared objects and the Υ oracle.
    let sample = &c.specs[..c.specs.len().min(SAMPLE)];
    let mark = t.mark();
    let mut steps = 0u64;
    let mut ops = [(0u64, 0u64); 3];
    let mut queries = 0u64;
    for spec in sample {
        let (builder, _, _) = spec.build();
        let sim = t.span("sim.engine.run", 1, |_| builder.run());
        steps += sim.run.total_steps();
        t.span("analysis.validator", 1, |_| {
            black_box(upsilon_analysis::check_run_for(&sim.run).is_ok())
        });
        t.span("sim.fingerprint", 1, |_| {
            black_box(trace_fingerprint(&sim.run, &sim.memory))
        });
        for (k, (r, w)) in probes::op_counts(&sim.run, &sim.memory)
            .into_iter()
            .enumerate()
        {
            ops[k].0 += r;
            ops[k].1 += w;
        }
        let shape: Vec<(ProcessId, Time)> = sim
            .run
            .events()
            .iter()
            .filter(|e| matches!(e.kind, StepKind::Query(_)))
            .map(|e| (e.pid, e.time))
            .collect();
        queries += shape.len() as u64;
        if let Some(mut oracle) = oracle_of(spec) {
            t.span("fd.query", shape.len() as u64, |_| {
                for &(p, at) in &shape {
                    black_box(oracle.output(p, at));
                }
            });
        }
    }
    let runs = sample.len().max(1) as f64;
    let engine = t.agg_since(mark, "sim.engine.run");
    out.metrics
        .put("sim.engine.run_us", engine.self_us_per(), "us");
    out.metrics.put(
        "sim.engine.steps_per_s",
        steps as f64 / engine.self_s.max(1e-12),
        "1/s",
    );
    out.metrics.put(
        "analysis.validator_us",
        t.agg_since(mark, "analysis.validator").self_us_per(),
        "us",
    );
    out.metrics.put(
        "sim.fingerprint_us",
        t.agg_since(mark, "sim.fingerprint").self_us_per(),
        "us",
    );
    for (k, kind) in OBJECT_KINDS.iter().enumerate() {
        out.metrics.put(
            format!("mem.ops.{kind}"),
            (ops[k].0 + ops[k].1) as f64 / runs,
            "count",
        );
    }
    let n_plus_1 = sample.iter().map(|s| s.n_plus_1).max().unwrap_or(3);
    for (k, ns) in probes::invoke_ns(ops, n_plus_1, &mut t)
        .into_iter()
        .enumerate()
    {
        out.metrics
            .put(format!("mem.invoke_ns.{}", OBJECT_KINDS[k]), ns, "ns");
    }
    out.metrics
        .put("fd.queries", queries as f64 / runs, "count");
    out.metrics.put(
        "fd.query_ns",
        t.agg_since(mark, "fd.query").self_ns_per(),
        "ns",
    );
    out.info.put(
        "swarm.decisions_per_s.1w",
        one.decisions as f64 / one_s,
        "1/s",
    );
    out.info.put(
        "swarm.decisions_per_s.2w",
        two.decisions as f64 / two_s,
        "1/s",
    );
    out.spans = Some(t);
    Ok(out)
}
