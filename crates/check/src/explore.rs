//! The systematic explorer: sleep-set DPOR over schedules, layered with
//! exhaustive crash injection and failure-detector output branching.
//!
//! # State space
//!
//! A node of the search tree is a *path*: a sequence of [`Choice`]s —
//! `Step(p)` grants one step to `p`, `Crash(p)` crashes `p` at the current
//! point of the schedule — together with a per-process script of
//! failure-detector candidate picks. Every node is executed from scratch
//! through [`SimBuilder`] with a [`Scripted`](upsilon_sim::Scripted)
//! adversary (stateless model checking), checked against the §3.3
//! run-condition validator and every configured [`RunSpec`], and then
//! expanded.
//!
//! # Partial-order reduction
//!
//! Two steps are *dependent* iff they touch the same shared object (by
//! [`Key`], not allocation order) with conflicting [`Access`]es — reads
//! commute with reads, single-writer cell updates commute across distinct
//! cells, everything else conflicts. Query/output/no-op steps are globally
//! independent: detector values are scripted per `(p, k)` so they do not
//! depend on placement. The explorer keeps a *sleep set* of process/footprint
//! pairs whose subtrees were already explored at an ancestor; a sleeping
//! process is skipped until a conflicting step wakes it. Runs pruned this
//! way are Mazurkiewicz-equivalent to explored ones, so any spec that is
//! *trace-closed* (invariant under commuting independent steps — see
//! `DESIGN.md` §8) loses no violations.
//!
//! # Crash canonicalization
//!
//! Crash choices commute with every other process's steps, and shifting a
//! crash across steps of *other* processes changes neither the event
//! sequence nor `correct(F)`. Each equivalence class therefore has one
//! canonical representative, the only one generated: processes that never
//! step crash in one ascending initial block; a process that steps crashes
//! immediately after its own last step ([`Choice::Crash`] allowed only when
//! the path so far is all-crash-ascending or ends with `Step(p)`).
//!
//! # Counterexamples
//!
//! A violating node is packed into a replayable [`ReplayToken`] (`UCHK1:`),
//! minimized with [`ddmin_counted`] over its choice sequence (re-executing
//! each candidate), and reported with both raw and shrunk tokens.

use crate::menu::{FdMenu, MenuOracle, QueryRecord};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use upsilon_analysis::{RunConditionsSpec, RunSpec};
use upsilon_core::shrink::ddmin_counted;
use upsilon_sim::symmetry::Orbit;
use upsilon_sim::{
    ops_commute, resolve, run_stealing, Access, AlgoFn, EngineKind, FailurePattern, FdValue,
    FnvWrite, Key, Memory, OpSig, ProcessId, ReplayToken, ResolvedOp, Run, Session, SessionSave,
    SessionStep, SimBuilder, StealJob, StealScope, StepKind, Time, TraceLevel,
};

/// The interned id of a [`Footprint`] within one explorer (see
/// [`Footprints`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct FpId(u32);

impl FpId {
    /// [`Footprint::Local`], interned first by every explorer.
    const LOCAL: FpId = FpId(0);
}

/// A sleep set: processes whose subtree under the named step was already
/// explored at an ancestor.
type SleepSet = Vec<(ProcessId, FpId)>;

/// One scheduling decision of the explorer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Choice {
    /// Grant one step to the process.
    Step(ProcessId),
    /// Crash the process at the current point of the schedule.
    Crash(ProcessId),
}

/// What one executed step touched, for the conflict relation.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Footprint {
    /// Query, output or no-op: independent of every other step.
    Local,
    /// A shared-object operation.
    Obj {
        /// The object's stable name.
        key: Key,
        /// How the operation touched it.
        access: Access,
        /// The op's signature resolved against the generated commutativity
        /// matrix (`upsilon_sim::commute`), when the exploration records
        /// signatures and the object type is analyzed. `None` falls back to
        /// the `Access` lattice alone.
        sig: Option<ResolvedOp>,
    },
}

impl Footprint {
    /// Whether two steps with these footprints are dependent (do not
    /// commute).
    ///
    /// The base relation is the `Access` lattice on same-key operations; a
    /// lattice conflict is then *removed* when both sides carry resolved
    /// signatures the per-op-pair matrix proves independent (e.g. two
    /// writes of the same value to one register). The refinement is sound
    /// for sleep sets because every matrix verdict is state-independent:
    /// it holds in all object states, not just the one explored.
    pub fn conflicts_with(&self, other: &Footprint) -> bool {
        match (self, other) {
            (
                Footprint::Obj {
                    key: k1,
                    access: a1,
                    sig: s1,
                },
                Footprint::Obj {
                    key: k2,
                    access: a2,
                    sig: s2,
                },
            ) => {
                let matrix_commutes = match (s1, s2) {
                    (Some(s1), Some(s2)) => ops_commute(s1, s2),
                    _ => false,
                };
                k1 == k2 && a1.conflicts_with(*a2) && !matrix_commutes
            }
            _ => false,
        }
    }
}

/// Every distinct footprint one explorer has met, numbered once: sleep sets
/// and the dedup table hold [`FpId`]s, and [`Footprint::conflicts_with`]
/// is evaluated once per id pair.
///
/// Ids name *resolved* footprints, so two recorded signatures that resolve
/// alike (or both fail to resolve) share an id exactly as their footprints
/// compare equal. A step is mapped to its id through a cache keyed by the
/// recorded `(key, access, sig)` triple, hashed from its raw bytes; a
/// cache hit costs one hash and one equality check, and signatures are
/// parsed only on the first miss.
struct Footprints {
    /// The footprint of each id; `FpId::LOCAL` is [`Footprint::Local`].
    fps: Vec<Footprint>,
    /// Footprint → id, consulted when a new triple or a frontier job's
    /// footprint arrives.
    ids: BTreeMap<Footprint, FpId>,
    /// Raw-triple hash → the triples seen with that hash, with their ids.
    steps: BTreeMap<u64, Vec<StepFp>>,
    /// `conflicts[a][b]`: whether `a` and `b` are dependent, once
    /// evaluated. Rows grow on demand.
    conflicts: Vec<Vec<Option<bool>>>,
}

/// One recorded `(key, access, sig)` triple and the id it resolved to.
struct StepFp {
    key: Key,
    access: Access,
    sig: Option<OpSig>,
    id: FpId,
}

impl Footprints {
    fn new() -> Self {
        let mut fps = Footprints {
            fps: Vec::new(),
            ids: BTreeMap::new(),
            steps: BTreeMap::new(),
            conflicts: Vec::new(),
        };
        let local = fps.intern(&Footprint::Local);
        debug_assert_eq!(local, FpId::LOCAL);
        fps
    }

    /// The id of `fp`, allocating the next one on first sight.
    fn intern(&mut self, fp: &Footprint) -> FpId {
        if let Some(&id) = self.ids.get(fp) {
            return id;
        }
        let id = FpId(u32::try_from(self.fps.len()).expect("fewer than 2^32 footprints"));
        self.fps.push(fp.clone());
        self.ids.insert(fp.clone(), id);
        self.conflicts.push(Vec::new());
        id
    }

    /// The footprint an id names.
    fn get(&self, id: FpId) -> &Footprint {
        &self.fps[id.0 as usize]
    }

    /// The id of the last step of `run`.
    fn of_last_step<D: FdValue>(&mut self, run: &Run<D>, memory: &Memory) -> FpId {
        match &run.events().last().expect("step child has an event").kind {
            StepKind::Op {
                object,
                access,
                sig,
                ..
            } => {
                let key = memory
                    .name_of(*object)
                    .expect("every allocated object is named");
                self.of_op(key, *access, sig.as_ref())
            }
            _ => FpId::LOCAL,
        }
    }

    /// The id of one operation step, through the raw-triple cache.
    fn of_op(&mut self, key: &Key, access: Access, sig: Option<&OpSig>) -> FpId {
        let mut h = FnvWrite::new();
        h.write_bytes(key.name().as_bytes());
        for &i in key.indices() {
            h.write_u64(i);
        }
        h.write_u64(match access {
            Access::Read => 0,
            Access::Write(cell) => 1 + (u64::from(cell) << 1),
            Access::Update => 2,
        });
        if let Some(sig) = sig {
            h.write_bytes(sig.op.as_bytes());
        }
        let hash = h.finish();
        let hit = self.steps.get(&hash).and_then(|seen| {
            seen.iter()
                .find(|s| s.access == access && s.key == *key && s.sig.as_ref() == sig)
        });
        if let Some(s) = hit {
            return s.id;
        }
        let id = self.intern(&Footprint::Obj {
            key: key.clone(),
            access,
            sig: sig.and_then(resolve),
        });
        self.steps.entry(hash).or_default().push(StepFp {
            key: key.clone(),
            access,
            sig: sig.cloned(),
            id,
        });
        id
    }

    /// [`Footprint::conflicts_with`] of two ids, memoized.
    fn conflicts(&mut self, a: FpId, b: FpId) -> bool {
        if a == FpId::LOCAL || b == FpId::LOCAL {
            return false;
        }
        let (a, b) = (a.0 as usize, b.0 as usize);
        let row = &mut self.conflicts[a];
        if row.len() <= b {
            row.resize(self.fps.len(), None);
        }
        *row[b].get_or_insert_with(|| self.fps[a].conflicts_with(&self.fps[b]))
    }
}

/// Produces the per-process algorithms of one run; called once per explored
/// node (stateless re-execution), so it must be deterministic. `None`
/// entries do not participate.
pub type AlgoFactory<D> = Arc<dyn Fn() -> Vec<Option<AlgoFn<D>>> + Send + Sync>;

/// How much of the search tree the explorer may prune: an ordered ladder,
/// each level keeping every reduction of the levels below it.
///
/// The process-symmetry reduction is not a level: it follows
/// [`CheckConfig::orbit`] (see there).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub enum Reduction {
    /// No pruning: the full tree, the naive baseline benchmarked against.
    None,
    /// Sleep-set partial-order reduction (the default).
    #[default]
    Sleep,
    /// Sleep sets plus state-fingerprint deduplication: prune a node whose
    /// canonical fingerprint — object states plus per-process trace
    /// digests plus the unserved pick script, crash context and remaining
    /// budgets — was already fully explored with an equal-or-looser sleep
    /// set and an equal-or-deeper remaining depth. Sound for the
    /// state-based, trace-closed specs this checker is built for (verdicts
    /// are functions of per-process projections, which equal fingerprints
    /// pin down); the differential suite locks verdict and token equality
    /// against [`Reduction::Sleep`]. The key is computed up to the
    /// within-class process renaming [`CheckConfig::orbit`] certifies (pid
    /// order under [`Orbit::Trivial`]). Inert without turbo: the
    /// fingerprints come from the live session, so a stateless exploration
    /// ([`CheckConfig::turbo`] off, or the thread engine) runs exactly as
    /// [`Reduction::Sleep`]. The session then records at
    /// [`TraceLevel::Digest`], so each op's response enters the digest as
    /// one word, with no rendered text.
    Dedup,
}

/// Configuration of one exploration.
#[derive(Clone)]
pub struct CheckConfig<D: FdValue> {
    /// Number of processes.
    pub n_plus_1: usize,
    /// Maximum schedule length (number of `Step` choices per path).
    pub depth: usize,
    /// Maximum number of injected crashes per path (`< n_plus_1`).
    pub max_faults: usize,
    /// Failure-detector candidates per query.
    pub menu: Arc<dyn FdMenu<D>>,
    /// Specifications checked on every explored run, in order; the §3.3
    /// run-condition validator is always checked first. Specs must be
    /// trace-closed for the reduction to be sound.
    pub specs: Vec<Arc<dyn RunSpec<D>>>,
    /// The algorithms under test.
    pub algos: AlgoFactory<D>,
    /// How much of the tree to prune (default [`Reduction::Sleep`]).
    pub reduction: Reduction,
    /// Snapshot-resume execution (on by default): nodes run on an
    /// incremental [`Session`] that saves at every node and rewinds by
    /// fast-forward replay, instead of re-executing each path from the
    /// root. Byte-identical reports either way; automatically falls back
    /// to stateless re-execution under [`EngineKind::Threads`] (thread
    /// state machines cannot be rewound).
    pub turbo: bool,
    /// The certified orbit classes of this configuration's processes
    /// (default [`Orbit::Trivial`]). A non-trivial orbit turns on the
    /// process-symmetry reduction: crash injections collapse to one
    /// representative per orbit class, and [`Reduction::Dedup`] keys are
    /// canonical up to within-class process renaming. Under
    /// [`Orbit::Trivial`] both are the identity. Samples set this from the
    /// generated `upsilon_sim::symmetry::sample_orbit` table; hand-built
    /// configs must only claim a non-trivial orbit when algorithms, inputs,
    /// specs and menu really are invariant under class-preserving
    /// permutations, as the static audit (`upsilon-symmetry`) certifies.
    /// The differential suite locks verdict and token equality against the
    /// trivial orbit.
    pub orbit: Orbit,
    /// Refine the conflict relation through the generated per-op-pair
    /// commutativity matrix (`upsilon_sim::commute`): op signatures are
    /// recorded on every node and lattice conflicts the matrix proves
    /// independent stop waking sleeping processes. `false` reverts to the
    /// coarse `Access` lattice (the pre-matrix behaviour, benchmarked as
    /// the `lattice` mode).
    pub use_matrix: bool,
    /// Engine each node runs under.
    pub engine: EngineKind,
    /// Worker threads for the frontier fan-out (`0` = default pool).
    pub workers: usize,
    /// Path length at which subtrees are fanned out over
    /// `run_stealing`; `0` explores serially.
    pub split_depth: usize,
    /// Node budget (per frontier job when fanned out).
    pub max_nodes: u64,
    /// Stop after this many counterexamples.
    pub max_violations: usize,
    /// Minimize counterexamples with delta debugging.
    pub shrink: bool,
}

impl<D: FdValue> std::fmt::Debug for CheckConfig<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckConfig")
            .field("n_plus_1", &self.n_plus_1)
            .field("depth", &self.depth)
            .field("max_faults", &self.max_faults)
            .field("reduction", &self.reduction)
            .field("turbo", &self.turbo)
            .field("orbit", &self.orbit)
            .field("split_depth", &self.split_depth)
            .finish_non_exhaustive()
    }
}

impl<D: FdValue> CheckConfig<D> {
    /// A serial, reduction-enabled configuration with no crash injection and
    /// a one-counterexample budget.
    pub fn new(
        n_plus_1: usize,
        depth: usize,
        algos: AlgoFactory<D>,
        menu: Arc<dyn FdMenu<D>>,
    ) -> Self {
        CheckConfig {
            n_plus_1,
            depth,
            max_faults: 0,
            menu,
            specs: Vec::new(),
            algos,
            reduction: Reduction::Sleep,
            turbo: true,
            orbit: Orbit::Trivial,
            use_matrix: true,
            engine: EngineKind::Inline,
            workers: 0,
            split_depth: 0,
            max_nodes: 1_000_000,
            max_violations: 1,
            shrink: true,
        }
    }

    /// Adds a specification to check on every explored run.
    pub fn spec(mut self, spec: impl RunSpec<D> + 'static) -> Self {
        self.specs.push(Arc::new(spec));
        self
    }

    /// Sets the crash-injection budget.
    pub fn max_faults(mut self, f: usize) -> Self {
        self.max_faults = f;
        self
    }

    /// Sets how much of the tree to prune (default [`Reduction::Sleep`]).
    pub fn reduction(mut self, reduction: Reduction) -> Self {
        self.reduction = reduction;
        self
    }

    /// Enables or disables snapshot-resume execution (on by default).
    pub fn turbo(mut self, on: bool) -> Self {
        self.turbo = on;
        self
    }

    /// Declares the certified orbit classes of this configuration's
    /// processes (default [`Orbit::Trivial`]).
    pub fn orbit(mut self, orbit: Orbit) -> Self {
        self.orbit = orbit;
        self
    }

    /// Enables or disables the per-op-pair commutativity refinement of the
    /// conflict relation (on by default).
    pub fn matrix(mut self, on: bool) -> Self {
        self.use_matrix = on;
        self
    }

    /// Fans subtrees out over a worker pool once paths reach `split_depth`.
    pub fn parallel(mut self, split_depth: usize, workers: usize) -> Self {
        self.split_depth = split_depth;
        self.workers = workers;
        self
    }

    /// Sets the counterexample budget.
    pub fn max_violations(mut self, v: usize) -> Self {
        self.max_violations = v;
        self
    }
}

/// Counters describing one exploration.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CheckStats {
    /// Executed (and spec-checked) nodes, including the root.
    pub nodes: u64,
    /// Step children skipped because the process was asleep.
    pub sleep_pruned: u64,
    /// Nodes whose last choice was a crash injection.
    pub crash_nodes: u64,
    /// Nodes spawned as failure-detector output variants.
    pub fd_variant_nodes: u64,
    /// Paths that reached the depth budget.
    pub depth_leaves: u64,
    /// Step children that produced no step (the process finished instantly).
    pub no_step_children: u64,
    /// Nodes pruned because an equal state fingerprint was already fully
    /// explored (always 0 below [`Reduction::Dedup`]).
    pub dedup_pruned: u64,
    /// Children skipped as symmetric duplicates: crash injections collapsed
    /// to one representative per orbit class (only under a non-trivial
    /// [`CheckConfig::orbit`]) and repeated failure-detector candidates.
    pub symmetry_pruned: u64,
    /// Whether a node or violation budget cut the search short.
    pub truncated: bool,
}

impl CheckStats {
    fn absorb(&mut self, other: CheckStats) {
        self.nodes += other.nodes;
        self.sleep_pruned += other.sleep_pruned;
        self.crash_nodes += other.crash_nodes;
        self.fd_variant_nodes += other.fd_variant_nodes;
        self.depth_leaves += other.depth_leaves;
        self.no_step_children += other.no_step_children;
        self.dedup_pruned += other.dedup_pruned;
        self.symmetry_pruned += other.symmetry_pruned;
        self.truncated |= other.truncated;
    }
}

/// A violation found by the explorer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CounterExample {
    /// Name of the violated specification.
    pub spec: String,
    /// The violation message from the spec checker.
    pub message: String,
    /// Minimized replayable token (equals `raw_token` when shrinking is
    /// off).
    pub token: ReplayToken,
    /// The token of the node where the violation was first found.
    pub raw_token: ReplayToken,
    /// Predicate evaluations the shrink spent.
    pub shrink_evals: u64,
    /// Choices removed by the shrink.
    pub shrink_removed: usize,
}

/// The result of [`check`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CheckReport {
    /// Search counters.
    pub stats: CheckStats,
    /// Counterexamples, in deterministic discovery order.
    pub violations: Vec<CounterExample>,
    /// Subtree jobs fanned out over the worker pool (0 when serial).
    pub frontier_jobs: usize,
}

impl CheckReport {
    /// Whether the exploration found no violation.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// One executed node: the run, final memory (for object names) and the
/// failure-detector queries as served.
#[derive(Debug)]
pub struct Exec<D: FdValue> {
    /// The recorded run.
    pub run: Run<D>,
    /// The shared memory at the end of the run.
    pub memory: Memory,
    /// The menu oracle's query log.
    pub queries: Vec<QueryRecord>,
}

/// Packs a path and pick script into a replayable token. Crash times count
/// the `Step` choices preceding the crash, matching the simulator's
/// step-indexed clock.
pub fn token_of(n_plus_1: usize, path: &[Choice], picks: &[Vec<u32>]) -> ReplayToken {
    let mut crashes = vec![None; n_plus_1];
    let mut schedule = Vec::new();
    for ch in path {
        match *ch {
            Choice::Step(p) => schedule.push(p),
            Choice::Crash(p) => crashes[p.index()] = Some(Time(schedule.len() as u64)),
        }
    }
    let mut fd_choices = picks.to_vec();
    fd_choices.resize(n_plus_1, Vec::new());
    ReplayToken {
        n_plus_1,
        crashes,
        fd_choices,
        schedule,
    }
}

/// Executes the run a token describes under `engine`, with the
/// configuration's algorithms and menu.
pub fn run_token<D: FdValue>(
    cfg: &CheckConfig<D>,
    token: &ReplayToken,
    engine: EngineKind,
) -> Exec<D> {
    assert_eq!(token.n_plus_1, cfg.n_plus_1, "token/config process count");
    let oracle = MenuOracle::new(
        Arc::clone(&cfg.menu),
        cfg.n_plus_1,
        token.fd_choices.clone(),
    );
    let log = oracle.log();
    let mut builder = SimBuilder::<D>::replay(token)
        .oracle(oracle)
        .engine(engine)
        .record_op_sigs(cfg.use_matrix);
    for (i, a) in (cfg.algos)().into_iter().enumerate() {
        if let Some(a) = a {
            builder = builder.spawn(ProcessId(i), a);
        }
    }
    let outcome = builder.run();
    let queries = log.lock().expect("query log lock").clone();
    Exec {
        run: outcome.run,
        memory: outcome.memory,
        queries,
    }
}

/// A token replayed under one engine, with every spec's verdict.
#[derive(Debug)]
pub struct ReplayOutcome<D: FdValue> {
    /// The re-executed run.
    pub run: Run<D>,
    /// `(spec name, verdict)` for the run-condition validator and every
    /// configured spec, in checking order.
    pub verdicts: Vec<(String, Result<(), String>)>,
}

/// Replays a counterexample token under `engine` and re-checks every spec —
/// the round-trip used by regression tests and bug reports.
pub fn replay_token<D: FdValue>(
    cfg: &CheckConfig<D>,
    token: &ReplayToken,
    engine: EngineKind,
) -> ReplayOutcome<D> {
    let exec = run_token(cfg, token, engine);
    let mut verdicts = vec![(
        "run-conditions".to_string(),
        RunConditionsSpec.check(&exec.run),
    )];
    for spec in &cfg.specs {
        verdicts.push((spec.name().to_string(), spec.check(&exec.run)));
    }
    ReplayOutcome {
        run: exec.run,
        verdicts,
    }
}

fn execute<D: FdValue>(cfg: &CheckConfig<D>, path: &[Choice], picks: &[Vec<u32>]) -> Exec<D> {
    run_token(cfg, &token_of(cfg.n_plus_1, path, picks), cfg.engine)
}

/// First failing spec on a run: the §3.3 run-condition validator first,
/// then the configured specs in order. Returns `(spec name, message)`.
/// Shared by the explorer and by randomized campaign runners
/// (`upsilon-fuzz`) so both report violations identically.
pub fn violation_of<D: FdValue>(cfg: &CheckConfig<D>, run: &Run<D>) -> Option<(String, String)> {
    if let Err(msg) = RunConditionsSpec.check(run) {
        return Some(("run-conditions".to_string(), msg));
    }
    for spec in &cfg.specs {
        if let Err(msg) = spec.check(run) {
            return Some((spec.name().to_string(), msg));
        }
    }
    None
}

/// Reconstructs a choice path from a token — the inverse of [`token_of`]:
/// `Step` choices in schedule order with each crash inserted after the
/// number of steps its time records (simultaneous crashes in ascending
/// process order, matching the canonical-representative rule). Round-trips:
/// `token_of(n, &path_of_token(t), &t.fd_choices) == t` whenever every
/// crash time is at most the schedule length.
pub fn path_of_token(token: &ReplayToken) -> Vec<Choice> {
    let mut crashes: Vec<(u64, ProcessId)> = token
        .crashes
        .iter()
        .enumerate()
        .filter_map(|(i, t)| t.map(|t| (t.0, ProcessId(i))))
        .collect();
    crashes.sort_unstable();
    let mut crashes = crashes.into_iter().peekable();
    let mut path = Vec::with_capacity(token.schedule.len() + token.crashes.len());
    for (steps, &p) in token.schedule.iter().enumerate() {
        while let Some((_, q)) = crashes.next_if(|&(t, _)| t as usize <= steps) {
            path.push(Choice::Crash(q));
        }
        path.push(Choice::Step(p));
    }
    for (_, q) in crashes {
        path.push(Choice::Crash(q));
    }
    path
}

/// Outcome of shrinking one violating token.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ShrinkResult {
    /// The minimized token (still violating `spec`).
    pub token: ReplayToken,
    /// Predicate evaluations the shrink spent.
    pub evals: u64,
    /// Choices removed from the original path.
    pub removed: usize,
}

/// Minimizes a violating token with [`ddmin_counted`] over its choice
/// sequence, preserving failure of the named spec — the same shrink the
/// explorer applies to its counterexamples, exposed for campaign runners
/// that find violations by random search rather than enumeration.
pub fn shrink_violation<D: FdValue>(
    cfg: &CheckConfig<D>,
    token: &ReplayToken,
    spec: &str,
) -> ShrinkResult {
    let path = path_of_token(token);
    let (token, evals, removed) = shrink_path(cfg, &path, &token.fd_choices, spec);
    ShrinkResult {
        token,
        evals,
        removed,
    }
}

/// The shared ddmin driver behind [`shrink_violation`] and the explorer's
/// counterexample minimization.
fn shrink_path<D: FdValue>(
    cfg: &CheckConfig<D>,
    path: &[Choice],
    picks: &[Vec<u32>],
    spec: &str,
) -> (ReplayToken, u64, usize) {
    let out = ddmin_counted(path, |cand| {
        // Crashing everyone is outside the model; such candidates cannot
        // be the minimal counterexample.
        if faults_in(cand) >= cfg.n_plus_1 {
            return false;
        }
        let exec = execute(cfg, cand, picks);
        violation_of(cfg, &exec.run).is_some_and(|(name, _)| name == spec)
    });
    (
        token_of(cfg.n_plus_1, &out.minimal, picks),
        out.evals,
        out.removed,
    )
}

fn crashed_in(path: &[Choice], p: ProcessId) -> bool {
    path.iter()
        .any(|c| matches!(c, Choice::Crash(q) if *q == p))
}

fn faults_in(path: &[Choice]) -> usize {
    path.iter()
        .filter(|c| matches!(c, Choice::Crash(_)))
        .count()
}

/// The canonical-representative rule: `Crash(p)` may extend `path` only
/// right after `Step(p)`, or inside the ascending all-crash initial block.
fn crash_allowed(path: &[Choice], p: ProcessId) -> bool {
    match path.last() {
        Some(Choice::Step(q)) => *q == p,
        Some(Choice::Crash(q)) => {
            q.index() < p.index() && path.iter().all(|c| matches!(c, Choice::Crash(_)))
        }
        None => true,
    }
}

/// Whether a configuration runs its nodes on the snapshot-resume session.
/// The thread engine's state machines live on OS threads and cannot be
/// rewound, so `turbo` silently degrades to stateless re-execution there.
fn turbo_active<D: FdValue>(cfg: &CheckConfig<D>) -> bool {
    cfg.turbo && cfg.engine == EngineKind::Inline
}

/// The snapshot-resume cursor: one live [`Session`] plus a stack of saves,
/// one per node on the current path. Stepping descends in place; a save is
/// taken at every node entered; rewinding is *lazy* — [`TurboCursor::pop`]
/// only marks the session dirty, and the restore (fast-forward replay into
/// fresh futures) happens when the next sibling actually needs the parent
/// state. A leftmost descent therefore never replays at all.
struct TurboCursor<'a, D: FdValue> {
    cfg: &'a CheckConfig<D>,
    session: Session<D>,
    saves: Vec<SessionSave>,
    /// The pick script the live oracle was built with; a pushed step whose
    /// script differs (a detector variant) forces a restore with a fresh
    /// oracle even when the session is otherwise positioned correctly.
    cur_picks: Vec<Vec<u32>>,
    log: Arc<Mutex<Vec<QueryRecord>>>,
    /// Whether the live session has moved past the top save.
    dirty: bool,
}

impl<'a, D: FdValue> TurboCursor<'a, D> {
    fn new(cfg: &'a CheckConfig<D>) -> Self {
        let picks = vec![Vec::new(); cfg.n_plus_1];
        let oracle = MenuOracle::new(Arc::clone(&cfg.menu), cfg.n_plus_1, picks.clone());
        let log = oracle.log();
        // Dedup digests must see op responses (two states that answered the
        // same op differently must hash apart): the digest level records
        // each op's `op -> resp` digest without rendering text. Without
        // dedup the session matches the stateless replay's trace level byte
        // for byte.
        let trace_level = if cfg.reduction == Reduction::Dedup {
            TraceLevel::Digest
        } else {
            TraceLevel::Steps
        };
        let session = Session::new(
            FailurePattern::failure_free(cfg.n_plus_1),
            Arc::clone(&cfg.algos),
            Box::new(oracle),
            trace_level,
            cfg.use_matrix,
        );
        let saves = vec![session.save()];
        TurboCursor {
            cfg,
            session,
            saves,
            cur_picks: picks,
            log,
            dirty: false,
        }
    }

    /// Re-positions the session at the top save if it drifted (or if the
    /// pick script changed, which requires a freshly positioned oracle).
    fn ensure_clean(&mut self, picks: &[Vec<u32>]) {
        if !self.dirty && self.cur_picks == picks {
            return;
        }
        let save = self
            .saves
            .last()
            .expect("cursor always holds the root save");
        let oracle = MenuOracle::with_counts(
            Arc::clone(&self.cfg.menu),
            self.cfg.n_plus_1,
            picks.to_vec(),
            &save.query_counts(),
        );
        self.log = oracle.log();
        self.session.restore(save, Box::new(oracle));
        self.cur_picks = picks.to_vec();
        self.dirty = false;
    }

    fn push_step(&mut self, p: ProcessId, picks: &[Vec<u32>]) -> bool {
        self.ensure_clean(picks);
        match self.session.step(p) {
            SessionStep::Stepped => {
                self.saves.push(self.session.save());
                self.dirty = false;
                true
            }
            SessionStep::NoStep => {
                // The grant consumed no step but marked the process known-
                // finished; the next push's restore erases that.
                self.dirty = true;
                false
            }
        }
    }

    fn push_crash(&mut self, p: ProcessId, picks: &[Vec<u32>]) {
        self.ensure_clean(picks);
        self.session.crash(p);
        self.saves.push(self.session.save());
        self.dirty = false;
    }

    fn pop(&mut self) {
        self.saves.pop();
        self.dirty = true;
    }
}

/// The classic stateless cursor: every pushed node re-executes its whole
/// path from the root through [`SimBuilder`].
struct StatelessCursor<'a, D: FdValue> {
    cfg: &'a CheckConfig<D>,
    path: Vec<Choice>,
    execs: Vec<Exec<D>>,
}

impl<'a, D: FdValue> StatelessCursor<'a, D> {
    fn at_path(cfg: &'a CheckConfig<D>, path: &[Choice], picks: &[Vec<u32>]) -> Self {
        StatelessCursor {
            cfg,
            path: path.to_vec(),
            execs: vec![execute(cfg, path, picks)],
        }
    }

    fn top(&self) -> &Exec<D> {
        self.execs
            .last()
            .expect("cursor always holds the root exec")
    }

    fn push_step(&mut self, p: ProcessId, picks: &[Vec<u32>]) -> bool {
        let before = self.top().run.total_steps();
        self.path.push(Choice::Step(p));
        let child = execute(self.cfg, &self.path, picks);
        if child.run.total_steps() == before {
            // The process finished without taking a step: no new state.
            self.path.pop();
            return false;
        }
        self.execs.push(child);
        true
    }

    fn push_crash(&mut self, p: ProcessId, picks: &[Vec<u32>]) {
        self.path.push(Choice::Crash(p));
        self.execs.push(execute(self.cfg, &self.path, picks));
    }

    fn pop(&mut self) {
        self.path.pop();
        self.execs.pop();
    }
}

/// Either execution strategy behind one node-navigation interface. Every
/// observer method assumes the cursor is *clean* (positioned exactly at the
/// node of the last successful push), which the explorer guarantees by
/// reading a node before descending into its children.
// The turbo variant is big (a full session plus its save stack), but a
// cursor is created once per subtree job, not per node — boxing it would
// buy nothing on the hot path.
#[allow(clippy::large_enum_variant)]
enum Cursor<'a, D: FdValue> {
    Turbo(TurboCursor<'a, D>),
    Stateless(StatelessCursor<'a, D>),
}

impl<'a, D: FdValue> Cursor<'a, D> {
    fn at_path(cfg: &'a CheckConfig<D>, path: &[Choice], picks: &[Vec<u32>]) -> Self {
        if turbo_active(cfg) {
            let mut cursor = TurboCursor::new(cfg);
            for ch in path {
                match *ch {
                    Choice::Step(p) => {
                        let stepped = cursor.push_step(p, picks);
                        debug_assert!(stepped, "frontier paths replay step for step");
                    }
                    Choice::Crash(p) => cursor.push_crash(p, picks),
                }
            }
            Cursor::Turbo(cursor)
        } else {
            Cursor::Stateless(StatelessCursor::at_path(cfg, path, picks))
        }
    }

    fn push_step(&mut self, p: ProcessId, picks: &[Vec<u32>]) -> bool {
        match self {
            Cursor::Turbo(c) => c.push_step(p, picks),
            Cursor::Stateless(c) => c.push_step(p, picks),
        }
    }

    fn push_crash(&mut self, p: ProcessId, picks: &[Vec<u32>]) {
        match self {
            Cursor::Turbo(c) => c.push_crash(p, picks),
            Cursor::Stateless(c) => c.push_crash(p, picks),
        }
    }

    fn pop(&mut self) {
        match self {
            Cursor::Turbo(c) => c.pop(),
            Cursor::Stateless(c) => c.pop(),
        }
    }

    fn run(&self) -> &Run<D> {
        match self {
            Cursor::Turbo(c) => c.session.run(),
            Cursor::Stateless(c) => &c.top().run,
        }
    }

    fn is_turbo(&self) -> bool {
        matches!(self, Cursor::Turbo(_))
    }

    /// Interned footprint of the node's last (just-pushed) step.
    fn last_footprint(&self, fps: &mut Footprints) -> FpId {
        match self {
            Cursor::Turbo(c) => c
                .session
                .with_memory(|m| fps.of_last_step(c.session.run(), m)),
            Cursor::Stateless(c) => {
                let exec = c.top();
                fps.of_last_step(&exec.run, &exec.memory)
            }
        }
    }

    /// The query record of the node's last step, when that step was a
    /// failure-detector query.
    fn last_query(&self) -> Option<QueryRecord> {
        match self {
            Cursor::Turbo(c) => match &c.session.run().events().last()?.kind {
                StepKind::Query(_) => c.log.lock().expect("query log lock").last().copied(),
                _ => None,
            },
            Cursor::Stateless(c) => match &c.top().run.events().last()?.kind {
                StepKind::Query(_) => c.top().queries.last().copied(),
                _ => None,
            },
        }
    }
}

/// Which crash children the canonical-representative rule admits below a
/// node — a property of the path's *shape*, not of the reached state, so it
/// must join the dedup key (`crash_allowed` consults exactly this). The
/// distinguishing pid is mapped through the canonical permutation of an
/// orbit fingerprint, so two nodes that are images of each other under a
/// class-preserving renaming carry equal tags. Sound because
/// position-equal entries of two equal canonical fingerprints have equal
/// (class, digest, extra) triples — the renaming that witnesses the
/// fingerprint match can always be chosen to align the tagged pids.
fn canon_crash_tag(path: &[Choice], canon_of: &[usize]) -> u64 {
    match path.last() {
        None => 1,
        Some(Choice::Step(p)) => 2 + 2 * canon_of[p.index()] as u64,
        Some(Choice::Crash(q)) if path.iter().all(|c| matches!(c, Choice::Crash(_))) => {
            3 + 2 * canon_of[q.index()] as u64
        }
        Some(Choice::Crash(_)) => 0,
    }
}

/// The dedup table: fingerprint → fully explored subtrees, filled
/// post-order. Pruning a revisit is sound only against an entry whose
/// exploration was at least as deep and at least as unrestricted.
///
/// Open addressing with linear probing, keyed by the fingerprint itself
/// (already uniformly hashed, so the slot is its folded low bits). A slot
/// is empty when its head is `NIL`, so every `u64` is a valid key. Each key
/// heads a chain of stored nodes; nodes and their sleep entries live in
/// two flat arenas, so an insert allocates nothing in the steady state.
/// Deterministic: the table is never iterated.
struct VisitedTable {
    /// `(fingerprint, head node)`; `head == NIL` marks an empty slot.
    slots: Vec<(u64, u32)>,
    /// Occupied slots.
    keys: usize,
    nodes: Vec<StoredNode>,
    sleep: SleepSet,
}

/// One fully explored subtree: its remaining depth, its sleep set (a run of
/// the sleep arena) and the next node stored under the same fingerprint.
struct StoredNode {
    remaining: u32,
    sleep_start: u32,
    sleep_len: u32,
    next: u32,
}

const NIL: u32 = u32::MAX;

impl VisitedTable {
    fn new() -> Self {
        VisitedTable {
            slots: vec![(0, NIL); 16],
            keys: 0,
            nodes: Vec::new(),
            sleep: Vec::new(),
        }
    }

    /// The slot holding `key`, or the empty slot where it would go.
    fn slot(&self, key: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = (key ^ (key >> 32)) as usize & mask;
        loop {
            let (k, head) = self.slots[i];
            if head == NIL || k == key {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Whether a stored subtree under `key` covers a node with `remaining`
    /// depth and sleep set `sleep`: explored at least as deep, with a sleep
    /// set that is a subset of this one.
    fn seen(&self, key: u64, remaining: usize, sleep: &[(ProcessId, FpId)]) -> bool {
        let mut n = self.slots[self.slot(key)].1;
        while n != NIL {
            let node = &self.nodes[n as usize];
            let start = node.sleep_start as usize;
            let stored = &self.sleep[start..start + node.sleep_len as usize];
            if node.remaining as usize >= remaining && stored.iter().all(|e| sleep.contains(e)) {
                return true;
            }
            n = node.next;
        }
        false
    }

    /// Stores a fully explored subtree under `key`.
    fn insert(&mut self, key: u64, remaining: usize, sleep: &[(ProcessId, FpId)]) {
        if (self.keys + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let i = self.slot(key);
        let (_, head) = self.slots[i];
        if head == NIL {
            self.keys += 1;
        }
        let index = |n: usize| u32::try_from(n).expect("dedup table indices fit in u32");
        let node = index(self.nodes.len());
        assert!(node != NIL, "dedup table indices fit in u32");
        self.nodes.push(StoredNode {
            remaining: index(remaining),
            sleep_start: index(self.sleep.len()),
            sleep_len: index(sleep.len()),
            next: head,
        });
        self.sleep.extend_from_slice(sleep);
        self.slots[i] = (key, node);
    }

    /// Doubles the slot array; chains stay as they are.
    fn grow(&mut self) {
        let doubled = vec![(0, NIL); self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        for (key, head) in old {
            if head != NIL {
                let i = self.slot(key);
                self.slots[i] = (key, head);
            }
        }
    }
}

/// A deferred subtree handed to the work-stealing pool. The sleep set
/// travels as footprints: ids are private to the explorer that minted them,
/// so the receiving explorer re-interns them.
struct FrontierJob {
    path: Vec<Choice>,
    picks: Vec<Vec<u32>>,
    sleep: Vec<(ProcessId, Footprint)>,
    steps_used: usize,
}

/// First failing spec on one explored node. Runs driven by the session
/// satisfy the §3.3 run conditions by construction (the engine enforces
/// crash and grant semantics), so the validator runs only as a debug
/// assertion there; the stateless path keeps the full check. They never
/// differ on explorer-generated runs — the differential suite pins this.
fn node_violation<D: FdValue>(
    cfg: &CheckConfig<D>,
    run: &Run<D>,
    turbo: bool,
) -> Option<(String, String)> {
    if turbo {
        debug_assert!(
            RunConditionsSpec.check(run).is_ok(),
            "session runs satisfy the run conditions by construction"
        );
        for spec in &cfg.specs {
            if let Err(msg) = spec.check(run) {
                return Some((spec.name().to_string(), msg));
            }
        }
        None
    } else {
        violation_of(cfg, run)
    }
}

struct Explorer<'a, D: FdValue, F: FnMut(FrontierJob)> {
    cfg: &'a CheckConfig<D>,
    participants: &'a [bool],
    stats: CheckStats,
    violations: Vec<CounterExample>,
    path: Vec<Choice>,
    cursor: Cursor<'a, D>,
    /// Fingerprint → fully-explored subtrees, populated post-order (a node
    /// enters only after its subtree completed un-truncated and violation-
    /// free, so every prune skips provably clean ground).
    visited: Option<VisitedTable>,
    fps: Footprints,
    frontier: Option<F>,
    /// The orbit class of every process (identity classes under a trivial
    /// orbit).
    class_of: Vec<u32>,
}

impl<'a, D: FdValue, F: FnMut(FrontierJob)> Explorer<'a, D, F> {
    fn at(
        cfg: &'a CheckConfig<D>,
        participants: &'a [bool],
        path: &[Choice],
        picks: &[Vec<u32>],
        frontier: Option<F>,
    ) -> Self {
        Explorer {
            cfg,
            participants,
            stats: CheckStats::default(),
            violations: Vec::new(),
            path: path.to_vec(),
            cursor: Cursor::at_path(cfg, path, picks),
            visited: (cfg.reduction == Reduction::Dedup && turbo_active(cfg))
                .then(VisitedTable::new),
            fps: Footprints::new(),
            frontier,
            class_of: cfg.orbit.class_of(cfg.n_plus_1),
        }
    }

    fn over_budget(&self) -> bool {
        self.stats.nodes >= self.cfg.max_nodes || self.violations.len() >= self.cfg.max_violations
    }

    /// The dedup key: the orbit-canonical state fingerprint joined with
    /// everything *else* that steers the subtree — the unserved pick
    /// suffixes (served picks are already baked into the state), the spent
    /// fault budget, the crash times (specs may read them) and the
    /// path-shape crash tag.
    ///
    /// The key is computed up to within-class process renaming: the
    /// per-process extras (pick suffix plus crash time) ride inside the
    /// orbit-canonical fingerprint, the crash tag's pid is mapped through
    /// the canonicalizing permutation, and that permutation is returned so
    /// [`Explorer::visit`] can canonicalize the sleep set the same way.
    /// Under a trivial orbit the classes are the pids, so the permutation
    /// is the identity and the key is the pid-order one.
    fn dedup_key(&self, picks: &[Vec<u32>]) -> (u64, Vec<usize>) {
        let Cursor::Turbo(cursor) = &self.cursor else {
            unreachable!("the visited table exists only under the turbo cursor");
        };
        let session = &cursor.session;
        let run = session.run();
        let qcounts = session.query_counts();
        let extra: Vec<u64> = (0..self.cfg.n_plus_1)
            .map(|i| {
                // An explicit 0 and a missing entry play the same
                // candidate: strip trailing zeros so the two key
                // identically.
                let suffix = picks
                    .get(i)
                    .map(|v| v.get(qcounts[i] as usize..).unwrap_or(&[]))
                    .unwrap_or(&[]);
                let suffix = match suffix.iter().rposition(|&x| x != 0) {
                    Some(last) => &suffix[..=last],
                    None => &[],
                };
                let mut e = FnvWrite::new();
                e.write_u64(0x51);
                for &x in suffix {
                    e.write_u64(u64::from(x) + 1);
                }
                e.write_u64(match run.crash_observed(ProcessId(i)) {
                    Some(t) => t.0 + 1,
                    None => 0,
                });
                e.finish()
            })
            .collect();
        let ofp = session.orbit_fingerprint(&self.class_of, &extra);
        let mut h = FnvWrite::new();
        h.write_u64(ofp.fingerprint);
        h.write_u64(faults_in(&self.path) as u64);
        h.write_u64(canon_crash_tag(&self.path, &ofp.canon_of));
        (h.finish(), ofp.canon_of)
    }

    /// Executes specs on the node the cursor sits at; on violation, records
    /// a (shrunk) counterexample and prunes the subtree.
    fn visit(&mut self, picks: &[Vec<u32>], mut sleep: SleepSet, steps_used: usize) {
        self.stats.nodes += 1;
        if let Some((spec, message)) =
            node_violation(self.cfg, self.cursor.run(), self.cursor.is_turbo())
        {
            self.record(picks, spec, message);
            return;
        }
        if self.over_budget() {
            self.stats.truncated = true;
            return;
        }
        if steps_used >= self.cfg.depth {
            self.stats.depth_leaves += 1;
            return;
        }
        if self.frontier.is_some() && self.path.len() >= self.cfg.split_depth {
            let job = FrontierJob {
                path: self.path.clone(),
                picks: picks.to_vec(),
                sleep: sleep
                    .iter()
                    .map(|&(q, f)| (q, self.fps.get(f).clone()))
                    .collect(),
                steps_used,
            };
            if let Some(spawn) = self.frontier.as_mut() {
                spawn(job);
            }
            return;
        }
        let remaining = self.cfg.depth - steps_used;
        let dedup_key = match &self.visited {
            Some(visited) => {
                let (key, canon_of) = self.dedup_key(picks);
                // Sleep entries are compared (and stored) with their pids
                // mapped through the canonical permutation, so symmetric
                // nodes agree on the comparison as well as the key.
                let canon_sleep: SleepSet = sleep
                    .iter()
                    .map(|&(q, f)| (ProcessId(canon_of[q.index()]), f))
                    .collect();
                if visited.seen(key, remaining, &canon_sleep) {
                    self.stats.dedup_pruned += 1;
                    return;
                }
                Some((key, canon_sleep))
            }
            None => None,
        };
        let violations_before = self.violations.len();
        self.expand(picks, &mut sleep, steps_used);
        if let Some((key, canon_sleep)) = dedup_key {
            if !self.stats.truncated && self.violations.len() == violations_before {
                self.visited
                    .as_mut()
                    .expect("a dedup key implies a visited table")
                    .insert(key, remaining, &canon_sleep);
            }
        }
    }

    /// Generates and explores the children of the node the cursor sits at:
    /// canonical crash injections first, then step extensions under the
    /// sleep set, with failure-detector variants as siblings of query steps.
    /// On return the cursor is back at the entry node (possibly dirty).
    /// Explored children are only ever appended to `sleep`, so its entries
    /// on entry stay its prefix.
    fn expand(&mut self, picks: &[Vec<u32>], sleep: &mut SleepSet, steps_used: usize) {
        // The parent's run view is read now, while the cursor is clean; it
        // is not revisited once children start moving the session.
        let finished: Vec<bool> = {
            let run = self.cursor.run();
            (0..self.cfg.n_plus_1)
                .map(|i| run.finished(ProcessId(i)))
                .collect()
        };

        if faults_in(&self.path) < self.cfg.max_faults {
            // Symmetry reduction: when several crash candidates are admitted
            // at this node, processes of one orbit class are interchangeable
            // — nobody has stepped yet wherever multiple candidates exist
            // (the canonical-representative rule admits more than one crash
            // only at the empty path or after an all-crash prefix), so
            // crashing any of them yields π-isomorphic subtrees. Keep one
            // representative per class (every process, under the trivial
            // orbit's identity classes).
            let mut crash_classes_seen: Vec<u32> = Vec::new();
            for i in 0..self.cfg.n_plus_1 {
                let p = ProcessId(i);
                if crashed_in(&self.path, p) || !crash_allowed(&self.path, p) {
                    continue;
                }
                let class = self.class_of[i];
                if crash_classes_seen.contains(&class) {
                    self.stats.symmetry_pruned += 1;
                    continue;
                }
                crash_classes_seen.push(class);
                if self.over_budget() {
                    self.stats.truncated = true;
                    return;
                }
                self.path.push(Choice::Crash(p));
                self.cursor.push_crash(p, picks);
                self.stats.crash_nodes += 1;
                self.visit(picks, sleep.clone(), steps_used);
                self.cursor.pop();
                self.path.pop();
            }
        }

        for i in 0..self.cfg.n_plus_1 {
            let p = ProcessId(i);
            if !self.participants[i] || crashed_in(&self.path, p) || finished[i] {
                continue;
            }
            if self.cfg.reduction >= Reduction::Sleep && sleep.iter().any(|(q, _)| *q == p) {
                self.stats.sleep_pruned += 1;
                continue;
            }
            if self.over_budget() {
                self.stats.truncated = true;
                return;
            }
            self.path.push(Choice::Step(p));
            if !self.cursor.push_step(p, picks) {
                self.stats.no_step_children += 1;
                self.path.pop();
                continue;
            }
            let fp = self.cursor.last_footprint(&mut self.fps);
            let query = self.cursor.last_query();
            let child_sleep: SleepSet = sleep
                .iter()
                .copied()
                .filter(|&(_, f)| !self.fps.conflicts(f, fp))
                .collect();
            self.visit(picks, child_sleep.clone(), steps_used + 1);

            // Sibling branches for the unexplored detector candidates.
            if let Some(rec) = query {
                debug_assert_eq!(rec.pid, p);
                // A menu may offer the same candidate value more than once
                // (e.g. `{p} ∪ Π` when `p ∈ Π`); equal values produce
                // value-identical runs, so explore the first occurrence
                // only. The menu contract (deterministic,
                // schedule-independent) makes this re-fetch safe.
                let cands = self.cfg.menu.candidates(p, rec.k as usize);
                for j in 1..rec.candidates {
                    let ju = j as usize;
                    if ju < cands.len() && cands[..ju].contains(&cands[ju]) {
                        self.stats.symmetry_pruned += 1;
                        continue;
                    }
                    let mut vpicks = picks.to_vec();
                    vpicks[i].resize(rec.k as usize, 0);
                    vpicks[i].push(j);
                    if self.over_budget() {
                        self.stats.truncated = true;
                        self.cursor.pop();
                        self.path.pop();
                        return;
                    }
                    self.cursor.pop();
                    let stepped = self.cursor.push_step(p, &vpicks);
                    debug_assert!(stepped, "a query step steps under every candidate");
                    self.stats.fd_variant_nodes += 1;
                    self.visit(&vpicks, child_sleep.clone(), steps_used + 1);
                }
            }
            self.cursor.pop();
            self.path.pop();
            if self.cfg.reduction >= Reduction::Sleep {
                sleep.push((p, fp));
            }
        }
    }

    fn record(&mut self, picks: &[Vec<u32>], spec: String, message: String) {
        let raw_token = token_of(self.cfg.n_plus_1, &self.path, picks);
        let (token, shrink_evals, shrink_removed) = if self.cfg.shrink {
            shrink_path(self.cfg, &self.path, picks, &spec)
        } else {
            (raw_token.clone(), 0, 0)
        };
        self.violations.push(CounterExample {
            spec,
            message,
            token,
            raw_token,
            shrink_evals,
            shrink_removed,
        });
    }
}

/// Runs the exploration a [`CheckConfig`] describes and reports every
/// counterexample found. Deterministic: the same configuration yields the
/// same report at any worker count — frontier subtrees run on a
/// work-stealing pool ([`run_stealing`]) and merge by spawn-sequence
/// coordinate, which reproduces the serial discovery order byte for byte.
pub fn check<D: FdValue>(cfg: &CheckConfig<D>) -> CheckReport {
    let participants: Vec<bool> = (cfg.algos)().iter().map(Option::is_some).collect();
    assert_eq!(
        participants.len(),
        cfg.n_plus_1,
        "algo factory must cover every process"
    );
    assert!(
        cfg.max_faults < cfg.n_plus_1,
        "at least one process must stay correct"
    );
    let root_picks: Vec<Vec<u32>> = vec![Vec::new(); cfg.n_plus_1];

    if cfg.split_depth == 0 {
        let mut explorer = Explorer::at(
            cfg,
            &participants,
            &[],
            &root_picks,
            None::<fn(FrontierJob)>,
        );
        explorer.visit(&root_picks, Vec::new(), 0);
        let Explorer {
            stats, violations, ..
        } = explorer;
        return CheckReport {
            stats,
            violations,
            frontier_jobs: 0,
        };
    }

    // Streaming frontier: the serial prefix walk runs as the pool's first
    // job and spawns every deferred subtree the moment it is discovered, so
    // workers descend into subtrees while the prefix is still being carved.
    type JobResult = (CheckStats, Vec<CounterExample>, usize);
    let participants_ref: &[bool] = &participants;
    let root: StealJob<'_, JobResult> = StealJob {
        coord: vec![0],
        run: Box::new(move |scope: &mut StealScope<'_, '_, JobResult>| {
            let mut seq: u32 = 0;
            let mut spawn = |job: FrontierJob| {
                seq += 1;
                scope(StealJob {
                    coord: vec![seq],
                    run: Box::new(move |_: &mut StealScope<'_, '_, JobResult>| {
                        let mut sub = Explorer::at(
                            cfg,
                            participants_ref,
                            &job.path,
                            &job.picks,
                            None::<fn(FrontierJob)>,
                        );
                        let mut sleep: SleepSet = job
                            .sleep
                            .iter()
                            .map(|(q, f)| (*q, sub.fps.intern(f)))
                            .collect();
                        sub.expand(&job.picks, &mut sleep, job.steps_used);
                        (sub.stats, sub.violations, 0)
                    }),
                });
            };
            let root_picks: Vec<Vec<u32>> = vec![Vec::new(); cfg.n_plus_1];
            let mut explorer =
                Explorer::at(cfg, participants_ref, &[], &root_picks, Some(&mut spawn));
            explorer.visit(&root_picks, Vec::new(), 0);
            let Explorer {
                stats, violations, ..
            } = explorer;
            (stats, violations, seq as usize)
        }),
    };
    let results = run_stealing(vec![root], cfg.workers);

    let mut stats = CheckStats::default();
    let mut violations = Vec::new();
    let mut frontier_jobs = 0;
    for (s, v, jobs) in results {
        stats.absorb(s);
        violations.extend(v);
        frontier_jobs += jobs;
    }
    if violations.len() > cfg.max_violations {
        violations.truncate(cfg.max_violations);
        stats.truncated = true;
    }
    CheckReport {
        stats,
        violations,
        frontier_jobs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P0: ProcessId = ProcessId(0);
    const P1: ProcessId = ProcessId(1);

    fn reg_write(type_name: &'static str, v: u64) -> OpSig {
        OpSig::new(type_name, format!("Write({v})"))
    }

    #[test]
    fn table_keeps_keys_apart_that_collide_in_the_low_bits() {
        // Every key has zero low 48 bits, so all of them probe from one
        // slot; each must still find exactly its own chain.
        let mut table = VisitedTable::new();
        let keys: Vec<u64> = (1..=8u64).map(|i| i << 48).collect();
        for (depth, &key) in keys.iter().enumerate() {
            table.insert(key, depth, &[]);
        }
        for (depth, &key) in keys.iter().enumerate() {
            assert!(table.seen(key, depth, &[]), "key {key:#x}");
            assert!(
                !table.seen(key, depth + 1, &[]),
                "a deeper node stored under another key leaked into {key:#x}"
            );
        }
        assert!(!table.seen(9 << 48, 0, &[]));
    }

    #[test]
    fn table_accepts_the_empty_slot_sentinel_key() {
        // Empty slots hold key 0 with a NIL head: a real fingerprint of 0
        // (or of all ones) must be neither phantom-found nor lost.
        let mut table = VisitedTable::new();
        assert!(!table.seen(0, 0, &[]));
        table.insert(0, 1, &[]);
        assert!(table.seen(0, 1, &[]));
        assert!(!table.seen(u64::MAX, 0, &[]));
        table.insert(u64::MAX, 2, &[]);
        assert!(table.seen(u64::MAX, 2, &[]));
        assert!(table.seen(0, 1, &[]));
        assert!(!table.seen(0, 2, &[]));
    }

    #[test]
    fn table_grows_past_its_load_factor_with_chains_intact() {
        let mut table = VisitedTable::new();
        let key = |i: u64| i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let n = 1000u64;
        for i in 0..n {
            // Two nodes per key: a shallow unrestricted one and a deep one
            // with a non-empty sleep set.
            table.insert(key(i), 1, &[]);
            table.insert(key(i), 5, &[(P0, FpId(i as u32 + 1))]);
        }
        assert_eq!(table.keys, n as usize);
        assert!(table.keys * 4 <= table.slots.len() * 3, "the table grew");
        for i in 0..n {
            let own = [(P0, FpId(i as u32 + 1))];
            assert!(table.seen(key(i), 1, &[]));
            assert!(table.seen(key(i), 5, &own), "deep node of key {i} lost");
            assert!(
                !table.seen(key(i), 5, &[]),
                "deep node of key {i} lost its sleep set"
            );
        }
    }

    #[test]
    fn seen_honours_remaining_depth_and_the_sleep_subset_rule() {
        let mut table = VisitedTable::new();
        let (a, b) = (FpId(1), FpId(2));
        table.insert(7, 3, &[(P0, a)]);
        assert!(table.seen(7, 3, &[(P0, a)]));
        assert!(
            table.seen(7, 2, &[(P1, b), (P0, a)]),
            "a looser stored node covers"
        );
        assert!(
            !table.seen(7, 4, &[(P0, a)]),
            "a shallower stored node does not"
        );
        assert!(
            !table.seen(7, 3, &[]),
            "the stored sleep set must be a subset"
        );
        assert!(
            !table.seen(7, 3, &[(P1, a)]),
            "sleep entries match by pid too"
        );
        assert!(!table.seen(7, 3, &[(P0, b)]), "and by footprint");
    }

    #[test]
    fn footprint_ids_follow_resolved_footprints() {
        let mut fps = Footprints::new();
        let r = Key::new("R");
        let w3 = fps.of_op(
            &r,
            Access::Write(0),
            Some(&reg_write("m::RegisterObject<u64>", 3)),
        );
        // Another instantiation renders the same op: it resolves alike.
        let w3_again = fps.of_op(
            &r,
            Access::Write(0),
            Some(&reg_write("m::RegisterObject<u8>", 3)),
        );
        assert_eq!(w3, w3_again);
        let w4 = fps.of_op(
            &r,
            Access::Write(0),
            Some(&reg_write("m::RegisterObject<u64>", 4)),
        );
        assert_ne!(w3, w4);
        // Unresolvable signatures fall back to the lattice alone, and their
        // footprints compare equal, so they share an id.
        let poke = |v| OpSig::new("m::Mystery", format!("Poke({v})"));
        let p1 = fps.of_op(&r, Access::Update, Some(&poke(1)));
        assert_eq!(p1, fps.of_op(&r, Access::Update, Some(&poke(2))));
        assert_eq!(p1, fps.of_op(&r, Access::Update, None));
        // The memoized relation is the footprint relation.
        assert!(!fps.conflicts(w3, w3), "equal register writes commute");
        assert!(fps.conflicts(w3, w4));
        assert!(fps.conflicts(w4, p1));
        assert!(!fps.conflicts(FpId::LOCAL, p1));
        let other = fps.of_op(&Key::new("S"), Access::Update, None);
        assert!(!fps.conflicts(p1, other), "distinct keys never conflict");
    }

    #[test]
    fn frontier_sleep_sets_round_trip_through_the_interner() {
        let mut spawner = Footprints::new();
        let r = Key::new("R").at(1);
        let ids = [
            spawner.of_op(&r, Access::Read, None),
            spawner.of_op(
                &r,
                Access::Write(0),
                Some(&reg_write("m::RegisterObject<u64>", 3)),
            ),
            FpId::LOCAL,
            spawner.of_op(&Key::new("C"), Access::Update, None),
        ];
        let sleep: SleepSet = ids
            .iter()
            .enumerate()
            .map(|(i, &f)| (ProcessId(i), f))
            .collect();
        // Spawn: ids out, footprints across the boundary.
        let job: Vec<(ProcessId, Footprint)> = sleep
            .iter()
            .map(|&(q, f)| (q, spawner.get(f).clone()))
            .collect();
        // Receive: a receiver that already numbered other footprints.
        let mut receiver = Footprints::new();
        receiver.of_op(&Key::new("Z"), Access::Read, None);
        let received: SleepSet = job.iter().map(|(q, f)| (*q, receiver.intern(f))).collect();
        for ((q, f), (q2, g)) in sleep.iter().zip(&received) {
            assert_eq!(q, q2);
            assert_eq!(
                spawner.get(*f),
                receiver.get(*g),
                "footprint survives the trip"
            );
        }
        let mut distinct: Vec<u32> = received.iter().map(|(_, g)| g.0).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(
            distinct.len(),
            received.len(),
            "ids stay unique in the receiver"
        );
        // A later step with the same footprint maps to the received id.
        assert_eq!(receiver.of_op(&r, Access::Read, None), received[0].1);
        assert_eq!(receiver.intern(&job[1].1), received[1].1);
    }
}
