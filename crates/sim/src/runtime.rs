//! The per-process execution context and its two execution modes.
//!
//! Algorithms are written as ordinary sequential code over a [`Ctx`], made
//! resumable by the compiler: every `Ctx` operation returns a step future
//! that completes exactly when the scheduler grants the process its next
//! atomic step. The same algorithm state machine can therefore be driven two
//! ways (see [`EngineKind`](crate::EngineKind)):
//!
//! * **Thread lockstep** — the historical engine: each process polls its
//!   future to completion on a dedicated OS thread, and every step future
//!   blocks inside `poll` on a grant channel. Futures never observe
//!   `Pending`; suspension is physical (a blocked thread).
//! * **Inline** — the fast engine: the whole run executes on one thread.
//!   A step future that finds no grant pending returns `Poll::Pending`,
//!   suspending the algorithm *as data*; the scheduler resumes it with one
//!   `poll` per granted step. No channels, locks or context switches.
//!
//! Either way, at most one grant is outstanding at any moment, so shared
//! state is accessed by at most one process at a time — each step is atomic
//! as §3.3 requires — and the whole run is deterministic given the
//! adversary's choices.

use crate::error::Crashed;
use crate::object::{Key, Memory, ObjectType};
use crate::opsig::OpSig;
use crate::oracle::{FdValue, Oracle};
use crate::process::ProcessId;
use crate::time::Time;
use crate::trace::{DetailSink, Output, StepKind, TraceLevel};
use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::task::{Context, Poll};

/// Message from the scheduler to a process: take a step, or stop forever.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Grant {
    /// Permission to take exactly one step at the given time.
    Step(Time),
    /// The process is crashed (or the run is over); unwind.
    Stop,
}

/// Message from a process back to the scheduler (thread engine only; the
/// inline engine reads the step out of the process cell directly).
#[derive(Debug)]
pub(crate) enum Reply<D> {
    /// The granted step was taken; here is what it did.
    Step(StepKind<D>),
    /// The algorithm has returned; the grant was not used.
    Finished,
}

/// The shared world: memory, oracle and trace configuration.
pub(crate) struct World<D: FdValue> {
    pub(crate) memory: Memory,
    pub(crate) oracle: Box<dyn Oracle<D>>,
    pub(crate) trace_level: TraceLevel,
    pub(crate) record_sigs: bool,
}

/// A type-erased clone of one step's result value, recorded so a suspended
/// state machine can later be rebuilt by replaying its completed steps
/// (see [`Session`](crate::Session)): the replayed step returns the recorded
/// value directly instead of re-running its closure against the world.
pub(crate) trait AnyReply: Send {
    fn clone_box(&self) -> Box<dyn AnyReply>;
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any>;
}

impl<T: Clone + Send + 'static> AnyReply for T {
    fn clone_box(&self) -> Box<dyn AnyReply> {
        Box::new(self.clone())
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

/// Per-process mailbox of the inline engine: the scheduler deposits a grant,
/// the step future consumes it, performs its operation and deposits the
/// step report back.
///
/// The three extra slots drive session recording and fast-forward replay:
/// with `record` set, each completed step leaves a clone of its result in
/// `recorded` for the session to harvest; a value deposited in `replay`
/// makes the *next* step consume it as its result without touching the
/// world (and without depositing a step report — the caller already knows
/// what the step did).
pub(crate) struct ProcCell<D: FdValue> {
    pub(crate) grant: Cell<Option<Grant>>,
    pub(crate) reply: RefCell<Option<StepKind<D>>>,
    pub(crate) record: Cell<bool>,
    pub(crate) recorded: Cell<Option<Box<dyn AnyReply>>>,
    pub(crate) replay: Cell<Option<Box<dyn AnyReply>>>,
}

impl<D: FdValue> ProcCell<D> {
    pub(crate) fn new() -> Self {
        ProcCell {
            grant: Cell::new(None),
            reply: RefCell::new(None),
            record: Cell::new(false),
            recorded: Cell::new(None),
            replay: Cell::new(None),
        }
    }
}

/// How the context reaches the scheduler and the shared world.
enum Mode<D: FdValue> {
    /// Thread-lockstep engine: block on channels, lock the world.
    Thread {
        grant_rx: Rc<Receiver<Grant>>,
        reply_tx: Sender<(ProcessId, Reply<D>)>,
        world: Arc<Mutex<World<D>>>,
    },
    /// Inline engine: everything lives on the scheduler's own thread.
    Inline {
        cell: Rc<ProcCell<D>>,
        world: Rc<RefCell<World<D>>>,
    },
}

/// The per-process execution context handed to algorithm code.
///
/// All methods that take a step return a future that resolves to
/// `Err(`[`Crashed`]`)` once the process has crashed according to the
/// failure pattern (or the run is shutting down); algorithms propagate it
/// with `?`, which models crash-stop cleanly.
///
/// # Deadlock hazard: external locks across steps
///
/// Test harnesses often share an `Arc<Mutex<…>>` between process closures
/// to collect results. Never hold such a lock across an `.await`: under the
/// thread engine every `Ctx` method blocks until the scheduler grants a
/// step, and the scheduler in turn waits for whichever process it *last*
/// granted — if that process is blocked on your mutex, the run deadlocks.
/// In particular beware receiver-first evaluation order:
/// `shared.lock().unwrap().push(ctx_op().await?)` acquires the lock
/// *before* running `ctx_op`. Bind the step result to a local first, then
/// lock.
pub struct Ctx<D: FdValue> {
    pid: ProcessId,
    n_plus_1: usize,
    now: Cell<Time>,
    mode: Mode<D>,
}

impl<D: FdValue> std::fmt::Debug for Ctx<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("pid", &self.pid)
            .field("now", &self.now.get())
            .finish_non_exhaustive()
    }
}

impl<D: FdValue> Ctx<D> {
    pub(crate) fn thread(
        pid: ProcessId,
        n_plus_1: usize,
        grant_rx: Rc<Receiver<Grant>>,
        reply_tx: Sender<(ProcessId, Reply<D>)>,
        world: Arc<Mutex<World<D>>>,
    ) -> Self {
        Ctx {
            pid,
            n_plus_1,
            now: Cell::new(Time::ZERO),
            mode: Mode::Thread {
                grant_rx,
                reply_tx,
                world,
            },
        }
    }

    pub(crate) fn inline(
        pid: ProcessId,
        n_plus_1: usize,
        cell: Rc<ProcCell<D>>,
        world: Rc<RefCell<World<D>>>,
    ) -> Self {
        Ctx {
            pid,
            n_plus_1,
            now: Cell::new(Time::ZERO),
            mode: Mode::Inline { cell, world },
        }
    }

    /// This process's identifier.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// The system size `n + 1`.
    pub fn n_plus_1(&self) -> usize {
        self.n_plus_1
    }

    /// `n`, the maximum number of failures in the wait-free case.
    pub fn n(&self) -> usize {
        self.n_plus_1 - 1
    }

    /// The time of the most recently granted step.
    ///
    /// Algorithms may read this between steps; it does not take a step.
    pub fn now(&self) -> Time {
        self.now.get()
    }

    /// Core step primitive: a [`Step`] future that waits for a grant, runs
    /// `f` atomically against the shared world, reports the step and
    /// resolves to `f`'s result.
    fn step<R, F>(&self, f: F) -> Step<'_, D, F>
    where
        R: Clone + Send + 'static,
        F: FnOnce(&mut World<D>, ProcessId, Time) -> (StepKind<D>, R),
    {
        Step {
            ctx: self,
            f: Some(f),
        }
    }

    /// Applies `op` to the shared object of type `O` named `key`, creating
    /// it with `init` on first touch. One atomic step.
    ///
    /// # Errors
    ///
    /// Returns [`Crashed`] if this process crashed or the run ended.
    pub fn invoke<'a, O: ObjectType>(
        &'a self,
        key: &'a Key,
        init: impl FnOnce() -> O + 'a,
        op: O::Op,
    ) -> impl Future<Output = Result<O::Resp, Crashed>> + 'a {
        self.step(move |world, pid, _t| {
            let id = world.memory.resolve::<O>(key, init);
            let access = O::access(&op);
            let sig = world
                .record_sigs
                .then(|| OpSig::new(std::any::type_name::<O>(), format!("{op:?}")));
            // The op half of the detail is rendered before `invoke` consumes
            // the op — reusing the signature's rendering when there is one.
            let mut detail = DetailSink::for_level(world.trace_level);
            if let Some(sink) = &mut detail {
                let _ = match &sig {
                    Some(sig) => sink.write_str(&sig.op),
                    None => write!(sink, "{op:?}"),
                };
            }
            let resp = world.memory.invoke::<O>(id, pid, op);
            let detail = detail.map(|mut sink| {
                let _ = write!(sink, " -> {resp:?}");
                sink.finish()
            });
            (
                StepKind::Op {
                    object: id,
                    access,
                    sig,
                    detail,
                },
                resp,
            )
        })
    }

    /// Queries this process's failure-detector module: returns `H(p, t)` for
    /// the current step's time `t`. One atomic step (a *query step*, §3.3).
    ///
    /// # Errors
    ///
    /// Returns [`Crashed`] if this process crashed or the run ended.
    pub fn query_fd(&self) -> impl Future<Output = Result<D, Crashed>> + '_ {
        self.step(|world, pid, t| {
            let v = world.oracle.output(pid, t);
            (StepKind::Query(v.clone()), v)
        })
    }

    /// Produces an application output (§3.3 item iii). One atomic step.
    ///
    /// Reduction algorithms use this to publish the current value of the
    /// emulated failure-detector variable (`D-output` of §3.5); agreement
    /// algorithms use it to decide.
    ///
    /// # Errors
    ///
    /// Returns [`Crashed`] if this process crashed or the run ended.
    pub fn output(&self, out: Output) -> impl Future<Output = Result<(), Crashed>> + '_ {
        self.step(move |_world, _pid, _t| (StepKind::Output(out), ()))
    }

    /// Decides `v` — sugar for `output(Output::Decide(v))`.
    ///
    /// # Errors
    ///
    /// Returns [`Crashed`] if this process crashed or the run ended.
    pub fn decide(&self, v: u64) -> impl Future<Output = Result<(), Crashed>> + '_ {
        self.output(Output::Decide(v))
    }

    /// Takes a step that touches nothing shared. Used to model idle spinning
    /// and to keep custom adversary constructions honest about step counts.
    ///
    /// # Errors
    ///
    /// Returns [`Crashed`] if this process crashed or the run ended.
    pub fn yield_step(&self) -> impl Future<Output = Result<(), Crashed>> + '_ {
        self.step(|_world, _pid, _t| (StepKind::NoOp, ()))
    }
}

/// The future of one `Ctx` step: the context it steps on and the closure
/// the step runs, and nothing else. This is the whole suspended state of a
/// process parked at a step, so an algorithm's own state machine grows by
/// exactly this much per nested step, not by a compiler-generated `async`
/// frame around it.
///
/// Under the thread engine `poll` blocks on the grant channel (the future
/// never yields `Pending`); under the inline engine the wait *is*
/// `Pending`, and the scheduler's next `poll` of this process delivers the
/// grant through its [`ProcCell`].
struct Step<'a, D: FdValue, F> {
    ctx: &'a Ctx<D>,
    /// Taken out by value when the step runs (or is replayed); `None`
    /// once the future has resolved.
    f: Option<F>,
}

// The closure is moved out of the option by value and never pinned, so the
// future is movable whatever `F` is.
impl<D: FdValue, F> Unpin for Step<'_, D, F> {}

impl<D, R, F> Future for Step<'_, D, F>
where
    D: FdValue,
    R: Clone + Send + 'static,
    F: FnOnce(&mut World<D>, ProcessId, Time) -> (StepKind<D>, R),
{
    type Output = Result<R, Crashed>;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let ctx = this.ctx;
        match &ctx.mode {
            Mode::Thread {
                grant_rx,
                reply_tx,
                world,
            } => {
                let f = this.f.take().expect("step future polled after completion");
                Poll::Ready(match grant_rx.recv() {
                    Ok(Grant::Step(t)) => {
                        ctx.now.set(t);
                        let (kind, out) = {
                            let mut world = world.lock().unwrap_or_else(PoisonError::into_inner);
                            f(&mut world, ctx.pid, t)
                        };
                        // The scheduler always outlives granted steps; if it
                        // dropped the channel the run is over and we unwind
                        // like a crash.
                        match reply_tx.send((ctx.pid, Reply::Step(kind))) {
                            Ok(()) => Ok(out),
                            Err(_) => Err(Crashed),
                        }
                    }
                    Ok(Grant::Stop) | Err(_) => Err(Crashed),
                })
            }
            Mode::Inline { cell, world } => {
                let t = match cell.grant.take() {
                    Some(Grant::Step(t)) => t,
                    Some(Grant::Stop) => {
                        this.f = None;
                        return Poll::Ready(Err(Crashed));
                    }
                    None => return Poll::Pending,
                };
                let f = this.f.take().expect("step future polled after completion");
                ctx.now.set(t);
                if let Some(prev) = cell.replay.take() {
                    // Fast-forward replay: this step already happened in the
                    // run being restored. Return its recorded result without
                    // running `f` (no world mutation, no step report).
                    let out = prev
                        .into_any()
                        .downcast::<R>()
                        .expect("replayed step result has the recorded type");
                    return Poll::Ready(Ok(*out));
                }
                let (kind, out) = f(&mut world.borrow_mut(), ctx.pid, t);
                if cell.record.get() {
                    cell.recorded.set(Some(Box::new(out.clone())));
                }
                *cell.reply.borrow_mut() = Some(kind);
                Poll::Ready(Ok(out))
            }
        }
    }
}

/// How a process's algorithm ended.
pub(crate) enum ProcOutcome {
    /// The algorithm returned `Ok` — the process finished its protocol.
    FinishedOk,
    /// The algorithm observed its crash and unwound with `Err(Crashed)`.
    Crashed,
    /// The algorithm panicked; the payload is re-raised by the runner.
    Panicked(Box<dyn std::any::Any + Send>),
}
