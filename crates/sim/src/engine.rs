//! The two execution engines behind [`SimBuilder`](crate::SimBuilder).
//!
//! The scheduler loop (in `builder.rs`) is written once, against the
//! [`Engine`] trait; an engine's only job is to deliver grants to algorithm
//! state machines and report back the step each grant produced. Because
//! every scheduling decision, trace record and stop condition lives in the
//! shared loop, the two engines produce bit-identical [`Run`](crate::Run)s
//! by construction: they can only differ if an algorithm's reply sequence
//! differs, and algorithms are deterministic functions of their grant
//! sequence.
//!
//! * [`ThreadEngine`] — one OS thread per process; grants and replies travel
//!   over `std::sync::mpsc` channels and the world lives under a mutex.
//!   Every step costs two channel handoffs and a context switch.
//! * [`InlineEngine`] — the whole run on the scheduler's own thread; each
//!   process is a suspended future that gets exactly one `poll` per granted
//!   step. No channels, no locks, no spawns.

use crate::builder::AlgoFn;
use crate::error::Crashed;
use crate::oracle::FdValue;
use crate::process::ProcessId;
use crate::runtime::{AnyReply, Ctx, Grant, ProcCell, ProcOutcome, Reply, World};
use crate::time::Time;
use crate::trace::StepKind;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::task::{Context, Poll, Waker};
use std::thread;

/// Selects how [`SimBuilder::run`](crate::SimBuilder::run) executes the run.
///
/// Both engines produce bit-identical traces; see the module docs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EngineKind {
    /// Single-threaded resumable step engine (the default): drives each
    /// algorithm as a suspended future, one `poll` per granted step.
    #[default]
    Inline,
    /// The historical thread-per-process lockstep engine: algorithms block
    /// on grant channels from dedicated OS threads.
    Threads,
}

/// What a grant produced, plus the engine-side bookkeeping hooks the
/// scheduler loop needs.
pub(crate) trait Engine<D: FdValue> {
    /// Tells the process it is crashed (run condition 1): it will take no
    /// step at or after this point.
    fn stop(&mut self, p: ProcessId);

    /// Grants one step to `p` at time `t`. Returns `Some(kind)` if the
    /// process took the step, `None` if its algorithm had already returned
    /// (the grant was consumed by a `Finished` notice — the caller marks
    /// `p` finished and re-schedules). `notice` is invoked for every
    /// process *other than `p`* discovered to have finished while waiting.
    fn grant(
        &mut self,
        p: ProcessId,
        t: Time,
        notice: &mut dyn FnMut(ProcessId),
    ) -> Option<StepKind<D>>;

    /// Ends the run: stops every process, collects final outcomes, and
    /// returns the world together with which processes finished their
    /// protocol and the first panic payload (if any).
    fn shutdown(self: Box<Self>) -> EngineShutdown<D>;

    /// Bytes of engine-side state the run owns, for
    /// [`RunCell::approx_bytes`](crate::RunCell::approx_bytes). Shared
    /// memory is not counted. Monotone while the run lives.
    fn approx_bytes(&self) -> usize;
}

/// Terminal state of an engine after [`Engine::shutdown`].
pub(crate) struct EngineShutdown<D: FdValue> {
    pub(crate) world: World<D>,
    pub(crate) finished: Vec<bool>,
    pub(crate) first_panic: Option<Box<dyn std::any::Any + Send>>,
}

// ---------------------------------------------------------------------------
// Thread-lockstep engine
// ---------------------------------------------------------------------------

/// Runs the algorithm body on its own thread and then answers every further
/// grant with `Finished` until told to stop.
///
/// Panics inside the algorithm are caught here (not at the thread boundary)
/// so the scheduler can be unblocked if the panic happened mid-step: a
/// `Finished` notice is sent, which the scheduler absorbs whether or not a
/// grant was outstanding.
fn process_main<D: FdValue>(
    pid: ProcessId,
    n_plus_1: usize,
    grant_rx: Receiver<Grant>,
    reply_tx: Sender<(ProcessId, Reply<D>)>,
    world: Arc<Mutex<World<D>>>,
    algo: AlgoFn<D>,
) -> ProcOutcome {
    let grant_rx = Rc::new(grant_rx);
    let drain_rx = Rc::clone(&grant_rx);
    let drain_tx = reply_tx.clone();
    let ctx = Ctx::thread(pid, n_plus_1, grant_rx, reply_tx, world);
    let result = catch_unwind(AssertUnwindSafe(move || {
        let mut fut = algo(ctx);
        let mut cx = Context::from_waker(Waker::noop());
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(r) => r,
            // Thread-mode step futures block inside poll; they never
            // suspend. A Pending here would mean an algorithm awaited a
            // foreign future, which the step contract forbids.
            Poll::Pending => unreachable!("thread-mode algorithms never suspend"),
        }
    }));
    let outcome = match result {
        Ok(Ok(())) => ProcOutcome::FinishedOk,
        Ok(Err(Crashed)) => ProcOutcome::Crashed,
        Err(payload) => {
            // A grant may be outstanding; unblock the scheduler.
            let _ = drain_tx.send((pid, Reply::Finished));
            ProcOutcome::Panicked(payload)
        }
    };
    while let Ok(Grant::Step(_)) = drain_rx.recv() {
        if drain_tx.send((pid, Reply::Finished)).is_err() {
            break;
        }
    }
    outcome
}

/// The thread-per-process lockstep engine.
pub(crate) struct ThreadEngine<D: FdValue> {
    world: Arc<Mutex<World<D>>>,
    grant_txs: Vec<Option<Sender<Grant>>>,
    reply_rx: Receiver<(ProcessId, Reply<D>)>,
    handles: Vec<Option<thread::JoinHandle<ProcOutcome>>>,
}

impl<D: FdValue> ThreadEngine<D> {
    pub(crate) fn launch(world: World<D>, algos: Vec<Option<AlgoFn<D>>>) -> Self {
        let n_plus_1 = algos.len();
        let world = Arc::new(Mutex::new(world));
        let (reply_tx, reply_rx) = channel::<(ProcessId, Reply<D>)>();
        let mut grant_txs = Vec::with_capacity(n_plus_1);
        let mut handles = Vec::with_capacity(n_plus_1);
        for (i, algo) in algos.into_iter().enumerate() {
            match algo {
                Some(algo) => {
                    let (gtx, grx) = channel::<Grant>();
                    let reply_tx = reply_tx.clone();
                    let world = Arc::clone(&world);
                    grant_txs.push(Some(gtx));
                    handles.push(Some(
                        thread::Builder::new()
                            .name(format!("p{}", i + 1))
                            .spawn(move || {
                                process_main(ProcessId(i), n_plus_1, grx, reply_tx, world, algo)
                            })
                            .expect("spawn process thread"),
                    ));
                }
                None => {
                    grant_txs.push(None);
                    handles.push(None);
                }
            }
        }
        ThreadEngine {
            world,
            grant_txs,
            reply_rx,
            handles,
        }
    }
}

impl<D: FdValue> Engine<D> for ThreadEngine<D> {
    fn stop(&mut self, p: ProcessId) {
        if let Some(tx) = &self.grant_txs[p.index()] {
            let _ = tx.send(Grant::Stop);
        }
    }

    fn grant(
        &mut self,
        p: ProcessId,
        t: Time,
        notice: &mut dyn FnMut(ProcessId),
    ) -> Option<StepKind<D>> {
        let granted = self.grant_txs[p.index()]
            .as_ref()
            .expect("eligible process has a grant channel")
            .send(Grant::Step(t));
        if granted.is_err() {
            // The thread died (it must have panicked); treat as finished
            // and let shutdown surface the panic.
            return None;
        }
        // Wait for p's reply, absorbing stray Finished notices from other
        // (e.g. panicked) processes along the way so the lockstep invariant
        // — at most one outstanding grant — is preserved.
        loop {
            match self.reply_rx.recv() {
                Ok((pid, Reply::Step(kind))) => {
                    assert_eq!(pid, p, "reply from unexpected process");
                    return Some(kind);
                }
                Ok((pid, Reply::Finished)) => {
                    if pid == p {
                        return None;
                    }
                    notice(pid);
                }
                // All process threads are gone; shut down.
                Err(_) => return None,
            }
        }
    }

    /// The engine and its per-process channel and handle slots. The
    /// algorithm futures live on their process threads and are not counted.
    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.grant_txs.capacity() * std::mem::size_of::<Option<Sender<Grant>>>()
            + self.handles.capacity()
                * std::mem::size_of::<Option<thread::JoinHandle<ProcOutcome>>>()
    }

    fn shutdown(self: Box<Self>) -> EngineShutdown<D> {
        // Wake every blocked process, then join.
        for tx in self.grant_txs.iter().flatten() {
            let _ = tx.send(Grant::Stop);
        }
        drop(self.grant_txs);
        drop(self.reply_rx);

        let mut finished = vec![false; self.handles.len()];
        let mut first_panic = None;
        for (i, handle) in self.handles.into_iter().enumerate() {
            let Some(handle) = handle else { continue };
            match handle.join() {
                Ok(ProcOutcome::FinishedOk) => finished[i] = true,
                Ok(ProcOutcome::Crashed) => {}
                Ok(ProcOutcome::Panicked(payload)) | Err(payload) => {
                    if first_panic.is_none() {
                        first_panic = Some(payload);
                    }
                }
            }
        }
        let world = Arc::try_unwrap(self.world)
            .unwrap_or_else(|_| panic!("world still shared after all threads joined"))
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        EngineShutdown {
            world,
            finished,
            first_panic,
        }
    }
}

// ---------------------------------------------------------------------------
// Inline (single-threaded resumable) engine
// ---------------------------------------------------------------------------

struct InlineProc<D: FdValue> {
    cell: Rc<ProcCell<D>>,
    /// The algorithm's suspended state machine; `None` once it returned,
    /// panicked, or was cancelled.
    fut: Option<crate::builder::AlgoFuture>,
    /// The size of `fut`'s boxed state machine, taken when it was built:
    /// counted for as long as the process slot lives, so a cell's
    /// occupancy never shrinks when a future resolves.
    fut_bytes: usize,
    outcome: Option<ProcOutcome>,
}

impl<D: FdValue> InlineProc<D> {
    /// A process slot running `algo` on a fresh context over `cell`.
    fn start(
        p: ProcessId,
        n_plus_1: usize,
        cell: ProcCell<D>,
        world: &Rc<RefCell<World<D>>>,
        algo: AlgoFn<D>,
    ) -> Self {
        let cell = Rc::new(cell);
        let ctx = Ctx::inline(p, n_plus_1, Rc::clone(&cell), Rc::clone(world));
        let fut = algo(ctx);
        InlineProc {
            cell,
            fut_bytes: std::mem::size_of_val(&*fut),
            fut: Some(fut),
            outcome: None,
        }
    }
}

/// The single-threaded resumable step engine: every process is a suspended
/// future, and a granted step is one `poll`.
pub(crate) struct InlineEngine<D: FdValue> {
    world: Rc<RefCell<World<D>>>,
    procs: Vec<Option<InlineProc<D>>>,
}

impl<D: FdValue> InlineEngine<D> {
    pub(crate) fn launch(world: World<D>, algos: Vec<Option<AlgoFn<D>>>) -> Self {
        let n_plus_1 = algos.len();
        let world = Rc::new(RefCell::new(world));
        let procs = algos
            .into_iter()
            .enumerate()
            .map(|(i, algo)| {
                algo.map(|algo| {
                    InlineProc::start(ProcessId(i), n_plus_1, ProcCell::new(), &world, algo)
                })
            })
            .collect();
        InlineEngine { world, procs }
    }

    /// Polls `p`'s future once (with a grant already deposited in its cell),
    /// recording the terminal outcome if the algorithm returns or panics.
    /// Returns the step the poll produced, if any.
    fn poll_proc(proc_: &mut InlineProc<D>) -> Option<StepKind<D>> {
        let fut = proc_.fut.as_mut()?;
        let mut cx = Context::from_waker(Waker::noop());
        match catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(&mut cx))) {
            Ok(Poll::Pending) => {}
            Ok(Poll::Ready(res)) => {
                proc_.fut = None;
                proc_.outcome = Some(match res {
                    Ok(()) => ProcOutcome::FinishedOk,
                    Err(Crashed) => ProcOutcome::Crashed,
                });
            }
            Err(payload) => {
                // Parity with the thread engine's catch-unwind: the panicking
                // process stops taking steps; the payload is re-raised by the
                // runner after the run.
                proc_.fut = None;
                proc_.outcome = Some(ProcOutcome::Panicked(payload));
            }
        }
        // A consumed grant always leaves a step report; an unconsumed grant
        // (the algorithm returned without stepping) leaves none.
        let kind = proc_.cell.reply.borrow_mut().take();
        if kind.is_none() {
            proc_.cell.grant.set(None);
        }
        kind
    }

    // --- Session hooks (see `crate::session`) ------------------------------

    pub(crate) fn world(&self) -> &Rc<RefCell<World<D>>> {
        &self.world
    }

    /// Swaps the shared memory and oracle in place, keeping the `Rc` that
    /// every suspended future's [`Ctx`] already points at — the world half
    /// of a selective restore.
    pub(crate) fn reset_world(
        &mut self,
        memory: crate::object::Memory,
        oracle: Box<dyn crate::oracle::Oracle<D>>,
    ) {
        let mut world = self.world.borrow_mut();
        world.memory = memory;
        world.oracle = oracle;
    }

    /// Replaces `p`'s slot with a fresh algorithm instance (recording on —
    /// only sessions rebuild processes, and session engines always record).
    /// The caller fast-forwards it with [`replay_step`](Self::replay_step).
    pub(crate) fn replace_proc(&mut self, p: ProcessId, algo: AlgoFn<D>) {
        let n_plus_1 = self.procs.len();
        let cell = ProcCell::new();
        cell.record.set(true);
        self.procs[p.index()] = Some(InlineProc::start(p, n_plus_1, cell, &self.world, algo));
    }

    /// Turns per-step result recording on for every live process: each
    /// completed step leaves a clone of its result in the process cell for
    /// the session to harvest (the raw material of fast-forward restore).
    pub(crate) fn set_recording(&mut self, on: bool) {
        for proc_ in self.procs.iter().flatten() {
            proc_.cell.record.set(on);
        }
    }

    /// Takes the recorded result clone of the step just granted to `p`.
    pub(crate) fn take_recorded(&mut self, p: ProcessId) -> Option<Box<dyn AnyReply>> {
        self.procs[p.index()]
            .as_ref()
            .and_then(|pr| pr.cell.recorded.take())
    }

    /// Replays one already-completed step into `p`'s suspended future: the
    /// step consumes the recorded result without touching the world. Used to
    /// rebuild a suspended state machine from a fresh algorithm instance.
    pub(crate) fn replay_step(&mut self, p: ProcessId, t: Time, value: Box<dyn AnyReply>) {
        let proc_ = self.procs[p.index()]
            .as_mut()
            .expect("replayed process has an algorithm");
        proc_.cell.replay.set(Some(value));
        proc_.cell.grant.set(Some(Grant::Step(t)));
        let stray = Self::poll_proc(proc_);
        debug_assert!(stray.is_none(), "a replayed step deposited a fresh report");
    }

    /// The terminal status of `p`, if its future has resolved.
    pub(crate) fn status_of(&self, p: ProcessId) -> ProcStatus {
        match self.procs[p.index()]
            .as_ref()
            .and_then(|pr| pr.outcome.as_ref())
        {
            None => ProcStatus::Running,
            Some(ProcOutcome::FinishedOk) => ProcStatus::FinishedOk,
            Some(ProcOutcome::Crashed) => ProcStatus::Crashed,
            Some(ProcOutcome::Panicked(_)) => ProcStatus::Panicked,
        }
    }

    /// Takes the panic payload of `p` (downgrading its outcome to crashed);
    /// the session re-raises it immediately.
    pub(crate) fn take_panic(&mut self, p: ProcessId) -> Option<Box<dyn std::any::Any + Send>> {
        let proc_ = self.procs[p.index()].as_mut()?;
        match proc_.outcome.take() {
            Some(ProcOutcome::Panicked(payload)) => {
                proc_.outcome = Some(ProcOutcome::Crashed);
                Some(payload)
            }
            other => {
                proc_.outcome = other;
                None
            }
        }
    }
}

/// Cloneable projection of [`ProcOutcome`] for session bookkeeping.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum ProcStatus {
    Running,
    FinishedOk,
    Crashed,
    Panicked,
}

impl<D: FdValue> Engine<D> for InlineEngine<D> {
    fn stop(&mut self, p: ProcessId) {
        // Deliver the crash and give the algorithm its unwind poll: the step
        // future observes `Stop`, returns `Err(Crashed)`, and any cleanup
        // code runs now — exactly what the thread engine's unblocked thread
        // would do concurrently.
        if let Some(proc_) = self.procs[p.index()].as_mut() {
            if proc_.fut.is_some() {
                proc_.cell.grant.set(Some(Grant::Stop));
                let stray = Self::poll_proc(proc_);
                debug_assert!(stray.is_none(), "a stopped process reported a step");
                // If the future suspended again after the Stop (it awaited a
                // further step), it will never be granted one: cancel it, as
                // the thread engine's channel disconnect would at shutdown.
                if proc_.fut.take().is_some() {
                    proc_.outcome = Some(ProcOutcome::Crashed);
                }
            }
        }
    }

    fn grant(
        &mut self,
        p: ProcessId,
        t: Time,
        _notice: &mut dyn FnMut(ProcessId),
    ) -> Option<StepKind<D>> {
        let proc_ = self.procs[p.index()]
            .as_mut()
            .expect("eligible process has an algorithm");
        // Already returned: the grant is answered by a Finished notice,
        // exactly like the thread engine's drain loop.
        proc_.fut.as_ref()?;
        proc_.cell.grant.set(Some(Grant::Step(t)));
        Self::poll_proc(proc_)
    }

    /// The engine, its process slots, and for every process with an
    /// algorithm its cell and boxed algorithm future (at its launch size).
    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.procs.capacity() * std::mem::size_of::<Option<InlineProc<D>>>()
            + self
                .procs
                .iter()
                .flatten()
                .map(|proc_| std::mem::size_of::<ProcCell<D>>() + proc_.fut_bytes)
                .sum::<usize>()
    }

    fn shutdown(self: Box<Self>) -> EngineShutdown<D> {
        let mut finished = vec![false; self.procs.len()];
        let mut first_panic = None;
        let mut procs = self.procs;
        for proc_ in procs.iter_mut().flatten() {
            // Same broadcast the thread engine performs: wake every process
            // still mid-protocol with a Stop so its cleanup code runs.
            if proc_.fut.is_some() {
                proc_.cell.grant.set(Some(Grant::Stop));
                let _ = Self::poll_proc(proc_);
                if proc_.fut.take().is_some() {
                    proc_.outcome = Some(ProcOutcome::Crashed);
                }
            }
        }
        for (i, proc_) in procs.into_iter().enumerate() {
            let Some(proc_) = proc_ else { continue };
            match proc_.outcome {
                Some(ProcOutcome::FinishedOk) => finished[i] = true,
                Some(ProcOutcome::Crashed) | None => {}
                Some(ProcOutcome::Panicked(payload)) => {
                    if first_panic.is_none() {
                        first_panic = Some(payload);
                    }
                }
            }
        }
        let world = Rc::try_unwrap(self.world)
            .unwrap_or_else(|_| panic!("world still shared after all futures dropped"))
            .into_inner();
        EngineShutdown {
            world,
            finished,
            first_panic,
        }
    }
}
