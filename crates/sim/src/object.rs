//! Shared objects (§3.1, §3.3).
//!
//! Processes communicate by applying *atomic* operations on shared objects:
//! each operation (invocation plus response) is a single step of the run.
//! The paper's algorithms use registers, atomic snapshot objects and (for
//! Corollary 4) `n`-process consensus objects; the necessity results allow
//! *any* object type. This module therefore exposes an open-ended
//! [`ObjectType`] trait; concrete objects live in the `upsilon-mem` crate.
//!
//! Objects are addressed by a structured [`Key`] (a name plus indices, e.g.
//! `D[r]` or `converge[r][k]`), because the paper's protocols allocate an
//! unbounded number of per-round objects. An object is created lazily at the
//! first operation that touches its key; creation is deterministic because
//! every process derives the initial state from the protocol itself.

use crate::process::ProcessId;
use std::any::{Any, TypeId};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;

/// How an operation touches its object, for independence analysis.
///
/// Two steps on the *same* object commute — executing them in either order
/// reaches the same state and responses — when both only read, or when they
/// write disjoint cells. Partial-order reduction (the `upsilon-check`
/// explorer) prunes one of the two orders in exactly those cases, so a
/// too-coarse classification is safe (fewer prunes) while a too-fine one is
/// not; implementations default to [`Access::Update`], the conservative
/// "conflicts with everything on this object".
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Access {
    /// The operation reads object state and writes nothing (a register
    /// read, a snapshot scan). Reads never conflict with each other.
    Read,
    /// The operation writes only the identified cell and reads nothing
    /// (a register write is `Write(0)`, a snapshot `update(i)` is
    /// `Write(i)`). Writes to distinct cells commute; writes to the same
    /// cell, or a write and any read, conflict.
    Write(u32),
    /// The operation may read and write arbitrary state (a consensus
    /// proposal, a fetch-and-add): conflicts with every access.
    Update,
}

impl Access {
    /// Whether two accesses *to the same object* fail to commute.
    pub fn conflicts_with(self, other: Access) -> bool {
        match (self, other) {
            (Access::Read, Access::Read) => false,
            (Access::Write(a), Access::Write(b)) => a == b,
            _ => true,
        }
    }
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Access::Read => write!(f, "r"),
            Access::Write(c) => write!(f, "w{c}"),
            Access::Update => write!(f, "u"),
        }
    }
}

/// A linearizable shared-object type.
///
/// An implementation defines the sequential behaviour of the object; the
/// simulator guarantees each [`invoke`](ObjectType::invoke) executes atomically
/// within one granted step, so the object is trivially linearizable.
///
/// The `Debug` bound makes the object's *state* renderable: it backs
/// [`Memory::state_fingerprint`], the whole-memory equality witness the
/// dynamic reorder cross-check (`upsilon-commute`) compares after swapping
/// provably-commuting adjacent steps.
///
/// The `Clone` bound (on the object and on `Resp`) backs the turbo
/// exploration path: [`Memory`] is copy-on-write (an object is cloned the
/// first time it is mutated after a snapshot), and responses are recorded so
/// a suspended state machine can be rebuilt by replaying its completed steps
/// without re-touching shared memory. `Sync` lets snapshots cross worker
/// threads; shared objects are plain data, so both derive mechanically.
pub trait ObjectType: Clone + Send + Sync + fmt::Debug + 'static {
    /// The operations the object accepts.
    type Op: Send + fmt::Debug + 'static;
    /// The responses the object returns.
    type Resp: Clone + Send + fmt::Debug + 'static;

    /// Applies `op` on behalf of `caller`, mutating the object and returning
    /// the response, atomically.
    fn invoke(&mut self, caller: ProcessId, op: Self::Op) -> Self::Resp;

    /// Classifies `op` for conflict analysis; recorded on the trace event of
    /// the step that performs it. The default is the always-sound
    /// [`Access::Update`]; objects with genuinely commuting operations
    /// (registers, snapshots) override this to enable partial-order
    /// reduction across their steps.
    fn access(_op: &Self::Op) -> Access {
        Access::Update
    }
}

/// A structured shared-object name: a static label plus numeric indices.
///
/// ```
/// use upsilon_sim::Key;
/// let k = Key::new("converge").at(3).at(1);
/// assert_eq!(k.to_string(), "converge[3][1]");
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Key {
    name: Cow<'static, str>,
    index: Vec<u64>,
}

impl Key {
    /// A key with no indices.
    pub fn new(name: impl Into<Cow<'static, str>>) -> Self {
        Key {
            name: name.into(),
            index: Vec::new(),
        }
    }

    /// Appends an index, turning `D` into `D[r]`, etc.
    pub fn at(mut self, i: u64) -> Self {
        self.index.push(i);
        self
    }

    /// The base name of the key.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The indices of the key.
    pub fn indices(&self) -> &[u64] {
        &self.index
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        for i in &self.index {
            write!(f, "[{i}]")?;
        }
        Ok(())
    }
}

impl From<&'static str> for Key {
    fn from(name: &'static str) -> Self {
        Key::new(name)
    }
}

/// Dense identifier of an allocated object within a run's memory.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ObjectId(pub(crate) u32);

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj#{}", self.0)
    }
}

/// Object-erased storage: every [`ObjectType`] is stored behind this trait.
trait AnyObject: Send + Sync {
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
    fn clone_arc(&self) -> Arc<dyn AnyObject>;
    fn type_name(&self) -> &'static str;
    fn debug_state(&self) -> String;
    fn write_state(&self, out: &mut dyn fmt::Write) -> fmt::Result;
}

impl<O: ObjectType> AnyObject for O {
    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn clone_arc(&self) -> Arc<dyn AnyObject> {
        Arc::new(self.clone())
    }

    fn type_name(&self) -> &'static str {
        std::any::type_name::<O>()
    }

    fn debug_state(&self) -> String {
        format!("{self:?}")
    }

    fn write_state(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        write!(out, "{self:?}")
    }
}

/// The shared memory of a run: the collection of all allocated objects.
///
/// Only one process executes a step at a time (lockstep), so interior
/// operations need no further synchronization beyond the owning mutex.
///
/// Storage is copy-on-write: objects sit behind [`Arc`]s, so [`Clone`]
/// (taken once per snapshot by the turbo explorer) is a handful of
/// reference-count bumps, and an object's state is physically duplicated
/// only the first time it is mutated while a snapshot still shares it.
pub struct Memory {
    // BTreeMap, not HashMap: iteration order must not depend on the hasher —
    // the determinism lint (`upsilon-analysis`) enforces this workspace-wide.
    // Nested by TypeId so the hot per-step lookup borrows the `Key` instead
    // of cloning it into a composite tuple key.
    by_key: Arc<BTreeMap<TypeId, BTreeMap<Key, ObjectId>>>,
    objects: Vec<Arc<dyn AnyObject>>,
    names: Arc<Vec<Key>>,
}

impl Clone for Memory {
    fn clone(&self) -> Self {
        Memory {
            by_key: Arc::clone(&self.by_key),
            objects: self.objects.clone(),
            names: Arc::clone(&self.names),
        }
    }
}

impl Memory {
    pub(crate) fn new() -> Self {
        Memory {
            by_key: Arc::new(BTreeMap::new()),
            objects: Vec::new(),
            names: Arc::new(Vec::new()),
        }
    }

    /// Resolves (creating if absent) the object of type `O` named `key`.
    pub(crate) fn resolve<O: ObjectType>(
        &mut self,
        key: &Key,
        init: impl FnOnce() -> O,
    ) -> ObjectId {
        let tid = TypeId::of::<O>();
        if let Some(&id) = self.by_key.get(&tid).and_then(|m| m.get(key)) {
            return id;
        }
        let id = ObjectId(self.objects.len() as u32);
        self.objects.push(Arc::new(init()));
        Arc::make_mut(&mut self.names).push(key.clone());
        Arc::make_mut(&mut self.by_key)
            .entry(tid)
            .or_default()
            .insert(key.clone(), id);
        id
    }

    /// Unique access to an object's erased state, cloning it first if a
    /// snapshot still shares it (the copy-on-write step).
    fn obj_mut(&mut self, id: ObjectId) -> &mut dyn AnyObject {
        let slot = &mut self.objects[id.0 as usize];
        if Arc::get_mut(slot).is_none() {
            let fresh = slot.clone_arc();
            *slot = fresh;
        }
        Arc::get_mut(slot).expect("freshly cloned object is uniquely owned")
    }

    /// Applies an operation to an allocated object.
    pub(crate) fn invoke<O: ObjectType>(
        &mut self,
        id: ObjectId,
        caller: ProcessId,
        op: O::Op,
    ) -> O::Resp {
        let obj = self
            .obj_mut(id)
            .as_any_mut()
            .downcast_mut::<O>()
            .expect("operation type mismatch");
        obj.invoke(caller, op)
    }

    /// Post-run inspection: a typed view of the object named `key`, if it was
    /// ever created.
    pub fn get<O: ObjectType>(&self, key: &Key) -> Option<&O> {
        let id = *self.by_key.get(&TypeId::of::<O>())?.get(key)?;
        self.objects[id.0 as usize].as_any().downcast_ref::<O>()
    }

    /// The display name of an allocated object.
    pub fn name_of(&self, id: ObjectId) -> Option<&Key> {
        self.names.get(id.0 as usize)
    }

    /// Number of objects allocated during the run.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether no object was allocated.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// A deterministic rendering of the entire shared state: every allocated
    /// object's key, type name and `Debug`-rendered state, one line each,
    /// sorted lexicographically. Two runs end in indistinguishable shared
    /// memory exactly when their fingerprints are equal — the equality the
    /// dynamic reorder cross-check (`upsilon-commute`) asserts after
    /// swapping adjacent steps the commutativity matrix calls independent.
    pub fn state_fingerprint(&self) -> String {
        let mut lines: Vec<String> = self
            .objects
            .iter()
            .enumerate()
            .map(|(i, o)| format!("{}:{}={}", self.names[i], o.type_name(), o.debug_state()))
            .collect();
        lines.sort();
        lines.join("\n")
    }

    /// A 64-bit digest of [`Memory::state_fingerprint`] that never builds the
    /// rendered string: each object hashes `key:type=state` through an FNV
    /// accumulator, and the per-object digests are combined with a
    /// commutative fold so the result is independent of allocation order
    /// (object ids are assigned at first touch, which varies across
    /// equivalent interleavings; key names do not).
    pub fn fingerprint64(&self) -> u64 {
        (0..self.objects.len()).fold(0u64, |acc, i| acc.wrapping_add(self.fingerprint_term(i)))
    }

    /// Object `i`'s term in the [`Memory::fingerprint64`] sum — what a
    /// running sum swaps out and back in when the object changes.
    pub(crate) fn fingerprint_term(&self, i: usize) -> u64 {
        let mut w = crate::fingerprint::FnvWrite::new();
        let _ = write!(w, "{}:{}=", self.names[i], self.objects[i].type_name());
        let _ = self.objects[i].write_state(&mut w);
        let h = w.finish();
        h ^ h.rotate_left(31)
    }

    /// Whether object `i` is the very same copy-on-write instance in both
    /// memories — then its state is equal, since a shared instance is never
    /// mutated in place.
    pub(crate) fn shares_object(&self, other: &Memory, i: usize) -> bool {
        Arc::ptr_eq(&self.objects[i], &other.objects[i])
    }

    /// Iterates over `(id, key, type name)` for every allocated object.
    pub fn inventory(&self) -> impl Iterator<Item = (ObjectId, &Key, &'static str)> + '_ {
        self.objects
            .iter()
            .enumerate()
            .map(|(i, o)| (ObjectId(i as u32), &self.names[i], o.type_name()))
    }
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memory")
            .field("objects", &self.objects.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy fetch-and-add object for exercising the framework.
    #[derive(Clone, Debug, Default)]
    struct Counter {
        value: u64,
        last_caller: Option<ProcessId>,
    }

    #[derive(Debug)]
    enum CounterOp {
        FetchAdd(u64),
        Read,
    }

    impl ObjectType for Counter {
        type Op = CounterOp;
        type Resp = u64;

        fn invoke(&mut self, caller: ProcessId, op: CounterOp) -> u64 {
            self.last_caller = Some(caller);
            match op {
                CounterOp::FetchAdd(d) => {
                    let old = self.value;
                    self.value += d;
                    old
                }
                CounterOp::Read => self.value,
            }
        }
    }

    #[test]
    fn key_display_and_equality() {
        let k = Key::new("A").at(2).at(0);
        assert_eq!(k.to_string(), "A[2][0]");
        assert_eq!(k, Key::new("A").at(2).at(0));
        assert_ne!(k, Key::new("A").at(2));
        assert_eq!(k.name(), "A");
        assert_eq!(k.indices(), &[2, 0]);
    }

    #[test]
    fn lazy_creation_resolves_to_same_object() {
        let mut mem = Memory::new();
        let a = mem.resolve::<Counter>(&Key::new("c"), Counter::default);
        let b = mem.resolve::<Counter>(&Key::new("c"), Counter::default);
        assert_eq!(a, b);
        assert_eq!(mem.len(), 1);
        let other = mem.resolve::<Counter>(&Key::new("c").at(1), Counter::default);
        assert_ne!(a, other);
        assert_eq!(mem.len(), 2);
    }

    #[test]
    fn invoke_applies_sequential_semantics() {
        let mut mem = Memory::new();
        let id = mem.resolve::<Counter>(&Key::new("c"), Counter::default);
        assert_eq!(
            mem.invoke::<Counter>(id, ProcessId(0), CounterOp::FetchAdd(5)),
            0
        );
        assert_eq!(
            mem.invoke::<Counter>(id, ProcessId(1), CounterOp::FetchAdd(2)),
            5
        );
        assert_eq!(mem.invoke::<Counter>(id, ProcessId(2), CounterOp::Read), 7);
        let c = mem.get::<Counter>(&Key::new("c")).expect("exists");
        assert_eq!(c.value, 7);
        assert_eq!(c.last_caller, Some(ProcessId(2)));
    }

    #[test]
    fn distinct_types_under_same_key_are_distinct_objects() {
        #[derive(Clone, Debug, Default)]
        struct Other;
        impl ObjectType for Other {
            type Op = ();
            type Resp = ();
            fn invoke(&mut self, _: ProcessId, _: ()) {}
        }
        let mut mem = Memory::new();
        let a = mem.resolve::<Counter>(&Key::new("x"), Counter::default);
        let b = mem.resolve::<Other>(&Key::new("x"), Other::default);
        assert_ne!(a, b);
        assert!(mem.get::<Counter>(&Key::new("x")).is_some());
        assert!(mem.get::<Other>(&Key::new("x")).is_some());
    }

    #[test]
    fn inventory_reports_names() {
        let mut mem = Memory::new();
        mem.resolve::<Counter>(&Key::new("c").at(3), Counter::default);
        let inv: Vec<_> = mem.inventory().collect();
        assert_eq!(inv.len(), 1);
        assert_eq!(inv[0].1.to_string(), "c[3]");
        assert!(inv[0].2.contains("Counter"));
        assert_eq!(mem.name_of(inv[0].0).unwrap().to_string(), "c[3]");
        assert!(!mem.is_empty());
    }
}
