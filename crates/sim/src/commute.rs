//! Per-op-pair commutativity matrix for the shared objects in `crates/mem`.
//!
//! GENERATED by `upsilon-commute` — do not edit by hand. Regenerate with:
//!
//! ```text
//! cargo run -p upsilon-analysis --bin analyze -- commute --emit > crates/sim/src/commute.rs
//! ```
//!
//! For every ordered pair of op variants of each analyzed
//! [`ObjectType`](crate::ObjectType), the analyzer derives whether the two
//! operations provably commute — both orders yield identical object state
//! and identical responses from every starting state — possibly conditioned
//! on the ops' rendered arguments. Verdicts only ever *remove* conflicts
//! the `Access` lattice over-approximates; anything underivable stays
//! [`Verdict::Conflict`]. CI fails if this file drifts from the analyzer's
//! output (`--emit | diff`).

/// Object types analyzed by `upsilon-commute`, by base type name.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum ObjKind {
    /// `ConsensusObject` (crates/mem/src/consensus_object.rs).
    ConsensusObject,
    /// `RegisterObject` (crates/mem/src/register.rs).
    RegisterObject,
    /// `SnapshotObject` (crates/mem/src/snapshot.rs).
    SnapshotObject,
}

/// The derived commutativity verdict for an ordered pair of op variants.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// The pair may not be reordered (or commutation could not be proved).
    Conflict,
    /// The pair commutes for every argument instantiation.
    Commute,
    /// The pair commutes when an argument condition holds.
    CommuteIf {
        /// Commutes when the two ops' cell-selecting arguments differ.
        distinct_cell: bool,
        /// Commutes when the two ops render identical argument lists.
        equal_args: bool,
    },
}

/// Maps a base type name (module path and generics stripped) to its kind.
pub fn obj_kind(base: &str) -> Option<ObjKind> {
    match base {
        "ConsensusObject" => Some(ObjKind::ConsensusObject),
        "RegisterObject" => Some(ObjKind::RegisterObject),
        "SnapshotObject" => Some(ObjKind::SnapshotObject),
        _ => None,
    }
}

/// Number of arguments the variant's `Debug` rendering carries.
pub fn arity(kind: ObjKind, variant: &str) -> Option<usize> {
    match (kind, variant) {
        (ObjKind::ConsensusObject, "Propose") => Some(1),
        (ObjKind::RegisterObject, "Read") => Some(0),
        (ObjKind::RegisterObject, "Write") => Some(1),
        (ObjKind::SnapshotObject, "Scan") => Some(0),
        (ObjKind::SnapshotObject, "Update") => Some(2),
        _ => None,
    }
}

/// Index of the variant's cell-selecting argument, if it has one.
pub fn cell_arg(kind: ObjKind, variant: &str) -> Option<usize> {
    match (kind, variant) {
        (ObjKind::SnapshotObject, "Update") => Some(0),
        _ => None,
    }
}

/// The verdict for an ordered pair of op variants of one object kind.
/// Unknown variants yield [`Verdict::Conflict`], the sound default.
pub fn verdict(kind: ObjKind, a: &str, b: &str) -> Verdict {
    match (kind, a, b) {
        (ObjKind::ConsensusObject, "Propose", "Propose") => Verdict::CommuteIf {
            distinct_cell: false,
            equal_args: true,
        },
        (ObjKind::RegisterObject, "Read", "Read") => Verdict::Commute,
        (ObjKind::RegisterObject, "Read", "Write") => Verdict::Conflict,
        (ObjKind::RegisterObject, "Write", "Read") => Verdict::Conflict,
        (ObjKind::RegisterObject, "Write", "Write") => Verdict::CommuteIf {
            distinct_cell: false,
            equal_args: true,
        },
        (ObjKind::SnapshotObject, "Scan", "Scan") => Verdict::Commute,
        (ObjKind::SnapshotObject, "Scan", "Update") => Verdict::Conflict,
        (ObjKind::SnapshotObject, "Update", "Scan") => Verdict::Conflict,
        (ObjKind::SnapshotObject, "Update", "Update") => Verdict::CommuteIf {
            distinct_cell: true,
            equal_args: true,
        },
        _ => Verdict::Conflict,
    }
}
