//! Operation signatures: the dynamic half of the per-op-pair commutativity
//! matrix.
//!
//! The `Access` lattice ([`crate::Access`]) classifies an operation by *how*
//! it touches its object (read / single-cell write / update) and is
//! deliberately value-blind: two writes of the same value to the same
//! register conflict under the lattice even though both orders are
//! indistinguishable. The static analyzer `upsilon-commute` derives a finer,
//! still state-independent relation from the `ObjectType` implementations in
//! `crates/mem` and emits it as [`crate::commute`]; this module connects
//! that generated matrix to *recorded runs*.
//!
//! An [`OpSig`] is captured at the step that performs an operation (when
//! [`SimBuilder::record_op_sigs`](crate::SimBuilder::record_op_sigs) is on):
//! the object's `std::any::type_name` plus the op's `Debug` rendering.
//! [`resolve`] parses that rendering into a variant name and argument list
//! and looks the object up in the matrix; [`ops_commute`] then evaluates the
//! matrix verdict for a pair. Everything that fails to parse or resolve is
//! treated as *not provably commuting*, so consumers fall back to the
//! (sound, coarser) `Access` lattice — the refinement can only remove
//! conflicts the lattice over-approximates, never add independence the
//! matrix cannot justify.
//!
//! Soundness assumption, stated once here and audited dynamically by the
//! reorder cross-check in `crates/commute`: argument equality is decided by
//! comparing `Debug` renderings, which is faithful for every payload type
//! used in this workspace (`derive(Debug)` value types). A pathological
//! `Debug` impl rendering unequal values identically could make the matrix
//! claim a commutation that does not hold; the cross-check re-executes
//! swapped schedules and compares final states to catch exactly that.

use crate::commute::{self, ObjKind, Verdict};

/// The recorded signature of one shared-object operation.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct OpSig {
    /// `std::any::type_name` of the [`ObjectType`](crate::ObjectType)
    /// implementation the operation was applied to.
    pub type_name: &'static str,
    /// The operation value, rendered with `Debug`.
    pub op: Box<str>,
}

impl OpSig {
    /// Builds a signature from a type name and a `Debug`-rendered op.
    pub fn new(type_name: &'static str, op: String) -> Self {
        OpSig {
            type_name,
            op: op.into_boxed_str(),
        }
    }
}

/// A signature resolved against the generated commutativity matrix: the
/// object kind is analyzed, the rendering parsed, and the argument count
/// matches the arity the analyzer derived for the variant.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct ResolvedOp {
    /// The analyzed object kind.
    pub kind: ObjKind,
    /// The op-enum variant name (for `ConsensusObject`, the op struct name).
    pub variant: Box<str>,
    /// The `Debug` renderings of the variant's arguments, in order.
    pub args: Vec<Box<str>>,
}

/// Strips the module path and generic parameters from a
/// `std::any::type_name` rendering:
/// `upsilon_mem::register::RegisterObject<u64>` → `RegisterObject`.
pub fn base_type_name(full: &str) -> &str {
    let head = match full.find('<') {
        Some(i) => &full[..i],
        None => full,
    };
    match head.rfind("::") {
        Some(i) => &head[i + 2..],
        None => head,
    }
}

/// Splits a `Debug`-rendered tuple variant (`Update(2, 7)`) into its variant
/// name and top-level argument renderings. Struct-variant renderings and
/// anything else the splitter cannot follow yield `None`.
fn split_debug(op: &str) -> Option<(&str, Vec<&str>)> {
    fn is_variant_name(s: &str) -> bool {
        !s.is_empty() && s.chars().all(|c| c.is_alphanumeric() || c == '_')
    }
    let op = op.trim();
    let Some(open) = op.find('(') else {
        return is_variant_name(op).then(|| (op, Vec::new()));
    };
    let variant = &op[..open];
    if !is_variant_name(variant) || !op.ends_with(')') {
        return None;
    }
    let args = split_args(&op[open + 1..op.len() - 1])?;
    Some((variant, args))
}

/// Splits `a, (b, c), "d,e"` at top-level commas, respecting bracket
/// nesting and string/char literals. `None` on unbalanced input.
fn split_args(inner: &str) -> Option<Vec<&str>> {
    let inner = inner.trim();
    if inner.is_empty() {
        return Some(Vec::new());
    }
    let mut args = Vec::new();
    let mut depth = 0i32;
    let mut start = 0usize;
    let mut chars = inner.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => {
                depth -= 1;
                if depth < 0 {
                    return None;
                }
            }
            '"' | '\'' => loop {
                match chars.next() {
                    Some((_, '\\')) => {
                        chars.next();
                    }
                    Some((_, q)) if q == c => break,
                    Some(_) => {}
                    None => return None,
                }
            },
            ',' if depth == 0 => {
                args.push(inner[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    if depth != 0 {
        return None;
    }
    args.push(inner[start..].trim());
    Some(args)
}

/// Resolves a recorded signature against the generated matrix. Returns
/// `None` for unanalyzed object types, unparseable renderings or arity
/// mismatches — unresolved signatures never refine a conflict.
pub fn resolve(sig: &OpSig) -> Option<ResolvedOp> {
    let kind = commute::obj_kind(base_type_name(sig.type_name))?;
    let (variant, args) = split_debug(&sig.op)?;
    if commute::arity(kind, variant)? != args.len() {
        return None;
    }
    Some(ResolvedOp {
        kind,
        variant: variant.into(),
        args: args.into_iter().map(Box::from).collect(),
    })
}

/// Whether the matrix proves the two operations commute: applied to the
/// same object in either order, they yield identical object state and
/// identical responses from *every* starting state.
pub fn ops_commute(a: &ResolvedOp, b: &ResolvedOp) -> bool {
    if a.kind != b.kind {
        return false;
    }
    match commute::verdict(a.kind, &a.variant, &b.variant) {
        Verdict::Conflict => false,
        Verdict::Commute => true,
        Verdict::CommuteIf {
            distinct_cell,
            equal_args,
        } => {
            let cells_differ = distinct_cell
                && match (
                    commute::cell_arg(a.kind, &a.variant),
                    commute::cell_arg(b.kind, &b.variant),
                ) {
                    (Some(i), Some(j)) => match (a.args.get(i), b.args.get(j)) {
                        (Some(x), Some(y)) => x != y,
                        _ => false,
                    },
                    _ => false,
                };
            let args_equal = equal_args && a.variant == b.variant && a.args == b.args;
            cells_differ || args_equal
        }
    }
}

/// Whether two *recorded* signatures provably commute: both present, both
/// resolved, and the matrix verdict holds of their arguments. Anything else
/// is `false`, leaving the caller on the `Access` lattice.
pub fn sigs_commute(a: Option<&OpSig>, b: Option<&OpSig>) -> bool {
    match (a.and_then(resolve), b.and_then(resolve)) {
        (Some(ra), Some(rb)) => ops_commute(&ra, &rb),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(type_name: &'static str, op: &str) -> OpSig {
        OpSig::new(type_name, op.to_string())
    }

    #[test]
    fn base_name_strips_path_and_generics() {
        assert_eq!(
            base_type_name("upsilon_mem::register::RegisterObject<u64>"),
            "RegisterObject"
        );
        assert_eq!(
            base_type_name("upsilon_mem::snapshot::SnapshotObject<(u64, bool)>"),
            "SnapshotObject"
        );
        assert_eq!(
            base_type_name("upsilon_mem::consensus_object::ConsensusObject"),
            "ConsensusObject"
        );
        assert_eq!(base_type_name("Bare"), "Bare");
    }

    #[test]
    fn split_handles_nesting_and_literals() {
        assert_eq!(split_debug("Read"), Some(("Read", vec![])));
        assert_eq!(split_debug("Write(7)"), Some(("Write", vec!["7"])));
        assert_eq!(
            split_debug("Update(2, (1, true))"),
            Some(("Update", vec!["2", "(1, true)"]))
        );
        assert_eq!(
            split_debug("Write(\"a,b\")"),
            Some(("Write", vec!["\"a,b\""]))
        );
        assert_eq!(
            split_debug("Write(Some([1, 2]))"),
            Some(("Write", vec!["Some([1, 2])"]))
        );
        // Struct variants and malformed renderings are conservatively opaque.
        assert_eq!(split_debug("Op { a: 1 }"), None);
        assert_eq!(split_debug("Write((«"), None);
        assert_eq!(split_debug(""), None);
    }

    #[test]
    fn resolve_requires_known_kind_and_arity() {
        let reg = "upsilon_mem::register::RegisterObject<u64>";
        let ok = resolve(&sig(reg, "Write(3)")).expect("resolves");
        assert_eq!(ok.kind, ObjKind::RegisterObject);
        assert_eq!(&*ok.variant, "Write");
        assert_eq!(ok.args, vec![Box::from("3")]);
        assert!(resolve(&sig(reg, "Write(3, 4)")).is_none(), "wrong arity");
        assert!(resolve(&sig(reg, "Swap(3)")).is_none(), "unknown variant");
        assert!(
            resolve(&sig("other::Counter", "Read")).is_none(),
            "unanalyzed type"
        );
    }

    #[test]
    fn register_pairs() {
        let reg = "upsilon_mem::register::RegisterObject<u64>";
        let w3 = sig(reg, "Write(3)");
        let w3b = sig(reg, "Write(3)");
        let w4 = sig(reg, "Write(4)");
        let r = sig(reg, "Read");
        assert!(sigs_commute(Some(&w3), Some(&w3b)), "equal writes commute");
        assert!(!sigs_commute(Some(&w3), Some(&w4)), "unequal writes clash");
        assert!(!sigs_commute(Some(&w3), Some(&r)), "write/read clash");
        assert!(sigs_commute(Some(&r), Some(&r)), "reads commute");
        assert!(!sigs_commute(Some(&w3), None), "missing sig is opaque");
        assert!(!sigs_commute(None, None));
    }

    #[test]
    fn snapshot_pairs() {
        let snap = "upsilon_mem::snapshot::SnapshotObject<u64>";
        let u0 = sig(snap, "Update(0, 7)");
        let u0b = sig(snap, "Update(0, 7)");
        let u0c = sig(snap, "Update(0, 8)");
        let u1 = sig(snap, "Update(1, 7)");
        let s = sig(snap, "Scan");
        assert!(
            sigs_commute(Some(&u0), Some(&u1)),
            "distinct cells commute even with equal payloads"
        );
        assert!(
            sigs_commute(Some(&u0), Some(&u0b)),
            "same cell, equal payload commutes"
        );
        assert!(!sigs_commute(Some(&u0), Some(&u0c)), "same cell clash");
        assert!(!sigs_commute(Some(&u0), Some(&s)), "update/scan clash");
        assert!(sigs_commute(Some(&s), Some(&s)), "scans commute");
    }

    #[test]
    fn consensus_pairs() {
        let c = "upsilon_mem::consensus_object::ConsensusObject";
        let p3 = sig(c, "Propose(3)");
        let p3b = sig(c, "Propose(3)");
        let p4 = sig(c, "Propose(4)");
        assert!(
            sigs_commute(Some(&p3), Some(&p3b)),
            "equal proposals commute (first-propose-wins, same response)"
        );
        assert!(!sigs_commute(Some(&p3), Some(&p4)), "unequal proposals");
    }

    #[test]
    fn cross_kind_pairs_never_commute() {
        let a = resolve(&sig("m::RegisterObject<u64>", "Read")).expect("reg");
        let b = resolve(&sig("m::SnapshotObject<u64>", "Scan")).expect("snap");
        assert!(!ops_commute(&a, &b));
    }
}
