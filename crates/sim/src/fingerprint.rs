//! Canonical run fingerprints — the dedup key of the turbo explorer.
//!
//! [`trace_fingerprint`] digests a run prefix into 64 bits such that two
//! Mazurkiewicz-equivalent prefixes (equal up to reordering of commuting
//! steps) hash identically, while prefixes that differ in any
//! behaviour-relevant way hash differently (modulo 64-bit collisions):
//!
//! * **shared state** enters via [`Memory::fingerprint64`], which combines
//!   per-object digests of `key:type=Debug-state` with a commutative fold —
//!   object *ids* are assigned at first touch and therefore vary across
//!   equivalent interleavings, but key *names* do not;
//! * **per-process control state** enters as one sequential digest per
//!   process over that process's own event subsequence — kinds, object key
//!   names, accesses, op signatures, `op -> resp` detail digests and
//!   failure-detector samples, but **not** times: commuting swaps perturb
//!   the global ordering (and thus times) while preserving each process's
//!   subsequence. A deterministic algorithm that has seen the same
//!   responses is in the same continuation state, so the digest is a sound
//!   proxy for the suspended state machine — *provided responses are
//!   captured*, i.e. the run was recorded at [`TraceLevel::Digest`] or
//!   above (each op event's [`OpDetail`] digests `op -> resp`). The
//!   checker records at `Digest` whenever fingerprint dedup is enabled;
//!   a [`TraceLevel::Full`] run carries the same digests next to its text,
//!   so it fingerprints identically.
//! * **crash/finish status** enters as the crashed *set* and finished flags
//!   (crash delivery times are path-determined and already reflected in the
//!   per-process subsequences).
//!
//! Both layers are streaming or commutative, so nothing forces a rehash of
//! the whole run: a [`Session`] recording at [`TraceLevel::Digest`] or
//! above maintains the per-process digests and the memory sum as it steps
//! (one `absorb_event` per step, one object term swapped) and combines the
//! cached words per node into the explorer's dedup key, the
//! [`orbit_trace_fingerprint`] (pid order under identity classes). The
//! from-scratch functions remain the reference — swarm and the tests use
//! them, and debug builds assert the session's words against
//! [`orbit_trace_fingerprint`] at every fingerprint. Absorbing an op
//! event hashes its signature's raw bytes and its detail's one-word
//! digest, so no step renders or re-reads text for the fingerprint.
//!
//! [`TraceLevel::Digest`]: crate::TraceLevel::Digest
//! [`TraceLevel::Full`]: crate::TraceLevel::Full
//! [`Session`]: crate::Session
//! [`OpDetail`]: crate::OpDetail

use crate::object::Memory;
use crate::oracle::FdValue;
use crate::trace::{Run, StepKind};
use std::fmt;
use std::fmt::Write as _;

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
pub(crate) const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// An FNV-1a accumulator that implements [`fmt::Write`], so `Debug`/`Display`
/// renderings hash without materializing strings.
#[derive(Clone, Copy, Debug)]
pub struct FnvWrite(u64);

impl Default for FnvWrite {
    fn default() -> Self {
        Self::new()
    }
}

impl FnvWrite {
    /// A fresh accumulator at the FNV offset basis.
    pub fn new() -> Self {
        FnvWrite(FNV_OFFSET)
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a little-endian `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// The accumulated digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for FnvWrite {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write_bytes(s.as_bytes());
        Ok(())
    }
}

/// Absorbs one event into its process's running digest: the per-event
/// byte stream of [`trace_fingerprint`] (times excluded — see the module
/// docs for why that is exactly the Mazurkiewicz-invariant choice). The
/// one definition both the from-scratch reference and the live
/// [`Session`](crate::Session) hash through.
pub(crate) fn absorb_event<D: FdValue>(w: &mut FnvWrite, kind: &StepKind<D>, memory: &Memory) {
    match kind {
        StepKind::Op {
            object,
            access,
            sig,
            detail,
        } => {
            let _ = w.write_str("O/");
            match memory.name_of(*object) {
                Some(key) => {
                    let _ = write!(w, "{key}");
                }
                None => {
                    // An object the final memory no longer knows cannot
                    // occur (memory only grows); keep the id as a
                    // defensive fallback rather than panicking mid-hash.
                    let _ = write!(w, "{object}");
                }
            }
            let _ = write!(w, "/{access}");
            if let Some(sig) = sig {
                // Length prefixes keep the raw bytes unambiguous.
                w.write_bytes(b"/");
                w.write_u64(sig.type_name.len() as u64);
                w.write_bytes(sig.type_name.as_bytes());
                w.write_u64(sig.op.len() as u64);
                w.write_bytes(sig.op.as_bytes());
            }
            if let Some(detail) = detail {
                w.write_bytes(b"/");
                w.write_u64(detail.digest());
            }
        }
        StepKind::Query(d) => {
            let _ = write!(w, "Q/{d:?}");
        }
        StepKind::Output(o) => {
            let _ = write!(w, "P/{o}");
        }
        StepKind::NoOp => {
            let _ = w.write_str("N");
        }
    }
    let _ = w.write_str(";");
}

/// Digest of one process's event subsequence, from scratch.
fn proc_digest<D: FdValue>(run: &Run<D>, memory: &Memory, p: crate::ProcessId) -> u64 {
    let mut w = FnvWrite::new();
    for ev in run.events_of(p) {
        absorb_event(&mut w, &ev.kind, memory);
    }
    w.finish()
}

/// The crash/finish status bytes of process `i`.
fn status_of<D: FdValue>(run: &Run<D>, i: usize) -> [u8; 2] {
    let p = crate::ProcessId(i);
    [
        u8::from(run.crash_observed(p).is_some()),
        u8::from(run.finished(p)),
    ]
}

/// Combines a memory digest and per-process event digests into the
/// pid-order fingerprint (the outer layer of [`trace_fingerprint`]).
fn combine<D: FdValue>(run: &Run<D>, memory64: u64, digest_of: impl Fn(usize) -> u64) -> u64 {
    let mut w = FnvWrite::new();
    w.write_u64(memory64);
    w.write_u64(run.n_plus_1() as u64);
    for i in 0..run.n_plus_1() {
        w.write_u64(i as u64);
        w.write_u64(digest_of(i));
        w.write_bytes(&status_of(run, i));
    }
    w.finish()
}

/// The canonical 64-bit fingerprint of a run prefix against its final
/// shared memory. Equal across Mazurkiewicz-equivalent prefixes; see the
/// module docs for the soundness contract (a run recorded at
/// [`TraceLevel::Digest`](crate::TraceLevel::Digest) or above is required
/// when used as a dedup key). Computed from scratch: the reference the session's
/// incremental digests must match bit for bit.
pub fn trace_fingerprint<D: FdValue>(run: &Run<D>, memory: &Memory) -> u64 {
    combine(run, memory.fingerprint64(), |i| {
        proc_digest(run, memory, crate::ProcessId(i))
    })
}

/// An orbit-canonical fingerprint: the digest of a run prefix *up to
/// within-class process renaming*, plus the canonicalizing permutation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OrbitFingerprint {
    /// The canonical 64-bit digest (pid-order independent within classes).
    pub fingerprint: u64,
    /// `canon_of[p]` is the canonical position assigned to process `p`.
    pub canon_of: Vec<usize>,
}

/// The orbit-canonical fingerprint of a run prefix.
///
/// Like [`trace_fingerprint`], but instead of hashing per-process digests
/// in pid order, processes are sorted into a canonical order — by orbit
/// class (`class_of`), then per-process digest (including crash/finish
/// status), then the caller-supplied `extra` word (explorer-side state
/// such as unserved FD picks and crash timing that lives outside the
/// [`Run`]) — and their pids are *excluded* from the hash. Two prefixes
/// that differ only by a permutation of same-class processes therefore
/// hash identically, provided the permuted processes really are
/// behaviourally interchangeable:
///
/// * equal `class_of` entries must be certified by the static symmetry
///   audit (`upsilon-symmetry`): identical pid-parametric code, uniform
///   inputs, spec and FD menu;
/// * anything pid-*keyed* in shared memory still enters via
///   [`Memory::fingerprint64`] uncanonicalized, so such states simply
///   never collide — a missed reduction, never an unsound merge (and the
///   audit's S3 rule downgrades those protocols to the trivial orbit
///   anyway).
///
/// With `class_of = [0, 1, …, n-1]` (the trivial orbit) the canonical
/// order is pid order and this degenerates to [`trace_fingerprint`]
/// plus the `extra` words.
pub fn orbit_trace_fingerprint<D: FdValue>(
    run: &Run<D>,
    memory: &Memory,
    class_of: &[u32],
    extra: &[u64],
) -> OrbitFingerprint {
    combine_orbit(
        run,
        memory.fingerprint64(),
        |i| proc_digest(run, memory, crate::ProcessId(i)),
        class_of,
        extra,
    )
}

/// Combines a memory digest and per-process event digests into the
/// orbit-canonical fingerprint (the outer layer of
/// [`orbit_trace_fingerprint`]).
pub(crate) fn combine_orbit<D: FdValue>(
    run: &Run<D>,
    memory64: u64,
    digest_of: impl Fn(usize) -> u64,
    class_of: &[u32],
    extra: &[u64],
) -> OrbitFingerprint {
    let n = run.n_plus_1();
    debug_assert_eq!(class_of.len(), n);
    debug_assert_eq!(extra.len(), n);
    let mut keyed: Vec<(u32, u64, u64, usize)> = (0..n)
        .map(|i| {
            let mut w = FnvWrite::new();
            w.write_u64(digest_of(i));
            w.write_bytes(&status_of(run, i));
            (
                class_of.get(i).copied().unwrap_or(i as u32),
                w.finish(),
                extra.get(i).copied().unwrap_or(0),
                i,
            )
        })
        .collect();
    // The pid is the last sort key purely for determinism: processes tied
    // on (class, digest, extra) contribute identical triples to the hash,
    // so their relative order cannot affect the fingerprint.
    keyed.sort_unstable();
    let mut canon_of = vec![0usize; n];
    let mut w = FnvWrite::new();
    w.write_u64(memory64);
    w.write_u64(n as u64);
    for (pos, (class, digest, ex, pid)) in keyed.iter().enumerate() {
        canon_of[*pid] = pos;
        w.write_u64(u64::from(*class));
        w.write_u64(*digest);
        w.write_u64(*ex);
    }
    OrbitFingerprint {
        fingerprint: w.finish(),
        canon_of,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_write_matches_reference_vector() {
        // Same constants as `coverage::Fnv64`; pin the byte-for-byte
        // behaviour so the two accumulators cannot drift apart silently.
        let mut w = FnvWrite::new();
        w.write_bytes(b"upsilon");
        assert_eq!(w.finish(), 0xd837_5cb5_5d00_468d);
    }

    #[test]
    fn fmt_write_is_byte_equivalent() {
        let mut a = FnvWrite::new();
        a.write_bytes(b"k[3]=7");
        let mut b = FnvWrite::new();
        let _ = write!(b, "k[{}]={}", 3, 7);
        assert_eq!(a.finish(), b.finish());
    }
}
