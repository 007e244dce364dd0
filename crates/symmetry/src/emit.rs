//! Generation of `crates/sim/src/symmetry.rs` from the derived orbits.
//!
//! The output is deterministic — samples are emitted in lexicographic name
//! order — so the generated file is a pure function of the analyzed
//! sources. CI diffs the emitter's output against the checked-in file to
//! catch drift, exactly as for `upsilon-commute`'s matrix.

use crate::report::SampleOrbit;

/// Renders the complete generated source file.
pub fn render(orbits: &[SampleOrbit]) -> String {
    let mut sorted: Vec<&SampleOrbit> = orbits.iter().collect();
    sorted.sort_by(|a, b| a.sample.cmp(&b.sample));

    let mut out = String::new();
    out.push_str(
        "//! Process-orbit classes of the `upsilon-check` sample portfolio.\n\
         //!\n\
         //! GENERATED by `upsilon-symmetry` — do not edit by hand. Regenerate with:\n\
         //!\n\
         //! ```text\n\
         //! cargo run -p upsilon-analysis --bin analyze -- symmetry --emit > crates/sim/src/symmetry.rs\n\
         //! ```\n\
         //!\n\
         //! An orbit declares which processes of a checked protocol are\n\
         //! *interchangeable*: the whole configuration (algorithm closures, initial\n\
         //! inputs, specification and FD menu) is invariant under any permutation\n\
         //! that maps each orbit class to itself. The explorer uses this to collapse\n\
         //! symmetric crash injections and to canonicalize fingerprints up to\n\
         //! within-class renaming. Anything the analyzer cannot certify is\n\
         //! [`Orbit::Trivial`], under which the reduction is the identity — an\n\
         //! unknown sample can cost reduction, never soundness. CI fails if this\n\
         //! file drifts from the analyzer's output (`--emit | diff`).\n\n",
    );

    // Orbit enum + methods (fixed text).
    out.push_str(
        "/// The orbit structure of a sample's `n + 1` processes.\n\
         #[derive(Clone, Copy, PartialEq, Eq, Debug)]\n\
         pub enum Orbit {\n\
         \x20   /// All processes are interchangeable.\n\
         \x20   Full,\n\
         \x20   /// Processes `p_0 … p_{n-1}` are interchangeable; the last process\n\
         \x20   /// is pinned (the menu distinguishes exactly it).\n\
         \x20   PinnedLast,\n\
         \x20   /// No two processes may be identified; symmetry reduction is the\n\
         \x20   /// identity.\n\
         \x20   Trivial,\n\
         }\n\n\
         impl Orbit {\n\
         \x20   /// The orbit-class index of each of the `n` processes. Processes\n\
         \x20   /// with equal class are interchangeable.\n\
         \x20   #[must_use]\n\
         \x20   pub fn class_of(self, n: usize) -> Vec<u32> {\n\
         \x20       match self {\n\
         \x20           Orbit::Full => vec![0; n],\n\
         \x20           Orbit::PinnedLast => {\n\
         \x20               let mut v = vec![0; n];\n\
         \x20               if let Some(last) = v.last_mut() {\n\
         \x20                   *last = 1;\n\
         \x20               }\n\
         \x20               v\n\
         \x20           }\n\
         \x20           Orbit::Trivial => (0..n as u32).collect(),\n\
         \x20       }\n\
         \x20   }\n\n\
         \x20   /// Whether the orbit admits no reduction at all.\n\
         \x20   #[must_use]\n\
         \x20   pub fn is_trivial(self) -> bool {\n\
         \x20       matches!(self, Orbit::Trivial)\n\
         \x20   }\n\
         }\n\n",
    );

    // sample_orbit.
    out.push_str(
        "/// The certified orbit of a sample constructor, by function name.\n\
         /// Unknown names yield [`Orbit::Trivial`], the sound default.\n\
         #[must_use]\n\
         pub fn sample_orbit(sample: &str) -> Orbit {\n\
         \x20   match sample {\n",
    );
    for o in &sorted {
        out.push_str(&format!(
            "        // {}\n        \"{}\" => Orbit::{},\n",
            o.reason,
            o.sample,
            o.orbit.variant()
        ));
    }
    out.push_str("        _ => Orbit::Trivial,\n    }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::OrbitKind;

    #[test]
    fn render_is_deterministic_and_sorted() {
        let orbits = vec![
            SampleOrbit {
                sample: "zeta".into(),
                orbit: OrbitKind::Full,
                reason: "uniform".into(),
            },
            SampleOrbit {
                sample: "alpha".into(),
                orbit: OrbitKind::PinnedLast,
                reason: "pinned menu".into(),
            },
        ];
        let text = render(&orbits);
        let alpha = text.find("\"alpha\"").expect("alpha emitted");
        let zeta = text.find("\"zeta\"").expect("zeta emitted");
        assert!(alpha < zeta);
        assert!(text.contains("=> Orbit::PinnedLast"));
        assert!(text.contains("_ => Orbit::Trivial"));
        assert_eq!(text, render(&orbits));
    }
}
