//! Property suite for the packed executor's invariants:
//!
//! * per-instance results are invariant under instance count, batch size,
//!   packing order, worker count and window mode;
//! * campaign seeding is collision-free (`instance_seed` acts injectively
//!   on any practical campaign range);
//! * memory accounting is monotone: retirement occupancy dominates
//!   admission occupancy, both are positive sums over instances, and
//!   growing the arena never shrinks either;
//! * the `USWM1:` shard-record parser inverts the encoder and rejects
//!   hostile input with an `Err`, never a panic.

use proptest::collection::vec;
use proptest::prelude::*;
use upsilon_swarm::{
    instance_seed, run_packed_specs, run_standalone, InstanceSpec, ShardRecord, SwarmReport,
    TEMPLATES,
};

/// A random instance: any checked-in template under a small seed. Small
/// seeds are as good as large ones here (the scheduler hashes them), and
/// keep failure cases readable.
fn spec_strategy() -> impl Strategy<Value = InstanceSpec> {
    (0..TEMPLATES.len(), 0u64..1000).prop_map(|(t, seed)| {
        let (_, protocol, n_plus_1, crashes) = TEMPLATES[t];
        InstanceSpec {
            protocol,
            n_plus_1,
            crashes,
            seed,
        }
    })
}

fn arena_strategy() -> impl Strategy<Value = Vec<InstanceSpec>> {
    vec(spec_strategy(), 1..14)
}

proptest! {
    // Each case packs a whole arena several times; a few dozen cases give
    // broad template/seed coverage without minutes of wall clock.
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Per-instance results are a function of the spec alone: neither the
    /// surrounding arena's size, nor the batch quota, nor the worker
    /// count, nor the window mode may leak into any instance.
    #[test]
    fn results_depend_only_on_the_spec(
        specs in arena_strategy(),
        batch in 1u64..200,
        workers in 1usize..5,
        window in proptest::option::of(1usize..10),
    ) {
        let standalone: Vec<_> = specs.iter().map(run_standalone).collect();
        let (report, packed) = run_packed_specs(&specs, batch, workers, window, true);
        prop_assert_eq!(packed.expect("collected"), standalone);
        prop_assert_eq!(report.instances as usize, specs.len());
    }

    /// Packing order is immaterial: reversing the arena permutes the
    /// results exactly, changing nothing per instance — and the aggregate
    /// report (a sum over instances) is identical.
    #[test]
    fn packing_order_is_immaterial(specs in arena_strategy(), batch in 1u64..100) {
        let (report, forward) = run_packed_specs(&specs, batch, 1, None, true);
        let reversed: Vec<_> = specs.iter().rev().cloned().collect();
        let (rev_report, backward) = run_packed_specs(&reversed, batch, 1, None, true);
        let mut backward = backward.expect("collected");
        backward.reverse();
        prop_assert_eq!(forward.expect("collected"), backward);
        prop_assert_eq!(report, rev_report);
    }

    /// Adding neighbours to the arena never disturbs the instances already
    /// there: the packed results over a prefix are the prefix of the packed
    /// results over the whole.
    #[test]
    fn neighbours_do_not_disturb_a_prefix(
        specs in arena_strategy(),
        cut in 0usize..14,
        batch in 1u64..100,
    ) {
        let cut = cut.min(specs.len());
        let (_, whole) = run_packed_specs(&specs, batch, 1, None, true);
        let (_, prefix) = run_packed_specs(&specs[..cut], batch, 1, None, true);
        prop_assert_eq!(&whole.expect("collected")[..cut], &prefix.expect("collected")[..]);
    }

    /// `instance_seed` is collision-free over any practical campaign: all
    /// seeds in a drawn window are distinct, and remain distinct across
    /// two distinct campaign seeds.
    #[test]
    fn campaign_seeding_has_no_collisions(
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        lo in 0u64..1_000_000,
        len in 1u64..2_000,
    ) {
        let mut seen = std::collections::BTreeSet::new();
        for i in lo..lo + len {
            prop_assert!(seen.insert(instance_seed(a, i)), "collision within campaign {a} at {i}");
            if b != a {
                prop_assert!(
                    seen.insert(instance_seed(b, i)),
                    "collision across campaigns {a}/{b} at {i}"
                );
            }
        }
    }

    /// Memory accounting is monotone and positive: every instance admits
    /// at a positive occupancy, retires no smaller than it admitted
    /// (accumulator capacity never shrinks), and extending the arena can
    /// only grow both sums. All of it window-invariant.
    #[test]
    fn memory_accounting_is_monotone(
        specs in arena_strategy(),
        cut in 0usize..14,
        window in proptest::option::of(1usize..10),
    ) {
        let (whole, _) = run_packed_specs(&specs, 64, 1, window, false);
        prop_assert!(whole.packed_bytes >= specs.len() as u64, "admission occupancy is positive");
        prop_assert!(
            whole.arena_bytes >= whole.packed_bytes,
            "retirement occupancy {} under admission occupancy {}",
            whole.arena_bytes,
            whole.packed_bytes
        );
        let cut = cut.min(specs.len());
        let (prefix, _) = run_packed_specs(&specs[..cut], 64, 1, window, false);
        prop_assert!(prefix.packed_bytes <= whole.packed_bytes);
        prop_assert!(prefix.arena_bytes <= whole.arena_bytes);
        prop_assert!(prefix.total_steps <= whole.total_steps);
        // And the byte sums themselves are window-invariant.
        let (full_pack, _) = run_packed_specs(&specs, 64, 1, None, false);
        prop_assert_eq!(whole, full_pack);
    }
}

/// The characters of a canonical mix string (`echo:2,converge-pair:1`).
const MIX_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789:,-";

/// Generated shard records: any mix spelled in mix characters, any field
/// values.
fn record_strategy() -> impl Strategy<Value = ShardRecord> {
    (vec(0..MIX_CHARS.len(), 0..24), vec(0u64..u64::MAX, 18)).prop_map(|(mix, v)| ShardRecord {
        mix: mix.into_iter().map(|i| char::from(MIX_CHARS[i])).collect(),
        instances: v[0],
        campaign_seed: v[1],
        shard_index: v[2],
        shards: v[3],
        lo: v[4],
        hi: v[5],
        batch: v[6],
        workers: v[7],
        report: SwarmReport {
            instances: v[8],
            packed_bytes: v[9],
            arena_bytes: v[10],
            total_steps: v[11],
            decisions: v[12],
            fd_queries: v[13],
            spec_ok: v[14],
            run_cond_ok: v[15],
            finished: v[16],
        },
    })
}

proptest! {
    #[test]
    fn shard_record_encode_then_parse_is_the_identity(record in record_strategy()) {
        prop_assert_eq!(ShardRecord::parse(&record.encode()), Ok(record));
    }

    /// Arbitrary bytes, bare or behind the `USWM1:` prefix so the field
    /// parser is reached, are rejected with an `Err`.
    #[test]
    fn shard_record_rejects_arbitrary_bytes(
        bytes in vec(0u8..=255, 0..48),
        prefixed in proptest::bool::ANY,
    ) {
        let body = String::from_utf8_lossy(&bytes);
        let text = if prefixed { format!("USWM1: {body}") } else { body.into_owned() };
        prop_assert!(ShardRecord::parse(&text).is_err(), "accepted {text:?}");
    }

    /// One overwritten byte of a valid encoding: the parser returns `Err`
    /// or a record that round-trips — never a panic.
    #[test]
    fn shard_record_single_byte_mutations_never_panic(
        record in record_strategy(),
        at in 0usize..1024,
        byte in 0u8..=255,
    ) {
        let mut bytes = record.encode().into_bytes();
        let i = at % bytes.len();
        bytes[i] = byte;
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(parsed) = ShardRecord::parse(&text) {
            prop_assert_eq!(ShardRecord::parse(&parsed.encode()), Ok(parsed));
        }
    }
}
