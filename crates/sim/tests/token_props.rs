//! Hostile-input properties of the `UCHK1:` token parser: tokens arrive
//! from corpus files, bug reports and command lines, so
//! [`ReplayToken::parse`] must reject garbage with an `Err` and never
//! panic, and must invert [`ReplayToken::encode`] exactly.

use proptest::prelude::*;
use upsilon_sim::{ProcessId, ReplayToken, Time};

/// At most this many processes per generated token.
const MAX_N: usize = 5;

/// Generated tokens: `n` processes, at least one of them correct, with
/// arbitrary crash times, pick scripts and an in-range schedule.
fn token_strategy() -> impl Strategy<Value = ReplayToken> {
    (
        1..=MAX_N,
        proptest::collection::vec(proptest::option::of(0u64..1_000), MAX_N),
        0..MAX_N,
        proptest::collection::vec(proptest::collection::vec(0u32..8, 0..4), MAX_N),
        proptest::collection::vec(0..MAX_N, 0..12),
    )
        .prop_map(|(n, mut crashes, correct, mut fd_choices, schedule)| {
            crashes.truncate(n);
            crashes[correct % n] = None;
            fd_choices.truncate(n);
            ReplayToken {
                n_plus_1: n,
                crashes: crashes.into_iter().map(|c| c.map(Time)).collect(),
                fd_choices,
                schedule: schedule.into_iter().map(|p| ProcessId(p % n)).collect(),
            }
        })
}

/// Overwrites one byte of `text`, reading the result back lossily so
/// non-UTF-8 bytes reach the parser as replacement characters.
fn mutate(text: &str, at: usize, byte: u8) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let i = at % bytes.len();
    bytes[i] = byte;
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #[test]
    fn encode_then_parse_is_the_identity(token in token_strategy()) {
        prop_assert_eq!(ReplayToken::parse(&token.encode()), Ok(token));
    }

    /// Arbitrary bytes, bare or behind the `UCHK1:` prefix so the field
    /// parser is reached, are rejected with an `Err`.
    #[test]
    fn arbitrary_bytes_are_rejected(
        bytes in proptest::collection::vec(0u8..=255, 0..48),
        prefixed in proptest::bool::ANY,
    ) {
        let body = String::from_utf8_lossy(&bytes);
        let text = if prefixed { format!("UCHK1:{body}") } else { body.into_owned() };
        prop_assert!(ReplayToken::parse(&text).is_err(), "accepted {text:?}");
    }

    /// One overwritten byte of a valid encoding: the parser returns `Err`
    /// or a token that is itself well formed and round-trips — never a
    /// panic.
    #[test]
    fn single_byte_mutations_never_panic(
        token in token_strategy(),
        at in 0usize..256,
        byte in 0u8..=255,
    ) {
        let text = mutate(&token.encode(), at, byte);
        if let Ok(parsed) = ReplayToken::parse(&text) {
            prop_assert_eq!(parsed.crashes.len(), parsed.n_plus_1);
            prop_assert_eq!(parsed.fd_choices.len(), parsed.n_plus_1);
            prop_assert!(parsed.schedule.iter().all(|p| p.index() < parsed.n_plus_1));
            prop_assert_eq!(ReplayToken::parse(&parsed.encode()), Ok(parsed));
        }
    }
}
