//! The block kernel's null exit is exact in both directions. At every
//! `n ∈ 2..=64` where the shape of `Params` steps
//! (`audit::shape_sizes`), for every ordered pair over the full state
//! space (`audit::enumerate_states`),
//! `PackedState::is_null_pair(pack a, pack b)` must hold exactly when
//! the enum reference `Protocol::transition` leaves `(a, b)` unchanged:
//!
//! * no false positive — the kernel never skips a pair that moves;
//! * no false negative — every null pair takes the exit, so the null
//!   pairs of Protocol 3 are exactly ranked → ranked with distinct
//!   ranks and {waiting, phase} → ranked.
//!
//! Exhaustive, so it is meant for release builds:
//!
//! ```text
//! cargo test --release -p ranking --test null_pair_exact
//! ```

use population::Protocol;
use ranking::audit::{enumerate_states, shape_sizes};
use ranking::stable::{PackedState, StableRanking};
use ranking::Params;

#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive: run with --release")]
fn the_null_predicate_accepts_exactly_the_pairs_transition_leaves_unchanged() {
    let sizes = shape_sizes(2..=64);
    assert!(sizes.len() >= 8, "too few shapes: {sizes:?}");
    for n in sizes {
        let p = StableRanking::new(Params::new(n));
        let states = enumerate_states(p.params());
        let words: Vec<PackedState> = states.iter().map(PackedState::pack).collect();
        let mut null = 0u64;
        for (a, &wa) in states.iter().zip(&words) {
            for (b, &wb) in states.iter().zip(&words) {
                let (mut u, mut v) = (*a, *b);
                p.transition(&mut u, &mut v);
                let unchanged = (u, v) == (*a, *b);
                let skipped = PackedState::is_null_pair(wa, wb);
                assert_eq!(
                    skipped, unchanged,
                    "n={n}: predicate says {skipped}, transition leaves it unchanged: \
                     {unchanged}, for {a:?} → {b:?}"
                );
                null += u64::from(unchanged);
            }
        }
        assert!(null > 0, "n={n}: no null pair at all");
    }
}
