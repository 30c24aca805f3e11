//! Exhaustive single-pair differential of `StableRanking`'s transition
//! forms. At every `n ∈ 2..=64` where the shape of `Params` steps
//! (`audit::shape_sizes`), every ordered pair over the full state space
//! (`audit::enumerate_states`) is run through
//!
//! 1. the enum reference `Protocol::transition`,
//! 2. the packed `PackedProtocol::transition_packed`, and
//! 3. a one-pair `PackedProtocol::transition_block` (the block kernel),
//!
//! and all three must give the same successor states, the same
//! `changed` flag and the same number of triggered resets. The kernel
//! must also count the pair in exactly one dispatch class: the one its
//! tag masks name.
//!
//! Exhaustive, so it is meant for release builds:
//!
//! ```text
//! cargo test --release -p ranking --test single_pair_differential
//! ```

use population::{PackedProtocol, Protocol};
use ranking::audit::{enumerate_states, shape_sizes};
use ranking::stable::packed::{TAG_ELECT, TAG_RESET};
use ranking::stable::{PackedState, StableRanking};
use ranking::Params;

/// The dispatch class of a pair by the tag masks of its two words:
/// `[reset, both-elect, one-elect, main/main]`, as indexed by
/// `StableRanking::dispatch_mix`.
fn class_of(u: PackedState, v: PackedState) -> usize {
    if (u.0 | v.0) & TAG_RESET != 0 {
        0
    } else if u.0 & v.0 & TAG_ELECT != 0 {
        1
    } else if (u.0 | v.0) & TAG_ELECT != 0 {
        2
    } else {
        3
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive: run with --release")]
fn every_pair_agrees_on_the_enum_packed_and_kernel_paths() {
    let sizes = shape_sizes(2..=64);
    assert!(sizes.len() >= 8, "too few shapes: {sizes:?}");
    for n in sizes {
        // Three values so each path's counters move on their own.
        let reference = StableRanking::new(Params::new(n));
        let packed = reference.clone();
        let kernel = reference.clone();
        let states = enumerate_states(reference.params());
        let words: Vec<PackedState> = states.iter().map(PackedState::pack).collect();
        for (a, &wa) in states.iter().zip(&words) {
            for (b, &wb) in states.iter().zip(&words) {
                let resets = reference.resets_triggered();
                let (mut u, mut v) = (*a, *b);
                let changed = reference.transition(&mut u, &mut v);
                let resets = reference.resets_triggered() - resets;
                let expected = [PackedState::pack(&u), PackedState::pack(&v)];

                let packed_resets = packed.resets_triggered();
                let (mut pu, mut pv) = (wa, wb);
                let packed_changed = packed.transition_packed(&mut pu, &mut pv);
                assert_eq!(
                    [pu, pv],
                    expected,
                    "n={n} packed successors of {a:?}, {b:?}"
                );
                assert_eq!(
                    packed_changed, changed,
                    "n={n} packed changed: {a:?}, {b:?}"
                );
                assert_eq!(
                    packed.resets_triggered() - packed_resets,
                    resets,
                    "n={n} packed resets: {a:?}, {b:?}"
                );

                let (kernel_resets, mix) = (kernel.resets_triggered(), kernel.dispatch_mix());
                let mut pair = [wa, wb];
                let kernel_changed =
                    PackedProtocol::transition_block(&kernel, &mut pair, &[(0, 1)]);
                assert_eq!(pair, expected, "n={n} kernel successors of {a:?}, {b:?}");
                assert_eq!(
                    kernel_changed,
                    u64::from(changed),
                    "n={n} kernel changed: {a:?}, {b:?}"
                );
                assert_eq!(
                    kernel.resets_triggered() - kernel_resets,
                    resets,
                    "n={n} kernel resets: {a:?}, {b:?}"
                );
                let mut class = [0u64; 4];
                class[class_of(wa, wb)] = 1;
                let after = kernel.dispatch_mix();
                let delta: Vec<u64> = (0..4).map(|c| after[c] - mix[c]).collect();
                assert_eq!(delta, class, "n={n} kernel class of {a:?}, {b:?}");
            }
        }
    }
}
