//! The silence certificate behind the engine's silent fast-forward
//! (`Protocol::certify_silent`, used by `population::advance_blocks`),
//! and the pair-stream skip the fast-forward relies on.
//!
//! 1. **Soundness of the null exit** — for every `Params` shape, two
//!    ranked agents with distinct ranks (in range or not) are a null
//!    pair on the enum path, the scalar packed path and the block
//!    kernel, and only the kernel's main/main counter moves. The
//!    kernel's exit also takes waiting and phase initiators meeting a
//!    ranked responder; `crates/core/tests/null_pair_exact.rs` proves
//!    on the full state space that the exit takes exactly the null
//!    pairs.
//! 2. **Certificate ⇒ silence** — over random, adversarial and
//!    fault-corrupted configurations, a configuration the certificate
//!    accepts is silent by the exhaustive `silence::is_silent` check;
//!    every configuration it must reject is rejected and counts nothing.
//! 3. **Silence ⇒ certificate on Q** — Q is the state space
//!    `audit::enumerate_states` lists (ranks in `1..=n`). Every null
//!    pair has a ranked responder, so in a silent configuration every
//!    agent is ranked and no rank repeats: on Q^n the certificate holds
//!    exactly when the configuration is silent — exhaustively at
//!    `n = 2`, by property test at `n = 3..=10`. Outside Q the converse
//!    fails: distinct ranks above `n` are silent but not certified.
//! 4. **Skip continues the stream** — the default `PairSource::skip`
//!    on the adversarial and graph sources lands where drawing does.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use silent_ranking::population::schedule::BLOCK_PAIRS;
use silent_ranking::population::silence::is_silent;
use silent_ranking::population::{Packed, PackedProtocol, PairSource, Protocol};
use silent_ranking::ranking::audit::{enumerate_states, shape_sizes};
use silent_ranking::ranking::stable::state::{MainKind, UnRole, UnState};
use silent_ranking::ranking::stable::{PackedState, StableRanking, StableState};
use silent_ranking::ranking::Params;
use silent_ranking::scenarios::{
    ranking_faults, BiasedSchedule, ClusteredSchedule, Fault, RoundRobinSchedule,
};
use silent_ranking::topology::{GraphSchedule, TopologySpec};

/// Fresh counters: `[dispatch mix…, resets, silent_skipped]`.
fn counters(p: &StableRanking) -> [u64; 6] {
    let m = p.dispatch_mix();
    [
        m[0],
        m[1],
        m[2],
        m[3],
        p.resets_triggered(),
        p.silent_skipped(),
    ]
}

/// Every ordered pair of ranked words with distinct ranks, ranks
/// `0..=n+2` and one far out of range, is null on all three transition
/// paths; the kernel counts each pair as main/main and nothing else.
#[test]
fn ranked_pairs_with_distinct_ranks_are_null_on_every_path() {
    let shapes = shape_sizes(2..=300);
    assert!(shapes.len() >= 8, "too few shapes: {shapes:?}");
    for n in shapes {
        let ranks: Vec<u64> = (0..=n as u64 + 2).chain([1 << 40]).collect();
        let p = StableRanking::new(Params::new(n));
        for &a in &ranks {
            for &b in ranks.iter().filter(|&&b| b != a) {
                let (mut u, mut v) = (StableState::Ranked(a), StableState::Ranked(b));
                assert!(!p.transition(&mut u, &mut v), "n={n} enum ({a},{b})");
                assert_eq!((u, v), (StableState::Ranked(a), StableState::Ranked(b)));

                let (mut u, mut v) = (PackedState::ranked(a), PackedState::ranked(b));
                assert!(
                    !p.transition_packed(&mut u, &mut v),
                    "n={n} packed ({a},{b})"
                );
                assert_eq!((u, v), (PackedState::ranked(a), PackedState::ranked(b)));
            }
        }
        assert_eq!(counters(&p), [0; 6], "n={n}: scalar paths count nothing");

        let kernel = StableRanking::new(Params::new(n));
        let init: Vec<PackedState> = ranks.iter().map(|&r| PackedState::ranked(r)).collect();
        let mut words = init.clone();
        let len = words.len() as u32;
        let pairs: Vec<(u32, u32)> = (0..len)
            .flat_map(|i| (0..len).filter(move |&j| j != i).map(move |j| (i, j)))
            .collect();
        let changed: u64 = pairs
            .chunks(BLOCK_PAIRS)
            .map(|block| PackedProtocol::transition_block(&kernel, &mut words, block))
            .sum();
        assert_eq!(changed, 0, "n={n}: kernel reported a change");
        assert_eq!(words, init, "n={n}: kernel changed a word");
        let main = pairs.len() as u64;
        assert_eq!(
            counters(&kernel),
            [0, 0, 0, main, 0, 0],
            "n={n}: kernel counters"
        );
    }
}

/// Certify `states` (packed) for `count` interactions on a fresh
/// protocol; returns the verdict and the counters afterwards.
fn certify(n: usize, states: &[StableState], count: u64) -> (bool, [u64; 6]) {
    let p = Packed(StableRanking::new(Params::new(n)));
    let words = p.pack_all(states);
    let certified = p.certify_silent(&words, count);
    (certified, counters(p.inner()))
}

/// A uniformly shuffled legal configuration.
fn shuffled_legal(p: &StableRanking, rng: &mut SmallRng) -> Vec<StableState> {
    let mut states = p.legal();
    for i in (1..states.len()).rev() {
        states.swap(i, rng.random_range(0..=i));
    }
    states
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

    /// A certified configuration is silent; a certificate counts exactly
    /// `count` main/main skips, a refusal counts nothing; and every
    /// permutation of ranks is certified.
    #[test]
    fn certificate_implies_silence(n in 2usize..=10, kind in 0u8..4, seed in 0u64..1_000_000) {
        let p = StableRanking::new(Params::new(n));
        let mut rng = SmallRng::seed_from_u64(seed);
        let states = match kind {
            0 => p.adversarial_uniform(seed),
            1 => shuffled_legal(&p, &mut rng),
            2 => {
                let mut states = shuffled_legal(&p, &mut rng);
                let k = rng.random_range(1..=2usize);
                ranking_faults::corrupt(&p, k).apply(&mut states, &mut rng);
                states
            }
            _ => {
                let mut states = shuffled_legal(&p, &mut rng);
                let i = rng.random_range(0..n);
                states[i] = StableState::Ranked(rng.random_range(0..=n as u64 + 1));
                states
            }
        };
        let count = rng.random_range(1..=1u64 << 40);
        let (certified, after) = certify(n, &states, count);
        if certified {
            prop_assert!(is_silent(&p, &states), "certified but not silent: {states:?}");
            prop_assert_eq!(after, [0, 0, 0, count, 0, count]);
        } else {
            prop_assert_eq!(after, [0; 6]);
        }
        if kind == 1 {
            prop_assert!(certified, "a permutation of ranks must certify");
        }
    }
}

/// At `n = 2`, over every configuration in Q²: certified iff silent.
/// Distinct ranked words with a rank above `n` lie outside Q; they are
/// silent, and the certificate refuses them.
#[test]
fn silence_implies_the_certificate_on_every_configuration_of_q_at_n_2() {
    let n = 2;
    let p = StableRanking::new(Params::new(n));
    let q = enumerate_states(p.params());
    let mut silent = 0;
    for a in &q {
        for b in &q {
            let states = [*a, *b];
            let is = is_silent(&p, &states);
            assert_eq!(certify(n, &states, 1).0, is, "{states:?}");
            silent += usize::from(is);
        }
    }
    // The two orders of the legal ranking.
    assert_eq!(silent, 2);

    let outside = [StableState::Ranked(1), StableState::Ranked(n as u64 + 1)];
    assert!(is_silent(&p, &outside));
    assert!(!certify(n, &outside, 1).0);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

    /// At `n = 3..=10`, on configurations drawn from Q: a shuffled
    /// legal configuration with `rewrites` agents replaced by states
    /// drawn uniformly from Q (all `n` of them: a uniform draw from
    /// Q^n). Certified iff silent.
    #[test]
    fn silence_implies_the_certificate_on_q(
        n in 3usize..=10,
        rewrites in 0usize..=4,
        seed in 0u64..1_000_000,
    ) {
        let p = StableRanking::new(Params::new(n));
        let q = enumerate_states(p.params());
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut states = shuffled_legal(&p, &mut rng);
        let rewrites = if rewrites == 4 { n } else { rewrites };
        for _ in 0..rewrites {
            let i = rng.random_range(0..n);
            states[i] = q[rng.random_range(0..q.len())];
        }
        prop_assert_eq!(certify(n, &states, 1).0, is_silent(&p, &states), "{:?}", states);
    }
}

/// One bad agent in an otherwise legal configuration defeats the
/// certificate, whatever it is.
#[test]
fn certificate_rejects_every_single_defect() {
    let n = 8;
    let p = StableRanking::new(Params::new(n));
    let mut rng = SmallRng::seed_from_u64(5);
    let legal = shuffled_legal(&p, &mut rng);
    let un = |role| StableState::Un(UnState { coin: true, role });
    let defects = [
        ("duplicate rank", legal[1]),
        ("elector", p.elector(false)),
        ("elector, coin up", p.elector(true)),
        (
            "waiting",
            un(UnRole::Main {
                alive: 1,
                kind: MainKind::Waiting(1),
            }),
        ),
        (
            "phase agent",
            un(UnRole::Main {
                alive: 1,
                kind: MainKind::Phase(1),
            }),
        ),
        (
            "reset word",
            un(UnRole::Reset {
                reset_count: 0,
                delay_count: 1,
            }),
        ),
        ("rank 0", StableState::Ranked(0)),
        ("rank n + 1", StableState::Ranked(n as u64 + 1)),
    ];
    assert_eq!(
        certify(n, &legal, 1 << 20),
        (true, [0, 0, 0, 1 << 20, 0, 1 << 20])
    );
    for (name, defect) in defects {
        let mut states = legal.clone();
        states[0] = defect;
        assert_eq!(certify(n, &states, 1 << 20), (false, [0; 6]), "{name}");
    }
    // A ranked word with a stray coin bit is outside the codec's image:
    // not a ranked word, so not certified.
    let packed = Packed(StableRanking::new(Params::new(n)));
    let mut words = packed.pack_all(&legal);
    words[0] = PackedState(words[0].0 | 1 << 4);
    assert!(!packed.certify_silent(&words, 1 << 20));
    // n = 2 runs on the kernel like every other size: a legal two-agent
    // population certifies.
    let two = StableRanking::new(Params::new(2));
    assert_eq!(
        certify(2, &two.legal(), 1 << 20),
        (true, [0, 0, 0, 1 << 20, 0, 1 << 20])
    );
}

/// `skip(k)` followed by `m` draws yields the last `m` of `k + m` draws.
fn assert_skip_continues_the_stream<S: PairSource>(name: &str, make: impl Fn() -> S) {
    for k in [0u64, 1, 4095, 4097, 20_000] {
        let m = 64;
        let mut drawn = make();
        let expected: Vec<(usize, usize)> = (0..k + m)
            .map(|_| drawn.next_pair())
            .skip(k as usize)
            .collect();
        let mut skipped = make();
        skipped.skip(k);
        let got: Vec<(usize, usize)> = (0..m).map(|_| skipped.next_pair()).collect();
        assert_eq!(got, expected, "{name}: skip({k})");
    }
}

#[test]
fn default_skip_continues_the_stream_of_adversarial_and_graph_sources() {
    let n = 36;
    assert_skip_continues_the_stream("biased", || BiasedSchedule::new(n, 4, 0.8, 1));
    assert_skip_continues_the_stream("clustered", || ClusteredSchedule::new(n, 3, 0.1, 2));
    assert_skip_continues_the_stream("round robin", || RoundRobinSchedule::new(n));
    assert_skip_continues_the_stream("ring", || {
        GraphSchedule::new(TopologySpec::Ring { n: n as u32 }, 3)
    });
    assert_skip_continues_the_stream("torus", || {
        GraphSchedule::new(TopologySpec::Torus { w: 6, h: 6 }, 4)
    });
}
