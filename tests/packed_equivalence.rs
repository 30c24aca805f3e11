//! The packed-representation contract (ISSUE 3 acceptance):
//!
//! 1. **Codec** — `PackedState` is a lossless bijection on the valid
//!    state space: `unpack(pack(s)) == s` for every state in the full
//!    enumeration, `pack(unpack(w)) == w` for every word `pack`
//!    produces, and `pack` is injective (it refines the mixed-radix
//!    `encode` audit).
//! 2. **Trajectory** — running `StableRanking` over packed words
//!    (`Packed<StableRanking>`) is bit-for-bit trajectory-equivalent to
//!    the structured enum path through `run_batched` *and* through
//!    `run_faulted` under every injector kind, for multiple population
//!    sizes and seeds. The packed path must be a pure optimization,
//!    exactly like batching — or every throughput number it produces
//!    would be a number for a different protocol.

use std::collections::HashSet;

use proptest::prelude::*;

use silent_ranking::population::observe::{Convergence, Unpacked};
use silent_ranking::population::{is_valid_ranking, Packed, Simulator, UnpackedHook};
use silent_ranking::ranking::audit::enumerate_states;
use silent_ranking::ranking::stable::state::{MainKind, UnRole, UnState};
use silent_ranking::ranking::stable::{PackedState, StableRanking, StableState};
use silent_ranking::ranking::Params;
use silent_ranking::scenarios::{ranking_faults, FaultPlan};

fn protocol(n: usize) -> StableRanking {
    StableRanking::new(Params::new(n))
}

#[test]
fn codec_roundtrips_and_is_injective_over_the_full_state_space() {
    for n in [2usize, 7, 64, 257] {
        let p = Params::new(n);
        let states = enumerate_states(&p);
        let mut words = HashSet::new();
        for s in &states {
            let w = PackedState::pack(s);
            assert_eq!(w.unpack(), *s, "unpack(pack(s)) != s at n={n}");
            assert_eq!(
                PackedState::pack(&w.unpack()),
                w,
                "pack(unpack(w)) != w at n={n}"
            );
            assert!(words.insert(w.bits()), "pack not injective at n={n}: {s:?}");
        }
        assert_eq!(words.len(), states.len());
    }
}

#[test]
fn packed_rank_output_matches_structured_rank_output() {
    use silent_ranking::population::RankOutput;
    let p = Params::new(64);
    for s in enumerate_states(&p) {
        assert_eq!(PackedState::pack(&s).rank(), s.rank());
    }
}

/// Run the same trajectory twice — structured enum states vs packed
/// words — and assert exact agreement of configurations, interaction
/// counters, and reset instrumentation.
fn assert_batched_equivalent(n: usize, config_seed: u64, seed: u64, total: u64, chunk: u64) {
    let enum_sim = {
        let p = protocol(n);
        let init = p.adversarial_uniform(config_seed);
        let mut sim = Simulator::new(p, init, seed);
        let mut left = total;
        while left > 0 {
            let step = chunk.min(left);
            sim.run_batched(step);
            left -= step;
        }
        sim
    };

    let packed_sim = {
        let p = Packed(protocol(n));
        let init = p.pack_all(&p.inner().adversarial_uniform(config_seed));
        let mut sim = Simulator::new(p, init, seed);
        sim.run_batched(total);
        sim
    };

    assert_eq!(enum_sim.interactions(), packed_sim.interactions());
    let unpacked = packed_sim.protocol().unpack_all(packed_sim.states());
    assert_eq!(
        enum_sim.states(),
        &unpacked[..],
        "packed trajectory diverged (n={n}, config_seed={config_seed}, seed={seed}, total={total})"
    );
    assert_eq!(
        enum_sim.protocol().resets_triggered(),
        packed_sim.protocol().inner().resets_triggered(),
        "reset instrumentation diverged"
    );
}

#[test]
fn packed_equals_enum_through_run_batched() {
    for n in [2usize, 8, 24, 33] {
        for seed in 0..3u64 {
            assert_batched_equivalent(n, seed.wrapping_mul(7919) + 1, seed, 60_000, 60_000);
        }
    }
}

#[test]
fn packed_equals_enum_from_structured_initializations() {
    let n = 24;
    let makes: Vec<fn(&StableRanking) -> Vec<StableState>> = vec![
        |p| p.initial(),
        |p| p.figure2(),
        |p| p.figure3(),
        |p| p.all_same_rank(5),
        |p| p.all_waiting(),
        |p| p.all_phase(1),
        |p| p.legal(),
    ];
    for make in makes {
        let p = protocol(n);
        let init = make(&p);
        let mut enum_sim = Simulator::new(p, init, 11);
        enum_sim.run_batched(40_000);

        let p = Packed(protocol(n));
        let init = p.pack_all(&make(p.inner()));
        let mut packed_sim = Simulator::new(p, init, 11);
        packed_sim.run_batched(40_000);

        let unpacked = packed_sim.protocol().unpack_all(packed_sim.states());
        assert_eq!(enum_sim.states(), &unpacked[..]);
    }
}

/// Single-shot plan for one injector kind, firing at `at`.
fn plan_for(kind: &str, p: &StableRanking, n: usize, at: u64, seed: u64) -> FaultPlan<StableState> {
    FaultPlan::new(seed ^ 0xBEEF).once(at, ranking_faults::standard(kind, p, n))
}

#[test]
fn packed_equals_enum_through_run_faulted_for_every_injector() {
    for kind in ranking_faults::KINDS {
        for (n, seed) in [(8usize, 1u64), (24, 2), (33, 3)] {
            let total = 30_000u64;
            let at = total / 2;

            let p = protocol(n);
            let init = p.figure3();
            let mut plan = plan_for(kind, &p, n, at, seed);
            let mut enum_sim = Simulator::new(p, init, seed);
            enum_sim.run_faulted(total, &mut plan);

            let p = Packed(protocol(n));
            let init = p.pack_all(&p.inner().figure3());
            let mut hook = UnpackedHook::new(plan_for(kind, p.inner(), n, at, seed));
            let mut packed_sim = Simulator::new(p, init, seed);
            packed_sim.run_faulted(total, &mut hook);

            assert_eq!(
                plan.fired(),
                hook.inner().fired(),
                "{kind}: firing logs diverged"
            );
            let unpacked = packed_sim.protocol().unpack_all(packed_sim.states());
            assert_eq!(
                enum_sim.states(),
                &unpacked[..],
                "{kind}: packed faulted trajectory diverged (n={n}, seed={seed})"
            );
        }
    }
}

#[test]
fn packed_run_converges_with_word_level_predicates_and_unpacked_observers() {
    // `PackedState` implements `RankOutput`, so `is_valid_ranking`
    // reads the words directly — no unpacking on the observation path.
    let n = 16;
    let p = protocol(n);
    let init = p.adversarial_uniform(5);
    let mut enum_sim = Simulator::new(p, init, 9);
    let enum_stop = enum_sim.run_until(is_valid_ranking, 50_000_000, n as u64);

    let p = Packed(protocol(n));
    let init = p.pack_all(&p.inner().adversarial_uniform(5));
    let mut packed_sim = Simulator::new(p, init, 9);
    let packed_stop = packed_sim.run_until(is_valid_ranking, 50_000_000, n as u64);
    assert_eq!(enum_stop, packed_stop, "hitting times must coincide");

    // The structured-observer boundary: an enum-state observer wrapped
    // in `Unpacked` sees the same trajectory at checkpoints.
    let p = Packed(protocol(n));
    let init = p.pack_all(&p.inner().adversarial_uniform(5));
    let mut sim = Simulator::new(p, init, 9);
    let mut conv = Unpacked::<StableRanking, _>::new(Convergence::new(|s: &[StableState]| {
        is_valid_ranking(s)
    }));
    let stop = sim.run_observed(50_000_000, n as u64, &mut conv);
    assert_eq!(stop, packed_stop);
    assert_eq!(conv.inner().converged_at(), packed_stop.converged_at());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Randomized batched equivalence across population sizes, seeds,
    /// horizons, and chunk decompositions.
    #[test]
    fn packed_trajectory_equivalence_holds_for_random_runs(
        n in 2usize..48,
        config_seed in 0u64..10_000,
        seed in 0u64..10_000,
        total in 0u64..25_000,
        chunk in 1u64..8000,
    ) {
        assert_batched_equivalent(n, config_seed, seed, total, chunk);
    }

    /// Randomized faulted equivalence with a periodic sustained fault.
    #[test]
    fn packed_faulted_equivalence_holds_under_periodic_corruption(
        seed in 0u64..10_000,
        every in 500u64..5000,
    ) {
        let n = 16;
        let total = 20_000u64;

        let p = protocol(n);
        let init = p.adversarial_uniform(seed);
        let mut plan = FaultPlan::new(seed)
            .periodic(every, every, ranking_faults::corrupt(&p, n / 2));
        let mut enum_sim = Simulator::new(p, init, seed);
        enum_sim.run_faulted(total, &mut plan);

        let p = Packed(protocol(n));
        let init = p.pack_all(&p.inner().adversarial_uniform(seed));
        let mut hook = UnpackedHook::new(
            FaultPlan::new(seed).periodic(every, every, ranking_faults::corrupt(p.inner(), n / 2)),
        );
        let mut packed_sim = Simulator::new(p, init, seed);
        packed_sim.run_faulted(total, &mut hook);

        prop_assert_eq!(plan.fired(), hook.inner().fired());
        let unpacked = packed_sim.protocol().unpack_all(packed_sim.states());
        prop_assert_eq!(enum_sim.states(), &unpacked[..]);
    }
}

// ---------------------------------------------------------------------
// Block-kernel differentials (ISSUE 6): `Packed<StableRanking>` routes
// whole blocks through the `ranking::stable::kernel` implementation of
// `PackedProtocol::transition_block`; `ScalarBlock<Packed<_>>` forces
// the pair-at-a-time reference loop over the same words. The two must
// be bit-for-bit trajectory twins — same words, same interaction
// counters, same reset instrumentation — or the kernel's throughput
// rows would describe a different protocol.

use silent_ranking::population::schedule::Pair;
use silent_ranking::population::{PackedProtocol, ScalarBlock};

/// Run the ScalarBlock reference in `chunk`-sized `run_batched` calls
/// against a single-shot kernel run and assert exact agreement.
fn assert_kernel_equivalent(n: usize, config_seed: u64, seed: u64, total: u64, chunk: u64) {
    let scalar_sim = {
        let p = ScalarBlock(Packed(protocol(n)));
        let init = p.0.pack_all(&p.0.inner().adversarial_uniform(config_seed));
        let mut sim = Simulator::new(p, init, seed);
        let mut left = total;
        while left > 0 {
            let step = chunk.min(left);
            sim.run_batched(step);
            left -= step;
        }
        sim
    };

    let kernel_sim = {
        let p = Packed(protocol(n));
        let init = p.pack_all(&p.inner().adversarial_uniform(config_seed));
        let mut sim = Simulator::new(p, init, seed);
        sim.run_batched(total);
        sim
    };

    assert_eq!(scalar_sim.interactions(), kernel_sim.interactions());
    assert_eq!(
        scalar_sim.states(),
        kernel_sim.states(),
        "kernel trajectory diverged (n={n}, config_seed={config_seed}, seed={seed}, \
         total={total}, chunk={chunk})"
    );
    assert_eq!(
        scalar_sim.protocol().0.inner().resets_triggered(),
        kernel_sim.protocol().inner().resets_triggered(),
        "kernel reset instrumentation diverged (n={n}, seed={seed})"
    );
    let mix = kernel_sim.protocol().inner().dispatch_mix();
    assert_eq!(
        mix.iter().sum::<u64>(),
        total,
        "kernel dispatch mix must account for every interaction"
    );
}

#[test]
fn kernel_equals_scalar_block_through_run_batched() {
    for n in [2usize, 3, 8, 33, 257] {
        for seed in 0..3u64 {
            assert_kernel_equivalent(n, seed.wrapping_mul(7919) + 1, seed, 60_000, 60_000);
        }
    }
}

#[test]
fn kernel_equivalence_holds_across_block_boundary_chunks() {
    // The engine samples schedule blocks of 4096 pairs; driving the
    // reference in chunks of 4095/4096/4097 exercises full blocks,
    // exact-boundary blocks, and every partial-tail size around them.
    for chunk in [4095u64, 4096, 4097] {
        assert_kernel_equivalent(48, 5, 11, 20_000, chunk);
    }
}

#[test]
fn kernel_transition_block_handles_repeated_agents_like_the_scalar_loop() {
    // Direct `transition_block` calls with crafted pair lists in which
    // the same agent appears many times per block — the read-after-write
    // hazard the in-order kernel must preserve exactly.
    let n = 64usize;
    let make_words = |p: &Packed<StableRanking>| p.pack_all(&p.inner().adversarial_uniform(9));
    let pair_sets: Vec<Vec<Pair>> = vec![
        vec![(0, 1); 64],
        (0..63).map(|k| (k as u32, k as u32 + 1)).collect(),
        (0..4096)
            .map(|k: u32| (k % n as u32, (k * 7 + 1) % n as u32))
            .filter(|&(i, j)| i != j)
            .collect(),
    ];
    for pairs in pair_sets {
        let kernel = Packed(protocol(n));
        let mut kernel_words = make_words(&kernel);
        let kernel_changed =
            PackedProtocol::transition_block(kernel.inner(), &mut kernel_words, &pairs);

        let reference = Packed(protocol(n));
        let mut ref_words = make_words(&reference);
        let mut ref_changed = 0u64;
        for &(i, j) in &pairs {
            let (u, v) =
                silent_ranking::population::pair_mut(&mut ref_words, i as usize, j as usize);
            ref_changed += u64::from(reference.inner().transition_packed(u, v));
        }

        assert_eq!(kernel_words, ref_words, "{} pairs", pairs.len());
        assert_eq!(kernel_changed, ref_changed);
        assert_eq!(
            kernel.inner().resets_triggered(),
            reference.inner().resets_triggered()
        );
    }
}

#[test]
fn kernel_equals_scalar_block_through_run_faulted() {
    for kind in ranking_faults::KINDS {
        let (n, seed, total) = (24usize, 4u64, 30_000u64);
        let at = total / 2;

        let p = ScalarBlock(Packed(protocol(n)));
        let init = p.0.pack_all(&p.0.inner().figure3());
        let mut scalar_hook = UnpackedHook::new(plan_for(kind, p.0.inner(), n, at, seed));
        let mut scalar_sim = Simulator::new(p, init, seed);
        scalar_sim.run_faulted(total, &mut scalar_hook);

        let p = Packed(protocol(n));
        let init = p.pack_all(&p.inner().figure3());
        let mut kernel_hook = UnpackedHook::new(plan_for(kind, p.inner(), n, at, seed));
        let mut kernel_sim = Simulator::new(p, init, seed);
        kernel_sim.run_faulted(total, &mut kernel_hook);

        assert_eq!(
            scalar_hook.inner().fired(),
            kernel_hook.inner().fired(),
            "{kind}: firing logs diverged"
        );
        assert_eq!(
            scalar_sim.states(),
            kernel_sim.states(),
            "{kind}: kernel faulted trajectory diverged"
        );
    }
}

#[test]
fn kernel_equals_scalar_block_through_the_sharded_engine() {
    // The shard engine routes every intra-phase lane through
    // `transition_block`, so sharded kernel runs must match sharded
    // scalar-reference runs at any shard count.
    use silent_ranking::shard::ShardedSimulator;
    for shards in [1usize, 4] {
        for (n, seed) in [(32usize, 2u64), (65, 6)] {
            let p = ScalarBlock(Packed(protocol(n)));
            let init = p.0.pack_all(&p.0.inner().adversarial_uniform(seed));
            let mut scalar_sim = ShardedSimulator::new(p, init, seed, shards);
            scalar_sim.run(50_000);

            let p = Packed(protocol(n));
            let init = p.pack_all(&p.inner().adversarial_uniform(seed));
            let mut kernel_sim = ShardedSimulator::new(p, init, seed, shards);
            kernel_sim.run(50_000);

            assert_eq!(
                scalar_sim.states(),
                kernel_sim.states(),
                "shards={shards}, n={n}, seed={seed}"
            );
            assert_eq!(scalar_sim.interactions(), kernel_sim.interactions());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Randomized kernel-vs-reference equivalence across sizes, seeds,
    /// horizons, and chunk decompositions.
    #[test]
    fn kernel_equivalence_holds_for_random_runs(
        n in 2usize..48,
        config_seed in 0u64..10_000,
        seed in 0u64..10_000,
        total in 0u64..25_000,
        chunk in 1u64..8000,
    ) {
        assert_kernel_equivalent(n, config_seed, seed, total, chunk);
    }
}

// ---------------------------------------------------------------------
// Fused ≡ slice: on the uniform `Schedule`, `Packed<StableRanking>`
// runs each chunk through the kernel as the pairs are drawn
// (`PairSource::draws`); on any other source the same kernel reads
// buffered `sample_block` slices. `Sliced` is such a source — the
// uniform stream behind a wrapper that forwards only the required
// methods — so the two paths and the scalar reference must be
// trajectory twins down to every counter and every probe block.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use silent_ranking::population::schedule::BLOCK_PAIRS;
use silent_ranking::population::{
    drive, CursorSource, FaultState, Frame, MemoryCheckpointer, NoPoll, PairSource, Probe,
    Protocol, Schedule, ScheduleCursor,
};
use silent_ranking::scenarios::FiredFault;

/// The uniform stream with the fused path hidden: `draws` keeps its
/// declining default, so every chunk takes the slice path.
struct Sliced(Schedule);

impl PairSource for Sliced {
    fn n(&self) -> usize {
        self.0.n()
    }

    fn next_pair(&mut self) -> (usize, usize) {
        self.0.next_pair()
    }

    fn sample_block(&mut self, max: usize) -> &[Pair] {
        self.0.sample_block(max)
    }
}

impl CursorSource for Sliced {
    fn cursor(&self) -> ScheduleCursor {
        self.0.cursor()
    }

    fn from_cursor(cursor: ScheduleCursor) -> Self {
        Sliced(Schedule::from_cursor(cursor))
    }
}

/// An active probe recording `(t, changed)` for every block.
#[derive(Default)]
struct ChangedLog(Vec<(u64, u64)>);

impl<P: Protocol> Probe<P> for ChangedLog {
    fn block(&mut self, _: &P, t: u64, changed: u64, _: usize, _: usize, _: &[P::State]) {
        self.0.push((t, changed));
    }
}

/// A schedule for `n` agents whose first `buffered` pairs sit in its
/// block buffer, as after a restore mid-block: the stream is that of
/// `Schedule::new(n, seed)`, but the first chunks start buffered.
fn buffered_schedule(n: usize, seed: u64, buffered: usize) -> Schedule {
    let mut s = Schedule::new(n, seed);
    let mut pending = Vec::with_capacity(buffered);
    while pending.len() < buffered {
        pending.extend_from_slice(s.sample_block(buffered - pending.len()));
    }
    Schedule::from_cursor(ScheduleCursor {
        pending,
        ..s.cursor()
    })
}

/// One step of a random run: scalar steps, then a burst, probed or not.
#[derive(Debug, Clone, Copy)]
struct Op {
    steps: u64,
    burst: u64,
    probed: bool,
}

fn random_ops(seed: u64) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let b = BLOCK_PAIRS as u64;
    (0..rng.random_range(1..8usize))
        .map(|_| Op {
            steps: [0, 0, 1, rng.random_range(2..300u64)][rng.random_range(0..4usize)],
            burst: [1, b - 1, b, b + 1, rng.random_range(1..3 * b)][rng.random_range(0..5usize)],
            probed: rng.random_range(0..2u32) == 0,
        })
        .collect()
}

/// Play `ops` on `sim`; returns the active probe's block log.
fn play<P: Protocol, S: PairSource>(sim: &mut Simulator<P, S>, ops: &[Op]) -> Vec<(u64, u64)> {
    let mut log = ChangedLog::default();
    for op in ops {
        for _ in 0..op.steps {
            sim.step();
        }
        if op.probed {
            sim.run_probed(op.burst, &mut log);
        } else {
            sim.run_batched(op.burst);
        }
    }
    log.0
}

const FUSED_SIZES: [usize; 6] = [2, 3, 4, 17, 64, 512];

fn assert_fused_equals_sliced(n: usize, config_seed: u64, seed: u64, buffered: usize, ops: &[Op]) {
    let start = protocol(n).adversarial_uniform(config_seed);
    let ctx = format!("config_seed={config_seed}");
    assert_paths_agree(&start, seed, buffered, ops, &ctx);
}

/// The fused kernel, the slice kernel (`Sliced`) and the scalar
/// reference `ScalarBlock(Packed(..))`, each run from `start`, end at
/// the same words, interactions and cursor, report the same probe
/// blocks (the per-block `changed` sequence) and the same resets; the
/// two kernel paths also count the same dispatch mix.
fn assert_paths_agree(start: &[StableState], seed: u64, buffered: usize, ops: &[Op], ctx: &str) {
    let n = start.len();
    let make = || {
        let p = Packed(protocol(n));
        let init = p.pack_all(start);
        (p, init)
    };
    let (p, init) = make();
    let mut fused = Simulator::with_source(p, init, buffered_schedule(n, seed, buffered));
    let fused_log = play(&mut fused, ops);

    let (p, init) = make();
    let mut sliced = Simulator::with_source(p, init, Sliced(buffered_schedule(n, seed, buffered)));
    let sliced_log = play(&mut sliced, ops);

    let (p, init) = make();
    let mut scalar =
        Simulator::with_source(ScalarBlock(p), init, buffered_schedule(n, seed, buffered));
    let scalar_log = play(&mut scalar, ops);

    let ctx = format!("n={n} {ctx} seed={seed} buffered={buffered} {ops:?}");
    assert_eq!(fused.states(), sliced.states(), "{ctx}");
    assert_eq!(fused.states(), scalar.states(), "{ctx}");
    assert_eq!(fused.interactions(), sliced.interactions(), "{ctx}");
    assert_eq!(fused.interactions(), scalar.interactions(), "{ctx}");
    assert_eq!(fused.source().cursor(), sliced.source().cursor(), "{ctx}");
    assert_eq!(fused.source().cursor(), scalar.source().cursor(), "{ctx}");
    assert_eq!(fused_log, sliced_log, "{ctx}: probe blocks");
    assert_eq!(fused_log, scalar_log, "{ctx}: probe blocks");
    let (f, s) = (fused.protocol().inner(), sliced.protocol().inner());
    assert_eq!(f.dispatch_mix(), s.dispatch_mix(), "{ctx}");
    assert_eq!(f.silent_skipped(), s.silent_skipped(), "{ctx}");
    assert_eq!(f.resets_triggered(), s.resets_triggered(), "{ctx}");
    assert_eq!(
        f.resets_triggered(),
        scalar.protocol().0.inner().resets_triggered(),
        "{ctx}"
    );
}

/// Probed bursts of 1, `BLOCK_PAIRS ± 1`, `BLOCK_PAIRS` and a
/// multi-block tail, each after three scalar steps.
fn burst_edges() -> Vec<Op> {
    let b = BLOCK_PAIRS as u64;
    [1, b - 1, b, b + 1, 3 * b + 7]
        .into_iter()
        .map(|burst| Op {
            steps: 3,
            burst,
            probed: true,
        })
        .collect()
}

#[test]
fn fused_equals_sliced_on_every_size_and_burst_edge() {
    let edges = burst_edges();
    for n in FUSED_SIZES {
        for buffered in [0, 1, BLOCK_PAIRS - 1, BLOCK_PAIRS + 5] {
            assert_fused_equals_sliced(n, 3, 7, buffered, &edges);
        }
    }
}

/// `legal()` at `n` with `k` agents, picked at random, rewritten to
/// random phase or waiting words: the regime where the kernel's null
/// exit skips {waiting, phase} → ranked pairs as well as ranked →
/// ranked ones.
fn legal_with_main_agents(n: usize, k: usize, seed: u64) -> Vec<StableState> {
    let p = protocol(n);
    let params = p.params();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut states = p.legal();
    let mut agents: Vec<usize> = (0..n).collect();
    for i in 0..k {
        agents.swap(i, rng.random_range(i..n));
        let kind = if rng.random_range(0..2u32) == 0 {
            MainKind::Waiting(rng.random_range(1..=params.wait_max()))
        } else {
            MainKind::Phase(rng.random_range(1..=params.coin_target()))
        };
        states[agents[i]] = StableState::Un(UnState {
            coin: rng.random_range(0..2u32) == 0,
            role: UnRole::Main {
                alive: rng.random_range(0..=params.l_max()),
                kind,
            },
        });
    }
    states
}

#[test]
fn fused_equals_sliced_with_unranked_main_agents_among_ranked_ones() {
    let edges = burst_edges();
    for n in [17usize, 64, 256] {
        for k in [1, 8, n / 4] {
            let seed = (n * 31 + k) as u64;
            let start = legal_with_main_agents(n, k, seed);
            for buffered in [0, BLOCK_PAIRS - 1] {
                assert_paths_agree(&start, seed, buffered, &edges, &format!("k={k}"));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Random sizes, bursts (block edges included), interleaved scalar
    /// steps, probed and unprobed bursts, and buffered entry.
    #[test]
    fn fused_equals_sliced_for_random_runs(
        size in 0usize..6,
        config_seed in 0u64..10_000,
        seed in 0u64..10_000,
        buffered in 0usize..2 * BLOCK_PAIRS,
        ops_seed in 0u64..10_000,
    ) {
        let ops = random_ops(ops_seed);
        assert_fused_equals_sliced(FUSED_SIZES[size], config_seed, seed, buffered, &ops);
    }
}

/// Where a faulted, checkpointed, probed `drive` run ends, and what it
/// saw on the way.
#[derive(Debug, PartialEq)]
struct DriveEnd {
    words: Vec<PackedState>,
    cursor: ScheduleCursor,
    mix: [u64; 4],
    resets: u64,
    saved: Vec<(Frame, Option<FaultState>)>,
    blocks: Vec<(u64, u64)>,
    fired: Vec<FiredFault>,
}

/// Drive `Packed<StableRanking>` at `n` from an adversarial start over
/// `source` for `total` interactions, with periodic `corrupt` faults,
/// a `MemoryCheckpointer` and an active probe.
fn drive_end<S: CursorSource>(
    n: usize,
    seed: u64,
    every: u64,
    save_every: u64,
    total: u64,
    source: S,
) -> DriveEnd {
    let p = Packed(protocol(n));
    let init = p.pack_all(&p.inner().adversarial_uniform(seed));
    let mut hook = UnpackedHook::new(FaultPlan::new(seed).periodic(
        every,
        every,
        ranking_faults::corrupt(p.inner(), n / 2),
    ));
    let mut saves = MemoryCheckpointer::every(save_every);
    let mut log = ChangedLog::default();
    let mut sim = Simulator::with_source(p, init, source);
    drive(&mut sim, total, &mut hook, &mut saves, NoPoll, &mut log);
    let kernel = sim.protocol().inner();
    DriveEnd {
        words: sim.states().to_vec(),
        cursor: sim.source().cursor(),
        mix: kernel.dispatch_mix(),
        resets: kernel.resets_triggered(),
        saved: saves.saved,
        blocks: log.0,
        fired: hook.inner().fired().to_vec(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// `drive` with periodic `corrupt` faults, a `MemoryCheckpointer`
    /// and an active probe: the fused and slice paths save the same
    /// frames (cursors included), report the same blocks and end at
    /// the same words and counters.
    #[test]
    fn fused_equals_sliced_through_drive_with_faults_and_saves(
        size in 0usize..6,
        seed in 0u64..10_000,
        every in 500u64..9000,
        save_every in 1000u64..9000,
    ) {
        let n = FUSED_SIZES[size];
        let total = 60_000u64;
        let fused = drive_end(n, seed, every, save_every, total, Schedule::new(n, seed));
        let sliced = drive_end(n, seed, every, save_every, total, Sliced(Schedule::new(n, seed)));
        prop_assert_eq!(fused.blocks.last().map(|&(t, _)| t), Some(total));
        prop_assert_eq!(fused.saved.len() as u64, total / save_every);
        prop_assert!(!fused.fired.is_empty());
        prop_assert_eq!(fused.mix.iter().sum::<u64>(), total);
        prop_assert_eq!(fused, sliced);
    }
}
