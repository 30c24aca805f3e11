//! The engine's load-bearing invariant: `run_batched` is bit-for-bit
//! trajectory-equivalent to scalar `step`-by-`step` execution under the
//! same seed, for every protocol and every batch-size decomposition.
//! Everything else in this repository (figure regeneration, theorem
//! validation, the throughput numbers in `BENCH_engine.json`) leans on
//! this property — the batched hot path must be a pure optimization.
//!
//! The second half pins the one run loop, `population::drive`: its hook
//! order is the same on every engine, and hooks composed through it
//! leave the trajectory untouched.

use std::cell::RefCell;

use proptest::prelude::*;

use silent_ranking::baselines::cai::CaiRanking;
use silent_ranking::dynamic::{ChurnConfig, DynamicPopulation};
use silent_ranking::population::observe::Meter;
use silent_ranking::population::primitives::coin::CoinPopulation;
use silent_ranking::population::primitives::epidemic::Epidemic;
use silent_ranking::population::schedule::BLOCK_PAIRS;
use silent_ranking::population::{
    drive, Control, CursorSource, Engine, FaultHook, MemoryCheckpointer, NoFaults, NullProbe,
    Observer, Packed, Probe, Protocol, Save, ScalarBlock, Simulator, StopReason, UnpackedHook,
    Watch,
};
use silent_ranking::ranking::stable::{PackedState, StableRanking};
use silent_ranking::ranking::Params;
use silent_ranking::scenarios::{ranking_faults, FaultPlan};
use silent_ranking::shard::ShardedSimulator;

/// Run `total` interactions twice from identical initial conditions —
/// once through scalar `step`, once through `run_batched` in chunks of
/// `batch` — and assert the final configurations and interaction
/// counters coincide exactly.
fn assert_equivalent<P, F>(make: F, seed: u64, total: u64, batch: u64)
where
    P: Protocol,
    F: Fn() -> (P, Vec<P::State>),
{
    let (protocol, init) = make();
    let mut scalar = Simulator::new(protocol, init, seed);
    for _ in 0..total {
        scalar.step();
    }

    let (protocol, init) = make();
    let mut batched = Simulator::new(protocol, init, seed);
    let mut left = total;
    while left > 0 {
        let chunk = batch.min(left);
        batched.run_batched(chunk);
        left -= chunk;
    }

    assert_eq!(scalar.interactions(), batched.interactions());
    assert_eq!(
        scalar.states(),
        batched.states(),
        "trajectories diverged (seed {seed}, total {total}, batch {batch})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 25, ..ProptestConfig::default() })]

    #[test]
    fn epidemic_batched_equals_scalar(
        seed in 0u64..10_000,
        total in 0u64..30_000,
        batch in 1u64..6000,
    ) {
        assert_equivalent(
            || {
                let p = Epidemic::new(200);
                let init = p.initial(100);
                (p, init)
            },
            seed,
            total,
            batch,
        );
    }

    #[test]
    fn coin_batched_equals_scalar(
        seed in 0u64..10_000,
        total in 0u64..30_000,
        batch in 1u64..6000,
    ) {
        assert_equivalent(
            || {
                let p = CoinPopulation::new(64);
                let init = p.all_tails();
                (p, init)
            },
            seed,
            total,
            batch,
        );
    }

    #[test]
    fn cai_batched_equals_scalar(
        seed in 0u64..10_000,
        total in 0u64..20_000,
        batch in 1u64..6000,
    ) {
        assert_equivalent(
            || {
                let p = CaiRanking::new(32);
                let init = p.all_equal();
                (p, init)
            },
            seed,
            total,
            batch,
        );
    }

    #[test]
    fn stable_ranking_batched_equals_scalar(
        config_seed in 0u64..10_000,
        seed in 0u64..10_000,
        total in 0u64..20_000,
        batch in 1u64..6000,
    ) {
        assert_equivalent(
            || {
                let p = StableRanking::new(Params::new(48));
                let init = p.adversarial_uniform(config_seed);
                (p, init)
            },
            seed,
            total,
            batch,
        );
    }

    /// Batch-size decompositions beyond fixed chunks: interleave scalar
    /// steps with batched bursts of varying sizes and compare against a
    /// single straight batched run.
    #[test]
    fn interleaved_execution_equals_pure_batched(
        seed in 0u64..10_000,
        a in 0u64..3000,
        b in 0u64..3000,
        c in 0u64..3000,
    ) {
        let total = a + b + c;
        let make = || {
            let p = StableRanking::new(Params::new(32));
            let init = p.figure3();
            (p, init)
        };

        let (protocol, init) = make();
        let mut pure = Simulator::new(protocol, init, seed);
        pure.run_batched(total);

        let (protocol, init) = make();
        let mut mixed = Simulator::new(protocol, init, seed);
        mixed.run_batched(a);
        for _ in 0..b {
            mixed.step();
        }
        mixed.run_batched(c);

        prop_assert_eq!(mixed.interactions(), total);
        prop_assert_eq!(pure.states(), mixed.states());
    }
}

// ----------------------------------------------------------------------
// The one driver: hook order and hook composition
// ----------------------------------------------------------------------

/// One shared log of `(interaction count, event)` the ordering test's
/// hooks append to.
type Log = RefCell<Vec<(u64, &'static str)>>;

/// A fault hook that fires at fixed counts and only logs.
struct LogFault<'a> {
    at: Vec<u64>,
    log: &'a Log,
}

impl<P: Protocol> FaultHook<P> for LogFault<'_> {
    fn next_fire(&mut self, now: u64) -> Option<u64> {
        self.at.iter().copied().find(|&t| t >= now)
    }

    fn fire(&mut self, _protocol: &P, t: u64, _states: &mut [P::State]) {
        self.log.borrow_mut().push((t, "fault"));
        self.at.retain(|&x| x > t);
    }
}

/// A checkpoint role due at fixed counts that only logs — usable on
/// every engine, framed or not.
struct LogSave<'a> {
    at: Vec<u64>,
    log: &'a Log,
}

impl<E: Engine + ?Sized, H: ?Sized> Save<E, H> for LogSave<'_> {
    const ACTIVE: bool = true;

    fn next_due(&mut self, now: u64) -> Option<u64> {
        self.at.iter().copied().find(|&t| t >= now)
    }

    fn save(&mut self, engine: &E, _faults: &H) {
        let t = engine.interactions();
        self.log.borrow_mut().push((t, "save"));
        self.at.retain(|&x| x > t);
    }
}

/// An observer that only logs its polls.
struct LogPoll<'a>(&'a Log);

impl<P: Protocol> Observer<P> for LogPoll<'_> {
    fn observe(&mut self, _protocol: &P, t: u64, _states: &[P::State]) -> Control {
        self.0.borrow_mut().push((t, "poll"));
        Control::Continue
    }
}

/// A probe that logs the driver's fault and poll notifications.
struct LogProbe<'a>(&'a Log);

impl<P: Protocol> Probe<P> for LogProbe<'_> {
    fn checkpoint(&mut self, _protocol: &P, t: u64, _stopping: bool) {
        self.0.borrow_mut().push((t, "probe.checkpoint"));
    }

    fn fault(&mut self, _protocol: &P, t: u64, _states: &[P::State]) {
        self.0.borrow_mut().push((t, "probe.fault"));
    }
}

/// Drive `engine` for 1000 interactions with a fault, a save and a poll
/// all due at 0 (the entry), 500 and 1000 (the deadline), and return the
/// log.
fn ordering_log<E: Engine>(engine: &mut E) -> Vec<(u64, &'static str)> {
    let log = Log::default();
    let times = vec![0, 500, 1000];
    let mut fault = LogFault {
        at: times.clone(),
        log: &log,
    };
    let save = LogSave {
        at: times,
        log: &log,
    };
    let mut observer = LogPoll(&log);
    let mut probe = LogProbe(&log);
    let stop = drive(
        engine,
        1000,
        &mut fault,
        save,
        Watch::new(&mut observer, 500),
        &mut probe,
    );
    assert_eq!(stop, StopReason::BudgetExhausted);
    assert_eq!(engine.interactions(), 1000);
    log.into_inner()
}

/// `drive`'s documented order at a shared count — faults fire (then the
/// probe sees the fault), checkpoints save, the observer polls (then the
/// probe sees the poll) — holds on every engine, at entry, mid-run and
/// at the deadline.
#[test]
fn drive_orders_hooks_identically_on_every_engine() {
    let n = 16;
    let protocol = StableRanking::new(Params::new(n));
    let expected: Vec<(u64, &str)> = [0u64, 500, 1000]
        .into_iter()
        .flat_map(|t| ["fault", "probe.fault", "save", "poll", "probe.checkpoint"].map(|e| (t, e)))
        .collect();

    let mut sim = Simulator::new(protocol.clone(), protocol.initial(), 3);
    assert_eq!(ordering_log(&mut sim), expected, "Simulator");
    for shards in [1, 4] {
        let mut sharded = ShardedSimulator::new(protocol.clone(), protocol.initial(), 3, shards);
        assert_eq!(ordering_log(&mut sharded), expected, "shards={shards}");
    }
    let mut dynpop =
        DynamicPopulation::<StableRanking>::new(Params::new(n), ChurnConfig::quiescent(), 3);
    assert_eq!(ordering_log(&mut dynpop), expected, "DynamicPopulation");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 25, ..ProptestConfig::default() })]

    /// An observed *and* checkpointed run through `drive` — observer
    /// polls and saves splitting bursts at unrelated cadences — follows
    /// the plain `run_batched` trajectory bit for bit, and both hooks
    /// see the counts they asked for.
    #[test]
    fn observed_and_checkpointed_run_equals_run_batched(
        config_seed in 0u64..10_000,
        seed in 0u64..10_000,
        total in 1u64..20_000,
        poll_every in 1u64..6000,
        save_every in 1u64..6000,
    ) {
        let protocol = StableRanking::new(Params::new(48));
        let init = protocol.adversarial_uniform(config_seed);

        let mut plain = Simulator::new(protocol.clone(), init.clone(), seed);
        plain.run_batched(total);

        let mut hooked = Simulator::new(protocol, init, seed);
        let mut meter = Meter::new();
        let mut ckpt = MemoryCheckpointer::every(save_every);
        let stop = drive(
            &mut hooked,
            total,
            &mut NoFaults,
            &mut ckpt,
            Watch::new(&mut meter, poll_every),
            &mut NullProbe,
        );

        prop_assert_eq!(stop, StopReason::BudgetExhausted);
        prop_assert_eq!(hooked.interactions(), total);
        prop_assert_eq!(hooked.states(), plain.states());
        // Polls at entry, every `poll_every`, and at the deadline.
        prop_assert_eq!(meter.checkpoints(), total.div_ceil(poll_every) + 1);
        // Saves on the cadence grid, the deadline included.
        prop_assert_eq!(ckpt.saved.len() as u64, total / save_every);
        for (k, (frame, _)) in ckpt.saved.iter().enumerate() {
            prop_assert_eq!(frame.interactions, (k as u64 + 1) * save_every);
        }
    }
}

// ----------------------------------------------------------------------
// The silent fast-forward
// ----------------------------------------------------------------------

/// A legal (certified-silent) start for the kernel path.
fn legal_kernel(n: usize, seed: u64) -> Simulator<Packed<StableRanking>> {
    let p = Packed(StableRanking::new(Params::new(n)));
    let init = p.pack_all(&p.inner().legal());
    Simulator::new(p, init, seed)
}

/// The faithful twin of [`legal_kernel`]: the scalar block loop, which
/// never certifies, so it runs every pair.
fn legal_scalar(n: usize, seed: u64) -> Simulator<ScalarBlock<Packed<StableRanking>>> {
    let p = ScalarBlock(Packed(StableRanking::new(Params::new(n))));
    let init = p.0.pack_all(&p.0.inner().legal());
    Simulator::new(p, init, seed)
}

/// An active probe that only counts blocks.
struct CountBlocks(u64);

impl<P: Protocol> Probe<P> for CountBlocks {
    fn block(&mut self, _: &P, _: u64, _: u64, _: usize, _: usize, _: &[P::State]) {
        self.0 += 1;
    }
}

/// The fast path engages only on a certified configuration, for a burst
/// of at least one block, under an inactive probe — and wherever it
/// engages or not, the run ends where the faithful loop does.
#[test]
fn silent_fast_forward_engages_only_under_its_three_conditions() {
    let n = 32;
    let block = BLOCK_PAIRS as u64;
    let skipped = |sim: &Simulator<Packed<StableRanking>>| sim.protocol().inner().silent_skipped();
    let check = |sim: &Simulator<Packed<StableRanking>>, count: u64| {
        let mut twin = legal_scalar(n, 9);
        twin.run_batched(count);
        assert_eq!(sim.states(), twin.states());
        assert_eq!(sim.interactions(), twin.interactions());
        assert_eq!(sim.source().cursor(), twin.source().cursor());
        assert_eq!(sim.protocol().inner().dispatch_mix(), [0, 0, 0, count]);
    };

    let mut sim = legal_kernel(n, 9);
    sim.run_batched(100 * block + 17);
    assert_eq!(skipped(&sim), 100 * block + 17, "all three hold: skipped");
    check(&sim, 100 * block + 17);

    let mut sim = legal_kernel(n, 9);
    sim.run_batched(block - 1);
    assert_eq!(skipped(&sim), 0, "a burst under one block runs every pair");
    check(&sim, block - 1);

    let mut sim = legal_kernel(n, 9);
    let mut probe = CountBlocks(0);
    sim.run_probed(10 * block, &mut probe);
    assert_eq!(skipped(&sim), 0, "an active probe sees every block");
    assert_eq!(probe.0, 10);
    check(&sim, 10 * block);

    // An unranked agent: no certificate, every pair runs.
    let p = Packed(StableRanking::new(Params::new(n)));
    let mut init = p.pack_all(&p.inner().legal());
    init[3] = PackedState::pack(&p.inner().elector(true));
    let mut sim = Simulator::new(p, init, 9);
    sim.run_batched(10 * block);
    assert_eq!(
        skipped(&sim),
        0,
        "an uncertified configuration runs every pair"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// A faulted, checkpointed soak through `drive` from a legal start:
    /// the kernel path, which fast-forwards every certified burst,
    /// matches its faithful twin (`ScalarBlock`, which never certifies)
    /// in the final words, the interaction count, every saved frame
    /// (scheduler cursors included) with its fault state, and the fault
    /// log; its dispatch mix still accounts for every interaction.
    #[test]
    fn silent_fast_forward_through_drive_equals_the_faithful_twin(
        seed in 0u64..10_000,
        save_every in 4096u64..20_000,
    ) {
        let n = 16;
        let period = 200 * (n * n) as u64;
        let total = 12 * period;
        let plan = |p: &StableRanking| {
            UnpackedHook::new(FaultPlan::new(seed ^ 0xF00D).periodic(
                period / 2,
                period,
                ranking_faults::corrupt(p, n / 4),
            ))
        };

        let mut fast = legal_kernel(n, seed);
        let mut fast_hook = plan(fast.protocol().inner());
        let mut fast_saves = MemoryCheckpointer::every(save_every);
        fast.run_faulted_checkpointed(total, &mut fast_hook, &mut fast_saves);

        let mut faithful = legal_scalar(n, seed);
        let mut faithful_hook = plan(faithful.protocol().0.inner());
        let mut faithful_saves = MemoryCheckpointer::every(save_every);
        faithful.run_faulted_checkpointed(total, &mut faithful_hook, &mut faithful_saves);

        prop_assert_eq!(fast.interactions(), total);
        prop_assert_eq!(fast.interactions(), faithful.interactions());
        prop_assert_eq!(fast.states(), faithful.states());
        prop_assert_eq!(fast.source().cursor(), faithful.source().cursor());
        prop_assert_eq!(fast_saves.saved.len() as u64, total / save_every);
        prop_assert_eq!(&fast_saves.saved, &faithful_saves.saved);
        prop_assert_eq!(fast_hook.inner().fired(), faithful_hook.inner().fired());
        prop_assert_eq!(fast_hook.inner().fired().len(), 12);

        let kernel = fast.protocol().inner();
        prop_assert_eq!(kernel.dispatch_mix().iter().sum::<u64>(), total);
        prop_assert!(kernel.silent_skipped() > 0, "the fast path never engaged");
        prop_assert!(kernel.silent_skipped() < total, "faults must force faithful stretches");
    }
}
