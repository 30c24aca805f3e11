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
use silent_ranking::population::{
    drive, Control, Engine, FaultHook, MemoryCheckpointer, NoFaults, NullProbe, Observer, Probe,
    Protocol, Save, Simulator, StopReason, Watch,
};
use silent_ranking::ranking::stable::StableRanking;
use silent_ranking::ranking::Params;
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
