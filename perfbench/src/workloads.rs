//! The three workloads. Each has a `setup` (timed separately, repeated)
//! and a `run` generic over [`Mode`], so the untraced and the traced run
//! execute the same workload code on the same inputs.

use std::path::{Path, PathBuf};
use std::time::Instant;

use silent_ranking::dynamic::{ChurnConfig, DynamicPopulation, MIN_LIVE};
use silent_ranking::population::{
    is_valid_ranking, silence, HookState, Observer, Packed, Schedule, Simulator, UnpackedHook,
};
use silent_ranking::ranking::stable::{PackedState, StableRanking};
use silent_ranking::ranking::Params;
use silent_ranking::scenarios::{ranking_faults, FaultPlan, Recovery};
use silent_ranking::snapshot::{Crc64, Meta, Rotation, SnapshotSink};
use silent_ranking::telemetry::RunManifest;

use crate::ledger::{Layer, Mode};

/// Which workload, with the parameters that define it.
#[derive(Debug, Clone)]
pub enum Workload {
    Stabilize(StabilizeParams),
    Soak(SoakParams),
    Churn(ChurnParams),
}

/// Reference-host seconds one task takes: `--seconds` sets how many
/// tasks a run measures, never how long a task runs, so a seed and a
/// duration always name the same inputs.
fn tasks_for(seconds: u64, task_s: f64) -> u64 {
    ((seconds as f64 / task_s).round() as u64).max(1)
}

impl Workload {
    pub fn new(name: &str, seconds: u64) -> Option<Self> {
        Some(match name {
            "stabilize" => Workload::Stabilize(StabilizeParams {
                n: 512,
                tasks: tasks_for(seconds, 0.15),
            }),
            "soak" => {
                let n = 256u64;
                Workload::Soak(SoakParams {
                    n: n as usize,
                    faults: tasks_for(seconds, 0.2),
                    period: 400 * n * n,
                    first_fire: 50 * n * n,
                    checkpoint_every: 100 * n * n,
                })
            }
            "churn" => {
                let n = 256u64;
                Workload::Churn(ChurnParams {
                    n: n as usize,
                    tasks: tasks_for(seconds, 1.2),
                    lambda: 1.0,
                    warmup: 120 * n * n,
                    sampled: 1000 * n * n,
                    sample_every: n * n / 4,
                })
            }
            _ => return None,
        })
    }

    pub fn name(&self) -> &'static str {
        match self {
            Workload::Stabilize(_) => "stabilize",
            Workload::Soak(_) => "soak",
            Workload::Churn(_) => "churn",
        }
    }

    /// The parameters as `key=value` pairs for the result file.
    pub fn params(&self) -> Vec<(&'static str, String)> {
        match self {
            Workload::Stabilize(p) => vec![
                ("n", p.n.to_string()),
                ("tasks", p.tasks.to_string()),
                ("start", "adversarial_uniform".into()),
                ("poll_every", p.n.to_string()),
                ("budget", p.budget().to_string()),
            ],
            Workload::Soak(p) => vec![
                ("n", p.n.to_string()),
                ("start", "legal".into()),
                ("fault", "corrupt".into()),
                ("faults", p.faults.to_string()),
                ("period", p.period.to_string()),
                ("first_fire", p.first_fire.to_string()),
                ("horizon", p.horizon().to_string()),
                ("poll_every_while_broken", p.n.to_string()),
                ("checkpoint_every", p.checkpoint_every.to_string()),
            ],
            Workload::Churn(p) => vec![
                ("n", p.n.to_string()),
                ("tasks", p.tasks.to_string()),
                ("arrivals_per_million", p.lambda.to_string()),
                ("mean_lifetime", p.lifetime().to_string()),
                ("warmup", p.warmup.to_string()),
                ("sampled", p.sampled.to_string()),
                ("sample_every", p.sample_every.to_string()),
            ],
        }
    }
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall time of the timed phase.
    pub wall_s: f64,
    /// Interactions executed in the timed phase.
    pub interactions: u64,
    /// The workload's headline interaction count (Σ interactions to
    /// valid for stabilize, the fixed horizon otherwise).
    pub headline_interactions: u64,
    /// Wall seconds from a broken ranking to the first valid poll.
    pub recover_s: Vec<f64>,
    /// The same stretches in interactions.
    pub recover_interactions: Vec<u64>,
    pub valid_frac: f64,
    pub attempted: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// CRC-64 over every logical result: interaction counts, recovery
    /// points, validity samples and final state words.
    pub digest: u64,
    /// Extra counters the per-layer report needs, by name.
    pub counters: Vec<(&'static str, f64)>,
}

impl Outcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

fn words_crc(crc: &mut Crc64, states: &[PackedState]) {
    for s in states {
        crc.update_u64(s.bits());
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The `i`-th derived seed of stream `salt` under the run seed.
fn derive(seed: u64, salt: u64, i: u64) -> u64 {
    splitmix(splitmix(seed ^ salt.wrapping_mul(0xA24B_AED4_963E_E407)) ^ i)
}

// ---------------------------------------------------------------------
// stabilize
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct StabilizeParams {
    pub n: usize,
    pub tasks: u64,
}

impl StabilizeParams {
    /// `scaling`'s budget: 10 000 · n² log₂ n.
    fn budget(&self) -> u64 {
        let n = self.n as f64;
        (10_000.0 * n * n * n.log2()) as u64
    }
}

pub struct StabilizeTask<M: Mode> {
    sim: Simulator<M::Proto, M::Source>,
}

pub fn stabilize_setup<M: Mode>(p: &StabilizeParams, seed: u64) -> Vec<StabilizeTask<M>> {
    (0..p.tasks)
        .map(|i| {
            let protocol = StableRanking::new(Params::new(p.n));
            let init = protocol.adversarial_uniform(derive(seed, 1, i));
            let kernel = Packed(protocol);
            let words = kernel.pack_all(&init);
            let source = M::source(Schedule::new(p.n, derive(seed, 2, i)));
            StabilizeTask {
                sim: Simulator::with_source(M::protocol(kernel), words, source),
            }
        })
        .collect()
}

pub fn stabilize_run<M: Mode>(p: &StabilizeParams, tasks: Vec<StabilizeTask<M>>) -> Outcome {
    let mut out = Outcome::default();
    let mut crc = Crc64::new();
    let mut valid = 0u64;
    let clock = Instant::now();
    for (i, mut task) in tasks.into_iter().enumerate() {
        let start = Instant::now();
        let stop = task.sim.run_until(
            |s| M::time(Layer::Poll, 1, || is_valid_ranking(s)),
            p.budget(),
            p.n as u64,
        );
        let silent = M::time(Layer::Silence, 1, || {
            silence::is_silent(task.sim.protocol(), task.sim.states())
        });
        let took = start.elapsed().as_secs_f64();
        let t = task.sim.interactions();
        crc.update_u64(t);
        words_crc(&mut crc, task.sim.states());
        out.interactions += t;
        match stop.converged_at() {
            Some(at) => {
                out.headline_interactions += at;
                out.recover_s.push(took);
                out.recover_interactions.push(at);
            }
            None => out.headline_interactions += t,
        }
        let ok = stop.converged_at().is_some() && silent;
        valid += u64::from(ok);
        out.check(ok, || {
            format!("seed task {i}: stop={stop:?} silent={silent} after {t} interactions")
        });
    }
    out.wall_s = clock.elapsed().as_secs_f64();
    out.valid_frac = valid as f64 / p.tasks as f64;
    out.digest = crc.finish();
    out
}

// ---------------------------------------------------------------------
// soak
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct SoakParams {
    pub n: usize,
    pub faults: u64,
    pub period: u64,
    pub first_fire: u64,
    pub checkpoint_every: u64,
}

impl SoakParams {
    /// The last fault fires `period - first_fire` before the end, so
    /// every fault has a full gap to recover in.
    fn horizon(&self) -> u64 {
        self.faults * self.period
    }
}

pub struct SoakRun<M: Mode> {
    sim: Simulator<M::Proto, M::Source>,
    hook: M::Hook,
    sink: M::Sink,
    rotation: Rotation,
}

pub fn soak_setup<M: Mode>(
    p: &SoakParams,
    seed: u64,
    dir: &Path,
    manifest: &RunManifest,
) -> std::io::Result<SoakRun<M>> {
    let protocol = StableRanking::new(Params::new(p.n));
    let fault = ranking_faults::standard("corrupt", &protocol, p.n);
    let plan = FaultPlan::new(derive(seed, 3, 0)).periodic(p.first_fire, p.period, fault);
    let kernel = Packed(protocol);
    let words = kernel.pack_all(&kernel.inner().legal());
    let rotation = Rotation::open(dir)?;
    let meta = Meta::new("perfbench soak", seed, manifest);
    let sink = SnapshotSink::every(rotation.clone(), p.checkpoint_every, meta);
    let source = M::source(Schedule::new(p.n, derive(seed, 4, 0)));
    Ok(SoakRun {
        sim: Simulator::with_source(M::protocol(kernel), words, source),
        hook: M::hook(UnpackedHook::new(plan)),
        sink: M::sink(sink),
        rotation,
    })
}

pub fn soak_run<M: Mode>(p: &SoakParams, run: SoakRun<M>) -> Outcome {
    let SoakRun {
        mut sim,
        mut hook,
        mut sink,
        rotation,
    } = run;
    let mut out = Outcome::default();
    let mut recovery = Recovery::new(|_: &M::Proto, s: &[PackedState]| is_valid_ranking(s));
    let horizon = p.horizon();
    let mut fired_wall = Vec::new();
    let clock = Instant::now();
    while sim.interactions() < horizon {
        let now = sim.interactions();
        // Poll every n while a fault is unrecovered; otherwise run
        // straight to the next fire, which lands at the burst's end.
        let target = if recovery.all_recovered() {
            M::plan(&hook).peek_next().unwrap_or(horizon).min(horizon)
        } else {
            (now + p.n as u64).min(horizon)
        };
        let seen = M::plan(&hook).fired().len();
        sim.run_faulted_checkpointed(target - now, &mut hook, &mut sink);
        for f in M::plan(&hook).fired()[seen..].iter().copied() {
            recovery.note_fault(f.at, f.name);
            fired_wall.push(clock.elapsed().as_secs_f64());
        }
        if !recovery.all_recovered() {
            M::time(Layer::Poll, 1, || {
                recovery.observe(sim.protocol(), sim.interactions(), sim.states());
            });
            if recovery.all_recovered() {
                let at = clock.elapsed().as_secs_f64();
                for (e, &f) in recovery
                    .events()
                    .iter()
                    .zip(&fired_wall)
                    .skip(out.recover_s.len())
                {
                    out.recover_s.push(at - f);
                    out.recover_interactions
                        .push(e.recovery_interactions().expect("all recovered"));
                }
            }
        }
    }
    let valid = is_valid_ranking(sim.states());
    let silent = M::time(Layer::Silence, 1, || {
        silence::is_silent(sim.protocol(), sim.states())
    });
    out.wall_s = clock.elapsed().as_secs_f64();
    out.interactions = sim.interactions();
    out.headline_interactions = horizon;

    let mut crc = Crc64::new();
    crc.update_u64(sim.interactions());
    let events = recovery.events();
    let mut broken = 0u64;
    for (i, e) in events.iter().enumerate() {
        crc.update_u64(e.injected_at);
        crc.update_u64(e.recovered_at.unwrap_or(u64::MAX));
        // A poll at the next fault's count already sees that fault, so
        // recovery must come strictly before it; the last fault has
        // until the end of the horizon.
        let next = events.get(i + 1).map_or(horizon + 1, |f| f.injected_at);
        let ok = e.recovered_at.is_some_and(|r| r < next);
        broken += e.recovered_at.unwrap_or(horizon).min(next) - e.injected_at;
        out.check(ok, || {
            format!(
                "fault {i} at {} recovered at {:?}, next fault at {next}",
                e.injected_at, e.recovered_at
            )
        });
    }
    out.check(events.len() as u64 == p.faults, || {
        format!("{} faults fired, {} planned", events.len(), p.faults)
    });
    out.check(valid && silent, || {
        format!("final configuration valid={valid} silent={silent}")
    });
    words_crc(&mut crc, sim.states());
    out.digest = crc.finish();
    out.valid_frac = 1.0 - broken as f64 / horizon as f64;

    // The horizon is a multiple of the cadence, so the engine's last
    // save is the final frame: the rotation must decode to exactly it.
    let last = rotation.latest_valid();
    let frame = sim.frame();
    let fault = hook.export_state();
    let restored = last
        .as_ref()
        .is_some_and(|l| l.snapshot.frame == frame && l.snapshot.fault == fault);
    out.check(restored, || {
        format!(
            "latest valid snapshot {:?} is not the final frame at t={}",
            last.as_ref().map(|l| l.path.clone()),
            frame.interactions
        )
    });
    let s = M::sink_ref(&sink);
    out.counters = vec![
        ("snapshot.saves", s.saves as f64),
        ("snapshot.failures", s.failures as f64),
    ];
    out
}

// ---------------------------------------------------------------------
// churn
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct ChurnParams {
    pub n: usize,
    pub tasks: u64,
    /// Arrivals per 10⁶ interactions.
    pub lambda: f64,
    pub warmup: u64,
    pub sampled: u64,
    pub sample_every: u64,
}

/// Under churn the ranking is never whole: arrivals wait for a rank and
/// reset waves sweep it away. An outage is a stretch in which fewer than
/// this share of the live agents hold a valid rank.
const OUTAGE_BELOW: f64 = 0.5;

impl ChurnParams {
    /// M/M/∞ with the equilibrium population at `n`, as `BENCH_dyn` runs
    /// it.
    fn lifetime(&self) -> f64 {
        self.n as f64 * 1.0e6 / self.lambda
    }
}

pub fn churn_setup<M: Mode>(p: &ChurnParams, seed: u64) -> Vec<DynamicPopulation<M::Proto>> {
    (0..p.tasks)
        .map(|i| {
            let config = ChurnConfig::poisson(p.lambda, p.lifetime());
            DynamicPopulation::new(Params::new(p.n), config, derive(seed, 5, i))
        })
        .collect()
}

pub fn churn_run<M: Mode>(p: &ChurnParams, engines: Vec<DynamicPopulation<M::Proto>>) -> Outcome {
    let mut out = Outcome::default();
    let mut crc = Crc64::new();
    let (mut valid_sum, mut samples, mut live_sum) = (0.0, 0u64, 0u64);
    let names = [
        "dyn_joins",
        "dyn_leaves",
        "dyn_hibernates",
        "dyn_revives",
        "dyn_epochs",
    ];
    let mut totals = [0u64; 5];
    let clock = Instant::now();
    for (i, mut engine) in engines.into_iter().enumerate() {
        M::time(Layer::DynRun, 1, || engine.run(p.warmup));
        // An outage starts at the first sample below OUTAGE_BELOW after
        // one at or above it, and ends at the next sample back above.
        let (mut outage_since, mut seen_up) = (None, false);
        let mut bad = 0u64;
        for _ in 0..p.sampled / p.sample_every {
            M::time(Layer::DynRun, 1, || engine.run(p.sample_every));
            let v = M::time(Layer::Poll, 1, || engine.fraction_valid());
            let live = engine.live();
            let now = clock.elapsed().as_secs_f64();
            if v >= OUTAGE_BELOW {
                seen_up = true;
                if let Some((since, t)) = outage_since.take() {
                    out.recover_s.push(now - since);
                    out.recover_interactions.push(engine.interactions() - t);
                }
            } else if seen_up {
                outage_since.get_or_insert((now, engine.interactions()));
            }
            bad += u64::from(!(0.0..=1.0).contains(&v) || live < MIN_LIVE);
            valid_sum += v;
            live_sum += live as u64;
            samples += 1;
            crc.update_u64(v.to_bits());
            crc.update_u64(live as u64);
        }
        out.check(bad == 0, || {
            format!("engine {i}: {bad} samples out of range or below MIN_LIVE")
        });
        crc.update_u64(engine.interactions());
        words_crc(&mut crc, engine.states());
        out.interactions += engine.interactions();
        let metrics = engine.metrics().snapshot();
        for (t, name) in totals.iter_mut().zip(names) {
            *t += metrics.counter(name).unwrap_or(0);
        }
    }
    out.wall_s = clock.elapsed().as_secs_f64();
    out.headline_interactions = out.interactions;
    out.valid_frac = valid_sum / samples.max(1) as f64;
    out.digest = crc.finish();
    out.counters = vec![
        ("dynamic.joins", totals[0] as f64),
        ("dynamic.leaves", totals[1] as f64),
        ("dynamic.hibernates", totals[2] as f64),
        ("dynamic.revives", totals[3] as f64),
        ("dynamic.epochs", totals[4] as f64),
        ("dynamic.live_mean", live_sum as f64 / samples.max(1) as f64),
    ];
    out
}

/// A scratch directory inside the benchmark's output directory, removed
/// when dropped.
pub struct ScratchDir(pub PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
