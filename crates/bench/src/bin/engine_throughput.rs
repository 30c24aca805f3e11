//! Engine throughput: scalar stepping vs the batched hot path vs the
//! packed-word state representation.
//!
//! Measures interactions/second of [`Simulator::step`] in a loop (the
//! reference execution path) against [`Simulator::run_batched`] (the
//! block-sampling hot path), over `n ∈ {10³, 10⁴, 10⁵}` by default, for:
//!
//! * the one-way epidemic (engine-bound: a two-byte compare per
//!   transition — the engine's speed-of-light);
//! * the paper's `StableRanking` over its structured enum states
//!   (transition-bound: the protocol dominates);
//! * `StableRanking` over the packed single-word representation with
//!   the scalar (pair-at-a-time) block loop
//!   (`ScalarBlock<Packed<StableRanking>>`): flat `u64` storage, and
//!   every pair through `transition_packed` — the kernel's own per-pair
//!   body, without the null-first exit or the per-chunk flush;
//! * `StableRanking` through its block transition kernel
//!   (`Packed<StableRanking>`, see `ranking::stable::kernel`): whole
//!   schedule blocks walked in one in-order pass — the null-first exit
//!   (`PackedState::is_null_pair`: every pair Protocol 3 leaves
//!   unchanged, i.e. a ranked responder met by a ranked initiator of
//!   another rank or by a waiting or phase initiator, is skipped), then
//!   the same per-pair body, with the counters flushed once per
//!   chunk. The kernel rows
//!   also record the *dispatch mix* — the fraction of interactions
//!   each transition class executed — so a throughput shift can be
//!   attributed to a workload shift vs a kernel change;
//! * both packed paths again on the *converged* configuration
//!   (`stable_ranking_silent` / `stable_ranking_kernel_silent`): a
//!   fully ranked population is silent, every meeting is a
//!   ranked×ranked null pair, and a stabilized simulation spends all
//!   further interactions there — the regime where the kernel's null
//!   exit takes every pair. `run_batched` would not execute those pairs
//!   at all (it certifies the configuration silent and jumps the pair
//!   stream past the burst), so these two rows time their batched
//!   column with a bench-local copy of the faithful block loop: one
//!   `Protocol::transition_pairs` call per chunk on the uniform
//!   `Schedule`, exactly as the engine makes it — the kernel row
//!   therefore times the *fused* path, where each pair is run as it is
//!   drawn;
//! * `stable_ranking_kernel_silent_ff`: the converged configuration
//!   through `run_batched` itself, i.e. the silent fast-forward
//!   (informational; it times the certificate and the RNG jump, not a
//!   transition path).
//!
//! All paths execute the identical trajectory, so every comparison is
//! pure representation/engine overhead.
//!
//! Two extra kernel rows measure the telemetry **probe seam**
//! (`population::Probe`): `stable_ranking_kernel_null_probe` times
//! `run_probed::<NullProbe>` against the unprobed `run_batched` in
//! interleaved pairs (in these rows the "scalar" column is the paired
//! unprobed throughput), and `stable_ranking_kernel_recorded` times a
//! full `telemetry::Recorder` riding the same blocks. The JSON artifact
//! additionally records each size's best paired null-probe ratio
//! (`probe_overhead`), and every artifact now embeds a run-provenance
//! `manifest` block (arguments, git revision, rustc, host cores).
//!
//! Writes `BENCH_engine.json` (override with `out=`) so later
//! performance work has a recorded trajectory to beat. Pass
//! `baseline=BENCH_engine.json` to print per-protocol speedup against a
//! previously recorded artifact — perf regressions visible in one
//! command. Pass `--smoke` to assert (exit 1 on failure) that the
//! packed path is at least `floor=` (default 0.9) times the enum path
//! and, at `n ≥ 10⁴`, that the kernel is at least `kernel_floor=`
//! (default 0.7) times the scalar packed path on the transient
//! workload, at least `silent_floor=` (default 1.05) times it on
//! the converged workload (the two rows run the same per-pair body, so
//! these two floors measure exactly the kernel's null-first exit and
//! per-chunk flush; on the transient the exit also skips the waiting
//! and phase initiators that meet a ranked responder), that the best
//! paired fused/slices ratio on the converged workload reaches
//! `FUSED_FLOOR` (1.05, fixed), that the best paired null-probe ratio
//! reaches `probe_floor=` (default 0.95),
//! and that the fast-forward row ends bit-identical (words and
//! scheduler cursor) to the faithful kernel silent row — the CI
//! throughput smoke.
//!
//! The `fused_overhead` block pairs the kernel's fused loop with the
//! same kernel fed pre-sampled `sample_block` slices through
//! `transition_block` (the path every non-uniform source takes) on the
//! converged configuration, sampled back to back; it records both rates
//! and the best paired slices/fused time ratio.
//!
//! Usage: `cargo run --release -p bench --bin engine_throughput --
//! [interactions=20000000] [samples=5] [sizes=1000,10000,100000]
//! [out=BENCH_engine.json] [baseline=PATH] [floor=0.9]
//! [kernel_floor=0.7] [silent_floor=1.05] [probe_floor=0.95]
//! [--smoke] [--csv]`

use std::process::ExitCode;
use std::time::Instant;

use bench::timing::{time_runs, Timing};
use bench::{f3, Experiment, Json, Table};
use population::primitives::epidemic::Epidemic;
use population::schedule::BLOCK_PAIRS;
use population::{
    CursorSource, NullProbe, Packed, Protocol, ScalarBlock, Schedule, ScheduleCursor, Simulator,
};
use ranking::stable::state::StableState;
use ranking::stable::{PackedState, StableRanking};
use ranking::Params;

struct Measurement {
    protocol: &'static str,
    n: usize,
    interactions: u64,
    scalar_ips: f64,
    batched_ips: f64,
    /// Kernel rows only: fraction of batched interactions executed by
    /// each dispatch lane (`[reset, both-elect, one-elect, main/main]`).
    dispatch_mix: Option<[f64; 4]>,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.batched_ips / self.scalar_ips
    }
}

fn measure<P, F>(
    name: &'static str,
    n: usize,
    interactions: u64,
    samples: usize,
    make: F,
) -> Measurement
where
    P: Protocol,
    F: Fn() -> (P, Vec<P::State>),
{
    measure_with(name, n, interactions, samples, make, |_, _| None).0
}

/// Time `interactions` scalar `step`s, `samples` times after one warmup.
fn time_steps<P: Protocol>(sim: &mut Simulator<P>, interactions: u64, samples: usize) -> Timing {
    time_runs(1, samples, || {
        for _ in 0..interactions {
            sim.step();
        }
    })
}

/// Like [`measure`], but `finish` inspects the batched simulator's
/// protocol after its timed runs — the hook the kernel row uses to pull
/// the accumulated dispatch-mix counters — and the batched simulator is
/// returned for inspection of its final position.
fn measure_with<P, F>(
    name: &'static str,
    n: usize,
    interactions: u64,
    samples: usize,
    make: F,
    finish: impl Fn(&P, u64) -> Option<[f64; 4]>,
) -> (Measurement, Simulator<P>)
where
    P: Protocol,
    F: Fn() -> (P, Vec<P::State>),
{
    let (protocol, init) = make();
    let scalar = time_steps(
        &mut Simulator::new(protocol, init, 7),
        interactions,
        samples,
    );

    let (protocol, init) = make();
    let mut sim = Simulator::new(protocol, init, 7);
    let batched = time_runs(1, samples, || {
        sim.run_batched(interactions);
    });
    let dispatch_mix = finish(sim.protocol(), sim.interactions());

    let m = Measurement {
        protocol: name,
        n,
        interactions,
        scalar_ips: scalar.per_second(interactions as f64),
        batched_ips: batched.per_second(interactions as f64),
        dispatch_mix,
    };
    (m, sim)
}

/// Run `interactions` pairs of `schedule` over `words` the way the
/// engine's faithful block loop does: one `transition_pairs` call per
/// chunk of at most `BLOCK_PAIRS` — the fused path for the kernel, the
/// slice path for every other protocol.
fn run_chunks<P: Protocol>(
    p: &P,
    words: &mut [P::State],
    schedule: &mut Schedule,
    interactions: u64,
) {
    let mut remaining = interactions;
    while remaining > 0 {
        let chunk = remaining.min(BLOCK_PAIRS as u64);
        p.transition_pairs(words, schedule, chunk as usize);
        remaining -= chunk;
    }
}

/// The same pairs fed to `transition_block` as pre-sampled slices — the
/// unfused path, which every non-uniform source takes.
fn run_slices<P: Protocol>(
    p: &P,
    words: &mut [P::State],
    schedule: &mut Schedule,
    interactions: u64,
) {
    let mut remaining = interactions;
    while remaining > 0 {
        let want = remaining.min(BLOCK_PAIRS as u64) as usize;
        let block = schedule.sample_block(want);
        p.transition_block(words, block);
        remaining -= block.len() as u64;
    }
}

/// The silent rows' batched column: a bench-local copy of the engine's
/// faithful block loop ([`run_chunks`]), which — unlike `run_batched` —
/// never fast-forwards a certified-silent configuration. So these rows
/// keep timing the transition path on null pairs, the thing the
/// `silent_floor` gate compares, rather than the certificate and the
/// RNG jump. Returns the final position (words and scheduler cursor)
/// for the fast-forward row's identity check.
fn measure_silent<P>(
    name: &'static str,
    n: usize,
    interactions: u64,
    samples: usize,
    protocol: impl Fn() -> P,
    finish: impl Fn(&P, u64) -> Option<[f64; 4]>,
) -> (Measurement, Vec<PackedState>, ScheduleCursor)
where
    P: Protocol<State = PackedState>,
{
    let init: Vec<PackedState> = ranked_init(n).iter().map(PackedState::pack).collect();
    let scalar = time_steps(
        &mut Simulator::new(protocol(), init.clone(), 7),
        interactions,
        samples,
    );

    let p = protocol();
    let mut words = init;
    let mut schedule = Schedule::new(n, 7);
    let batched = time_runs(1, samples, || {
        run_chunks(&p, &mut words, &mut schedule, interactions)
    });
    let dispatch_mix = finish(&p, interactions * (samples as u64 + 1));

    let m = Measurement {
        protocol: name,
        n,
        interactions,
        scalar_ips: scalar.per_second(interactions as f64),
        batched_ips: batched.per_second(interactions as f64),
        dispatch_mix,
    };
    (m, words, schedule.cursor())
}

/// The smoke's fused-path guard: on at least one paired sample the
/// kernel's fused loop must beat its own slice loop by this factor on
/// the silent workload at `n ≥ 10⁴`. A wrapper or engine change that
/// drops the fused path lands near 1.0; the fused loop measures about
/// 1.2–2.2× on a shared 2-vCPU VM.
const FUSED_FLOOR: f64 = 1.05;

/// The fused-vs-slices pair, measured by interleaved paired sampling
/// (see [`ProbeRows`] for why): every sample times the kernel's fused
/// loop ([`run_chunks`]) and its slice loop ([`run_slices`]) back to
/// back over twin silent configurations and schedules.
struct FusedOverhead {
    n: usize,
    interactions: u64,
    fused_ips: f64,
    slices_ips: f64,
    /// Best (max) per-sample ratio `t_slices / t_fused` — the smoke gate.
    best_ratio: f64,
}

fn measure_fused_overhead(n: usize, interactions: u64, samples: usize) -> FusedOverhead {
    let p = kernel(n);
    let init = p.pack_all(&ranked_init(n));
    let (mut fused_words, mut slice_words) = (init.clone(), init);
    let (mut fused_sched, mut slice_sched) = (Schedule::new(n, 7), Schedule::new(n, 7));
    let mut fused_t = Vec::with_capacity(samples);
    let mut slices_t = Vec::with_capacity(samples);
    let mut best_ratio = 0.0f64;
    // One untimed warmup per path, then the paired samples.
    for k in 0..=samples {
        let t0 = Instant::now();
        run_chunks(&p, &mut fused_words, &mut fused_sched, interactions);
        let tf = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        run_slices(&p, &mut slice_words, &mut slice_sched, interactions);
        let ts = t0.elapsed().as_secs_f64();
        if k > 0 {
            best_ratio = best_ratio.max(ts / tf);
            fused_t.push(tf);
            slices_t.push(ts);
        }
    }
    FusedOverhead {
        n,
        interactions,
        fused_ips: interactions as f64 / median(fused_t),
        slices_ips: interactions as f64 / median(slices_t),
        best_ratio,
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Minimal reader for previously written `BENCH_engine.json` artifacts:
/// extracts `(protocol, n, batched_interactions_per_sec)` triples from
/// the pretty-printed (one key per line) layout. Not a JSON parser —
/// just enough to compare against our own output format.
fn read_baseline(path: &str) -> Vec<(String, usize, f64)> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    let field = |line: &str, key: &str| -> Option<String> {
        let rest = line.trim().strip_prefix(&format!("\"{key}\":"))?;
        Some(
            rest.trim()
                .trim_end_matches(',')
                .trim_matches('"')
                .to_string(),
        )
    };
    let mut out = Vec::new();
    let (mut protocol, mut n) = (None::<String>, None::<usize>);
    for line in text.lines() {
        if let Some(p) = field(line, "protocol") {
            protocol = Some(p);
        } else if let Some(v) = field(line, "n") {
            n = v.parse().ok();
        } else if let Some(v) = field(line, "batched_interactions_per_sec") {
            if let (Some(p), Some(nn), Ok(ips)) = (protocol.take(), n.take(), v.parse()) {
                out.push((p, nn, ips));
            }
        }
    }
    assert!(
        !out.is_empty(),
        "baseline {path} contains no measurements (expected the BENCH_engine.json layout)"
    );
    out
}

/// The dispatch-mix hook for kernel rows: read the per-class counters
/// out of the protocol's unified metrics registry (the same snapshot
/// any telemetry consumer sees) and turn them into fractions of the
/// executed interactions.
fn kernel_mix(p: &Packed<StableRanking>, executed: u64) -> Option<[f64; 4]> {
    let snap = p.inner().metrics().snapshot();
    let mix = ranking::stable::DISPATCH_COUNTERS.map(|name| snap.counter(name).unwrap_or(0));
    let total: u64 = mix.iter().sum();
    debug_assert_eq!(total, executed);
    let _ = executed;
    (total > 0).then(|| mix.map(|c| c as f64 / total as f64))
}

/// A fresh protocol on the packed kernel path.
fn kernel(n: usize) -> Packed<StableRanking> {
    Packed(StableRanking::new(Params::new(n)))
}

/// The converged configuration: a valid ranking is silent, so every
/// interaction is a ranked×ranked null pair.
fn ranked_init(n: usize) -> Vec<StableState> {
    (1..=n as u64).map(StableState::Ranked).collect()
}

/// Probe-seam overhead rows, measured by **interleaved paired
/// sampling**.
///
/// The bench host is a single-core, frequency-unstable machine: two
/// independently timed medians of *identical* machine code routinely
/// differ by ~10%, so an independent-median ratio cannot resolve a 5%
/// seam regression. Instead every sample times the unprobed
/// `run_batched` and the `NullProbe` `run_probed` back-to-back (same
/// frequency window) and the smoke gate uses the **best** paired ratio
/// across samples: if `run_probed::<NullProbe>` truly monomorphizes to
/// the pre-seam code, at least one quiet window shows a ratio near 1.0,
/// while a real codegen regression caps every window's ratio below it.
/// A `Recorder`-mode sample rides the same loop for the recorded-mode
/// row (informational — active tracing is allowed to cost).
struct ProbeRows {
    n: usize,
    interactions: u64,
    plain_ips: f64,
    null_ips: f64,
    recorded_ips: f64,
    /// Best (max) per-sample ratio `t_plain / t_null` — the smoke gate.
    best_null_ratio: f64,
}

fn measure_probe_rows(n: usize, interactions: u64, samples: usize) -> ProbeRows {
    let fresh = || {
        let p = Packed(StableRanking::new(Params::new(n)));
        let init = p.pack_all(&p.inner().initial());
        Simulator::new(p, init, 7)
    };
    let mut plain_sim = fresh();
    let mut null_sim = fresh();
    let mut rec_sim = fresh();
    // A small ring keeps the recorded row's memory bounded; overwritten
    // events are still counted, which is all this row needs.
    let mut recorder = telemetry::Recorder::with_capacity(1 << 12);
    // One untimed warmup per path.
    plain_sim.run_batched(interactions);
    null_sim.run_probed(interactions, &mut NullProbe);
    rec_sim.run_probed(interactions, &mut recorder);
    let mut plain_t = Vec::with_capacity(samples);
    let mut null_t = Vec::with_capacity(samples);
    let mut rec_t = Vec::with_capacity(samples);
    let mut best_null_ratio = 0.0f64;
    for _ in 0..samples {
        let t0 = Instant::now();
        plain_sim.run_batched(interactions);
        let tp = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        null_sim.run_probed(interactions, &mut NullProbe);
        let tn = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        rec_sim.run_probed(interactions, &mut recorder);
        let tr = t0.elapsed().as_secs_f64();
        best_null_ratio = best_null_ratio.max(tp / tn);
        plain_t.push(tp);
        null_t.push(tn);
        rec_t.push(tr);
    }
    ProbeRows {
        n,
        interactions,
        plain_ips: interactions as f64 / median(plain_t),
        null_ips: interactions as f64 / median(null_t),
        recorded_ips: interactions as f64 / median(rec_t),
        best_null_ratio,
    }
}

fn main() -> ExitCode {
    let exp = Experiment::from_env("engine_throughput");
    let interactions: u64 = exp.get("interactions", 20_000_000);
    let samples: usize = exp.get("samples", 5);
    let sizes: Vec<usize> = exp
        .args()
        .get_str("sizes")
        .unwrap_or("1000,10000,100000")
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .expect("sizes= must be comma-separated integers")
        })
        .collect();

    let mut results = Vec::new();
    // Per size: did the fast-forward row end bit-identical (words and
    // cursor) to the faithful kernel silent row?
    let mut silent_identity = Vec::new();
    let mut fused_overhead = Vec::new();
    for &n in &sizes {
        results.push(measure("epidemic", n, interactions, samples, || {
            let p = Epidemic::new(n);
            let init = p.initial(n);
            (p, init)
        }));
        // StableRanking transitions dominate the engine overhead, so
        // its speedup bounds what protocol-heavy workloads see; fewer
        // interactions keep the run short.
        results.push(measure(
            "stable_ranking",
            n,
            interactions / 4,
            samples,
            || {
                let p = StableRanking::new(Params::new(n));
                let init = p.initial();
                (p, init)
            },
        ));
        // The same protocol and trajectory over packed words, forced
        // through the scalar (pair-at-a-time) block loop — the A/B
        // baseline for the kernel row below.
        results.push(measure(
            "stable_ranking_packed",
            n,
            interactions / 4,
            samples,
            || {
                let inner = Packed(StableRanking::new(Params::new(n)));
                let init = inner.pack_all(&inner.inner().initial());
                (ScalarBlock(inner), init)
            },
        ));
        // Packed words through the block transition kernel: one
        // in-order pass per block, branchless classification and
        // per-class branchless cores. Same trajectory bit-for-bit; the
        // dispatch-mix counters attribute the throughput to the
        // classes that did the work.
        results.push(
            measure_with(
                "stable_ranking_kernel",
                n,
                interactions / 4,
                samples,
                || {
                    let p = Packed(StableRanking::new(Params::new(n)));
                    let init = p.pack_all(&p.inner().initial());
                    (p, init)
                },
                kernel_mix,
            )
            .0,
        );
        // The converged regime, no warmup needed: a pre-built valid
        // ranking starts silent and stays silent. Both rows run every
        // null pair (see `measure_silent`).
        let (m, ..) = measure_silent(
            "stable_ranking_silent",
            n,
            interactions / 4,
            samples,
            || ScalarBlock(kernel(n)),
            |_, _| None,
        );
        results.push(m);
        let (m, words, cursor) = measure_silent(
            "stable_ranking_kernel_silent",
            n,
            interactions / 4,
            samples,
            || kernel(n),
            kernel_mix,
        );
        results.push(m);
        // The same configuration through `run_batched`, which certifies
        // the configuration silent and jumps the pair stream past each
        // burst (informational: it times the fast-forward, not a
        // transition path).
        let (m, ff) = measure_with(
            "stable_ranking_kernel_silent_ff",
            n,
            interactions / 4,
            samples,
            || {
                let p = kernel(n);
                let init = p.pack_all(&ranked_init(n));
                (p, init)
            },
            kernel_mix,
        );
        results.push(m);
        silent_identity.push((n, ff.states() == words && ff.source().cursor() == cursor));
        // The same kernel fed slices, paired with the fused loop.
        fused_overhead.push(measure_fused_overhead(n, interactions / 4, samples));
    }

    // Probe-seam overhead rows: paired unprobed vs NullProbe vs
    // Recorder samples over the kernel path (see [`measure_probe_rows`]).
    // In these rows the "scalar" column is the *paired unprobed*
    // `run_batched` throughput, not a step loop.
    let probe_rows: Vec<ProbeRows> = sizes
        .iter()
        .map(|&n| measure_probe_rows(n, interactions / 4, samples))
        .collect();
    for p in &probe_rows {
        results.push(Measurement {
            protocol: "stable_ranking_kernel_null_probe",
            n: p.n,
            interactions: p.interactions,
            scalar_ips: p.plain_ips,
            batched_ips: p.null_ips,
            dispatch_mix: None,
        });
        results.push(Measurement {
            protocol: "stable_ranking_kernel_recorded",
            n: p.n,
            interactions: p.interactions,
            scalar_ips: p.plain_ips,
            batched_ips: p.recorded_ips,
            dispatch_mix: None,
        });
    }

    let mut table = Table::new(
        format!("Engine throughput, median of {samples} runs"),
        &[
            "protocol",
            "n",
            "scalar M/s",
            "batched M/s",
            "speedup",
            "mix rst/e2/e1/main %",
        ],
    );
    for m in &results {
        let mix = m.dispatch_mix.map_or_else(
            || "-".to_string(),
            |mix| mix.map(|f| format!("{:.1}", f * 100.0)).join("/"),
        );
        table.push(vec![
            m.protocol.to_string(),
            m.n.to_string(),
            f3(m.scalar_ips / 1e6),
            f3(m.batched_ips / 1e6),
            f3(m.speedup()),
            mix,
        ]);
    }
    exp.emit(&table);

    if let Some(baseline_path) = exp.args().get_str("baseline") {
        let baseline = read_baseline(baseline_path);
        let mut cmp = Table::new(
            format!("Batched throughput vs baseline {baseline_path}"),
            &[
                "protocol",
                "n",
                "baseline M/s",
                "now M/s",
                "speedup vs baseline",
            ],
        );
        for m in &results {
            let Some((_, _, base)) = baseline
                .iter()
                .find(|(p, n, _)| p == m.protocol && *n == m.n)
            else {
                continue;
            };
            cmp.push(vec![
                m.protocol.to_string(),
                m.n.to_string(),
                f3(base / 1e6),
                f3(m.batched_ips / 1e6),
                f3(m.batched_ips / base),
            ]);
        }
        exp.emit(&cmp);
    }

    let payload = Json::obj([
        ("samples", samples.into()),
        (
            "probe_overhead",
            Json::Arr(
                probe_rows
                    .iter()
                    .map(|p| {
                        Json::obj([
                            ("n", p.n.into()),
                            ("best_null_paired_ratio", p.best_null_ratio.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "fused_overhead",
            Json::Arr(
                fused_overhead
                    .iter()
                    .map(|f| {
                        Json::obj([
                            ("n", f.n.into()),
                            ("interactions", f.interactions.into()),
                            ("fused_interactions_per_sec", f.fused_ips.into()),
                            ("slices_interactions_per_sec", f.slices_ips.into()),
                            ("best_slices_over_fused_paired_ratio", f.best_ratio.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "measurements",
            Json::Arr(
                results
                    .iter()
                    .map(|m| {
                        let mut fields = vec![
                            ("protocol", m.protocol.into()),
                            ("n", m.n.into()),
                            ("interactions_per_sample", m.interactions.into()),
                            ("scalar_interactions_per_sec", m.scalar_ips.into()),
                            ("batched_interactions_per_sec", m.batched_ips.into()),
                            ("speedup", m.speedup().into()),
                        ];
                        if let Some(mix) = m.dispatch_mix {
                            fields.extend([
                                ("mix_reset", mix[0].into()),
                                ("mix_both_elect", mix[1].into()),
                                ("mix_one_elect", mix[2].into()),
                                ("mix_main_main", mix[3].into()),
                            ]);
                        }
                        Json::obj(fields)
                    })
                    .collect(),
            ),
        ),
    ]);
    exp.write_json("BENCH_engine.json", payload);

    // Historical note: this ratio sat at ~2.5x while the scalar step
    // path cloned both states per transition; the copy-free scalar loop
    // tripled scalar epidemic throughput, so batched/scalar ~0.7-1.0x
    // on a trivial transition is expected now (batching pays a block
    // buffer round-trip that the inline sampler does not).
    if let Some(engine_bound) = results
        .iter()
        .find(|m| m.protocol == "epidemic" && m.n == 100_000)
    {
        exp.note(&format!(
            "engine-bound batched/scalar at n = 1e5: {:.2}x \
             (informational; both paths are copy-free since the kernel PR)",
            engine_bound.speedup()
        ));
    }

    // CI throughput smoke: the packed representation must not be slower
    // than the enum path, and the block kernel must hold its measured
    // position against the scalar packed loop — parity (within host
    // noise) on the churn-heavy transient, a clear win on the
    // converged/silent workload. The floors sit well below the
    // steady-state measurements (0.9x vs ~2x, 0.7x vs ~0.9x, 1.05x vs
    // ~1.3x) so shared-runner noise cannot flake the build; real
    // regressions are far below them.
    if exp.flag("smoke") {
        let floor: f64 = exp.get("floor", 0.9);
        let kernel_floor: f64 = exp.get("kernel_floor", 0.7);
        let silent_floor: f64 = exp.get("silent_floor", 1.05);
        let probe_floor: f64 = exp.get("probe_floor", 0.95);
        let mut ok = true;
        // The probe-seam guard: on at least one paired sample the
        // NullProbe path must reach probe_floor of the unprobed path
        // (tiny populations blur under measurement noise, so the gate
        // starts at n = 1e4 like the kernel floors below).
        for p in probe_rows.iter().filter(|p| p.n >= 10_000) {
            exp.note(&format!(
                "smoke n={}: best paired null-probe/unprobed ratio {:.3} (floor {probe_floor})",
                p.n, p.best_null_ratio
            ));
            if p.best_null_ratio < probe_floor {
                eprintln!(
                    "SMOKE FAILURE: NullProbe kernel path reached only {:.3}x the \
                     unprobed path at n={} across every paired sample \
                     (floor {probe_floor}) — the probe seam is no longer free",
                    p.best_null_ratio, p.n
                );
                ok = false;
            }
        }
        for &(n, identical) in &silent_identity {
            exp.note(&format!(
                "smoke n={n}: fast-forward row bit-identical to the faithful silent row: \
                 {identical}"
            ));
            if !identical {
                eprintln!(
                    "SMOKE FAILURE: the silent fast-forward ended at different words or \
                     scheduler cursor than the faithful kernel loop at n={n}"
                );
                ok = false;
            }
        }
        for f in fused_overhead.iter().filter(|f| f.n >= 10_000) {
            exp.note(&format!(
                "smoke n={}: best paired silent fused/slices ratio {:.3} (floor {FUSED_FLOOR})",
                f.n, f.best_ratio
            ));
            if f.best_ratio < FUSED_FLOOR {
                eprintln!(
                    "SMOKE FAILURE: the kernel's fused loop reached only {:.3}x its slice \
                     loop at n={} across every paired sample (floor {FUSED_FLOOR}) — the \
                     fused path regressed or is no longer taken",
                    f.best_ratio, f.n
                );
                ok = false;
            }
        }
        for &n in &sizes {
            let by = |name: &str| {
                results
                    .iter()
                    .find(|m| m.protocol == name && m.n == n)
                    .expect("measured above")
            };
            let enum_ips = by("stable_ranking").batched_ips;
            let packed_ips = by("stable_ranking_packed").batched_ips;
            let kernel_ips = by("stable_ranking_kernel").batched_ips;
            let ratio = packed_ips / enum_ips;
            exp.note(&format!(
                "smoke n={n}: packed/enum batched ratio {ratio:.2} (floor {floor})"
            ));
            if ratio < floor {
                eprintln!(
                    "SMOKE FAILURE: packed path is {ratio:.2}x the enum path at n={n} \
                     (floor {floor}) — the packed representation regressed"
                );
                ok = false;
            }
            // Tiny populations finish ranking mid-measurement and the
            // two regimes blur; gate the kernel floors from n = 1e4 up
            // where the mixes are stable.
            if n >= 10_000 {
                let kratio = kernel_ips / packed_ips;
                exp.note(&format!(
                    "smoke n={n}: kernel/scalar-packed batched ratio {kratio:.2} \
                     (floor {kernel_floor})"
                ));
                if kratio < kernel_floor {
                    eprintln!(
                        "SMOKE FAILURE: block kernel is {kratio:.2}x the scalar packed \
                         path at n={n} (floor {kernel_floor}) — the kernel regressed"
                    );
                    ok = false;
                }
                let silent_packed = by("stable_ranking_silent").batched_ips;
                let silent_kernel = by("stable_ranking_kernel_silent").batched_ips;
                let sratio = silent_kernel / silent_packed;
                exp.note(&format!(
                    "smoke n={n}: silent kernel/scalar-packed ratio {sratio:.2} \
                     (floor {silent_floor})"
                ));
                if sratio < silent_floor {
                    eprintln!(
                        "SMOKE FAILURE: block kernel is {sratio:.2}x the scalar packed \
                         path on the silent workload at n={n} (floor {silent_floor}) — \
                         the null fast path regressed"
                    );
                    ok = false;
                }
            }
        }
        if !ok {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
