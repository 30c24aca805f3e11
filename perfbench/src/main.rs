//! End-to-end benchmark of the silent-ranking library.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload stabilize|soak|churn --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload runs on `Packed<StableRanking>` (the block kernel) in
//! one thread and checks its outputs. `--trace 0` prints the end-to-end
//! metrics of the untraced run. `--trace 1` runs the workload untraced,
//! then again with every layer seam wrapped in timers (see
//! [`ledger`]), checks that both runs follow the same trajectory, and
//! prints the per-layer metrics. The last stdout line is the JSON
//! result; a per-run result file with provenance, and for traced runs
//! the spans, goes to `perfbench/out/`. Any failed check exits 1.
//! See `perfbench/NOTES.md` for what each metric means.

mod ledger;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::Instant;

use bench::Json;
use silent_ranking::telemetry::RunManifest;

use ledger::{Layer, Ledger, Plain, Traced};
use workloads::{Outcome, ScratchDir, Workload};

/// Set-up repetitions per run; the median is reported.
const SETUP_REPS: usize = 31;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload stabilize|soak|churn --seed N --seconds 1..=600 --trace 0|1"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut kv = std::collections::BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            usage(&format!("unexpected argument {key:?}"));
        };
        let Some(value) = it.next() else {
            usage(&format!("{key} needs a value"));
        };
        kv.insert(name.to_string(), value);
    }
    let get = |k: &str| {
        kv.get(k)
            .cloned()
            .unwrap_or_else(|| usage(&format!("missing --{k}")))
    };
    let num = |k: &str| {
        get(k)
            .parse::<u64>()
            .unwrap_or_else(|_| usage(&format!("--{k} must be a whole number")))
    };
    let seconds = num("seconds");
    if !(1..=600).contains(&seconds) {
        usage("--seconds must be in 1..=600");
    }
    let name = get("workload");
    let workload = Workload::new(&name, seconds)
        .unwrap_or_else(|| usage(&format!("unknown workload {name:?}")));
    let trace = match num("trace") {
        0 => false,
        1 => true,
        _ => usage("--trace must be 0 or 1"),
    };
    if let Some(extra) = kv
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        usage(&format!("unknown option --{extra}"));
    }
    Args {
        workload,
        seed: num("seed"),
        seconds,
        trace,
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        len if len % 2 == 1 => v[len / 2],
        len => (v[len / 2 - 1] + v[len / 2]) / 2.0,
    }
}

/// Peak resident set (VmHWM) in MB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Time `setup` [`SETUP_REPS`] times; keep the last product.
fn timed_setup<T>(mut setup: impl FnMut(usize) -> T) -> (Vec<f64>, T) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        // Drop the previous product first, so every repetition starts
        // from the same allocator state.
        drop(last.take());
        let start = Instant::now();
        let made = setup(rep);
        times.push(start.elapsed().as_secs_f64());
        last = Some(made);
    }
    (times, last.expect("SETUP_REPS > 0"))
}

/// Run the workload in mode `M`, timing its set-up [`SETUP_REPS`] times.
fn execute<M: ledger::Mode>(
    w: &Workload,
    seed: u64,
    scratch: &Path,
    manifest: &RunManifest,
) -> (Vec<f64>, Outcome) {
    match w {
        Workload::Stabilize(p) => {
            let (setup, tasks) = timed_setup(|_| workloads::stabilize_setup::<M>(p, seed));
            (setup, workloads::stabilize_run::<M>(p, tasks))
        }
        Workload::Soak(p) => {
            // Each repetition opens its own rotation directory; the
            // scratch directory holding them all is removed at exit.
            let (setup, run) = timed_setup(|rep| {
                workloads::soak_setup::<M>(p, seed, &scratch.join(format!("soak-{rep}")), manifest)
            });
            match run {
                Ok(run) => (setup, workloads::soak_run::<M>(p, run)),
                Err(e) => {
                    let mut out = Outcome {
                        attempted: 1,
                        ..Outcome::default()
                    };
                    out.failures
                        .push(format!("cannot open the checkpoint directory: {e}"));
                    (setup, out)
                }
            }
        }
        Workload::Churn(p) => {
            let (setup, engines) = timed_setup(|_| workloads::churn_setup::<M>(p, seed));
            (setup, workloads::churn_run::<M>(p, engines))
        }
    }
}

fn metric(name: &str, value: f64, unit: &str) -> (String, Json) {
    (
        name.to_string(),
        Json::obj([("value", Json::Num(value)), ("unit", unit.into())]),
    )
}

fn end_to_end(out: &Outcome, setup: &[f64], rss: f64) -> Vec<(String, Json)> {
    vec![
        metric("wall_s", out.wall_s, "s"),
        metric(
            "interactions_per_s",
            out.interactions as f64 / out.wall_s,
            "1/s",
        ),
        metric("interactions", out.headline_interactions as f64, "count"),
        metric("recover_s_p50", median(&out.recover_s), "s"),
        metric("valid_frac", out.valid_frac, "ratio"),
        metric("setup_s", median(setup), "s"),
        metric("peak_rss_mb", rss, "MB"),
    ]
}

fn per_layer(plain: &Outcome, traced: &Outcome, l: &Ledger) -> Vec<(String, Json)> {
    let s = |layer: Layer| l.acc(layer).busy_ns as f64 / 1e9;
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    let counter = |name: &str| {
        traced
            .counters
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0.0, |&(_, v)| v)
    };
    let sample = l.acc(Layer::Sample);
    let trans = l.acc(Layer::Transition);
    let poll = l.acc(Layer::Poll);
    let dyn_run = l.acc(Layer::DynRun);
    let mut m = vec![
        metric("schedule.sample_s", s(Layer::Sample), "s"),
        metric("schedule.pairs", sample.items as f64, "count"),
        metric(
            "schedule.ns_per_pair",
            per(sample.busy_ns as f64, sample.items),
            "ns",
        ),
        metric("transition.busy_s", s(Layer::Transition), "s"),
        metric("transition.pairs", trans.items as f64, "count"),
        metric(
            "transition.ns_per_pair",
            per(trans.busy_ns as f64, trans.items),
            "ns",
        ),
        metric(
            "transition.changed_frac",
            per(l.changed as f64, trans.items),
            "ratio",
        ),
    ];
    for (c, name) in ["reset", "both_elect", "one_elect", "main"]
        .iter()
        .enumerate()
    {
        m.push(metric(
            &format!("transition.mix_{name}"),
            per(l.mix[c] as f64, trans.items),
            "ratio",
        ));
    }
    let dyn_s = s(Layer::DynRun);
    m.extend([
        metric("transition.resets", l.resets as f64, "count"),
        metric("observe.poll_s", s(Layer::Poll), "s"),
        metric("observe.polls", poll.calls as f64, "count"),
        metric(
            "observe.ns_per_poll",
            per(poll.busy_ns as f64, poll.calls),
            "ns",
        ),
        metric("observe.silence_cert_s", s(Layer::Silence), "s"),
        metric("fault.fire_s", s(Layer::Fire), "s"),
        metric("fault.fires", l.acc(Layer::Fire).calls as f64, "count"),
        metric("snapshot.save_s", s(Layer::Save), "s"),
        metric("snapshot.saves", counter("snapshot.saves"), "count"),
        metric("snapshot.failures", counter("snapshot.failures"), "count"),
        metric("snapshot.bytes", l.acc(Layer::Save).items as f64, "bytes"),
        metric("dynamic.run_s", dyn_s, "s"),
        metric(
            "dynamic.other_s",
            if dyn_run.calls > 0 {
                dyn_s - s(Layer::Transition)
            } else {
                0.0
            },
            "s",
        ),
    ]);
    for name in ["joins", "leaves", "hibernates", "revives", "epochs"] {
        let key = format!("dynamic.{name}");
        m.push(metric(&key, counter(&key), "count"));
    }
    m.extend([
        metric("dynamic.live_mean", counter("dynamic.live_mean"), "count"),
        metric(
            "trace.coverage",
            l.covered_ns() as f64 / 1e9 / traced.wall_s,
            "ratio",
        ),
        metric("trace.overhead", traced.wall_s / plain.wall_s, "ratio"),
    ]);
    m
}

fn spans_json(l: &Ledger) -> Json {
    Json::obj([
        ("kept", l.spans.len().into()),
        ("dropped", l.dropped_spans.into()),
        (
            "columns",
            Json::arr(["id", "parent", "layer", "start_ns", "dur_ns"].map(Json::from)),
        ),
        (
            "rows",
            Json::arr(l.spans.iter().map(|s| {
                Json::arr([
                    s.id.into(),
                    s.parent.map_or(Json::Null, Json::from),
                    s.layer.name().into(),
                    s.start_ns.into(),
                    s.dur_ns.into(),
                ])
            })),
        ),
    ])
}

fn write_result(dir: &Path, name: &str, body: &Json) {
    let path = dir.join(name);
    if let Err(e) = std::fs::write(&path, format!("{body}\n")) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

fn main() {
    let args = parse_args();
    let w = &args.workload;
    let out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let scratch = ScratchDir(out_dir.join(format!("tmp-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.0.display());
        std::process::exit(1);
    }
    let manifest = RunManifest::capture("perfbench").with_args([
        ("workload", w.name().to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
    ]);

    let (setup, plain) = execute::<Plain>(w, args.seed, &scratch.0.join("plain"), &manifest);
    let rss = peak_rss_mb();
    let mut failures = plain.failures.clone();
    let mut attempted = plain.attempted;

    let (metrics, trace_json) = if args.trace {
        ledger::reset();
        let (_, traced) = execute::<Traced>(w, args.seed, &scratch.0.join("traced"), &manifest);
        let l = ledger::take();
        attempted += traced.attempted + 1;
        failures.extend(traced.failures.iter().map(|f| format!("traced: {f}")));
        if (traced.digest, traced.interactions) != (plain.digest, plain.interactions) {
            failures.push(format!(
                "traced run diverged: digest {:016x} vs {:016x}, interactions {} vs {}",
                traced.digest, plain.digest, traced.interactions, plain.interactions
            ));
        }
        let m = per_layer(&plain, &traced, &l);
        (m, Some(spans_json(&l)))
    } else {
        (end_to_end(&plain, &setup, rss), None)
    };

    let failed = failures.len() as u64;
    let correct = failed == 0;
    for f in &failures {
        eprintln!("perfbench: FAILED {f}");
    }
    let manifest_json = Json::obj([
        ("experiment", manifest.experiment.as_str().into()),
        ("git_rev", manifest.git_rev.as_str().into()),
        ("rustc", manifest.rustc.as_str().into()),
        ("host_cores", manifest.host_cores.into()),
        ("unix_time_s", manifest.unix_time_s.into()),
        ("schema_version", manifest.schema_version.into()),
        (
            "args",
            Json::Obj(
                (manifest.args.iter())
                    .map(|(k, v)| (k.clone(), v.as_str().into()))
                    .collect(),
            ),
        ),
    ]);
    let mut file = vec![
        ("manifest", manifest_json),
        ("workload", w.name().into()),
        ("seed", args.seed.into()),
        (
            "params",
            Json::obj(w.params().into_iter().map(|(k, v)| (k, v.into()))),
        ),
        ("correct", correct.into()),
        ("attempted", attempted.into()),
        (
            "failures",
            Json::arr(failures.iter().map(|f| f.as_str().into())),
        ),
        ("digest", format!("{:016x}", plain.digest).into()),
        ("setup_s", Json::arr(setup.iter().map(|&x| x.into()))),
        (
            "recover_s",
            Json::arr(plain.recover_s.iter().map(|&x| x.into())),
        ),
        (
            "recover_interactions",
            Json::arr(plain.recover_interactions.iter().map(|&x| x.into())),
        ),
        ("metrics", Json::Obj(metrics.clone())),
    ];
    if let Some(spans) = trace_json {
        file.push(("spans", spans));
    }
    write_result(
        &out_dir,
        &format!(
            "{}-seed{}-trace{}.json",
            w.name(),
            args.seed,
            u8::from(args.trace)
        ),
        &Json::obj(file),
    );
    drop(scratch);

    let line = Json::obj([
        ("correct", correct.into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{line}");
    std::process::exit(if correct { 0 } else { 1 });
}
