//! The FedTrip repository benchmark.
//!
//! ```text
//! e2e_bench --workload <paper_sync|fleet_churn|async_cifar|all> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload through the public `fedtrip-core` API for about
//! `--seconds` seconds, checks its outputs, prints one `metric` line per
//! metric and, last, one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer ones. `--workload all` runs every workload in
//! a child process of its own and exits non-zero if any check failed.
//! `NOTES.md` beside this crate defines every metric.

mod episode;
mod stats;
mod trace;
mod workloads;

use episode::{CkptTimes, Episode};
use stats::Checks;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::Tracer;
use workloads::Workload;

/// Untimed rounds before the first timed episode, in seconds: the first
/// rounds of a process run measurably slower (allocator growth, page
/// faults), a cost a long training run pays once.
const WARMUP_S: f64 = 1.0;

/// Where checkpoints go while a run lasts, relative to the working
/// directory (the checkout root); removed when the run ends.
const SCRATCH_DIR: &str = ".bench_tmp";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} value {val:?}: {what}");
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// How a per-layer metric summarizes its samples.
#[derive(Clone, Copy)]
enum Agg {
    Median,
    Mean,
    Count,
}

/// Per-layer metrics read straight from the tracer's samples:
/// `(metric, samples, summary, unit)`. The tail, kept-fraction and
/// tracing-overhead metrics are computed beside them in [`traced`].
const LAYER_METRICS: &[(&str, &str, Agg, &str)] = &[
    ("engine.new_ms", "engine.new_ms", Agg::Median, "ms"),
    ("engine.round_ms_p50", "engine.round_ms", Agg::Median, "ms"),
    (
        "engine.evaluate_ms",
        "engine.evaluate_ms",
        Agg::Median,
        "ms",
    ),
    ("engine.evals", "engine.evaluate_ms", Agg::Count, "count"),
    (
        "engine.unattributed_ms",
        "engine.unattributed_ms",
        Agg::Median,
        "ms",
    ),
    ("data.test_set_ms", "data.test_set_ms", Agg::Median, "ms"),
    ("data.partition_ms", "data.partition_ms", Agg::Median, "ms"),
    ("data.batch_ms", "data.batch_ms", Agg::Median, "ms"),
    ("data.shard_us", "data.shard_us", Agg::Mean, "us"),
    (
        "data.resident_shards",
        "data.resident_shards",
        Agg::Median,
        "count",
    ),
    ("models.build_ms", "models.build_ms", Agg::Median, "ms"),
    (
        "tensor.train_step_ms",
        "tensor.train_step_ms",
        Agg::Median,
        "ms",
    ),
    ("tensor.predict_ms", "tensor.predict_ms", Agg::Median, "ms"),
    (
        "tensor.gflop_per_round",
        "tensor.gflop_per_round",
        Agg::Mean,
        "GFLOP",
    ),
    (
        "tensor.gflops_per_s",
        "tensor.gflops_per_s",
        Agg::Median,
        "GFLOP/s",
    ),
    (
        "algorithms.local_train_ms",
        "algorithms.local_train_ms",
        Agg::Median,
        "ms",
    ),
    (
        "algorithms.fedtrip_over_fedavg",
        "algorithms.fedtrip_over_fedavg",
        Agg::Median,
        "ratio",
    ),
    (
        "algorithms.resident_states",
        "algorithms.resident_states",
        Agg::Median,
        "count",
    ),
    (
        "executor.train_batch_ms",
        "executor.train_batch_ms",
        Agg::Median,
        "ms",
    ),
    (
        "executor.parallel_eff",
        "executor.parallel_eff",
        Agg::Median,
        "frac",
    ),
    (
        "compression.up_step_us",
        "compression.up_step_us",
        Agg::Median,
        "us",
    ),
    (
        "compression.down_step_us",
        "compression.down_step_us",
        Agg::Median,
        "us",
    ),
    (
        "compression.up_ratio",
        "compression.up_ratio",
        Agg::Mean,
        "ratio",
    ),
    (
        "compression.down_ratio",
        "compression.down_ratio",
        Agg::Mean,
        "ratio",
    ),
    ("sampler.select_us", "sampler.select_us", Agg::Median, "us"),
    ("edge.fold_ms", "edge.fold_ms", Agg::Median, "ms"),
    ("edge.active", "edge.active", Agg::Mean, "count"),
    (
        "scheduler.staleness_mean",
        "scheduler.staleness_mean",
        Agg::Mean,
        "rounds",
    ),
    (
        "scheduler.folded_per_round",
        "scheduler.folded_per_round",
        Agg::Mean,
        "count",
    ),
    (
        "checkpoint.capture_ms",
        "checkpoint.capture_ms",
        Agg::Median,
        "ms",
    ),
    (
        "checkpoint.save_ms",
        "checkpoint.save_ms",
        Agg::Median,
        "ms",
    ),
    (
        "checkpoint.load_ms",
        "checkpoint.load_ms",
        Agg::Median,
        "ms",
    ),
    (
        "checkpoint.restore_ms",
        "checkpoint.restore_ms",
        Agg::Median,
        "ms",
    ),
    (
        "checkpoint.entries",
        "checkpoint.entries",
        Agg::Median,
        "count",
    ),
    (
        "checkpoint.load_mb_per_s",
        "checkpoint.load_mb_per_s",
        Agg::Median,
        "MB/s",
    ),
];

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Print the report: one `metric` line each, the failures, then the JSON.
fn report(workload: &str, metrics: &[Metric], checks: &Checks) {
    for m in metrics {
        println!("metric {workload} {} {} {}", m.name, m.value, m.unit);
    }
    println!(
        "metric {workload} failed_frac {} frac",
        checks.failed_frac()
    );
    for f in &checks.failures {
        println!("FAILED {workload}: {f}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
}

/// JSON has no NaN or infinity; a non-finite figure is reported as null
/// (and a check has already failed for it).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// `VmHWM` (peak resident set) of this process, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1e3)
}

/// Finite and positive, or a failed check.
fn positive(checks: &mut Checks, name: &str, v: Option<f64>) -> f64 {
    let v = v.unwrap_or(f64::NAN);
    checks.check(v.is_finite() && v > 0.0, || {
        format!("metric {name} is {v}, not a positive number")
    });
    v
}

/// Run untimed rounds of one seeded configuration for [`WARMUP_S`].
fn warm_up(w: &Workload, seed: u64) {
    let t0 = Instant::now();
    let mut sim = w.build(workloads::sub_seed(seed, 0));
    while t0.elapsed().as_secs_f64() < WARMUP_S && sim.rounds_done() < w.max_rounds {
        sim.run_round();
    }
}

fn print_episode(w: &Workload, kind: &str, seed: u64, e: &Episode) {
    println!(
        "episode {} {kind} seed {seed} rounds {} loop_s {:.3} target_round {} target_s {:.3} final_acc {:.4} comm_mb {:.3} steal_s {:.2}",
        w.name, e.rounds, e.loop_s, e.target.rounds, e.target.wall_s, e.final_acc, e.comm_mb,
        e.steal_s.unwrap_or(f64::NAN)
    );
}

/// The seeded episodes that take the checkpoint round trip, then the
/// reference episodes alternating with the rest of the seeded panel, then
/// more seeded episodes until `seconds` have passed. Returns
/// `(reference, seeded)`.
///
/// The checkpoint episodes come first because `Checkpoint::load` slows
/// down as the process heap ages: the same 38 MB `fleet_churn` checkpoint
/// loads in about 4 s early in a run and in 10-14 s after some 30 episodes
/// have come and gone. The alternation spreads the reference episodes over
/// the run, so a slow stretch of a shared host does not fall on them alone.
fn run_episodes(
    w: &Workload,
    args: &Args,
    dir: &Path,
    checks: &mut Checks,
    start: Instant,
) -> (Vec<Episode>, Vec<Episode>) {
    let mut seeded = Vec::new();
    let mut seeded_episode = |checks: &mut Checks| {
        let i = seeded.len();
        let seed = workloads::sub_seed(args.seed, i);
        let e = episode::run(w, seed, i < w.ckpt_episodes, dir, checks, None);
        print_episode(w, "seeded", seed, &e);
        seeded.push(e);
        seeded.len()
    };
    let mut done = 0;
    while done < w.ckpt_episodes {
        done = seeded_episode(checks);
    }
    let mut reference = Vec::new();
    for r in 0..w.reference {
        let seed = workloads::sub_seed(workloads::REFERENCE_SEED, r);
        let e = episode::run(w, seed, false, dir, checks, None);
        print_episode(w, "reference", seed, &e);
        reference.push(e);
        if done < w.panel {
            done = seeded_episode(checks);
        }
    }
    while done < w.panel || start.elapsed().as_secs_f64() < args.seconds {
        done = seeded_episode(checks);
    }
    (reference, seeded)
}

fn untraced(w: &Workload, args: &Args, dir: &Path, checks: &mut Checks) -> Vec<Metric> {
    let start = Instant::now();
    warm_up(w, args.seed);
    let (reference, seeded) = run_episodes(w, args, dir, checks, start);
    let all: Vec<&Episode> = reference.iter().chain(&seeded).collect();
    let setup: Vec<f64> = all.iter().flat_map(|e| e.setup_s.iter().copied()).collect();
    let of =
        |eps: &[&Episode], f: fn(&Episode) -> f64| eps.iter().map(|&e| f(e)).collect::<Vec<f64>>();
    let refs: Vec<&Episode> = reference.iter().collect();
    let panel: Vec<&Episode> = seeded[..w.panel].iter().collect();
    let ckpts: Vec<CkptTimes> = seeded.iter().filter_map(|e| e.ckpt).collect();
    let ckpt = |f: fn(&CkptTimes) -> f64| ckpts.iter().map(f).collect::<Vec<f64>>();

    let mut m = Vec::new();
    let mut put = |checks: &mut Checks, name: &str, v: Option<f64>, unit| {
        let v = positive(checks, name, v);
        m.push(metric(name, v, unit));
    };
    put(checks, "setup_s", stats::median(&setup), "s");
    put(
        checks,
        "rounds_per_s",
        stats::median(&of(&all, |e| e.rounds as f64 / e.loop_s)),
        "1/s",
    );
    put(
        checks,
        "wall_to_target_s",
        stats::mean(&of(&refs, |e| e.target.wall_s)),
        "s",
    );
    put(
        checks,
        "rounds_to_target",
        stats::mean(&of(&refs, |e| e.target.rounds as f64)),
        "rounds",
    );
    put(
        checks,
        "final_acc",
        stats::mean(&of(&refs, |e| e.final_acc)),
        "frac",
    );
    put(
        checks,
        "comm_mb",
        stats::mean(&of(&panel, |e| e.comm_mb)),
        "MB",
    );
    put(
        checks,
        "ckpt_save_s",
        stats::median(&ckpt(|c| c.capture_s + c.save_s)),
        "s",
    );
    put(
        checks,
        "ckpt_restore_s",
        stats::median(&ckpt(|c| c.load_s + c.restore_s)),
        "s",
    );
    put(
        checks,
        "ckpt_mb",
        stats::mean(&ckpt(|c| c.bytes as f64 / 1e6)),
        "MB",
    );
    put(checks, "peak_rss_mb", peak_rss_mb(), "MB");
    println!(
        "info {} reference_episodes {} seeded_episodes {} rounds {} run_s {:.2}",
        w.name,
        reference.len(),
        seeded.len(),
        all.iter().map(|e| e.rounds).sum::<usize>(),
        start.elapsed().as_secs_f64()
    );
    // checks stay open until here: the pass fraction covers them all
    m.push(metric("pass_frac", 1.0 - checks.failed_frac(), "frac"));
    m
}

fn traced(w: &Workload, args: &Args, dir: &Path, checks: &mut Checks) -> Vec<Metric> {
    let start = Instant::now();
    warm_up(w, args.seed);
    let mut tracer = Tracer::default();
    let mut untraced_rps = Vec::new();
    let mut i = 0;
    // pairs of one untraced and one traced episode on the same sub-seed,
    // alternating which runs first so a cold start favours neither; their
    // records must agree bit for bit
    while i == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let seed = workloads::sub_seed(args.seed, i);
        // only the first traced episode takes the checkpoint round trip,
        // while the heap is young (see `run_episodes`)
        let with_ckpt = i == 0;
        let mut traced_episode =
            |checks: &mut Checks| episode::run(w, seed, with_ckpt, dir, checks, Some(&mut tracer));
        let (plain, traced) = if i % 2 == 0 {
            let plain = episode::run(w, seed, false, dir, checks, None);
            (plain, traced_episode(checks))
        } else {
            let traced = traced_episode(checks);
            (episode::run(w, seed, false, dir, checks, None), traced)
        };
        untraced_rps.push(plain.rounds as f64 / plain.loop_s);
        checks.check(
            episode::records_equal(&plain.records, &traced.records),
            || format!("seed {seed}: traced records differ from untraced records"),
        );
        i += 1;
    }

    let round_tail = stats::tail(tracer.samples("engine.round_ms"));
    let rps_u = stats::median(&untraced_rps).unwrap_or(0.0);
    let rps_t = tracer.rounds_per_s();
    let mut m: Vec<Metric> = LAYER_METRICS
        .iter()
        .map(|&(name, samples, agg, unit)| {
            let xs = tracer.samples(samples);
            let v = match agg {
                Agg::Median => stats::median(xs),
                Agg::Mean => stats::mean(xs),
                Agg::Count => Some(xs.len() as f64),
            };
            metric(name, v.unwrap_or(0.0), unit)
        })
        .collect();
    m.extend([
        metric(
            "engine.round_ms_tail",
            round_tail.map_or(0.0, |t| t.value),
            "ms",
        ),
        metric(
            "engine.round_tail_pct",
            round_tail.map_or(0.0, |t| t.percentile),
            "%",
        ),
        metric(
            "engine.round_samples",
            round_tail.map_or(0.0, |t| t.samples as f64),
            "count",
        ),
        metric("executor.kept_frac", tracer.kept_frac(), "frac"),
        metric("trace.rounds_per_s_untraced", rps_u, "1/s"),
        metric("trace.rounds_per_s_traced", rps_t, "1/s"),
        metric("trace.overhead_pct", (rps_u - rps_t) / rps_u * 100.0, "%"),
        metric("trace.harness_self_ms", tracer.harness_self_ms(), "ms"),
    ]);
    println!(
        "info {} traced_pairs {i} run_s {:.2}",
        w.name,
        start.elapsed().as_secs_f64()
    );
    for x in &m {
        if !x.value.is_finite() {
            let name = x.name.clone();
            checks.check(false, || format!("per-layer metric {name} is not finite"));
        }
    }
    m
}

/// Run every workload in a child process of its own (so `peak_rss_mb`
/// covers one workload), passing the same flags.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("e2e_bench: cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for w in workloads::ALL {
        let status = Command::new(&exe)
            .args(["--workload", w.name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdin(Stdio::null())
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("e2e_bench: workload {} failed ({s})", w.name);
                ok = false;
            }
            Err(e) => {
                eprintln!("e2e_bench: cannot run workload {}: {e}", w.name);
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            eprintln!(
                "usage: e2e_bench --workload <paper_sync|fleet_churn|async_cifar|all> --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(w) = Workload::by_name(&args.workload) else {
        eprintln!("e2e_bench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let dir: PathBuf = Path::new(SCRATCH_DIR).join(format!("{}-{}", w.name, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("e2e_bench: cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let mut checks = Checks::default();
    let metrics = if args.trace {
        traced(&w, &args, &dir, &mut checks)
    } else {
        untraced(&w, &args, &dir, &mut checks)
    };
    let _ = std::fs::remove_dir(&dir);
    let _ = std::fs::remove_dir(SCRATCH_DIR);
    report(w.name, &metrics, &checks);
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
