//! One episode: build a simulation for one sub-seed, run its round loop to
//! the target, take the checkpoint round trip, and check every output.
//! The same loop runs traced and untraced; the tracer only ever sees the
//! simulation between rounds.

use crate::stats::{median, target_sample, Checks, TargetSample};
use crate::trace::Tracer;
use crate::workloads::{CkptAt, Workload, ALGORITHM};
use fedtrip_core::{Checkpoint, RoundRecord, Simulation};
use std::path::Path;
use std::time::Instant;

/// Timings and size of one checkpoint round trip.
#[derive(Debug, Clone, Copy)]
pub struct CkptTimes {
    /// `Checkpoint::capture`, seconds.
    pub capture_s: f64,
    /// `Checkpoint::save`, seconds.
    pub save_s: f64,
    /// `Checkpoint::load`, seconds.
    pub load_s: f64,
    /// `Checkpoint::restore`, seconds.
    pub restore_s: f64,
    /// File size in bytes.
    pub bytes: u64,
    /// Client-state entries the checkpoint holds.
    pub entries: usize,
}

/// What one episode measured.
#[derive(Debug, Clone)]
pub struct Episode {
    /// `Simulation::new`, seconds, once per construction.
    pub setup_s: Vec<f64>,
    /// Rounds of the round loop.
    pub rounds: usize,
    /// Wall seconds inside `run_round`, evaluation included.
    pub loop_s: f64,
    /// Time and rounds to the target.
    pub target: TargetSample,
    /// `final_accuracy` over the first `fixed_rounds` records.
    pub final_acc: f64,
    /// Cumulative communication after `fixed_rounds`, in MB.
    pub comm_mb: f64,
    /// The checkpoint round trip, when the episode took one.
    pub ckpt: Option<CkptTimes>,
    /// Every record of the round loop.
    pub records: Vec<RoundRecord>,
    /// CPU seconds the hypervisor stole from this machine during the round
    /// loop, all CPUs together (`None` where `/proc/stat` has no figure).
    pub steal_s: Option<f64>,
}

/// Cumulative steal time of all CPUs, in seconds (`/proc/stat`, in units of
/// 1/100 s).
pub fn steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: f64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some(ticks / 100.0)
}

/// `Simulation::new` calls per episode.
const SETUP_REPS: usize = 4;

/// Run one episode of `w` on `seed`; with `with_ckpt` it also takes the
/// checkpoint round trip, writing the checkpoint under `dir`.
pub fn run(
    w: &Workload,
    seed: u64,
    with_ckpt: bool,
    dir: &Path,
    checks: &mut Checks,
    mut tracer: Option<&mut Tracer>,
) -> Episode {
    if let Some(t) = tracer.as_deref_mut() {
        t.begin_episode(w, &w.config(seed));
    }
    // one construction takes 10-60 ms and varies by a third from one to
    // the next on a shared host: build several, spread over the run by
    // building them here, and keep the last
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut sim = None;
    for _ in 0..SETUP_REPS {
        drop(sim.take());
        let t0 = Instant::now();
        sim = Some(w.build(seed));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut sim = sim.expect("SETUP_REPS > 0");
    if let Some(t) = tracer.as_deref_mut() {
        for &s in &setup_s {
            t.sample("engine.new_ms", s * 1e3);
        }
    }

    let steal0 = steal_s();
    let mut loop_s = 0.0;
    let mut hit: Option<(usize, f64)> = None;
    let mut ckpt = None;
    let mut pending: Option<Simulation> = None;
    while sim.rounds_done() < w.max_rounds
        && !(sim.rounds_done() >= w.fixed_rounds && hit.is_some())
    {
        let pre = tracer.as_deref_mut().map(|t| t.before_round(&sim));
        let t0 = Instant::now();
        let rec = sim.run_round();
        let dt = t0.elapsed().as_secs_f64();
        loop_s += dt;
        if hit.is_none() && rec.accuracy.is_some_and(|a| a >= w.target) {
            hit = Some((rec.round, loop_s));
        }
        if let (Some(t), Some(pre)) = (tracer.as_deref_mut(), pre) {
            t.after_round(&sim, pre, dt, checks);
        }
        if let Some(mut restored) = pending.take() {
            compare_continuation(&sim, &mut restored, checks);
        }
        if with_ckpt && w.ckpt == CkptAt::AfterRound(sim.rounds_done()) {
            let (times, restored) = round_trip(w, &sim, dir, checks);
            ckpt = Some(times);
            pending = restored;
        }
    }
    let steal_s = steal_s().zip(steal0).map(|(b, a)| b - a);
    let rounds = sim.rounds_done();
    let target = target_sample(checks, hit, rounds, loop_s, w.target);
    check_records(sim.records(), rounds, checks);
    let records = sim.records().to_vec();
    let fixed = &records[..w.fixed_rounds.min(records.len())];
    let final_acc = fedtrip_core::engine::final_accuracy(fixed, w.final_evals);
    let comm_mb = fixed.last().map_or(0.0, |r| r.cum_comm_bytes / 1e6);

    if with_ckpt && ckpt.is_none() {
        let (times, restored) = round_trip(w, &sim, dir, checks);
        ckpt = Some(times);
        pending = restored;
    }
    if let Some(mut restored) = pending.take() {
        sim.run_round();
        compare_continuation(&sim, &mut restored, checks);
    }
    if let Some(t) = tracer {
        t.end_episode(&sim, ckpt.as_ref());
    }
    Episode {
        setup_s,
        rounds,
        loop_s,
        target,
        final_acc,
        comm_mb,
        ckpt,
        records,
        steal_s,
    }
}

/// Capture-and-save repetitions per round trip: a save takes 0.1-0.6 s,
/// too short to repeat within a tenth from one sample, while a load takes
/// seconds and is done once.
const SAVE_REPS: usize = 5;

/// Capture and save `sim` ([`SAVE_REPS`] times, reporting the median of
/// each), then load and restore it once. Returns the timings and the
/// restored simulation (`None`, with a failed check, when any step errs).
fn round_trip(
    w: &Workload,
    sim: &Simulation,
    dir: &Path,
    checks: &mut Checks,
) -> (CkptTimes, Option<Simulation>) {
    let path = dir.join(format!("{}-{}.json", w.name, sim.config().seed));
    let (mut captures, mut saves) = (Vec::new(), Vec::new());
    let mut saved = Ok(());
    let mut entries = 0;
    for _ in 0..SAVE_REPS {
        let t0 = Instant::now();
        let snap = Checkpoint::capture(sim, ALGORITHM, w.hyper());
        captures.push(t0.elapsed().as_secs_f64());
        entries = snap.states.len();
        let t0 = Instant::now();
        saved = snap.save(&path);
        saves.push(t0.elapsed().as_secs_f64());
    }
    let capture_s = median(&captures).expect("SAVE_REPS > 0");
    let save_s = median(&saves).expect("SAVE_REPS > 0");
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let t0 = Instant::now();
    let loaded = Checkpoint::load(&path);
    let load_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let restored = loaded.as_ref().map(Checkpoint::restore);
    let restore_s = t0.elapsed().as_secs_f64();
    // the file is scratch: remove it whatever happened above
    let _ = std::fs::remove_file(&path);
    let restored = match (saved, restored) {
        (Ok(()), Ok(Ok(sim))) => Some(sim),
        (saved, restored) => {
            let why = match (saved, restored) {
                (Err(e), _) => format!("save: {e}"),
                (_, Err(e)) => format!("load: {e}"),
                (_, Ok(Err(e))) => format!("restore: {e}"),
                _ => unreachable!("the success arm is matched above"),
            };
            checks.check(false, || format!("checkpoint round trip failed: {why}"));
            None
        }
    };
    let times = CkptTimes {
        capture_s,
        save_s,
        load_s,
        restore_s,
        bytes,
        entries,
    };
    (times, restored)
}

/// The restored simulation runs one more round; its records and global
/// parameters must equal the original's, which has just run that round.
fn compare_continuation(orig: &Simulation, restored: &mut Simulation, checks: &mut Checks) {
    restored.run_round();
    let same_records = records_equal(orig.records(), restored.records());
    let same_params = bits_equal(orig.global_params(), restored.global_params());
    checks.check(same_records && same_params, || {
        format!(
            "restored simulation diverged after round {} (records equal: {same_records}, parameters equal: {same_params})",
            orig.rounds_done()
        )
    });
}

/// Per-record sanity, plus the record count.
fn check_records(records: &[RoundRecord], rounds: usize, checks: &mut Checks) {
    checks.check(records.len() == rounds, || {
        format!("{} records for {rounds} rounds", records.len())
    });
    for r in records {
        checks.check(r.mean_loss.is_finite(), || {
            format!("round {}: non-finite loss {}", r.round, r.mean_loss)
        });
        let acc_ok = r
            .accuracy
            .is_none_or(|a| a.is_finite() && (0.0..=1.0).contains(&a));
        checks.check(acc_ok, || {
            format!(
                "round {}: accuracy {:?} outside [0, 1]",
                r.round, r.accuracy
            )
        });
    }
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Every field of a record, as bits.
fn record_bits(r: &RoundRecord) -> Vec<u64> {
    let mut v = vec![
        r.round as u64,
        r.accuracy.map_or(u64::MAX, f64::to_bits),
        r.mean_loss.to_bits(),
        r.cum_comm_bytes.to_bits(),
        r.cum_flops.to_bits(),
        r.virtual_time.to_bits(),
        r.mean_staleness.to_bits(),
        r.comm_bytes_up.to_bits(),
        r.compression_ratio.to_bits(),
        r.comm_bytes_down.to_bits(),
        r.compression_ratio_down.to_bits(),
        r.selected.len() as u64,
    ];
    v.extend(r.selected.iter().map(|&c| c as u64));
    v
}

/// Bit-level equality of two record histories.
pub fn records_equal(a: &[RoundRecord], b: &[RoundRecord]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| record_bits(x) == record_bits(y))
}
