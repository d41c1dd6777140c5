//! The traced run's per-layer timings.
//!
//! Tracing lives entirely in the benchmark: nothing is timed inside the
//! engine. Layers that run inside `Simulation::run_round` are timed by
//! calling the same public function on that round's inputs between
//! rounds, on copies of the state captured just before the round. Each
//! round is one parent span whose children are `engine.run_round` and
//! these replayed calls, so the replays never sit inside the `run_round`
//! span they are compared against.

use crate::episode::CkptTimes;
use crate::stats::{self, Checks, Span};
use crate::workloads::{Workload, ALGORITHM};
use fedtrip_core::algorithms::{
    Algorithm, AlgorithmKind, ClientData, ClientStateStore, LocalContext, LocalOutcome,
};
use fedtrip_core::compression::{error_feedback_step, Compressor};
use fedtrip_core::runtime::{
    staleness_weight, ClientExecutor, ClientSizes, DeviceProfiles, EdgeTier, Sampler,
    SchedulerState, UtilityTable,
};
use fedtrip_core::{RunMode, Simulation, SimulationConfig};
use fedtrip_data::partition::Partition;
use fedtrip_data::synth::SyntheticVision;
use fedtrip_tensor::{vecops, Sequential, Tensor};
use std::collections::BTreeMap;
use std::time::Instant;

/// Rows of the test chunk `tensor.predict_ms` times (the engine's
/// evaluation chunk).
const EVAL_CHUNK: usize = 200;

/// The engine's partition seed salt (`Simulation::new` builds its
/// partition from `seed ^ PARTITION_SALT`); the replayed partition uses
/// the same seed so its shard draws are the engine's.
const PARTITION_SALT: u64 = 0x009A_2717;

/// Spans of a traced run, in memory until the run ends.
#[derive(Debug)]
struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, idx: usize) -> f64 {
        self.spans[idx].end = self.now();
        self.spans[idx].duration()
    }

    /// Run `f` inside a child span of `parent`; returns its result and
    /// its duration in seconds.
    fn time<R>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> R) -> (R, f64) {
        let idx = self.open(name, Some(parent));
        let r = std::hint::black_box(f());
        (r, self.close(idx))
    }
}

/// Inputs of one episode the replays need beside the simulation itself.
struct Replay {
    cfg: SimulationConfig,
    dataset: SyntheticVision,
    partition: Partition,
    template: Sequential,
    test_chunk: Tensor,
    algorithm: Box<dyn Algorithm>,
    fedavg: Box<dyn Algorithm>,
    sampler: Sampler,
    up: Box<dyn Compressor>,
    down: Box<dyn Compressor>,
    prev_flops: f64,
}

/// Engine state captured just before a round.
pub struct PreRound {
    span: usize,
    global: Vec<f32>,
    view: Vec<f32>,
    last: Vec<f32>,
    residual: Option<Vec<f32>>,
    epoch: u64,
    states: ClientStateStore,
    utility: UtilityTable,
    sched: SchedulerState,
    server_state: Vec<Vec<f32>>,
}

/// Per-layer samples of a traced run.
pub struct Tracer {
    log: SpanLog,
    samples: BTreeMap<&'static str, Vec<f64>>,
    replay: Option<Replay>,
    trained: usize,
    folded: usize,
    round_spans: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            log: SpanLog {
                origin: Instant::now(),
                spans: Vec::new(),
            },
            samples: BTreeMap::new(),
            replay: None,
            trained: 0,
            folded: 0,
            round_spans: Vec::new(),
        }
    }
}

fn push(samples: &mut BTreeMap<&'static str, Vec<f64>>, name: &'static str, v: f64) {
    samples.entry(name).or_default().push(v);
}

impl Tracer {
    /// Record one sample of a per-layer metric.
    pub fn sample(&mut self, name: &'static str, v: f64) {
        push(&mut self.samples, name, v);
    }

    /// Samples recorded under `name`.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Time the set-up layers once for `cfg` and keep their products for
    /// the round replays.
    pub fn begin_episode(&mut self, w: &Workload, cfg: &SimulationConfig) {
        let dataset = SyntheticVision::new(cfg.dataset, cfg.seed);
        let mut spec = *dataset.spec();
        if let Some(n) = cfg.client_samples_override {
            spec.client_samples = n;
        }
        let t0 = Instant::now();
        let (test_x, _) = dataset.test_set(cfg.test_per_class);
        self.sample("data.test_set_ms", t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        let partition = Partition::build(
            &spec,
            cfg.heterogeneity,
            cfg.n_clients,
            cfg.seed ^ PARTITION_SALT,
        );
        self.sample("data.partition_ms", t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        let template = cfg
            .model
            .build(&spec.sample_shape(), spec.classes, cfg.seed);
        self.sample("models.build_ms", t0.elapsed().as_secs_f64() * 1e3);

        let rows = EVAL_CHUNK.min(test_x.shape()[0]);
        let elems = test_x.len() / test_x.shape()[0];
        let mut shape = test_x.shape().to_vec();
        shape[0] = rows;
        let mut test_chunk = Tensor::zeros(&shape);
        test_chunk
            .as_mut_slice()
            .copy_from_slice(&test_x.as_slice()[..rows * elems]);

        let n_params = template.num_params();
        let hyper = w.hyper();
        let mut algorithm = ALGORITHM.build(&hyper);
        algorithm.on_init(cfg.n_clients, n_params);
        let mut fedavg = AlgorithmKind::FedAvg.build(&hyper);
        fedavg.on_init(cfg.n_clients, n_params);
        let sampler = Sampler::new(
            cfg.seed,
            cfg.clients_per_round,
            cfg.selection,
            cfg.failure_prob,
            ClientSizes::Uniform {
                n_clients: cfg.n_clients,
                samples: spec.client_samples,
            },
        )
        .with_availability(cfg.availability_model())
        .with_profiles(DeviceProfiles::new(
            cfg.seed,
            cfg.n_clients,
            cfg.device_het as f64,
        ));
        self.replay = Some(Replay {
            cfg: *cfg,
            dataset,
            partition,
            template,
            test_chunk,
            algorithm,
            fedavg,
            sampler,
            up: cfg.compression.build(),
            down: cfg.downlink_compression.build(),
            prev_flops: 0.0,
        });
    }

    /// Open the round's parent span and copy what the replays need.
    pub fn before_round(&mut self, sim: &Simulation) -> PreRound {
        let span = self.log.open("round", None);
        self.round_spans.push(span);
        let (view, last, residual, epoch) = sim.broadcast_state();
        PreRound {
            span,
            global: sim.global_params().to_vec(),
            view: view.to_vec(),
            last: last.to_vec(),
            residual: residual.map(<[f32]>::to_vec),
            epoch,
            states: sim.client_states().clone(),
            utility: sim.utility_table().clone(),
            sched: sim.scheduler_state(),
            server_state: sim.algorithm_server_state(),
        }
    }

    /// Record the round's `run_round` span (it took `run_s`, ending now),
    /// replay each layer's public call on the captured inputs, and close
    /// the round span.
    pub fn after_round(
        &mut self,
        sim: &Simulation,
        pre: PreRound,
        run_s: f64,
        checks: &mut Checks,
    ) {
        let Tracer {
            log,
            samples,
            replay,
            trained,
            folded,
            ..
        } = self;
        let rp = replay
            .as_mut()
            .expect("begin_episode runs before any round");
        let end = log.now();
        log.spans.push(Span {
            name: "engine.run_round",
            start: end - run_s,
            end,
            parent: Some(pre.span),
        });
        let parent = pre.span;
        let cfg = rp.cfg;
        let rec = sim.records().last().expect("a round just ran").clone();
        let t = rec.round;
        push(samples, "engine.round_ms", run_s * 1e3);
        rp.algorithm.restore_server_state(pre.server_state.clone());

        // downlink: the broadcast step that precedes training
        let delta_down = !rp.down.is_identity();
        let resync = delta_down && cfg.resync_interval > 0 && t.is_multiple_of(cfg.resync_interval);
        let epoch = pre.epoch + u64::from(resync);
        let mut down_s = 0.0;
        let train_global = if delta_down && !resync {
            let delta = vecops::sub(&pre.global, &pre.last);
            let mut residual = pre.residual.clone();
            let ((decoded, _), dt) = log.time("compression.down_step", parent, || {
                error_feedback_step(rp.down.as_ref(), &delta, &mut residual, true)
            });
            down_s = dt;
            push(samples, "compression.down_step_us", dt * 1e6);
            let mut view = pre.view.clone();
            vecops::axpy(&mut view, 1.0, &decoded);
            view
        } else {
            if !delta_down {
                // a dense broadcast: the identity codec's step on the model
                let (_, dt) = log.time("compression.down_step", parent, || {
                    error_feedback_step(rp.down.as_ref(), &pre.global, &mut None, false)
                });
                push(samples, "compression.down_step_us", dt * 1e6);
            }
            pre.global.clone()
        };

        // selection: who trains this step
        let (cohort, select_s) = match cfg.mode {
            RunMode::Sync => {
                let (_, dt) = log.time("sampler.select", parent, || {
                    rp.sampler.select_with(t, &pre.utility)
                });
                (rp.sampler.participants_with(t, &pre.utility), dt)
            }
            RunMode::SemiAsync => {
                let mut busy: Vec<usize> = pre.sched.in_flight.iter().map(|j| j.client).collect();
                busy.sort_unstable();
                let deficit = cfg.clients_per_round.saturating_sub(busy.len());
                if deficit == 0 {
                    (Vec::new(), 0.0)
                } else {
                    let (picked, dt) = log.time("sampler.select", parent, || {
                        rp.sampler.select_idle(t, &busy, deficit)
                    });
                    (rp.sampler.apply_failures(t, &picked), dt)
                }
            }
        };
        if select_s > 0.0 {
            push(samples, "sampler.select_us", select_s * 1e6);
        }

        // local training of the cohort
        let exec = ClientExecutor {
            cfg: &cfg,
            dataset: &rp.dataset,
            partition: sim.partition(),
            template: &rp.template,
            compressor: rp.up.as_ref(),
            down_delta: delta_down,
            resync_round: resync,
            broadcast_epoch: epoch,
        };
        let mut states = pre.states.clone();
        let (outcomes, train_s) = log.time("executor.train_batch", parent, || {
            exec.train_batch(
                rp.algorithm.as_ref(),
                &train_global,
                &mut states,
                &cohort,
                t,
            )
        });
        drop(states);
        if !cohort.is_empty() {
            push(samples, "executor.train_batch_ms", train_s * 1e3);
            let gflop = (rec.cum_flops - rp.prev_flops) / 1e9;
            push(samples, "tensor.gflop_per_round", gflop);
            push(samples, "tensor.gflops_per_s", gflop / train_s);
        }
        rp.prev_flops = rec.cum_flops;
        *trained += cohort.len();
        *folded += rec.selected.len();

        // the outcomes that folded this round, in fold order
        let mut pool: Vec<(usize, usize, LocalOutcome)> = pre
            .sched
            .buffer
            .iter()
            .chain(&pre.sched.in_flight)
            .map(|j| (j.client, j.dispatch_version, j.outcome.clone()))
            .collect();
        pool.extend(
            cohort
                .iter()
                .zip(outcomes)
                .map(|(&c, o)| (c, pre.sched.version, o)),
        );
        let mut fold_in = Vec::with_capacity(rec.selected.len());
        for &c in &rec.selected {
            if let Some(i) = pool.iter().position(|(pc, _, _)| *pc == c) {
                let (_, dispatched, mut o) = pool.swap_remove(i);
                if cfg.mode == RunMode::SemiAsync {
                    o.staleness = pre.sched.version - dispatched;
                    o.agg_weight = staleness_weight(o.staleness, cfg.staleness_exponent);
                }
                fold_in.push(o);
            }
        }
        checks.check(fold_in.len() == rec.selected.len(), || {
            format!(
                "round {t}: the replay trained {:?} but the engine folded {:?}",
                cohort, rec.selected
            )
        });

        // uplink codec step, per folded client (the executor already ran
        // it inside train_batch; this times the call on its own)
        for (o, &c) in fold_in.iter().zip(&rec.selected) {
            let update = vecops::sub(&o.params, &train_global);
            let mut residual = pre.states.get(c).and_then(|s| s.residual.clone());
            let (_, dt) = log.time("compression.up_step", parent, || {
                error_feedback_step(rp.up.as_ref(), &update, &mut residual, cfg.error_feedback)
            });
            push(samples, "compression.up_step_us", dt * 1e6);
        }

        // fold through the edge tier
        let mut fold_s = 0.0;
        if !fold_in.is_empty() {
            let tier = EdgeTier::new(cfg.edges);
            let ((_, _, active), dt) = log.time("edge.fold", parent, || {
                tier.fold_streamed(rp.algorithm.as_ref(), &train_global, &rec.selected, fold_in)
            });
            fold_s = dt;
            push(samples, "edge.fold_ms", dt * 1e3);
            push(samples, "edge.active", active.len() as f64);
        }

        // evaluation, on evaluation rounds
        let mut eval_s = 0.0;
        if let Some(acc) = rec.accuracy {
            let (replayed, dt) = log.time("engine.evaluate", parent, || sim.evaluate());
            eval_s = dt;
            push(samples, "engine.evaluate_ms", dt * 1e3);
            checks.check(replayed.to_bits() == acc.to_bits(), || {
                format!("round {t}: evaluate() gave {replayed}, the record {acc}")
            });
        }
        push(
            samples,
            "engine.unattributed_ms",
            (run_s - select_s - down_s - train_s - fold_s - eval_s) * 1e3,
        );

        // per-client local training, one client at a time
        let lr = cfg.lr_schedule.lr_at(cfg.lr, t);
        let mut net = rp.template.clone();
        let mut local = |alg: &dyn Algorithm, log: &mut SpanLog, c: usize| {
            let mut state = pre.states.get(c).cloned().unwrap_or_default();
            let shard = sim.partition().shard(c);
            net.set_params_flat(&train_global);
            let ctx = LocalContext {
                round: t,
                client_id: c,
                global: &train_global,
                gap: state.last_round.map(|lr| t.saturating_sub(lr)),
                epochs: cfg.local_epochs,
                batch_size: cfg.batch_size,
                lr,
                momentum: cfg.momentum,
                seed: cfg.seed,
            };
            let data = ClientData {
                dataset: &rp.dataset,
                refs: &shard[..],
            };
            log.time("algorithms.local_train", parent, || {
                alg.local_train(&mut net, &data, &mut state, &ctx)
            })
            .1
        };
        let serial: Vec<f64> = cohort
            .iter()
            .map(|&c| local(rp.algorithm.as_ref(), log, c))
            .collect();
        for &s in &serial {
            push(samples, "algorithms.local_train_ms", s * 1e3);
        }
        if let Some(&first) = cohort.first() {
            let avg = local(rp.fedavg.as_ref(), log, first);
            push(samples, "algorithms.fedtrip_over_fedavg", serial[0] / avg);
            let threads = rayon::current_num_threads().max(1) as f64;
            push(
                samples,
                "executor.parallel_eff",
                serial.iter().sum::<f64>() / (train_s * threads),
            );

            // data synthesis of one client epoch, and the kernels of one batch
            let shard = sim.partition().shard(first);
            let chunks: Vec<_> = shard.chunks(cfg.batch_size).collect();
            let (_, dt) = log.time("data.batch", parent, || {
                for chunk in &chunks {
                    std::hint::black_box(rp.dataset.batch(chunk));
                }
            });
            push(samples, "data.batch_ms", dt * 1e3);
            let (x, y) = rp.dataset.batch(chunks[0]);
            let mut net = rp.template.clone();
            net.set_params_flat(&train_global);
            let (_, dt) = log.time("tensor.train_step", parent, || net.train_step(&x, &y));
            push(samples, "tensor.train_step_ms", dt * 1e3);
            let (_, dt) = log.time("tensor.predict", parent, || net.predict(&rp.test_chunk));
            push(samples, "tensor.predict_ms", dt * 1e3);
        }
        for &c in &cohort {
            let (_, dt) = log.time("data.shard", parent, || rp.partition.shard(c));
            push(samples, "data.shard_us", dt * 1e6);
        }

        push(samples, "scheduler.staleness_mean", rec.mean_staleness);
        push(
            samples,
            "scheduler.folded_per_round",
            rec.selected.len() as f64,
        );
        push(samples, "compression.up_ratio", rec.compression_ratio);
        push(
            samples,
            "compression.down_ratio",
            rec.compression_ratio_down,
        );
        log.close(parent);
    }

    /// Record the episode's end state and its checkpoint round trip.
    pub fn end_episode(&mut self, sim: &Simulation, ckpt: Option<&CkptTimes>) {
        self.sample(
            "algorithms.resident_states",
            sim.client_states().resident() as f64,
        );
        self.sample(
            "data.resident_shards",
            sim.partition().resident_shards() as f64,
        );
        self.replay = None;
        let Some(ckpt) = ckpt else { return };
        self.sample("checkpoint.capture_ms", ckpt.capture_s * 1e3);
        self.sample("checkpoint.save_ms", ckpt.save_s * 1e3);
        self.sample("checkpoint.load_ms", ckpt.load_s * 1e3);
        self.sample("checkpoint.restore_ms", ckpt.restore_s * 1e3);
        self.sample("checkpoint.entries", ckpt.entries as f64);
        self.sample(
            "checkpoint.load_mb_per_s",
            ckpt.bytes as f64 / 1e6 / ckpt.load_s,
        );
    }

    /// Traced rounds per second of `run_round` time alone.
    pub fn rounds_per_s(&self) -> f64 {
        let ms = self.samples("engine.round_ms");
        ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3)
    }

    /// Folded over trained clients, across every traced round.
    pub fn kept_frac(&self) -> f64 {
        self.folded as f64 / self.trained.max(1) as f64
    }

    /// Median self time of the round spans: the harness's own work
    /// between the timed calls (state copies and bookkeeping).
    pub fn harness_self_ms(&self) -> f64 {
        let selfs: Vec<f64> = self
            .round_spans
            .iter()
            .map(|&i| stats::self_time(&self.log.spans, i) * 1e3)
            .collect();
        stats::median(&selfs).unwrap_or(0.0)
    }
}
