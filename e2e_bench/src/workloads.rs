//! The benchmark's workloads: one fixed engine configuration each, a target
//! accuracy, and the episode shape a run repeats. `NOTES.md` beside this
//! crate records why each was chosen and which layers it stresses.

use fedtrip_core::compression::CompressionKind;
use fedtrip_core::{AlgorithmKind, ExperimentSpec, HyperParams, RunMode, SelectionStrategy};
use fedtrip_core::{Simulation, SimulationConfig};
use fedtrip_data::partition::HeterogeneityKind;
use fedtrip_data::synth::DatasetKind;
use fedtrip_models::ModelKind;

/// When an episode takes its checkpoint round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptAt {
    /// After the given round (while the federation is still young).
    AfterRound(usize),
    /// After the episode's last round.
    End,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// First evaluated accuracy at or above this counts as reaching the
    /// target.
    pub target: f64,
    /// Episodes on the fixed reference panel, which every run repeats:
    /// `rounds_to_target`, `wall_to_target_s` and `final_acc` are read
    /// from them alone (see [`REFERENCE_SEED`]).
    pub reference: usize,
    /// Episodes on sub-seeds drawn from the run's `--seed` that every run
    /// takes at least; more follow while the run's seconds last.
    pub panel: usize,
    /// Rounds every episode runs; `final_acc` and `comm_mb` are read here.
    pub fixed_rounds: usize,
    /// Rounds an episode may run while its target is still unmet; a seed
    /// that needs more misses its target, which fails the run.
    pub max_rounds: usize,
    /// Evaluated rounds `final_acc` averages over.
    pub final_evals: usize,
    /// Checkpoint round trip position.
    pub ckpt: CkptAt,
    /// Episodes of an untraced run that take the checkpoint round trip
    /// (the first ones). A large checkpoint takes seconds to load, which
    /// would otherwise leave room for too few sub-seeds.
    pub ckpt_episodes: usize,
    /// Engine configuration for a seed (identical for every seed).
    config: fn(u64) -> SimulationConfig,
}

/// Every workload trains FedTrip, with the paper's hyper-parameters for its
/// dataset and model.
pub const ALGORITHM: AlgorithmKind = AlgorithmKind::FedTrip;

/// Round budget of `fleet_churn`, which is also its churn join window.
const FLEET_ROUNDS: usize = 100;

/// Every workload, in report order.
pub const ALL: [Workload; 3] = [
    Workload {
        name: "paper_sync",
        target: 0.6,
        reference: 3,
        panel: 5,
        fixed_rounds: 10,
        max_rounds: 80,
        final_evals: 3,
        ckpt: CkptAt::End,
        ckpt_episodes: 3,
        config: paper_sync,
    },
    Workload {
        name: "fleet_churn",
        target: 0.13,
        reference: 6,
        panel: 5,
        fixed_rounds: 20,
        max_rounds: FLEET_ROUNDS,
        final_evals: 2,
        ckpt: CkptAt::AfterRound(1),
        ckpt_episodes: 2,
        config: fleet_churn,
    },
    Workload {
        name: "async_cifar",
        target: 0.13,
        reference: 3,
        panel: 2,
        fixed_rounds: 10,
        max_rounds: 60,
        final_evals: 3,
        ckpt: CkptAt::AfterRound(1),
        ckpt_episodes: 2,
        config: async_cifar,
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name == name)
    }

    /// The engine configuration for `seed`. The round budget is the
    /// episode cap; episodes stop earlier once both `fixed_rounds` and the
    /// target are behind them.
    pub fn config(&self, seed: u64) -> SimulationConfig {
        SimulationConfig {
            rounds: self.max_rounds,
            ..(self.config)(seed)
        }
    }

    /// A fresh simulation for `seed`: the configuration plus the method.
    pub fn build(&self, seed: u64) -> Simulation {
        Simulation::new(self.config(seed), ALGORITHM.build(&self.hyper()))
    }

    /// Hyper-parameters (the paper's per-cell `mu`).
    pub fn hyper(&self) -> HyperParams {
        let c = (self.config)(0);
        ExperimentSpec::paper_hyper(c.dataset, c.model)
    }
}

/// Seed of the reference panel. The round at which an accuracy target is
/// first reached varies by half its median from one seed to the next
/// (paper_sync, target 0.6: 4 to 16 rounds for 23 of 24 seeds, more than
/// 40 for the last), and even the median
/// of 13 seeds spreads by about a fifth from one panel to the next, more
/// than a bound may allow. So the accuracy-derived metrics are read on one
/// fixed panel, as deterministic as the golden fixtures, while every
/// timing, byte count and checkpoint comes from episodes on `--seed`.
pub const REFERENCE_SEED: u64 = 2023;

/// Sub-seed `i` of a panel: a SplitMix64 step over `(seed, i)`, so each
/// `--seed` names its own fixed panel.
pub fn sub_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((i as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn base(seed: u64) -> SimulationConfig {
    SimulationConfig {
        heterogeneity: HeterogeneityKind::Dirichlet(0.5),
        seed,
        ..SimulationConfig::default()
    }
}

/// The paper cell at default scale: CNN on MNIST-like data, N=10, K=4.
fn paper_sync(seed: u64) -> SimulationConfig {
    SimulationConfig {
        dataset: DatasetKind::MnistLike,
        model: ModelKind::Cnn,
        n_clients: 10,
        clients_per_round: 4,
        client_samples_override: Some(150),
        batch_size: 12,
        eval_every: 1,
        test_per_class: 20,
        ..base(seed)
    }
}

/// Diurnal availability period and on-fraction of `fleet_churn`.
const FLEET_DAY: (usize, f32) = (24, 0.5);

/// A large churning fleet of tiny clients behind eight edges, with both
/// link directions quantized.
fn fleet_churn(seed: u64) -> SimulationConfig {
    SimulationConfig {
        dataset: DatasetKind::MnistLike,
        model: ModelKind::TinyMlp,
        n_clients: 100_000,
        clients_per_round: 32,
        edges: 8,
        client_samples_override: Some(40),
        batch_size: 20,
        selection: SelectionStrategy::Oort,
        availability_period: FLEET_DAY.0,
        availability_on_fraction: FLEET_DAY.1,
        churn_join_window: FLEET_ROUNDS,
        churn_residency: 50,
        device_het: 4.0,
        deadline_secs: FLEET_DEADLINE_SECS,
        compression: CompressionKind::Q8,
        error_feedback: true,
        downlink_compression: CompressionKind::Q8,
        resync_interval: 10,
        eval_every: 10,
        test_per_class: 20,
        ..base(seed)
    }
}

/// Reporting deadline of `fleet_churn`, in virtual seconds: between the
/// round durations of the fastest and the slowest devices of the 4x spread,
/// so part of each cohort misses it (about 15%, more in the first rounds,
/// when every client still needs a dense broadcast).
const FLEET_DEADLINE_SECS: f32 = 0.08;

/// Semi-async buffered aggregation of a CIFAR-like CNN.
fn async_cifar(seed: u64) -> SimulationConfig {
    SimulationConfig {
        dataset: DatasetKind::Cifar10Like,
        model: ModelKind::CifarCnn,
        n_clients: 20,
        clients_per_round: 4,
        mode: RunMode::SemiAsync,
        async_buffer: 0,
        device_het: 4.0,
        client_samples_override: Some(96),
        batch_size: 8,
        eval_every: 1,
        test_per_class: 20,
        ..base(seed)
    }
}
