//! Simulation checkpointing: pause a federated run, serialize everything
//! that defines its future (global model, per-client states, server-side
//! algorithm state, round records), and resume bit-identically later.
//!
//! Because every random stream in the engine is derived from
//! `(seed, domain tags, round, client)` rather than from mutable generator
//! state, a resumed run needs no RNG snapshot: replaying round `t+1` after a
//! restore produces exactly the bytes the uninterrupted run would have.

use crate::algorithms::{AlgorithmKind, ClientState, HyperParams};
use crate::compression::CompressionKind;
use crate::engine::{RestoreError, RoundRecord, Simulation, SimulationConfig};
use crate::runtime::SchedulerState;
use serde::{Deserialize, Serialize};
use serde_json::{to_value, Value};
use std::fs;
use std::io;
use std::path::Path;

/// Current snapshot format version. [`Checkpoint::load`] reads v3–v7:
/// an older document is edited into the current layout by the private
/// `upgrade` step of this module, which gives every field a later version
/// added the value that reproduces the legacy federation exactly (pinned
/// by a bit-identical-resume test per version). Anything older, newer or
/// unversioned is rejected before full deserialization, so a foreign
/// snapshot reports its version instead of a missing-field error.
pub const CHECKPOINT_VERSION: u32 = 7;

/// The oldest format version [`Checkpoint::load`] still reads.
const OLDEST_VERSION: u64 = 3;

/// One sparse client-state entry of a v4+ snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClientEntry {
    /// Client id within the federation.
    pub client: usize,
    /// The client's persistent state.
    pub state: ClientState,
}

/// One utility-table entry of a v6+ snapshot: the most recent mean
/// training loss reported by a client, the statistical-utility half of
/// the Oort selection score. Stored sparse and in ascending client order
/// (the table is a `BTreeMap` server-side), so serialization is
/// deterministic.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct UtilityEntry {
    /// Client id within the federation.
    pub client: usize,
    /// Last observed mean training loss for that client.
    pub loss: f64,
}

/// A serialized simulation snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Snapshot format version (see [`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Engine configuration.
    pub config: SimulationConfig,
    /// Which method was running.
    pub algorithm: AlgorithmKind,
    /// Its hyper-parameters.
    pub hyper: HyperParams,
    /// Rounds completed.
    pub round: usize,
    /// Global model parameters.
    pub global: Vec<f32>,
    /// Per-client persistent state — sparse: only clients that have
    /// participated carry an entry, in ascending client order.
    pub states: Vec<ClientEntry>,
    /// Server-side algorithm state (momentum buffers etc.).
    pub server_state: Vec<Vec<f32>>,
    /// Round records so far.
    pub records: Vec<RoundRecord>,
    /// Root virtual-clock instant at capture (can sit past the last
    /// record's fold time while semi-async arrivals were being collected).
    pub clock: f64,
    /// Per-edge virtual-clock instants at capture, one per configured edge
    /// aggregator in edge order (`config.edges` entries; a single entry
    /// equal to `clock` for the flat `edges = 1` federation).
    pub edge_clocks: Vec<f64>,
    /// Scheduler position: fold counter plus in-flight / buffered jobs
    /// (empty for the stateless synchronous scheduler).
    pub scheduler: SchedulerState,
    /// Server-side utility table — last observed mean loss per client,
    /// sparse, ascending client order. Selection under the Oort strategy
    /// depends on it, so it must survive the round trip for a resumed run
    /// to stay bit-identical. The availability traces themselves need no
    /// snapshot state: they are pure functions of `(seed, client, round)`,
    /// so `round` above is the whole availability cursor.
    pub utility: Vec<UtilityEntry>,
    /// Clients' reconstructed view of the global model under delta
    /// broadcasts — empty when the downlink is dense (nothing to carry;
    /// restore re-anchors it to the global model if a delta-downlink
    /// configuration later resumes this snapshot).
    pub broadcast_view: Vec<f32>,
    /// Global parameters at the last broadcast (the delta reference
    /// `w_broadcast_base`); empty when the downlink is dense.
    pub broadcast_last: Vec<f32>,
    /// Server-side downlink error-feedback residual; empty when absent
    /// (dense downlink, or a delta run that has not dropped mass yet).
    pub broadcast_residual: Vec<f32>,
    /// Broadcast sync epoch — which full-model resync generation the
    /// clients' views belong to.
    pub broadcast_epoch: u64,
}

/// Wrap an I/O or parse failure as the uniform [`RestoreError::Snapshot`]
/// so every way a `--resume` can fail reports through one `Display` path.
fn snapshot_err(context: &str, detail: impl std::fmt::Display) -> RestoreError {
    RestoreError::Snapshot(format!("{context}: {detail}"))
}

impl Checkpoint {
    /// Capture a snapshot of a running simulation.
    ///
    /// `algorithm`/`hyper` must be the values the simulation was built with
    /// (the engine holds only the type-erased method).
    pub fn capture(sim: &Simulation, algorithm: AlgorithmKind, hyper: HyperParams) -> Checkpoint {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            config: *sim.config(),
            algorithm,
            hyper,
            round: sim.rounds_done(),
            global: sim.global_params().to_vec(),
            states: sim
                .client_states()
                .iter()
                .map(|(client, state)| ClientEntry {
                    client,
                    state: state.clone(),
                })
                .collect(),
            server_state: sim.algorithm_server_state(),
            records: sim.records().to_vec(),
            clock: sim.virtual_time(),
            edge_clocks: sim.edge_clock_times(),
            scheduler: sim.scheduler_state(),
            utility: sim
                .utility_table()
                .export()
                .into_iter()
                .map(|(client, loss)| UtilityEntry { client, loss })
                .collect(),
            broadcast_view: sim.broadcast_state().0.to_vec(),
            broadcast_last: sim.broadcast_state().1.to_vec(),
            broadcast_residual: sim
                .broadcast_state()
                .2
                .map(<[f32]>::to_vec)
                .unwrap_or_default(),
            broadcast_epoch: sim.broadcast_state().3,
        }
    }

    /// Rebuild a simulation that continues exactly where the snapshot
    /// stopped.
    ///
    /// A snapshot that does not fit its own recorded configuration (invalid
    /// configuration, wrong parameter count, client ids beyond the
    /// federation, edge-clock count diverging from `config.edges`,
    /// inconsistent record count) returns a clean [`RestoreError`] instead
    /// of panicking — upgraded legacy snapshots are validated the same way.
    pub fn restore(&self) -> Result<Simulation, RestoreError> {
        // Simulation::new panics on an invalid configuration: check it as a
        // clean error first
        self.config
            .validate()
            .map_err(RestoreError::InvalidConfig)?;
        let mut sim = Simulation::new(self.config, self.algorithm.build(&self.hyper));
        sim.restore(self)?;
        Ok(sim)
    }

    /// Write the snapshot as JSON.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let json = serde_json::to_string(self)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        fs::write(path, json)
    }

    /// Read a snapshot back. A v3–v6 file is upgraded to the current
    /// layout first (see [`CHECKPOINT_VERSION`]) and then goes through the
    /// same strict deserializer as a current one, so a document missing any
    /// field of its own version is rejected.
    ///
    /// Every failure — unreadable file, malformed JSON, foreign `version`
    /// (including pre-versioning files, which lack the field entirely),
    /// fields that do not deserialize — surfaces as
    /// [`RestoreError::Snapshot`], so callers report `--resume` problems
    /// through one uniform [`std::fmt::Display`] path.
    pub fn load(path: &Path) -> Result<Checkpoint, RestoreError> {
        let body = fs::read_to_string(path)
            .map_err(|e| snapshot_err(&format!("cannot read {}", path.display()), e))?;
        // check the version off the raw JSON first: a snapshot from another
        // format version should report that version, not whatever
        // missing-field error full deserialization happens to hit first
        let mut value: Value =
            serde_json::from_str(&body).map_err(|e| snapshot_err("malformed snapshot JSON", e))?;
        let current = u64::from(CHECKPOINT_VERSION);
        let version = match value.get("version").and_then(Value::as_u64) {
            Some(v) if (OLDEST_VERSION..=current).contains(&v) => v,
            other => {
                return Err(RestoreError::Snapshot(format!(
                "checkpoint format version {} unsupported (expected {OLDEST_VERSION} to {current})",
                other.map_or_else(|| "<missing>".into(), |v| v.to_string()),
            )))
            }
        };
        upgrade(&mut value, version);
        serde::Deserialize::from_value(&value).map_err(|e| {
            snapshot_err(
                &format!("v{version} snapshot does not fit the v{CHECKPOINT_VERSION} layout"),
                e,
            )
        })
    }
}

/// Edit a v`from` snapshot document into the current layout, one version
/// step at a time. Each step gives the fields that version added the value
/// that reproduces the legacy federation exactly, so an upgraded resume is
/// bit-identical. A document of the current version is left untouched; a
/// malformed one is edited as far as its shape allows and left for the
/// strict deserializer to reject.
fn upgrade(doc: &mut Value, from: u64) {
    for step in from..u64::from(CHECKPOINT_VERSION) {
        match step {
            // v3 stored one state per client: keep the non-vacant ones as
            // sparse `{client, state}` entries (a vacant state is
            // indistinguishable from never-participated)
            3 => {
                if let Some(states) = doc.get_mut("states").and_then(Value::as_array_mut) {
                    let dense = std::mem::take(states);
                    *states = dense
                        .into_iter()
                        .enumerate()
                        .filter(|(_, state)| {
                            !["last_round", "historical", "correction", "residual"]
                                .iter()
                                .all(|k| state.get(k).is_some_and(Value::is_null))
                        })
                        .map(|(client, state)| {
                            Value::Object(vec![
                                ("client".into(), to_value(&client)),
                                ("state".into(), state),
                            ])
                        })
                        .collect();
                }
            }
            // no edge tier: the flat fold is the one-edge tree, its clock
            // colocated with the root
            4 => {
                if let Some(config) = doc.get_mut("config") {
                    set(config, "edges", to_value(&1usize));
                }
                let clock = doc.get("clock").cloned().unwrap_or(Value::Null);
                set(doc, "edge_clocks", Value::Array(vec![clock]));
            }
            // no availability layer: always-on, no churn, no deadline, and
            // no utility history
            5 => {
                if let Some(config) = doc.get_mut("config") {
                    set(config, "availability_period", to_value(&0usize));
                    set(config, "availability_on_fraction", to_value(&0.5f32));
                    set(config, "churn_join_window", to_value(&0usize));
                    set(config, "churn_residency", to_value(&0usize));
                    set(config, "deadline_secs", to_value(&0.0f32));
                }
                set(doc, "utility", Value::Array(Vec::new()));
            }
            // dense-only downlink: codec off, no sync epochs, every job
            // dispatched dense, empty broadcast state (restore re-anchors it
            // to the global model)
            6 => {
                if let Some(config) = doc.get_mut("config") {
                    set(
                        config,
                        "downlink_compression",
                        to_value(&CompressionKind::None),
                    );
                    set(config, "resync_interval", to_value(&0usize));
                }
                for entry in each(doc, "states") {
                    if let Some(state) = entry.get_mut("state") {
                        set(state, "sync_epoch", Value::Null);
                    }
                }
                if let Some(scheduler) = doc.get_mut("scheduler") {
                    for queue in ["in_flight", "buffer"] {
                        for job in each(scheduler, queue) {
                            if let Some(outcome) = job.get_mut("outcome") {
                                set(outcome, "dense_down", Value::Bool(true));
                            }
                        }
                    }
                }
                // a legacy round's downlink bytes are what its cumulative
                // total already counted beyond the uplink:
                // cum(t) - cum(t-1) - up(t)
                let mut prev_cum = 0.0f64;
                for record in each(doc, "records") {
                    let cum = record.get("cum_comm_bytes").and_then(Value::as_f64);
                    let up = record.get("comm_bytes_up").and_then(Value::as_f64);
                    if let (Some(cum), Some(up)) = (cum, up) {
                        set(
                            record,
                            "comm_bytes_down",
                            to_value(&(cum - prev_cum - up).max(0.0)),
                        );
                        prev_cum = cum;
                    }
                    set(record, "compression_ratio_down", to_value(&1.0f64));
                }
                for key in ["broadcast_view", "broadcast_last", "broadcast_residual"] {
                    set(doc, key, Value::Array(Vec::new()));
                }
                set(doc, "broadcast_epoch", to_value(&0u64));
            }
            _ => {}
        }
        set(doc, "version", to_value(&(step + 1)));
    }
}

/// Set `key` on a JSON object, replacing any existing value (a no-op on a
/// non-object, which the strict deserializer then rejects).
fn set(obj: &mut Value, key: &str, value: Value) {
    if let Value::Object(entries) = obj {
        match entries.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => entries.push((key.to_string(), value)),
        }
    }
}

/// The elements of the array under `key` (none when absent or not an
/// array).
fn each<'a>(doc: &'a mut Value, key: &str) -> impl Iterator<Item = &'a mut Value> {
    doc.get_mut(key)
        .and_then(Value::as_array_mut)
        .into_iter()
        .flatten()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedtrip_data::partition::HeterogeneityKind;
    use fedtrip_data::synth::DatasetKind;
    use fedtrip_models::ModelKind;

    fn cfg(seed: u64) -> SimulationConfig {
        SimulationConfig {
            dataset: DatasetKind::MnistLike,
            model: ModelKind::TinyMlp,
            heterogeneity: HeterogeneityKind::Dirichlet(0.5),
            n_clients: 6,
            clients_per_round: 3,
            rounds: 8,
            batch_size: 25,
            lr: 0.05,
            seed,
            test_per_class: 5,
            client_samples_override: Some(50),
            ..SimulationConfig::default()
        }
    }

    fn resume_equals_straight_cfg(config: SimulationConfig, kind: AlgorithmKind) {
        let hyper = HyperParams::default();
        // straight run: 8 rounds
        let mut straight = Simulation::new(config, kind.build(&hyper));
        straight.run();

        // split run: 4 rounds, checkpoint, restore, 4 more
        let mut first = Simulation::new(config, kind.build(&hyper));
        for _ in 0..4 {
            first.run_round();
        }
        let ckpt = Checkpoint::capture(&first, kind, hyper);
        let mut resumed = ckpt.restore().expect("self-consistent checkpoint");
        resumed.run();

        assert_eq!(
            straight.global_params(),
            resumed.global_params(),
            "{}: resumed run diverged from straight run",
            kind.name()
        );
        assert_eq!(straight.records().len(), resumed.records().len());
    }

    fn resume_equals_straight(kind: AlgorithmKind) {
        resume_equals_straight_cfg(cfg(31), kind);
    }

    /// Author a legacy v`version` snapshot file body from a current
    /// capture: remove the keys that version lacked (v3 also gets a dense
    /// `states` array over the whole federation) and stamp `version`.
    /// Byte-for-byte what the frozen v3–v6 serializers wrote.
    fn legacy_json(cur: &Checkpoint, version: u64) -> String {
        fn drop_keys(v: &mut Value, keys: &[&str]) {
            if let Value::Object(entries) = v {
                entries.retain(|(k, _)| !keys.contains(&k.as_str()));
            }
        }
        let mut doc = to_value(cur);
        // v7 added the broadcast state, the downlink knobs and columns,
        // the sync epoch and the dense-downlink bit
        drop_keys(
            &mut doc,
            &[
                "broadcast_view",
                "broadcast_last",
                "broadcast_residual",
                "broadcast_epoch",
            ],
        );
        let mut config_keys = vec!["downlink_compression", "resync_interval"];
        for e in each(&mut doc, "states") {
            drop_keys(e.get_mut("state").unwrap(), &["sync_epoch"]);
        }
        for r in each(&mut doc, "records") {
            drop_keys(r, &["comm_bytes_down", "compression_ratio_down"]);
        }
        let scheduler = doc.get_mut("scheduler").unwrap();
        for queue in ["in_flight", "buffer"] {
            for job in each(scheduler, queue) {
                drop_keys(job.get_mut("outcome").unwrap(), &["dense_down"]);
            }
        }
        if version < 6 {
            drop_keys(&mut doc, &["utility"]);
            config_keys.extend([
                "availability_period",
                "availability_on_fraction",
                "churn_join_window",
                "churn_residency",
                "deadline_secs",
            ]);
        }
        if version < 5 {
            drop_keys(&mut doc, &["edge_clocks"]);
            config_keys.push("edges");
        }
        drop_keys(doc.get_mut("config").unwrap(), &config_keys);
        if version < 4 {
            let mut vacant = to_value(&ClientState::default());
            drop_keys(&mut vacant, &["sync_epoch"]);
            let states = doc.get_mut("states").unwrap();
            let mut dense = vec![vacant; cur.config.n_clients];
            for e in states.as_array().unwrap() {
                let client = e.get("client").and_then(Value::as_u64).unwrap() as usize;
                dense[client] = e.get("state").unwrap().clone();
            }
            *states = Value::Array(dense);
        }
        *doc.get_mut("version").unwrap() = Value::U64(version);
        serde_json::to_string(&doc).unwrap()
    }

    /// Run 4 rounds, write a legacy v`version` snapshot of them, load it
    /// back (upgrading it), and check the upgraded resume against the
    /// straight 8-round run bit for bit. Returns the capture and the
    /// upgraded snapshot for version-specific checks.
    fn legacy_resume_is_bit_identical(
        config: SimulationConfig,
        version: u64,
    ) -> (Checkpoint, Checkpoint) {
        let hyper = HyperParams::default();
        let mut straight = Simulation::new(config, AlgorithmKind::FedTrip.build(&hyper));
        straight.run();

        let mut first = Simulation::new(config, AlgorithmKind::FedTrip.build(&hyper));
        for _ in 0..4 {
            first.run_round();
        }
        let cur = Checkpoint::capture(&first, AlgorithmKind::FedTrip, hyper);
        let path =
            std::env::temp_dir().join(format!("fedtrip_ckpt_v{version}_migration_test.json"));
        fs::write(&path, legacy_json(&cur, version)).unwrap();

        let migrated = Checkpoint::load(&path).unwrap();
        assert_eq!(migrated.version, CHECKPOINT_VERSION);
        let mut resumed = migrated.restore().expect("migrated checkpoint restores");
        resumed.run();
        assert_eq!(
            straight.global_params(),
            resumed.global_params(),
            "v{version}-migrated resume diverged from the straight run"
        );
        (cur, migrated)
    }

    #[test]
    fn resume_is_bit_identical_stateless_method() {
        resume_equals_straight(AlgorithmKind::FedTrip);
    }

    #[test]
    fn resume_is_bit_identical_server_stateful_methods() {
        // these keep server-side vectors that must survive the round trip
        resume_equals_straight(AlgorithmKind::SlowMo);
        resume_equals_straight(AlgorithmKind::FedDyn);
        resume_equals_straight(AlgorithmKind::Scaffold);
        resume_equals_straight(AlgorithmKind::MimeLite);
    }

    #[test]
    fn resume_is_bit_identical_under_compression_with_error_feedback() {
        // top-k exercises the residual state hardest: most of each update
        // is dropped and must survive the JSON round trip exactly
        let mut c = cfg(35);
        c.compression = CompressionKind::TopK(0.25);
        c.error_feedback = true;
        resume_equals_straight_cfg(c, AlgorithmKind::FedTrip);
        let mut c = cfg(36);
        c.compression = CompressionKind::Q8;
        c.error_feedback = true;
        c.mode = crate::runtime::RunMode::SemiAsync;
        c.device_het = 4.0;
        resume_equals_straight_cfg(c, AlgorithmKind::FedAvg);
    }

    #[test]
    fn resume_is_bit_identical_with_edge_tier() {
        // the per-edge clocks and the tree fold must survive the snapshot:
        // split an E=3 run and compare to the straight E=3 run, both modes
        let mut c = cfg(45);
        c.edges = 3;
        resume_equals_straight_cfg(c, AlgorithmKind::FedTrip);
        let mut c = cfg(46);
        c.edges = 2;
        c.mode = crate::runtime::RunMode::SemiAsync;
        c.device_het = 4.0;
        resume_equals_straight_cfg(c, AlgorithmKind::Scaffold);
    }

    #[test]
    fn resume_is_bit_identical_under_availability_churn_and_oort() {
        // the utility table feeds Oort selection, so it must survive the
        // round trip for the resumed half to pick the same clients; the
        // availability traces themselves are pure functions of
        // (seed, client, round) and need no snapshot state
        let mut c = cfg(50);
        c.selection = crate::runtime::SelectionStrategy::Oort;
        c.availability_period = 6;
        c.availability_on_fraction = 0.5;
        c.churn_join_window = 4;
        c.churn_residency = 8;
        c.device_het = 4.0;
        resume_equals_straight_cfg(c, AlgorithmKind::FedTrip);
        // deadline dropout charges the barrier differently: resume must
        // reproduce the kept/dropped split exactly
        let mut c = cfg(51);
        c.deadline_secs = 30.0;
        c.device_het = 4.0;
        resume_equals_straight_cfg(c, AlgorithmKind::FedAvg);
    }

    #[test]
    fn resume_is_bit_identical_under_delta_downlink_across_resync() {
        // capture at round 4 with resyncs at rounds 3 and 6: the resumed
        // half must carry the broadcast view / delta reference / downlink
        // residual and the per-client sync epochs across the boundary,
        // then replay round 6's resync identically
        let mut c = cfg(54);
        c.downlink_compression = CompressionKind::Q8;
        c.resync_interval = 3;
        resume_equals_straight_cfg(c, AlgorithmKind::FedTrip);
        // bidirectional compression with uplink error feedback, plus churn
        // joiners receiving on-demand dense bases after the resume point
        let mut c = cfg(55);
        c.compression = CompressionKind::Q8;
        c.error_feedback = true;
        c.downlink_compression = CompressionKind::Q4;
        c.resync_interval = 5;
        c.churn_join_window = 4;
        c.churn_residency = 8;
        resume_equals_straight_cfg(c, AlgorithmKind::FedAvg);
    }

    #[test]
    fn checkpoint_carries_broadcast_state() {
        let hyper = HyperParams::default();
        let mut c = cfg(56);
        c.downlink_compression = CompressionKind::TopK(0.1);
        c.resync_interval = 0; // never resync: the residual accumulates
        let mut sim = Simulation::new(c, AlgorithmKind::FedAvg.build(&hyper));
        for _ in 0..3 {
            sim.run_round();
        }
        let ckpt = Checkpoint::capture(&sim, AlgorithmKind::FedAvg, hyper);
        let n = ckpt.global.len();
        assert_eq!(ckpt.broadcast_view.len(), n);
        assert_eq!(ckpt.broadcast_last.len(), n);
        assert_eq!(ckpt.broadcast_residual.len(), n, "top-k must drop mass");
        assert!(
            ckpt.states.iter().all(|e| e.state.sync_epoch == Some(0)),
            "participants must be stamped with the broadcast epoch"
        );
        let restored = ckpt.restore().expect("self-consistent checkpoint");
        let (view, last, residual, epoch) = restored.broadcast_state();
        assert_eq!(view, &ckpt.broadcast_view[..]);
        assert_eq!(last, &ckpt.broadcast_last[..]);
        assert_eq!(residual, Some(&ckpt.broadcast_residual[..]));
        assert_eq!(epoch, ckpt.broadcast_epoch);

        // dense downlink: nothing to carry
        let mut sim = Simulation::new(cfg(57), AlgorithmKind::FedAvg.build(&hyper));
        sim.run_round();
        let ckpt = Checkpoint::capture(&sim, AlgorithmKind::FedAvg, hyper);
        assert!(ckpt.broadcast_view.is_empty());
        assert!(ckpt.broadcast_last.is_empty());
        assert!(ckpt.broadcast_residual.is_empty());
        assert!(ckpt.states.iter().all(|e| e.state.sync_epoch.is_none()));
    }

    #[test]
    fn v6_snapshot_migrates_as_dense_downlink_and_resumes_bit_identically() {
        let (cur, migrated) = legacy_resume_is_bit_identical(cfg(58), 6);
        assert_eq!(
            migrated.config.downlink_compression,
            CompressionKind::None,
            "v6 federations broadcast dense"
        );
        assert_eq!(migrated.config.resync_interval, 0);
        assert!(migrated.broadcast_view.is_empty());
        assert_eq!(migrated.broadcast_epoch, 0);
        assert!(migrated.states.iter().all(|e| e.state.sync_epoch.is_none()));
        // downlink bytes recovered from the cumulative totals
        let mut prev = 0.0;
        for (got, want) in migrated.records.iter().zip(&cur.records) {
            assert!(
                (got.comm_bytes_down - (want.cum_comm_bytes - prev - want.comm_bytes_up)).abs()
                    < 1e-6,
                "round {}: derived {} bytes",
                got.round,
                got.comm_bytes_down
            );
            assert_eq!(got.compression_ratio_down, 1.0);
            prev = want.cum_comm_bytes;
        }
    }

    #[test]
    fn checkpoint_carries_utility_table() {
        let hyper = HyperParams::default();
        let mut c = cfg(52);
        c.selection = crate::runtime::SelectionStrategy::Oort;
        let mut sim = Simulation::new(c, AlgorithmKind::FedAvg.build(&hyper));
        for _ in 0..3 {
            sim.run_round();
        }
        let ckpt = Checkpoint::capture(&sim, AlgorithmKind::FedAvg, hyper);
        assert!(!ckpt.utility.is_empty(), "no utility captured");
        // ascending client order (deterministic serialization)
        assert!(ckpt.utility.windows(2).all(|w| w[0].client < w[1].client));
        let restored = ckpt.restore().expect("self-consistent checkpoint");
        let got = restored.utility_table().export();
        let want: Vec<(usize, f64)> = ckpt.utility.iter().map(|e| (e.client, e.loss)).collect();
        assert_eq!(got, want, "utility table diverged across the round trip");
    }

    #[test]
    fn restore_rejects_out_of_range_utility_entries() {
        let hyper = HyperParams::default();
        let mut c = cfg(53);
        c.selection = crate::runtime::SelectionStrategy::Oort;
        let mut sim = Simulation::new(c, AlgorithmKind::FedAvg.build(&hyper));
        sim.run_round();
        let mut ckpt = Checkpoint::capture(&sim, AlgorithmKind::FedAvg, hyper);
        ckpt.utility.push(UtilityEntry {
            client: ckpt.config.n_clients,
            loss: 1.0,
        });
        let err = ckpt.restore().map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("utility entry"), "{err}");
    }

    #[test]
    fn checkpoint_carries_error_feedback_residuals() {
        let hyper = HyperParams::default();
        let mut c = cfg(37);
        c.compression = CompressionKind::TopK(0.1);
        c.error_feedback = true;
        let mut sim = Simulation::new(c, AlgorithmKind::FedAvg.build(&hyper));
        for _ in 0..3 {
            sim.run_round();
        }
        let ckpt = Checkpoint::capture(&sim, AlgorithmKind::FedAvg, hyper);
        assert!(
            ckpt.states.iter().any(|e| e.state.residual.is_some()),
            "no residual captured"
        );
        let restored = ckpt.restore().expect("self-consistent checkpoint");
        for e in &ckpt.states {
            assert_eq!(
                Some(&e.state.residual),
                restored.client_states().get(e.client).map(|s| &s.residual),
                "client {}",
                e.client
            );
        }
    }

    #[test]
    fn load_rejects_foreign_format_versions() {
        let hyper = HyperParams::default();
        let mut sim = Simulation::new(cfg(33), AlgorithmKind::FedAvg.build(&hyper));
        sim.run_round();
        let mut ckpt = Checkpoint::capture(&sim, AlgorithmKind::FedAvg, hyper);
        ckpt.version = CHECKPOINT_VERSION + 1;
        let path = std::env::temp_dir().join("fedtrip_ckpt_version_test.json");
        ckpt.save(&path).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert!(
            matches!(err, RestoreError::Snapshot(_)),
            "unexpected error: {err}"
        );
        assert!(
            err.to_string().contains("version"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn load_reports_missing_file_and_bad_json_uniformly() {
        let err = Checkpoint::load(Path::new("/nonexistent/fedtrip_ckpt.json")).unwrap_err();
        assert!(matches!(err, RestoreError::Snapshot(_)), "{err}");
        assert!(err.to_string().contains("cannot load checkpoint"), "{err}");

        let path = std::env::temp_dir().join("fedtrip_ckpt_bad_json_test.json");
        fs::write(&path, "{ not json").unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert!(matches!(err, RestoreError::Snapshot(_)), "{err}");
    }

    #[test]
    fn capture_records_clock_and_scheduler_state() {
        let hyper = HyperParams::default();
        let mut sim = Simulation::new(cfg(34), AlgorithmKind::FedAvg.build(&hyper));
        sim.run_round();
        let ckpt = Checkpoint::capture(&sim, AlgorithmKind::FedAvg, hyper);
        assert_eq!(ckpt.version, CHECKPOINT_VERSION);
        assert!(ckpt.clock > 0.0, "virtual clock should have advanced");
        // flat federation: one edge clock, colocated with the root
        assert_eq!(ckpt.edge_clocks.len(), 1);
        // sync scheduler is stateless
        assert!(ckpt.scheduler.in_flight.is_empty());
    }

    #[test]
    fn capture_carries_one_clock_per_edge() {
        let hyper = HyperParams::default();
        let mut c = cfg(47);
        c.edges = 3;
        let mut sim = Simulation::new(c, AlgorithmKind::FedAvg.build(&hyper));
        sim.run_round();
        let ckpt = Checkpoint::capture(&sim, AlgorithmKind::FedAvg, hyper);
        assert_eq!(ckpt.edge_clocks.len(), 3);
        // every edge clock sits at or behind the root
        assert!(ckpt.edge_clocks.iter().all(|&t| t <= ckpt.clock));
    }

    #[test]
    fn save_load_round_trip() {
        let hyper = HyperParams::default();
        let mut sim = Simulation::new(cfg(32), AlgorithmKind::FedTrip.build(&hyper));
        for _ in 0..2 {
            sim.run_round();
        }
        let ckpt = Checkpoint::capture(&sim, AlgorithmKind::FedTrip, hyper);
        let path = std::env::temp_dir().join("fedtrip_ckpt_test.json");
        ckpt.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded.round, 2);
        assert_eq!(loaded.global, ckpt.global);
        assert_eq!(loaded.edge_clocks, ckpt.edge_clocks);
        let mut resumed = loaded.restore().expect("self-consistent checkpoint");
        resumed.run_round();
        assert_eq!(resumed.rounds_done(), 3);
    }

    #[test]
    fn snapshots_are_sparse_in_participants() {
        let hyper = HyperParams::default();
        let mut sim = Simulation::new(cfg(40), AlgorithmKind::FedTrip.build(&hyper));
        sim.run_round();
        let ckpt = Checkpoint::capture(&sim, AlgorithmKind::FedTrip, hyper);
        // one round of K=3: at most 3 entries, never one per client
        assert!(!ckpt.states.is_empty());
        assert!(ckpt.states.len() <= 3, "{} entries", ckpt.states.len());
        // ascending client order (deterministic serialization)
        assert!(ckpt.states.windows(2).all(|w| w[0].client < w[1].client));
    }

    #[test]
    fn v4_snapshot_migrates_as_single_edge_and_resumes_bit_identically() {
        let (cur, migrated) = legacy_resume_is_bit_identical(cfg(48), 4);
        assert_eq!(migrated.config.edges, 1);
        assert_eq!(migrated.config.availability_period, 0, "always-on");
        assert_eq!(migrated.edge_clocks, vec![cur.clock]);
        assert!(migrated.utility.is_empty());
    }

    #[test]
    fn v5_snapshot_migrates_as_always_on_and_resumes_bit_identically() {
        let (_, migrated) = legacy_resume_is_bit_identical(cfg(49), 5);
        assert_eq!(migrated.config.availability_period, 0, "always-on");
        assert_eq!(migrated.config.churn_join_window, 0);
        assert_eq!(migrated.config.deadline_secs, 0.0);
        assert!(migrated.utility.is_empty());
    }

    #[test]
    fn v3_dense_snapshot_migrates_and_resumes_bit_identically() {
        let (cur, migrated) = legacy_resume_is_bit_identical(cfg(41), 3);
        // vacant dense entries drop: the sparse entries come back as captured
        let clients = |c: &Checkpoint| c.states.iter().map(|e| e.client).collect::<Vec<_>>();
        assert_eq!(clients(&migrated), clients(&cur));
    }

    #[test]
    fn load_rejects_a_current_snapshot_missing_a_field() {
        let hyper = HyperParams::default();
        let mut sim = Simulation::new(cfg(59), AlgorithmKind::FedAvg.build(&hyper));
        sim.run_round();
        let mut doc = to_value(&Checkpoint::capture(&sim, AlgorithmKind::FedAvg, hyper));
        if let Value::Object(entries) = &mut doc {
            entries.retain(|(k, _)| k != "broadcast_epoch");
        }
        let path = std::env::temp_dir().join("fedtrip_ckpt_missing_field_test.json");
        fs::write(&path, serde_json::to_string(&doc).unwrap()).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert!(matches!(err, RestoreError::Snapshot(_)), "{err}");
        assert!(err.to_string().contains("broadcast_epoch"), "{err}");
    }

    #[test]
    fn load_rejects_a_truncated_snapshot() {
        let hyper = HyperParams::default();
        let mut sim = Simulation::new(cfg(61), AlgorithmKind::FedTrip.build(&hyper));
        sim.run_round();
        let path = std::env::temp_dir().join("fedtrip_ckpt_truncated_test.json");
        Checkpoint::capture(&sim, AlgorithmKind::FedTrip, hyper)
            .save(&path)
            .unwrap();
        let body = fs::read(&path).unwrap();
        fs::write(&path, &body[..body.len() / 2]).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert!(matches!(err, RestoreError::Snapshot(_)), "{err}");
    }

    #[test]
    fn restore_reports_clean_error_on_config_mismatch() {
        let hyper = HyperParams::default();
        let mut sim = Simulation::new(cfg(42), AlgorithmKind::FedAvg.build(&hyper));
        sim.run_round();
        let mut ckpt = Checkpoint::capture(&sim, AlgorithmKind::FedAvg, hyper);
        // shrink the federation below a recorded participant id: the old
        // engine hard-asserted here; now it must surface a RestoreError
        let max_client = ckpt.states.iter().map(|e| e.client).max().unwrap();
        ckpt.config.n_clients = max_client; // ids are 0-based: now out of range
        ckpt.config.clients_per_round = ckpt.config.clients_per_round.min(max_client);
        let err = ckpt.restore().map(|_| ()).unwrap_err();
        assert!(
            matches!(err, crate::engine::RestoreError::InvalidClientStates(_)),
            "unexpected error: {err}"
        );
        assert!(err.to_string().contains("out of range"), "{err}");

        // records/round mismatch is also a clean error
        let mut ckpt = Checkpoint::capture(&sim, AlgorithmKind::FedAvg, hyper);
        ckpt.round = 5;
        let err = ckpt.restore().map(|_| ()).unwrap_err();
        assert!(
            matches!(err, crate::engine::RestoreError::RecordsMismatch { .. }),
            "unexpected error: {err}"
        );

        // edge-clock count diverging from config.edges is a clean error too
        let mut ckpt = Checkpoint::capture(&sim, AlgorithmKind::FedAvg, hyper);
        ckpt.edge_clocks.push(0.0);
        let err = ckpt.restore().map(|_| ()).unwrap_err();
        assert!(
            matches!(err, crate::engine::RestoreError::EdgeClocksMismatch { .. }),
            "unexpected error: {err}"
        );
        assert!(err.to_string().contains("edge clocks"), "{err}");
    }

    #[test]
    fn restore_rejects_inconsistent_config_without_panicking() {
        let hyper = HyperParams::default();
        let mut sim = Simulation::new(cfg(44), AlgorithmKind::FedAvg.build(&hyper));
        sim.run_round();
        let good = Checkpoint::capture(&sim, AlgorithmKind::FedAvg, hyper);
        // each corruption used to hit a Simulation::new assert (panic);
        // all must now surface as a clean RestoreError
        type Corrupt = fn(&mut Checkpoint);
        let corruptions: [(&str, Corrupt); 5] = [
            ("K > N", |c| {
                c.config.clients_per_round = c.config.n_clients + 1
            }),
            ("zero rounds", |c| c.config.rounds = 0),
            ("zero eval_every", |c| c.config.eval_every = 0),
            ("sub-unit device_het", |c| c.config.device_het = 0.5),
            ("zero edges", |c| c.config.edges = 0),
        ];
        for (name, corrupt) in corruptions {
            let mut ckpt = good.clone();
            corrupt(&mut ckpt);
            let err = ckpt.restore().map(|_| ()).unwrap_err();
            assert!(
                matches!(err, crate::engine::RestoreError::InvalidConfig(_)),
                "{name}: unexpected error {err}"
            );
        }
    }

    #[test]
    fn restore_rejects_out_of_range_scheduler_jobs() {
        let hyper = HyperParams::default();
        let mut c = cfg(43);
        c.mode = crate::runtime::RunMode::SemiAsync;
        c.device_het = 4.0;
        let mut sim = Simulation::new(c, AlgorithmKind::FedAvg.build(&hyper));
        sim.run_round();
        let mut ckpt = Checkpoint::capture(&sim, AlgorithmKind::FedAvg, hyper);
        assert!(
            !ckpt.scheduler.in_flight.is_empty(),
            "semi-async capture should carry in-flight jobs"
        );
        // shrink the federation below a dispatched client id: must be a
        // clean RestoreError, not a panic rounds after resume
        let max_client = ckpt
            .scheduler
            .in_flight
            .iter()
            .chain(&ckpt.scheduler.buffer)
            .map(|j| j.client)
            .max()
            .unwrap();
        ckpt.config.n_clients = max_client;
        ckpt.config.clients_per_round = ckpt.config.clients_per_round.min(max_client.max(1));
        let err = ckpt.restore().map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("scheduler job"), "{err}");
    }
}
