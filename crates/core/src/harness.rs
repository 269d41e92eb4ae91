//! Cluster harness: builds a geo-replicated cluster of any protocol,
//! attaches closed-loop clients per region, runs a measured interval with
//! warm-up/cool-down trimming, and reports the paper's metrics
//! (throughput; p50/p90/p99 latency split into leader-region and
//! follower-region clients, read vs write).

use paxraft_sim::net::{NetConfig, Region};
use paxraft_sim::sim::{ActorId, Simulation};
use paxraft_sim::time::SimDuration;
use paxraft_workload::generator::{Generator, OpKind, WorkloadConfig};
use paxraft_workload::linearize::OpRecord;
use paxraft_workload::metrics::{LatencyRecorder, LatencyTriple};

use crate::client::WorkloadClient;
use crate::config::{DurabilityConfig, LeaseConfig, ReadMode, ReplicaConfig};
use crate::costs::CostModel;
use crate::engine::{DurabilityStats, PipelineConfig, PipelineStats};
use crate::kv::{CmdId, Command, Key, Op, Reply};
use crate::mencius::MenciusReplica;
use crate::msg::{ClientMsg, Msg};
use crate::multipaxos::MultiPaxosReplica;
use crate::raft::RaftReplica;
use crate::raftstar::RaftStarReplica;
use crate::snapshot::{SnapshotConfig, SnapshotStats};
use crate::telemetry::{
    HistogramSeries, LatencyHistogram, MetricRegistry, MetricSample, SpanAssembler, SpanReport,
    TelemetryConfig, TimeSeries,
};
use crate::types::NodeId;

/// Which protocol the cluster runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// MultiPaxos (Figure 1).
    MultiPaxos,
    /// Standard Raft.
    Raft,
    /// Raft* with log reads.
    RaftStar,
    /// Raft* + ported Paxos Quorum Lease.
    RaftStarPql,
    /// Raft* + Leader Lease baseline.
    LeaderLease,
    /// Raft*-Mencius (multi-leader).
    RaftStarMencius,
}

impl ProtocolKind {
    /// Display name used in benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::MultiPaxos => "MultiPaxos",
            ProtocolKind::Raft => "Raft",
            ProtocolKind::RaftStar => "Raft*",
            ProtocolKind::RaftStarPql => "Raft*-PQL",
            ProtocolKind::LeaderLease => "Raft*-LL",
            ProtocolKind::RaftStarMencius => "Raft*-Mencius",
        }
    }
}

/// Builder for [`Cluster`] (and, via
/// [`ClusterBuilder::build_sharded`], for
/// [`crate::shard::ShardedCluster`]).
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    pub(crate) protocol: ProtocolKind,
    pub(crate) replicas: usize,
    pub(crate) regions: Vec<Region>,
    pub(crate) leader: NodeId,
    pub(crate) clients_per_region: usize,
    pub(crate) workload: WorkloadConfig,
    pub(crate) seed: u64,
    pub(crate) costs: CostModel,
    pub(crate) net: NetConfig,
    pub(crate) record_history_key: Option<Key>,
    pub(crate) batch_delay: SimDuration,
    pub(crate) batch_max: usize,
    pub(crate) lease: LeaseConfig,
    pub(crate) snapshot: SnapshotConfig,
    pub(crate) pipeline: PipelineConfig,
    pub(crate) shard: crate::shard::ShardConfig,
    pub(crate) rebalance: crate::shard::RebalanceConfig,
    pub(crate) autobalance: crate::shard::AutoBalanceConfig,
    pub(crate) telemetry: TelemetryConfig,
    pub(crate) durability: DurabilityConfig,
}

impl ClusterBuilder {
    /// Number of replicas (default 5, one per region).
    pub fn replicas(mut self, n: usize) -> Self {
        self.replicas = n;
        self
    }

    /// Region placement (length must equal `replicas`).
    pub fn regions(mut self, regions: Vec<Region>) -> Self {
        self.regions = regions;
        self
    }

    /// Which node is bootstrapped as leader (default node 0 = Oregon;
    /// ignored by Mencius).
    pub fn leader(mut self, node: NodeId) -> Self {
        self.leader = node;
        self
    }

    /// Closed-loop clients per region (default 0; use
    /// [`Cluster::submit_and_wait`] for scripted ops).
    pub fn clients_per_region(mut self, c: usize) -> Self {
        self.clients_per_region = c;
        self
    }

    /// Workload parameters.
    pub fn workload(mut self, w: WorkloadConfig) -> Self {
        self.workload = w;
        self
    }

    /// RNG seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// CPU cost model.
    pub fn costs(mut self, c: CostModel) -> Self {
        self.costs = c;
        self
    }

    /// Network configuration.
    pub fn net(mut self, n: NetConfig) -> Self {
        self.net = n;
        self
    }

    /// Record linearizability histories for `key` at every client.
    pub fn record_history_for(mut self, key: Key) -> Self {
        self.record_history_key = Some(key);
        self
    }

    /// Leader batching window.
    pub fn batch_delay(mut self, d: SimDuration) -> Self {
        self.batch_delay = d;
        self
    }

    /// Batch-size cap: a pending batch flushes immediately once this
    /// many commands accumulate (default 64).
    pub fn batch_max(mut self, max: usize) -> Self {
        self.batch_max = max;
        self
    }

    /// Sharding parameters: how many replica groups to run and where
    /// their leaders bootstrap. Only [`ClusterBuilder::build_sharded`]
    /// consumes this; the unsharded [`ClusterBuilder::build`] refuses a
    /// multi-group configuration.
    pub fn shard_config(mut self, shard: crate::shard::ShardConfig) -> Self {
        self.shard = shard;
        self
    }

    /// Scripted live rebalancing: key-range migrations the coordinator
    /// runs at the given virtual times. Only
    /// [`ClusterBuilder::build_sharded`] consumes this; an empty plan
    /// (the default) creates no coordinator actor, keeping the cluster
    /// bit-for-bit the non-rebalancing cluster.
    pub fn rebalance_config(mut self, rebalance: crate::shard::RebalanceConfig) -> Self {
        self.rebalance = rebalance;
        self
    }

    /// Closed-loop auto-rebalancing: a policy engine that watches live
    /// per-group telemetry and issues migrations itself. Only
    /// [`ClusterBuilder::build_sharded`] consumes this; the disabled
    /// default creates no policy (and no coordinator actor unless a
    /// scripted plan asks for one), keeping the cluster bit-for-bit
    /// the plain sharded cluster. Enabling it requires telemetry
    /// sampling and more than one group.
    pub fn autobalance_config(mut self, autobalance: crate::shard::AutoBalanceConfig) -> Self {
        self.autobalance = autobalance;
        self
    }

    /// Lease parameters (PQL / LL modes).
    pub fn lease_config(mut self, lease: LeaseConfig) -> Self {
        self.lease = lease;
        self
    }

    /// Snapshot / log-compaction parameters for every replica
    /// (default: disabled).
    pub fn snapshot_config(mut self, snapshot: SnapshotConfig) -> Self {
        self.snapshot = snapshot;
        self
    }

    /// Replication pipelining / adaptive-batching parameters for every
    /// replica (default: enabled, depth 8; `PipelineConfig::disabled()`
    /// restores the one-round-per-timer legacy batching).
    pub fn pipeline_config(mut self, pipeline: PipelineConfig) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Telemetry: the flight recorder and the virtual-time metric
    /// sampler (default: both off). Sampling and tracing are pure
    /// observation — enabling them never changes the event schedule or
    /// the RNG stream, so reports stay bit-for-bit identical either
    /// way (pinned by the conformance suite).
    pub fn telemetry_config(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Durable-storage model for every replica (default: disabled — the
    /// zero-cost disk, acks never wait for fsync, runs bit-for-bit
    /// identical to a build without the disk model). Enabling it
    /// provisions one simulated disk per node (sharded clusters
    /// co-locate all of a node's group replicas on that node's disk)
    /// and makes every durability-attesting ack wait for its covering
    /// fsync per the configured [`crate::config::FsyncPolicy`].
    pub fn durability_config(mut self, durability: DurabilityConfig) -> Self {
        self.durability = durability;
        self
    }

    /// Constructs the cluster.
    ///
    /// # Panics
    ///
    /// Panics if region placement does not match the replica count.
    pub fn build(self) -> Cluster {
        assert_eq!(self.regions.len(), self.replicas, "one region per replica");
        assert!(
            self.shard.groups <= 1,
            "multi-group configs need build_sharded()"
        );
        let mut sim = Simulation::new(self.net.clone(), self.seed);
        if self.telemetry.trace_capacity > 0 {
            sim.enable_trace(self.telemetry.trace_capacity);
        }
        if self.telemetry.trace_spans {
            sim.enable_spans();
        }
        // Provision the disks (the default actor→disk mapping gives each
        // replica its own device, which is exactly one disk per node in
        // the unsharded layout).
        let disk = self.durability.disk_config();
        if !disk.is_zero_cost() {
            sim.set_disk_config(disk);
        }
        let peers: Vec<ActorId> = (0..self.replicas).map(ActorId).collect();
        let client_base = self.replicas;
        let mut replicas = Vec::new();
        for i in 0..self.replicas {
            let cfg = self.replica_config(NodeId(i as u32), peers.clone(), client_base, None);
            replicas.push(sim.add_actor(self.regions[i], make_replica(self.protocol, cfg)));
        }
        // One workload client group per region, targeting that region's
        // replica (clients in regions without a replica would target the
        // nearest; with the default 1:1 placement this is exact).
        let mut clients = Vec::new();
        let mut rng = paxraft_sim::rng::SimRng::new(self.seed ^ 0xC11E57);
        let mut workload = self.workload.clone();
        workload.partitions = self.regions.len();
        for (ri, &region) in self.regions.iter().enumerate() {
            for _ in 0..self.clients_per_region {
                let cid = clients.len() as u32;
                let gen = Generator::new(workload.clone(), ri, rng.fork(cid as u64));
                let mut wc = WorkloadClient::new(cid, replicas[ri], gen);
                wc.history_key = self.record_history_key;
                let id = sim.add_actor(region, Box::new(wc));
                clients.push(id);
            }
        }
        Cluster {
            sim,
            protocol: self.protocol,
            replicas,
            clients,
            regions: self.regions,
            leader: self.leader,
            probe: None,
            probe_seq: 0,
            metrics: MetricRegistry::new(&self.telemetry),
            per_replica: self.telemetry.per_replica,
        }
    }

    /// One replica's configuration under this builder's knobs. Shared by
    /// the unsharded build and the sharded build (which passes each
    /// group's peer table and membership).
    pub(crate) fn replica_config(
        &self,
        id: NodeId,
        peers: Vec<ActorId>,
        client_base: usize,
        shard: Option<crate::shard::ShardMembership>,
    ) -> ReplicaConfig {
        let mut cfg = ReplicaConfig::wan_default(id, self.replicas);
        cfg.peers = peers;
        cfg.client_base = client_base;
        cfg.costs = self.costs.clone();
        cfg.batch_delay = self.batch_delay;
        cfg.batch_max = self.batch_max;
        cfg.lease = self.lease.clone();
        cfg.snapshot = self.snapshot.clone();
        cfg.pipeline = self.pipeline.clone();
        cfg.durability = self.durability.clone();
        cfg.initial_leader = Some(self.leader);
        cfg.shard = shard;
        cfg.read_mode = match self.protocol {
            ProtocolKind::RaftStarPql => ReadMode::QuorumLease,
            ProtocolKind::LeaderLease => ReadMode::LeaderLease,
            _ => ReadMode::LogRead,
        };
        cfg
    }
}

/// Boxes the right replica type for a protocol (the harness-side face of
/// the `ProtocolRules` dispatch).
pub(crate) fn make_replica(
    protocol: ProtocolKind,
    cfg: ReplicaConfig,
) -> Box<dyn paxraft_sim::sim::Actor<Msg>> {
    match protocol {
        ProtocolKind::MultiPaxos => Box::new(MultiPaxosReplica::new(cfg)),
        ProtocolKind::Raft => Box::new(RaftReplica::new(cfg)),
        ProtocolKind::RaftStar | ProtocolKind::RaftStarPql | ProtocolKind::LeaderLease => {
            Box::new(RaftStarReplica::new(cfg))
        }
        ProtocolKind::RaftStarMencius => Box::new(MenciusReplica::new(cfg)),
    }
}

/// Whether the replica actor currently claims leadership (Mencius is
/// always "led": every replica leads its own slots).
pub(crate) fn replica_is_leader(
    sim: &paxraft_sim::sim::Simulation<Msg>,
    protocol: ProtocolKind,
    id: ActorId,
) -> bool {
    match protocol {
        ProtocolKind::MultiPaxos => sim.actor::<MultiPaxosReplica>(id).is_leader(),
        ProtocolKind::Raft => sim.actor::<RaftReplica>(id).is_leader(),
        ProtocolKind::RaftStar | ProtocolKind::RaftStarPql | ProtocolKind::LeaderLease => {
            sim.actor::<RaftStarReplica>(id).is_leader()
        }
        ProtocolKind::RaftStarMencius => true,
    }
}

/// The replica actor's snapshot/compaction counters.
pub(crate) fn replica_snap_stats(
    sim: &paxraft_sim::sim::Simulation<Msg>,
    protocol: ProtocolKind,
    id: ActorId,
) -> SnapshotStats {
    match protocol {
        ProtocolKind::MultiPaxos => sim.actor::<MultiPaxosReplica>(id).snap_stats(),
        ProtocolKind::Raft => sim.actor::<RaftReplica>(id).snap_stats(),
        ProtocolKind::RaftStar | ProtocolKind::RaftStarPql | ProtocolKind::LeaderLease => {
            sim.actor::<RaftStarReplica>(id).snap_stats()
        }
        ProtocolKind::RaftStarMencius => sim.actor::<MenciusReplica>(id).snap_stats(),
    }
}

/// The replica actor's pipeline occupancy counters.
pub(crate) fn replica_pipeline_stats(
    sim: &paxraft_sim::sim::Simulation<Msg>,
    protocol: ProtocolKind,
    id: ActorId,
) -> PipelineStats {
    match protocol {
        ProtocolKind::MultiPaxos => sim.actor::<MultiPaxosReplica>(id).pipeline_stats(),
        ProtocolKind::Raft => sim.actor::<RaftReplica>(id).pipeline_stats(),
        ProtocolKind::RaftStar | ProtocolKind::RaftStarPql | ProtocolKind::LeaderLease => {
            sim.actor::<RaftStarReplica>(id).pipeline_stats()
        }
        ProtocolKind::RaftStarMencius => sim.actor::<MenciusReplica>(id).pipeline_stats(),
    }
}

/// The replica actor's fsync / deferred-ack counters.
pub(crate) fn replica_durability_stats(
    sim: &paxraft_sim::sim::Simulation<Msg>,
    protocol: ProtocolKind,
    id: ActorId,
) -> DurabilityStats {
    match protocol {
        ProtocolKind::MultiPaxos => sim.actor::<MultiPaxosReplica>(id).durability_stats(),
        ProtocolKind::Raft => sim.actor::<RaftReplica>(id).durability_stats(),
        ProtocolKind::RaftStar | ProtocolKind::RaftStarPql | ProtocolKind::LeaderLease => {
            sim.actor::<RaftStarReplica>(id).durability_stats()
        }
        ProtocolKind::RaftStarMencius => sim.actor::<MenciusReplica>(id).durability_stats(),
    }
}

/// The replica actor's state machine (tests: cross-group exclusivity
/// assertions).
#[cfg(test)]
pub(crate) fn replica_kv(
    sim: &paxraft_sim::sim::Simulation<Msg>,
    protocol: ProtocolKind,
    id: ActorId,
) -> &crate::kv::KvStore {
    match protocol {
        ProtocolKind::MultiPaxos => sim.actor::<MultiPaxosReplica>(id).kv(),
        ProtocolKind::Raft => sim.actor::<RaftReplica>(id).kv(),
        ProtocolKind::RaftStar | ProtocolKind::RaftStarPql | ProtocolKind::LeaderLease => {
            sim.actor::<RaftStarReplica>(id).kv()
        }
        ProtocolKind::RaftStarMencius => sim.actor::<MenciusReplica>(id).kv(),
    }
}

/// The replica actor's registered metric sample (named counters and
/// gauges) — the single source the sampler and the end-of-run group
/// aggregates read.
pub(crate) fn replica_metrics(
    sim: &paxraft_sim::sim::Simulation<Msg>,
    protocol: ProtocolKind,
    id: ActorId,
) -> MetricSample {
    match protocol {
        ProtocolKind::MultiPaxos => sim.actor::<MultiPaxosReplica>(id).metric_sample(),
        ProtocolKind::Raft => sim.actor::<RaftReplica>(id).metric_sample(),
        ProtocolKind::RaftStar | ProtocolKind::RaftStarPql | ProtocolKind::LeaderLease => {
            sim.actor::<RaftStarReplica>(id).metric_sample()
        }
        ProtocolKind::RaftStarMencius => sim.actor::<MenciusReplica>(id).metric_sample(),
    }
}

/// One sampling tick's group-level registry entries: the group's summed
/// replica sample plus the harness-observed NIC backlog. The cumulative
/// `responses` counter becomes the `throughput_ops` rate series;
/// everything else records as a gauge of the instantaneous (queue
/// depths) or cumulative (migration/redirect counts) value.
pub(crate) fn record_group_sample(
    registry: &mut MetricRegistry,
    at: paxraft_sim::time::SimTime,
    group: u32,
    sample: &MetricSample,
    nic_backlog_ms: f64,
    disk_backlog_ms: f64,
) {
    let name = |metric: &str| format!("group{group}/{metric}");
    registry.counter_rate(at, &name("throughput_ops"), sample.get("responses"));
    registry.counter_rate(at, &name("fsync_rate"), sample.get("fsyncs"));
    registry.gauge(at, &name("pending_depth"), sample.get("pending_depth"));
    registry.gauge(
        at,
        &name("pipeline_occupancy"),
        sample.get("pipeline_occupancy"),
    );
    registry.gauge(at, &name("nic_backlog_ms"), nic_backlog_ms);
    registry.gauge(at, &name("disk_backlog_ms"), disk_backlog_ms);
    registry.gauge(at, &name("forwarded"), sample.get("forwarded"));
    registry.gauge(at, &name("redirects"), sample.get("redirects"));
    registry.gauge(at, &name("range_exports"), sample.get("range_exports"));
    registry.gauge(at, &name("range_installs"), sample.get("range_installs"));
}

/// One sampling tick's **per-replica** registry entries (behind
/// [`TelemetryConfig::per_replica`]): each live replica's own response
/// rate, fsync rate, queue depth and disk backlog, keyed by actor id so
/// names stay unique across groups in the sharded layout. This is the
/// straggler-debugging view: a slow disk shows up as one replica's
/// `disk_backlog_ms` series diverging while its group's aggregate only
/// sags. Crashed replicas record no point (a visible series gap).
pub(crate) fn record_replica_samples(
    registry: &mut MetricRegistry,
    sim: &Simulation<Msg>,
    protocol: ProtocolKind,
    at: paxraft_sim::time::SimTime,
    actors: &[ActorId],
) {
    for &r in actors {
        if sim.is_crashed(r) {
            continue;
        }
        let sample = replica_metrics(sim, protocol, r);
        let name = |metric: &str| format!("replica{}/{metric}", r.0);
        registry.counter_rate(at, &name("throughput_ops"), sample.get("responses"));
        registry.counter_rate(at, &name("fsync_rate"), sample.get("fsyncs"));
        registry.gauge(at, &name("pending_depth"), sample.get("pending_depth"));
        registry.gauge(
            at,
            &name("disk_backlog_ms"),
            sim.disk_backlog_at(r).as_millis_f64(),
        );
    }
}

/// Sums the live replicas' metric samples and NIC backlog for one group
/// of actors at the current instant.
pub(crate) fn group_sample_now(
    sim: &Simulation<Msg>,
    protocol: ProtocolKind,
    actors: &[ActorId],
) -> (MetricSample, f64, f64) {
    let now = sim.now();
    let mut sample = MetricSample::default();
    let mut nic_backlog_ms = 0.0;
    let mut disk_backlog_ms = 0.0;
    for &r in actors {
        if sim.is_crashed(r) {
            continue;
        }
        sample.merge_sum(&replica_metrics(sim, protocol, r));
        let nic_free = sim.network().nic_free_at(r.0);
        if nic_free > now {
            nic_backlog_ms += (nic_free - now).as_millis_f64();
        }
        disk_backlog_ms += sim.disk_backlog_at(r).as_millis_f64();
    }
    (sample, nic_backlog_ms, disk_backlog_ms)
}

/// Throughput/latency measurements from one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Completed operations inside the measurement window, per second.
    pub throughput_ops: f64,
    /// Read latency for clients co-located with the leader.
    pub leader_reads: Option<LatencyTriple>,
    /// Read latency for all other clients.
    pub follower_reads: Option<LatencyTriple>,
    /// Write latency for leader-region clients.
    pub leader_writes: Option<LatencyTriple>,
    /// Write latency for follower-region clients.
    pub follower_writes: Option<LatencyTriple>,
    /// Linearizability histories (when recording was enabled).
    pub histories: Vec<OpRecord>,
    /// Snapshot / compaction counters summed across replicas; the peak
    /// log-size fields take the cluster-wide maximum, so a bounded
    /// `peak_log_entries` certifies that compaction kept every replica's
    /// in-memory log bounded for the whole run.
    pub snapshots: SnapshotStats,
    /// Pipeline occupancy and adaptive-batching counters summed across
    /// replicas (`peak_in_flight` takes the cluster-wide maximum, i.e.
    /// the deepest any peer window got during the run).
    pub pipeline: PipelineStats,
    /// Fsync / deferred-ack counters summed across replicas
    /// (`last_batch_len` takes the cluster-wide maximum). All zero
    /// unless [`ClusterBuilder::durability_config`] enabled the
    /// durability model; under group commit,
    /// `durability.mean_batch_len()` is the amortization factor the
    /// fsync-bound bench sweeps report.
    pub durability: DurabilityStats,
    /// Sampled metric time-series collected so far (empty unless
    /// [`ClusterBuilder::telemetry_config`] enabled the sampler).
    pub telemetry: Vec<TimeSeries>,
    /// Sampled cumulative latency-histogram series, one per group
    /// (empty unless the sampler is enabled). Windowing two snapshots
    /// localizes a latency regression — a migration window's p99, say —
    /// to one group and one phase of the run.
    pub latency_hists: Vec<HistogramSeries>,
    /// Per-command latency breakdowns assembled from the span log
    /// (`None` unless [`TelemetryConfig::trace_spans`] enabled causal
    /// tracing).
    pub spans: Option<SpanReport>,
}

/// A built cluster ready to run.
pub struct Cluster {
    /// The underlying simulation (exposed for fault injection).
    pub sim: Simulation<Msg>,
    protocol: ProtocolKind,
    replicas: Vec<ActorId>,
    clients: Vec<ActorId>,
    regions: Vec<Region>,
    leader: NodeId,
    probe: Option<ActorId>,
    probe_seq: u64,
    pub(crate) metrics: MetricRegistry,
    per_replica: bool,
}

impl Cluster {
    /// Starts a builder.
    pub fn builder(protocol: ProtocolKind) -> ClusterBuilder {
        ClusterBuilder {
            protocol,
            replicas: 5,
            regions: Region::ALL.to_vec(),
            leader: NodeId(0),
            clients_per_region: 0,
            workload: WorkloadConfig::default(),
            seed: 42,
            costs: CostModel::default(),
            net: NetConfig::default(),
            record_history_key: None,
            batch_delay: SimDuration::from_millis(2),
            batch_max: 64,
            lease: LeaseConfig::default(),
            snapshot: SnapshotConfig::default(),
            pipeline: PipelineConfig::default(),
            shard: crate::shard::ShardConfig::default(),
            rebalance: crate::shard::RebalanceConfig::default(),
            autobalance: crate::shard::AutoBalanceConfig::default(),
            telemetry: TelemetryConfig::default(),
            durability: DurabilityConfig::default(),
        }
    }

    /// The protocol under test.
    pub fn protocol(&self) -> ProtocolKind {
        self.protocol
    }

    /// Replica actor ids.
    pub fn replicas(&self) -> &[ActorId] {
        &self.replicas
    }

    /// Client actor ids.
    pub fn clients(&self) -> &[ActorId] {
        &self.clients
    }

    /// The configured leader node.
    pub fn leader(&self) -> NodeId {
        self.leader
    }

    /// Whether some replica currently claims leadership (Mencius is
    /// always "led": every replica leads its own slots).
    pub fn has_leader(&self) -> bool {
        self.replicas
            .iter()
            .any(|&r| replica_is_leader(&self.sim, self.protocol, r))
    }

    /// Snapshot / compaction counters aggregated over all replicas
    /// (sums for counters, maxima for peaks).
    pub fn snapshot_stats(&self) -> SnapshotStats {
        let mut total = SnapshotStats::default();
        for &r in &self.replicas {
            total.absorb(&replica_snap_stats(&self.sim, self.protocol, r));
        }
        total
    }

    /// Pipeline occupancy / adaptive-batching counters aggregated over
    /// all replicas (sums for counters, maximum for `peak_in_flight`).
    pub fn pipeline_stats(&self) -> PipelineStats {
        let mut total = PipelineStats::default();
        for &r in &self.replicas {
            total.absorb(&replica_pipeline_stats(&self.sim, self.protocol, r));
        }
        total
    }

    /// Fsync / deferred-ack counters aggregated over all replicas (sums
    /// for counters, maximum for `last_batch_len`).
    pub fn durability_stats(&self) -> DurabilityStats {
        let mut total = DurabilityStats::default();
        for &r in &self.replicas {
            total.absorb(&replica_durability_stats(&self.sim, self.protocol, r));
        }
        total
    }

    /// Runs until a leader is elected (and leases, if any, are live).
    pub fn elect_leader(&mut self) {
        let deadline = self.sim.now() + SimDuration::from_secs(30);
        while !self.has_leader() && self.sim.now() < deadline {
            self.sim.run_for(SimDuration::from_millis(50));
        }
        assert!(self.has_leader(), "no leader elected within 30s");
        if matches!(
            self.protocol,
            ProtocolKind::RaftStarPql | ProtocolKind::LeaderLease
        ) {
            // Let the first grant round complete.
            self.sim.run_for(SimDuration::from_millis(700));
        }
    }

    /// Submits one operation through an internal probe client and waits
    /// for its reply (for examples and tests, not measurement).
    ///
    /// # Errors
    ///
    /// Returns `Err` if no reply arrives within 30 virtual seconds.
    pub fn submit_and_wait(&mut self, op: Op) -> Result<Reply, String> {
        use crate::probe::ProbeClient;
        self.sim.start();
        let pid = match self.probe {
            Some(pid) => pid,
            None => {
                let region = self.regions[self.leader.0 as usize];
                let pid = self.sim.add_actor(region, Box::new(ProbeClient::default()));
                self.probe = Some(pid);
                pid
            }
        };
        // Replicas route replies to `client_base + id.client`; the probe's
        // actor index encodes the matching client id.
        let client_index = (pid.0 - self.replicas.len()) as u32;
        self.probe_seq += 1;
        let id = CmdId {
            client: client_index,
            seq: self.probe_seq,
        };
        let cmd = Command { id, op };
        // Target the configured leader's replica unless it is crashed;
        // fall back to the first live replica (its forwarding finds the
        // actual leader).
        let mut target = self.replicas[self.leader.0 as usize];
        if self.sim.is_crashed(target) {
            target = *self
                .replicas
                .iter()
                .find(|&&r| !self.sim.is_crashed(r))
                .expect("at least one live replica");
        }
        {
            let p = self.sim.actor_mut::<ProbeClient>(pid);
            p.waiting = Some(id);
            p.reply = None;
            p.outbox = Some((target, Msg::Client(ClientMsg::Request { cmd })));
        }
        let deadline = self.sim.now() + SimDuration::from_secs(30);
        while self.sim.now() < deadline {
            self.sim.run_for(SimDuration::from_millis(20));
            if let Some(r) = self.sim.actor::<ProbeClient>(pid).reply.clone() {
                return Ok(r);
            }
        }
        Err("probe timed out".into())
    }

    /// Advances virtual time by `d`, pausing at each due sampling
    /// instant to read replica state into the metric registry.
    ///
    /// Determinism: stepping `run_until` in chunks processes the
    /// identical event order as a single call (events are heap-ordered
    /// by `(time, seq)`, and setting the clock between chunks is inert)
    /// and sampling is read-only, so enabling the sampler never changes
    /// the run.
    fn advance(&mut self, d: SimDuration) {
        let target = self.sim.now() + d;
        if !self.metrics.enabled() {
            self.sim.run_until(target);
            return;
        }
        self.metrics.fast_forward(self.sim.now());
        while self.metrics.next_due() <= target {
            self.sim.run_until(self.metrics.next_due());
            let (sample, nic, disk) = group_sample_now(&self.sim, self.protocol, &self.replicas);
            record_group_sample(&mut self.metrics, self.sim.now(), 0, &sample, nic, disk);
            if self.per_replica {
                record_replica_samples(
                    &mut self.metrics,
                    &self.sim,
                    self.protocol,
                    self.sim.now(),
                    &self.replicas,
                );
            }
            let mut hist = LatencyHistogram::default();
            for &c in &self.clients {
                for h in &self.sim.actor::<WorkloadClient>(c).group_latency {
                    hist.merge(h);
                }
            }
            self.metrics
                .histogram(self.sim.now(), "group0/latency", hist);
            self.metrics.advance();
        }
        self.sim.run_until(target);
    }

    /// The sampled metric time-series collected so far (empty unless
    /// telemetry sampling is enabled).
    pub fn telemetry_series(&self) -> Vec<TimeSeries> {
        self.metrics.snapshot()
    }

    /// Assembles the span log recorded so far into per-command latency
    /// breakdowns (`None` unless span tracing is enabled).
    pub fn span_report(&self) -> Option<SpanReport> {
        self.sim
            .trace()
            .spans_enabled()
            .then(|| SpanAssembler::assemble(self.sim.trace().spans()))
    }

    /// Runs `warmup + measure + cooldown`, counting only completions
    /// inside the measurement window (Section 5: 50 s trials with 10 s
    /// warm-up and cool-down; benches use scaled-down windows).
    pub fn run_measurement(
        &mut self,
        warmup: SimDuration,
        measure: SimDuration,
        cooldown: SimDuration,
    ) -> RunReport {
        self.advance(warmup);
        let w_start = self.sim.now().as_nanos();
        self.advance(measure);
        let w_end = self.sim.now().as_nanos();
        self.advance(cooldown);

        let leader_region = self.regions[self.leader.0 as usize];
        let mut leader_reads = LatencyRecorder::new();
        let mut follower_reads = LatencyRecorder::new();
        let mut leader_writes = LatencyRecorder::new();
        let mut follower_writes = LatencyRecorder::new();
        let mut completed: u64 = 0;
        let mut histories = Vec::new();
        for &c in &self.clients {
            let region = self.sim.region_of(c);
            let is_leader_group = region == leader_region;
            let client = self.sim.actor::<WorkloadClient>(c);
            for comp in &client.completions {
                if !(w_start..w_end).contains(&comp.at_ns) {
                    continue;
                }
                completed += 1;
                match (comp.kind, is_leader_group) {
                    (OpKind::Read, true) => leader_reads.record_ns(comp.latency_ns),
                    (OpKind::Read, false) => follower_reads.record_ns(comp.latency_ns),
                    (OpKind::Write, true) => leader_writes.record_ns(comp.latency_ns),
                    (OpKind::Write, false) => follower_writes.record_ns(comp.latency_ns),
                }
            }
            histories.extend(client.history_records());
        }
        RunReport {
            throughput_ops: completed as f64 / measure.as_secs_f64(),
            leader_reads: leader_reads.paper_triple_ms(),
            follower_reads: follower_reads.paper_triple_ms(),
            leader_writes: leader_writes.paper_triple_ms(),
            follower_writes: follower_writes.paper_triple_ms(),
            histories,
            snapshots: self.snapshot_stats(),
            pipeline: self.pipeline_stats(),
            durability: self.durability_stats(),
            telemetry: self.metrics.snapshot(),
            latency_hists: self.metrics.hist_snapshot(),
            spans: self.span_report(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_elects_every_protocol() {
        for p in [
            ProtocolKind::MultiPaxos,
            ProtocolKind::Raft,
            ProtocolKind::RaftStar,
            ProtocolKind::RaftStarPql,
            ProtocolKind::LeaderLease,
            ProtocolKind::RaftStarMencius,
        ] {
            let mut cluster = Cluster::builder(p).build();
            cluster.elect_leader();
            assert!(cluster.has_leader(), "{} has a leader", p.name());
        }
    }

    #[test]
    fn submit_and_wait_round_trips() {
        let mut cluster = Cluster::builder(ProtocolKind::RaftStar).build();
        cluster.elect_leader();
        let r = cluster
            .submit_and_wait(Op::Put {
                key: 1,
                value: vec![7; 16].into(),
            })
            .expect("put succeeds");
        assert_eq!(r, Reply::Done);
        let r = cluster
            .submit_and_wait(Op::Get { key: 1 })
            .expect("get succeeds");
        assert!(matches!(r, Reply::Value(Some(_))));
    }

    #[test]
    fn measurement_produces_throughput_and_latency() {
        let w = WorkloadConfig {
            read_fraction: 0.5,
            conflict_rate: 0.0,
            ..Default::default()
        };
        let mut cluster = Cluster::builder(ProtocolKind::Raft)
            .clients_per_region(2)
            .workload(w)
            .build();
        cluster.elect_leader();
        let report = cluster.run_measurement(
            SimDuration::from_secs(2),
            SimDuration::from_secs(5),
            SimDuration::from_secs(1),
        );
        assert!(report.throughput_ops > 1.0, "got {}", report.throughput_ops);
        assert!(report.leader_reads.is_some());
        assert!(report.follower_writes.is_some());
    }

    /// The per-replica series satellite's demo: degrade exactly one
    /// replica's disk and find the straggler *from the metric series
    /// alone* — the `replica{i}/disk_backlog_ms` gauge of the slow
    /// device dominates every healthy one, and no group-level series
    /// could have said which node it was.
    #[test]
    fn per_replica_series_expose_an_injected_slow_disk_straggler() {
        use paxraft_sim::disk::DiskConfig;
        let mut cluster = Cluster::builder(ProtocolKind::Raft)
            .clients_per_region(1)
            .durability_config(DurabilityConfig::group_commit(
                SimDuration::from_millis(1),
                8,
                SimDuration::from_millis(2),
            ))
            .telemetry_config(TelemetryConfig::sampled().with_per_replica())
            .seed(17)
            .build();
        // Node 2 (a follower) gets a device an order of magnitude
        // slower than the fleet default.
        let straggler = cluster.replicas()[2];
        cluster.sim.set_disk_config_for(
            straggler,
            DiskConfig {
                write_bandwidth_bps: 100_000.0,
                fsync_latency: SimDuration::from_millis(25),
            },
        );
        cluster.elect_leader();
        let report = cluster.run_measurement(
            SimDuration::from_secs(1),
            SimDuration::from_secs(3),
            SimDuration::from_secs(1),
        );
        let mut worst: Option<(&str, f64)> = None;
        let mut healthy_max = 0.0f64;
        for s in &report.telemetry {
            let Some(node) = s
                .name
                .strip_prefix("replica")
                .and_then(|rest| rest.strip_suffix("/disk_backlog_ms"))
            else {
                continue;
            };
            assert!(!s.is_empty(), "{} has samples", s.name);
            let mean = s.points.iter().map(|p| p.1).sum::<f64>() / s.len() as f64;
            if worst.is_none_or(|(_, w)| mean > w) {
                if let Some((prev, w)) = worst {
                    let _ = prev;
                    healthy_max = healthy_max.max(w);
                }
                worst = Some((node, mean));
            } else {
                healthy_max = healthy_max.max(mean);
            }
        }
        let (node, backlog) = worst.expect("per-replica backlog series collected");
        assert_eq!(
            node,
            straggler.0.to_string(),
            "the series alone identify the degraded device"
        );
        assert!(
            backlog > 2.0 * healthy_max.max(0.01),
            "straggler backlog ({backlog:.2} ms) dominates healthy peers ({healthy_max:.2} ms)"
        );
    }
}
