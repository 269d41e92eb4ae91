//! Cluster harness: the builder for a geo-replicated cluster of any
//! protocol with closed-loop clients per region, the one dispatch from a
//! [`ProtocolKind`] to a replica's [`ReplicaHandle`], the sampler's
//! recording helpers and the report of a measured interval (throughput;
//! p50/p90/p99 latency split into leader-region and follower-region
//! clients, read vs write). The cluster itself — one type for any group
//! count — lives in [`crate::shard`].

use paxraft_sim::net::{NetConfig, Region};
use paxraft_sim::sim::{ActorId, Simulation};
use paxraft_workload::generator::WorkloadConfig;
use paxraft_workload::linearize::OpRecord;
use paxraft_workload::metrics::LatencyTriple;

use crate::config::{DurabilityConfig, ReadMode, ReplicaConfig};
use crate::costs::CostModel;
use crate::engine::{DurabilityStats, PipelineConfig, PipelineStats, ReplicaHandle};
use crate::kv::Key;
use crate::mencius::MenciusReplica;
use crate::msg::Msg;
use crate::multipaxos::MultiPaxosReplica;
use crate::raft::RaftReplica;
use crate::raftstar::RaftStarReplica;
use crate::snapshot::{SnapshotConfig, SnapshotStats};
use crate::telemetry::{MetricRegistry, MetricSample, SpanReport, TelemetryConfig, TimeSeries};
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

/// Builder for [`Cluster`].
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
    pub(crate) snapshot: SnapshotConfig,
    pub(crate) pipeline: PipelineConfig,
    pub(crate) shard: crate::shard::ShardConfig,
    pub(crate) rebalance: crate::shard::RebalanceConfig,
    pub(crate) autobalance: bool,
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

    /// Sharding parameters: how many replica groups to run (default 1)
    /// and where their leaders bootstrap.
    pub fn shard_config(mut self, shard: crate::shard::ShardConfig) -> Self {
        self.shard = shard;
        self
    }

    /// Scripted live rebalancing: key-range migrations the coordinator
    /// runs at the given virtual times. An empty plan (the default)
    /// creates no coordinator actor, keeping the cluster bit-for-bit the
    /// non-rebalancing cluster.
    pub fn rebalance_config(mut self, rebalance: crate::shard::RebalanceConfig) -> Self {
        self.rebalance = rebalance;
        self
    }

    /// Closed-loop auto-rebalancing ([`crate::shard::AutoBalancePolicy`]):
    /// a policy engine that watches live per-group telemetry and issues
    /// migrations itself. Off by default: no policy (and no coordinator
    /// actor unless a scripted plan asks for one), keeping the cluster
    /// bit-for-bit the plain sharded cluster. Turning it on requires
    /// telemetry sampling and more than one group.
    pub fn autobalance(mut self, on: bool) -> Self {
        self.autobalance = on;
        self
    }

    /// Snapshot / log-compaction parameters for every replica
    /// (default: disabled).
    pub fn snapshot_config(mut self, snapshot: SnapshotConfig) -> Self {
        self.snapshot = snapshot;
        self
    }

    /// Replication pipelining / adaptive-batching parameters for every
    /// replica (default depth 8; depth 1 serializes rounds, one
    /// unacknowledged round per peer; depth 0 is rejected).
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

    /// Constructs the cluster ([`ClusterBuilder::build_sharded`] under
    /// its single-group name).
    ///
    /// # Panics
    ///
    /// Panics if region placement does not match the replica count.
    pub fn build(self) -> Cluster {
        self.build_sharded()
    }

    /// One replica's configuration under this builder's knobs, given its
    /// group's peer table and membership (`None` when `groups == 1`: no
    /// group header on the wire, no redirect checks).
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

/// The replica actor behind its protocol-agnostic handle — the one
/// place outside the rules files that names the concrete replica types
/// to read from them.
pub fn replica(sim: &Simulation<Msg>, protocol: ProtocolKind, id: ActorId) -> &dyn ReplicaHandle {
    match protocol {
        ProtocolKind::MultiPaxos => sim.actor::<MultiPaxosReplica>(id),
        ProtocolKind::Raft => sim.actor::<RaftReplica>(id),
        ProtocolKind::RaftStar | ProtocolKind::RaftStarPql | ProtocolKind::LeaderLease => {
            sim.actor::<RaftStarReplica>(id)
        }
        ProtocolKind::RaftStarMencius => sim.actor::<MenciusReplica>(id),
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
        let sample = replica(sim, protocol, r).metric_sample();
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
        sample.merge_sum(&replica(sim, protocol, r).metric_sample());
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
    /// Per-command latency breakdowns assembled from the span log
    /// (`None` unless [`TelemetryConfig::trace_spans`] enabled causal
    /// tracing).
    pub spans: Option<SpanReport>,
}

/// A built cluster ready to run: `groups × n` replica actors over `n`
/// simulated nodes. There is one cluster type; this is its name where
/// the group count (default 1) is beside the point.
pub type Cluster = crate::shard::ShardedCluster;

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
            snapshot: SnapshotConfig::default(),
            pipeline: PipelineConfig::default(),
            shard: crate::shard::ShardConfig::default(),
            rebalance: crate::shard::RebalanceConfig::default(),
            autobalance: false,
            telemetry: TelemetryConfig::default(),
            durability: DurabilityConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ProtocolRules, ReplicaEngine};
    use crate::kv::Op;
    use crate::mencius::MenciusRules;
    use crate::multipaxos::PaxosRules;
    use crate::raft::RaftRules;
    use crate::raftstar::RaftStarRules;
    use crate::types::Slot;

    /// What the concrete replica type says, read without the handle.
    fn direct<P: ProtocolRules>(sim: &Simulation<Msg>, id: ActorId) -> (bool, Slot, f64) {
        let rep = sim.actor::<ReplicaEngine<P>>(id);
        (
            rep.is_leader(),
            rep.applied_index(),
            rep.metric_sample().get("responses"),
        )
    }

    /// Every protocol builds, elects and commits, and the handle reads
    /// off each replica exactly what its concrete type does.
    #[test]
    fn builds_and_elects_every_protocol() {
        type Direct = fn(&Simulation<Msg>, ActorId) -> (bool, Slot, f64);
        let kinds: [(ProtocolKind, Direct); 6] = [
            (ProtocolKind::MultiPaxos, direct::<PaxosRules>),
            (ProtocolKind::Raft, direct::<RaftRules>),
            (ProtocolKind::RaftStar, direct::<RaftStarRules>),
            (ProtocolKind::RaftStarPql, direct::<RaftStarRules>),
            (ProtocolKind::LeaderLease, direct::<RaftStarRules>),
            (ProtocolKind::RaftStarMencius, direct::<MenciusRules>),
        ];
        for (p, direct) in kinds {
            let mut cluster = Cluster::builder(p).build();
            cluster.elect_leader();
            assert!(cluster.has_all_leaders(), "{} has a leader", p.name());
            for key in 0..3 {
                cluster
                    .submit_and_wait(Op::Put {
                        key,
                        value: vec![1; 8].into(),
                    })
                    .unwrap_or_else(|e| panic!("{}: put({key}): {e}", p.name()));
            }
            let mut responses = 0.0;
            for &r in cluster.replicas() {
                let handle = replica(&cluster.sim, p, r);
                let (is_leader, applied, sent) = direct(&cluster.sim, r);
                assert_eq!(handle.is_leader(), is_leader, "{}: is_leader", p.name());
                assert_eq!(handle.applied_index(), applied, "{}: applied", p.name());
                assert_eq!(
                    handle.metric_sample().get("responses"),
                    sent,
                    "{}: responses",
                    p.name()
                );
                responses += sent;
            }
            assert!(responses >= 3.0, "{}: the puts were answered", p.name());
        }
    }
}
