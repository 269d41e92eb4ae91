//! The cluster: `groups` independent replica groups (default 1) over
//! the same simulated nodes.

use paxraft_sim::net::Region;
use paxraft_sim::sim::{ActorId, Simulation};
use paxraft_sim::time::{SimDuration, SimTime};
use paxraft_workload::generator::{Generator, OpKind};
use paxraft_workload::metrics::LatencyRecorder;

use crate::client::{ClientRouting, Completion, WorkloadClient};
use crate::engine::DurabilityStats;
use crate::engine::PipelineStats;
use crate::harness::{
    group_sample_now, make_replica, record_group_sample, record_replica_samples, replica,
    ClusterBuilder, ProtocolKind, RunReport,
};
use crate::kv::{CmdId, Command, Op, Reply};
use crate::msg::{ClientMsg, Msg};
use crate::snapshot::SnapshotStats;
use crate::telemetry::{MetricRegistry, MetricSample, TimeSeries, TRACE_CAPACITY};
use crate::types::NodeId;

use super::autobalance::SKETCH_NAMES;
use super::{
    AutoBalancePolicy, BalanceDecision, MigrationSpec, RebalanceCoordinator, ShardMembership,
    ShardRouter,
};

/// Where each group's leader bootstraps — the knob the Paxos/Raft
/// leader-flexibility comparison turns on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaderPlacement {
    /// Every group's leader starts on the builder's configured leader
    /// node: one region absorbs all proposer traffic (each group is
    /// still its own actor with its own CPU — the concentration is
    /// geographic, not computational).
    AllOnOne,
    /// Group `g`'s leader starts on node `(leader + g) mod n`, spreading
    /// proposers across regions so no single region is every client's
    /// far endpoint.
    RoundRobin,
}

impl LeaderPlacement {
    /// The bootstrap leader of group `g` given the builder's base leader.
    pub fn leader_of(self, base: NodeId, g: usize, n: usize) -> NodeId {
        match self {
            LeaderPlacement::AllOnOne => base,
            LeaderPlacement::RoundRobin => NodeId((base.0 + g as u32) % n as u32),
        }
    }

    /// Name used in benchmark row keys.
    pub fn name(self) -> &'static str {
        match self {
            LeaderPlacement::AllOnOne => "allonone",
            LeaderPlacement::RoundRobin => "roundrobin",
        }
    }
}

/// Sharding parameters for [`ClusterBuilder::shard_config`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of replica groups (1 = no group header on the wire).
    pub groups: usize,
    /// Per-group leader bootstrap placement.
    pub placement: LeaderPlacement,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            groups: 1,
            placement: LeaderPlacement::AllOnOne,
        }
    }
}

impl ShardConfig {
    /// `groups` groups with the default placement.
    pub fn groups(groups: usize) -> Self {
        ShardConfig {
            groups,
            ..ShardConfig::default()
        }
    }

    /// This configuration with the given leader placement.
    pub fn placement(mut self, placement: LeaderPlacement) -> Self {
        self.placement = placement;
        self
    }
}

/// Per-group counters from one run.
#[derive(Debug, Clone)]
pub struct GroupStats {
    /// Group id.
    pub group: u32,
    /// The group's bootstrap leader node.
    pub leader: NodeId,
    /// Client responses the group's replicas sent (commit-visible work;
    /// a crashed group shows up as a flat count here).
    pub responses: u64,
    /// Snapshot/compaction counters summed over the group's replicas.
    pub snapshots: SnapshotStats,
    /// Pipeline counters summed over the group's replicas.
    pub pipeline: PipelineStats,
    /// Fsync / deferred-ack counters summed over the group's replicas.
    pub durability: DurabilityStats,
    /// Range exports shipped by the group's replicas (live rebalancing).
    pub range_exports: u64,
    /// Range installs absorbed by the group's replicas.
    pub range_installs: u64,
}

/// A built cluster ready to run: `groups × n` replica actors over `n`
/// simulated nodes, plus per-region clients that route by key.
pub struct ShardedCluster {
    /// The underlying simulation (exposed for fault injection).
    pub sim: Simulation<Msg>,
    protocol: ProtocolKind,
    /// `group_actors[g][i]` is node `i`'s actor in group `g`.
    group_actors: Vec<Vec<ActorId>>,
    clients: Vec<ActorId>,
    regions: Vec<Region>,
    leaders: Vec<NodeId>,
    router: ShardRouter,
    coordinator: Option<ActorId>,
    /// The closed-loop auto-balance policy (None unless enabled). Lives
    /// harness-side like the telemetry sampler: it observes between sim
    /// steps and injects its decisions into the coordinator, so runs
    /// stay deterministic per seed.
    policy: Option<AutoBalancePolicy>,
    /// The scripted client behind [`ShardedCluster::submit_and_wait`],
    /// added at the first submission.
    scripted: Option<ActorId>,
    last_submitted: Option<Command>,
    metrics: MetricRegistry,
    per_replica: bool,
}

impl ClusterBuilder {
    /// Constructs the cluster: `shard.groups` independent replica
    /// groups over the same `n` simulated nodes (distinct actor per
    /// `(node, group)`, one shared network/clock/fault injector), with
    /// clients that resolve each key to its owning group.
    ///
    /// With `groups == 1` replicas carry no membership, so there is no
    /// group header on the wire and no redirect check, and actor `i`
    /// writes to disk `i`; `tests/parity.rs` pins that layout's
    /// fixed-seed fingerprints.
    ///
    /// # Panics
    ///
    /// Panics if region placement does not match the replica count, or
    /// if a scripted migration's range is empty or its destination group
    /// does not exist.
    pub fn build_sharded(self) -> ShardedCluster {
        assert_eq!(self.regions.len(), self.replicas, "one region per replica");
        let groups = self.shard.groups.max(1);
        for spec in &self.rebalance.migrations {
            assert!(
                spec.lo < spec.hi && (spec.to_group as usize) < groups,
                "{spec:?}: a migration moves a non-empty range to one of the {groups} groups"
            );
        }
        let n = self.replicas;
        let mut sim = Simulation::new(self.net.clone(), self.seed);
        if self.telemetry.sampling_enabled() {
            sim.enable_trace(TRACE_CAPACITY);
        }
        if self.telemetry.trace_spans {
            sim.enable_spans();
        }
        // Provision the disks: one per *node*, shared by all of that
        // node's group replicas — co-located groups contend for the same
        // device the way co-located flows contend for one NIC.
        let disk = self.durability.disk_config();
        let provision_disks = !disk.is_zero_cost();
        if provision_disks {
            sim.set_disk_config(disk);
        }
        let router = ShardRouter::from_workload(&self.workload, groups);
        let client_base = groups * n;
        let mut group_actors = Vec::with_capacity(groups);
        let mut leaders = Vec::with_capacity(groups);
        for g in 0..groups {
            let peers: Vec<ActorId> = (g * n..(g + 1) * n).map(ActorId).collect();
            let leader = self.shard.placement.leader_of(self.leader, g, n);
            leaders.push(leader);
            // A single group needs no membership: no routing header on
            // the wire and no redirect checks.
            let membership = (groups > 1).then(|| ShardMembership {
                group: g as u32,
                router: router.clone(),
            });
            let mut actors = Vec::with_capacity(n);
            for i in 0..n {
                let mut cfg = self.replica_config(
                    NodeId(i as u32),
                    peers.clone(),
                    client_base,
                    membership.clone(),
                );
                cfg.initial_leader = Some(leader);
                let actor = sim.add_actor(self.regions[i], make_replica(self.protocol, cfg));
                if provision_disks {
                    // Disk id = node index: every group's replica on
                    // node `i` shares node `i`'s device.
                    sim.map_disk(actor, i);
                }
                actors.push(actor);
            }
            group_actors.push(actors);
        }
        // One workload client fleet per region (RNG forks and add order
        // do not depend on the group count); each client routes per key
        // over its region's member of every group.
        let mut clients = Vec::new();
        let mut rng = paxraft_sim::rng::SimRng::new(self.seed ^ 0xC11E57);
        let mut workload = self.workload.clone();
        workload.partitions = self.regions.len();
        for (ri, &region) in self.regions.iter().enumerate() {
            for _ in 0..self.clients_per_region {
                let cid = clients.len() as u32;
                let gen = Generator::new(workload.clone(), ri, rng.fork(cid as u64));
                let mut wc = WorkloadClient::new(cid, group_actors[0][ri], Some(gen));
                wc.history_key = self.record_history_key;
                if groups > 1 {
                    wc.shard = Some(ClientRouting {
                        router: router.clone(),
                        targets: group_actors.iter().map(|ga| ga[ri]).collect(),
                    });
                }
                let id = sim.add_actor(region, Box::new(wc));
                clients.push(id);
            }
        }
        // The rebalance coordinator rides at the next client id — but
        // only when migrations are scripted or the auto-balance policy
        // is on, so a non-rebalancing sharded cluster keeps the exact
        // actor set (and RNG schedule) it had before live rebalancing
        // existed.
        if self.autobalance {
            assert!(
                self.telemetry.sampling_enabled(),
                "auto-rebalancing reads the sampled load sketch; enable telemetry sampling"
            );
            assert!(groups > 1, "auto-rebalancing needs more than one group");
        }
        let coordinator = (self.rebalance.enabled() || self.autobalance).then(|| {
            let coord_client = clients.len() as u32;
            let coord = RebalanceCoordinator::new(
                coord_client,
                router.clone(),
                self.rebalance.migrations.clone(),
                group_actors.clone(),
                clients.clone(),
            );
            // Place the coordinator in the base leader's region (a real
            // deployment runs it near the config service).
            sim.add_actor(self.regions[self.leader.0 as usize], Box::new(coord))
        });
        let policy = self.autobalance.then(AutoBalancePolicy::default);
        ShardedCluster {
            sim,
            protocol: self.protocol,
            group_actors,
            clients,
            regions: self.regions,
            leaders,
            router,
            coordinator,
            policy,
            scripted: None,
            last_submitted: None,
            metrics: MetricRegistry::new(&self.telemetry),
            per_replica: self.telemetry.per_replica,
        }
    }
}

impl ShardedCluster {
    /// The protocol under test.
    pub fn protocol(&self) -> ProtocolKind {
        self.protocol
    }

    /// Number of replica groups.
    pub fn num_groups(&self) -> usize {
        self.group_actors.len()
    }

    /// The build-time key-range partition map (version 0). Live
    /// rebalancing does not edit this copy; see
    /// [`ShardedCluster::current_router`].
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// The current authoritative partition map: the rebalance
    /// coordinator's copy when one exists (it applies every completed
    /// migration), the build-time map otherwise.
    pub fn current_router(&self) -> ShardRouter {
        match self.coordinator {
            Some(c) => self.sim.actor::<RebalanceCoordinator>(c).router().clone(),
            None => self.router.clone(),
        }
    }

    /// The rebalance coordinator actor, when migrations are scripted.
    pub fn coordinator(&self) -> Option<ActorId> {
        self.coordinator
    }

    /// The auto-balance policy (None unless enabled at build time).
    pub fn policy(&self) -> Option<&AutoBalancePolicy> {
        self.policy.as_ref()
    }

    /// Every migration the auto-balance policy decided on, in decision
    /// order with virtual timestamps — the determinism pin: two runs of
    /// the same seed must produce identical logs.
    pub fn policy_decisions(&self) -> Vec<(SimTime, BalanceDecision)> {
        self.policy
            .as_ref()
            .map_or_else(Vec::new, |p| p.decisions.clone())
    }

    /// Total migrations the coordinator has started (scripted plus
    /// policy-enqueued); 0 without a coordinator.
    pub fn migrations_started(&self) -> usize {
        self.coordinator.map_or(0, |c| {
            self.sim
                .actor::<RebalanceCoordinator>(c)
                .migrations_started()
        })
    }

    /// Versions of migrations whose release completed (empty without a
    /// coordinator).
    pub fn migrations_completed(&self) -> Vec<u64> {
        match self.coordinator {
            Some(c) => self.sim.actor::<RebalanceCoordinator>(c).completed.clone(),
            None => Vec::new(),
        }
    }

    /// Runs the simulation until every scripted migration has completed
    /// (released), or panics after `limit`.
    pub fn run_until_rebalanced(&mut self, limit: SimDuration) {
        let deadline = self.sim.now() + limit;
        loop {
            let done = match self.coordinator {
                Some(c) => self.sim.actor::<RebalanceCoordinator>(c).done(),
                None => true,
            };
            if done {
                return;
            }
            assert!(
                self.sim.now() < deadline,
                "migrations did not complete within {limit}"
            );
            self.sim.run_for(SimDuration::from_millis(100));
        }
    }

    /// Group `g`'s replica actors, indexed by node.
    pub fn group_replicas(&self, g: usize) -> &[ActorId] {
        &self.group_actors[g]
    }

    /// The actor serving group `g` on node `node`.
    pub fn replica(&self, g: usize, node: NodeId) -> ActorId {
        self.group_actors[g][node.0 as usize]
    }

    /// Group 0's replica actors (all of them when `groups == 1`).
    pub fn replicas(&self) -> &[ActorId] {
        self.group_replicas(0)
    }

    /// Client actor ids.
    pub fn clients(&self) -> &[ActorId] {
        &self.clients
    }

    /// Each group's bootstrap leader node.
    pub fn leaders(&self) -> &[NodeId] {
        &self.leaders
    }

    /// Group 0's bootstrap leader node.
    pub fn leader(&self) -> NodeId {
        self.leaders[0]
    }

    /// Whether some replica of group `g` currently claims leadership.
    pub fn group_has_leader(&self, g: usize) -> bool {
        self.group_actors[g]
            .iter()
            .any(|&r| replica(&self.sim, self.protocol, r).is_leader())
    }

    /// Whether every group has a leader.
    pub fn has_all_leaders(&self) -> bool {
        (0..self.num_groups()).all(|g| self.group_has_leader(g))
    }

    /// Runs until every group has elected (and leases, if any, are live).
    pub fn elect_leaders(&mut self) {
        let deadline = self.sim.now() + SimDuration::from_secs(30);
        while !self.has_all_leaders() && self.sim.now() < deadline {
            self.sim.run_for(SimDuration::from_millis(50));
        }
        assert!(self.has_all_leaders(), "every group elects within 30s");
        if matches!(
            self.protocol,
            ProtocolKind::RaftStarPql | ProtocolKind::LeaderLease
        ) {
            // Let the first grant round complete.
            self.sim.run_for(SimDuration::from_millis(700));
        }
    }

    /// [`ShardedCluster::elect_leaders`] under its single-group name.
    pub fn elect_leader(&mut self) {
        self.elect_leaders();
    }

    /// Per-group commit/snapshot/pipeline counters. The snapshot,
    /// pipeline and durability blocks absorb each replica's typed stats;
    /// `responses` and `range_*` are read off the named
    /// [`MetricSample`]s the virtual-time sampler folds into series.
    pub fn per_group_stats(&self) -> Vec<GroupStats> {
        self.group_actors
            .iter()
            .enumerate()
            .map(|(g, actors)| {
                let mut snapshots = SnapshotStats::default();
                let mut pipeline = PipelineStats::default();
                let mut durability = DurabilityStats::default();
                let mut sample = MetricSample::default();
                for &r in actors {
                    let rep = replica(&self.sim, self.protocol, r);
                    snapshots.absorb(&rep.snap_stats());
                    pipeline.absorb(&rep.pipeline_stats());
                    durability.absorb(&rep.durability_stats());
                    sample.merge_sum(&rep.metric_sample());
                }
                GroupStats {
                    group: g as u32,
                    leader: self.leaders[g],
                    responses: sample.get("responses") as u64,
                    snapshots,
                    pipeline,
                    durability,
                    range_exports: sample.get("range_exports") as u64,
                    range_installs: sample.get("range_installs") as u64,
                }
            })
            .collect()
    }

    /// Submits one key operation through the cluster's scripted
    /// [`WorkloadClient`] and waits for its reply (for examples and
    /// tests, not measurement). The client sends the operation to its
    /// key's group by the current map, retries it and follows redirects
    /// like any workload client; between submissions it arms no timer.
    ///
    /// # Errors
    ///
    /// Returns `Err` if no reply arrives within 30 virtual seconds.
    ///
    /// # Panics
    ///
    /// Panics if `op` names no key.
    pub fn submit_and_wait(&mut self, op: Op) -> Result<Reply, String> {
        self.sim.start();
        // One live replica per group: the configured leader unless it is
        // crashed, else the group's first live replica (its forwarding
        // finds the actual leader).
        let targets: Vec<ActorId> = (0..self.num_groups())
            .map(|g| {
                let preferred = self.replica(g, self.leaders[g]);
                if self.sim.is_crashed(preferred) {
                    *self.group_actors[g]
                        .iter()
                        .find(|&&r| !self.sim.is_crashed(r))
                        .expect("at least one live replica in the group")
                } else {
                    preferred
                }
            })
            .collect();
        let id = *self.scripted.get_or_insert_with(|| {
            // Replicas route replies to `client_base + id.client`, so the
            // client's id is its actor index past the replicas.
            let client_id = self.sim.len() - self.group_actors.len() * self.regions.len();
            let region = self.regions[self.leaders[0].0 as usize];
            let client = WorkloadClient::new(client_id as u32, targets[0], None);
            self.sim.add_actor(region, Box::new(client))
        });
        let router = self.current_router();
        let client = self.sim.actor_mut::<WorkloadClient>(id);
        client.target = targets[0];
        if targets.len() > 1 {
            client.shard = Some(ClientRouting { router, targets });
        }
        let cmd = Command {
            id: CmdId {
                client: client.client_id,
                seq: self.last_submitted.as_ref().map_or(1, |c| c.id.seq + 1),
            },
            op,
        };
        self.last_submitted = Some(cmd.clone());
        let request = Msg::Client(ClientMsg::Request { cmd });
        self.sim.send_external(id, request, SimDuration::ZERO);
        let deadline = self.sim.now() + SimDuration::from_secs(30);
        while self.sim.now() < deadline {
            self.sim.run_for(SimDuration::from_millis(20));
            if let Some(r) = self.sim.actor_mut::<WorkloadClient>(id).reply.take() {
                return Ok(r);
            }
        }
        Err("no reply within 30 s".into())
    }

    /// The last command [`ShardedCluster::submit_and_wait`] sent —
    /// tests re-inject it verbatim to model a client retransmission
    /// (same `CmdId`), e.g. a retry that crosses a range migration.
    pub fn last_submitted_command(&self) -> Option<Command> {
        self.last_submitted.clone()
    }

    /// Runs `warmup + measure + cooldown`, counting only completions
    /// inside the measurement window (Section 5: 50 s trials with 10 s
    /// warm-up and cool-down; benches use scaled-down windows). The
    /// "leader region" latency split is anchored at group 0's leader;
    /// snapshot/pipeline/durability counters sum over *all* groups.
    pub fn run_measurement(
        &mut self,
        warmup: SimDuration,
        measure: SimDuration,
        cooldown: SimDuration,
    ) -> RunReport {
        self.advance(warmup);
        let w_start = self.sim.now();
        self.advance(measure);
        let w_end = self.sim.now();
        self.advance(cooldown);

        let leader_region = self.regions[self.leaders[0].0 as usize];
        let mut leader_reads = LatencyRecorder::new();
        let mut follower_reads = LatencyRecorder::new();
        let mut leader_writes = LatencyRecorder::new();
        let mut follower_writes = LatencyRecorder::new();
        let mut completed: u64 = 0;
        for (region, comp) in self.completions_in(w_start, w_end) {
            completed += 1;
            let recorder = match (comp.kind, region == leader_region) {
                (OpKind::Read, true) => &mut leader_reads,
                (OpKind::Read, false) => &mut follower_reads,
                (OpKind::Write, true) => &mut leader_writes,
                (OpKind::Write, false) => &mut follower_writes,
            };
            recorder.record_ns(comp.latency_ns);
        }
        let histories = self
            .clients
            .iter()
            .flat_map(|&c| self.sim.actor::<WorkloadClient>(c).history_records())
            .collect();
        let per_group = self.per_group_stats();
        let mut snapshots = SnapshotStats::default();
        let mut pipeline = PipelineStats::default();
        let mut durability = DurabilityStats::default();
        for gs in &per_group {
            snapshots.absorb(&gs.snapshots);
            pipeline.absorb(&gs.pipeline);
            durability.absorb(&gs.durability);
        }
        RunReport {
            throughput_ops: completed as f64 / measure.as_secs_f64(),
            leader_reads: leader_reads.paper_triple_ms(),
            follower_reads: follower_reads.paper_triple_ms(),
            leader_writes: leader_writes.paper_triple_ms(),
            follower_writes: follower_writes.paper_triple_ms(),
            histories,
            snapshots,
            pipeline,
            durability,
            telemetry: self.metrics.snapshot(),
            spans: self.span_report(),
        }
    }

    /// The closed-loop clients' completions in `[from, to)`, each with
    /// the region of the client that recorded it.
    fn completions_in(
        &self,
        from: SimTime,
        to: SimTime,
    ) -> impl Iterator<Item = (Region, &Completion)> + '_ {
        let (from, to) = (from.as_nanos(), to.as_nanos());
        self.clients.iter().flat_map(move |&c| {
            let region = self.sim.region_of(c);
            self.sim
                .actor::<WorkloadClient>(c)
                .completions
                .iter()
                .filter(move |comp| (from..to).contains(&comp.at_ns))
                .map(move |comp| (region, comp))
        })
    }

    /// The latency of every operation group `g` completed in
    /// `[from, to)`: the exact record behind any per-group, per-phase
    /// percentile (a migration window's p99, say).
    pub fn group_latencies(&self, g: u32, from: SimTime, to: SimTime) -> LatencyRecorder {
        let mut latencies = LatencyRecorder::new();
        for (_, comp) in self.completions_in(from, to) {
            if comp.group == g {
                latencies.record_ns(comp.latency_ns);
            }
        }
        latencies
    }

    /// Assembles the span log recorded so far into per-command latency
    /// breakdowns (`None` unless span tracing is enabled). The
    /// migration story reads directly off the per-command fields:
    /// redirect cost is the `redirects` bounces' network share,
    /// freeze-bounce cost is `stalls` × the stall queueing time, and
    /// destination queueing is the queueing/batching booked at the
    /// group that finally served the command
    /// ([`crate::telemetry::CommandBreakdown::served_by`]; replica
    /// actor `a` of an `n`-replica group belongs to group `a / n`).
    pub fn span_report(&self) -> Option<crate::telemetry::SpanReport> {
        self.sim
            .trace()
            .spans_enabled()
            .then(|| crate::telemetry::SpanAssembler::assemble(self.sim.trace().spans()))
    }

    /// Advances virtual time by `d`, pausing at each due sampling
    /// instant to fold every group's replica state into the metric
    /// registry (`group{g}/…` series). Sampling is read-only between
    /// simulation steps, and stepping `run_until` in chunks processes
    /// the identical event order as a single call (events are
    /// heap-ordered by `(time, seq)`), so enabling it never changes the
    /// event schedule or the RNG stream.
    pub fn advance(&mut self, d: SimDuration) {
        let target = self.sim.now() + d;
        if !self.metrics.enabled() {
            self.sim.run_until(target);
            return;
        }
        self.metrics.fast_forward(self.sim.now());
        while self.metrics.next_due() <= target {
            self.sim.run_until(self.metrics.next_due());
            let now = self.sim.now();
            let mut cluster_sample = MetricSample::default();
            for (g, actors) in self.group_actors.iter().enumerate() {
                let (sample, nic, disk) = group_sample_now(&self.sim, self.protocol, actors);
                record_group_sample(&mut self.metrics, now, g as u32, &sample, nic, disk);
                if self.per_replica {
                    record_replica_samples(
                        &mut self.metrics,
                        &self.sim,
                        self.protocol,
                        now,
                        actors,
                    );
                }
                cluster_sample.merge_sum(&sample);
            }
            self.tick_policy(now, &cluster_sample);
            self.metrics.advance();
        }
        self.sim.run_until(target);
    }

    /// One closed-loop control step: hand the policy the cluster-wide
    /// load sketch, the coordinator's published map and whether it is
    /// busy, and enqueue the migration it decides, if any. Runs between
    /// sim steps at the sampling cadence, so decisions are a pure
    /// function of the run so far — two identical seeds produce
    /// identical decision logs.
    fn tick_policy(&mut self, now: SimTime, cluster_sample: &MetricSample) {
        let (Some(policy), Some(coord)) = (self.policy.as_mut(), self.coordinator) else {
            return;
        };
        let counts: Vec<f64> = SKETCH_NAMES.iter().map(|n| cluster_sample.get(n)).collect();
        let c = self.sim.actor::<RebalanceCoordinator>(coord);
        let Some(d) = policy.observe(now, &counts, c.router(), !c.done()) else {
            return;
        };
        let spec = MigrationSpec {
            at: SimDuration::from_nanos(now.as_nanos()),
            lo: d.lo,
            hi: d.hi,
            to_group: d.to_group,
        };
        RebalanceCoordinator::enqueue(&mut self.sim, coord, spec);
    }

    /// The sampled per-group metric time-series collected so far (empty
    /// unless telemetry sampling is enabled).
    pub fn telemetry_series(&self) -> Vec<TimeSeries> {
        self.metrics.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Cluster;
    use crate::snapshot::SnapshotConfig;
    use paxraft_sim::time::SimTime;
    use paxraft_workload::generator::WorkloadConfig;

    fn parity_workload() -> WorkloadConfig {
        WorkloadConfig {
            read_fraction: 0.5,
            conflict_rate: 0.2,
            ..Default::default()
        }
    }

    fn report_fingerprint(r: &RunReport, now: SimTime) -> String {
        format!(
            "thr={:.6} lr={:?} fr={:?} lw={:?} fw={:?} snaps={:?} pipe={:?} now={}",
            r.throughput_ops,
            r.leader_reads,
            r.follower_reads,
            r.leader_writes,
            r.follower_writes,
            r.snapshots,
            r.pipeline,
            now
        )
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

    /// Once answered, the scripted client behind `submit_and_wait` arms
    /// nothing: 10 s of idle running fires none of its timers.
    #[test]
    fn an_answered_submission_leaves_no_timer_behind() {
        use paxraft_sim::trace::TraceKind;
        let mut cluster = Cluster::builder(ProtocolKind::RaftStar).build();
        cluster.elect_leader();
        let put = Op::Put {
            key: 1,
            value: vec![7; 16].into(),
        };
        assert_eq!(cluster.submit_and_wait(put), Ok(Reply::Done));
        let client = cluster.scripted.expect("the scripted client");
        cluster.sim.enable_trace(1 << 16);
        cluster.sim.run_for(SimDuration::from_secs(10));
        let trace = cluster.sim.trace();
        assert_eq!(trace.recorded(), trace.len() as u64, "the ring kept all");
        let fires = |actor: Option<ActorId>| {
            trace
                .events()
                .filter(|e| matches!(e.kind, TraceKind::TimerFire { .. }))
                .filter(|e| actor.is_none_or(|a| e.actor == a))
                .count()
        };
        assert!(fires(None) > 10, "the replicas' timers ran");
        assert_eq!(fires(Some(client)), 0);
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

    /// A group's latency window is exact: its p99 is the nearest-rank
    /// p99 of the latencies the clients recorded for that group inside
    /// the window, so it is one of them and not a bucket edge.
    #[test]
    fn group_latencies_read_the_clients_completions_exactly() {
        let mut cluster = Cluster::builder(ProtocolKind::Raft)
            .shard_config(ShardConfig::groups(2))
            .clients_per_region(2)
            .workload(parity_workload())
            .seed(31)
            .build_sharded();
        cluster.elect_leaders();
        cluster.run_measurement(
            SimDuration::from_secs(1),
            SimDuration::from_secs(3),
            SimDuration::from_secs(1),
        );
        let (from, to) = (SimTime::from_secs(2), SimTime::from_secs(4));
        let window = from.as_nanos()..to.as_nanos();
        let in_window: Vec<_> = cluster
            .clients()
            .iter()
            .flat_map(|&c| &cluster.sim.actor::<WorkloadClient>(c).completions)
            .filter(|c| window.contains(&c.at_ns))
            .collect();
        let mut counted = 0;
        for g in 0..2u32 {
            let mut want: Vec<u64> = in_window
                .iter()
                .filter(|c| c.group == g)
                .map(|c| c.latency_ns)
                .collect();
            want.sort_unstable();
            assert!(want.len() > 20, "group {g} served {} ops", want.len());
            let rank = (want.len() * 99).div_ceil(100);
            let mut got = cluster.group_latencies(g, from, to);
            assert_eq!(got.len(), want.len(), "group {g}");
            assert_eq!(
                got.percentile_ms(99.0),
                Some(want[rank - 1] as f64 / 1e6),
                "group {g}'s p99 is its recorded latency of rank {rank}"
            );
            counted += got.len();
        }
        assert_eq!(counted, in_window.len(), "every completion has one group");
    }

    /// The per-replica series satellite's demo: degrade exactly one
    /// replica's disk and find the straggler *from the metric series
    /// alone* — the `replica{i}/disk_backlog_ms` gauge of the slow
    /// device dominates every healthy one, and no group-level series
    /// could have said which node it was.
    #[test]
    fn per_replica_series_expose_an_injected_slow_disk_straggler() {
        use crate::config::DurabilityConfig;
        use crate::telemetry::TelemetryConfig;
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

    /// Telemetry parity in the sharded harness: enabling the sampler
    /// and the flight recorder on a 2-group run *with a scripted
    /// migration racing the measurement window* changes nothing in the
    /// [`RunReport`] — and the enabled run collects one series set per
    /// group.
    #[test]
    fn sharded_telemetry_on_and_off_runs_are_bit_for_bit() {
        use crate::shard::{MigrationSpec, RebalanceConfig};
        use crate::telemetry::TelemetryConfig;
        let run = |telemetry: TelemetryConfig| {
            let mut cluster = Cluster::builder(ProtocolKind::Raft)
                .shard_config(ShardConfig::groups(2))
                .clients_per_region(2)
                .rebalance_config(RebalanceConfig::default().migrate(MigrationSpec {
                    at: SimDuration::from_secs(3),
                    lo: 0,
                    hi: 1,
                    to_group: 1,
                }))
                .workload(parity_workload())
                .telemetry_config(telemetry)
                .seed(31)
                .build_sharded();
            cluster.elect_leaders();
            let r = cluster.run_measurement(
                SimDuration::from_secs(2),
                SimDuration::from_secs(4),
                SimDuration::from_secs(1),
            );
            let fp = report_fingerprint(&r, cluster.sim.now());
            (fp, r.telemetry)
        };
        let (off, series_off) = run(TelemetryConfig::default());
        let (on, series_on) = run(TelemetryConfig::sampled());
        assert_eq!(off, on, "telemetry never perturbs the sharded run");
        assert!(series_off.is_empty(), "off-run collects nothing");
        for g in 0..2 {
            for metric in ["throughput_ops", "pending_depth", "range_exports"] {
                let name = format!("group{g}/{metric}");
                let s = series_on
                    .iter()
                    .find(|s| s.name == name)
                    .unwrap_or_else(|| panic!("series {name} collected"));
                assert!(!s.is_empty(), "{name} has samples");
            }
        }
    }

    /// Span tracing plus per-replica series in the sharded harness:
    /// enabling both on a 2-group run with a scripted migration racing
    /// the measurement window is bit-for-bit invisible in the
    /// [`RunReport`] — and the enabled run yields per-command
    /// breakdowns that (a) obey the accounting identity, (b) include
    /// migration-path traffic (`WrongGroup` redirect bounces show up as
    /// redirect/stall counts on the affected commands), and (c) come
    /// with one metric-series set per *replica*, not just per group.
    #[test]
    fn sharded_span_tracing_and_per_replica_series_are_bit_for_bit() {
        use crate::shard::{MigrationSpec, RebalanceConfig};
        use crate::telemetry::{Stage, TelemetryConfig};
        let run = |telemetry: TelemetryConfig| {
            let mut cluster = Cluster::builder(ProtocolKind::Raft)
                .shard_config(ShardConfig::groups(2))
                .clients_per_region(2)
                .rebalance_config(RebalanceConfig::default().migrate(MigrationSpec {
                    at: SimDuration::from_secs(3),
                    lo: 0,
                    hi: 1,
                    to_group: 1,
                }))
                .workload(parity_workload())
                .telemetry_config(telemetry)
                .seed(31)
                .build_sharded();
            cluster.elect_leaders();
            let r = cluster.run_measurement(
                SimDuration::from_secs(2),
                SimDuration::from_secs(4),
                SimDuration::from_secs(1),
            );
            let fp = report_fingerprint(&r, cluster.sim.now());
            let replicas: Vec<_> = (0..2)
                .flat_map(|g| cluster.group_replicas(g).to_vec())
                .collect();
            (fp, r.spans, r.telemetry, replicas)
        };
        let (off, spans_off, series_off, _) = run(TelemetryConfig::default());
        let (on, spans_on, series_on, replicas) =
            run(TelemetryConfig::sampled().with_spans().with_per_replica());
        assert_eq!(off, on, "span tracing never perturbs the sharded run");
        assert!(spans_off.is_none(), "off-run assembles nothing");
        assert!(series_off.is_empty(), "off-run collects nothing");
        let spans = spans_on.expect("spans enabled");
        assert!(!spans.commands.is_empty(), "commands traced");
        for b in &spans.commands {
            let sum = Stage::ALL
                .iter()
                .fold(SimDuration::ZERO, |acc, &s| acc + b.stage(s));
            assert_eq!(
                sum,
                b.total(),
                "accounting identity for client {} seq {}",
                b.client,
                b.seq
            );
        }
        assert!(
            spans
                .commands
                .iter()
                .any(|b| b.redirects > 0 || b.stalls > 0),
            "the migration window produced redirect/stall spans"
        );
        for r in &replicas {
            let name = format!("replica{}/throughput_ops", r.0);
            let s = series_on
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("series {name} collected"));
            assert!(!s.is_empty(), "{name} has samples");
        }
    }

    /// Groups fail independently: crashing group 0's leader must not
    /// disturb group 1's commits, and group 0 itself recovers by
    /// re-election inside the group.
    #[test]
    fn leader_crash_in_one_group_does_not_disturb_the_other() {
        for p in [
            ProtocolKind::Raft,
            ProtocolKind::RaftStar,
            ProtocolKind::MultiPaxos,
            ProtocolKind::RaftStarMencius,
        ] {
            let mut cluster = Cluster::builder(p)
                .shard_config(ShardConfig::groups(2))
                .seed(11)
                .build_sharded();
            cluster.elect_leaders();
            let (g0_lo, _) = cluster.router().range(0);
            let (g1_lo, _) = cluster.router().range(1);
            // Both groups serve before the fault.
            for key in [g0_lo, g1_lo] {
                cluster
                    .submit_and_wait(Op::Put {
                        key,
                        value: vec![0; 8].into(),
                    })
                    .unwrap_or_else(|e| panic!("{}: pre-crash put({key}): {e}", p.name()));
            }
            // Crash group 0's leader *actor*; the same node's group-1
            // actor keeps running (independent failure domains per
            // group even on one machine).
            let victim = cluster.replica(0, cluster.leaders()[0]);
            cluster
                .sim
                .crash_at(victim, cluster.sim.now() + SimDuration::from_millis(1));
            cluster.sim.run_for(SimDuration::from_millis(10));
            let before = cluster.sim.now();
            let r = cluster
                .submit_and_wait(Op::Get { key: g1_lo })
                .unwrap_or_else(|e| {
                    panic!("{}: group 1 read during group 0 outage: {e}", p.name())
                });
            assert!(
                matches!(r, Reply::Value(Some(_))),
                "{}: group 1 still serves its committed state",
                p.name()
            );
            let group1_latency = cluster.sim.now().since(before);
            assert!(
                group1_latency < SimDuration::from_secs(1),
                "{}: group 1 commit undisturbed by group 0's election ({group1_latency})",
                p.name()
            );
            // Group 0 recovers on its own (re-election or revocation).
            cluster
                .submit_and_wait(Op::Put {
                    key: g0_lo,
                    value: vec![1; 8].into(),
                })
                .unwrap_or_else(|e| panic!("{}: group 0 post-crash put: {e}", p.name()));
        }
    }

    /// A client whose partition map is stale (it believes everything
    /// lives in group 0) is redirected by the replicas' map and still
    /// completes every operation.
    #[test]
    fn stale_client_router_is_corrected_by_wrong_group_redirects() {
        let mut cluster = Cluster::builder(ProtocolKind::Raft)
            .shard_config(ShardConfig::groups(2))
            .clients_per_region(1)
            .workload(WorkloadConfig {
                read_fraction: 0.0,
                conflict_rate: 0.0,
                ..Default::default()
            })
            .seed(3)
            .build_sharded();
        cluster.elect_leaders();
        // Swap every client's router for a stale single-group map:
        // all keys resolve to group 0, so half the traffic (group 1
        // keys) is misrouted and must be redirected.
        let stale = ShardRouter::new(WorkloadConfig::default().records, 1);
        for &c in &cluster.clients().to_vec() {
            let wc = cluster.sim.actor_mut::<WorkloadClient>(c);
            let routing = wc.shard.as_mut().expect("sharded client has routing");
            routing.router = stale.clone();
        }
        cluster.sim.run_for(SimDuration::from_secs(5));
        let mut redirects = 0;
        let mut completions = 0;
        for &c in cluster.clients() {
            let wc = cluster.sim.actor::<WorkloadClient>(c);
            redirects += wc.redirects;
            completions += wc.completions.len();
        }
        assert!(
            redirects > 0,
            "misrouted commands were redirected ({redirects})"
        );
        // Redirects are counted apart from commit-visible responses:
        // every group-0 replica answered misroutes without inflating its
        // response counter by them.
        let mut replica_redirects = 0;
        for &r in cluster.group_replicas(0) {
            let sample = replica(&cluster.sim, cluster.protocol(), r).metric_sample();
            replica_redirects += sample.get("redirects") as u64;
        }
        assert_eq!(
            replica_redirects, redirects,
            "replica redirect counters match the clients' view"
        );
        assert!(
            completions > 10,
            "clients completed operations despite the stale map ({completions})"
        );
        // The redirect happened *before* replication: no group ever
        // applied a foreign key.
        for g in 0..2 {
            let (lo, hi) = cluster.router().range(g);
            for &r in cluster.group_replicas(g) {
                let rep = replica(&cluster.sim, cluster.protocol(), r);
                for (k, _) in rep.kv().snapshot().records.iter() {
                    assert!(
                        (lo..hi).contains(k),
                        "group {g} applied only its own keys (found {k})"
                    );
                }
            }
        }
    }

    /// Snapshot catch-up stays inside one group of a sharded cluster: a
    /// lagging replica of group 0 is healed by a group-0 snapshot while
    /// the co-located group-1 actor never sees a transfer.
    #[test]
    fn snapshot_catch_up_is_group_local() {
        let mut cluster = Cluster::builder(ProtocolKind::Raft)
            .replicas(3)
            .regions(vec![Region::Oregon, Region::Ohio, Region::Ireland])
            .shard_config(ShardConfig::groups(2))
            .snapshot_config(SnapshotConfig::every(16))
            .seed(5)
            .build_sharded();
        cluster.elect_leaders();
        let (g0_lo, _) = cluster.router().range(0);
        let (g1_lo, _) = cluster.router().range(1);
        // Warm-up commit (also materializes the scripted client, so the
        // partition vector below covers every actor in the sim).
        cluster
            .submit_and_wait(Op::Put {
                key: g0_lo,
                value: vec![0; 8].into(),
            })
            .expect("warm-up put");
        // Cut off group 0's replica on node 2 only; node 2's group-1
        // actor, the other replicas and the scripted client stay
        // connected (partition groups are per *actor*).
        let victim = cluster.replica(0, NodeId(2));
        let mut partition = vec![0u32; cluster.sim.len()];
        partition[victim.0] = 1;
        cluster
            .sim
            .partition_at(partition, cluster.sim.now() + SimDuration::from_millis(1));
        // Commit far past the compaction threshold in BOTH groups.
        for i in 0..40 {
            for key in [g0_lo + i, g1_lo + i] {
                cluster
                    .submit_and_wait(Op::Put {
                        key,
                        value: vec![0; 8].into(),
                    })
                    .expect("puts commit under the single-actor partition");
            }
        }
        cluster
            .sim
            .heal_at(cluster.sim.now() + SimDuration::from_millis(1));
        cluster.sim.run_for(SimDuration::from_secs(20));
        let stats = cluster.per_group_stats();
        assert!(
            stats[0].snapshots.compactions >= 1,
            "group 0 compacted ({:?})",
            stats[0].snapshots
        );
        assert!(
            stats[0].snapshots.snapshots_installed >= 1,
            "lagging group-0 replica caught up via snapshot ({:?})",
            stats[0].snapshots
        );
        assert_eq!(
            stats[1].snapshots.snapshots_installed, 0,
            "group 1 never needed (or saw) a transfer ({:?})",
            stats[1].snapshots
        );
        let lagger = replica(&cluster.sim, cluster.protocol(), victim);
        assert!(
            lagger.applied_index().0 + 16 >= 40,
            "rejoined replica converged ({})",
            lagger.applied_index()
        );
    }

    /// The group id stamped on engine-level traffic is a hard isolation
    /// guard: each of the five group-stamped messages, carrying another
    /// group's id, is dropped and counted before it can enter the pending
    /// batch, the log or either chunk assembler. Each would leave a mark
    /// if it got through: the `Forward` a proposed batch, the chunks a
    /// half-assembled transfer (offset 0 of a longer one).
    #[test]
    fn cross_group_engine_messages_are_dropped() {
        use crate::msg::EngineMsg;
        use crate::types::{Slot, Term};
        let mut cluster = Cluster::builder(ProtocolKind::Raft)
            .shard_config(ShardConfig::groups(2))
            .seed(9)
            .build_sharded();
        cluster.elect_leaders();
        // Let the new leader's first entry apply before anything is read.
        cluster.sim.run_for(SimDuration::from_millis(200));
        let target = cluster.replica(0, cluster.leaders()[0]);
        let foreign: [(&str, EngineMsg); 5] = [
            (
                "Forward",
                EngineMsg::Forward {
                    group: 1,
                    header_bytes: 12,
                    cmds: vec![Command::put(CmdId { client: 0, seq: 1 }, 1, vec![0; 8])],
                },
            ),
            (
                "SnapshotChunk",
                EngineMsg::SnapshotChunk {
                    group: 1,
                    seal: Term(1_000),
                    last_slot: Slot(1_000),
                    last_term: Term(1_000),
                    offset: 0,
                    total: 64,
                    header_bytes: 52,
                    data: vec![0; 8],
                },
            ),
            (
                "SnapshotAck",
                EngineMsg::SnapshotAck {
                    group: 1,
                    seal: Term(1_000),
                    upto: Slot(1_000),
                    header_bytes: 20,
                },
            ),
            (
                "RangeChunk",
                EngineMsg::RangeChunk {
                    group: 1,
                    version: 7,
                    offset: 0,
                    total: 64,
                    header_bytes: 60,
                    data: vec![0; 8],
                },
            ),
            (
                "RangeAck",
                EngineMsg::RangeAck {
                    group: 1,
                    version: 7,
                    header_bytes: 20,
                },
            ),
        ];
        let seen = |cluster: &ShardedCluster| {
            let core = &cluster.sim.actor::<crate::raft::RaftReplica>(target).core;
            (
                core.cross_group_dropped,
                (core.pending.len(), core.batch_flushes),
                replica(&cluster.sim, cluster.protocol, target).applied_index(),
                format!("{:?}", core.snap_asm),
                format!("{:?}", core.range_asm),
            )
        };
        for (name, msg) in foreign {
            let before = seen(&cluster);
            cluster
                .sim
                .send_external(target, Msg::Engine(msg), SimDuration::ZERO);
            cluster.sim.run_for(SimDuration::from_millis(50));
            let after = seen(&cluster);
            assert_eq!(after.0, before.0 + 1, "{name}: dropped and counted once");
            assert_eq!(
                (&after.1, &after.2, &after.3, &after.4),
                (&before.1, &before.2, &before.3, &before.4),
                "{name}: pending, proposals, applied index and assemblers untouched"
            );
        }
    }

    /// Closed-loop end to end: a sustained hotspot inside group 0's
    /// range makes the policy migrate the hot buckets to group 1, one
    /// move at a time, and the post-move ownership actually changed.
    #[test]
    fn autobalance_policy_moves_a_sustained_hotspot_off_the_loaded_group() {
        use crate::telemetry::TelemetryConfig;
        use paxraft_workload::scenario::{Drift, Hotspot};
        let mut cluster = Cluster::builder(ProtocolKind::Raft)
            .shard_config(ShardConfig::groups(2))
            .clients_per_region(2)
            .workload(WorkloadConfig {
                read_fraction: 0.5,
                hotspot: Some(Hotspot {
                    weight: 0.9,
                    center: 12_500,
                    width: 12_000,
                    drift: Drift::Fixed,
                }),
                ..Default::default()
            })
            .telemetry_config(TelemetryConfig::sampled())
            .autobalance(true)
            .seed(23)
            .build_sharded();
        cluster.elect_leaders();
        cluster.run_measurement(
            SimDuration::from_secs(2),
            SimDuration::from_secs(10),
            SimDuration::from_secs(2),
        );
        let decisions = cluster.policy_decisions();
        assert!(
            decisions.len() >= 2,
            "policy split the hot range into several moves ({decisions:?})"
        );
        for (_, d) in &decisions {
            assert_eq!(d.from_group, 0, "the loaded group donates ({d:?})");
            assert_eq!(d.to_group, 1, "the idle group receives ({d:?})");
            assert!(
                d.lo >= 6_500 - 3_125 && d.hi <= 18_500 + 3_125,
                "moves target the hotspot window ({d:?})"
            );
        }
        let current = cluster.current_router();
        assert!(
            current.version() > 0 && current.group_of(decisions[0].1.lo) == 1,
            "the published map reflects the moves"
        );
        // The cluster still serves the moved range after rebalancing.
        let r = cluster
            .submit_and_wait(Op::Get {
                key: decisions[0].1.lo,
            })
            .expect("read from the migrated range");
        assert!(matches!(r, Reply::Value(_)));
    }

    /// Anti-livelock regression: an adversarial hotspot oscillating
    /// between the two groups faster than the control loop converges
    /// must produce a *bounded* migration count (cooldown spaces out
    /// moves, dwell bans just-moved buckets) — and the decision log must
    /// be a pure function of the seed.
    #[test]
    fn oscillating_hotspot_yields_bounded_and_deterministic_migrations() {
        use crate::shard::autobalance::COOLDOWN;
        use crate::telemetry::TelemetryConfig;
        use paxraft_workload::scenario::Hotspot;
        let run = || {
            let mut cluster = Cluster::builder(ProtocolKind::Raft)
                .shard_config(ShardConfig::groups(2))
                .clients_per_region(2)
                .workload(WorkloadConfig {
                    read_fraction: 0.5,
                    hotspot: Some(Hotspot::oscillating(
                        0.8,
                        12_500,
                        62_500,
                        12_000,
                        SimDuration::from_secs(3),
                    )),
                    ..Default::default()
                })
                .telemetry_config(TelemetryConfig::sampled())
                .autobalance(true)
                .seed(29)
                .build_sharded();
            cluster.elect_leaders();
            cluster.run_measurement(
                SimDuration::from_secs(2),
                SimDuration::from_secs(12),
                SimDuration::from_secs(1),
            );
            (cluster.migrations_started(), cluster.policy_decisions())
        };
        let (started, decisions) = run();
        // Cooldown admits one move per 2 s of the 15 s run: the count is
        // bounded no matter how fast the hotspot jumps.
        let bound = 15 / COOLDOWN.as_secs_f64() as usize + 1;
        assert!(
            started <= bound,
            "migration count bounded under oscillation ({started} <= {bound})"
        );
        assert!(
            !decisions.is_empty(),
            "the policy did chase the hotspot (it must act, just boundedly)"
        );
        let (started2, decisions2) = run();
        assert_eq!(started, started2, "fixed seed: identical migration count");
        assert_eq!(decisions, decisions2, "fixed seed: identical decision log");
    }

    /// Auto-balancing off creates no controller: no coordinator actor, no
    /// policy, and the run is bit-for-bit the plain sharded cluster.
    #[test]
    fn autobalance_off_is_bit_for_bit_the_plain_sharded_cluster() {
        use crate::telemetry::TelemetryConfig;
        let run = |autobalance: Option<bool>| {
            let mut b = Cluster::builder(ProtocolKind::Raft)
                .shard_config(ShardConfig::groups(2))
                .clients_per_region(2)
                .workload(parity_workload())
                .telemetry_config(TelemetryConfig::sampled())
                .seed(17);
            if let Some(on) = autobalance {
                b = b.autobalance(on);
            }
            let mut cluster = b.build_sharded();
            cluster.elect_leaders();
            let r = cluster.run_measurement(
                SimDuration::from_secs(2),
                SimDuration::from_secs(4),
                SimDuration::from_secs(1),
            );
            assert!(cluster.coordinator().is_none(), "no controller actor");
            assert!(cluster.policy().is_none(), "no policy state");
            report_fingerprint(&r, cluster.sim.now())
        };
        assert_eq!(
            run(None),
            run(Some(false)),
            "disabled auto-balance changes nothing"
        );
    }
}
