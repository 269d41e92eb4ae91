//! The rebalance coordinator: drives range migrations through the
//! groups' logs and publishes the bumped partition map.
//!
//! The coordinator is deliberately an ordinary **client** of both
//! groups: every step it takes is a replicated command ([`Op::FreezeRange`]
//! at the source, the destination's `InstallRange` response, and
//! [`Op::ReleaseRange`] back at the source), so a crashed leader in
//! either group is survived by plain client-style retransmission to
//! another replica. Exactly-once apply of its commands comes from the
//! state machine's per-version idempotency guards (see
//! [`crate::shard::migration`]), not from session dedup: a retried
//! freeze commits again because its apply forces a fresh export, and a
//! late duplicate of a finished version must stay a no-op.
//!
//! Migrations run **one at a time**, the schedule the model-checked
//! spec (`specs::shardkv` in `paxraft-spec`) explores: the coordinator
//! holds at most one `Flight` and starts the first due plan entry only
//! when idle. Every started move is therefore published before the next
//! one starts, so versions are assigned and published in order by
//! construction and the published map names every range's source group.
//!
//! The coordinator runs on two keyed timers and polls nothing. The
//! retry deadline re-sends the flight's command `retry_after` its last
//! send (or the freeze's commit) to the source group's next replica; it
//! is cancelled when the flight releases. While idle, a wake is armed
//! for the earliest plan entry not yet due, and a plan entry added at
//! runtime ([`RebalanceCoordinator::enqueue`]) arms it for now.
//!
//! The only non-client machinery is in the replicas themselves — the
//! source leader's export pump and the destination's chunk absorption
//! (see [`crate::shard::migration`] and the engine hooks).

use paxraft_sim::impl_actor_any;
use paxraft_sim::sim::{Actor, ActorId, Ctx, Simulation};
use paxraft_sim::time::SimDuration;

use crate::kv::{CmdId, Command, Key, Op, Reply};
use crate::msg::{ClientMsg, Msg};
use crate::shard::migration::{
    freeze_cmd_id, install_cmd_id, release_cmd_id, version_of_cmd, FrozenRange, MigrationSpec,
    RouterVersion,
};
use crate::shard::ShardRouter;

/// Scripted rebalancing for a sharded cluster
/// ([`crate::harness::ClusterBuilder::rebalance_config`]). Empty by
/// default: no coordinator actor is created and the cluster is
/// bit-for-bit the non-rebalancing cluster.
#[derive(Debug, Clone, Default)]
pub struct RebalanceConfig {
    /// Migrations to run, one at a time: each starts once it is due and
    /// every earlier-started migration has released, and due entries
    /// start in plan order.
    pub migrations: Vec<MigrationSpec>,
}

impl RebalanceConfig {
    /// Whether any migration is scripted.
    pub fn enabled(&self) -> bool {
        !self.migrations.is_empty()
    }

    /// This configuration plus one scripted migration.
    pub fn migrate(mut self, spec: MigrationSpec) -> Self {
        self.migrations.push(spec);
        self
    }
}

/// Which step a migration flight is waiting on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// `FreezeRange` sent to the source group, awaiting its response.
    Freeze,
    /// Freeze committed; awaiting the destination's `InstallRange`
    /// response (the transfer itself is replica-driven).
    Install,
    /// `ReleaseRange` sent to the source group, awaiting its response.
    Release,
}

impl Phase {
    /// How long the phase waits for its answer before re-sending to the
    /// source group's next replica (the previous one may have crashed;
    /// forwarding finds the leader from any of them). The install wait
    /// waits longer: the transfer legitimately takes a while.
    fn retry_after(self) -> SimDuration {
        match self {
            Phase::Install => SimDuration::from_millis(2_500),
            Phase::Freeze | Phase::Release => SimDuration::from_secs(1),
        }
    }
}

/// Timer key and token of the retry deadline.
const T_RETRY: u64 = 1;
/// Timer key and token of the idle coordinator's wake for the plan.
const T_WAKE: u64 = 2;

/// The in-flight migration's state machine and the source-group
/// command it is retrying.
#[derive(Debug)]
struct Flight {
    version: RouterVersion,
    lo: Key,
    hi: Key,
    from_group: u32,
    to_group: u32,
    phase: Phase,
    /// Rotation index into the source group's replicas (a crashed or
    /// partitioned replica is routed around on retry).
    rotation: usize,
}

impl Flight {
    /// The command the current phase sends to the source group. The
    /// install wait keeps the freeze as its retried probe: re-freezing
    /// is a version-dedup no-op that forces a fresh export, which makes
    /// the destination re-announce a lost install response.
    fn command(&self, coord: u32) -> Command {
        match self.phase {
            Phase::Freeze | Phase::Install => Command {
                id: freeze_cmd_id(coord, self.version),
                op: Op::FreezeRange(Box::new(FrozenRange {
                    lo: self.lo,
                    hi: self.hi,
                    to_group: self.to_group,
                    version: self.version,
                    coord,
                    released: false,
                })),
            },
            Phase::Release => Command {
                id: release_cmd_id(coord, self.version),
                op: Op::ReleaseRange {
                    version: self.version,
                },
            },
        }
    }

    /// Sends the current phase's command to the source group's replica
    /// the rotation names (`replicas` are the group's, in node order),
    /// and restarts the retry deadline.
    fn send(&self, ctx: &mut Ctx<Msg>, coord: u32, replicas: &[ActorId]) {
        let target = replicas[self.rotation % replicas.len()];
        let cmd = self.command(coord);
        ctx.send(target, Msg::Client(ClientMsg::Request { cmd }));
        ctx.rearm_timer(T_RETRY, self.phase.retry_after(), T_RETRY);
    }
}

/// The coordinator actor. One per sharded cluster with a non-empty
/// [`RebalanceConfig`] or the auto-balance policy on; lives at a client
/// actor id so replica responses route to it like to any client.
pub struct RebalanceCoordinator {
    client_id: u32,
    /// Published ownership: each move is applied when its install
    /// commits; this is what `RouterUpdate` ships to clients.
    router: ShardRouter,
    /// Migrations not yet started, in plan order.
    plan: Vec<MigrationSpec>,
    /// `targets[g]` are group `g`'s replica actors (node order).
    targets: Vec<Vec<ActorId>>,
    /// Workload clients to publish router updates to.
    clients: Vec<ActorId>,
    flight: Option<Flight>,
    /// Versions of completed (released) migrations, in completion order.
    pub completed: Vec<RouterVersion>,
}

impl RebalanceCoordinator {
    /// A coordinator for the given plan over a built cluster's actors.
    pub fn new(
        client_id: u32,
        router: ShardRouter,
        plan: Vec<MigrationSpec>,
        targets: Vec<Vec<ActorId>>,
        clients: Vec<ActorId>,
    ) -> Self {
        RebalanceCoordinator {
            client_id,
            router,
            plan,
            targets,
            clients,
            flight: None,
            completed: Vec::new(),
        }
    }

    /// The coordinator's current **published** partition map.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Whether every planned migration has completed: nothing is in
    /// flight or waiting to start.
    pub fn done(&self) -> bool {
        self.flight.is_none() && self.plan.is_empty()
    }

    /// Number of migrations started so far (the auto-balance livelock
    /// bound counts these, not completions).
    pub fn migrations_started(&self) -> usize {
        self.completed.len() + usize::from(self.flight.is_some())
    }

    /// Appends a migration decided at runtime (the auto-balance policy)
    /// to the plan of the coordinator `coord` and wakes it: the
    /// migration starts now if nothing is in flight, else when the
    /// flight releases.
    pub fn enqueue(sim: &mut Simulation<Msg>, coord: ActorId, spec: MigrationSpec) {
        sim.actor_mut::<RebalanceCoordinator>(coord).plan.push(spec);
        sim.rearm_timer(coord, T_WAKE, SimDuration::ZERO, T_WAKE);
    }

    /// When idle, starts the first due plan entry, or wakes when the
    /// earliest one is due. Every earlier move is published by then, so
    /// the published map names the source group and the next version.
    fn start_due(&mut self, ctx: &mut Ctx<Msg>) {
        if self.flight.is_some() {
            return;
        }
        let now = SimDuration::from_nanos(ctx.now().as_nanos());
        let Some(idx) = self.plan.iter().position(|spec| spec.at <= now) else {
            if let Some(at) = self.plan.iter().map(|spec| spec.at).min() {
                ctx.rearm_timer(T_WAKE, at - now, T_WAKE);
            }
            return;
        };
        let spec = self.plan.remove(idx);
        let from_group = self.router.group_of(spec.lo);
        debug_assert_eq!(
            from_group,
            self.router.group_of(spec.hi - 1),
            "a migration's range must have a single owner"
        );
        assert_ne!(from_group, spec.to_group, "range already at destination");
        let f = Flight {
            version: self.router.version() + 1,
            lo: spec.lo,
            hi: spec.hi,
            from_group,
            to_group: spec.to_group,
            phase: Phase::Freeze,
            rotation: 0,
        };
        f.send(ctx, self.client_id, &self.targets[from_group as usize]);
        self.flight = Some(f);
    }

    fn on_response(&mut self, ctx: &mut Ctx<Msg>, id: CmdId, reply: Reply) {
        if id.client != self.client_id {
            return;
        }
        debug_assert!(
            !matches!(reply, Reply::WrongGroup { .. }),
            "migration commands are keyless and never misrouted"
        );
        let Some(f) = self
            .flight
            .as_mut()
            .filter(|f| f.version == version_of_cmd(id))
        else {
            return; // late duplicate of a finished migration
        };
        match f.phase {
            Phase::Freeze if id == freeze_cmd_id(self.client_id, f.version) => {
                // The cutover is committed; the source leader's export
                // pump takes it from here.
                f.phase = Phase::Install;
                ctx.rearm_timer(T_RETRY, Phase::Install.retry_after(), T_RETRY);
            }
            Phase::Install if id == install_cmd_id(self.client_id, f.version) => {
                // The destination group committed the range: publish
                // the bumped map, then release the source's copy.
                self.router.apply_move(f.lo, f.hi, f.to_group, f.version);
                for &c in &self.clients {
                    ctx.send(
                        c,
                        Msg::Client(ClientMsg::RouterUpdate {
                            router: self.router.clone(),
                        }),
                    );
                }
                f.phase = Phase::Release;
                f.rotation = 0;
                f.send(ctx, self.client_id, &self.targets[f.from_group as usize]);
            }
            Phase::Release if id == release_cmd_id(self.client_id, f.version) => {
                self.completed.push(f.version);
                self.flight = None;
                ctx.cancel_timer(T_RETRY);
                self.start_due(ctx);
            }
            _ => {}
        }
    }
}

impl Actor<Msg> for RebalanceCoordinator {
    fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
        self.start_due(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<Msg>, _from: ActorId, msg: Msg) {
        if let Msg::Client(ClientMsg::Response { id, reply }) = msg {
            self.on_response(ctx, id, reply);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<Msg>, token: u64) {
        if token == T_WAKE {
            self.start_due(ctx);
        } else if let Some(f) = self.flight.as_mut() {
            // Client-style retransmission to the next replica.
            f.rotation += 1;
            f.send(ctx, self.client_id, &self.targets[f.from_group as usize]);
        }
    }

    impl_actor_any!();
}

#[cfg(test)]
mod tests {
    use paxraft_sim::time::SimDuration;
    use paxraft_workload::generator::WorkloadConfig;
    use paxraft_workload::linearize::check_history;

    use crate::harness::{replica, Cluster, ProtocolKind};
    use crate::kv::{Key, Op, Reply};
    use crate::msg::{ClientMsg, Msg};
    use crate::shard::{MigrationSpec, RebalanceConfig, ShardConfig, ShardedCluster};
    use crate::types::NodeId;

    /// The six protocols the migration safety suite must cover — the
    /// two lease modes exercise the freeze-vs-local-read window (a
    /// lease holder must not serve a range that is already migrating).
    const PROTOCOLS: [ProtocolKind; 6] = [
        ProtocolKind::Raft,
        ProtocolKind::RaftStar,
        ProtocolKind::MultiPaxos,
        ProtocolKind::RaftStarMencius,
        ProtocolKind::RaftStarPql,
        ProtocolKind::LeaderLease,
    ];

    /// Two groups, one scripted migration of the upper half of group
    /// 0's range to group 1 at `at`. The tiny chunk size forces the
    /// export through a genuinely multi-chunk transfer.
    fn build(p: ProtocolKind, seed: u64, at: SimDuration) -> (ShardedCluster, Key) {
        let router = crate::shard::ShardRouter::new(WorkloadConfig::default().records, 2);
        let (lo0, hi0) = router.range(0);
        let mid = (lo0 + hi0) / 2;
        let cluster = Cluster::builder(p)
            .shard_config(ShardConfig::groups(2))
            .snapshot_config(crate::snapshot::SnapshotConfig {
                chunk_bytes: 128,
                ..crate::snapshot::SnapshotConfig::default()
            })
            .rebalance_config(RebalanceConfig::default().migrate(MigrationSpec {
                at,
                lo: mid,
                hi: hi0,
                to_group: 1,
            }))
            .seed(seed)
            .build_sharded();
        (cluster, mid)
    }

    /// Writes one marker key on each side of the future split boundary
    /// and returns them.
    fn seed_keys(cluster: &mut ShardedCluster, mid: Key) -> (Key, Key) {
        let staying = mid - 1;
        let moving = mid + 1;
        for key in [staying, moving] {
            let r = cluster
                .submit_and_wait(Op::Put {
                    key,
                    value: vec![7; 16].into(),
                })
                .expect("pre-migration put");
            assert_eq!(r, Reply::Done);
        }
        (staying, moving)
    }

    /// The post-migration invariant: the moved key is served (with its
    /// value) by the new owner, writes to it commit, and **no group's
    /// replicas hold a key the map says belongs elsewhere** — nothing
    /// lost, nothing duplicated, nothing applied in two groups.
    fn assert_migrated(cluster: &mut ShardedCluster, p: ProtocolKind, staying: Key, moving: Key) {
        let name = p.name();
        let router = cluster.current_router();
        assert_eq!(router.version(), 1, "{name}: map version bumped");
        assert_eq!(router.group_of(moving), 1, "{name}: moved key rerouted");
        assert_eq!(router.group_of(staying), 0, "{name}: boundary untouched");
        // Values survived the move and both sides still serve.
        for key in [staying, moving] {
            let r = cluster
                .submit_and_wait(Op::Get { key })
                .unwrap_or_else(|e| panic!("{name}: post-migration get({key}): {e}"));
            assert!(
                matches!(r, Reply::Value(Some(_))),
                "{name}: key {key} kept its value across the migration ({r:?})"
            );
        }
        let r = cluster
            .submit_and_wait(Op::Put {
                key: moving,
                value: vec![9; 16].into(),
            })
            .expect("post-migration put to the moved range");
        assert_eq!(r, Reply::Done, "{name}: moved range accepts writes");
        // Let the final apply spread to every replica.
        cluster.sim.run_for(SimDuration::from_secs(2));
        // Exclusivity: live group-0 replicas dropped the moved range,
        // live group-1 replicas hold it.
        for node in 0..5u32 {
            for g in 0..2usize {
                let actor = cluster.replica(g, NodeId(node));
                if cluster.sim.is_crashed(actor) {
                    continue;
                }
                let kv = replica(&cluster.sim, p, actor).kv();
                let snap = kv.snapshot();
                for (k, _) in snap.records.iter() {
                    let owner = router.group_of(*k);
                    assert_eq!(
                        owner, g as u32,
                        "{name}: key {k} present in group {g} but owned by {owner} \
                         (applied in two groups or not released)"
                    );
                }
                if g == 1 {
                    assert!(
                        kv.read_local(moving) != Reply::Value(None),
                        "{name}: group 1 node {node} holds the moved key"
                    );
                }
            }
        }
    }

    #[test]
    fn scripted_range_move_is_exactly_once_for_every_protocol() {
        for p in PROTOCOLS {
            let (mut cluster, mid) = build(p, 13, SimDuration::from_secs(4));
            cluster.elect_leaders();
            let (staying, moving) = seed_keys(&mut cluster, mid);
            cluster.run_until_rebalanced(SimDuration::from_secs(60));
            assert_eq!(cluster.migrations_completed(), vec![1]);
            assert_migrated(&mut cluster, p, staying, moving);
            // The transfer actually went over the chunked path.
            let stats = cluster.per_group_stats();
            assert!(
                stats[0].range_exports >= 1,
                "{}: source exported ({:?})",
                p.name(),
                stats[0].range_exports
            );
            assert!(
                stats[1].range_installs >= 1,
                "{}: destination installed on every live replica",
                p.name()
            );
        }
    }

    /// The model checker's retry-across-the-move schedule
    /// (`specs::shardkv` in `paxraft-spec`: apply at the source, freeze,
    /// export, install, then the client retries the same session
    /// sequence number against the new owner), replayed against the
    /// engine. The retransmitted command carries its original `CmdId`,
    /// so the migrated session table must answer it from cache — the
    /// destination replicas' applied-op counts must not move.
    #[test]
    fn model_checked_retry_across_the_move_is_deduplicated() {
        for p in PROTOCOLS {
            let name = p.name();
            let (mut cluster, mid) = build(p, 29, SimDuration::from_secs(4));
            cluster.elect_leaders();
            let (staying, moving) = seed_keys(&mut cluster, mid);
            // The moving-key put is the last pre-migration submission;
            // keep it for retransmission after the move.
            let dup = cluster
                .last_submitted_command()
                .expect("seed_keys submitted commands");
            cluster.run_until_rebalanced(SimDuration::from_secs(60));
            assert_eq!(cluster.migrations_completed(), vec![1], "{name}");
            // Let every group-1 replica finish installing the range.
            cluster.sim.run_for(SimDuration::from_secs(2));
            let applied_on_dest = |cluster: &ShardedCluster| -> Vec<(u32, u64)> {
                (0..5u32)
                    .filter_map(|node| {
                        let actor = cluster.replica(1, NodeId(node));
                        if cluster.sim.is_crashed(actor) {
                            None
                        } else {
                            Some((node, replica(&cluster.sim, p, actor).kv().applied_ops()))
                        }
                    })
                    .collect()
            };
            let before = applied_on_dest(&cluster);
            // Re-inject the identical command at the new owner's
            // leader: a client retransmission that crossed the move.
            let target = cluster.replica(1, cluster.leaders()[1]);
            cluster.sim.send_external(
                target,
                Msg::Client(ClientMsg::Request { cmd: dup }),
                SimDuration::ZERO,
            );
            cluster.sim.run_for(SimDuration::from_secs(2));
            let after = applied_on_dest(&cluster);
            assert_eq!(
                before, after,
                "{name}: retransmitted command was re-applied after the move \
                 (session table did not migrate with the range)"
            );
            assert_migrated(&mut cluster, p, staying, moving);
        }
    }

    #[test]
    fn source_leader_crash_mid_export_does_not_lose_the_range() {
        for p in PROTOCOLS {
            let (mut cluster, mid) = build(p, 17, SimDuration::from_secs(4));
            cluster.elect_leaders();
            let (staying, moving) = seed_keys(&mut cluster, mid);
            // Crash the source group's leader right around the freeze
            // commit / first export; a successor must pick the transfer
            // up from the replicated frozen state.
            let victim = cluster.replica(0, cluster.leaders()[0]);
            cluster
                .sim
                .crash_at(victim, paxraft_sim::time::SimTime::from_millis(4_150));
            cluster.run_until_rebalanced(SimDuration::from_secs(120));
            assert_migrated(&mut cluster, p, staying, moving);
        }
    }

    #[test]
    fn dest_leader_crash_before_install_recovers() {
        for p in PROTOCOLS {
            let (mut cluster, mid) = build(p, 19, SimDuration::from_secs(4));
            cluster.elect_leaders();
            let (staying, moving) = seed_keys(&mut cluster, mid);
            // Crash the destination group's leader before the install
            // can commit; the export retries into the re-elected group.
            let victim = cluster.replica(1, cluster.leaders()[1]);
            cluster
                .sim
                .crash_at(victim, paxraft_sim::time::SimTime::from_millis(4_000));
            cluster.run_until_rebalanced(SimDuration::from_secs(120));
            assert_migrated(&mut cluster, p, staying, moving);
        }
    }

    #[test]
    fn chunk_loss_during_transfer_is_retried_to_completion() {
        for p in PROTOCOLS {
            let (mut cluster, mid) = build(p, 23, SimDuration::from_secs(4));
            cluster.elect_leaders();
            let (staying, moving) = seed_keys(&mut cluster, mid);
            // 15% uniform loss across the whole migration window: the
            // reassembler drops gapped transfers and the export pump's
            // retry interval re-ships until the install is confirmed.
            cluster
                .sim
                .set_drop_rate_at(0.15, paxraft_sim::time::SimTime::from_millis(3_900));
            cluster.sim.run_for(SimDuration::from_secs(8));
            cluster
                .sim
                .set_drop_rate_at(0.0, cluster.sim.now() + SimDuration::from_millis(1));
            cluster.run_until_rebalanced(SimDuration::from_secs(180));
            assert_migrated(&mut cluster, p, staying, moving);
        }
    }

    /// A client fleet hammering the hot key while it migrates between
    /// groups: every operation completes, the per-key history stays
    /// linearizable across the hand-off, and the key ends up applied in
    /// exactly one group.
    #[test]
    fn clients_racing_a_version_bump_stay_linearizable() {
        for p in [ProtocolKind::Raft, ProtocolKind::MultiPaxos] {
            let workload = WorkloadConfig {
                read_fraction: 0.6,
                conflict_rate: 0.5,
                ..Default::default()
            };
            let mut cluster = Cluster::builder(p)
                .shard_config(ShardConfig::groups(2))
                .rebalance_config(RebalanceConfig::default().migrate(MigrationSpec {
                    // The hot-range move: key 0 changes groups mid-run.
                    at: SimDuration::from_secs(5),
                    lo: 0,
                    hi: 1,
                    to_group: 1,
                }))
                .clients_per_region(2)
                .workload(workload)
                .record_history_for(0)
                .seed(29)
                .build_sharded();
            cluster.elect_leaders();
            let report = cluster.run_measurement(
                SimDuration::from_secs(2),
                SimDuration::from_secs(6),
                SimDuration::from_secs(1),
            );
            cluster.run_until_rebalanced(SimDuration::from_secs(60));
            assert!(
                report.throughput_ops > 1.0,
                "{}: clients kept completing through the migration",
                p.name()
            );
            assert!(
                report.histories.len() > 20,
                "{}: enough contended hot-key ops recorded ({})",
                p.name(),
                report.histories.len()
            );
            check_history(&report.histories, 1 << 22).unwrap_or_else(|e| {
                panic!(
                    "{}: hot-key history linearizable across the migration: {e:?}",
                    p.name()
                )
            });
            // The hot key lives in exactly one group afterwards.
            cluster.sim.run_for(SimDuration::from_secs(2));
            for node in 0..5u32 {
                let g0 = replica(&cluster.sim, p, cluster.replica(0, NodeId(node))).kv();
                let g1 = replica(&cluster.sim, p, cluster.replica(1, NodeId(node))).kv();
                assert!(
                    g0.read_local(0) == Reply::Value(None),
                    "{}: group 0 node {node} released the hot key",
                    p.name()
                );
                assert!(
                    g1.read_local(0) != Reply::Value(None),
                    "{}: group 1 node {node} serves the hot key",
                    p.name()
                );
            }
            // Some client observed a redirect or router update — the
            // race actually happened.
            let mut redirects = 0;
            let mut updates = 0;
            for &c in cluster.clients() {
                let wc = cluster.sim.actor::<crate::client::WorkloadClient>(c);
                redirects += wc.redirects + wc.stale_redirects;
                updates += wc.router_updates;
            }
            assert!(
                updates > 0,
                "{}: coordinator published the bumped map to clients",
                p.name()
            );
            assert!(redirects > 0, "{}: some client was redirected", p.name());
        }
    }

    /// The lease-read-vs-migration window: a lease holder must not
    /// serve a key from its local copy while an in-log `FreezeRange`
    /// covering it is unapplied — from the freeze on, writes to the
    /// range commit in the destination group without consulting this
    /// replica's lease, so the local copy goes stale the moment the
    /// freeze is proposed. Hammers the hot key through the hand-off
    /// under both ported lease modes and checks the full per-key
    /// history for linearizability.
    #[test]
    fn lease_local_reads_stay_linearizable_across_a_migration() {
        for p in [ProtocolKind::RaftStarPql, ProtocolKind::LeaderLease] {
            let workload = WorkloadConfig {
                read_fraction: 0.6,
                conflict_rate: 0.5,
                ..Default::default()
            };
            let mut cluster = Cluster::builder(p)
                .shard_config(ShardConfig::groups(2))
                .rebalance_config(RebalanceConfig::default().migrate(MigrationSpec {
                    at: SimDuration::from_secs(5),
                    lo: 0,
                    hi: 1,
                    to_group: 1,
                }))
                .clients_per_region(2)
                .workload(workload)
                .record_history_for(0)
                .seed(29)
                .build_sharded();
            cluster.elect_leaders();
            let report = cluster.run_measurement(
                SimDuration::from_secs(2),
                SimDuration::from_secs(6),
                SimDuration::from_secs(1),
            );
            cluster.run_until_rebalanced(SimDuration::from_secs(60));
            assert!(
                report.histories.len() > 20,
                "{}: enough contended hot-key ops recorded ({})",
                p.name(),
                report.histories.len()
            );
            check_history(&report.histories, 1 << 22).unwrap_or_else(|e| {
                panic!(
                    "{}: lease-local reads linearizable across the migration: {e:?}",
                    p.name()
                )
            });
            // The lease read path was actually exercised: some replica
            // served reads locally during the run.
            let local_reads: u64 = (0..2)
                .flat_map(|g| cluster.group_replicas(g).to_vec())
                .map(|r| {
                    cluster
                        .sim
                        .actor::<crate::raftstar::RaftStarReplica>(r)
                        .local_reads_served()
                })
                .sum();
            assert!(
                local_reads > 0,
                "{}: lease-local reads were served during the run",
                p.name()
            );
        }
    }

    /// A scripted migration is checked when the cluster is built, not
    /// when it falls due: its destination group must exist.
    #[test]
    #[should_panic(expected = "to_group: 2")]
    fn a_migration_to_a_missing_group_is_refused_at_build() {
        Cluster::builder(ProtocolKind::Raft)
            .shard_config(ShardConfig::groups(2))
            .rebalance_config(RebalanceConfig::default().migrate(MigrationSpec {
                at: SimDuration::from_secs(4),
                lo: 0,
                hi: 10,
                to_group: 2,
            }))
            .build_sharded();
    }

    /// ...and its range must not be empty.
    #[test]
    #[should_panic(expected = "lo: 10, hi: 10")]
    fn an_empty_migration_is_refused_at_build() {
        Cluster::builder(ProtocolKind::Raft)
            .shard_config(ShardConfig::groups(2))
            .rebalance_config(RebalanceConfig::default().migrate(MigrationSpec {
                at: SimDuration::from_secs(4),
                lo: 10,
                hi: 10,
                to_group: 1,
            }))
            .build_sharded();
    }

    /// Two disjoint moves from different source groups into one
    /// destination, both due at once, race a crash of the first
    /// source's leader on all four base rule sets. The coordinator runs
    /// them **one at a time** — at no 10 ms step has a migration
    /// started before the previous one released — and both commit
    /// exactly once: versions 1 and 2 in order, every value survives,
    /// and no live replica holds a key the final map gives to another
    /// group.
    #[test]
    fn migrations_due_together_run_one_at_a_time_through_a_source_leader_crash() {
        for p in [
            ProtocolKind::Raft,
            ProtocolKind::RaftStar,
            ProtocolKind::MultiPaxos,
            ProtocolKind::RaftStarMencius,
        ] {
            let name = p.name();
            let router = crate::shard::ShardRouter::new(WorkloadConfig::default().records, 3);
            let upper_half = |g: usize| {
                let (lo, hi) = router.range(g);
                ((lo + hi) / 2, hi)
            };
            let (mid0, hi0) = upper_half(0);
            let (mid1, hi1) = upper_half(1);
            let at = SimDuration::from_secs(4);
            let mut cluster = Cluster::builder(p)
                .shard_config(ShardConfig::groups(3))
                .snapshot_config(crate::snapshot::SnapshotConfig {
                    chunk_bytes: 128,
                    ..crate::snapshot::SnapshotConfig::default()
                })
                .rebalance_config(
                    RebalanceConfig::default()
                        .migrate(MigrationSpec {
                            at,
                            lo: mid0,
                            hi: hi0,
                            to_group: 2,
                        })
                        .migrate(MigrationSpec {
                            at,
                            lo: mid1,
                            hi: hi1,
                            to_group: 2,
                        }),
                )
                .seed(37)
                .build_sharded();
            cluster.elect_leaders();
            // One marker key in each moving range and one beside it
            // that stays.
            let keys = [mid0 - 1, mid0 + 1, mid1 - 1, mid1 + 1];
            for key in keys {
                let r = cluster
                    .submit_and_wait(Op::Put {
                        key,
                        value: vec![7; 16].into(),
                    })
                    .expect("pre-migration put");
                assert_eq!(r, Reply::Done, "{name}");
            }
            // Crash group 0's leader while the first move is in flight.
            let victim = cluster.replica(0, cluster.leaders()[0]);
            let crash = paxraft_sim::time::SimTime::from_millis(4_150);
            cluster.sim.crash_at(victim, crash);
            let deadline = cluster.sim.now() + SimDuration::from_secs(120);
            while cluster.migrations_completed().len() < 2 {
                let before = cluster.sim.now();
                assert!(before < deadline, "{name}: migrations stuck");
                cluster.sim.run_for(SimDuration::from_millis(10));
                let (started, completed) = (
                    cluster.migrations_started(),
                    cluster.migrations_completed().len(),
                );
                assert!(
                    started <= completed + 1,
                    "{name}: {started} started, {completed} completed at {}",
                    cluster.sim.now()
                );
                if (before..=cluster.sim.now()).contains(&crash) {
                    assert_eq!((started, completed), (1, 0), "{name}: crash mid-move");
                }
            }
            assert_eq!(cluster.migrations_completed(), vec![1, 2], "{name}");
            let router = cluster.current_router();
            assert_eq!(router.version(), 2, "{name}: map at final version");
            assert_eq!(router.group_of(mid0 - 1), 0, "{name}");
            assert_eq!(router.group_of(mid0 + 1), 2, "{name}");
            assert_eq!(router.group_of(mid1 - 1), 1, "{name}");
            assert_eq!(router.group_of(mid1 + 1), 2, "{name}");
            // Values survived both moves; exclusivity holds everywhere.
            for key in keys {
                let r = cluster
                    .submit_and_wait(Op::Get { key })
                    .unwrap_or_else(|e| panic!("{name}: get({key}): {e}"));
                assert!(
                    matches!(r, Reply::Value(Some(_))),
                    "{name}: key {key} kept its value ({r:?})"
                );
            }
            cluster.sim.run_for(SimDuration::from_secs(2));
            for node in 0..5u32 {
                for g in 0..3usize {
                    let actor = cluster.replica(g, NodeId(node));
                    if cluster.sim.is_crashed(actor) {
                        continue;
                    }
                    let kv = replica(&cluster.sim, p, actor).kv();
                    for (k, _) in kv.snapshot().records.iter() {
                        let owner = router.group_of(*k);
                        assert_eq!(
                            owner, g as u32,
                            "{name}: key {k} in group {g} but owned by {owner}"
                        );
                    }
                }
            }
        }
    }

    /// The coordinator against replicas that never answer: it sleeps
    /// until its plan is due, re-sends the freeze to the source group's
    /// next replica exactly 1 s after each send, and once the freeze
    /// commits re-sends it 2.5 s after the commit.
    #[test]
    fn the_coordinator_wakes_when_due_and_retries_on_exact_deadlines() {
        use super::{freeze_cmd_id, RebalanceCoordinator, T_WAKE};
        use crate::client::tests::Puppet;
        use paxraft_sim::net::{NetConfig, Region};
        use paxraft_sim::sim::{ActorId, Simulation};
        use paxraft_sim::time::SimTime;

        let net = NetConfig {
            jitter: 0.0,
            ..NetConfig::default()
        };
        let mut sim = Simulation::new(net, 3);
        // Two groups of three silent replicas, in one region with the
        // coordinator, so every send takes the same time to arrive.
        let replicas: Vec<ActorId> = (0..6)
            .map(|_| {
                let puppet = Puppet {
                    reply: None,
                    arrivals: Vec::new(),
                };
                sim.add_actor(Region::Oregon, Box::new(puppet))
            })
            .collect();
        let router = crate::shard::ShardRouter::new(1_000, 2);
        let (lo, hi) = router.range(0);
        let at = SimTime::from_secs(3);
        let plan = vec![MigrationSpec {
            at: SimDuration::from_secs(3),
            lo,
            hi,
            to_group: 1,
        }];
        let targets = vec![replicas[..3].to_vec(), replicas[3..].to_vec()];
        let coord = RebalanceCoordinator::new(0, router, plan, targets, Vec::new());
        let coord = sim.add_actor(Region::Oregon, Box::new(coord));
        let arrivals =
            |sim: &Simulation<Msg>, r: usize| sim.actor::<Puppet>(replicas[r]).arrivals.clone();

        sim.run_until(SimTime::from_nanos(at.as_nanos() - 1));
        assert_eq!(sim.stats.timer_fires, 0, "nothing fires before the plan");
        assert_eq!(sim.timer_due(coord, T_WAKE), Some(at));
        sim.run_until(SimTime::from_millis(4_500));
        let freeze = freeze_cmd_id(0, 1);
        let first = arrivals(&sim, 0);
        assert_eq!(first.len(), 1, "{first:?}");
        let hop = first[0].0.since(at);
        assert!(
            hop < SimDuration::from_millis(10),
            "sent when due: {first:?}"
        );
        assert_eq!(
            arrivals(&sim, 1),
            [(at + SimDuration::from_secs(1) + hop, freeze)],
            "the next replica, 1 s after the send"
        );

        let committed = SimTime::from_millis(4_600);
        let reply = Msg::Client(ClientMsg::Response {
            id: freeze,
            reply: Reply::Done,
        });
        sim.send_external(coord, reply, committed.since(sim.now()));
        sim.run_until(SimTime::from_millis(8_000));
        assert_eq!(arrivals(&sim, 0).len(), 1);
        assert_eq!(arrivals(&sim, 1).len(), 1, "the 5 s deadline was replaced");
        assert_eq!(
            arrivals(&sim, 2),
            [(committed + SimDuration::from_millis(2_500) + hop, freeze)],
            "the install wait re-sends the freeze 2.5 s after its commit"
        );
    }

    /// A sharded run with an *empty* rebalance plan creates no
    /// coordinator actor and is bit-for-bit the plain sharded cluster —
    /// the "no migration, no behavior change" guarantee.
    #[test]
    fn empty_rebalance_plan_is_bit_for_bit_the_plain_sharded_cluster() {
        let fingerprint = |with_empty_config: bool| {
            let mut b = Cluster::builder(ProtocolKind::Raft)
                .shard_config(ShardConfig::groups(2))
                .clients_per_region(2)
                .seed(31);
            if with_empty_config {
                b = b.rebalance_config(RebalanceConfig::default());
            }
            let mut cluster = b.build_sharded();
            assert_eq!(cluster.coordinator(), None, "no coordinator actor");
            cluster.elect_leaders();
            let r = cluster.run_measurement(
                SimDuration::from_secs(2),
                SimDuration::from_secs(4),
                SimDuration::from_secs(1),
            );
            format!(
                "thr={:.6} lw={:?} fw={:?} pipe={:?} now={}",
                r.throughput_ops,
                r.leader_writes,
                r.follower_writes,
                r.pipeline,
                cluster.sim.now()
            )
        };
        assert_eq!(fingerprint(false), fingerprint(true));
    }
}
