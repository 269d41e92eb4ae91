//! The shared replica engine: every behavior the four protocols have in
//! common, written once.
//!
//! The paper's thesis is that Paxos and Raft share so much structure
//! that optimizations port mechanically between them. This module makes
//! that true *by construction*: [`ReplicaEngine`]`<P>` owns all the
//! protocol-agnostic machinery — the key-value state machine with client
//! session dedup, pending-command batching and follower→leader
//! forwarding, election/heartbeat/batch timer arming, chunked snapshot
//! send and install with per-sender reassembly, and the
//! [`Actor`] plumbing — while each protocol shrinks to a
//! [`ProtocolRules`] impl expressing only what genuinely differs:
//!
//! | rules hook | Raft | Raft* | MultiPaxos | Mencius |
//! |---|---|---|---|---|
//! | `can_propose` | is leader | is leader | phase-1 succeeded | always |
//! | `propose` | append + AppendEntries | + ballot rewrite | next instance + Accept | own round-robin slot + Suggest |
//! | `on_election_timeout` | RequestVote | RequestVote + extras | Phase1a | — (revocation instead) |
//! | commit advance | §5.4.2 term check | f-th match | per-instance quorum | per-slot quorum + skips |
//!
//! An optimization added to the engine (a smarter batcher, snapshot
//! pacing, a new transfer encoding) lands in all four protocols at once:
//! the paper's "port the optimization" becomes "the engine already has
//! it". The worked example is [`pipeline`]: one per-peer replication
//! window plus an adaptive batch cutter (`cut_batch`) that flushes
//! eagerly while a quorum has window room and accumulates once
//! saturated — inherited by every rules impl.
//!
//! Below the engine each family has a base holding what its two rules
//! files share verbatim: [`raft_family::RaftBase`] (the log, replication
//! and snapshot plumbing of Raft and Raft*) and `paxos_family::PaxosBase`
//! (the instance table of MultiPaxos and Mencius with its store / tally /
//! learn / durable / compact / install bookkeeping). The two meet in
//! `transfer`: one snapshot shipper, one checkpoint step, one install
//! step, one transfer ack. A rules file holds what is left — elections
//! and who proposes where, the execute loop, the crash policy.

pub mod durability;
pub(crate) mod paxos_family;
pub mod pipeline;
pub mod raft_family;
pub mod slots;
mod transfer;

#[cfg(test)]
mod conformance;

pub use durability::{DurabilityState, DurabilityStats};
pub use pipeline::{PipelineConfig, PipelineStats, PipelineWindow};
pub use slots::SlotRing;
pub(crate) use transfer::ack_snapshot;
pub use transfer::ship_snapshot;

use std::collections::{BTreeSet, HashMap};

use paxraft_sim::impl_actor_any;
use paxraft_sim::sim::{Actor, ActorId, Ctx};
use paxraft_sim::time::{SimDuration, SimTime};
use paxraft_sim::trace::SpanKind;

use crate::config::ReplicaConfig;
use crate::costs::CostModel;
use crate::kv::{CmdId, Command, KvStore, Op, Reply};
use crate::msg::{ClientMsg, EngineMsg, Msg};
use crate::shard::migration::{install_cmd_id, KeyOwnership, RangeExport, RouterVersion};
use crate::snapshot::{self, ChunkAssembler, Snapshot, SnapshotSender, SnapshotStats};
use crate::telemetry::MetricSample;
use crate::types::{self, NodeId, Slot, Term};

/// Timer token kinds (upper 16 bits); generation counters live in the
/// lower bits so stale timers are ignored. One registry for every
/// protocol — rules-specific timers ([`T_LEASE`], [`T_COORD`]) reach the
/// rules through [`ProtocolRules::on_timer`].
///
/// The election and heartbeat timers carry no generation: each kind is
/// also its key for [`Ctx::rearm_timer`], so a re-arm supersedes the last
/// one in the simulator.
pub const T_ELECTION: u64 = 1 << 48;
/// Leader heartbeat / retransmission tick.
pub const T_HEARTBEAT: u64 = 2 << 48;
/// Pending-batch flush deadline.
pub const T_BATCH: u64 = 3 << 48;
/// Lease renewal tick (Raft*-PQL / LL).
pub const T_LEASE: u64 = 4 << 48;
/// An fsync completion (low bits carry the covered write sequence).
pub const T_FSYNC: u64 = 5 << 48;
/// Mencius coordination tick (skips, commit flush, revocation check).
pub const T_COORD: u64 = 6 << 48;
/// Group-commit max-delay flush deadline (low bits carry the
/// generation).
pub const T_FSYNC_DELAY: u64 = 7 << 48;
/// Mask selecting the timer kind bits.
pub const KIND_MASK: u64 = 0xFFFF << 48;

/// All protocol-agnostic replica state, owned by the engine.
#[derive(Debug)]
pub struct EngineCore {
    /// Static replica configuration.
    pub cfg: ReplicaConfig,
    /// The replicated state machine (client sessions included — the
    /// single implementation of duplicate-request dedup).
    pub kv: KvStore,
    /// Where this replica believes the leader is (forwarding target).
    pub leader_hint: Option<NodeId>,
    /// Commands buffered for the next batch flush (leader) or forward
    /// (follower).
    pub pending: Vec<Command>,
    batch_armed: bool,
    batch_gen: u64,
    /// Reassembles incoming snapshot chunks, keyed by sender.
    pub snap_asm: ChunkAssembler,
    /// Per-peer outbound transfer rate-limiting.
    pub snap_send: SnapshotSender,
    /// The durable snapshot the log was last compacted against (models
    /// the on-disk snapshot file); restored on crash-restart because the
    /// compacted prefix can no longer be replayed.
    pub stable_snap: Option<Snapshot>,
    /// Compaction / transfer counters.
    pub snap_stats: SnapshotStats,
    /// Client responses sent (stats).
    pub responses_sent: u64,
    /// Batch timers actually armed (stats; the re-arm regression test
    /// asserts a burst of requests arms exactly one).
    pub batch_timers_armed: u64,
    /// Batch flushes performed (stats).
    pub batch_flushes: u64,
    /// Commands forwarded toward the believed leader (stats; the
    /// no-leader retry regression asserts buffered commands are neither
    /// dropped nor duplicated across a leader transition).
    pub forwarded_cmds: u64,
    /// Per-peer in-flight replication round tracking; drives the
    /// adaptive batch cutter and the per-peer send gate.
    pub pipe: PipelineWindow,
    /// `(chunk, ack)` wire-header bytes of this protocol's snapshot
    /// spelling, resolved once from
    /// [`ProtocolRules::snapshot_wire_overhead`] (plus the group header
    /// in a sharded cluster).
    pub snap_wire: (usize, usize),
    /// Last leader window-occupancy hint piggybacked on replication
    /// traffic, and when it arrived. Drives follower-side adaptive
    /// forwarding (follower hints, [`PipelineConfig`]).
    pub window_hint: Option<(bool, SimTime)>,
    /// Engine-level messages dropped because they carried another
    /// group's id (sharded clusters; stats/assertions).
    pub cross_group_dropped: u64,
    /// [`Reply::WrongGroup`] redirects sent to misrouted clients
    /// (sharded clusters). Kept separate from `responses_sent`, which
    /// counts only commit-visible work.
    pub redirects_sent: u64,
    /// Reassembles incoming range-export chunks (live rebalancing),
    /// keyed by sender — separate from `snap_asm` so a migration never
    /// interleaves with a concurrent snapshot transfer from the same
    /// peer.
    pub range_asm: ChunkAssembler,
    /// Migration versions the destination group confirmed installed
    /// (volatile leader-side bookkeeping; stops the re-export loop).
    pub mig_acked: BTreeSet<RouterVersion>,
    /// When each pending migration was last exported (re-export pacing).
    pub mig_last_export: HashMap<RouterVersion, SimTime>,
    /// Export attempts per migration: each retry rotates the receiving
    /// destination replica, so a crashed receiver cannot pin the
    /// transfer.
    pub mig_attempts: HashMap<RouterVersion, u64>,
    /// Range exports shipped (stats).
    pub mig_exports: u64,
    /// Range-export bytes shipped (stats).
    pub mig_export_bytes: u64,
    /// `InstallRange` commands newly absorbed by this replica (stats).
    pub mig_installs: u64,
    /// Apply-path load sketch (sharded clusters): cumulative keyed-op
    /// applies per fixed key-space bucket, counted at the proposer so
    /// summing across groups counts each op once. Pure bookkeeping —
    /// no sends, no timers — so it cannot perturb the schedule. The
    /// auto-rebalancing policy reads this through
    /// [`ReplicaEngine::metric_sample`].
    pub load_sketch: [u64; crate::shard::autobalance::SKETCH_BUCKETS],
    /// Durability sequencing + fsync scheduling (disabled by default).
    pub dur: DurabilityState,
}

impl EngineCore {
    /// Engine state for a validated configuration.
    pub fn new(cfg: ReplicaConfig) -> Self {
        let n = cfg.n;
        let pipe = PipelineWindow::new(n, &cfg.pipeline);
        // Placeholder spelling only: [`ReplicaEngine::from_parts`]
        // re-derives `snap_wire` from the rules' actual snapshot
        // spelling; a bare `EngineCore` never ships snapshots itself.
        let snap_wire = (
            cfg.costs.snapshot_chunk_header,
            cfg.costs.snapshot_ack_header,
        );
        let dur = DurabilityState::new(&cfg.durability);
        EngineCore {
            cfg,
            kv: KvStore::new(),
            leader_hint: None,
            pending: Vec::new(),
            batch_armed: false,
            batch_gen: 0,
            snap_asm: ChunkAssembler::default(),
            snap_send: SnapshotSender::new(n),
            stable_snap: None,
            snap_stats: SnapshotStats::default(),
            responses_sent: 0,
            batch_timers_armed: 0,
            batch_flushes: 0,
            forwarded_cmds: 0,
            pipe,
            snap_wire,
            window_hint: None,
            cross_group_dropped: 0,
            redirects_sent: 0,
            range_asm: ChunkAssembler::default(),
            mig_acked: BTreeSet::new(),
            mig_last_export: HashMap::new(),
            mig_attempts: HashMap::new(),
            mig_exports: 0,
            mig_export_bytes: 0,
            mig_installs: 0,
            load_sketch: [0; crate::shard::autobalance::SKETCH_BUCKETS],
            dur,
        }
    }

    /// Records one durability write of `bytes` covering `entries` log
    /// entries and schedules fsyncs per the configured policy
    /// ([`crate::config::FsyncPolicy`]). No-op when durability is
    /// disabled — the zero-cost default issues no disk work at all.
    pub fn durable_write(&mut self, ctx: &mut Ctx<Msg>, bytes: usize, entries: usize) {
        self.dur.durable_write(ctx, bytes, entries);
    }

    /// Sends an acknowledgement that attests to replica state — an
    /// `AppendOk`, `AcceptOk`, `PrepareOk`, `SuggestOk` or snapshot ack
    /// — **after** everything written so far is fsynced. With
    /// durability disabled, sends immediately (the pre-durability
    /// behavior, schedule-identical to older builds).
    pub fn ack_after_sync(&mut self, ctx: &mut Ctx<Msg>, to: ActorId, msg: Msg) {
        self.dur.ack_after_sync(ctx, to, msg);
    }

    /// Resolves where a keyed operation belongs in a sharded cluster:
    /// `Some((group, version))` when it must be redirected, `None` when
    /// this replica serves it (always, when unsharded). The replicated
    /// migration overrides in the state machine win over the build-time
    /// map, so a range this group froze away bounces at the migration's
    /// new version and a range it absorbed is accepted even though the
    /// static map disagrees.
    pub fn misroute(&self, op: &Op) -> Option<(u32, RouterVersion)> {
        let shard = self.cfg.shard.as_ref()?;
        let key = op.key()?;
        match self.kv.shard_state().override_for(key) {
            Some(KeyOwnership::Redirect(group, version)) => {
                (group != shard.group).then_some((group, version))
            }
            Some(KeyOwnership::Accept(_)) => None,
            None => {
                let owner = shard.router.group_of(key);
                (owner != shard.group).then_some((owner, self.kv.shard_state().version))
            }
        }
    }

    /// Bounces a misrouted command with a versioned
    /// [`Reply::WrongGroup`] (charged like a reply but counted as a
    /// redirect, not commit-visible work).
    pub(crate) fn send_redirect(
        &mut self,
        ctx: &mut Ctx<Msg>,
        id: CmdId,
        group: u32,
        version: RouterVersion,
    ) {
        ctx.charge(self.cfg.costs.reply_fixed);
        ctx.send(
            self.cfg.client_actor(id.client),
            Msg::Client(ClientMsg::Response {
                id,
                reply: Reply::WrongGroup { group, version },
            }),
        );
        ctx.trace_span(
            SpanKind::Redirect {
                group: group as u64,
            },
            id.client,
            id.seq,
        );
        self.redirects_sent += 1;
    }

    /// Records a leader window-occupancy hint piggybacked on incoming
    /// replication traffic.
    pub fn note_window_hint(&mut self, room: bool, now: SimTime) {
        self.window_hint = Some((room, now));
    }

    /// Whether a fresh hint says the leader's window can absorb a
    /// forwarded batch right now. A hint older than two heartbeat
    /// periods is stale: the leader's occupancy has had time to change
    /// and two missed refreshes suggest the leader itself may be gone.
    pub fn hint_allows_forward(&self, now: SimTime) -> bool {
        self.window_hint
            .is_some_and(|(room, at)| room && now.since(at.min(now)) <= self.cfg.heartbeat * 2)
    }

    /// This replica's bit in quorum bitmaps.
    pub fn me_bit(&self) -> u64 {
        types::me_bit(self.cfg.id)
    }

    /// Arms a fresh randomized election timer. It supersedes the previous
    /// one, which the simulator then never delivers
    /// ([`Ctx::rearm_timer`]). `never_led` selects the tiny bootstrap
    /// timeout on the configured initial leader's first round.
    pub fn arm_election(&self, ctx: &mut Ctx<Msg>, never_led: bool) {
        let span = self.cfg.election_max.as_nanos() - self.cfg.election_min.as_nanos();
        let delay = if self.cfg.initial_leader == Some(self.cfg.id) && never_led {
            SimDuration::from_millis(5)
        } else {
            self.cfg.election_min + SimDuration::from_nanos(ctx.rng().gen_range(span.max(1)))
        };
        ctx.rearm_timer(T_ELECTION, delay, T_ELECTION);
    }

    /// Arms the next heartbeat tick. It supersedes the previous one,
    /// which the simulator then never delivers ([`Ctx::rearm_timer`]).
    pub fn arm_heartbeat(&self, ctx: &mut Ctx<Msg>) {
        ctx.rearm_timer(T_HEARTBEAT, self.cfg.heartbeat, T_HEARTBEAT);
    }

    /// Arms the batch-flush timer. At most one batch timer is ever
    /// outstanding: re-arming while armed is a no-op, and the generation
    /// in the token retires superseded timers.
    pub fn arm_batch(&mut self, ctx: &mut Ctx<Msg>) {
        if !self.batch_armed {
            self.batch_armed = true;
            self.batch_gen += 1;
            self.batch_timers_armed += 1;
            ctx.set_timer(self.cfg.batch_delay, T_BATCH | self.batch_gen);
        }
    }

    /// Sends a client response (no CPU charge; callers charge the cost
    /// appropriate to their path first).
    pub fn send_response(&mut self, ctx: &mut Ctx<Msg>, id: CmdId, reply: Reply) {
        ctx.send(
            self.cfg.client_actor(id.client),
            Msg::Client(ClientMsg::Response { id, reply }),
        );
        ctx.trace_span(SpanKind::Reply, id.client, id.seq);
        self.responses_sent += 1;
    }

    /// Charges the reply cost and sends a client response.
    pub fn respond(&mut self, ctx: &mut Ctx<Msg>, id: CmdId, reply: Reply) {
        ctx.charge(self.cfg.costs.reply_fixed);
        self.send_response(ctx, id, reply);
    }

    /// Forwards the buffered commands to the believed leader, or re-arms
    /// the batch timer to retry while no leader is known.
    pub fn forward_pending(&mut self, ctx: &mut Ctx<Msg>) {
        let Some(leader) = self.leader_hint else {
            if !self.pending.is_empty() {
                self.arm_batch(ctx);
            }
            return;
        };
        if leader == self.cfg.id || self.pending.is_empty() {
            return;
        }
        // The batches to come are the size of the one just shipped.
        let room = Vec::with_capacity(self.pending.len());
        let cmds = std::mem::replace(&mut self.pending, room);
        self.forwarded_cmds += cmds.len() as u64;
        if ctx.spans_enabled() {
            for c in &cmds {
                ctx.trace_span(SpanKind::Forward, c.id.client, c.id.seq);
            }
        }
        ctx.charge(self.cfg.costs.forward_per_cmd * cmds.len() as u64);
        ctx.send(
            self.cfg.peer(leader),
            Msg::Engine(EngineMsg::Forward {
                group: self.cfg.group_id(),
                header_bytes: self.cfg.forward_header_bytes(),
                cmds,
            }),
        );
    }
}

/// What a protocol must define for the engine to run it: ballot/vote
/// semantics, slot assignment, the commit-advance rule, and recovery.
/// Everything else — batching, forwarding, dedup, timers, snapshot
/// transfer — is inherited from [`ReplicaEngine`].
pub trait ProtocolRules: Sized + 'static {
    /// Whether this replica may assign slots to client commands itself
    /// (Raft-family leader, Paxos phase-1 winner; always true under
    /// Mencius, where every replica owns slots).
    fn can_propose(&self, core: &EngineCore) -> bool;

    /// Whether this replica counts as "the leader" for harness
    /// observation. Defaults to [`ProtocolRules::can_propose`].
    fn is_leader(&self, core: &EngineCore) -> bool {
        self.can_propose(core)
    }

    /// The applied prefix (Raft `lastApplied` / Paxos executed index).
    fn applied_index(&self, core: &EngineCore) -> Slot;

    /// Extra per-command propose cost (Mencius coordination overhead).
    fn extra_propose_cost(&self, costs: &CostModel) -> SimDuration {
        let _ = costs;
        SimDuration::ZERO
    }

    /// Assigns slots to a flushed batch and replicates it, draining
    /// `cmds` (the engine keeps the buffer for the next batch). Called
    /// only when [`ProtocolRules::can_propose`] holds; the engine has
    /// already charged the propose cost.
    fn propose(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, cmds: &mut Vec<Command>);

    /// Serves a command without replication when a read optimization
    /// applies (quorum-lease local reads). `true` consumes the command.
    fn try_serve_local(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        cmd: &Command,
    ) -> bool {
        let _ = (core, ctx, cmd);
        false
    }

    /// Arms the protocol's initial timers (election bootstrap, lease
    /// renewal, Mencius coordination).
    fn on_start(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>);

    /// The live (last armed) election timer fired and this replica is
    /// not leading: start recovery (RequestVote / Phase1a).
    fn on_election_timeout(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        let _ = (core, ctx);
    }

    /// The (generation-valid) heartbeat timer fired.
    fn on_heartbeat(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        let _ = (core, ctx);
    }

    /// A protocol-specific timer kind fired ([`T_LEASE`], [`T_COORD`]).
    fn on_timer(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, kind: u64, token: u64) {
        let _ = (core, ctx, kind, token);
    }

    /// The durable watermark advanced (an fsync completed and its
    /// deferred acks were released). Protocols that gate their *own*
    /// quorum contribution on local durability re-run their commit
    /// tally here — a leader's copy counts toward commitment only once
    /// it is fsynced, for the same reason a follower's ack waits.
    fn on_durable(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        let _ = (core, ctx);
    }

    /// Handles one protocol message (everything the engine does not
    /// consume itself).
    fn on_msg(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, from: ActorId, msg: Msg);

    /// Fixed CPU cost of receiving one snapshot chunk.
    fn snapshot_chunk_fixed_cost(&self, costs: &CostModel) -> SimDuration {
        costs.append_fixed
    }

    /// `(chunk, ack)` wire-header bytes of this protocol's snapshot
    /// spelling. Defaults to the Raft `InstallSnapshot`/`SnapshotAck`
    /// header sizes; the Paxos family overrides with its leaner
    /// `Checkpoint`/`CheckpointOk` spelling so the shared envelope keeps
    /// the per-protocol wire-cost distinction.
    fn snapshot_wire_overhead(&self, costs: &CostModel) -> (usize, usize) {
        (costs.snapshot_chunk_header, costs.snapshot_ack_header)
    }

    /// Gates an incoming snapshot chunk (term/ballot check, stepping
    /// down to the sender). `false` drops the chunk un-charged.
    fn accept_snapshot_chunk(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        from: ActorId,
        seal: Term,
    ) -> bool {
        let _ = (core, ctx, from, seal);
        true
    }

    /// Installs a fully reassembled snapshot into the protocol's log /
    /// instance store and acknowledges it.
    fn install_snapshot(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        from: ActorId,
        snap: Snapshot,
    );

    /// Handles a snapshot acknowledgement (release the per-peer transfer
    /// slot via [`SnapshotSender::finish`], then treat `upto` like a
    /// replication ack).
    fn on_snapshot_ack(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        from: ActorId,
        seal: Term,
        upto: Slot,
    );

    /// Folds protocol-held peaks (retained log size) into the reported
    /// stats.
    fn decorate_stats(&self, stats: &mut SnapshotStats) {
        let _ = stats;
    }

    /// Adds the rules' own named counters to the replica's
    /// [`ReplicaEngine::metric_sample`].
    fn record_metrics(&self, sample: &mut MetricSample) {
        let _ = sample;
    }

    /// Resets volatile protocol state after a crash. The engine has
    /// already cleared its own volatile state (pending batch, transfer
    /// buffers, leader hint); restoring the state machine from
    /// `core.stable_snap` is the rules' job because what survives a
    /// restart differs per protocol family.
    fn on_crash(&mut self, core: &mut EngineCore);
}

/// A replica: the shared engine plus one protocol's rules.
pub struct ReplicaEngine<P: ProtocolRules> {
    pub(crate) core: EngineCore,
    pub(crate) rules: P,
}

impl<P: ProtocolRules> ReplicaEngine<P> {
    /// Assembles a replica from parts (protocol aliases provide `new`).
    pub fn from_parts(mut core: EngineCore, rules: P) -> Self {
        let (chunk, ack) = rules.snapshot_wire_overhead(&core.cfg.costs);
        // Sharded clusters stamp the group id on every engine-level
        // message; the header surcharge applies on top of whatever the
        // protocol's snapshot spelling costs.
        let gh = if core.cfg.shard.is_some() {
            core.cfg.costs.shard_group_header
        } else {
            0
        };
        core.snap_wire = (chunk + gh, ack + gh);
        ReplicaEngine { core, rules }
    }

    /// Whether this replica currently counts as the leader.
    pub fn is_leader(&self) -> bool {
        self.rules.is_leader(&self.core)
    }

    /// Read-only state machine access.
    pub fn kv(&self) -> &KvStore {
        &self.core.kv
    }

    /// The applied prefix (Raft `lastApplied` / Paxos executed index).
    pub fn applied_index(&self) -> Slot {
        self.rules.applied_index(&self.core)
    }

    /// Compaction / snapshot-transfer counters, peaks included.
    pub fn snap_stats(&self) -> SnapshotStats {
        let mut s = self.core.snap_stats;
        self.rules.decorate_stats(&mut s);
        s
    }

    /// Client responses sent (stats).
    pub fn responses_sent(&self) -> u64 {
        self.core.responses_sent
    }

    /// `(batch timers armed, batch flushes)` — stats for the batching
    /// regression tests.
    pub fn batching_stats(&self) -> (u64, u64) {
        (self.core.batch_timers_armed, self.core.batch_flushes)
    }

    /// Pipeline occupancy and adaptive-batching counters.
    pub fn pipeline_stats(&self) -> PipelineStats {
        self.core.pipe.stats
    }

    /// Commands forwarded toward the believed leader (stats).
    pub fn forwarded_cmds(&self) -> u64 {
        self.core.forwarded_cmds
    }

    /// Fsync / deferred-ack counters (durability model).
    pub fn durability_stats(&self) -> DurabilityStats {
        self.core.dur.stats
    }

    /// `(exports shipped, export bytes, installs absorbed)` — live
    /// rebalancing counters.
    pub fn migration_stats(&self) -> (u64, u64, u64) {
        (
            self.core.mig_exports,
            self.core.mig_export_bytes,
            self.core.mig_installs,
        )
    }

    /// Registers this replica's named counters and gauges for the
    /// virtual-time sampler. [`crate::shard::GroupStats`] reads its
    /// `responses` and `range_*` counts from here; its snapshot,
    /// pipeline and durability blocks (and so
    /// [`crate::harness::RunReport`]'s) absorb the typed stats instead.
    /// Counters carry cumulative values (the registry differences them
    /// into rates); gauges are instantaneous.
    pub fn metric_sample(&self) -> crate::telemetry::MetricSample {
        let mut s = crate::telemetry::MetricSample::default();
        // Counters (cumulative).
        s.record("responses", self.core.responses_sent as f64);
        s.record("batch_flushes", self.core.batch_flushes as f64);
        s.record("forwarded", self.core.forwarded_cmds as f64);
        s.record("redirects", self.core.redirects_sent as f64);
        s.record("range_exports", self.core.mig_exports as f64);
        s.record("range_export_bytes", self.core.mig_export_bytes as f64);
        s.record("range_installs", self.core.mig_installs as f64);
        s.record("fsyncs", self.core.dur.stats.fsyncs as f64);
        self.rules.record_metrics(&mut s);
        // Gauges (instantaneous).
        s.record("fsync_batch_len", self.core.dur.stats.last_batch_len as f64);
        s.record("pending_depth", self.core.pending.len() as f64);
        s.record(
            "pipeline_occupancy",
            self.core.pipe.total_in_flight() as f64,
        );
        // Apply-path load sketch (sharded clusters only): cumulative
        // per-bucket counts the auto-rebalancing policy differences
        // into rates. Counted at the proposer, so the cluster-wide sum
        // counts each op once at the group that served it.
        if self.core.cfg.shard.is_some() {
            for (b, name) in crate::shard::autobalance::SKETCH_NAMES.iter().enumerate() {
                s.record(name, self.core.load_sketch[b] as f64);
            }
        }
        s
    }

    /// A fully reassembled range export arrived from a source-group
    /// leader. If the migration is already absorbed (this is a
    /// re-export), confirm it straight back; otherwise wrap the export
    /// in its deterministic `InstallRange` command and hand it to the
    /// ordinary propose/forward path — the *destination group's own log*
    /// is what makes the install replicated, crash-safe and
    /// exactly-once.
    fn absorb_range_export(&mut self, ctx: &mut Ctx<Msg>, from: ActorId, export: RangeExport) {
        if export.to_group != self.core.cfg.group_id() {
            self.core.cross_group_dropped += 1;
            return;
        }
        if self.core.kv.shard_state().has_absorbed(export.version) {
            ctx.send(
                from,
                Msg::Engine(EngineMsg::RangeAck {
                    group: export.from_group,
                    version: export.version,
                    header_bytes: self.core.snap_wire.1 + 8,
                }),
            );
            // A re-export means somebody upstream missed a completion
            // signal; re-answer the coordinator too, in case it was its
            // install response that got lost (its freeze retry is what
            // provoked this re-export).
            self.core.send_response(
                ctx,
                install_cmd_id(export.coord, export.version),
                Reply::Done,
            );
            return;
        }
        let cmd = Command {
            id: install_cmd_id(export.coord, export.version),
            op: Op::InstallRange(Box::new(export)),
        };
        // Drop a duplicate still sitting in the pending batch (the
        // source re-exported before our first install committed).
        if self.core.pending.iter().any(|c| c.id == cmd.id) {
            return;
        }
        self.core.pending.push(cmd);
        cut_batch(&mut self.rules, &mut self.core, ctx);
    }
}

/// What anything *around* the replicas may read off one, whichever
/// rules file it runs: the object-safe face of [`ReplicaEngine`]'s
/// observers. [`crate::harness::replica`] is the one place that names
/// the concrete replica types to hand this out.
pub trait ReplicaHandle {
    /// Whether this replica currently counts as the leader (always true
    /// under Mencius, where every replica leads its own slots).
    fn is_leader(&self) -> bool;
    /// The applied prefix (Raft `lastApplied` / Paxos executed index).
    fn applied_index(&self) -> Slot;
    /// Read-only state machine access.
    fn kv(&self) -> &KvStore;
    /// The named counters and gauges the sampler and the end-of-run
    /// group aggregates read.
    fn metric_sample(&self) -> MetricSample;
    /// Compaction / snapshot-transfer counters, peaks included.
    fn snap_stats(&self) -> SnapshotStats;
    /// Pipeline occupancy and adaptive-batching counters.
    fn pipeline_stats(&self) -> PipelineStats;
    /// Fsync / deferred-ack counters (durability model).
    fn durability_stats(&self) -> DurabilityStats;
}

impl<P: ProtocolRules> ReplicaHandle for ReplicaEngine<P> {
    fn is_leader(&self) -> bool {
        ReplicaEngine::is_leader(self)
    }
    fn applied_index(&self) -> Slot {
        ReplicaEngine::applied_index(self)
    }
    fn kv(&self) -> &KvStore {
        ReplicaEngine::kv(self)
    }
    fn metric_sample(&self) -> MetricSample {
        ReplicaEngine::metric_sample(self)
    }
    fn snap_stats(&self) -> SnapshotStats {
        ReplicaEngine::snap_stats(self)
    }
    fn pipeline_stats(&self) -> PipelineStats {
        ReplicaEngine::pipeline_stats(self)
    }
    fn durability_stats(&self) -> DurabilityStats {
        ReplicaEngine::durability_stats(self)
    }
}

/// The single batch-flush implementation: charge the propose cost and
/// hand the batch to the rules, or forward it toward the leader when
/// this replica cannot assign slots itself.
pub fn flush_pending<P: ProtocolRules>(rules: &mut P, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
    if !rules.can_propose(core) {
        core.forward_pending(ctx);
        return;
    }
    if core.pending.is_empty() {
        return;
    }
    let mut cmds = std::mem::take(&mut core.pending);
    if ctx.spans_enabled() {
        for c in &cmds {
            ctx.trace_span(SpanKind::Propose, c.id.client, c.id.seq);
        }
    }
    let bytes: usize = cmds.iter().map(Command::size_bytes).sum();
    let per_cmd = core.cfg.costs.propose_per_cmd + rules.extra_propose_cost(&core.cfg.costs);
    ctx.charge(
        core.cfg.costs.propose_fixed
            + per_cmd * cmds.len() as u64
            + core.cfg.costs.size_cost(bytes),
    );
    core.batch_flushes += 1;
    rules.propose(core, ctx, &mut cmds);
    // The drained buffer is the next batch's; what re-entered `pending`
    // meanwhile (a re-proposal, a flush from inside `propose`) follows
    // whatever `propose` left.
    cmds.append(&mut core.pending);
    core.pending = cmds;
}

/// Marks every buffered command as deferred by the cutter (window
/// saturated or NIC backpressure) — explicit span evidence that the
/// time it now spends in the batch is a batching decision, not drift.
fn span_defer(core: &EngineCore, ctx: &mut Ctx<Msg>) {
    if ctx.spans_enabled() {
        for c in &core.pending {
            ctx.trace_span(SpanKind::WindowDefer, c.id.client, c.id.seq);
        }
    }
}

/// The adaptive batch cutter: decides, after commands were buffered,
/// whether the batch ships now or accumulates.
///
/// - A **full** batch (`batch_max`) always flushes immediately — a
///   leader proposes it, a follower forwards it. (Forwarding on
///   batch-full regardless of leadership is pre-refactor behavior; PR 2
///   accidentally made non-leader replicas sit on full forwarded
///   batches until the timer.)
/// - Below the limit, a proposer with **pipeline window room** for a
///   replication quorum flushes immediately too: the window hides the
///   round trip, so waiting for the timer would only add latency.
/// - Otherwise (window saturated, or a follower below the limit) the
///   batch accumulates under the batch timer — the regime where
///   batching amortizes per-round cost.
fn cut_batch<P: ProtocolRules>(rules: &mut P, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
    if core.pending.is_empty() {
        return;
    }
    if core.pending.len() >= core.cfg.batch_max {
        flush_pending(rules, core, ctx);
        if !core.pending.is_empty() {
            // Could not ship (e.g. no leader known): retry on the timer.
            core.arm_batch(ctx);
        }
        return;
    }
    // NIC-aware cutting: when this node's egress NIC is backed up by a
    // quarter of the batch delay or more, bytes — not window room — are
    // the bottleneck: a message cut now queues behind the backlog
    // instead of starting promptly, so eager cutting buys little
    // latency while its per-round overhead costs throughput (the
    // Figure-10b regime). Accumulate under the timer instead and let
    // batching amortize.
    let nic_saturated = ctx.nic_backlog() * 4 > core.cfg.batch_delay;
    if rules.can_propose(core) && core.pipe.enabled() {
        if core.pipe.quorum_has_room(core.cfg.id, core.cfg.n) {
            if nic_saturated {
                core.pipe.stats.nic_deferrals += 1;
                span_defer(core, ctx);
            } else {
                core.pipe.stats.eager_flushes += 1;
                flush_pending(rules, core, ctx);
                return;
            }
        } else {
            core.pipe.stats.window_deferrals += 1;
            span_defer(core, ctx);
        }
    } else if !rules.can_propose(core)
        && core.leader_hint.is_some()
        && core.hint_allows_forward(ctx.now())
    {
        // Follower-side adaptive forwarding: the leader's piggybacked
        // occupancy hint says its window can absorb a fresh round, so
        // paying the batch delay before forwarding would only add
        // latency (the window hides the round trip, same argument as
        // the leader's eager cut above). A stale or saturated hint —
        // of the leader's window or of our own NIC — falls through to
        // the accumulate-under-timer regime.
        if nic_saturated {
            core.pipe.stats.nic_deferrals += 1;
            span_defer(core, ctx);
        } else {
            core.pipe.stats.hint_flushes += 1;
            flush_pending(rules, core, ctx);
            if core.pending.is_empty() {
                return;
            }
        }
    }
    core.arm_batch(ctx);
}

/// Accepts a forwarded batch: lease-serve what can be served locally,
/// bounce what a migration moved away (the forwarding follower may lag
/// behind the freeze), buffer the rest, and hand the result to the
/// batch cutter.
fn on_forwarded<P: ProtocolRules>(
    rules: &mut P,
    core: &mut EngineCore,
    ctx: &mut Ctx<Msg>,
    cmds: Vec<Command>,
) {
    ctx.charge(core.cfg.costs.forward_per_cmd * cmds.len() as u64);
    for cmd in cmds {
        if let Some((group, version)) = core.misroute(&cmd.op) {
            core.send_redirect(ctx, cmd.id, group, version);
            continue;
        }
        if rules.try_serve_local(core, ctx, &cmd) {
            continue;
        }
        ctx.trace_span(
            SpanKind::Enqueue {
                proposer: rules.can_propose(core),
            },
            cmd.id.client,
            cmd.id.seq,
        );
        core.pending.push(cmd);
    }
    cut_batch(rules, core, ctx);
}

/// The single apply-path implementation shared by every protocol:
/// applies one committed command to the state machine and runs the
/// migration hooks that need the wire — a (re-)applied `FreezeRange`
/// re-arms the source's export pump, and an applied `InstallRange` at
/// the destination's proposer broadcasts [`EngineMsg::RangeAck`] to the
/// source group so its leader (whoever that is by now) stops
/// re-exporting.
pub(crate) fn apply_command(
    core: &mut EngineCore,
    ctx: &mut Ctx<Msg>,
    cmd: &Command,
    is_proposer: bool,
) -> Reply {
    let newly_absorbed = match &cmd.op {
        Op::InstallRange(export) => !core.kv.shard_state().has_absorbed(export.version),
        _ => false,
    };
    // Load sketch: the proposer counts every keyed apply into its
    // key-space bucket (sharded clusters only). Followers skip it so a
    // cluster-wide sum attributes each op to exactly one group.
    if is_proposer {
        if let (Some(shard), Some(key)) = (core.cfg.shard.as_ref(), cmd.op.key()) {
            let records = shard.router.records();
            core.load_sketch[crate::shard::autobalance::bucket_of(records, key)] += 1;
        }
    }
    let reply = core.kv.apply(cmd);
    ctx.trace_app("apply", cmd.id.client as u64, cmd.id.seq);
    // The proposer's apply is the commit point the client's latency
    // observes (followers apply the same slot later, asynchronously).
    if is_proposer {
        ctx.trace_span(SpanKind::Commit, cmd.id.client, cmd.id.seq);
    }
    match &cmd.op {
        Op::FreezeRange(range) => {
            ctx.trace_app("mig-freeze", range.version, 0);
            // First apply starts the export; a coordinator's freeze
            // retry (its install-done signal was lost) re-applies as a
            // session dedup hit but still lands here, forcing a fresh
            // export so the destination re-announces the install.
            core.mig_acked.remove(&range.version);
            core.mig_last_export.remove(&range.version);
        }
        Op::InstallRange(export) => {
            if newly_absorbed {
                core.mig_installs += 1;
                ctx.trace_app("mig-install", export.version, export.records.len() as u64);
            }
            if is_proposer && core.cfg.shard.is_some() {
                let nodes: Vec<NodeId> = core.cfg.nodes().collect();
                for node in nodes {
                    ctx.send(
                        core.cfg.group_actor(export.from_group, node),
                        Msg::Engine(EngineMsg::RangeAck {
                            group: export.from_group,
                            version: export.version,
                            header_bytes: core.snap_wire.1 + 8,
                        }),
                    );
                }
            }
        }
        Op::ReleaseRange { version } => ctx.trace_app("mig-release", *version, 0),
        _ => {}
    }
    reply
}

/// The source-side export pump: a proposer holding frozen ranges whose
/// hand-off is neither released nor acknowledged (re-)ships them to the
/// destination group, paced by the retry interval. Called after every
/// handler dispatch, which is what makes the export survive a source
/// leader crash — the successor applies (or restores) the same frozen
/// state and its own pump picks the transfer up.
fn maybe_drive_migration<P: ProtocolRules>(
    rules: &mut P,
    core: &mut EngineCore,
    ctx: &mut Ctx<Msg>,
) {
    if core.cfg.shard.is_none() {
        return;
    }
    let has_pending = core
        .kv
        .shard_state()
        .pending_exports()
        .any(|f| !core.mig_acked.contains(&f.version));
    if !has_pending || !rules.can_propose(core) {
        return;
    }
    let pending: Vec<crate::shard::migration::FrozenRange> = core
        .kv
        .shard_state()
        .pending_exports()
        .filter(|f| !core.mig_acked.contains(&f.version))
        .cloned()
        .collect();
    for f in pending {
        let due = core
            .mig_last_export
            .get(&f.version)
            .is_none_or(|&at| ctx.now().since(at.min(ctx.now())) >= core.cfg.retry_interval);
        if !due {
            continue;
        }
        core.mig_last_export.insert(f.version, ctx.now());
        let export = RangeExport {
            version: f.version,
            lo: f.lo,
            hi: f.hi,
            from_group: core.cfg.group_id(),
            to_group: f.to_group,
            coord: f.coord,
            records: core.kv.export_range(f.lo, f.hi),
            sessions: core.kv.export_sessions(),
        };
        let bytes = export.encode();
        ctx.charge(core.cfg.costs.snapshot_cost(bytes.len()));
        core.mig_exports += 1;
        core.mig_export_bytes += bytes.len() as u64;
        ctx.trace_app("mig-export", f.version, bytes.len() as u64);
        // Ship to the destination group's co-located replica (same
        // node) first; if that replica is not the destination leader,
        // the engine's ordinary forwarding moves the install command
        // on. Retries rotate through the destination's other replicas
        // so a crashed receiver cannot pin the transfer.
        let attempt = core.mig_attempts.entry(f.version).or_insert(0);
        let node = NodeId((core.cfg.id.0 + *attempt as u32) % core.cfg.n as u32);
        *attempt += 1;
        let dest = core.cfg.group_actor(f.to_group, node);
        for (offset, data) in snapshot::chunks(&bytes, core.cfg.snapshot.chunk_bytes) {
            ctx.send(
                dest,
                Msg::Engine(EngineMsg::RangeChunk {
                    group: f.to_group,
                    version: f.version,
                    offset,
                    total: bytes.len(),
                    header_bytes: core.snap_wire.0 + 8,
                    data: data.to_vec(),
                }),
            );
        }
    }
}

impl<P: ProtocolRules> Actor<Msg> for ReplicaEngine<P> {
    fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
        self.rules.on_start(&mut self.core, ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<Msg>, from: ActorId, msg: Msg) {
        match msg {
            Msg::Client(ClientMsg::Request { cmd }) => {
                ctx.charge(self.core.cfg.costs.client_req);
                // Sharded clusters: a key owned by another group —
                // under the build-time map or the replicated migration
                // overrides — is redirected before it can touch this
                // group's log or sessions (the client's partition map
                // raced a config change). Not a response in the
                // commit-visible sense: charged like one but counted as
                // a redirect.
                if let Some((group, version)) = self.core.misroute(&cmd.op) {
                    self.core.send_redirect(ctx, cmd.id, group, version);
                    return;
                }
                if self.rules.try_serve_local(&mut self.core, ctx, &cmd) {
                    return;
                }
                ctx.trace_span(
                    SpanKind::Enqueue {
                        proposer: self.rules.can_propose(&self.core),
                    },
                    cmd.id.client,
                    cmd.id.seq,
                );
                self.core.pending.push(cmd);
                cut_batch(&mut self.rules, &mut self.core, ctx);
            }
            Msg::Client(ClientMsg::RouterUpdate { .. }) => {
                // Router updates address clients; a replica ignores them
                // (its ownership view is replicated through its log).
            }
            Msg::Engine(EngineMsg::Forward { group, cmds, .. }) => {
                if group != self.core.cfg.group_id() {
                    self.core.cross_group_dropped += 1;
                    return;
                }
                on_forwarded(&mut self.rules, &mut self.core, ctx, cmds);
            }
            Msg::Engine(EngineMsg::RangeChunk {
                group,
                version,
                offset,
                total,
                header_bytes: _,
                data,
            }) => {
                if group != self.core.cfg.group_id() {
                    self.core.cross_group_dropped += 1;
                    return;
                }
                ctx.charge(
                    self.rules.snapshot_chunk_fixed_cost(&self.core.cfg.costs)
                        + self.core.cfg.costs.snapshot_cost(data.len()),
                );
                let done =
                    self.core
                        .range_asm
                        .offer(from.0 as u64, Slot(version), offset, total, &data);
                if let Some(bytes) = done {
                    if let Some(export) = RangeExport::decode(&bytes) {
                        self.absorb_range_export(ctx, from, export);
                    }
                }
            }
            Msg::Engine(EngineMsg::RangeAck { group, version, .. }) => {
                if group != self.core.cfg.group_id() {
                    self.core.cross_group_dropped += 1;
                    return;
                }
                // The destination confirmed the install committed: stop
                // re-exporting this migration.
                self.core.mig_acked.insert(version);
            }
            // `last_term` rides inside the encoded payload; the header
            // copy only matters for observability.
            Msg::Engine(EngineMsg::SnapshotChunk {
                group,
                seal,
                last_slot,
                last_term: _,
                offset,
                total,
                header_bytes: _,
                data,
            }) => {
                if group != self.core.cfg.group_id() {
                    self.core.cross_group_dropped += 1;
                    return;
                }
                if !self
                    .rules
                    .accept_snapshot_chunk(&mut self.core, ctx, from, seal)
                {
                    return;
                }
                ctx.charge(
                    self.rules.snapshot_chunk_fixed_cost(&self.core.cfg.costs)
                        + self.core.cfg.costs.snapshot_cost(data.len()),
                );
                let done = self
                    .core
                    .snap_asm
                    .offer(from.0 as u64, last_slot, offset, total, &data);
                if let Some(bytes) = done {
                    if let Some(snap) = Snapshot::decode(&bytes) {
                        self.rules.install_snapshot(&mut self.core, ctx, from, snap);
                    }
                }
            }
            Msg::Engine(EngineMsg::SnapshotAck {
                group, seal, upto, ..
            }) => {
                if group != self.core.cfg.group_id() {
                    self.core.cross_group_dropped += 1;
                    return;
                }
                self.rules
                    .on_snapshot_ack(&mut self.core, ctx, from, seal, upto);
            }
            other => {
                self.rules.on_msg(&mut self.core, ctx, from, other);
                // Acknowledgements may have freed pipeline window room:
                // ship a batch that accumulated while saturated without
                // waiting for its timer.
                if self.core.pipe.enabled() && !self.core.pending.is_empty() {
                    cut_batch(&mut self.rules, &mut self.core, ctx);
                }
            }
        }
        maybe_drive_migration(&mut self.rules, &mut self.core, ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<Msg>, token: u64) {
        match token & KIND_MASK {
            T_ELECTION => {
                if !self.rules.is_leader(&self.core) {
                    self.rules.on_election_timeout(&mut self.core, ctx);
                }
            }
            T_HEARTBEAT => self.rules.on_heartbeat(&mut self.core, ctx),
            T_BATCH => {
                if token & !KIND_MASK != self.core.batch_gen {
                    return;
                }
                self.core.batch_armed = false;
                if !self.core.pending.is_empty() {
                    flush_pending(&mut self.rules, &mut self.core, ctx);
                }
                if !self.core.pending.is_empty() {
                    // Still buffered (e.g. no leader known): retry later.
                    self.core.arm_batch(ctx);
                }
            }
            T_FSYNC => {
                let seq = token & !KIND_MASK;
                let batch = self.core.dur.on_fsync_complete(seq);
                ctx.trace_app("disk_fsync", batch, seq);
                while let Some((to, msg)) = self.core.dur.pop_synced_ack() {
                    ctx.send(to, msg);
                }
                // Start the next group-commit batch if one is already
                // waiting, then let the rules advance whatever the new
                // durable watermark unblocks (leader commit tallies).
                self.core.dur.maybe_issue(ctx);
                self.rules.on_durable(&mut self.core, ctx);
            }
            T_FSYNC_DELAY => {
                if token & !KIND_MASK == self.core.dur.delay_gen() {
                    self.core.dur.on_delay_fire(ctx);
                }
            }
            kind => self.rules.on_timer(&mut self.core, ctx, kind, token),
        }
        maybe_drive_migration(&mut self.rules, &mut self.core, ctx);
    }

    fn on_crash(&mut self) {
        // Shared volatile state: the pending batch, the batch timer, any
        // in-flight transfer bookkeeping, the pipeline window and the
        // leader hint die with the process. Durable state (and what of
        // it each protocol restores) is the rules' concern.
        self.core.pending.clear();
        self.core.batch_armed = false;
        // Retire every timer generation: a pre-crash in-flight timer
        // token must never match post-restart state, even if the runtime
        // redelivers it (the engine does not rely on the host dropping
        // timers across a restart). The election and heartbeat timers have
        // no generation: the simulator cancels them on the crash.
        self.core.batch_gen += 1;
        self.core.leader_hint = None;
        self.core.window_hint = None;
        self.core.snap_asm.clear();
        self.core.snap_send.reset();
        self.core.pipe.reset();
        // In-flight migration transfer state is volatile; the frozen /
        // absorbed bookkeeping itself is state-machine state and comes
        // back with the log / snapshot, re-arming the export pump.
        self.core.range_asm.clear();
        self.core.mig_acked.clear();
        self.core.mig_last_export.clear();
        self.core.mig_attempts.clear();
        // Unsynced durability writes are gone and their deferred acks
        // were never sent; `synced_seq` persists (it is the on-disk
        // state) so the rules' recovery below can truncate to it.
        self.core.dur.crash_reset();
        self.rules.on_crash(&mut self.core);
    }

    impl_actor_any!();
}
