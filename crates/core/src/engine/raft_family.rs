//! The Raft-family base: replication state and plumbing shared verbatim
//! by Raft and Raft*.
//!
//! Both protocols drive the same contiguous [`Log`] with the same
//! leader-side [`Replicator`], the same election/heartbeat shape, and
//! the same snapshot install/ack handling; they differ only in the
//! append acceptance rule (truncate vs no-shrink + ballot rewrite), the
//! vote rule (plain up-to-date check vs extras), and the commit rule
//! (§5.4.2 term check vs f-th largest match, optionally PQL-gated) —
//! the four functions of [`crate::raftstar::Flavor`]. [`RaftBase`] holds
//! the shared state and plumbing, [`crate::raftstar::RaftFamilyRules`]
//! the shared message handling, so a fix to either is written once.

use std::collections::VecDeque;
use std::sync::Arc;

use paxraft_sim::sim::{ActorId, Ctx};
use paxraft_sim::trace::SpanKind;

use crate::kv::KvStore;
use crate::log::{Entry, Log};
use crate::msg::{Msg, RaftMsg};
use crate::replicate::Replicator;
use crate::snapshot::{Snapshot, SnapshotStats};
use crate::types::{NodeId, Slot, Term};

use super::{transfer, EngineCore};

/// Raft roles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Passive replica.
    Follower,
    /// Campaigning for leadership.
    Candidate,
    /// Elected leader.
    Leader,
}

/// Replication state common to Raft and Raft*.
#[derive(Debug)]
pub struct RaftBase {
    /// Current term (ballot-encoded; see [`Term::encode`]).
    pub current_term: Term,
    /// Current role.
    pub role: Role,
    /// The replicated log.
    pub log: Log,
    /// Highest committed slot.
    pub commit_index: Slot,
    /// Highest applied slot.
    pub last_applied: Slot,
    /// Vote bitmap for the current candidacy.
    pub votes: u64,
    /// Leader-side per-follower progress.
    pub repl: Replicator,
    /// Highest log index covered by a *completed* fsync. Only this
    /// prefix survives a crash when durability is enabled; it also
    /// bounds how far this replica's own copy counts toward commitment
    /// (see [`RaftBase::durable_tail`]).
    pub synced_idx: Slot,
    /// Outstanding durability writes: `(write seq, last index covered)`
    /// in issue order, drained by [`RaftBase::absorb_synced`] as fsyncs
    /// complete.
    pub pending_sync: VecDeque<(u64, Slot)>,
    /// Highest slot a `Quorum` span was emitted for (span bookkeeping
    /// only — never consulted by protocol logic).
    pub quorum_mark: Slot,
}

impl RaftBase {
    /// Fresh follower state for an `n`-replica cluster.
    pub fn new(n: usize) -> Self {
        RaftBase {
            current_term: Term::ZERO,
            role: Role::Follower,
            log: Log::new(),
            commit_index: Slot::NONE,
            last_applied: Slot::NONE,
            votes: 0,
            repl: Replicator::new(n),
            synced_idx: Slot::NONE,
            pending_sync: VecDeque::new(),
            quorum_mark: Slot::NONE,
        }
    }

    /// Emits `Quorum` spans for slots newly covered by the **unclamped**
    /// replication tally (`upto` = the f-th largest match, before the
    /// durability clamp, after any protocol-specific term/holder check).
    /// From that instant only the durability clamp holds commit back,
    /// which is exactly the boundary that splits *replication* wait from
    /// *fsync* wait in the latency breakdown. Observation only: a single
    /// branch when spans are off, pure log reads when on.
    pub fn note_quorum(&mut self, ctx: &mut Ctx<Msg>, upto: Slot) {
        if !ctx.spans_enabled() {
            return;
        }
        while self.quorum_mark < upto {
            let s = if self.quorum_mark == Slot::NONE {
                self.log.first_index()
            } else {
                self.quorum_mark.next()
            };
            if let Some(e) = self.log.get(s) {
                if e.cmd.id.client != u32::MAX {
                    ctx.trace_span(SpanKind::Quorum, e.cmd.id.client, e.cmd.id.seq);
                }
            }
            self.quorum_mark = s;
        }
    }

    /// Records that the log through `upto` was written to the durable
    /// path: charges the disk model and remembers which fsync sequence
    /// will cover `upto`. No-op when durability is disabled.
    pub fn note_append_durable(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        bytes: usize,
        entries: usize,
        upto: Slot,
    ) {
        core.durable_write(ctx, bytes, entries);
        if core.dur.enabled() {
            self.pending_sync.push_back((core.dur.write_seq(), upto));
        }
    }

    /// A conflicting rewrite replaced the suffix from `from` on:
    /// durability claims above `from - 1` are void, both the completed
    /// watermark and any fsync still in flight (its completion must not
    /// claim indexes whose *content* it never covered). Call **before**
    /// recording the rewrite's own durable write.
    pub fn note_rewrite_from(&mut self, from: Slot) {
        let cap = if from == Slot::NONE {
            from
        } else {
            from.prev()
        };
        self.synced_idx = self.synced_idx.min(cap);
        // Rewritten slots carry new commands: their quorum is a fresh
        // observation (span bookkeeping only).
        self.quorum_mark = self.quorum_mark.min(cap);
        for p in &mut self.pending_sync {
            p.1 = p.1.min(cap);
        }
    }

    /// Advances `synced_idx` past every pending write the engine's
    /// durable watermark now covers. Called from the `on_durable` hook.
    pub fn absorb_synced(&mut self, core: &EngineCore) {
        while let Some(&(seq, upto)) = self.pending_sync.front() {
            if seq > core.dur.synced_seq() {
                break;
            }
            self.synced_idx = self.synced_idx.max(upto);
            self.pending_sync.pop_front();
        }
    }

    /// The highest log index this replica's own copy may vouch for in a
    /// commit tally: the fsynced prefix when durability is enabled (the
    /// compacted floor is snapshot-durable by construction), the whole
    /// log otherwise.
    ///
    /// This is the leader-side half of the ack-after-fsync invariant:
    /// without it, f durable followers plus the leader's volatile copy
    /// could commit an entry, the leader could crash, and the next
    /// election quorum (f+1 of the surviving 2f) need not include any
    /// holder of the entry — an acknowledged write would be lost.
    pub fn durable_tail(&self, core: &EngineCore) -> Slot {
        if core.dur.enabled() {
            self.synced_idx.max(self.log.last_included().0)
        } else {
            self.log.last_index()
        }
    }

    /// Arms the randomized election timer (bootstrap-fast while the
    /// replica has never seen a term).
    pub fn arm_election(&self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        core.arm_election(ctx, self.current_term == Term::ZERO);
    }

    /// Adopts a higher term and falls back to follower.
    pub fn step_down(&mut self, core: &mut EngineCore, term: Term, ctx: &mut Ctx<Msg>) {
        self.current_term = term;
        self.role = Role::Follower;
        self.arm_election(core, ctx);
    }

    /// Starts a campaign: fresh owned term, candidate role, self-vote,
    /// `RequestVote` broadcast, election retry timer. The caller then
    /// checks for the degenerate immediate win.
    pub fn begin_election(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        self.current_term = self.current_term.next_for(core.cfg.id, core.cfg.n);
        self.role = Role::Candidate;
        core.leader_hint = None;
        self.votes = core.me_bit();
        for peer in core.cfg.others() {
            ctx.send(
                core.cfg.peer(peer),
                Msg::Raft(RaftMsg::RequestVote {
                    term: self.current_term,
                    last_idx: self.log.last_index(),
                    last_term: self.log.last_term(),
                }),
            );
        }
        self.arm_election(core, ctx);
    }

    /// Sends each follower its tailored suffix — one built round for all
    /// the followers at the same cursor.
    pub fn broadcast_append(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        let mut built = None;
        for peer in core.cfg.others() {
            self.send_round(core, ctx, peer, usize::MAX, &mut built);
        }
    }

    /// Sends `peer` the log suffix after its send cursor — one pipelined
    /// replication round. When the peer's window is full the round is
    /// withheld (the backlog ships from [`RaftBase::pump`] as acks free
    /// slots, or after the heartbeat rewinds a timed-out peer); empty
    /// (heartbeat) appends are never gated. When the follower's next
    /// entry was compacted away, ships a snapshot instead and pipelines
    /// the retained suffix behind it — FIFO links deliver the chunks
    /// first, so the Append matches once the snapshot installs.
    pub fn send_append_to(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, peer: NodeId) {
        self.send_round(core, ctx, peer, usize::MAX, &mut None);
    }

    /// [`RaftBase::send_append_to`] carrying at most `cap` entries;
    /// returns how many went out, `None` when no message did. `built` is
    /// the round last built in the caller's loop over peers (one `cap`,
    /// the log untouched in between) and the cursor it was built after: a
    /// peer at that cursor shares it.
    fn send_round(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        peer: NodeId,
        cap: usize,
        built: &mut Option<(Slot, Arc<[Entry]>)>,
    ) -> Option<usize> {
        let mut prev = self.repl.next_prev(peer);
        let has_entries = self.log.last_index() > prev;
        if has_entries && !core.pipe.has_room(peer) {
            return None; // window full: new rounds wait for acks
        }
        if prev < self.log.last_included().0 {
            let point = self.snapshot_point();
            // `None`: a transfer is in flight; let it finish.
            prev = transfer::ship_snapshot(core, ctx, peer, point, self.current_term)?;
        }
        let prev_term = self.log.term_at(prev).unwrap_or(Term::ZERO);
        let entries = match built {
            Some((after, round)) if *after == prev => round.clone(),
            _ => {
                let round = self.log.suffix_bounded(prev, cap);
                built.insert((prev, round)).1.clone()
            }
        };
        // A round cut short by `cap` ends where its entries do.
        let tail = if entries.len() < cap {
            self.log.last_index()
        } else {
            Slot(prev.0 + cap as u64)
        };
        let shipped = entries.len();
        self.repl.mark_sent(peer, prev, tail, ctx.now());
        if shipped > 0 {
            core.pipe.on_sent(peer, tail, ctx.now());
        }
        // Piggyback our window occupancy so followers can cut forward
        // batches adaptively (empty heartbeat appends refresh the hint
        // even on an idle cluster).
        let window_room = core.pipe.quorum_has_room(core.cfg.id, core.cfg.n);
        ctx.send(
            core.cfg.peer(peer),
            Msg::Raft(RaftMsg::Append {
                term: self.current_term,
                prev,
                prev_term,
                entries,
                commit: self.commit_index,
                window_room,
            }),
        );
        Some(shipped)
    }

    /// Ships `peer` the entries that accumulated while its pipeline
    /// window was full, one round per free slot. Called after an
    /// acknowledgement frees one. Each round carries at most the share
    /// [`super::pipeline::PipelineWindow::round_cap`] allows — the whole
    /// backlog, unless the peer pays a device barrier per entry.
    pub fn pump(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, peer: NodeId) {
        if self.role != Role::Leader {
            return;
        }
        let cap = core.pipe.round_cap(peer, self.log.last_index(), &core.dur);
        while self.log.last_index() > self.repl.next_prev(peer) {
            let Some(shipped) = self.send_round(core, ctx, peer, cap, &mut None) else {
                break;
            };
            core.pipe.note_pumped(shipped, cap);
        }
    }

    /// Leader heartbeat: timed retransmission of unacknowledged
    /// suffixes to every follower, then re-arm. A rewound peer's
    /// in-flight rounds are presumed lost, so its pipeline window is
    /// regressed and the retransmission starts a fresh round.
    pub fn heartbeat(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        if self.role != Role::Leader {
            return;
        }
        let mut built = None;
        for peer in core.cfg.others() {
            if self
                .repl
                .maybe_rewind(peer, ctx.now(), core.cfg.retry_interval)
            {
                core.pipe.on_regress(peer);
            }
            self.send_round(core, ctx, peer, usize::MAX, &mut built);
        }
        core.arm_heartbeat(ctx);
    }

    /// Applies the committed prefix in order; the leader answers
    /// clients at apply time. Migration commands run their engine hooks
    /// (`engine::apply_command`) here like everywhere else.
    pub fn apply_loop(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        while self.last_applied < self.commit_index {
            let next = self.last_applied.next();
            let Some(entry) = self.log.get(next) else {
                break;
            };
            let cmd = entry.cmd.clone();
            ctx.charge(core.cfg.costs.apply_per_cmd);
            let reply = super::apply_command(core, ctx, &cmd, self.role == Role::Leader);
            self.last_applied = next;
            if self.role == Role::Leader && cmd.id.client != u32::MAX {
                core.respond(ctx, cmd.id, reply);
            }
        }
    }

    /// Compacts the applied log prefix once it crosses the configured
    /// threshold, snapshotting the state machine first (the snapshot is
    /// the durable replacement for the discarded entries).
    pub fn maybe_compact(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        let floor = self.log.last_included().0;
        let applied_retained = (self.last_applied.0 - floor.0) as usize;
        if !core.cfg.snapshot.should_compact(applied_retained) {
            return;
        }
        transfer::checkpoint(core, ctx, self.snapshot_point());
        let discarded = self.log.compact_to(self.last_applied);
        core.snap_stats.entries_discarded += discarded as u64;
    }

    /// `(slot, term)` an outbound snapshot covers.
    pub fn snapshot_point(&self) -> (Slot, Term) {
        (
            self.last_applied,
            self.log.term_at(self.last_applied).unwrap_or(Term::ZERO),
        )
    }

    /// Gates an incoming snapshot chunk: reject stale senders, adopt
    /// the sender's term otherwise.
    pub fn accept_snapshot_chunk(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        from: ActorId,
        seal: Term,
    ) -> bool {
        if seal < self.current_term {
            ctx.send(
                from,
                Msg::Raft(RaftMsg::AppendReject {
                    term: self.current_term,
                    last_idx: self.log.last_index(),
                }),
            );
            return false;
        }
        self.current_term = seal;
        self.role = Role::Follower;
        core.leader_hint = Some(seal.owner(core.cfg.n));
        self.arm_election(core, ctx);
        true
    }

    /// Installs a reassembled snapshot (`transfer::install`) and
    /// reconciles the log with it — keeping a consistent retained suffix,
    /// else replacing the log with the snapshot's history. Returns whether
    /// it was fresh (a stale transfer changes nothing).
    pub fn install_snapshot(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        snap: Snapshot,
    ) -> bool {
        let (slot, term) = (snap.last_slot, snap.last_term);
        if slot <= self.last_applied {
            return false;
        }
        transfer::install(core, ctx, snap);
        self.last_applied = slot;
        self.commit_index = self.commit_index.max(slot);
        if self.log.term_at(slot) == Some(term) {
            // The log extends consistently past the snapshot: keep the
            // suffix, discard the covered prefix.
            self.log.compact_to(slot);
        } else {
            // Short or conflicting log: the snapshot replaces it. (For
            // Raft*, the "no erasing" restriction is about live appends;
            // replacing a log with committed state it lags behind is the
            // same transition Paxos checkpoint recovery performs, and any
            // accepted-but-uncommitted value this discards is retained by
            // the up-to-date leader that shipped the snapshot.)
            self.log.reset_to(slot, term);
        }
        // The install supersedes the log prefix, including any pending
        // fsync claims below the new floor.
        if core.dur.enabled() {
            let floor = self.log.last_included().0;
            self.synced_idx = self.synced_idx.max(floor);
            self.pending_sync.push_back((core.dur.write_seq(), floor));
        }
        true
    }

    /// Acknowledges a snapshot transfer — even a stale one: the applied
    /// prefix is committed state, so the leader may treat it as matched
    /// and resume normal appends from there. The ack attests to holding
    /// the snapshot, so it waits for the install's fsync.
    pub fn ack_snapshot(&self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, from: ActorId) {
        transfer::ack_snapshot(core, ctx, from, self.current_term, self.last_applied);
    }

    /// Handles a snapshot acknowledgement; returns whether the
    /// follower's match advanced at the current term (the caller then
    /// runs its commit rule).
    pub fn on_snapshot_ack(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        from: ActorId,
        seal: Term,
        upto: Slot,
    ) -> bool {
        if seal > self.current_term {
            self.step_down(core, seal, ctx);
        } else if seal == self.current_term && self.role == Role::Leader {
            let peer = core.cfg.node_of(from);
            core.snap_send.finish(peer.0 as usize);
            core.pipe.on_ack(peer, upto);
            let advanced = self.repl.on_ack(peer, upto);
            self.pump(core, ctx, peer);
            return advanced;
        }
        false
    }

    /// Folds the log's retained-size peaks into the reported stats.
    pub fn decorate_stats(&self, stats: &mut SnapshotStats) {
        stats.note_log_size(self.log.peak_entries(), self.log.peak_bytes());
    }

    /// Crash-restart: terms, the *fsynced* log prefix and the durable
    /// snapshot persist; roles, votes, the state machine and any
    /// unsynced log suffix do not. With durability enabled the suffix
    /// above the durable watermark is truncated — those entries never
    /// reached the disk, and no ack attesting to them was ever sent
    /// (the ack-after-fsync invariant), so discarding them cannot lose
    /// acknowledged state. The state machine restarts from the snapshot
    /// (the compacted prefix is not replayable) and re-applies the
    /// retained log as the commit index re-advances.
    pub fn crash_reset(&mut self, core: &mut EngineCore) {
        if core.dur.enabled() {
            // Recover to the fsynced prefix. The compacted floor is
            // durable by construction (the snapshot file is fsynced at
            // compaction), so the watermark never truncates below it.
            let keep = self.synced_idx.max(self.log.last_included().0);
            if self.log.last_index() > keep {
                self.log.truncate_from(keep.next());
            }
            self.synced_idx = keep;
            self.pending_sync.clear();
        }
        self.role = Role::Follower;
        self.votes = 0;
        self.commit_index = Slot::NONE;
        self.last_applied = Slot::NONE;
        core.kv = KvStore::new();
        if let Some(snap) = &core.stable_snap {
            core.kv.restore(&snap.kv);
            self.last_applied = snap.last_slot;
            self.commit_index = snap.last_slot;
        }
        // Span bookkeeping restarts at the recovered floor.
        self.quorum_mark = self.commit_index;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DurabilityConfig, ReplicaConfig};
    use crate::kv::{CmdId, Command};
    use crate::log::Entry;
    use crate::msg::EngineMsg;
    use paxraft_sim::impl_actor_any;
    use paxraft_sim::net::{NetConfig, Region};
    use paxraft_sim::sim::{Actor, Simulation};
    use paxraft_sim::time::{SimDuration, SimTime};

    type Step = fn(&mut RaftBase, &mut EngineCore, &mut Ctx<Msg>);

    /// A leader's base and core driven by hand: each message delivered
    /// runs the next scripted step inside a real handler context.
    struct Leader {
        base: RaftBase,
        core: EngineCore,
        steps: VecDeque<Step>,
    }
    impl Actor<Msg> for Leader {
        fn on_message(&mut self, ctx: &mut Ctx<Msg>, _from: ActorId, _msg: Msg) {
            let step = self.steps.pop_front().expect("a step per message");
            step(&mut self.base, &mut self.core, ctx);
        }
        impl_actor_any!();
    }

    /// A follower that only counts: the length of every round it is sent.
    #[derive(Default)]
    struct Sink {
        rounds: Vec<usize>,
    }
    impl Actor<Msg> for Sink {
        fn on_message(&mut self, _ctx: &mut Ctx<Msg>, _from: ActorId, msg: Msg) {
            if let Msg::Raft(RaftMsg::Append { entries, .. }) = msg {
                self.rounds.push(entries.len());
            }
        }
        impl_actor_any!();
    }

    fn append(base: &mut RaftBase, count: u64) {
        for _ in 0..count {
            let seq = base.log.last_index().0 + 1;
            base.log.append(Entry {
                term: base.current_term,
                bal: base.current_term,
                cmd: Command::put(CmdId { client: 0, seq }, seq, vec![0; 8]),
            });
        }
    }

    /// Fills the window with eight one-entry rounds, then lets 300 entries
    /// pile up behind it.
    fn fill_window_then_backlog(base: &mut RaftBase, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        base.role = Role::Leader;
        base.current_term = Term(3);
        for _ in 0..8 {
            append(base, 1);
            base.broadcast_append(core, ctx);
        }
        append(base, 300);
        base.broadcast_append(core, ctx);
    }

    fn ack(base: &mut RaftBase, core: &mut EngineCore, ctx: &mut Ctx<Msg>, peer: u32, upto: u64) {
        core.pipe.on_ack(NodeId(peer), Slot(upto));
        base.repl.on_ack(NodeId(peer), Slot(upto));
        base.pump(core, ctx, NodeId(peer));
    }

    /// Runs the script on a three-replica layout and returns the rounds
    /// each follower received after the eight that filled its window.
    fn pumped_rounds(durability: DurabilityConfig, steps: &[Step]) -> [Vec<usize>; 2] {
        let mut sim = Simulation::new(NetConfig::default(), 1);
        let mut cfg = ReplicaConfig::wan_default(NodeId(0), 3);
        cfg.peers = (0..3).map(ActorId).collect();
        cfg.durability = durability;
        let leader = Leader {
            base: RaftBase::new(3),
            core: EngineCore::new(cfg),
            steps: steps.iter().copied().collect(),
        };
        sim.add_actor(Region::Oregon, Box::new(leader));
        let sinks = [Region::Ohio, Region::Ireland]
            .map(|region| sim.add_actor(region, Box::new(Sink::default())));
        let stub = Msg::Engine(EngineMsg::RangeAck {
            group: 0,
            version: 1,
            header_bytes: 0,
        });
        for i in 0..steps.len() as u64 {
            sim.send_external(ActorId(0), stub.clone(), SimDuration::from_millis(i));
        }
        sim.run_until(SimTime::from_secs(1));
        sinks.map(|sink| {
            let rounds = &sim.actor::<Sink>(sink).rounds;
            assert_eq!(rounds[..8], [1; 8], "the window filled first");
            rounds[8..].to_vec()
        })
    }

    fn per_entry() -> DurabilityConfig {
        DurabilityConfig::per_entry(SimDuration::from_millis(1))
    }

    /// Eight acks arriving together over a 300-entry backlog. Under
    /// per-entry fsync each freed slot ships its share of what is
    /// outstanding — eight near-equal rounds; without a barrier per entry
    /// behind the ack the first freed slot ships all 300 and the other
    /// seven have nothing left to send.
    #[test]
    fn bunched_acks_ship_shares_under_per_entry_fsync_and_the_backlog_otherwise() {
        fn eight_acks(base: &mut RaftBase, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
            for upto in 1..=8 {
                ack(base, core, ctx, 1, upto);
            }
        }
        let steps = [fill_window_then_backlog as Step, eight_acks];
        let [sized, untouched] = pumped_rounds(per_entry(), &steps);
        // 307 outstanding at the first ack, 300 at the last.
        assert_eq!(sized, [39, 39, 39, 38, 38, 38, 38, 31]);
        assert_eq!(sized.iter().sum::<usize>(), 300);
        assert!(untouched.is_empty(), "the silent peer's window stays full");
        let group = DurabilityConfig::group_commit(
            SimDuration::from_millis(1),
            32,
            SimDuration::from_millis(1),
        );
        for unsized_rounds in [group, DurabilityConfig::default()] {
            assert_eq!(pumped_rounds(unsized_rounds, &steps)[0], [300]);
        }
    }

    /// One ack that retires the whole window frees eight slots at once:
    /// the pump fills them all, 38 entries each, the last taking the
    /// remainder.
    #[test]
    fn a_cumulative_ack_fills_every_freed_slot_with_an_equal_share() {
        fn one_ack(base: &mut RaftBase, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
            ack(base, core, ctx, 2, 8);
        }
        let steps = [fill_window_then_backlog as Step, one_ack];
        let [_, sized] = pumped_rounds(per_entry(), &steps);
        assert_eq!(sized, [38, 38, 38, 38, 38, 38, 38, 34]);
    }
}
