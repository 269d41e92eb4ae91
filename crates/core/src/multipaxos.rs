//! MultiPaxos (Figure 1): a stable-leader multi-decree Paxos, expressed
//! as [`ProtocolRules`] over the shared [`ReplicaEngine`].
//!
//! Structure follows the paper's pseudocode: `Phase1a`/`Phase1b` and
//! `Phase1Succeed` elect a proposer by ballot; `Phase2a`/`Phase2b`
//! replicate values per instance; `Learn` marks instances chosen on a
//! majority of `acceptOK`s. Instances commit **out of order** (the
//! property that blocks a direct Raft→Paxos mapping, Section 3), but
//! execution still applies the log prefix in order.
//!
//! Batching, forwarding, client dedup and checkpoint transfer are
//! engine-provided, and the instance table with its bookkeeping is the
//! family's `PaxosBase`, shared with Mencius. This file holds what makes
//! it *single-leader* Paxos: ballots, who may grant a phase 1 and what its
//! winner proposes (the exchange is the family's, a Mencius revocation's
//! too: `engine/phase1.rs`), the proposer's numbering and send cursors,
//! the Accept rounds with the commit they carry, the heartbeat's
//! retransmission and replay, the execute loop (the proposer answers the
//! client; a restarted replica runs its chosen instances above the
//! checkpoint again), and what a crash keeps.
//!
//! Under a lease read mode the engine runs PQL or LL (`engine/lease.rs`):
//! `acceptOK` carries the holders and `Learn` passes the lease gate; the
//! family's base keeps the conflict index the local reads consult.
//!
//! # Learning the way Raft commits
//!
//! The decision is the executed prefix, and it travels by the engine's
//! carrier rule (`engine/links.rs`): every `Accept`, the heartbeat's
//! included, carries it as `commit`, and a `Learn { ballot, commit }` goes
//! alone to an acceptor not told it yet whose link idles past an eighth
//! of the round trip that completed the last quorum.
//!
//! A decision counts only at its ballot. The proposer at ballot `b`
//! vouches for values accepted at `b` or above; a lagging acceptor may
//! still hold an earlier leader's proposal for a slot `b` decided
//! otherwise. Such a slot stays learnt-without-value until a value at the
//! deciding ballot arrives — the leader's `Accept` or its stalled-peer
//! replay (`PaxosBase::learn_at`).
//!
//! # Durability (group commit)
//!
//! The family's (`engine/paxos_family.rs`, *Durability*), a `prepareOK`
//! included: it reports accepted values.

use paxraft_sim::sim::{ActorId, Ctx};
use paxraft_sim::trace::SpanKind;

use crate::config::ReplicaConfig;
use crate::engine::paxos_family::{ack_bit, Cell, PaxosBase};
use crate::engine::phase1::Phase1;
use crate::engine::slots::Run;
use crate::engine::{self, lease, EngineCore, ProtocolRules, ReplicaEngine, Waiting, T_LEASE};
use crate::kv::Command;
use crate::msg::{Msg, PaxosMsg, CHECKPOINT_ACK_HEADER, CHECKPOINT_CHUNK_HEADER};
use crate::snapshot::Snapshot;
use crate::types::{NodeId, Slot, Term};

/// A MultiPaxos replica (proposer + acceptor + learner): the shared
/// engine running [`PaxosRules`].
pub type MultiPaxosReplica = ReplicaEngine<PaxosRules>;

/// What MultiPaxos adds on top of the engine and the family base:
/// ballots, phase 1, and the single proposer's numbering.
pub struct PaxosRules {
    /// Highest ballot seen (`s.ballot`).
    ballot: Term,
    /// Figure 1's `phase1Succeeded`: this replica is the active proposer.
    phase1_succeeded: bool,
    /// The out-of-order instance store and its bookkeeping.
    base: PaxosBase,
    /// Leader's next unused instance id.
    next_slot: Slot,
    /// The campaign's `PrepareOk`s, this replica's own among them.
    phase1: Phase1,
    /// Per acceptor: the executed prefix last told it.
    told: Vec<Slot>,
    /// Acceptor: the highest commit point learnt; a later one is scanned
    /// only above it.
    learnt: Slot,
    /// Executed-prefix advances that rode an `Accept`.
    commits_carried: u64,
    /// `Learn`s sent on their own, to an idle acceptor.
    learns_alone: u64,
}

impl MultiPaxosReplica {
    /// Creates a replica; `cfg.read_mode` selects log reads, PQL or LL.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: ReplicaConfig) -> Self {
        cfg.validate().expect("invalid replica config");
        let (n, me) = (cfg.n, cfg.id);
        ReplicaEngine::from_parts(
            EngineCore::new(cfg),
            PaxosRules {
                ballot: Term::ZERO,
                phase1_succeeded: false,
                base: PaxosBase::new(n, me),
                next_slot: Slot(1),
                phase1: Phase1::default(),
                told: vec![Slot::NONE; n],
                learnt: Slot::NONE,
                commits_carried: 0,
                learns_alone: 0,
            },
        )
    }

    /// The current ballot.
    pub fn ballot(&self) -> Term {
        self.rules.ballot
    }

    /// Applied prefix (for tests).
    pub fn exec_index(&self) -> Slot {
        self.rules.base.exec_index
    }

    /// Chosen value at a slot, if committed (for agreement tests).
    pub fn committed_at(&self, slot: Slot) -> Option<&Command> {
        let base = &self.rules.base;
        base.cells.get(slot).filter(|_| base.committed(slot))?.cmd()
    }
}

impl PaxosRules {
    fn arm_election(&self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        core.arm_election(ctx, self.ballot == Term::ZERO);
    }

    /// Sends `peer` an `Accept` of `items` at this ballot, carrying the
    /// executed prefix as its `commit`.
    fn send_accept(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        peer: NodeId,
        items: Run<Cell>,
        window_room: bool,
    ) {
        let commit = self.base.exec_index;
        let told = std::mem::replace(&mut self.told[peer.0 as usize], commit);
        self.commits_carried += u64::from(commit > told);
        core.links.stamp(peer, ctx.now());
        let accept = PaxosMsg::Accept {
            ballot: self.ballot,
            items,
            window_room,
            commit,
        };
        ctx.send(core.cfg.peer(peer), Msg::Paxos(accept));
    }

    /// Acceptor: learns `(exec_index, commit]` on the word of the
    /// proposer at `ballot`, above what an earlier commit covered and up
    /// to the highest instance held (a later `commit` covers the rest).
    fn learn_commit(&mut self, ballot: Term, commit: Slot) {
        let from = self.learnt.max(self.base.exec_index).next();
        let upto = commit.min(self.log_tail());
        if upto >= from {
            self.learnt = upto;
            self.base.learn_at((from.0..=upto.0).map(Slot), ballot);
        }
    }

    /// Ships one pipelined Accept round to every acceptor whose window has
    /// room; a saturated one gets the backlog from
    /// [`PaxosRules::pump_accepts`] as its acks free slots. A quorum
    /// suffices, so a round a slow minority skips commits undelayed.
    fn send_accept_round(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, items: &Run<Cell>) {
        let Some(upto) = items.last() else {
            return;
        };
        for peer in core.cfg.others() {
            if !core.pipe.has_room(peer) {
                continue;
            }
            core.pipe.on_sent(peer, upto, ctx.now());
            let window_room = core.pipe.quorum_has_room(core.cfg.id, core.cfg.n);
            self.send_accept(core, ctx, peer, items.clone(), window_room);
        }
    }

    /// Ships `peer` the uncommitted instances past its send cursor
    /// ([`crate::engine::PipelineWindow::sent_through`]) that its full
    /// window made it skip, once one of its acks frees a slot: the Raft
    /// family's backlog pump, one round per ack of at most 64 instances or
    /// the window's share ([`crate::engine::pipeline::PipelineWindow::round_cap`]).
    fn pump_accepts(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, peer: NodeId) {
        let highest = Slot(self.next_slot.0.saturating_sub(1));
        let cursor = core.pipe.sent_through(peer);
        if cursor >= highest || !core.pipe.has_room(peer) {
            return;
        }
        let cap = core.pipe.round_cap(peer, highest, &core.dur).min(64);
        let items = self.cut(cursor.next().., cap, false);
        let Some(upto) = items.last() else {
            // Everything past the cursor is committed; a commit covers it.
            core.pipe.skip_to(peer, highest);
            return;
        };
        let count = items.len();
        core.pipe.on_sent(peer, upto, ctx.now());
        if count < cap {
            core.pipe.skip_to(peer, highest); // the round took all that waited
        }
        core.pipe.note_pumped(count, cap);
        let window_room = core.pipe.quorum_has_room(core.cfg.id, core.cfg.n);
        self.send_accept(core, ctx, peer, items, window_room);
    }

    /// Figure 1 `Phase1a`: pick a fresh owned ballot and prepare.
    fn start_phase1(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        self.ballot = self.ballot.next_for(core.cfg.id, core.cfg.n);
        self.phase1_succeeded = false;
        // Self-votes recorded under the old ballot no longer apply.
        self.base.forget_self_votes();
        let range = (self.first_unchosen(), None);
        self.phase1 = (self.base).open_phase1(core, ctx, self.ballot, range);
        self.arm_election(core, ctx); // retry if this round stalls
    }

    fn first_unchosen(&self) -> Slot {
        let mut s = self.base.exec_index.next();
        while self.base.committed(s) {
            s = s.next();
        }
        s
    }

    /// The first `count` instances in `range` holding a value chosen or
    /// not, as `committed` says, as one round (`engine/slots.rs`,
    /// *Rounds*): a run of consecutive slots is a view of the table.
    fn cut(
        &self,
        range: impl std::ops::RangeBounds<Slot> + Clone,
        count: usize,
        committed: bool,
    ) -> Run<Cell> {
        let held = |s, c: &Cell| c.cmd().is_some() && self.base.committed(s) == committed;
        self.base.cells.cut(range, 1, count, held)
    }

    /// Figure 1 `Phase1Succeed`: adopt safe values (`engine/phase1.rs`)
    /// and go active.
    fn try_phase1_succeed(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        if self.phase1_succeeded || !self.phase1.won(core.cfg.n) {
            return;
        }
        // The replies are spent: none is read again after success.
        let mut phase1 = std::mem::take(&mut self.phase1);
        let (start, end) = (phase1.first_open(self.first_unchosen(), 1), phase1.tail);
        let open = (start.0..=end.0)
            .map(Slot)
            .filter(|&s| !self.base.committed(s));
        let values: Vec<(Slot, Command)> = phase1.adopt(open).collect();
        // Figure 1 `Phase2a` over the adopted values and the gaps' no-ops.
        let items = (self.base).propose(core, ctx, self.ballot, values, 1, uncommitted);
        // A restarted proposer executes what it kept before it proposes.
        self.try_execute(core, ctx);
        self.phase1_succeeded = true;
        core.leader_hint = Some(core.cfg.id);
        core.pipe.reset_for_leadership(Slot::NONE);
        self.told.fill(Slot::NONE);
        self.next_slot = Slot(end.0.max(self.log_tail().0) + 1);
        self.send_accept_round(core, ctx, &items);
        core.arm_heartbeat(ctx);
        // Anything buffered while campaigning goes out now.
        engine::flush_pending(self, core, ctx);
    }

    /// Applies the contiguous committed prefix; the proposer answers
    /// clients at apply time.
    fn try_execute(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        loop {
            let next = self.base.exec_index.next();
            if !self.base.committed(next) {
                break;
            }
            let cmd = self.base.cells.get(next).and_then(Cell::cmd);
            let cmd = cmd.expect("committed instance has a value");
            ctx.charge(core.cfg.costs.apply_per_cmd);
            let reply = engine::apply_command(core, ctx, cmd, self.phase1_succeeded);
            let id = cmd.id;
            self.base.executed(core, next);
            if self.phase1_succeeded && id.client != u32::MAX {
                core.respond(ctx, id, reply);
            }
        }
        lease::serve_parked(core, ctx, self.base.exec_index, self.phase1_succeeded);
        if self.base.compaction_due(core) {
            let executed = self.base.exec_index;
            self.base.compact_through(core, ctx, executed);
        }
    }

    fn on_paxos(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        from: ActorId,
        msg: PaxosMsg,
    ) {
        match msg {
            PaxosMsg::Prepare { ballot, range } => {
                // Figure 1 Phase1b.
                if ballot > self.ballot {
                    self.ballot = ballot;
                    self.phase1_succeeded = false;
                    core.leader_hint = Some(ballot.owner(core.cfg.n));
                    self.arm_election(core, ctx);
                    (self.base).answer_phase1(core, ctx, from, ballot, range, ballot);
                }
            }
            PaxosMsg::PrepareOk {
                ballot,
                entries,
                log_tail,
                floor,
            } => {
                if ballot == self.ballot && !self.phase1_succeeded {
                    let node = core.cfg.node_of(from);
                    self.phase1.grant(node, entries, log_tail, floor);
                    self.try_phase1_succeed(core, ctx);
                }
            }
            PaxosMsg::Accept {
                ballot,
                items,
                window_room,
                commit,
            } => {
                // Figure 1 Phase2b.
                if ballot >= self.ballot {
                    if ballot > self.ballot {
                        self.ballot = ballot;
                        self.phase1_succeeded = false;
                    }
                    core.leader_hint = Some(ballot.owner(core.cfg.n));
                    core.note_window_hint(window_room, ctx.now());
                    let bytes: usize = items.values().map(|(_, c)| c.size_bytes()).sum();
                    ctx.charge(
                        core.cfg.costs.append_fixed
                            + core.cfg.costs.append_per_cmd * items.len() as u64
                            + core.cfg.costs.size_cost(bytes),
                    );
                    // The ballot was checked for the whole message, and
                    // the freshly accepted values are one disk write.
                    let got = (self.base).accept(core, ctx, ballot, &items, |_, _| true);
                    // No cell's ballot exceeds the replica's.
                    let cell = |s| self.base.cells.get(s).expect("acked");
                    let at = |s| self.base.committed(s) || cell(s).bal() == ballot;
                    debug_assert!(got.acked.iter().all(at));
                    self.arm_election(core, ctx); // accepts double as heartbeats
                    self.learn_commit(ballot, commit);
                    // The acceptOK leaves after the fsync covering them.
                    let ok = Msg::Paxos(PaxosMsg::AcceptOk {
                        ballot,
                        slots: got.acked,
                        exec: self.base.exec_index,
                        holders: lease::holders(core, ctx.now()),
                    });
                    core.ack_after_sync(ctx, from, ok);
                    // A proposer asking below our floor gets the checkpoint.
                    if got.below_floor {
                        let proposer = core.cfg.node_of(from);
                        self.base.ship_checkpoint(core, ctx, proposer, self.ballot);
                    }
                    self.try_execute(core, ctx);
                }
            }
            PaxosMsg::AcceptOk {
                ballot,
                slots,
                exec,
                holders,
            } => {
                // Figure 1 Learn.
                let node = core.cfg.node_of(from);
                self.base.note_peer_exec(node, exec);
                let shipped = slots.max().and_then(|upto| core.pipe.on_ack(node, upto));
                if ballot == self.ballot && self.phase1_succeeded {
                    ctx.charge(core.cfg.costs.ack_process);
                    lease::report(core, node, holders);
                    let (now, mut chosen) = (ctx.now(), false);
                    self.base.tally(
                        slots.iter(),
                        ack_bit(node),
                        |_| true,
                        |acks| lease::admits(core, acks, now),
                        |_| chosen = true,
                        |id| ctx.trace_span(SpanKind::Quorum, id.client, id.seq),
                    );
                    // An acceptor's executed prefix is chosen: what we
                    // hold there at our own ballot is the chosen value by
                    // phase 1's safety argument (a stale-ballot value
                    // waits for a Learn or a checkpoint). Only
                    // `(exec_index, exec]` can hold such an instance, and
                    // an ack trailing our own prefix teaches nothing.
                    let ahead = self.base.exec_index.0 + 1..=exec.min(self.log_tail()).0;
                    for s in ahead.map(Slot) {
                        let at = |i: &Cell| i.cmd().is_some() && i.bal() == self.ballot;
                        if self.base.cells.get(s).is_some_and(at) && !self.base.committed(s) {
                            self.base.commit(s);
                            chosen = true;
                        }
                    }
                    if chosen {
                        // This ack's round trip sets how long the decision
                        // may wait for a carrier.
                        if let Some(at) = shipped {
                            let rtt = ctx.now().since(at);
                            for peer in core.cfg.others() {
                                core.links.decisions_wait(peer, rtt, false);
                            }
                        }
                        self.try_execute(core, ctx);
                    }
                    // The freed window slot may have a backlog waiting.
                    self.pump_accepts(core, ctx, node);
                }
            }
            PaxosMsg::Learn { ballot, commit } => {
                self.learn_commit(ballot, commit);
                self.try_execute(core, ctx);
            }
        }
    }

    /// Heartbeat: retransmit uncommitted instances in an `Accept` whose
    /// `commit` re-teaches every acceptor the executed prefix, and catch
    /// lagging acceptors up — by instance replay while their gap is still
    /// retained, by checkpoint once it is not.
    fn heartbeat(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        if !self.phase1_succeeded {
            return;
        }
        // Rounds whose acks never came are lost; the re-send covers them.
        core.pipe.expire_stale(ctx.now(), engine::RETRY_INTERVAL);
        // Nothing uncommitted: every acceptor shares the empty round.
        let from = self.base.exec_index.next();
        let retransmit = self.cut(from.., usize::MAX, false);
        // The heartbeat Accept doubles as the hint refresh: even an idle
        // cluster re-teaches acceptors the proposer's window occupancy.
        let window_room = core.pipe.quorum_has_room(core.cfg.id, core.cfg.n);
        for peer in core.cfg.others() {
            self.send_accept(core, ctx, peer, retransmit.clone(), window_room);
        }
        // Catch-up of *stalled* acceptors, 64 instances a round (below
        // the floor, by checkpoint): an Accept whose `commit` chooses them.
        for peer in core.cfg.others() {
            let Some(from) = self.base.stalled_peer(core, ctx, peer, self.ballot) else {
                continue;
            };
            let Some((upto, _)) = self.base.cells.range(from..).take(64).last() else {
                continue;
            };
            let replay = self.cut(from..=upto, usize::MAX, true);
            if !replay.is_empty() {
                self.send_accept(core, ctx, peer, replay, window_room);
            }
        }
        core.arm_heartbeat(ctx);
    }
}

/// What a proposal carries: the instances not chosen yet.
fn uncommitted(base: &PaxosBase, s: Slot, _: &Cell) -> bool {
    !base.committed(s)
}

impl ProtocolRules for PaxosRules {
    fn can_propose(&self, _core: &EngineCore) -> bool {
        self.phase1_succeeded
    }

    fn applied_index(&self, _core: &EngineCore) -> Slot {
        self.base.exec_index
    }

    fn log_tail(&self) -> Slot {
        self.base.tail()
    }

    /// Figure 1 `Phase2a`, batched.
    fn propose(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, cmds: &mut Vec<Command>) {
        // Fresh slots: past everything a quorum reported to phase 1.
        // The round is a view of the cells the batch fills.
        let first = self.next_slot;
        self.next_slot = Slot(first.0 + cmds.len() as u64);
        let numbered = (first.0..).map(Slot).zip(cmds.drain(..));
        debug_assert!((first.0..self.next_slot.0).all(|s| self.base.cells.get(Slot(s)).is_none()));
        let items = (self.base).propose(core, ctx, self.ballot, numbered, 1, uncommitted);
        self.send_accept_round(core, ctx, &items);
    }

    fn on_start(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        self.arm_election(core, ctx);
    }

    fn on_election_timeout(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        self.start_phase1(core, ctx);
    }

    fn on_heartbeat(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        self.heartbeat(core, ctx);
    }

    /// After a lease renewal, an expired holder may let an instance that
    /// has its quorum through the gate: re-tally every open one.
    fn on_timer(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, kind: u64, _token: u64) {
        if kind == T_LEASE && self.phase1_succeeded {
            let (now, mut chosen) = (ctx.now(), false);
            let open = (self.base.exec_index.0 + 1..self.next_slot.0).map(Slot);
            let admits = |acks| lease::admits(core, acks, now);
            self.base
                .tally(open, 0, |_| true, admits, |_| chosen = true, |_| {});
            if chosen {
                self.try_execute(core, ctx);
            }
        }
    }

    fn on_msg(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, from: ActorId, msg: Msg) {
        if let Msg::Paxos(p) = msg {
            self.on_paxos(core, ctx, from, p);
        }
    }

    fn accept_snapshot_chunk(
        &mut self,
        _core: &mut EngineCore,
        _ctx: &mut Ctx<Msg>,
        _from: ActorId,
        seal: Term,
    ) -> bool {
        // A stale proposer's checkpoint is ignored.
        seal >= self.ballot
    }

    /// The Paxos `Checkpoint`/`CheckpointOk` spelling is leaner on the
    /// wire than Raft's `InstallSnapshot`/`SnapshotAck`.
    fn snapshot_wire_overhead(&self) -> (usize, usize) {
        (CHECKPOINT_CHUNK_HEADER, CHECKPOINT_ACK_HEADER)
    }

    /// Installs a fully reassembled checkpoint.
    fn install_snapshot(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        from: ActorId,
        snap: Snapshot,
    ) {
        let covered = snap.last_slot;
        if self.base.install(core, ctx, snap).is_some() {
            if self.next_slot <= covered {
                self.next_slot = covered.next();
            }
            // A mid-campaign phase-1 picture is stale now; the armed
            // election timer retries with a fresh ballot.
            if !self.phase1_succeeded {
                self.phase1 = Phase1::default();
            }
            self.try_execute(core, ctx);
        }
        engine::ack_snapshot(core, ctx, from, self.ballot, self.base.exec_index);
    }

    fn on_snapshot_ack(
        &mut self,
        core: &mut EngineCore,
        _ctx: &mut Ctx<Msg>,
        from: ActorId,
        _seal: Term,
        upto: Slot,
    ) {
        let node = core.cfg.node_of(from);
        core.pipe.finish_snapshot(node);
        self.base.note_peer_exec(node, upto);
    }

    fn on_durable(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) -> bool {
        // An fsync landed: the proposer's own accepted values up to the
        // durable watermark now count toward their quorums.
        if !self.phase1_succeeded {
            return false;
        }
        // A vote recorded under a superseded ballot no longer applies
        // (the bitmap was reseeded at the new ballot).
        let (synced, ballot, now) = (core.dur.synced_seq(), self.ballot, ctx.now());
        let mut chosen = false;
        let admits = |acks| lease::admits(core, acks, now);
        (self.base).tally_synced_votes(synced, |bal, _| bal == ballot, admits, |_| chosen = true);
        // An fsync that chose nothing sends nothing: how many completions
        // a write takes stays invisible (`Ctx::fsync_serial`).
        if chosen {
            self.try_execute(core, ctx);
        }
        chosen
    }

    /// The executed prefix waits on an acceptor's link until told it.
    fn waiting(&self, peer: NodeId) -> Waiting {
        Waiting {
            decision: self.phase1_succeeded && self.told[peer.0 as usize] < self.base.exec_index,
            ack: false,
        }
    }

    /// Tells an idle acceptor the executed prefix in a `Learn`.
    fn send_alone(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, to: NodeId, _: Waiting) {
        let (ballot, commit) = (self.ballot, self.base.exec_index);
        self.told[to.0 as usize] = commit;
        self.learns_alone += 1;
        ctx.send(
            core.cfg.peer(to),
            Msg::Paxos(PaxosMsg::Learn { ballot, commit }),
        );
    }

    /// The family's work-paid-once counters, and how the executed prefix
    /// reached the acceptors: `commits_carried` advances that rode an
    /// `Accept`, `learns_alone` messages of their own.
    fn record_metrics(&self, sample: &mut crate::telemetry::MetricSample) {
        self.base.record_metrics(sample);
        sample.record("commits_carried", self.commits_carried as f64);
        sample.record("learns_alone", self.learns_alone as f64);
    }

    fn on_crash(&mut self, core: &mut EngineCore, floor: Slot) {
        // Stable: the ballot, the *fsynced* values and the decisions;
        // volatile: leadership and execution. A value no fsync covered is
        // gone (`PaxosBase::crash`), and an uncommitted instance that lost
        // it needs no placeholder: the promise is the replica's `ballot`.
        for (s, _) in self.base.crash(core, floor).into_iter().filter(|d| !d.1) {
            self.base.cells.remove(s);
        }
        self.phase1_succeeded = false;
        self.phase1 = Phase1::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{cluster_with, drive_until, TestClient};
    use paxraft_sim::sim::Simulation;
    use paxraft_sim::time::{SimDuration, SimTime};

    impl PaxosRules {
        /// The instance table, for the engine's lease rows.
        pub(crate) fn cells(&self) -> &crate::engine::slots::SlotRing<Cell> {
            &self.base.cells
        }
    }

    fn paxos_cluster(n: usize) -> (Simulation<Msg>, Vec<ActorId>, ActorId) {
        cluster_with(n, |cfg| {
            let mut cfg = cfg;
            cfg.initial_leader = Some(NodeId(0));
            Box::new(MultiPaxosReplica::new(cfg))
        })
    }

    /// A scripted acceptor: promises every `Prepare` and, when `accepts`,
    /// acknowledges every `Accept` reporting `exec` as its executed
    /// prefix. Keeps what it is sent, with the arrival time.
    struct PuppetAcceptor {
        accepts: bool,
        exec: Slot,
        seen: Vec<(SimTime, PaxosMsg)>,
    }

    impl paxraft_sim::sim::Actor<Msg> for PuppetAcceptor {
        fn on_message(&mut self, ctx: &mut Ctx<Msg>, from: ActorId, msg: Msg) {
            if let Msg::Paxos(m) = &msg {
                self.seen.push((ctx.now(), m.clone()));
            }
            let reply = match msg {
                Msg::Paxos(PaxosMsg::Prepare { ballot, .. }) => PaxosMsg::PrepareOk {
                    ballot,
                    entries: Vec::new(),
                    log_tail: Slot::NONE,
                    floor: Slot::NONE,
                },
                Msg::Paxos(PaxosMsg::Accept { ballot, items, .. })
                    if self.accepts && !items.is_empty() =>
                {
                    PaxosMsg::AcceptOk {
                        ballot,
                        slots: items.iter().map(|(s, _)| s).collect(),
                        exec: self.exec,
                        holders: 0,
                    }
                }
                _ => return,
            };
            ctx.send(from, Msg::Paxos(reply));
        }

        paxraft_sim::impl_actor_any!();
    }

    /// One real proposer (node 0) among `n - 1` puppets, the first
    /// `accepting` of which acknowledge Accepts, reporting `exec`.
    fn proposer_among_puppets(
        n: usize,
        accepting: u32,
        exec: Slot,
    ) -> (Simulation<Msg>, ActorId, ActorId) {
        let (sim, replicas, client) = cluster_with(n, |mut cfg| {
            cfg.initial_leader = Some(NodeId(0));
            if cfg.id == NodeId(0) {
                Box::new(MultiPaxosReplica::new(cfg))
            } else {
                Box::new(PuppetAcceptor {
                    accepts: cfg.id.0 <= accepting,
                    exec,
                    seen: Vec::new(),
                })
            }
        });
        (sim, replicas[0], client)
    }

    /// The bounded learn scan covers `(exec_index, exec]`. The common
    /// ack has `exec` *behind* the proposer's own `exec_index` — here
    /// the second `AcceptOk` of every instance, arriving after the first
    /// one completed the quorum and the instance executed — and must be
    /// a no-op rather than an inverted `range_mut`.
    #[test]
    fn accept_ok_trailing_the_proposers_exec_index_is_a_noop() {
        let (mut sim, proposer, client) = proposer_among_puppets(3, 2, Slot::NONE);
        for k in 0..5 {
            sim.actor_mut::<TestClient>(client).enqueue_put(k);
        }
        assert!(drive_until(&mut sim, SimTime::from_secs(10), |sim| {
            sim.actor::<TestClient>(client).replies.len() == 5
        }));
        // Let the slower puppet's acks (exec 0 < exec_index) land too.
        sim.run_for(SimDuration::from_secs(1));
        let rep = sim.actor::<MultiPaxosReplica>(proposer);
        assert!(rep.exec_index() >= Slot(5), "executed {}", rep.exec_index());
    }

    /// The scan still does its job when the ack is *ahead*: with five
    /// replicas and one acknowledging acceptor no quorum ever forms
    /// (self + 1 < 3), but that acceptor reporting the instance inside
    /// its executed prefix proves it chosen, so the proposer commits.
    #[test]
    fn accept_ok_ahead_of_the_proposer_commits_without_a_quorum() {
        let (mut sim, proposer, client) = proposer_among_puppets(5, 1, Slot(1_000));
        sim.actor_mut::<TestClient>(client).enqueue_put(1);
        assert!(drive_until(&mut sim, SimTime::from_secs(10), |sim| {
            sim.actor::<TestClient>(client).replies.len() == 1
        }));
        // Two votes of the three a quorum needs: the proposer's and the
        // one acceptor's that acknowledges.
        let base = &sim.actor::<MultiPaxosReplica>(proposer).rules.base;
        assert!(base.committed(Slot(1)) && base.exec_index == Slot(1));
    }

    /// A scripted proposer: sends its acceptor each message of `script`
    /// at the time beside it, and keeps every `AcceptOk` with its arrival
    /// time.
    struct ScriptedProposer {
        acceptor: ActorId,
        script: Vec<(SimDuration, PaxosMsg)>,
        acks: Vec<(SimTime, Vec<Slot>)>,
    }

    impl paxraft_sim::sim::Actor<Msg> for ScriptedProposer {
        fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
            for (i, (at, _)) in self.script.iter().enumerate() {
                ctx.set_timer(*at, i as u64);
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<Msg>, token: u64) {
            let msg = self.script[token as usize].1.clone();
            ctx.send(self.acceptor, Msg::Paxos(msg));
        }

        fn on_message(&mut self, ctx: &mut Ctx<Msg>, _from: ActorId, msg: Msg) {
            if let Msg::Paxos(PaxosMsg::AcceptOk { slots, .. }) = msg {
                self.acks.push((ctx.now(), slots.iter().collect()));
            }
        }

        paxraft_sim::impl_actor_any!();
    }

    /// A real acceptor (node 1 of 3) fed `script` by a [`ScriptedProposer`]
    /// (node 0), both in one region, so a link is sub-millisecond.
    fn acceptor_under_script(
        script: Vec<(SimDuration, PaxosMsg)>,
        durability: crate::config::DurabilityConfig,
    ) -> Simulation<Msg> {
        let mut sim = Simulation::new(paxraft_sim::net::NetConfig::default(), 7);
        sim.set_disk_config(durability.disk_config());
        let region = paxraft_sim::net::Region::Oregon;
        let mut cfg = ReplicaConfig::wan_default(NodeId(1), 3);
        cfg.peers = (0..3).map(ActorId).collect();
        cfg.client_base = 3;
        cfg.durability = durability;
        let proposer = ScriptedProposer {
            acceptor: ActorId(1),
            script,
            acks: Vec::new(),
        };
        let proposer = sim.add_actor(region, Box::new(proposer));
        let acceptor = sim.add_actor(region, Box::new(MultiPaxosReplica::new(cfg)));
        assert_eq!((proposer, acceptor), (ActorId(0), ActorId(1)));
        sim
    }

    fn put(seq: u64, key: u64) -> Command {
        Command::put(crate::kv::CmdId { client: 9, seq }, key, vec![0; 8])
    }

    /// An acceptor on a 1 ms per-entry device fed the same `Accept` twice
    /// writes it once: the device does the round's three barriers and no
    /// more, both `AcceptOk`s still name every instance (the proposer's
    /// retransmission must complete), and neither leaves before the first
    /// write's last barrier — the second arrival is held, not written, but
    /// what it acknowledges is not durable any sooner.
    #[test]
    fn the_same_accept_twice_is_written_once_and_acknowledged_twice() {
        use crate::config::DurabilityConfig;
        let device = SimDuration::from_millis(1);
        let accept = PaxosMsg::Accept {
            ballot: Term(5),
            items: (1..=3).map(|s| (Slot(s), put(s, s))).collect(),
            window_room: true,
            commit: Slot::NONE,
        };
        let script = vec![
            (SimDuration::ZERO, accept.clone()),
            (SimDuration::from_micros(100), accept),
        ];
        let mut sim = acceptor_under_script(script, DurabilityConfig::per_entry(device));
        let acceptor = ActorId(1);
        sim.run_until(SimTime::from_millis(20));
        assert_eq!(sim.disk_stats_at(acceptor).fsyncs, 3, "the round, once");
        let rep = sim.actor::<MultiPaxosReplica>(acceptor);
        let base = &rep.rules.base;
        assert_eq!(rep.durability_stats().fsync_entries, 3);
        let mut sample = crate::telemetry::MetricSample::default();
        base.record_metrics(&mut sample);
        assert_eq!(sample.get("accept_writes"), 3.0);
        assert_eq!(sample.get("accept_duplicates"), 3.0);
        let acks = &sim.actor::<ScriptedProposer>(ActorId(0)).acks;
        let every = vec![Slot(1), Slot(2), Slot(3)];
        assert_eq!(acks.len(), 2, "one acceptOK per accept");
        for (at, slots) in acks {
            assert_eq!(slots, &every, "every instance, both times");
            let written = SimTime::ZERO + device * 3;
            assert!(
                *at >= written,
                "acknowledged at {at:?}, durable at {written:?}"
            );
        }
    }

    /// The decision of a ballot-2 proposer for slot 1 reaches an acceptor
    /// still holding ballot 1's proposal V there, ahead of ballot 2's own
    /// `Accept` of W. The decision vouches for W alone: the acceptor never
    /// executes V, and executes W once it arrives.
    #[test]
    fn a_decision_ahead_of_its_value_never_commits_a_stale_one() {
        let (v, w) = (put(1, 5), put(2, 5));
        let accept = |ballot, cmd: &Command| PaxosMsg::Accept {
            ballot: Term(ballot),
            items: [(Slot(1), cmd.clone())].into_iter().collect(),
            window_room: true,
            commit: Slot::NONE,
        };
        let decision = PaxosMsg::Learn {
            ballot: Term(2),
            commit: Slot(1),
        };
        let ms = SimDuration::from_millis;
        let script = vec![
            (ms(0), accept(1, &v)),
            (ms(10), decision),
            (ms(20), accept(2, &w)),
        ];
        let mut sim = acceptor_under_script(script, Default::default());
        let applied = |sim: &Simulation<Msg>| {
            let rep = sim.actor::<MultiPaxosReplica>(ActorId(1));
            (rep.exec_index(), rep.kv().read_local(5).value_id())
        };
        sim.run_until(SimTime::from_millis(15));
        assert_eq!(
            applied(&sim),
            (Slot::NONE, None),
            "V is not the chosen value"
        );
        sim.run_until(SimTime::from_millis(25));
        assert_eq!(applied(&sim), (Slot(1), Some(w.id.as_value_id())));
    }

    /// The proposer among two acking puppets (Ohio 52 ms and Ireland
    /// 132 ms round trips away), just after a heartbeat: slot 1 is
    /// proposed at once, slot 2 at 50 ms, just before slot 1's first ack
    /// returns from Ohio, and slot 3 at 54 ms, just after. Returns when
    /// slot 1 was proposed.
    fn busy_then_idle() -> (Simulation<Msg>, ActorId, SimTime) {
        let (mut sim, proposer, _) = proposer_among_puppets(3, 2, Slot::NONE);
        let sink = TestClient::new(1, proposer);
        sim.add_actor(paxraft_sim::net::Region::Oregon, Box::new(sink));
        assert!(drive_until(&mut sim, SimTime::from_secs(1), |sim| {
            sim.actor::<MultiPaxosReplica>(proposer).is_leader()
        }));
        let beat = sim
            .timer_due(proposer, engine::T_HEARTBEAT)
            .expect("leading");
        sim.run_until(beat + SimDuration::from_millis(1));
        let start = sim.now();
        for (seq, at) in [(1, 0), (2, 50), (3, 54)] {
            let cmd = Command::put(crate::kv::CmdId { client: 1, seq }, seq, vec![0; 8]);
            let request = Msg::Client(crate::msg::ClientMsg::Request { cmd });
            sim.send_external(proposer, request, SimDuration::from_millis(at));
        }
        (sim, proposer, start)
    }

    /// The executed prefix rides the next `Accept` on a busy link and
    /// goes alone on an idle one. Slot 1 is decided 2 ms after the `Accept`
    /// of slot 2 left, within the patience (an eighth of the 52 ms round
    /// trip), so no `Learn` goes and slot 3's `Accept` carries it. Slot 2
    /// is decided on a link idle since that `Accept`, so exactly one
    /// `Learn` goes at once. Slot 3 is decided 4 ms after that `Learn`:
    /// none goes before the patience has passed, and one after.
    #[test]
    fn commits_ride_a_busy_link_and_leave_an_idle_one_alone() {
        let (mut sim, _, start) = busy_then_idle();
        // Ohio hears everything sent in the next 140 ms; the heartbeats
        // on either side of them carry no instance.
        sim.run_until(start + SimDuration::from_millis(170));
        let told: Vec<(&str, Slot, SimTime)> = sim
            .actor::<PuppetAcceptor>(ActorId(1))
            .seen
            .iter()
            .filter(|(at, _)| *at >= start)
            .filter_map(|(at, m)| match m {
                PaxosMsg::Accept { items, commit, .. } if !items.is_empty() => {
                    Some(("accept", *commit, *at))
                }
                PaxosMsg::Learn { commit, .. } => Some(("learn", *commit, *at)),
                _ => None,
            })
            .collect();
        let kinds: Vec<(&str, Slot)> = told.iter().map(|(k, c, _)| (*k, *c)).collect();
        let (none, one, two, three) = (Slot::NONE, Slot(1), Slot(2), Slot(3));
        assert_eq!(
            kinds,
            [
                ("accept", none),
                ("accept", none),
                ("accept", one),
                ("learn", two),
                ("learn", three)
            ],
            "slot 1's decision rode the third Accept; 2 and 3 went alone"
        );
        let rtt = SimDuration::from_millis(52);
        let (accept2, learn2, learn3) = (told[1].2, told[3].2, told[4].2);
        assert!(
            learn2.since(accept2) < rtt + SimDuration::from_millis(2),
            "sent as the ack of slot 2 arrived: {}",
            learn2.since(accept2)
        );
        assert!(learn3.since(learn2) > rtt / 8, "not before the patience");
    }

    /// `commits_carried` and `learns_alone` count what the acceptors saw:
    /// every `Accept` that moved the executed prefix it told, and every
    /// `Learn`.
    #[test]
    fn the_commit_counters_are_what_the_acceptors_saw() {
        let (mut sim, proposer, _) = busy_then_idle();
        sim.run_for(SimDuration::from_secs(1));
        let (mut carried, mut alone) = (0, 0);
        for puppet in [ActorId(1), ActorId(2)] {
            let mut told = Slot::NONE;
            for (_, m) in &sim.actor::<PuppetAcceptor>(puppet).seen {
                match m {
                    PaxosMsg::Accept { commit, .. } => {
                        carried += u32::from(*commit > told);
                        told = *commit;
                    }
                    PaxosMsg::Learn { commit, .. } => {
                        alone += 1;
                        told = *commit;
                    }
                    _ => {}
                }
            }
        }
        assert_eq!(
            (carried, alone),
            (2, 4),
            "slot 1 rode to each, 2 and 3 went alone"
        );
        let sample = sim.actor::<MultiPaxosReplica>(proposer).metric_sample();
        assert_eq!(sample.get("commits_carried"), f64::from(carried));
        assert_eq!(sample.get("learns_alone"), f64::from(alone));
    }

    /// A restart keeps the chosen instances but not their execution: the
    /// proposer restarts at an empty state machine (no checkpoint), and
    /// when it wins phase 1 back with nothing left to fill and no client
    /// waiting, it executes what it kept before proposing anything.
    #[test]
    fn a_restarted_proposer_executes_what_it_kept_when_it_wins_again() {
        let (mut sim, replicas, client) = cluster_with(3, |mut cfg| {
            cfg.initial_leader = Some(NodeId(0));
            // The restarted proposer campaigns long before the others do.
            let ms = if cfg.id == NodeId(0) { 400 } else { 4_000 };
            cfg.election_min = SimDuration::from_millis(ms);
            cfg.election_max = SimDuration::from_millis(ms + ms / 4);
            Box::new(MultiPaxosReplica::new(cfg))
        });
        for k in 0..3 {
            sim.actor_mut::<TestClient>(client).enqueue_put(k);
        }
        assert!(drive_until(&mut sim, SimTime::from_secs(10), |sim| {
            sim.actor::<TestClient>(client).replies.len() == 3
        }));
        let r0 = replicas[0];
        let before = sim.actor::<MultiPaxosReplica>(r0).exec_index();
        sim.crash_at(r0, sim.now() + SimDuration::from_millis(1));
        sim.restart_at(r0, sim.now() + SimDuration::from_millis(10));
        sim.run_for(SimDuration::from_millis(20));
        let rep = sim.actor::<MultiPaxosReplica>(r0);
        assert_eq!((rep.exec_index(), rep.kv().len()), (Slot::NONE, 0));
        let ballot = rep.ballot();
        assert!(drive_until(&mut sim, SimTime::from_secs(20), |sim| {
            let rep = sim.actor::<MultiPaxosReplica>(r0);
            rep.is_leader() && rep.ballot() > ballot
        }));
        let rep = sim.actor::<MultiPaxosReplica>(r0);
        assert_eq!(rep.exec_index(), before, "executed on winning phase 1");
        assert_eq!(rep.kv().len(), 3);
    }

    /// Which instances a proposer cuts into a round (that each yields
    /// what the table held at the cut is `engine/slots.rs`'s property):
    /// over a seeded 5-replica WAN cluster with compaction every 64
    /// instances, 5 % loss, an acceptor crash and a proposer crash whose
    /// successor re-proposes in phase 1, every round the recorder kept
    /// holds values in ascending slot order and is a view exactly when
    /// they are consecutive within two blocks. Each is read after the
    /// run, so each view also outlived whatever the tables did while it
    /// was held; views and rounds with gaps (copies) both occur.
    #[test]
    fn every_round_is_consecutive_instances_or_a_copy() {
        use crate::engine::slots::tests::recording;
        use crate::harness::{Cluster, ProtocolKind};
        use crate::snapshot::SnapshotConfig;
        let mut cluster = Cluster::builder(ProtocolKind::MultiPaxos)
            .clients_per_region(10)
            .snapshot_config(SnapshotConfig::every(64))
            .seed(42)
            .build();
        cluster.elect_leader();
        let now = cluster.sim.now();
        cluster.sim.set_drop_rate_at(0.05, now);
        let replicas = cluster.replicas().to_vec();
        let leader = replicas[cluster.leader().0 as usize];
        let acceptor = replicas[(cluster.leader().0 as usize + 1) % replicas.len()];
        let at = |ms| now + SimDuration::from_millis(ms);
        cluster.sim.crash_at(acceptor, at(500));
        cluster.sim.restart_at(acceptor, at(1_200));
        cluster.sim.crash_at(leader, at(2_000));
        cluster.sim.restart_at(leader, at(2_600));
        let ((), cuts) = recording::<Cell, _>(|| cluster.advance(SimDuration::from_secs(5)));
        let (mut views, mut gapped) = (0, 0);
        for cut in cuts.iter().filter(|cut| !cut.held.is_empty()) {
            assert_eq!(cut.stride, 1);
            let view = cut.check(|c| c.cmd().cloned());
            views += usize::from(view);
            gapped += usize::from(!view);
        }
        assert!(
            views > 400 && gapped >= 5,
            "{} rounds: {views} views, {gapped} with gaps",
            cuts.len()
        );
    }

    /// Replica `i` of a MultiPaxos cluster.
    fn paxos(cluster: &crate::harness::Cluster, i: usize) -> &MultiPaxosReplica {
        cluster.sim.actor(ActorId(i))
    }

    /// Where each block of `rep`'s table starts: its first slot, then
    /// every block edge (`engine/slots.rs`) up to its last.
    fn block_starts(rep: &MultiPaxosReplica) -> Vec<Slot> {
        let cells = &rep.rules.base.cells;
        let (Some((first, _)), Some(last)) = (cells.range(..).next(), cells.last_slot()) else {
            return Vec::new();
        };
        let starts = (first.0..=last.0).filter(|s| *s == first.0 || s % 256 == 0);
        starts.map(Slot).collect()
    }

    /// Whether `a` holds the very block `b` holds at `slot`.
    fn shares_block_at(a: &MultiPaxosReplica, b: &MultiPaxosReplica, slot: Slot) -> bool {
        let at = |r: &MultiPaxosReplica| {
            let block = r.rules.base.cells.block_at(slot);
            block.map(|(block, _)| block.clone())
        };
        matches!((at(a), at(b)), (Some(x), Some(y)) if std::rc::Rc::ptr_eq(&x, &y))
    }

    /// A 5-replica MultiPaxos cluster on a 1 ms LAN, its leader elected.
    fn lan_cluster(durability: crate::config::DurabilityConfig) -> crate::harness::Cluster {
        use crate::harness::{Cluster, ProtocolKind};
        let mut cluster = Cluster::builder(ProtocolKind::MultiPaxos)
            .clients_per_region(4)
            .net(paxraft_sim::net::NetConfig {
                rtt_ms: [[1.0; 5]; 5],
                ..Default::default()
            })
            .durability_config(durability)
            .seed(11)
            .build();
        cluster.elect_leader();
        cluster
    }

    /// Advances `cluster` by 100 ms steps until `done`, for at most a
    /// minute of virtual time.
    fn advance_until(
        cluster: &mut crate::harness::Cluster,
        what: &str,
        done: impl Fn(&crate::harness::Cluster) -> bool,
    ) {
        for _ in 0..600 {
            if done(cluster) {
                return;
            }
            cluster.advance(SimDuration::from_millis(100));
        }
        panic!("{what}: not within a minute");
    }

    /// The live replica of `cluster` whose phase 1 has won, if any.
    fn proposer(cluster: &crate::harness::Cluster) -> Option<usize> {
        (0..5).find(|&i| !cluster.sim.is_crashed(ActorId(i)) && paxos(cluster, i).is_leader())
    }

    /// Every instance `rep` holds a value at, with its ballot.
    fn held(rep: &MultiPaxosReplica) -> Vec<(Slot, Term, Command)> {
        let cells = rep.rules.base.cells.range(..);
        cells
            .filter_map(|(s, c)| Some((s, c.bal(), c.cmd()?.clone())))
            .collect()
    }

    /// A Raft follower's log holds its leader's blocks (`log.rs`,
    /// *Storage*), and through Figure 3's map so does an acceptor's table
    /// its proposer's (`engine/paxos_family.rs`, *Rounds*). On a
    /// fault-free 5-replica LAN cluster every acceptor holds the
    /// proposer's own blocks, all but at most its first, over 2,000
    /// instances and more. After the proposer crashes, the new one's phase
    /// 1 re-proposes what was open at a higher ballot, copying the blocks
    /// it writes, and each survivor shares every block of the new
    /// proposer's next 512 instances but at most one — the block it held
    /// partly filled when the leadership started. Every round cut
    /// meanwhile is read after the run and yields what it was cut over,
    /// ballots included: no instance of a round in flight changed.
    ///
    /// With durability on, an acceptor's crash drops exactly the values
    /// its device had not synced, in copies of the blocks it shared, and
    /// leaves every instance of the proposer's as it was.
    #[test]
    fn a_multipaxos_acceptor_holds_its_proposers_blocks() {
        use crate::config::DurabilityConfig;
        use crate::engine::slots::tests::recording;
        let ((), cuts) = recording::<Cell, _>(|| {
            let mut cluster = lan_cluster(DurabilityConfig::default());
            let first = proposer(&cluster).expect("a proposer");
            advance_until(&mut cluster, "2,000 instances everywhere", |c| {
                (0..5).all(|i| paxos(c, i).rules.log_tail() >= Slot(2_000))
            });
            let lead = paxos(&cluster, first);
            for i in (0..5).filter(|&i| i != first) {
                let starts = block_starts(paxos(&cluster, i));
                assert!(starts.len() >= 8, "{} blocks", starts.len());
                for &slot in &starts[1..] {
                    let shared = shares_block_at(paxos(&cluster, i), lead, slot);
                    assert!(shared, "acceptor {i}'s block at {slot} is a copy");
                }
            }

            let (old, now) = (lead.ballot(), cluster.sim.now());
            let crash = now + SimDuration::from_millis(1);
            cluster.sim.crash_at(ActorId(first), crash);
            advance_until(&mut cluster, "a new proposer", |c| {
                proposer(c).is_some_and(|p| p != first)
            });
            let second = proposer(&cluster).expect("a new proposer");
            let (ballot, from) = (
                paxos(&cluster, second).ballot(),
                paxos(&cluster, second).rules.next_slot,
            );
            assert!(ballot > old);
            let survivors: Vec<usize> = (0..5).filter(|&i| i != first).collect();
            advance_until(&mut cluster, "512 instances from the new proposer", |c| {
                survivors
                    .iter()
                    .all(|&i| paxos(c, i).rules.log_tail().0 >= from.0 + 512)
            });
            let lead = paxos(&cluster, second);
            let mut rewritten = 0;
            for &i in survivors.iter().filter(|&&i| i != second) {
                let rep = paxos(&cluster, i);
                let above = block_starts(rep)
                    .into_iter()
                    .filter(|s| s.0 >= from.0 / 256 * 256);
                let own = above.filter(|&s| !shares_block_at(rep, lead, s)).count();
                assert!(own <= 1, "survivor {i} holds {own} blocks of its own");
                let again = held(rep)
                    .into_iter()
                    .filter(|&(s, bal, _)| s < from && bal == ballot);
                rewritten += again.count();
            }
            assert!(rewritten > 0, "phase 1 re-proposed what was open");
            let executed = (0..5).map(|i| paxos(&cluster, i).exec_index()).min();
            for s in 1..=executed.expect("five").0 {
                let chosen = |i| paxos(&cluster, i).committed_at(Slot(s)).cloned();
                assert!((1..5).all(|i| chosen(i) == chosen(0)), "slot {s}");
            }
        });
        let views = cuts.iter().filter(|cut| !cut.held.is_empty());
        let views = views.filter(|cut| cut.check(|c| (c.bal(), c.cmd().cloned())));
        assert!(views.count() > 100, "{} rounds", cuts.len());

        let durability = DurabilityConfig::group_commit(
            SimDuration::from_millis(1),
            8,
            SimDuration::from_millis(2),
        );
        let mut cluster = lan_cluster(durability);
        advance_until(&mut cluster, "2,000 durable instances everywhere", |c| {
            (0..5).all(|i| paxos(c, i).rules.log_tail() >= Slot(2_000))
        });
        let lead = proposer(&cluster).expect("a proposer");
        let acceptor = (lead + 1) % 5;
        let (rep, chief) = (paxos(&cluster, acceptor), paxos(&cluster, lead));
        let synced = rep.core.dur.synced_seq();
        let unsynced = |s: Slot| rep.rules.base.wseq(s) > synced;
        let (kept, lost): (Vec<_>, Vec<_>) = held(rep).into_iter().partition(|e| !unsynced(e.0));
        assert!(!lost.is_empty(), "values in flight to the device");
        let shared = block_starts(rep)
            .into_iter()
            .filter(|&s| shares_block_at(rep, chief, s));
        assert!(
            shared.count() >= 4,
            "the acceptor holds the proposer's blocks"
        );
        let proposed = held(chief);
        cluster.sim.crash_at(ActorId(acceptor), cluster.sim.now());
        cluster.sim.run_for(SimDuration::from_micros(1));
        let (rep, chief) = (paxos(&cluster, acceptor), paxos(&cluster, lead));
        let after = held(rep);
        assert_eq!(after, kept, "exactly the unsynced values went");
        let cells = &chief.rules.base.cells;
        for (s, bal, cmd) in proposed {
            let cell = cells.get(s).expect("the proposer's");
            assert_eq!((cell.bal(), cell.cmd()), (bal, Some(&cmd)), "slot {s}");
        }
        for (s, ..) in lost {
            assert!(
                !shares_block_at(rep, chief, s),
                "slot {s}'s block was copied"
            );
        }
    }

    #[test]
    fn all_replicas_converge_on_same_log() {
        let (mut sim, replicas, client) = paxos_cluster(3);
        for k in 0..10 {
            sim.actor_mut::<TestClient>(client).enqueue_put(k);
        }
        drive_until(&mut sim, SimTime::from_secs(10), |sim| {
            sim.actor::<TestClient>(client).replies.len() == 10
        });
        // Heartbeats spread Learn messages; run a little longer.
        sim.run_for(SimDuration::from_secs(1));
        let exec0 = sim.actor::<MultiPaxosReplica>(replicas[0]).exec_index();
        assert!(exec0.0 >= 10);
        for s in 1..=exec0.0 {
            let c0 = sim
                .actor::<MultiPaxosReplica>(replicas[0])
                .committed_at(Slot(s))
                .cloned();
            for &r in &replicas[1..] {
                if let Some(c) = sim.actor::<MultiPaxosReplica>(r).committed_at(Slot(s)) {
                    assert_eq!(Some(c.clone()), c0, "agreement at slot {s}");
                }
            }
        }
    }
}
