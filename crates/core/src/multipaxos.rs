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
//! it *single-leader* Paxos: ballots and phase 1 with its value adoption,
//! the proposer's numbering and send cursors, the Accept rounds and the
//! heartbeat's retransmission and replay, the execute loop (the proposer
//! answers the client), and what a crash keeps.
//!
//! # Durability (group commit)
//!
//! With a [`crate::config::DurabilityConfig`] enabled, an accepted value
//! is charged as a disk write and its `acceptOK` is routed through
//! [`EngineCore::ack_after_sync`]: a Phase2b vote is a promise that the
//! accepted value survives a crash (Paxos's acceptor-persistence
//! requirement), so it may not outrun the fsync covering it. The
//! proposer's *own* implicit acceptOK gets the same treatment — with
//! durability on, a freshly proposed instance seeds an empty ack bitmap
//! and the self-vote is added by the engine's `on_durable` hook only
//! once the local write is fsynced (`PaxosBase::note_proposed`).
//! Crash-restart drops accepted values whose write never synced
//! (`PaxosBase::crash`): unsynced and unacked they contributed
//! to no quorum, so dropping them cannot lose chosen state — a
//! *committed* instance that loses its value this way degrades to
//! learnt-without-value and is re-fetched. Ballot promises
//! are modeled like Raft terms: a tiny always-durable metadata write
//! (ballots survive crashes), so `prepareOK` defers only behind
//! outstanding *value* writes.

use std::collections::HashMap;

use paxraft_sim::sim::{ActorId, Ctx};

use crate::config::ReplicaConfig;
use crate::engine::paxos_family::{merge_highest, Accepted, PaxosBase, Stored};
use crate::engine::{self, EngineCore, ProtocolRules, ReplicaEngine};
use crate::kv::Command;
use crate::msg::{Msg, PaxosMsg, Round, Slots, CHECKPOINT_ACK_HEADER, CHECKPOINT_CHUNK_HEADER};
use crate::snapshot::Snapshot;
use crate::types::{NodeId, Slot, Term};

/// A MultiPaxos replica (proposer + acceptor + learner): the shared
/// engine running [`PaxosRules`].
pub type MultiPaxosReplica = ReplicaEngine<PaxosRules>;

/// What MultiPaxos adds on top of the engine and the family base:
/// ballots, phase 1, and the single proposer's numbering and cursors.
pub struct PaxosRules {
    /// Highest ballot seen (`s.ballot`).
    ballot: Term,
    /// Figure 1's `phase1Succeeded`: this replica is the active proposer.
    phase1_succeeded: bool,
    /// The out-of-order instance store and its bookkeeping.
    base: PaxosBase<()>,
    /// Leader's next unused instance id.
    next_slot: Slot,
    /// Phase-1 replies: voter → (accepted entries, log tail, checkpoint
    /// floor).
    prepare_acks: HashMap<NodeId, (Vec<(Slot, Term, Command)>, Slot, Slot)>,
    /// Highest instance ever offered to each acceptor (send cursor):
    /// instances above it were cut into rounds this acceptor's full
    /// window made it skip, and are pumped to it as acks free slots.
    accept_cursor: Vec<Slot>,
}

impl MultiPaxosReplica {
    /// Creates a replica.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: ReplicaConfig) -> Self {
        cfg.validate().expect("invalid replica config");
        let n = cfg.n;
        ReplicaEngine::from_parts(
            EngineCore::new(cfg),
            PaxosRules {
                ballot: Term::ZERO,
                phase1_succeeded: false,
                base: PaxosBase::new(n),
                next_slot: Slot(1),
                prepare_acks: HashMap::new(),
                accept_cursor: vec![Slot::NONE; n],
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
        let inst = self.rules.base.cells.get(slot)?;
        if inst.committed {
            inst.cmd()
        } else {
            None
        }
    }

    /// Retained (uncompacted) instances.
    pub fn retained_instances(&self) -> usize {
        self.rules.base.cells.len()
    }
}

impl PaxosRules {
    fn arm_election(&self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        core.arm_election(ctx, self.ballot == Term::ZERO);
    }

    fn broadcast(&self, core: &EngineCore, ctx: &mut Ctx<Msg>, msg: PaxosMsg) {
        for peer in core.cfg.others() {
            ctx.send(core.cfg.peer(peer), Msg::Paxos(msg.clone()));
        }
    }

    /// Ships one pipelined Accept round: every acceptor whose window has
    /// room gets the batch now; a saturated acceptor is skipped and
    /// receives the backlog from [`PaxosRules::pump_accepts`] as its
    /// acks free slots (with the heartbeat retransmission as the
    /// loss-recovery backstop). Commits only need a quorum, so a round
    /// skipped by a minority of slow acceptors commits undelayed.
    fn send_accept_round(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, items: &Round) {
        let Some(upto) = items.iter().map(|(s, _)| *s).max() else {
            return;
        };
        for peer in core.cfg.others() {
            if !core.pipe.has_room(peer) {
                continue;
            }
            core.pipe.on_sent(peer, upto, ctx.now());
            let cur = &mut self.accept_cursor[peer.0 as usize];
            *cur = (*cur).max(upto);
            let window_room = core.pipe.quorum_has_room(core.cfg.id, core.cfg.n);
            ctx.send(
                core.cfg.peer(peer),
                Msg::Paxos(PaxosMsg::Accept {
                    ballot: self.ballot,
                    items: items.clone(),
                    window_room,
                }),
            );
        }
    }

    /// Ships `peer` the uncommitted instances that accumulated past its
    /// send cursor while its window was full. Called after one of its
    /// acknowledgements frees a slot — the MultiPaxos spelling of the
    /// Raft family's backlog pump, one round per ack of at most 64
    /// instances or the window's share
    /// ([`crate::engine::pipeline::PipelineWindow::round_cap`]).
    fn pump_accepts(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, peer: NodeId) {
        let highest = Slot(self.next_slot.0.saturating_sub(1));
        let i = peer.0 as usize;
        if self.accept_cursor[i] >= highest || !core.pipe.has_room(peer) {
            return;
        }
        let cap = core.pipe.round_cap(peer, highest, &core.dur).min(64);
        let behind = self.base.cells.range(self.accept_cursor[i].next()..);
        let mut waiting = behind
            .filter(|(_, inst)| !inst.committed)
            .filter_map(|(s, inst)| inst.cmd().cloned().map(|c| (s, c)))
            .take(cap)
            .peekable();
        if waiting.peek().is_none() {
            // Everything past the cursor is committed; Learn covers it.
            self.accept_cursor[i] = highest;
            return;
        }
        // Sized once: no more wait than slots lie past the cursor.
        let span = (highest.0 - self.accept_cursor[i].0) as usize;
        let mut items = Vec::with_capacity(cap.min(span));
        items.extend(waiting);
        let upto = items[items.len() - 1].0;
        self.accept_cursor[i] = if items.len() < cap { highest } else { upto };
        core.pipe.on_sent(peer, upto, ctx.now());
        core.pipe.note_pumped(items.len(), cap);
        let window_room = core.pipe.quorum_has_room(core.cfg.id, core.cfg.n);
        ctx.send(
            core.cfg.peer(peer),
            Msg::Paxos(PaxosMsg::Accept {
                ballot: self.ballot,
                items: items.into(),
                window_room,
            }),
        );
    }

    /// Figure 1 `Phase1a`: pick a fresh owned ballot and prepare.
    fn start_phase1(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        self.ballot = self.ballot.next_for(core.cfg.id, core.cfg.n);
        self.phase1_succeeded = false;
        self.prepare_acks.clear();
        // Self-votes recorded under the old ballot no longer apply.
        self.base.forget_self_votes();
        let from_slot = self.first_unchosen();
        // Record our own accepted instances as an implicit Phase1b reply.
        let mine = self.base.accepted(from_slot..).collect();
        let tail = self.log_tail();
        self.prepare_acks
            .insert(core.cfg.id, (mine, tail, self.base.floor()));
        self.broadcast(
            core,
            ctx,
            PaxosMsg::Prepare {
                ballot: self.ballot,
                from_slot,
            },
        );
        self.arm_election(core, ctx); // retry if this round stalls
    }

    fn first_unchosen(&self) -> Slot {
        let mut s = self.base.exec_index.next();
        while self.base.cells.get(s).is_some_and(|i| i.committed) {
            s = s.next();
        }
        s
    }

    fn log_tail(&self) -> Slot {
        self.base.cells.last_slot().unwrap_or(Slot::NONE)
    }

    /// Figure 1 `Phase2a` on the proposer itself: writes a round of
    /// values at its ballot. With durability on, its implicit acceptOK
    /// counts only once the values are on disk (`on_durable` adds the bit
    /// after the fsync); without it, the self-vote is immediate.
    fn write_round(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        items: &[(Slot, Command)],
    ) {
        let self_ack = if core.dur.enabled() { 0 } else { core.me_bit() };
        for (slot, cmd) in items {
            let cell = self.base.write(*slot, self.ballot, cmd.clone());
            debug_assert_eq!(cell.bal, self.ballot, "no ballot exceeds the replica's");
            cell.acks = self_ack;
        }
        self.base.note_proposed(core, ctx, self.ballot, items);
        self.base.note_log_size(core);
    }

    /// Broadcasts the Learn for newly chosen instances and executes.
    fn learn_chosen(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, chosen: Slots) {
        if !chosen.is_empty() {
            self.broadcast(core, ctx, PaxosMsg::Learn { slots: chosen });
            self.try_execute(core, ctx);
        }
    }

    /// Figure 1 `Phase1Succeed`: adopt safe values and go active.
    fn try_phase1_succeed(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        if self.phase1_succeeded || self.prepare_acks.len() < crate::types::quorum(core.cfg.n) {
            return;
        }
        // Never fill slots at or below a replying acceptor's checkpoint
        // floor: those instances are chosen but unreportable (the
        // acceptor discarded them after execution), so a no-op fill
        // would overwrite a chosen value. The acceptor ships us its
        // checkpoint alongside the PrepareOk; execution of the covered
        // prefix resumes once it installs.
        let max_floor = self
            .prepare_acks
            .values()
            .map(|(_, _, floor)| *floor)
            .max()
            .unwrap_or(Slot::NONE);
        let start = self.first_unchosen().max(max_floor.next());
        let end = self
            .prepare_acks
            .values()
            .map(|(_, tail, _)| *tail)
            .max()
            .unwrap_or(Slot::NONE);
        // safeEntry: highest accepted ballot per instance; Noop for gaps.
        // (The replies are spent: none is read again after success.)
        let mut safe = Accepted::new();
        for (entries, _, _) in self.prepare_acks.values_mut() {
            let entries = std::mem::take(entries).into_iter();
            merge_highest(&mut safe, entries.filter(|(slot, ..)| *slot >= start));
        }
        let mut items = Vec::new();
        let mut s = start;
        while s <= end {
            if !self.base.cells.get(s).is_some_and(|i| i.committed) {
                let cmd = safe.remove(&s.0).map_or_else(Command::noop, |(_, c)| c);
                items.push((s, cmd));
            }
            s = s.next();
        }
        let items = Round::from(items);
        self.write_round(core, ctx, &items);
        self.phase1_succeeded = true;
        core.leader_hint = Some(core.cfg.id);
        core.pipe.reset();
        self.accept_cursor.fill(Slot::NONE);
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
            let Some(inst) = self.base.cells.get(next).filter(|i| i.committed) else {
                break;
            };
            let cmd = inst.cmd().expect("committed instance has a value");
            ctx.charge(core.cfg.costs.apply_per_cmd);
            let reply = engine::apply_command(core, ctx, cmd, self.phase1_succeeded);
            self.base.exec_index = next;
            if self.phase1_succeeded && cmd.id.client != u32::MAX {
                core.respond(ctx, cmd.id, reply);
            }
        }
        if self.base.compaction_due(core) {
            let executed = self.base.exec_index;
            self.base.compact_through(core, ctx, executed, |_, _| {});
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
            PaxosMsg::Prepare { ballot, from_slot } => {
                // Figure 1 Phase1b.
                if ballot > self.ballot {
                    self.ballot = ballot;
                    self.phase1_succeeded = false;
                    core.leader_hint = Some(ballot.owner(core.cfg.n));
                    self.arm_election(core, ctx);
                    // The promise itself is free always-durable metadata
                    // (see the module docs), but the reply reports
                    // accepted *values*; deferring it behind any
                    // outstanding value write keeps the report's
                    // contents crash-stable.
                    let ok = Msg::Paxos(PaxosMsg::PrepareOk {
                        ballot,
                        entries: self.base.accepted(from_slot..).collect(),
                        log_tail: self.log_tail(),
                        floor: self.base.floor(),
                    });
                    core.ack_after_sync(ctx, from, ok);
                    // The candidate asks for instances we checkpointed
                    // away: ship the checkpoint so it can execute the
                    // covered prefix it will never see as entries.
                    if from_slot <= self.base.floor() {
                        let candidate = core.cfg.node_of(from);
                        self.base.ship_checkpoint(core, ctx, candidate, self.ballot);
                    }
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
                    self.prepare_acks.insert(node, (entries, log_tail, floor));
                    self.try_phase1_succeed(core, ctx);
                }
            }
            PaxosMsg::Accept {
                ballot,
                items,
                window_room,
            } => {
                // Figure 1 Phase2b.
                if ballot >= self.ballot {
                    if ballot > self.ballot {
                        self.ballot = ballot;
                        self.phase1_succeeded = false;
                    }
                    core.leader_hint = Some(ballot.owner(core.cfg.n));
                    core.note_window_hint(window_room, ctx.now());
                    let bytes: usize = items.iter().map(|(_, c)| c.size_bytes()).sum();
                    ctx.charge(
                        core.cfg.costs.append_fixed
                            + core.cfg.costs.append_per_cmd * items.len() as u64
                            + core.cfg.costs.size_cost(bytes),
                    );
                    let durable = core.dur.enabled();
                    let mut slots = Slots::new();
                    let mut below_floor = false;
                    let mut written = Slots::new();
                    let mut written_bytes = 0usize;
                    for (slot, cmd) in items.iter() {
                        let slot = *slot;
                        match self.base.store(slot, ballot, cmd.clone()) {
                            // Checkpointed away: the instance is chosen
                            // and executed here; a proposer asking about
                            // it is behind our floor.
                            Stored::BelowFloor => {
                                below_floor = true;
                                continue;
                            }
                            Stored::Kept => {}
                            Stored::Written(_) => {
                                // No cell's ballot exceeds the replica's.
                                debug_assert!(self
                                    .base
                                    .cells
                                    .get(slot)
                                    .is_some_and(|i| i.bal == ballot));
                                if durable {
                                    written_bytes += cmd.size_bytes();
                                    written.push(slot);
                                }
                            }
                        }
                        slots.push(slot);
                    }
                    // The freshly accepted values are one disk write;
                    // tag their instances so a crash before the
                    // covering fsync drops exactly them.
                    self.base.note_written(core, ctx, &written, written_bytes);
                    self.base.note_log_size(core);
                    self.arm_election(core, ctx); // accepts double as heartbeats
                                                  // Phase2b promises the accepted values survive a
                                                  // crash: the acceptOK leaves only after the fsync
                                                  // covering them (group commit batches the fsync).
                    let ok = Msg::Paxos(PaxosMsg::AcceptOk {
                        ballot,
                        slots,
                        exec: self.base.exec_index,
                    });
                    core.ack_after_sync(ctx, from, ok);
                    if below_floor {
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
            } => {
                // Figure 1 Learn.
                let node = core.cfg.node_of(from);
                self.base.note_peer_exec(node, exec);
                if let Some(upto) = slots.max() {
                    core.pipe.on_ack(node, upto);
                }
                if ballot == self.ballot && self.phase1_succeeded {
                    ctx.charge(core.cfg.costs.ack_process);
                    let mut chosen = Slots::new();
                    self.base
                        .tally(slots.iter(), 1u64 << node.0, |_| true, |s| chosen.push(s));
                    // An acceptor's executed prefix is chosen globally.
                    // Instances we proposed at our own ballot (i.e.
                    // after a successful phase 1) need no quorum count
                    // there: their value agrees with the chosen one by
                    // the phase-1 safety argument. Stale-ballot values
                    // may differ from what was chosen, so they must
                    // wait for a Learn or checkpoint instead. Only
                    // `(exec_index, exec]` can hold such an instance:
                    // `try_execute` and checkpoint install leave nothing
                    // uncommitted at or below our own `exec_index`. An
                    // ack whose `exec` trails it (the common case) has
                    // nothing to teach: its range is empty.
                    let ahead = self.base.exec_index.next()..=exec;
                    for (s, inst) in self.base.cells.range_mut(ahead) {
                        if !inst.committed && inst.cmd().is_some() && inst.bal == self.ballot {
                            inst.committed = true;
                            chosen.push(s);
                        }
                    }
                    self.learn_chosen(core, ctx, chosen);
                    // The freed window slot may have a backlog waiting.
                    self.pump_accepts(core, ctx, node);
                }
            }
            PaxosMsg::Learn { slots } => {
                self.base.learn(slots.iter());
                self.try_execute(core, ctx);
            }
        }
    }

    /// Heartbeat: retransmit uncommitted instances, re-Learn committed
    /// ones, and catch lagging acceptors up — by instance replay while
    /// their gap is still retained, by checkpoint once it is not.
    fn heartbeat(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        if !self.phase1_succeeded {
            return;
        }
        // Rounds whose acks never came are presumed lost; the heartbeat
        // retransmission below re-covers their instances, so the window
        // must not stay pinned by them.
        core.pipe.expire_stale(ctx.now(), engine::RETRY_INTERVAL);
        let exec_index = self.base.exec_index;
        let retransmit: Round = self
            .base
            .cells
            .range(exec_index.next()..)
            .filter(|(_, i)| !i.committed)
            .filter_map(|(s, i)| i.cmd().cloned().map(|c| (s, c)))
            .collect();
        let committed: Slots = self
            .base
            .cells
            .range(Slot(exec_index.0.saturating_sub(64))..)
            .filter(|(_, i)| i.committed)
            .map(|(s, _)| s)
            .collect();
        // The heartbeat Accept doubles as the hint refresh: even an idle
        // cluster re-teaches acceptors the proposer's window occupancy.
        let window_room = core.pipe.quorum_has_room(core.cfg.id, core.cfg.n);
        self.broadcast(
            core,
            ctx,
            PaxosMsg::Accept {
                ballot: self.ballot,
                items: retransmit,
                window_room,
            },
        );
        if !committed.is_empty() {
            self.broadcast(core, ctx, PaxosMsg::Learn { slots: committed });
        }
        // Per-acceptor catch-up of *stalled* acceptors (behind the floor
        // by checkpoint), 64 instances per round to bound the burst.
        for peer in core.cfg.others() {
            let Some(from) = self.base.stalled_peer(core, ctx, peer, self.ballot) else {
                continue;
            };
            let replay: Round = self
                .base
                .cells
                .range(from..)
                .take(64)
                .filter(|(_, i)| i.committed)
                .filter_map(|(s, i)| i.cmd().cloned().map(|c| (s, c)))
                .collect();
            if replay.is_empty() {
                continue;
            }
            let slots: Slots = replay.iter().map(|(s, _)| *s).collect();
            ctx.send(
                core.cfg.peer(peer),
                Msg::Paxos(PaxosMsg::Accept {
                    ballot: self.ballot,
                    items: replay,
                    window_room,
                }),
            );
            ctx.send(core.cfg.peer(peer), Msg::Paxos(PaxosMsg::Learn { slots }));
        }
        core.arm_heartbeat(ctx);
    }
}

impl ProtocolRules for PaxosRules {
    fn can_propose(&self, _core: &EngineCore) -> bool {
        self.phase1_succeeded
    }

    fn applied_index(&self, _core: &EngineCore) -> Slot {
        self.base.exec_index
    }

    /// Figure 1 `Phase2a`, batched.
    fn propose(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, cmds: &mut Vec<Command>) {
        // The round's one allocation, straight from the batch. Fresh
        // slots: past everything a quorum reported to phase 1.
        let first = self.next_slot.0;
        let numbered = cmds.drain(..).enumerate();
        let items: Round = numbered.map(|(i, c)| (Slot(first + i as u64), c)).collect();
        self.next_slot = Slot(first + items.len() as u64);
        debug_assert!(items.iter().all(|(s, _)| self.base.cells.get(*s).is_none()));
        self.write_round(core, ctx, &items);
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
        if self.base.install(core, ctx, snap, |_, _| {}).is_some() {
            if self.next_slot <= covered {
                self.next_slot = covered.next();
            }
            // A mid-campaign phase-1 picture is stale now; the armed
            // election timer retries with a fresh ballot.
            if !self.phase1_succeeded {
                self.prepare_acks.clear();
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
        core.snap_send.finish(node.0 as usize);
        self.base.note_peer_exec(node, upto);
    }

    fn on_durable(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        // An fsync landed: the proposer's own accepted values up to the
        // durable watermark now count toward their quorums.
        if !self.phase1_succeeded {
            return;
        }
        // A vote recorded under a superseded ballot no longer applies
        // (the bitmap was reseeded at the new ballot).
        let (synced, ballot) = (core.dur.synced_seq(), self.ballot);
        let mut chosen = Slots::new();
        self.base.tally_synced_votes(
            synced,
            core.me_bit(),
            |bal, _| bal == ballot,
            |s| chosen.push(s),
        );
        self.learn_chosen(core, ctx, chosen);
    }

    fn record_metrics(&self, sample: &mut crate::telemetry::MetricSample) {
        self.base.record_metrics(sample);
    }

    fn on_crash(&mut self, core: &mut EngineCore) {
        // Model a restart with stable storage: ballot, *fsynced*
        // accepted values, commit flags, the executed state and the
        // checkpoint persist; volatile leadership does not. With
        // durability enabled, accepted values whose write never fsynced
        // are gone ([`PaxosBase::crash`]); what a committed instance lost
        // is re-fetched from the proposer's retransmission or a
        // checkpoint. An instance that lost its value accepted nothing,
        // so its ballot goes with it, and a fully empty uncommitted one
        // needs no placeholder.
        let from = self.base.exec_index.next();
        for (s, committed) in self.base.crash(from, core.dur.synced_seq()) {
            if committed {
                self.base.cells.get_mut(s).expect("kept").bal = Term::ZERO;
            } else {
                self.base.cells.remove(s);
            }
        }
        self.phase1_succeeded = false;
        self.prepare_acks.clear();
        self.accept_cursor.fill(Slot::NONE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{cluster_with, drive_until, TestClient};
    use paxraft_sim::sim::Simulation;
    use paxraft_sim::time::{SimDuration, SimTime};

    fn paxos_cluster(n: usize) -> (Simulation<Msg>, Vec<ActorId>, ActorId) {
        cluster_with(n, |cfg| {
            let mut cfg = cfg;
            cfg.initial_leader = Some(NodeId(0));
            Box::new(MultiPaxosReplica::new(cfg))
        })
    }

    /// A scripted acceptor: promises every `Prepare` and, when `accepts`,
    /// acknowledges every `Accept` reporting `exec` as its executed
    /// prefix.
    struct PuppetAcceptor {
        accepts: bool,
        exec: Slot,
    }

    impl paxraft_sim::sim::Actor<Msg> for PuppetAcceptor {
        fn on_message(&mut self, ctx: &mut Ctx<Msg>, from: ActorId, msg: Msg) {
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
                        slots: items.iter().map(|(s, _)| *s).collect(),
                        exec: self.exec,
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
                let accepts = cfg.id.0 <= accepting;
                Box::new(PuppetAcceptor { accepts, exec })
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
        let inst = sim
            .actor::<MultiPaxosReplica>(proposer)
            .rules
            .base
            .cells
            .get(Slot(1))
            .unwrap();
        assert!(inst.committed);
        assert_eq!(inst.acks.count_ones(), 2, "no quorum of acks");
    }

    /// A scripted proposer: sends its acceptor the same three-instance
    /// `Accept` twice, 100 us apart, and keeps every `AcceptOk` with its
    /// arrival time.
    struct TwiceProposer {
        acceptor: ActorId,
        acks: Vec<(SimTime, Vec<Slot>)>,
    }

    impl TwiceProposer {
        fn accept() -> Msg {
            let put = |seq| Command::put(crate::kv::CmdId { client: 9, seq }, seq, vec![0; 8]);
            Msg::Paxos(PaxosMsg::Accept {
                ballot: Term(5),
                items: (1..=3).map(|s| (Slot(s), put(s))).collect(),
                window_room: true,
            })
        }
    }

    impl paxraft_sim::sim::Actor<Msg> for TwiceProposer {
        fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
            ctx.send(self.acceptor, Self::accept());
            ctx.set_timer(SimDuration::from_micros(100), 0);
        }

        fn on_timer(&mut self, ctx: &mut Ctx<Msg>, _token: u64) {
            ctx.send(self.acceptor, Self::accept());
        }

        fn on_message(&mut self, ctx: &mut Ctx<Msg>, _from: ActorId, msg: Msg) {
            if let Msg::Paxos(PaxosMsg::AcceptOk { slots, .. }) = msg {
                self.acks.push((ctx.now(), slots.iter().collect()));
            }
        }

        paxraft_sim::impl_actor_any!();
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
        let durability = DurabilityConfig::per_entry(device);
        let disk = durability.disk_config();
        // One region, so the link is sub-millisecond against the 3 ms write.
        let mut sim = Simulation::new(paxraft_sim::net::NetConfig::default(), 7);
        sim.set_disk_config(disk);
        let region = paxraft_sim::net::Region::Oregon;
        let mut cfg = ReplicaConfig::wan_default(NodeId(1), 3);
        cfg.peers = (0..3).map(ActorId).collect();
        cfg.client_base = 3;
        cfg.durability = durability;
        let proposer = sim.add_actor(
            region,
            Box::new(TwiceProposer {
                acceptor: ActorId(1),
                acks: Vec::new(),
            }),
        );
        let acceptor = sim.add_actor(region, Box::new(MultiPaxosReplica::new(cfg)));
        assert_eq!((proposer, acceptor), (ActorId(0), ActorId(1)));
        sim.run_until(SimTime::from_millis(20));
        assert_eq!(sim.disk_stats_at(acceptor).fsyncs, 3, "the round, once");
        let rep = sim.actor::<MultiPaxosReplica>(acceptor);
        let base = &rep.rules.base;
        assert_eq!(rep.durability_stats().fsync_entries, 3);
        let mut sample = crate::telemetry::MetricSample::default();
        base.record_metrics(&mut sample);
        assert_eq!(sample.get("accept_writes"), 3.0);
        assert_eq!(sample.get("accept_duplicates"), 3.0);
        let acks = &sim.actor::<TwiceProposer>(proposer).acks;
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
