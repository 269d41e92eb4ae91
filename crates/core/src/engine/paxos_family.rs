//! The Paxos-family base: the instance table and the bookkeeping around
//! it, shared verbatim by MultiPaxos and Mencius — the twin of
//! [`super::raft_family::RaftBase`].
//!
//! Both keep one Paxos instance per slot and do the same things to it:
//! take a value — the proposer's write ([`PaxosBase::propose`]) or phase
//! 2b over a received run ([`PaxosBase::accept`]) — tally acks into a
//! quorum (the one way a value is chosen, a Mencius revocation's too),
//! learn a decision (possibly before its value, and for a held value only
//! if it was accepted at the deciding ballot or above), tag what they
//! write for the fsync that will cover it and withhold the proposer's own
//! vote until then, compact behind a checkpoint, install a peer's, notice
//! a peer whose executed prefix stalled, open and answer a phase 1
//! (`engine/phase1.rs`: one `Prepare`/`PrepareOk` exchange for
//! MultiPaxos's election and a Mencius revocation, which asks about one
//! owner's slots), and drop what never reached the disk in a crash.
//! Wherever a value enters or leaves, the base keeps the engine's conflict
//! index (`engine/conflicts.rs`) right, when there is one.
//!
//! # Durability
//!
//! An ack is an acceptor's promise that the values it names survive a
//! crash (Paxos's acceptor persistence), so it leaves through
//! `EngineCore::ack_after_sync`, after the fsync covering them; the
//! proposer's own vote waits the same way ([`PaxosBase::propose`],
//! counted by the rules' `on_durable`), and so does a `PrepareOk`, which
//! reports values ([`PaxosBase::answer_phase1`]). A crash drops exactly
//! the values no fsync covered ([`PaxosBase::crash`]): unsynced, they
//! counted toward no quorum, and a chosen one is re-fetched. Ballots and
//! promises are always-durable metadata, like Raft's terms, and no
//! promise is a cell's.
//!
//! # What `store` answers
//!
//! An acceptor never writes a value twice. `PaxosBase::store` answers
//! [`Stored::Kept`] for a cell that already holds the value — chosen, or
//! *this command at this ballot*, as every retransmission and replay
//! delivers — and [`Stored::Written`] otherwise. Only `Written` reaches
//! the device in phase 2b; a `Kept` slot is still acknowledged, after the
//! first write's barrier. `accept_duplicates` counts the `Kept` arrivals.
//!
//! What differs stays in the rules files and is never a branch here: the
//! execute loops, the crash policies, the replay bodies, who proposes
//! where. A difference in the bookkeeping itself is an argument; one
//! nothing can observe is noted on the method that unifies it.
//!
//! # Rounds
//!
//! A MultiPaxos or Mencius round is a run of the sender's own table, cut
//! by `SlotRing::cut` like every round (`engine/slots.rs`, *Rounds*): a
//! proposed batch, a phase 1's adoptions, a pump, a heartbeat's or an
//! owner's re-send, a stalled peer's replay. It stays what it was cut as:
//! a [`Cell`], the value and the ballot it was accepted at, changes only
//! through `&mut`, which copies a block a round holds first. What one
//! replica keeps of an instance in flight — the ack tally, the decision,
//! the write sequence — sits beside the table, in `PaxosBase`'s `flight`
//! ring; Mencius keeps what its owner knows of its own slots in its own.
//!
//! So an acceptor holds its proposer's blocks, as a Raft follower holds
//! its leader's (`log.rs`, *Storage*): phase 2b takes them by
//! `SlotRing::share`, writing nothing, and clones in what it cannot take,
//! charging what a copy costs either way. A write to a held block — a
//! phase 1's adoption, a re-proposal at a higher ballot, a crash's drop —
//! copies it first.

use std::collections::VecDeque;

use paxraft_sim::sim::{ActorId, Ctx};

use crate::kv::{CmdId, Command, IntMap};
use crate::msg::{Msg, PaxosMsg, Slots};
use crate::snapshot::Snapshot;
use crate::telemetry::MetricSample;
use crate::types::{quorum, NodeId, Slot, Term};

use super::conflicts::{self, Holds};
use super::phase1::Phase1;
use super::slots::Run;
use super::{transfer, EngineCore, SlotRing};

/// One Paxos instance as every replica holding it sees it (Figure 1's
/// `s.instances[i]`): the value and the ballot it was accepted at, the
/// shape of `log::Entry`; the default accepted nothing. It changes only
/// through `&mut`, in `PaxosBase`, so an acceptor's block can be its
/// proposer's (module docs, *Rounds*): 56 bytes, where it was 72 with one
/// replica's own state in it (`Local`).
#[derive(Debug, Clone, Default)]
pub struct Cell {
    /// Highest ballot the value was accepted at (the spec's `abal`), zero
    /// while it holds none; a promise is the rules file's, never here.
    bal: Term,
    /// The accepted value (`instance.val`).
    cmd: Option<Command>,
}

/// One replica's own state of an instance in flight (module docs, *Rounds*).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Local {
    /// Whether the value is known chosen.
    committed: bool,
    /// Proposer-side acknowledgement bitmap, one bit per replica
    /// (`ReplicaConfig::validate` caps a cluster at 32).
    acks: u32,
    /// Durability: engine write sequence of the last value write (0 when
    /// durability is disabled).
    wseq: u64,
}

/// A replica's bit in a cell's ack bitmap.
pub(crate) fn ack_bit(node: NodeId) -> u32 {
    1 << node.0
}

impl Cell {
    /// The accepted value, if any.
    pub(crate) fn cmd(&self) -> Option<&Command> {
        self.cmd.as_ref()
    }

    /// The ballot the value was accepted at.
    pub(crate) fn bal(&self) -> Term {
        self.bal
    }

    /// Writes `cmd` at `bal`, keeping `bytes` (the table's retained
    /// payload) right; returns the value it replaced.
    fn put(&mut self, bytes: &mut usize, bal: Term, cmd: Command) -> Option<Command> {
        *bytes += cmd.size_bytes();
        let replaced = self.cmd.replace(cmd);
        *bytes -= replaced.as_ref().map_or(0, Command::size_bytes);
        self.bal = self.bal.max(bal);
        replaced
    }
}

/// What `PaxosBase::store` did with a value.
#[derive(Debug, PartialEq)]
pub(crate) enum Stored {
    /// Nothing: the slot already holds the value — chosen, or accepted at
    /// this very ballot.
    Kept,
    /// Written, over the value inside (if any).
    Written(Option<Command>),
}

/// What phase 2b ([`PaxosBase::accept`]) did with its values.
#[derive(Debug, Default)]
pub(crate) struct Received {
    /// The slots stored, written or held already: what the ack names.
    pub(crate) acked: Slots,
    /// The slots the eligibility rule refused.
    pub(crate) refused: Vec<Slot>,
    /// Whether a slot lay at or below the checkpoint floor — decided,
    /// executed, discarded; re-creating it would corrupt that prefix.
    pub(crate) below_floor: bool,
    /// Whether a value written over left the conflict index: a write that
    /// will never apply, so the answers it held back get a fresh look.
    pub(crate) released: bool,
}

/// Phase 2b's report, and the values the device is asked to write.
#[derive(Default)]
struct Phase2b {
    got: Received,
    written: Slots,
    bytes: usize,
}

/// Instance state common to MultiPaxos and Mencius: one type, not one
/// per protocol — what only one of them keeps per slot sits in its rules
/// file, beside the table (the Mencius owner's own slots).
pub(crate) struct PaxosBase {
    /// The instances, from the checkpoint floor up.
    pub(crate) cells: SlotRing<Cell>,
    /// This replica's own state of its instances from `flight_from` up, a
    /// ring with a block's room and then the largest span it needed. Every
    /// instance below executed with its value synced: chosen if valued.
    flight: VecDeque<Local>,
    flight_from: u64,
    /// All instances at or below this are applied.
    pub(crate) exec_index: Slot,
    /// Checkpoint floor: instances at or below it were discarded after
    /// execution; their effects live in the state machine.
    compacted_through: Slot,
    /// Retained instance payload bytes (feeds `peak_log_bytes`).
    bytes: usize,
    /// Slots learnt chosen before their value arrived, each with the
    /// ballot a value must have been accepted at (or above) to be the
    /// chosen one ([`Self::learn_at`]). A hash map: a tree that keeps
    /// emptying pays a fresh node at every refill.
    committed_no_value: IntMap<u64, Term>,
    /// Durability: proposals whose *own* vote awaits the local fsync, as
    /// (write seq, ballot, slots) in write order.
    pending_self: Vec<(u64, Term, Slots)>,
    /// Executed prefix each peer last reported.
    peer_exec: Vec<Slot>,
    /// `peer_exec` as of the previous [`Self::stalled_peer`] check.
    peer_exec_prev: Vec<Slot>,
    /// Votes that choose a value.
    quorum: usize,
    /// This replica's [`ack_bit`]: the proposer's own vote in the cells
    /// it tallies.
    me: u32,
    /// Values put into a cell: accepted into an empty one, or replacing
    /// another. What the device may be asked to write.
    accept_writes: u64,
    /// Values that arrived again at the ballot they are held at
    /// (retransmissions and replays; none of them is written).
    accept_duplicates: u64,
}

impl PaxosBase {
    /// Empty state for replica `me` of an `n`-replica cluster.
    pub(crate) fn new(n: usize, me: NodeId) -> Self {
        PaxosBase {
            cells: SlotRing::new(),
            flight: VecDeque::with_capacity(256),
            flight_from: 1,
            exec_index: Slot::NONE,
            compacted_through: Slot::NONE,
            bytes: 0,
            committed_no_value: IntMap::default(),
            pending_self: Vec::new(),
            peer_exec: vec![Slot::NONE; n],
            peer_exec_prev: vec![Slot::NONE; n],
            quorum: quorum(n),
            me: ack_bit(me),
            accept_writes: 0,
            accept_duplicates: 0,
        }
    }

    /// The checkpoint floor.
    pub(crate) fn floor(&self) -> Slot {
        self.compacted_through
    }

    /// Whether `slot` is above the checkpoint floor and holds no value:
    /// a write there replaces nothing.
    pub(crate) fn vacant(&self, slot: Slot) -> bool {
        slot > self.compacted_through && self.cells.get(slot).is_none_or(|c| c.cmd.is_none())
    }

    /// This replica's own state of the instance at `slot`.
    fn local(&self, slot: Slot) -> Local {
        let Some(i) = slot.0.checked_sub(self.flight_from) else {
            let committed = self.cells.get(slot).is_some_and(|c| c.cmd.is_some());
            return Local {
                committed,
                ..Local::default()
            };
        };
        self.flight.get(i as usize).copied().unwrap_or_default()
    }

    /// [`Self::local`], to write: `flight` stretches to `slot`.
    fn local_mut(&mut self, slot: Slot) -> &mut Local {
        while slot.0 < self.flight_from {
            let below = self.local(Slot(self.flight_from - 1));
            self.flight.push_front(below);
            self.flight_from -= 1;
        }
        let i = (slot.0 - self.flight_from) as usize;
        if i >= self.flight.len() {
            self.flight.resize(i + 1, Local::default());
        }
        &mut self.flight[i]
    }

    /// Whether the instance at `slot` is known chosen.
    pub(crate) fn committed(&self, slot: Slot) -> bool {
        self.local(slot).committed
    }

    /// Marks the instance at `slot`, which holds a value, chosen.
    pub(crate) fn commit(&mut self, slot: Slot) {
        self.local_mut(slot).committed = true;
    }

    /// Whether `slot` was learnt chosen and still awaits its value.
    pub(crate) fn learnt_without_value(&self, slot: Slot) -> bool {
        self.committed_no_value.contains_key(&slot.0)
    }

    /// The work-paid-once counters, for `metric_sample`: a replica's
    /// device is asked for no more value writes than `accept_writes`, and
    /// `accept_duplicates` is the traffic that re-delivered held values.
    pub(crate) fn record_metrics(&self, sample: &mut MetricSample) {
        sample.record("accept_writes", self.accept_writes as f64);
        sample.record("accept_duplicates", self.accept_duplicates as f64);
    }

    /// Folds the table's size into the reported peaks, a running maximum.
    fn note_log_size(&self, core: &mut EngineCore) {
        core.snap_stats.note_log_size(self.cells.len(), self.bytes);
    }

    /// Figure 1's `Phase2a` on the proposer itself: writes `values`, in
    /// ascending slot order, at its ballot `bal`, and cuts the round that
    /// carries them: the instances from the first value to the last,
    /// `stride` apart, that `carried` admits. Its own ack is seeded absent
    /// while durability is on: the round is one device write, and the
    /// vote is queued until the fsync covering it
    /// ([`Self::tally_synced_votes`]). The table's size is sampled once,
    /// after the writes.
    pub(crate) fn propose(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        bal: Term,
        values: impl IntoIterator<Item = (Slot, Command)>,
        stride: u64,
        carried: impl Fn(&Self, Slot, &Cell) -> bool,
    ) -> Run<Cell> {
        let own = if core.dur.enabled() { 0 } else { self.me };
        let mut span = None;
        for (slot, cmd) in values {
            let replaced = self.write(slot, bal, cmd);
            let cell = self.cells.get(slot).expect("just written");
            debug_assert_eq!(cell.bal, bal, "no cell's ballot exceeds its proposer's");
            self.local_mut(slot).acks = own;
            self.index_write(core, slot, replaced.as_ref());
            span = Some(span.map_or((slot, slot), |(first, _)| (first, slot)));
        }
        let (first, last) = span.unwrap_or((Slot(1), Slot::NONE));
        let held = |s, c: &Cell| c.cmd.is_some() && carried(self, s, c);
        let round = self.cells.cut(first..=last, stride, usize::MAX, held);
        if core.dur.enabled() && !round.is_empty() {
            let slots: Slots = round.iter().map(|(s, _)| s).collect();
            let bytes = round.values().map(|(_, cmd)| cmd.size_bytes()).sum();
            self.note_written(core, ctx, &slots, bytes);
            let seq = core.dur.write_seq();
            debug_assert!(self.pending_self.last().is_none_or(|(s, ..)| *s < seq));
            self.pending_self.push((seq, bal, slots));
        }
        self.note_log_size(core);
        round
    }

    /// Phase 2b over a run received at ballot `bal` (Figure 1's
    /// `Phase2b`, a Mencius `Suggest`): stores each value above the floor
    /// that `eligible` admits (module docs, *What `store` answers*) and
    /// charges the values written as one device write. A block of the
    /// proposer's whose values were all proposed at `bal` and admitted is
    /// taken as it is (`SlotRing::share`) and filed as a copy would be.
    pub(crate) fn accept(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        bal: Term,
        round: &Run<Cell>,
        eligible: impl Fn(&Self, Slot) -> bool,
    ) -> Received {
        let floor = self.compacted_through;
        let mut taken = round.iter().take_while(|&(s, _)| s <= floor).count();
        let mut p = Phase2b::default();
        p.got.below_floor = taken > 0;
        for (block, cells) in round.blocks(taken) {
            let (from, count, held) = (taken, cells.len(), self.cells.last_slot());
            let part = || round.iter_from(from).take(count);
            let at = part().next().expect("a run covers set cells").0;
            let whole = part().all(|(s, c)| c.bal == bal && eligible(self, s));
            let shared = whole && self.cells.share(at, block, cells);
            taken += count;
            for (s, cmd) in part().map(value) {
                let fresh = shared && held.is_none_or(|h| s > h);
                self.arrive(core, &mut p, bal, (s, cmd), &eligible, fresh);
            }
        }
        for pair in round.iter_from(taken).map(value) {
            self.arrive(core, &mut p, bal, pair, &eligible, false);
        }
        self.note_written(core, ctx, &p.written, p.bytes);
        p.got
    }

    /// One value of phase 2b at `bal` arriving at `slot`: reported below
    /// the floor or refused by `eligible`, else stored — `fresh` when it
    /// has just entered the table by `SlotRing::share` — and filed: the
    /// conflict index, the charge, the size sample (the reported peaks are
    /// maxima over these) and the ack.
    fn arrive(
        &mut self,
        core: &mut EngineCore,
        p: &mut Phase2b,
        bal: Term,
        (slot, cmd): (Slot, &Command),
        eligible: &impl Fn(&Self, Slot) -> bool,
        fresh: bool,
    ) {
        if slot <= self.compacted_through {
            p.got.below_floor = true;
            return;
        } else if !eligible(self, slot) {
            p.got.refused.push(slot);
            return;
        }
        let stored = if fresh {
            self.accept_writes += 1;
            self.bytes += cmd.size_bytes();
            self.promote(slot, bal, Stored::Written(None))
        } else {
            self.store(slot, bal, cmd)
        };
        if let Stored::Written(replaced) = stored {
            p.got.released |= self.index_write(core, slot, replaced.as_ref());
            if core.dur.enabled() {
                p.written.push(slot);
                p.bytes += cmd.size_bytes();
            }
        }
        self.note_log_size(core);
        p.got.acked.push(slot);
    }

    /// Keeps the conflict index right where the value at `slot` was just
    /// written over `replaced`: a value above the executed prefix enters,
    /// and the one it replaced leaves unless it held the same answers
    /// back. Returns whether the replaced value left.
    fn index_write(&self, core: &mut EngineCore, slot: Slot, replaced: Option<&Command>) -> bool {
        let Some(index) = core.conflicts.as_deref_mut() else {
            return false;
        };
        let cmd = self.cells.get(slot).and_then(Cell::cmd).expect("written");
        let holds = Holds::of(cmd).filter(|_| slot > self.exec_index);
        let stale = replaced.filter(|old| Holds::of(old) != holds);
        let released = stale.is_some_and(|old| index.leave(slot, old));
        if holds.is_some() {
            index.enter(slot, cmd);
        }
        released
    }

    /// Execution reached `slot`, the next one: its value holds no answer
    /// back any more, and the instances executed with their values synced
    /// leave `flight`.
    pub(crate) fn executed(&mut self, core: &mut EngineCore, slot: Slot) {
        debug_assert_eq!(slot, self.exec_index.next());
        if let Some(index) = core.conflicts.as_deref_mut() {
            if let Some(cmd) = self.cells.get(slot).and_then(Cell::cmd) {
                index.leave(slot, cmd);
            }
        }
        self.exec_index = slot;
        let synced = core.dur.synced_seq();
        while self.flight_from <= slot.0 && self.flight.front().is_none_or(|l| l.wseq <= synced) {
            self.flight.pop_front();
            self.flight_from += 1;
        }
    }

    /// A proposer's own write of `cmd` at its ballot, asking nothing: it
    /// numbers its instances above everything it executed and adopts
    /// values without counting them learnt. Returns the value it replaced.
    fn write(&mut self, slot: Slot, bal: Term, cmd: Command) -> Option<Command> {
        self.accept_writes += 1;
        self.put(slot, bal, cmd)
    }

    /// Puts `cmd` at `slot` at `bal`, returning the value it replaced. An
    /// absent instance is filled whole, in place, in a tail block rounds
    /// in flight or another table hold too; a value written over a held
    /// instance (a phase 1's adoption, a learnt decision) copies such a
    /// block first (module docs, *Rounds*).
    fn put(&mut self, slot: Slot, bal: Term, cmd: Command) -> Option<Command> {
        if let Some(cell) = self.cells.get_mut(slot) {
            return cell.put(&mut self.bytes, bal, cmd);
        }
        self.bytes += cmd.size_bytes();
        let cell = Cell {
            bal,
            cmd: Some(cmd),
        };
        self.cells.insert(slot, cell);
        None
    }

    /// Stores a value accepted (or learnt) at `bal` above the checkpoint
    /// floor. A slot committed with a value keeps it, and so does one
    /// holding this command at this ballot (module docs); a slot learnt
    /// chosen ahead of its value is committed now, if `bal` is one the
    /// decision vouches for ([`Self::learn_at`]). The cell's ballot becomes
    /// the higher of `bal` and its own (for MultiPaxos always `bal`).
    fn store(&mut self, slot: Slot, bal: Term, cmd: &Command) -> Stored {
        debug_assert!(slot > self.compacted_through);
        if let Some(cell) = self.cells.get(slot) {
            let again = cell.bal == bal && cell.cmd.as_ref() == Some(cmd);
            let chosen = cell.cmd.is_some() && self.committed(slot);
            self.accept_duplicates += u64::from(again);
            if chosen {
                return Stored::Kept;
            }
            if again {
                return self.promote(slot, bal, Stored::Kept);
            }
        }
        self.accept_writes += 1;
        let replaced = self.put(slot, bal, cmd.clone());
        self.promote(slot, bal, Stored::Written(replaced))
    }

    /// [`Self::store`]'s last step: a slot learnt chosen ahead of its
    /// value is committed once a value `bal` vouches for is held.
    fn promote(&mut self, slot: Slot, bal: Term, stored: Stored) -> Stored {
        let decided_at = self.committed_no_value.get(&slot.0);
        if decided_at.is_some_and(|at| bal >= *at) {
            self.committed_no_value.remove(&slot.0);
            self.commit(slot);
        }
        stored
    }

    /// Durability: charges the disk write for freshly written values and
    /// tags them with the write sequence, so a crash before the
    /// covering fsync drops exactly them.
    fn note_written(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        written: &Slots,
        bytes: usize,
    ) {
        if written.is_empty() || !core.dur.enabled() {
            return;
        }
        core.durable_write(ctx, bytes, written.len());
        self.tag(written, core.dur.write_seq());
    }

    /// Tags the instances of `written` with the write sequence `seq`.
    fn tag(&mut self, written: &Slots, seq: u64) {
        for s in written.iter() {
            if self.cells.get(s).is_some() {
                self.local_mut(s).wseq = seq;
            }
        }
    }

    /// Tallies the queued own votes the fsync through write `synced`
    /// covers, in write order, as [`Self::tally`] would — for the cells
    /// `eligible` admits given the ballot the vote was proposed at (it
    /// may have moved since). Returns whether any vote was due.
    pub(crate) fn tally_synced_votes(
        &mut self,
        synced: u64,
        eligible: impl Fn(Term, &Cell) -> bool,
        admits: impl Fn(u32) -> bool,
        mut chosen: impl FnMut(Slot),
    ) -> bool {
        let covered = self
            .pending_self
            .partition_point(|(seq, ..)| *seq <= synced);
        let (mut votes, admits) = (std::mem::take(&mut self.pending_self), &admits);
        for (_, bal, slots) in votes.drain(..covered) {
            let eligible = |cell: &Cell| eligible(bal, cell);
            self.tally(slots.iter(), self.me, eligible, admits, &mut chosen, |_| {});
        }
        self.pending_self = votes;
        covered > 0
    }

    /// Drops the queued own votes (a new ballot reseeds the bitmaps).
    pub(crate) fn forget_self_votes(&mut self) {
        self.pending_self.clear();
    }

    /// Adds the ack `bit` to each of `slots` not chosen yet that
    /// `eligible` admits (Mencius: still at the acked term; MultiPaxos
    /// checks its ballot once per message), and reports to `chosen` those
    /// it completed a quorum for that `admits` (the lease gate,
    /// `engine/lease.rs`) too, now committed — each once.
    ///
    /// `quorum` hears the client command of each cell the bit brings to a
    /// quorum but for this proposer's own vote, which waits for its fsync
    /// ([`Self::propose`]): the boundary `RaftBase::note_quorum` marks
    /// between the replication and fsync stages (`SpanKind::Quorum`).
    pub(crate) fn tally(
        &mut self,
        slots: impl IntoIterator<Item = Slot>,
        bit: u32,
        eligible: impl Fn(&Cell) -> bool,
        admits: impl Fn(u32) -> bool,
        mut chosen: impl FnMut(Slot),
        mut quorum: impl FnMut(CmdId),
    ) {
        for slot in slots {
            let Some(cell) = self.cells.get(slot) else {
                continue;
            };
            if self.committed(slot) || !eligible(cell) {
                continue;
            }
            let (id, needed, me) = (cell.cmd.as_ref().map(|c| c.id), self.quorum, self.me);
            let local = self.local_mut(slot);
            let acks = local.acks;
            let fresh = acks & bit == 0;
            local.acks = acks | bit;
            let votes = (acks | bit).count_ones() as usize;
            if votes >= needed && admits(acks | bit) {
                local.committed = true;
                chosen(slot);
            } else if fresh && votes + 1 == needed && acks & me == 0 {
                id.filter(|id| id.client != u32::MAX).map(&mut quorum);
            }
        }
    }

    /// Marks slots chosen on the word of the proposer at ballot `at`:
    /// Paxos makes every proposal from the ballot a value was chosen at
    /// carry it, so a held value counts only if it was accepted at `at` or
    /// above — below, it is a stale proposal. A slot without one is
    /// remembered with `at` until one arrives ([`Self::store`]). A Mencius
    /// owner's word carries no ballot (`Term::ZERO`): the value the slot
    /// holds, or the next to arrive, is the chosen one.
    pub(crate) fn learn_at(&mut self, slots: impl IntoIterator<Item = Slot>, at: Term) {
        for slot in slots {
            if slot <= self.compacted_through {
                continue; // already executed and checkpointed
            }
            match self.cells.get(slot) {
                Some(_) if self.committed(slot) => {}
                Some(cell) if cell.cmd.is_some() && cell.bal >= at => self.commit(slot),
                _ => {
                    self.committed_no_value.insert(slot.0, at);
                }
            }
        }
    }

    /// Records the executed prefix `peer` reports.
    pub(crate) fn note_peer_exec(&mut self, peer: NodeId, exec: Slot) {
        let e = &mut self.peer_exec[peer.0 as usize];
        *e = (*e).max(exec);
    }

    /// Drops instance state at or below `upto` (now held by a
    /// checkpoint); returns how many instances went. What executed there
    /// left the conflict index already.
    fn discard_through(&mut self, upto: Slot) -> usize {
        let bytes = &mut self.bytes;
        let discarded = self.cells.drop_through(upto, |_, cell| {
            *bytes -= cell.cmd.as_ref().map_or(0, Command::size_bytes);
        });
        let gone = (upto.0 + 1).saturating_sub(self.flight_from) as usize;
        self.flight.drain(..gone.min(self.flight.len()));
        self.flight_from = self.flight_from.max(upto.0 + 1);
        self.committed_no_value.retain(|&s, _| s > upto.0);
        discarded
    }

    /// Whether compaction can be due at all: the executed prefix above the
    /// floor has crossed the threshold (never, when compaction is off). The
    /// one guard both execute loops test on nearly every message.
    #[inline]
    pub(crate) fn compaction_due(&self, core: &EngineCore) -> bool {
        let executed_retained = self.exec_index.0 - self.compacted_through.0;
        core.cfg.snapshot.should_compact(executed_retained as usize)
    }

    /// Checkpoints the state machine (always at `exec_index`) and discards
    /// the instances through `upto`, if that many crossed the threshold;
    /// returns whether it did. `upto` is the executed prefix, or short of
    /// it (Mencius keeps own slots still awaiting a reply).
    pub(crate) fn compact_through(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        upto: Slot,
    ) -> bool {
        if upto <= self.compacted_through {
            return false;
        }
        let executed_retained = (upto.0 - self.compacted_through.0) as usize;
        if !core.cfg.snapshot.should_compact(executed_retained) {
            return false;
        }
        transfer::checkpoint(core, ctx, (self.exec_index, Term::ZERO));
        let discarded = self.discard_through(upto);
        self.compacted_through = upto;
        core.snap_stats.entries_discarded += discarded as u64;
        true
    }

    /// Installs a checkpoint ahead of the executed prefix: restores the
    /// state machine, moves the prefix and the floor to it and discards
    /// what it covers (never to execute here: it leaves the conflict
    /// index) — returning how many instances that was, `None` for a stale
    /// checkpoint. The caller adjusts its cursors, executes and acks.
    pub(crate) fn install(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        snap: Snapshot,
    ) -> Option<usize> {
        let covered = snap.last_slot;
        if covered <= self.exec_index {
            return None;
        }
        transfer::install(core, ctx, snap);
        if let Some(index) = core.conflicts.as_deref_mut() {
            for (s, cell) in self.cells.range(self.exec_index.next()..=covered) {
                if let Some(cmd) = cell.cmd() {
                    index.leave(s, cmd);
                }
            }
        }
        self.exec_index = covered;
        self.compacted_through = self.compacted_through.max(covered);
        Some(self.discard_through(covered))
    }

    /// Ships `peer` the state at the executed prefix, sealed with `seal`.
    pub(crate) fn ship_checkpoint(
        &self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        peer: NodeId,
        seal: Term,
    ) {
        transfer::ship_snapshot(core, ctx, peer, (self.exec_index, Term::ZERO), seal);
    }

    /// The stalled-peer check for one peer, once per tick: a report behind
    /// this replica's that *did not move* since the previous check marks a
    /// gap in the peer's instances. Below the floor the peer is shipped the
    /// checkpoint; otherwise the slot its replay starts at is returned.
    pub(crate) fn stalled_peer(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        peer: NodeId,
        seal: Term,
    ) -> Option<Slot> {
        let i = peer.0 as usize;
        let reported = self.peer_exec[i];
        let stalled = reported == self.peer_exec_prev[i];
        self.peer_exec_prev[i] = reported;
        if reported >= self.exec_index || !stalled {
            return None;
        }
        if reported < self.compacted_through {
            self.ship_checkpoint(core, ctx, peer, seal);
            return None;
        }
        Some(reported.next())
    }

    /// Phase 1a (`engine/phase1.rs`): asks every peer to promise `ballot`
    /// over `range` (`PaxosMsg::Prepare`) and returns the phase 1 with this
    /// replica's own report granted.
    pub(crate) fn open_phase1(
        &self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        ballot: Term,
        range: (Slot, Option<(NodeId, Slot)>),
    ) -> Phase1 {
        let mut phase1 = Phase1::default();
        phase1.grant(core.cfg.id, self.report(range), self.tail(), self.floor());
        core.broadcast(ctx, Msg::Paxos(PaxosMsg::Prepare { ballot, range }));
        phase1
    }

    /// Phase 1b, the rules having granted `ballot` over `range`: tells `to`
    /// the values accepted there, the log tail and the floor, after their
    /// fsync. A range from at or below the floor, chosen but unreportable
    /// there, draws the checkpoint too, sealed with `seal`.
    pub(crate) fn answer_phase1(
        &self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        to: ActorId,
        ballot: Term,
        range: (Slot, Option<(NodeId, Slot)>),
        seal: Term,
    ) {
        let ok = PaxosMsg::PrepareOk {
            ballot,
            entries: self.report(range).collect(),
            log_tail: self.tail(),
            floor: self.floor(),
        };
        core.ack_after_sync(ctx, to, Msg::Paxos(ok));
        if range.0 <= self.floor() {
            self.ship_checkpoint(core, ctx, core.cfg.node_of(to), seal);
        }
    }

    /// The phase-1 report over a `Prepare`'s range: every value accepted
    /// there (one owner's alone, for a revocation) with its ballot.
    fn report(
        &self,
        (from, owner): (Slot, Option<(NodeId, Slot)>),
    ) -> impl Iterator<Item = (Slot, Term, Command)> + '_ {
        let (n, through) = (
            self.peer_exec.len() as u64,
            owner.map_or(Slot(u64::MAX), |o| o.1),
        );
        let asked = move |s: Slot| owner.is_none_or(|(o, _)| (s.0 - 1) % n == u64::from(o.0));
        let held = |(s, cell): (Slot, &Cell)| Some((s, cell.bal, cell.cmd.clone()?));
        let range = self.cells.range(from..=through);
        range.filter(move |&(s, _)| asked(s)).filter_map(held)
    }

    /// The highest instance held.
    pub(crate) fn tail(&self) -> Slot {
        self.cells.last_slot().unwrap_or(Slot::NONE)
    }

    /// Crash: forgets what only the running process knew (the peers'
    /// reports, the queued own votes), restarts execution at `floor` and
    /// empties every cell above it whose value no fsync covered, its
    /// ballot too, copying a block another holds first. Its ack was
    /// withheld until that fsync, so no chosen state is lost; a
    /// *committed* cell degrades to learnt-without-value. The conflict
    /// index is rebuilt from the values kept above `floor`. Returns each
    /// emptied slot and whether it was committed.
    pub(crate) fn crash(&mut self, core: &mut EngineCore, floor: Slot) -> Vec<(Slot, bool)> {
        let synced = core.dur.synced_seq();
        self.peer_exec.fill(Slot::NONE);
        self.peer_exec_prev.fill(Slot::NONE);
        self.pending_self.clear();
        self.exec_index = floor;
        let mut dropped = Vec::new();
        for (i, local) in self.flight.iter_mut().enumerate() {
            let s = Slot(self.flight_from + i as u64);
            if s <= floor || local.wseq <= synced {
                continue;
            }
            let Some(cell) = self.cells.get(s).filter(|c| c.cmd.is_some()) else {
                continue;
            };
            self.bytes -= cell.cmd.as_ref().map_or(0, Command::size_bytes);
            *self.cells.get_mut(s).expect("held") = Cell::default();
            let committed = std::mem::take(local).committed;
            if committed {
                self.committed_no_value.insert(s.0, Term::ZERO);
            }
            dropped.push((s, committed));
        }
        let kept = self.cells.range(floor.next()..);
        conflicts::reindex(core, kept.filter_map(|(s, cell)| Some((s, cell.cmd()?))));
        dropped
    }
}

/// A round's `(instance, value)` pair: it is cut over instances that hold
/// a value.
fn value((slot, cell): (Slot, &Cell)) -> (Slot, &Command) {
    (slot, cell.cmd.as_ref().expect("a value"))
}

impl Run<Cell> {
    /// The `(instance, value)` pairs of a Paxos-family round, in slot
    /// order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = (Slot, &Command)> + '_ {
        self.iter().map(value)
    }
}

/// A round of its own: instances holding the values given, in ascending
/// slot order (a stand-in peer's scripted round, in tests).
impl FromIterator<(Slot, Command)> for Run<Cell> {
    fn from_iter<I: IntoIterator<Item = (Slot, Command)>>(items: I) -> Self {
        let cell = |cmd| Cell {
            cmd: Some(cmd),
            ..Cell::default()
        };
        items
            .into_iter()
            .map(|(slot, cmd)| (slot, cell(cmd)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(seq: u64) -> Command {
        Command::put(CmdId { client: 1, seq }, seq, vec![0; 8])
    }

    fn base() -> PaxosBase {
        PaxosBase::new(3, NodeId(0))
    }

    /// An engine core whose device has synced every write through `seq`.
    fn core_synced_through(seq: u64) -> EngineCore {
        let mut core = EngineCore::new(crate::config::ReplicaConfig::wan_default(NodeId(0), 3));
        core.dur.on_fsync_complete(seq);
        core
    }

    impl PaxosBase {
        /// The instance at `slot`'s ack bitmap.
        pub(crate) fn acks(&self, slot: Slot) -> u32 {
            self.local(slot).acks
        }

        /// The instance at `slot`'s write sequence.
        pub(crate) fn wseq(&self, slot: Slot) -> u64 {
            self.local(slot).wseq
        }
    }

    /// Writes `cmd` at `slot` at `bal` as a proposer does, with the ack
    /// bitmap `acks`.
    fn written(b: &mut PaxosBase, slot: Slot, bal: Term, cmd: Command, acks: u32) {
        b.write(slot, bal, cmd);
        b.local_mut(slot).acks = acks;
    }

    /// A `Learn` that arrives before its value promotes the cell when the
    /// value lands.
    #[test]
    fn a_learn_ahead_of_its_value_commits_the_cell_when_the_value_lands() {
        let mut b = base();
        b.learn_at([Slot(4)], Term::ZERO);
        assert!(b.learnt_without_value(Slot(4)));
        assert!(b.cells.get(Slot(4)).is_none(), "no placeholder cell");
        assert_eq!(b.store(Slot(4), Term(7), &put(1)), Stored::Written(None));
        let cell = b.cells.get(Slot(4)).unwrap();
        assert!(b.committed(Slot(4)) && cell.cmd() == Some(&put(1)));
        assert!(!b.learnt_without_value(Slot(4)));
        // A learn for a value already held commits on the spot.
        b.store(Slot(5), Term(7), &put(2));
        assert!(!b.committed(Slot(5)));
        b.learn_at([Slot(5)], Term::ZERO);
        assert!(b.committed(Slot(5)));
        assert!(!b.learnt_without_value(Slot(5)));
    }

    /// A decision at a ballot commits a held value only if it was accepted
    /// at that ballot or above. A stale one is left uncommitted and the
    /// slot waits, remembered with the ballot, for a value that qualifies;
    /// the stale value arriving again does not.
    #[test]
    fn a_decision_commits_only_a_value_held_at_its_ballot_or_above() {
        let mut b = base();
        b.store(Slot(1), Term(1), &put(1));
        b.store(Slot(2), Term(2), &put(2));
        b.store(Slot(3), Term(3), &put(3));
        b.learn_at((1..=4).map(Slot), Term(2));
        let chosen = |b: &PaxosBase, s| b.committed(Slot(s));
        assert!(!chosen(&b, 1) && chosen(&b, 2) && chosen(&b, 3));
        assert!(b.learnt_without_value(Slot(1)) && b.learnt_without_value(Slot(4)));
        assert_eq!(b.store(Slot(1), Term(1), &put(1)), Stored::Kept);
        assert!(!chosen(&b, 1), "the stale value again is still not chosen");
        assert_eq!(
            b.store(Slot(1), Term(2), &put(9)),
            Stored::Written(Some(put(1)))
        );
        assert!(chosen(&b, 1) && !b.learnt_without_value(Slot(1)));
        b.store(Slot(4), Term(5), &put(4));
        assert!(chosen(&b, 4), "a later ballot's value qualifies too");
    }

    /// A committed value is not overwritten by a later store; an
    /// uncommitted one is, and the replaced value comes back.
    #[test]
    fn a_committed_value_is_kept_and_an_uncommitted_one_replaced() {
        let mut b = base();
        b.store(Slot(2), Term(3), &put(1));
        assert_eq!(
            b.store(Slot(2), Term(5), &put(2)),
            Stored::Written(Some(put(1)))
        );
        assert_eq!(b.bytes, put(2).size_bytes(), "bytes follow the value");
        b.learn_at([Slot(2)], Term::ZERO);
        assert_eq!(b.store(Slot(2), Term(9), &put(3)), Stored::Kept);
        let cell = b.cells.get(Slot(2)).unwrap();
        assert_eq!((cell.cmd(), cell.bal), (Some(&put(2)), Term(5)));
        // The ballot never moves back.
        b.store(Slot(3), Term(8), &put(4));
        b.store(Slot(3), Term(6), &put(5));
        assert_eq!(b.cells.get(Slot(3)).unwrap().bal, Term(8));
    }

    /// An acceptor never writes a value twice: this command at this ballot
    /// is kept — nothing re-accounted, a learn that ran ahead still
    /// promotes — while a higher ballot writes, the same command or
    /// another.
    #[test]
    fn a_value_held_at_this_ballot_is_kept_and_anything_else_is_written() {
        let mut b = base();
        assert_eq!(b.store(Slot(3), Term(4), &put(1)), Stored::Written(None));
        let bytes = b.bytes;
        assert_eq!(b.store(Slot(3), Term(4), &put(1)), Stored::Kept);
        assert_eq!(b.bytes, bytes, "nothing re-accounted");
        assert_eq!((b.accept_writes, b.accept_duplicates), (1, 1));
        assert!(!b.committed(Slot(3)));
        // A proposer adopted a value for a slot it had learnt chosen
        // without one (`write` asks nothing); the value arriving again
        // at that ballot is kept, and the cell is committed at last.
        b.learn_at([Slot(5)], Term::ZERO);
        b.write(Slot(5), Term(4), put(2));
        assert!(b.learnt_without_value(Slot(5)));
        assert_eq!(b.store(Slot(5), Term(4), &put(2)), Stored::Kept);
        assert!(b.committed(Slot(5)) && !b.learnt_without_value(Slot(5)));
        // The same command at a higher ballot is a new accept.
        assert_eq!(
            b.store(Slot(3), Term(6), &put(1)),
            Stored::Written(Some(put(1)))
        );
        assert_eq!(b.cells.get(Slot(3)).unwrap().bal, Term(6));
        // A different value at a higher ballot is written, then held.
        assert_eq!(
            b.store(Slot(3), Term(9), &put(7)),
            Stored::Written(Some(put(1)))
        );
        assert_eq!(b.store(Slot(3), Term(9), &put(7)), Stored::Kept);
        assert_eq!(b.bytes, put(7).size_bytes() + put(2).size_bytes());
        assert_eq!((b.accept_writes, b.accept_duplicates), (4, 3));
        // A chosen value is kept whatever arrives, and an arrival at its
        // own ballot still counts as a duplicate.
        b.learn_at([Slot(3)], Term::ZERO);
        assert_eq!(b.store(Slot(3), Term(9), &put(7)), Stored::Kept);
        assert_eq!(b.store(Slot(3), Term(11), &put(8)), Stored::Kept);
        assert_eq!((b.accept_writes, b.accept_duplicates), (4, 4));
    }

    /// An acceptor that is nothing but the family's base over an engine
    /// core: when the run starts it takes `run` at ballot 5 through phase
    /// 2b, refusing slot 7, and keeps what phase 2b reported.
    struct Acceptor {
        core: EngineCore,
        base: PaxosBase,
        run: Run<Cell>,
        got: Option<Received>,
    }

    impl paxraft_sim::sim::Actor<Msg> for Acceptor {
        fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
            let eligible = |_: &PaxosBase, s| s != Slot(7);
            let got = (self.base).accept(&mut self.core, ctx, Term(5), &self.run, eligible);
            self.got = Some(got);
        }
        fn on_message(&mut self, _: &mut Ctx<Msg>, _: paxraft_sim::sim::ActorId, _: Msg) {}
        paxraft_sim::impl_actor_any!();
    }

    /// Phase 2b over one run holding a slot below the checkpoint floor, a
    /// value the acceptor holds already, a refused slot and two new
    /// values: the ack names the held and the written slots, only the
    /// written ones are tagged and charged — as one device write of their
    /// bytes — and they alone count as value writes.
    #[test]
    fn phase_2b_tags_and_charges_only_the_values_it_writes_as_one_write() {
        use crate::config::{DurabilityConfig, ReplicaConfig};
        let durability = DurabilityConfig::group_commit(
            paxraft_sim::time::SimDuration::from_millis(1),
            8,
            paxraft_sim::time::SimDuration::from_millis(2),
        );
        let mut cfg = ReplicaConfig::wan_default(NodeId(1), 3);
        cfg.durability = durability.clone();
        let mut base = PaxosBase::new(3, NodeId(1));
        base.compacted_through = Slot(2);
        assert_eq!(base.store(Slot(4), Term(5), &put(4)), Stored::Written(None));
        let run = [2, 4, 5, 6, 7]
            .map(|s| (Slot(s), put(s)))
            .into_iter()
            .collect();
        let acceptor = Acceptor {
            core: EngineCore::new(cfg),
            base,
            run,
            got: None,
        };
        let mut sim = paxraft_sim::sim::Simulation::new(Default::default(), 1);
        sim.set_disk_config(durability.disk_config());
        let me = sim.add_actor(paxraft_sim::net::Region::Oregon, Box::new(acceptor));
        sim.run_until(paxraft_sim::time::SimTime::from_micros(10));
        let acceptor = sim.actor::<Acceptor>(me);
        let got = acceptor.got.as_ref().expect("ran");
        assert_eq!(got.acked.iter().collect::<Vec<_>>(), [4, 5, 6].map(Slot));
        assert_eq!(
            (got.refused.as_slice(), got.below_floor),
            ([Slot(7)].as_slice(), true)
        );
        assert_eq!((acceptor.base.accept_duplicates, got.released), (1, false));
        let base = &acceptor.base;
        let tag = |s| base.cells.get(Slot(s)).map(|_| base.wseq(Slot(s)));
        assert_eq!(
            [2, 4, 5, 6, 7].map(tag),
            [None, Some(0), Some(1), Some(1), None]
        );
        assert_eq!(acceptor.core.dur.write_seq(), 1, "one device write");
        let bytes = (put(5).size_bytes() + put(6).size_bytes()) as u64;
        assert_eq!(sim.disk_stats_at(me).bytes_written, bytes);
        assert_eq!(
            (acceptor.base.accept_writes, acceptor.base.accept_duplicates),
            (3, 1)
        );
    }

    /// The tally ignores a cell the eligibility rule rejects, and returns
    /// each slot chosen exactly once.
    #[test]
    fn the_tally_skips_ineligible_cells_and_reports_each_choice_once() {
        let mut b = base();
        written(&mut b, Slot(1), Term(3), put(1), 0b001);
        written(&mut b, Slot(2), Term(4), put(2), 0b001);
        let at = |t| move |c: &Cell| c.bal == Term(t);
        let slots = [Slot(1), Slot(2), Slot(1), Slot(9)];
        let mut chosen = Vec::new();
        b.tally(slots, 0b010, at(3), |_| true, |s| chosen.push(s), |_| {});
        assert_eq!(chosen, [Slot(1)]);
        assert!(
            !b.committed(Slot(2)) && b.acks(Slot(2)) == 0b001,
            "bit not taken"
        );
        // A later ack for the chosen slot chooses nothing again.
        b.tally(
            [Slot(1)],
            0b100,
            at(3),
            |_| true,
            |s| chosen.push(s),
            |_| {},
        );
        b.tally(
            [Slot(2)],
            0b100,
            at(4),
            |_| true,
            |s| chosen.push(s),
            |_| {},
        );
        assert_eq!(chosen, [Slot(1), Slot(2)]);
    }

    /// The quorum mark: a peer ack that leaves a cell one vote short, and
    /// that vote the proposer's own (held back for its fsync), names the
    /// cell's command once. A cell whose own vote is in, or that is
    /// short of a peer, or a repeated ack, names nothing.
    #[test]
    fn the_tally_marks_a_quorum_that_waits_only_for_the_own_vote() {
        let mut b = PaxosBase::new(5, NodeId(0)); // quorum 3, own bit 0b00001
        written(&mut b, Slot(1), Term(2), put(1), 0);
        written(&mut b, Slot(2), Term(2), put(2), 0b00001);
        let mut noop = put(3);
        noop.id.client = u32::MAX;
        written(&mut b, Slot(3), Term(2), noop, 0);
        let mut marked = Vec::new();
        let mut tally = |b: &mut PaxosBase, slots: &[u64], bit| {
            let slots = slots.iter().map(|s| Slot(*s));
            b.tally(
                slots,
                bit,
                |_| true,
                |_| true,
                |_| {},
                |id| marked.push(id.seq),
            );
        };
        tally(&mut b, &[1, 2, 3], 0b00010);
        tally(&mut b, &[1, 2, 3], 0b00100);
        tally(&mut b, &[1, 3], 0b00100);
        tally(&mut b, &[1], 0b01000);
        assert_eq!(
            marked,
            [1],
            "slot 1 once; slot 2 chose; the no-op is no client's"
        );
        assert!(b.committed(Slot(1)), "three peers choose it");
        assert!(b.committed(Slot(2)));
    }

    /// Synced self-votes drain in write-sequence order, each tallied with
    /// the ballot it was proposed at, and leave unsynced ones queued.
    #[test]
    fn synced_self_votes_drain_in_write_order_and_the_rest_stay_queued() {
        let mut b = base();
        for s in [1, 4, 7, 10] {
            written(&mut b, Slot(s), Term(2), put(s), 0b010);
        }
        let run = |slots: &[u64]| slots.iter().map(|s| Slot(*s)).collect::<Slots>();
        b.pending_self = vec![
            (3, Term(1), run(&[1])),
            (5, Term(2), run(&[4, 7])),
            (8, Term(2), run(&[10])),
        ];
        let drain = |b: &mut PaxosBase, synced| {
            let mut votes = Vec::new();
            let still = |bal, cell: &Cell| bal == cell.bal;
            let any = b.tally_synced_votes(synced, still, |_| true, |s| votes.push(s));
            (any, votes)
        };
        assert_eq!(drain(&mut b, 2), (false, vec![]));
        // Slot 1's vote was queued under a ballot the cell has left.
        assert_eq!(drain(&mut b, 5), (true, vec![Slot(4), Slot(7)]));
        assert!(!b.committed(Slot(1)));
        assert_eq!(b.pending_self, [(8, Term(2), run(&[10]))]);
        b.forget_self_votes();
        assert_eq!(drain(&mut b, u64::MAX), (false, vec![]));
    }

    /// `discard_through` drops every cell through the slot it is given,
    /// the payload bytes with them, prunes `committed_no_value` and
    /// returns the count.
    #[test]
    fn discard_drops_every_cell_through_its_slot_and_prunes_learnt_slots() {
        let mut b = base();
        for s in [1, 2, 4, 6] {
            b.store(Slot(s), Term(1), &put(s));
        }
        b.cells.get_or_default(Slot(3)); // a skip, no value
        b.learn_at([Slot(5), Slot(7)], Term::ZERO);
        assert_eq!(b.discard_through(Slot(5)), 4);
        assert!((1..=5).all(|s| b.cells.get(Slot(s)).is_none()));
        assert_eq!(b.cells.get(Slot(6)).and_then(Cell::cmd), Some(&put(6)));
        assert_eq!(b.bytes, put(6).size_bytes());
        assert!(!b.learnt_without_value(Slot(5)) && b.learnt_without_value(Slot(7)));
        assert_eq!(b.cells.len(), 1);
    }

    /// What a round yields: `(slot, key)` pairs.
    fn pairs(round: &Run<Cell>) -> Vec<(u64, u64)> {
        let key = |c: &Command| c.op.key().expect("a put");
        round.values().map(|(s, c)| (s.0, key(c))).collect()
    }

    /// Whether the table still holds the block `slot` lies in, and
    /// `round` holds it too.
    fn shares(b: &PaxosBase, round: &Run<Cell>, slot: u64) -> bool {
        round.holds(b.cells.block_at(Slot(slot)).expect("a block").0)
    }

    /// The first `count` instances in `range` holding a value that
    /// `carried` admits, as one round.
    fn cut_round(
        b: &PaxosBase,
        range: impl std::ops::RangeBounds<Slot> + Clone,
        stride: u64,
        count: usize,
        carried: impl Fn(&PaxosBase, Slot) -> bool,
    ) -> Run<Cell> {
        let held = |s, c: &Cell| c.cmd().is_some() && carried(b, s);
        b.cells.cut(range, stride, count, held)
    }

    /// What a proposal or a re-send carries: the instances not chosen.
    fn uncommitted(b: &PaxosBase, s: Slot) -> bool {
        !b.committed(s)
    }

    /// The sharing contract (module docs, *Rounds*): a round cut across
    /// a block edge yields its cut-time values whatever the proposer does
    /// next. Acks, a decision and a write tag touch no block, and a fresh
    /// instance fills the round's tail block in place; a compaction into
    /// the round's first block, a phase 1 that re-proposes a slot of it
    /// and a crash's drop copy the block they change first.
    #[test]
    fn a_round_yields_what_it_was_cut_over_whatever_the_table_does() {
        let mut b = base(); // quorum 2, own bit 0b001
        for s in 1..=300 {
            b.write(Slot(s), Term(2), put(s));
        }
        let round = cut_round(&b, Slot(250)..=Slot(260), 1, usize::MAX, uncommitted);
        let cut: Vec<(u64, u64)> = (250..=260).map(|s| (s, s)).collect();
        assert_eq!(pairs(&round), cut);
        assert_eq!((round.len(), round.last()), (11, Some(Slot(260))));
        assert!(shares(&b, &round, 250) && shares(&b, &round, 260), "a view");
        // In place: an ack, a quorum, a learn, a write tag and the next
        // instance, in the blocks the round holds.
        let slots = || (250..=260).map(Slot);
        let mut chosen = Vec::new();
        b.tally(
            slots(),
            0b010,
            |_| true,
            |_| true,
            |s| chosen.push(s),
            |_| {},
        );
        assert!(chosen.is_empty());
        b.tally(
            slots().take(3),
            0b100,
            |_| true,
            |_| true,
            |s| chosen.push(s),
            |_| {},
        );
        assert_eq!(chosen, [Slot(250), Slot(251), Slot(252)]);
        b.learn_at([Slot(259)], Term(2));
        b.tag(&slots().collect(), 7);
        b.write(Slot(301), Term(2), put(301));
        assert!(
            shares(&b, &round, 250) && shares(&b, &round, 260),
            "nothing copied"
        );
        let cell = b.cells.get(Slot(259)).unwrap();
        assert!(cell.cmd().is_some() && b.committed(Slot(259)) && b.wseq(Slot(259)) == 7);
        assert_eq!(pairs(&round), cut);
        // A compaction that stops inside the round's first block copies it.
        b.exec_index = Slot(252);
        assert_eq!(b.discard_through(Slot(252)), 252);
        assert!(!shares(&b, &round, 253), "the table's block is a copy");
        assert_eq!(pairs(&round), cut);
        // A phase 1 re-proposes slot 258 at a higher ballot: a copy too.
        b.write(Slot(258), Term(5), put(999));
        assert!(!shares(&b, &round, 258));
        assert_eq!(b.cells.get(Slot(258)).unwrap().cmd(), Some(&put(999)));
        assert_eq!(pairs(&round), cut);
        // A crash drops what no fsync covered — slot 301 among them.
        b.tag(&[Slot(301)].into_iter().collect(), 9);
        let mut core = core_synced_through(7);
        assert_eq!(b.crash(&mut core, Slot(252)), [(Slot(301), false)]);
        assert_eq!(pairs(&round), cut);
    }

    /// A round that is not a run of consecutive slots inside two blocks
    /// is a private copy of its pairs: instances chosen out of order
    /// leave gaps in it, and a re-send of everything uncommitted may span
    /// three blocks. Either yields what the table held at the cut.
    #[test]
    fn a_round_with_gaps_or_over_three_blocks_is_a_private_block() {
        let mut b = base();
        for s in 1..=700 {
            b.write(Slot(s), Term(2), put(s));
        }
        for s in [12, 13, 20] {
            b.commit(Slot(s));
        }
        let gaps = cut_round(&b, Slot(10).., 1, 12, uncommitted);
        let want: Vec<(u64, u64)> = [10, 11, 14, 15, 16, 17, 18, 19, 21, 22, 23, 24]
            .into_iter()
            .map(|s| (s, s))
            .collect();
        assert_eq!(pairs(&gaps), want);
        assert_eq!((gaps.len(), gaps.last()), (12, Some(Slot(24))));
        assert!(!shares(&b, &gaps, 10), "copied");
        let wide = cut_round(&b, Slot(100)..=Slot(650), 1, usize::MAX, uncommitted);
        assert_eq!(wide.len(), 551);
        assert!(!shares(&b, &wide, 100));
        b.write(Slot(300), Term(3), put(0));
        assert!(pairs(&wide).into_iter().all(|(s, k)| s == k));
        // Within two blocks a run is a view; nothing is the empty round.
        let run = cut_round(&b, Slot(200)..=Slot(500), 1, usize::MAX, uncommitted);
        assert!(shares(&b, &run, 200));
        let chosen = cut_round(&b, Slot(12)..=Slot(13), 1, usize::MAX, uncommitted);
        assert!(chosen.is_empty());
    }

    /// A Mencius owner's round is a run of its own slots, `n` apart: a
    /// view of the two blocks it lies in, whatever the table does next —
    /// a peer's value stored between the owner's slots fills its empty
    /// cell in place, copying nothing, and a revocation's no-op over one
    /// of the round's slots copies the block first. A run with a gap, or
    /// over three blocks, is a private copy.
    #[test]
    fn a_strided_round_is_a_view_of_one_owners_slots() {
        let mut b = PaxosBase::new(5, NodeId(0));
        let own = |s: u64| (s - 1) % 5 == 0;
        for s in (1..=700).filter(|s| own(*s)) {
            b.write(Slot(s), Term(2), put(s));
        }
        let mine = |b: &PaxosBase, s: Slot| own(s.0) && !b.committed(s);
        let round = cut_round(&b, Slot(201)..=Slot(500), 5, usize::MAX, mine);
        let cut: Vec<(u64, u64)> = (201..=500).filter(|s| own(*s)).map(|s| (s, s)).collect();
        assert_eq!(pairs(&round), cut);
        assert_eq!((round.len(), round.last()), (60, Some(Slot(496))));
        assert!(shares(&b, &round, 201) && shares(&b, &round, 496), "a view");
        // A peer's value lands between the owner's slots, in place.
        assert_eq!(
            b.store(Slot(202), Term(3), &put(202)),
            Stored::Written(None)
        );
        assert!(shares(&b, &round, 201), "nothing copied");
        assert_eq!(pairs(&round), cut);
        // A revocation's no-op lands over slot 206: a copy.
        let noop = Stored::Written(Some(put(206)));
        assert_eq!(b.store(Slot(206), Term(9), &Command::noop()), noop);
        assert!(!shares(&b, &round, 201) && shares(&b, &round, 496));
        assert_eq!(pairs(&round), cut);
        // Slots 206 and 211 chosen: a run with gaps.
        for s in [206, 211] {
            b.commit(Slot(s));
        }
        let gap = cut_round(&b, Slot(201)..=Slot(230), 5, usize::MAX, mine);
        assert_eq!(
            pairs(&gap),
            [(201, 201), (216, 216), (221, 221), (226, 226)]
        );
        assert!(!gap.is_view());
        let wide = cut_round(&b, Slot(211)..=Slot(700), 5, usize::MAX, mine);
        assert!(!wide.is_view() && wide.len() == 97 && wide.last() == Some(Slot(696)));
        assert!(pairs(&wide).iter().all(|&(s, k)| s == k && own(s)));
    }

    /// A crash drops exactly the values no fsync covered: their ballots and
    /// acks go, a committed one degrades to learnt-without-value, and the report
    /// says which was which. Execution restarts at the floor it is given.
    #[test]
    fn a_crash_drops_exactly_the_unsynced_values() {
        let mut b = base();
        for (s, wseq) in [(1, 2), (2, 5), (3, 6)] {
            written(&mut b, Slot(s), Term(1), put(s), 0b011);
            b.local_mut(Slot(s)).wseq = wseq;
        }
        b.learn_at([Slot(3)], Term::ZERO);
        b.exec_index = Slot(1);
        let mut core = core_synced_through(4);
        assert_eq!(
            b.crash(&mut core, Slot::NONE),
            [(Slot(2), false), (Slot(3), true)]
        );
        assert_eq!(b.exec_index, Slot::NONE, "execution restarts at the floor");
        assert_eq!(b.bytes, put(1).size_bytes());
        assert!(b.cells.get(Slot(1)).unwrap().cmd().is_some());
        let lost = b.cells.get(Slot(3)).unwrap();
        assert!(lost.cmd().is_none() && !b.committed(Slot(3)) && b.acks(Slot(3)) == 0);
        assert_eq!(lost.bal, Term::ZERO, "an empty cell accepted nothing");
        assert!(b.learnt_without_value(Slot(3)) && !b.learnt_without_value(Slot(2)));
    }
}
