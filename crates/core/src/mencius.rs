//! Raft*-Mencius (Appendix A.3–A.4): coordinated Raft* with round-robin
//! slot ownership, expressed as [`ProtocolRules`] over the shared
//! [`ReplicaEngine`].
//!
//! Every replica is the *default leader* of the slots `s` with
//! `(s - 1) mod n == id`, and proposes its nearest clients' requests in
//! them (`Suggest`, the `isDefault` append): Mencius is the protocol whose
//! `can_propose` is always true, so batches are never forwarded. A replica
//! that falls behind *skips* its unused slots ("each replica keeps
//! committing skip to keep the system moving forward"); a skip is a no-op
//! from the default leader, executable without a commit round.
//!
//! # Per-peer streams
//!
//! What a replica tells a peer about its *own* slots — which are skipped,
//! which committed, how far it has executed — and its reply to the peer's
//! suggestions travel as one stream per peer: every regular message to
//! that peer (`Suggest`, `Notice`) is an element of it, carrying a
//! [`Coord`]. That is Raft's `Append` carrying `commit`, ported across the
//! mapping; Appendix A.3 already piggybacks the skip on the reply to a
//! `Suggest`, and here the reply (an [`Ack`]) is itself an element of the
//! acceptor's stream to the owner.
//!
//! **The stream.** An element accounts for every owner slot in
//! `[from, watermark)` — `from` the watermark last sent *to that peer* —
//! as suggested in this very message or a no-op. Values leave only in the
//! `Suggest` whose range covers them, so nothing may be stamped between
//! moving the watermark over a new round and sending that round's
//! `Suggest`: a peer executing in between would apply a no-op where the
//! owner applies the write.
//!
//! **The gap rule.** Links keep order but lose messages, so a watermark
//! alone proves nothing: a lost `Suggest` followed by any later watermark
//! would turn a committed write into a no-op. A receiver advances
//! `known_upto[owner]` only when the element joins what it already knows
//! (`MenciusRules::note_known`, the one place the bound advances); a gap
//! leaves it, execution blocks on the first unknown slot, and what
//! arrives beyond the gap is kept as one run. The owner, seeing that
//! peer's executed prefix stall, replays its decided values above it under
//! a claim that ends at its first value still in flight
//! (`MenciusRules::replay_to_stalled_peers`); once that reaches the kept
//! run the gap is healed. A revocation's decision and an installed
//! checkpoint vouch for ranges through the same check, and a slot this
//! replica refuses is not accounted for. A value the owner reports decided
//! is stored even against a local revocation promise: learning is not
//! accepting.
//!
//! **What waits on a link.** Commit decisions are queued per peer, and an
//! acceptor's ack per owner, later acks at the same term merged into it.
//! Both ride the next stream element to that peer by the engine's carrier
//! rule (`engine/links.rs`); on an idle link a decision goes alone in a
//! `Commit`, an ack in a `Notice` that takes the decisions along, and the
//! coordination tick sends a keepalive `Notice` only to a peer sent
//! nothing since the previous tick. A carried ack costs the `ack_process`
//! its message of its own did. An ack the fsync gate holds back would
//! leave out of stream order, so it goes in a `Notice` whose header claims
//! nothing.
//!
//! # Responses and recovery
//!
//! Responses follow the paper's two regimes (Section 5.2):
//! - **commutative (low conflict)**: a command is answered once its slot
//!   commits and every other owner's slots below it are *known*
//!   (suggested or skipped) — nothing earlier can conflict;
//! - **conflicting**: it also waits until every earlier write to its key
//!   has applied, the extra latency Figure 10c/d shows for Mencius-100%.
//!
//! Reads follow the same rule (a read of `k` commutes with everything but
//! writes to `k`) and are answered from the state machine
//! (`KvStore::preview`) once nothing before their slot that writes their
//! key is unapplied: execution runs in slot order, so it already holds the
//! value the read returns there. Linearizable as writes are: a command
//! answered at slot `w` had every other owner's slots below `w` known, so
//! one invoked after lands above `w`. An unapplied migration command (a
//! `FreezeRange` bounces the keys it moves) and an own slot whose value a
//! crash dropped hold back every early answer.
//!
//! **The respond pass** (`MenciusRules::try_respond`) runs after every
//! execute step, so its cost must not grow with what waits: it depends
//! only on the *cover* (the smallest `known_upto` among the peers), on
//! `exec_index` and on which slots are queued, returns at once when none
//! of them changed, and passes over a slot above the cover on that one
//! comparison.
//!
//! **The conflict index** (`engine/conflicts.rs`), which the family's base
//! keeps, holds the retained writes and migration commands *above the
//! executed prefix*, and the rule reads "no indexed write to this key, and
//! no migration command, in `(exec_index, s)`". A *replaced* value (a
//! revocation deciding a no-op over a `Put k`) will never apply, so it
//! leaves the index and the answers it held get a fresh pass
//! (`MenciusRules::note_stored`).
//!
//! Crashed owners are *revoked*: after a silence timeout a peer raises a
//! ballot above the owner's, runs MultiPaxos's phase 1 over the owner's
//! undecided range (a `Prepare` naming the owner, `engine/phase1.rs`) and
//! re-proposes what was accepted, no-opping the rest but nothing at or
//! below a reported floor (Appendix A.3's recovery leader), in a
//! suggestion's round at its ballot. A quorum of acks decides it,
//! announced with that ballot in `RevokeCommit`, never in a stream's
//! ballot-free `commits`; the owner, whose own slots take no other
//! replica's value, re-proposes a value the decision replaced. Undecided
//! by `revoke_timeout`, or ended by an installed checkpoint, it is retried
//! at a fresh ballot. An owner a partitioned peer suspects may find its
//! suggestion refused (`SuggestReject`): that decides nothing, so it
//! leaves the slot alone; a refusing acceptor that holds the decision
//! sends it along, and an owner that promised its own range away proposes
//! above it. A revocation's promise is kept as MultiPaxos keeps its
//! ballot: one record per owner (`Promise`), never in a cell; a revoker
//! runs above every promise it gave and every ballot it accepted.
//!
//! # Durability (group commit)
//!
//! The family's (`engine/paxos_family.rs`, *Durability*); an ack that
//! finds every write synced joins the stream. Peers cannot revoke a live
//! owner's slot, so an owner that lost its *own* unsynced suggestions in a
//! crash would stall them, and its skip inference would read a dropped
//! slot as a decided no-op — while a revocation during the downtime may
//! have decided the original value from the peers' copies. Dropped own
//! slots therefore go to `MenciusRules::lost_own`, which suppresses the
//! skip inference (execution blocks instead of diverging) and has the
//! restart run the ordinary revocation phase 1 against the owner's own
//! range: the crashed-owner recovery, safe by the same ballot argument and
//! live because the affected clients, never answered, retry. A
//! `PrepareOk` reports values, so it waits for their fsync, as
//! MultiPaxos's does. Another owner's dropped value is no skip either:
//! the crash lowers that owner's `known_upto` to it, a gap its
//! stalled-peer replay heals.
//!
//! # What this file holds
//!
//! The slot table, its bookkeeping and the way a value enters it are the
//! family's `PaxosBase`. Here is what makes it *Mencius*: ownership and
//! skips, the per-peer streams, the execute loop with its skip inference,
//! the respond pass, what the owner alone knows of its own slots
//! (`OwnSlots`), retransmission and the replay body, revocation and its
//! promises, and what a crash keeps.

use std::collections::{BTreeSet, VecDeque};

use paxraft_sim::sim::{ActorId, Ctx};
use paxraft_sim::time::{SimDuration, SimTime};
use paxraft_sim::trace::SpanKind;

use crate::config::{ReadMode, ReplicaConfig};
use crate::costs::CostModel;
use crate::engine::paxos_family::{ack_bit, Cell, PaxosBase, Received};
use crate::engine::phase1::Phase1;
use crate::engine::slots::Run;
use crate::engine::{self, EngineCore, Links, ProtocolRules, ReplicaEngine, Waiting, T_COORD};
use crate::kv::{Command, Key, Op};
use crate::msg::{
    Ack, Coord, MenciusMsg, Msg, PaxosMsg, Slots, CHECKPOINT_ACK_HEADER, CHECKPOINT_CHUNK_HEADER,
};
use crate::snapshot::Snapshot;
use crate::types::{NodeId, Slot, Term};

/// Idle watermark broadcast period: the coordination tick (keeps lagging
/// owners from delaying everyone and doubles as a failure-detector
/// keepalive).
const SKIP_HEARTBEAT: SimDuration = SimDuration::from_millis(50);

/// An in-flight revocation of a crashed owner's slots: phase 1, then the
/// accept round of what it picked.
#[derive(Debug)]
struct RevokeOp {
    term: Term,
    owner: NodeId,
    from: Slot,
    through: Slot,
    /// The `PrepareOk`s, this replica's own report among them; `None` once
    /// a quorum granted and the round is out.
    phase1: Option<Phase1>,
}

impl RevokeOp {
    /// The owner's slots the revocation covers: its round.
    fn slots(&self, n: usize) -> impl Iterator<Item = Slot> + Clone {
        let first = owned_at_or_after(self.owner, self.from, n);
        (first.0..=self.through.0).step_by(n).map(Slot)
    }
}

/// A revocation promise over one owner's slots: no suggestion below
/// `term` is accepted in `from..=through`. A later promise widens it to
/// the union; a wider promise only restricts what the acceptor accepts.
#[derive(Debug, Clone, Copy)]
struct Promise {
    term: Term,
    from: Slot,
    through: Slot,
}

impl Promise {
    /// Nothing promised: term zero over no slot.
    const NONE: Promise = Promise {
        term: Term::ZERO,
        from: Slot(u64::MAX),
        through: Slot::NONE,
    };

    /// Widens this promise with `term` over `from..=through`.
    fn give(&mut self, term: Term, from: Slot, through: Slot) {
        self.term = self.term.max(term);
        self.from = self.from.min(from);
        self.through = self.through.max(through);
    }
}

/// What slot `s` is promised at, given each owner's promise: the one
/// covering it or the ballot its value was accepted at, whichever is higher.
fn promised_at(promises: &[Promise], base: &PaxosBase, s: Slot) -> Term {
    let p = promises[MenciusReplica::owner_of(s, promises.len()).0 as usize];
    let accepted = base.cells.get(s).map_or(Term::ZERO, Cell::bal);
    let covering = (p.from..=p.through).contains(&s).then_some(p.term);
    covering.map_or(accepted, |t| t.max(accepted))
}

/// My outgoing stream to one peer (module docs, "Per-peer streams").
#[derive(Debug)]
struct PeerStream {
    /// The watermark last sent to this peer: the `from` of the next
    /// stream element.
    sent_upto: Slot,
    /// Commit decisions for my slots waiting for a carrier.
    decisions: Slots,
    /// My acknowledgement of this peer's suggestions waiting for a
    /// carrier, merged per term.
    ack: Option<Ack>,
}

impl PeerStream {
    /// A stream that has claimed nothing below `at`.
    fn starting_at(at: Slot) -> Self {
        PeerStream {
            sent_upto: at,
            decisions: Slots::new(),
            ack: None,
        }
    }
}

/// What an owner's round carries: its own slots that hold a value.
fn own(me: NodeId, n: usize) -> impl Fn(Slot, &Cell) -> bool {
    move |s, slot| MenciusReplica::owner_of(s, n) == me && slot.cmd().is_some()
}

/// Own slot `s`'s number among its owner's slots, from zero.
fn own_index(s: Slot, n: usize) -> u64 {
    (s.0 - 1) / n as u64
}

/// What the owner alone knows of one of its slots: when it last
/// (re)suggested it (never, for one skipped or decided by a revocation),
/// and whether it skipped it (a peer's skips derive from its watermark).
#[derive(Debug, Clone, Copy, Default)]
struct Own {
    suggested: SimTime,
    skipped: bool,
}

/// The owner's [`Own`] state of its slots, dense over their `own_index`
/// from `first` (a slot no entry covers reads as default). It lives as
/// long as the table keeps the slots — dropped with the cells a checkpoint
/// discards, kept through a crash like them: 16 bytes an own slot, where
/// the skip rode in every cell of every replica.
#[derive(Debug, Default)]
struct OwnSlots {
    first: u64,
    slots: VecDeque<Own>,
}

impl OwnSlots {
    fn get(&self, i: u64) -> Own {
        let own = i
            .checked_sub(self.first)
            .and_then(|k| self.slots.get(k as usize));
        own.copied().unwrap_or_default()
    }

    /// Own slot number `i`'s state, to write; `None` for one already
    /// dropped, which stays so.
    fn get_mut(&mut self, i: u64) -> Option<&mut Own> {
        let k = i.checked_sub(self.first)? as usize;
        if k >= self.slots.len() {
            self.slots.resize(k + 1, Own::default());
        }
        Some(&mut self.slots[k])
    }

    /// Notes own slot number `i` (re)suggested at `at`.
    fn suggested(&mut self, i: u64, at: SimTime) {
        if let Some(own) = self.get_mut(i) {
            own.suggested = at;
        }
    }

    /// Drops every own slot numbered below `i`.
    fn drop_below(&mut self, i: u64) {
        let gone = i.saturating_sub(self.first).min(self.slots.len() as u64);
        self.slots.drain(..gone as usize);
        self.first = self.first.max(i);
    }
}

/// The first slot owned by `owner` at or after `x`.
fn owned_at_or_after(owner: NodeId, x: Slot, n: usize) -> Slot {
    let n = n as u64;
    let x = x.0.max(1);
    // Smallest s >= x with (s - 1) % n == owner.
    let delta = (owner.0 as u64 + n - (x - 1) % n) % n;
    Slot(x + delta)
}

/// A Raft*-Mencius replica: the shared engine running [`MenciusRules`].
pub type MenciusReplica = ReplicaEngine<MenciusRules>;

/// What Mencius adds on top of the engine: round-robin slot ownership,
/// skip watermarks, the two-regime respond rule, and revocation.
pub struct MenciusRules {
    current_term: Term,
    /// The slot table and its bookkeeping (the executed prefix and the
    /// peers' reports of theirs included).
    base: PaxosBase,
    /// The revocation promises this replica gave, one per owner.
    promises: Vec<Promise>,
    /// My next unused owned slot; doubles as my skip watermark.
    next_own: Slot,
    /// Exclusive bound of *known* slots per peer owner: every slot of
    /// theirs below this is suggested-or-skipped. Advances only through
    /// [`MenciusRules::note_known`]; a crash lowers it to a value it
    /// dropped.
    known_upto: Vec<Slot>,
    /// Per peer owner: the run `[from, upto)` of its stream heard beyond
    /// a gap, waiting for a repair to reach it.
    beyond_gap: Vec<Option<(Slot, Slot)>>,
    /// My outgoing stream per peer (my own entry is unused).
    out: Vec<PeerStream>,
    /// When the coordination tick last ran: peers sent nothing since get
    /// a keepalive `Notice`.
    last_tick: SimTime,
    /// What I alone know of my own slots: when I last (re)suggested each
    /// (paces the retransmission and sizes a decision's patience), and
    /// which I skipped.
    mine: OwnSlots,
    /// Own committed slots waiting for the respond condition.
    await_respond: Vec<Slot>,
    /// The `(cover, exec_index)` the last respond pass ran with; `None`
    /// when something else it depends on changed since (a slot queued, an
    /// indexed write replaced), so the next pass must run.
    respond_seen: Option<(Slot, Slot)>,
    /// Tests: when set, every respond pass is checked against
    /// [`MenciusRules::oracle_ready`]; counts the passes checked and the
    /// slots they answered.
    #[cfg(test)]
    oracle_checked: Option<(u64, u64)>,
    /// Own slots committed in this handler, not yet queued per peer.
    commit_buf: Vec<Slot>,
    last_heard: Vec<SimTime>,
    revoke: Option<RevokeOp>,
    last_revoke_attempt: SimTime,
    /// Slots this replica skipped (stats).
    skips_issued: u64,
    /// Acks sent on my streams: in a notice of their own (`acks_alone`),
    /// or riding a message leaving anyway (a `Suggest`, a notice for a
    /// skip, a keepalive or queued decisions).
    acks_sent: u64,
    acks_alone: u64,
    /// Decisions that left in a `Commit` of their own.
    commits_alone: u64,
    /// Durability: own slots whose unsynced value a crash dropped (module
    /// docs): no skip inference there, no replay claim past them, and a
    /// self-revocation at `on_start`. Entries leave as values land.
    lost_own: BTreeSet<u64>,
}

impl MenciusReplica {
    /// Creates a replica.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, or asks for a lease read
    /// mode: Figure 8's gate sits on one leader's `Learn`, but Mencius
    /// commits each slot at its owner and a revoked one at its revoker.
    pub fn new(cfg: ReplicaConfig) -> Self {
        cfg.validate().expect("invalid replica config");
        if cfg.read_mode != ReadMode::LogRead {
            panic!("Mencius has no leader to gate a lease");
        }
        let n = cfg.n;
        let me = cfg.id;
        let mut core = EngineCore::new(cfg);
        // The respond pass reads the conflict index (module docs).
        core.conflicts = Some(Box::default());
        ReplicaEngine::from_parts(
            core,
            MenciusRules {
                current_term: Term::encode(1, me, n),
                next_own: Slot(me.0 as u64 + 1),
                known_upto: vec![Slot(1); n],
                beyond_gap: vec![None; n],
                out: (0..n)
                    .map(|_| PeerStream::starting_at(Slot(me.0 as u64 + 1)))
                    .collect(),
                last_tick: SimTime::ZERO,
                base: PaxosBase::new(n, me),
                promises: vec![Promise::NONE; n],
                mine: OwnSlots::default(),
                await_respond: Vec::new(),
                respond_seen: None,
                #[cfg(test)]
                oracle_checked: None,
                commit_buf: Vec::new(),
                last_heard: vec![SimTime::ZERO; n],
                revoke: None,
                last_revoke_attempt: SimTime::ZERO,
                skips_issued: 0,
                acks_sent: 0,
                acks_alone: 0,
                commits_alone: 0,
                lost_own: BTreeSet::new(),
            },
        )
    }

    /// The default leader of a slot: `(s - 1) mod n`.
    pub fn owner_of(slot: Slot, n: usize) -> NodeId {
        NodeId(((slot.0 - 1) % n as u64) as u32)
    }

    /// Applied prefix (tests).
    pub fn exec_index(&self) -> Slot {
        self.rules.base.exec_index
    }

    /// Slots this replica skipped (stats).
    pub fn skips_issued(&self) -> u64 {
        self.rules.skips_issued
    }

    /// Decided command at `slot` (`None` when undecided; `Some(None)`
    /// would be unrepresentable — skipped slots report the no-op).
    pub fn decided_at(&self, slot: Slot) -> Option<&Command> {
        self.rules.decided_at(&self.core, slot)
    }
}

/// What a skipped slot decides, to hand out by reference.
static NOOP: Command = Command::noop();

impl MenciusRules {
    fn decided_at(&self, core: &EngineCore, slot: Slot) -> Option<&Command> {
        let (owner, n) = (MenciusReplica::owner_of(slot, core.cfg.n), core.cfg.n);
        let held = self.base.cells.get(slot);
        if let Some(s) = held {
            if self.base.committed(slot) {
                return s.cmd();
            }
            if owner == core.cfg.id && self.mine.get(own_index(slot, n)).skipped {
                return Some(&NOOP);
            }
        }
        let known = if owner == core.cfg.id {
            // The skip inference does not apply to crash-dropped own
            // slots: empty there means "value lost", not "skipped", and
            // peers may still decide the original value (module docs).
            slot < self.next_own && !self.lost_own.contains(&slot.0)
        } else {
            slot < self.known_upto[owner.0 as usize]
        };
        (known && held.is_none_or(|s| s.cmd().is_none())).then_some(&NOOP)
    }

    /// The next element of my stream to `peer`: accounts for my slots
    /// since the previous one and takes the queued decisions and the
    /// waiting ack along. Never between moving `next_own` over a round
    /// and sending that round's `Suggest`: the element would claim the
    /// round's slots as no-ops ahead of their values.
    fn stamp(&mut self, links: &mut Links, peer: NodeId, now: SimTime) -> Coord {
        let ack = self.carry_ack(peer);
        let st = &mut self.out[peer.0 as usize];
        links.stamp(peer, now);
        Coord {
            from: std::mem::replace(&mut st.sent_upto, self.next_own),
            watermark: self.next_own,
            commits: std::mem::take(&mut st.decisions),
            exec: self.base.exec_index,
            ack,
        }
    }

    /// Takes the ack waiting for `peer` onto a message that leaves.
    fn carry_ack(&mut self, peer: NodeId) -> Option<Ack> {
        let ack = self.out[peer.0 as usize].ack.take();
        self.acks_sent += u64::from(ack.is_some());
        ack
    }

    fn send_notice(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, peer: NodeId) {
        let coord = self.stamp(&mut core.links, peer, ctx.now());
        ctx.send(
            core.cfg.peer(peer),
            Msg::Mencius(MenciusMsg::Notice { coord }),
        );
    }

    /// Queues my ack of `peer`'s slots on my stream to it, merged into
    /// the one waiting at the same term; one waiting at another term
    /// leaves first. It goes on the next message to `peer`, or alone
    /// once the link idles (`engine/links.rs`).
    fn queue_ack(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, peer: NodeId, ack: Ack) {
        match &mut self.out[peer.0 as usize].ack {
            Some(held) if held.term == ack.term => {
                held.slots.extend(ack.slots.iter());
                return;
            }
            Some(_) => {
                self.acks_alone += 1;
                self.send_notice(core, ctx, peer);
            }
            None => {}
        }
        self.out[peer.0 as usize].ack = Some(ack);
    }

    /// Suggests `items` (my own slots, at `term`) to every peer, each
    /// copy carrying that peer's stream element and sharing the round.
    fn send_suggest(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        term: Term,
        items: Run<Cell>,
    ) {
        for peer in core.cfg.others() {
            let coord = self.stamp(&mut core.links, peer, ctx.now());
            ctx.send(
                core.cfg.peer(peer),
                Msg::Mencius(MenciusMsg::Suggest {
                    term,
                    items: items.clone(),
                    coord,
                }),
            );
        }
    }

    /// What a stored run changes for the respond pass: a value written
    /// over that left the conflict index, and a value landing in a
    /// crash-dropped own slot, give the answers they held back a fresh look.
    fn note_stored(&mut self, got: &Received) {
        let mut fresh = got.released;
        if !self.lost_own.is_empty() {
            for s in got.acked.iter() {
                fresh |= self.lost_own.remove(&s.0);
            }
        }
        if fresh {
            self.respond_seen = None;
        }
    }

    /// Files the slots chosen since `commit_buf` was `before` long. My own
    /// suggestions await their respond condition, and their decisions a
    /// carrier. A revocation's slot — another owner's, an own one a crash
    /// emptied, or any in the round of the revocation in flight — is
    /// decided here alone: once its whole round is, the revocation ends,
    /// the owner's range is known here, and `RevokeCommit` tells every
    /// peer the decision with its ballot.
    fn note_chosen(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, before: usize) {
        let (me, n) = (core.cfg.id, core.cfg.n);
        let round = self.revoke.as_ref().filter(|op| op.phase1.is_none());
        let in_round = |s| round.is_some_and(|op| op.slots(n).any(|r| r == s));
        let mut kept = before;
        for i in before..self.commit_buf.len() {
            let s = self.commit_buf[i];
            let lost = self.lost_own.remove(&s.0);
            if !lost && MenciusReplica::owner_of(s, n) == me && !in_round(s) {
                self.commit_buf[kept] = s;
                kept += 1;
            }
        }
        let revoked = kept < self.commit_buf.len();
        self.commit_buf.truncate(kept);
        self.await_respond
            .extend_from_slice(&self.commit_buf[before..]);
        if kept > before || revoked {
            self.respond_seen = None;
        }
        let base = &self.base;
        let done =
            |op: &mut RevokeOp| op.phase1.is_none() && op.slots(n).all(|s| base.committed(s));
        let Some(op) = self.revoke.take_if(|op| revoked && done(op)) else {
            return;
        };
        let (term, owned) = (op.term, own(op.owner, n));
        let items = (self.base.cells).cut(op.from..=op.through, n as u64, usize::MAX, owned);
        // The decision covers every slot of the owner in `[op.from,
        // op.through]`, and nothing below it.
        self.note_known(core, op.owner, op.from, op.through.next());
        core.broadcast(ctx, Msg::Mencius(MenciusMsg::RevokeCommit { term, items }));
    }

    /// Advances my own watermark to cover everything below `target`,
    /// skipping unused own slots. Returns whether it moved (the peers
    /// then need a stream element).
    fn skip_to(&mut self, core: &EngineCore, target: Slot) -> bool {
        if target <= self.next_own {
            return false;
        }
        let new_own = owned_at_or_after(core.cfg.id, target, core.cfg.n);
        let mut s = self.next_own;
        while s < new_own {
            let slot = self.base.cells.get_or_default(s);
            if slot.cmd().is_none() {
                let own = self.mine.get_mut(own_index(s, core.cfg.n));
                own.expect("above the floor").skipped = true;
                self.skips_issued += 1;
            }
            s = Slot(s.0 + core.cfg.n as u64);
        }
        self.next_own = new_own;
        true
    }

    /// The one place `known_upto` advances (module docs, *The gap rule*). The
    /// caller vouches that every slot of `owner` in `[from, upto)` is
    /// accounted for (stored here, or a no-op); the bound advances only
    /// when no slot of `owner` lies between what is known — the old bound
    /// or the executed prefix, whichever reaches further — and `from`.
    /// What was heard beyond a gap is kept as one run, healed whole by a
    /// repair that reaches it.
    fn note_known(&mut self, core: &EngineCore, owner: NodeId, from: Slot, upto: Slot) {
        if owner == core.cfg.id {
            return;
        }
        let i = owner.0 as usize;
        // `[reach, from)` holds no slot of `owner`.
        let joins = |reach: Slot, from: Slot| owned_at_or_after(owner, reach, core.cfg.n) >= from;
        let settled = self.known_upto[i].max(self.base.exec_index.next());
        if !joins(settled, from) {
            self.beyond_gap[i] = match self.beyond_gap[i] {
                Some((start, end)) if joins(end, from) => Some((start, end.max(upto))),
                _ => Some((from, upto)),
            };
            return;
        }
        let mut reach = self.known_upto[i].max(upto);
        if let Some((start, end)) = self.beyond_gap[i] {
            if joins(reach, start) {
                reach = reach.max(end);
                self.beyond_gap[i] = None;
            }
        }
        self.known_upto[i] = reach;
    }

    /// Takes in a peer's stream element: the range of its own slots the
    /// message accounted for, its carried commit decisions, its executed
    /// prefix, and its ack of my slots. Called after the message's values
    /// are stored.
    fn absorb(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, peer: NodeId, coord: Coord) {
        self.note_known(core, peer, coord.from, coord.watermark);
        // Decided on their owner's word; a decision says nothing about
        // the owner's other slots.
        self.base.learn_at(coord.commits.iter(), Term::ZERO);
        self.base.note_peer_exec(peer, coord.exec);
        let Some(ack) = coord.ack else {
            return;
        };
        // An ack costs what it did as a message of its own.
        ctx.charge(core.cfg.costs.ack_process);
        let shipped = ack
            .slots
            .max()
            .and_then(|upto| core.pipe.on_ack(peer, upto));
        if let Some(at) = shipped {
            // The round trip my acks to this peer wait a fraction of.
            core.links.acks_wait(peer, ctx.now().since(at));
        }
        // An ack counts only for a slot I suggested (my own, or a
        // revocation's round) still at the term it acknowledges, a promise
        // given since or not: an acceptor that promised above refuses it.
        let (before, chosen) = (self.commit_buf.len(), &mut self.commit_buf);
        self.base.tally(
            ack.slots.iter(),
            ack_bit(peer),
            |slot| slot.bal() == ack.term,
            |_| true,
            |s| chosen.push(s),
            |id| ctx.trace_span(SpanKind::Quorum, id.client, id.seq),
        );
        self.note_chosen(core, ctx, before);
        self.queue_decisions(core, ctx.now());
    }

    /// The respond condition's coverage part: every other owner's slots
    /// below `s` are known (suggested or skipped) for every `s` up to
    /// this bound.
    fn cover(&self, core: &EngineCore) -> Slot {
        core.cfg
            .others()
            .map(|o| self.known_upto[o.0 as usize])
            .min()
            .unwrap_or(Slot(u64::MAX))
    }

    /// The respond condition's conflict part: every earlier write to
    /// `key` and every earlier migration command has applied — nothing
    /// indexed for it in `(exec_index, s)` — and no own slot there lost
    /// its value to a crash (what it held is unknown until re-decided).
    fn conflicts_applied(&self, core: &EngineCore, s: Slot, key: Option<Key>) -> bool {
        let exec = self.base.exec_index;
        if exec >= s {
            return true;
        }
        let between = exec.0 + 1..s.0;
        let index = core.conflicts.as_deref().expect("Mencius keeps the index");
        index.clear(between.clone(), key) && self.lost_own.range(between).next().is_none()
    }

    /// Answers clients for own slots whose respond condition now holds
    /// (module docs, "The respond pass").
    fn try_respond(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        let cover = self.cover(core);
        let seen = Some((cover, self.base.exec_index));
        #[cfg(test)]
        let oracle = self
            .oracle_checked
            .map(|_| (self.await_respond.clone(), self.oracle_ready(core)));
        if self.respond_seen != seen {
            self.respond_seen = seen;
            let mut waiting = std::mem::take(&mut self.await_respond);
            waiting.retain(|&s| s > cover || self.still_waits(core, ctx, s));
            self.await_respond = waiting;
        }
        #[cfg(test)]
        if let Some((queued, ready)) = oracle {
            let left = |s: &Slot| !self.await_respond.contains(s);
            let answered: Vec<Slot> = queued.into_iter().filter(left).collect();
            assert_eq!(answered, ready, "respond pass at {:?}", ctx.now());
            let (passes, slots) = self.oracle_checked.get_or_insert_default();
            *passes += 1;
            *slots += answered.len() as u64;
        }
    }

    /// One covered slot of the respond pass: answers its client from the
    /// state machine if the rest of the condition holds — committed, and
    /// nothing unapplied before it that the answer depends on. Returns
    /// whether the slot stays queued.
    fn still_waits(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, s: Slot) -> bool {
        let Some(cmd) = self.base.cells.get(s).and_then(Cell::cmd) else {
            return false;
        };
        if !self.base.committed(s) || !self.conflicts_applied(core, s, cmd.op.key()) {
            return true;
        }
        let reply = core.kv.preview(&cmd.op);
        core.respond(ctx, cmd.id, reply);
        false
    }

    /// Applies the decided prefix in slot order.
    fn try_execute(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        loop {
            let next = self.base.exec_index.next();
            let Some(cmd) = self.decided_at(core, next) else {
                break;
            };
            if !matches!(cmd.op, Op::Noop) {
                ctx.charge(core.cfg.costs.apply_per_cmd);
                // The slot owner plays the proposer role for the
                // migration hooks (it proposed this command).
                let mine = MenciusReplica::owner_of(next, core.cfg.n) == core.cfg.id;
                engine::apply_command(core, ctx, cmd, mine);
            }
            self.base.executed(core, next);
        }
        self.try_respond(core, ctx);
        self.maybe_compact(core, ctx);
    }

    /// Checkpoints and discards the executed slot prefix once it crosses
    /// the threshold ([`PaxosBase::compact_through`]), short of own slots
    /// still awaiting a client response.
    fn maybe_compact(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        if !self.base.compaction_due(core) {
            return;
        }
        let mut upto = self.base.exec_index;
        for &s in &self.await_respond {
            if s <= upto {
                upto = s.prev();
            }
        }
        if self.base.compact_through(core, ctx, upto) {
            self.lost_own = self.lost_own.split_off(&(upto.0 + 1));
            self.forget_suggested_through(core, upto);
        }
    }

    /// Drops my suggestion times at or below `upto`, whose cells a
    /// checkpoint just discarded.
    fn forget_suggested_through(&mut self, core: &EngineCore, upto: Slot) {
        let above = owned_at_or_after(core.cfg.id, upto.next(), core.cfg.n);
        self.mine.drop_below(own_index(above, core.cfg.n));
    }

    /// Queues the decisions made in this handler on every peer's stream,
    /// to wait a fraction of the quickest one's suggest-to-commit time
    /// (`engine/links.rs`).
    fn queue_decisions(&mut self, core: &mut EngineCore, now: SimTime) {
        if self.commit_buf.is_empty() {
            return;
        }
        // When each was last (re)suggested.
        let suggested = |s| self.mine.get(own_index(s, core.cfg.n)).suggested;
        let quickest = self
            .commit_buf
            .iter()
            .map(|&s| now.since(suggested(s).min(now)))
            .min()
            .unwrap_or(SimDuration::ZERO);
        for peer in core.cfg.others() {
            let st = &mut self.out[peer.0 as usize];
            core.links
                .decisions_wait(peer, quickest, !st.decisions.is_empty());
            st.decisions.extend(self.commit_buf.iter().copied());
        }
        self.commit_buf.clear();
    }

    /// Retransmits my own suggested-but-unexecuted slots after
    /// [`engine::RETRY_INTERVAL`] of silence — the MultiPaxos heartbeat's
    /// retransmission in the Mencius spelling — committed ones included: a
    /// peer that missed the suggestion can neither execute the slot nor
    /// move its watermark past it, which blocks every respond pass's
    /// coverage. Each slot goes at the term it was accepted at (its cell's
    /// ballot), not `current_term`, as the acks are counted against it:
    /// one round per term.
    fn retransmit_own_unexecuted(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        let now = ctx.now();
        let (me, n) = (core.cfg.id, core.cfg.n);
        // An own value suggested longer than a retry interval ago.
        let due = |rules: &Self, s: Slot, slot: &Cell| {
            let own = rules.mine.get(own_index(s, n));
            let idle = now.since(own.suggested.min(now)) > engine::RETRY_INTERVAL;
            let mine = MenciusReplica::owner_of(s, n) == me && !own.skipped;
            mine && slot.cmd().is_some() && idle
        };
        // Where the first 64 due slots end.
        let unexecuted = self.base.exec_index.next()..;
        let held = self.base.cells.range(unexecuted.clone());
        let taken = held.filter(|&(s, slot)| due(self, s, slot));
        let Some((last, _)) = taken.take(64).last() else {
            return;
        };
        // The retransmitted slots are a subset by age, so these copies
        // claim nothing about them: each is an ordinary stream element
        // (the range since the last one holds no values — those left in
        // their own `Suggest`). One round per term, lowest first; a slot
        // re-sent is due no more. Decisions ride their values' round: one
        // ahead of a value a revocation replaced would commit the old one.
        let unsent = unexecuted.start..=last;
        let lowest = |rules: &Self| {
            let held = rules.base.cells.range(unsent.clone());
            let unsent = held.filter(|&(s, slot)| due(rules, s, slot));
            unsent.map(|(_, slot)| slot.bal()).min()
        };
        while let Some(term) = lowest(self) {
            let at_term = |s, slot: &Cell| slot.bal() == term && due(self, s, slot);
            let items = self
                .base
                .cells
                .cut(unsent.clone(), n as u64, usize::MAX, at_term);
            let chosen = items.iter().map(|(s, _)| s);
            let decided: Slots = chosen.filter(|&s| self.base.committed(s)).collect();
            for peer in core.cfg.others() {
                self.out[peer.0 as usize].decisions.extend(decided.iter());
            }
            for (s, _) in items.iter() {
                self.mine.suggested(own_index(s, n), now);
            }
            self.send_suggest(core, ctx, term, items);
        }
    }

    /// Per-peer catch-up, the MultiPaxos stall-gated replay in the Mencius
    /// spelling (module docs, *The gap rule*): to each peer whose executed
    /// prefix stalled between two coordination ticks, my *own* decided
    /// values above it, with their decisions, under a claim that starts
    /// right there and ends at the first value still uncommitted (or the
    /// 64th), complete for the range it claims. A peer below the
    /// checkpoint floor gets the state instead ([`PaxosBase::stalled_peer`];
    /// the multi-leader checkpoint carries no seal).
    fn replay_to_stalled_peers(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        let (me, n) = (core.cfg.id, core.cfg.n);
        for peer in core.cfg.others() {
            let Some(from) = self.base.stalled_peer(core, ctx, peer, Term::ZERO) else {
                continue;
            };
            // The claim stops at my watermark, and short of a value a
            // crash dropped (`lost_own`): that slot is not mine to call
            // a no-op.
            let mut upto = match self.lost_own.range(from.0..).next() {
                Some(&lost) => Slot(lost).min(self.next_own),
                None => self.next_own,
            };
            if from >= upto {
                continue;
            }
            // Each slot goes at the term it was accepted at (see
            // `retransmit_own_unexecuted`), so a term change ends the
            // round like an uncommitted value or the 64th one does: the
            // claim stops there and the next round continues.
            let mut term = None;
            let mut count = 0;
            for (s, slot) in self.base.cells.range(from..upto) {
                if MenciusReplica::owner_of(s, n) != me || slot.cmd().is_none() {
                    continue;
                }
                let bal = slot.bal();
                if !self.base.committed(s) || count == 64 || term.is_some_and(|t| t != bal) {
                    upto = s;
                    break;
                }
                term = Some(bal);
                count += 1;
            }
            // A claim without values helps only a peer stuck on a slot
            // of mine (one I skipped, and the notice was lost).
            if from >= upto || count == 0 && MenciusReplica::owner_of(from, n) != me {
                continue;
            }
            let items = self
                .base
                .cells
                .cut(from..upto, n as u64, usize::MAX, own(me, n));
            let ack = self.carry_ack(peer);
            core.links.stamp(peer, ctx.now());
            let st = &mut self.out[peer.0 as usize];
            let mut commits = std::mem::take(&mut st.decisions);
            commits.extend(items.iter().map(|(s, _)| s));
            let coord = Coord {
                from,
                watermark: upto,
                commits,
                exec: self.base.exec_index,
                ack,
            };
            let msg = match term {
                Some(term) => MenciusMsg::Suggest { term, items, coord },
                None => MenciusMsg::Notice { coord },
            };
            ctx.send(core.cfg.peer(peer), Msg::Mencius(msg));
        }
    }

    /// The highest slot any owner is known to have reached (sizing the
    /// revocation range).
    fn horizon(&self) -> Slot {
        let max_slot = self.base.cells.last_slot().unwrap_or(Slot::NONE);
        let max_known = self.known_upto.iter().copied().max().unwrap_or(Slot::NONE);
        max_slot.max(max_known).max(self.next_own)
    }

    /// Starts revocation of `owner`'s undecided slots when they block
    /// execution and the owner has been silent — or, for a crash-dropped
    /// own slot (`lost_own`), at once: the self-recovery of module docs.
    fn maybe_revoke(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        let (now, timeout) = (ctx.now(), core.cfg.mencius.revoke_timeout);
        if now.since(self.last_revoke_attempt.min(now)) < timeout {
            return;
        }
        // A revocation whose `PrepareOk`s or acks never arrive is retried
        // with a fresh ballot, as a stalled election is.
        self.revoke = None;
        let next = self.base.exec_index.next();
        if self.decided_at(core, next).is_some() {
            return; // not blocked
        }
        let owner = MenciusReplica::owner_of(next, core.cfg.n);
        let through = if owner == core.cfg.id {
            // Our own slot is the batch's, unless a crash dropped its
            // value: a self-revocation up to the last slot dropped.
            if !self.lost_own.contains(&next.0) {
                return;
            }
            Slot(*self.lost_own.iter().next_back().expect("checked non-empty"))
        } else {
            if now.since(self.last_heard[owner.0 as usize].min(now)) < timeout {
                return;
            }
            Slot(self.horizon().0 + core.cfg.n as u64)
        };
        self.start_revocation(core, ctx, owner, next, through);
    }

    /// Phase 1a of a revocation of `owner`'s slots in `from..=through`, at
    /// a term above every promise this replica gave and every ballot it
    /// accepted them at; it promises the range itself.
    fn start_revocation(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        owner: NodeId,
        from: Slot,
        through: Slot,
    ) {
        self.last_revoke_attempt = ctx.now();
        let n = core.cfg.n;
        let slots = (owned_at_or_after(owner, from, n).0..=through.0).step_by(n);
        let accepted = slots.map(|s| self.base.cells.get(Slot(s)).map_or(Term::ZERO, Cell::bal));
        let promised = self.promises.iter().map(|p| p.term);
        let above = promised.chain(accepted).fold(self.current_term, Term::max);
        let term = above.next_for(core.cfg.id, n);
        self.current_term = term;
        let phase1 = (self.base).open_phase1(core, ctx, term, (from, Some((owner, through))));
        self.promises[owner.0 as usize].give(term, from, through);
        self.revoke = Some(RevokeOp {
            term,
            owner,
            from,
            through,
            phase1: Some(phase1),
        });
    }

    fn on_mencius(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        from: ActorId,
        msg: MenciusMsg,
    ) {
        let peer = core.cfg.node_of(from);
        match msg {
            MenciusMsg::Suggest {
                term,
                items,
                mut coord,
            } => {
                let bytes: usize = items.values().map(|(_, c)| c.size_bytes()).sum();
                ctx.charge(
                    core.cfg.costs.append_fixed
                        + (core.cfg.costs.append_per_cmd + core.cfg.costs.coord_per_cmd)
                            * items.len().max(1) as u64
                        + core.cfg.costs.size_cost(bytes),
                );
                // A value the owner reports decided is learnt, not
                // accepted: no promise stands against it, as at a slot
                // its owner committed no ballot can decide another. A
                // revocation's value in one of my own slots is not taken
                // either: my table keeps what I proposed there until the
                // decision arrives, and re-proposes it if it was replaced.
                let (promises, n, me) = (&self.promises, core.cfg.n, core.cfg.id);
                let eligible = |base: &PaxosBase, s| {
                    (term >= promised_at(promises, base, s) && MenciusReplica::owner_of(s, n) != me)
                        || coord.commits.contains(s)
                        || base.learnt_without_value(s)
                };
                let got = (self.base).accept(core, ctx, term, &items, eligible);
                self.note_stored(&got);
                // A round is one owner's slots; a revocation's, another's.
                let sender = |s: &Slot| MenciusReplica::owner_of(*s, n) == peer;
                let max_slot = got.acked.max().filter(sender).unwrap_or(Slot::NONE);
                let promised = |&s: &Slot| promised_at(&self.promises, &self.base, s);
                // Decided here already (a revocation the suggester
                // missed): the refusal carries the decision.
                let decided = |&s: &Slot| {
                    let cell = self.base.cells.get(s).filter(|_| self.base.committed(s));
                    Some((s, cell?.cmd()?.clone()))
                };
                let refusal = got.refused.iter().map(promised).max().map(|term| {
                    let revoked: Run<Cell> = got.refused.iter().filter_map(decided).collect();
                    (term, revoked)
                });
                // A refused slot of the suggester's is not accounted for
                // here: the claim stops short of it.
                if let Some(&refused) = got.refused.iter().filter(|s| sender(s)).min() {
                    coord.watermark = coord.watermark.min(refused);
                }
                self.absorb(core, ctx, peer, coord);
                // Skip my own unused slots below the owner's suggestion.
                let skipped = self.skip_to(core, max_slot);
                // The ack is the acceptor's promise that these values
                // survive a crash: it leaves only after the covering
                // fsync (group commit batches it; see the module docs).
                // A held ack would leave out of stream order, so it is
                // not a stream element; one that need not wait joins my
                // stream to the suggester.
                if !got.acked.is_empty() {
                    let ack = Ack {
                        term,
                        slots: got.acked,
                    };
                    if core.dur.write_seq() > core.dur.synced_seq() {
                        let coord = Coord {
                            ack: Some(ack),
                            ..Coord::empty(self.next_own, self.base.exec_index)
                        };
                        let ok = Msg::Mencius(MenciusMsg::Notice { coord });
                        core.ack_after_sync(ctx, from, ok);
                    } else {
                        self.queue_ack(core, ctx, peer, ack);
                    }
                }
                // Every peer hears of the skip in a notice; the
                // suggester's carries the ack (the piggybacked skip of
                // Appendix A.3).
                if skipped {
                    for p in core.cfg.others() {
                        self.send_notice(core, ctx, p);
                    }
                }
                if let Some((term, items)) = refusal {
                    ctx.send(
                        from,
                        Msg::Mencius(MenciusMsg::SuggestReject {
                            slots: got.refused,
                            term,
                        }),
                    );
                    if !items.is_empty() {
                        ctx.send(from, Msg::Mencius(MenciusMsg::RevokeCommit { term, items }));
                    }
                }
                self.try_execute(core, ctx);
            }
            MenciusMsg::SuggestReject { term, .. } => {
                // One acceptor promised these slots to a revocation (or,
                // for a revocation's round, owns them).
                // That decides nothing: the other acceptors may still
                // complete the quorum, or the revocation decides the
                // slots — as no-ops or as the very values we suggested —
                // and its `RevokeCommit` re-proposes what it no-oped. So
                // the slots stay as they are; only the in-flight rounds
                // toward the rejecting peer are dead.
                core.pipe.on_regress(peer);
                if term > self.current_term {
                    self.current_term = Term(term.0 - 1).next_for(core.cfg.id, core.cfg.n);
                }
            }
            MenciusMsg::Notice { coord } => {
                // A notice carrying an ack costs what the ack does.
                if coord.ack.is_none() {
                    ctx.charge(core.cfg.costs.coord_msg);
                }
                self.absorb(core, ctx, peer, coord);
                self.try_execute(core, ctx);
            }
            MenciusMsg::Commit { slots } => {
                ctx.charge(core.cfg.costs.coord_msg);
                self.base.learn_at(slots.iter(), Term::ZERO);
                self.try_execute(core, ctx);
            }
            MenciusMsg::RevokeCommit { term, items } => {
                let mut reproposed = false;
                let mine = |s: &Slot| {
                    *s > self.base.floor()
                        && MenciusReplica::owner_of(*s, core.cfg.n) == core.cfg.id
                };
                for (s, cmd) in items.values().filter(|(s, _)| mine(s)) {
                    // If our own in-flight command was no-oped, re-propose
                    // it (an answered one is the decided value).
                    if let Some(held) = self.base.cells.get(s).and_then(Cell::cmd) {
                        if held != cmd && !matches!(held.op, Op::Noop) {
                            core.pending.push(held.clone());
                            reproposed = true;
                        }
                    }
                    // Our future proposals must clear the range.
                    let above = owned_at_or_after(core.cfg.id, s.next(), core.cfg.n);
                    self.next_own = self.next_own.max(above);
                }
                // A decision is learnt, not accepted: every value is
                // stored, and chosen at the ballot the decision carries.
                let got = (self.base).accept(core, ctx, term, &items, |_, _| true);
                self.base.learn_at(got.acked.iter(), term);
                self.note_stored(&got);
                // The items are every slot of one owner in a range: a
                // claim about exactly that range, noted once they are stored.
                if let Some(((from, _), last)) = items.iter().next().zip(items.last()) {
                    let owner = MenciusReplica::owner_of(from, core.cfg.n);
                    self.note_known(core, owner, from, last.next());
                }
                if reproposed {
                    core.arm_batch(ctx);
                }
                self.try_execute(core, ctx);
            }
        }
    }
}

impl ProtocolRules for MenciusRules {
    /// Every replica is the default leader of its own slots: client
    /// batches are always proposed locally, never forwarded.
    fn can_propose(&self, _core: &EngineCore) -> bool {
        true
    }

    fn applied_index(&self, _core: &EngineCore) -> Slot {
        self.base.exec_index
    }

    /// Proposes the batch into my own slots (`Suggest`) — one pipelined
    /// round over this owner's slot range. The suggestion always goes to
    /// every peer (each peer's stream must account for these slots), so
    /// unlike the single-leader protocols the send is not gated; the
    /// per-peer window still tracks in-flight rounds so the engine's
    /// batch cutter can pace this owner's range. Coordination costs
    /// `coord_per_cmd` a command on top of the engine's propose charge.
    fn propose(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, cmds: &mut Vec<Command>) {
        ctx.charge(core.cfg.costs.coord_per_cmd * cmds.len() as u64);
        let (me, n, term) = (core.cfg.id, core.cfg.n, self.current_term);
        let first = self.next_own;
        self.next_own = Slot(first.0 + cmds.len() as u64 * n as u64);
        let slots = (first.0..self.next_own.0).step_by(n).map(Slot);
        // No slot of mine from `next_own` on holds a value (a revocation
        // that decides one moves `next_own` past it): each command moves
        // into its cell, and the round is cut from the table.
        debug_assert!(slots.clone().all(|s| self.base.vacant(s)));
        let values = slots.zip(cmds.drain(..));
        let own = own(me, n);
        let items = (self.base).propose(core, ctx, term, values, n as u64, |_, s, c| own(s, c));
        for (s, _) in items.iter() {
            self.mine.suggested(own_index(s, n), ctx.now());
        }
        if let Some(upto) = items.last() {
            for peer in core.cfg.others() {
                core.pipe.on_sent(peer, upto, ctx.now());
            }
        }
        self.send_suggest(core, ctx, term, items);
        self.try_execute(core, ctx);
    }

    fn on_start(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        ctx.set_timer(SKIP_HEARTBEAT, T_COORD);
        // Crash recovery: re-decide own slots whose unsynced values the
        // crash dropped, via the ordinary revocation phase-1 run against
        // our *own* range (module docs). Kicked here rather than waiting
        // for the revoke timeout — we know first-hand the writes are
        // gone. `maybe_revoke` retries if this round stalls.
        let lost = self.lost_own.first().zip(self.lost_own.last());
        if let (Some((&from, &through)), None) = (lost, &self.revoke) {
            self.start_revocation(core, ctx, core.cfg.id, Slot(from), Slot(through));
        }
    }

    fn on_timer(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, kind: u64, _token: u64) {
        if kind != T_COORD {
            return;
        }
        // Rounds whose acks never came are presumed lost (the
        // retransmission re-covers them); don't let them pin the window
        // shut.
        core.pipe.expire_stale(ctx.now(), engine::RETRY_INTERVAL);
        // Keepalive stream element (watermark, queued decisions, exec)
        // to every peer the data path sent nothing since the last tick.
        for peer in core.cfg.others() {
            if core.links.last_sent(peer) <= self.last_tick {
                self.send_notice(core, ctx, peer);
            }
        }
        self.last_tick = ctx.now();
        self.retransmit_own_unexecuted(core, ctx);
        self.replay_to_stalled_peers(core, ctx);
        self.maybe_revoke(core, ctx);
        self.try_execute(core, ctx);
        ctx.set_timer(SKIP_HEARTBEAT, T_COORD);
    }

    /// A peer's message, a revocation's phase 1 among them: MultiPaxos's
    /// exchange (`engine/phase1.rs`). A `Prepare` over one owner's slots is
    /// granted above my term and that owner's promise; a `PrepareOk` counts
    /// for the revocation in flight, matched by its ballot alone (a ballot
    /// names its proposer), and its winner suggests what it picked.
    fn on_msg(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, from: ActorId, msg: Msg) {
        let (peer, n) = (core.cfg.node_of(from), core.cfg.n);
        self.last_heard[peer.0 as usize] = ctx.now();
        match msg {
            Msg::Mencius(m) => self.on_mencius(core, ctx, from, m),
            Msg::Paxos(PaxosMsg::Prepare {
                ballot,
                range: range @ (from_slot, Some((owner, through))),
            }) if ballot > self.current_term.max(self.promises[owner.0 as usize].term) => {
                self.promises[owner.0 as usize].give(ballot, from_slot, through);
                if owner == core.cfg.id {
                    // Having promised my own range away, I must not
                    // suggest in it: my proposals clear the range.
                    let above = owned_at_or_after(owner, through.next(), n);
                    self.next_own = self.next_own.max(above);
                }
                // The multi-leader checkpoint carries no seal.
                (self.base).answer_phase1(core, ctx, from, ballot, range, Term::ZERO);
            }
            Msg::Paxos(PaxosMsg::PrepareOk {
                ballot,
                entries,
                log_tail,
                floor,
            }) => {
                let Some(op) = self.revoke.as_mut().filter(|op| op.term == ballot) else {
                    return;
                };
                let Some(phase1) = op.phase1.as_mut() else {
                    return; // won already: the round is out
                };
                phase1.grant(peer, entries, log_tail, floor);
                if !phase1.won(n) {
                    return;
                }
                op.from = phase1.first_open(owned_at_or_after(op.owner, op.from, n), n as u64);
                // Nothing is left above the reported floors, or my own
                // acceptor went above the ballot since (a higher
                // revocation's promise or value) and would refuse the
                // round: none goes out, and `maybe_revoke` retries.
                let above = |s| promised_at(&self.promises, &self.base, s) > op.term;
                if op.slots(n).next().is_none() || op.slots(n).any(above) {
                    self.revoke = None;
                    return;
                }
                // Phase 2 is a suggestion's, chosen by a quorum of acks
                // (`absorb`, `note_chosen`).
                let mut phase1 = op.phase1.take().expect("checked");
                let (term, owned) = (op.term, own(op.owner, n));
                let values = phase1.adopt(op.slots(n));
                let carried = |_: &PaxosBase, s, c: &Cell| owned(s, c);
                let round = (self.base).propose(core, ctx, term, values, n as u64, carried);
                self.send_suggest(core, ctx, term, round);
            }
            _ => {}
        }
    }

    /// A local fsync completed: add my own (previously withheld) ack bit
    /// to the suggestions the sync covered, a revocation's round among
    /// them. Slots a revocation has since decided at a higher ballot
    /// simply fail the per-slot term check, as in `absorb`.
    /// The idle links are checked after every fsync that counted a vote.
    fn on_durable(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) -> bool {
        let before = self.commit_buf.len();
        let chosen = &mut self.commit_buf;
        let at_term = |term, slot: &Cell| slot.bal() == term;
        let synced = core.dur.synced_seq();
        if !(self.base).tally_synced_votes(synced, at_term, |_| true, |s| chosen.push(s)) {
            return false;
        }
        self.note_chosen(core, ctx, before);
        self.queue_decisions(core, ctx.now());
        self.try_execute(core, ctx);
        true
    }

    /// My queued decisions and my ack of the peer's suggestions wait on
    /// my stream to it.
    fn waiting(&self, peer: NodeId) -> Waiting {
        let st = &self.out[peer.0 as usize];
        let (decision, ack) = (!st.decisions.is_empty(), st.ack.is_some());
        Waiting { decision, ack }
    }

    /// An ack due goes in a notice of its own, the decisions riding it;
    /// decisions due go in a `Commit`, or in a notice when an ack waits.
    fn send_alone(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, to: NodeId, due: Waiting) {
        let st = &mut self.out[to.0 as usize];
        if st.ack.is_some() {
            self.acks_alone += u64::from(due.ack);
            self.send_notice(core, ctx, to);
        } else {
            self.commits_alone += 1;
            let slots = std::mem::take(&mut st.decisions);
            ctx.send(
                core.cfg.peer(to),
                Msg::Mencius(MenciusMsg::Commit { slots }),
            );
        }
    }

    fn snapshot_chunk_fixed_cost(&self, costs: &CostModel) -> SimDuration {
        costs.coord_msg
    }

    /// Mencius's multi-leader `Checkpoint` spelling is ballot-free: its
    /// headers drop the 8-byte seal the MultiPaxos spelling carries.
    fn snapshot_wire_overhead(&self) -> (usize, usize) {
        (CHECKPOINT_CHUNK_HEADER - 8, CHECKPOINT_ACK_HEADER - 8)
    }

    fn accept_snapshot_chunk(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        from: ActorId,
        _seal: Term,
    ) -> bool {
        // Multi-leader transfers are ballot-free; any peer may ship us
        // its state. The chunk doubles as a liveness signal.
        self.last_heard[core.cfg.node_of(from).0 as usize] = ctx.now();
        true
    }

    /// Installs a fully reassembled checkpoint from a peer.
    fn install_snapshot(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        from: ActorId,
        snap: Snapshot,
    ) {
        let covered = snap.last_slot;
        if let Some(discarded) = self.base.install(core, ctx, snap) {
            // Mencius alone counts what an *install* drops as discarded
            // (`PARITY_pr13.txt` row 18 pins the sum).
            core.snap_stats.entries_discarded += discarded as u64;
            self.lost_own = self.lost_own.split_off(&(covered.0 + 1));
            self.forget_suggested_through(core, covered);
            // The state covers every owner's slots from the first one.
            for o in 0..core.cfg.n as u32 {
                self.note_known(core, NodeId(o), Slot(1), covered.next());
            }
            let above = owned_at_or_after(core.cfg.id, covered.next(), core.cfg.n);
            self.next_own = self.next_own.max(above);
            // Own in-flight slots inside the covered range were decided
            // without us (revoked to no-ops); their clients re-submit
            // and the restored sessions deduplicate.
            self.await_respond.retain(|&s| s > covered);
            // A revocation in flight asked below the new floor: it ends
            // (`maybe_revoke` retries if execution still blocks).
            self.revoke = None;
            self.try_execute(core, ctx);
        }
        engine::ack_snapshot(core, ctx, from, Term::ZERO, self.base.exec_index);
    }

    fn on_snapshot_ack(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        from: ActorId,
        _seal: Term,
        upto: Slot,
    ) {
        let peer = core.cfg.node_of(from);
        self.last_heard[peer.0 as usize] = ctx.now();
        core.pipe.finish_snapshot(peer);
        // The peer executed through `upto`; that accounts for its own
        // slots only as far as this replica executed too (a peer that
        // was ahead answers with a prefix we have not seen).
        self.note_known(core, peer, Slot(1), upto.min(self.base.exec_index).next());
    }

    /// The family's work-paid-once counters, and how acks and decisions
    /// reached the peers: `acks_carried` on a message leaving anyway,
    /// `acks_alone` in a notice of their own, `commits_alone` in a
    /// `Commit` of their own.
    fn record_metrics(&self, sample: &mut crate::telemetry::MetricSample) {
        self.base.record_metrics(sample);
        let carried = self.acks_sent - self.acks_alone;
        sample.record("acks_carried", carried as f64);
        sample.record("acks_alone", self.acks_alone as f64);
        sample.record("commits_alone", self.commits_alone as f64);
    }

    fn on_crash(&mut self, core: &mut EngineCore, floor: Slot) {
        // Stable: the slots, current_term and the promises; volatile: the
        // pending work and respond queues. A value no fsync covered is
        // gone (`PaxosBase::crash`); an *own* one, committed or not, goes
        // to `lost_own` for the self-revocation (module docs), and another
        // owner's is unknown again: empty, it is no skip.
        let n = core.cfg.n;
        for (s, _) in self.base.crash(core, floor) {
            let owner = MenciusReplica::owner_of(s, n);
            if owner != core.cfg.id {
                let known = &mut self.known_upto[owner.0 as usize];
                *known = (*known).min(s);
            } else if !self.mine.get(own_index(s, n)).skipped {
                self.lost_own.insert(s.0);
            }
        }
        self.await_respond.clear();
        self.respond_seen = None;
        self.commit_buf.clear();
        // The streams restart claiming nothing they did not send in this
        // incarnation; queued decisions and waiting acks die with the
        // queue (the retransmissions re-cover them), and so do the
        // measured round trips, as the pipeline window's rounds do.
        for st in &mut self.out {
            *st = PeerStream::starting_at(self.next_own);
        }
        core.links = Links::new(core.cfg.n);
        self.beyond_gap.fill(None);
        self.revoke = None;
        // What I know of my own slots stays, as the cells do.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::slots::tests::{recording, Cut};
    use crate::msg::EngineMsg;
    use crate::testutil::{drive_until, region_of, TestClient};
    use paxraft_sim::net::NetConfig;
    use paxraft_sim::sim::Simulation;
    use paxraft_sim::time::SimTime;

    impl MenciusRules {
        /// The slots a respond pass must answer, by the rule as it was
        /// first written — coverage asked of every peer for every slot, and
        /// the conflict part read off the whole retained history instead of
        /// an index: the latest earlier write to the key, and the latest
        /// earlier migration command, has applied.
        pub(super) fn oracle_ready(&self, core: &EngineCore) -> Vec<Slot> {
            use crate::engine::conflicts::Holds;
            let ready = |s: &Slot| {
                let Some(slot) = self.base.cells.get(*s) else {
                    return false;
                };
                let Some(cmd) = slot.cmd() else {
                    return false;
                };
                let covered = core
                    .cfg
                    .others()
                    .all(|o| self.known_upto[o.0 as usize] >= *s);
                let key = cmd.op.key();
                let holds = |h| h == Holds::All || key.is_some_and(|k| h == Holds::Key(k));
                let applied = self
                    .base
                    .cells
                    .range(..*s)
                    .rev()
                    .find(|(_, x)| x.cmd().and_then(Holds::of).is_some_and(holds))
                    .is_none_or(|(c, _)| self.base.exec_index >= c);
                let exec = self.base.exec_index;
                let lost = self.lost_own.iter().any(|&x| exec.0 < x && x < s.0);
                self.base.committed(*s) && covered && applied && !lost
            };
            self.await_respond.iter().copied().filter(ready).collect()
        }

        /// The slot table, for the engine's conflict-index rows.
        pub(crate) fn cells(&self) -> &crate::engine::slots::SlotRing<Cell> {
            &self.base.cells
        }
    }

    /// n replicas plus one TestClient per replica (client i → replica i).
    fn mencius_cluster(n: usize) -> (Simulation<Msg>, Vec<ActorId>, Vec<ActorId>) {
        let mut sim = Simulation::new(NetConfig::default(), 11);
        let peers: Vec<ActorId> = (0..n).map(ActorId).collect();
        let mut replicas = Vec::new();
        for i in 0..n {
            let mut cfg = ReplicaConfig::wan_default(NodeId(i as u32), n);
            cfg.peers = peers.clone();
            cfg.client_base = n;
            cfg.mencius.revoke_timeout = SimDuration::from_secs(2);
            replicas.push(sim.add_actor(region_of(i), Box::new(MenciusReplica::new(cfg))));
        }
        let mut clients = Vec::new();
        for i in 0..n {
            let c = TestClient::new(i as u32, replicas[i]);
            clients.push(sim.add_actor(region_of(i), Box::new(c)));
        }
        (sim, replicas, clients)
    }

    /// The ring of own slots reads a slot never set, or dropped, as never
    /// suggested or skipped; a drop past its end leaves it
    /// starting there.
    #[test]
    fn suggestion_times_read_what_was_set_and_forget_what_was_dropped() {
        let (mut t, at) = (OwnSlots::default(), SimTime::from_millis);
        let set = OwnSlots::suggested;
        let times = |t: &OwnSlots, i: [u64; 3]| i.map(|i| t.get(i).suggested);
        set(&mut t, 3, at(5));
        assert_eq!(times(&t, [3, 0, 9]), [at(5), SimTime::ZERO, SimTime::ZERO]);
        set(&mut t, 1, at(7));
        t.drop_below(2);
        assert_eq!(times(&t, [1, 3, 2]), [SimTime::ZERO, at(5), SimTime::ZERO]);
        t.drop_below(10);
        set(&mut t, 4, at(1));
        set(&mut t, 12, at(2));
        t.get_mut(12).expect("kept").skipped = true;
        assert_eq!(
            times(&t, [4, 12, 11]),
            [SimTime::ZERO, at(2), SimTime::ZERO]
        );
        assert!(t.get(12).skipped && !t.get(11).skipped);
        assert_eq!(t.slots.len(), 3);
    }

    #[test]
    fn owner_assignment_round_robin() {
        assert_eq!(MenciusReplica::owner_of(Slot(1), 3), NodeId(0));
        assert_eq!(MenciusReplica::owner_of(Slot(2), 3), NodeId(1));
        assert_eq!(MenciusReplica::owner_of(Slot(3), 3), NodeId(2));
        assert_eq!(MenciusReplica::owner_of(Slot(4), 3), NodeId(0));
    }

    #[test]
    fn single_client_commits_with_skips() {
        let (mut sim, replicas, clients) = mencius_cluster(3);
        sim.actor_mut::<TestClient>(clients[0]).enqueue_put(10);
        sim.actor_mut::<TestClient>(clients[0]).enqueue_put(11);
        assert!(drive_until(&mut sim, SimTime::from_secs(5), |sim| {
            sim.actor::<TestClient>(clients[0]).replies.len() == 2
        }));
        // Replica 0 owns slots 1, 4, ...; others must have skipped 2, 3.
        sim.run_for(SimDuration::from_millis(500));
        let r1 = sim.actor::<MenciusReplica>(replicas[1]);
        assert!(r1.skips_issued() >= 1, "replica 1 skipped its unused slots");
        let r0 = sim.actor::<MenciusReplica>(replicas[0]);
        assert!(
            r0.exec_index().0 >= 4,
            "prefix executed through both writes"
        );
    }

    #[test]
    fn all_replicas_serve_their_own_clients() {
        let (mut sim, replicas, clients) = mencius_cluster(3);
        for &c in &clients {
            sim.actor_mut::<TestClient>(c).enqueue_put(c.0 as u64 * 100);
        }
        assert!(drive_until(&mut sim, SimTime::from_secs(5), |sim| {
            clients
                .iter()
                .all(|&c| sim.actor::<TestClient>(c).replies.len() == 1)
        }));
        // Load balance: each replica proposed in its own slots.
        sim.run_for(SimDuration::from_secs(1));
        for (i, &r) in replicas.iter().enumerate() {
            let rep = sim.actor::<MenciusReplica>(r);
            assert!(rep.responses_sent() >= 1, "replica {i} answered its client");
        }
    }

    #[test]
    fn states_converge_across_replicas() {
        let (mut sim, replicas, clients) = mencius_cluster(3);
        for round in 0..5 {
            for &c in &clients {
                sim.actor_mut::<TestClient>(c)
                    .enqueue_put(round * 10 + c.0 as u64);
            }
        }
        assert!(drive_until(&mut sim, SimTime::from_secs(20), |sim| {
            clients
                .iter()
                .all(|&c| sim.actor::<TestClient>(c).replies.len() == 5)
        }));
        sim.run_for(SimDuration::from_secs(1));
        let e0 = sim.actor::<MenciusReplica>(replicas[0]).exec_index();
        assert!(e0.0 >= 15);
        // Every decided slot agrees across replicas.
        for s in 1..=e0.0 {
            let d0 = sim.actor::<MenciusReplica>(replicas[0]).decided_at(Slot(s));
            for &r in &replicas[1..] {
                let dr = sim.actor::<MenciusReplica>(r).decided_at(Slot(s));
                if let (Some(a), Some(b)) = (&d0, &dr) {
                    assert_eq!(a.id, b.id, "agreement at slot {s}");
                }
            }
        }
    }

    #[test]
    fn conflicting_writes_apply_in_slot_order_everywhere() {
        let (mut sim, replicas, clients) = mencius_cluster(3);
        // All clients hammer the same key.
        for _ in 0..4 {
            for &c in &clients {
                sim.actor_mut::<TestClient>(c)
                    .enqueue_put(crate::kv::Key::from(0u64));
            }
        }
        assert!(drive_until(&mut sim, SimTime::from_secs(30), |sim| {
            clients
                .iter()
                .all(|&c| sim.actor::<TestClient>(c).replies.len() == 4)
        }));
        sim.run_for(SimDuration::from_secs(1));
        // Convergence: all replicas end with the same final value.
        let v0 = sim.actor::<MenciusReplica>(replicas[0]).kv().read_local(0);
        for &r in &replicas[1..] {
            let vr = sim.actor::<MenciusReplica>(r).kv().read_local(0);
            assert_eq!(vr.value_id(), v0.value_id(), "same final value everywhere");
        }
    }

    #[test]
    fn revocation_unblocks_after_owner_crash() {
        let (mut sim, replicas, clients) = mencius_cluster(3);
        // Prime: one committed round so everyone is warm.
        sim.actor_mut::<TestClient>(clients[0]).enqueue_put(1);
        assert!(drive_until(&mut sim, SimTime::from_secs(5), |sim| {
            sim.actor::<TestClient>(clients[0]).replies.len() == 1
        }));
        // Crash replica 2, then keep writing from replica 0's client.
        sim.crash_at(replicas[2], sim.now() + SimDuration::from_millis(1));
        let t0 = sim.now();
        sim.actor_mut::<TestClient>(clients[0]).enqueue_put(2);
        sim.actor_mut::<TestClient>(clients[0]).enqueue_put(3);
        assert!(drive_until(&mut sim, SimTime::from_secs(30), |sim| {
            sim.actor::<TestClient>(clients[0]).replies.len() == 3
        }));
        let done = sim.actor::<TestClient>(clients[0]).replies[2].2;
        // Progress resumed after the 2s revoke timeout (plus slack).
        assert!(
            done.since(t0) < SimDuration::from_secs(10),
            "revocation unblocked writes in {}",
            done.since(t0)
        );
        // And the dead owner's slots are decided (no-ops) at survivors.
        let r0 = sim.actor::<MenciusReplica>(replicas[0]);
        assert!(r0.exec_index().0 >= 4);
    }

    #[test]
    fn commutative_writes_respond_before_full_prefix_applies() {
        // With distinct keys, replica 0's write responds once covered and
        // committed, without waiting for other owners' commits.
        let (mut sim, _replicas, clients) = mencius_cluster(3);
        sim.actor_mut::<TestClient>(clients[0]).enqueue_put(100);
        sim.actor_mut::<TestClient>(clients[1]).enqueue_put(200);
        assert!(drive_until(&mut sim, SimTime::from_secs(5), |sim| {
            sim.actor::<TestClient>(clients[0]).replies.len() == 1
                && sim.actor::<TestClient>(clients[1]).replies.len() == 1
        }));
    }

    /// Replica 1 suggests `cmd` in its slot 5 ahead of its first ack,
    /// claiming its slots 2, 8 and 11 as no-ops and deciding nothing,
    /// and sends slot 5's decision 500 ms later; replica 2 acknowledges
    /// everything and claims all its slots as no-ops. Replica 0's next
    /// own slot moves past 5, so its client's second command lands in
    /// slot 7 and its third in slot 10, both covered.
    fn slot_5_held_by_replica_1(cmd: Command) -> (Simulation<Msg>, ActorId) {
        let held = MenciusMsg::Suggest {
            term: Term::encode(1, NodeId(1), 3),
            items: [(Slot(5), cmd)].into_iter().collect(),
            coord: skipped_below(14),
        };
        let p1 = Puppet::new(
            usize::MAX,
            Coord::empty(Slot(14), Slot::NONE),
            vec![
                (SimDuration::ZERO, held),
                (SimDuration::from_millis(500), notice(14, 14, &[5])),
            ],
        );
        let p2 = Puppet::new(usize::MAX, skipped_below(1000), Vec::new());
        replica_among_puppets(p1, p2)
    }

    /// A read is answered by the rule a write is: chosen, covered, and no
    /// write to its key unapplied below it. Slot 7's read of another key
    /// is answered while execution is still held at replica 1's slot 5;
    /// slot 10's read of slot 5's key waits until that write applies, and
    /// returns it.
    #[test]
    fn reads_answer_by_the_commutative_rule_ahead_of_in_order_execution() {
        let id = crate::kv::CmdId { client: 9, seq: 5 };
        let (mut sim, client) = slot_5_held_by_replica_1(Command::put(id, 105, vec![0; 8]));
        let script = sim.actor_mut::<TestClient>(client);
        script.enqueue_put(1);
        script.enqueue_get(200);
        script.enqueue_get(105);
        sim.run_until(SimTime::from_millis(450));
        let replies = &sim.actor::<TestClient>(client).replies;
        assert_eq!(replies.len(), 2, "slot 7's read answered, slot 10's waits");
        assert_eq!(replies[1].1, crate::kv::Reply::Value(None));
        let rep = sim.actor::<MenciusReplica>(ActorId(0));
        assert_eq!(rep.exec_index(), Slot(4), "slot 5 is not decided");
        assert!(rep.rules.base.committed(Slot(10)));
        sim.run_until(SimTime::from_millis(700));
        assert!(sim.actor::<MenciusReplica>(ActorId(0)).exec_index() >= Slot(10));
        let replies = &sim.actor::<TestClient>(client).replies;
        assert_eq!(replies.len(), 3);
        assert_eq!(replies[2].1.value_id(), Some(id.as_value_id()));
    }

    /// An answer ahead of in-order execution must not overtake a
    /// migration command: a write in slot 7 to a key that replica 1's
    /// `FreezeRange` in slot 5 moves away is bounced when it applies, so
    /// it is held until the freeze has applied and then answered with the
    /// redirect — and so is a read of the key after it.
    #[test]
    fn an_early_answer_waits_for_a_migration_command_below_it() {
        let freeze = crate::shard::migration::FrozenRange {
            lo: 100,
            hi: 200,
            to_group: 1,
            version: 1,
            coord: 9,
            released: false,
        };
        let freeze = Command {
            id: crate::kv::CmdId { client: 9, seq: 5 },
            op: Op::FreezeRange(Box::new(freeze)),
        };
        let (mut sim, client) = slot_5_held_by_replica_1(freeze);
        let script = sim.actor_mut::<TestClient>(client);
        script.enqueue_put(1);
        script.enqueue_put(150);
        script.enqueue_get(150);
        sim.run_until(SimTime::from_millis(450));
        let rep = sim.actor::<MenciusReplica>(ActorId(0));
        assert_eq!(rep.exec_index(), Slot(4), "the freeze is not decided");
        assert!(rep.rules.base.committed(Slot(7)));
        assert!(rep.rules.cover(&rep.core) >= Slot(7), "and covered");
        let replies = &sim.actor::<TestClient>(client).replies;
        assert_eq!(replies.len(), 1, "the write in slot 7 waits for the freeze");
        sim.run_until(SimTime::from_millis(800));
        let moved = crate::kv::Reply::WrongGroup {
            group: 1,
            version: 1,
        };
        let replies = &sim.actor::<TestClient>(client).replies;
        let answers: Vec<_> = replies.iter().map(|(_, r, _)| r.clone()).collect();
        assert_eq!(answers, [crate::kv::Reply::Done, moved.clone(), moved]);
    }

    /// A crash empties replica 0's own slot 1 (`Put 7`, written but
    /// neither synced nor chosen). After the restart a read of the key in
    /// a new own slot is chosen and covered, but what slot 1 held is not
    /// known until the self-revocation decides it again — another
    /// replica may have answered a read with it already. So the read
    /// waits for that decision, and returns the write.
    #[test]
    fn a_read_waits_for_an_own_slot_a_crash_emptied() {
        let put = Command::put(crate::kv::CmdId { client: 0, seq: 1 }, 7, vec![0; 8]);
        let recovered = PaxosMsg::PrepareOk {
            ballot: Term::encode(2, NodeId(0), 3),
            entries: vec![(Slot(1), Term::encode(1, NodeId(0), 3), put.clone())],
            log_tail: Slot(1),
            floor: Slot::NONE,
        };
        let p1 = Puppet::new(usize::MAX, skipped_below(1000), Vec::new())
            .also(SimDuration::from_millis(400), Msg::Paxos(recovered));
        let p2 = Puppet::new(usize::MAX, skipped_below(1000), Vec::new());
        // An fsync takes longer than the run up to the crash, so the
        // owner's write is still unsynced when it comes.
        let durability = crate::config::DurabilityConfig::group_commit(
            SimDuration::from_secs(1),
            64,
            SimDuration::from_millis(1),
        );
        let (mut sim, client) = replica_among_puppets_with(p1, p2, |cfg| {
            cfg.durability = durability.clone();
        });
        sim.set_disk_config(durability.disk_config());
        sim.actor_mut::<TestClient>(client).enqueue_put(7);
        // Slot 1 is suggested at about 12 ms; its acks are still on the
        // wire when replica 0 crashes.
        sim.crash_at(ActorId(0), SimTime::from_millis(40));
        sim.restart_at(ActorId(0), SimTime::from_millis(100));
        sim.run_until(SimTime::from_millis(150));
        let reader = sim.add_actor(region_of(0), Box::new(TestClient::new(1, ActorId(0))));
        sim.actor_mut::<TestClient>(reader).enqueue_get(7);
        sim.run_until(SimTime::from_millis(400));
        let rep = sim.actor::<MenciusReplica>(ActorId(0));
        assert!(rep.rules.lost_own.contains(&1), "slot 1's value is gone");
        assert!(rep.rules.base.committed(Slot(4)));
        assert!(rep.rules.cover(&rep.core) >= Slot(4), "and covered");
        assert!(sim.actor::<TestClient>(reader).replies.is_empty());
        sim.run_until(SimTime::from_millis(600));
        let rep = sim.actor::<MenciusReplica>(ActorId(0));
        assert_eq!(rep.decided_at(Slot(1)), Some(&put), "decided again");
        let replies = &sim.actor::<TestClient>(reader).replies;
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].1.value_id(), put.id.as_value_id().into());
    }

    /// Replica 0's own slot 1 (`Put 7`) is chosen by the two peers' acks
    /// and answered, and replica 0 crashes before its own fsync. Its
    /// value is gone, and nobody replays an owner's slots to it: it must
    /// not be read as skipped. Execution waits for the self-revocation,
    /// which decides the write again from a peer's copy.
    #[test]
    fn an_own_slot_chosen_before_a_crash_emptied_it_is_not_read_as_skipped() {
        let put = Command::put(crate::kv::CmdId { client: 0, seq: 1 }, 7, vec![0; 8]);
        let recovered = PaxosMsg::PrepareOk {
            ballot: Term::encode(2, NodeId(0), 3),
            entries: vec![(Slot(1), Term::encode(1, NodeId(0), 3), put.clone())],
            log_tail: Slot(1),
            floor: Slot::NONE,
        };
        let p1 = Puppet::new(usize::MAX, skipped_below(1000), Vec::new())
            .also(SimDuration::from_millis(500), Msg::Paxos(recovered));
        let p2 = Puppet::new(usize::MAX, skipped_below(1000), Vec::new());
        // An fsync takes longer than the run up to the crash, so the
        // owner's write is still unsynced when it comes.
        let durability = crate::config::DurabilityConfig::group_commit(
            SimDuration::from_secs(1),
            64,
            SimDuration::from_millis(1),
        );
        let (mut sim, client) = replica_among_puppets_with(p1, p2, |cfg| {
            cfg.durability = durability.clone();
        });
        sim.set_disk_config(durability.disk_config());
        sim.actor_mut::<TestClient>(client).enqueue_put(7);
        sim.crash_at(ActorId(0), SimTime::from_millis(200));
        sim.restart_at(ActorId(0), SimTime::from_millis(300));
        sim.run_until(SimTime::from_millis(199));
        let answered = &sim.actor::<TestClient>(client).replies;
        assert_eq!(answered.len(), 1, "the write was acknowledged");
        sim.run_until(SimTime::from_millis(450));
        let rep = sim.actor::<MenciusReplica>(ActorId(0));
        assert_eq!(rep.decided_at(Slot(1)), None, "not a no-op");
        assert_eq!(rep.exec_index(), Slot::NONE, "execution waits");
        sim.run_until(SimTime::from_millis(700));
        let rep = sim.actor::<MenciusReplica>(ActorId(0));
        assert_eq!(rep.decided_at(Slot(1)), Some(&put), "decided again");
        assert_eq!(
            rep.kv().read_local(7).value_id(),
            Some(put.id.as_value_id())
        );
    }

    /// Owner 1's `Put 102` in slot 2 reaches replica 0 and a later element
    /// of owner 1's stream claims past it; replica 0 crashes before the
    /// fsync that would have kept the value, and restarts. The slot is
    /// empty and was accounted for, but it is no skip: replica 0 must not
    /// execute a no-op where the owner executed the write. Execution waits
    /// there until owner 1's replay brings the value again.
    #[test]
    fn a_crash_dropped_value_of_another_owner_is_not_read_as_a_skip() {
        let put = Command::put(crate::kv::CmdId { client: 0, seq: 1 }, 7, vec![0; 8]);
        let slot_2 = Coord {
            from: Slot(2),
            ..skipped_below(5)
        };
        let replay = Coord {
            from: Slot(2),
            commits: Slots::from_iter([Slot(2)]),
            ..skipped_below(8)
        };
        let ms = SimDuration::from_millis;
        let script = vec![
            (SimDuration::ZERO, suggest_from(1, &[2], slot_2)),
            (ms(5), notice(5, 8, &[])),
            (ms(900), suggest_from(1, &[2], replay)),
        ];
        // Replica 0's own slot 1 is dropped too; its self-revocation
        // decides it again from Ohio's copy.
        let accepted = vec![(Slot(1), Term::encode(1, NodeId(0), 3), put)];
        let p1 = Puppet::new(usize::MAX, Coord::empty(Slot(8), Slot::NONE), script)
            .answering_prepares(accepted, Slot::NONE);
        let p2 = Puppet::new(usize::MAX, skipped_below(1000), Vec::new());
        // An fsync takes longer than the run up to the crash.
        let durability = crate::config::DurabilityConfig::group_commit(
            SimDuration::from_secs(1),
            64,
            SimDuration::from_millis(1),
        );
        let (mut sim, client) = replica_among_puppets_with(p1, p2, |cfg| {
            cfg.durability = durability.clone();
            cfg.mencius.revoke_timeout = SimDuration::from_secs(5);
        });
        sim.set_disk_config(durability.disk_config());
        sim.actor_mut::<TestClient>(client).enqueue_put(7);
        sim.crash_at(ActorId(0), SimTime::from_millis(200));
        sim.restart_at(ActorId(0), SimTime::from_millis(300));
        sim.run_until(SimTime::from_millis(199));
        let rep = sim.actor::<MenciusReplica>(ActorId(0));
        assert_eq!(rep.rules.known_upto[1], Slot(8), "slot 2 accounted for");
        assert!(rep
            .rules
            .base
            .cells
            .get(Slot(2))
            .is_some_and(|c| c.cmd().is_some()));
        sim.run_until(SimTime::from_millis(700));
        let rep = sim.actor::<MenciusReplica>(ActorId(0));
        assert_eq!(rep.decided_at(Slot(2)), None, "not a skip");
        assert_eq!(rep.exec_index(), Slot(1), "execution waits at slot 2");
        sim.run_until(SimTime::from_millis(1300));
        let rep = sim.actor::<MenciusReplica>(ActorId(0));
        assert_eq!(rep.decided_at(Slot(2)).map(|c| c.id.seq), Some(2));
        assert!(rep.exec_index() >= Slot(3), "the replay healed the gap");
        assert!(rep.kv().read_local(102).value_id().is_some());
    }

    /// A scripted peer among real replicas: records what replica 0 sends
    /// it, acknowledges the first `acks` suggestions (every ack carrying
    /// `ack_coord`), and plays `script` — messages for replica 0, each
    /// sent a given time after the first suggestion arrives (zero delay:
    /// in that handler, ahead of the ack). With `prepare_ok` set it answers
    /// every `Prepare` with a `PrepareOk` reporting those values and
    /// `floor`. What is not a Mencius message (a `Prepare`, a checkpoint
    /// chunk) it keeps in `other`.
    struct Puppet {
        acks: usize,
        ack_coord: Coord,
        script: Vec<(SimDuration, Msg)>,
        prepare_ok: Option<Vec<(Slot, Term, Command)>>,
        floor: Slot,
        seen: Vec<(SimTime, MenciusMsg)>,
        other: Vec<(SimTime, Msg)>,
    }

    impl Puppet {
        fn new(acks: usize, ack_coord: Coord, script: Vec<(SimDuration, MenciusMsg)>) -> Self {
            let script = script.into_iter().map(|(at, m)| (at, Msg::Mencius(m)));
            Puppet {
                acks,
                ack_coord,
                script: script.collect(),
                prepare_ok: None,
                floor: Slot::NONE,
                seen: Vec::new(),
                other: Vec::new(),
            }
        }

        /// Answers every `Prepare` reporting `accepted` and `floor`.
        fn answering_prepares(mut self, accepted: Vec<(Slot, Term, Command)>, floor: Slot) -> Self {
            (self.prepare_ok, self.floor) = (Some(accepted), floor);
            self
        }

        /// Adds a message that is not a Mencius one (a `Prepare`, a
        /// checkpoint chunk) to the script.
        fn also(mut self, delay: SimDuration, msg: Msg) -> Self {
            self.script.push((delay, msg));
            self
        }

        /// The ballots of the `Prepare`s seen over `owner`'s slots.
        fn prepares_seen(&self, owner: NodeId) -> Vec<Term> {
            let asked = |(_, m): &(SimTime, Msg)| match m {
                Msg::Paxos(PaxosMsg::Prepare {
                    ballot,
                    range: (_, Some((o, _))),
                }) => (*o == owner).then_some(*ballot),
                _ => None,
            };
            self.other.iter().filter_map(asked).collect()
        }

        fn suggests_seen(&self) -> impl Iterator<Item = (&Run<Cell>, &Coord)> {
            self.seen.iter().filter_map(|(_, m)| match m {
                MenciusMsg::Suggest { items, coord, .. } => Some((items, coord)),
                _ => None,
            })
        }
    }

    impl paxraft_sim::sim::Actor<Msg> for Puppet {
        fn on_message(&mut self, ctx: &mut Ctx<Msg>, from: ActorId, msg: Msg) {
            let m = match msg {
                Msg::Mencius(m) => m,
                other => {
                    let asked = match &other {
                        Msg::Paxos(PaxosMsg::Prepare { ballot, .. }) => Some(*ballot),
                        _ => None,
                    };
                    if let (Some(ballot), Some(entries)) = (asked, &self.prepare_ok) {
                        let ok = PaxosMsg::PrepareOk {
                            ballot,
                            entries: entries.clone(),
                            log_tail: Slot::NONE,
                            floor: self.floor,
                        };
                        ctx.send(from, Msg::Paxos(ok));
                    }
                    self.other.push((ctx.now(), other));
                    return;
                }
            };
            self.seen.push((ctx.now(), m.clone()));
            let MenciusMsg::Suggest { term, items, .. } = m else {
                return;
            };
            let first = self.suggests_seen().count() == 1;
            for (i, (delay, msg)) in self.script.iter().enumerate().filter(|_| first) {
                if *delay == SimDuration::ZERO {
                    ctx.send(from, msg.clone());
                } else {
                    ctx.set_timer(*delay, i as u64);
                }
            }
            if self.acks > 0 {
                self.acks -= 1;
                let ack = Ack {
                    term,
                    slots: items.iter().map(|(s, _)| s).collect(),
                };
                let ok = MenciusMsg::Notice {
                    coord: Coord {
                        ack: Some(ack),
                        ..self.ack_coord.clone()
                    },
                };
                ctx.send(from, Msg::Mencius(ok));
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<Msg>, token: u64) {
            let msg = self.script[token as usize].1.clone();
            ctx.send(ActorId(0), msg);
        }

        paxraft_sim::impl_actor_any!();
    }

    /// Replica 0 for real, `p1` and `p2` as replicas 1 (Ohio) and 2
    /// (Ireland), and a client of replica 0. Every respond pass of
    /// replica 0 is checked against the oracle.
    fn replica_among_puppets(p1: Puppet, p2: Puppet) -> (Simulation<Msg>, ActorId) {
        replica_among_puppets_with(p1, p2, |_| ())
    }

    /// The same with replica 0's configuration adjusted.
    fn replica_among_puppets_with(
        p1: Puppet,
        p2: Puppet,
        adjust: impl Fn(&mut ReplicaConfig),
    ) -> (Simulation<Msg>, ActorId) {
        replica_among(vec![p1, p2], adjust)
    }

    /// The same among any number of puppets, replicas 1, 2, … in order.
    fn replica_among(
        puppets: Vec<Puppet>,
        adjust: impl Fn(&mut ReplicaConfig),
    ) -> (Simulation<Msg>, ActorId) {
        let n = puppets.len() + 1;
        let mut puppets = puppets.into_iter();
        let (mut sim, _, client) = crate::testutil::cluster_with(n, |mut cfg| match cfg.id {
            NodeId(0) => {
                adjust(&mut cfg);
                Box::new(MenciusReplica::new(cfg))
            }
            _ => Box::new(puppets.next().expect("a puppet per peer")),
        });
        sim.actor_mut::<MenciusReplica>(ActorId(0))
            .rules
            .oracle_checked = Some((0, 0));
        (sim, client)
    }

    /// A header claiming that every sender-owned slot below `upto` not
    /// suggested so far is a no-op.
    fn skipped_below(upto: u64) -> Coord {
        Coord {
            from: Slot(1),
            watermark: Slot(upto),
            commits: Slots::new(),
            exec: Slot::NONE,
            ack: None,
        }
    }

    /// A revocation's `Prepare` at `ballot` over `owner`'s slots in
    /// `from..=through`.
    fn prepare(ballot: Term, owner: u32, from: u64, through: u64) -> Msg {
        let range = (Slot(from), Some((NodeId(owner), Slot(through))));
        Msg::Paxos(PaxosMsg::Prepare { ballot, range })
    }

    fn suggest_from(owner: u32, slots: &[u64], coord: Coord) -> MenciusMsg {
        let put = |s: u64| {
            let id = crate::kv::CmdId { client: 9, seq: s };
            (Slot(s), Command::put(id, 100 + s, vec![0; 8]))
        };
        MenciusMsg::Suggest {
            term: Term::encode(1, NodeId(owner), 3),
            items: slots.iter().map(|&s| put(s)).collect(),
            coord,
        }
    }

    /// The suggestion for slot 2 never arrives; the one for slot 5 says
    /// its range starts at 5. The receiver keeps slot 5's value but must
    /// not read slot 2 as skipped — execution blocks there — until a
    /// replay whose range starts at or below what it knows brings it.
    /// The replay need only reach what was heard beyond the gap: it ends
    /// at slot 5 (still uncommitted at its owner), and the bound moves
    /// to where the kept element ends.
    #[test]
    fn a_gap_in_a_peers_stream_infers_no_skip_and_the_replay_heals_it() {
        let later = Coord {
            from: Slot(5),
            ..skipped_below(8)
        };
        let replay = Coord {
            commits: Slots::from_iter([Slot(2)]),
            ..skipped_below(5)
        };
        let decision = MenciusMsg::Notice {
            coord: Coord {
                from: Slot(8),
                commits: Slots::from_iter([Slot(5)]),
                ..skipped_below(8)
            },
        };
        let p1 = Puppet::new(
            0,
            Coord::empty(Slot(2), Slot::NONE),
            vec![
                (SimDuration::ZERO, suggest_from(1, &[5], later)),
                (SimDuration::from_millis(300), suggest_from(1, &[2], replay)),
                (SimDuration::from_millis(500), decision),
            ],
        );
        let p2 = Puppet::new(usize::MAX, skipped_below(9), Vec::new());
        let (mut sim, client) = replica_among_puppets(p1, p2);
        sim.actor_mut::<TestClient>(client).enqueue_put(1);
        sim.run_until(SimTime::from_millis(300));
        let rep = sim.actor::<MenciusReplica>(ActorId(0));
        assert!(
            rep.rules.base.cells.get(Slot(5)).unwrap().cmd().is_some(),
            "slot 5's value stored"
        );
        assert_eq!(rep.rules.known_upto[1], Slot(1), "the gap moved nothing");
        assert_eq!(rep.decided_at(Slot(2)), None, "no skip inferred");
        assert_eq!(rep.exec_index(), Slot(1), "execution blocks at the gap");
        // The replay leaves Ohio 300 ms after the first suggestion.
        sim.run_until(SimTime::from_millis(500));
        let rep = sim.actor::<MenciusReplica>(ActorId(0));
        assert_eq!(rep.rules.known_upto[1], Slot(8), "joined what it kept");
        assert_eq!(rep.exec_index(), Slot(4), "slot 5 awaits its decision");
        sim.run_until(SimTime::from_millis(700));
        let rep = sim.actor::<MenciusReplica>(ActorId(0));
        assert_eq!(rep.exec_index(), Slot(6), "own slot 7 is still open");
        assert!(rep.kv().read_local(102).value_id().is_some());
        assert!(rep.kv().read_local(105).value_id().is_some());
    }

    /// What the owner sends a peer whose executed prefix stalled: its
    /// decided values above that prefix, with their decisions, under a
    /// range that starts right there and ends at its first uncommitted
    /// value — while the retransmission of that value, a subset by age,
    /// claims no range at all.
    #[test]
    fn replay_to_a_stalled_peer_claims_a_complete_range() {
        // Replica 1 acknowledges two suggestions, then falls silent;
        // replica 2 never does and reports an executed prefix of 0.
        let p1 = Puppet::new(2, skipped_below(1000), Vec::new());
        let hello = MenciusMsg::Notice {
            coord: skipped_below(1000),
        };
        let p2 = Puppet::new(
            0,
            Coord::empty(Slot(3), Slot::NONE),
            vec![(SimDuration::ZERO, hello)],
        );
        let (mut sim, client) = replica_among_puppets(p1, p2);
        for k in 0..3 {
            sim.actor_mut::<TestClient>(client).enqueue_put(k);
        }
        sim.run_until(SimTime::from_millis(1500));
        let rep = sim.actor::<MenciusReplica>(ActorId(0));
        assert_eq!(rep.exec_index(), Slot(6), "slots 1 and 4 ran, 7 is open");
        let p2 = sim.actor::<Puppet>(ActorId(2));
        let (items, coord) = p2
            .suggests_seen()
            .filter(|(_, c)| c.from == Slot(1))
            .last()
            .expect("replayed");
        let slots: Vec<Slot> = items.iter().map(|(s, _)| s).collect();
        assert_eq!(slots, [Slot(1), Slot(4)], "every decided value it holds");
        assert!(coord.commits.iter().eq(slots), "with its decision");
        assert_eq!(coord.watermark, Slot(7), "up to the uncommitted one");
        let retransmitted = p2
            .suggests_seen()
            .filter(|(items, _)| items.iter().next().is_some_and(|(s, _)| s == Slot(7)))
            .collect::<Vec<_>>();
        assert!(retransmitted.len() >= 2, "original + retransmission");
        let (_, again) = retransmitted.last().expect("checked");
        assert_eq!(again.from, again.watermark, "claims no range");
    }

    /// Replica 0 (Oregon) suggests its slots 1, 4 and 7 at 0, 1 and 2 ms
    /// and slot 10 at 57 ms. Ohio's puppet suggests its slot 2 ahead of
    /// its first ack, slot 5 three milliseconds later and slot 8 183 ms
    /// later, all below replica 0's watermark; Ireland's only acks.
    /// Returns when Ohio sent slot 8.
    fn acks_and_decisions_on_two_links() -> (Simulation<Msg>, SimTime) {
        let own = |from: u64, upto: u64| Coord {
            from: Slot(from),
            ..skipped_below(upto)
        };
        let ms = SimDuration::from_millis;
        let p1 = Puppet::new(
            usize::MAX,
            Coord::empty(Slot(2), Slot::NONE),
            vec![
                (ms(0), suggest_from(1, &[2], own(2, 5))),
                (ms(3), suggest_from(1, &[5], own(5, 8))),
                (ms(183), suggest_from(1, &[8], own(8, 11))),
            ],
        );
        let p2 = Puppet::new(usize::MAX, Coord::empty(Slot(3), Slot::NONE), Vec::new());
        let (mut sim, _) = replica_among_puppets(p1, p2);
        for (seq, at) in [(1, 0), (2, 1), (3, 2), (4, 57)] {
            let cmd = Command::put(crate::kv::CmdId { client: 0, seq }, seq, vec![0; 8]);
            let request = Msg::Client(crate::msg::ClientMsg::Request { cmd });
            sim.send_external(ActorId(0), request, ms(at));
        }
        sim.run_until(SimTime::from_millis(400));
        let first = sim.actor::<Puppet>(ActorId(1)).seen[0].0;
        (sim, first + ms(183))
    }

    /// What a puppet saw replica 0 send it on the stream, in order:
    /// `(at, kind, acked, decided)`.
    fn stream_seen_by(
        sim: &Simulation<Msg>,
        puppet: usize,
    ) -> Vec<(SimTime, &str, Vec<Slot>, Vec<Slot>)> {
        let slots = |c: &Coord| {
            let acked = c.ack.as_ref().map(|a| a.slots.iter().collect());
            (acked.unwrap_or_default(), c.commits.iter().collect())
        };
        let seen = &sim.actor::<Puppet>(ActorId(puppet)).seen;
        let row = |(at, m): &(SimTime, MenciusMsg)| {
            let (kind, (acked, decided)) = match m {
                MenciusMsg::Suggest { coord, .. } => ("suggest", slots(coord)),
                MenciusMsg::Notice { coord } => ("notice", slots(coord)),
                MenciusMsg::Commit { slots } => ("commit", (vec![], slots.iter().collect())),
                _ => return None,
            };
            Some((*at, kind, acked, decided))
        };
        seen.iter().filter_map(row).collect()
    }

    /// An ack or a decision queued on a link that carried something a
    /// moment ago leaves on the next message to that peer; on a link idle
    /// for longer than it may wait it leaves at once, the ack in a notice
    /// of its own, the decision in a `Commit`.
    #[test]
    fn decisions_ride_a_busy_link_and_leave_an_idle_one_at_once() {
        let (sim, slot_8_sent) = acks_and_decisions_on_two_links();
        let (s, none) = (
            |x: &[u64]| x.iter().map(|&x| Slot(x)).collect::<Vec<_>>(),
            vec![],
        );
        let to_ohio = stream_seen_by(&sim, 1);
        let carried: Vec<_> = to_ohio
            .iter()
            .filter(|(_, _, acked, decided)| !acked.is_empty() || !decided.is_empty())
            .take(3)
            .map(|(_, kind, acked, decided)| (*kind, acked.clone(), decided.clone()))
            .collect();
        assert_eq!(
            carried,
            [
                ("notice", s(&[2]), none.clone()),
                ("suggest", s(&[5]), s(&[1, 4, 7])),
                ("suggest", none.clone(), s(&[1, 4, 7])),
            ],
            "slot 2's ack left alone on a link idle since slot 7's suggestion; \
             slot 5's, on a link busy since then, rode slot 10's suggestion \
             with the decisions (the third is the replay to a stalled peer)"
        );
        // Ireland was sent nothing since slot 7 when slot 1 was chosen.
        let to_ireland = stream_seen_by(&sim, 2);
        assert_eq!(
            (to_ireland[3].1, &to_ireland[3].3),
            ("commit", &s(&[1])),
            "the idle link got the decision on its own"
        );
        assert_eq!(
            to_ireland[4].3,
            s(&[4, 7]),
            "and slot 10's suggestion the rest"
        );
        // Slot 8 reaches replica 0 some 30 ms after the last tick sent
        // Ohio anything, past the patience (an eighth of the 52 ms round
        // trip): its ack leaves in that handler, one round trip after
        // Ohio sent the slot.
        let (at, kind, ..) = to_ohio
            .iter()
            .find(|(_, _, acked, _)| acked == &s(&[8]))
            .expect("acknowledged");
        let rtt = SimDuration::from_millis(52);
        assert_eq!(*kind, "notice");
        assert!(
            at.since(slot_8_sent) < rtt + SimDuration::from_millis(2),
            "sent as the suggestion arrived: {}",
            at.since(slot_8_sent)
        );
    }

    /// `acks_carried` and `acks_alone` count what the owners saw: in this
    /// run the acks in a `Suggest`, and the acks in a notice sent for
    /// nothing else (claiming no slot, carrying no decision).
    #[test]
    fn the_ack_counters_are_what_the_owners_saw() {
        let (sim, _) = acks_and_decisions_on_two_links();
        let (mut carried, mut alone) = (0, 0);
        for puppet in [1, 2] {
            for (_, m) in &sim.actor::<Puppet>(ActorId(puppet)).seen {
                let (MenciusMsg::Suggest { coord, .. } | MenciusMsg::Notice { coord }) = m else {
                    continue;
                };
                if coord.ack.is_none() {
                    continue;
                }
                let bare = matches!(m, MenciusMsg::Notice { .. })
                    && coord.from == coord.watermark
                    && coord.commits.is_empty();
                *(if bare { &mut alone } else { &mut carried }) += 1;
            }
        }
        assert_eq!(
            (carried, alone),
            (1, 2),
            "slot 5's ack rode; 2's and 8's went alone"
        );
        let sample = sim.actor::<MenciusReplica>(ActorId(0)).metric_sample();
        assert_eq!(sample.get("acks_carried"), f64::from(carried));
        assert_eq!(sample.get("acks_alone"), f64::from(alone));
    }

    /// The claim-order trap: replica 0 holds its ack of Ohio's slot 5
    /// when it proposes slot 10. The ack must ride slot 10's own
    /// `Suggest`, or claim nothing: an element stamped after the round
    /// moved the watermark but ahead of its `Suggest` claims slot 10 as
    /// a no-op before its value leaves, and a peer executing in that gap
    /// applies a no-op where the owner applies the write. So on every
    /// link, no slot of replica 0 is accounted for without its value
    /// that a later message brings a value for.
    #[test]
    fn a_held_ack_rides_the_round_proposed_while_it_waits_and_claims_none_of_it() {
        let (sim, _) = acks_and_decisions_on_two_links();
        for puppet in [1, 2] {
            let mut valued = BTreeSet::new();
            let mut read_as_skipped = BTreeSet::new();
            for (_, m) in &sim.actor::<Puppet>(ActorId(puppet)).seen {
                let (items, coord) = match m {
                    MenciusMsg::Suggest { items, coord, .. } => (items.clone(), coord),
                    MenciusMsg::Notice { coord } => (Run::default(), coord),
                    _ => continue,
                };
                for (s, _) in items.iter() {
                    assert!(
                        !read_as_skipped.contains(&s),
                        "slot {s:?} was read as skipped"
                    );
                    valued.insert(s);
                }
                let mut s = owned_at_or_after(NodeId(0), coord.from, 3);
                while s < coord.watermark {
                    if !valued.contains(&s) {
                        read_as_skipped.insert(s);
                    }
                    s = Slot(s.0 + 3);
                }
            }
            assert!(valued.contains(&Slot(10)), "slot 10 was suggested");
        }
        let to_ohio = stream_seen_by(&sim, 1);
        let round = to_ohio.iter().find(|(_, _, acked, _)| acked == &[Slot(5)]);
        assert_eq!(
            round.map(|r| r.1),
            Some("suggest"),
            "the ack rode the round"
        );
    }

    /// Every message inside a 20 ms window is lost — among them the
    /// owner's commit decision for slot 1, on whatever it rode. The
    /// peers hold the value, cannot execute it, report a stalled prefix,
    /// and the owner's replay brings the decision again.
    #[test]
    fn a_dropped_decision_is_recovered_by_the_stalled_peer_replay() {
        let (mut sim, replicas, clients) = mencius_cluster(3);
        sim.actor_mut::<TestClient>(clients[0]).enqueue_put(7);
        // The first ack (Ohio) reaches replica 0 at about 63 ms.
        sim.set_drop_rate_at(1.0, SimTime::from_millis(55));
        sim.set_drop_rate_at(0.0, SimTime::from_millis(75));
        sim.run_until(SimTime::from_millis(95));
        let owner = sim.actor::<MenciusReplica>(replicas[0]);
        assert_eq!(owner.decided_at(Slot(1)).map(|c| c.id.seq), Some(1));
        for &r in &replicas[1..] {
            let rep = sim.actor::<MenciusReplica>(r);
            assert!(
                rep.rules.base.cells.get(Slot(1)).unwrap().cmd().is_some(),
                "value arrived"
            );
            assert_eq!(rep.decided_at(Slot(1)), None, "decision was lost");
        }
        sim.run_until(SimTime::from_millis(600));
        for &r in &replicas {
            let rep = sim.actor::<MenciusReplica>(r);
            assert!(rep.exec_index() >= Slot(1), "replica {r:?} executed");
            assert!(rep.kv().read_local(7).value_id().is_some());
        }
    }

    /// One acceptor refusing a suggestion (it promised the slot to a
    /// revocation that never completed) decides nothing: the slot stays
    /// proposed and commits, with its value, through the rest of the
    /// quorum.
    #[test]
    fn a_refused_suggestion_still_commits_through_the_rest_of_the_quorum() {
        let refusal = MenciusMsg::SuggestReject {
            slots: vec![Slot(1)],
            term: Term::encode(2, NodeId(1), 3),
        };
        let idle = MenciusMsg::Notice {
            coord: skipped_below(1000),
        };
        let p1 = Puppet::new(
            0,
            Coord::empty(Slot(2), Slot::NONE),
            vec![(SimDuration::ZERO, refusal), (SimDuration::ZERO, idle)],
        );
        let p2 = Puppet::new(usize::MAX, skipped_below(1000), Vec::new());
        let (mut sim, client) = replica_among_puppets(p1, p2);
        sim.actor_mut::<TestClient>(client).enqueue_put(1);
        sim.run_until(SimTime::from_millis(400));
        let rep = sim.actor::<MenciusReplica>(ActorId(0));
        let decided = rep.decided_at(Slot(1)).expect("decided");
        assert_eq!(decided.id.seq, 1, "the suggested value, not a no-op");
        assert!(rep.exec_index() >= Slot(1));
        assert_eq!(sim.actor::<TestClient>(client).replies.len(), 1);
    }

    /// An owner that missed the revocation of its slot suggests in it;
    /// the acceptor holding the decision refuses — and tells it.
    #[test]
    fn a_refusal_of_a_decided_slot_carries_the_decision() {
        let revoked = MenciusMsg::RevokeCommit {
            term: Term::encode(3, NodeId(2), 3),
            items: [(Slot(2), Command::noop())].into_iter().collect(),
        };
        let late = Coord {
            from: Slot(2),
            ..skipped_below(5)
        };
        let p1 = Puppet::new(
            0,
            Coord::empty(Slot(2), Slot::NONE),
            vec![(SimDuration::from_millis(100), suggest_from(1, &[2], late))],
        );
        let p2 = Puppet::new(
            0,
            Coord::empty(Slot(3), Slot::NONE),
            vec![(SimDuration::ZERO, revoked)],
        );
        let (mut sim, client) = replica_among_puppets(p1, p2);
        sim.actor_mut::<TestClient>(client).enqueue_put(1);
        sim.run_until(SimTime::from_millis(300));
        let told = sim
            .actor::<Puppet>(ActorId(1))
            .seen
            .iter()
            .any(|(_, m)| match m {
                MenciusMsg::RevokeCommit { items, .. } => {
                    items.values().eq([(Slot(2), &Command::noop())])
                }
                _ => false,
            });
        assert!(told, "the owner learns its slot was decided a no-op");
        let rep = sim.actor::<MenciusReplica>(ActorId(0));
        assert_eq!(rep.decided_at(Slot(2)), Some(&Command::noop()));
    }

    /// A revocation no peer answers is retried at a fresh ballot after
    /// `revoke_timeout`, with durability off as with it on: both peers
    /// ack replica 0's first suggestion and then fall silent, so Ohio's
    /// slot 2 blocks execution and its revocation never gets a quorum.
    #[test]
    fn an_unanswered_revocation_is_retried_at_a_rising_term() {
        let p1 = Puppet::new(1, Coord::empty(Slot(2), Slot::NONE), Vec::new());
        let p2 = Puppet::new(1, Coord::empty(Slot(3), Slot::NONE), Vec::new());
        let (mut sim, client) = replica_among_puppets_with(p1, p2, |cfg| {
            cfg.mencius.revoke_timeout = SimDuration::from_secs(1);
        });
        sim.actor_mut::<TestClient>(client).enqueue_put(1);
        sim.run_until(SimTime::from_secs(6));
        assert_eq!(
            sim.actor::<MenciusReplica>(ActorId(0)).exec_index(),
            Slot(1)
        );
        let terms = sim.actor::<Puppet>(ActorId(1)).prepares_seen(NodeId(1));
        assert!(terms.len() >= 2, "revoked at {terms:?}");
        assert!(terms.windows(2).all(|w| w[0] < w[1]), "{terms:?}");
    }

    /// Ohio's puppet suggests `Put 102` in its slot 2 at `Term(4)` and
    /// falls silent. Ireland's acks everything, has replica 0 promise
    /// owner 1's slots 2 through 20 to a revocation at `Term(17)`, and
    /// answers every `Prepare` with a no-op accepted in slot 2 at 17.
    /// Replica 0 revokes owner 1 after a second of its silence.
    fn owner_1_promised_away_at_17() -> Simulation<Msg> {
        let slot_2 = Coord {
            from: Slot(2),
            ..skipped_below(5)
        };
        let script = vec![(SimDuration::ZERO, suggest_from(1, &[2], slot_2))];
        let p1 = Puppet::new(0, Coord::empty(Slot(2), Slot::NONE), script);
        let p2 = Puppet::new(usize::MAX, skipped_below(1000), Vec::new())
            .also(SimDuration::ZERO, prepare(Term(17), 1, 2, 20))
            .answering_prepares(vec![(Slot(2), Term(17), Command::noop())], Slot::NONE);
        let (mut sim, client) = replica_among_puppets_with(p1, p2, |cfg| {
            cfg.mencius.revoke_timeout = SimDuration::from_secs(1);
        });
        sim.actor_mut::<TestClient>(client).enqueue_put(1);
        sim.run_until(SimTime::from_secs(2));
        sim
    }

    /// A revocation's own phase-1 report gives the ballot a value was
    /// accepted at, not the promise made over it since: replica 0 holds
    /// `Put 102` at 4 under a promise at 17, so Ireland's no-op accepted
    /// at 17 is the value its revocation of owner 1 decides.
    #[test]
    fn a_revocation_reports_the_accepted_ballot_not_the_promise() {
        let sim = owner_1_promised_away_at_17();
        let rep = sim.actor::<MenciusReplica>(ActorId(0));
        assert_eq!(rep.decided_at(Slot(2)), Some(&Command::noop()));
    }

    /// A promise bounds the promiser: replica 0 promised owner 1's slots
    /// at 17, so its own revocation of owner 1 runs above 17.
    #[test]
    fn a_revocation_runs_above_every_promise_its_revoker_gave() {
        let sim = owner_1_promised_away_at_17();
        let terms = sim.actor::<Puppet>(ActorId(1)).prepares_seen(NodeId(1));
        assert!(!terms.is_empty(), "owner 1 was revoked");
        assert!(terms.iter().all(|&t| t > Term(17)), "revoked at {terms:?}");
    }

    /// Replica 0 revokes owner 1, silent since it acked replica 0's first
    /// suggestion, and both puppets grant the revocation's phase 1.
    /// Phase 1 decides nothing: with neither puppet acking the round that
    /// follows, owner 1's slot 2 stays undecided, execution stays behind
    /// it and no `RevokeCommit` leaves. With Ireland's puppet acking, the
    /// slot is decided a no-op, and the decision leaves a round trip after
    /// the round did: on the ack.
    #[test]
    fn a_revocation_decides_nothing_until_a_quorum_accepts_at_its_ballot() {
        let run = |acks| {
            let p1 = Puppet::new(1, Coord::empty(Slot(2), Slot::NONE), Vec::new());
            let p2 = Puppet::new(acks, skipped_below(1000), Vec::new());
            let grant = |p: Puppet| p.answering_prepares(vec![], Slot::NONE);
            let (p1, p2) = (grant(p1), grant(p2));
            let (mut sim, client) = replica_among_puppets_with(p1, p2, |cfg| {
                cfg.mencius.revoke_timeout = SimDuration::from_secs(1);
            });
            sim.actor_mut::<TestClient>(client).enqueue_put(1);
            sim.run_until(SimTime::from_millis(1800));
            sim
        };
        // When Ireland's puppet saw the round over slot 2, and the decision.
        let seen = |sim: &Simulation<Msg>| {
            let seen = sim.actor::<Puppet>(ActorId(2)).seen.iter();
            let at = |want: fn(&MenciusMsg) -> bool| seen.clone().find(|(_, m)| want(m));
            let round = at(
                |m| matches!(m, MenciusMsg::Suggest { items, .. } if items.iter().any(|(s, _)| s == Slot(2))),
            );
            let decision = at(|m| matches!(m, MenciusMsg::RevokeCommit { .. }));
            (round.map(|(t, _)| *t), decision.map(|(t, _)| *t))
        };
        let unacked = run(1);
        let rep = unacked.actor::<MenciusReplica>(ActorId(0));
        assert_eq!(rep.decided_at(Slot(2)), None, "phase 1 decides nothing");
        assert_eq!(rep.exec_index(), Slot(1));
        let (round, decision) = seen(&unacked);
        assert!(
            round.is_some() && decision.is_none(),
            "{round:?} {decision:?}"
        );
        let acked = run(usize::MAX);
        let rep = acked.actor::<MenciusReplica>(ActorId(0));
        assert_eq!(rep.decided_at(Slot(2)), Some(&Command::noop()));
        let (Some(round), Some(decision)) = seen(&acked) else {
            panic!("round and decision seen");
        };
        let rtt = SimDuration::from_millis(100);
        assert!(decision.since(round) > rtt, "{round:?} {decision:?}");
    }

    /// Replica 0 executes and compacts behind its puppets' acks (a
    /// checkpoint every 16 slots). Then Ireland's puppet asks it to promise
    /// owner 1's slots from 2, below its floor: the `PrepareOk` reports
    /// the floor, and the checkpoint follows it in answer. The puppets
    /// report an executed prefix at or above replica 0's, so the
    /// stalled-peer check ships nothing before.
    #[test]
    fn an_acceptor_asked_below_its_floor_ships_its_checkpoint_and_reports_it() {
        let level = || Coord {
            exec: Slot(1000),
            ..skipped_below(1000)
        };
        let asked = SimDuration::from_secs(3);
        let p1 = Puppet::new(usize::MAX, level(), Vec::new());
        let p2 =
            Puppet::new(usize::MAX, level(), Vec::new()).also(asked, prepare(Term(17), 1, 2, 40));
        let (mut sim, client) = replica_among_puppets_with(p1, p2, |cfg| {
            cfg.snapshot = crate::snapshot::SnapshotConfig::every(16);
        });
        for key in 0..20 {
            sim.actor_mut::<TestClient>(client).enqueue_put(key);
        }
        sim.run_until(SimTime::from_secs(4));
        let floor = sim.actor::<MenciusReplica>(ActorId(0)).rules.base.floor();
        assert!(floor >= Slot(2), "compacted past slot 2: {floor:?}");
        let other = &sim.actor::<Puppet>(ActorId(2)).other;
        let reported = other.iter().find_map(|(at, m)| match m {
            Msg::Paxos(PaxosMsg::PrepareOk { ballot, floor, .. }) => Some((*at, *ballot, *floor)),
            _ => None,
        });
        let Some((answered, ballot, reported)) = reported else {
            panic!("the Prepare is answered");
        };
        assert_eq!((ballot, reported), (Term(17), floor));
        let chunks: Vec<SimTime> = (other.iter())
            .filter(|(_, m)| matches!(m, Msg::Engine(EngineMsg::SnapshotChunk { .. })))
            .map(|(at, _)| *at)
            .collect();
        assert!(!chunks.is_empty(), "the checkpoint answers the Prepare");
        assert!(chunks.iter().all(|&at| at >= answered), "{chunks:?}");
    }

    /// Replica 0 revokes owner 1, silent since it acked replica 0's first
    /// suggestion, and Ireland's puppet grants with a floor at slot 8. The
    /// revocation's round leaves owner 1's slots 2, 5 and 8 alone — chosen
    /// at that acceptor, whose checkpoint is on its way — and starts at 11.
    #[test]
    fn a_revocation_fills_nothing_at_or_below_a_reported_floor() {
        let p1 = Puppet::new(1, Coord::empty(Slot(2), Slot::NONE), Vec::new());
        let p2 = Puppet::new(usize::MAX, skipped_below(1000), Vec::new())
            .answering_prepares(vec![(Slot(5), Term(4), Command::noop())], Slot(8));
        let (mut sim, client) = replica_among_puppets_with(p1, p2, |cfg| {
            cfg.mencius.revoke_timeout = SimDuration::from_secs(1);
        });
        sim.actor_mut::<TestClient>(client).enqueue_put(1);
        sim.run_until(SimTime::from_millis(1800));
        let revoked = (sim.actor::<Puppet>(ActorId(2)).suggests_seen())
            .map(|(items, _)| items)
            .find(|items| items.iter().any(|(s, _)| s == Slot(11)));
        let revoked = revoked.expect("the revocation's round");
        let slots: Vec<Slot> = revoked.iter().map(|(s, _)| s).collect();
        assert_eq!(slots[0], Slot(11), "{slots:?}");
        let owner = |s: &Slot| MenciusReplica::owner_of(*s, 3) == NodeId(1);
        assert!(slots.iter().all(owner), "{slots:?}");
    }

    /// Replica 0 revokes owner 1, silent since it acked replica 0's first
    /// suggestion, and no peer answers the `Prepare`. Ireland's puppet then
    /// ships a checkpoint through slot 5: installed, it ends the
    /// revocation in flight, whose range now lies partly below the floor
    /// (`maybe_revoke` retries).
    #[test]
    fn a_checkpoint_installed_mid_revocation_ends_it() {
        let checkpoint = Snapshot {
            last_slot: Slot(5),
            last_term: Term::ZERO,
            kv: Default::default(),
        };
        let data = checkpoint.encode();
        let chunk = EngineMsg::SnapshotChunk {
            group: 0,
            seal: Term::ZERO,
            last_slot: checkpoint.last_slot,
            last_term: Term::ZERO,
            offset: 0,
            total: data.len(),
            header_bytes: 0,
            data,
        };
        let p1 = Puppet::new(1, Coord::empty(Slot(2), Slot::NONE), Vec::new());
        let p2 = Puppet::new(usize::MAX, skipped_below(1000), Vec::new())
            .also(SimDuration::from_millis(1300), Msg::Engine(chunk));
        let (mut sim, client) = replica_among_puppets_with(p1, p2, |cfg| {
            cfg.mencius.revoke_timeout = SimDuration::from_secs(1);
        });
        sim.actor_mut::<TestClient>(client).enqueue_put(1);
        sim.run_until(SimTime::from_millis(1250));
        let rep = sim.actor::<MenciusReplica>(ActorId(0));
        assert!(rep.rules.revoke.is_some(), "owner 1 is being revoked");
        assert_eq!(rep.exec_index(), Slot(1));
        sim.run_until(SimTime::from_millis(1800));
        let rep = sim.actor::<MenciusReplica>(ActorId(0));
        assert_eq!(rep.core.snap_stats.snapshots_installed, 1);
        assert!(rep.exec_index() >= Slot(5));
        assert!(rep.rules.revoke.is_none(), "the install ended it");
    }

    /// Replica 0 suggests two writes, own slots 1 and 6, that nobody acks;
    /// Ohio's puppet then decides slot 6 a no-op at `Term(17)`, a
    /// revocation's decision. When the two slots are re-sent, each at the
    /// term it holds, a peer told slot 6 is decided must have been sent
    /// its value at 17 in that message or before: a learner holding the
    /// write would commit it on a ballot-free decision.
    #[test]
    fn a_decision_never_reaches_a_peer_ahead_of_its_value() {
        let (t, ms) = (Term(17), SimDuration::from_millis);
        let decided = MenciusMsg::RevokeCommit {
            term: t,
            items: [(Slot(6), Command::noop())].into_iter().collect(),
        };
        let quiet = |o: u64| Coord::empty(Slot(o + 1), Slot::NONE);
        let mut puppets = vec![Puppet::new(0, quiet(1), vec![(ms(100), decided)])];
        puppets.extend((2..5).map(|o| Puppet::new(0, quiet(o), Vec::new())));
        let (mut sim, _) = replica_among(puppets, |_| ());
        for seq in 1..=2 {
            let id = crate::kv::CmdId { client: 0, seq };
            let cmd = Command::put(id, seq, vec![0; 8]);
            sim.send_external(
                ActorId(0),
                Msg::Client(crate::msg::ClientMsg::Request { cmd }),
                SimDuration::ZERO,
            );
        }
        sim.run_until(SimTime::from_millis(1500));
        let rep = sim.actor::<MenciusReplica>(ActorId(0));
        assert_eq!(rep.decided_at(Slot(6)), Some(&Command::noop()));
        for puppet in 1..5 {
            let seen = &sim.actor::<Puppet>(ActorId(puppet)).seen;
            let told = |m: &MenciusMsg| match m {
                MenciusMsg::Suggest { coord, .. } | MenciusMsg::Notice { coord } => {
                    coord.commits.contains(Slot(6))
                }
                MenciusMsg::Commit { slots } => slots.contains(Slot(6)),
                _ => false,
            };
            let valued = |m: &MenciusMsg| match m {
                MenciusMsg::Suggest { term, items, .. } => {
                    *term == t && items.iter().any(|(s, _)| s == Slot(6))
                }
                _ => false,
            };
            let first = seen.iter().position(|(_, m)| told(m));
            let first = first.unwrap_or_else(|| panic!("puppet {puppet} is told slot 6"));
            let before = seen[..=first].iter().any(|(_, m)| valued(m));
            assert!(
                before,
                "puppet {puppet}: decided at {:?} ahead of its value",
                seen[first].0
            );
        }
    }

    /// An owner that promised its own range to a revoker at 17 re-sends
    /// its undecided slot 1 at the term it proposed it at, 3: ballot 17
    /// is the revoker's, and two proposers at one ballot is what ballot
    /// ownership rules out.
    #[test]
    fn an_undecided_own_slot_is_re_sent_at_the_term_it_was_proposed_at() {
        let p1 = Puppet::new(0, Coord::empty(Slot(2), Slot::NONE), Vec::new());
        let p2 = Puppet::new(0, Coord::empty(Slot(3), Slot::NONE), Vec::new())
            .also(SimDuration::ZERO, prepare(Term(17), 0, 1, 10));
        let (mut sim, client) = replica_among_puppets(p1, p2);
        sim.actor_mut::<TestClient>(client).enqueue_put(1);
        sim.run_until(SimTime::from_secs(2));
        let sent: Vec<(SimTime, Term)> = (sim.actor::<Puppet>(ActorId(1)).seen.iter())
            .filter_map(|(at, m)| match m {
                MenciusMsg::Suggest { term, items, .. }
                    if items.iter().any(|(s, _)| s == Slot(1)) =>
                {
                    Some((*at, *term))
                }
                _ => None,
            })
            .collect();
        assert!(sent.len() >= 3, "the suggestion and its re-sends: {sent:?}");
        assert!(sent.iter().all(|&(_, t)| t == Term(3)), "{sent:?}");
    }

    fn notice(from: u64, upto: u64, commits: &[u64]) -> MenciusMsg {
        MenciusMsg::Notice {
            coord: Coord {
                from: Slot(from),
                commits: commits.iter().map(|&s| Slot(s)).collect(),
                ..skipped_below(upto)
            },
        }
    }

    /// Five replicas, a client each hammering three keys with writes and
    /// reads, 10 % of all messages lost, checkpoints every 64 slots, group
    /// commit on a 1 ms device and a crash-restart in the middle: at every
    /// respond pass of every replica — the ones that return at once
    /// included — the slots answered are exactly the ones the rule as
    /// first written (coverage per peer per slot, conflicts read off the
    /// whole retained history) says are ready, in the same order.
    #[test]
    fn every_respond_pass_answers_what_the_full_history_rule_would() {
        const OPS: usize = 40;
        let durability = crate::config::DurabilityConfig::group_commit(
            SimDuration::from_millis(1),
            8,
            SimDuration::from_millis(2),
        );
        let (mut sim, replicas, client) = crate::testutil::cluster_with_seed(5, 23, |mut cfg| {
            cfg.mencius.revoke_timeout = SimDuration::from_secs(2);
            cfg.snapshot = crate::snapshot::SnapshotConfig::every(64);
            cfg.durability = durability.clone();
            Box::new(MenciusReplica::new(cfg))
        });
        sim.set_disk_config(durability.disk_config());
        let mut clients = vec![client];
        for i in 1..5 {
            let c = TestClient::new(i as u32, replicas[i]);
            clients.push(sim.add_actor(region_of(i), Box::new(c)));
        }
        for (i, &c) in clients.iter().enumerate() {
            let script = sim.actor_mut::<TestClient>(c);
            for op in 0..OPS {
                match (op + i) % 3 {
                    0 => script.enqueue_get((op % 3) as u64),
                    _ => script.enqueue_put((op % 3) as u64),
                }
            }
        }
        for &r in &replicas {
            sim.actor_mut::<MenciusReplica>(r).rules.oracle_checked = Some((0, 0));
        }
        sim.set_drop_rate_at(0.1, SimTime::ZERO);
        sim.crash_at(replicas[2], SimTime::from_secs(5));
        sim.restart_at(replicas[2], SimTime::from_secs(6));
        let done = drive_until(&mut sim, SimTime::from_secs(900), |sim| {
            let replies = |&c| sim.actor::<TestClient>(c).replies.len();
            clients.iter().map(replies).sum::<usize>() == 5 * OPS
        });
        assert!(done, "every client was answered every operation");
        for &r in &replicas {
            let rep = sim.actor::<MenciusReplica>(r);
            let (passes, answered) = rep.rules.oracle_checked.expect("set above");
            assert!(
                passes > 500 && answered >= OPS as u64,
                "replica {r:?}: {passes} passes checked, {answered} slots answered"
            );
            assert!(rep.core.snap_stats.compactions > 0, "{r:?} checkpointed");
        }
    }

    /// Every write the replica's conflict index holds, as `(key, slot)`.
    fn indexed_writes(rep: &MenciusReplica) -> std::collections::BTreeSet<(u64, u64)> {
        let index = rep.core.conflicts.as_deref().expect("Mencius keeps one");
        index.indexed_writes()
    }

    /// A revocation decides a no-op over a slot that held `Put k` here.
    /// The slot leaves the conflict index right then — execution is still
    /// blocked below it — and a later own write to `k` is answered once
    /// the no-op has executed.
    #[test]
    fn a_value_replaced_by_a_revocation_leaves_the_conflict_index() {
        // Replica 1's suggestion for its slot 5 arrives beyond a gap (its
        // slot 2 is unaccounted for) and moves replica 0's next own slot
        // to 7, where the client's write to the same key lands.
        let beyond_gap = Coord {
            from: Slot(5),
            ..skipped_below(8)
        };
        let revoked = MenciusMsg::RevokeCommit {
            term: Term::encode(3, NodeId(2), 3),
            items: [(Slot(5), Command::noop())].into_iter().collect(),
        };
        let p1 = Puppet::new(
            usize::MAX,
            Coord::empty(Slot(2), Slot::NONE),
            vec![
                (SimDuration::ZERO, suggest_from(1, &[5], beyond_gap)),
                (SimDuration::from_millis(600), notice(1, 5, &[])),
            ],
        );
        let p2 = Puppet::new(
            usize::MAX,
            skipped_below(1000),
            vec![(SimDuration::from_millis(400), revoked)],
        );
        let (mut sim, client) = replica_among_puppets(p1, p2);
        sim.actor_mut::<TestClient>(client).enqueue_put(1);
        sim.actor_mut::<TestClient>(client).enqueue_put(105);
        sim.run_until(SimTime::from_millis(350));
        let rep = sim.actor::<MenciusReplica>(ActorId(0));
        assert_eq!(sim.actor::<TestClient>(client).replies.len(), 1);
        assert!(
            rep.rules.base.committed(Slot(7)),
            "the write to 105 is decided"
        );
        let indexed = indexed_writes(rep);
        assert!(indexed.contains(&(105, 5)));
        assert!(indexed.contains(&(105, 7)));
        // The revocation's decision reaches replica 0 (Ireland is 62 ms
        // away; the script clock started when its first suggestion landed).
        sim.run_until(SimTime::from_millis(600));
        let rep = sim.actor::<MenciusReplica>(ActorId(0));
        assert_eq!(rep.decided_at(Slot(5)), Some(&Command::noop()));
        assert_eq!(rep.exec_index(), Slot(1), "slot 2 still blocks execution");
        let indexed = indexed_writes(rep);
        assert!(!indexed.contains(&(105, 5)), "un-indexed");
        assert!(indexed.contains(&(105, 7)));
        assert_eq!(sim.actor::<TestClient>(client).replies.len(), 1);
        // Replica 1 accounts for its slot 2: the prefix runs through the
        // no-op and the write behind it.
        sim.run_until(SimTime::from_millis(900));
        let rep = sim.actor::<MenciusReplica>(ActorId(0));
        assert_eq!(rep.exec_index(), Slot(7));
        assert_eq!(sim.actor::<TestClient>(client).replies.len(), 2);
        assert!(indexed_writes(rep).is_empty(), "nothing above the prefix");
    }

    /// A round replica 0 cut yields what the table held at the cut,
    /// after the table moved on under it: a revocation decides a no-op
    /// over the write in slot 1 while both peers hold the round that
    /// suggested it, and a crash before the first fsync drops every value
    /// the rounds carry. Every round — the five writes, the first one's
    /// re-proposal, the retransmissions (one round per term) and the
    /// replays of the decided slot 1 to the stalled peers — is a view of
    /// the table, read after all of that.
    #[test]
    fn a_round_in_flight_yields_what_it_was_cut_over_through_a_revocation_and_a_crash() {
        let revoked = MenciusMsg::RevokeCommit {
            term: Term::encode(3, NodeId(2), 3),
            items: [(Slot(1), Command::noop())].into_iter().collect(),
        };
        let script = vec![(SimDuration::from_millis(50), revoked)];
        let p1 = Puppet::new(0, skipped_below(1000), script);
        let p2 = Puppet::new(0, skipped_below(1000), Vec::new());
        let durability = crate::config::DurabilityConfig::group_commit(
            SimDuration::from_secs(1),
            64,
            SimDuration::from_millis(1),
        );
        let (mut sim, client) = replica_among_puppets_with(p1, p2, |cfg| {
            cfg.durability = durability.clone();
        });
        sim.set_disk_config(durability.disk_config());
        let id = sim.actor::<TestClient>(client).client_id;
        let put = |seq| Command::put(crate::kv::CmdId { client: id, seq }, seq, vec![0; 8]);
        for seq in 1..=5 {
            let request = Msg::Client(crate::msg::ClientMsg::Request { cmd: put(seq) });
            sim.send_external(ActorId(0), request, SimDuration::from_millis(10));
        }
        let table = |sim: &Simulation<Msg>, slot| {
            let rep = sim.actor::<MenciusReplica>(ActorId(0));
            rep.rules
                .base
                .cells
                .get(Slot(slot))
                .and_then(Cell::cmd)
                .cloned()
        };
        let ((), cuts) = recording::<Cell, _>(|| {
            sim.run_until(SimTime::from_millis(700));
            assert_eq!(table(&sim, 1), Some(Command::noop()), "decided a no-op");
            assert_eq!(table(&sim, 16), Some(put(1)), "re-proposed");
            sim.crash_at(ActorId(0), SimTime::from_millis(750));
            sim.restart_at(ActorId(0), SimTime::from_millis(800));
            sim.run_until(SimTime::from_millis(900));
            assert_eq!(table(&sim, 4), None, "the crash dropped the value");
        });
        assert!(
            cuts.iter().all(|cut| cut.check(|c| c.cmd().cloned())),
            "all views"
        );
        let holds = |slot, cmd: &Command| {
            let mut held = cuts.iter().flat_map(|cut| cut.run.values());
            held.any(|(s, c)| s == Slot(slot) && c == cmd)
        };
        assert!(holds(1, &put(1)), "a round keeps the write");
        assert!(holds(4, &put(2)), "and the value the crash dropped");
        let cut = |slots: &[u64]| {
            let held =
                |cut: &&Cut<Cell>| cut.held.iter().map(|(s, _)| s.0).eq(slots.iter().copied());
            cuts.iter().find(held).is_some()
        };
        assert!(
            cut(&[1]) && cut(&[16]) && cut(&[4, 7, 10, 13]),
            "the write, its re-proposal and a retransmission"
        );
    }

    /// Which slots an owner cuts into a round (that each yields what the
    /// table held at the cut is `engine/slots.rs`'s property), read after
    /// the run: over a seeded 5-replica WAN cluster with durability on,
    /// compaction every 64 slots, 5 % loss and an owner crash long enough
    /// for the others to revoke its slots, every round holds one owner's
    /// slots, in ascending order, accepted at one term (its message's),
    /// and is a view exactly when they are `n` apart within two blocks.
    /// Proposals, retransmissions and stalled-peer replays all occur; so
    /// do views and rounds copied for their gaps.
    #[test]
    fn every_round_is_one_owners_slots_at_one_term() {
        use crate::harness::{Cluster, ProtocolKind};
        use crate::snapshot::SnapshotConfig;
        let mut cluster = Cluster::builder(ProtocolKind::RaftStarMencius)
            .clients_per_region(10)
            .snapshot_config(SnapshotConfig::every(64))
            .durability_config(crate::config::DurabilityConfig::group_commit(
                SimDuration::from_millis(2),
                64,
                SimDuration::from_millis(1),
            ))
            .seed(42)
            .build();
        let replicas = cluster.replicas().to_vec();
        let n = replicas.len() as u64;
        let now = cluster.sim.now();
        cluster.sim.set_drop_rate_at(0.05, now);
        let at = |ms| now + SimDuration::from_millis(ms);
        cluster.sim.crash_at(replicas[3], at(1_000));
        cluster.sim.restart_at(replicas[3], at(4_500));
        let ((), cuts) = recording::<Cell, _>(|| cluster.advance(SimDuration::from_secs(7)));
        let (mut views, mut copies) = (0, 0);
        for cut in cuts.iter().filter(|cut| !cut.held.is_empty()) {
            assert_eq!(cut.stride, n);
            let (first, cell) = &cut.held[0];
            let one =
                |(s, c): &(Slot, Cell)| (s.0 - 1) % n == (first.0 - 1) % n && c.bal() == cell.bal();
            assert!(
                cut.held.iter().all(one),
                "one owner at one term: {:?}",
                cut.run
            );
            let view = cut.check(|c| c.cmd().cloned());
            views += usize::from(view);
            copies += usize::from(!view);
        }
        assert!(
            views > 500 && copies >= 5,
            "{} rounds: {views} views, {copies} copies",
            cuts.len()
        );
    }

    /// Replica 0 checkpoints, accepts replica 1's uncommitted write to a
    /// key in slot 11, commits its own write to that key behind it, and
    /// crashes. Restored from the checkpoint it re-executes, and the
    /// client's retry — a new own slot — is still held back by slot 11
    /// until that applies: `on_crash` rebuilt the index from what it kept.
    #[test]
    fn a_write_above_a_restored_checkpoint_still_holds_back_its_successor() {
        let held_back = Coord {
            from: Slot(11),
            ..skipped_below(14)
        };
        let p1 = Puppet::new(
            usize::MAX,
            skipped_below(11),
            vec![
                (SimDuration::from_secs(1), suggest_from(1, &[11], held_back)),
                (SimDuration::from_secs(7), notice(14, 20, &[])),
                (SimDuration::from_secs(9), notice(20, 20, &[11])),
            ],
        );
        let p2 = Puppet::new(usize::MAX, skipped_below(1000), Vec::new());
        let (mut sim, client) = replica_among_puppets_with(p1, p2, |cfg| {
            cfg.snapshot = crate::snapshot::SnapshotConfig::every(4);
            cfg.mencius.revoke_timeout = SimDuration::from_secs(60);
        });
        for key in 1..=4 {
            sim.actor_mut::<TestClient>(client).enqueue_put(key);
        }
        sim.run_until(SimTime::from_millis(1200));
        assert_eq!(sim.actor::<TestClient>(client).replies.len(), 4);
        // Slot 11 holds `Put 111`; the client writes the same key.
        sim.actor_mut::<TestClient>(client).enqueue_put(111);
        sim.run_until(SimTime::from_secs(2));
        let rep = sim.actor::<MenciusReplica>(ActorId(0));
        let floor = rep.core.stable_snap.as_ref().expect("checkpointed");
        assert!(floor.last_slot < Slot(11));
        assert_eq!(rep.exec_index(), Slot(10));
        let rules = &rep.rules;
        assert!(rules.base.committed(Slot(13)) && rules.await_respond.contains(&Slot(13)));
        sim.crash_at(ActorId(0), SimTime::from_millis(2000));
        sim.restart_at(ActorId(0), SimTime::from_millis(2100));
        // The client retries after 5 s; the retry lands in slot 16, is
        // decided, and replica 1 has accounted for everything below 20.
        sim.run_until(SimTime::from_secs(8));
        let rep = sim.actor::<MenciusReplica>(ActorId(0));
        assert_eq!(rep.exec_index(), Slot(10), "restored and re-executed");
        assert!(rep.rules.base.committed(Slot(16)), "the retry is decided");
        assert!(rep.rules.cover(&rep.core) >= Slot(16), "and covered");
        assert_eq!(
            sim.actor::<TestClient>(client).replies.len(),
            4,
            "but slot 11's write to the key has not applied"
        );
        // Slot 11's decision arrives.
        sim.run_until(SimTime::from_secs(10));
        assert!(sim.actor::<MenciusReplica>(ActorId(0)).exec_index() >= Slot(16));
        assert_eq!(sim.actor::<TestClient>(client).replies.len(), 5);
    }

    /// Two own slots wait (replica 1 has accounted for nothing) when a
    /// checkpoint covering the first arrives. The first is dropped from
    /// the respond queue — it was decided without us; its client
    /// re-submits — and the second is answered by the pass that follows
    /// replica 1's next notice, which must not be skipped.
    #[test]
    fn a_checkpoint_installed_past_a_waiting_slot_keeps_the_respond_pass_honest() {
        let checkpoint = Snapshot {
            last_slot: Slot(5),
            last_term: Term::ZERO,
            kv: Default::default(),
        };
        let data = checkpoint.encode();
        let chunk = EngineMsg::SnapshotChunk {
            group: 0,
            seal: Term::ZERO,
            last_slot: checkpoint.last_slot,
            last_term: Term::ZERO,
            offset: 0,
            total: data.len(),
            header_bytes: 0,
            data,
        };
        let p1 = Puppet::new(
            usize::MAX,
            Coord::empty(Slot(2), Slot::NONE),
            vec![(SimDuration::from_millis(700), notice(6, 9, &[]))],
        );
        let p2 = Puppet::new(usize::MAX, skipped_below(1000), Vec::new())
            .also(SimDuration::from_millis(400), Msg::Engine(chunk));
        let (mut sim, first) = replica_among_puppets(p1, p2);
        let second = sim.add_actor(region_of(0), Box::new(TestClient::new(1, ActorId(0))));
        sim.actor_mut::<TestClient>(first).enqueue_put(1);
        sim.actor_mut::<TestClient>(first).enqueue_put(2);
        sim.actor_mut::<TestClient>(second).enqueue_put(3);
        let replies = |sim: &Simulation<Msg>| {
            let of = |c| sim.actor::<TestClient>(c).replies.len();
            of(first) + of(second)
        };
        // Slot 1 is answered (nothing of replica 1's lies below it);
        // slots 4 and 7 are decided and wait for coverage.
        sim.run_until(SimTime::from_millis(400));
        let rep = sim.actor::<MenciusReplica>(ActorId(0));
        assert_eq!(rep.rules.await_respond, [Slot(4), Slot(7)]);
        assert_eq!((rep.exec_index(), replies(&sim)), (Slot(1), 1));
        sim.run_until(SimTime::from_millis(650));
        let rep = sim.actor::<MenciusReplica>(ActorId(0));
        assert_eq!(rep.core.snap_stats.snapshots_installed, 1);
        assert_eq!(rep.rules.await_respond, [Slot(7)]);
        assert_eq!((rep.exec_index(), replies(&sim)), (Slot(7), 1));
        sim.run_until(SimTime::from_millis(900));
        let rep = sim.actor::<MenciusReplica>(ActorId(0));
        assert!(rep.rules.await_respond.is_empty());
        assert_eq!(replies(&sim), 2, "slot 7's client has its answer");
    }
}
