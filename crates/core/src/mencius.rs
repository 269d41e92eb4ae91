//! Raft*-Mencius (Appendix A.3–A.4): coordinated Raft* with round-robin
//! slot ownership, expressed as [`ProtocolRules`] over the shared
//! [`ReplicaEngine`].
//!
//! Every replica is the *default leader* of the slots `s` with
//! `(s - 1) mod n == id`. A client sends requests to its nearest replica,
//! which proposes them in its own slots (`Suggest`, the `isDefault`
//! append) — under the engine, Mencius is simply the protocol whose
//! `can_propose` is always true, so client batches are never forwarded.
//! Replicas that fall behind *skip* their unused slots ("each replica
//! keeps committing skip to keep the system moving forward"). A skipped
//! slot is a no-op from the default leader, so by the coordinated-Paxos
//! property it is executable without waiting for a commit round.
//!
//! # Per-peer streams
//!
//! Everything an owner has to tell a peer about its *own* slots — which
//! are skipped, which committed, how far it has executed — travels as one
//! stream per peer, and every regular message to that peer (`Suggest`,
//! `SuggestOk`, `SkipNotice`) is an element of it, carrying a
//! [`Coord`]. Raft's `Append` has always carried `commit`; a `Commit`
//! message of its own is the same fact spelled as a separate learn
//! message, and this is that optimisation ported across the mapping.
//!
//! **The stream.** `from` is the watermark last sent *to that peer*,
//! `watermark` the current one: the element accounts for every owner
//! slot in `[from, watermark)` — suggested in this very message, or a
//! no-op. Values only ever leave in the `Suggest` whose range covers
//! them, so any later message may carry the next element.
//!
//! **The gap rule.** The simulator's links keep order but lose messages
//! (`drop_rate`, partitions), so a watermark alone proves nothing: a
//! lost `Suggest` followed by any later watermark would turn a committed
//! write into a no-op at that replica. A receiver therefore advances
//! `known_upto[owner]` only when the element joins what it already knows
//! (`MenciusRules::note_known`, the one place the bound moves). A gap
//! leaves it where it is and execution blocks on the first unknown slot
//! instead of diverging; what arrives beyond the gap is kept as one run
//! of elements continuing each other. The owner, seeing that peer's
//! executed prefix stall, replays its decided values above that prefix
//! under a range that starts right there and ends at its first value
//! still in flight (`MenciusRules::replay_to_stalled_peers`) — complete
//! for the range it claims, and once it reaches the kept run the whole
//! gap is healed. Whoever else vouches for a range (a revocation's
//! decision, an installed checkpoint) goes through the same check, and
//! a slot this replica refuses is not accounted for. A value the owner
//! reports decided is stored even against a local revocation promise:
//! learning is not accepting.
//!
//! **The carrier rule.** A commit decision is queued per peer and leaves
//! on the next message to it. It gets a `Commit` of its own only when
//! the link is idle at the deployment's own timescale: nothing sent to
//! that peer for longer than one eighth of the slot's own
//! suggest-to-commit time — a fraction of a round trip the slot has just
//! paid, so the wait is never the larger part of anybody's latency
//! (15-35 ms on the paper's WAN, well under a millisecond in one
//! datacentre), where a fixed bound would be wrong for one of them. The
//! check runs when the decision is queued and at the end of every later
//! handler; a timer per decision would cost two events even when a
//! carrier made it stale, and the coordination tick alone (50 ms) is too
//! coarse for low-load reads. The tick sends a `SkipNotice` only to
//! peers the data path sent nothing since the previous one.
//!
//! An ack held back by the fsync gate would leave out of stream order,
//! so it is not a stream element: it claims nothing, and the skip goes
//! to that peer in a notice like to everybody else.
//!
//! # Responses and recovery
//!
//! Responses follow the paper's two regimes (Section 5.2):
//! - **commutative (low conflict)**: a write is acknowledged once its
//!   slot commits and every other owner's slots below it are *known*
//!   (suggested or skipped) — nothing earlier can conflict;
//! - **conflicting**: the write additionally waits until every earlier
//!   entry on the same key has applied, which requires learning the
//!   other servers' commit decisions on previous entries — the extra
//!   latency Figure 10c/d shows for Mencius-100%.
//!
//! **The respond pass** (`MenciusRules::try_respond`) runs at the end of
//! every execute step, i.e. on nearly every message, so what it costs
//! must not grow with what is waiting. The coverage part is one number
//! for all waiting slots — the smallest `known_upto` among the peers —
//! and the pass depends on nothing but that *cover*, on `exec_index`,
//! and on which slots are queued: when none of the three changed since
//! the last pass, no waiting slot can have become ready, and it returns
//! at once. When it does run, a slot above the cover is passed over on
//! that one comparison, before its table entry is even looked up.
//!
//! **The conflict index** is one ordered set of `(key, slot)` for the
//! retained writes *above the executed prefix*, and the rule reads
//! "no indexed write to this key in `(exec_index, s)`". Entries leave
//! the set when their slot executes, is discarded, loses its value to a
//! crash or has it replaced; that is garbage collection, never what
//! makes a later slot ready — the range in the rule already ignores an
//! executed entry — with one exception: a *replaced* value (a
//! revocation deciding a no-op over a `Put k`) is a write that will
//! never apply, so it must leave the index or it would hold back every
//! later writer of `k` for as long as it stayed, and the writers it held
//! get a fresh pass. A crash re-executes from the checkpoint, so
//! `on_crash` rebuilds the set from the retained slots above it.
//!
//! Crashed owners are handled by *revocation*: after a silence timeout a
//! peer raises a ballot above the owner's, collects accepted values for
//! the owner's undecided range (phase-1), re-proposes what was accepted
//! and no-ops the rest (Appendix A.3's recovery leader). A partitioned
//! replica suspects owners that are alive, so an owner can find its
//! suggestion refused (`SuggestReject`) by an acceptor that promised the
//! slot away. The refusal decides nothing — the rest of the quorum may
//! still accept, or the revocation decides the slot, possibly as the
//! very value suggested — so the owner leaves the slot alone; a refusing
//! acceptor that already holds the decision sends it along, and an owner
//! that promised its own range away proposes above it.
//!
//! # Durability (group commit)
//!
//! Same invariant as the other three protocols: a `SuggestOk` is an
//! acceptor's promise that the accepted values survive a crash, so it
//! is routed through [`EngineCore::ack_after_sync`]; the owner's *own*
//! implicit ack is likewise gated on its local fsync (the engine's
//! `on_durable` hook adds the bit, `PaxosBase::note_proposed`).
//! Crash-restart drops accepted values whose write never synced. A
//! multi-leader wrinkle: peers cannot revoke a slot whose owner is
//! alive, so an owner that loses its *own* unsynced suggestions would
//! stall the cluster (peers hold the value and wait forever for a
//! commit only the owner can produce). Worse, the skip inference
//! ("own slot below my watermark with no value was skipped") would
//! silently read the dropped slot as a decided no-op — while a
//! revocation during the downtime may have *decided the original
//! value* from the peers' copies, without the owner's vote. Dropped
//! own slots therefore go to `MenciusRules::lost_own`, which (a)
//! suppresses the skip inference so execution blocks instead of
//! diverging, and (b) makes the restart hook run the ordinary
//! revocation phase-1 against the owner's *own* range: collect
//! accepted values from a quorum at a bumped ballot, re-decide what
//! anyone accepted and no-op the rest. That is exactly the crashed-
//! owner recovery path, reused for self-recovery — safe by the same
//! ballot argument, and live because the affected clients were never
//! answered and retry through the dedup sessions.
//! `RevokeOk` stays immediate: it reports promises (ballot raises),
//! and ballots — like terms — are modeled as free always-durable
//! metadata that survives [`ProtocolRules::on_crash`]; over-persisting
//! a promise only ever *restricts* what the acceptor may later accept,
//! so it can never manufacture a quorum for lost state.
//!
//! # What this file holds
//!
//! The slot table and its bookkeeping are the family's `PaxosBase`,
//! shared with MultiPaxos. Here is what makes it *Mencius*: ownership and
//! skips, the per-peer streams, the execute loop with its skip inference,
//! the respond pass and conflict index, retransmission and the replay
//! body, revocation, and what a crash keeps.

use std::collections::{BTreeMap, BTreeSet};

use paxraft_sim::sim::{ActorId, Ctx};
use paxraft_sim::time::{SimDuration, SimTime};

use crate::config::ReplicaConfig;
use crate::costs::CostModel;
use crate::engine::paxos_family::{merge_highest, Accepted, Cell, PaxosBase, Stored};
use crate::engine::{self, EngineCore, ProtocolRules, ReplicaEngine, T_COORD};
use crate::kv::{Command, Key, Op};
use crate::msg::{Coord, MenciusMsg, Msg, Round, Slots};
use crate::snapshot::Snapshot;
use crate::types::{max_failures, NodeId, Slot, Term};

/// An in-flight revocation of a crashed owner's slots.
#[derive(Debug)]
struct RevokeOp {
    term: Term,
    owner: NodeId,
    from: Slot,
    through: Slot,
    acks: u64,
    /// Highest-ballot accepted values reported for the range.
    accepted: Accepted,
}

/// My outgoing stream to one peer (module docs, "Per-peer streams").
#[derive(Debug)]
struct PeerStream {
    /// The watermark last sent to this peer: the `from` of the next
    /// stream element.
    sent_upto: Slot,
    /// When anything was last sent on this link.
    last_sent: SimTime,
    /// Commit decisions for my slots waiting for a carrier.
    decisions: Slots,
    /// How long `decisions` may wait for one: an eighth of the
    /// suggest-to-commit time of the quickest slot among them.
    patience: SimDuration,
}

impl PeerStream {
    /// A stream that has claimed nothing below `at`.
    fn starting_at(at: Slot) -> Self {
        PeerStream {
            sent_upto: at,
            last_sent: SimTime::ZERO,
            decisions: Slots::new(),
            patience: SimDuration::ZERO,
        }
    }
}

/// The key `cmd` writes, if it is a write.
fn write_key(cmd: &Command) -> Option<Key> {
    match &cmd.op {
        Op::Put { key, .. } => Some(*key),
        _ => None,
    }
}

/// What the base hands a discarded slot to: its write leaves the
/// conflict index.
fn unindex(key_slots: &mut BTreeSet<(Key, u64)>) -> impl FnMut(Slot, Cell<SimTime>) + '_ {
    |s, slot| {
        if let Some(key) = slot.cmd().and_then(write_key) {
            key_slots.remove(&(key, s.0));
        }
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
    base: PaxosBase<SimTime>,
    /// My next unused owned slot; doubles as my skip watermark.
    next_own: Slot,
    /// Exclusive bound of *known* slots per peer owner: every slot of
    /// theirs below this is suggested-or-skipped. Moves only through
    /// [`MenciusRules::note_known`].
    known_upto: Vec<Slot>,
    /// Per peer owner: the run `[from, upto)` of its stream heard beyond
    /// a gap, waiting for a repair to reach it.
    beyond_gap: Vec<Option<(Slot, Slot)>>,
    /// My outgoing stream per peer (my own entry is unused).
    out: Vec<PeerStream>,
    /// When the coordination tick last ran: peers sent nothing since get
    /// a keepalive `SkipNotice`.
    last_tick: SimTime,
    /// The write-conflict index: `(key, slot)` of every retained `Put`
    /// above the executed prefix (module docs, "The conflict index").
    key_slots: BTreeSet<(Key, u64)>,
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
    /// Revocation decisions recorded for a value the slot already held
    /// (stats): the one write this file still pays twice — a decision is
    /// written whether or not its value was held, and not writing it moves
    /// the durability-on fault fingerprint, so it is counted here and
    /// left to the revocation rewrite (ROADMAP item 1).
    decision_rewrites: u64,
    /// Durability: own slots whose unsynced value a crash dropped.
    /// The stalled-peer replay stops its range claim short of them;
    /// membership suppresses the skip inference in `decided_at` (the
    /// empty slot must not read as a decided no-op — a revocation
    /// during our downtime may have decided the original value from
    /// the peers' copies), and `on_start` re-decides the range with a
    /// phase-1 self-revocation. Entries leave the set as values land.
    lost_own: BTreeSet<u64>,
}

impl MenciusReplica {
    /// Creates a replica.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: ReplicaConfig) -> Self {
        cfg.validate().expect("invalid replica config");
        let n = cfg.n;
        let me = cfg.id;
        ReplicaEngine::from_parts(
            EngineCore::new(cfg),
            MenciusRules {
                current_term: Term::encode(1, me, n),
                next_own: Slot(me.0 as u64 + 1),
                known_upto: vec![Slot(1); n],
                beyond_gap: vec![None; n],
                out: (0..n)
                    .map(|_| PeerStream::starting_at(Slot(me.0 as u64 + 1)))
                    .collect(),
                last_tick: SimTime::ZERO,
                base: PaxosBase::new(n),
                key_slots: BTreeSet::new(),
                await_respond: Vec::new(),
                respond_seen: None,
                #[cfg(test)]
                oracle_checked: None,
                commit_buf: Vec::new(),
                last_heard: vec![SimTime::ZERO; n],
                revoke: None,
                last_revoke_attempt: SimTime::ZERO,
                skips_issued: 0,
                decision_rewrites: 0,
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

    /// Retained (uncompacted) slots.
    pub fn retained_slots(&self) -> usize {
        self.rules.base.cells.len()
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
        let owner = MenciusReplica::owner_of(slot, core.cfg.n);
        let held = self.base.cells.get(slot);
        if let Some(s) = held {
            if s.committed {
                return s.cmd();
            }
            if s.skipped {
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

    fn broadcast(&self, core: &EngineCore, ctx: &mut Ctx<Msg>, msg: MenciusMsg) {
        for peer in core.cfg.others() {
            ctx.send(core.cfg.peer(peer), Msg::Mencius(msg.clone()));
        }
    }

    /// The next element of my stream to `peer`: accounts for my slots
    /// since the previous one and takes the queued decisions along.
    fn stamp(&mut self, peer: NodeId, now: SimTime) -> Coord {
        let st = &mut self.out[peer.0 as usize];
        st.last_sent = now;
        Coord {
            from: std::mem::replace(&mut st.sent_upto, self.next_own),
            watermark: self.next_own,
            commits: std::mem::take(&mut st.decisions),
            exec: self.base.exec_index,
        }
    }

    fn send_skip_notice(&mut self, core: &EngineCore, ctx: &mut Ctx<Msg>, peer: NodeId) {
        let coord = self.stamp(peer, ctx.now());
        ctx.send(
            core.cfg.peer(peer),
            Msg::Mencius(MenciusMsg::SkipNotice { coord }),
        );
    }

    /// Suggests `items` (my own slots, at `term`) to every peer, each
    /// copy carrying that peer's stream element.
    fn send_suggest(&mut self, core: &EngineCore, ctx: &mut Ctx<Msg>, term: Term, items: Round) {
        for peer in core.cfg.others() {
            let coord = self.stamp(peer, ctx.now());
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

    /// Stores an accepted value ([`PaxosBase::store`]) and indexes its
    /// key. Returns whether it wrote: `None` (nothing stored) for slots at
    /// or below the checkpoint floor, `Some(false)` for a slot that
    /// already holds the value — committed (e.g. a partitioned owner's
    /// stale retransmission racing a revocation that already decided the
    /// slot as a no-op), or accepted at this very term.
    fn accept_value(
        &mut self,
        core: &mut EngineCore,
        s: Slot,
        term: Term,
        cmd: Command,
    ) -> Option<bool> {
        let indexed = write_key(&cmd).filter(|_| s > self.base.exec_index);
        let replaced = match self.base.store(s, term, cmd) {
            Stored::BelowFloor => return None,
            Stored::Kept => {
                // An arrival samples the table's size whether or not it
                // is written (the reported peaks are maxima over these
                // samples, and the fault fingerprints pin them).
                self.base.note_log_size(core);
                return Some(false);
            }
            Stored::Written(replaced) => replaced,
        };
        // A value replaced (a revocation deciding a no-op over a
        // `Put k`) leaves the index with it, or every later writer of
        // `k` would wait on a write that is never applied; the
        // writers it held back get a fresh look.
        let stale = replaced.as_ref().and_then(write_key);
        let stale = stale.filter(|k| Some(*k) != indexed);
        if stale.is_some_and(|k| self.key_slots.remove(&(k, s.0))) {
            self.respond_seen = None;
        }
        if let Some(key) = indexed {
            self.key_slots.insert((key, s.0));
        }
        // A value landing in a crash-dropped own slot (our own recovery
        // decision, or a revocation's) supersedes the loss marker.
        self.lost_own.remove(&s.0);
        self.base.note_log_size(core);
        Some(true)
    }

    /// Commit tally for own slots that just gained an ack bit (a
    /// follower's `SuggestOk`, or this owner's own post-fsync vote). An
    /// ack counts only for a slot still at the term it acknowledges.
    fn tally_own(&mut self, slots: &Slots, term: Term, bit: u64) {
        let before = self.commit_buf.len();
        let chosen = &mut self.commit_buf;
        self.base.tally(
            slots.iter(),
            bit,
            |slot| slot.bal == term,
            |s| chosen.push(s),
        );
        self.note_chosen_own(before);
    }

    /// Own slots chosen since `commit_buf` was `before` long now await
    /// their respond condition.
    fn note_chosen_own(&mut self, before: usize) {
        if self.commit_buf.len() > before {
            self.await_respond
                .extend_from_slice(&self.commit_buf[before..]);
            self.respond_seen = None;
        }
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
                slot.skipped = true;
                self.skips_issued += 1;
            }
            s = Slot(s.0 + core.cfg.n as u64);
        }
        self.next_own = new_own;
        true
    }

    /// The one place `known_upto` moves. The caller vouches that every
    /// slot of `owner` in `[from, upto)` is accounted for (its value
    /// stored here, or a no-op); the bound advances only when that range
    /// joins what is already known — the old bound or the executed
    /// prefix, whichever reaches further — i.e. no slot of `owner` lies
    /// between that and `from`. A gap means a message was lost: the
    /// bound stays, execution blocks on the first unknown slot, and the
    /// owner's stalled-peer replay (which starts its claim right above
    /// the executed prefix we report) repairs it. What was heard beyond
    /// the gap is kept as one run of elements continuing each other, so
    /// a repair that reaches the run heals all of it.
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
    /// prefix. Called after the message's values are stored.
    fn absorb(&mut self, core: &EngineCore, peer: NodeId, coord: Coord) {
        self.note_known(core, peer, coord.from, coord.watermark);
        // Decided on their owner's word; a decision says nothing about
        // the owner's other slots.
        self.base.learn(coord.commits.iter());
        self.base.note_peer_exec(peer, coord.exec);
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
    /// `key` has applied — no indexed write to it in `(exec_index, s)`.
    fn conflicts_applied(&self, s: Slot, key: Key) -> bool {
        let unapplied = (key, self.base.exec_index.0 + 1)..(key, s.0);
        self.base.exec_index >= s || self.key_slots.range(unapplied).next().is_none()
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

    /// One covered slot of the respond pass: answers its client if the
    /// rest of the condition holds. Returns whether the slot stays queued.
    fn still_waits(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, s: Slot) -> bool {
        let Some(slot) = self.base.cells.get(s) else {
            return false;
        };
        let Some(cmd) = slot.cmd().filter(|_| !slot.responded) else {
            return false;
        };
        if !slot.committed {
            return true;
        }
        let reply = match cmd.op {
            // Reads need the value: wait for in-order apply.
            Op::Get { key } if self.base.exec_index >= s => core.kv.read_local(key),
            Op::Get { .. } => return true,
            Op::Put { key, .. } if !self.conflicts_applied(s, key) => return true,
            _ => crate::kv::Reply::Done,
        };
        core.respond(ctx, cmd.id, reply);
        self.base.cells.get_mut(s).expect("exists").responded = true;
        false
    }

    /// Tests: the slots a respond pass must answer, by the rule as it was
    /// first written — coverage asked of every peer for every slot, and
    /// the conflict part read off the whole retained history instead of
    /// an index: the latest earlier write to the key has applied.
    #[cfg(test)]
    fn oracle_ready(&self, core: &EngineCore) -> Vec<Slot> {
        let ready = |s: &Slot| {
            let Some(slot) = self.base.cells.get(*s) else {
                return false;
            };
            let Some(cmd) = slot.cmd().filter(|_| !slot.responded) else {
                return false;
            };
            let covered = core
                .cfg
                .others()
                .all(|o| self.known_upto[o.0 as usize] >= *s);
            let applied = match cmd.op {
                Op::Get { .. } => self.base.exec_index >= *s,
                Op::Put { key, .. } => self
                    .base
                    .cells
                    .range(..*s)
                    .rev()
                    .find(|(_, x)| x.cmd().and_then(write_key) == Some(key))
                    .is_none_or(|(c, _)| self.base.exec_index >= c),
                _ => true,
            };
            slot.committed && covered && applied
        };
        self.await_respond.iter().copied().filter(ready).collect()
    }

    /// Applies the decided prefix in slot order.
    fn try_execute(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        loop {
            let next = self.base.exec_index.next();
            let Some(cmd) = self.decided_at(core, next) else {
                break;
            };
            let written = write_key(cmd);
            if !matches!(cmd.op, Op::Noop) {
                ctx.charge(core.cfg.costs.apply_per_cmd);
                // The slot owner plays the proposer role for the
                // migration hooks (it proposed this command).
                let mine = MenciusReplica::owner_of(next, core.cfg.n) == core.cfg.id;
                engine::apply_command(core, ctx, cmd, mine);
            }
            self.base.exec_index = next;
            if let Some(key) = written {
                self.key_slots.remove(&(key, next.0));
            }
        }
        self.try_respond(core, ctx);
        self.maybe_compact(core, ctx);
    }

    /// Checkpoints and discards the executed slot prefix once it crosses
    /// the configured threshold ([`PaxosBase::compact_through`]) — short
    /// of own slots still awaiting a client response, which are never
    /// discarded.
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
        let unindex = unindex(&mut self.key_slots);
        if self.base.compact_through(core, ctx, upto, unindex) {
            self.lost_own = self.lost_own.split_off(&(upto.0 + 1));
        }
    }

    /// Queues the decisions made in this handler on every peer's stream:
    /// they leave on the next message to that peer, or — at the end of
    /// this handler already — in a `Commit` of their own where the link
    /// is idle ([`MenciusRules::flush_idle_links`]).
    fn queue_decisions(&mut self, core: &EngineCore, now: SimTime) {
        if self.commit_buf.is_empty() {
            return;
        }
        let quickest = self
            .commit_buf
            .iter()
            .filter_map(|s| self.base.cells.get(*s))
            .map(|slot| now.since(slot.suggested_at.min(now)))
            .min()
            .unwrap_or(SimDuration::ZERO);
        let patience = quickest / 8;
        for peer in core.cfg.others() {
            let st = &mut self.out[peer.0 as usize];
            st.patience = if st.decisions.is_empty() {
                patience
            } else {
                st.patience.min(patience)
            };
            st.decisions.extend(self.commit_buf.iter().copied());
        }
        self.commit_buf.clear();
    }

    /// Sends queued decisions in a `Commit` of their own on every link
    /// that has carried nothing for longer than they may wait. Run at
    /// the end of every handler, the one that queued them included — no
    /// timer per decision (two events each, even when stale), and not
    /// left to the coordination tick (which costs low-load reads its
    /// full period).
    fn flush_idle_links(&mut self, core: &EngineCore, ctx: &mut Ctx<Msg>) {
        let now = ctx.now();
        for peer in core.cfg.others() {
            let st = &mut self.out[peer.0 as usize];
            if st.decisions.is_empty() || now.since(st.last_sent.min(now)) <= st.patience {
                continue;
            }
            st.last_sent = now;
            let slots = std::mem::take(&mut st.decisions);
            ctx.send(
                core.cfg.peer(peer),
                Msg::Mencius(MenciusMsg::Commit { slots }),
            );
        }
    }

    /// Retransmits my own suggested-but-unexecuted slots after
    /// `retry_interval` of silence — the MultiPaxos heartbeat's
    /// uncommitted-instance retransmission in the Mencius spelling. A
    /// `Suggest` or `SuggestOk` lost on the wire otherwise stalls the
    /// slot until the client gives up and retries; committed slots are
    /// included because a peer that missed the original suggestion can
    /// neither advance its watermark past the slot nor execute it, which
    /// blocks the respond condition's coverage check cluster-wide.
    ///
    /// Each slot is re-sent at its *original* accepted term (`bal`), not
    /// `current_term`: ack counting matches acks against the slot's
    /// ballot, and a term that advanced in between (a revocation attempt
    /// on some third owner, a `SuggestReject`) would both orphan the
    /// acks and let a stale value ride over a revocation-raised ballot.
    /// Slots suggested at different terms therefore go out in separate
    /// per-term rounds.
    fn retransmit_own_unexecuted(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        let now = ctx.now();
        let retry = core.cfg.retry_interval;
        let me = core.cfg.id;
        let n = core.cfg.n;
        let mut by_term: BTreeMap<Term, Vec<(Slot, Command)>> = BTreeMap::new();
        let mut committed = Vec::new();
        let mut taken = 0usize;
        let unexecuted = self.base.exec_index.next()..;
        for (s, slot) in self.base.cells.range_mut(unexecuted) {
            if taken >= 64 {
                break;
            }
            if MenciusReplica::owner_of(s, n) != me || slot.skipped {
                continue;
            }
            let Some(cmd) = slot.cmd().cloned() else {
                continue;
            };
            if now.since(slot.suggested_at.min(now)) <= retry {
                continue;
            }
            slot.suggested_at = now;
            if slot.committed {
                committed.push(s);
            }
            by_term.entry(slot.bal).or_default().push((s, cmd));
            taken += 1;
        }
        // The retransmitted slots are a subset by age, so these copies
        // claim nothing about them: each is an ordinary stream element
        // (the range since the last one holds no values — those left in
        // their own `Suggest`). The decisions ride along.
        for peer in core.cfg.others() {
            self.out[peer.0 as usize]
                .decisions
                .extend(committed.iter().copied());
        }
        for (term, items) in by_term {
            self.send_suggest(core, ctx, term, items.into());
        }
    }

    /// Per-peer catch-up: the MultiPaxos stall-gated replay ported to the
    /// Mencius spelling. A message lost on the wire leaves the peer a gap
    /// in my stream it can never fill itself (unlike a crashed owner's
    /// slots, a live owner's slots are never revoked), so each owner
    /// replays its *own* decided slots to peers whose executed prefix
    /// stalled between two coordination ticks: the values above that
    /// prefix, with their decisions, under a range claim that starts
    /// right there — so it joins whatever the peer already knows — and
    /// ends at the first value still uncommitted (or the 64th, to bound
    /// the burst), so the replay is complete for the range it claims.
    /// An in-flight value is not re-sent on a mere stall (prefixes trail
    /// a far owner's commits all the time); what the peer heard beyond
    /// the gap it kept, so reaching that is enough. A peer below the
    /// checkpoint floor gets the state instead — it can never learn the
    /// dropped decisions from us ([`PaxosBase::stalled_peer`]; the
    /// multi-leader checkpoint carries no seal).
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
            let mut items = Vec::new();
            for (s, slot) in self.base.cells.range(from..upto) {
                if MenciusReplica::owner_of(s, n) != me {
                    continue;
                }
                let Some(cmd) = slot.cmd().cloned() else {
                    continue;
                };
                if !slot.committed || items.len() == 64 || term.is_some_and(|t| t != slot.bal) {
                    upto = s;
                    break;
                }
                term = Some(slot.bal);
                items.push((s, cmd));
            }
            // A claim without values helps only a peer stuck on a slot
            // of mine (one I skipped, and the notice was lost).
            if from >= upto || items.is_empty() && MenciusReplica::owner_of(from, n) != me {
                continue;
            }
            let st = &mut self.out[peer.0 as usize];
            st.last_sent = ctx.now();
            let mut commits = std::mem::take(&mut st.decisions);
            commits.extend(items.iter().map(|(s, _)| *s));
            let coord = Coord {
                from,
                watermark: upto,
                commits,
                exec: self.base.exec_index,
            };
            let msg = match term {
                Some(term) => MenciusMsg::Suggest {
                    term,
                    items: items.into(),
                    coord,
                },
                None => MenciusMsg::SkipNotice { coord },
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
    /// execution and the owner has been silent. With durability on,
    /// also covers *self*-recovery: a crash-dropped own slot
    /// (`lost_own`) blocks execution just like a crashed peer's, and is
    /// re-decided by the same phase-1 — immediately, no silence
    /// required, since we know first-hand the write is gone.
    fn maybe_revoke(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        let now = ctx.now();
        if self.revoke.is_some() {
            // A revocation whose `RevokeOk`s never arrive (e.g. our
            // ballot was stale and peers silently ignored it) would
            // otherwise pin recovery shut forever; retry with a fresh
            // ballot. Only reachable with durability on — the default
            // configuration keeps the original fire-once behavior.
            if !core.dur.enabled()
                || now.since(self.last_revoke_attempt.min(now)) < core.cfg.mencius.revoke_timeout
            {
                return;
            }
            self.revoke = None;
        }
        let next = self.base.exec_index.next();
        if self.decided_at(core, next).is_some() {
            return; // not blocked
        }
        let owner = MenciusReplica::owner_of(next, core.cfg.n);
        let through = if owner == core.cfg.id {
            // Our own slot: flush/batch handles it — unless its value
            // was crash-dropped, which only a self-revocation can
            // re-decide (peers never revoke a live owner). The range
            // stops at the last dropped slot: anything above it
            // (including post-restart suggestions) is live and stays
            // on the normal quorum path.
            if !self.lost_own.contains(&next.0)
                || now.since(self.last_revoke_attempt.min(now)) < core.cfg.mencius.revoke_timeout
            {
                return;
            }
            Slot(*self.lost_own.iter().next_back().expect("checked non-empty"))
        } else {
            let silent = now.since(self.last_heard[owner.0 as usize].min(now));
            if silent < core.cfg.mencius.revoke_timeout
                || now.since(self.last_revoke_attempt.min(now)) < core.cfg.mencius.revoke_timeout
            {
                return;
            }
            Slot(self.horizon().0 + core.cfg.n as u64)
        };
        self.start_revocation(core, ctx, owner, next, through, now);
    }

    /// Phase-1 of revocation: bump the ballot, collect accepted values
    /// for `owner`'s slots in the range, promise locally, broadcast.
    fn start_revocation(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        owner: NodeId,
        from: Slot,
        through: Slot,
        now: SimTime,
    ) {
        self.last_revoke_attempt = now;
        self.current_term = self.current_term.next_for(core.cfg.id, core.cfg.n);
        let mut op = RevokeOp {
            term: self.current_term,
            owner,
            from,
            through,
            acks: core.me_bit(),
            accepted: Accepted::new(),
        };
        merge_highest(
            &mut op.accepted,
            self.accepted_in_range(core, owner, from, through),
        );
        self.broadcast(
            core,
            ctx,
            MenciusMsg::Revoke {
                term: op.term,
                owner,
                from,
                through,
            },
        );
        // Promise locally.
        self.promise_range(core, owner, from, through, op.term);
        self.revoke = Some(op);
    }

    /// The phase-1 report for a revocation: what this replica accepted
    /// in `owner`'s slots of the range.
    fn accepted_in_range(
        &self,
        core: &EngineCore,
        owner: NodeId,
        from: Slot,
        through: Slot,
    ) -> Vec<(Slot, Term, Command)> {
        let owned = |s: Slot| MenciusReplica::owner_of(s, core.cfg.n) == owner;
        let held = self.base.accepted(from..=through);
        held.filter(|(s, ..)| owned(*s)).collect()
    }

    /// Raises the ballot on `owner`'s undecided slots in the range so the
    /// (possibly alive) owner can no longer commit there.
    fn promise_range(
        &mut self,
        core: &EngineCore,
        owner: NodeId,
        from: Slot,
        through: Slot,
        term: Term,
    ) {
        let mut s = owned_at_or_after(owner, from, core.cfg.n);
        while s <= through {
            let slot = self.base.cells.get_or_default(s);
            if term > slot.bal {
                slot.bal = term;
            }
            s = Slot(s.0 + core.cfg.n as u64);
        }
    }

    fn on_mencius(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        from: ActorId,
        msg: MenciusMsg,
    ) {
        let peer = core.cfg.node_of(from);
        self.last_heard[peer.0 as usize] = ctx.now();
        match msg {
            MenciusMsg::Suggest {
                term,
                items,
                mut coord,
            } => {
                let bytes: usize = items.iter().map(|(_, c)| c.size_bytes()).sum();
                ctx.charge(
                    core.cfg.costs.append_fixed
                        + (core.cfg.costs.append_per_cmd + core.cfg.costs.coord_per_cmd)
                            * items.len().max(1) as u64
                        + core.cfg.costs.size_cost(bytes),
                );
                let durable = core.dur.enabled();
                let mut acked = Slots::new();
                let mut rejected = Vec::new();
                let mut revoked = Vec::new();
                let mut reject_term = Term::ZERO;
                let mut max_slot = Slot::NONE;
                let mut written = Slots::new();
                let mut written_bytes = 0usize;
                for (s, cmd) in items.iter() {
                    let s = *s;
                    if s <= self.base.floor() {
                        // Decided and checkpointed away; the lagging
                        // owner converges via Checkpoint, not re-accept.
                        continue;
                    }
                    let bal = self.base.cells.get(s).map_or(Term::ZERO, |x| x.bal);
                    // A value the owner reports decided is learnt, not
                    // accepted, and no promise stands against learning:
                    // at a slot its owner committed, the owner's value
                    // is the only one any ballot can decide.
                    let decided = coord.commits.contains(s) || self.base.learnt_without_value(s);
                    if term >= bal || decided {
                        // A value the slot already holds (a duplicate
                        // from a retransmission or replay) is not
                        // written: nothing new reaches the disk.
                        let wrote = self.accept_value(core, s, term, cmd.clone());
                        if durable && wrote == Some(true) {
                            written.push(s);
                            written_bytes += cmd.size_bytes();
                        }
                        acked.push(s);
                        if s > max_slot {
                            max_slot = s;
                        }
                    } else {
                        rejected.push(s);
                        reject_term = reject_term.max(bal);
                        // Decided here already (a revocation the owner
                        // missed): the refusal carries the decision.
                        if let Some(x) = self.base.cells.get(s).filter(|x| x.committed) {
                            revoked.extend(x.cmd().cloned().map(|c| (s, c)));
                        }
                    }
                }
                self.base.note_written(core, ctx, &written, written_bytes);
                // A refused slot is not accounted for here: the claim
                // stops short of it.
                if let Some(&refused) = rejected.iter().min() {
                    coord.watermark = coord.watermark.min(refused);
                }
                self.absorb(core, peer, coord);
                // The ack is the acceptor's promise that these values
                // survive a crash: it leaves only after the covering
                // fsync (group commit batches it; see the module docs).
                // A held ack would leave out of stream order, so it is
                // not a stream element.
                let held = core.dur.write_seq() > core.dur.synced_seq();
                let carrier = (!acked.is_empty() && !held).then_some(peer);
                // Skip my own unused slots below the suggestion. The
                // suggester's copy rides on the ack (the piggybacked
                // skip of Appendix A.3), which is on its commit path and
                // leaves first; everyone else gets a notice.
                let skipped = self.skip_to(core, max_slot);
                if !acked.is_empty() {
                    let coord = match carrier {
                        Some(_) => self.stamp(peer, ctx.now()),
                        None => Coord::empty(self.next_own, self.base.exec_index),
                    };
                    let ok = Msg::Mencius(MenciusMsg::SuggestOk {
                        term,
                        slots: acked,
                        coord,
                    });
                    core.ack_after_sync(ctx, from, ok);
                }
                if skipped {
                    for p in core.cfg.others().filter(|&p| Some(p) != carrier) {
                        self.send_skip_notice(core, ctx, p);
                    }
                }
                if !rejected.is_empty() {
                    ctx.send(
                        from,
                        Msg::Mencius(MenciusMsg::SuggestReject {
                            slots: rejected,
                            term: reject_term,
                        }),
                    );
                }
                if !revoked.is_empty() {
                    ctx.send(
                        from,
                        Msg::Mencius(MenciusMsg::RevokeCommit {
                            term: reject_term,
                            items: revoked,
                        }),
                    );
                }
                self.try_execute(core, ctx);
            }
            MenciusMsg::SuggestOk { term, slots, coord } => {
                ctx.charge(core.cfg.costs.ack_process);
                self.absorb(core, peer, coord);
                if let Some(upto) = slots.max() {
                    core.pipe.on_ack(peer, upto);
                }
                let bit = 1u64 << peer.0;
                self.tally_own(&slots, term, bit);
                self.queue_decisions(core, ctx.now());
                self.try_execute(core, ctx);
            }
            MenciusMsg::SuggestReject { term, .. } => {
                // One acceptor promised these slots to a revocation.
                // That decides nothing: the other acceptors may still
                // complete the quorum, or the revocation decides the
                // slots — as no-ops or as the very values we suggested —
                // and its `RevokeCommit` re-proposes what it no-oped. So
                // the slots stay as they are; only the in-flight rounds
                // toward the rejecting peer are dead.
                core.pipe.on_regress(peer);
                if term > self.current_term {
                    self.current_term = self.current_term.next_for(core.cfg.id, core.cfg.n);
                    while self.current_term < term {
                        self.current_term = self.current_term.next_for(core.cfg.id, core.cfg.n);
                    }
                }
            }
            MenciusMsg::SkipNotice { coord } => {
                ctx.charge(core.cfg.costs.coord_msg);
                self.absorb(core, peer, coord);
                self.try_execute(core, ctx);
            }
            MenciusMsg::Commit { slots } => {
                ctx.charge(core.cfg.costs.coord_msg);
                self.base.learn(slots.iter());
                self.try_execute(core, ctx);
            }
            MenciusMsg::Revoke {
                term,
                owner,
                from: rfrom,
                through,
            } => {
                if term > self.current_term {
                    // Promise: raise ballots on the revoked range.
                    let accepted = self.accepted_in_range(core, owner, rfrom, through);
                    self.promise_range(core, owner, rfrom, through, term);
                    if owner == core.cfg.id {
                        // Having promised my own range away, I must not
                        // suggest in it: my proposals clear the range.
                        let above = owned_at_or_after(owner, through.next(), core.cfg.n);
                        self.next_own = self.next_own.max(above);
                    }
                    ctx.send(
                        from,
                        Msg::Mencius(MenciusMsg::RevokeOk {
                            term,
                            owner,
                            accepted,
                        }),
                    );
                }
            }
            MenciusMsg::RevokeOk {
                term,
                owner,
                accepted,
            } => {
                let finished = {
                    let Some(op) = self.revoke.as_mut() else {
                        return;
                    };
                    if op.term != term || op.owner != owner {
                        return;
                    }
                    op.acks |= 1 << peer.0;
                    merge_highest(&mut op.accepted, accepted);
                    op.acks.count_ones() as usize >= max_failures(core.cfg.n) + 1
                };
                if finished {
                    let op = self.revoke.take().expect("checked");
                    let mut items = Vec::new();
                    let mut s = owned_at_or_after(op.owner, op.from, core.cfg.n);
                    while s <= op.through {
                        let cmd = op
                            .accepted
                            .get(&s.0)
                            .map(|(_, c)| c.clone())
                            .unwrap_or_else(Command::noop);
                        items.push((s, cmd));
                        s = Slot(s.0 + core.cfg.n as u64);
                    }
                    // Decide locally and broadcast. The decided values
                    // are a local disk write too (the decision's record,
                    // written whether or not the value was held); if a
                    // crash drops them before the fsync, the slots
                    // degrade to committed-without-value and a fresh
                    // revocation re-decides them.
                    let mut written = Slots::new();
                    let mut written_bytes = 0usize;
                    for (s, cmd) in &items {
                        if let Some(wrote) = self.accept_value(core, *s, op.term, cmd.clone()) {
                            self.base.cells.get_mut(*s).expect("accepted").committed = true;
                            self.decision_rewrites += u64::from(!wrote);
                            written.push(*s);
                            written_bytes += cmd.size_bytes();
                        }
                    }
                    self.base.note_written(core, ctx, &written, written_bytes);
                    // The decision covers every slot of the owner in
                    // `[op.from, op.through]`, and nothing below it.
                    self.note_known(core, op.owner, op.from, op.through.next());
                    self.broadcast(
                        core,
                        ctx,
                        MenciusMsg::RevokeCommit {
                            term: op.term,
                            items,
                        },
                    );
                    self.try_execute(core, ctx);
                }
            }
            MenciusMsg::RevokeCommit { term, items } => {
                // The items are every slot of one owner in a range: a
                // claim about exactly that range, noted once the values
                // are stored.
                let decided = items
                    .first()
                    .map(|(first, _)| (*first, items[items.len() - 1].0.next()));
                let mut reproposed = false;
                let mut written = Slots::new();
                let mut written_bytes = 0usize;
                for (s, cmd) in items {
                    if s <= self.base.floor() {
                        continue; // already executed and checkpointed
                    }
                    let owner = MenciusReplica::owner_of(s, core.cfg.n);
                    // If our own in-flight command was no-oped, re-propose.
                    if owner == core.cfg.id {
                        if let Some(slot) = self.base.cells.get(s) {
                            if !slot.responded {
                                if let Some(mine) = slot.cmd() {
                                    if *mine != cmd && !matches!(mine.op, Op::Noop) {
                                        core.pending.push(mine.clone());
                                        reproposed = true;
                                    }
                                }
                            }
                        }
                        // Our future proposals must clear the range.
                        let above = owned_at_or_after(owner, s.next(), core.cfg.n);
                        if above > self.next_own {
                            self.next_own = above;
                        }
                    }
                    let sz = cmd.size_bytes();
                    if let Some(wrote) = self.accept_value(core, s, term, cmd) {
                        let slot = self.base.cells.get_mut(s).expect("accepted");
                        if term >= slot.bal {
                            slot.committed = true;
                        }
                        self.decision_rewrites += u64::from(!wrote);
                        written.push(s);
                        written_bytes += sz;
                    }
                }
                self.base.note_written(core, ctx, &written, written_bytes);
                if let Some((from, upto)) = decided {
                    let owner = MenciusReplica::owner_of(from, core.cfg.n);
                    self.note_known(core, owner, from, upto);
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

    fn extra_propose_cost(&self, costs: &CostModel) -> SimDuration {
        costs.coord_per_cmd
    }

    /// Proposes the batch into my own slots (`Suggest`) — one pipelined
    /// round over this owner's slot range. The suggestion always goes to
    /// every peer (each peer's stream must account for these slots), so
    /// unlike the single-leader protocols the send is not gated; the
    /// per-peer window still tracks in-flight rounds so the engine's
    /// batch cutter can pace this owner's range.
    fn propose(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, cmds: &mut Vec<Command>) {
        // The round's one allocation, straight from the batch.
        let (first, n) = (self.next_own.0, core.cfg.n as u64);
        let numbered = cmds.drain(..).enumerate();
        let items: Round = numbered
            .map(|(i, c)| (Slot(first + i as u64 * n), c))
            .collect();
        self.next_own = Slot(first + items.len() as u64 * n);
        // With durability on, the owner's implicit ack waits for its own
        // fsync (`on_durable` adds the bit); otherwise it is immediate.
        let self_ack = if core.dur.enabled() { 0 } else { core.me_bit() };
        for (s, cmd) in items.iter() {
            self.accept_value(core, *s, self.current_term, cmd.clone());
            let slot = self.base.cells.get_mut(*s).expect("just accepted");
            slot.acks = self_ack;
            slot.suggested_at = ctx.now();
        }
        self.base
            .note_proposed(core, ctx, self.current_term, &items);
        if let Some(upto) = items.iter().map(|(s, _)| *s).max() {
            for peer in core.cfg.others() {
                core.pipe.on_sent(peer, upto, ctx.now());
            }
        }
        self.send_suggest(core, ctx, self.current_term, items);
        self.try_execute(core, ctx);
    }

    fn on_start(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        ctx.set_timer(core.cfg.mencius.skip_heartbeat, T_COORD);
        // Crash recovery: re-decide own slots whose unsynced values the
        // crash dropped, via the ordinary revocation phase-1 run against
        // our *own* range (module docs). Kicked here rather than waiting
        // for the revoke timeout — we know first-hand the writes are
        // gone. `maybe_revoke` retries if this round stalls.
        if !self.lost_own.is_empty() && self.revoke.is_none() {
            let from = Slot(*self.lost_own.iter().next().expect("non-empty"));
            let through = Slot(*self.lost_own.iter().next_back().expect("non-empty"));
            self.start_revocation(core, ctx, core.cfg.id, from, through, ctx.now());
        }
    }

    fn on_timer(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, kind: u64, _token: u64) {
        if kind != T_COORD {
            return;
        }
        // Rounds whose acks never came are presumed lost (the
        // retransmission re-covers them); don't let them pin the window
        // shut.
        core.pipe.expire_stale(ctx.now(), core.cfg.retry_interval);
        // Keepalive stream element (watermark, queued decisions, exec)
        // to every peer the data path sent nothing since the last tick.
        for peer in core.cfg.others() {
            if self.out[peer.0 as usize].last_sent <= self.last_tick {
                self.send_skip_notice(core, ctx, peer);
            }
        }
        self.last_tick = ctx.now();
        self.retransmit_own_unexecuted(core, ctx);
        self.replay_to_stalled_peers(core, ctx);
        self.maybe_revoke(core, ctx);
        self.try_execute(core, ctx);
        self.flush_idle_links(core, ctx);
        ctx.set_timer(core.cfg.mencius.skip_heartbeat, T_COORD);
    }

    fn on_msg(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, from: ActorId, msg: Msg) {
        if let Msg::Mencius(m) = msg {
            self.on_mencius(core, ctx, from, m);
            self.flush_idle_links(core, ctx);
        }
    }

    /// A local fsync completed: add this owner's own (previously
    /// withheld) ack bit to the suggestions the sync covered. Batches
    /// whose slots were since re-balloted (a `SuggestReject`, a
    /// revocation) simply fail the per-slot term check in `tally_own`.
    fn on_durable(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        let before = self.commit_buf.len();
        let chosen = &mut self.commit_buf;
        let at_term = |term, slot: &Cell<SimTime>| slot.bal == term;
        let synced = core.dur.synced_seq();
        if !(self.base).tally_synced_votes(synced, core.me_bit(), at_term, |s| chosen.push(s)) {
            return;
        }
        self.note_chosen_own(before);
        self.queue_decisions(core, ctx.now());
        self.try_execute(core, ctx);
        self.flush_idle_links(core, ctx);
    }

    fn snapshot_chunk_fixed_cost(&self, costs: &CostModel) -> SimDuration {
        costs.coord_msg
    }

    /// Mencius's multi-leader `Checkpoint` spelling is ballot-free: its
    /// headers drop the 8-byte seal the MultiPaxos spelling carries.
    fn snapshot_wire_overhead(&self, costs: &CostModel) -> (usize, usize) {
        (
            costs.checkpoint_chunk_header.saturating_sub(8),
            costs.checkpoint_ack_header.saturating_sub(8),
        )
    }

    fn accept_snapshot_chunk(
        &mut self,
        _core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        from: ActorId,
        _seal: Term,
    ) -> bool {
        // Multi-leader transfers are ballot-free; any peer may ship us
        // its state. The chunk doubles as a liveness signal.
        self.last_heard[_core.cfg.node_of(from).0 as usize] = ctx.now();
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
        let unindex = unindex(&mut self.key_slots);
        if let Some(discarded) = self.base.install(core, ctx, snap, unindex) {
            // Mencius alone counts what an *install* drops as discarded
            // (`PARITY_pr13.txt` row 18 pins the sum).
            core.snap_stats.entries_discarded += discarded as u64;
            self.lost_own = self.lost_own.split_off(&(covered.0 + 1));
            // The state covers every owner's slots from the first one.
            for o in 0..core.cfg.n as u32 {
                self.note_known(core, NodeId(o), Slot(1), covered.next());
            }
            let above = owned_at_or_after(core.cfg.id, covered.next(), core.cfg.n);
            if above > self.next_own {
                self.next_own = above;
            }
            // Own in-flight slots inside the covered range were decided
            // without us (revoked to no-ops); their clients re-submit
            // and the restored sessions deduplicate.
            self.await_respond.retain(|&s| s > covered);
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
        core.snap_send.finish(peer.0 as usize);
        // The peer executed through `upto`; that accounts for its own
        // slots only as far as this replica executed too (a peer that
        // was ahead answers with a prefix we have not seen).
        self.note_known(core, peer, Slot(1), upto.min(self.base.exec_index).next());
    }

    fn record_metrics(&self, sample: &mut crate::telemetry::MetricSample) {
        self.base.record_metrics(sample);
        sample.record("decision_rewrites", self.decision_rewrites as f64);
    }

    fn on_crash(&mut self, core: &mut EngineCore) {
        // Stable storage: slots (accepted values, ballots, commits),
        // current_term, and the durable checkpoint. Volatile: pending
        // work and respond queues. The state machine restarts from the
        // checkpoint — the discarded slot prefix cannot be replayed —
        // and re-executes the retained decided suffix.
        //
        // Durability: accepted values whose write never fsynced are
        // gone. Their `SuggestOk` (or this owner's own pending
        // self-vote) was withheld by the ack-after-fsync invariant, so
        // they contributed to no quorum and dropping them cannot lose
        // chosen state. A committed slot losing its value degrades to
        // committed-without-value (re-fetched from the owner's replay);
        // an *own* uncommitted slot goes to `lost_own` for phase-1
        // self-recovery (module docs). The ballot in `bal` is free
        // always-durable metadata — promises survive; only value
        // payloads rode the modeled disk.
        let from = self.base.floor().next();
        for (s, committed) in self.base.crash(from, core.dur.synced_seq()) {
            let skipped = self.base.cells.get(s).is_some_and(|x| x.skipped);
            let mine = MenciusReplica::owner_of(s, core.cfg.n) == core.cfg.id;
            if !committed && mine && !skipped {
                self.lost_own.insert(s.0);
            }
        }
        self.await_respond.clear();
        self.respond_seen = None;
        self.commit_buf.clear();
        // The streams restart claiming nothing they did not send in this
        // incarnation; queued decisions die with the queue (the
        // retransmission re-covers them).
        for st in &mut self.out {
            *st = PeerStream::starting_at(self.next_own);
        }
        self.beyond_gap.fill(None);
        self.revoke = None;
        core.kv = crate::kv::KvStore::new();
        self.base.exec_index = Slot::NONE;
        if let Some(snap) = &core.stable_snap {
            core.kv.restore(&snap.kv);
            self.base.exec_index = snap.last_slot;
        }
        // The retained writes above the restored prefix run again, and
        // hold back their successors on the same key until they have.
        let unexecuted = self.base.cells.range(self.base.exec_index.next()..);
        self.key_slots = unexecuted
            .filter_map(|(s, slot)| Some((write_key(slot.cmd()?)?, s.0)))
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::EngineMsg;
    use crate::testutil::{drive_until, region_of, TestClient};
    use paxraft_sim::net::NetConfig;
    use paxraft_sim::sim::Simulation;
    use paxraft_sim::time::SimTime;

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

    /// A scripted peer among real replicas: records what replica 0 sends
    /// it, acknowledges the first `acks` suggestions (every ack carrying
    /// `ack_coord`), and plays `script` — messages for replica 0, each
    /// sent a given time after the first suggestion arrives (zero delay:
    /// in that handler, ahead of the ack).
    struct Puppet {
        acks: usize,
        ack_coord: Coord,
        script: Vec<(SimDuration, Msg)>,
        seen: Vec<(SimTime, MenciusMsg)>,
    }

    impl Puppet {
        fn new(acks: usize, ack_coord: Coord, script: Vec<(SimDuration, MenciusMsg)>) -> Self {
            let script = script.into_iter().map(|(at, m)| (at, Msg::Mencius(m)));
            Puppet {
                acks,
                ack_coord,
                script: script.collect(),
                seen: Vec::new(),
            }
        }

        /// Adds an engine-level message (a checkpoint chunk) to the script.
        fn also(mut self, delay: SimDuration, msg: EngineMsg) -> Self {
            self.script.push((delay, Msg::Engine(msg)));
            self
        }

        fn suggests_seen(&self) -> impl Iterator<Item = (&[(Slot, Command)], &Coord)> {
            self.seen.iter().filter_map(|(_, m)| match m {
                MenciusMsg::Suggest { items, coord, .. } => Some((&items[..], coord)),
                _ => None,
            })
        }
    }

    impl paxraft_sim::sim::Actor<Msg> for Puppet {
        fn on_message(&mut self, ctx: &mut Ctx<Msg>, from: ActorId, msg: Msg) {
            let Msg::Mencius(m) = msg else { return };
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
                let ok = MenciusMsg::SuggestOk {
                    term,
                    slots: items.iter().map(|(s, _)| *s).collect(),
                    coord: self.ack_coord.clone(),
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
        let mut puppets = vec![p2, p1];
        let (mut sim, _, client) = crate::testutil::cluster_with(3, |mut cfg| match cfg.id {
            NodeId(0) => {
                adjust(&mut cfg);
                Box::new(MenciusReplica::new(cfg))
            }
            _ => Box::new(puppets.pop().expect("two puppets")),
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
        }
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
        let decision = MenciusMsg::SkipNotice {
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
        let hello = MenciusMsg::SkipNotice {
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
        let slots: Vec<Slot> = items.iter().map(|(s, _)| *s).collect();
        assert_eq!(slots, [Slot(1), Slot(4)], "every decided value it holds");
        assert!(coord.commits.iter().eq(slots), "with its decision");
        assert_eq!(coord.watermark, Slot(7), "up to the uncommitted one");
        let retransmitted = p2
            .suggests_seen()
            .filter(|(items, _)| items[0].0 == Slot(7))
            .collect::<Vec<_>>();
        assert!(retransmitted.len() >= 2, "original + retransmission");
        let (_, again) = retransmitted.last().expect("checked");
        assert_eq!(again.from, again.watermark, "claims no range");
    }

    /// A decision queued on a link that carried something a moment ago
    /// leaves on the next message to that peer; on a link idle for
    /// longer than an eighth of the slot's own commit time it leaves at
    /// once, in a `Commit` of its own.
    #[test]
    fn decisions_ride_a_busy_link_and_leave_an_idle_one_at_once() {
        // Replica 1 suggests in its own slot 2 just ahead of its ack, so
        // replica 0 has just answered it when slot 1 commits, and again
        // in slot 5 three milliseconds later.
        let own = |from: u64, upto: u64| Coord {
            from: Slot(from),
            ..skipped_below(upto)
        };
        let p1 = Puppet::new(
            usize::MAX,
            Coord::empty(Slot(2), Slot::NONE),
            vec![
                (SimDuration::ZERO, suggest_from(1, &[2], own(2, 5))),
                (
                    SimDuration::from_millis(3),
                    suggest_from(1, &[5], own(5, 8)),
                ),
            ],
        );
        let p2 = Puppet::new(usize::MAX, Coord::empty(Slot(3), Slot::NONE), Vec::new());
        let (mut sim, client) = replica_among_puppets(p1, p2);
        sim.actor_mut::<TestClient>(client).enqueue_put(1);
        sim.run_until(SimTime::from_millis(140));
        let acks_to_p1: Vec<(Vec<Slot>, Vec<Slot>)> = sim
            .actor::<Puppet>(ActorId(1))
            .seen
            .iter()
            .filter_map(|(_, m)| match m {
                MenciusMsg::SuggestOk { slots, coord, .. } => {
                    Some((slots.iter().collect(), coord.commits.iter().collect()))
                }
                MenciusMsg::Commit { .. } => panic!("busy link got a Commit of its own"),
                _ => None,
            })
            .collect();
        assert_eq!(
            acks_to_p1,
            [(vec![Slot(2)], vec![]), (vec![Slot(5)], vec![Slot(1)])],
            "the decision rode the next ack"
        );
        let p2 = sim.actor::<Puppet>(ActorId(2));
        let commit_at = p2.seen.iter().find_map(|(at, m)| match m {
            MenciusMsg::Commit { slots } if slots.iter().eq([Slot(1)]) => Some(*at),
            _ => None,
        });
        let ack_carrier_at = sim.actor::<Puppet>(ActorId(1)).seen[2].0;
        let commit_at = commit_at.expect("idle link got the decision on its own");
        // Sent about 3 ms before the carrier, but Ireland is 40 ms
        // further from Oregon than Ohio is.
        assert!(commit_at < ack_carrier_at + SimDuration::from_millis(40));
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
        let idle = MenciusMsg::SkipNotice {
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
            items: vec![(Slot(2), Command::noop())],
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
                    items.len() == 1 && items[0].0 == Slot(2) && items[0].1 == Command::noop()
                }
                _ => false,
            });
        assert!(told, "the owner learns its slot was decided a no-op");
        let rep = sim.actor::<MenciusReplica>(ActorId(0));
        assert_eq!(rep.decided_at(Slot(2)), Some(&Command::noop()));
    }

    fn notice(from: u64, upto: u64, commits: &[u64]) -> MenciusMsg {
        MenciusMsg::SkipNotice {
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
            items: vec![(Slot(5), Command::noop())],
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
            rep.rules.base.cells.get(Slot(7)).unwrap().committed,
            "the write to 105 is decided"
        );
        assert!(rep.rules.key_slots.contains(&(105, 5)));
        assert!(rep.rules.key_slots.contains(&(105, 7)));
        // The revocation's decision reaches replica 0 (Ireland is 62 ms
        // away; the script clock started when its first suggestion landed).
        sim.run_until(SimTime::from_millis(600));
        let rep = sim.actor::<MenciusReplica>(ActorId(0));
        assert_eq!(rep.decided_at(Slot(5)), Some(&Command::noop()));
        assert_eq!(rep.exec_index(), Slot(1), "slot 2 still blocks execution");
        assert!(!rep.rules.key_slots.contains(&(105, 5)), "un-indexed");
        assert!(rep.rules.key_slots.contains(&(105, 7)));
        assert_eq!(sim.actor::<TestClient>(client).replies.len(), 1);
        // Replica 1 accounts for its slot 2: the prefix runs through the
        // no-op and the write behind it.
        sim.run_until(SimTime::from_millis(900));
        let rep = sim.actor::<MenciusReplica>(ActorId(0));
        assert_eq!(rep.exec_index(), Slot(7));
        assert_eq!(sim.actor::<TestClient>(client).replies.len(), 2);
        assert!(rep.rules.key_slots.is_empty(), "nothing above the prefix");
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
        assert!(
            rep.rules.base.cells.get(Slot(13)).unwrap().committed
                && !rep.rules.base.cells.get(Slot(13)).unwrap().responded
        );
        sim.crash_at(ActorId(0), SimTime::from_millis(2000));
        sim.restart_at(ActorId(0), SimTime::from_millis(2100));
        // The client retries after 5 s; the retry lands in slot 16, is
        // decided, and replica 1 has accounted for everything below 20.
        sim.run_until(SimTime::from_secs(8));
        let rep = sim.actor::<MenciusReplica>(ActorId(0));
        assert_eq!(rep.exec_index(), Slot(10), "restored and re-executed");
        assert!(
            rep.rules.base.cells.get(Slot(16)).unwrap().committed,
            "the retry is decided"
        );
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
            .also(SimDuration::from_millis(400), chunk);
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
