//! The Raft family's rules — Figure 2 once, as [`ProtocolRules`] over the
//! shared [`ReplicaEngine`] and [`RaftBase`] — and Raft* (Figure 2
//! *including* the blue code) with the ported Paxos Quorum Lease
//! optimization (Raft*-PQL, Figure 8) and the Leader-Lease baseline as
//! read-mode options.
//!
//! [`RaftFamilyRules`] is the black code of Figure 2: the five message
//! arms, the leader's append, the leadership step and the commit tally,
//! written once. What Section 3 says differs between Raft and Raft* is a
//! [`Flavor`] — four functions, no state: [`Star`] here, `Plain` in
//! `raft.rs`. Raft* differs from Raft in exactly these two ways:
//!
//! 1. **No erasing.** A voter attaches the entries it has *beyond* the
//!    candidate's log to its `requestVoteOK` (`extra`), and the new
//!    leader extends its log with the safe value (highest ballot) per
//!    index, as every phase 1 picks it (`engine/phase1.rs`). An acceptor
//!    rejects an append whose result would be shorter than its own log
//!    (`lastIndex ≤ prev + length(ents)`), so follower logs are only ever
//!    overwritten or extended — the state transition maps onto Paxos
//!    `Accept`, never onto an impossible "un-accept".
//! 2. **Ballot rewriting.** Every entry carries a `bal` field; each
//!    accepted append makes `bal = term` for the whole covered prefix,
//!    so an `appendOK` at term `t` is a Paxos `acceptOK` at ballot `t`
//!    for every covered instance. This removes Raft's Section-5.4.2
//!    commit restriction: Raft*'s `LeaderLearn` commits the f-th largest
//!    follower match with **no entry-term check**. The rewrite is the
//!    [`Log`]'s ballot mark — [`Log::set_bal_upto`] records "every slot
//!    `≤ upto` has ballot `t`" in two words instead of looping over the
//!    log, which is the same state Figure 2 specifies and the same
//!    refinement mapping (`log.rs` module docs). The extras' ballots
//!    leave a voter through [`Log::suffix_from`]: effective ballots.
//!
//! Quorum leases are the engine's (`engine/lease.rs`); Figure 8 maps onto
//! this file as: `appendOK` carries the holders, `LeaderLearn` passes the
//! lease gate over the followers' matches, and a command enters the
//! engine's conflict index (`engine/conflicts.rs`) where it enters the
//! log.
//!
//! # Durability (group commit)
//!
//! With a [`crate::config::DurabilityConfig`] enabled, every log append
//! (follower *and* leader) is charged as a disk write, and any message
//! that **attests to log content** — `AppendOk` here — is routed
//! through [`EngineCore::ack_after_sync`] so it leaves only after an
//! fsync covers the write it attests to: an `AppendOk` for index *i* is
//! a promise that entry *i* survives a crash; if the ack could outrun the
//! fsync, a quorum could commit an entry that a crash then erases from
//! enough replicas to lose it. Symmetrically the *leader's own* copy
//! counts toward commit only up to [`RaftBase::durable_tail`], and the
//! engine's `on_durable` hook re-runs the tally when an fsync lands.
//! Vote/reject messages stay immediate: the model treats the tiny
//! term/vote metadata write as free and always-durable (terms survive
//! [`RaftBase::crash_reset`]), so a vote never attests to anything
//! volatile. An accepted append that *rewrites* log content (Raft's
//! truncation, Raft*'s [`Log::replace_suffix`]) first clamps the durable
//! watermark below the rewrite point — an fsync in flight for the old
//! suffix must not vouch for the new one. Raft*'s ballot rewrite *below*
//! `prev` ([`Log::set_bal_upto`]) is content-preserving and free like
//! the term metadata, so only entry payloads ride the modeled disk.

use std::marker::PhantomData;

use paxraft_sim::sim::{ActorId, Ctx};

use crate::config::ReplicaConfig;
use crate::engine::raft_family::{RaftBase, Role};
use crate::engine::slots::Run;
use crate::engine::{self, conflicts, lease, EngineCore, ProtocolRules, ReplicaEngine, T_LEASE};
use crate::kv::Command;
use crate::log::{Entry, Log};
use crate::msg::{Msg, RaftMsg};
use crate::snapshot::{Snapshot, SnapshotStats};
use crate::types::{max_failures, Slot, Term};

/// A Raft* replica, optionally running the ported PQL or LL read path:
/// the shared engine running [`RaftStarRules`].
pub type RaftStarReplica = ReplicaEngine<RaftStarRules>;

/// The Raft family's rules with Figure 2's blue code in.
pub type RaftStarRules = RaftFamilyRules<Star>;

/// What Section 3 says differs between Raft and Raft*: the vote, the
/// append acceptance, the commit rule and the ballot rewrite. Everything
/// else in [`RaftFamilyRules`] is common to both.
pub trait Flavor: 'static {
    /// The vote rule, on a request that already carries a newer term:
    /// `None` refuses; `Some` grants, with the entries the reply carries
    /// past the candidate's `last_idx`.
    fn vote(log: &Log, last_idx: Slot, last_term: Term) -> Option<Vec<Entry>>;

    /// The append acceptance rule, past the checks both flavors share
    /// (stale term, follower step, overlap with the compacted prefix):
    /// writes the entries of `round` past its first `skip` after `prev`
    /// and returns `(entries, bytes)` written, or refuses with the tail
    /// index the leader backs off to. A rewrite voids durability claims
    /// first ([`RaftBase::note_rewrite_from`]). Both flavors write through
    /// [`Log::replace_suffix`], which keeps the leader's blocks rather than
    /// copies of them wherever the follower's log can, and counts what it
    /// keeps as written, so the costs charged are a copy's.
    fn accept(
        base: &mut RaftBase,
        prev: Slot,
        prev_term: Term,
        round: &Run<Entry>,
        skip: usize,
        term: Term,
    ) -> Result<(usize, usize), Slot>;

    /// Whether a leader at `term` may commit `target` once a quorum
    /// holds it.
    fn commits(log: &Log, target: Slot, term: Term) -> bool;

    /// The leader extended its own log at `term` (a batch, or the no-op
    /// of a new leadership).
    fn rewrite_ballots(log: &mut Log, term: Term);
}

/// Raft*: Figure 2's blue code.
pub struct Star;

impl Flavor for Star {
    /// Grant when our log's ballot (== last entry term, by the
    /// uniform-ballot invariant) does not exceed the candidate's, and
    /// attach what the candidate lacks. With compaction there is one more
    /// condition: a candidate whose log ends below our compaction floor
    /// cannot be completed by extras (the entries are gone), so we refuse
    /// — it catches up from the eventual winner via the snapshot path.
    fn vote(log: &Log, last_idx: Slot, last_term: Term) -> Option<Vec<Entry>> {
        let granted = log.last_term() <= last_term && last_idx >= log.last_included().0;
        granted.then(|| log.suffix_from(last_idx))
    }

    /// Figure 2b `RecieveAppend`: match on `prev` AND never let the log
    /// shrink (`lastIndex ≤ prev + length(ents)`); then the whole suffix
    /// after `prev` is the round's ([`Log::replace_suffix`] — the leader's
    /// cells themselves where the log can hold them, a clone elsewhere)
    /// and every covered ballot becomes `term`, so no stored ballot of
    /// the suffix is ever read.
    fn accept(
        base: &mut RaftBase,
        prev: Slot,
        prev_term: Term,
        round: &Run<Entry>,
        skip: usize,
        term: Term,
    ) -> Result<(usize, usize), Slot> {
        let new_last = Slot(prev.0 + round.len().saturating_sub(skip) as u64);
        if !base.log.matches(prev, prev_term) || new_last < base.log.last_index() {
            return Err(base.log.last_index());
        }
        base.note_rewrite_from(prev.next());
        let wrote = base.log.replace_suffix(prev, round, skip);
        base.log.set_bal_upto(new_last, term);
        Ok(wrote)
    }

    /// `LeaderLearn` needs no entry-term check: an `appendOK` at `term`
    /// is an `acceptOK` at that ballot for every covered instance.
    fn commits(_log: &Log, _target: Slot, _term: Term) -> bool {
        true
    }

    /// Figure 2b lines 6-7: all ballots become the new entry's term.
    fn rewrite_ballots(log: &mut Log, term: Term) {
        log.set_bal_upto(log.last_index(), term);
    }
}

/// The Raft family's [`ProtocolRules`]: Figure 2 with the [`Flavor`]'s
/// four rules plugged in.
pub struct RaftFamilyRules<F: Flavor> {
    flavor: PhantomData<F>,
    base: RaftBase,
}

impl<F: Flavor> ReplicaEngine<RaftFamilyRules<F>> {
    /// Creates a replica; under Raft* `cfg.read_mode` selects Raft*
    /// (`LogRead`), LL (`LeaderLease`) or Raft*-PQL (`QuorumLease`).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, or asks for a lease read
    /// mode under a flavor whose commit rule checks entry terms: Figure
    /// 8's holder gate is `Learn`'s, which commits on the count alone.
    pub fn new(cfg: ReplicaConfig) -> Self {
        cfg.validate().expect("invalid replica config");
        let core = EngineCore::new(cfg);
        // The probe: a slot the log knows no term for, on a quorum.
        assert!(
            core.lease.is_none() || F::commits(&Log::new(), Slot(1), Term::ZERO),
            "lease reads port to Raft*, not to Raft's 5.4.2 commit rule: use RaftStarReplica"
        );
        ReplicaEngine::from_parts(
            core,
            RaftFamilyRules {
                flavor: PhantomData,
                base: RaftBase::default(),
            },
        )
    }

    /// Current term.
    pub fn current_term(&self) -> Term {
        self.rules.base.current_term
    }

    /// The log (for convergence and invariant tests).
    pub fn log(&self) -> &Log {
        &self.rules.base.log
    }

    /// Commit index.
    pub fn commit_index(&self) -> Slot {
        self.rules.base.commit_index
    }
}

impl<F: Flavor> RaftFamilyRules<F> {
    /// Figure 2a `RequestVote`.
    fn start_election(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        self.base.begin_election(core, ctx);
        self.try_become_leader(core, ctx);
    }

    /// Figure 2a `BecomeLeader`: append the safe entries the voters'
    /// extras hold past our log (`engine/phase1.rs`), their term and
    /// ballot rewritten to the new term. Raft's voters send none, so it
    /// adopts nothing.
    fn try_become_leader(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        if self.base.role != Role::Candidate || !self.base.candidacy.won(core.cfg.n) {
            return;
        }
        let (my_last, term) = (self.base.log.last_index(), self.base.current_term);
        let (mut merged_bytes, mut merged) = (0, 0);
        let safe = (my_last.0 + 1..=self.base.candidacy.tail.0).map(Slot);
        for (_, cmd) in self.base.candidacy.adopt(safe) {
            // Figure 2a lines 25-27: bal and term become currentTerm.
            let e = Entry {
                term,
                bal: term,
                cmd,
            };
            merged_bytes += e.size_bytes();
            merged += 1;
            self.base.log.append(e);
        }
        conflicts::index(core, self.commands(my_last.next()), true);
        self.base.role = Role::Leader;
        core.leader_hint = Some(core.cfg.id);
        core.pipe.reset_for_leadership(self.base.log.last_index());
        // A fresh no-op carries the term forward: progress for Raft*,
        // and what lets Raft commit the tail of its log under the
        // Section-5.4.2 restriction. Followers are optimistically assumed
        // to hold our pre-existing log.
        let noop = Entry {
            term,
            bal: term,
            cmd: Command::noop(),
        };
        merged_bytes += noop.size_bytes();
        merged += 1;
        self.base.log.append(noop);
        F::rewrite_ballots(&mut self.base.log, term);
        // The merged extras and the no-op are new log content on this
        // node's disk (the ballot rewrite of older entries is free
        // metadata — see the module docs).
        self.base
            .note_append_durable(core, ctx, merged_bytes, merged, self.base.log.last_index());
        self.base.broadcast_append(core, ctx);
        core.arm_heartbeat(ctx);
        engine::flush_pending(self, core, ctx);
    }

    /// The commands of log slots `from` on (the conflict index).
    fn commands(&self, from: Slot) -> impl Iterator<Item = (Slot, &Command)> {
        let log = &self.base.log;
        let held = move |s| Some((Slot(s), &log.get(Slot(s))?.cmd));
        (from.0..=log.last_index().0).filter_map(held)
    }

    /// Figure 2b `LeaderLearn` — the f-th largest follower match, where
    /// the flavor's commit rule allows it — with Figure 8's lease gate.
    fn advance_commit(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        if self.base.role != Role::Leader {
            return;
        }
        let f = max_failures(core.cfg.n);
        // The f-th largest follower match is replicated on f followers +
        // the leader = a majority — but the leader's copy only counts
        // once locally fsynced (no-op when durability is disabled; the
        // engine's `on_durable` hook re-runs this tally as syncs land).
        // Without the clamp, f durable followers plus the leader's
        // volatile copy could commit an entry that a leader crash erases
        // from the one replica a future election quorum might count on.
        let tally = core.pipe.kth_largest_match(f, core.cfg.id);
        let target = tally.min(self.base.durable_tail(core));
        // Every lease holder must have matched the commit point.
        let gated = lease::gated(core, target, self.base.commit_index, ctx.now());
        // Span bookkeeping: the replication-quorum instant is the
        // pre-clamp tally — from there only the fsync holds commit back —
        // except under the lease gate, where the gate is part of
        // consensus wait (booked to replication), so the quorum mark
        // follows the gated target instead.
        let term = self.base.current_term;
        let (target, mark) = gated.map_or((target, tally), |gated| (gated, gated));
        if F::commits(&self.base.log, mark, term) {
            self.base.note_quorum(ctx, mark);
        }
        if target > self.base.commit_index && F::commits(&self.base.log, target, term) {
            self.base.commit_index = target;
            self.base.apply_committed(core, ctx);
        }
    }

    fn on_raft(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, from: ActorId, msg: RaftMsg) {
        match msg {
            RaftMsg::RequestVote {
                term,
                last_idx,
                last_term,
            } => {
                if term > self.base.current_term {
                    // Decide on the log as it stands, then adopt the term.
                    let extras = F::vote(&self.base.log, last_idx, last_term);
                    self.base.step_down(core, term, ctx);
                    core.leader_hint = None;
                    ctx.send(
                        from,
                        Msg::Raft(RaftMsg::Vote {
                            term,
                            granted: extras.is_some(),
                            extra_start: last_idx.next(),
                            extra: extras.unwrap_or_default(),
                        }),
                    );
                }
            }
            RaftMsg::Vote {
                term,
                granted,
                extra_start,
                extra,
            } => {
                if term > self.base.current_term {
                    self.base.step_down(core, term, ctx);
                } else if term == self.base.current_term
                    && granted
                    && self.base.role == Role::Candidate
                {
                    // `bal` is the voter's effective ballot (`suffix_from`).
                    let tail = Slot(extra_start.0 + extra.len() as u64).prev();
                    let report = (extra_start.0..).map(Slot).zip(extra);
                    let report = report.map(|(s, e)| (s, e.bal, e.cmd));
                    let voter = core.cfg.node_of(from);
                    self.base.candidacy.grant(voter, report, tail, Slot::NONE);
                    self.try_become_leader(core, ctx);
                }
            }
            RaftMsg::Append {
                term,
                prev,
                prev_term,
                entries,
                commit,
                window_room,
                ..
            } => {
                if term < self.base.current_term {
                    ctx.send(
                        from,
                        Msg::Raft(RaftMsg::AppendReject {
                            term: self.base.current_term,
                            last_idx: self.base.log.last_index(),
                        }),
                    );
                    return;
                }
                self.base.current_term = term;
                self.base.role = Role::Follower;
                core.leader_hint = Some(term.owner(core.cfg.n));
                core.note_window_hint(window_room, ctx.now());
                self.base.arm_election(core, ctx);
                let bytes: usize = entries.iter().map(|(_, e)| e.size_bytes()).sum();
                ctx.charge(
                    core.cfg.costs.append_fixed
                        + core.cfg.costs.append_per_cmd * entries.len().max(1) as u64
                        + core.cfg.costs.size_cost(bytes),
                );
                // Entries at or below our compaction floor are applied
                // committed state: skip the overlap and anchor the
                // consistency check at the floor.
                let (floor, floor_term) = self.base.log.last_included();
                let (prev, prev_term, overlap) = if prev < floor {
                    let overlap = (floor.0 - prev.0) as usize;
                    if entries.len() <= overlap {
                        let holders = lease::holders(core, ctx.now());
                        // Attests to log content: rides the
                        // ack-after-fsync path (immediate when nothing
                        // is unsynced).
                        let ok = Msg::Raft(RaftMsg::AppendOk {
                            term: self.base.current_term,
                            last_idx: floor,
                            holders,
                        });
                        core.ack_after_sync(ctx, from, ok);
                        return;
                    }
                    (floor, floor_term, overlap)
                } else {
                    (prev, prev_term, 0)
                };
                let new_last = Slot(prev.0 + (entries.len() - overlap) as u64);
                // The suffix the append may rewrite leaves the conflict
                // index, and what the log then holds re-enters.
                let rewrite = prev.max(self.base.last_applied).next();
                conflicts::index(core, self.commands(rewrite), false);
                let accepted = F::accept(&mut self.base, prev, prev_term, &entries, overlap, term);
                conflicts::index(core, self.commands(rewrite), true);
                let (appended, written) = match accepted {
                    Ok(wrote) => wrote,
                    Err(last_idx) => {
                        ctx.send(
                            from,
                            Msg::Raft(RaftMsg::AppendReject {
                                term: self.base.current_term,
                                last_idx,
                            }),
                        );
                        return;
                    }
                };
                if appended > 0 {
                    self.base
                        .note_append_durable(core, ctx, written, appended, new_last);
                }
                if commit > self.base.commit_index {
                    self.base.commit_index = Slot(commit.0.min(new_last.0));
                    self.base.apply_committed(core, ctx);
                }
                // Phase2b Δ: attach the holders we granted. The appendOK
                // is a Paxos acceptOK for every covered instance — it
                // leaves only after the fsync covering the suffix it
                // vouches for (group commit batches it).
                let holders = lease::holders(core, ctx.now());
                let ok = Msg::Raft(RaftMsg::AppendOk {
                    term: self.base.current_term,
                    last_idx: new_last,
                    holders,
                });
                core.ack_after_sync(ctx, from, ok);
            }
            RaftMsg::AppendOk {
                term,
                last_idx,
                holders,
            } => {
                if term > self.base.current_term {
                    self.base.step_down(core, term, ctx);
                } else if term == self.base.current_term && self.base.role == Role::Leader {
                    ctx.charge(core.cfg.costs.ack_process);
                    let peer = core.cfg.node_of(from);
                    lease::report(core, peer, holders);
                    core.pipe.on_ack(peer, last_idx);
                    // Advance on a match step — or on holder reports
                    // alone, which may still unblock the lease gate.
                    self.advance_commit(core, ctx);
                    // The freed window slot may have a backlog waiting.
                    self.base.pump(core, ctx, peer);
                }
            }
            RaftMsg::AppendReject { term, last_idx } => {
                if term > self.base.current_term {
                    self.base.step_down(core, term, ctx);
                } else if term == self.base.current_term && self.base.role == Role::Leader {
                    let peer = core.cfg.node_of(from);
                    // In-flight rounds to that follower are dead, and
                    // its cursor backs off toward the follower's tail.
                    core.pipe.on_reject(peer, last_idx);
                    // Re-probe for a prev mismatch; when the follower's
                    // log is simply longer than ours (the Raft* "no
                    // shrink" rule), wait for new appends instead of
                    // ping-ponging rejects.
                    if last_idx <= self.base.log.last_index() {
                        self.base.send_append_to(core, ctx, peer);
                    }
                }
            }
        }
    }
}

impl<F: Flavor> ProtocolRules for RaftFamilyRules<F> {
    fn can_propose(&self, _core: &EngineCore) -> bool {
        self.base.role == Role::Leader
    }

    fn applied_index(&self, _core: &EngineCore) -> Slot {
        self.base.last_applied
    }

    /// Figure 2b `AppendEntries` (leader side): append the batch, rewrite
    /// ballots (Raft*), replicate.
    fn propose(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, cmds: &mut Vec<Command>) {
        let first_new = self.base.log.last_index().next();
        let count = cmds.len();
        let mut bytes = 0;
        for cmd in cmds.drain(..) {
            let e = Entry {
                term: self.base.current_term,
                bal: self.base.current_term,
                cmd,
            };
            bytes += e.size_bytes();
            self.base.log.append(e);
        }
        F::rewrite_ballots(&mut self.base.log, self.base.current_term);
        // The leader's own copy is a disk write too; LeaderLearn is
        // clamped by `durable_tail` until its fsync lands.
        self.base
            .note_append_durable(core, ctx, bytes, count, self.base.log.last_index());
        conflicts::index(core, self.commands(first_new), true);
        self.base.broadcast_append(core, ctx);
    }

    fn log_tail(&self) -> Slot {
        self.base.log.last_index()
    }

    fn on_start(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        self.base.arm_election(core, ctx);
    }

    fn on_election_timeout(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        self.start_election(core, ctx);
    }

    fn on_heartbeat(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        self.base.heartbeat(core, ctx);
    }

    /// After a lease renewal, expired holders may unblock commits.
    fn on_timer(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, kind: u64, _token: u64) {
        if kind == T_LEASE {
            self.advance_commit(core, ctx);
        }
    }

    fn on_msg(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, from: ActorId, msg: Msg) {
        if let Msg::Raft(m) = msg {
            self.on_raft(core, ctx, from, m);
        }
    }

    fn accept_snapshot_chunk(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        from: ActorId,
        seal: Term,
    ) -> bool {
        self.base.accept_snapshot_chunk(core, ctx, from, seal)
    }

    /// Installs a fully reassembled snapshot received from the leader.
    /// (The shared helper's log replacement is safe for Raft* too: the
    /// "no erasing" restriction is about live appends, and any
    /// accepted-but-uncommitted value discarded here is retained by the
    /// up-to-date leader that shipped the snapshot.)
    fn install_snapshot(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        from: ActorId,
        snap: Snapshot,
    ) {
        if self.base.install_snapshot(core, ctx, snap) {
            conflicts::reindex(core, self.commands(self.base.last_applied.next()));
            let leading = self.base.role == Role::Leader;
            lease::serve_parked(core, ctx, self.base.last_applied, leading);
        }
        self.base.ack_snapshot(core, ctx, from);
    }

    fn on_snapshot_ack(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        from: ActorId,
        seal: Term,
        upto: Slot,
    ) {
        if self.base.on_snapshot_ack(core, ctx, from, seal, upto) {
            self.advance_commit(core, ctx);
        }
    }

    fn decorate_stats(&self, stats: &mut SnapshotStats) {
        self.base.decorate_stats(stats);
    }

    fn on_durable(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) -> bool {
        // An fsync landed: absorb the new durable watermark and re-run
        // LeaderLearn — the leader's own contribution may have just
        // become countable. The commit rides the next append: nothing
        // waits on a link.
        self.base.absorb_synced(core);
        self.advance_commit(core, ctx);
        false
    }

    fn on_crash(&mut self, core: &mut EngineCore, floor: Slot) {
        // Persistent: term and log. Volatile: everything else.
        self.base.crash_reset(core, floor);
        // The retained log above the restored prefix applies again.
        conflicts::reindex(core, self.commands(self.base.last_applied.next()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{cluster_with, drive_until, TestClient};
    use crate::types::NodeId;
    use paxraft_sim::sim::Simulation;
    use paxraft_sim::time::{SimDuration, SimTime};

    fn star_cluster(n: usize) -> (Simulation<Msg>, Vec<ActorId>, ActorId) {
        cluster_with(n, |mut cfg| {
            cfg.initial_leader = Some(NodeId(0));
            Box::new(RaftStarReplica::new(cfg))
        })
    }

    /// Figure 2's `ents` carry their ballots, and a Raft* `Append` states
    /// every one as its `term`: `BecomeLeader` and each append rewrite
    /// the ballots of the leader's whole log, so no mark travels. Every
    /// round cut over a run with a leader change, read through
    /// `slots::tests::recording`, is checked against the leader it was
    /// cut from: each of its entries is the leader's at that slot, with
    /// the leader's term as its effective ballot.
    #[test]
    fn every_entry_of_an_append_has_its_term_as_ballot() {
        use crate::engine::slots::tests::recording;
        let (mut sim, replicas, client) = star_cluster(5);
        sim.actor_mut::<TestClient>(client).target = replicas[1];
        let mut terms = std::collections::BTreeSet::new();
        let mut run = |sim: &mut Simulation<Msg>, writes: usize| {
            let deadline = sim.now() + SimDuration::from_secs(20);
            while sim.actor::<TestClient>(client).replies.len() < writes {
                assert!(sim.now() < deadline, "{writes} writes answered");
                let step = || sim.run_for(SimDuration::from_millis(1));
                let ((), cuts) = recording::<Entry, _>(step);
                for cut in cuts.iter().filter(|cut| !cut.held.is_empty()) {
                    let (first, entry) = &cut.held[0];
                    let cut_from = |rep: &&RaftStarReplica| {
                        let held = rep.log().get(*first);
                        rep.is_leader() && held.is_some_and(|e| e.cmd.id == entry.cmd.id)
                    };
                    let mut leaders = replicas.iter().map(|&r| sim.actor::<RaftStarReplica>(r));
                    let leader = leaders.find(cut_from).expect("a leader's round");
                    let term = leader.current_term();
                    for (s, e) in &cut.held {
                        assert_eq!(leader.log().get(*s).map(|x| x.cmd.id), Some(e.cmd.id));
                        assert_eq!(leader.log().bal_at(*s), Some(term), "slot {s} at {term}");
                    }
                    terms.insert(term);
                }
            }
        };
        for k in 0..10 {
            sim.actor_mut::<TestClient>(client).enqueue_put(k);
        }
        run(&mut sim, 10);
        // The leader dies; the next one's rounds carry what it merged.
        sim.crash_at(replicas[0], sim.now() + SimDuration::from_millis(1));
        for k in 10..20 {
            sim.actor_mut::<TestClient>(client).enqueue_put(k);
        }
        run(&mut sim, 20);
        assert!(terms.len() >= 2, "rounds of two leaderships: {terms:?}");
    }

    #[test]
    fn logs_converge_with_uniform_ballots() {
        let (mut sim, replicas, client) = star_cluster(3);
        for k in 0..10 {
            sim.actor_mut::<TestClient>(client).enqueue_put(k);
        }
        assert!(drive_until(&mut sim, SimTime::from_secs(10), |sim| {
            sim.actor::<TestClient>(client).replies.len() == 10
        }));
        sim.run_for(SimDuration::from_secs(1));
        for &r in &replicas {
            let rep = sim.actor::<RaftStarReplica>(r);
            let last_term = rep.log().last_term();
            // LogBallotInv (Appendix B.2): every entry's ballot equals the
            // term of the last accepted append.
            for (s, bal, _) in rep.log().iter() {
                assert_eq!(bal, last_term, "uniform ballot at {s}");
            }
        }
        let log0: Vec<_> = sim
            .actor::<RaftStarReplica>(replicas[0])
            .log()
            .iter()
            .map(|(s, _, e)| (s, e.cmd.id))
            .collect();
        for &r in &replicas[1..] {
            let lr: Vec<_> = sim
                .actor::<RaftStarReplica>(r)
                .log()
                .iter()
                .map(|(s, _, e)| (s, e.cmd.id))
                .collect();
            assert_eq!(lr, log0);
        }
    }

    #[test]
    fn extras_preserve_committed_entries_for_lagging_candidate() {
        // Node 2 misses all appends (partitioned), then campaigns first
        // after the leader dies. Voter 1's extras must carry the
        // committed entries into node 2's log.
        let (mut sim, replicas, client) = cluster_with(3, |mut cfg| {
            cfg.initial_leader = Some(NodeId(0));
            // Make node 2 campaign well before node 1 after the crash.
            if cfg.id == NodeId(2) {
                cfg.election_min = SimDuration::from_millis(400);
                cfg.election_max = SimDuration::from_millis(500);
            } else {
                cfg.election_min = SimDuration::from_millis(4_000);
                cfg.election_max = SimDuration::from_millis(5_000);
            }
            Box::new(RaftStarReplica::new(cfg))
        });
        // First replicate one entry everywhere so node 2 shares the
        // leader's term (the Raft* vote rule compares log ballots).
        sim.actor_mut::<TestClient>(client).enqueue_put(6);
        assert!(drive_until(&mut sim, SimTime::from_secs(5), |sim| {
            sim.actor::<TestClient>(client).replies.len() == 1
        }));
        sim.run_for(SimDuration::from_millis(400)); // heartbeat reaches 2
                                                    // Cut node 2 off while further entries commit on {0, 1}.
        sim.partition_at(vec![0, 0, 1, 0], sim.now() + SimDuration::from_millis(1));
        sim.actor_mut::<TestClient>(client).enqueue_put(7);
        sim.actor_mut::<TestClient>(client).enqueue_put(8);
        assert!(drive_until(&mut sim, SimTime::from_secs(8), |sim| {
            sim.actor::<TestClient>(client).replies.len() == 3
        }));
        // Leader dies; partition heals; 2 campaigns with a short log.
        let now = sim.now();
        sim.crash_at(replicas[0], now + SimDuration::from_millis(1));
        sim.heal_at(now + SimDuration::from_millis(2));
        assert!(drive_until(&mut sim, SimTime::from_secs(20), |sim| {
            sim.actor::<RaftStarReplica>(replicas[2]).is_leader()
        }));
        // The new leader must have merged the committed writes.
        sim.actor_mut::<TestClient>(client).target = replicas[2];
        sim.actor_mut::<TestClient>(client).enqueue_get(7);
        assert!(drive_until(&mut sim, SimTime::from_secs(30), |sim| {
            sim.actor::<TestClient>(client).replies.len() == 4
        }));
        let c = sim.actor::<TestClient>(client);
        assert!(
            c.replies[3].1.value_id().is_some(),
            "committed write survived leader change via vote extras"
        );
    }
}
