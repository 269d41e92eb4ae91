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
//!    index. An acceptor rejects an append whose result would be shorter
//!    than its own log (`lastIndex ≤ prev + length(ents)`), so follower
//!    logs are only ever overwritten or extended — the state transition
//!    maps onto Paxos `Accept`, never onto an impossible "un-accept".
//! 2. **Ballot rewriting.** Every entry carries a `bal` field; each
//!    accepted append makes `bal = term` for the whole covered prefix,
//!    so an `appendOK` at term `t` is a Paxos `acceptOK` at ballot `t`
//!    for every covered instance. This removes Raft's Section-5.4.2
//!    commit restriction: Raft*'s `LeaderLearn` commits the f-th largest
//!    follower match with **no entry-term check**. The rewrite is the
//!    [`Log`]'s ballot mark — [`Log::set_bal_upto`] records "every slot
//!    `≤ upto` has ballot `t`" in two words instead of looping over the
//!    log, which is the same state Figure 2 specifies and the same
//!    refinement mapping (`log.rs` module docs). The ballots this file
//!    *reads* — the safe-value pick over vote-reply extras — arrive
//!    through [`Log::suffix_from`], which hands out effective ballots.
//!
//! The `[PQL]`-marked blocks are the mechanical port of Paxos Quorum
//! Lease under the refinement mapping (Figure 8): `Phase2b`'s holder
//! attachment maps to `appendOK`, `Learn`'s holder-quorum check maps to
//! `LeaderLearn` *including the leader's own grants* (the implicit
//! `acceptOK`), and the added `LocalRead` action waits until every log
//! entry touching the key is `≤ commitIndex` and applied. The local-read
//! intercept rides the engine's [`ProtocolRules::try_serve_local`] hook,
//! so it applies uniformly to direct and forwarded requests.
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

use std::collections::HashMap;
use std::marker::PhantomData;

use paxraft_sim::sim::{ActorId, Ctx};
use paxraft_sim::time::SimDuration;

use crate::config::{ReadMode, ReplicaConfig};
use crate::engine::raft_family::{RaftBase, Role};
use crate::engine::{self, EngineCore, ProtocolRules, ReplicaEngine, T_LEASE};
use crate::kv::{Command, Key, Op};
use crate::log::{Entry, Log};
use crate::msg::{LeaseMsg, Msg, RaftMsg};
use crate::pql::LeaseManager;
use crate::snapshot::{Snapshot, SnapshotStats};
use crate::types::{max_failures, me_bit, quorum, NodeId, Slot, Term};

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
    /// writes `entries` after `prev` and returns `(entries, bytes)`
    /// written, or refuses with the tail index the leader backs off to.
    /// A rewrite voids durability claims first
    /// ([`RaftBase::note_rewrite_from`]).
    fn accept(
        base: &mut RaftBase,
        prev: Slot,
        prev_term: Term,
        entries: &[Entry],
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
    /// after `prev` is rewritten and every covered ballot becomes `term`.
    fn accept(
        base: &mut RaftBase,
        prev: Slot,
        prev_term: Term,
        entries: &[Entry],
        term: Term,
    ) -> Result<(usize, usize), Slot> {
        let new_last = Slot(prev.0 + entries.len() as u64);
        if !base.log.matches(prev, prev_term) || new_last < base.log.last_index() {
            return Err(base.log.last_index());
        }
        base.note_rewrite_from(prev.next());
        base.log.replace_suffix(prev, entries.iter().cloned());
        base.log.set_bal_upto(new_last, term);
        let bytes = entries.iter().map(Entry::size_bytes).sum();
        Ok((entries.len(), bytes))
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
/// four rules plugged in, the `[PQL]` read paths inert without a lease.
pub struct RaftFamilyRules<F: Flavor> {
    flavor: PhantomData<F>,
    base: RaftBase,
    /// Raft*: extras received from voters, keyed by voter.
    vote_extras: HashMap<NodeId, (Slot, Vec<Entry>)>,
    /// [PQL] Last lease-holder set reported by each follower's appendOK.
    reported_holders: Vec<u64>,
    /// [PQL] Lease state (present in LeaderLease/QuorumLease modes).
    lease: Option<LeaseManager>,
    /// [PQL] Highest log slot writing each key (conflict check for local
    /// reads; conservative across overwrites).
    key_last_write: HashMap<Key, Slot>,
    /// [PQL] Local reads waiting for a conflicting write to apply:
    /// `(command, serve once last_applied ≥ slot)`.
    parked_reads: Vec<(Command, Slot)>,
    /// [PQL] Key ranges frozen by an in-log, possibly not-yet-applied
    /// `FreezeRange`: `(slot, lo, hi)`. A lease-local read of a covered
    /// key must wait for that slot to apply — the applied shard state
    /// then redirects it — or the lease holder would serve a copy that
    /// is already migrating (writes land in the destination group from
    /// the freeze on, which never consults this replica's lease).
    /// Pruned as slots apply.
    frozen_in_log: Vec<(Slot, Key, Key)>,
    /// [PQL] Reads served from the local copy (stats).
    local_reads_served: u64,
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
        let n = cfg.n;
        let lease = match cfg.read_mode {
            ReadMode::LogRead => None,
            mode => Some(LeaseManager::new(cfg.lease.clone(), mode, n, cfg.id)),
        };
        // The probe: a slot the log knows no term for, on a quorum.
        assert!(
            lease.is_none() || F::commits(&Log::new(), Slot(1), Term::ZERO),
            "lease reads port to Raft*, not to Raft's 5.4.2 commit rule: use RaftStarReplica"
        );
        ReplicaEngine::from_parts(
            EngineCore::new(cfg),
            RaftFamilyRules {
                flavor: PhantomData,
                base: RaftBase::new(n),
                vote_extras: HashMap::new(),
                reported_holders: vec![0; n],
                lease,
                key_last_write: HashMap::new(),
                parked_reads: Vec::new(),
                frozen_in_log: Vec::new(),
                local_reads_served: 0,
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

    /// Lease state (tests).
    pub fn lease(&self) -> Option<&LeaseManager> {
        self.rules.lease.as_ref()
    }

    /// `[PQL]` Reads served from the local copy (stats).
    pub fn local_reads_served(&self) -> u64 {
        self.rules.local_reads_served
    }
}

/// [PQL] Figure 8's holder gate on a commit target: shrinks `target`
/// (never below `floor`) until every lease holder has matched it, where
/// the holders are `granted` (the leader's own grants) united with what
/// each of `followers` that matched the target last `reported` — holder
/// sets as bitmasks, one bit per replica; the leader's own bit asks
/// nothing of anybody.
fn holder_gate(
    mut target: Slot,
    floor: Slot,
    granted: u64,
    reported: &[u64],
    followers: impl Iterator<Item = NodeId> + Clone,
    matched: impl Fn(NodeId) -> Slot,
) -> Slot {
    while target > floor {
        let responders = followers.clone().filter(|p| matched(*p) >= target);
        let holders = responders.fold(granted, |set, p| set | reported[p.0 as usize]);
        let lagging = followers.clone().filter(|p| holders & me_bit(*p) != 0);
        let limit = lagging.map(&matched).fold(target, Slot::min);
        if limit >= target {
            break;
        }
        target = limit;
    }
    target
}

impl<F: Flavor> RaftFamilyRules<F> {
    /// Figure 2a `RequestVote`.
    fn start_election(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        self.vote_extras.clear();
        self.base.begin_election(core, ctx);
        self.try_become_leader(core, ctx);
    }

    /// Figure 2a `BecomeLeader`: merge the safe entries from voter extras
    /// (highest `bal` per index), rewriting their term and ballot to the
    /// new term. Raft's voters send none, so it merges nothing.
    fn try_become_leader(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        if self.base.role != Role::Candidate
            || (self.base.votes.count_ones() as usize) < quorum(core.cfg.n)
        {
            return;
        }
        let my_last = self.base.log.last_index();
        let max_end = self
            .vote_extras
            .values()
            .map(|(start, ents)| Slot(start.0 + ents.len() as u64).prev())
            .max()
            .unwrap_or(Slot::NONE);
        let mut merged_bytes = 0usize;
        let mut merged = 0usize;
        let mut idx = my_last.next();
        while idx <= max_end {
            let mut best: Option<&Entry> = None;
            for (start, ents) in self.vote_extras.values() {
                if idx.0 >= start.0 {
                    if let Some(e) = ents.get((idx.0 - start.0) as usize) {
                        // Extras left the voter through `suffix_from`:
                        // `bal` is the voter's effective ballot.
                        if best.map(|b| e.bal > b.bal).unwrap_or(true) {
                            best = Some(e);
                        }
                    }
                }
            }
            let cmd = best.map(|e| e.cmd.clone()).unwrap_or_else(Command::noop);
            // Figure 2a lines 25-27: bal and term become currentTerm.
            let e = Entry {
                term: self.base.current_term,
                bal: self.base.current_term,
                cmd,
            };
            merged_bytes += e.size_bytes();
            merged += 1;
            self.base.log.append(e);
            idx = idx.next();
        }
        self.index_writes_from(my_last.next());
        self.base.role = Role::Leader;
        core.leader_hint = Some(core.cfg.id);
        self.base
            .repl
            .reset_for_leadership(self.base.log.last_index());
        core.pipe.reset();
        // A fresh no-op carries the term forward: progress for Raft*,
        // and what lets Raft commit the tail of its log under the
        // Section-5.4.2 restriction. Followers are optimistically assumed
        // to hold our pre-existing log.
        let noop = Entry {
            term: self.base.current_term,
            bal: self.base.current_term,
            cmd: Command::noop(),
        };
        merged_bytes += noop.size_bytes();
        merged += 1;
        self.base.log.append(noop);
        F::rewrite_ballots(&mut self.base.log, self.base.current_term);
        // The merged extras and the no-op are new log content on this
        // node's disk (the ballot rewrite of older entries is free
        // metadata — see the module docs).
        self.base
            .note_append_durable(core, ctx, merged_bytes, merged, self.base.log.last_index());
        self.base.broadcast_append(core, ctx);
        core.arm_heartbeat(ctx);
        engine::flush_pending(self, core, ctx);
    }

    /// [PQL] Records key→slot (and in-log freeze ranges) for entries
    /// from `from` onward.
    fn index_writes_from(&mut self, from: Slot) {
        if self.lease.is_none() {
            return;
        }
        // Slots from `from` on are being (re)written — an append can
        // overwrite an uncommitted suffix, so drop their old records
        // and re-index from the log.
        self.frozen_in_log.retain(|(s, _, _)| *s < from);
        let mut s = from;
        while let Some(e) = self.base.log.get(s) {
            match &e.cmd.op {
                Op::Put { key, .. } => {
                    self.key_last_write.insert(*key, s);
                }
                Op::FreezeRange(range) => self.frozen_in_log.push((s, range.lo, range.hi)),
                _ => {}
            }
            s = s.next();
        }
    }

    /// Figure 2b `LeaderLearn` — the f-th largest follower match, where
    /// the flavor's commit rule allows it — with the [PQL] holder gate of
    /// Figure 8.
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
        let tally = self.base.repl.kth_largest_match(f, core.cfg.id);
        let mut target = tally.min(self.base.durable_tail(core));
        let lease_gated = self
            .lease
            .as_ref()
            .is_some_and(|l| l.mode() == ReadMode::QuorumLease);
        // [PQL] holderSet = holders reported by the *responders* (the
        // followers whose appendOKs form this commit's quorum) ∪ holders
        // granted by the leader itself (the implicit appendOK). Every
        // holder must have acknowledged up to the commit point. The loop
        // shrinks the target until the holder condition holds; stale
        // reports from non-responding (e.g. crashed) followers are never
        // consulted, so an expired holder stops gating writes.
        if let Some(lease) = self.lease.as_ref().filter(|_| lease_gated) {
            let granted = lease.current_holders(ctx.now());
            let matched = |p: NodeId| self.base.repl.match_index(p);
            let followers = core.cfg.others();
            target = holder_gate(
                target,
                self.base.commit_index,
                granted,
                &self.reported_holders,
                followers,
                matched,
            );
        }
        // Span bookkeeping: the replication-quorum instant is the
        // pre-clamp tally — from there only the fsync holds commit back —
        // except under the PQL holder gate, where the gate is part of
        // consensus wait (booked to replication), so the quorum mark
        // follows the gated target instead.
        let term = self.base.current_term;
        let mark = if lease_gated { target } else { tally };
        if F::commits(&self.base.log, mark, term) {
            self.base.note_quorum(ctx, mark);
        }
        if target > self.base.commit_index && F::commits(&self.base.log, target, term) {
            self.base.commit_index = target;
            self.apply_committed(core, ctx);
        }
    }

    fn apply_committed(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        self.base.apply_loop(core, ctx);
        // Applied freezes live in the shard state now; the in-log gate
        // only needs the unapplied suffix.
        let applied = self.base.last_applied;
        self.frozen_in_log.retain(|(s, _, _)| *s > applied);
        self.serve_parked_reads(core, ctx);
        self.base.maybe_compact(core, ctx);
    }

    fn serve_parked_reads(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        if self.parked_reads.is_empty() {
            return;
        }
        let ready: Vec<Command> = {
            let applied = self.base.last_applied;
            let (serve, keep): (Vec<_>, Vec<_>) = std::mem::take(&mut self.parked_reads)
                .into_iter()
                .partition(|(_, s)| *s <= applied);
            self.parked_reads = keep;
            serve.into_iter().map(|(c, _)| c).collect()
        };
        for cmd in ready {
            // The key's range may have frozen while the read was parked
            // (the park target can be the freeze slot itself): once
            // applied, the shard state owns the answer and the read must
            // chase the range to its new group, not read the local copy.
            if let Some((group, version)) = core.misroute(&cmd.op) {
                core.send_redirect(ctx, cmd.id, group, version);
                continue;
            }
            // The conflict index was snapshotted at arrival (Figure 13
            // line 4): the read linearizes right after that write, so it
            // must NOT re-park behind newer writes — that would starve
            // hot-key readers under a continuous write stream.
            let lease_ok = self
                .lease
                .as_ref()
                .map(|l| match l.mode() {
                    ReadMode::QuorumLease => l.has_quorum_lease(ctx.now()),
                    ReadMode::LeaderLease => {
                        self.base.role == Role::Leader && l.has_quorum_lease(ctx.now())
                    }
                    ReadMode::LogRead => false,
                })
                .unwrap_or(false);
            if lease_ok {
                if let Op::Get { key } = &cmd.op {
                    ctx.charge(core.cfg.costs.read_local);
                    let reply = core.kv.read_local(*key);
                    core.send_response(ctx, cmd.id, reply);
                    self.local_reads_served += 1;
                    continue;
                }
            }
            // Lease lapsed while parked: fall back to replication.
            ctx.trace_span(
                paxraft_sim::trace::SpanKind::Enqueue {
                    proposer: self.base.role == Role::Leader,
                },
                cmd.id.client,
                cmd.id.seq,
            );
            core.pending.push(cmd);
            core.arm_batch(ctx);
        }
    }

    /// [PQL] Periodic lease renewal (grantors renew every 0.5 s).
    fn lease_tick(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        let Some(lease) = &mut self.lease else { return };
        ctx.charge(core.cfg.costs.lease_msg);
        lease.self_grant(ctx.now());
        let expiry = lease.grant_expiry(ctx.now());
        let targets = lease.grant_targets(core.leader_hint);
        let last_idx = self.base.log.last_index();
        for t in targets {
            ctx.send(
                core.cfg.peer(t),
                Msg::Lease(LeaseMsg::Grant {
                    expires_ns: expiry.as_nanos(),
                    last_idx,
                }),
            );
        }
        ctx.set_timer(core.cfg.lease.renew_every, T_LEASE);
        // Expired holders may unblock commits.
        self.advance_commit(core, ctx);
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
                    let voter = core.cfg.node_of(from);
                    self.base.votes |= me_bit(voter);
                    self.vote_extras.insert(voter, (extra_start, extra));
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
                let bytes: usize = entries.iter().map(Entry::size_bytes).sum();
                ctx.charge(
                    core.cfg.costs.append_fixed
                        + core.cfg.costs.append_per_cmd * entries.len().max(1) as u64
                        + core.cfg.costs.size_cost(bytes),
                );
                // Entries at or below our compaction floor are applied
                // committed state: skip the overlap and anchor the
                // consistency check at the floor.
                let (floor, floor_term) = self.base.log.last_included();
                let (prev, prev_term, entries) = if prev < floor {
                    let overlap = (floor.0 - prev.0) as usize;
                    if entries.len() <= overlap {
                        let holders = self
                            .lease
                            .as_ref()
                            .map_or(0, |l| l.current_holders(ctx.now()));
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
                    (floor, floor_term, &entries[overlap..])
                } else {
                    (prev, prev_term, &entries[..])
                };
                let new_last = Slot(prev.0 + entries.len() as u64);
                let (appended, written) =
                    match F::accept(&mut self.base, prev, prev_term, entries, term) {
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
                self.index_writes_from(prev.next());
                if commit > self.base.commit_index {
                    self.base.commit_index = Slot(commit.0.min(new_last.0));
                    self.apply_committed(core, ctx);
                }
                // [PQL] Phase2b Δ: attach the holders we granted. The
                // appendOK is a Paxos acceptOK for every covered
                // instance — it leaves only after the fsync covering
                // the suffix it vouches for (group commit batches it).
                let holders = self
                    .lease
                    .as_ref()
                    .map_or(0, |l| l.current_holders(ctx.now()));
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
                    self.reported_holders[peer.0 as usize] = holders;
                    core.pipe.on_ack(peer, last_idx);
                    // Advance on a match step — or on holder reports
                    // alone, which may still unblock the PQL gate.
                    self.base.repl.on_ack(peer, last_idx);
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
                    self.base.repl.on_reject(peer, last_idx);
                    // In-flight rounds to that follower are dead.
                    core.pipe.on_regress(peer);
                    // Back off toward the follower's tail and re-probe
                    // for a prev mismatch; when the follower's log is
                    // simply longer than ours (the Raft* "no shrink"
                    // rule), wait for new appends instead of ping-ponging
                    // rejects.
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
        self.index_writes_from(first_new);
        self.base.broadcast_append(core, ctx);
    }

    /// `[PQL]` Figure 13 `LocalRead`: serve, park, or decline.
    fn try_serve_local(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        cmd: &Command,
    ) -> bool {
        let Some(lease) = &self.lease else {
            return false;
        };
        let Op::Get { key } = &cmd.op else {
            return false;
        };
        match lease.mode() {
            ReadMode::QuorumLease => {
                if !lease.has_quorum_lease(ctx.now()) {
                    return false;
                }
            }
            ReadMode::LeaderLease => {
                if self.base.role != Role::Leader || !lease.has_quorum_lease(ctx.now()) {
                    return false;
                }
            }
            ReadMode::LogRead => return false,
        }
        let lease_floor = self
            .lease
            .as_ref()
            .map(|l| l.read_floor())
            .unwrap_or(Slot::NONE);
        // An in-log `FreezeRange` covering the key gates the read even
        // though it is not a write to the key: from the freeze's slot
        // on, writes to the range commit in the *destination* group
        // without consulting this lease, so serving the local copy past
        // it would be stale. Parking until the freeze applies routes
        // the read through the applied shard state's redirect.
        let freeze_gate = self
            .frozen_in_log
            .iter()
            .filter(|(_, lo, hi)| (*lo..*hi).contains(key))
            .map(|(s, _, _)| *s)
            .max()
            .unwrap_or(Slot::NONE);
        let conflict = self
            .key_last_write
            .get(key)
            .copied()
            .unwrap_or(Slot::NONE)
            .max(lease_floor)
            .max(freeze_gate);
        if conflict > self.base.last_applied {
            // Figure 13 line 4: wait until the conflicting write commits
            // and applies locally — and, after a lease lapse, until the
            // replica has caught up to the grant's read floor (writes
            // committed during the lapse never waited for us).
            self.parked_reads.push((cmd.clone(), conflict));
            return true;
        }
        ctx.charge(core.cfg.costs.read_local);
        let reply = core.kv.read_local(*key);
        core.send_response(ctx, cmd.id, reply);
        self.local_reads_served += 1;
        true
    }

    fn on_start(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        self.base.arm_election(core, ctx);
        if self.lease.is_some() {
            ctx.set_timer(SimDuration::from_millis(1), T_LEASE);
        }
    }

    fn on_election_timeout(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        self.start_election(core, ctx);
    }

    fn on_heartbeat(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        self.base.heartbeat(core, ctx);
    }

    fn on_timer(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, kind: u64, _token: u64) {
        if kind == T_LEASE {
            self.lease_tick(core, ctx);
        }
    }

    fn on_msg(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, from: ActorId, msg: Msg) {
        match msg {
            Msg::Raft(m) => self.on_raft(core, ctx, from, m),
            Msg::Lease(LeaseMsg::Grant {
                expires_ns,
                last_idx,
            }) => {
                if let Some(lease) = &mut self.lease {
                    ctx.charge(core.cfg.costs.lease_msg);
                    let t = paxraft_sim::time::SimTime::from_nanos(expires_ns);
                    lease.on_grant(core.cfg.node_of(from), t, last_idx, ctx.now());
                    ctx.send(from, Msg::Lease(LeaseMsg::GrantAck { expires_ns }));
                }
            }
            Msg::Lease(LeaseMsg::GrantAck { expires_ns }) => {
                if let Some(lease) = &mut self.lease {
                    let t = paxraft_sim::time::SimTime::from_nanos(expires_ns);
                    lease.on_grant_ack(core.cfg.node_of(from), t);
                }
            }
            _ => {}
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
        let first_new = snap.last_slot.next();
        if self.base.install_snapshot(core, ctx, snap) {
            self.index_writes_from(first_new);
            self.serve_parked_reads(core, ctx);
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

    fn on_durable(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        // An fsync landed: absorb the new durable watermark and re-run
        // LeaderLearn — the leader's own contribution may have just
        // become countable.
        self.base.absorb_synced(core);
        self.advance_commit(core, ctx);
    }

    fn on_crash(&mut self, core: &mut EngineCore) {
        // Persistent: term, log, the durable snapshot backing the
        // compacted prefix, and grants *given* (a recovering grantor
        // must still honour them). Volatile: everything else, including
        // leases held. The state machine restarts from the snapshot —
        // the compacted prefix cannot be replayed.
        self.base.crash_reset(core);
        if core.dur.enabled() {
            // crash_reset may have truncated an unsynced suffix the
            // [PQL] key index still points into; rebuild it from the
            // retained log.
            self.key_last_write.clear();
            self.frozen_in_log.clear();
            self.index_writes_from(self.base.log.last_included().0.next());
        }
        self.vote_extras.clear();
        self.parked_reads.clear();
        if let Some(lease) = &mut self.lease {
            lease.drop_held();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{cluster_with, drive_until, TestClient};
    use paxraft_sim::sim::Simulation;
    use paxraft_sim::time::SimTime;

    fn star_cluster(n: usize, mode: ReadMode) -> (Simulation<Msg>, Vec<ActorId>, ActorId) {
        cluster_with(n, |mut cfg| {
            cfg.initial_leader = Some(NodeId(0));
            cfg.read_mode = mode;
            Box::new(RaftStarReplica::new(cfg))
        })
    }

    /// The holder gate as it was written before holder sets became
    /// bitmasks: lists of node ids, united by scanning for membership.
    fn holder_gate_by_list(
        mut target: Slot,
        floor: Slot,
        me: NodeId,
        granted: &[NodeId],
        reported: &[Vec<NodeId>],
        matched: &[Slot],
    ) -> Slot {
        let others = (0..matched.len() as u32).map(NodeId).filter(|p| *p != me);
        while target > floor {
            let mut holders = granted.to_vec();
            for p in others.clone().filter(|p| matched[p.0 as usize] >= target) {
                for h in &reported[p.0 as usize] {
                    if !holders.contains(h) {
                        holders.push(*h);
                    }
                }
            }
            let mut limit = target;
            for h in holders.into_iter().filter(|h| *h != me) {
                limit = limit.min(matched[h.0 as usize]);
            }
            if limit >= target {
                break;
            }
            target = limit;
        }
        target
    }

    /// The bitmask holder gate commits exactly what the list one did, on
    /// random holder sets, match indexes and targets for 3, 5 and 7
    /// replicas (the leader's own bit set or not, reports from followers
    /// that did and did not reach the target).
    #[test]
    fn the_bitmask_holder_gate_equals_the_list_one() {
        let mut rng = paxraft_sim::rng::SimRng::new(0x9a7e);
        let mut gated = 0;
        for case in 0..3_000u64 {
            let n = [3, 5, 7][(case % 3) as usize];
            let me = NodeId(rng.gen_range(n) as u32);
            let set = |rng: &mut paxraft_sim::rng::SimRng| -> Vec<NodeId> {
                let members = (0..n as u32).filter(|_| rng.gen_bool(0.4));
                members.map(NodeId).collect()
            };
            let mask = |set: &[NodeId]| set.iter().fold(0, |m, h| m | me_bit(*h));
            let granted = set(&mut rng);
            let reported: Vec<Vec<NodeId>> = (0..n).map(|_| set(&mut rng)).collect();
            let matched: Vec<Slot> = (0..n).map(|_| Slot(rng.gen_range(12))).collect();
            let floor = Slot(rng.gen_range(6));
            let target = Slot(rng.gen_range(14));
            let by_list = holder_gate_by_list(target, floor, me, &granted, &reported, &matched);
            let masks: Vec<u64> = reported.iter().map(|r| mask(r)).collect();
            let followers = (0..n as u32).map(NodeId).filter(|p| *p != me);
            let by_mask = holder_gate(target, floor, mask(&granted), &masks, followers, |p| {
                matched[p.0 as usize]
            });
            assert_eq!(by_mask, by_list, "case {case}: n {n}, me {me}");
            gated += u64::from(by_mask < target);
        }
        assert!(gated > 300, "the gate shrank {gated} targets");
    }

    #[test]
    fn logs_converge_with_uniform_ballots() {
        let (mut sim, replicas, client) = star_cluster(3, ReadMode::LogRead);
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

    #[test]
    fn quorum_lease_enables_follower_local_reads() {
        let (mut sim, replicas, client) = star_cluster(5, ReadMode::QuorumLease);
        // Let leases establish.
        sim.run_for(SimDuration::from_secs(2));
        assert!(sim
            .actor::<RaftStarReplica>(replicas[3])
            .lease()
            .unwrap()
            .has_quorum_lease(sim.now()));
        // Write through the leader first.
        sim.actor_mut::<TestClient>(client).enqueue_put(5);
        assert!(drive_until(&mut sim, SimTime::from_secs(10), |sim| {
            sim.actor::<TestClient>(client).replies.len() == 1
        }));
        sim.run_for(SimDuration::from_secs(1)); // let commit reach followers
                                                // Read from a follower: must be served locally.
        sim.actor_mut::<TestClient>(client).target = replicas[3];
        sim.actor_mut::<TestClient>(client).enqueue_get(5);
        assert!(drive_until(&mut sim, SimTime::from_secs(5), |sim| {
            sim.actor::<TestClient>(client).replies.len() == 2
        }));
        let served = sim
            .actor::<RaftStarReplica>(replicas[3])
            .local_reads_served();
        assert_eq!(served, 1, "follower served the read locally");
        let c = sim.actor::<TestClient>(client);
        assert!(
            c.replies[1].1.value_id().is_some(),
            "local read sees the write"
        );
    }

    #[test]
    fn leader_lease_serves_reads_only_at_leader() {
        let (mut sim, replicas, client) = star_cluster(3, ReadMode::LeaderLease);
        sim.run_for(SimDuration::from_secs(2));
        sim.actor_mut::<TestClient>(client).enqueue_put(9);
        sim.actor_mut::<TestClient>(client).enqueue_get(9);
        assert!(drive_until(&mut sim, SimTime::from_secs(10), |sim| {
            sim.actor::<TestClient>(client).replies.len() == 2
        }));
        assert_eq!(
            sim.actor::<RaftStarReplica>(replicas[0])
                .local_reads_served(),
            1
        );
        assert_eq!(
            sim.actor::<RaftStarReplica>(replicas[1])
                .local_reads_served(),
            0
        );
    }

    /// A write after a leaseholder crashes waits for the holder's last
    /// grant to lapse, and no longer. The grant was renewed at most
    /// `renew_every` before the crash, so the stall lies between
    /// `duration - renew_every` and `duration` plus one commit round (a
    /// write's latency while every holder is up). Section 5.1 runs 2 s
    /// leases renewed every 0.5 s; the other durations keep that ratio.
    #[test]
    fn pql_write_waits_for_crashed_holder_until_expiry() {
        for millis in [500, 1_000, 2_000, 4_000] {
            let duration = SimDuration::from_millis(millis);
            let renew_every = duration / 4;
            let (mut sim, replicas, client) = cluster_with(3, |mut cfg| {
                cfg.initial_leader = Some(NodeId(0));
                cfg.read_mode = ReadMode::QuorumLease;
                cfg.lease = crate::config::LeaseConfig {
                    duration,
                    renew_every,
                };
                Box::new(RaftStarReplica::new(cfg))
            });
            sim.run_for(SimDuration::from_secs(2)); // leases up
            let latency = |sim: &mut Simulation<Msg>, key: u64| {
                let before = sim.now();
                let done = sim.actor::<TestClient>(client).replies.len() + 1;
                sim.actor_mut::<TestClient>(client).enqueue_put(key);
                assert!(drive_until(
                    sim,
                    before + SimDuration::from_secs(10),
                    |sim| { sim.actor::<TestClient>(client).replies.len() == done }
                ));
                sim.actor::<TestClient>(client).replies[done - 1]
                    .2
                    .since(before)
            };
            let round = latency(&mut sim, 1);
            // Crash a follower that holds leases; the next write must wait
            // for its grant to lapse but still completes.
            sim.crash_at(replicas[2], sim.now() + SimDuration::from_millis(1));
            let stall = latency(&mut sim, 2);
            assert!(
                stall >= duration - renew_every && stall <= duration + round,
                "{millis} ms lease renewed every {renew_every}: stall {stall}, round {round}"
            );
        }
    }

    #[test]
    fn conflicting_local_read_parks_until_write_applies() {
        let (mut sim, replicas, client) = star_cluster(5, ReadMode::QuorumLease);
        sim.run_for(SimDuration::from_secs(2));
        // Prime the key so the follower knows about it.
        sim.actor_mut::<TestClient>(client).enqueue_put(3);
        assert!(drive_until(&mut sim, SimTime::from_secs(10), |sim| {
            sim.actor::<TestClient>(client).replies.len() == 1
        }));
        sim.run_for(SimDuration::from_secs(1));
        // Inject an uncommitted write by appending directly at a follower
        // via a second client writing through the leader, and read from
        // the follower immediately after the append lands but before
        // commit: emulate by reading right after issuing the write.
        sim.actor_mut::<TestClient>(client).enqueue_put(3);
        sim.run_for(SimDuration::from_millis(60)); // append reaches followers
        let mut reader = TestClient::new(1, replicas[1]);
        reader.enqueue_get(3);
        let reader_id = sim.add_actor(paxraft_sim::net::Region::Ohio, Box::new(reader));
        assert!(drive_until(&mut sim, SimTime::from_secs(10), |sim| {
            sim.actor::<TestClient>(reader_id).replies.len() == 1
                && sim.actor::<TestClient>(client).replies.len() == 2
        }));
        // The read must observe the second write (it parked behind it) —
        // seq 2 of client 0.
        let got = sim.actor::<TestClient>(reader_id).replies[0].1.value_id();
        assert_eq!(
            got,
            Some(crate::kv::CmdId { client: 0, seq: 2 }.as_value_id()),
            "parked read observed the conflicting write"
        );
    }
}
