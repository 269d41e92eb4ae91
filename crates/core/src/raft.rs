//! Standard Raft (Section 2.1, Figure 2 *without* the blue Raft* code),
//! expressed as [`ProtocolRules`] over the shared [`ReplicaEngine`] and
//! the Raft-family [`RaftBase`].
//!
//! The two behaviours that distinguish Raft from Raft* (Section 3) are
//! implemented here exactly as Raft specifies them:
//!
//! 1. **Followers erase extraneous entries**: a follower whose log
//!    conflicts with (or extends past) the leader's AppendEntries payload
//!    truncates its suffix ([`crate::log::Log::truncate_from`]). This is
//!    the state transition that has no MultiPaxos counterpart.
//! 2. **Entry terms are never rewritten**: a leader replicates previously
//!    uncommitted entries with their original terms, which forces the
//!    extra commit restriction of the Raft paper's Section 5.4.2 — a
//!    leader only counts replicas for entries of its *own* term.
//!
//! Everything protocol-agnostic — batching, forwarding, client dedup,
//! timers, snapshot transfer — is inherited from the engine, and the
//! Raft-family replication plumbing (appends, heartbeats, apply loop,
//! snapshot install) from [`RaftBase`]; this file holds only the vote
//! rule, the append acceptance rule and the 5.4.2 commit rule.
//!
//! One engineering liberty shared by all our replicas: terms use the
//! Paxos ballot encoding `round * n + node` so every term has a unique
//! owner. This replaces Raft's per-term `votedFor` vote splitting (a
//! node grants at most one vote per term by construction) without
//! changing any other behaviour.
//!
//! # Durability (group commit)
//!
//! With a [`crate::config::DurabilityConfig`] enabled, every log append
//! (follower *and* leader) is charged as a disk write, and any message
//! that **attests to log content** — `AppendOk` here — is routed
//! through [`EngineCore::ack_after_sync`] so it leaves only after an
//! fsync covers the write it attests to. The safety argument is the
//! classic one: an `AppendOk` for index *i* is a promise that entry *i*
//! survives a crash; if the ack could outrun the fsync, a quorum could
//! commit an entry that a crash then erases from enough replicas to
//! lose it. Symmetrically the *leader's own* log copy only counts
//! toward commit once locally durable: [`RaftRules::advance_commit`]
//! clamps the quorum match by [`RaftBase::durable_tail`], and the
//! engine's `on_durable` hook re-runs the tally when an fsync lands.
//! Vote/reject messages stay immediate: the model treats the tiny
//! term/vote metadata write as free and always-durable (terms survive
//! [`RaftBase::crash_reset`]), so a vote never attests to anything
//! volatile; only entry payloads ride the modeled disk.

use paxraft_sim::sim::{ActorId, Ctx};

use crate::config::ReplicaConfig;
use crate::engine::raft_family::RaftBase;
use crate::engine::{self, EngineCore, ProtocolRules, ReplicaEngine};
use crate::kv::Command;
use crate::log::{Entry, Log};
use crate::msg::{Msg, RaftMsg};
use crate::snapshot::{Snapshot, SnapshotStats};
use crate::types::{max_failures, me_bit, quorum, Slot, Term};

pub use crate::engine::raft_family::Role;

/// A standard Raft replica: the shared engine running [`RaftRules`].
pub type RaftReplica = ReplicaEngine<RaftRules>;

/// What standard Raft adds on top of the engine and [`RaftBase`]: the
/// plain up-to-date vote rule, truncating append acceptance, and the
/// 5.4.2 commit rule.
pub struct RaftRules {
    base: RaftBase,
}

impl RaftReplica {
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
            RaftRules {
                base: RaftBase::new(n),
            },
        )
    }

    /// Current term.
    pub fn current_term(&self) -> Term {
        self.rules.base.current_term
    }

    /// The replica's log (for convergence tests).
    pub fn log(&self) -> &Log {
        &self.rules.base.log
    }

    /// Commit index.
    pub fn commit_index(&self) -> Slot {
        self.rules.base.commit_index
    }
}

impl RaftRules {
    /// Figure 2a `RequestVote`: campaign with a fresh owned term.
    fn start_election(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        self.base.begin_election(core, ctx);
        self.try_become_leader(core, ctx); // n = 1 degenerate case
    }

    fn try_become_leader(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        if self.base.role != Role::Candidate
            || (self.base.votes.count_ones() as usize) < quorum(core.cfg.n)
        {
            return;
        }
        self.base.role = Role::Leader;
        core.leader_hint = Some(core.cfg.id);
        // Optimistically assume followers hold our pre-existing log; the
        // no-op of the new term below lets the leader commit the tail of
        // its log under the Section-5.4.2 restriction.
        self.base
            .repl
            .reset_for_leadership(self.base.log.last_index());
        core.pipe.reset();
        let noop = Entry {
            term: self.base.current_term,
            bal: self.base.current_term,
            cmd: Command::noop(),
        };
        let bytes = noop.size_bytes();
        self.base.log.append(noop);
        self.base
            .note_append_durable(core, ctx, bytes, 1, self.base.log.last_index());
        self.base.broadcast_append(core, ctx);
        core.arm_heartbeat(ctx);
        engine::flush_pending(self, core, ctx);
    }

    /// Advances `commit_index` using the 5.4.2 rule: only entries of the
    /// current term commit by counting.
    fn advance_commit(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        if self.base.role != Role::Leader {
            return;
        }
        let f = max_failures(core.cfg.n);
        // The f-th largest follower match is replicated on f followers +
        // the leader = a majority — but the leader's copy only counts
        // once locally durable, so the target is clamped by the fsynced
        // tail (no-op when durability is disabled). Without the clamp,
        // f durable followers plus the leader's volatile copy could
        // commit an entry that a leader crash erases from the one
        // replica a future election quorum might be counting on.
        let tally = self.base.repl.kth_largest_match(f, core.cfg.id);
        let quorum_match = tally.min(self.base.durable_tail(core));
        // Span bookkeeping: the term-checked tally *before* the
        // durability clamp is the replication-quorum instant — from
        // here, only the fsync holds commit back.
        if self.base.log.term_at(tally) == Some(self.base.current_term) {
            self.base.note_quorum(ctx, tally);
        }
        if quorum_match > self.base.commit_index
            && self.base.log.term_at(quorum_match) == Some(self.base.current_term)
        {
            self.base.commit_index = quorum_match;
            self.apply_committed(core, ctx);
        }
    }

    fn apply_committed(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        self.base.apply_loop(core, ctx);
        self.base.maybe_compact(core, ctx);
    }

    fn on_raft(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, from: ActorId, msg: RaftMsg) {
        match msg {
            RaftMsg::RequestVote {
                term,
                last_idx,
                last_term,
            } => {
                if term > self.base.current_term {
                    // Adopt the term, then apply Raft's up-to-date check.
                    let up_to_date = (last_term, last_idx)
                        >= (self.base.log.last_term(), self.base.log.last_index());
                    self.base.step_down(core, term, ctx);
                    core.leader_hint = None;
                    ctx.send(
                        from,
                        Msg::Raft(RaftMsg::Vote {
                            term,
                            granted: up_to_date,
                            extra_start: Slot::NONE,
                            extra: Vec::new(),
                        }),
                    );
                }
            }
            RaftMsg::Vote { term, granted, .. } => {
                if term > self.base.current_term {
                    self.base.step_down(core, term, ctx);
                } else if term == self.base.current_term && granted {
                    self.base.votes |= me_bit(core.cfg.node_of(from));
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
                // consistency check at the floor instead.
                let (floor, floor_term) = self.base.log.last_included();
                let (prev, prev_term, entries) = if prev < floor {
                    let overlap = (floor.0 - prev.0) as usize;
                    if entries.len() <= overlap {
                        // Nothing beyond the snapshot: everything the
                        // leader sent is already covered. The ack still
                        // attests to log content, so it rides the
                        // ack-after-fsync path (immediate when nothing
                        // is unsynced).
                        let ok = Msg::Raft(RaftMsg::AppendOk {
                            term: self.base.current_term,
                            last_idx: floor,
                            holders: 0,
                        });
                        core.ack_after_sync(ctx, from, ok);
                        return;
                    }
                    (floor, floor_term, &entries[overlap..])
                } else {
                    (prev, prev_term, &entries[..])
                };
                if !self.base.log.matches(prev, prev_term) {
                    ctx.send(
                        from,
                        Msg::Raft(RaftMsg::AppendReject {
                            term: self.base.current_term,
                            last_idx: self.base.log.last_index().min(prev),
                        }),
                    );
                    return;
                }
                // Raft conflict handling: truncate at the first mismatch,
                // then append what is missing, straight out of the shared
                // round. Matching existing entries are kept (and a longer
                // non-conflicting log survives); past the first append
                // nothing is left to match.
                let match_through = Slot(prev.0 + entries.len() as u64);
                let mut idx = prev;
                let (mut appended, mut appended_bytes) = (0usize, 0usize);
                for e in entries {
                    idx = idx.next();
                    match self.base.log.term_at(idx) {
                        Some(t) if t == e.term => continue,
                        Some(_) => {
                            // The truncated suffix's durability no
                            // longer speaks for these indexes: clamp
                            // the fsynced watermark (and any in-flight
                            // fsync claims) below the rewrite point
                            // before recording the replacement write.
                            self.base.note_rewrite_from(idx);
                            self.base.log.truncate_from(idx);
                        }
                        None => {}
                    }
                    appended += 1;
                    appended_bytes += e.size_bytes();
                    self.base.log.append(e.clone());
                }
                if appended > 0 {
                    self.base.note_append_durable(
                        core,
                        ctx,
                        appended_bytes,
                        appended,
                        match_through,
                    );
                }
                if commit > self.base.commit_index {
                    self.base.commit_index = Slot(commit.0.min(match_through.0));
                    self.apply_committed(core, ctx);
                }
                // Acked only after the entries it vouches for are
                // fsynced (group commit batches the fsync; see the
                // module docs for the safety argument).
                let ok = Msg::Raft(RaftMsg::AppendOk {
                    term: self.base.current_term,
                    last_idx: match_through,
                    holders: 0,
                });
                core.ack_after_sync(ctx, from, ok);
            }
            RaftMsg::AppendOk { term, last_idx, .. } => {
                if term > self.base.current_term {
                    self.base.step_down(core, term, ctx);
                } else if term == self.base.current_term && self.base.role == Role::Leader {
                    ctx.charge(core.cfg.costs.ack_process);
                    let peer = core.cfg.node_of(from);
                    core.pipe.on_ack(peer, last_idx);
                    if self.base.repl.on_ack(peer, last_idx) {
                        self.advance_commit(core, ctx);
                    }
                    // The freed window slot may have a backlog waiting.
                    self.base.pump(core, ctx, peer);
                }
            }
            RaftMsg::AppendReject { term, last_idx } => {
                if term > self.base.current_term {
                    self.base.step_down(core, term, ctx);
                } else if term == self.base.current_term && self.base.role == Role::Leader {
                    // Back off toward the follower's tail and re-probe;
                    // in-flight rounds to that follower are dead.
                    let peer = core.cfg.node_of(from);
                    self.base.repl.on_reject(peer, last_idx);
                    core.pipe.on_regress(peer);
                    self.base.send_append_to(core, ctx, peer);
                }
            }
        }
    }
}

impl ProtocolRules for RaftRules {
    fn can_propose(&self, _core: &EngineCore) -> bool {
        self.base.role == Role::Leader
    }

    fn applied_index(&self, _core: &EngineCore) -> Slot {
        self.base.last_applied
    }

    fn propose(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, cmds: &mut Vec<Command>) {
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
        // The leader's own copy is a disk write too; commit advance is
        // clamped by `durable_tail` until its fsync lands.
        self.base
            .note_append_durable(core, ctx, bytes, count, self.base.log.last_index());
        self.base.broadcast_append(core, ctx);
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

    fn install_snapshot(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        from: ActorId,
        snap: Snapshot,
    ) {
        self.base.install_snapshot(core, ctx, snap);
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
        // the commit tally — the leader's own contribution may have
        // just become countable.
        self.base.absorb_synced(core);
        self.advance_commit(core, ctx);
    }

    fn on_crash(&mut self, core: &mut EngineCore) {
        self.base.crash_reset(core);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{cluster_with, drive_until, TestClient};
    use crate::types::NodeId;
    use paxraft_sim::sim::Simulation;
    use paxraft_sim::time::{SimDuration, SimTime};

    fn raft_cluster(n: usize) -> (Simulation<Msg>, Vec<ActorId>, ActorId) {
        cluster_with(n, |mut cfg| {
            cfg.initial_leader = Some(NodeId(0));
            Box::new(RaftReplica::new(cfg))
        })
    }

    #[test]
    fn logs_converge_across_replicas() {
        let (mut sim, replicas, client) = raft_cluster(5);
        for k in 0..20 {
            sim.actor_mut::<TestClient>(client).enqueue_put(k);
        }
        assert!(drive_until(&mut sim, SimTime::from_secs(20), |sim| {
            sim.actor::<TestClient>(client).replies.len() == 20
        }));
        sim.run_for(SimDuration::from_secs(2)); // let heartbeats sync commit
        let log0: Vec<_> = sim
            .actor::<RaftReplica>(replicas[0])
            .log()
            .iter()
            .map(|(s, _, e)| (s, e.term, e.cmd.id))
            .collect();
        for &r in &replicas[1..] {
            let lr: Vec<_> = sim
                .actor::<RaftReplica>(r)
                .log()
                .iter()
                .map(|(s, _, e)| (s, e.term, e.cmd.id))
                .collect();
            assert_eq!(lr, log0, "log matching across replicas");
        }
    }

    #[test]
    fn partitioned_leader_truncates_divergent_suffix_on_rejoin() {
        let (mut sim, replicas, client) = raft_cluster(3);
        sim.actor_mut::<TestClient>(client).enqueue_put(1);
        assert!(drive_until(&mut sim, SimTime::from_secs(5), |sim| {
            sim.actor::<TestClient>(client).replies.len() == 1
        }));
        // Isolate the leader with the client; leader appends entries it
        // can never commit.
        let t0 = sim.now();
        // Groups cover replicas 0..2 plus the client (with the leader).
        sim.partition_at(vec![0, 1, 1, 0], t0 + SimDuration::from_millis(1));
        sim.actor_mut::<TestClient>(client).enqueue_put(7);
        // Run long enough for {1,2} to elect a new leader.
        sim.run_for(SimDuration::from_secs(8));
        let old_leader_log_len = sim.actor::<RaftReplica>(replicas[0]).log().len();
        assert!(
            sim.actor::<RaftReplica>(replicas[1]).is_leader()
                || sim.actor::<RaftReplica>(replicas[2]).is_leader(),
            "majority side elected a new leader"
        );
        // Heal; client fails over; the divergent suffix must be erased.
        sim.heal_at(sim.now() + SimDuration::from_millis(1));
        sim.actor_mut::<TestClient>(client).target = replicas[1];
        assert!(drive_until(&mut sim, SimTime::from_secs(30), |sim| {
            sim.actor::<TestClient>(client).replies.len() == 2
        }));
        sim.run_for(SimDuration::from_secs(2));
        let log0: Vec<_> = sim
            .actor::<RaftReplica>(replicas[0])
            .log()
            .iter()
            .map(|(s, _, e)| (s, e.term, e.cmd.id))
            .collect();
        let log1: Vec<_> = sim
            .actor::<RaftReplica>(replicas[1])
            .log()
            .iter()
            .map(|(s, _, e)| (s, e.term, e.cmd.id))
            .collect();
        assert_eq!(log0, log1, "rejoined leader truncated and converged");
        let _ = old_leader_log_len;
    }

    #[test]
    fn committed_entries_survive_leader_change() {
        let (mut sim, replicas, client) = raft_cluster(5);
        for k in 0..5 {
            sim.actor_mut::<TestClient>(client).enqueue_put(k);
        }
        assert!(drive_until(&mut sim, SimTime::from_secs(10), |sim| {
            sim.actor::<TestClient>(client).replies.len() == 5
        }));
        let committed = sim.actor::<RaftReplica>(replicas[0]).commit_index();
        sim.crash_at(replicas[0], sim.now() + SimDuration::from_millis(1));
        sim.actor_mut::<TestClient>(client).target = replicas[1];
        sim.actor_mut::<TestClient>(client).enqueue_get(3);
        assert!(drive_until(&mut sim, SimTime::from_secs(30), |sim| {
            sim.actor::<TestClient>(client).replies.len() == 6
        }));
        // The read must see the committed write to key 3.
        let c = sim.actor::<TestClient>(client);
        assert!(
            c.replies[5].1.value_id().is_some(),
            "committed write preserved"
        );
        assert!(committed.0 >= 5);
    }
}
