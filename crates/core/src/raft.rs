//! Standard Raft (Section 2.1, Figure 2 *without* the blue Raft* code):
//! the Raft family's shared rules ([`RaftFamilyRules`], Figure 2's black
//! code, in `raftstar.rs`) under the [`Plain`] flavor.
//!
//! The two behaviours that distinguish Raft from Raft* (Section 3) are
//! implemented here exactly as Raft specifies them:
//!
//! 1. **Followers erase extraneous entries**: a follower whose log
//!    conflicts with the leader's AppendEntries payload truncates its
//!    suffix ([`crate::log::Log::truncate_from`]). This is the state
//!    transition that has no MultiPaxos counterpart.
//! 2. **Entry terms are never rewritten**: a leader replicates previously
//!    uncommitted entries with their original terms, which forces the
//!    extra commit restriction of the Raft paper's Section 5.4.2 — a
//!    leader only counts replicas for entries of its *own* term.
//!
//! Everything protocol-agnostic — batching, forwarding, client dedup,
//! timers, snapshot transfer — is inherited from the engine, the
//! Raft-family replication plumbing (appends, heartbeats, apply loop,
//! snapshot install) from [`RaftBase`], and the message handling, the
//! leadership step and the durability discipline from
//! [`RaftFamilyRules`]; this file holds only the vote rule, the append
//! acceptance rule and the 5.4.2 commit rule.
//!
//! One engineering liberty shared by all our replicas: terms use the
//! Paxos ballot encoding `round * n + node` so every term has a unique
//! owner. This replaces Raft's per-term `votedFor` vote splitting (a
//! node grants at most one vote per term by construction) without
//! changing any other behaviour.

use crate::engine::raft_family::RaftBase;
use crate::engine::slots::Run;
use crate::engine::ReplicaEngine;
use crate::log::{Entry, Log};
use crate::raftstar::{Flavor, RaftFamilyRules};
use crate::types::{Slot, Term};

pub use crate::engine::raft_family::Role;

/// A standard Raft replica: the shared engine running [`RaftRules`].
pub type RaftReplica = ReplicaEngine<RaftRules>;

/// The Raft family's rules with Figure 2's blue code out.
pub type RaftRules = RaftFamilyRules<Plain>;

/// Standard Raft: the plain up-to-date vote rule, truncating append
/// acceptance, and the 5.4.2 commit rule. Lease read modes are refused at
/// construction — Figure 8's port goes through Raft*.
pub struct Plain;

impl Flavor for Plain {
    /// Raft's up-to-date check; a vote never carries entries.
    fn vote(log: &Log, last_idx: Slot, last_term: Term) -> Option<Vec<Entry>> {
        ((last_term, last_idx) >= (log.last_term(), log.last_index())).then(Vec::new)
    }

    /// Raft conflict handling: keep the entries the log already holds,
    /// truncate at the first mismatch, then write what is missing
    /// ([`Log::replace_suffix`]: the leader's cells themselves where the log
    /// can hold them, a clone elsewhere). A longer non-conflicting log
    /// survives; past the first entry it lacks nothing is left to match.
    fn accept(
        base: &mut RaftBase,
        prev: Slot,
        prev_term: Term,
        round: &Run<Entry>,
        skip: usize,
        _term: Term,
    ) -> Result<(usize, usize), Slot> {
        if !base.log.matches(prev, prev_term) {
            return Err(base.log.last_index().min(prev));
        }
        let kept = base.log.holds(prev, round, skip);
        if kept == round.len().saturating_sub(skip) {
            return Ok((0, 0));
        }
        let prev = Slot(prev.0 + kept as u64);
        if base.log.last_index() > prev {
            // The truncated suffix's durability no longer speaks for
            // these indexes.
            base.note_rewrite_from(prev.next());
            base.log.truncate_from(prev.next());
        }
        Ok(base.log.replace_suffix(prev, round, skip + kept))
    }

    /// Section 5.4.2: only entries of the leader's own term commit by
    /// counting.
    fn commits(log: &Log, target: Slot, term: Term) -> bool {
        log.term_at(target) == Some(term)
    }

    /// Entry terms are never rewritten.
    fn rewrite_ballots(_log: &mut Log, _term: Term) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ReadMode, ReplicaConfig};
    use crate::kv::{CmdId, Command};
    use crate::mencius::MenciusReplica;
    use crate::msg::Msg;
    use crate::multipaxos::MultiPaxosReplica;
    use crate::raftstar::{RaftStarReplica, Star};
    use crate::testutil::{cluster_with, drive_until, TestClient};
    use crate::types::NodeId;
    use paxraft_sim::sim::{ActorId, Simulation};
    use paxraft_sim::time::{SimDuration, SimTime};

    fn entry(term: u64, seq: u64) -> Entry {
        Entry {
            term: Term(term),
            bal: Term(term),
            cmd: Command::put(CmdId { client: 0, seq }, seq, vec![0; 8]),
        }
    }

    /// A base whose log holds one entry per term given, command `seq` =
    /// slot, everything fsynced.
    fn base_with(terms: &[u64]) -> RaftBase {
        let mut base = RaftBase::default();
        for (i, &t) in terms.iter().enumerate() {
            base.log.append(entry(t, i as u64 + 1));
        }
        base.synced_idx = base.log.last_index();
        base
    }

    fn terms(base: &RaftBase) -> Vec<u64> {
        base.log.iter().map(|(_, _, e)| e.term.0).collect()
    }

    fn seqs(entries: &[Entry]) -> Vec<u64> {
        entries.iter().map(|e| e.cmd.id.seq).collect()
    }

    /// `F`'s acceptance rule on a round given as a slice.
    fn accept<F: Flavor>(
        base: &mut RaftBase,
        prev: Slot,
        prev_term: Term,
        round: &[Entry],
        term: Term,
    ) -> Result<(usize, usize), Slot> {
        let round: Run<Entry> = (prev.0 + 1..)
            .map(Slot)
            .zip(round.iter().cloned())
            .collect();
        F::accept(base, prev, prev_term, &round, 0, term)
    }

    fn config(mode: ReadMode) -> ReplicaConfig {
        let mut cfg = ReplicaConfig::wan_default(NodeId(0), 3);
        cfg.peers = (0..3).map(ActorId).collect();
        cfg.read_mode = mode;
        cfg
    }

    // Section 3 as a table: the two flavors side by side, no cluster.

    #[test]
    fn section3_a_longer_voter_refuses_in_raft_and_hands_over_its_suffix_in_raftstar() {
        let voter = base_with(&[1, 1, 1, 1]).log;
        // Same last term, the candidate two entries short.
        assert_eq!(Plain::vote(&voter, Slot(2), Term(1)), None);
        let extras = Star::vote(&voter, Slot(2), Term(1)).expect("Raft* grants");
        assert_eq!(seqs(&extras), [3, 4]);
        // A candidate at a higher last term wins Raft's up-to-date check
        // too — and then erases what Raft* carries over.
        assert_eq!(Plain::vote(&voter, Slot(2), Term(2)), Some(Vec::new()));
        let extras = Star::vote(&voter, Slot(2), Term(2)).expect("Raft* grants");
        assert_eq!(seqs(&extras), [3, 4]);
        // A voter whose log ends at a higher term refuses under both.
        assert_eq!(Plain::vote(&voter, Slot(9), Term(0)), None);
        assert_eq!(Star::vote(&voter, Slot(9), Term(0)), None);
        // Level logs: both grant, nothing to attach.
        assert_eq!(Plain::vote(&voter, Slot(4), Term(1)), Some(Vec::new()));
        assert_eq!(Star::vote(&voter, Slot(4), Term(1)), Some(Vec::new()));
    }

    #[test]
    fn section3_raftstar_refuses_a_candidate_below_its_compaction_floor() {
        let mut voter = base_with(&[1, 1, 1, 1]).log;
        voter.compact_to(Slot(3));
        assert_eq!(Star::vote(&voter, Slot(2), Term(1)), None);
        let extras = Star::vote(&voter, Slot(3), Term(1)).expect("at the floor");
        assert_eq!(seqs(&extras), [4]);
    }

    #[test]
    fn section3_a_mid_log_conflict_truncates_in_raft_and_rewrites_the_suffix_in_raftstar() {
        let round = [entry(1, 2), entry(3, 30), entry(3, 40)];
        let bytes = |k: usize| round[3 - k..].iter().map(Entry::size_bytes).sum::<usize>();

        let mut plain = base_with(&[1, 1, 2, 2]);
        let wrote = accept::<Plain>(&mut plain, Slot(1), Term(1), &round, Term(3));
        // Slot 2 matched and was kept; 3 and 4 were erased and rewritten.
        assert_eq!(wrote, Ok((2, bytes(2))));
        assert_eq!(terms(&plain), [1, 1, 3, 3]);
        assert_eq!(
            plain.synced_idx,
            Slot(2),
            "the erased suffix vouches for nothing"
        );
        assert_eq!(
            plain.log.bal_at(Slot(1)),
            Some(Term(1)),
            "no ballot rewrite"
        );

        let mut star = base_with(&[1, 1, 2, 2]);
        let wrote = accept::<Star>(&mut star, Slot(1), Term(1), &round, Term(3));
        assert_eq!(wrote, Ok((3, bytes(3))));
        assert_eq!(terms(&star), [1, 1, 3, 3]);
        assert_eq!(
            star.synced_idx,
            Slot(1),
            "the whole suffix after prev is new"
        );
        for s in 1..=4 {
            assert_eq!(star.log.bal_at(Slot(s)), Some(Term(3)), "ballot at {s}");
        }

        // A mismatch on `prev` refuses under both, each with its own hint.
        let hint = |r: Result<(usize, usize), Slot>| r.expect_err("prev does not match");
        assert_eq!(
            hint(accept::<Plain>(
                &mut plain,
                Slot(3),
                Term(2),
                &round,
                Term(3)
            )),
            Slot(3)
        );
        assert_eq!(
            hint(accept::<Plain>(
                &mut plain,
                Slot(9),
                Term(3),
                &round,
                Term(3)
            )),
            Slot(4)
        );
        assert_eq!(
            hint(accept::<Star>(&mut star, Slot(3), Term(2), &round, Term(3))),
            Slot(4)
        );
    }

    #[test]
    fn section3_a_shortening_append_keeps_rafts_longer_log_and_is_refused_by_raftstar() {
        let round = [entry(1, 2)];
        let mut plain = base_with(&[1, 1, 1, 1]);
        let wrote = accept::<Plain>(&mut plain, Slot(1), Term(1), &round, Term(1));
        assert_eq!(wrote, Ok((0, 0)));
        assert_eq!(plain.log.last_index(), Slot(4));
        assert_eq!(plain.synced_idx, Slot(4));

        let mut star = base_with(&[1, 1, 1, 1]);
        let wrote = accept::<Star>(&mut star, Slot(1), Term(1), &round, Term(1));
        assert_eq!(wrote, Err(Slot(4)), "its tail is the hint");
        assert_eq!(star.log.last_index(), Slot(4));
    }

    /// Figure 8 of the Raft paper: an entry of an old term on a quorum.
    #[test]
    fn section3_an_old_term_entry_on_a_quorum_commits_in_raftstar_only() {
        let mut leader = base_with(&[1, 1]).log;
        assert!(!Plain::commits(&leader, Slot(2), Term(2)));
        assert!(Star::commits(&leader, Slot(2), Term(2)));
        // The leader's own append: Raft* marks every ballot, Raft none —
        // and Raft commits the old entries behind its own-term one.
        leader.append(entry(2, 3));
        Plain::rewrite_ballots(&mut leader, Term(2));
        assert_eq!(leader.bal_at(Slot(1)), Some(Term(1)));
        assert!(Plain::commits(&leader, Slot(3), Term(2)));
        Star::rewrite_ballots(&mut leader, Term(2));
        assert_eq!(leader.bal_at(Slot(1)), Some(Term(2)));
    }

    #[test]
    #[should_panic(expected = "Raft*")]
    fn plain_raft_refuses_a_lease_read_mode() {
        RaftReplica::new(config(ReadMode::QuorumLease));
    }

    #[test]
    #[should_panic(expected = "Mencius has no leader to gate a lease")]
    fn mencius_refuses_a_quorum_lease() {
        MenciusReplica::new(config(ReadMode::QuorumLease));
    }

    #[test]
    #[should_panic(expected = "Mencius has no leader to gate a lease")]
    fn mencius_refuses_a_leader_lease() {
        MenciusReplica::new(config(ReadMode::LeaderLease));
    }

    #[test]
    fn log_reads_build_no_lease_manager_under_either_flavor() {
        assert!(RaftReplica::new(config(ReadMode::LogRead))
            .core
            .lease
            .is_none());
        assert!(RaftStarReplica::new(config(ReadMode::LogRead))
            .core
            .lease
            .is_none());
        assert!(RaftStarReplica::new(config(ReadMode::LeaderLease))
            .core
            .lease
            .is_some());
        // MultiPaxos, where PQL was born, runs both lease modes. A lease
        // keeps the conflict index; log reads keep none, and Mencius keeps
        // one for its respond pass.
        let paxos = |mode| MultiPaxosReplica::new(config(mode)).core;
        let core = paxos(ReadMode::LogRead);
        assert!(core.lease.is_none() && core.conflicts.is_none());
        for mode in [ReadMode::QuorumLease, ReadMode::LeaderLease] {
            let core = paxos(mode);
            assert!(core.lease.is_some() && core.conflicts.is_some(), "{mode:?}");
        }
        let mencius = MenciusReplica::new(config(ReadMode::LogRead)).core;
        assert!(mencius.lease.is_none() && mencius.conflicts.is_some());
    }

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
