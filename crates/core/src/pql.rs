//! Quorum leases: the state behind Raft*-PQL and the Leader-Lease (LL)
//! baseline (Section 5.1, Appendix A.1–A.2).
//!
//! A replica may serve a read locally when it holds *valid leases from a
//! quorum* of replicas (`validLeasesNum ≥ f + 1`, Figure 13 line 3). The
//! flip side is the write path: a leader may only commit once it has
//! acknowledgements from **all current lease holders** — Figure 8's
//! `LeaderLearn`, where `holderSet` is the union of holders reported by
//! the `f` responders **plus the holders granted by the leader itself**
//! (the detail the paper's hand-worked port got wrong).
//!
//! Grants are two-way: a grantor counts a replica as a *holder* only
//! after the replica acknowledges the grant, so a crashed holder stops
//! gating writes once its last acknowledged grant expires. Expiry uses
//! the simulator's global clock, playing the role of the TLA+ spec's
//! global `timer`; a real deployment subtracts a clock-drift guard band.

use paxraft_sim::time::SimTime;

use crate::config::{LeaseConfig, ReadMode};
use crate::types::{max_failures, me_bit, NodeId, Slot};

/// Lease bookkeeping for one replica.
#[derive(Debug)]
pub struct LeaseManager {
    cfg: LeaseConfig,
    mode: ReadMode,
    n: usize,
    me: NodeId,
    /// `granted_to[h]`: expiry of the last grant to `h` that `h` acked.
    granted_to: Vec<SimTime>,
    /// `held_from[g]`: expiry of the lease this replica holds from `g`.
    held_from: Vec<SimTime>,
    /// Local reads must wait until the replica has applied through this
    /// slot: the highest grantor log index attached to any grant that
    /// (re-)established a lapsed lease. Writes committed while this
    /// replica held no lease never waited for its acknowledgement, so
    /// a freshly re-leased replica must catch up first.
    read_floor: Slot,
}

impl LeaseManager {
    /// Creates the manager for replica `me` of `n`.
    pub fn new(cfg: LeaseConfig, mode: ReadMode, n: usize, me: NodeId) -> Self {
        LeaseManager {
            cfg,
            mode,
            n,
            me,
            granted_to: vec![SimTime::ZERO; n],
            held_from: vec![SimTime::ZERO; n],
            read_floor: Slot::NONE,
        }
    }

    /// The read mode this manager serves.
    pub fn mode(&self) -> ReadMode {
        self.mode
    }

    /// Who this replica grants leases to on each renewal: every replica
    /// under quorum leases, only the (believed) leader under LL.
    pub fn grant_targets(&self, leader_hint: Option<NodeId>) -> Vec<NodeId> {
        match self.mode {
            ReadMode::QuorumLease => (0..self.n as u32)
                .map(NodeId)
                .filter(|&x| x != self.me)
                .collect(),
            ReadMode::LeaderLease => match leader_hint {
                Some(l) if l != self.me => vec![l],
                _ => Vec::new(),
            },
            ReadMode::LogRead => Vec::new(),
        }
    }

    /// The expiry a grant issued `now` carries.
    pub fn grant_expiry(&self, now: SimTime) -> SimTime {
        now + self.cfg.duration
    }

    /// Records the self-grant performed on each renewal tick (a replica
    /// trivially holds its own lease; "at least f + 1 replicas (including
    /// itself)", Section 5.1).
    pub fn self_grant(&mut self, now: SimTime) {
        let exp = self.grant_expiry(now);
        let me = self.me.0 as usize;
        self.held_from[me] = exp;
        self.granted_to[me] = exp;
    }

    /// Records a received grant from `grantor`. `grantor_last` is the
    /// grantor's log tail at grant time and `now` the receipt time: when
    /// this grant *re-establishes* a lapsed lease, local reads are gated
    /// until the replica has applied through `grantor_last`.
    pub fn on_grant(
        &mut self,
        grantor: NodeId,
        expires: SimTime,
        grantor_last: Slot,
        now: SimTime,
    ) {
        let e = &mut self.held_from[grantor.0 as usize];
        if *e <= now && grantor_last > self.read_floor {
            // The previous grant from this grantor had lapsed (or never
            // existed): catch up before reading locally again.
            self.read_floor = grantor_last;
        }
        if expires > *e {
            *e = expires;
        }
    }

    /// The slot local reads must have applied through (see `on_grant`).
    pub fn read_floor(&self) -> Slot {
        self.read_floor
    }

    /// Records a holder's acknowledgement of our grant.
    pub fn on_grant_ack(&mut self, holder: NodeId, expires: SimTime) {
        let e = &mut self.granted_to[holder.0 as usize];
        if expires > *e {
            *e = expires;
        }
    }

    /// `validLeasesNum`: how many replicas' leases this replica holds.
    pub fn valid_leases(&self, now: SimTime) -> usize {
        self.held_from.iter().filter(|&&e| e > now).count()
    }

    /// Figure 13 line 3: can this replica serve reads locally?
    pub fn has_quorum_lease(&self, now: SimTime) -> bool {
        self.valid_leases(now) >= max_failures(self.n) + 1
    }

    /// Holders granted by this replica whose grants are still valid, one
    /// bit per replica ([`me_bit`]) — attached to `appendOK` (Figure 8
    /// Phase2b) and unioned into `holderSet` at the leader.
    pub fn current_holders(&self, now: SimTime) -> u64 {
        let valid = |h: &u32| self.granted_to[*h as usize] > now;
        let held = (0..self.n as u32).filter(valid);
        held.fold(0, |set, h| set | me_bit(NodeId(h)))
    }

    /// Drops every lease this replica *holds* (crash behaviour: holders
    /// lose volatile lease state; grants they gave must expire naturally).
    pub fn drop_held(&mut self) {
        self.held_from = vec![SimTime::ZERO; self.n];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxraft_sim::time::SimDuration;

    fn mgr(mode: ReadMode) -> LeaseManager {
        LeaseManager::new(LeaseConfig::default(), mode, 5, NodeId(2))
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn quorum_lease_grants_to_everyone_else() {
        let m = mgr(ReadMode::QuorumLease);
        let targets = m.grant_targets(Some(NodeId(0)));
        assert_eq!(targets.len(), 4);
        assert!(!targets.contains(&NodeId(2)));
    }

    #[test]
    fn leader_lease_grants_only_to_leader() {
        let m = mgr(ReadMode::LeaderLease);
        assert_eq!(m.grant_targets(Some(NodeId(0))), vec![NodeId(0)]);
        assert!(m.grant_targets(None).is_empty());
        // The leader itself grants to nobody (it self-grants).
        let lm = LeaseManager::new(LeaseConfig::default(), ReadMode::LeaderLease, 5, NodeId(0));
        assert!(lm.grant_targets(Some(NodeId(0))).is_empty());
    }

    #[test]
    fn log_read_mode_grants_nothing() {
        let m = mgr(ReadMode::LogRead);
        assert!(m.grant_targets(Some(NodeId(0))).is_empty());
    }

    #[test]
    fn quorum_lease_requires_f_plus_one() {
        let mut m = mgr(ReadMode::QuorumLease);
        assert!(!m.has_quorum_lease(t(0)));
        m.self_grant(t(0));
        m.on_grant(NodeId(0), t(2000), Slot::NONE, t(0));
        assert_eq!(m.valid_leases(t(1)), 2);
        assert!(!m.has_quorum_lease(t(1)), "2 < f+1 = 3");
        m.on_grant(NodeId(1), t(2000), Slot::NONE, t(0));
        assert!(m.has_quorum_lease(t(1)), "3 >= f+1");
    }

    #[test]
    fn leases_expire() {
        let mut m = mgr(ReadMode::QuorumLease);
        m.self_grant(t(0));
        m.on_grant(NodeId(0), t(100), Slot::NONE, t(0));
        m.on_grant(NodeId(1), t(100), Slot::NONE, t(0));
        assert!(m.has_quorum_lease(t(50)));
        assert!(!m.has_quorum_lease(t(150)), "grants from 0 and 1 expired");
    }

    #[test]
    fn stale_grant_does_not_shorten() {
        let mut m = mgr(ReadMode::QuorumLease);
        m.on_grant(NodeId(0), t(500), Slot::NONE, t(0));
        m.on_grant(NodeId(0), t(300), Slot::NONE, t(100)); // reordered older grant
        assert_eq!(m.valid_leases(t(400)), 1);
    }

    #[test]
    fn holders_require_ack() {
        let mut m = mgr(ReadMode::QuorumLease);
        assert_eq!(m.current_holders(t(0)), 0, "no acks yet");
        m.on_grant_ack(NodeId(4), t(2000));
        assert_eq!(m.current_holders(t(1)), me_bit(NodeId(4)));
        // After expiry the holder no longer gates writes.
        assert_eq!(m.current_holders(t(3000)), 0);
    }

    #[test]
    fn self_grant_counts_as_holder_and_held() {
        let mut m = mgr(ReadMode::QuorumLease);
        m.self_grant(t(0));
        assert_eq!(m.current_holders(t(1)), me_bit(NodeId(2)));
        assert_eq!(m.valid_leases(t(1)), 1);
    }

    #[test]
    fn drop_held_clears_only_held_side() {
        let mut m = mgr(ReadMode::QuorumLease);
        m.self_grant(t(0));
        m.on_grant(NodeId(0), t(2000), Slot::NONE, t(0));
        m.on_grant_ack(NodeId(1), t(2000));
        m.drop_held();
        assert_eq!(m.valid_leases(t(1)), 0);
        assert!(
            m.current_holders(t(1)) & me_bit(NodeId(1)) != 0,
            "grants given persist"
        );
    }

    #[test]
    fn grant_expiry_is_duration_ahead() {
        let m = mgr(ReadMode::QuorumLease);
        assert_eq!(m.grant_expiry(t(100)), t(100) + SimDuration::from_secs(2));
    }
}
