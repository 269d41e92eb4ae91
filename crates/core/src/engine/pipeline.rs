//! The per-peer replication pipeline window, written once for every
//! protocol.
//!
//! The highest-leverage throughput optimization reported for both
//! protocol families is the same mechanism under two names: etcd-style
//! *pipelined AppendEntries* (Raft) and *α-bounded in-flight instances*
//! (Paxos). Because it only concerns *when a leader may start another
//! replication round toward a peer*, it is protocol-agnostic under the
//! paper's Figure-3 vocabulary map — an append round ↔ an accept round —
//! and therefore belongs in the engine: implemented here once, inherited
//! by Raft, Raft*, MultiPaxos and Mencius (which pipelines rounds of its
//! own round-robin slot range).
//!
//! The window tracks, per peer, the replication rounds that were sent
//! but not yet acknowledged. Three behaviors matter:
//!
//! - **Depth bound**: at most [`PipelineConfig::depth`] rounds may be in
//!   flight per peer; senders consult [`PipelineWindow::has_room`]
//!   before shipping *new* entries (retransmissions are not gated).
//! - **Out-of-order ack accounting**: an acknowledgement covering slot
//!   `s` retires every round whose end lies at or below `s`, so a lost
//!   ack does not pin the window once a later one arrives.
//! - **Retransmit-on-regress**: when a peer rejects or times out, its
//!   in-flight rounds are cleared ([`PipelineWindow::on_regress`]) so
//!   the retransmission path starts a fresh window rather than counting
//!   dead rounds against the depth.
//!
//! The window also drives the engine's **adaptive batch cutter** (see
//! [`super::ReplicaEngine`]): while a replication quorum has window room
//! a pending batch is flushed immediately (pipelining hides the round
//! trip, so waiting only adds latency); once the window saturates,
//! commands accumulate up to `batch_max` or the batch timer — exactly
//! the regime where batching amortizes per-round cost.

use std::collections::VecDeque;

use paxraft_sim::time::{SimDuration, SimTime};

use crate::types::{NodeId, Slot};

/// Pipelining parameters, shared by every protocol.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Maximum in-flight (unacknowledged) replication rounds per peer.
    /// `0` disables pipelining entirely: no eager batch cutting and no
    /// per-peer send gating — the pre-pipeline one-round-per-timer/ack
    /// behavior.
    pub depth: usize,
    /// Follower-side adaptive forwarding: when on, leaders piggyback
    /// their window occupancy on replication/heartbeat traffic
    /// (`window_room`) and a follower holding pending commands forwards
    /// them immediately while the hint says the leader can absorb a
    /// fresh round — instead of always paying the batch delay before
    /// forwarding. **On by default** since the PR 5 fingerprint re-pin
    /// (`PARITY_pr5.txt`); it removes the ~2 ms batch delay per
    /// far-follower commit with no wire cost.
    pub follower_hints: bool,
    /// NIC-aware batch cutting: when on, the adaptive cutter refuses to
    /// cut eagerly while this node's egress NIC backlog exceeds a
    /// quarter of the batch delay — a message cut then queues behind
    /// the backlog instead of starting promptly, and per-round overhead
    /// costs throughput once bytes (not window room) are the bottleneck
    /// (the Figure-10b regime; see the `payload_4kb_*` bench rows).
    pub nic_aware: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            depth: 8,
            follower_hints: true,
            nic_aware: true,
        }
    }
}

impl PipelineConfig {
    /// Whether pipelining is on.
    pub fn enabled(&self) -> bool {
        self.depth > 0
    }

    /// Pipelining disabled (legacy batching discipline).
    pub fn disabled() -> Self {
        PipelineConfig {
            depth: 0,
            follower_hints: false,
            nic_aware: false,
        }
    }

    /// Pipelining with the given window depth.
    pub fn depth(depth: usize) -> Self {
        PipelineConfig {
            depth,
            ..PipelineConfig::default()
        }
    }

    /// This configuration with follower-side adaptive forwarding off
    /// (the pre-PR 5 default).
    pub fn without_follower_hints(mut self) -> Self {
        self.follower_hints = false;
        self
    }

    /// This configuration with NIC-aware batch cutting off (the cutter
    /// then consults window room alone, the PR 3/4 behavior).
    pub fn without_nic_aware_cutting(mut self) -> Self {
        self.nic_aware = false;
        self
    }
}

/// One in-flight replication round toward a peer.
#[derive(Debug, Clone, Copy)]
struct Round {
    /// Highest slot the round carries; an ack at or above it retires
    /// the round.
    upto: Slot,
    /// When the round was shipped (staleness expiry).
    sent_at: SimTime,
}

/// Occupancy and cutter counters, aggregated into
/// [`crate::harness::RunReport::pipeline`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PipelineStats {
    /// Replication rounds shipped through the window.
    pub rounds_sent: u64,
    /// High-water mark of in-flight rounds to any single peer.
    pub peak_in_flight: u64,
    /// Batch flushes triggered by window room (no timer wait).
    pub eager_flushes: u64,
    /// Times the cutter accumulated instead because the window was
    /// saturated.
    pub window_deferrals: u64,
    /// Rounds retired by out-of-order/cumulative acknowledgements.
    pub rounds_acked: u64,
    /// Rounds cleared by a regress (rejection, rewind, or expiry).
    pub rounds_regressed: u64,
    /// Follower forwards cut early because a piggybacked leader
    /// occupancy hint said the window had room
    /// ([`PipelineConfig::follower_hints`]).
    pub hint_flushes: u64,
    /// Eager cuts refused because the egress NIC backlog exceeded the
    /// batch delay ([`PipelineConfig::nic_aware`]): the bandwidth-bound
    /// regime where batching amortizes per-message overhead.
    pub nic_deferrals: u64,
}

impl PipelineStats {
    /// Accumulates another replica's counters (peaks take the max).
    pub fn absorb(&mut self, other: &PipelineStats) {
        self.rounds_sent += other.rounds_sent;
        self.peak_in_flight = self.peak_in_flight.max(other.peak_in_flight);
        self.eager_flushes += other.eager_flushes;
        self.window_deferrals += other.window_deferrals;
        self.rounds_acked += other.rounds_acked;
        self.rounds_regressed += other.rounds_regressed;
        self.hint_flushes += other.hint_flushes;
        self.nic_deferrals += other.nic_deferrals;
    }
}

/// Per-peer in-flight round tracking for one replica.
#[derive(Debug)]
pub struct PipelineWindow {
    depth: usize,
    inflight: Vec<VecDeque<Round>>,
    /// Occupancy and cutter counters.
    pub stats: PipelineStats,
}

impl PipelineWindow {
    /// An empty window over `n` peers with the configured depth.
    pub fn new(n: usize, cfg: &PipelineConfig) -> Self {
        PipelineWindow {
            depth: cfg.depth,
            inflight: vec![VecDeque::new(); n],
            stats: PipelineStats::default(),
        }
    }

    /// Whether pipelining is active (depth > 0).
    pub fn enabled(&self) -> bool {
        self.depth > 0
    }

    /// In-flight rounds toward `peer`.
    pub fn in_flight(&self, peer: NodeId) -> usize {
        self.inflight[peer.0 as usize].len()
    }

    /// Total in-flight rounds across every peer — the occupancy gauge
    /// the telemetry sampler reads.
    pub fn total_in_flight(&self) -> usize {
        self.inflight.iter().map(VecDeque::len).sum()
    }

    /// Whether a new round may be started toward `peer`. Always true
    /// when pipelining is disabled (the legacy unbounded behavior).
    pub fn has_room(&self, peer: NodeId) -> bool {
        !self.enabled() || self.in_flight(peer) < self.depth
    }

    /// Whether enough peers have window room that a fresh round could
    /// still be acknowledged by a replication quorum: at least
    /// `quorum - 1` of the *other* replicas (the sender supplies the
    /// remaining vote itself).
    pub fn quorum_has_room(&self, me: NodeId, n: usize) -> bool {
        if !self.enabled() {
            return false;
        }
        let need = crate::types::quorum(n) - 1;
        let with_room = (0..n)
            .filter(|&i| i != me.0 as usize)
            .filter(|&i| self.inflight[i].len() < self.depth)
            .count();
        with_room >= need
    }

    /// Records a round covering slots up to `upto` shipped to `peer`.
    pub fn on_sent(&mut self, peer: NodeId, upto: Slot, now: SimTime) {
        let q = &mut self.inflight[peer.0 as usize];
        q.push_back(Round { upto, sent_at: now });
        self.stats.rounds_sent += 1;
        self.stats.peak_in_flight = self.stats.peak_in_flight.max(q.len() as u64);
    }

    /// Records an acknowledgement from `peer` covering slots through
    /// `upto`: every round ending at or below it retires, including
    /// rounds skipped over by an out-of-order (later) acknowledgement.
    pub fn on_ack(&mut self, peer: NodeId, upto: Slot) {
        let q = &mut self.inflight[peer.0 as usize];
        while q.front().is_some_and(|r| r.upto <= upto) {
            q.pop_front();
            self.stats.rounds_acked += 1;
        }
    }

    /// Clears `peer`'s in-flight rounds after a rejection or rewind: the
    /// retransmission path re-ships the suffix as a fresh round.
    pub fn on_regress(&mut self, peer: NodeId) {
        let q = &mut self.inflight[peer.0 as usize];
        self.stats.rounds_regressed += q.len() as u64;
        q.clear();
    }

    /// Drops rounds older than `retry` (their acks are presumed lost and
    /// a periodic retransmission path covers the data). Keeps a stalled
    /// peer from pinning the window shut forever.
    pub fn expire_stale(&mut self, now: SimTime, retry: SimDuration) {
        for q in &mut self.inflight {
            while q
                .front()
                .is_some_and(|r| now.since(r.sent_at.min(now)) > retry)
            {
                q.pop_front();
                self.stats.rounds_regressed += 1;
            }
        }
    }

    /// Forgets every in-flight round (leadership change, crash).
    pub fn reset(&mut self) {
        for q in &mut self.inflight {
            q.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(depth: usize) -> PipelineWindow {
        PipelineWindow::new(5, &PipelineConfig::depth(depth))
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn depth_bounds_in_flight_rounds() {
        let mut w = window(2);
        assert!(w.has_room(NodeId(1)));
        w.on_sent(NodeId(1), Slot(5), t(0));
        assert!(w.has_room(NodeId(1)));
        w.on_sent(NodeId(1), Slot(9), t(1));
        assert!(!w.has_room(NodeId(1)), "window full at depth 2");
        assert!(w.has_room(NodeId(2)), "per-peer accounting");
    }

    #[test]
    fn cumulative_ack_retires_covered_rounds() {
        let mut w = window(4);
        w.on_sent(NodeId(1), Slot(3), t(0));
        w.on_sent(NodeId(1), Slot(6), t(1));
        w.on_sent(NodeId(1), Slot(9), t(2));
        // The ack for the second round also covers the first (whose own
        // ack may have been lost or reordered behind it).
        w.on_ack(NodeId(1), Slot(6));
        assert_eq!(w.in_flight(NodeId(1)), 1);
        w.on_ack(NodeId(1), Slot(9));
        assert_eq!(w.in_flight(NodeId(1)), 0);
    }

    #[test]
    fn stale_ack_retires_nothing() {
        let mut w = window(4);
        w.on_sent(NodeId(1), Slot(8), t(0));
        w.on_ack(NodeId(1), Slot(4));
        assert_eq!(w.in_flight(NodeId(1)), 1);
    }

    #[test]
    fn regress_clears_the_peer_window() {
        let mut w = window(2);
        w.on_sent(NodeId(3), Slot(5), t(0));
        w.on_sent(NodeId(3), Slot(9), t(1));
        assert!(!w.has_room(NodeId(3)));
        w.on_regress(NodeId(3));
        assert!(w.has_room(NodeId(3)), "retransmission starts fresh");
        assert_eq!(w.stats.rounds_regressed, 2);
    }

    #[test]
    fn expiry_drops_old_rounds_only() {
        let mut w = window(4);
        w.on_sent(NodeId(1), Slot(5), t(0));
        w.on_sent(NodeId(1), Slot(9), t(500));
        w.expire_stale(t(700), SimDuration::from_millis(600));
        assert_eq!(w.in_flight(NodeId(1)), 1, "only the 700ms-old round");
    }

    #[test]
    fn quorum_room_needs_enough_followers() {
        let mut w = window(1);
        // n = 5, me = 0: need 2 of the 4 others with room.
        assert!(w.quorum_has_room(NodeId(0), 5));
        w.on_sent(NodeId(1), Slot(1), t(0));
        w.on_sent(NodeId(2), Slot(1), t(0));
        assert!(w.quorum_has_room(NodeId(0), 5), "3 and 4 still have room");
        w.on_sent(NodeId(3), Slot(1), t(0));
        assert!(!w.quorum_has_room(NodeId(0), 5), "only node 4 has room");
    }

    #[test]
    fn disabled_window_never_gates_but_never_offers_quorum_room() {
        let mut w = window(0);
        w.on_sent(NodeId(1), Slot(1), t(0));
        w.on_sent(NodeId(1), Slot(2), t(0));
        assert!(w.has_room(NodeId(1)), "depth 0 = unbounded legacy sends");
        assert!(!w.quorum_has_room(NodeId(0), 5), "no eager cutting");
    }

    #[test]
    fn peak_occupancy_is_tracked() {
        let mut w = window(8);
        for i in 1..=5u64 {
            w.on_sent(NodeId(2), Slot(i), t(i));
        }
        w.on_ack(NodeId(2), Slot(5));
        assert_eq!(w.stats.peak_in_flight, 5);
        assert_eq!(w.stats.rounds_acked, 5);
    }
}
