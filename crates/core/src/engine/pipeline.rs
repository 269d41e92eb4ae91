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
//! commands accumulate up to [`super::BATCH_MAX`] or the batch timer — exactly
//! the regime where batching amortizes per-round cost.
//!
//! # A freed slot carries its share
//!
//! The window counts rounds, not entries, and the cutter fills it with
//! one- to three-entry rounds within milliseconds. What ships when an ack
//! then frees a slot decides what the peer's device sees. Shipping the
//! whole backlog — the right thing when an ack costs the same whatever
//! the round holds — goes wrong under
//! [`FsyncPerEntry`](crate::config::FsyncPolicy::FsyncPerEntry), where a
//! k-entry round is k serial barriers acknowledged after the last: the
//! one giant round holds its slot k device latencies, the small rounds
//! queue behind it on the peer's FIFO device, all the acks come back
//! together (*ack compression*), and the next cycle starts with a larger
//! backlog, k = λ·RTT / (1 − λ·d) — four bandwidth-delay products at
//! 75 % of a 1 ms device. On the `fsync-overload` ladder that cost the
//! per-entry Raft cell a p50 of 151 / 218 / 345 ms at 25 / 50 / 75 %
//! utilisation where group commit holds 141 ms; it was neither retries
//! (none at 512 sessions) nor the leader's disk (the quorum → commit
//! stage is 0.0 ms throughout).
//!
//! So a round *pumped on an ack* carries at most `ceil(outstanding /
//! depth)` entries, at least one, where `outstanding` runs from the
//! highest slot that peer acknowledged to the sender's tail
//! ([`PipelineWindow::round_cap`]), and the pump keeps sending such
//! rounds while the peer has room and entries remain. The slots of a full
//! window then carry everything outstanding between them in equal
//! parts; acks return spaced by their own service time, each freed slot
//! ships a round ρ times the last, and the pattern converges to the even
//! one group commit already has (148 / 157 / 154 ms on the same rungs).
//! Only the pump is sized: a fresh batch from `propose`, a heartbeat
//! retransmission and a post-reject re-probe ship what they always did.
//!
//! The rule applies exactly when the time to acknowledge a round grows
//! with its length — per-entry fsync, read off the replica's own
//! [`DurabilityState::barrier_per_entry`]. Otherwise the cap is
//! `usize::MAX` and every schedule is bit for bit what it was. It must
//! not apply more widely: sized rounds *regardless of durability* cost
//! `wan-paper` 2.9 % goodput (7 % on the PQL cell) and 5 % p99, and
//! `raft-4k` 17 % more events — without a device in the way, one round
//! is cheaper than eight. The other ways out were
//! measured and rejected too: a deeper window (16 / 64 / 512) buys the
//! same latency by streaming one-entry rounds (`events_per_op` 22.7 →
//! 28.0 / 43.2 / 52.6), and a fixed cap of 64 / 32 / 16 / 8 entries
//! reads 258 / 236 / 220 / 218 ms where the share reads 212, and at 8
//! strangles group commit (p99 216 → 2,120 ms).

use std::collections::VecDeque;

use paxraft_sim::time::{SimDuration, SimTime};

use crate::types::{NodeId, Slot};

use super::durability::DurabilityState;

/// Pipelining parameters, shared by every protocol.
///
/// The window also drives two cutter rules that have no switch of their
/// own. **Follower hints:** leaders piggyback whether a replication
/// quorum has window room on replication and heartbeat traffic
/// (`window_room`), and a follower holding pending commands forwards them
/// at once while a fresh hint says so, instead of paying the batch delay
/// first. **NIC-aware cutting:** an eager cut (leader or hinted follower)
/// is refused while this node's egress NIC backlog exceeds a quarter of
/// the batch delay — bytes, not window room, are then the bottleneck (the
/// Figure-10b regime) — and the batch accumulates until the NIC drains:
/// a batch-timer fire that finds the backlog still above that quarter
/// cuts nothing below [`super::BATCH_MAX`] and re-arms for the moment it
/// has drained to it. The NIC is FIFO, so the bytes arrive no later, in
/// one round instead of several.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Maximum in-flight (unacknowledged) replication rounds per peer; at
    /// least 1 ([`crate::config::ReplicaConfig::validate`]). Depth 1 is
    /// true round serialization: one unacknowledged round per peer.
    pub depth: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig { depth: 8 }
    }
}

impl PipelineConfig {
    /// Pipelining with the given window depth.
    pub fn depth(depth: usize) -> Self {
        PipelineConfig { depth }
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
    /// occupancy hint said the window had room (follower hints,
    /// [`PipelineConfig`]).
    pub hint_flushes: u64,
    /// Eager cuts refused because the egress NIC backlog exceeded a
    /// quarter of the batch delay (NIC-aware cutting, [`PipelineConfig`]):
    /// the bandwidth-bound regime where batching amortizes per-message
    /// overhead.
    pub nic_deferrals: u64,
    /// Entries in the longest round shipped from a backlog on an ack —
    /// the rounds [`PipelineWindow::round_cap`] sizes.
    pub peak_pumped_round: u64,
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
        self.peak_pumped_round = self.peak_pumped_round.max(other.peak_pumped_round);
    }
}

/// Per-peer in-flight round tracking for one replica.
#[derive(Debug)]
pub struct PipelineWindow {
    depth: usize,
    inflight: Vec<VecDeque<Round>>,
    /// Highest slot each peer acknowledged since the last reset: what
    /// [`PipelineWindow::round_cap`] measures the outstanding work from.
    acked: Vec<Slot>,
    /// Occupancy and cutter counters.
    pub stats: PipelineStats,
}

impl PipelineWindow {
    /// An empty window over `n` peers with the configured depth.
    pub fn new(n: usize, cfg: &PipelineConfig) -> Self {
        PipelineWindow {
            depth: cfg.depth,
            inflight: vec![VecDeque::new(); n],
            acked: vec![Slot::NONE; n],
            stats: PipelineStats::default(),
        }
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

    /// Whether a new round may be started toward `peer`.
    pub fn has_room(&self, peer: NodeId) -> bool {
        self.in_flight(peer) < self.depth
    }

    /// Whether enough peers have window room that a fresh round could
    /// still be acknowledged by a replication quorum: at least
    /// `quorum - 1` of the *other* replicas (the sender supplies the
    /// remaining vote itself).
    pub fn quorum_has_room(&self, me: NodeId, n: usize) -> bool {
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
    /// Returns when the last round it retired was shipped — so the ack's
    /// round trip is known without a timestamp per instance — or `None`
    /// if it retired nothing.
    pub fn on_ack(&mut self, peer: NodeId, upto: Slot) -> Option<SimTime> {
        let i = peer.0 as usize;
        self.acked[i] = self.acked[i].max(upto);
        let q = &mut self.inflight[i];
        let mut shipped = None;
        while let Some(round) = q.front().filter(|r| r.upto <= upto) {
            shipped = Some(round.sent_at);
            q.pop_front();
            self.stats.rounds_acked += 1;
        }
        shipped
    }

    /// The most entries one round *pumped* to `peer` after an ack may
    /// carry, by the share rule (module docs): `ceil(outstanding /
    /// depth)`, at least 1, where `outstanding` counts from the highest
    /// slot the peer acknowledged to the sender's `tail` — so the rounds
    /// a full window holds carry everything outstanding between them,
    /// in equal parts. Unbounded (`usize::MAX`: the whole backlog in one
    /// round) unless the peer's acknowledgement takes a device barrier
    /// per entry.
    pub fn round_cap(&self, peer: NodeId, tail: Slot, dur: &DurabilityState) -> usize {
        if !dur.barrier_per_entry() {
            return usize::MAX;
        }
        let outstanding = tail.0.saturating_sub(self.acked[peer.0 as usize].0) as usize;
        outstanding.div_ceil(self.depth).max(1)
    }

    /// Records a round of `entries` shipped from a backlog on an ack,
    /// cut to the `cap` [`PipelineWindow::round_cap`] gave for it.
    pub fn note_pumped(&mut self, entries: usize, cap: usize) {
        debug_assert!(entries <= cap, "a pumped round carries at most its share");
        self.stats.peak_pumped_round = self.stats.peak_pumped_round.max(entries as u64);
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
        self.acked.fill(Slot::NONE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DurabilityConfig;

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
        // ack may have been lost or reordered behind it); the round trip
        // it reports is the second's.
        assert_eq!(w.on_ack(NodeId(1), Slot(6)), Some(t(1)));
        assert_eq!(w.in_flight(NodeId(1)), 1);
        assert_eq!(w.on_ack(NodeId(1), Slot(9)), Some(t(2)));
        assert_eq!(w.in_flight(NodeId(1)), 0);
    }

    #[test]
    fn stale_ack_retires_nothing() {
        let mut w = window(4);
        w.on_sent(NodeId(1), Slot(8), t(0));
        assert_eq!(w.on_ack(NodeId(1), Slot(4)), None);
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

    fn per_entry() -> DurabilityState {
        DurabilityState::new(&DurabilityConfig::per_entry(SimDuration::from_millis(1)))
    }

    /// The share of a freed slot: `ceil(outstanding / depth)`, never
    /// below one entry, counted from what the peer acknowledged.
    #[test]
    fn round_cap_is_the_windows_share_of_what_is_outstanding() {
        let mut w = window(8);
        let dur = per_entry();
        for (outstanding, share) in [(0, 1), (1, 1), (8, 1), (9, 2), (300, 38)] {
            assert_eq!(w.round_cap(NodeId(1), Slot(outstanding), &dur), share);
        }
        // Outstanding counts from the peer's own highest ack, which never
        // moves back and dies with the window's rounds on a reset.
        w.on_ack(NodeId(1), Slot(100));
        w.on_ack(NodeId(1), Slot(60));
        assert_eq!(w.round_cap(NodeId(1), Slot(400), &dur), 38);
        assert_eq!(w.round_cap(NodeId(2), Slot(400), &dur), 50, "per peer");
        assert_eq!(
            w.round_cap(NodeId(1), Slot(90), &dur),
            1,
            "tail behind the ack"
        );
        w.reset();
        assert_eq!(w.round_cap(NodeId(1), Slot(400), &dur), 50);
    }

    /// Without a barrier per entry behind the ack, the whole backlog ships
    /// at once — today's schedule.
    #[test]
    fn round_cap_is_unbounded_without_a_per_entry_device() {
        let group = DurabilityState::new(&DurabilityConfig::group_commit(
            SimDuration::from_millis(1),
            32,
            SimDuration::from_millis(1),
        ));
        let none = DurabilityState::new(&DurabilityConfig::default());
        for dur in [&group, &none] {
            assert_eq!(window(8).round_cap(NodeId(1), Slot(300), dur), usize::MAX);
        }
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
