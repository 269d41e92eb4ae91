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
//! It is also the one record of what a leader (or slot owner) knows of
//! each peer — etcd raft's `tracker.Progress`: the highest slot the peer
//! acknowledged (Match), the send cursor (Next), the rounds in flight
//! (Inflights) and a snapshot transfer in flight (PendingSnapshot). Raft
//! and Raft* also read the cursor for the next append's `prev`, back it
//! off on a rejection ([`PipelineWindow::on_reject`]), rewind it after
//! [`super::RETRY_INTERVAL`] without progress
//! ([`PipelineWindow::maybe_rewind`]) and tally commits from the matches
//! ([`PipelineWindow::kth_largest_match`]); MultiPaxos pumps a skipped
//! acceptor's backlog from the cursor. A leadership change resets
//! rounds, matches and cursors ([`PipelineWindow::reset_for_leadership`];
//! Raft's cursor to its log tail, MultiPaxos's to none) and keeps a
//! transfer's pacing; a crash forgets everything
//! ([`PipelineWindow::reset`]).
//!
//! Of the rounds sent but not yet acknowledged, three behaviors matter:
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

/// One peer's progress, as the sender sees it.
#[derive(Debug, Clone, Default)]
struct Progress {
    /// Highest slot the peer acknowledged since the last reset: what
    /// [`PipelineWindow::round_cap`] measures the outstanding work from
    /// and the Raft family's commit tally counts.
    matched: Slot,
    /// Highest slot shipped (or, in MultiPaxos, passed over as
    /// committed) since the last reset: the send cursor.
    sent_through: Slot,
    /// The `prev` of the last append (the Raft family's rejection
    /// backoff).
    prev_sent: Slot,
    /// When anything was last sent (the Raft family's timed rewind).
    last_sent: SimTime,
    /// Rounds sent and not yet acknowledged, oldest first.
    inflight: VecDeque<Round>,
    /// When the snapshot transfer in flight started, if one is.
    snapshot_since: Option<SimTime>,
}

/// Per-peer replication progress for one replica.
#[derive(Debug)]
pub struct PipelineWindow {
    depth: usize,
    peers: Vec<Progress>,
    /// Occupancy and cutter counters.
    pub stats: PipelineStats,
}

impl PipelineWindow {
    /// An empty window over `n` peers with the configured depth.
    pub fn new(n: usize, cfg: &PipelineConfig) -> Self {
        PipelineWindow {
            depth: cfg.depth,
            peers: vec![Progress::default(); n],
            stats: PipelineStats::default(),
        }
    }

    /// In-flight rounds toward `peer`.
    pub fn in_flight(&self, peer: NodeId) -> usize {
        self.peers[peer.0 as usize].inflight.len()
    }

    /// Total in-flight rounds across every peer — the occupancy gauge
    /// the telemetry sampler reads.
    pub fn total_in_flight(&self) -> usize {
        self.peers.iter().map(|p| p.inflight.len()).sum()
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
            .filter(|&i| self.peers[i].inflight.len() < self.depth)
            .count();
        with_room >= need
    }

    /// Highest slot `peer` acknowledged since the last reset.
    pub fn match_index(&self, peer: NodeId) -> Slot {
        self.peers[peer.0 as usize].matched
    }

    /// The send cursor: the highest slot shipped to `peer`, or passed
    /// over ([`PipelineWindow::skip_to`]), since the last reset.
    pub fn sent_through(&self, peer: NodeId) -> Slot {
        self.peers[peer.0 as usize].sent_through
    }

    /// The `prev` the next append to `peer` should use (Raft family):
    /// everything after it is shipped in that message.
    pub fn next_prev(&self, peer: NodeId) -> Slot {
        let p = &self.peers[peer.0 as usize];
        p.sent_through.max(p.matched)
    }

    /// Records a round covering slots up to `upto` shipped to `peer` at
    /// `now`: it holds a window slot until acknowledged, and the cursor
    /// moves up to `upto`.
    pub fn on_sent(&mut self, peer: NodeId, upto: Slot, now: SimTime) {
        let p = &mut self.peers[peer.0 as usize];
        p.sent_through = p.sent_through.max(upto);
        p.last_sent = now;
        p.inflight.push_back(Round { upto, sent_at: now });
        self.stats.rounds_sent += 1;
        let len = p.inflight.len() as u64;
        self.stats.peak_in_flight = self.stats.peak_in_flight.max(len);
    }

    /// Records an append of the log suffix `(prev, tail]` shipped to
    /// `peer` at `now` (Raft family): one that carries entries is a
    /// round ([`PipelineWindow::on_sent`]); an empty one (a heartbeat, or
    /// the append behind a snapshot of the whole log) moves the cursor
    /// the same way but takes no window slot.
    pub fn on_append(&mut self, peer: NodeId, prev: Slot, tail: Slot, now: SimTime) {
        let p = &mut self.peers[peer.0 as usize];
        p.prev_sent = prev;
        if tail > prev {
            self.on_sent(peer, tail, now);
        } else {
            p.sent_through = p.sent_through.max(tail);
            p.last_sent = now;
        }
    }

    /// Moves `peer`'s cursor up to `upto` without a send: MultiPaxos
    /// passes over instances a commit already covers.
    pub fn skip_to(&mut self, peer: NodeId, upto: Slot) {
        let p = &mut self.peers[peer.0 as usize];
        p.sent_through = p.sent_through.max(upto);
    }

    /// Records an acknowledgement from `peer` covering slots through
    /// `upto`: every round ending at or below it retires, including
    /// rounds skipped over by an out-of-order (later) acknowledgement.
    /// Returns when the last round it retired was shipped — so the ack's
    /// round trip is known without a timestamp per instance — or `None`
    /// if it retired nothing.
    pub fn on_ack(&mut self, peer: NodeId, upto: Slot) -> Option<SimTime> {
        let p = &mut self.peers[peer.0 as usize];
        p.matched = p.matched.max(upto);
        let mut shipped = None;
        while let Some(round) = p.inflight.front().filter(|r| r.upto <= upto) {
            shipped = Some(round.sent_at);
            p.inflight.pop_front();
            self.stats.rounds_acked += 1;
        }
        shipped
    }

    /// Records a rejected append with the follower's `last_idx` hint
    /// (Raft family): the rounds in flight to `peer` are dead, and the
    /// cursor backs off one slot below the last `prev`, or to the hint
    /// if that is lower, never below the match. Returns the `prev` to
    /// probe next.
    pub fn on_reject(&mut self, peer: NodeId, hint: Slot) -> Slot {
        self.on_regress(peer);
        let p = &mut self.peers[peer.0 as usize];
        let backoff = Slot(p.prev_sent.0.saturating_sub(1));
        let prev = backoff.min(hint).max(p.matched);
        p.sent_through = prev;
        p.prev_sent = prev;
        prev
    }

    /// Timed retransmission (Raft family): when `peer` has shipped but
    /// unacknowledged entries and nothing went to it for longer than
    /// `retry`, rewinds the cursor to the match so the next send repeats
    /// them, and regresses the window. Returns whether it rewound.
    pub fn maybe_rewind(&mut self, peer: NodeId, now: SimTime, retry: SimDuration) -> bool {
        let p = &mut self.peers[peer.0 as usize];
        if p.sent_through <= p.matched || now.since(p.last_sent.min(now)) <= retry {
            return false;
        }
        p.sent_through = p.matched;
        self.on_regress(peer);
        true
    }

    /// The largest slot acknowledged by at least `k` of the peers other
    /// than `exclude` (the sender itself): the highest match that `k`
    /// matches reach, counted in place — this runs on every ack.
    pub fn kth_largest_match(&self, k: usize, exclude: NodeId) -> Slot {
        let peers = || {
            let all = self.peers.iter().enumerate();
            all.filter(|(i, _)| *i != exclude.0 as usize)
                .map(|(_, p)| p.matched)
        };
        let reached_by_k = |m: &Slot| peers().filter(|other| other >= m).count() >= k;
        match k {
            0 => Slot::NONE,
            _ => peers().filter(reached_by_k).max().unwrap_or(Slot::NONE),
        }
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
        let outstanding = tail.0.saturating_sub(self.match_index(peer).0) as usize;
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
        let q = &mut self.peers[peer.0 as usize].inflight;
        self.stats.rounds_regressed += q.len() as u64;
        q.clear();
    }

    /// Drops rounds older than `retry` (their acks are presumed lost and
    /// a periodic retransmission path covers the data). Keeps a stalled
    /// peer from pinning the window shut forever.
    pub fn expire_stale(&mut self, now: SimTime, retry: SimDuration) {
        for p in &mut self.peers {
            while p
                .inflight
                .front()
                .is_some_and(|r| now.since(r.sent_at.min(now)) > retry)
            {
                p.inflight.pop_front();
                self.stats.rounds_regressed += 1;
            }
        }
    }

    /// Whether a snapshot transfer to `peer` may begin at `now`: at most
    /// one is in flight per peer, and an unacknowledged one is retried
    /// no sooner than `retry` after it started. Records the start when
    /// it may.
    pub fn begin_snapshot(&mut self, peer: NodeId, now: SimTime, retry: SimDuration) -> bool {
        let since = &mut self.peers[peer.0 as usize].snapshot_since;
        if since.is_some_and(|at| now.since(at.min(now)) < retry) {
            return false;
        }
        *since = Some(now);
        true
    }

    /// Marks `peer`'s snapshot transfer acknowledged: the next may start
    /// at once.
    pub fn finish_snapshot(&mut self, peer: NodeId) {
        self.peers[peer.0 as usize].snapshot_since = None;
    }

    /// Resets for a new leadership (or phase 1): no round in flight, no
    /// match, and every cursor at `cursor` — the Raft family's log tail,
    /// whose followers are optimistically assumed to hold it (rejections
    /// back the cursor off), or MultiPaxos's none. A snapshot transfer in
    /// flight keeps its pacing.
    pub fn reset_for_leadership(&mut self, cursor: Slot) {
        for p in &mut self.peers {
            p.inflight.clear();
            p.matched = Slot::NONE;
            p.sent_through = cursor;
            p.prev_sent = cursor;
            p.last_sent = SimTime::ZERO;
        }
    }

    /// Forgets everything about every peer, transfer pacing included
    /// (crash).
    pub fn reset(&mut self) {
        self.reset_for_leadership(Slot::NONE);
        for p in &mut self.peers {
            p.snapshot_since = None;
        }
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

    // The Raft family's cursor: the next append's `prev`, the rejection
    // backoff, the timed rewind and the commit tally.

    #[test]
    fn fresh_tracker_sends_everything() {
        let w = window(8);
        assert_eq!(w.next_prev(NodeId(1)), Slot::NONE);
    }

    #[test]
    fn a_sent_suffix_is_not_sent_again() {
        let mut w = window(8);
        w.on_append(NodeId(1), Slot::NONE, Slot(10), t(0));
        // The next batch flush ships only entries after 10.
        assert_eq!(w.next_prev(NodeId(1)), Slot(10));
    }

    #[test]
    fn ack_advances_match() {
        let mut w = window(8);
        w.on_append(NodeId(1), Slot::NONE, Slot(10), t(0));
        assert_eq!(w.on_ack(NodeId(1), Slot(10)), Some(t(0)));
        assert_eq!(w.match_index(NodeId(1)), Slot(10));
        assert_eq!(w.on_ack(NodeId(1), Slot(5)), None, "stale ack ignored");
        assert_eq!(w.match_index(NodeId(1)), Slot(10), "and moves no match");
    }

    #[test]
    fn reject_backs_off_and_respects_hint() {
        let mut w = window(8);
        w.reset_for_leadership(Slot(20));
        // Probe at prev=20 fails; follower says its last index is 3.
        let p = w.on_reject(NodeId(2), Slot(3));
        assert_eq!(p, Slot(3), "jump to the follower's tail");
        w.on_append(NodeId(2), p, Slot(20), t(0));
        // Another mismatch without a useful hint decrements.
        let p2 = w.on_reject(NodeId(2), Slot(3));
        assert_eq!(p2, Slot(2));
        assert_eq!(w.in_flight(NodeId(2)), 0, "the rejected round is dead");
    }

    #[test]
    fn reject_never_rewinds_before_match() {
        let mut w = window(8);
        w.on_ack(NodeId(1), Slot(8));
        w.on_append(NodeId(1), Slot(8), Slot(12), t(0));
        let p = w.on_reject(NodeId(1), Slot(1));
        assert_eq!(p, Slot(8), "matched prefix is never re-probed");
    }

    #[test]
    fn rewind_after_retry_interval() {
        let mut w = window(8);
        let retry = SimDuration::from_millis(600);
        w.on_append(NodeId(1), Slot::NONE, Slot(10), t(0));
        assert!(!w.maybe_rewind(NodeId(1), t(100), retry));
        assert!(w.maybe_rewind(NodeId(1), t(700), retry));
        assert_eq!(w.next_prev(NodeId(1)), Slot::NONE, "cursor back at match");
        assert_eq!(w.in_flight(NodeId(1)), 0, "and its rounds regressed");
    }

    #[test]
    fn no_rewind_when_fully_acked() {
        let mut w = window(8);
        w.on_append(NodeId(1), Slot::NONE, Slot(10), t(0));
        w.on_ack(NodeId(1), Slot(10));
        assert!(!w.maybe_rewind(NodeId(1), t(10_000), SimDuration::from_millis(600)));
    }

    #[test]
    fn kth_largest_match_quorum() {
        let mut w = window(8);
        w.on_ack(NodeId(1), Slot(10));
        w.on_ack(NodeId(2), Slot(7));
        w.on_ack(NodeId(3), Slot(3));
        // Excluding leader 0; matches are [10,7,3,0]; 2nd largest = 7:
        // 2 followers + leader = majority of 5.
        assert_eq!(w.kth_largest_match(2, NodeId(0)), Slot(7));
        assert_eq!(w.kth_largest_match(1, NodeId(0)), Slot(10));
        assert_eq!(w.kth_largest_match(4, NodeId(0)), Slot::NONE);
    }

    /// The in-place selection against the obvious one (collect, sort,
    /// index), for every cluster size in use, every `k` and every
    /// excluded replica, over random matches with plenty of ties.
    #[test]
    fn kth_largest_match_equals_the_sorted_reference() {
        let mut rng = paxraft_sim::rng::SimRng::new(0x19);
        for n in [3usize, 5, 7] {
            for _ in 0..200 {
                let mut w = PipelineWindow::new(n, &PipelineConfig::default());
                for p in 0..n as u32 {
                    w.on_ack(NodeId(p), Slot(rng.gen_range(6)));
                }
                for exclude in 0..n as u32 {
                    let mut sorted: Vec<Slot> = (0..n as u32)
                        .filter(|&p| p != exclude)
                        .map(|p| w.match_index(NodeId(p)))
                        .collect();
                    sorted.sort_unstable();
                    for k in 0..=n {
                        let want = match k {
                            0 => Slot::NONE,
                            _ => sorted
                                .iter()
                                .rev()
                                .nth(k - 1)
                                .copied()
                                .unwrap_or(Slot::NONE),
                        };
                        assert_eq!(w.kth_largest_match(k, NodeId(exclude)), want, "{n} {k}");
                    }
                }
            }
        }
    }

    #[test]
    fn leadership_reset_is_optimistic() {
        let mut w = window(8);
        w.on_ack(NodeId(1), Slot(5));
        w.reset_for_leadership(Slot(9));
        assert_eq!(w.match_index(NodeId(1)), Slot::NONE);
        assert_eq!(w.next_prev(NodeId(1)), Slot(9));
    }

    /// One transfer in flight per peer, retried no sooner than the retry
    /// interval after it started, and at once after its ack.
    #[test]
    fn snapshot_transfers_are_paced_per_peer() {
        let mut w = window(8);
        let retry = SimDuration::from_millis(600);
        assert!(w.begin_snapshot(NodeId(1), t(0), retry));
        assert!(!w.begin_snapshot(NodeId(1), t(599), retry));
        assert!(w.begin_snapshot(NodeId(2), t(599), retry), "per peer");
        assert!(w.begin_snapshot(NodeId(1), t(600), retry), "a retry");
        w.finish_snapshot(NodeId(1));
        assert!(w.begin_snapshot(NodeId(1), t(601), retry), "after the ack");
    }

    /// The two reset scopes. A leadership change clears rounds, matches
    /// and cursors but keeps a pending transfer's pacing — a new leader
    /// does not re-ship a multi-MB snapshot still on the wire — and a
    /// crash clears the pacing too.
    #[test]
    fn a_leadership_reset_keeps_transfer_pacing_and_a_crash_clears_it() {
        let mut w = window(8);
        let retry = SimDuration::from_millis(600);
        assert!(w.begin_snapshot(NodeId(1), t(0), retry));
        w.on_append(NodeId(1), Slot(4), Slot(12), t(0));
        w.on_ack(NodeId(1), Slot(6));
        w.reset_for_leadership(Slot(12));
        assert_eq!(w.in_flight(NodeId(1)), 0);
        assert_eq!(w.match_index(NodeId(1)), Slot::NONE);
        assert_eq!(w.next_prev(NodeId(1)), Slot(12));
        assert!(
            !w.begin_snapshot(NodeId(1), t(100), retry),
            "the transfer in flight still paces the next"
        );
        w.on_append(NodeId(1), Slot(12), Slot(15), t(100));
        w.on_ack(NodeId(1), Slot(13));
        w.reset();
        assert_eq!(w.in_flight(NodeId(1)), 0);
        assert_eq!(w.match_index(NodeId(1)), Slot::NONE);
        assert_eq!(w.next_prev(NodeId(1)), Slot::NONE);
        assert!(
            w.begin_snapshot(NodeId(1), t(100), retry),
            "a crash forgets the transfer"
        );
    }

    /// MultiPaxos's cursor: every round moves it up, a pass over
    /// committed instances moves it without a send, neither moves it
    /// back, and only a reset does.
    #[test]
    fn the_cursor_only_moves_up_between_resets() {
        let mut w = window(8);
        w.on_sent(NodeId(1), Slot(7), t(0));
        w.on_sent(NodeId(1), Slot(5), t(1));
        assert_eq!(w.sent_through(NodeId(1)), Slot(7));
        w.skip_to(NodeId(1), Slot(11));
        w.skip_to(NodeId(1), Slot(9));
        assert_eq!(w.sent_through(NodeId(1)), Slot(11));
        assert_eq!(w.in_flight(NodeId(1)), 2, "a skip ships no round");
        w.reset_for_leadership(Slot::NONE);
        assert_eq!(w.sent_through(NodeId(1)), Slot::NONE);
    }
}
