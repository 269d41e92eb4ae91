//! Leader-side replication progress tracking, shared by Raft and Raft*.
//!
//! Tracks, per follower: the acknowledged match index, the highest index
//! already shipped (`sent_through`, so back-to-back batch flushes do not
//! retransmit in-flight suffixes — the etcd pipelining the paper's
//! baseline relies on), the `prev` used by the last send (for rejection
//! backoff), and the time of the last send (for timed retransmission).

use paxraft_sim::time::{SimDuration, SimTime};

use crate::types::{NodeId, Slot};

/// Per-follower replication progress at a leader.
#[derive(Debug, Clone)]
pub struct Replicator {
    match_index: Vec<Slot>,
    sent_through: Vec<Slot>,
    prev_sent: Vec<Slot>,
    last_sent: Vec<SimTime>,
}

impl Replicator {
    /// Fresh tracker for `n` replicas.
    pub fn new(n: usize) -> Self {
        Replicator {
            match_index: vec![Slot::NONE; n],
            sent_through: vec![Slot::NONE; n],
            prev_sent: vec![Slot::NONE; n],
            last_sent: vec![SimTime::ZERO; n],
        }
    }

    /// Resets on leadership acquisition: optimistically assume followers
    /// hold our pre-existing log through `tail` (rejections back us off).
    pub fn reset_for_leadership(&mut self, tail: Slot) {
        for i in 0..self.match_index.len() {
            self.match_index[i] = Slot::NONE;
            self.sent_through[i] = tail;
            self.prev_sent[i] = tail;
            self.last_sent[i] = SimTime::ZERO;
        }
    }

    /// Acknowledged match index of `p`.
    pub fn match_index(&self, p: NodeId) -> Slot {
        self.match_index[p.0 as usize]
    }

    /// The `prev` the next Append to `p` should use: everything after it
    /// is shipped in that message.
    pub fn next_prev(&self, p: NodeId) -> Slot {
        self.sent_through[p.0 as usize].max(self.match_index[p.0 as usize])
    }

    /// Records that entries `(prev, tail]` were shipped to `p` at `now`.
    pub fn mark_sent(&mut self, p: NodeId, prev: Slot, tail: Slot, now: SimTime) {
        let i = p.0 as usize;
        self.prev_sent[i] = prev;
        if tail > self.sent_through[i] {
            self.sent_through[i] = tail;
        }
        self.last_sent[i] = now;
    }

    /// Records an acknowledgement; returns whether the match advanced.
    pub fn on_ack(&mut self, p: NodeId, last_idx: Slot) -> bool {
        let i = p.0 as usize;
        if last_idx > self.match_index[i] {
            self.match_index[i] = last_idx;
            if self.sent_through[i] < last_idx {
                self.sent_through[i] = last_idx;
            }
            true
        } else {
            false
        }
    }

    /// Records a rejection with the follower's `last_idx` hint; rewinds
    /// the send cursor and returns the `prev` to probe next.
    pub fn on_reject(&mut self, p: NodeId, hint: Slot) -> Slot {
        let i = p.0 as usize;
        let backoff = Slot(self.prev_sent[i].0.saturating_sub(1));
        let mut new_prev = backoff.min(hint);
        if new_prev < self.match_index[i] {
            new_prev = self.match_index[i];
        }
        self.sent_through[i] = new_prev;
        self.prev_sent[i] = new_prev;
        new_prev
    }

    /// Timed retransmission: when `p` has unacknowledged in-flight
    /// entries older than `retry`, rewinds the cursor to the match point
    /// so the next send repeats them. Returns whether a rewind happened.
    pub fn maybe_rewind(&mut self, p: NodeId, now: SimTime, retry: SimDuration) -> bool {
        let i = p.0 as usize;
        if self.sent_through[i] > self.match_index[i]
            && now.since(self.last_sent[i].min(now)) > retry
        {
            self.sent_through[i] = self.match_index[i];
            true
        } else {
            false
        }
    }

    /// The largest slot replicated on at least `k` of the tracked peers
    /// (the leader itself not included): the highest match that `k`
    /// matches reach, counted in place — this runs on every ack.
    pub fn kth_largest_match(&self, k: usize, exclude: NodeId) -> Slot {
        let peers = || {
            let all = self.match_index.iter().enumerate();
            all.filter(|(i, _)| *i != exclude.0 as usize)
                .map(|(_, &s)| s)
        };
        let reached_by_k = |m: &Slot| peers().filter(|other| other >= m).count() >= k;
        match k {
            0 => Slot::NONE,
            _ => peers().filter(reached_by_k).max().unwrap_or(Slot::NONE),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn fresh_tracker_sends_everything() {
        let r = Replicator::new(3);
        assert_eq!(r.next_prev(NodeId(1)), Slot::NONE);
    }

    #[test]
    fn mark_sent_suppresses_retransmission() {
        let mut r = Replicator::new(3);
        r.mark_sent(NodeId(1), Slot::NONE, Slot(10), t(0));
        // The next batch flush ships only entries after 10.
        assert_eq!(r.next_prev(NodeId(1)), Slot(10));
    }

    #[test]
    fn ack_advances_match() {
        let mut r = Replicator::new(3);
        r.mark_sent(NodeId(1), Slot::NONE, Slot(10), t(0));
        assert!(r.on_ack(NodeId(1), Slot(10)));
        assert!(!r.on_ack(NodeId(1), Slot(5)), "stale ack ignored");
        assert_eq!(r.match_index(NodeId(1)), Slot(10));
    }

    #[test]
    fn reject_backs_off_and_respects_hint() {
        let mut r = Replicator::new(3);
        r.reset_for_leadership(Slot(20));
        // Probe at prev=20 fails; follower says its last index is 3.
        let p = r.on_reject(NodeId(2), Slot(3));
        assert_eq!(p, Slot(3), "jump to the follower's tail");
        r.mark_sent(NodeId(2), p, Slot(20), t(0));
        // Another mismatch without a useful hint decrements.
        let p2 = r.on_reject(NodeId(2), Slot(3));
        assert_eq!(p2, Slot(2));
    }

    #[test]
    fn reject_never_rewinds_before_match() {
        let mut r = Replicator::new(3);
        r.on_ack(NodeId(1), Slot(8));
        r.mark_sent(NodeId(1), Slot(8), Slot(12), t(0));
        let p = r.on_reject(NodeId(1), Slot(1));
        assert_eq!(p, Slot(8), "matched prefix is never re-probed");
    }

    #[test]
    fn rewind_after_retry_interval() {
        let mut r = Replicator::new(3);
        r.mark_sent(NodeId(1), Slot::NONE, Slot(10), t(0));
        assert!(!r.maybe_rewind(NodeId(1), t(100), SimDuration::from_millis(600)));
        assert!(r.maybe_rewind(NodeId(1), t(700), SimDuration::from_millis(600)));
        assert_eq!(r.next_prev(NodeId(1)), Slot::NONE, "cursor back at match");
    }

    #[test]
    fn no_rewind_when_fully_acked() {
        let mut r = Replicator::new(3);
        r.mark_sent(NodeId(1), Slot::NONE, Slot(10), t(0));
        r.on_ack(NodeId(1), Slot(10));
        assert!(!r.maybe_rewind(NodeId(1), t(10_000), SimDuration::from_millis(600)));
    }

    #[test]
    fn kth_largest_match_quorum() {
        let mut r = Replicator::new(5);
        r.on_ack(NodeId(1), Slot(10));
        r.on_ack(NodeId(2), Slot(7));
        r.on_ack(NodeId(3), Slot(3));
        // Excluding leader 0; matches are [10,7,3,0]; 2nd largest = 7:
        // 2 followers + leader = majority of 5.
        assert_eq!(r.kth_largest_match(2, NodeId(0)), Slot(7));
        assert_eq!(r.kth_largest_match(1, NodeId(0)), Slot(10));
        assert_eq!(r.kth_largest_match(4, NodeId(0)), Slot::NONE);
    }

    /// The in-place selection against the obvious one (collect, sort,
    /// index), for every cluster size in use, every `k` and every
    /// excluded replica, over random matches with plenty of ties.
    #[test]
    fn kth_largest_match_equals_the_sorted_reference() {
        let mut rng = paxraft_sim::rng::SimRng::new(0x19);
        for n in [3usize, 5, 7] {
            for _ in 0..200 {
                let mut r = Replicator::new(n);
                for p in 0..n as u32 {
                    r.on_ack(NodeId(p), Slot(rng.gen_range(6)));
                }
                for exclude in 0..n as u32 {
                    let mut sorted: Vec<Slot> = (0..n as u32)
                        .filter(|&p| p != exclude)
                        .map(|p| r.match_index(NodeId(p)))
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
                        assert_eq!(r.kth_largest_match(k, NodeId(exclude)), want, "{n} {k}");
                    }
                }
            }
        }
    }

    #[test]
    fn leadership_reset_is_optimistic() {
        let mut r = Replicator::new(3);
        r.on_ack(NodeId(1), Slot(5));
        r.reset_for_leadership(Slot(9));
        assert_eq!(r.match_index(NodeId(1)), Slot::NONE);
        assert_eq!(r.next_prev(NodeId(1)), Slot(9));
    }
}
