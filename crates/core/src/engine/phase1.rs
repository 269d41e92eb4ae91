//! Phase 1, written once: Raft\*'s `RequestVote`/`BecomeLeader` (Figure
//! 2a), MultiPaxos's `Phase1b`/`Phase1Succeed` (Figure 1) and a Mencius
//! revocation (Appendix A.3), MultiPaxos's phase 1 over one owner's
//! slots, count grants and adopt values the same way, and a winner fills
//! nothing at or below a reported floor ([`Phase1::first_open`]).
//! `PaxosBase` opens and answers the Paxos family's `Prepare`s. Who may
//! grant — the flavor's vote rule, MultiPaxos's ballot, Mencius's term
//! and the owner's promise — and what the winner proposes stay in the
//! rules files.

use std::collections::BTreeMap;

use crate::kv::Command;
use crate::types::{me_bit, quorum, NodeId, Slot, Term};

/// The replies of one phase 1, the candidate's own among them.
#[derive(Debug, Default)]
pub(crate) struct Phase1 {
    /// Who granted, one bit per replica.
    grants: u64,
    /// Per slot, the value reported at the highest ballot; on a tie the
    /// first report stays (a ballot has one value).
    values: BTreeMap<u64, (Term, Command)>,
    /// The highest log tail reported.
    pub(crate) tail: Slot,
    /// The highest checkpoint floor reported.
    pub(crate) floor: Slot,
}

impl Phase1 {
    /// Counts `voter`'s grant, once however often it arrives, and folds in
    /// its report: values with the ballots they were accepted at.
    pub(crate) fn grant(
        &mut self,
        voter: NodeId,
        report: impl IntoIterator<Item = (Slot, Term, Command)>,
        tail: Slot,
        floor: Slot,
    ) {
        self.grants |= me_bit(voter);
        for (slot, bal, cmd) in report {
            if self.values.get(&slot.0).is_none_or(|(held, _)| *held < bal) {
                self.values.insert(slot.0, (bal, cmd));
            }
        }
        self.tail = self.tail.max(tail);
        self.floor = self.floor.max(floor);
    }

    /// Whether a majority of an `n`-replica cluster granted.
    pub(crate) fn won(&self, n: usize) -> bool {
        self.grants.count_ones() as usize >= quorum(n)
    }

    /// The first slot from `from` on, `stride` apart from it, that a
    /// winner may fill: above the highest floor reported. At or below it
    /// every instance is chosen but no longer reportable, and the
    /// reporter's checkpoint is on its way.
    pub(crate) fn first_open(&self, from: Slot, stride: u64) -> Slot {
        let behind = self.floor.next().0.saturating_sub(from.0);
        Slot(from.0 + behind.div_ceil(stride) * stride)
    }

    /// Figure 1's `safeEntry` over `slots`: the highest-ballot value each
    /// was reported with, or a no-op. Each value is handed out once.
    pub(crate) fn adopt<'a>(
        &'a mut self,
        slots: impl Iterator<Item = Slot> + 'a,
    ) -> impl Iterator<Item = (Slot, Command)> + 'a {
        let safe = |held: Option<(Term, Command)>| held.map_or_else(Command::noop, |(_, c)| c);
        slots.map(move |s| (s, safe(self.values.remove(&s.0))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::CmdId;
    use crate::log::Entry;
    use paxraft_sim::rng::SimRng;

    fn put(seq: u64) -> Command {
        Command::put(CmdId { client: 1, seq }, seq, vec![0; 8])
    }

    /// What `adopt` hands out over `slots`, as `(slot, seq)` with 0 for a
    /// no-op.
    fn adopted(p: &mut Phase1, slots: impl IntoIterator<Item = u64>) -> Vec<(u64, u64)> {
        let seq = |(s, c): (Slot, Command)| (s.0, c.id.seq);
        p.adopt(slots.into_iter().map(Slot)).map(seq).collect()
    }

    /// The highest-ballot merge keeps the higher ballot regardless of
    /// arrival order.
    #[test]
    fn the_merge_keeps_the_higher_ballot_in_either_arrival_order() {
        let low = vec![(Slot(3), Term(2), put(1)), (Slot(4), Term(2), put(2))];
        let high = vec![(Slot(3), Term(5), put(9))];
        let mut a = Phase1::default();
        a.grant(NodeId(0), low.clone(), Slot(4), Slot::NONE);
        a.grant(NodeId(1), high.clone(), Slot(3), Slot::NONE);
        let mut b = Phase1::default();
        b.grant(NodeId(1), high, Slot(3), Slot::NONE);
        b.grant(NodeId(0), low, Slot(4), Slot::NONE);
        assert_eq!(a.tail, Slot(4));
        assert_eq!(adopted(&mut a, 3..=4), [(3, 9), (4, 2)]);
        assert_eq!(adopted(&mut b, 3..=4), [(3, 9), (4, 2)]);
    }

    /// A voter granting again counts once; the tail and floor are the
    /// highest reported.
    #[test]
    fn a_grant_repeated_by_one_voter_counts_once() {
        let mut p = Phase1::default();
        p.grant(NodeId(2), [], Slot(7), Slot(3));
        p.grant(NodeId(2), [], Slot(5), Slot(1));
        assert!(!p.won(3), "one voter of three");
        assert_eq!((p.tail, p.floor), (Slot(7), Slot(3)));
        p.grant(NodeId(0), [], Slot::NONE, Slot::NONE);
        assert!(p.won(3) && !p.won(5));
    }

    /// `adopt` fills the slots nobody reported with no-ops and hands each
    /// value out once: asked again, the slot is a no-op.
    #[test]
    fn adopt_fills_gaps_with_noops_and_hands_each_value_out_once() {
        let mut p = Phase1::default();
        let report = [(Slot(2), Term(1), put(2)), (Slot(4), Term(1), put(4))];
        p.grant(NodeId(0), report, Slot(4), Slot::NONE);
        assert_eq!(
            adopted(&mut p, 1..=5),
            [(1, 0), (2, 2), (3, 0), (4, 4), (5, 0)]
        );
        assert_eq!(adopted(&mut p, [2, 4]), [(2, 0), (4, 0)]);
    }

    /// A winner fills nothing at or below the highest floor reported, in
    /// either range shape: MultiPaxos's, stride 1 from the first unchosen
    /// slot, and a revocation's, one owner's slots of five. A range that
    /// starts above the floor keeps its start.
    #[test]
    fn a_winner_fills_nothing_at_or_below_a_reported_floor() {
        let reported = || {
            let mut p = Phase1::default();
            let report = [(Slot(4), Term(1), put(4)), (Slot(7), Term(1), put(7))];
            p.grant(NodeId(0), report, Slot(9), Slot(2));
            p.grant(NodeId(1), [], Slot(3), Slot(5));
            p
        };
        let winner = |from: u64, stride: u64| {
            let mut p = reported();
            let first = p.first_open(Slot(from), stride);
            let slots: Vec<u64> = (first.0..=12).step_by(stride as usize).collect();
            adopted(&mut p, slots)
        };
        assert_eq!(
            winner(3, 1),
            [(6, 0), (7, 7), (8, 0), (9, 0), (10, 0), (11, 0), (12, 0)]
        );
        assert_eq!(winner(2, 5), [(7, 7), (12, 0)]);
        assert_eq!(winner(1, 5), [(6, 0), (11, 0)]);
        assert_eq!(winner(9, 1)[0], (9, 0));
        assert_eq!(winner(7, 5), [(7, 7), (12, 0)]);
        assert_eq!(reported().first_open(Slot(6), 5), Slot(6));
    }

    /// The per-index loop Raft\*'s `BecomeLeader` ran over vote extras,
    /// each `(start, entries)`: from `my_last + 1` to the end of the
    /// longest, the entry with the highest ballot (the first on a tie),
    /// or a no-op.
    fn per_index_pick(my_last: Slot, extras: &[(Slot, Vec<Entry>)]) -> Vec<(Slot, Command)> {
        let max_end = extras
            .iter()
            .map(|(start, ents)| Slot(start.0 + ents.len() as u64).prev())
            .max()
            .unwrap_or(Slot::NONE);
        let mut picked = Vec::new();
        let mut idx = my_last.next();
        while idx <= max_end {
            let mut best: Option<&Entry> = None;
            for (start, ents) in extras {
                if idx.0 >= start.0 {
                    if let Some(e) = ents.get((idx.0 - start.0) as usize) {
                        if best.map(|b| e.bal > b.bal).unwrap_or(true) {
                            best = Some(e);
                        }
                    }
                }
            }
            picked.push((
                idx,
                best.map(|e| e.cmd.clone()).unwrap_or_else(Command::noop),
            ));
            idx = idx.next();
        }
        picked
    }

    /// Over random reports with one command per `(slot, ballot)`, every
    /// arrival order adopts the same values, and they are the ones the
    /// per-index loop over vote extras picked.
    #[test]
    fn every_arrival_order_adopts_what_the_per_index_loop_picked() {
        let mut rng = SimRng::new(0x9A05);
        for _ in 0..500 {
            let my_last = Slot(rng.gen_range(4));
            let start = my_last.next();
            let voters = 1 + rng.gen_range(4) as u32;
            let extras: Vec<(Slot, Vec<Entry>)> = (0..voters)
                .map(|_| {
                    let len = rng.gen_range(6);
                    let entry = |i: u64| {
                        let bal = Term(1 + rng.gen_range(4));
                        let cmd = put((start.0 + i) * 10 + bal.0);
                        Entry {
                            term: bal,
                            bal,
                            cmd,
                        }
                    };
                    (start, (0..len).map(entry).collect())
                })
                .collect();
            let want = per_index_pick(my_last, &extras);
            let mut order: Vec<u32> = (0..voters).collect();
            for _ in 0..4 {
                let mut p = Phase1::default();
                p.grant(NodeId(voters), [], my_last, Slot::NONE);
                for &v in &order {
                    let (start, ents) = &extras[v as usize];
                    let tail = Slot(start.0 + ents.len() as u64).prev();
                    let report = ents.iter().enumerate();
                    let report =
                        report.map(|(i, e)| (Slot(start.0 + i as u64), e.bal, e.cmd.clone()));
                    p.grant(NodeId(v), report, tail, Slot::NONE);
                }
                let slots = (my_last.0 + 1..=p.tail.0).map(Slot);
                let got: Vec<(Slot, Command)> = p.adopt(slots).collect();
                assert_eq!(got, want, "order {order:?}");
                let k = rng.gen_range(voters as u64) as usize;
                order.rotate_left(k);
                order.reverse();
            }
        }
    }
}
