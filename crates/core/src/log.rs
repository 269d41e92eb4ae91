//! The replicated log shared by the Raft-family replicas.
//!
//! Entries carry both a `term` (Raft's per-entry term) and a `bal` field —
//! the ballot Raft* adds so that a refinement mapping to MultiPaxos exists
//! (Section 3: "a ballot field is added to each entry; on appending a new
//! entry, Raft* will change all entries' ballot to be the new entry's
//! term").
//!
//! # The ballot mark
//!
//! Figure 2's sentence specifies *state*, not a loop: after an append at
//! term `t` covering slots `..= upto`, `log[i].bal = t` for every
//! `i ≤ upto`. The log holds exactly that state as a mark
//! `(bal_upto, bal_term)`: the **effective** ballot of a retained slot
//! `s` is `bal_term` when `s ≤ bal_upto` and the entry's stored `bal`
//! otherwise. [`Log::set_bal_upto`] is therefore two stores, whatever
//! the length of the log, and the mark *is* Figure 2's "all ballots
//! become the new term" — the refinement mapping `entry.bal ↔
//! instance.bal` reads the effective ballot and is unchanged (the
//! `crates/spec` Raft* spec and its refinement proof are untouched).
//!
//! Every way out of the log yields effective ballots: [`Log::bal_at`],
//! [`Log::iter`] and the entries cloned by [`Log::suffix_from`] (what
//! Raft* vote replies carry); a round cut by [`Log::round`] (what appends
//! carry) comes with the mark over it. [`Log::get`] hands out the stored
//! entry for its `term` and `cmd`; its `bal` field is the effective
//! ballot only past the mark, so ballot readers go through the accessors
//! above. Whatever removes or replaces entries
//! ([`Log::truncate_from`], [`Log::replace_suffix`], [`Log::reset_to`])
//! pulls the mark back with them, so it never exceeds
//! [`Log::last_index`] and never covers an entry written after it.
//! [`Log::compact_to`] leaves it alone: whatever part of the mark falls
//! at or below the new boundary covers nothing retained.
//!
//! Standard Raft uses [`Log::truncate_from`] to erase conflicting
//! suffixes; Raft* never truncates — it uses [`Log::replace_suffix`],
//! which only ever overwrites or extends (the "no erasing" restriction
//! that makes Raft* map onto Paxos, Section 3).
//!
//! # Compaction
//!
//! [`Log::compact_to`] discards an *applied* prefix after the state
//! machine has been snapshotted, retaining `last_included()` — the slot
//! and term of the last discarded entry — so the AppendEntries
//! consistency check still works at the compaction boundary:
//! `term_at(start)` answers with the retained term, slots below the
//! boundary answer `None` ("unknown, ask for a snapshot"). Slot numbering
//! is global and never shifts: slot `s` names the same entry before and
//! after compaction.
//!
//! # Storage
//!
//! The entries live in a [`SlotRing`], the Paxos family's instance store,
//! dense over `first_index() ..= last_index()`: Figure 3's `entry.index
//! ↔ instance.id` as one structure. A block of 256 is taken as the log
//! reaches it and freed as compaction passes it, so the log holds what
//! it spans; nothing is copied, and [`Log::replace_suffix`] overwrites.
//!
//! A follower's log holds its leader's blocks, not copies of them. Raft's
//! Log Matching property says that where a follower's log matches the
//! leader's it *is* the leader's log, and the ring lets it be so in
//! memory: it owns only its span (`engine::slots`, *Sharing*), so two
//! logs can hold one block, each over its own slots of it, and neither
//! sees what the other writes beyond them. [`Log::replace_suffix`], the one
//! write of both flavors' acceptors, takes a round's cells as they are
//! where they lie in a block the log already holds at their place, or
//! in the block that comes next when the log ends just before it: the
//! span grows over them and nothing is written. Elsewhere it clones the
//! round's entries in — into the rest of a block the log holds that is
//! not the leader's (the partly filled block a follower holds when a
//! leadership starts), or from a round copied because it spans more than
//! two blocks — and leaves alone a cell that already holds the entry, so
//! a replica re-sent what it has keeps the blocks it shares. So a cluster
//! stores its replicated log about once, whatever the number of replicas,
//! and the follower allocates no block as it grows.
//!
//! Either way the follower stores the leader's entries as the leader
//! stores them, ballots included, and never the round's ballot mark: under
//! Raft\* its own mark covers every entry of the round at once (Figure
//! 2b), and Raft keeps no mark, so a stored ballot is the effective one.
//!
//! # Rounds
//!
//! An `Append` is a phase-2 accept over a range of instances, cut from
//! the leader's own blocks like every round (`engine::slots`, *Rounds*).

use paxraft_workload::metrics::PeakGauge;

use crate::engine::slots::Run;
use crate::engine::SlotRing;
use crate::kv::Command;
use crate::types::{Slot, Term};

/// One log entry / Paxos instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Raft entry term (Figure 2's `log[i].term`).
    pub term: Term,
    /// Paxos-style accepted ballot (Figure 2's `log[i].bal`, added by
    /// Raft*). Inside a [`Log`] this is the *stored* ballot, superseded
    /// by the log's ballot mark for covered slots — read
    /// [`Log::bal_at`], not this field, for an entry still in a log.
    pub bal: Term,
    /// The replicated command.
    pub cmd: Command,
}

impl Entry {
    /// Approximate wire size in bytes.
    pub fn size_bytes(&self) -> usize {
        16 + self.cmd.size_bytes()
    }
}

/// A 1-based append-only-ish log. `Slot(0)` is the empty sentinel.
#[derive(Debug, Clone, Default)]
pub struct Log {
    /// Dense over `start + 1 ..= last_index()` (module docs, *Storage*).
    entries: SlotRing<Entry>,
    /// Compacted-through slot: every entry at or below it has been
    /// discarded (applied and snapshotted). [`Slot::NONE`] when the log
    /// has never been compacted.
    start: Slot,
    /// Term of the entry at `start` (the paper's `log[-1].term` once the
    /// prefix is gone); [`Term::ZERO`] when never compacted.
    start_term: Term,
    /// The ballot mark (module docs): every retained slot at or below
    /// `bal_upto` has effective ballot `bal_term`. Never exceeds
    /// `last_index()`.
    bal_upto: Slot,
    bal_term: Term,
    /// Retained payload bytes (sum of entry sizes).
    bytes: usize,
    /// High-water mark of retained entries (for compaction metrics).
    peak_entries: PeakGauge,
    /// High-water mark of retained bytes.
    peak_bytes: PeakGauge,
}

impl Log {
    /// An empty log.
    pub fn new() -> Self {
        Log::default()
    }

    /// Index of the last entry, or [`Slot::NONE`] when empty and never
    /// compacted. Global slot numbering survives compaction.
    pub fn last_index(&self) -> Slot {
        Slot(self.start.0 + self.entries.len() as u64)
    }

    /// Term of the last entry ([`Term::ZERO`] when empty; the last
    /// *included* term when everything is compacted away).
    pub fn last_term(&self) -> Term {
        self.get(self.last_index())
            .map_or(self.start_term, |e| e.term)
    }

    /// First retained slot (`start + 1`).
    pub fn first_index(&self) -> Slot {
        self.start.next()
    }

    /// `(slot, term)` of the last compacted-away entry:
    /// `(Slot::NONE, Term::ZERO)` when never compacted.
    pub fn last_included(&self) -> (Slot, Term) {
        (self.start, self.start_term)
    }

    /// The entry at `slot`, if retained — for its `term` and `cmd`; the
    /// ballot is [`Log::bal_at`]'s to answer.
    pub fn get(&self, slot: Slot) -> Option<&Entry> {
        self.entries.get(slot)
    }

    /// Term at `slot`. The compaction boundary answers with the retained
    /// `last_included` term (for an uncompacted log that is the paper's
    /// `log[-1].term = -1` convention at [`Slot::NONE`]); slots *below*
    /// the boundary answer `None` — they are unknown here and a caller
    /// needing them must fall back to a snapshot. Also `None` past the
    /// end.
    pub fn term_at(&self, slot: Slot) -> Option<Term> {
        if slot == self.start {
            Some(self.start_term)
        } else {
            self.get(slot).map(|e| e.term)
        }
    }

    /// Effective ballot at `slot` (Figure 2's `log[slot].bal`), if
    /// retained: the mark's term for covered slots, the stored ballot
    /// past it.
    pub fn bal_at(&self, slot: Slot) -> Option<Term> {
        self.get(slot).map(|e| self.effective_bal(slot, e))
    }

    fn effective_bal(&self, slot: Slot, e: &Entry) -> Term {
        if slot <= self.bal_upto {
            self.bal_term
        } else {
            e.bal
        }
    }

    /// Appends an entry, returning its slot.
    pub fn append(&mut self, entry: Entry) -> Slot {
        self.bytes += entry.size_bytes();
        let slot = self.last_index().next();
        self.entries.insert(slot, entry);
        self.note_peak();
        slot
    }

    /// Whether `(prev, prev_term)` matches this log (the AppendEntries
    /// consistency check). Slots inside the compacted prefix never match
    /// — callers detect `prev < last_included` separately and treat the
    /// overlap as implicitly matching (it is committed state).
    pub fn matches(&self, prev: Slot, prev_term: Term) -> bool {
        self.term_at(prev) == Some(prev_term)
    }

    /// **Raft only.** Removes every entry at `slot` and beyond. This is
    /// the "erase extraneous entries" step that has no MultiPaxos
    /// counterpart (Section 3's first obstacle to a direct mapping).
    ///
    /// # Panics
    ///
    /// Panics if `slot` lies inside the compacted prefix (those entries
    /// are applied and can never conflict) or is the sentinel.
    pub fn truncate_from(&mut self, slot: Slot) {
        assert!(slot != Slot::NONE, "cannot truncate from the sentinel");
        assert!(
            slot > self.start,
            "cannot truncate into the compacted prefix ({} <= {})",
            slot,
            self.start
        );
        self.entries
            .truncate_after(slot.prev(), |_, e| self.bytes -= e.size_bytes());
        self.bal_upto = self.bal_upto.min(slot.prev());
    }

    /// **The acceptor's write, both flavors'.** Replaces the entries
    /// after `prev` with `round`'s past its first `skip`, and returns how
    /// many those are and their bytes: what a copy of them costs, which
    /// is what the caller charges. Cells of the round that lie in a
    /// block this log holds at their place, or in the block next after
    /// its end, are taken as they are and nothing is written for them;
    /// the rest are cloned in as the leader stores them, but where the
    /// log already holds the very entry (module docs, *Storage*). Raft\*
    /// replaces the whole suffix after `prev`; Raft calls it past the
    /// entries it kept and the suffix it truncated, so for Raft it only
    /// appends.
    ///
    /// # Panics
    ///
    /// Panics if the replacement would *shorten* the log — Raft* acceptors
    /// must reject such appends (Figure 2b: `lastIndex ≤ prev +
    /// length(ents)`), so reaching this state is a protocol bug — or if
    /// `prev` lies inside the compacted prefix (callers must skip the
    /// overlap first).
    pub fn replace_suffix(
        &mut self,
        prev: Slot,
        round: &Run<Entry>,
        skip: usize,
    ) -> (usize, usize) {
        let n = round.len().saturating_sub(skip);
        assert!(
            prev >= self.start,
            "replace_suffix reaches into the compacted prefix ({} < {})",
            prev,
            self.start
        );
        assert!(
            prev.0 + n as u64 >= self.last_index().0,
            "Raft* replace_suffix would shorten the log ({} < {})",
            prev.0 + n as u64,
            self.last_index().0
        );
        // The replacement carries its own ballots.
        self.bal_upto = self.bal_upto.min(prev);
        let (mut at, mut taken, mut bytes) = (prev.next(), skip, 0);
        for (block, cells) in round.blocks(skip) {
            let (count, end) = (cells.len(), self.last_index());
            if self.entries.share(at, block, cells.clone()) {
                for (slot, cell) in (at.0..).zip(&block[cells]) {
                    let size = cell.get().expect("a round covers set cells").size_bytes();
                    bytes += size;
                    // Past the old end the entry is new to the log.
                    if slot > end.0 {
                        self.bytes += size;
                    }
                }
            } else {
                bytes += self.clone_in(at, round.iter_from(taken).take(count));
            }
            at = Slot(at.0 + count as u64);
            taken += count;
        }
        // A copied round's entries, which lie in no block.
        bytes += self.clone_in(at, round.iter_from(taken));
        self.note_peak();
        (n, bytes)
    }

    /// Writes `entries` from `at` on, leaving alone a cell that already
    /// holds the entry; returns their bytes.
    fn clone_in<'a>(
        &mut self,
        at: Slot,
        entries: impl Iterator<Item = (Slot, &'a Entry)>,
    ) -> usize {
        let mut bytes = 0;
        for (slot, (_, e)) in (at.0..).map(Slot).zip(entries) {
            bytes += e.size_bytes();
            if self.get(slot) == Some(e) {
                continue;
            }
            self.bytes += e.size_bytes();
            if let Some(old) = self.entries.insert(slot, e.clone()) {
                self.bytes -= old.size_bytes();
            }
        }
        bytes
    }

    /// How many of `round`'s entries past its first `skip` this log
    /// already holds in order after `prev`: the same term at the same
    /// slot (Raft's test for an entry it keeps).
    pub fn holds(&self, prev: Slot, round: &Run<Entry>, skip: usize) -> usize {
        (prev.0 + 1..)
            .zip(round.iter_from(skip))
            .take_while(|&(slot, (_, e))| self.term_at(Slot(slot)) == Some(e.term))
            .count()
    }

    /// **Raft\*.** Sets the ballot of every entry up to and including
    /// `upto` to `term` (Figure 2's "change all entries' ballot to be the
    /// new entry's term") by moving the ballot mark: O(1) for the calls
    /// the protocol makes, whose `upto` never falls. A call that pulls
    /// the mark *back* first writes the old mark's term into the slots
    /// the new mark no longer covers. Compacted entries are untouched
    /// (they are applied; their ballots no longer matter).
    pub fn set_bal_upto(&mut self, upto: Slot, term: Term) {
        let upto = upto.min(self.last_index());
        if upto < self.bal_upto {
            for (_, e) in self.entries.range_mut(upto.next()..=self.bal_upto) {
                e.bal = self.bal_term;
            }
        }
        self.bal_upto = upto;
        self.bal_term = term;
    }

    /// Clones the retained entries strictly after `prev` (Raft*
    /// vote-reply extras), each with its effective ballot in `bal`. A `prev` inside the compacted
    /// prefix yields everything retained — callers wanting the
    /// discarded part must ship a snapshot instead.
    pub fn suffix_from(&self, prev: Slot) -> Vec<Entry> {
        let first = prev.max(self.start).next();
        let slots = (first.0..=self.last_index().0).map(Slot);
        slots
            .map(|slot| {
                let e = self.get(slot).expect("the log is dense over its span");
                Entry {
                    bal: self.effective_bal(slot, e),
                    ..e.clone()
                }
            })
            .collect()
    }

    /// At most `max` retained entries strictly after `prev`, as the
    /// payload of one replication round (`engine::slots`, *Rounds*): a
    /// run of the leader's own blocks, which yields what
    /// [`Log::suffix_from`] clones at this moment, now and after any later
    /// change to the log, but for the ballots — the stored ones, not the
    /// mark's. Under Raft\* every ballot of a leader's log is its term,
    /// which the `Append` carries. Cutting one allocates nothing and
    /// copies no entry, unless the round spans more than two blocks.
    pub fn round(&self, prev: Slot, max: usize) -> Run<Entry> {
        let first = prev.max(self.start).next();
        self.entries.cut(first.., 1, max, |_, _| true)
    }

    /// Iterates retained entries as `(global slot, effective ballot,
    /// entry)`.
    pub fn iter(&self) -> impl Iterator<Item = (Slot, Term, &Entry)> {
        self.entries
            .range(..)
            .map(move |(slot, e)| (slot, self.effective_bal(slot, e), e))
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are retained (the log may still have a
    /// compacted history — check [`Log::last_included`]).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Retained payload bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// High-water mark of retained entries since creation.
    pub fn peak_entries(&self) -> usize {
        self.peak_entries.peak() as usize
    }

    /// High-water mark of retained bytes since creation.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes.peak() as usize
    }

    /// Discards every entry at or below `upto` (clamped to the end of
    /// the log), retaining its slot and term as the new
    /// [`Log::last_included`]. Returns the number of entries discarded.
    ///
    /// Callers must only compact an *applied* prefix — the discarded
    /// entries live on solely inside the state-machine snapshot.
    pub fn compact_to(&mut self, upto: Slot) -> usize {
        let upto = upto.min(self.last_index());
        if upto <= self.start {
            return 0;
        }
        self.start_term = self.term_at(upto).expect("compaction point is in range");
        self.start = upto;
        self.entries
            .drop_through(upto, |_, e| self.bytes -= e.size_bytes())
    }

    /// Replaces the entire log with the history implied by an installed
    /// snapshot: nothing retained, `last_included = (slot, term)`. Used
    /// by a follower whose log conflicts with (or ends before) a
    /// received snapshot.
    pub fn reset_to(&mut self, slot: Slot, term: Term) {
        self.entries = SlotRing::new();
        self.bytes = 0;
        self.start = slot;
        self.start_term = term;
        self.bal_upto = self.bal_upto.min(slot);
    }

    fn note_peak(&mut self) {
        self.peak_entries.observe(self.entries.len() as u64);
        self.peak_bytes.observe(self.bytes as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::{CmdId, Command};

    impl Log {
        /// Whether slot `s` of this log and of `other` lie in one block
        /// (for the sharing tests).
        pub(crate) fn shares_block_at(&self, s: Slot, other: &Log) -> bool {
            let at = |log: &Log| log.entries.block_at(s).map(|(block, _)| block.clone());
            matches!((at(self), at(other)), (Some(a), Some(b)) if std::rc::Rc::ptr_eq(&a, &b))
        }

        /// The ballot mark `(bal_upto, bal_term)`, for the invariant tests.
        pub(crate) fn bal_mark(&self) -> (Slot, Term) {
            (self.bal_upto, self.bal_term)
        }
    }

    fn entry(term: u64, key: u64) -> Entry {
        Entry {
            term: Term(term),
            bal: Term(term),
            cmd: Command::put(
                CmdId {
                    client: 1,
                    seq: key,
                },
                key,
                vec![0; 8],
            ),
        }
    }

    /// A round of its own holding `entries` (a copy: its slots are not
    /// the log's).
    fn round(entries: Vec<Entry>) -> Run<Entry> {
        (1..).map(Slot).zip(entries).collect()
    }

    /// The entries of a round cut by [`Log::round`] as an `Append` at
    /// `term` states them, Figure 2's `ents`: under Raft\* every ballot
    /// of a leader's log is its term.
    fn with_ballots(run: &Run<Entry>, term: Term) -> Vec<Entry> {
        let bal = |e: &Entry| Entry {
            bal: term,
            ..e.clone()
        };
        run.iter().map(|(_, e)| bal(e)).collect()
    }

    #[test]
    fn empty_log_sentinels() {
        let log = Log::new();
        assert_eq!(log.last_index(), Slot::NONE);
        assert_eq!(log.last_term(), Term::ZERO);
        assert_eq!(log.term_at(Slot::NONE), Some(Term::ZERO));
        assert_eq!(log.term_at(Slot(1)), None);
        assert!(log.matches(Slot::NONE, Term::ZERO));
        assert!(log.is_empty());
        assert_eq!(log.first_index(), Slot(1));
        assert_eq!(log.last_included(), (Slot::NONE, Term::ZERO));
    }

    #[test]
    fn append_and_get() {
        let mut log = Log::new();
        assert_eq!(log.append(entry(1, 10)), Slot(1));
        assert_eq!(log.append(entry(1, 11)), Slot(2));
        assert_eq!(log.get(Slot(2)).unwrap().cmd.op.key(), Some(11));
        assert_eq!(log.last_term(), Term(1));
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn matches_consistency_check() {
        let mut log = Log::new();
        log.append(entry(1, 1));
        log.append(entry(2, 2));
        assert!(log.matches(Slot(2), Term(2)));
        assert!(!log.matches(Slot(2), Term(1)));
        assert!(!log.matches(Slot(3), Term(2)), "past the end never matches");
    }

    #[test]
    fn raft_truncation_erases_suffix() {
        let mut log = Log::new();
        for i in 0..5 {
            log.append(entry(1, i));
        }
        log.truncate_from(Slot(3));
        assert_eq!(log.last_index(), Slot(2));
        assert!(log.get(Slot(3)).is_none());
    }

    #[test]
    fn raftstar_replace_suffix_overwrites() {
        let mut log = Log::new();
        log.append(entry(1, 1));
        log.append(entry(1, 2));
        log.replace_suffix(Slot(1), &round(vec![entry(2, 20), entry(2, 21)]), 0);
        assert_eq!(log.last_index(), Slot(3));
        assert_eq!(log.get(Slot(2)).unwrap().term, Term(2));
        assert_eq!(log.get(Slot(1)).unwrap().term, Term(1), "prefix untouched");
    }

    #[test]
    #[should_panic(expected = "shorten")]
    fn raftstar_replace_suffix_rejects_shortening() {
        let mut log = Log::new();
        for i in 0..4 {
            log.append(entry(1, i));
        }
        // prev=1 with one entry would leave lastIndex 2 < 4.
        log.replace_suffix(Slot(1), &round(vec![entry(2, 9)]), 0);
    }

    #[test]
    fn bal_rewrite_covers_prefix() {
        let mut log = Log::new();
        log.append(entry(1, 1));
        log.append(entry(2, 2));
        log.append(entry(2, 3));
        log.set_bal_upto(Slot(2), Term(7));
        assert_eq!(log.bal_at(Slot(1)), Some(Term(7)));
        assert_eq!(log.bal_at(Slot(2)), Some(Term(7)));
        assert_eq!(log.bal_at(Slot(3)), Some(Term(2)), "beyond upto untouched");
        assert_eq!(log.bal_at(Slot(4)), None);
        // Terms are never rewritten by bal updates.
        assert_eq!(log.get(Slot(1)).unwrap().term, Term(1));
    }

    #[test]
    fn suffix_from_clones_tail() {
        let mut log = Log::new();
        for i in 0..4 {
            log.append(entry(1, i));
        }
        let tail = log.suffix_from(Slot(2));
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].cmd.op.key(), Some(2));
        assert!(log.suffix_from(Slot(9)).is_empty());
        assert_eq!(log.suffix_from(Slot::NONE).len(), 4);
        let round = with_ballots(&log.round(Slot(1), 2), Term(1));
        assert_eq!(round[..], log.suffix_from(Slot(1))[..2]);
        assert_eq!(log.round(Slot(3), 2).len(), 1, "the log ends first");
        assert!(log.round(Slot(1), 0).is_empty());
        assert!(log.round(Slot(4), 2).is_empty());
    }

    #[test]
    fn iter_yields_one_based_slots() {
        let mut log = Log::new();
        log.append(entry(1, 5));
        log.append(entry(1, 6));
        let slots: Vec<Slot> = log.iter().map(|(s, _, _)| s).collect();
        assert_eq!(slots, vec![Slot(1), Slot(2)]);
    }

    /// Slots per block of the ring under the log (`engine::slots`).
    const EDGE: u64 = 256;

    /// What one run of [`against_eager_rewrite`] exercised.
    #[derive(Debug, Default)]
    struct Tally {
        /// Calls of each mutator (append, replace, truncate, mark,
        /// compact, reset) that touched slots on both sides of an edge.
        crossed: [u32; 6],
        /// The most appends one case made.
        most_appends: u64,
        /// Rounds cut over one block, over two, and copied.
        views: [u32; 3],
        /// Checks of a held round whose slots the log no longer holds as
        /// they were at the cut.
        outlived: u32,
    }

    /// Rounds each run holds and re-checks after every step.
    const HELD: usize = 16;

    /// `entries` with every ballot zero.
    fn zeroed(entries: Vec<Entry>) -> Vec<Entry> {
        let zero = |e| Entry {
            bal: Term::ZERO,
            ..e
        };
        entries.into_iter().map(zero).collect()
    }

    /// One random script of every mutator against Figure 2 executed
    /// literally: an eager reference log (a plain `Vec` plus a compaction
    /// offset) that rewrites every covered `bal` in a loop. After each
    /// step the effective ballots out of `bal_at`, `iter` and
    /// `suffix_from` must equal the reference's stored ones, and the mark
    /// must not pass the end. Each step also cuts a round ([`Log::round`])
    /// of random length at a random cursor, which must equal the clone
    /// `suffix_from` makes at the cut but for the ballots (an `Append`
    /// states them as its term) — and still equal it after every
    /// later step while the run holds it (the last [`HELD`]), whatever
    /// the log did to those slots since. An append step adds up to
    /// `burst` entries; with `near_edges` every case starts, and every
    /// reset lands, within three slots of a block edge.
    fn against_eager_rewrite(
        seed: u64,
        cases: u32,
        steps: u64,
        burst: u64,
        near_edges: bool,
    ) -> Tally {
        use paxraft_sim::rng::SimRng;
        use std::collections::VecDeque;

        let mut rng = SimRng::new(seed);
        let spans_edge = |lo: u64, hi: u64| lo < hi && lo / EDGE != hi / EDGE;
        let near_edge = |rng: &mut SimRng, below: u64| {
            EDGE * (1 + rng.gen_range(below / EDGE + 2)) - 3 + rng.gen_range(7)
        };
        let mut tally = Tally::default();
        let crossed = &mut tally.crossed;
        let mut held: VecDeque<(Run<Entry>, Vec<Entry>, Slot, String)> = VecDeque::new();
        for case in 0..cases {
            let mut log = Log::new();
            // Reference: entries after `start`, ballots rewritten eagerly.
            let mut start = 0u64;
            if near_edges {
                start = near_edge(&mut rng, 0);
                log.reset_to(Slot(start), Term(1));
            }
            let mut eager: Vec<Entry> = Vec::new();
            let (mut term, mut appends) = (1u64, 0);
            for step in 0..steps {
                let last = start + eager.len() as u64;
                match rng.gen_range(8) {
                    0 | 1 => {
                        let k = if burst > 1 {
                            1 + rng.gen_range(burst)
                        } else {
                            1
                        };
                        for _ in 0..k {
                            let e = entry(term, step);
                            eager.push(e.clone());
                            log.append(e);
                        }
                        appends += k;
                        crossed[0] += u32::from(spans_edge(last, last + k));
                    }
                    2 => {
                        // Overwrite or extend, never shorten.
                        let prev = start + rng.gen_range(eager.len() as u64 + 1);
                        let min = (last - prev) as usize;
                        term += 1;
                        let ents: Vec<Entry> = (0..min + rng.gen_range(3) as usize)
                            .map(|i| entry(term, 100 + i as u64))
                            .collect();
                        crossed[1] += u32::from(spans_edge(prev + 1, prev + ents.len() as u64));
                        eager.truncate((prev - start) as usize);
                        eager.extend(ents.iter().cloned());
                        log.replace_suffix(Slot(prev), &round(ents), 0);
                    }
                    3 if !eager.is_empty() => {
                        let slot = start + 1 + rng.gen_range(eager.len() as u64);
                        crossed[2] += u32::from(spans_edge(slot, last));
                        eager.truncate((slot - start - 1) as usize);
                        log.truncate_from(Slot(slot));
                    }
                    4 | 5 => {
                        // Monotone (the protocol's call) or anywhere,
                        // including the compacted prefix and past the end.
                        let upto = if rng.gen_bool(0.5) {
                            last
                        } else {
                            rng.gen_range(last + 3)
                        };
                        term += rng.gen_range(2);
                        let n = (upto.saturating_sub(start) as usize).min(eager.len());
                        for e in &mut eager[..n] {
                            e.bal = Term(term);
                        }
                        // A mark pulled back writes the slots it uncovers.
                        crossed[3] += u32::from(spans_edge(upto + 1, log.bal_mark().0 .0));
                        log.set_bal_upto(Slot(upto), Term(term));
                    }
                    6 => {
                        let upto = rng.gen_range(last + 2).min(last);
                        crossed[4] += u32::from(spans_edge(start + 1, upto));
                        if upto > start {
                            eager.drain(..(upto - start) as usize);
                            start = upto;
                        }
                        log.compact_to(Slot(upto));
                    }
                    7 if rng.gen_bool(0.2) => {
                        let to = if near_edges {
                            near_edge(&mut rng, last)
                        } else {
                            rng.gen_range(last + 5)
                        };
                        crossed[5] += u32::from(spans_edge(last.min(to), last.max(to)));
                        start = to;
                        eager.clear();
                        log.reset_to(Slot(start), Term(term));
                    }
                    _ => {}
                }
                let ctx = format!("case {case} step {step}");
                assert_eq!(log.last_index().0, start + eager.len() as u64, "{ctx}");
                assert!(log.bal_mark().0 <= log.last_index(), "{ctx}");
                for (i, e) in eager.iter().enumerate() {
                    let s = Slot(start + 1 + i as u64);
                    assert_eq!(log.bal_at(s), Some(e.bal), "{ctx} slot {s}");
                }
                assert_eq!(log.bal_at(Slot(start)), None, "{ctx}");
                assert_eq!(log.bal_at(log.last_index().next()), None, "{ctx}");
                let via_iter: Vec<Entry> = log
                    .iter()
                    .map(|(_, bal, e)| Entry { bal, ..e.clone() })
                    .collect();
                assert_eq!(via_iter, eager, "{ctx}");
                let prev = rng.gen_range(log.last_index().0 + 2);
                let from = (prev.saturating_sub(start) as usize).min(eager.len());
                assert_eq!(log.suffix_from(Slot(prev)), eager[from..], "{ctx}");
                // A round is a prefix of the whole suffix, however long.
                let max = match rng.gen_range(4) {
                    0 => rng.gen_range(4) as usize,
                    1 => rng.gen_range(2 * EDGE) as usize,
                    2 => rng.gen_range(4 * EDGE) as usize,
                    _ => usize::MAX,
                };
                let cut: Vec<Entry> = log.suffix_from(Slot(prev)).into_iter().take(max).collect();
                let upto = from.saturating_add(max).min(eager.len());
                assert_eq!(cut, eager[from..upto], "{ctx}");
                // What a round carries but for the ballots, which the
                // `Append` states as its term.
                let cut = zeroed(cut);
                let round = log.round(Slot(prev), max);
                if !round.is_empty() {
                    let kind = match round.blocks(0).count() {
                        1 => 0,
                        2 => 1,
                        _ => 2,
                    };
                    tally.views[kind] += 1;
                }
                held.push_back((round, cut, Slot(prev), ctx.clone()));
                if held.len() > HELD {
                    held.pop_front();
                }
                for (round, cut, prev, at) in &held {
                    assert_eq!(round.len(), cut.len(), "{ctx}: the round cut at {at}");
                    let stated = with_ballots(round, Term::ZERO);
                    assert_eq!(stated, *cut, "{ctx}: the round cut at {at}");
                    let now = zeroed(log.suffix_from(*prev).into_iter().take(cut.len()).collect());
                    tally.outlived += u32::from(now != *cut);
                }
            }
            tally.most_appends = tally.most_appends.max(appends);
        }
        tally
    }

    #[test]
    fn ballot_mark_matches_eager_rewrite() {
        let tally = against_eager_rewrite(0xBA1, 200, 60, 1, false);
        assert!(tally.outlived > 1_000, "{tally:?}");
    }

    /// The same script over block edges: cases start and reset a few
    /// slots from one and append in bursts, so every mutator acts on both
    /// sides of an edge (60-step single appends never leave one block).
    #[test]
    fn ballot_mark_matches_eager_rewrite_across_block_edges() {
        let tally = against_eager_rewrite(0xED6E, 24, 400, 16, true);
        assert!(
            tally.crossed.iter().all(|&n| n > 0),
            "edge crossings per mutator (append, replace, truncate, mark, compact, reset): {tally:?}"
        );
        assert!(tally.most_appends > 300, "{tally:?}");
        // Rounds over one block and over two, held across rewrites of
        // their slots.
        assert!(tally.views[..2].iter().all(|&n| n > 1_000), "{tally:?}");
        assert!(tally.outlived > 10_000, "{tally:?}");
    }

    /// The same script with long bursts, so the log spans more than two
    /// blocks and a long round is copied.
    #[test]
    fn rounds_stay_what_they_were_cut_as_over_long_logs() {
        let tally = against_eager_rewrite(0x10C5, 16, 300, 128, true);
        assert!(tally.views.iter().all(|&n| n > 100), "{tally:?}");
        assert!(tally.outlived > 1_000, "{tally:?}");
    }

    // ── compaction ──────────────────────────────────────────────────

    fn log_of(terms: &[u64]) -> Log {
        let mut log = Log::new();
        for (i, &t) in terms.iter().enumerate() {
            log.append(entry(t, i as u64));
        }
        log
    }

    #[test]
    fn compact_discards_prefix_and_keeps_numbering() {
        let mut log = log_of(&[1, 1, 2, 2, 3]);
        assert_eq!(log.compact_to(Slot(3)), 3);
        assert_eq!(log.last_included(), (Slot(3), Term(2)));
        assert_eq!(log.first_index(), Slot(4));
        assert_eq!(log.last_index(), Slot(5), "global numbering survives");
        assert_eq!(log.len(), 2);
        assert!(log.get(Slot(3)).is_none(), "compacted entry gone");
        assert_eq!(
            log.get(Slot(4)).unwrap().term,
            Term(2),
            "retained entry still at its slot"
        );
        assert_eq!(log.get(Slot(5)).unwrap().term, Term(3));
    }

    #[test]
    fn term_at_boundary_and_below() {
        let mut log = log_of(&[1, 2, 3, 3]);
        log.compact_to(Slot(2));
        assert_eq!(
            log.term_at(Slot(2)),
            Some(Term(2)),
            "boundary keeps its term"
        );
        assert_eq!(log.term_at(Slot(1)), None, "below the boundary is unknown");
        assert_eq!(
            log.term_at(Slot::NONE),
            None,
            "sentinel is below the boundary too"
        );
        assert_eq!(log.term_at(Slot(3)), Some(Term(3)));
    }

    #[test]
    fn matches_across_compaction_boundary() {
        let mut log = log_of(&[1, 2, 3, 3]);
        log.compact_to(Slot(2));
        assert!(
            log.matches(Slot(2), Term(2)),
            "consistency check works at the boundary"
        );
        assert!(!log.matches(Slot(2), Term(1)));
        assert!(
            !log.matches(Slot(1), Term(1)),
            "inside the prefix never matches"
        );
        assert!(log.matches(Slot(3), Term(3)), "retained entries unaffected");
    }

    #[test]
    fn compact_past_end_clamps_to_last_index() {
        let mut log = log_of(&[1, 1, 2]);
        assert_eq!(log.compact_to(Slot(99)), 3, "clamped to the whole log");
        assert_eq!(log.last_included(), (Slot(3), Term(2)));
        assert_eq!(log.last_index(), Slot(3));
        assert_eq!(
            log.last_term(),
            Term(2),
            "last_term survives full compaction"
        );
        assert!(log.is_empty());
        // Appending after a full compaction continues the numbering.
        log.append(entry(4, 9));
        assert_eq!(log.last_index(), Slot(4));
        assert_eq!(log.term_at(Slot(4)), Some(Term(4)));
    }

    #[test]
    fn compact_is_idempotent_and_monotone() {
        let mut log = log_of(&[1, 1, 1, 1]);
        assert_eq!(log.compact_to(Slot(2)), 2);
        assert_eq!(log.compact_to(Slot(2)), 0, "same point is a no-op");
        assert_eq!(log.compact_to(Slot(1)), 0, "earlier point is a no-op");
        assert_eq!(log.compact_to(Slot(4)), 2, "further compaction continues");
    }

    #[test]
    fn suffix_from_clamps_to_compaction_boundary() {
        let mut log = log_of(&[1, 1, 2, 2]);
        log.compact_to(Slot(2));
        // A prev inside the discarded prefix yields the whole retained log.
        assert_eq!(log.suffix_from(Slot::NONE).len(), 2);
        assert_eq!(log.suffix_from(Slot(1)).len(), 2);
        assert_eq!(log.suffix_from(Slot(2)).len(), 2);
        assert_eq!(log.suffix_from(Slot(3)).len(), 1);
    }

    #[test]
    fn bytes_tracks_append_truncate_compact() {
        let mut log = Log::new();
        assert_eq!(log.bytes(), 0);
        log.append(entry(1, 1));
        log.append(entry(1, 2));
        let per = entry(1, 1).size_bytes();
        assert_eq!(log.bytes(), 2 * per);
        log.compact_to(Slot(1));
        assert_eq!(log.bytes(), per);
        log.truncate_from(Slot(2));
        assert_eq!(log.bytes(), 0);
        assert!(log.peak_bytes() >= 2 * per);
        assert_eq!(log.peak_entries(), 2);
    }

    #[test]
    fn replace_suffix_at_boundary_after_compaction() {
        let mut log = log_of(&[1, 1]);
        log.compact_to(Slot(2));
        log.replace_suffix(Slot(2), &round(vec![entry(3, 7), entry(3, 8)]), 0);
        assert_eq!(log.last_index(), Slot(4));
        assert_eq!(log.get(Slot(3)).unwrap().term, Term(3));
    }

    #[test]
    #[should_panic(expected = "compacted prefix")]
    fn truncate_into_compacted_prefix_panics() {
        let mut log = log_of(&[1, 1, 1]);
        log.compact_to(Slot(2));
        log.truncate_from(Slot(2));
    }

    #[test]
    fn reset_to_installs_snapshot_history() {
        let mut log = log_of(&[1, 1, 1]);
        log.reset_to(Slot(10), Term(5));
        assert!(log.is_empty());
        assert_eq!(log.last_index(), Slot(10));
        assert_eq!(log.last_term(), Term(5));
        assert_eq!(log.term_at(Slot(10)), Some(Term(5)));
        assert!(log.matches(Slot(10), Term(5)));
        log.append(entry(6, 1));
        assert_eq!(log.last_index(), Slot(11));
    }
}
