//! The one slot store of both families.
//!
//! Under the paper's Figure-3 map `entry.index ↔ instance.id`, Raft's log
//! and the Paxos instance table are one structure: entries by slot,
//! growing at one end and discarded at the other. The log is dense over
//! its span; the table has holes in it — instances are accepted and
//! chosen out of order, a skipped or not-yet-heard slot is simply absent.
//! [`SlotRing`] is both: a `VecDeque` of fixed-size blocks of optional
//! entries over the slots from the first one present to the last, so a
//! lookup is two indexes instead of a tree descent and consecutive slots
//! sit next to each other in memory. [`crate::log::Log`] and the Paxos
//! family's base (`super::paxos_family::PaxosBase`) each keep one.
//!
//! Blocks, not one growing buffer: the table takes a block when the span
//! reaches it and frees it when the span leaves it, so what it holds is
//! what it spans, to within a block at either end. One buffer that
//! doubles holds up to twice that, every replica of a cluster steps at
//! the same slot, and which side of a step a run ends on is the seed's
//! choice — five logs of 70,737 entries at capacity 131,072 are 42 MB
//! that way, where blocks hold 23 (the ledger's `lan-saturated` `raft`
//! cell). Nor is a block ever copied to make room.
//!
//! What the ring costs is a cell per *absent* slot between two present
//! ones. The protocols bound that themselves: a proposer numbers its
//! instances consecutively, Mencius fills every owner's slots up to the
//! highest one used, and a revocation reaches at most one round past the
//! horizon.
//!
//! # Sharing
//!
//! A block is reference-counted ([`Block`]), so a reader can keep one
//! past the call that found it, and another ring can hold it too: a Raft
//! round is a view of the leader's own blocks ([`crate::log::View`]), a
//! MultiPaxos or Mencius round a view of the sender's
//! ([`crate::msg::Instances`]), and a Raft follower's log holds the very
//! blocks its leader's does ([`SlotRing::share`]). What makes that safe
//! is that a ring owns only its span: `get`, `len`, `last_slot`, `range`
//! and `trim` read the cells from its lowest entry to its highest and
//! nothing else, so a cell another holder sets beyond them is not an
//! entry of this ring. And a set cell changes only in a block nobody
//! else holds:
//!
//! - filling an *empty* cell goes through the shared block, so a leader
//!   appends, a proposer numbers its next instances, and a Mencius owner
//!   stores a peer's value between its own, into a tail block that rounds
//!   in flight and its followers' logs point at — each of them reads only
//!   the cells it was cut over or spans;
//! - writing a *set* cell — overwriting, taking or clearing one, or
//!   filling one that another holder set beyond this ring's span — goes
//!   through `Rc::make_mut`, which first copies a block someone else holds.
//!
//! So a kept block is a snapshot of the cells that were set when it was
//! taken, and two rings that hold one block at one place hold the same
//! entries wherever both spans cover it. Discarding slots at an end of
//! the span takes them out of a block the span still reaches (copying it
//! first if shared); a block the span leaves is let go as it is.
//!
//! What a `T` changes through `&T` is the exception, and the Paxos
//! family's instance is built on it: a round reads only an instance's
//! value, which changes through `&mut`, while the ballot, the ack
//! bitmap, the flags and the write sequence are `std::cell::Cell`s that
//! change in place, shared block or not. Tallying an ack, learning a
//! decision, tagging a write for its fsync or raising a promise copies
//! nothing; re-proposing a value, a revocation's decision, a crash's drop
//! or a compaction that stops inside a block a round holds copies that
//! block first. A Paxos-family table never shares a block with another
//! table: it has holes, and only a dense ring can take another's cells
//! as its own.

use std::cell::OnceCell;
use std::collections::VecDeque;
use std::ops::{Bound, Range, RangeBounds};
use std::rc::Rc;

use crate::types::Slot;

/// Cells per block: block `b` covers the slots `b * BLOCK .. (b + 1) * BLOCK`.
const BLOCK: u64 = 256;

/// A block of cells, shareable (module docs, *Sharing*). An empty cell
/// is an absent slot.
pub type Block<T> = Rc<[OnceCell<T>]>;

/// A table's block held whole: its length is the table's, so a pointer
/// to it is thin (a [`Block`] of that length converts with `try_into`).
pub type WholeBlock<T> = Rc<[OnceCell<T>; BLOCK as usize]>;

/// `block`'s cells to write: the block itself when nobody else holds it,
/// else a copy of it put in its place (module docs, *Sharing*).
fn own<T: Clone>(block: &mut Block<T>) -> &mut [OnceCell<T>] {
    Rc::make_mut(block)
}

/// A map from [`Slot`] to `T`, dense over the slots it spans (module
/// docs). Iteration is in slot order over the entries present.
#[derive(Debug, Clone)]
pub struct SlotRing<T> {
    /// The block number of `blocks[0]`.
    first_block: u64,
    /// Exactly the blocks from the one holding the first entry to the one
    /// holding the last; none when the table is empty.
    blocks: VecDeque<Block<T>>,
    /// The lowest and the highest slot holding an entry (meaningless when
    /// the table is empty): the span. The table owns the cells in
    /// `lo..=hi` and no other; whatever a cell outside it holds is absent
    /// here (module docs, *Sharing*).
    lo: u64,
    hi: u64,
    /// Cells of the span that hold an entry.
    present: usize,
}

impl<T> Default for SlotRing<T> {
    fn default() -> Self {
        SlotRing {
            first_block: 0,
            blocks: VecDeque::new(),
            lo: 0,
            hi: 0,
            present: 0,
        }
    }
}

impl<T: Clone> SlotRing<T> {
    /// An empty table.
    pub fn new() -> Self {
        SlotRing::default()
    }

    /// Entries present (absent slots inside the span do not count).
    pub fn len(&self) -> usize {
        self.present
    }

    /// True when no entry is present.
    pub fn is_empty(&self) -> bool {
        self.present == 0
    }

    /// The highest slot holding an entry.
    pub fn last_slot(&self) -> Option<Slot> {
        (self.present > 0).then_some(Slot(self.hi))
    }

    /// Where `slot`'s cell is (block, then cell in it), if a block
    /// covers it.
    fn locate(&self, slot: Slot) -> Option<(usize, usize)> {
        let block = (slot.0 / BLOCK).checked_sub(self.first_block)? as usize;
        (block < self.blocks.len()).then_some((block, (slot.0 % BLOCK) as usize))
    }

    /// The block holding `slot` and `slot`'s cell in it. A holder of the
    /// block sees the cells set now, whatever the table does later
    /// (module docs, *Sharing*).
    pub fn block_at(&self, slot: Slot) -> Option<(&Block<T>, usize)> {
        let (block, cell) = self.locate(slot)?;
        Some((&self.blocks[block], cell))
    }

    /// The entry at `slot`, if present.
    pub fn get(&self, slot: Slot) -> Option<&T> {
        if !self.spans(slot) {
            return None;
        }
        let (block, cell) = self.locate(slot)?;
        self.blocks[block][cell].get()
    }

    /// Whether `slot` lies in the span, whose cells are the table's.
    fn spans(&self, slot: Slot) -> bool {
        self.present > 0 && (self.lo..=self.hi).contains(&slot.0)
    }

    /// The entry at `slot`, if present.
    pub fn get_mut(&mut self, slot: Slot) -> Option<&mut T> {
        self.get(slot)?;
        let (block, cell) = self.locate(slot)?;
        own(&mut self.blocks[block])[cell].get_mut()
    }

    /// Stretches the span to cover `slot` (by blocks of absent cells for
    /// whatever lies between) and returns where its cell is (block, then
    /// cell in it), which the caller fills.
    fn stretch_to(&mut self, slot: Slot) -> (usize, usize) {
        let block = slot.0 / BLOCK;
        if self.blocks.is_empty() {
            self.first_block = block;
            (self.lo, self.hi) = (slot.0, slot.0);
        }
        let absent = || (0..BLOCK).map(|_| OnceCell::new()).collect();
        while block < self.first_block {
            self.blocks.push_front(absent());
            self.first_block -= 1;
        }
        while block >= self.first_block + self.blocks.len() as u64 {
            self.blocks.push_back(absent());
        }
        self.lo = self.lo.min(slot.0);
        self.hi = self.hi.max(slot.0);
        (
            (block - self.first_block) as usize,
            (slot.0 % BLOCK) as usize,
        )
    }

    /// Puts `entry` at `slot`, returning the entry it replaced. An empty
    /// cell is filled in place, in a shared block too; a set one, even
    /// one another holder set beyond the span, is written in a block of
    /// the table's own.
    pub fn insert(&mut self, slot: Slot, entry: T) -> Option<T> {
        let spanned = self.spans(slot);
        let (block, cell) = self.stretch_to(slot);
        let entry = match self.blocks[block][cell].set(entry) {
            Ok(()) => {
                self.present += 1;
                return None;
            }
            Err(entry) => entry,
        };
        let old = own(&mut self.blocks[block])[cell].get_mut();
        let old = std::mem::replace(old.expect("the cell is set"), entry);
        if !spanned {
            self.present += 1;
        }
        spanned.then_some(old)
    }

    /// The entry at `slot`, created as `T::default()` if absent — in
    /// place in an empty cell, in a shared block too. What a holder of
    /// the block may see change through it is only what `T` changes
    /// through `&T`.
    pub fn get_or_default(&mut self, slot: Slot) -> &T
    where
        T: Default,
    {
        let spanned = self.spans(slot);
        let (block, cell) = self.stretch_to(slot);
        if self.blocks[block][cell].get().is_none() {
            self.present += 1;
        } else if !spanned {
            self.present += 1;
            own(&mut self.blocks[block])[cell].take();
        }
        self.blocks[block][cell].get_or_init(T::default)
    }

    /// Takes the entry at `slot` out, if present.
    pub fn remove(&mut self, slot: Slot) -> Option<T> {
        self.get(slot)?;
        let (block, cell) = self.locate(slot)?;
        let old = own(&mut self.blocks[block])[cell].take()?;
        self.present -= 1;
        self.trim();
        Some(old)
    }

    /// Makes the slots from `slot` on the table's as `block`'s `cells`
    /// hold them, when that writes no cell, and returns whether it did.
    /// It does when the cells are `slot`'s and the next ones, and the
    /// table holds `block` itself at their place, or is empty, or ends at
    /// a block's last slot just before `slot` — then it takes `block` as
    /// its next. The span then runs through the last of the slots at
    /// least (module docs, *Sharing*).
    ///
    /// For a table dense over its span (the log), and `block` a table's
    /// with `cells` set; a `slot` outside the span and not just past it
    /// is refused too.
    pub fn share(&mut self, slot: Slot, block: &Block<T>, cells: Range<usize>) -> bool {
        if cells.is_empty() || cells.start as u64 != slot.0 % BLOCK || block.len() != BLOCK as usize
        {
            return false;
        }
        let last = slot.0 + cells.len() as u64 - 1;
        if self.present == 0 {
            self.blocks.push_back(block.clone());
            self.first_block = slot.0 / BLOCK;
            (self.lo, self.hi, self.present) = (slot.0, last, cells.len());
            return true;
        }
        if !(self.lo..=self.hi + 1).contains(&slot.0) {
            return false;
        }
        match self.locate(slot) {
            Some((held, _)) if Rc::ptr_eq(&self.blocks[held], block) => {}
            None if cells.start == 0 && slot.0 == self.hi + 1 => {
                self.blocks.push_back(block.clone())
            }
            _ => return false,
        }
        if last > self.hi {
            self.present += (last - self.hi) as usize;
            self.hi = last;
        }
        true
    }

    /// Discards every entry at or below `upto`, handing each to
    /// `discarded` in slot order (the caller's byte and index accounting).
    /// Returns how many there were.
    pub fn drop_through(&mut self, upto: Slot, discarded: impl FnMut(Slot, &T)) -> usize {
        self.drop_in(..=upto, discarded)
    }

    /// [`Self::drop_through`]'s mirror: discards every entry after `after`.
    pub fn truncate_after(&mut self, after: Slot, discarded: impl FnMut(Slot, &T)) -> usize {
        self.drop_in((Bound::Excluded(after), Bound::Unbounded), discarded)
    }

    /// Discards the entries in `range`, which reaches one end of the span:
    /// their cells are taken out of a block the span still reaches after
    /// (copied first if shared), and a block it leaves goes as it is.
    fn drop_in(&mut self, range: impl RangeBounds<Slot>, mut gone: impl FnMut(Slot, &T)) -> usize {
        let (start, end) = self.slots_in(range);
        if start == end {
            return 0;
        }
        let (lo, hi) = (self.lo, self.hi);
        let first = self.first_block;
        let mut dropped = 0;
        for b in self.blocks_in(start, end) {
            let at = (first + b as u64) * BLOCK;
            let from = start.max(at);
            let cells = (from - at) as usize..(end.min(at + BLOCK) - at) as usize;
            for (i, cell) in self.blocks[b][cells.clone()].iter().enumerate() {
                if let Some(entry) = cell.get() {
                    dropped += 1;
                    gone(Slot(from + i as u64), entry);
                }
            }
            let leaves = at.max(lo) >= start && (at + BLOCK).min(hi + 1) <= end;
            if !leaves {
                own(&mut self.blocks[b])[cells].iter_mut().for_each(|c| {
                    c.take();
                });
            }
        }
        self.present -= dropped;
        if self.present > 0 {
            if start == lo {
                self.lo = end;
            } else {
                self.hi = start - 1;
            }
        }
        self.trim();
        dropped
    }

    /// Restores the invariant that the span starts and ends at an entry
    /// and that no block lies outside it.
    fn trim(&mut self) {
        if self.present == 0 {
            self.blocks.clear();
            return;
        }
        while self.get(Slot(self.lo)).is_none() {
            self.lo += 1;
        }
        while self.get(Slot(self.hi)).is_none() {
            self.hi -= 1;
        }
        while self.first_block < self.lo / BLOCK {
            self.blocks.pop_front();
            self.first_block += 1;
        }
        self.blocks
            .truncate((self.hi / BLOCK - self.first_block + 1) as usize);
    }

    /// The slots `range` covers, clamped to the span, as `start..end`
    /// (empty for a range that lies outside it or is inverted).
    fn slots_in(&self, range: impl RangeBounds<Slot>) -> (u64, u64) {
        if self.present == 0 {
            return (0, 0);
        }
        let start = match range.start_bound() {
            Bound::Unbounded => self.lo,
            Bound::Included(s) => s.0.max(self.lo),
            Bound::Excluded(s) => s.0.saturating_add(1).max(self.lo),
        };
        let end = match range.end_bound() {
            Bound::Unbounded => self.hi + 1,
            Bound::Included(s) => s.0.saturating_add(1).min(self.hi + 1),
            Bound::Excluded(s) => s.0.min(self.hi + 1),
        };
        (start, end.max(start))
    }

    /// The indices into `blocks` that the slots `start..end` (from
    /// [`Self::slots_in`]) touch.
    fn blocks_in(&self, start: u64, end: u64) -> std::ops::Range<usize> {
        if start == end {
            return 0..0;
        }
        let index = |slot: u64| (slot / BLOCK - self.first_block) as usize;
        index(start)..index(end - 1) + 1
    }

    /// The blocks the slots `start..end` touch, each with its index into
    /// `blocks` and ready to write (copied first if shared).
    fn blocks_mut_in(
        &mut self,
        start: u64,
        end: u64,
    ) -> impl DoubleEndedIterator<Item = (usize, &mut [OnceCell<T>])> {
        let blocks = self.blocks_in(start, end);
        let first = blocks.start;
        self.blocks
            .range_mut(blocks)
            .enumerate()
            .map(move |(b, block)| (first + b, own(block)))
    }

    /// The entries present in `range`, in slot order.
    pub fn range(
        &self,
        range: impl RangeBounds<Slot>,
    ) -> impl DoubleEndedIterator<Item = (Slot, &T)> {
        let (start, end) = self.slots_in(range);
        let blocks = self.blocks_in(start, end);
        let first = self.first_block + blocks.start as u64;
        self.blocks
            .range(blocks)
            .enumerate()
            .flat_map(move |(b, block)| {
                let at = (first + b as u64) * BLOCK;
                let from = start.max(at);
                block[(from - at) as usize..(end.min(at + BLOCK) - at) as usize]
                    .iter()
                    .enumerate()
                    .filter_map(move |(i, cell)| Some((Slot(from + i as u64), cell.get()?)))
            })
    }

    /// The entries present in `range`, mutably, in slot order.
    pub fn range_mut(
        &mut self,
        range: impl RangeBounds<Slot>,
    ) -> impl DoubleEndedIterator<Item = (Slot, &mut T)> {
        let (start, end) = self.slots_in(range);
        let first = self.first_block;
        self.blocks_mut_in(start, end).flat_map(move |(b, block)| {
            let at = (first + b as u64) * BLOCK;
            let from = start.max(at);
            block[(from - at) as usize..(end.min(at + BLOCK) - at) as usize]
                .iter_mut()
                .enumerate()
                .filter_map(move |(i, cell)| Some((Slot(from + i as u64), cell.get_mut()?)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxraft_sim::rng::SimRng;
    use std::collections::{BTreeMap, VecDeque};

    /// The ring against the tree it replaced, under one random script of
    /// everything the rules files do with it. The window of slots in play
    /// slides upwards, discards follow it, and now and then a slot far
    /// ahead leaves a gap behind it.
    #[test]
    fn ring_answers_what_a_btreemap_answers() {
        against_btreemap(false);
    }

    /// The same script while rounds hold the table's blocks, as a Paxos
    /// family's rounds do: the table answers as the tree does, with holes,
    /// `insert`, `remove` and `get_or_default`, and every block a round
    /// holds keeps every cell that was set when it was taken. The rounds
    /// draw from a random stream of their own, so the script is the one
    /// above.
    #[test]
    fn ring_answers_what_a_btreemap_answers_while_rounds_hold_its_blocks() {
        against_btreemap(true);
    }

    fn against_btreemap(rounds: bool) {
        let mut held: VecDeque<(Block<u64>, Vec<Option<u64>>)> = VecDeque::new();
        let mut cuts = SimRng::new(0x40D5);
        let mut rng = SimRng::new(0x51075);
        let mut ring: SlotRing<u64> = SlotRing::new();
        let mut tree: BTreeMap<u64, u64> = BTreeMap::new();
        let mut floor = 0u64;
        let (mut gaps, mut drops, mut below) = (0u32, 0u32, 0u32);
        for step in 0..60_000u64 {
            let near = floor + 1 + rng.gen_range(48);
            let slot = match rng.gen_range(40) {
                0 => {
                    gaps += 1;
                    near + 200 + rng.gen_range(300)
                }
                _ => near,
            };
            let first = ring.range(..).next().map(|(s, _)| s.0);
            below += u32::from(first.is_some_and(|first| slot < first));
            match rng.gen_range(10) {
                0..=3 => assert_eq!(ring.insert(Slot(slot), step), tree.insert(slot, step)),
                4..=5 => {
                    ring.get_or_default(Slot(slot));
                    *ring.get_mut(Slot(slot)).expect("filled") += 1;
                    *tree.entry(slot).or_default() += 1;
                }
                6 => assert_eq!(ring.remove(Slot(slot)), tree.remove(&slot)),
                7 => {
                    assert_eq!(ring.get(Slot(slot)), tree.get(&slot));
                    if let Some(x) = ring.get_mut(Slot(slot)) {
                        *x ^= step;
                    }
                    if let Some(x) = tree.get_mut(&slot) {
                        *x ^= step;
                    }
                }
                8 => {
                    for (_, x) in ring.range_mut(Slot(near)..=Slot(slot + 7)) {
                        *x += 3;
                    }
                    for (_, x) in tree.range_mut(near..=slot + 7) {
                        *x += 3;
                    }
                }
                _ => {
                    // The discard trails the window, as compaction does.
                    floor += rng.gen_range(24);
                    let retained = tree.split_off(&(floor + 1));
                    let mut handed = Vec::new();
                    let n = ring.drop_through(Slot(floor), |s, &x| handed.push((s.0, x)));
                    assert_eq!(handed, tree.into_iter().collect::<Vec<_>>());
                    assert_eq!(n, handed.len());
                    tree = retained;
                    drops += 1;
                }
            }
            if rounds && cuts.gen_range(4) == 0 {
                if let Some((block, _)) = ring.block_at(Slot(near)) {
                    let cells = block.iter().map(|c| c.get().copied()).collect();
                    held.push_back((block.clone(), cells));
                    if held.len() > 8 {
                        held.pop_front();
                    }
                }
            }
            for (block, cells) in &held {
                for (cell, was) in block.iter().zip(cells) {
                    if was.is_some() {
                        assert_eq!(cell.get(), was.as_ref(), "a round's cell changed");
                    }
                }
            }
            assert_eq!(ring.len(), tree.len());
            assert_eq!(ring.is_empty(), tree.is_empty());
            assert_eq!(
                ring.last_slot().map(|s| s.0),
                tree.keys().next_back().copied()
            );
            let (a, b) = (floor + rng.gen_range(64), floor + rng.gen_range(600));
            let flat = |(s, x): (Slot, &u64)| (s.0, *x);
            let tree_flat = |(s, x): (&u64, &u64)| (*s, *x);
            assert!(ring.range(..).map(flat).eq(tree.iter().map(tree_flat)));
            assert!(ring
                .range(Slot(a)..)
                .map(flat)
                .eq(tree.range(a..).map(tree_flat)));
            assert!(ring
                .range(..Slot(b))
                .rev()
                .map(flat)
                .eq(tree.range(..b).rev().map(tree_flat)));
            if a <= b {
                assert!(ring
                    .range(Slot(a)..Slot(b))
                    .map(flat)
                    .eq(tree.range(a..b).map(tree_flat)));
                assert!(ring
                    .range(Slot(a)..=Slot(b))
                    .map(flat)
                    .eq(tree.range(a..=b).map(tree_flat)));
            } else {
                // The tree panics on an inverted range; the ring is empty.
                assert_eq!(ring.range(Slot(a)..Slot(b)).count(), 0);
            }
        }
        assert!(
            gaps > 1_000 && drops > 4_000 && below > 100,
            "the script left gaps, discarded and reached below the span: {gaps}, {drops}, {below}"
        );
    }

    /// What the table holds follows what it spans: no block outlives the
    /// entries in it, a table that drains holds nothing, and one that
    /// grows never holds a block it does not span — so its memory is a
    /// line in the number of slots, with no step for a seed to land
    /// either side of.
    #[test]
    fn blocks_follow_what_is_present() {
        let blocks_spanned = |ring: &SlotRing<u8>| {
            let first = ring.range(..).next().map_or(0, |(s, _)| s.0 / BLOCK);
            ring.last_slot()
                .map_or(0, |last| last.0 / BLOCK + 1 - first) as usize
        };
        let mut ring: SlotRing<u8> = SlotRing::new();
        ring.insert(Slot(10), 1);
        ring.insert(Slot(500), 2);
        assert_eq!((ring.len(), ring.blocks.len()), (2, 2));
        assert_eq!(ring.remove(Slot(500)), Some(2));
        assert_eq!((ring.len(), ring.blocks.len()), (1, 1));
        assert_eq!(ring.last_slot(), Some(Slot(10)));
        ring.insert(Slot(4), 3);
        assert_eq!(
            ring.range(..).map(|(s, _)| s.0).collect::<Vec<_>>(),
            [4, 10]
        );
        assert_eq!(ring.drop_through(Slot(9), |_, _| {}), 1);
        assert_eq!((ring.lo, ring.hi, ring.blocks.len()), (10, 10, 1));
        assert_eq!(ring.drop_through(Slot(u64::MAX), |_, _| {}), 1);
        assert!(ring.is_empty() && ring.blocks.is_empty() && ring.last_slot().is_none());
        // Growing: one block per `BLOCK` slots, at every length.
        for s in 1..=70_000 {
            ring.insert(Slot(s), 0);
            assert_eq!(ring.blocks.len(), blocks_spanned(&ring), "at {s}");
        }
        // A discard hands back what the peak needed.
        assert_eq!(ring.drop_through(Slot(69_800), |_, _| {}), 69_800);
        assert_eq!((ring.blocks.len(), blocks_spanned(&ring)), (2, 2));
        assert_eq!(ring.range(..).count(), 200);
        ring.drop_through(Slot(70_000), |_, _| {});
        // An empty table starts over wherever the next entry lands.
        ring.insert(Slot(3), 4);
        assert_eq!(ring.get(Slot(3)), Some(&4));
        assert_eq!(ring.range(Slot(u64::MAX)..).count(), 0);
    }

    /// Ring `a` holds 1..=300; ring `b` has taken `a`'s first block over
    /// 1..=255 and its second over 256..=265, as a follower's log takes
    /// its leader's (`share`); then `a` fills 301..=310 in place.
    fn a_and_b() -> (SlotRing<u64>, SlotRing<u64>) {
        let mut a: SlotRing<u64> = SlotRing::new();
        for s in 1..=300 {
            a.insert(Slot(s), s);
        }
        let block = |a: &SlotRing<u64>, s: u64| a.block_at(Slot(s)).expect("held").0.clone();
        let mut b: SlotRing<u64> = SlotRing::new();
        assert!(
            b.share(Slot(1), &block(&a, 1), 1..101),
            "an empty ring takes a block"
        );
        assert!(
            b.share(Slot(101), &block(&a, 1), 101..256),
            "the block it holds"
        );
        assert!(b.share(Slot(256), &block(&a, 256), 0..10), "the next block");
        for s in 301..=310 {
            a.insert(Slot(s), s);
        }
        (a, b)
    }

    /// Whether `a` and `b` hold one block at `slot`.
    fn shared(a: &SlotRing<u64>, b: &SlotRing<u64>, slot: u64) -> bool {
        let at = |r: &SlotRing<u64>| r.block_at(Slot(slot)).map(|(block, _)| block.clone());
        matches!((at(a), at(b)), (Some(x), Some(y)) if Rc::ptr_eq(&x, &y))
    }

    fn entries(ring: &SlotRing<u64>) -> Vec<(u64, u64)> {
        ring.range(..).map(|(s, &x)| (s.0, x)).collect()
    }

    /// A ring owns only its span of a block it shares: what the other
    /// holder sets beyond it reads as absent through `get`, `range`,
    /// `len` and `last_slot`, and filling empty cells copies nothing.
    #[test]
    fn a_ring_owns_only_its_span_of_a_shared_block() {
        let (a, b) = a_and_b();
        assert!(shared(&a, &b, 1) && shared(&a, &b, 256));
        assert_eq!(b.len(), 265);
        assert_eq!(b.last_slot(), Some(Slot(265)));
        assert_eq!(a.get(Slot(300)), Some(&300));
        for s in [0, 266, 300, 310] {
            assert_eq!(b.get(Slot(s)), None, "slot {s}");
        }
        assert_eq!(entries(&b), (1..=265).map(|s| (s, s)).collect::<Vec<_>>());
        assert_eq!(b.range(Slot(260)..).count(), 6);
        assert_eq!(b.range(Slot(266)..=Slot(300)).count(), 0);
        assert_eq!(b.range(..=Slot(999)).next_back(), Some((Slot(265), &265)));
        // `a` filled empty cells of the block `b` holds: still one block.
        assert_eq!(a.len(), 310);
    }

    /// What `share` refuses, changing nothing: a block of another length,
    /// cells that are not the slot's, a block other than the one the ring
    /// holds there, and one that does not start just past the ring's end.
    #[test]
    fn share_takes_only_a_block_that_writes_nothing() {
        let (a, mut b) = a_and_b();
        let before = entries(&b);
        let short: Block<u64> = (0..10).map(OnceCell::from).collect();
        assert!(!b.share(Slot(266), &short, 266 % 256..10));
        let (second, _) = a.block_at(Slot(256)).expect("held");
        assert!(!b.share(Slot(266), second, 11..20), "cells not the slot's");
        let mut c: SlotRing<u64> = SlotRing::new();
        for s in 1..=300 {
            c.insert(Slot(s), s);
        }
        let (other, _) = c.block_at(Slot(256)).expect("held");
        assert!(!b.share(Slot(266), other, 10..20), "not the block it holds");
        let mut d: SlotRing<u64> = SlotRing::new();
        d.insert(Slot(1), 1);
        assert!(!d.share(Slot(2), second, 2..12), "not the block held there");
        assert!(!d.share(Slot(256), second, 0..10), "a gap before it");
        assert_eq!(entries(&b), before);
        assert!(b.share(Slot(266), second, 10..45), "what `a` filled since");
        assert_eq!(b.last_slot(), Some(Slot(300)));
        assert_eq!(b.len(), 300);
    }

    /// Every write of a set cell of a shared block — a truncation and the
    /// append after it, a crash's truncation alone, a compaction that
    /// stops inside the block, an overwrite (Raft\*'s `replace_suffix`),
    /// a cell the other holder set beyond the span — copies the block
    /// first: `a` keeps every cell it had, `b` reads what it wrote.
    #[test]
    fn writing_a_set_cell_of_a_shared_block_copies_it_first() {
        type Step = fn(&mut SlotRing<u64>);
        let steps: [(&str, Step, u64, &[(u64, u64)]); 5] = [
            (
                "truncate, then append",
                |b| {
                    b.truncate_after(Slot(260), |_, _| {});
                    b.insert(Slot(261), 1_000);
                },
                256,
                &[(260, 260), (261, 1_000)],
            ),
            (
                "crash truncation",
                |b| {
                    b.truncate_after(Slot(258), |_, _| {});
                },
                256,
                &[(258, 258)],
            ),
            (
                "compaction inside the block",
                |b| {
                    b.drop_through(Slot(100), |_, _| {});
                },
                1,
                &[(101, 101)],
            ),
            (
                "overwrite",
                |b| {
                    assert_eq!(b.insert(Slot(262), 1_000), Some(262));
                },
                256,
                &[(262, 1_000), (265, 265)],
            ),
            (
                "a cell set beyond the span",
                |b| {
                    assert_eq!(b.insert(Slot(266), 1_000), None);
                },
                256,
                &[(265, 265), (266, 1_000)],
            ),
        ];
        for (name, step, block, reads) in steps {
            let (a, mut b) = a_and_b();
            let before = entries(&a);
            step(&mut b);
            assert!(!shared(&a, &b, block), "{name}: the block was copied");
            assert_eq!(entries(&a), before, "{name}: `a` kept its cells");
            for &(s, x) in reads {
                assert_eq!(b.get(Slot(s)), Some(&x), "{name}: slot {s}");
            }
            let other = if block == 1 { 256 } else { 1 };
            assert!(
                shared(&a, &b, other),
                "{name}: the other block stays shared"
            );
        }
        // A block the span leaves goes as it is; the other stays shared.
        let (a, mut b) = a_and_b();
        assert_eq!(b.drop_through(Slot(255), |_, _| {}), 255);
        assert!(shared(&a, &b, 256) && b.block_at(Slot(1)).is_none());
        assert_eq!(entries(&b), (256..=265).map(|s| (s, s)).collect::<Vec<_>>());
        let (a, mut b) = a_and_b();
        assert_eq!(b.truncate_after(Slot(255), |_, _| {}), 10);
        assert!(shared(&a, &b, 1) && b.block_at(Slot(256)).is_none());
        assert_eq!(b.last_slot(), Some(Slot(255)));
        assert_eq!(a.len(), 310);
        // And a default over a cell set beyond the span is a default.
        let (a, mut b) = a_and_b();
        assert_eq!(*b.get_or_default(Slot(266)), 0);
        assert_eq!(a.get(Slot(266)), Some(&266));
    }
}
