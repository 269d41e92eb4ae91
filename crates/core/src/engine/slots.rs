//! The one slot store of both families, and the one round type.
//!
//! Under the paper's Figure-3 map `entry.index ↔ instance.id`, Raft's log
//! and the Paxos instance table are one structure: entries by slot,
//! growing at one end and discarded at the other. The log is dense over
//! its span; the table has holes in it — instances are accepted and
//! chosen out of order, a skipped or not-yet-heard slot is simply absent.
//! [`SlotRing`] is both: a `VecDeque` of fixed-size blocks of optional
//! entries over the slots from the first one present to the last, so a
//! lookup is two indexes instead of a tree descent and consecutive slots
//! sit next to each other in memory. [`crate::log::Log`], the Paxos
//! family's base (`super::paxos_family::PaxosBase`) and a follower's
//! forward outbox (`msg::Outbox`) each keep one.
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
//! A block is reference-counted, so a reader can keep one past the call
//! that found it, and another ring can hold it too: a round is a [`Run`]
//! of the sender's own blocks (*Rounds* below), and a Raft follower's log
//! or a MultiPaxos acceptor's table holds the very blocks its leader's or
//! proposer's does (`SlotRing::share`). What makes that safe is that a
//! ring owns only its span: `get`, `len`, `last_slot`, `range` and `trim`
//! read the cells from its lowest entry to its highest and nothing else,
//! so a cell another holder sets beyond them is not an entry of this
//! ring. And a set cell changes only in a block nobody else holds:
//!
//! - filling an *empty* cell goes through the shared block, so a leader
//!   appends, a proposer numbers its next instances, a Mencius owner
//!   stores a peer's value between its own, and a follower moves its next
//!   forwarded batch, into a block that rounds in flight and other rings
//!   point at — each of them reads only the cells it was cut over or
//!   spans;
//! - writing a *set* cell — overwriting, taking or clearing one, or
//!   filling one that another holder set beyond this ring's span — goes
//!   through `Rc::make_mut`, which first copies a block someone else holds.
//!
//! The first rule needs an empty cell to lie outside every other ring's
//! span, so no ring has a hole in its span of a block another ring holds:
//! a run lends its blocks to another ring only when cut from a ring with
//! no hole in its span (`Run::blocks`), and a ring that lent or took a
//! block copies it before stretching its span past a gap in it.
//!
//! So a kept block is a snapshot of the cells that were set when it was
//! taken, and two rings that hold one block at one place hold the same
//! entries wherever both spans cover it. Discarding slots at an end of
//! the span takes them out of a block the span still reaches (copying it
//! first if shared); a block the span leaves is let go as it is.
//!
//! # Rounds
//!
//! Under Figure 3's map a Raft `Append` is a phase-2 accept over a range
//! of instances, a MultiPaxos `Accept` is one over the proposer's, and
//! Appendix A.4's Mencius `Suggest` is an `Append` over one owner's
//! slots. So every round of the four protocols, and a follower's
//! forwarded batch too, is one [`Run`], cut by [`SlotRing::cut`]: the
//! first entries of a range that the caller's rule carries. When they are
//! a run of slots `stride` apart — 1 for a log, a proposer's batch or a
//! forwarded batch, `n` for a Mencius owner's — within two blocks, the
//! run holds those blocks, shared, with the first slot, the count and the
//! stride in one word: cutting one for any peer is a reference count,
//! never an allocation or an entry copy. Anything else — a round past
//! entries chosen out of order, a retransmission of the slots that aged,
//! a catch-up longer than two blocks — is a copy of its `(slot, entry)`
//! pairs, in one allocation.
//!
//! A run stays what it was cut as while the ring moves on, by the rules
//! above. What a round carries beside its entries is the protocol's:
//! Raft\*'s ballot mark rides in `RaftMsg::Append`, a Paxos round's
//! ballot in its message.

use std::cell::OnceCell;
use std::collections::VecDeque;
use std::fmt;
use std::ops::{Bound, Range, RangeBounds};
use std::rc::Rc;

use crate::types::Slot;

/// Cells per block of a table that names no other length: block `b`
/// covers the slots `b * 256 .. (b + 1) * 256`. A follower's forward
/// outbox names a batch's length, 64: a block of 256 there held 9 KB more
/// per forwarding follower, which the ledger's peak heap reads.
const CELLS: usize = 256;

/// A block of `B` cells, shareable (module docs, *Sharing*). An empty
/// cell is an absent slot. Its length is fixed, so a pointer to it is
/// thin.
pub(crate) type Block<T, const B: usize = CELLS> = Rc<[OnceCell<T>; B]>;

/// `block`'s cells to write: the block itself when nobody else holds it,
/// else a copy of it put in its place (module docs, *Sharing*).
fn own<T: Clone, const B: usize>(block: &mut Block<T, B>) -> &mut [OnceCell<T>] {
    &mut Rc::make_mut(block)[..]
}

/// A block of absent cells, built in place on the heap.
fn absent<T, const B: usize>() -> Block<T, B> {
    let cells: Rc<[OnceCell<T>]> = (0..B).map(|_| OnceCell::new()).collect();
    cells
        .try_into()
        .unwrap_or_else(|_| unreachable!("a block of B cells"))
}

/// A map from [`Slot`] to `T`, dense over the slots it spans (module
/// docs). Iteration is in slot order over the entries present.
#[derive(Debug, Clone)]
pub struct SlotRing<T, const B: usize = CELLS> {
    /// The block number of `blocks[0]`.
    first_block: u64,
    /// Exactly the blocks from the one holding the first entry to the one
    /// holding the last; none when the table is empty, but for the block
    /// [`SlotRing::clear`] keeps.
    blocks: VecDeque<Block<T, B>>,
    /// The lowest and the highest slot holding an entry (meaningless when
    /// the table is empty): the span. The table owns the cells in
    /// `lo..=hi` and no other; whatever a cell outside it holds is absent
    /// here (module docs, *Sharing*).
    lo: u64,
    hi: u64,
    /// Cells of the span that hold an entry: 32 bits, so `lent` fits beside.
    present: u32,
    /// Whether another ring may hold a block of this one: it took one by
    /// [`SlotRing::share`], or cut a run another may take (module docs,
    /// *Sharing*).
    lent: std::cell::Cell<bool>,
}

impl<T, const B: usize> Default for SlotRing<T, B> {
    fn default() -> Self {
        SlotRing {
            first_block: 0,
            blocks: VecDeque::new(),
            lo: 0,
            hi: 0,
            present: 0,
            lent: Default::default(),
        }
    }
}

impl<T: Clone, const B: usize> SlotRing<T, B> {
    /// Cells per block, counted in slots.
    const BLOCK: u64 = B as u64;

    /// An empty table.
    pub fn new() -> Self {
        SlotRing::default()
    }

    /// Entries present (absent slots inside the span do not count).
    pub fn len(&self) -> usize {
        self.present as usize
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
        let block = (slot.0 / Self::BLOCK).checked_sub(self.first_block)? as usize;
        (block < self.blocks.len()).then_some((block, (slot.0 % Self::BLOCK) as usize))
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
        let block = slot.0 / Self::BLOCK;
        if self.present == 0 {
            if block != self.first_block {
                self.blocks.clear();
            }
            self.first_block = block;
            (self.lo, self.hi) = (slot.0, slot.0);
        } else if self.lent.get() {
            self.vacate(slot.0);
        }
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
            (slot.0 % Self::BLOCK) as usize,
        )
    }

    /// Before the span stretches to `slot`: the cells between it and the
    /// span, in the block at the span's end, become absent in a block of
    /// the ring's own — a hole in a block two rings hold is a cell either
    /// may fill in place (module docs, *Sharing*).
    fn vacate(&mut self, slot: u64) {
        let (gap, edge) = match slot {
            s if s > self.hi + 1 => (self.hi + 1..s, self.hi),
            s if s + 1 < self.lo => (s + 1..self.lo, self.lo),
            _ => return,
        };
        let (block, cell) = self.locate(Slot(edge)).expect("the span's end is held");
        let at = edge - cell as u64;
        let (from, to) = (gap.start.max(at) - at, gap.end.min(at + Self::BLOCK) - at);
        if from < to {
            let cells = &mut own(&mut self.blocks[block])[from as usize..to as usize];
            cells.iter_mut().for_each(|c| drop(c.take()));
        }
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

    /// Discards every entry. When nobody else holds the table's first
    /// block it stays, its cells emptied in place, for entries that come
    /// back to its slots: that is how a follower refills its forward
    /// outbox once no round holds it (`msg::Outbox`).
    pub fn clear(&mut self) {
        self.present = 0;
        self.blocks.truncate(1);
        match self.blocks.front_mut().and_then(Rc::get_mut) {
            Some(cells) => cells.iter_mut().for_each(|cell| drop(cell.take())),
            None => self.blocks.clear(),
        }
    }

    /// Makes the slots from `slot` on the table's as `block`'s `cells`
    /// hold them, when that writes no cell, and returns whether it did.
    /// It does when the cells are `slot`'s and the next ones, and the
    /// table holds `block` itself at their place, or is empty, or ends at
    /// a block's last slot just before `slot` — then it takes `block` as
    /// its next. The span then runs through the last of the slots at
    /// least (module docs, *Sharing*).
    ///
    /// For `block` and `cells` from `Run::blocks`, whose cells are set
    /// and whose ring has no hole in its span; a `slot` outside the span
    /// and not just past it is refused too.
    pub(crate) fn share(&mut self, slot: Slot, block: &Block<T, B>, cells: Range<usize>) -> bool {
        if cells.is_empty() || cells.start as u64 != slot.0 % Self::BLOCK {
            return false;
        }
        let last = slot.0 + cells.len() as u64 - 1;
        if self.present == 0 {
            self.blocks.clear();
            self.blocks.push_back(block.clone());
            self.first_block = slot.0 / Self::BLOCK;
            (self.lo, self.hi, self.present) = (slot.0, last, cells.len() as u32);
            self.lent.set(true);
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
            self.present += (last - self.hi) as u32;
            self.hi = last;
        }
        self.lent.set(true);
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
            let at = (first + b as u64) * Self::BLOCK;
            let from = start.max(at);
            let cells = (from - at) as usize..(end.min(at + Self::BLOCK) - at) as usize;
            for (i, cell) in self.blocks[b][cells.clone()].iter().enumerate() {
                if let Some(entry) = cell.get() {
                    dropped += 1;
                    gone(Slot(from + i as u64), entry);
                }
            }
            let leaves = at.max(lo) >= start && (at + Self::BLOCK).min(hi + 1) <= end;
            if !leaves {
                own(&mut self.blocks[b])[cells].iter_mut().for_each(|c| {
                    c.take();
                });
            }
        }
        self.present -= dropped as u32;
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
        while self.first_block < self.lo / Self::BLOCK {
            self.blocks.pop_front();
            self.first_block += 1;
        }
        self.blocks
            .truncate((self.hi / Self::BLOCK - self.first_block + 1) as usize);
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
        let index = |slot: u64| (slot / Self::BLOCK - self.first_block) as usize;
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
                let at = (first + b as u64) * Self::BLOCK;
                let from = start.max(at);
                block[(from - at) as usize..(end.min(at + Self::BLOCK) - at) as usize]
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
            let at = (first + b as u64) * Self::BLOCK;
            let from = start.max(at);
            block[(from - at) as usize..(end.min(at + Self::BLOCK) - at) as usize]
                .iter_mut()
                .enumerate()
                .filter_map(move |(i, cell)| Some((Slot(from + i as u64), cell.get_mut()?)))
        })
    }

    /// The one cut of every round (module docs, *Rounds*): the first
    /// `count` entries in `range` that `carried` admits. A run of slots
    /// `stride` apart within two blocks is a view of the table's own
    /// blocks, which allocates nothing; anything else is a copy of its
    /// pairs, in one allocation.
    pub fn cut(
        &self,
        range: impl RangeBounds<Slot> + Clone,
        stride: u64,
        count: usize,
        carried: impl Fn(Slot, &T) -> bool,
    ) -> Run<T, B>
    where
        T: 'static,
    {
        let held = || {
            let entries = self.range(range.clone());
            entries.filter(|&(s, e)| carried(s, e)).take(count)
        };
        let mut slots = held().map(|(s, _)| s.0);
        let Some(first) = slots.next() else {
            return Run::default();
        };
        // How many, and whether each lies `stride` past the one before,
        // no further than the block after the first one's.
        let edge = (first / Self::BLOCK + 2) * Self::BLOCK;
        let (mut len, mut prev, mut run) = (1, first, true);
        for s in slots {
            run &= s == prev + stride && s < edge;
            (len, prev) = (len + 1, s);
        }
        let cut = match run.then(|| self.view(first, len, stride)).flatten() {
            Some(view) => view,
            None => {
                // A mapped range tells `Rc<[_]>` its length: one allocation.
                let mut pairs = held().map(|(s, e)| (s, e.clone()));
                (0..len)
                    .map(|_| pairs.next().expect("as many as counted"))
                    .collect()
            }
        };
        #[cfg(test)]
        tests::record(|| tests::Cut {
            run: cut.clone(),
            held: held().map(|(s, e)| (s, e.clone())).collect(),
            stride,
        });
        cut
    }

    /// The run of `len` entries from `first`, `stride` apart, as a view of
    /// the block `first` lies in and, if the run reaches it, the next.
    fn view(&self, first: u64, len: usize, stride: u64) -> Option<Run<T, B>> {
        let (block, _) = self.locate(Slot(first))?;
        let last = first + (len as u64 - 1) * stride;
        let next =
            (last / Self::BLOCK > first / Self::BLOCK).then(|| self.blocks[block + 1].clone());
        // Module docs, *Sharing*.
        let lendable = stride == 1 && self.present as u64 == self.hi - self.lo + 1;
        let word = pack(first, len as u64, stride, lendable)?;
        self.lent.set(self.lent.get() | lendable);
        Some(Run(Repr::View {
            head: self.blocks[block].clone(),
            next,
            word,
        }))
    }
}

/// One round's entries (module docs, *Rounds*): a run of slots `stride`
/// apart in up to two of the sender's blocks, shared, or a copy of its
/// `(slot, entry)` pairs. Whatever the table does after the cut, the run
/// yields the entries it was cut over.
///
/// 24 bytes: every message of the simulator is as large as the largest,
/// a `Suggest` carrying one of these, and is moved by value through its
/// event queue. Blocks are whole, so their pointers are thin, and a
/// view's first slot, count and stride share one word.
#[derive(Clone)]
pub struct Run<T, const B: usize = CELLS>(Repr<T, B>);

#[derive(Clone)]
enum Repr<T, const B: usize> {
    /// The run in the block its first entry lies in and, when it goes on
    /// past that block's end, the next one. A block starts at a multiple
    /// of its length, so where the first entry lies in `head` follows
    /// from its slot.
    View {
        head: Block<T, B>,
        next: Option<Block<T, B>>,
        word: u64,
    },
    /// Anything else: the pairs, in slot order; none for the empty round.
    Copied(Option<Rc<[(Slot, T)]>>),
}

/// A view's first slot (below 2^40), count (below 2^16: a view spans at
/// most two blocks), stride (below 2^7: `ReplicaConfig::validate` caps
/// `n` at 32) and whether another ring may take its blocks, in one word.
fn pack(first: u64, len: u64, stride: u64, lendable: bool) -> Option<u64> {
    let fits = first < 1 << 40 && len < 1 << 16 && stride < 1 << 7;
    fits.then_some(first | len << 40 | stride << 56 | u64::from(lendable) << 63)
}

/// [`pack`]'s first slot, count and stride.
fn unpack(word: u64) -> (u64, usize, u64) {
    (
        word & ((1 << 40) - 1),
        (word >> 40 & 0xFFFF) as usize,
        word >> 56 & 0x7F,
    )
}

impl<T, const B: usize> Default for Run<T, B> {
    fn default() -> Self {
        Run(Repr::Copied(None))
    }
}

impl<T, const B: usize> Run<T, B> {
    /// Cells per block, counted in slots.
    const BLOCK: u64 = B as u64;

    /// Entries in the round.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::View { word, .. } => unpack(*word).1,
            Repr::Copied(pairs) => pairs.as_deref().map_or(0, <[_]>::len),
        }
    }

    /// True for the empty round (an idle heartbeat).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The last entry's slot.
    pub fn last(&self) -> Option<Slot> {
        let len = self.len();
        (len > 0).then(|| self.at(len - 1).0)
    }

    /// The `(slot, entry)` pairs, in slot order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (Slot, &T)> + '_ {
        self.iter_from(0)
    }

    /// [`Run::iter`] past its first `skip` pairs; empty once `skip`
    /// reaches the length.
    pub(crate) fn iter_from(&self, skip: usize) -> impl ExactSizeIterator<Item = (Slot, &T)> + '_ {
        (skip.min(self.len())..self.len()).map(|i| self.at(i))
    }

    /// The `i`th pair. A view covers cells that were set when it was cut,
    /// and a shared cell that is set stays set (module docs, *Sharing*).
    fn at(&self, i: usize) -> (Slot, &T) {
        match &self.0 {
            Repr::View { head, next, word } => {
                let (first, _, stride) = unpack(*word);
                let step = i as u64 * stride;
                let cell = (first % Self::BLOCK + step) as usize;
                let cell = match head.get(cell) {
                    Some(cell) => cell,
                    None => &next.as_ref().expect("the run goes on")[cell - B],
                };
                let entry = cell.get().expect("a run covers set cells");
                (Slot(first + step), entry)
            }
            Repr::Copied(pairs) => {
                let (slot, entry) = &pairs.as_deref().expect("a copy holds its pairs")[i];
                (*slot, entry)
            }
        }
    }

    /// A run another ring may take the blocks of past its first `skip`,
    /// block by block: each block with the range of its cells; nothing
    /// for a copy, a stride past 1 or a ring with a hole in its span
    /// (`SlotRing::share` takes these).
    pub(crate) fn blocks(&self, skip: usize) -> impl Iterator<Item = (&Block<T, B>, Range<usize>)> {
        let (blocks, from, len) = match &self.0 {
            Repr::View { head, next, word } if *word >> 63 == 1 => {
                let (first, len, _) = unpack(*word);
                (
                    [Some(head), next.as_ref()],
                    (first % Self::BLOCK) as usize,
                    len,
                )
            }
            _ => ([None, None], 0, 0),
        };
        let in_head = len.min(B - from);
        let skipped = skip.min(in_head);
        let cells = [
            from + skipped..from + in_head,
            (skip - skipped).min(len - in_head)..len - in_head,
        ];
        let runs = blocks.into_iter().zip(cells);
        runs.filter_map(|(block, cells)| Some((block?, cells)).filter(|(_, c)| !c.is_empty()))
    }
}

/// A round of its own: a copy of the pairs given, in ascending slot order
/// (a forwarded batch longer than a block, or a test's scripted round).
impl<T, const B: usize> FromIterator<(Slot, T)> for Run<T, B> {
    fn from_iter<I: IntoIterator<Item = (Slot, T)>>(items: I) -> Self {
        let items: Rc<[(Slot, T)]> = items.into_iter().collect();
        debug_assert!(items.windows(2).all(|w| w[0].0 < w[1].0));
        Run(Repr::Copied((!items.is_empty()).then_some(items)))
    }
}

impl<T: fmt::Debug, const B: usize> fmt::Debug for Run<T, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use paxraft_sim::rng::SimRng;
    use std::collections::{BTreeMap, VecDeque};

    /// Cells per block of the default table, counted in slots.
    const BLOCK: u64 = CELLS as u64;

    impl<T: Clone, const B: usize> SlotRing<T, B> {
        /// The block holding `slot` and `slot`'s cell in it.
        pub(crate) fn block_at(&self, slot: Slot) -> Option<(&Block<T, B>, usize)> {
            let (block, cell) = self.locate(slot)?;
            Some((&self.blocks[block], cell))
        }
    }

    impl<T, const B: usize> Run<T, B> {
        /// Whether the round is a view of table blocks.
        pub(crate) fn is_view(&self) -> bool {
            matches!(self.0, Repr::View { .. })
        }

        /// Whether the run holds `block`.
        pub(crate) fn holds(&self, block: &Block<T, B>) -> bool {
            match &self.0 {
                Repr::View { head, next, .. } => {
                    Rc::ptr_eq(head, block) || next.as_ref().is_some_and(|n| Rc::ptr_eq(n, block))
                }
                Repr::Copied(_) => false,
            }
        }
    }

    /// A round as the test recorder keeps it: the run, what the table held
    /// over its slots at the cut, and the stride it was cut at.
    pub(crate) struct Cut<T, const B: usize = CELLS> {
        pub(crate) run: Run<T, B>,
        pub(crate) held: Vec<(Slot, T)>,
        pub(crate) stride: u64,
    }

    thread_local! {
        /// The rounds [`SlotRing::cut`] made on this thread, while a test
        /// records them ([`recording`]).
        static CUTS: std::cell::RefCell<Option<Vec<Box<dyn std::any::Any>>>> =
            const { std::cell::RefCell::new(None) };
    }

    impl<T, const B: usize> Cut<T, B> {
        /// Checks the round against what the table held at the cut, compared
        /// by `key`: it yields those entries, in ascending slot order, and is
        /// a view exactly when they lie `stride` apart within two blocks.
        /// Returns whether it is a view.
        pub(crate) fn check<K: PartialEq + fmt::Debug>(&self, key: impl Fn(&T) -> K) -> bool {
            let held: Vec<(Slot, K)> = self.held.iter().map(|(s, e)| (*s, key(e))).collect();
            let yields: Vec<(Slot, K)> = self.run.iter().map(|(s, e)| (s, key(e))).collect();
            assert_eq!(
                yields, held,
                "a round yields what the table held at the cut"
            );
            let slots: Vec<u64> = self.held.iter().map(|(s, _)| s.0).collect();
            assert!(
                slots.windows(2).all(|w| w[0] < w[1]),
                "ascending: {slots:?}"
            );
            let view = spaced(&slots, self.stride, B as u64);
            assert_eq!(
                self.run.is_view(),
                view,
                "stride {}: {slots:?}",
                self.stride
            );
            view
        }
    }

    /// Whether `slots` are a run `stride` apart within two blocks: what a
    /// cut holds as a view.
    fn spaced(slots: &[u64], stride: u64, block: u64) -> bool {
        let apart = slots.windows(2).all(|w| w[1] == w[0] + stride);
        let within = |(first, last): (&u64, &u64)| last / block <= first / block + 1;
        apart && slots.first().zip(slots.last()).is_some_and(within)
    }

    /// Keeps the cut `cut` makes, if a test is recording.
    pub(super) fn record<T: 'static, const B: usize>(cut: impl FnOnce() -> Cut<T, B>) {
        CUTS.with_borrow_mut(|cuts| {
            if let Some(cuts) = cuts {
                cuts.push(Box::new(cut()));
            }
        });
    }

    /// Runs `f` with every cut on this thread recorded: what `f` returned,
    /// and the cuts of `T`s it made, in order.
    pub(crate) fn recording<T: 'static, R>(f: impl FnOnce() -> R) -> (R, Vec<Cut<T>>) {
        CUTS.set(Some(Vec::new()));
        let out = f();
        let cuts = CUTS.take().unwrap_or_default().into_iter();
        let cuts = cuts.filter_map(|cut| cut.downcast::<Cut<T>>().ok());
        (out, cuts.map(|cut| *cut).collect())
    }

    /// The ring against the tree it replaced, under one random script of
    /// everything the rules files do with it. The window of slots in play
    /// slides upwards, discards follow it, and now and then a slot far
    /// ahead leaves a gap behind it.
    #[test]
    fn ring_answers_what_a_btreemap_answers() {
        against_btreemap(false);
    }

    /// The property every round rests on (module docs, *Rounds*), under
    /// the same script while runs are cut from the table and held: every
    /// run yields what the table held over its slots at the cut, whatever
    /// the table does afterwards — an overwrite, a removal (a crash's
    /// drop), a compaction inside a block, a truncation, each of which
    /// copies a block a run holds first — and it is a view exactly when
    /// the entries it carries lie `stride` apart within two blocks, a
    /// copy otherwise. Runs are cut at strides 1 and 5 at random cursors
    /// and lengths, carrying every entry, one owner's slots of five, or
    /// the entries whose values are not a multiple of 3 (gaps). The cuts
    /// draw from a random stream of their own, so the script's draws are
    /// the ones above.
    #[test]
    fn a_run_yields_what_the_table_held_at_the_cut() {
        let tally = against_btreemap(true);
        assert!(
            tally.views.iter().all(|&n| n > 200) && tally.copies > 1_000,
            "{tally:?}"
        );
        assert!(tally.outlived > 10_000, "{tally:?}");
    }

    /// What the rounds of one run of [`against_btreemap`] exercised.
    #[derive(Debug, Default)]
    struct Tally {
        /// Views at stride 1 within one block, across a block edge, and
        /// at stride 5.
        views: [u32; 3],
        /// Runs copied (gaps, or more than two blocks).
        copies: u32,
        /// Checks of a held run whose slots the table no longer holds as
        /// they were at the cut.
        outlived: u32,
    }

    /// Runs each script holds and re-checks after every step.
    const HELD: usize = 8;

    fn against_btreemap(rounds: bool) -> Tally {
        type Carried = fn(Slot, &u64) -> bool;
        /// A run held, with what it yielded when cut.
        type Held = (Run<u64>, Vec<(Slot, u64)>);
        let carry: [Carried; 3] = [|_, _| true, |s, _| s.0 % 5 == 2, |_, x| x % 3 != 0];
        let mut held: VecDeque<Held> = VecDeque::new();
        let mut tally = Tally::default();
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
            if rounds {
                if cuts.gen_range(64) == 0 {
                    // A truncation, as a Raft follower's or a crash's.
                    let after = floor + 40 + cuts.gen_range(400);
                    tree.split_off(&(after + 1));
                    ring.truncate_after(Slot(after), |_, _| {});
                }
                if cuts.gen_range(4) == 0 {
                    // A burst of consecutive slots, as a leader's batch.
                    let at = floor + 16 + cuts.gen_range(48);
                    for s in at..=at + cuts.gen_range(64) {
                        assert_eq!(ring.insert(Slot(s), s ^ step), tree.insert(s, s ^ step));
                    }
                }
                let from = floor + cuts.gen_range(64);
                let stride = [1, 5][cuts.gen_range(2) as usize];
                let carried = carry[cuts.gen_range(3) as usize];
                let count = match cuts.gen_range(3) {
                    0 => 1 + cuts.gen_range(8) as usize,
                    1 => 1 + cuts.gen_range(300) as usize,
                    _ => usize::MAX,
                };
                let run = ring.cut(Slot(from).., stride, count, carried);
                let at_cut: Vec<(Slot, u64)> = tree
                    .range(from..)
                    .map(|(&s, &x)| (Slot(s), x))
                    .filter(|&(s, x)| carried(s, &x))
                    .take(count)
                    .collect();
                let slots: Vec<u64> = at_cut.iter().map(|(s, _)| s.0).collect();
                let view = spaced(&slots, stride, BLOCK);
                assert_eq!(run.is_view(), view, "step {step}: {at_cut:?}");
                let ends = slots.first().zip(slots.last());
                match (view, stride, ends) {
                    (false, ..) => tally.copies += u32::from(!at_cut.is_empty()),
                    (true, 5, _) => tally.views[2] += 1,
                    (true, _, Some((a, b))) => {
                        tally.views[usize::from(a / BLOCK != b / BLOCK)] += 1
                    }
                    (true, ..) => {}
                }
                held.push_back((run, at_cut));
                if held.len() > HELD {
                    held.pop_front();
                }
            }
            for (run, at_cut) in &held {
                assert_eq!(run.len(), at_cut.len(), "step {step}");
                assert_eq!(run.last(), at_cut.last().map(|&(s, _)| s));
                let yields = run.iter().map(|(s, &x)| (s, x));
                assert!(yields.eq(at_cut.iter().copied()), "step {step}");
                let k = step as usize % (at_cut.len() + 2);
                let past = run.iter_from(k).map(|(s, &x)| (s, x));
                assert!(past.eq(at_cut.iter().skip(k).copied()), "step {step}");
                let now = at_cut.iter().map(|&(s, _)| tree.get(&s.0).copied());
                tally.outlived += u32::from(!now.eq(at_cut.iter().map(|&(_, x)| Some(x))));
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
        tally
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

    /// What `share` refuses, changing nothing: cells that are not the
    /// slot's, a block other than the one the ring holds there, and one
    /// that does not start just past the ring's end.
    #[test]
    fn share_takes_only_a_block_that_writes_nothing() {
        let (a, mut b) = a_and_b();
        let before = entries(&b);
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

    /// A ring that took a block, or lent one, copies it before its span
    /// stretches past a gap in it: the cells the other holder set there
    /// read as absent, and neither ring's span has a hole in a block both
    /// hold, so a cell either fills in place is beyond the other's span.
    /// A view of a ring with a hole in its span lends no block.
    #[test]
    fn a_gap_copies_a_shared_block_and_a_ring_with_a_hole_lends_none() {
        let (a, mut b) = a_and_b();
        assert_eq!(b.insert(Slot(270), 7), None);
        assert!(
            !shared(&a, &b, 256) && shared(&a, &b, 1),
            "the gap's block is copied"
        );
        let tail: Vec<(u64, u64)> = b.range(Slot(260)..).map(|(s, &x)| (s.0, x)).collect();
        let want: Vec<(u64, u64)> = (260..=265).map(|s| (s, s)).chain([(270, 7)]).collect();
        assert_eq!((tail, b.len()), (want, 266));
        assert_eq!(
            (a.get(Slot(268)), a.get(Slot(270))),
            (Some(&268), Some(&270))
        );
        let mut c: SlotRing<u64> = SlotRing::new();
        for s in (1..=20).filter(|&s| s != 11) {
            c.insert(Slot(s), s);
        }
        let view = |c: &SlotRing<u64>| c.cut(Slot(12).., 1, usize::MAX, |_, _| true);
        assert!(view(&c).is_view() && view(&c).blocks(0).next().is_none());
        c.insert(Slot(11), 11);
        assert_eq!(view(&c).blocks(0).count(), 1, "no hole: it lends");
    }

    /// Every write of a set cell of a shared block — a truncation and the
    /// append after it, a crash's truncation alone, a compaction that
    /// stops inside the block, an overwrite (Raft\*'s `replace_suffix`),
    /// a cell the other holder set beyond the span — copies the block
    /// first: `a` keeps every cell it had, `b` reads what it wrote.
    #[test]
    fn writing_a_set_cell_of_a_shared_block_copies_it_first() {
        type Step = fn(&mut SlotRing<u64>);
        /// A step's name, the step, the block it copies and what `b` reads.
        type Row = (&'static str, Step, u64, &'static [(u64, u64)]);
        let steps: [Row; 5] = [
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
