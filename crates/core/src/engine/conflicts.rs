//! The conflict index: the read rule both of the paper's case studies
//! need, written once and kept in one place, the engine's
//! `EngineCore::conflicts`. Raft*-PQL and MultiPaxos-PQL answer a read
//! from their own copy only once every command touching the key has
//! applied (Figure 13's `LocalRead`, line 4); Raft*-Mencius answers a
//! command early only once no earlier write to its key and no migration
//! command is left unapplied (Section 5.2's commutative regime). Both
//! index the commands a replica holds above its applied prefix: Mencius
//! asks whether anything in a range of slots holds an answer back
//! (`ConflictIndex::clear`), the lease for the highest slot that does
//! (`ConflictIndex::last_holding`).
//!
//! A replica keeps one under a lease read mode and under Mencius, kept
//! where values enter and leave: by `PaxosBase`, and by the Raft family's
//! rules type through `index` and `reindex`.

use std::collections::hash_map::Entry;
use std::collections::BTreeSet;
use std::ops::Range;

use crate::kv::{Command, IntMap, Key, Op};
use crate::types::Slot;

use super::EngineCore;

/// What an unapplied command holds back: a write, the answers on its
/// key; a migration command, every answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Holds {
    Key(Key),
    All,
}

impl Holds {
    pub(crate) fn of(cmd: &Command) -> Option<Holds> {
        match &cmd.op {
            Op::Put { key, .. } => Some(Holds::Key(*key)),
            op if op.is_migration() => Some(Holds::All),
            _ => None,
        }
    }
}

/// The retained commands above the applied prefix that an answer must
/// not overtake.
#[derive(Debug, Default)]
pub(crate) struct ConflictIndex {
    /// The slots of every write, by key (the store's fixed-seed integer
    /// hasher). A key's entry leaves with its last indexed write, so the
    /// map holds what is in flight, not every key ever written.
    writes: IntMap<Key, KeyWrites>,
    /// The slot of every migration command.
    migrations: BTreeSet<u64>,
    /// The buffer of the last run that fell back to one slot, empty: the
    /// next key to spill takes it, so a hot key that keeps going from one
    /// write in flight to two and back allocates nothing.
    spare: Vec<u64>,
}

/// The indexed write slots of one key: nearly every key has one, held
/// in place; a key with two or more (the hot key) spills to a sorted run
/// for as long as it has.
#[derive(Debug)]
enum KeyWrites {
    One(u64),
    Many(Vec<u64>),
}

impl ConflictIndex {
    /// Indexes `cmd` at `s`, if it holds an answer back; indexing it
    /// again is a no-op.
    pub(crate) fn enter(&mut self, s: Slot, cmd: &Command) {
        let key = match Holds::of(cmd) {
            None => return,
            Some(Holds::Key(key)) => key,
            Some(Holds::All) => {
                self.migrations.insert(s.0);
                return;
            }
        };
        match self.writes.entry(key) {
            Entry::Vacant(e) => {
                e.insert(KeyWrites::One(s.0));
            }
            Entry::Occupied(mut e) => match e.get_mut() {
                KeyWrites::One(x) if *x == s.0 => {}
                KeyWrites::One(x) => {
                    let mut run = std::mem::take(&mut self.spare);
                    run.extend([s.0.min(*x), s.0.max(*x)]);
                    e.insert(KeyWrites::Many(run));
                }
                KeyWrites::Many(run) => {
                    if let Err(i) = run.binary_search(&s.0) {
                        run.insert(i, s.0);
                    }
                }
            },
        }
    }

    /// Takes `cmd` at `s` out of the index; returns whether it was in.
    pub(crate) fn leave(&mut self, s: Slot, cmd: &Command) -> bool {
        let key = match Holds::of(cmd) {
            None => return false,
            Some(Holds::Key(key)) => key,
            Some(Holds::All) => return self.migrations.remove(&s.0),
        };
        let Entry::Occupied(mut e) = self.writes.entry(key) else {
            return false;
        };
        match e.get_mut() {
            KeyWrites::One(x) if *x == s.0 => {
                e.remove();
            }
            KeyWrites::One(_) => return false,
            KeyWrites::Many(run) => {
                let Ok(i) = run.binary_search(&s.0) else {
                    return false;
                };
                run.remove(i);
                if let [last] = run[..] {
                    if let KeyWrites::Many(mut run) = e.insert(KeyWrites::One(last)) {
                        run.clear();
                        self.spare = run;
                    }
                }
            }
        }
        true
    }

    /// Whether nothing indexed in the slots `between` holds back an
    /// answer on `key` (`None`: a command without one).
    pub(crate) fn clear(&self, between: Range<u64>, key: Option<Key>) -> bool {
        let write_between = |key| match self.writes.get(&key) {
            None => false,
            Some(KeyWrites::One(x)) => between.contains(x),
            Some(KeyWrites::Many(run)) => {
                let first = run.partition_point(|&x| x < between.start);
                run.get(first).is_some_and(|&x| x < between.end)
            }
        };
        self.migrations.range(between.clone()).next().is_none()
            && key.is_none_or(|key| !write_between(key))
    }

    /// The highest indexed slot that holds back a read of `key`: its last
    /// indexed write or the last migration command, whichever is higher
    /// (`Slot::NONE` when nothing does).
    pub(crate) fn last_holding(&self, key: Key) -> Slot {
        let write = match self.writes.get(&key) {
            Some(KeyWrites::One(x)) => Some(x),
            Some(KeyWrites::Many(run)) => run.last(),
            None => None,
        };
        Slot(write.max(self.migrations.last()).copied().unwrap_or(0))
    }
}

/// Moves commands written at their slots into the replica's conflict
/// index (`add`) or out of it: applied, or written over. A replica that
/// keeps no index does nothing.
pub(crate) fn index<'a>(
    core: &mut EngineCore,
    cmds: impl IntoIterator<Item = (Slot, &'a Command)>,
    add: bool,
) {
    if let Some(index) = core.conflicts.as_deref_mut() {
        for (s, cmd) in cmds {
            if add {
                index.enter(s, cmd);
            } else {
                index.leave(s, cmd);
            }
        }
    }
}

/// Indexes `cmds`, what is held above the applied prefix, afresh, after
/// a crash or a snapshot install moved that prefix.
pub(crate) fn reindex<'a>(
    core: &mut EngineCore,
    cmds: impl IntoIterator<Item = (Slot, &'a Command)>,
) {
    if let Some(index) = core.conflicts.as_deref_mut() {
        *index = ConflictIndex::default();
    }
    index(core, cmds, true);
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ConflictIndex {
        /// Every indexed write as `(key, slot)`.
        pub(crate) fn indexed_writes(&self) -> BTreeSet<(Key, u64)> {
            let slots = |(&key, w): (&Key, &KeyWrites)| match w {
                KeyWrites::One(x) => vec![(key, *x)],
                KeyWrites::Many(run) => run.iter().map(|&x| (key, x)).collect(),
            };
            self.writes.iter().flat_map(slots).collect()
        }
    }

    /// A write to `key`.
    fn write(key: Key) -> Command {
        Command::put(crate::kv::CmdId { client: 0, seq: 1 }, key, Vec::new())
    }

    /// A migration command, which holds every answer back.
    fn migration() -> Command {
        let id = crate::kv::CmdId { client: 0, seq: 1 };
        let op = Op::ReleaseRange { version: 1 };
        Command { id, op }
    }

    /// The conflict index against plain ordered sets of `(key, slot)` and
    /// of migration slots, driven by one random script: inserts (repeats
    /// among them, and a hot key that takes a quarter of them, while the
    /// cold keys hold none, one or a few writes each), removes (of
    /// indexed pairs and of pairs never indexed, the returned `bool`
    /// compared), a few migration commands in and out, Mencius's range
    /// query over random ranges and PQL's highest holding slot.
    #[test]
    fn the_conflict_index_answers_what_an_ordered_set_answers() {
        const HOT: Key = 7;
        let mut rng = paxraft_sim::rng::SimRng::new(43);
        let mut index = ConflictIndex::default();
        let mut reference: BTreeSet<(Key, u64)> = BTreeSet::new();
        let mut migrations: BTreeSet<u64> = BTreeSet::new();
        let mut spilled = 0;
        let mut held_by_migration = 0;
        for step in 0..20_000 {
            let key = if rng.gen_bool(0.25) {
                HOT
            } else {
                100 + rng.gen_range(2_000)
            };
            let slot = 1 + rng.gen_range(300);
            let (key, slot) = match rng.gen_range(20) {
                // Again a pair already indexed, if there is one.
                0..=1 if !reference.is_empty() => *reference
                    .iter()
                    .nth(rng.gen_range(reference.len() as u64) as usize)
                    .expect("in range"),
                _ => (key, slot),
            };
            match rng.gen_range(40) {
                0..=13 => {
                    index.enter(Slot(slot), &write(key));
                    reference.insert((key, slot));
                }
                // An indexed pair, or a random one (mostly never indexed).
                14..=27 => {
                    let (key, slot) = match reference
                        .iter()
                        .nth(rng.gen_range(reference.len() as u64 + 1) as usize)
                    {
                        Some(&pair) if rng.gen_bool(0.7) => pair,
                        _ => (key, slot),
                    };
                    let was = reference.remove(&(key, slot));
                    let removed = index.leave(Slot(slot), &write(key));
                    assert_eq!(removed, was, "step {step}: remove ({key}, {slot})");
                }
                // A migration command in, or one (indexed or not) out:
                // few at a time, as a group runs one migration at once.
                28 => {
                    index.enter(Slot(slot), &migration());
                    migrations.insert(slot);
                }
                29..=30 => {
                    let slot = migrations.first().copied().unwrap_or(slot);
                    let was = migrations.remove(&slot);
                    assert_eq!(index.leave(Slot(slot), &migration()), was, "step {step}");
                }
                _ => {
                    let start = rng.gen_range(310);
                    let between = start..start + rng.gen_range(80);
                    let pairs = (key, between.start)..(key, between.end);
                    let clear = reference.range(pairs).next().is_none()
                        && migrations.range(between.clone()).next().is_none();
                    let answer = index.clear(between.clone(), Some(key));
                    assert_eq!(answer, clear, "step {step}: clear({between:?}, {key})");
                    let last_write = reference.range((key, 0)..=(key, u64::MAX)).next_back();
                    let last = last_write.map_or(0, |&(_, s)| s);
                    let last_migration = migrations.last().copied().unwrap_or(0);
                    held_by_migration += u64::from(last_migration > last);
                    let holding = Slot(last.max(last_migration));
                    assert_eq!(index.last_holding(key), holding, "step {step}: {key}");
                }
            }
            spilled += u64::from(matches!(index.writes.get(&HOT), Some(KeyWrites::Many(_))));
            if step % 64 == 0 {
                assert_eq!(index.indexed_writes(), reference, "step {step}");
                assert_eq!(index.migrations, migrations, "step {step}");
            }
        }
        assert_eq!(index.indexed_writes(), reference);
        assert!(spilled > 10_000, "the hot key held many writes: {spilled}");
        assert!(
            held_by_migration > 100,
            "a migration held {held_by_migration} reads"
        );
        // Removing everything empties the map: no key keeps an entry.
        for (key, slot) in std::mem::take(&mut reference) {
            assert!(index.leave(Slot(slot), &write(key)));
        }
        for slot in std::mem::take(&mut migrations) {
            assert!(index.leave(Slot(slot), &migration()));
        }
        assert!(index.writes.is_empty() && index.migrations.is_empty());
        assert_eq!(index.last_holding(HOT), Slot::NONE);
    }
}
