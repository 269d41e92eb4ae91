//! The key-range partition map shared by clients and replicas.

use std::rc::Rc;

use crate::kv::Key;
use crate::shard::migration::RouterVersion;
use paxraft_workload::generator::{contiguous_split, WorkloadConfig};

/// A **versioned** key-range partition of the record space over `groups`
/// replica groups.
///
/// The build-time split (version `0`) mirrors
/// [`WorkloadConfig::partition_range`]: key `0` (the hot record) belongs
/// to group `0`, keys `1..records` are divided into `groups` contiguous
/// ranges with the last group absorbing the remainder. Live rebalancing
/// then edits the map: each applied migration overwrites one segment's
/// owner ([`ShardRouter::apply_move`]) and bumps the version, so after a
/// split a group may own several disjoint segments.
///
/// Routers are cheap to clone and compare, so every client and every
/// replica can carry one: the two tables are shared (`Rc<[_]>`), so a
/// clone — the coordinator's `RouterUpdate` to each client — is two
/// reference counts, and only [`ShardRouter::apply_move`] builds a new
/// segment list. Two routers that applied the same moves agree
/// everywhere, and a *stale* router (an old version, or one built for a
/// different group count) is exactly what the versioned
/// [`crate::kv::Reply::WrongGroup`] redirect reconciles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRouter {
    records: u64,
    /// `starts[g]` is the first key of group `g`'s build-time range
    /// (group 0 also owns the hot key below `starts[0]`). Immutable;
    /// [`ShardRouter::range`] reports this layout.
    starts: Rc<[u64]>,
    /// Current ownership: `(start, group)` segments sorted by start,
    /// first start `0`, each covering up to the next start (the last up
    /// to `records`). Migrations replace this.
    segs: Rc<[(u64, u32)]>,
    /// Map version: `0` at build time, bumped by every applied move.
    version: RouterVersion,
}

impl ShardRouter {
    /// A router splitting `records` keys over `groups` groups.
    ///
    /// # Panics
    ///
    /// Panics when `groups` is zero or exceeds the non-hot key count.
    pub fn new(records: u64, groups: usize) -> Self {
        assert!(groups > 0, "at least one group");
        assert!(
            records > groups as u64,
            "records {records} must exceed groups {groups}"
        );
        // The generator's split arithmetic, so routing and key
        // generation can never drift apart.
        let starts: Rc<[u64]> = (0..groups)
            .map(|g| contiguous_split(records, groups, g).0)
            .collect();
        // Segment 0 starts at key 0 so the hot key rides with group 0's
        // build-time range.
        let mut segs = vec![(0u64, 0u32)];
        segs.extend(
            starts
                .iter()
                .enumerate()
                .skip(1)
                .map(|(g, &s)| (s, g as u32)),
        );
        ShardRouter {
            records,
            starts,
            segs: segs.into(),
            version: 0,
        }
    }

    /// A router matching a workload's key space.
    pub fn from_workload(w: &WorkloadConfig, groups: usize) -> Self {
        ShardRouter::new(w.records, groups)
    }

    /// Number of groups.
    pub fn groups(&self) -> usize {
        self.starts.len()
    }

    /// Size of the key space this router partitions.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The map version (`0` = the build-time split).
    pub fn version(&self) -> RouterVersion {
        self.version
    }

    /// The group owning `key` under the current (possibly migrated) map.
    pub fn group_of(&self, key: Key) -> u32 {
        match self.segs.partition_point(|&(s, _)| s <= key) {
            0 => self.segs[0].1,
            i => self.segs[i - 1].1,
        }
    }

    /// Inclusive-exclusive **build-time** key range of group `g` (the
    /// hot key rides in group 0 but is not part of any range). Current
    /// ownership after migrations is [`ShardRouter::group_of`] /
    /// [`ShardRouter::segments`].
    pub fn range(&self, g: usize) -> (u64, u64) {
        assert!(g < self.groups(), "group out of range");
        let end = self.starts.get(g + 1).copied().unwrap_or(self.records);
        (self.starts[g], end)
    }

    /// How many ownership segments the map holds ([`Self::segments`]'s
    /// length, without building them).
    pub fn segment_count(&self) -> usize {
        self.segs.len()
    }

    /// Current ownership segments `(start, end, group)`, in key order.
    pub fn segments(&self) -> Vec<(u64, u64, u32)> {
        self.segs
            .iter()
            .enumerate()
            .map(|(i, &(s, g))| {
                let end = self.segs.get(i + 1).map_or(self.records, |&(e, _)| e);
                (s, end, g)
            })
            .collect()
    }

    /// Applies one migration: `[lo, hi)` now belongs to `to_group`, and
    /// the map version becomes `version`. Idempotent for repeated
    /// applications of the same (or an older) version.
    ///
    /// # Panics
    ///
    /// Panics on an empty or out-of-bounds range or an unknown group.
    pub fn apply_move(&mut self, lo: Key, hi: Key, to_group: u32, version: RouterVersion) {
        assert!(lo < hi && hi <= self.records, "range [{lo}, {hi}) invalid");
        assert!((to_group as usize) < self.groups(), "unknown group");
        if version <= self.version {
            return; // already applied (or superseded)
        }
        // Rewrite the segment list: everything outside [lo, hi) keeps
        // its owner, the range becomes to_group's, adjacent same-owner
        // segments coalesce.
        let old = self.segments();
        let mut pieces: Vec<(u64, u64, u32)> = Vec::with_capacity(old.len() + 2);
        for (s, e, g) in old {
            if e <= lo || s >= hi {
                pieces.push((s, e, g));
                continue;
            }
            if s < lo {
                pieces.push((s, lo, g));
            }
            if e > hi {
                pieces.push((hi, e, g));
            }
        }
        pieces.push((lo, hi, to_group));
        pieces.sort_by_key(|&(s, _, _)| s);
        let mut segs: Vec<(u64, u32)> = Vec::with_capacity(pieces.len());
        for (s, _, g) in pieces {
            match segs.last() {
                Some(&(_, lg)) if lg == g => {} // coalesce
                _ => segs.push((s, g)),
            }
        }
        self.segs = segs.into();
        self.version = version;
    }
}

/// One replica's view of the partition map: which group it serves and
/// how keys map to groups. The redirect decision itself lives in
/// `EngineCore::misroute`, which combines this build-time view with the
/// replicated migration overrides — keep it the single implementation
/// so versioned redirects can never drift.
#[derive(Debug, Clone)]
pub struct ShardMembership {
    /// The group this replica belongs to.
    pub group: u32,
    /// The partition map.
    pub router: ShardRouter,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_group_owns_everything() {
        let r = ShardRouter::new(100_000, 1);
        assert_eq!(r.group_of(0), 0);
        assert_eq!(r.group_of(1), 0);
        assert_eq!(r.group_of(99_999), 0);
        assert_eq!(r.range(0), (1, 100_000));
    }

    #[test]
    fn ranges_are_contiguous_and_cover_the_keyspace() {
        for groups in [1usize, 2, 3, 4, 7] {
            let r = ShardRouter::new(100_000, groups);
            let mut expect = 1;
            for g in 0..groups {
                let (lo, hi) = r.range(g);
                assert_eq!(lo, expect, "{groups} groups: group {g} contiguous");
                assert!(hi > lo);
                expect = hi;
            }
            assert_eq!(expect, 100_000, "{groups} groups cover all keys");
        }
    }

    #[test]
    fn group_of_agrees_with_ranges() {
        let r = ShardRouter::new(1_000, 4);
        for g in 0..4 {
            let (lo, hi) = r.range(g);
            assert_eq!(r.group_of(lo), g as u32);
            assert_eq!(r.group_of(hi - 1), g as u32);
        }
        assert_eq!(r.group_of(0), 0, "hot key rides in group 0");
    }

    #[test]
    fn mirrors_workload_partition_arithmetic() {
        // With groups == partitions the router must reproduce the
        // generator's per-region split exactly.
        let w = WorkloadConfig::default();
        let r = ShardRouter::from_workload(&w, w.partitions);
        for p in 0..w.partitions {
            assert_eq!(r.range(p), w.partition_range(p), "partition {p}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one group")]
    fn zero_groups_rejected() {
        let _ = ShardRouter::new(100, 0);
    }

    #[test]
    fn apply_move_rewrites_ownership_and_bumps_version() {
        let mut r = ShardRouter::new(1_000, 2);
        let (lo1, _) = r.range(1);
        let (lo0, hi0) = r.range(0);
        assert_eq!(r.version(), 0);
        // Move the upper half of group 0's range to group 1.
        let mid = (lo0 + hi0) / 2;
        r.apply_move(mid, hi0, 1, 1);
        assert_eq!(r.version(), 1);
        assert_eq!(r.group_of(mid - 1), 0);
        assert_eq!(r.group_of(mid), 1);
        assert_eq!(r.group_of(hi0 - 1), 1);
        assert_eq!(r.group_of(lo1), 1, "group 1 keeps its own range");
        assert_eq!(r.group_of(0), 0, "hot key unmoved");
        // The moved range and group 1's build-time range coalesce.
        assert_eq!(r.segments(), vec![(0, mid, 0), (mid, 1_000, 1)]);
    }

    #[test]
    fn apply_move_is_idempotent_and_ignores_stale_versions() {
        let mut r = ShardRouter::new(1_000, 2);
        r.apply_move(100, 200, 1, 1);
        let snap = r.clone();
        r.apply_move(100, 200, 1, 1); // duplicate
        assert_eq!(r, snap);
        r.apply_move(100, 200, 0, 1); // stale version: ignored
        assert_eq!(r, snap);
    }

    #[test]
    fn hot_key_can_be_moved_explicitly() {
        let mut r = ShardRouter::new(1_000, 2);
        r.apply_move(0, 1, 1, 1);
        assert_eq!(r.group_of(0), 1, "hot-range move relocates key 0");
        assert_eq!(r.group_of(1), 0, "the rest of group 0 stays");
    }

    #[test]
    fn moved_routers_compare_by_applied_moves() {
        let mut a = ShardRouter::new(1_000, 2);
        let mut b = ShardRouter::new(1_000, 2);
        assert_eq!(a, b);
        a.apply_move(100, 200, 1, 1);
        assert_ne!(a, b);
        b.apply_move(100, 200, 1, 1);
        assert_eq!(a, b, "same moves, same map");
    }
}
