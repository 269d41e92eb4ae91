//! YCSB-like workload generation (Section 5, "Workload").
//!
//! The paper's clients are closed-loop: each client issues get/put requests
//! back-to-back. The key space holds 100K records. To create contention,
//! each operation targets a single popular record with a configured
//! probability (the *conflict rate*); otherwise the key space is
//! pre-partitioned evenly among datacenters and a key is drawn uniformly
//! from the client's own partition.

use paxraft_sim::rng::SimRng;

use crate::scenario::Hotspot;

/// The popular record all conflicting operations touch.
pub const HOT_KEY: u64 = 0;

/// Inclusive-exclusive key range of slice `idx` when keys `1..records`
/// are split contiguously into `parts` slices (key 0 is reserved for
/// the hot record; the last slice absorbs the remainder).
///
/// This is the single arithmetic behind both the per-region
/// [`WorkloadConfig::partition_range`] and the sharding subsystem's
/// per-group key ranges, so clients, replicas and the generator always
/// agree on who owns a key.
pub fn contiguous_split(records: u64, parts: usize, idx: usize) -> (u64, u64) {
    assert!(parts > 0, "at least one slice");
    assert!(idx < parts, "slice out of range");
    let usable = records - 1; // key 0 reserved for the hot record
    let per = usable / parts as u64;
    let start = 1 + idx as u64 * per;
    let end = if idx == parts - 1 {
        records
    } else {
        start + per
    };
    (start, end)
}

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// A `get` request.
    Read,
    /// A `put` request.
    Write,
}

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSpec {
    /// Read or write.
    pub kind: OpKind,
    /// Target record key.
    pub key: u64,
    /// Payload size in bytes for writes (the paper uses 8 B and 4 KB).
    pub value_size: usize,
}

/// Workload parameters matching Section 5.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Fraction of operations that are reads (paper: 0.5, 0.9, 0.99 for
    /// PQL; 0.0 for Mencius).
    pub read_fraction: f64,
    /// Probability an operation targets [`HOT_KEY`] (paper: 0–50%).
    pub conflict_rate: f64,
    /// Number of records the store is initialized with (paper: 100K).
    pub records: u64,
    /// Number of partitions the key space is split into (one per region).
    pub partitions: usize,
    /// Value size in bytes (paper: 8 B and 4 KB).
    pub value_size: usize,
    /// Optional moving hot window ([`Hotspot`]). `None` (the default)
    /// draws exactly as the stationary paper workload — same RNG
    /// stream, same keys.
    pub hotspot: Option<Hotspot>,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            read_fraction: 0.9,
            conflict_rate: 0.05,
            records: 100_000,
            partitions: 5,
            value_size: 8,
            hotspot: None,
        }
    }
}

impl WorkloadConfig {
    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.read_fraction) {
            return Err(format!(
                "read_fraction {} outside [0,1]",
                self.read_fraction
            ));
        }
        if !(0.0..=1.0).contains(&self.conflict_rate) {
            return Err(format!(
                "conflict_rate {} outside [0,1]",
                self.conflict_rate
            ));
        }
        if self.partitions == 0 {
            return Err("partitions must be positive".into());
        }
        if self.records < self.partitions as u64 {
            return Err(format!(
                "records {} fewer than partitions {}",
                self.records, self.partitions
            ));
        }
        if let Some(h) = &self.hotspot {
            h.validate()?;
        }
        Ok(())
    }

    /// Inclusive-exclusive key range of partition `p`.
    ///
    /// Key 0 is the hot key; partition ranges start at 1 so that
    /// non-conflicting traffic never touches the popular record.
    pub fn partition_range(&self, p: usize) -> (u64, u64) {
        contiguous_split(self.records, self.partitions, p)
    }
}

/// A per-client operation stream.
///
/// Each closed-loop client owns one generator seeded from the run seed and
/// its client id, so streams are independent and reproducible.
#[derive(Debug)]
pub struct Generator {
    config: WorkloadConfig,
    partition: usize,
    rng: SimRng,
}

impl Generator {
    /// Creates a generator for a client living in partition `partition`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`WorkloadConfig::validate`].
    pub fn new(config: WorkloadConfig, partition: usize, rng: SimRng) -> Self {
        config.validate().expect("invalid workload config");
        assert!(partition < config.partitions, "partition out of range");
        Generator {
            config,
            partition,
            rng,
        }
    }

    /// The workload configuration.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// Draws the next operation of the stationary workload (any
    /// hotspot is ignored).
    pub fn next_op(&mut self) -> OpSpec {
        self.draw(None, 0)
    }

    /// Draws the next operation at virtual time `now_ns`. Without a
    /// hotspot this is exactly [`Generator::next_op`] (same RNG
    /// stream); with one, an operation that misses the conflict-rate
    /// hot record lands in the hotspot's window with its weight.
    pub fn next_op_at(&mut self, now_ns: u64) -> OpSpec {
        let hotspot = self.config.hotspot;
        self.draw(hotspot.as_ref(), now_ns)
    }

    /// One draw: read/write, the conflict-rate hot record, the
    /// hotspot's weight, then one uniform key in the window or in the
    /// client's partition.
    fn draw(&mut self, hotspot: Option<&Hotspot>, now_ns: u64) -> OpSpec {
        let kind = if self.rng.gen_bool(self.config.read_fraction) {
            OpKind::Read
        } else {
            OpKind::Write
        };
        let key = if self.rng.gen_bool(self.config.conflict_rate) {
            HOT_KEY
        } else {
            let (lo, hi) = match hotspot {
                Some(h) if self.rng.gen_bool(h.weight) => h.window(now_ns, self.config.records),
                _ => self.config.partition_range(self.partition),
            };
            self.rng.gen_range_inclusive(lo, hi - 1)
        };
        OpSpec {
            kind,
            key,
            value_size: self.config.value_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen_with(read: f64, conflict: f64, partition: usize) -> Generator {
        let cfg = WorkloadConfig {
            read_fraction: read,
            conflict_rate: conflict,
            ..WorkloadConfig::default()
        };
        Generator::new(cfg, partition, SimRng::new(7))
    }

    #[test]
    fn read_fraction_respected() {
        let mut g = gen_with(0.9, 0.0, 0);
        let reads = (0..10_000)
            .filter(|_| g.next_op().kind == OpKind::Read)
            .count();
        assert!((8_800..9_200).contains(&reads), "got {reads}");
    }

    #[test]
    fn conflict_rate_targets_hot_key() {
        let mut g = gen_with(0.5, 0.3, 2);
        let hot = (0..10_000).filter(|_| g.next_op().key == HOT_KEY).count();
        assert!((2_700..3_300).contains(&hot), "got {hot}");
    }

    #[test]
    fn zero_conflict_never_touches_hot_key() {
        let mut g = gen_with(0.5, 0.0, 1);
        assert!((0..10_000).all(|_| g.next_op().key != HOT_KEY));
    }

    #[test]
    fn keys_stay_in_own_partition() {
        for p in 0..5 {
            let mut g = gen_with(0.5, 0.0, p);
            let (lo, hi) = g.config().partition_range(p);
            for _ in 0..2_000 {
                let k = g.next_op().key;
                assert!(
                    (lo..hi).contains(&k),
                    "key {k} outside [{lo},{hi}) for p{p}"
                );
            }
        }
    }

    #[test]
    fn partitions_cover_keyspace_disjointly() {
        let cfg = WorkloadConfig::default();
        let mut covered = 0u64;
        let mut prev_end = 1;
        for p in 0..cfg.partitions {
            let (lo, hi) = cfg.partition_range(p);
            assert_eq!(lo, prev_end, "partitions contiguous");
            assert!(hi > lo);
            covered += hi - lo;
            prev_end = hi;
        }
        assert_eq!(covered, cfg.records - 1, "all non-hot keys covered");
        assert_eq!(prev_end, cfg.records);
    }

    #[test]
    fn group_ranges_cover_keyspace_for_any_group_count() {
        let cfg = WorkloadConfig::default();
        for groups in [1usize, 2, 4, 8] {
            let mut prev_end = 1;
            for g in 0..groups {
                let (lo, hi) = contiguous_split(cfg.records, groups, g);
                assert_eq!(lo, prev_end, "{groups} groups: group {g} contiguous");
                prev_end = hi;
            }
            assert_eq!(prev_end, cfg.records, "{groups} groups cover all keys");
        }
        // One group over the whole space degenerates to "everything".
        assert_eq!(contiguous_split(cfg.records, 1, 0), (1, cfg.records));
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let bad = WorkloadConfig {
            read_fraction: 1.5,
            ..WorkloadConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = WorkloadConfig {
            conflict_rate: -0.1,
            ..WorkloadConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = WorkloadConfig {
            partitions: 0,
            ..WorkloadConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = WorkloadConfig {
            records: 2,
            partitions: 5,
            ..WorkloadConfig::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = gen_with(0.9, 0.05, 0);
        let mut b = gen_with(0.9, 0.05, 0);
        for _ in 0..100 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn next_op_at_without_scenario_matches_next_op_exactly() {
        let mut a = gen_with(0.9, 0.05, 0);
        let mut b = gen_with(0.9, 0.05, 0);
        for i in 0..200u64 {
            assert_eq!(a.next_op(), b.next_op_at(i * 1_000_000), "op {i}");
        }
    }

    #[test]
    fn scenario_hotspot_concentrates_and_drifts() {
        let cfg = WorkloadConfig {
            conflict_rate: 0.0,
            hotspot: Some(Hotspot::drifting(
                0.8,
                10_000,
                90_000,
                12_000,
                paxraft_sim::time::SimDuration::from_secs(10),
            )),
            ..WorkloadConfig::default()
        };
        let mut g = Generator::new(cfg, 0, SimRng::new(3));
        let hits_in = |g: &mut Generator, now_ns: u64, lo: u64, hi: u64| {
            (0..2_000)
                .filter(|_| (lo..hi).contains(&g.next_op_at(now_ns).key))
                .count()
        };
        // t=0: window centered at 10 000.
        let early = hits_in(&mut g, 0, 4_000, 16_000);
        assert!(early > 1_400, "hotspot weight 0.8 at t=0: {early}");
        // t=5 s: the window has drifted to ~50 000; the old window is
        // back to background-only traffic.
        let moved = hits_in(&mut g, 5_000_000_000, 44_000, 56_000);
        let stale = hits_in(&mut g, 5_000_000_000, 4_000, 16_000);
        assert!(moved > 1_400, "drifted window hot at t=5s: {moved}");
        assert!(stale < 500, "old window cooled off: {stale}");
    }

    /// Pins the hot-window draw order of `next_op_at` — read/write,
    /// conflict rate, hotspot weight, then one uniform key in the window
    /// or the partition — by folding 512 draws, 10 ms apart, per hotspot.
    #[test]
    fn hot_window_draw_order_is_pinned() {
        use crate::scenario::Drift;
        use paxraft_sim::time::SimDuration;
        let fold = |hotspot: Hotspot| {
            let cfg = WorkloadConfig {
                conflict_rate: 0.05,
                hotspot: Some(hotspot),
                ..WorkloadConfig::default()
            };
            let mut g = Generator::new(cfg, 1, SimRng::new(19));
            (0..512u64).fold(0xcbf2_9ce4_8422_2325u64, |h, i| {
                let op = g.next_op_at(i * 10_000_000);
                let word = op.key << 1 | u64::from(op.kind == OpKind::Write);
                (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let drifting = Hotspot::drifting(0.8, 10_000, 90_000, 12_000, SimDuration::from_secs(4));
        let oscillating =
            Hotspot::oscillating(0.7, 20_000, 80_000, 8_000, SimDuration::from_secs(2));
        let fixed = Hotspot {
            weight: 0.5,
            center: 50_000,
            width: 10_000,
            drift: Drift::Fixed,
        };
        assert_eq!(
            [fold(drifting), fold(oscillating), fold(fixed)],
            [
                4_047_320_443_350_677_354,
                1_375_138_554_771_312_952,
                16_983_542_843_256_163_834,
            ]
        );
    }

    #[test]
    fn value_size_passes_through() {
        let cfg = WorkloadConfig {
            value_size: 4096,
            ..WorkloadConfig::default()
        };
        let mut g = Generator::new(cfg, 0, SimRng::new(1));
        assert_eq!(g.next_op().value_size, 4096);
    }
}
