//! Load-driven auto-rebalancing: the closed-loop placement policy.
//!
//! ROADMAP item 1's control plane. The policy turns the scripted
//! [`crate::shard::RebalanceCoordinator`] into a closed-loop controller:
//! it watches the live per-group telemetry the harness samples between
//! sim steps, estimates per-range load from the apply-path **load
//! sketch** (below), and enqueues migrations on the coordinator, one at
//! a time: it picks a move only while the coordinator is idle.
//!
//! ## The load sketch
//!
//! Per-range load cannot be exported as a `(range, count)` top-K list:
//! [`crate::telemetry::MetricSample`] names are `&'static str` and group
//! samples merge by summation across replicas, which would corrupt
//! positional top-K entries. Instead every sharded replica counts
//! proposer-side applies into [`SKETCH_BUCKETS`] **fixed key-space
//! buckets** (`load_b00`..`load_b31`), pure bookkeeping on the apply
//! path (no sends, no timers, no RNG — schedule-invariant). Summing the
//! cumulative counters across all groups counts each operation once, at
//! the group that served it; the policy differences consecutive samples
//! into per-bucket rates itself and reads the hot ranges straight off
//! the sketch. Splits and merges fall out of bucket-granular moves: a
//! sub-range move splits a segment, and [`ShardRouter::apply_move`]
//! coalesces adjacent same-owner segments back together.
//!
//! ## Why it cannot ping-pong
//!
//! Three guards make oscillation impossible rather than just unlikely:
//!
//! 1. **Band preservation** — a bucket moves from hottest group `s` to
//!    coolest group `d` only when its rate
//!    `x ≤ (r·load(s) − load(d)) / (1 + r)` for the hysteresis ratio
//!    `r`, i.e. exactly when `load(d) + x ≤ r · (load(s) − x)`: after
//!    the move the receiver exceeds the donor by at most the hysteresis
//!    band, so the reverse trigger cannot fire from the move itself. A
//!    single range carrying more than that is *correctly immovable* —
//!    swapping it would just relabel the hot group. A candidate must
//!    also carry at least [`MIN_WORTH_FRACTION`] of the load gap, so the
//!    policy never spends a migration window on noise-level ranges.
//! 2. **Hysteresis** — the imbalance must exceed [`IMBALANCE_RATIO`]
//!    for [`PERSIST_TICKS`] consecutive evaluations before the policy
//!    acts, so a transient spike (or the migration window's own
//!    throughput dip) does not trigger moves.
//! 3. **Cooldown and dwell** — after issuing a move the policy is quiet
//!    for [`COOLDOWN`], and a just-moved bucket is banned from moving
//!    again for [`DWELL`], so even
//!    an adversarial hotspot that jumps between groups faster than the
//!    control loop converges produces a bounded migration count.

use paxraft_sim::time::{SimDuration, SimTime};

use crate::kv::Key;
use crate::shard::ShardRouter;

/// Number of fixed key-space buckets in the apply-path load sketch.
pub const SKETCH_BUCKETS: usize = 32;

/// Fraction of the hottest-to-coolest load gap a candidate range must
/// carry for a migration to be worth its window — below this the move
/// barely dents the imbalance and the policy holds the range in place.
pub const MIN_WORTH_FRACTION: f64 = 0.1;

/// Static metric-sample names for the sketch buckets
/// (`&'static str` is required by [`crate::telemetry::MetricSample`]).
pub const SKETCH_NAMES: [&str; SKETCH_BUCKETS] = [
    "load_b00", "load_b01", "load_b02", "load_b03", "load_b04", "load_b05", "load_b06", "load_b07",
    "load_b08", "load_b09", "load_b10", "load_b11", "load_b12", "load_b13", "load_b14", "load_b15",
    "load_b16", "load_b17", "load_b18", "load_b19", "load_b20", "load_b21", "load_b22", "load_b23",
    "load_b24", "load_b25", "load_b26", "load_b27", "load_b28", "load_b29", "load_b30", "load_b31",
];

/// Key width of one sketch bucket for a `records`-key space.
pub fn bucket_width(records: u64) -> u64 {
    records.div_ceil(SKETCH_BUCKETS as u64).max(1)
}

/// The bucket a key counts into. Total sketch coverage is exact: every
/// key in `[0, records)` lands in exactly one bucket.
pub fn bucket_of(records: u64, key: Key) -> usize {
    ((key / bucket_width(records)) as usize).min(SKETCH_BUCKETS - 1)
}

/// The key range `[lo, hi)` bucket `b` covers (clamped to `records`;
/// empty for trailing buckets of a small key space).
pub fn bucket_range(records: u64, b: usize) -> (Key, Key) {
    let w = bucket_width(records);
    let lo = (b as u64) * w;
    let hi = ((b as u64 + 1) * w).min(records);
    (lo.min(records), hi)
}

// The policy's tuned settings: evaluate every 500 ms, act on a sustained
// 1.5× imbalance, one move per decision, 2 s cooldown, 5 s per-bucket
// dwell. The smoothing (`EWMA_ALPHA` 0.2 at the 100 ms sampling cadence,
// three consecutive over-threshold evaluations) is sized for closed-loop
// traffic of ~100 ops/s, where a bucket sees ~1 op per sample and raw
// rates are nearly all Poisson noise — twitchier settings chase that
// noise into spurious reverse moves.

/// Decision cadence. Samples still feed the rate estimator between
/// decisions.
pub const CHECK_EVERY: SimDuration = SimDuration::from_millis(500);
/// Hysteresis high-water: act only when the hottest group's load exceeds
/// `IMBALANCE_RATIO ×` the coolest group's.
pub const IMBALANCE_RATIO: f64 = 1.5;
/// Aggregate ops/s below which the policy holds off (an idle cluster has
/// nothing worth moving).
pub const MIN_TOTAL_RATE: f64 = 50.0;
/// Consecutive over-threshold evaluations required before acting.
pub const PERSIST_TICKS: u32 = 3;
/// Quiet period after issuing a migration.
pub const COOLDOWN: SimDuration = SimDuration::from_secs(2);
/// Per-bucket re-move ban after a move.
pub const DWELL: SimDuration = SimDuration::from_secs(5);
/// EWMA smoothing factor for bucket rates (weight of the newest sample,
/// in `(0, 1]`).
pub const EWMA_ALPHA: f64 = 0.2;

/// One migration the policy decided on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BalanceDecision {
    /// First key of the range to move.
    pub lo: Key,
    /// One past the last key.
    pub hi: Key,
    /// The donating (hottest) group.
    pub from_group: u32,
    /// The receiving (coolest) group.
    pub to_group: u32,
}

/// The policy state machine
/// ([`crate::harness::ClusterBuilder::autobalance`]). Lives harness-side
/// (like the telemetry sampler): the sharded cluster feeds it one
/// [`observe`] call per sampling tick, strictly between sim steps, and
/// forwards its decision to the coordinator — deterministic by
/// construction.
///
/// [`observe`]: AutoBalancePolicy::observe
#[derive(Debug)]
pub struct AutoBalancePolicy {
    /// Last cumulative per-bucket counts (for differencing).
    last_counts: Vec<f64>,
    last_at: SimTime,
    /// Smoothed per-bucket rates (ops/s).
    ewma: Vec<f64>,
    next_eval: SimTime,
    hot_streak: u32,
    cooldown_until: SimTime,
    dwell_until: Vec<SimTime>,
    /// Every decision made, with its decision time — the fixed-seed
    /// determinism pin compares these across runs.
    pub decisions: Vec<(SimTime, BalanceDecision)>,
}

impl Default for AutoBalancePolicy {
    /// A fresh policy.
    fn default() -> Self {
        AutoBalancePolicy {
            last_counts: vec![0.0; SKETCH_BUCKETS],
            last_at: SimTime::ZERO,
            ewma: vec![0.0; SKETCH_BUCKETS],
            next_eval: SimTime::ZERO + CHECK_EVERY,
            hot_streak: 0,
            cooldown_until: SimTime::ZERO,
            dwell_until: vec![SimTime::ZERO; SKETCH_BUCKETS],
            decisions: Vec::new(),
        }
    }
}

impl AutoBalancePolicy {
    /// Feeds one sampling tick and returns the migration to issue, if
    /// any.
    ///
    /// `bucket_counts` are the cluster-wide cumulative sketch counters
    /// (summed over every group's sample, so each op is counted once at
    /// the group that served it). `router` is the coordinator's
    /// published map. `busy` says the coordinator has a migration in
    /// flight or queued: the rates and the hysteresis streak keep
    /// counting, but no move is picked, so the first idle evaluation
    /// after a long move can act at once.
    pub fn observe(
        &mut self,
        now: SimTime,
        bucket_counts: &[f64],
        router: &ShardRouter,
        busy: bool,
    ) -> Option<BalanceDecision> {
        // Difference the cumulative counters into smoothed rates. A
        // negative delta (the counting proposer crashed) clamps to 0,
        // mirroring the registry's counter_rate.
        let dt = now.since(self.last_at.min(now)).as_secs_f64();
        if dt <= 0.0 {
            return None;
        }
        for b in 0..SKETCH_BUCKETS {
            let count = bucket_counts.get(b).copied().unwrap_or(0.0);
            let rate = ((count - self.last_counts[b]) / dt).max(0.0);
            self.ewma[b] = EWMA_ALPHA * rate + (1.0 - EWMA_ALPHA) * self.ewma[b];
            self.last_counts[b] = count;
        }
        self.last_at = now;
        if now < self.next_eval {
            return None;
        }
        while self.next_eval <= now {
            self.next_eval += CHECK_EVERY;
        }
        if now < self.cooldown_until {
            return None;
        }
        let loads = self.group_loads(router);
        let total: f64 = loads.iter().sum();
        let (s, d) = hottest_coolest(&loads);
        if total < MIN_TOTAL_RATE || loads[s] <= IMBALANCE_RATIO * loads[d] + f64::EPSILON {
            self.hot_streak = 0;
            return None;
        }
        self.hot_streak += 1;
        if self.hot_streak < PERSIST_TICKS || busy {
            return None;
        }
        // Act: move the hottest movable bucket from the hottest to the
        // coolest group. Band preservation (module docs): after moving
        // rate `x`, `loads[d] + x ≤ r·(loads[s] − x)` must still hold,
        // so the reverse trigger cannot fire. And the move must carry a
        // meaningful share of the gap to be worth its window.
        let records = router.records();
        let r = IMBALANCE_RATIO.max(1.0);
        let headroom = (r * loads[s] - loads[d]) / (1.0 + r);
        let worth = MIN_WORTH_FRACTION * (loads[s] - loads[d]);
        let mut best: Option<(f64, usize, Key, Key)> = None;
        for (seg_lo, seg_hi, owner) in router.segments() {
            if owner as usize != s {
                continue;
            }
            for b in 0..SKETCH_BUCKETS {
                let (b_lo, b_hi) = bucket_range(records, b);
                let lo = b_lo.max(seg_lo);
                let hi = b_hi.min(seg_hi);
                if lo >= hi || now < self.dwell_until[b] {
                    continue;
                }
                // The candidate's rate, pro-rated when the segment
                // clips the bucket.
                let frac = (hi - lo) as f64 / (b_hi - b_lo).max(1) as f64;
                let rate = self.ewma[b] * frac;
                if rate <= 0.0 || rate < worth || rate > headroom {
                    continue;
                }
                if best.as_ref().is_none_or(|(r, ..)| rate > *r) {
                    best = Some((rate, b, lo, hi));
                }
            }
        }
        let (_, b, lo, hi) = best?;
        let decision = BalanceDecision {
            lo,
            hi,
            from_group: s as u32,
            to_group: d as u32,
        };
        self.dwell_until[b] = now + DWELL;
        self.cooldown_until = now + COOLDOWN;
        self.hot_streak = 0;
        self.decisions.push((now, decision));
        Some(decision)
    }

    /// Per-group load under `router` ownership: each bucket's smoothed
    /// rate is attributed to the owning group(s), pro-rated where a
    /// segment boundary splits a bucket.
    fn group_loads(&self, router: &ShardRouter) -> Vec<f64> {
        let records = router.records();
        let mut loads = vec![0.0; router.groups()];
        for (seg_lo, seg_hi, owner) in router.segments() {
            for b in 0..SKETCH_BUCKETS {
                let (b_lo, b_hi) = bucket_range(records, b);
                let lo = b_lo.max(seg_lo);
                let hi = b_hi.min(seg_hi);
                if lo >= hi {
                    continue;
                }
                let frac = (hi - lo) as f64 / (b_hi - b_lo).max(1) as f64;
                loads[owner as usize] += self.ewma[b] * frac;
            }
        }
        loads
    }
}

/// Indices of the most- and least-loaded groups (ties break low).
fn hottest_coolest(loads: &[f64]) -> (usize, usize) {
    let mut s = 0;
    let mut d = 0;
    for (g, &l) in loads.iter().enumerate() {
        if l > loads[s] {
            s = g;
        }
        if l < loads[d] {
            d = g;
        }
    }
    (s, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RECORDS: u64 = 100_000;

    fn tick(
        policy: &mut AutoBalancePolicy,
        at_ms: u64,
        counts: &[f64],
        router: &ShardRouter,
    ) -> Option<BalanceDecision> {
        policy.observe(SimTime::from_millis(at_ms), counts, router, false)
    }

    /// Cumulative counts growing at `rates[b]` ops/s, sampled at `t`.
    fn counts_at(rates: &[f64; SKETCH_BUCKETS], t_secs: f64) -> Vec<f64> {
        rates.iter().map(|r| r * t_secs).collect()
    }

    #[test]
    fn buckets_tile_the_keyspace_exactly() {
        for records in [100_000u64, 1_000, 97, 33] {
            let mut covered = 0u64;
            for b in 0..SKETCH_BUCKETS {
                let (lo, hi) = bucket_range(records, b);
                assert_eq!(lo, covered.min(records), "records={records} bucket {b}");
                assert!(hi >= lo);
                covered = hi;
                for k in [lo, hi.saturating_sub(1)] {
                    if k >= lo && k < hi {
                        assert_eq!(bucket_of(records, k), b, "records={records} key {k}");
                    }
                }
            }
            assert_eq!(covered, records, "records={records}: full coverage");
        }
    }

    /// A sustained hot range on group 0 produces moves of the hottest
    /// buckets to group 1 — after the hysteresis streak, not before.
    #[test]
    fn sustained_imbalance_moves_hot_buckets_to_the_cool_group() {
        let planned = ShardRouter::new(RECORDS, 2);
        let mut policy = AutoBalancePolicy::default();
        // Buckets 2..6 hot (group 0 owns 0..16), background elsewhere.
        let mut rates = [10.0f64; SKETCH_BUCKETS];
        for b in 2..6 {
            rates[b] = 500.0;
        }
        let mut all = Vec::new();
        // 100 ms sampling; decisions every 500 ms; PERSIST_TICKS 3.
        for i in 1..=15u64 {
            let t = i * 100;
            let d = tick(&mut policy, t, &counts_at(&rates, t as f64 / 1e3), &planned);
            if d.is_some() {
                assert!(t >= 1_000, "hysteresis: no move before two evaluations");
            }
            all.extend(d);
        }
        assert!(!all.is_empty(), "policy acted on the sustained imbalance");
        for d in &all {
            assert_eq!(d.from_group, 0, "hot group donates");
            assert_eq!(d.to_group, 1, "cool group receives");
            assert_eq!(
                bucket_of(RECORDS, d.lo),
                bucket_of(RECORDS, d.hi - 1),
                "moves are bucket-granular"
            );
            let b = bucket_of(RECORDS, d.lo);
            assert!((2..6).contains(&b), "a hot bucket moved, got {b}");
        }
    }

    /// The band-preservation rule: a single bucket carrying more load
    /// than the headroom is never moved — swapping it would just
    /// relabel the hot group and ping-pong forever. And the noise-level
    /// background buckets stay put too (below [`MIN_WORTH_FRACTION`]).
    #[test]
    fn indivisible_hotspot_is_never_moved() {
        let planned = ShardRouter::new(RECORDS, 2);
        let mut policy = AutoBalancePolicy::default();
        let mut rates = [5.0f64; SKETCH_BUCKETS];
        rates[3] = 2_000.0; // one ultra-hot bucket on group 0
        for i in 1..=40u64 {
            let t = i * 100;
            let d = tick(&mut policy, t, &counts_at(&rates, t as f64 / 1e3), &planned);
            assert!(
                d.is_none(),
                "an indivisible hotspot must not move (tick {i}: {d:?})"
            );
        }
    }

    /// After the policy balances the load, the reverse trigger never
    /// fires: re-observing the post-move world yields no decisions.
    #[test]
    fn balanced_state_is_a_fixed_point() {
        let mut planned = ShardRouter::new(RECORDS, 2);
        let mut policy = AutoBalancePolicy::default();
        let mut rates = [10.0f64; SKETCH_BUCKETS];
        for b in 2..6 {
            rates[b] = 500.0;
        }
        let mut version = 0;
        let mut moves = 0usize;
        for i in 1..=200u64 {
            let t = i * 100;
            let d = tick(&mut policy, t, &counts_at(&rates, t as f64 / 1e3), &planned);
            if let Some(d) = d {
                moves += 1;
                version += 1;
                planned.apply_move(d.lo, d.hi, d.to_group, version);
            }
        }
        assert!(moves >= 2, "the imbalance was acted on ({moves} moves)");
        assert!(
            moves <= 4,
            "converged instead of ping-ponging ({moves} moves)"
        );
        // The final map must be (near) balanced and stable: a long
        // quiet tail with no further decisions.
        let loads = policy.group_loads(&planned);
        let (s, d) = hottest_coolest(&loads);
        assert!(
            loads[s] <= IMBALANCE_RATIO * loads[d] + 1.0,
            "converged loads within the hysteresis band: {loads:?}"
        );
    }

    /// Cooldown: two eligible decision points inside one cooldown
    /// window produce only one move.
    #[test]
    fn cooldown_spaces_out_batches() {
        let planned = ShardRouter::new(RECORDS, 2);
        let mut policy = AutoBalancePolicy::default();
        let mut rates = [10.0f64; SKETCH_BUCKETS];
        for b in 2..10 {
            rates[b] = 400.0;
        }
        let mut move_times = Vec::new();
        for i in 1..=100u64 {
            let t = i * 100;
            let d = tick(&mut policy, t, &counts_at(&rates, t as f64 / 1e3), &planned);
            if d.is_some() {
                move_times.push(t);
            }
        }
        assert!(move_times.len() >= 2, "several moves over 10 s");
        for w in move_times.windows(2) {
            assert!(
                w[1] - w[0] >= 2_000,
                "cooldown of 2 s respected: {move_times:?}"
            );
        }
    }

    /// A busy coordinator gets no decision, but the policy keeps
    /// watching: the rates and the hysteresis streak count on while a
    /// move runs, so the first idle evaluation after the cooldown acts
    /// at once instead of waiting out a fresh streak.
    #[test]
    fn a_busy_coordinator_gets_no_decision() {
        let mut router = ShardRouter::new(RECORDS, 2);
        let mut policy = AutoBalancePolicy::default();
        // Fed the same samples, never told the coordinator is busy.
        let mut control = AutoBalancePolicy::default();
        let mut rates = [10.0f64; SKETCH_BUCKETS];
        for b in 2..10 {
            rates[b] = 400.0;
        }
        let counts = |t: u64| counts_at(&rates, t as f64 / 1e3);
        // Idle until the first move (three evaluations of hysteresis).
        let first = (1..=15u64)
            .find_map(|i| tick(&mut policy, i * 100, &counts(i * 100), &router))
            .expect("the policy acts on the sustained imbalance");
        assert_eq!(policy.decisions[0].0, SimTime::from_millis(1_500));
        for i in 1..=15u64 {
            tick(&mut control, i * 100, &counts(i * 100), &router);
        }
        // The move runs until 5 s, past the 2 s cooldown (3.5 s).
        for i in 16..=50u64 {
            let t = SimTime::from_millis(i * 100);
            let d = policy.observe(t, &counts(i * 100), &router, true);
            assert_eq!(d, None, "busy at {t}: no decision");
            control.observe(t, &counts(i * 100), &router, false);
        }
        assert_eq!(policy.ewma, control.ewma, "the rates kept counting");
        assert!(
            policy.hot_streak >= PERSIST_TICKS,
            "the streak kept counting ({})",
            policy.hot_streak
        );
        // The move is published; the next evaluation (5.5 s) is idle.
        router.apply_move(first.lo, first.hi, first.to_group, 1);
        let next = (51..=55u64)
            .find_map(|i| tick(&mut policy, i * 100, &counts(i * 100), &router))
            .expect("the first idle evaluation acts");
        assert_eq!(
            policy.decisions.last().map(|(t, _)| *t),
            Some(SimTime::from_millis(5_500)),
            "no new hysteresis wait ({next:?})"
        );
        assert_eq!((next.from_group, next.to_group), (0, 1));
    }
}
