//! Latency metrics with the paper's reporting conventions.
//!
//! Section 5's per-figure latencies are the 90th percentile with error
//! bars from the 50th to the 99th percentile, over a trial whose warm-up
//! and cool-down windows are trimmed (the harness trims them before it
//! records here).

/// Collects latency samples (nanoseconds) and answers percentile queries.
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    samples_ns: Vec<u64>,
    sorted: bool,
}

impl LatencyRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        LatencyRecorder::default()
    }

    /// Records one latency sample in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        self.samples_ns.push(ns);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples_ns.len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples_ns.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples_ns.sort_unstable();
            self.sorted = true;
        }
    }

    /// The `p`-th percentile (0 < p ≤ 100) in milliseconds, using
    /// nearest-rank on the sorted samples. Returns `None` when empty.
    pub fn percentile_ms(&mut self, p: f64) -> Option<f64> {
        if self.samples_ns.is_empty() {
            return None;
        }
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        self.ensure_sorted();
        let n = self.samples_ns.len();
        let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
        Some(self.samples_ns[rank - 1] as f64 / 1e6)
    }

    /// The paper's latency triple: (p50, p90, p99) in milliseconds.
    pub fn paper_triple_ms(&mut self) -> Option<LatencyTriple> {
        Some(LatencyTriple {
            p50_ms: self.percentile_ms(50.0)?,
            p90_ms: self.percentile_ms(90.0)?,
            p99_ms: self.percentile_ms(99.0)?,
        })
    }
}

/// The 50/90/99th percentiles reported in Figures 9a/9b (bar = p90,
/// error bar = p50..p99).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyTriple {
    /// Median latency in milliseconds.
    pub p50_ms: f64,
    /// 90th-percentile latency in milliseconds (the plotted bar).
    pub p90_ms: f64,
    /// 99th-percentile latency in milliseconds.
    pub p99_ms: f64,
}

/// Tracks the running maximum of a sampled quantity (resource-usage
/// high-water marks: retained log entries, retained bytes, queue
/// depths). Observations are monotone-cheap so hot paths can call
/// [`PeakGauge::observe`] unconditionally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeakGauge {
    peak: u64,
}

impl PeakGauge {
    /// A gauge that has seen nothing (peak 0).
    pub fn new() -> Self {
        PeakGauge::default()
    }

    /// Records a sample; the peak only ever grows.
    pub fn observe(&mut self, value: u64) {
        if value > self.peak {
            self.peak = value;
        }
    }

    /// The largest value observed so far.
    pub fn peak(&self) -> u64 {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let mut r = LatencyRecorder::new();
        for ms in 1..=100u64 {
            r.record_ns(ms * 1_000_000);
        }
        assert_eq!(r.percentile_ms(50.0), Some(50.0));
        assert_eq!(r.percentile_ms(90.0), Some(90.0));
        assert_eq!(r.percentile_ms(99.0), Some(99.0));
        assert_eq!(r.percentile_ms(100.0), Some(100.0));
        assert_eq!(r.percentile_ms(1.0), Some(1.0));
    }

    #[test]
    fn empty_recorder_returns_none() {
        let mut r = LatencyRecorder::new();
        assert_eq!(r.percentile_ms(50.0), None);
        assert!(r.paper_triple_ms().is_none());
        assert!(r.is_empty());
    }

    #[test]
    fn paper_triple_is_ordered() {
        let mut r = LatencyRecorder::new();
        for i in 0..1000u64 {
            r.record_ns((i % 200 + 1) * 1_000_000);
        }
        let t = r.paper_triple_ms().unwrap();
        assert!(t.p50_ms <= t.p90_ms && t.p90_ms <= t.p99_ms);
    }

    #[test]
    fn peak_gauge_tracks_maximum() {
        let mut g = PeakGauge::new();
        assert_eq!(g.peak(), 0);
        g.observe(5);
        g.observe(3);
        assert_eq!(g.peak(), 5, "peak never shrinks");
        g.observe(9);
        assert_eq!(g.peak(), 9);
    }
}
