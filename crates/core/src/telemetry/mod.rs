//! Virtual-time telemetry: a metric registry sampled into time-series.
//!
//! End-of-run aggregates ([`crate::harness::RunReport`],
//! [`crate::shard::GroupStats`]) answer "how fast was this run"; the
//! ROADMAP's next steps (load-driven auto-rebalancing, shared-resource
//! node models) need *signals over time* — per-group throughput and
//! queue depths across a migration window, not just their averages.
//!
//! The pieces:
//!
//! - [`MetricSample`]: the named counters and gauges one replica
//!   registers at a sampling instant
//!   ([`crate::engine::ReplicaEngine::metric_sample`]); group samples
//!   are sums of replica samples.
//! - [`MetricRegistry`]: owns the sampling cadence and folds samples
//!   into named [`TimeSeries`] buffers — cumulative counters become
//!   per-second rates, gauges are recorded as-is.
//! - [`TelemetryConfig`]: cluster-level knob. The default is **off**,
//!   and the sampler is driven entirely from the harness *between*
//!   simulation steps, so enabling it never changes the event schedule
//!   or the RNG stream (the determinism tests in the conformance suite
//!   pin this bit-for-bit).
//! - [`spans`]: the causal command-tracing layer — per-command span
//!   trees assembled from the flight recorder's span log, with a
//!   latency breakdown whose stages sum exactly to the end-to-end
//!   latency and a critical-path analyzer over the aggregate.

pub mod spans;

pub use spans::{CommandBreakdown, SpanAssembler, SpanReport, Stage, StageTotals};

use std::collections::BTreeMap;

use paxraft_sim::time::{SimDuration, SimTime};

/// Virtual-time sampling interval of [`TelemetryConfig::sampled`].
pub const SAMPLE_EVERY: SimDuration = SimDuration::from_millis(100);

/// Flight-recorder ring capacity: the last 256 trace events. A cluster
/// records them exactly when sampling is on; a protocol test cluster
/// always does.
pub const TRACE_CAPACITY: usize = 256;

/// Cluster-level telemetry configuration
/// ([`crate::harness::ClusterBuilder::telemetry_config`]).
#[derive(Debug, Clone, Default)]
pub struct TelemetryConfig {
    /// The sampler and the flight recorder ([`TelemetryConfig::sampled`]).
    sampling: bool,
    /// Causal span tracing ([`spans`]); off by default. Observation
    /// only — enabling it never changes the event schedule.
    pub trace_spans: bool,
    /// Per-replica series (`replica{i}/…`) next to the per-group ones;
    /// off by default (straggler debugging multiplies series count).
    pub per_replica: bool,
}

impl TelemetryConfig {
    /// The standard enabled configuration: sample every [`SAMPLE_EVERY`]
    /// of virtual time, keep the last [`TRACE_CAPACITY`] trace events.
    pub fn sampled() -> Self {
        TelemetryConfig {
            sampling: true,
            ..TelemetryConfig::default()
        }
    }

    /// This configuration with causal span tracing on.
    pub fn with_spans(mut self) -> Self {
        self.trace_spans = true;
        self
    }

    /// This configuration with per-replica series on.
    pub fn with_per_replica(mut self) -> Self {
        self.per_replica = true;
        self
    }

    /// Whether the virtual-time sampler runs.
    pub fn sampling_enabled(&self) -> bool {
        self.sampling
    }
}

/// The named metric values one replica registers at one instant.
///
/// Names are static so registration stays allocation-light; counters
/// carry their cumulative value (the registry differences them into
/// rates), gauges carry the instantaneous value.
#[derive(Debug, Clone, Default)]
pub struct MetricSample {
    values: Vec<(&'static str, f64)>,
}

impl MetricSample {
    /// Registers one named value.
    pub fn record(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// The registered value, or 0.0 when the name was never recorded.
    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// All registered `(name, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.values.iter().copied()
    }

    /// Adds another sample's values into this one name-by-name (how a
    /// group sample aggregates its replicas' samples).
    pub fn merge_sum(&mut self, other: &MetricSample) {
        for (name, v) in &other.values {
            match self.values.iter_mut().find(|(n, _)| n == name) {
                Some((_, acc)) => *acc += v,
                None => self.values.push((name, *v)),
            }
        }
    }
}

/// One named metric's samples over virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    /// Series name, e.g. `"group0/throughput_ops"`.
    pub name: String,
    /// `(virtual time, value)` samples in time order.
    pub points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Appends one sample.
    pub fn push(&mut self, at: SimTime, value: f64) {
        self.points.push((at, value));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Mean of the samples falling in `[from, to)`, or `None` when the
    /// window holds no samples — how the migration-window dip is
    /// compared against aggregate phase throughput.
    pub fn window_mean(&self, from: SimTime, to: SimTime) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0u64;
        for &(at, v) in &self.points {
            if at >= from && at < to {
                sum += v;
                n += 1;
            }
        }
        (n > 0).then(|| sum / n as f64)
    }
}

/// Folds per-instant [`MetricSample`]s into named [`TimeSeries`]
/// buffers at a fixed virtual-time cadence.
///
/// The registry never touches the simulation: the harness advances the
/// clock to [`MetricRegistry::next_due`], reads replica state, records
/// here, and repeats. Disabled registries record nothing.
#[derive(Debug, Default)]
pub struct MetricRegistry {
    enabled: bool,
    next_due: SimTime,
    series: BTreeMap<String, TimeSeries>,
    last: BTreeMap<String, f64>,
}

impl MetricRegistry {
    /// A registry sampling every [`SAMPLE_EVERY`] (disabled when the
    /// config disables sampling).
    pub fn new(cfg: &TelemetryConfig) -> Self {
        MetricRegistry {
            enabled: cfg.sampling,
            next_due: SimTime::ZERO + SAMPLE_EVERY,
            series: BTreeMap::new(),
            last: BTreeMap::new(),
        }
    }

    /// Whether the sampler runs.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The next virtual time a sample is due.
    pub fn next_due(&self) -> SimTime {
        self.next_due
    }

    /// Skips sample points that fell before `now` (time the harness
    /// advanced outside a sampled window, e.g. during elections).
    pub fn fast_forward(&mut self, now: SimTime) {
        while self.next_due < now {
            self.next_due += SAMPLE_EVERY;
        }
    }

    /// Schedules the next sample one interval later.
    pub fn advance(&mut self) {
        self.next_due += SAMPLE_EVERY;
    }

    /// Records a gauge sample (instantaneous value).
    pub fn gauge(&mut self, at: SimTime, name: &str, value: f64) {
        self.series
            .entry(name.to_string())
            .or_insert_with(|| TimeSeries::new(name))
            .push(at, value);
    }

    /// Records a cumulative counter sample as a per-second **rate**
    /// against the previous sample of the same name. Negative deltas
    /// (a counter reset by a crash-restart) clamp to zero.
    pub fn counter_rate(&mut self, at: SimTime, name: &str, cumulative: f64) {
        let prev = self.last.insert(name.to_string(), cumulative);
        let delta = (cumulative - prev.unwrap_or(0.0)).max(0.0);
        let rate = delta / (SAMPLE_EVERY.as_nanos() as f64 / 1e9);
        self.series
            .entry(name.to_string())
            .or_insert_with(|| TimeSeries::new(name))
            .push(at, rate);
    }

    /// The collected series, name order.
    pub fn series(&self) -> impl Iterator<Item = &TimeSeries> {
        self.series.values()
    }

    /// A clone of the collected series (what a
    /// [`crate::harness::RunReport`] carries out of a measurement).
    pub fn snapshot(&self) -> Vec<TimeSeries> {
        self.series.values().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_registers_and_merges_by_name() {
        let mut a = MetricSample::default();
        a.record("responses", 10.0);
        a.record("pending_depth", 2.0);
        let mut b = MetricSample::default();
        b.record("responses", 5.0);
        b.record("nic_backlog_ms", 1.5);
        a.merge_sum(&b);
        assert_eq!(a.get("responses"), 15.0);
        assert_eq!(a.get("pending_depth"), 2.0);
        assert_eq!(a.get("nic_backlog_ms"), 1.5);
        assert_eq!(a.get("missing"), 0.0);
    }

    #[test]
    fn registry_cadence_and_fast_forward() {
        let cfg = TelemetryConfig::sampled();
        let mut r = MetricRegistry::new(&cfg);
        assert!(r.enabled());
        assert_eq!(r.next_due(), SimTime::from_millis(100));
        r.advance();
        assert_eq!(r.next_due(), SimTime::from_millis(200));
        r.fast_forward(SimTime::from_millis(1_450));
        assert_eq!(r.next_due(), SimTime::from_millis(1_500));
        // Already at/after now: unchanged.
        r.fast_forward(SimTime::from_millis(1_500));
        assert_eq!(r.next_due(), SimTime::from_millis(1_500));
    }

    #[test]
    fn counter_rate_differences_and_clamps_resets() {
        let cfg = TelemetryConfig::sampled(); // 100 ms interval
        let mut r = MetricRegistry::new(&cfg);
        r.counter_rate(SimTime::from_millis(100), "g0/throughput_ops", 10.0);
        r.counter_rate(SimTime::from_millis(200), "g0/throughput_ops", 25.0);
        // Crash reset the counter: clamp, don't go negative.
        r.counter_rate(SimTime::from_millis(300), "g0/throughput_ops", 5.0);
        let s = r.series().next().unwrap();
        assert_eq!(s.name, "g0/throughput_ops");
        // First sample rates against an implicit 0.
        assert_eq!(s.points[0].1, 100.0);
        assert_eq!(s.points[1].1, 150.0);
        assert_eq!(s.points[2].1, 0.0);
    }

    #[test]
    fn gauge_records_as_is_and_window_mean_selects() {
        let cfg = TelemetryConfig::sampled();
        let mut r = MetricRegistry::new(&cfg);
        for (ms, v) in [(100u64, 4.0), (200, 6.0), (300, 100.0)] {
            r.gauge(SimTime::from_millis(ms), "g1/pending_depth", v);
        }
        let s = r.snapshot().pop().unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(
            s.window_mean(SimTime::from_millis(100), SimTime::from_millis(300)),
            Some(5.0)
        );
        assert_eq!(
            s.window_mean(SimTime::from_millis(400), SimTime::from_millis(500)),
            None
        );
    }

    #[test]
    fn disabled_config_disables_registry() {
        let r = MetricRegistry::new(&TelemetryConfig::default());
        assert!(!r.enabled());
        assert!(!TelemetryConfig::default().sampling_enabled());
        assert!(TelemetryConfig::sampled().sampling_enabled());
    }
}
