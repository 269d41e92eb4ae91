//! From cell runs to the ledger's numbers: the metric tables (names,
//! units, direction, regression bounds), the aggregation of cells and
//! repetitions into one value per metric, and the text and JSON forms.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use paxraft_core::telemetry::Stage;

use crate::cell::{CellRun, CellSpec, Check, Load};
use crate::json::{num, quote};
use crate::measure::{geo_mean, iqr_share, median, normalise, percentile_ms};
use crate::workloads::{Workload, NAMES};

/// A metric's fixed description.
#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: &'static str, bound: Option<f64>) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound,
    }
}

/// The ten end-to-end metrics, reported per workload; the README defines
/// each. One bound per metric has to serve all four workloads *and* a
/// comparison of runs with different seeds, so each bound is about three
/// times the widest seed-to-seed spread measured on any workload (the
/// README has the table), capped at the 25 % a benchmark may ask for. The
/// virtual metrics repeat exactly for one seed, so a same-seed `ledger
/// diff` does not use these bounds for them (`diff::SAME_SEED`).
pub fn end_to_end_defs() -> Vec<MetricDef> {
    vec![
        def("goodput_ops", "ops/s", "higher", Some(0.04)),
        def("commit_p50_ms", "ms", "lower", Some(0.09)),
        def("commit_p99_ms", "ms", "lower", Some(0.18)),
        def("on_time_share", "ratio", "higher", Some(0.03)),
        def("max_stall_ms", "ms", "lower", Some(0.25)),
        def("events_per_op", "count", "lower", Some(0.08)),
        def("allocs_per_op", "count", "lower", Some(0.08)),
        def("peak_heap_mb", "MB", "lower", Some(0.10)),
        def("host_s_norm", "s", "lower", Some(0.25)),
        def("setup_s", "s", "lower", Some(0.25)),
    ]
}

/// Every cell name any workload uses.
pub const CELL_NAMES: [&str; 7] = [
    "raft",
    "raftstar",
    "multipaxos",
    "mencius",
    "pql",
    "raft-4k",
    "raft-gc",
];

/// The per-layer metrics. A layer that does not run on a workload
/// reports 0 there.
pub fn per_layer_defs() -> Vec<MetricDef> {
    let mut d = Vec::new();
    for cell in CELL_NAMES {
        for (metric, unit, better) in [
            ("goodput_ops", "ops/s", "higher"),
            ("commit_p50_ms", "ms", "lower"),
            ("commit_p99_ms", "ms", "lower"),
            ("events_per_op", "count", "lower"),
            ("host_us_per_op", "us", "lower"),
            ("host_ns_per_event", "ns", "lower"),
        ] {
            d.push(def(&format!("{cell}.{metric}"), unit, better, None));
        }
    }
    for (name, unit, better) in [
        ("sim.events", "count", "lower"),
        ("sim.timer_share", "ratio", "lower"),
        ("sim.lost", "count", "lower"),
        ("sim.ns_per_event", "ns", "lower"),
        ("sim.ns_per_timer", "ns", "lower"),
        ("sim.net.msgs_per_op", "count", "lower"),
        ("sim.net.bytes_per_op", "B", "lower"),
        ("sim.net.dropped", "count", "lower"),
        ("sim.disk.fsyncs_per_op", "count", "lower"),
        ("sim.disk.bytes_per_op", "B", "lower"),
        ("log.append_ns", "ns", "lower"),
        ("log.suffix64_ns", "ns", "lower"),
        ("log.set_bal_100k_us", "us", "lower"),
        ("log.peak_entries", "count", "lower"),
        ("kv.apply_ns", "ns", "lower"),
        ("kv.snapshot_100k_ms", "ms", "lower"),
        ("kv.restore_100k_ms", "ms", "lower"),
        ("snapshot.compactions", "count", "higher"),
        ("snapshot.installs", "count", "lower"),
        ("snapshot.bytes_sent", "B", "lower"),
        ("engine.ops_per_batch", "count", "higher"),
        ("engine.forwarded_share", "ratio", "lower"),
        ("engine.pending_depth_max", "count", "lower"),
        ("engine.pipeline.peak_in_flight", "count", "higher"),
        ("engine.pipeline.window_deferrals", "count", "lower"),
        ("engine.pipeline.nic_deferrals", "count", "lower"),
        ("engine.pipeline.regress_share", "ratio", "lower"),
        ("engine.durability.entries_per_fsync", "count", "higher"),
        ("engine.durability.deferred_acks_per_op", "count", "lower"),
        ("ladder.r250_p99_ms", "ms", "lower"),
        ("ladder.r500_p99_ms", "ms", "lower"),
        ("ladder.r750_p99_ms", "ms", "lower"),
        ("ladder.r1500_goodput_ops", "ops/s", "higher"),
        ("ladder.r2000_goodput_ops", "ops/s", "higher"),
        ("ladder.slo_rate_ops", "ops/s", "higher"),
        ("ladder.recovery_ms", "ms", "lower"),
        ("ladder.max_backlog", "count", "lower"),
        ("ladder.gen_late_ms", "ms", "lower"),
        ("rules.leader_changes", "count", "lower"),
        ("shard.router_lookup_ns", "ns", "lower"),
        ("shard.redirects", "count", "lower"),
        ("shard.stale_redirects", "count", "lower"),
        ("shard.migrations", "count", "higher"),
        ("shard.migrate_ms", "ms", "lower"),
        ("shard.outage_ms", "ms", "lower"),
        ("shard.fault_stall_ms", "ms", "lower"),
        ("telemetry.host_overhead_ratio", "ratio", "lower"),
        ("telemetry.span_assemble_ms", "ms", "lower"),
        ("telemetry.span_heap_mb", "MB", "lower"),
        ("span.queueing_ms", "ms", "lower"),
        ("span.batching_ms", "ms", "lower"),
        ("span.network_ms", "ms", "lower"),
        ("span.replication_ms", "ms", "lower"),
        ("span.fsync_ms", "ms", "lower"),
        ("span.apply_ms", "ms", "lower"),
        ("workload.gen_ns_per_op", "ns", "lower"),
        ("workload.linearize_ms", "ms", "lower"),
        ("spec.mp_states_per_s", "1/s", "higher"),
        ("spec.shardkv_states_per_s", "1/s", "higher"),
        ("harness.build_ms", "ms", "lower"),
        ("harness.elect_ms", "ms", "lower"),
        ("harness.warmup_ms", "ms", "lower"),
        ("harness.measure_ms", "ms", "lower"),
        ("harness.faults_ms", "ms", "lower"),
        ("harness.drain_ms", "ms", "lower"),
        ("harness.check_ms", "ms", "lower"),
        ("harness.report_ms", "ms", "lower"),
        ("harness.host_iqr_share", "ratio", "lower"),
        ("harness.ref_kernel_ms", "ms", "lower"),
    ] {
        d.push(def(name, unit, better, None));
    }
    d
}

/// One repetition of a workload: every cell once, with the reference
/// kernel timed before the first cell and after each one.
pub struct Rep {
    pub cells: Vec<CellRun>,
    /// `cells.len() + 1` reference-kernel times (seconds).
    pub refs: Vec<f64>,
}

impl Rep {
    /// Reference seconds around cell `i`.
    fn ref_s(&self, i: usize) -> f64 {
        (self.refs[i] + self.refs[i + 1]) / 2.0
    }

    fn host_norm(&self) -> f64 {
        (0..self.cells.len())
            .map(|i| normalise(self.cells[i].host.measure_s, self.ref_s(i)))
            .sum()
    }

    fn setup_norm(&self) -> f64 {
        (0..self.cells.len())
            .map(|i| normalise(self.cells[i].host.setup_s(), self.ref_s(i)))
            .sum()
    }
}

/// A reported end-to-end value.
#[derive(Debug, Clone, Copy)]
pub struct Stat {
    pub value: f64,
    /// Interquartile range over repetitions ÷ median (host metrics; 0
    /// for the exactly repeating ones).
    pub iqr_share: f64,
    /// Latency samples or repetitions behind the value.
    pub samples: u64,
}

/// Everything the ledger reports for one workload.
pub struct WorkloadResult {
    pub name: &'static str,
    pub why: &'static str,
    pub reps: usize,
    pub end_to_end: Vec<(String, Stat)>,
    pub per_layer: BTreeMap<String, f64>,
    pub checks: Vec<Check>,
    /// One line per cell, for the text report.
    pub cell_rows: Vec<String>,
    /// Per repetition: raw and normalised host seconds of the measured
    /// windows and the reference kernel's mean time, for the text report.
    pub rep_rows: Vec<(f64, f64, f64)>,
    /// Operations due inside the measured windows of one repetition.
    pub attempted: u64,
    /// … of which never answered.
    pub failed: u64,
}

impl WorkloadResult {
    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Per-step and recovery numbers of the offered-load ladder, pooled over
/// the open-loop cells (which share one arrival schedule).
fn ladder_metrics(specs: &[CellSpec], cells: &[CellRun], out: &mut BTreeMap<String, f64>) {
    let open: Vec<(&CellSpec, &CellRun)> = specs
        .iter()
        .zip(cells)
        .filter(|(s, _)| matches!(s.load, Load::Open { .. }))
        .collect();
    let Some((first, _)) = open.first() else {
        return;
    };
    let Load::Open { steps, .. } = &first.load else {
        return;
    };
    let limit_ns = first.limit.as_nanos();
    // Latency from the due time; an operation never answered has waited
    // at least until the run ended.
    let waits = |lo: u64, hi: u64| -> Vec<(u64, bool)> {
        let mut w: Vec<(u64, bool)> = open
            .iter()
            .flat_map(|(_, run)| {
                run.ops
                    .iter()
                    .filter(move |o| (lo..hi).contains(&o.due_ns))
                    .map(|o| match o.done_ns {
                        Some(d) => (d - o.due_ns, true),
                        None => (run.end_ns.saturating_sub(o.due_ns), false),
                    })
            })
            .collect();
        w.sort_unstable();
        w
    };
    let p99_of = |w: &[(u64, bool)]| {
        let ns: Vec<u64> = w.iter().map(|x| x.0).collect();
        percentile_ms(&ns, 0.99)
    };
    let mut start = first.window_start().as_nanos();
    let mut slo_rate = 0.0f64;
    let steps = &steps[1..]; // the first step is the unmeasured warm-up
    let last = steps.len() - 1;
    for (i, step) in steps.iter().enumerate() {
        let end = start + step.dur.as_nanos();
        let w = waits(start, end);
        let good = w.iter().filter(|x| x.1 && x.0 <= limit_ns).count();
        let p99 = p99_of(&w);
        let goodput = good as f64 / step.dur.as_secs_f64() / open.len() as f64;
        let rate = step.rate_ops as u64;
        if i < last {
            // Below the device's nominal 1,000 ops/s the question is the
            // tail latency at that rate; above it, what still gets through.
            if rate < 1_000 {
                out.insert(format!("ladder.r{rate}_p99_ms"), p99);
            } else {
                out.insert(format!("ladder.r{rate}_goodput_ops"), goodput);
            }
            let failed = 1.0 - ratio(good as u64, w.len() as u64);
            if p99 <= limit_ns as f64 / 1e6 && failed <= 0.01 {
                slo_rate = slo_rate.max(step.rate_ops);
            }
        } else {
            let mut t = start;
            let mut recovered = end;
            while t + 1_000_000_000 <= end {
                let w = waits(t, t + 1_000_000_000);
                if !w.is_empty() && p99_of(&w) <= limit_ns as f64 / 1e6 {
                    recovered = t;
                    break;
                }
                t += 100_000_000;
            }
            out.insert(
                "ladder.recovery_ms".into(),
                (recovered - start) as f64 / 1e6,
            );
        }
        start = end;
    }
    out.insert("ladder.slo_rate_ops".into(), slo_rate);
    let max = |f: fn(&CellRun) -> u64| open.iter().map(|(_, r)| f(r)).max().unwrap_or(0);
    out.insert(
        "ladder.max_backlog".into(),
        max(|r| r.counts.max_backlog) as f64,
    );
    out.insert(
        "ladder.gen_late_ms".into(),
        max(|r| r.counts.gen_late_ns) as f64 / 1e6,
    );
}

/// Folds repetitions (and the optional traced repetition and probes)
/// into one workload's result.
pub fn summarise(
    workload: &Workload,
    reps: &[Rep],
    traced: Option<&Rep>,
    probes: &[(&'static str, f64)],
) -> WorkloadResult {
    let specs = &workload.cells;
    let base = &reps[0].cells;
    let mut checks: Vec<Check> = Vec::new();
    let cell_check = |cell: &str, c: &Check| Check {
        name: format!("{cell}: {}", c.name),
        ..c.clone()
    };
    for run in base {
        checks.extend(run.checks.iter().map(|c| cell_check(run.name, c)));
    }
    // The two clocks: everything virtual must repeat exactly.
    for (r, rep) in reps.iter().enumerate().skip(1) {
        for (a, b) in base.iter().zip(&rep.cells) {
            let same = a.counts == b.counts;
            checks.push(Check {
                name: format!("{}: repetition {r} repeats every count exactly", a.name),
                ok: same,
                detail: if same {
                    String::new()
                } else {
                    format!("{:?}\n   vs {:?}", a.counts, b.counts)
                },
            });
            checks.push(Check {
                name: format!("{}: repetition {r} repeats the heap counts", a.name),
                ok: a.heap.close_to(&b.heap, 1e-3),
                detail: format!("{:?} vs {:?}", a.heap, b.heap),
            });
        }
    }

    let secs = |i: usize| specs[i].measure.as_secs_f64();
    let per_cell = |f: &dyn Fn(usize, &CellRun) -> f64| -> Vec<f64> {
        base.iter().enumerate().map(|(i, c)| f(i, c)).collect()
    };
    let sum = |f: fn(&CellRun) -> u64| -> u64 { base.iter().map(f).sum() };
    let completed = sum(|c| c.counts.completed);
    let due = sum(|c| c.counts.due);
    let samples = base.iter().map(|c| c.counts.completed).min().unwrap_or(0);

    let host: Vec<f64> = reps.iter().map(Rep::host_norm).collect();
    let setup: Vec<f64> = reps.iter().map(Rep::setup_norm).collect();
    let exact = |value: f64, samples: u64| Stat {
        value,
        iqr_share: 0.0,
        samples,
    };
    let timed = |values: &[f64]| Stat {
        value: median(values),
        iqr_share: iqr_share(values),
        samples: values.len() as u64,
    };
    let end_to_end = vec![
        (
            "goodput_ops".to_string(),
            exact(
                geo_mean(&per_cell(&|i, c| c.counts.good as f64 / secs(i)), 1.0),
                completed,
            ),
        ),
        (
            "commit_p50_ms".to_string(),
            exact(
                geo_mean(&per_cell(&|_, c| c.counts.p50_ns as f64 / 1e6), 1e-6),
                samples,
            ),
        ),
        (
            "commit_p99_ms".to_string(),
            exact(
                geo_mean(&per_cell(&|_, c| c.counts.p99_ns as f64 / 1e6), 1e-6),
                samples,
            ),
        ),
        (
            "on_time_share".to_string(),
            exact(ratio(sum(|c| c.counts.on_time), due), due),
        ),
        (
            "max_stall_ms".to_string(),
            exact(
                base.iter()
                    .map(|c| c.counts.max_stall_ns)
                    .max()
                    .unwrap_or(0) as f64
                    / 1e6,
                due,
            ),
        ),
        (
            "events_per_op".to_string(),
            exact(
                geo_mean(
                    &per_cell(&|_, c| ratio(c.counts.window.events, c.counts.completed)),
                    1e-6,
                ),
                completed,
            ),
        ),
        (
            "allocs_per_op".to_string(),
            exact(
                geo_mean(
                    &per_cell(&|_, c| ratio(c.heap.allocs, c.counts.completed)),
                    1e-6,
                ),
                completed,
            ),
        ),
        (
            "peak_heap_mb".to_string(),
            exact(
                base.iter().map(|c| c.heap.peak_bytes).max().unwrap_or(0) as f64 / 1e6,
                base.len() as u64,
            ),
        ),
        ("host_s_norm".to_string(), timed(&host)),
        ("setup_s".to_string(), timed(&setup)),
    ];

    let mut layer: BTreeMap<String, f64> = per_layer_defs()
        .into_iter()
        .map(|d| (d.name, 0.0))
        .collect();
    let mut set = |name: &str, v: f64| {
        let slot = layer
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not in the per-layer table"));
        *slot = v;
    };
    for (i, c) in base.iter().enumerate() {
        let norm: Vec<f64> = reps
            .iter()
            .map(|r| normalise(r.cells[i].host.measure_s, r.ref_s(i)))
            .collect();
        let host_s = median(&norm);
        let n = c.name;
        set(&format!("{n}.goodput_ops"), c.counts.good as f64 / secs(i));
        set(&format!("{n}.commit_p50_ms"), c.counts.p50_ns as f64 / 1e6);
        set(&format!("{n}.commit_p99_ms"), c.counts.p99_ns as f64 / 1e6);
        set(
            &format!("{n}.events_per_op"),
            ratio(c.counts.window.events, c.counts.completed),
        );
        set(
            &format!("{n}.host_us_per_op"),
            host_s * 1e6 / c.counts.completed.max(1) as f64,
        );
        set(
            &format!("{n}.host_ns_per_event"),
            host_s * 1e9 / c.counts.window.events.max(1) as f64,
        );
    }
    let cell_rows = base
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let med = |f: fn(&crate::cell::Host) -> f64| {
                let v: Vec<f64> = reps
                    .iter()
                    .map(|r| normalise(f(&r.cells[i].host), r.ref_s(i)))
                    .collect();
                median(&v)
            };
            format!(
                "{:<11} {:>8} {:>10.1} {:>9.3} {:>9.3} {:>8.4} {:>9.1} {:>10} {:>8.1} {:>8.1} {:>8.3} {:>8.3}",
                c.name,
                c.counts.completed,
                c.counts.good as f64 / secs(i),
                c.counts.p50_ns as f64 / 1e6,
                c.counts.p99_ns as f64 / 1e6,
                ratio(c.counts.on_time, c.counts.due),
                c.counts.max_stall_ns as f64 / 1e6,
                c.counts.window.events,
                ratio(c.heap.allocs, c.counts.completed),
                c.heap.peak_bytes as f64 / 1e6,
                med(|h| h.measure_s),
                med(crate::cell::Host::setup_s),
            )
        })
        .collect();
    let w = |f: fn(&crate::cell::Counters) -> u64| -> u64 {
        base.iter().map(|c| f(&c.counts.window)).sum()
    };
    set("sim.events", w(|c| c.events) as f64);
    set(
        "sim.timer_share",
        ratio(w(|c| c.timer_fires), w(|c| c.events)),
    );
    set("sim.lost", w(|c| c.lost) as f64);
    set("sim.net.msgs_per_op", ratio(w(|c| c.deliveries), completed));
    set("sim.net.bytes_per_op", ratio(w(|c| c.net_bytes), completed));
    set("sim.net.dropped", w(|c| c.net_dropped) as f64);
    set(
        "sim.disk.fsyncs_per_op",
        ratio(w(|c| c.disk_fsyncs), completed),
    );
    set(
        "sim.disk.bytes_per_op",
        ratio(w(|c| c.disk_bytes), completed),
    );
    set(
        "log.peak_entries",
        base.iter()
            .map(|c| c.counts.peak_log_entries)
            .max()
            .unwrap_or(0) as f64,
    );
    // Snapshot transfer and redirects are what the migrations (window)
    // and the crash (fault phase) provoke: count both.
    let with_faults = |f: fn(&crate::cell::Counters) -> u64| -> f64 {
        base.iter()
            .map(|c| f(&c.counts.window) + f(&c.counts.after))
            .sum::<u64>() as f64
    };
    set("snapshot.compactions", with_faults(|c| c.compactions));
    set("snapshot.installs", with_faults(|c| c.snapshot_installs));
    set("snapshot.bytes_sent", with_faults(|c| c.snapshot_bytes));
    set("shard.redirects", with_faults(|c| c.client_redirects));
    set("shard.stale_redirects", with_faults(|c| c.stale_redirects));
    set(
        "engine.ops_per_batch",
        ratio(completed, w(|c| c.batch_flushes)),
    );
    set(
        "engine.forwarded_share",
        ratio(w(|c| c.forwarded), completed),
    );
    set(
        "engine.pipeline.peak_in_flight",
        base.iter()
            .map(|c| c.counts.peak_in_flight)
            .max()
            .unwrap_or(0) as f64,
    );
    set(
        "engine.pipeline.window_deferrals",
        w(|c| c.window_deferrals) as f64,
    );
    set(
        "engine.pipeline.nic_deferrals",
        w(|c| c.nic_deferrals) as f64,
    );
    set(
        "engine.pipeline.regress_share",
        ratio(w(|c| c.rounds_regressed), w(|c| c.rounds_sent)),
    );
    set(
        "engine.durability.entries_per_fsync",
        ratio(w(|c| c.fsync_entries), w(|c| c.fsyncs)),
    );
    set(
        "engine.durability.deferred_acks_per_op",
        ratio(w(|c| c.deferred_acks), completed),
    );
    set(
        "rules.leader_changes",
        sum(|c| c.counts.leader_changes) as f64,
    );
    set(
        "shard.migrations",
        base.iter()
            .map(|c| c.counts.migrations_done)
            .min()
            .unwrap_or(0) as f64,
    );
    set(
        "shard.migrate_ms",
        base.iter()
            .map(|c| c.counts.migrate_ns_max)
            .max()
            .unwrap_or(0) as f64
            / 1e6,
    );
    set(
        "shard.fault_stall_ms",
        base.iter()
            .map(|c| c.counts.fault_stall_ns)
            .max()
            .unwrap_or(0) as f64
            / 1e6,
    );
    let mut ladder = BTreeMap::new();
    ladder_metrics(specs, base, &mut ladder);
    for (name, v) in ladder {
        set(&name, v);
    }
    for &(name, v) in probes {
        set(name, v);
    }

    if let Some(t) = traced {
        for run in &t.cells {
            checks.extend(
                run.checks
                    .iter()
                    .filter(|c| !c.ok || c.name.starts_with("span"))
                    .map(|c| cell_check(&format!("{} (traced)", run.name), c)),
            );
        }
        // Tracing is observation only: the traced run must count the
        // same operations at the same virtual times.
        for (a, b) in base.iter().zip(&t.cells) {
            let same = (a.counts.completed, a.counts.p99_ns, a.counts.window.events)
                == (b.counts.completed, b.counts.p99_ns, b.counts.window.events);
            checks.push(Check {
                name: format!("{}: tracing leaves the schedule unchanged", a.name),
                ok: same,
                detail: format!(
                    "{} ops / {} events untraced, {} / {} traced",
                    a.counts.completed,
                    a.counts.window.events,
                    b.counts.completed,
                    b.counts.window.events
                ),
            });
        }
        let details: Vec<&crate::cell::Traced> =
            t.cells.iter().filter_map(|c| c.traced.as_ref()).collect();
        let commands: u64 = details.iter().map(|d| d.commands).sum();
        for s in Stage::ALL {
            let total: f64 = details
                .iter()
                .map(|d| d.stage_ms[s.index()] * d.commands as f64)
                .sum();
            set(
                &format!("span.{}_ms", s.name()),
                if commands == 0 {
                    0.0
                } else {
                    total / commands as f64
                },
            );
        }
        set(
            "engine.pending_depth_max",
            details
                .iter()
                .map(|d| d.pending_depth_max)
                .fold(0.0, f64::max),
        );
        set(
            "shard.outage_ms",
            if specs.iter().any(|s| s.crash_leader.is_some()) {
                details.iter().map(|d| d.outage_ms).fold(0.0, f64::max)
            } else {
                0.0
            },
        );
        set(
            "telemetry.host_overhead_ratio",
            t.host_norm() / median(&host),
        );
        set(
            "telemetry.span_assemble_ms",
            details.iter().map(|d| d.assemble_s).sum::<f64>() * 1e3,
        );
        let heap = |cells: &[CellRun]| -> f64 {
            cells.iter().map(|c| c.heap.peak_bytes as f64).sum::<f64>()
        };
        set(
            "telemetry.span_heap_mb",
            (heap(&t.cells) - heap(base)) / 1e6,
        );
    }

    let phase = |f: fn(&crate::cell::Host) -> f64| -> f64 {
        let per_rep: Vec<f64> = reps
            .iter()
            .map(|r| r.cells.iter().map(|c| f(&c.host)).sum())
            .collect();
        median(&per_rep) * 1e3
    };
    set("harness.build_ms", phase(|h| h.build_s));
    set("harness.elect_ms", phase(|h| h.elect_s));
    set("harness.warmup_ms", phase(|h| h.warmup_s));
    set("harness.measure_ms", phase(|h| h.measure_s));
    set("harness.faults_ms", phase(|h| h.faults_s));
    set("harness.drain_ms", phase(|h| h.drain_s));
    set("harness.check_ms", phase(|h| h.check_s));
    set("harness.host_iqr_share", iqr_share(&host));
    let all_refs: Vec<f64> = reps.iter().flat_map(|r| r.refs.iter().copied()).collect();
    set("harness.ref_kernel_ms", median(&all_refs) * 1e3);

    WorkloadResult {
        name: workload.name,
        why: workload.why,
        reps: reps.len(),
        end_to_end,
        per_layer: layer,
        checks,
        cell_rows,
        rep_rows: reps
            .iter()
            .map(|r| {
                let raw = r.cells.iter().map(|c| c.host.measure_s).sum();
                let ref_ms = r.refs.iter().sum::<f64>() / r.refs.len() as f64 * 1e3;
                (raw, r.host_norm(), ref_ms)
            })
            .collect(),
        attempted: due,
        failed: sum(|c| c.counts.unanswered),
    }
}

/// The human-readable block for one workload.
pub fn render(result: &WorkloadResult, seed: u64, layers: bool) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "\n== {} (seed {seed}, {} repetition(s)) ==\n   {}",
        result.name, result.reps, result.why
    );
    let defs = end_to_end_defs();
    let _ = writeln!(
        s,
        "   {:<16} {:>14} {:<6} {:>8} {:>7} {:>10}",
        "end-to-end", "value", "unit", "spread", "bound", "samples"
    );
    for (name, stat) in &result.end_to_end {
        let d = defs.iter().find(|d| &d.name == name).expect("defined");
        let _ = writeln!(
            s,
            "   {:<16} {:>14.4} {:<6} {:>7.2}% {:>6.1}% {:>10}",
            name,
            stat.value,
            d.unit,
            stat.iqr_share * 100.0,
            d.bound.unwrap_or(0.0) * 100.0,
            stat.samples
        );
    }
    let _ = writeln!(
        s,
        "   {:<11} {:>8} {:>10} {:>9} {:>9} {:>8} {:>9} {:>10} {:>8} {:>8} {:>8} {:>8}",
        "cell",
        "samples",
        "goodput",
        "p50_ms",
        "p99_ms",
        "on_time",
        "stall_ms",
        "events",
        "alloc/op",
        "heap_MB",
        "host_s",
        "setup_s"
    );
    for row in &result.cell_rows {
        let _ = writeln!(s, "   {row}");
    }
    let _ = writeln!(
        s,
        "   host seconds per repetition (raw / normalised / reference kernel ms):"
    );
    for (raw, norm, ref_ms) in &result.rep_rows {
        let _ = writeln!(s, "     {raw:>8.4} {norm:>8.4} {ref_ms:>8.3}");
    }
    let on_time = result
        .end_to_end
        .iter()
        .find(|(n, _)| n == "on_time_share")
        .map_or(1.0, |(_, st)| st.value);
    let _ = writeln!(
        s,
        "   failed_share = 1 - on_time_share = {:.6}; {} operations due, {} never answered",
        1.0 - on_time,
        result.attempted,
        result.failed
    );
    if layers {
        let defs = per_layer_defs();
        let _ = writeln!(s, "   per-layer (0 = the layer does not run here)");
        for d in &defs {
            let v = result.per_layer.get(&d.name).copied().unwrap_or(0.0);
            let _ = writeln!(s, "     {:<40} {:>16.4} {}", d.name, v, d.unit);
        }
    }
    let failed: Vec<&Check> = result.checks.iter().filter(|c| !c.ok).collect();
    let _ = writeln!(
        s,
        "   checks: {} passed, {} failed",
        result.checks.len() - failed.len(),
        failed.len()
    );
    for c in failed {
        let _ = writeln!(s, "   FAILED {}: {}", c.name, c.detail);
    }
    s
}

/// The one-line result the benchmark driver reads: end-to-end metrics
/// for an untraced run, per-layer metrics for a traced one.
pub fn driver_line(result: &WorkloadResult, traced: bool) -> String {
    let mut metrics = Vec::new();
    if traced {
        for d in per_layer_defs() {
            let v = result.per_layer.get(&d.name).copied().unwrap_or(0.0);
            metrics.push((d.name, v, d.unit));
        }
    } else {
        let defs = end_to_end_defs();
        for (name, stat) in &result.end_to_end {
            let d = defs.iter().find(|d| &d.name == name).expect("defined");
            metrics.push((name.clone(), stat.value, d.unit));
        }
    }
    let finite = metrics.iter().all(|m| m.1.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                num(if v.is_finite() { *v } else { 0.0 }),
                quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct() && finite,
        result.attempted.max(1),
        result.failed,
        body.join(", ")
    )
}

/// The result file `--out` writes and `ledger diff` reads.
pub fn results_json(seed: u64, results: &[WorkloadResult]) -> String {
    let e2e = end_to_end_defs();
    let layers = per_layer_defs();
    let mut s = format!("{{\n  \"seed\": {seed},\n  \"workloads\": {{\n");
    for (wi, r) in results.iter().enumerate() {
        let _ = writeln!(s, "    {}: {{", quote(r.name));
        let _ = writeln!(s, "      \"correct\": {},", r.correct());
        let _ = writeln!(s, "      \"repetitions\": {},", r.reps);
        let _ = writeln!(s, "      \"end_to_end\": {{");
        for (i, (name, stat)) in r.end_to_end.iter().enumerate() {
            let d = e2e.iter().find(|d| &d.name == name).expect("defined");
            let _ = writeln!(
                s,
                "        {}: {{\"value\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}, \
                 \"iqr_share\": {}, \"samples\": {}}}{}",
                quote(name),
                num(stat.value),
                quote(d.unit),
                quote(d.better),
                num(d.bound.unwrap_or(0.0)),
                num(stat.iqr_share),
                stat.samples,
                if i + 1 < r.end_to_end.len() { "," } else { "" }
            );
        }
        let _ = writeln!(s, "      }},\n      \"per_layer\": {{");
        for (i, d) in layers.iter().enumerate() {
            let v = r.per_layer.get(&d.name).copied().unwrap_or(0.0);
            let _ = writeln!(
                s,
                "        {}: {{\"value\": {}, \"unit\": {}}}{}",
                quote(&d.name),
                num(v),
                quote(d.unit),
                if i + 1 < layers.len() { "," } else { "" }
            );
        }
        let _ = writeln!(
            s,
            "      }}\n    }}{}",
            if wi + 1 < results.len() { "," } else { "" }
        );
    }
    s.push_str("  }\n}\n");
    s
}

/// `BENCHMARK.json`, generated from the tables above so the file and the
/// program cannot drift apart.
pub fn benchmark_json(run_seconds: u64) -> String {
    let mut s = String::from("{\n");
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "crates/bench/src/bin/ledger/Cargo.toml",
        "--",
    ];
    let quoted: Vec<String> = command.iter().map(|c| quote(c)).collect();
    let _ = writeln!(s, "  \"command\": [{}],", quoted.join(", "));
    let _ = writeln!(s, "  \"paths\": [\"crates/bench/src/bin/ledger\"],");
    let _ = writeln!(s, "  \"run_seconds\": {run_seconds},");
    let _ = writeln!(s, "  \"workloads\": [");
    for (i, name) in NAMES.iter().enumerate() {
        let w = crate::workloads::workload(name, 1);
        let why: String = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"why\": {}}}{}",
            quote(w.name),
            quote(&why),
            if i + 1 < NAMES.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "  ],\n  \"end_to_end\": [");
    let e2e = end_to_end_defs();
    for (i, d) in e2e.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{}",
            quote(&d.name),
            quote(d.unit),
            quote(d.better),
            num(d.bound.expect("end-to-end metrics have bounds")),
            if i + 1 < e2e.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "  ],\n  \"per_layer\": [");
    let layers = per_layer_defs();
    for (i, d) in layers.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{}",
            quote(&d.name),
            quote(d.unit),
            quote(d.better),
            if i + 1 < layers.len() { "," } else { "" }
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_tables_fit_the_benchmark_contract() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let e2e = end_to_end_defs();
        let layers = per_layer_defs();
        assert!((1..=16).contains(&e2e.len()) && (1..=128).contains(&layers.len()));
        let mut seen = std::collections::BTreeSet::new();
        for d in e2e.iter().chain(&layers) {
            assert!(ok_name(&d.name), "{}", d.name);
            assert!(ok_unit(d.unit), "{}: {}", d.name, d.unit);
            assert!(d.better == "higher" || d.better == "lower");
            assert!(seen.insert(d.name.clone()), "{} used twice", d.name);
        }
        assert!(e2e.iter().all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert!(e2e
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
        let parsed = crate::json::parse(&benchmark_json(10)).expect("valid json");
        let Some(crate::json::Value::Array(whys)) = parsed.get("workloads") else {
            panic!("workloads is an array");
        };
        assert_eq!(whys.len(), 4);
        for w in whys {
            let why = w.get("why").and_then(|y| y.as_str()).expect("why");
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
    }
}
