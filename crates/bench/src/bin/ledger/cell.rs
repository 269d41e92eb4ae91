//! One *cell*: a protocol and configuration run once on a workload's
//! traffic, with everything the ledger reports about it.
//!
//! A cell's life is build → elect → warm-up → **measured window** →
//! cool-down (one latency limit, so every operation due inside the window
//! has had its full allowance) → stop the load → drain → checks. Only the
//! window is timed and counted. Everything on the virtual clock and every
//! counter lands in [`Counts`], which must be identical every time the
//! same seed is run; host seconds land in [`Host`].

use paxraft_core::client::WorkloadClient;
use paxraft_core::engine::{ProtocolRules, ReplicaEngine};
use paxraft_core::harness::{ClusterBuilder, ProtocolKind};
use paxraft_core::kv::KvStore;
use paxraft_core::mencius::MenciusReplica;
use paxraft_core::msg::Msg;
use paxraft_core::multipaxos::MultiPaxosReplica;
use paxraft_core::raft::RaftReplica;
use paxraft_core::raftstar::RaftStarReplica;
use paxraft_core::shard::{RebalanceCoordinator, ShardedCluster};
use paxraft_core::telemetry::{MetricSample, Stage, TelemetryConfig};
use paxraft_sim::net::Region;
use paxraft_sim::sim::{ActorId, Simulation};
use paxraft_sim::time::{SimDuration, SimTime};

use crate::measure::{heap_mark, heap_peak, heap_reset_peak, percentile_ms};
use crate::openloop::{OpenLoop, OpenLoopConfig, Step};
use crate::trace::Tracer;

/// Between polls of leadership and migration progress inside the window.
/// Running the simulation in slices processes the same events in the same
/// order as one long run, so polling never changes the schedule.
const POLL: SimDuration = SimDuration::from_millis(10);

/// Where a cell's traffic comes from.
#[derive(Debug, Clone)]
pub enum Load {
    /// `clients_per_region` [`WorkloadClient`]s, each with one request
    /// outstanding (configured on the builder).
    Closed,
    /// Poisson arrivals following an offered-rate ladder.
    Open {
        /// The ladder. The first step is warm-up and ends as the measured
        /// window opens; the rest fill the window.
        steps: Vec<Step>,
        /// Size of the session pool.
        sessions: usize,
    },
}

/// What to run.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Cell name, the prefix of its per-layer metrics.
    pub name: &'static str,
    /// The cluster, fully configured except for seed and telemetry.
    pub builder: ClusterBuilder,
    /// Traffic source.
    pub load: Load,
    /// Virtual time from the start of the run to the measured window:
    /// leader election, then warm-up. Absolute, so that scripted faults
    /// and migrations can be placed relative to the window when the
    /// cluster is built.
    pub start: SimDuration,
    /// Length of the measured window.
    pub measure: SimDuration,
    /// Latency limit `L`.
    pub limit: SimDuration,
    /// Virtual time the load stays on after the cool-down, for the one
    /// scripted fault whose duration the seed rolls dice for: a failover
    /// waits on a randomized election timeout (1.5-3 s), so a leader crash
    /// inside the window would make every gated number of the workload
    /// as noisy as that timeout. Faults with no such wait (migrations) go
    /// inside the window. The fault phase is observed by per-layer
    /// metrics and by every check.
    pub fault_phase: SimDuration,
    /// Crash group 0's leader this long after the window starts, and
    /// restart it this long after the window starts.
    pub crash_leader: Option<(SimDuration, SimDuration)>,
    /// Absolute virtual times of the scripted migrations (they are also
    /// on the builder; kept here to time them).
    pub migrations_at: Vec<SimDuration>,
    /// Check the recorded hot-key history for linearizability.
    pub check_history: bool,
    /// Fewest latency samples the window must yield: with 1,000, ten lie
    /// beyond the reported p99.
    pub min_samples: u64,
}

impl CellSpec {
    /// Absolute virtual time the measured window opens.
    pub fn window_start(&self) -> SimTime {
        SimTime::ZERO + self.start
    }
}

/// One operation as the caller saw it.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// When it was due (closed loop: when it was sent), ns.
    pub due_ns: u64,
    /// When the reply arrived, ns.
    pub done_ns: Option<u64>,
}

/// Declares [`Counters`] and its field-wise difference from one list of
/// fields, so a counter added to one cannot be forgotten in the other.
macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// Cumulative counters read off the cluster; window numbers are
        /// the difference of two readings.
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        pub struct Counters {
            $(pub $field: u64,)*
        }

        impl Counters {
            fn since(self, earlier: Counters) -> Counters {
                Counters {
                    $($field: self.$field - earlier.$field,)*
                }
            }
        }
    };
}

counters!(
    events,
    deliveries,
    timer_fires,
    lost,
    net_bytes,
    net_dropped,
    disk_fsyncs,
    disk_bytes,
    rounds_sent,
    rounds_regressed,
    window_deferrals,
    nic_deferrals,
    fsyncs,
    fsync_entries,
    deferred_acks,
    compactions,
    snapshot_installs,
    snapshot_bytes,
    batch_flushes,
    forwarded,
    client_redirects,
    stale_redirects,
);

impl Counters {
    fn read(cluster: &ShardedCluster, closed: bool) -> Counters {
        let sim = &cluster.sim;
        let mut c = Counters {
            events: sim.stats.events,
            deliveries: sim.stats.deliveries,
            timer_fires: sim.stats.timer_fires,
            lost: sim.stats.lost,
            net_bytes: sim.network().bytes_sent.iter().sum(),
            net_dropped: sim.network().dropped,
            ..Counters::default()
        };
        // Sharded clusters map every group's replica on a node to that
        // node's one disk, so group 0 names each device once.
        for &r in cluster.group_replicas(0) {
            let d = sim.disk_stats_at(r);
            c.disk_fsyncs += d.fsyncs;
            c.disk_bytes += d.bytes_written;
        }
        for g in cluster.per_group_stats() {
            c.rounds_sent += g.pipeline.rounds_sent;
            c.rounds_regressed += g.pipeline.rounds_regressed;
            c.window_deferrals += g.pipeline.window_deferrals;
            c.nic_deferrals += g.pipeline.nic_deferrals;
            c.fsyncs += g.durability.fsyncs;
            c.fsync_entries += g.durability.fsync_entries;
            c.deferred_acks += g.durability.deferred_acks;
            c.compactions += g.snapshots.compactions;
            c.snapshot_installs += g.snapshots.snapshots_installed;
            c.snapshot_bytes += g.snapshots.snapshot_bytes_sent;
        }
        for g in 0..cluster.num_groups() {
            for &r in cluster.group_replicas(g) {
                let s = replica(sim, cluster.protocol(), r).sample();
                c.batch_flushes += s.get("batch_flushes") as u64;
                c.forwarded += s.get("forwarded") as u64;
            }
        }
        if closed {
            for &id in cluster.clients() {
                let wc = sim.actor::<WorkloadClient>(id);
                c.client_redirects += wc.redirects;
                c.stale_redirects += wc.stale_redirects;
            }
        }
        c
    }
}

/// Everything about a cell that a seed fixes exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Operations due inside the window.
    pub due: u64,
    /// … of which answered within `L` of their due time.
    pub on_time: u64,
    /// … of which never answered before the run ended.
    pub unanswered: u64,
    /// Operations answered inside the window (the latency sample).
    pub completed: u64,
    /// … of which within `L`.
    pub good: u64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    /// Longest wait of any operation overlapping the window, answered or
    /// still outstanding when it closed.
    pub max_stall_ns: u64,
    /// Counter movement inside the window.
    pub window: Counters,
    /// Counter movement from the window's close to the end of the fault
    /// phase.
    pub after: Counters,
    pub peak_in_flight: u64,
    pub peak_log_entries: u64,
    /// Times a replica other than the previous one was seen leading.
    pub leader_changes: u64,
    pub migrations_done: u64,
    /// Longest scripted-start-to-release time of a migration.
    pub migrate_ns_max: u64,
    /// Longest wait of any operation overlapping the fault phase.
    pub fault_stall_ns: u64,
    /// Open loop only.
    pub max_backlog: u64,
    pub gen_late_ns: u64,
    pub retries: u64,
}

/// Heap counts from the ledger's counting allocator. They are counts,
/// but repeat only to about one part in 10^5: the standard `HashMap`
/// seeds its hasher per map, and whether a removal leaves a tombstone —
/// hence when a map next rehashes — depends on where the hashes fall.
#[derive(Debug, Clone, Copy, Default)]
pub struct Heap {
    /// Allocation calls inside the measured window.
    pub allocs: u64,
    /// Bytes requested inside the measured window.
    pub alloc_bytes: u64,
    /// Live-heap high-water mark from build to the end of the drain.
    pub peak_bytes: u64,
}

impl Heap {
    /// Whether `other` is the same to within `share`.
    pub fn close_to(&self, other: &Heap, share: f64) -> bool {
        let near = |a: u64, b: u64| a.abs_diff(b) as f64 <= share * a.max(b) as f64;
        near(self.allocs, other.allocs)
            && near(self.alloc_bytes, other.alloc_bytes)
            && near(self.peak_bytes, other.peak_bytes)
    }
}

/// Raw host seconds of each phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Host {
    pub build_s: f64,
    pub elect_s: f64,
    pub warmup_s: f64,
    pub measure_s: f64,
    pub faults_s: f64,
    pub drain_s: f64,
    pub check_s: f64,
}

impl Host {
    /// Everything before the measured window.
    pub fn setup_s(&self) -> f64 {
        self.build_s + self.elect_s + self.warmup_s
    }
}

/// Numbers only a traced run has.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    /// Mean virtual ms per command in each [`Stage`], in `Stage::ALL` order.
    pub stage_ms: [f64; Stage::COUNT],
    /// Commands the span report covers.
    pub commands: u64,
    /// Host seconds to assemble the span report.
    pub assemble_s: f64,
    /// Deepest sampled pending batch of any group.
    pub pending_depth_max: f64,
    /// Longest run of zero-throughput samples of group 0 during the
    /// fault phase (virtual ms).
    pub outage_ms: f64,
}

/// One correctness check's outcome.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    fn new(name: &str, ok: bool, detail: String) -> Check {
        Check {
            name: name.to_string(),
            ok,
            detail,
        }
    }
}

/// The outcome of [`run_cell`].
#[derive(Debug, Clone)]
pub struct CellRun {
    pub name: &'static str,
    pub counts: Counts,
    pub heap: Heap,
    pub host: Host,
    pub checks: Vec<Check>,
    pub traced: Option<Traced>,
    /// Open loop only: every scheduled operation, for the ladder report.
    pub ops: Vec<Op>,
    /// When the run stopped (ns): the censoring time of unanswered ops.
    pub end_ns: u64,
}

/// What the ledger reads off a replica of any rule set.
trait ReplicaProbe {
    fn leads(&self) -> bool;
    fn store(&self) -> &KvStore;
    fn sample(&self) -> MetricSample;
}

impl<P: ProtocolRules> ReplicaProbe for ReplicaEngine<P> {
    fn leads(&self) -> bool {
        self.is_leader()
    }
    fn store(&self) -> &KvStore {
        self.kv()
    }
    fn sample(&self) -> MetricSample {
        self.metric_sample()
    }
}

fn replica(sim: &Simulation<Msg>, protocol: ProtocolKind, id: ActorId) -> &dyn ReplicaProbe {
    match protocol {
        ProtocolKind::MultiPaxos => sim.actor::<MultiPaxosReplica>(id),
        ProtocolKind::Raft => sim.actor::<RaftReplica>(id),
        ProtocolKind::RaftStar | ProtocolKind::RaftStarPql | ProtocolKind::LeaderLease => {
            sim.actor::<RaftStarReplica>(id)
        }
        ProtocolKind::RaftStarMencius => sim.actor::<MenciusReplica>(id),
    }
}

/// Watches who leads each group. Mencius has no single leader, so it
/// never reports a change.
struct LeaderWatch {
    last: Vec<Option<ActorId>>,
    changes: u64,
}

impl LeaderWatch {
    fn new(cluster: &ShardedCluster) -> LeaderWatch {
        let mut w = LeaderWatch {
            last: vec![None; cluster.num_groups()],
            changes: 0,
        };
        w.poll(cluster);
        w.changes = 0;
        w
    }

    fn poll(&mut self, cluster: &ShardedCluster) {
        if cluster.protocol() == ProtocolKind::RaftStarMencius {
            return;
        }
        for g in 0..cluster.num_groups() {
            let now = cluster.group_replicas(g).iter().copied().find(|&r| {
                !cluster.sim.is_crashed(r) && replica(&cluster.sim, cluster.protocol(), r).leads()
            });
            if let Some(leader) = now {
                if self.last[g].is_some_and(|prev| prev != leader) {
                    self.changes += 1;
                }
                self.last[g] = Some(leader);
            }
        }
    }
}

/// What is polled between slices of simulated time.
struct Progress {
    leaders: LeaderWatch,
    migrations_seen: usize,
    migrate_ns_max: u64,
}

impl Progress {
    fn new(cluster: &ShardedCluster) -> Progress {
        Progress {
            leaders: LeaderWatch::new(cluster),
            migrations_seen: migrations_done(cluster),
            migrate_ns_max: 0,
        }
    }

    /// Advances the cluster to `until` in [`POLL`] slices.
    fn run_until(&mut self, cluster: &mut ShardedCluster, until: SimTime, spec: &CellSpec) {
        while cluster.sim.now() < until {
            let left = until.since(cluster.sim.now());
            cluster.advance(if left < POLL { left } else { POLL });
            self.leaders.poll(cluster);
            let done = migrations_done(cluster);
            for at in spec
                .migrations_at
                .iter()
                .take(done)
                .skip(self.migrations_seen)
            {
                let took = cluster.sim.now().as_nanos().saturating_sub(at.as_nanos());
                self.migrate_ns_max = self.migrate_ns_max.max(took);
            }
            self.migrations_seen = done;
        }
    }
}

fn migrations_done(cluster: &ShardedCluster) -> usize {
    cluster.coordinator().map_or(0, |c| {
        cluster.sim.actor::<RebalanceCoordinator>(c).completed.len()
    })
}

/// The closed-loop clients' operations. A client sends its next request
/// the instant the previous reply arrives, so the one still outstanding
/// was sent when the last completion happened.
fn closed_ops(cluster: &ShardedCluster) -> Vec<Op> {
    let mut ops = Vec::new();
    for &id in cluster.clients() {
        let wc = cluster.sim.actor::<WorkloadClient>(id);
        ops.extend(wc.completions.iter().map(|c| Op {
            due_ns: c.at_ns - c.latency_ns,
            done_ns: Some(c.at_ns),
        }));
        ops.push(Op {
            due_ns: wc.completions.last().map_or(0, |c| c.at_ns),
            done_ns: None,
        });
    }
    ops
}

/// Order-insensitive digest of a store's records plus its apply count.
fn kv_digest(store: &KvStore) -> (usize, u64, u64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let records = store.export_range(0, u64::MAX);
    for (k, v) in &records {
        for b in k.to_le_bytes().iter().chain(v.iter()) {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (records.len(), h, store.applied_ops())
}

/// The digests of group `g`'s live replicas.
fn group_digests(cluster: &ShardedCluster, g: usize) -> Vec<(usize, u64, u64)> {
    cluster
        .group_replicas(g)
        .iter()
        .filter(|&&r| !cluster.sim.is_crashed(r))
        .map(|&r| kv_digest(replica(&cluster.sim, cluster.protocol(), r).store()))
        .collect()
}

fn all_equal<T: PartialEq>(items: &[T]) -> bool {
    items.windows(2).all(|w| w[0] == w[1])
}

fn replicas_agree(cluster: &ShardedCluster) -> bool {
    (0..cluster.num_groups()).all(|g| all_equal(&group_digests(cluster, g)))
}

/// The longest any operation overlapping `[from, to)` had waited: due
/// before `to`, not answered before `from`, the wait cut off at `to`.
fn longest_wait(ops: &[Op], from: u64, to: u64) -> u64 {
    if to <= from {
        return 0;
    }
    ops.iter()
        .filter(|op| op.due_ns < to && op.done_ns.is_none_or(|d| d >= from))
        .map(|op| op.done_ns.map_or(to, |d| d.min(to)) - op.due_ns)
        .max()
        .unwrap_or(0)
}

fn window_numbers(ops: &[Op], ws: u64, we: u64, limit_ns: u64, counts: &mut Counts) {
    let mut lat: Vec<u64> = Vec::new();
    for op in ops {
        let waited = op.done_ns.map(|d| d - op.due_ns);
        if (ws..we).contains(&op.due_ns) {
            counts.due += 1;
            match waited {
                Some(w) if w <= limit_ns => counts.on_time += 1,
                Some(_) => {}
                None => counts.unanswered += 1,
            }
        }
        if let (Some(done), Some(w)) = (op.done_ns, waited) {
            if (ws..we).contains(&done) {
                lat.push(w);
                if w <= limit_ns {
                    counts.good += 1;
                }
            }
        }
    }
    counts.max_stall_ns = longest_wait(ops, ws, we);
    lat.sort_unstable();
    counts.completed = lat.len() as u64;
    counts.p50_ns = (percentile_ms(&lat, 0.50) * 1e6).round() as u64;
    counts.p99_ns = (percentile_ms(&lat, 0.99) * 1e6).round() as u64;
}

fn traced_numbers(
    cluster: &ShardedCluster,
    (ws, we): (SimTime, SimTime),
    faults: (SimTime, SimTime),
) -> (Traced, Check) {
    let t0 = std::time::Instant::now();
    let report = cluster.span_report().expect("traced run records spans");
    let assemble_s = t0.elapsed().as_secs_f64();
    let totals = report.window(ws, we);
    let mut stage_ms = [0.0; Stage::COUNT];
    for s in Stage::ALL {
        stage_ms[s.index()] = totals.mean_ms(s);
    }
    let broken = report
        .commands
        .iter()
        .filter(|c| {
            Stage::ALL
                .iter()
                .fold(SimDuration::ZERO, |acc, &s| acc + c.stage(s))
                != c.total()
        })
        .count();
    let check = Check::new(
        "span stages sum to end-to-end latency",
        broken == 0 && !report.commands.is_empty(),
        format!("{} commands, {broken} off", report.commands.len()),
    );
    let mut pending_depth_max = 0.0f64;
    let mut outage_ms = 0.0f64;
    for series in cluster.telemetry_series() {
        let within = |(from, to): (SimTime, SimTime)| {
            series
                .points
                .iter()
                .filter(move |(at, _)| (from..=to).contains(at))
        };
        if series.name.ends_with("/pending_depth") {
            pending_depth_max = within((ws, we))
                .map(|p| p.1)
                .fold(pending_depth_max, f64::max);
        } else if series.name == "group0/throughput_ops" {
            let mut run_start: Option<SimTime> = None;
            for &(at, v) in within(faults) {
                if v > 0.0 {
                    run_start = None;
                } else {
                    let start = *run_start.get_or_insert(at);
                    // A zero sample covers the interval before it too.
                    let ms = at.since(start).as_millis_f64() + 100.0;
                    outage_ms = outage_ms.max(ms);
                }
            }
        }
    }
    (
        Traced {
            stage_ms,
            commands: totals.commands,
            assemble_s,
            pending_depth_max,
            outage_ms,
        },
        check,
    )
}

/// Runs one cell. `traced` turns the repo's recorder, sampler and span
/// log on; the schedule is the same either way.
pub fn run_cell(spec: &CellSpec, seed: u64, traced: bool, tracer: &mut Tracer) -> CellRun {
    tracer.enter(spec.name);
    let heap0 = heap_mark();
    heap_reset_peak();
    let ws = spec.window_start();
    let we = ws + spec.measure;
    let closed = matches!(spec.load, Load::Closed);
    let mut host = Host::default();

    tracer.enter("build");
    let mut builder = spec.builder.clone().seed(seed);
    if traced {
        builder = builder.telemetry_config(TelemetryConfig::sampled().with_spans());
    }
    let mut cluster = builder.build_sharded();
    let open = match &spec.load {
        Load::Closed => None,
        Load::Open { steps, sessions } => {
            let replicas = cluster.group_replicas(0).to_vec();
            // The ladder's first step is the warm-up: it ends as the
            // window opens.
            let lead = steps.first().map_or(SimDuration::ZERO, |s| s.dur);
            let cfg = OpenLoopConfig {
                start: SimTime::ZERO + (spec.start - lead),
                steps: steps.clone(),
                sessions: *sessions,
                workload: crate::workloads::write_only(8),
                retry_after: SimDuration::from_secs(1),
            };
            Some(OpenLoop::attach(
                &mut cluster.sim,
                &replicas,
                &Region::ALL,
                &cfg,
                seed,
            ))
        }
    };
    if let Some((down, up)) = spec.crash_leader {
        let leader = cluster.replica(0, cluster.leaders()[0]);
        cluster.sim.crash_at(leader, ws + down);
        cluster.sim.restart_at(leader, ws + up);
    }
    host.build_s = tracer.exit();

    tracer.enter("elect");
    cluster.elect_leaders();
    host.elect_s = tracer.exit();
    let elected_at = cluster.sim.now();

    tracer.enter("warmup");
    cluster.advance(ws.since(elected_at.min(ws)));
    host.warmup_s = tracer.exit();

    let mut progress = Progress::new(&cluster);
    let c0 = Counters::read(&cluster, closed);
    let h0 = heap_mark();
    tracer.enter("measure");
    progress.run_until(&mut cluster, we, spec);
    host.measure_s = tracer.exit();
    let h1 = heap_mark();
    let c1 = Counters::read(&cluster, closed);

    // Cool-down: one latency limit with the load still on, so an
    // operation due at the very end of the window is judged like one due
    // at its start. Then the fault phase, if the cell has one; then the
    // load stops and the replicas settle.
    tracer.enter("faults");
    cluster.advance(spec.limit);
    let faults_from = cluster.sim.now();
    progress.run_until(&mut cluster, faults_from + spec.fault_phase, spec);
    let faults_to = cluster.sim.now();
    host.faults_s = tracer.exit();
    let c2 = Counters::read(&cluster, closed);
    tracer.enter("drain");
    let stats = cluster.per_group_stats();
    if closed {
        let now = cluster.sim.now();
        for c in cluster.clients().to_vec() {
            cluster.sim.crash_at(c, now);
        }
    }
    let quiet_from = cluster.sim.now();
    let deadline = quiet_from + SimDuration::from_secs(30);
    loop {
        cluster.advance(SimDuration::from_millis(500));
        let now = cluster.sim.now();
        let settled = now.since(quiet_from) >= SimDuration::from_secs(2)
            && migrations_done(&cluster) >= spec.migrations_at.len()
            && open.as_ref().is_none_or(OpenLoop::all_answered);
        if settled || now >= deadline {
            break;
        }
    }
    let heap = Heap {
        allocs: h1.allocs - h0.allocs,
        alloc_bytes: h1.bytes - h0.bytes,
        peak_bytes: (heap_peak() - heap0.live).max(0) as u64,
    };
    // A follower outside the last quorums learns the tail of the log
    // only from a later heartbeat or retransmission: give stragglers
    // until the deadline before calling a difference a divergence.
    while !replicas_agree(&cluster) && cluster.sim.now() < deadline {
        cluster.advance(SimDuration::from_millis(500));
    }
    host.drain_s = tracer.exit();
    let end_ns = cluster.sim.now().as_nanos();

    tracer.enter("check");
    let ops: Vec<Op> = match &open {
        Some(o) => o
            .ops()
            .iter()
            .map(|r| Op {
                due_ns: r.due_ns,
                done_ns: r.done_ns,
            })
            .collect(),
        None => closed_ops(&cluster),
    };
    let mut counts = Counts {
        window: c1.since(c0),
        after: c2.since(c1),
        peak_in_flight: stats
            .iter()
            .map(|g| g.pipeline.peak_in_flight)
            .max()
            .unwrap_or(0),
        peak_log_entries: stats
            .iter()
            .map(|g| g.snapshots.peak_log_entries)
            .max()
            .unwrap_or(0),
        leader_changes: progress.leaders.changes,
        migrations_done: migrations_done(&cluster) as u64,
        migrate_ns_max: progress.migrate_ns_max,
        fault_stall_ns: longest_wait(&ops, faults_from.as_nanos(), faults_to.as_nanos()),
        ..Counts::default()
    };
    if let Some(o) = &open {
        counts.max_backlog = o.max_backlog() as u64;
        counts.gen_late_ns = o.late_ns_max();
        counts.retries = o.retries();
    }
    window_numbers(
        &ops,
        ws.as_nanos(),
        we.as_nanos(),
        spec.limit.as_nanos(),
        &mut counts,
    );

    let mut checks = Vec::new();
    checks.push(Check::new(
        "a leader was elected before the window",
        elected_at < ws,
        format!("elected at {elected_at}, window opens at {ws}"),
    ));
    checks.push(Check::new(
        "enough latency samples for the p99",
        counts.completed >= spec.min_samples,
        format!("{} samples, need {}", counts.completed, spec.min_samples),
    ));
    for g in 0..cluster.num_groups() {
        let digests = group_digests(&cluster, g);
        checks.push(Check::new(
            &format!("group {g} replicas agree on applied state"),
            all_equal(&digests) && digests.len() == cluster.group_replicas(g).len(),
            format!("(records, digest, applied) = {digests:?}"),
        ));
    }
    if !spec.migrations_at.is_empty() {
        checks.push(Check::new(
            "every scripted migration completed",
            counts.migrations_done as usize == spec.migrations_at.len(),
            format!("{} of {}", counts.migrations_done, spec.migrations_at.len()),
        ));
    }
    if spec.check_history {
        let mut history = Vec::new();
        for &c in cluster.clients() {
            history.extend(cluster.sim.actor::<WorkloadClient>(c).history_records());
        }
        checks.push(history_check(&history));
    }
    let traced = traced.then(|| {
        let (t, check) = traced_numbers(&cluster, (ws, we), (faults_from, faults_to));
        checks.push(check);
        t
    });
    host.check_s = tracer.exit();
    tracer.exit();
    CellRun {
        name: spec.name,
        counts,
        heap,
        host,
        checks,
        traced,
        ops: if closed { Vec::new() } else { ops },
        end_ns,
    }
}

/// The linearizability gate on a recorded single-key history.
pub fn history_check(history: &[paxraft_workload::linearize::OpRecord]) -> Check {
    let verdict = crate::linear::check_register(history);
    Check::new(
        "hot-key history is linearizable",
        verdict.is_ok() && !history.is_empty(),
        match verdict {
            Ok(()) => format!("{} operations", history.len()),
            Err(e) => e,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxraft_workload::linearize::{Action, OpRecord};

    #[test]
    fn the_gate_rejects_a_non_linearizable_history() {
        let op = |action, invoke_ns, respond_ns| OpRecord {
            client: 0,
            key: 0,
            action,
            invoke_ns,
            respond_ns,
        };
        // A read that returns a value only written after it responded.
        let bad = [
            op(Action::Read(Some(7)), 0, 10),
            op(Action::Write(7), 20, 30),
        ];
        assert!(!history_check(&bad).ok);
        let good = [
            op(Action::Write(7), 0, 10),
            op(Action::Read(Some(7)), 20, 30),
        ];
        assert!(history_check(&good).ok);
        assert!(!history_check(&[]).ok, "an empty history proves nothing");
    }

    #[test]
    fn window_numbers_count_late_and_outstanding_operations() {
        let ms = 1_000_000u64;
        let ops = [
            // On time, inside the window.
            Op {
                due_ns: 100 * ms,
                done_ns: Some(150 * ms),
            },
            // Due inside, answered late (after the window): failed, and
            // its stall is cut off at the close.
            Op {
                due_ns: 900 * ms,
                done_ns: Some(2_500 * ms),
            },
            // Due inside, never answered.
            Op {
                due_ns: 950 * ms,
                done_ns: None,
            },
            // Due before the window, answered inside it.
            Op {
                due_ns: 10 * ms,
                done_ns: Some(120 * ms),
            },
            // Entirely after the window.
            Op {
                due_ns: 1_100 * ms,
                done_ns: Some(1_200 * ms),
            },
        ];
        let mut c = Counts::default();
        window_numbers(&ops, 100 * ms, 1_000 * ms, 200 * ms, &mut c);
        assert_eq!((c.due, c.on_time, c.unanswered), (3, 1, 1));
        assert_eq!((c.completed, c.good), (2, 2));
        assert_eq!(c.p50_ns, 50 * ms);
        assert_eq!(c.p99_ns, 110 * ms);
        assert_eq!(c.max_stall_ns, 110 * ms, "cut off at the window close");
    }
}
