//! Micro-benchmarks for protocol-critical paths: log append,
//! replication-progress tracking, lease checks, the simulator event
//! loop, and a small model-checking run.
//!
//! Uses a self-contained timing harness (`harness = false`) so the
//! workspace carries no external bench dependency; each benchmark is
//! run for a fixed number of timed iterations after a short warm-up and
//! reported as ns/iter (median of samples).
//!
//! Besides the stdout table, results are written as JSON to the path in
//! `BENCH_JSON_OUT` (default `BENCH.json` in the working directory); CI
//! points that at a per-PR file to archive the perf trajectory.

use std::hint::black_box;
use std::time::Instant;

use paxraft_core::config::{LeaseConfig, ReadMode};
use paxraft_core::kv::{CmdId, Command};
use paxraft_core::log::{Entry, Log};
use paxraft_core::pql::LeaseManager;
use paxraft_core::replicate::Replicator;
use paxraft_core::types::{NodeId, Slot, Term};
use paxraft_sim::net::{NetConfig, Region};
use paxraft_sim::sim::{Actor, ActorId, Ctx, Payload, Simulation};
use paxraft_sim::time::SimTime;

/// Collects `(name, median ns/iter)` rows plus named virtual-time
/// series (telemetry samples from the sweep benchmarks) for the JSON
/// report.
struct Reporter {
    rows: Vec<(String, f64)>,
    /// `(name, [(t_secs, value), ...])` — per-group telemetry series.
    series: Vec<(String, Vec<(f64, f64)>)>,
}

impl Reporter {
    /// Writes the collected rows as a flat JSON object, with the
    /// telemetry series nested under a trailing `"timeseries"` key
    /// (hand-rolled: the workspace is intentionally dependency-free).
    fn write_json(&self, path: &str) -> std::io::Result<()> {
        fn num(v: f64) -> String {
            if v.is_finite() {
                format!("{v:.3}")
            } else {
                "null".to_string()
            }
        }
        let mut out = String::from("{\n");
        for (name, median) in &self.rows {
            out.push_str(&format!("  \"{name}\": {median:.1},\n"));
        }
        out.push_str("  \"timeseries\": {\n");
        for (i, (name, points)) in self.series.iter().enumerate() {
            let comma = if i + 1 == self.series.len() { "" } else { "," };
            let pts: Vec<String> = points
                .iter()
                .map(|&(t, v)| format!("[{}, {}]", num(t), num(v)))
                .collect();
            out.push_str(&format!("    \"{name}\": [{}]{comma}\n", pts.join(", ")));
        }
        out.push_str("  }\n}\n");
        std::fs::write(path, out)
    }
}

/// Times `f` over `samples` samples of `iters` iterations each and
/// prints the median ns/iter.
fn bench(rep: &mut Reporter, name: &str, samples: usize, iters: usize, mut f: impl FnMut()) {
    // Warm-up.
    for _ in 0..iters.min(3) {
        f();
    }
    let mut per_iter: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        per_iter.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    record(rep, name, per_iter, iters);
}

/// Prints and keeps the median of `per_iter` (ns/iter, one per sample).
fn record(rep: &mut Reporter, name: &str, mut per_iter: Vec<f64>, iters: usize) {
    per_iter.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let median = per_iter[per_iter.len() / 2];
    let samples = per_iter.len();
    println!("{name:<40} {median:>14.0} ns/iter  ({samples} x {iters})");
    rep.rows.push((name.to_string(), median));
}

fn bench_log_append(rep: &mut Reporter) {
    bench(rep, "log_append_1k", 10, 20, || {
        let mut log = Log::new();
        for i in 0..1000u64 {
            log.append(Entry {
                term: Term(1),
                bal: Term(1),
                cmd: Command::put(CmdId { client: 1, seq: i }, i, vec![0; 8]),
            });
        }
        black_box(log.last_index());
    });
}

fn bench_replicator(rep: &mut Reporter) {
    bench(rep, "replicator_ack_commit_track", 10, 50, || {
        let mut r = Replicator::new(5);
        for i in 1..=100u64 {
            for p in 1..5u32 {
                r.on_ack(NodeId(p), Slot(i));
            }
            black_box(r.kth_largest_match(2, NodeId(0)));
        }
    });
}

fn bench_lease_check(rep: &mut Reporter) {
    let mut lm = LeaseManager::new(LeaseConfig::default(), ReadMode::QuorumLease, 5, NodeId(2));
    let now = SimTime::from_millis(100);
    lm.self_grant(now);
    for g in [0u32, 1, 3, 4] {
        lm.on_grant(NodeId(g), SimTime::from_secs(5), Slot::NONE, SimTime::ZERO);
        lm.on_grant_ack(NodeId(g), SimTime::from_secs(5));
    }
    bench(rep, "pql_quorum_lease_check", 10, 10_000, || {
        black_box(lm.has_quorum_lease(now) && lm.current_holders(now) != 0);
    });
}

#[derive(Debug, Clone)]
struct Ping;
impl Payload for Ping {
    fn size_bytes(&self) -> usize {
        16
    }
}
struct Echo {
    peer: ActorId,
    left: u32,
}
impl Actor<Ping> for Echo {
    fn on_start(&mut self, ctx: &mut Ctx<Ping>) {
        ctx.send(self.peer, Ping);
    }
    fn on_message(&mut self, ctx: &mut Ctx<Ping>, from: ActorId, _m: Ping) {
        if self.left > 0 {
            self.left -= 1;
            ctx.send(from, Ping);
        }
    }
    paxraft_sim::impl_actor_any!();
}

fn bench_sim_event_loop(rep: &mut Reporter) {
    bench(rep, "sim_10k_message_events", 5, 3, || {
        let mut sim = Simulation::new(NetConfig::default(), 7);
        let a = sim.add_actor(
            Region::Oregon,
            Box::new(Echo {
                peer: ActorId(1),
                left: 5000,
            }),
        );
        let _b = sim.add_actor(
            Region::Ohio,
            Box::new(Echo {
                peer: a,
                left: 5000,
            }),
        );
        sim.run_to_quiescence(SimTime::from_secs(3600));
        black_box(sim.stats.deliveries);
    });
}

/// A message as wide as the protocols' own (`Msg` is 104 bytes).
#[derive(Debug, Clone)]
struct Wide([u64; 13]);
impl Payload for Wide {
    fn size_bytes(&self) -> usize {
        std::mem::size_of_val(&self.0)
    }
}

/// Starts `volley` messages round-robin to its four peers and bounces
/// back whatever arrives until `left` runs out.
struct Fan {
    volley: usize,
    left: u32,
}
impl Actor<Wide> for Fan {
    fn on_start(&mut self, ctx: &mut Ctx<Wide>) {
        let me = ctx.self_id().0;
        for k in 0..self.volley {
            ctx.send(ActorId((me + 1 + k % 4) % 5), Wide([k as u64; 13]));
        }
    }
    fn on_message(&mut self, ctx: &mut Ctx<Wide>, from: ActorId, msg: Wide) {
        if self.left > 0 {
            self.left -= 1;
            ctx.send(from, msg);
        }
    }
    paxraft_sim::impl_actor_any!();
}

/// The sim core at the depth and width the real cells run it at: five
/// actors, one per region of the default WAN matrix, 104-byte messages,
/// about 4,096 of them in flight at any moment (500,000 deliveries,
/// three events each, up to three trips through the heap). `sim_10k_message_events` keeps at most two
/// events queued and carries 16 bytes, so what the heap sifts and what a
/// push copies do not show there.
fn bench_sim_deep_queue(rep: &mut Reporter) {
    bench(rep, "sim_msg104_4k_in_flight", 5, 1, || {
        let mut sim = Simulation::new(NetConfig::default(), 7);
        for region in Region::ALL {
            let fan = Fan {
                volley: 4096 / 5,
                left: 100_000,
            };
            sim.add_actor(region, Box::new(fan));
        }
        sim.run_to_quiescence(SimTime::from_secs(3600));
        black_box(sim.stats.deliveries);
    });
}

/// The apply path at the width and depth the real cells run it at: five
/// stores (a replica each), one seeded stream of 200,000 writes of 8-byte
/// values to random keys out of 100,000, every write applied to each
/// store in turn — 1,000,000 applies per iteration, each landing on a
/// line the previous four stores pushed out of the cache. The ledger's
/// `kv.apply_ns` applies to one warm store and reads 50-120 ns where this
/// path is 10-21 % of a cell's measured window. Only the applies are
/// timed: the commands are built before and the stores dropped after.
fn bench_kv_apply_wide(rep: &mut Reporter) {
    use paxraft_core::kv::KvStore;
    use paxraft_sim::rng::SimRng;
    let mut rng = SimRng::new(0x6b76);
    let cmds: Vec<Command> = (0..200_000u64)
        .map(|i| {
            let id = CmdId {
                client: (i % 250) as u32,
                seq: 1 + i / 250,
            };
            Command::put(id, rng.gen_range(100_000), vec![0; 8])
        })
        .collect();
    let per_iter = (0..5)
        .map(|_| {
            let mut stores: Vec<KvStore> = (0..5).map(|_| KvStore::new()).collect();
            let start = Instant::now();
            for cmd in &cmds {
                for kv in &mut stores {
                    black_box(kv.apply(cmd));
                }
            }
            let elapsed = start.elapsed().as_nanos() as f64;
            assert_eq!(stores[4].applied_ops(), cmds.len() as u64);
            elapsed
        })
        .collect();
    record(rep, "kv_apply_5x100k_random", per_iter, 1);
}

fn bench_model_check_small(rep: &mut Reporter) {
    use paxraft_spec::check::{explore, Limits};
    use paxraft_spec::specs::multipaxos::{self, MpConfig};
    let cfg = MpConfig::default();
    let mp = multipaxos::spec(&cfg);
    bench(rep, "model_check_multipaxos_2k_states", 5, 3, || {
        let report = explore(&mp, &[], Limits::states(2_000));
        black_box(report.states);
    });
}

fn bench_cluster_commit(rep: &mut Reporter) {
    use paxraft_core::harness::{Cluster, ProtocolKind};
    use paxraft_core::kv::Op;
    bench(rep, "raftstar_cluster_100_commits", 3, 1, || {
        let mut cluster = Cluster::builder(ProtocolKind::RaftStar).seed(3).build();
        cluster.elect_leader();
        for k in 0..100 {
            cluster
                .submit_and_wait(Op::Put {
                    key: k,
                    value: vec![0; 8].into(),
                })
                .expect("commit");
        }
        black_box(cluster.sim.now());
    });
}

/// Pipeline-depth sweep on the high-latency WAN config: virtual time for
/// one closed-loop client to complete 100 write commits, per window
/// depth (0 = pipelining off, the pre-PR3 batching discipline), measured
/// both co-located with the leader and from the farthest follower region
/// (where the forward path pays the batch delay twice); plus aggregate
/// closed-loop throughput. These rows are *virtual-clock* measurements —
/// deterministic for the fixed seed — so the perf trajectory across PRs
/// is noise-free.
fn bench_pipeline_sweep(rep: &mut Reporter) {
    use paxraft_core::client::WorkloadClient;
    use paxraft_core::engine::PipelineConfig;
    use paxraft_core::harness::{Cluster, ProtocolKind};
    use paxraft_sim::rng::SimRng;
    use paxraft_sim::time::SimDuration;
    use paxraft_workload::generator::{Generator, WorkloadConfig};

    let serial_100 = |pipeline: PipelineConfig, region_idx: usize| -> f64 {
        let mut cluster = Cluster::builder(ProtocolKind::RaftStar)
            .seed(3)
            .pipeline_config(pipeline)
            .build();
        cluster.elect_leader();
        let writes = WorkloadConfig {
            read_fraction: 0.0,
            conflict_rate: 0.0,
            ..Default::default()
        };
        let target = cluster.replicas()[region_idx];
        // The first client actor added after the replicas maps to
        // logical client 0 (`client_base == replica count`).
        let wc = WorkloadClient::new(0, target, Generator::new(writes, 0, SimRng::new(9)));
        let added_at = cluster.sim.now();
        let wc_id = cluster.sim.add_actor(Region::ALL[region_idx], Box::new(wc));
        while cluster.sim.actor::<WorkloadClient>(wc_id).completions.len() < 100 {
            cluster.sim.run_for(SimDuration::from_millis(50));
        }
        let done = cluster.sim.actor::<WorkloadClient>(wc_id).completions[99].at_ns;
        (done - added_at.as_nanos()) as f64 / 1e6
    };
    for depth in [0usize, 2, 4, 8] {
        let ms = serial_100(PipelineConfig::depth(depth), 0);
        let name = format!("pipeline_depth{depth}_100_commits_leader_region_virtual_ms");
        println!("{name:<55} {ms:>10.3} ms (virtual)");
        rep.rows.push((name, ms));
    }
    for depth in [0usize, 8] {
        let ms = serial_100(PipelineConfig::depth(depth), 4); // Seoul: the farthest follower
        let name = format!("pipeline_depth{depth}_100_commits_follower_region_virtual_ms");
        println!("{name:<55} {ms:>10.3} ms (virtual)");
        rep.rows.push((name, ms));
    }
    // Follower-side adaptive forwarding is on by default since PR 5;
    // this row re-measures the old default (hints off) so the pair
    // documents what the flip buys on the far-follower forward path
    // (the ~2 ms batch delay per commit).
    {
        let ms = serial_100(PipelineConfig::default().without_follower_hints(), 4);
        let name = "pipeline_depth8_nohints_100_commits_follower_region_virtual_ms".to_string();
        println!("{name:<55} {ms:>10.3} ms (virtual)");
        rep.rows.push((name, ms));
    }
    for depth in [0usize, 8] {
        let w = WorkloadConfig {
            read_fraction: 0.5,
            conflict_rate: 0.2,
            ..Default::default()
        };
        let mut cluster = Cluster::builder(ProtocolKind::RaftStar)
            .clients_per_region(2)
            .workload(w)
            .seed(7)
            .pipeline_config(PipelineConfig::depth(depth))
            .build();
        cluster.elect_leader();
        let r = cluster.run_measurement(
            SimDuration::from_secs(2),
            SimDuration::from_secs(5),
            SimDuration::from_secs(1),
        );
        let name = format!("raftstar_wan_closed_loop_depth{depth}_ops_per_sec");
        println!("{name:<55} {:>10.1} ops/s (virtual)", r.throughput_ops);
        rep.rows.push((name, r.throughput_ops));
    }
}

/// Shard-count sweep (the PR 4 scaling demonstration): fixed-seed
/// closed-loop throughput at 1/2/4 replica groups per node, for both
/// leader-placement policies and both protocol families.
///
/// The CPU cost model is scaled 200× so a *small* client fleet saturates
/// one leader's CPU (the default constants put single-leader saturation
/// near the paper's 41K ops/s, far beyond what a seconds-long simulated
/// closed loop can offer); with the leader CPU as the bottleneck, adding
/// groups — each group's replica is its own actor with its own CPU —
/// lifts the ceiling linearly until the workload is latency-bound again.
/// Virtual-clock rows: deterministic for the fixed seed.
fn bench_shard_sweep(rep: &mut Reporter) {
    use paxraft_core::costs::CostModel;
    use paxraft_core::harness::{Cluster, ProtocolKind};
    use paxraft_core::shard::{LeaderPlacement, ShardConfig};
    use paxraft_sim::time::SimDuration;
    use paxraft_workload::generator::WorkloadConfig;

    let w = WorkloadConfig {
        read_fraction: 0.5,
        conflict_rate: 0.0,
        ..Default::default()
    };
    for (pname, protocol) in [
        ("raft", ProtocolKind::Raft),
        ("multipaxos", ProtocolKind::MultiPaxos),
    ] {
        for placement in [LeaderPlacement::AllOnOne, LeaderPlacement::RoundRobin] {
            for groups in [1usize, 2, 4] {
                let mut cluster = Cluster::builder(protocol)
                    .clients_per_region(25)
                    .workload(w.clone())
                    .seed(42)
                    .costs(CostModel::default().scaled_cpu(200))
                    .shard_config(ShardConfig::groups(groups).placement(placement))
                    .build_sharded();
                cluster.elect_leaders();
                let r = cluster.run_measurement(
                    SimDuration::from_secs(2),
                    SimDuration::from_secs(5),
                    SimDuration::from_secs(1),
                );
                let name = format!(
                    "shard_{pname}_groups{groups}_{}_ops_per_sec",
                    placement.name()
                );
                println!("{name:<55} {:>10.1} ops/s (virtual)", r.throughput_ops);
                rep.rows.push((name, r.throughput_ops));
            }
        }
    }
}

/// 4 KB-payload calibration (the paper's Figure 10b regime, where the
/// NIC rather than the leader CPU saturates): sweep `pipeline_depth` and
/// `batch_max` under 4 KB writes on a bandwidth-starved NIC (75 Mbps =
/// the testbed's 750 Mbps scaled 10× down, so a 50-client closed loop
/// reaches saturation). Justifies the defaults: once bytes dominate,
/// larger batches cannot buy throughput (the NIC moves the same bytes
/// either way), while pipelining still hides the round trip.
fn bench_payload_4kb(rep: &mut Reporter) {
    use paxraft_core::engine::PipelineConfig;
    use paxraft_core::harness::{Cluster, ProtocolKind};
    use paxraft_sim::net::NetConfig;
    use paxraft_sim::time::SimDuration;
    use paxraft_workload::generator::WorkloadConfig;

    let w = WorkloadConfig {
        read_fraction: 0.0,
        conflict_rate: 0.0,
        value_size: 4096,
        ..Default::default()
    };
    let net = NetConfig {
        bandwidth_bps: 75.0e6,
        ..NetConfig::default()
    };
    let run = |depth: usize, batch_max: usize| -> f64 {
        let mut cluster = Cluster::builder(ProtocolKind::RaftStar)
            .clients_per_region(10)
            .workload(w.clone())
            .seed(42)
            .net(net.clone())
            .batch_max(batch_max)
            .pipeline_config(PipelineConfig::depth(depth))
            .build();
        cluster.elect_leader();
        let r = cluster.run_measurement(
            SimDuration::from_secs(2),
            SimDuration::from_secs(5),
            SimDuration::from_secs(1),
        );
        r.throughput_ops
    };
    // batch_max swept in the timer-batched regime (depth 0) where it
    // actually binds; the depth-8 row now runs with the NIC-aware
    // cutter (on by default since PR 5): once the egress backlog
    // crosses a quarter of the batch delay the cutter stops cutting
    // eagerly and accumulates, recovering about a third of the ~9%
    // that per-command eager rounds lost to per-message overhead on a
    // saturated NIC (the PR 4 finding; the residual gap comes from the
    // per-peer window gating itself — see ROADMAP).
    for (depth, batch_max) in [(0usize, 8usize), (0, 64), (0, 256), (8, 64)] {
        let ops = run(depth, batch_max);
        let name = format!("payload_4kb_depth{depth}_batchmax{batch_max}_ops_per_sec");
        println!("{name:<55} {ops:>10.1} ops/s (virtual)");
        rep.rows.push((name, ops));
    }
    // Regression row: the same depth-8 run with NIC-aware cutting
    // forced off reproduces the PR 4 loss, pinning what the new cutter
    // buys.
    {
        let mut cluster = Cluster::builder(ProtocolKind::RaftStar)
            .clients_per_region(10)
            .workload(w.clone())
            .seed(42)
            .net(net.clone())
            .batch_max(64)
            .pipeline_config(PipelineConfig::depth(8).without_nic_aware_cutting())
            .build();
        cluster.elect_leader();
        let r = cluster.run_measurement(
            SimDuration::from_secs(2),
            SimDuration::from_secs(5),
            SimDuration::from_secs(1),
        );
        let name = "payload_4kb_depth8_nicoff_ops_per_sec".to_string();
        println!("{name:<55} {:>10.1} ops/s (virtual)", r.throughput_ops);
        rep.rows.push((name, r.throughput_ops));
    }
}

/// Live-rebalancing sweep (the PR 5 demonstration): fixed-seed
/// closed-loop throughput of a 2-group cluster through a scripted merge
/// (group 1's range into group 0 — manufacturing the hot-range regime
/// where one leader absorbs the whole keyspace) and the subsequent split
/// back out, for both protocol families. CPU costs scaled 200× as in the
/// shard sweep so the leader CPU is the bottleneck; virtual-clock rows,
/// deterministic for the fixed seed. `during` overlaps the merge's
/// freeze/transfer/install window — the price of migrating under load —
/// and `postsplit` shows the split restoring the balanced ceiling.
///
/// The run also samples per-group telemetry every 100 ms of virtual
/// time and embeds the `throughput_ops`/`pending_depth` series in the
/// JSON (under `"timeseries"`), so the artifact carries the *shape* of
/// the migration window — the dip and the post-split recovery — not
/// just the four phase means. Sampling is driven between simulation
/// steps and never perturbs the schedule, so the phase rows are
/// bit-for-bit what a telemetry-off run reports (pinned by the
/// conformance suite's determinism tests).
fn bench_rebalance_sweep(rep: &mut Reporter) {
    use paxraft_core::costs::CostModel;
    use paxraft_core::harness::{Cluster, ProtocolKind};
    use paxraft_core::shard::{MigrationSpec, RebalanceConfig, ShardConfig, ShardRouter};
    use paxraft_core::telemetry::TelemetryConfig;
    use paxraft_sim::time::SimDuration;
    use paxraft_workload::generator::WorkloadConfig;

    let w = WorkloadConfig {
        read_fraction: 0.5,
        conflict_rate: 0.0,
        ..Default::default()
    };
    let router = ShardRouter::new(w.records, 2);
    let (lo1, hi1) = router.range(1);
    for (pname, protocol) in [
        ("raft", ProtocolKind::Raft),
        ("multipaxos", ProtocolKind::MultiPaxos),
    ] {
        let mut cluster = Cluster::builder(protocol)
            .clients_per_region(25)
            .workload(w.clone())
            .seed(42)
            .costs(CostModel::default().scaled_cpu(200))
            .shard_config(ShardConfig::groups(2))
            .rebalance_config(
                RebalanceConfig::default()
                    .migrate(MigrationSpec {
                        at: SimDuration::from_millis(5_500),
                        lo: lo1,
                        hi: hi1,
                        to_group: 0,
                    })
                    .migrate(MigrationSpec {
                        at: SimDuration::from_millis(10_500),
                        lo: lo1,
                        hi: hi1,
                        to_group: 1,
                    }),
            )
            .telemetry_config(TelemetryConfig::sampled())
            .build_sharded();
        cluster.elect_leaders();
        let phases = [
            (
                "steady",
                SimDuration::from_secs(2),
                SimDuration::from_secs(3),
                SimDuration::ZERO,
            ),
            (
                "during",
                SimDuration::ZERO,
                SimDuration::from_secs(3),
                SimDuration::ZERO,
            ),
            (
                "merged",
                SimDuration::ZERO,
                SimDuration::from_secs(2),
                SimDuration::from_millis(500),
            ),
            (
                "postsplit",
                SimDuration::from_millis(1_500),
                SimDuration::from_secs(3),
                SimDuration::ZERO,
            ),
        ];
        for (phase, warmup, measure, cooldown) in phases {
            let r = cluster.run_measurement(warmup, measure, cooldown);
            let name = format!("rebalance_{pname}_{phase}_ops_per_sec");
            println!("{name:<55} {:>10.1} ops/s (virtual)", r.throughput_ops);
            rep.rows.push((name, r.throughput_ops));
        }
        // Embed the per-group series covering all four phases.
        let all = cluster.telemetry_series();
        for g in 0..2u32 {
            for metric in ["throughput_ops", "pending_depth"] {
                let sname = format!("group{g}/{metric}");
                let s = all
                    .iter()
                    .find(|s| s.name == sname)
                    .unwrap_or_else(|| panic!("series {sname} was collected"));
                assert!(!s.points.is_empty(), "{sname} has samples");
                rep.series.push((
                    format!("rebalance_{pname}_group{g}_{metric}"),
                    s.points
                        .iter()
                        .map(|&(at, v)| (at.as_millis_f64() / 1e3, v))
                        .collect(),
                ));
            }
        }
        cluster.run_until_rebalanced(SimDuration::from_secs(30));
        assert_eq!(
            cluster.migrations_completed(),
            vec![1, 2],
            "{pname}: both scripted migrations completed"
        );
    }
}

fn main() {
    let mut rep = Reporter {
        rows: Vec::new(),
        series: Vec::new(),
    };
    let rep = &mut rep;
    println!("{:<40} {:>14}", "benchmark", "median");
    bench_log_append(rep);
    bench_replicator(rep);
    bench_lease_check(rep);
    bench_sim_event_loop(rep);
    bench_sim_deep_queue(rep);
    bench_kv_apply_wide(rep);
    bench_model_check_small(rep);
    bench_cluster_commit(rep);
    bench_pipeline_sweep(rep);
    bench_shard_sweep(rep);
    bench_payload_4kb(rep);
    bench_rebalance_sweep(rep);
    let path = std::env::var("BENCH_JSON_OUT").unwrap_or_else(|_| "BENCH.json".into());
    match rep.write_json(&path) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\nfailed to write {path}: {e}"),
    }
}
