//! The four workloads and their cells. Each exists because it makes a
//! different set of layers do the work; the `why` strings say which, and
//! the README says which numbers each layer should move.
//!
//! All cells of a workload see identical traffic: same seed, same
//! clients, same windows. 5 replicas, one per region; 100 K records.

use paxraft_core::config::DurabilityConfig;
use paxraft_core::costs::CostModel;
use paxraft_core::harness::{Cluster, ClusterBuilder, ProtocolKind};
use paxraft_core::shard::{
    LeaderPlacement, MigrationSpec, RebalanceConfig, ShardConfig, ShardRouter,
};
use paxraft_core::snapshot::SnapshotConfig;
use paxraft_sim::net::NetConfig;
use paxraft_sim::time::SimDuration;
use paxraft_workload::generator::{WorkloadConfig, HOT_KEY};

use crate::cell::{CellSpec, Load};
use crate::openloop::Step;

/// A named set of cells run on the same traffic.
pub struct Workload {
    pub name: &'static str,
    /// One line: why this workload is in the benchmark.
    pub why: &'static str,
    pub cells: Vec<CellSpec>,
}

/// Names, in report order.
pub const NAMES: [&str; 4] = [
    "wan-paper",
    "lan-saturated",
    "fsync-overload",
    "shard-faults",
];

/// The `fsync-overload` ladder: offered ops per virtual second and for
/// how many ms, on a device whose per-entry fsync caps a leader at 1,000
/// ops/s. Three rungs below capacity long enough for a p99 each, a
/// two-second burst past it that leaves a backlog of well over a
/// thousand operations, and a closing rung below capacity long enough to
/// watch the backlog drain. The rates are the issue's; the burst is kept
/// to about a quarter of all operations so that the median stays a
/// statement about normal service and the p99, the stall and the on-time
/// share carry the overload. (Doubling every rung was tried: the spread
/// between seeds did not shrink — it comes from the retry feedback, not
/// from counting noise — and host time tripled.)
pub const LADDER: [(f64, u64); 6] = [
    (250.0, 5_000),
    (500.0, 5_000),
    (750.0, 5_000),
    (1_500.0, 1_000),
    (2_000.0, 1_000),
    (500.0, 8_000),
];

/// The `fsync-overload` session pool. Every outstanding request is re-sent
/// once a second, so the pool is the clients' admission control. 512 is
/// the smallest power of two that never limits the group-commit cell (its
/// virtual numbers are the same with 4,096), and the largest at which
/// per-entry Raft's retry load stays under the device's capacity on every
/// seed tried: with 1,024 some seeds tip into a retry storm and
/// `max_stall_ms` spreads by 39 % between seeds, from 2,048 up all do
/// (README).
const SESSIONS: usize = 512;

/// Write-only traffic with no hot key.
pub fn write_only(value_size: usize) -> WorkloadConfig {
    WorkloadConfig {
        read_fraction: 0.0,
        conflict_rate: 0.0,
        value_size,
        ..WorkloadConfig::default()
    }
}

/// The paper's mix: half reads, 5 % of operations on the hot key.
fn paper_mix() -> WorkloadConfig {
    WorkloadConfig {
        read_fraction: 0.5,
        conflict_rate: 0.05,
        ..WorkloadConfig::default()
    }
}

/// Virtual time allowed for leader election on the WAN before warm-up
/// (a bootstrap election takes one wide-area round trip; quorum leases
/// add 700 ms). Not divided under `--quick`: elections do not shrink.
const ELECT: SimDuration = SimDuration::from_millis(1_500);

fn ms(ms: u64, div: u64) -> SimDuration {
    SimDuration::from_millis(ms / div)
}

fn closed_cell(
    name: &'static str,
    builder: ClusterBuilder,
    (start, measure, limit): (SimDuration, SimDuration, SimDuration),
) -> CellSpec {
    CellSpec {
        name,
        builder,
        load: Load::Closed,
        start,
        measure,
        limit,
        fault_phase: SimDuration::ZERO,
        crash_leader: None,
        migrations_at: Vec::new(),
        check_history: false,
        min_samples: 0,
    }
}

const PROTOCOLS: [(&str, ProtocolKind); 5] = [
    ("raft", ProtocolKind::Raft),
    ("raftstar", ProtocolKind::RaftStar),
    ("multipaxos", ProtocolKind::MultiPaxos),
    ("mencius", ProtocolKind::RaftStarMencius),
    ("pql", ProtocolKind::RaftStarPql),
];

fn kind(name: &str) -> ProtocolKind {
    PROTOCOLS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, k)| *k)
        .expect("a known protocol name")
}

/// Builds workload `name`; `div` divides every window (1 for a full run,
/// 10 for `--quick`).
///
/// # Panics
///
/// Panics on a name outside [`NAMES`].
pub fn workload(name: &str, div: u64) -> Workload {
    let mut w = match name {
        "wan-paper" => wan_paper(div),
        "lan-saturated" => lan_saturated(div),
        "fsync-overload" => fsync_overload(div),
        "shard-faults" => shard_faults(div),
        other => panic!("unknown workload {other}"),
    };
    for cell in &mut w.cells {
        cell.min_samples = 1_000 / div;
    }
    w
}

fn wan_paper(div: u64) -> Workload {
    let windows = (ELECT + ms(1_000, div), ms(8_000, div), ms(1_000, 1));
    let cells = PROTOCOLS
        .iter()
        .map(|&(name, protocol)| {
            let builder = Cluster::builder(protocol)
                .clients_per_region(50)
                .workload(paper_mix())
                .record_history_for(HOT_KEY);
            let mut cell = closed_cell(name, builder, windows);
            cell.check_history = true;
            cell
        })
        .collect();
    Workload {
        name: "wan-paper",
        why: "the paper's 5-region testbed (RTT 25-292 ms): latency-bound, so the rules files \
              decide the virtual numbers and, through the uncompacted log, the host time",
        cells,
    }
}

fn lan_saturated(div: u64) -> Workload {
    let lan = NetConfig {
        rtt_ms: [[0.6; 5]; 5],
        ..NetConfig::default()
    };
    // On a LAN the bootstrap leader is up within a millisecond (the
    // harness notices at its first 50 ms poll), so warm-up starts almost
    // at once. Mencius processes about three
    // times the events of Raft per virtual second here, so its windows
    // are shorter to keep the two cells' host cost comparable.
    let limit = ms(100, 1);
    let mut cells: Vec<CellSpec> = [
        ("raft", ms(100, 1) + ms(200, div), ms(600, div)),
        ("mencius", ms(100, 1) + ms(100, div), ms(300, div)),
    ]
    .into_iter()
    .map(|(name, start, measure)| {
        let builder = Cluster::builder(kind(name))
            .clients_per_region(75)
            .workload(write_only(8))
            .net(lan.clone());
        closed_cell(name, builder, (start, measure, limit))
    })
    .collect();
    let thin = NetConfig {
        bandwidth_bps: 75.0e6,
        ..lan.clone()
    };
    cells.push(closed_cell(
        "raft-4k",
        Cluster::builder(ProtocolKind::Raft)
            .clients_per_region(10)
            .workload(write_only(4096))
            .net(thin),
        (ms(1_000, div), ms(10_000, div), limit),
    ));
    Workload {
        name: "lan-saturated",
        why: "one datacentre, write-only, leader CPU (8 B) or NIC (4 KB) saturated: the engine's \
              batch cutter and window decide goodput and the sim core dominates host time",
        cells,
    }
}

fn fsync_overload(div: u64) -> Workload {
    let steps: Vec<Step> = LADDER
        .iter()
        .map(|&(rate_ops, dur_ms)| Step {
            rate_ops,
            dur: ms(dur_ms, div),
        })
        .collect();
    let measure = ms(LADDER.iter().map(|s| s.1).sum(), div);
    // The lowest rate runs for a second before the window opens, so the
    // first measured arrivals meet a cluster that is already replicating.
    let warmup = ms(1_000, div);
    let mut steps = steps;
    steps.insert(
        0,
        Step {
            rate_ops: LADDER[0].0,
            dur: warmup,
        },
    );
    let device = SimDuration::from_millis(1);
    let cells = [
        ("raft", DurabilityConfig::per_entry(device)),
        // The bypass cell: with group commit the device is not the
        // bottleneck, so the ladder never overloads it.
        (
            "raft-gc",
            DurabilityConfig::group_commit(device, 32, SimDuration::from_millis(1)),
        ),
    ]
    .into_iter()
    .map(|(name, durability)| CellSpec {
        name,
        builder: Cluster::builder(ProtocolKind::Raft).durability_config(durability),
        load: Load::Open {
            steps: steps.clone(),
            sessions: SESSIONS,
        },
        start: ELECT + warmup,
        measure,
        limit: ms(1_000, 1),
        fault_phase: SimDuration::ZERO,
        crash_leader: None,
        migrations_at: Vec::new(),
        check_history: false,
        min_samples: 0,
    })
    .collect();
    Workload {
        name: "fsync-overload",
        why: "open-loop Poisson ladder through and past a 1 ms per-entry-fsync device's capacity: \
              durability, the disk model and admission/retry do the work; shows overload and recovery",
        cells,
    }
}

fn shard_faults(div: u64) -> Workload {
    // Inside the window, the faults whose timing the seed does not roll
    // dice for: group 1's range migrates into group 0 at +3 s and back at
    // +12 s, so the window's numbers answer to the router, the freeze and
    // the export/install path. After it, in the fault phase, the one that
    // waits on a randomized election timeout: group 0's leader crashes at
    // +1 s and restarts into a snapshot catch-up at +5 s.
    let start = ELECT + ms(1_000, div);
    let measure = ms(20_000, div);
    let limit = ms(1_000, 1);
    let faults = measure + limit;
    let records = WorkloadConfig::default().records;
    let (lo, hi) = ShardRouter::new(records, 4).range(1);
    let moves = [(start + ms(3_000, div), 0), (start + ms(12_000, div), 1)];
    let cells = ["raft", "multipaxos"]
        .iter()
        .map(|&name| {
            let mut plan = RebalanceConfig::default();
            for &(at, to_group) in &moves {
                plan = plan.migrate(MigrationSpec {
                    at,
                    lo,
                    hi,
                    to_group,
                });
            }
            let builder = Cluster::builder(kind(name))
                .clients_per_region(25)
                .workload(paper_mix())
                .costs(CostModel::default().scaled_cpu(200))
                .snapshot_config(SnapshotConfig::every(2_048))
                .shard_config(ShardConfig::groups(4).placement(LeaderPlacement::RoundRobin))
                .rebalance_config(plan)
                .record_history_for(HOT_KEY);
            CellSpec {
                name,
                builder,
                load: Load::Closed,
                start,
                measure,
                limit,
                fault_phase: ms(9_000, div),
                crash_leader: Some((faults + ms(1_000, div), faults + ms(5_000, div))),
                migrations_at: moves.iter().map(|m| m.0).collect(),
                check_history: true,
                min_samples: 0,
            }
        })
        .collect();
    Workload {
        name: "shard-faults",
        why:
            "4 groups on a slow CPU with compaction on; a live range migration out and back inside \
              the window, a leader crash and restart after it: router, freeze/export/install, \
              snapshots, election",
        cells,
    }
}
