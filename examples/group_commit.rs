//! Group commit on a modeled disk (the paper's Figure-10 regime): the
//! same closed-loop write workload over every protocol, with acks
//! forced to wait for durability under two fsync policies.
//!
//! With **fsync-per-entry**, every appended entry waits out its own
//! flush barrier before the replica may acknowledge it — on a 1 ms
//! device the disk, not the WAN, becomes the pipeline's bottleneck.
//! With **group commit**, unsynced entries accumulate and one batched
//! fsync covers all of them; the device cost amortizes across the batch
//! and throughput largely decouples from fsync latency. Because the
//! ack-after-fsync invariant lives in the shared replica engine, the
//! optimization is written once and all four rule sets — Raft, Raft*,
//! MultiPaxos and Mencius — inherit it unchanged; the sweep shows the
//! same recovery for each.
//!
//! A write that finds the device idle and the last write `max_delay` or
//! more behind it is fsynced at once; under this load writes keep
//! arriving, so the batches still form behind the in-flight fsync.
//!
//! Prints ops/s per protocol × policy × fsync latency plus the measured
//! mean fsync batch length, and asserts at 1 ms group commit's ≥2×
//! advantage and, for the single-leader protocols, a mean batch of at
//! least 20 entries.
//!
//! Run with: `cargo run --release --example group_commit`

use paxraft::core::config::DurabilityConfig;
use paxraft::core::harness::{Cluster, ProtocolKind};
use paxraft::sim::time::SimDuration;
use paxraft::workload::generator::WorkloadConfig;

const PROTOCOLS: [ProtocolKind; 4] = [
    ProtocolKind::Raft,
    ProtocolKind::RaftStar,
    ProtocolKind::MultiPaxos,
    ProtocolKind::RaftStarMencius,
];

/// One measured cell: ops/s, fsyncs, and the mean fsync batch length.
fn run(protocol: ProtocolKind, durability: DurabilityConfig) -> (f64, u64, f64) {
    let workload = WorkloadConfig {
        read_fraction: 0.0, // all writes: every op rides the durability path
        conflict_rate: 0.0,
        ..Default::default()
    };
    let mut cluster = Cluster::builder(protocol)
        .clients_per_region(75)
        .workload(workload)
        .durability_config(durability)
        .seed(19)
        .build();
    cluster.elect_leader();
    let report = cluster.run_measurement(
        SimDuration::from_secs(2),
        SimDuration::from_secs(5),
        SimDuration::from_secs(1),
    );
    (
        report.throughput_ops,
        report.durability.fsyncs,
        report.durability.mean_batch_len(),
    )
}

fn policies(fsync: SimDuration) -> [DurabilityConfig; 2] {
    [
        DurabilityConfig::per_entry(fsync),
        DurabilityConfig::group_commit(fsync, 32, SimDuration::from_millis(1)),
    ]
}

fn main() {
    println!("closed-loop writes, 75 clients/region; acks wait for fsync\n");
    println!("  protocol      fsync   per-entry    group-commit   speedup  mean batch");
    for fsync_ms in [1u64, 5] {
        let fsync = SimDuration::from_millis(fsync_ms);
        for p in PROTOCOLS {
            let [(per_entry, _), (group_commit, mean_batch)] = policies(fsync).map(|durability| {
                let (thr, fsyncs, mean_batch) = run(p, durability);
                assert!(fsyncs > 0, "{}: the run hit the disk", p.name());
                (thr, mean_batch)
            });
            println!(
                "  {:<12} {:>4}ms  {:>7.1} op/s  {:>8.1} op/s  {:>6.2}x  {:>8.1}",
                p.name(),
                fsync_ms,
                per_entry,
                group_commit,
                group_commit / per_entry,
                mean_batch
            );
            if fsync_ms == 1 && p != ProtocolKind::RaftStarMencius {
                assert!(
                    mean_batch >= 20.0,
                    "{} @1ms: a dense stream still batches ({mean_batch:.1} entries per fsync)",
                    p.name()
                );
            }
            if fsync_ms == 1 {
                assert!(
                    group_commit >= 2.0 * per_entry,
                    "{} @1ms: group commit at least doubles per-entry throughput \
                     ({:.1} vs {:.1} ops/s)",
                    p.name(),
                    group_commit,
                    per_entry
                );
            }
        }
    }
    println!(
        "\nPer-entry fsync serializes one device latency per entry; group commit\n\
         batches them behind a single barrier, so the acks — and the paper's\n\
         ported optimizations above them — stop paying the disk per entry."
    );
}
