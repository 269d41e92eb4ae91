//! Prints an exact behavioral fingerprint of a fixed-seed run for every
//! protocol, used to verify that refactors preserve behavior bit-for-bit.
//! `tests/parity.rs` compiles this file as a module and compares
//! [`fingerprints`] with the pinned `PARITY_pr13.txt`.

use paxraft::core::harness::{Cluster, ProtocolKind};
use paxraft::core::snapshot::SnapshotConfig;
use paxraft::sim::time::SimDuration;
use paxraft::workload::generator::WorkloadConfig;

fn fingerprint(p: ProtocolKind, seed: u64, snapshots: bool) -> String {
    let w = WorkloadConfig {
        read_fraction: 0.5,
        conflict_rate: 0.2,
        ..Default::default()
    };
    let mut b = Cluster::builder(p)
        .clients_per_region(2)
        .workload(w)
        .seed(seed);
    if snapshots {
        b = b.snapshot_config(SnapshotConfig::every(32));
    }
    let mut cluster = b.build();
    cluster.elect_leader();
    let r = cluster.run_measurement(
        SimDuration::from_secs(2),
        SimDuration::from_secs(5),
        SimDuration::from_secs(1),
    );
    format!(
        "{} seed={} snaps={} thr={:.6} lr={:?} fr={:?} lw={:?} fw={:?} snapstats={:?} now={}",
        p.name(),
        seed,
        snapshots,
        r.throughput_ops,
        r.leader_reads,
        r.follower_reads,
        r.leader_writes,
        r.follower_writes,
        r.snapshots,
        cluster.sim.now()
    )
}

/// One fingerprint per protocol configuration and seed, in the pinned
/// order.
pub fn fingerprints() -> Vec<String> {
    let mut out = Vec::new();
    for p in [
        ProtocolKind::MultiPaxos,
        ProtocolKind::Raft,
        ProtocolKind::RaftStar,
        ProtocolKind::RaftStarPql,
        ProtocolKind::LeaderLease,
        ProtocolKind::RaftStarMencius,
    ] {
        for seed in [7u64, 42] {
            out.push(fingerprint(p, seed, false));
        }
        out.push(fingerprint(p, 11, true));
    }
    out
}

fn main() {
    for line in fingerprints() {
        println!("{line}");
    }
}
