//! Fault-injection integration tests: message loss, leader crashes and
//! partitions against the full protocol stack — including snapshot-based
//! catch-up of partitioned replicas in every protocol family.

use paxraft::core::harness::{replica, Cluster, ProtocolKind};
use paxraft::core::kv::{Op, Reply};
use paxraft::core::snapshot::{SnapshotConfig, SnapshotStats};
use paxraft::sim::time::{SimDuration, SimTime};
use paxraft::workload::generator::WorkloadConfig;

#[test]
fn raft_survives_five_percent_message_loss() {
    let mut cluster = Cluster::builder(ProtocolKind::Raft)
        .clients_per_region(3)
        .workload(WorkloadConfig {
            read_fraction: 0.5,
            ..Default::default()
        })
        .seed(51)
        .build();
    cluster.sim.set_drop_rate_at(0.05, SimTime::from_millis(1));
    cluster.elect_leader();
    let report = cluster.run_measurement(
        SimDuration::from_secs(2),
        SimDuration::from_secs(6),
        SimDuration::from_secs(1),
    );
    assert!(
        report.throughput_ops > 10.0,
        "retransmission keeps the cluster live under loss: {}",
        report.throughput_ops
    );
}

#[test]
fn raftstar_survives_five_percent_message_loss() {
    let mut cluster = Cluster::builder(ProtocolKind::RaftStar)
        .clients_per_region(3)
        .workload(WorkloadConfig {
            read_fraction: 0.5,
            ..Default::default()
        })
        .seed(53)
        .build();
    cluster.sim.set_drop_rate_at(0.05, SimTime::from_millis(1));
    cluster.elect_leader();
    let report = cluster.run_measurement(
        SimDuration::from_secs(2),
        SimDuration::from_secs(6),
        SimDuration::from_secs(1),
    );
    assert!(
        report.throughput_ops > 10.0,
        "got {}",
        report.throughput_ops
    );
}

#[test]
fn mencius_survives_message_loss() {
    let mut cluster = Cluster::builder(ProtocolKind::RaftStarMencius)
        .clients_per_region(3)
        .workload(WorkloadConfig {
            read_fraction: 0.0,
            ..Default::default()
        })
        .seed(57)
        .build();
    // Mencius coordination relies on more messages; 2% loss.
    cluster.sim.set_drop_rate_at(0.02, SimTime::from_millis(1));
    cluster.elect_leader();
    let report = cluster.run_measurement(
        SimDuration::from_secs(2),
        SimDuration::from_secs(6),
        SimDuration::from_secs(1),
    );
    assert!(report.throughput_ops > 5.0, "got {}", report.throughput_ops);
}

#[test]
fn raftstar_leader_crash_preserves_committed_writes() {
    let mut cluster = Cluster::builder(ProtocolKind::RaftStar).seed(59).build();
    cluster.elect_leader();
    for k in 0..5u64 {
        cluster
            .submit_and_wait(Op::Put {
                key: k,
                value: vec![k as u8; 16].into(),
            })
            .expect("put commits");
    }
    let leader = cluster.replicas()[0];
    cluster
        .sim
        .crash_at(leader, cluster.sim.now() + SimDuration::from_millis(5));
    // All five committed writes must survive the failover.
    for k in 0..5u64 {
        let r = cluster
            .submit_and_wait(Op::Get { key: k })
            .expect("get after failover");
        assert!(
            matches!(r, Reply::Value(Some(_))),
            "key {k} survived, got {r:?}"
        );
    }
    // A new leader exists and it is not the crashed node.
    let new_leader = cluster.replicas().iter().find(|&&r| {
        !cluster.sim.is_crashed(r) && replica(&cluster.sim, cluster.protocol(), r).is_leader()
    });
    assert!(new_leader.is_some(), "failover elected a new leader");
}

#[test]
fn minority_partition_does_not_block_majority() {
    let mut cluster = Cluster::builder(ProtocolKind::RaftStar).seed(61).build();
    cluster.elect_leader();
    cluster
        .submit_and_wait(Op::Put {
            key: 1,
            value: vec![7; 8].into(),
        })
        .expect("pre-partition put");
    // Partition replicas 3 and 4 away from {0, 1, 2}, the clients and
    // the scripted client.
    let total = cluster.sim.len();
    let mut groups = vec![0u32; total];
    groups[3] = 1;
    groups[4] = 1;
    cluster
        .sim
        .partition_at(groups, cluster.sim.now() + SimDuration::from_millis(1));
    cluster.sim.run_for(SimDuration::from_millis(10));
    cluster
        .submit_and_wait(Op::Put {
            key: 2,
            value: vec![8; 8].into(),
        })
        .expect("majority commits during minority partition");
    // Heal; the minority catches up and the data is still there.
    cluster
        .sim
        .heal_at(cluster.sim.now() + SimDuration::from_millis(1));
    cluster.sim.run_for(SimDuration::from_secs(2));
    let r = cluster
        .submit_and_wait(Op::Get { key: 2 })
        .expect("get after heal");
    assert!(matches!(r, Reply::Value(Some(_))));
}

// ── snapshot / log-compaction scenarios ─────────────────────────────

/// Runs a write-heavy cluster with a low compaction threshold, cuts one
/// follower off long enough for the survivors to compact past its next
/// slot, heals, and lets it catch up. Returns the rejoined replica's
/// counters, its applied index, and the cluster maximum applied index.
fn snapshot_catchup_scenario(
    p: ProtocolKind,
    seed: u64,
) -> (SnapshotStats, SnapshotStats, u64, u64) {
    snapshot_catchup_with(p, seed, 8, SnapshotConfig::every(32))
}

/// Returns (lagger's counters, cluster-wide counters, lagger's applied
/// index, cluster max applied index).
fn snapshot_catchup_with(
    p: ProtocolKind,
    seed: u64,
    value_size: usize,
    snapshot: SnapshotConfig,
) -> (SnapshotStats, SnapshotStats, u64, u64) {
    let lagger = 4; // Seoul replica; leader stays at 0 (Oregon)
    let mut cluster = Cluster::builder(p)
        .clients_per_region(2)
        .workload(WorkloadConfig {
            read_fraction: 0.0,
            conflict_rate: 0.0,
            value_size,
            ..Default::default()
        })
        .snapshot_config(snapshot)
        .seed(seed)
        .build();
    cluster.elect_leader();
    cluster.sim.run_for(SimDuration::from_secs(2));
    // Cut the follower off (its own clients stay connected to the
    // majority side and simply stall).
    let total = cluster.sim.len();
    let mut groups = vec![0u32; total];
    groups[lagger] = 1;
    cluster
        .sim
        .partition_at(groups, cluster.sim.now() + SimDuration::from_millis(1));
    // Far more than 32 writes commit while the follower is away, so the
    // survivors compact past its next slot.
    cluster.sim.run_for(SimDuration::from_secs(25));
    cluster
        .sim
        .heal_at(cluster.sim.now() + SimDuration::from_millis(1));
    cluster.sim.run_for(SimDuration::from_secs(12));
    let handle = |r| replica(&cluster.sim, p, r);
    let rejoined = handle(cluster.replicas()[lagger]);
    let max_applied = cluster
        .replicas()
        .iter()
        .map(|&r| handle(r).applied_index().0)
        .max()
        .unwrap();
    (
        rejoined.snap_stats(),
        cluster.per_group_stats().remove(0).snapshots,
        rejoined.applied_index().0,
        max_applied,
    )
}

fn assert_caught_up_via_snapshot(p: ProtocolKind, seed: u64) {
    let (stats, _cluster, applied, max_applied) = snapshot_catchup_scenario(p, seed);
    assert!(
        stats.snapshots_installed >= 1,
        "{}: rejoined replica installed a snapshot (stats: {stats:?})",
        p.name()
    );
    assert!(
        max_applied > 64,
        "{}: enough load to trip compaction ({max_applied})",
        p.name()
    );
    assert!(
        applied + 200 > max_applied,
        "{}: rejoined replica converged ({applied} vs {max_applied})",
        p.name()
    );
}

#[test]
fn raft_partitioned_follower_rejoins_via_snapshot() {
    assert_caught_up_via_snapshot(ProtocolKind::Raft, 71);
}

#[test]
fn raftstar_partitioned_follower_rejoins_via_snapshot() {
    assert_caught_up_via_snapshot(ProtocolKind::RaftStar, 73);
}

#[test]
fn multipaxos_partitioned_acceptor_rejoins_via_checkpoint() {
    assert_caught_up_via_snapshot(ProtocolKind::MultiPaxos, 79);
}

#[test]
fn mencius_partitioned_replica_rejoins_via_checkpoint() {
    assert_caught_up_via_snapshot(ProtocolKind::RaftStarMencius, 83);
}

#[test]
fn pql_partitioned_follower_rejoins_via_snapshot() {
    assert_caught_up_via_snapshot(ProtocolKind::RaftStarPql, 107);
}

#[test]
fn leader_lease_partitioned_follower_rejoins_via_snapshot() {
    assert_caught_up_via_snapshot(ProtocolKind::LeaderLease, 109);
}

#[test]
fn multi_chunk_snapshot_transfer_converges() {
    // Large values + a small chunk size force snapshots of dozens of
    // chunks through the real protocol paths — including the Mencius
    // case where several peers ship the laggard overlapping interleaved
    // transfers and per-sender reassembly must keep them apart.
    for p in [ProtocolKind::RaftStar, ProtocolKind::RaftStarMencius] {
        let cfg = SnapshotConfig {
            threshold_entries: 32,
            chunk_bytes: 4096,
        };
        let (stats, cluster, applied, max_applied) = snapshot_catchup_with(p, 101, 2048, cfg);
        assert!(
            stats.snapshots_installed >= 1,
            "{}: installed via chunks ({stats:?})",
            p.name()
        );
        assert!(
            cluster.snapshot_bytes_sent > 4 * 4096,
            "{}: transfer spanned many chunks ({cluster:?})",
            p.name()
        );
        assert!(
            applied + 200 > max_applied,
            "{}: converged ({applied} vs {max_applied})",
            p.name()
        );
    }
}

#[test]
fn snapshot_catchup_is_deterministic() {
    // Identical seeds must produce byte-identical snapshot traffic and
    // identical final state — the whole subsystem stays inside the
    // simulator's determinism envelope.
    for p in [ProtocolKind::Raft, ProtocolKind::RaftStarMencius] {
        let a = snapshot_catchup_scenario(p, 91);
        let b = snapshot_catchup_scenario(p, 91);
        assert_eq!(a, b, "{}: identical seeds, identical outcome", p.name());
    }
}

#[test]
fn compaction_bounds_peak_log_size_under_sustained_writes() {
    for p in [
        ProtocolKind::Raft,
        ProtocolKind::RaftStar,
        ProtocolKind::MultiPaxos,
        ProtocolKind::RaftStarMencius,
    ] {
        let mut cluster = Cluster::builder(p)
            .clients_per_region(3)
            .workload(WorkloadConfig {
                read_fraction: 0.0,
                conflict_rate: 0.0,
                ..Default::default()
            })
            .snapshot_config(SnapshotConfig::every(64))
            .seed(97)
            .build();
        cluster.elect_leader();
        let report = cluster.run_measurement(
            SimDuration::from_secs(2),
            SimDuration::from_secs(10),
            SimDuration::from_secs(1),
        );
        let completed = (report.throughput_ops * 10.0) as u64;
        assert!(
            completed > 300,
            "{}: sustained load ({completed} ops)",
            p.name()
        );
        let s = report.snapshots;
        assert!(s.compactions >= 1, "{}: compaction ran ({s:?})", p.name());
        assert!(
            s.entries_discarded > 64,
            "{}: prefix actually discarded ({s:?})",
            p.name()
        );
        // The bound: peak retained size stays a small multiple of the
        // threshold even though far more entries were committed.
        assert!(
            s.peak_log_entries < 1024,
            "{}: peak log bounded, got {} after {completed} ops",
            p.name(),
            s.peak_log_entries
        );
        assert!(
            s.entries_discarded + 2048 > completed,
            "{}: most of the history was compacted away ({s:?})",
            p.name()
        );
    }
}

#[test]
fn majority_partition_blocks_commits_until_heal() {
    let mut cluster = Cluster::builder(ProtocolKind::RaftStar).seed(63).build();
    cluster.elect_leader();
    // Cut the leader (node 0) plus everything else off from {1,2,3,4}:
    // leave the leader alone with the clients and the scripted client —
    // no quorum.
    let total = cluster.sim.len();
    let mut groups = vec![0u32; total];
    for r in 1..5 {
        groups[r] = 1;
    }
    cluster
        .sim
        .partition_at(groups, cluster.sim.now() + SimDuration::from_millis(1));
    cluster.sim.run_for(SimDuration::from_millis(10));
    let err = cluster.submit_and_wait(Op::Put {
        key: 9,
        value: vec![1; 8].into(),
    });
    assert!(err.is_err(), "no quorum on the leader's side: {err:?}");
    // After healing, the same write goes through (possibly via a new
    // leader on the other side; `submit_and_wait` falls back to live
    // replicas).
    cluster
        .sim
        .heal_at(cluster.sim.now() + SimDuration::from_millis(1));
    cluster.sim.run_for(SimDuration::from_secs(3));
    cluster
        .submit_and_wait(Op::Put {
            key: 9,
            value: vec![1; 8].into(),
        })
        .expect("commit succeeds after heal");
}
