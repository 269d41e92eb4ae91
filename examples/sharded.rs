//! Sharded cluster demo: four replica groups over the same five
//! simulated nodes, key-range routing, and closed-loop throughput
//! scaling past one leader's CPU.
//!
//! Part 1 asserts its routing claim: every put commits in the group the
//! router names for its key (read off the per-group response counters),
//! and a get reads back what was put there. Part 2 prints the scaling and
//! asserts nothing: co-located groups do not share one node's CPU yet
//! (ROADMAP item 5), so more groups on the same nodes outrun what the
//! hardware would allow, and the numbers are not a claim until they do.
//!
//! Run with: `cargo run --release --example sharded`

use paxraft::core::costs::CostModel;
use paxraft::core::harness::{Cluster, ProtocolKind};
use paxraft::core::kv::{Op, Reply};
use paxraft::core::shard::{LeaderPlacement, ShardConfig, ShardedCluster};
use paxraft::sim::time::SimDuration;
use paxraft::workload::generator::WorkloadConfig;

fn main() {
    // Part 1: routing. Four groups partition the key space; every
    // operation lands in the group that owns its key.
    let mut cluster = Cluster::builder(ProtocolKind::Raft)
        .seed(7)
        .shard_config(ShardConfig::groups(4).placement(LeaderPlacement::RoundRobin))
        .build_sharded();
    cluster.elect_leaders();
    println!(
        "{} groups elected by virtual time {}; leaders at {:?}",
        cluster.num_groups(),
        cluster.sim.now(),
        cluster.leaders()
    );
    for g in 0..cluster.num_groups() {
        let (lo, hi) = cluster.router().range(g);
        println!(
            "  group {g}: keys [{lo}, {hi}) led by {}",
            cluster.leaders()[g]
        );
    }
    let responses = |c: &ShardedCluster| -> Vec<u64> {
        c.per_group_stats().iter().map(|g| g.responses).collect()
    };
    for g in 0..cluster.num_groups() {
        let (key, _) = cluster.router().range(g);
        let named = cluster.router().group_of(key) as usize;
        let before = responses(&cluster);
        let t0 = cluster.sim.now();
        cluster
            .submit_and_wait(Op::Put {
                key,
                value: format!("group-{g}").into_bytes().into(),
            })
            .expect("put commits");
        println!(
            "  put key={key} (group {g}) committed in {}",
            cluster.sim.now() - t0
        );
        let mut expected = before;
        expected[named] += 1;
        assert_eq!(
            responses(&cluster),
            expected,
            "the put of key {key} is answered by group {named}, the one the router names"
        );
    }
    let (key1, _) = cluster.router().range(1);
    match cluster.submit_and_wait(Op::Get { key: key1 }) {
        Ok(Reply::Value(Some(v))) => {
            println!("  get key={key1} -> {:?}", String::from_utf8_lossy(&v));
            assert_eq!(&v[..], b"group-1", "the get reads back group 1's put");
        }
        other => panic!("get key={key1} -> {other:?}, expected group-1's value"),
    }

    // Part 2: scaling. With a slow CPU (costs scaled 200x) one leader
    // saturates; the same workload over more groups commits more.
    println!("\nclosed-loop throughput, leader CPU as the bottleneck:");
    let w = WorkloadConfig {
        read_fraction: 0.5,
        conflict_rate: 0.0,
        ..Default::default()
    };
    for groups in [1usize, 2, 4] {
        let mut c = Cluster::builder(ProtocolKind::Raft)
            .clients_per_region(25)
            .workload(w.clone())
            .seed(42)
            .costs(CostModel::default().scaled_cpu(200))
            .shard_config(ShardConfig::groups(groups).placement(LeaderPlacement::RoundRobin))
            .build_sharded();
        c.elect_leaders();
        let r = c.run_measurement(
            SimDuration::from_secs(2),
            SimDuration::from_secs(5),
            SimDuration::from_secs(1),
        );
        let per_group = c.per_group_stats();
        let responses: Vec<u64> = per_group.iter().map(|g| g.responses).collect();
        println!(
            "  groups={groups}: {:>7.1} ops/s  (per-group responses {responses:?})",
            r.throughput_ops
        );
    }
}
