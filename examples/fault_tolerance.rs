//! Fault injection on the deterministic simulator, for Raft* and
//! MultiPaxos: crash the leader after a committed write, wait for a new
//! leader, read the write back, then restart the old leader inside a
//! partition and heal it. Asserts that a new leader is elected within
//! 30 s of the crash, that the pre-crash write reads back after failover,
//! and that after restart and heal the old leader's applied index and
//! store equal the new leader's.
//!
//! Run with: `cargo run --example fault_tolerance`

use paxraft::core::harness::{replica, Cluster, ProtocolKind};
use paxraft::core::kv::{Op, Reply};
use paxraft::sim::time::SimDuration;

fn main() {
    for kind in [ProtocolKind::RaftStar, ProtocolKind::MultiPaxos] {
        fail_over_and_rejoin(kind);
    }
}

fn fail_over_and_rejoin(kind: ProtocolKind) {
    let (name, ms) = (kind.name(), SimDuration::from_millis);
    let mut cluster = Cluster::builder(kind).seed(21).build();
    cluster.elect_leader();
    let value = b"before-crash".to_vec().into();
    cluster
        .submit_and_wait(Op::Put { key: 7, value })
        .expect("first put");
    println!("{name}: committed a write under the initial leader (node 0, Oregon)");

    // Crash the leader and wait for a new one.
    let old = cluster.replicas()[0];
    let deadline = cluster.sim.now() + ms(30_000);
    cluster.sim.crash_at(old, cluster.sim.now() + ms(10));
    let leader = loop {
        cluster.sim.run_for(ms(100));
        let leads = |&&r: &&_| replica(&cluster.sim, kind, r).is_leader();
        if let Some(&r) = cluster.replicas()[1..].iter().find(leads) {
            break r;
        }
        assert!(
            cluster.sim.now() < deadline,
            "{name}: a new leader within 30 s"
        );
    };
    println!("{name}: node {} leads at {}", leader.0, cluster.sim.now());

    // The committed write must still be readable.
    let read = match cluster.submit_and_wait(Op::Get { key: 7 }) {
        Ok(Reply::Value(Some(v))) => String::from_utf8_lossy(&v).into_owned(),
        other => format!("{other:?}"),
    };
    assert_eq!(
        read, "before-crash",
        "{name}: the write reads back after failover"
    );
    println!("{name}: read after failover: {read:?}");

    // Restart the old leader cut off from everyone, heal after 2 s, and
    // wait for it to catch up with the new leader.
    let mut groups = vec![0u32; cluster.sim.len()];
    groups[old.0] = 1;
    let now = cluster.sim.now();
    cluster.sim.partition_at(groups, now + ms(1));
    cluster.sim.restart_at(old, now + ms(2));
    cluster.sim.heal_at(now + ms(2_001));
    cluster.sim.run_for(ms(2_001));
    let state = |cluster: &Cluster, r| {
        let rep = replica(&cluster.sim, kind, r);
        (rep.applied_index(), rep.kv().snapshot())
    };
    let caught_up = |cluster: &Cluster| state(cluster, old) == state(cluster, leader);
    while !caught_up(&cluster) && cluster.sim.now() < now + ms(32_001) {
        cluster.sim.run_for(ms(100));
    }
    assert!(
        caught_up(&cluster),
        "{name}: after restart and heal the old leader's applied index and store equal the leader's"
    );
    println!(
        "{name}: old leader restarted, healed and caught up at {}",
        cluster.sim.now()
    );
}
