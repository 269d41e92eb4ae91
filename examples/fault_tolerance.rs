//! Fault injection: crash the Raft* leader mid-run, watch a new leader
//! take over via vote-reply extras, then partition and heal the
//! network — all on the deterministic simulator.
//!
//! Run with: `cargo run --example fault_tolerance`

use paxraft::core::harness::{replica, Cluster, ProtocolKind};
use paxraft::core::kv::{Op, Reply};
use paxraft::core::raftstar::RaftStarReplica;
use paxraft::sim::time::{SimDuration, SimTime};

fn main() {
    let mut cluster = Cluster::builder(ProtocolKind::RaftStar).seed(21).build();
    cluster.elect_leader();
    cluster
        .submit_and_wait(Op::Put {
            key: 7,
            value: b"before-crash".to_vec().into(),
        })
        .expect("first put");
    println!("committed a write under the initial leader (node 0, Oregon)");

    // Crash the leader.
    let leader_actor = cluster.replicas()[0];
    let crash_at = cluster.sim.now() + SimDuration::from_millis(10);
    cluster.sim.crash_at(leader_actor, crash_at);
    println!("crashing the leader at {crash_at}...");

    // Wait for a new leader.
    let deadline = cluster.sim.now() + SimDuration::from_secs(30);
    while cluster.sim.now() < deadline {
        cluster.sim.run_for(SimDuration::from_millis(100));
        let new_leader = cluster.replicas()[1..]
            .iter()
            .find(|&&r| replica(&cluster.sim, cluster.protocol(), r).is_leader());
        if let Some(&r) = new_leader {
            println!(
                "new leader: node {} at {} (term {})",
                r.0,
                cluster.sim.now(),
                cluster.sim.actor::<RaftStarReplica>(r).current_term().0
            );
            break;
        }
    }

    // The committed write must still be readable.
    match cluster.submit_and_wait(Op::Get { key: 7 }) {
        Ok(Reply::Value(Some(v))) => {
            println!("read after failover: {:?}", String::from_utf8_lossy(&v))
        }
        other => println!("read after failover: {other:?}"),
    }

    // Partition the old leader's region off and heal it.
    let n_actors = cluster.replicas().len() + cluster.clients().len() + 1; // + probe
    let mut groups = vec![0u32; n_actors];
    groups[0] = 1;
    cluster
        .sim
        .partition_at(groups, cluster.sim.now() + SimDuration::from_millis(1));
    cluster.sim.restart_at(
        leader_actor,
        cluster.sim.now() + SimDuration::from_millis(2),
    );
    cluster.sim.run_for(SimDuration::from_secs(2));
    cluster
        .sim
        .heal_at(cluster.sim.now() + SimDuration::from_millis(1));
    cluster.sim.run_for(SimDuration::from_secs(3));
    println!(
        "old leader restarted + partition healed; cluster still serves: {:?}",
        cluster.submit_and_wait(Op::Get { key: 7 }).is_ok()
    );
    let _ = SimTime::ZERO;
}
