//! Quickstart: build a 5-region Raft* cluster, elect a leader, and run a
//! few operations end-to-end on the simulated WAN.
//!
//! Run with: `cargo run --example quickstart`

use paxraft::core::harness::{Cluster, ProtocolKind};
use paxraft::core::kv::{Op, Reply};

fn main() {
    let mut cluster = Cluster::builder(ProtocolKind::RaftStar).seed(7).build();
    cluster.elect_leader();
    println!("leader elected at virtual time {}", cluster.sim.now());

    for key in 0..3u64 {
        let t0 = cluster.sim.now();
        cluster
            .submit_and_wait(Op::Put {
                key,
                value: format!("value-{key}").into_bytes().into(),
            })
            .expect("put commits");
        println!("put key={key} committed in {}", cluster.sim.now() - t0);
    }

    let t0 = cluster.sim.now();
    let reply = cluster
        .submit_and_wait(Op::Get { key: 1 })
        .expect("get succeeds");
    let Reply::Value(Some(v)) = reply else {
        panic!("get key=1 -> {reply:?}, expected the value put");
    };
    assert_eq!(&v[..], b"value-1", "get key=1 reads the put back");
    println!(
        "get key=1 -> {:?} in {}",
        String::from_utf8_lossy(&v),
        cluster.sim.now() - t0
    );
}
