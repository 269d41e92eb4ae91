//! Ablation: PQL lease duration vs the write stall after a leaseholder
//! crash. Section 5.1 fixes the duration at 2 s with 0.5 s renewals;
//! this sweep shows the availability trade-off — a crashed holder gates
//! writes until its last acknowledged grant expires.
//!
//! Usage: `ablation_lease`

use paxraft_bench::Figure;
use paxraft_core::config::LeaseConfig;
use paxraft_core::harness::{Cluster, ProtocolKind};
use paxraft_core::kv::Op;
use paxraft_sim::time::SimDuration;

fn main() {
    let mut fig = Figure::new("ablation-lease", "lease duration (s)", "write stall (ms)");
    println!("Ablation: write stall after a leaseholder crash vs lease duration");
    println!("{:>16} {:>20}", "lease duration", "write stall (ms)");
    for millis in [500u64, 1000, 2000, 4000] {
        let lease = LeaseConfig {
            duration: SimDuration::from_millis(millis),
            renew_every: SimDuration::from_millis(millis / 4),
        };
        let mut cluster = Cluster::builder(ProtocolKind::RaftStarPql)
            .lease_config(lease)
            .seed(71)
            .build();
        cluster.elect_leader();
        cluster
            .submit_and_wait(Op::Put {
                key: 1,
                value: vec![1; 8].into(),
            })
            .expect("baseline write");
        // Crash a follower leaseholder, then time the next write.
        let victim = cluster.replicas()[4];
        cluster
            .sim
            .crash_at(victim, cluster.sim.now() + SimDuration::from_millis(1));
        cluster.sim.run_for(SimDuration::from_millis(5));
        let t0 = cluster.sim.now();
        cluster
            .submit_and_wait(Op::Put {
                key: 2,
                value: vec![2; 8].into(),
            })
            .expect("write completes after the grant expires");
        let stall = cluster.sim.now().since(t0).as_millis_f64();
        println!("{:>14}ms {:>20.0}", millis, stall);
        fig.push("Raft*-PQL", millis as f64 / 1000.0, stall);
    }
    std::fs::create_dir_all("bench_results").ok();
    std::fs::write("bench_results/ablation_lease.json", fig.json()).ok();
    println!("\nThe stall tracks the remaining lifetime of the crashed holder's");
    println!("grant: shorter leases recover writes faster but renew more often —");
    println!("Section 5.1's 2 s / 0.5 s choice sits in the middle.");
}
