//! What the paper's evaluation examples (`local_reads`, Figure 9, and
//! `geo_mencius`, Figure 10) share: the scaled-down trial every run of
//! theirs is, and the two ways a panel's claim is checked.
//!
//! The paper's 50 s trials become 1 s of warm-up, 3 s measured and 0.5 s
//! of cool-down at seed 42. A run is a pure function of its
//! configuration, so a bound's margin is its distance from the one number
//! the run reads.

use paxraft::core::harness::{ClusterBuilder, RunReport};
use paxraft::sim::time::SimDuration;
use paxraft::workload::metrics::LatencyTriple;

/// Builds the cluster at seed 42, elects its leader and measures one
/// trial.
pub fn measure(builder: ClusterBuilder) -> RunReport {
    let mut cluster = builder.seed(42).build();
    cluster.elect_leader();
    cluster.run_measurement(
        SimDuration::from_secs(1),
        SimDuration::from_secs(3),
        SimDuration::from_millis(500),
    )
}

pub fn p90(t: Option<LatencyTriple>) -> f64 {
    t.expect("the group completed operations of this kind")
        .p90_ms
}

/// Prints a panel's claim beside the number it reads, and fails unless
/// the number lies in `[lo, hi]`.
pub fn claim(panel: &str, what: &str, value: f64, lo: f64, hi: f64) {
    println!("  {panel:<3} {what:<44} {value:>8.2}  in [{lo}, {hi}]");
    assert!(
        (lo..=hi).contains(&value),
        "Figure {panel}: {what} = {value:.2}, outside [{lo}, {hi}]"
    );
}

/// Without faults Raft* elects, appends and commits exactly as Raft does
/// (its extras and ballot rewrites act only across a leader change), so
/// every number the two report is the same.
pub fn raft_is_raft_star(panel: &str, raft: &RunReport, star: &RunReport) {
    let numbers = |r: &RunReport| {
        (
            r.throughput_ops,
            r.leader_reads,
            r.follower_reads,
            r.leader_writes,
            r.follower_writes,
        )
    };
    println!(
        "  {panel:<3} Raft and Raft* identical: {:.0} ops/s",
        raft.throughput_ops
    );
    assert_eq!(
        numbers(raft),
        numbers(star),
        "Figure {panel}: Raft and Raft* differ without faults"
    );
}
