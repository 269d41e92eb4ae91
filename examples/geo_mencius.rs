//! Figure 10 (Section 5.2) as assertions: Raft*-Mencius, where every
//! replica leads its own slots, against single-leader Raft with the
//! leader at the best site (Oregon) and the worst (Seoul), under 100 %
//! writes. Each panel's claim is a bound on a ratio, printed beside the
//! number it reads:
//!
//! - 10a, 8 B values: loaded, Mencius spreads the leader's CPU work over
//!   five replicas and outruns Raft, by less at 100 % conflict, where
//!   each write waits for the other owners; lightly loaded, Raft-Oregon
//!   is still ahead. Raft-Oregon's loaded throughput is also the cost
//!   model's calibration point, the paper's ~41 K ops/s;
//! - 10b, 4 KB values: the leader's NIC saturates and Mencius's lead
//!   widens;
//! - 10c, 10d (8 B, 4 KB) at 50 clients/region: clients outside the
//!   leader's region commit through their local replica, faster than
//!   through a Raft leader in Oregon and far faster than through one in
//!   Seoul;
//! - Raft and Raft* report the same numbers in every fault-free run.
//!
//! Every run is the trial in `paper/mod.rs` (seed 42, 3 s measured).
//!
//! Run with: `cargo run --release --example geo_mencius`

mod paper;

use paxraft::core::harness::{Cluster, ProtocolKind, RunReport};
use paxraft::core::types::NodeId;
use paxraft::workload::generator::WorkloadConfig;

use paper::{claim, measure, p90, raft_is_raft_star};

/// One series of Figure 10: a protocol, its leader's node (0 is Oregon,
/// 4 is Seoul; Mencius has none) and the conflict rate.
struct Series(&'static str, ProtocolKind, u32, f64);

const M0: Series = Series("Raft*-M-0%", ProtocolKind::RaftStarMencius, 0, 0.0);
const M100: Series = Series("Raft*-M-100%", ProtocolKind::RaftStarMencius, 0, 1.0);
const RAFT_OREGON: Series = Series("Raft-Oregon", ProtocolKind::Raft, 0, 0.0);
const STAR_OREGON: Series = Series("Raft*-Oregon", ProtocolKind::RaftStar, 0, 0.0);
const RAFT_SEOUL: Series = Series("Raft-Seoul", ProtocolKind::Raft, 4, 0.0);

fn run(series: &Series, clients_per_region: usize, value_size: usize) -> RunReport {
    let Series(name, protocol, leader, conflict_rate) = *series;
    let workload = WorkloadConfig {
        read_fraction: 0.0,
        conflict_rate,
        value_size,
        ..Default::default()
    };
    let r = measure(
        Cluster::builder(protocol)
            .leader(NodeId(leader))
            .clients_per_region(clients_per_region)
            .workload(workload),
    );
    println!(
        "  {name:<13} {clients_per_region:>5} clients/region {:>8.0} ops/s, write p90 {:>4.0} / {:>4.0} ms",
        r.throughput_ops,
        p90(r.leader_writes),
        p90(r.follower_writes)
    );
    r
}

fn main() {
    let inf = f64::INFINITY;
    let ops = |r: &RunReport| r.throughput_ops;
    let others = |r: &RunReport| p90(r.follower_writes);
    let leader_region = |r: &RunReport| p90(r.leader_writes);

    println!("Figure 10a: 8 B values, loaded (3,000 clients/region) and light (200)");
    let [m0, m100, raft_o, star_o, raft_s] =
        [M0, M100, RAFT_OREGON, STAR_OREGON, RAFT_SEOUL].map(|s| run(&s, 3000, 8));
    for (what, value, lo) in [
        (
            "Mencius 0 % / Raft-Oregon, loaded",
            ops(&m0) / ops(&raft_o),
            1.5,
        ),
        (
            "Mencius 0 % / 100 % conflict, loaded",
            ops(&m0) / ops(&m100),
            1.4,
        ),
        (
            "Mencius 100 % / Raft-Oregon, loaded",
            ops(&m100) / ops(&raft_o),
            1.0,
        ),
        (
            "Raft-Oregon / Raft-Seoul, loaded",
            ops(&raft_o) / ops(&raft_s),
            1.15,
        ),
    ] {
        claim("10a", what, value, lo, inf);
    }
    claim(
        "10a",
        "Raft-Oregon, loaded / the paper's 41 K",
        ops(&raft_o) / 41_000.0,
        0.9,
        1.3,
    );
    raft_is_raft_star("10a", &raft_o, &star_o);
    let [m0, raft_o, star_o] = [M0, RAFT_OREGON, STAR_OREGON].map(|s| run(&s, 200, 8));
    claim(
        "10a",
        "Raft-Oregon / Mencius 0 %, light",
        ops(&raft_o) / ops(&m0),
        1.0,
        inf,
    );
    raft_is_raft_star("10a", &raft_o, &star_o);

    println!("\nFigure 10b: 4 KB values, 600 clients/region");
    let [m0, raft_o, star_o] = [M0, RAFT_OREGON, STAR_OREGON].map(|s| run(&s, 600, 4096));
    claim(
        "10b",
        "Mencius 0 % / Raft-Oregon",
        ops(&m0) / ops(&raft_o),
        2.0,
        inf,
    );
    raft_is_raft_star("10b", &raft_o, &star_o);

    println!("\nFigure 10c: 8 B values, 50 clients/region; p90 leader region / others");
    let [m0, m100, raft_o, star_o, raft_s] =
        [M0, M100, RAFT_OREGON, STAR_OREGON, RAFT_SEOUL].map(|s| run(&s, 50, 8));
    for (what, value, lo) in [
        (
            "Raft-Oregon / Mencius 0 % p90, others",
            others(&raft_o) / others(&m0),
            1.0,
        ),
        (
            "Raft-Seoul / Mencius 0 % p90, others",
            others(&raft_s) / others(&m0),
            2.0,
        ),
        (
            "Mencius 100 % / 0 % p90, others",
            others(&m100) / others(&m0),
            1.5,
        ),
        (
            "Raft-Seoul / Raft-Oregon p90, leader region",
            leader_region(&raft_s) / leader_region(&raft_o),
            1.5,
        ),
    ] {
        claim("10c", what, value, lo, inf);
    }
    raft_is_raft_star("10c", &raft_o, &star_o);

    println!("\nFigure 10d: 4 KB values, 50 clients/region; p90 leader region / others");
    let [m0, raft_o, star_o, raft_s] =
        [M0, RAFT_OREGON, STAR_OREGON, RAFT_SEOUL].map(|s| run(&s, 50, 4096));
    for (what, value, lo) in [
        (
            "Raft-Oregon / Mencius 0 % p90, others",
            others(&raft_o) / others(&m0),
            1.1,
        ),
        (
            "Raft-Seoul / Mencius 0 % p90, others",
            others(&raft_s) / others(&m0),
            2.0,
        ),
        (
            "Raft-Seoul / Raft-Oregon p90, leader region",
            leader_region(&raft_s) / leader_region(&raft_o),
            1.5,
        ),
    ] {
        claim("10d", what, value, lo, inf);
    }
    raft_is_raft_star("10d", &raft_o, &star_o);
}
