//! Figure 9 (Section 5.1) as assertions: Raft*-PQL, the Paxos Quorum
//! Lease ported to Raft*, against the Leader-Lease baseline (LL), Raft
//! and Raft* on the five-region cluster. Each panel's claim is a bound on
//! a ratio, printed beside the number it reads:
//!
//! - 9a: PQL reads locally in every region, LL only in the leader's,
//!   and Raft reads through the log everywhere;
//! - 9b: PQL pays for it on writes, which wait for every leaseholder;
//! - 9c: PQL's peak throughput over Raft's grows with the read share, and
//!   LL beats PQL at 50 % reads but loses at 90 % and 99 %;
//! - 9d: PQL's speedup over Raft* falls as the conflict rate rises;
//! - Raft and Raft* report the same numbers in every fault-free run.
//!
//! Every run is the trial in `paper/mod.rs` (seed 42, 3 s measured) with
//! the leader in Oregon and 8 B values. Peak throughput is read at 2,000
//! (9c) and 3,000 (9d) clients per region: in a sweep that also ran 500
//! and 1,000, every series was highest at the larger count.
//!
//! Run with: `cargo run --release --example local_reads`

mod paper;

use paxraft::core::harness::{Cluster, ProtocolKind, RunReport};
use paxraft::workload::generator::WorkloadConfig;

use paper::{claim, measure, p90, raft_is_raft_star};
use ProtocolKind::{LeaderLease, Raft, RaftStar, RaftStarPql};

fn run(
    protocol: ProtocolKind,
    clients_per_region: usize,
    read_fraction: f64,
    conflict_rate: f64,
) -> RunReport {
    let workload = WorkloadConfig {
        read_fraction,
        conflict_rate,
        ..Default::default()
    };
    measure(
        Cluster::builder(protocol)
            .clients_per_region(clients_per_region)
            .workload(workload),
    )
}

fn main() {
    let inf = f64::INFINITY;
    println!("Figure 9a/9b: 90 % reads, 5 % conflict, 50 clients/region");
    println!("  p90 ms, leader region / others: reads, writes");
    let [pql, ll, raft, star] = [RaftStarPql, LeaderLease, Raft, RaftStar].map(|p| {
        let r = run(p, 50, 0.9, 0.05);
        println!(
            "  {:<10} {:>7.2} / {:>7.2}   {:>7.2} / {:>7.2}",
            p.name(),
            p90(r.leader_reads),
            p90(r.follower_reads),
            p90(r.leader_writes),
            p90(r.follower_writes)
        );
        r
    });
    let reads = |r: &RunReport| (p90(r.leader_reads), p90(r.follower_reads));
    let writes = |r: &RunReport| (p90(r.leader_writes), p90(r.follower_writes));
    for (what, value, lo) in [
        (
            "Raft / PQL read p90, leader region",
            reads(&raft).0 / reads(&pql).0,
            20.0,
        ),
        (
            "Raft / PQL read p90, other regions",
            reads(&raft).1 / reads(&pql).1,
            50.0,
        ),
        (
            "Raft / LL read p90, leader region",
            reads(&raft).0 / reads(&ll).0,
            20.0,
        ),
        (
            "LL / PQL read p90, other regions",
            reads(&ll).1 / reads(&pql).1,
            20.0,
        ),
    ] {
        claim("9a", what, value, lo, inf);
    }
    raft_is_raft_star("9a", &raft, &star);
    for (what, value, lo) in [
        (
            "PQL / Raft write p90, leader region",
            writes(&pql).0 / writes(&raft).0,
            1.5,
        ),
        (
            "PQL / Raft write p90, other regions",
            writes(&pql).1 / writes(&raft).1,
            1.2,
        ),
    ] {
        claim("9b", what, value, lo, inf);
    }

    println!("\nFigure 9c: peak ops/s at 2,000 clients/region, 5 % conflict");
    for (read_pct, pql_over_raft) in [(50, 1.1), (90, 3.0), (99, 8.0)] {
        let read = f64::from(read_pct) / 100.0;
        let runs = [RaftStarPql, LeaderLease, Raft, RaftStar].map(|p| run(p, 2000, read, 0.05));
        let [pql, ll, raft, _] = runs.each_ref().map(|r| r.throughput_ops);
        println!("  {read_pct} % reads: PQL {pql:.0}, LL {ll:.0}, Raft {raft:.0}");
        let what = format!("PQL / Raft at {read_pct} % reads");
        claim("9c", &what, pql / raft, pql_over_raft, inf);
        let (what, value, lo) = match read_pct {
            50 => ("LL / PQL", ll / pql, 1.1),
            90 => ("PQL / LL", pql / ll, 1.1),
            _ => ("PQL / LL", pql / ll, 2.0),
        };
        claim(
            "9c",
            &format!("{what} at {read_pct} % reads"),
            value,
            lo,
            inf,
        );
        raft_is_raft_star("9c", &runs[2], &runs[3]);
    }

    println!("\nFigure 9d: PQL's peak over Raft*'s, 90 % reads, 3,000 clients/region");
    let speedup = [0, 20, 50].map(|conflict_pct| {
        let conflict = f64::from(conflict_pct) / 100.0;
        let pql = run(RaftStarPql, 3000, 0.9, conflict).throughput_ops;
        let star = run(RaftStar, 3000, 0.9, conflict).throughput_ops;
        let speedup = (pql - star) / star * 100.0;
        println!(
            "  {conflict_pct:>2} % conflict: PQL {pql:.0}, Raft* {star:.0}, speedup {speedup:.1} %"
        );
        speedup
    });
    for (what, value, lo) in [
        ("speedup at 0 % conflict (%)", speedup[0], 300.0),
        ("speedup at 50 % conflict (%)", speedup[2], 50.0),
        (
            "speedup at 0 % / at 20 % conflict",
            speedup[0] / speedup[1],
            1.3,
        ),
        (
            "speedup at 20 % / at 50 % conflict",
            speedup[1] / speedup[2],
            1.3,
        ),
    ] {
        claim("9d", what, value, lo, inf);
    }
}
