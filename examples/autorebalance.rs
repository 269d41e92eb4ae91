//! Load-driven auto-rebalancing under a moving hotspot: oracle-scripted
//! vs policy-driven placement.
//!
//! A 2-group sharded cluster serves a workload whose hot window (85% of
//! traffic, 12 000 keys wide) drifts linearly across the key space —
//! and across the group boundary — over the run. Three placements:
//!
//! - **static**: the build-time split, no rebalancing. The hot window
//!   sits on one group at a time.
//! - **oracle**: a scripted plan with a-priori knowledge of the drift
//!   corridor. It pre-stripes the corridor into alternating 6 000-key
//!   segments before measurement starts; because the window width is an
//!   exact multiple of the stripe period, the hot load is split 50/50
//!   at *every* instant of the drift with zero mid-run migrations. The
//!   stripes are all due at once; the coordinator runs them one after
//!   another, all before the window opens.
//! - **policy**: the closed-loop auto-balance controller, which cannot
//!   see the future: it watches the live load sketch and chases the
//!   drift with hysteresis-guarded migrations.
//!
//! A fourth run pits the policy against an adversarial hotspot that
//! jumps between the groups every 1.5 s: cooldown and per-bucket dwell
//! keep the migration count bounded (asserted against the analytic
//! cooldown bound of one move per cooldown).
//!
//! Prints ops/s per arm, the policy/oracle ratio (asserted ≥ 0.85),
//! migration counts, and the exact per-group per-phase p99 latency read
//! off the clients' completions — the migration windows are localized to
//! the group and phase they hit. The policy's worst phase is asserted at
//! least 1.3× the oracle's worst, and the oracle's six phases within 10 %
//! of each other.
//!
//! Run with: `cargo run --release --example autorebalance`

use std::fmt::Write as _;

use paxraft::core::harness::{Cluster, ProtocolKind};
use paxraft::core::shard::autobalance::COOLDOWN;
use paxraft::core::shard::{MigrationSpec, RebalanceConfig, ShardConfig};
use paxraft::core::telemetry::TelemetryConfig;
use paxraft::sim::time::{SimDuration, SimTime};
use paxraft::workload::generator::WorkloadConfig;
use paxraft::workload::scenario::Hotspot;

const RECORDS: u64 = 100_000;
const HOT_WEIGHT: f64 = 0.85;
const HOT_WIDTH: u64 = 12_000;
const DRIFT_FROM: u64 = 30_000;
const DRIFT_TO: u64 = 70_000;
/// The drift corridor the oracle pre-stripes: every key the hot window
/// touches during the run.
const CORRIDOR_LO: u64 = DRIFT_FROM - HOT_WIDTH / 2;
const CORRIDOR_HI: u64 = DRIFT_TO + HOT_WIDTH / 2;
/// Stripe width; the window width is an exact multiple of the stripe
/// *period* (2 stripes), so any window position splits its load 50/50.
const STRIPE: u64 = 6_000;

fn drifting() -> Hotspot {
    Hotspot::drifting(
        HOT_WEIGHT,
        DRIFT_FROM,
        DRIFT_TO,
        HOT_WIDTH,
        SimDuration::from_secs(18),
    )
}

/// The oracle's scripted plan: alternate corridor stripes between the
/// two groups up front (due at t=100 ms, i.e. inside warm-up). Only
/// stripes whose desired owner differs from the native split migrate;
/// stripes straddling the native boundary split there so every
/// migration has a single source group.
fn oracle_stripes() -> RebalanceConfig {
    let native = |k: u64| u32::from(k >= RECORDS / 2);
    let mut cfg = RebalanceConfig::default();
    let mut stripe = 0u32;
    let mut lo = CORRIDOR_LO;
    while lo < CORRIDOR_HI {
        let hi = (lo + STRIPE).min(CORRIDOR_HI);
        let want = stripe % 2;
        let boundary = RECORDS / 2;
        for (a, b) in [(lo, hi.min(boundary)), (lo.max(boundary), hi)] {
            if a < b && native(a) != want {
                cfg = cfg.migrate(MigrationSpec {
                    at: SimDuration::from_millis(100),
                    lo: a,
                    hi: b,
                    to_group: want,
                });
            }
        }
        stripe += 1;
        lo = hi;
    }
    cfg
}

/// The 4 s phases of the measurement window, in virtual seconds.
const PHASES: [(u64, u64); 3] = [(2, 6), (6, 10), (10, 14)];

struct Outcome {
    throughput: f64,
    migrations: usize,
    /// `p99_ms[g][phase]`: group `g`'s exact p99 over one phase.
    p99_ms: [[f64; 3]; 2],
}

fn run(arm: &str, hotspot: Hotspot) -> Outcome {
    let mut builder = Cluster::builder(ProtocolKind::Raft)
        .shard_config(ShardConfig::groups(2))
        .clients_per_region(4)
        .workload(WorkloadConfig {
            read_fraction: 0.5,
            conflict_rate: 0.0,
            hotspot: Some(hotspot),
            ..Default::default()
        })
        .telemetry_config(TelemetryConfig::sampled())
        .seed(43);
    builder = match arm {
        "static" => builder,
        "oracle" => builder.rebalance_config(oracle_stripes()),
        "policy" => builder.autobalance(true),
        other => unreachable!("unknown arm {other}"),
    };
    let mut cluster = builder.build_sharded();
    cluster.elect_leaders();
    let report = cluster.run_measurement(
        SimDuration::from_secs(2),
        SimDuration::from_secs(12),
        SimDuration::from_secs(2),
    );
    let at = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
    let p99_ms = [0u32, 1].map(|g| {
        PHASES.map(|(from, to)| {
            cluster
                .group_latencies(g, at(from), at(to))
                .percentile_ms(99.0)
                .expect("every group completes operations in every phase")
        })
    });
    Outcome {
        throughput: report.throughput_ops,
        migrations: cluster.migrations_started(),
        p99_ms,
    }
}

/// The largest and smallest of an arm's six phase p99s.
fn p99_range(o: &Outcome) -> (f64, f64) {
    o.p99_ms
        .iter()
        .flatten()
        .fold((0.0, f64::INFINITY), |(hi, lo), &p| (hi.max(p), lo.min(p)))
}

fn main() {
    println!("drifting hotspot: {HOT_WEIGHT} of traffic in a {HOT_WIDTH}-key window");
    println!("sliding {DRIFT_FROM} -> {DRIFT_TO} over 18 s of virtual time\n");

    let mut outcomes = Vec::new();
    for arm in ["static", "oracle", "policy"] {
        let o = run(arm, drifting());
        println!(
            "  {arm:<7} {:>7.1} op/s   migrations={}",
            o.throughput, o.migrations
        );
        outcomes.push(o);
    }
    let (stat, oracle, policy) = (&outcomes[0], &outcomes[1], &outcomes[2]);

    assert_eq!(stat.migrations, 0, "the static arm never migrates");
    assert!(
        policy.migrations >= 1,
        "the policy chased the drift ({} migrations)",
        policy.migrations
    );
    let ratio = policy.throughput / oracle.throughput;
    assert!(
        ratio >= 0.85,
        "closed-loop placement within 15% of the oracle ({ratio:.3})"
    );

    // Localize the migration cost: per-group p99 per 4 s phase of the
    // measurement window, exact over the completions in each. The
    // policy's chase migrations freeze ranges mid-run; the oracle paid
    // everything before the window opened.
    println!("\n  p99 by group and phase (ms):");
    for (label, o) in [("oracle", oracle), ("policy", policy)] {
        for (group, phases) in o.p99_ms.iter().enumerate() {
            let mut row = format!("  {label:<7} group{group}:");
            for (phase, p99) in phases.iter().enumerate() {
                let _ = write!(row, "  phase{phase}={p99:>8.3}");
            }
            println!("{row}");
        }
    }
    let (oracle_worst, oracle_best) = p99_range(oracle);
    let (policy_worst, _) = p99_range(policy);
    let localized = policy_worst / oracle_worst;
    println!(
        "  policy worst / oracle worst = {policy_worst:.1} / {oracle_worst:.1} ms = {localized:.2} x (bound 1.3 x)"
    );
    assert!(
        localized >= 1.3,
        "a chase migration shows in its group and phase ({localized:.2} x)"
    );
    let spread = oracle_worst / oracle_best;
    println!("  oracle phases {oracle_best:.1}-{oracle_worst:.1} ms = {spread:.3} x (bound 1.1 x)");
    assert!(
        spread <= 1.1,
        "the pre-striped oracle is flat across groups and phases ({spread:.3} x)"
    );

    // The adversarial oscillating hotspot: the policy must keep its
    // migration count under the analytic cooldown bound.
    let osc = run(
        "policy",
        Hotspot::oscillating(0.8, 12_500, 62_500, 12_000, SimDuration::from_secs(3)),
    );
    let total_secs = 16u64;
    let bound = total_secs as usize / COOLDOWN.as_secs_f64() as usize + 1;
    println!(
        "\n  oscillating hotspot: {} migrations (bound {bound}), {:.1} op/s",
        osc.migrations, osc.throughput
    );
    assert!(
        osc.migrations <= bound,
        "oscillation produces a bounded migration count ({} <= {bound})",
        osc.migrations
    );
    println!(
        "\nThe oracle pre-stripes the drift corridor it was told about; the\n\
         closed-loop policy discovers the same placement from the live load\n\
         sketch alone and lands within {:.0}% of it.",
        (1.0 - ratio).abs() * 100.0
    );
}
