//! Checker-internals coverage on the migration model: counterexample
//! trace reconstruction, pruning soundness, and the eventual-release
//! graph query.

use paxraft_spec::check::{explore, replay, Checker, Limits, Verdict};
use paxraft_spec::specs::shardkv;

const BUDGET: usize = 400_000;

/// A violation at a known depth yields the exact action path: with one
/// chunk and one client op every step of the shortest counterexample is
/// forced, so the BFS trace is unique.
#[test]
fn trace_reconstruction_yields_exact_action_path() {
    let cfg = shardkv::SkConfig::single_chunk();
    let broken = shardkv::broken_install_skips_sessions(&cfg);
    let report = explore(&broken, &shardkv::invariants(), Limits::states(BUDGET));
    let Verdict::Violated {
        invariant,
        depth,
        trace,
        ..
    } = report.verdict
    else {
        panic!("expected violation, got {:?}", report.verdict);
    };
    assert_eq!(invariant, "ExactlyOnce");
    assert_eq!(depth, 5);
    let actions: Vec<&str> = trace.iter().map(|s| s.action.as_str()).collect();
    assert_eq!(
        actions,
        [
            "ClientApplySrc",
            "Freeze",
            "ExportChunk",
            "DeliverChunk",
            "Install"
        ]
    );
    // The trace replays from init and lands on the recorded state.
    let end = replay(&broken, &trace).expect("counterexample replays");
    assert_eq!(&end, &trace.last().unwrap().state);
}

/// The PR-6 class of bug: a freeze kept in volatile leader state is
/// forgotten by a crash, letting the destination install while the
/// source still serves. The counterexample must include the crash.
#[test]
fn volatile_freeze_interleaving_is_found_with_crash_in_trace() {
    let cfg = shardkv::SkConfig::single_chunk();
    let broken = shardkv::broken_volatile_freeze(&cfg);
    let report = explore(&broken, &shardkv::invariants(), Limits::states(BUDGET));
    let Verdict::Violated {
        invariant, trace, ..
    } = report.verdict
    else {
        panic!("expected violation, got {:?}", report.verdict);
    };
    assert_eq!(invariant, "Exclusivity");
    assert!(
        trace.iter().any(|s| s.action == "CrashSrcLeader"),
        "the interleaving needs the crash: {trace:?}"
    );
    replay(&broken, &trace).expect("counterexample replays");
}

/// Pruned exploration finds the same violations as unpruned, and the
/// same clean verdict on the correct model.
#[test]
fn pruning_is_sound() {
    let cfg = shardkv::SkConfig::small();
    let invs = shardkv::invariants();
    let canon = shardkv::symmetry(&cfg);
    for broken in [
        shardkv::broken_volatile_freeze(&cfg),
        shardkv::broken_install_skips_sessions(&cfg),
    ] {
        let naive = explore(&broken, &invs, Limits::states(BUDGET));
        let pruned = explore(&broken, &invs, Limits::states(BUDGET).pruned());
        let reduced = Checker::new(&broken)
            .invariants(&invs)
            .limits(Limits::states(BUDGET).pruned())
            .symmetry(&canon)
            .run();
        for (label, report) in [
            ("naive", &naive),
            ("pruned", &pruned),
            ("reduced", &reduced),
        ] {
            let Verdict::Violated { ref invariant, .. } = report.verdict else {
                panic!("{}/{label}: expected violation", broken.name);
            };
            let Verdict::Violated {
                invariant: ref expected,
                ..
            } = naive.verdict
            else {
                unreachable!()
            };
            assert_eq!(invariant, expected, "{}/{label}", broken.name);
        }
    }
    let correct = shardkv::spec(&cfg);
    let naive = explore(&correct, &invs, Limits::states(BUDGET).detect_deadlocks());
    let reduced = Checker::new(&correct)
        .invariants(&invs)
        .limits(Limits::states(BUDGET).pruned().detect_deadlocks())
        .symmetry(&canon)
        .run();
    assert_eq!(naive.verdict, Verdict::Exhausted);
    assert_eq!(reduced.verdict, Verdict::Exhausted);
    assert!(reduced.states < naive.states);
}

/// `AG EF released` holds on the correct model and fails (everywhere)
/// once the Release action is removed — exercising the stuck-state
/// accounting and witness trace.
#[test]
fn eventual_release_holds_and_fails_without_release() {
    let cfg = shardkv::SkConfig::single_chunk();
    let sk = shardkv::spec(&cfg);
    let invs = shardkv::invariants();
    let (report, graph) = Checker::new(&sk)
        .invariants(&invs)
        .limits(Limits::states(BUDGET))
        .run_graph();
    assert_eq!(report.verdict, Verdict::Exhausted);
    let eventual = graph
        .always_reaches(&sk, &shardkv::release_goal())
        .expect("complete graph");
    assert!(eventual.holds());
    assert_eq!(eventual.stuck_states, 0);

    let mut crippled = sk.clone();
    crippled.actions.retain(|a| a.name != "Release");
    let (report, graph) = Checker::new(&crippled)
        .limits(Limits::states(BUDGET))
        .run_graph();
    assert_eq!(report.verdict, Verdict::Exhausted);
    let eventual = graph
        .always_reaches(&crippled, &shardkv::release_goal())
        .expect("complete graph");
    assert!(!eventual.holds());
    assert_eq!(eventual.goal_states, 0);
    assert_eq!(eventual.stuck_states, graph.len());
    assert!(eventual.witness.is_some(), "a stuck witness is reported");
}

/// Off-CI larger-bound sweep: two back-to-back migrations (the range
/// moves out and comes back) with three-chunk exports, one cross-move
/// client retry budget, and a foreign write per group. Far beyond the
/// CI-pinned small sweep, so it is `#[ignore]`d; run it with
///
/// ```text
/// cargo test -p paxraft-spec --release -- --ignored shardkv_sweep
/// ```
///
/// `SHARDKV_SWEEP_STATES` overrides the state budget (default 50 M).
/// Pruning + symmetry keep the reduced frontier tractable; the sweep
/// must exhaust cleanly under all four invariants with deadlock
/// detection on.
#[test]
#[ignore = "large off-CI sweep; see doc comment for how to run"]
fn shardkv_sweep_two_migrations_three_chunks() {
    let budget: usize = std::env::var("SHARDKV_SWEEP_STATES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(50_000_000);
    let cfg = shardkv::SkConfig {
        replicas: 2,
        chunks: 3,
        client_ops: 2,
        foreign_ops: 1,
        migrations: 2,
    };
    let sk = shardkv::spec(&cfg);
    let invs = shardkv::invariants();
    let canon = shardkv::symmetry(&cfg);
    let reduced = Checker::new(&sk)
        .invariants(&invs)
        .limits(Limits::states(budget).pruned().detect_deadlocks())
        .symmetry(&canon)
        .run();
    assert_eq!(
        reduced.verdict,
        Verdict::Exhausted,
        "the larger-bound sweep is clean"
    );
    // `NextMigration` writes nearly every variable, so the static
    // independence analysis rightly withholds ample sets here —
    // symmetry is the reduction that still applies.
    assert!(reduced.sym_folds > 0, "symmetry folded states");
    eprintln!(
        "shardkv sweep at {{r:2, c:3, ops:2, f:1, mig:2}}: {} states, {} transitions, {} sym folds",
        reduced.states, reduced.transitions, reduced.sym_folds
    );
}

/// Graph queries on a truncated exploration are refused rather than
/// silently wrong.
#[test]
fn incomplete_graphs_refuse_reachability_queries() {
    let sk = shardkv::spec(&shardkv::SkConfig::small());
    let (report, graph) = Checker::new(&sk).limits(Limits::states(50)).run_graph();
    assert_eq!(report.verdict, Verdict::BudgetReached);
    assert!(graph.always_reaches(&sk, &shardkv::release_goal()).is_err());
}
