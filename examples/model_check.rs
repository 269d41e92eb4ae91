//! Model checking the protocol specs: MultiPaxos agreement, Raft*
//! invariants, the bounded Raft* ⇒ MultiPaxos refinement theorem
//! (Appendix C), and the sharded-KV live-migration sweep (naive vs
//! pruned+symmetry, deadlock detection, eventual release, and a
//! counterexample trace from a deliberately broken variant).
//!
//! Run with: `cargo run --release --example model_check`

use paxraft::spec::check::{explore, render_trace, replay, Checker, Invariant, Limits, Verdict};
use paxraft::spec::refine::check_refinement;
use paxraft::spec::specs::{multipaxos, raftstar, shardkv};

fn main() {
    let cfg = multipaxos::MpConfig::default();
    let limits = Limits::states(50_000);

    println!("[1/4] MultiPaxos: agreement + one-value-per-ballot");
    let mp = multipaxos::spec(&cfg);
    let report = explore(
        &mp,
        &[
            Invariant::new("Agreement", multipaxos::agreement_invariant(&cfg)),
            Invariant::new("OneValuePerBallot", multipaxos::one_value_per_ballot(&cfg)),
        ],
        limits,
    );
    println!(
        "  {:?} over {} states / {} transitions",
        report.verdict, report.states, report.transitions
    );

    println!("[2/4] Raft*: contiguity, commit safety, log matching");
    let rs = raftstar::spec(&cfg);
    let report = explore(
        &rs,
        &[
            Invariant::new("Contiguity", raftstar::contiguity_invariant(&cfg)),
            Invariant::new("CommitSafety", raftstar::commit_safety_invariant(&cfg)),
            Invariant::new("LogMatching", raftstar::log_matching_invariant(&cfg)),
        ],
        limits,
    );
    println!(
        "  {:?} over {} states / {} transitions",
        report.verdict, report.states, report.transitions
    );

    println!("[3/4] Refinement: Raft* ⇒ MultiPaxos (Appendix C, bounded)");
    let r =
        check_refinement(&rs, &mp, &raftstar::refinement_map(), limits).expect("refinement holds");
    println!(
        "  OK over {} Raft* states / {} transitions ({} stutters), exhausted={}",
        r.b_states, r.b_transitions, r.stutters, r.exhausted
    );

    println!("[4/4] Sharded-KV live migration (2 groups, crashes, chunk loss/dup)");
    let sk_cfg = shardkv::SkConfig::default();
    let sk = shardkv::spec(&sk_cfg);
    let invs = shardkv::invariants();
    let sk_limits = Limits::states(2_000_000).detect_deadlocks();

    let naive = explore(&sk, &invs, sk_limits);
    println!(
        "  naive:   {:?} over {} states / {} transitions",
        naive.verdict, naive.states, naive.transitions
    );
    assert_eq!(
        naive.verdict,
        Verdict::Exhausted,
        "migration sweep must finish Exhausted, not BudgetReached"
    );

    let canon = shardkv::symmetry(&sk_cfg);
    let (reduced, graph) = Checker::new(&sk)
        .invariants(&invs)
        .limits(sk_limits.pruned())
        .symmetry(&canon)
        .run_graph();
    let ratio = naive.states as f64 / reduced.states as f64;
    println!(
        "  reduced: {:?} over {} states / {} transitions ({} ample expansions, {} symmetry folds, {ratio:.2}x fewer states)",
        reduced.verdict, reduced.states, reduced.transitions, reduced.ample_states, reduced.sym_folds
    );
    assert_eq!(reduced.verdict, Verdict::Exhausted);
    assert!(
        reduced.states < naive.states,
        "pruning must reduce the state count"
    );

    let eventual = graph
        .always_reaches(&sk, &shardkv::release_goal())
        .expect("complete graph");
    println!(
        "  eventual release: AG EF released holds = {} ({} goal states, {} stuck)",
        eventual.holds(),
        eventual.goal_states,
        eventual.stuck_states
    );
    assert!(eventual.holds(), "release must stay reachable everywhere");

    // Show the counterexample machinery on a deliberately broken
    // variant: install forgets the migrated session table.
    let broken = shardkv::broken_install_skips_sessions(&shardkv::SkConfig::single_chunk());
    let bad = explore(&broken, &invs, Limits::states(200_000));
    let Verdict::Violated {
        ref invariant,
        ref trace,
        depth,
        ..
    } = bad.verdict
    else {
        panic!("broken variant must violate");
    };
    println!(
        "  broken variant '{}': {} violated at depth {} — counterexample:",
        broken.name, invariant, depth
    );
    println!("{}", render_trace(trace));
    replay(&broken, trace).expect("counterexample replays");
}
