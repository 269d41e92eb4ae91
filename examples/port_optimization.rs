//! The Section-4 porting method, end to end: the Figure-4 worked example
//! and the PQL case study, with every correctness obligation checked
//! mechanically (non-mutating test, B∆ ⇒ A∆, B∆ ⇒ B), then Figure 6's
//! landscape of Paxos variants.
//!
//! Run with: `cargo run --example port_optimization`

use paxraft::spec::check::Limits;
use paxraft::spec::landscape;
use paxraft::spec::port::{extended_map, port, projection_map};
use paxraft::spec::refine::check_refinement;
use paxraft::spec::specs::{kvlog, multipaxos, pql, raftstar};

fn main() {
    // ---- Figure 4: KV store -> log store --------------------------
    println!("[1/2] Figure-4 example: port size-tracking from KVStore to LogStore");
    let a = kvlog::kv_store();
    let b = kvlog::log_store();
    let delta = kvlog::size_delta();
    let map = kvlog::port_map();
    delta.check_non_mutating(&a).expect("delta is non-mutating");
    println!("  delta is non-mutating (Section 4.2 check)");
    let bd = port(&a, &delta, &b, &map).expect("port succeeds");
    println!("  generated B∆ with vars {:?}", bd.vars);
    let ad = delta.apply_to(&a);
    let ext = extended_map(&a, &b, &delta, &map.state_map);
    check_refinement(&bd, &ad, &ext, Limits::default()).expect("B∆ ⇒ A∆");
    check_refinement(&bd, &b, &projection_map(&b), Limits::default()).expect("B∆ ⇒ B");
    println!("  B∆ ⇒ A∆ and B∆ ⇒ B checked exhaustively\n");

    // ---- Case study: PQL -> Raft*-PQL ------------------------------
    println!("[2/2] Case study: port Paxos Quorum Lease to Raft*");
    let cfg = multipaxos::MpConfig {
        max_ballot: 2,
        ..Default::default()
    };
    let mp = multipaxos::spec(&cfg);
    let rs = raftstar::spec(&cfg);
    let d = pql::delta(&cfg);
    d.check_non_mutating(&mp).expect("PQL is non-mutating");
    println!("  PQL delta is non-mutating");
    let pmap = pql::raftstar_port_map(&cfg);
    let rql = port(&mp, &d, &rs, &pmap).expect("port succeeds");
    println!(
        "  generated Raft*-PQL: {} actions over vars {:?}",
        rql.actions.len(),
        rql.vars
    );
    let pql_spec = d.apply_to(&mp);
    let ext = extended_map(&mp, &rs, &d, &pmap.state_map);
    let limits = Limits::states(2_000);
    let r1 = check_refinement(&rql, &pql_spec, &ext, limits).expect("RQL ⇒ PQL");
    println!(
        "  RQL ⇒ PQL   checked over {} states / {} transitions",
        r1.b_states, r1.b_transitions
    );
    let r2 = check_refinement(&rql, &rs, &projection_map(&rs), limits).expect("RQL ⇒ Raft*");
    println!(
        "  RQL ⇒ Raft* checked over {} states / {} transitions",
        r2.b_states, r2.b_transitions
    );
    println!("\nBoth obligations of Section 4.3's correctness argument hold: the");
    println!("generated protocol preserves the optimization's invariants AND the");
    println!("original protocol's invariants.");

    println!("\nFigure 6: Paxos variants, and which of them the method can port");
    print!("{}", landscape::render());
}
