//! Mencius / Coordinated Paxos as a non-mutating delta over MultiPaxos
//! (Appendix B.5), and its mechanical port to Raft* (Appendix B.6's
//! Coordinated Raft*, generated by [`crate::port::port`]).
//!
//! The *default leader* of instance `s` is `(s - 1) mod n`. The delta:
//!
//! - **Modified `Propose`** — the coordination restriction: a replica may
//!   propose a fresh value only in its own instances; elsewhere it may
//!   propose only no-ops (skips) or re-propose an adopted value
//!   (revocation recovery, Appendix A.3).
//! - **Modified `AcceptOne` / `AcceptAll`** — Figure 14's `Phase2b`
//!   additions: accepting a no-op *from the default leader* sets the
//!   instance's skip tag and adds it to the executable set (the
//!   coordinated-Paxos property: such no-ops are executable without
//!   waiting for commit).
//!
//! Because `Phase2b`'s changes attach to *both* accept subactions, the
//! port must touch every Raft* subaction implying them — the exact
//! hazard the paper warns hand-porting gets wrong ("if the handworked
//! solution only applies changes on Phase2b to ReceiveAppend (missing
//! AppendEntries), the solution could miss optimization opportunities or
//! even generate an incorrect protocol"). Our atomic model makes this
//! visible: `AcceptAll ← Append` is ported; `AcceptOne` has no Raft*
//! counterpart (Raft* always batches), so its clauses attach nowhere.
//!
//! Safety ([`skip_safety_inv`]): a set skip tag means only the no-op can
//! ever be chosen at that instance.

use crate::expr::{
    and, app, app2, eq, forall, fun_build, fun_set, implies, int, ite, le, local, not, or, param,
    set_insert, tuple, var, Expr,
};
use crate::port::{ModifiedAction, OptDelta, PortMap};
use crate::specs::multipaxos::{self, MpConfig};
use crate::value::Value;

/// The no-op value (the appendix's `Noop`, distinct from `NoVal` = 0).
pub const NOOP: i64 = 9;

/// ∆-variable offsets.
pub const D_SKIP: usize = 0;
/// Executable-set offset.
pub const D_EXEC: usize = 1;

/// `owner(s) = (s - 1) mod n`.
fn owner(cfg: &MpConfig, s: Expr) -> Expr {
    Expr::Mod(
        Box::new(crate::expr::add(s, int(-1))),
        Box::new(int(cfg.n as i64)),
    )
}

/// Builds the Mencius delta over MultiPaxos. The config's `values` must
/// include [`NOOP`].
pub fn delta(cfg: &MpConfig) -> OptDelta {
    assert!(
        cfg.values.contains(&NOOP),
        "Mencius needs the no-op value in the domain"
    );
    let n_a = 5;
    let skip = n_a + D_SKIP;
    let exec = n_a + D_EXEC;

    let false_fun2 = {
        let inner = Value::fun((1..=cfg.slots).map(|s| (Value::Int(s), Value::Bool(false))));
        Value::fun((0..cfg.n as i64).map(|a| (Value::Int(a), inner.clone())))
    };
    let empty_sets = Value::fun((0..cfg.n as i64).map(|a| (Value::Int(a), Value::set([]))));

    // Modified Propose(a, s, v): coordination restriction.
    let propose_gate = ModifiedAction {
        base: "Propose".into(),
        extra_guard: or(vec![
            eq(param(2), int(NOOP)),
            eq(owner(cfg, param(1)), param(0)),
            // Revocation recovery: re-proposing an adopted value is
            // always allowed.
            eq(app2(var(multipaxos::AVAL), param(0), param(1)), param(2)),
        ]),
        extra_updates: vec![],
    };

    // Modified AcceptOne(q, a, s): Figure 14 Phase2b — skip tag +
    // executable set when accepting a no-op from the default leader.
    let one_cond = and(vec![
        eq(app2(var(multipaxos::AVAL), param(1), param(2)), int(NOOP)),
        eq(owner(cfg, param(2)), param(1)),
    ]);
    let accept_one_skip = ModifiedAction {
        base: "AcceptOne".into(),
        extra_guard: Expr::Const(Value::Bool(true)),
        extra_updates: vec![
            (
                skip,
                ite(
                    one_cond.clone(),
                    crate::expr::fun_set2(
                        var(skip),
                        param(0),
                        param(2),
                        Expr::Const(Value::Bool(true)),
                    ),
                    var(skip),
                ),
            ),
            (
                exec,
                ite(
                    one_cond,
                    fun_set(
                        var(exec),
                        param(0),
                        set_insert(app(var(exec), param(0)), tuple(vec![param(2), int(NOOP)])),
                    ),
                    var(exec),
                ),
            ),
        ],
    };

    // Modified AcceptAll(q, a): the same clauses for every covered
    // instance — the batched accept. `slot_active` mirrors the base
    // action's own notion of coverage.
    let covered = |s_expr: Expr| not(eq(app2(var(multipaxos::AVAL), param(1), s_expr), int(0)));
    let all_cond = |s_expr: Expr| {
        and(vec![
            covered(s_expr.clone()),
            eq(
                app2(var(multipaxos::AVAL), param(1), s_expr.clone()),
                int(NOOP),
            ),
            eq(owner(cfg, s_expr), param(1)),
        ])
    };
    let accept_all_skip = ModifiedAction {
        base: "AcceptAll".into(),
        extra_guard: Expr::Const(Value::Bool(true)),
        extra_updates: vec![
            (
                skip,
                fun_set(
                    var(skip),
                    param(0),
                    fun_build(
                        "s",
                        Expr::Const(cfg.slot_set()),
                        ite(
                            all_cond(local("s")),
                            Expr::Const(Value::Bool(true)),
                            app2(var(skip), param(0), local("s")),
                        ),
                    ),
                ),
            ),
            (
                exec,
                fun_set(
                    var(exec),
                    param(0),
                    Expr::Union(
                        Box::new(app(var(exec), param(0))),
                        Box::new(Expr::SetMap(
                            "s".into(),
                            Box::new(Expr::SetFilter(
                                "s".into(),
                                Box::new(Expr::Const(cfg.slot_set())),
                                Box::new(all_cond(local("s"))),
                            )),
                            Box::new(tuple(vec![local("s"), int(NOOP)])),
                        )),
                    ),
                ),
            ),
        ],
    };

    OptDelta {
        new_vars: vec!["skipTags".into(), "executable".into()],
        new_init: vec![false_fun2, empty_sets],
        added: vec![],
        modified: vec![propose_gate, accept_one_skip, accept_all_skip],
    }
}

/// Skip safety: a set skip tag at `(q, s)` means only the no-op can be
/// chosen at instance `s`.
pub fn skip_safety_inv(cfg: &MpConfig) -> Expr {
    let n_a = 5;
    let skip = n_a + D_SKIP;
    let ballots = Expr::Const(Value::int_range(1, cfg.max_ballot));
    let values = Expr::Const(cfg.value_set());
    forall(
        "q",
        Expr::Const(cfg.acceptors()),
        forall(
            "s",
            Expr::Const(cfg.slot_set()),
            implies(
                app2(var(skip), local("q"), local("s")),
                forall(
                    "b",
                    ballots,
                    forall(
                        "v",
                        values,
                        implies(
                            multipaxos::chosen_expr(cfg, local("s"), local("b"), local("v")),
                            eq(local("v"), int(NOOP)),
                        ),
                    ),
                ),
            ),
        ),
    )
}

/// Executable-set soundness: a no-op in an executable set was accepted
/// from its default leader there (the coordinated-Paxos early-execution
/// property's precondition).
pub fn executable_sound_inv(cfg: &MpConfig) -> Expr {
    let n_a = 5;
    let exec = n_a + D_EXEC;
    forall(
        "q",
        Expr::Const(cfg.acceptors()),
        forall(
            "e",
            app(var(exec), local("q")),
            and(vec![
                eq(crate::expr::nth(local("e"), 1), int(NOOP)),
                le(int(1), crate::expr::nth(local("e"), 0)),
            ]),
        ),
    )
}

/// The port map to Raft* (same correspondences as PQL's, since the
/// mapped protocols are the same pair).
pub fn raftstar_port_map(cfg: &MpConfig) -> PortMap {
    crate::specs::pql::raftstar_port_map(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{explore, Invariant, Limits, Verdict};
    use crate::expr::exists;
    use crate::port::{extended_map, port, projection_map, remap_expr};
    use crate::refine::check_refinement;
    use crate::specs::{multipaxos, raftstar};

    fn cfg() -> MpConfig {
        MpConfig {
            n: 3,
            max_ballot: 3,
            slots: 1,
            values: vec![1, NOOP],
        }
    }

    #[test]
    fn delta_is_mechanically_non_mutating() {
        let c = cfg();
        let mp = multipaxos::spec(&c);
        assert!(delta(&c).check_non_mutating(&mp).is_ok());
    }

    #[test]
    fn skip_safety_holds_on_coordinated_paxos() {
        let c = cfg();
        let mp = multipaxos::spec(&c);
        let coor = delta(&c).apply_to(&mp);
        let report = explore(
            &coor,
            &[
                Invariant::new("SkipSafety", skip_safety_inv(&c)),
                Invariant::new("ExecSound", executable_sound_inv(&c)),
            ],
            Limits::states(30_000),
        );
        assert!(report.ok(), "{:?}", report.verdict);
        assert!(report.states > 500);
    }

    #[test]
    fn skips_are_reachable() {
        let c = cfg();
        let mp = multipaxos::spec(&c);
        let coor = delta(&c).apply_to(&mp);
        let some_skip = exists(
            "q",
            Expr::Const(c.acceptors()),
            exists(
                "s",
                Expr::Const(c.slot_set()),
                app2(var(5 + D_SKIP), local("q"), local("s")),
            ),
        );
        let report = explore(
            &coor,
            &[Invariant::new("NoSkipEver", not(some_skip))],
            Limits::states(30_000),
        );
        assert!(
            matches!(report.verdict, Verdict::Violated { .. }),
            "{:?}",
            report.verdict
        );
    }

    #[test]
    fn coordination_restriction_bites() {
        // Without the delta, a non-owner can propose a fresh real value;
        // with it, slot 1's owner is acceptor 0, so a fresh non-noop
        // proposal by acceptor 1 must be disabled.
        let c = cfg();
        let mp = multipaxos::spec(&c);
        let coor = delta(&c).apply_to(&mp);
        // Drive acceptor 1 to leadership: Phase1(a=1, b=1? ballot owner
        // b mod 3 == 1 -> b=1), then check Propose(1, 1, 1) is disabled
        // while Propose(1, 1, NOOP) is enabled.
        let init = coor.init.clone();
        let ts = coor.transitions(&init).unwrap();
        let elected: Vec<_> = ts
            .iter()
            .filter(|t| coor.actions[t.action].name == "Phase1")
            .filter(|t| t.params[0] == Value::Int(1))
            .collect();
        assert!(!elected.is_empty(), "acceptor 1 can become leader");
        let after = elected[0].next.clone();
        let ts2 = coor.transitions(&after).unwrap();
        let proposals: Vec<_> = ts2
            .iter()
            .filter(|t| coor.actions[t.action].name == "Propose")
            .map(|t| (t.params[0].clone(), t.params[2].clone()))
            .collect();
        assert!(
            proposals.contains(&(Value::Int(1), Value::Int(NOOP))),
            "non-owner may propose the no-op: {proposals:?}"
        );
        assert!(
            !proposals.contains(&(Value::Int(1), Value::Int(1))),
            "non-owner must not propose a fresh real value: {proposals:?}"
        );
    }

    #[test]
    fn ported_coorraft_refines_both_parents() {
        // Paper Appendix A.4: the generated Raft*-Mencius refines both
        // parents.
        let c = cfg();
        let mp = multipaxos::spec(&c);
        let rs = raftstar::spec(&c);
        let d = delta(&c);
        let map = raftstar_port_map(&c);
        let coor_rs = port(&mp, &d, &rs, &map).expect("port succeeds");
        let coor_mp = d.apply_to(&mp);
        let ext = extended_map(&mp, &rs, &d, &map.state_map);
        let limits = Limits::states(1_500);
        check_refinement(&coor_rs, &coor_mp, &ext, limits).expect("CoorRaft* ⇒ CoorPaxos");
        check_refinement(&coor_rs, &rs, &projection_map(&rs), limits).expect("CoorRaft* ⇒ Raft*");
    }

    #[test]
    fn skip_safety_holds_on_generated_coorraft() {
        let c = cfg();
        let mp = multipaxos::spec(&c);
        let rs = raftstar::spec(&c);
        let d = delta(&c);
        let map = raftstar_port_map(&c);
        let coor_rs = port(&mp, &d, &rs, &map).expect("port succeeds");
        let inv = remap_expr(&mp, &rs, &map.state_map, &skip_safety_inv(&c));
        let report = explore(
            &coor_rs,
            &[Invariant::new("SkipSafety(ported)", inv)],
            Limits::states(10_000),
        );
        assert!(report.ok(), "{:?}", report.verdict);
    }

    #[test]
    fn append_carries_skip_clauses_but_not_accept_one() {
        // The paper's porting hazard, made concrete: Append (implying
        // AcceptAll) gains the skip updates; no Raft* action implies
        // AcceptOne, so its clauses attach nowhere.
        let c = cfg();
        let mp = multipaxos::spec(&c);
        let rs = raftstar::spec(&c);
        let coor_rs = port(&mp, &delta(&c), &rs, &raftstar_port_map(&c)).unwrap();
        let (_, append) = coor_rs.action("Append").unwrap();
        let skip_var = rs.vars.len() + D_SKIP;
        assert!(
            append.updates.iter().any(|(v, _)| *v == skip_var),
            "Append carries the ported skip update"
        );
        assert!(
            coor_rs.action("AcceptOne").is_none(),
            "Raft* has no per-slot accept"
        );
    }
}
