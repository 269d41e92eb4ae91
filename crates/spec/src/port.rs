//! The automatic optimization-porting method (Sections 4.2–4.3).
//!
//! An optimization of protocol `A` is a *delta* ([`OptDelta`]): new state
//! variables, *added* subactions, and *modified* subactions (existing
//! subactions with extra conjunctive clauses). The optimization is
//! **non-mutating** when no added subaction and no added clause assigns
//! an original `A` variable — checked mechanically by
//! [`OptDelta::check_non_mutating`], which turns Section 4.2's definition
//! into executable validation.
//!
//! Given `B ⇒ A` under a state mapping `f` (plus a parameter mapping for
//! clauses that read `A`'s parameters), [`port`] derives `B∆` by the
//! three cases of Section 4.3:
//!
//! - **Case 1** (added subaction): substitute `Var_A := f(Var_B)`, keep
//!   `Var_∆` (re-indexed into `B∆`'s variable space).
//! - **Case 2** (unchanged subaction): the B subactions that imply it are
//!   already in `B` and are kept as-is.
//! - **Case 3** (modified subaction): every B subaction that implies the
//!   modified A subaction receives the extra clauses, with `Var_A :=
//!   f(Var_B)` and `P_A := f_args(P_B)` substituted.
//!
//! The derived `B∆` then refines both `A∆` (it preserves the
//! optimization's invariants) and `B` (it preserves the original
//! protocol's invariants) — which the refinement checker verifies for
//! each ported case study.

use crate::expr::Expr;
use crate::refine::StateMap;
use crate::spec::{ActionSchema, Spec, State};

/// Extra clauses attached to an existing subaction of `A`.
#[derive(Debug, Clone)]
pub struct ModifiedAction {
    /// The name of the `A` subaction being modified.
    pub base: String,
    /// Extra guard conjuncts (may read `Var_A`, `Var_∆` and `P_A`).
    pub extra_guard: Expr,
    /// Extra updates; targets must be `Var_∆` for a non-mutating delta.
    pub extra_updates: Vec<(usize, Expr)>,
}

/// An optimization `A∆ − A`.
#[derive(Debug, Clone)]
pub struct OptDelta {
    /// Names of the new state variables `Var_∆`. In `A∆`'s variable
    /// space they follow `A`'s variables (indices `|Var_A| ..`).
    pub new_vars: Vec<String>,
    /// Initial values for the new variables.
    pub new_init: State,
    /// Added subactions (over `Var_A ∪ Var_∆`).
    pub added: Vec<ActionSchema>,
    /// Modified subactions.
    pub modified: Vec<ModifiedAction>,
}

impl OptDelta {
    /// Builds the optimized protocol `A∆` (for checking the optimization
    /// itself, and for the `B∆ ⇒ A∆` refinement target).
    ///
    /// # Panics
    ///
    /// Panics if a modified action names an unknown `A` subaction.
    pub fn apply_to(&self, a: &Spec) -> Spec {
        let mut vars = a.vars.clone();
        vars.extend(self.new_vars.iter().cloned());
        let mut init = a.init.clone();
        init.extend(self.new_init.iter().cloned());
        let mut actions = Vec::new();
        for action in &a.actions {
            let mut action = action.clone();
            for m in self.modified.iter().filter(|m| m.base == action.name) {
                action.guard = Expr::And(vec![action.guard.clone(), m.extra_guard.clone()]);
                action.updates.extend(m.extra_updates.iter().cloned());
            }
            actions.push(action);
        }
        actions.extend(self.added.iter().cloned());
        for m in &self.modified {
            assert!(
                a.action(&m.base).is_some(),
                "modified action `{}` does not exist in {}",
                m.base,
                a.name
            );
        }
        Spec {
            name: format!("{}+∆", a.name),
            vars,
            init,
            actions,
        }
    }

    /// Section 4.2's check: the delta never mutates `Var_A`.
    ///
    /// # Errors
    ///
    /// Returns one message per violating update.
    pub fn check_non_mutating(&self, a: &Spec) -> Result<(), Vec<String>> {
        let n_a = a.vars.len();
        let mut errors = Vec::new();
        for action in &self.added {
            for (vi, _) in &action.updates {
                if *vi < n_a {
                    errors.push(format!(
                        "added subaction `{}` mutates A variable `{}`",
                        action.name, a.vars[*vi]
                    ));
                }
            }
        }
        for m in &self.modified {
            for (vi, _) in &m.extra_updates {
                if *vi < n_a {
                    errors.push(format!(
                        "modified subaction `{}` adds an update to A variable `{}`",
                        m.base, a.vars[*vi]
                    ));
                }
            }
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }
}

/// How `B`'s subactions relate to `A`'s (the action part of the
/// refinement mapping), plus the parameter mapping of Section 4.3.
#[derive(Debug, Clone)]
pub struct PortMap {
    /// State mapping `Var_A = f(Var_B)` (expressions over B variables).
    pub state_map: StateMap,
    /// `(B action, A action it implies)` pairs. B actions that imply
    /// only stutters are omitted.
    pub action_map: Vec<(String, String)>,
    /// For each pair in `action_map`: expressions (over *B* params and
    /// *B* vars) giving the value of each `A` parameter. Entry `i` of the
    /// outer vec corresponds to entry `i` of `action_map`.
    pub param_maps: Vec<Vec<Expr>>,
}

impl PortMap {
    /// B actions implying the named A action, with their param maps.
    fn impliers(&self, a_action: &str) -> Vec<(&str, &[Expr])> {
        self.action_map
            .iter()
            .zip(&self.param_maps)
            .filter(|((_, a), _)| a == a_action)
            .map(|((b, _), pm)| (b.as_str(), pm.as_slice()))
            .collect()
    }
}

/// Ports a non-mutating optimization from `A` to `B` (Section 4.3),
/// producing the specification of `B∆`.
///
/// # Errors
///
/// Returns an error if the delta is not non-mutating, or if the port map
/// is inconsistent with the specs.
pub fn port(a: &Spec, delta: &OptDelta, b: &Spec, map: &PortMap) -> Result<Spec, String> {
    delta
        .check_non_mutating(a)
        .map_err(|es| format!("delta is not non-mutating: {}", es.join("; ")))?;
    if map.state_map.exprs.len() != a.vars.len() {
        return Err("state map must cover every A variable".into());
    }
    if map.action_map.len() != map.param_maps.len() {
        return Err("param_maps must align with action_map".into());
    }

    let n_a = a.vars.len();
    let n_b = b.vars.len();
    // Var_∆ re-indexing: A∆ index (n_a + k) becomes B∆ index (n_b + k).
    let remap_var = |i: usize| -> Option<Expr> {
        if i < n_a {
            Some(map.state_map.exprs[i].clone())
        } else {
            Some(Expr::Var(n_b + (i - n_a)))
        }
    };

    // VarB∆ = VarB ∪ Var∆ ; InitB∆ from InitB and Init∆.
    let mut vars = b.vars.clone();
    vars.extend(delta.new_vars.iter().cloned());
    let mut init = b.init.clone();
    init.extend(delta.new_init.iter().cloned());

    // Case 2: every B subaction is carried over (B actions implying
    // unchanged A subactions or stutters are kept verbatim; the ones
    // implying modified subactions are rewritten below).
    let mut actions: Vec<ActionSchema> = b.actions.clone();

    // Case 3: extend the impliers of each modified A subaction.
    for m in &delta.modified {
        let (_, a_schema) = a
            .action(&m.base)
            .ok_or_else(|| format!("modified action `{}` not in {}", m.base, a.name))?;
        let impliers = map.impliers(&m.base);
        for (b_name, param_map) in impliers {
            if param_map.len() != a_schema.params.len() {
                return Err(format!(
                    "param map for ({b_name} -> {}) has {} entries, action has {} params",
                    m.base,
                    param_map.len(),
                    a_schema.params.len()
                ));
            }
            let target = actions
                .iter_mut()
                .find(|x| x.name == *b_name)
                .ok_or_else(|| format!("action map names unknown B action `{b_name}`"))?;
            let subst_params = |i: usize| -> Option<Expr> { param_map.get(i).cloned() };
            let guard = m.extra_guard.substitute(&remap_var, &subst_params);
            let updates: Vec<(usize, Expr)> = m
                .extra_updates
                .iter()
                .map(|(vi, e)| {
                    debug_assert!(*vi >= n_a, "non-mutating checked above");
                    (n_b + (vi - n_a), e.substitute(&remap_var, &subst_params))
                })
                .collect();
            target.guard = Expr::And(vec![target.guard.clone(), guard]);
            target.updates.extend(updates);
        }
    }

    // Case 1: added subactions, substituted into B's state space. Their
    // parameters stay their own (they are ∆ parameters, not A's).
    for added in &delta.added {
        let guard = added.guard.substitute(&remap_var, &|_| None);
        let updates: Vec<(usize, Expr)> = added
            .updates
            .iter()
            .map(|(vi, e)| {
                debug_assert!(*vi >= n_a, "non-mutating checked above");
                (n_b + (vi - n_a), e.substitute(&remap_var, &|_| None))
            })
            .collect();
        let mut params = added.params.clone();
        // State-dependent parameter domains must be substituted too.
        for (_, d) in &mut params {
            if let crate::spec::Domain::FromState(e) = d {
                *e = e.substitute(&remap_var, &|_| None);
            }
        }
        actions.push(ActionSchema {
            name: added.name.clone(),
            params,
            guard,
            updates,
        });
    }

    let spec = Spec {
        name: format!("{}+∆(ported)", b.name),
        vars,
        init,
        actions,
    };
    spec.validate()?;
    Ok(spec)
}

/// The extended state map for checking `B∆ ⇒ A∆`: `f` on the A
/// variables, identity on the ∆ variables.
pub fn extended_map(a: &Spec, b: &Spec, delta: &OptDelta, map: &StateMap) -> StateMap {
    let _ = a;
    let mut exprs = map.exprs.clone();
    for k in 0..delta.new_vars.len() {
        exprs.push(Expr::Var(b.vars.len() + k));
    }
    StateMap { exprs }
}

/// The projection map for checking `B∆ ⇒ B`: drop the ∆ variables.
pub fn projection_map(b: &Spec) -> StateMap {
    StateMap::identity(b.vars.len())
}

/// Rewrites an expression over `A∆`'s variables (A vars then ∆ vars)
/// into `B∆`'s variable space, using the same substitution as [`port`].
/// Lets invariants stated over `A∆` be checked directly on the ported
/// `B∆`.
pub fn remap_expr(a: &Spec, b: &Spec, map: &StateMap, expr: &Expr) -> Expr {
    let n_a = a.vars.len();
    let n_b = b.vars.len();
    expr.substitute(
        &|i| {
            if i < n_a {
                Some(map.exprs[i].clone())
            } else {
                Some(Expr::Var(n_b + (i - n_a)))
            }
        },
        &|_| None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{add, eq, int, param, var};
    use crate::spec::Domain;
    use crate::value::Value;

    /// A tiny A: one cell, Set(v) writes it.
    fn tiny_a() -> Spec {
        Spec {
            name: "Cell".into(),
            vars: vec!["cell".into()],
            init: vec![Value::Int(0)],
            actions: vec![ActionSchema {
                name: "Set".into(),
                params: vec![("v".into(), Domain::ints(1, 2))],
                guard: eq(var(0), int(0)),
                updates: vec![(0, param(0))],
            }],
        }
    }

    /// Delta: count how many sets happened (one new var, one modified
    /// subaction).
    fn counting_delta() -> OptDelta {
        OptDelta {
            new_vars: vec!["count".into()],
            new_init: vec![Value::Int(0)],
            added: vec![],
            modified: vec![ModifiedAction {
                base: "Set".into(),
                extra_guard: Expr::Const(Value::Bool(true)),
                extra_updates: vec![(1, add(var(1), int(1)))],
            }],
        }
    }

    /// B: two cells written in order; maps to A by projecting cell 0...
    /// here: cell := b_cell (same), with an extra variable.
    fn tiny_b() -> Spec {
        Spec {
            name: "CellPair".into(),
            vars: vec!["cell".into(), "shadow".into()],
            init: vec![Value::Int(0), Value::Int(0)],
            actions: vec![ActionSchema {
                name: "SetBoth".into(),
                params: vec![("v".into(), Domain::ints(1, 2))],
                guard: eq(var(0), int(0)),
                updates: vec![(0, param(0)), (1, param(0))],
            }],
        }
    }

    fn tiny_map() -> PortMap {
        PortMap {
            state_map: StateMap {
                exprs: vec![var(0)],
            },
            action_map: vec![("SetBoth".into(), "Set".into())],
            param_maps: vec![vec![param(0)]],
        }
    }

    #[test]
    fn apply_to_builds_a_delta() {
        let a = tiny_a();
        let ad = counting_delta().apply_to(&a);
        assert_eq!(ad.vars.len(), 2);
        assert_eq!(ad.init[1], Value::Int(0));
        // The modified Set increments count.
        let ts = ad.transitions(&ad.init).unwrap();
        assert!(ts.iter().all(|t| t.next[1] == Value::Int(1)));
    }

    #[test]
    fn non_mutating_check_accepts_and_rejects() {
        let a = tiny_a();
        assert!(counting_delta().check_non_mutating(&a).is_ok());
        let mut bad = counting_delta();
        bad.modified[0].extra_updates.push((0, int(9)));
        let errs = bad.check_non_mutating(&a).unwrap_err();
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("cell"));
    }

    #[test]
    fn port_produces_counting_b() {
        let a = tiny_a();
        let b = tiny_b();
        let bd = port(&a, &counting_delta(), &b, &tiny_map()).unwrap();
        assert_eq!(bd.vars, vec!["cell", "shadow", "count"]);
        let ts = bd.transitions(&bd.init).unwrap();
        assert_eq!(ts.len(), 2);
        for t in &ts {
            assert_eq!(
                t.next[2],
                Value::Int(1),
                "count incremented by ported clause"
            );
            assert_eq!(t.next[0], t.next[1], "original B behaviour preserved");
        }
    }

    #[test]
    fn ported_spec_refines_both_parents() {
        use crate::check::Limits;
        use crate::refine::check_refinement;
        let a = tiny_a();
        let b = tiny_b();
        let delta = counting_delta();
        let bd = port(&a, &delta, &b, &tiny_map()).unwrap();
        let ad = delta.apply_to(&a);
        // B∆ ⇒ A∆ under f extended with identity on ∆ vars.
        let ext = extended_map(&a, &b, &delta, &tiny_map().state_map);
        check_refinement(&bd, &ad, &ext, Limits::default()).expect("B∆ refines A∆");
        // B∆ ⇒ B by dropping ∆ vars.
        check_refinement(&bd, &b, &projection_map(&b), Limits::default()).expect("B∆ refines B");
    }

    #[test]
    fn port_rejects_mutating_delta() {
        let a = tiny_a();
        let b = tiny_b();
        let mut bad = counting_delta();
        bad.modified[0].extra_updates.push((0, int(9)));
        let err = port(&a, &bad, &b, &tiny_map()).unwrap_err();
        assert!(err.contains("non-mutating"));
    }

    #[test]
    fn added_action_is_substituted() {
        let a = tiny_a();
        let b = tiny_b();
        let delta = OptDelta {
            new_vars: vec!["seen".into()],
            new_init: vec![Value::Bool(false)],
            added: vec![ActionSchema {
                name: "Observe".into(),
                params: vec![],
                // Reads A's cell: must become B's mapped expression.
                guard: eq(var(0), int(1)),
                updates: vec![(1, Expr::Const(Value::Bool(true)))],
            }],
            modified: vec![],
        };
        let bd = port(&a, &delta, &b, &tiny_map()).unwrap();
        let (_, observe) = bd.action("Observe").unwrap();
        // Var(0) of A mapped to Var(0) of B (identity here), update
        // re-indexed to B∆ var 2.
        assert_eq!(observe.updates[0].0, 2);
    }
}
