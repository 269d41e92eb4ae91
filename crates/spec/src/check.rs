//! Explicit-state model checking (the TLC stand-in).
//!
//! Breadth-first exploration of a [`Spec`]'s reachable states under a
//! state-count budget, checking named invariants at every state. Used
//! to validate the protocol specs themselves (agreement, log matching,
//! lease safety, migration exclusivity) before any refinement or
//! porting reasoning.
//!
//! Around the invariant-checking BFS sit:
//!
//! - **Counterexample traces.** Every explored state keeps a parent
//!   pointer (which state, which action, which parameter values), so a
//!   violation or deadlock is reported as an action-labeled path from
//!   the initial state ([`TraceStep`]), replayable against the spec
//!   with [`replay`]. Breadth-first order makes each trace a shortest
//!   path.
//! - **Dependency-based pruning** (`Limits::pruned`). A conservative
//!   ample-set partial-order reduction: at each state, if some action
//!   is *statically globally independent* of every other action (no
//!   other action reads or writes anything it writes, and it reads
//!   nothing any other action writes) and *invisible* (its writes are
//!   disjoint from the variables read by the invariants), the checker
//!   may expand only that action's transitions. A seen-successor
//!   proviso (if any chosen successor was already visited, fall back to
//!   full expansion) prevents the classical "ignoring" problem on
//!   cycles. Under these conditions the reduced graph reaches a
//!   violating or deadlocked state iff the full graph does.
//! - **Symmetry reduction** ([`Checker::symmetry`]). Specs can install
//!   a canonicalization function mapping each state to a representative
//!   of its orbit (e.g. relabeling replica ids so the leader is always
//!   replica 0). Sound when invariants and the transition relation are
//!   preserved by the relabeling, which the caller asserts by
//!   installing the function.
//! - **Deadlock detection** (`Limits::detect_deadlocks`). Flags the
//!   first reachable state with no enabled transitions — opt-in, since
//!   a spec with intended final states stops in them.
//! - **Reachability goals.** [`Checker::run_graph`] records the
//!   explored edge list; [`StateGraph::always_reaches`] then decides
//!   the CTL property `AG EF goal` ("from every reachable state the
//!   goal stays reachable") by a reverse-reachability fixpoint — the
//!   checkable stand-in for "eventual release under fair schedules".

use std::collections::{HashMap, VecDeque};

use crate::expr::{Env, Expr};
use crate::spec::{Domain, Spec, State, Transition};
use crate::value::Value;

/// A named invariant.
#[derive(Debug, Clone)]
pub struct Invariant {
    /// Display name.
    pub name: String,
    /// Boolean expression over state variables.
    pub expr: Expr,
}

impl Invariant {
    /// Creates a named invariant.
    pub fn new(name: &str, expr: Expr) -> Self {
        Invariant {
            name: name.into(),
            expr,
        }
    }
}

/// Exploration limits and options.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum distinct states to visit.
    pub max_states: usize,
    /// Enable ample-set partial-order reduction.
    pub prune: bool,
    /// Flag states with no enabled transitions.
    pub deadlocks: bool,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_states: 200_000,
            prune: false,
            deadlocks: false,
        }
    }
}

impl Limits {
    /// Limits with the given state budget and everything else default.
    pub fn states(max_states: usize) -> Limits {
        Limits {
            max_states,
            ..Limits::default()
        }
    }

    /// Enables ample-set partial-order reduction.
    #[must_use]
    pub fn pruned(mut self) -> Limits {
        self.prune = true;
        self
    }

    /// Enables deadlock detection.
    #[must_use]
    pub fn detect_deadlocks(mut self) -> Limits {
        self.deadlocks = true;
        self
    }
}

/// One step of a counterexample: the action taken (with named parameter
/// values) and the state it produced. When symmetry reduction is active
/// the recorded state is the canonical representative.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// Action name.
    pub action: String,
    /// `(parameter name, chosen value)` pairs.
    pub params: Vec<(String, Value)>,
    /// The successor state the step produced.
    pub state: State,
}

impl std::fmt::Display for TraceStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}(", self.action)?;
        for (i, (name, value)) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name} = {value}")?;
        }
        write!(f, ")")
    }
}

/// Why exploration stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every reachable state (within limits) satisfies all invariants,
    /// and the frontier was exhausted.
    Exhausted,
    /// The state budget was hit with no violation found.
    BudgetReached,
    /// An invariant failed; carries its name, the violating state
    /// rendered for diagnostics, and the action-labeled path from the
    /// initial state to the violation.
    Violated {
        /// The failing invariant.
        invariant: String,
        /// Human-readable violating state.
        state: String,
        /// Discovery depth of the violation.
        depth: usize,
        /// Action-labeled counterexample path from init.
        trace: Vec<TraceStep>,
    },
    /// A reachable state has no enabled transitions (only with
    /// [`Limits::detect_deadlocks`]).
    Deadlock {
        /// Human-readable stuck state.
        state: String,
        /// Discovery depth of the stuck state.
        depth: usize,
        /// Action-labeled path from init to the stuck state.
        trace: Vec<TraceStep>,
    },
}

/// Exploration statistics plus the verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckReport {
    /// Distinct states visited.
    pub states: usize,
    /// Transitions taken.
    pub transitions: usize,
    /// Maximum depth reached.
    pub depth: usize,
    /// The outcome.
    pub verdict: Verdict,
    /// States expanded with a reduced (ample) transition set.
    pub ample_states: usize,
    /// Successors folded into an already-known canonical representative
    /// by symmetry reduction.
    pub sym_folds: usize,
}

impl CheckReport {
    /// True when no violation or deadlock was found.
    pub fn ok(&self) -> bool {
        !matches!(
            self.verdict,
            Verdict::Violated { .. } | Verdict::Deadlock { .. }
        )
    }
}

fn render_state(spec: &Spec, state: &State) -> String {
    spec.vars
        .iter()
        .zip(state)
        .map(|(n, v)| format!("{n} = {v}"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Renders a counterexample trace as one action per line.
pub fn render_trace(trace: &[TraceStep]) -> String {
    trace
        .iter()
        .enumerate()
        .map(|(i, s)| format!("  {:>3}. {s}", i + 1))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Parent-pointer bookkeeping for one explored state.
#[derive(Debug, Clone)]
struct Node {
    parent: usize,
    action: usize,
    params: Vec<Value>,
    depth: usize,
}

const NO_PARENT: usize = usize::MAX;

fn trace_of(spec: &Spec, arena: &[State], nodes: &[Node], mut idx: usize) -> Vec<TraceStep> {
    let mut steps = Vec::new();
    while nodes[idx].parent != NO_PARENT {
        let node = &nodes[idx];
        let schema = &spec.actions[node.action];
        steps.push(TraceStep {
            action: schema.name.clone(),
            params: schema
                .params
                .iter()
                .map(|(name, _)| name.clone())
                .zip(node.params.iter().cloned())
                .collect(),
            state: arena[idx].clone(),
        });
        idx = node.parent;
    }
    steps.reverse();
    steps
}

/// Static per-action read/write footprints, used by the ample-set
/// reduction.
///
/// Soundness of pruning to a single action `a` at a state:
///
/// - *Nonemptiness*: `a` has at least one enabled transition there.
/// - *Global independence*: no other action reads or writes a variable
///   `a` writes, and `a` reads no variable any other action writes. So
///   no interleaving of other actions can enable, disable, or change
///   the effect of `a`, and executing `a` commutes with every other
///   action — any schedule of the full graph can be reordered to take
///   `a` first without changing which states are reachable modulo the
///   deferred actions.
/// - *Invisibility*: `a`'s writes are disjoint from the variables the
///   invariants read, so the reordering cannot hide a violation.
/// - *Cycle proviso*: if any successor of the candidate ample set was
///   already visited, the state is fully expanded instead. This
///   prevents a cycle of ample steps from deferring the other actions
///   forever (the "ignoring" problem).
///
/// Together these guarantee the reduced exploration reaches a state
/// violating an invariant (or deadlocked) iff the full exploration
/// does.
struct Footprints {
    prunable: Vec<bool>,
}

impl Footprints {
    fn of(spec: &Spec, invariants: &[Invariant]) -> Footprints {
        let n = spec.actions.len();
        let mut reads = vec![std::collections::BTreeSet::new(); n];
        let mut writes = Vec::with_capacity(n);
        for (i, action) in spec.actions.iter().enumerate() {
            action.guard.vars_read(&mut reads[i]);
            for (_, expr) in &action.updates {
                expr.vars_read(&mut reads[i]);
            }
            for (_, dom) in &action.params {
                if let Domain::FromState(expr) = dom {
                    expr.vars_read(&mut reads[i]);
                }
            }
            writes.push(action.writes());
        }
        let mut observed = std::collections::BTreeSet::new();
        for inv in invariants {
            inv.expr.vars_read(&mut observed);
        }
        let prunable = (0..n)
            .map(|i| {
                !writes[i].is_empty()
                    && writes[i].is_disjoint(&observed)
                    && (0..n).filter(|&j| j != i).all(|j| {
                        writes[i].is_disjoint(&reads[j])
                            && writes[i].is_disjoint(&writes[j])
                            && writes[j].is_disjoint(&reads[i])
                    })
            })
            .collect();
        Footprints { prunable }
    }

    /// Picks the transition indices to expand: the first prunable
    /// action with enabled transitions whose successors are all fresh,
    /// else everything.
    fn ample(
        &self,
        ts: &[Transition],
        succs: &[State],
        index: &HashMap<State, usize>,
    ) -> Vec<usize> {
        for (ai, &prunable) in self.prunable.iter().enumerate() {
            if !prunable {
                continue;
            }
            let group: Vec<usize> = (0..ts.len()).filter(|&k| ts[k].action == ai).collect();
            if group.is_empty() {
                continue;
            }
            if group.iter().all(|&k| !index.contains_key(&succs[k])) {
                return group;
            }
        }
        (0..ts.len()).collect()
    }
}

/// The recorded exploration graph: canonical states, the taken edges,
/// and the parent pointers (for witness traces).
#[derive(Debug, Clone)]
pub struct StateGraph {
    /// Explored states in discovery order (index 0 is init).
    pub states: Vec<State>,
    /// For each state, the successor indices of the taken transitions
    /// (reduced graph when pruning is on).
    pub edges: Vec<Vec<usize>>,
    /// True when exploration finished [`Verdict::Exhausted`]; graph
    /// queries on partial graphs are refused.
    pub complete: bool,
    nodes: Vec<Node>,
}

/// Result of an `AG EF goal` query over a [`StateGraph`].
#[derive(Debug, Clone)]
pub struct EventualReport {
    /// Reachable states satisfying the goal.
    pub goal_states: usize,
    /// Reachable states from which no goal state is reachable.
    pub stuck_states: usize,
    /// Action-labeled path from init to one stuck state, if any.
    pub witness: Option<Vec<TraceStep>>,
}

impl EventualReport {
    /// True when every reachable state can still reach the goal.
    pub fn holds(&self) -> bool {
        self.stuck_states == 0 && self.goal_states > 0
    }
}

impl StateGraph {
    /// Number of explored states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True when the graph has no states (never happens after a run).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Decides `AG EF goal`: from every explored state, some state
    /// satisfying `goal` is reachable. This is the checkable stand-in
    /// for "the goal eventually happens under fair schedules": a fair
    /// scheduler cannot be trapped in a region from which the goal is
    /// unreachable.
    ///
    /// Only valid on a complete (Exhausted) graph. When the graph was
    /// built with pruning, the verdict applies to the reduced graph;
    /// with the global-independence ample sets used here, a pruned
    /// action can never disable the deferred ones, so a goal reachable
    /// in the full graph stays reachable in the reduced one provided
    /// `goal` only reads variables visible to the reduction (i.e.
    /// variables read by the invariants).
    ///
    /// # Errors
    ///
    /// Fails on an incomplete graph or an ill-typed goal expression.
    pub fn always_reaches(&self, spec: &Spec, goal: &Expr) -> Result<EventualReport, String> {
        if !self.complete {
            return Err("state graph is incomplete (verdict was not Exhausted)".into());
        }
        let n = self.states.len();
        let mut in_goal = vec![false; n];
        for (i, state) in self.states.iter().enumerate() {
            in_goal[i] = goal.eval(&mut Env::of_state(state))?.as_bool()?;
        }
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (from, outs) in self.edges.iter().enumerate() {
            for &to in outs {
                rev[to].push(from);
            }
        }
        let mut can_reach = in_goal.clone();
        let mut queue: VecDeque<usize> = (0..n).filter(|&i| in_goal[i]).collect();
        while let Some(i) = queue.pop_front() {
            for &p in &rev[i] {
                if !can_reach[p] {
                    can_reach[p] = true;
                    queue.push_back(p);
                }
            }
        }
        let stuck: Vec<usize> = (0..n).filter(|&i| !can_reach[i]).collect();
        Ok(EventualReport {
            goal_states: in_goal.iter().filter(|&&g| g).count(),
            stuck_states: stuck.len(),
            witness: stuck
                .first()
                .map(|&i| trace_of(spec, &self.states, &self.nodes, i)),
        })
    }
}

/// Configurable explicit-state checker. [`explore`] is the convenience
/// wrapper; build a `Checker` directly to install symmetry reduction or
/// to keep the explored graph.
pub struct Checker<'a> {
    spec: &'a Spec,
    invariants: &'a [Invariant],
    limits: Limits,
    symmetry: Option<&'a dyn Fn(&State) -> State>,
}

impl<'a> Checker<'a> {
    /// A checker over `spec` with no invariants and default limits.
    pub fn new(spec: &'a Spec) -> Checker<'a> {
        Checker {
            spec,
            invariants: &[],
            limits: Limits::default(),
            symmetry: None,
        }
    }

    /// Sets the invariants checked at every state.
    #[must_use]
    pub fn invariants(mut self, invariants: &'a [Invariant]) -> Checker<'a> {
        self.invariants = invariants;
        self
    }

    /// Sets the exploration limits.
    #[must_use]
    pub fn limits(mut self, limits: Limits) -> Checker<'a> {
        self.limits = limits;
        self
    }

    /// Installs a state canonicalization function (symmetry reduction).
    /// The caller asserts that the invariants and the transition
    /// relation are preserved by the relabeling.
    #[must_use]
    pub fn symmetry(mut self, canon: &'a dyn Fn(&State) -> State) -> Checker<'a> {
        self.symmetry = Some(canon);
        self
    }

    /// Runs the exploration.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails validation or an expression is
    /// ill-typed — both indicate bugs in the spec definition, not in
    /// the checked protocol.
    pub fn run(&self) -> CheckReport {
        self.run_core(false).0
    }

    /// Runs the exploration and also returns the explored state graph
    /// (for reachability-goal queries).
    ///
    /// # Panics
    ///
    /// As [`Checker::run`].
    pub fn run_graph(&self) -> (CheckReport, StateGraph) {
        let (report, graph) = self.run_core(true);
        (report, graph.expect("graph recorded"))
    }

    fn violated(&self, state: &State) -> Option<String> {
        for inv in self.invariants {
            let holds = inv
                .expr
                .eval(&mut Env::of_state(state))
                .unwrap_or_else(|e| panic!("invariant {}: {e}", inv.name))
                .as_bool()
                .expect("invariant is boolean");
            if !holds {
                return Some(inv.name.clone());
            }
        }
        None
    }

    fn canon(&self, state: &State) -> State {
        match self.symmetry {
            Some(f) => f(state),
            None => state.clone(),
        }
    }

    fn run_core(&self, record: bool) -> (CheckReport, Option<StateGraph>) {
        let spec = self.spec;
        spec.validate().expect("spec validates");
        let footprints = self
            .limits
            .prune
            .then(|| Footprints::of(spec, self.invariants));

        let mut arena: Vec<State> = Vec::new();
        let mut index: HashMap<State, usize> = HashMap::new();
        let mut nodes: Vec<Node> = Vec::new();
        let mut edges: Vec<Vec<usize>> = Vec::new();
        let mut frontier: VecDeque<usize> = VecDeque::new();
        let mut transitions = 0usize;
        let mut max_depth = 0usize;
        let mut ample_states = 0usize;
        let mut sym_folds = 0usize;

        let finish = |arena: Vec<State>,
                      nodes: Vec<Node>,
                      edges: Vec<Vec<usize>>,
                      states: usize,
                      transitions: usize,
                      depth: usize,
                      verdict: Verdict,
                      ample_states: usize,
                      sym_folds: usize| {
            let complete = verdict == Verdict::Exhausted;
            let graph = record.then_some(StateGraph {
                states: arena,
                edges,
                complete,
                nodes,
            });
            (
                CheckReport {
                    states,
                    transitions,
                    depth,
                    verdict,
                    ample_states,
                    sym_folds,
                },
                graph,
            )
        };

        let init = self.canon(&spec.init);
        arena.push(init.clone());
        index.insert(init.clone(), 0);
        nodes.push(Node {
            parent: NO_PARENT,
            action: usize::MAX,
            params: Vec::new(),
            depth: 0,
        });
        edges.push(Vec::new());
        if let Some(invariant) = self.violated(&init) {
            let verdict = Verdict::Violated {
                invariant,
                state: render_state(spec, &init),
                depth: 0,
                trace: Vec::new(),
            };
            return finish(arena, nodes, edges, 1, 0, 0, verdict, 0, 0);
        }
        frontier.push_back(0);

        while let Some(cur) = frontier.pop_front() {
            let depth = nodes[cur].depth;
            let state = arena[cur].clone();
            let ts = spec.transitions(&state).expect("transitions evaluate");
            if self.limits.deadlocks && ts.is_empty() {
                let trace = trace_of(spec, &arena, &nodes, cur);
                let verdict = Verdict::Deadlock {
                    state: render_state(spec, &state),
                    depth,
                    trace,
                };
                let states = arena.len();
                return finish(
                    arena,
                    nodes,
                    edges,
                    states,
                    transitions,
                    max_depth.max(depth),
                    verdict,
                    ample_states,
                    sym_folds,
                );
            }
            let succs: Vec<State> = ts.iter().map(|t| self.canon(&t.next)).collect();
            if self.symmetry.is_some() {
                sym_folds += ts
                    .iter()
                    .zip(&succs)
                    .filter(|(t, canon)| &t.next != *canon)
                    .count();
            }
            let chosen: Vec<usize> = match &footprints {
                Some(fp) => fp.ample(&ts, &succs, &index),
                None => (0..ts.len()).collect(),
            };
            if chosen.len() < ts.len() {
                ample_states += 1;
            }
            for &ti in &chosen {
                transitions += 1;
                let next = &succs[ti];
                if let Some(&j) = index.get(next) {
                    edges[cur].push(j);
                    continue;
                }
                if let Some(invariant) = self.violated(next) {
                    let mut trace = trace_of(spec, &arena, &nodes, cur);
                    trace.push(TraceStep {
                        action: spec.actions[ts[ti].action].name.clone(),
                        params: spec.actions[ts[ti].action]
                            .params
                            .iter()
                            .map(|(name, _)| name.clone())
                            .zip(ts[ti].params.iter().cloned())
                            .collect(),
                        state: next.clone(),
                    });
                    let verdict = Verdict::Violated {
                        invariant,
                        state: render_state(spec, next),
                        depth: depth + 1,
                        trace,
                    };
                    let states = arena.len() + 1;
                    return finish(
                        arena,
                        nodes,
                        edges,
                        states,
                        transitions,
                        depth + 1,
                        verdict,
                        ample_states,
                        sym_folds,
                    );
                }
                let j = arena.len();
                arena.push(next.clone());
                index.insert(next.clone(), j);
                nodes.push(Node {
                    parent: cur,
                    action: ts[ti].action,
                    params: ts[ti].params.clone(),
                    depth: depth + 1,
                });
                edges.push(Vec::new());
                edges[cur].push(j);
                max_depth = max_depth.max(depth + 1);
                if arena.len() >= self.limits.max_states {
                    let states = arena.len();
                    return finish(
                        arena,
                        nodes,
                        edges,
                        states,
                        transitions,
                        max_depth,
                        Verdict::BudgetReached,
                        ample_states,
                        sym_folds,
                    );
                }
                frontier.push_back(j);
            }
        }
        let states = arena.len();
        finish(
            arena,
            nodes,
            edges,
            states,
            transitions,
            max_depth,
            Verdict::Exhausted,
            ample_states,
            sym_folds,
        )
    }
}

/// Explores `spec`, checking `invariants` at every state. Convenience
/// wrapper over [`Checker`] for callers without symmetry reduction.
///
/// # Panics
///
/// Panics if the spec fails validation or an expression is ill-typed —
/// both indicate bugs in the spec definition, not in the checked
/// protocol.
pub fn explore(spec: &Spec, invariants: &[Invariant], limits: Limits) -> CheckReport {
    Checker::new(spec)
        .invariants(invariants)
        .limits(limits)
        .run()
}

/// Replays a counterexample trace against `spec` from its initial
/// state, verifying every step is an enabled transition producing the
/// recorded state. Returns the final state.
///
/// # Errors
///
/// Fails when a step's action/parameters are not enabled or the
/// replayed state diverges from the recorded one.
pub fn replay(spec: &Spec, trace: &[TraceStep]) -> Result<State, String> {
    let mut cur = spec.init.clone();
    for (i, step) in trace.iter().enumerate() {
        let params: Vec<Value> = step.params.iter().map(|(_, v)| v.clone()).collect();
        let ts = spec.transitions(&cur)?;
        let taken = ts
            .into_iter()
            .find(|t| spec.actions[t.action].name == step.action && t.params == params)
            .ok_or_else(|| {
                format!(
                    "step {}: {} is not enabled with the recorded parameters",
                    i + 1,
                    step.action
                )
            })?;
        if taken.next != step.state {
            return Err(format!(
                "step {}: replayed state diverges from the recorded trace",
                i + 1
            ));
        }
        cur = taken.next;
    }
    Ok(cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{add, int, le, lt, var};
    use crate::spec::{ActionSchema, Domain};
    use crate::value::Value;

    fn counter(bound: i64) -> Spec {
        Spec {
            name: "Counter".into(),
            vars: vec!["x".into()],
            init: vec![Value::Int(0)],
            actions: vec![ActionSchema {
                name: "Inc".into(),
                params: vec![("d".into(), Domain::ints(1, 2))],
                guard: lt(var(0), int(bound)),
                updates: vec![(0, add(var(0), crate::expr::param(0)))],
            }],
        }
    }

    #[test]
    fn explores_all_states() {
        let spec = counter(5);
        let report = explore(&spec, &[], Limits::default());
        // Reachable: 0..=6 (bound 5 allows +2 from 4).
        assert_eq!(report.verdict, Verdict::Exhausted);
        assert_eq!(report.states, 7);
        assert!(report.transitions >= 10);
    }

    #[test]
    fn invariant_violation_reported_with_state_and_trace() {
        let spec = counter(5);
        let inv = Invariant::new("x <= 4", le(var(0), int(4)));
        let report = explore(&spec, &[inv], Limits::default());
        match report.verdict {
            Verdict::Violated {
                invariant,
                state,
                depth,
                trace,
            } => {
                assert_eq!(invariant, "x <= 4");
                assert!(
                    state.contains("x = 5") || state.contains("x = 6"),
                    "{state}"
                );
                assert!(depth >= 3);
                assert_eq!(trace.len(), depth);
                assert!(trace.iter().all(|s| s.action == "Inc"));
                let replayed = replay(&spec, &trace).expect("trace replays");
                assert_eq!(&replayed, &trace.last().unwrap().state);
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn bfs_trace_is_the_exact_shortest_path() {
        let spec = counter(5);
        let inv = Invariant::new("x <= 4", le(var(0), int(4)));
        let report = explore(&spec, &[inv], Limits::default());
        let Verdict::Violated { depth, trace, .. } = report.verdict else {
            panic!("expected violation");
        };
        // BFS discovery order is deterministic: the first violation is
        // x = 5 reached via +1, +2, +2.
        assert_eq!(depth, 3);
        let steps: Vec<(String, i64)> = trace
            .iter()
            .map(|s| (s.action.clone(), s.params[0].1.as_int().unwrap()))
            .collect();
        assert_eq!(
            steps,
            vec![("Inc".into(), 1), ("Inc".into(), 2), ("Inc".into(), 2),]
        );
        assert_eq!(trace.last().unwrap().state, vec![Value::Int(5)]);
    }

    #[test]
    fn holds_invariant_reports_exhausted() {
        let spec = counter(5);
        let inv = Invariant::new("x <= 6", le(var(0), int(6)));
        let report = explore(&spec, &[inv], Limits::default());
        assert!(report.ok());
        assert_eq!(report.verdict, Verdict::Exhausted);
    }

    #[test]
    fn budget_stops_exploration() {
        let spec = counter(1_000_000);
        let report = explore(&spec, &[], Limits::states(50));
        assert_eq!(report.verdict, Verdict::BudgetReached);
        assert_eq!(report.states, 50);
    }

    #[test]
    fn deadlock_detected_with_a_replayable_trace() {
        let spec = counter(5);
        let report = Checker::new(&spec)
            .limits(Limits::default().detect_deadlocks())
            .run();
        match report.verdict {
            Verdict::Deadlock { depth, trace, .. } => {
                assert_eq!(depth, 3, "first stuck state is x = 5 at depth 3");
                assert_eq!(trace.len(), 3);
                let end = replay(&spec, &trace).expect("deadlock trace replays");
                assert_eq!(end, vec![Value::Int(5)]);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }
}
