//! # paxraft-spec
//!
//! The formal side of the reproduction: a TLA+-like specification DSL
//! ([`value`], [`expr`], [`spec`]), an explicit-state model checker
//! ([`check`]), a refinement-mapping checker ([`refine`], Section 2.2),
//! and the automatic optimization-porting engine ([`port`](mod@port),
//! Sections 4.2–4.3) with its mechanical non-mutating test.
//!
//! The [`specs`] module holds the paper's protocol specifications
//! (Appendices B.1–B.6): MultiPaxos, Raft*, Paxos Quorum Lease as a
//! delta, the generated Raft*-PQL, Coordinated Paxos (Mencius) as a
//! delta, the generated Coordinated Raft*, and the Figure-4 worked
//! example. [`landscape`] encodes Figure 6's protocol classification.
//!
//! ## Example: the Section-4 worked example, mechanically
//!
//! ```
//! use paxraft_spec::specs::kvlog;
//! use paxraft_spec::port::{port, extended_map, projection_map};
//! use paxraft_spec::refine::check_refinement;
//! use paxraft_spec::check::Limits;
//!
//! let a = kvlog::kv_store();          // Figure 4a
//! let b = kvlog::log_store();         // Figure 4b
//! let delta = kvlog::size_delta();    // Figure 4c minus 4a
//! let map = kvlog::port_map();
//! let bd = port(&a, &delta, &b, &map).expect("ported");   // Figure 4d
//! let ad = delta.apply_to(&a);
//! let ext = extended_map(&a, &b, &delta, &map.state_map);
//! check_refinement(&bd, &ad, &ext, Limits::default()).expect("B∆ ⇒ A∆");
//! check_refinement(&bd, &b, &projection_map(&b), Limits::default()).expect("B∆ ⇒ B");
//! ```

pub mod check;
pub mod expr;
pub mod landscape;
pub mod port;
pub mod refine;
pub mod spec;
pub mod specs;
pub mod value;

pub use check::{
    explore, render_trace, replay, CheckReport, Checker, EventualReport, Invariant, Limits,
    StateGraph, TraceStep, Verdict,
};
pub use expr::{Env, Expr};
pub use port::{port, ModifiedAction, OptDelta, PortMap};
pub use refine::{check_refinement, RefinementReport, StateMap};
pub use spec::{ActionSchema, Domain, Spec, State, Transition};
pub use value::Value;
