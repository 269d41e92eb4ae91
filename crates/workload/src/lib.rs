//! # paxraft-workload
//!
//! The measurement side of the reproduction: a YCSB-like closed-loop
//! workload generator matching Section 5's description (100K records, a
//! popular record hit at a configurable *conflict rate*, per-datacenter
//! key partitions, 8 B / 4 KB values) with one optional moving hot key
//! window for the auto-rebalancing runs ([`scenario::Hotspot`]), latency
//! metrics with the paper's reporting conventions (p50/p90/p99), and a
//! linearizability checker used to validate that Quorum-Lease local reads
//! remain strongly consistent.
//!
//! ## Example
//!
//! ```
//! use paxraft_workload::generator::{Generator, WorkloadConfig, OpKind};
//! use paxraft_sim::rng::SimRng;
//!
//! let cfg = WorkloadConfig { read_fraction: 1.0, ..WorkloadConfig::default() };
//! let mut g = Generator::new(cfg, 0, SimRng::new(1));
//! assert_eq!(g.next_op().kind, OpKind::Read);
//! ```

pub mod generator;
pub mod linearize;
pub mod metrics;
pub mod scenario;

pub use generator::{Generator, OpKind, OpSpec, WorkloadConfig, HOT_KEY};
pub use linearize::{check_history, check_register, Action, CheckError, OpRecord};
pub use metrics::{LatencyRecorder, LatencyTriple, PeakGauge};
pub use scenario::{Drift, Hotspot};
