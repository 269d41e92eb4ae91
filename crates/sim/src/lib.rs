//! # paxraft-sim
//!
//! A deterministic discrete-event simulator substituting for the paper's
//! Amazon EC2 testbed (5 regions, 25–292 ms RTTs, 750 Mbps NICs,
//! m4.xlarge servers).
//!
//! The simulator provides the shared resources whose contention the
//! paper's evaluation exercises:
//!
//! - **propagation delay** between regions ([`net::NetConfig::one_way`]),
//!   which determines commit latency for quorum protocols;
//! - **NIC bandwidth** per node ([`net::Network::send`] charges
//!   `size/bandwidth` serially), which bounds throughput for 4 KB
//!   requests (Figure 10b);
//! - **CPU service time** per node ([`sim::Ctx::charge`] + a serial run
//!   queue), which bounds throughput for 8 B requests (Figures 9c, 10a);
//! - **fsync latency** per node ([`disk::DiskArray`]),
//!   which bounds throughput once durability is enabled (the default
//!   zero-cost disk charges nothing and changes no schedule).
//!
//! Everything is deterministic given a seed; see [`rng::SimRng`].
//!
//! ## Example
//!
//! ```
//! use paxraft_sim::net::{NetConfig, Region};
//! use paxraft_sim::sim::{Actor, ActorId, Ctx, Payload, Simulation};
//! use paxraft_sim::time::{SimDuration, SimTime};
//!
//! #[derive(Debug, Clone)]
//! struct Hello;
//! impl Payload for Hello {
//!     fn size_bytes(&self) -> usize { 8 }
//! }
//!
//! struct Counter { n: usize }
//! impl Actor<Hello> for Counter {
//!     fn on_message(&mut self, _ctx: &mut Ctx<Hello>, _from: ActorId, _m: Hello) {
//!         self.n += 1;
//!     }
//!     paxraft_sim::impl_actor_any!();
//! }
//!
//! let mut sim = Simulation::new(NetConfig::default(), 42);
//! let id = sim.add_actor(Region::Oregon, Box::new(Counter { n: 0 }));
//! sim.send_external(id, Hello, SimDuration::ZERO);
//! sim.run_until(SimTime::from_millis(10));
//! assert_eq!(sim.actor::<Counter>(id).n, 1);
//! ```

pub mod disk;
pub mod net;
pub mod rng;
pub mod sim;
pub mod time;
pub mod trace;

pub use disk::{DiskArray, DiskConfig, DiskStats};
pub use net::{NetConfig, Network, Region};
pub use rng::SimRng;
pub use sim::{Actor, ActorId, Ctx, Payload, SimStats, Simulation};
pub use time::{SimDuration, SimTime};
pub use trace::{FlightRecorder, TraceEvent, TraceKind};
