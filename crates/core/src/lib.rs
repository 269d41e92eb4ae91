//! # paxraft-core
//!
//! Runnable implementations of every protocol the paper touches, all
//! built on one shared replica engine:
//!
//! - [`engine`] — [`engine::ReplicaEngine`]`<P:`
//!   [`engine::ProtocolRules`]`>`: the protocol-agnostic machinery
//!   (state machine + session dedup, batching and forwarding, timers,
//!   chunked snapshot transfer, actor plumbing) written once; each
//!   protocol below is a thin `ProtocolRules` impl.
//! - [`multipaxos`] — MultiPaxos (Figure 1), the refinement target.
//! - [`raft`] — standard Raft (the baseline; truncates conflicting
//!   follower suffixes and keeps original entry terms).
//! - [`raftstar`] — Raft* (Section 3): vote replies carry extra entries,
//!   the leader merges safe values, followers never truncate, and every
//!   entry carries a ballot rewritten on append. Raft* refines MultiPaxos.
//! - [`pql`] — Paxos Quorum Lease ported to Raft* (Raft*-PQL, Figure 8)
//!   plus the Leader-Lease (LL) baseline of Section 5.1.
//! - [`mencius`] — Mencius / Coordinated Paxos ported to Raft*
//!   (Raft*-Mencius, Appendix A.4): round-robin slot ownership, skips,
//!   and revocation.
//!
//! All replicas are [`paxraft_sim::sim::Actor`]s over a shared [`msg::Msg`]
//! type, driven by the deterministic simulator. The [`harness`] module
//! assembles geo-replicated clusters with closed-loop clients and collects
//! the paper's metrics; [`shard`] scales past one leader's CPU by running
//! many engine groups per node with key-range routing.

pub mod client;
pub mod config;
pub mod costs;
pub mod engine;
pub mod harness;
pub mod kv;
pub mod log;
pub mod mencius;
pub mod msg;
pub mod multipaxos;
pub mod pql;
pub mod raft;
pub mod raftstar;
pub mod replicate;
pub mod shard;
pub mod snapshot;
pub mod telemetry;
pub mod types;

#[cfg(test)]
pub(crate) mod testutil;
