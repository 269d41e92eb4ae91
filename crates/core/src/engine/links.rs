//! The carrier rule, written once: a decision or an ack waits on its link,
//! rides the next message to that peer, and goes alone only once the link
//! has carried nothing for longer than an eighth of a round trip just paid.
//!
//! Figure 3 maps the `commit` Raft's `Append` carries to the Paxos learn
//! step: one decision, carried one way. A fraction of a delay already paid
//! is never the larger part of anybody's latency (15-35 ms on the paper's
//! WAN, under a millisecond in one datacentre), where a fixed bound would
//! be wrong for one of them. [`flush_idle_links`] runs after the rules'
//! `on_msg` and `on_timer`, and after an `on_durable` that says so: no timer
//! per decision or ack (two events each, even when a carrier made it
//! stale), and not left to a heartbeat or tick, too coarse for low-load
//! reads. It asks the rules what waits on a link
//! ([`ProtocolRules::waiting`]) and to send that alone
//! ([`ProtocolRules::send_alone`]). The Raft family queues nothing, its
//! `Append` always carrying the commit: its `waiting` is the default, and
//! the flush compiles away for it.
//!
//! The rules stamp a link where a message carries what waits — every
//! `Accept` and `Learn`, every Mencius stream element and `Commit` — and
//! nowhere else: a `Prepare` carries nothing that waits.

use paxraft_sim::sim::Ctx;
use paxraft_sim::time::{SimDuration, SimTime};

use super::{EngineCore, ProtocolRules};
use crate::msg::Msg;
use crate::types::NodeId;

/// What waits on a link for a carrier; handed to
/// [`ProtocolRules::send_alone`], what of it is due to leave alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Waiting {
    /// A decision: MultiPaxos's executed prefix, Mencius's committed slots.
    pub decision: bool,
    /// An acceptor's ack of the peer's suggestions (Mencius).
    pub ack: bool,
}

/// One peer's link, as the carrier rule times it.
#[derive(Debug, Clone, Copy, Default)]
struct Link {
    /// When the link last carried a decision or a stream element.
    last_sent: SimTime,
    /// How long a waiting decision may wait for a carrier.
    patience: SimDuration,
    /// How long a waiting ack may wait for one.
    ack_patience: SimDuration,
}

/// Every peer's [`Link`], beside the pipeline's per-peer progress.
#[derive(Debug)]
pub(crate) struct Links(Vec<Link>);

impl Links {
    pub(crate) fn new(n: usize) -> Self {
        Links(vec![Link::default(); n])
    }

    /// The link to `peer` carried what waited on it at `now`.
    pub(crate) fn stamp(&mut self, peer: NodeId, now: SimTime) {
        self.0[peer.0 as usize].last_sent = now;
    }

    pub(crate) fn last_sent(&self, peer: NodeId) -> SimTime {
        self.0[peer.0 as usize].last_sent
    }

    /// Decisions for `peer` may wait an eighth of `measured`; ones that
    /// `join` decisions already waiting, no longer than those may.
    pub(crate) fn decisions_wait(&mut self, peer: NodeId, measured: SimDuration, join: bool) {
        let link = &mut self.0[peer.0 as usize];
        let own = measured / 8;
        link.patience = if join { link.patience.min(own) } else { own };
    }

    /// An ack for `peer` may wait an eighth of `measured`.
    pub(crate) fn acks_wait(&mut self, peer: NodeId, measured: SimDuration) {
        self.0[peer.0 as usize].ack_patience = measured / 8;
    }
}

/// Sends alone what waits on every link idle for longer than it may wait.
pub(super) fn flush_idle_links<P: ProtocolRules>(
    rules: &mut P,
    core: &mut EngineCore,
    ctx: &mut Ctx<Msg>,
) {
    let now = ctx.now();
    for peer in core.cfg.others() {
        let waiting = rules.waiting(peer);
        if waiting == Waiting::default() {
            continue;
        }
        let link = core.links.0[peer.0 as usize];
        let idle = now.since(link.last_sent.min(now));
        let due = Waiting {
            decision: waiting.decision && idle > link.patience,
            ack: waiting.ack && idle > link.ack_patience,
        };
        if due != Waiting::default() {
            rules.send_alone(core, ctx, peer, due);
            core.links.stamp(peer, now);
        }
    }
}
