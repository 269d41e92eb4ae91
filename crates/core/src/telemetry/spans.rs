//! Causal command tracing: per-command span trees and the latency
//! breakdown that explains *where* a command's time went.
//!
//! The simulator records [`SpanEvent`]s — lifecycle *points* (client
//! send, enqueue, propose, quorum, commit, reply, …) keyed by the
//! command's `(client, seq)` correlation id. This module stitches them
//! post-run into one [`CommandBreakdown`] per completed command.
//!
//! ## The accounting identity
//!
//! Spans are points, not intervals, and the breakdown **telescopes**:
//! the command's events are taken in emission order (the simulation is
//! single-threaded, so emission order is time order), every event
//! selects the stage the command is in *from that instant on*, and the
//! gap to the next event is booked to that stage. The stage components
//! therefore sum to `done − issued` **exactly**, by construction — no
//! unattributed time, no double counting — regardless of retries,
//! redirects, duplicate deliveries or crash-induced re-sends. The
//! conformance suite asserts the identity for every traced command in
//! a loss+crash run.
//!
//! ## Stage semantics
//!
//! - **queueing** — at a *non*-proposing replica waiting for the
//!   forward hop, or stalled at the client during a migration freeze
//!   window (`ClientStall`).
//! - **batching** — in the proposer's pending batch waiting for the
//!   batch cutter (including explicit `WindowDefer`s when the
//!   replication window or NIC is the reason the cut didn't happen).
//! - **network** — everything in flight between actors: client→replica,
//!   forward hop, redirect bounces, and the reply path. Handler CPU
//!   service time surfaces here too (a handler's outputs take effect
//!   after its charge elapses).
//! - **replication** — from `Propose` until the slot's replication
//!   quorum (`Quorum`) or commit, whichever comes first. A Raft-family
//!   leader marks the quorum when `f` followers hold the entry
//!   (`RaftBase::note_quorum`); a MultiPaxos or Mencius proposer when
//!   the peer acks make a quorum but for its own vote, which waits for
//!   its fsync (`PaxosBase::tally`).
//! - **fsync** — from replication quorum to commit: the window where
//!   only the proposer's own fsync holds the commit back. Zero when
//!   durability is off (quorum and commit coincide), and for a
//!   Paxos-family command whose own vote was in before the peers' acks
//!   (no `Quorum` is marked).
//! - **apply** — from commit to the reply send.
//!
//! A lease-served local read never enters the batch: its breakdown is
//! pure network (send → reply), which is exactly the claim the
//! local-read optimization makes.

use paxraft_sim::sim::ActorId;
use paxraft_sim::time::{SimDuration, SimTime};
use paxraft_sim::trace::{SpanEvent, SpanKind};
use std::collections::BTreeMap;

/// The latency stages of the breakdown, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Waiting at a non-proposing replica / stalled at the client.
    Queueing,
    /// Waiting in the proposer's pending batch for the cutter.
    Batching,
    /// In flight between actors (includes handler CPU service).
    Network,
    /// From proposal to replication quorum.
    Replication,
    /// From replication quorum to commit (durability clamp).
    Fsync,
    /// From commit to the reply send.
    Apply,
}

impl Stage {
    /// All stages, in report order.
    pub const ALL: [Stage; 6] = [
        Stage::Queueing,
        Stage::Batching,
        Stage::Network,
        Stage::Replication,
        Stage::Fsync,
        Stage::Apply,
    ];

    /// Number of stages.
    pub const COUNT: usize = 6;

    /// Stable array index.
    pub fn index(self) -> usize {
        match self {
            Stage::Queueing => 0,
            Stage::Batching => 1,
            Stage::Network => 2,
            Stage::Replication => 3,
            Stage::Fsync => 4,
            Stage::Apply => 5,
        }
    }

    /// Report label (also the stage in the ledger's `span.<stage>_ms`
    /// rows).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Queueing => "queueing",
            Stage::Batching => "batching",
            Stage::Network => "network",
            Stage::Replication => "replication",
            Stage::Fsync => "fsync",
            Stage::Apply => "apply",
        }
    }

    /// The stage a command is in *after* observing `kind`.
    /// `ClientDone` is terminal and never accrues (returns `None`).
    fn after(kind: SpanKind) -> Option<Stage> {
        match kind {
            SpanKind::ClientSend
            | SpanKind::ClientRetry
            | SpanKind::ClientRedirect { .. }
            | SpanKind::Forward
            | SpanKind::Reply
            | SpanKind::Redirect { .. } => Some(Stage::Network),
            SpanKind::ClientStall | SpanKind::Enqueue { proposer: false } => Some(Stage::Queueing),
            SpanKind::Enqueue { proposer: true } | SpanKind::WindowDefer => Some(Stage::Batching),
            SpanKind::Propose => Some(Stage::Replication),
            SpanKind::Quorum => Some(Stage::Fsync),
            SpanKind::Commit => Some(Stage::Apply),
            SpanKind::ClientDone => None,
        }
    }
}

/// One completed command's latency breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommandBreakdown {
    /// Issuing client id.
    pub client: u32,
    /// Client-local sequence number.
    pub seq: u64,
    /// Virtual time of the first `ClientSend`.
    pub issued_at: SimTime,
    /// Virtual time of `ClientDone`.
    pub done_at: SimTime,
    /// Per-stage time, indexed by [`Stage::index`]. Sums to
    /// `done_at − issued_at` exactly (the accounting identity).
    pub stages: [SimDuration; Stage::COUNT],
    /// The replica that sent the final reply (maps to a group in the
    /// sharded layout); `None` for a command that completed without an
    /// observed `Reply` (e.g. the reply span predates span enablement).
    pub served_by: Option<ActorId>,
    /// `WrongGroup` redirect bounces the client followed.
    pub redirects: u32,
    /// Freeze-window stalls (stale redirect during migration).
    pub stalls: u32,
    /// Timeout-driven client retries.
    pub retries: u32,
    /// Span events observed for this command.
    pub events: u32,
}

impl CommandBreakdown {
    /// End-to-end latency.
    pub fn total(&self) -> SimDuration {
        self.done_at - self.issued_at
    }

    /// One stage's component.
    pub fn stage(&self, s: Stage) -> SimDuration {
        self.stages[s.index()]
    }

    /// The critical-path verdict: the stage that ate the most time
    /// (earliest stage in report order wins ties, deterministically).
    pub fn dominant(&self) -> Stage {
        let mut best = Stage::ALL[0];
        for s in Stage::ALL {
            if self.stages[s.index()] > self.stages[best.index()] {
                best = s;
            }
        }
        best
    }
}

/// Aggregate stage attribution over a set of commands — the
/// critical-path analyzer's summary for a group, a phase window, or the
/// whole run.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTotals {
    /// Summed per-stage time, indexed by [`Stage::index`].
    pub totals: [SimDuration; Stage::COUNT],
    /// Commands aggregated.
    pub commands: u64,
    /// Summed end-to-end latency (equals the stage totals' sum).
    pub total: SimDuration,
    /// How many commands each stage dominated, indexed by
    /// [`Stage::index`].
    pub dominant: [u64; Stage::COUNT],
}

impl StageTotals {
    /// Folds one command in.
    pub fn add(&mut self, b: &CommandBreakdown) {
        for s in Stage::ALL {
            self.totals[s.index()] += b.stages[s.index()];
        }
        self.total += b.total();
        self.commands += 1;
        self.dominant[b.dominant().index()] += 1;
    }

    /// The share of total time spent in `s` (0 when no time recorded).
    pub fn fraction(&self, s: Stage) -> f64 {
        let t = self.total.as_nanos();
        if t == 0 {
            return 0.0;
        }
        self.totals[s.index()].as_nanos() as f64 / t as f64
    }

    /// Mean per-command time in `s`, in milliseconds.
    pub fn mean_ms(&self, s: Stage) -> f64 {
        if self.commands == 0 {
            return 0.0;
        }
        self.totals[s.index()].as_nanos() as f64 / self.commands as f64 / 1e6
    }

    /// Mean end-to-end latency, in milliseconds.
    pub fn mean_total_ms(&self) -> f64 {
        if self.commands == 0 {
            return 0.0;
        }
        self.total.as_nanos() as f64 / self.commands as f64 / 1e6
    }

    /// The stage that dominated the most commands (ties resolve to the
    /// earliest stage in report order).
    pub fn dominant_stage(&self) -> Stage {
        let mut best = Stage::ALL[0];
        for s in Stage::ALL {
            if self.dominant[s.index()] > self.dominant[best.index()] {
                best = s;
            }
        }
        best
    }
}

/// The assembled per-command breakdowns of one run.
#[derive(Debug, Clone, Default)]
pub struct SpanReport {
    /// Completed commands (observed `ClientDone`), completion order.
    pub commands: Vec<CommandBreakdown>,
    /// Commands with span events but no `ClientDone` (still in flight
    /// when the run ended, or lost to a crash).
    pub incomplete: u64,
}

impl SpanReport {
    /// Aggregate stage attribution over every completed command.
    pub fn totals(&self) -> StageTotals {
        self.totals_where(|_| true)
    }

    /// Aggregate over the commands that completed in `[from, to)` —
    /// per-phase attribution (warmup vs migration window vs steady
    /// state).
    pub fn window(&self, from: SimTime, to: SimTime) -> StageTotals {
        self.totals_where(|b| b.done_at >= from && b.done_at < to)
    }

    /// Aggregate over an arbitrary command subset — the per-group hook
    /// (filter on `served_by` through the harness's actor→group map).
    pub fn totals_where(&self, mut keep: impl FnMut(&CommandBreakdown) -> bool) -> StageTotals {
        let mut t = StageTotals::default();
        for b in &self.commands {
            if keep(b) {
                t.add(b);
            }
        }
        t
    }
}

/// Stitches the flight recorder's span log into a [`SpanReport`].
///
/// Deterministic: the log is processed in emission order (= time
/// order), grouping is by correlation id, and no ordering decision
/// depends on anything but the log contents.
#[derive(Debug, Default)]
pub struct SpanAssembler;

impl SpanAssembler {
    /// Assembles per-command breakdowns from the raw span log.
    ///
    /// Events before the command's first `ClientSend` (none exist in
    /// practice) and after its `ClientDone` (duplicate replies from a
    /// re-elected leader) are ignored; internal commands carrying the
    /// `u32::MAX` sentinel client id are skipped.
    pub fn assemble(spans: &[SpanEvent]) -> SpanReport {
        // Group event indices per command, preserving emission order.
        let mut per_cmd: BTreeMap<(u32, u64), Vec<usize>> = BTreeMap::new();
        for (i, ev) in spans.iter().enumerate() {
            if ev.client == u32::MAX {
                continue;
            }
            per_cmd.entry((ev.client, ev.seq)).or_default().push(i);
        }
        let mut report = SpanReport::default();
        let mut done_order: Vec<(SimTime, usize, CommandBreakdown)> = Vec::new();
        for ((client, seq), idxs) in per_cmd {
            let evs = || idxs.iter().map(|&i| &spans[i]);
            // The span opens at the first ClientSend and closes at the
            // first ClientDone after it.
            let Some(first) = evs().find(|e| e.kind == SpanKind::ClientSend) else {
                report.incomplete += 1;
                continue;
            };
            let issued_at = first.at;
            let Some(done) = evs().find(|e| e.kind == SpanKind::ClientDone) else {
                report.incomplete += 1;
                continue;
            };
            let done_at = done.at;
            let mut b = CommandBreakdown {
                client,
                seq,
                issued_at,
                done_at,
                stages: [SimDuration::ZERO; Stage::COUNT],
                served_by: None,
                redirects: 0,
                stalls: 0,
                retries: 0,
                events: 0,
            };
            // Telescope: each event selects the stage until the next.
            let mut stage = Stage::Network; // ClientSend's stage
            let mut prev_at = issued_at;
            let mut open = false;
            for ev in evs() {
                if ev.at < issued_at {
                    continue;
                }
                if !open {
                    // Skip anything before the opening ClientSend.
                    if ev.kind != SpanKind::ClientSend {
                        continue;
                    }
                    open = true;
                }
                b.events += 1;
                b.stages[stage.index()] += ev.at - prev_at;
                prev_at = ev.at;
                match ev.kind {
                    SpanKind::ClientRedirect { .. } => b.redirects += 1,
                    SpanKind::ClientStall => b.stalls += 1,
                    SpanKind::ClientRetry => b.retries += 1,
                    SpanKind::Reply => b.served_by = Some(ev.actor),
                    _ => {}
                }
                match Stage::after(ev.kind) {
                    Some(s) => stage = s,
                    None => break, // ClientDone closes the span
                }
            }
            done_order.push((done_at, idxs[0], b));
        }
        // Completion order (ties broken by first-event order) keeps the
        // report deterministic and phase-windowable.
        done_order.sort_by_key(|&(at, first_idx, _)| (at, first_idx));
        report.commands = done_order.into_iter().map(|(_, _, b)| b).collect();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ms: u64, actor: usize, kind: SpanKind) -> SpanEvent {
        SpanEvent {
            at: SimTime::from_millis(ms),
            actor: ActorId(actor),
            kind,
            client: 7,
            seq: 1,
        }
    }

    #[test]
    fn breakdown_telescopes_to_end_to_end() {
        // send(0) → enqueue@proposer(2) → propose(5) → quorum(9)
        //   → commit(10) → reply(10) → done(13)
        let log = vec![
            ev(0, 3, SpanKind::ClientSend),
            ev(2, 0, SpanKind::Enqueue { proposer: true }),
            ev(5, 0, SpanKind::Propose),
            ev(9, 0, SpanKind::Quorum),
            ev(10, 0, SpanKind::Commit),
            ev(10, 0, SpanKind::Reply),
            ev(13, 3, SpanKind::ClientDone),
        ];
        let r = SpanAssembler::assemble(&log);
        assert_eq!(r.commands.len(), 1);
        assert_eq!(r.incomplete, 0);
        let b = &r.commands[0];
        assert_eq!(b.total(), SimDuration::from_millis(13));
        assert_eq!(b.stage(Stage::Network), SimDuration::from_millis(2 + 3));
        assert_eq!(b.stage(Stage::Batching), SimDuration::from_millis(3));
        assert_eq!(b.stage(Stage::Replication), SimDuration::from_millis(4));
        assert_eq!(b.stage(Stage::Fsync), SimDuration::from_millis(1));
        assert_eq!(b.stage(Stage::Apply), SimDuration::ZERO);
        assert_eq!(b.stage(Stage::Queueing), SimDuration::ZERO);
        let sum = Stage::ALL
            .iter()
            .fold(SimDuration::ZERO, |acc, &s| acc + b.stage(s));
        assert_eq!(sum, b.total(), "accounting identity");
        assert_eq!(b.dominant(), Stage::Network);
        assert_eq!(b.served_by, Some(ActorId(0)));
    }

    #[test]
    fn redirect_and_stall_book_to_network_and_queueing() {
        // Migration-window shape: send → redirect bounce → stall →
        // re-send → served at the destination.
        let log = vec![
            ev(0, 9, SpanKind::ClientSend),
            ev(1, 0, SpanKind::Redirect { group: 1 }),
            ev(2, 9, SpanKind::ClientRedirect { group: 1 }),
            ev(3, 4, SpanKind::Redirect { group: 0 }), // stale bounce-back
            ev(4, 9, SpanKind::ClientStall),
            ev(54, 9, SpanKind::ClientRetry),
            ev(55, 4, SpanKind::Enqueue { proposer: true }),
            ev(56, 4, SpanKind::Propose),
            ev(58, 4, SpanKind::Commit),
            ev(58, 4, SpanKind::Reply),
            ev(59, 9, SpanKind::ClientDone),
        ];
        let r = SpanAssembler::assemble(&log);
        let b = &r.commands[0];
        assert_eq!(b.redirects, 1);
        assert_eq!(b.stalls, 1);
        assert_eq!(b.retries, 1);
        // The 50 ms freeze-bounce stall is queueing, the bounces are
        // network.
        assert_eq!(b.stage(Stage::Queueing), SimDuration::from_millis(50));
        assert_eq!(b.stage(Stage::Network), SimDuration::from_millis(6));
        let sum = Stage::ALL
            .iter()
            .fold(SimDuration::ZERO, |acc, &s| acc + b.stage(s));
        assert_eq!(sum, b.total());
        assert_eq!(b.dominant(), Stage::Queueing);
        assert_eq!(b.served_by, Some(ActorId(4)));
    }

    #[test]
    fn incomplete_and_sentinel_commands_are_excluded() {
        let mut log = vec![
            ev(0, 3, SpanKind::ClientSend),
            ev(2, 0, SpanKind::Enqueue { proposer: true }),
            // no ClientDone: still in flight at run end
        ];
        log.push(SpanEvent {
            at: SimTime::from_millis(1),
            actor: ActorId(0),
            kind: SpanKind::Commit,
            client: u32::MAX, // internal noop sentinel
            seq: 9,
        });
        let r = SpanAssembler::assemble(&log);
        assert!(r.commands.is_empty());
        assert_eq!(r.incomplete, 1);
    }

    #[test]
    fn totals_aggregate_and_window_filters_by_completion() {
        let mk = |seq: u64, base: u64| {
            [
                SpanEvent {
                    at: SimTime::from_millis(base),
                    actor: ActorId(9),
                    kind: SpanKind::ClientSend,
                    client: 1,
                    seq,
                },
                SpanEvent {
                    at: SimTime::from_millis(base + 1),
                    actor: ActorId(0),
                    kind: SpanKind::Enqueue { proposer: true },
                    client: 1,
                    seq,
                },
                SpanEvent {
                    at: SimTime::from_millis(base + 4),
                    actor: ActorId(0),
                    kind: SpanKind::Reply,
                    client: 1,
                    seq,
                },
                SpanEvent {
                    at: SimTime::from_millis(base + 5),
                    actor: ActorId(9),
                    kind: SpanKind::ClientDone,
                    client: 1,
                    seq,
                },
            ]
        };
        let mut log = Vec::new();
        log.extend(mk(1, 0));
        log.extend(mk(2, 100));
        let r = SpanAssembler::assemble(&log);
        assert_eq!(r.commands.len(), 2);
        let t = r.totals();
        assert_eq!(t.commands, 2);
        assert_eq!(t.total, SimDuration::from_millis(10));
        assert_eq!(
            t.totals[Stage::Batching.index()],
            SimDuration::from_millis(6)
        );
        assert_eq!(
            t.totals[Stage::Network.index()],
            SimDuration::from_millis(4)
        );
        assert!((t.fraction(Stage::Batching) - 0.6).abs() < 1e-9);
        assert_eq!(t.dominant_stage(), Stage::Batching);
        assert_eq!(t.mean_total_ms(), 5.0);
        // Phase window: only the second command completed after t=50ms.
        let w = r.window(SimTime::from_millis(50), SimTime::from_secs(1));
        assert_eq!(w.commands, 1);
    }
}
