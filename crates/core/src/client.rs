//! Closed-loop measurement clients (Section 5 "Workload").
//!
//! Each client issues get/put requests back-to-back against its nearest
//! replica, drawing operations from the YCSB-like generator. Completions
//! are timestamped on the virtual clock so the harness can trim warm-up
//! and cool-down windows; optionally the client records a linearizability
//! history for its operations.

use paxraft_sim::impl_actor_any;
use paxraft_sim::sim::{Actor, ActorId, Ctx};
use paxraft_sim::time::{SimDuration, SimTime};
use paxraft_sim::trace::SpanKind;
use paxraft_workload::generator::{Generator, OpKind};
use paxraft_workload::linearize::{Action, OpRecord};

use crate::kv::{CmdId, Command, Key, Reply};
use crate::msg::{ClientMsg, Msg};
use crate::shard::ShardRouter;

/// Client-side shard routing: the partition map plus, per group, the
/// replica this client talks to (its own region's member of that group).
#[derive(Debug, Clone)]
pub struct ClientRouting {
    /// The partition map the client believes in. May be stale relative
    /// to the replicas' map — the [`Reply::WrongGroup`] redirect is what
    /// reconciles a raced lookup.
    pub router: ShardRouter,
    /// `targets[g]` serves group `g` for this client.
    pub targets: Vec<ActorId>,
}

impl ClientRouting {
    /// The replica serving `key`'s group, or `None` when the (possibly
    /// stale) router names a group this client has no target for — the
    /// caller falls back to its default replica and lets the
    /// [`Reply::WrongGroup`] redirect correct the route.
    fn target_for(&self, key: Key) -> Option<ActorId> {
        self.targets
            .get(self.router.group_of(key) as usize)
            .copied()
    }
}

/// One completed operation, for metrics.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// Virtual completion time (ns).
    pub at_ns: u64,
    /// Request latency (ns).
    pub latency_ns: u64,
    /// Read or write.
    pub kind: OpKind,
    /// The group the client's partition map named for the key when the
    /// reply arrived (0 when unsharded).
    pub group: u32,
}

/// A closed-loop workload client.
pub struct WorkloadClient {
    /// Logical client id.
    pub client_id: u32,
    /// The replica this client talks to (its nearest).
    pub target: ActorId,
    gen: Generator,
    seq: u64,
    inflight: Option<Inflight>,
    retry_after: SimDuration,
    /// Completed operations (never trimmed; the harness filters windows).
    pub completions: Vec<Completion>,
    /// When `Some(key)`, record a linearizability history for that key
    /// (`None` disables recording).
    pub history_key: Option<Key>,
    /// Recorded per-key history.
    pub history: Vec<OpRecord>,
    /// Sharded clusters: per-key routing over the replica groups
    /// (`None` = unsharded, every operation goes to [`Self::target`]).
    pub shard: Option<ClientRouting>,
    /// Operations answered with [`Reply::WrongGroup`] and re-sent to the
    /// owning group (stats; misrouting is expected when the client's
    /// partition map is stale or a migration is in flight).
    pub redirects: u64,
    /// Redirects *ignored* because the replier's map version was older
    /// than the newest version this client has seen — waiting out a
    /// replica that lags behind a migration instead of ping-ponging
    /// (stats).
    pub stale_redirects: u64,
    /// Router updates adopted from the rebalance coordinator (stats).
    pub router_updates: u64,
    /// Highest partition-map version observed (own router or any
    /// redirect). Redirects below this are stale repliers to be waited
    /// out: during the freeze→install window the destination still
    /// answers per the old map, and without the ratchet a client whose
    /// own map predates the migration would bounce between the two
    /// groups at RTT rate.
    pub seen_version: u64,
    /// Set while a load-shaping pause timer is armed (scenario load
    /// shapes only); stops the poll tick from double-sending.
    pause_pending: bool,
}

/// Timer token for the regular send/retry poll tick.
const T_POLL: u64 = 1;
/// Timer token for the short stalled-redirect re-send.
const T_STALL: u64 = 2;
/// Timer token for a load-shaping pre-send pause (scenario workloads
/// only; never armed without one, which keeps unscripted runs
/// schedule-identical).
const T_PAUSE: u64 = 3;

#[derive(Debug, Clone)]
struct Inflight {
    cmd: Command,
    kind: OpKind,
    key: Key,
    /// Where the operation was last sent (redirects move it).
    dest: ActorId,
    sent: SimTime,
    first_sent: SimTime,
    /// Set when a redirect was ignored as stale (the replier's map was
    /// older than ours — it has not applied the move we know about
    /// yet); the short stall timer re-sends instead of following the
    /// redirect backwards.
    stalled: bool,
}

impl WorkloadClient {
    /// Creates a client driving `target` with the given generator.
    pub fn new(client_id: u32, target: ActorId, gen: Generator) -> Self {
        WorkloadClient {
            client_id,
            target,
            gen,
            seq: 0,
            inflight: None,
            // Well above the slowest protocol's op latency (~400 ms for
            // Mencius-100%), well below a closed-loop stall being the
            // dominant cost under message loss.
            retry_after: SimDuration::from_secs(1),
            completions: Vec::new(),
            history_key: None,
            history: Vec::new(),
            shard: None,
            redirects: 0,
            stale_redirects: 0,
            router_updates: 0,
            seen_version: 0,
            pause_pending: false,
        }
    }

    fn next_command(&mut self, now_ns: u64) -> (Command, OpKind, Key) {
        let spec = self.gen.next_op_at(now_ns);
        self.seq += 1;
        let id = CmdId {
            client: self.client_id,
            seq: self.seq,
        };
        let cmd = match spec.kind {
            OpKind::Read => Command::get(id, spec.key),
            OpKind::Write => Command::put_zeros(id, spec.key, spec.value_size),
        };
        (cmd, spec.kind, spec.key)
    }

    fn send_next(&mut self, ctx: &mut Ctx<Msg>) {
        // Load shaping (scenario workloads): hold the next send for the
        // shape's pause. Without a scenario the pause is always zero
        // and no timer is ever armed.
        let pause = self.gen.pause_at(ctx.now().as_nanos());
        if pause > SimDuration::ZERO {
            self.pause_pending = true;
            ctx.set_timer(pause, T_PAUSE);
            return;
        }
        self.send_now(ctx);
    }

    fn send_now(&mut self, ctx: &mut Ctx<Msg>) {
        let (cmd, kind, key) = self.next_command(ctx.now().as_nanos());
        let dest = self
            .shard
            .as_ref()
            .and_then(|s| s.target_for(key))
            .unwrap_or(self.target);
        self.inflight = Some(Inflight {
            cmd: cmd.clone(),
            kind,
            key,
            dest,
            sent: ctx.now(),
            first_sent: ctx.now(),
            stalled: false,
        });
        ctx.send(dest, Msg::Client(ClientMsg::Request { cmd }));
        ctx.trace_span(SpanKind::ClientSend, self.client_id, self.seq);
    }

    /// The recorded history, completed by the still-in-flight operation
    /// if it is a write to the recorded key. An unanswered write may
    /// already have taken effect at the replicas (the response was
    /// simply still crossing the WAN when the run stopped), and a
    /// completed read may have observed its value — omitting it would
    /// make the checker report a read of an unwritten value. The open
    /// interval (`respond_ns = u64::MAX`) lets the checker linearize it
    /// anywhere at or after its invocation, including "never visible"
    /// (ordered after every completed read). An in-flight *read*
    /// constrains nothing and is dropped.
    pub fn history_records(&self) -> Vec<OpRecord> {
        let mut out = self.history.clone();
        if let Some(inflight) = &self.inflight {
            if self.history_key == Some(inflight.key) && inflight.kind == OpKind::Write {
                out.push(OpRecord {
                    client: self.client_id as usize,
                    key: inflight.key,
                    action: Action::Write(inflight.cmd.id.as_value_id()),
                    invoke_ns: inflight.first_sent.as_nanos(),
                    respond_ns: u64::MAX,
                });
            }
        }
        out
    }
}

impl Actor<Msg> for WorkloadClient {
    fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
        // Stagger client start within 10 ms to avoid lockstep batches.
        let jitter = SimDuration::from_micros(ctx.rng().gen_range(10_000));
        ctx.set_timer(jitter, 1);
    }

    fn on_message(&mut self, ctx: &mut Ctx<Msg>, _from: ActorId, msg: Msg) {
        if let Msg::Client(ClientMsg::RouterUpdate { router }) = &msg {
            // The rebalance coordinator published a bumped partition
            // map; adopt it if it is newer than ours.
            self.seen_version = self.seen_version.max(router.version());
            if let Some(s) = &mut self.shard {
                if router.version() > s.router.version() {
                    s.router = router.clone();
                    self.router_updates += 1;
                }
            }
            return;
        }
        let Msg::Client(ClientMsg::Response { id, reply }) = msg else {
            return;
        };
        let Some(inflight) = &self.inflight else {
            return;
        };
        if inflight.cmd.id != id {
            return; // stale response from a retry
        }
        if let Reply::WrongGroup { group, version } = reply {
            let my_version = self
                .shard
                .as_ref()
                .map_or(0, |s| s.router.version())
                .max(self.seen_version);
            if version < my_version {
                // The replier's map is older than the newest one we
                // have seen: it has not applied the move yet (typically
                // the destination of an in-flight migration that has
                // not committed its install). Following the redirect
                // would ping-pong between the two groups at RTT rate;
                // hold the operation and re-send after a short stall.
                self.stale_redirects += 1;
                if let Some(inf) = &mut self.inflight {
                    inf.stalled = true;
                }
                ctx.trace_span(SpanKind::ClientStall, id.client, id.seq);
                ctx.set_timer(SimDuration::from_millis(50), T_STALL);
                return;
            }
            // The replica's partition map is at or ahead of everything
            // we have seen: follow (and ratchet to) its version, and
            // re-send to the group it named (latency keeps accruing
            // from the first send — the misroute is part of the
            // operation).
            self.seen_version = self.seen_version.max(version);
            self.redirects += 1;
            let dest = self
                .shard
                .as_ref()
                .and_then(|s| s.targets.get(group as usize).copied())
                .unwrap_or(self.target);
            let cmd = inflight.cmd.clone();
            if let Some(inf) = &mut self.inflight {
                inf.dest = dest;
                inf.sent = ctx.now();
                inf.stalled = false;
            }
            ctx.send(dest, Msg::Client(ClientMsg::Request { cmd }));
            ctx.trace_span(
                SpanKind::ClientRedirect {
                    group: group as u64,
                },
                id.client,
                id.seq,
            );
            return;
        }
        let inflight = self.inflight.take().expect("checked");
        let now = ctx.now();
        let latency = now.since(inflight.first_sent);
        ctx.trace_span(SpanKind::ClientDone, id.client, id.seq);
        self.completions.push(Completion {
            at_ns: now.as_nanos(),
            latency_ns: latency.as_nanos(),
            kind: inflight.kind,
            group: self
                .shard
                .as_ref()
                .map_or(0, |s| s.router.group_of(inflight.key)),
        });
        if self.history_key == Some(inflight.key) {
            let action = match inflight.kind {
                OpKind::Write => Action::Write(id.as_value_id()),
                OpKind::Read => Action::Read(reply.value_id()),
            };
            self.history.push(OpRecord {
                client: self.client_id as usize,
                key: inflight.key,
                action,
                invoke_ns: inflight.first_sent.as_nanos(),
                respond_ns: now.as_nanos(),
            });
        }
        self.send_next(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<Msg>, token: u64) {
        if token == T_PAUSE {
            // The load-shaping pause elapsed: issue the held send (the
            // closed loop stays closed — only the gap widened).
            if self.pause_pending && self.inflight.is_none() {
                self.pause_pending = false;
                self.send_now(ctx);
            }
            return;
        }
        if token == T_STALL {
            // Re-send an operation held back by a stale redirect. Use
            // whichever routing knowledge is freshest: the client's own
            // map if it is at the newest version seen, else the last
            // followed redirect's target (`dest`) — a newer redirect
            // taught us a move our map does not have yet. The replier
            // catches up within a migration's install time, so short
            // retries converge quickly.
            if let Some(inflight) = &self.inflight {
                if inflight.stalled {
                    let cmd = inflight.cmd.clone();
                    let own_map_fresh = self
                        .shard
                        .as_ref()
                        .is_some_and(|s| s.router.version() >= self.seen_version);
                    let dest = if own_map_fresh {
                        self.shard
                            .as_ref()
                            .and_then(|s| s.target_for(inflight.key))
                            .unwrap_or(inflight.dest)
                    } else {
                        inflight.dest
                    };
                    if let Some(inf) = &mut self.inflight {
                        inf.dest = dest;
                        inf.sent = ctx.now();
                        inf.stalled = false;
                    }
                    let id = cmd.id;
                    ctx.send(dest, Msg::Client(ClientMsg::Request { cmd }));
                    ctx.trace_span(SpanKind::ClientRetry, id.client, id.seq);
                }
            }
            return;
        }
        match &self.inflight {
            None if self.pause_pending => {} // a pause timer will send
            None => self.send_next(ctx),
            Some(inflight) => {
                if ctx.now().since(inflight.sent) > self.retry_after {
                    // Retry (dedup at the replicas makes this safe).
                    let cmd = inflight.cmd.clone();
                    let dest = inflight.dest;
                    if let Some(inf) = &mut self.inflight {
                        inf.sent = ctx.now();
                    }
                    let id = cmd.id;
                    ctx.send(dest, Msg::Client(ClientMsg::Request { cmd }));
                    ctx.trace_span(SpanKind::ClientRetry, id.client, id.seq);
                }
            }
        }
        ctx.set_timer(SimDuration::from_millis(500), T_POLL);
    }

    impl_actor_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxraft_sim::rng::SimRng;
    use paxraft_workload::generator::WorkloadConfig;

    #[test]
    fn commands_get_unique_increasing_seqs() {
        let gen = Generator::new(WorkloadConfig::default(), 0, SimRng::new(1));
        let mut c = WorkloadClient::new(3, ActorId(0), gen);
        let (c1, _, _) = c.next_command(0);
        let (c2, _, _) = c.next_command(0);
        assert_eq!(c1.id.client, 3);
        assert_eq!(c1.id.seq + 1, c2.id.seq);
    }

    #[test]
    fn stale_router_with_more_groups_than_targets_falls_back() {
        // A router believing in 4 groups on a client holding 2 targets
        // (partition map raced a split): keys the router maps to groups
        // 2/3 fall back to the default target instead of panicking; the
        // replica-side WrongGroup redirect then corrects the route.
        let routing = ClientRouting {
            router: ShardRouter::new(1_000, 4),
            targets: vec![ActorId(0), ActorId(1)],
        };
        let (lo3, _) = routing.router.range(3);
        assert_eq!(routing.target_for(5), Some(ActorId(0)));
        assert_eq!(routing.target_for(lo3), None, "no target for group 3");
    }

    #[test]
    fn write_values_sized_by_workload() {
        let cfg = WorkloadConfig {
            read_fraction: 0.0,
            value_size: 4096,
            ..WorkloadConfig::default()
        };
        let gen = Generator::new(cfg, 0, SimRng::new(1));
        let mut c = WorkloadClient::new(0, ActorId(0), gen);
        let (cmd, kind, _) = c.next_command(0);
        assert_eq!(kind, OpKind::Write);
        if let crate::kv::Op::Put { value, .. } = &cmd.op {
            assert_eq!(value.len(), 4096);
        } else {
            panic!("expected put");
        }
    }
}
