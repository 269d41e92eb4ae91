//! Closed-loop measurement clients (Section 5 "Workload").
//!
//! Each client issues get/put requests back-to-back against its nearest
//! replica, drawing operations from the YCSB-like generator. Completions
//! are timestamped on the virtual clock so the harness can trim warm-up
//! and cool-down windows; optionally the client records a linearizability
//! history for its operations.
//!
//! A client without a generator is *scripted*: it sends the requests
//! injected into it ([`crate::shard::ShardedCluster::submit_and_wait`])
//! under the same retry deadline and redirect rules, and keeps each
//! reply for the harness to read.

use paxraft_sim::impl_actor_any;
use paxraft_sim::sim::{Actor, ActorId, Ctx};
use paxraft_sim::time::{SimDuration, SimTime};
use paxraft_sim::trace::SpanKind;
use paxraft_workload::generator::{Generator, OpKind};
use paxraft_workload::linearize::{Action, OpRecord};

use crate::kv::{CmdId, Command, Key, Op, Reply};
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

/// A closed-loop workload client, or a scripted one (module docs).
pub struct WorkloadClient {
    /// Logical client id.
    pub client_id: u32,
    /// The replica this client talks to (its nearest).
    pub target: ActorId,
    /// Draws the next operation; `None` for a scripted client.
    gen: Option<Generator>,
    seq: u64,
    inflight: Option<Inflight>,
    /// A scripted client's reply to its last submission, once it has
    /// arrived.
    pub(crate) reply: Option<Reply>,
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
}

/// Timer token for the one-shot start jitter.
const T_START: u64 = 1;
/// Timer token, and key for [`Ctx::rearm_timer`], of the short
/// stalled-redirect re-send: a second stale redirect for the operation
/// replaces the pending re-send.
const T_STALL: u64 = 2;
/// Timer token, and key for [`Ctx::rearm_timer`], of the retry
/// deadline. Every send of the outstanding request re-arms it, so it
/// fires only for a request unanswered `RETRY_AFTER` after its last send.
const T_RETRY: u64 = 3;

/// How long a request waits for its answer before it is re-sent: well
/// above the slowest protocol's op latency (~400 ms for Mencius-100%),
/// well below a closed-loop stall being the dominant cost under message
/// loss.
const RETRY_AFTER: SimDuration = SimDuration::from_secs(1);

#[derive(Debug, Clone)]
struct Inflight {
    cmd: Command,
    key: Key,
    /// Where the operation was last sent (redirects move it).
    dest: ActorId,
    first_sent: SimTime,
    /// Set when a redirect was ignored as stale (the replier's map was
    /// older than ours — it has not applied the move we know about
    /// yet); the short stall timer re-sends instead of following the
    /// redirect backwards.
    stalled: bool,
}

impl Inflight {
    fn kind(&self) -> OpKind {
        match self.cmd.op {
            Op::Get { .. } => OpKind::Read,
            _ => OpKind::Write,
        }
    }
}

impl WorkloadClient {
    /// Creates a client driving `target` with the given generator, or a
    /// scripted client when `gen` is `None`.
    pub fn new(client_id: u32, target: ActorId, gen: Option<Generator>) -> Self {
        WorkloadClient {
            client_id,
            target,
            gen,
            seq: 0,
            inflight: None,
            reply: None,
            completions: Vec::new(),
            history_key: None,
            history: Vec::new(),
            shard: None,
            redirects: 0,
            stale_redirects: 0,
            router_updates: 0,
            seen_version: 0,
        }
    }

    /// The generator's next operation (`None` for a scripted client).
    fn next_command(&mut self, now_ns: u64) -> Option<Command> {
        let spec = self.gen.as_mut()?.next_op_at(now_ns);
        self.seq += 1;
        let id = CmdId {
            client: self.client_id,
            seq: self.seq,
        };
        Some(match spec.kind {
            OpKind::Read => Command::get(id, spec.key),
            OpKind::Write => Command::put_zeros(id, spec.key, spec.value_size),
        })
    }

    /// Makes `cmd` the operation in flight and sends it to its key's
    /// group.
    fn issue(&mut self, ctx: &mut Ctx<Msg>, cmd: Command) {
        let key = cmd.op.key().expect("a client's operation names a key");
        let dest = self
            .shard
            .as_ref()
            .and_then(|s| s.target_for(key))
            .unwrap_or(self.target);
        let id = cmd.id;
        self.inflight = Some(Inflight {
            cmd: cmd.clone(),
            key,
            dest,
            first_sent: ctx.now(),
            stalled: false,
        });
        send(ctx, dest, cmd);
        ctx.trace_span(SpanKind::ClientSend, id.client, id.seq);
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
            if self.history_key == Some(inflight.key) && inflight.kind() == OpKind::Write {
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

/// Sends the outstanding request `cmd` to `dest` and restarts its retry
/// deadline.
fn send(ctx: &mut Ctx<Msg>, dest: ActorId, cmd: Command) {
    ctx.send(dest, Msg::Client(ClientMsg::Request { cmd }));
    ctx.rearm_timer(T_RETRY, RETRY_AFTER, T_RETRY);
}

impl Actor<Msg> for WorkloadClient {
    fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
        // Stagger client start within 10 ms to avoid lockstep batches. A
        // scripted client waits for its first submission and draws
        // nothing from the simulation's one RNG.
        if self.gen.is_some() {
            let jitter = SimDuration::from_micros(ctx.rng().gen_range(10_000));
            ctx.set_timer(jitter, T_START);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<Msg>, _from: ActorId, msg: Msg) {
        if let Msg::Client(ClientMsg::Request { cmd }) = msg {
            // A scripted submission: it replaces any still in flight.
            self.reply = None;
            self.issue(ctx, cmd);
            return;
        }
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
                ctx.rearm_timer(T_STALL, SimDuration::from_millis(50), T_STALL);
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
                inf.stalled = false;
            }
            send(ctx, dest, cmd);
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
            kind: inflight.kind(),
            group: self
                .shard
                .as_ref()
                .map_or(0, |s| s.router.group_of(inflight.key)),
        });
        if self.history_key == Some(inflight.key) {
            let action = match inflight.kind() {
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
        match self.next_command(now.as_nanos()) {
            Some(cmd) => self.issue(ctx, cmd),
            None => {
                // Scripted: keep the reply and arm nothing until the
                // next submission.
                self.reply = Some(reply);
                ctx.cancel_timer(T_RETRY);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<Msg>, token: u64) {
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
                        inf.stalled = false;
                    }
                    let id = cmd.id;
                    send(ctx, dest, cmd);
                    ctx.trace_span(SpanKind::ClientRetry, id.client, id.seq);
                }
            }
            return;
        }
        if token == T_START {
            if let Some(cmd) = self.next_command(ctx.now().as_nanos()) {
                self.issue(ctx, cmd);
            }
            return;
        }
        // `T_RETRY`: the request went unanswered `RETRY_AFTER` since its
        // last send. Retry (dedup at the replicas makes this safe).
        let Some(inflight) = &self.inflight else {
            return;
        };
        let (dest, cmd) = (inflight.dest, inflight.cmd.clone());
        let id = cmd.id;
        send(ctx, dest, cmd);
        ctx.trace_span(SpanKind::ClientRetry, id.client, id.seq);
    }

    impl_actor_any!();
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use paxraft_sim::net::{NetConfig, Region};
    use paxraft_sim::rng::SimRng;
    use paxraft_sim::sim::Simulation;
    use paxraft_workload::generator::WorkloadConfig;

    /// A replica stand-in: keeps when each request arrives, and answers
    /// it with `reply`, or never.
    pub(crate) struct Puppet {
        pub(crate) reply: Option<Reply>,
        pub(crate) arrivals: Vec<(SimTime, CmdId)>,
    }

    impl Actor<Msg> for Puppet {
        fn on_message(&mut self, ctx: &mut Ctx<Msg>, from: ActorId, msg: Msg) {
            if let Msg::Client(ClientMsg::Request { cmd }) = msg {
                self.arrivals.push((ctx.now(), cmd.id));
                if let Some(reply) = self.reply.clone() {
                    ctx.send(from, Msg::Client(ClientMsg::Response { id: cmd.id, reply }));
                }
            }
        }

        impl_actor_any!();
    }

    /// One client in Oregon before `puppets` (region, reply), which take
    /// actor ids from 0; the links have no jitter, so a gap between two
    /// arrivals at a puppet is the gap between the two sends. A
    /// `scripted` client has no generator and sends only what
    /// [`submit`] injects.
    fn client_among(
        puppets: &[(Region, Option<Reply>)],
        shard: Option<ClientRouting>,
        scripted: bool,
    ) -> (Simulation<Msg>, ActorId) {
        let net = NetConfig {
            jitter: 0.0,
            ..NetConfig::default()
        };
        let mut sim = Simulation::new(net, 5);
        for (region, reply) in puppets {
            let puppet = Puppet {
                reply: reply.clone(),
                arrivals: Vec::new(),
            };
            sim.add_actor(*region, Box::new(puppet));
        }
        let gen = Generator::new(WorkloadConfig::default(), 0, SimRng::new(1));
        let mut client = WorkloadClient::new(0, ActorId(0), (!scripted).then_some(gen));
        client.shard = shard;
        let client = sim.add_actor(Region::Oregon, Box::new(client));
        (sim, client)
    }

    /// Injects a scripted get of key 7, number `seq`, `at_ms` from now.
    fn submit(sim: &mut Simulation<Msg>, client: ActorId, seq: u64, at_ms: u64) {
        let cmd = Command::get(CmdId { client: 0, seq }, 7);
        let at = SimDuration::from_millis(at_ms);
        sim.send_external(client, Msg::Client(ClientMsg::Request { cmd }), at);
    }

    fn arrivals(sim: &Simulation<Msg>, puppet: usize) -> &[(SimTime, CmdId)] {
        &sim.actor::<Puppet>(ActorId(puppet)).arrivals
    }

    /// A request nobody answers is re-sent exactly `RETRY_AFTER` after
    /// its last send, each time.
    #[test]
    fn a_lost_request_is_re_sent_exactly_retry_after_its_last_send() {
        for scripted in [false, true] {
            let (mut sim, client) = client_among(&[(Region::Ohio, None)], None, scripted);
            if scripted {
                submit(&mut sim, client, 1, 0);
            }
            sim.run_until(SimTime::from_millis(4_500));
            let seen = arrivals(&sim, 0);
            assert_eq!(seen.len(), 5, "the first send and four retries: {seen:?}");
            for pair in seen.windows(2) {
                assert_eq!(pair[0].1, pair[1].1, "the same request");
                assert_eq!(pair[1].0.since(pair[0].0), RETRY_AFTER);
            }
        }
    }

    /// A client answered within `RETRY_AFTER` re-sends nothing, and its
    /// deadline costs the simulator one queued check per `RETRY_AFTER`:
    /// over 10 s, at most 11 events beyond the messages and the start
    /// timer. A scripted client, submitting once a second, fires no
    /// timer at all: it cancels its deadline when answered.
    #[test]
    fn an_answered_client_re_sends_nothing_and_checks_once_a_second() {
        for scripted in [false, true] {
            let puppets = [(Region::Ireland, Some(Reply::Done))];
            let (mut sim, client) = client_among(&puppets, None, scripted);
            if scripted {
                for seq in 1..=10 {
                    submit(&mut sim, client, seq, (seq - 1) * 1_000);
                }
            }
            sim.run_until(SimTime::from_secs(10));
            let seen = arrivals(&sim, 0);
            let wc = sim.actor::<WorkloadClient>(client);
            let ops = wc.completions.len();
            if scripted {
                assert_eq!(ops, 10, "every submission answered");
                assert_eq!(wc.reply, Some(Reply::Done));
            } else {
                assert!(ops > 50, "{ops} operations at a 132 ms round trip");
            }
            let mut ids: Vec<_> = seen.iter().map(|(_, id)| id.seq).collect();
            ids.dedup();
            assert_eq!(ids.len(), seen.len(), "no request arrived twice");
            let stats = &sim.stats;
            let start_jitter = u64::from(!scripted);
            assert_eq!(stats.timer_fires, start_jitter, "no timer but the start");
            // A delivery is three events (arrival, receive, the turn), a
            // fired timer two (its pop and its turn); an early check one.
            // An injected submission is two (arrival and turn).
            let submitted = if scripted { 10 } else { 0 };
            let sent = stats.deliveries - submitted;
            let checks = stats.events - 3 * sent - 2 * submitted - 2 * stats.timer_fires;
            assert!((1..=11).contains(&checks), "{checks} timer checks in 10 s");
        }
    }

    /// Following a redirect is a send: the retry deadline restarts from
    /// it, not from the operation's first send.
    #[test]
    fn a_followed_redirect_restarts_the_retry_deadline() {
        for scripted in [false, true] {
            // One group in the client's map, so every key starts at
            // puppet 0; its redirect names group 1, which is puppet 1, and
            // never answers.
            let router = ShardRouter::new(1_000, 1);
            let version = router.version();
            let routing = ClientRouting {
                router,
                targets: vec![ActorId(0), ActorId(1)],
            };
            let redirect = Reply::WrongGroup { group: 1, version };
            let puppets = [(Region::Ireland, Some(redirect)), (Region::Ohio, None)];
            let (mut sim, client) = client_among(&puppets, Some(routing), scripted);
            if scripted {
                submit(&mut sim, client, 1, 0);
            }
            sim.run_until(SimTime::from_millis(2_000));
            let first = arrivals(&sim, 0);
            let followed = arrivals(&sim, 1);
            assert_eq!(first.len(), 1, "{first:?}");
            assert_eq!(
                followed.len(),
                2,
                "the followed redirect and one retry: {followed:?}"
            );
            assert_eq!(followed[1].0.since(followed[0].0), RETRY_AFTER);
            assert!(followed.iter().all(|(_, id)| *id == first[0].1));
            assert_eq!(sim.actor::<WorkloadClient>(client).redirects, 1);
        }
    }

    #[test]
    fn commands_get_unique_increasing_seqs() {
        let gen = Generator::new(WorkloadConfig::default(), 0, SimRng::new(1));
        let mut c = WorkloadClient::new(3, ActorId(0), Some(gen));
        let c1 = c.next_command(0).expect("a generator");
        let c2 = c.next_command(0).expect("a generator");
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
        let mut c = WorkloadClient::new(0, ActorId(0), Some(gen));
        let cmd = c.next_command(0).expect("a generator");
        if let crate::kv::Op::Put { value, .. } = &cmd.op {
            assert_eq!(value.len(), 4096);
        } else {
            panic!("expected put");
        }
    }
}
