//! Open-loop load: arrivals on a Poisson schedule that does not wait for
//! completions.
//!
//! The repo's [`WorkloadClient`](paxraft_core::client::WorkloadClient) is
//! a closed loop: a slow cluster is offered less load, so it can never be
//! driven past capacity. Independent users do not wait for each other.
//! Here one generator actor per region fires arrivals from a schedule
//! fixed by the seed; each arrival takes a free *session* (a logical
//! client id with at most one request outstanding, which is what the
//! replicas' exactly-once session table requires) or queues in the
//! generator until one frees up. Latency is timed from the instant the
//! request was **due**, so the wait a stall imposes on later arrivals is
//! counted, and the generator reports how late it ran.
//!
//! Replicas answer logical client `c` at actor `client_base + c`, so each
//! session is an actor of its own that receives the replies; a region's
//! generator and sessions model one client machine and share their state.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use paxraft_core::kv::{CmdId, Command};
use paxraft_core::msg::{ClientMsg, Msg};
use paxraft_sim::impl_actor_any;
use paxraft_sim::net::Region;
use paxraft_sim::rng::SimRng;
use paxraft_sim::sim::{Actor, ActorId, Ctx, Simulation};
use paxraft_sim::time::{SimDuration, SimTime};
use paxraft_sim::trace::SpanKind;
use paxraft_workload::generator::{Generator, OpKind, WorkloadConfig};

/// One rung of the offered-load ladder.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Offered rate over the whole cluster, operations per virtual second.
    pub rate_ops: f64,
    /// How long the rate holds.
    pub dur: SimDuration,
}

/// Open-loop traffic parameters.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Virtual time the first step begins.
    pub start: SimTime,
    /// The offered-rate ladder, in order.
    pub steps: Vec<Step>,
    /// Logical client ids in the pool, over all regions.
    pub sessions: usize,
    /// Key and read/write mix of the generated operations.
    pub workload: WorkloadConfig,
    /// An unanswered request is sent again after this long.
    pub retry_after: SimDuration,
}

/// One generated operation's timeline.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    /// When the schedule said to send it (ns).
    pub due_ns: u64,
    /// When it was first sent (ns); later than `due_ns` when no session
    /// was free or the generator ran late.
    pub sent_ns: Option<u64>,
    /// When the reply arrived (ns).
    pub done_ns: Option<u64>,
}

/// Arrival times (ns) of a Poisson process whose rate follows `steps`,
/// thinned to `share` of the cluster-wide rate. A draw that crosses a
/// step boundary restarts at the boundary with the new rate, which the
/// exponential distribution's memorylessness makes exact.
pub fn poisson_schedule(rng: &mut SimRng, start: SimTime, steps: &[Step], share: f64) -> Vec<u64> {
    let mut due = Vec::new();
    let mut step_start = start.as_nanos() as f64;
    for s in steps {
        let step_end = step_start + s.dur.as_nanos() as f64;
        let rate_per_ns = s.rate_ops * share / 1e9;
        let mut t = step_start;
        if rate_per_ns > 0.0 {
            loop {
                // 1 - u is in (0, 1], so the logarithm is finite.
                t += -(1.0 - rng.gen_f64()).ln() / rate_per_ns;
                if t >= step_end {
                    break;
                }
                due.push(t as u64);
            }
        }
        step_start = step_end;
    }
    due
}

struct Inflight {
    op: usize,
    cmd: Command,
    sent: SimTime,
}

#[derive(Default)]
struct Session {
    seq: u64,
    inflight: Option<Inflight>,
}

/// What a region's generator and sessions share.
struct RegionState {
    target: ActorId,
    first_client: u32,
    gen: Generator,
    sessions: Vec<Session>,
    free: VecDeque<usize>,
    backlog: VecDeque<usize>,
    ops: Vec<OpRecord>,
    max_backlog: usize,
    late_ns_max: u64,
    retries: u64,
}

impl RegionState {
    /// Sends operation `op` on session `s`.
    fn issue(&mut self, ctx: &mut Ctx<Msg>, s: usize, op: usize) {
        let now = ctx.now();
        let spec = self.gen.next_op();
        let session = &mut self.sessions[s];
        session.seq += 1;
        let id = CmdId {
            client: self.first_client + s as u32,
            seq: session.seq,
        };
        let cmd = match spec.kind {
            OpKind::Read => Command::get(id, spec.key),
            OpKind::Write => Command::put(id, spec.key, vec![0; spec.value_size.max(8)]),
        };
        session.inflight = Some(Inflight {
            op,
            cmd: cmd.clone(),
            sent: now,
        });
        self.ops[op].sent_ns = Some(now.as_nanos());
        ctx.send(self.target, Msg::Client(ClientMsg::Request { cmd }));
        ctx.trace_span(SpanKind::ClientSend, id.client, id.seq);
    }
}

const T_ARRIVAL: u64 = 1;
const T_POLL: u64 = 2;

/// Fires a region's arrivals and re-sends its unanswered requests.
struct GeneratorActor {
    state: Rc<RefCell<RegionState>>,
    next: usize,
    retry_after: SimDuration,
}

impl GeneratorActor {
    fn arm_next(&self, ctx: &mut Ctx<Msg>, due_ns: u64) {
        let delay = due_ns.saturating_sub(ctx.now().as_nanos());
        ctx.set_timer(SimDuration::from_nanos(delay), T_ARRIVAL);
    }
}

impl Actor<Msg> for GeneratorActor {
    fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
        if let Some(first) = self.state.borrow().ops.first() {
            self.arm_next(ctx, first.due_ns);
        }
        ctx.set_timer(SimDuration::from_millis(500), T_POLL);
    }

    fn on_message(&mut self, _ctx: &mut Ctx<Msg>, _from: ActorId, _msg: Msg) {}

    fn on_timer(&mut self, ctx: &mut Ctx<Msg>, token: u64) {
        let now = ctx.now();
        let mut st = self.state.borrow_mut();
        if token == T_POLL {
            let RegionState {
                sessions,
                target,
                retries,
                ..
            } = &mut *st;
            for inflight in sessions.iter_mut().filter_map(|s| s.inflight.as_mut()) {
                if now.since(inflight.sent) > self.retry_after {
                    inflight.sent = now;
                    let cmd = inflight.cmd.clone();
                    let id = cmd.id;
                    ctx.send(*target, Msg::Client(ClientMsg::Request { cmd }));
                    ctx.trace_span(SpanKind::ClientRetry, id.client, id.seq);
                    *retries += 1;
                }
            }
            ctx.set_timer(SimDuration::from_millis(500), T_POLL);
            return;
        }
        while self.next < st.ops.len() && st.ops[self.next].due_ns <= now.as_nanos() {
            let op = self.next;
            self.next += 1;
            let late = now.as_nanos() - st.ops[op].due_ns;
            st.late_ns_max = st.late_ns_max.max(late);
            match st.free.pop_front() {
                Some(s) => st.issue(ctx, s, op),
                None => {
                    st.backlog.push_back(op);
                    st.max_backlog = st.max_backlog.max(st.backlog.len());
                }
            }
        }
        if let Some(op) = st.ops.get(self.next) {
            self.arm_next(ctx, op.due_ns);
        }
    }

    impl_actor_any!();
}

/// Receives one logical client's replies.
struct SessionActor {
    state: Rc<RefCell<RegionState>>,
    index: usize,
}

impl Actor<Msg> for SessionActor {
    fn on_message(&mut self, ctx: &mut Ctx<Msg>, _from: ActorId, msg: Msg) {
        let Msg::Client(ClientMsg::Response { id, .. }) = msg else {
            return;
        };
        let mut st = self.state.borrow_mut();
        let session = &mut st.sessions[self.index];
        if session.seq != id.seq {
            return; // a retry's duplicate reply to an earlier operation
        }
        let Some(inflight) = session.inflight.take() else {
            return;
        };
        st.ops[inflight.op].done_ns = Some(ctx.now().as_nanos());
        ctx.trace_span(SpanKind::ClientDone, id.client, id.seq);
        match st.backlog.pop_front() {
            Some(op) => st.issue(ctx, self.index, op),
            None => st.free.push_back(self.index),
        }
    }

    impl_actor_any!();
}

/// Handle on the attached generators, for reading results.
pub struct OpenLoop {
    regions: Vec<Rc<RefCell<RegionState>>>,
}

impl OpenLoop {
    /// Adds session and generator actors to `sim`: one generator per
    /// entry of `replicas`, in that replica's region, sending to it.
    ///
    /// # Panics
    ///
    /// Panics unless the replicas are the only actors so far: logical
    /// client `c` must land on actor `replicas.len() + c`.
    pub fn attach(
        sim: &mut Simulation<Msg>,
        replicas: &[ActorId],
        regions: &[Region],
        cfg: &OpenLoopConfig,
        seed: u64,
    ) -> OpenLoop {
        assert_eq!(sim.len(), replicas.len(), "sessions must follow replicas");
        let n = replicas.len();
        let mut rng = SimRng::new(seed ^ 0x09E1_100B);
        let mut workload = cfg.workload.clone();
        workload.partitions = n;
        let mut states = Vec::with_capacity(n);
        let mut first_client = 0u32;
        for r in 0..n {
            let count = cfg.sessions / n + usize::from(r < cfg.sessions % n);
            let mut arrivals = rng.fork(r as u64);
            let ops = poisson_schedule(&mut arrivals, cfg.start, &cfg.steps, 1.0 / n as f64)
                .into_iter()
                .map(|due_ns| OpRecord {
                    due_ns,
                    sent_ns: None,
                    done_ns: None,
                })
                .collect();
            let state = Rc::new(RefCell::new(RegionState {
                target: replicas[r],
                first_client,
                gen: Generator::new(workload.clone(), r, rng.fork(0x100 + r as u64)),
                sessions: (0..count).map(|_| Session::default()).collect(),
                free: (0..count).collect(),
                backlog: VecDeque::new(),
                ops,
                max_backlog: 0,
                late_ns_max: 0,
                retries: 0,
            }));
            for index in 0..count {
                sim.add_actor(
                    regions[r],
                    Box::new(SessionActor {
                        state: Rc::clone(&state),
                        index,
                    }),
                );
            }
            first_client += count as u32;
            states.push(state);
        }
        for (r, state) in states.iter().enumerate() {
            sim.add_actor(
                regions[r],
                Box::new(GeneratorActor {
                    state: Rc::clone(state),
                    next: 0,
                    retry_after: cfg.retry_after,
                }),
            );
        }
        OpenLoop { regions: states }
    }

    /// Every scheduled operation, all regions.
    pub fn ops(&self) -> Vec<OpRecord> {
        let mut all = Vec::new();
        for r in &self.regions {
            all.extend(r.borrow().ops.iter().copied());
        }
        all
    }

    /// Whether every scheduled operation has been answered.
    pub fn all_answered(&self) -> bool {
        self.regions
            .iter()
            .all(|r| r.borrow().ops.iter().all(|op| op.done_ns.is_some()))
    }

    /// Most arrivals ever waiting for a free session, summed over regions.
    pub fn max_backlog(&self) -> usize {
        self.regions.iter().map(|r| r.borrow().max_backlog).sum()
    }

    /// The longest any arrival fired after its due time (ns).
    pub fn late_ns_max(&self) -> u64 {
        self.regions
            .iter()
            .map(|r| r.borrow().late_ns_max)
            .max()
            .unwrap_or(0)
    }

    /// Requests sent again after `retry_after` without a reply.
    pub fn retries(&self) -> u64 {
        self.regions.iter().map(|r| r.borrow().retries).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxraft_core::harness::{Cluster, ProtocolKind};

    #[test]
    fn offered_rate_matches_the_ladder_within_one_percent() {
        let secs = 400;
        let rates = [250.0, 500.0, 750.0, 1_500.0, 2_000.0, 500.0];
        let steps: Vec<Step> = rates
            .iter()
            .map(|&rate_ops| Step {
                rate_ops,
                dur: SimDuration::from_secs(secs),
            })
            .collect();
        // Five regions' thinned schedules superpose to the full ladder.
        let mut rng = SimRng::new(42);
        let mut due: Vec<u64> = (0..5)
            .flat_map(|r| poisson_schedule(&mut rng.fork(r), SimTime::from_secs(3), &steps, 0.2))
            .collect();
        due.sort_unstable();
        for (i, rate) in rates.iter().enumerate() {
            let lo = (3 + secs * i as u64) * 1_000_000_000;
            let hi = lo + secs * 1_000_000_000;
            let n = due.iter().filter(|&&t| (lo..hi).contains(&t)).count();
            let offered = n as f64 / secs as f64;
            assert!(
                (offered - rate).abs() / rate < 0.01,
                "step {i}: offered {offered} vs {rate}"
            );
        }
        assert!(due[0] >= 3_000_000_000, "nothing before the start");
    }

    #[test]
    fn a_stall_inflates_latency_from_the_due_time_not_the_send_time() {
        let mut cluster = Cluster::builder(ProtocolKind::Raft).seed(5).build_sharded();
        let replicas = cluster.group_replicas(0).to_vec();
        let cfg = OpenLoopConfig {
            start: SimTime::from_secs(2),
            steps: vec![Step {
                rate_ops: 100.0,
                dur: SimDuration::from_secs(6),
            }],
            sessions: 10, // two per region: a stall exhausts the pool at once
            workload: WorkloadConfig {
                read_fraction: 0.0,
                conflict_rate: 0.0,
                ..WorkloadConfig::default()
            },
            retry_after: SimDuration::from_secs(1),
        };
        let load = OpenLoop::attach(&mut cluster.sim, &replicas, &Region::ALL, &cfg, 5);
        cluster.elect_leaders();
        // Stall the cluster: the leader is down from 3 s to 4 s, and its
        // successor needs an election timeout on top.
        let leader = cluster.replica(0, cluster.leaders()[0]);
        cluster.sim.crash_at(leader, SimTime::from_secs(3));
        cluster.sim.restart_at(leader, SimTime::from_secs(4));
        cluster.sim.run_until(SimTime::from_secs(40));

        let ops = load.ops();
        assert!(ops.len() > 500, "about 600 arrivals: {}", ops.len());
        assert!(ops.iter().all(|o| o.done_ns.is_some()), "all answered");
        assert!(load.max_backlog() > 50, "arrivals queued during the stall");
        let from_due = |o: &OpRecord| o.done_ns.expect("done") - o.due_ns;
        let from_send = |o: &OpRecord| o.done_ns.expect("done") - o.sent_ns.expect("sent");
        // An arrival due mid-stall that had to wait for a session: the
        // send-time clock misses the wait, the due-time clock does not.
        let queued = ops
            .iter()
            .filter(|o| o.sent_ns.expect("sent") > o.due_ns + 500_000_000)
            .max_by_key(|o| from_due(o))
            .expect("some arrival waited over 500 ms for a session");
        assert!(from_due(queued) > from_send(queued) + 500_000_000);
        let worst_due = ops.iter().map(from_due).max().expect("ops");
        assert!(worst_due > 1_000_000_000, "stall visible: {worst_due} ns");
        assert_eq!(load.late_ns_max(), 0, "an idle generator fires on time");
    }
}
