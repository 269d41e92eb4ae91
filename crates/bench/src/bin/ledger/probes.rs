//! Layer probes: each times one layer alone through its public API, with
//! no cluster around it, so a change to that layer shows here first and a
//! change elsewhere does not. The sim-free ones (`workload.*`, `spec.*`)
//! are the bypass for every simulator-core change.

use std::hint::black_box;
use std::time::Instant;

use paxraft_core::kv::{CmdId, Command, KvStore};
use paxraft_core::log::{Entry, Log};
use paxraft_core::shard::ShardRouter;
use paxraft_core::types::{Slot, Term};
use paxraft_sim::net::{NetConfig, Region};
use paxraft_sim::rng::SimRng;
use paxraft_sim::sim::{Actor, ActorId, Ctx, Payload, Simulation};
use paxraft_sim::time::{SimDuration, SimTime};
use paxraft_spec::check::{explore, Limits};
use paxraft_spec::specs::{multipaxos, shardkv};
use paxraft_workload::generator::{Generator, WorkloadConfig};
use paxraft_workload::linearize::{check_history, Action, OpRecord};

use crate::measure::median;
use crate::trace::Tracer;

/// Each probe runs this often; its median is reported.
const REPEATS: usize = 3;
const RECORDS: u64 = 100_000;

#[derive(Debug, Clone)]
struct Ping;

impl Payload for Ping {
    fn size_bytes(&self) -> usize {
        16
    }
}

/// Bounces a message back until `left` runs out.
struct Echo {
    peer: ActorId,
    left: u32,
}

impl Actor<Ping> for Echo {
    fn on_start(&mut self, ctx: &mut Ctx<Ping>) {
        ctx.send(self.peer, Ping);
    }
    fn on_message(&mut self, ctx: &mut Ctx<Ping>, from: ActorId, _m: Ping) {
        if self.left > 0 {
            self.left -= 1;
            ctx.send(from, Ping);
        }
    }
    paxraft_sim::impl_actor_any!();
}

/// Re-arms one timer until `left` runs out.
struct Ticker {
    left: u32,
}

impl Actor<Ping> for Ticker {
    fn on_start(&mut self, ctx: &mut Ctx<Ping>) {
        ctx.set_timer(SimDuration::from_micros(10), 0);
    }
    fn on_message(&mut self, _ctx: &mut Ctx<Ping>, _from: ActorId, _m: Ping) {}
    fn on_timer(&mut self, ctx: &mut Ctx<Ping>, _token: u64) {
        if self.left > 0 {
            self.left -= 1;
            ctx.set_timer(SimDuration::from_micros(10), 0);
        }
    }
    paxraft_sim::impl_actor_any!();
}

/// Host ns per simulator event with no protocol: two actors echoing
/// `messages` messages.
fn sim_ns_per_event(messages: u32) -> f64 {
    let mut sim = Simulation::new(NetConfig::default(), 7);
    let a = sim.add_actor(
        Region::Oregon,
        Box::new(Echo {
            peer: ActorId(1),
            left: messages / 2,
        }),
    );
    sim.add_actor(
        Region::Oregon,
        Box::new(Echo {
            peer: a,
            left: messages / 2,
        }),
    );
    let t0 = Instant::now();
    sim.run_to_quiescence(SimTime::MAX);
    t0.elapsed().as_nanos() as f64 / sim.stats.events as f64
}

fn sim_ns_per_timer(timers: u32) -> f64 {
    let mut sim = Simulation::<Ping>::new(NetConfig::default(), 7);
    sim.add_actor(Region::Oregon, Box::new(Ticker { left: timers }));
    let t0 = Instant::now();
    sim.run_to_quiescence(SimTime::MAX);
    t0.elapsed().as_nanos() as f64 / sim.stats.timer_fires as f64
}

fn put(i: u64) -> Command {
    Command::put(
        CmdId {
            client: (i % 250) as u32,
            seq: 1 + i / 250,
        },
        i % RECORDS,
        vec![0; 8],
    )
}

fn entry(i: u64) -> Entry {
    Entry {
        term: Term(1),
        bal: Term(1),
        cmd: put(i),
    }
}

/// `[append_ns, suffix64_ns, set_bal_100k_us]`.
fn log_probe() -> [f64; 3] {
    let entries: Vec<Entry> = (0..RECORDS).map(entry).collect();
    let mut log = Log::new();
    let t0 = Instant::now();
    for e in entries {
        log.append(e);
    }
    let append_ns = t0.elapsed().as_nanos() as f64 / RECORDS as f64;
    let from = Slot(log.last_index().0 - 64);
    let t0 = Instant::now();
    for _ in 0..1_000 {
        black_box(log.suffix_from(black_box(from)));
    }
    let suffix64_ns = t0.elapsed().as_nanos() as f64 / 1_000.0;
    let t0 = Instant::now();
    log.set_bal_upto(log.last_index(), Term(2));
    let set_bal_us = t0.elapsed().as_nanos() as f64 / 1e3;
    black_box(&log);
    [append_ns, suffix64_ns, set_bal_us]
}

/// `[apply_ns, snapshot_100k_ms, restore_100k_ms]`.
fn kv_probe() -> [f64; 3] {
    let cmds: Vec<Command> = (0..RECORDS).map(put).collect();
    let mut kv = KvStore::new();
    let t0 = Instant::now();
    for c in &cmds {
        black_box(kv.apply(c));
    }
    let apply_ns = t0.elapsed().as_nanos() as f64 / RECORDS as f64;
    let t0 = Instant::now();
    let snap = kv.snapshot();
    let snapshot_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut other = KvStore::new();
    let t0 = Instant::now();
    other.restore(&snap);
    let restore_ms = t0.elapsed().as_secs_f64() * 1e3;
    black_box(other.len());
    [apply_ns, snapshot_ms, restore_ms]
}

fn router_lookup_ns() -> f64 {
    let router = ShardRouter::new(RECORDS, 4);
    let mut rng = SimRng::new(3);
    let keys: Vec<u64> = (0..1_000_000).map(|_| rng.gen_range(RECORDS)).collect();
    let t0 = Instant::now();
    let mut acc = 0u32;
    for &k in &keys {
        acc = acc.wrapping_add(router.group_of(black_box(k)));
    }
    black_box(acc);
    t0.elapsed().as_nanos() as f64 / keys.len() as f64
}

fn gen_ns_per_op() -> f64 {
    let mut g = Generator::new(WorkloadConfig::default(), 0, SimRng::new(11));
    let n = 1_000_000;
    let t0 = Instant::now();
    for _ in 0..n {
        black_box(g.next_op());
    }
    t0.elapsed().as_nanos() as f64 / f64::from(n)
}

/// Checks an 8 K-operation history of alternating writes and reads.
fn linearize_ms() -> f64 {
    let mut history = Vec::new();
    let mut last = None;
    for i in 0..8_000u64 {
        let t = i * 100;
        let action = if i % 2 == 0 {
            last = Some(i);
            Action::Write(i)
        } else {
            Action::Read(last)
        };
        history.push(OpRecord {
            client: (i % 8) as usize,
            key: 0,
            action,
            invoke_ns: t,
            respond_ns: t + 90,
        });
    }
    let t0 = Instant::now();
    check_history(&history, 1 << 22).expect("a sequential history is linearizable");
    t0.elapsed().as_secs_f64() * 1e3
}

/// States explored per host second: 3 K of the MultiPaxos spec (whose
/// wide states make it ~20x slower per state) or 20 K of the sharded-KV
/// migration spec.
fn spec_states_per_s(which: &str) -> f64 {
    let t0 = Instant::now();
    let report = match which {
        "mp" => {
            let limits = Limits::states(3_000);
            let cfg = multipaxos::MpConfig {
                slots: 2,
                max_ballot: 2,
                ..multipaxos::MpConfig::default()
            };
            explore(&multipaxos::spec(&cfg), &[], limits)
        }
        _ => explore(
            &shardkv::spec(&shardkv::SkConfig::default()),
            &shardkv::invariants(),
            Limits::states(20_000),
        ),
    };
    report.states as f64 / t0.elapsed().as_secs_f64()
}

/// Runs `f` three times inside a span and takes each number's median.
fn probe<const N: usize>(
    tracer: &mut Tracer,
    name: &'static str,
    mut f: impl FnMut() -> [f64; N],
) -> [f64; N] {
    let (runs, _) = tracer.span(name, |_| (0..REPEATS).map(|_| f()).collect::<Vec<_>>());
    std::array::from_fn(|i| median(&runs.iter().map(|r| r[i]).collect::<Vec<_>>()))
}

/// Runs every probe and returns `(metric, value)`.
pub fn run_all(tracer: &mut Tracer) -> Vec<(&'static str, f64)> {
    tracer.enter("probes");
    let [event, timer] = probe(tracer, "probe:sim", || {
        [sim_ns_per_event(1_000_000), sim_ns_per_timer(1_000_000)]
    });
    let [append, suffix, set_bal] = probe(tracer, "probe:log", log_probe);
    let [apply, snapshot, restore] = probe(tracer, "probe:kv", kv_probe);
    let [lookup] = probe(tracer, "probe:shard", || [router_lookup_ns()]);
    let [gen, linearize] = probe(tracer, "probe:workload", || {
        [gen_ns_per_op(), linearize_ms()]
    });
    let [mp, shardkv] = probe(tracer, "probe:spec", || {
        [spec_states_per_s("mp"), spec_states_per_s("shardkv")]
    });
    tracer.exit();
    vec![
        ("sim.ns_per_event", event),
        ("sim.ns_per_timer", timer),
        ("log.append_ns", append),
        ("log.suffix64_ns", suffix),
        ("log.set_bal_100k_us", set_bal),
        ("kv.apply_ns", apply),
        ("kv.snapshot_100k_ms", snapshot),
        ("kv.restore_100k_ms", restore),
        ("shard.router_lookup_ns", lookup),
        ("workload.gen_ns_per_op", gen),
        ("workload.linearize_ms", linearize),
        ("spec.mp_states_per_s", mp),
        ("spec.shardkv_states_per_s", shardkv),
    ]
}
