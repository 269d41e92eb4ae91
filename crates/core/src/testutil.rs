//! Test helpers shared by the protocol unit tests: a minimal closed-loop
//! client and a cluster constructor. (The full measurement harness lives
//! in [`crate::harness`]; this module stays deliberately tiny so protocol
//! tests do not depend on it.)

use std::collections::VecDeque;

use paxraft_sim::impl_actor_any;
use paxraft_sim::net::{NetConfig, Region};
use paxraft_sim::sim::{Actor, ActorId, Ctx, Simulation};
use paxraft_sim::time::{SimDuration, SimTime};
use paxraft_workload::linearize::{Action, OpRecord};

use crate::config::ReplicaConfig;
use crate::kv::{CmdId, Command, Op, Reply};
use crate::msg::{ClientMsg, Msg};
use crate::telemetry::TRACE_CAPACITY;
use crate::types::NodeId;

/// A scripted closed-loop client: sends one queued command at a time to a
/// fixed target replica, retrying on silence.
pub struct TestClient {
    /// Logical client id (maps to `client_base + id`).
    pub client_id: u32,
    /// Replica the client talks to.
    pub target: ActorId,
    /// Commands sent so far (in order).
    pub sent: Vec<Command>,
    /// When each of `sent` first went out.
    pub sent_at: Vec<SimTime>,
    /// Replies received: `(id, reply, at)`.
    pub replies: Vec<(CmdId, Reply, SimTime)>,
    queue: VecDeque<Command>,
    seq: u64,
    inflight: Option<(CmdId, SimTime)>,
    retry_after: SimDuration,
}

impl TestClient {
    /// Creates a client with an empty script.
    pub fn new(client_id: u32, target: ActorId) -> Self {
        TestClient {
            client_id,
            target,
            sent: Vec::new(),
            sent_at: Vec::new(),
            replies: Vec::new(),
            queue: VecDeque::new(),
            seq: 0,
            inflight: None,
            retry_after: SimDuration::from_secs(5),
        }
    }

    /// Queues a write to `key` (value embeds the command id).
    pub fn enqueue_put(&mut self, key: u64) {
        self.seq += 1;
        let id = CmdId {
            client: self.client_id,
            seq: self.seq,
        };
        self.queue.push_back(Command::put(id, key, vec![0; 8]));
    }

    /// Queues a read of `key`.
    pub fn enqueue_get(&mut self, key: u64) {
        self.seq += 1;
        let id = CmdId {
            client: self.client_id,
            seq: self.seq,
        };
        self.queue.push_back(Command::get(id, key));
    }

    /// This client's operations on `key` as a linearizability history:
    /// a write never answered stays pending to the end, a read never
    /// answered observed nothing and is left out.
    pub fn history(&self, key: u64) -> Vec<OpRecord> {
        self.sent
            .iter()
            .zip(&self.sent_at)
            .filter(|(cmd, _)| cmd.op.key() == Some(key))
            .filter_map(|(cmd, at)| {
                let reply = self.replies.iter().find(|(id, ..)| *id == cmd.id);
                let action = match cmd.op {
                    Op::Put { .. } => Action::Write(cmd.id.as_value_id()),
                    _ => Action::Read(reply?.1.value_id()),
                };
                Some(OpRecord {
                    client: self.client_id as usize,
                    key,
                    action,
                    invoke_ns: at.as_nanos(),
                    respond_ns: reply.map_or(u64::MAX, |(.., t)| t.as_nanos()),
                })
            })
            .collect()
    }

    fn pump(&mut self, ctx: &mut Ctx<Msg>) {
        if self.inflight.is_none() {
            if let Some(cmd) = self.queue.pop_front() {
                self.inflight = Some((cmd.id, ctx.now()));
                self.sent.push(cmd.clone());
                self.sent_at.push(ctx.now());
                ctx.send(self.target, Msg::Client(ClientMsg::Request { cmd }));
            }
        } else if let Some((id, since)) = self.inflight {
            if ctx.now().since(since) > self.retry_after {
                // Retry the same command (dedup makes this safe).
                let cmd = self
                    .sent
                    .iter()
                    .rev()
                    .find(|c| c.id == id)
                    .expect("inflight command was sent")
                    .clone();
                self.inflight = Some((id, ctx.now()));
                ctx.send(self.target, Msg::Client(ClientMsg::Request { cmd }));
            }
        }
    }
}

impl Actor<Msg> for TestClient {
    fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
        ctx.set_timer(SimDuration::from_millis(10), 1);
    }

    fn on_message(&mut self, ctx: &mut Ctx<Msg>, _from: ActorId, msg: Msg) {
        if let Msg::Client(ClientMsg::Response { id, reply }) = msg {
            if self.inflight.map(|(i, _)| i) == Some(id) {
                self.inflight = None;
                self.replies.push((id, reply, ctx.now()));
                self.pump(ctx);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<Msg>, _token: u64) {
        self.pump(ctx);
        ctx.set_timer(SimDuration::from_millis(50), 1);
    }

    impl_actor_any!();
}

/// Regions used for replica placement, in the paper's order.
pub fn region_of(i: usize) -> Region {
    Region::ALL[i % Region::ALL.len()]
}

/// Builds an `n`-replica cluster plus one [`TestClient`] (client id 0,
/// targeting replica 0). The closure turns a filled-in [`ReplicaConfig`]
/// into the protocol actor under test.
pub fn cluster_with(
    n: usize,
    make: impl FnMut(ReplicaConfig) -> Box<dyn Actor<Msg>>,
) -> (Simulation<Msg>, Vec<ActorId>, ActorId) {
    cluster_with_seed(n, 7, make)
}

/// [`cluster_with`] on a chosen simulation seed (loss sweeps).
pub fn cluster_with_seed(
    n: usize,
    seed: u64,
    mut make: impl FnMut(ReplicaConfig) -> Box<dyn Actor<Msg>>,
) -> (Simulation<Msg>, Vec<ActorId>, ActorId) {
    let mut sim = Simulation::new(NetConfig::default(), seed);
    // Flight recorder on for every protocol test: recording never
    // perturbs the schedule (pinned by the sim crate's parity test),
    // and a failing scenario dumps the tail for post-mortem context.
    sim.enable_trace(TRACE_CAPACITY);
    let peers: Vec<ActorId> = (0..n).map(ActorId).collect();
    let mut replicas = Vec::new();
    for i in 0..n {
        let mut cfg = ReplicaConfig::wan_default(NodeId(i as u32), n);
        cfg.peers = peers.clone();
        cfg.client_base = n;
        let actor = make(cfg);
        replicas.push(sim.add_actor(region_of(i), actor));
    }
    let client = sim.add_actor(Region::Oregon, Box::new(TestClient::new(0, replicas[0])));
    (sim, replicas, client)
}

/// Default tail length for an on-failure trace dump.
pub const TRACE_DUMP_LAST: usize = 40;

/// How many trace events a failure dump prints: the `TRACE_DUMP_LAST`
/// environment variable when set to a positive integer (capped at the
/// ring's [`TRACE_CAPACITY`] — asking for more than the recorder keeps
/// cannot help), [`TRACE_DUMP_LAST`] otherwise. Debugging a dense
/// failure locally? `TRACE_DUMP_LAST=256 cargo test …` widens every
/// dump without a recompile.
pub fn trace_dump_last() -> usize {
    std::env::var("TRACE_DUMP_LAST")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(TRACE_DUMP_LAST)
        .min(TRACE_CAPACITY)
}

/// If `TRACE_DUMP_DIR` is set, writes the flight recorder's machine-
/// readable export there and returns the path — CI sets the variable
/// and uploads the directory as an artifact when a test job fails, so
/// a red run carries its event history out of the runner. Files are
/// named by process id and a counter: parallel test binaries and
/// multiple failures in one binary never collide.
pub fn export_trace_artifact(sim: &Simulation<Msg>) -> Option<std::path::PathBuf> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::path::PathBuf::from(std::env::var_os("TRACE_DUMP_DIR")?);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("trace-{}-{}.json", std::process::id(), n));
    if std::fs::create_dir_all(&dir).is_err() {
        return None;
    }
    match std::fs::write(&path, sim.trace().export_json()) {
        Ok(()) => {
            eprintln!("flight-recorder export written to {}", path.display());
            Some(path)
        }
        Err(_) => None,
    }
}

/// Steps the simulation in 50 ms increments until `pred` holds or
/// `deadline` passes. Returns whether the predicate held; on timeout
/// (the caller is about to fail its assertion) the tail of the flight
/// recorder goes to stderr first, so the failure carries the event
/// context that led to it.
pub fn drive_until<F>(sim: &mut Simulation<Msg>, deadline: SimTime, mut pred: F) -> bool
where
    F: FnMut(&Simulation<Msg>) -> bool,
{
    loop {
        if pred(sim) {
            return true;
        }
        if sim.now() >= deadline {
            let tail = trace_dump_last();
            eprintln!(
                "drive_until: predicate still false at {} — last {} trace events:\n{}",
                sim.now(),
                tail.min(sim.trace().len()),
                sim.trace().render_last(tail)
            );
            export_trace_artifact(sim);
            return false;
        }
        sim.run_for(SimDuration::from_millis(50));
    }
}

/// Runs `f`; if it panics (a failed assertion), prints the tail of the
/// simulation's flight recorder before resuming the unwind — the
/// conformance suite wraps its densest invariant blocks in this so a
/// red assertion comes with the recent event history.
pub fn with_trace_dump<R>(
    sim: &mut Simulation<Msg>,
    f: impl FnOnce(&mut Simulation<Msg>) -> R,
) -> R {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(sim))) {
        Ok(r) => r,
        Err(e) => {
            let tail = trace_dump_last();
            eprintln!(
                "assertion failed — last {} trace events:\n{}",
                tail.min(sim.trace().len()),
                sim.trace().render_last(tail)
            );
            export_trace_artifact(sim);
            std::panic::resume_unwind(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_dump_tail_is_env_configurable() {
        std::env::remove_var("TRACE_DUMP_LAST");
        assert_eq!(trace_dump_last(), TRACE_DUMP_LAST);
        std::env::set_var("TRACE_DUMP_LAST", "96");
        assert_eq!(trace_dump_last(), 96);
        // Nonsense and zero fall back to the default; requests beyond
        // the ring capacity clamp to it.
        std::env::set_var("TRACE_DUMP_LAST", "lots");
        assert_eq!(trace_dump_last(), TRACE_DUMP_LAST);
        std::env::set_var("TRACE_DUMP_LAST", "0");
        assert_eq!(trace_dump_last(), TRACE_DUMP_LAST);
        std::env::set_var("TRACE_DUMP_LAST", "100000");
        assert_eq!(trace_dump_last(), TRACE_CAPACITY);
        std::env::remove_var("TRACE_DUMP_LAST");
    }

    #[test]
    fn export_trace_artifact_writes_json_when_dir_is_set() {
        // No TRACE_DUMP_DIR → no file, no error.
        std::env::remove_var("TRACE_DUMP_DIR");
        let (mut sim, _replicas, _client) =
            cluster_with(1, |cfg| Box::new(crate::raft::RaftReplica::new(cfg)));
        sim.run_for(SimDuration::from_millis(100));
        assert!(export_trace_artifact(&sim).is_none());
        // With it set, the export lands as well-formed JSON lines.
        let dir = std::env::temp_dir().join(format!("paxraft-trace-{}", std::process::id()));
        std::env::set_var("TRACE_DUMP_DIR", &dir);
        let path = export_trace_artifact(&sim).expect("artifact written");
        std::env::remove_var("TRACE_DUMP_DIR");
        let json = std::fs::read_to_string(&path).expect("artifact readable");
        assert!(json.starts_with("[\n"), "array framing: {json:.40}");
        assert!(json.contains("\"kind\""), "events serialized");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
