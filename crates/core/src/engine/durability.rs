//! Engine-level durability: write sequencing, fsync scheduling, and
//! ack-after-fsync deferral — the **group commit** optimization written
//! once and inherited by all four protocols.
//!
//! The invariant this module enforces is protocol-independent: *an
//! acknowledgement must never precede durability of what it attests to*. A
//! Raft `AppendOk`, a Paxos `AcceptOk`/`PrepareOk` (a Mencius revocation's
//! too), a Mencius acceptor's ack and a snapshot ack all claim "I hold this
//! state"; if the claimant crashes and restarts without the state, a quorum
//! that counted the claim can lose a committed entry. So every durability
//! write is tagged with a monotone sequence number, every attesting ack is
//! deferred until the fsync covering its sequence completes, and the crash
//! path discards whatever the last completed fsync did not cover.
//!
//! Two policies schedule the fsyncs ([`FsyncPolicy`]):
//!
//! - **FsyncPerEntry**: every entry gets its own flush barrier, in
//!   order. Durable latency for an N-entry append is N serial fsyncs —
//!   the regime where a 1 ms device caps a replica near 1000 entries/s.
//!   The device does N barriers and the counters count N
//!   ([`DurabilityStats`], `DiskStats::fsyncs`), but the write *completes
//!   once*, at the last: every ack defers at, and every protocol tags a
//!   write with, the write's last sequence number, so the N − 1 earlier
//!   completions could release nothing and were a fifth of the
//!   `fsync-overload` workload's events. It is whole write or nothing —
//!   a crash before the last barrier recovers to the write before. The
//!   completion-per-barrier path survives as a `#[cfg(test)]` switch, the
//!   reference the differential test compares against.
//! - **GroupCommit**: entries accumulate unsynced; one batched fsync
//!   covers all of them. At most one fsync is in flight, and entries
//!   written meanwhile wait behind it. When a write or a completion
//!   finds the device idle with entries waiting, the next fsync is
//!   issued at once if `max_batch` entries wait, or if the last write
//!   landed `max_delay` or more before — a lone write finds no company
//!   by waiting — and otherwise `max_delay` later (a keyed timer, which
//!   the fsync that covers its batch retires). Device cost amortizes
//!   across the batch, so throughput decouples from fsync latency while
//!   the ack invariant is untouched — acks simply ride the batch's
//!   completion.

use std::collections::VecDeque;

use paxraft_sim::sim::{ActorId, Ctx};
use paxraft_sim::time::SimTime;

use crate::config::{DurabilityConfig, FsyncPolicy};
use crate::msg::Msg;

use super::{KIND_MASK, T_FSYNC, T_FSYNC_DELAY};

/// Cumulative durability counters (reporting only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Fsyncs completed.
    pub fsyncs: u64,
    /// Entries covered by completed fsyncs (batch sizes summed).
    pub fsync_entries: u64,
    /// Acks that had to wait for an fsync before being sent.
    pub deferred_acks: u64,
    /// Entries covered by the most recent fsync.
    pub last_batch_len: u64,
}

impl DurabilityStats {
    /// Mean entries per fsync — the group-commit amortization factor.
    pub fn mean_batch_len(&self) -> f64 {
        if self.fsyncs == 0 {
            0.0
        } else {
            self.fsync_entries as f64 / self.fsyncs as f64
        }
    }

    /// Sums another replica's counters into this one (report
    /// aggregation); `last_batch_len` keeps the max.
    pub fn absorb(&mut self, other: &DurabilityStats) {
        self.fsyncs += other.fsyncs;
        self.fsync_entries += other.fsync_entries;
        self.deferred_acks += other.deferred_acks;
        self.last_batch_len = self.last_batch_len.max(other.last_batch_len);
    }
}

/// Per-replica durability state machine.
///
/// `write_seq` stamps every durability write; `synced_seq` trails it at
/// the last completed fsync. Acks deferred at a sequence flush when
/// `synced_seq` reaches it. On crash, everything above `synced_seq`
/// never happened — the protocols truncate their logs to match.
#[derive(Debug)]
pub struct DurabilityState {
    policy: Option<FsyncPolicy>,
    write_seq: u64,
    synced_seq: u64,
    /// Entries written since the last fsync was issued (group commit's
    /// batch-in-formation).
    unsynced_entries: usize,
    /// Group commit: whether an fsync is in flight (at most one).
    inflight: bool,
    /// Group commit: whether the max-delay timer is armed. The timer is
    /// keyed ([`Ctx::rearm_timer`]): a fire that finds this down was
    /// retired by the fsync that covered its batch.
    delay_armed: bool,
    /// Group commit: when the last durability write landed; `None`
    /// before the first and after a crash. A write that finds the device
    /// idle waits `max_delay` for company only if this is less than
    /// `max_delay` ago.
    last_write: Option<SimTime>,
    /// Issued fsyncs not yet completed, one record per completion event:
    /// `(covering seq, entries)`.
    issued: VecDeque<(u64, u64)>,
    /// Acks waiting for durability: `(covering seq, to, msg)`, seq
    /// non-decreasing (FIFO per replica, like a real completion queue).
    deferred: VecDeque<(u64, ActorId, Msg)>,
    /// Cumulative counters.
    pub stats: DurabilityStats,
    /// Tests: report every barrier of a per-entry write with a completion
    /// event of its own — the reference the single completion is compared
    /// against.
    #[cfg(test)]
    completion_per_barrier: bool,
}

impl DurabilityState {
    /// Durability state for one replica's config.
    pub fn new(cfg: &DurabilityConfig) -> Self {
        DurabilityState {
            policy: cfg.policy.clone(),
            write_seq: 0,
            synced_seq: 0,
            unsynced_entries: 0,
            inflight: false,
            delay_armed: false,
            last_write: None,
            issued: VecDeque::new(),
            deferred: VecDeque::new(),
            stats: DurabilityStats::default(),
            #[cfg(test)]
            completion_per_barrier: false,
        }
    }

    /// Whether acks wait for fsync at all.
    pub fn enabled(&self) -> bool {
        self.policy.is_some()
    }

    /// Whether the time to acknowledge a write grows with the entries in
    /// it: one serial barrier each, against group commit's one barrier
    /// for the lot. What [`super::pipeline::PipelineWindow::round_cap`]
    /// sizes replication rounds by.
    pub fn barrier_per_entry(&self) -> bool {
        matches!(self.policy, Some(FsyncPolicy::FsyncPerEntry))
    }

    /// The sequence of the most recent durability write.
    pub fn write_seq(&self) -> u64 {
        self.write_seq
    }

    /// The sequence covered by the last completed fsync: writes at or
    /// below it are durable and survive a crash.
    pub fn synced_seq(&self) -> u64 {
        self.synced_seq
    }

    /// Records one durability write of `bytes` covering `entries` log
    /// entries (0 for pure metadata, counted as 1 toward batching) and
    /// schedules fsyncs per the policy. No-op when disabled.
    pub fn durable_write(&mut self, ctx: &mut Ctx<Msg>, bytes: usize, entries: usize) {
        let Some(policy) = &self.policy else {
            return;
        };
        ctx.disk_write(bytes);
        let units = entries.max(1);
        match policy {
            FsyncPolicy::FsyncPerEntry => {
                // One barrier per entry, in order: the disk serializes
                // them, so an N-entry write waits out N device latencies.
                // Everything that attests to the write is tagged with its
                // last sequence, so only the last barrier's completion
                // can release anything: it is the one event reported.
                let barriers = units as u64;
                self.write_seq += barriers;
                self.issued.push_back((self.write_seq, barriers));
                #[cfg(test)]
                let barriers = self.report_leading_barriers(ctx, barriers);
                ctx.fsync_serial(barriers, T_FSYNC | self.write_seq);
                ctx.trace_app(
                    "disk_queue_depth",
                    self.write_seq - self.synced_seq,
                    ctx.disk_backlog().as_nanos() / 1_000_000,
                );
            }
            FsyncPolicy::GroupCommit { .. } => {
                self.write_seq += 1;
                self.unsynced_entries += units;
                self.maybe_issue(ctx);
                self.last_write = Some(ctx.now());
            }
        }
    }

    /// Tests, under `completion_per_barrier`: issues all but the last of
    /// a write's `barriers` as fsyncs with completions of their own, and
    /// returns how many are left for the write's one completion to cover.
    #[cfg(test)]
    fn report_leading_barriers(&self, ctx: &mut Ctx<Msg>, barriers: u64) -> u64 {
        if !self.completion_per_barrier {
            return barriers;
        }
        for behind in (1..barriers).rev() {
            ctx.fsync(T_FSYNC | (self.write_seq - behind));
        }
        1
    }

    /// Sends `msg` now if everything written so far is already durable,
    /// otherwise defers it until the fsync covering the current write
    /// sequence completes. The deferred queue is FIFO, so ack order is
    /// preserved relative to other deferred acks.
    pub fn ack_after_sync(&mut self, ctx: &mut Ctx<Msg>, to: ActorId, msg: Msg) {
        if self.policy.is_none() || self.write_seq <= self.synced_seq {
            ctx.send(to, msg);
            return;
        }
        self.stats.deferred_acks += 1;
        self.deferred.push_back((self.write_seq, to, msg));
        // A metadata-only ack (no entry written since the last fsync
        // was issued) must still be covered by *some* future fsync;
        // group commit may be idle with an empty batch, so make sure
        // one is issued or the delay clock is running.
        if let Some(FsyncPolicy::GroupCommit { .. }) = &self.policy {
            self.maybe_issue(ctx);
        }
    }

    /// Group commit: when work waits and nothing is in flight, issues the
    /// next fsync if the batch is full or the last write landed
    /// `max_delay` or more ago (a lone write finds no company by
    /// waiting), and otherwise arms the max-delay timer. Called on writes,
    /// before they stamp their time, and after each completion.
    pub fn maybe_issue(&mut self, ctx: &mut Ctx<Msg>) {
        let Some(FsyncPolicy::GroupCommit {
            max_batch,
            max_delay,
        }) = &self.policy
        else {
            return;
        };
        if self.inflight || self.write_seq <= self.synced_seq {
            return;
        }
        let lone = self
            .last_write
            .is_none_or(|at| ctx.now().since(at) >= *max_delay);
        if self.unsynced_entries >= *max_batch || lone {
            self.issue_fsync(ctx);
        } else if !self.delay_armed {
            self.delay_armed = true;
            ctx.rearm_timer(T_FSYNC_DELAY, *max_delay, T_FSYNC_DELAY);
        }
    }

    /// The max-delay timer fired: flush what waits. A timer an fsync
    /// retired does nothing.
    pub fn on_delay_fire(&mut self, ctx: &mut Ctx<Msg>) {
        // Only an fsync or a crash lowers the flag, so while it is up no
        // fsync is in flight and the batch it was armed for still waits.
        if self.delay_armed {
            self.issue_fsync(ctx);
        }
    }

    fn issue_fsync(&mut self, ctx: &mut Ctx<Msg>) {
        self.inflight = true;
        // Retire any armed delay timer: this fsync covers its batch.
        self.delay_armed = false;
        self.issued
            .push_back((self.write_seq, self.unsynced_entries as u64));
        self.unsynced_entries = 0;
        ctx.trace_app(
            "disk_queue_depth",
            self.issued.len() as u64,
            ctx.disk_backlog().as_nanos() / 1_000_000,
        );
        ctx.fsync(T_FSYNC | (self.write_seq & !KIND_MASK));
    }

    /// An fsync completion arrived for `seq`: advance the durable
    /// watermark and return the completed batch size (entries); the acks
    /// it covers leave through [`Self::pop_synced_ack`]. The counters
    /// count barriers: a per-entry write's one completion stands for one
    /// fsync per entry.
    pub fn on_fsync_complete(&mut self, seq: u64) -> u64 {
        self.synced_seq = self.synced_seq.max(seq);
        self.inflight = false;
        let per_entry = self.barrier_per_entry();
        let mut batch = 0;
        while let Some(&(s, entries)) = self.issued.front() {
            if s > seq {
                break;
            }
            batch += entries;
            let (barriers, covered) = if per_entry {
                (entries, 1)
            } else {
                (1, entries)
            };
            self.stats.fsyncs += barriers;
            self.stats.last_batch_len = covered;
            self.issued.pop_front();
        }
        self.stats.fsync_entries += batch;
        batch
    }

    /// The next deferred ack the durable watermark covers, oldest first.
    pub fn pop_synced_ack(&mut self) -> Option<(ActorId, Msg)> {
        let (seq, ..) = self.deferred.front()?;
        if *seq > self.synced_seq {
            return None;
        }
        self.deferred.pop_front().map(|(_, to, msg)| (to, msg))
    }

    /// Crash: unsynced writes never happened. Deferred acks die with
    /// them (exactly the point — they were never sent), in-flight
    /// fsyncs are cancelled by the sim's crash epoch, and the write
    /// sequence rewinds to the durable watermark. `synced_seq` itself
    /// persists: it *is* the on-disk state.
    pub fn crash_reset(&mut self) {
        self.write_seq = self.synced_seq;
        self.unsynced_entries = 0;
        self.inflight = false;
        self.delay_armed = false;
        self.last_write = None;
        self.issued.clear();
        self.deferred.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ReplicaConfig;
    use crate::engine::{ProtocolRules, ReplicaEngine};
    use crate::kv::{CmdId, Command, Reply};
    use crate::mencius::MenciusReplica;
    use crate::msg::ClientMsg;
    use crate::multipaxos::MultiPaxosReplica;
    use crate::raft::RaftReplica;
    use crate::raftstar::RaftStarReplica;
    use crate::testutil::{cluster_with_seed, region_of, TestClient};
    use crate::types::{NodeId, Slot};
    use paxraft_sim::impl_actor_any;
    use paxraft_sim::net::{NetConfig, Region};
    use paxraft_sim::sim::{Actor, Simulation};
    use paxraft_sim::time::SimDuration;

    #[test]
    fn stats_mean_and_absorb() {
        let mut a = DurabilityStats {
            fsyncs: 2,
            fsync_entries: 10,
            deferred_acks: 3,
            last_batch_len: 6,
        };
        assert_eq!(a.mean_batch_len(), 5.0);
        let b = DurabilityStats {
            fsyncs: 1,
            fsync_entries: 2,
            deferred_acks: 1,
            last_batch_len: 2,
        };
        a.absorb(&b);
        assert_eq!(a.fsyncs, 3);
        assert_eq!(a.fsync_entries, 12);
        assert_eq!(a.deferred_acks, 4);
        assert_eq!(a.last_batch_len, 6);
        assert_eq!(DurabilityStats::default().mean_batch_len(), 0.0);
    }

    #[test]
    fn disabled_state_is_inert() {
        let d = DurabilityState::new(&DurabilityConfig::default());
        assert!(!d.enabled());
        assert_eq!(d.write_seq(), 0);
        assert_eq!(d.synced_seq(), 0);
    }

    #[test]
    fn crash_rewinds_to_synced() {
        let cfg = DurabilityConfig::group_commit(
            SimDuration::from_millis(1),
            8,
            SimDuration::from_millis(2),
        );
        let mut d = DurabilityState::new(&cfg);
        d.write_seq = 7;
        d.synced_seq = 4;
        d.unsynced_entries = 3;
        d.inflight = true;
        d.issued.push_back((7, 3));
        d.crash_reset();
        assert_eq!(d.write_seq(), 4);
        assert_eq!(d.synced_seq(), 4);
        assert!(!d.inflight);
        assert!(d.issued.is_empty());
        assert!(d.deferred.is_empty());
    }

    #[test]
    fn completion_drains_covered_acks_in_order() {
        let cfg = DurabilityConfig::per_entry(SimDuration::from_millis(1));
        let mut d = DurabilityState::new(&cfg);
        d.write_seq = 3;
        d.issued.extend([(1, 1), (2, 1), (3, 1)]);
        let stub = || {
            Msg::Engine(crate::msg::EngineMsg::RangeAck {
                group: 0,
                version: 1,
                header_bytes: 0,
            })
        };
        d.deferred.push_back((2, ActorId(9), stub()));
        d.deferred.push_back((3, ActorId(8), stub()));
        let released = |d: &mut DurabilityState| -> Vec<ActorId> {
            std::iter::from_fn(|| d.pop_synced_ack().map(|(to, _)| to)).collect()
        };
        assert!(released(&mut d).is_empty(), "nothing synced yet");
        assert_eq!(d.on_fsync_complete(2), 2);
        assert_eq!(released(&mut d), [ActorId(9)]);
        assert_eq!(d.synced_seq(), 2);
        assert_eq!(d.on_fsync_complete(3), 1);
        assert_eq!(released(&mut d), [ActorId(8)]);
    }

    /// The counters count barriers, whatever the number of completion
    /// events: a five-entry per-entry write is five fsyncs of one entry,
    /// a seven-entry group commit one fsync of seven.
    #[test]
    fn one_completion_counts_every_barrier_it_stands_for() {
        let device = SimDuration::from_millis(1);
        let counted = |cfg: DurabilityConfig, entries: u64| {
            let mut d = DurabilityState::new(&cfg);
            d.write_seq = entries;
            d.issued.push_back((entries, entries));
            assert_eq!(d.on_fsync_complete(entries), entries);
            (
                d.stats.fsyncs,
                d.stats.fsync_entries,
                d.stats.last_batch_len,
            )
        };
        assert_eq!(counted(DurabilityConfig::per_entry(device), 5), (5, 5, 1));
        let group = DurabilityConfig::group_commit(device, 8, device);
        assert_eq!(counted(group, 7), (1, 7, 7));
    }

    /// One replica's durability layer alone: every message delivered is a
    /// one-entry write, and its timers are handled as the engine handles
    /// them. Records, per write, whether an fsync was in flight when its
    /// handler returned, and the durable watermark after each completion.
    struct Writer {
        dur: DurabilityState,
        in_flight_after_write: Vec<bool>,
        synced_after_completion: Vec<u64>,
    }

    impl Actor<Msg> for Writer {
        fn on_message(&mut self, ctx: &mut Ctx<Msg>, _from: ActorId, _msg: Msg) {
            self.dur.durable_write(ctx, 64, 1);
            self.in_flight_after_write.push(self.dur.inflight);
        }

        fn on_timer(&mut self, ctx: &mut Ctx<Msg>, token: u64) {
            match token & KIND_MASK {
                T_FSYNC => {
                    self.dur.on_fsync_complete(token & !KIND_MASK);
                    self.synced_after_completion.push(self.dur.synced_seq);
                    self.dur.maybe_issue(ctx);
                }
                T_FSYNC_DELAY => self.dur.on_delay_fire(ctx),
                _ => unreachable!("only durability timers"),
            }
        }

        fn on_crash(&mut self) {
            self.dur.crash_reset();
        }

        impl_actor_any!();
    }

    /// A `Writer` on a 1 ms device with group commit (`max_batch` 8,
    /// `max_delay` 3 ms), sent one write at each of `writes_at` (µs).
    fn writer(writes_at: &[u64]) -> (Simulation<Msg>, ActorId) {
        let cfg = DurabilityConfig::group_commit(
            SimDuration::from_millis(1),
            8,
            SimDuration::from_millis(3),
        );
        let mut sim = Simulation::new(NetConfig::default(), 1);
        sim.set_disk_config(cfg.disk_config());
        let writer = Writer {
            dur: DurabilityState::new(&cfg),
            in_flight_after_write: Vec::new(),
            synced_after_completion: Vec::new(),
        };
        let id = sim.add_actor(Region::Oregon, Box::new(writer));
        for &at in writes_at {
            let write = Msg::Engine(crate::msg::EngineMsg::RangeAck {
                group: 0,
                version: 1,
                header_bytes: 0,
            });
            sim.send_external(id, write, SimDuration::from_micros(at));
        }
        (sim, id)
    }

    /// A write 40 ms after the last one finds nobody to wait for: its
    /// fsync leaves in the write's own handler, no max-delay timer is
    /// queued, and it is durable one device latency later.
    #[test]
    fn a_write_after_a_quiet_spell_is_fsynced_at_once() {
        let (mut sim, id) = writer(&[10_000, 50_000]);
        sim.run_until(SimTime::from_micros(50_001));
        let w = sim.actor::<Writer>(id);
        assert_eq!(
            w.in_flight_after_write,
            [true, true],
            "issued in the handler"
        );
        assert_eq!(sim.timer_due(id, T_FSYNC_DELAY), None, "no wait queued");
        sim.run_until(SimTime::from_millis(60));
        let w = sim.actor::<Writer>(id);
        assert_eq!(w.synced_after_completion, [1, 2]);
        assert_eq!(w.dur.stats.fsyncs, 2);
    }

    /// Under a stream the wait stays: the writes at 12 and 12.5 ms come
    /// less than `max_delay` after the one before them, so they wait for
    /// company and one fsync covers both — the watermark never stops
    /// between them.
    #[test]
    fn writes_closer_than_max_delay_share_one_fsync() {
        let (mut sim, id) = writer(&[10_000, 12_000, 12_500]);
        sim.run_until(SimTime::from_millis(40));
        let w = sim.actor::<Writer>(id);
        assert_eq!(w.synced_after_completion.last(), Some(&3), "all durable");
        assert!(
            !w.synced_after_completion.contains(&2),
            "the last two writes became durable together: {:?}",
            w.synced_after_completion
        );
    }

    /// A crash forgets when the last write landed: the first write after
    /// the restart is lone, though the write before the crash was only
    /// 1 ms earlier.
    #[test]
    fn the_first_write_after_a_crash_counts_as_lone() {
        let (mut sim, id) = writer(&[10_000, 10_500, 11_500]);
        sim.crash_at(id, SimTime::from_micros(10_800));
        sim.restart_at(id, SimTime::from_micros(11_000));
        sim.run_until(SimTime::from_micros(11_501));
        let w = sim.actor::<Writer>(id);
        assert_eq!(w.in_flight_after_write, [true, true, true]);
        assert_eq!(w.dur.write_seq(), 1, "the unsynced writes rewound");
        assert_eq!(sim.timer_due(id, T_FSYNC_DELAY), None, "no wait queued");
    }

    /// What one run of the differential scenario showed.
    #[derive(Debug, PartialEq)]
    struct Observed {
        /// Every reply, per client in arrival order: `(time, client,
        /// seq, reply)`.
        replies: Vec<(SimTime, u32, u64, Reply)>,
        /// Per replica: operations applied, applied index, and the value
        /// at every key written.
        applied: Vec<(u64, Slot, Vec<Option<u64>>)>,
        /// Per replica, every quarter millisecond: the durable watermark
        /// as of the last completed write, the barriers pending beyond
        /// it, and the counters.
        durable: Vec<(u64, u64, DurabilityStats)>,
    }

    /// The scenario: five replicas on a 1 ms per-entry device, ten
    /// closed-loop writers spread over them, 3 % of messages lost, and a
    /// burst of 64 commands at the leader that it is crashed in the
    /// middle of writing, then restarted. `per_barrier` selects the
    /// reference: one completion event per barrier.
    fn differential_run<P: ProtocolRules>(
        make: fn(ReplicaConfig) -> ReplicaEngine<P>,
        per_barrier: bool,
    ) -> (Observed, u64) {
        const WRITERS: u32 = 10;
        const WRITES: u64 = 30;
        let durability = DurabilityConfig::per_entry(SimDuration::from_millis(1));
        let disk = durability.disk_config();
        let (mut sim, replicas, _) = cluster_with_seed(5, 0xD1FF, move |mut cfg| {
            cfg.initial_leader = Some(NodeId(0));
            cfg.mencius.revoke_timeout = SimDuration::from_secs(2);
            cfg.durability = durability.clone();
            let mut replica = make(cfg);
            replica.core.dur.completion_per_barrier = per_barrier;
            Box::new(replica)
        });
        sim.set_disk_config(disk);
        let key = |writer: u32, i: u64| u64::from(writer) * 1_000 + i;
        let writers: Vec<ActorId> = (1..=WRITERS)
            .map(|w| {
                let mut client = TestClient::new(w, replicas[w as usize % replicas.len()]);
                (0..WRITES).for_each(|i| client.enqueue_put(key(w, i)));
                sim.add_actor(region_of(w as usize), Box::new(client))
            })
            .collect();
        // The burst's replies need somewhere to go.
        let sink = TestClient::new(WRITERS + 1, replicas[0]);
        sim.add_actor(region_of(0), Box::new(sink));
        sim.set_drop_rate_at(0.03, SimTime::from_millis(400));
        let burst_at = SimDuration::from_millis(1_500);
        for seq in 1..=64 {
            let id = CmdId {
                client: WRITERS + 1,
                seq,
            };
            let cmd = Command::put(id, key(WRITERS + 1, seq), vec![0; 8]);
            sim.send_external(
                replicas[0],
                Msg::Client(ClientMsg::Request { cmd }),
                burst_at,
            );
        }
        sim.crash_at(
            replicas[0],
            SimTime::ZERO + burst_at + SimDuration::from_millis(20),
        );
        sim.restart_at(replicas[0], SimTime::from_millis(1_900));
        let mut durable = Vec::new();
        while sim.now() < SimTime::from_secs(16) {
            sim.run_for(SimDuration::from_micros(250));
            for &r in &replicas {
                let d = &sim.actor::<ReplicaEngine<P>>(r).core.dur;
                let write_began = d.issued.front().map_or(d.synced_seq, |w| w.0 - w.1);
                durable.push((write_began, d.write_seq - write_began, d.stats));
            }
        }
        let replies = writers
            .iter()
            .flat_map(|&w| &sim.actor::<TestClient>(w).replies)
            .map(|(id, reply, at)| (*at, id.client, id.seq, reply.clone()))
            .collect();
        let keys = (1..=WRITERS + 1).flat_map(|w| (0..=64).map(move |i| key(w, i)));
        let applied = replicas
            .iter()
            .map(|&r| {
                let replica = sim.actor::<ReplicaEngine<P>>(r);
                let values = keys.clone().map(|k| replica.kv().read_local(k).value_id());
                (
                    replica.kv().applied_ops(),
                    replica.applied_index(),
                    values.collect(),
                )
            })
            .collect();
        let observed = Observed {
            replies,
            applied,
            durable,
        };
        (observed, sim.stats.events)
    }

    /// One completion per write ≡ one per barrier: the k − 1 events the
    /// reference delivers before a write's last barrier change nothing
    /// anyone can see — not a reply's time or content, not a replica's
    /// state, not the durable watermark at a write boundary, not a
    /// counter — on a run with loss and a crash in the middle of a
    /// 64-barrier write. (A crash rewinds the write sequence to the
    /// watermark, which under the reference may sit part-way into the
    /// write the crash cut short; the runs number their writes apart
    /// from there, so the watermark is compared as of the last completed
    /// write and as barriers pending beyond it — it is the same
    /// watermark.) The reference does run the extra events.
    #[test]
    fn one_completion_per_write_matches_one_per_barrier() {
        fn scenario<P: ProtocolRules>(name: &str, make: fn(ReplicaConfig) -> ReplicaEngine<P>) {
            let (once, events) = differential_run(make, false);
            let (per_barrier, reference_events) = differential_run(make, true);
            assert!(once.replies.len() >= 150, "{name}: the writers got through");
            let multi = once.durable.iter().filter(|d| d.2.last_batch_len == 1);
            assert!(
                once.durable.iter().any(|d| d.1 >= 32) && multi.count() > 0,
                "{name}: multi-entry writes were pending and completed"
            );
            assert_eq!(once.replies, per_barrier.replies, "{name}: replies");
            assert_eq!(once.applied, per_barrier.applied, "{name}: applied state");
            let first_diff = once
                .durable
                .iter()
                .zip(&per_barrier.durable)
                .position(|(a, b)| (a.1, a.2) != (b.1, b.2));
            assert_eq!(first_diff, None, "{name}: pending barriers and counters");
            // Until the crash the writes are numbered alike too.
            let before_crash = 5 * 4 * 1_519;
            let renumbered = once
                .durable
                .iter()
                .zip(&per_barrier.durable)
                .position(|(a, b)| a.0 != b.0);
            assert!(
                reference_events > events,
                "{name}: {reference_events} events per barrier, {events} per write"
            );
            assert!(
                renumbered.is_none_or(|at| at >= before_crash),
                "{name}: watermark at write boundaries differs at sample {renumbered:?}"
            );
        }
        scenario("Raft", RaftReplica::new);
        scenario("Raft*", RaftStarReplica::new);
        scenario("MultiPaxos", MultiPaxosReplica::new);
        scenario("Mencius", MenciusReplica::new);
    }
}
