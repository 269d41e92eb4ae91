//! The discrete-event simulation core.
//!
//! A [`Simulation`] owns a set of [`Actor`]s placed in [`Region`]s, a
//! [`Network`] that charges bandwidth and propagation delay, and a per-node
//! CPU queue that charges service time. Execution is single-threaded and
//! fully deterministic: a run is a pure function of (configuration, seed).
//!
//! # Processing model
//!
//! Each node is a serial server. Incoming deliveries (messages and timer
//! fires) enter a FIFO inbox; the node processes one delivery at a time.
//! A handler declares its service cost via [`Ctx::charge`]; outputs of the
//! handler (sends, timers) take effect at `start + cost`, and the node's
//! CPU is busy until then. This gives M/G/1-style queueing per node, which
//! is what makes "the leader's CPU is the bottleneck" (Figure 9c/10a)
//! reproducible in simulation.
//!
//! # The event queue
//!
//! A real cell keeps thousands of events in flight and its messages are
//! ~100 bytes, so what the heap sifts matters more than anything a
//! handler-free probe can see. The queue (`EventQueue`) is therefore a
//! `BinaryHeap` of 24-byte keys `(at, seq, slot)` over a slab of
//! payloads: a push writes the payload once into a free slab slot and
//! sifts only the key; a pop returns the key and leaves the payload
//! where it is. The slab reuses freed slots through a free list, so it
//! is as long as the peak number of events in flight, never as long as
//! the run.
//!
//! A payload stays in its slot for its whole life. A remote message is
//! three events (`Arrive`, `Arrive` again once the receiver's NIC has
//! taken it in, then the node's `Process` turn): the second is the same
//! slot with its `charged` flag flipped, the inbox holds slot numbers,
//! and a node's `Process` payload never leaves its slot at all — only
//! keys for it come and go. The message is read out exactly once, by the
//! handler, and its size is computed exactly once, at send.
//!
//! # Hops taken in place
//!
//! Those three events are *up to* three trips through the heap, and one
//! when nothing else is due first. The second and third are hops the
//! simulator itself schedules while it handles the one before, and most
//! of the time such a hop would be the very next pop: the receiver's NIC
//! takes in a ~100-byte message in two microseconds, and an idle node's
//! `Process` turn is due the instant a delivery joins its inbox. So when
//! a hop's time `t` is within the limit of the running
//! [`Simulation::run_until`] and nothing queued is due at or before `t`,
//! the hop is not queued at all: the clock moves to `t` and its work
//! runs now. This is exact, not approximate. A key pushed for `t` would
//! carry the newest `seq`, so it pops after every event already queued
//! for `t` or earlier — "strictly later than everything queued" is
//! precisely "pops next, with nothing run in between"; handler order,
//! every tie and every RNG draw are what they were. A hop past the limit
//! is always queued, so `run_until` never runs beyond its limit and what
//! a caller reads between two calls is the state at that time.
//! [`SimStats::events`] counts a hop taken in place like one that
//! travelled the heap: it counts hops, not pops. The always-queue path
//! survives as a `#[cfg(test)]` switch, the reference the differential
//! tests compare against.
//!
//! # Superseded timers
//!
//! A timer set with [`Ctx::rearm_timer`] lives under a key, and each
//! `(actor, key)` has at most one live timer: re-arming supersedes the
//! previous one, which is never delivered. Figure 2's follower resets
//! its election timeout on every append, so that timer is re-armed far
//! more often than it fires, and a fresh fire pushed per reset would
//! send all but one of them through the heap only to be dropped.
//!
//! So the simulator keeps each key's due time and token and queues at
//! most one *check* for it, never later than the due time. A re-arm for
//! a time later than the queued check queues nothing; a check that pops
//! early re-queues itself for the due time; one that pops on time joins
//! the inbox as the timer's fire, and is delivered like any other. A
//! re-arm for the check's time or earlier queues a new check, and the
//! one it orphans pops and is discarded. A fire superseded while it
//! waits in the inbox takes its turn undelivered. A crash clears the
//! actor's keys, and [`Ctx::cancel_timer`] clears one. Code outside a
//! handler re-arms a key with [`Simulation::rearm_timer`].
//!
//! A re-arm takes the `seq` a push would have taken, and the check that
//! pops on time carries it, so the fire takes the place among the events
//! due then that a pushed timer would have had. Against the
//! `#[cfg(test)]` filtered path — every re-arm pushed, everything but
//! the key's latest dropped when it pops — this is exact: handler calls,
//! their times and the RNG stream are identical; [`SimStats::events`],
//! which counts every pop, is lower. It is not exact against an actor
//! that is handed every superseded fire and ignores it. There, such a
//! fire that finds the node idle takes a turn of its own, and a delivery
//! that joins the inbox behind it gets its `Process` turn only after
//! that one, behind whatever else was queued for the same instant
//! meanwhile. Events tied to the nanosecond can then run in another
//! order. The engine's election timer, once such a timer, moved onto
//! [`Ctx::rearm_timer`] with every virtual metric unchanged on the seeds
//! measured: a measurement, not a guarantee.
//!
//! **`seq` order *is* the schedule.** Events at one timestamp pop in the
//! order they were pushed, and `seq` is what says so: one number per
//! push, or per re-arm. Every tie between two deliveries and every RNG
//! draw that follows from one depend on the order of those numbers and
//! on nothing else about the queue, so a change that keeps the relative
//! order of what it does push (a hop taken in place is never pushed, and
//! would have popped before anything pushed after it) leaves every run
//! bit-for-bit what it was. `slot` is in the key only to find the
//! payload; `seq` is unique, so it never decides an order.
//!
//! Handler outputs go to one buffer the simulation owns
//! ([`Ctx::send`] and friends push to it; it is drained when the handler
//! returns), so a handler call allocates nothing of its own.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::disk::{DiskArray, DiskConfig, DiskStats};
use crate::net::{Delivery, NetConfig, Network, Region};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::{FlightRecorder, SpanKind, TraceKind};

/// Identifies an actor within a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(pub usize);

impl ActorId {
    /// Pseudo-sender for messages injected from outside the simulation.
    pub const EXTERNAL: ActorId = ActorId(usize::MAX);
}

/// A message payload carried by the simulated network.
///
/// `size_bytes` drives the NIC bandwidth model; return the approximate
/// wire size of the message body.
pub trait Payload: Clone + std::fmt::Debug + 'static {
    /// Approximate serialized size in bytes.
    fn size_bytes(&self) -> usize;
}

/// A simulated process: a replica, a client, or a controller.
///
/// Handlers run with a [`Ctx`] through which they observe time, send
/// messages, set timers, charge CPU cost and draw randomness.
pub trait Actor<M: Payload>: Any {
    /// Called once when the simulation starts (or the actor restarts).
    fn on_start(&mut self, _ctx: &mut Ctx<M>) {}

    /// Called for every delivered message.
    fn on_message(&mut self, ctx: &mut Ctx<M>, from: ActorId, msg: M);

    /// Called when a timer set via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Ctx<M>, _token: u64) {}

    /// Called when the fault injector crashes this node. Volatile state
    /// should be dropped here; "persisted" state may be retained.
    fn on_crash(&mut self) {}

    /// Upcast for harness-side downcasting.
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast for harness-side downcasting.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Implements the two `as_any` boilerplate methods for an actor type.
#[macro_export]
macro_rules! impl_actor_any {
    () => {
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    };
}

/// Handler-side view of the simulation.
#[derive(Debug)]
pub struct Ctx<'a, M> {
    now: SimTime,
    self_id: ActorId,
    rng: &'a mut SimRng,
    trace: &'a mut FlightRecorder,
    outputs: &'a mut Vec<Output<M>>,
    charge: SimDuration,
    nic_backlog: SimDuration,
    disk_backlog: SimDuration,
}

#[derive(Debug)]
enum Output<M> {
    Send {
        to: ActorId,
        msg: M,
    },
    Timer {
        delay: SimDuration,
        token: u64,
    },
    Rearm {
        key: u64,
        delay: SimDuration,
        token: u64,
    },
    Cancel {
        key: u64,
    },
    DiskWrite {
        bytes: usize,
    },
    Fsync {
        count: u64,
        token: u64,
    },
}

impl<'a, M> Ctx<'a, M> {
    /// Current virtual time (the start of this handler's service).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the actor running this handler.
    pub fn self_id(&self) -> ActorId {
        self.self_id
    }

    /// Queues a message to `to`; it leaves this node's NIC after the
    /// handler's charged cost elapses.
    pub fn send(&mut self, to: ActorId, msg: M) {
        self.outputs.push(Output::Send { to, msg });
    }

    /// Sets a timer that fires `delay` after the handler completes.
    /// The `token` is returned to [`Actor::on_timer`]; actors use it to
    /// ignore stale timers. For a timer that the next one supersedes,
    /// use [`Ctx::rearm_timer`].
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.outputs.push(Output::Timer { delay, token });
    }

    /// Sets this actor's timer under `key` to fire `delay` after the
    /// handler completes, delivering `token` to [`Actor::on_timer`]. It
    /// supersedes the timer `key` had, which is then never delivered; a
    /// crash cancels it (module docs, "Superseded timers").
    pub fn rearm_timer(&mut self, key: u64, delay: SimDuration, token: u64) {
        self.outputs.push(Output::Rearm { key, delay, token });
    }

    /// Cancels this actor's timer under `key`, if it has one: it is
    /// never delivered, as after a crash.
    pub fn cancel_timer(&mut self, key: u64) {
        self.outputs.push(Output::Cancel { key });
    }

    /// Adds CPU service cost to this handler. Costs accumulate if called
    /// multiple times.
    pub fn charge(&mut self, cost: SimDuration) {
        self.charge += cost;
    }

    /// Deterministic randomness for this actor.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// How far this node's egress NIC is backed up at handler start: the
    /// time until a message queued *now* would begin serialization
    /// (`SimDuration::ZERO` when the NIC is idle). Real stacks expose the
    /// same signal as a socket/qdisc backlog; actors use it to decide
    /// whether batching would amortize per-message overhead that an
    /// already-saturated NIC cannot hide.
    pub fn nic_backlog(&self) -> SimDuration {
        self.nic_backlog
    }

    /// Queues a buffered write of `bytes` to this node's disk; it is
    /// issued after the handler's charged cost elapses. The handler does
    /// not wait — durability requires a subsequent [`Ctx::fsync`].
    pub fn disk_write(&mut self, bytes: usize) {
        self.outputs.push(Output::DiskWrite { bytes });
    }

    /// Queues an fsync on this node's disk, issued after the handler's
    /// charged cost elapses. When it completes (all prior disk work plus
    /// the device's fsync latency), `token` is delivered to
    /// [`Actor::on_timer`]. Completions are gated on the crash epoch: a
    /// crash silently cancels in-flight fsyncs.
    pub fn fsync(&mut self, token: u64) {
        self.fsync_serial(1, token);
    }

    /// Queues `count` fsyncs back to back — one write made durable
    /// barrier by barrier — and reports them once: the disk is charged
    /// exactly as `count` calls to [`Ctx::fsync`] charge it (horizon,
    /// [`DiskStats::fsyncs`]), and `token` is delivered when the *last*
    /// barrier completes. A crash before that cancels the completion,
    /// whichever barrier the device had reached.
    pub fn fsync_serial(&mut self, count: u64, token: u64) {
        self.outputs.push(Output::Fsync { count, token });
    }

    /// How far this node's disk is backed up at handler start (`ZERO`
    /// when idle) — the disk-side analogue of [`Ctx::nic_backlog`].
    pub fn disk_backlog(&self) -> SimDuration {
        self.disk_backlog
    }

    /// Records an application-level event in the flight recorder
    /// (command applies, migration phases, …). Observation only: a
    /// single branch when tracing is off, and never perturbs the RNG
    /// schedule when on.
    pub fn trace_app(&mut self, tag: &'static str, a: u64, b: u64) {
        self.trace
            .record(self.now, self.self_id, TraceKind::App { tag, a, b });
    }

    /// Records a causal span event for command `(client, seq)`. Same
    /// observation-only discipline as [`Ctx::trace_app`]: one branch
    /// when spans are off, never a schedule or RNG perturbation when on.
    pub fn trace_span(&mut self, kind: SpanKind, client: u32, seq: u64) {
        self.trace
            .record_span(self.now, self.self_id, kind, client, seq);
    }

    /// Whether the span log is recording — lets instrumentation skip
    /// building correlation ids when nothing would be kept.
    pub fn spans_enabled(&self) -> bool {
        self.trace.spans_enabled()
    }
}

/// A node index or a message's size as an event stores it.
fn narrow(n: usize) -> u32 {
    u32::try_from(n).expect("node indexes and message sizes fit 32 bits")
}

#[derive(Debug)]
enum EvKind<M> {
    /// A message finishes propagation at `dst`. Not yet `charged`, it
    /// still owes receiver-NIC serialization of its `bytes` and is
    /// re-queued for when that completes; `charged`, it joins the inbox.
    /// `dst` and `bytes` are 32-bit so that the envelope around the
    /// largest message stays 24 B: an event up to 136 B moves by inline
    /// stores, a larger one through a `memcpy` call.
    Arrive {
        dst: u32,
        from: ActorId,
        msg: M,
        bytes: u32,
        charged: bool,
    },
    /// A timer matures and joins `dst`'s inbox.
    TimerFire { dst: usize, token: u64, epoch: u64 },
    /// The check for `dst`'s timer under `key`, queued no later than
    /// that timer is due; on time, it joins the inbox as its fire
    /// (module docs, "Superseded timers").
    TimerCheck { dst: usize, key: u64 },
    /// `dst`'s CPU becomes free to process its inbox head.
    Process { dst: usize },
    /// A scheduled fault/control operation.
    Control(Control),
}

#[derive(Debug, Clone)]
enum Control {
    Crash(usize),
    Restart(usize),
    Partition(Vec<u32>),
    Heal,
    DropRate(f64),
}

/// What the heap orders: 24 bytes, whatever the payload (module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EvKey {
    at: SimTime,
    seq: u64,
    slot: usize,
}

/// The event queue: a heap of [`EvKey`]s over a slab of payloads with a
/// free list (module docs, "The event queue").
struct EventQueue<T> {
    seq: u64,
    heap: BinaryHeap<Reverse<EvKey>>,
    slab: Vec<Option<T>>,
    free: Vec<usize>,
}

impl<T> EventQueue<T> {
    fn new() -> Self {
        EventQueue {
            seq: 0,
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Queues `payload` for time `at`, behind everything already queued
    /// for that time.
    fn push(&mut self, at: SimTime, payload: T) {
        let slot = self.insert(payload);
        self.schedule(at, slot);
    }

    /// Puts `payload` in a slab slot without queueing it.
    fn insert(&mut self, payload: T) -> usize {
        match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = Some(payload);
                slot
            }
            None => {
                self.slab.push(Some(payload));
                self.slab.len() - 1
            }
        }
    }

    /// Queues a key for the payload in `slot` at time `at`, under a fresh
    /// `seq` — exactly as a push of that payload would.
    fn schedule(&mut self, at: SimTime, slot: usize) {
        let seq = self.next_seq();
        self.schedule_at(at, seq, slot);
    }

    /// Takes the `seq` a push made now would take.
    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Queues a key for the payload in `slot` at time `at` under `seq`,
    /// taken earlier from [`EventQueue::next_seq`] and used by no other
    /// queued key.
    fn schedule_at(&mut self, at: SimTime, seq: u64, slot: usize) {
        self.heap.push(Reverse(EvKey { at, seq, slot }));
    }

    /// Pops the head event if it is due at or before `limit`: its time
    /// and its slot, whose payload stays put until [`EventQueue::take`].
    fn pop_due(&mut self, limit: SimTime) -> Option<(SimTime, usize)> {
        if self.heap.peek()?.0.at > limit {
            return None;
        }
        let Reverse(key) = self.heap.pop()?;
        Some((key.at, key.slot))
    }

    /// Whether a key pushed now for time `at` would be the very next
    /// pop: nothing queued is due at or before `at` (an event queued for
    /// `at` itself has the older `seq` and pops first).
    fn would_pop_next(&self, at: SimTime) -> bool {
        self.heap.peek().is_none_or(|head| head.0.at > at)
    }

    fn payload_mut(&mut self, slot: usize) -> &mut T {
        self.slab[slot].as_mut().expect("slot holds a payload")
    }

    /// Reads the payload out and frees its slot.
    fn take(&mut self, slot: usize) -> T {
        let payload = self.slab[slot].take().expect("slot holds a payload");
        self.free.push(slot);
        payload
    }

    /// Payloads currently held (queued, or waiting in an inbox).
    #[cfg(test)]
    fn live(&self) -> usize {
        self.slab.len() - self.free.len()
    }
}

/// One actor's live timer under one key (module docs, "Superseded
/// timers").
#[derive(Debug)]
struct KeyedTimer {
    dst: usize,
    key: u64,
    token: u64,
    /// When it is due, and the `seq` its re-arm took: its place among
    /// the events due then.
    due: SimTime,
    seq: u64,
    carrier: Carrier,
}

/// What carries a key's live timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Carrier {
    /// Nothing: it was delivered, or a crash cleared it.
    Idle,
    /// A check in `slot`, queued for `at`, no later than the due time.
    Queued { slot: usize, at: SimTime },
    /// Its fire in `slot`, waiting in the inbox.
    Inbox { slot: usize },
}

/// The keyed timers of the actors that arm one, sorted by `(dst, key)`:
/// an actor that never does has no entry.
#[derive(Debug, Default)]
struct KeyedTimers(Vec<KeyedTimer>);

impl KeyedTimers {
    fn find(&self, dst: usize, key: u64) -> Result<usize, usize> {
        self.0.binary_search_by_key(&(dst, key), |t| (t.dst, t.key))
    }

    /// The timer under `(dst, key)`, with no carrier the first time.
    fn entry(&mut self, dst: usize, key: u64) -> &mut KeyedTimer {
        let i = self.find(dst, key).unwrap_or_else(|i| {
            let timer = KeyedTimer {
                dst,
                key,
                token: 0,
                due: SimTime::ZERO,
                seq: 0,
                carrier: Carrier::Idle,
            };
            self.0.insert(i, timer);
            i
        });
        &mut self.0[i]
    }

    /// The timer under `(dst, key)`, if `carrier` is what carries it.
    fn carried_by(&mut self, dst: usize, key: u64, carrier: Carrier) -> Option<&mut KeyedTimer> {
        let i = self.find(dst, key).ok()?;
        Some(&mut self.0[i]).filter(|t| t.carrier == carrier)
    }

    /// When `dst`'s timer under `key` is due, while it is live.
    fn due(&self, dst: usize, key: u64) -> Option<SimTime> {
        let i = self.find(dst, key).ok()?;
        let t = &self.0[i];
        (t.carrier != Carrier::Idle).then_some(t.due)
    }

    /// `dst`'s timer under `key`, if it has one, is cancelled: whatever
    /// carries it is discarded when it pops or takes its turn.
    fn cancel(&mut self, dst: usize, key: u64) {
        if let Ok(i) = self.find(dst, key) {
            self.0[i].carrier = Carrier::Idle;
        }
    }

    /// A crash: every timer `dst` has is cancelled.
    fn clear(&mut self, dst: usize) {
        for t in self.0.iter_mut().filter(|t| t.dst == dst) {
            t.carrier = Carrier::Idle;
        }
    }
}

/// Counters exposed for tests and reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Total events handled: every hop of every delivery, whether it
    /// travelled the queue or was taken in place, and every pop of a
    /// timer check, early, orphaned or on time (module docs).
    pub events: u64,
    /// Messages handed to actor handlers.
    pub deliveries: u64,
    /// Timer fires handed to actor handlers.
    pub timer_fires: u64,
    /// Messages lost to crash/partition/drop faults.
    pub lost: u64,
}

/// The deterministic discrete-event simulator.
pub struct Simulation<M: Payload> {
    now: SimTime,
    queue: EventQueue<EvKind<M>>,
    /// The one handler-output buffer: lent to each [`Ctx`], drained and
    /// kept (with its capacity) when the handler returns.
    outputs: Vec<Output<M>>,
    actors: Vec<Box<dyn Actor<M>>>,
    regions: Vec<Region>,
    net: Network,
    rng: SimRng,
    crashed: Vec<bool>,
    cpu_free: Vec<SimTime>,
    /// Per node, the queue slots of its pending deliveries (`Arrive` and
    /// `TimerFire` payloads), in arrival order.
    inbox: Vec<VecDeque<usize>>,
    /// Per node, the slot of its `Process` payload. At most one is ever
    /// pending per node, so the payload is written once, when the actor
    /// is added, and each scheduling only queues a key for it.
    process_slot: Vec<usize>,
    process_scheduled: Vec<bool>,
    timer_epoch: Vec<u64>,
    keyed: KeyedTimers,
    started: bool,
    trace: FlightRecorder,
    disks: DiskArray,
    disk_of: Vec<usize>,
    /// Tests: send every hop through the queue — the reference path the
    /// in-place hops are compared against.
    #[cfg(test)]
    always_queue: bool,
    /// Tests: queue a check for every re-arm, so a superseded timer is
    /// dropped when it pops — the reference path superseding is compared
    /// against.
    #[cfg(test)]
    filter_timers: bool,
    /// Event/delivery counters.
    pub stats: SimStats,
}

impl<M: Payload> Simulation<M> {
    /// Creates an empty simulation with the given network and seed.
    pub fn new(config: NetConfig, seed: u64) -> Self {
        Simulation {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            outputs: Vec::new(),
            actors: Vec::new(),
            regions: Vec::new(),
            net: Network::new(config, Vec::new()),
            rng: SimRng::new(seed),
            crashed: Vec::new(),
            cpu_free: Vec::new(),
            inbox: Vec::new(),
            process_slot: Vec::new(),
            process_scheduled: Vec::new(),
            timer_epoch: Vec::new(),
            keyed: KeyedTimers::default(),
            started: false,
            trace: FlightRecorder::disabled(),
            disks: DiskArray::new(DiskConfig::default()),
            disk_of: Vec::new(),
            #[cfg(test)]
            always_queue: false,
            #[cfg(test)]
            filter_timers: false,
            stats: SimStats::default(),
        }
    }

    /// Sets the shared disk parameters. The default is the zero-cost
    /// disk, under which writes and fsyncs charge no virtual time and
    /// the event schedule is bit-for-bit identical to a simulation with
    /// no disk model at all.
    pub fn set_disk_config(&mut self, config: DiskConfig) {
        self.disks.set_config(config);
    }

    /// Overrides the disk parameters of `actor`'s device alone — models
    /// a slow-disk straggler in an otherwise uniform cluster. Affects
    /// every actor mapped to the same disk id.
    pub fn set_disk_config_for(&mut self, actor: ActorId, config: DiskConfig) {
        let d = self.disk_of[actor.0];
        self.disks.set_config_for(d, config);
    }

    /// Maps `actor` onto disk id `disk`. The default mapping gives every
    /// actor its own disk (id = actor id); mapping several actors to one
    /// disk models co-location on a shared device, whose FIFO horizon
    /// fair-shares their writes and fsyncs.
    pub fn map_disk(&mut self, actor: ActorId, disk: usize) {
        self.disk_of[actor.0] = disk;
        self.disks.ensure(disk);
    }

    /// How far `actor`'s disk is backed up at the current virtual time.
    pub fn disk_backlog_at(&self, actor: ActorId) -> SimDuration {
        self.disks.backlog(self.now, self.disk_of[actor.0])
    }

    /// Cumulative counters of `actor`'s disk (shared with any co-located
    /// actors mapped to the same device).
    pub fn disk_stats_at(&self, actor: ActorId) -> DiskStats {
        self.disks.stats(self.disk_of[actor.0])
    }

    /// Turns on the flight recorder, keeping the last `capacity`
    /// events. Tracing is pure observation — enabling it never changes
    /// the event schedule or the RNG stream.
    pub fn enable_trace(&mut self, capacity: usize) {
        let mut r = FlightRecorder::with_capacity(capacity);
        if self.trace.spans_enabled() {
            r.enable_spans();
        }
        self.trace = r;
    }

    /// Turns on the causal span log (independent of the ring capacity;
    /// works with or without [`Simulation::enable_trace`]). Spans obey
    /// the same observation-only discipline as the event ring.
    pub fn enable_spans(&mut self) {
        self.trace.enable_spans();
    }

    /// The flight recorder (disabled unless
    /// [`Simulation::enable_trace`] was called).
    pub fn trace(&self) -> &FlightRecorder {
        &self.trace
    }

    /// Adds an actor in `region`, returning its id. Actors added after
    /// [`Simulation::start`] are started immediately.
    pub fn add_actor(&mut self, region: Region, actor: Box<dyn Actor<M>>) -> ActorId {
        let id = ActorId(self.actors.len());
        self.actors.push(actor);
        self.regions.push(region);
        self.crashed.push(false);
        self.cpu_free.push(self.now);
        self.inbox.push(VecDeque::new());
        self.process_scheduled.push(false);
        self.timer_epoch.push(0);
        self.disk_of.push(id.0);
        self.process_slot
            .push(self.queue.insert(EvKind::Process { dst: id.0 }));
        if self.started {
            self.net.add_node(region);
            self.run_handler(id.0, |actor, ctx| actor.on_start(ctx));
        }
        id
    }

    /// Number of actors.
    pub fn len(&self) -> usize {
        self.actors.len()
    }

    /// True when no actors have been added.
    pub fn is_empty(&self) -> bool {
        self.actors.is_empty()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The region a node lives in.
    pub fn region_of(&self, id: ActorId) -> Region {
        self.regions[id.0]
    }

    /// Immutable access to an actor, downcast to its concrete type.
    pub fn actor<A: Actor<M>>(&self, id: ActorId) -> &A {
        self.actors[id.0]
            .as_any()
            .downcast_ref::<A>()
            .expect("actor type mismatch")
    }

    /// Mutable access to an actor, downcast to its concrete type.
    pub fn actor_mut<A: Actor<M>>(&mut self, id: ActorId) -> &mut A {
        self.actors[id.0]
            .as_any_mut()
            .downcast_mut::<A>()
            .expect("actor type mismatch")
    }

    /// The network (partition/drop state, byte counters).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Calls every actor's `on_start`. Idempotent.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        // Rebuild network with final region placement.
        self.net = Network::new(self.net.config().clone(), self.regions.clone());
        self.started = true;
        for i in 0..self.actors.len() {
            self.run_handler(i, |actor, ctx| actor.on_start(ctx));
        }
    }

    /// Injects a message from [`ActorId::EXTERNAL`] arriving after `delay`
    /// (no NIC charges apply to external injections).
    pub fn send_external(&mut self, to: ActorId, msg: M, delay: SimDuration) {
        let at = self.now + delay;
        self.queue.push(
            at,
            EvKind::Arrive {
                dst: narrow(to.0),
                from: ActorId::EXTERNAL,
                msg,
                bytes: 0,
                charged: true,
            },
        );
    }

    /// Schedules a crash of `node` at absolute time `at`.
    pub fn crash_at(&mut self, node: ActorId, at: SimTime) {
        self.queue.push(at, EvKind::Control(Control::Crash(node.0)));
    }

    /// Schedules a restart of `node` at absolute time `at`.
    pub fn restart_at(&mut self, node: ActorId, at: SimTime) {
        self.queue
            .push(at, EvKind::Control(Control::Restart(node.0)));
    }

    /// Schedules a network partition (group ids per node) at time `at`.
    pub fn partition_at(&mut self, groups: Vec<u32>, at: SimTime) {
        self.queue
            .push(at, EvKind::Control(Control::Partition(groups)));
    }

    /// Schedules healing of any partition at time `at`.
    pub fn heal_at(&mut self, at: SimTime) {
        self.queue.push(at, EvKind::Control(Control::Heal));
    }

    /// Schedules a change of the uniform drop rate at time `at`.
    pub fn set_drop_rate_at(&mut self, p: f64, at: SimTime) {
        self.queue.push(at, EvKind::Control(Control::DropRate(p)));
    }

    /// Whether `node` is currently crashed.
    pub fn is_crashed(&self, node: ActorId) -> bool {
        self.crashed[node.0]
    }

    /// Sets `actor`'s timer under `key` to fire `delay` from now,
    /// delivering `token`: [`Ctx::rearm_timer`] for a caller outside a
    /// handler, such as a harness that hands an actor work between two
    /// steps. A crashed actor is left alone; its crash cancelled its
    /// timers.
    pub fn rearm_timer(&mut self, actor: ActorId, key: u64, delay: SimDuration, token: u64) {
        if !self.crashed[actor.0] {
            self.rearm(actor.0, key, self.now + delay, token);
        }
    }

    /// When `actor`'s timer under `key` ([`Ctx::rearm_timer`]) is due,
    /// if it has one that is neither delivered nor cancelled.
    pub fn timer_due(&self, actor: ActorId, key: u64) -> Option<SimTime> {
        self.keyed.due(actor.0, key)
    }

    /// Runs one handler on node `i` with a fresh context, then applies its
    /// outputs (sends and timers) at `start + charge` and advances the
    /// node's CPU horizon. The output buffer is empty on entry and on
    /// return.
    fn run_handler(&mut self, i: usize, f: impl FnOnce(&mut dyn Actor<M>, &mut Ctx<M>)) {
        let start = self.now.max(self.cpu_free[i]);
        let nic_free = self.net.nic_free_at(i);
        let mut ctx = Ctx {
            now: start,
            self_id: ActorId(i),
            rng: &mut self.rng,
            trace: &mut self.trace,
            outputs: &mut self.outputs,
            charge: SimDuration::ZERO,
            nic_backlog: if nic_free > start {
                nic_free - start
            } else {
                SimDuration::ZERO
            },
            disk_backlog: self.disks.backlog(start, self.disk_of[i]),
        };
        f(self.actors[i].as_mut(), &mut ctx);
        let done = start + ctx.charge;
        self.cpu_free[i] = self.cpu_free[i].max(done);
        let mut outputs = std::mem::take(&mut self.outputs);
        for out in outputs.drain(..) {
            match out {
                Output::Send { to, msg } => {
                    if to == ActorId::EXTERNAL {
                        continue;
                    }
                    let bytes = msg.size_bytes();
                    match self.net.send(done, i, to.0, bytes, &mut self.rng) {
                        Delivery::ArriveAt(at) => {
                            self.trace.record(
                                done,
                                ActorId(i),
                                TraceKind::Send {
                                    to,
                                    bytes,
                                    dropped: false,
                                },
                            );
                            // Loopback sends skip the NIC entirely.
                            let charged = i == to.0;
                            self.queue.push(
                                at,
                                EvKind::Arrive {
                                    dst: narrow(to.0),
                                    from: ActorId(i),
                                    msg,
                                    bytes: narrow(bytes),
                                    charged,
                                },
                            );
                        }
                        Delivery::Dropped => {
                            self.trace.record(
                                done,
                                ActorId(i),
                                TraceKind::Send {
                                    to,
                                    bytes,
                                    dropped: true,
                                },
                            );
                            self.stats.lost += 1;
                        }
                    }
                }
                Output::Timer { delay, token } => {
                    let epoch = self.timer_epoch[i];
                    self.queue.push(
                        done + delay,
                        EvKind::TimerFire {
                            dst: i,
                            token,
                            epoch,
                        },
                    );
                }
                Output::Rearm { key, delay, token } => self.rearm(i, key, done + delay, token),
                Output::Cancel { key } => self.keyed.cancel(i, key),
                Output::DiskWrite { bytes } => {
                    self.disks.write(done, self.disk_of[i], bytes);
                }
                Output::Fsync { count, token } => {
                    // The completion rides the timer path so it is traced,
                    // FIFO-ordered through the inbox, and epoch-gated: a
                    // crash between issue and completion cancels it, which
                    // is exactly "the fsync never happened" semantics.
                    let at = self.disks.fsync_serial(done, self.disk_of[i], count);
                    let epoch = self.timer_epoch[i];
                    self.queue.push(
                        at,
                        EvKind::TimerFire {
                            dst: i,
                            token,
                            epoch,
                        },
                    );
                }
            }
        }
        self.outputs = outputs;
    }

    /// Sets `dst`'s timer under `key` for `due`, superseding the one it
    /// had (module docs, "Superseded timers"): a check already queued for
    /// before `due` will find it; otherwise one is queued for `due`,
    /// under the `seq` the re-arm took. (A check queued for `due` itself
    /// carries an older `seq`, so it would pop too soon among the events
    /// due then.)
    fn rearm(&mut self, dst: usize, key: u64, due: SimTime, token: u64) {
        let seq = self.queue.next_seq();
        let timer = self.keyed.entry(dst, key);
        (timer.token, timer.due, timer.seq) = (token, due, seq);
        let covered = matches!(timer.carrier, Carrier::Queued { at, .. } if at < due);
        #[cfg(test)]
        let covered = covered && !self.filter_timers;
        if !covered {
            let slot = self.queue.insert(EvKind::TimerCheck { dst, key });
            self.queue.schedule_at(due, seq, slot);
            timer.carrier = Carrier::Queued { slot, at: due };
        }
    }

    /// Takes a hop to time `at` in place if it would be the very next pop
    /// and lies within `limit` (module docs, "Hops taken in place"): the
    /// clock moves, the hop is counted, and the caller does its work now.
    /// Otherwise returns `false` and the caller queues it.
    fn hop_in_place(&mut self, at: SimTime, limit: SimTime) -> bool {
        #[cfg(test)]
        if self.always_queue {
            return false;
        }
        let next = at <= limit && self.queue.would_pop_next(at);
        if next {
            self.now = at;
            self.stats.events += 1;
        }
        next
    }

    /// Ensures node `i` gets a `Process` turn for a non-empty inbox:
    /// queues one, or returns `Some(i)` when the turn is taken in place —
    /// the caller then runs [`Simulation::process_next`] at once.
    fn schedule_process(&mut self, i: usize, limit: SimTime) -> Option<usize> {
        if self.process_scheduled[i] || self.inbox[i].is_empty() {
            return None;
        }
        let at = self.now.max(self.cpu_free[i]);
        if self.hop_in_place(at, limit) {
            return Some(i);
        }
        self.process_scheduled[i] = true;
        self.queue.schedule(at, self.process_slot[i]);
        None
    }

    /// Handles the next queued event due at or before `limit`, and every
    /// hop that follows from it in place. Returns `false` when the queue
    /// has no such event.
    fn step_until(&mut self, limit: SimTime) -> bool {
        let Some((at, slot)) = self.queue.pop_due(limit) else {
            return false;
        };
        self.now = at;
        self.stats.events += 1;
        // A delivery keeps its slot until a handler (or a crash) takes it.
        let mut turn = match self.queue.payload_mut(slot) {
            EvKind::Arrive {
                dst,
                bytes,
                charged,
                ..
            } => {
                let dst = *dst as usize;
                if self.crashed[dst] {
                    self.stats.lost += 1;
                    self.queue.take(slot);
                    None
                } else if !*charged {
                    // Charge receiver-side NIC serialization in arrival
                    // order, then re-deliver when fully received.
                    *charged = true;
                    let at = self.net.rx_admit(at, dst, *bytes as usize);
                    if self.hop_in_place(at, limit) {
                        self.admit(dst, slot, limit)
                    } else {
                        self.queue.schedule(at, slot);
                        None
                    }
                } else {
                    self.admit(dst, slot, limit)
                }
            }
            EvKind::TimerFire { dst, epoch, .. } => {
                let dst = *dst;
                if !self.crashed[dst] && *epoch == self.timer_epoch[dst] {
                    self.admit(dst, slot, limit)
                } else {
                    self.queue.take(slot);
                    None
                }
            }
            EvKind::TimerCheck { dst, key } => {
                let dst = *dst;
                let check = Carrier::Queued { slot, at };
                match self.keyed.carried_by(dst, *key, check) {
                    Some(timer) if at < timer.due => {
                        timer.carrier = Carrier::Queued {
                            slot,
                            at: timer.due,
                        };
                        self.queue.schedule_at(timer.due, timer.seq, slot);
                        None
                    }
                    Some(timer) => {
                        timer.carrier = Carrier::Inbox { slot };
                        self.admit(dst, slot, limit)
                    }
                    None => {
                        self.queue.take(slot);
                        None
                    }
                }
            }
            EvKind::Process { dst } => Some(*dst),
            EvKind::Control(_) => {
                if let EvKind::Control(op) = self.queue.take(slot) {
                    self.apply_control(op);
                }
                None
            }
        };
        // A busy node's turns follow each other with nothing else due in
        // between — thousands deep on a saturated inbox, hence a loop.
        while let Some(dst) = turn {
            turn = self.process_next(dst, limit);
        }
        true
    }

    /// The delivery in `slot` joins `dst`'s inbox.
    fn admit(&mut self, dst: usize, slot: usize, limit: SimTime) -> Option<usize> {
        self.inbox[dst].push_back(slot);
        self.schedule_process(dst, limit)
    }

    /// Node `dst`'s CPU is free: hands the head of its inbox to the actor.
    /// The inbox of a crashed node is empty (the crash dropped it, and
    /// nothing is admitted while it is down). Returns the node whose turn
    /// follows in place, if one does.
    fn process_next(&mut self, dst: usize, limit: SimTime) -> Option<usize> {
        self.process_scheduled[dst] = false;
        let slot = self.inbox[dst].pop_front()?;
        match self.queue.take(slot) {
            EvKind::Arrive { from, msg, .. } => {
                self.stats.deliveries += 1;
                self.trace
                    .record(self.now, ActorId(dst), TraceKind::Recv { from });
                self.run_handler(dst, |a, ctx| a.on_message(ctx, from, msg));
            }
            EvKind::TimerFire { token, epoch, .. } => {
                if epoch == self.timer_epoch[dst] {
                    self.fire(dst, token);
                }
            }
            EvKind::TimerCheck { key, .. } => {
                let fire = Carrier::Inbox { slot };
                if let Some(timer) = self.keyed.carried_by(dst, key, fire) {
                    timer.carrier = Carrier::Idle;
                    let token = timer.token;
                    self.fire(dst, token);
                }
            }
            EvKind::Process { .. } | EvKind::Control(_) => {
                unreachable!("only deliveries join an inbox")
            }
        }
        self.schedule_process(dst, limit)
    }

    /// Hands a timer's `token` to node `dst`'s actor.
    fn fire(&mut self, dst: usize, token: u64) {
        self.stats.timer_fires += 1;
        self.trace
            .record(self.now, ActorId(dst), TraceKind::TimerFire { token });
        self.run_handler(dst, |a, ctx| a.on_timer(ctx, token));
    }

    fn apply_control(&mut self, op: Control) {
        match op {
            Control::Crash(i) => {
                if !self.crashed[i] {
                    self.crashed[i] = true;
                    self.timer_epoch[i] += 1;
                    self.keyed.clear(i);
                    self.stats.lost += self.inbox[i].len() as u64;
                    for slot in self.inbox[i].drain(..) {
                        self.queue.take(slot);
                    }
                    self.trace.record(self.now, ActorId(i), TraceKind::Crash);
                    self.actors[i].on_crash();
                }
            }
            Control::Restart(i) => {
                if self.crashed[i] {
                    self.crashed[i] = false;
                    self.cpu_free[i] = self.now;
                    self.trace.record(self.now, ActorId(i), TraceKind::Restart);
                    self.run_handler(i, |a, ctx| a.on_start(ctx));
                }
            }
            Control::Partition(groups) => self.net.set_partition(groups),
            Control::Heal => self.net.heal_partition(),
            Control::DropRate(p) => self.net.set_drop_rate(p),
        }
    }

    /// Runs the simulation until virtual time `t` (processing all events at
    /// or before `t`), then sets the clock to `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.start();
        while self.step_until(t) {}
        self.now = self.now.max(t);
    }

    /// Runs the simulation for `d` beyond the current clock.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.now + d;
        self.run_until(t);
    }

    /// Runs until the event queue drains or `limit` is reached. Returns the
    /// final virtual time.
    pub fn run_to_quiescence(&mut self, limit: SimTime) -> SimTime {
        self.start();
        while self.step_until(limit) {}
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    #[derive(Debug, Clone)]
    struct Ping(u32);
    impl Payload for Ping {
        fn size_bytes(&self) -> usize {
            8
        }
    }

    /// Echoes every message back `hops` times, charging `cost` per handle.
    struct Echo {
        received: Vec<(ActorId, u32, SimTime)>,
        cost_us: u64,
        reply: bool,
        timer_fired: Vec<u64>,
    }
    impl Echo {
        fn new(cost_us: u64, reply: bool) -> Self {
            Echo {
                received: Vec::new(),
                cost_us,
                reply,
                timer_fired: Vec::new(),
            }
        }
    }
    impl Actor<Ping> for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<Ping>, from: ActorId, msg: Ping) {
            ctx.charge(SimDuration::from_micros(self.cost_us));
            self.received.push((from, msg.0, ctx.now()));
            if self.reply && from != ActorId::EXTERNAL {
                ctx.send(from, Ping(msg.0 + 1));
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<Ping>, token: u64) {
            self.timer_fired.push(token);
            let _ = ctx;
        }
        impl_actor_any!();
    }

    fn two_node_sim() -> (Simulation<Ping>, ActorId, ActorId) {
        let cfg = NetConfig {
            jitter: 0.0,
            ..NetConfig::default()
        };
        let mut sim = Simulation::new(cfg, 1);
        let a = sim.add_actor(Region::Oregon, Box::new(Echo::new(0, false)));
        let b = sim.add_actor(Region::Ohio, Box::new(Echo::new(0, true)));
        (sim, a, b)
    }

    #[test]
    fn message_arrives_after_one_way_latency() {
        let (mut sim, _a, b) = two_node_sim();
        sim.start();
        sim.send_external(b, Ping(7), SimDuration::ZERO);
        sim.run_until(SimTime::from_millis(100));
        let echo: &Echo = sim.actor(b);
        assert_eq!(echo.received.len(), 1);
        assert_eq!(echo.received[0].1, 7);
        // external delivery is immediate (no NIC hop)
        assert_eq!(echo.received[0].2, SimTime::ZERO);
    }

    #[test]
    fn round_trip_takes_rtt() {
        let (mut sim, a, b) = two_node_sim();
        sim.start();
        // a sends to b, b replies. Oregon<->Ohio RTT is 52ms.
        sim.send_external(a, Ping(0), SimDuration::ZERO);
        // a's Echo doesn't reply to EXTERNAL; manually fire a send via actor access.
        // Instead drive: external -> b, b replies to... EXTERNAL is skipped.
        // Use a -> b by injecting into a a message from... simpler: craft flow:
        let _ = (a, b);
    }

    #[test]
    fn reply_latency_matches_one_way() {
        let cfg = NetConfig {
            jitter: 0.0,
            ..NetConfig::default()
        };
        let mut sim = Simulation::new(cfg, 1);
        let a = sim.add_actor(Region::Oregon, Box::new(Echo::new(0, true)));
        let b = sim.add_actor(Region::Ohio, Box::new(Echo::new(0, true)));
        sim.start();
        sim.send_external(a, Ping(0), SimDuration::ZERO);
        // a replies... to EXTERNAL? no: from==EXTERNAL so no reply. Seed flow b->a:
        sim.send_external(b, Ping(100), SimDuration::ZERO);
        sim.run_until(SimTime::from_millis(500));
        // b received external at t=0; no reply (external). Nothing flows a<->b yet.
        let ea: &Echo = sim.actor(a);
        let eb: &Echo = sim.actor(b);
        assert_eq!(ea.received.len(), 1);
        assert_eq!(eb.received.len(), 1);
    }

    /// A starter actor that sends one ping to a peer on start.
    struct Starter {
        peer: ActorId,
        got: Vec<(u32, SimTime)>,
    }
    impl Actor<Ping> for Starter {
        fn on_start(&mut self, ctx: &mut Ctx<Ping>) {
            ctx.send(self.peer, Ping(1));
        }
        fn on_message(&mut self, ctx: &mut Ctx<Ping>, _from: ActorId, msg: Ping) {
            self.got.push((msg.0, ctx.now()));
        }
        impl_actor_any!();
    }

    #[test]
    fn ping_pong_round_trip_time() {
        let cfg = NetConfig {
            jitter: 0.0,
            overhead_bytes: 0,
            ..NetConfig::default()
        };
        let mut sim = Simulation::new(cfg, 1);
        let b_id = ActorId(1);
        let a = sim.add_actor(
            Region::Oregon,
            Box::new(Starter {
                peer: b_id,
                got: Vec::new(),
            }),
        );
        let b = sim.add_actor(Region::Ohio, Box::new(Echo::new(0, true)));
        sim.start();
        sim.run_until(SimTime::from_millis(200));
        let sa: &Starter = sim.actor(a);
        assert_eq!(sa.got.len(), 1, "reply should come back");
        let rtt = sa.got[0].1;
        // 52ms RTT plus 2 tiny tx times for 8-byte messages.
        assert!(
            (rtt.as_millis_f64() - 52.0).abs() < 0.1,
            "rtt was {}",
            rtt.as_millis_f64()
        );
        let _ = b;
    }

    #[test]
    fn cpu_charge_serializes_processing() {
        // Two messages arriving together at a node with 10ms service time
        // finish 10ms apart; replies reflect that.
        let cfg = NetConfig {
            jitter: 0.0,
            ..NetConfig::default()
        };
        let mut sim = Simulation::new(cfg, 1);
        let n = sim.add_actor(Region::Oregon, Box::new(Echo::new(10_000, false)));
        sim.start();
        sim.send_external(n, Ping(1), SimDuration::ZERO);
        sim.send_external(n, Ping(2), SimDuration::ZERO);
        sim.run_until(SimTime::from_millis(100));
        let e: &Echo = sim.actor(n);
        assert_eq!(e.received.len(), 2);
        let dt = e.received[1].2 - e.received[0].2;
        assert_eq!(dt, SimDuration::from_millis(10));
    }

    #[test]
    fn timers_fire_and_respect_crash_epoch() {
        struct TimerActor {
            fired: Vec<(u64, SimTime)>,
        }
        impl Actor<Ping> for TimerActor {
            fn on_start(&mut self, ctx: &mut Ctx<Ping>) {
                ctx.set_timer(SimDuration::from_millis(10), 1);
                ctx.set_timer(SimDuration::from_millis(50), 2);
            }
            fn on_message(&mut self, _ctx: &mut Ctx<Ping>, _f: ActorId, _m: Ping) {}
            fn on_timer(&mut self, ctx: &mut Ctx<Ping>, token: u64) {
                self.fired.push((token, ctx.now()));
            }
            impl_actor_any!();
        }
        let cfg = NetConfig {
            jitter: 0.0,
            ..NetConfig::default()
        };
        let mut sim = Simulation::new(cfg, 1);
        let n = sim.add_actor(Region::Oregon, Box::new(TimerActor { fired: Vec::new() }));
        // Crash between the two timers; only the first should fire, and the
        // restart's on_start re-arms both.
        sim.crash_at(n, SimTime::from_millis(20));
        sim.restart_at(n, SimTime::from_millis(30));
        sim.run_until(SimTime::from_millis(200));
        let t: &TimerActor = sim.actor(n);
        let tokens: Vec<u64> = t.fired.iter().map(|f| f.0).collect();
        // t=10: token 1 fires. t=50 fire is stale (epoch bumped).
        // After restart at t=30: timers re-armed -> fire at 40 and 80.
        assert_eq!(tokens, vec![1, 1, 2]);
    }

    #[test]
    fn crashed_node_loses_messages() {
        let (mut sim, _a, b) = two_node_sim();
        sim.start();
        sim.crash_at(b, SimTime::from_millis(1));
        sim.send_external(b, Ping(1), SimDuration::from_millis(5));
        sim.run_until(SimTime::from_millis(50));
        let e: &Echo = sim.actor(b);
        assert!(e.received.is_empty());
        assert_eq!(sim.stats.lost, 1);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let cfg = NetConfig::default();
            let mut sim = Simulation::new(cfg, seed);
            let b_id = ActorId(1);
            let _a = sim.add_actor(
                Region::Oregon,
                Box::new(Starter {
                    peer: b_id,
                    got: Vec::new(),
                }),
            );
            let b = sim.add_actor(Region::Seoul, Box::new(Echo::new(5, true)));
            sim.start();
            sim.run_until(SimTime::from_secs(1));
            let e: &Echo = sim.actor(b);
            e.received
                .iter()
                .map(|r| r.2.as_nanos())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(99), run(99));
        // Jitter makes different seeds differ.
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn tracing_never_perturbs_the_schedule() {
        // Jittered network so the RNG stream matters; the traced run
        // must follow the identical schedule.
        let run = |trace: bool| {
            let mut sim = Simulation::new(NetConfig::default(), 99);
            if trace {
                sim.enable_trace(64);
            }
            let b_id = ActorId(1);
            let _a = sim.add_actor(
                Region::Oregon,
                Box::new(Starter {
                    peer: b_id,
                    got: Vec::new(),
                }),
            );
            let b = sim.add_actor(Region::Seoul, Box::new(Echo::new(5, true)));
            sim.crash_at(b, SimTime::from_millis(400));
            sim.restart_at(b, SimTime::from_millis(500));
            sim.run_until(SimTime::from_secs(1));
            let e: &Echo = sim.actor(b);
            let times: Vec<u64> = e.received.iter().map(|r| r.2.as_nanos()).collect();
            (times, sim.stats.events, sim.trace().recorded())
        };
        let (plain, plain_events, plain_recorded) = run(false);
        let (traced, traced_events, traced_recorded) = run(true);
        assert_eq!(plain, traced, "delivery schedule identical");
        assert_eq!(plain_events, traced_events, "event count identical");
        assert_eq!(plain_recorded, 0);
        assert!(traced_recorded > 0, "the traced run did record events");
    }

    /// Echoes like [`Echo`], but calls `trace_span` on every delivery —
    /// unconditionally, the way instrumented protocol code does: span
    /// recording itself is the no-op when disabled.
    struct SpanEmitter {
        received: Vec<(u32, SimTime)>,
    }
    impl Actor<Ping> for SpanEmitter {
        fn on_message(&mut self, ctx: &mut Ctx<Ping>, from: ActorId, msg: Ping) {
            ctx.trace_span(SpanKind::Commit, 1, u64::from(msg.0));
            self.received.push((msg.0, ctx.now()));
            if from != ActorId::EXTERNAL {
                ctx.send(from, Ping(msg.0 + 1));
            }
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<Ping>, _token: u64) {}
        impl_actor_any!();
    }

    #[test]
    fn span_recording_never_perturbs_the_schedule() {
        // Same claim as the flight-recorder parity test, for the span
        // log: enabling spans changes nothing about the run. Jittered
        // network plus a crash/restart so both the RNG stream and the
        // epoch machinery are in play.
        let run = |spans: bool| {
            let mut sim = Simulation::new(NetConfig::default(), 99);
            if spans {
                sim.enable_spans();
            }
            let b_id = ActorId(1);
            let _a = sim.add_actor(
                Region::Oregon,
                Box::new(Starter {
                    peer: b_id,
                    got: Vec::new(),
                }),
            );
            let b = sim.add_actor(
                Region::Seoul,
                Box::new(SpanEmitter {
                    received: Vec::new(),
                }),
            );
            sim.crash_at(b, SimTime::from_millis(400));
            sim.restart_at(b, SimTime::from_millis(500));
            sim.run_until(SimTime::from_secs(1));
            let e: &SpanEmitter = sim.actor(b);
            let times: Vec<u64> = e.received.iter().map(|r| r.1.as_nanos()).collect();
            (times, sim.stats.events, sim.trace().spans().len())
        };
        let (plain, plain_events, plain_spans) = run(false);
        let (traced, traced_events, traced_spans) = run(true);
        assert_eq!(plain, traced, "delivery schedule identical");
        assert_eq!(plain_events, traced_events, "event count identical");
        assert_eq!(plain_spans, 0, "disabled run records no spans");
        assert!(traced_spans > 0, "enabled run recorded spans");
    }

    /// Writes then fsyncs on start; records fsync-completion times.
    struct Syncer {
        bytes: usize,
        completions: Vec<(u64, SimTime)>,
    }
    impl Actor<Ping> for Syncer {
        fn on_start(&mut self, ctx: &mut Ctx<Ping>) {
            ctx.disk_write(self.bytes);
            ctx.fsync(1);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<Ping>, _f: ActorId, _m: Ping) {}
        fn on_timer(&mut self, ctx: &mut Ctx<Ping>, token: u64) {
            self.completions.push((token, ctx.now()));
        }
        impl_actor_any!();
    }

    #[test]
    fn fsync_completion_arrives_after_write_and_latency() {
        let cfg = NetConfig {
            jitter: 0.0,
            ..NetConfig::default()
        };
        let mut sim = Simulation::new(cfg, 1);
        sim.set_disk_config(crate::disk::DiskConfig {
            fsync_latency: SimDuration::from_millis(3),
        });
        let n = sim.add_actor(
            Region::Oregon,
            Box::new(Syncer {
                bytes: 1_000_000,
                completions: Vec::new(),
            }),
        );
        sim.run_until(SimTime::from_millis(100));
        let s: &Syncer = sim.actor(n);
        assert_eq!(s.completions, vec![(1, SimTime::from_millis(3))]);
        let stats = sim.disk_stats_at(n);
        assert_eq!(stats.bytes_written, 1_000_000);
        assert_eq!(stats.fsyncs, 1);
    }

    #[test]
    fn crash_cancels_in_flight_fsync() {
        let cfg = NetConfig {
            jitter: 0.0,
            ..NetConfig::default()
        };
        let mut sim = Simulation::new(cfg, 1);
        sim.set_disk_config(crate::disk::DiskConfig {
            fsync_latency: SimDuration::from_millis(10),
        });
        let n = sim.add_actor(
            Region::Oregon,
            Box::new(Syncer {
                bytes: 64,
                completions: Vec::new(),
            }),
        );
        // Crash at 5 ms, before the 10 ms fsync completes; restart at 20 ms
        // re-runs on_start, whose new fsync completes at 30 ms.
        sim.crash_at(n, SimTime::from_millis(5));
        sim.restart_at(n, SimTime::from_millis(20));
        sim.run_until(SimTime::from_millis(100));
        let s: &Syncer = sim.actor(n);
        assert_eq!(s.completions, vec![(1, SimTime::from_millis(30))]);
    }

    /// On start, a write of `barriers` entries made durable one barrier
    /// each: as one `fsync_serial`, or as that many `fsync`s whose tokens
    /// count up to `barriers`. Records completions and the backlog a
    /// later handler sees.
    struct SerialSyncer {
        barriers: u64,
        serial: bool,
        completions: Vec<(u64, SimTime)>,
        backlog_seen: Vec<SimDuration>,
    }
    impl Actor<Ping> for SerialSyncer {
        fn on_start(&mut self, ctx: &mut Ctx<Ping>) {
            ctx.disk_write(4096);
            if self.serial {
                ctx.fsync_serial(self.barriers, self.barriers);
            } else {
                (1..=self.barriers).for_each(|b| ctx.fsync(b));
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<Ping>, _f: ActorId, _m: Ping) {
            self.backlog_seen.push(ctx.disk_backlog());
        }
        fn on_timer(&mut self, ctx: &mut Ctx<Ping>, token: u64) {
            self.completions.push((token, ctx.now()));
        }
        impl_actor_any!();
    }

    fn serial_sim(serial: bool) -> (Simulation<Ping>, ActorId) {
        let mut sim = Simulation::new(NetConfig::default(), 1);
        sim.set_disk_config(crate::disk::DiskConfig {
            fsync_latency: SimDuration::from_millis(2),
        });
        let syncer = SerialSyncer {
            barriers: 5,
            serial,
            completions: Vec::new(),
            backlog_seen: Vec::new(),
        };
        let n = sim.add_actor(Region::Oregon, Box::new(syncer));
        (sim, n)
    }

    #[test]
    fn fsync_serial_charges_like_k_fsyncs_and_completes_once() {
        let run = |serial: bool| {
            let (mut sim, n) = serial_sim(serial);
            sim.start();
            // A handler between barriers reads the backlog; a later fsync
            // queues behind every barrier.
            sim.send_external(n, Ping(0), SimDuration::from_millis(4));
            sim.run_until(SimTime::from_millis(4));
            let mid = (sim.disk_backlog_at(n), sim.disk_stats_at(n).fsyncs);
            sim.run_until(SimTime::from_millis(100));
            let s: &SerialSyncer = sim.actor(n);
            let stats = sim.disk_stats_at(n);
            let done = s.completions.clone();
            (mid, s.backlog_seen.clone(), stats.fsyncs, done)
        };
        let (mid, seen, fsyncs, done) = run(true);
        let (k_mid, k_seen, k_fsyncs, k_done) = run(false);
        // Five 2 ms barriers: busy until 10 ms.
        assert_eq!(mid, (SimDuration::from_millis(6), 5));
        assert_eq!((mid, &seen, fsyncs), (k_mid, &k_seen, k_fsyncs));
        assert_eq!(seen, [SimDuration::from_millis(6)]);
        assert_eq!(done, [(5, SimTime::from_millis(10))], "fires once");
        assert_eq!(k_done.len(), 5);
        assert_eq!(k_done.last(), done.last(), "at the last barrier's time");
    }

    #[test]
    fn crash_before_the_last_barrier_cancels_the_serial_completion() {
        let (mut sim, n) = serial_sim(true);
        // Four of the five barriers are done by 8 ms; the last is not.
        // The restart's own barriers run 20 → 30 ms.
        sim.crash_at(n, SimTime::from_millis(9));
        sim.restart_at(n, SimTime::from_millis(20));
        sim.run_until(SimTime::from_millis(100));
        let s: &SerialSyncer = sim.actor(n);
        assert_eq!(s.completions, [(5, SimTime::from_millis(30))]);
        assert_eq!(sim.disk_stats_at(n).fsyncs, 10, "the device did the work");
    }

    #[test]
    fn co_located_actors_fair_share_one_disk() {
        let cfg = NetConfig {
            jitter: 0.0,
            ..NetConfig::default()
        };
        let mut sim = Simulation::new(cfg, 1);
        sim.set_disk_config(crate::disk::DiskConfig {
            fsync_latency: SimDuration::from_millis(4),
        });
        let a = sim.add_actor(
            Region::Oregon,
            Box::new(Syncer {
                bytes: 8,
                completions: Vec::new(),
            }),
        );
        let b = sim.add_actor(
            Region::Oregon,
            Box::new(Syncer {
                bytes: 8,
                completions: Vec::new(),
            }),
        );
        // Both on disk 0: fsyncs issued together at t=0 serialize FIFO.
        sim.map_disk(b, a.0);
        sim.run_until(SimTime::from_millis(100));
        let sa: &Syncer = sim.actor(a);
        let sb: &Syncer = sim.actor(b);
        assert_eq!(sa.completions[0].1, SimTime::from_millis(4));
        assert_eq!(sb.completions[0].1, SimTime::from_millis(8));
    }

    #[test]
    fn zero_cost_disk_never_perturbs_the_schedule() {
        // Jittered network so the RNG stream matters: a run whose actors
        // issue disk work against the zero-cost default must follow the
        // identical schedule as one that issues none (disk charging draws
        // no RNG and an fsync completes at its issue instant).
        let run = |use_disk: bool| {
            let mut sim = Simulation::new(NetConfig::default(), 99);
            let b_id = ActorId(1);
            let _a = sim.add_actor(
                Region::Oregon,
                Box::new(Starter {
                    peer: b_id,
                    got: Vec::new(),
                }),
            );
            let b = sim.add_actor(Region::Seoul, Box::new(Echo::new(5, true)));
            if use_disk {
                sim.add_actor(
                    Region::Oregon,
                    Box::new(Syncer {
                        bytes: 4096,
                        completions: Vec::new(),
                    }),
                );
            }
            sim.run_until(SimTime::from_secs(1));
            let e: &Echo = sim.actor(b);
            e.received
                .iter()
                .map(|r| r.2.as_nanos())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }

    /// The queue against a reference that is obviously right — a `Vec`
    /// kept sorted by `(at, seq)` — under one random script of pushes,
    /// pops, re-queues and frees. Times are drawn from a handful of
    /// values so most pops break a tie, and freed slots are reused by
    /// later pushes at the same timestamp: the slot number must never
    /// decide an order.
    #[test]
    fn queue_pops_what_a_sorted_vec_pops() {
        let mut rng = SimRng::new(0x51ab);
        let mut queue: EventQueue<u64> = EventQueue::new();
        let mut reference: Vec<(SimTime, u64, u64)> = Vec::new();
        let (mut ref_seq, mut next_id, mut now) = (0u64, 0u64, SimTime::ZERO);
        let (mut pops, mut ties, mut reused) = (0u32, 0u32, 0u32);
        let mut ref_push = |reference: &mut Vec<(SimTime, u64, u64)>, at: SimTime, id: u64| {
            ref_seq += 1;
            let key = (at, ref_seq);
            let sorted_pos = reference.partition_point(|&(at, seq, _)| (at, seq) < key);
            reference.insert(sorted_pos, (at, ref_seq, id));
        };
        for _ in 0..50_000 {
            if rng.gen_bool(0.55) {
                let at = now + SimDuration::from_micros(rng.gen_range(4));
                reused += u32::from(!queue.free.is_empty());
                queue.push(at, next_id);
                ref_push(&mut reference, at, next_id);
                next_id += 1;
                continue;
            }
            let limit = now + SimDuration::from_micros(rng.gen_range(3));
            let due = reference.first().filter(|head| head.0 <= limit).copied();
            let popped = queue.pop_due(limit);
            assert_eq!(popped.map(|(at, _)| at), due.map(|(at, _, _)| at));
            let (Some((at, slot)), Some((_, _, id))) = (popped, due) else {
                continue;
            };
            reference.remove(0);
            pops += 1;
            ties += u32::from(reference.first().is_some_and(|next| next.0 == at));
            now = at;
            if rng.gen_bool(0.3) {
                // The receiver-NIC hop: same payload, same slot, new key.
                assert_eq!(*queue.payload_mut(slot), id);
                let later = at + SimDuration::from_micros(rng.gen_range(3));
                queue.schedule(later, slot);
                ref_push(&mut reference, later, id);
            } else {
                assert_eq!(queue.take(slot), id);
            }
        }
        assert_eq!(queue.live(), reference.len());
        assert!(
            pops > 10_000 && ties > 1_000 && reused > 1_000,
            "the script exercised ties and slot reuse: {pops} pops, {ties} ties, {reused} reuses"
        );
    }

    /// Keeps `volley` messages bouncing off its peer until `left` runs out.
    struct Bouncer {
        peer: ActorId,
        volley: u32,
        left: u64,
    }
    impl Actor<Ping> for Bouncer {
        fn on_start(&mut self, ctx: &mut Ctx<Ping>) {
            for k in 0..self.volley {
                ctx.send(self.peer, Ping(k));
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<Ping>, from: ActorId, msg: Ping) {
            if self.left > 0 {
                self.left -= 1;
                ctx.send(from, msg);
            }
        }
        impl_actor_any!();
    }

    #[test]
    fn slab_is_as_long_as_the_peak_in_flight_not_as_the_run() {
        let mut sim = Simulation::new(NetConfig::default(), 5);
        let bouncer = |peer, volley| Bouncer {
            peer: ActorId(peer),
            volley,
            left: 500_000,
        };
        sim.add_actor(Region::Oregon, Box::new(bouncer(1, 6)));
        sim.add_actor(Region::Ohio, Box::new(bouncer(0, 3)));
        sim.start();
        let mut peak = sim.queue.live();
        while sim.step_until(SimTime::from_secs(36_000)) {
            // Every step frees before it pushes, so the count between
            // steps is the most any instant held.
            peak = peak.max(sim.queue.live());
        }
        assert_eq!(sim.stats.deliveries, 1_000_000 + 9);
        assert_eq!(
            sim.queue.live(),
            2,
            "drained, but for each node's Process payload"
        );
        assert!(peak <= 9 + 2, "nine messages, a Process payload per node");
        assert!(
            sim.queue.slab.len() <= peak,
            "slab of {} for a peak of {peak} in flight",
            sim.queue.slab.len()
        );
    }

    #[test]
    fn arrival_at_a_crashed_node_is_lost_once_and_frees_its_slot() {
        let mut sim = Simulation::new(NetConfig::default(), 1);
        sim.add_actor(
            Region::Oregon,
            Box::new(Starter {
                peer: ActorId(1),
                got: Vec::new(),
            }),
        );
        let b = sim.add_actor(Region::Ohio, Box::new(Echo::new(0, true)));
        // The ping is on the wire (26 ms one way) when `b` goes down: it
        // arrives un-charged, before any receiver-NIC hop.
        sim.crash_at(b, SimTime::from_millis(1));
        sim.run_until(SimTime::from_millis(100));
        assert_eq!(sim.stats.lost, 1);
        assert_eq!(sim.stats.events, 2, "the crash and the one arrival");
        assert_eq!(sim.queue.live(), 2, "each node's Process payload");
        assert!(sim.actor::<Echo>(b).received.is_empty());
    }

    #[test]
    fn crash_frees_the_slots_of_the_inbox_it_drops() {
        let mut sim = Simulation::new(NetConfig::default(), 1);
        let n = sim.add_actor(Region::Oregon, Box::new(Echo::new(10_000, false)));
        sim.start();
        for k in 0..3 {
            sim.send_external(n, Ping(k), SimDuration::ZERO);
        }
        // The first is being served (10 ms) when the node goes down at
        // 5 ms with the other two in its inbox.
        sim.crash_at(n, SimTime::from_millis(5));
        sim.run_until(SimTime::from_millis(6));
        assert_eq!(sim.actor::<Echo>(n).received.len(), 1);
        assert_eq!(sim.stats.lost, 2);
        assert_eq!(sim.queue.live(), 1, "only the node's Process payload");
        sim.run_until(SimTime::from_millis(50));
        assert_eq!(sim.actor::<Echo>(n).received.len(), 1);
    }

    /// Sends `Ping(k)` copies of what it receives to `sink`: `k` of them.
    struct Burst {
        sink: ActorId,
    }
    impl Actor<Ping> for Burst {
        fn on_message(&mut self, ctx: &mut Ctx<Ping>, _from: ActorId, msg: Ping) {
            for _ in 0..msg.0 {
                ctx.send(self.sink, msg.clone());
            }
        }
        impl_actor_any!();
    }

    #[test]
    fn no_output_leaks_from_one_handler_into_the_next() {
        let mut sim = Simulation::new(NetConfig::default(), 1);
        let sink = sim.add_actor(Region::Oregon, Box::new(Echo::new(0, false)));
        let burst = sim.add_actor(Region::Oregon, Box::new(Burst { sink }));
        sim.start();
        // Nothing, then a thousand, then nothing again.
        for (ms, k) in [(0, 0), (1, 1000), (2, 0)] {
            sim.send_external(burst, Ping(k), SimDuration::from_millis(ms));
        }
        sim.run_until(SimTime::from_millis(100));
        assert_eq!(sim.actor::<Echo>(sink).received.len(), 1000);
        assert!(sim.outputs.is_empty() && sim.outputs.capacity() >= 1000);
        // An actor added after `start` runs its `on_start` through the
        // same buffer: its one ping, and none of the thousand.
        let late = sim.add_actor(
            Region::Oregon,
            Box::new(Starter {
                peer: sink,
                got: Vec::new(),
            }),
        );
        sim.send_external(burst, Ping(0), SimDuration::ZERO);
        sim.run_until(SimTime::from_millis(200));
        let received = &sim.actor::<Echo>(sink).received;
        assert_eq!(received.len(), 1001);
        assert_eq!((received[1000].0, received[1000].1), (late, 1));
        assert!(sim.outputs.is_empty());
    }

    /// A message as wide as the protocols' own.
    #[derive(Debug, Clone)]
    struct Wide([u64; 13]);
    impl Payload for Wide {
        fn size_bytes(&self) -> usize {
            std::mem::size_of_val(&self.0)
        }
    }

    /// What every actor of one scripted simulation writes to: each
    /// handler call in order as `(time, actor, sender or !token)`, and how
    /// many keys the handlers themselves had queued (sends and timers).
    #[derive(Debug, Default)]
    struct Script {
        calls: RefCell<Vec<(SimTime, usize, u64)>>,
        pushes: Cell<u64>,
    }
    impl Script {
        /// Logs a handler call, draws its 0-50 us charge from the shared
        /// RNG and takes one unit off the actor's budget; `false` once
        /// that is spent.
        fn enter(&self, ctx: &mut Ctx<Wide>, left: &mut u32, what: u64) -> bool {
            let call = (ctx.now(), ctx.self_id().0, what);
            self.calls.borrow_mut().push(call);
            let cost = ctx.rng().gen_range(51);
            ctx.charge(SimDuration::from_micros(cost));
            let go = *left > 0;
            *left -= u32::from(go);
            go
        }
        fn pushed(&self) {
            self.pushes.set(self.pushes.get() + 1);
        }
    }

    /// The key, and the token, of [`Chatter`]'s re-armed timer.
    const WATCHDOG: u64 = 1 << 40;

    /// Keeps a volley of messages moving between random peers and, one
    /// handler in eight, sets a timer whose fire sends one more message.
    /// With `watchdog`, every message also re-arms a watchdog, as a
    /// follower's election timeout is re-armed on every append, to
    /// anywhere up to 400 us out, so that some fire, some are superseded
    /// by a later re-arm and some by an earlier one. Its fire sends one
    /// more message too.
    struct Chatter {
        n: usize,
        volley: usize,
        left: u32,
        watchdog: bool,
        script: Rc<Script>,
    }
    impl Chatter {
        fn send_to_random_peer(&self, ctx: &mut Ctx<Wide>, msg: Wide) {
            let hop = 1 + ctx.rng().gen_range(self.n as u64 - 1) as usize;
            ctx.send(ActorId((ctx.self_id().0 + hop) % self.n), msg);
            self.script.pushed();
        }
    }
    impl Actor<Wide> for Chatter {
        fn on_start(&mut self, ctx: &mut Ctx<Wide>) {
            for k in 0..self.volley {
                self.send_to_random_peer(ctx, Wide([k as u64; 13]));
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<Wide>, from: ActorId, msg: Wide) {
            if !self.script.enter(ctx, &mut self.left, from.0 as u64) {
                return;
            }
            self.send_to_random_peer(ctx, msg);
            if ctx.rng().gen_range(8) == 0 {
                let delay = SimDuration::from_micros(ctx.rng().gen_range(2_000));
                ctx.set_timer(delay, u64::from(self.left));
                self.script.pushed();
            }
            if self.watchdog {
                let delay = SimDuration::from_micros(ctx.rng().gen_range(400));
                ctx.rearm_timer(WATCHDOG, delay, WATCHDOG);
                self.script.pushed();
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<Wide>, token: u64) {
            if self.script.enter(ctx, &mut self.left, !token) {
                self.send_to_random_peer(ctx, Wide([token; 13]));
            }
        }
        impl_actor_any!();
    }

    /// Receives nothing; runs two timer chains that re-arm within 100 us
    /// and, with `watchdog`, re-arms a watchdog within 100 us at every
    /// link. All of its times are whole microseconds from zero, so two
    /// tickers' `Process` turns and fires fall due at the very same
    /// instant again and again — the ties a hop in place must lose to
    /// whatever was queued first, and a superseding fire must take in the
    /// place of its re-arm.
    struct Ticker {
        left: u32,
        watchdog: bool,
        script: Rc<Script>,
    }
    impl Ticker {
        fn arm(&self, ctx: &mut Ctx<Wide>, chain: u64) {
            let delay = SimDuration::from_micros(ctx.rng().gen_range(100));
            ctx.set_timer(delay, chain);
            self.script.pushed();
            if self.watchdog {
                let delay = SimDuration::from_micros(ctx.rng().gen_range(100));
                ctx.rearm_timer(WATCHDOG, delay, WATCHDOG);
                self.script.pushed();
            }
        }
    }
    impl Actor<Wide> for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx<Wide>) {
            self.arm(ctx, 0);
            self.arm(ctx, 1);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<Wide>, _from: ActorId, _msg: Wide) {}
        fn on_timer(&mut self, ctx: &mut Ctx<Wide>, token: u64) {
            if self.script.enter(ctx, &mut self.left, !token) && token != WATCHDOG {
                self.arm(ctx, token);
            }
        }
        impl_actor_any!();
    }

    /// Five chatters on the WAN matrix, ~2,000 messages of 104 bytes in
    /// flight, one crash and restart, and two tickers beside them. The NIC
    /// runs at a tenth of the default speed, so a message's receiver-NIC
    /// hop takes 22 us — long enough for other events to fall inside it,
    /// as a handler's 0-50 us do inside the hop to the next `Process` turn.
    /// `watchdog` has every actor re-arm one ([`Chatter`], [`Ticker`]).
    fn chatter_sim(always_queue: bool, watchdog: bool) -> (Simulation<Wide>, Rc<Script>) {
        let cfg = NetConfig {
            bandwidth_bps: 75.0e6,
            ..NetConfig::default()
        };
        let mut sim = Simulation::new(cfg, 0xe11de);
        sim.always_queue = always_queue;
        let script = Rc::new(Script::default());
        for region in Region::ALL {
            let chatter = Chatter {
                n: Region::ALL.len(),
                volley: 400,
                left: 14_000,
                watchdog,
                script: Rc::clone(&script),
            };
            sim.add_actor(region, Box::new(chatter));
        }
        for region in [Region::Oregon, Region::Seoul] {
            let ticker = Ticker {
                left: 10_000,
                watchdog,
                script: Rc::clone(&script),
            };
            sim.add_actor(region, Box::new(ticker));
        }
        sim.crash_at(ActorId(2), SimTime::from_millis(700));
        sim.restart_at(ActorId(2), SimTime::from_millis(900));
        (sim, script)
    }

    /// What must not depend on how a hop travels: the handler calls in
    /// order, the counters, and where the RNG stream ended.
    fn outcome(
        sim: &Simulation<Wide>,
        script: &Script,
    ) -> (Vec<(SimTime, usize, u64)>, SimStats, String) {
        (
            script.calls.borrow().clone(),
            sim.stats,
            format!("{:?}", sim.rng),
        )
    }

    /// Panics at the first handler call where `calls` and `reference`
    /// part, or if one is longer.
    fn assert_same_calls(calls: &[(SimTime, usize, u64)], reference: &[(SimTime, usize, u64)]) {
        if let Some(k) = (0..calls.len().min(reference.len())).find(|&k| calls[k] != reference[k]) {
            panic!(
                "handler call {k}: {:?}, reference {:?}",
                calls[k], reference[k]
            );
        }
        assert_eq!(calls.len(), reference.len());
    }

    /// Run on the script without watchdogs and with them.
    #[test]
    fn hops_taken_in_place_change_nothing_a_handler_or_a_counter_can_see() {
        for watchdog in [false, true] {
            let (mut queued, queued_script) = chatter_sim(true, watchdog);
            let (mut direct, direct_script) = chatter_sim(false, watchdog);
            queued.run_to_quiescence(SimTime::MAX);
            direct.run_to_quiescence(SimTime::MAX);
            let (calls, stats, rng) = outcome(&direct, &direct_script);
            let (ref_calls, ref_stats, ref_rng) = outcome(&queued, &queued_script);
            assert_same_calls(&calls, &ref_calls);
            assert_eq!((stats, rng), (ref_stats, ref_rng));
            assert!(stats.events >= 200_000 && stats.timer_fires > 5_000 && stats.lost > 0);
            // Every `seq` the reference took was a handler's push or
            // re-arm, one of the two fault injections, or a hop; the
            // script took a good share of its hops each way (a tie, or an
            // earlier event, keeps one queued). Watchdog checks, queued
            // for times of their own, leave fewer hops the very next pop:
            // 37,310 of 173,908 taken in place, against 49,202 of 157,403
            // without them.
            let hops = queued.queue.seq - queued_script.pushes.get() - 2;
            let in_place = queued.queue.seq - direct.queue.seq;
            assert_eq!(queued_script.pushes.get(), direct_script.pushes.get());
            let share = if watchdog { hops / 5 } else { hops / 4 };
            assert!(
                in_place > share && hops - in_place > share,
                "{in_place} of {hops} hops taken in place"
            );
        }
    }

    /// Superseding ≡ filtering: against the reference, which queues a
    /// check for every re-arm and drops each superseded one when it pops,
    /// the handler calls, their times, the RNG stream and every counter
    /// but `events` are identical. `events` is lower by the checks that
    /// were never queued.
    #[test]
    fn superseded_timers_change_nothing_a_handler_can_see() {
        let (mut filtered, filtered_script) = chatter_sim(false, true);
        filtered.filter_timers = true;
        let (mut superseding, script) = chatter_sim(false, true);
        filtered.run_to_quiescence(SimTime::MAX);
        superseding.run_to_quiescence(SimTime::MAX);
        let (calls, stats, rng) = outcome(&superseding, &script);
        let (ref_calls, ref_stats, ref_rng) = outcome(&filtered, &filtered_script);
        assert_same_calls(&calls, &ref_calls);
        assert_eq!(rng, ref_rng);
        let but_events = |s: SimStats| SimStats { events: 0, ..s };
        assert_eq!(but_events(stats), but_events(ref_stats));
        let watchdog_fires = calls.iter().filter(|c| c.2 == !WATCHDOG).count() as u64;
        let saved = ref_stats.events - stats.events;
        assert!(
            watchdog_fires > 2_000 && saved > 20_000,
            "{watchdog_fires} watchdog fires, {saved} events saved of {}",
            ref_stats.events
        );
    }

    const CANCEL: u32 = u32::MAX;

    /// Arms its watchdog 10 ms out, with token 0, on start. `Ping(ms)`
    /// charges `cost_ms` and, unless `ms` is 0, re-arms the watchdog `ms`
    /// out with `ms` as its token; `Ping(CANCEL)` cancels it instead.
    /// Records every fire.
    struct Watchdog {
        cost_ms: u64,
        fired: Vec<(u64, SimTime)>,
    }
    impl Actor<Ping> for Watchdog {
        fn on_start(&mut self, ctx: &mut Ctx<Ping>) {
            ctx.rearm_timer(WATCHDOG, SimDuration::from_millis(10), 0);
        }
        fn on_message(&mut self, ctx: &mut Ctx<Ping>, _from: ActorId, msg: Ping) {
            ctx.charge(SimDuration::from_millis(self.cost_ms));
            if msg.0 == CANCEL {
                ctx.cancel_timer(WATCHDOG);
            } else if msg.0 > 0 {
                let delay = SimDuration::from_millis(u64::from(msg.0));
                ctx.rearm_timer(WATCHDOG, delay, u64::from(msg.0));
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<Ping>, token: u64) {
            self.fired.push((token, ctx.now()));
        }
        impl_actor_any!();
    }

    /// A watchdog with `Ping(ms)` injected at each `(at_ms, ms)`, run for
    /// 100 ms, superseding or (`filter`) on the reference path: its fires
    /// and the events the run took.
    fn watchdog_run(
        cost_ms: u64,
        pings: &[(u64, u32)],
        filter: bool,
    ) -> (Vec<(u64, SimTime)>, u64) {
        let mut sim = Simulation::new(NetConfig::default(), 1);
        sim.filter_timers = filter;
        let watchdog = Watchdog {
            cost_ms,
            fired: Vec::new(),
        };
        let n = sim.add_actor(Region::Oregon, Box::new(watchdog));
        for &(at, ms) in pings {
            sim.send_external(n, Ping(ms), SimDuration::from_millis(at));
        }
        sim.run_until(SimTime::from_millis(100));
        (sim.actor::<Watchdog>(n).fired.clone(), sim.stats.events)
    }

    #[test]
    fn a_later_rearm_supersedes_and_one_check_waits_for_it() {
        // Due at 10 ms, then re-armed for 11, 13, 15 and 17 ms before that.
        let pings = [(1, 10), (2, 11), (3, 12), (4, 13)];
        let (fired, events) = watchdog_run(0, &pings, false);
        let (ref_fired, ref_events) = watchdog_run(0, &pings, true);
        assert_eq!(fired, [(13, SimTime::from_millis(17))]);
        assert_eq!(fired, ref_fired);
        // Four arrivals and their turns; one check, popping early at 10 ms
        // and on time at 17 ms; the fire's turn. The reference pops all
        // four superseded timers instead of the early check.
        assert_eq!((events, ref_events), (11, 14));
    }

    #[test]
    fn a_shorter_rearm_fires_early_and_the_old_timer_is_never_delivered() {
        let (fired, events) = watchdog_run(0, &[(2, 3)], false);
        assert_eq!(fired, [(3, SimTime::from_millis(5))]);
        // The arrival and its turn, the new check and the fire's turn, and
        // the orphaned check popping at 10 ms.
        assert_eq!(events, 5);
    }

    #[test]
    fn a_crash_cancels_a_keyed_timer_and_a_restart_rearms_it() {
        let mut sim = Simulation::new(NetConfig::default(), 1);
        let watchdog = Watchdog {
            cost_ms: 0,
            fired: Vec::new(),
        };
        let n = sim.add_actor(Region::Oregon, Box::new(watchdog));
        sim.crash_at(n, SimTime::from_millis(5));
        sim.restart_at(n, SimTime::from_millis(20));
        let due_at = |sim: &mut Simulation<Ping>, ms| {
            sim.run_until(SimTime::from_millis(ms));
            sim.timer_due(n, WATCHDOG)
        };
        assert_eq!(due_at(&mut sim, 4), Some(SimTime::from_millis(10)));
        assert_eq!(due_at(&mut sim, 19), None, "the crash cancelled it");
        assert_eq!(due_at(&mut sim, 20), Some(SimTime::from_millis(30)));
        assert_eq!(due_at(&mut sim, 100), None, "delivered");
        assert_eq!(
            sim.actor::<Watchdog>(n).fired,
            [(0, SimTime::from_millis(30))]
        );
        // The crash, the orphaned check at 10 ms, the restart, the check
        // at 30 ms and the fire's turn.
        assert_eq!(sim.stats.events, 5);
    }

    #[test]
    fn a_cancelled_timer_is_never_delivered() {
        // Cancelled while its check is queued: the check pops at 10 ms
        // and is discarded. The arrival, its turn and that pop.
        let (fired, events) = watchdog_run(0, &[(5, CANCEL)], false);
        assert_eq!((fired, events), (vec![], 3));
        // Cancelled while its fire waits in the inbox (busy from 5 to 15
        // ms, the fire joins at 10 behind the cancel): it takes its turn
        // undelivered.
        let (fired, _) = watchdog_run(10, &[(5, 0), (8, CANCEL)], false);
        assert_eq!(fired, []);
        assert_eq!(watchdog_run(10, &[(5, 0), (8, CANCEL)], true).0, fired);
    }

    /// A re-arm from outside a handler is a handler's re-arm made now:
    /// it supersedes the timer the key had. A crashed actor keeps none.
    #[test]
    fn an_outside_rearm_supersedes_like_a_handler_rearm() {
        let mut sim = Simulation::new(NetConfig::default(), 1);
        let watchdog = Watchdog {
            cost_ms: 0,
            fired: Vec::new(),
        };
        let n = sim.add_actor(Region::Oregon, Box::new(watchdog));
        sim.run_until(SimTime::from_millis(5));
        sim.rearm_timer(n, WATCHDOG, SimDuration::from_millis(20), 7);
        assert_eq!(sim.timer_due(n, WATCHDOG), Some(SimTime::from_millis(25)));
        sim.crash_at(n, SimTime::from_millis(30));
        sim.run_until(SimTime::from_millis(40));
        sim.rearm_timer(n, WATCHDOG, SimDuration::from_millis(1), 8);
        sim.run_until(SimTime::from_millis(100));
        assert_eq!(
            sim.actor::<Watchdog>(n).fired,
            [(7, SimTime::from_millis(25))]
        );
    }

    #[test]
    fn a_fire_superseded_while_it_waits_in_the_inbox_is_not_delivered() {
        // Busy from 5 to 15 ms with a ping that re-arms nothing; the ping
        // queued behind it re-arms, at 15 ms, after the fire due at 10 ms
        // has joined the inbox behind that ping.
        let (fired, events) = watchdog_run(10, &[(5, 0), (8, 20)], false);
        assert_eq!(fired, [(20, SimTime::from_millis(45))]);
        // Two arrivals and two turns, the check on time at 10 ms, the
        // superseded fire's turn, the new check and its fire's turn.
        assert_eq!(events, 8);
        assert_eq!(watchdog_run(10, &[(5, 0), (8, 20)], true).0, fired);
    }

    /// `run_until` never runs past its limit: a hop due later is queued,
    /// so a caller reading state between 1 us slices (the metric sampler
    /// does, at its own cadence) sees nothing from the future — and the
    /// sliced run is the run.
    #[test]
    fn a_hop_in_place_never_runs_past_the_limit() {
        let (mut whole, whole_script) = chatter_sim(false, true);
        let (mut sliced, sliced_script) = chatter_sim(false, true);
        let end = SimTime::from_millis(1_200);
        whole.run_until(end);
        let mut t = SimTime::ZERO;
        while t < end {
            t += SimDuration::from_micros(1);
            sliced.run_until(t);
            assert_eq!(sliced.now(), t);
            let last = sliced_script.calls.borrow().last().map(|call| call.0);
            assert!(last <= Some(t), "a handler ran at {last:?}, limit {t:?}");
        }
        assert_eq!(
            outcome(&sliced, &sliced_script),
            outcome(&whole, &whole_script)
        );
        assert!(whole.stats.events > 100_000);
    }

    /// A saturated inbox with nothing else queued is one `Process` turn
    /// in place after another, 100,000 deep: a loop carries that, a
    /// recursion would not fit the stack.
    #[test]
    fn a_saturated_inbox_drains_in_a_loop() {
        let mut sim = Simulation::new(NetConfig::default(), 1);
        let n = sim.add_actor(Region::Oregon, Box::new(Echo::new(1, false)));
        sim.start();
        for k in 0..100_000 {
            sim.send_external(n, Ping(k), SimDuration::ZERO);
        }
        // All of them arrive while the first is being served.
        assert!(sim.step_until(SimTime::ZERO));
        sim.run_until(SimTime::ZERO);
        assert_eq!(sim.inbox[n.0].len(), 99_999);
        assert_eq!(
            sim.queue.heap.len(),
            1,
            "the node's next turn, nothing else"
        );
        assert!(
            sim.step_until(SimTime::MAX),
            "that turn, and every one after it"
        );
        assert!(!sim.step_until(SimTime::MAX));
        assert_eq!(sim.actor::<Echo>(n).received.len(), 100_000);
        assert_eq!(sim.stats.events, 200_000, "an arrival and a turn each");
        assert_eq!(sim.now(), SimTime::from_micros(99_999));
    }

    /// An event carrying the largest message the replicas send (112 B,
    /// pinned in `paxraft-core`'s `kv` tests) is the message and a 24 B
    /// envelope: at 136 B the event slab moves it by inline stores, where
    /// a 144 B event (`dst` and `bytes` as machine words) is moved by a
    /// `memcpy` call on every delivery.
    #[test]
    fn an_arrival_wraps_the_largest_message_in_24_bytes() {
        assert!(std::mem::size_of::<EvKind<[u8; 112]>>() <= 136);
    }

    #[test]
    fn run_to_quiescence_stops_when_queue_drains() {
        let (mut sim, _a, b) = two_node_sim();
        sim.start();
        sim.send_external(b, Ping(3), SimDuration::from_millis(2));
        let end = sim.run_to_quiescence(SimTime::from_secs(10));
        assert!(end < SimTime::from_secs(10));
        assert_eq!(sim.stats.deliveries, 1);
    }
}
