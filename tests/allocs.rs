//! Tier-1 gate with a memory for one number: heap allocations per answered
//! operation in steady-state replication, per rules file.
//!
//! The ledger reports `allocs_per_op` per workload, but a per-PR bound has
//! no memory: a site that allocates per message can come back a fifth at a
//! time. This test pins a ceiling per protocol at about 1.25 x what the
//! last commit that took allocations off the replication path measured,
//! on a fixed-seed 5-replica closed-loop cluster on the default WAN. The
//! counts repeat to the third decimal run to run (`HashMap` hasher seeds
//! move them by parts in 10^4).
//!
//! Ten commits made the readings. The first built a round's payload
//! once, made a list of slots a run and handed buffers back (*before* and
//! *after* read either side of it). Since the second, a Raft-family round
//! is a view of the leader's log rather than a copy of it (`log.rs`,
//! *Rounds*): *copied* and *viewed* read either side of that change. Since
//! the third, a lone forwarded command rides in its message, a MultiPaxos
//! round is one allocation of exact size, an idle heartbeat's round is a
//! shared empty one, and Raft\*-PQL serves its parked reads in place
//! (*in place* reads after it). Since the fourth, a MultiPaxos round is a
//! view of the proposer's instance table (`engine/paxos_family.rs`,
//! *Rounds*; *table* reads after it), and since the fifth a Mencius round
//! is one of the owner's, a slot in `n`, and a list of slots that spills
//! is sized with room to grow (*strided*). Since the sixth, a forwarded
//! batch of several commands is a view of the follower's forward block
//! (`msg.rs`) and a partition map is shared, not copied, when it is
//! published and adopted (`shard/router.rs`; *block* reads after it).
//! Since the seventh, a client keeps its answers in fixed-size blocks
//! rather than in `Vec`s that double (`client.rs`), and a follower
//! refills a forward block no view holds any more (*client* reads after
//! it): until then the client's two lists were most of what the light
//! rows counted. Since the eighth, a Raft-family follower's log holds its
//! leader's blocks rather than copies of them (`log.rs`, *Storage*;
//! *shared* reads after it): a follower took a block per 256 slots of
//! its own. Since the ninth, every round and every forwarded batch of
//! several is one `slots::Run` cut by `SlotRing::cut`, a follower's
//! forward outbox is a 64-cell `SlotRing`, and a follower re-sent an
//! entry it holds leaves its cell alone (*run* reads after it). Since the
//! tenth, a MultiPaxos acceptor's table holds its proposer's blocks, its
//! own state of an instance in flight kept beside them
//! (`engine/paxos_family.rs`, *Rounds*; *split* reads after it): an
//! acceptor took a block per 256 slots of its own. The ceilings are
//! 1.25 x the *shared* reading, MultiPaxos's the *split* one, the sharded
//! row's 1.3 x.
//!
//! | protocol                | before | after | copied | viewed | in place | table | strided | block | client | shared |   run | split | ceiling |
//! |-------------------------|-------:|------:|-------:|-------:|---------:|------:|--------:|------:|-------:|-------:|------:|------:|--------:|
//! | Raft                    |  3.334 | 1.232 |  1.244 |  0.373 |    0.225 | 0.225 |   0.225 | 0.148 |  0.034 |  0.020 | 0.020 | 0.020 |   0.026 |
//! | Raft\*                  |  1.867 | 1.232 |  1.244 |  0.373 |    0.225 | 0.225 |   0.225 | 0.148 |  0.034 |  0.020 | 0.020 | 0.020 |   0.026 |
//! | Raft\*-PQL              |  1.226 | 0.322 |  0.322 |  0.193 |    0.031 | 0.032 |   0.032 | 0.024 |  0.018 |  0.017 | 0.017 | 0.012 |   0.022 |
//! | Raft, per-entry fsync   |      — |     — |  1.577 |  0.604 |    0.332 | 0.332 |   0.332 | 0.151 |  0.036 |  0.021 | 0.021 | 0.021 |   0.027 |
//! | MultiPaxos              |  7.640 | 2.068 |  2.010 |  2.010 |    1.164 | 0.201 |   0.201 | 0.132 |  0.034 |  0.034 | 0.034 | 0.019 |   0.024 |
//! | Mencius                 | 19.894 | 4.230 |  1.466 |  1.466 |    1.466 | 1.456 |   0.296 | 0.296 |  0.194 |  0.194 | 0.194 | 0.194 |    0.24 |
//! | Mencius, saturated LAN  |      — |     — |  0.246 |  0.246 |    0.246 | 0.237 |   0.050 | 0.050 |  0.037 |  0.037 | 0.037 | 0.037 |   0.046 |
//! | Raft, 4 groups, a migration |  — |     — |      — |      — |        — |     — |   0.392 | 0.203 |  0.121 |  0.092 | 0.093 | 0.093 |    0.12 |
//!
//! Every reading before *client* exceeds its ceiling, and MultiPaxos's
//! before *split*. The load is light on purpose (10 clients a region,
//! batches of one or two), so per-message costs are not hidden by
//! batching. A client's list of
//! completions costs an allocation per 128 answers, where a `Vec` that
//! doubled cost one past every power of two (its 5th, 9th, ... 129th and
//! 257th answer): the blocks save every step below the first block's end
//! and match the `Vec` above it, up to 384 answers. Blocks of 64 do
//! not: Raft\*-PQL's clients answer 108-315 operations each here (its
//! reads are local), and with blocks of 64 each client past its 193rd
//! answer took a block where the `Vec` had room, so that row read 0.027,
//! above doubling's 0.024; and the saturated row's clients, 122-129
//! answers each, took one at the 65th as well (0.050). Those clients end
//! just short of a block of 128: a change that let all 375 of them
//! answer a few more would add their second block, 0.013, to that row.
//! What is left here: a client's completion block per 128 answers, a
//! follower's forward block per 64 commands it forwarded in batches of
//! several, a round whose instances are not a run (one private
//! block: a MultiPaxos pump past instances chosen out of order, a Mencius
//! retransmission of the slots that aged), a block per 256 slots of a
//! leader's log, a proposer's table or a Mencius table, and at this load
//! Mencius's ack and
//! decision lists whose slots are not evenly spaced. The per-entry fsync row runs
//! Raft with a 1 ms barrier per entry behind every ack, where the leader's
//! pump cuts a round per freed window slot for one peer: each of those was
//! a copy of its own.
//!
//! The saturated row is the ledger's `lan-saturated` Mencius cell in shape
//! (75 clients a region, a 0.6 ms LAN, 8 B writes only), where a write is
//! in flight for every client. Mencius's conflict index keeps those
//! writes by key: as one ordered set of `(key, slot)` it read 0.779 there
//! and 1.554 on the light row; as a hash entry per key, the slot in
//! place, 0.246 and 1.466, and the ordered set's 0.779 fails the
//! saturated ceiling.
//!
//! The sharded row runs Raft in four groups whose leaders sit in four
//! regions, so most of a client's replicas are followers that forward,
//! and one range migrates inside the measured span: the coordinator
//! publishes the new map to all 50 clients and each adopts it. With a
//! forwarded batch copied and a map copied twice per client it read
//! 0.392.
//!
//! The same allocator keeps a live-byte count per thread, which
//! `a_log_holds_what_it_spans` reads: Raft's log holds what it spans.
//! `a_completion_is_24_bytes` pins what a client keeps per operation,
//! `a_state_copy_costs_one_allocation_per_table` what a checkpoint costs,
//! and `a_round_is_a_view_of_the_log_not_a_copy` what cutting a round
//! costs: nothing. Nine tests count single handlers:
//! `a_raft_follower_appends_without_allocating`,
//! `a_multipaxos_acceptor_accepts_without_allocating`,
//! `a_client_keeps_its_answers_in_blocks`,
//! `a_lone_forwarded_command_allocates_nothing`,
//! `a_forward_block_no_view_holds_is_refilled`,
//! `an_idle_multipaxos_heartbeat_allocates_nothing`,
//! `a_multipaxos_round_is_a_view_of_the_table_not_a_copy` and
//! `a_mencius_round_is_a_view_of_the_table_not_a_copy`, the twins of the
//! Raft round's, and
//! `publishing_a_partition_map_allocates_nothing_per_client`.
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, OnceCell};

use paxraft::core::client::{ClientRouting, Completion, WorkloadClient};
use paxraft::core::config::{DurabilityConfig, ReplicaConfig};
use paxraft::core::engine::{EngineCore, ProtocolRules, ReplicaEngine, BATCH_MAX};
use paxraft::core::harness::{Cluster, ClusterBuilder, ProtocolKind};
use paxraft::core::kv::{CmdId, Command, KvStore, Op, Reply};
use paxraft::core::log::{Entry, Log};
use paxraft::core::mencius::{MenciusReplica, MenciusRules};
use paxraft::core::msg::{
    Ack, Batch, ClientMsg, Coord, EngineMsg, MenciusMsg, Msg, PaxosMsg, RaftMsg, Slots,
};
use paxraft::core::multipaxos::{MultiPaxosReplica, PaxosRules};
use paxraft::core::raft::{RaftReplica, RaftRules};
use paxraft::core::shard::migration::{install_cmd_id, version_of_cmd};
use paxraft::core::shard::{
    LeaderPlacement, MigrationSpec, RebalanceConfig, RebalanceCoordinator, ShardConfig, ShardRouter,
};
use paxraft::core::snapshot::Snapshot;
use paxraft::core::types::{NodeId, Slot, Term};
use paxraft::sim::net::{NetConfig, Region};
use paxraft::sim::rng::SimRng;
use paxraft::sim::sim::{Actor, ActorId, Ctx, Simulation};
use paxraft::sim::time::SimDuration;
use paxraft::workload::generator::{Generator, WorkloadConfig, HOT_KEY};

thread_local! {
    /// Allocation calls made by this thread (`cargo test` runs tests on
    /// parallel threads; a shared counter would mix them).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated and not yet freed (a block freed
    /// by another thread stays counted here).
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The largest single request this thread has made.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting calls and live bytes per thread.
struct CountingAlloc;

/// One call that takes `size` bytes and gives back `freed`.
fn note_alloc(size: usize, freed: usize) {
    // A thread being torn down may allocate after its thread-locals are
    // gone; those go uncounted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
    note_live(size as i64 - freed as i64);
}

fn note_live(delta: i64) {
    let _ = LIVE.try_with(|c| c.set(c.get() + delta));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments and returns its result unchanged; the bookkeeping touches only
// a const-initialised, destructor-free thread-local, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size(), 0);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size(), 0);
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_live(-(layout.size() as i64));
        // SAFETY: forwarded unchanged; `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size, layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations per answered operation over `measure` of steady state
/// (after election and `warmup`).
fn allocs_per_op(
    name: &str,
    builder: ClusterBuilder,
    warmup: SimDuration,
    measure: SimDuration,
) -> f64 {
    measured(name, builder, warmup, measure).0
}

/// [`allocs_per_op`], and the cluster after the measured span.
fn measured(
    name: &str,
    builder: ClusterBuilder,
    warmup: SimDuration,
    measure: SimDuration,
) -> (f64, Cluster) {
    let mut cluster = builder.build();
    cluster.elect_leader();
    cluster.advance(warmup);
    let answered = |c: &Cluster| -> u64 { c.per_group_stats().iter().map(|g| g.responses).sum() };
    let ops_before = answered(&cluster);
    let before = ALLOCS.with(Cell::get);
    cluster.advance(measure);
    let allocs = ALLOCS.with(Cell::get) - before;
    let ops = answered(&cluster) - ops_before;
    assert!(ops > 200, "{name}: {ops} operations answered");
    (allocs as f64 / ops as f64, cluster)
}

/// The light WAN load: 10 clients a region, three virtual seconds after
/// a one-second warm-up.
fn light_wan(protocol: ProtocolKind) -> f64 {
    let builder = Cluster::builder(protocol).clients_per_region(10).seed(22);
    let (warmup, measure) = (SimDuration::from_secs(1), SimDuration::from_secs(3));
    allocs_per_op(protocol.name(), builder, warmup, measure)
}

/// The light WAN load on Raft with a 1 ms fsync per entry: a follower
/// pays a barrier per entry behind its ack, so the leader's `pump` cuts
/// each freed window slot a round of its own, for one peer.
fn light_wan_per_entry_fsync() -> f64 {
    let name = "Raft, per-entry fsync";
    let builder = Cluster::builder(ProtocolKind::Raft)
        .clients_per_region(10)
        .durability_config(DurabilityConfig::per_entry(SimDuration::from_millis(1)))
        .seed(22);
    let (warmup, measure) = (SimDuration::from_secs(1), SimDuration::from_secs(3));
    allocs_per_op(name, builder, warmup, measure)
}

/// The ledger's `lan-saturated` Mencius cell in shape: 75 clients a
/// region on a 0.6 ms LAN, 8 B writes only, 300 ms after a 200 ms
/// warm-up. Every client keeps a write in flight, so the conflict index
/// holds one per client, nearly every one on a key of its own.
fn saturated_lan_mencius() -> f64 {
    let builder = Cluster::builder(ProtocolKind::RaftStarMencius)
        .clients_per_region(75)
        .workload(WorkloadConfig {
            read_fraction: 0.0,
            conflict_rate: 0.0,
            value_size: 8,
            ..WorkloadConfig::default()
        })
        .net(NetConfig {
            rtt_ms: [[0.6; 5]; 5],
            ..NetConfig::default()
        })
        .seed(22);
    let (warmup, measure) = (SimDuration::from_millis(200), SimDuration::from_millis(300));
    allocs_per_op("Mencius, saturated LAN", builder, warmup, measure)
}

/// The light WAN load on Raft in four groups whose leaders sit in four
/// regions (`LeaderPlacement::RoundRobin`), so a client's replica in
/// most groups is a follower that forwards, and one range migrates
/// inside the measured span: the coordinator publishes the new map to
/// every client and each adopts it.
fn light_wan_sharded() -> f64 {
    let name = "Raft, 4 groups, a migration";
    let (warmup, measure) = (SimDuration::from_secs(1), SimDuration::from_secs(3));
    let migrate_at = SimDuration::from_millis(2_500);
    let (lo, hi) = ShardRouter::new(WorkloadConfig::default().records, 4).range(1);
    let plan = RebalanceConfig::default().migrate(MigrationSpec {
        at: migrate_at,
        lo,
        hi,
        to_group: 0,
    });
    let builder = Cluster::builder(ProtocolKind::Raft)
        .clients_per_region(10)
        .shard_config(ShardConfig::groups(4).placement(LeaderPlacement::RoundRobin))
        .rebalance_config(plan)
        .seed(22);
    let (per_op, cluster) = measured(name, builder, warmup, measure);
    assert_eq!(
        cluster.migrations_completed(),
        [1],
        "{name}: the migration completed"
    );
    let end = cluster.sim.now().as_nanos();
    assert!(
        (end - measure.as_nanos()..end).contains(&migrate_at.as_nanos()),
        "{name}: the migration starts inside the measured span"
    );
    per_op
}

#[test]
fn steady_state_allocations_per_operation_stay_under_their_ceilings() {
    let light = [
        (ProtocolKind::Raft, 0.026),
        (ProtocolKind::RaftStar, 0.026),
        (ProtocolKind::RaftStarPql, 0.022),
        (ProtocolKind::MultiPaxos, 0.024),
        (ProtocolKind::RaftStarMencius, 0.24),
    ];
    let mut read: Vec<(&str, f64, f64)> = light
        .iter()
        .map(|&(protocol, ceiling)| (protocol.name(), light_wan(protocol), ceiling))
        .collect();
    read.push(("Raft, per-entry fsync", light_wan_per_entry_fsync(), 0.027));
    read.push(("Mencius, saturated LAN", saturated_lan_mencius(), 0.046));
    read.push(("Raft, 4 groups, a migration", light_wan_sharded(), 0.12));
    for &(name, per_op, _) in &read {
        println!("{name}: {per_op:.3} allocations per operation");
    }
    for (name, per_op, ceiling) in read {
        assert!(
            per_op <= ceiling,
            "{name}: {per_op:.3} allocations per answered operation, ceiling {ceiling}"
        );
    }
}

/// Every closed-loop client keeps each completion for the whole run, and
/// every per-group latency window is read off them: the group id rides in
/// the padding after the operation kind, so the record stays 24 B.
#[test]
fn a_completion_is_24_bytes() {
    assert_eq!(std::mem::size_of::<Completion>(), 24);
}

/// A stand-in replica: answers every request at once.
struct Echo;

impl Actor<Msg> for Echo {
    fn on_message(&mut self, ctx: &mut Ctx<Msg>, from: ActorId, msg: Msg) {
        if let Msg::Client(ClientMsg::Request { cmd }) = msg {
            let reply = Reply::Done;
            ctx.send(from, Msg::Client(ClientMsg::Response { id: cmd.id, reply }));
        }
    }

    paxraft::sim::impl_actor_any!();
}

/// A client keeps its answers in blocks (`client.rs`, *Blocks, not one
/// growing list*): answering N operations, every one on the recorded
/// key, costs one allocation per block of each list, 128 completions or
/// 8 history records, plus the few growth steps of each list of blocks,
/// and no handler between two blocks allocates. A `Vec` that doubles
/// took a step at every power of two, copying what it held.
#[test]
fn a_client_keeps_its_answers_in_blocks() {
    let net = NetConfig {
        jitter: 0.0,
        ..NetConfig::default()
    };
    let mut sim: Simulation<Msg> = Simulation::new(net, 7);
    let replica = sim.add_actor(Region::Oregon, Box::new(Echo));
    let workload = WorkloadConfig {
        conflict_rate: 1.0,
        value_size: 8,
        ..WorkloadConfig::default()
    };
    let gen = Generator::new(workload, 0, SimRng::new(3));
    let mut client = WorkloadClient::new(0, replica, Some(gen));
    client.history_key = Some(HOT_KEY);
    let client = sim.add_actor(Region::Oregon, Box::new(Tallied::new(client)));
    sim.run_for(SimDuration::from_secs(2));
    let tallied = sim.actor::<Tallied<WorkloadClient>>(client);
    let answers = tallied.inner.completions.len();
    assert_eq!(
        tallied.inner.history.len(),
        answers,
        "every answer recorded"
    );
    assert_eq!(tallied.handled.len(), answers, "one handler an answer");
    assert!(answers > 2_000, "{answers} answers at a 0.6 ms round trip");
    let blocks_of = |b: usize| answers.div_ceil(b);
    let blocks = blocks_of(128) + blocks_of(8);
    // Growth steps of a list of `b` blocks: at most one per doubling.
    let steps = |b: usize| (usize::BITS - b.leading_zeros()) as usize;
    let mut made = 0;
    for (k, &(_, n)) in tallied.handled.iter().enumerate() {
        let began = usize::from(k % 128 == 0) + usize::from(k % 8 == 0);
        assert!(
            (began as u64..=2 * began as u64).contains(&n),
            "answer {k}: {n} allocations, {began} blocks begun"
        );
        made += n as usize;
    }
    println!("{answers} answers: {made} allocations, {blocks} blocks");
    assert!(
        made <= blocks + steps(blocks_of(128)) + steps(blocks_of(8)),
        "{answers} answers made {made} allocations for {blocks} blocks"
    );
}

/// Raft's log holds what it spans (`log.rs`, *Storage*): the entries'
/// cells, a block at either end and the list of blocks. A `Vec` that
/// doubles held 131,072 cells (8.4 MB) for the 70,737 entries of one
/// `lan-saturated` replica, grew by copying all of them, and kept every
/// byte after compaction.
#[test]
fn a_log_holds_what_it_spans() {
    /// A log entry and a ring cell (`OnceCell<Entry>`, the size `kv`'s
    /// tests pin), and the ring's block: 256 cells behind the two
    /// reference counts that let a round share it.
    const CELL: i64 = 64;
    const BLOCK: i64 = 256 * CELL + 16;
    const ENTRIES: i64 = 70_737;
    /// The list of blocks: a boxed slice per block, at most doubled.
    const DEQUE: i64 = 2 * (ENTRIES / 256 + 2) * 16;
    let live = || LIVE.with(Cell::get);
    // An 8-byte value is held in place: cloning the entry allocates
    // nothing, so what the log holds is its own storage.
    let entry = Entry {
        term: Term(1),
        bal: Term(1),
        cmd: Command::put(CmdId { client: 1, seq: 1 }, 7, vec![0; 8]),
    };
    let before = live();
    LARGEST.with(|c| c.set(0));
    let mut log = Log::new();
    for _ in 0..ENTRIES {
        log.append(entry.clone());
    }
    let held = live() - before;
    println!("{ENTRIES} entries hold {held} B");
    assert!(
        held <= ENTRIES * CELL + 2 * BLOCK + DEQUE,
        "{ENTRIES} entries hold {held} B"
    );
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest as i64 <= BLOCK,
        "growing took one {largest} B allocation"
    );
    log.compact_to(Slot((ENTRIES - 200) as u64));
    assert_eq!(log.len(), 200);
    let held = live() - before;
    println!("200 entries after compaction hold {held} B");
    assert!(
        held <= 2 * BLOCK + DEQUE,
        "200 entries after compaction hold {held} B"
    );
}

/// A state copy is one sorted run per table (`kv.rs`, `KvStore::snapshot`):
/// capturing a 10,000-record store with 100 sessions, decoding its
/// encoding and restoring it each cost one allocation per table, however
/// many records it holds. An 8-byte value is held in place, so copying a
/// record allocates nothing. A tree cost a node per ~11 records, and a
/// stable sort its scratch buffer.
#[test]
fn a_state_copy_costs_one_allocation_per_table() {
    const RECORDS: u64 = 10_000;
    const CLIENTS: u64 = 100;
    let mut kv = KvStore::new();
    for i in 0..RECORDS {
        let id = CmdId {
            client: (i % CLIENTS) as u32 + 1,
            seq: i / CLIENTS + 1,
        };
        kv.apply(&Command::put(id, i, vec![i as u8; 8]));
    }
    let (kv_snap, taken) = counted(|| kv.snapshot());
    let snap = Snapshot {
        last_slot: Slot(RECORDS),
        last_term: Term(1),
        kv: kv_snap,
    };
    assert_eq!(snap.kv.len(), RECORDS as usize);
    assert_eq!(snap.kv.sessions.len(), CLIENTS as usize);
    let bytes = snap.encode();
    let (decoded, decode) = counted(|| Snapshot::decode(&bytes));
    let decoded = decoded.expect("decodes");
    assert_eq!(decoded, snap);
    let mut restored = KvStore::new();
    let ((), restore) = counted(|| restored.restore(&decoded.kv));
    assert_eq!(restored.snapshot(), snap.kv);
    println!("snapshot {taken}, decode {decode}, restore {restore} allocations");
    for (step, n) in [
        ("snapshot", taken),
        ("decode", decode),
        ("restore", restore),
    ] {
        assert!(n <= 2, "{step} of {RECORDS} records made {n} allocations");
    }
}

/// What `f` returns, and the allocations it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// A replication round is a run of the leader's log (`engine/slots.rs`,
/// *Rounds*): cutting one at any cursor and putting it in an `Append`
/// costs no allocation — four rounds of a 10,000-entry log, one within a
/// block, two across a block edge, one a single entry, and the empty
/// heartbeat — on a Raft log at term 1 and on a Raft\* log whose ballots
/// a leader at term 2 rewrote. Each yields what `Log::suffix_from`
/// clones: the entries with their effective ballots at the cut, which
/// the `Append` states as its term.
#[test]
fn a_round_is_a_view_of_the_log_not_a_copy() {
    const ENTRIES: u64 = 10_000;
    /// `(cursor, cap)`: 64 from 5,100 cross the edge at 5,120, the rest
    /// run to the end (9,731..=10,000 cross the edge at 9,984).
    const ROUNDS: [(u64, usize); 5] = [
        (5_100, 64),
        (9_730, usize::MAX),
        (9_990, usize::MAX),
        (9_999, usize::MAX),
        (ENTRIES, usize::MAX),
    ];
    let mut raft = Log::new();
    for seq in 1..=ENTRIES {
        raft.append(Entry {
            term: Term(1),
            bal: Term(1),
            cmd: Command::put(CmdId { client: 1, seq }, seq, vec![0; 8]),
        });
    }
    let mut star = raft.clone();
    star.set_bal_upto(Slot(ENTRIES), Term(2));
    for (name, log, term) in [("Raft", &raft, Term(1)), ("Raft*", &star, Term(2))] {
        let (appends, made) = counted(|| {
            ROUNDS.map(|(prev, cap)| {
                Msg::Raft(RaftMsg::Append {
                    term,
                    prev: Slot(prev),
                    prev_term: Term(1),
                    entries: log.round(Slot(prev), cap),
                    commit: Slot(prev),
                    window_room: true,
                })
            })
        });
        assert_eq!(
            made,
            0,
            "{name}: {made} allocations for {} rounds",
            ROUNDS.len()
        );
        for (append, (prev, cap)) in appends.iter().zip(ROUNDS) {
            let suffix = log.suffix_from(Slot(prev));
            assert_eq!(
                ballots(append).len(),
                cap.min(suffix.len()),
                "{name} after {prev}"
            );
            assert!(
                ballots(append).into_iter().eq(suffix.into_iter().take(cap)),
                "{name} after {prev}"
            );
        }
    }
}

/// An `Append`'s entries as Figure 2 states them: each with the
/// `Append`'s term as its ballot.
fn ballots(append: &Msg) -> Vec<Entry> {
    let Msg::Raft(RaftMsg::Append { term, entries, .. }) = append else {
        unreachable!("an append")
    };
    let bal = |e: &Entry| Entry {
        bal: *term,
        ..e.clone()
    };
    entries.iter().map(|(_, e)| bal(e)).collect()
}

/// What one `forward_pending` did: its allocations, the largest of
/// them in bytes, and the capacity it left the follower's buffer.
type Forwarded = (u64, usize, usize);

/// A follower's engine state that forwards to node 0 after every
/// `every`-th command it is handed.
struct Forwarder {
    core: EngineCore,
    every: u64,
    forwards: Vec<Forwarded>,
}

impl Actor<Msg> for Forwarder {
    fn on_message(&mut self, ctx: &mut Ctx<Msg>, _from: ActorId, msg: Msg) {
        let Msg::Client(ClientMsg::Request { cmd }) = msg else {
            return;
        };
        let due = cmd.id.seq % self.every == 0;
        self.core.pending.push(cmd);
        if due {
            LARGEST.with(|c| c.set(0));
            let ((), made) = counted(|| self.core.forward_pending(ctx));
            let largest = LARGEST.with(Cell::get);
            let capacity = self.core.pending.capacity();
            self.forwards.push((made, largest, capacity));
        }
    }

    paxraft::sim::impl_actor_any!();
}

/// Node 0: keeps the sequence numbers of each forwarded batch, in order,
/// and, if `holds`, the batch itself, which keeps its run of the
/// follower's forward outbox alive.
struct ForwardSink {
    holds: bool,
    batches: Vec<Vec<u64>>,
    held: Vec<Batch>,
}

impl Actor<Msg> for ForwardSink {
    fn on_message(&mut self, _ctx: &mut Ctx<Msg>, _from: ActorId, msg: Msg) {
        if let Msg::Engine(EngineMsg::Forward { cmds, .. }) = msg {
            self.batches.push(cmds.iter().map(|c| c.id.seq).collect());
            if self.holds {
                self.held.push(cmds);
            }
        }
    }

    paxraft::sim::impl_actor_any!();
}

/// Node 1 in Ohio forwarding `count` commands, one a millisecond, in
/// batches of `every` to node 0 in `leader`'s region, which keeps each
/// batch if `holds`: what each forward did, and the batches node 0
/// received.
fn forwarding(
    count: u64,
    every: u64,
    leader: Region,
    holds: bool,
) -> (Vec<Forwarded>, Vec<Vec<u64>>) {
    let mut sim: Simulation<Msg> = Simulation::new(NetConfig::default(), 7);
    let mut cfg = ReplicaConfig::wan_default(NodeId(1), 2);
    cfg.peers = vec![ActorId(0), ActorId(1)];
    cfg.client_base = 2;
    let mut core = EngineCore::new(cfg);
    core.leader_hint = Some(NodeId(0));
    let forwarder = Forwarder {
        core,
        every,
        forwards: Vec::new(),
    };
    let sink = ForwardSink {
        holds,
        batches: Vec::new(),
        held: Vec::new(),
    };
    let leader = sim.add_actor(leader, Box::new(sink));
    let follower = sim.add_actor(Region::Ohio, Box::new(forwarder));
    for seq in 1..=count {
        let cmd = Command::put(CmdId { client: 0, seq }, seq, vec![0; 8]);
        let at = SimDuration::from_millis(seq);
        sim.send_external(follower, Msg::Client(ClientMsg::Request { cmd }), at);
    }
    sim.run_for(SimDuration::from_secs(1));
    let forwards = std::mem::take(&mut sim.actor_mut::<Forwarder>(follower).forwards);
    let batches = std::mem::take(&mut sim.actor_mut::<ForwardSink>(leader).batches);
    (forwards, batches)
}

/// The forward block: its cells behind two reference counts.
const FORWARD_BLOCK: usize = 16 + BATCH_MAX * std::mem::size_of::<OnceCell<Command>>();

/// Most forwards carry one command, and a lone command rides in its
/// `Forward`; a longer batch moves into the follower's forward outbox and
/// the `Forward` is a run of it (`msg.rs`, `Outbox`). To a leader that
/// keeps every batch, forwarding allocates nothing but a fresh block when
/// a batch does not fit the current one: batches of five fill twelve to
/// a 64-cell block, so every twelfth forward takes one block and the
/// others nothing. The follower's buffer is never regrown, and node 0
/// receives every command, in order.
#[test]
fn a_lone_forwarded_command_allocates_nothing() {
    const COUNT: u64 = 200;
    for every in [1, 5] {
        let (forwards, batches) = forwarding(COUNT, every, Region::Oregon, true);
        assert_eq!(forwards.len() as u64, COUNT / every);
        let per_block = BATCH_MAX / every as usize;
        let new_block = |k: usize| every > 1 && k % per_block == 0;
        // The first send of all grows the simulator's list of outputs.
        for (k, &(made, largest, _)) in forwards.iter().enumerate().skip(1) {
            let expected = if new_block(k) {
                (1, FORWARD_BLOCK)
            } else {
                (0, 0)
            };
            assert_eq!(
                (made, largest),
                expected,
                "batches of {every}: forward {k} (allocations, largest in bytes)"
            );
        }
        let blocks = (0..forwards.len()).filter(|&k| new_block(k)).count();
        assert_eq!(blocks, if every > 1 { 4 } else { 0 });
        let capacity = forwards[0].2;
        assert!(
            capacity >= every as usize && forwards.iter().all(|&(_, _, c)| c == capacity),
            "batches of {every}: the follower's buffer was regrown"
        );
        assert!(batches.iter().all(|b| b.len() as u64 == every));
        assert!(batches.concat().into_iter().eq(1..=COUNT), "in order");
    }
}

/// A leader that takes each batch out and drops it lets go of the
/// follower's block, and a full block no view holds is refilled, not
/// replaced (`msg.rs`, `Outbox::cut`). With the leader in the follower's
/// region each batch of five is taken out 0.3 ms after it left, before
/// the next is cut, so 200 commands take one block: the first forward's
/// (which also grows the simulator's list of outputs), and no later
/// forward allocates. Node 0 still receives every command, in order.
#[test]
fn a_forward_block_no_view_holds_is_refilled() {
    const COUNT: u64 = 200;
    let (forwards, batches) = forwarding(COUNT, 5, Region::Ohio, false);
    assert_eq!(forwards.len(), 40);
    assert_eq!(
        forwards[0].1, FORWARD_BLOCK,
        "the first forward takes the block"
    );
    for (k, &(made, largest, _)) in forwards.iter().enumerate().skip(1) {
        assert_eq!(
            (made, largest),
            (0, 0),
            "forward {k} (allocations, largest in bytes)"
        );
    }
    assert!(batches.iter().all(|b| b.len() == 5));
    assert!(batches.concat().into_iter().eq(1..=COUNT), "in order");
}

/// A stand-in acceptor: promises every `Prepare` and, if `acks`,
/// acknowledges every `Accept` that carries instances while reporting
/// nothing executed, so one acknowledging acceptor of five makes no
/// quorum and nothing commits. Keeps the length of the largest round.
struct Puppet {
    acks: bool,
    largest: usize,
}

impl Actor<Msg> for Puppet {
    fn on_message(&mut self, ctx: &mut Ctx<Msg>, from: ActorId, msg: Msg) {
        if let Msg::Paxos(PaxosMsg::Accept { items, .. }) = &msg {
            self.largest = self.largest.max(items.len());
        }
        let reply = match msg {
            Msg::Paxos(PaxosMsg::Prepare { ballot, .. }) => PaxosMsg::PrepareOk {
                ballot,
                entries: Vec::new(),
                log_tail: Slot::NONE,
                floor: Slot::NONE,
            },
            Msg::Paxos(PaxosMsg::Accept { ballot, items, .. })
                if self.acks && !items.is_empty() =>
            {
                PaxosMsg::AcceptOk {
                    ballot,
                    slots: items.iter().map(|(s, _)| s).collect(),
                    exec: Slot::NONE,
                    holders: 0,
                }
            }
            _ => return,
        };
        ctx.send(from, Msg::Paxos(reply));
    }

    paxraft::sim::impl_actor_any!();
}

/// What one handler of a [`Counted`] replica did.
#[derive(Debug, Clone, Copy)]
struct Handled {
    /// A timer fired (the heartbeat, the batch timer), not a message.
    timer: bool,
    /// The message was a peer's: an `AcceptOk` to a MultiPaxos proposer,
    /// an `Accept` to a MultiPaxos acceptor, a `Suggest` to a Mencius
    /// owner, an `Append` to a Raft follower.
    peer: bool,
    /// Allocation calls the handler made.
    allocs: u64,
    /// Replication rounds it shipped through the window.
    rounds: u64,
}

/// A replica whose handlers are counted.
struct Counted<P: ProtocolRules> {
    inner: ReplicaEngine<P>,
    handled: Vec<Handled>,
}

impl<P: ProtocolRules> Counted<P> {
    fn new(inner: ReplicaEngine<P>) -> Self {
        Counted {
            inner,
            handled: Vec::new(),
        }
    }

    fn run(&mut self, timer: bool, peer: bool, f: impl FnOnce(&mut ReplicaEngine<P>)) {
        let rounds = self.inner.pipeline_stats().rounds_sent;
        let ((), allocs) = counted(|| f(&mut self.inner));
        let rounds = self.inner.pipeline_stats().rounds_sent - rounds;
        self.handled.push(Handled {
            timer,
            peer,
            allocs,
            rounds,
        });
    }
}

impl<P: ProtocolRules> Actor<Msg> for Counted<P> {
    fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<Msg>, from: ActorId, msg: Msg) {
        let peer = matches!(
            msg,
            Msg::Paxos(PaxosMsg::AcceptOk { .. } | PaxosMsg::Accept { .. })
                | Msg::Mencius(MenciusMsg::Suggest { .. })
                | Msg::Raft(RaftMsg::Append { .. })
        );
        self.run(false, peer, |inner| inner.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<Msg>, token: u64) {
        self.run(true, false, |inner| inner.on_timer(ctx, token));
    }

    paxraft::sim::impl_actor_any!();
}

/// A real MultiPaxos proposer (node 0, Oregon) among four puppets, the
/// first of which (Ohio, a 52 ms round trip) acknowledges, run until its
/// phase 1 has won. Every handler of the proposer is counted from then on.
fn paxos_proposer_among_puppets() -> Simulation<Msg> {
    const N: usize = 5;
    let mut sim = Simulation::new(NetConfig::default(), 7);
    let mut cfg = ReplicaConfig::wan_default(NodeId(0), N);
    cfg.peers = (0..N).map(ActorId).collect();
    cfg.client_base = N;
    cfg.initial_leader = Some(NodeId(0));
    let proposer = Counted::new(MultiPaxosReplica::new(cfg));
    sim.add_actor(Region::Oregon, Box::new(proposer));
    for (i, region) in Region::ALL.into_iter().enumerate().skip(1) {
        let puppet = Puppet {
            acks: i == 1,
            largest: 0,
        };
        sim.add_actor(region, Box::new(puppet));
    }
    sim.run_for(SimDuration::from_secs(1));
    let proposer = sim.actor_mut::<Counted<PaxosRules>>(ActorId(0));
    assert!(proposer.inner.is_leader(), "phase 1 won");
    proposer.handled.clear();
    sim
}

/// An idle proposer's heartbeat re-sends nothing, and every acceptor
/// shares the one empty round: no allocation, heartbeat after heartbeat
/// (`Arc<[_]>` of length 0 collected from an iterator allocates its
/// header; the shared empty one does not).
#[test]
fn an_idle_multipaxos_heartbeat_allocates_nothing() {
    let mut sim = paxos_proposer_among_puppets();
    sim.run_for(SimDuration::from_secs(2));
    let handled = &sim.actor::<Counted<PaxosRules>>(ActorId(0)).handled;
    let beats = handled.iter().filter(|h| h.timer).count();
    assert!(beats >= 10, "{beats} heartbeats in two idle seconds");
    let made: u64 = handled.iter().map(|h| h.allocs).sum();
    assert_eq!(made, 0, "{made} allocations over {beats} idle heartbeats");
}

/// A MultiPaxos round is a view of the proposer's instance table
/// (`engine/slots.rs`, *Rounds*), as a Raft round is of the
/// leader's log: proposing a batch, pumping a backlog to one acceptor
/// and re-sending every uncommitted instance on the heartbeat allocate
/// nothing. Writes arrive a millisecond apart, so the acknowledging
/// acceptor's window (8 rounds) fills well inside its 52 ms round trip;
/// the batches cut meanwhile skip it, and each `AcceptOk` that frees a
/// slot pumps that backlog to it in one round (`pump_accepts`). One
/// acceptor of four acknowledges, so nothing is chosen and every
/// heartbeat re-sends all that was proposed: the largest round a puppet
/// sees is all of it. Forty writes first take the table's first block
/// and grow each acceptor's window record; the 200 counted ones land in
/// that block. A round copied in one allocation of exact size made each
/// of these handlers one allocation a round; gathered in a `Vec` and
/// copied, two.
#[test]
fn a_multipaxos_round_is_a_view_of_the_table_not_a_copy() {
    let mut sim = paxos_proposer_among_puppets();
    let write = |sim: &mut Simulation<Msg>, seqs: std::ops::RangeInclusive<u64>| {
        let first = *seqs.start();
        for seq in seqs {
            let cmd = Command::put(CmdId { client: 0, seq }, seq, vec![0; 8]);
            let at = SimDuration::from_millis(seq - first + 1);
            sim.send_external(ActorId(0), Msg::Client(ClientMsg::Request { cmd }), at);
        }
        sim.run_for(SimDuration::from_secs(1));
    };
    write(&mut sim, 1..=40);
    sim.actor_mut::<Counted<PaxosRules>>(ActorId(0))
        .handled
        .clear();
    write(&mut sim, 41..=240);
    let proposer = sim.actor::<Counted<PaxosRules>>(ActorId(0));
    // A heartbeat's re-send goes outside the window, so a timer that
    // shipped rounds through it was the batch timer's proposal.
    let handled = || proposer.handled.iter();
    let proposed = handled().filter(|h| !h.peer && h.rounds > 0).count();
    let pumped = handled().filter(|h| h.peer && h.rounds > 0).count();
    let beats = handled().filter(|h| h.timer && h.rounds == 0).count();
    assert!(
        proposed >= 10 && pumped >= 10 && beats >= 5,
        "{proposed} proposed, {pumped} pumped, {beats} other timers"
    );
    assert!(
        proposer.inner.pipeline_stats().peak_pumped_round > 1,
        "a pumped round carries a backlog"
    );
    let largest = sim.actor::<Puppet>(ActorId(2)).largest;
    assert_eq!(largest, 240, "a heartbeat re-sends every instance");
    let made: Vec<&Handled> = proposer.handled.iter().filter(|h| h.allocs > 0).collect();
    assert!(made.is_empty(), "handlers that allocated: {made:?}");
}

/// Replicas in the Mencius tests: the owner and two stand-ins.
const MENCIUS_N: u64 = 3;

/// A stand-in Mencius owner: keeps every message the real owner sends it,
/// so each of its rounds stays in flight, acknowledges every round and
/// reports everything executed. Node 2 accounts for all its own slots as
/// no-ops; node 1 suggests a value of its own in its slot just below each
/// round (in a block that round holds), accounting for its slots up to
/// there, and its ack rides that `Suggest`.
struct MenciusPuppet {
    me: u64,
    held: Vec<Msg>,
}

impl Actor<Msg> for MenciusPuppet {
    fn on_message(&mut self, ctx: &mut Ctx<Msg>, from: ActorId, msg: Msg) {
        if let Msg::Mencius(MenciusMsg::Suggest { term, items, .. }) = &msg {
            let first = items.iter().next().map_or(0, |(s, _)| s.0);
            let ack = Ack {
                term: *term,
                slots: items.iter().map(|(s, _)| s).collect(),
            };
            let coord = |watermark| Coord {
                from: Slot(1),
                watermark: Slot(watermark),
                commits: Slots::new(),
                exec: Slot(u64::MAX / 2),
                ack: Some(ack),
            };
            let below = (first + self.me)
                .checked_sub(MENCIUS_N)
                .filter(|_| self.me == 1);
            let reply = match below {
                Some(slot) => {
                    let cmd = Command::get(
                        CmdId {
                            client: 99,
                            seq: slot,
                        },
                        slot,
                    );
                    MenciusMsg::Suggest {
                        term: *term,
                        items: [(Slot(slot), cmd)].into_iter().collect(),
                        coord: coord(slot + 1),
                    }
                }
                None if self.me == 1 => MenciusMsg::Notice { coord: coord(1) },
                None => MenciusMsg::Notice {
                    coord: coord(u64::MAX / 2),
                },
            };
            ctx.send(from, Msg::Mencius(reply));
        }
        self.held.push(msg);
    }

    paxraft::sim::impl_actor_any!();
}

/// Takes the owner's answers to its client.
struct Sink;

impl Actor<Msg> for Sink {
    fn on_message(&mut self, _ctx: &mut Ctx<Msg>, _from: ActorId, _msg: Msg) {}

    paxraft::sim::impl_actor_any!();
}

/// A real Mencius owner (node 0, Oregon) between two stand-ins (Ohio,
/// Ireland) and a client that takes its answers. Every handler of the
/// owner is counted.
fn mencius_owner_among_puppets() -> Simulation<Msg> {
    let n = MENCIUS_N as usize;
    let mut sim = Simulation::new(NetConfig::default(), 7);
    let mut cfg = ReplicaConfig::wan_default(NodeId(0), n);
    cfg.peers = (0..n).map(ActorId).collect();
    cfg.client_base = n;
    sim.add_actor(
        Region::Oregon,
        Box::new(Counted::new(MenciusReplica::new(cfg))),
    );
    for (me, region) in [(1, Region::Ohio), (2, Region::Ireland)] {
        let held = Vec::new();
        sim.add_actor(region, Box::new(MenciusPuppet { me, held }));
    }
    sim.add_actor(Region::Oregon, Box::new(Sink));
    sim
}

/// A Mencius round is a view of the owner's instance table, one slot in
/// `n` (`engine/slots.rs`, *Rounds*), as a MultiPaxos round is of
/// the proposer's: proposing a batch and suggesting it to both peers
/// allocates nothing, and neither does storing a peer's value in a block
/// the owner's rounds in flight hold (every round stays held: the
/// stand-ins keep what they receive). Writes arrive a millisecond apart,
/// so while the window waits for acks the batch timer cuts rounds of
/// several. Sixty-five writes first take the table's first block and
/// grow the owner's suggestion times, key table and window records; the
/// 20 counted ones land in that block (own slot 253 of 256). A round
/// copied into a private block was one allocation a round, and a peer's
/// value stored through a write to a held block copied that block.
#[test]
fn a_mencius_round_is_a_view_of_the_table_not_a_copy() {
    let mut sim = mencius_owner_among_puppets();
    let write = |sim: &mut Simulation<Msg>, seqs: std::ops::RangeInclusive<u64>| {
        let first = *seqs.start();
        for seq in seqs {
            let cmd = Command::put(CmdId { client: 0, seq }, seq, vec![0; 8]);
            let at = SimDuration::from_millis(seq - first + 1);
            sim.send_external(ActorId(0), Msg::Client(ClientMsg::Request { cmd }), at);
        }
        sim.run_for(SimDuration::from_secs(1));
    };
    write(&mut sim, 1..=65);
    sim.actor_mut::<Counted<MenciusRules>>(ActorId(0))
        .handled
        .clear();
    sim.actor_mut::<MenciusPuppet>(ActorId(2)).held.clear();
    write(&mut sim, 66..=85);
    let owner = sim.actor::<Counted<MenciusRules>>(ActorId(0));
    let handled = || owner.handled.iter();
    let proposed = handled().filter(|h| h.rounds > 0).count();
    let stored = handled().filter(|h| h.peer).count();
    assert!(
        proposed >= 10 && stored >= 10,
        "{proposed} proposed, {stored} peer values stored"
    );
    let rounds = sim.actor::<MenciusPuppet>(ActorId(2)).held.iter();
    let largest = rounds
        .filter_map(|m| match m {
            Msg::Mencius(MenciusMsg::Suggest { items, .. }) => Some(items.len()),
            _ => None,
        })
        .max();
    assert!(largest > Some(1), "a batch of several: {largest:?}");
    let made: Vec<&Handled> = handled().filter(|h| h.allocs > 0).collect();
    assert!(made.is_empty(), "handlers that allocated: {made:?}");
}

/// A real Raft cluster of five on the default WAN whose leader is node 0
/// (Oregon) and whose follower node 1 (Ohio) is counted, with a client
/// that takes the leader's answers, run until the leader is elected.
fn raft_follower_among_replicas() -> Simulation<Msg> {
    const N: usize = 5;
    let mut sim = Simulation::new(NetConfig::default(), 7);
    for (i, region) in Region::ALL.into_iter().enumerate() {
        let mut cfg = ReplicaConfig::wan_default(NodeId(i as u32), N);
        cfg.peers = (0..N).map(ActorId).collect();
        cfg.client_base = N;
        cfg.initial_leader = Some(NodeId(0));
        let replica = RaftReplica::new(cfg);
        if i == 1 {
            sim.add_actor(region, Box::new(Counted::new(replica)));
        } else {
            sim.add_actor(region, Box::new(replica));
        }
    }
    sim.add_actor(Region::Oregon, Box::new(Sink));
    sim.run_for(SimDuration::from_secs(1));
    assert!(sim.actor::<RaftReplica>(ActorId(0)).is_leader(), "elected");
    sim
}

/// A Raft follower's log holds its leader's blocks (`log.rs`,
/// *Storage*): handling an `Append` takes the cells of the leader's block
/// the round points at, and the next block whole when the round reaches
/// it, so appending allocates nothing — where a copy took a 16,400 B
/// block per 256 slots. Writes go to eight keys a millisecond apart: the
/// first 1,040 fill five blocks (the follower's list of blocks then has
/// room for eight) and the next 1,000, counted, cross three block edges.
#[test]
fn a_raft_follower_appends_without_allocating() {
    let mut sim = raft_follower_among_replicas();
    let write = |sim: &mut Simulation<Msg>, seqs: std::ops::RangeInclusive<u64>| {
        let first = *seqs.start();
        for seq in seqs {
            let cmd = Command::put(CmdId { client: 0, seq }, seq % 8, vec![0; 8]);
            let at = SimDuration::from_millis(seq - first + 1);
            sim.send_external(ActorId(0), Msg::Client(ClientMsg::Request { cmd }), at);
        }
        sim.run_for(SimDuration::from_secs(2));
    };
    write(&mut sim, 1..=1_040);
    let follower = sim.actor_mut::<Counted<RaftRules>>(ActorId(1));
    let before = follower.inner.log().last_index();
    follower.handled.clear();
    write(&mut sim, 1_041..=2_040);
    let follower = sim.actor::<Counted<RaftRules>>(ActorId(1));
    let after = follower.inner.log().last_index();
    let edges = after.0 / 256 - before.0 / 256;
    assert!(
        after.0 - before.0 >= 1_000 && edges >= 3,
        "{before}..{after}: {edges} block edges"
    );
    let appends = || follower.handled.iter().filter(|h| h.peer);
    assert!(appends().count() >= 100, "{} appends", appends().count());
    let made: Vec<&Handled> = appends().filter(|h| h.allocs > 0).collect();
    assert!(made.is_empty(), "appends that allocated: {made:?}");
}

/// A real MultiPaxos cluster of five on the default WAN whose proposer is
/// node 0 (Oregon) and whose acceptor node 1 (Ohio) is counted, with a
/// client that takes the proposer's answers, run until phase 1 has won.
fn paxos_acceptor_among_replicas() -> Simulation<Msg> {
    const N: usize = 5;
    let mut sim = Simulation::new(NetConfig::default(), 7);
    for (i, region) in Region::ALL.into_iter().enumerate() {
        let mut cfg = ReplicaConfig::wan_default(NodeId(i as u32), N);
        cfg.peers = (0..N).map(ActorId).collect();
        cfg.client_base = N;
        cfg.initial_leader = Some(NodeId(0));
        let replica = MultiPaxosReplica::new(cfg);
        if i == 1 {
            sim.add_actor(region, Box::new(Counted::new(replica)));
        } else {
            sim.add_actor(region, Box::new(replica));
        }
    }
    sim.add_actor(Region::Oregon, Box::new(Sink));
    sim.run_for(SimDuration::from_secs(1));
    let proposer = sim.actor::<MultiPaxosReplica>(ActorId(0));
    assert!(proposer.is_leader(), "phase 1 won");
    sim
}

/// A MultiPaxos acceptor's table holds its proposer's blocks
/// (`engine/paxos_family.rs`, *Rounds*), as a Raft follower's log holds
/// its leader's: handling an `Accept` takes the cells of the proposer's
/// block the round points at, and the next block whole when the round
/// reaches it, so accepting allocates nothing — where a copy took an
/// 18,448 B block of 72 B instances per 256 slots. Writes go to eight
/// keys a millisecond apart: the first 1,040 fill five blocks (the
/// acceptor's list of blocks then has room for eight) and the next 1,000,
/// counted, cross three block edges.
#[test]
fn a_multipaxos_acceptor_accepts_without_allocating() {
    let mut sim = paxos_acceptor_among_replicas();
    let write = |sim: &mut Simulation<Msg>, seqs: std::ops::RangeInclusive<u64>| {
        let first = *seqs.start();
        for seq in seqs {
            let cmd = Command::put(CmdId { client: 0, seq }, seq % 8, vec![0; 8]);
            let at = SimDuration::from_millis(seq - first + 1);
            sim.send_external(ActorId(0), Msg::Client(ClientMsg::Request { cmd }), at);
        }
        sim.run_for(SimDuration::from_secs(2));
    };
    write(&mut sim, 1..=1_040);
    let acceptor = sim.actor_mut::<Counted<PaxosRules>>(ActorId(1));
    let before = acceptor.inner.applied_index();
    acceptor.handled.clear();
    write(&mut sim, 1_041..=2_040);
    let acceptor = sim.actor::<Counted<PaxosRules>>(ActorId(1));
    let after = acceptor.inner.applied_index();
    let edges = after.0 / 256 - before.0 / 256;
    assert!(
        after.0 - before.0 >= 1_000 && edges >= 3,
        "{before}..{after}: {edges} block edges"
    );
    let accepts = || acceptor.handled.iter().filter(|h| h.peer);
    assert!(accepts().count() >= 100, "{} accepts", accepts().count());
    let made: Vec<&Handled> = accepts().filter(|h| h.allocs > 0).collect();
    assert!(made.is_empty(), "accepts that allocated: {made:?}");
}

/// Any actor whose handlers are counted: what each message it took was
/// (a response's id, if it was one) and the allocations handling it made.
struct Tallied<A> {
    inner: A,
    handled: Vec<(Option<CmdId>, u64)>,
}

impl<A: Actor<Msg>> Tallied<A> {
    fn new(inner: A) -> Self {
        Tallied {
            inner,
            handled: Vec::new(),
        }
    }
}

impl<A: Actor<Msg>> Actor<Msg> for Tallied<A> {
    fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<Msg>, from: ActorId, msg: Msg) {
        let id = match &msg {
            Msg::Client(ClientMsg::Response { id, .. }) => Some(*id),
            _ => None,
        };
        let ((), made) = counted(|| self.inner.on_message(ctx, from, msg));
        self.handled.push((id, made));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<Msg>, token: u64) {
        self.inner.on_timer(ctx, token);
    }

    paxraft::sim::impl_actor_any!();
}

/// A stand-in for every replica of every group: answers each migration
/// command at once, and a freeze with its install as well, as if the
/// export had committed at the destination.
struct Migrator;

impl Actor<Msg> for Migrator {
    fn on_message(&mut self, ctx: &mut Ctx<Msg>, from: ActorId, msg: Msg) {
        let Msg::Client(ClientMsg::Request { cmd }) = msg else {
            return;
        };
        let mut done = vec![cmd.id];
        if matches!(cmd.op, Op::FreezeRange(_)) {
            done.push(install_cmd_id(cmd.id.client, version_of_cmd(cmd.id)));
        }
        for id in done {
            ctx.send(
                from,
                Msg::Client(ClientMsg::Response {
                    id,
                    reply: Reply::Done,
                }),
            );
        }
    }

    paxraft::sim::impl_actor_any!();
}

/// Two migrations published to `clients` scripted clients in two
/// groups: the allocations of the coordinator's handler that published
/// the second map (the first also grows the simulator's list of
/// outputs), and of every handler of every client.
fn publishing(clients: usize) -> (u64, Vec<u64>) {
    let net = NetConfig {
        jitter: 0.0,
        ..NetConfig::default()
    };
    let mut sim: Simulation<Msg> = Simulation::new(net, 7);
    let migrator = sim.add_actor(Region::Oregon, Box::new(Migrator));
    let router = ShardRouter::new(1_000, 2);
    let ids: Vec<ActorId> = (0..clients)
        .map(|c| {
            let mut client = WorkloadClient::new(c as u32, migrator, None);
            client.shard = Some(ClientRouting {
                router: router.clone(),
                targets: vec![migrator; 2],
            });
            let region = Region::ALL[c % Region::ALL.len()];
            sim.add_actor(region, Box::new(Tallied::new(client)))
        })
        .collect();
    let plan = [(0, 100, 200), (1_000, 300, 400)].map(|(at, lo, hi)| MigrationSpec {
        at: SimDuration::from_millis(at),
        lo,
        hi,
        to_group: 1,
    });
    let coord_id = clients as u32;
    let targets = vec![vec![migrator]; 2];
    let coord = RebalanceCoordinator::new(coord_id, router, plan.to_vec(), targets, ids.clone());
    let coord = sim.add_actor(Region::Oregon, Box::new(Tallied::new(coord)));
    sim.run_for(SimDuration::from_secs(3));
    let coordinator = sim.actor::<Tallied<RebalanceCoordinator>>(coord);
    assert_eq!(coordinator.inner.completed, [1, 2]);
    let published = coordinator.inner.router().clone();
    let second = Some(install_cmd_id(coord_id, 2));
    let publish: Vec<u64> = coordinator
        .handled
        .iter()
        .filter(|(id, _)| *id == second)
        .map(|&(_, made)| made)
        .collect();
    assert_eq!(publish.len(), 1, "one handler published the second map");
    let mut made = Vec::new();
    for id in ids {
        let client = sim.actor::<Tallied<WorkloadClient>>(id);
        assert_eq!(client.inner.router_updates, 2);
        assert_eq!(
            client.inner.shard.as_ref().map(|s| &s.router),
            Some(&published)
        );
        made.extend(client.handled.iter().map(|&(_, n)| n));
    }
    (publish[0], made)
}

/// A partition map is shared (`shard/router.rs`): the coordinator
/// publishing it to every client and each client adopting it allocate
/// nothing per client. Publishing to 64 clients makes the allocations
/// publishing to 4 makes (the new map's own segment list), and no
/// client's handler allocates. A router of two `Vec`s copied twice per
/// client: once into the update, once when the client took it.
#[test]
fn publishing_a_partition_map_allocates_nothing_per_client() {
    let (few, few_clients) = publishing(4);
    let (many, many_clients) = publishing(64);
    println!("publishing a map: {few} allocations to 4 clients, {many} to 64");
    assert_eq!(many, few, "publishing to 64 clients against 4");
    assert_eq!(many_clients.len(), 2 * 64, "two updates a client");
    assert!(
        few_clients.iter().chain(&many_clients).all(|&n| n == 0),
        "clients' handlers allocated: {many_clients:?}"
    );
}
