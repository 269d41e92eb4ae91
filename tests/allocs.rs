//! Tier-1 gate with a memory for one number: heap allocations per answered
//! operation in steady-state replication, per rules file.
//!
//! The ledger reports `allocs_per_op` per workload, but a per-PR bound has
//! no memory: a site that allocates per message can come back a fifth at a
//! time. This test pins a ceiling per protocol at about 1.25 x what the
//! commit that took the per-message allocations off the replication path
//! measured (PR 22: a round's payload is built once, a list of slots is a
//! run, buffers go back where they came from), on a fixed-seed 5-replica
//! closed-loop cluster on the default WAN. The counts repeat to the third
//! decimal run to run (`HashMap` hasher seeds move them by parts in 10^4).
//!
//! | protocol   | parent (PR 19) | PR 22 | ceiling |
//! |------------|---------------:|------:|--------:|
//! | Raft       |          3.334 | 1.232 |    1.55 |
//! | Raft\*     |          1.867 | 1.232 |    1.55 |
//! | Raft\*-PQL |          1.226 | 0.322 |    0.41 |
//! | MultiPaxos |          7.640 | 2.068 |    2.60 |
//! | Mencius    |         19.894 | 4.230 |    5.30 |
//!
//! Every parent reading exceeds its ceiling. The load is light on purpose
//! (10 clients a region, batches of one or two), so per-message costs are
//! not hidden by batching; the ledger's `wan-paper` cells at 50 clients a
//! region read 0.4-0.9. What is left here: the forwarded batch and the
//! round it becomes (one allocation each, owned by the message that
//! carries them), MultiPaxos rounds pumped to one acceptor (two), and at
//! this load Mencius's stalled-peer replay and decision lists whose slots
//! are not evenly spaced.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use paxraft::core::harness::{Cluster, ProtocolKind};
use paxraft::sim::time::SimDuration;

thread_local! {
    /// Allocation calls made by this thread (`cargo test` runs tests on
    /// parallel threads; a shared counter would mix them).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting calls per thread.
struct CountingAlloc;

fn note_alloc() {
    // A thread being torn down may allocate after its thread-locals are
    // gone; those go uncounted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments and returns its result unchanged; the bookkeeping touches only
// a const-initialised, destructor-free thread-local, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations per answered operation over three virtual seconds of
/// steady state (after election and a one-second warm-up).
fn allocs_per_op(protocol: ProtocolKind) -> f64 {
    let mut cluster = Cluster::builder(protocol)
        .clients_per_region(10)
        .seed(22)
        .build();
    cluster.elect_leader();
    cluster.advance(SimDuration::from_secs(1));
    let answered = |c: &Cluster| -> u64 { c.per_group_stats().iter().map(|g| g.responses).sum() };
    let ops_before = answered(&cluster);
    let before = ALLOCS.with(Cell::get);
    cluster.advance(SimDuration::from_secs(3));
    let allocs = ALLOCS.with(Cell::get) - before;
    let ops = answered(&cluster) - ops_before;
    assert!(ops > 200, "{}: {ops} operations answered", protocol.name());
    allocs as f64 / ops as f64
}

#[test]
fn steady_state_allocations_per_operation_stay_under_their_ceilings() {
    let ceilings = [
        (ProtocolKind::Raft, 1.55),
        (ProtocolKind::RaftStar, 1.55),
        (ProtocolKind::RaftStarPql, 0.41),
        (ProtocolKind::MultiPaxos, 2.60),
        (ProtocolKind::RaftStarMencius, 5.30),
    ];
    let read = ceilings.map(|(protocol, ceiling)| (protocol, allocs_per_op(protocol), ceiling));
    for (protocol, per_op, _) in read {
        println!("{}: {per_op:.3} allocations per operation", protocol.name());
    }
    for (protocol, per_op, ceiling) in read {
        assert!(
            per_op <= ceiling,
            "{}: {per_op:.3} allocations per answered operation, ceiling {ceiling}",
            protocol.name()
        );
    }
}
