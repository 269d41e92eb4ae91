//! The single snapshot-transfer implementation shared by every
//! protocol, where the two family bases meet: outbound chunked shipping
//! (rate-limited per peer), the checkpoint step of compaction, the
//! install step of a transfer and its acknowledgement.
//!
//! Inbound reassembly and installation dispatch live in the engine's
//! message loop ([`super::ReplicaEngine`]); the encoding, chunking and
//! per-sender reassembly primitives live in [`crate::snapshot`].

use paxraft_sim::sim::{ActorId, Ctx};

use crate::msg::{EngineMsg, Msg};
use crate::snapshot::{self, Snapshot};
use crate::types::{NodeId, Slot, Term};

use super::EngineCore;

/// Snapshots the state machine as covering `point` and charges the CPU
/// cost of producing it.
fn snapshot_at(core: &EngineCore, ctx: &mut Ctx<Msg>, point: (Slot, Term)) -> Snapshot {
    let (last_slot, last_term) = point;
    let snap = Snapshot {
        last_slot,
        last_term,
        kv: core.kv.snapshot(),
    };
    ctx.charge(core.cfg.costs.snapshot_cost(snap.size_bytes()));
    snap
}

/// Ships the current state-machine snapshot to `peer` in chunks,
/// rate-limited to one transfer per retry interval. `point` is the
/// `(slot, term)` the snapshot covers (the applied prefix; the Paxos
/// family passes [`Term::ZERO`] for the term) and `seal` the sender's
/// term/ballot stamped on each chunk. Returns the snapshot point, or
/// `None` when a transfer to that peer is already in flight.
pub fn ship_snapshot(
    core: &mut EngineCore,
    ctx: &mut Ctx<Msg>,
    peer: NodeId,
    point: (Slot, Term),
    seal: Term,
) -> Option<Slot> {
    if !core
        .snap_send
        .try_begin(peer.0 as usize, ctx.now(), core.cfg.retry_interval)
    {
        return None;
    }
    let snap = snapshot_at(core, ctx, point);
    core.snap_stats.note_sent(snap.size_bytes());
    let bytes = snap.encode();
    for (offset, data) in snapshot::chunks(&bytes, core.cfg.snapshot.chunk_bytes) {
        ctx.send(
            core.cfg.peer(peer),
            Msg::Engine(EngineMsg::SnapshotChunk {
                group: core.cfg.group_id(),
                seal,
                last_slot: snap.last_slot,
                last_term: snap.last_term,
                offset,
                total: bytes.len(),
                header_bytes: core.snap_wire.0,
                data: data.to_vec(),
            }),
        );
    }
    Some(snap.last_slot)
}

/// The checkpoint step of compaction, the same in both families:
/// snapshot the state machine at the applied `point` and make that the
/// durable form of the prefix it covers. Each base follows it with its
/// own discard (log prefix, instance cells).
///
/// The snapshot file replaces the discarded entries as their durable
/// form, so its write is charged. It is modeled atomic (write-temp +
/// fsync + rename): recovering a *newer* snapshot of committed state is
/// always safe, so no ack waits on this fsync.
pub(crate) fn checkpoint(core: &mut EngineCore, ctx: &mut Ctx<Msg>, point: (Slot, Term)) {
    let snap = snapshot_at(core, ctx, point);
    core.durable_write(ctx, snap.size_bytes(), 1);
    core.stable_snap = Some(snap);
    core.snap_stats.compactions += 1;
}

/// Acknowledges a snapshot transfer: `upto` is the applied prefix the
/// receiver now stands at, `seal` its term/ballot. The ack attests to
/// holding the snapshot, so it waits for the install's fsync.
pub(crate) fn ack_snapshot(
    core: &mut EngineCore,
    ctx: &mut Ctx<Msg>,
    to: ActorId,
    seal: Term,
    upto: Slot,
) {
    let ack = Msg::Engine(EngineMsg::SnapshotAck {
        group: core.cfg.group_id(),
        seal,
        upto,
        header_bytes: core.snap_wire.1,
    });
    core.ack_after_sync(ctx, to, ack);
}

/// The install step of a state transfer, the same in both families:
/// restore the state machine from a snapshot ahead of the applied prefix
/// and make it this replica's recovery floor. The ack attests to holding
/// it, so the write is charged here and the ack ([`ack_snapshot`])
/// deferred behind its fsync. Each base follows with its own
/// reconciliation (log prefix or suffix, instance cells).
pub(crate) fn install(core: &mut EngineCore, ctx: &mut Ctx<Msg>, snap: Snapshot) {
    ctx.charge(core.cfg.costs.snapshot_cost(snap.size_bytes()));
    core.durable_write(ctx, snap.size_bytes(), 1);
    core.kv.restore(&snap.kv);
    core.stable_snap = Some(snap);
    core.snap_stats.snapshots_installed += 1;
}
