//! Wire messages for all protocols.
//!
//! One top-level [`Msg`] enum lets every protocol share the simulator's
//! network. The Raft-family messages carry the optional fields the ported
//! optimizations add (Figure 8's lease `holders`, Appendix A.4's
//! `isDefault` flag), mirroring how the porting method only ever *adds*
//! message content.
//!
//! # A list of slots is a run
//!
//! The Paxos family names slots where Raft names one index: an `acceptOK`
//! lists the instances it accepted, a `Learn` the instances chosen, a
//! Mencius stream element the decisions it carries. Every fresh round, its
//! acknowledgement and its decision name consecutive slots (MultiPaxos) or
//! slots `n` apart (one Mencius owner's), so [`Slots`] holds *first,
//! length, stride* in place and touches the heap only for what is not a
//! run — a pump over committed gaps, a retransmission by age. The size
//! model does not learn this: `size_bytes()` keeps charging 8 B a slot
//! from [`Slots::len`], because the wire *model* is the paper's message,
//! not this process's layout, and a range-encoded wire size would move
//! every virtual number.

use std::sync::Arc;

use crate::kv::{CmdId, Command, Reply};
use crate::log::Entry;
use crate::types::{NodeId, Slot, Term};
use paxraft_sim::sim::Payload;

/// Top-level message type carried by the simulated network.
#[derive(Debug, Clone)]
pub enum Msg {
    /// Client-replica traffic.
    Client(ClientMsg),
    /// Protocol-agnostic replica-engine traffic (request forwarding and
    /// chunked snapshot transfer) shared by every protocol; see
    /// [`EngineMsg`].
    Engine(EngineMsg),
    /// MultiPaxos traffic (Figure 1).
    Paxos(PaxosMsg),
    /// Raft / Raft* / Raft*-PQL traffic (Figure 2).
    Raft(RaftMsg),
    /// Quorum-lease maintenance (Paxos Quorum Lease / Leader Lease).
    Lease(LeaseMsg),
    /// Raft*-Mencius traffic (Appendix A.4).
    Mencius(MenciusMsg),
}

/// The shared envelope for the engine-level traffic every protocol
/// needs. Under the Figure-3 vocabulary map these used to exist in three
/// spellings (Raft `InstallSnapshot`/`SnapshotAck`, Paxos and Mencius
/// `Checkpoint`/`CheckpointOk`, plus two `Forward` copies); the
/// [`crate::engine`] refactor collapses them into one wire form with a
/// protocol-interpreted `seal` field (Raft term / Paxos ballot;
/// [`Term::ZERO`] for Mencius, whose multi-leader transfers are
/// ballot-free).
#[derive(Debug, Clone)]
pub enum EngineMsg {
    /// Follower-to-leader client-request forwarding (etcd-style batching;
    /// Section 5 "Implementation").
    Forward {
        /// Replica-group id this batch belongs to. In a sharded cluster
        /// every engine-level message carries its group so forwarding
        /// traffic stays group-isolated even if a routing table is
        /// stale; unsharded clusters always stamp group `0`.
        group: u32,
        /// Wire-header bytes of this Forward's spelling: `8` for the
        /// unsharded format, `8 +` the group-header surcharge
        /// ([`crate::costs::CostModel::shard_group_header`]) once a
        /// cluster runs more than one group and the id must travel.
        header_bytes: usize,
        /// The batched commands.
        cmds: Vec<Command>,
    },
    /// One chunk of a state snapshot, shipped when a peer's applied
    /// prefix fell behind the sender's compaction floor (see
    /// [`crate::snapshot`]).
    SnapshotChunk {
        /// Replica-group id of the transfer (group-isolation guard; see
        /// [`EngineMsg::Forward::group`]).
        group: u32,
        /// Sender's term/ballot; receivers gate stale transfers on it.
        seal: Term,
        /// Last log slot / instance covered by the snapshot.
        last_slot: Slot,
        /// Term of the entry at `last_slot` (Raft family; `Term::ZERO`
        /// for the Paxos family, whose instances carry no term once
        /// executed).
        last_term: Term,
        /// Byte offset of this chunk within the encoded snapshot.
        offset: usize,
        /// Total encoded size.
        total: usize,
        /// Wire-header bytes of the sender's protocol spelling (Raft
        /// `InstallSnapshot` carries a richer header than a Paxos or
        /// Mencius `Checkpoint`); stamped by the sender from its rules
        /// so the shared envelope keeps the per-protocol cost model.
        header_bytes: usize,
        /// The chunk payload.
        data: Vec<u8>,
    },
    /// Acknowledges a fully installed snapshot; senders treat it like an
    /// acknowledgement at `upto` and resume normal replication.
    SnapshotAck {
        /// Replica-group id of the transfer being acknowledged.
        group: u32,
        /// Echoed term/ballot.
        seal: Term,
        /// The applied prefix the responder's state now covers.
        upto: Slot,
        /// Wire-header bytes of the responder's protocol spelling
        /// (Raft `SnapshotAck` vs Paxos/Mencius `CheckpointOk`).
        header_bytes: usize,
    },
    /// One chunk of a key-range export (live rebalancing): a source
    /// leader ships a frozen range to the destination group with the
    /// same chunking/reassembly machinery snapshots use. The payload is
    /// an encoded [`crate::shard::migration::RangeExport`].
    RangeChunk {
        /// The **destination** group (receivers drop foreign-group
        /// chunks, like every engine-level message).
        group: u32,
        /// The migration's partition-map version (doubles as the
        /// reassembly discriminator: a receiver never interleaves two
        /// different migrations from one sender).
        version: u64,
        /// Byte offset of this chunk within the encoded export.
        offset: usize,
        /// Total encoded size.
        total: usize,
        /// Wire-header bytes (the sender's snapshot-chunk spelling plus
        /// the migration version word).
        header_bytes: usize,
        /// The chunk payload.
        data: Vec<u8>,
    },
    /// Destination-side confirmation that a migration's `InstallRange`
    /// has committed and applied; the source leader stops re-exporting.
    /// Broadcast to every source-group replica so a freshly elected
    /// source leader learns it too.
    RangeAck {
        /// The **source** group.
        group: u32,
        /// The migration's version.
        version: u64,
        /// Wire-header bytes.
        header_bytes: usize,
    },
}

/// Client-replica request/response pairs.
#[derive(Debug, Clone)]
pub enum ClientMsg {
    /// A client submits a command to a replica.
    Request {
        /// The command to replicate (or serve locally, for lease reads).
        cmd: Command,
    },
    /// A replica answers a completed command.
    Response {
        /// Which command this answers.
        id: CmdId,
        /// The result.
        reply: Reply,
    },
    /// The rebalance coordinator publishes a bumped partition map to a
    /// client after a migration completes. Clients adopt it if its
    /// version exceeds their current map's.
    RouterUpdate {
        /// The new partition map (version inside).
        router: crate::shard::ShardRouter,
    },
}

/// An ordered list of slots as a message carries it (module docs, "A list
/// of slots is a run"): empty, an arithmetic run held in place, or —
/// once a slot arrives that does not continue the run — a spilled list.
/// As large as the `Vec<Slot>` it stands in for.
#[derive(Debug, Clone)]
pub struct Slots(Repr);

#[derive(Debug, Clone)]
enum Repr {
    /// `len` slots from `first`, `stride` apart (`stride` is 0 until a
    /// second slot fixes it).
    Run { first: u64, len: u32, stride: u32 },
    /// Anything else, in push order.
    List(Vec<Slot>),
}

impl Default for Slots {
    fn default() -> Self {
        Slots::new()
    }
}

impl Slots {
    /// The empty list.
    pub const fn new() -> Self {
        Slots(Repr::Run {
            first: 0,
            len: 0,
            stride: 0,
        })
    }

    /// Appends `slot`. A run stays a run while each slot is the previous
    /// one plus the stride its first two slots set.
    pub fn push(&mut self, slot: Slot) {
        match &mut self.0 {
            Repr::List(list) => list.push(slot),
            Repr::Run { first, len, stride } => {
                let step = slot.0.wrapping_sub(*first);
                match *len {
                    0 => *first = slot.0,
                    1 if slot.0 > *first && step <= u32::MAX as u64 => *stride = step as u32,
                    n if n > 1 && n < u32::MAX && step == n as u64 * *stride as u64 => {}
                    _ => {
                        let mut list: Vec<Slot> = self.iter().collect();
                        list.push(slot);
                        self.0 = Repr::List(list);
                        return;
                    }
                }
                *len += 1;
            }
        }
    }

    /// How many slots (what `size_bytes()` charges 8 B each for).
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Run { len, .. } => *len as usize,
            Repr::List(list) => list.len(),
        }
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The slots, in push order.
    pub fn iter(&self) -> impl Iterator<Item = Slot> + '_ {
        let (run, list): (_, &[Slot]) = match &self.0 {
            Repr::Run { first, len, stride } => ((*first, *len as u64, *stride as u64), &[]),
            Repr::List(list) => ((0, 0, 0), list),
        };
        let (first, len, stride) = run;
        (0..len)
            .map(move |i| Slot(first + i * stride))
            .chain(list.iter().copied())
    }

    /// Whether `slot` is in the list.
    pub fn contains(&self, slot: Slot) -> bool {
        match &self.0 {
            Repr::Run { first, len, stride } => {
                let step = slot.0.wrapping_sub(*first);
                match *len {
                    0 => false,
                    1 => step == 0,
                    n => step % *stride as u64 == 0 && step / (*stride as u64) < n as u64,
                }
            }
            Repr::List(list) => list.contains(&slot),
        }
    }

    /// The highest slot, `None` when empty.
    pub fn max(&self) -> Option<Slot> {
        match &self.0 {
            Repr::Run { len: 0, .. } => None,
            Repr::Run { first, len, stride } => {
                Some(Slot(first + (*len as u64 - 1) * *stride as u64))
            }
            Repr::List(list) => list.iter().copied().max(),
        }
    }
}

/// Equal as sequences, whichever way each is held.
impl PartialEq for Slots {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Extend<Slot> for Slots {
    fn extend<I: IntoIterator<Item = Slot>>(&mut self, slots: I) {
        for slot in slots {
            self.push(slot);
        }
    }
}

impl FromIterator<Slot> for Slots {
    fn from_iter<I: IntoIterator<Item = Slot>>(slots: I) -> Self {
        let mut out = Slots::new();
        out.extend(slots);
        out
    }
}

/// One replication round's payload, built once by its proposer and handed
/// to every peer by reference count; an acceptor clones the values out.
pub type Round = Arc<[(Slot, Command)]>;

/// MultiPaxos messages (Figure 1). Phase-2 messages batch multiple
/// instances, matching the paper's note that MultiPaxos "optimizes
/// performance by batching".
#[derive(Debug, Clone)]
pub enum PaxosMsg {
    /// Phase1a: `<"prepare", ballot, unchosen>`.
    Prepare {
        /// Proposer's ballot.
        ballot: Term,
        /// Smallest unchosen instance id.
        from_slot: Slot,
    },
    /// Phase1b: `<"prepareOK", ballot, instances ≥ unchosen>`.
    PrepareOk {
        /// Echoed ballot.
        ballot: Term,
        /// Accepted `(slot, accepted-ballot, value)` triples at or after
        /// the requested slot — excluding anything checkpointed away.
        entries: Vec<(Slot, Term, Command)>,
        /// The acceptor's highest used slot.
        log_tail: Slot,
        /// The acceptor's checkpoint floor: instances at or below it are
        /// chosen and executed but no longer reportable. A proposer must
        /// never fill no-ops at or below any reported floor — it waits
        /// for the accompanying checkpoint ([`EngineMsg::SnapshotChunk`])
        /// instead.
        floor: Slot,
    },
    /// Phase2a: `<"accept", instance, value, ballot>` (batched).
    Accept {
        /// Proposer's ballot.
        ballot: Term,
        /// `(instance, value)` pairs.
        items: Round,
        /// Whether the proposer's replication pipeline has window room
        /// for a quorum (piggybacked occupancy hint; the Paxos spelling
        /// of [`RaftMsg::Append::window_room`]). Rides in a reserved
        /// header byte — no wire cost.
        window_room: bool,
    },
    /// Phase2b reply: `<"acceptOK", instance, ballot>` (batched).
    AcceptOk {
        /// Echoed ballot.
        ballot: Term,
        /// Instances accepted.
        slots: Slots,
        /// The acceptor's executed prefix, piggybacked so the proposer
        /// can spot laggards and choose between instance retransmission
        /// and a checkpoint ([`EngineMsg::SnapshotChunk`]).
        exec: Slot,
    },
    /// Commit notification to learners (batched).
    Learn {
        /// Instances now chosen.
        slots: Slots,
    },
}

/// Raft-family messages (Figure 2), shared by Raft, Raft* and Raft*-PQL.
#[derive(Debug, Clone)]
pub enum RaftMsg {
    /// `<"requestVote", term, lastIndex, lastTerm>`.
    RequestVote {
        /// Candidate's new term.
        term: Term,
        /// Candidate's last log index.
        last_idx: Slot,
        /// Term of the candidate's last entry.
        last_term: Term,
    },
    /// `<"requestVoteOK", term, extraEnts>`; `extra` is Raft*'s addition
    /// (entries the voter has beyond the candidate's log, Figure 2a
    /// lines 14-16). Standard Raft always sends an empty `extra`.
    Vote {
        /// Voter's term.
        term: Term,
        /// Whether the vote was granted.
        granted: bool,
        /// First slot of `extra` (candidate's `last_idx + 1`).
        extra_start: Slot,
        /// The voter's entries from `extra_start` on (Raft* only).
        extra: Vec<Entry>,
    },
    /// `<"append", term, prev, prevTerm, ents, commitIndex[, isDefault]>`.
    Append {
        /// Leader's term.
        term: Term,
        /// Index preceding `entries`.
        prev: Slot,
        /// Term at `prev`.
        prev_term: Term,
        /// The replicated suffix, built once per round and shared by the
        /// peers at the same cursor.
        entries: Arc<[Entry]>,
        /// Leader's commit index.
        commit: Slot,
        /// Whether the leader's replication pipeline currently has window
        /// room for a quorum — piggybacked so followers can cut forward
        /// batches eagerly while the leader can absorb them (the
        /// follower-side face of the adaptive batch cutter). Rides in a
        /// reserved header byte, so it adds no wire cost.
        window_room: bool,
    },
    /// `<"appendOK", term, lastIndex[, holders]>`; `holders` is the
    /// Raft*-PQL addition (Figure 8: lease holders granted by the sender).
    AppendOk {
        /// Responder's term.
        term: Term,
        /// Responder's last index after the append.
        last_idx: Slot,
        /// Replicas currently holding leases granted by the responder, one
        /// bit per replica (Raft*-PQL only; 0 otherwise).
        holders: u64,
    },
    /// Rejection with the responder's state for next-index backoff.
    AppendReject {
        /// Responder's term.
        term: Term,
        /// Responder's last index (backoff hint).
        last_idx: Slot,
    },
}

/// Quorum-lease maintenance (PQL Section A.1; Leader Lease variant).
#[derive(Debug, Clone)]
pub enum LeaseMsg {
    /// Grantor extends the holder's lease until `expires_ns` on the
    /// virtual clock. (The TLA+ spec models this with a global timer; the
    /// simulator's clock plays that role. A deployment would subtract a
    /// clock-skew guard band.)
    Grant {
        /// Lease expiry, nanoseconds of virtual time.
        expires_ns: u64,
        /// The grantor's last log index at grant time. A holder whose
        /// lease lapsed must catch up to the highest such index among
        /// its new grants before serving local reads again — writes
        /// committed during the lapse never waited for this holder.
        last_idx: Slot,
    },
    /// Holder acknowledges a grant. A grantor only treats a replica as a
    /// lease *holder* (whose acknowledgement writes must await) after the
    /// ack, so a crashed holder stops blocking writes once its last
    /// acked grant expires.
    GrantAck {
        /// Echoed expiry.
        expires_ns: u64,
    },
}

/// What every regular Mencius message (`Suggest`, `SuggestOk`,
/// `SkipNotice`) carries about its sender's *own* slots: one element of
/// the sender's per-peer stream. The coordination that used to travel in
/// messages of its own — skips, commit decisions, the executed-prefix
/// report — rides the data path instead (the Raft `Append` already
/// carries `commit`; this is the same fact ported across the mapping).
#[derive(Debug, Clone)]
pub struct Coord {
    /// Start of the range this message accounts for: the watermark the
    /// sender last sent *to this receiver*. A receiver whose knowledge of
    /// the sender's slots ends below `from` missed a message and must not
    /// advance (links are ordered but lossy).
    pub from: Slot,
    /// Sender's skip watermark: every sender-owned slot in
    /// `[from, watermark)` is either suggested in this very message or a
    /// no-op.
    pub watermark: Slot,
    /// Commit decisions for sender-owned slots, queued for this receiver
    /// since the last message to it.
    pub commits: Slots,
    /// Sender's executed prefix, so peers can spot a replica that stalled
    /// on a lost message (replay) or fell below their checkpoint floor
    /// (state transfer).
    pub exec: Slot,
}

impl Coord {
    /// A header that claims nothing: for messages that may leave out of
    /// stream order (an ack held back by the fsync gate).
    pub fn empty(at: Slot, exec: Slot) -> Self {
        Coord {
            from: at,
            watermark: at,
            commits: Slots::new(),
            exec,
        }
    }

    /// Wire size: `from`, `watermark`, `exec`, 8 B per carried decision.
    fn size_bytes(&self) -> usize {
        24 + 8 * self.commits.len()
    }
}

/// Raft*-Mencius messages (Appendix A.4). One replica is the *default
/// leader* of each slot (round-robin); `Suggest` is an Append for owned
/// slots with `isDefault = true`, and skips propagate watermarks.
#[derive(Debug, Clone)]
pub enum MenciusMsg {
    /// The slot owner proposes commands in its own slots.
    Suggest {
        /// Owner's current term.
        term: Term,
        /// `(slot, command)` pairs; slots are the owner's (spaced `n`).
        items: Round,
        /// The owner's stream element; its range covers `items`.
        coord: Coord,
    },
    /// Acknowledgement of a `Suggest`.
    SuggestOk {
        /// Echoed term.
        term: Term,
        /// Slots accepted.
        slots: Slots,
        /// The responder's stream element (the piggybacked skip of
        /// Appendix A.3: "it piggybacks a skip message in its reply").
        coord: Coord,
    },
    /// A stream element with nothing to ride on ("keep committing skip to
    /// keep the system moving forward"): sent when the watermark moves
    /// and as a keepalive to peers that were sent nothing for a tick.
    SkipNotice {
        /// The sender's stream element.
        coord: Coord,
    },
    /// Commit decisions for the sender's owned slots, on their own: only
    /// when no carrier is about to leave on that link.
    Commit {
        /// Slots now committed.
        slots: Slots,
    },
    /// An acceptor refuses a `Suggest` whose term is below a slot's
    /// (revocation-raised) ballot; the owner re-proposes elsewhere.
    SuggestReject {
        /// The refused slots.
        slots: Vec<Slot>,
        /// The ballot the acceptor holds for them.
        term: Term,
    },
    /// Revocation phase-1: take over a crashed owner's slot range with a
    /// higher ballot.
    Revoke {
        /// Revoker's ballot (unique, > any seen).
        term: Term,
        /// The suspected-dead owner.
        owner: NodeId,
        /// Revoke owner-slots in `(from, through]`... inclusive range
        /// start (exclusive of already-decided slots).
        from: Slot,
        /// Last slot of the revoked range.
        through: Slot,
    },
    /// Revocation phase-1 reply: promise plus any accepted values in the
    /// range that must be re-proposed rather than no-oped.
    RevokeOk {
        /// Echoed revocation ballot.
        term: Term,
        /// The owner whose slots are revoked.
        owner: NodeId,
        /// Accepted `(slot, ballot, value)` triples in the range.
        accepted: Vec<(Slot, Term, Command)>,
    },
    /// Revocation phase-2: decide the revoked slots (no-ops or recovered
    /// values).
    RevokeCommit {
        /// Revocation ballot.
        term: Term,
        /// Decided `(slot, command)` pairs for the revoked range.
        items: Vec<(Slot, Command)>,
    },
}

fn entries_size(entries: &[Entry]) -> usize {
    entries.iter().map(Entry::size_bytes).sum()
}

impl Payload for Msg {
    fn size_bytes(&self) -> usize {
        match self {
            Msg::Client(m) => match m {
                ClientMsg::Request { cmd } => 8 + cmd.size_bytes(),
                ClientMsg::Response { reply, .. } => 20 + reply.size_bytes(),
                // Version + segment table, 12 bytes per segment.
                ClientMsg::RouterUpdate { router } => 16 + 12 * router.segments().len(),
            },
            Msg::Engine(m) => match m {
                EngineMsg::Forward {
                    header_bytes, cmds, ..
                } => header_bytes + cmds.iter().map(Command::size_bytes).sum::<usize>(),
                EngineMsg::SnapshotChunk {
                    header_bytes, data, ..
                } => header_bytes + data.len(),
                EngineMsg::SnapshotAck { header_bytes, .. } => *header_bytes,
                EngineMsg::RangeChunk {
                    header_bytes, data, ..
                } => header_bytes + data.len(),
                EngineMsg::RangeAck { header_bytes, .. } => *header_bytes,
            },
            Msg::Paxos(m) => match m {
                PaxosMsg::Prepare { .. } => 24,
                PaxosMsg::PrepareOk { entries, .. } => {
                    24 + entries
                        .iter()
                        .map(|(_, _, c)| 24 + c.size_bytes())
                        .sum::<usize>()
                }
                PaxosMsg::Accept { items, .. } => {
                    16 + items.iter().map(|(_, c)| 8 + c.size_bytes()).sum::<usize>()
                }
                PaxosMsg::AcceptOk { slots, .. } => 24 + 8 * slots.len(),
                PaxosMsg::Learn { slots } => 8 + 8 * slots.len(),
            },
            Msg::Raft(m) => match m {
                RaftMsg::RequestVote { .. } => 32,
                RaftMsg::Vote { extra, .. } => 24 + entries_size(extra),
                RaftMsg::Append { entries, .. } => 40 + entries_size(entries),
                RaftMsg::AppendOk { holders, .. } => 24 + 4 * holders.count_ones() as usize,
                RaftMsg::AppendReject { .. } => 24,
            },
            Msg::Lease(LeaseMsg::Grant { .. }) => 24,
            Msg::Lease(LeaseMsg::GrantAck { .. }) => 16,
            Msg::Mencius(m) => match m {
                MenciusMsg::Suggest { items, coord, .. } => {
                    24 + coord.size_bytes()
                        + items.iter().map(|(_, c)| 8 + c.size_bytes()).sum::<usize>()
                }
                MenciusMsg::SuggestOk { slots, coord, .. } => {
                    16 + coord.size_bytes() + 8 * slots.len()
                }
                MenciusMsg::SuggestReject { slots, .. } => 16 + 8 * slots.len(),
                MenciusMsg::SkipNotice { coord } => 8 + coord.size_bytes(),
                MenciusMsg::Commit { slots } => 8 + 8 * slots.len(),
                MenciusMsg::Revoke { .. } => 40,
                MenciusMsg::RevokeOk { accepted, .. } => {
                    24 + accepted
                        .iter()
                        .map(|(_, _, c)| 16 + c.size_bytes())
                        .sum::<usize>()
                }
                MenciusMsg::RevokeCommit { items, .. } => {
                    16 + items.iter().map(|(_, c)| 8 + c.size_bytes()).sum::<usize>()
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::CmdId;

    fn cmd(bytes: usize) -> Command {
        Command::put(CmdId { client: 1, seq: 1 }, 1, vec![0; bytes])
    }

    /// Whether `slots` is still held in place (no heap behind it).
    fn is_run(slots: &Slots) -> bool {
        matches!(slots.0, Repr::Run { .. })
    }

    /// `Slots` against the `Vec<Slot>` it replaces, over random sequences
    /// of every shape a message carries: runs of stride 1 (MultiPaxos) and
    /// 5 (one Mencius owner of five), a run with a hole, a repeat, and
    /// descending input. `iter`, `len`, `contains` and `max` agree with the
    /// reference at every step, and a run never spills.
    #[test]
    fn slots_agree_with_the_vec_they_replace_and_a_run_never_spills() {
        let mut rng = paxraft_sim::rng::SimRng::new(0x5107);
        for case in 0..400 {
            let first = 1 + rng.gen_range(1_000);
            let len = rng.gen_range(40);
            let stride = [1, 5][(case % 2) as usize];
            let mut input: Vec<Slot> = (0..len).map(|i| Slot(first + i * stride)).collect();
            let shape = case % 4;
            match shape {
                _ if input.len() < 3 => {}
                1 => drop(input.remove(1 + rng.gen_range(len - 2) as usize)),
                2 => input.insert(1 + rng.gen_range(len - 1) as usize, input[0]),
                3 => input.reverse(),
                _ => {}
            }
            let step = |w: &[Slot]| w[1].0.wrapping_sub(w[0].0);
            let arithmetic = input.len() < 2
                || input[1] > input[0] && input.windows(2).all(|w| step(w) == step(&input));
            let mut slots = Slots::new();
            let mut reference: Vec<Slot> = Vec::new();
            for &slot in &input {
                slots.push(slot);
                reference.push(slot);
                assert!(slots.iter().eq(reference.iter().copied()), "case {case}");
                assert_eq!(slots.len(), reference.len());
                assert_eq!(slots.max(), reference.iter().copied().max());
            }
            assert_eq!(slots.is_empty(), reference.is_empty());
            for probe in first.saturating_sub(7)..first + len * stride + 7 {
                let probe = Slot(probe);
                assert_eq!(
                    slots.contains(probe),
                    reference.contains(&probe),
                    "case {case}"
                );
            }
            assert_eq!(is_run(&slots), arithmetic, "case {case}: {input:?}");
            let collected: Slots = input.iter().copied().collect();
            assert!(collected == slots && is_run(&collected) == arithmetic);
            assert!(
                is_run(&slots.clone()) == arithmetic,
                "a clone of a run is a run"
            );
        }
        // A stride that does not fit the run's 32 bits spills; nothing is lost.
        let far: Slots = [Slot(1), Slot(1 << 40)].into_iter().collect();
        assert!(!is_run(&far) && far.iter().eq([Slot(1), Slot(1 << 40)]));
        assert_eq!(far.max(), Some(Slot(1 << 40)));
    }

    /// The size model charges 8 B per slot from `len()`, whichever way the
    /// list is held: a run and the same slots spilled cost the same bytes.
    #[test]
    fn the_wire_model_does_not_learn_how_a_slot_list_is_held() {
        let run: Slots = (3..9).map(Slot).collect();
        let mut spilled: Slots = [Slot(3), Slot(3)].into_iter().collect();
        spilled.extend((4..8).map(Slot));
        assert!(is_run(&run) && !is_run(&spilled));
        assert_eq!(run.len(), spilled.len());
        let ok = |slots: Slots| {
            Msg::Paxos(PaxosMsg::AcceptOk {
                ballot: Term(1),
                slots,
                exec: Slot(0),
            })
            .size_bytes()
        };
        assert_eq!(ok(run.clone()), 24 + 8 * 6);
        assert_eq!(ok(run), ok(spilled.clone()));
        let learn = Msg::Paxos(PaxosMsg::Learn { slots: spilled });
        assert_eq!(learn.size_bytes(), 8 + 8 * 6);
    }

    #[test]
    fn append_size_dominated_by_entries() {
        let small = Msg::Raft(RaftMsg::Append {
            term: Term(1),
            prev: Slot(0),
            prev_term: Term(0),
            entries: Arc::new([Entry {
                term: Term(1),
                bal: Term(1),
                cmd: cmd(8),
            }]),
            commit: Slot(0),
            window_room: true,
        });
        let big = Msg::Raft(RaftMsg::Append {
            term: Term(1),
            prev: Slot(0),
            prev_term: Term(0),
            entries: Arc::new([Entry {
                term: Term(1),
                bal: Term(1),
                cmd: cmd(4096),
            }]),
            commit: Slot(0),
            window_room: true,
        });
        assert!(big.size_bytes() - small.size_bytes() >= 4096 - 8);
    }

    #[test]
    fn response_size_includes_read_value() {
        let done = Msg::Client(ClientMsg::Response {
            id: CmdId { client: 1, seq: 1 },
            reply: Reply::Done,
        });
        let val = Msg::Client(ClientMsg::Response {
            id: CmdId { client: 1, seq: 1 },
            reply: Reply::Value(Some(vec![0; 4096].into())),
        });
        assert!(val.size_bytes() > done.size_bytes() + 4000);
    }

    #[test]
    fn control_messages_are_small() {
        assert!(
            Msg::Lease(LeaseMsg::Grant {
                expires_ns: 0,
                last_idx: Slot(4)
            })
            .size_bytes()
                < 64
        );
        assert!(
            Msg::Mencius(MenciusMsg::SkipNotice {
                coord: Coord::empty(Slot(10), Slot(3))
            })
            .size_bytes()
                < 64
        );
        assert!(
            Msg::Raft(RaftMsg::RequestVote {
                term: Term(1),
                last_idx: Slot(0),
                last_term: Term(0)
            })
            .size_bytes()
                < 64
        );
    }

    /// The Mencius carriers pay for what they carry: 8 B for `from`
    /// (and for `exec` where it is new), 8 B per carried decision —
    /// against the 16 B+ message (and its framing) a lone `Commit` costs.
    #[test]
    fn mencius_carriers_pay_for_what_they_carry() {
        let coord = |decisions: usize| Coord {
            from: Slot(1),
            watermark: Slot(7),
            commits: std::iter::repeat_n(Slot(1), decisions).collect(),
            exec: Slot(0),
        };
        let notice = |d| Msg::Mencius(MenciusMsg::SkipNotice { coord: coord(d) }).size_bytes();
        let ok = |d| {
            Msg::Mencius(MenciusMsg::SuggestOk {
                term: Term(1),
                slots: [Slot(4)].into_iter().collect(),
                coord: coord(d),
            })
            .size_bytes()
        };
        let suggest = |d| {
            Msg::Mencius(MenciusMsg::Suggest {
                term: Term(1),
                items: vec![(Slot(4), cmd(8))].into(),
                coord: coord(d),
            })
            .size_bytes()
        };
        // Header + from + watermark + exec; term and the per-slot words
        // on top for the other two.
        assert_eq!(notice(0), 32);
        assert_eq!(ok(0), 48);
        assert_eq!(suggest(0), 56 + cmd(8).size_bytes());
        for carrier in [&notice as &dyn Fn(usize) -> usize, &ok, &suggest] {
            assert_eq!(carrier(3) - carrier(0), 24, "8 B per decision");
        }
        let alone = Msg::Mencius(MenciusMsg::Commit {
            slots: [Slot(1)].into_iter().collect(),
        })
        .size_bytes();
        assert!(notice(1) - notice(0) < alone);
    }

    #[test]
    fn snapshot_chunk_sizes_dominated_by_payload() {
        let chunk = vec![0u8; 64 * 1024];
        let m = Msg::Engine(EngineMsg::SnapshotChunk {
            group: 0,
            seal: Term(3),
            last_slot: Slot(100),
            last_term: Term(3),
            offset: 0,
            total: chunk.len(),
            header_bytes: 48,
            data: chunk,
        });
        assert!(m.size_bytes() >= 64 * 1024);
        assert!(
            Msg::Engine(EngineMsg::SnapshotAck {
                group: 0,
                seal: Term(3),
                upto: Slot(100),
                header_bytes: 16,
            })
            .size_bytes()
                < 64
        );
    }

    #[test]
    fn snapshot_wire_overhead_is_per_protocol() {
        // The Raft InstallSnapshot spelling carries a richer header than
        // the Paxos/Mencius Checkpoint spelling; the shared envelope
        // preserves that distinction through `header_bytes`.
        let chunk = |header_bytes| {
            Msg::Engine(EngineMsg::SnapshotChunk {
                group: 0,
                seal: Term(3),
                last_slot: Slot(100),
                last_term: Term(3),
                offset: 0,
                total: 128,
                header_bytes,
                data: vec![0u8; 128],
            })
            .size_bytes()
        };
        assert_eq!(chunk(48) - chunk(40), 8, "InstallSnapshot vs Checkpoint");
        let ack = |header_bytes| {
            Msg::Engine(EngineMsg::SnapshotAck {
                group: 0,
                seal: Term(3),
                upto: Slot(100),
                header_bytes,
            })
            .size_bytes()
        };
        assert_eq!(ack(16), 16);
        assert_eq!(ack(8), 8, "ballot-free Mencius CheckpointOk");
    }

    #[test]
    fn batched_sizes_scale_with_items() {
        let one = Msg::Paxos(PaxosMsg::Accept {
            ballot: Term(1),
            items: vec![(Slot(1), cmd(8))].into(),
            window_room: true,
        });
        let two = Msg::Paxos(PaxosMsg::Accept {
            ballot: Term(1),
            items: vec![(Slot(1), cmd(8)), (Slot(2), cmd(8))].into(),
            window_room: true,
        });
        assert!(two.size_bytes() > one.size_bytes());
    }

    #[test]
    fn forward_wire_size_pays_group_header_only_when_stamped() {
        let fwd = |header_bytes| {
            Msg::Engine(EngineMsg::Forward {
                group: 1,
                header_bytes,
                cmds: vec![cmd(8)],
            })
            .size_bytes()
        };
        // Unsharded spelling (8) vs sharded spelling carrying the group
        // id (8 + 4): the surcharge is exactly the group header.
        assert_eq!(fwd(12) - fwd(8), 4);
    }
}
