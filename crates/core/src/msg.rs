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
//! lists the instances it accepted, a Mencius `Commit` the instances
//! chosen, a Mencius stream element the decisions and the ack it carries.
//! (MultiPaxos learns as Raft commits, by one executed prefix.) Every
//! fresh round, its acknowledgement and its decision name consecutive
//! slots (MultiPaxos) or slots `n` apart (one Mencius owner's), so
//! [`Slots`] holds *first, length, stride* in place and touches the heap
//! only for what is not a run — a pump over committed gaps, a
//! retransmission by age, acks merged across an owner's skipped slots.
//! The size model does not learn this: `size_bytes()` keeps charging 8 B
//! a slot from [`Slots::len`], because the wire *model* is the paper's
//! message, not this process's layout, and a range-encoded wire size
//! would move every virtual number.
//!
//! # A round is a run of its sender's slot store
//!
//! Every round — a Raft `Append`, a MultiPaxos `Accept`, a Mencius
//! `Suggest` — and every forwarded batch of two or more commands is an
//! [`crate::engine::slots::Run`] (`engine/slots.rs`, *Rounds*). The size
//! model charges what the entries weigh, however they are held.

pub use crate::engine::paxos_family::Cell;
use crate::engine::slots::Run;
use crate::engine::SlotRing;
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
        /// ([`SHARD_GROUP_HEADER`]) once a
        /// cluster runs more than one group and the id must travel.
        header_bytes: usize,
        /// The batched commands: one held in place, or a run of the
        /// follower's forward outbox ([`Batch`]).
        cmds: Batch,
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

impl EngineMsg {
    /// The replica group the message is addressed to: every variant is
    /// group-stamped, and a receiver drops another group's traffic.
    pub fn group(&self) -> u32 {
        match self {
            EngineMsg::Forward { group, .. }
            | EngineMsg::SnapshotChunk { group, .. }
            | EngineMsg::SnapshotAck { group, .. }
            | EngineMsg::RangeChunk { group, .. }
            | EngineMsg::RangeAck { group, .. } => *group,
        }
    }
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
                        // One allocation, with room to grow as a vector
                        // that doubled would have.
                        let mut list = Vec::with_capacity(2 * (self.len() + 1));
                        list.extend(self.iter());
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

/// The commands one `Forward` carries (Section 5's forwarding). Most
/// carry one, held in the message itself: the cutter ships a batch as
/// soon as the leader's window has room. A longer batch moves into the
/// follower's outbox and is a run of it (module docs), or a copy when it
/// is longer than a block (the buffer outgrew one while no leader was
/// known). The leader takes the commands out in order, clones of a run's.
#[derive(Debug, Clone)]
pub enum Batch {
    /// A lone command, in the message itself.
    One(Command),
    /// Any other number, in order.
    Run(Run<Command, FORWARD_CELLS>),
}

impl Batch {
    /// How many commands.
    pub fn len(&self) -> usize {
        match self {
            Batch::One(_) => 1,
            Batch::Run(run) => run.len(),
        }
    }

    /// Whether the batch carries no command.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The commands, in order.
    pub fn iter(&self) -> impl Iterator<Item = &Command> {
        let (one, run) = match self {
            Batch::One(cmd) => (Some(cmd), None),
            Batch::Run(run) => (None, Some(run)),
        };
        let run = run
            .into_iter()
            .flat_map(|run| run.iter().map(|(_, cmd)| cmd));
        one.into_iter().chain(run)
    }
}

/// A follower's forward outbox: a table of the commands it forwarded, one
/// block of them at most, a full batch long. A batch fills the next empty cells and is a run
/// of them; the leader's run shares the block, by the rule
/// `engine/slots.rs` states (*Sharing*). When a batch does not fit, the
/// outbox is emptied — in place if no run holds its block any more (the
/// leader has taken every batch out of it), else by letting the block go
/// to the runs — and filled from its first cell, so forwarding costs at
/// most an allocation per block, not per batch. Volatile: a crash drops
/// it.
#[derive(Debug, Default)]
pub(crate) struct Outbox {
    cells: SlotRing<Command, FORWARD_CELLS>,
}

/// Cells in a follower's forward block: one full batch.
const FORWARD_CELLS: usize = crate::engine::BATCH_MAX;

impl Outbox {
    /// `pending`'s commands as one batch, in order, leaving `pending`
    /// empty with its buffer: a lone command in place, a run of the
    /// outbox for up to a block of them, a copy past that.
    pub(crate) fn cut(&mut self, pending: &mut Vec<Command>) -> Batch {
        let len = pending.len() as u64;
        if len == 1 {
            return Batch::One(pending.pop().expect("one command"));
        }
        if !(2..=FORWARD_CELLS as u64).contains(&len) {
            return Batch::Run((0..).map(Slot).zip(pending.drain(..)).collect());
        }
        let mut first = self.cells.last_slot().map_or(0, |last| last.0 + 1);
        if first + len > FORWARD_CELLS as u64 {
            self.cells.clear();
            first = 0;
        }
        for (slot, cmd) in (first..).zip(pending.drain(..)) {
            self.cells.insert(Slot(slot), cmd);
        }
        Batch::Run(self.cells.cut(Slot(first).., 1, len as usize, |_, _| true))
    }
}

/// MultiPaxos messages (Figure 1). Phase-2 messages batch multiple
/// instances, matching the paper's note that MultiPaxos "optimizes
/// performance by batching".
#[derive(Debug, Clone)]
pub enum PaxosMsg {
    /// Phase1a: `<"prepare", ballot, unchosen>` — MultiPaxos's
    /// election, and a Mencius revocation (Appendix A.3), which is the
    /// same phase 1 over one owner's instances.
    Prepare {
        /// Proposer's ballot.
        ballot: Term,
        /// `(from, None)`: every instance from `from`, the smallest
        /// unchosen. `(from, Some((owner, through)))`, a revocation's:
        /// that owner's instances in `from..=through`, 16 B more.
        range: (Slot, Option<(NodeId, Slot)>),
    },
    /// Phase1b: `<"prepareOK", ballot, instances ≥ unchosen>`, to either
    /// use of a `Prepare`.
    PrepareOk {
        /// Echoed ballot.
        ballot: Term,
        /// Accepted `(slot, accepted-ballot, value)` triples in the range
        /// asked about — excluding anything checkpointed away.
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
    /// Phase2a: `<"accept", instance, value, ballot>` (batched), carrying
    /// the learn step the way Raft's `Append` carries `commit`.
    Accept {
        /// Proposer's ballot.
        ballot: Term,
        /// The instances, each holding its value: a run of the
        /// proposer's table as it was when the round was cut (module
        /// docs). The wire size is the `(instance, value)` pairs'.
        items: Run<Cell>,
        /// Whether the proposer's replication pipeline has window room
        /// for a quorum (piggybacked occupancy hint; the Paxos spelling
        /// of [`RaftMsg::Append::window_room`]). Rides in a reserved
        /// header byte — no wire cost.
        window_room: bool,
        /// The proposer's executed prefix: every instance through it is
        /// chosen (Figure 3 maps [`RaftMsg::Append::commit`] to Paxos's
        /// learn step). It vouches only for values accepted at `ballot`
        /// or above.
        commit: Slot,
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
        /// Replicas currently holding leases granted by the acceptor, one
        /// bit per replica (Figure 8's Phase2b Δ; 0 without a lease).
        holders: u64,
    },
    /// An `Accept`'s `commit` with no instances: sent only on a link that
    /// carried nothing for longer than the proposer lets a decision wait.
    Learn {
        /// Proposer's ballot: the one a held value must have been
        /// accepted at (or above) to count as the chosen one.
        ballot: Term,
        /// The proposer's executed prefix.
        commit: Slot,
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
        /// The replicated suffix: a run of the leader's log as it was
        /// when the round was cut (module docs). The wire size is the
        /// entries'. Figure 2's `ents` carry their ballots: under Raft\*
        /// each is the append's `term` (a leader rewrites the ballots of
        /// its whole log at every append, `BecomeLeader` included), and a
        /// follower needs none of them (`log.rs`, *Storage*).
        entries: Run<Entry>,
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

/// What every regular Mencius message (`Suggest`, `Notice`) carries
/// about its sender's *own* slots, and its acknowledgement of the
/// receiver's: one element of the sender's per-peer stream. The
/// coordination that used to travel in messages of its own — skips,
/// commit decisions, the executed-prefix report, the reply to a
/// `Suggest` — rides the data path instead (the Raft `Append` already
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
    /// The sender's acknowledgement of the receiver's suggestions,
    /// merged since the last message to it: the reply to a `Suggest`
    /// (Appendix A.3 piggybacks the skip on it), riding whatever leaves
    /// next on the link.
    pub ack: Option<Ack>,
}

/// An acceptor's acknowledgement of its receiver's own slots.
#[derive(Debug, Clone, PartialEq)]
pub struct Ack {
    /// The term the slots were accepted at (the suggestions' term).
    pub term: Term,
    /// Slots accepted.
    pub slots: Slots,
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
            ack: None,
        }
    }

    /// Wire size: `from`, `watermark`, `exec`, 8 B per carried decision,
    /// and an ack's term and 8 B per acked slot.
    fn size_bytes(&self) -> usize {
        let ack = self.ack.as_ref().map_or(0, |a| 8 + 8 * a.slots.len());
        24 + 8 * self.commits.len() + ack
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
        /// The owner's instances (slots spaced `n`), each holding its
        /// value: a run of the owner's table as it was when the round was
        /// cut (module docs), shared by every peer it goes to.
        items: Run<Cell>,
        /// The owner's stream element; its range covers `items`.
        coord: Coord,
    },
    /// A stream element with nothing to ride on ("keep committing skip to
    /// keep the system moving forward"): sent when the watermark moves,
    /// as a keepalive to peers that were sent nothing for a tick, and
    /// for an ack on a link that stayed idle. An ack the fsync gate
    /// holds leaves in one whose header claims nothing.
    Notice {
        /// The sender's stream element.
        coord: Coord,
    },
    /// Commit decisions for the sender's owned slots, on their own: only
    /// when no carrier is about to leave on that link.
    Commit {
        /// Slots now committed.
        slots: Slots,
    },
    /// An acceptor refuses a `Suggest` whose term is below the promise
    /// covering a slot; the owner re-proposes elsewhere.
    SuggestReject {
        /// The refused slots.
        slots: Vec<Slot>,
        /// The ballot the acceptor holds for them.
        term: Term,
    },
    /// The decision, sent once a quorum accepted the revoker's round (or
    /// by an acceptor refusing a suggestion for slots it holds decided).
    RevokeCommit {
        /// Revocation ballot.
        term: Term,
        /// The decided instances, each holding its value.
        items: Run<Cell>,
    },
}

/// Wire-header bytes of one Raft-spelling `InstallSnapshot` chunk (term,
/// leaderId, lastIncludedIndex, lastIncludedTerm, offset, done). The Paxos
/// family's `Checkpoint` spelling is leaner ([`CHECKPOINT_CHUNK_HEADER`]).
pub const SNAPSHOT_CHUNK_HEADER: usize = 48;
/// Wire-header bytes of one Raft-spelling `SnapshotAck`.
pub const SNAPSHOT_ACK_HEADER: usize = 16;
/// Wire-header bytes of one Paxos-spelling `Checkpoint` chunk (ballot,
/// executedThrough, offset — no per-entry term, no done flag; Mencius
/// drops the ballot too, see
/// [`crate::engine::ProtocolRules::snapshot_wire_overhead`]).
pub const CHECKPOINT_CHUNK_HEADER: usize = 40;
/// Wire-header bytes of one Paxos-spelling `CheckpointOk`.
pub const CHECKPOINT_ACK_HEADER: usize = 16;
/// Wire-header bytes a sharded cluster adds to every engine-level message
/// (forwarding, snapshot transfer) to carry the replica-group id. A
/// single-group (unsharded) cluster needs no routing header and pays
/// nothing.
pub const SHARD_GROUP_HEADER: usize = 4;

fn entries_size(entries: &[Entry]) -> usize {
    entries.iter().map(Entry::size_bytes).sum()
}

/// A Paxos-family round's `(instance, value)` pairs: 8 B a slot and the
/// value.
fn values_size(items: &Run<Cell>) -> usize {
    items.values().map(|(_, c)| 8 + c.size_bytes()).sum()
}

impl Payload for Msg {
    fn size_bytes(&self) -> usize {
        match self {
            Msg::Client(m) => match m {
                ClientMsg::Request { cmd } => 8 + cmd.size_bytes(),
                ClientMsg::Response { reply, .. } => 20 + reply.size_bytes(),
                // Version + segment table, 12 bytes per segment.
                ClientMsg::RouterUpdate { router } => 16 + 12 * router.segment_count(),
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
                PaxosMsg::Prepare { range, .. } => 24 + 16 * usize::from(range.1.is_some()),
                PaxosMsg::PrepareOk { entries, .. } => {
                    24 + entries
                        .iter()
                        .map(|(_, _, c)| 24 + c.size_bytes())
                        .sum::<usize>()
                }
                PaxosMsg::Accept { items, .. } => 24 + values_size(items),
                PaxosMsg::AcceptOk { slots, holders, .. } => {
                    24 + 8 * slots.len() + 4 * holders.count_ones() as usize
                }
                PaxosMsg::Learn { .. } => 24,
            },
            Msg::Raft(m) => match m {
                RaftMsg::RequestVote { .. } => 32,
                RaftMsg::Vote { extra, .. } => 24 + entries_size(extra),
                RaftMsg::Append { entries, .. } => {
                    40 + entries.iter().map(|(_, e)| e.size_bytes()).sum::<usize>()
                }
                RaftMsg::AppendOk { holders, .. } => 24 + 4 * holders.count_ones() as usize,
                RaftMsg::AppendReject { .. } => 24,
            },
            Msg::Lease(LeaseMsg::Grant { .. }) => 24,
            Msg::Lease(LeaseMsg::GrantAck { .. }) => 16,
            Msg::Mencius(m) => match m {
                MenciusMsg::Suggest { items, coord, .. } => {
                    24 + coord.size_bytes() + values_size(items)
                }
                MenciusMsg::SuggestReject { slots, .. } => 16 + 8 * slots.len(),
                MenciusMsg::Notice { coord } => 8 + coord.size_bytes(),
                MenciusMsg::Commit { slots } => 8 + 8 * slots.len(),
                MenciusMsg::RevokeCommit { items, .. } => 16 + values_size(items),
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
        let ok = |slots: Slots, holders: u64| {
            Msg::Paxos(PaxosMsg::AcceptOk {
                ballot: Term(1),
                slots,
                exec: Slot(0),
                holders,
            })
            .size_bytes()
        };
        assert_eq!(ok(run.clone(), 0), 24 + 8 * 6);
        assert_eq!(ok(run.clone(), 0), ok(spilled.clone(), 0));
        // A lease's holders cost 4 B each, as on an `AppendOk`.
        assert_eq!(ok(run, 0b10110), 24 + 8 * 6 + 4 * 3);
        let commit = Msg::Mencius(MenciusMsg::Commit { slots: spilled });
        assert_eq!(commit.size_bytes(), 8 + 8 * 6);
    }

    /// A MultiPaxos decision costs 8 B riding an `Accept` and a 24 B
    /// message of its own (header, ballot, commit) on an idle link —
    /// however many instances it covers.
    #[test]
    fn a_multipaxos_commit_costs_one_word_on_an_accept() {
        let accept = |items: Vec<(Slot, Command)>| {
            Msg::Paxos(PaxosMsg::Accept {
                ballot: Term(1),
                items: items.into_iter().collect(),
                window_room: true,
                commit: Slot(40),
            })
            .size_bytes()
        };
        assert_eq!(accept(Vec::new()), 24, "header, ballot, commit");
        assert_eq!(
            accept(vec![(Slot(41), cmd(8))]),
            24 + 8 + cmd(8).size_bytes()
        );
        let learn = Msg::Paxos(PaxosMsg::Learn {
            ballot: Term(1),
            commit: Slot(40),
        });
        assert_eq!(learn.size_bytes(), 24);
    }

    #[test]
    fn append_size_dominated_by_entries() {
        let small = Msg::Raft(RaftMsg::Append {
            term: Term(1),
            prev: Slot(0),
            prev_term: Term(0),
            entries: [(
                Slot(1),
                Entry {
                    term: Term(1),
                    bal: Term(1),
                    cmd: cmd(8),
                },
            )]
            .into_iter()
            .collect(),
            commit: Slot(0),
            window_room: true,
        });
        let big = Msg::Raft(RaftMsg::Append {
            term: Term(1),
            prev: Slot(0),
            prev_term: Term(0),
            entries: [(
                Slot(1),
                Entry {
                    term: Term(1),
                    bal: Term(1),
                    cmd: cmd(4096),
                },
            )]
            .into_iter()
            .collect(),
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
            Msg::Mencius(MenciusMsg::Notice {
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
    /// against the 16 B+ message (and its framing) a lone `Commit` costs
    /// — and for an ack its term and 8 B per acked slot, so an ack in a
    /// notice of its own costs 16 B of header and term, the stream
    /// element and 8 B a slot.
    #[test]
    fn mencius_carriers_pay_for_what_they_carry() {
        let coord = |decisions: usize, acked: usize| Coord {
            from: Slot(1),
            watermark: Slot(7),
            commits: std::iter::repeat_n(Slot(1), decisions).collect(),
            exec: Slot(0),
            ack: (acked > 0).then(|| Ack {
                term: Term(1),
                slots: (0..acked as u64).map(|i| Slot(2 + 3 * i)).collect(),
            }),
        };
        let notice = |d, a| Msg::Mencius(MenciusMsg::Notice { coord: coord(d, a) }).size_bytes();
        let suggest = |d, a| {
            Msg::Mencius(MenciusMsg::Suggest {
                term: Term(1),
                items: [(Slot(4), cmd(8))].into_iter().collect(),
                coord: coord(d, a),
            })
            .size_bytes()
        };
        // Header + from + watermark + exec; term and the per-slot words
        // on top for a suggestion.
        assert_eq!(notice(0, 0), 32);
        assert_eq!(notice(0, 1), 48, "a lone ack of one slot");
        assert_eq!(suggest(0, 0), 56 + cmd(8).size_bytes());
        for carrier in [&notice as &dyn Fn(usize, usize) -> usize, &suggest] {
            assert_eq!(carrier(3, 0) - carrier(0, 0), 24, "8 B per decision");
            assert_eq!(carrier(0, 3) - carrier(0, 0), 32, "term + 8 B per ack");
            assert_eq!(carrier(2, 2) - carrier(0, 0), 40);
        }
        let alone = Msg::Mencius(MenciusMsg::Commit {
            slots: [Slot(1)].into_iter().collect(),
        })
        .size_bytes();
        assert!(notice(1, 0) - notice(0, 0) < alone);
        assert!(
            suggest(0, 1) - suggest(0, 0) < notice(0, 1),
            "riding is cheaper"
        );
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
            items: [(Slot(1), cmd(8))].into_iter().collect(),
            window_room: true,
            commit: Slot::NONE,
        });
        let two = Msg::Paxos(PaxosMsg::Accept {
            ballot: Term(1),
            items: [(Slot(1), cmd(8)), (Slot(2), cmd(8))].into_iter().collect(),
            window_room: true,
            commit: Slot::NONE,
        });
        assert!(two.size_bytes() > one.size_bytes());
    }

    fn command(seq: u64, bytes: usize) -> Command {
        Command::put(CmdId { client: 3, seq }, seq, vec![0; bytes])
    }

    /// Which way a batch holds its commands.
    fn shape(batch: &Batch) -> &'static str {
        match batch {
            Batch::One(_) => "one",
            Batch::Run(run) if run.is_view() => "view",
            Batch::Run(_) => "copy",
        }
    }

    /// Whether `batch` is a run of the outbox's block.
    fn in_block(batch: &Batch, outbox: &Outbox) -> bool {
        let (block, _) = outbox.cells.block_at(Slot(0)).expect("a block");
        matches!(batch, Batch::Run(run) if run.holds(block))
    }

    /// A batch of any length costs on the wire what the `Vec<Command>` it
    /// replaced cost, however it is held, and gives its commands back in
    /// order. One command is held in place, a batch of up to a block's
    /// length is a run of the outbox, and only an empty batch or a longer
    /// one is a copy.
    #[test]
    fn a_batch_is_the_vec_it_replaces_on_the_wire_and_in_order() {
        for n in [0, 1, 2, 7, 64, 65] {
            let cmds: Vec<Command> = (1..=n).map(|seq| command(seq, 8 << (seq % 10))).collect();
            let mut pending = cmds.clone();
            let batch = Outbox::default().cut(&mut pending);
            assert!(pending.is_empty() && pending.capacity() >= cmds.len());
            let expected = match n {
                1 => "one",
                2..=64 => "view",
                _ => "copy",
            };
            assert_eq!(shape(&batch), expected, "{n} commands");
            assert_eq!(batch.len(), cmds.len());
            assert_eq!(batch.is_empty(), n == 0);
            let vec_spelling = 8 + cmds.iter().map(Command::size_bytes).sum::<usize>();
            let forward = Msg::Engine(EngineMsg::Forward {
                group: 0,
                header_bytes: 8,
                cmds: batch.clone(),
            });
            assert_eq!(forward.size_bytes(), vec_spelling, "{n} commands");
            let sent: Vec<CmdId> = cmds.iter().map(|c| c.id).collect();
            assert!(batch.iter().map(|c| c.id).eq(sent), "{n} commands");
        }
    }

    /// Batches cut one after another share the follower's block until
    /// one does not fit: twelve batches of five fill 60 of its 64 cells,
    /// and the thirteenth takes a fresh block. Filling the later cells changes
    /// nothing an earlier batch reads, and a block lives as long as a
    /// batch holds it.
    #[test]
    fn forwarded_batches_share_a_block_until_one_does_not_fit() {
        let mut outbox = Outbox::default();
        let mut pending = Vec::new();
        let mut cut = |b: u64, outbox: &mut Outbox| {
            pending.extend((1..=5).map(|i| command(5 * b + i, 8)));
            outbox.cut(&mut pending)
        };
        let mut batches: Vec<Batch> = (0..12).map(|b| cut(b, &mut outbox)).collect();
        assert!(batches.iter().all(|b| in_block(b, &outbox)));
        let (first, _) = outbox.cells.block_at(Slot(0)).expect("a block");
        let first = first.clone();
        assert_eq!(
            std::rc::Rc::strong_count(&first),
            12 + 2,
            "the runs, the outbox, this"
        );
        batches.push(cut(12, &mut outbox));
        assert!(in_block(&batches[12], &outbox) && !in_block(&batches[0], &outbox));
        for (b, batch) in batches.iter().enumerate() {
            let seqs = 5 * b as u64 + 1..=5 * b as u64 + 5;
            assert!(batch.iter().map(|c| c.id.seq).eq(seqs), "batch {b}");
        }
        drop(batches);
        assert_eq!(std::rc::Rc::strong_count(&first), 1);
    }

    /// A full block that no batch holds any more is emptied before it is
    /// filled again: 36 batches of five, each dropped once read, fill it
    /// three times over and each reads its own commands. Twelve batches
    /// held when it fills keep it, so the next batch takes a fresh block and
    /// the held ones still read theirs. (That the refill allocates
    /// nothing is `tests/allocs.rs`'s to count.)
    #[test]
    fn a_full_block_no_batch_holds_is_refilled() {
        let mut outbox = Outbox::default();
        let mut pending = Vec::new();
        let mut cut = |b: u64, outbox: &mut Outbox| {
            pending.extend((1..=5).map(|i| command(5 * b + i, 8)));
            outbox.cut(&mut pending)
        };
        let block = |outbox: &Outbox| outbox.cells.block_at(Slot(0)).expect("a block").0.clone();
        let mut kept = None;
        for b in 0..36 {
            let seqs = 5 * b + 1..=5 * b + 5;
            assert!(
                cut(b, &mut outbox).iter().map(|c| c.id.seq).eq(seqs),
                "batch {b}"
            );
            let now = std::rc::Rc::as_ptr(&block(&outbox));
            assert_eq!(*kept.get_or_insert(now), now, "batch {b}");
        }
        let kept = kept.expect("cut");
        let held: Vec<Batch> = (36..48).map(|b| cut(b, &mut outbox)).collect();
        let next = cut(48, &mut outbox);
        assert!(in_block(&next, &outbox) && !in_block(&held[0], &outbox));
        assert_ne!(
            std::rc::Rc::as_ptr(&block(&outbox)),
            kept,
            "a held block is not refilled"
        );
        let seqs = held.iter().flat_map(Batch::iter).map(|c| c.id.seq);
        assert!(seqs.eq(36 * 5 + 1..=48 * 5));
    }

    #[test]
    fn forward_wire_size_pays_group_header_only_when_stamped() {
        let fwd = |header_bytes| {
            Msg::Engine(EngineMsg::Forward {
                group: 1,
                header_bytes,
                cmds: Batch::One(cmd(8)),
            })
            .size_bytes()
        };
        // Unsharded spelling (8) vs sharded spelling carrying the group
        // id (8 + 4): the surcharge is exactly the group header.
        assert_eq!(fwd(12) - fwd(8), 4);
    }
}
