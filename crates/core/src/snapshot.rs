//! State-machine snapshots and log compaction, ported uniformly across
//! both protocol families.
//!
//! The paper's method is that an optimization expressed once against
//! MultiPaxos can be carried to Raft* (and back) mechanically through the
//! refinement mapping. Log compaction via state-machine snapshots is the
//! canonical production optimization in that class:
//!
//! - **Raft spelling** (`InstallSnapshot` / `SnapshotAck` in
//!   [`crate::msg::RaftMsg`]): a leader whose compacted log no longer
//!   contains a lagging follower's next index ships its state-machine
//!   snapshot instead of log entries; the follower installs it, discards
//!   its covered log prefix and resumes normal AppendEntries from the
//!   snapshot point.
//! - **Paxos spelling** (`Checkpoint` / `CheckpointOk` in
//!   [`crate::msg::PaxosMsg`] and [`crate::msg::MenciusMsg`]): the
//!   proposer (or, under Mencius, any peer) observing an acceptor whose
//!   executed prefix lies below its own checkpoint floor ships the
//!   checkpointed state; the acceptor installs it and discards the
//!   covered instances.
//!
//! Under the Figure-3 vocabulary map the two are the same action —
//! `entry.index ↔ instance.id`, `snapshot.lastIncludedIndex ↔
//! checkpoint.executedThrough` — which is why one [`Snapshot`] type, one
//! wire encoding, one chunking scheme and one stats block serve all four
//! runnable protocols.
//!
//! Snapshots are shipped as **chunks** of [`SnapshotConfig::chunk_bytes`]
//! over the simulated network, so a multi-MB transfer occupies the
//! sender's NIC for a realistic stretch of virtual time and interleaves
//! with protocol traffic instead of arriving as one atomic monster
//! message. FIFO links reassemble in order ([`ChunkAssembler`]).

use std::collections::HashMap;

use crate::kv::{Key, KvSnapshot, Reply, Value};
use crate::types::{Slot, Term};

/// When and how replicas compact their logs and ship snapshots.
///
/// The default is **disabled** (threshold `usize::MAX`): logs grow
/// unboundedly, matching the pre-snapshot behaviour, so existing
/// workloads and tests are unaffected unless they opt in.
#[derive(Debug, Clone)]
pub struct SnapshotConfig {
    /// Compact once this many applied entries are retained in the log.
    pub threshold_entries: usize,
    /// Wire chunk size for snapshot transfer.
    pub chunk_bytes: usize,
}

impl Default for SnapshotConfig {
    fn default() -> Self {
        SnapshotConfig {
            threshold_entries: usize::MAX,
            chunk_bytes: 256 * 1024,
        }
    }
}

impl SnapshotConfig {
    /// Compaction disabled (the default).
    pub fn disabled() -> Self {
        SnapshotConfig::default()
    }

    /// Compact every `entries` applied entries.
    pub fn every(entries: usize) -> Self {
        SnapshotConfig {
            threshold_entries: entries,
            ..SnapshotConfig::default()
        }
    }

    /// Whether the compaction trigger is set.
    pub fn enabled(&self) -> bool {
        self.threshold_entries != usize::MAX
    }

    /// Whether an applied prefix of `entries` retained entries should be
    /// compacted now.
    pub fn should_compact(&self, entries: usize) -> bool {
        entries >= self.threshold_entries
    }
}

/// A self-contained state transfer: everything a replica needs to serve
/// from slot `last_slot + 1` onward without any earlier log entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Last log slot / Paxos instance covered by the state.
    pub last_slot: Slot,
    /// Term of the entry at `last_slot` (Raft family; the Paxos family
    /// ships [`Term::ZERO`] — instances carry no term once executed).
    pub last_term: Term,
    /// The state machine at `last_slot`, sessions included.
    pub kv: KvSnapshot,
}

impl Snapshot {
    /// Exact wire size of [`Snapshot::encode`]'s output.
    pub fn size_bytes(&self) -> usize {
        16 + self.kv.size_bytes()
    }

    /// Serializes to the deterministic little-endian format below.
    /// `decode` inverts this exactly; `size_bytes` predicts the length.
    ///
    /// ```text
    /// last_slot u64 | last_term u64 | applied_ops u64
    /// | record_count u64 | (key u64, len u32, bytes)*
    /// | session_count u64 | (client u32, seq u64, tag u8 [, len u32, bytes])*
    /// ```
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.size_bytes());
        out.extend_from_slice(&self.last_slot.0.to_le_bytes());
        out.extend_from_slice(&self.last_term.0.to_le_bytes());
        out.extend_from_slice(&self.kv.applied_ops.to_le_bytes());
        encode_records(&mut out, self.kv.records.iter().map(|(k, v)| (*k, v)));
        encode_sessions(
            &mut out,
            self.kv.sessions.iter().map(|(c, seq, r)| (*c, *seq, r)),
        );
        // The shard-migration section is appended only once a migration
        // touched this group; snapshots of non-migrating runs stay
        // byte-identical to the pre-migration format.
        if !self.kv.shard.is_empty() {
            self.kv.shard.encode_into(&mut out);
        }
        debug_assert_eq!(out.len(), self.size_bytes(), "size model matches encoding");
        out
    }

    /// Parses an encoded snapshot; `None` on any malformed input.
    pub fn decode(bytes: &[u8]) -> Option<Snapshot> {
        let mut r = Reader::new(bytes);
        let last_slot = Slot(r.u64()?);
        let last_term = Term(r.u64()?);
        let applied_ops = r.u64()?;
        let mut kv = KvSnapshot {
            applied_ops,
            records: decode_records(&mut r)?,
            sessions: decode_sessions(&mut r)?,
            ..KvSnapshot::default()
        };
        if !r.done() {
            // Bytes remain: the optional shard-migration section.
            kv.shard = crate::shard::migration::ShardState::decode(&mut r)?;
        }
        if !r.done() {
            return None; // trailing garbage
        }
        Some(Snapshot {
            last_slot,
            last_term,
            kv,
        })
    }
}

/// Splits an encoded transfer (a [`Snapshot`] or a range export) into
/// `(offset, chunk)` pairs of at most `chunk_bytes` each, in transmission
/// order. An empty encoding still ships one empty chunk, so the receiver
/// observes a complete transfer.
pub(crate) fn chunks(bytes: &[u8], chunk_bytes: usize) -> impl Iterator<Item = (usize, &[u8])> {
    let chunk = chunk_bytes.max(1);
    (0..bytes.len().div_ceil(chunk).max(1)).map(move |i| {
        let offset = i * chunk;
        (offset, &bytes[offset..(offset + chunk).min(bytes.len())])
    })
}

/// Writes the record list both state transfers (a [`Snapshot`] and a
/// range export) carry: `count u64 | (key u64, len u32, bytes)*`.
pub(crate) fn encode_records<'a>(
    out: &mut Vec<u8>,
    records: impl ExactSizeIterator<Item = (Key, &'a Value)>,
) {
    out.extend_from_slice(&(records.len() as u64).to_le_bytes());
    for (k, v) in records {
        out.extend_from_slice(&k.to_le_bytes());
        out.extend_from_slice(&(v.len() as u32).to_le_bytes());
        out.extend_from_slice(v);
    }
}

/// Exact length [`encode_records`] writes for records with these values.
pub(crate) fn records_len<'a>(values: impl Iterator<Item = &'a Value>) -> usize {
    8 + values.map(|v| 8 + 4 + v.len()).sum::<usize>()
}

/// Reads what [`encode_records`] wrote, as the run it was written from;
/// `None` unless the keys strictly increase.
pub(crate) fn decode_records(r: &mut Reader<'_>) -> Option<Vec<(Key, Value)>> {
    let count = r.u64()?;
    let mut records: Vec<(Key, Value)> = r.run_with_capacity(count, 8 + 4);
    for _ in 0..count {
        let k = r.u64()?;
        if records.last().is_some_and(|(prev, _)| *prev >= k) {
            return None;
        }
        let len = r.u32()? as usize;
        records.push((k, r.take(len)?.into()));
    }
    Some(records)
}

/// Writes the client-session list both state transfers carry:
/// `count u64 | (client u32, seq u64, tag u8 [, len u32, bytes])*`, the
/// tag 0 for `Done`, 1 for `Value(None)` and 2 for `Value(Some)`.
pub(crate) fn encode_sessions<'a>(
    out: &mut Vec<u8>,
    sessions: impl ExactSizeIterator<Item = (u32, u64, &'a Reply)>,
) {
    out.extend_from_slice(&(sessions.len() as u64).to_le_bytes());
    for (c, seq, reply) in sessions {
        out.extend_from_slice(&c.to_le_bytes());
        out.extend_from_slice(&seq.to_le_bytes());
        match reply {
            Reply::Done => out.push(0),
            Reply::Value(None) => out.push(1),
            Reply::Value(Some(v)) => {
                out.push(2);
                out.extend_from_slice(&(v.len() as u32).to_le_bytes());
                out.extend_from_slice(v);
            }
            // Redirects never enter a session table (the frozen-range
            // apply guard bypasses the session insert), so they cannot
            // appear in a transfer.
            Reply::WrongGroup { .. } => unreachable!("redirects are never session replies"),
        }
    }
}

/// Exact length [`encode_sessions`] writes for sessions with these
/// cached replies.
pub(crate) fn sessions_len<'a>(replies: impl Iterator<Item = &'a Reply>) -> usize {
    8 + replies
        .map(|reply| match reply {
            Reply::Value(Some(v)) => 4 + 8 + 1 + 4 + v.len(),
            _ => 4 + 8 + 1,
        })
        .sum::<usize>()
}

/// Reads what [`encode_sessions`] wrote, as the run it was written
/// from; `None` unless the clients strictly increase.
pub(crate) fn decode_sessions(r: &mut Reader<'_>) -> Option<Vec<(u32, u64, Reply)>> {
    let count = r.u64()?;
    let mut sessions: Vec<(u32, u64, Reply)> = r.run_with_capacity(count, 4 + 8 + 1);
    for _ in 0..count {
        let c = r.u32()?;
        if sessions.last().is_some_and(|(prev, _, _)| *prev >= c) {
            return None;
        }
        let seq = r.u64()?;
        let reply = match r.u8()? {
            0 => Reply::Done,
            1 => Reply::Value(None),
            2 => {
                let len = r.u32()? as usize;
                Reply::Value(Some(r.take(len)?.into()))
            }
            _ => return None,
        };
        sessions.push((c, seq, reply));
    }
    Some(sessions)
}

/// Little-endian byte reader shared by the snapshot and range-export
/// decoders.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }
    pub(crate) fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
    /// An empty run sized for `count` items of at least `min_bytes`
    /// encoded bytes each, capped by what the unread bytes could hold,
    /// so a corrupt count cannot reserve more than the input backs.
    pub(crate) fn run_with_capacity<T>(&self, count: u64, min_bytes: usize) -> Vec<T> {
        let fits = (self.bytes.len() - self.pos) / min_bytes;
        Vec::with_capacity(usize::try_from(count).map_or(fits, |n| n.min(fits)))
    }
    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Some(s)
    }
    pub(crate) fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }
    pub(crate) fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }
    pub(crate) fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
}

/// Receiver-side chunk reassembly, **keyed by sender**, for both
/// transfers: a snapshot ([`Snapshot::decode`]) and a range migration
/// ([`crate::shard::migration::RangeExport::decode`]). Under the
/// multi-leader spellings several peers may ship a laggard overlapping
/// checkpoints concurrently; their chunk streams interleave at the
/// receiver, so each sender gets its own buffer — whichever transfer
/// completes first installs, and stale ones are discarded by the
/// installer's freshness check.
///
/// Per sender, chunks arrive in send order (the simulated network is
/// FIFO per link): a chunk at offset 0 starts that sender's transfer
/// over, and a chunk that does not extend its buffer drops it (a lost
/// chunk simply makes the transfer restart on the sender's retry). The
/// `tag` slot discriminates transfers: a chunk whose tag differs from
/// the in-progress transfer's restarts it.
#[derive(Debug, Default)]
pub struct ChunkAssembler {
    cur: HashMap<u64, (Slot, usize, Vec<u8>)>,
}

impl ChunkAssembler {
    /// Feeds one chunk from `sender`; returns the reassembled bytes
    /// when that sender's transfer completes.
    pub fn offer(
        &mut self,
        sender: u64,
        tag: Slot,
        offset: usize,
        total: usize,
        data: &[u8],
    ) -> Option<Vec<u8>> {
        if offset == 0 {
            self.cur
                .insert(sender, (tag, total, Vec::with_capacity(total)));
        }
        let (slot, want_total, buf) = self.cur.get_mut(&sender)?;
        if *slot != tag || *want_total != total || buf.len() != offset {
            // Mid-transfer mismatch (lost chunk, superseded transfer):
            // drop and wait for this sender's retry from offset 0.
            self.cur.remove(&sender);
            return None;
        }
        buf.extend_from_slice(data);
        if buf.len() >= total {
            let (_, _, bytes) = self.cur.remove(&sender).expect("checked");
            return Some(bytes);
        }
        None
    }

    /// Abandons every in-flight transfer.
    pub fn clear(&mut self) {
        self.cur.clear();
    }
}

/// Compaction and snapshot-transfer counters, kept per replica and
/// aggregated by the harness into
/// [`crate::harness::RunReport::snapshots`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Times this replica compacted its log / instance store.
    pub compactions: u64,
    /// Log entries (or Paxos instances) discarded by compaction.
    pub entries_discarded: u64,
    /// Full snapshots shipped to lagging peers.
    pub snapshots_sent: u64,
    /// Encoded snapshot bytes shipped (sum over sends).
    pub snapshot_bytes_sent: u64,
    /// Snapshots received and installed.
    pub snapshots_installed: u64,
    /// High-water mark of retained log entries / instances.
    pub peak_log_entries: u64,
    /// High-water mark of retained log bytes (the Raft family's entries,
    /// the Paxos family's instance payloads).
    pub peak_log_bytes: u64,
}

impl SnapshotStats {
    /// Accumulates another replica's counters (peaks take the max).
    pub fn absorb(&mut self, other: &SnapshotStats) {
        self.compactions += other.compactions;
        self.entries_discarded += other.entries_discarded;
        self.snapshots_sent += other.snapshots_sent;
        self.snapshot_bytes_sent += other.snapshot_bytes_sent;
        self.snapshots_installed += other.snapshots_installed;
        self.peak_log_entries = self.peak_log_entries.max(other.peak_log_entries);
        self.peak_log_bytes = self.peak_log_bytes.max(other.peak_log_bytes);
    }

    /// Records an observed retained-log size.
    pub fn note_log_size(&mut self, entries: usize, bytes: usize) {
        self.peak_log_entries = self.peak_log_entries.max(entries as u64);
        self.peak_log_bytes = self.peak_log_bytes.max(bytes as u64);
    }

    /// Records one outbound snapshot transfer of `bytes` encoded bytes.
    pub fn note_sent(&mut self, bytes: usize) {
        self.snapshots_sent += 1;
        self.snapshot_bytes_sent += bytes as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::{CmdId, Command, KvStore};

    fn sample_snapshot(records: u64, value_len: usize) -> Snapshot {
        let mut kv = KvStore::new();
        for k in 0..records {
            kv.apply(&Command::put(
                CmdId {
                    client: (k % 3) as u32 + 1,
                    seq: k + 1,
                },
                k,
                vec![k as u8; value_len],
            ));
        }
        kv.apply(&Command::get(
            CmdId {
                client: 1,
                seq: records + 1,
            },
            0,
        ));
        Snapshot {
            last_slot: Slot(records + 1),
            last_term: Term(7),
            kv: kv.snapshot(),
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let snap = sample_snapshot(20, 32);
        let bytes = snap.encode();
        assert_eq!(bytes.len(), snap.size_bytes(), "size model is exact");
        let back = Snapshot::decode(&bytes).expect("decodes");
        assert_eq!(back, snap);
    }

    #[test]
    fn decode_rejects_malformed_input() {
        let snap = sample_snapshot(3, 8);
        let bytes = snap.encode();
        assert!(
            Snapshot::decode(&bytes[..bytes.len() - 1]).is_none(),
            "truncated"
        );
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(Snapshot::decode(&longer).is_none(), "trailing garbage");
        assert!(Snapshot::decode(&[]).is_none(), "empty");
        // Each table decodes to the run it was written from, so keys and
        // clients must strictly increase.
        let reject = |edit: fn(&mut KvSnapshot)| {
            let mut bad = snap.clone();
            edit(&mut bad.kv);
            Snapshot::decode(&bad.encode()).is_none()
        };
        assert!(reject(|kv| kv.records.swap(0, 1)), "records out of order");
        assert!(
            reject(|kv| kv.records[1].0 = kv.records[0].0),
            "duplicate key"
        );
        assert!(reject(|kv| kv.sessions.swap(0, 1)), "sessions out of order");
        assert!(
            reject(|kv| kv.sessions[1].0 = kv.sessions[0].0),
            "duplicate client"
        );
        // A record count the remaining bytes cannot back reserves no
        // more than they could hold, and fails on the first short read.
        let mut huge = bytes.clone();
        huge[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(
            Snapshot::decode(&huge).is_none(),
            "record count past the input"
        );
    }

    #[test]
    fn chunking_covers_encoding_exactly() {
        let encoded = sample_snapshot(10, 100).encode();
        for chunk_bytes in [1usize, 7, 64, 1 << 20] {
            let mut glued = Vec::new();
            for (offset, data) in chunks(&encoded, chunk_bytes) {
                assert_eq!(offset, glued.len(), "offsets are contiguous");
                assert!(data.len() <= chunk_bytes);
                glued.extend_from_slice(data);
            }
            assert_eq!(glued, encoded);
        }
    }

    /// Feeds `snap`'s 50-byte chunks from sender 1 in order, skipping
    /// chunk `lost`, and decodes whatever the assembler completes.
    fn reassemble(
        asm: &mut ChunkAssembler,
        snap: &Snapshot,
        lost: Option<usize>,
    ) -> Option<Snapshot> {
        let bytes = snap.encode();
        let mut got = None;
        for (i, (offset, data)) in chunks(&bytes, 50).enumerate() {
            if Some(i) != lost {
                got = asm.offer(1, snap.last_slot, offset, bytes.len(), data);
            }
        }
        got.and_then(|b| Snapshot::decode(&b))
    }

    #[test]
    fn assembler_reassembles_in_order() {
        let snap = sample_snapshot(8, 64);
        assert!(
            chunks(&snap.encode(), 50).count() > 2,
            "multi-chunk transfer"
        );
        let mut asm = ChunkAssembler::default();
        assert_eq!(reassemble(&mut asm, &snap, None), Some(snap));
    }

    #[test]
    fn assembler_recovers_from_lost_chunk_via_restart() {
        let snap = sample_snapshot(8, 64);
        let mut asm = ChunkAssembler::default();
        // The second chunk is lost: the third hits a gap and the transfer
        // never completes.
        assert_eq!(reassemble(&mut asm, &snap, Some(1)), None, "gap resets");
        // A full retry from offset 0 then completes.
        assert_eq!(reassemble(&mut asm, &snap, None), Some(snap));
    }

    #[test]
    fn empty_state_ships_one_chunk() {
        assert_eq!(chunks(&[], 1024).collect::<Vec<_>>(), [(0, &[][..])]);
        let snap = Snapshot {
            last_slot: Slot(5),
            last_term: Term(2),
            kv: KvStore::new().snapshot(),
        };
        let mut asm = ChunkAssembler::default();
        assert_eq!(reassemble(&mut asm, &snap, None), Some(snap));
    }

    #[test]
    fn config_thresholds() {
        assert!(!SnapshotConfig::disabled().enabled());
        let c = SnapshotConfig::every(64);
        assert!(c.enabled());
        assert!(!c.should_compact(63));
        assert!(c.should_compact(64));
    }

    #[test]
    fn stats_absorb_sums_and_maxes() {
        let mut a = SnapshotStats {
            compactions: 2,
            peak_log_entries: 10,
            ..Default::default()
        };
        let b = SnapshotStats {
            compactions: 3,
            peak_log_entries: 7,
            snapshots_installed: 1,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.compactions, 5);
        assert_eq!(a.peak_log_entries, 10, "peaks take the max");
        assert_eq!(a.snapshots_installed, 1);
    }
}
