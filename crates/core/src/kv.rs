//! The replicated key-value state machine and client command types.
//!
//! The paper's workload is a key-value store initialized with 100K records
//! (Section 5). Commands carry a unique `(client, seq)` id so replicas can
//! deduplicate retried requests (exactly-once apply) and so the
//! linearizability checker can match writes to reads: every written value
//! embeds its command id in the first 8 bytes.
//!
//! Value bytes are immutable once the client built the command, so they
//! are held as [`Value`] (`Arc<[u8]>`): allocated once in
//! [`Command::put`], then shared by every message copy, log entry,
//! store record, snapshot and reply in the process. Cloning a command
//! bumps a reference count; the modeled sizes (`size_bytes`) still
//! count every byte on every hop.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::shard::migration::{self, KeyOwnership, RangeExport, RouterVersion, ShardState};

/// A record key.
pub type Key = u64;

/// A written value's bytes: immutable and shared (module docs).
pub type Value = Arc<[u8]>;

/// Unique command identifier: issuing client and per-client sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CmdId {
    /// The logical client number (not a sim actor id).
    pub client: u32,
    /// Monotonic per-client sequence number, starting at 1.
    pub seq: u64,
}

impl CmdId {
    /// Packs the id into a 64-bit value-id used as the written value's
    /// prefix, making every written value unique.
    pub fn as_value_id(self) -> u64 {
        ((self.client as u64) << 32) | (self.seq & 0xFFFF_FFFF)
    }
}

/// The operation a command performs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Consensus no-op (leader change fill, Mencius skip).
    Noop,
    /// Write `value` to `key`.
    Put {
        /// Target record.
        key: Key,
        /// Value bytes; first 8 bytes hold [`CmdId::as_value_id`].
        value: Value,
    },
    /// Read `key`.
    Get {
        /// Target record.
        key: Key,
    },
    /// Migration step 1 (committed in the **source** group's log): from
    /// this entry's apply point on, operations on `[lo, hi)` bounce with
    /// [`Reply::WrongGroup`] at `version` — the linearization cutover of
    /// the hand-off. See [`crate::shard::migration`].
    FreezeRange {
        /// First key of the moved range.
        lo: Key,
        /// One past the last key.
        hi: Key,
        /// The group that owns the range from `version` on.
        to_group: u32,
        /// The migration's partition-map version.
        version: RouterVersion,
        /// Coordinator client id (responses route there).
        coord: u32,
    },
    /// Migration step 3 (committed in the **destination** group's log):
    /// absorb the exported range and serve it from this entry's apply
    /// point on. Carries the full export so every destination replica
    /// installs identical state at the same log position.
    InstallRange(RangeExport),
    /// Migration step 4 (committed in the **source** group's log): drop
    /// the moved records; the redirect tombstone stays.
    ReleaseRange {
        /// The migration's version (names the frozen range to drop).
        version: RouterVersion,
    },
}

impl Op {
    /// The key this operation touches, if any (migration commands are
    /// range-addressed control operations, not key operations — they are
    /// never misrouted and never generated by clients).
    pub fn key(&self) -> Option<Key> {
        match self {
            Op::Noop | Op::FreezeRange { .. } | Op::InstallRange(_) | Op::ReleaseRange { .. } => {
                None
            }
            Op::Put { key, .. } | Op::Get { key } => Some(*key),
        }
    }

    /// Whether this operation modifies state.
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Put { .. })
    }

    /// Whether this is a migration control operation (freeze, install,
    /// release). Migration commands are deduplicated by their router
    /// *version* — not by the coordinator's session sequence — so that
    /// concurrent migrations sharing a source or destination group stay
    /// exactly-once even when their commands commit out of sequence
    /// order.
    pub fn is_migration(&self) -> bool {
        matches!(
            self,
            Op::FreezeRange { .. } | Op::InstallRange(_) | Op::ReleaseRange { .. }
        )
    }

    /// Approximate wire size in bytes.
    pub fn size_bytes(&self) -> usize {
        match self {
            Op::Noop => 1,
            Op::Put { value, .. } => 8 + value.len(),
            Op::Get { .. } => 8,
            Op::FreezeRange { .. } => 33,
            Op::InstallRange(export) => 1 + export.size_bytes(),
            Op::ReleaseRange { .. } => 9,
        }
    }
}

/// A client command: a unique id plus an operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Command {
    /// Unique id for dedup and reply routing.
    pub id: CmdId,
    /// The operation.
    pub op: Op,
}

impl Command {
    /// Convenience constructor for a `Put`; embeds the command id in the
    /// value prefix and pads to `value` length.
    pub fn put(id: CmdId, key: Key, mut value: Vec<u8>) -> Command {
        if value.len() < 8 {
            value.resize(8, 0);
        }
        value[..8].copy_from_slice(&id.as_value_id().to_le_bytes());
        Command {
            id,
            op: Op::Put {
                key,
                value: value.into(),
            },
        }
    }

    /// Convenience constructor for a `Get`.
    pub fn get(id: CmdId, key: Key) -> Command {
        Command {
            id,
            op: Op::Get { key },
        }
    }

    /// A consensus no-op with a reserved id.
    pub fn noop() -> Command {
        Command {
            id: CmdId {
                client: u32::MAX,
                seq: 0,
            },
            op: Op::Noop,
        }
    }

    /// Approximate wire size in bytes.
    pub fn size_bytes(&self) -> usize {
        12 + self.op.size_bytes()
    }
}

/// The result of applying a command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// A `Put` or `Noop` completed.
    Done,
    /// A `Get` returned the stored value (or `None` if unset).
    Value(Option<Value>),
    /// The command's key is owned by another replica group (sharded
    /// clusters only): the client should retry against the named group.
    /// Never enters a session table — it is sent before replication for
    /// statically misrouted keys, and the frozen-range apply guard that
    /// produces it post-replication bypasses the session insert.
    WrongGroup {
        /// The group that owns the command's key under the replier's
        /// partition map.
        group: u32,
        /// The replier's partition-map version. A client holding a
        /// *newer* map than the replier ignores the redirect (the
        /// replier has not applied the move yet) instead of following it
        /// backwards into a redirect loop.
        version: RouterVersion,
    },
}

impl Reply {
    /// Extracts the unique value-id prefix of a read value, for the
    /// linearizability checker.
    pub fn value_id(&self) -> Option<u64> {
        match self {
            Reply::Value(Some(v)) if v.len() >= 8 => {
                Some(u64::from_le_bytes(v[..8].try_into().expect("8 bytes")))
            }
            _ => None,
        }
    }

    /// Approximate wire size in bytes. The redirect's version rides in
    /// reserved header bits of the 4-byte group field's word (same
    /// argument as `window_room` on replication traffic), so the wire
    /// size model is unchanged by versioning.
    pub fn size_bytes(&self) -> usize {
        match self {
            Reply::Done => 1,
            Reply::Value(v) => 1 + v.as_ref().map_or(0, |b| b.len()),
            Reply::WrongGroup { .. } => 5,
        }
    }
}

/// Hashes the store's integer keys (record keys, client numbers) with
/// one multiply and a fold instead of SipHash under a per-map random
/// seed. The keys come from the simulated workload, never from outside
/// the program, so there is no collision attack to defend against; and
/// with a fixed seed two runs of one seed allocate identically. Nothing
/// observable may depend on the order this puts a map in — every reader
/// that iterates one (`snapshot`, `export_range`, `export_sessions`,
/// the install merge) sorts.
#[derive(Debug, Default, Clone, Copy)]
struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    /// The table takes its bucket from the low bits and its tag from the
    /// top seven: the multiply spreads every input bit upwards, the fold
    /// brings the well-mixed half back down.
    fn write_u64(&mut self, x: u64) {
        let h = (self.0 ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// The key-value store with client sessions for exactly-once apply.
#[derive(Debug, Default)]
pub struct KvStore {
    table: IntMap<Key, Value>,
    /// Per-client `(last applied seq, last reply)` for dedup on retry.
    sessions: IntMap<u32, (u64, Reply)>,
    applied_ops: u64,
    /// Replicated shard-migration overrides (empty unless a migration
    /// command was applied; see [`crate::shard::migration`]).
    shard: ShardState,
}

impl KvStore {
    /// An empty store.
    pub fn new() -> Self {
        KvStore::default()
    }

    /// Applies a command with exactly-once semantics.
    ///
    /// A command whose `(client, seq)` was already applied returns the
    /// cached reply and does not mutate state; this is what makes client
    /// retries safe. A keyed command on a range this group froze away is
    /// bounced with [`Reply::WrongGroup`] deterministically — the freeze
    /// entry's position in the log is the hand-off cutover, so every
    /// replica refuses exactly the same suffix of operations.
    ///
    /// Migration control commands bypass the session table entirely:
    /// with concurrent migrations, the coordinator's commands can commit
    /// out of sequence order at a shared source or destination group,
    /// and the max-seq session gate would silently swallow the
    /// lower-versioned command. They are idempotent per router version
    /// (`has_frozen` / `has_absorbed` / the `released` flag) and always
    /// answer [`Reply::Done`], so replaying a duplicate is harmless and
    /// the coordinator's retry still gets its reply.
    pub fn apply(&mut self, cmd: &Command) -> Reply {
        if cmd.id.client != u32::MAX && !cmd.op.is_migration() {
            if let Some((last_seq, last_reply)) = self.sessions.get(&cmd.id.client) {
                if cmd.id.seq <= *last_seq {
                    return last_reply.clone();
                }
            }
        }
        if let Some(key) = cmd.op.key() {
            if let Some(KeyOwnership::Redirect(group, version)) = self.shard.override_for(key) {
                // Not recorded in the session and not counted as an
                // apply: the operation did not take effect here, and the
                // client's retry at the owning group must be free to
                // apply under the same command id.
                return Reply::WrongGroup { group, version };
            }
        }
        let reply = match &cmd.op {
            Op::Noop => {
                self.applied_ops += 1;
                Reply::Done
            }
            Op::Put { key, value } => {
                self.applied_ops += 1;
                self.table.insert(*key, value.clone());
                Reply::Done
            }
            Op::Get { key } => {
                self.applied_ops += 1;
                Reply::Value(self.table.get(key).cloned())
            }
            Op::FreezeRange {
                lo,
                hi,
                to_group,
                version,
                coord,
            } => {
                // Version-duplicate migration commands are dedup hits,
                // not applies — the counter stays comparable across
                // serial and concurrent schedules.
                if self.apply_freeze(*lo, *hi, *to_group, *version, *coord) {
                    self.applied_ops += 1;
                }
                Reply::Done
            }
            Op::InstallRange(export) => {
                if self.apply_install(export) {
                    self.applied_ops += 1;
                }
                Reply::Done
            }
            Op::ReleaseRange { version } => {
                if self.apply_release(*version) {
                    self.applied_ops += 1;
                }
                Reply::Done
            }
        };
        if cmd.id.client != u32::MAX && !cmd.op.is_migration() {
            self.sessions
                .insert(cmd.id.client, (cmd.id.seq, reply.clone()));
        }
        reply
    }

    fn apply_freeze(
        &mut self,
        lo: Key,
        hi: Key,
        to_group: u32,
        version: RouterVersion,
        coord: u32,
    ) -> bool {
        if self.shard.has_frozen(version) {
            return false; // duplicate freeze (coordinator retry)
        }
        self.shard.frozen.push(migration::FrozenRange {
            lo,
            hi,
            to_group,
            version,
            coord,
            released: false,
        });
        self.shard.version = self.shard.version.max(version);
        true
    }

    fn apply_install(&mut self, export: &RangeExport) -> bool {
        if self.shard.has_absorbed(export.version) {
            return false; // duplicate install (re-export raced the commit)
        }
        for (k, v) in &export.records {
            self.table.insert(*k, v.clone());
        }
        // Sessions merge max-seq-wins so a client's pre-freeze source
        // write stays deduplicated when retried here (HashMap-backed
        // sessions merge through a BTreeMap for deterministic order).
        let mut merged: BTreeMap<u32, (u64, Reply)> =
            self.sessions.iter().map(|(c, s)| (*c, s.clone())).collect();
        migration::merge_sessions(&mut merged, &export.sessions);
        self.sessions = merged.into_iter().collect();
        self.shard.absorbed.push(migration::AbsorbedRange {
            lo: export.lo,
            hi: export.hi,
            from_group: export.from_group,
            version: export.version,
        });
        self.shard.version = self.shard.version.max(export.version);
        true
    }

    fn apply_release(&mut self, version: RouterVersion) -> bool {
        let Some(f) = self.shard.frozen.iter_mut().find(|f| f.version == version) else {
            return false; // unknown version (stale release)
        };
        if f.released {
            return false; // duplicate release
        }
        f.released = true;
        let (lo, hi) = (f.lo, f.hi);
        // Drop only keys the hand-off still covers (a later migration
        // may have moved a sub-range back; its absorbed override wins).
        let doomed: Vec<Key> = self
            .table
            .keys()
            .filter(|k| (lo..hi).contains(*k))
            .filter(|k| {
                matches!(
                    self.shard.override_for(**k),
                    Some(KeyOwnership::Redirect(_, _))
                )
            })
            .copied()
            .collect();
        for k in doomed {
            self.table.remove(&k);
        }
        true
    }

    /// The replicated shard-migration overrides.
    pub fn shard_state(&self) -> &ShardState {
        &self.shard
    }

    /// The records in `[lo, hi)`, ordered by key (the source leader's
    /// export path).
    pub fn export_range(&self, lo: Key, hi: Key) -> Vec<(Key, Value)> {
        let mut out: Vec<(Key, Value)> = self
            .table
            .iter()
            .filter(|(k, _)| (lo..hi).contains(*k))
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// The session table `(client, seq, reply)`, ordered by client (the
    /// export path; sessions travel with a moved range).
    pub fn export_sessions(&self) -> Vec<(u32, u64, Reply)> {
        let mut out: Vec<(u32, u64, Reply)> = self
            .sessions
            .iter()
            .map(|(c, (seq, reply))| (*c, *seq, reply.clone()))
            .collect();
        out.sort_by_key(|(c, _, _)| *c);
        out
    }

    /// Direct read of a key without logging (the lease-holder local-read
    /// path). Does not touch sessions.
    pub fn read_local(&self, key: Key) -> Reply {
        Reply::Value(self.table.get(&key).cloned())
    }

    /// Number of state-mutating or reading applies (excluding dedup hits).
    pub fn applied_ops(&self) -> u64 {
        self.applied_ops
    }

    /// Number of keys present.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Captures the full state-machine state — records **and** client
    /// sessions. Sessions must travel with snapshots, or a restored
    /// replica would re-apply (or double-answer) retried commands and
    /// break exactly-once semantics.
    ///
    /// The capture is ordered (`BTreeMap`) so equality, iteration and
    /// the wire encoding are deterministic regardless of `HashMap`
    /// insertion history.
    pub fn snapshot(&self) -> KvSnapshot {
        KvSnapshot {
            table: self.table.iter().map(|(k, v)| (*k, v.clone())).collect(),
            sessions: self.sessions.iter().map(|(c, s)| (*c, s.clone())).collect(),
            applied_ops: self.applied_ops,
            shard: self.shard.clone(),
        }
    }

    /// Replaces this store's state with a snapshot's.
    pub fn restore(&mut self, snap: &KvSnapshot) {
        self.table = snap.table.iter().map(|(k, v)| (*k, v.clone())).collect();
        self.sessions = snap.sessions.iter().map(|(c, s)| (*c, s.clone())).collect();
        self.applied_ops = snap.applied_ops;
        self.shard = snap.shard.clone();
    }
}

/// A point-in-time copy of a [`KvStore`]'s state, with a deterministic
/// size model so the simulator can charge realistic NIC transfer cost
/// for multi-MB snapshot payloads.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct KvSnapshot {
    /// Stored records, ordered by key.
    pub table: BTreeMap<Key, Value>,
    /// Per-client `(last applied seq, cached reply)` sessions.
    pub sessions: BTreeMap<u32, (u64, Reply)>,
    /// Apply counter carried across restore.
    pub applied_ops: u64,
    /// Replicated shard-migration overrides. Empty in any run that never
    /// migrated, in which case the encoding omits the section entirely —
    /// non-migrating snapshots stay byte-identical to their pre-migration
    /// format.
    pub shard: ShardState,
}

impl KvSnapshot {
    /// Exact serialized size in bytes — matches the length of
    /// [`crate::snapshot::Snapshot::encode`]'s kv section byte for byte,
    /// so CPU/NIC charges agree with what is actually shipped.
    pub fn size_bytes(&self) -> usize {
        let mut n = 8 + 8; // applied_ops + record count
        for v in self.table.values() {
            n += 8 + 4 + v.len(); // key + length prefix + payload
        }
        n += 8; // session count
        for (_, reply) in self.sessions.values() {
            n += 4 + 8 + 1; // client + seq + reply tag
            if let Reply::Value(Some(v)) = reply {
                n += 4 + v.len();
            }
        }
        if !self.shard.is_empty() {
            n += self.shard.encoded_len();
        }
        n
    }

    /// Number of records captured.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when no records were captured.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(c: u32, s: u64) -> CmdId {
        CmdId { client: c, seq: s }
    }

    #[test]
    fn put_then_get() {
        let mut kv = KvStore::new();
        assert_eq!(
            kv.apply(&Command::put(id(1, 1), 7, vec![0; 16])),
            Reply::Done
        );
        let r = kv.apply(&Command::get(id(1, 2), 7));
        assert_eq!(r.value_id(), Some(id(1, 1).as_value_id()));
    }

    #[test]
    fn get_missing_returns_none() {
        let mut kv = KvStore::new();
        assert_eq!(kv.apply(&Command::get(id(1, 1), 99)), Reply::Value(None));
        assert_eq!(Reply::Value(None).value_id(), None);
    }

    #[test]
    fn duplicate_seq_is_deduplicated() {
        let mut kv = KvStore::new();
        let put1 = Command::put(id(1, 1), 5, vec![0; 8]);
        kv.apply(&put1);
        let ops = kv.applied_ops();
        // Retry of seq 1 must not re-apply.
        assert_eq!(kv.apply(&put1), Reply::Done);
        assert_eq!(kv.applied_ops(), ops);
    }

    #[test]
    fn dedup_returns_cached_reply() {
        let mut kv = KvStore::new();
        kv.apply(&Command::put(id(2, 1), 5, vec![0; 8]));
        let get = Command::get(id(1, 1), 5);
        let first = kv.apply(&get);
        // Another client's write in between.
        kv.apply(&Command::put(id(2, 2), 5, vec![0; 8]));
        // Retry of the same get returns the *original* cached reply.
        assert_eq!(kv.apply(&get), first);
    }

    #[test]
    fn stale_seq_does_not_overwrite() {
        let mut kv = KvStore::new();
        kv.apply(&Command::put(id(1, 2), 5, vec![0; 8]));
        // A delayed older command from the same client must be ignored.
        kv.apply(&Command::put(id(1, 1), 5, vec![0xFF; 8]));
        let r = kv.read_local(5);
        assert_eq!(r.value_id(), Some(id(1, 2).as_value_id()));
    }

    #[test]
    fn noop_applies_without_session() {
        let mut kv = KvStore::new();
        assert_eq!(kv.apply(&Command::noop()), Reply::Done);
        assert_eq!(kv.apply(&Command::noop()), Reply::Done);
        assert_eq!(kv.applied_ops(), 2, "noops never dedup");
    }

    #[test]
    fn value_id_embedding() {
        let c = Command::put(id(3, 9), 1, vec![0; 64]);
        if let Op::Put { value, .. } = &c.op {
            assert_eq!(value.len(), 64);
            let vid = u64::from_le_bytes(value[..8].try_into().unwrap());
            assert_eq!(vid, id(3, 9).as_value_id());
        } else {
            panic!("expected put");
        }
    }

    #[test]
    fn short_value_padded_to_id_width() {
        let c = Command::put(id(1, 1), 1, vec![1, 2, 3]);
        if let Op::Put { value, .. } = &c.op {
            assert_eq!(value.len(), 8);
        } else {
            panic!("expected put");
        }
    }

    #[test]
    fn sizes_reflect_payload() {
        let small = Command::put(id(1, 1), 1, vec![0; 8]);
        let large = Command::put(id(1, 2), 1, vec![0; 4096]);
        assert!(large.size_bytes() > small.size_bytes());
        assert_eq!(Command::get(id(1, 3), 1).size_bytes(), 12 + 8);
        assert_eq!(Command::noop().size_bytes(), 13);
    }

    #[test]
    fn snapshot_restore_round_trips_state_and_sessions() {
        let mut kv = KvStore::new();
        kv.apply(&Command::put(id(1, 1), 5, vec![0; 32]));
        kv.apply(&Command::put(id(2, 1), 6, vec![0; 32]));
        kv.apply(&Command::get(id(1, 2), 5));
        let snap = kv.snapshot();
        let mut restored = KvStore::new();
        restored.restore(&snap);
        assert_eq!(restored.len(), 2);
        assert_eq!(restored.applied_ops(), kv.applied_ops());
        assert_eq!(restored.read_local(5), kv.read_local(5));
        // Session dedup survives: retrying an already-applied command on
        // the restored store must not re-apply.
        let ops = restored.applied_ops();
        restored.apply(&Command::put(id(1, 1), 5, vec![0xFF; 32]));
        assert_eq!(restored.applied_ops(), ops, "dedup survived restore");
        assert_eq!(
            restored.read_local(5).value_id(),
            Some(id(1, 1).as_value_id())
        );
    }

    /// Value bytes are shared, never mutated in place: overwriting a key
    /// swaps the store's pointer, so a snapshot, a restored copy and an
    /// export taken earlier keep decoding the bytes they captured.
    #[test]
    fn shared_value_bytes_are_not_aliased_by_a_later_overwrite() {
        let mut kv = KvStore::new();
        let first = Command::put(id(1, 1), 5, vec![0xAA; 32]);
        let Op::Put { value: sent, .. } = &first.op else {
            unreachable!()
        };
        kv.apply(&first);
        let snap = kv.snapshot();
        let export = kv.export_range(0, 10);
        let mut restored = KvStore::new();
        restored.restore(&snap);
        assert!(
            Arc::ptr_eq(&snap.table[&5], sent) && Arc::ptr_eq(&export[0].1, sent),
            "one allocation from the client's command to every copy"
        );

        kv.apply(&Command::put(id(1, 2), 5, vec![0xBB; 32]));
        assert_eq!(kv.read_local(5).value_id(), Some(id(1, 2).as_value_id()));
        let old = Reply::Value(Some(sent.clone()));
        assert_eq!(old.value_id(), Some(id(1, 1).as_value_id()));
        assert_eq!(
            snap.table[&5][8..],
            [0xAA; 24],
            "snapshot keeps the old bytes"
        );
        assert_eq!(export, vec![(5, sent.clone())], "so does the export");
        assert_eq!(restored.read_local(5), old, "and the restored store");
        assert_eq!(restored.export_range(0, 10), export);
    }

    #[test]
    fn snapshot_size_scales_with_payload() {
        let mut kv = KvStore::new();
        kv.apply(&Command::put(id(1, 1), 1, vec![0; 64]));
        let small = kv.snapshot().size_bytes();
        kv.apply(&Command::put(id(1, 2), 2, vec![0; 4096]));
        let large = kv.snapshot().size_bytes();
        assert!(large >= small + 4096, "{small} -> {large}");
        // Deterministic: same state, same size.
        assert_eq!(kv.snapshot().size_bytes(), large);
    }

    /// Migration commands from the one coordinator client must apply
    /// even when a lower-versioned command commits *after* a
    /// higher-versioned one (concurrent migrations racing at a shared
    /// source group) — the session max-seq gate would swallow it.
    #[test]
    fn migration_ops_dedup_by_version_not_by_session_order() {
        let mut kv = KvStore::new();
        kv.apply(&Command::put(id(1, 1), 10, vec![0; 8]));
        kv.apply(&Command::put(id(1, 2), 20, vec![0; 8]));
        let coord = 7;
        let freeze = |version: u64, lo: Key, hi: Key| Command {
            id: crate::shard::migration::freeze_cmd_id(coord, version),
            op: Op::FreezeRange {
                lo,
                hi,
                to_group: 1,
                version,
                coord,
            },
        };
        // Version 2 (seq 8) lands first, then version 1 (seq 4).
        assert_eq!(kv.apply(&freeze(2, 20, 30)), Reply::Done);
        assert_eq!(kv.apply(&freeze(1, 10, 20)), Reply::Done);
        assert_eq!(kv.shard_state().frozen.len(), 2, "both freezes applied");
        // A version duplicate is a dedup hit: no new frozen entry, no
        // applied-op bump, and the retry still gets its Done.
        let ops = kv.applied_ops();
        assert_eq!(kv.apply(&freeze(2, 20, 30)), Reply::Done);
        assert_eq!(kv.shard_state().frozen.len(), 2);
        assert_eq!(kv.applied_ops(), ops);
        // Coordinator commands never enter the session table, so they
        // cannot perturb client dedup or travel in range exports.
        assert!(kv.export_sessions().iter().all(|(c, _, _)| *c != coord));
    }

    /// Out-of-order installs at a shared destination group: version 2's
    /// install may commit before version 1's.
    #[test]
    fn out_of_order_installs_both_absorb() {
        let mut kv = KvStore::new();
        let coord = 7;
        let export = |version: u64, lo: Key, hi: Key| Command {
            id: crate::shard::migration::install_cmd_id(coord, version),
            op: Op::InstallRange(RangeExport {
                version,
                lo,
                hi,
                from_group: 0,
                to_group: 1,
                coord,
                records: vec![(lo, vec![version as u8; 8].into())],
                sessions: vec![],
            }),
        };
        assert_eq!(kv.apply(&export(2, 20, 30)), Reply::Done);
        assert_eq!(kv.apply(&export(1, 10, 20)), Reply::Done);
        assert_eq!(kv.shard_state().absorbed.len(), 2, "both installs");
        assert_eq!(kv.read_local(10), Reply::Value(Some(vec![1; 8].into())));
        assert_eq!(kv.read_local(20), Reply::Value(Some(vec![2; 8].into())));
        let ops = kv.applied_ops();
        assert_eq!(kv.apply(&export(1, 10, 20)), Reply::Done);
        assert_eq!(kv.applied_ops(), ops, "duplicate install is a no-op");
    }

    #[test]
    fn read_local_bypasses_sessions() {
        let mut kv = KvStore::new();
        kv.apply(&Command::put(id(1, 1), 5, vec![0; 8]));
        let ops = kv.applied_ops();
        let _ = kv.read_local(5);
        assert_eq!(kv.applied_ops(), ops);
    }
}
