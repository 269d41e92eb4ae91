//! The replicated key-value state machine and client command types.
//!
//! The paper's workload is a key-value store initialized with 100K records
//! (Section 5). Commands carry a unique `(client, seq)` id so replicas can
//! deduplicate retried requests (exactly-once apply) and so the
//! linearizability checker can match writes to reads: every written value
//! embeds its command id in the first 8 bytes.
//!
//! # Value bytes: in place or shared
//!
//! The paper measures 8-byte and 4 KB values, and they want opposite
//! things. Value bytes are immutable once the client built the command,
//! so a [`Value`] chooses by its length, once, when it is built: up to
//! [`Value::IN_PLACE`] bytes live inside the value itself — a command, a
//! log entry and a store record then own their bytes outright, a clone
//! is a 24-byte copy and a write never touches the allocator — and
//! anything longer is one shared `Arc<[u8]>`, allocated when the command
//! is built and from then on shared by every message copy, log entry,
//! store record, snapshot and reply in the process (a clone bumps a
//! reference count). Either way a value is never mutated, so nothing that
//! captured it (a snapshot, an export, a cached reply) can see a later
//! overwrite of the key.
//!
//! This is the *layout*. The *model* is `size_bytes()`: every modeled
//! size ([`Command::size_bytes`], the message and snapshot sizes built
//! on it) is computed from the value's length alone and counts every byte
//! on every hop, so the wire model — hence the schedule — does not know
//! which way a value is held. The fat, rare migration operations are
//! boxed for the same reason the bytes are in place: an [`Op`] is what
//! every message, log entry and Paxos instance carries, and its size is
//! pinned by a test.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::shard::migration::{
    self, FrozenRange, KeyOwnership, RangeExport, RouterVersion, ShardState,
};

/// A record key.
pub type Key = u64;

/// A written value's bytes: immutable; in place when short, shared when
/// long (module docs). Reads as a `[u8]`.
#[derive(Clone)]
pub struct Value(Repr);

#[derive(Clone)]
enum Repr {
    InPlace {
        len: u8,
        bytes: [u8; Value::IN_PLACE],
    },
    Shared(Arc<[u8]>),
}

impl Value {
    /// The longest value held in place: what fits a 24-byte `Value`
    /// beside the variant tag and the length byte. The paper's 8-byte
    /// values (and a 16-byte id-plus-word) are on this side, its 4 KB
    /// values on the other.
    pub const IN_PLACE: usize = 22;

    /// `len` bytes, the first eight of them `prefix` and the rest zero,
    /// built where they will live (no intermediate heap buffer).
    fn zeros_after(prefix: [u8; 8], len: usize) -> Value {
        debug_assert!(len >= prefix.len());
        if len <= Value::IN_PLACE {
            let mut bytes = [0; Value::IN_PLACE];
            bytes[..prefix.len()].copy_from_slice(&prefix);
            return bytes[..len].into();
        }
        // Exact-size iterator of one byte value: one allocation, filled
        // like a `memset` (a chained prefix would be written byte by byte).
        let mut bytes: Arc<[u8]> = std::iter::repeat_n(0u8, len).collect();
        let unshared = Arc::get_mut(&mut bytes).expect("just built, not yet shared");
        unshared[..prefix.len()].copy_from_slice(&prefix);
        Value(Repr::Shared(bytes))
    }
}

impl std::ops::Deref for Value {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.0 {
            Repr::InPlace { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Shared(bytes) => bytes,
        }
    }
}

impl From<&[u8]> for Value {
    fn from(src: &[u8]) -> Value {
        if src.len() <= Value::IN_PLACE {
            let mut bytes = [0; Value::IN_PLACE];
            bytes[..src.len()].copy_from_slice(src);
            Value(Repr::InPlace {
                len: src.len() as u8,
                bytes,
            })
        } else {
            Value(Repr::Shared(src.into()))
        }
    }
}

impl From<Vec<u8>> for Value {
    fn from(src: Vec<u8>) -> Value {
        if src.len() <= Value::IN_PLACE {
            src.as_slice().into()
        } else {
            Value(Repr::Shared(src.into()))
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        **self == **other
    }
}

impl Eq for Value {}

impl std::fmt::Debug for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

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
    ///
    /// Carries the tombstone it becomes in the source's
    /// [`ShardState`], not yet `released` — boxed, like the export below:
    /// migration commands are rare and every entry pays for the widest
    /// variant.
    FreezeRange(Box<FrozenRange>),
    /// Migration step 3 (committed in the **destination** group's log):
    /// absorb the exported range and serve it from this entry's apply
    /// point on. Carries the full export so every destination replica
    /// installs identical state at the same log position.
    InstallRange(Box<RangeExport>),
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
            Op::Noop | Op::FreezeRange(_) | Op::InstallRange(_) | Op::ReleaseRange { .. } => None,
            Op::Put { key, .. } | Op::Get { key } => Some(*key),
        }
    }

    /// Whether this is a migration control operation (freeze, install,
    /// release). Migration commands are deduplicated by their router
    /// *version*, not by the coordinator's session sequence: a retried
    /// freeze commits again (its apply forces a fresh export) and a late
    /// duplicate of a finished version can commit after the migration
    /// moved on, and the version guards keep both from changing state
    /// twice.
    pub fn is_migration(&self) -> bool {
        matches!(
            self,
            Op::FreezeRange(_) | Op::InstallRange(_) | Op::ReleaseRange { .. }
        )
    }

    /// Approximate wire size in bytes.
    pub fn size_bytes(&self) -> usize {
        match self {
            Op::Noop => 1,
            Op::Put { value, .. } => 8 + value.len(),
            Op::Get { .. } => 8,
            Op::FreezeRange(_) => 33,
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

    /// [`Command::put`] of `len` zero bytes (padded to the id width),
    /// without the caller's buffer: what the workload clients write.
    pub fn put_zeros(id: CmdId, key: Key, len: usize) -> Command {
        let value = Value::zeros_after(id.as_value_id().to_le_bytes(), len.max(8));
        Command {
            id,
            op: Op::Put { key, value },
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
    pub const fn noop() -> Command {
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
/// that iterates one into a state copy (`snapshot`, `export_range`,
/// `export_sessions`) sorts it into a run, and the install merge is a
/// per-client maximum, which no order changes. Mencius's conflict index
/// (`mencius.rs`) keys its writes by record key on the same hasher and
/// only looks keys up: nothing outside its tests iterates that map.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IntHasher(u64);

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

pub(crate) type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// `items` as one run sorted by `key`, the shape of every state copy (a
/// snapshot's tables, a range export). Collecting a whole table takes
/// one allocation of its exact length; the keys are unique, so the
/// unstable sort gives the stable sort's order without its scratch
/// buffer.
fn sorted_run<T, K: Ord>(items: impl Iterator<Item = T>, key: impl FnMut(&T) -> K) -> Vec<T> {
    let mut run: Vec<T> = items.collect();
    run.sort_unstable_by_key(key);
    run
}

/// The redirect a keyed operation on a range this group froze away gets
/// instead of applying.
fn bounce(shard: &ShardState, op: &Op) -> Option<Reply> {
    match shard.override_for(op.key()?)? {
        KeyOwnership::Redirect(group, version) => Some(Reply::WrongGroup { group, version }),
        KeyOwnership::Accept(_) => None,
    }
}

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
    /// Migration control commands bypass the session table entirely. A
    /// retried freeze commits again, because its apply forces a fresh
    /// export, and a late duplicate of a finished version must stay a
    /// no-op: they are idempotent per router version (`has_frozen` /
    /// `has_absorbed` / the `released` flag) and always answer
    /// [`Reply::Done`], so a duplicate is harmless, the coordinator's
    /// retry still gets its reply, and no coordinator entry travels in
    /// snapshots or range exports.
    pub fn apply(&mut self, cmd: &Command) -> Reply {
        if cmd.op.is_migration() {
            return self.apply_migration(&cmd.op);
        }
        // One probe of the session table serves the dedup check here and
        // the update below.
        let tracked = cmd.id.client != u32::MAX;
        let session = match tracked.then(|| self.sessions.entry(cmd.id.client)) {
            Some(Entry::Occupied(seen)) if cmd.id.seq <= seen.get().0 => {
                return seen.get().1.clone();
            }
            session => session,
        };
        if let Some(redirect) = bounce(&self.shard, &cmd.op) {
            // Not recorded in the session and not counted as an apply:
            // the operation did not take effect here, and the client's
            // retry at the owning group must be free to apply under the
            // same command id.
            return redirect;
        }
        self.applied_ops += 1;
        let reply = match &cmd.op {
            Op::Put { key, value } => {
                self.table.insert(*key, value.clone());
                Reply::Done
            }
            Op::Get { key } => Reply::Value(self.table.get(key).cloned()),
            Op::Noop => Reply::Done,
            Op::FreezeRange(_) | Op::InstallRange(_) | Op::ReleaseRange { .. } => {
                unreachable!("migration commands went their own way above")
            }
        };
        if let Some(session) = session {
            session.insert_entry((cmd.id.seq, reply.clone()));
        }
        reply
    }

    /// What applying `op` now would answer, without applying it and
    /// without the session table: the redirect of a range frozen away,
    /// the stored value for a read, [`Reply::Done`] otherwise. Mencius
    /// answers a command this way ahead of its apply once nothing
    /// unapplied before it can change the answer.
    pub(crate) fn preview(&self, op: &Op) -> Reply {
        if let Some(redirect) = bounce(&self.shard, op) {
            return redirect;
        }
        match op {
            Op::Get { key } => self.read_local(*key),
            _ => Reply::Done,
        }
    }

    /// Applies a migration control command (see [`KvStore::apply`]).
    /// Version-duplicates are dedup hits, not applies — a retried or late
    /// command does not move the counter.
    fn apply_migration(&mut self, op: &Op) -> Reply {
        let applied = match op {
            Op::FreezeRange(range) => self.apply_freeze(range),
            Op::InstallRange(export) => self.apply_install(export),
            Op::ReleaseRange { version } => self.apply_release(*version),
            Op::Noop | Op::Put { .. } | Op::Get { .. } => unreachable!("not a migration command"),
        };
        self.applied_ops += u64::from(applied);
        Reply::Done
    }

    fn apply_freeze(&mut self, range: &FrozenRange) -> bool {
        if self.shard.has_frozen(range.version) {
            return false; // duplicate freeze (coordinator retry)
        }
        self.shard.frozen.push(FrozenRange {
            released: false,
            ..range.clone()
        });
        self.shard.version = self.shard.version.max(range.version);
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
        // write stays deduplicated when retried here.
        migration::merge_sessions(&mut self.sessions, &export.sessions);
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
        sorted_run(
            self.table
                .iter()
                .filter(|(k, _)| (lo..hi).contains(*k))
                .map(|(k, v)| (*k, v.clone())),
            |(k, _)| *k,
        )
    }

    /// The session table `(client, seq, reply)`, ordered by client (the
    /// export path; sessions travel with a moved range).
    pub fn export_sessions(&self) -> Vec<(u32, u64, Reply)> {
        sorted_run(
            self.sessions
                .iter()
                .map(|(c, (seq, reply))| (*c, *seq, reply.clone())),
            |(c, _, _)| *c,
        )
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
    /// Each table is captured as one run sorted by key — the shape of a
    /// range export — so equality and the wire encoding do not depend
    /// on the hash tables' insertion history, and the copy costs one
    /// allocation per table however many records it holds.
    pub fn snapshot(&self) -> KvSnapshot {
        KvSnapshot {
            records: sorted_run(self.table.iter().map(|(k, v)| (*k, v.clone())), |(k, _)| *k),
            sessions: self.export_sessions(),
            applied_ops: self.applied_ops,
            shard: self.shard.clone(),
        }
    }

    /// Replaces this store's state with a snapshot's.
    pub fn restore(&mut self, snap: &KvSnapshot) {
        self.table = snap.records.iter().map(|(k, v)| (*k, v.clone())).collect();
        self.sessions = snap
            .sessions
            .iter()
            .map(|(c, seq, reply)| (*c, (*seq, reply.clone())))
            .collect();
        self.applied_ops = snap.applied_ops;
        self.shard = snap.shard.clone();
    }
}

/// A point-in-time copy of a [`KvStore`]'s state, with a deterministic
/// size model so the simulator can charge realistic NIC transfer cost
/// for multi-MB snapshot payloads.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct KvSnapshot {
    /// Stored records, strictly increasing by key.
    pub records: Vec<(Key, Value)>,
    /// Client sessions `(client, last applied seq, cached reply)`,
    /// strictly increasing by client.
    pub sessions: Vec<(u32, u64, Reply)>,
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
        let mut n = 8 // applied_ops
            + crate::snapshot::records_len(self.records.iter().map(|(_, v)| v))
            + crate::snapshot::sessions_len(self.sessions.iter().map(|(_, _, r)| r));
        if !self.shard.is_empty() {
            n += self.shard.encoded_len();
        }
        n
    }

    /// Number of records captured.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records were captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
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

    /// A snapshot is a function of the store's contents, not of the hash
    /// tables' history: two stores that reach the same records and
    /// sessions by different insertion and overwrite orders capture
    /// equal snapshots with identical encodings.
    #[test]
    fn snapshot_is_independent_of_insertion_history() {
        const N: u64 = 1_000;
        let put = |client: u32, seq: u64, key: Key| {
            Command::put(id(client, seq), key, vec![key as u8; 8])
        };
        let (mut a, mut b) = (KvStore::new(), KvStore::new());
        // Client 3 writes every key first, ascending into `a` and
        // descending into `b`; clients 1 and 2 then overwrite the even
        // and the odd keys, one after the other into `a` and
        // interleaved, key by key, into `b`.
        for i in 0..N {
            a.apply(&put(3, i + 1, i));
            b.apply(&put(3, i + 1, N - 1 - i));
        }
        for parity in 0..2 {
            for j in 0..N / 2 {
                a.apply(&put(1 + parity as u32, j + 1, 2 * j + parity));
            }
        }
        for j in 0..N / 2 {
            for parity in 0..2 {
                b.apply(&put(1 + parity as u32, j + 1, 2 * j + parity));
            }
        }
        assert_ne!(
            a.table.keys().collect::<Vec<_>>(),
            b.table.keys().collect::<Vec<_>>(),
            "the two tables iterate in different orders"
        );
        let snapshot = |kv: &KvStore| crate::snapshot::Snapshot {
            last_slot: crate::types::Slot(2 * N),
            last_term: crate::types::Term(1),
            kv: kv.snapshot(),
        };
        assert_eq!(snapshot(&a), snapshot(&b));
        assert_eq!(snapshot(&a).encode(), snapshot(&b).encode());
        assert!(a.snapshot().records.windows(2).all(|w| w[0].0 < w[1].0));
    }

    /// Whether two values are one allocation.
    fn same_allocation(a: &Value, b: &Value) -> bool {
        match (&a.0, &b.0) {
            (Repr::Shared(a), Repr::Shared(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Value bytes are never mutated: overwriting a key replaces the
    /// store's value, so a snapshot, a restored copy and an export taken
    /// earlier keep decoding the bytes they captured — whether those are
    /// one shared allocation (`len` above [`Value::IN_PLACE`]) or each
    /// holder's own copy in place.
    fn earlier_captures_keep_their_bytes(len: usize) {
        let mut kv = KvStore::new();
        let first = Command::put(id(1, 1), 5, vec![0xAA; len]);
        let Op::Put { value: sent, .. } = &first.op else {
            unreachable!()
        };
        kv.apply(&first);
        let snap = kv.snapshot();
        let export = kv.export_range(0, 10);
        let mut restored = KvStore::new();
        restored.restore(&snap);
        assert_eq!(
            same_allocation(&snap.records[0].1, sent) && same_allocation(&export[0].1, sent),
            len > Value::IN_PLACE,
            "one allocation from the client's command to every copy, or none at all"
        );

        kv.apply(&Command::put(id(1, 2), 5, vec![0xBB; len]));
        assert_eq!(kv.read_local(5).value_id(), Some(id(1, 2).as_value_id()));
        let old = Reply::Value(Some(sent.clone()));
        assert_eq!(old.value_id(), Some(id(1, 1).as_value_id()));
        assert_eq!(
            snap.records[0].1[8..],
            vec![0xAA; len - 8],
            "snapshot keeps the old bytes"
        );
        assert_eq!(export, vec![(5, sent.clone())], "so does the export");
        assert_eq!(restored.read_local(5), old, "and the restored store");
        assert_eq!(restored.export_range(0, 10), export);
    }

    #[test]
    fn shared_value_bytes_are_not_aliased_by_a_later_overwrite() {
        earlier_captures_keep_their_bytes(32);
        earlier_captures_keep_their_bytes(4096);
    }

    #[test]
    fn in_place_value_bytes_are_not_aliased_by_a_later_overwrite() {
        earlier_captures_keep_their_bytes(8);
        earlier_captures_keep_their_bytes(Value::IN_PLACE);
    }

    /// The layout is not the model: for every length on both sides of
    /// [`Value::IN_PLACE`], the bytes survive both wire encodings
    /// unchanged and every modeled size is the one formula of the length
    /// it always was.
    #[test]
    fn every_length_round_trips_and_is_sized_by_its_length_alone() {
        use crate::log::Entry;
        use crate::msg::{ClientMsg, Msg, RaftMsg};
        use crate::snapshot::Snapshot;
        use crate::types::{Slot, Term};
        use paxraft_sim::sim::Payload;

        for len in (0..=64).chain([4096]) {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 7 + len) as u8).collect();
            let value = Value::from(bytes.clone());
            assert_eq!(&*value, &bytes[..]);
            assert_eq!(value, Value::from(&bytes[..]));
            assert_eq!(format!("{value:?}"), format!("{bytes:?}"));
            assert_eq!(
                matches!(value.0, Repr::InPlace { .. }),
                len <= Value::IN_PLACE
            );

            let cmd = Command {
                id: id(3, 9),
                op: Op::Put {
                    key: 5,
                    value: value.clone(),
                },
            };
            assert_eq!(cmd.size_bytes(), 12 + 8 + len);
            let request = Msg::Client(ClientMsg::Request { cmd: cmd.clone() });
            assert_eq!(request.size_bytes(), 28 + len);
            let append = Msg::Raft(RaftMsg::Append {
                term: Term(1),
                prev: Slot(0),
                prev_term: Term(0),
                entries: [(
                    Slot(1),
                    Entry {
                        term: Term(1),
                        bal: Term(1),
                        cmd: cmd.clone(),
                    },
                )]
                .into_iter()
                .collect(),
                commit: Slot(0),
                window_room: true,
            });
            assert_eq!(append.size_bytes(), 76 + len);

            let mut kv = KvStore::new();
            kv.apply(&cmd);
            kv.apply(&Command::get(id(4, 1), 5)); // a cached reply holding the value
            let snap = Snapshot {
                last_slot: Slot(2),
                last_term: Term(1),
                kv: kv.snapshot(),
            };
            let encoded = snap.encode();
            assert_eq!(encoded.len(), snap.size_bytes());
            let decoded = Snapshot::decode(&encoded).expect("decodes");
            assert_eq!(decoded, snap);
            assert_eq!(decoded.encode(), encoded);
            assert_eq!(decoded.kv.records, [(5, value.clone())]);

            let export = RangeExport {
                version: 1,
                lo: 0,
                hi: 10,
                from_group: 0,
                to_group: 1,
                coord: 7,
                records: kv.export_range(0, 10),
                sessions: kv.export_sessions(),
            };
            let encoded = export.encode();
            assert_eq!(encoded.len(), export.size_bytes());
            let decoded = RangeExport::decode(&encoded).expect("decodes");
            assert_eq!(decoded, export);
            assert_eq!(decoded.encode(), encoded);
            assert_eq!(&*decoded.records[0].1, &bytes[..]);
        }
    }

    /// `Command::put_zeros` is `Command::put` of a zeroed buffer, on
    /// either side of the in-place length.
    #[test]
    fn put_zeros_is_put_of_a_zeroed_buffer() {
        for len in [0, 3, 8, 16, Value::IN_PLACE, Value::IN_PLACE + 1, 4096] {
            assert_eq!(
                Command::put_zeros(id(3, 9), 1, len),
                Command::put(id(3, 9), 1, vec![0; len])
            );
        }
    }

    /// What every message, log entry and Paxos instance carries. A new
    /// fat variant fails here instead of silently doubling the log: box
    /// it, as the migration variants are.
    #[test]
    fn sizes_of_what_every_entry_carries_are_pinned() {
        use std::mem::size_of;
        assert_eq!(size_of::<Value>(), 24);
        assert_eq!(size_of::<Op>(), 32);
        assert_eq!(size_of::<Command>(), 48);
        assert_eq!(size_of::<crate::log::Entry>(), 64);
        // The log's ring cell: a field that costs `Entry` its niche makes
        // every cell of every log 72 B.
        assert_eq!(size_of::<std::cell::OnceCell<crate::log::Entry>>(), 64);
        // The largest message is a Mencius `Suggest`: term, round and a
        // stream element that carries an ack (a term and a list of
        // slots). Its round is a 24 B run of the owner's table where it
        // was a 16 B `Arc` of copied pairs: 8 B more per message, paid so
        // that no round is copied (`engine/slots.rs`, *Rounds*).
        assert_eq!(size_of::<crate::msg::Msg>(), 112);
        // A list of slots sits where the `Vec<Slot>` it replaced sat.
        assert_eq!(size_of::<crate::msg::Slots>(), 24);
        // A forwarded batch holds one command in place, in the space of
        // that `Command`: a run of the follower's outbox rides in the
        // operation's spare tags.
        assert_eq!(size_of::<crate::msg::Batch>(), 48);
        assert_eq!(size_of::<crate::msg::Coord>(), 80);
        // Every round, of every protocol, and every forwarded batch of
        // several: thin pointers to up to two whole blocks and the run in
        // one word, or a copy of the pairs.
        use crate::engine::paxos_family::Cell;
        use crate::engine::slots::Run;
        assert_eq!(size_of::<Run<crate::log::Entry>>(), 24);
        assert_eq!(size_of::<Run<Cell>>(), 24);
        assert_eq!(size_of::<Run<Command>>(), 24);
        assert_eq!(size_of::<crate::msg::PaxosMsg>(), 56);
        assert_eq!(size_of::<crate::msg::MenciusMsg>(), 112);
        // An `Append`: the run beside `term`, `prev`, `prevTerm` and
        // `commit` (Raft*'s ballots are its `term`; 72 B while it carried
        // a ballot mark).
        assert_eq!(size_of::<crate::msg::RaftMsg>(), 64);
        // The Paxos-family instance, one for both rules files, as every
        // replica holding it sees it: the value and its ballot, the shape
        // of a log entry. Its ring cell keeps the value's niche, so a slot
        // of a table's blocks, which an acceptor shares with its proposer,
        // is 56 B.
        assert_eq!(size_of::<Cell>(), 56);
        assert_eq!(size_of::<std::cell::OnceCell<Cell>>(), 56);
        // What one replica keeps of an instance in flight, beside the
        // table: the ack bitmap, the decision and the write sequence. The
        // instance with them was 72 B a slot in every replica's table.
        assert_eq!(size_of::<crate::engine::paxos_family::Local>(), 16);
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

    /// Migration commands from the one coordinator client are deduped
    /// by version, not by session order: even a lower-versioned command
    /// committing *after* a higher-versioned one applies (the session
    /// max-seq gate would swallow it), and a version duplicate is a
    /// no-op.
    #[test]
    fn migration_ops_dedup_by_version_not_by_session_order() {
        let mut kv = KvStore::new();
        kv.apply(&Command::put(id(1, 1), 10, vec![0; 8]));
        kv.apply(&Command::put(id(1, 2), 20, vec![0; 8]));
        let coord = 7;
        let freeze = |version: u64, lo: Key, hi: Key| Command {
            id: crate::shard::migration::freeze_cmd_id(coord, version),
            op: Op::FreezeRange(Box::new(FrozenRange {
                lo,
                hi,
                to_group: 1,
                version,
                coord,
                released: false,
            })),
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

    /// Installs absorb by version in any commit order: version 2's
    /// install committing before version 1's still absorbs both.
    #[test]
    fn out_of_order_installs_both_absorb() {
        let mut kv = KvStore::new();
        let coord = 7;
        let export = |version: u64, lo: Key, hi: Key| Command {
            id: crate::shard::migration::install_cmd_id(coord, version),
            op: Op::InstallRange(Box::new(RangeExport {
                version,
                lo,
                hi,
                from_group: 0,
                to_group: 1,
                coord,
                records: vec![(lo, vec![version as u8; 8].into())],
                sessions: vec![],
            })),
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
