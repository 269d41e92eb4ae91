//! Replicated key-range migration between groups: the state-machine side.
//!
//! A migration moves a contiguous key range `[lo, hi)` from a *source*
//! group to a *destination* group through the groups' **own logs**, so
//! every replica of both groups observes the hand-off at a deterministic
//! point in its apply order and crash recovery falls out of the existing
//! log/snapshot machinery:
//!
//! 1. The coordinator commits [`crate::kv::Op::FreezeRange`] in the
//!    source group. From the freeze's apply point on, every operation on
//!    the range bounces with [`crate::kv::Reply::WrongGroup`] stamped
//!    with the migration's *new* [`RouterVersion`] — the freeze entry is
//!    the linearization cutover.
//! 2. The source leader exports the frozen range (records **and** client
//!    sessions, so exactly-once survives the move) as a [`RangeExport`]
//!    and ships it to the destination group as a snapshot-style chunked
//!    transfer, reusing the chunk/reassembly machinery of
//!    [`crate::snapshot`].
//! 3. The destination commits [`crate::kv::Op::InstallRange`] carrying
//!    the export in its own log; applying it absorbs the records and
//!    starts serving the range at the new version.
//! 4. The coordinator publishes the bumped partition map to clients and
//!    commits [`crate::kv::Op::ReleaseRange`] in the source group, which
//!    drops the moved records (the redirect tombstone stays).
//!
//! [`ShardState`] is the replicated bookkeeping all of this leaves in the
//! state machine; it travels inside snapshots, so a replica healed by
//! state transfer learns the current ownership overrides with it.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::BuildHasher;

use paxraft_sim::time::SimDuration;

use crate::kv::{CmdId, Key, Reply, Value};
use crate::snapshot::{
    decode_records, decode_sessions, encode_records, encode_sessions, records_len, sessions_len,
    Reader,
};

/// A partition-map version. Every migration bumps it by one; `0` is the
/// build-time map. Stamped on [`crate::kv::Reply::WrongGroup`] redirects
/// and on router updates so clients can tell a *newer* map teaching them
/// a move from a *stale* replica that has not caught up yet.
pub type RouterVersion = u64;

/// A range this group froze and handed to another group. Kept forever
/// (it is the redirect tombstone); `released` records whether the moved
/// records were already dropped from the local table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrozenRange {
    /// First key of the moved range.
    pub lo: Key,
    /// One past the last key of the moved range.
    pub hi: Key,
    /// The group that owns the range from `version` on.
    pub to_group: u32,
    /// The migration's version (the map version after the move).
    pub version: RouterVersion,
    /// Logical client id of the coordinator driving the migration
    /// (responses to the migration commands route there).
    pub coord: u32,
    /// Whether [`crate::kv::Op::ReleaseRange`] already dropped the moved
    /// records locally.
    pub released: bool,
}

/// A range this group absorbed from another group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbsorbedRange {
    /// First key of the absorbed range.
    pub lo: Key,
    /// One past the last key.
    pub hi: Key,
    /// The group that previously owned the range.
    pub from_group: u32,
    /// The migration's version.
    pub version: RouterVersion,
}

/// What the replicated overrides say about one key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyOwnership {
    /// A frozen range moved the key away: redirect to the group, at the
    /// migration's version.
    Redirect(u32, RouterVersion),
    /// An absorbed range moved the key here: accept it even though the
    /// build-time map says otherwise.
    Accept(RouterVersion),
}

/// The replicated shard bookkeeping inside a [`crate::kv::KvStore`]:
/// every override the group's log has applied to the build-time
/// partition map. Mutated only by applying migration commands, so it is
/// deterministic across a group's replicas and snapshots carry it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardState {
    /// Highest migration version applied (build-time map = 0).
    pub version: RouterVersion,
    /// Ranges moved away from this group, newest last.
    pub frozen: Vec<FrozenRange>,
    /// Ranges moved into this group, newest last.
    pub absorbed: Vec<AbsorbedRange>,
}

impl ShardState {
    /// True when no migration has ever touched this group (the state a
    /// non-migrating run keeps, bit-for-bit).
    pub fn is_empty(&self) -> bool {
        self.version == 0 && self.frozen.is_empty() && self.absorbed.is_empty()
    }

    /// The highest-version override covering `key`, if any. A range can
    /// move A→B→C; the later override wins.
    pub fn override_for(&self, key: Key) -> Option<KeyOwnership> {
        let mut best: Option<KeyOwnership> = None;
        let ver = |o: &KeyOwnership| match o {
            KeyOwnership::Redirect(_, v) | KeyOwnership::Accept(v) => *v,
        };
        for f in &self.frozen {
            if (f.lo..f.hi).contains(&key) {
                let cand = KeyOwnership::Redirect(f.to_group, f.version);
                if best.is_none_or(|b| ver(&b) < f.version) {
                    best = Some(cand);
                }
            }
        }
        for a in &self.absorbed {
            if (a.lo..a.hi).contains(&key) {
                let cand = KeyOwnership::Accept(a.version);
                if best.is_none_or(|b| ver(&b) < a.version) {
                    best = Some(cand);
                }
            }
        }
        best
    }

    /// Whether a frozen range with this version exists (freeze
    /// idempotency).
    pub fn has_frozen(&self, version: RouterVersion) -> bool {
        self.frozen.iter().any(|f| f.version == version)
    }

    /// Whether an absorbed range with this version exists (install
    /// idempotency / exactly-once).
    pub fn has_absorbed(&self, version: RouterVersion) -> bool {
        self.absorbed.iter().any(|a| a.version == version)
    }

    /// Frozen ranges whose hand-off is not yet released — the ranges a
    /// source leader must keep (re-)exporting.
    pub fn pending_exports(&self) -> impl Iterator<Item = &FrozenRange> {
        self.frozen.iter().filter(|f| !f.released)
    }

    /// Serializes the override state (deterministic little-endian).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&(self.frozen.len() as u64).to_le_bytes());
        for f in &self.frozen {
            out.extend_from_slice(&f.lo.to_le_bytes());
            out.extend_from_slice(&f.hi.to_le_bytes());
            out.extend_from_slice(&f.to_group.to_le_bytes());
            out.extend_from_slice(&f.version.to_le_bytes());
            out.extend_from_slice(&f.coord.to_le_bytes());
            out.push(f.released as u8);
        }
        out.extend_from_slice(&(self.absorbed.len() as u64).to_le_bytes());
        for a in &self.absorbed {
            out.extend_from_slice(&a.lo.to_le_bytes());
            out.extend_from_slice(&a.hi.to_le_bytes());
            out.extend_from_slice(&a.from_group.to_le_bytes());
            out.extend_from_slice(&a.version.to_le_bytes());
        }
    }

    /// Exact length [`ShardState::encode_into`] appends.
    pub fn encoded_len(&self) -> usize {
        8 + 8 + self.frozen.len() * 33 + 8 + self.absorbed.len() * 28
    }

    /// Parses the override state from a reader positioned at its start.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Option<ShardState> {
        let version = r.u64()?;
        let mut state = ShardState {
            version,
            ..ShardState::default()
        };
        let frozen = r.u64()?;
        for _ in 0..frozen {
            state.frozen.push(FrozenRange {
                lo: r.u64()?,
                hi: r.u64()?,
                to_group: r.u32()?,
                version: r.u64()?,
                coord: r.u32()?,
                released: r.u8()? != 0,
            });
        }
        let absorbed = r.u64()?;
        for _ in 0..absorbed {
            state.absorbed.push(AbsorbedRange {
                lo: r.u64()?,
                hi: r.u64()?,
                from_group: r.u32()?,
                version: r.u64()?,
            });
        }
        Some(state)
    }
}

/// The payload a source leader exports for one frozen range: the records
/// in `[lo, hi)` plus the full client-session table. Sessions must
/// travel with the range — a client whose write committed at the source
/// just before the freeze may retry it at the destination after the
/// move, and only the carried session makes that retry a no-op instead
/// of a double apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeExport {
    /// The migration's version.
    pub version: RouterVersion,
    /// First key of the moved range.
    pub lo: Key,
    /// One past the last key.
    pub hi: Key,
    /// The exporting (source) group.
    pub from_group: u32,
    /// The absorbing (destination) group.
    pub to_group: u32,
    /// Logical client id of the coordinator (install responses route
    /// there).
    pub coord: u32,
    /// The records of the range, ordered by key.
    pub records: Vec<(Key, Value)>,
    /// Source client sessions `(client, last seq, cached reply)`,
    /// ordered by client; merged max-seq-wins at the destination.
    pub sessions: Vec<(u32, u64, Reply)>,
}

impl RangeExport {
    /// Exact length of [`RangeExport::encode`]'s output.
    pub fn size_bytes(&self) -> usize {
        8 + 8 + 8 + 4 + 4 + 4 // version, lo, hi, groups, coord
            + records_len(self.records.iter().map(|(_, v)| v))
            + sessions_len(self.sessions.iter().map(|(_, _, r)| r))
    }

    /// Serializes for chunked transfer (deterministic little-endian).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.size_bytes());
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.lo.to_le_bytes());
        out.extend_from_slice(&self.hi.to_le_bytes());
        out.extend_from_slice(&self.from_group.to_le_bytes());
        out.extend_from_slice(&self.to_group.to_le_bytes());
        out.extend_from_slice(&self.coord.to_le_bytes());
        encode_records(&mut out, self.records.iter().map(|(k, v)| (*k, v)));
        encode_sessions(
            &mut out,
            self.sessions.iter().map(|(c, seq, r)| (*c, *seq, r)),
        );
        debug_assert_eq!(out.len(), self.size_bytes(), "size model matches encoding");
        out
    }

    /// Parses an encoded export; `None` on malformed input.
    pub fn decode(bytes: &[u8]) -> Option<RangeExport> {
        let mut r = Reader::new(bytes);
        let version = r.u64()?;
        let lo = r.u64()?;
        let hi = r.u64()?;
        let from_group = r.u32()?;
        let to_group = r.u32()?;
        let coord = r.u32()?;
        let records = decode_records(&mut r)?;
        let sessions = decode_sessions(&mut r)?;
        if !r.done() {
            return None;
        }
        Some(RangeExport {
            version,
            lo,
            hi,
            from_group,
            to_group,
            coord,
            records,
            sessions,
        })
    }
}

/// Merges exported sessions into a destination session table in place:
/// per client, the higher sequence number (with its cached reply) wins.
/// A per-client maximum does not depend on the order the table or the
/// export is walked in.
pub fn merge_sessions<S: BuildHasher>(
    into: &mut HashMap<u32, (u64, Reply), S>,
    from: &[(u32, u64, Reply)],
) {
    for (c, seq, reply) in from {
        match into.entry(*c) {
            Entry::Occupied(have) if have.get().0 >= *seq => {}
            Entry::Occupied(mut have) => {
                have.insert((*seq, reply.clone()));
            }
            Entry::Vacant(slot) => {
                slot.insert((*seq, reply.clone()));
            }
        }
    }
}

/// One scripted migration: at virtual time `at`, move `[lo, hi)` to
/// `to_group` (the source group is whatever the map says owns `lo` at
/// trigger time).
#[derive(Debug, Clone)]
pub struct MigrationSpec {
    /// Virtual time the coordinator starts the migration.
    pub at: SimDuration,
    /// First key of the moved range.
    pub lo: Key,
    /// One past the last key.
    pub hi: Key,
    /// The destination group.
    pub to_group: u32,
}

/// Command-id scheme for migration commands. The coordinator is an
/// ordinary logical client so replies route normally, but migration
/// commands are *not* session-deduplicated: a retried freeze commits
/// again because its apply forces a fresh export, and a late duplicate
/// of a finished version must stay a no-op, so exactly-once apply comes
/// from the per-version idempotency guards in the state machine
/// (`has_frozen`, `has_absorbed`, the frozen range's `released` flag)
/// instead. The `version * 4 + phase` encoding remains so the
/// coordinator can recover `(version, phase)` from a reply id and tell
/// a reply for its in-flight migration from a late one.
pub fn freeze_cmd_id(coord: u32, version: RouterVersion) -> CmdId {
    CmdId {
        client: coord,
        seq: version * 4,
    }
}

/// Id of the `InstallRange` command for a migration (constructed at the
/// destination's chunk receiver; deterministic so retries dedup).
pub fn install_cmd_id(coord: u32, version: RouterVersion) -> CmdId {
    CmdId {
        client: coord,
        seq: version * 4 + 1,
    }
}

/// Id of the `ReleaseRange` command for a migration.
pub fn release_cmd_id(coord: u32, version: RouterVersion) -> CmdId {
    CmdId {
        client: coord,
        seq: version * 4 + 2,
    }
}

/// Recovers the migration version a coordinator command id encodes
/// (the inverse of the `version * 4 + phase` scheme above).
pub fn version_of_cmd(id: CmdId) -> RouterVersion {
    id.seq / 4
}

#[cfg(test)]
mod tests {
    use super::*;

    fn export() -> RangeExport {
        RangeExport {
            version: 3,
            lo: 100,
            hi: 200,
            from_group: 0,
            to_group: 1,
            coord: 9,
            records: vec![(100, vec![1; 16].into()), (150, vec![2; 32].into())],
            sessions: vec![
                (1, 5, Reply::Done),
                (2, 7, Reply::Value(Some(vec![3; 8].into()))),
                (3, 1, Reply::Value(None)),
            ],
        }
    }

    #[test]
    fn range_export_round_trips() {
        let e = export();
        let bytes = e.encode();
        assert_eq!(bytes.len(), e.size_bytes(), "size model is exact");
        assert_eq!(RangeExport::decode(&bytes), Some(e));
    }

    #[test]
    fn range_export_rejects_malformed() {
        let bytes = export().encode();
        assert!(RangeExport::decode(&bytes[..bytes.len() - 1]).is_none());
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(RangeExport::decode(&longer).is_none());
        assert!(RangeExport::decode(&[]).is_none());
        let reject = |edit: fn(&mut RangeExport)| {
            let mut bad = export();
            edit(&mut bad);
            RangeExport::decode(&bad.encode()).is_none()
        };
        assert!(reject(|e| e.records.swap(0, 1)), "records out of order");
        assert!(reject(|e| e.records[1].0 = e.records[0].0), "duplicate key");
        assert!(reject(|e| e.sessions.swap(1, 2)), "sessions out of order");
        assert!(
            reject(|e| e.sessions[1].0 = e.sessions[0].0),
            "duplicate client"
        );
    }

    #[test]
    fn shard_state_round_trips_through_bytes() {
        let state = ShardState {
            version: 2,
            frozen: vec![FrozenRange {
                lo: 10,
                hi: 20,
                to_group: 1,
                version: 1,
                coord: 4,
                released: true,
            }],
            absorbed: vec![AbsorbedRange {
                lo: 50,
                hi: 60,
                from_group: 1,
                version: 2,
            }],
        };
        let mut bytes = Vec::new();
        state.encode_into(&mut bytes);
        assert_eq!(bytes.len(), state.encoded_len());
        let mut r = Reader::new(&bytes);
        assert_eq!(ShardState::decode(&mut r), Some(state));
        assert!(r.done());
    }

    #[test]
    fn override_latest_version_wins() {
        // Range moved away at v1, a sub-range moved back at v2.
        let state = ShardState {
            version: 2,
            frozen: vec![FrozenRange {
                lo: 10,
                hi: 30,
                to_group: 1,
                version: 1,
                coord: 0,
                released: false,
            }],
            absorbed: vec![AbsorbedRange {
                lo: 10,
                hi: 20,
                from_group: 1,
                version: 2,
            }],
        };
        assert_eq!(state.override_for(15), Some(KeyOwnership::Accept(2)));
        assert_eq!(state.override_for(25), Some(KeyOwnership::Redirect(1, 1)));
        assert_eq!(state.override_for(5), None);
    }

    #[test]
    fn session_merge_keeps_higher_seq() {
        let mut into = HashMap::new();
        into.insert(1, (5u64, Reply::Done));
        into.insert(3, (2u64, Reply::Done));
        merge_sessions(
            &mut into,
            &[
                (1, 3, Reply::Value(None)), // older: ignored
                (2, 9, Reply::Done),        // new client: adopted
                (3, 4, Reply::Value(None)), // newer: replaces seq and reply
            ],
        );
        assert_eq!(into.len(), 3);
        assert_eq!(into.get(&1), Some(&(5, Reply::Done)));
        assert_eq!(into.get(&2), Some(&(9, Reply::Done)));
        assert_eq!(into.get(&3), Some(&(4, Reply::Value(None))));
    }

    #[test]
    fn cmd_id_scheme_is_monotone_per_phase_order() {
        let v = 2;
        assert!(freeze_cmd_id(1, v).seq < install_cmd_id(1, v).seq);
        assert!(install_cmd_id(1, v).seq < release_cmd_id(1, v).seq);
        assert!(release_cmd_id(1, v).seq < freeze_cmd_id(1, v + 1).seq);
    }
}
