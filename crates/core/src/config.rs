//! Replica configuration shared by every protocol.

use crate::costs::CostModel;
use crate::engine::PipelineConfig;
use crate::msg::SHARD_GROUP_HEADER;
use crate::shard::ShardMembership;
use crate::snapshot::SnapshotConfig;
use crate::types::NodeId;
use paxraft_sim::sim::ActorId;
use paxraft_sim::time::SimDuration;

/// How reads are served (Section 5.1's three configurations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadMode {
    /// Reads are replicated through the log like writes (Raft, Raft*,
    /// MultiPaxos baseline: "a strongly consistent read operation is
    /// performed by persisting the operation into the log").
    LogRead,
    /// Leader Lease: only the leader serves reads from its local copy.
    LeaderLease,
    /// Paxos Quorum Lease ported to Raft*: any replica holding leases
    /// from a quorum serves reads locally.
    QuorumLease,
}

/// Lease parameters (Section 5.1: duration 2 s, renewed every 0.5 s).
#[derive(Debug, Clone)]
pub struct LeaseConfig {
    /// How long a grant is valid.
    pub duration: SimDuration,
    /// Grant/renewal period.
    pub renew_every: SimDuration,
}

impl Default for LeaseConfig {
    fn default() -> Self {
        LeaseConfig {
            duration: SimDuration::from_secs(2),
            renew_every: SimDuration::from_millis(500),
        }
    }
}

/// Mencius coordination parameters.
#[derive(Debug, Clone)]
pub struct MenciusConfig {
    /// Silence threshold after which a peer's slots are revoked.
    pub revoke_timeout: SimDuration,
}

impl Default for MenciusConfig {
    fn default() -> Self {
        MenciusConfig {
            revoke_timeout: SimDuration::from_secs(3),
        }
    }
}

/// When an fsync is forced on the durability path.
#[derive(Debug, Clone, PartialEq)]
pub enum FsyncPolicy {
    /// One fsync per appended entry, in order: every entry waits out its
    /// own flush barrier before anything that attests to it is sent.
    /// The faithful-but-slow baseline.
    FsyncPerEntry,
    /// Group commit: entries accumulate unsynced and one batched fsync
    /// covers all of them. At most one fsync is in flight. When a write,
    /// or an fsync's completion, finds the device idle with entries
    /// waiting, the next fsync is issued at once if `max_batch` entries
    /// wait or the last write landed `max_delay` or more before; otherwise
    /// it is issued `max_delay` later, or sooner should `max_batch` fill
    /// first.
    GroupCommit {
        /// Issue the next fsync immediately once this many entries wait.
        max_batch: usize,
        /// How long waiting entries wait for company once the device is
        /// idle, counted from the write or completion that found it so;
        /// also the gap since the last write beyond which a write does
        /// not wait at all.
        max_delay: SimDuration,
    },
}

/// Durability model for one replica: whether acknowledgements wait for
/// fsync, and how the simulated disk is provisioned.
///
/// The default (`policy: None`) is the pre-durability model — appends
/// are instantly durable, nothing touches the disk model, and the event
/// schedule is bit-for-bit identical to builds that predate it (pinned
/// by `PARITY_pr13.txt`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DurabilityConfig {
    /// Fsync scheduling policy; `None` disables the durability model.
    pub policy: Option<FsyncPolicy>,
    /// Device latency of one fsync; writes stream for free.
    pub fsync_latency: SimDuration,
}

impl DurabilityConfig {
    /// Fsync-per-entry on a disk with the given fsync latency.
    pub fn per_entry(fsync_latency: SimDuration) -> Self {
        DurabilityConfig {
            policy: Some(FsyncPolicy::FsyncPerEntry),
            fsync_latency,
        }
    }

    /// Group commit on a disk with the given fsync latency.
    pub fn group_commit(
        fsync_latency: SimDuration,
        max_batch: usize,
        max_delay: SimDuration,
    ) -> Self {
        DurabilityConfig {
            policy: Some(FsyncPolicy::GroupCommit {
                max_batch,
                max_delay,
            }),
            fsync_latency,
        }
    }

    /// Whether acks wait for fsync.
    pub fn enabled(&self) -> bool {
        self.policy.is_some()
    }

    /// The sim-level disk parameters this config provisions.
    pub fn disk_config(&self) -> paxraft_sim::disk::DiskConfig {
        paxraft_sim::disk::DiskConfig {
            fsync_latency: self.fsync_latency,
        }
    }
}

/// Configuration for one replica.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// This replica's id.
    pub id: NodeId,
    /// Cluster size (`2f + 1`).
    pub n: usize,
    /// Actor ids of all replicas, indexed by [`NodeId`].
    pub peers: Vec<ActorId>,
    /// Actor id of logical client `c` is `ActorId(client_base + c)`.
    pub client_base: usize,
    /// CPU cost model.
    pub costs: CostModel,
    /// Election timeout lower bound (randomized up to `election_max`).
    pub election_min: SimDuration,
    /// Election timeout upper bound.
    pub election_max: SimDuration,
    /// If set, this node uses a tiny first election timeout so it becomes
    /// the initial leader (the harness's deterministic bootstrap).
    pub initial_leader: Option<NodeId>,
    /// Read path.
    pub read_mode: ReadMode,
    /// Lease parameters (used by `LeaderLease`/`QuorumLease` modes).
    pub lease: LeaseConfig,
    /// Mencius parameters.
    pub mencius: MenciusConfig,
    /// Snapshot / log-compaction parameters (disabled by default).
    pub snapshot: SnapshotConfig,
    /// Replication pipelining / adaptive-batching parameters.
    pub pipeline: PipelineConfig,
    /// Shard membership when this replica serves one group of a
    /// multi-group cluster (`None` = unsharded, the default). Carries
    /// the partition map so misrouted commands get a
    /// [`crate::kv::Reply::WrongGroup`] redirect instead of executing
    /// against the wrong group's state.
    pub shard: Option<ShardMembership>,
    /// Durable-storage model: fsync policy + disk provisioning
    /// (disabled by default — appends are instantly durable).
    pub durability: DurabilityConfig,
}

impl ReplicaConfig {
    /// A WAN-appropriate default for `n` replicas; `peers` must be filled
    /// by the harness once actor ids exist.
    pub fn wan_default(id: NodeId, n: usize) -> Self {
        ReplicaConfig {
            id,
            n,
            peers: Vec::new(),
            client_base: n,
            costs: CostModel::default(),
            election_min: SimDuration::from_millis(1_500),
            election_max: SimDuration::from_millis(3_000),
            initial_leader: None,
            read_mode: ReadMode::LogRead,
            lease: LeaseConfig::default(),
            mencius: MenciusConfig::default(),
            snapshot: SnapshotConfig::default(),
            pipeline: PipelineConfig::default(),
            shard: None,
            durability: DurabilityConfig::default(),
        }
    }

    /// Actor id of a replica.
    pub fn peer(&self, node: NodeId) -> ActorId {
        self.peers[node.0 as usize]
    }

    /// The node id behind a peer's actor id. Replica groups occupy
    /// contiguous actor-id ranges (`peers[0] + i == peers[i]`), so the
    /// mapping is a subtraction; in the unsharded layout `peers[0]` is
    /// actor 0 and this degenerates to the identity.
    pub fn node_of(&self, from: ActorId) -> NodeId {
        let node = NodeId((from.0 - self.peers[0].0) as u32);
        debug_assert_eq!(self.peers[node.0 as usize], from, "contiguous peer ids");
        node
    }

    /// This replica's group id (`0` when unsharded).
    pub fn group_id(&self) -> u32 {
        self.shard.as_ref().map_or(0, |s| s.group)
    }

    /// Actor id of `node`'s replica in another `group` of the same
    /// sharded cluster. Groups occupy contiguous actor-id blocks of `n`
    /// in group order (`ShardedCluster`'s layout: group `g`'s node `i`
    /// is actor `g * n + i`), so the hop is block arithmetic from this
    /// replica's own peer table. Used by the range-migration transfer,
    /// the only cross-group sender.
    pub fn group_actor(&self, group: u32, node: NodeId) -> ActorId {
        let offset = group as i64 - self.group_id() as i64;
        let me = self.peers[node.0 as usize].0 as i64;
        ActorId((me + offset * self.n as i64) as usize)
    }

    /// Wire-header bytes of one engine `Forward` in this cluster's
    /// spelling: the base 8, plus the group header once the cluster is
    /// sharded and the group id must travel.
    pub fn forward_header_bytes(&self) -> usize {
        8 + if self.shard.is_some() {
            SHARD_GROUP_HEADER
        } else {
            0
        }
    }

    /// Actor id of a logical client.
    pub fn client_actor(&self, client: u32) -> ActorId {
        ActorId(self.client_base + client as usize)
    }

    /// All replica node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + Clone {
        (0..self.n as u32).map(NodeId)
    }

    /// All node ids except this replica. The iterator borrows nothing,
    /// so a loop over it may change the replica it came from.
    pub fn others(&self) -> impl Iterator<Item = NodeId> + Clone {
        let me = self.id;
        self.nodes().filter(move |&x| x != me)
    }

    /// Validates internal consistency (peer table filled, id in range).
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.n == 0 || self.n % 2 == 0 {
            return Err(format!("n={} must be odd and positive", self.n));
        }
        // A Paxos-family instance keeps its acks in a 32-bit bitmap.
        if self.n > 32 {
            return Err(format!("n={} exceeds 32", self.n));
        }
        if self.id.0 as usize >= self.n {
            return Err(format!("id {} out of range for n={}", self.id, self.n));
        }
        if self.peers.len() != self.n {
            return Err(format!(
                "peers table has {} entries, need {}",
                self.peers.len(),
                self.n
            ));
        }
        if self.peers.windows(2).any(|w| w[1].0 != w[0].0 + 1) {
            return Err("peer actor ids must be contiguous".into());
        }
        if let Some(shard) = &self.shard {
            if shard.group as usize >= shard.router.groups() {
                return Err(format!(
                    "shard group {} out of range for {} groups",
                    shard.group,
                    shard.router.groups()
                ));
            }
        }
        if self.election_min > self.election_max {
            return Err("election_min exceeds election_max".into());
        }
        if self.pipeline.depth == 0 {
            return Err("pipeline depth must be positive".into());
        }
        if self.snapshot.enabled() && self.snapshot.chunk_bytes == 0 {
            return Err("snapshot chunk_bytes must be positive".into());
        }
        if let Some(FsyncPolicy::GroupCommit { max_batch, .. }) = &self.durability.policy {
            if *max_batch == 0 {
                return Err("group-commit max_batch must be positive".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ReplicaConfig {
        let mut c = ReplicaConfig::wan_default(NodeId(1), 5);
        c.peers = (0..5).map(ActorId).collect();
        c
    }

    #[test]
    fn validate_accepts_good_config() {
        assert_eq!(cfg().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_even_n() {
        let mut c = cfg();
        c.n = 4;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_more_than_32_replicas() {
        let mut c = cfg();
        c.n = 31;
        c.peers = (0..31).map(ActorId).collect();
        assert_eq!(c.validate(), Ok(()));
        c.n = 33;
        c.peers = (0..33).map(ActorId).collect();
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_a_pipeline_of_depth_zero() {
        let mut c = cfg();
        c.pipeline = PipelineConfig::depth(0);
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_id_and_peers() {
        let mut c = cfg();
        c.id = NodeId(9);
        assert!(c.validate().is_err());
        let mut c = cfg();
        c.peers.pop();
        assert!(c.validate().is_err());
    }

    #[test]
    fn others_excludes_self() {
        let c = cfg();
        let others: Vec<NodeId> = c.others().collect();
        assert_eq!(others.len(), 4);
        assert!(!others.contains(&NodeId(1)));
    }

    #[test]
    fn client_actor_offsets() {
        let c = cfg();
        assert_eq!(c.client_actor(0), ActorId(5));
        assert_eq!(c.client_actor(3), ActorId(8));
    }

    #[test]
    fn node_of_inverts_peer_for_offset_groups() {
        // Group 1 of a 2-group, 5-node cluster occupies actors 5..10.
        let mut c = ReplicaConfig::wan_default(NodeId(2), 5);
        c.peers = (5..10).map(ActorId).collect();
        for node in 0..5u32 {
            assert_eq!(c.node_of(c.peer(NodeId(node))), NodeId(node));
        }
    }

    #[test]
    fn validate_rejects_gapped_peer_ids() {
        let mut c = cfg();
        c.peers[3] = ActorId(9);
        assert!(c.validate().is_err());
    }

    #[test]
    fn forward_header_pays_group_bytes_only_when_sharded() {
        use crate::shard::{ShardMembership, ShardRouter};
        let mut c = cfg();
        assert_eq!(c.forward_header_bytes(), 8);
        assert_eq!(c.group_id(), 0);
        c.shard = Some(ShardMembership {
            group: 1,
            router: ShardRouter::new(1_000, 2),
        });
        assert_eq!(c.forward_header_bytes(), 8 + SHARD_GROUP_HEADER);
        assert_eq!(c.group_id(), 1);
        assert_eq!(c.validate(), Ok(()));
        c.shard = Some(ShardMembership {
            group: 7,
            router: ShardRouter::new(1_000, 2),
        });
        assert!(c.validate().is_err(), "group beyond router range");
    }
}
