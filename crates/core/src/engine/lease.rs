//! Paxos Quorum Lease, written once for every protocol that runs it
//! (Section 5.1, Figure 8, Appendix B.3–B.4): Raft*-PQL and its
//! Leader-Lease (LL) baseline, and MultiPaxos-PQL.
//!
//! `crates/spec/src/specs/pql.rs` writes PQL as one non-mutating delta
//! over MultiPaxos, and `port` derives Raft*'s version from it. This
//! module is that delta as code, one piece per action of the spec; a
//! rules file supplies only what Figure 3 maps:
//!
//! | spec action | here | the rules file |
//! |---|---|---|
//! | `Grant`, `Expire` | [`renew`] on the engine's `T_LEASE` tick, [`on_msg`] | its log tail, and a re-tally after the tick |
//! | phase 2b's holders | [`holders`] | the ack that carries them, and [`report`] |
//! | the `Propose`/`LeaderLearn` gate | `Lease::refused` | its tally: [`gated`] or [`admits`] |
//! | `ReadAtLocal` | [`read_at_local`], at the engine's intake, over the engine's conflict index | — |
//! | `Apply` | [`serve_parked`] | where commands enter and apply (`engine/conflicts.rs`) |
//!
//! A replica reads its own copy under valid leases from a quorum, once
//! what it holds on the key has applied (Figure 13); in return a leader
//! commits only what **every lease holder** acknowledged. Under LL only
//! the leader reads locally, and the same gate holds a new leader's
//! commits until every lease granted to an old one has lapsed: a voter
//! that granted it reports the old leader as a holder.
//!
//! Grants are two-way: a grantor counts a replica as a *holder* only
//! after the replica acknowledges the grant, so a crashed holder stops
//! gating writes once its last acknowledged grant expires. Expiry uses
//! the simulator's global clock, playing the role of the TLA+ spec's
//! global `timer`; a real deployment subtracts a clock-drift guard band.

use paxraft_sim::sim::{ActorId, Ctx};
use paxraft_sim::time::SimTime;
use paxraft_sim::trace::SpanKind;

use crate::config::{ReadMode, ReplicaConfig};
use crate::kv::{Command, Op};
use crate::msg::{LeaseMsg, Msg};
use crate::types::{max_failures, me_bit, NodeId, Slot};

use super::{EngineCore, ProtocolRules, T_LEASE};

/// One replica's lease state (present in the `LeaderLease` and
/// `QuorumLease` read modes).
#[derive(Debug, Default)]
pub(crate) struct Lease {
    /// Quorum leases (PQL); LL otherwise.
    quorum: bool,
    me: NodeId,
    /// `granted_to[h]`: expiry of the last grant to `h` that `h` acked.
    granted_to: Vec<SimTime>,
    /// `held_from[g]`: expiry of the lease this replica holds from `g`.
    held_from: Vec<SimTime>,
    /// Local reads must wait until the replica has applied through this
    /// slot: the highest grantor log tail attached to any grant that
    /// (re-)established a lapsed lease. Writes committed while this
    /// replica held no lease never waited for its acknowledgement, so
    /// a freshly re-leased replica must catch up first.
    read_floor: Slot,
    /// The holder set each peer's last ack reported (phase 2b).
    reported: Vec<u64>,
    /// Local reads waiting for a conflicting write to apply:
    /// `(command, serve once the applied prefix reaches slot)`.
    parked: Vec<(Command, Slot)>,
    /// The parked reads an apply found due, on their way out: a buffer
    /// kept from one apply to the next, empty between them.
    due: Vec<Command>,
    /// Reads served from the local copy (stats).
    pub(crate) served: u64,
}

impl Lease {
    /// The lease state `cfg.read_mode` asks for: none for log reads.
    pub(crate) fn new(cfg: &ReplicaConfig) -> Option<Box<Lease>> {
        let lease = Lease {
            quorum: cfg.read_mode == ReadMode::QuorumLease,
            me: cfg.id,
            granted_to: vec![SimTime::ZERO; cfg.n],
            held_from: vec![SimTime::ZERO; cfg.n],
            reported: vec![0; cfg.n],
            ..Lease::default()
        };
        (cfg.read_mode != ReadMode::LogRead).then(|| Box::new(lease))
    }

    /// Holds a lease from `grantor` until `expires`, granted at `now`
    /// with the grantor's log tail `last`: when this grant
    /// *re-establishes* a lease that lapsed (or never existed), local
    /// reads wait until the replica has caught up through `last`.
    fn hold(&mut self, grantor: usize, expires: SimTime, last: Slot, now: SimTime) {
        let held = &mut self.held_from[grantor];
        if *held <= now && last > self.read_floor {
            self.read_floor = last;
        }
        *held = (*held).max(expires);
    }

    /// Who this replica grants leases to on each renewal: every replica
    /// under quorum leases, only the (believed) leader under LL.
    fn targets(&self, leader: Option<NodeId>) -> impl Iterator<Item = NodeId> + '_ {
        let all = (0..self.granted_to.len() as u32).map(NodeId);
        all.filter(move |&x| x != self.me && (self.quorum || Some(x) == leader))
    }

    /// Figure 13 line 3: whether this replica may read its own copy at
    /// `now` — leases held from "at least f + 1 replicas (including
    /// itself)" (Section 5.1), and under LL only while `leading`.
    pub(crate) fn serves(&self, now: SimTime, leading: bool) -> bool {
        let held = valid(&self.held_from, now).count_ones() as usize;
        let quorum = max_failures(self.held_from.len()) + 1;
        (leading || self.quorum) && held >= quorum
    }

    /// Figure 8's gate, `holders ⊆ acks`, over the responders `acks` (one
    /// bit each, the leader's included): the holders missing from them.
    /// `holderSet` is what each responder last reported **plus the
    /// holders granted by the leader itself**, its implicit ack (the
    /// detail the paper's hand-worked port got wrong).
    fn refused(&self, acks: u64, now: SimTime) -> u64 {
        let others = acks & !me_bit(self.me);
        let responders = (0..self.reported.len()).filter(|&p| others & (1 << p) != 0);
        let granted = valid(&self.granted_to, now);
        let holders = responders.fold(granted, |set, p| set | self.reported[p]);
        holders & !acks
    }
}

/// The replicas whose expiry in `expiries` is still ahead of `now`, one
/// bit each ([`me_bit`]).
fn valid(expiries: &[SimTime], now: SimTime) -> u64 {
    let bit = |(h, e): (usize, &SimTime)| u64::from(*e > now) << h;
    expiries.iter().enumerate().map(bit).sum()
}

/// `Grant` and `Expire`, on the engine's `T_LEASE` tick: renews this
/// replica's lease on itself, grants the targets a lease until one
/// duration from now, carrying the grantor's log `tail` (the read floor
/// of a holder whose lease lapsed), and arms the next tick. A grant not
/// renewed expires on the clock.
pub(crate) fn renew(core: &mut EngineCore, ctx: &mut Ctx<Msg>, tail: Slot) {
    if let Some(lease) = core.lease.as_deref_mut() {
        ctx.charge(core.cfg.costs.lease_msg);
        let expires = ctx.now() + core.cfg.lease.duration;
        let me = lease.me.0 as usize;
        lease.held_from[me] = expires;
        lease.granted_to[me] = expires;
        for to in lease.targets(core.leader_hint) {
            let grant = LeaseMsg::Grant {
                expires_ns: expires.as_nanos(),
                last_idx: tail,
            };
            ctx.send(core.cfg.peer(to), Msg::Lease(grant));
        }
        ctx.set_timer(core.cfg.lease.renew_every, T_LEASE);
    }
}

/// A grant (held until it expires, and acknowledged) or a holder's
/// acknowledgement of one (it is a holder until then).
pub(crate) fn on_msg(core: &mut EngineCore, ctx: &mut Ctx<Msg>, from: ActorId, msg: LeaseMsg) {
    let peer = core.cfg.node_of(from).0 as usize;
    let Some(lease) = core.lease.as_deref_mut() else {
        return;
    };
    match msg {
        LeaseMsg::Grant {
            expires_ns,
            last_idx,
        } => {
            ctx.charge(core.cfg.costs.lease_msg);
            lease.hold(peer, SimTime::from_nanos(expires_ns), last_idx, ctx.now());
            ctx.send(from, Msg::Lease(LeaseMsg::GrantAck { expires_ns }));
        }
        LeaseMsg::GrantAck { expires_ns } => {
            let granted = &mut lease.granted_to[peer];
            *granted = (*granted).max(SimTime::from_nanos(expires_ns));
        }
    }
}

/// Phase 2b's Δ: the holders this replica granted, still valid at `now`
/// — what its ack of a round attaches (0 without a lease).
pub(crate) fn holders(core: &EngineCore, now: SimTime) -> u64 {
    let lease = core.lease.as_deref();
    lease.map_or(0, |l| valid(&l.granted_to, now))
}

/// A responder's ack carried `holders`: the leader unites them into
/// `holderSet` while that responder's ack counts.
pub(crate) fn report(core: &mut EngineCore, peer: NodeId, holders: u64) {
    if let Some(lease) = core.lease.as_deref_mut() {
        lease.reported[peer.0 as usize] = holders;
    }
}

/// The gate on the Raft family's `LeaderLearn` (`None` without a lease):
/// shrinks the commit target `upto`, never below `floor`, while the gate
/// refuses the followers matched through it. A follower that does not
/// respond (a crashed one) is never consulted, so an expired holder
/// stops gating writes.
pub(crate) fn gated(core: &EngineCore, mut upto: Slot, floor: Slot, now: SimTime) -> Option<Slot> {
    let lease = core.lease.as_deref()?;
    let matched = |p: NodeId| core.pipe.match_index(p);
    let others = core.cfg.others();
    while upto > floor {
        let acks = others.clone().filter(|&p| matched(p) >= upto);
        let refused = lease.refused(acks.fold(core.me_bit(), |m, p| m | me_bit(p)), now);
        if refused == 0 {
            break;
        }
        let lagging = others.clone().filter(|&p| refused & me_bit(p) != 0);
        upto = lagging.map(matched).fold(upto, Slot::min);
    }
    Some(upto)
}

/// The gate on the Paxos family's `Learn`: whether an instance acked by
/// `acks` (one bit per replica) is acked by every holder — always,
/// without a lease.
pub(crate) fn admits(core: &EngineCore, acks: u32, now: SimTime) -> bool {
    let lease = core.lease.as_deref();
    lease.is_none_or(|l| l.refused(u64::from(acks), now) == 0)
}

/// Figure 13's `LocalRead`, at the engine's intake of a direct or a
/// forwarded request: a read the lease lets this replica serve is
/// answered from its copy, or parked until every command holding the key
/// back has applied — and, after a lapse, until the replica has caught
/// up to the grant's read floor (writes committed during the lapse never
/// waited for it). An unapplied migration command holds a read back too:
/// from a freeze's slot on, writes to the range commit in the destination
/// group without consulting this lease; once it applies, the shard state
/// redirects the read. Returns whether the read was consumed.
pub(crate) fn read_at_local<P: ProtocolRules>(
    rules: &P,
    core: &mut EngineCore,
    ctx: &mut Ctx<Msg>,
    cmd: &Command,
) -> bool {
    let (leading, applied) = (rules.can_propose(core), rules.applied_index(core));
    let lease = core.lease.as_deref_mut();
    let serving = lease.filter(|l| l.serves(ctx.now(), leading));
    let (Op::Get { key }, Some(lease)) = (&cmd.op, serving) else {
        return false;
    };
    let index = core.conflicts.as_deref().expect("a lease keeps one");
    let conflict = index.last_holding(*key).max(lease.read_floor);
    if conflict > applied {
        lease.parked.push((cmd.clone(), conflict));
        return true;
    }
    lease.served += 1;
    ctx.charge(core.cfg.costs.read_local);
    let reply = core.kv.read_local(*key);
    core.send_response(ctx, cmd.id, reply);
    true
}

/// `Apply`'s read side: serves the parked reads the applied prefix has
/// caught up with, now that it reaches `upto`.
pub(crate) fn serve_parked(core: &mut EngineCore, ctx: &mut Ctx<Msg>, upto: Slot, leading: bool) {
    let Some(mut lease) = core.lease.take_if(|l| !l.parked.is_empty()) else {
        return;
    };
    let serves = lease.serves(ctx.now(), leading);
    // The due reads leave in parking order, the rest stay in theirs;
    // neither list needs a new buffer.
    let mut due = std::mem::take(&mut lease.due);
    let served = lease.parked.extract_if(.., |(_, s)| *s <= upto);
    due.extend(served.map(|(c, _)| c));
    for cmd in due.drain(..) {
        // The key's range may have frozen while the read was parked
        // (the park target can be the freeze slot itself): once
        // applied, the shard state owns the answer and the read must
        // chase the range to its new group, not read the local copy.
        if let Some((group, version)) = core.misroute(&cmd.op) {
            core.send_redirect(ctx, cmd.id, group, version);
            continue;
        }
        // The conflict index was read at arrival (Figure 13 line 4): the
        // read linearizes right after that write, so it must NOT re-park
        // behind newer writes — that would starve hot-key readers under a
        // continuous write stream.
        if let (Op::Get { key }, true) = (&cmd.op, serves) {
            ctx.charge(core.cfg.costs.read_local);
            let reply = core.kv.read_local(*key);
            core.send_response(ctx, cmd.id, reply);
            lease.served += 1;
            continue;
        }
        // Lease lapsed while parked: fall back to replication.
        let (client, seq) = (cmd.id.client, cmd.id.seq);
        ctx.trace_span(SpanKind::Enqueue { proposer: leading }, client, seq);
        core.pending.push(cmd);
        core.arm_batch(ctx);
    }
    lease.due = due;
    core.lease = Some(lease);
}

/// Crash: a holder loses the leases it held and its parked reads; the
/// grants it gave persist (a recovering grantor must still honour them)
/// and must expire naturally.
pub(crate) fn crash(core: &mut EngineCore) {
    if let Some(lease) = core.lease.as_deref_mut() {
        lease.held_from.fill(SimTime::ZERO);
        lease.parked.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lease(mode: ReadMode, me: u32) -> Lease {
        let mut cfg = ReplicaConfig::wan_default(NodeId(me), 5);
        cfg.read_mode = mode;
        *Lease::new(&cfg).expect("a lease read mode")
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn quorum_lease_grants_to_everyone_else_and_ll_to_the_leader() {
        let q = lease(ReadMode::QuorumLease, 2);
        let targets: Vec<_> = q.targets(Some(NodeId(0))).collect();
        assert_eq!(targets, [0, 1, 3, 4].map(NodeId));
        let ll = lease(ReadMode::LeaderLease, 2);
        assert_eq!(ll.targets(Some(NodeId(0))).collect::<Vec<_>>(), [NodeId(0)]);
        assert_eq!(ll.targets(None).count(), 0);
        // The leader itself grants to nobody (it self-grants).
        let leader = lease(ReadMode::LeaderLease, 0);
        assert_eq!(leader.targets(Some(NodeId(0))).count(), 0);
    }

    #[test]
    fn log_reads_hold_no_lease() {
        assert!(Lease::new(&ReplicaConfig::wan_default(NodeId(0), 5)).is_none());
    }

    #[test]
    fn a_quorum_lease_needs_f_plus_one_unexpired_grants() {
        let mut l = lease(ReadMode::QuorumLease, 2);
        assert!(!l.serves(t(0), true));
        l.held_from[2] = t(2000); // the self-grant
        l.hold(0, t(100), Slot::NONE, t(0));
        assert!(!l.serves(t(1), false), "2 < f+1 = 3");
        l.hold(1, t(100), Slot::NONE, t(0));
        assert!(l.serves(t(50), false), "3 >= f+1");
        assert!(!l.serves(t(150), false), "grants from 0 and 1 expired");
        // A reordered older grant does not shorten a lease.
        l.hold(0, t(500), Slot::NONE, t(0));
        l.hold(0, t(300), Slot::NONE, t(100));
        assert_eq!(l.held_from[0], t(500));
        // Under LL only the leader reads.
        let mut ll = lease(ReadMode::LeaderLease, 2);
        ll.held_from.fill(t(100));
        assert!(ll.serves(t(1), true) && !ll.serves(t(1), false));
    }

    #[test]
    fn a_grant_re_establishing_a_lapsed_lease_raises_the_read_floor() {
        let mut l = lease(ReadMode::QuorumLease, 2);
        l.hold(0, t(100), Slot(7), t(0));
        assert_eq!(l.read_floor, Slot(7));
        l.hold(0, t(200), Slot(9), t(50)); // renewed in time
        assert_eq!(l.read_floor, Slot(7));
        l.hold(0, t(400), Slot(12), t(300)); // after a lapse
        assert_eq!(l.read_floor, Slot(12));
    }

    /// A replica that is nothing but its engine core's lease: renews on
    /// the `T_LEASE` tick (the first at 1 ms, as the engine arms it) and
    /// takes every `LeaseMsg`.
    struct LeaseOnly(EngineCore);

    impl paxraft_sim::sim::Actor<Msg> for LeaseOnly {
        fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
            ctx.set_timer(paxraft_sim::time::SimDuration::from_millis(1), T_LEASE);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<Msg>, _token: u64) {
            renew(&mut self.0, ctx, Slot::NONE);
        }
        fn on_message(&mut self, ctx: &mut Ctx<Msg>, from: ActorId, msg: Msg) {
            if let Msg::Lease(msg) = msg {
                on_msg(&mut self.0, ctx, from, msg);
            }
        }
        paxraft_sim::impl_actor_any!();
    }

    /// Replica 1 of a test cluster, scripted: when the run starts,
    /// acknowledges a grant of replica 0's expiring at 3 s, then an older
    /// one expiring at 2.5 s, which arrives second (links are FIFO).
    struct ReorderedAcks;

    impl paxraft_sim::sim::Actor<Msg> for ReorderedAcks {
        fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
            for expires in [t(3_000), t(2_500)] {
                let ack = LeaseMsg::GrantAck {
                    expires_ns: expires.as_nanos(),
                };
                ctx.send(ActorId(0), Msg::Lease(ack));
            }
        }
        fn on_message(&mut self, _: &mut Ctx<Msg>, _: ActorId, _: Msg) {}
        paxraft_sim::impl_actor_any!();
    }

    /// `Grant` and `GrantAck` over the network: each renewal is a
    /// self-grant, counted both held and granted, one lease duration
    /// after the tick, with the same expiry the grantees hold; and a
    /// holder's acks keep the later of two expiries, whatever order they
    /// arrive in.
    #[test]
    fn a_renewal_self_grants_one_duration_ahead_and_acks_keep_the_later_expiry() {
        let (mut sim, replicas, _) = crate::testutil::cluster_with(3, |mut cfg| {
            cfg.read_mode = ReadMode::QuorumLease;
            match cfg.id {
                NodeId(1) => Box::new(ReorderedAcks),
                _ => Box::new(LeaseOnly(EngineCore::new(cfg))),
            }
        });
        sim.run_for(paxraft_sim::time::SimDuration::from_millis(300));
        let lease = |r: ActorId| {
            let core = &sim.actor::<LeaseOnly>(r).0;
            let lease = core.lease.as_deref().expect("a lease");
            (lease.held_from.clone(), lease.granted_to.clone())
        };
        let expires = t(1) + ReplicaConfig::wan_default(NodeId(0), 3).lease.duration;
        let (held, granted) = lease(replicas[0]);
        assert_eq!((held[0], granted[0]), (expires, expires), "the self-grant");
        assert_eq!(lease(replicas[2]).0[0], expires, "replica 0's grant to 2");
        assert_eq!(granted[2], expires, "2 acked it");
        // Both acks have arrived (no one-way delay reaches 200 ms).
        assert_eq!(granted[1], t(3_000), "the later ack's expiry is kept");
    }

    /// A crash loses the leases a replica holds and its parked reads,
    /// but not the grants it gave: a recovering grantor must honour them
    /// until they expire.
    #[test]
    fn a_crash_clears_the_leases_held_and_keeps_the_grants_given() {
        let mut cfg = ReplicaConfig::wan_default(NodeId(2), 5);
        cfg.read_mode = ReadMode::QuorumLease;
        let mut core = EngineCore::new(cfg);
        let l = core.lease.as_deref_mut().expect("a lease");
        l.held_from.fill(t(2_000));
        l.granted_to[1] = t(2_000);
        l.granted_to[2] = t(2_000); // the self-grant
        let read = Command::get(crate::kv::CmdId { client: 0, seq: 1 }, 3);
        l.parked.push((read, Slot(4)));
        crash(&mut core);
        let l = core.lease.as_deref().expect("a lease");
        assert_eq!(valid(&l.held_from, t(1)), 0, "no lease held");
        assert!(l.parked.is_empty(), "no read parked");
        let given = me_bit(NodeId(1)) | me_bit(NodeId(2));
        assert_eq!(
            valid(&l.granted_to, t(1)),
            given,
            "the grants given persist"
        );
    }

    #[test]
    fn holders_are_the_acked_unexpired_grants() {
        let mut l = lease(ReadMode::QuorumLease, 2);
        assert_eq!(valid(&l.granted_to, t(0)), 0, "no acks yet");
        l.granted_to[4] = t(2000);
        assert_eq!(valid(&l.granted_to, t(1)), me_bit(NodeId(4)));
        // After expiry the holder no longer gates writes.
        assert_eq!(valid(&l.granted_to, t(3000)), 0);
    }

    /// The holder gate as it was written before holder sets became
    /// bitmasks: lists of node ids, united by scanning for membership.
    fn holder_gate_by_list(
        mut target: Slot,
        floor: Slot,
        me: NodeId,
        granted: &[NodeId],
        reported: &[Vec<NodeId>],
        matched: &[Slot],
    ) -> Slot {
        let others = (0..matched.len() as u32).map(NodeId).filter(|p| *p != me);
        while target > floor {
            let mut holders = granted.to_vec();
            for p in others.clone().filter(|p| matched[p.0 as usize] >= target) {
                for h in &reported[p.0 as usize] {
                    if !holders.contains(h) {
                        holders.push(*h);
                    }
                }
            }
            let mut limit = target;
            for h in holders.into_iter().filter(|h| *h != me) {
                limit = limit.min(matched[h.0 as usize]);
            }
            if limit >= target {
                break;
            }
            target = limit;
        }
        target
    }

    /// The single gate, shrinking a Raft commit target over the pipeline's
    /// matches, commits exactly what the list one did, on random holder sets, match indexes and
    /// targets for 3, 5 and 7 replicas (the leader's own bit set or not,
    /// reports from followers that did and did not reach the target).
    #[test]
    fn the_bitmask_holder_gate_equals_the_list_one() {
        let mut rng = paxraft_sim::rng::SimRng::new(0x9a7e);
        let mut shrunk = 0;
        for case in 0..3_000u64 {
            let n = [3, 5, 7][(case % 3) as usize];
            let me = NodeId(rng.gen_range(n) as u32);
            let set = |rng: &mut paxraft_sim::rng::SimRng| -> Vec<NodeId> {
                let members = (0..n as u32).filter(|_| rng.gen_bool(0.4));
                members.map(NodeId).collect()
            };
            let mask = |set: &[NodeId]| set.iter().fold(0, |m, h| m | me_bit(*h));
            let granted = set(&mut rng);
            let reported: Vec<Vec<NodeId>> = (0..n).map(|_| set(&mut rng)).collect();
            let matched: Vec<Slot> = (0..n).map(|_| Slot(rng.gen_range(12))).collect();
            let floor = Slot(rng.gen_range(6));
            let target = Slot(rng.gen_range(14));
            let by_list = holder_gate_by_list(target, floor, me, &granted, &reported, &matched);
            let mut cfg = ReplicaConfig::wan_default(me, n as usize);
            cfg.read_mode = ReadMode::QuorumLease;
            let mut core = EngineCore::new(cfg);
            for (p, &m) in matched.iter().enumerate() {
                core.pipe.on_ack(NodeId(p as u32), m);
            }
            let l = core.lease.as_deref_mut().expect("a lease");
            for h in &granted {
                l.granted_to[h.0 as usize] = t(1_000);
            }
            l.reported = reported.iter().map(|r| mask(r)).collect();
            let by_mask = gated(&core, target, floor, t(0)).expect("gated");
            assert_eq!(by_mask, by_list, "case {case}: n {n}, me {me}");
            shrunk += u64::from(by_mask < target);
        }
        assert!(shrunk > 300, "the gate shrank {shrunk} targets");
    }
}
