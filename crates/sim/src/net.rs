//! Geo-distributed network model.
//!
//! Models the paper's testbed: servers in five AWS regions (Oregon, Ohio,
//! Ireland, Canada, Seoul) with wide-area RTTs between 25 ms and 292 ms and
//! a 750 Mbps NIC per instance. The simulator charges each message
//!
//! 1. *serialization time* on the sender's NIC (`size / bandwidth`, queued
//!    FIFO behind earlier transmissions — this is what makes 4 KB workloads
//!    network-bound as in Figure 10b), and
//! 2. *propagation delay* of half the region-pair RTT, with small
//!    multiplicative jitter.

use std::collections::HashMap;

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// One of the five testbed regions (Section 5, "Testbed").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Region {
    Oregon,
    Ohio,
    Ireland,
    Canada,
    Seoul,
}

impl Region {
    /// All regions, in the paper's listing order.
    pub const ALL: [Region; 5] = [
        Region::Oregon,
        Region::Ohio,
        Region::Ireland,
        Region::Canada,
        Region::Seoul,
    ];

    /// Stable index for matrix lookups.
    pub fn index(self) -> usize {
        match self {
            Region::Oregon => 0,
            Region::Ohio => 1,
            Region::Ireland => 2,
            Region::Canada => 3,
            Region::Seoul => 4,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Region::Oregon => "Oregon",
            Region::Ohio => "Ohio",
            Region::Ireland => "Ireland",
            Region::Canada => "Canada",
            Region::Seoul => "Seoul",
        }
    }
}

/// Round-trip times between regions, in milliseconds.
///
/// Calibrated so the extremes match the paper's "25ms to 292ms": the
/// closest pair is Ohio–Canada (25 ms) and the farthest Ireland–Seoul
/// (292 ms). Oregon has the best aggregate connectivity, which is why the
/// paper places the favoured Raft leader there.
pub const DEFAULT_RTT_MS: [[f64; 5]; 5] = [
    //            OR     OH     IR     CA     SE
    /* Oregon  */
    [0.6, 52.0, 132.0, 66.0, 126.0],
    /* Ohio    */ [52.0, 0.6, 92.0, 25.0, 178.0],
    /* Ireland */ [132.0, 92.0, 0.6, 80.0, 292.0],
    /* Canada  */ [66.0, 25.0, 80.0, 0.6, 190.0],
    /* Seoul   */ [126.0, 178.0, 292.0, 190.0, 0.6],
];

/// Static description of the simulated network.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// RTT matrix in milliseconds, indexed by [`Region::index`].
    pub rtt_ms: [[f64; 5]; 5],
    /// Per-node NIC bandwidth in bits per second (paper: 750 Mbps).
    pub bandwidth_bps: f64,
    /// Multiplicative jitter amplitude; each one-way delay is scaled by a
    /// uniform factor in `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
    /// Fixed per-message overhead bytes (headers, framing).
    pub overhead_bytes: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            rtt_ms: DEFAULT_RTT_MS,
            bandwidth_bps: 750.0e6,
            jitter: 0.02,
            overhead_bytes: 100,
        }
    }
}

impl NetConfig {
    /// One-way propagation delay between two regions (half the RTT).
    pub fn one_way(&self, from: Region, to: Region) -> SimDuration {
        SimDuration::from_millis_f64(self.rtt_ms[from.index()][to.index()] / 2.0)
    }

    /// Time to push `payload_bytes` (+ overhead) through one NIC.
    pub fn tx_time(&self, payload_bytes: usize) -> SimDuration {
        let bits = ((payload_bytes + self.overhead_bytes) * 8) as f64;
        SimDuration::from_secs_f64(bits / self.bandwidth_bps)
    }
}

/// Dynamic per-run network state: NIC queues, partitions, drop rate.
#[derive(Debug)]
pub struct Network {
    config: NetConfig,
    regions: Vec<Region>,
    nic_free: Vec<SimTime>,
    rx_free: Vec<SimTime>,
    /// `partition[i]` is the partition-group id of node `i`; messages
    /// between different groups are dropped. `None` means fully connected.
    partition: Option<Vec<u32>>,
    drop_rate: f64,
    /// Last scheduled arrival per ordered (src, dst) pair. Links are
    /// FIFO, modelling TCP: deliveries between each ordered pair of nodes
    /// preserve send order. Mencius's per-owner streams (Appendix A.3's
    /// skip watermarks) assume ordered links but not reliable ones: every
    /// element names where the previous one ended, so a receiver notices
    /// a gap instead of inferring a skip.
    fifo_last: HashMap<(usize, usize), SimTime>,
    /// Count of messages dropped by faults (for assertions in tests).
    pub dropped: u64,
    /// Total bytes accepted for transmission per node.
    pub bytes_sent: Vec<u64>,
}

/// The computed fate of a send: when it arrives, or why it will not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// The message arrives at the given time.
    ArriveAt(SimTime),
    /// The message is dropped (partition or random loss).
    Dropped,
}

impl Network {
    /// Creates the network given each node's region placement.
    pub fn new(config: NetConfig, regions: Vec<Region>) -> Self {
        let n = regions.len();
        Network {
            config,
            regions,
            nic_free: vec![SimTime::ZERO; n],
            rx_free: vec![SimTime::ZERO; n],
            partition: None,
            drop_rate: 0.0,
            fifo_last: HashMap::new(),
            dropped: 0,
            bytes_sent: vec![0; n],
        }
    }

    /// Attaches another node in `region` (dynamic actor addition).
    pub fn add_node(&mut self, region: Region) {
        self.regions.push(region);
        self.nic_free.push(SimTime::ZERO);
        self.rx_free.push(SimTime::ZERO);
        self.bytes_sent.push(0);
        if let Some(g) = &mut self.partition {
            // New nodes join group 0 by default.
            g.push(0);
        }
    }

    /// Number of nodes attached to the network.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// True when no nodes are attached.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// The region a node lives in.
    pub fn region_of(&self, node: usize) -> Region {
        self.regions[node]
    }

    /// The static configuration.
    pub fn config(&self) -> &NetConfig {
        &self.config
    }

    /// Installs a partition: nodes with equal group ids can communicate,
    /// messages across groups are dropped.
    pub fn set_partition(&mut self, groups: Vec<u32>) {
        assert_eq!(groups.len(), self.regions.len());
        self.partition = Some(groups);
    }

    /// Removes any partition.
    pub fn heal_partition(&mut self) {
        self.partition = None;
    }

    /// Sets the uniform message drop probability.
    pub fn set_drop_rate(&mut self, p: f64) {
        self.drop_rate = p.clamp(0.0, 1.0);
    }

    /// Whether `a` and `b` can currently communicate.
    pub fn connected(&self, a: usize, b: usize) -> bool {
        match &self.partition {
            None => true,
            Some(g) => g[a] == g[b],
        }
    }

    /// Schedules a message of `payload_bytes` from `src` to `dst` at time
    /// `now`, consuming NIC capacity and applying faults. Local (same-node)
    /// sends skip the NIC but still take the intra-node RTT.
    pub fn send(
        &mut self,
        now: SimTime,
        src: usize,
        dst: usize,
        payload_bytes: usize,
        rng: &mut SimRng,
    ) -> Delivery {
        if !self.connected(src, dst) || (self.drop_rate > 0.0 && rng.gen_bool(self.drop_rate)) {
            self.dropped += 1;
            return Delivery::Dropped;
        }
        if src == dst {
            // Loopback: negligible latency, no NIC usage.
            return Delivery::ArriveAt(now + SimDuration::from_micros(5));
        }
        let tx = self.config.tx_time(payload_bytes);
        let start = self.nic_free[src].max(now);
        let tx_end = start + tx;
        self.nic_free[src] = tx_end;
        self.bytes_sent[src] += (payload_bytes + self.config.overhead_bytes) as u64;

        let base = self.config.one_way(self.regions[src], self.regions[dst]);
        let jitter = if self.config.jitter > 0.0 {
            1.0 + self.config.jitter * (2.0 * rng.gen_f64() - 1.0)
        } else {
            1.0
        };
        let mut arrive = tx_end + base.mul_f64(jitter);
        let last = self.fifo_last.entry((src, dst)).or_insert(SimTime::ZERO);
        if arrive <= *last {
            arrive = *last + SimDuration::from_nanos(1);
        }
        *last = arrive;
        Delivery::ArriveAt(arrive)
    }

    /// Admits an arriving message through the receiver-side NIC at `now`
    /// (full-duplex model: ingress serialization queues separately from
    /// egress). Returns when the payload is fully received. Called by the
    /// simulator in arrival order.
    pub fn rx_admit(&mut self, now: SimTime, dst: usize, payload_bytes: usize) -> SimTime {
        let tx = self.config.tx_time(payload_bytes);
        let start = self.rx_free[dst].max(now);
        self.rx_free[dst] = start + tx;
        self.rx_free[dst]
    }

    /// Time at which a node's NIC becomes idle (test/metrics hook).
    pub fn nic_free_at(&self, node: usize) -> SimTime {
        self.nic_free[node]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Network {
        Network::new(
            NetConfig {
                jitter: 0.0,
                ..NetConfig::default()
            },
            vec![Region::Oregon, Region::Ohio, Region::Seoul],
        )
    }

    #[test]
    fn rtt_matrix_is_symmetric_with_paper_extremes() {
        let mut min = f64::MAX;
        let mut max: f64 = 0.0;
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(DEFAULT_RTT_MS[i][j], DEFAULT_RTT_MS[j][i]);
                if i != j {
                    min = min.min(DEFAULT_RTT_MS[i][j]);
                    max = max.max(DEFAULT_RTT_MS[i][j]);
                }
            }
        }
        assert_eq!(min, 25.0, "closest pair matches the paper's 25ms");
        assert_eq!(max, 292.0, "farthest pair matches the paper's 292ms");
    }

    #[test]
    fn one_way_is_half_rtt() {
        let c = NetConfig::default();
        assert_eq!(
            c.one_way(Region::Oregon, Region::Ohio),
            SimDuration::from_millis_f64(26.0)
        );
    }

    #[test]
    fn tx_time_scales_with_size() {
        let c = NetConfig {
            overhead_bytes: 0,
            ..NetConfig::default()
        };
        let t1 = c.tx_time(4096);
        let t2 = c.tx_time(8192);
        let diff = (t2.as_nanos() as i64 - 2 * t1.as_nanos() as i64).abs();
        assert!(diff <= 1, "doubling size doubles tx time (±1ns rounding)");
        // 4KB at 750Mbps is about 43.7 microseconds.
        assert!(
            (t1.as_micros_f64() - 43.69).abs() < 0.5,
            "{}",
            t1.as_micros_f64()
        );
    }

    #[test]
    fn nic_serializes_back_to_back_sends() {
        let mut n = net();
        let mut rng = SimRng::new(1);
        let a = n.send(SimTime::ZERO, 0, 1, 4096, &mut rng);
        let b = n.send(SimTime::ZERO, 0, 1, 4096, &mut rng);
        match (a, b) {
            (Delivery::ArriveAt(ta), Delivery::ArriveAt(tb)) => {
                let gap = tb - ta;
                let tx = n.config().tx_time(4096);
                assert_eq!(gap, tx, "second message waits behind the first on the NIC");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn loopback_is_fast_and_free() {
        let mut n = net();
        let mut rng = SimRng::new(1);
        let d = n.send(SimTime::ZERO, 0, 0, 1 << 20, &mut rng);
        assert_eq!(d, Delivery::ArriveAt(SimTime::from_micros(5)));
        assert_eq!(n.nic_free_at(0), SimTime::ZERO);
    }

    #[test]
    fn partition_blocks_cross_group_traffic() {
        let mut n = net();
        let mut rng = SimRng::new(1);
        n.set_partition(vec![0, 0, 1]);
        assert!(n.connected(0, 1));
        assert!(!n.connected(0, 2));
        assert_eq!(n.send(SimTime::ZERO, 0, 2, 8, &mut rng), Delivery::Dropped);
        assert_eq!(n.dropped, 1);
        n.heal_partition();
        assert!(matches!(
            n.send(SimTime::ZERO, 0, 2, 8, &mut rng),
            Delivery::ArriveAt(_)
        ));
    }

    #[test]
    fn drop_rate_drops_roughly_that_fraction() {
        let mut n = net();
        n.set_drop_rate(0.5);
        let mut rng = SimRng::new(3);
        let mut dropped = 0;
        for _ in 0..1000 {
            if n.send(SimTime::ZERO, 0, 1, 8, &mut rng) == Delivery::Dropped {
                dropped += 1;
            }
        }
        assert!((400..600).contains(&dropped), "got {dropped}");
    }

    #[test]
    fn bytes_accounting() {
        let mut n = net();
        let mut rng = SimRng::new(1);
        n.send(SimTime::ZERO, 0, 1, 900, &mut rng);
        assert_eq!(n.bytes_sent[0], 1000); // 900 + 100 overhead
    }
}
