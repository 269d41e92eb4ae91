//! A deterministic per-node disk model: fsync latency.
//!
//! The disk is the third shared resource next to the NIC ([`crate::net`])
//! and the CPU run queue ([`crate::sim`]). It models the durability cost
//! that dominates commit latency in real consensus deployments: a log
//! append is a buffered write (counted, free) and an **fsync** is a flush
//! barrier (charged a fixed device latency) that the caller must wait
//! out before the data is durable.
//!
//! Mechanics mirror the NIC exactly:
//!
//! - each disk keeps a busy horizon (`free[d]`): writes and fsyncs are
//!   serviced FIFO in virtual-time order, so co-located actors mapped to
//!   the same disk fair-share it the way flows fair-share one NIC (a
//!   write holds the queue until its issue time, so a co-located
//!   actor's later-charged fsync waits behind it);
//! - charging is pure virtual-time arithmetic — **no RNG draws** — so a
//!   run with a zero-cost disk (the [`DiskConfig::default`]) is
//!   bit-for-bit identical to a run built before the disk model existed;
//! - fsync completions surface as timer-like events gated on the actor's
//!   crash epoch, so a crash silently cancels in-flight fsyncs;
//! - a write made durable barrier by barrier is charged barrier by
//!   barrier but completes once ([`DiskArray::fsync_serial`]): the horizon
//!   and [`DiskStats::fsyncs`] move as that many single fsyncs move them,
//!   and one completion fires at the last barrier's time.

use crate::time::{SimDuration, SimTime};

/// Disk performance parameters shared by every disk in a simulation.
///
/// The default is the **zero-cost disk**: zero fsync latency. With it,
/// an fsync completes at the instant it is issued — the event schedule
/// is identical to a simulation with no disk model at all.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DiskConfig {
    /// Fixed device latency of one fsync (flush barrier).
    pub fsync_latency: SimDuration,
}

impl DiskConfig {
    /// Whether this config ever charges time.
    pub fn is_zero_cost(&self) -> bool {
        self.fsync_latency == SimDuration::ZERO
    }
}

/// Per-disk cumulative counters (reporting only).
#[derive(Debug, Clone, Copy, Default)]
pub struct DiskStats {
    /// Buffered bytes written.
    pub bytes_written: u64,
    /// Fsyncs completed (scheduled; a crash may discard the completion
    /// event but the device did the work).
    pub fsyncs: u64,
}

/// The array of simulated disks, one busy horizon per disk id.
///
/// Actors are mapped onto disk ids by the simulation (default: own id);
/// mapping several actors to one disk id models co-location on a shared
/// device — their writes and fsyncs serialize FIFO on its horizon.
#[derive(Debug, Default)]
pub struct DiskArray {
    config: DiskConfig,
    /// Per-disk parameter overrides (straggler/degraded-device
    /// modeling); `None` means the shared `config` applies.
    overrides: Vec<Option<DiskConfig>>,
    free: Vec<SimTime>,
    stats: Vec<DiskStats>,
}

impl DiskArray {
    /// An array with the given per-disk parameters and no disks yet.
    pub fn new(config: DiskConfig) -> Self {
        DiskArray {
            config,
            overrides: Vec::new(),
            free: Vec::new(),
            stats: Vec::new(),
        }
    }

    /// The shared disk parameters.
    pub fn config(&self) -> &DiskConfig {
        &self.config
    }

    /// Replaces the shared disk parameters (busy horizons and per-disk
    /// overrides are kept).
    pub fn set_config(&mut self, config: DiskConfig) {
        self.config = config;
    }

    /// Overrides the parameters of disk `d` alone — models a degraded
    /// or mismatched device (a straggler) in an otherwise uniform
    /// array. Pure parameter change: no RNG draws, horizons kept.
    pub fn set_config_for(&mut self, d: usize, config: DiskConfig) {
        self.ensure(d);
        self.overrides[d] = Some(config);
    }

    /// The effective parameters of disk `d` (override or shared).
    pub fn config_of(&self, d: usize) -> &DiskConfig {
        self.overrides
            .get(d)
            .and_then(|o| o.as_ref())
            .unwrap_or(&self.config)
    }

    /// Makes sure disk id `d` exists.
    pub fn ensure(&mut self, d: usize) {
        while self.free.len() <= d {
            self.free.push(SimTime::ZERO);
            self.stats.push(DiskStats::default());
            self.overrides.push(None);
        }
    }

    /// Records a buffered write of `bytes` issued at `now`. It costs no
    /// device time, but the disk's busy horizon catches up to `now`, so
    /// work queued behind it on a shared disk starts no earlier. The
    /// caller does not wait — only a subsequent fsync forces it to.
    pub fn write(&mut self, now: SimTime, d: usize, bytes: usize) {
        self.ensure(d);
        self.free[d] = self.free[d].max(now);
        self.stats[d].bytes_written += bytes as u64;
    }

    /// Charges an fsync issued at `now` and returns its completion time:
    /// all previously issued work on this disk finishes first (FIFO),
    /// then the flush barrier costs `fsync_latency`.
    pub fn fsync(&mut self, now: SimTime, d: usize) -> SimTime {
        self.fsync_serial(now, d, 1)
    }

    /// Charges `count` fsyncs issued back to back at `now` and returns
    /// when the last completes. Nothing can come between barriers issued
    /// at one instant on a FIFO device, so this leaves the horizon and
    /// the counters exactly where `count` calls to [`DiskArray::fsync`]
    /// leave them.
    pub fn fsync_serial(&mut self, now: SimTime, d: usize, count: u64) -> SimTime {
        self.ensure(d);
        let start = self.free[d].max(now);
        let done = start + self.config_of(d).fsync_latency * count;
        self.free[d] = done;
        self.stats[d].fsyncs += count;
        done
    }

    /// The time disk `d` becomes idle (its busy horizon).
    pub fn free_at(&self, d: usize) -> SimTime {
        self.free.get(d).copied().unwrap_or(SimTime::ZERO)
    }

    /// How far disk `d` is backed up at `now` (`ZERO` when idle) — the
    /// disk-queue-depth signal, analogous to [`crate::sim::Ctx::nic_backlog`].
    pub fn backlog(&self, now: SimTime, d: usize) -> SimDuration {
        let free = self.free_at(d);
        if free > now {
            free - now
        } else {
            SimDuration::ZERO
        }
    }

    /// Cumulative counters for disk `d`.
    pub fn stats(&self, d: usize) -> DiskStats {
        self.stats.get(d).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fsync_ms(ms: u64) -> DiskConfig {
        DiskConfig {
            fsync_latency: SimDuration::from_millis(ms),
        }
    }

    #[test]
    fn zero_cost_default_charges_nothing() {
        let mut disks = DiskArray::new(DiskConfig::default());
        assert!(disks.config().is_zero_cost());
        assert!(!fsync_ms(1).is_zero_cost());
        disks.write(SimTime::from_millis(3), 0, 1 << 20);
        let done = disks.fsync(SimTime::from_millis(3), 0);
        assert_eq!(done, SimTime::from_millis(3));
        assert_eq!(disks.backlog(SimTime::from_millis(3), 0), SimDuration::ZERO);
    }

    #[test]
    fn fsync_waits_for_prior_writes_fifo() {
        let mut disks = DiskArray::new(fsync_ms(1));
        // A write issued at t=10 holds the queue until 10 ms.
        disks.write(SimTime::from_millis(10), 0, 1_000_000);
        assert_eq!(disks.free_at(0), SimTime::from_millis(10));
        // An fsync charged at t=2 completes at 10 + 1 = 11 ms.
        let done = disks.fsync(SimTime::from_millis(2), 0);
        assert_eq!(done, SimTime::from_millis(11));
        assert_eq!(
            disks.backlog(SimTime::from_millis(2), 0),
            SimDuration::from_millis(9)
        );
        let s = disks.stats(0);
        assert_eq!(s.bytes_written, 1_000_000);
        assert_eq!(s.fsyncs, 1);
    }

    #[test]
    fn co_located_work_serializes_on_one_horizon() {
        // Two logical actors mapped onto disk 0: their fsyncs queue FIFO.
        let mut disks = DiskArray::new(fsync_ms(2));
        let a = disks.fsync(SimTime::ZERO, 0);
        let b = disks.fsync(SimTime::ZERO, 0);
        assert_eq!(a, SimTime::from_millis(2));
        assert_eq!(b, SimTime::from_millis(4), "second fsync waits its turn");
        // A separate disk id is an independent device.
        let c = disks.fsync(SimTime::ZERO, 1);
        assert_eq!(c, SimTime::from_millis(2));
    }

    #[test]
    fn serial_fsyncs_leave_the_disk_where_single_ones_do() {
        let cfg = fsync_ms(2);
        let (mut one, mut many) = (DiskArray::new(cfg.clone()), DiskArray::new(cfg));
        for disks in [&mut one, &mut many] {
            disks.write(SimTime::from_millis(10), 0, 4096); // queue held until 10 ms
        }
        let at = SimTime::from_millis(3);
        let done = one.fsync_serial(at, 0, 4);
        let last = (0..4).map(|_| many.fsync(at, 0)).last();
        assert_eq!(done, SimTime::from_millis(18));
        assert_eq!(Some(done), last);
        assert_eq!(one.free_at(0), many.free_at(0));
        assert_eq!(one.backlog(at, 0), many.backlog(at, 0));
        assert_eq!(one.stats(0).fsyncs, 4);
        assert_eq!(many.stats(0).fsyncs, 4);
    }

    #[test]
    fn per_disk_override_degrades_one_device_only() {
        let mut disks = DiskArray::new(fsync_ms(1));
        disks.set_config_for(1, fsync_ms(10));
        assert_eq!(disks.fsync(SimTime::ZERO, 0), SimTime::from_millis(1));
        assert_eq!(disks.fsync(SimTime::ZERO, 1), SimTime::from_millis(10));
        assert_eq!(disks.fsync(SimTime::ZERO, 2), SimTime::from_millis(1));
        assert_eq!(
            disks.config_of(1).fsync_latency,
            SimDuration::from_millis(10)
        );
        assert_eq!(
            disks.config_of(0).fsync_latency,
            SimDuration::from_millis(1)
        );
    }

    #[test]
    fn idle_disk_catches_up_to_now() {
        let mut disks = DiskArray::new(fsync_ms(1));
        let a = disks.fsync(SimTime::ZERO, 0);
        assert_eq!(a, SimTime::from_millis(1));
        // Long idle gap: the next fsync starts from `now`, not the old horizon.
        let b = disks.fsync(SimTime::from_millis(100), 0);
        assert_eq!(b, SimTime::from_millis(101));
    }
}
