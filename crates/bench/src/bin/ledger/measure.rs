//! Measurement plumbing: the counting allocator, the frozen reference
//! kernel that normalises host time, and the order statistics every
//! report uses.
//!
//! The simulated cluster runs on a virtual clock, so every count and
//! every virtual latency repeats exactly for a seed. Host time does not:
//! on a shared box the same 0.6 s run drifts by tens of percent between
//! minutes. The reference kernel is a fixed piece of work shaped like the
//! simulator's inner loop (heap churn, scattered writes, small
//! allocations); timing it next to each cell and reporting
//! `host_s * REF_NOMINAL_S / ref_s` cancels the part of that drift that
//! slows everything alike.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Heap counters of the current thread. Thread-local so that the unit
/// tests, which `cargo test` runs on parallel threads, cannot disturb
/// each other's counts; the ledger itself is single-threaded.
struct Counters {
    allocs: Cell<u64>,
    bytes: Cell<u64>,
    live: Cell<i64>,
    peak: Cell<i64>,
}

thread_local! {
    static COUNTERS: Counters = const {
        Counters {
            allocs: Cell::new(0),
            bytes: Cell::new(0),
            live: Cell::new(0),
            peak: Cell::new(0),
        }
    };
}

/// The system allocator plus per-thread counts of calls, bytes and the
/// live-bytes high-water mark.
pub struct CountingAlloc;

fn note_alloc(size: usize) {
    // `try_with`: a thread being torn down may allocate after its
    // thread-locals are gone; those allocations go uncounted.
    let _ = COUNTERS.try_with(|c| {
        c.allocs.set(c.allocs.get() + 1);
        c.bytes.set(c.bytes.get() + size as u64);
        let live = c.live.get() + size as i64;
        c.live.set(live);
        if live > c.peak.get() {
            c.peak.set(live);
        }
    });
}

fn note_free(size: usize) {
    let _ = COUNTERS.try_with(|c| c.live.set(c.live.get() - size as i64));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments and returns its result unchanged; the bookkeeping touches
// only const-initialised, destructor-free thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        // SAFETY: forwarded unchanged; `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_free(layout.size());
        note_alloc(new_size);
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A reading of the current thread's heap counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapMark {
    /// Allocation calls so far (a `realloc` counts as one).
    pub allocs: u64,
    /// Bytes requested so far.
    pub bytes: u64,
    /// Bytes live right now.
    pub live: i64,
}

/// Reads the counters.
pub fn heap_mark() -> HeapMark {
    COUNTERS.with(|c| HeapMark {
        allocs: c.allocs.get(),
        bytes: c.bytes.get(),
        live: c.live.get(),
    })
}

/// Restarts the live-bytes high-water mark at the current live size.
pub fn heap_reset_peak() {
    COUNTERS.with(|c| c.peak.set(c.live.get()));
}

/// The live-bytes high-water mark since the last reset.
pub fn heap_peak() -> i64 {
    COUNTERS.with(|c| c.peak.get())
}

/// What the reference kernel takes on an idle run of the box the
/// benchmark was defined on; only the ratio to a measured `ref_s`
/// matters, so the constant just keeps normalised seconds near raw ones.
pub const REF_NOMINAL_S: f64 = 0.030;

/// The frozen reference kernel: a fixed amount of the three things the
/// simulator's event loop does — binary-heap churn, writes scattered over
/// a buffer larger than the cache, and small `Vec` allocations. Do not
/// change it: normalised host times are only comparable across commits
/// while the kernel is the same work.
pub struct RefKernel {
    buf: Vec<u64>,
}

const REF_BUF_WORDS: usize = 1 << 20; // 8 MB
const REF_HEAP_OPS: usize = 300_000;
const REF_SCATTER: usize = 1_000_000;
const REF_SMALL_VECS: usize = 150_000;

impl Default for RefKernel {
    fn default() -> Self {
        RefKernel {
            buf: vec![0; REF_BUF_WORDS],
        }
    }
}

impl RefKernel {
    /// Runs the kernel once and returns its host seconds.
    pub fn run(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut heap = BinaryHeap::with_capacity(1024);
        let mut acc = 0u64;
        for i in 0..REF_HEAP_OPS {
            heap.push(std::cmp::Reverse((step() >> 20, i)));
            if heap.len() > 512 {
                acc ^= heap.pop().map_or(0, |r| r.0 .0);
            }
        }
        for _ in 0..REF_SCATTER {
            let v = step();
            self.buf[(v as usize) & (REF_BUF_WORDS - 1)] = v ^ acc;
        }
        for i in 0..REF_SMALL_VECS {
            let v: Vec<u64> = vec![step(); 1 + (i & 7)];
            acc ^= std::hint::black_box(&v)[0];
        }
        std::hint::black_box(acc);
        std::hint::black_box(&self.buf);
        t0.elapsed().as_secs_f64()
    }
}

/// `host_s` rescaled by how slow the box ran the reference kernel around
/// it (`ref_s` is the mean of the runs before and after).
pub fn normalise(host_s: f64, ref_s: f64) -> f64 {
    host_s * REF_NOMINAL_S / ref_s
}

/// Median of `values` (mean of the two middle ones for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile by the exclusive method — the same numbers
/// Python's `statistics.quantiles(values, n=4)` returns, which is what
/// the acceptance check uses. Fewer than two values give a zero spread.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n < 2 {
        let v = values.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn iqr_share(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// The `q`-quantile (nearest rank) of already sorted nanoseconds, in ms.
pub fn percentile_ms(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len());
    sorted_ns[rank - 1] as f64 / 1e6
}

/// Geometric mean, each value floored at `floor` so one collapsed cell
/// drags the mean down without zeroing it.
pub fn geo_mean(values: &[f64], floor: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let s: f64 = values.iter().map(|v| v.max(floor).ln()).sum();
    (s / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn churn() -> (u64, u64, i64) {
        let before = heap_mark();
        heap_reset_peak();
        let mut keep = Vec::new();
        for i in 0..100usize {
            keep.push(vec![0u8; 100 + i]);
        }
        keep.truncate(10);
        let mut grown: Vec<u32> = Vec::with_capacity(4);
        grown.extend(0..100); // forces reallocs
        let peak = heap_peak() - before.live;
        let after = heap_mark();
        drop(keep);
        (
            after.allocs - before.allocs,
            after.bytes - before.bytes,
            peak,
        )
    }

    #[test]
    fn heap_counters_are_exact_and_repeat() {
        let a = churn();
        let b = churn();
        assert_eq!(a, b, "same work twice gives the same counts");
        assert!(a.0 >= 101, "100 vecs + the outer vec: {}", a.0);
        let payload: u64 = (0..100).map(|i| 100 + i as u64).sum();
        assert!(a.1 >= payload, "bytes cover the payloads: {}", a.1);
        assert!(a.2 as u64 >= payload, "peak saw all 100 live: {}", a.2);
        let live0 = heap_mark().live;
        let v = vec![0u8; 4096];
        assert_eq!(heap_mark().live - live0, 4096);
        drop(v);
        assert_eq!(heap_mark().live, live0, "free is counted");
    }

    #[test]
    fn normaliser_arithmetic() {
        // A box running the kernel twice as slowly halves the reported time.
        assert_eq!(normalise(2.0, REF_NOMINAL_S * 2.0), 1.0);
        assert_eq!(normalise(2.0, REF_NOMINAL_S), 2.0);
        let mut k = RefKernel::default();
        let (a, b) = (k.run(), k.run());
        assert!(a > 0.0 && b > 0.0);
    }

    #[test]
    fn order_statistics_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&v), 5.5);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        let ns: Vec<u64> = (1..=1000).map(|i| i * 1_000_000).collect();
        assert_eq!(percentile_ms(&ns, 0.5), 500.0);
        assert_eq!(percentile_ms(&ns, 0.99), 990.0);
        assert!((geo_mean(&[4.0, 0.0, 16.0], 1.0) - 4.0).abs() < 1e-12);
    }
}
