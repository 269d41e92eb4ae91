//! Deterministic random number generation for the simulator.
//!
//! Every source of randomness in a simulation (latency jitter, election
//! timeouts, workload key choices) must flow through a [`SimRng`] derived
//! from the run's seed, so that a run is a pure function of
//! `(configuration, seed)`.
//!
//! The generator is xoshiro256++ seeded via SplitMix64, implemented from
//! the public-domain reference so the simulator has no RNG dependency.

/// A deterministic, splittable pseudo-random number generator.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derives an independent child generator; used to give each actor or
    /// subsystem its own stream so insertion order elsewhere cannot perturb
    /// unrelated decisions.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        SimRng::new(self.next_u64() ^ stream.wrapping_mul(0x9E3779B97F4A7C15))
    }

    /// Next raw 64-bit value (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        // Lemire's multiply-shift rejection method for unbiased sampling.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    pub fn gen_range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        lo + self.gen_range(hi - lo + 1)
    }

    /// Uniform float in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.gen_f64() < p
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "choose on empty slice");
        &xs[self.gen_range(xs.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "seeds 1 and 2 should produce different streams");
    }

    #[test]
    fn gen_range_in_bounds_and_covers() {
        let mut r = SimRng::new(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let x = r.gen_range(10);
            assert!(x < 10);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn gen_range_inclusive_endpoints() {
        let mut r = SimRng::new(9);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..2000 {
            let x = r.gen_range_inclusive(3, 5);
            assert!((3..=5).contains(&x));
            lo_seen |= x == 3;
            hi_seen |= x == 5;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn gen_f64_unit_interval() {
        let mut r = SimRng::new(11);
        for _ in 0..1000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = SimRng::new(13);
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
        let trues = (0..10_000).filter(|_| r.gen_bool(0.3)).count();
        assert!((2_500..3_500).contains(&trues), "got {trues}");
    }

    #[test]
    fn fork_streams_independent() {
        let mut root = SimRng::new(5);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }
}
