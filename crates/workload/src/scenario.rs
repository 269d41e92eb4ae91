//! Non-stationary traffic: a hot key window that drifts or oscillates.
//!
//! The base [`crate::generator::Generator`] reproduces the paper's
//! Section 5 workload — stationary uniform draws plus a conflict-rate
//! hot record. The auto-rebalancing control loop needs *non-stationary*
//! traffic to be worth anything: a hotspot that drifts across the key
//! space, or skew that oscillates between groups faster than a naive
//! controller converges. A [`Hotspot`]'s window is a pure function of
//! `(config, virtual time)`, and the generator draws its keys from
//! `SimRng`, so runs stay deterministic and reproducible per seed.
//!
//! When [`crate::generator::WorkloadConfig::hotspot`] is `None` the
//! generator draws exactly as the stationary workload — same RNG
//! stream, same keys.

use paxraft_sim::time::SimDuration;

/// How a hotspot's center moves over virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drift {
    /// The hotspot stays put.
    Fixed,
    /// Sawtooth sweep: the center moves linearly from `center` to `to`
    /// over each `period`, then jumps back — the "drifting hotspot" the
    /// closed-loop policy chases.
    Linear {
        /// Sweep duration.
        period: SimDuration,
        /// Center position at the end of each sweep.
        to: u64,
    },
    /// Square wave: the center sits at `center` for the first half of
    /// each `period` and at `other` for the second half — the
    /// adversarial oscillation the anti-livelock guards are tested
    /// against.
    Oscillate {
        /// Full oscillation period.
        period: SimDuration,
        /// The alternate center.
        other: u64,
    },
}

/// A moving hot range: with probability `weight` an operation targets a
/// key uniform in the `width`-wide window around the (possibly
/// drifting) center.
///
/// Uniform-within-window (rather than a point hotspot) matters: the
/// load spreads over several sketch buckets, so the policy can peel the
/// range off bucket-by-bucket under its order-preserving move rule. A
/// single ultra-hot key is *correctly* immovable — moving it would only
/// relabel which group is hot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hotspot {
    /// Fraction of operations landing in the hot window.
    pub weight: f64,
    /// Initial window center key.
    pub center: u64,
    /// Window width in keys.
    pub width: u64,
    /// How the center moves.
    pub drift: Drift,
}

impl Hotspot {
    /// The drifting hotspot the auto-rebalance bench sweeps: a hot
    /// window of `width` keys carrying `weight` of the traffic,
    /// sweeping from `from` to `to` over `period`.
    pub fn drifting(weight: f64, from: u64, to: u64, width: u64, period: SimDuration) -> Self {
        Hotspot {
            weight,
            center: from,
            width,
            drift: Drift::Linear { period, to },
        }
    }

    /// The adversarial oscillating hotspot: the hot window jumps
    /// between `a` and `b` every `period / 2`.
    pub fn oscillating(weight: f64, a: u64, b: u64, width: u64, period: SimDuration) -> Self {
        Hotspot {
            weight,
            center: a,
            width,
            drift: Drift::Oscillate { period, other: b },
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.weight) {
            return Err(format!("hotspot weight {} outside [0,1]", self.weight));
        }
        if self.width == 0 {
            return Err("hotspot width must be positive".into());
        }
        Ok(())
    }

    /// The window `[lo, hi)` at virtual time `now_ns`, clamped to the
    /// non-hot key space `[1, records)`.
    pub fn window(&self, now_ns: u64, records: u64) -> (u64, u64) {
        let center = match self.drift {
            Drift::Fixed => self.center,
            Drift::Linear { period, to } => {
                let p = period.as_nanos().max(1);
                let frac = (now_ns % p) as f64 / p as f64;
                let from = self.center as f64;
                (from + (to as f64 - from) * frac) as u64
            }
            Drift::Oscillate { period, other } => {
                let p = period.as_nanos().max(1);
                if (now_ns % p) < p / 2 {
                    self.center
                } else {
                    other
                }
            }
        };
        let lo = center.saturating_sub(self.width / 2).max(1);
        let hi = (lo + self.width).min(records);
        (lo.min(records - 1), hi.max(lo + 1).min(records))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_drift_sweeps_the_center() {
        let h = Hotspot::drifting(0.8, 10_000, 90_000, 12_000, SimDuration::from_secs(10));
        h.validate().unwrap();
        let at = |secs: f64| {
            let (lo, hi) = h.window((secs * 1e9) as u64, 100_000);
            (lo + hi) / 2
        };
        assert!(at(0.0).abs_diff(10_000) < 100);
        assert!(at(5.0).abs_diff(50_000) < 100);
        assert!(at(9.9).abs_diff(89_200) < 1_000);
        // Sawtooth: wraps back at the period boundary.
        assert!(at(10.0).abs_diff(10_000) < 100);
    }

    #[test]
    fn oscillate_is_a_square_wave() {
        let h = Hotspot::oscillating(0.7, 20_000, 80_000, 8_000, SimDuration::from_secs(4));
        h.validate().unwrap();
        let center = |secs: u64| {
            let (lo, hi) = h.window(secs * 1_000_000_000, 100_000);
            (lo + hi) / 2
        };
        assert!(center(0).abs_diff(20_000) < 100);
        assert!(center(1).abs_diff(20_000) < 100);
        assert!(center(2).abs_diff(80_000) < 100);
        assert!(center(3).abs_diff(80_000) < 100);
        assert!(center(4).abs_diff(20_000) < 100, "period wraps");
    }

    #[test]
    fn hotspot_window_clamps_to_keyspace() {
        let h = Hotspot {
            weight: 0.5,
            center: 100,
            width: 10_000,
            drift: Drift::Fixed,
        };
        let (lo, hi) = h.window(0, 100_000);
        assert!(lo >= 1);
        assert!(hi <= 100_000);
        assert!(hi > lo);
        // Near the top edge too.
        let h = Hotspot {
            center: 99_990,
            ..h
        };
        let (lo, hi) = h.window(0, 100_000);
        assert!(hi <= 100_000);
        assert!(hi > lo);
    }

    #[test]
    fn validate_rejects_bad_scenarios() {
        let bad = Hotspot {
            weight: 1.5,
            center: 0,
            width: 10,
            drift: Drift::Fixed,
        };
        assert!(bad.validate().is_err());
        let bad = Hotspot {
            weight: 0.5,
            width: 0,
            ..bad
        };
        assert!(bad.validate().is_err());
    }
}
