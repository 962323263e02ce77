//! Open-loop request arrival processes for load generation.
//!
//! A *closed-loop* load generator only issues a request when the previous
//! reply returns, so a slow server silently throttles its own offered load.
//! `sec-netload` therefore also drives an **open-loop** mode: requests
//! arrive on a Poisson process of a fixed rate whether or not earlier
//! requests finished, so queueing delay shows up in the latency tail
//! instead of vanishing into the arrival process.
//!
//! Two generators, both deterministic under a seeded [`Rng`]:
//!
//! * [`ArrivalProcess`] — exact Poisson arrivals: i.i.d. exponential
//!   interarrival gaps via inverse-CDF (`-ln(1-u)/rate`).
//! * [`SlottedArrivals`] — a discretized alternative that draws *counts of
//!   arrivals per fixed slot* from the workload crate's existing truncated
//!   Poisson PMF ([`SparsityPmf::truncated_poisson`]), for traces that want
//!   bursty integer batches rather than a continuous timeline.

use rand::Rng;

use crate::pmf::{PmfError, SparsityPmf};

/// A Poisson arrival process of `rate` arrivals per second.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalProcess {
    rate: f64,
}

impl ArrivalProcess {
    /// Creates the process.
    ///
    /// # Errors
    ///
    /// Returns [`PmfError::InvalidParameter`] for a non-positive or
    /// non-finite rate.
    pub fn poisson(rate: f64) -> Result<Self, PmfError> {
        if rate <= 0.0 || !rate.is_finite() {
            return Err(PmfError::InvalidParameter {
                name: "rate",
                value: rate,
            });
        }
        Ok(ArrivalProcess { rate })
    }

    /// The configured rate (arrivals per second).
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The exponential inverse CDF: the interarrival gap (seconds) at
    /// quantile `u ∈ [0, 1)`. `gap_for(0.5)` is the median gap
    /// `ln 2 / rate`; the mean gap is `1 / rate`.
    pub fn gap_for(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0 - f64::EPSILON);
        -(1.0 - u).ln() / self.rate
    }

    /// Draws one interarrival gap (seconds).
    pub fn next_gap<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.gap_for(rng.gen::<f64>())
    }

    /// Arrival timestamps (seconds, strictly increasing from the first gap)
    /// within `[0, horizon)`, capped at `max` arrivals.
    pub fn schedule<R: Rng + ?Sized>(&self, horizon: f64, max: usize, rng: &mut R) -> Vec<f64> {
        let mut out = Vec::new();
        let mut t = 0.0;
        while out.len() < max {
            t += self.next_gap(rng);
            if t >= horizon {
                break;
            }
            out.push(t);
        }
        out
    }
}

/// Integer arrivals-per-slot drawn from the truncated Poisson PMF on
/// `{1, …, k}` (zero-arrival slots occur with probability `idle`).
#[derive(Debug, Clone, PartialEq)]
pub struct SlottedArrivals {
    pmf: SparsityPmf,
    idle: f64,
}

impl SlottedArrivals {
    /// Builds the per-slot distribution: with probability `idle` a slot is
    /// empty, otherwise the count is drawn from
    /// `SparsityPmf::truncated_poisson(lambda, max_per_slot)`.
    ///
    /// # Errors
    ///
    /// Returns [`PmfError::InvalidParameter`] for a bad `lambda` or an
    /// `idle` outside `[0, 1]`, and [`PmfError::EmptySupport`] for
    /// `max_per_slot = 0`.
    pub fn truncated_poisson(lambda: f64, max_per_slot: usize, idle: f64) -> Result<Self, PmfError> {
        if !(0.0..=1.0).contains(&idle) {
            return Err(PmfError::InvalidParameter {
                name: "idle",
                value: idle,
            });
        }
        Ok(SlottedArrivals {
            pmf: SparsityPmf::truncated_poisson(lambda, max_per_slot)?,
            idle,
        })
    }

    /// The busy-slot count distribution.
    pub fn pmf(&self) -> &SparsityPmf {
        &self.pmf
    }

    /// Expected arrivals per slot: `(1 - idle) · E[pmf]`.
    pub fn mean_per_slot(&self) -> f64 {
        (1.0 - self.idle) * self.pmf.mean()
    }

    /// Draws the arrival count of one slot.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        if self.idle > 0.0 && rng.gen::<f64>() < self.idle {
            return 0;
        }
        self.pmf.sample(rng)
    }

    /// Draws `slots` consecutive per-slot counts.
    pub fn counts<R: Rng + ?Sized>(&self, slots: usize, rng: &mut R) -> Vec<usize> {
        (0..slots).map(|_| self.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_parameters() {
        assert!(matches!(
            ArrivalProcess::poisson(0.0),
            Err(PmfError::InvalidParameter { name: "rate", .. })
        ));
        assert!(matches!(
            ArrivalProcess::poisson(f64::INFINITY),
            Err(PmfError::InvalidParameter { .. })
        ));
        assert!(matches!(
            SlottedArrivals::truncated_poisson(5.0, 8, 1.5),
            Err(PmfError::InvalidParameter { name: "idle", .. })
        ));
        assert!(matches!(
            SlottedArrivals::truncated_poisson(-1.0, 8, 0.0),
            Err(PmfError::InvalidParameter { .. })
        ));
        assert!(matches!(
            SlottedArrivals::truncated_poisson(5.0, 0, 0.0),
            Err(PmfError::EmptySupport)
        ));
    }

    #[test]
    fn known_answer_inverse_cdf() {
        // Exponential quantiles are exact: F⁻¹(u) = -ln(1-u)/λ.
        let p = ArrivalProcess::poisson(1000.0).unwrap();
        assert!((p.gap_for(0.5) - std::f64::consts::LN_2 / 1000.0).abs() < 1e-15);
        assert_eq!(p.gap_for(0.0), 0.0);
        // 1 - 1/e of the mass lies below the mean gap 1/λ.
        assert!((p.gap_for(1.0 - 1.0 / std::f64::consts::E) - 1e-3).abs() < 1e-12);
        // Quantiles are monotone; u = 1 is clamped finite.
        assert!(p.gap_for(0.99) < p.gap_for(0.999));
        assert!(p.gap_for(1.0).is_finite());
        // Scaling the rate scales every quantile inversely.
        let double = ArrivalProcess::poisson(2000.0).unwrap();
        assert!((p.gap_for(0.7) / double.gap_for(0.7) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sampled_gaps_match_the_rate() {
        let p = ArrivalProcess::poisson(500.0).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| p.next_gap(&mut rng)).sum::<f64>() / n as f64;
        assert!(
            (mean - 1.0 / 500.0).abs() < 0.05 / 500.0,
            "mean gap {mean} vs expected {}",
            1.0 / 500.0
        );
    }

    #[test]
    fn schedule_is_sorted_bounded_and_deterministic() {
        let p = ArrivalProcess::poisson(100.0).unwrap();
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let s1 = p.schedule(2.0, 10_000, &mut a);
        let s2 = p.schedule(2.0, 10_000, &mut b);
        assert_eq!(s1, s2);
        assert!(s1.windows(2).all(|w| w[0] < w[1]));
        assert!(s1.iter().all(|&t| (0.0..2.0).contains(&t)));
        // ~200 expected arrivals in 2 s at 100/s.
        assert!((150..=250).contains(&s1.len()), "{}", s1.len());
        // The cap truncates.
        let mut c = StdRng::seed_from_u64(7);
        assert_eq!(p.schedule(2.0, 5, &mut c).len(), 5);
    }

    #[test]
    fn slotted_counts_reuse_the_truncated_poisson_pmf() {
        // λ = 3 on {1,2,3} has the known-answer probabilities 3/12, 4.5/12,
        // 4.5/12 (see pmf.rs); with idle = 0 the slot counts must follow it.
        let slots = SlottedArrivals::truncated_poisson(3.0, 3, 0.0).unwrap();
        assert!((slots.mean_per_slot() - 17.0 / 8.0).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(3);
        let n = 120_000;
        let counts = slots.counts(n, &mut rng);
        let mut histogram = [0usize; 4];
        for &c in &counts {
            histogram[c] += 1;
        }
        assert_eq!(histogram[0], 0);
        for (gamma, &seen) in histogram.iter().enumerate().skip(1) {
            let empirical = seen as f64 / n as f64;
            let expected = slots.pmf().probability(gamma);
            assert!(
                (empirical - expected).abs() < 0.01,
                "count {gamma}: {empirical} vs {expected}"
            );
        }
    }

    #[test]
    fn idle_slots_thin_the_process() {
        let slots = SlottedArrivals::truncated_poisson(3.0, 3, 0.25).unwrap();
        assert!((slots.mean_per_slot() - 0.75 * 17.0 / 8.0).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(5);
        let n = 80_000;
        let zeros = slots.counts(n, &mut rng).iter().filter(|&&c| c == 0).count();
        assert!(
            (zeros as f64 / n as f64 - 0.25).abs() < 0.01,
            "idle fraction {}",
            zeros as f64 / n as f64
        );
    }
}
