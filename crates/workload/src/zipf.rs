//! Zipf popularity PMFs over recency ranks.
//!
//! Versioned-archive read traffic is strongly skewed: the latest few versions
//! of an object absorb most reads (wiki page views, backup restores of the
//! newest snapshot). The standard model for that skew is a Zipf law over the
//! recency rank — `P(rank) ∝ 1/rank^s` with rank 1 the most recent version.
//! The benchmark's workloads draw their version targets from this PMF so
//! cache hit rates reflect a realistic hot set rather than a uniform scan.

use core::fmt;

use rand::Rng;

use crate::pmf::PmfError;

/// A Zipf probability mass function on the ranks `{1, 2, …, n}`:
/// `P(rank) = rank^{-s} / H_{n,s}` where `H_{n,s} = Σ_{r=1}^{n} r^{-s}` is the
/// generalized harmonic number.
///
/// Rank 1 is the hottest item. `s = 0` degenerates to the uniform
/// distribution; larger `s` concentrates more mass on the head.
#[derive(Debug, Clone, PartialEq)]
pub struct ZipfPmf {
    probs: Vec<f64>,
    exponent: f64,
}

impl ZipfPmf {
    /// Builds the Zipf PMF with exponent `s` on ranks `1..=n`.
    ///
    /// # Errors
    ///
    /// Returns [`PmfError::EmptySupport`] for `n = 0` and
    /// [`PmfError::InvalidParameter`] for a negative or non-finite `s`
    /// (`s = 0`, the uniform case, is allowed).
    pub fn new(s: f64, n: usize) -> Result<Self, PmfError> {
        if s < 0.0 || !s.is_finite() {
            return Err(PmfError::InvalidParameter { name: "s", value: s });
        }
        if n == 0 {
            return Err(PmfError::EmptySupport);
        }
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        Ok(Self {
            probs: weights.into_iter().map(|w| w / total).collect(),
            exponent: s,
        })
    }

    /// Number of ranks in the support.
    pub fn support_size(&self) -> usize {
        self.probs.len()
    }

    /// The Zipf exponent `s`.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// `P(rank)`; zero outside `{1, …, n}`.
    pub fn probability(&self, rank: usize) -> f64 {
        if rank == 0 || rank > self.probs.len() {
            0.0
        } else {
            self.probs[rank - 1]
        }
    }

    /// The normalized probabilities for ranks `1, …, n`.
    pub fn probabilities(&self) -> &[f64] {
        &self.probs
    }

    /// Expected rank `E[R]`.
    pub fn mean(&self) -> f64 {
        self.probs
            .iter()
            .enumerate()
            .map(|(i, p)| (i + 1) as f64 * p)
            .sum()
    }

    /// Draws one rank (1-based) by inverse-CDF sampling.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        for (i, p) in self.probs.iter().enumerate() {
            acc += p;
            if u < acc {
                return i + 1;
            }
        }
        self.probs.len()
    }
}

impl fmt::Display for ZipfPmf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "zipf(s={}) on {{1..{}}}", self.exponent, self.probs.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn known_answer_normalization_s1_n4() {
        // H_{4,1} = 1 + 1/2 + 1/3 + 1/4 = 25/12, so P(1) = 12/25 and the
        // mean rank is Σ r · (1/r)/H = 4 / (25/12) = 48/25.
        let pmf = ZipfPmf::new(1.0, 4).unwrap();
        assert!((pmf.probability(1) - 12.0 / 25.0).abs() < 1e-12);
        assert!((pmf.probability(2) - 6.0 / 25.0).abs() < 1e-12);
        assert!((pmf.probability(3) - 4.0 / 25.0).abs() < 1e-12);
        assert!((pmf.probability(4) - 3.0 / 25.0).abs() < 1e-12);
        assert!((pmf.probabilities().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((pmf.mean() - 48.0 / 25.0).abs() < 1e-12);
    }

    #[test]
    fn zero_exponent_is_uniform_and_mass_moves_headward_with_s() {
        let uniform = ZipfPmf::new(0.0, 5).unwrap();
        for r in 1..=5 {
            assert!((uniform.probability(r) - 0.2).abs() < 1e-12);
        }
        let mild = ZipfPmf::new(0.8, 5).unwrap();
        let steep = ZipfPmf::new(2.0, 5).unwrap();
        assert!(steep.probability(1) > mild.probability(1));
        assert!(mild.probability(1) > uniform.probability(1));
        assert!(steep.mean() < mild.mean());
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(matches!(
            ZipfPmf::new(-0.5, 4),
            Err(PmfError::InvalidParameter { name: "s", .. })
        ));
        assert!(matches!(
            ZipfPmf::new(f64::NAN, 4),
            Err(PmfError::InvalidParameter { .. })
        ));
        assert!(matches!(ZipfPmf::new(1.0, 0), Err(PmfError::EmptySupport)));
        let pmf = ZipfPmf::new(1.0, 3).unwrap();
        assert_eq!(pmf.probability(0), 0.0);
        assert_eq!(pmf.probability(4), 0.0);
        assert_eq!(pmf.support_size(), 3);
        assert_eq!(pmf.exponent(), 1.0);
    }

    #[test]
    fn sampling_matches_distribution() {
        let pmf = ZipfPmf::new(1.1, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let n = 200_000usize;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            counts[pmf.sample(&mut rng) - 1] += 1;
        }
        for r in 1..=4usize {
            let empirical = counts[r - 1] as f64 / n as f64;
            assert!(
                (empirical - pmf.probability(r)).abs() < 0.01,
                "rank={r} empirical={empirical} expected={}",
                pmf.probability(r)
            );
        }
    }

    #[test]
    fn display_names_family_and_support() {
        let pmf = ZipfPmf::new(1.0, 8).unwrap();
        let s = format!("{pmf}");
        assert!(s.contains("zipf"));
        assert!(s.contains("1..8"));
    }
}
