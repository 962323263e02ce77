//! Exhaustive failure-pattern census (§IV-C of the paper).
//!
//! For the (6,3) example with a 1-sparse delta the paper counts, among the 63
//! patterns with at least one failed node:
//!
//! * 41 patterns recoverable through the plain MDS property (≥ k live nodes);
//! * 15 additional patterns (exactly `2γ = 2` live nodes) recoverable by
//!   non-systematic SEC — total 56;
//! * only 3 additional patterns recoverable by systematic SEC — total 44.

use sec_erasure::SecCode;
use sec_gf::GaloisField;
use sec_linalg::checks;
use sec_linalg::combinatorics::Combinations;

/// Census of failure patterns for one code and sparsity level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternCensus {
    /// Code length `n`.
    pub n: usize,
    /// Code dimension `k`.
    pub k: usize,
    /// Sparsity level analysed.
    pub gamma: usize,
    /// Number of failure patterns considered (patterns with ≥ 1 failed node).
    pub total_patterns: u64,
    /// Patterns recoverable via the MDS property alone (≥ k live nodes).
    pub mds_recoverable: u64,
    /// Additional patterns recoverable only through sparse recovery
    /// (fewer than `k` live nodes but a qualifying `2γ`-subset alive).
    pub sparse_only_recoverable: u64,
}

impl PatternCensus {
    /// Total number of recoverable patterns.
    pub fn recoverable(&self) -> u64 {
        self.mds_recoverable + self.sparse_only_recoverable
    }

    /// Number of unrecoverable patterns.
    pub fn unrecoverable(&self) -> u64 {
        self.total_patterns - self.recoverable()
    }
}

/// Runs the census for a concrete code and sparsity level by enumerating all
/// `2^n − 1` failure patterns (the all-alive pattern is excluded, matching the
/// paper's count of 63 for `n = 6`).
///
/// # Panics
///
/// Panics when `n > 24`.
pub fn census<F: GaloisField>(code: &SecCode<F>, gamma: usize) -> PatternCensus {
    let n = code.n();
    assert!(n <= 24, "exhaustive pattern census is limited to n <= 24");
    let k = code.k();
    let reads = 2 * gamma;
    let qualifying: Vec<Vec<usize>> = if reads >= 1 && reads < k {
        Combinations::new(n, reads)
            .filter(|rows| {
                let sub = code
                    .generator()
                    .select_rows(rows)
                    .expect("row indices generated in range");
                checks::all_columns_independent(&sub)
            })
            .collect()
    } else {
        Vec::new()
    };

    let mut mds_recoverable = 0u64;
    let mut sparse_only = 0u64;
    let total = (1u64 << n) - 1;
    for mask in 1u64..=total {
        let alive = n - mask.count_ones() as usize;
        if alive >= k {
            mds_recoverable += 1;
        } else if alive >= reads
            && reads >= 1
            && reads < k
            && qualifying
                .iter()
                .any(|rows| rows.iter().all(|&r| mask & (1 << r) == 0))
        {
            sparse_only += 1;
        }
    }

    PatternCensus {
        n,
        k,
        gamma,
        total_patterns: total,
        mds_recoverable,
        sparse_only_recoverable: sparse_only,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sec_erasure::GeneratorForm;
    use sec_gf::Gf256;

    #[test]
    fn paper_section_iv_c_counts() {
        let ns: SecCode<Gf256> = SecCode::cauchy(6, 3, GeneratorForm::NonSystematic).unwrap();
        let sys: SecCode<Gf256> = SecCode::cauchy(6, 3, GeneratorForm::Systematic).unwrap();

        let census_ns = census(&ns, 1);
        assert_eq!(census_ns.total_patterns, 63);
        assert_eq!(census_ns.mds_recoverable, 41);
        assert_eq!(census_ns.sparse_only_recoverable, 15);
        assert_eq!(census_ns.recoverable(), 56);
        assert_eq!(census_ns.unrecoverable(), 7);

        let census_sys = census(&sys, 1);
        assert_eq!(census_sys.total_patterns, 63);
        assert_eq!(census_sys.mds_recoverable, 41);
        assert_eq!(census_sys.sparse_only_recoverable, 3);
        assert_eq!(census_sys.recoverable(), 44);
    }

    #[test]
    fn unexploitable_sparsity_reduces_to_mds_only() {
        let ns: SecCode<Gf256> = SecCode::cauchy(6, 3, GeneratorForm::NonSystematic).unwrap();
        let c = census(&ns, 2); // 2γ = 4 ≥ k = 3
        assert_eq!(c.sparse_only_recoverable, 0);
        assert_eq!(c.recoverable(), c.mds_recoverable);
    }

    #[test]
    fn larger_code_census_is_consistent() {
        let ns: SecCode<Gf256> = SecCode::cauchy(10, 5, GeneratorForm::NonSystematic).unwrap();
        let c1 = census(&ns, 1);
        let c2 = census(&ns, 2);
        assert_eq!(c1.total_patterns, 1023);
        // MDS-recoverable counts do not depend on gamma.
        assert_eq!(c1.mds_recoverable, c2.mds_recoverable);
        // Smaller gamma (fewer reads needed) tolerates more failures.
        assert!(c1.sparse_only_recoverable > c2.sparse_only_recoverable);
        // For a superregular generator, every pattern with ≥ 2γ live nodes is
        // sparse-recoverable: counts match the binomial census.
        let expected_sparse_only: u64 = (2..5)
            .map(|alive| sec_linalg::combinatorics::binomial_exact(10, alive) as u64)
            .sum();
        assert_eq!(c1.sparse_only_recoverable, expected_sparse_only);
    }

    #[test]
    fn systematic_never_beats_non_systematic() {
        let ns: SecCode<Gf256> = SecCode::cauchy(10, 5, GeneratorForm::NonSystematic).unwrap();
        let sys: SecCode<Gf256> = SecCode::cauchy(10, 5, GeneratorForm::Systematic).unwrap();
        for gamma in 1..=2usize {
            let a = census(&ns, gamma);
            let b = census(&sys, gamma);
            assert!(a.recoverable() >= b.recoverable(), "gamma={gamma}");
            assert_eq!(a.mds_recoverable, b.mds_recoverable);
        }
    }
}
