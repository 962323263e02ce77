//! Verification reports for the SEC design criteria of a concrete code.
//!
//! [`CriteriaReport::for_code`] checks Criterion 1 (full-object decodability)
//! and, for every exploitable sparsity level `γ < k/2`, Criterion 2 (existence
//! of a `2γ × k` submatrix whose every `2γ` columns are independent). It also
//! counts *how many* `2γ`-row subsets qualify, which drives the paper's
//! resilience comparison between systematic and non-systematic SEC
//! (§IV-C and §V-A: 15 qualifying subsets vs 3 for the (6,3) example).

use sec_gf::GaloisField;
use sec_linalg::checks;
use sec_linalg::combinatorics::binomial_exact;

use crate::code::SecCode;

/// Criterion-2 verification result for one sparsity level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GammaReport {
    /// The sparsity level `γ`.
    pub gamma: usize,
    /// Number of coded symbols needed to recover a `γ`-sparse object (`2γ`).
    pub reads_needed: usize,
    /// Whether at least one qualifying `2γ`-row subset exists (Criterion 2).
    pub satisfied: bool,
    /// Number of `2γ`-row subsets of the generator whose columns are all
    /// independent.
    pub qualifying_subsets: usize,
    /// Total number of `2γ`-row subsets, `C(n, 2γ)`.
    pub total_subsets: u128,
}

impl GammaReport {
    /// Fraction of `2γ`-row subsets that qualify, in `[0, 1]`.
    pub fn qualifying_fraction(&self) -> f64 {
        if self.total_subsets == 0 {
            0.0
        } else {
            self.qualifying_subsets as f64 / self.total_subsets as f64
        }
    }
}

/// Full design-criteria report for a code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriteriaReport {
    /// Whether Criterion 1 holds (some `k × k` submatrix is invertible).
    pub criterion1: bool,
    /// Whether the generator is MDS (every `k × k` row submatrix invertible) —
    /// a stronger property than Criterion 1 that Cauchy codes enjoy.
    pub mds: bool,
    /// Criterion-2 report per exploitable sparsity level, ordered by `γ`.
    pub gammas: Vec<GammaReport>,
}

impl CriteriaReport {
    /// Verifies both criteria for `code`, covering every exploitable sparsity
    /// level `1 ≤ γ ≤ (k-1)/2`.
    ///
    /// This enumerates row subsets, so it is intended for design-time checks
    /// and experiments rather than per-request paths.
    pub fn for_code<F: GaloisField>(code: &SecCode<F>) -> Self {
        let g = code.generator();
        let n = code.n();
        let max_gamma = code.params().max_exploitable_sparsity();
        let gammas = (1..=max_gamma)
            .map(|gamma| {
                let qualifying = checks::count_criterion2_subsets(g, gamma);
                GammaReport {
                    gamma,
                    reads_needed: 2 * gamma,
                    satisfied: qualifying > 0,
                    qualifying_subsets: qualifying,
                    total_subsets: binomial_exact(n as u64, 2 * gamma as u64),
                }
            })
            .collect();
        Self {
            criterion1: checks::has_invertible_k_submatrix(g),
            mds: checks::is_mds(g),
            gammas,
        }
    }

    /// Report for a single sparsity level, if it is exploitable.
    pub fn gamma(&self, gamma: usize) -> Option<&GammaReport> {
        self.gammas.iter().find(|g| g.gamma == gamma)
    }

    /// `true` when both criteria hold for every exploitable sparsity level.
    pub fn all_satisfied(&self) -> bool {
        self.criterion1 && self.gammas.iter().all(|g| g.satisfied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::GeneratorForm;
    use sec_gf::Gf256;

    #[test]
    fn non_systematic_6_3_report_matches_paper() {
        let code: SecCode<Gf256> = SecCode::cauchy(6, 3, GeneratorForm::NonSystematic).unwrap();
        let report = CriteriaReport::for_code(&code);
        assert!(report.criterion1);
        assert!(report.mds);
        assert!(report.all_satisfied());
        assert_eq!(report.gammas.len(), 1);
        let g1 = report.gamma(1).unwrap();
        // Paper §V-A: all 15 two-row submatrices of G_N satisfy Criterion 2.
        assert_eq!(g1.qualifying_subsets, 15);
        assert_eq!(g1.total_subsets, 15);
        assert_eq!(g1.qualifying_fraction(), 1.0);
        assert_eq!(g1.reads_needed, 2);
    }

    #[test]
    fn systematic_6_3_report_matches_paper() {
        let code: SecCode<Gf256> = SecCode::cauchy(6, 3, GeneratorForm::Systematic).unwrap();
        let report = CriteriaReport::for_code(&code);
        assert!(report.criterion1);
        assert!(report.mds);
        let g1 = report.gamma(1).unwrap();
        // Paper §V-A: only 3 two-row submatrices of G_S satisfy Criterion 2
        // (the ones drawn from the Cauchy parity block).
        assert_eq!(g1.qualifying_subsets, 3);
        assert_eq!(g1.total_subsets, 15);
        assert!(g1.satisfied);
        assert!((g1.qualifying_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn larger_code_covers_multiple_gammas() {
        let code: SecCode<Gf256> = SecCode::cauchy(10, 5, GeneratorForm::NonSystematic).unwrap();
        let report = CriteriaReport::for_code(&code);
        assert_eq!(report.gammas.len(), 2);
        for g in &report.gammas {
            assert!(g.satisfied, "gamma {} unsatisfied", g.gamma);
            assert_eq!(g.qualifying_subsets as u128, g.total_subsets);
        }
        assert!(report.all_satisfied());
        assert!(report.gamma(3).is_none());
    }

    #[test]
    fn systematic_10_5_has_fewer_qualifying_subsets() {
        let sys: SecCode<Gf256> = SecCode::cauchy(10, 5, GeneratorForm::Systematic).unwrap();
        let ns: SecCode<Gf256> = SecCode::cauchy(10, 5, GeneratorForm::NonSystematic).unwrap();
        let rs = CriteriaReport::for_code(&sys);
        let rn = CriteriaReport::for_code(&ns);
        for gamma in 1..=2usize {
            let s = rs.gamma(gamma).unwrap();
            let n = rn.gamma(gamma).unwrap();
            assert!(s.qualifying_subsets < n.qualifying_subsets);
            assert!(s.satisfied);
        }
    }
}
