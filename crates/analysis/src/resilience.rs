//! Static resilience: probability of losing individual stored objects under
//! i.i.d. node failures (§IV-A of the paper).

use sec_erasure::SecCode;
use sec_gf::GaloisField;
use sec_linalg::checks;
use sec_linalg::combinatorics::{binomial, Combinations};

/// Probability that a fully encoded object (needing any `k` of its `n` coded
/// symbols) is lost when each node fails independently with probability `p`
/// — eq. (6) of the paper:
///
/// `Prob(E_1) = Σ_{j=0}^{k-1} C(n, n-j) p^{n-j} (1-p)^j`.
pub fn prob_lose_full(n: usize, k: usize, p: f64) -> f64 {
    (0..k)
        .map(|alive| {
            binomial(n as u64, alive as u64) * p.powi((n - alive) as i32) * (1.0 - p).powi(alive as i32)
        })
        .sum()
}

/// Probability that a `γ`-sparse delta stored with **non-systematic** SEC is
/// lost — eq. (7): any `υ = min(2γ, k)` live nodes suffice, so loss requires
/// more than `n − υ` failures.
pub fn prob_lose_sparse_non_systematic(n: usize, k: usize, gamma: usize, p: f64) -> f64 {
    let upsilon = (2 * gamma).min(k);
    (0..upsilon)
        .map(|alive| {
            binomial(n as u64, alive as u64) * p.powi((n - alive) as i32) * (1.0 - p).powi(alive as i32)
        })
        .sum()
}

/// Lower bound of eq. (9) on the loss probability of a sparse delta under
/// **systematic** SEC (the true value depends on which `2γ`-subsets qualify;
/// use [`prob_lose_sparse_exact`] for the exact number).
pub fn prob_lose_sparse_systematic_lower_bound(n: usize, k: usize, gamma: usize, p: f64) -> f64 {
    prob_lose_sparse_non_systematic(n, k, gamma, p)
}

/// Exact probability that a `γ`-sparse delta is lost under the given concrete
/// code, computed by enumerating all `2^n` failure patterns.
///
/// A pattern is survivable when either at least `k` nodes are alive (full MDS
/// decode, sparsity ignored) or some `2γ`-subset of the live rows satisfies
/// Criterion 2 (sparse decode with `2γ` reads).
///
/// # Panics
///
/// Panics when `n > 24` (exhaustive enumeration guard).
pub fn prob_lose_sparse_exact<F: GaloisField>(code: &SecCode<F>, gamma: usize, p: f64) -> f64 {
    let n = code.n();
    assert!(n <= 24, "exhaustive resilience analysis is limited to n <= 24");
    let k = code.k();
    let reads = 2 * gamma;
    // Precompute which 2γ-subsets of rows qualify.
    let qualifying: Vec<Vec<usize>> = if reads < k && reads >= 1 {
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

    let mut lost = 0.0;
    for mask in 0u64..(1 << n) {
        let alive_count = (n as u32 - mask.count_ones()) as usize;
        let survivable = if alive_count >= k {
            true
        } else if alive_count >= reads && reads >= 1 && reads < k {
            qualifying
                .iter()
                .any(|rows| rows.iter().all(|&r| mask & (1 << r) == 0))
        } else {
            false
        };
        if !survivable {
            lost += p.powi(mask.count_ones() as i32) * (1.0 - p).powi(alive_count as i32);
        }
    }
    lost
}

/// Exact probability that a fully encoded object is lost under the given
/// concrete MDS code (cross-check of eq. (6) by enumeration).
///
/// # Panics
///
/// Panics when `n > 24`.
pub fn prob_lose_full_exact<F: GaloisField>(code: &SecCode<F>, p: f64) -> f64 {
    let n = code.n();
    assert!(n <= 24, "exhaustive resilience analysis is limited to n <= 24");
    let k = code.k();
    let mut lost = 0.0;
    for mask in 0u64..(1 << n) {
        let alive_count = (n as u32 - mask.count_ones()) as usize;
        if alive_count < k {
            lost += p.powi(mask.count_ones() as i32) * (1.0 - p).powi(alive_count as i32);
        }
    }
    lost
}

/// The closed form of eq. (20): loss probability of the 1-sparse delta under
/// the paper's (6,3) **systematic** example,
/// `p^6 + C(6,5) p^5 (1-p) + 12 p^4 (1-p)^2`.
pub fn paper_eq20_systematic_loss(p: f64) -> f64 {
    p.powi(6) + 6.0 * p.powi(5) * (1.0 - p) + 12.0 * p.powi(4) * (1.0 - p).powi(2)
}

/// The closed form of eq. (18): loss probability of the 1-sparse delta under
/// the paper's (6,3) **non-systematic** example, `p^6 + C(6,5) p^5 (1-p)`.
pub fn paper_eq18_non_systematic_loss(p: f64) -> f64 {
    p.powi(6) + 6.0 * p.powi(5) * (1.0 - p)
}

/// The closed form of eqs. (17)/(19): loss probability of the fully encoded
/// first version of the (6,3) example,
/// `p^6 + C(6,5) p^5 (1-p) + C(6,4) p^4 (1-p)^2`.
pub fn paper_eq17_full_loss(p: f64) -> f64 {
    p.powi(6) + 6.0 * p.powi(5) * (1.0 - p) + 15.0 * p.powi(4) * (1.0 - p).powi(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sec_erasure::GeneratorForm;
    use sec_gf::Gf256;

    const PS: [f64; 6] = [0.0, 0.02, 0.05, 0.1, 0.15, 0.2];

    fn code(form: GeneratorForm) -> SecCode<Gf256> {
        SecCode::cauchy(6, 3, form).unwrap()
    }

    #[test]
    fn closed_form_full_loss_matches_enumeration() {
        let c = code(GeneratorForm::NonSystematic);
        for &p in &PS {
            let closed = prob_lose_full(6, 3, p);
            let exact = prob_lose_full_exact(&c, p);
            assert!((closed - exact).abs() < 1e-12, "p={p}");
            assert!((closed - paper_eq17_full_loss(p)).abs() < 1e-12, "p={p}");
        }
    }

    #[test]
    fn non_systematic_sparse_loss_matches_eq18() {
        let c = code(GeneratorForm::NonSystematic);
        for &p in &PS {
            let closed = prob_lose_sparse_non_systematic(6, 3, 1, p);
            let exact = prob_lose_sparse_exact(&c, 1, p);
            assert!((closed - exact).abs() < 1e-12, "p={p}");
            assert!(
                (closed - paper_eq18_non_systematic_loss(p)).abs() < 1e-12,
                "p={p}"
            );
        }
    }

    #[test]
    fn systematic_sparse_loss_matches_eq20() {
        let c = code(GeneratorForm::Systematic);
        for &p in &PS {
            let exact = prob_lose_sparse_exact(&c, 1, p);
            assert!(
                (exact - paper_eq20_systematic_loss(p)).abs() < 1e-12,
                "p={p}: exact={exact} paper={}",
                paper_eq20_systematic_loss(p)
            );
        }
    }

    #[test]
    fn paper_inequalities_hold() {
        // Eq. (10): ProbS(E_l) ≥ ProbN(E_l), and both are below the full-object
        // loss probability (sparse deltas are more resilient).
        let sys = code(GeneratorForm::Systematic);
        let ns = code(GeneratorForm::NonSystematic);
        for &p in &PS[1..] {
            let full = prob_lose_full(6, 3, p);
            let s = prob_lose_sparse_exact(&sys, 1, p);
            let n = prob_lose_sparse_exact(&ns, 1, p);
            assert!(s >= n - 1e-15, "p={p}");
            assert!(n < full, "p={p}");
            assert!(s < full, "p={p}");
        }
    }

    #[test]
    fn sparse_loss_reduces_to_full_loss_when_not_exploitable() {
        // γ with 2γ ≥ k: υ = k and the formulas coincide with eq. (6).
        for &p in &PS {
            assert!(
                (prob_lose_sparse_non_systematic(6, 3, 2, p) - prob_lose_full(6, 3, p)).abs() < 1e-12
            );
        }
        let sys = code(GeneratorForm::Systematic);
        for &p in &PS {
            assert!((prob_lose_sparse_exact(&sys, 2, p) - prob_lose_full(6, 3, p)).abs() < 1e-12);
        }
    }

    #[test]
    fn probabilities_are_monotone_in_p_and_bounded() {
        let mut prev = 0.0;
        for &p in &PS {
            let v = prob_lose_full(20, 10, p);
            assert!((0.0..=1.0).contains(&v));
            assert!(v >= prev);
            prev = v;
        }
        assert_eq!(prob_lose_full(6, 3, 0.0), 0.0);
        assert!((prob_lose_full(6, 3, 1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lower_bound_is_a_lower_bound() {
        let sys = code(GeneratorForm::Systematic);
        for &p in &PS[1..] {
            let bound = prob_lose_sparse_systematic_lower_bound(6, 3, 1, p);
            let exact = prob_lose_sparse_exact(&sys, 1, p);
            assert!(exact >= bound - 1e-15, "p={p}");
        }
    }

    #[test]
    fn larger_code_10_5_exact_vs_closed_form() {
        let ns: SecCode<Gf256> = SecCode::cauchy(10, 5, GeneratorForm::NonSystematic).unwrap();
        for gamma in 1..=2usize {
            for &p in &[0.05, 0.15] {
                let exact = prob_lose_sparse_exact(&ns, gamma, p);
                let closed = prob_lose_sparse_non_systematic(10, 5, gamma, p);
                assert!((exact - closed).abs() < 1e-12, "gamma={gamma} p={p}");
            }
        }
    }
}
