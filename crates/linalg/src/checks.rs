//! Verifiers for the SEC design criteria and related structural properties of
//! generator matrices.
//!
//! These checks are exhaustive (they enumerate subsets), so they are intended
//! for code-design time and for tests — not for per-request hot paths. The
//! paper's parameters (`n ≤ 20`, `k ≤ 10`, `γ < k/2`) are comfortably within
//! range.

use sec_gf::GaloisField;

use crate::combinatorics::Combinations;
use crate::{ops, Matrix};

/// `true` if every set of `size` columns of `m` is linearly independent.
///
/// For a `2γ × k` matrix with `size = 2γ` this is exactly the hypothesis of
/// Proposition 1 of the paper (unique recovery of γ-sparse vectors).
pub fn columns_independent<F: GaloisField>(m: &Matrix<F>, size: usize) -> bool {
    if size > m.rows() || size > m.cols() {
        return false;
    }
    Combinations::new(m.cols(), size).all(|cols| {
        let sub = m.select_cols(&cols).expect("indices generated in range");
        ops::rank(&sub) == size
    })
}

/// `true` if *all* `min(rows, cols)`-column subsets of `m` are linearly
/// independent; for a `2γ × k` matrix (with `2γ ≤ k`) this is the Criterion-2
/// property of that submatrix.
pub fn all_columns_independent<F: GaloisField>(m: &Matrix<F>) -> bool {
    columns_independent(m, m.rows().min(m.cols()))
}

/// **Criterion 1**: does `g` (an `n × k` generator, `n ≥ k`) contain at least
/// one invertible `k × k` row-submatrix?
pub fn has_invertible_k_submatrix<F: GaloisField>(g: &Matrix<F>) -> bool {
    let k = g.cols();
    if g.rows() < k {
        return false;
    }
    // Rank k is equivalent to the existence of k linearly independent rows.
    ops::rank(g) == k
}

/// **Criterion 2** for one sparsity level: does `g` contain at least one
/// `2γ × k` row-submatrix in which every `2γ` columns are linearly
/// independent?
///
/// Returns the first satisfying row set found (in lexicographic order), or
/// `None` if none exists.
pub fn find_criterion2_rows<F: GaloisField>(g: &Matrix<F>, gamma: usize) -> Option<Vec<usize>> {
    let needed = 2 * gamma;
    if needed == 0 || needed > g.rows() || needed > g.cols() {
        return None;
    }
    Combinations::new(g.rows(), needed).find(|rows| {
        let sub = g.select_rows(rows).expect("indices generated in range");
        all_columns_independent(&sub)
    })
}

/// **Criterion 2** for one sparsity level, as a boolean.
pub fn satisfies_criterion2<F: GaloisField>(g: &Matrix<F>, gamma: usize) -> bool {
    find_criterion2_rows(g, gamma).is_some()
}

/// Counts how many `2γ`-row subsets of `g` satisfy the Criterion-2 column
/// independence property.
///
/// The paper's §V-A example: for the (6,3) code with γ = 1, **all 15** of the
/// 2-row subsets of the non-systematic Cauchy generator qualify, but only
/// **3** subsets of the systematic generator do.
pub fn count_criterion2_subsets<F: GaloisField>(g: &Matrix<F>, gamma: usize) -> usize {
    let needed = 2 * gamma;
    if needed == 0 || needed > g.rows() || needed > g.cols() {
        return 0;
    }
    Combinations::new(g.rows(), needed)
        .filter(|rows| {
            let sub = g.select_rows(rows).expect("indices generated in range");
            all_columns_independent(&sub)
        })
        .count()
}

/// All `k`-row subsets of `g` that form an invertible `k × k` matrix.
///
/// Used by the storage simulator to enumerate which surviving-node sets can
/// decode a fully-encoded object.
pub fn invertible_k_subsets<F: GaloisField>(g: &Matrix<F>) -> Vec<Vec<usize>> {
    let k = g.cols();
    if g.rows() < k {
        return Vec::new();
    }
    Combinations::new(g.rows(), k)
        .filter(|rows| {
            let sub = g.select_rows(rows).expect("indices generated in range");
            ops::is_invertible(&sub)
        })
        .collect()
}

/// `true` if the `n × k` generator is MDS: every `k`-row submatrix is
/// invertible, i.e. the code tolerates any `n - k` erasures.
pub fn is_mds<F: GaloisField>(g: &Matrix<F>) -> bool {
    let k = g.cols();
    if g.rows() < k {
        return false;
    }
    Combinations::new(g.rows(), k).all(|rows| {
        let sub = g.select_rows(&rows).expect("indices generated in range");
        ops::is_invertible(&sub)
    })
}

/// `true` if every square submatrix of `m` (of every size) is invertible —
/// the "superregular" property that Cauchy matrices enjoy.
///
/// Exponential in the matrix size; use only on small matrices in tests.
pub fn is_superregular<F: GaloisField>(m: &Matrix<F>) -> bool {
    let max = m.rows().min(m.cols());
    for size in 1..=max {
        for rows in Combinations::new(m.rows(), size) {
            for cols in Combinations::new(m.cols(), size) {
                let sub = m.submatrix(&rows, &cols).expect("indices generated in range");
                if !ops::is_invertible(&sub) {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cauchy::{cauchy_matrix, cauchy_parity_block};
    use crate::combinatorics::binomial_exact;
    use sec_gf::{GaloisField, Gf256};

    fn systematic_gen<F: GaloisField>(n: usize, k: usize) -> Matrix<F> {
        let b = cauchy_parity_block::<F>(n, k).unwrap();
        Matrix::identity(k).stack(&b).unwrap()
    }

    #[test]
    fn cauchy_generator_is_mds_and_superregular() {
        let g: Matrix<Gf256> = cauchy_matrix(6, 3).unwrap();
        assert!(is_mds(&g));
        assert!(is_superregular(&g));
        assert!(has_invertible_k_submatrix(&g));
    }

    #[test]
    fn systematic_cauchy_generator_is_mds_but_not_superregular() {
        let g: Matrix<Gf256> = systematic_gen(6, 3);
        assert!(is_mds(&g));
        // The identity block contains zero entries, hence singular 1x1 submatrices.
        assert!(!is_superregular(&g));
        assert!(has_invertible_k_submatrix(&g));
    }

    #[test]
    fn criterion2_subset_counts_match_paper_section_v() {
        // Paper §V-A, (6,3) code, γ = 1: non-systematic Cauchy generator has
        // all C(6,2) = 15 two-row subsets satisfying Criterion 2; the
        // systematic generator has only 3 (the ones drawn from the parity
        // block B).
        let gn: Matrix<Gf256> = cauchy_matrix(6, 3).unwrap();
        assert_eq!(count_criterion2_subsets(&gn, 1), 15);
        assert_eq!(binomial_exact(6, 2), 15);

        let gs: Matrix<Gf256> = systematic_gen(6, 3);
        assert_eq!(count_criterion2_subsets(&gs, 1), 3);
    }

    #[test]
    fn find_criterion2_rows_returns_valid_subset() {
        let g: Matrix<Gf256> = cauchy_matrix(10, 5).unwrap();
        for gamma in 1..=2usize {
            let rows = find_criterion2_rows(&g, gamma).expect("cauchy generator satisfies criterion 2");
            assert_eq!(rows.len(), 2 * gamma);
            let sub = g.select_rows(&rows).unwrap();
            assert!(all_columns_independent(&sub));
        }
        // γ = 0 and oversized γ are rejected.
        assert!(find_criterion2_rows(&g, 0).is_none());
        assert!(find_criterion2_rows(&g, 6).is_none());
    }

    #[test]
    fn systematic_identity_rows_fail_column_independence() {
        // Any two rows from the identity block have a zero 2x2 submatrix.
        let gs: Matrix<Gf256> = systematic_gen(6, 3);
        let ident_rows = gs.select_rows(&[0, 1]).unwrap();
        assert!(!all_columns_independent(&ident_rows));
        // While two parity rows succeed.
        let parity_rows = gs.select_rows(&[3, 4]).unwrap();
        assert!(all_columns_independent(&parity_rows));
    }

    #[test]
    fn columns_independent_size_handling() {
        let g: Matrix<Gf256> = cauchy_matrix(4, 3).unwrap();
        assert!(columns_independent(&g, 3));
        assert!(!columns_independent(&g, 4)); // larger than cols
        let two_rows = g.select_rows(&[0, 1]).unwrap();
        assert!(!columns_independent(&two_rows, 3)); // larger than rows
        assert!(columns_independent(&two_rows, 2));
    }

    #[test]
    fn invertible_k_subsets_counts_for_mds() {
        let g: Matrix<Gf256> = cauchy_matrix(6, 3).unwrap();
        // MDS: all C(6,3) = 20 subsets decode.
        assert_eq!(invertible_k_subsets(&g).len(), 20);
        let gs: Matrix<Gf256> = systematic_gen(6, 3);
        assert_eq!(invertible_k_subsets(&gs).len(), 20);
    }

    #[test]
    fn short_wide_matrices_handled() {
        let g: Matrix<Gf256> = cauchy_matrix(2, 3).unwrap();
        assert!(!has_invertible_k_submatrix(&g));
        assert!(!is_mds(&g));
        assert!(invertible_k_subsets(&g).is_empty());
    }
}
