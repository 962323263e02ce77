//! Sparse recovery: reconstruct a `γ`-sparse vector `z ∈ F^k` from the
//! under-determined observation `y = Φ·z`, where `Φ` is a `2γ × k` submatrix
//! of the generator in which every `2γ` columns are linearly independent
//! (Proposition 1 of the SEC paper — the finite-field analogue of
//! compressed sensing).
//!
//! [`recover_sparse`] is a minimal-weight support search. It tries supports of
//! size 0, 1, …, γ and solves the corresponding over-determined system for
//! each candidate support. Uniqueness of the answer is guaranteed by the
//! column-independence hypothesis; complexity is `O(C(k, γ))` solves, which
//! is entirely practical at the paper's scales (`k ≤ 10`, `γ ≤ 4`). It is the
//! per-column reference the byte path
//! ([`ByteCodec::recover_sparse_blocks`](crate::ByteCodec::recover_sparse_blocks))
//! is tested against.

use sec_gf::GaloisField;
use sec_linalg::combinatorics::Combinations;
use sec_linalg::{ops, Matrix};

/// Recovers the minimal-weight vector `z` with `weight(z) ≤ gamma` satisfying
/// `phi · z = y`, or `None` when no such vector exists.
///
/// When every `2γ` columns of `phi` are linearly independent and the true
/// vector has weight at most `γ`, the result is unique and equals the true
/// vector. When those hypotheses do not hold the function still returns *a*
/// minimal-weight consistent vector if one exists — callers that cannot
/// guarantee the hypotheses must validate the result against other shares.
pub fn recover_sparse<F: GaloisField>(phi: &Matrix<F>, y: &[F], gamma: usize) -> Option<Vec<F>> {
    if y.len() != phi.rows() {
        return None;
    }
    let k = phi.cols();
    let mut vector = vec![F::ZERO; k];
    // Weight-0 fast path.
    if y.iter().all(|v| v.is_zero()) {
        return Some(vector);
    }
    for weight in 1..=gamma.min(k) {
        for support in Combinations::new(k, weight) {
            let restricted = phi
                .select_cols(&support)
                .expect("support indices generated in range");
            if let Some(coeffs) = ops::solve_consistent(&restricted, y) {
                for (&col, &c) in support.iter().zip(&coeffs) {
                    vector[col] = c;
                }
                return Some(vector);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use sec_gf::{GaloisField, Gf256};
    use sec_linalg::cauchy::cauchy_matrix;

    fn sparse_vec<F: GaloisField>(k: usize, entries: &[(usize, u64)]) -> Vec<F> {
        let mut v = vec![F::ZERO; k];
        for &(i, val) in entries {
            v[i] = F::from_u64(val);
        }
        v
    }

    #[test]
    fn recovers_one_sparse_from_two_rows() {
        let g = cauchy_matrix::<Gf256>(6, 3).unwrap();
        let z = sparse_vec::<Gf256>(3, &[(1, 0xA5)]);
        let phi = g.select_rows(&[2, 5]).unwrap();
        let y = phi.mul_vec(&z).unwrap();
        assert_eq!(recover_sparse(&phi, &y, 1).unwrap(), z);
    }

    #[test]
    fn recovers_two_sparse_from_four_rows() {
        let g = cauchy_matrix::<Gf256>(10, 5).unwrap();
        let z = sparse_vec::<Gf256>(5, &[(0, 7), (4, 201)]);
        let phi = g.select_rows(&[1, 3, 6, 9]).unwrap();
        let y = phi.mul_vec(&z).unwrap();
        assert_eq!(recover_sparse(&phi, &y, 2).unwrap(), z);
    }

    #[test]
    fn recovers_up_to_gamma_even_if_actual_weight_smaller() {
        let g = cauchy_matrix::<Gf256>(10, 5).unwrap();
        let z = sparse_vec::<Gf256>(5, &[(2, 9)]);
        let phi = g.select_rows(&[0, 2, 5, 7]).unwrap();
        let y = phi.mul_vec(&z).unwrap();
        // Asking for up to 2-sparse still finds the 1-sparse answer first.
        assert_eq!(recover_sparse(&phi, &y, 2).unwrap(), z);
    }

    #[test]
    fn zero_vector_recovered_without_search() {
        let g = cauchy_matrix::<Gf256>(6, 3).unwrap();
        let phi = g.select_rows(&[0, 4]).unwrap();
        let y = vec![Gf256::ZERO; 2];
        let rec = recover_sparse(&phi, &y, 1).unwrap();
        assert!(rec.iter().all(|c| c.is_zero()));
    }

    #[test]
    fn fails_when_vector_is_denser_than_gamma() {
        let g = cauchy_matrix::<Gf256>(20, 10).unwrap();
        // 5-sparse vector but only gamma = 3 allowed with 6 observation rows:
        // the recovery must not silently return a wrong vector that matches
        // the true one; it either fails or returns some ≤3-sparse consistent
        // vector that is necessarily different from the true 5-sparse one.
        let z = sparse_vec::<Gf256>(10, &[(0, 3), (2, 5), (4, 7), (6, 11), (8, 13)]);
        let phi = g.select_rows(&[0, 1, 2, 3, 4, 5]).unwrap();
        let y = phi.mul_vec(&z).unwrap();
        match recover_sparse(&phi, &y, 3) {
            None => {}
            Some(v) => assert_ne!(v, z),
        }
    }

    #[test]
    fn unique_recovery_across_all_row_choices() {
        // Criterion 2 for the Cauchy generator means *any* 2γ rows recover a
        // γ-sparse vector. Exhaustively verify for (10,5), γ = 2.
        let g = cauchy_matrix::<Gf256>(10, 5).unwrap();
        let z = sparse_vec::<Gf256>(5, &[(1, 33), (3, 77)]);
        for rows in sec_linalg::combinatorics::combinations(10, 4) {
            let phi = g.select_rows(&rows).unwrap();
            let y = phi.mul_vec(&z).unwrap();
            assert_eq!(recover_sparse(&phi, &y, 2).unwrap(), z, "rows {rows:?}");
        }
    }

    #[test]
    fn mismatched_observation_length_returns_none() {
        let g = cauchy_matrix::<Gf256>(6, 3).unwrap();
        let phi = g.select_rows(&[0, 1]).unwrap();
        assert!(recover_sparse(&phi, &[Gf256::ONE], 1).is_none());
    }

    #[test]
    fn identity_rows_do_not_satisfy_criterion_two() {
        // Two identity rows that miss the support see a zero observation and
        // return the zero vector — demonstrating why systematic codes must
        // draw their Criterion-2 submatrices from the parity block.
        let mut rows = vec![vec![Gf256::ZERO; 3]; 2];
        rows[0][1] = Gf256::ONE;
        rows[1][2] = Gf256::ONE;
        let phi = Matrix::from_rows(&rows).unwrap();
        let z = sparse_vec::<Gf256>(3, &[(0, 42)]);
        let y = phi.mul_vec(&z).unwrap();
        let rec = recover_sparse(&phi, &y, 1).unwrap();
        assert_ne!(rec, z);
        assert!(rec.iter().all(|c| c.is_zero()));
    }
}
