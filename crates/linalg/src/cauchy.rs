//! Cauchy matrices: the paper's recommended construction for SEC generator
//! matrices (Examples 1 and 2).
//!
//! A Cauchy matrix over `F_q` is `C[i][j] = 1 / (h_i - f_j)` for two disjoint
//! sequences of distinct field elements `h_1..h_n` and `f_1..f_k`. Every
//! square submatrix of a Cauchy matrix is invertible (Lacan & Fimes), which
//! simultaneously gives:
//!
//! * the MDS property (any `k` rows of the `n × k` generator are invertible),
//!   i.e. **Criterion 1**, and
//! * the sparse-recovery property: every `2γ × k` submatrix has all of its
//!   `2γ`-column subsets linearly independent, i.e. **Criterion 2**.

use core::fmt;

use sec_gf::GaloisField;

use crate::Matrix;

/// Errors from Cauchy-matrix construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CauchyError {
    /// The field has fewer than `n + k` elements, so disjoint point sets of
    /// the required sizes do not exist.
    FieldTooSmall {
        /// Requested number of rows (`n`).
        rows: usize,
        /// Requested number of columns (`k`).
        cols: usize,
        /// Number of elements in the field.
        field_order: u64,
    },
    /// The row points and column points are not pairwise distinct/disjoint.
    InvalidPoints,
}

impl fmt::Display for CauchyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CauchyError::FieldTooSmall {
                rows,
                cols,
                field_order,
            } => write!(
                f,
                "a {rows}x{cols} Cauchy matrix needs {} distinct field elements but the field has only {field_order}",
                rows + cols
            ),
            CauchyError::InvalidPoints => {
                write!(f, "cauchy points must be distinct within and disjoint across the two sets")
            }
        }
    }
}

impl std::error::Error for CauchyError {}

/// Builds the Cauchy matrix `C[i][j] = 1 / (h[i] - f[j])` from explicit point
/// sets.
///
/// # Errors
///
/// Returns [`CauchyError::InvalidPoints`] if the points within either set are
/// not distinct or the two sets are not disjoint.
pub fn cauchy_from_points<F: GaloisField>(h: &[F], f: &[F]) -> Result<Matrix<F>, CauchyError> {
    for (i, &a) in h.iter().enumerate() {
        if h[i + 1..].contains(&a) {
            return Err(CauchyError::InvalidPoints);
        }
    }
    for (j, &b) in f.iter().enumerate() {
        if f[j + 1..].contains(&b) {
            return Err(CauchyError::InvalidPoints);
        }
        if h.contains(&b) {
            return Err(CauchyError::InvalidPoints);
        }
    }
    let m = Matrix::from_fn(h.len(), f.len(), |i, j| {
        (h[i] - f[j])
            .inv()
            .expect("disjoint point sets guarantee h_i - f_j != 0")
    });
    Ok(m)
}

/// Builds an `n × k` Cauchy matrix using the canonical point choice
/// `h_i = i` (for `i = 0..n`) and `f_j = n + j` (for `j = 0..k`).
///
/// # Errors
///
/// Returns [`CauchyError::FieldTooSmall`] when `n + k > q`.
pub fn cauchy_matrix<F: GaloisField>(n: usize, k: usize) -> Result<Matrix<F>, CauchyError> {
    if (n + k) as u64 > F::ORDER {
        return Err(CauchyError::FieldTooSmall {
            rows: n,
            cols: k,
            field_order: F::ORDER,
        });
    }
    let h: Vec<F> = (0..n as u64).map(F::from_u64).collect();
    let f: Vec<F> = (n as u64..(n + k) as u64).map(F::from_u64).collect();
    cauchy_from_points(&h, &f)
}

/// Builds the `(n - k) × k` Cauchy parity block `B` used by the systematic
/// generator `G_S = [I_k ; B]` (paper, Example 2).
///
/// # Errors
///
/// Returns [`CauchyError::FieldTooSmall`] when `n > q`.
pub fn cauchy_parity_block<F: GaloisField>(n: usize, k: usize) -> Result<Matrix<F>, CauchyError> {
    let parity_rows = n.saturating_sub(k);
    if (parity_rows + k) as u64 > F::ORDER {
        return Err(CauchyError::FieldTooSmall {
            rows: parity_rows,
            cols: k,
            field_order: F::ORDER,
        });
    }
    cauchy_matrix::<F>(parity_rows, k)
}

/// Closed-form determinant of a square Cauchy matrix built from points
/// `h` and `f` (used to cross-check Gaussian elimination in tests):
///
/// `det = Π_{i<j}(h_j - h_i)(f_i - f_j) / Π_{i,j}(h_i - f_j)`.
pub fn cauchy_determinant<F: GaloisField>(h: &[F], f: &[F]) -> F {
    assert_eq!(h.len(), f.len(), "cauchy determinant requires a square matrix");
    let n = h.len();
    let mut num = F::ONE;
    for i in 0..n {
        for j in i + 1..n {
            num *= (h[j] - h[i]) * (f[i] - f[j]);
        }
    }
    let mut den = F::ONE;
    for &hi in h {
        for &fj in f {
            den *= hi - fj;
        }
    }
    num * den.inv().expect("disjoint points give non-zero denominator")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use sec_gf::Gf256;

    #[test]
    fn canonical_points_produce_expected_shape() {
        let m: Matrix<Gf256> = cauchy_matrix(6, 3).unwrap();
        assert_eq!(m.shape(), (6, 3));
        // Entry formula check.
        let h = Gf256::from_u64(2);
        let f = Gf256::from_u64(6 + 1);
        assert_eq!(m.get(2, 1), (h - f).inv().unwrap());
    }

    #[test]
    fn every_square_submatrix_is_invertible_small() {
        // Exhaustively verify the defining Cauchy property on a (6,3) matrix:
        // every square submatrix is invertible.
        let m: Matrix<Gf256> = cauchy_matrix(6, 3).unwrap();
        let n = m.rows();
        let k = m.cols();
        for size in 1..=k {
            for rows in crate::combinatorics::combinations(n, size) {
                for cols in crate::combinatorics::combinations(k, size) {
                    let sub = m.submatrix(&rows, &cols).unwrap();
                    assert!(
                        ops::is_invertible(&sub),
                        "singular {size}x{size} submatrix at rows {rows:?} cols {cols:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn field_too_small_is_reported() {
        // GF(2^8) hosts n + k ≤ 256 points: an n × k matrix up to that
        // ceiling, and a parity block for any n ≤ 256.
        assert_eq!(cauchy_matrix::<Gf256>(192, 64).unwrap().shape(), (192, 64));
        let err = cauchy_matrix::<Gf256>(192, 65).unwrap_err();
        assert!(matches!(err, CauchyError::FieldTooSmall { field_order: 256, .. }));
        assert!(err.to_string().contains("257"));
        assert_eq!(
            cauchy_parity_block::<Gf256>(256, 128).unwrap().shape(),
            (128, 128)
        );
        assert!(matches!(
            cauchy_parity_block::<Gf256>(257, 128),
            Err(CauchyError::FieldTooSmall {
                rows: 129,
                cols: 128,
                field_order: 256
            })
        ));
    }

    #[test]
    fn invalid_points_are_rejected() {
        let a = Gf256::from_u64(1);
        let b = Gf256::from_u64(2);
        // Duplicate within h.
        assert_eq!(
            cauchy_from_points(&[a, a], &[b]).unwrap_err(),
            CauchyError::InvalidPoints
        );
        // Duplicate within f.
        assert_eq!(
            cauchy_from_points(&[a], &[b, b]).unwrap_err(),
            CauchyError::InvalidPoints
        );
        // Overlap across sets.
        assert_eq!(
            cauchy_from_points(&[a, b], &[b]).unwrap_err(),
            CauchyError::InvalidPoints
        );
    }

    #[test]
    fn parity_block_shape() {
        let b: Matrix<Gf256> = cauchy_parity_block(6, 3).unwrap();
        assert_eq!(b.shape(), (3, 3));
        assert!(ops::is_invertible(&b));
        let wide: Matrix<Gf256> = cauchy_parity_block(20, 10).unwrap();
        assert_eq!(wide.shape(), (10, 10));
    }

    #[test]
    fn closed_form_determinant_matches_elimination() {
        let h: Vec<Gf256> = [3u64, 7, 11, 19].iter().map(|&v| Gf256::from_u64(v)).collect();
        let f: Vec<Gf256> = [100u64, 101, 150, 200]
            .iter()
            .map(|&v| Gf256::from_u64(v))
            .collect();
        let m = cauchy_from_points(&h, &f).unwrap();
        assert_eq!(ops::determinant(&m).unwrap(), cauchy_determinant(&h, &f));
    }

    #[test]
    fn rectangular_cauchy_has_full_rank() {
        let m: Matrix<Gf256> = cauchy_matrix(20, 10).unwrap();
        assert_eq!(ops::rank(&m), 10);
        let t = m.transpose();
        assert_eq!(ops::rank(&t), 10);
    }
}
