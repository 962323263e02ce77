//! Gaussian elimination and the operations built on it: reduced row-echelon
//! form, rank, determinant, inversion and linear solves.

use sec_gf::GaloisField;

use crate::{Matrix, MatrixError};

/// Result of running Gauss-Jordan elimination on a matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Echelon<F> {
    /// The reduced row-echelon form.
    pub rref: Matrix<F>,
    /// Column index of the pivot in each pivot row, in order.
    pub pivot_cols: Vec<usize>,
    /// Rank of the original matrix (number of pivots).
    pub rank: usize,
}

/// Computes the reduced row-echelon form of `m` together with its rank and
/// pivot columns.
pub fn rref<F: GaloisField>(m: &Matrix<F>) -> Echelon<F> {
    let mut a = m.clone();
    let (rows, cols) = a.shape();
    let mut pivot_cols = Vec::new();
    let mut pivot_row = 0usize;

    for col in 0..cols {
        if pivot_row >= rows {
            break;
        }
        // Find a non-zero pivot in this column at or below pivot_row.
        let Some(src) = (pivot_row..rows).find(|&r| !a.get(r, col).is_zero()) else {
            continue;
        };
        a.swap_rows(pivot_row, src);
        let inv = a.get(pivot_row, col).inv().expect("pivot chosen to be non-zero");
        a.scale_row(pivot_row, inv);
        for r in 0..rows {
            if r != pivot_row {
                let factor = a.get(r, col);
                // Subtraction equals addition in characteristic 2.
                a.add_scaled_row(r, pivot_row, factor);
            }
        }
        pivot_cols.push(col);
        pivot_row += 1;
    }

    Echelon {
        rank: pivot_cols.len(),
        rref: a,
        pivot_cols,
    }
}

/// Rank of the matrix.
pub fn rank<F: GaloisField>(m: &Matrix<F>) -> usize {
    rref(m).rank
}

/// `true` when a square matrix has full rank (equivalently, is invertible).
/// Rectangular matrices return `false`.
pub fn is_invertible<F: GaloisField>(m: &Matrix<F>) -> bool {
    m.is_square() && rank(m) == m.rows()
}

/// `true` when the matrix has full rank `min(rows, cols)`.
pub fn is_full_rank<F: GaloisField>(m: &Matrix<F>) -> bool {
    rank(m) == m.rows().min(m.cols())
}

/// Determinant of a square matrix.
///
/// # Errors
///
/// Returns [`MatrixError::NotSquare`] for rectangular input.
pub fn determinant<F: GaloisField>(m: &Matrix<F>) -> Result<F, MatrixError> {
    if !m.is_square() {
        return Err(MatrixError::NotSquare {
            rows: m.rows(),
            cols: m.cols(),
        });
    }
    // Plain Gaussian elimination to upper-triangular form. Row swaps flip the
    // determinant's sign, but -1 = 1 in characteristic 2 so we can ignore them.
    let mut a = m.clone();
    let n = a.rows();
    let mut det = F::ONE;
    for col in 0..n {
        let Some(src) = (col..n).find(|&r| !a.get(r, col).is_zero()) else {
            return Ok(F::ZERO);
        };
        a.swap_rows(col, src);
        let pivot = a.get(col, col);
        det *= pivot;
        let inv = pivot.inv().expect("pivot is non-zero");
        for r in col + 1..n {
            let factor = a.get(r, col) * inv;
            a.add_scaled_row(r, col, factor);
        }
    }
    Ok(det)
}

/// Inverse of a square matrix.
///
/// # Errors
///
/// Returns [`MatrixError::NotSquare`] for rectangular input and
/// [`MatrixError::Singular`] when no inverse exists.
pub fn invert<F: GaloisField>(m: &Matrix<F>) -> Result<Matrix<F>, MatrixError> {
    if !m.is_square() {
        return Err(MatrixError::NotSquare {
            rows: m.rows(),
            cols: m.cols(),
        });
    }
    let n = m.rows();
    let augmented = m.augment(&Matrix::identity(n))?;
    let ech = rref(&augmented);
    if ech.rank < n || ech.pivot_cols.iter().take(n).enumerate().any(|(i, &c)| c != i) {
        return Err(MatrixError::Singular);
    }
    let right_cols: Vec<usize> = (n..2 * n).collect();
    ech.rref.select_cols(&right_cols)
}

/// Solves the linear system `a * x = b` for `x` when `a` is square and
/// invertible.
///
/// # Errors
///
/// Returns [`MatrixError::NotSquare`], [`MatrixError::Singular`] or
/// [`MatrixError::ShapeMismatch`] as appropriate.
pub fn solve<F: GaloisField>(a: &Matrix<F>, b: &[F]) -> Result<Vec<F>, MatrixError> {
    if b.len() != a.rows() {
        return Err(MatrixError::ShapeMismatch {
            left: a.shape(),
            right: (b.len(), 1),
        });
    }
    let inv = invert(a)?;
    inv.mul_vec(b)
}

/// Solves a (possibly overdetermined) consistent system `a * x = b` by
/// Gauss-Jordan elimination on the augmented matrix, returning `None` when the
/// system is inconsistent or underdetermined.
///
/// The SEC sparse decoder uses this for recovering the non-zero delta entries
/// from an overdetermined set of `2γ` equations restricted to a candidate
/// support of size at most `γ`.
pub fn solve_consistent<F: GaloisField>(a: &Matrix<F>, b: &[F]) -> Option<Vec<F>> {
    if b.len() != a.rows() {
        return None;
    }
    let bcol = Matrix::from_vec(b.len(), 1, b.to_vec()).ok()?;
    let aug = a.augment(&bcol).ok()?;
    let ech = rref(&aug);
    let n = a.cols();
    // Inconsistent if some pivot lies in the augmented column.
    if ech.pivot_cols.contains(&n) {
        return None;
    }
    // Underdetermined if fewer pivots than unknowns.
    if ech.rank < n {
        return None;
    }
    let mut x = vec![F::ZERO; n];
    for (row, &col) in ech.pivot_cols.iter().enumerate() {
        x[col] = ech.rref.get(row, n);
    }
    Some(x)
}

/// Null-space basis of `m` as the rows of the returned matrix (may be empty).
///
/// Used by tests to verify Criterion-2 style independence claims: a set of
/// columns is linearly independent exactly when the corresponding restricted
/// map has a trivial null space.
pub fn null_space<F: GaloisField>(m: &Matrix<F>) -> Matrix<F> {
    let ech = rref(m);
    let n = m.cols();
    let pivots = &ech.pivot_cols;
    let free_cols: Vec<usize> = (0..n).filter(|c| !pivots.contains(c)).collect();
    let mut basis_rows: Vec<Vec<F>> = Vec::with_capacity(free_cols.len());
    for &free in &free_cols {
        let mut v = vec![F::ZERO; n];
        v[free] = F::ONE;
        for (row, &pc) in pivots.iter().enumerate() {
            // x_pc = -sum(free coefficients) = sum in char 2.
            v[pc] = ech.rref.get(row, free);
        }
        basis_rows.push(v);
    }
    if basis_rows.is_empty() {
        Matrix::zeros(0, n)
    } else {
        Matrix::from_rows(&basis_rows).expect("rows built with equal length")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sec_gf::{GaloisField, Gf256};

    fn m(rows: usize, cols: usize, vals: &[u64]) -> Matrix<Gf256> {
        Matrix::from_vec(rows, cols, vals.iter().map(|&v| Gf256::from_u64(v)).collect()).unwrap()
    }

    #[test]
    fn rref_of_identity_is_identity() {
        let i = Matrix::<Gf256>::identity(4);
        let e = rref(&i);
        assert_eq!(e.rref, i);
        assert_eq!(e.rank, 4);
        assert_eq!(e.pivot_cols, vec![0, 1, 2, 3]);
    }

    #[test]
    fn rank_detects_dependent_rows() {
        // Third row is the sum of the first two (char 2).
        let a = m(3, 3, &[1, 2, 3, 4, 5, 6, 1 ^ 4, 2 ^ 5, 3 ^ 6]);
        assert_eq!(rank(&a), 2);
        assert!(!is_invertible(&a));
        assert!(!is_full_rank(&a));
        assert_eq!(determinant(&a).unwrap(), Gf256::ZERO);
    }

    #[test]
    fn invert_round_trips() {
        let a = m(3, 3, &[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        let inv = invert(&a).unwrap();
        assert_eq!(a.mul_mat(&inv).unwrap(), Matrix::identity(3));
        assert_eq!(inv.mul_mat(&a).unwrap(), Matrix::identity(3));
    }

    #[test]
    fn invert_rejects_singular_and_rectangular() {
        let singular = m(2, 2, &[1, 1, 1, 1]);
        assert_eq!(invert(&singular).unwrap_err(), MatrixError::Singular);
        let rect = m(2, 3, &[0; 6]);
        assert!(matches!(invert(&rect), Err(MatrixError::NotSquare { .. })));
        assert!(matches!(determinant(&rect), Err(MatrixError::NotSquare { .. })));
    }

    #[test]
    fn determinant_multiplicative() {
        let a = m(3, 3, &[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        let b = m(3, 3, &[2, 0, 1, 1, 1, 0, 5, 3, 8]);
        let ab = a.mul_mat(&b).unwrap();
        assert_eq!(
            determinant(&ab).unwrap(),
            determinant(&a).unwrap() * determinant(&b).unwrap()
        );
    }

    #[test]
    fn determinant_of_identity_and_diagonal() {
        assert_eq!(determinant(&Matrix::<Gf256>::identity(5)).unwrap(), Gf256::ONE);
        let d = Matrix::<Gf256>::from_fn(3, 3, |r, c| {
            if r == c {
                Gf256::from_u64((r + 2) as u64)
            } else {
                Gf256::ZERO
            }
        });
        assert_eq!(
            determinant(&d).unwrap(),
            Gf256::from_u64(2) * Gf256::from_u64(3) * Gf256::from_u64(4)
        );
    }

    #[test]
    fn solve_recovers_known_vector() {
        let a = m(3, 3, &[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        let x: Vec<Gf256> = [9u64, 0, 7].iter().map(|&v| Gf256::from_u64(v)).collect();
        let b = a.mul_vec(&x).unwrap();
        assert_eq!(solve(&a, &b).unwrap(), x);
        assert!(matches!(
            solve(&a, &[Gf256::ZERO; 2]),
            Err(MatrixError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn solve_consistent_overdetermined() {
        // 4 equations, 2 unknowns, consistent by construction.
        let a = m(4, 2, &[1, 2, 3, 4, 5, 6, 7, 9]);
        let x = vec![Gf256::from_u64(11), Gf256::from_u64(5)];
        let b = a.mul_vec(&x).unwrap();
        assert_eq!(solve_consistent(&a, &b), Some(x));
        // Perturbing one equation makes it inconsistent.
        let mut bad = b.clone();
        bad[0] += Gf256::ONE;
        assert_eq!(solve_consistent(&a, &bad), None);
        // Wrong-length RHS is rejected.
        assert_eq!(solve_consistent(&a, &b[..3]), None);
    }

    #[test]
    fn solve_consistent_rejects_underdetermined() {
        let a = m(1, 2, &[1, 1]);
        assert_eq!(solve_consistent(&a, &[Gf256::from_u64(3)]), None);
    }

    #[test]
    fn null_space_dimension_matches_rank_nullity() {
        let a = m(3, 3, &[1, 2, 3, 4, 5, 6, 1 ^ 4, 2 ^ 5, 3 ^ 6]);
        let ns = null_space(&a);
        assert_eq!(ns.rows(), 3 - rank(&a));
        // Every basis vector is in the kernel.
        for r in 0..ns.rows() {
            let v = ns.row(r).to_vec();
            assert!(a.mul_vec(&v).unwrap().iter().all(|c| c.is_zero()));
        }
        // Full-rank matrix has empty null space.
        assert_eq!(null_space(&Matrix::<Gf256>::identity(3)).rows(), 0);
    }

    #[test]
    fn invert_agrees_with_determinant_on_2x2() {
        // invert() agrees with determinant() != 0 on a sample of 2x2 matrices.
        // Every `d` is tried, so each sampled `a != 0, b, c` also meets its
        // one singular completion `d = b·c / a`.
        let mut singular = 0;
        for a in (0..256u64).step_by(17) {
            for b in (0..256u64).step_by(51) {
                for c in (0..256u64).step_by(61) {
                    for d in 0..256u64 {
                        let m = m(2, 2, &[a, b, c, d]);
                        let det = determinant(&m).unwrap();
                        assert_eq!(invert(&m).is_ok(), !det.is_zero());
                        singular += usize::from(det.is_zero());
                    }
                }
            }
        }
        assert!(singular > 16 * 6 * 5);
    }
}
