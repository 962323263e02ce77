//! Dense univariate polynomials over a Galois field.
//!
//! Polynomials are used by the erasure layer for Lagrange-interpolation-based
//! sanity checks of Vandermonde codes and by tests that cross-validate the
//! Cauchy-matrix decoders. Coefficients are stored in ascending degree order
//! (`coeffs[i]` multiplies `x^i`) and the representation is kept normalized:
//! the leading coefficient is never zero (the zero polynomial has an empty
//! coefficient vector).

use crate::GaloisField;

/// A dense polynomial with coefficients in the field `F`.
///
/// # Example
///
/// ```rust
/// use sec_gf::{Gf256, GaloisField, Poly};
///
/// // p(x) = 3 + x^2 over GF(2^8)
/// let p = Poly::new(vec![Gf256::from_u64(3), Gf256::ZERO, Gf256::ONE]);
/// assert_eq!(p.degree(), Some(2));
/// assert_eq!(p.eval(Gf256::from_u64(2)), Gf256::from_u64(3) + Gf256::from_u64(4));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Poly<F> {
    coeffs: Vec<F>,
}

impl<F: GaloisField> Poly<F> {
    /// Creates a polynomial from coefficients in ascending degree order.
    ///
    /// Trailing zero coefficients are stripped so that equality behaves
    /// structurally.
    pub fn new(coeffs: Vec<F>) -> Self {
        let mut p = Self { coeffs };
        p.normalize();
        p
    }

    /// The zero polynomial.
    pub fn zero() -> Self {
        Self { coeffs: Vec::new() }
    }

    /// The constant polynomial `1`.
    pub fn one() -> Self {
        Self { coeffs: vec![F::ONE] }
    }

    /// The constant polynomial `c`.
    pub fn constant(c: F) -> Self {
        Self::new(vec![c])
    }

    /// The monomial `c * x^degree`.
    pub fn monomial(c: F, degree: usize) -> Self {
        if c.is_zero() {
            return Self::zero();
        }
        let mut coeffs = vec![F::ZERO; degree + 1];
        coeffs[degree] = c;
        Self { coeffs }
    }

    /// Degree of the polynomial, or `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        if self.coeffs.is_empty() {
            None
        } else {
            Some(self.coeffs.len() - 1)
        }
    }

    /// Returns `true` for the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Coefficient of `x^i` (zero beyond the stored degree).
    pub fn coeff(&self, i: usize) -> F {
        self.coeffs.get(i).copied().unwrap_or(F::ZERO)
    }

    /// Coefficients in ascending degree order (no trailing zeros).
    pub fn coeffs(&self) -> &[F] {
        &self.coeffs
    }

    /// Horner evaluation at `x`.
    pub fn eval(&self, x: F) -> F {
        let mut acc = F::ZERO;
        for &c in self.coeffs.iter().rev() {
            acc = acc * x + c;
        }
        acc
    }

    /// Polynomial addition.
    pub fn add(&self, other: &Self) -> Self {
        let n = self.coeffs.len().max(other.coeffs.len());
        let mut coeffs = Vec::with_capacity(n);
        for i in 0..n {
            coeffs.push(self.coeff(i) + other.coeff(i));
        }
        Self::new(coeffs)
    }

    /// Polynomial subtraction (identical to addition in characteristic two,
    /// kept separate for readability at call sites).
    pub fn sub(&self, other: &Self) -> Self {
        self.add(other)
    }

    /// Schoolbook polynomial multiplication.
    pub fn mul(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let mut coeffs = vec![F::ZERO; self.coeffs.len() + other.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            if a.is_zero() {
                continue;
            }
            for (j, &b) in other.coeffs.iter().enumerate() {
                coeffs[i + j] += a * b;
            }
        }
        Self::new(coeffs)
    }

    /// Multiplies every coefficient by the scalar `c`.
    pub fn scale(&self, c: F) -> Self {
        if c.is_zero() {
            return Self::zero();
        }
        Self::new(self.coeffs.iter().map(|&a| a * c).collect())
    }

    /// Euclidean division: returns `(quotient, remainder)` with
    /// `self = quotient * divisor + remainder` and
    /// `deg(remainder) < deg(divisor)`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is the zero polynomial.
    pub fn div_rem(&self, divisor: &Self) -> (Self, Self) {
        assert!(!divisor.is_zero(), "polynomial division by zero");
        let dd = divisor.degree().expect("non-zero divisor");
        if self.degree().is_none_or(|d| d < dd) {
            return (Self::zero(), self.clone());
        }
        let lead_inv = divisor.coeffs[dd]
            .inv()
            .expect("leading coefficient of a normalized polynomial is non-zero");
        let mut rem = self.coeffs.clone();
        let qd = rem.len() - 1 - dd;
        let mut quot = vec![F::ZERO; qd + 1];
        for i in (0..=qd).rev() {
            let c = rem[i + dd] * lead_inv;
            quot[i] = c;
            if c.is_zero() {
                continue;
            }
            for (j, &dj) in divisor.coeffs.iter().enumerate() {
                rem[i + j] -= c * dj;
            }
        }
        (Self::new(quot), Self::new(rem))
    }

    /// Formal derivative (over characteristic 2, even-degree terms vanish).
    pub fn derivative(&self) -> Self {
        if self.coeffs.len() <= 1 {
            return Self::zero();
        }
        let mut coeffs = Vec::with_capacity(self.coeffs.len() - 1);
        for (i, &c) in self.coeffs.iter().enumerate().skip(1) {
            // i * c in a field of characteristic 2 is c when i is odd, 0 when even.
            coeffs.push(if i % 2 == 1 { c } else { F::ZERO });
        }
        Self::new(coeffs)
    }

    /// Unique polynomial of degree `< points.len()` passing through every
    /// `(x, y)` pair (Lagrange interpolation).
    ///
    /// # Panics
    ///
    /// Panics if two interpolation points share the same `x` coordinate.
    pub fn interpolate(points: &[(F, F)]) -> Self {
        let mut acc = Self::zero();
        for (i, &(xi, yi)) in points.iter().enumerate() {
            // basis_i(x) = prod_{j != i} (x - x_j) / (x_i - x_j)
            let mut basis = Self::one();
            let mut denom = F::ONE;
            for (j, &(xj, _)) in points.iter().enumerate() {
                if i == j {
                    continue;
                }
                assert!(xi != xj, "duplicate interpolation abscissa {xi:?}");
                basis = basis.mul(&Self::new(vec![xj, F::ONE]));
                denom *= xi - xj;
            }
            let coeff = yi * denom.inv().expect("distinct abscissae give non-zero denominator");
            acc = acc.add(&basis.scale(coeff));
        }
        acc
    }

    /// Product `(x - roots[0]) (x - roots[1]) ...` — the monic polynomial
    /// vanishing exactly on the given multiset of roots.
    pub fn from_roots(roots: &[F]) -> Self {
        let mut acc = Self::one();
        for &r in roots {
            acc = acc.mul(&Self::new(vec![r, F::ONE]));
        }
        acc
    }

    fn normalize(&mut self) {
        while self.coeffs.last().is_some_and(|c| c.is_zero()) {
            self.coeffs.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gf16, Gf256};

    fn p256(coeffs: &[u64]) -> Poly<Gf256> {
        Poly::new(coeffs.iter().map(|&c| Gf256::from_u64(c)).collect())
    }

    #[test]
    fn normalization_strips_trailing_zeros() {
        let p = p256(&[1, 2, 0, 0]);
        assert_eq!(p.degree(), Some(1));
        assert_eq!(p, p256(&[1, 2]));
        assert!(p256(&[0, 0]).is_zero());
        assert_eq!(p256(&[]).degree(), None);
    }

    #[test]
    fn evaluation_matches_manual_horner() {
        let p = p256(&[3, 0, 1]); // 3 + x^2
        let x = Gf256::from_u64(2);
        assert_eq!(p.eval(x), Gf256::from_u64(3) + x * x);
        assert_eq!(p.eval(Gf256::ZERO), Gf256::from_u64(3));
        assert_eq!(Poly::<Gf256>::zero().eval(x), Gf256::ZERO);
    }

    #[test]
    fn add_mul_are_consistent_with_eval() {
        let p = p256(&[1, 2, 3]);
        let q = p256(&[5, 0, 0, 7]);
        let s = p.add(&q);
        let m = p.mul(&q);
        for v in 0u64..16 {
            let x = Gf256::from_u64(v);
            assert_eq!(s.eval(x), p.eval(x) + q.eval(x));
            assert_eq!(m.eval(x), p.eval(x) * q.eval(x));
        }
    }

    #[test]
    fn mul_degree_adds() {
        let p = p256(&[1, 1]); // deg 1
        let q = p256(&[2, 0, 5]); // deg 2
        assert_eq!(p.mul(&q).degree(), Some(3));
        assert!(p.mul(&Poly::zero()).is_zero());
    }

    #[test]
    fn div_rem_round_trips() {
        let p = p256(&[7, 1, 0, 3, 9]);
        let d = p256(&[2, 5, 1]);
        let (q, r) = p.div_rem(&d);
        assert!(r.degree().is_none_or(|rd| rd < d.degree().unwrap()));
        assert_eq!(q.mul(&d).add(&r), p);
    }

    #[test]
    fn div_rem_by_larger_degree_is_remainder_only() {
        let p = p256(&[1, 2]);
        let d = p256(&[1, 0, 0, 1]);
        let (q, r) = p.div_rem(&d);
        assert!(q.is_zero());
        assert_eq!(r, p);
    }

    #[test]
    #[should_panic(expected = "polynomial division by zero")]
    fn div_by_zero_panics() {
        let _ = p256(&[1, 2]).div_rem(&Poly::zero());
    }

    #[test]
    fn interpolation_recovers_polynomial() {
        let p = p256(&[9, 4, 0, 11]);
        let points: Vec<(Gf256, Gf256)> = (1..=4)
            .map(|v| {
                let x = Gf256::from_u64(v);
                (x, p.eval(x))
            })
            .collect();
        assert_eq!(Poly::interpolate(&points), p);
    }

    #[test]
    fn interpolation_through_arbitrary_points() {
        let points = vec![
            (Gf16::from_u64(1), Gf16::from_u64(7)),
            (Gf16::from_u64(2), Gf16::from_u64(3)),
            (Gf16::from_u64(5), Gf16::from_u64(0)),
            (Gf16::from_u64(9), Gf16::from_u64(12)),
        ];
        let p = Poly::interpolate(&points);
        assert!(p.degree().unwrap_or(0) < points.len());
        for &(x, y) in &points {
            assert_eq!(p.eval(x), y);
        }
    }

    #[test]
    fn from_roots_vanishes_on_roots() {
        let roots = vec![Gf256::from_u64(3), Gf256::from_u64(17), Gf256::from_u64(200)];
        let p = Poly::from_roots(&roots);
        assert_eq!(p.degree(), Some(3));
        for &r in &roots {
            assert_eq!(p.eval(r), Gf256::ZERO);
        }
        assert_ne!(p.eval(Gf256::from_u64(5)), Gf256::ZERO);
    }

    #[test]
    fn derivative_char2() {
        // d/dx (c0 + c1 x + c2 x^2 + c3 x^3) = c1 + 3 c3 x^2 = c1 + c3 x^2 (char 2)
        let p = p256(&[4, 5, 6, 7]);
        let d = p.derivative();
        assert_eq!(d, p256(&[5, 0, 7]));
        assert!(Poly::<Gf256>::constant(Gf256::from_u64(9)).derivative().is_zero());
    }

    #[test]
    fn monomial_and_constant_constructors() {
        assert_eq!(Poly::<Gf256>::monomial(Gf256::from_u64(3), 2), p256(&[0, 0, 3]));
        assert!(Poly::<Gf256>::monomial(Gf256::ZERO, 5).is_zero());
        assert_eq!(Poly::<Gf256>::constant(Gf256::from_u64(8)).degree(), Some(0));
        assert_eq!(Poly::<Gf256>::one().eval(Gf256::from_u64(200)), Gf256::ONE);
    }
}
