//! The [`GaloisField`] trait: the abstract interface every SEC field satisfies.

use core::fmt::{Debug, Display};
use core::hash::Hash;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A binary-extension Galois field `GF(2^w)`.
///
/// All SEC constructions (Cauchy generator matrices, sparse-delta recovery,
/// Gaussian elimination) are written against this trait. Its one
/// implementation is [`Gf256`](crate::Gf256), the `GF(2^8)` byte field.
///
/// Implementations are plain `Copy` newtypes over an unsigned integer and all
/// operations are total: the arithmetic operators panic only on division by
/// zero, mirroring integer division in the standard library. The fallible
/// alternative [`GaloisField::inv`] returns `None` for zero.
///
/// # Example
///
/// ```rust
/// use sec_gf::{GaloisField, Gf256};
///
/// fn dot<F: GaloisField>(a: &[F], b: &[F]) -> F {
///     a.iter().zip(b).fold(F::ZERO, |acc, (&x, &y)| acc + x * y)
/// }
///
/// let a = [Gf256::from_u64(1), Gf256::from_u64(2)];
/// let b = [Gf256::from_u64(3), Gf256::from_u64(4)];
/// assert_eq!(dot(&a, &b), Gf256::from_u64(3) + Gf256::from_u64(8));
/// ```
pub trait GaloisField:
    Copy
    + Clone
    + Eq
    + PartialEq
    + Ord
    + PartialOrd
    + Hash
    + Debug
    + Display
    + Default
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Neg<Output = Self>
    + Sum
    + Product
{
    /// Field extension degree `w`, i.e. the field has `2^w` elements.
    const BITS: u32;

    /// Number of elements in the field, `q = 2^BITS`.
    const ORDER: u64;

    /// The additive identity.
    const ZERO: Self;

    /// The multiplicative identity.
    const ONE: Self;

    /// Builds a field element from the low `BITS` bits of `v`.
    ///
    /// Values `v >= ORDER` are reduced by masking, so this function is total;
    /// use it for literals and for converting symbol words read from storage.
    fn from_u64(v: u64) -> Self;

    /// Returns the canonical integer representation of the element
    /// (in `0..ORDER`).
    fn to_u64(self) -> u64;

    /// Returns `true` for the additive identity.
    fn is_zero(self) -> bool {
        self == Self::ZERO
    }

    /// Multiplicative inverse, or `None` for zero.
    fn inv(self) -> Option<Self>;

    /// A fixed primitive element (generator of the multiplicative group).
    fn generator() -> Self;

    /// Exponentiation by squaring is the default; table-backed fields may
    /// override with a log/exp shortcut.
    fn pow(self, mut e: u64) -> Self {
        if e == 0 {
            return Self::ONE;
        }
        if self.is_zero() {
            return Self::ZERO;
        }
        // Reduce the exponent modulo the multiplicative group order.
        e %= Self::ORDER - 1;
        if e == 0 {
            return Self::ONE;
        }
        let mut base = self;
        let mut acc = Self::ONE;
        while e > 0 {
            if e & 1 == 1 {
                acc *= base;
            }
            base *= base;
            e >>= 1;
        }
        acc
    }

    /// Iterator over every element of the field, starting from zero.
    ///
    /// Intended for exhaustive checks in tests and for small-field searches
    /// (e.g. picking Cauchy evaluation points).
    fn all_elements() -> AllElements<Self> {
        AllElements {
            next: 0,
            _marker: core::marker::PhantomData,
        }
    }
}

/// Iterator returned by [`GaloisField::all_elements`].
#[derive(Debug, Clone)]
pub struct AllElements<F> {
    next: u64,
    _marker: core::marker::PhantomData<F>,
}

impl<F: GaloisField> Iterator for AllElements<F> {
    type Item = F;

    fn next(&mut self) -> Option<F> {
        if self.next >= F::ORDER {
            None
        } else {
            let v = F::from_u64(self.next);
            self.next += 1;
            Some(v)
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (F::ORDER - self.next) as usize;
        (rem, Some(rem))
    }
}

impl<F: GaloisField> ExactSizeIterator for AllElements<F> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gf256;

    #[test]
    fn all_elements_yields_order_many() {
        let v: Vec<Gf256> = Gf256::all_elements().collect();
        assert_eq!(v.len(), Gf256::ORDER as usize);
        assert_eq!(v[0], Gf256::ZERO);
        assert_eq!(v[1], Gf256::ONE);
    }

    #[test]
    fn default_pow_matches_repeated_multiplication() {
        let g = Gf256::generator();
        let mut acc = Gf256::ONE;
        for e in 0..20u64 {
            assert_eq!(g.pow(e), acc, "generator^{e}");
            acc *= g;
        }
    }

    #[test]
    fn pow_zero_conventions() {
        assert_eq!(Gf256::ZERO.pow(0), Gf256::ONE);
        assert_eq!(Gf256::ZERO.pow(5), Gf256::ZERO);
        assert_eq!(Gf256::ONE.pow(u64::MAX), Gf256::ONE);
    }
}
