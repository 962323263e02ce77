//! The one field of the SEC stack.
//!
//! | Type | Field | Reduction polynomial | Use |
//! |------|-------|----------------------|-----|
//! | [`Gf256`] | `GF(2^8)` | `x^8 + x^4 + x^3 + x^2 + 1` | every code: one byte per symbol |
//!
//! A Cauchy code needs `n + k` distinct field elements, so `GF(2^8)` hosts
//! the paper's (6,3), (10,5) and (12,6) codes and any code up to
//! `n + k = 256` (non-systematic) or `n = 256` (systematic).

use core::fmt;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::sync::OnceLock;

use crate::field::GaloisField;
use crate::tables::{build_tables, FieldTables};

fn gf256_tables() -> &'static FieldTables {
    static TABLES: OnceLock<FieldTables> = OnceLock::new();
    TABLES.get_or_init(|| build_tables(Gf256::POLYNOMIAL, 8))
}

/// The 256-element field `GF(2^8)`, reduction polynomial
/// `x^8 + x^4 + x^3 + x^2 + 1` (0x11D, the classical Reed-Solomon choice).
///
/// The symbol alphabet of every SEC code: one byte per symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Gf256(u8);

impl Gf256 {
    /// The irreducible reduction polynomial (leading term included).
    pub const POLYNOMIAL: u32 = 0x11D;

    /// Returns the raw integer representation.
    pub const fn raw(self) -> u8 {
        self.0
    }
}

impl GaloisField for Gf256 {
    const BITS: u32 = 8;
    const ORDER: u64 = 1 << 8;
    const ZERO: Self = Self(0);
    const ONE: Self = Self(1);

    #[inline]
    fn from_u64(v: u64) -> Self {
        Self((v & (Self::ORDER - 1)) as u8)
    }

    #[inline]
    fn to_u64(self) -> u64 {
        self.0 as u64
    }

    #[inline]
    fn inv(self) -> Option<Self> {
        if self.0 == 0 {
            None
        } else {
            Some(Self(gf256_tables().inv(self.0 as u32) as u8))
        }
    }

    #[inline]
    fn generator() -> Self {
        Self(gf256_tables().generator as u8)
    }

    #[inline]
    fn pow(self, e: u64) -> Self {
        Self(gf256_tables().pow(self.0 as u32, e) as u8)
    }
}

impl fmt::Display for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::LowerHex for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl fmt::Octal for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Octal::fmt(&self.0, f)
    }
}

impl Add for Gf256 {
    type Output = Self;
    #[expect(
        clippy::suspicious_arithmetic_impl,
        reason = "in characteristic 2, addition genuinely is XOR"
    )]
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self(self.0 ^ rhs.0)
    }
}

impl AddAssign for Gf256 {
    #[expect(
        clippy::suspicious_op_assign_impl,
        reason = "in characteristic 2, addition genuinely is XOR"
    )]
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.0 ^= rhs.0;
    }
}

impl Sub for Gf256 {
    type Output = Self;
    #[expect(
        clippy::suspicious_arithmetic_impl,
        reason = "characteristic 2: subtraction is addition, i.e. XOR"
    )]
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self(self.0 ^ rhs.0)
    }
}

impl SubAssign for Gf256 {
    #[expect(
        clippy::suspicious_op_assign_impl,
        reason = "characteristic 2: subtraction is addition, i.e. XOR"
    )]
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.0 ^= rhs.0;
    }
}

impl Neg for Gf256 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        self
    }
}

impl Mul for Gf256 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self(gf256_tables().mul(self.0 as u32, rhs.0 as u32) as u8)
    }
}

impl MulAssign for Gf256 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Div for Gf256 {
    type Output = Self;
    /// # Panics
    ///
    /// Panics when `rhs` is zero, mirroring integer division.
    #[inline]
    fn div(self, rhs: Self) -> Self {
        assert!(rhs.0 != 0, "division by zero in Gf256");
        Self(gf256_tables().div(self.0 as u32, rhs.0 as u32) as u8)
    }
}

impl DivAssign for Gf256 {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl Sum for Gf256 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a Gf256> for Gf256 {
    fn sum<I: Iterator<Item = &'a Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + *b)
    }
}

impl Product for Gf256 {
    fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ONE, |a, b| a * b)
    }
}

impl<'a> Product<&'a Gf256> for Gf256 {
    fn product<I: Iterator<Item = &'a Self>>(iter: I) -> Self {
        iter.fold(Self::ONE, |a, b| a * *b)
    }
}

impl From<u8> for Gf256 {
    fn from(v: u8) -> Self {
        <Self as GaloisField>::from_u64(v as u64)
    }
}

impl From<Gf256> for u64 {
    fn from(v: Gf256) -> u64 {
        v.to_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gf256_axioms_sampled() {
        let elems: Vec<Gf256> = (0..Gf256::ORDER).step_by(5).map(Gf256::from_u64).collect();
        for &a in &elems {
            // Identities.
            assert_eq!(a + Gf256::ZERO, a);
            assert_eq!(a * Gf256::ONE, a);
            assert_eq!(a * Gf256::ZERO, Gf256::ZERO);
            // Characteristic 2.
            assert_eq!(a + a, Gf256::ZERO);
            assert_eq!(-a, a);
            // Inverse.
            if !a.is_zero() {
                let ai = a.inv().expect("non-zero element has an inverse");
                assert_eq!(a * ai, Gf256::ONE);
                assert_eq!(Gf256::ONE / a, ai);
            } else {
                assert!(a.inv().is_none());
            }
            for &b in &elems {
                assert_eq!(a + b, b + a);
                assert_eq!(a * b, b * a);
                assert_eq!(a - b, a + b);
                for &c in elems.iter().take(8) {
                    assert_eq!((a + b) + c, a + (b + c));
                    assert_eq!((a * b) * c, a * (b * c));
                    assert_eq!(a * (b + c), a * b + a * c);
                }
            }
        }
    }

    #[test]
    fn generator_has_full_order() {
        let g = Gf256::generator();
        assert_eq!(g.pow(255), Gf256::ONE);
        // The generator's order is exactly 255 = 3 · 5 · 17: for every prime
        // divisor d of 255, g^(255/d) != 1.
        for d in [3u64, 5, 17] {
            assert_ne!(g.pow(255 / d), Gf256::ONE, "generator order divides {}", 255 / d);
        }
    }

    #[test]
    fn from_u64_masks_high_bits() {
        assert_eq!(Gf256::from_u64(0x1_00), Gf256::ZERO);
        assert_eq!(Gf256::from_u64(0x1_2A), Gf256::from_u64(0x2A));
    }

    #[test]
    fn display_and_hex_formatting() {
        let a = Gf256::from_u64(0xAB);
        assert_eq!(format!("{a}"), "171");
        assert_eq!(format!("{a:x}"), "ab");
        assert_eq!(format!("{a:X}"), "AB");
        assert_eq!(format!("{a:b}"), "10101011");
        assert_eq!(format!("{a:o}"), "253");
    }

    #[test]
    fn sum_and_product_impls() {
        let xs = [Gf256::from_u64(1), Gf256::from_u64(2), Gf256::from_u64(3)];
        let s: Gf256 = xs.iter().sum();
        assert_eq!(s, Gf256::from_u64(1 ^ 2 ^ 3));
        let p: Gf256 = xs.iter().product();
        assert_eq!(p, Gf256::from_u64(1) * Gf256::from_u64(2) * Gf256::from_u64(3));
        let empty: [Gf256; 0] = [];
        assert_eq!(empty.iter().sum::<Gf256>(), Gf256::ZERO);
        assert_eq!(empty.iter().product::<Gf256>(), Gf256::ONE);
    }

    #[test]
    fn conversions_via_from() {
        let a: Gf256 = 7u8.into();
        assert_eq!(a.to_u64(), 7);
        let v: u64 = a.into();
        assert_eq!(v, 7);
        let b: Gf256 = 200u8.into();
        assert_eq!(b.raw(), 200);
    }

    #[test]
    fn gf256_known_products() {
        // Known values for the 0x11D polynomial.
        let a = Gf256::from_u64(0x80);
        let two = Gf256::from_u64(2);
        assert_eq!(a * two, Gf256::from_u64(0x1D));
        assert_eq!(
            Gf256::from_u64(0x53) * Gf256::from_u64(0xCA) / Gf256::from_u64(0xCA),
            Gf256::from_u64(0x53)
        );
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = Gf256::ONE / Gf256::ZERO;
    }

    #[test]
    fn send_sync_impls() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Gf256>();
    }
}
