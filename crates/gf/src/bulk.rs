//! Bulk slice kernels: apply one field coefficient to a whole block of symbols.
//!
//! When an `(n, k)` code encodes a *block* of data rather than a single
//! symbol per position (the usual situation: each of the `k` source symbols
//! is really a shard of many field elements), each generator-matrix
//! coefficient multiplies an entire shard. These kernels implement that inner
//! loop — `dst += c * src` and `dst = c * src` — for any [`GaloisField`], one
//! symbol at a time: the scalar reference the [`bulk8`](crate::bulk8) byte
//! kernels are tested against.

use core::fmt;

use crate::GaloisField;

/// Error returned by the fallible byte kernel
/// ([`bulk8::try_mul_add_slice`](crate::bulk8::try_mul_add_slice)) when the
/// destination and source shards differ in length.
///
/// The panicking kernels treat a length mismatch as a programming error; the
/// `try_` variants exist for layers that process externally supplied (and
/// possibly corrupt) shards, such as the storage simulator, where a bad shard
/// length must surface as an error instead of aborting the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LengthMismatch {
    /// Length of the destination shard.
    pub expected: usize,
    /// Length of the offending source shard.
    pub actual: usize,
}

impl fmt::Display for LengthMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard length mismatch: destination holds {} symbols but source holds {}",
            self.expected, self.actual
        )
    }
}

impl std::error::Error for LengthMismatch {}

/// Computes `dst[i] += c * src[i]` for every position.
///
/// This is the row-accumulation step of matrix-vector encoding over shards.
///
/// # Panics
///
/// Panics if `dst` and `src` have different lengths.
pub fn mul_add_assign<F: GaloisField>(dst: &mut [F], c: F, src: &[F]) {
    assert_eq!(
        dst.len(),
        src.len(),
        "mul_add_assign requires equally sized shards (dst {} vs src {})",
        dst.len(),
        src.len()
    );
    if c.is_zero() {
        return;
    }
    if c == F::ONE {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d += s;
        }
        return;
    }
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += c * s;
    }
}

/// Computes `dst[i] = c * src[i]` for every position.
///
/// # Panics
///
/// Panics if `dst` and `src` have different lengths.
pub fn mul_into<F: GaloisField>(dst: &mut [F], c: F, src: &[F]) {
    assert_eq!(
        dst.len(),
        src.len(),
        "mul_into requires equally sized shards (dst {} vs src {})",
        dst.len(),
        src.len()
    );
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = c * s;
    }
}

/// Converts a byte slice into field symbols, one byte per symbol; the
/// inverse is [`symbols_to_bytes`].
pub fn bytes_to_symbols<F: GaloisField>(bytes: &[u8]) -> Vec<F> {
    bytes.iter().map(|&b| F::from_u64(b as u64)).collect()
}

/// Converts symbols back to bytes, the inverse of [`bytes_to_symbols`].
///
/// # Panics
///
/// Panics if a symbol does not fit in a byte (i.e. it was not produced by
/// [`bytes_to_symbols`]).
pub fn symbols_to_bytes<F: GaloisField>(symbols: &[F]) -> Vec<u8> {
    symbols
        .iter()
        .map(|s| {
            let v = s.to_u64();
            assert!(v <= u8::MAX as u64, "symbol {v} does not fit in a byte");
            v as u8
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gf256;

    fn shard(values: &[u64]) -> Vec<Gf256> {
        values.iter().map(|&v| Gf256::from_u64(v)).collect()
    }

    #[test]
    fn mul_add_assign_accumulates() {
        let mut dst = shard(&[1, 2, 3]);
        let src = shard(&[4, 5, 6]);
        let c = Gf256::from_u64(7);
        mul_add_assign(&mut dst, c, &src);
        let expect: Vec<Gf256> = shard(&[1, 2, 3])
            .into_iter()
            .zip(shard(&[4, 5, 6]))
            .map(|(d, s)| d + c * s)
            .collect();
        assert_eq!(dst, expect);
    }

    #[test]
    fn mul_add_assign_zero_and_one_fast_paths() {
        let mut dst = shard(&[9, 9, 9]);
        let src = shard(&[1, 2, 3]);
        mul_add_assign(&mut dst, Gf256::ZERO, &src);
        assert_eq!(dst, shard(&[9, 9, 9]));
        mul_add_assign(&mut dst, Gf256::ONE, &src);
        assert_eq!(dst, shard(&[9 ^ 1, 9 ^ 2, 9 ^ 3]));
    }

    #[test]
    #[should_panic(expected = "mul_add_assign requires equally sized shards (dst 1 vs src 2)")]
    fn mul_add_assign_length_mismatch_panics() {
        let mut dst = shard(&[1]);
        mul_add_assign(&mut dst, Gf256::ONE, &shard(&[1, 2]));
    }

    #[test]
    fn mul_into_and_scale() {
        let src = shard(&[1, 2, 3]);
        let mut dst = vec![Gf256::ZERO; 3];
        let c = Gf256::from_u64(5);
        mul_into(&mut dst, c, &src);
        assert_eq!(dst, vec![c * src[0], c * src[1], c * src[2]]);
    }

    #[test]
    fn bytes_round_trip_through_symbols() {
        let bytes: Vec<u8> = (0..=255).collect();
        let sym: Vec<Gf256> = bytes_to_symbols(&bytes);
        assert_eq!(symbols_to_bytes(&sym), bytes);
    }
}
