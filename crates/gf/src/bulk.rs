//! Bulk slice kernels: apply one field coefficient to a whole block of symbols.
//!
//! When an `(n, k)` code encodes a *block* of data rather than a single
//! symbol per position (the usual situation: each of the `k` source symbols
//! is really a shard of many field elements), each generator-matrix
//! coefficient multiplies an entire shard. These kernels implement that inner
//! loop — `dst += c * src` and friends — for any [`GaloisField`], one symbol
//! at a time: the scalar reference the [`bulk8`](crate::bulk8) byte kernels
//! are tested against.

use core::fmt;

use crate::GaloisField;

/// Error returned by the fallible (`try_`) bulk kernels when the destination
/// and source shards differ in length.
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

/// Fallible form of [`mul_add_assign`]: reports a length mismatch as an error
/// instead of panicking.
///
/// # Errors
///
/// Returns [`LengthMismatch`] when `dst` and `src` have different lengths; the
/// destination is left untouched in that case.
pub fn try_mul_add_assign<F: GaloisField>(dst: &mut [F], c: F, src: &[F]) -> Result<(), LengthMismatch> {
    if dst.len() != src.len() {
        return Err(LengthMismatch {
            expected: dst.len(),
            actual: src.len(),
        });
    }
    mul_add_assign(dst, c, src);
    Ok(())
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

/// Multiplies every element of `data` by `c` in place.
pub fn scale_assign<F: GaloisField>(data: &mut [F], c: F) {
    if c == F::ONE {
        return;
    }
    for d in data.iter_mut() {
        *d *= c;
    }
}

/// Computes `dst[i] += src[i]` (XOR accumulation) for every position.
///
/// # Panics
///
/// Panics if `dst` and `src` have different lengths.
pub fn add_assign<F: GaloisField>(dst: &mut [F], src: &[F]) {
    assert_eq!(
        dst.len(),
        src.len(),
        "add_assign requires equally sized shards (dst {} vs src {})",
        dst.len(),
        src.len()
    );
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// Element-wise difference `a[i] - b[i]`, the "delta" of two equally sized
/// shards. In characteristic two this is the XOR of the shards, exactly the
/// `z_{j+1} = x_{j+1} - x_j` operation of the SEC paper.
///
/// # Panics
///
/// Panics if the shards have different lengths.
pub fn diff<F: GaloisField>(a: &[F], b: &[F]) -> Vec<F> {
    assert_eq!(
        a.len(),
        b.len(),
        "diff requires equally sized shards ({} vs {})",
        a.len(),
        b.len()
    );
    a.iter().zip(b).map(|(&x, &y)| x - y).collect()
}

/// Number of non-zero entries of a shard — the sparsity level `γ` of a delta.
pub fn weight<F: GaloisField>(data: &[F]) -> usize {
    data.iter().filter(|c| !c.is_zero()).count()
}

/// Inner product of two equally sized shards.
///
/// # Panics
///
/// Panics if the shards have different lengths.
pub fn dot<F: GaloisField>(a: &[F], b: &[F]) -> F {
    assert_eq!(
        a.len(),
        b.len(),
        "dot requires equally sized shards ({} vs {})",
        a.len(),
        b.len()
    );
    a.iter().zip(b).fold(F::ZERO, |acc, (&x, &y)| acc + x * y)
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
    fn try_mul_add_assign_returns_error_instead_of_panicking() {
        let mut dst = shard(&[1, 2]);
        let err = try_mul_add_assign(&mut dst, Gf256::ONE, &shard(&[1, 2, 3])).unwrap_err();
        assert_eq!(
            err,
            LengthMismatch {
                expected: 2,
                actual: 3
            }
        );
        assert!(err.to_string().contains("destination holds 2"));
        // The destination is untouched after a rejected call.
        assert_eq!(dst, shard(&[1, 2]));
        try_mul_add_assign(&mut dst, Gf256::ONE, &shard(&[4, 5])).unwrap();
        assert_eq!(dst, shard(&[1 ^ 4, 2 ^ 5]));
    }

    #[test]
    fn mul_into_and_scale() {
        let src = shard(&[1, 2, 3]);
        let mut dst = vec![Gf256::ZERO; 3];
        let c = Gf256::from_u64(5);
        mul_into(&mut dst, c, &src);
        assert_eq!(dst, vec![c * src[0], c * src[1], c * src[2]]);
        let mut copy = src.clone();
        scale_assign(&mut copy, c);
        assert_eq!(copy, dst);
        scale_assign(&mut copy, Gf256::ONE);
        assert_eq!(copy, dst);
    }

    #[test]
    fn diff_is_xor_and_weight_counts_changes() {
        let a = shard(&[10, 20, 30, 40]);
        let b = shard(&[10, 21, 30, 44]);
        let d = diff(&a, &b);
        assert_eq!(weight(&d), 2);
        assert_eq!(d[0], Gf256::ZERO);
        assert_eq!(d[1], Gf256::from_u64(20 ^ 21));
        // Applying the delta to b recovers a.
        let mut recovered = b.clone();
        add_assign(&mut recovered, &d);
        assert_eq!(recovered, a);
    }

    #[test]
    fn dot_product_linear_in_first_argument() {
        let a = shard(&[1, 2, 3]);
        let b = shard(&[7, 11, 13]);
        let c = shard(&[5, 0, 9]);
        let ab = dot(&a, &b);
        let cb = dot(&c, &b);
        let sum: Vec<Gf256> = a.iter().zip(&c).map(|(&x, &y)| x + y).collect();
        assert_eq!(dot(&sum, &b), ab + cb);
    }

    #[test]
    fn bytes_round_trip_through_symbols() {
        let bytes: Vec<u8> = (0..=255).collect();
        let sym: Vec<Gf256> = bytes_to_symbols(&bytes);
        assert_eq!(symbols_to_bytes(&sym), bytes);
    }

    #[test]
    fn weight_of_zero_shard_is_zero() {
        assert_eq!(weight(&[Gf256::ZERO; 16]), 0);
        assert_eq!(weight(&shard(&[])), 0);
    }
}
