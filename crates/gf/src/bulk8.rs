//! Byte-oriented `GF(2^8)` fast-path kernels: split multiplication tables and
//! chunked slice operations over raw `&[u8]` shards.
//!
//! The generic [`bulk`](crate::bulk) kernels multiply one `GaloisField`
//! element at a time, which costs a table-pointer load and several branches
//! per symbol. When the field is [`Gf256`] a shard is just bytes, and a
//! coefficient `c` can be applied through a precomputed 256-entry product
//! table (built from the classic high/low-nibble *split tables*, 2 × 16
//! entries per coefficient), and [`CoeffTables`] caches the tables per
//! coefficient so repeated generator-matrix rows reuse them.
//!
//! Every slice entry point here dispatches through the runtime-selected
//! [`kernel`](crate::kernel): GFNI bit-matrix products, SSSE3/AVX2 `PSHUFB`
//! or NEON `TBL` nibble lookups where the CPU supports them, otherwise
//! portable scalar loops over the flattened table in [`CHUNK`]-byte blocks.
//! Calling code never notices which kernel ran — all of them are locked
//! bit-identical by differential tests — and `SEC_GF_KERNEL=scalar` (or
//! [`force_kernel`](crate::kernel::force_kernel)) pins the scalar path.
//!
//! The scalar [`bulk`](crate::bulk) path remains the reference
//! implementation: the property tests in this crate and the differential
//! suite in `sec-erasure` assert the two paths are byte-identical.
//!
//! # Example
//!
//! ```rust
//! use sec_gf::{bulk8, GaloisField, Gf256};
//!
//! let tables = bulk8::CoeffTables::new();
//! let c = Gf256::from_u64(0x53);
//! let src = [0x01u8, 0xCA, 0xFF];
//! let mut dst = [0u8; 3];
//! tables.mul_add_slice(c, &src, &mut dst);
//! for (i, &s) in src.iter().enumerate() {
//!     assert_eq!(u64::from(dst[i]), (c * Gf256::from_u64(u64::from(s))).to_u64());
//! }
//! ```

use std::sync::OnceLock;

use crate::bulk::LengthMismatch;
use crate::{GaloisField, Gf256};

/// Bytes processed per inner-loop step of every kernel.
///
/// The fixed trip count lets the compiler unroll the loop and elide bounds
/// checks; 64 bytes is one cache line and a multiple of every common SIMD
/// register width.
pub const CHUNK: usize = 64;

/// Precomputed multiplication tables for one `GF(2^8)` coefficient.
///
/// Built from the high/low-nibble split tables — `lo[x] = c·x` and
/// `hi[x] = c·(x·16)` for `x ∈ 0..16` — so that
/// `c·b = lo[b & 0xF] ⊕ hi[b >> 4]` for any byte `b`. A flattened 256-entry
/// product table is derived from the pair for the scalar inner loops; the
/// split tables themselves are exactly what the SIMD kernels load into
/// vector registers for `PSHUFB`/`TBL` nibble lookups (see
/// [`kernel`](crate::kernel)). Multiplication by `c` is also a linear map
/// on the bits of `b`, and its 8×8 bit-matrix is kept in the operand layout
/// of `GF2P8AFFINEQB` for the GFNI kernel.
#[derive(Debug, Clone)]
pub struct MulTable {
    lo: [u8; 16],
    hi: [u8; 16],
    affine: u64,
    flat: [u8; 256],
}

impl MulTable {
    /// Builds the tables for coefficient `c`.
    pub fn new(c: Gf256) -> Self {
        let mut lo = [0u8; 16];
        let mut hi = [0u8; 16];
        for x in 0..16u64 {
            lo[x as usize] = (c * Gf256::from_u64(x)).to_u64() as u8;
            hi[x as usize] = (c * Gf256::from_u64(x << 4)).to_u64() as u8;
        }
        let mut flat = [0u8; 256];
        for (x, slot) in flat.iter_mut().enumerate() {
            *slot = lo[x & 0xF] ^ hi[x >> 4];
        }
        // Output bit `i` of `c·b` is the parity of `b` masked by the inputs
        // `j` whose image `c·2^j` has bit `i` set; the instruction reads that
        // mask from byte `7 - i` of the matrix.
        let affine = (0..8).fold(0u64, |matrix, i| {
            let mask = (0..8).fold(0u64, |mask, j| mask | u64::from(flat[1 << j] >> i & 1) << j);
            matrix | mask << (8 * (7 - i))
        });
        Self { lo, hi, affine, flat }
    }

    /// The low-nibble split table: `lo[x] = c·x` for `x ∈ 0..16`.
    pub fn low_nibble(&self) -> &[u8; 16] {
        &self.lo
    }

    /// The high-nibble split table: `hi[x] = c·(x·16)` for `x ∈ 0..16`.
    pub fn high_nibble(&self) -> &[u8; 16] {
        &self.hi
    }

    /// The 8×8 bit-matrix of `b ↦ c·b` as `GF2P8AFFINEQB` takes it: byte
    /// `7 - i` masks the input bits whose parity is output bit `i`.
    pub fn affine_matrix(&self) -> u64 {
        self.affine
    }

    /// Multiplies one byte by the table's coefficient.
    #[inline]
    pub fn mul(&self, b: u8) -> u8 {
        self.flat[b as usize]
    }
}

/// A lazily filled cache of [`MulTable`]s keyed by coefficient.
///
/// An `(n, k)` encode touches `n·k` generator coefficients and reuses each
/// across every 64-byte chunk of every block, so building the 288-byte table
/// once per coefficient amortizes to nothing. The cache is internally
/// synchronized (`OnceLock` per slot) and can be shared across threads.
#[derive(Debug)]
pub struct CoeffTables {
    slots: Vec<OnceLock<MulTable>>,
}

impl Default for CoeffTables {
    fn default() -> Self {
        Self::new()
    }
}

impl CoeffTables {
    /// Creates an empty cache (no tables are built until first use).
    pub fn new() -> Self {
        Self {
            slots: (0..256).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The table for coefficient `c`, building it on first request.
    pub fn get(&self, c: Gf256) -> &MulTable {
        self.slots[c.to_u64() as usize].get_or_init(|| MulTable::new(c))
    }

    /// Number of coefficients whose tables have been built so far.
    ///
    /// Tables are built **lazily, one per distinct coefficient**, the first
    /// time [`CoeffTables::get`] sees that coefficient — never eagerly. The
    /// `c = 0` and `c = 1` fast paths in [`CoeffTables::mul_add_slice`] /
    /// [`CoeffTables::mul_slice`] and the unit rows of
    /// [`CoeffTables::matrix_apply`] skip the cache entirely, so after an
    /// encode this counts exactly the distinct coefficients of the
    /// generator's non-unit rows, not every coefficient the matrix mentions.
    pub fn cached_coefficients(&self) -> usize {
        self.slots.iter().filter(|slot| slot.get().is_some()).count()
    }

    /// Computes `dst[i] ^= c · src[i]` through the cached table, with fast
    /// paths for `c = 0` (no-op) and `c = 1` (plain XOR).
    ///
    /// # Panics
    ///
    /// Panics if `dst` and `src` have different lengths.
    pub fn mul_add_slice(&self, c: Gf256, src: &[u8], dst: &mut [u8]) {
        assert_slice_lengths("mul_add_slice", dst.len(), src.len());
        if c.is_zero() {
            return;
        }
        if c == Gf256::ONE {
            xor_accumulate(dst, &[src]);
            return;
        }
        mul_add_with(self.get(c), src, dst);
    }

    /// Fallible form of [`CoeffTables::mul_add_slice`]: returns the length
    /// mismatch instead of panicking, so storage simulations can reject a
    /// corrupt shard without aborting.
    ///
    /// # Errors
    ///
    /// Returns [`LengthMismatch`] when `dst` and `src` differ in length.
    pub fn try_mul_add_slice(&self, c: Gf256, src: &[u8], dst: &mut [u8]) -> Result<(), LengthMismatch> {
        if dst.len() != src.len() {
            return Err(LengthMismatch {
                expected: dst.len(),
                actual: src.len(),
            });
        }
        self.mul_add_slice(c, src, dst);
        Ok(())
    }

    /// Computes `dst[i] = c · src[i]` through the cached table, with fast
    /// paths for `c = 0` (zero fill) and `c = 1` (copy).
    ///
    /// # Panics
    ///
    /// Panics if `dst` and `src` have different lengths.
    pub fn mul_slice(&self, c: Gf256, src: &[u8], dst: &mut [u8]) {
        assert_slice_lengths("mul_slice", dst.len(), src.len());
        if c.is_zero() {
            dst.fill(0);
            return;
        }
        if c == Gf256::ONE {
            dst.copy_from_slice(src);
            return;
        }
        mul_with(self.get(c), src, dst);
    }

    /// The matrix apply, the one operation behind every block product:
    /// `dsts[r] = Σ_c coeffs[r·cols + c] · srcs[c]` (sum in `GF(2^8)`, i.e.
    /// XOR) over equal-length byte slices, with `cols = srcs.len()` and
    /// `coeffs` row-major; `accumulate` makes it `dsts[r] ^= …`.
    ///
    /// Encode is the generator applied to the data shards, decode an inverse
    /// applied to the shares, sparse recovery two rows-of-a-transform applied
    /// to the shares. On the AVX2 and GFNI kernels every register-wide column of
    /// the sources is loaded once, each row is summed in a register and each
    /// output written once; the other kernels run one product at a time over
    /// L1-sized strips. A unit row (a single coefficient 1) is a plain copy —
    /// or XOR — and an all-zero row a zero fill — or nothing — on every
    /// kernel, and no table is built for either.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs` is not `dsts.len() · srcs.len()` long or any slice
    /// length differs from the first destination's.
    pub fn matrix_apply(
        &self,
        coeffs: &[Gf256],
        srcs: &[&[u8]],
        dsts: &mut [&mut [u8]],
        accumulate: bool,
    ) {
        assert_matrix_shape(coeffs.len(), srcs, 1, dsts);
        crate::kernel::matrix_apply_with(
            crate::kernel::active_ops(),
            self,
            coeffs,
            srcs,
            1,
            dsts,
            accumulate,
        );
    }

    /// The matrix apply with every source column a sum: `srcs` holds
    /// `members` runs of `cols` blocks, and column `c` is the XOR
    /// `srcs[c] ^ srcs[cols + c] ^ …` of the runs' `c`-th blocks, so
    /// `dsts[r] (=|^=) Σ_c coeffs[r·cols + c] · Σ_j srcs[j·cols + c]`. By
    /// linearity that is the sum of `members` matrix applies, for the
    /// products of one.
    ///
    /// No sum is ever written out: the AVX2 and GFNI tiles load every member
    /// of a column and XOR them in a register before the products, and a
    /// unit row XORs its column's members straight into its destination.
    /// The kernels without a tile take one product per member instead. With
    /// `members = 1` this is exactly [`CoeffTables::matrix_apply`].
    ///
    /// # Panics
    ///
    /// Panics if `members` is zero or does not divide `srcs.len()`, if
    /// `coeffs` is not `dsts.len() · cols` long, or if any slice length
    /// differs from the first destination's.
    pub fn matrix_apply_summed(
        &self,
        coeffs: &[Gf256],
        srcs: &[&[u8]],
        members: usize,
        dsts: &mut [&mut [u8]],
        accumulate: bool,
    ) {
        assert_matrix_shape(coeffs.len(), srcs, members, dsts);
        crate::kernel::matrix_apply_with(
            crate::kernel::active_ops(),
            self,
            coeffs,
            srcs,
            members,
            dsts,
            accumulate,
        );
    }
}

/// Computes `dst[i] ^= c · src[i]`, building a one-shot table.
///
/// Prefer [`CoeffTables::mul_add_slice`] in loops that reuse coefficients.
///
/// # Panics
///
/// Panics if `dst` and `src` have different lengths.
pub fn mul_add_slice(c: Gf256, src: &[u8], dst: &mut [u8]) {
    assert_slice_lengths("mul_add_slice", dst.len(), src.len());
    if c.is_zero() {
        return;
    }
    if c == Gf256::ONE {
        xor_accumulate(dst, &[src]);
        return;
    }
    mul_add_with(&MulTable::new(c), src, dst);
}

/// Fallible form of [`mul_add_slice`]: reports a length mismatch as an error
/// instead of panicking, so layers handling externally supplied (possibly
/// corrupt) shards can reject them without aborting.
///
/// # Errors
///
/// Returns [`LengthMismatch`] when `dst` and `src` differ in length; the
/// destination is left untouched in that case.
pub fn try_mul_add_slice(c: Gf256, src: &[u8], dst: &mut [u8]) -> Result<(), LengthMismatch> {
    if dst.len() != src.len() {
        return Err(LengthMismatch {
            expected: dst.len(),
            actual: src.len(),
        });
    }
    mul_add_slice(c, src, dst);
    Ok(())
}

/// Computes `dst[i] = c · src[i]`, building a one-shot table.
///
/// Prefer [`CoeffTables::mul_slice`] in loops that reuse coefficients.
///
/// # Panics
///
/// Panics if `dst` and `src` have different lengths.
pub fn mul_slice(c: Gf256, src: &[u8], dst: &mut [u8]) {
    assert_slice_lengths("mul_slice", dst.len(), src.len());
    if c.is_zero() {
        dst.fill(0);
        return;
    }
    if c == Gf256::ONE {
        dst.copy_from_slice(src);
        return;
    }
    mul_with(&MulTable::new(c), src, dst);
}

/// XORs every source row into `dst` (`dst[i] ^= src_1[i] ^ … ^ src_m[i]`),
/// the multi-row accumulation kernel behind coefficient-1 rows and byte-level
/// delta application.
///
/// The destination is tiled into L1-sized strips and every source is applied
/// to a strip before moving on, so the destination strip stays hot across
/// rows; within a strip the active [`kernel`](crate::kernel) runs.
///
/// # Panics
///
/// Panics if any source length differs from `dst`.
pub fn xor_accumulate(dst: &mut [u8], srcs: &[&[u8]]) {
    for src in srcs {
        assert_slice_lengths("xor_accumulate", dst.len(), src.len());
    }
    crate::kernel::xor_accumulate_with(crate::kernel::active_ops(), dst, srcs);
}

/// Kernel-dispatched `dst[i] ^= table.mul(src[i])`; lengths already checked.
fn mul_add_with(table: &MulTable, src: &[u8], dst: &mut [u8]) {
    (crate::kernel::active_ops().mul_add)(table, src, dst);
}

/// Kernel-dispatched `dst[i] = table.mul(src[i])`; lengths already checked.
fn mul_with(table: &MulTable, src: &[u8], dst: &mut [u8]) {
    (crate::kernel::active_ops().mul)(table, src, dst);
}

/// Checks a matrix apply's shape: `members` equal runs of `cols` sources,
/// `rows · cols` coefficients and one length across every destination and
/// source.
pub(crate) fn assert_matrix_shape(coeffs: usize, srcs: &[&[u8]], members: usize, dsts: &[&mut [u8]]) {
    assert!(
        members > 0 && srcs.len().is_multiple_of(members),
        "matrix_apply_summed requires {members} equal runs of sources, got {}",
        srcs.len()
    );
    assert_eq!(
        coeffs,
        dsts.len() * (srcs.len() / members),
        "matrix_apply requires one coefficient per (destination, source) pair"
    );
    let len = dsts.first().map_or(0, |dst| dst.len());
    let lens = dsts
        .iter()
        .map(|dst| dst.len())
        .chain(srcs.iter().map(|src| src.len()));
    for actual in lens {
        assert_slice_lengths("matrix_apply", len, actual);
    }
}

pub(crate) fn assert_slice_lengths(op: &str, dst: usize, src: usize) {
    assert_eq!(
        dst, src,
        "{op} requires equally sized byte shards (dst {dst} vs src {src})"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_mul(c: Gf256, b: u8) -> u8 {
        (c * Gf256::from_u64(u64::from(b))).to_u64() as u8
    }

    #[test]
    fn split_tables_agree_with_field_multiplication() {
        for c in [0u64, 1, 2, 0x1D, 0x53, 0xCA, 0xFF] {
            let c = Gf256::from_u64(c);
            let t = MulTable::new(c);
            for b in 0..=255u8 {
                let split = t.low_nibble()[(b & 0xF) as usize] ^ t.high_nibble()[(b >> 4) as usize];
                assert_eq!(t.mul(b), scalar_mul(c, b), "flat {c} * {b}");
                assert_eq!(split, scalar_mul(c, b), "split {c} * {b}");
            }
        }
    }

    #[test]
    fn mul_add_slice_matches_scalar_on_awkward_lengths() {
        let tables = CoeffTables::new();
        for len in [0usize, 1, 3, 63, 64, 65, 127, 200] {
            let src: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let mut dst: Vec<u8> = (0..len).map(|i| (i * 5 + 1) as u8).collect();
            let c = Gf256::from_u64(0x8E);
            let expect: Vec<u8> = dst
                .iter()
                .zip(&src)
                .map(|(&d, &s)| d ^ scalar_mul(c, s))
                .collect();
            tables.mul_add_slice(c, &src, &mut dst);
            assert_eq!(dst, expect, "len {len}");
        }
    }

    #[test]
    fn mul_slice_fast_paths() {
        let tables = CoeffTables::new();
        let src: Vec<u8> = (0..100).map(|i| i as u8).collect();
        let mut dst = vec![0xAAu8; 100];
        tables.mul_slice(Gf256::ZERO, &src, &mut dst);
        assert!(dst.iter().all(|&b| b == 0));
        tables.mul_slice(Gf256::ONE, &src, &mut dst);
        assert_eq!(dst, src);
        mul_slice(Gf256::from_u64(7), &src, &mut dst);
        let expect: Vec<u8> = src.iter().map(|&s| scalar_mul(Gf256::from_u64(7), s)).collect();
        assert_eq!(dst, expect);
    }

    #[test]
    fn mul_add_fast_paths_and_one_shot_form() {
        let src: Vec<u8> = (0..70).map(|i| (i ^ 0x5A) as u8).collect();
        let mut dst = vec![0x0Fu8; 70];
        mul_add_slice(Gf256::ZERO, &src, &mut dst);
        assert!(dst.iter().all(|&b| b == 0x0F));
        mul_add_slice(Gf256::ONE, &src, &mut dst);
        let expect: Vec<u8> = src.iter().map(|&s| 0x0F ^ s).collect();
        assert_eq!(dst, expect);
    }

    #[test]
    fn xor_accumulate_multi_row() {
        let a: Vec<u8> = (0..130).map(|i| i as u8).collect();
        let b: Vec<u8> = (0..130).map(|i| (i * 3) as u8).collect();
        let c: Vec<u8> = (0..130).map(|i| (i * 7 + 1) as u8).collect();
        let mut dst = vec![0u8; 130];
        xor_accumulate(&mut dst, &[&a, &b, &c]);
        for i in 0..130 {
            assert_eq!(dst[i], a[i] ^ b[i] ^ c[i]);
        }
        // Zero sources leave the destination untouched.
        let before = dst.clone();
        xor_accumulate(&mut dst, &[]);
        assert_eq!(dst, before);
    }

    #[test]
    fn matrix_apply_matches_sequential_kernels() {
        let tables = CoeffTables::new();
        // Two dense rows, a unit row and a zero row over three sources.
        let coeffs: Vec<Gf256> = [3, 1, 0xB1, 0x1D, 0, 0x53, 0, 1, 0, 0, 0, 0]
            .map(Gf256::from_u64)
            .to_vec();
        for len in [0usize, 1, 63, 64, 65, 130] {
            let srcs: Vec<Vec<u8>> = (0..3)
                .map(|r| (0..len).map(|i| ((r * 97 + i * 13 + 5) & 0xFF) as u8).collect())
                .collect();
            let views: Vec<&[u8]> = srcs.iter().map(Vec::as_slice).collect();
            for accumulate in [false, true] {
                let mut expect = vec![vec![if accumulate { 0xEE } else { 0 }; len]; 4];
                for (row, dst) in coeffs.chunks_exact(3).zip(&mut expect) {
                    for (c, src) in row.iter().zip(&srcs) {
                        tables.mul_add_slice(*c, src, dst);
                    }
                }
                let mut fused = vec![vec![0xEEu8; len]; 4];
                let mut dsts: Vec<&mut [u8]> = fused.iter_mut().map(Vec::as_mut_slice).collect();
                tables.matrix_apply(&coeffs, &views, &mut dsts, accumulate);
                assert_eq!(fused, expect, "len {len} accumulate {accumulate}");
            }
            // No sources → zero rows, or untouched ones when accumulating.
            let mut row = vec![0xEEu8; len];
            tables.matrix_apply(&[], &[], &mut [&mut row], true);
            assert!(row.iter().all(|&b| b == 0xEE));
            tables.matrix_apply(&[], &[], &mut [&mut row], false);
            assert!(row.iter().all(|&b| b == 0));
        }
    }

    #[test]
    #[should_panic(expected = "matrix_apply requires equally sized byte shards (dst 2 vs src 3)")]
    fn matrix_apply_length_mismatch_panics() {
        let mut dst = [0u8; 2];
        CoeffTables::new().matrix_apply(&[Gf256::ONE], &[&[0u8; 3]], &mut [&mut dst], false);
    }

    #[test]
    fn coefficient_cache_is_lazy_and_reused() {
        let tables = CoeffTables::new();
        assert_eq!(tables.cached_coefficients(), 0);
        let c = Gf256::from_u64(0x42);
        let first = tables.get(c) as *const MulTable;
        let second = tables.get(c) as *const MulTable;
        assert_eq!(first, second, "same coefficient must reuse its table");
        assert_eq!(tables.cached_coefficients(), 1);
        // Fast-path coefficients do not populate the cache.
        let mut dst = vec![0u8; 8];
        tables.mul_add_slice(Gf256::ZERO, &[0; 8], &mut dst);
        tables.mul_add_slice(Gf256::ONE, &[1; 8], &mut dst);
        assert_eq!(tables.cached_coefficients(), 1);
    }

    #[test]
    fn try_mul_add_slice_reports_mismatch() {
        let tables = CoeffTables::new();
        let mut dst = vec![0u8; 4];
        let err = tables
            .try_mul_add_slice(Gf256::ONE, &[0u8; 5], &mut dst)
            .unwrap_err();
        assert_eq!(
            err,
            LengthMismatch {
                expected: 4,
                actual: 5
            }
        );
        assert!(err.to_string().contains("destination holds 4"));
        assert!(tables.try_mul_add_slice(Gf256::ONE, &[1u8; 4], &mut dst).is_ok());
        assert_eq!(dst, vec![1u8; 4]);
    }

    #[test]
    #[should_panic(expected = "mul_add_slice requires equally sized byte shards (dst 2 vs src 3)")]
    fn mul_add_slice_length_mismatch_panics() {
        let mut dst = [0u8; 2];
        mul_add_slice(Gf256::ONE, &[0u8; 3], &mut dst);
    }

    #[test]
    #[should_panic(expected = "xor_accumulate requires equally sized byte shards")]
    fn xor_accumulate_length_mismatch_panics() {
        let mut dst = [0u8; 2];
        xor_accumulate(&mut dst, &[&[0u8; 2], &[0u8; 1]]);
    }
}
