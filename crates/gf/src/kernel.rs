//! Runtime-dispatched SIMD kernels for the byte-shard `GF(2^8)` fast path.
//!
//! The [`bulk8`](crate::bulk8) split tables — `lo[x] = c·x`, `hi[x] = c·(x·16)`
//! — are exactly the layout the PSHUFB/TBL nibble-lookup technique wants: load
//! both 16-entry tables into vector registers once per coefficient, then each
//! 16/32-byte block of a shard costs two shuffles, a shift, two masks and a
//! XOR. This module provides those kernels for x86_64 (SSSE3, AVX2 and GFNI,
//! whose `GF2P8AFFINEQB` multiplies 64 bytes by a coefficient's bit-matrix in
//! one instruction) and aarch64 (NEON), selected **at runtime** behind a
//! dispatch table so a single binary runs optimally everywhere and falls back
//! to the portable scalar loops on hosts without the features.
//!
//! Block products — every encode, decode and sparse recovery — go through one
//! operation, the *matrix apply* `dsts[r] (=|^=) Σ_c coeff[r][c] · srcs[c]`
//! ([`CoeffTables::matrix_apply`]): AVX2 and GFNI supply a register tile that
//! loads each column of the sources once and writes each output once, the
//! other kernels compose it from their single-product ops.
//!
//! # Dispatch contract
//!
//! * [`active_kernel`] names the kernel every `bulk8` entry point currently
//!   routes through. It is resolved once, on first use: the `SEC_GF_KERNEL`
//!   environment variable (`scalar|ssse3|avx2|gfni|neon|auto`) wins if set
//!   to a supported kernel, otherwise the best detected instruction set is
//!   chosen (GFNI over AVX2 over SSSE3 over NEON over scalar).
//! * [`force_kernel`] / [`reset_kernel`] override the selection at runtime
//!   (tests, benchmarks); forcing an unsupported kernel is an error, so the
//!   dispatch table never holds a function pointer the host cannot execute.
//! * Every kernel is **bit-identical** to the scalar reference — the
//!   differential tests in this module and the crate's proptests enforce it —
//!   so switching kernels mid-run is always safe, merely faster or slower.
//!
//! Each [`Kernel`] also exposes checked per-kernel slice ops
//! ([`Kernel::mul_slice`] etc.) that bypass the global selection entirely;
//! the differential suite uses them to pin every compiled-in kernel against
//! [`Kernel::Scalar`] without touching process-wide state.
//!
//! See `docs/KERNELS.md` for the safety argument of each intrinsic block and
//! the checklist for adding a new ISA.

use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use crate::bulk8::{CoeffTables, MulTable};
use crate::{GaloisField, Gf256};

/// Environment variable consulted once, at first dispatch, to pin the kernel
/// (`scalar`, `ssse3`, `avx2`, `gfni`, `neon`, or `auto`; case-insensitive).
///
/// Unknown or unsupported values fall back to auto-detection with a warning
/// on stderr rather than failing, so a stale override never breaks serving.
pub const KERNEL_ENV: &str = "SEC_GF_KERNEL";

/// Bytes of destination processed per strip by the fused drivers
/// ([`matrix_apply_with`] / [`xor_accumulate_with`]): the destination strip
/// stays L1-resident while every source row is applied to it.
pub(crate) const DRIVER_STRIP: usize = 4096;

/// Most sources a [`MatrixTile`] takes at once — what fits in registers next
/// to an accumulator. Wider matrices are applied [`TILE_COLS`] columns at a
/// time, the later passes accumulating.
pub(crate) const TILE_COLS: usize = 8;

/// One implementation of the `GF(2^8)` slice kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Portable scalar loops over the flattened 256-entry table — the
    /// reference implementation every SIMD kernel is tested against.
    Scalar,
    /// x86_64 `PSHUFB` nibble lookups on 16-byte registers (SSSE3, 2006+).
    Ssse3,
    /// x86_64 `VPSHUFB` nibble lookups on 32-byte registers (AVX2, 2013+).
    Avx2,
    /// x86_64 `VGF2P8AFFINEQB` bit-matrix products on 64-byte registers
    /// (GFNI with AVX-512F, 2019+).
    Gfni,
    /// aarch64 `TBL` nibble lookups on 16-byte registers (`vqtbl1q_u8`).
    Neon,
}

impl Kernel {
    /// Every kernel this crate knows about, supported on this host or not.
    pub const ALL: [Kernel; 5] = [
        Kernel::Scalar,
        Kernel::Ssse3,
        Kernel::Avx2,
        Kernel::Gfni,
        Kernel::Neon,
    ];

    /// The kernel's lower-case name as accepted by [`KERNEL_ENV`].
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Ssse3 => "ssse3",
            Kernel::Avx2 => "avx2",
            Kernel::Gfni => "gfni",
            Kernel::Neon => "neon",
        }
    }

    /// Parses a kernel name (case-insensitive). `None` for unknown names.
    pub fn from_name(name: &str) -> Option<Kernel> {
        Kernel::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(name))
    }

    /// Whether this kernel can execute on the current host (compiled in for
    /// this architecture *and* the CPU reports the instruction set).
    pub fn is_supported(self) -> bool {
        match self {
            Kernel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Kernel::Ssse3 => std::arch::is_x86_feature_detected!("ssse3"),
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            // AVX2 too: its XOR loop serves this kernel.
            #[cfg(target_arch = "x86_64")]
            Kernel::Gfni => {
                std::arch::is_x86_feature_detected!("gfni")
                    && std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx2")
            }
            #[cfg(target_arch = "aarch64")]
            Kernel::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            #[allow(
                unreachable_patterns,
                reason = "every variant has an arm on x86_64; other targets lack some"
            )]
            _ => false,
        }
    }

    /// All kernels supported on this host, scalar first.
    pub fn available() -> Vec<Kernel> {
        Kernel::ALL.into_iter().filter(|k| k.is_supported()).collect()
    }

    /// Computes `dst[i] = table.mul(src[i])` with this kernel, bypassing the
    /// global dispatch. Raw table op: no `c = 0` / `c = 1` fast paths.
    ///
    /// # Errors
    ///
    /// Returns [`UnsupportedKernel`] when the host cannot run this kernel.
    ///
    /// # Panics
    ///
    /// Panics if `dst` and `src` have different lengths.
    pub fn mul_slice(
        self,
        table: &MulTable,
        src: &[u8],
        dst: &mut [u8],
    ) -> Result<(), UnsupportedKernel> {
        crate::bulk8::assert_slice_lengths("mul_slice", dst.len(), src.len());
        (self.checked_ops()?.mul)(table, src, dst);
        Ok(())
    }

    /// Computes `dst[i] ^= table.mul(src[i])` with this kernel, bypassing the
    /// global dispatch. Raw table op: no `c = 0` / `c = 1` fast paths.
    ///
    /// # Errors
    ///
    /// Returns [`UnsupportedKernel`] when the host cannot run this kernel.
    ///
    /// # Panics
    ///
    /// Panics if `dst` and `src` have different lengths.
    pub fn mul_add_slice(
        self,
        table: &MulTable,
        src: &[u8],
        dst: &mut [u8],
    ) -> Result<(), UnsupportedKernel> {
        crate::bulk8::assert_slice_lengths("mul_add_slice", dst.len(), src.len());
        (self.checked_ops()?.mul_add)(table, src, dst);
        Ok(())
    }

    /// Computes `dst[i] ^= src[i]` with this kernel, bypassing the global
    /// dispatch.
    ///
    /// # Errors
    ///
    /// Returns [`UnsupportedKernel`] when the host cannot run this kernel.
    ///
    /// # Panics
    ///
    /// Panics if `dst` and `src` have different lengths.
    pub fn xor_slice(self, src: &[u8], dst: &mut [u8]) -> Result<(), UnsupportedKernel> {
        crate::bulk8::assert_slice_lengths("xor_accumulate", dst.len(), src.len());
        (self.checked_ops()?.xor)(src, dst);
        Ok(())
    }

    /// The matrix apply ([`CoeffTables::matrix_apply`]) with this kernel,
    /// bypassing the global dispatch.
    ///
    /// # Errors
    ///
    /// Returns [`UnsupportedKernel`] when the host cannot run this kernel.
    ///
    /// # Panics
    ///
    /// As for [`CoeffTables::matrix_apply`].
    pub fn matrix_apply(
        self,
        tables: &CoeffTables,
        coeffs: &[Gf256],
        srcs: &[&[u8]],
        dsts: &mut [&mut [u8]],
        accumulate: bool,
    ) -> Result<(), UnsupportedKernel> {
        let ops = self.checked_ops()?;
        crate::bulk8::assert_matrix_shape(coeffs.len(), srcs, 1, dsts);
        matrix_apply_with(ops, tables, coeffs, srcs, 1, dsts, accumulate);
        Ok(())
    }

    /// The matrix apply over summed sources
    /// ([`CoeffTables::matrix_apply_summed`]) with this kernel, bypassing the
    /// global dispatch.
    ///
    /// # Errors
    ///
    /// Returns [`UnsupportedKernel`] when the host cannot run this kernel.
    ///
    /// # Panics
    ///
    /// As for [`CoeffTables::matrix_apply_summed`].
    pub fn matrix_apply_summed(
        self,
        tables: &CoeffTables,
        coeffs: &[Gf256],
        srcs: &[&[u8]],
        members: usize,
        dsts: &mut [&mut [u8]],
        accumulate: bool,
    ) -> Result<(), UnsupportedKernel> {
        let ops = self.checked_ops()?;
        crate::bulk8::assert_matrix_shape(coeffs.len(), srcs, members, dsts);
        matrix_apply_with(ops, tables, coeffs, srcs, members, dsts, accumulate);
        Ok(())
    }

    /// Multi-row XOR accumulation (`dst[i] ^= src_1[i] ^ … ^ src_m[i]`) with
    /// this kernel, bypassing the global dispatch.
    ///
    /// # Errors
    ///
    /// Returns [`UnsupportedKernel`] when the host cannot run this kernel.
    ///
    /// # Panics
    ///
    /// Panics if any source length differs from `dst`.
    pub fn xor_accumulate(self, dst: &mut [u8], srcs: &[&[u8]]) -> Result<(), UnsupportedKernel> {
        for src in srcs {
            crate::bulk8::assert_slice_lengths("xor_accumulate", dst.len(), src.len());
        }
        xor_accumulate_with(self.checked_ops()?, dst, srcs);
        Ok(())
    }

    fn checked_ops(self) -> Result<&'static KernelOps, UnsupportedKernel> {
        if self.is_supported() {
            Ok(ops_of(self))
        } else {
            Err(UnsupportedKernel { kernel: self })
        }
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned by [`force_kernel`] and the per-kernel slice ops when the
/// requested kernel cannot execute on this host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsupportedKernel {
    /// The kernel that is unavailable here.
    pub kernel: Kernel,
}

impl fmt::Display for UnsupportedKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "kernel `{}` is not supported on this host", self.kernel.name())
    }
}

impl std::error::Error for UnsupportedKernel {}

/// One register tile of the matrix apply, over the bytes `span` of every
/// slice: `dsts[r] (=|^=) Σ_c tables[r·stride + c] · Σ_j srcs[j·C + c]` for
/// `members` (the fourth argument) runs of `C ∈ 1..=`[`TILE_COLS`] sources
/// and any number of rows, the last argument choosing `^=`. Each column's
/// members are loaded once and XORed in a register, every row is summed in
/// a register and written once.
pub(crate) type MatrixTile =
    fn(&[&MulTable], usize, &[&[u8]], usize, &mut [&mut [u8]], Range<usize>, bool);

/// The dispatch table: one function pointer per slice op. The matrix apply
/// and `xor_accumulate` are derived by the strip drivers below, so a kernel
/// only has to supply the three primitive ops.
#[derive(Debug)]
pub(crate) struct KernelOps {
    /// `dst[i] = table.mul(src[i])`; lengths pre-checked equal by callers.
    pub(crate) mul: fn(&MulTable, &[u8], &mut [u8]),
    /// `dst[i] ^= table.mul(src[i])`; lengths pre-checked equal by callers.
    pub(crate) mul_add: fn(&MulTable, &[u8], &mut [u8]),
    /// `dst[i] ^= src[i]`; lengths pre-checked equal by callers.
    pub(crate) xor: fn(&[u8], &mut [u8]),
    /// The kernel's own matrix tile; without one, [`product_rows`] composes
    /// the tile from `mul` and `mul_add`.
    pub(crate) matrix_tile: Option<MatrixTile>,
}

static SCALAR_OPS: KernelOps = KernelOps {
    mul: scalar::mul,
    mul_add: scalar::mul_add,
    xor: scalar::xor,
    matrix_tile: None,
};

#[cfg(target_arch = "x86_64")]
static SSSE3_OPS: KernelOps = KernelOps {
    mul: ssse3::mul,
    mul_add: ssse3::mul_add,
    xor: ssse3::xor,
    matrix_tile: None,
};

#[cfg(target_arch = "x86_64")]
static AVX2_OPS: KernelOps = KernelOps {
    mul: avx2::mul,
    mul_add: avx2::mul_add,
    xor: avx2::xor,
    matrix_tile: Some(avx2::matrix_tile),
};

#[cfg(target_arch = "x86_64")]
static GFNI_OPS: KernelOps = KernelOps {
    mul: gfni::product::<false>,
    mul_add: gfni::product::<true>,
    xor: avx2::xor,
    matrix_tile: Some(gfni::matrix_tile),
};

#[cfg(target_arch = "aarch64")]
static NEON_OPS: KernelOps = KernelOps {
    mul: neon::mul,
    mul_add: neon::mul_add,
    xor: neon::xor,
    matrix_tile: None,
};

/// The ops table for `kernel`. Architecture-absent kernels map to scalar;
/// [`Kernel::checked_ops`] and [`force_kernel`] reject them before this
/// fallback can matter.
pub(crate) fn ops_of(kernel: Kernel) -> &'static KernelOps {
    match kernel {
        Kernel::Scalar => &SCALAR_OPS,
        #[cfg(target_arch = "x86_64")]
        Kernel::Ssse3 => &SSSE3_OPS,
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => &AVX2_OPS,
        #[cfg(target_arch = "x86_64")]
        Kernel::Gfni => &GFNI_OPS,
        #[cfg(target_arch = "aarch64")]
        Kernel::Neon => &NEON_OPS,
        #[allow(
            unreachable_patterns,
            reason = "every variant has an arm on x86_64; other targets lack some"
        )]
        _ => &SCALAR_OPS,
    }
}

/// The ops table the `bulk8` entry points route through right now.
pub(crate) fn active_ops() -> &'static KernelOps {
    ops_of(active_kernel())
}

/// Forced-kernel selector: 0 = auto (use [`detected`]), otherwise
/// `code_of(kernel)`. A plain byte because there is nothing to synchronize —
/// every kernel computes identical bytes, so racing readers are benign.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// The auto-detected kernel, resolved once (env override, then CPU probe).
static DETECTED: OnceLock<Kernel> = OnceLock::new();

fn code_of(kernel: Kernel) -> u8 {
    match kernel {
        Kernel::Scalar => 1,
        Kernel::Ssse3 => 2,
        Kernel::Avx2 => 3,
        Kernel::Neon => 4,
        Kernel::Gfni => 5,
    }
}

fn kernel_of(code: u8) -> Option<Kernel> {
    Kernel::ALL.into_iter().find(|&k| code_of(k) == code)
}

/// Best kernel the CPU supports: GFNI over AVX2 over SSSE3 over NEON over
/// scalar.
fn auto_detect() -> Kernel {
    [Kernel::Gfni, Kernel::Avx2, Kernel::Ssse3, Kernel::Neon]
        .into_iter()
        .find(|k| k.is_supported())
        .unwrap_or(Kernel::Scalar)
}

/// Resolves (once) the [`KERNEL_ENV`] override or the CPU probe.
fn detected() -> Kernel {
    *DETECTED.get_or_init(|| {
        let Ok(value) = std::env::var(KERNEL_ENV) else {
            return auto_detect();
        };
        let name = value.trim();
        if name.is_empty() || name.eq_ignore_ascii_case("auto") {
            return auto_detect();
        }
        match Kernel::from_name(name) {
            Some(kernel) if kernel.is_supported() => kernel,
            Some(kernel) => {
                eprintln!(
                    "sec-gf: {KERNEL_ENV}={name} requests kernel `{}`, which this host \
                     does not support; falling back to auto-detection",
                    kernel.name()
                );
                auto_detect()
            }
            None => {
                eprintln!(
                    "sec-gf: unknown {KERNEL_ENV} value {name:?} \
                     (expected scalar|ssse3|avx2|gfni|neon|auto); falling back to auto-detection"
                );
                auto_detect()
            }
        }
    })
}

/// The kernel every `bulk8` entry point currently dispatches to: the forced
/// selection if one is in effect, otherwise the once-resolved detection.
pub fn active_kernel() -> Kernel {
    #[expect(
        clippy::disallowed_methods,
        reason = "one-byte kernel selector; every kernel computes bit-identical results, so a \
                  racing reader merely runs a different-speed implementation"
    )]
    let forced = FORCED.load(Ordering::Relaxed);
    match kernel_of(forced) {
        Some(kernel) => kernel,
        None => detected(),
    }
}

/// Forces all subsequent `bulk8` dispatch onto `kernel`, returning the
/// previously active kernel so callers (tests, benchmarks) can restore it.
///
/// # Errors
///
/// Returns [`UnsupportedKernel`] — and leaves the selection unchanged — when
/// the host cannot execute `kernel`, so the dispatch table never points at an
/// instruction set the CPU lacks.
pub fn force_kernel(kernel: Kernel) -> Result<Kernel, UnsupportedKernel> {
    if !kernel.is_supported() {
        return Err(UnsupportedKernel { kernel });
    }
    let previous = active_kernel();
    #[expect(
        clippy::disallowed_methods,
        reason = "one-byte kernel selector; all kernels are bit-identical, so readers that race \
                  this store compute the same bytes either way"
    )]
    FORCED.store(code_of(kernel), Ordering::Relaxed);
    Ok(previous)
}

/// Clears any [`force_kernel`] override, returning dispatch to the
/// auto-detected (or [`KERNEL_ENV`]-pinned) kernel, which is also returned.
pub fn reset_kernel() -> Kernel {
    #[expect(
        clippy::disallowed_methods,
        reason = "one-byte kernel selector; all kernels are bit-identical, so readers that race \
                  this store compute the same bytes either way"
    )]
    FORCED.store(0, Ordering::Relaxed);
    detected()
}

/// The matrix apply over `ops`: `dsts[r] (=|^=) Σ_c coeffs[r·cols + c] ·
/// Σ_j srcs[j·cols + c]` — `members` runs of `cols` sources, each column the
/// XOR of its members (one member is the plain apply) — shape and lengths
/// pre-checked by the caller. A unit row is a copy (or an XOR) of its
/// column's members and an all-zero row a zero fill (or nothing); each run
/// of other rows between two such rows goes through [`dense_rows`].
pub(crate) fn matrix_apply_with(
    ops: &KernelOps,
    tables: &CoeffTables,
    coeffs: &[Gf256],
    srcs: &[&[u8]],
    members: usize,
    dsts: &mut [&mut [u8]],
    accumulate: bool,
) {
    let cols = srcs.len() / members;
    let trivial_of = |r: usize| trivial_row(&coeffs[r * cols..(r + 1) * cols]);
    let mut run_tables: Vec<&MulTable> = Vec::new();
    let mut r = 0;
    while r < dsts.len() {
        match trivial_of(r) {
            Some(TrivialRow::Copy(col)) => {
                for (member, src) in srcs.iter().skip(col).step_by(cols).enumerate() {
                    if member == 0 && !accumulate {
                        dsts[r].copy_from_slice(src);
                    } else {
                        (ops.xor)(src, dsts[r]);
                    }
                }
            }
            Some(TrivialRow::Zero) if accumulate => {}
            Some(TrivialRow::Zero) => dsts[r].fill(0),
            None => {
                let end = (r + 1..dsts.len())
                    .find(|&next| trivial_of(next).is_some())
                    .unwrap_or(dsts.len());
                run_tables.clear();
                run_tables.extend(
                    coeffs[r * cols..end * cols]
                        .iter()
                        .map(|&coeff| tables.get(coeff)),
                );
                dense_rows(ops, &run_tables, srcs, members, &mut dsts[r..end], accumulate);
                r = end;
                continue;
            }
        }
        r += 1;
    }
}

/// The rows of a matrix apply that are real products, `tables` holding their
/// `dsts.len() × cols` coefficients over `members` runs of `cols` sources:
/// through the kernel's tile one [`DRIVER_STRIP`] and at most [`TILE_COLS`]
/// columns at a time, so the destination strips stay L1-resident between
/// column passes — or, for a kernel without a tile, between the single
/// products of [`product_rows`]. A tile gets every member of its columns and
/// sums them in registers as it loads them.
fn dense_rows(
    ops: &KernelOps,
    tables: &[&MulTable],
    srcs: &[&[u8]],
    members: usize,
    dsts: &mut [&mut [u8]],
    accumulate: bool,
) {
    let (cols, len) = (srcs.len() / members, dsts[0].len());
    // A column tile's sources, member by member, when there is more than one.
    let mut gathered: Vec<&[u8]> = Vec::new();
    for start in (0..len).step_by(DRIVER_STRIP) {
        let span = start..(start + DRIVER_STRIP).min(len);
        let Some(tile) = ops.matrix_tile else {
            product_rows(ops, tables, cols, srcs, members, dsts, span, accumulate);
            continue;
        };
        for col in (0..cols).step_by(TILE_COLS) {
            let width = TILE_COLS.min(cols - col);
            let tile_srcs = if members == 1 {
                &srcs[col..col + width]
            } else {
                gathered.clear();
                for run in srcs.chunks_exact(cols) {
                    gathered.extend_from_slice(&run[col..col + width]);
                }
                &gathered[..]
            };
            let later = accumulate || col > 0;
            tile(
                &tables[col..],
                cols,
                tile_srcs,
                members,
                dsts,
                span.clone(),
                later,
            );
        }
    }
}

/// A coefficient row the driver serves without a table.
enum TrivialRow {
    /// The only non-zero coefficient is a one in this column — the rows a
    /// systematic code copies.
    Copy(usize),
    /// Every coefficient is zero — among others, a systematic unit row over
    /// a source the caller left out because it is all zero.
    Zero,
}

/// How the driver serves `row` without a table, `None` for a row of real
/// products.
fn trivial_row(row: &[Gf256]) -> Option<TrivialRow> {
    let mut nonzero = row.iter().enumerate().filter(|(_, coeff)| !coeff.is_zero());
    match (nonzero.next(), nonzero.next()) {
        (None, _) => Some(TrivialRow::Zero),
        (Some((col, &coeff)), None) if coeff == Gf256::ONE => Some(TrivialRow::Copy(col)),
        _ => None,
    }
}

/// A [`MatrixTile`] of any width out of `ops`' single products: per row, one
/// product per column and member — the first a plain multiply (a
/// multiply-accumulate when accumulating), every further one a
/// multiply-accumulate. Also the scalar tail of the SIMD tiles.
#[allow(
    clippy::too_many_arguments,
    reason = "a `MatrixTile`'s seven parameters plus the ops table it runs on"
)]
fn product_rows(
    ops: &KernelOps,
    tables: &[&MulTable],
    stride: usize,
    srcs: &[&[u8]],
    members: usize,
    dsts: &mut [&mut [u8]],
    span: Range<usize>,
    accumulate: bool,
) {
    let cols = srcs.len() / members;
    for (r, dst) in dsts.iter_mut().enumerate() {
        let dst = &mut dst[span.clone()];
        let mut fresh = !accumulate;
        for (c, table) in tables[r * stride..][..cols].iter().enumerate() {
            if table.mul(1) == 0 {
                continue; // a zero coefficient
            }
            for src in srcs.iter().skip(c).step_by(cols) {
                let op = if fresh { ops.mul } else { ops.mul_add };
                op(table, &src[span.clone()], dst);
                fresh = false;
            }
        }
        if fresh {
            dst.fill(0);
        }
    }
}

/// The part of a tile's `span` a `width`-byte SIMD body covers, after the
/// checks its pointer arithmetic rests on: `members` runs of a source count
/// the tile is compiled for, and `span` inside every source and destination.
#[cfg(target_arch = "x86_64")]
fn tile_main(
    srcs: &[&[u8]],
    members: usize,
    dsts: &[&mut [u8]],
    span: &Range<usize>,
    width: usize,
) -> Range<usize> {
    assert!(
        members > 0 && srcs.len().is_multiple_of(members),
        "a tile takes {members} equal runs of sources"
    );
    assert!(
        (1..=TILE_COLS).contains(&(srcs.len() / members)),
        "a tile takes 1..={TILE_COLS} sources per run"
    );
    assert!(span.start <= span.end, "tile span is reversed");
    let mut lens = srcs
        .iter()
        .map(|src| src.len())
        .chain(dsts.iter().map(|dst| dst.len()));
    assert!(lens.all(|len| span.end <= len), "tile span exceeds a slice");
    span.start..span.end - (span.end - span.start) % width
}

/// Multi-row XOR accumulation over `ops`, strip-tiled like
/// [`matrix_apply_with`]. Lengths must be pre-checked by the caller.
pub(crate) fn xor_accumulate_with(ops: &KernelOps, dst: &mut [u8], srcs: &[&[u8]]) {
    let len = dst.len();
    let mut start = 0;
    while start < len {
        let end = (start + DRIVER_STRIP).min(len);
        let strip = &mut dst[start..end];
        for src in srcs {
            (ops.xor)(&src[start..end], strip);
        }
        start = end;
    }
}

/// Portable scalar kernels: flattened-table loops over [`CHUNK`]-byte blocks,
/// identical in structure to the pre-SIMD `bulk8` implementation. This is the
/// reference every SIMD kernel is differentially tested against.
///
/// [`CHUNK`]: crate::bulk8::CHUNK
mod scalar {
    use crate::bulk8::{MulTable, CHUNK};

    pub(super) fn mul(table: &MulTable, src: &[u8], dst: &mut [u8]) {
        let mut d = dst.chunks_exact_mut(CHUNK);
        let mut s = src.chunks_exact(CHUNK);
        for (dc, sc) in (&mut d).zip(&mut s) {
            for i in 0..CHUNK {
                dc[i] = table.mul(sc[i]);
            }
        }
        for (db, &sb) in d.into_remainder().iter_mut().zip(s.remainder()) {
            *db = table.mul(sb);
        }
    }

    pub(super) fn mul_add(table: &MulTable, src: &[u8], dst: &mut [u8]) {
        let mut d = dst.chunks_exact_mut(CHUNK);
        let mut s = src.chunks_exact(CHUNK);
        for (dc, sc) in (&mut d).zip(&mut s) {
            for i in 0..CHUNK {
                dc[i] ^= table.mul(sc[i]);
            }
        }
        for (db, &sb) in d.into_remainder().iter_mut().zip(s.remainder()) {
            *db ^= table.mul(sb);
        }
    }

    pub(super) fn xor(src: &[u8], dst: &mut [u8]) {
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= s;
        }
    }
}

/// SSSE3 kernels: `PSHUFB` nibble lookups on 16-byte registers, two blocks
/// per iteration. Safe wrappers run the SIMD body over the largest 16-byte
/// prefix and finish the tail with the scalar table.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code, reason = "SIMD intrinsics behind runtime feature detection")]
mod ssse3 {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_loadu_si128, _mm_set1_epi8, _mm_shuffle_epi8, _mm_srli_epi16,
        _mm_storeu_si128, _mm_xor_si128,
    };

    use crate::bulk8::MulTable;

    /// One 16-lane shuffle multiply: `lo[x & 0xF] ^ hi[x >> 4]` per byte.
    /// `_mm_srli_epi16` shifts bits across byte-lane boundaries, so the high
    /// nibble is masked back to 4 bits before indexing the table.
    ///
    /// # Safety
    ///
    /// Pure register arithmetic (no memory access); only called from
    /// SSSE3-gated fns that the dispatcher installs after is_x86_feature_detected!("ssse3")
    #[inline]
    #[target_feature(enable = "ssse3")]
    unsafe fn mul16(lo: __m128i, hi: __m128i, mask: __m128i, x: __m128i) -> __m128i {
        let lo_nib = _mm_and_si128(x, mask);
        let hi_nib = _mm_and_si128(_mm_srli_epi16::<4>(x), mask);
        _mm_xor_si128(_mm_shuffle_epi8(lo, lo_nib), _mm_shuffle_epi8(hi, hi_nib))
    }

    /// # Safety
    ///
    /// SSSE3 is guaranteed by the caller; every unaligned 16-byte
    /// load/store offset i satisfies i + 16 <= len for both slices, whose lengths the
    /// safe wrapper checked equal and trimmed to a multiple of 16
    #[target_feature(enable = "ssse3")]
    unsafe fn mul_impl(table: &MulTable, src: &[u8], dst: &mut [u8]) {
        debug_assert_eq!(src.len(), dst.len());
        debug_assert_eq!(src.len() % 16, 0);
        let lo = _mm_loadu_si128(table.low_nibble().as_ptr() as *const __m128i);
        let hi = _mm_loadu_si128(table.high_nibble().as_ptr() as *const __m128i);
        let mask = _mm_set1_epi8(0x0f);
        let (s, d, len) = (src.as_ptr(), dst.as_mut_ptr(), dst.len());
        let mut i = 0;
        while i + 32 <= len {
            let r0 = mul16(lo, hi, mask, _mm_loadu_si128(s.add(i) as *const __m128i));
            let r1 = mul16(lo, hi, mask, _mm_loadu_si128(s.add(i + 16) as *const __m128i));
            _mm_storeu_si128(d.add(i) as *mut __m128i, r0);
            _mm_storeu_si128(d.add(i + 16) as *mut __m128i, r1);
            i += 32;
        }
        if i < len {
            let r = mul16(lo, hi, mask, _mm_loadu_si128(s.add(i) as *const __m128i));
            _mm_storeu_si128(d.add(i) as *mut __m128i, r);
        }
    }

    /// # Safety
    ///
    /// SSSE3 is guaranteed by the caller; every unaligned 16-byte
    /// load/store offset i satisfies i + 16 <= len for both slices, whose lengths the
    /// safe wrapper checked equal and trimmed to a multiple of 16
    #[target_feature(enable = "ssse3")]
    unsafe fn mul_add_impl(table: &MulTable, src: &[u8], dst: &mut [u8]) {
        debug_assert_eq!(src.len(), dst.len());
        debug_assert_eq!(src.len() % 16, 0);
        let lo = _mm_loadu_si128(table.low_nibble().as_ptr() as *const __m128i);
        let hi = _mm_loadu_si128(table.high_nibble().as_ptr() as *const __m128i);
        let mask = _mm_set1_epi8(0x0f);
        let (s, d, len) = (src.as_ptr(), dst.as_mut_ptr(), dst.len());
        let mut i = 0;
        while i + 32 <= len {
            let r0 = mul16(lo, hi, mask, _mm_loadu_si128(s.add(i) as *const __m128i));
            let r1 = mul16(lo, hi, mask, _mm_loadu_si128(s.add(i + 16) as *const __m128i));
            let d0 = _mm_loadu_si128(d.add(i) as *const __m128i);
            let d1 = _mm_loadu_si128(d.add(i + 16) as *const __m128i);
            _mm_storeu_si128(d.add(i) as *mut __m128i, _mm_xor_si128(d0, r0));
            _mm_storeu_si128(d.add(i + 16) as *mut __m128i, _mm_xor_si128(d1, r1));
            i += 32;
        }
        if i < len {
            let r = mul16(lo, hi, mask, _mm_loadu_si128(s.add(i) as *const __m128i));
            let d0 = _mm_loadu_si128(d.add(i) as *const __m128i);
            _mm_storeu_si128(d.add(i) as *mut __m128i, _mm_xor_si128(d0, r));
        }
    }

    /// # Safety
    ///
    /// SSE2 (baseline on every x86_64) loads/stores; every 16-byte
    /// offset i satisfies i + 16 <= len for both slices, whose lengths the safe wrapper
    /// checked equal and trimmed to a multiple of 16
    unsafe fn xor_impl(src: &[u8], dst: &mut [u8]) {
        debug_assert_eq!(src.len(), dst.len());
        debug_assert_eq!(src.len() % 16, 0);
        let (s, d, len) = (src.as_ptr(), dst.as_mut_ptr(), dst.len());
        let mut i = 0;
        while i < len {
            let x = _mm_xor_si128(
                _mm_loadu_si128(s.add(i) as *const __m128i),
                _mm_loadu_si128(d.add(i) as *const __m128i),
            );
            _mm_storeu_si128(d.add(i) as *mut __m128i, x);
            i += 16;
        }
    }

    pub(super) fn mul(table: &MulTable, src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "kernel ops require equal slice lengths");
        let main = dst.len() - dst.len() % 16;
        // SAFETY: SSSE3 support was verified by Kernel::is_supported before
        // this fn pointer was installed; the impl touches only the first `main` bytes,
        // a multiple of 16 within both slices
        unsafe { mul_impl(table, &src[..main], &mut dst[..main]) };
        for i in main..dst.len() {
            dst[i] = table.mul(src[i]);
        }
    }

    pub(super) fn mul_add(table: &MulTable, src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "kernel ops require equal slice lengths");
        let main = dst.len() - dst.len() % 16;
        // SAFETY: SSSE3 support was verified by Kernel::is_supported before
        // this fn pointer was installed; the impl touches only the first `main` bytes,
        // a multiple of 16 within both slices
        unsafe { mul_add_impl(table, &src[..main], &mut dst[..main]) };
        for i in main..dst.len() {
            dst[i] ^= table.mul(src[i]);
        }
    }

    pub(super) fn xor(src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "kernel ops require equal slice lengths");
        let main = dst.len() - dst.len() % 16;
        // SAFETY: SSE2 is baseline on x86_64; the impl touches only the
        // first `main` bytes, a multiple of 16 within both slices
        unsafe { xor_impl(&src[..main], &mut dst[..main]) };
        for i in main..dst.len() {
            dst[i] ^= src[i];
        }
    }
}

/// AVX2 kernels: `VPSHUFB` nibble lookups on 32-byte registers (the 16-entry
/// split tables broadcast to both 128-bit lanes), two blocks per iteration.
/// Safe wrappers run the SIMD body over the largest 32-byte prefix and finish
/// the tail with the scalar table.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code, reason = "SIMD intrinsics behind runtime feature detection")]
mod avx2 {
    use std::arch::x86_64::{
        __m128i, __m256i, _mm256_and_si256, _mm256_broadcastsi128_si256, _mm256_loadu_si256,
        _mm256_set1_epi8, _mm256_setzero_si256, _mm256_shuffle_epi8, _mm256_srli_epi16,
        _mm256_storeu_si256, _mm256_xor_si256, _mm_loadu_si128,
    };
    use std::ops::Range;

    use crate::bulk8::MulTable;

    /// One 32-lane shuffle multiply. `VPSHUFB` shuffles within each 128-bit
    /// lane independently, which is exactly right here: both lanes hold the
    /// same broadcast 16-entry table.
    ///
    /// # Safety
    ///
    /// Pure register arithmetic (no memory access); only called from
    /// AVX2-gated fns that the dispatcher installs after is_x86_feature_detected!("avx2")
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mul32(lo: __m256i, hi: __m256i, mask: __m256i, x: __m256i) -> __m256i {
        let lo_nib = _mm256_and_si256(x, mask);
        let hi_nib = _mm256_and_si256(_mm256_srli_epi16::<4>(x), mask);
        _mm256_xor_si256(_mm256_shuffle_epi8(lo, lo_nib), _mm256_shuffle_epi8(hi, hi_nib))
    }

    /// Loads one 16-entry split table and broadcasts it to both lanes.
    ///
    /// # Safety
    ///
    /// Reads exactly 16 bytes from a &[u8; 16] via unaligned load;
    /// only called from AVX2-gated fns installed after feature detection
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn broadcast_table(table: &[u8; 16]) -> __m256i {
        _mm256_broadcastsi128_si256(_mm_loadu_si128(table.as_ptr() as *const __m128i))
    }

    /// # Safety
    ///
    /// AVX2 is guaranteed by the caller; every unaligned 32-byte
    /// load/store offset i satisfies i + 32 <= len for both slices, whose lengths the
    /// safe wrapper checked equal and trimmed to a multiple of 32
    #[target_feature(enable = "avx2")]
    unsafe fn mul_impl(table: &MulTable, src: &[u8], dst: &mut [u8]) {
        debug_assert_eq!(src.len(), dst.len());
        debug_assert_eq!(src.len() % 32, 0);
        let lo = broadcast_table(table.low_nibble());
        let hi = broadcast_table(table.high_nibble());
        let mask = _mm256_set1_epi8(0x0f);
        let (s, d, len) = (src.as_ptr(), dst.as_mut_ptr(), dst.len());
        let mut i = 0;
        while i + 64 <= len {
            let r0 = mul32(lo, hi, mask, _mm256_loadu_si256(s.add(i) as *const __m256i));
            let r1 = mul32(lo, hi, mask, _mm256_loadu_si256(s.add(i + 32) as *const __m256i));
            _mm256_storeu_si256(d.add(i) as *mut __m256i, r0);
            _mm256_storeu_si256(d.add(i + 32) as *mut __m256i, r1);
            i += 64;
        }
        if i < len {
            let r = mul32(lo, hi, mask, _mm256_loadu_si256(s.add(i) as *const __m256i));
            _mm256_storeu_si256(d.add(i) as *mut __m256i, r);
        }
    }

    /// # Safety
    ///
    /// AVX2 is guaranteed by the caller; every unaligned 32-byte
    /// load/store offset i satisfies i + 32 <= len for both slices, whose lengths the
    /// safe wrapper checked equal and trimmed to a multiple of 32
    #[target_feature(enable = "avx2")]
    unsafe fn mul_add_impl(table: &MulTable, src: &[u8], dst: &mut [u8]) {
        debug_assert_eq!(src.len(), dst.len());
        debug_assert_eq!(src.len() % 32, 0);
        let lo = broadcast_table(table.low_nibble());
        let hi = broadcast_table(table.high_nibble());
        let mask = _mm256_set1_epi8(0x0f);
        let (s, d, len) = (src.as_ptr(), dst.as_mut_ptr(), dst.len());
        let mut i = 0;
        while i + 64 <= len {
            let r0 = mul32(lo, hi, mask, _mm256_loadu_si256(s.add(i) as *const __m256i));
            let r1 = mul32(lo, hi, mask, _mm256_loadu_si256(s.add(i + 32) as *const __m256i));
            let d0 = _mm256_loadu_si256(d.add(i) as *const __m256i);
            let d1 = _mm256_loadu_si256(d.add(i + 32) as *const __m256i);
            _mm256_storeu_si256(d.add(i) as *mut __m256i, _mm256_xor_si256(d0, r0));
            _mm256_storeu_si256(d.add(i + 32) as *mut __m256i, _mm256_xor_si256(d1, r1));
            i += 64;
        }
        if i < len {
            let r = mul32(lo, hi, mask, _mm256_loadu_si256(s.add(i) as *const __m256i));
            let d0 = _mm256_loadu_si256(d.add(i) as *const __m256i);
            _mm256_storeu_si256(d.add(i) as *mut __m256i, _mm256_xor_si256(d0, r));
        }
    }

    /// # Safety
    ///
    /// AVX2 is guaranteed by the caller; every unaligned 32-byte
    /// load/store offset i satisfies i + 32 <= len for both slices, whose lengths the
    /// safe wrapper checked equal and trimmed to a multiple of 32
    #[target_feature(enable = "avx2")]
    unsafe fn xor_impl(src: &[u8], dst: &mut [u8]) {
        debug_assert_eq!(src.len(), dst.len());
        debug_assert_eq!(src.len() % 32, 0);
        let (s, d, len) = (src.as_ptr(), dst.as_mut_ptr(), dst.len());
        let mut i = 0;
        while i < len {
            let x = _mm256_xor_si256(
                _mm256_loadu_si256(s.add(i) as *const __m256i),
                _mm256_loadu_si256(d.add(i) as *const __m256i),
            );
            _mm256_storeu_si256(d.add(i) as *mut __m256i, x);
            i += 32;
        }
    }

    /// The matrix tile for exactly `C` columns of `members` sources each,
    /// 32 bytes a step: every column's members are loaded and XORed once and
    /// its nibbles split once, staying in registers (the compiler unrolls the
    /// `C` loops) while each row looks its `2·C` tables up, sums them in one
    /// accumulator and stores it.
    ///
    /// # Safety
    ///
    /// AVX2 is guaranteed by the caller; every unaligned 32-byte
    /// load/store offset i satisfies span.start <= i and i + 32 <= span.end, and the safe
    /// wrapper checked that span is a multiple of 32 long and lies inside each of the
    /// members·C sources and every destination
    #[target_feature(enable = "avx2")]
    unsafe fn tile_impl<const C: usize>(
        tables: &[&MulTable],
        stride: usize,
        srcs: &[&[u8]],
        members: usize,
        dsts: &mut [&mut [u8]],
        span: Range<usize>,
        accumulate: bool,
    ) {
        debug_assert_eq!(srcs.len(), members * C);
        debug_assert_eq!(span.len() % 32, 0);
        let mask = _mm256_set1_epi8(0x0f);
        let mut lo = [_mm256_setzero_si256(); C];
        let mut hi = [_mm256_setzero_si256(); C];
        let mut i = span.start;
        while i < span.end {
            for c in 0..C {
                let mut x = _mm256_loadu_si256(srcs[c].as_ptr().add(i) as *const __m256i);
                for member in 1..members {
                    let y = _mm256_loadu_si256(srcs[member * C + c].as_ptr().add(i) as *const __m256i);
                    x = _mm256_xor_si256(x, y);
                }
                lo[c] = _mm256_and_si256(x, mask);
                hi[c] = _mm256_and_si256(_mm256_srli_epi16::<4>(x), mask);
            }
            for (r, dst) in dsts.iter_mut().enumerate() {
                let row = &tables[r * stride..][..C];
                let d = dst.as_mut_ptr().add(i) as *mut __m256i;
                let mut sum = if accumulate {
                    _mm256_loadu_si256(d)
                } else {
                    _mm256_setzero_si256()
                };
                for c in 0..C {
                    let low = _mm256_shuffle_epi8(broadcast_table(row[c].low_nibble()), lo[c]);
                    let high = _mm256_shuffle_epi8(broadcast_table(row[c].high_nibble()), hi[c]);
                    sum = _mm256_xor_si256(sum, _mm256_xor_si256(low, high));
                }
                _mm256_storeu_si256(d, sum);
            }
            i += 32;
        }
    }

    pub(super) fn matrix_tile(
        tables: &[&MulTable],
        stride: usize,
        srcs: &[&[u8]],
        members: usize,
        dsts: &mut [&mut [u8]],
        span: Range<usize>,
        accumulate: bool,
    ) {
        if dsts.len() == 1 && members == 1 {
            // Nothing shares the nibble split with a single row, and the
            // single products keep their tables in registers.
            let ops = &super::AVX2_OPS;
            return super::product_rows(ops, tables, stride, srcs, 1, dsts, span, accumulate);
        }
        let main = super::tile_main(srcs, members, dsts, &span, 32);
        let tile = match srcs.len() / members {
            1 => tile_impl::<1>,
            2 => tile_impl::<2>,
            3 => tile_impl::<3>,
            4 => tile_impl::<4>,
            5 => tile_impl::<5>,
            6 => tile_impl::<6>,
            7 => tile_impl::<7>,
            _ => tile_impl::<8>,
        };
        // SAFETY: AVX2 support was verified by Kernel::is_supported before
        // this fn pointer was installed; tile_main checked `members` runs of 1..=8 sources
        // (so the arm taken is compiled for exactly srcs.len() / members) and returned a
        // multiple of 32 bytes inside every source and destination
        unsafe { tile(tables, stride, srcs, members, dsts, main.clone(), accumulate) };
        let tail = main.end..span.end;
        let ops = &super::SCALAR_OPS;
        super::product_rows(ops, tables, stride, srcs, members, dsts, tail, accumulate);
    }

    pub(super) fn mul(table: &MulTable, src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "kernel ops require equal slice lengths");
        let main = dst.len() - dst.len() % 32;
        // SAFETY: AVX2 support was verified by Kernel::is_supported before
        // this fn pointer was installed; the impl touches only the first `main` bytes,
        // a multiple of 32 within both slices
        unsafe { mul_impl(table, &src[..main], &mut dst[..main]) };
        for i in main..dst.len() {
            dst[i] = table.mul(src[i]);
        }
    }

    pub(super) fn mul_add(table: &MulTable, src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "kernel ops require equal slice lengths");
        let main = dst.len() - dst.len() % 32;
        // SAFETY: AVX2 support was verified by Kernel::is_supported before
        // this fn pointer was installed; the impl touches only the first `main` bytes,
        // a multiple of 32 within both slices
        unsafe { mul_add_impl(table, &src[..main], &mut dst[..main]) };
        for i in main..dst.len() {
            dst[i] ^= table.mul(src[i]);
        }
    }

    pub(super) fn xor(src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "kernel ops require equal slice lengths");
        let main = dst.len() - dst.len() % 32;
        // SAFETY: AVX2 support was verified by Kernel::is_supported before
        // this fn pointer was installed; the impl touches only the first `main` bytes,
        // a multiple of 32 within both slices
        unsafe { xor_impl(&src[..main], &mut dst[..main]) };
        for i in main..dst.len() {
            dst[i] ^= src[i];
        }
    }
}

/// GFNI kernels: `VGF2P8AFFINEQB` multiplies every byte of a 64-byte register
/// by a coefficient's 8×8 bit-matrix ([`MulTable::affine_matrix`]) in one
/// instruction: a single product keeps that matrix in a register, the matrix
/// tile broadcasts one per product. The 32-byte (VEX) form would also run on
/// GFNI parts without AVX-512, and a `6 × 6` tile, which waits on memory,
/// measured the same on both; but a `(12, 6)` encode, 72 products a column,
/// took 54 µs on it against 38 µs here. Safe wrappers run the SIMD body over
/// the largest 64-byte prefix and finish the tail with the scalar table.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code, reason = "SIMD intrinsics behind runtime feature detection")]
mod gfni {
    use std::arch::x86_64::{
        __m512i, _mm512_gf2p8affine_epi64_epi8, _mm512_loadu_si512, _mm512_set1_epi64,
        _mm512_setzero_si512, _mm512_storeu_si512, _mm512_xor_si512,
    };
    use std::ops::Range;

    use crate::bulk8::MulTable;

    /// The matrix tile for exactly `C` columns of `members` sources each, 64
    /// bytes a step: every column's members are loaded and XORed once and the
    /// sum stays in a register (the compiler unrolls the `C` loops) while
    /// each row sums its `C` affine products in one accumulator and stores
    /// it.
    ///
    /// # Safety
    ///
    /// GFNI and AVX-512F are guaranteed by the caller; every unaligned
    /// 64-byte load/store offset i satisfies span.start <= i and i + 64 <= span.end, and
    /// the safe wrapper checked that span is a multiple of 64 long and lies inside each of
    /// the members·C sources and every destination
    #[target_feature(enable = "gfni,avx512f")]
    unsafe fn tile_impl<const C: usize>(
        tables: &[&MulTable],
        stride: usize,
        srcs: &[&[u8]],
        members: usize,
        dsts: &mut [&mut [u8]],
        span: Range<usize>,
        accumulate: bool,
    ) {
        debug_assert_eq!(srcs.len(), members * C);
        debug_assert_eq!(span.len() % 64, 0);
        let mut x = [_mm512_setzero_si512(); C];
        let mut i = span.start;
        while i < span.end {
            for c in 0..C {
                x[c] = _mm512_loadu_si512(srcs[c].as_ptr().add(i) as *const __m512i);
                for member in 1..members {
                    let y = _mm512_loadu_si512(srcs[member * C + c].as_ptr().add(i) as *const __m512i);
                    x[c] = _mm512_xor_si512(x[c], y);
                }
            }
            for (r, dst) in dsts.iter_mut().enumerate() {
                let row = &tables[r * stride..][..C];
                let d = dst.as_mut_ptr().add(i) as *mut __m512i;
                let mut sum = if accumulate {
                    _mm512_loadu_si512(d)
                } else {
                    _mm512_setzero_si512()
                };
                for c in 0..C {
                    let matrix = _mm512_set1_epi64(row[c].affine_matrix() as i64);
                    sum = _mm512_xor_si512(sum, _mm512_gf2p8affine_epi64_epi8::<0>(x[c], matrix));
                }
                _mm512_storeu_si512(d, sum);
            }
            i += 64;
        }
    }

    pub(super) fn matrix_tile(
        tables: &[&MulTable],
        stride: usize,
        srcs: &[&[u8]],
        members: usize,
        dsts: &mut [&mut [u8]],
        span: Range<usize>,
        accumulate: bool,
    ) {
        let main = super::tile_main(srcs, members, dsts, &span, 64);
        let tile = match srcs.len() / members {
            1 => tile_impl::<1>,
            2 => tile_impl::<2>,
            3 => tile_impl::<3>,
            4 => tile_impl::<4>,
            5 => tile_impl::<5>,
            6 => tile_impl::<6>,
            7 => tile_impl::<7>,
            _ => tile_impl::<8>,
        };
        // SAFETY: GFNI and AVX-512F support was verified by Kernel::is_supported
        // before this fn pointer was installed; tile_main checked `members` runs of 1..=8
        // sources (so the arm taken is compiled for exactly srcs.len() / members) and
        // returned a multiple of 64 bytes inside every source and destination
        unsafe { tile(tables, stride, srcs, members, dsts, main.clone(), accumulate) };
        let tail = main.end..span.end;
        let ops = &super::SCALAR_OPS;
        super::product_rows(ops, tables, stride, srcs, members, dsts, tail, accumulate);
    }

    /// One product with the matrix held in a register: `dst[i] = c·src[i]`,
    /// or `dst[i] ^= c·src[i]` when `ADD`.
    ///
    /// # Safety
    ///
    /// GFNI and AVX-512F are guaranteed by the caller; every unaligned
    /// 64-byte load/store offset i satisfies i + 64 <= len for both slices, whose lengths
    /// the safe wrapper checked equal and trimmed to a multiple of 64
    #[target_feature(enable = "gfni,avx512f")]
    unsafe fn product_impl<const ADD: bool>(table: &MulTable, src: &[u8], dst: &mut [u8]) {
        debug_assert_eq!(src.len(), dst.len());
        debug_assert_eq!(src.len() % 64, 0);
        let matrix = _mm512_set1_epi64(table.affine_matrix() as i64);
        let (s, d, len) = (src.as_ptr(), dst.as_mut_ptr(), dst.len());
        let mut i = 0;
        while i < len {
            let x = _mm512_loadu_si512(s.add(i) as *const __m512i);
            let mut product = _mm512_gf2p8affine_epi64_epi8::<0>(x, matrix);
            if ADD {
                product = _mm512_xor_si512(product, _mm512_loadu_si512(d.add(i) as *const __m512i));
            }
            _mm512_storeu_si512(d.add(i) as *mut __m512i, product);
            i += 64;
        }
    }

    /// `mul` (`ADD = false`) and `mul_add` (`ADD = true`) of the dispatch table.
    pub(super) fn product<const ADD: bool>(table: &MulTable, src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "kernel ops require equal slice lengths");
        let main = dst.len() - dst.len() % 64;
        // SAFETY: GFNI and AVX-512F support was verified by Kernel::is_supported
        // before this fn pointer was installed; the impl touches only the first `main`
        // bytes, a multiple of 64 within both slices
        unsafe { product_impl::<ADD>(table, &src[..main], &mut dst[..main]) };
        for i in main..dst.len() {
            dst[i] = if ADD { dst[i] } else { 0 } ^ table.mul(src[i]);
        }
    }
}

/// NEON kernels: `TBL` nibble lookups (`vqtbl1q_u8`) on 16-byte registers.
/// Safe wrappers run the SIMD body over the largest 16-byte prefix and finish
/// the tail with the scalar table.
#[cfg(target_arch = "aarch64")]
#[allow(unsafe_code, reason = "SIMD intrinsics behind runtime feature detection")]
mod neon {
    use std::arch::aarch64::{
        uint8x16_t, vandq_u8, vdupq_n_u8, veorq_u8, vld1q_u8, vqtbl1q_u8, vshrq_n_u8, vst1q_u8,
    };

    use crate::bulk8::MulTable;

    /// One 16-lane table-lookup multiply: `lo[x & 0xF] ^ hi[x >> 4]` per byte.
    ///
    /// # Safety
    ///
    /// Pure register arithmetic (no memory access); only called from
    /// NEON-gated fns that the dispatcher installs after is_aarch64_feature_detected!("neon")
    #[inline]
    #[target_feature(enable = "neon")]
    unsafe fn mul16(lo: uint8x16_t, hi: uint8x16_t, x: uint8x16_t) -> uint8x16_t {
        let lo_nib = vandq_u8(x, vdupq_n_u8(0x0f));
        let hi_nib = vshrq_n_u8::<4>(x);
        veorq_u8(vqtbl1q_u8(lo, lo_nib), vqtbl1q_u8(hi, hi_nib))
    }

    /// # Safety
    ///
    /// NEON is guaranteed by the caller; every 16-byte load/store
    /// offset i satisfies i + 16 <= len for both slices, whose lengths the safe wrapper
    /// checked equal and trimmed to a multiple of 16
    #[target_feature(enable = "neon")]
    unsafe fn mul_impl(table: &MulTable, src: &[u8], dst: &mut [u8]) {
        debug_assert_eq!(src.len(), dst.len());
        debug_assert_eq!(src.len() % 16, 0);
        let lo = vld1q_u8(table.low_nibble().as_ptr());
        let hi = vld1q_u8(table.high_nibble().as_ptr());
        let (s, d, len) = (src.as_ptr(), dst.as_mut_ptr(), dst.len());
        let mut i = 0;
        while i < len {
            vst1q_u8(d.add(i), mul16(lo, hi, vld1q_u8(s.add(i))));
            i += 16;
        }
    }

    /// # Safety
    ///
    /// NEON is guaranteed by the caller; every 16-byte load/store
    /// offset i satisfies i + 16 <= len for both slices, whose lengths the safe wrapper
    /// checked equal and trimmed to a multiple of 16
    #[target_feature(enable = "neon")]
    unsafe fn mul_add_impl(table: &MulTable, src: &[u8], dst: &mut [u8]) {
        debug_assert_eq!(src.len(), dst.len());
        debug_assert_eq!(src.len() % 16, 0);
        let lo = vld1q_u8(table.low_nibble().as_ptr());
        let hi = vld1q_u8(table.high_nibble().as_ptr());
        let (s, d, len) = (src.as_ptr(), dst.as_mut_ptr(), dst.len());
        let mut i = 0;
        while i < len {
            let r = mul16(lo, hi, vld1q_u8(s.add(i)));
            vst1q_u8(d.add(i), veorq_u8(vld1q_u8(d.add(i)), r));
            i += 16;
        }
    }

    /// # Safety
    ///
    /// NEON is guaranteed by the caller; every 16-byte load/store
    /// offset i satisfies i + 16 <= len for both slices, whose lengths the safe wrapper
    /// checked equal and trimmed to a multiple of 16
    #[target_feature(enable = "neon")]
    unsafe fn xor_impl(src: &[u8], dst: &mut [u8]) {
        debug_assert_eq!(src.len(), dst.len());
        debug_assert_eq!(src.len() % 16, 0);
        let (s, d, len) = (src.as_ptr(), dst.as_mut_ptr(), dst.len());
        let mut i = 0;
        while i < len {
            vst1q_u8(d.add(i), veorq_u8(vld1q_u8(d.add(i)), vld1q_u8(s.add(i))));
            i += 16;
        }
    }

    pub(super) fn mul(table: &MulTable, src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "kernel ops require equal slice lengths");
        let main = dst.len() - dst.len() % 16;
        // SAFETY: NEON support was verified by Kernel::is_supported before
        // this fn pointer was installed; the impl touches only the first `main` bytes,
        // a multiple of 16 within both slices
        unsafe { mul_impl(table, &src[..main], &mut dst[..main]) };
        for i in main..dst.len() {
            dst[i] = table.mul(src[i]);
        }
    }

    pub(super) fn mul_add(table: &MulTable, src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "kernel ops require equal slice lengths");
        let main = dst.len() - dst.len() % 16;
        // SAFETY: NEON support was verified by Kernel::is_supported before
        // this fn pointer was installed; the impl touches only the first `main` bytes,
        // a multiple of 16 within both slices
        unsafe { mul_add_impl(table, &src[..main], &mut dst[..main]) };
        for i in main..dst.len() {
            dst[i] ^= table.mul(src[i]);
        }
    }

    pub(super) fn xor(src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "kernel ops require equal slice lengths");
        let main = dst.len() - dst.len() % 16;
        // SAFETY: NEON support was verified by Kernel::is_supported before
        // this fn pointer was installed; the impl touches only the first `main` bytes,
        // a multiple of 16 within both slices
        unsafe { xor_impl(&src[..main], &mut dst[..main]) };
        for i in main..dst.len() {
            dst[i] ^= src[i];
        }
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Helpers for tests that exercise the *global* dispatch: a process-wide
    //! lock serializes forcing, and a guard restores the previous kernel.

    use std::sync::{Mutex, MutexGuard};

    use std::ops::Range;

    use super::{force_kernel, Kernel, KernelOps};
    use crate::bulk8::MulTable;

    static FORCE_LOCK: Mutex<()> = Mutex::new(());

    /// RAII guard from [`force_guard`]: holds the exclusion lock and restores
    /// the previously active kernel on drop.
    pub(crate) struct ForcedKernel {
        previous: Kernel,
        _lock: MutexGuard<'static, ()>,
    }

    impl Drop for ForcedKernel {
        fn drop(&mut self) {
            let _ = force_kernel(self.previous);
        }
    }

    /// Forces `kernel` (which must be supported) for the guard's lifetime.
    pub(crate) fn force_guard(kernel: Kernel) -> ForcedKernel {
        let lock = FORCE_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        let previous = force_kernel(kernel).expect("forced kernel must be supported on this host");
        ForcedKernel {
            previous,
            _lock: lock,
        }
    }

    fn corrupt(dst: &mut [u8]) {
        if let Some(last) = dst.len().checked_sub(1) {
            dst[13.min(last)] ^= 0x10;
        }
    }

    fn broken_mul(table: &MulTable, src: &[u8], dst: &mut [u8]) {
        (super::SCALAR_OPS.mul)(table, src, dst);
        corrupt(dst);
    }

    fn broken_mul_add(table: &MulTable, src: &[u8], dst: &mut [u8]) {
        (super::SCALAR_OPS.mul_add)(table, src, dst);
        corrupt(dst);
    }

    fn broken_xor(src: &[u8], dst: &mut [u8]) {
        (super::SCALAR_OPS.xor)(src, dst);
        corrupt(dst);
    }

    fn broken_tile(
        tables: &[&MulTable],
        stride: usize,
        srcs: &[&[u8]],
        members: usize,
        dsts: &mut [&mut [u8]],
        span: Range<usize>,
        accumulate: bool,
    ) {
        super::product_rows(
            &super::SCALAR_OPS,
            tables,
            stride,
            srcs,
            members,
            dsts,
            span.clone(),
            accumulate,
        );
        if let Some(last) = dsts.last_mut() {
            corrupt(&mut last[span]);
        }
    }

    /// A deliberately wrong kernel (one bit flipped per op) used to prove the
    /// differential sweep actually detects a broken SIMD lane.
    pub(crate) fn broken_ops() -> KernelOps {
        KernelOps {
            mul: broken_mul,
            mul_add: broken_mul_add,
            xor: broken_xor,
            matrix_tile: None,
        }
    }

    /// Sound single products under a matrix tile that flips one bit per
    /// strip: only the matrix-apply part of the sweep can tell.
    pub(crate) fn broken_tile_ops() -> KernelOps {
        KernelOps {
            matrix_tile: Some(broken_tile),
            ..super::SCALAR_OPS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic byte pattern distinct per (seed, index).
    fn pattern(seed: u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| {
                let x = seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (x >> 32) as u8
            })
            .collect()
    }

    /// Lengths that exercise empty slices, sub-register tails, every head
    /// offset through one 256-byte sweep, and multi-KiB strip interiors.
    fn sweep_lens() -> Vec<usize> {
        let mut lens: Vec<usize> = (0..=257).collect();
        lens.extend([1024, DRIVER_STRIP + 13, 3 * DRIVER_STRIP, 16 * 1024 + 1]);
        lens
    }

    /// Runs every op of `ops` against the scalar reference across the sweep;
    /// returns false on the first mismatch.
    fn sweep_matches_scalar(ops: &KernelOps) -> bool {
        let tables = CoeffTables::new();
        let coeffs = [2u64, 0x1D, 0x53, 0x8E, 0xFF];
        for &len in &sweep_lens() {
            let src = pattern(0xA5A5_0001, len);
            let init = pattern(0xC3C3_0003, len);
            for &c in &coeffs {
                let table = tables.get(Gf256::from_u64(c));

                let mut want = vec![0u8; len];
                let mut got = vec![0xEEu8; len];
                (SCALAR_OPS.mul)(table, &src, &mut want);
                (ops.mul)(table, &src, &mut got);
                if want != got {
                    return false;
                }

                let mut want = init.clone();
                let mut got = init.clone();
                (SCALAR_OPS.mul_add)(table, &src, &mut want);
                (ops.mul_add)(table, &src, &mut got);
                if want != got {
                    return false;
                }
            }

            let mut want = init.clone();
            let mut got = init.clone();
            (SCALAR_OPS.xor)(&src, &mut want);
            (ops.xor)(&src, &mut got);
            if want != got {
                return false;
            }
        }
        matrix_sweep_matches_scalar(ops, &tables)
    }

    /// One matrix apply of `ops` against the scalar kernel's. Every slice
    /// starts `offset` bytes into its buffer; the coefficients mix zeros, ones
    /// and a unit row in with the general case.
    fn matrix_matches_scalar(
        ops: &KernelOps,
        tables: &CoeffTables,
        (rows, cols): (usize, usize),
        len: usize,
        offset: usize,
        accumulate: bool,
    ) -> bool {
        let seed = (rows * 131 + cols * 17 + len) as u64;
        let mut coeffs: Vec<Gf256> = pattern(seed, rows * cols)
            .iter()
            .map(|&b| match b % 8 {
                0 => Gf256::ZERO,
                1 => Gf256::ONE,
                _ => Gf256::from_u64(u64::from(b)),
            })
            .collect();
        if rows > 1 {
            coeffs[cols..2 * cols].fill(Gf256::ZERO);
            coeffs[cols + len % cols] = Gf256::ONE;
        }
        let srcs: Vec<Vec<u8>> = (0..cols)
            .map(|c| pattern(seed ^ (c as u64) << 20, offset + len))
            .collect();
        let views: Vec<&[u8]> = srcs.iter().map(|src| &src[offset..]).collect();
        let init: Vec<Vec<u8>> = (0..rows)
            .map(|r| pattern(!seed ^ (r as u64) << 24, offset + len))
            .collect();
        let run = |ops: &KernelOps| {
            let mut out = init.clone();
            let mut dsts: Vec<&mut [u8]> = out.iter_mut().map(|dst| &mut dst[offset..]).collect();
            matrix_apply_with(ops, tables, &coeffs, &views, 1, &mut dsts, accumulate);
            out
        };
        run(ops) == run(&SCALAR_OPS)
    }

    /// The matrix-apply part of the sweep: every shape up to 12 × 13 (one
    /// past a column tile and a half) at register- and strip-edge lengths,
    /// every length at a few shapes, and every misalignment up to a register
    /// — each overwriting and accumulating.
    fn matrix_sweep_matches_scalar(ops: &KernelOps, tables: &CoeffTables) -> bool {
        let shapes = (1..=12).flat_map(|rows| (1..=13).map(move |cols| (rows, cols)));
        let edge_lens = [0, 1, 31, 32, 33, 63, 64, 65, 127, 129, 257, DRIVER_STRIP + 13];
        let all_lens = [(1, 1), (3, 2), (6, 6), (12, 6), (2, 13)];
        shapes
            .flat_map(|shape| edge_lens.iter().map(move |&len| (shape, len, 0)))
            .chain(
                all_lens
                    .iter()
                    .flat_map(|&shape| sweep_lens().into_iter().map(move |len| (shape, len, 0))),
            )
            .chain((1..=64).flat_map(|offset| [((6, 6), 257, offset), ((2, 9), 130, offset)]))
            .all(|(shape, len, offset)| {
                [false, true].iter().all(|&accumulate| {
                    matrix_matches_scalar(ops, tables, shape, len, offset, accumulate)
                })
            })
    }

    #[test]
    fn every_available_kernel_is_bit_identical_to_scalar() {
        for kernel in Kernel::available() {
            assert!(
                sweep_matches_scalar(ops_of(kernel)),
                "kernel `{}` diverged from the scalar reference",
                kernel.name()
            );
        }
    }

    #[test]
    fn a_mutated_kernel_fails_the_differential_sweep() {
        // Guards the guard: if this ever passes for a broken kernel, the
        // sweep has lost its teeth and the SIMD lanes are unwatched.
        assert!(
            !sweep_matches_scalar(&test_support::broken_ops()),
            "differential sweep failed to detect a deliberately broken kernel"
        );
        assert!(
            !sweep_matches_scalar(&test_support::broken_tile_ops()),
            "differential sweep failed to detect a deliberately broken matrix tile"
        );
    }

    #[test]
    fn per_kernel_checked_ops_match_scalar_and_reject_unsupported() {
        let table = crate::bulk8::MulTable::new(Gf256::from_u64(0xB1));
        let src = pattern(7, 100);
        for kernel in Kernel::ALL {
            let mut dst = pattern(11, 100);
            if kernel.is_supported() {
                let mut want = dst.clone();
                Kernel::Scalar.mul_add_slice(&table, &src, &mut want).unwrap();
                kernel.mul_add_slice(&table, &src, &mut dst).unwrap();
                assert_eq!(dst, want, "kernel `{}`", kernel.name());
            } else {
                let err = kernel.mul_add_slice(&table, &src, &mut dst).unwrap_err();
                assert_eq!(err, UnsupportedKernel { kernel });
                assert!(err.to_string().contains(kernel.name()));
            }
        }
    }

    #[test]
    fn kernel_names_round_trip_and_parse_case_insensitively() {
        for kernel in Kernel::ALL {
            assert_eq!(Kernel::from_name(kernel.name()), Some(kernel));
            assert_eq!(Kernel::from_name(&kernel.name().to_uppercase()), Some(kernel));
            assert_eq!(kernel.to_string(), kernel.name());
        }
        assert_eq!(Kernel::from_name("sse9"), None);
        assert_eq!(Kernel::from_name(""), None);
    }

    #[test]
    fn forcing_a_kernel_changes_active_and_restores_on_drop() {
        for kernel in Kernel::available() {
            let initial = active_kernel();
            {
                let _guard = test_support::force_guard(kernel);
                assert_eq!(active_kernel(), kernel);
            }
            assert_eq!(active_kernel(), initial, "guard must restore the previous kernel");
        }
    }

    #[test]
    fn forcing_an_unsupported_kernel_is_rejected_and_leaves_dispatch_alone() {
        let Some(unsupported) = Kernel::ALL.into_iter().find(|k| !k.is_supported()) else {
            return; // host supports every compiled-in kernel
        };
        let before = active_kernel();
        assert_eq!(
            force_kernel(unsupported),
            Err(UnsupportedKernel { kernel: unsupported })
        );
        assert_eq!(active_kernel(), before);
    }

    #[test]
    fn public_bulk8_api_handles_unaligned_heads_tails_and_errors_on_every_kernel() {
        let tables = CoeffTables::new();
        let c = Gf256::from_u64(0x53);
        for kernel in Kernel::available() {
            let _guard = test_support::force_guard(kernel);
            // Offsets into an oversized backing buffer misalign the slice
            // pointers; lengths cover empty, sub-register, and cross-chunk.
            for offset in [1usize, 2, 3, 13, 15, 16, 17, 31, 33, 63] {
                for len in [0usize, 1, 15, 16, 63, 64, 65, 257] {
                    let backing_src = pattern(offset as u64, offset + len);
                    let backing_dst = pattern(!(offset as u64), offset + len);
                    let src = &backing_src[offset..];
                    let mut dst = backing_dst[offset..].to_vec();
                    let want: Vec<u8> = dst
                        .iter()
                        .zip(src)
                        .map(|(&d, &s)| d ^ (c * Gf256::from_u64(u64::from(s))).to_u64() as u8)
                        .collect();
                    tables.mul_add_slice(c, src, &mut dst);
                    assert_eq!(dst, want, "kernel `{}` offset {offset} len {len}", kernel.name());
                }
            }
            // Length mismatches must take the error path on the SIMD kernels
            // too, leaving the destination untouched.
            let mut dst = vec![0xABu8; 64];
            let err = tables.try_mul_add_slice(c, &[0u8; 65], &mut dst).unwrap_err();
            assert_eq!((err.expected, err.actual), (64, 65));
            assert!(dst.iter().all(|&b| b == 0xAB));
            // Zero-length slices are a no-op on every kernel.
            tables.mul_add_slice(c, &[], &mut []);
        }
    }

    /// The CPU's feature names from a source other than
    /// [`Kernel::is_supported`]: the `flags` (x86) / `Features` (arm) line of
    /// `/proc/cpuinfo` where there is one, std's detection macros elsewhere.
    fn cpu_features() -> Vec<String> {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let flags = cpuinfo
            .lines()
            .find(|line| line.starts_with("flags") || line.starts_with("Features"))
            .and_then(|line| line.split_once(':'));
        if let Some((_, flags)) = flags {
            return flags.split_whitespace().map(str::to_owned).collect();
        }
        let detected: &[(&str, bool)] = &[
            #[cfg(target_arch = "x86_64")]
            ("ssse3", std::arch::is_x86_feature_detected!("ssse3")),
            #[cfg(target_arch = "x86_64")]
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            #[cfg(target_arch = "x86_64")]
            ("gfni", std::arch::is_x86_feature_detected!("gfni")),
            #[cfg(target_arch = "x86_64")]
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
            #[cfg(target_arch = "aarch64")]
            ("asimd", std::arch::is_aarch64_feature_detected!("neon")),
        ];
        detected
            .iter()
            .filter(|(_, present)| *present)
            .map(|(name, _)| (*name).to_owned())
            .collect()
    }

    #[test]
    #[cfg_attr(miri, ignore = "the host's cpuinfo does not describe Miri's CPU")]
    fn dispatch_never_falls_below_what_the_cpu_reports() {
        let features = cpu_features();
        let has = |feature: &str| features.iter().any(|f| f == feature);
        let auto = auto_detect();
        if cfg!(target_arch = "x86_64") {
            if has("ssse3") {
                assert_ne!(auto, Kernel::Scalar, "SSSE3 host fell back to scalar");
            }
            if has("avx2") {
                assert!(
                    matches!(auto, Kernel::Avx2 | Kernel::Gfni),
                    "AVX2 host runs {auto}"
                );
            }
            if has("gfni") && has("avx512f") && has("avx2") {
                assert_eq!(auto, Kernel::Gfni);
            }
        }
        if cfg!(target_arch = "aarch64") && has("asimd") {
            assert_ne!(auto, Kernel::Scalar, "NEON host fell back to scalar");
        }
        assert!(Kernel::available().contains(&Kernel::Scalar));

        // Production dispatch honours a supported pin (CI runs this suite
        // under `scalar` and `avx2`) and is the auto-detected kernel otherwise.
        let pinned = std::env::var(KERNEL_ENV)
            .ok()
            .and_then(|value| Kernel::from_name(value.trim()))
            .filter(|kernel| kernel.is_supported());
        let _forcing_lock = test_support::force_guard(Kernel::Scalar);
        reset_kernel();
        assert_eq!(active_kernel(), pinned.unwrap_or(auto));
    }
}
