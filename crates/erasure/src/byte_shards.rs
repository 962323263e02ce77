//! The byte-shard fast path: contiguous `GF(2^8)` shards and a batched
//! encode / decode / sparse-recovery pipeline built on the
//! [`bulk8`](sec_gf::bulk8) kernels.
//!
//! [`SecCode`]'s `encode`, `decode_full` and `decode_sparse` work on one
//! byte column at a time — one field element per symbol. That is the
//! *reference implementation*: simple and slow. This module is the
//! production-shaped equivalent over whole blocks:
//!
//! * [`ByteShards`] keeps all shards of an object in one contiguous byte
//!   buffer, so a `(6, 3)` encode of a 1 MiB object streams cache lines
//!   instead of chasing one allocation per shard;
//! * [`ByteCodec`] wraps an [`Arc`]-shared [`SecCode<Gf256>`] and
//!   per-coefficient multiplication-table cache, and exposes the batched
//!   pipeline: [`ByteCodec::encode_blocks`], [`ByteCodec::decode_blocks`] and
//!   [`ByteCodec::recover_sparse_blocks`], each a thin wrapper (allocate,
//!   then fill) over its in-place form — [`ByteCodec::encode_blocks_into`],
//!   [`ByteCodec::decode_blocks_into`] and [`ByteCodec::recover_sparse_into`],
//!   the last of which XORs the recovered delta straight onto an
//!   accumulator. Every full decode runs through
//!   [`ByteCodec::decode_sum_into`], which decodes the XOR of several
//!   codewords read at the same positions once, overwriting or
//!   accumulating. Every encode runs through
//!   [`ByteCodec::encode_sparse_into`], which multiplies only the non-zero
//!   data blocks into any `n` caller-owned buffers, so a `γ`-sparse delta
//!   costs `n·γ` block products. Every method takes `&self`, so one codec
//!   can serve many decoding threads; the scratch arena sparse recovery
//!   needs is thread-local.
//!
//! The differential property suite in `tests/byte_path_equiv.rs` locks every
//! pipeline stage to the scalar reference: for any coefficients, shard sizes
//! (including 0, 1 and non-multiple-of-64 lengths) and erasure patterns, the
//! byte path produces byte-identical output.
//!
//! # Example
//!
//! ```rust
//! use sec_erasure::{ByteCodec, ByteShards, GeneratorForm, SecCode};
//!
//! # fn main() -> Result<(), sec_erasure::CodeError> {
//! let code = SecCode::cauchy(6, 3, GeneratorForm::NonSystematic)?;
//! let codec = ByteCodec::new(code);
//!
//! let object = b"the quick brown fox jumps over the lazy dog";
//! let data = ByteShards::from_flat(object, 3);
//! let coded = codec.encode_blocks(&data)?;
//!
//! // Any k = 3 coded shards reconstruct the object.
//! let shares: Vec<(usize, &[u8])> = [5, 1, 3].iter().map(|&i| (i, coded.shard(i))).collect();
//! let decoded = codec.decode_blocks(&shares)?;
//! assert_eq!(decoded.join(object.len()), object);
//! # Ok(())
//! # }
//! ```

use std::cell::RefCell;
use std::ops::Range;
use std::sync::Arc;

use sec_gf::bulk8::CoeffTables;
use sec_gf::{GaloisField, Gf256};
use sec_linalg::combinatorics::Combinations;

use crate::code::SecCode;
use crate::error::CodeError;

/// A set of equally sized byte shards stored in one contiguous buffer.
///
/// Shard `i` occupies bytes `i·shard_len .. (i+1)·shard_len` of the backing
/// buffer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ByteShards {
    shards: usize,
    shard_len: usize,
    data: Vec<u8>,
}

impl ByteShards {
    /// Creates `shards` all-zero shards of `shard_len` bytes each.
    pub fn zeroed(shards: usize, shard_len: usize) -> Self {
        Self {
            shards,
            shard_len,
            data: vec![0u8; shards * shard_len],
        }
    }

    /// [`ByteShards::zeroed`] in `buf`'s allocation: its old bytes are
    /// cleared, and it grows only when it holds fewer than
    /// `shards · shard_len` bytes.
    pub fn zeroed_in(shards: usize, shard_len: usize, mut buf: Vec<u8>) -> Self {
        buf.clear();
        buf.resize(shards * shard_len, 0);
        Self {
            shards,
            shard_len,
            data: buf,
        }
    }

    /// [`ByteShards::from_flat`] in `buf`'s allocation: its old bytes are
    /// replaced by `object`, zero-padded, and it grows only when it holds
    /// fewer than `k` padded shards.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn from_flat_in(object: &[u8], k: usize, mut buf: Vec<u8>) -> Self {
        assert!(k > 0, "cannot split into zero shards");
        let shard_len = object.len().div_ceil(k);
        buf.clear();
        buf.reserve_exact(k * shard_len);
        buf.extend_from_slice(object);
        buf.resize(k * shard_len, 0);
        Self {
            shards: k,
            shard_len,
            data: buf,
        }
    }

    /// Splits a flat byte object into `k` equally sized shards, zero-padding
    /// the tail — the "application object → fixed-size coding object"
    /// transformation the paper assumes implicitly.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn from_flat(object: &[u8], k: usize) -> Self {
        assert!(k > 0, "cannot split into zero shards");
        let shard_len = object.len().div_ceil(k);
        let mut data = object.to_vec();
        data.resize(k * shard_len, 0);
        Self {
            shards: k,
            shard_len,
            data,
        }
    }

    /// Builds shards from per-shard row vectors, validating equal lengths.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::ShardSizeMismatch`] when the rows are ragged.
    pub fn from_rows(rows: &[Vec<u8>]) -> Result<Self, CodeError> {
        let shard_len = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(rows.len() * shard_len);
        for row in rows {
            if row.len() != shard_len {
                return Err(CodeError::ShardSizeMismatch {
                    expected: shard_len,
                    actual: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            shards: rows.len(),
            shard_len,
            data,
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Length of each shard in bytes.
    pub fn shard_len(&self) -> usize {
        self.shard_len
    }

    /// Total number of stored bytes (`shard_count · shard_len`).
    pub fn total_len(&self) -> usize {
        self.data.len()
    }

    /// Shard `i` as a byte slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn shard(&self, i: usize) -> &[u8] {
        assert!(i < self.shards, "shard index {i} out of range ({})", self.shards);
        &self.data[i * self.shard_len..(i + 1) * self.shard_len]
    }

    /// Mutable access to shard `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn shard_mut(&mut self, i: usize) -> &mut [u8] {
        assert!(i < self.shards, "shard index {i} out of range ({})", self.shards);
        &mut self.data[i * self.shard_len..(i + 1) * self.shard_len]
    }

    /// The whole contiguous buffer (shard-major order).
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Every shard in turn, mutably — the destinations of a matrix apply.
    pub fn shards_mut(&mut self) -> impl Iterator<Item = &mut [u8]> {
        let (shard_len, mut rest) = (self.shard_len, self.data.as_mut_slice());
        (0..self.shards).map(move |_| {
            let (shard, tail) = std::mem::take(&mut rest).split_at_mut(shard_len);
            rest = tail;
            shard
        })
    }

    /// Copies the shards out as per-shard row vectors (reference-path shape).
    pub fn to_rows(&self) -> Vec<Vec<u8>> {
        (0..self.shards).map(|i| self.shard(i).to_vec()).collect()
    }

    /// Reassembles the flat object, trimming zero padding down to
    /// `original_len` bytes — the inverse of [`ByteShards::from_flat`].
    pub fn join(&self, original_len: usize) -> Vec<u8> {
        let mut out = self.data.clone();
        out.truncate(original_len);
        out
    }

    /// Turns the shards into the flat object in place: the buffer is handed
    /// over and truncated to `original_len` bytes, no copy —
    /// [`ByteShards::join`] for a caller that is done with the shards.
    pub fn into_flat(self, original_len: usize) -> Vec<u8> {
        let mut out = self.data;
        out.truncate(original_len);
        out
    }

    /// Number of non-zero shards — the per-block sparsity level `γ` of a
    /// delta object (Definition 1 of the paper, lifted from symbols to
    /// blocks).
    pub fn weight(&self) -> usize {
        self.nonzero_shards().count()
    }

    /// The non-zero shards with their indices, each found by one
    /// 64-byte-at-a-time scan — the sources an encode multiplies.
    fn nonzero_shards(&self) -> impl Iterator<Item = (usize, &[u8])> {
        (0..self.shards)
            .map(|i| (i, self.shard(i)))
            .filter(|&(_, shard)| first_nonzero(shard).is_some())
    }

    /// XORs `other` into `self` shard-by-shard — delta application in
    /// characteristic two. Runs through the fallible `try_` kernel so a
    /// corrupt shard length surfaces as an error instead of aborting.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::DataLengthMismatch`] when the shard counts differ
    /// and [`CodeError::ShardSizeMismatch`] when the shard lengths do.
    pub fn xor_with(&mut self, other: &ByteShards) -> Result<(), CodeError> {
        if self.shards != other.shards {
            return Err(CodeError::DataLengthMismatch {
                expected: self.shards,
                actual: other.shards,
            });
        }
        // Shard counts match, so a flat-length mismatch from the fallible
        // kernel means the per-shard lengths differ; report those (the unit
        // every other producer of this error uses).
        sec_gf::bulk8::try_mul_add_slice(Gf256::ONE, &other.data, &mut self.data).map_err(|_| {
            CodeError::ShardSizeMismatch {
                expected: self.shard_len,
                actual: other.shard_len,
            }
        })
    }
}

/// Reusable buffers for the batched pipeline, so steady-state sparse
/// recovery allocates nothing: the support search runs entirely in here.
///
/// The scratch is deliberately *outside* the codec: every [`ByteCodec`]
/// method takes `&self`, so any number of threads can decode through one
/// shared codec, each through its own thread-local `DecodeScratch`.
#[derive(Debug, Default)]
struct DecodeScratch {
    /// Every residual row over one run of non-zero columns, for the full
    /// consistency verification.
    row: Vec<u8>,
    /// The runs of non-zero columns of the shares being recovered, from
    /// [`scan_runs`].
    runs: Vec<Range<usize>>,
    /// The generator rows of the supplied shares, `r × k` row-major.
    phi: Vec<Gf256>,
    /// Elimination workspace `[A | T]`, `r × (w + r)` row-major: after
    /// [`DecodeScratch::eliminate`] succeeds, `T · A = [I_w ; 0]`.
    work: Vec<Gf256>,
    /// Probe byte-columns: `r` observed bytes per probed offset.
    probes: Vec<Gf256>,
    /// The rows of the transform being applied to the shares, as one
    /// row-major `rows × r` matrix.
    coeffs: Vec<Gf256>,
}

/// Probe columns kept per search. A probe only ever *rejects* a candidate
/// support early, so the cap bounds scratch and per-candidate work without
/// affecting which support wins.
const MAX_PROBES: usize = 8;

impl DecodeScratch {
    /// Loads the generator rows of `shares`, clears the probe set and scans
    /// the shares for their runs of non-zero columns.
    fn begin(&mut self, code: &SecCode<Gf256>, shares: &[(usize, &[u8])]) {
        let g = code.generator();
        self.phi.clear();
        for &(row, _) in shares {
            self.phi.extend((0..code.k()).map(|col| g.get(row, col)));
        }
        self.probes.clear();
        scan_runs(shares, &mut self.runs);
    }

    /// Records the byte-column at `offset` as a probe (up to [`MAX_PROBES`]).
    fn add_probe(&mut self, shares: &[(usize, &[u8])], offset: usize) {
        if self.probes.len() < MAX_PROBES * shares.len() {
            self.probes
                .extend(shares.iter().map(|&(_, shard)| Gf256::from(shard[offset])));
        }
    }

    /// Gauss-Jordan on `[A | I_r]` with `A` the `support` columns of the
    /// loaded generator rows, tracking the row transform `T` so that
    /// `T · A = [I_w ; 0]`: applied to the observed shards, rows `0..w` of `T`
    /// give the candidate solution and rows `w..r` the consistency residuals.
    /// Returns `false` when `A` lacks full column rank.
    fn eliminate(&mut self, r: usize, k: usize, support: &[usize]) -> bool {
        let w = support.len();
        let width = w + r;
        let work = &mut self.work;
        work.clear();
        for i in 0..r {
            work.extend(support.iter().map(|&col| self.phi[i * k + col]));
            work.extend((0..r).map(|j| if i == j { Gf256::ONE } else { Gf256::ZERO }));
        }
        for col in 0..w {
            let Some(pivot) = (col..r).find(|&row| !work[row * width + col].is_zero()) else {
                return false;
            };
            if pivot != col {
                for c in 0..width {
                    work.swap(col * width + c, pivot * width + c);
                }
            }
            let inv = work[col * width + col].inv().expect("pivot chosen non-zero");
            for x in &mut work[col * width..(col + 1) * width] {
                *x *= inv;
            }
            for row in 0..r {
                let factor = work[row * width + col];
                if row != col && !factor.is_zero() {
                    for c in 0..width {
                        let p = work[col * width + c];
                        work[row * width + c] += factor * p;
                    }
                }
            }
        }
        true
    }

    /// Row `j` of the transform `T` left by [`DecodeScratch::eliminate`].
    fn transform_row(work: &[Gf256], r: usize, w: usize, j: usize) -> &[Gf256] {
        &work[j * (w + r) + w..(j + 1) * (w + r)]
    }

    /// Gathers rows `rows` of the transform into `coeffs`, the matrix a
    /// matrix apply over the `r` shares takes.
    fn load_rows(&mut self, r: usize, w: usize, rows: std::ops::Range<usize>) {
        self.coeffs.clear();
        for j in rows {
            self.coeffs
                .extend_from_slice(Self::transform_row(&self.work, r, w, j));
        }
    }

    /// Whether every residual row of the current transform vanishes on every
    /// probe column. A support that is inconsistent on one byte-column is
    /// inconsistent on the shards, so `false` rejects it for certain; `true`
    /// proves nothing and must be followed by the full verification.
    fn probes_pass(&self, r: usize, w: usize) -> bool {
        self.probes.chunks_exact(r).all(|column| {
            (w..r).all(|j| {
                let residual: Gf256 = Self::transform_row(&self.work, r, w, j)
                    .iter()
                    .zip(column)
                    .map(|(&t, &y)| t * y)
                    .sum();
                residual.is_zero()
            })
        })
    }
}

/// Columns of the shares the column scan tests at a time: a strip is
/// non-zero when any share has a non-zero byte in it, and a run is a union
/// of strips.
const STRIP: usize = 64;

/// Fewest zero bytes that separate two runs of non-zero columns in sparse
/// recovery ([`ByteCodec::recover_sparse_into`]): non-zero 64-byte strips
/// closer than this share a run. Each run costs two matrix applies of its
/// own, so a gap shorter than this is cheaper to multiply through than to
/// split at. Public so that tests can place edits either side of it.
pub const RUN_GAP: usize = 4096;

/// Columns the scan skips at a time where every share is zero, before it
/// looks for the strip that ends the zeros.
const WINDOW: usize = 512;

/// Longest run. Bounds the residual rows in the scratch whatever the shard
/// length.
const MAX_RUN: usize = 32 * 1024;

/// Replaces `runs` with the runs of non-zero columns of `shares`, in order:
/// every column outside them is zero in every share. A run starts at a
/// non-zero strip and ends at its last non-zero strip, once [`RUN_GAP`] zero
/// bytes follow it or the run reaches [`MAX_RUN`].
fn scan_runs(shares: &[(usize, &[u8])], runs: &mut Vec<Range<usize>>) {
    runs.clear();
    let len = first_len(shares);
    let mut from = 0;
    while let Some(first) = first_nonzero_strip(shares, from..len) {
        // The last non-zero strip that starts less than `RUN_GAP` past the
        // run's end joins the run, with every strip before it: looking from
        // the farthest lets a dense run skip the strips in between.
        let (start, mut end) = (first.start, first.end);
        loop {
            let reach = (end + RUN_GAP).min(start + MAX_RUN).min(len);
            match last_nonzero_strip(shares, end..reach) {
                Some(strip) => end = strip.end,
                None => {
                    from = reach;
                    break;
                }
            }
        }
        runs.push(start..end);
    }
}

/// The first and last non-zero columns of `run`, found in its first and
/// last strips, which hold one each.
fn run_ends(shares: &[(usize, &[u8])], run: &Range<usize>) -> (usize, usize) {
    let head = run.start..(run.start + STRIP).min(run.end);
    let tail = (run.end - 1) / STRIP * STRIP..run.end;
    let first = shares
        .iter()
        .filter_map(|&(_, shard)| first_nonzero(&shard[head.clone()]))
        .min();
    let last = shares
        .iter()
        .filter_map(|&(_, shard)| shard[tail.clone()].iter().rposition(|&b| b != 0))
        .max();
    let (Some(first), Some(last)) = (first, last) else {
        unreachable!("a run starts and ends with a non-zero strip");
    };
    (head.start + first, tail.start + last)
}

/// The first [`STRIP`] of `columns` (which start on a strip) where some
/// share is non-zero, skipping zeros a [`WINDOW`] at a time.
fn first_nonzero_strip(shares: &[(usize, &[u8])], columns: Range<usize>) -> Option<Range<usize>> {
    let window = pieces(columns, WINDOW).find(|w| nonzero_columns::<WINDOW>(shares, w))?;
    pieces(window, STRIP).find(|strip| nonzero_columns::<STRIP>(shares, strip))
}

/// The last [`STRIP`] of `columns` (which start on a strip) where some
/// share is non-zero, skipping zeros a [`WINDOW`] at a time.
fn last_nonzero_strip(shares: &[(usize, &[u8])], columns: Range<usize>) -> Option<Range<usize>> {
    let window = pieces(columns, WINDOW)
        .rev()
        .find(|w| nonzero_columns::<WINDOW>(shares, w))?;
    pieces(window, STRIP)
        .rev()
        .find(|strip| nonzero_columns::<STRIP>(shares, strip))
}

/// `columns` cut into consecutive pieces of `size`, the last one shorter.
fn pieces(columns: Range<usize>, size: usize) -> impl DoubleEndedIterator<Item = Range<usize>> {
    (0..columns.len().div_ceil(size)).map(move |i| {
        let start = columns.start + i * size;
        start..(start + size).min(columns.end)
    })
}

/// Whether any share has a non-zero byte in `columns`, at most `N` of them.
fn nonzero_columns<const N: usize>(shares: &[(usize, &[u8])], columns: &Range<usize>) -> bool {
    shares.iter().any(|&(_, shard)| {
        let bytes = &shard[columns.clone()];
        match <&[u8; N]>::try_from(bytes) {
            Ok(full) => any_nonzero(full),
            Err(_) => first_nonzero(bytes).is_some(),
        }
    })
}

thread_local! {
    /// Per-thread scratch behind the sparse-recovery entry points (buffers
    /// grow on first use), so steady-state decoding stays allocation-free
    /// while every [`ByteCodec`] method takes `&self`.
    static THREAD_SCRATCH: RefCell<DecodeScratch> = RefCell::new(DecodeScratch::default());
}

/// Batched `GF(2^8)` encoder/decoder: a [`SecCode<Gf256>`] plus the
/// per-coefficient table cache the byte kernels need.
///
/// Both the code and the table cache sit behind [`Arc`]s, so cloning a codec
/// is cheap and every clone shares the same lazily built multiplication
/// tables — archives, stores and serving engines all reuse one set of tables
/// per code instead of rebuilding 256 × 288-byte tables each. All methods
/// take `&self` and are safe to call from many threads at once; sparse
/// recovery needs a scratch row, threaded explicitly via the `_with` variants
/// or borrowed from a thread-local arena by the convenience forms.
#[derive(Debug, Clone)]
pub struct ByteCodec {
    code: Arc<SecCode<Gf256>>,
    tables: Arc<CoeffTables>,
}

impl ByteCodec {
    /// Wraps a `GF(2^8)` code in the byte-shard pipeline.
    pub fn new(code: SecCode<Gf256>) -> Self {
        Self::from_shared(Arc::new(code), Arc::new(CoeffTables::new()))
    }

    /// Builds a codec around an already shared code and table cache, so
    /// several codecs (e.g. an archive's and its store's) reuse one set of
    /// multiplication tables.
    pub fn from_shared(code: Arc<SecCode<Gf256>>, tables: Arc<CoeffTables>) -> Self {
        Self { code, tables }
    }

    /// The underlying code.
    pub fn code(&self) -> &SecCode<Gf256> {
        &self.code
    }

    /// The shared handle to the underlying code.
    pub fn shared_code(&self) -> Arc<SecCode<Gf256>> {
        Arc::clone(&self.code)
    }

    /// The shared per-coefficient multiplication-table cache.
    pub fn shared_tables(&self) -> Arc<CoeffTables> {
        Arc::clone(&self.tables)
    }

    /// Encodes `k` data shards into `n` coded shards (`C = G · X` applied
    /// block-wise), the batched analogue of [`SecCode::encode`] applied to
    /// every byte column.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::DataLengthMismatch`] when `data` does not hold
    /// exactly `k` shards.
    pub fn encode_blocks(&self, data: &ByteShards) -> Result<ByteShards, CodeError> {
        let mut out = ByteShards::zeroed(self.code.n(), data.shard_len());
        self.encode_blocks_into(data, &mut out)?;
        Ok(out)
    }

    /// Like [`ByteCodec::encode_blocks`] but writes into a caller-provided
    /// output, reusing its allocation across calls. All-zero data shards are
    /// found by one scan each and left out of the product
    /// ([`ByteCodec::encode_sparse_into`]), so a `γ`-sparse delta costs `n·γ`
    /// block products.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::DataLengthMismatch`] for a wrong shard count and
    /// [`CodeError::ShardSizeMismatch`] when `out` has the wrong shape.
    pub fn encode_blocks_into(&self, data: &ByteShards, out: &mut ByteShards) -> Result<(), CodeError> {
        let (n, k) = (self.code.n(), self.code.k());
        if data.shard_count() != k {
            return Err(CodeError::DataLengthMismatch {
                expected: k,
                actual: data.shard_count(),
            });
        }
        check_shape(out, n, data.shard_len())?;
        let blocks: Vec<(usize, &[u8])> = data.nonzero_shards().collect();
        let mut coded: Vec<&mut [u8]> = out.shards_mut().collect();
        self.encode_sparse_into(&blocks, &mut coded)
    }

    /// The one encode every other runs through: writes into `out` the `n`
    /// coded blocks of the `k`-block object whose non-zero blocks are
    /// `blocks`, given as `(position, block)` pairs — every block not listed
    /// is zero. A zero block adds nothing to `C = G · X`, so only the listed
    /// columns of the generator are applied: `n·γ` block products for `γ`
    /// listed blocks instead of `n·k` (a systematic row over a left-out
    /// block becomes a zero fill).
    ///
    /// A block shorter than the coded blocks is zero-padded, as
    /// [`ByteShards::from_flat`] pads an object's tail, so the
    /// `chunks(shard_len)` of a flat object encode without a padded copy.
    ///
    /// # Errors
    ///
    /// * [`CodeError::DataLengthMismatch`] when `out` is not `n` blocks or a
    ///   position lies outside `0..k`.
    /// * [`CodeError::DuplicateShare`] for a position listed twice.
    /// * [`CodeError::ShardSizeMismatch`] for `out` blocks of unequal length
    ///   or a listed block longer than them.
    pub fn encode_sparse_into(
        &self,
        blocks: &[(usize, &[u8])],
        out: &mut [&mut [u8]],
    ) -> Result<(), CodeError> {
        let (n, k) = (self.code.n(), self.code.k());
        if out.len() != n {
            return Err(CodeError::DataLengthMismatch {
                expected: n,
                actual: out.len(),
            });
        }
        let shard_len = out.first().map_or(0, |dst| dst.len());
        if let Some(dst) = out.iter().find(|dst| dst.len() != shard_len) {
            return Err(CodeError::ShardSizeMismatch {
                expected: shard_len,
                actual: dst.len(),
            });
        }
        let mut seen = vec![false; k];
        for &(index, block) in blocks {
            if index >= k {
                return Err(CodeError::DataLengthMismatch {
                    expected: k,
                    actual: index + 1,
                });
            }
            if std::mem::replace(&mut seen[index], true) {
                return Err(CodeError::DuplicateShare { index });
            }
            if block.len() > shard_len {
                return Err(CodeError::ShardSizeMismatch {
                    expected: shard_len,
                    actual: block.len(),
                });
            }
        }

        // Short blocks end early: each span up to the next block end is the
        // product of the blocks that still reach it.
        let g = self.code.generator();
        let mut coeffs = Vec::with_capacity(n * blocks.len());
        let mut start = 0;
        loop {
            let live: Vec<(usize, &[u8])> = blocks
                .iter()
                .filter(|(_, block)| block.len() > start)
                .copied()
                .collect();
            let end = live
                .iter()
                .map(|(_, block)| block.len())
                .min()
                .unwrap_or(shard_len);
            coeffs.clear();
            coeffs.extend((0..n).flat_map(|row| live.iter().map(move |&(col, _)| g.get(row, col))));
            let srcs: Vec<&[u8]> = live.iter().map(|(_, block)| &block[start..end]).collect();
            let mut dsts: Vec<&mut [u8]> = out.iter_mut().map(|dst| &mut dst[start..end]).collect();
            self.tables.matrix_apply(&coeffs, &srcs, &mut dsts, false);
            if end == shard_len {
                return Ok(());
            }
            start = end;
        }
    }

    /// Decodes the original `k` data shards from any `k` (or more) coded
    /// shards given with their node indices — the batched analogue of
    /// [`SecCode::decode_full`] applied to every byte column.
    ///
    /// # Errors
    ///
    /// * [`CodeError::NotEnoughShares`] with fewer than `k` shards.
    /// * [`CodeError::ShardSizeMismatch`] for ragged shard lengths.
    /// * [`CodeError::ShareIndexOutOfRange`] / [`CodeError::DuplicateShare`]
    ///   for malformed indices.
    pub fn decode_blocks(&self, shares: &[(usize, &[u8])]) -> Result<ByteShards, CodeError> {
        let mut out = ByteShards::zeroed(self.code.k(), first_len(shares));
        self.decode_blocks_into(shares, &mut out)?;
        Ok(out)
    }

    /// Like [`ByteCodec::decode_blocks`] but overwrites a caller-provided
    /// `k`-shard output, reusing its allocation across calls — the one-share-
    /// list case of [`ByteCodec::decode_sum_into`].
    ///
    /// When the first `k` shares are the systematic symbols of a systematic
    /// code they *are* the data shards: the inverse is the identity, whose
    /// unit rows are copies, with no arithmetic.
    ///
    /// # Errors
    ///
    /// As for [`ByteCodec::decode_blocks`], plus
    /// [`CodeError::ShardSizeMismatch`] when `out` has the wrong shape.
    pub fn decode_blocks_into(
        &self,
        shares: &[(usize, &[u8])],
        out: &mut ByteShards,
    ) -> Result<(), CodeError> {
        self.decode_sum_into(&[shares], out, false)
    }

    /// Decodes the XOR-sum of several codewords read at the same positions
    /// straight into `out` — overwriting it, or XORing onto it when
    /// `accumulate` is set. The code is linear, so the sum of the codewords
    /// of `x_1, …, x_m` is the codeword of `x_1 ⊕ … ⊕ x_m`: one `k × k`
    /// decode of the summed blocks ([`CoeffTables::matrix_apply_summed`],
    /// which sums them in registers as it loads them) replaces `m` decodes,
    /// and no `k`-block temporary is formed.
    ///
    /// Each codeword is a share list as for [`ByteCodec::decode_blocks`]; the
    /// first `k` shares of each are used and must name the same positions in
    /// the same order.
    ///
    /// # Errors
    ///
    /// * [`CodeError::NotEnoughShares`] for no codeword, or one with fewer
    ///   than `k` shares.
    /// * [`CodeError::ShardSizeMismatch`] for ragged shard lengths, across
    ///   codewords too, or an `out` of the wrong shape.
    /// * [`CodeError::ShareIndexOutOfRange`] / [`CodeError::DuplicateShare`]
    ///   for malformed indices.
    /// * [`CodeError::UndecodableShareSet`] when two codewords were read at
    ///   different positions.
    pub fn decode_sum_into(
        &self,
        codewords: &[&[(usize, &[u8])]],
        out: &mut ByteShards,
        accumulate: bool,
    ) -> Result<(), CodeError> {
        let k = self.code.k();
        let Some((first, rest)) = codewords.split_first() else {
            return Err(CodeError::NotEnoughShares {
                needed: k,
                available: 0,
            });
        };
        let shard_len = self.validate_shares(first, k)?;
        // Use the first k shares; the MDS property guarantees invertibility.
        let positions: Vec<usize> = first[..k].iter().map(|&(i, _)| i).collect();
        for codeword in rest {
            let len = self.validate_shares(codeword, k)?;
            if len != shard_len {
                return Err(CodeError::ShardSizeMismatch {
                    expected: shard_len,
                    actual: len,
                });
            }
            if !codeword
                .iter()
                .map(|&(i, _)| i)
                .take(k)
                .eq(positions.iter().copied())
            {
                return Err(CodeError::UndecodableShareSet);
            }
        }
        check_shape(out, k, shard_len)?;
        let inverse = self.code.rows_inverse(&positions)?;
        let blocks: Vec<&[u8]> = codewords
            .iter()
            .flat_map(|codeword| codeword[..k].iter().map(|&(_, block)| block))
            .collect();
        let mut data: Vec<&mut [u8]> = out.shards_mut().collect();
        self.tables
            .matrix_apply_summed(&inverse, &blocks, codewords.len(), &mut data, accumulate);
        Ok(())
    }

    /// Rebuilds the single coded shard at `position` from any `k` (or more)
    /// coded shards — what a node repair needs. The one coefficient row
    /// `g[position] · inv(sub)` is composed first and applied to the `k`
    /// source shards as a `1 × k` matrix (`k` block products, against the
    /// `k² + n·k` of a decode followed by a re-encode).
    ///
    /// # Errors
    ///
    /// As for [`ByteCodec::decode_blocks`], plus
    /// [`CodeError::ShareIndexOutOfRange`] for a `position` outside `0..n`.
    pub fn rebuild_block(
        &self,
        shares: &[(usize, &[u8])],
        position: usize,
    ) -> Result<Vec<u8>, CodeError> {
        let (n, k) = (self.code.n(), self.code.k());
        let shard_len = self.validate_shares(shares, k)?;
        if position >= n {
            return Err(CodeError::ShareIndexOutOfRange { index: position, n });
        }
        let used = &shares[..k];
        let rows: Vec<usize> = used.iter().map(|&(i, _)| i).collect();
        let inv = self.code.rows_inverse(&rows)?;
        let g = self.code.generator();
        let coeffs: Vec<Gf256> = (0..k)
            .map(|col| (0..k).map(|j| g.get(position, j) * inv[j * k + col]).sum())
            .collect();
        let sources = columns_of(used, &(0..shard_len));
        let mut block = vec![0u8; shard_len];
        self.tables
            .matrix_apply(&coeffs, &sources, &mut [&mut block], false);
        Ok(block)
    }

    /// Recovers a block-level `γ`-sparse object (at most `γ` of its `k`
    /// shards are non-zero) from `2γ` or more coded shards, the batched
    /// analogue of [`SecCode::decode_sparse`].
    ///
    /// The candidate supports are searched in the same order as the scalar
    /// reference ([`sparse::recover_sparse`](crate::sparse::recover_sparse)):
    /// weights `0, 1, …, γ`, lexicographic supports within each weight, first
    /// consistent solution wins.
    ///
    /// A wrong candidate is normally rejected without touching bulk data: a
    /// few *probe* byte-columns of the shares are checked with scalar field
    /// arithmetic first, and a support that is inconsistent on one column is
    /// inconsistent on the shards. Probes only ever **reject**. Every support
    /// that is accepted has passed the full residual verification over all
    /// `shard_len` bytes, and nothing is written before it has — so the
    /// winner, and the output, are exactly those of an exhaustive check of
    /// each candidate in turn, including on inputs that are not `γ`-sparse.
    ///
    /// Only the byte columns where at least one share is non-zero carry
    /// arithmetic. One scan of the shares finds them as runs of 64-byte
    /// strips, and both the residual verification and the solution are
    /// applied over those runs alone. This changes no outcome. A column that
    /// is zero in every share has a zero residual under every support, so it
    /// can never reject one, and its solution is zero. Every byte is still
    /// checked: the scan tests each column, and the residual apply covers
    /// every column the scan did not find zero. A delta that edits a few
    /// bytes of each block therefore costs the scan plus arithmetic on those
    /// bytes, whatever the block length.
    ///
    /// # Errors
    ///
    /// * [`CodeError::SparsityNotExploitable`] when `γ = 0` or `2γ ≥ k`.
    /// * [`CodeError::NotEnoughShares`] with fewer than `2γ` shards.
    /// * [`CodeError::SparseRecoveryFailed`] when no block-`γ`-sparse object
    ///   is consistent with the shares.
    /// * [`CodeError::ShardSizeMismatch`] and index errors as for
    ///   [`ByteCodec::decode_blocks`].
    pub fn recover_sparse_blocks(
        &self,
        shares: &[(usize, &[u8])],
        gamma: usize,
    ) -> Result<ByteShards, CodeError> {
        let mut out = ByteShards::zeroed(self.code.k(), first_len(shares));
        self.recover_sparse_into(shares, gamma, &mut out)?;
        Ok(out)
    }

    /// Recovers a block-level `γ`-sparse object as
    /// [`ByteCodec::recover_sparse_blocks`] does and XORs it onto `acc` —
    /// delta application fused into the recovery: only the (at most `γ`)
    /// solved blocks of `acc` are touched, and no `k`-block temporary exists.
    /// Within those blocks only the columns where some share is non-zero are
    /// written. Everywhere else the recovered delta is zero, so XORing it
    /// would change nothing. The winning support is still verified on every
    /// byte before `acc` is touched, so on any error `acc` is left exactly as
    /// it was.
    ///
    /// # Errors
    ///
    /// As for [`ByteCodec::recover_sparse_blocks`], plus
    /// [`CodeError::ShardSizeMismatch`] when `acc` is not `k` shards of the
    /// shares' length.
    pub fn recover_sparse_into(
        &self,
        shares: &[(usize, &[u8])],
        gamma: usize,
        acc: &mut ByteShards,
    ) -> Result<(), CodeError> {
        THREAD_SCRATCH
            .with(|scratch| self.recover_sparse_into_with(shares, gamma, acc, &mut scratch.borrow_mut()))
    }

    /// The one sparse-recovery implementation: validate, search the supports
    /// behind the probe screen, fully verify, then accumulate the winner —
    /// the last two over the runs of non-zero columns.
    fn recover_sparse_into_with(
        &self,
        shares: &[(usize, &[u8])],
        gamma: usize,
        acc: &mut ByteShards,
        scratch: &mut DecodeScratch,
    ) -> Result<(), CodeError> {
        let k = self.code.k();
        if gamma == 0 || 2 * gamma >= k {
            return Err(CodeError::SparsityNotExploitable { gamma, k });
        }
        let needed = 2 * gamma;
        if shares.len() < needed {
            return Err(CodeError::NotEnoughShares {
                needed,
                available: shares.len(),
            });
        }
        let shard_len = self.validate_shares(shares, 0)?;
        check_shape(acc, k, shard_len)?;

        // Weight 0: an all-zero observation decodes to zero. Otherwise the
        // two ends of the first run of non-zero columns seed the probe set.
        scratch.begin(&self.code, shares);
        let Some(first) = scratch.runs.first() else {
            return Ok(());
        };
        let (start, end) = run_ends(shares, first);
        scratch.add_probe(shares, start);
        if end != start {
            scratch.add_probe(shares, end);
        }

        let r = shares.len();
        for weight in 1..=gamma {
            let mut supports = Combinations::new(k, weight);
            while let Some(support) = supports.advance() {
                if !scratch.eliminate(r, k, support) || !scratch.probes_pass(r, weight) {
                    continue;
                }
                match self.first_residual(shares, weight, scratch) {
                    // One column saw only part of the support: it passed the
                    // probes but not the shards. Probe the offending offset.
                    Some(offset) => scratch.add_probe(shares, offset),
                    None => {
                        self.accumulate_solution(shares, support, scratch, acc);
                        return Ok(());
                    }
                }
            }
        }
        Err(CodeError::SparseRecoveryFailed { gamma })
    }

    /// The full consistency check of the support just eliminated in
    /// `scratch`: applies the residual rows of the transform to every run of
    /// non-zero columns and returns an offset at which one is non-zero,
    /// `None` when the support explains every byte. A column outside the
    /// runs is zero in every share, so its residual is zero for any support.
    fn first_residual(
        &self,
        shares: &[(usize, &[u8])],
        w: usize,
        scratch: &mut DecodeScratch,
    ) -> Option<usize> {
        let r = shares.len();
        scratch.load_rows(r, w, w..r);
        let DecodeScratch {
            row, runs, coeffs, ..
        } = scratch;
        for run in runs.iter() {
            let len = run.len();
            if row.len() < (r - w) * len {
                row.resize((r - w) * len, 0);
            }
            let mut residuals: Vec<&mut [u8]> = row.chunks_exact_mut(len).take(r - w).collect();
            self.tables
                .matrix_apply(coeffs, &columns_of(shares, run), &mut residuals, false);
            if let Some(at) = residuals.iter().find_map(|res| first_nonzero(res)) {
                return Some(run.start + at);
            }
        }
        None
    }

    /// XORs the solved blocks of a verified support onto `acc`: block
    /// `support[j]` gains row `j` of the transform applied to the shares,
    /// over the runs of non-zero columns alone — elsewhere the shares are
    /// zero, and so is the solution.
    fn accumulate_solution(
        &self,
        shares: &[(usize, &[u8])],
        support: &[usize],
        scratch: &mut DecodeScratch,
        acc: &mut ByteShards,
    ) {
        scratch.load_rows(shares.len(), support.len(), 0..support.len());
        for run in &scratch.runs {
            // `support` is sorted, so the kept blocks line up with its rows.
            let mut solved: Vec<&mut [u8]> = (acc.shards_mut().enumerate())
                .filter_map(|(block, shard)| support.contains(&block).then(|| &mut shard[run.clone()]))
                .collect();
            self.tables
                .matrix_apply(&scratch.coeffs, &columns_of(shares, run), &mut solved, true);
        }
    }

    /// Validates indices (range, duplicates) and equal shard lengths,
    /// returning the common length. With `min_shares > 0` also enforces a
    /// minimum share count.
    fn validate_shares(&self, shares: &[(usize, &[u8])], min_shares: usize) -> Result<usize, CodeError> {
        let n = self.code.n();
        if shares.len() < min_shares {
            return Err(CodeError::NotEnoughShares {
                needed: min_shares,
                available: shares.len(),
            });
        }
        let shard_len = first_len(shares);
        let mut seen = vec![false; n];
        for &(idx, shard) in shares {
            if idx >= n {
                return Err(CodeError::ShareIndexOutOfRange { index: idx, n });
            }
            if seen[idx] {
                return Err(CodeError::DuplicateShare { index: idx });
            }
            seen[idx] = true;
            if shard.len() != shard_len {
                return Err(CodeError::ShardSizeMismatch {
                    expected: shard_len,
                    actual: shard.len(),
                });
            }
        }
        Ok(shard_len)
    }
}

/// Length of the first share (0 for none) — the shard length of an output
/// sized before the shares are validated.
fn first_len(shares: &[(usize, &[u8])]) -> usize {
    shares.first().map_or(0, |(_, s)| s.len())
}

/// The bytes `columns` of every share, without their node indices.
fn columns_of<'a>(shares: &[(usize, &'a [u8])], columns: &Range<usize>) -> Vec<&'a [u8]> {
    shares.iter().map(|&(_, shard)| &shard[columns.clone()]).collect()
}

/// Checks that `shards` is `count` shards of `shard_len` bytes.
fn check_shape(shards: &ByteShards, count: usize, shard_len: usize) -> Result<(), CodeError> {
    if shards.shard_count() != count || shards.shard_len() != shard_len {
        return Err(CodeError::ShardSizeMismatch {
            expected: count * shard_len,
            actual: shards.total_len(),
        });
    }
    Ok(())
}

/// Whether a fixed-size chunk (a multiple of 8 bytes) holds a non-zero
/// byte; the OR-fold of its 64-bit words compiles to a few vector
/// instructions, unlike a byte-at-a-time search with an early exit.
fn any_nonzero<const N: usize>(chunk: &[u8; N]) -> bool {
    const { assert!(N.is_multiple_of(8), "a chunk is whole words") };
    let (words, _) = chunk.as_chunks::<8>();
    words.iter().fold(0, |acc, word| acc | u64::from_ne_bytes(*word)) != 0
}

/// Offset of the first non-zero byte of `bytes`, testing 64 bytes at a time.
fn first_nonzero(bytes: &[u8]) -> Option<usize> {
    let (chunks, _) = bytes.as_chunks::<64>();
    let head = chunks
        .iter()
        .position(any_nonzero)
        .map_or(chunks.len() * 64, |at| at * 64);
    bytes[head..].iter().position(|&b| b != 0).map(|at| head + at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::GeneratorForm;

    fn codec(n: usize, k: usize, form: GeneratorForm) -> ByteCodec {
        ByteCodec::new(SecCode::cauchy(n, k, form).unwrap())
    }

    fn object(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + 7) as u8).collect()
    }

    /// The per-column reference: [`SecCode::encode`] on every byte column.
    fn reference_encode(code: &SecCode<Gf256>, data: &ByteShards) -> Vec<Vec<u8>> {
        let columns: Vec<Vec<Gf256>> = (0..data.shard_len())
            .map(|at| {
                let column: Vec<Gf256> = (0..code.k()).map(|i| Gf256::from(data.shard(i)[at])).collect();
                code.encode(&column).unwrap()
            })
            .collect();
        (0..code.n())
            .map(|row| columns.iter().map(|column| column[row].raw()).collect())
            .collect()
    }

    #[test]
    fn byte_shards_shape_accessors() {
        let s = ByteShards::from_flat(&object(10), 3);
        assert_eq!(s.shard_count(), 3);
        assert_eq!(s.shard_len(), 4);
        assert_eq!(s.total_len(), 12);
        assert_eq!(s.join(10), object(10));
        assert_eq!(s.to_rows().len(), 3);
        assert_eq!(s.as_bytes().len(), 12);
        // `into_flat` is `join` without the copy: same bytes, same buffer.
        let buffer = s.as_bytes().as_ptr();
        let flat = s.into_flat(10);
        assert_eq!(flat, object(10));
        assert_eq!(flat.as_ptr(), buffer);
        // Empty object: zero-length shards.
        let empty = ByteShards::from_flat(&[], 4);
        assert_eq!(empty.shard_count(), 4);
        assert_eq!(empty.shard_len(), 0);
        assert_eq!(empty.weight(), 0);
    }

    #[test]
    fn byte_shards_from_rows_validates() {
        assert!(ByteShards::from_rows(&[vec![1, 2], vec![3, 4]]).is_ok());
        assert!(matches!(
            ByteShards::from_rows(&[vec![1, 2], vec![3]]),
            Err(CodeError::ShardSizeMismatch {
                expected: 2,
                actual: 1
            })
        ));
    }

    #[test]
    fn byte_shards_weight_and_xor() {
        let mut a = ByteShards::from_flat(&[0, 0, 5, 0, 0, 0], 3);
        assert_eq!(a.weight(), 1);
        let b = ByteShards::from_flat(&[1, 0, 5, 0, 0, 9], 3);
        a.xor_with(&b).unwrap();
        assert_eq!(a.as_bytes(), &[1, 0, 0, 0, 0, 9]);
        assert_eq!(a.weight(), 2);
        // A differing shard count and a differing shard length are told
        // apart, each in its own unit; `a` is untouched by both.
        let fewer = ByteShards::from_flat(&[1, 2, 3, 4], 2);
        assert_eq!(
            a.xor_with(&fewer),
            Err(CodeError::DataLengthMismatch {
                expected: 3,
                actual: 2
            })
        );
        let longer = ByteShards::from_flat(&[1; 9], 3);
        assert_eq!(
            a.xor_with(&longer),
            Err(CodeError::ShardSizeMismatch {
                expected: 2,
                actual: 3
            })
        );
        assert_eq!(a.as_bytes(), &[1, 0, 0, 0, 0, 9]);
    }

    #[test]
    fn weight_sees_a_lone_byte_on_either_side_of_every_64_byte_boundary() {
        for shard_len in [1usize, 63, 64, 65, 128, 129] {
            assert_eq!(ByteShards::zeroed(3, shard_len).weight(), 0, "len {shard_len}");
            for at in [0, 62, 63, 64, 65, 127, 128, shard_len - 1]
                .into_iter()
                .filter(|&at| at < shard_len)
            {
                let mut s = ByteShards::zeroed(3, shard_len);
                s.shard_mut(1)[at] = 0x80;
                assert_eq!(s.weight(), 1, "len {shard_len} byte {at}");
                s.shard_mut(2)[shard_len - 1] = 1;
                assert_eq!(s.weight(), 2, "len {shard_len} byte {at} + last byte");
            }
        }
    }

    #[test]
    fn encode_sparse_into_zero_pads_short_blocks() {
        for form in [GeneratorForm::Systematic, GeneratorForm::NonSystematic] {
            let codec = codec(6, 3, form);
            // A flat object's chunks, the last ones short or missing, encode
            // as its zero-padded shards.
            for len in [0usize, 1, 7, 10, 64, 65, 100] {
                let obj = object(len);
                let width = len.div_ceil(3).max(1);
                let blocks: Vec<(usize, &[u8])> = obj.chunks(width).enumerate().collect();
                let mut out = vec![vec![0xEEu8; len.div_ceil(3)]; 6];
                let mut dsts: Vec<&mut [u8]> = out.iter_mut().map(Vec::as_mut_slice).collect();
                codec.encode_sparse_into(&blocks, &mut dsts).unwrap();
                let padded = codec.encode_blocks(&ByteShards::from_flat(&obj, 3)).unwrap();
                assert_eq!(out, padded.to_rows(), "{form} len {len}");
            }
        }
    }

    #[test]
    fn encode_sparse_into_rejects_malformed_blocks_and_outputs() {
        let codec = codec(6, 3, GeneratorForm::NonSystematic);
        let block = [1u8; 4];
        let encode = |blocks: &[(usize, &[u8])], out: &mut Vec<Vec<u8>>| {
            let mut dsts: Vec<&mut [u8]> = out.iter_mut().map(Vec::as_mut_slice).collect();
            codec.encode_sparse_into(blocks, &mut dsts)
        };
        assert_eq!(
            encode(&[(0, &block)], &mut vec![vec![0; 4]; 5]),
            Err(CodeError::DataLengthMismatch {
                expected: 6,
                actual: 5
            })
        );
        let mut ragged = vec![vec![0; 4]; 6];
        ragged[3].pop();
        assert_eq!(
            encode(&[(0, &block)], &mut ragged),
            Err(CodeError::ShardSizeMismatch {
                expected: 4,
                actual: 3
            })
        );
        assert_eq!(
            encode(&[(3, &block)], &mut vec![vec![0; 4]; 6]),
            Err(CodeError::DataLengthMismatch {
                expected: 3,
                actual: 4
            })
        );
        assert_eq!(
            encode(&[(1, &block), (1, &block)], &mut vec![vec![0; 4]; 6]),
            Err(CodeError::DuplicateShare { index: 1 })
        );
        assert_eq!(
            encode(&[(0, &[1u8; 5])], &mut vec![vec![0; 4]; 6]),
            Err(CodeError::ShardSizeMismatch {
                expected: 4,
                actual: 5
            })
        );
    }

    #[test]
    fn encode_decode_round_trip_matches_reference() {
        for form in [GeneratorForm::Systematic, GeneratorForm::NonSystematic] {
            let codec = codec(6, 3, form);
            let obj = object(100);
            let data = ByteShards::from_flat(&obj, 3);
            let coded = codec.encode_blocks(&data).unwrap();
            assert_eq!(coded.shard_count(), 6);

            let reference = reference_encode(codec.code(), &data);
            for (i, ref_row) in reference.iter().enumerate() {
                assert_eq!(coded.shard(i), ref_row.as_slice(), "{form} row {i}");
            }

            let shares: Vec<(usize, &[u8])> = [4, 2, 5].iter().map(|&i| (i, coded.shard(i))).collect();
            let decoded = codec.decode_blocks(&shares).unwrap();
            assert_eq!(decoded.join(obj.len()), obj, "{form}");
        }
    }

    #[test]
    fn encode_blocks_into_reuses_output() {
        let codec = codec(6, 3, GeneratorForm::NonSystematic);
        let data = ByteShards::from_flat(&object(64), 3);
        let mut out = ByteShards::zeroed(6, data.shard_len());
        codec.encode_blocks_into(&data, &mut out).unwrap();
        let fresh = codec.encode_blocks(&data).unwrap();
        assert_eq!(out, fresh);
        // Wrong output shape is rejected.
        let mut bad = ByteShards::zeroed(5, data.shard_len());
        assert!(matches!(
            codec.encode_blocks_into(&data, &mut bad),
            Err(CodeError::ShardSizeMismatch { .. })
        ));
    }

    #[test]
    fn decode_blocks_into_overwrites_and_copies_systematic_symbols() {
        for form in [GeneratorForm::Systematic, GeneratorForm::NonSystematic] {
            let codec = codec(6, 3, form);
            let data = ByteShards::from_flat(&object(100), 3);
            let coded = codec.encode_blocks(&data).unwrap();
            // Every 3-subset in a scrambled order, systematic-only ones
            // (the copy path) included, into a dirty output.
            for rows in sec_linalg::combinatorics::combinations(6, 3) {
                let shares: Vec<(usize, &[u8])> =
                    rows.iter().rev().map(|&i| (i, coded.shard(i))).collect();
                let mut out = ByteShards::from_flat(&[0xEE; 102], 3);
                codec.decode_blocks_into(&shares, &mut out).unwrap();
                assert_eq!(out, data, "{form} rows {rows:?}");
            }
            let shares: Vec<(usize, &[u8])> = (0..3).map(|i| (i, coded.shard(i))).collect();
            for mut bad in [ByteShards::zeroed(2, 34), ByteShards::zeroed(3, 33)] {
                assert!(matches!(
                    codec.decode_blocks_into(&shares, &mut bad),
                    Err(CodeError::ShardSizeMismatch { expected: 102, .. })
                ));
            }
        }
    }

    #[test]
    fn decode_sum_into_decodes_the_xor_of_its_codewords() {
        for form in [GeneratorForm::Systematic, GeneratorForm::NonSystematic] {
            let codec = codec(6, 3, form);
            let objects: Vec<ByteShards> = (0..3)
                .map(|m| ByteShards::from_flat(&object(300 + m)[m..], 3))
                .collect();
            let coded: Vec<ByteShards> =
                objects.iter().map(|o| codec.encode_blocks(o).unwrap()).collect();
            for rows in sec_linalg::combinatorics::combinations(6, 3) {
                let shares: Vec<Vec<(usize, &[u8])>> = coded
                    .iter()
                    .map(|c| rows.iter().map(|&i| (i, c.shard(i))).collect())
                    .collect();
                for members in 1..=3 {
                    let codewords: Vec<&[(usize, &[u8])]> =
                        shares[..members].iter().map(Vec::as_slice).collect();
                    let mut sum = objects[0].clone();
                    for o in &objects[1..members] {
                        sum.xor_with(o).unwrap();
                    }
                    let mut out = ByteShards::from_flat(&[0xEE; 300], 3);
                    codec.decode_sum_into(&codewords, &mut out, false).unwrap();
                    assert_eq!(out, sum, "{form} rows {rows:?} × {members}");
                    // Accumulating onto the sum cancels it.
                    codec.decode_sum_into(&codewords, &mut out, true).unwrap();
                    assert_eq!(out.weight(), 0, "{form} rows {rows:?} × {members}");
                }
            }
            // Two codewords read at different positions cannot be summed.
            let at = |rows: [usize; 3]| -> Vec<(usize, &[u8])> {
                rows.iter().map(|&i| (i, coded[0].shard(i))).collect()
            };
            let (a, b) = (at([0, 1, 2]), at([0, 1, 3]));
            let mut out = ByteShards::zeroed(3, 100);
            assert_eq!(
                codec.decode_sum_into(&[&a, &b], &mut out, false),
                Err(CodeError::UndecodableShareSet)
            );
            assert!(matches!(
                codec.decode_sum_into(&[], &mut out, false),
                Err(CodeError::NotEnoughShares {
                    needed: 3,
                    available: 0
                })
            ));
        }
    }

    #[test]
    fn rebuild_block_equals_decode_then_encode() {
        for form in [GeneratorForm::Systematic, GeneratorForm::NonSystematic] {
            let codec = codec(6, 3, form);
            let coded = codec
                .encode_blocks(&ByteShards::from_flat(&object(200), 3))
                .unwrap();
            for rows in sec_linalg::combinatorics::combinations(6, 3) {
                let shares: Vec<(usize, &[u8])> = rows.iter().map(|&i| (i, coded.shard(i))).collect();
                for position in 0..6 {
                    let block = codec.rebuild_block(&shares, position).unwrap();
                    assert_eq!(block, coded.shard(position), "{form} rows {rows:?} → {position}");
                }
            }
            let shares: Vec<(usize, &[u8])> = (0..3).map(|i| (i, coded.shard(i))).collect();
            assert!(matches!(
                codec.rebuild_block(&shares, 6),
                Err(CodeError::ShareIndexOutOfRange { index: 6, n: 6 })
            ));
            assert!(matches!(
                codec.rebuild_block(&shares[..2], 0),
                Err(CodeError::NotEnoughShares { .. })
            ));
        }
    }

    /// Every run the scan finds, in order.
    fn runs_of(shares: &[(usize, &[u8])]) -> Vec<Range<usize>> {
        let mut runs = Vec::new();
        scan_runs(shares, &mut runs);
        runs
    }

    #[test]
    fn runs_cover_every_nonzero_column_across_strip_boundaries() {
        for len in [0usize, 1, 63, 64, 65, 200, 2 * RUN_GAP + 77] {
            let zero = vec![0u8; len];
            assert_eq!(runs_of(&[(0, &zero), (1, &zero)]), [], "len {len}");
            let strip = |s: usize| s * STRIP..((s + 1) * STRIP).min(len);
            for first in 0..len {
                let lasts = [
                    first,
                    first + 70,
                    first + RUN_GAP - 1,
                    first + RUN_GAP + 1,
                    len - 1,
                ];
                for last in lasts.map(|last| last.min(len - 1)) {
                    // One byte in each share: a run is the union of the
                    // strips that hold one, merged when fewer than
                    // `RUN_GAP` zero bytes of whole strips lie between them.
                    let (mut a, mut b) = (zero.clone(), zero.clone());
                    a[first] = 1;
                    b[last] = 2;
                    let (sf, sl) = (first / STRIP, last / STRIP);
                    let mut expect = vec![strip(sf)];
                    if (sl - sf) * STRIP <= RUN_GAP {
                        expect[0].end = strip(sl).end;
                    } else {
                        expect.push(strip(sl));
                    }
                    assert_eq!(
                        runs_of(&[(0, &a), (1, &b)]),
                        expect,
                        "len {len} bytes {first}, {last}"
                    );
                }
            }
        }
        // A dense share splits into runs of at most `MAX_RUN`, the last one
        // short.
        let dense = vec![1u8; 2 * MAX_RUN + 13];
        assert_eq!(
            runs_of(&[(0, &dense)]),
            [0..MAX_RUN, MAX_RUN..2 * MAX_RUN, 2 * MAX_RUN..2 * MAX_RUN + 13]
        );
    }

    #[test]
    fn recover_sparse_into_leaves_the_accumulator_alone_on_failure() {
        let codec = codec(6, 3, GeneratorForm::NonSystematic);
        let dense = ByteShards::from_flat(&object(30), 3);
        let coded = codec.encode_blocks(&dense).unwrap();
        let shares: Vec<(usize, &[u8])> = vec![(0, coded.shard(0)), (1, coded.shard(1))];
        let before = ByteShards::from_flat(&object(30), 3);
        let mut acc = before.clone();
        assert_eq!(
            codec.recover_sparse_into(&shares, 1, &mut acc),
            Err(CodeError::SparseRecoveryFailed { gamma: 1 })
        );
        assert_eq!(acc, before);
        let mut misshapen = ByteShards::zeroed(3, 9);
        assert!(matches!(
            codec.recover_sparse_into(&shares, 1, &mut misshapen),
            Err(CodeError::ShardSizeMismatch { .. })
        ));
    }

    #[test]
    fn sparse_recovery_of_block_sparse_delta() {
        let codec = codec(6, 3, GeneratorForm::NonSystematic);
        // 1-block-sparse delta: only the middle shard is non-zero.
        let mut delta = ByteShards::zeroed(3, 33);
        delta.shard_mut(1).copy_from_slice(&object(33));
        let coded = codec.encode_blocks(&delta).unwrap();
        for pair in sec_linalg::combinatorics::combinations(6, 2) {
            let shares: Vec<(usize, &[u8])> = pair.iter().map(|&i| (i, coded.shard(i))).collect();
            let recovered = codec.recover_sparse_blocks(&shares, 1).unwrap();
            assert_eq!(recovered, delta, "rows {pair:?}");
        }
    }

    #[test]
    fn sparse_recovery_zero_delta_and_failure() {
        let codec = codec(6, 3, GeneratorForm::NonSystematic);
        let zero = ByteShards::zeroed(6, 8);
        let shares: Vec<(usize, &[u8])> = vec![(0, zero.shard(0)), (3, zero.shard(3))];
        let recovered = codec.recover_sparse_blocks(&shares, 1).unwrap();
        assert_eq!(recovered.weight(), 0);

        // A dense (3-block) object cannot be explained as 1-sparse.
        let dense = ByteShards::from_flat(&object(30), 3);
        let coded = codec.encode_blocks(&dense).unwrap();
        let shares: Vec<(usize, &[u8])> = vec![(0, coded.shard(0)), (1, coded.shard(1))];
        match codec.recover_sparse_blocks(&shares, 1) {
            Err(CodeError::SparseRecoveryFailed { gamma: 1 }) => {}
            Ok(wrong) => assert_ne!(wrong, dense),
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn pipeline_error_paths() {
        let codec = codec(6, 3, GeneratorForm::NonSystematic);
        let data = ByteShards::from_flat(&object(9), 3);
        let coded = codec.encode_blocks(&data).unwrap();
        assert!(matches!(
            codec.encode_blocks(&ByteShards::from_flat(&object(9), 2)),
            Err(CodeError::DataLengthMismatch {
                expected: 3,
                actual: 2
            })
        ));
        assert!(matches!(
            codec.decode_blocks(&[(0, coded.shard(0))]),
            Err(CodeError::NotEnoughShares { .. })
        ));
        assert!(matches!(
            codec.decode_blocks(&[(0, coded.shard(0)), (0, coded.shard(0)), (1, coded.shard(1))]),
            Err(CodeError::DuplicateShare { index: 0 })
        ));
        assert!(matches!(
            codec.decode_blocks(&[(9, coded.shard(0)), (1, coded.shard(1)), (2, coded.shard(2))]),
            Err(CodeError::ShareIndexOutOfRange { index: 9, n: 6 })
        ));
        let short = [0u8; 1];
        assert!(matches!(
            codec.decode_blocks(&[(0, coded.shard(0)), (1, &short), (2, coded.shard(2))]),
            Err(CodeError::ShardSizeMismatch { .. })
        ));
        assert!(matches!(
            codec.recover_sparse_blocks(&[(0, coded.shard(0)), (1, coded.shard(1))], 0),
            Err(CodeError::SparsityNotExploitable { gamma: 0, .. })
        ));
        assert!(matches!(
            codec.recover_sparse_blocks(&[(0, coded.shard(0)), (1, coded.shard(1))], 2),
            Err(CodeError::SparsityNotExploitable { gamma: 2, k: 3 })
        ));
        assert!(matches!(
            codec.recover_sparse_blocks(&[(0, coded.shard(0))], 1),
            Err(CodeError::NotEnoughShares { .. })
        ));
    }

    #[test]
    fn clones_share_code_and_tables() {
        let codec = codec(6, 3, GeneratorForm::NonSystematic);
        let clone = codec.clone();
        assert!(Arc::ptr_eq(&codec.shared_code(), &clone.shared_code()));
        assert!(Arc::ptr_eq(&codec.shared_tables(), &clone.shared_tables()));
        // Tables built through one clone are visible through the other.
        let data = ByteShards::from_flat(&object(32), 3);
        let coded = clone.encode_blocks(&data).unwrap();
        assert!(codec.shared_tables().cached_coefficients() > 0);
        let shares: Vec<(usize, &[u8])> = (0..3).map(|i| (i, coded.shard(i))).collect();
        assert_eq!(codec.decode_blocks(&shares).unwrap(), data);
    }

    #[test]
    fn cached_coefficients_counts_distinct_nontrivial_generator_entries() {
        for form in [GeneratorForm::NonSystematic, GeneratorForm::Systematic] {
            let codec = codec(6, 3, form);
            assert_eq!(
                codec.shared_tables().cached_coefficients(),
                0,
                "cache starts empty"
            );
            let data = ByteShards::from_flat(&object(96), 3);
            codec.encode_blocks(&data).unwrap();
            // Tables are built lazily, one per *distinct* coefficient the
            // encode actually multiplies by. A unit row — every systematic
            // symbol — is a copy that touches no table, so the count after an
            // encode is exactly the number of distinct entries of the other
            // rows.
            let g = codec.code().generator();
            let expect: std::collections::BTreeSet<u64> = g
                .iter_rows()
                .filter(|row| row.iter().filter(|c| !c.is_zero()).count() > 1)
                .flat_map(|row| row.iter().map(|c| c.to_u64()))
                .collect();
            assert!(!expect.contains(&0), "{form}: a Cauchy row has no zero entry");
            assert_eq!(
                codec.shared_tables().cached_coefficients(),
                expect.len(),
                "{form}"
            );
            // Re-encoding reuses every cached table: the count must not grow.
            codec.encode_blocks(&data).unwrap();
            assert_eq!(
                codec.shared_tables().cached_coefficients(),
                expect.len(),
                "{form}"
            );
        }
    }

    #[test]
    fn concurrent_decodes_through_one_codec() {
        let codec = std::sync::Arc::new(codec(6, 3, GeneratorForm::NonSystematic));
        let obj = object(96);
        let coded = codec.encode_blocks(&ByteShards::from_flat(&obj, 3)).unwrap();
        let coded = std::sync::Arc::new(coded);
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let codec = std::sync::Arc::clone(&codec);
                let coded = std::sync::Arc::clone(&coded);
                let expect = obj.clone();
                std::thread::spawn(move || {
                    let rows = [[0, 1, 2], [3, 4, 5], [0, 2, 4], [1, 3, 5]][t % 4];
                    for _ in 0..25 {
                        let shares: Vec<(usize, &[u8])> =
                            rows.iter().map(|&i| (i, coded.shard(i))).collect();
                        let decoded = codec.decode_blocks(&shares).unwrap();
                        assert_eq!(decoded.join(expect.len()), expect);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn zero_length_shards_round_trip() {
        let codec = codec(6, 3, GeneratorForm::NonSystematic);
        let data = ByteShards::zeroed(3, 0);
        let coded = codec.encode_blocks(&data).unwrap();
        assert_eq!(coded.shard_len(), 0);
        let shares: Vec<(usize, &[u8])> = (0..3).map(|i| (i, coded.shard(i))).collect();
        let decoded = codec.decode_blocks(&shares).unwrap();
        assert_eq!(decoded.total_len(), 0);
    }
}
