//! The [`SecCode`] type: an `(n, k)` MDS code with both full and sparse
//! decoding, in systematic or non-systematic form.

use core::fmt;
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use sec_gf::GaloisField;
use sec_linalg::cauchy::{cauchy_matrix, cauchy_parity_block, CauchyError};
use sec_linalg::{checks, ops, Matrix};

use crate::error::CodeError;
use crate::sparse;

/// The `(n, k)` parameters of a linear code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CodeParams {
    /// Code length: number of coded symbols / storage nodes per object.
    pub n: usize,
    /// Code dimension: number of source symbols per object.
    pub k: usize,
}

impl CodeParams {
    /// Creates and validates the parameter pair.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParams`] unless `0 < k < n`.
    pub fn new(n: usize, k: usize) -> Result<Self, CodeError> {
        if k == 0 {
            return Err(CodeError::InvalidParams {
                n,
                k,
                reason: "k must be positive",
            });
        }
        if k >= n {
            return Err(CodeError::InvalidParams {
                n,
                k,
                reason: "k must be less than n",
            });
        }
        Ok(Self { n, k })
    }

    /// Storage overhead `n / k` of the code.
    pub fn overhead(&self) -> f64 {
        self.n as f64 / self.k as f64
    }

    /// Code rate `k / n`.
    pub fn rate(&self) -> f64 {
        self.k as f64 / self.n as f64
    }

    /// Largest sparsity level whose deltas are cheaper to read than a full
    /// object, i.e. the largest `γ` with `2γ < k`.
    pub fn max_exploitable_sparsity(&self) -> usize {
        if self.k == 0 {
            0
        } else {
            (self.k - 1) / 2
        }
    }
}

impl fmt::Display for CodeParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.n, self.k)
    }
}

/// Whether the generator matrix is in systematic form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GeneratorForm {
    /// `G_S = [I_k ; B]`: the first `k` coded symbols are the data itself.
    Systematic,
    /// `G_N`: a dense (Cauchy) matrix with no identity block.
    NonSystematic,
}

impl fmt::Display for GeneratorForm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeneratorForm::Systematic => write!(f, "systematic"),
            GeneratorForm::NonSystematic => write!(f, "non-systematic"),
        }
    }
}

/// One coded symbol together with the index of the node that stores it.
pub type Share<F> = (usize, F);

/// Bounded, lock-free memo of [`SecCode::rows_qualify`] verdicts, keyed by
/// the row set's bitmask. Whether a row set satisfies Criterion 2 depends
/// only on the generator, so each verdict is a pure function of its key: a
/// racing or evicted slot costs a recomputation, never a different answer.
///
/// A slot holds `mask << 2 | verdict << 1 | 1` (zero = empty), which needs
/// `n ≤ 62`; longer codes simply bypass the memo. The memo is a cache, not
/// part of the code's identity: clones start empty and all memos compare
/// equal.
struct QualifyMemo {
    slots: [AtomicU64; Self::SLOTS],
}

impl QualifyMemo {
    const SLOTS: usize = 256;
    const MAX_N: usize = 62;

    fn slot(&self, mask: u64) -> &AtomicU64 {
        // Fibonacci hashing: the top 8 bits of the product pick the slot.
        &self.slots[(mask.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as usize]
    }

    fn get(&self, mask: u64) -> Option<bool> {
        #[expect(
            clippy::disallowed_methods,
            reason = "the slot word is the whole entry (key and verdict), publishing no other data"
        )]
        let word = self.slot(mask).load(Ordering::Relaxed);
        (word & 1 == 1 && word >> 2 == mask).then_some(word & 2 != 0)
    }

    fn put(&self, mask: u64, verdict: bool) {
        let word = mask << 2 | u64::from(verdict) << 1 | 1;
        #[expect(
            clippy::disallowed_methods,
            reason = "the slot word is the whole entry; overwriting a colliding key only evicts it"
        )]
        self.slot(mask).store(word, Ordering::Relaxed);
    }
}

impl Default for QualifyMemo {
    fn default() -> Self {
        Self {
            slots: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Clone for QualifyMemo {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl PartialEq for QualifyMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for QualifyMemo {}

impl fmt::Debug for QualifyMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("QualifyMemo")
    }
}

/// Bounded, lock-free memo of [`SecCode::rows_inverse`], keyed like
/// [`QualifyMemo`] by the row set's bitmask (`n ≤ 62`; longer codes bypass
/// it). An inverse depends only on the generator, so a slot is filled once
/// and read without synchronisation beyond its `OnceLock`: a row set whose
/// two candidate slots are taken by other sets, or a racing fill that
/// loses, only costs a recomputation. Like [`QualifyMemo`] it is a cache,
/// not part of the code's identity: clones start empty and all memos
/// compare equal.
struct InverseMemo<F> {
    slots: Box<[InverseSlot<F>]>,
}

/// One [`InverseMemo`] slot: a row set's mask and its inverse, row-major.
type InverseSlot<F> = OnceLock<(u64, Box<[F]>)>;

impl<F> InverseMemo<F> {
    const SLOTS: usize = 128;

    /// The two slots a mask may occupy: Fibonacci hashing picks a pair.
    fn slots(&self, mask: u64) -> impl Iterator<Item = &InverseSlot<F>> {
        let pair = (mask.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 57) as usize & !1;
        self.slots[pair..pair + 2].iter()
    }

    fn get(&self, mask: u64) -> Option<&[F]> {
        self.slots(mask).find_map(|slot| match slot.get() {
            Some((key, inverse)) if *key == mask => Some(&**inverse),
            _ => None,
        })
    }

    /// Stores `inverse` in a free slot of `mask`'s pair and returns it
    /// there, or hands it back when both are taken.
    fn put(&self, mask: u64, inverse: Box<[F]>) -> Result<&[F], Box<[F]>> {
        let mut inverse = Some(inverse);
        for slot in self.slots(mask) {
            // Claims an empty slot; a racing fill of the same mask wins
            // and ours is dropped.
            let (key, stored) = slot.get_or_init(|| (mask, inverse.take().unwrap_or_default()));
            if *key == mask {
                return Ok(stored);
            }
        }
        Err(inverse.unwrap_or_default())
    }
}

impl<F> Default for InverseMemo<F> {
    fn default() -> Self {
        Self {
            slots: (0..Self::SLOTS).map(|_| OnceLock::new()).collect(),
        }
    }
}

impl<F> Clone for InverseMemo<F> {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl<F> PartialEq for InverseMemo<F> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl<F> Eq for InverseMemo<F> {}

impl<F> fmt::Debug for InverseMemo<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("InverseMemo")
    }
}

/// An `(n, k)` linear MDS code with SEC's two decoding modes.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecCode<F> {
    params: CodeParams,
    form: GeneratorForm,
    generator: Matrix<F>,
    qualify: QualifyMemo,
    inverses: InverseMemo<F>,
}

impl<F: GaloisField> SecCode<F> {
    /// Builds an `(n, k)` Cauchy-matrix code in the requested form
    /// (paper, Examples 1 and 2).
    ///
    /// The Cauchy construction needs one distinct field element per point.
    /// Over `GF(2^8)` a non-systematic code therefore needs `n + k ≤ 256`,
    /// and a systematic one (whose `(n − k) × k` parity block is the Cauchy
    /// matrix) needs `n ≤ 256`.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParams`] for a bad `(n, k)` pair or
    /// [`CodeError::FieldTooSmall`] when the field cannot host the Cauchy
    /// construction.
    pub fn cauchy(n: usize, k: usize, form: GeneratorForm) -> Result<Self, CodeError> {
        let params = CodeParams::new(n, k)?;
        let generator = match form {
            GeneratorForm::NonSystematic => map_cauchy_err(cauchy_matrix::<F>(n, k), n, k)?,
            GeneratorForm::Systematic => {
                let parity = map_cauchy_err(cauchy_parity_block::<F>(n, k), n, k)?;
                Matrix::identity(k).stack(&parity)?
            }
        };
        Ok(Self {
            params,
            form,
            generator,
            qualify: QualifyMemo::default(),
            inverses: InverseMemo::default(),
        })
    }

    /// The `(n, k)` parameters.
    pub fn params(&self) -> CodeParams {
        self.params
    }

    /// Code length `n`.
    pub fn n(&self) -> usize {
        self.params.n
    }

    /// Code dimension `k`.
    pub fn k(&self) -> usize {
        self.params.k
    }

    /// The generator form (systematic or not).
    pub fn form(&self) -> GeneratorForm {
        self.form
    }

    /// The full `n × k` generator matrix.
    pub fn generator(&self) -> &Matrix<F> {
        &self.generator
    }

    /// Rows of the generator restricted to the parity block (`B`) for a
    /// systematic code, or all rows for a non-systematic one. These are the
    /// rows from which Criterion-2 submatrices are drawn for systematic codes
    /// (paper §III-C).
    pub fn sparse_eligible_rows(&self) -> Vec<usize> {
        match self.form {
            GeneratorForm::Systematic => (self.params.k..self.params.n).collect(),
            GeneratorForm::NonSystematic => (0..self.params.n).collect(),
        }
    }

    /// Whether the generator rows `rows` (distinct) form a Criterion-2
    /// submatrix — every `|rows|` of its columns linearly independent — i.e.
    /// whether those coded symbols sparse-recover any `|rows|/2`-sparse
    /// object. The verdict depends only on the code, so it is decided once
    /// per row set and remembered.
    pub(crate) fn rows_qualify(&self, rows: &[usize]) -> bool {
        let mask = self.row_mask(rows);
        if let Some(verdict) = mask.and_then(|mask| self.qualify.get(mask)) {
            return verdict;
        }
        let verdict = self
            .generator
            .select_rows(rows)
            .is_ok_and(|sub| checks::all_columns_independent(&sub));
        if let Some(mask) = mask {
            self.qualify.put(mask, verdict);
        }
        verdict
    }

    /// The memo key of a row set: its bitmask, `None` for a code too long
    /// to memoise or a row out of range.
    fn row_mask(&self, rows: &[usize]) -> Option<u64> {
        let n = self.params.n;
        (n <= QualifyMemo::MAX_N)
            .then(|| {
                rows.iter()
                    .try_fold(0u64, |mask, &row| (row < n).then(|| mask | 1 << row))
            })
            .flatten()
    }

    /// The inverse of the `k × k` generator submatrix on `rows` (distinct),
    /// row-major: the matrix that maps the coded symbols of `rows`, in that
    /// order, back to the data. Inverting it is a pure function of the row
    /// set, so it is done once per set in ascending order and remembered;
    /// any other order of the same rows permutes the remembered columns.
    ///
    /// # Errors
    ///
    /// * [`CodeError::DataLengthMismatch`] unless exactly `k` rows are given.
    /// * [`CodeError::ShareIndexOutOfRange`] for a row outside `0..n`.
    /// * [`CodeError::UndecodableShareSet`] for a singular submatrix (a
    ///   repeated row; never for `k` distinct rows of an MDS code).
    pub fn rows_inverse(&self, rows: &[usize]) -> Result<Cow<'_, [F]>, CodeError> {
        let k = self.params.k;
        if rows.len() != k {
            return Err(CodeError::DataLengthMismatch {
                expected: k,
                actual: rows.len(),
            });
        }
        if let Some(&row) = rows.iter().find(|&&row| row >= self.params.n) {
            return Err(CodeError::ShareIndexOutOfRange {
                index: row,
                n: self.params.n,
            });
        }
        if rows.windows(2).all(|pair| pair[0] < pair[1]) {
            return self.ascending_rows_inverse(rows);
        }
        let mut sorted = rows.to_vec();
        sorted.sort_unstable();
        let inverse = self.ascending_rows_inverse(&sorted)?;
        // Column `c` of the inverse belongs to coded symbol `sorted[c]`.
        let columns: Vec<usize> = rows
            .iter()
            .map(|row| sorted.partition_point(|sorted_row| sorted_row < row))
            .collect();
        let mut permuted = Vec::with_capacity(k * k);
        for row in inverse.chunks_exact(k) {
            permuted.extend(columns.iter().map(|&c| row[c]));
        }
        Ok(Cow::Owned(permuted))
    }

    /// [`SecCode::rows_inverse`] of ascending rows, through the memo.
    fn ascending_rows_inverse(&self, rows: &[usize]) -> Result<Cow<'_, [F]>, CodeError> {
        let mask = self.row_mask(rows);
        if let Some(inverse) = mask.and_then(|mask| self.inverses.get(mask)) {
            return Ok(Cow::Borrowed(inverse));
        }
        let sub = self.generator.select_rows(rows)?;
        let inverse: Box<[F]> = ops::invert(&sub)
            .map_err(|_| CodeError::UndecodableShareSet)?
            .as_slice()
            .into();
        let Some(mask) = mask else {
            return Ok(Cow::Owned(inverse.into_vec()));
        };
        Ok(match self.inverses.put(mask, inverse) {
            Ok(stored) => Cow::Borrowed(stored),
            Err(inverse) => Cow::Owned(inverse.into_vec()),
        })
    }

    /// Encodes a `k`-symbol object into its `n`-symbol codeword `c = G·x`.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::DataLengthMismatch`] when `data.len() != k`.
    pub fn encode(&self, data: &[F]) -> Result<Vec<F>, CodeError> {
        if data.len() != self.params.k {
            return Err(CodeError::DataLengthMismatch {
                expected: self.params.k,
                actual: data.len(),
            });
        }
        Ok(self
            .generator
            .mul_vec(data)
            .expect("data length validated against generator columns"))
    }

    /// Validates a share list against the code: indices in range, no
    /// duplicates.
    fn validate_shares(&self, shares: &[Share<F>]) -> Result<(), CodeError> {
        let mut seen = vec![false; self.params.n];
        for &(idx, _) in shares {
            if idx >= self.params.n {
                return Err(CodeError::ShareIndexOutOfRange {
                    index: idx,
                    n: self.params.n,
                });
            }
            if seen[idx] {
                return Err(CodeError::DuplicateShare { index: idx });
            }
            seen[idx] = true;
        }
        Ok(())
    }

    /// Recovers the full `k`-symbol object from at least `k` shares
    /// (Criterion 1 / MDS decoding).
    ///
    /// For a systematic code, if the supplied shares contain all `k`
    /// systematic symbols they are returned directly with no matrix
    /// inversion.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::NotEnoughShares`] with fewer than `k` shares, or
    /// [`CodeError::UndecodableShareSet`] if no invertible `k`-subset exists
    /// among the supplied shares (impossible for a validated MDS code).
    pub fn decode_full(&self, shares: &[Share<F>]) -> Result<Vec<F>, CodeError> {
        self.validate_shares(shares)?;
        let k = self.params.k;
        if shares.len() < k {
            return Err(CodeError::NotEnoughShares {
                needed: k,
                available: shares.len(),
            });
        }

        // Systematic fast path: all data symbols present.
        if self.form == GeneratorForm::Systematic {
            let mut data = vec![None; k];
            for &(idx, value) in shares {
                if idx < k {
                    data[idx] = Some(value);
                }
            }
            if data.iter().all(Option::is_some) {
                return Ok(data.into_iter().map(|v| v.expect("checked by all()")).collect());
            }
        }

        // General path: pick the first k shares forming an invertible system.
        let rows: Vec<usize> = shares.iter().map(|&(idx, _)| idx).collect();
        let values: Vec<F> = shares.iter().map(|&(_, v)| v).collect();
        for subset in sec_linalg::combinatorics::Combinations::new(shares.len(), k) {
            let row_idx: Vec<usize> = subset.iter().map(|&i| rows[i]).collect();
            let sub = self.generator.select_rows(&row_idx)?;
            if let Ok(inv) = ops::invert(&sub) {
                let y: Vec<F> = subset.iter().map(|&i| values[i]).collect();
                return Ok(inv.mul_vec(&y)?);
            }
        }
        Err(CodeError::UndecodableShareSet)
    }

    /// Recovers a `γ`-sparse object from `2γ` (or more) shares using the
    /// Criterion-2 property (Proposition 1 of the paper).
    ///
    /// The caller asserts the object is at most `γ`-sparse; if it is not, the
    /// recovery fails rather than returning a wrong vector (the supplied
    /// equations over-determine the support search).
    ///
    /// # Errors
    ///
    /// * [`CodeError::SparsityNotExploitable`] when `2γ ≥ k` (read the full
    ///   object instead) or `γ = 0` shares with non-zero syndrome.
    /// * [`CodeError::NotEnoughShares`] with fewer than `2γ` shares.
    /// * [`CodeError::SparseRecoveryFailed`] when no `γ`-sparse vector is
    ///   consistent with the shares.
    pub fn decode_sparse(&self, shares: &[Share<F>], gamma: usize) -> Result<Vec<F>, CodeError> {
        self.validate_shares(shares)?;
        let k = self.params.k;
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
        let rows: Vec<usize> = shares.iter().map(|&(idx, _)| idx).collect();
        let values: Vec<F> = shares.iter().map(|&(_, v)| v).collect();
        let sub = self.generator.select_rows(&rows)?;
        sparse::recover_sparse(&sub, &values, gamma).ok_or(CodeError::SparseRecoveryFailed { gamma })
    }

    /// Number of I/O reads needed to retrieve an object of sparsity `γ`
    /// through this code when all nodes are alive: `min(2γ, k)` when the
    /// sparsity is exploitable, `k` otherwise (paper, eq. 3).
    ///
    /// For systematic codes, sparsity is only exploitable when the `2γ`
    /// symbols can be drawn from the `n − k` parity rows (paper §III-C).
    pub fn io_reads_for_sparsity(&self, gamma: usize) -> usize {
        let k = self.params.k;
        if gamma == 0 {
            return 0;
        }
        if 2 * gamma >= k {
            return k;
        }
        match self.form {
            GeneratorForm::NonSystematic => 2 * gamma,
            GeneratorForm::Systematic => {
                if 2 * gamma <= self.params.n - k {
                    2 * gamma
                } else {
                    k
                }
            }
        }
    }
}

fn map_cauchy_err<T>(res: Result<T, CauchyError>, n: usize, k: usize) -> Result<T, CodeError> {
    res.map_err(|err| match err {
        CauchyError::FieldTooSmall { field_order, .. } => CodeError::FieldTooSmall { n, k, field_order },
        CauchyError::InvalidPoints => CodeError::Internal("invalid cauchy points".to_string()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sec_gf::Gf256;

    fn data256(vals: &[u64]) -> Vec<Gf256> {
        vals.iter().map(|&v| Gf256::from_u64(v)).collect()
    }

    #[test]
    fn params_validation_and_accessors() {
        assert!(CodeParams::new(6, 3).is_ok());
        assert!(matches!(
            CodeParams::new(3, 3),
            Err(CodeError::InvalidParams { .. })
        ));
        assert!(matches!(
            CodeParams::new(3, 0),
            Err(CodeError::InvalidParams { .. })
        ));
        let p = CodeParams::new(20, 10).unwrap();
        assert_eq!(p.overhead(), 2.0);
        assert_eq!(p.rate(), 0.5);
        assert_eq!(p.max_exploitable_sparsity(), 4);
        assert_eq!(CodeParams::new(6, 3).unwrap().max_exploitable_sparsity(), 1);
        assert_eq!(format!("{p}"), "(20, 10)");
    }

    #[test]
    fn qualify_memo_remembers_verdicts_and_is_not_part_of_the_code() {
        let memo = QualifyMemo::default();
        assert_eq!(memo.get(0b11_000), None);
        memo.put(0b11_000, true);
        memo.put(0b00_011, false);
        assert_eq!(memo.get(0b11_000), Some(true));
        assert_eq!(memo.get(0b00_011), Some(false));
        // A colliding key evicts; the evicted key reads as unknown, never as
        // the other key's verdict.
        let collider = (1u64..)
            .find(|&m| m != 0b11_000 && std::ptr::eq(memo.slot(m), memo.slot(0b11_000)))
            .unwrap();
        memo.put(collider, false);
        assert_eq!(memo.get(0b11_000), None);
        assert_eq!(memo.get(collider), Some(false));

        let code: SecCode<Gf256> = SecCode::cauchy(6, 3, GeneratorForm::Systematic).unwrap();
        assert!(code.rows_qualify(&[3, 4]));
        assert!(!code.rows_qualify(&[0, 4]));
        assert_eq!(code.qualify.get(0b011_000), Some(true));
        assert_eq!(code.qualify.get(0b010_001), Some(false));
        assert!(!code.rows_qualify(&[3, 9]), "out-of-range rows never qualify");
        // Clones start with an empty memo and still compare equal.
        let clone = code.clone();
        assert_eq!(clone.qualify.get(0b011_000), None);
        assert_eq!(clone, code);
        assert!(clone.rows_qualify(&[3, 4]));
    }

    #[test]
    fn memoised_inverses_equal_fresh_ones_for_every_k_subset() {
        for (n, k) in [(6usize, 3usize), (12, 6)] {
            for form in [GeneratorForm::Systematic, GeneratorForm::NonSystematic] {
                let code: SecCode<Gf256> = SecCode::cauchy(n, k, form).unwrap();
                let fresh = |rows: &[usize]| {
                    let sub = code.generator().select_rows(rows).unwrap();
                    ops::invert(&sub).unwrap().as_slice().to_vec()
                };
                for rows in sec_linalg::combinatorics::combinations(n, k) {
                    let want = fresh(&rows);
                    // The first call fills the memo (where a slot is free),
                    // the second reads it back.
                    for sweep in 0..2 {
                        assert_eq!(
                            *code.rows_inverse(&rows).unwrap(),
                            want[..],
                            "({n},{k}) {form} rows {rows:?} sweep {sweep}"
                        );
                    }
                    // Any order of the same rows: the inverse of that order.
                    let reversed: Vec<usize> = rows.iter().rev().copied().collect();
                    assert_eq!(*code.rows_inverse(&reversed).unwrap(), fresh(&reversed)[..]);
                }
                let mask = code.row_mask(&(0..k).collect::<Vec<_>>()).unwrap();
                assert!(
                    code.inverses.get(mask).is_some(),
                    "({n},{k}) {form}: memo never filled"
                );
                // Clones start with an empty memo and still compare equal.
                let clone = code.clone();
                assert!(clone.inverses.get(mask).is_none());
                assert_eq!(clone, code);
            }
        }
        let code: SecCode<Gf256> = SecCode::cauchy(6, 3, GeneratorForm::NonSystematic).unwrap();
        assert!(matches!(
            code.rows_inverse(&[0, 1]),
            Err(CodeError::DataLengthMismatch {
                expected: 3,
                actual: 2
            })
        ));
        assert!(matches!(
            code.rows_inverse(&[0, 1, 6]),
            Err(CodeError::ShareIndexOutOfRange { index: 6, n: 6 })
        ));
        assert_eq!(code.rows_inverse(&[2, 2, 1]), Err(CodeError::UndecodableShareSet));
    }

    #[test]
    fn cauchy_codes_build_in_both_forms() {
        for form in [GeneratorForm::Systematic, GeneratorForm::NonSystematic] {
            let code: SecCode<Gf256> = SecCode::cauchy(6, 3, form).unwrap();
            assert_eq!(code.n(), 6);
            assert_eq!(code.k(), 3);
            assert_eq!(code.form(), form);
            assert_eq!(code.generator().shape(), (6, 3));
        }
        // One past GF(2^8)'s ceiling, in each form.
        assert!(matches!(
            SecCode::<Gf256>::cauchy(192, 65, GeneratorForm::NonSystematic),
            Err(CodeError::FieldTooSmall {
                n: 192,
                k: 65,
                field_order: 256
            })
        ));
        assert!(matches!(
            SecCode::<Gf256>::cauchy(257, 128, GeneratorForm::Systematic),
            Err(CodeError::FieldTooSmall {
                n: 257,
                k: 128,
                field_order: 256
            })
        ));
        assert!(matches!(
            SecCode::<Gf256>::cauchy(3, 3, GeneratorForm::Systematic),
            Err(CodeError::InvalidParams { .. })
        ));
    }

    #[test]
    fn systematic_generator_starts_with_identity() {
        let code: SecCode<Gf256> = SecCode::cauchy(6, 3, GeneratorForm::Systematic).unwrap();
        let g = code.generator();
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { Gf256::ONE } else { Gf256::ZERO };
                assert_eq!(g.get(i, j), expect);
            }
        }
        assert_eq!(code.sparse_eligible_rows(), vec![3, 4, 5]);
        let ns: SecCode<Gf256> = SecCode::cauchy(6, 3, GeneratorForm::NonSystematic).unwrap();
        assert_eq!(ns.sparse_eligible_rows(), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn encode_then_decode_full_from_any_k_shares() {
        let code: SecCode<Gf256> = SecCode::cauchy(6, 3, GeneratorForm::NonSystematic).unwrap();
        let x = data256(&[17, 0, 202]);
        let c = code.encode(&x).unwrap();
        assert_eq!(c.len(), 6);
        for rows in sec_linalg::combinatorics::combinations(6, 3) {
            let shares: Vec<Share<Gf256>> = rows.iter().map(|&i| (i, c[i])).collect();
            assert_eq!(code.decode_full(&shares).unwrap(), x, "rows {rows:?}");
        }
    }

    #[test]
    fn systematic_fast_path_returns_data_directly() {
        let code: SecCode<Gf256> = SecCode::cauchy(6, 3, GeneratorForm::Systematic).unwrap();
        let x = data256(&[1, 2, 3]);
        let c = code.encode(&x).unwrap();
        assert_eq!(&c[..3], x.as_slice());
        let shares: Vec<Share<Gf256>> = vec![(0, c[0]), (1, c[1]), (2, c[2])];
        assert_eq!(code.decode_full(&shares).unwrap(), x);
        // Decoding from parity symbols also works (general path).
        let shares: Vec<Share<Gf256>> = vec![(3, c[3]), (4, c[4]), (5, c[5])];
        assert_eq!(code.decode_full(&shares).unwrap(), x);
    }

    #[test]
    fn decode_full_error_paths() {
        let code: SecCode<Gf256> = SecCode::cauchy(6, 3, GeneratorForm::NonSystematic).unwrap();
        let x = data256(&[5, 6, 7]);
        let c = code.encode(&x).unwrap();
        assert!(matches!(
            code.decode_full(&[(0, c[0])]),
            Err(CodeError::NotEnoughShares {
                needed: 3,
                available: 1
            })
        ));
        assert!(matches!(
            code.decode_full(&[(0, c[0]), (0, c[0]), (1, c[1])]),
            Err(CodeError::DuplicateShare { index: 0 })
        ));
        assert!(matches!(
            code.decode_full(&[(9, c[0]), (1, c[1]), (2, c[2])]),
            Err(CodeError::ShareIndexOutOfRange { index: 9, n: 6 })
        ));
        assert!(matches!(
            code.encode(&data256(&[1, 2])),
            Err(CodeError::DataLengthMismatch {
                expected: 3,
                actual: 2
            })
        ));
    }

    #[test]
    fn sparse_decode_from_two_shares() {
        let code: SecCode<Gf256> = SecCode::cauchy(6, 3, GeneratorForm::NonSystematic).unwrap();
        // 1-sparse delta in an arbitrary position.
        for pos in 0..3 {
            let mut z = vec![Gf256::ZERO; 3];
            z[pos] = Gf256::from_u64(0x5A);
            let c = code.encode(&z).unwrap();
            // Any 2 shares suffice for the non-systematic Cauchy code.
            for rows in sec_linalg::combinatorics::combinations(6, 2) {
                let shares: Vec<Share<Gf256>> = rows.iter().map(|&i| (i, c[i])).collect();
                assert_eq!(
                    code.decode_sparse(&shares, 1).unwrap(),
                    z,
                    "rows {rows:?} pos {pos}"
                );
            }
        }
    }

    #[test]
    fn sparse_decode_systematic_uses_parity_rows() {
        let code: SecCode<Gf256> = SecCode::cauchy(6, 3, GeneratorForm::Systematic).unwrap();
        let z = vec![Gf256::from_u64(77), Gf256::ZERO, Gf256::ZERO];
        let c = code.encode(&z).unwrap();
        // Two parity shares (rows from B) recover the delta.
        let shares: Vec<Share<Gf256>> = vec![(3, c[3]), (4, c[4])];
        assert_eq!(code.decode_sparse(&shares, 1).unwrap(), z);
        // Two identity rows that both miss the support cannot see the delta:
        // rows 1 and 2 read zeros and sparse recovery returns the zero vector,
        // which is *wrong* for z — this is exactly why Criterion 2 restricts
        // which submatrices may be used.
        let shares: Vec<Share<Gf256>> = vec![(1, c[1]), (2, c[2])];
        let recovered = code.decode_sparse(&shares, 1).unwrap();
        assert_ne!(recovered, z);
    }

    #[test]
    fn sparse_decode_error_paths() {
        let code: SecCode<Gf256> = SecCode::cauchy(6, 3, GeneratorForm::NonSystematic).unwrap();
        let z = data256(&[9, 0, 0]);
        let c = code.encode(&z).unwrap();
        assert!(matches!(
            code.decode_sparse(&[(0, c[0])], 1),
            Err(CodeError::NotEnoughShares {
                needed: 2,
                available: 1
            })
        ));
        // γ too large relative to k.
        assert!(matches!(
            code.decode_sparse(&[(0, c[0]), (1, c[1])], 2),
            Err(CodeError::SparsityNotExploitable { gamma: 2, k: 3 })
        ));
        assert!(matches!(
            code.decode_sparse(&[(0, c[0]), (1, c[1])], 0),
            Err(CodeError::SparsityNotExploitable { gamma: 0, .. })
        ));
        // A non-sparse object cannot be recovered as 1-sparse: the decoder
        // either reports failure or returns some 1-sparse vector, but never
        // the true dense object.
        let dense = data256(&[1, 2, 3]);
        let cd = code.encode(&dense).unwrap();
        match code.decode_sparse(&[(0, cd[0]), (1, cd[1])], 1) {
            Err(CodeError::SparseRecoveryFailed { gamma: 1 }) => {}
            Ok(wrong) => assert_ne!(wrong, dense),
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn io_reads_match_paper_formulas() {
        // (20,10) rate-1/2 code: both forms give min(2γ, k).
        for form in [GeneratorForm::Systematic, GeneratorForm::NonSystematic] {
            let code: SecCode<Gf256> = SecCode::cauchy(20, 10, form).unwrap();
            assert_eq!(code.io_reads_for_sparsity(0), 0);
            assert_eq!(code.io_reads_for_sparsity(3), 6);
            assert_eq!(code.io_reads_for_sparsity(4), 8);
            assert_eq!(code.io_reads_for_sparsity(5), 10);
            assert_eq!(code.io_reads_for_sparsity(8), 10);
        }
        // High-rate (6,4) systematic code: only γ ≤ (n-k)/2 = 1 exploitable.
        let sys: SecCode<Gf256> = SecCode::cauchy(6, 4, GeneratorForm::Systematic).unwrap();
        assert_eq!(sys.io_reads_for_sparsity(1), 2);
        // γ = 2 would need 4 parity rows but only 2 exist → falls back to k.
        // (2γ = 4 ≥ k = 4 anyway, so both forms read k.)
        assert_eq!(sys.io_reads_for_sparsity(2), 4);
        // High-rate (8, 5): non-systematic exploits γ = 2, systematic cannot.
        let ns: SecCode<Gf256> = SecCode::cauchy(8, 5, GeneratorForm::NonSystematic).unwrap();
        let sy: SecCode<Gf256> = SecCode::cauchy(8, 5, GeneratorForm::Systematic).unwrap();
        assert_eq!(ns.io_reads_for_sparsity(2), 4);
        assert_eq!(sy.io_reads_for_sparsity(2), 5);
    }

    #[test]
    fn paper_example_table1_io_reads() {
        // §IV-C / Table I: (6,3) code, z2 1-sparse → 2 I/O reads for both SEC
        // forms, 3 for the non-differential scheme (full object read).
        let ns: SecCode<Gf256> = SecCode::cauchy(6, 3, GeneratorForm::NonSystematic).unwrap();
        let sy: SecCode<Gf256> = SecCode::cauchy(6, 3, GeneratorForm::Systematic).unwrap();
        assert_eq!(ns.io_reads_for_sparsity(1), 2);
        assert_eq!(sy.io_reads_for_sparsity(1), 2);
        assert_eq!(ns.k(), 3);
    }
}
