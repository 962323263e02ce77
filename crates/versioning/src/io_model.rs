//! Closed-form I/O read accounting for the SEC strategies — eqs. (3) and (4)
//! of the paper and their Optimized / Reversed / non-differential variants.
//!
//! Everything in this module is a pure function of the code parameters
//! `(n, k)`, the generator form, and the sparsity profile `{γ_j}`; no data is
//! touched. The archive's operational retrieval path reproduces the same
//! numbers (see `retrieval` tests), and the Fig. 9 / §III-D experiment binary
//! prints them directly from here.

use sec_erasure::{CodeParams, GeneratorForm};

use crate::archive::{EncodingStrategy, StoredPayload};

/// I/O read model for one `(n, k)` code and generator form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoModel {
    params: CodeParams,
    form: GeneratorForm,
}

impl IoModel {
    /// Creates the model.
    pub fn new(params: CodeParams, form: GeneratorForm) -> Self {
        Self { params, form }
    }

    /// Code parameters.
    pub fn params(&self) -> CodeParams {
        self.params
    }

    /// Number of reads to retrieve a *fully encoded* object: always `k`.
    pub fn full_object_reads(&self) -> usize {
        self.params.k
    }

    /// Number of reads to retrieve a stored delta of sparsity `gamma`
    /// (paper: `min(2γ, k)` for non-systematic SEC; systematic SEC
    /// additionally requires `2γ ≤ n − k` to use the parity block, §III-C).
    pub fn delta_reads(&self, gamma: usize) -> usize {
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

    /// Whether the Optimized strategy stores version `j+1` in full
    /// (when `γ_{j+1} ≥ k/2`, storing the delta gives no I/O benefit).
    pub fn optimized_stores_full(&self, gamma: usize) -> bool {
        2 * gamma >= self.params.k
    }

    /// Reads per stored entry for the given strategy and sparsity profile.
    ///
    /// `sparsity[j]` is `γ_{j+2}`, i.e. the sparsity of the delta from version
    /// `j+1` to version `j+2` (the profile has `L - 1` entries for `L`
    /// versions). The returned vector has `L` entries: the cost of reading
    /// each stored object individually.
    pub fn entry_reads(&self, strategy: EncodingStrategy, sparsity: &[usize]) -> Vec<usize> {
        let k = self.params.k;
        let versions = sparsity.len() + 1;
        match strategy {
            EncodingStrategy::NonDifferential => vec![k; versions],
            EncodingStrategy::BasicSec => {
                let mut reads = Vec::with_capacity(versions);
                reads.push(k);
                reads.extend(sparsity.iter().map(|&g| self.delta_reads(g)));
                reads
            }
            EncodingStrategy::OptimizedSec => {
                let mut reads = Vec::with_capacity(versions);
                reads.push(k);
                reads.extend(sparsity.iter().map(|&g| {
                    if self.optimized_stores_full(g) {
                        k
                    } else {
                        self.delta_reads(g)
                    }
                }));
                reads
            }
            EncodingStrategy::ReversedSec => {
                // Stored objects: {z_2, …, z_L, x_L}. Entry j (1-based version
                // j ≥ 2) is the delta; version 1 has no stored object of its
                // own — its "entry" is the full latest copy. We report, per
                // version index, the cost of reading the object stored *for*
                // that version: deltas for 2..L and the full copy attributed
                // to the latest version.
                let mut reads = Vec::with_capacity(versions);
                reads.push(k); // the full latest copy (attributed to x_L ≡ entry 0 storage-wise)
                reads.extend(sparsity.iter().map(|&g| self.delta_reads(g)));
                reads
            }
        }
    }

    /// Total reads `η(x_l)` to retrieve version `l` alone (1-based), eq. (3)
    /// and its variants.
    ///
    /// # Panics
    ///
    /// Panics if `l` is zero or exceeds `sparsity.len() + 1`.
    pub fn version_reads(&self, strategy: EncodingStrategy, sparsity: &[usize], l: usize) -> usize {
        let versions = sparsity.len() + 1;
        assert!(l >= 1 && l <= versions, "version {l} out of range 1..={versions}");
        let k = self.params.k;
        match strategy {
            EncodingStrategy::NonDifferential => k,
            EncodingStrategy::BasicSec => {
                // η(x_l) = k + Σ_{j=2}^{l} min(2γ_j, k).
                k + sparsity[..l - 1]
                    .iter()
                    .map(|&g| self.delta_reads(g))
                    .sum::<usize>()
            }
            EncodingStrategy::OptimizedSec => {
                // l' = most recent version ≤ l stored in full.
                let anchor = self.optimized_anchor(sparsity, l);
                k + sparsity[anchor..l - 1]
                    .iter()
                    .map(|&g| self.delta_reads(g))
                    .sum::<usize>()
            }
            EncodingStrategy::ReversedSec => {
                // Walk backwards from the full latest version x_L:
                // x_l = x_L − Σ_{j=l+1}^{L} z_j, so read k + Σ_{j=l+1}^{L} reads(z_j).
                k + sparsity[l - 1..]
                    .iter()
                    .map(|&g| self.delta_reads(g))
                    .sum::<usize>()
            }
        }
    }

    /// Total reads `η(x_1, …, x_l)` to retrieve the first `l` versions,
    /// eq. (4) and its variants.
    ///
    /// # Panics
    ///
    /// Panics if `l` is zero or exceeds `sparsity.len() + 1`.
    pub fn prefix_reads(&self, strategy: EncodingStrategy, sparsity: &[usize], l: usize) -> usize {
        let versions = sparsity.len() + 1;
        assert!(l >= 1 && l <= versions, "version {l} out of range 1..={versions}");
        let k = self.params.k;
        match strategy {
            EncodingStrategy::NonDifferential => l * k,
            EncodingStrategy::BasicSec | EncodingStrategy::OptimizedSec => {
                // Differential decoding reads every stored object up to l; the
                // optimized strategy stores full objects exactly where the
                // delta would have cost k anyway, so the totals coincide
                // (paper, §III-D).
                k + sparsity[..l - 1]
                    .iter()
                    .map(|&g| self.delta_reads(g))
                    .sum::<usize>()
            }
            EncodingStrategy::ReversedSec => {
                // Reading versions 1..l requires the latest copy plus every
                // delta back to version 1; deltas l+1..L are shared with the
                // walk to version l, deltas 2..l reconstruct the earlier ones.
                k + sparsity.iter().map(|&g| self.delta_reads(g)).sum::<usize>()
            }
        }
    }

    /// Total reads to retrieve version `l` alone from a *concrete stored
    /// layout* rather than a sparsity profile.
    ///
    /// The closed forms above assume the paper's layouts — full `x_1` then
    /// deltas (Basic), or fulls exactly where `2γ ≥ k` (Optimized). A
    /// [`CheckpointPolicy`](crate::CheckpointPolicy) breaks that assumption
    /// by inserting extra fulls, so this variant walks the actual payload
    /// list (in [`stored_entries`](crate::ByteVersionedArchive::stored_entries)
    /// order, the Reversed-SEC latest copy last) and prices exactly the
    /// entries the operational walk touches. On checkpoint-free layouts it
    /// reproduces [`IoModel::version_reads`].
    ///
    /// # Panics
    ///
    /// Panics if `l` is zero or exceeds the number of versions the layout
    /// stores.
    pub fn version_reads_for_layout(
        &self,
        strategy: EncodingStrategy,
        payloads: &[StoredPayload],
        l: usize,
    ) -> usize {
        let versions = payloads.len();
        assert!(l >= 1 && l <= versions, "version {l} out of range 1..={versions}");
        match strategy {
            EncodingStrategy::NonDifferential => self.params.k,
            EncodingStrategy::BasicSec | EncodingStrategy::OptimizedSec => {
                // Anchor on the most recent stored full at or before entry
                // l - 1, then pay for every delta after it — the exact
                // traversal of `walk::VersionWalk::plan`.
                let anchor = (0..l)
                    .rev()
                    .find(|&idx| matches!(payloads[idx], StoredPayload::FullVersion { .. }))
                    .expect("the first entry always stores a full version");
                (anchor..l).map(|idx| payloads[idx].reads(self)).sum()
            }
            EncodingStrategy::ReversedSec => {
                // The full latest copy (final element) plus the deltas back
                // down to version l.
                let latest_idx = payloads.len() - 1;
                payloads[latest_idx].reads(self)
                    + (l.saturating_sub(1)..latest_idx)
                        .map(|idx| payloads[idx].reads(self))
                        .sum::<usize>()
            }
        }
    }

    /// Total reads to retrieve versions `1..=l` from a concrete stored
    /// layout; the layout-walking counterpart of [`IoModel::prefix_reads`].
    ///
    /// # Panics
    ///
    /// Panics if `l` is zero or exceeds the number of versions the layout
    /// stores.
    pub fn prefix_reads_for_layout(
        &self,
        strategy: EncodingStrategy,
        payloads: &[StoredPayload],
        l: usize,
    ) -> usize {
        let versions = payloads.len();
        assert!(l >= 1 && l <= versions, "version {l} out of range 1..={versions}");
        match strategy {
            EncodingStrategy::NonDifferential => l * self.params.k,
            EncodingStrategy::BasicSec | EncodingStrategy::OptimizedSec => {
                // The prefix walk reads every stored entry up to l in order;
                // checkpoint fulls replace their delta's cost with k.
                (0..l).map(|idx| payloads[idx].reads(self)).sum()
            }
            EncodingStrategy::ReversedSec => {
                // Reading versions 1..=l un-applies every delta from the full
                // latest copy regardless of l.
                payloads.iter().map(|p| p.reads(self)).sum()
            }
        }
    }

    /// Index (0-based into the version list) of the most recent version ≤ `l`
    /// that the Optimized strategy stores in full.
    fn optimized_anchor(&self, sparsity: &[usize], l: usize) -> usize {
        for version in (2..=l).rev() {
            if self.optimized_stores_full(sparsity[version - 2]) {
                return version - 1;
            }
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_20_10() -> IoModel {
        IoModel::new(CodeParams::new(20, 10).unwrap(), GeneratorForm::NonSystematic)
    }

    const PAPER_PROFILE: [usize; 4] = [3, 8, 3, 6];

    #[test]
    fn delta_reads_formula() {
        let m = model_20_10();
        assert_eq!(m.delta_reads(0), 0);
        assert_eq!(m.delta_reads(3), 6);
        assert_eq!(m.delta_reads(4), 8);
        assert_eq!(m.delta_reads(5), 10);
        assert_eq!(m.delta_reads(8), 10);
        assert_eq!(m.full_object_reads(), 10);
        // Systematic high-rate code cannot exploit γ beyond (n-k)/2.
        let sys = IoModel::new(CodeParams::new(8, 5).unwrap(), GeneratorForm::Systematic);
        assert_eq!(sys.delta_reads(1), 2);
        assert_eq!(sys.delta_reads(2), 5);
        let nsys = IoModel::new(CodeParams::new(8, 5).unwrap(), GeneratorForm::NonSystematic);
        assert_eq!(nsys.delta_reads(2), 4);
    }

    #[test]
    fn paper_section_iii_d_basic_numbers() {
        // Basic SEC, (20,10), γ = {3,8,3,6}: η(x_l) = {10, 16, 26, 32, 42}.
        let m = model_20_10();
        let expect = [10, 16, 26, 32, 42];
        for (l, &e) in expect.iter().enumerate() {
            assert_eq!(
                m.version_reads(EncodingStrategy::BasicSec, &PAPER_PROFILE, l + 1),
                e
            );
        }
        // Total to read all five versions: 42 vs 50 non-differential (20% saving).
        assert_eq!(m.prefix_reads(EncodingStrategy::BasicSec, &PAPER_PROFILE, 5), 42);
        assert_eq!(
            m.prefix_reads(EncodingStrategy::NonDifferential, &PAPER_PROFILE, 5),
            50
        );
    }

    #[test]
    fn paper_section_iii_d_optimized_numbers() {
        // Optimized SEC: stored {x1, z2, x3, z4, x5}; η(x_l) = {10, 16, 10, 16, 10}.
        let m = model_20_10();
        let expect = [10, 16, 10, 16, 10];
        for (l, &e) in expect.iter().enumerate() {
            assert_eq!(
                m.version_reads(EncodingStrategy::OptimizedSec, &PAPER_PROFILE, l + 1),
                e,
                "l = {}",
                l + 1
            );
        }
        // Prefix totals match the basic strategy (paper's observation).
        for l in 1..=5 {
            assert_eq!(
                m.prefix_reads(EncodingStrategy::OptimizedSec, &PAPER_PROFILE, l),
                m.prefix_reads(EncodingStrategy::BasicSec, &PAPER_PROFILE, l)
            );
        }
        assert!(m.optimized_stores_full(8));
        assert!(!m.optimized_stores_full(3));
    }

    #[test]
    fn non_differential_reads_are_flat() {
        let m = model_20_10();
        for l in 1..=5 {
            assert_eq!(
                m.version_reads(EncodingStrategy::NonDifferential, &PAPER_PROFILE, l),
                10
            );
            assert_eq!(
                m.prefix_reads(EncodingStrategy::NonDifferential, &PAPER_PROFILE, l),
                10 * l
            );
        }
    }

    #[test]
    fn reversed_sec_favours_latest_version() {
        let m = model_20_10();
        // Latest version: just the full copy.
        assert_eq!(
            m.version_reads(EncodingStrategy::ReversedSec, &PAPER_PROFILE, 5),
            10
        );
        // Version 1 needs the full copy plus all deltas: 10 + 6 + 10 + 6 + 10 = 42.
        assert_eq!(
            m.version_reads(EncodingStrategy::ReversedSec, &PAPER_PROFILE, 1),
            42
        );
        // Version 4 needs the full copy plus z5: 10 + 10 = 20.
        assert_eq!(
            m.version_reads(EncodingStrategy::ReversedSec, &PAPER_PROFILE, 4),
            20
        );
        // Prefix retrieval reads everything regardless of l.
        assert_eq!(
            m.prefix_reads(EncodingStrategy::ReversedSec, &PAPER_PROFILE, 1),
            42
        );
        assert_eq!(
            m.prefix_reads(EncodingStrategy::ReversedSec, &PAPER_PROFILE, 5),
            42
        );
        // Entry reads: full copy + per-delta costs.
        assert_eq!(
            m.entry_reads(EncodingStrategy::ReversedSec, &PAPER_PROFILE),
            vec![10, 6, 10, 6, 10]
        );
    }

    #[test]
    fn entry_reads_per_strategy() {
        let m = model_20_10();
        assert_eq!(
            m.entry_reads(EncodingStrategy::BasicSec, &PAPER_PROFILE),
            vec![10, 6, 10, 6, 10]
        );
        assert_eq!(
            m.entry_reads(EncodingStrategy::OptimizedSec, &PAPER_PROFILE),
            vec![10, 6, 10, 6, 10]
        );
        assert_eq!(
            m.entry_reads(EncodingStrategy::NonDifferential, &PAPER_PROFILE),
            vec![10; 5]
        );
    }

    #[test]
    fn two_version_example_from_section_iv_c() {
        // (6,3) code, z2 1-sparse: reading both versions costs 5 instead of 6.
        let m = IoModel::new(CodeParams::new(6, 3).unwrap(), GeneratorForm::NonSystematic);
        assert_eq!(m.prefix_reads(EncodingStrategy::BasicSec, &[1], 2), 5);
        assert_eq!(m.prefix_reads(EncodingStrategy::NonDifferential, &[1], 2), 6);
        let sys = IoModel::new(CodeParams::new(6, 3).unwrap(), GeneratorForm::Systematic);
        assert_eq!(sys.prefix_reads(EncodingStrategy::BasicSec, &[1], 2), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_version_panics() {
        let m = model_20_10();
        let _ = m.version_reads(EncodingStrategy::BasicSec, &PAPER_PROFILE, 6);
    }

    /// Paper-profile layouts, as each strategy actually stores them.
    fn paper_layout(strategy: EncodingStrategy) -> Vec<StoredPayload> {
        match strategy {
            EncodingStrategy::BasicSec => vec![
                StoredPayload::FullVersion { version: 1 },
                StoredPayload::Delta { to: 2, sparsity: 3 },
                StoredPayload::Delta { to: 3, sparsity: 8 },
                StoredPayload::Delta { to: 4, sparsity: 3 },
                StoredPayload::Delta { to: 5, sparsity: 6 },
            ],
            EncodingStrategy::OptimizedSec => vec![
                StoredPayload::FullVersion { version: 1 },
                StoredPayload::Delta { to: 2, sparsity: 3 },
                StoredPayload::FullVersion { version: 3 },
                StoredPayload::Delta { to: 4, sparsity: 3 },
                StoredPayload::FullVersion { version: 5 },
            ],
            EncodingStrategy::ReversedSec => vec![
                StoredPayload::Delta { to: 2, sparsity: 3 },
                StoredPayload::Delta { to: 3, sparsity: 8 },
                StoredPayload::Delta { to: 4, sparsity: 3 },
                StoredPayload::Delta { to: 5, sparsity: 6 },
                StoredPayload::FullVersion { version: 5 },
            ],
            EncodingStrategy::NonDifferential => (1..=5)
                .map(|version| StoredPayload::FullVersion { version })
                .collect(),
        }
    }

    #[test]
    fn layout_reads_match_closed_forms_without_checkpoints() {
        let m = model_20_10();
        for strategy in [
            EncodingStrategy::BasicSec,
            EncodingStrategy::OptimizedSec,
            EncodingStrategy::ReversedSec,
            EncodingStrategy::NonDifferential,
        ] {
            let layout = paper_layout(strategy);
            for l in 1..=5 {
                assert_eq!(
                    m.version_reads_for_layout(strategy, &layout, l),
                    m.version_reads(strategy, &PAPER_PROFILE, l),
                    "{strategy} version {l}"
                );
                assert_eq!(
                    m.prefix_reads_for_layout(strategy, &layout, l),
                    m.prefix_reads(strategy, &PAPER_PROFILE, l),
                    "{strategy} prefix {l}"
                );
            }
        }
    }

    #[test]
    fn layout_reads_price_checkpoints_exactly() {
        // Basic SEC with checkpoint spacing 2 over the paper profile stores a
        // policy full at entry 3: {x1, z2, z3, x4, z5}.
        let m = model_20_10();
        let layout = vec![
            StoredPayload::FullVersion { version: 1 },
            StoredPayload::Delta { to: 2, sparsity: 3 },
            StoredPayload::Delta { to: 3, sparsity: 8 },
            StoredPayload::FullVersion { version: 4 },
            StoredPayload::Delta { to: 5, sparsity: 6 },
        ];
        let s = EncodingStrategy::BasicSec;
        // η(x_l): anchor on the checkpoint instead of rewinding to x1.
        assert_eq!(m.version_reads_for_layout(s, &layout, 1), 10);
        assert_eq!(m.version_reads_for_layout(s, &layout, 2), 16);
        assert_eq!(m.version_reads_for_layout(s, &layout, 3), 26);
        assert_eq!(m.version_reads_for_layout(s, &layout, 4), 10);
        assert_eq!(m.version_reads_for_layout(s, &layout, 5), 20);
        // The prefix walk pays k for the checkpoint entry instead of δ4's 6.
        assert_eq!(m.prefix_reads_for_layout(s, &layout, 5), 10 + 6 + 10 + 10 + 10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn layout_out_of_range_version_panics() {
        let m = model_20_10();
        let layout = paper_layout(EncodingStrategy::BasicSec);
        let _ = m.version_reads_for_layout(EncodingStrategy::BasicSec, &layout, 6);
    }

    #[test]
    fn optimized_anchor_resets_after_dense_delta() {
        let m = model_20_10();
        // Profile {8, 3}: version 2 stored in full, version 3 as delta → η(x3) = 10 + 6.
        assert_eq!(m.version_reads(EncodingStrategy::OptimizedSec, &[8, 3], 3), 16);
        // Profile {3, 8}: version 3 stored in full → η(x3) = 10.
        assert_eq!(m.version_reads(EncodingStrategy::OptimizedSec, &[3, 8], 3), 10);
    }
}
