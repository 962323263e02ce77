//! Synthetic versioned-edit traces.
//!
//! The paper motivates SEC with SVN histories, Wikipedia article revisions and
//! incremental cloud backups. No public symbol-level traces of those systems
//! exist (the paper cites the absence of standard workloads), so this module
//! generates synthetic version sequences with controllable edit behaviour:
//!
//! * [`EditModel::Localized`] — each revision rewrites a contiguous region
//!   (typical of source-code edits), producing small-γ deltas;
//! * [`EditModel::Scattered`] — each revision touches positions sampled
//!   uniformly at random (metadata churn, search-and-replace);
//! * [`EditModel::AppendHeavy`] — revisions mostly extend the tail of the
//!   object (log files, backup images);
//! * [`EditModel::PmfDriven`] — the number of touched positions is drawn from
//!   an explicit [`SparsityPmf`], matching the paper's parametric evaluation.

use rand::Rng;
use sec_gf::GaloisField;

use crate::pmf::SparsityPmf;

/// How each new version differs from its predecessor.
#[derive(Debug, Clone, PartialEq)]
pub enum EditModel {
    /// A contiguous run of positions is rewritten. `max_run` bounds the run
    /// length.
    Localized {
        /// Maximum length of the rewritten run (clamped to the object size).
        max_run: usize,
    },
    /// `edits` positions chosen uniformly at random are rewritten.
    Scattered {
        /// Number of positions rewritten per revision.
        edits: usize,
    },
    /// The last `head` positions plus a growing tail region are rewritten,
    /// emulating append-mostly objects stored in a fixed-size buffer.
    AppendHeavy {
        /// Number of tail positions rewritten per revision.
        head: usize,
    },
    /// The number of rewritten positions is drawn from a sparsity PMF; the
    /// positions themselves are uniform.
    PmfDriven(SparsityPmf),
}

/// Configuration of a synthetic version trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Object size in field symbols (`k` of the paper).
    pub object_len: usize,
    /// Total number of versions to generate (`L` of the paper), including the
    /// initial one.
    pub versions: usize,
    /// Edit model applied between consecutive versions.
    pub model: EditModel,
}

impl TraceConfig {
    /// Convenience constructor.
    pub fn new(object_len: usize, versions: usize, model: EditModel) -> Self {
        Self {
            object_len,
            versions,
            model,
        }
    }
}

/// A generated sequence of versions together with its per-revision sparsity.
#[derive(Debug, Clone, PartialEq)]
pub struct VersionTrace<F> {
    /// The versions `x_1, …, x_L`, each of `object_len` symbols.
    pub versions: Vec<Vec<F>>,
    /// Sparsity `γ_{j+1}` of each delta `x_{j+1} − x_j` (length `L - 1`).
    pub sparsity: Vec<usize>,
}

impl<F: GaloisField> VersionTrace<F> {
    /// Generates a trace according to `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.object_len` is zero or `config.versions` is zero.
    pub fn generate<R: Rng + ?Sized>(config: &TraceConfig, rng: &mut R) -> Self {
        assert!(config.object_len > 0, "object length must be positive");
        assert!(config.versions > 0, "a trace needs at least one version");
        let k = config.object_len;
        let mut versions = Vec::with_capacity(config.versions);
        let mut sparsity = Vec::with_capacity(config.versions.saturating_sub(1));

        let first: Vec<F> = (0..k).map(|_| random_symbol(rng)).collect();
        versions.push(first);

        for v in 1..config.versions {
            let prev = versions[v - 1].clone();
            let mut next = prev.clone();
            let positions = pick_positions(&config.model, k, v, rng);
            for &pos in &positions {
                // Force an actual change: add a non-zero symbol.
                let delta = random_nonzero_symbol(rng);
                next[pos] = prev[pos] + delta;
            }
            let gamma = next.iter().zip(&prev).filter(|(a, b)| a != b).count();
            sparsity.push(gamma);
            versions.push(next);
        }

        Self { versions, sparsity }
    }

    /// Number of versions in the trace.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// `true` when the trace holds no versions (cannot happen for generated
    /// traces, provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// The measured sparsity levels as an empirical PMF over `{1, …, k}`.
    ///
    /// Returns `None` when the trace has fewer than two versions.
    pub fn empirical_pmf(&self) -> Option<SparsityPmf> {
        if self.sparsity.is_empty() {
            return None;
        }
        SparsityPmf::from_samples(&self.sparsity, self.versions[0].len()).ok()
    }

    /// Fraction of deltas that are exploitable by SEC, i.e. with `2γ < k`.
    pub fn exploitable_fraction(&self) -> f64 {
        if self.sparsity.is_empty() {
            return 0.0;
        }
        let k = self.versions[0].len();
        let exploitable = self.sparsity.iter().filter(|&&g| 2 * g < k).count();
        exploitable as f64 / self.sparsity.len() as f64
    }
}

fn pick_positions<R: Rng + ?Sized>(
    model: &EditModel,
    k: usize,
    version_index: usize,
    rng: &mut R,
) -> Vec<usize> {
    match model {
        EditModel::Localized { max_run } => {
            let run = rng.gen_range(1..=(*max_run).clamp(1, k));
            let start = rng.gen_range(0..k);
            (0..run).map(|i| (start + i) % k).collect()
        }
        EditModel::Scattered { edits } => {
            let edits = (*edits).clamp(1, k);
            let mut positions: Vec<usize> = (0..k).collect();
            // Partial Fisher-Yates shuffle: the first `edits` entries are a
            // uniform random subset.
            for i in 0..edits {
                let j = rng.gen_range(i..k);
                positions.swap(i, j);
            }
            positions.truncate(edits);
            positions
        }
        EditModel::AppendHeavy { head } => {
            let head = (*head).clamp(1, k);
            // The "write frontier" advances with the version index, wrapping
            // around the fixed-size object.
            let frontier = (version_index * head) % k;
            (0..head).map(|i| (frontier + i) % k).collect()
        }
        EditModel::PmfDriven(pmf) => {
            let edits = pmf.sample(rng).clamp(1, k);
            let mut positions: Vec<usize> = (0..k).collect();
            for i in 0..edits {
                let j = rng.gen_range(i..k);
                positions.swap(i, j);
            }
            positions.truncate(edits);
            positions
        }
    }
}

fn random_symbol<F: GaloisField, R: Rng + ?Sized>(rng: &mut R) -> F {
    F::from_u64(rng.gen_range(0..F::ORDER))
}

fn random_nonzero_symbol<F: GaloisField, R: Rng + ?Sized>(rng: &mut R) -> F {
    F::from_u64(rng.gen_range(1..F::ORDER))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sec_gf::Gf256;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn trace_has_requested_shape() {
        let config = TraceConfig::new(10, 5, EditModel::Localized { max_run: 3 });
        let trace: VersionTrace<Gf256> = VersionTrace::generate(&config, &mut rng());
        assert_eq!(trace.len(), 5);
        assert!(!trace.is_empty());
        assert_eq!(trace.sparsity.len(), 4);
        assert!(trace.versions.iter().all(|v| v.len() == 10));
    }

    #[test]
    fn sparsity_matches_actual_differences() {
        let config = TraceConfig::new(16, 8, EditModel::Scattered { edits: 4 });
        let trace: VersionTrace<Gf256> = VersionTrace::generate(&config, &mut rng());
        for j in 1..trace.len() {
            let measured = trace.versions[j]
                .iter()
                .zip(&trace.versions[j - 1])
                .filter(|(a, b)| a != b)
                .count();
            assert_eq!(measured, trace.sparsity[j - 1]);
            // Scattered with 4 edits touches exactly 4 positions and every
            // touched position actually changes.
            assert_eq!(measured, 4);
        }
    }

    #[test]
    fn localized_edits_bound_sparsity() {
        let config = TraceConfig::new(20, 12, EditModel::Localized { max_run: 3 });
        let trace: VersionTrace<Gf256> = VersionTrace::generate(&config, &mut rng());
        assert!(trace.sparsity.iter().all(|&g| (1..=3).contains(&g)));
        // All deltas exploitable for k = 20 (2γ ≤ 6 < 20).
        assert_eq!(trace.exploitable_fraction(), 1.0);
    }

    #[test]
    fn append_heavy_touches_fixed_count() {
        let config = TraceConfig::new(12, 6, EditModel::AppendHeavy { head: 2 });
        let trace: VersionTrace<Gf256> = VersionTrace::generate(&config, &mut rng());
        assert!(trace.sparsity.iter().all(|&g| g == 2));
    }

    #[test]
    fn pmf_driven_sparsity_stays_in_support() {
        let pmf = SparsityPmf::truncated_exponential(0.6, 5).unwrap();
        let config = TraceConfig::new(10, 40, EditModel::PmfDriven(pmf));
        let trace: VersionTrace<Gf256> = VersionTrace::generate(&config, &mut rng());
        assert!(trace.sparsity.iter().all(|&g| (1..=5).contains(&g)));
        let empirical = trace.empirical_pmf().unwrap();
        // Mass concentrated on small gamma for a decreasing exponential.
        assert!(empirical.probability(1) + empirical.probability(2) > 0.5);
    }

    #[test]
    fn pmf_driven_trace_moments_track_the_source_pmf() {
        // Long traces driven by the bracketing PMFs must reproduce the
        // source mean sparsity — the moment a benchmark trusts
        // when it converts a PMF into an edit trace. (Scattered positions
        // always change, so measured γ equals the drawn edit count exactly.)
        let k = 12;
        for pmf in [
            SparsityPmf::truncated_exponential(0.6, k).unwrap(),
            SparsityPmf::truncated_poisson(5.0, k).unwrap(),
        ] {
            let expected = pmf.mean();
            let config = TraceConfig::new(k, 4001, EditModel::PmfDriven(pmf));
            let trace: VersionTrace<Gf256> =
                VersionTrace::generate(&config, &mut StdRng::seed_from_u64(11));
            let measured = trace.sparsity.iter().sum::<usize>() as f64 / trace.sparsity.len() as f64;
            assert!(
                (measured - expected).abs() < 0.1,
                "measured mean {measured} vs pmf mean {expected}"
            );
        }
    }

    #[test]
    fn empirical_pmf_absent_for_single_version() {
        let config = TraceConfig::new(4, 1, EditModel::Scattered { edits: 1 });
        let trace: VersionTrace<Gf256> = VersionTrace::generate(&config, &mut rng());
        assert!(trace.empirical_pmf().is_none());
        assert_eq!(trace.exploitable_fraction(), 0.0);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let config = TraceConfig::new(8, 5, EditModel::Scattered { edits: 2 });
        let a: VersionTrace<Gf256> = VersionTrace::generate(&config, &mut StdRng::seed_from_u64(3));
        let b: VersionTrace<Gf256> = VersionTrace::generate(&config, &mut StdRng::seed_from_u64(3));
        let c: VersionTrace<Gf256> = VersionTrace::generate(&config, &mut StdRng::seed_from_u64(4));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "object length must be positive")]
    fn zero_object_length_panics() {
        let config = TraceConfig::new(0, 3, EditModel::Scattered { edits: 1 });
        let _: VersionTrace<Gf256> = VersionTrace::generate(&config, &mut rng());
    }

    #[test]
    #[should_panic(expected = "at least one version")]
    fn zero_versions_panics() {
        let config = TraceConfig::new(3, 0, EditModel::Scattered { edits: 1 });
        let _: VersionTrace<Gf256> = VersionTrace::generate(&config, &mut rng());
    }
}
