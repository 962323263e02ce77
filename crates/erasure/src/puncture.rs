//! Puncturing of sparse-delta codewords — the storage optimization the paper
//! flags as immediate future work (§IV-D and the conclusion).
//!
//! Observation: with colocated placement, the availability of the whole
//! archive is bottlenecked by the fully coded first (or last) version, which
//! needs `k` of its `n` symbols and therefore tolerates `n − k` failures. A
//! `γ`-sparse delta stored under non-systematic SEC needs only `2γ < k`
//! symbols, so storing all `n` coded symbols gives it *more* fault tolerance
//! than the archive can ever use. Puncturing drops the surplus: keep only
//! `n' = 2γ + (n − k)` coded symbols, so the delta still tolerates exactly
//! `n − k` failures (matching the archive bottleneck) while saving
//! `n − n' = k − 2γ` symbols of storage per delta.
//!
//! Because every square submatrix of a Cauchy generator is invertible, *any*
//! `2γ` of the retained symbols still recover the delta, so no extra
//! bookkeeping is required beyond remembering which positions were kept.

use sec_gf::GaloisField;

use crate::code::{GeneratorForm, SecCode, Share};
use crate::error::CodeError;

/// A punctured delta codeword: the retained coded symbols and their original
/// positions in the full `n`-symbol codeword.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PuncturedCodeword<F> {
    /// Original codeword positions that were kept, in increasing order.
    pub positions: Vec<usize>,
    /// The retained coded symbols, aligned with `positions`.
    pub symbols: Vec<F>,
    /// The sparsity bound the puncturing was planned for.
    pub gamma: usize,
}

impl<F: GaloisField> PuncturedCodeword<F> {
    /// Number of symbols actually stored.
    pub fn stored_symbols(&self) -> usize {
        self.symbols.len()
    }

    /// The shares (position, symbol) of the retained symbols, optionally
    /// restricted to the positions listed in `live`.
    pub fn shares(&self, live: Option<&[usize]>) -> Vec<Share<F>> {
        self.positions
            .iter()
            .zip(&self.symbols)
            .filter(|(pos, _)| live.is_none_or(|l| l.contains(*pos)))
            .map(|(&pos, &sym)| (pos, sym))
            .collect()
    }
}

/// Plans the set of codeword positions to retain for a `γ`-sparse delta so
/// that it tolerates exactly `target_failures` node failures.
///
/// Returns the retained positions (the first `2γ + target_failures` codeword
/// positions, which for a Cauchy generator are as good as any other choice).
///
/// # Errors
///
/// * [`CodeError::SparsityNotExploitable`] if `γ = 0` or `2γ ≥ k` (puncturing
///   only applies to exploitable deltas) or the code is systematic (its
///   identity rows do not provide universal `2γ`-recovery).
/// * [`CodeError::InvalidParams`] if the requested retention exceeds `n`.
pub fn puncture_plan<F: GaloisField>(
    code: &SecCode<F>,
    gamma: usize,
    target_failures: usize,
) -> Result<Vec<usize>, CodeError> {
    let k = code.k();
    let n = code.n();
    if code.form() != GeneratorForm::NonSystematic {
        return Err(CodeError::SparsityNotExploitable { gamma, k });
    }
    if gamma == 0 || 2 * gamma >= k {
        return Err(CodeError::SparsityNotExploitable { gamma, k });
    }
    let keep = 2 * gamma + target_failures;
    if keep > n {
        return Err(CodeError::InvalidParams {
            n,
            k,
            reason: "puncturing would need to retain more symbols than the code produces",
        });
    }
    Ok((0..keep).collect())
}

/// Encodes a `γ`-sparse delta and immediately punctures the codeword so that
/// it tolerates `target_failures` failures (typically `n − k`, the archive's
/// bottleneck tolerance).
///
/// # Errors
///
/// Propagates [`puncture_plan`] and [`SecCode::encode`] errors, and rejects a
/// delta whose actual weight exceeds `gamma`.
pub fn encode_punctured<F: GaloisField>(
    code: &SecCode<F>,
    delta: &[F],
    gamma: usize,
    target_failures: usize,
) -> Result<PuncturedCodeword<F>, CodeError> {
    let weight = delta.iter().filter(|s| !s.is_zero()).count();
    if weight > gamma {
        return Err(CodeError::SparseRecoveryFailed { gamma });
    }
    let positions = puncture_plan(code, gamma, target_failures)?;
    let full = code.encode(delta)?;
    let symbols = positions.iter().map(|&i| full[i]).collect();
    Ok(PuncturedCodeword {
        positions,
        symbols,
        gamma,
    })
}

/// Recovers the delta from a punctured codeword, reading only from the listed
/// live positions (or all retained positions when `live` is `None`).
///
/// # Errors
///
/// Returns [`CodeError::NotEnoughShares`] when fewer than `2γ` retained
/// symbols are alive, or a sparse-recovery failure from the decoder.
pub fn decode_punctured<F: GaloisField>(
    code: &SecCode<F>,
    punctured: &PuncturedCodeword<F>,
    live: Option<&[usize]>,
) -> Result<Vec<F>, CodeError> {
    let shares = punctured.shares(live);
    let needed = 2 * punctured.gamma;
    if shares.len() < needed {
        return Err(CodeError::NotEnoughShares {
            needed,
            available: shares.len(),
        });
    }
    code.decode_sparse(&shares[..needed], punctured.gamma)
}

/// Storage saved by puncturing one delta, in coded symbols: `n − (2γ + f)`.
pub fn symbols_saved(n: usize, k: usize, gamma: usize, target_failures: usize) -> usize {
    if gamma == 0 || 2 * gamma >= k {
        return 0;
    }
    n.saturating_sub(2 * gamma + target_failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sec_gf::{GaloisField, Gf1024};
    use sec_linalg::combinatorics::combinations;

    fn code() -> SecCode<Gf1024> {
        SecCode::cauchy(20, 10, GeneratorForm::NonSystematic).unwrap()
    }

    fn sparse_delta(k: usize, entries: &[(usize, u64)]) -> Vec<Gf1024> {
        let mut z = vec![Gf1024::ZERO; k];
        for &(i, v) in entries {
            z[i] = Gf1024::from_u64(v);
        }
        z
    }

    #[test]
    fn plan_keeps_2gamma_plus_tolerance_symbols() {
        let c = code();
        let plan = puncture_plan(&c, 3, 10).unwrap();
        assert_eq!(plan.len(), 16);
        assert_eq!(symbols_saved(20, 10, 3, 10), 4);
        // γ = 1 saves the most: keep 12 of 20.
        assert_eq!(puncture_plan(&c, 1, 10).unwrap().len(), 12);
        assert_eq!(symbols_saved(20, 10, 1, 10), 8);
        // Dense deltas cannot be punctured.
        assert!(matches!(
            puncture_plan(&c, 5, 10),
            Err(CodeError::SparsityNotExploitable { .. })
        ));
        assert_eq!(symbols_saved(20, 10, 5, 10), 0);
        // Requesting more tolerance than the code has symbols is rejected.
        assert!(matches!(
            puncture_plan(&c, 4, 15),
            Err(CodeError::InvalidParams { .. })
        ));
        // Systematic codes are rejected.
        let sys: SecCode<Gf1024> = SecCode::cauchy(20, 10, GeneratorForm::Systematic).unwrap();
        assert!(matches!(
            puncture_plan(&sys, 2, 10),
            Err(CodeError::SparsityNotExploitable { .. })
        ));
    }

    #[test]
    fn punctured_delta_round_trips() {
        let c = code();
        let delta = sparse_delta(10, &[(2, 700), (7, 13)]);
        let punctured = encode_punctured(&c, &delta, 2, 10).unwrap();
        assert_eq!(punctured.stored_symbols(), 14);
        assert_eq!(decode_punctured(&c, &punctured, None).unwrap(), delta);
    }

    #[test]
    fn punctured_delta_tolerates_target_failures() {
        // Keep 2γ + (n-k) = 2 + 10 = 12 symbols; ANY 10 failures among the
        // retained positions still leave 2 symbols, which recover the delta.
        let c = code();
        let delta = sparse_delta(10, &[(4, 999)]);
        let punctured = encode_punctured(&c, &delta, 1, 10).unwrap();
        assert_eq!(punctured.stored_symbols(), 12);
        for surviving in combinations(12, 2) {
            let live: Vec<usize> = surviving.iter().map(|&i| punctured.positions[i]).collect();
            let recovered = decode_punctured(&c, &punctured, Some(&live)).unwrap();
            assert_eq!(recovered, delta, "survivors {live:?}");
        }
        // With only one live symbol the delta is lost.
        let live = vec![punctured.positions[0]];
        assert!(matches!(
            decode_punctured(&c, &punctured, Some(&live)),
            Err(CodeError::NotEnoughShares {
                needed: 2,
                available: 1
            })
        ));
    }

    #[test]
    fn overweight_delta_is_rejected_at_encode_time() {
        let c = code();
        let delta = sparse_delta(10, &[(0, 1), (1, 2), (2, 3)]);
        assert!(matches!(
            encode_punctured(&c, &delta, 2, 10),
            Err(CodeError::SparseRecoveryFailed { gamma: 2 })
        ));
    }

    #[test]
    fn storage_overhead_comparison_with_unpunctured_sec() {
        // For the §III-D profile {3, 8, 3, 6} on a (20,10) code with tolerance
        // n - k = 10, puncturing saves 4 + 0 + 4 + 0 = 8 of the 80 delta
        // symbols (10%), without reducing the archive's fault tolerance.
        let saved: usize = [3usize, 8, 3, 6]
            .iter()
            .map(|&g| symbols_saved(20, 10, g, 10))
            .sum();
        assert_eq!(saved, 8);
    }
}
