//! Read planning: given the set of live storage nodes and a retrieval target,
//! decide which coded symbols to fetch, how many disk I/O reads that costs,
//! and which decoder to run.
//!
//! This module is the algorithmic core behind the paper's average-I/O
//! experiments (Figs. 4 and 5): provided enough nodes are alive, a γ-sparse
//! delta costs `2γ` reads whenever some qualifying `2γ`-subset of the live
//! nodes exists (always true for non-systematic Cauchy SEC, only sometimes
//! true for systematic SEC), and `k` reads otherwise.

use sec_gf::GaloisField;
use sec_linalg::combinatorics::Combinations;

use crate::code::{GeneratorForm, SecCode};
use crate::error::CodeError;

/// What the reader wants to reconstruct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReadTarget {
    /// A fully (non-sparsely) encoded object; requires `k` symbols.
    Full,
    /// A delta known to be at most `gamma`-sparse.
    Sparse {
        /// Upper bound on the number of non-zero entries.
        gamma: usize,
    },
}

/// Which decoding procedure the plan calls for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecodeMethod {
    /// The systematic symbols are read directly; no arithmetic needed.
    SystematicDirect,
    /// Invert a `k × k` submatrix of the generator (full MDS decode).
    Inversion,
    /// Run sparse recovery on a `2γ × k` Criterion-2 submatrix.
    SparseRecovery,
}

/// A concrete plan: which node indices to read and how to decode them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadPlan {
    /// Indices of the coded symbols (nodes) to read, in read order: strictly
    /// ascending, so a reader that locks nodes in plan order acquires them in
    /// one global order.
    pub nodes: Vec<usize>,
    /// Number of disk I/O reads the plan costs (`nodes.len()`).
    pub io_reads: usize,
    /// Decoder to apply to the fetched symbols.
    pub method: DecodeMethod,
}

/// Plans a read of `target` from the nodes listed in `live` (indices into
/// `0..n`, unordered, duplicates ignored).
///
/// # Errors
///
/// * [`CodeError::ShareIndexOutOfRange`] if a live index is not a valid node.
/// * [`CodeError::NotEnoughShares`] if the live set cannot possibly serve the
///   target (fewer than `k` nodes for a full read, and no sparse shortcut).
pub fn plan_read<F: GaloisField>(
    code: &SecCode<F>,
    live: &[usize],
    target: ReadTarget,
) -> Result<ReadPlan, CodeError> {
    let n = code.n();
    let k = code.k();
    let mut live_sorted: Vec<usize> = Vec::with_capacity(live.len());
    for &idx in live {
        if idx >= n {
            return Err(CodeError::ShareIndexOutOfRange { index: idx, n });
        }
        if !live_sorted.contains(&idx) {
            live_sorted.push(idx);
        }
    }
    live_sorted.sort_unstable();

    match target {
        ReadTarget::Full => plan_full(code, &live_sorted),
        ReadTarget::Sparse { gamma } => {
            if gamma == 0 || 2 * gamma >= k {
                // Sparsity not exploitable; read as a full object.
                return plan_full(code, &live_sorted);
            }
            if let Some(plan) = plan_sparse(code, &live_sorted, gamma) {
                return Ok(plan);
            }
            // No qualifying 2γ-subset among live nodes: fall back to a full read.
            plan_full(code, &live_sorted)
        }
    }
}

fn plan_full<F: GaloisField>(code: &SecCode<F>, live: &[usize]) -> Result<ReadPlan, CodeError> {
    let k = code.k();
    if live.len() < k {
        return Err(CodeError::NotEnoughShares {
            needed: k,
            available: live.len(),
        });
    }
    if code.form() == GeneratorForm::Systematic {
        let systematic: Vec<usize> = live.iter().copied().filter(|&i| i < k).collect();
        if systematic.len() == k {
            return Ok(ReadPlan {
                nodes: systematic,
                io_reads: k,
                method: DecodeMethod::SystematicDirect,
            });
        }
    }
    // MDS property: any k live nodes decode; take the first k.
    Ok(ReadPlan {
        nodes: live[..k].to_vec(),
        io_reads: k,
        method: DecodeMethod::Inversion,
    })
}

fn plan_sparse<F: GaloisField>(code: &SecCode<F>, live: &[usize], gamma: usize) -> Option<ReadPlan> {
    let needed = 2 * gamma;
    if live.len() < needed {
        return None;
    }
    match code.form() {
        GeneratorForm::NonSystematic => {
            // Every 2γ rows of a Cauchy generator qualify (superregularity),
            // so the first 2γ live nodes do the job.
            Some(ReadPlan {
                nodes: live[..needed].to_vec(),
                io_reads: needed,
                method: DecodeMethod::SparseRecovery,
            })
        }
        GeneratorForm::Systematic => {
            // Prefer subsets drawn from the parity block, then fall back to a
            // full search over live subsets (mixed identity/parity subsets
            // occasionally qualify too, and the paper counts them — e.g. 12
            // of the 15 two-row subsets of the (6,3) G_S do *not* qualify).
            // Whether a subset qualifies is a property of the code alone,
            // remembered by `SecCode::rows_qualify`.
            let sparse_plan = |nodes: Vec<usize>| ReadPlan {
                nodes,
                io_reads: needed,
                method: DecodeMethod::SparseRecovery,
            };
            let parity_live: Vec<usize> = live.iter().copied().filter(|&i| i >= code.k()).collect();
            if let Some(candidate) = parity_live.get(..needed) {
                if code.rows_qualify(candidate) {
                    return Some(sparse_plan(candidate.to_vec()));
                }
            }
            let mut subsets = Combinations::new(live.len(), needed);
            let mut candidate = Vec::with_capacity(needed);
            while let Some(subset) = subsets.advance() {
                candidate.clear();
                candidate.extend(subset.iter().map(|&i| live[i]));
                if code.rows_qualify(&candidate) {
                    return Some(sparse_plan(candidate));
                }
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sec_gf::{GaloisField, Gf256};

    fn all_nodes(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn full_read_prefers_systematic_nodes() {
        let code: SecCode<Gf256> = SecCode::cauchy(6, 3, GeneratorForm::Systematic).unwrap();
        let plan = plan_read(&code, &all_nodes(6), ReadTarget::Full).unwrap();
        assert_eq!(plan.nodes, vec![0, 1, 2]);
        assert_eq!(plan.io_reads, 3);
        assert_eq!(plan.method, DecodeMethod::SystematicDirect);
        // With a systematic node down, fall back to inversion.
        let plan = plan_read(&code, &[1, 2, 3, 4, 5], ReadTarget::Full).unwrap();
        assert_eq!(plan.io_reads, 3);
        assert_eq!(plan.method, DecodeMethod::Inversion);
    }

    #[test]
    fn full_read_non_systematic_uses_inversion() {
        let code: SecCode<Gf256> = SecCode::cauchy(6, 3, GeneratorForm::NonSystematic).unwrap();
        let plan = plan_read(&code, &[5, 1, 3], ReadTarget::Full).unwrap();
        assert_eq!(plan.nodes, vec![1, 3, 5]);
        assert_eq!(plan.method, DecodeMethod::Inversion);
        assert!(matches!(
            plan_read(&code, &[0, 1], ReadTarget::Full),
            Err(CodeError::NotEnoughShares {
                needed: 3,
                available: 2
            })
        ));
    }

    #[test]
    fn sparse_read_costs_two_gamma() {
        let code: SecCode<Gf256> = SecCode::cauchy(20, 10, GeneratorForm::NonSystematic).unwrap();
        let plan = plan_read(&code, &all_nodes(20), ReadTarget::Sparse { gamma: 3 }).unwrap();
        assert_eq!(plan.io_reads, 6);
        assert_eq!(plan.method, DecodeMethod::SparseRecovery);
        // γ ≥ k/2 degenerates to a full read.
        let plan = plan_read(&code, &all_nodes(20), ReadTarget::Sparse { gamma: 8 }).unwrap();
        assert_eq!(plan.io_reads, 10);
        assert_ne!(plan.method, DecodeMethod::SparseRecovery);
    }

    #[test]
    fn sparse_read_systematic_needs_parity_nodes() {
        let code: SecCode<Gf256> = SecCode::cauchy(6, 3, GeneratorForm::Systematic).unwrap();
        // All nodes alive: the parity nodes 3,4 are used.
        let plan = plan_read(&code, &all_nodes(6), ReadTarget::Sparse { gamma: 1 }).unwrap();
        assert_eq!(plan.io_reads, 2);
        assert!(plan.nodes.iter().all(|&i| i >= 3));
        // Only identity nodes alive: no qualifying pair, falls back to k reads.
        let plan = plan_read(&code, &[0, 1, 2], ReadTarget::Sparse { gamma: 1 }).unwrap();
        assert_eq!(plan.io_reads, 3);
        assert_eq!(plan.method, DecodeMethod::SystematicDirect);
        // One parity node plus identity nodes: a mixed qualifying pair exists
        // (identity row i and parity row are independent in every column pair
        // only if the identity row's zero pattern cooperates) — verify the
        // planner returns *some* valid plan and its submatrix qualifies.
        let plan = plan_read(&code, &[0, 1, 2, 4], ReadTarget::Sparse { gamma: 1 }).unwrap();
        if plan.method == DecodeMethod::SparseRecovery {
            let sub = code.generator().select_rows(&plan.nodes).unwrap();
            assert!(sec_linalg::checks::all_columns_independent(&sub));
            assert_eq!(plan.io_reads, 2);
        } else {
            assert_eq!(plan.io_reads, 3);
        }
    }

    #[test]
    fn plan_and_decode_round_trips() {
        let code: SecCode<Gf256> = SecCode::cauchy(10, 5, GeneratorForm::NonSystematic).unwrap();
        let mut z = vec![Gf256::ZERO; 5];
        z[2] = Gf256::from_u64(0x5A);
        z[4] = Gf256::from_u64(1);
        let c = code.encode(&z).unwrap();
        let live: Vec<usize> = vec![0, 2, 4, 6, 8, 9];
        let shares = |plan: &ReadPlan| plan.nodes.iter().map(|&i| (i, c[i])).collect::<Vec<_>>();
        let plan = plan_read(&code, &live, ReadTarget::Sparse { gamma: 2 }).unwrap();
        assert_eq!((plan.io_reads, plan.method), (4, DecodeMethod::SparseRecovery));
        assert_eq!(code.decode_sparse(&shares(&plan), 2).unwrap(), z);
        let plan = plan_read(&code, &live, ReadTarget::Full).unwrap();
        assert_eq!((plan.io_reads, plan.method), (5, DecodeMethod::Inversion));
        assert_eq!(code.decode_full(&shares(&plan)).unwrap(), z);
    }

    #[test]
    fn memoised_plans_equal_fresh_plans_over_every_failure_pattern() {
        // Same nodes, same order, same method: one long-lived code (its memo
        // warm from the first sweep on) against a clone per plan, whose memo
        // starts empty and so re-proves every row set.
        for (n, k) in [(6usize, 3usize), (12, 6)] {
            for form in [GeneratorForm::Systematic, GeneratorForm::NonSystematic] {
                let code: SecCode<Gf256> = SecCode::cauchy(n, k, form).unwrap();
                let targets: Vec<ReadTarget> = std::iter::once(ReadTarget::Full)
                    .chain((0..=k).map(|gamma| ReadTarget::Sparse { gamma }))
                    .collect();
                for sweep in 0..2 {
                    for failures in 0..=(n - k) {
                        for failed in Combinations::new(n, failures) {
                            let live: Vec<usize> = (0..n).filter(|i| !failed.contains(i)).collect();
                            for &target in &targets {
                                let memoised = plan_read(&code, &live, target);
                                let fresh = plan_read(&code.clone(), &live, target);
                                assert_eq!(
                                    memoised, fresh,
                                    "({n},{k}) {form} sweep {sweep} failed {failed:?} {target:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn planned_nodes_are_strictly_ascending_for_every_live_subset() {
        // `sec-engine` read-locks nodes in plan order and relies on that
        // order being ascending. Every subset of the (6,3) code's nodes,
        // handed over in descending order, under every target and both forms.
        let (n, k) = (6usize, 3usize);
        for form in [GeneratorForm::Systematic, GeneratorForm::NonSystematic] {
            let code: SecCode<Gf256> = SecCode::cauchy(n, k, form).unwrap();
            let targets: Vec<ReadTarget> = std::iter::once(ReadTarget::Full)
                .chain((0..=k).map(|gamma| ReadTarget::Sparse { gamma }))
                .collect();
            let mut feasible = 0usize;
            for mask in 0u32..(1 << n) {
                let live: Vec<usize> = (0..n).rev().filter(|&i| mask >> i & 1 == 1).collect();
                for &target in &targets {
                    let Ok(plan) = plan_read(&code, &live, target) else {
                        continue;
                    };
                    feasible += 1;
                    assert!(
                        plan.nodes.windows(2).all(|w| w[0] < w[1]),
                        "{form} live {live:?} {target:?}: {:?}",
                        plan.nodes
                    );
                    assert!(plan.nodes.iter().all(|i| live.contains(i)));
                    assert_eq!(plan.io_reads, plan.nodes.len(), "{form} live {live:?} {target:?}");
                }
            }
            // Every subset of ≥ k nodes serves every target (42 subsets × 5).
            assert!(feasible >= 42 * targets.len(), "{form}: {feasible}");
        }
    }

    #[test]
    fn invalid_live_index_is_rejected() {
        let code: SecCode<Gf256> = SecCode::cauchy(6, 3, GeneratorForm::NonSystematic).unwrap();
        assert!(matches!(
            plan_read(&code, &[0, 1, 7], ReadTarget::Full),
            Err(CodeError::ShareIndexOutOfRange { index: 7, n: 6 })
        ));
    }

    #[test]
    fn duplicate_live_indices_are_deduplicated() {
        let code: SecCode<Gf256> = SecCode::cauchy(6, 3, GeneratorForm::NonSystematic).unwrap();
        let plan = plan_read(&code, &[2, 2, 3, 3, 5, 5], ReadTarget::Full).unwrap();
        assert_eq!(plan.nodes, vec![2, 3, 5]);
    }
}
