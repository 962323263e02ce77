//! Average I/O reads `μ_γ` to retrieve a sparse delta under node failures
//! (eq. 21 of the paper, Figs. 4–5).
//!
//! Conditioned on at least `k` nodes being alive (otherwise nothing is
//! retrievable and repair kicks in), a `γ`-sparse delta costs:
//!
//! * `2γ` reads when some qualifying `2γ`-subset of the live nodes exists —
//!   always the case for non-systematic Cauchy SEC, only sometimes for
//!   systematic SEC;
//! * `k` reads otherwise;
//! * the non-differential baseline always pays `k` reads.
//!
//! `μ_γ = p_{2γ}·2γ + p_k·k` where the probabilities are conditional on
//! having `k` or more live nodes. Both an exact (exhaustive over `2^n`
//! patterns) and a Monte-Carlo estimator are provided.

use rand::Rng;
use sec_erasure::{GeneratorForm, SecCode};
use sec_gf::GaloisField;
use sec_linalg::checks;
use sec_linalg::combinatorics::Combinations;

/// Which retrieval scheme the average is computed for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoScheme {
    /// SEC with the given generator form.
    Sec(GeneratorForm),
    /// Non-differential baseline: always `k` reads.
    NonDifferential,
}

/// Result of an average-I/O computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AverageIo {
    /// The failure probability `p`.
    pub p: f64,
    /// The sparsity level `γ`.
    pub gamma: usize,
    /// Conditional probability that `2γ` reads suffice.
    pub prob_sparse_reads: f64,
    /// Conditional probability that `k` reads are needed.
    pub prob_full_reads: f64,
    /// The average number of reads `μ_γ`.
    pub average_reads: f64,
}

/// Precomputed qualifying `2γ`-row subsets of a generator.
fn qualifying_subsets<F: GaloisField>(code: &SecCode<F>, gamma: usize) -> Vec<Vec<usize>> {
    let reads = 2 * gamma;
    if reads == 0 || reads >= code.k() {
        return Vec::new();
    }
    Combinations::new(code.n(), reads)
        .filter(|rows| {
            let sub = code
                .generator()
                .select_rows(rows)
                .expect("row indices generated in range");
            checks::all_columns_independent(&sub)
        })
        .collect()
}

/// Exact `μ_γ` by enumerating all `2^n` failure patterns.
///
/// # Panics
///
/// Panics when `n > 24`.
pub fn average_io_exact<F: GaloisField>(
    code: &SecCode<F>,
    scheme: IoScheme,
    gamma: usize,
    p: f64,
) -> AverageIo {
    let n = code.n();
    assert!(n <= 24, "exact average-I/O analysis is limited to n <= 24");
    let k = code.k();
    let reads = 2 * gamma;
    let qualifying = match scheme {
        IoScheme::Sec(_) => qualifying_subsets(code, gamma),
        IoScheme::NonDifferential => Vec::new(),
    };

    let mut prob_alive_enough = 0.0; // P(at least k live)
    let mut prob_sparse = 0.0; // P(at least k live AND 2γ reads suffice)
    for mask in 0u64..(1 << n) {
        let alive = n - mask.count_ones() as usize;
        if alive < k {
            continue;
        }
        let weight = p.powi(mask.count_ones() as i32) * (1.0 - p).powi(alive as i32);
        prob_alive_enough += weight;
        let sparse_ok = match scheme {
            IoScheme::NonDifferential => false,
            IoScheme::Sec(_) => {
                reads >= 1
                    && reads < k
                    && qualifying
                        .iter()
                        .any(|rows| rows.iter().all(|&r| mask & (1 << r) == 0))
            }
        };
        if sparse_ok {
            prob_sparse += weight;
        }
    }

    let (p2g, pk) = if prob_alive_enough > 0.0 {
        let p2g = prob_sparse / prob_alive_enough;
        (p2g, 1.0 - p2g)
    } else {
        (0.0, 1.0)
    };
    AverageIo {
        p,
        gamma,
        prob_sparse_reads: p2g,
        prob_full_reads: pk,
        average_reads: p2g * reads as f64 + pk * k as f64,
    }
}

/// Monte-Carlo estimate of `μ_γ` (eq. 21) from `trials` random failure
/// patterns — the procedure the paper describes for its Figs. 4–5.
pub fn average_io_monte_carlo<F: GaloisField, R: Rng + ?Sized>(
    code: &SecCode<F>,
    scheme: IoScheme,
    gamma: usize,
    p: f64,
    trials: usize,
    rng: &mut R,
) -> AverageIo {
    let n = code.n();
    let k = code.k();
    let reads = 2 * gamma;
    let qualifying = match scheme {
        IoScheme::Sec(_) => qualifying_subsets(code, gamma),
        IoScheme::NonDifferential => Vec::new(),
    };

    let mut usable = 0usize;
    let mut sparse_ok_count = 0usize;
    for _ in 0..trials {
        let mut alive_mask = 0u64;
        let mut alive = 0usize;
        for node in 0..n {
            if rng.gen::<f64>() >= p {
                alive_mask |= 1 << node;
                alive += 1;
            }
        }
        if alive < k {
            continue;
        }
        usable += 1;
        let sparse_ok = match scheme {
            IoScheme::NonDifferential => false,
            IoScheme::Sec(_) => {
                reads >= 1
                    && reads < k
                    && qualifying
                        .iter()
                        .any(|rows| rows.iter().all(|&r| alive_mask & (1 << r) != 0))
            }
        };
        if sparse_ok {
            sparse_ok_count += 1;
        }
    }

    let (p2g, pk) = if usable > 0 {
        let p2g = sparse_ok_count as f64 / usable as f64;
        (p2g, 1.0 - p2g)
    } else {
        (0.0, 1.0)
    };
    AverageIo {
        p,
        gamma,
        prob_sparse_reads: p2g,
        prob_full_reads: pk,
        average_reads: p2g * reads as f64 + pk * k as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sec_gf::Gf256;

    fn codes_6_3() -> (SecCode<Gf256>, SecCode<Gf256>) {
        (
            SecCode::cauchy(6, 3, GeneratorForm::NonSystematic).unwrap(),
            SecCode::cauchy(6, 3, GeneratorForm::Systematic).unwrap(),
        )
    }

    #[test]
    fn non_systematic_always_reads_two_gamma() {
        // Fig. 4: the non-systematic curve is flat at 2 reads.
        let (ns, _) = codes_6_3();
        for &p in &[0.01, 0.1, 0.2] {
            let avg = average_io_exact(&ns, IoScheme::Sec(GeneratorForm::NonSystematic), 1, p);
            assert!((avg.average_reads - 2.0).abs() < 1e-12, "p={p}");
            assert!((avg.prob_sparse_reads - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn non_differential_always_reads_k() {
        let (ns, _) = codes_6_3();
        for &p in &[0.01, 0.1, 0.2] {
            let avg = average_io_exact(&ns, IoScheme::NonDifferential, 1, p);
            assert!((avg.average_reads - 3.0).abs() < 1e-12);
            assert_eq!(avg.prob_sparse_reads, 0.0);
        }
    }

    #[test]
    fn systematic_average_grows_with_p_and_stays_between_bounds() {
        // Fig. 4: the systematic curve starts at 2 for small p and rises
        // towards k as failures make the parity pair unavailable.
        let (_, sys) = codes_6_3();
        let mut prev = 0.0;
        for &p in &[0.01, 0.05, 0.1, 0.15, 0.2] {
            let avg = average_io_exact(&sys, IoScheme::Sec(GeneratorForm::Systematic), 1, p);
            assert!(avg.average_reads >= 2.0 - 1e-12);
            assert!(avg.average_reads <= 3.0 + 1e-12);
            assert!(avg.average_reads >= prev - 1e-12, "p={p}");
            prev = avg.average_reads;
            assert!((avg.prob_sparse_reads + avg.prob_full_reads - 1.0).abs() < 1e-12);
        }
        // At p = 0.01 the systematic scheme is still essentially at 2 reads.
        let small = average_io_exact(&sys, IoScheme::Sec(GeneratorForm::Systematic), 1, 0.01);
        assert!(small.average_reads < 2.01);
    }

    #[test]
    fn systematic_closed_form_mu1_for_6_3() {
        // Paper §V-A: µ1 = 2·p2 + 3·p3 where p3 is the conditional probability
        // that no qualifying pair survives. For the (6,3) systematic code the
        // qualifying pairs are the three parity pairs; conditioning on ≥ 3
        // live nodes, the only patterns without a live parity pair are those
        // with at most one parity node alive.
        let (_, sys) = codes_6_3();
        for &p in &[0.05f64, 0.1, 0.2] {
            let avg = average_io_exact(&sys, IoScheme::Sec(GeneratorForm::Systematic), 1, p);
            // Direct enumeration of the closed form for cross-checking.
            let mut cond_num = 0.0;
            let mut cond_den = 0.0;
            for mask in 0u64..64 {
                let alive = 6 - mask.count_ones() as usize;
                if alive < 3 {
                    continue;
                }
                let w = p.powi(mask.count_ones() as i32) * (1.0 - p).powi(alive as i32);
                cond_den += w;
                let parity_alive = (3..6).filter(|&i| mask & (1 << i) == 0).count();
                if parity_alive >= 2 {
                    cond_num += w;
                }
            }
            let p2 = cond_num / cond_den;
            let expected = 2.0 * p2 + 3.0 * (1.0 - p2);
            assert!((avg.average_reads - expected).abs() < 1e-12, "p={p}");
        }
    }

    #[test]
    fn fig5_parameters_10_5_gamma_1_and_2() {
        let ns: SecCode<Gf256> = SecCode::cauchy(10, 5, GeneratorForm::NonSystematic).unwrap();
        let sys: SecCode<Gf256> = SecCode::cauchy(10, 5, GeneratorForm::Systematic).unwrap();
        for gamma in 1..=2usize {
            for &p in &[0.05, 0.2] {
                let a_ns = average_io_exact(&ns, IoScheme::Sec(GeneratorForm::NonSystematic), gamma, p);
                let a_sys = average_io_exact(&sys, IoScheme::Sec(GeneratorForm::Systematic), gamma, p);
                let a_nd = average_io_exact(&ns, IoScheme::NonDifferential, gamma, p);
                // Ordering of the three curves in Fig. 5.
                assert!(
                    a_ns.average_reads <= a_sys.average_reads + 1e-12,
                    "gamma={gamma} p={p}"
                );
                assert!(
                    a_sys.average_reads <= a_nd.average_reads + 1e-12,
                    "gamma={gamma} p={p}"
                );
                assert!((a_ns.average_reads - (2 * gamma) as f64).abs() < 1e-12);
                assert!((a_nd.average_reads - 5.0).abs() < 1e-12);
            }
        }
        // γ = 2 is harder for the systematic code than γ = 1 at the same p.
        let g1 = average_io_exact(&sys, IoScheme::Sec(GeneratorForm::Systematic), 1, 0.2);
        let g2 = average_io_exact(&sys, IoScheme::Sec(GeneratorForm::Systematic), 2, 0.2);
        assert!(g2.prob_full_reads >= g1.prob_full_reads);
    }

    #[test]
    fn monte_carlo_agrees_with_exact() {
        let (_, sys) = codes_6_3();
        let mut rng = StdRng::seed_from_u64(99);
        for &p in &[0.1, 0.2] {
            let exact = average_io_exact(&sys, IoScheme::Sec(GeneratorForm::Systematic), 1, p);
            let mc = average_io_monte_carlo(
                &sys,
                IoScheme::Sec(GeneratorForm::Systematic),
                1,
                p,
                60_000,
                &mut rng,
            );
            assert!(
                (exact.average_reads - mc.average_reads).abs() < 0.02,
                "p={p}: exact={} mc={}",
                exact.average_reads,
                mc.average_reads
            );
        }
    }
}
