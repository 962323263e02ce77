//! Archive-level availability under dispersed and colocated placement
//! (eqs. 11–15 of the paper) and the "nines" transform used by Fig. 3.

use sec_erasure::{GeneratorForm, SecCode};
use sec_gf::GaloisField;

use crate::resilience::{prob_lose_full, prob_lose_sparse_exact, prob_lose_sparse_non_systematic};

/// Which archival scheme is being analysed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// SEC with a non-systematic generator.
    NonSystematicSec,
    /// SEC with a systematic generator.
    SystematicSec,
    /// The non-differential baseline (every version coded in full).
    NonDifferential,
}

impl core::fmt::Display for Scheme {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Scheme::NonSystematicSec => write!(f, "non-systematic SEC"),
            Scheme::SystematicSec => write!(f, "systematic SEC"),
            Scheme::NonDifferential => write!(f, "non-differential"),
        }
    }
}

/// Per-object loss probabilities for an archive of `L` versions with the
/// given delta-sparsity profile (`γ_2, …, γ_L`).
///
/// Index 0 is the fully coded first version; index `j ≥ 1` is the object
/// stored for version `j + 1` (a delta for SEC schemes, a full version for
/// the baseline).
pub fn per_object_loss<F: GaloisField>(
    code: &SecCode<F>,
    scheme: Scheme,
    sparsity: &[usize],
    p: f64,
) -> Vec<f64> {
    let n = code.n();
    let k = code.k();
    let full = prob_lose_full(n, k, p);
    let mut probs = Vec::with_capacity(sparsity.len() + 1);
    probs.push(full);
    for &gamma in sparsity {
        let prob = match scheme {
            Scheme::NonDifferential => full,
            Scheme::NonSystematicSec => {
                if 2 * gamma < k {
                    prob_lose_sparse_non_systematic(n, k, gamma, p)
                } else {
                    full
                }
            }
            Scheme::SystematicSec => {
                if 2 * gamma < k {
                    prob_lose_sparse_exact(code, gamma, p)
                } else {
                    full
                }
            }
        };
        probs.push(prob);
    }
    probs
}

/// Probability of retaining the whole archive under **dispersed** placement
/// (eq. 11 / eq. 14): every object lives on its own node set, so the events
/// are independent.
pub fn dispersed_availability<F: GaloisField>(
    code: &SecCode<F>,
    scheme: Scheme,
    sparsity: &[usize],
    p: f64,
) -> f64 {
    per_object_loss(code, scheme, sparsity, p)
        .into_iter()
        .map(|loss| 1.0 - loss)
        .product()
}

/// Probability of retaining the whole archive under **colocated** placement
/// (eq. 13 / eq. 15): the whole archive survives exactly when any `k` of the
/// shared `n` nodes survive, for every scheme, so availability is
/// `1 − Prob(E_1)` regardless of the scheme or the sparsity profile.
pub fn colocated_availability<F: GaloisField>(code: &SecCode<F>, p: f64) -> f64 {
    1.0 - prob_lose_full(code.n(), code.k(), p)
}

/// The "number of nines" transform used on the y-axis of Fig. 3:
/// `-log10(1 - availability)`. Returns `f64::INFINITY` for availability 1.
pub fn nines(availability: f64) -> f64 {
    if availability >= 1.0 {
        f64::INFINITY
    } else {
        -(1.0 - availability).log10()
    }
}

/// One row of the Fig. 3 comparison: availability of the whole archive for
/// each scheme and placement at a given failure probability.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailabilityPoint {
    /// The node-failure probability.
    pub p: f64,
    /// Colocated placement (identical for all three schemes, eq. 13/15).
    pub colocated: f64,
    /// Dispersed placement, non-systematic SEC.
    pub dispersed_non_systematic: f64,
    /// Dispersed placement, systematic SEC.
    pub dispersed_systematic: f64,
    /// Dispersed placement, non-differential baseline.
    pub dispersed_non_differential: f64,
}

/// Computes a Fig. 3 style sweep for the archive described by the codes and
/// sparsity profile, over the given failure probabilities.
pub fn availability_sweep<F: GaloisField>(
    non_systematic: &SecCode<F>,
    systematic: &SecCode<F>,
    sparsity: &[usize],
    ps: &[f64],
) -> Vec<AvailabilityPoint> {
    assert_eq!(non_systematic.form(), GeneratorForm::NonSystematic);
    assert_eq!(systematic.form(), GeneratorForm::Systematic);
    ps.iter()
        .map(|&p| AvailabilityPoint {
            p,
            colocated: colocated_availability(non_systematic, p),
            dispersed_non_systematic: dispersed_availability(
                non_systematic,
                Scheme::NonSystematicSec,
                sparsity,
                p,
            ),
            dispersed_systematic: dispersed_availability(systematic, Scheme::SystematicSec, sparsity, p),
            dispersed_non_differential: dispersed_availability(
                non_systematic,
                Scheme::NonDifferential,
                sparsity,
                p,
            ),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sec_gf::Gf256;

    fn codes() -> (SecCode<Gf256>, SecCode<Gf256>) {
        (
            SecCode::cauchy(6, 3, GeneratorForm::NonSystematic).unwrap(),
            SecCode::cauchy(6, 3, GeneratorForm::Systematic).unwrap(),
        )
    }

    #[test]
    fn per_object_loss_shapes_and_ordering() {
        let (ns, sys) = codes();
        let p = 0.1;
        let probs_ns = per_object_loss(&ns, Scheme::NonSystematicSec, &[1], p);
        let probs_sys = per_object_loss(&sys, Scheme::SystematicSec, &[1], p);
        let probs_nd = per_object_loss(&ns, Scheme::NonDifferential, &[1], p);
        assert_eq!(probs_ns.len(), 2);
        // Delta objects are more resilient than full objects for SEC.
        assert!(probs_ns[1] < probs_ns[0]);
        assert!(probs_sys[1] < probs_sys[0]);
        // Eq. (10): systematic delta loss ≥ non-systematic delta loss.
        assert!(probs_sys[1] >= probs_ns[1]);
        // Baseline stores full versions, so both entries have equal loss.
        assert_eq!(probs_nd[0], probs_nd[1]);
    }

    #[test]
    fn colocated_beats_or_equals_dispersed_for_every_scheme() {
        // Paper conclusion (1): colocated placement dominates dispersed.
        let (ns, sys) = codes();
        for &p in &[0.02, 0.05, 0.1, 0.2] {
            let colo = colocated_availability(&ns, p);
            for (code, scheme) in [
                (&ns, Scheme::NonSystematicSec),
                (&sys, Scheme::SystematicSec),
                (&ns, Scheme::NonDifferential),
            ] {
                let disp = dispersed_availability(code, scheme, &[1], p);
                assert!(colo >= disp - 1e-15, "p={p} scheme={scheme}");
            }
        }
    }

    #[test]
    fn dispersed_ordering_matches_figure_3() {
        // Fig. 3: among dispersed placements, non-systematic SEC ≥ systematic
        // SEC ≥ non-differential.
        let (ns, sys) = codes();
        for &p in &[0.02, 0.05, 0.1, 0.2] {
            let d_ns = dispersed_availability(&ns, Scheme::NonSystematicSec, &[1], p);
            let d_sys = dispersed_availability(&sys, Scheme::SystematicSec, &[1], p);
            let d_nd = dispersed_availability(&ns, Scheme::NonDifferential, &[1], p);
            assert!(d_ns >= d_sys - 1e-15, "p={p}");
            assert!(d_sys >= d_nd - 1e-15, "p={p}");
        }
    }

    #[test]
    fn colocated_availability_is_scheme_independent() {
        let (ns, sys) = codes();
        for &p in &[0.05, 0.1] {
            assert!((colocated_availability(&ns, p) - colocated_availability(&sys, p)).abs() < 1e-15);
        }
    }

    #[test]
    fn nines_transform() {
        assert!((nines(0.9) - 1.0).abs() < 1e-12);
        assert!((nines(0.999) - 3.0).abs() < 1e-9);
        assert!(nines(1.0).is_infinite());
        assert!(nines(0.0).abs() < 1e-12);
    }

    #[test]
    fn sweep_produces_monotone_availability() {
        let (ns, sys) = codes();
        let ps: Vec<f64> = (1..=10).map(|i| i as f64 * 0.02).collect();
        let sweep = availability_sweep(&ns, &sys, &[1], &ps);
        assert_eq!(sweep.len(), 10);
        for w in sweep.windows(2) {
            assert!(w[0].colocated >= w[1].colocated);
            assert!(w[0].dispersed_non_systematic >= w[1].dispersed_non_systematic);
        }
        for point in &sweep {
            assert!(point.colocated >= point.dispersed_non_systematic - 1e-15);
            assert!(point.dispersed_non_systematic >= point.dispersed_non_differential - 1e-15);
        }
    }

    #[test]
    fn longer_archives_are_less_available_when_dispersed() {
        let (ns, _) = codes();
        let p = 0.1;
        let short = dispersed_availability(&ns, Scheme::NonSystematicSec, &[1], p);
        let long = dispersed_availability(&ns, Scheme::NonSystematicSec, &[1, 1, 1, 1], p);
        assert!(long < short);
        // Colocated availability is unaffected by archive length.
        assert_eq!(colocated_availability(&ns, p), colocated_availability(&ns, p));
    }

    #[test]
    fn scheme_display() {
        assert_eq!(Scheme::NonSystematicSec.to_string(), "non-systematic SEC");
        assert_eq!(Scheme::SystematicSec.to_string(), "systematic SEC");
        assert_eq!(Scheme::NonDifferential.to_string(), "non-differential");
    }
}
