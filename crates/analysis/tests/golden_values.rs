//! Golden-value regression tests pinning the paper-facing outputs of
//! `sec-analysis` — average I/O reads `μ_γ` (Figs. 4–5), static resilience
//! (eqs. 6–7, §IV-A) and the §IV-C failure-pattern census / Table I — so
//! refactors of the numeric layers (fields, kernels, linalg, read planning)
//! cannot silently drift away from the published values.
//!
//! Where a quantity has a closed form (non-systematic SEC, the
//! non-differential baseline, the binomial loss probabilities) the expected
//! value is hand-derived in this file, independent of the library code under
//! test. Systematic-SEC values, which depend on which `2γ`-row subsets
//! qualify, are pinned to 4-decimal literals cross-checked against an
//! independent enumeration for the `(6, 3)` code.

use sec_analysis::io::{average_io_exact, IoScheme};
use sec_analysis::patterns::census;
use sec_analysis::resilience::{
    prob_lose_full, prob_lose_sparse_exact, prob_lose_sparse_non_systematic,
};
use sec_analysis::tables::table1;
use sec_erasure::{CodeParams, GeneratorForm, SecCode};
use sec_gf::Gf256;

const TOL: f64 = 1e-12;
/// Tolerance for values pinned as 4-decimal literals (half an ulp + margin).
const TOL4: f64 = 6e-5;

fn assert_close(actual: f64, expected: f64, tol: f64, what: &str) {
    assert!(
        (actual - expected).abs() <= tol,
        "{what}: got {actual}, expected {expected} (±{tol})"
    );
}

#[test]
fn fig4_average_io_for_6_3_code_gamma_1() {
    let sys: SecCode<Gf256> = SecCode::cauchy(6, 3, GeneratorForm::Systematic).unwrap();
    let ns: SecCode<Gf256> = SecCode::cauchy(6, 3, GeneratorForm::NonSystematic).unwrap();

    for p in [0.01, 0.05, 0.10, 0.15, 0.20] {
        // Non-systematic Cauchy SEC: every 2-row subset qualifies, so μ_1 is
        // exactly 2 reads at any failure probability (Fig. 4, flat line).
        let r = average_io_exact(&ns, IoScheme::Sec(GeneratorForm::NonSystematic), 1, p);
        assert_close(r.average_reads, 2.0, TOL, &format!("non-systematic μ_1 at p={p}"));
        assert_close(
            r.prob_sparse_reads,
            1.0,
            TOL,
            &format!("non-systematic p_2γ at p={p}"),
        );

        // Non-differential baseline: always k = 3 reads.
        let r = average_io_exact(&ns, IoScheme::NonDifferential, 1, p);
        assert_close(r.average_reads, 3.0, TOL, &format!("non-differential at p={p}"));
    }

    // Systematic SEC (6,3): only the 3 parity pairs (of 15 two-row subsets)
    // qualify, so μ_1 = 2·P + 3·(1−P) where P is the conditional probability
    // that ≥ 2 of the 3 parity nodes are alive given ≥ 3 live nodes overall.
    // Independent enumeration over the 2^6 failure patterns:
    for p in [0.01, 0.10, 0.20] {
        let q: f64 = 1.0 - p;
        let mut prob_alive_enough = 0.0;
        let mut prob_sparse = 0.0;
        for mask in 0u32..64 {
            let alive = 6 - mask.count_ones() as usize;
            if alive < 3 {
                continue;
            }
            let weight = p.powi(mask.count_ones() as i32) * q.powi(alive as i32);
            prob_alive_enough += weight;
            // Parity nodes are positions 3, 4, 5 of the systematic codeword.
            let parity_alive = [3u32, 4, 5].iter().filter(|&&b| mask & (1 << b) == 0).count();
            if parity_alive >= 2 {
                prob_sparse += weight;
            }
        }
        let p2g = prob_sparse / prob_alive_enough;
        let expected = 2.0 * p2g + 3.0 * (1.0 - p2g);
        let r = average_io_exact(&sys, IoScheme::Sec(GeneratorForm::Systematic), 1, p);
        assert_close(
            r.average_reads,
            expected,
            1e-9,
            &format!("systematic μ_1 at p={p}"),
        );
    }

    // Pin the published curve points (4-decimal rendering of Fig. 4).
    let sys_mu =
        |p: f64| average_io_exact(&sys, IoScheme::Sec(GeneratorForm::Systematic), 1, p).average_reads;
    assert_close(sys_mu(0.01), 2.0003, TOL4, "systematic μ_1 at p=0.01");
    assert_close(sys_mu(0.10), 2.0270, TOL4, "systematic μ_1 at p=0.10");
    assert_close(sys_mu(0.20), 2.0917, TOL4, "systematic μ_1 at p=0.20");
}

#[test]
fn fig5_average_io_for_10_5_code() {
    let sys: SecCode<Gf256> = SecCode::cauchy(10, 5, GeneratorForm::Systematic).unwrap();
    let ns: SecCode<Gf256> = SecCode::cauchy(10, 5, GeneratorForm::NonSystematic).unwrap();

    for gamma in [1usize, 2] {
        for p in [0.01, 0.10, 0.20] {
            let r = average_io_exact(&ns, IoScheme::Sec(GeneratorForm::NonSystematic), gamma, p);
            assert_close(
                r.average_reads,
                2.0 * gamma as f64,
                TOL,
                &format!("non-systematic μ_{gamma} at p={p}"),
            );
            let r = average_io_exact(&ns, IoScheme::NonDifferential, gamma, p);
            assert_close(r.average_reads, 5.0, TOL, &format!("non-differential at p={p}"));
        }
    }

    // Pinned systematic curve points (Fig. 5 shape: γ = 2 degrades faster
    // than γ = 1 because it needs 4 live parity-heavy rows).
    let sys_mu = |gamma: usize, p: f64| {
        average_io_exact(&sys, IoScheme::Sec(GeneratorForm::Systematic), gamma, p).average_reads
    };
    assert_close(sys_mu(1, 0.10), 2.0013, TOL4, "systematic μ_1 at p=0.10");
    assert_close(sys_mu(1, 0.20), 2.0146, TOL4, "systematic μ_1 at p=0.20");
    assert_close(sys_mu(2, 0.01), 4.0010, TOL4, "systematic μ_2 at p=0.01");
    assert_close(sys_mu(2, 0.10), 4.0813, TOL4, "systematic μ_2 at p=0.10");
    assert_close(sys_mu(2, 0.20), 4.2581, TOL4, "systematic μ_2 at p=0.20");
}

#[test]
fn static_resilience_closed_forms() {
    // Eq. (6): losing a fully encoded (6,3) object at p = 0.1 requires ≥ 4
    // failures: p^6 + 6·p^5·q + 15·p^4·q^2 = 1e-6 + 5.4e-5 + 1.215e-3.
    assert_close(prob_lose_full(6, 3, 0.1), 1.27e-3, 1e-15, "eq. 6 at (6,3), p=0.1");

    // Eq. (7): a 1-sparse delta under non-systematic SEC survives with any
    // υ = 2 live nodes: loss = p^6 + 6·p^5·q = 5.5e-5.
    assert_close(
        prob_lose_sparse_non_systematic(6, 3, 1, 0.1),
        5.5e-5,
        1e-15,
        "eq. 7 at (6,3), γ=1, p=0.1",
    );

    // Exact systematic loss for (6,3), γ = 1: survivable with ≥ 3 live nodes
    // or with exactly the 3 qualifying parity pairs among the C(6,2) = 15
    // two-node patterns: loss = p^6 + 6·p^5·q + 12·p^4·q^2.
    let sys: SecCode<Gf256> = SecCode::cauchy(6, 3, GeneratorForm::Systematic).unwrap();
    let p: f64 = 0.1;
    let q: f64 = 0.9;
    let expected = p.powi(6) + 6.0 * p.powi(5) * q + 12.0 * p.powi(4) * q.powi(2);
    assert_close(
        prob_lose_sparse_exact(&sys, 1, p),
        expected,
        1e-15,
        "exact systematic loss at (6,3), γ=1, p=0.1",
    );
    assert_close(expected, 1.027e-3, 1e-15, "hand-derived systematic loss value");

    // Sanity ordering of §IV-A: sparse deltas are strictly more resilient
    // than full objects, and non-systematic dominates systematic.
    let ns: SecCode<Gf256> = SecCode::cauchy(6, 3, GeneratorForm::NonSystematic).unwrap();
    let full = prob_lose_full(6, 3, 0.1);
    let sparse_ns = prob_lose_sparse_exact(&ns, 1, 0.1);
    let sparse_sys = prob_lose_sparse_exact(&sys, 1, 0.1);
    assert!(sparse_ns < sparse_sys && sparse_sys < full);
    assert_close(sparse_ns, 5.5e-5, 1e-15, "exact non-systematic matches eq. 7");
}

#[test]
fn pattern_census_matches_section_iv_c() {
    // §IV-C, (6,3), γ = 1: 63 non-empty failure patterns, 41 recoverable by
    // the MDS property alone, 56 under non-systematic SEC, 44 under
    // systematic SEC.
    let ns: SecCode<Gf256> = SecCode::cauchy(6, 3, GeneratorForm::NonSystematic).unwrap();
    let sys: SecCode<Gf256> = SecCode::cauchy(6, 3, GeneratorForm::Systematic).unwrap();
    let census_ns = census(&ns, 1);
    assert_eq!(census_ns.total_patterns, 63);
    assert_eq!(census_ns.mds_recoverable, 41);
    assert_eq!(census_ns.recoverable(), 56);
    let census_sys = census(&sys, 1);
    assert_eq!(census_sys.total_patterns, 63);
    assert_eq!(census_sys.recoverable(), 44);
}

#[test]
fn table1_io_reads_match_the_paper() {
    // Table I (§IV-C): (6,3) code, second version 1-sparse. Both SEC forms
    // retrieve z_2 with 2 reads; the non-differential scheme pays k = 3.
    let columns = table1(CodeParams::new(6, 3).unwrap(), 1);
    assert_eq!(columns.len(), 3);
    for column in &columns {
        assert_eq!(column.io_reads_v1, 3, "{:?}", column.scheme);
        assert_eq!(column.nodes, 6, "{:?}", column.scheme);
    }
    assert_eq!(columns[0].io_reads_v2, 2); // non-systematic SEC
    assert_eq!(columns[1].io_reads_v2, 2); // systematic SEC
    assert_eq!(columns[2].io_reads_v2, 3); // non-differential
}
