//! Integration tests that pin every headline number of the paper's evaluation
//! so regressions in any crate are caught at the workspace level.

use sec::analysis::availability::{colocated_availability, dispersed_availability, Scheme};
use sec::analysis::expected_io::{joint_read_reduction_percent, second_version_increase_percent};
use sec::analysis::io::{average_io_exact, IoScheme};
use sec::analysis::resilience::{
    paper_eq17_full_loss, paper_eq18_non_systematic_loss, prob_lose_full, prob_lose_sparse_exact,
};
use sec::analysis::tables::table1;
use sec::erasure::CriteriaReport;
use sec::gf::Gf256;
use sec::{
    ArchiveConfig, ByteVersionedArchive, CodeParams, EncodingStrategy, GeneratorForm, IoModel, SecCode,
    SecEngine, SparsityPmf,
};

fn codes_6_3() -> (SecCode<Gf256>, SecCode<Gf256>) {
    (
        SecCode::cauchy(6, 3, GeneratorForm::NonSystematic).expect("builds"),
        SecCode::cauchy(6, 3, GeneratorForm::Systematic).expect("builds"),
    )
}

#[test]
fn table1_io_read_rows() {
    let columns = table1(CodeParams::new(6, 3).expect("valid"), 1);
    assert_eq!(
        columns.iter().map(|c| c.io_reads_v1).collect::<Vec<_>>(),
        vec![3, 3, 3]
    );
    assert_eq!(
        columns.iter().map(|c| c.io_reads_v2).collect::<Vec<_>>(),
        vec![2, 2, 3]
    );
}

#[test]
fn fig2_loss_probability_ordering_and_closed_forms() {
    let (ns, sys) = codes_6_3();
    for &p in &[0.02, 0.06, 0.1, 0.14, 0.18, 0.2] {
        let loss_ns = prob_lose_sparse_exact(&ns, 1, p);
        let loss_sys = prob_lose_sparse_exact(&sys, 1, p);
        assert!((loss_ns - paper_eq18_non_systematic_loss(p)).abs() < 1e-12);
        assert!(loss_sys > loss_ns, "p={p}");
        assert!(loss_sys < paper_eq17_full_loss(p), "p={p}");
    }
}

#[test]
fn fig3_placement_and_scheme_ordering() {
    let (ns, sys) = codes_6_3();
    for &p in &[0.02, 0.1, 0.2] {
        let colo = colocated_availability(&ns, p);
        let d_ns = dispersed_availability(&ns, Scheme::NonSystematicSec, &[1], p);
        let d_sys = dispersed_availability(&sys, Scheme::SystematicSec, &[1], p);
        let d_nd = dispersed_availability(&ns, Scheme::NonDifferential, &[1], p);
        assert!(colo >= d_ns && d_ns >= d_sys && d_sys >= d_nd, "p={p}");
        assert!((colo - (1.0 - prob_lose_full(6, 3, p))).abs() < 1e-12);
    }
}

#[test]
fn fig4_and_fig5_average_io_curves() {
    let (ns, sys) = codes_6_3();
    // (6,3), gamma = 1.
    for &p in &[0.01, 0.1, 0.2] {
        assert!(
            (average_io_exact(&ns, IoScheme::Sec(GeneratorForm::NonSystematic), 1, p).average_reads
                - 2.0)
                .abs()
                < 1e-12
        );
        assert!(
            (average_io_exact(&ns, IoScheme::NonDifferential, 1, p).average_reads - 3.0).abs() < 1e-12
        );
        let s = average_io_exact(&sys, IoScheme::Sec(GeneratorForm::Systematic), 1, p).average_reads;
        assert!((2.0..=3.0).contains(&s));
    }
    // (10,5), gamma = 1 and 2: systematic stays close to 2γ for γ=1 up to p=0.2.
    let sys10: SecCode<Gf256> = SecCode::cauchy(10, 5, GeneratorForm::Systematic).expect("builds");
    let g1 = average_io_exact(&sys10, IoScheme::Sec(GeneratorForm::Systematic), 1, 0.2).average_reads;
    let g2 = average_io_exact(&sys10, IoScheme::Sec(GeneratorForm::Systematic), 2, 0.2).average_reads;
    assert!(g1 < 2.1, "gamma=1 average {g1}");
    assert!((4.0..5.0).contains(&g2), "gamma=2 average {g2}");
}

#[test]
fn fig6_and_fig7_expected_io_bands() {
    let model = IoModel::new(
        CodeParams::new(6, 3).expect("valid"),
        GeneratorForm::NonSystematic,
    );
    // Paper: 6–13/14% reduction for the exponential family, 0.5–4.5% for Poisson.
    let reductions: Vec<f64> = [0.1, 0.6, 1.1, 1.6]
        .iter()
        .map(|&a| {
            joint_read_reduction_percent(&model, &SparsityPmf::truncated_exponential(a, 3).expect("pmf"))
        })
        .collect();
    assert!(reductions.windows(2).all(|w| w[0] < w[1]));
    assert!(reductions[0] > 4.0 && reductions[0] < 8.0);
    assert!(reductions[3] > 12.0 && reductions[3] < 15.0);

    let poisson: Vec<f64> = [3.0, 5.0, 7.0, 9.0]
        .iter()
        .map(|&l| {
            joint_read_reduction_percent(&model, &SparsityPmf::truncated_poisson(l, 3).expect("pmf"))
        })
        .collect();
    assert!(poisson.windows(2).all(|w| w[0] > w[1]));
    assert!(poisson[0] < 5.0 && poisson[3] > 0.0 && poisson[3] < 1.5);
}

#[test]
fn fig8_optimized_vs_basic_increase() {
    let model = IoModel::new(
        CodeParams::new(6, 3).expect("valid"),
        GeneratorForm::NonSystematic,
    );
    for &alpha in &[0.1, 0.6, 1.1, 1.6] {
        let pmf = SparsityPmf::truncated_exponential(alpha, 3).expect("pmf");
        let basic = second_version_increase_percent(&model, EncodingStrategy::BasicSec, &pmf);
        let optimized = second_version_increase_percent(&model, EncodingStrategy::OptimizedSec, &pmf);
        // Paper Fig. 8 (left): both in the 20–90% band, optimized below basic.
        assert!(basic > 20.0 && basic < 95.0, "alpha={alpha} basic={basic}");
        assert!(optimized <= basic);
        assert!(optimized >= 0.0);
    }
}

#[test]
fn fig9_io_read_series() {
    let model = IoModel::new(
        CodeParams::new(20, 10).expect("valid"),
        GeneratorForm::NonSystematic,
    );
    let profile = [3usize, 8, 3, 6];
    let basic: Vec<usize> = (1..=5)
        .map(|l| model.version_reads(EncodingStrategy::BasicSec, &profile, l))
        .collect();
    let optimized: Vec<usize> = (1..=5)
        .map(|l| model.version_reads(EncodingStrategy::OptimizedSec, &profile, l))
        .collect();
    let prefix_nd: Vec<usize> = (1..=5)
        .map(|l| model.prefix_reads(EncodingStrategy::NonDifferential, &profile, l))
        .collect();
    assert_eq!(basic, vec![10, 16, 26, 32, 42]);
    assert_eq!(optimized, vec![10, 16, 10, 16, 10]);
    assert_eq!(prefix_nd, vec![10, 20, 30, 40, 50]);
}

/// The §III-D version sequence over `block`-byte blocks: k = 10, each edit
/// flips one byte in every block it lists, giving the profile {3, 8, 3, 6}.
fn section_iii_d_versions(block: usize) -> Vec<Vec<u8>> {
    let mut versions = vec![(0..10 * block).map(|i| (i * 31 % 256) as u8).collect::<Vec<u8>>()];
    let edits: [&[usize]; 4] = [
        &[0, 1, 2],
        &[0, 1, 2, 3, 4, 5, 6, 7],
        &[3, 4, 5],
        &[0, 2, 4, 6, 8, 9],
    ];
    for blocks in edits {
        let mut next = versions.last().expect("non-empty").clone();
        for &b in blocks {
            next[b * block + b % block] ^= 0x80;
        }
        versions.push(next);
    }
    versions
}

/// §III-D / Fig. 9 operationally, on the path that ships: block reads counted
/// by the standalone byte archive and by the engine (cache off, so every read
/// hits the nodes) equal the paper's series at any block size.
#[test]
fn fig9_io_read_series_measured_on_the_byte_archive_and_the_engine() {
    let cases: [(EncodingStrategy, [usize; 5]); 3] = [
        (EncodingStrategy::BasicSec, [10, 16, 26, 32, 42]),
        (EncodingStrategy::OptimizedSec, [10, 16, 10, 16, 10]),
        (EncodingStrategy::NonDifferential, [10, 10, 10, 10, 10]),
    ];
    for block in [1usize, 64] {
        let versions = section_iii_d_versions(block);
        let filled = |strategy| {
            let config =
                ArchiveConfig::new(20, 10, GeneratorForm::NonSystematic, strategy).expect("valid");
            let mut archive = ByteVersionedArchive::new(config).expect("GF(2^8) fits (20,10)");
            let engine = SecEngine::new(config).expect("engine");
            for version in &versions {
                archive.append_version(version).expect("append");
                engine.append_version(version).expect("append");
            }
            assert_eq!(archive.sparsity_profile(), [3, 8, 3, 6], "block {block}");
            (archive, engine)
        };
        for (strategy, series) in cases {
            let (archive, engine) = filled(strategy);
            for (l, &reads) in (1..=5).zip(&series) {
                let from_archive = archive.retrieve_version(l).expect("archive read");
                let from_engine = engine.get_version(l).expect("engine read");
                assert_eq!(
                    from_archive.io_reads, reads,
                    "{strategy} archive v{l} block {block}"
                );
                assert_eq!(
                    from_engine.io_reads, reads,
                    "{strategy} engine v{l} block {block}"
                );
                assert_eq!(from_archive.data, versions[l - 1]);
                assert_eq!(*from_engine.data, versions[l - 1]);
            }
        }

        // Reversed SEC reads the latest version from its full copy alone.
        let (archive, engine) = filled(EncodingStrategy::ReversedSec);
        assert_eq!(archive.retrieve_version(5).expect("archive read").io_reads, 10);
        assert_eq!(engine.get_version(5).expect("engine read").io_reads, 10);

        // The whole archive: k + Σ min(2γ_j, k) = 42 block reads against 5k = 50.
        for (strategy, total) in [
            (EncodingStrategy::BasicSec, 42),
            (EncodingStrategy::NonDifferential, 50),
        ] {
            let (archive, engine) = filled(strategy);
            let from_archive = archive.retrieve_prefix(5).expect("archive prefix");
            let from_engine = engine.get_prefix(5).expect("engine prefix");
            assert_eq!(from_archive.io_reads, total, "{strategy} archive block {block}");
            assert_eq!(from_engine.io_reads, total, "{strategy} engine block {block}");
            assert_eq!(from_archive.versions, versions);
            assert_eq!(from_engine.versions, versions);
        }
    }
}

#[test]
fn section_v_a_subset_counts() {
    let (ns, sys) = codes_6_3();
    assert_eq!(
        CriteriaReport::for_code(&ns)
            .gamma(1)
            .expect("γ=1")
            .qualifying_subsets,
        15
    );
    assert_eq!(
        CriteriaReport::for_code(&sys)
            .gamma(1)
            .expect("γ=1")
            .qualifying_subsets,
        3
    );
}
