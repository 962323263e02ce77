//! End-to-end integration tests spanning every crate: workload generation →
//! delta archiving → distributed storage → failures → retrieval, checked
//! against the analytical I/O and resilience models. A `GF(2^8)` trace symbol
//! is a byte, so a `k`-symbol trace version is a `k`-byte object whose blocks
//! are its symbols.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sec::analysis::io::{average_io_exact, IoScheme};
use sec::analysis::patterns::census;
use sec::analysis::resilience::{paper_eq20_systematic_loss, prob_lose_sparse_exact};
use sec::gf::{bulk, Gf256};
use sec::store::failure::enumerate_patterns;
use sec::workload::{EditModel, TraceConfig, VersionTrace};
use sec::{
    ArchiveConfig, ByteVersionedArchive, EncodingStrategy, GeneratorForm, PlacementStrategy, SecCode,
    SecEngine, SparsityPmf,
};

/// The versions of a `GF(2^8)` trace as byte objects, one byte per symbol.
fn trace_bytes(trace: &VersionTrace<Gf256>) -> Vec<Vec<u8>> {
    trace.versions.iter().map(|v| bulk::symbols_to_bytes(v)).collect()
}

/// A `(6, 3)` Basic SEC byte archive holding `versions`.
fn archive_6_3(form: GeneratorForm, versions: &[Vec<u8>]) -> ByteVersionedArchive {
    let config = ArchiveConfig::new(6, 3, form, EncodingStrategy::BasicSec).expect("valid (6,3)");
    let mut archive = ByteVersionedArchive::new(config).expect("builds");
    archive.append_all(versions).expect("append succeeds");
    archive
}

/// Generates a trace, serves it from a degraded engine and checks every
/// version comes back bit-exact, at the failure-aware reference's read cost,
/// for every strategy and placement.
#[test]
fn trace_to_storage_round_trip_under_failures() {
    let mut rng = StdRng::seed_from_u64(99);
    let trace_config = TraceConfig::new(8, 6, EditModel::Scattered { edits: 2 });
    let trace: VersionTrace<Gf256> = VersionTrace::generate(&trace_config, &mut rng);
    let versions = trace_bytes(&trace);

    for strategy in [
        EncodingStrategy::BasicSec,
        EncodingStrategy::OptimizedSec,
        EncodingStrategy::ReversedSec,
        EncodingStrategy::NonDifferential,
    ] {
        for placement in [PlacementStrategy::Colocated, PlacementStrategy::Dispersed] {
            let config = ArchiveConfig::new(16, 8, GeneratorForm::Systematic, strategy)
                .expect("valid (16,8) configuration");
            let mut archive = ByteVersionedArchive::new(config).expect("GF(256) supports (16,8)");
            archive.append_all(&versions).expect("append succeeds");
            let engine = SecEngine::with_placement(config, placement, 0).expect("engine builds");
            engine.append_all(&versions).expect("append succeeds");

            // Kill n - k = 8 nodes of the first entry's node set: the archive
            // must still be fully readable (MDS tolerance).
            for node in 0..8 {
                engine.fail_node(node).unwrap();
            }
            let nodes = engine.placement();
            let live = |entry, position| nodes.try_node_for(entry, position).is_ok_and(|node| node >= 8);
            for (l, expect) in versions.iter().enumerate() {
                let case = format!("{strategy} {placement} version {}", l + 1);
                let got = engine
                    .get_version(l + 1)
                    .unwrap_or_else(|e| panic!("{case}: {e}"));
                let want = archive
                    .retrieve_version_from(l + 1, live)
                    .unwrap_or_else(|e| panic!("{case}: reference: {e}"));
                assert_eq!(*got.data, *expect, "{case}");
                assert_eq!(want.data, *expect, "{case}: reference");
                assert_eq!(got.io_reads, want.io_reads, "{case}");
            }
        }
    }
}

/// The archive's measured I/O equals the closed-form model, and SEC saves
/// reads relative to the baseline whenever deltas are exploitable.
#[test]
fn measured_io_matches_model_on_pmf_driven_trace() {
    let pmf = SparsityPmf::truncated_exponential(0.8, 10).expect("valid pmf");
    let mut rng = StdRng::seed_from_u64(3);
    let trace_config = TraceConfig::new(10, 12, EditModel::PmfDriven(pmf));
    let trace: VersionTrace<Gf256> = VersionTrace::generate(&trace_config, &mut rng);

    let config = ArchiveConfig::new(20, 10, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec)
        .expect("valid (20,10) configuration");
    let mut archive = ByteVersionedArchive::new(config).expect("GF(256) supports (20,10)");
    archive.append_all(&trace_bytes(&trace)).expect("append succeeds");
    assert_eq!(archive.sparsity_profile(), trace.sparsity.as_slice());

    let model = archive.config().io_model();
    let measured = archive
        .retrieve_prefix(archive.len())
        .expect("retrieval succeeds");
    let predicted = model.prefix_reads(EncodingStrategy::BasicSec, &trace.sparsity, archive.len());
    assert_eq!(measured.io_reads, predicted);
    assert!(measured.io_reads <= archive.len() * 10);
}

/// The paper's §IV-C example end to end: the 3 KB object as three 1 KB
/// blocks, a 1-sparse second version, (6,3) codes — five reads for both
/// versions, pattern census 56 vs 44, and the eq. (20) loss probability.
#[test]
fn paper_running_example_end_to_end() {
    let x1: Vec<u8> = (0..3 * 1024).map(|i| (i * 7 % 256) as u8).collect();
    let mut x2 = x1.clone();
    x2[12] ^= 0x51; // modify only the first 1 KB block

    for form in [GeneratorForm::Systematic, GeneratorForm::NonSystematic] {
        let archive = archive_6_3(form, &[x1.clone(), x2.clone()]);
        let both = archive.retrieve_prefix(2).expect("retrieval succeeds");
        assert_eq!(both.io_reads, 5, "{form:?}");
        assert_eq!(both.versions, vec![x1.clone(), x2.clone()]);
    }

    let ns: SecCode<Gf256> = SecCode::cauchy(6, 3, GeneratorForm::NonSystematic).expect("builds");
    let sys: SecCode<Gf256> = SecCode::cauchy(6, 3, GeneratorForm::Systematic).expect("builds");
    assert_eq!(census(&ns, 1).recoverable(), 56);
    assert_eq!(census(&sys, 1).recoverable(), 44);
    for &p in &[0.05, 0.1, 0.2] {
        assert!((prob_lose_sparse_exact(&sys, 1, p) - paper_eq20_systematic_loss(p)).abs() < 1e-12);
    }
}

/// The serving engine agrees with the analytical availability model: over
/// every failure pattern of the colocated (6,3) cluster, the archive is
/// recoverable exactly when at least k nodes are alive.
#[test]
fn simulator_agrees_with_analytical_availability() {
    let x1 = vec![1u8, 2, 3];
    let x2 = vec![1u8, 9, 3];
    let config = ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec)
        .expect("valid (6,3)");
    let engine = SecEngine::new(config).expect("engine builds");
    engine
        .append_all(&[x1.clone(), x2.clone()])
        .expect("append succeeds");

    let mut recoverable_patterns = 0usize;
    for pattern in enumerate_patterns(6) {
        engine.apply_pattern(&pattern);
        let reads = [engine.get_version(1), engine.get_version(2)];
        let recoverable = reads.iter().all(Result::is_ok);
        assert_eq!(
            recoverable,
            pattern.live_count() >= 3,
            "pattern {:?}",
            pattern.failed_nodes()
        );
        if recoverable {
            recoverable_patterns += 1;
            // And retrieval really works when the model says it should.
            let [v1, v2] = reads.map(|r| r.expect("retrievable pattern").data);
            assert_eq!(*v1, x1);
            assert_eq!(*v2, x2);
        }
    }
    // C(6,3) + C(6,2) + C(6,1) + C(6,0) patterns with >= 3 live nodes.
    assert_eq!(recoverable_patterns, 20 + 15 + 6 + 1);
}

/// Degraded-mode reads: with failures present, sparse deltas are still read
/// with 2γ I/Os whenever the live set allows it, matching the average-I/O
/// analysis used for Figs. 4–5.
#[test]
fn degraded_reads_match_average_io_analysis() {
    let sys: SecCode<Gf256> = SecCode::cauchy(6, 3, GeneratorForm::Systematic).expect("builds");
    // All parity nodes alive → 2 reads; parity pair broken → k reads.
    let avg_low_p = average_io_exact(&sys, IoScheme::Sec(GeneratorForm::Systematic), 1, 0.01);
    let avg_high_p = average_io_exact(&sys, IoScheme::Sec(GeneratorForm::Systematic), 1, 0.2);
    assert!(avg_low_p.average_reads < avg_high_p.average_reads);

    let x1 = vec![5u8, 6, 7];
    let x2 = vec![5u8, 6, 70];
    let archive = archive_6_3(GeneratorForm::Systematic, &[x1.clone(), x2.clone()]);
    let engine = SecEngine::new(archive.config()).expect("engine builds");
    engine.append_all(&[x1, x2.clone()]).expect("append succeeds");

    // Fail two of the three parity nodes: the delta can no longer be fetched
    // with 2 reads from the parity block, yet retrieval still succeeds, at
    // the cost the failure-aware reference predicts.
    engine.fail_node(4).unwrap();
    engine.fail_node(5).unwrap();
    let r = engine.get_version(2).expect("still recoverable");
    assert_eq!(*r.data, x2);
    assert!(r.io_reads >= 5, "reads = {}", r.io_reads);
    let want = archive
        .retrieve_version_from(2, |_, position| position < 4)
        .expect("still recoverable");
    assert_eq!(r.io_reads, want.io_reads);
}
