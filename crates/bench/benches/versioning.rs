//! End-to-end versioning benchmarks: appending versions and retrieving whole
//! archives under each encoding strategy, plus the analytical machinery used
//! by the resilience figures.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sec_analysis::io::{average_io_exact, IoScheme};
use sec_analysis::resilience::prob_lose_sparse_exact;
use sec_erasure::{GeneratorForm, SecCode};
use sec_gf::{bulk, Gf256};
use sec_versioning::{ArchiveConfig, ByteVersionedArchive, EncodingStrategy};
use sec_workload::{EditModel, TraceConfig, VersionTrace};

/// Bytes per block: each symbol of the 10-symbol trace fills one 4 KiB block,
/// so block sparsity is the trace's symbol sparsity.
const BLOCK: usize = 4096;

fn trace(versions: usize) -> Vec<Vec<u8>> {
    let config = TraceConfig::new(10, versions, EditModel::Localized { max_run: 3 });
    let mut rng = StdRng::seed_from_u64(7);
    VersionTrace::<Gf256>::generate(&config, &mut rng)
        .versions
        .iter()
        .map(|symbols| {
            bulk::symbols_to_bytes(symbols)
                .into_iter()
                .flat_map(|byte| std::iter::repeat_n(byte, BLOCK))
                .collect()
        })
        .collect()
}

fn bench_append_and_retrieve(c: &mut Criterion) {
    let mut group = c.benchmark_group("archive");
    let versions = trace(10);
    for strategy in [
        EncodingStrategy::BasicSec,
        EncodingStrategy::OptimizedSec,
        EncodingStrategy::ReversedSec,
        EncodingStrategy::NonDifferential,
    ] {
        group.bench_with_input(
            BenchmarkId::new("append_10_versions", format!("{strategy}")),
            &strategy,
            |b, &strategy| {
                b.iter(|| {
                    let config =
                        ArchiveConfig::new(20, 10, GeneratorForm::NonSystematic, strategy).unwrap();
                    let mut archive = ByteVersionedArchive::new(config).unwrap();
                    archive.append_all(std::hint::black_box(&versions)).unwrap();
                    archive
                });
            },
        );
        let config = ArchiveConfig::new(20, 10, GeneratorForm::NonSystematic, strategy).unwrap();
        let mut archive = ByteVersionedArchive::new(config).unwrap();
        archive.append_all(&versions).unwrap();
        group.bench_with_input(
            BenchmarkId::new("retrieve_all_versions", format!("{strategy}")),
            &archive,
            |b, archive| {
                b.iter(|| archive.retrieve_prefix(std::hint::black_box(10)).unwrap());
            },
        );
    }
    group.finish();
}

fn bench_analysis(c: &mut Criterion) {
    let mut group = c.benchmark_group("analysis");
    let sys: SecCode<Gf256> = SecCode::cauchy(10, 5, GeneratorForm::Systematic).unwrap();
    group.bench_function("exact_loss_probability_10x5", |b| {
        b.iter(|| prob_lose_sparse_exact(std::hint::black_box(&sys), 2, 0.1));
    });
    group.bench_function("exact_average_io_10x5", |b| {
        b.iter(|| {
            average_io_exact(
                std::hint::black_box(&sys),
                IoScheme::Sec(GeneratorForm::Systematic),
                2,
                0.1,
            )
        });
    });
    group.finish();
}

criterion_group!(benches, bench_append_and_retrieve, bench_analysis);
criterion_main!(benches);
