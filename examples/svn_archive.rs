//! A source-repository style workload: a document receives many small,
//! localized edits (the SVN scenario from the paper's introduction). The
//! example generates a synthetic edit trace, archives it with every encoding
//! strategy, serves it from a colocated engine, injects failures and
//! compares I/O and availability.
//!
//! Run with `cargo run --example svn_archive`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sec::gf::{bulk, Gf256};
use sec::workload::{EditModel, TraceConfig, VersionTrace};
use sec::{ArchiveConfig, ByteVersionedArchive, EncodingStrategy, GeneratorForm, SecEngine};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(2015);
    // 16-symbol object, 12 revisions, each revision rewrites a short run of
    // up to 3 consecutive symbols (a typical code-edit pattern). A GF(2^8)
    // symbol is a byte, so each revision is a 16-byte object the archive
    // splits into k = 16 one-byte blocks.
    let trace_config = TraceConfig::new(16, 12, EditModel::Localized { max_run: 3 });
    let trace: VersionTrace<Gf256> = VersionTrace::generate(&trace_config, &mut rng);
    let revisions: Vec<Vec<u8>> = trace.versions.iter().map(|v| bulk::symbols_to_bytes(v)).collect();
    println!(
        "generated {} revisions; delta sparsity: {:?} ({}% exploitable)",
        trace.len(),
        trace.sparsity,
        (trace.exploitable_fraction() * 100.0) as u32
    );

    // Archive the history under each strategy with a (32, 16) rate-1/2 code.
    for strategy in [
        EncodingStrategy::BasicSec,
        EncodingStrategy::OptimizedSec,
        EncodingStrategy::ReversedSec,
        EncodingStrategy::NonDifferential,
    ] {
        let config = ArchiveConfig::new(32, 16, GeneratorForm::Systematic, strategy)?;
        let mut archive = ByteVersionedArchive::new(config)?;
        archive.append_all(&revisions)?;

        let whole = archive.retrieve_prefix(archive.len())?;
        let latest = archive.retrieve_version(archive.len())?;
        println!(
            "{strategy:<18} whole-history reads = {:>4}   latest-version reads = {:>3}",
            whole.io_reads, latest.io_reads
        );
    }

    // Serve the Basic SEC history from a colocated engine, kill a few nodes
    // and show that everything is still readable.
    let config = ArchiveConfig::new(32, 16, GeneratorForm::Systematic, EncodingStrategy::BasicSec)?;
    let engine = SecEngine::new(config)?;
    engine.append_all(&revisions)?;
    for node in [0, 7, 13, 21, 30] {
        engine.fail_node(node)?;
    }
    let recoverable = (1..=engine.len()).all(|l| engine.get_version(l).is_ok());
    println!(
        "\nafter 5 node failures the archive is {}recoverable",
        if recoverable { "" } else { "NOT " }
    );
    let recovered = engine.get_version(engine.len())?;
    assert_eq!(*recovered.data, *revisions.last().expect("non-empty trace"));
    println!(
        "latest revision recovered from the degraded cluster with {} reads ({})",
        recovered.io_reads,
        engine.metrics_snapshot().io
    );

    // Repair one of the failed nodes and report the rebuild cost.
    let rebuilt = engine.repair_node(7)?;
    println!("repaired node 7: {rebuilt} blocks rebuilt");
    Ok(())
}
