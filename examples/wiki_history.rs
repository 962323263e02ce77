//! A Wikipedia-article style workload: revisions whose size is driven by a
//! sparsity distribution (most edits are tiny, a few rewrite large parts of
//! the article). The example compares the expected I/O of SEC against the
//! non-differential baseline under the paper's truncated Exponential and
//! Poisson models, and validates the prediction against a generated trace.
//!
//! Run with `cargo run --example wiki_history`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sec::analysis::expected_io::{expected_joint_reads, joint_read_reduction_percent};
use sec::gf::{bulk, Gf256};
use sec::workload::{EditModel, TraceConfig, VersionTrace};
use sec::{ArchiveConfig, ByteVersionedArchive, EncodingStrategy, GeneratorForm, IoModel, SparsityPmf};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let k = 8usize;
    let n = 16usize;
    let model = IoModel::new(sec::CodeParams::new(n, k)?, GeneratorForm::NonSystematic);

    println!("expected I/O for two versions of an {k}-symbol article, ({n},{k}) code:\n");
    println!(
        "{:<34} {:>16} {:>14}",
        "sparsity model", "expected reads", "reduction %"
    );
    for &alpha in &[0.2, 0.8, 1.6] {
        let pmf = SparsityPmf::truncated_exponential(alpha, k)?;
        println!(
            "{:<34} {:>16.3} {:>13.1}%",
            format!("small edits (exponential α={alpha})"),
            expected_joint_reads(&model, &pmf),
            joint_read_reduction_percent(&model, &pmf)
        );
    }
    for &lambda in &[3.0, 6.0, 9.0] {
        let pmf = SparsityPmf::truncated_poisson(lambda, k)?;
        println!(
            "{:<34} {:>16.3} {:>13.1}%",
            format!("large edits (poisson λ={lambda})"),
            expected_joint_reads(&model, &pmf),
            joint_read_reduction_percent(&model, &pmf)
        );
    }

    // Validate the analytical expectation against an actual archived trace.
    let pmf = SparsityPmf::truncated_exponential(0.8, k)?;
    let mut rng = StdRng::seed_from_u64(42);
    let trace_config = TraceConfig::new(k, 60, EditModel::PmfDriven(pmf));
    let trace: VersionTrace<Gf256> = VersionTrace::generate(&trace_config, &mut rng);

    let config = ArchiveConfig::new(n, k, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec)?;
    let mut archive = ByteVersionedArchive::new(config)?;
    // One GF(2^8) symbol of the trace is one byte, i.e. one block of the
    // k-byte article.
    for revision in &trace.versions {
        archive.append_version(&bulk::symbols_to_bytes(revision))?;
    }

    let measured = archive.retrieve_prefix(archive.len())?.io_reads;
    let baseline = archive.len() * k;
    println!(
        "\n60-revision trace: measured {measured} reads for the full history vs {baseline} baseline \
         ({:.1}% fewer); empirical sparsity PMF: {}",
        (baseline - measured) as f64 / baseline as f64 * 100.0,
        trace.empirical_pmf().expect("trace has more than one version")
    );
    Ok(())
}
