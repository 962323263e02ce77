//! Fig. 9 and the §III-D example — number of I/O reads to retrieve the l-th
//! version and the first l versions, for the (20, 10) code with sparsity
//! profile {3, 8, 3, 6}, under Basic SEC, Optimized SEC and the
//! non-differential baseline. The numbers are produced twice: analytically
//! from the I/O model and operationally by building and reading an actual
//! byte archive (ten 64-byte blocks per version, one block per symbol of the
//! paper's example), to show they coincide.
//!
//! Run with `cargo run -p sec-bench --bin fig9`.

use sec_bench::{ExperimentArgs, ResultTable};
use sec_erasure::{CodeParams, GeneratorForm};
use sec_versioning::{ArchiveConfig, ByteVersionedArchive, EncodingStrategy, IoModel};

const PROFILE: [usize; 4] = [3, 8, 3, 6];
const BLOCK: usize = 64;

/// Builds a concrete version sequence realizing the paper's sparsity profile:
/// each listed block gets one byte flipped.
fn paper_versions() -> Vec<Vec<u8>> {
    let k = 10usize;
    let base: Vec<u8> = (0..k * BLOCK).map(|i| (i % 251) as u8).collect();
    let mut versions = vec![base];
    let edits: [&[usize]; 4] = [
        &[0, 1, 2],
        &[0, 1, 2, 3, 4, 5, 6, 7],
        &[3, 4, 5],
        &[0, 2, 4, 6, 8, 9],
    ];
    for positions in edits {
        let mut next = versions.last().expect("non-empty").clone();
        for &p in positions {
            next[p * BLOCK + p] ^= 0xA5;
        }
        versions.push(next);
    }
    versions
}

fn operational_reads(strategy: EncodingStrategy, l: usize, prefix: bool) -> usize {
    let config = ArchiveConfig::new(20, 10, GeneratorForm::NonSystematic, strategy)
        .expect("valid (20,10) configuration");
    let mut archive = ByteVersionedArchive::new(config).expect("GF(2^8) is large enough for (20,10)");
    archive.append_all(&paper_versions()).expect("append succeeds");
    assert_eq!(archive.sparsity_profile(), PROFILE);
    if prefix {
        archive.retrieve_prefix(l).expect("retrieval succeeds").io_reads
    } else {
        archive.retrieve_version(l).expect("retrieval succeeds").io_reads
    }
}

fn main() -> std::io::Result<()> {
    let args = ExperimentArgs::from_env();
    let model = IoModel::new(
        CodeParams::new(20, 10).expect("valid (20,10)"),
        GeneratorForm::NonSystematic,
    );

    let mut table = ResultTable::new(
        "Fig. 9 / §III-D: I/O reads, (20,10) code, sparsity profile {3,8,3,6}",
        &[
            "l",
            "basic_lth_version",
            "optimized_lth_version",
            "non_diff_lth_version",
            "basic_first_l",
            "non_diff_first_l",
            "basic_lth_measured",
            "optimized_lth_measured",
        ],
    );
    for l in 1..=5usize {
        table.push_row(vec![
            l.to_string(),
            model
                .version_reads(EncodingStrategy::BasicSec, &PROFILE, l)
                .to_string(),
            model
                .version_reads(EncodingStrategy::OptimizedSec, &PROFILE, l)
                .to_string(),
            model
                .version_reads(EncodingStrategy::NonDifferential, &PROFILE, l)
                .to_string(),
            model
                .prefix_reads(EncodingStrategy::BasicSec, &PROFILE, l)
                .to_string(),
            model
                .prefix_reads(EncodingStrategy::NonDifferential, &PROFILE, l)
                .to_string(),
            operational_reads(EncodingStrategy::BasicSec, l, false).to_string(),
            operational_reads(EncodingStrategy::OptimizedSec, l, false).to_string(),
        ]);
    }
    table.emit(&args)?;

    let total_sec = model.prefix_reads(EncodingStrategy::BasicSec, &PROFILE, 5);
    let total_nd = model.prefix_reads(EncodingStrategy::NonDifferential, &PROFILE, 5);
    println!(
        "\nTotal reads for all 5 versions: SEC = {total_sec}, non-differential = {total_nd} \
         ({:.1}% fewer reads; 8 of 50 saved — the paper headlines this as a 20% saving).",
        (total_nd - total_sec) as f64 / total_nd as f64 * 100.0
    );
    println!(
        "Expected per-version numbers (paper §III-D): basic {{10,16,26,32,42}}, optimized {{10,16,10,16,10}}."
    );
    Ok(())
}
