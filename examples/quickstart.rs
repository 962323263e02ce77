//! Quickstart: archive a few versions of an object with SEC and read them
//! back, printing the I/O savings over the non-differential baseline.
//!
//! Run with `cargo run --example quickstart`.

use sec::{ArchiveConfig, ByteVersionedArchive, EncodingStrategy, GeneratorForm};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A (6, 3) code: the paper's running example. Each object is a 3 KiB
    // buffer split into three 1 KiB blocks (the paper's three symbols); the
    // code spreads six coded blocks over six nodes and tolerates any three
    // failures.
    let config = ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec)?;
    let mut archive = ByteVersionedArchive::new(config)?;

    // Three versions of the object; each edit touches a single block, so
    // every delta is 1-sparse and exploitable by SEC.
    let v1: Vec<u8> = (0..3 * 1024).map(|i| (i % 251) as u8).collect();
    let mut v2 = v1.clone();
    v2[100] = 111; // block 0
    let mut v3 = v2.clone();
    v3[2500] = 33; // block 2

    archive.append_all(&[&v1, &v2, &v3])?;
    println!(
        "archived {} versions, sparsity profile {:?}",
        archive.len(),
        archive.sparsity_profile()
    );

    // Retrieve each version and the whole history.
    for l in 1..=3 {
        let r = archive.retrieve_version(l)?;
        println!(
            "version {l}: {} I/O reads, {} entries touched",
            r.io_reads, r.entries_read
        );
    }
    let all = archive.retrieve_prefix(3)?;
    assert_eq!(all.versions, vec![v1, v2, v3]);

    let baseline = 3 * archive.code().k();
    println!(
        "whole archive: {} I/O reads with SEC vs {} non-differential ({:.1}% fewer)",
        all.io_reads,
        baseline,
        (baseline - all.io_reads) as f64 / baseline as f64 * 100.0
    );
    Ok(())
}
