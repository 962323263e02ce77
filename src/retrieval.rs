//! Reading versions and prefixes back through the facade, on the paper's
//! §III-D example (`(20, 10)`, sparsity profile `{3, 8, 3, 6}`) with
//! 28-byte objects in 3-byte blocks: the bytes come back exactly, and the
//! block reads are the paper's counts and the closed-form model's.

#[cfg(test)]
mod tests {
    use crate::versioning::VersioningError;
    use crate::{ArchiveConfig, ByteVersionedArchive, EncodingStrategy, GeneratorForm};

    const STRATEGIES: [EncodingStrategy; 4] = [
        EncodingStrategy::BasicSec,
        EncodingStrategy::OptimizedSec,
        EncodingStrategy::ReversedSec,
        EncodingStrategy::NonDifferential,
    ];

    /// Five versions whose deltas touch 3, 8, 3 and 6 of the ten blocks.
    fn paper_versions() -> Vec<Vec<u8>> {
        let mut versions = vec![(0..28u8).map(|i| i.wrapping_mul(37) ^ 0xA5).collect::<Vec<u8>>()];
        let edits: [&[usize]; 4] = [
            &[0, 1, 2],
            &[0, 1, 2, 3, 4, 5, 6, 7],
            &[3, 4, 5],
            &[0, 2, 4, 6, 8, 9],
        ];
        for positions in edits {
            let mut next = versions.last().unwrap().clone();
            for &p in positions {
                // The last byte of each block, or the only one of block 9.
                next[(3 * p + 2).min(27)] ^= 0x5A;
            }
            versions.push(next);
        }
        versions
    }

    fn build(strategy: EncodingStrategy, form: GeneratorForm) -> (ByteVersionedArchive, Vec<Vec<u8>>) {
        let config = ArchiveConfig::new(20, 10, form, strategy).unwrap();
        let mut archive = ByteVersionedArchive::new(config).unwrap();
        let versions = paper_versions();
        archive.append_all(&versions).unwrap();
        (archive, versions)
    }

    #[test]
    fn every_strategy_recovers_every_version_exactly() {
        for strategy in STRATEGIES {
            for form in [GeneratorForm::Systematic, GeneratorForm::NonSystematic] {
                let (archive, versions) = build(strategy, form);
                for l in 1..=versions.len() {
                    let r = archive.retrieve_version(l).unwrap();
                    assert_eq!(r.data, versions[l - 1], "{strategy} {form} version {l}");
                    assert_eq!(r.version, l);
                    let p = archive.retrieve_prefix(l).unwrap();
                    assert_eq!(p.versions, versions[..l], "{strategy} {form} prefix {l}");
                }
            }
        }
    }

    #[test]
    fn io_reads_match_io_model_for_basic_sec() {
        let (archive, versions) = build(EncodingStrategy::BasicSec, GeneratorForm::NonSystematic);
        let model = archive.config().io_model();
        assert_eq!(archive.sparsity_profile(), &[3, 8, 3, 6]);
        let expect_version = [10, 16, 26, 32, 42];
        for l in 1..=versions.len() {
            let r = archive.retrieve_version(l).unwrap();
            assert_eq!(r.io_reads, expect_version[l - 1], "version {l}");
            assert_eq!(
                r.io_reads,
                model.version_reads(EncodingStrategy::BasicSec, archive.sparsity_profile(), l)
            );
            let p = archive.retrieve_prefix(l).unwrap();
            assert_eq!(
                p.io_reads,
                model.prefix_reads(EncodingStrategy::BasicSec, archive.sparsity_profile(), l)
            );
        }
        // Total for all 5 versions: 42 (vs 50 non-differential).
        assert_eq!(archive.retrieve_prefix(5).unwrap().io_reads, 42);
    }

    #[test]
    fn io_reads_match_io_model_for_optimized_sec() {
        let (archive, versions) = build(EncodingStrategy::OptimizedSec, GeneratorForm::NonSystematic);
        let model = archive.config().io_model();
        let expect_version = [10, 16, 10, 16, 10];
        for l in 1..=versions.len() {
            let r = archive.retrieve_version(l).unwrap();
            assert_eq!(r.io_reads, expect_version[l - 1], "version {l}");
            assert_eq!(
                r.io_reads,
                model.version_reads(EncodingStrategy::OptimizedSec, archive.sparsity_profile(), l)
            );
            let p = archive.retrieve_prefix(l).unwrap();
            assert_eq!(
                p.io_reads,
                model.prefix_reads(EncodingStrategy::OptimizedSec, archive.sparsity_profile(), l)
            );
        }
        assert_eq!(archive.retrieve_prefix(5).unwrap().io_reads, 42);
    }

    #[test]
    fn io_reads_match_io_model_for_reversed_and_non_differential() {
        let (rev, versions) = build(EncodingStrategy::ReversedSec, GeneratorForm::NonSystematic);
        let model = rev.config().io_model();
        for l in 1..=versions.len() {
            let r = rev.retrieve_version(l).unwrap();
            assert_eq!(
                r.io_reads,
                model.version_reads(EncodingStrategy::ReversedSec, rev.sparsity_profile(), l),
                "reversed version {l}"
            );
        }
        assert_eq!(rev.retrieve_version(5).unwrap().io_reads, 10);

        let (nd, _) = build(EncodingStrategy::NonDifferential, GeneratorForm::NonSystematic);
        for l in 1..=5 {
            assert_eq!(nd.retrieve_version(l).unwrap().io_reads, 10);
            assert_eq!(nd.retrieve_prefix(l).unwrap().io_reads, 10 * l);
        }
    }

    #[test]
    fn systematic_form_gives_same_read_counts_for_rate_half() {
        // Rate-1/2 code: systematic SEC exploits the same sparsity range as
        // non-systematic (paper §III-C), so the I/O counts agree.
        let (sys, _) = build(EncodingStrategy::BasicSec, GeneratorForm::Systematic);
        let (ns, _) = build(EncodingStrategy::BasicSec, GeneratorForm::NonSystematic);
        for l in 1..=5 {
            assert_eq!(
                sys.retrieve_version(l).unwrap().io_reads,
                ns.retrieve_version(l).unwrap().io_reads
            );
            assert_eq!(
                sys.retrieve_prefix(l).unwrap().io_reads,
                ns.retrieve_prefix(l).unwrap().io_reads
            );
        }
    }

    #[test]
    fn retrieval_error_paths() {
        let config =
            ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec).unwrap();
        let empty = ByteVersionedArchive::new(config).unwrap();
        assert!(matches!(
            empty.retrieve_version(1),
            Err(VersioningError::EmptyArchive)
        ));
        assert!(matches!(
            empty.retrieve_prefix(1),
            Err(VersioningError::EmptyArchive)
        ));

        let (archive, _) = build(EncodingStrategy::BasicSec, GeneratorForm::NonSystematic);
        assert!(matches!(
            archive.retrieve_version(0),
            Err(VersioningError::NoSuchVersion {
                requested: 0,
                available: 5
            })
        ));
        assert!(matches!(
            archive.retrieve_version(6),
            Err(VersioningError::NoSuchVersion { requested: 6, .. })
        ));
        assert!(matches!(
            archive.retrieve_prefix(6),
            Err(VersioningError::NoSuchVersion { requested: 6, .. })
        ));
    }

    #[test]
    fn identical_consecutive_versions_cost_no_delta_reads() {
        let (mut archive, versions) = build(EncodingStrategy::BasicSec, GeneratorForm::NonSystematic);
        let latest = versions.last().unwrap();
        archive.append_version(latest).unwrap();
        assert_eq!(archive.sparsity_profile(), &[3, 8, 3, 6, 0]);
        let r = archive.retrieve_version(6).unwrap();
        assert_eq!(&r.data, latest);
        // The same reads as version 5: the empty delta adds none.
        assert_eq!(r.io_reads, 42);
        assert_eq!(archive.retrieve_prefix(6).unwrap().io_reads, 42);
    }

    #[test]
    fn entries_read_counts() {
        let (archive, _) = build(EncodingStrategy::BasicSec, GeneratorForm::NonSystematic);
        assert_eq!(archive.retrieve_version(1).unwrap().entries_read, 1);
        assert_eq!(archive.retrieve_version(3).unwrap().entries_read, 3);
        assert_eq!(archive.retrieve_prefix(4).unwrap().entries_read, 4);
        let (opt, _) = build(EncodingStrategy::OptimizedSec, GeneratorForm::NonSystematic);
        // Version 4 starts from version 3's full copy.
        assert_eq!(opt.retrieve_version(4).unwrap().entries_read, 2);
        let (rev, _) = build(EncodingStrategy::ReversedSec, GeneratorForm::NonSystematic);
        // Latest version: only the full copy is touched.
        assert_eq!(rev.retrieve_version(5).unwrap().entries_read, 1);
        // Version 1: full copy + all four deltas.
        assert_eq!(rev.retrieve_version(1).unwrap().entries_read, 5);
    }
}
