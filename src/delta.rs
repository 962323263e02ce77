//! What a stored delta is, seen through the facade: the `XOR` of two
//! consecutive versions, encoded as one more codeword, whose sparsity `γ`
//! is the number of `ceil(len / k)`-byte blocks it touches. The object
//! lengths here do not divide into `k` blocks, so the last block is padded.

#[cfg(test)]
mod tests {
    use crate::versioning::{StoredPayload, VersioningError};
    use crate::{ArchiveConfig, ByteVersionedArchive, EncodingStrategy, GeneratorForm};

    use StoredPayload::{Delta, FullVersion};

    fn archive(n: usize, k: usize, strategy: EncodingStrategy) -> ByteVersionedArchive {
        let config = ArchiveConfig::new(n, k, GeneratorForm::NonSystematic, strategy).unwrap();
        ByteVersionedArchive::new(config).unwrap()
    }

    /// Stored entry `idx` decoded from its first `k` blocks alone.
    fn decoded(a: &ByteVersionedArchive, idx: usize) -> Vec<u8> {
        let entry = a.stored_entries()[idx];
        let k = a.config().params().k;
        let shares: Vec<(usize, &[u8])> = (0..k).map(|p| (p, entry.shards.shard(p))).collect();
        let object_len = a.object_len().unwrap();
        a.codec().decode_blocks(&shares).unwrap().join(object_len)
    }

    fn xor(a: &[u8], b: &[u8]) -> Vec<u8> {
        a.iter().zip(b).map(|(x, y)| x ^ y).collect()
    }

    /// Blocks of `shard_len` bytes in which `bytes` is non-zero.
    fn support(bytes: &[u8], shard_len: usize) -> Vec<usize> {
        let blocks = bytes.chunks(shard_len).enumerate();
        blocks
            .filter(|(_, b)| b.iter().any(|&x| x != 0))
            .map(|(i, _)| i)
            .collect()
    }

    /// An 18-byte object: five 4-byte blocks for `k = 5`, the last one half
    /// padding.
    fn object() -> Vec<u8> {
        (0..18u8).map(|i| i.wrapping_mul(29).wrapping_add(3)).collect()
    }

    #[test]
    fn delta_between_and_apply_round_trip() {
        let old = object();
        let mut new = old.clone();
        new[5] ^= 0x90; // block 1
        new[17] ^= 0x0F; // block 4, next to the padding
        let mut a = archive(10, 5, EncodingStrategy::BasicSec);
        a.append_all(&[&old, &new]).unwrap();
        assert_eq!(a.sparsity_profile(), &[2]);
        assert_eq!(a.layout()[1], Delta { to: 2, sparsity: 2 });

        let d = decoded(&a, 1);
        assert_eq!(d, xor(&old, &new));
        assert_eq!(support(&d, a.shard_len()), vec![1, 4]);
        // Applied forwards it gives the newer version, backwards the older.
        assert_eq!(xor(&old, &d), new);
        assert_eq!(xor(&new, &d), old);
        assert_eq!(a.retrieve_version(2).unwrap().data, new);
    }

    #[test]
    fn identical_versions_give_empty_delta() {
        let x = vec![7u8; 18];
        for strategy in [EncodingStrategy::BasicSec, EncodingStrategy::OptimizedSec] {
            let mut a = archive(10, 5, strategy);
            a.append_all(&[&x, &x]).unwrap();
            assert_eq!(a.sparsity_profile(), &[0], "{strategy}");
            // γ = 0 is always exploitable: stored as a delta, never in full.
            assert_eq!(
                a.layout(),
                [FullVersion { version: 1 }, Delta { to: 2, sparsity: 0 }]
            );
            let entry = a.stored_entries()[1];
            assert_eq!(entry.shards.weight(), 0, "{strategy}: every coded block is zero");
            assert!(decoded(&a, 1).iter().all(|&b| b == 0));
            let r = a.retrieve_version(2).unwrap();
            assert_eq!(r.data, x);
            assert_eq!(
                r.io_reads, 5,
                "{strategy}: k reads for x1, none for the empty delta"
            );
        }
    }

    #[test]
    fn exploitability_threshold_matches_definition() {
        // Optimized SEC stores a delta exactly when 2γ < k.
        // k = 5: γ = 2 is exploitable (2·2 < 5), γ = 3 is not.
        let base = object();
        let mut two = base.clone();
        two[0] ^= 1;
        two[4] ^= 1;
        let mut three = two.clone();
        three[8] ^= 1;
        three[12] ^= 1;
        three[16] ^= 1;
        let mut a = archive(10, 5, EncodingStrategy::OptimizedSec);
        a.append_all(&[&base, &two, &three]).unwrap();
        assert_eq!(a.sparsity_profile(), &[2, 3]);
        let want = [
            FullVersion { version: 1 },
            Delta { to: 2, sparsity: 2 },
            FullVersion { version: 3 },
        ];
        assert_eq!(a.layout(), want);
        let model = a.config().io_model();
        assert_eq!((model.delta_reads(2), model.delta_reads(3)), (4, 5));

        // k = 4: γ = 2 is not exploitable (2·2 = 4).
        let base4 = vec![0u8; 16];
        let mut two4 = base4.clone();
        two4[0] = 1;
        two4[4] = 1;
        let mut a = archive(8, 4, EncodingStrategy::OptimizedSec);
        a.append_all(&[&base4, &two4]).unwrap();
        assert_eq!(a.sparsity_profile(), &[2]);
        assert_eq!(
            a.layout(),
            [FullVersion { version: 1 }, FullVersion { version: 2 }]
        );
    }

    #[test]
    fn mismatched_lengths_error() {
        let mut a = archive(10, 5, EncodingStrategy::BasicSec);
        assert_eq!(a.object_len(), None);
        a.append_version(&object()).unwrap();
        assert_eq!(a.object_len(), Some(18));
        for actual in [17, 19, 0] {
            assert!(matches!(
                a.append_version(&vec![1u8; actual]),
                Err(VersioningError::ObjectLengthMismatch { expected: 18, actual: got }) if got == actual
            ));
        }
        // No delta was formed from a rejected version.
        assert_eq!(a.len(), 1);
        assert!(a.sparsity_profile().is_empty());
        let mut next = object();
        next[9] ^= 0xFF;
        a.append_version(&next).unwrap();
        assert_eq!(a.sparsity_profile(), &[1]);
    }

    #[test]
    fn sparsity_profile_of_sequence() {
        // The §III-D example profile {3, 8, 3, 6} on k = 10, with 28-byte
        // objects in 3-byte blocks. Each edit touches one byte of a block;
        // the first also touches a second byte of the same block, which
        // still counts once.
        let mut versions = vec![(1..=28u8).collect::<Vec<u8>>()];
        let edits: [&[usize]; 4] = [
            &[0, 1, 2],
            &[0, 1, 2, 3, 4, 5, 6, 7],
            &[3, 4, 5],
            &[0, 2, 4, 6, 8, 9],
        ];
        for (i, positions) in edits.into_iter().enumerate() {
            let mut next = versions.last().unwrap().clone();
            for &p in positions {
                next[3 * p] ^= 0x5A;
            }
            if i == 0 {
                next[1] ^= 0x11;
            }
            versions.push(next);
        }
        for strategy in [
            EncodingStrategy::BasicSec,
            EncodingStrategy::OptimizedSec,
            EncodingStrategy::ReversedSec,
            EncodingStrategy::NonDifferential,
        ] {
            let mut a = archive(20, 10, strategy);
            a.append_all(&versions).unwrap();
            assert_eq!(a.shard_len(), 3);
            assert_eq!(a.sparsity_profile(), &[3, 8, 3, 6], "{strategy}");
        }
        // A single version has an empty profile.
        let mut single = archive(20, 10, EncodingStrategy::BasicSec);
        single.append_version(&versions[0]).unwrap();
        assert!(single.sparsity_profile().is_empty());
    }
}
