//! The walk-free reference (`sec_sim::reference`) against the byte archive
//! and the closed-form I/O model.
//!
//! The archive reads through `sec_versioning::walk`, the traversal the
//! engine serves from; the reference shares none of it. Seeded histories
//! over object lengths that do and do not divide into `k` blocks, under
//! every strategy, generator form and checkpoint spacing `0..=3`, must be
//! stored as the plaintext dictates and read identically by both — bytes,
//! block reads, entries touched and, under failures, the entry that cannot
//! be read. On healthy layouts the reference's reads are also
//! `IoModel`'s, read for read, and a read from an anchor reads only the
//! chain past it.

use sec_erasure::GeneratorForm;
use sec_sim::reference::{self, expected_layout};
use sec_sim::SimRng;
use sec_versioning::{
    ArchiveConfig, ByteVersionedArchive, CheckpointPolicy, EncodingStrategy, StoredPayload,
};

/// A history of `len`-byte objects: a random base, then 1 to 8 versions.
/// Each version XORs one non-zero mask into up to `k` random bytes or, with
/// `whole_blocks`, into one offset of `γ` consecutive blocks of `len / k`
/// bytes, `γ` drawn from `0..=k`. Edits may cancel, so `γ = 0` occurs.
fn history(rng: &mut SimRng, len: usize, k: usize, whole_blocks: bool) -> Vec<Vec<u8>> {
    let mut versions = vec![(0..len).map(|_| rng.next_u64() as u8).collect::<Vec<u8>>()];
    for _ in 0..=rng.gen_range(8) {
        let mut next = versions.last().expect("non-empty").clone();
        let mask = 1 + rng.gen_range(255) as u8;
        if whole_blocks {
            let (first, at) = (rng.gen_range(k), rng.gen_range(len / k));
            for block in (0..rng.gen_range(k + 1)).map(|i| (first + i) % k) {
                next[block * (len / k) + at] ^= mask;
            }
        } else {
            (0..=rng.gen_range(k)).for_each(|_| next[rng.gen_range(len)] ^= mask);
        }
        versions.push(next);
    }
    versions
}

fn filled(
    (n, k): (usize, usize),
    form: GeneratorForm,
    strategy: EncodingStrategy,
    spacing: usize,
    versions: &[Vec<u8>],
) -> ByteVersionedArchive {
    let config = ArchiveConfig::new(n, k, form, strategy)
        .unwrap()
        .with_checkpoints(CheckpointPolicy::every(spacing));
    let mut archive = ByteVersionedArchive::new(config).unwrap();
    archive.append_all(versions).unwrap();
    archive
}

/// Every set of at most `most` failed positions among `n`.
fn patterns(n: usize, most: usize) -> Vec<Vec<usize>> {
    (0u32..1 << n)
        .filter(|mask| mask.count_ones() as usize <= most)
        .map(|mask| (0..n).filter(|&p| mask >> p & 1 == 1).collect())
        .collect()
}

/// Asserts that the archive's stored layout is the one its plaintext
/// dictates, and that its reads of every version and prefix under `live` —
/// out-of-range numbers included — agree with the reference's, and with
/// the plaintext where they succeed.
fn assert_agrees(
    archive: &ByteVersionedArchive,
    versions: &[Vec<u8>],
    live: impl Fn(usize, usize) -> bool + Copy,
    case: &str,
) {
    let want = expected_layout(archive.config(), versions);
    assert_eq!(archive.layout(), want.layout.as_slice(), "{case}: layout");
    assert_eq!(archive.sparsity_profile(), want.profile.as_slice(), "{case}");
    assert_eq!(archive.checkpoints_written(), want.checkpoints, "{case}");
    for l in 0..=versions.len() + 1 {
        let want = reference::read_version(archive, l, None, live);
        assert_eq!(archive.retrieve_version_from(l, live), want, "{case} version {l}");
        if let Ok(want) = want {
            assert_eq!(want.data, versions[l - 1], "{case} version {l}: bytes");
        }
        let want = reference::read_prefix(archive, l, None, live);
        assert_eq!(archive.retrieve_prefix_from(l, live), want, "{case} prefix {l}");
        if let Ok(want) = want {
            assert_eq!(want.versions, versions[..l], "{case} prefix {l}: bytes");
        }
    }
}

/// The property that replaces the symbol-level oracle, which needed one
/// byte per block and every node alive. This one runs any object length,
/// every spacing and, for `(6, 3)`, all 42 failure patterns of up to
/// `n − k` positions plus the 15 of one more — applied alike to every entry
/// and rotated per entry, so entries differ in what they can read.
#[test]
fn byte_archive_matches_the_reference() {
    let mut rng = SimRng::new(0x5EC2_EFE2_E2CE);
    let config = ArchiveConfig::new(6, 3, GeneratorForm::Systematic, EncodingStrategy::BasicSec);
    let empty = ByteVersionedArchive::new(config.unwrap()).unwrap();
    assert_agrees(&empty, &[], |_, _| true, "empty");
    assert_eq!(patterns(6, 3).len(), 42);
    let mut cases = 0;
    for (n, k, histories) in [(12, 6, 6), (6, 3, 3)] {
        for _ in 0..histories {
            let len = 1 + rng.gen_range(8 * k);
            let versions = history(&mut rng, len, k, false);
            for (strategy, form, spacing) in configs() {
                let archive = filled((n, k), form, strategy, spacing, &versions);
                let case = format!("({n},{k}) {strategy} {form} spacing {spacing} len {len}");
                if n == 12 {
                    assert_agrees(&archive, &versions, |_, _| true, &case);
                    cases += 1;
                    continue;
                }
                for failed in patterns(n, n - k + 1) {
                    let alike = |_: usize, p: usize| !failed.contains(&p);
                    let rotated = |e: usize, p: usize| !failed.contains(&((p + e) % n));
                    let case = format!("{case} failed {failed:?}");
                    assert_agrees(&archive, &versions, alike, &case);
                    assert_agrees(&archive, &versions, rotated, &format!("{case} rotated"));
                    cases += 2;
                }
            }
        }
    }
    assert!(cases > 10_000, "{cases} cases");
}

/// Every strategy × generator form × checkpoint spacing `0..=3`.
fn configs() -> impl Iterator<Item = (EncodingStrategy, GeneratorForm, usize)> {
    let strategies = [
        EncodingStrategy::BasicSec,
        EncodingStrategy::OptimizedSec,
        EncodingStrategy::ReversedSec,
        EncodingStrategy::NonDifferential,
    ];
    let forms = [GeneratorForm::Systematic, GeneratorForm::NonSystematic];
    strategies.into_iter().flat_map(move |s| {
        forms
            .into_iter()
            .flat_map(move |f| (0..=3).map(move |c| (s, f, c)))
    })
}

/// The reference's block reads of every version and every prefix of a
/// healthy `archive`, asserted equal to what `IoModel` prices for its
/// layout.
fn healthy_reads(archive: &ByteVersionedArchive, case: &str) -> (Vec<usize>, Vec<usize>) {
    let model = archive.config().io_model();
    let (strategy, layout) = (archive.config().strategy(), archive.layout());
    (1..=archive.len())
        .map(|l| {
            let version = reference::read_version(archive, l, None, |_, _| true)
                .unwrap()
                .io_reads;
            let prefix = reference::read_prefix(archive, l, None, |_, _| true)
                .unwrap()
                .io_reads;
            let want_version = model.version_reads_for_layout(strategy, layout, l);
            assert_eq!(version, want_version, "{case} version {l}");
            let want_prefix = model.prefix_reads_for_layout(strategy, layout, l);
            assert_eq!(prefix, want_prefix, "{case} prefix {l}");
            (version, prefix)
        })
        .unzip()
}

/// On every healthy layout of `decode_once.rs`'s shapes — `(6, 3)`,
/// 17-byte blocks, `γ` from `0..=3`, every strategy in both forms with
/// spacing `0..=3` — the reference reads exactly what `IoModel` prices.
#[test]
fn reference_reads_equal_the_io_model_on_healthy_layouts() {
    let mut rng = SimRng::new(0xD3C0_DE0E);
    for _ in 0..8 {
        let versions = history(&mut rng, 3 * 17, 3, true);
        for (strategy, form, spacing) in configs() {
            let archive = filled((6, 3), form, strategy, spacing, &versions);
            healthy_reads(&archive, &format!("{strategy} {form} spacing {spacing}"));
        }
    }
}

/// A read from an anchor — a decoded version, as a cache holds one — reads
/// only the chain past it. From `x_a` toward `x_l` (`a ≤ l`, or `a ≥ l` for
/// Reversed SEC) it returns `x_l` and reads what a read of `x_l` reads
/// beyond a read of `x_a`, unless a stored full version lies past `a`, which
/// it then reads from instead, as from scratch. A Reversed prefix from a
/// tail `a ≥ l` reads what the whole prefix reads beyond `x_a`.
#[test]
fn anchored_reads_read_only_the_chain_past_the_anchor() {
    let mut rng = SimRng::new(0xA7C4_0125);
    for _ in 0..4 {
        let versions = history(&mut rng, 3 * 17, 3, true);
        for (strategy, form, spacing) in configs() {
            let archive = filled((6, 3), form, strategy, spacing, &versions);
            let case = format!("{strategy} {form} spacing {spacing}");
            let (scratch, prefixes) = healthy_reads(&archive, &case);
            let reversed = strategy == EncodingStrategy::ReversedSec;
            for l in 1..=versions.len() {
                let anchors = if reversed { l..=versions.len() } else { 1..=l };
                for a in anchors {
                    let anchor = Some((a, versions[a - 1].as_slice()));
                    let got = reference::read_version(&archive, l, anchor, |_, _| true).unwrap();
                    assert_eq!(got.data, versions[l - 1], "{case} version {l} from {a}");
                    let full_past = (archive.layout().iter()).any(|payload| {
                        matches!(payload, StoredPayload::FullVersion { version }
                            if !reversed && a < *version && *version <= l)
                    });
                    let want = if full_past {
                        scratch[l - 1]
                    } else {
                        scratch[l - 1].abs_diff(scratch[a - 1])
                    };
                    assert_eq!(got.io_reads, want, "{case} version {l} from {a}: reads");
                    if reversed {
                        let got = reference::read_prefix(&archive, l, anchor, |_, _| true).unwrap();
                        assert_eq!(got.versions, versions[..l], "{case} prefix {l} from {a}");
                        let want = prefixes[l - 1] - scratch[a - 1];
                        assert_eq!(got.io_reads, want, "{case} prefix {l} from {a}: reads");
                    }
                }
            }
        }
    }
}

/// The paper's §III-D example: a (20, 10) code, five versions with
/// sparsity profile {3, 8, 3, 6}. Basic SEC reads 10, 16, 26, 32, 42 blocks
/// per version and Optimized SEC 10, 16, 10, 16, 10; a whole-archive read
/// costs 42 under both (against 50 stored in full). Rate 1/2: both
/// generator forms read alike, through the reference and the archive.
#[test]
fn section_iii_d_example_reads_match_the_paper() {
    let mut versions = vec![(1..=10).map(|b| b * 11).collect::<Vec<u8>>()];
    for edited in [
        &[0, 1, 2][..],
        &[0, 1, 2, 3, 4, 5, 6, 7],
        &[3, 4, 5],
        &[0, 2, 4, 6, 8, 9],
    ] {
        let mut next = versions.last().expect("non-empty").clone();
        edited.iter().for_each(|&block| next[block] ^= 0x5A);
        versions.push(next);
    }
    for form in [GeneratorForm::Systematic, GeneratorForm::NonSystematic] {
        let reads = |strategy| {
            let archive = filled((20, 10), form, strategy, 0, &versions);
            assert_agrees(&archive, &versions, |_, _| true, &format!("{strategy} {form}"));
            healthy_reads(&archive, &format!("{strategy} {form}"))
        };
        let basic = vec![10, 16, 26, 32, 42];
        assert_eq!(reads(EncodingStrategy::BasicSec), (basic.clone(), basic));
        let (optimized, prefix) = reads(EncodingStrategy::OptimizedSec);
        assert_eq!((optimized, prefix[4]), (vec![10, 16, 10, 16, 10], 42));
        let flat = (vec![10; 5], vec![10, 20, 30, 40, 50]);
        assert_eq!(reads(EncodingStrategy::NonDifferential), flat);
        assert_eq!(
            reads(EncodingStrategy::ReversedSec).0[4],
            10,
            "the latest copy alone"
        );
    }
}
