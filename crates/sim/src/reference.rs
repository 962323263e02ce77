//! The walk-free reference: what an archive must store for a plaintext
//! history, and the dumbest correct read of what it did store.
//!
//! Every read layer of the stack — the engine, the cluster and the byte
//! archive — traverses a version chain through the one shared
//! `sec_versioning::walk`, so a bug there is the same bug on every side of
//! a comparison between them. This module is the independent side. It is
//! written from the paper and the strategy and checkpoint documentation, and
//! shares no traversal, summed decode or accumulator with the walk:
//!
//! * [`expected_layout`] derives the stored layout, the `γ` profile and the
//!   checkpoint count from the plaintext versions alone;
//! * [`read_version`] and [`read_prefix`] read an archive's stored blocks
//!   straight-line. For each entry the strategy's chain names, in walk
//!   order, they plan that entry alone over its live positions, read the
//!   planned blocks, decode them into a fresh buffer and XOR the result
//!   into the answer. A `γ = 0` delta is known without a read and is
//!   skipped; the first entry no plan can read is
//!   [`VersioningError::Unrecoverable`]. Given an anchor — a decoded
//!   version, as a cache holds one — they read only the chain past it.
//!
//! The [`ByteVersionedArchive`] is used only as a block store: its
//! [`stored_entries`](ByteVersionedArchive::stored_entries), codec and
//! object length.

use sec_erasure::read_plan::{plan_read, DecodeMethod, ReadTarget};
use sec_erasure::ByteShards;
use sec_versioning::{
    ArchiveConfig, ByteEncodedEntry, BytePrefixRetrieval, ByteVersionRetrieval, ByteVersionedArchive,
    EncodingStrategy, StoredPayload, VersioningError,
};

/// What an archive must store for a history, derived from the plaintext.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpectedLayout {
    /// One payload per stored entry, in walk order: append order, with
    /// Reversed SEC's full copy of the latest version last.
    pub layout: Vec<StoredPayload>,
    /// `γ_2, …, γ_L`: the blocks each version changed.
    pub profile: Vec<usize>,
    /// The fulls the checkpoint policy forced (not the paper's own).
    pub checkpoints: usize,
}

/// `γ` of the delta from `old` to `new`: the number of `ceil(len / k)`-byte
/// blocks in which any byte changed.
fn block_sparsity(old: &[u8], new: &[u8], k: usize) -> usize {
    let width = old.len().div_ceil(k).max(1);
    old.chunks(width)
        .zip(new.chunks(width))
        .filter(|(old, new)| old != new)
        .count()
}

/// The layout `config` stores for `versions`:
///
/// * Basic SEC stores `x_1` in full, then every delta — except that after
///   `spacing` consecutive deltas the next version is a checkpoint full;
/// * Optimized SEC does the same but also stores a full whenever `2γ ≥ k`
///   (the paper's rule; such a full is not a checkpoint);
/// * Reversed SEC stores every delta, then the latest version in full;
/// * NonDifferential stores every version in full.
pub fn expected_layout<V: AsRef<[u8]>>(config: ArchiveConfig, versions: &[V]) -> ExpectedLayout {
    let k = config.params().k;
    let profile: Vec<usize> = (versions.windows(2))
        .map(|pair| block_sparsity(pair[0].as_ref(), pair[1].as_ref(), k))
        .collect();
    let spacing = config.checkpoints().spacing;
    let (mut layout, mut checkpoints, mut run) = (Vec::new(), 0, 0);
    for version in 1..=versions.len() {
        let gamma = if version == 1 { 0 } else { profile[version - 2] };
        let full = StoredPayload::FullVersion { version };
        let stored = match config.strategy() {
            EncodingStrategy::ReversedSec if version == 1 => continue,
            EncodingStrategy::NonDifferential => full,
            _ if version == 1 => full,
            EncodingStrategy::OptimizedSec if 2 * gamma >= k => full,
            EncodingStrategy::BasicSec | EncodingStrategy::OptimizedSec
                if spacing > 0 && run == spacing =>
            {
                checkpoints += 1;
                full
            }
            _ => StoredPayload::Delta {
                to: version,
                sparsity: gamma,
            },
        };
        run = if stored == full { 0 } else { run + 1 };
        layout.push(stored);
    }
    if config.strategy() == EncodingStrategy::ReversedSec && !versions.is_empty() {
        layout.push(StoredPayload::FullVersion {
            version: versions.len(),
        });
    }
    ExpectedLayout {
        layout,
        profile,
        checkpoints,
    }
}

/// Reads version `l` (1-based) of `archive`, reading block `position` of
/// stored entry `entry` only where `live(entry, position)` holds.
///
/// `anchor` is a decoded version `(a, x_a)` the read may start from, as a
/// cached version starts a cached read: at or below `l` for Basic, Optimized
/// and NonDifferential, at or above it for Reversed. The read then reads
/// only the chain past it — the entries producing versions above `a`
/// (below it for Reversed) — and starts from `x_a` unless that chain still
/// holds a full version, which it then starts from instead.
///
/// # Errors
///
/// [`VersioningError::EmptyArchive`] and [`VersioningError::NoSuchVersion`]
/// for a bad `l`, [`VersioningError::Unrecoverable`] for the first entry of
/// the chain that no plan can read, and a code error if a decode fails.
///
/// # Panics
///
/// If `anchor` lies on the wrong side of `l`.
pub fn read_version<L>(
    archive: &ByteVersionedArchive,
    l: usize,
    anchor: Option<(usize, &[u8])>,
    live: L,
) -> Result<ByteVersionRetrieval, VersioningError>
where
    L: Fn(usize, usize) -> bool,
{
    check_version(archive, l)?;
    let entries = archive.stored_entries();
    let chain = version_chain(archive, &entries, l);
    let (chain, mut answer) = start(archive, &entries, chain, l, anchor);
    let mut io_reads = 0;
    for &idx in &chain {
        if let Some((decoded, reads)) = read_entry(archive, &entries, idx, &live)? {
            answer.xor_with(&decoded)?;
            io_reads += reads;
        }
    }
    Ok(ByteVersionRetrieval {
        version: l,
        data: answer.join(archive.object_len().unwrap_or(0)),
        io_reads,
        entries_read: chain.len(),
    })
}

/// Reads versions `1..=l` of `archive`, each stored entry of the chain read
/// once, under the same live set and errors as [`read_version`]. Basic,
/// Optimized and NonDifferential read the entries storing versions `1..=l`
/// in order, a full restarting the answer; Reversed SEC reads the chain to
/// version 1, producing the versions newest first.
///
/// `tail` is Reversed SEC's anchor, as for [`read_version`]: a decoded
/// version at or above `l` the chain to version 1 may start from. Every
/// version of a forward prefix is an output, so no anchor spares a forward
/// read and `tail` must be `None` there.
///
/// # Errors
///
/// As for [`read_version`].
///
/// # Panics
///
/// If `tail` is given for a forward strategy or lies below `l`.
pub fn read_prefix<L>(
    archive: &ByteVersionedArchive,
    l: usize,
    tail: Option<(usize, &[u8])>,
    live: L,
) -> Result<BytePrefixRetrieval, VersioningError>
where
    L: Fn(usize, usize) -> bool,
{
    check_version(archive, l)?;
    let entries = archive.stored_entries();
    let reversed = archive.config().strategy() == EncodingStrategy::ReversedSec;
    assert!(
        reversed || tail.is_none(),
        "a forward prefix reads from no anchor"
    );
    // Forward, the entry storing each version: its full copy or its delta.
    let stored = |v| {
        full_of(&entries, v)
            .or_else(|| delta_to(&entries, v))
            .expect("stored")
    };
    let chain: Vec<usize> = if reversed {
        version_chain(archive, &entries, 1)
    } else {
        (1..=l).map(stored).collect()
    };
    let (chain, mut answer) = start(archive, &entries, chain, l, tail);
    let object_len = archive.object_len().unwrap_or(0);
    let mut versions = Vec::new();
    if let Some((a, _)) = tail.filter(|&(a, _)| a == l) {
        versions.push((a, answer.join(object_len)));
    }
    let mut io_reads = 0;
    for &idx in &chain {
        let payload = entries[idx].payload;
        if let Some((decoded, reads)) = read_entry(archive, &entries, idx, &live)? {
            match payload {
                StoredPayload::FullVersion { .. } => answer = decoded,
                StoredPayload::Delta { .. } => answer.xor_with(&decoded)?,
            }
            io_reads += reads;
        }
        let held = held(payload, reversed);
        if held <= l {
            versions.push((held, answer.join(object_len)));
        }
    }
    versions.sort_by_key(|&(version, _)| version);
    Ok(BytePrefixRetrieval {
        versions: versions.into_iter().map(|(_, bytes)| bytes).collect(),
        io_reads,
        entries_read: chain.len(),
    })
}

/// The version the answer holds after applying an entry storing `payload`:
/// `x_v` after a full `x_v` or a forward delta `z_v`, `x_{v-1}` after
/// un-applying Reversed SEC's `z_v`.
fn held(payload: StoredPayload, reversed: bool) -> usize {
    match payload {
        StoredPayload::FullVersion { version } => version,
        StoredPayload::Delta { to, .. } if reversed => to - 1,
        StoredPayload::Delta { to, .. } => to,
    }
}

/// Where a read of `chain` toward version `l` starts: the whole chain from
/// an all-zero answer, or, from `anchor` `(a, x_a)`, only the entries that
/// produce versions past `a` — above it, or below it for Reversed SEC —
/// starting from `x_a` unless one of them is a full version.
fn start(
    archive: &ByteVersionedArchive,
    entries: &[&ByteEncodedEntry],
    chain: Vec<usize>,
    l: usize,
    anchor: Option<(usize, &[u8])>,
) -> (Vec<usize>, ByteShards) {
    let Some((a, bytes)) = anchor else {
        return (chain, zeroed(archive));
    };
    let reversed = archive.config().strategy() == EncodingStrategy::ReversedSec;
    assert!(
        if reversed { a >= l } else { a <= l },
        "an anchor at version {a} cannot start a read of version {l}"
    );
    let past = |idx: &usize| {
        let held = held(entries[*idx].payload, reversed);
        if reversed {
            held < a
        } else {
            held > a
        }
    };
    let chain: Vec<usize> = chain.into_iter().filter(past).collect();
    let restarts =
        (chain.iter()).any(|&idx| matches!(entries[idx].payload, StoredPayload::FullVersion { .. }));
    let answer = if restarts {
        zeroed(archive)
    } else {
        ByteShards::from_flat(bytes, archive.config().params().k)
    };
    (chain, answer)
}

/// The stored entries a read of version `l` touches, in walk order, found
/// by what they store rather than where:
///
/// * NonDifferential: the full `x_l`;
/// * Basic/Optimized: the newest stored full `x_b` with `b ≤ l`, then the
///   deltas `z_{b+1}, …, z_l`;
/// * Reversed: the full latest copy `x_L`, then `z_L, …, z_{l+1}`, each
///   un-applied in turn.
fn version_chain(archive: &ByteVersionedArchive, entries: &[&ByteEncodedEntry], l: usize) -> Vec<usize> {
    let full = |version| {
        full_of(entries, version).unwrap_or_else(|| panic!("the archive stores no full x_{version}"))
    };
    let delta = |to| delta_to(entries, to).unwrap_or_else(|| panic!("the archive stores no z_{to}"));
    match archive.config().strategy() {
        EncodingStrategy::NonDifferential => vec![full(l)],
        EncodingStrategy::ReversedSec => std::iter::once(full(archive.len()))
            .chain((l + 1..=archive.len()).rev().map(delta))
            .collect(),
        EncodingStrategy::BasicSec | EncodingStrategy::OptimizedSec => {
            let base = (1..=l)
                .rev()
                .find(|&version| full_of(entries, version).is_some())
                .unwrap_or_else(|| panic!("the archive stores no full version at or below {l}"));
            std::iter::once(full(base))
                .chain((base + 1..=l).map(delta))
                .collect()
        }
    }
}

/// The entry storing the full version `version`, if any.
fn full_of(entries: &[&ByteEncodedEntry], version: usize) -> Option<usize> {
    (entries.iter()).position(|entry| entry.payload == StoredPayload::FullVersion { version })
}

/// The entry storing the delta that produces version `to`, if any.
fn delta_to(entries: &[&ByteEncodedEntry], to: usize) -> Option<usize> {
    (entries.iter())
        .position(|entry| matches!(entry.payload, StoredPayload::Delta { to: t, .. } if t == to))
}

/// Plans, reads and decodes stored entry `idx` on its own, into a fresh
/// buffer: the decoded object and the blocks read, or `None` for a `γ = 0`
/// delta, which reads nothing.
fn read_entry(
    archive: &ByteVersionedArchive,
    entries: &[&ByteEncodedEntry],
    idx: usize,
    live: &impl Fn(usize, usize) -> bool,
) -> Result<Option<(ByteShards, usize)>, VersioningError> {
    let entry = entries[idx];
    let target = match entry.payload {
        StoredPayload::FullVersion { .. } => ReadTarget::Full,
        StoredPayload::Delta { sparsity: 0, .. } => return Ok(None),
        StoredPayload::Delta { sparsity, .. } => ReadTarget::Sparse { gamma: sparsity },
    };
    let codec = archive.codec();
    let positions: Vec<usize> = (0..codec.code().n()).filter(|&p| live(idx, p)).collect();
    let plan = plan_read(codec.code(), &positions, target)
        .map_err(|_| VersioningError::Unrecoverable { entry: idx })?;
    let shares: Vec<(usize, &[u8])> = (plan.nodes.iter())
        .map(|&position| (position, entry.shards.shard(position)))
        .collect();
    let decoded = match (plan.method, target) {
        (DecodeMethod::SparseRecovery, ReadTarget::Sparse { gamma }) => {
            codec.recover_sparse_blocks(&shares, gamma)?
        }
        _ => codec.decode_blocks(&shares)?,
    };
    Ok(Some((decoded, shares.len())))
}

/// Validates a 1-based version number against what `archive` holds.
fn check_version(archive: &ByteVersionedArchive, l: usize) -> Result<(), VersioningError> {
    if archive.is_empty() {
        return Err(VersioningError::EmptyArchive);
    }
    if l == 0 || l > archive.len() {
        return Err(VersioningError::NoSuchVersion {
            requested: l,
            available: archive.len(),
        });
    }
    Ok(())
}

/// An all-zero answer: `k` blocks of the archive's block length.
fn zeroed(archive: &ByteVersionedArchive) -> ByteShards {
    ByteShards::zeroed(archive.config().params().k, archive.shard_len())
}
