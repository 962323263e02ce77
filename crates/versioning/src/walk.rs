//! The per-strategy retrieval traversal, shared by every byte-shard read
//! path.
//!
//! Two layers serve versions out of the same stored-entry layout — the
//! reference [`ByteVersionedArchive`](crate::ByteVersionedArchive), whose
//! in-memory blocks are read from whichever positions the caller's live set
//! admits, and the concurrent `SecEngine` in `sec-engine`, whose blocks sit
//! on storage nodes. They differ only in *how one entry's blocks are fetched*;
//! the strategy walk itself (find the anchor, XOR deltas forward, or
//! un-apply deltas backward from the Reversed-SEC latest copy) and the
//! decode of the fetched blocks ([`apply_planned`]) are identical. This
//! module holds both once, parameterized over a per-entry read callback, so
//! the strategy semantics cannot drift between layers.
//!
//! Conventions shared by every caller:
//!
//! * `payload_at(i)` describes stored entry `i` of `stored_count` entries in
//!   entry order, with the Reversed-SEC full latest copy as the **final**
//!   element (the order of [`ArchiveLedger::layout`](crate::ArchiveLedger::layout));
//! * the read callback is a *fold step*: it receives the entry index and the
//!   chain's accumulator — `None` at the start of a chain, where the entry
//!   is a full version to decode into a fresh buffer — and returns
//!   `(block_reads, accumulator)` with the entry applied. A delta recovers
//!   straight into the accumulator it was handed ([`apply_planned`]); the
//!   `γ = 0` shortcut (an empty delta needs no reads, [`read_target`]
//!   returning `None`) hands it back untouched ([`unchanged`]). The walk
//!   never materialises a delta and never XORs `k` blocks itself;
//! * version bounds are validated by the caller — the walk assumes
//!   `1 ≤ l ≤ L`.

use sec_erasure::read_plan::{DecodeMethod, ReadTarget};
use sec_erasure::{ByteCodec, ByteShards, CodeError};

use crate::archive::{EncodingStrategy, StoredPayload};

/// Result of one strategy walk: the I/O spent and what was reconstructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkOutcome {
    /// Total block reads spent.
    pub io_reads: usize,
    /// Number of stored entries that were touched.
    pub entries_read: usize,
    /// The reconstructed data shards of the requested version — the chain's
    /// accumulator, owned by the caller from here on (turn it into the flat
    /// object with [`ByteShards::into_flat`]).
    pub shards: ByteShards,
    /// Whether the walk started from the caller's decoded anchor instead of
    /// a stored full version.
    pub anchor_used: bool,
}

impl WalkOutcome {
    /// Starts a chain at the decoded `anchor` when there is one (no reads),
    /// else at the stored full version in entry `full_idx`. Also returns the
    /// version the chain now holds (a full version stored in entry `i` is
    /// version `i + 1` under every strategy), which bounds the deltas left
    /// to apply.
    fn start<E, R>(
        anchor: Option<(usize, ByteShards)>,
        full_idx: usize,
        read_entry: &mut R,
    ) -> Result<(usize, Self), E>
    where
        R: FnMut(usize, Option<ByteShards>) -> Result<(usize, ByteShards), E>,
    {
        if let Some((version, shards)) = anchor {
            let chain = Self {
                io_reads: 0,
                entries_read: 0,
                shards,
                anchor_used: true,
            };
            return Ok((version, chain));
        }
        let (io_reads, shards) = read_entry(full_idx, None)?;
        let chain = Self {
            io_reads,
            entries_read: 1,
            shards,
            anchor_used: false,
        };
        Ok((full_idx + 1, chain))
    }

    /// Folds the delta in entry `idx` into the chain: the accumulator goes
    /// through `read_entry` and comes back with the delta applied.
    fn apply_delta<E, R>(mut self, idx: usize, read_entry: &mut R) -> Result<Self, E>
    where
        R: FnMut(usize, Option<ByteShards>) -> Result<(usize, ByteShards), E>,
    {
        let (reads, shards) = read_entry(idx, Some(self.shards))?;
        self.shards = shards;
        self.io_reads += reads;
        self.entries_read += 1;
        Ok(self)
    }
}

/// Reconstructs version `l` by walking the stored entries under `strategy`,
/// folding each touched entry into the chain through `read_entry`.
///
/// `anchor` is an optional already-decoded version `(version, shards)` the
/// walk may start from instead of a stored full version: a base `≤ l` for
/// Basic/Optimized SEC (only the trailing deltas `z_{b+1}, …, z_l` are
/// read), a tail `≥ l` for Reversed SEC (only `z_{tail}, …, z_{l+1}` are
/// un-applied, never touching the stored latest copy), and the exact
/// version for NonDifferential. [`WalkOutcome::anchor_used`] reports
/// whether it served: a forward base is dropped when a stored **full
/// version** (a checkpoint or Optimized-threshold full) sits at or above it
/// — that entry is not a delta and cannot be XORed, and it is the closer
/// anchor anyway.
///
/// # Errors
///
/// Propagates the first `read_entry` error.
pub fn walk_version<E, P, R>(
    strategy: EncodingStrategy,
    stored_count: usize,
    payload_at: P,
    l: usize,
    anchor: Option<(usize, ByteShards)>,
    mut read_entry: R,
) -> Result<WalkOutcome, E>
where
    P: Fn(usize) -> StoredPayload,
    R: FnMut(usize, Option<ByteShards>) -> Result<(usize, ByteShards), E>,
{
    match strategy {
        EncodingStrategy::NonDifferential => {
            let exact = anchor.filter(|&(version, _)| version == l);
            WalkOutcome::start(exact, l - 1, &mut read_entry).map(|(_, out)| out)
        }
        EncodingStrategy::BasicSec | EncodingStrategy::OptimizedSec => {
            let full = (0..l)
                .rev()
                .find(|&idx| matches!(payload_at(idx), StoredPayload::FullVersion { .. }))
                // audit: panic ok — archive invariant: entry 0 always stores a full version
                .expect("the first entry always stores a full version");
            // Entry `v - 1` stores the delta to version `v`, so a base `b`
            // is followed by entries `b..l` — usable only while the latest
            // full lies below them.
            let base = anchor.filter(|&(version, _)| version > full);
            let (held, mut out) = WalkOutcome::start(base, full, &mut read_entry)?;
            for idx in held..l {
                out = out.apply_delta(idx, &mut read_entry)?;
            }
            Ok(out)
        }
        EncodingStrategy::ReversedSec => {
            // The full latest copy is the final stored entry and entry
            // `v - 2` stores the delta to version `v`; un-apply the deltas
            // newest-first from the tail (or the latest copy) down to `l + 1`.
            let (held, mut out) = WalkOutcome::start(anchor, stored_count - 1, &mut read_entry)?;
            for idx in (l.saturating_sub(1)..held.saturating_sub(1)).rev() {
                out = out.apply_delta(idx, &mut read_entry)?;
            }
            Ok(out)
        }
    }
}

/// Maps one stored payload to its SEC read target, or `None` for the
/// `γ = 0` shortcut: an all-zero delta is known without reading a single
/// block, so the caller should return `(0, unchanged(acc, k, shard_len))`
/// directly.
pub fn read_target(payload: StoredPayload) -> Option<ReadTarget> {
    match payload {
        StoredPayload::FullVersion { .. } => Some(ReadTarget::Full),
        StoredPayload::Delta { sparsity: 0, .. } => None,
        StoredPayload::Delta { sparsity, .. } => Some(ReadTarget::Sparse { gamma: sparsity }),
    }
}

/// The fold step of an all-zero delta: the accumulator itself, or `k` zero
/// shards of `shard_len` bytes when no chain has started.
pub fn unchanged(acc: Option<ByteShards>, k: usize, shard_len: usize) -> ByteShards {
    acc.unwrap_or_else(|| ByteShards::zeroed(k, shard_len))
}

/// Applies one planned entry read to the chain: decodes the gathered shares
/// of a [`ReadPlan`](sec_erasure::read_plan::ReadPlan) under its chosen
/// method and folds them into `acc`.
///
/// With no accumulator (the start of a chain) the decoded object *is* the
/// result. With one, a sparse plan recovers its `γ` blocks straight into it
/// ([`ByteCodec::recover_sparse_into`]); a delta whose plan fell back to a
/// full `k`-block read is dense by construction, so it is decoded and XORed
/// whole.
///
/// Shared by every read layer so the method dispatch (and the invariant that
/// sparse plans only arise for sparse targets) lives once.
///
/// # Errors
///
/// Propagates decode failures from the codec.
pub fn apply_planned(
    codec: &ByteCodec,
    method: DecodeMethod,
    target: ReadTarget,
    shares: &[(usize, &[u8])],
    acc: Option<ByteShards>,
) -> Result<ByteShards, CodeError> {
    match (method, target) {
        (DecodeMethod::SystematicDirect | DecodeMethod::Inversion, _) => {
            let decoded = codec.decode_blocks(shares)?;
            match acc {
                None => Ok(decoded),
                Some(mut acc) => acc.xor_with(&decoded).map(|()| acc),
            }
        }
        (DecodeMethod::SparseRecovery, ReadTarget::Sparse { gamma }) => {
            let shard_len = shares.first().map_or(0, |(_, shard)| shard.len());
            let mut acc = unchanged(acc, codec.code().k(), shard_len);
            codec.recover_sparse_into(shares, gamma, &mut acc)?;
            Ok(acc)
        }
        (DecodeMethod::SparseRecovery, ReadTarget::Full) => {
            // audit: panic ok — plan_read returns SparseRecovery only for ReadTarget::Sparse
            unreachable!("sparse plans only arise for sparse targets")
        }
    }
}

/// Result of a prefix walk: the I/O spent and versions `x_1, …, x_l`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixWalkOutcome {
    /// Total block reads spent.
    pub io_reads: usize,
    /// Number of stored entries that were touched.
    pub entries_read: usize,
    /// The reconstructed versions in order, trimmed to `object_len` bytes.
    pub versions: Vec<Vec<u8>>,
    /// Whether the walk started from the caller's decoded tail instead of
    /// the stored latest copy.
    pub anchor_used: bool,
}

/// Reconstructs versions `1..=l` in one pass under `strategy`, trimming each
/// to `object_len` bytes (dropping shard zero-padding). Every version is a
/// distinct output, so each is copied out of the chain's accumulator.
///
/// `tail` is an optional already-decoded version `(version, shards)` with
/// `version ≥ l`. Reversed SEC un-applies its deltas backwards from it
/// instead of reading the stored full latest copy; the forward strategies
/// read every stored entry below `l` regardless and ignore it.
///
/// # Errors
///
/// As for [`walk_version`].
pub fn walk_prefix<E, P, R>(
    strategy: EncodingStrategy,
    stored_count: usize,
    payload_at: P,
    l: usize,
    object_len: usize,
    tail: Option<(usize, ByteShards)>,
    mut read_entry: R,
) -> Result<PrefixWalkOutcome, E>
where
    P: Fn(usize) -> StoredPayload,
    R: FnMut(usize, Option<ByteShards>) -> Result<(usize, ByteShards), E>,
{
    // The one padding rule every read layer shares: a version is the first
    // `object_len` bytes of its data shards.
    let trim = |shards: &ByteShards| {
        let bytes = shards.as_bytes();
        bytes.get(..object_len).unwrap_or(bytes).to_vec()
    };
    match strategy {
        EncodingStrategy::NonDifferential
        | EncodingStrategy::BasicSec
        | EncodingStrategy::OptimizedSec => {
            let mut io_reads = 0;
            let mut versions: Vec<Vec<u8>> = Vec::with_capacity(l);
            let mut acc: Option<ByteShards> = None;
            for idx in 0..l {
                // A full version starts a new chain; a delta extends the
                // one its base version (entry 0 is always full) started.
                let chain = match payload_at(idx) {
                    StoredPayload::FullVersion { .. } => None,
                    StoredPayload::Delta { .. } => acc.take(),
                };
                let (reads, held) = read_entry(idx, chain)?;
                io_reads += reads;
                versions.push(trim(&held));
                acc = Some(held);
            }
            Ok(PrefixWalkOutcome {
                io_reads,
                entries_read: l,
                versions,
                anchor_used: false,
            })
        }
        EncodingStrategy::ReversedSec => {
            let (held, mut chain) = WalkOutcome::start(tail, stored_count - 1, &mut read_entry)?;
            let mut versions_rev = vec![trim(&chain.shards)];
            for idx in (0..held.saturating_sub(1)).rev() {
                chain = chain.apply_delta(idx, &mut read_entry)?;
                versions_rev.push(trim(&chain.shards));
            }
            versions_rev.reverse();
            versions_rev.truncate(l);
            Ok(PrefixWalkOutcome {
                io_reads: chain.io_reads,
                entries_read: chain.entries_read,
                versions: versions_rev,
                anchor_used: chain.anchor_used,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Entries = Vec<(StoredPayload, ByteShards)>;

    fn full(version: usize, byte: u8) -> (StoredPayload, ByteShards) {
        (
            StoredPayload::FullVersion { version },
            ByteShards::from_flat(&[byte], 1),
        )
    }

    fn delta(to: usize, byte: u8) -> (StoredPayload, ByteShards) {
        (
            StoredPayload::Delta {
                to,
                sparsity: usize::from(byte != 0),
            },
            ByteShards::from_flat(&[byte], 1),
        )
    }

    /// A tiny in-memory entry list driving the walk directly: k = 1 shard
    /// of one byte, so deltas are single XOR bytes and outcomes are easy to
    /// enumerate by hand. Versions: 5, 5^3 = 6, 6^1 = 7.
    fn entries() -> Entries {
        vec![full(1, 5), delta(2, 3), delta(3, 1)]
    }

    /// The same three versions as Reversed SEC stores them: z_2 = 3,
    /// z_3 = 1, full x_3 = 7 (final entry).
    fn reversed_entries() -> Entries {
        vec![delta(2, 3), delta(3, 1), full(3, 7)]
    }

    /// A decoded one-byte version to anchor a walk on.
    fn anchor(version: usize, byte: u8) -> Option<(usize, ByteShards)> {
        Some((version, ByteShards::from_flat(&[byte], 1)))
    }

    /// The fold step over `entries`: one block read per touched entry, a
    /// full version decoded afresh, a delta XORed into the accumulator.
    fn fold(
        entries: &Entries,
    ) -> impl FnMut(usize, Option<ByteShards>) -> Result<(usize, ByteShards), CodeError> + '_ {
        |idx, acc| match acc {
            None => Ok((1, entries[idx].1.clone())),
            Some(mut acc) => acc.xor_with(&entries[idx].1).map(|()| (1, acc)),
        }
    }

    /// `walk_version` over `entries`, one block read per touched entry.
    fn walk(
        strategy: EncodingStrategy,
        entries: &Entries,
        l: usize,
        anchor: Option<(usize, ByteShards)>,
    ) -> WalkOutcome {
        walk_version(
            strategy,
            entries.len(),
            |i| entries[i].0,
            l,
            anchor,
            fold(entries),
        )
        .unwrap()
    }

    /// `walk_prefix` over `entries` (one-byte objects), one block read per
    /// touched entry.
    fn prefix(
        strategy: EncodingStrategy,
        entries: &Entries,
        l: usize,
        tail: Option<(usize, ByteShards)>,
    ) -> PrefixWalkOutcome {
        walk_prefix(
            strategy,
            entries.len(),
            |i| entries[i].0,
            l,
            1,
            tail,
            fold(entries),
        )
        .unwrap()
    }

    #[test]
    fn forward_walk_xors_deltas_from_the_anchor() {
        let entries = entries();
        for (l, expect) in [(1, 5u8), (2, 6), (3, 7)] {
            let out = walk(EncodingStrategy::BasicSec, &entries, l, None);
            assert_eq!(out.shards.as_bytes(), &[expect], "version {l}");
            assert_eq!(out.entries_read, l);
            assert_eq!(out.io_reads, l);
            assert!(!out.anchor_used);
        }
    }

    #[test]
    fn reversed_walk_unapplies_from_the_latest_copy() {
        let entries = reversed_entries();
        for (l, expect, touched) in [(3, 7u8, 1), (2, 6, 2), (1, 5, 3)] {
            let out = walk(EncodingStrategy::ReversedSec, &entries, l, None);
            assert_eq!(out.shards.as_bytes(), &[expect], "version {l}");
            assert_eq!(out.entries_read, touched);
            assert!(!out.anchor_used);
        }
        let prefix = prefix(EncodingStrategy::ReversedSec, &entries, 2, None);
        assert_eq!(prefix.versions, vec![vec![5u8], vec![6]]);
        assert_eq!(prefix.entries_read, 3);
        assert!(!prefix.anchor_used);
    }

    #[test]
    fn prefix_walk_snapshots_every_intermediate_version() {
        let entries = entries();
        let out = prefix(EncodingStrategy::BasicSec, &entries, 3, None);
        assert_eq!(out.versions, vec![vec![5u8], vec![6], vec![7]]);
        assert_eq!(out.io_reads, 3);
        // The forward strategies read every entry below `l` regardless, so
        // a decoded tail is ignored, not misapplied.
        let anchored = prefix(EncodingStrategy::BasicSec, &entries, 3, anchor(3, 7));
        assert_eq!(anchored, out);
    }

    #[test]
    fn forward_walk_from_base_applies_only_trailing_deltas() {
        let entries = entries();
        // Base: decoded version 2 (value 6). Target 3 needs one delta.
        let out = walk(EncodingStrategy::BasicSec, &entries, 3, anchor(2, 6));
        assert!(out.anchor_used);
        assert_eq!(out.shards.as_bytes(), &[7]);
        assert_eq!(out.entries_read, 1);
        assert_eq!(out.io_reads, 1);
        // Base equal to the target: nothing to read at all.
        let out = walk(EncodingStrategy::BasicSec, &entries, 2, anchor(2, 6));
        assert!(out.anchor_used);
        assert_eq!(out.shards.as_bytes(), &[6]);
        assert_eq!(out.io_reads, 0);
        assert_eq!(out.entries_read, 0);
    }

    #[test]
    fn forward_walk_from_base_falls_back_when_a_full_interposes() {
        // Layout with a checkpoint: full x1=5, z2=3, full x3=7, z4=2.
        // Versions: 5, 6, 7, 5.
        let entries = vec![full(1, 5), delta(2, 3), full(3, 7), delta(4, 2)];
        // Cached base 1 is older than the stored full at entry 2: the walk
        // must anchor on the full, not XOR it onto the base.
        let out = walk(EncodingStrategy::OptimizedSec, &entries, 4, anchor(1, 5));
        assert!(!out.anchor_used, "full version inside the walk region");
        assert_eq!(out.shards.as_bytes(), &[5]);
        assert_eq!(out.entries_read, 2, "anchor full + one trailing delta");
        // A base past the checkpoint is used directly.
        let out = walk(EncodingStrategy::OptimizedSec, &entries, 4, anchor(3, 7));
        assert!(out.anchor_used);
        assert_eq!(out.shards.as_bytes(), &[5]);
        assert_eq!(out.entries_read, 1);
    }

    #[test]
    fn reversed_walk_from_tail_unapplies_only_newer_deltas() {
        let entries = reversed_entries();
        for (l, tail, expect, touched) in [(1, 3, 5u8, 2), (2, 3, 6, 1), (3, 3, 7, 0), (1, 2, 5, 1)] {
            let byte = if tail == 3 { 7 } else { 6 };
            let out = walk(EncodingStrategy::ReversedSec, &entries, l, anchor(tail, byte));
            assert!(out.anchor_used);
            assert_eq!(out.shards.as_bytes(), &[expect], "l={l} tail={tail}");
            assert_eq!(out.entries_read, touched, "l={l} tail={tail}");
            assert_eq!(out.io_reads, touched);
        }
        // Prefix from the tail: versions 1..=2 without reading the full copy.
        let prefix = prefix(EncodingStrategy::ReversedSec, &entries, 2, anchor(3, 7));
        assert!(prefix.anchor_used);
        assert_eq!(prefix.versions, vec![vec![5u8], vec![6]]);
        assert_eq!(prefix.entries_read, 2);
        assert_eq!(prefix.io_reads, 2);
    }

    #[test]
    fn non_differential_uses_only_an_exact_anchor() {
        let entries = vec![full(1, 5), full(2, 6)];
        let out = walk(EncodingStrategy::NonDifferential, &entries, 2, anchor(2, 6));
        assert!(out.anchor_used);
        assert_eq!((out.io_reads, out.shards.as_bytes()), (0, &[6u8][..]));
        let out = walk(EncodingStrategy::NonDifferential, &entries, 2, anchor(1, 5));
        assert!(!out.anchor_used, "no delta chain links version 1 to 2");
        assert_eq!((out.io_reads, out.shards.as_bytes()), (1, &[6u8][..]));
    }

    #[test]
    fn the_accumulator_handed_to_the_callback_is_the_one_returned() {
        // No hidden clone: the buffer the chain starts with is the buffer
        // every delta callback receives and the buffer the walk returns.
        let buffer = |shards: &ByteShards| shards.as_bytes().as_ptr();
        for (strategy, entries, l, start) in [
            (EncodingStrategy::BasicSec, entries(), 3, anchor(1, 5)),
            (EncodingStrategy::ReversedSec, reversed_entries(), 1, anchor(3, 7)),
            (EncodingStrategy::BasicSec, entries(), 3, None),
        ] {
            let mut held = start.as_ref().map(|(_, shards)| buffer(shards));
            let mut step = fold(&entries);
            let out = walk_version(
                strategy,
                entries.len(),
                |i| entries[i].0,
                l,
                start,
                |idx, acc| {
                    assert_eq!(acc.as_ref().map(buffer), held, "{strategy:?} entry {idx}");
                    let (reads, acc) = step(idx, acc)?;
                    held = Some(buffer(&acc));
                    Ok::<_, CodeError>((reads, acc))
                },
            )
            .unwrap();
            assert_eq!(Some(buffer(&out.shards)), held, "{strategy:?}");
            assert_eq!(out.shards.as_bytes(), &[if l == 3 { 7 } else { 5 }]);
            assert_eq!(out.entries_read, 2 + usize::from(!out.anchor_used));
        }
    }

    #[test]
    fn corrupt_block_length_is_an_error_not_a_panic() {
        // A stored block one byte short must surface as ShardSizeMismatch
        // from both decode methods, with or without a chain to fold into.
        use sec_erasure::{GeneratorForm, SecCode};
        let codec = ByteCodec::new(SecCode::cauchy(6, 3, GeneratorForm::NonSystematic).unwrap());
        let mut delta = ByteShards::zeroed(3, 8);
        delta.shards_mut().next().unwrap().fill(0x5A);
        let coded = codec.encode_blocks(&delta).unwrap();
        let short = &coded.shard(1)[1..];
        let shares = [(0, coded.shard(0)), (1, short), (2, coded.shard(2))];
        let sparse = ReadTarget::Sparse { gamma: 1 };
        for (method, target, shares) in [
            (DecodeMethod::Inversion, ReadTarget::Full, &shares[..]),
            (DecodeMethod::SparseRecovery, sparse, &shares[..2]),
        ] {
            for acc in [None, Some(ByteShards::zeroed(3, 8))] {
                assert!(
                    matches!(
                        apply_planned(&codec, method, target, shares, acc),
                        Err(CodeError::ShardSizeMismatch { .. })
                    ),
                    "{method:?}"
                );
            }
        }
    }

    #[test]
    fn read_errors_propagate() {
        let entries = entries();
        let mut step = fold(&entries);
        let result = walk_version(
            EncodingStrategy::BasicSec,
            entries.len(),
            |i| entries[i].0,
            3,
            None,
            |idx, acc| {
                if idx == 1 {
                    Err(CodeError::SparseRecoveryFailed { gamma: 1 })
                } else {
                    step(idx, acc)
                }
            },
        );
        assert!(matches!(
            result,
            Err(CodeError::SparseRecoveryFailed { gamma: 1 })
        ));
    }
}
