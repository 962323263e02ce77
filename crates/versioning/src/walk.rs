//! The per-strategy retrieval traversal, shared by every byte-shard read
//! path.
//!
//! Three layers serve versions out of the same stored-entry layout — the
//! all-nodes-alive [`ByteVersionedArchive`](crate::ByteVersionedArchive),
//! the failure-aware `ByteDistributedStore` in `sec-store`, and the
//! concurrent `SecEngine` in `sec-engine`. They differ only in *how one
//! entry's blocks are fetched and decoded*; the strategy walk itself (find
//! the anchor, XOR deltas forward, or un-apply deltas backward from the
//! Reversed-SEC latest copy) is identical. This module holds that walk
//! once, parameterized over a per-entry read callback, so the strategy
//! semantics cannot drift between layers.
//!
//! Conventions shared by every caller:
//!
//! * `payload_at(i)` describes stored entry `i` of `stored_count` entries in
//!   entry order, with the Reversed-SEC full latest copy as the **final**
//!   element (the order [`ByteVersionedArchive::stored_entries`]
//!   (crate::ByteVersionedArchive::stored_entries) produces);
//! * the read callback receives the entry index and returns
//!   `(block_reads, decoded_data_shards)`; the `γ = 0` shortcut (an empty
//!   delta needs no reads) is provided by [`read_target`] returning `None`;
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
    /// The reconstructed data shards of the requested version.
    pub shards: ByteShards,
    /// Whether the walk started from the caller's decoded anchor instead of
    /// a stored full version.
    pub anchor_used: bool,
}

impl WalkOutcome {
    /// Starts an XOR chain at the decoded `anchor` when there is one (no
    /// reads), else at the stored full version in entry `full_idx`. Also
    /// returns the version the chain now holds (a full version stored in
    /// entry `i` is version `i + 1` under every strategy), which bounds the
    /// deltas left to apply.
    fn start<E, R>(
        anchor: Option<(usize, ByteShards)>,
        full_idx: usize,
        read_entry: &mut R,
    ) -> Result<(usize, Self), E>
    where
        R: FnMut(usize) -> Result<(usize, ByteShards), E>,
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
        let (io_reads, shards) = read_entry(full_idx)?;
        let chain = Self {
            io_reads,
            entries_read: 1,
            shards,
            anchor_used: false,
        };
        Ok((full_idx + 1, chain))
    }

    /// Reads the delta in entry `idx` and XORs it onto the chain.
    fn apply_delta<E, R>(&mut self, idx: usize, read_entry: &mut R) -> Result<(), E>
    where
        E: From<CodeError>,
        R: FnMut(usize) -> Result<(usize, ByteShards), E>,
    {
        let (reads, delta) = read_entry(idx)?;
        self.io_reads += reads;
        self.entries_read += 1;
        self.shards.xor_with(&delta)?;
        Ok(())
    }
}

/// Reconstructs version `l` by walking the stored entries under `strategy`,
/// fetching each touched entry through `read_entry`.
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
/// Propagates the first `read_entry` error; shard-shape mismatches during
/// delta application surface through `E: From<CodeError>`.
pub fn walk_version<E, P, R>(
    strategy: EncodingStrategy,
    stored_count: usize,
    payload_at: P,
    l: usize,
    anchor: Option<(usize, ByteShards)>,
    mut read_entry: R,
) -> Result<WalkOutcome, E>
where
    E: From<CodeError>,
    P: Fn(usize) -> StoredPayload,
    R: FnMut(usize) -> Result<(usize, ByteShards), E>,
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
                out.apply_delta(idx, &mut read_entry)?;
            }
            Ok(out)
        }
        EncodingStrategy::ReversedSec => {
            // The full latest copy is the final stored entry and entry
            // `v - 2` stores the delta to version `v`; un-apply the deltas
            // newest-first from the tail (or the latest copy) down to `l + 1`.
            let (held, mut out) = WalkOutcome::start(anchor, stored_count - 1, &mut read_entry)?;
            for idx in (l.saturating_sub(1)..held.saturating_sub(1)).rev() {
                out.apply_delta(idx, &mut read_entry)?;
            }
            Ok(out)
        }
    }
}

/// Maps one stored payload to its SEC read target, or `None` for the
/// `γ = 0` shortcut: an all-zero delta is known without reading a single
/// block, so the caller should return `(0, ByteShards::zeroed(k, shard_len))`
/// directly.
pub fn read_target(payload: StoredPayload) -> Option<ReadTarget> {
    match payload {
        StoredPayload::FullVersion { .. } => Some(ReadTarget::Full),
        StoredPayload::Delta { sparsity: 0, .. } => None,
        StoredPayload::Delta { sparsity, .. } => Some(ReadTarget::Sparse { gamma: sparsity }),
    }
}

/// Decodes one planned entry read: the gathered shares of a
/// [`ReadPlan`](sec_erasure::read_plan::ReadPlan) under its chosen method.
///
/// Shared by every read layer so the method dispatch (and the invariant that
/// sparse plans only arise for sparse targets) lives once.
///
/// # Errors
///
/// Propagates decode failures from the codec.
pub fn decode_planned(
    codec: &ByteCodec,
    method: DecodeMethod,
    target: ReadTarget,
    shares: &[(usize, &[u8])],
) -> Result<ByteShards, CodeError> {
    match method {
        DecodeMethod::SystematicDirect | DecodeMethod::Inversion => codec.decode_blocks(shares),
        DecodeMethod::SparseRecovery => match target {
            ReadTarget::Sparse { gamma } => codec.recover_sparse_blocks(shares, gamma),
            // audit: panic ok — plan_read returns SparseRecovery only for ReadTarget::Sparse
            ReadTarget::Full => unreachable!("sparse plans only arise for sparse targets"),
        },
    }
}

/// Copies decoded data shards out as a flat object of `object_len` bytes,
/// dropping the shard zero-padding — the one padding rule every read layer
/// shares.
pub fn trim_object(shards: &ByteShards, object_len: usize) -> Vec<u8> {
    let len = object_len.min(shards.total_len());
    // audit: panic ok — `len` is clamped to the shard total two lines up
    shards.as_bytes()[..len].to_vec()
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
/// to `object_len` bytes (dropping shard zero-padding).
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
    E: From<CodeError>,
    P: Fn(usize) -> StoredPayload,
    R: FnMut(usize) -> Result<(usize, ByteShards), E>,
{
    let trim = |shards: &ByteShards| trim_object(shards, object_len);
    match strategy {
        EncodingStrategy::NonDifferential => {
            let mut versions = Vec::with_capacity(l);
            let mut io_reads = 0;
            for idx in 0..l {
                let (reads, data) = read_entry(idx)?;
                io_reads += reads;
                versions.push(trim(&data));
            }
            Ok(PrefixWalkOutcome {
                io_reads,
                entries_read: l,
                versions,
                anchor_used: false,
            })
        }
        EncodingStrategy::BasicSec | EncodingStrategy::OptimizedSec => {
            let mut io_reads = 0;
            let mut versions: Vec<Vec<u8>> = Vec::with_capacity(l);
            let mut acc: Option<ByteShards> = None;
            for idx in 0..l {
                let (reads, decoded) = read_entry(idx)?;
                io_reads += reads;
                match payload_at(idx) {
                    StoredPayload::FullVersion { .. } => acc = Some(decoded),
                    StoredPayload::Delta { .. } => {
                        // audit: panic ok — archive invariant: a delta is always preceded by its base full version
                        let base = acc.as_mut().expect("delta entries follow their base version");
                        base.xor_with(&decoded)?;
                    }
                }
                // audit: panic ok — `acc` was set on this or an earlier iteration (entry 0 is full)
                versions.push(trim(acc.as_ref().expect("set above")));
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
                chain.apply_delta(idx, &mut read_entry)?;
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

    /// `walk_version` over `entries`, one block read per touched entry.
    fn walk(
        strategy: EncodingStrategy,
        entries: &Entries,
        l: usize,
        anchor: Option<(usize, ByteShards)>,
    ) -> WalkOutcome {
        walk_version::<CodeError, _, _>(
            strategy,
            entries.len(),
            |i| entries[i].0,
            l,
            anchor,
            |idx| Ok((1, entries[idx].1.clone())),
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
        walk_prefix::<CodeError, _, _>(
            strategy,
            entries.len(),
            |i| entries[i].0,
            l,
            1,
            tail,
            |idx| Ok((1, entries[idx].1.clone())),
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
    fn read_errors_propagate() {
        let entries = entries();
        let result = walk_version(
            EncodingStrategy::BasicSec,
            entries.len(),
            |i| entries[i].0,
            3,
            None,
            |idx| {
                if idx == 1 {
                    Err(CodeError::SparseRecoveryFailed { gamma: 1 })
                } else {
                    Ok((1, entries[idx].1.clone()))
                }
            },
        );
        assert!(matches!(
            result,
            Err(CodeError::SparseRecoveryFailed { gamma: 1 })
        ));
    }
}
