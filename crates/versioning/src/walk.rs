//! The per-strategy retrieval traversal, shared by every byte-shard read
//! path.
//!
//! Two layers serve versions out of the same stored-entry layout — the
//! reference [`ByteVersionedArchive`](crate::ByteVersionedArchive), whose
//! in-memory blocks are read from whichever positions the caller's live set
//! admits, and the concurrent `SecEngine` in `sec-engine`, whose blocks sit
//! on storage nodes. They differ only in *how one entry is planned and how
//! its blocks are fetched*; the strategy walk itself (find the anchor, XOR
//! deltas forward, or un-apply deltas backward from the Reversed-SEC latest
//! copy) and the decode of the fetched blocks are identical. This module
//! holds both once, parameterized over per-entry callbacks, so the strategy
//! semantics cannot drift between layers.
//!
//! A walk to one version ([`VersionWalk`]) runs in two phases:
//!
//! 1. **Plan** every entry it touches, in walk order, stopping at the first
//!    entry no plan can read ([`VersionWalk::plan`]).
//! 2. **Fold** ([`VersionWalk::fold`]): read every planned block in walk
//!    order, then decode. A read failure ends the walk where it happens and
//!    a plan failure is reported after the reads of the entries before it —
//!    the entry and the reads of a walk that planned, read and decoded one
//!    entry at a time. SEC is linear, so the coded form of
//!    `x_l = x_b ⊕ Σ z_j` is `c(x_b) ⊕ Σ c(z_j)`: every full-plan entry
//!    that reads the same position set — the full version starting the
//!    chain, each dense delta, any sparse delta whose plan fell back to `k`
//!    reads — is summed block by block and decoded once
//!    ([`Decode::decode_sum`]), straight into the chain's accumulator, while
//!    the sparse deltas recover into the same accumulator
//!    ([`Decode::recover_sparse`]).
//!
//! A prefix walk ([`walk_prefix`]) needs every version on the way, so it
//! folds entry by entry through a callback ([`apply_planned`]).
//!
//! Conventions shared by every caller:
//!
//! * `payload_at(i)` describes stored entry `i` of `stored_count` entries in
//!   entry order, with the Reversed-SEC full latest copy as the **final**
//!   element (the order of [`ArchiveLedger::layout`](crate::ArchiveLedger::layout));
//! * an all-zero (`γ = 0`) delta is known without reading a block: it is
//!   never planned ([`read_target`] returns `None`) and leaves the
//!   accumulator as it is ([`unchanged`]). The walk never materialises a
//!   delta and never XORs `k` blocks itself;
//! * version bounds are validated by the caller — the walk assumes
//!   `1 ≤ l ≤ L`.

use sec_erasure::read_plan::{DecodeMethod, ReadPlan, ReadTarget};
use sec_erasure::{ByteCodec, ByteShards, CodeError};

use crate::archive::{EncodingStrategy, StoredPayload};

/// The decodes a walk runs on the blocks it read — [`ByteCodec`] in every
/// read layer. Each folds into the chain's accumulator: `None` at the start
/// of a chain, where the result is a fresh buffer.
pub trait Decode {
    /// Decodes the XOR-sum of `codewords` — share lists read at the same
    /// positions — and XORs it onto `acc`, or returns it when `acc` is
    /// `None`.
    ///
    /// # Errors
    ///
    /// As for [`ByteCodec::decode_sum_into`].
    fn decode_sum(
        &self,
        codewords: &[&[(usize, &[u8])]],
        acc: Option<ByteShards>,
    ) -> Result<ByteShards, CodeError>;

    /// Recovers the `gamma`-sparse object `shares` encode and XORs it onto
    /// `acc` (onto zeros when `acc` is `None`).
    ///
    /// # Errors
    ///
    /// As for [`ByteCodec::recover_sparse_into`].
    fn recover_sparse(
        &self,
        shares: &[(usize, &[u8])],
        gamma: usize,
        acc: Option<ByteShards>,
    ) -> Result<ByteShards, CodeError>;
}

impl Decode for ByteCodec {
    fn decode_sum(
        &self,
        codewords: &[&[(usize, &[u8])]],
        acc: Option<ByteShards>,
    ) -> Result<ByteShards, CodeError> {
        match acc {
            Some(mut acc) => self.decode_sum_into(codewords, &mut acc, true).map(|()| acc),
            None => {
                let shard_len = codewords
                    .first()
                    .and_then(|shares| shares.first())
                    .map_or(0, |(_, shard)| shard.len());
                let mut out = ByteShards::zeroed(self.code().k(), shard_len);
                self.decode_sum_into(codewords, &mut out, false).map(|()| out)
            }
        }
    }

    fn recover_sparse(
        &self,
        shares: &[(usize, &[u8])],
        gamma: usize,
        acc: Option<ByteShards>,
    ) -> Result<ByteShards, CodeError> {
        let shard_len = shares.first().map_or(0, |(_, shard)| shard.len());
        let mut acc = unchanged(acc, self.code().k(), shard_len);
        self.recover_sparse_into(shares, gamma, &mut acc).map(|()| acc)
    }
}

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

/// One entry a version walk touches and the read planned for it.
#[derive(Debug)]
struct Step {
    idx: usize,
    /// The positions to read and, for a sparse plan, the `γ` to recover —
    /// `None` for a `γ = 0` delta, which reads nothing.
    read: Option<(Vec<usize>, Option<usize>)>,
}

/// A walk to one version with every entry it touches planned
/// ([`VersionWalk::plan`]), ready to be read and decoded
/// ([`VersionWalk::fold`]).
#[derive(Debug)]
pub struct VersionWalk<E> {
    steps: Vec<Step>,
    /// The first plan failure in walk order; planning stopped there.
    failure: Option<E>,
    /// The caller's decoded anchor, when the walk starts from it.
    anchor: Option<ByteShards>,
}

impl<E> VersionWalk<E> {
    /// Plans the walk to version `l` under `strategy`: every entry it
    /// touches, in walk order, through `plan_entry` — never called for a
    /// `γ = 0` delta — stopping at the first entry it cannot plan.
    ///
    /// `anchor` is an optional already-decoded version `(version, shards)`
    /// the walk may start from instead of a stored full version: a base
    /// `≤ l` for Basic/Optimized SEC (only the trailing deltas
    /// `z_{b+1}, …, z_l` are read), a tail `≥ l` for Reversed SEC (only
    /// `z_{tail}, …, z_{l+1}` are un-applied, never touching the stored
    /// latest copy), and the exact version for NonDifferential.
    /// [`WalkOutcome::anchor_used`] reports whether it served: a forward
    /// base is dropped when a stored **full version** (a checkpoint or
    /// Optimized-threshold full) sits at or above it — that entry is not a
    /// delta and cannot be XORed, and it is the closer anchor anyway.
    pub fn plan<P, Q>(
        strategy: EncodingStrategy,
        stored_count: usize,
        payload_at: P,
        l: usize,
        anchor: Option<(usize, ByteShards)>,
        mut plan_entry: Q,
    ) -> Self
    where
        P: Fn(usize) -> StoredPayload,
        Q: FnMut(usize, ReadTarget) -> Result<ReadPlan, E>,
    {
        let (anchor, entries) = chain(strategy, stored_count, &payload_at, l, anchor);
        let mut steps = Vec::with_capacity(entries.len());
        let mut failure = None;
        for idx in entries {
            let read = match read_target(payload_at(idx)) {
                None => None,
                Some(target) => match plan_entry(idx, target) {
                    Ok(plan) => Some((plan.nodes, sparse_gamma(plan.method, target))),
                    Err(error) => {
                        failure = Some(error);
                        break;
                    }
                },
            };
            steps.push(Step { idx, read });
        }
        Self {
            steps,
            failure,
            anchor,
        }
    }

    /// The block reads the plans call for, in walk order: every planned
    /// entry before a plan failure, with the positions it reads — what a
    /// caller must keep readable while [`VersionWalk::fold`] runs.
    pub fn reads(&self) -> impl Iterator<Item = (usize, &[usize])> {
        self.steps
            .iter()
            .filter_map(|step| step.read.as_ref().map(|(nodes, _)| (step.idx, nodes.as_slice())))
    }

    /// Reads every planned block through `read(entry, position)` in walk
    /// order, then folds the chain: each position set's full-plan entries
    /// are summed and decoded once, the first set (the chain start's)
    /// overwriting a fresh accumulator unless the walk starts from the
    /// caller's anchor, every later one accumulating; sparse entries recover
    /// into the accumulator as they come.
    ///
    /// # Errors
    ///
    /// The first `read` error in walk order; otherwise the plan failure
    /// planning stopped at; otherwise the first decode error.
    pub fn fold<'b, D, R>(self, decoder: &D, mut read: R) -> Result<WalkOutcome, E>
    where
        D: Decode,
        E: From<CodeError>,
        R: FnMut(usize, usize) -> Result<&'b [u8], E>,
    {
        let mut shares: Vec<(usize, &'b [u8])> =
            Vec::with_capacity(self.reads().map(|(_, nodes)| nodes.len()).sum());
        for (idx, nodes) in self.reads() {
            for &position in nodes {
                shares.push((position, read(idx, position)?));
            }
        }
        if let Some(failure) = self.failure {
            return Err(failure);
        }

        // One decode per position set, at the set's first entry in walk
        // order; the sparse entries in between.
        let mut order: Vec<FoldStep<'_, 'b>> = Vec::new();
        let mut rest = shares.as_slice();
        for (nodes, sparse) in self.steps.iter().filter_map(|step| step.read.as_ref()) {
            // audit: panic ok — the loop above pushed exactly `nodes.len()` shares per planned entry
            let (entry_shares, tail) = rest.split_at(nodes.len());
            rest = tail;
            if let Some(gamma) = *sparse {
                order.push(FoldStep::Sparse(entry_shares, gamma));
                continue;
            }
            let group = order.iter_mut().find_map(|step| match step {
                FoldStep::Sum(set, members) if *set == nodes.as_slice() => Some(members),
                _ => None,
            });
            match group {
                Some(members) => members.push(entry_shares),
                None => order.push(FoldStep::Sum(nodes, vec![entry_shares])),
            }
        }
        let anchor_used = self.anchor.is_some();
        let mut acc = self.anchor;
        for step in order {
            acc = Some(match step {
                FoldStep::Sum(_, members) => decoder.decode_sum(&members, acc)?,
                FoldStep::Sparse(entry_shares, gamma) => {
                    decoder.recover_sparse(entry_shares, gamma, acc)?
                }
            });
        }
        // Unreachable: a walk without an anchor starts at a stored full
        // version, whose group decodes first.
        let shards = acc.ok_or(CodeError::NotEnoughShares {
            needed: 1,
            available: 0,
        })?;
        Ok(WalkOutcome {
            io_reads: shares.len(),
            entries_read: self.steps.len(),
            shards,
            anchor_used,
        })
    }
}

/// One entry's shares: `(position, block)` in plan order.
type Shares<'b> = [(usize, &'b [u8])];

/// One decode of a walk's fold, in walk order.
enum FoldStep<'s, 'b> {
    /// The summed decode of every full-plan entry reading this position set.
    Sum(&'s [usize], Vec<&'s Shares<'b>>),
    /// The recovery of one sparse entry's shares at this `γ`.
    Sparse(&'s Shares<'b>, usize),
}

/// The entries a walk to version `l` touches, in walk order, and the anchor
/// it starts from when that serves ([`VersionWalk::plan`]).
fn chain<P>(
    strategy: EncodingStrategy,
    stored_count: usize,
    payload_at: &P,
    l: usize,
    anchor: Option<(usize, ByteShards)>,
) -> (Option<ByteShards>, Vec<usize>)
where
    P: Fn(usize) -> StoredPayload,
{
    match strategy {
        EncodingStrategy::NonDifferential => match anchor.filter(|&(version, _)| version == l) {
            Some((_, shards)) => (Some(shards), Vec::new()),
            None => (None, vec![l - 1]),
        },
        EncodingStrategy::BasicSec | EncodingStrategy::OptimizedSec => {
            let full = (0..l)
                .rev()
                .find(|&idx| matches!(payload_at(idx), StoredPayload::FullVersion { .. }))
                // audit: panic ok — archive invariant: entry 0 always stores a full version
                .expect("the first entry always stores a full version");
            // Entry `v - 1` stores the delta to version `v`, so a base `b`
            // is followed by entries `b..l` — usable only while the latest
            // full lies below them.
            match anchor.filter(|&(version, _)| version > full) {
                Some((base, shards)) => (Some(shards), (base..l).collect()),
                None => (None, (full..l).collect()),
            }
        }
        EncodingStrategy::ReversedSec => {
            // The full latest copy is the final stored entry and entry
            // `v - 2` stores the delta to version `v`; un-apply the deltas
            // newest-first from the tail (or the latest copy) down to `l + 1`.
            let (anchor, held, start) = match anchor {
                Some((tail, shards)) => (Some(shards), tail, None),
                None => (None, stored_count, Some(stored_count - 1)),
            };
            let deltas = (l.saturating_sub(1)..held.saturating_sub(1)).rev();
            (anchor, start.into_iter().chain(deltas).collect())
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

/// The `γ` a plan recovers, `None` for a full plan. Sparse plans only arise
/// for sparse targets, so every other pairing is a full `k`-block read.
fn sparse_gamma(method: DecodeMethod, target: ReadTarget) -> Option<usize> {
    match (method, target) {
        (DecodeMethod::SparseRecovery, ReadTarget::Sparse { gamma }) => Some(gamma),
        _ => None,
    }
}

/// Applies one planned entry read to the chain — the per-entry fold of a
/// prefix walk: decodes the gathered shares of a
/// [`ReadPlan`] under its chosen method and folds them into `acc`.
///
/// With no accumulator (the start of a chain) the decoded object *is* the
/// result. With one, a sparse plan recovers its `γ` blocks straight into it
/// ([`Decode::recover_sparse`]), and a full plan is decoded onto it
/// ([`Decode::decode_sum`] of one codeword, accumulating) — no `k`-block
/// temporary either way. A full plan is not a dense delta by construction:
/// under a systematic code a sparse delta whose live positions hold no
/// qualifying `2γ`-subset falls back to `k` reads too.
///
/// Shared by every read layer so the method dispatch lives once.
///
/// # Errors
///
/// Propagates decode failures from the codec.
pub fn apply_planned<D: Decode>(
    decoder: &D,
    method: DecodeMethod,
    target: ReadTarget,
    shares: &[(usize, &[u8])],
    acc: Option<ByteShards>,
) -> Result<ByteShards, CodeError> {
    match sparse_gamma(method, target) {
        Some(gamma) => decoder.recover_sparse(shares, gamma, acc),
        None => decoder.decode_sum(&[shares], acc),
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
/// Propagates the first `read_entry` error.
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
    use std::cell::{Cell, RefCell};

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

    /// XORs `byte` onto the accumulator in place, or starts a one-byte one.
    fn xor_onto(acc: Option<ByteShards>, byte: u8) -> ByteShards {
        match acc {
            Some(mut acc) => {
                acc.shard_mut(0)[0] ^= byte;
                acc
            }
            None => ByteShards::from_flat(&[byte], 1),
        }
    }

    /// A fake fold over one-byte objects stored as a repetition code: every
    /// position of an entry holds the object's byte, so any share decodes it
    /// and a sum of codewords is the XOR of their bytes. Records the member
    /// count of every summed decode and counts sparse recoveries.
    #[derive(Default)]
    struct Fake {
        sums: RefCell<Vec<usize>>,
        recoveries: Cell<usize>,
    }

    impl Decode for Fake {
        fn decode_sum(
            &self,
            codewords: &[&[(usize, &[u8])]],
            acc: Option<ByteShards>,
        ) -> Result<ByteShards, CodeError> {
            self.sums.borrow_mut().push(codewords.len());
            let byte = codewords.iter().fold(0, |sum, shares| sum ^ shares[0].1[0]);
            Ok(xor_onto(acc, byte))
        }

        fn recover_sparse(
            &self,
            shares: &[(usize, &[u8])],
            _gamma: usize,
            acc: Option<ByteShards>,
        ) -> Result<ByteShards, CodeError> {
            self.recoveries.set(self.recoveries.get() + 1);
            Ok(xor_onto(acc, shares[0].1[0]))
        }
    }

    /// A plan reading `nodes`, sparse or full.
    fn plan_at(nodes: &[usize], sparse: bool) -> ReadPlan {
        let method = if sparse {
            DecodeMethod::SparseRecovery
        } else {
            DecodeMethod::Inversion
        };
        ReadPlan {
            nodes: nodes.to_vec(),
            io_reads: nodes.len(),
            method,
        }
    }

    /// Plans every entry onto position 0: full for a full target, sparse for
    /// a delta.
    fn plan_one(_: usize, target: ReadTarget) -> Result<ReadPlan, CodeError> {
        Ok(plan_at(&[0], target != ReadTarget::Full))
    }

    /// Plans and folds the walk to version `l` over `entries` through
    /// `plan` and `fake`, every position of entry `i` reading its byte.
    fn walk_with<Q>(
        strategy: EncodingStrategy,
        entries: &Entries,
        l: usize,
        anchor: Option<(usize, ByteShards)>,
        fake: &Fake,
        plan: Q,
    ) -> Result<WalkOutcome, CodeError>
    where
        Q: FnMut(usize, ReadTarget) -> Result<ReadPlan, CodeError>,
    {
        VersionWalk::plan(strategy, entries.len(), |i| entries[i].0, l, anchor, plan)
            .fold(fake, |idx, _| Ok(entries[idx].1.shard(0)))
    }

    /// The walk to version `l` over `entries`, one block read per touched
    /// entry.
    fn walk(
        strategy: EncodingStrategy,
        entries: &Entries,
        l: usize,
        anchor: Option<(usize, ByteShards)>,
    ) -> WalkOutcome {
        walk_with(strategy, entries, l, anchor, &Fake::default(), plan_one).unwrap()
    }

    /// The per-entry fold step of a prefix walk over `entries`: one block
    /// read per touched entry, a full version decoded afresh, a delta XORed
    /// into the accumulator.
    fn fold(
        entries: &Entries,
    ) -> impl FnMut(usize, Option<ByteShards>) -> Result<(usize, ByteShards), CodeError> + '_ {
        |idx, acc| Ok((1, xor_onto(acc, entries[idx].1.as_bytes()[0])))
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
        // No hidden clone: the anchor's buffer is the buffer every decode
        // folds into and the buffer the walk returns.
        let buffer = |shards: &ByteShards| shards.as_bytes().as_ptr();
        for (strategy, entries, l, start) in [
            (EncodingStrategy::BasicSec, entries(), 3, anchor(1, 5)),
            (EncodingStrategy::ReversedSec, reversed_entries(), 1, anchor(3, 7)),
        ] {
            let held = start.as_ref().map(|(_, shards)| buffer(shards));
            let out = walk(strategy, &entries, l, start);
            assert_eq!(Some(buffer(&out.shards)), held, "{strategy:?}");
            assert_eq!(out.shards.as_bytes(), &[if l == 3 { 7 } else { 5 }]);
            assert_eq!(out.entries_read, 2);
        }
    }

    #[test]
    fn full_plan_entries_on_one_position_set_decode_once() {
        // Versions 5, 6, 7, 4, 12: every delta but z3 (γ = 1, sparse) is
        // dense and read like a full version, from the same three positions.
        let entries = vec![full(1, 5), delta(2, 3), delta(3, 1), delta(4, 3), delta(5, 8)];
        let dense = |idx: usize| idx != 2;
        for l in 1..=5 {
            let fake = Fake::default();
            let plan = |idx: usize, _| Ok(plan_at(&[1, 3, 4], !dense(idx)));
            let out = walk_with(EncodingStrategy::BasicSec, &entries, l, None, &fake, plan).unwrap();
            let want = [5u8, 6, 7, 4, 12][l - 1];
            assert_eq!(out.shards.as_bytes(), &[want], "version {l}");
            let full_plans = (0..l).filter(|&idx| dense(idx)).count();
            assert_eq!(*fake.sums.borrow(), vec![full_plans], "version {l}: one decode");
            assert_eq!(fake.recoveries.get(), usize::from(l >= 3), "version {l}");
            assert_eq!(out.io_reads, 3 * l, "version {l}");
        }
        // From a cached anchor the group accumulates onto it.
        let fake = Fake::default();
        let plan = |_: usize, _| Ok(plan_at(&[1, 3, 4], false));
        let out = walk_with(EncodingStrategy::BasicSec, &entries, 5, anchor(2, 6), &fake, plan).unwrap();
        assert_eq!((out.shards.as_bytes(), out.anchor_used), (&[12u8][..], true));
        assert_eq!(*fake.sums.borrow(), vec![3]);
    }

    #[test]
    fn differing_position_sets_decode_once_per_set() {
        // Dispersed slabs with different live sets: entries alternate
        // between two position sets, in walk order A B A B A.
        let entries = vec![full(1, 5), delta(2, 3), delta(3, 1), delta(4, 3), delta(5, 8)];
        let set = |idx: usize| {
            if idx.is_multiple_of(2) {
                [0, 1, 2]
            } else {
                [0, 2, 5]
            }
        };
        let fake = Fake::default();
        let plan = |idx: usize, _| Ok(plan_at(&set(idx), false));
        let out = walk_with(EncodingStrategy::BasicSec, &entries, 5, None, &fake, plan).unwrap();
        assert_eq!(out.shards.as_bytes(), &[12]);
        assert_eq!(
            *fake.sums.borrow(),
            vec![3, 2],
            "set A first (the chain start), then set B"
        );
        assert_eq!(out.io_reads, 15);
        // Reversed walks newest-first: the latest copy's set decodes first.
        let reversed = vec![delta(2, 3), delta(3, 1), delta(4, 3), delta(5, 8), full(5, 12)];
        let fake = Fake::default();
        let plan = |idx: usize, _| Ok(plan_at(&set(idx), false));
        let out = walk_with(EncodingStrategy::ReversedSec, &reversed, 1, None, &fake, plan).unwrap();
        assert_eq!(out.shards.as_bytes(), &[5]);
        assert_eq!(*fake.sums.borrow(), vec![3, 2]);
    }

    /// Which entry failed, and how — the engine's `Unrecoverable { entry }`
    /// in miniature.
    #[derive(Debug, PartialEq)]
    enum Failed {
        Plan(usize),
        Read(usize),
        Code(CodeError),
    }

    impl From<CodeError> for Failed {
        fn from(error: CodeError) -> Self {
            Failed::Code(error)
        }
    }

    #[test]
    fn plan_and_read_failures_report_the_per_entry_walks_entry() {
        // Five entries, every one a full plan (one group): a walk that
        // planned, read and decoded entry by entry stops at the first entry
        // in walk order that cannot be planned or read, having read every
        // entry before it.
        let forward = vec![full(1, 5), delta(2, 3), delta(3, 1), delta(4, 3), delta(5, 8)];
        let reversed = vec![delta(2, 3), delta(3, 1), delta(4, 3), delta(5, 8), full(5, 12)];
        for (strategy, entries, walk_order) in [
            (EncodingStrategy::BasicSec, &forward, [0, 1, 2, 3, 4]),
            (EncodingStrategy::ReversedSec, &reversed, [4, 3, 2, 1, 0]),
        ] {
            for unplannable in [None, Some(1), Some(3)] {
                for unreadable in [None, Some(0), Some(2), Some(3)] {
                    let failing = |idx: usize| Some(idx) == unplannable || Some(idx) == unreadable;
                    let first = walk_order.iter().copied().find(|&idx| failing(idx));
                    // An entry is planned before it is read.
                    let want = first.map(|idx| {
                        if Some(idx) == unplannable {
                            Failed::Plan(idx)
                        } else {
                            Failed::Read(idx)
                        }
                    });
                    let mut reads = Vec::new();
                    let result = VersionWalk::plan(
                        strategy,
                        entries.len(),
                        |i| entries[i].0,
                        1 + 4 * usize::from(strategy == EncodingStrategy::BasicSec),
                        None,
                        |idx, _| match Some(idx) == unplannable {
                            true => Err(Failed::Plan(idx)),
                            false => Ok(plan_at(&[0, 1], false)),
                        },
                    )
                    .fold(&Fake::default(), |idx, _| {
                        reads.push(idx);
                        match Some(idx) == unreadable {
                            true => Err(Failed::Read(idx)),
                            false => Ok(entries[idx].1.shard(0)),
                        }
                    });
                    let case = format!("{strategy:?} plan {unplannable:?} read {unreadable:?}");
                    assert_eq!(result.as_ref().err(), want.as_ref(), "{case}");
                    // Two reads for every entry the per-entry walk would
                    // have read in full before it failed, and one for the
                    // entry whose read failed.
                    let read_before = walk_order
                        .iter()
                        .take_while(|&&idx| Some(idx) != first)
                        .flat_map(|&idx| [idx, idx]);
                    let failed_read = want.as_ref().and_then(|failed| match *failed {
                        Failed::Read(idx) => Some(idx),
                        _ => None,
                    });
                    let expect: Vec<usize> = read_before.chain(failed_read).collect();
                    assert_eq!(reads, expect, "{case}");
                }
            }
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
    fn a_dense_delta_folds_onto_the_accumulator_it_was_handed() {
        // The prefix walk's per-entry fold of a full plan: decoded straight
        // onto the accumulator, whose buffer comes back.
        use sec_erasure::{GeneratorForm, SecCode};
        for form in [GeneratorForm::Systematic, GeneratorForm::NonSystematic] {
            let codec = ByteCodec::new(SecCode::cauchy(6, 3, form).unwrap());
            let base = ByteShards::from_flat(&[0x11; 24], 3);
            let dense = ByteShards::from_flat(&(0..24).collect::<Vec<u8>>(), 3);
            let coded = codec.encode_blocks(&dense).unwrap();
            let shares: Vec<(usize, &[u8])> = [0, 1, 4].iter().map(|&i| (i, coded.shard(i))).collect();
            let mut want = base.clone();
            want.xor_with(&dense).unwrap();
            let held = base.as_bytes().as_ptr();
            let sparse = ReadTarget::Sparse { gamma: 1 };
            let out =
                apply_planned(&codec, DecodeMethod::Inversion, sparse, &shares, Some(base)).unwrap();
            assert_eq!(out, want, "{form}");
            assert_eq!(out.as_bytes().as_ptr(), held, "{form}");
        }
    }

    #[test]
    fn read_errors_propagate() {
        let entries = entries();
        let result = VersionWalk::plan(
            EncodingStrategy::BasicSec,
            entries.len(),
            |i| entries[i].0,
            3,
            None,
            plan_one,
        )
        .fold(&Fake::default(), |idx, _| {
            if idx == 1 {
                Err(CodeError::SparseRecoveryFailed { gamma: 1 })
            } else {
                Ok(entries[idx].1.shard(0))
            }
        });
        assert!(matches!(
            result,
            Err(CodeError::SparseRecoveryFailed { gamma: 1 })
        ));
    }
}
