//! The per-strategy retrieval traversal, shared by every byte-shard read
//! path. The [`ByteVersionedArchive`](crate::ByteVersionedArchive)
//! and the concurrent `SecEngine` in `sec-engine` differ only in how one
//! entry is planned and how its blocks are fetched, so the strategy walk
//! (find the anchor, XOR deltas forward, or un-apply them backward from the
//! Reversed-SEC latest copy) and the decodes live here once, parameterized
//! over closures, and cannot drift between layers. For the same reason
//! no layer can check the walk for another; `sec-sim`'s walk-free
//! reference, which reads each entry on its own, is what does.
//!
//! Every read — one version ([`VersionWalk`]) or the prefix `1..=l`
//! ([`PrefixWalk`]) — first **plans** every entry it touches, in walk order,
//! stopping at the first entry no plan can read, then **folds**: it holds
//! the planned blocks, reads them in walk order and decodes. A read failure
//! ends the walk where it happens and a plan failure is reported after the
//! reads of the entries before it — the entry and the reads of a walk that
//! planned, read and decoded one entry at a time.
//!
//! * A version fold holds every planned block at once and decodes once per
//!   position set. SEC is linear, so the coded form of `x_l = x_b ⊕ Σ z_j`
//!   is `c(x_b) ⊕ Σ c(z_j)`: every full-plan entry reading the same position
//!   set — the chain's full version, each dense delta, any sparse delta
//!   whose plan fell back to `k` reads — is summed and decoded once
//!   ([`Decode::decode_sum`]) into the chain's accumulator, while sparse
//!   deltas recover into it ([`Decode::recover_sparse`]).
//! * A prefix fold outputs every version on the way, so nothing is summed:
//!   it holds, reads and decodes one step at a time — a stored full
//!   restarting the accumulator — and copies each version out after its
//!   step, so a long prefix never holds every node it reads (for the
//!   engine, their read locks) at once.
//!
//! Conventions shared by every caller:
//!
//! * `payload_at(i)` describes stored entry `i` of `stored_count` in entry
//!   order, the Reversed-SEC full latest copy **last** (the order of
//!   [`ArchiveLedger::layout`](crate::ArchiveLedger::layout));
//! * a fold fetches blocks in two moves: `hold(reads)` keeps the blocks of
//!   `reads` — `(entry, positions)` pairs — readable (the engine's node read
//!   locks), and `read(&held, entry, position)` borrows one of them;
//! * an all-zero (`γ = 0`) delta is never planned or read and leaves the
//!   accumulator as it is; the walk never XORs `k` blocks itself;
//! * the caller validates `1 ≤ l ≤ L`.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use sec_erasure::read_plan::{DecodeMethod, ReadPlan, ReadTarget};
use sec_erasure::{ByteCodec, ByteShards, CodeError};

use crate::archive::{EncodingStrategy, StoredPayload};

/// What a [`Decode`] folds into.
#[derive(Debug)]
pub enum Accumulator {
    /// The start of a chain: the decode writes a fresh accumulator, into
    /// this recycled buffer (its old bytes overwritten) when there is one,
    /// into a new allocation when there is none.
    Start(Option<Vec<u8>>),
    /// The chain so far, which the decode XORs onto and hands back.
    Onto(ByteShards),
}

/// The decodes a walk runs on the blocks it read — [`ByteCodec`] in every
/// read layer. Each folds into the chain's [`Accumulator`] and returns it.
pub trait Decode {
    /// Decodes the XOR-sum of `codewords` — share lists read at the same
    /// positions — and XORs it onto `acc`, or writes it into a fresh
    /// accumulator at a chain's start.
    ///
    /// # Errors
    ///
    /// As for [`ByteCodec::decode_sum_into`].
    fn decode_sum(
        &self,
        codewords: &[&[(usize, &[u8])]],
        acc: Accumulator,
    ) -> Result<ByteShards, CodeError>;

    /// Recovers the `gamma`-sparse object `shares` encode and XORs it onto
    /// `acc` (onto zeros at a chain's start).
    ///
    /// # Errors
    ///
    /// As for [`ByteCodec::recover_sparse_into`].
    fn recover_sparse(
        &self,
        shares: &[(usize, &[u8])],
        gamma: usize,
        acc: Accumulator,
    ) -> Result<ByteShards, CodeError>;
}

impl Decode for ByteCodec {
    fn decode_sum(
        &self,
        codewords: &[&[(usize, &[u8])]],
        acc: Accumulator,
    ) -> Result<ByteShards, CodeError> {
        match acc {
            Accumulator::Onto(mut acc) => self.decode_sum_into(codewords, &mut acc, true).map(|()| acc),
            Accumulator::Start(spare) => {
                let shard_len = codewords
                    .first()
                    .and_then(|shares| shares.first())
                    .map_or(0, |(_, shard)| shard.len());
                let mut out = chain_start(self.code().k(), shard_len, spare);
                self.decode_sum_into(codewords, &mut out, false).map(|()| out)
            }
        }
    }

    fn recover_sparse(
        &self,
        shares: &[(usize, &[u8])],
        gamma: usize,
        acc: Accumulator,
    ) -> Result<ByteShards, CodeError> {
        let shard_len = shares.first().map_or(0, |(_, shard)| shard.len());
        let mut acc = match acc {
            Accumulator::Onto(acc) => acc,
            Accumulator::Start(spare) => chain_start(self.code().k(), shard_len, spare),
        };
        self.recover_sparse_into(shares, gamma, &mut acc).map(|()| acc)
    }
}

/// A chain's all-zero start: `k` shards of `shard_len` bytes, in `spare`'s
/// allocation when there is one.
fn chain_start(k: usize, shard_len: usize, spare: Option<Vec<u8>>) -> ByteShards {
    match spare {
        Some(buf) => ByteShards::zeroed_in(k, shard_len, buf),
        None => ByteShards::zeroed(k, shard_len),
    }
}

/// Result of a walk to one version: the I/O spent and what was
/// reconstructed.
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

/// One entry a walk touches and the read planned for it.
#[derive(Debug)]
struct Step {
    idx: usize,
    /// Whether the entry stores a full version, which a prefix fold decodes
    /// afresh.
    full: bool,
    /// The positions to read and, for a sparse plan, the `γ` to recover —
    /// `None` for a `γ = 0` delta, which reads nothing.
    read: Option<(Vec<usize>, Option<usize>)>,
}

/// A walk to one version with every entry it touches planned
/// ([`VersionWalk::plan`]), ready for [`VersionWalk::fold`].
#[derive(Debug)]
pub struct VersionWalk<E> {
    steps: Vec<Step>,
    /// The first plan failure in walk order; planning stopped there.
    failure: Option<E>,
    /// The caller's decoded anchor `(version, shards)`, when the walk
    /// starts from it.
    anchor: Option<(usize, ByteShards)>,
    /// A buffer to decode the chain's start into instead of allocating one
    /// ([`VersionWalk::recycling`]); unused when the walk starts from its
    /// anchor.
    spare: Option<Vec<u8>>,
}

/// A walk that reconstructs versions `1..=l`, every entry it touches
/// planned ([`PrefixWalk::plan`]), ready for [`PrefixWalk::fold`]. It plans
/// as a [`VersionWalk`] does but folds differently, so it is its own type.
#[derive(Debug)]
pub struct PrefixWalk<E> {
    walk: VersionWalk<E>,
    /// The last version the prefix returns.
    l: usize,
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
    /// delta and cannot be XORed, and it is the closer anchor anyway. A
    /// dropped anchor's buffer is what the chain's start is decoded into.
    pub fn plan<P, Q>(
        strategy: EncodingStrategy,
        stored_count: usize,
        payload_at: P,
        l: usize,
        anchor: Option<(usize, ByteShards)>,
        plan_entry: Q,
    ) -> Self
    where
        P: Fn(usize) -> StoredPayload,
        Q: FnMut(usize, ReadTarget) -> Result<ReadPlan, E>,
    {
        let (used, entries) = chain(strategy, stored_count, &payload_at, l, anchor_version(&anchor));
        Self::plan_entries(entries, anchor_or_spare(anchor, used), payload_at, plan_entry)
    }

    /// Gives a walk that decodes its chain's start (no anchor serves it)
    /// a buffer to decode it into instead of allocating one: a dropped
    /// anchor's, else what `spare` returns — the caller's recycled version
    /// buffer, if it has one. `spare` is not called when the walk starts
    /// from its anchor.
    #[must_use]
    pub fn recycling(mut self, spare: impl FnOnce() -> Option<Vec<u8>>) -> Self {
        if self.anchor.is_none() && self.spare.is_none() {
            self.spare = spare();
        }
        self
    }

    /// Plans `entries` in walk order, stopping at the first one
    /// `plan_entry` cannot plan.
    fn plan_entries<P, Q>(
        entries: Vec<usize>,
        (anchor, spare): (Option<(usize, ByteShards)>, Option<Vec<u8>>),
        payload_at: P,
        mut plan_entry: Q,
    ) -> Self
    where
        P: Fn(usize) -> StoredPayload,
        Q: FnMut(usize, ReadTarget) -> Result<ReadPlan, E>,
    {
        let mut steps = Vec::with_capacity(entries.len());
        let mut failure = None;
        for idx in entries {
            let target = read_target(payload_at(idx));
            let read = match target {
                None => None,
                Some(target) => match plan_entry(idx, target) {
                    Ok(plan) => Some((plan.nodes, sparse_gamma(plan.method, target))),
                    Err(error) => {
                        failure = Some(error);
                        break;
                    }
                },
            };
            let full = target == Some(ReadTarget::Full);
            steps.push(Step { idx, full, read });
        }
        Self {
            steps,
            failure,
            anchor,
            spare,
        }
    }

    /// Folds the chain: holds every planned block at once — a sum decodes
    /// several entries' blocks together — and reads each in walk order;
    /// then decodes each position set's full-plan entries as one sum, the
    /// first set (the chain start's) overwriting a fresh accumulator — the
    /// recycled buffer, when the walk has one — unless the walk starts from
    /// the caller's anchor, every later one accumulating; sparse entries
    /// recover into the accumulator as they come.
    ///
    /// # Errors
    ///
    /// The first `read` error in walk order; otherwise the plan failure
    /// planning stopped at; otherwise the first decode error.
    pub fn fold<D, H, L, R>(self, decoder: &D, mut hold: L, mut read: R) -> Result<WalkOutcome, E>
    where
        D: Decode,
        E: From<CodeError>,
        L: FnMut(&[(usize, &[usize])]) -> H,
        R: for<'h> FnMut(&'h H, usize, usize) -> Result<&'h [u8], E>,
    {
        let reads: Vec<(usize, &[usize])> = (self.steps.iter())
            .filter_map(|step| step.read.as_ref().map(|(nodes, _)| (step.idx, nodes.as_slice())))
            .collect();
        let held = hold(&reads);
        let mut shares = Vec::with_capacity(reads.iter().map(|(_, nodes)| nodes.len()).sum());
        for &(idx, nodes) in &reads {
            for &position in nodes {
                shares.push((position, read(&held, idx, position)?));
            }
        }
        if let Some(failure) = self.failure {
            return Err(failure);
        }

        // One decode per position set, at the set's first entry in walk
        // order; the sparse entries in between.
        let mut order: Vec<FoldStep<'_, '_>> = Vec::new();
        let mut rest = shares.as_slice();
        for step in &self.steps {
            let Some((nodes, sparse)) = &step.read else {
                continue;
            };
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
        let mut acc = match self.anchor {
            Some((_, shards)) => Accumulator::Onto(shards),
            None => Accumulator::Start(self.spare),
        };
        for step in order {
            acc = Accumulator::Onto(match step {
                FoldStep::Sum(_, members) => decoder.decode_sum(&members, acc)?,
                FoldStep::Sparse(entry_shares, gamma) => {
                    decoder.recover_sparse(entry_shares, gamma, acc)?
                }
            });
        }
        let Accumulator::Onto(shards) = acc else {
            return Err(no_chain().into());
        };
        Ok(WalkOutcome {
            io_reads: shares.len(),
            entries_read: self.steps.len(),
            shards,
            anchor_used,
        })
    }
}

impl<E> PrefixWalk<E> {
    /// Plans the walk that reconstructs versions `1..=l` under `strategy`,
    /// as [`VersionWalk::plan`] plans one version: entries `0..l` in order
    /// for Basic, Optimized and NonDifferential, and for Reversed SEC the
    /// chain of the walk to version 1.
    ///
    /// `tail` is an optional already-decoded version `(version, shards)`
    /// with `version ≥ l`. Reversed SEC un-applies its deltas backwards from
    /// it instead of reading the stored full latest copy; the forward
    /// strategies read every stored entry below `l` regardless and ignore
    /// it.
    pub fn plan<P, Q>(
        strategy: EncodingStrategy,
        stored_count: usize,
        payload_at: P,
        l: usize,
        tail: Option<(usize, ByteShards)>,
        plan_entry: Q,
    ) -> Self
    where
        P: Fn(usize) -> StoredPayload,
        Q: FnMut(usize, ReadTarget) -> Result<ReadPlan, E>,
    {
        let (used, entries) = match strategy {
            EncodingStrategy::ReversedSec => {
                chain(strategy, stored_count, &payload_at, 1, anchor_version(&tail))
            }
            _ => (false, (0..l).collect()),
        };
        let walk =
            VersionWalk::plan_entries(entries, anchor_or_spare(tail, used), payload_at, plan_entry);
        Self { walk, l }
    }

    /// Folds the chain step by step — every version is an output, so
    /// nothing is summed, and each step's blocks are held, read and decoded
    /// before the next step's are held: a stored full starts the chain
    /// afresh, a dense delta decodes onto it and a sparse one recovers into
    /// it. After each step the version the chain holds is copied out,
    /// trimmed to `object_len` bytes (dropping shard zero-padding), when it
    /// is one of `1..=l`.
    ///
    /// # Errors
    ///
    /// What a walk that planned, read and decoded one entry at a time meets
    /// first: a `read` or decode error where it happens, and the plan
    /// failure after every entry before it.
    pub fn fold<D, H, L, R>(
        self,
        decoder: &D,
        object_len: usize,
        mut hold: L,
        mut read: R,
    ) -> Result<PrefixWalkOutcome, E>
    where
        D: Decode,
        E: From<CodeError>,
        L: FnMut(&[(usize, &[usize])]) -> H,
        R: for<'h> FnMut(&'h H, usize, usize) -> Result<&'h [u8], E>,
    {
        let Self { walk, l } = self;
        // The one padding rule every read layer shares: a version is the
        // first `object_len` bytes of its data shards.
        let trim = |shards: &ByteShards| {
            let bytes = shards.as_bytes();
            bytes.get(..object_len).unwrap_or(bytes).to_vec()
        };
        let mut versions = Vec::with_capacity(l);
        let anchor_used = walk.anchor.is_some();
        let mut acc = walk.anchor.map(|(version, shards)| {
            if version <= l {
                versions.push((version, trim(&shards)));
            }
            shards
        });
        let onto = |acc: Option<ByteShards>| acc.map_or(Accumulator::Start(None), Accumulator::Onto);
        let mut io_reads = 0;
        for step in &walk.steps {
            if let Some((nodes, sparse)) = &step.read {
                let held = hold(&[(step.idx, nodes.as_slice())]);
                let shares = (nodes.iter())
                    .map(|&position| Ok((position, read(&held, step.idx, position)?)))
                    .collect::<Result<Vec<_>, E>>()?;
                io_reads += shares.len();
                acc = Some(match *sparse {
                    Some(gamma) => decoder.recover_sparse(&shares, gamma, onto(acc))?,
                    None => decoder.decode_sum(&[&shares], onto(if step.full { None } else { acc }))?,
                });
            }
            // Under every strategy, folding in entry `i` leaves the chain
            // holding version `i + 1`.
            let version = acc.as_ref().ok_or_else(no_chain)?;
            if step.idx < l {
                versions.push((step.idx + 1, trim(version)));
            }
        }
        if let Some(failure) = walk.failure {
            return Err(failure);
        }
        // Reversed SEC produces the versions newest-first.
        versions.sort_unstable_by_key(|&(version, _)| version);
        Ok(PrefixWalkOutcome {
            io_reads,
            entries_read: walk.steps.len(),
            versions: versions.into_iter().map(|(_, bytes)| bytes).collect(),
            anchor_used,
        })
    }
}

/// One entry's shares: `(position, block)` in plan order.
type Shares<'b> = [(usize, &'b [u8])];

/// The error of a fold left with no chain to fold into — unreachable: a
/// walk without an anchor starts at a stored full version.
fn no_chain() -> CodeError {
    CodeError::NotEnoughShares {
        needed: 1,
        available: 0,
    }
}

/// One decode of a version walk's fold, in walk order.
enum FoldStep<'s, 'b> {
    /// The summed decode of every full-plan entry reading this position set.
    Sum(&'s [usize], Vec<&'s Shares<'b>>),
    /// The recovery of one sparse entry's shares at this `γ`.
    Sparse(&'s Shares<'b>, usize),
}

/// The entries a walk to version `l` touches, in walk order, and whether
/// it starts from the anchor at version `anchor` ([`VersionWalk::plan`]).
fn chain<P>(
    strategy: EncodingStrategy,
    stored_count: usize,
    payload_at: &P,
    l: usize,
    anchor: Option<usize>,
) -> (bool, Vec<usize>)
where
    P: Fn(usize) -> StoredPayload,
{
    match strategy {
        EncodingStrategy::NonDifferential => match anchor.filter(|&version| version == l) {
            Some(_) => (true, Vec::new()),
            None => (false, vec![l - 1]),
        },
        EncodingStrategy::BasicSec | EncodingStrategy::OptimizedSec => {
            #[expect(
                clippy::expect_used,
                reason = "archive invariant: entry 0 always stores a full version"
            )]
            let full = (0..l)
                .rev()
                .find(|&idx| matches!(payload_at(idx), StoredPayload::FullVersion { .. }))
                .expect("the first entry always stores a full version");
            // Entry `v - 1` stores the delta to version `v`, so a base `b`
            // is followed by entries `b..l` — usable only while the latest
            // full lies below them.
            match anchor.filter(|&version| version > full) {
                Some(base) => (true, (base..l).collect()),
                None => (false, (full..l).collect()),
            }
        }
        EncodingStrategy::ReversedSec => {
            // The full latest copy is the final stored entry and entry
            // `v - 2` stores the delta to version `v`; un-apply the deltas
            // newest-first from the tail (or the latest copy) down to `l + 1`.
            let (held, start) = match anchor {
                Some(tail) => (tail, None),
                None => (stored_count, Some(stored_count - 1)),
            };
            let deltas = (l.saturating_sub(1)..held.saturating_sub(1)).rev();
            (anchor.is_some(), start.into_iter().chain(deltas).collect())
        }
    }
}

/// The version of a walk's anchor, if it has one.
fn anchor_version(anchor: &Option<(usize, ByteShards)>) -> Option<usize> {
    anchor.as_ref().map(|&(version, _)| version)
}

/// The anchor a walk starts from when `used`, else none — and then the
/// dropped anchor's buffer, emptied, for the chain's start to be decoded
/// into.
fn anchor_or_spare(
    anchor: Option<(usize, ByteShards)>,
    used: bool,
) -> (Option<(usize, ByteShards)>, Option<Vec<u8>>) {
    match anchor {
        Some(anchor) if used => (Some(anchor), None),
        dropped => (None, dropped.map(|(_, shards)| shards.into_flat(0))),
    }
}

/// Maps one stored payload to its SEC read target, or `None` for the
/// `γ = 0` shortcut: an all-zero delta is known without reading a single
/// block.
pub(crate) fn read_target(payload: StoredPayload) -> Option<ReadTarget> {
    match payload {
        StoredPayload::FullVersion { .. } => Some(ReadTarget::Full),
        StoredPayload::Delta { sparsity: 0, .. } => None,
        StoredPayload::Delta { sparsity, .. } => Some(ReadTarget::Sparse { gamma: sparsity }),
    }
}

/// The `γ` a plan recovers, `None` for a full plan. Sparse plans only arise
/// for sparse targets, so every other pairing is a full `k`-block read.
fn sparse_gamma(method: DecodeMethod, target: ReadTarget) -> Option<usize> {
    match (method, target) {
        (DecodeMethod::SparseRecovery, ReadTarget::Sparse { gamma }) => Some(gamma),
        _ => None,
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
    fn xor_onto(acc: Accumulator, byte: u8) -> ByteShards {
        match acc {
            Accumulator::Onto(mut acc) => {
                acc.shard_mut(0)[0] ^= byte;
                acc
            }
            Accumulator::Start(_) => ByteShards::from_flat(&[byte], 1),
        }
    }

    /// A fake fold over one-byte objects stored as a repetition code: every
    /// position of an entry holds the object's byte, so any share decodes it
    /// and a sum of codewords is the XOR of their bytes. Records the member
    /// count of every summed decode, the capacity of the buffer each chain
    /// start was handed (`None` for none), and counts sparse recoveries.
    #[derive(Default)]
    struct Fake {
        sums: RefCell<Vec<usize>>,
        starts: RefCell<Vec<Option<usize>>>,
        recoveries: Cell<usize>,
    }

    impl Decode for Fake {
        fn decode_sum(
            &self,
            codewords: &[&[(usize, &[u8])]],
            acc: Accumulator,
        ) -> Result<ByteShards, CodeError> {
            self.sums.borrow_mut().push(codewords.len());
            if let Accumulator::Start(spare) = &acc {
                self.starts.borrow_mut().push(spare.as_ref().map(Vec::capacity));
            }
            let byte = codewords.iter().fold(0, |sum, shares| sum ^ shares[0].1[0]);
            Ok(xor_onto(acc, byte))
        }

        fn recover_sparse(
            &self,
            shares: &[(usize, &[u8])],
            _gamma: usize,
            acc: Accumulator,
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
        VersionWalk::plan(strategy, entries.len(), |i| entries[i].0, l, anchor, plan).fold(
            fake,
            |_| entries,
            |entries, idx, _| Ok(entries[idx].1.shard(0)),
        )
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

    /// Plans and folds the prefix walk to version `l` over `entries` through
    /// `plan` and `fake`, recording the entry of every block read.
    fn prefix_with<Q>(
        strategy: EncodingStrategy,
        entries: &Entries,
        l: usize,
        tail: Option<(usize, ByteShards)>,
        fake: &Fake,
        plan: Q,
    ) -> (PrefixWalkOutcome, Vec<usize>)
    where
        Q: FnMut(usize, ReadTarget) -> Result<ReadPlan, CodeError>,
    {
        let mut reads = Vec::new();
        let out = PrefixWalk::plan(strategy, entries.len(), |i| entries[i].0, l, tail, plan)
            .fold(
                fake,
                1,
                |_| entries,
                |entries, idx, _| {
                    reads.push(idx);
                    Ok(entries[idx].1.shard(0))
                },
            )
            .unwrap();
        (out, reads)
    }

    /// The prefix walk to version `l` over `entries`, one block read per
    /// touched entry.
    fn prefix(
        strategy: EncodingStrategy,
        entries: &Entries,
        l: usize,
        tail: Option<(usize, ByteShards)>,
    ) -> PrefixWalkOutcome {
        prefix_with(strategy, entries, l, tail, &Fake::default(), plan_one).0
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
    fn a_stored_full_restarts_a_forward_prefix() {
        // A checkpoint mid-chain: full x1=5, z2=3, full x3=7, z4=2. Every
        // entry is a full plan on one position set, which a version fold
        // would sum; a prefix decodes each on its own, and the full at
        // entry 2 replaces the chain rather than XORing onto it.
        let entries = vec![full(1, 5), delta(2, 3), full(3, 7), delta(4, 2)];
        for strategy in [EncodingStrategy::BasicSec, EncodingStrategy::OptimizedSec] {
            let fake = Fake::default();
            let plan = |_: usize, _| Ok(plan_at(&[0, 2], false));
            let (out, _) = prefix_with(strategy, &entries, 4, None, &fake, plan);
            assert_eq!(
                out.versions,
                vec![vec![5u8], vec![6], vec![7], vec![5]],
                "{strategy:?}"
            );
            assert_eq!(
                *fake.sums.borrow(),
                vec![1; 4],
                "{strategy:?}: one decode per entry"
            );
            assert_eq!((out.io_reads, out.entries_read), (8, 4), "{strategy:?}");
            assert!(!out.anchor_used);
        }
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
    }

    #[test]
    fn a_reversed_prefix_from_a_cached_tail_skips_the_latest_copy() {
        // [z2=3, z3=1, x3=7]: from a decoded tail the prefix un-applies only
        // the deltas below it and never reads entry 2, the latest copy; a
        // tail equal to `l` is itself the prefix's last version.
        let entries = reversed_entries();
        let all = [vec![5u8], vec![6], vec![7]];
        for (l, tail, byte, walked) in [(2, 3, 7, vec![1, 0]), (3, 3, 7, vec![1, 0]), (2, 2, 6, vec![0])]
        {
            let (out, reads) = prefix_with(
                EncodingStrategy::ReversedSec,
                &entries,
                l,
                anchor(tail, byte),
                &Fake::default(),
                plan_one,
            );
            let case = format!("l={l} tail={tail}");
            assert!(out.anchor_used, "{case}");
            assert_eq!(out.versions, all[..l], "{case}");
            assert_eq!(reads, walked, "{case}");
            assert_eq!(
                (out.io_reads, out.entries_read),
                (walked.len(), walked.len()),
                "{case}"
            );
        }
        // Without a tail the walk starts at the latest copy.
        let (out, reads) = prefix_with(
            EncodingStrategy::ReversedSec,
            &entries,
            2,
            None,
            &Fake::default(),
            plan_one,
        );
        assert_eq!((out.versions, reads), (all[..2].to_vec(), vec![2, 1, 0]));
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
        let out = prefix(EncodingStrategy::NonDifferential, &entries, 2, None);
        assert_eq!((out.io_reads, out.versions), (2, vec![vec![5u8], vec![6]]));
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
        // Five entries, every one a full plan (one group in a version walk):
        // a walk that planned, read and decoded entry by entry stops at the
        // first entry in walk order that cannot be planned or read, having
        // read every entry before it. The prefix walks — the forward one
        // over a layout with a checkpoint, so that its order is not the
        // version walk's — report the same.
        let forward = vec![full(1, 5), delta(2, 3), delta(3, 1), delta(4, 3), delta(5, 8)];
        let checkpointed = vec![full(1, 5), delta(2, 3), full(3, 7), delta(4, 3), delta(5, 8)];
        let reversed = vec![delta(2, 3), delta(3, 1), delta(4, 3), delta(5, 8), full(5, 12)];
        for (strategy, entries, prefix, l, walk_order) in [
            (EncodingStrategy::BasicSec, &forward, false, 5, [0, 1, 2, 3, 4]),
            (
                EncodingStrategy::ReversedSec,
                &reversed,
                false,
                1,
                [4, 3, 2, 1, 0],
            ),
            (
                EncodingStrategy::BasicSec,
                &checkpointed,
                true,
                5,
                [0, 1, 2, 3, 4],
            ),
            (EncodingStrategy::ReversedSec, &reversed, true, 2, [4, 3, 2, 1, 0]),
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
                    let plan = |idx, _| match Some(idx) == unplannable {
                        true => Err(Failed::Plan(idx)),
                        false => Ok(plan_at(&[0, 1], false)),
                    };
                    let mut read_at = |idx: usize| {
                        reads.push(idx);
                        match Some(idx) == unreadable {
                            true => Err(Failed::Read(idx)),
                            false => Ok(()),
                        }
                    };
                    let hold = |_: &[(usize, &[usize])]| entries;
                    let (count, payload_at) = (entries.len(), |i: usize| entries[i].0);
                    let result = match prefix {
                        false => VersionWalk::plan(strategy, count, payload_at, l, None, plan)
                            .fold(&Fake::default(), hold, |entries, idx, _| {
                                read_at(idx).map(|()| entries[idx].1.shard(0))
                            })
                            .map(drop),
                        true => PrefixWalk::plan(strategy, count, payload_at, l, None, plan)
                            .fold(&Fake::default(), 1, hold, |entries, idx, _| {
                                read_at(idx).map(|()| entries[idx].1.shard(0))
                            })
                            .map(drop),
                    };
                    let case =
                        format!("{strategy:?} prefix {prefix} plan {unplannable:?} read {unreadable:?}");
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
        // from both decodes, with or without a chain to fold into.
        use sec_erasure::{GeneratorForm, SecCode};
        let codec = ByteCodec::new(SecCode::cauchy(6, 3, GeneratorForm::NonSystematic).unwrap());
        let mut delta = ByteShards::zeroed(3, 8);
        delta.shards_mut().next().unwrap().fill(0x5A);
        let coded = codec.encode_blocks(&delta).unwrap();
        let short = &coded.shard(1)[1..];
        let shares = [(0, coded.shard(0)), (1, short), (2, coded.shard(2))];
        for sparse in [false, true] {
            let starts = [None, Some(vec![0xEE; 100])].map(Accumulator::Start);
            for acc in starts
                .into_iter()
                .chain([Accumulator::Onto(ByteShards::zeroed(3, 8))])
            {
                let result = match sparse {
                    true => codec.recover_sparse(&shares[..2], 1, acc),
                    false => codec.decode_sum(&[&shares], acc),
                };
                assert!(
                    matches!(result, Err(CodeError::ShardSizeMismatch { .. })),
                    "sparse {sparse}"
                );
            }
        }
    }

    #[test]
    fn a_dense_delta_folds_onto_the_accumulator_it_was_handed() {
        // A prefix fold's full-plan delta: decoded straight onto the
        // accumulator, whose buffer comes back.
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
            let out = codec.decode_sum(&[&shares], Accumulator::Onto(base)).unwrap();
            assert_eq!(out, want, "{form}");
            assert_eq!(out.as_bytes().as_ptr(), held, "{form}");
        }
    }

    #[test]
    fn a_chain_start_decodes_into_the_recycled_buffer_it_was_handed() {
        // Whatever the buffer held, the start is overwritten: the same bytes
        // as a fresh decode, in the buffer's allocation.
        use sec_erasure::{GeneratorForm, SecCode};
        let codec = ByteCodec::new(SecCode::cauchy(6, 3, GeneratorForm::NonSystematic).unwrap());
        let object = ByteShards::from_flat(&(0..24).collect::<Vec<u8>>(), 3);
        let coded = codec.encode_blocks(&object).unwrap();
        let shares: Vec<(usize, &[u8])> = [1, 3, 5].iter().map(|&i| (i, coded.shard(i))).collect();
        let stale = vec![0xEE; 100];
        let held = stale.as_ptr();
        let out = codec
            .decode_sum(&[&shares], Accumulator::Start(Some(stale)))
            .unwrap();
        assert_eq!(out, object);
        assert_eq!(out.as_bytes().as_ptr(), held);

        // The walk hands its start the caller's buffer, or a dropped
        // anchor's, and asks the caller only when no anchor serves.
        let entries = vec![full(1, 5), delta(2, 3), full(3, 9), delta(4, 1)];
        let fold = |walk: VersionWalk<CodeError>| {
            let fake = Fake::default();
            let out = walk.fold(&fake, |_| &entries, |entries, idx, _| Ok(entries[idx].1.shard(0)));
            (out.unwrap().shards.as_bytes().to_vec(), fake.starts.take())
        };
        let plan = |l, anchor| {
            VersionWalk::plan(
                EncodingStrategy::BasicSec,
                4,
                |i| entries[i].0,
                l,
                anchor,
                plan_one,
            )
        };
        let spare = || Some(Vec::with_capacity(64));
        assert_eq!(fold(plan(2, None).recycling(spare)), (vec![6], vec![Some(64)]));
        assert_eq!(fold(plan(2, None).recycling(|| None)), (vec![6], vec![None]));
        let unasked = || -> Option<Vec<u8>> { panic!("the anchor serves") };
        assert_eq!(fold(plan(4, anchor(3, 9)).recycling(unasked)), (vec![8], vec![]));
        // Base 2 lies below the full version 3, so its buffer starts the
        // chain there.
        let dropped = Some((2, ByteShards::from_flat_in(&[6], 1, Vec::with_capacity(32))));
        assert_eq!(
            fold(plan(4, dropped).recycling(unasked)),
            (vec![8], vec![Some(32)])
        );
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
        .fold(
            &Fake::default(),
            |_| &entries,
            |entries, idx, _| {
                if idx == 1 {
                    Err(CodeError::SparseRecoveryFailed { gamma: 1 })
                } else {
                    Ok(entries[idx].1.shard(0))
                }
            },
        );
        assert!(matches!(
            result,
            Err(CodeError::SparseRecoveryFailed { gamma: 1 })
        ));
    }

    #[test]
    fn a_prefix_fold_holds_one_step_at_a_time() {
        // A version fold sums entries' blocks, so it holds every read at
        // once; a prefix fold decodes step by step and holds one entry's
        // reads at a time, releasing each before the next is held. The γ = 0
        // delta (entry 2) reads nothing and is never held.
        let entries = vec![full(1, 5), delta(2, 3), delta(3, 0), delta(4, 1)];
        let plan = |_: usize, _| Ok::<_, CodeError>(plan_at(&[0, 2], false));
        let holds = RefCell::new(Vec::new());
        let hold = |reads: &[(usize, &[usize])]| {
            holds
                .borrow_mut()
                .push(reads.iter().map(|&(idx, _)| idx).collect::<Vec<_>>());
            &entries
        };
        let strategy = EncodingStrategy::BasicSec;
        let version = VersionWalk::plan(strategy, 4, |i| entries[i].0, 4, None, plan)
            .fold(&Fake::default(), hold, |entries, idx, _| {
                Ok(entries[idx].1.shard(0))
            })
            .unwrap();
        assert_eq!(version.shards.as_bytes(), &[7]);
        assert_eq!(holds.take(), vec![vec![0, 1, 3]]);
        let prefix = PrefixWalk::plan(strategy, 4, |i| entries[i].0, 4, None, plan)
            .fold(&Fake::default(), 1, hold, |entries, idx, _| {
                Ok(entries[idx].1.shard(0))
            })
            .unwrap();
        assert_eq!(prefix.versions, vec![vec![5u8], vec![6], vec![6], vec![7]]);
        assert_eq!(holds.take(), vec![vec![0], vec![1], vec![3]]);
        assert_eq!((version.io_reads, prefix.io_reads), (6, 6));
    }
}
