//! Differential property tests locking the byte-shard fast path to the
//! scalar `GaloisField` reference implementation.
//!
//! For random coefficients, shard sizes (including 0, 1, odd and
//! non-multiple-of-64 lengths) and erasure patterns, the `ByteCodec`
//! pipeline must produce *byte-identical* output to the per-column
//! reference (`SecCode::encode`, `decode_full` and `decode_sparse` run at
//! every byte position) for all three stages: encode, full decode, and
//! `2γ`-read sparse recovery. Any divergence — a wrong table entry, a chunk-boundary bug, a
//! support-search ordering change — fails these tests (verified during
//! development by mutating the kernels).

use proptest::prelude::*;

use sec_erasure::byte_shards::RUN_GAP;
use sec_erasure::{sparse, ByteCodec, ByteShards, CodeError, GeneratorForm, SecCode, Share};
use sec_gf::bulk8::CoeffTables;
use sec_gf::{force_kernel, reset_kernel, GaloisField, Gf256, Kernel};
use sec_linalg::combinatorics::Combinations;
use sec_linalg::ops;

const N: usize = 10;
const K: usize = 5;

fn code(form: GeneratorForm) -> SecCode<Gf256> {
    SecCode::cauchy(N, K, form).expect("(10,5) fits in GF(256)")
}

fn form_strategy() -> impl Strategy<Value = GeneratorForm> {
    prop_oneof![
        Just(GeneratorForm::Systematic),
        Just(GeneratorForm::NonSystematic),
    ]
}

/// Shard lengths biased toward the kernel's edge cases: empty, single-byte,
/// odd, exactly one chunk, and just past chunk boundaries.
fn shard_len_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1usize),
        Just(63usize),
        Just(64usize),
        Just(65usize),
        Just(129usize),
        2usize..200,
    ]
}

/// A deterministic pseudo-random byte object of `len` bytes.
fn object(len: usize, seed: u64) -> Vec<u8> {
    (0..len)
        .map(|i| (seed.wrapping_mul(i as u64 + 0x9E37).wrapping_add(i as u64) >> 11) as u8)
        .collect()
}

/// The per-column reference: `column` maps the symbols of `rows` at one byte
/// position to `out_rows` output symbols (`SecCode::encode`, `decode_full`
/// or `decode_sparse`), and runs at every position.
fn per_column(
    rows: &[&[u8]],
    out_rows: usize,
    column: impl Fn(Vec<Gf256>) -> Vec<Gf256>,
) -> Vec<Vec<u8>> {
    let len = rows.first().map_or(0, |row| row.len());
    let columns: Vec<Vec<Gf256>> = (0..len)
        .map(|at| column(rows.iter().map(|row| Gf256::from(row[at])).collect()))
        .collect();
    (0..out_rows)
        .map(|row| columns.iter().map(|column| column[row].raw()).collect())
        .collect()
}

/// [`per_column`] with `SecCode::encode`: the `n` coded rows of `data`.
fn reference_encode(code: &SecCode<Gf256>, data: &ByteShards) -> Vec<Vec<u8>> {
    let rows: Vec<&[u8]> = (0..data.shard_count()).map(|b| data.shard(b)).collect();
    per_column(&rows, code.n(), |column| code.encode(&column).unwrap())
}

/// [`per_column`] with `SecCode::decode_full`: the `k` data rows decoded
/// from `shares`.
fn reference_decode(code: &SecCode<Gf256>, shares: &[(usize, &[u8])]) -> Vec<Vec<u8>> {
    let rows: Vec<&[u8]> = shares.iter().map(|&(_, row)| row).collect();
    per_column(&rows, code.k(), |column| {
        let shares: Vec<Share<Gf256>> = shares.iter().map(|&(i, _)| i).zip(column).collect();
        code.decode_full(&shares).unwrap()
    })
}

/// A block-sparse delta: at most `max_gamma` of the K shards are non-zero.
fn block_sparse(shard_len: usize, support: &[usize], seed: u64) -> ByteShards {
    let mut delta = ByteShards::zeroed(K, shard_len);
    for (pos, &s) in support.iter().enumerate() {
        let bytes = object(shard_len, seed.wrapping_add(pos as u64 * 7919));
        delta.shard_mut(s).copy_from_slice(&bytes);
    }
    delta
}

/// One short edit of a delta block, as [`byte_sparse`] draws it.
#[derive(Debug, Clone, Copy)]
enum Edit {
    /// The block's first byte.
    First,
    /// The block's last byte.
    Last,
    /// Four bytes across a 64-byte boundary, picked by the value.
    Boundary(usize),
    /// Two bytes with `RUN_GAP + 1` (wide) or `RUN_GAP − 1` zero bytes
    /// between them, the first ending the 64-byte strip the delta's pair
    /// offset picks (the same in every block): the codec's column scan puts
    /// them in two runs or in one.
    Pair(bool),
}

/// Edits of one block. Half the draws are one wide pair with edits only at
/// the block's ends, which leave the pair's gap zero: when every edited
/// block is drawn that way, the shares have two runs.
fn edits_strategy() -> impl Strategy<Value = Vec<Edit>> {
    let edit = prop_oneof![
        Just(Edit::First),
        Just(Edit::Last),
        (0usize..usize::MAX).prop_map(Edit::Boundary),
        Just(Edit::Pair(false)),
        Just(Edit::Pair(true)),
    ];
    let end = prop_oneof![Just(Edit::First), Just(Edit::Last)];
    prop_oneof![
        prop::collection::vec(edit, 1..=3),
        prop::collection::vec(end, 0..=2).prop_map(|mut edits| {
            edits.push(Edit::Pair(true));
            edits
        }),
    ]
}

/// A byte-sparse delta: each of the `edits` blocks differs in a few short
/// edits and is zero elsewhere, so most byte columns are zero in every
/// coded block. Every edited byte is non-zero.
fn byte_sparse(shard_len: usize, edits: &[(usize, Vec<Edit>)], pair_at: usize, seed: u64) -> ByteShards {
    let mut delta = ByteShards::zeroed(K, shard_len);
    let value = object(shard_len, seed);
    for (block, block_edits) in edits {
        let bytes: Vec<usize> = block_edits
            .iter()
            .flat_map(|&edit| match edit {
                Edit::First => vec![0],
                Edit::Last => vec![shard_len - 1],
                Edit::Boundary(pick) => {
                    let boundary = 64 * (pick % (shard_len / 64) + 1);
                    (boundary - 2..(boundary + 2).min(shard_len)).collect()
                }
                Edit::Pair(wide) => {
                    let gap = if wide { RUN_GAP + 1 } else { RUN_GAP - 1 };
                    match shard_len.saturating_sub(gap + 1) / 64 {
                        0 => vec![pair_at % shard_len],
                        strips => {
                            let first = 64 * (pair_at % strips) + 63;
                            vec![first, first + gap + 1]
                        }
                    }
                }
            })
            .collect();
        for at in bytes {
            delta.shard_mut(*block)[at] = value[at] | 1;
        }
    }
    delta
}

/// The scalar reference lifted from symbols to blocks: the search of
/// [`sparse::recover_sparse`] (weights `0..=γ`, lexicographic supports, first
/// consistent one wins) with "consistent" meaning *every* byte column of the
/// shares is solvable on the support. `None` when no support is.
fn block_reference(
    code: &SecCode<Gf256>,
    shares: &[(usize, &[u8])],
    gamma: usize,
) -> Option<Vec<Vec<u8>>> {
    let rows: Vec<usize> = shares.iter().map(|&(i, _)| i).collect();
    let phi = code.generator().select_rows(&rows).unwrap();
    let shard_len = shares[0].1.len();
    let column = |at: usize| -> Vec<Gf256> { shares.iter().map(|&(_, s)| Gf256::from(s[at])).collect() };
    for weight in 0..=gamma {
        for support in Combinations::new(K, weight) {
            let restricted = phi.select_cols(&support).unwrap();
            let solutions: Option<Vec<Vec<Gf256>>> = (0..shard_len)
                .map(|at| ops::solve_consistent(&restricted, &column(at)))
                .collect();
            let Some(solutions) = solutions else { continue };
            let mut blocks = vec![vec![0u8; shard_len]; K];
            for (j, &block) in support.iter().enumerate() {
                blocks[block] = solutions.iter().map(|s| s[j].to_u64() as u8).collect();
            }
            return Some(blocks);
        }
    }
    None
}

/// Asserts `recover_sparse_blocks` ≡ the block-lifted scalar reference on
/// `shares` (same bytes, or both fail), and that `recover_sparse_into` onto a
/// non-zero accumulator is `acc ^ recover_sparse_blocks` (untouched on
/// failure). Returns the recovered object, if any.
fn assert_matches_reference(
    codec: &ByteCodec,
    shares: &[(usize, &[u8])],
    gamma: usize,
    seed: u64,
) -> Result<Option<ByteShards>, String> {
    let shard_len = shares[0].1.len();
    let fast = codec.recover_sparse_blocks(shares, gamma);
    let reference = block_reference(codec.code(), shares, gamma);
    let before = ByteShards::from_flat(&object(shard_len * K, seed ^ 0xACC), K);
    let mut acc = before.clone();
    let fused = codec.recover_sparse_into(shares, gamma, &mut acc);
    match (&fast, reference) {
        (Ok(fast), Some(reference)) => {
            prop_assert_eq!(fast.to_rows(), reference);
            prop_assert_eq!(fused, Ok(()));
            let mut expect = before;
            expect.xor_with(fast).unwrap();
            prop_assert_eq!(acc, expect);
        }
        (Err(CodeError::SparseRecoveryFailed { .. }), None) => {
            prop_assert_eq!(fused, Err(CodeError::SparseRecoveryFailed { gamma }));
            prop_assert_eq!(acc, before, "a failed recovery must not touch the accumulator");
        }
        (fast, reference) => prop_assert!(false, "fast {:?} vs reference {:?}", fast, reference),
    }
    Ok(fast.ok())
}

/// Asserts that at every byte position the per-symbol decoder
/// [`sparse::recover_sparse`] agrees with the recovered blocks.
fn assert_matches_per_symbol(
    code: &SecCode<Gf256>,
    shares: &[(usize, &[u8])],
    gamma: usize,
    recovered: &ByteShards,
) -> Result<(), String> {
    let rows: Vec<usize> = shares.iter().map(|&(i, _)| i).collect();
    let phi = code.generator().select_rows(&rows).unwrap();
    for at in 0..recovered.shard_len() {
        let y: Vec<Gf256> = shares.iter().map(|&(_, s)| Gf256::from(s[at])).collect();
        let reference = sparse::recover_sparse(&phi, &y, gamma).expect("a γ-sparse column recovers");
        let column: Vec<u64> = (0..K).map(|b| u64::from(recovered.shard(b)[at])).collect();
        let expect: Vec<u64> = reference.iter().map(|v| v.to_u64()).collect();
        prop_assert_eq!(column, expect, "position {}", at);
    }
    Ok(())
}

/// The first `count` live nodes after erasing `erased`.
fn first_live(erased: &std::collections::BTreeSet<usize>, count: usize) -> Vec<usize> {
    (0..N).filter(|i| !erased.contains(i)).take(count).collect()
}

/// Systematic codes put coefficients 0 and 1 where the byte path treats them
/// apart: encode copies its `k` identity rows, and a degraded decode copies
/// the surviving systematic symbols (unit rows of the inverse) and multiplies
/// only the rows of the lost ones. For (6,3) and (12,6), the encode is
/// bit-identical to the per-column reference, the decode from the first `k`
/// live nodes of **every** failure pattern of up to `n − k` nodes returns the
/// data (which is what the reference decodes them to), and each lost block
/// rebuilds to what was stored. 97 bytes end in a scalar tail on every
/// kernel.
#[test]
fn systematic_encode_and_every_degraded_decode_match_scalar() {
    for (n, k) in [(6usize, 3usize), (12, 6)] {
        let code = SecCode::cauchy(n, k, GeneratorForm::Systematic).expect("fits in GF(256)");
        let codec = ByteCodec::new(code.clone());
        let data = ByteShards::from_flat(&object(97 * k, 0xD15C + n as u64), k);
        let coded = codec.encode_blocks(&data).unwrap();
        assert_eq!(
            coded.to_rows(),
            reference_encode(&code, &data),
            "({n},{k}) encode"
        );

        for failures in 0..=n - k {
            for failed in Combinations::new(n, failures) {
                let live: Vec<usize> = (0..n).filter(|i| !failed.contains(i)).take(k).collect();
                let shares: Vec<(usize, &[u8])> = live.iter().map(|&i| (i, coded.shard(i))).collect();
                let fast = codec.decode_blocks(&shares).unwrap();
                assert_eq!(fast, data, "({n},{k}) failed {failed:?}");
                for &lost in &failed {
                    let rebuilt = codec.rebuild_block(&shares, lost).unwrap();
                    assert_eq!(
                        rebuilt,
                        coded.shard(lost),
                        "({n},{k}) failed {failed:?} rebuild {lost}"
                    );
                }
            }
        }
    }
}

/// The largest codes `GF(2^8)` hosts, both past the `n ≤ 62` bound of the
/// qualify and inverse memos: non-systematic (192,64) at `n + k = 256` and
/// systematic (256,128) at `n = 256`. The encode, the decode from the last
/// `k` shares, and γ = 1, 2 sparse recovery of a delta in the last γ blocks
/// (the end of the support search) from the last `2γ` shares match the
/// per-column reference.
#[test]
fn codes_at_the_field_ceiling_match_the_reference() {
    for (n, k, form) in [
        (192usize, 64usize, GeneratorForm::NonSystematic),
        (256, 128, GeneratorForm::Systematic),
    ] {
        let code = SecCode::cauchy(n, k, form).expect("at the ceiling of GF(256)");
        let codec = ByteCodec::new(code.clone());
        let data = ByteShards::from_flat(&object(3 * k, n as u64), k);
        let coded = codec.encode_blocks(&data).unwrap();
        assert_eq!(
            coded.to_rows(),
            reference_encode(&code, &data),
            "({n},{k}) encode"
        );
        let last: Vec<(usize, &[u8])> = (n - k..n).map(|i| (i, coded.shard(i))).collect();
        let decoded = codec.decode_blocks(&last).unwrap();
        assert_eq!(
            decoded.to_rows(),
            reference_decode(&code, &last),
            "({n},{k}) decode"
        );
        assert_eq!(decoded, data, "({n},{k}) decode");

        for gamma in 1..=2 {
            let mut delta = ByteShards::zeroed(k, 3);
            for block in k - gamma..k {
                delta
                    .shard_mut(block)
                    .copy_from_slice(&[0x5A, 0, block as u8 | 1]);
            }
            let coded = codec.encode_blocks(&delta).unwrap();
            let read: Vec<(usize, &[u8])> = (n - 2 * gamma..n).map(|i| (i, coded.shard(i))).collect();
            let recovered = codec.recover_sparse_blocks(&read, gamma).unwrap();
            let rows: Vec<&[u8]> = read.iter().map(|&(_, row)| row).collect();
            let reference = per_column(&rows, k, |column| {
                let shares: Vec<Share<Gf256>> = read.iter().map(|&(i, _)| i).zip(column).collect();
                code.decode_sparse(&shares, gamma).unwrap()
            });
            assert_eq!(recovered.to_rows(), reference, "({n},{k}) γ = {gamma}");
            assert_eq!(recovered, delta, "({n},{k}) γ = {gamma}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) Blocks edited at disjoint offsets: block `b1` is non-zero in the
    /// first and the last third of the shard, block `b2` only in the middle
    /// one, so both seed probe columns (the two ends) see `{b1}` alone. The
    /// weight-1 candidate `{b1}` passes every probe and is caught only by the
    /// full residual verification, whose failing offset then becomes a probe.
    /// (Mutation-checked: accepting a candidate on a probe pass alone returns
    /// the one-block object here and fails this test.)
    #[test]
    fn sparse_recovery_when_probes_see_a_strict_subset_of_the_support(
        third in prop_oneof![Just(1usize), Just(21usize), Just(22usize), Just(64usize), 1usize..90],
        blocks in prop::collection::btree_set(0usize..K, 2..=2),
        erased in prop::collection::btree_set(0usize..N, 0..=(N - 4)),
        extra in 0usize..=2,
        seed in 0u64..u64::MAX,
    ) {
        let gamma = 2usize;
        let codec = ByteCodec::new(code(GeneratorForm::NonSystematic));
        let blocks: Vec<usize> = blocks.into_iter().collect();
        let shard_len = 3 * third;
        let mut delta = ByteShards::zeroed(K, shard_len);
        // `| 1` keeps every edited byte non-zero, so the layout is exact.
        let edit = |at: usize| object(shard_len, seed)[at] | 1;
        for at in (0..third).chain(2 * third..shard_len) {
            delta.shard_mut(blocks[0])[at] = edit(at);
        }
        for at in third..2 * third {
            delta.shard_mut(blocks[1])[at] = edit(at);
        }
        let coded = codec.encode_blocks(&delta).unwrap();
        // 2γ shares, or up to two more than needed.
        let read = first_live(&erased, (2 * gamma + extra).min(N - erased.len()));
        let shares: Vec<(usize, &[u8])> = read.iter().map(|&i| (i, coded.shard(i))).collect();
        let recovered = assert_matches_reference(&codec, &shares, gamma, seed)?;
        prop_assert_eq!(recovered.as_ref(), Some(&delta));
        assert_matches_per_symbol(codec.code(), &shares, gamma, &delta)?;
    }

    /// (b) Dense-within-block deltas and (d) more than `2γ` shares, over the
    /// edge shard lengths 0, 1, 63–65: every byte of each support block is
    /// non-zero, for both forms (systematic codes read parity rows).
    #[test]
    fn sparse_recovery_of_dense_blocks_from_surplus_shares(
        form in form_strategy(),
        shard_len in prop_oneof![Just(0usize), Just(1usize), Just(63usize), Just(64usize), Just(65usize)],
        support in prop::collection::btree_set(0usize..K, 0..=2),
        extra in 0usize..=1,
        seed in 0u64..u64::MAX,
    ) {
        let gamma = 2usize;
        let codec = ByteCodec::new(code(form));
        let support: Vec<usize> = support.into_iter().collect();
        let mut delta = block_sparse(shard_len, &support, seed);
        for &block in &support {
            delta.shard_mut(block).iter_mut().for_each(|b| *b |= 1);
        }
        let coded = codec.encode_blocks(&delta).unwrap();
        let read: Vec<usize> = match form {
            GeneratorForm::Systematic => (K..K + 2 * gamma + extra).collect(),
            GeneratorForm::NonSystematic => (0..N).step_by(2).take(2 * gamma + extra).collect(),
        };
        let shares: Vec<(usize, &[u8])> = read.iter().map(|&i| (i, coded.shard(i))).collect();
        if shard_len == 0 {
            // Nothing to lift a reference from: the empty object recovers.
            prop_assert_eq!(codec.recover_sparse_blocks(&shares, gamma), Ok(delta));
        } else {
            let recovered = assert_matches_reference(&codec, &shares, gamma, seed)?;
            prop_assert_eq!(recovered.as_ref(), Some(&delta));
            assert_matches_per_symbol(codec.code(), &shares, gamma, &delta)?;
        }
    }

    /// (c) Objects that are *not* `γ`-sparse: three or more non-zero blocks,
    /// or a `γ`-sparse object with one corrupted share. The byte path and the
    /// block-lifted reference return the same bytes or both fail — the probe
    /// screen must not change which support (if any) is accepted.
    #[test]
    fn sparse_recovery_of_non_sparse_objects_matches_reference(
        shard_len in prop_oneof![Just(1usize), Just(2usize), Just(64usize), 1usize..80],
        support in prop::collection::btree_set(0usize..K, 1..=K),
        corrupt in prop_oneof![Just(None), (0usize..6, 0usize..80).prop_map(Some)],
        shares_read in 4usize..=6,
        seed in 0u64..u64::MAX,
    ) {
        let gamma = 2usize;
        let codec = ByteCodec::new(code(GeneratorForm::NonSystematic));
        let support: Vec<usize> = support.into_iter().collect();
        let delta = block_sparse(shard_len, &support, seed);
        let coded = codec.encode_blocks(&delta).unwrap();
        let mut blocks: Vec<Vec<u8>> = (0..shares_read).map(|i| coded.shard(i).to_vec()).collect();
        if let Some((share, at)) = corrupt {
            blocks[share % shares_read][at % shard_len] ^= 0x5A;
        }
        let shares: Vec<(usize, &[u8])> = blocks.iter().enumerate().map(|(i, b)| (i, b.as_slice())).collect();
        let recovered = assert_matches_reference(&codec, &shares, gamma, seed)?;
        if support.len() <= gamma && corrupt.is_none() {
            prop_assert_eq!(recovered, Some(delta));
        }
    }

    #[test]
    fn encode_blocks_matches_scalar_encode_shards(
        form in form_strategy(),
        shard_len in shard_len_strategy(),
        seed in 0u64..u64::MAX,
    ) {
        let code = code(form);
        let codec = ByteCodec::new(code.clone());
        let data = ByteShards::from_flat(&object(shard_len * K, seed), K);

        let fast = codec.encode_blocks(&data).unwrap();
        let reference = reference_encode(&code, &data);

        prop_assert_eq!(fast.shard_count(), N);
        for (i, ref_row) in reference.iter().enumerate() {
            prop_assert_eq!(fast.shard(i), ref_row.as_slice(), "row {}", i);
        }
    }

    /// The sparse encode: a delta with `γ ∈ 0..=k` non-zero blocks at any
    /// positions encodes, on every available kernel, to both the dense
    /// generator product over all `k` blocks and the per-column `encode`
    /// — whether its zero blocks are found by `encode_blocks`' scan or left
    /// out by the caller of `encode_sparse_into`.
    #[test]
    fn sparse_encode_matches_dense_product_and_scalar_encode(
        form in form_strategy(),
        shard_len in shard_len_strategy(),
        support in prop::collection::btree_set(0usize..K, 0..=K),
        seed in 0u64..u64::MAX,
    ) {
        let code = code(form);
        let codec = ByteCodec::new(code.clone());
        let support: Vec<usize> = support.into_iter().collect();
        let mut delta = block_sparse(shard_len, &support, seed);
        for &block in &support {
            delta.shard_mut(block).iter_mut().for_each(|b| *b |= 1);
        }
        prop_assert_eq!(delta.weight(), if shard_len == 0 { 0 } else { support.len() });
        let reference = reference_encode(&code, &delta);
        let every_block: Vec<&[u8]> = (0..K).map(|b| delta.shard(b)).collect();
        let listed: Vec<(usize, &[u8])> = support.iter().map(|&b| (b, delta.shard(b))).collect();
        let tables = CoeffTables::new();
        for kernel in Kernel::available() {
            let mut dense = vec![vec![0xEEu8; shard_len]; N];
            let mut dsts: Vec<&mut [u8]> = dense.iter_mut().map(Vec::as_mut_slice).collect();
            kernel.matrix_apply(&tables, code.generator().as_slice(), &every_block, &mut dsts, false).unwrap();
            prop_assert_eq!(&dense, &reference, "dense product on `{}`", kernel.name());

            force_kernel(kernel).unwrap();
            let scanned = codec.encode_blocks(&delta).unwrap().to_rows();
            let mut sparse = vec![vec![0xEEu8; shard_len]; N];
            let mut dsts: Vec<&mut [u8]> = sparse.iter_mut().map(Vec::as_mut_slice).collect();
            let result = codec.encode_sparse_into(&listed, &mut dsts);
            reset_kernel();
            prop_assert_eq!(result, Ok(()));
            prop_assert_eq!(&scanned, &reference, "encode_blocks on `{}`", kernel.name());
            prop_assert_eq!(&sparse, &reference, "encode_sparse_into on `{}`", kernel.name());
        }
    }

    #[test]
    fn decode_blocks_matches_scalar_decode_shards(
        form in form_strategy(),
        shard_len in shard_len_strategy(),
        survivors in prop::collection::btree_set(0usize..N, K..=N),
        seed in 0u64..u64::MAX,
    ) {
        let code = code(form);
        let codec = ByteCodec::new(code.clone());
        let original = object(shard_len * K, seed);
        let data = ByteShards::from_flat(&original, K);
        let coded = codec.encode_blocks(&data).unwrap();

        let byte_shares: Vec<(usize, &[u8])> =
            survivors.iter().map(|&i| (i, coded.shard(i))).collect();
        let fast = codec.decode_blocks(&byte_shares).unwrap();

        let reference = reference_decode(&code, &byte_shares);
        for (i, ref_row) in reference.iter().enumerate() {
            prop_assert_eq!(fast.shard(i), ref_row.as_slice(), "data shard {}", i);
        }
        prop_assert_eq!(fast.join(original.len()), original);
    }

    #[test]
    fn recover_sparse_blocks_matches_scalar_sparse_decode(
        shard_len in shard_len_strategy(),
        support in prop::collection::btree_set(0usize..K, 0..=2),
        erased in prop::collection::btree_set(0usize..N, 0..=(N - 4)),
        seed in 0u64..u64::MAX,
    ) {
        // Non-systematic Cauchy: every 2γ-row submatrix satisfies Criterion 2,
        // so any 2γ live shards recover a γ-block-sparse delta.
        let gamma = 2usize;
        let code = code(GeneratorForm::NonSystematic);
        let codec = ByteCodec::new(code.clone());
        let support: Vec<usize> = support.into_iter().collect();
        let delta = block_sparse(shard_len, &support, seed);
        let coded = codec.encode_blocks(&delta).unwrap();

        // Erasure pattern: drop up to n - 2γ shards, read the first 2γ live.
        let live: Vec<usize> = (0..N).filter(|i| !erased.contains(i)).collect();
        let read: Vec<usize> = live.into_iter().take(2 * gamma).collect();
        prop_assert_eq!(read.len(), 2 * gamma);

        let byte_shares: Vec<(usize, &[u8])> = read.iter().map(|&i| (i, coded.shard(i))).collect();
        let fast = codec.recover_sparse_blocks(&byte_shares, gamma).unwrap();
        prop_assert_eq!(&fast, &delta);

        // Scalar reference: run the per-symbol sparse decoder at every byte
        // position and reassemble; the result must be byte-identical.
        for position in 0..shard_len {
            let shares: Vec<Share<Gf256>> = read
                .iter()
                .map(|&i| (i, Gf256::from_u64(u64::from(coded.shard(i)[position]))))
                .collect();
            let reference = code.decode_sparse(&shares, gamma).unwrap();
            for (shard_idx, symbol) in reference.iter().enumerate() {
                prop_assert_eq!(
                    u64::from(fast.shard(shard_idx)[position]),
                    symbol.to_u64(),
                    "shard {} position {}",
                    shard_idx,
                    position
                );
            }
        }
    }

    #[test]
    fn systematic_sparse_recovery_from_parity_rows_matches_scalar(
        shard_len in shard_len_strategy(),
        support in prop::collection::btree_set(0usize..K, 0..=2),
        seed in 0u64..u64::MAX,
    ) {
        // Systematic codes draw Criterion-2 submatrices from the parity
        // block; rows K..K+2γ always qualify.
        let gamma = 2usize;
        let code = code(GeneratorForm::Systematic);
        let codec = ByteCodec::new(code.clone());
        let support: Vec<usize> = support.into_iter().collect();
        let delta = block_sparse(shard_len, &support, seed);
        let coded = codec.encode_blocks(&delta).unwrap();

        let read: Vec<usize> = (K..K + 2 * gamma).collect();
        let byte_shares: Vec<(usize, &[u8])> = read.iter().map(|&i| (i, coded.shard(i))).collect();
        let fast = codec.recover_sparse_blocks(&byte_shares, gamma).unwrap();
        prop_assert_eq!(&fast, &delta);

        for position in 0..shard_len {
            let shares: Vec<Share<Gf256>> = read
                .iter()
                .map(|&i| (i, Gf256::from_u64(u64::from(coded.shard(i)[position]))))
                .collect();
            let reference = code.decode_sparse(&shares, gamma).unwrap();
            let fast_column: Vec<u64> =
                (0..K).map(|s| u64::from(fast.shard(s)[position])).collect();
            let ref_column: Vec<u64> = reference.iter().map(|v| v.to_u64()).collect();
            prop_assert_eq!(fast_column, ref_column, "position {}", position);
        }
    }
}

proptest! {
    // Two runs need a zero gap of `RUN_GAP` inside one shard, which few
    // draws make: more cases than the block above.
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// (e) Byte-sparse deltas, where recovery works only on the columns some
    /// share is non-zero in: 1–3 short edits per support block (the first
    /// byte, the last byte, across a 64-byte boundary, pairs with the scan's
    /// merge gap ± 1 zero bytes between them) over shard lengths `64·m`,
    /// `64·m + 1` and `64·m + 13` up to 5 KiB, half of them long enough for
    /// such a pair, for both forms. With `corrupt`, one share is changed in
    /// one column that is zero in every share — a column only the full
    /// verification of the runs sees — and no support may be accepted.
    #[test]
    fn sparse_recovery_of_byte_sparse_deltas_matches_reference(
        form in form_strategy(),
        m in prop_oneof![1usize..64, 64usize..=80],
        tail in prop_oneof![Just(0usize), Just(1usize), Just(13usize)],
        support in prop::collection::btree_set(0usize..K, 1..=2),
        edits in prop::collection::vec(edits_strategy(), 2),
        pair_at in 0usize..usize::MAX,
        corrupt in prop_oneof![Just(None), (0usize..5, 0usize..usize::MAX).prop_map(Some)],
        extra in 0usize..=1,
        seed in 0u64..u64::MAX,
    ) {
        let gamma = 2usize;
        let codec = ByteCodec::new(code(form));
        let shard_len = 64 * m + tail;
        let edits: Vec<(usize, Vec<Edit>)> = support.into_iter().zip(edits).collect();
        let delta = byte_sparse(shard_len, &edits, pair_at, seed);
        let coded = codec.encode_blocks(&delta).unwrap();
        let read: Vec<usize> = match form {
            GeneratorForm::Systematic => (K..K + 2 * gamma + extra).collect(),
            GeneratorForm::NonSystematic => (0..N).step_by(2).take(2 * gamma + extra).collect(),
        };
        let mut blocks: Vec<Vec<u8>> = read.iter().map(|&i| coded.shard(i).to_vec()).collect();
        let zero_columns: Vec<usize> = (0..shard_len).filter(|&at| blocks.iter().all(|b| b[at] == 0)).collect();
        let corrupted = match corrupt {
            Some((share, pick)) if !zero_columns.is_empty() => {
                let share = share % blocks.len();
                blocks[share][zero_columns[pick % zero_columns.len()]] = 0x5A;
                true
            }
            _ => false,
        };
        let shares: Vec<(usize, &[u8])> = read.iter().copied().zip(blocks.iter().map(Vec::as_slice)).collect();
        let recovered = assert_matches_reference(&codec, &shares, gamma, seed)?;
        prop_assert_eq!(recovered, if corrupted { None } else { Some(delta) });
    }
}
