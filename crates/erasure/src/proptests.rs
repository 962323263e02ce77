//! Property-based tests of the erasure-coding layer: encode/decode round
//! trips through random share subsets, sparse recovery of random sparse
//! deltas, and read planning.

use proptest::prelude::*;

use sec_gf::{GaloisField, Gf256};

use crate::code::{GeneratorForm, SecCode, Share};
use crate::read_plan::{plan_read, DecodeMethod, ReadPlan, ReadTarget};

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

fn data_strategy() -> impl Strategy<Value = Vec<Gf256>> {
    prop::collection::vec((0u64..256).prop_map(Gf256::from_u64), K)
}

fn sparse_strategy(max_gamma: usize) -> impl Strategy<Value = Vec<Gf256>> {
    prop::collection::btree_set(0usize..K, 0..=max_gamma).prop_flat_map(|support| {
        let support: Vec<usize> = support.into_iter().collect();
        prop::collection::vec(1u64..256, support.len()).prop_map(move |vals| {
            let mut v = vec![Gf256::ZERO; K];
            for (&pos, &val) in support.iter().zip(&vals) {
                v[pos] = Gf256::from_u64(val);
            }
            v
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn decode_full_from_any_k_random_shares(
        form in form_strategy(),
        data in data_strategy(),
        subset in prop::collection::btree_set(0usize..N, K..=N),
    ) {
        let code = code(form);
        let c = code.encode(&data).unwrap();
        let shares: Vec<Share<Gf256>> = subset.iter().map(|&i| (i, c[i])).collect();
        prop_assert_eq!(code.decode_full(&shares).unwrap(), data);
    }

    #[test]
    fn sparse_decode_recovers_random_sparse_deltas(
        delta in sparse_strategy(2),
        subset in prop::collection::btree_set(0usize..N, 4..=N),
    ) {
        // Non-systematic Cauchy: any 4 shares recover any 2-sparse delta.
        let code = code(GeneratorForm::NonSystematic);
        let c = code.encode(&delta).unwrap();
        let shares: Vec<Share<Gf256>> = subset.iter().take(4).map(|&i| (i, c[i])).collect();
        prop_assert_eq!(code.decode_sparse(&shares, 2).unwrap(), delta);
    }

    #[test]
    fn systematic_sparse_decode_from_parity_rows(
        delta in sparse_strategy(2),
    ) {
        let code = code(GeneratorForm::Systematic);
        let c = code.encode(&delta).unwrap();
        // Parity rows K..N always qualify (they form a Cauchy block).
        let shares: Vec<Share<Gf256>> = (K..K + 4).map(|i| (i, c[i])).collect();
        prop_assert_eq!(code.decode_sparse(&shares, 2).unwrap(), delta);
    }

    #[test]
    fn plan_and_decode_is_consistent_with_direct_decode(
        form in form_strategy(),
        delta in sparse_strategy(2),
        live in prop::collection::btree_set(0usize..N, K..=N),
    ) {
        let code = code(form);
        let c = code.encode(&delta).unwrap();
        let live: Vec<usize> = live.into_iter().collect();
        let gamma = delta.iter().filter(|v| !v.is_zero()).count().max(1);
        let shares = |plan: &ReadPlan| plan.nodes.iter().map(|&i| (i, c[i])).collect::<Vec<_>>();
        let plan = plan_read(&code, &live, ReadTarget::Sparse { gamma }).unwrap();
        let decoded = match plan.method {
            DecodeMethod::SparseRecovery => code.decode_sparse(&shares(&plan), gamma).unwrap(),
            DecodeMethod::SystematicDirect | DecodeMethod::Inversion => {
                code.decode_full(&shares(&plan)).unwrap()
            }
        };
        prop_assert_eq!(&decoded, &delta);
        prop_assert!(plan.io_reads <= K);
        prop_assert!(plan.io_reads >= 2 * gamma.min((K - 1) / 2).min(plan.io_reads));
        let full_plan = plan_read(&code, &live, ReadTarget::Full).unwrap();
        prop_assert_eq!(code.decode_full(&shares(&full_plan)).unwrap(), delta);
        prop_assert_eq!(full_plan.io_reads, K);
    }

    #[test]
    fn io_reads_formula_monotone_in_gamma(form in form_strategy()) {
        let code = code(form);
        let mut prev = 0usize;
        for gamma in 0..=K {
            let reads = code.io_reads_for_sparsity(gamma);
            prop_assert!(reads >= prev || reads == K, "reads must not decrease before saturating at k");
            prop_assert!(reads <= K);
            prev = reads;
        }
    }
}
