//! Property-based tests of the field axioms and the bulk kernels.

use proptest::prelude::*;

use crate::{GaloisField, Gf256};

fn elem() -> impl Strategy<Value = Gf256> {
    (0..Gf256::ORDER).prop_map(Gf256::from_u64)
}

mod gf256_axioms {
    use super::*;

    proptest! {
        #[test]
        fn addition_is_commutative_group(a in elem(), b in elem(), c in elem()) {
            prop_assert_eq!(a + b, b + a);
            prop_assert_eq!((a + b) + c, a + (b + c));
            prop_assert_eq!(a + Gf256::ZERO, a);
            prop_assert_eq!(a + a, Gf256::ZERO); // characteristic 2
        }

        #[test]
        fn multiplication_is_commutative_monoid(a in elem(), b in elem(), c in elem()) {
            prop_assert_eq!(a * b, b * a);
            prop_assert_eq!((a * b) * c, a * (b * c));
            prop_assert_eq!(a * Gf256::ONE, a);
            prop_assert_eq!(a * Gf256::ZERO, Gf256::ZERO);
        }

        #[test]
        fn distributivity(a in elem(), b in elem(), c in elem()) {
            prop_assert_eq!(a * (b + c), a * b + a * c);
        }

        #[test]
        fn inverse_and_division(a in elem(), b in elem()) {
            if !a.is_zero() {
                let ai = a.inv().unwrap();
                prop_assert_eq!(a * ai, Gf256::ONE);
                prop_assert_eq!(b / a * a, b);
            } else {
                prop_assert!(a.inv().is_none());
            }
        }

        #[test]
        fn pow_is_repeated_multiplication(a in elem(), e in 0u64..64) {
            let mut expect = Gf256::ONE;
            for _ in 0..e {
                expect *= a;
            }
            prop_assert_eq!(a.pow(e), expect);
        }

        #[test]
        fn to_from_u64_round_trip(a in elem()) {
            prop_assert_eq!(Gf256::from_u64(a.to_u64()), a);
            prop_assert!(a.to_u64() < Gf256::ORDER);
        }

        #[test]
        fn frobenius_is_additive(a in elem(), b in elem()) {
            // In characteristic 2, squaring is a field automorphism.
            prop_assert_eq!((a + b) * (a + b), a * a + b * b);
        }
    }
}

proptest! {
    #[test]
    fn bulk_kernels_match_scalar_loop(
        a in prop::collection::vec(0u64..256, 1..64),
        c in 0u64..256,
    ) {
        let src: Vec<Gf256> = a.iter().map(|&v| Gf256::from_u64(v)).collect();
        let c = Gf256::from_u64(c);
        let mut dst = vec![Gf256::ZERO; src.len()];
        crate::bulk::mul_add_assign(&mut dst, c, &src);
        let expect: Vec<Gf256> = src.iter().map(|&s| c * s).collect();
        prop_assert_eq!(&dst, &expect);
        let mut dst2 = vec![Gf256::ZERO; src.len()];
        crate::bulk::mul_into(&mut dst2, c, &src);
        prop_assert_eq!(dst2, expect);
    }

    #[test]
    fn bulk8_mul_slices_match_scalar_reference(
        // Cover the awkward lengths explicitly: 0, 1, odd, and lengths that
        // are not multiples of the 64-byte kernel chunk.
        len in prop_oneof![Just(0usize), Just(1usize), Just(63usize), Just(65usize), 2usize..300],
        c in 0u64..256,
        seed in 0u64..u64::MAX,
    ) {
        let c = Gf256::from_u64(c);
        let src: Vec<u8> = (0..len).map(|i| (seed.wrapping_mul(i as u64 + 1) >> 13) as u8).collect();
        let init: Vec<u8> = (0..len).map(|i| (seed.wrapping_add(i as u64 * 7) >> 21) as u8).collect();

        // Scalar reference: lift bytes to Gf256 and run the generic kernels.
        let src_sym: Vec<Gf256> = crate::bulk::bytes_to_symbols(&src);
        let mut ref_add: Vec<Gf256> = crate::bulk::bytes_to_symbols(&init);
        crate::bulk::mul_add_assign(&mut ref_add, c, &src_sym);
        let mut ref_mul = vec![Gf256::ZERO; len];
        crate::bulk::mul_into(&mut ref_mul, c, &src_sym);

        let tables = crate::bulk8::CoeffTables::new();
        let mut fast_add = init.clone();
        tables.mul_add_slice(c, &src, &mut fast_add);
        prop_assert_eq!(&fast_add, &crate::bulk::symbols_to_bytes(&ref_add));
        let mut fast_add2 = init.clone();
        crate::bulk8::mul_add_slice(c, &src, &mut fast_add2);
        prop_assert_eq!(&fast_add2, &fast_add);

        let mut fast_mul = vec![0u8; len];
        tables.mul_slice(c, &src, &mut fast_mul);
        prop_assert_eq!(&fast_mul, &crate::bulk::symbols_to_bytes(&ref_mul));
        let mut fast_mul2 = vec![0xFFu8; len];
        crate::bulk8::mul_slice(c, &src, &mut fast_mul2);
        prop_assert_eq!(fast_mul2, fast_mul);
    }

    #[test]
    fn bulk8_simd_kernels_match_scalar_reference_on_all_lengths(
        // Short lengths sweep every head/tail remainder a 16/32-byte SIMD
        // register can see; the multi-KiB lengths cross the fused drivers'
        // strip boundaries (including a deliberately unaligned +13 / +1).
        len in prop_oneof![
            0usize..258,
            Just(4096usize + 13),
            Just(3 * 4096usize),
            Just(16 * 1024usize + 1)
        ],
        c in 0u64..256,
        seed in 0u64..u64::MAX,
    ) {
        use crate::kernel::Kernel;
        let table = crate::bulk8::MulTable::new(Gf256::from_u64(c));
        let src: Vec<u8> = (0..len).map(|i| (seed.wrapping_mul(i as u64 + 1) >> 13) as u8).collect();
        let init: Vec<u8> = (0..len).map(|i| (seed.wrapping_add(i as u64 * 7) >> 21) as u8).collect();

        // The scalar kernel is the reference; every kernel the host supports
        // must be bit-identical to it through the per-kernel checked ops.
        let mut want_mul = vec![0u8; len];
        Kernel::Scalar.mul_slice(&table, &src, &mut want_mul).unwrap();
        let mut want_add = init.clone();
        Kernel::Scalar.mul_add_slice(&table, &src, &mut want_add).unwrap();
        let mut want_xor = init.clone();
        Kernel::Scalar.xor_slice(&src, &mut want_xor).unwrap();

        for kernel in Kernel::available() {
            let mut got = vec![0xEEu8; len];
            kernel.mul_slice(&table, &src, &mut got).unwrap();
            prop_assert_eq!(&got, &want_mul, "mul_slice diverged on kernel `{}`", kernel.name());
            let mut got = init.clone();
            kernel.mul_add_slice(&table, &src, &mut got).unwrap();
            prop_assert_eq!(&got, &want_add, "mul_add_slice diverged on kernel `{}`", kernel.name());
            let mut got = init.clone();
            kernel.xor_slice(&src, &mut got).unwrap();
            prop_assert_eq!(&got, &want_xor, "xor_slice diverged on kernel `{}`", kernel.name());
        }
    }

    #[test]
    fn matrix_apply_matches_field_arithmetic_on_every_kernel(
        rows in 1usize..=12,
        // Up to one past a column tile and a half.
        cols in 1usize..=13,
        len in prop_oneof![0usize..258, Just(4096usize + 13), Just(2 * 4096usize)],
        offset in 0usize..64,
        mode in 0u8..2,
        seed in 0u64..u64::MAX,
    ) {
        use crate::kernel::Kernel;
        let accumulate = mode == 1;
        let byte = |i: usize, salt: u64| (seed.wrapping_add(salt).wrapping_mul(i as u64 * 2 + 1) >> 23) as u8;
        // A quarter of the coefficients are 0 or 1; row 0 is a unit row on
        // even seeds, and one row is all zero (a systematic unit row over a
        // source left out as zero) on every other pair of seeds.
        let mut coeffs: Vec<Gf256> = (0..rows * cols)
            .map(|i| match byte(i, 1) {
                b if b < 32 => Gf256::ZERO,
                b if b < 64 => Gf256::ONE,
                b => Gf256::from_u64(u64::from(b)),
            })
            .collect();
        if seed % 2 == 0 {
            coeffs[..cols].fill(Gf256::ZERO);
            coeffs[seed as usize % cols] = Gf256::ONE;
        }
        if seed % 4 < 2 {
            let zero = (seed >> 2) as usize % rows;
            coeffs[zero * cols..(zero + 1) * cols].fill(Gf256::ZERO);
        }
        let srcs: Vec<Vec<u8>> = (0..cols)
            .map(|c| (0..offset + len).map(|i| byte(i, 100 + c as u64)).collect())
            .collect();
        let init: Vec<Vec<u8>> = (0..rows)
            .map(|r| (0..offset + len).map(|i| byte(i, 200 + r as u64)).collect())
            .collect();

        // Reference: the generic per-symbol kernels over `Gf256`.
        let want: Vec<Vec<u8>> = (0..rows)
            .map(|r| {
                let start = if accumulate { &init[r][offset..] } else { &vec![0u8; len][..] };
                let mut sum: Vec<Gf256> = crate::bulk::bytes_to_symbols(start);
                for (c, src) in srcs.iter().enumerate() {
                    let symbols: Vec<Gf256> = crate::bulk::bytes_to_symbols(&src[offset..]);
                    crate::bulk::mul_add_assign(&mut sum, coeffs[r * cols + c], &symbols);
                }
                crate::bulk::symbols_to_bytes(&sum)
            })
            .collect();

        let tables = crate::bulk8::CoeffTables::new();
        let views: Vec<&[u8]> = srcs.iter().map(|src| &src[offset..]).collect();
        for kernel in Kernel::available() {
            let mut out = init.clone();
            let mut dsts: Vec<&mut [u8]> = out.iter_mut().map(|dst| &mut dst[offset..]).collect();
            kernel.matrix_apply(&tables, &coeffs, &views, &mut dsts, accumulate).unwrap();
            for (r, (got, before)) in out.iter().zip(&init).enumerate() {
                prop_assert_eq!(&got[..offset], &before[..offset], "row {} head on `{}`", r, kernel.name());
                prop_assert_eq!(&got[offset..], &want[r][..], "row {} on kernel `{}`", r, kernel.name());
            }
        }
    }

    #[test]
    fn matrix_apply_summed_equals_xoring_each_group_then_applying(
        rows in 1usize..=7,
        cols in 1usize..=9,
        members in 1usize..=4,
        len in prop_oneof![
            Just(0usize),
            Just(1usize),
            Just(63usize),
            Just(64usize),
            Just(65usize),
            Just(crate::kernel::DRIVER_STRIP - 13),
            Just(crate::kernel::DRIVER_STRIP + 13),
            Just(3 * crate::kernel::DRIVER_STRIP),
        ],
        mode in 0u8..2,
        seed in 0u64..u64::MAX,
    ) {
        use crate::kernel::Kernel;
        let accumulate = mode == 1;
        let byte = |i: usize, salt: u64| (seed.wrapping_add(salt).wrapping_mul(i as u64 * 2 + 1) >> 23) as u8;
        // Zeros, ones and a unit row among the coefficients, as in the
        // matrix-apply property above.
        let mut coeffs: Vec<Gf256> = (0..rows * cols)
            .map(|i| match byte(i, 1) {
                b if b < 32 => Gf256::ZERO,
                b if b < 64 => Gf256::ONE,
                b => Gf256::from_u64(u64::from(b)),
            })
            .collect();
        if seed % 2 == 0 {
            coeffs[..cols].fill(Gf256::ZERO);
            coeffs[seed as usize % cols] = Gf256::ONE;
        }
        let srcs: Vec<Vec<u8>> = (0..members * cols)
            .map(|s| (0..len).map(|i| byte(i, 100 + s as u64)).collect())
            .collect();
        let init: Vec<Vec<u8>> = (0..rows)
            .map(|r| (0..len).map(|i| byte(i, 300 + r as u64)).collect())
            .collect();
        let views: Vec<&[u8]> = srcs.iter().map(Vec::as_slice).collect();

        // Reference: each column's group XORed whole, then one plain apply.
        let sums: Vec<Vec<u8>> = (0..cols)
            .map(|c| {
                let mut sum = vec![0u8; len];
                let group: Vec<&[u8]> = (0..members).map(|member| views[member * cols + c]).collect();
                Kernel::Scalar.xor_accumulate(&mut sum, &group).unwrap();
                sum
            })
            .collect();
        let sum_views: Vec<&[u8]> = sums.iter().map(Vec::as_slice).collect();
        let tables = crate::bulk8::CoeffTables::new();
        let mut want = init.clone();
        let mut dsts: Vec<&mut [u8]> = want.iter_mut().map(Vec::as_mut_slice).collect();
        Kernel::Scalar.matrix_apply(&tables, &coeffs, &sum_views, &mut dsts, accumulate).unwrap();

        for kernel in Kernel::available() {
            let mut got = init.clone();
            let mut dsts: Vec<&mut [u8]> = got.iter_mut().map(Vec::as_mut_slice).collect();
            kernel
                .matrix_apply_summed(&tables, &coeffs, &views, members, &mut dsts, accumulate)
                .unwrap();
            prop_assert_eq!(&got, &want, "{} members on kernel `{}`", members, kernel.name());
        }
    }

    #[test]
    fn bulk8_xor_accumulate_matches_scalar_reference(
        len in prop_oneof![Just(0usize), Just(1usize), Just(64usize), 2usize..200],
        rows in 0usize..5,
        seed in 0u64..u64::MAX,
    ) {
        let srcs: Vec<Vec<u8>> = (0..rows)
            .map(|r| {
                (0..len)
                    .map(|i| (seed.wrapping_mul((r * 131 + i + 1) as u64) >> 17) as u8)
                    .collect()
            })
            .collect();
        let init: Vec<u8> = (0..len).map(|i| (seed.wrapping_add(i as u64) >> 9) as u8).collect();

        let mut reference: Vec<Gf256> = crate::bulk::bytes_to_symbols(&init);
        for src in &srcs {
            crate::bulk::add_assign(&mut reference, &crate::bulk::bytes_to_symbols::<Gf256>(src));
        }

        let mut fast = init.clone();
        let views: Vec<&[u8]> = srcs.iter().map(Vec::as_slice).collect();
        crate::bulk8::xor_accumulate(&mut fast, &views);
        prop_assert_eq!(fast, crate::bulk::symbols_to_bytes(&reference));
    }

    #[test]
    fn delta_weight_matches_positions_changed(
        base in prop::collection::vec(0u64..256, 1..64),
        edits in prop::collection::vec((0usize..64, 1u64..256), 0..16),
    ) {
        let a: Vec<Gf256> = base.iter().map(|&v| Gf256::from_u64(v)).collect();
        let mut b = a.clone();
        let mut touched = std::collections::BTreeSet::new();
        for (idx, val) in edits {
            let idx = idx % b.len();
            let v = Gf256::from_u64(val);
            if b[idx] + v != a[idx] {
                // record only edits that actually change the symbol relative to `a`
            }
            b[idx] = a[idx] + v; // v != 0 so this symbol now differs from a[idx]
            touched.insert(idx);
        }
        let d = crate::bulk::diff(&b, &a);
        prop_assert_eq!(crate::bulk::weight(&d), touched.len());
    }
}
