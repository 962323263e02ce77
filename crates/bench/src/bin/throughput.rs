//! Byte-shard pipeline throughput: encode, full decode and `2γ` sparse
//! recovery in MB/s, printed as three tables.
//!
//! The **kernel matrix** runs the batched [`ByteCodec`] pipeline of each
//! `(n, k) = (2k, k)` Cauchy code, `k ∈ {3, 6, 12}`, forced onto each
//! `GF(2^8)` kernel the host supports (`scalar`, `ssse3`, `avx2`, `gfni`,
//! `neon`) via [`sec_gf::force_kernel`], across shard sizes from 4 KiB to
//! 4 MiB, and prints each SIMD kernel's speedup over scalar for the (6, 3)
//! encode next to the kernel production dispatch selected.
//!
//! The **folded decode** rows (`decode_folded_m*` against
//! `decode_separate_m*`) time, on every kernel, what a version walk does
//! with `m ∈ {1, 2, 3}` full-plan entries read at one position set of a
//! (12, 6) code with 32 KiB blocks: one decode of their summed blocks
//! ([`ByteCodec::decode_sum_into`]) against `m` decodes, each XORed into the
//! first — the walk before it summed.
//!
//! The **edited-delta recovery** rows (`sparse_recover_edit64_g*`) time, on
//! every kernel, what a version walk does with a sparse delta as real edits
//! make it: `γ ∈ {1, 2}` blocks each changed in 64 bytes, recovered from
//! `2γ` coded blocks onto a reused accumulator, at (12, 6) @ 32 KiB and
//! (6, 3) @ 4 KiB (`γ = 1` only, since `2γ < k`). Beside them, the kernel
//! matrix's `sparse_recover` row recovers a block that is non-zero in every
//! byte — the column scan's worst case.
//!
//! Nothing here asserts or records. What a `GET` costs end to end, what the
//! delta cache serves and how the server holds up under many connections are
//! measured — with assertions — by the `benchmark/` package and with
//! `sec-netload` (`docs/NETWORK.md`).
//!
//! Run with `cargo run --release -p sec-bench --bin throughput`. Pass
//! `--smoke` for a quick CI-sized run (4 KiB shards only).

use std::time::{Duration, Instant};

use sec_erasure::{ByteCodec, ByteShards, GeneratorForm, SecCode};
use sec_gf::{Gf256, Kernel};

/// The sparsity of the delta every `sparse_recover` row recovers.
const GAMMA: usize = 1;

/// One measured data point; `path` is the forced kernel's name.
struct Sample {
    path: &'static str,
    op: &'static str,
    k: usize,
    shard_bytes: usize,
    ns_per_op: f64,
}

impl Sample {
    fn mb_per_s(&self) -> f64 {
        ((self.k * self.shard_bytes) as f64 / 1e6) / (self.ns_per_op / 1e9)
    }
}

/// One `(2k, k)` code at one shard size: a pseudo-random object, a `γ = 1`
/// delta, both encoded, and the row sets the decode / recover rows read.
struct Case {
    codec: ByteCodec,
    k: usize,
    shard_bytes: usize,
    data: ByteShards,
    coded: ByteShards,
    coded_delta: ByteShards,
    /// `k` rows straddling the systematic/parity boundary, so a decode
    /// inverts a real matrix under either generator form.
    decode_rows: Vec<usize>,
}

impl Case {
    fn new(k: usize, shard_bytes: usize) -> Self {
        let code: SecCode<Gf256> =
            SecCode::cauchy(2 * k, k, GeneratorForm::NonSystematic).expect("(2k,k) fits in GF(256)");
        let codec = ByteCodec::new(code);
        let mut object = vec![0u8; k * shard_bytes];
        fill(&mut object, (k * 1_000_003 + shard_bytes) as u64);
        let data = ByteShards::from_flat(&object, k);
        let mut delta = ByteShards::zeroed(k, shard_bytes);
        fill(delta.shard_mut(k / 2), 42);
        Self {
            coded: codec.encode_blocks(&data).expect("encode"),
            coded_delta: codec.encode_blocks(&delta).expect("encode delta"),
            decode_rows: (k / 2..k / 2 + k).collect(),
            codec,
            k,
            shard_bytes,
            data,
        }
    }

    fn sample(&self, path: &'static str, op: &'static str, ns_per_op: f64) -> Sample {
        Sample {
            path,
            op,
            k: self.k,
            shard_bytes: self.shard_bytes,
            ns_per_op,
        }
    }

    /// The three byte-pipeline rows, on whatever kernel is active.
    fn measure_byte(&self, path: &'static str, min_total: Duration, samples: &mut Vec<Sample>) {
        let mut out = ByteShards::zeroed(2 * self.k, self.shard_bytes);
        let ns = measure(
            || {
                self.codec
                    .encode_blocks_into(&self.data, &mut out)
                    .expect("encode")
            },
            min_total,
            1000,
        );
        samples.push(self.sample(path, "encode", ns));

        let shares: Vec<(usize, &[u8])> = self
            .decode_rows
            .iter()
            .map(|&i| (i, self.coded.shard(i)))
            .collect();
        let ns = measure(
            || {
                std::hint::black_box(self.codec.decode_blocks(&shares).expect("decode"));
            },
            min_total,
            1000,
        );
        samples.push(self.sample(path, "decode", ns));

        let sparse_shares: Vec<(usize, &[u8])> =
            (0..2 * GAMMA).map(|i| (i, self.coded_delta.shard(i))).collect();
        let ns = measure(
            || {
                std::hint::black_box(
                    self.codec
                        .recover_sparse_blocks(&sparse_shares, GAMMA)
                        .expect("recover"),
                );
            },
            min_total,
            1000,
        );
        samples.push(self.sample(path, "sparse_recover", ns));
    }
}

/// Op names of the folded-decode rows, by member count.
const FOLDED: [&str; 3] = ["decode_folded_m1", "decode_folded_m2", "decode_folded_m3"];
const SEPARATE: [&str; 3] = ["decode_separate_m1", "decode_separate_m2", "decode_separate_m3"];

/// The folded-decode rows on whatever kernel is active (see the module
/// docs): three objects of a (12, 6) code at 32 KiB blocks, read at the same
/// `k` rows, decoded `m` at a time as one sum and as `m` decodes.
fn measure_folded(path: &'static str, min_total: Duration, samples: &mut Vec<Sample>) {
    let (k, shard_bytes) = (6, 32 * 1024);
    let code: SecCode<Gf256> =
        SecCode::cauchy(2 * k, k, GeneratorForm::NonSystematic).expect("(12,6) fits in GF(256)");
    let codec = ByteCodec::new(code);
    let coded: Vec<ByteShards> = (0..FOLDED.len() as u64)
        .map(|m| {
            let mut object = vec![0u8; k * shard_bytes];
            fill(&mut object, 7 + m);
            codec
                .encode_blocks(&ByteShards::from_flat(&object, k))
                .expect("encode")
        })
        .collect();
    let rows: Vec<usize> = (k / 2..k / 2 + k).collect();
    let shares: Vec<Vec<(usize, &[u8])>> = coded
        .iter()
        .map(|c| rows.iter().map(|&i| (i, c.shard(i))).collect())
        .collect();
    let mut out = ByteShards::zeroed(k, shard_bytes);
    for (m, (folded, separate)) in FOLDED.into_iter().zip(SEPARATE).enumerate() {
        let codewords: Vec<&[(usize, &[u8])]> = shares[..=m].iter().map(Vec::as_slice).collect();
        let ns = measure(
            || {
                codec
                    .decode_sum_into(&codewords, &mut out, false)
                    .expect("decode")
            },
            min_total,
            1000,
        );
        samples.push(Sample {
            path,
            op: folded,
            k,
            shard_bytes,
            ns_per_op: ns,
        });
        let ns = measure(
            || {
                codec.decode_blocks_into(codewords[0], &mut out).expect("decode");
                for codeword in &codewords[1..] {
                    let decoded = codec.decode_blocks(codeword).expect("decode");
                    out.xor_with(&decoded).expect("same shape");
                }
            },
            min_total,
            1000,
        );
        samples.push(Sample {
            path,
            op: separate,
            k,
            shard_bytes,
            ns_per_op: ns,
        });
    }
}

/// Op names of the edited-delta recovery rows, by `γ`.
const EDIT64: [&str; 2] = ["sparse_recover_edit64_g1", "sparse_recover_edit64_g2"];

/// The edited-delta recovery rows on whatever kernel is active (see the
/// module docs): per shape and `γ`, a delta whose `γ` middle blocks each
/// differ in 64 bytes at their own offset, recovered from its first `2γ`
/// coded blocks and XORed onto one accumulator call after call.
fn measure_edit64(path: &'static str, min_total: Duration, samples: &mut Vec<Sample>) {
    for (k, shard_bytes) in [(6, 32 * 1024), (3, 4096)] {
        let code: SecCode<Gf256> =
            SecCode::cauchy(2 * k, k, GeneratorForm::NonSystematic).expect("(2k,k) fits in GF(256)");
        let codec = ByteCodec::new(code);
        for (gamma, op) in (1..).zip(EDIT64).take_while(|&(gamma, _)| 2 * gamma < k) {
            let mut delta = ByteShards::zeroed(k, shard_bytes);
            for g in 0..gamma {
                let at = (2 * g + 1) * shard_bytes / (2 * gamma + 1);
                fill(
                    &mut delta.shard_mut(k / 2 + g - gamma / 2)[at..at + 64],
                    42 + g as u64,
                );
            }
            let coded = codec.encode_blocks(&delta).expect("encode delta");
            let shares: Vec<(usize, &[u8])> = (0..2 * gamma).map(|i| (i, coded.shard(i))).collect();
            let mut acc = ByteShards::zeroed(k, shard_bytes);
            let ns = measure(
                || {
                    codec
                        .recover_sparse_into(&shares, gamma, &mut acc)
                        .expect("recover")
                },
                min_total,
                1000,
            );
            samples.push(Sample {
                path,
                op,
                k,
                shard_bytes,
                ns_per_op: ns,
            });
        }
    }
}

/// Times `f` until `min_total` has elapsed or `max_iters` runs completed
/// (after one untimed warm-up call), returning mean ns per call.
fn measure<F: FnMut()>(mut f: F, min_total: Duration, max_iters: u64) -> f64 {
    f();
    let start = Instant::now();
    let mut iters = 0u64;
    loop {
        f();
        iters += 1;
        if start.elapsed() >= min_total || iters >= max_iters {
            break;
        }
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Deterministic pseudo-random bytes (SplitMix64 stream).
fn fill(buf: &mut [u8], mut seed: u64) {
    for b in buf.iter_mut() {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        *b = (z >> 32) as u8;
    }
}

fn print_table(label: &str, samples: &[Sample]) {
    println!(
        "{:<14} {:<18} {:>4} {:>4} {:>12} {:>14} {:>12}",
        label, "op", "n", "k", "shard_bytes", "ns/op", "MB/s"
    );
    for s in samples {
        println!(
            "{:<14} {:<18} {:>4} {:>4} {:>12} {:>14.0} {:>12.1}",
            s.path,
            s.op,
            2 * s.k,
            s.k,
            s.shard_bytes,
            s.ns_per_op,
            s.mb_per_s()
        );
    }
}

/// Prints how much faster `fast` encodes the (6, 3) code than `slow` at
/// `shard_bytes`, when both rows were measured.
fn print_encode_speedup(samples: &[Sample], shard_bytes: usize, fast: &str, slow: &str) {
    let find = |path: &str| {
        samples
            .iter()
            .find(|s| s.op == "encode" && s.path == path && s.k == 3 && s.shard_bytes == shard_bytes)
    };
    if let (Some(fast), Some(slow)) = (find(fast), find(slow)) {
        println!(
            "(6,3) encode @ {shard_bytes} B shards: {} {:.1} MB/s vs {} {:.1} MB/s → {:.1}×",
            fast.path,
            fast.mb_per_s(),
            slow.path,
            slow.mb_per_s(),
            slow.ns_per_op / fast.ns_per_op
        );
    }
}

fn main() {
    let smoke = std::env::args().skip(1).any(|arg| arg == "--smoke");
    // Captured before any force_kernel below: this is what production dispatch
    // (auto-detection plus any SEC_GF_KERNEL pin) actually selected.
    let auto_kernel = sec_gf::active_kernel();
    let ks = [3usize, 6, 12];
    let (kernel_sizes, min_total): (&[usize], _) = if smoke {
        (&[4096], Duration::from_millis(20))
    } else {
        (&[4096, 65536, 1 << 20, 1 << 22], Duration::from_millis(100))
    };

    let mut kernel_samples = Vec::new();
    let mut folded_samples = Vec::new();
    let mut edit_samples = Vec::new();
    for kernel in Kernel::available() {
        sec_gf::force_kernel(kernel).expect("available kernels can be forced");
        for k in ks {
            for &shard_bytes in kernel_sizes {
                Case::new(k, shard_bytes).measure_byte(kernel.name(), min_total, &mut kernel_samples);
            }
        }
        measure_folded(kernel.name(), min_total, &mut folded_samples);
        measure_edit64(kernel.name(), min_total, &mut edit_samples);
    }
    sec_gf::reset_kernel();

    println!("active kernel (auto-detected): {auto_kernel}");
    print_table("kernel", &kernel_samples);
    println!();
    print_table("kernel", &folded_samples);
    println!();
    print_table("kernel", &edit_samples);
    println!();
    let kernel_headline = *kernel_sizes.last().expect("at least one size");
    for kernel in Kernel::available().into_iter().filter(|&k| k != Kernel::Scalar) {
        print_encode_speedup(&kernel_samples, kernel_headline, kernel.name(), "scalar");
    }
}
