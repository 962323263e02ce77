//! Direct timings of single public functions of each layer, at the workload's
//! code parameters and block size. They say what one layer can do alone; the
//! ladder in `ladder.rs` says what it did for a request.

use std::hint::black_box;
use std::time::Instant;

use sec_erasure::read_plan::{plan_read, ReadTarget};
use sec_erasure::{ByteCodec, ByteShards};
use sec_gf::{bulk8, GaloisField, Gf256};
use sec_net::proto;

use crate::gen::{Data, Op, Script};
use crate::spec::Spec;
use crate::stats::median;

/// Nanoseconds per call of `f`: the median of five batches of about 10 ms.
pub fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut calls = 0u32;
    while t.elapsed().as_millis() < 2 {
        f();
        calls += 1;
    }
    let per_batch = calls * 5;
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            t.elapsed().as_nanos() as f64 / f64::from(per_batch)
        })
        .collect();
    median(&batches)
}

pub fn measure(
    spec: &Spec,
    codec: &ByteCodec,
    data: &Data,
    sample: &Script,
) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let (n, k, shard_len) = (spec.n, spec.k, spec.shard_len());
    let object = data.version(0, 1);
    let user_mb = object.len() as f64 / 1e6;

    let src: Vec<u8> = object.iter().copied().cycle().take(32 * 1024).collect();
    let mut dst = vec![0u8; src.len()];
    let ns = ns_per_call(|| bulk8::mul_add_slice(Gf256::from_u64(0x53), black_box(&src), &mut dst));
    out.push(("gf.mul_add_gb_s", src.len() as f64 / ns));

    let shards = ByteShards::from_flat(object, k);
    let ns = ns_per_call(|| {
        black_box(codec.encode_blocks(black_box(&shards)).expect("k shards encode"));
    });
    out.push(("erasure.encode_mb_s", user_mb / (ns / 1e9)));

    // Decode from the blocks a fully degraded shard still has, so that a
    // systematic code does real arithmetic here too.
    let coded = codec.encode_blocks(&shards).expect("k shards encode");
    let live: Vec<usize> = (0..n).filter(|i| !spec.failed_nodes().contains(i)).collect();
    let shares: Vec<(usize, &[u8])> = live[..k].iter().map(|&i| (i, coded.shard(i))).collect();
    let ns = ns_per_call(|| {
        black_box(
            codec
                .decode_blocks(black_box(&shares))
                .expect("k live blocks decode"),
        );
    });
    out.push(("erasure.decode_mb_s", user_mb / (ns / 1e9)));

    // A 1-sparse delta, recovered from the two blocks the plan picks.
    let mut delta = vec![0u8; object.len()];
    delta[shard_len..shard_len + 64].fill(0xA5);
    let coded_delta = codec
        .encode_blocks(&ByteShards::from_flat(&delta, k))
        .expect("k shards encode");
    let all: Vec<usize> = (0..n).collect();
    let target = ReadTarget::Sparse { gamma: 1 };
    let plan = plan_read(codec.code(), &all, target).expect("all nodes live");
    let shares: Vec<(usize, &[u8])> = plan.nodes.iter().map(|&i| (i, coded_delta.shard(i))).collect();
    let ns = ns_per_call(|| {
        black_box(
            codec
                .recover_sparse_blocks(black_box(&shares), 1)
                .expect("1-sparse delta recovers"),
        );
    });
    out.push(("erasure.sparse_recover_mb_s", user_mb / (ns / 1e9)));
    out.push((
        "erasure.plan_read_ns",
        ns_per_call(|| {
            black_box(plan_read(codec.code(), black_box(&all), target).expect("all nodes live"));
        }),
    ));

    let gets: Vec<usize> = (0..sample.len())
        .filter(|&i| sample.reqs[i].op == Op::Get)
        .collect();
    let mut at = 0;
    out.push((
        "net.parse_ns_per_frame",
        ns_per_call(|| {
            black_box(proto::parse_command(black_box(
                sample.head(gets[at % gets.len()]),
            )));
            at += 1;
        }),
    ));
    let mut reply = Vec::with_capacity(object.len() + 32);
    out.push((
        "net.reply_encode_ns",
        ns_per_call(|| {
            reply.clear();
            proto::write_bulk(&mut reply, black_box(object));
        }),
    ));
    out
}
