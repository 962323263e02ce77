//! Byte-shard pipeline throughput: encode, full decode and `2γ` sparse
//! recovery in MB/s, emitted as `BENCH_throughput.json` so later PRs have a
//! perf trajectory to beat.
//!
//! Three implementations are measured for each `(n, k) = (2k, k)` Cauchy
//! code, `k ∈ {3, 6, 12}`:
//!
//! * `byte` — the batched [`ByteCodec`] pipeline (split-table `GF(2^8)`
//!   kernels over contiguous shards);
//! * `generic-bulk` — the field-generic `Vec<Gf256>` shard path
//!   (`shards::encode_shards` / `decode_shards`), the reference
//!   implementation;
//! * `per-symbol` — one `code.encode` / `code.decode_full` /
//!   `code.decode_sparse` call per byte position, i.e. how the pre-fast-path
//!   archive layers processed large objects. Only measured where it finishes
//!   in reasonable time.
//!
//! A fourth series measures *read scaling*: a [`sec_engine::SecEngine`]
//! serving `get_version` retrievals from `threads ∈ {1, 4, 8}` concurrent
//! readers, reported as aggregate retrievals/s and MB/s. On a multi-core
//! host the sharded-lock engine scales reads near-linearly; the series
//! exists so the trajectory is tracked either way.
//!
//! A fifth series measures *shard scaling*: a [`sec_engine::SecCluster`]
//! routing a fixed 16-object workload across `shards ∈ {1, 4, 8}` while 8
//! reader threads retrieve mixed objects — more shards spread the same
//! objects over more independent lock domains (archive locks, node locks,
//! object maps), so aggregate throughput should hold or rise as S grows.
//!
//! A sixth series measures *placement scaling*: the same archive served by a
//! colocated engine (`n` shared nodes) vs a dispersed engine (`n` fresh
//! nodes per entry) under an **identical failure rate** (one node in six
//! down). Colocated loses one codeword position of every entry; dispersed
//! loses one position of each entry independently — read counts match, so
//! the comparison isolates the layout's lock/liveness topology.
//!
//! A seventh series measures *kernel dispatch*: the byte pipeline forced
//! onto each `GF(2^8)` SIMD kernel the host supports (`scalar`, `ssse3`,
//! `avx2`, `neon`) via [`sec_gf::force_kernel`], across shard sizes from
//! 4 KiB to 4 MiB. Rows carry the kernel name, the JSON reports the
//! auto-detected kernel as `active_kernel`, and the headline print shows
//! each SIMD kernel's speedup over scalar for the (6, 3) encode.
//!
//! An eighth series measures *cache scaling*: a (6, 3) Basic-SEC engine
//! holding a 64-version chain of PMF-driven sparse edits (alternating the
//! paper's truncated-exponential and truncated-Poisson sparsity models),
//! checkpointed every `c` deltas, read with version targets drawn Zipf-by-
//! recency. Rows report exact- and nearest-base hit rates of the delta
//! cache and the mean read amplification, which the checkpoint policy
//! bounds by `1 + c` (in units of `k` block reads).
//!
//! A ninth series measures *server scaling*: the [`sec_net::Server`] TCP
//! front-end on loopback under the closed-loop load generator, swept over
//! connection counts (1 → 10k), pipeline depths (1 vs 16 outstanding
//! `GET`s), and cache modes (exact delta-cache hits vs capacity-zero full
//! decodes). Rows report sustained req/s plus p50/p99/max microseconds —
//! the end-to-end reactor + parser + dispatch cost around the same
//! engine the other series measure in isolation.
//!
//! Run with `cargo run --release -p sec-bench --bin throughput`. Pass
//! `--smoke` for a quick CI-sized run (4 KiB shards only) and `--out <path>`
//! to change the JSON destination.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use sec_engine::{ObjectId, PlacementStrategy, SecCluster, SecEngine};
use sec_erasure::{shards, ByteCodec, ByteShards, GeneratorForm, SecCode, Share};
use sec_gf::{GaloisField, Gf256, Kernel};
use sec_versioning::{ArchiveConfig, CheckpointPolicy, EncodingStrategy};
use sec_workload::{SparsityPmf, ZipfPmf};

/// One measured data point.
struct Sample {
    op: &'static str,
    path: &'static str,
    n: usize,
    k: usize,
    shard_bytes: usize,
    ns_per_op: f64,
    mb_per_s: f64,
}

/// One kernel-dispatch data point: the byte pipeline forced onto a specific
/// `GF(2^8)` kernel.
struct KernelSample {
    kernel: &'static str,
    op: &'static str,
    n: usize,
    k: usize,
    shard_bytes: usize,
    ns_per_op: f64,
    mb_per_s: f64,
}

/// One read-scaling data point: aggregate engine throughput at a thread
/// count.
struct ScalingSample {
    threads: usize,
    shard_bytes: usize,
    retrievals: u64,
    retrievals_per_s: f64,
    mb_per_s: f64,
}

/// One placement-scaling data point: aggregate engine throughput for a
/// placement strategy under a fixed failure rate.
struct PlacementScalingSample {
    placement: PlacementStrategy,
    threads: usize,
    shard_bytes: usize,
    nodes: usize,
    failed_nodes: usize,
    retrievals: u64,
    retrievals_per_s: f64,
    mb_per_s: f64,
}

/// Measures `SecEngine::get_version` throughput under `placement` with
/// `threads` concurrent readers and one-in-six nodes failed: node 0 of the
/// shared group (colocated), or position 0 of every entry's private node set
/// (dispersed) — the same failure *rate* in both layouts, and read plans of
/// identical cost.
fn measure_placement_scaling(
    shard_bytes: usize,
    versions: usize,
    placement: PlacementStrategy,
    threads: usize,
    min_total: Duration,
) -> PlacementScalingSample {
    let config = ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec)
        .expect("(6,3) fits in GF(256)");
    let engine = SecEngine::with_placement(config, placement, 0).expect("engine builds");
    let mut object = vec![0u8; 3 * shard_bytes];
    fill(&mut object, shard_bytes as u64 + 29);
    engine.append_version(&object).expect("append v1");
    for v in 1..versions {
        object[(v * 131) % shard_bytes] ^= 0xA5;
        engine.append_version(&object).expect("append delta");
    }
    let nodes = engine.node_count();
    let mut failed_nodes = 0usize;
    for node in (0..nodes).step_by(6) {
        engine.fail_node(node).expect("in range");
        failed_nodes += 1;
    }
    let engine = Arc::new(engine);

    let calibrate = Instant::now();
    let mut calibration_rounds = 0u64;
    while calibrate.elapsed() < min_total / 4 {
        let l = (calibration_rounds as usize) % versions + 1;
        std::hint::black_box(engine.get_version(l).expect("retrieval"));
        calibration_rounds += 1;
    }
    let per_thread = calibration_rounds.max(1);

    let start = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                for i in 0..per_thread {
                    let l = (t + i as usize) % versions + 1;
                    std::hint::black_box(engine.get_version(l).expect("retrieval"));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("reader thread");
    }
    let elapsed = start.elapsed().as_secs_f64();
    let retrievals = per_thread * threads as u64;
    let object_bytes = 3 * shard_bytes;
    PlacementScalingSample {
        placement,
        threads,
        shard_bytes,
        nodes,
        failed_nodes,
        retrievals,
        retrievals_per_s: retrievals as f64 / elapsed,
        mb_per_s: (retrievals as f64 * object_bytes as f64 / 1e6) / elapsed,
    }
}

/// One cache-scaling data point: delta-cache hit rates and read
/// amplification for one checkpoint-spacing × cache-capacity pair.
struct CacheScalingSample {
    spacing: usize,
    cache_capacity: usize,
    versions: usize,
    retrievals: u64,
    hit_rate: f64,
    base_hit_rate: f64,
    deltas_applied: u64,
    checkpoints_written: u64,
    read_amplification: f64,
    retrievals_per_s: f64,
}

/// Measures delta-cache effectiveness on a (6, 3) Basic-SEC engine holding
/// a `versions`-long chain whose per-version sparsity alternates between
/// the paper's truncated-exponential and truncated-Poisson PMFs, with a
/// checkpoint every `spacing` deltas. The read phase draws `reads` version
/// targets Zipf-by-recency (rank 1 = the newest version) and reports the
/// cache's exact- and nearest-base hit rates plus the mean read
/// amplification: block reads per retrieval over `k`, which the checkpoint
/// policy bounds by `1 + spacing`.
fn measure_cache_scaling(
    shard_bytes: usize,
    versions: usize,
    spacing: usize,
    cache_capacity: usize,
    reads: u64,
) -> CacheScalingSample {
    let k = 3usize;
    let config = ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec)
        .expect("(6,3) fits in GF(256)")
        .with_checkpoints(CheckpointPolicy::every(spacing));
    let engine = SecEngine::with_cache(config, cache_capacity).expect("engine builds");

    let mut rng = StdRng::seed_from_u64(0x5EC5_CA1E ^ (spacing as u64) << 8 ^ cache_capacity as u64);
    let exponential = SparsityPmf::truncated_exponential(1.0, k).expect("valid PMF");
    let poisson = SparsityPmf::truncated_poisson(1.2, k).expect("valid PMF");
    let mut object = vec![0u8; k * shard_bytes];
    fill(&mut object, shard_bytes as u64 + 71);
    engine.append_version(&object).expect("append v1");
    for v in 1..versions {
        // One-byte edits in γ distinct blocks: the stored delta's sparsity
        // is exactly the PMF draw.
        let pmf = if v % 2 == 0 { &exponential } else { &poisson };
        let gamma = pmf.sample(&mut rng);
        for block in 0..gamma {
            object[block * shard_bytes + (v * 131) % shard_bytes] ^= 0xA5;
        }
        engine.append_version(&object).expect("append delta");
    }

    let zipf = ZipfPmf::new(1.1, versions).expect("valid PMF");
    let before = engine.metrics_snapshot().cache;
    let mut io_reads = 0u64;
    let start = Instant::now();
    for _ in 0..reads {
        let l = versions + 1 - zipf.sample(&mut rng);
        let r = engine.get_version(l).expect("retrieval");
        io_reads += r.io_reads as u64;
        std::hint::black_box(r);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let m = engine.metrics_snapshot();
    CacheScalingSample {
        spacing,
        cache_capacity,
        versions,
        retrievals: reads,
        hit_rate: (m.cache.hits - before.hits) as f64 / reads as f64,
        base_hit_rate: (m.cache.base_hits - before.base_hits) as f64 / reads as f64,
        deltas_applied: m.deltas_applied,
        checkpoints_written: m.checkpoints_written,
        read_amplification: io_reads as f64 / (reads as f64 * k as f64),
        retrievals_per_s: reads as f64 / elapsed,
    }
}

/// One shard-scaling data point: aggregate cluster throughput at a shard
/// count.
struct ShardScalingSample {
    shards: usize,
    objects: usize,
    threads: usize,
    shard_bytes: usize,
    retrievals: u64,
    retrievals_per_s: f64,
    mb_per_s: f64,
}

/// Measures `SecCluster::get_version` throughput with `threads` concurrent
/// readers retrieving mixed versions of `objects` objects routed across
/// `shards` shards of a (6, 3) Basic-SEC cluster, for roughly `min_total`
/// wall time. The workload (objects, versions, access order) is identical
/// at every shard count — only the routing fan-out changes.
fn measure_shard_scaling(
    shard_bytes: usize,
    objects: usize,
    versions: usize,
    shards: usize,
    threads: usize,
    min_total: Duration,
) -> ShardScalingSample {
    let config = ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec)
        .expect("(6,3) fits in GF(256)");
    let cluster = SecCluster::new(config, shards).expect("cluster builds");
    for raw in 0..objects as u64 {
        let id = ObjectId(raw);
        let mut object = vec![0u8; 3 * shard_bytes];
        fill(&mut object, raw * 1_000_003 + shard_bytes as u64);
        cluster.append_version(id, &object).expect("append v1");
        for v in 1..versions {
            // γ = 1 deltas: the paper's sweet spot, 2 block reads per delta.
            object[(v * 131) % shard_bytes] ^= 0xA5;
            cluster.append_version(id, &object).expect("append delta");
        }
    }
    let cluster = Arc::new(cluster);

    // Calibrate per-thread iterations on one thread, then run the measured
    // pass with all readers started together.
    let calibrate = Instant::now();
    let mut calibration_rounds = 0u64;
    while calibrate.elapsed() < min_total / 4 {
        let id = ObjectId(calibration_rounds % objects as u64);
        let l = (calibration_rounds as usize) % versions + 1;
        std::hint::black_box(cluster.get_version(id, l).expect("retrieval"));
        calibration_rounds += 1;
    }
    let per_thread = calibration_rounds.max(1);

    let start = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let cluster = Arc::clone(&cluster);
            std::thread::spawn(move || {
                for i in 0..per_thread {
                    let id = ObjectId((t as u64 + i) % objects as u64);
                    let l = (t + i as usize) % versions + 1;
                    std::hint::black_box(cluster.get_version(id, l).expect("retrieval"));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("reader thread");
    }
    let elapsed = start.elapsed().as_secs_f64();
    let retrievals = per_thread * threads as u64;
    let object_bytes = 3 * shard_bytes;
    ShardScalingSample {
        shards,
        objects,
        threads,
        shard_bytes,
        retrievals,
        retrievals_per_s: retrievals as f64 / elapsed,
        mb_per_s: (retrievals as f64 * object_bytes as f64 / 1e6) / elapsed,
    }
}

/// Measures `SecEngine::get_version` throughput with `threads` concurrent
/// readers hammering a (6, 3) Basic-SEC engine holding `versions` versions
/// of a `3 · shard_bytes` object, for roughly `min_total` wall time.
fn measure_read_scaling(
    shard_bytes: usize,
    versions: usize,
    threads: usize,
    min_total: Duration,
) -> ScalingSample {
    let config = ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec)
        .expect("(6,3) fits in GF(256)");
    let engine = SecEngine::new(config).expect("engine builds");
    let mut object = vec![0u8; 3 * shard_bytes];
    fill(&mut object, shard_bytes as u64 + 17);
    engine.append_version(&object).expect("append v1");
    for v in 1..versions {
        // Single-block edits keep every later version a γ = 1 delta, the
        // paper's sweet spot: 2 block reads per delta.
        object[(v * 131) % shard_bytes] ^= 0xA5;
        engine.append_version(&object).expect("append delta");
    }
    let engine = Arc::new(engine);

    // Calibrate per-thread iterations on one thread, then run the measured
    // pass with all readers started together.
    let calibrate = Instant::now();
    let mut calibration_rounds = 0u64;
    while calibrate.elapsed() < min_total / 4 {
        let l = (calibration_rounds as usize) % versions + 1;
        std::hint::black_box(engine.get_version(l).expect("retrieval"));
        calibration_rounds += 1;
    }
    let per_thread = calibration_rounds.max(1);

    let start = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                for i in 0..per_thread {
                    let l = (t + i as usize) % versions + 1;
                    std::hint::black_box(engine.get_version(l).expect("retrieval"));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("reader thread");
    }
    let elapsed = start.elapsed().as_secs_f64();
    let retrievals = per_thread * threads as u64;
    let object_bytes = 3 * shard_bytes;
    ScalingSample {
        threads,
        shard_bytes,
        retrievals,
        retrievals_per_s: retrievals as f64 / elapsed,
        mb_per_s: (retrievals as f64 * object_bytes as f64 / 1e6) / elapsed,
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

fn mb_per_s(object_bytes: usize, ns: f64) -> f64 {
    (object_bytes as f64 / 1e6) / (ns / 1e9)
}

/// One server-scaling data point: the TCP front-end serving wire `GET`s to
/// the loopback load generator at one (connections, pipeline, cache mode)
/// combination.
struct ServerScalingSample {
    connections: usize,
    pipeline: usize,
    cached: bool,
    requests: u64,
    errors: u64,
    req_per_s: f64,
    p50_us: u64,
    p99_us: u64,
    max_us: u64,
    backend: &'static str,
}

/// Measures end-to-end wire throughput: a [`sec_net::Server`] over a (6, 3)
/// Basic-SEC cluster on loopback, hammered by the closed-loop generator in
/// [`sec_net::load`] with `connections` sockets each keeping `pipeline`
/// `GET`s outstanding (`pipeline: 1` is the one-request-per-flush baseline).
/// `cached: true` requests only the newest version of each object, so after
/// the first touch every retrieval is an exact delta-cache hit and the
/// reactor/parser/syscall path dominates; `cached: false` runs a
/// capacity-zero cache and sweeps every stored version, so each request
/// pays a full `k`-shard decode.
fn measure_server_scaling(
    connections: usize,
    pipeline: usize,
    cached: bool,
    duration: Duration,
) -> ServerScalingSample {
    use sec_net::{load, Server, ServerConfig};
    let objects = 16u64;
    let versions = 4usize;
    let payload = 3 * 256usize;
    let config = ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec)
        .expect("(6,3) fits in GF(256)");
    let capacity = if cached { 8 } else { 0 };
    let cluster = Arc::new(SecCluster::with_cache(config, 4, capacity).expect("cluster builds"));
    for id in 0..objects {
        let history: Vec<Vec<u8>> = (0..versions)
            .map(|v| (0..payload).map(|i| (id as usize + v * 31 + i) as u8).collect())
            .collect();
        cluster.append_all(ObjectId(id), &history).expect("populate");
    }
    let handle = Server::start(Arc::clone(&cluster), "127.0.0.1:0", ServerConfig::default())
        .expect("server starts on loopback");
    let targets: Vec<(ObjectId, usize)> = if cached {
        (0..objects).map(|id| (ObjectId(id), versions)).collect()
    } else {
        (0..objects)
            .flat_map(|id| (1..=versions).map(move |v| (ObjectId(id), v)))
            .collect()
    };
    let load_config = load::LoadConfig {
        connections,
        pipeline,
        duration,
        open_loop_rate: None,
        seed: 0x5ec,
    };
    let report = load::run_get_load(handle.local_addr(), &targets, &load_config).expect("load run");
    handle.shutdown().expect("clean shutdown");
    ServerScalingSample {
        connections: report.connections,
        pipeline: report.pipeline,
        cached,
        requests: report.requests,
        errors: report.errors,
        req_per_s: report.req_per_sec,
        p50_us: report.p50_us,
        p99_us: report.p99_us,
        max_us: report.max_us,
        backend: report.backend,
    }
}

struct Args {
    smoke: bool,
    out: String,
}

fn parse_args() -> Args {
    let mut out = Args {
        smoke: false,
        out: "BENCH_throughput.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => out.smoke = true,
            "--out" => {
                if let Some(path) = args.next() {
                    out.out = path;
                }
            }
            _ => {}
        }
    }
    out
}

// The per-symbol baselines index by byte position into several parallel
// buffers; an iterator rewrite would obscure what is deliberately the naive
// reference loop.
#[allow(clippy::too_many_lines, clippy::needless_range_loop)]
fn main() -> std::io::Result<()> {
    let args = parse_args();
    // Capture before any force_kernel below: this is what production dispatch
    // (auto-detection plus any SEC_GF_KERNEL pin) actually selected.
    let auto_kernel = sec_gf::active_kernel();
    let sizes: &[usize] = if args.smoke {
        &[4096]
    } else {
        &[4096, 65536, 1 << 20]
    };
    let ks: &[usize] = &[3, 6, 12];
    let min_total = if args.smoke {
        Duration::from_millis(20)
    } else {
        Duration::from_millis(100)
    };
    let mut samples: Vec<Sample> = Vec::new();

    for &k in ks {
        let n = 2 * k;
        let code: SecCode<Gf256> =
            SecCode::cauchy(n, k, GeneratorForm::NonSystematic).expect("(2k,k) fits in GF(256)");
        let codec = ByteCodec::new(code.clone());

        for &shard_bytes in sizes {
            let object_bytes = k * shard_bytes;
            let mut object = vec![0u8; object_bytes];
            fill(&mut object, (k * 1_000_003 + shard_bytes) as u64);
            let data = ByteShards::from_flat(&object, k);
            let gamma = 1usize;
            let mut delta = ByteShards::zeroed(k, shard_bytes);
            fill(delta.shard_mut(k / 2), 42);

            // ---- byte path -------------------------------------------------
            let coded = codec.encode_blocks(&data).expect("encode");
            let coded_delta = codec.encode_blocks(&delta).expect("encode delta");
            let mut out = ByteShards::zeroed(n, shard_bytes);
            let ns = measure(
                || codec.encode_blocks_into(&data, &mut out).expect("encode"),
                min_total,
                1000,
            );
            samples.push(Sample {
                op: "encode",
                path: "byte",
                n,
                k,
                shard_bytes,
                ns_per_op: ns,
                mb_per_s: mb_per_s(object_bytes, ns),
            });

            let decode_rows: Vec<usize> = (k / 2..k / 2 + k).collect();
            let byte_shares: Vec<(usize, &[u8])> =
                decode_rows.iter().map(|&i| (i, coded.shard(i))).collect();
            let ns = measure(
                || {
                    std::hint::black_box(codec.decode_blocks(&byte_shares).expect("decode"));
                },
                min_total,
                1000,
            );
            samples.push(Sample {
                op: "decode",
                path: "byte",
                n,
                k,
                shard_bytes,
                ns_per_op: ns,
                mb_per_s: mb_per_s(object_bytes, ns),
            });

            let sparse_rows: Vec<usize> = (0..2 * gamma).collect();
            let sparse_shares: Vec<(usize, &[u8])> =
                sparse_rows.iter().map(|&i| (i, coded_delta.shard(i))).collect();
            let ns = measure(
                || {
                    std::hint::black_box(
                        codec
                            .recover_sparse_blocks(&sparse_shares, gamma)
                            .expect("recover"),
                    );
                },
                min_total,
                1000,
            );
            samples.push(Sample {
                op: "sparse_recover",
                path: "byte",
                n,
                k,
                shard_bytes,
                ns_per_op: ns,
                mb_per_s: mb_per_s(object_bytes, ns),
            });

            // ---- generic bulk path (scalar reference) ----------------------
            let sym_data: Vec<Vec<Gf256>> = (0..k)
                .map(|i| sec_gf::bulk::bytes_to_symbols(data.shard(i)))
                .collect();
            let ns = measure(
                || {
                    std::hint::black_box(shards::encode_shards(&code, &sym_data).expect("encode"));
                },
                min_total,
                50,
            );
            samples.push(Sample {
                op: "encode",
                path: "generic-bulk",
                n,
                k,
                shard_bytes,
                ns_per_op: ns,
                mb_per_s: mb_per_s(object_bytes, ns),
            });

            let sym_coded = shards::encode_shards(&code, &sym_data).expect("encode");
            let sym_shares: Vec<(usize, Vec<Gf256>)> =
                decode_rows.iter().map(|&i| (i, sym_coded[i].clone())).collect();
            let ns = measure(
                || {
                    std::hint::black_box(shards::decode_shards(&code, &sym_shares).expect("decode"));
                },
                min_total,
                50,
            );
            samples.push(Sample {
                op: "decode",
                path: "generic-bulk",
                n,
                k,
                shard_bytes,
                ns_per_op: ns,
                mb_per_s: mb_per_s(object_bytes, ns),
            });

            // ---- per-symbol path (pre-fast-path behaviour) -----------------
            // One matrix-vector product per byte position; decode even runs a
            // matrix inversion per position. Restricted to configurations that
            // complete in sensible time: encode everywhere it matters (k = 3
            // carries the headline 1 MiB comparison), decode/sparse at 4 KiB.
            if shard_bytes <= 65536 || k == 3 {
                let ns = measure(
                    || {
                        let mut out = vec![vec![0u8; shard_bytes]; n];
                        for position in 0..shard_bytes {
                            let obj: Vec<Gf256> = (0..k)
                                .map(|s| Gf256::from_u64(u64::from(data.shard(s)[position])))
                                .collect();
                            let codeword = code.encode(&obj).expect("encode");
                            for (row, symbol) in codeword.iter().enumerate() {
                                out[row][position] = symbol.to_u64() as u8;
                            }
                        }
                        std::hint::black_box(out);
                    },
                    min_total,
                    5,
                );
                samples.push(Sample {
                    op: "encode",
                    path: "per-symbol",
                    n,
                    k,
                    shard_bytes,
                    ns_per_op: ns,
                    mb_per_s: mb_per_s(object_bytes, ns),
                });
            }
            if shard_bytes == 4096 {
                let ns = measure(
                    || {
                        let mut out = vec![vec![0u8; shard_bytes]; k];
                        for position in 0..shard_bytes {
                            let pos_shares: Vec<Share<Gf256>> = decode_rows
                                .iter()
                                .map(|&i| (i, Gf256::from_u64(u64::from(coded.shard(i)[position]))))
                                .collect();
                            let obj = code.decode_full(&pos_shares).expect("decode");
                            for (row, symbol) in obj.iter().enumerate() {
                                out[row][position] = symbol.to_u64() as u8;
                            }
                        }
                        std::hint::black_box(out);
                    },
                    min_total,
                    3,
                );
                samples.push(Sample {
                    op: "decode",
                    path: "per-symbol",
                    n,
                    k,
                    shard_bytes,
                    ns_per_op: ns,
                    mb_per_s: mb_per_s(object_bytes, ns),
                });

                let ns = measure(
                    || {
                        let mut out = vec![vec![0u8; shard_bytes]; k];
                        for position in 0..shard_bytes {
                            let pos_shares: Vec<Share<Gf256>> = sparse_rows
                                .iter()
                                .map(|&i| {
                                    (i, Gf256::from_u64(u64::from(coded_delta.shard(i)[position])))
                                })
                                .collect();
                            let obj = code.decode_sparse(&pos_shares, gamma).expect("recover");
                            for (row, symbol) in obj.iter().enumerate() {
                                out[row][position] = symbol.to_u64() as u8;
                            }
                        }
                        std::hint::black_box(out);
                    },
                    min_total,
                    3,
                );
                samples.push(Sample {
                    op: "sparse_recover",
                    path: "per-symbol",
                    n,
                    k,
                    shard_bytes,
                    ns_per_op: ns,
                    mb_per_s: mb_per_s(object_bytes, ns),
                });
            }
        }
    }

    // ---- kernel dispatch: the byte pipeline on each supported kernel -------
    let kernel_sizes: &[usize] = if args.smoke {
        &[4096]
    } else {
        &[4096, 65536, 1 << 20, 1 << 22]
    };
    let mut kernel_samples: Vec<KernelSample> = Vec::new();
    for kernel in Kernel::available() {
        sec_gf::force_kernel(kernel).expect("available kernels can be forced");
        for &k in ks {
            let n = 2 * k;
            let code: SecCode<Gf256> =
                SecCode::cauchy(n, k, GeneratorForm::NonSystematic).expect("(2k,k) fits in GF(256)");
            let codec = ByteCodec::new(code);
            for &shard_bytes in kernel_sizes {
                let object_bytes = k * shard_bytes;
                let mut object = vec![0u8; object_bytes];
                fill(&mut object, (k * 500_009 + shard_bytes) as u64);
                let data = ByteShards::from_flat(&object, k);
                let mut out = ByteShards::zeroed(n, shard_bytes);
                let ns = measure(
                    || codec.encode_blocks_into(&data, &mut out).expect("encode"),
                    min_total,
                    1000,
                );
                kernel_samples.push(KernelSample {
                    kernel: kernel.name(),
                    op: "encode",
                    n,
                    k,
                    shard_bytes,
                    ns_per_op: ns,
                    mb_per_s: mb_per_s(object_bytes, ns),
                });

                let coded = codec.encode_blocks(&data).expect("encode");
                let decode_rows: Vec<usize> = (k / 2..k / 2 + k).collect();
                let shares: Vec<(usize, &[u8])> =
                    decode_rows.iter().map(|&i| (i, coded.shard(i))).collect();
                let ns = measure(
                    || {
                        std::hint::black_box(codec.decode_blocks(&shares).expect("decode"));
                    },
                    min_total,
                    1000,
                );
                kernel_samples.push(KernelSample {
                    kernel: kernel.name(),
                    op: "decode",
                    n,
                    k,
                    shard_bytes,
                    ns_per_op: ns,
                    mb_per_s: mb_per_s(object_bytes, ns),
                });

                let gamma = 1usize;
                let mut delta = ByteShards::zeroed(k, shard_bytes);
                fill(delta.shard_mut(k / 2), 43);
                let coded_delta = codec.encode_blocks(&delta).expect("encode delta");
                let sparse_shares: Vec<(usize, &[u8])> =
                    (0..2 * gamma).map(|i| (i, coded_delta.shard(i))).collect();
                let ns = measure(
                    || {
                        std::hint::black_box(
                            codec
                                .recover_sparse_blocks(&sparse_shares, gamma)
                                .expect("recover"),
                        );
                    },
                    min_total,
                    1000,
                );
                kernel_samples.push(KernelSample {
                    kernel: kernel.name(),
                    op: "sparse_recover",
                    n,
                    k,
                    shard_bytes,
                    ns_per_op: ns,
                    mb_per_s: mb_per_s(object_bytes, ns),
                });
            }
        }
    }
    // The scaling series below must run on production dispatch again.
    sec_gf::reset_kernel();

    // ---- concurrent read scaling through the serving engine ---------------
    let scaling_shard_bytes = if args.smoke { 4096 } else { 65536 };
    let scaling_versions = 8;
    let scaling: Vec<ScalingSample> = [1usize, 4, 8]
        .iter()
        .map(|&threads| measure_read_scaling(scaling_shard_bytes, scaling_versions, threads, min_total))
        .collect();

    // ---- shard scaling through the cluster router --------------------------
    let cluster_objects = 16;
    let cluster_versions = 4;
    let cluster_threads = 8;
    let shard_scaling: Vec<ShardScalingSample> = [1usize, 4, 8]
        .iter()
        .map(|&shards| {
            measure_shard_scaling(
                scaling_shard_bytes,
                cluster_objects,
                cluster_versions,
                shards,
                cluster_threads,
                min_total,
            )
        })
        .collect();

    // ---- placement scaling: colocated vs dispersed under failures ----------
    let placement_versions = 8;
    let placement_threads = 8;
    let placement_scaling: Vec<PlacementScalingSample> =
        [PlacementStrategy::Colocated, PlacementStrategy::Dispersed]
            .iter()
            .map(|&placement| {
                measure_placement_scaling(
                    scaling_shard_bytes,
                    placement_versions,
                    placement,
                    placement_threads,
                    min_total,
                )
            })
            .collect();

    // ---- cache scaling: hit rates and checkpointed read amplification ------
    let cache_versions = 64;
    let cache_reads: u64 = if args.smoke { 512 } else { 4096 };
    let cache_spacings: &[usize] = if args.smoke { &[0, 8] } else { &[0, 4, 8, 16] };
    let cache_capacities: &[usize] = if args.smoke { &[0, 8] } else { &[0, 4, 16] };
    let mut cache_scaling: Vec<CacheScalingSample> = Vec::new();
    for &spacing in cache_spacings {
        for &capacity in cache_capacities {
            cache_scaling.push(measure_cache_scaling(
                4096,
                cache_versions,
                spacing,
                capacity,
                cache_reads,
            ));
        }
    }

    // ---- server scaling: the TCP front-end under loopback load -------------
    // Both ends of every connection live in this process, so the fd budget
    // is two descriptors per connection plus headroom for the reactor.
    let nofile = sec_net::sys::raise_nofile(40_000);
    let max_connections = ((nofile.saturating_sub(256)) / 2) as usize;
    let server_duration = if args.smoke {
        Duration::from_millis(400)
    } else {
        Duration::from_secs(2)
    };
    let connection_levels: &[usize] = if args.smoke {
        &[1, 64, 1000]
    } else {
        &[1, 64, 1000, 10_000]
    };
    let mut server_modes: Vec<(usize, usize, bool)> = Vec::new();
    for &conns in connection_levels {
        let conns = conns.min(max_connections).max(1);
        for pipeline in [1usize, 16] {
            if !server_modes.contains(&(conns, pipeline, true)) {
                server_modes.push((conns, pipeline, true));
            }
        }
    }
    // Cold reads (capacity-zero cache, every version swept) at one mid-size
    // connection count: the decode cost, not the reactor, is the subject.
    let cold_pipelines: &[usize] = if args.smoke { &[16] } else { &[1, 16] };
    for &pipeline in cold_pipelines {
        server_modes.push((64.min(max_connections).max(1), pipeline, false));
    }
    let server_scaling: Vec<ServerScalingSample> = server_modes
        .iter()
        .map(|&(conns, pipeline, cached)| {
            measure_server_scaling(conns, pipeline, cached, server_duration)
        })
        .collect();

    // Human-readable table.
    println!(
        "{:<16} {:<14} {:>4} {:>4} {:>12} {:>14} {:>12}",
        "op", "path", "n", "k", "shard_bytes", "ns/op", "MB/s"
    );
    for s in &samples {
        println!(
            "{:<16} {:<14} {:>4} {:>4} {:>12} {:>14.0} {:>12.1}",
            s.op, s.path, s.n, s.k, s.shard_bytes, s.ns_per_op, s.mb_per_s
        );
    }

    println!("\nactive kernel (auto-detected): {auto_kernel}");
    println!(
        "{:<8} {:<16} {:>4} {:>4} {:>12} {:>14} {:>12}",
        "kernel", "op", "n", "k", "shard_bytes", "ns/op", "MB/s"
    );
    for s in &kernel_samples {
        println!(
            "{:<8} {:<16} {:>4} {:>4} {:>12} {:>14.0} {:>12.1}",
            s.kernel, s.op, s.n, s.k, s.shard_bytes, s.ns_per_op, s.mb_per_s
        );
    }

    println!(
        "\n{:<10} {:>12} {:>14} {:>16} {:>12}",
        "threads", "shard_bytes", "retrievals", "retrievals/s", "MB/s"
    );
    for s in &scaling {
        println!(
            "{:<10} {:>12} {:>14} {:>16.0} {:>12.1}",
            s.threads, s.shard_bytes, s.retrievals, s.retrievals_per_s, s.mb_per_s
        );
    }

    println!(
        "\n{:<8} {:>8} {:>8} {:>12} {:>14} {:>16} {:>12}",
        "shards", "objects", "threads", "shard_bytes", "retrievals", "retrievals/s", "MB/s"
    );
    for s in &shard_scaling {
        println!(
            "{:<8} {:>8} {:>8} {:>12} {:>14} {:>16.0} {:>12.1}",
            s.shards, s.objects, s.threads, s.shard_bytes, s.retrievals, s.retrievals_per_s, s.mb_per_s
        );
    }

    println!(
        "\n{:<11} {:>8} {:>7} {:>12} {:>14} {:>16} {:>12}",
        "placement", "nodes", "failed", "shard_bytes", "retrievals", "retrievals/s", "MB/s"
    );
    for s in &placement_scaling {
        println!(
            "{:<11} {:>8} {:>7} {:>12} {:>14} {:>16.0} {:>12.1}",
            s.placement,
            s.nodes,
            s.failed_nodes,
            s.shard_bytes,
            s.retrievals,
            s.retrievals_per_s,
            s.mb_per_s
        );
    }

    println!(
        "\n{:<8} {:>9} {:>9} {:>11} {:>13} {:>8} {:>8} {:>6}",
        "spacing", "capacity", "hit_rate", "base_rate", "checkpoints", "deltas", "amp", "bound"
    );
    for s in &cache_scaling {
        let bound = if s.spacing == 0 {
            "-".to_string()
        } else {
            format!("{}", 1 + s.spacing)
        };
        println!(
            "{:<8} {:>9} {:>9.3} {:>11.3} {:>13} {:>8} {:>8.3} {:>6}",
            s.spacing,
            s.cache_capacity,
            s.hit_rate,
            s.base_hit_rate,
            s.checkpoints_written,
            s.deltas_applied,
            s.read_amplification,
            bound
        );
    }

    println!(
        "\n{:<12} {:>9} {:>7} {:>12} {:>8} {:>12} {:>9} {:>9} {:>9} {:>7}",
        "connections",
        "pipeline",
        "mode",
        "requests",
        "errors",
        "req/s",
        "p50_us",
        "p99_us",
        "max_us",
        "backend"
    );
    for s in &server_scaling {
        println!(
            "{:<12} {:>9} {:>7} {:>12} {:>8} {:>12.0} {:>9} {:>9} {:>9} {:>7}",
            s.connections,
            s.pipeline,
            if s.cached { "cached" } else { "cold" },
            s.requests,
            s.errors,
            s.req_per_s,
            s.p50_us,
            s.p99_us,
            s.max_us,
            s.backend
        );
    }
    // Headline: the pipelining gain at the largest cached connection count.
    let cached_at = |conns: usize, pipeline: usize| {
        server_scaling
            .iter()
            .filter(|s| s.cached && s.pipeline == pipeline)
            .min_by_key(|s| s.connections.abs_diff(conns))
    };
    let top_conns = server_scaling
        .iter()
        .filter(|s| s.cached)
        .map(|s| s.connections)
        .max()
        .unwrap_or(1);
    if let (Some(unpipelined), Some(pipelined)) = (cached_at(top_conns, 1), cached_at(top_conns, 16)) {
        println!(
            "\nwire GETs @ {} connections: pipelined {:.0} req/s vs unpipelined {:.0} req/s → {:.1}×",
            pipelined.connections,
            pipelined.req_per_s,
            unpipelined.req_per_s,
            pipelined.req_per_s / unpipelined.req_per_s.max(1.0)
        );
    }

    // Headline speedup: byte vs per-symbol encode for the (6,3) code at the
    // largest measured shard size.
    let headline_size = *sizes.last().expect("at least one size");
    let find = |path: &str| {
        samples
            .iter()
            .find(|s| s.op == "encode" && s.path == path && s.k == 3 && s.shard_bytes == headline_size)
    };
    let speedup = match (find("byte"), find("per-symbol")) {
        (Some(byte), Some(scalar)) => {
            let speedup = scalar.ns_per_op / byte.ns_per_op;
            println!(
                "\n(6,3) encode @ {} B shards: byte path {:.1} MB/s vs per-symbol {:.1} MB/s → {speedup:.1}×",
                headline_size, byte.mb_per_s, scalar.mb_per_s
            );
            Some(speedup)
        }
        _ => None,
    };

    // Kernel headline: each SIMD kernel's (6,3) encode speedup over scalar at
    // the largest kernel-series shard size.
    let kernel_headline = *kernel_sizes.last().expect("at least one size");
    let kernel_encode = |name: &str| {
        kernel_samples.iter().find(|s| {
            s.kernel == name && s.op == "encode" && s.k == 3 && s.shard_bytes == kernel_headline
        })
    };
    if let Some(scalar) = kernel_encode("scalar") {
        for kernel in Kernel::available() {
            if kernel.name() == "scalar" {
                continue;
            }
            if let Some(simd) = kernel_encode(kernel.name()) {
                println!(
                    "(6,3) encode @ {} B shards: {} {:.1} MB/s vs scalar {:.1} MB/s → {:.1}×",
                    kernel_headline,
                    kernel.name(),
                    simd.mb_per_s,
                    scalar.mb_per_s,
                    scalar.ns_per_op / simd.ns_per_op
                );
            }
        }
    }

    // JSON emission (hand-rolled; the workspace has no serde).
    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"schema\": \"sec-bench-throughput/v7\",").unwrap();
    writeln!(json, "  \"smoke\": {},", args.smoke).unwrap();
    writeln!(json, "  \"active_kernel\": \"{auto_kernel}\",").unwrap();
    writeln!(json, "  \"headline_shard_bytes\": {headline_size},").unwrap();
    match speedup {
        Some(s) => writeln!(json, "  \"encode_6_3_speedup_byte_vs_per_symbol\": {s:.3},").unwrap(),
        None => writeln!(json, "  \"encode_6_3_speedup_byte_vs_per_symbol\": null,").unwrap(),
    }
    writeln!(json, "  \"results\": [").unwrap();
    for (idx, s) in samples.iter().enumerate() {
        let comma = if idx + 1 == samples.len() { "" } else { "," };
        writeln!(
            json,
            "    {{\"op\": \"{}\", \"path\": \"{}\", \"n\": {}, \"k\": {}, \"shard_bytes\": {}, \
             \"object_bytes\": {}, \"ns_per_op\": {:.1}, \"mb_per_s\": {:.3}}}{comma}",
            s.op,
            s.path,
            s.n,
            s.k,
            s.shard_bytes,
            s.k * s.shard_bytes,
            s.ns_per_op,
            s.mb_per_s
        )
        .unwrap();
    }
    writeln!(json, "  ],").unwrap();
    writeln!(json, "  \"kernel_dispatch\": [").unwrap();
    for (idx, s) in kernel_samples.iter().enumerate() {
        let comma = if idx + 1 == kernel_samples.len() { "" } else { "," };
        writeln!(
            json,
            "    {{\"kernel\": \"{}\", \"op\": \"{}\", \"n\": {}, \"k\": {}, \"shard_bytes\": {}, \
             \"object_bytes\": {}, \"ns_per_op\": {:.1}, \"mb_per_s\": {:.3}}}{comma}",
            s.kernel,
            s.op,
            s.n,
            s.k,
            s.shard_bytes,
            s.k * s.shard_bytes,
            s.ns_per_op,
            s.mb_per_s
        )
        .unwrap();
    }
    writeln!(json, "  ],").unwrap();
    writeln!(json, "  \"read_scaling\": [").unwrap();
    for (idx, s) in scaling.iter().enumerate() {
        let comma = if idx + 1 == scaling.len() { "" } else { "," };
        writeln!(
            json,
            "    {{\"engine\": \"sec-engine\", \"n\": 6, \"k\": 3, \"strategy\": \"basic-sec\", \
             \"versions\": {scaling_versions}, \"threads\": {}, \"shard_bytes\": {}, \
             \"retrievals\": {}, \"retrievals_per_s\": {:.1}, \"mb_per_s\": {:.3}}}{comma}",
            s.threads, s.shard_bytes, s.retrievals, s.retrievals_per_s, s.mb_per_s
        )
        .unwrap();
    }
    writeln!(json, "  ],").unwrap();
    writeln!(json, "  \"shard_scaling\": [").unwrap();
    for (idx, s) in shard_scaling.iter().enumerate() {
        let comma = if idx + 1 == shard_scaling.len() { "" } else { "," };
        writeln!(
            json,
            "    {{\"engine\": \"sec-cluster\", \"n\": 6, \"k\": 3, \"strategy\": \"basic-sec\", \
             \"shards\": {}, \"objects\": {}, \"versions\": {cluster_versions}, \"threads\": {}, \
             \"shard_bytes\": {}, \"retrievals\": {}, \"retrievals_per_s\": {:.1}, \
             \"mb_per_s\": {:.3}}}{comma}",
            s.shards, s.objects, s.threads, s.shard_bytes, s.retrievals, s.retrievals_per_s, s.mb_per_s
        )
        .unwrap();
    }
    writeln!(json, "  ],").unwrap();
    writeln!(json, "  \"placement_scaling\": [").unwrap();
    for (idx, s) in placement_scaling.iter().enumerate() {
        let comma = if idx + 1 == placement_scaling.len() {
            ""
        } else {
            ","
        };
        writeln!(
            json,
            "    {{\"engine\": \"sec-engine\", \"n\": 6, \"k\": 3, \"strategy\": \"basic-sec\", \
             \"placement\": \"{}\", \"versions\": {placement_versions}, \"threads\": {}, \
             \"nodes\": {}, \"failed_nodes\": {}, \"shard_bytes\": {}, \"retrievals\": {}, \
             \"retrievals_per_s\": {:.1}, \"mb_per_s\": {:.3}}}{comma}",
            s.placement,
            s.threads,
            s.nodes,
            s.failed_nodes,
            s.shard_bytes,
            s.retrievals,
            { s.retrievals_per_s },
            s.mb_per_s
        )
        .unwrap();
    }
    writeln!(json, "  ],").unwrap();
    writeln!(json, "  \"cache_scaling\": [").unwrap();
    for (idx, s) in cache_scaling.iter().enumerate() {
        let comma = if idx + 1 == cache_scaling.len() { "" } else { "," };
        let bound = if s.spacing == 0 {
            "null".to_string()
        } else {
            (1 + s.spacing).to_string()
        };
        writeln!(
            json,
            "    {{\"engine\": \"sec-engine\", \"n\": 6, \"k\": 3, \"strategy\": \"basic-sec\", \
             \"versions\": {}, \"checkpoint_spacing\": {}, \"cache_capacity\": {}, \
             \"retrievals\": {}, \"hit_rate\": {:.4}, \"base_hit_rate\": {:.4}, \
             \"deltas_applied\": {}, \"checkpoints_written\": {}, \"read_amplification\": {:.4}, \
             \"amplification_bound\": {bound}, \"retrievals_per_s\": {:.1}}}{comma}",
            s.versions,
            s.spacing,
            s.cache_capacity,
            s.retrievals,
            s.hit_rate,
            s.base_hit_rate,
            s.deltas_applied,
            s.checkpoints_written,
            s.read_amplification,
            s.retrievals_per_s
        )
        .unwrap();
    }
    writeln!(json, "  ],").unwrap();
    writeln!(json, "  \"server_scaling\": [").unwrap();
    for (idx, s) in server_scaling.iter().enumerate() {
        let comma = if idx + 1 == server_scaling.len() { "" } else { "," };
        writeln!(
            json,
            "    {{\"engine\": \"sec-net\", \"n\": 6, \"k\": 3, \"strategy\": \"basic-sec\", \
             \"backend\": \"{}\", \"connections\": {}, \"pipeline\": {}, \"mode\": \"{}\", \
             \"requests\": {}, \"errors\": {}, \"req_per_s\": {:.1}, \"p50_us\": {}, \
             \"p99_us\": {}, \"max_us\": {}}}{comma}",
            s.backend,
            s.connections,
            s.pipeline,
            if s.cached { "cached" } else { "cold" },
            s.requests,
            s.errors,
            s.req_per_s,
            s.p50_us,
            s.p99_us,
            s.max_us
        )
        .unwrap();
    }
    writeln!(json, "  ]").unwrap();
    writeln!(json, "}}").unwrap();
    std::fs::write(&args.out, json)?;
    println!("(json written to {})", args.out);
    Ok(())
}
