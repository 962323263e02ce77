//! The traced run's layer ladder.
//!
//! The benchmark may not put spans inside the program, so it measures each
//! layer from outside: every request of a fixed seeded sample is sent over
//! the wire and then re-enacted one layer lower at a time against twin state
//! built from the same versions —
//!
//! `request` (wire round trip) ⊃ `net.encode`, `net.parse`, `net.reply`,
//! `engine.call` (`SecCluster` on a twin cluster) ⊃ `versioning.call`
//! (`ByteVersionedArchive` on twin archives) ⊃ `erasure.call` (`plan_read` +
//! `ByteCodec` over the entries the walk touches) ⊃ `gf.call`
//! (`bulk8::mul_add_slice` over as many products).
//!
//! A layer's self time is its span minus its children. The descent stops at
//! `engine.call` when the engine answered from its cache (`cached`), because
//! the twin archives have no cache and would re-enact work the engine did not
//! do. The twins below the engine are always healthy, so the extra decoding a
//! degraded read costs shows as engine self time (a documented limit).

use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Instant;

use sec_engine::{CacheStats, ObjectId, SecCluster};
use sec_erasure::read_plan::{plan_read, DecodeMethod, ReadTarget};
use sec_erasure::{ByteCodec, ByteShards};
use sec_gf::{bulk8, GaloisField, Gf256};
use sec_net::proto::{self, Command};
use sec_versioning::{ByteEncodedEntry, ByteVersionedArchive, EncodingStrategy, IoModel, StoredPayload};

use crate::client::{Client, Verify};
use crate::gen::{plan_trace_sample, Data, Op, Req, Script};
use crate::micro;
use crate::run::{archive_config, new_cluster, Live};
use crate::spec::{Kind, Spec};
use crate::stats::{median, p50_p99_us, ratio};
use crate::sys;
use crate::trace::{self_times_ns, Tracer};

/// The state the lower rungs run against.
struct Twins {
    cluster: SecCluster,
    archives: Vec<ByteVersionedArchive>,
    codec: ByteCodec,
    model: IoModel,
    all_nodes: Vec<usize>,
    scratch: Vec<u8>,
    engine_append_us: Vec<f64>,
    versioning_append_us: Vec<f64>,
}

impl Twins {
    fn build(spec: &Spec, data: &Data) -> io::Result<Twins> {
        let config = archive_config(spec);
        let cluster = new_cluster(spec);
        let mut archives = Vec::with_capacity(spec.objects);
        let mut engine_append_us = Vec::new();
        let mut versioning_append_us = Vec::new();
        for (object, history) in data.versions.iter().enumerate() {
            let mut archive = ByteVersionedArchive::new(config).map_err(io::Error::other)?;
            for version in &history[..spec.versions] {
                let t = Instant::now();
                cluster
                    .append_version(ObjectId(object as u64), version)
                    .map_err(io::Error::other)?;
                engine_append_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                let t = Instant::now();
                archive.append_version(version).map_err(io::Error::other)?;
                versioning_append_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            }
            archives.push(archive);
        }
        Ok(Twins {
            codec: archives[0].codec().clone(),
            cluster,
            archives,
            model: config.io_model(),
            all_nodes: (0..spec.n).collect(),
            scratch: vec![0u8; spec.shard_len()],
            engine_append_us,
            versioning_append_us,
        })
    }

    fn payloads(&self, object: u32) -> Vec<StoredPayload> {
        self.archives[object as usize]
            .stored_entries()
            .iter()
            .map(|e| e.payload)
            .collect()
    }
}

/// Stored entries a Basic-SEC read of version `v` decodes: from the nearest
/// stored full version at or before it, through `v`.
fn touched(payloads: &[StoredPayload], v: usize) -> std::ops::Range<usize> {
    let anchor = (0..v)
        .rev()
        .find(|&i| matches!(payloads[i], StoredPayload::FullVersion { .. }))
        .unwrap_or(0);
    anchor..v
}

/// What decoding one entry cost the codec, for the rung below to repeat.
struct Decoded {
    products: usize,
    sparse: bool,
}

/// The erasure layer's part of reading `entries` with every node alive: plan
/// each read, then decode the planned blocks.
fn erasure_decode(
    codec: &ByteCodec,
    all_nodes: &[usize],
    entries: &[&ByteEncodedEntry],
) -> Vec<Decoded> {
    let k = codec.code().k();
    entries
        .iter()
        .filter_map(|entry| {
            let target = match entry.payload {
                StoredPayload::FullVersion { .. } => ReadTarget::Full,
                StoredPayload::Delta { sparsity: 0, .. } => return None,
                StoredPayload::Delta { sparsity, .. } => ReadTarget::Sparse { gamma: sparsity },
            };
            let plan = plan_read(codec.code(), all_nodes, target).expect("all nodes are live");
            let shares: Vec<(usize, &[u8])> =
                plan.nodes.iter().map(|&i| (i, entry.shards.shard(i))).collect();
            let (decoded, products) = match (plan.method, target) {
                (DecodeMethod::SparseRecovery, ReadTarget::Sparse { gamma }) => (
                    codec.recover_sparse_blocks(&shares, gamma),
                    shares.len() * shares.len(),
                ),
                (DecodeMethod::SystematicDirect, _) => (codec.decode_blocks(&shares), k),
                _ => (codec.decode_blocks(&shares), k * k),
            };
            black_box(decoded.expect("healthy blocks decode"));
            Some(Decoded {
                products,
                sparse: plan.method == DecodeMethod::SparseRecovery,
            })
        })
        .collect()
}

/// The field layer's part: `products` multiply-accumulates over block-sized
/// slices — `k²` for an inversion decode, `k` for systematic copies, `(2γ)²`
/// for a sparse recovery (its early-exiting wrong guesses are not counted),
/// `n·k` for an encode.
fn gf_products(products: usize, block: &[u8], scratch: &mut [u8]) {
    for p in 0..products {
        bulk8::mul_add_slice(Gf256::from_u64(2 + (p as u64 % 250)), black_box(block), scratch);
    }
    black_box(scratch);
}

#[derive(Default)]
struct Counts {
    entries_touched: usize,
    entries_decoded: usize,
    entries_sparse: usize,
    model_reads: u64,
    /// Set when the first `FAIL` goes out: model and observed reads so far.
    healthy: Option<(u64, u64)>,
}

type Metrics = Vec<(&'static str, f64)>;

/// Runs the ladder for one workload and returns its per-layer metrics.
pub fn run(
    spec: &Spec,
    data: &Data,
    seed: u64,
    sample_len: usize,
    untraced_get_p50_us: f64,
    out_path: &Path,
) -> io::Result<Metrics> {
    let sample = plan_trace_sample(spec, data, seed, sample_len);
    let live = Live::start(spec, data)?;
    let mut client = Client::connect(live.addr)?;
    let mut twins = Twins::build(spec, data)?;
    let mut tracer = Tracer::new(sample.len() * 9);
    let mut counts = Counts::default();
    let mut failed = 0u64;
    let mut frame = Vec::with_capacity(spec.object_len + 64);
    let mut reply = Vec::with_capacity(spec.object_len * spec.versions.max(1) + 4096);

    // One untimed round trip so that the server thread exists and is named.
    let mut ping = Script::default();
    for _ in 0..1000 {
        ping.push(Op::Ping, 0, 0, data);
    }
    client.send(&ping, 0..1, data)?;
    client.recv(ping.reqs[0], data, Verify::Full)?;
    let server_tids = sys::threads_named("sec-net-");
    sys::exclude_this_thread_from_alloc_counts();
    let before = live.cluster.metrics_snapshot();
    let switches_before = sys::threads_voluntary_switches(&server_tids);
    let bytes_before = client.bytes_in;
    let allocs_before = sys::alloc_counts();

    for (i, &req) in sample.reqs.iter().enumerate() {
        if req.op == Op::Fail && counts.healthy.is_none() {
            let observed = live.cluster.metrics_snapshot().io.symbol_reads - before.io.symbol_reads;
            counts.healthy = Some((counts.model_reads, observed));
        }
        let (ok, request) = tracer.span("request", 0, i, || -> io::Result<bool> {
            sys::set_alloc_counting(true);
            client.send(&sample, i..i + 1, data)?;
            let ok = client.recv(req, data, Verify::Full);
            sys::set_alloc_counting(false);
            ok
        });
        failed += u64::from(!ok?);
        descend(
            spec,
            data,
            req,
            i,
            request,
            &mut twins,
            &mut tracer,
            &mut counts,
            &mut frame,
            &mut reply,
        )?;
    }

    let after = live.cluster.metrics_snapshot();
    let allocs = sys::alloc_counts();
    let switches = sys::threads_voluntary_switches(&server_tids) - switches_before;
    let ops = sample.len() as f64;
    let gets = sample.reqs.iter().filter(|r| r.op == Op::Get).count() as f64;
    let observed_reads = after.io.symbol_reads - before.io.symbol_reads;
    let cache = |pick: fn(&CacheStats) -> u64| (pick(&after.cache) - pick(&before.cache)) as f64;
    let lookups = cache(|c| c.hits) + cache(|c| c.base_hits) + cache(|c| c.misses);
    let node_reads: Vec<f64> = after
        .shards
        .iter()
        .flat_map(|s| s.node_reads.iter().map(|&r| r as f64))
        .collect();
    let busiest = node_reads.iter().copied().fold(0.0, f64::max);
    let mut m: Metrics = vec![
        (
            "net.reply_bytes_per_op",
            (client.bytes_in - bytes_before) as f64 / ops,
        ),
        ("net.ctx_switches_per_op", switches as f64 / ops),
        ("net.allocs_per_op", (allocs.0 - allocs_before.0) as f64 / ops),
        (
            "net.alloc_bytes_per_op",
            (allocs.1 - allocs_before.1) as f64 / ops,
        ),
        ("store.block_reads", observed_reads as f64),
        (
            "store.block_writes",
            (after.io.symbol_writes - before.io.symbol_writes) as f64,
        ),
        (
            "store.failed_reads",
            (after.io.failed_reads - before.io.failed_reads) as f64,
        ),
        (
            "store.node_read_skew",
            ratio(busiest * node_reads.len() as f64, node_reads.iter().sum()),
        ),
        ("versioning.cache_exact_ratio", ratio(cache(|c| c.hits), lookups)),
        (
            "versioning.cache_base_ratio",
            ratio(cache(|c| c.base_hits), lookups),
        ),
        ("versioning.cache_miss_ratio", ratio(cache(|c| c.misses), lookups)),
        ("versioning.checkpoints_written", after.checkpoints_written as f64),
        (
            "versioning.model_read_ratio",
            ratio(observed_reads as f64, counts.model_reads as f64),
        ),
        (
            "versioning.entries_per_get",
            ratio(counts.entries_touched as f64, gets),
        ),
        (
            "versioning.deltas_applied_per_get",
            ratio((after.deltas_applied - before.deltas_applied) as f64, gets),
        ),
        (
            "erasure.sparse_decode_share",
            ratio(counts.entries_sparse as f64, counts.entries_decoded as f64),
        ),
        ("versioning.append_us", median(&twins.versioning_append_us)),
        ("engine.append_us", median(&twins.engine_append_us)),
    ];
    m.extend(rung_metrics(&tracer, &sample, untraced_get_p50_us));
    m.extend(direct_engine_metrics(spec, &twins.cluster, &sample)?);
    let mut ping_ns = ping_rtts(&mut client, &ping, data)?;
    m.push(("net.ping_rtt_us", p50_p99_us(&mut ping_ns).0));
    m.extend(micro::measure(spec, &twins.codec, data, &sample));
    drop(client);
    live.stop()?;
    tracer.write_jsonl(out_path)?;

    // Built-in checks of the traced run.
    if failed > 0 {
        return Err(io::Error::other(format!(
            "{failed} traced replies failed verification"
        )));
    }
    let healthy = counts.healthy.unwrap_or((counts.model_reads, observed_reads));
    if matches!(spec.kind, Kind::ColdArchive | Kind::DegradedRead) && healthy.0 != healthy.1 {
        return Err(io::Error::other(format!(
            "healthy reads cost {} block reads, the I/O model says {}",
            healthy.1, healthy.0
        )));
    }
    if spec.kind == Kind::HotGet && observed_reads != 0 {
        return Err(io::Error::other(format!(
            "hot_get read {observed_reads} blocks after warm-up"
        )));
    }
    let reconcile = m
        .iter()
        .find(|(name, _)| *name == "workload.request_reconcile_ratio")
        .map_or(0.0, |&(_, v)| v);
    if !(0.85..=1.15).contains(&reconcile) {
        return Err(io::Error::other(format!(
            "layer self times sum to {reconcile:.3} of the request median, outside 15 %"
        )));
    }
    Ok(m)
}

/// Per-GET medians of every rung's duration and self time. The sample's
/// other requests were replayed to keep the twins in step and their spans
/// are in the file, but the medians are over GETs, where every workload has
/// most of its requests.
fn rung_metrics(tracer: &Tracer, sample: &Script, untraced_get_p50_us: f64) -> Metrics {
    const RUNGS: [&str; 8] = [
        "request",
        "net.encode",
        "net.parse",
        "net.reply",
        "engine.call",
        "versioning.call",
        "erasure.call",
        "gf.call",
    ];
    let own = self_times_ns(&tracer.spans);
    let gets: Vec<usize> = (0..sample.len())
        .filter(|&i| sample.reqs[i].op == Op::Get)
        .collect();
    // self_us[rung][request]: zero where a GET never reached the rung.
    let mut self_us = vec![vec![0.0f64; sample.len()]; RUNGS.len()];
    let mut duration_us = vec![Vec::new(); RUNGS.len()];
    for (span, &own_ns) in tracer.spans.iter().zip(&own) {
        if sample.reqs[span.request as usize].op != Op::Get {
            continue;
        }
        let rung = RUNGS
            .iter()
            .position(|&r| r == span.name)
            .expect("every span is a rung");
        self_us[rung][span.request as usize] += own_ns as f64 / 1e3;
        duration_us[rung].push(span.duration_ns() as f64 / 1e3);
    }
    let per_get = |rung: usize| -> f64 {
        let values: Vec<f64> = gets.iter().map(|&i| self_us[rung][i]).collect();
        median(&values)
    };
    let request_us = median(&duration_us[0]);
    let layers_us: f64 = (0..RUNGS.len()).map(per_get).sum();
    vec![
        ("net.self_us_per_op", per_get(0)),
        ("engine.call_us", median(&duration_us[4])),
        ("engine.self_us_per_get", per_get(4)),
        ("versioning.retrieve_us", median(&duration_us[5])),
        ("versioning.self_us_per_get", per_get(5)),
        ("erasure.self_us_per_get", per_get(6)),
        ("workload.request_reconcile_ratio", ratio(layers_us, request_us)),
        (
            "workload.trace_overhead_ratio",
            ratio(request_us, untraced_get_p50_us),
        ),
    ]
}

/// Direct `SecCluster` calls on the twin, in the state the sample left it.
fn direct_engine_metrics(spec: &Spec, twin: &SecCluster, sample: &Script) -> io::Result<Metrics> {
    let pairs: Vec<(ObjectId, usize)> = sample
        .reqs
        .iter()
        .filter(|r| r.op == Op::Get)
        .take(64)
        .map(|r| (ObjectId(u64::from(r.a)), r.b as usize))
        .collect();
    let mut looped = Vec::new();
    let mut batched = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for &(id, v) in &pairs {
            black_box(twin.get_version(id, v).map_err(io::Error::other)?);
        }
        looped.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        black_box(twin.get_batch(&pairs));
        batched.push(t.elapsed().as_nanos() as f64);
    }
    let mut prefix_ms = Vec::new();
    for object in 0..spec.objects.min(8) {
        let id = ObjectId(object as u64);
        let l = twin.version_count(id).unwrap_or(0);
        let t = Instant::now();
        black_box(twin.get_prefix(id, l).map_err(io::Error::other)?);
        prefix_ms.push(t.elapsed().as_nanos() as f64 / 1e6);
    }
    Ok(vec![
        ("engine.batch_speedup", ratio(median(&looped), median(&batched))),
        ("engine.prefix_ms", median(&prefix_ms)),
    ])
}

fn ping_rtts(client: &mut Client, ping: &Script, data: &Data) -> io::Result<Vec<u64>> {
    let mut ns = Vec::with_capacity(ping.len());
    for (i, &req) in ping.reqs.iter().enumerate() {
        let t = Instant::now();
        client.send(ping, i..i + 1, data)?;
        client.recv(req, data, Verify::Full)?;
        ns.push(t.elapsed().as_nanos() as u64);
    }
    Ok(ns)
}

/// Re-enacts request `i` one layer lower at a time, below the wire.
#[allow(clippy::too_many_arguments)]
fn descend(
    spec: &Spec,
    data: &Data,
    req: Req,
    i: usize,
    request: u32,
    twins: &mut Twins,
    tracer: &mut Tracer,
    counts: &mut Counts,
    frame: &mut Vec<u8>,
    reply: &mut Vec<u8>,
) -> io::Result<()> {
    let id = ObjectId(u64::from(req.a));
    let version = req.b as usize;
    if req.op == Op::Fail {
        // State only: the twin cluster must plan around the same dead nodes.
        return twins
            .cluster
            .fail_node(req.a as usize, req.b as usize)
            .map_err(io::Error::other);
    }
    let command = match req.op {
        Op::Get => Command::Get { object: id, version },
        Op::Prefix => Command::Prefix { object: id, version },
        Op::Append => Command::Append {
            object: id,
            payload: data.version(req.a, req.b),
        },
        Op::Fail | Op::Ping => unreachable!("handled above / never sampled"),
    };
    tracer.span("net.encode", request, i, || {
        frame.clear();
        proto::encode_command(&command, frame);
    });
    tracer.span("net.parse", request, i, || {
        black_box(proto::parse_command(black_box(frame)));
    });
    reply.clear();
    let strategy = EncodingStrategy::BasicSec;
    match req.op {
        Op::Get => {
            let (got, engine) = tracer.span("engine.call", request, i, || {
                twins.cluster.get_version(id, version)
            });
            let got = got.map_err(io::Error::other)?;
            tracer.span("net.reply", request, i, || proto::write_bulk(reply, &got.data));
            let payloads = twins.payloads(req.a);
            counts.model_reads +=
                twins.model.version_reads_for_layout(strategy, &payloads, version) as u64;
            if got.cached {
                return Ok(());
            }
            let archive = &twins.archives[req.a as usize];
            let (read, versioning) =
                tracer.span("versioning.call", engine, i, || archive.retrieve_version(version));
            let read = read.map_err(io::Error::other)?;
            let range = touched(&payloads, version);
            if range.len() != read.entries_read {
                return Err(io::Error::other(
                    "the benchmark's walk disagrees with the archive's",
                ));
            }
            counts.entries_touched += range.len();
            let entries = archive.stored_entries();
            lower_rungs(
                &entries[range],
                versioning,
                i,
                &twins.codec,
                &twins.all_nodes,
                &mut twins.scratch,
                tracer,
                counts,
            );
        }
        Op::Prefix => {
            let (got, engine) = tracer.span("engine.call", request, i, || {
                twins.cluster.get_prefix(id, version)
            });
            let got = got.map_err(io::Error::other)?;
            tracer.span("net.reply", request, i, || {
                proto::write_array_header(reply, got.versions.len());
                for v in &got.versions {
                    proto::write_bulk(reply, v);
                }
            });
            let payloads = twins.payloads(req.a);
            counts.model_reads +=
                twins.model.prefix_reads_for_layout(strategy, &payloads, version) as u64;
            let archive = &twins.archives[req.a as usize];
            let (read, versioning) =
                tracer.span("versioning.call", engine, i, || archive.retrieve_prefix(version));
            read.map_err(io::Error::other)?;
            let entries = archive.stored_entries();
            lower_rungs(
                &entries[..version],
                versioning,
                i,
                &twins.codec,
                &twins.all_nodes,
                &mut twins.scratch,
                tracer,
                counts,
            );
        }
        Op::Append => {
            let bytes = data.version(req.a, req.b);
            let (appended, engine) = tracer.span("engine.call", request, i, || {
                twins.cluster.append_version(id, bytes)
            });
            let appended = appended.map_err(io::Error::other)?;
            twins
                .engine_append_us
                .push(tracer.spans[engine as usize - 1].duration_ns() as f64 / 1e3);
            tracer.span("net.reply", request, i, || {
                proto::write_int(reply, appended.0 as u64)
            });
            let archive = &mut twins.archives[req.a as usize];
            let (stored, versioning) =
                tracer.span("versioning.call", engine, i, || archive.append_version(bytes));
            stored.map_err(io::Error::other)?;
            twins
                .versioning_append_us
                .push(tracer.spans[versioning as usize - 1].duration_ns() as f64 / 1e3);
            // What the archive just encoded: the delta, or on a checkpoint
            // the full version.
            let is_delta = matches!(
                archive.stored_entries().last().map(|e| e.payload),
                Some(StoredPayload::Delta { .. })
            );
            let mut plain = bytes.to_vec();
            if is_delta {
                bulk8::xor_accumulate(&mut plain, &[data.version(req.a, req.b - 1)]);
            }
            let codec = &twins.codec;
            let (shards, erasure) = tracer.span("erasure.call", versioning, i, || {
                let shards = ByteShards::from_flat(&plain, spec.k);
                black_box(codec.encode_blocks(&shards).expect("k shards encode"));
                shards
            });
            let scratch = &mut twins.scratch;
            tracer.span("gf.call", erasure, i, || {
                gf_products(spec.n * spec.k, shards.shard(0), scratch)
            });
        }
        Op::Fail | Op::Ping => {}
    }
    Ok(())
}

/// `erasure.call` and `gf.call` for a read that decoded `entries`.
#[allow(clippy::too_many_arguments)]
fn lower_rungs(
    entries: &[&ByteEncodedEntry],
    versioning: u32,
    i: usize,
    codec: &ByteCodec,
    all_nodes: &[usize],
    scratch: &mut [u8],
    tracer: &mut Tracer,
    counts: &mut Counts,
) {
    let (decoded, erasure) = tracer.span("erasure.call", versioning, i, || {
        erasure_decode(codec, all_nodes, entries)
    });
    counts.entries_decoded += decoded.len();
    counts.entries_sparse += decoded.iter().filter(|d| d.sparse).count();
    let block = entries.first().map_or(&[][..], |e| e.shards.shard(0));
    tracer.span("gf.call", erasure, i, || {
        for d in &decoded {
            gf_products(d.products, block, scratch);
        }
    });
}
