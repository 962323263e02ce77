//! The untraced run: once per epoch, build the cluster, serve it on
//! loopback, warm it up, then drive a serial phase (one connection, depth 1,
//! every reply compared byte for byte) and a pipelined phase (two connections,
//! depth `D`) from one generator thread.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sec_engine::{ObjectId, PlacementStrategy, SecCluster};
use sec_erasure::GeneratorForm;
use sec_net::{Server, ServerConfig, ServerHandle};
use sec_versioning::{ArchiveConfig, CheckpointPolicy, EncodingStrategy};

use crate::client::{Client, Verify};
use crate::gen::{plan_epoch, Data, EpochPlan, Op, Script, FNV_OFFSET};
use crate::spec::{Kind, Scale, Spec, SHARDS};
use crate::stats::{p50_p99_us, ratio};
use crate::sys;

pub fn archive_config(spec: &Spec) -> ArchiveConfig {
    let form = if spec.systematic {
        GeneratorForm::Systematic
    } else {
        GeneratorForm::NonSystematic
    };
    ArchiveConfig::new(spec.n, spec.k, form, EncodingStrategy::BasicSec)
        .expect("workload code parameters are valid")
        .with_checkpoints(CheckpointPolicy::every(spec.checkpoint))
}

pub fn new_cluster(spec: &Spec) -> SecCluster {
    SecCluster::with_placement(
        archive_config(spec),
        SHARDS,
        spec.cache,
        PlacementStrategy::Colocated,
    )
    .expect("workload cluster parameters are valid")
}

/// One epoch's system under test: a populated cluster behind a one-worker
/// server on a loopback port.
pub struct Live {
    pub cluster: Arc<SecCluster>,
    server: ServerHandle,
    pub addr: SocketAddr,
}

impl Live {
    pub fn start(spec: &Spec, data: &Data) -> io::Result<Live> {
        let cluster = Arc::new(new_cluster(spec));
        for (object, history) in data.versions.iter().enumerate() {
            cluster
                .append_all(ObjectId(object as u64), &history[..spec.versions])
                .map_err(io::Error::other)?;
        }
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let server = Server::start(Arc::clone(&cluster), "127.0.0.1:0", config)?;
        let addr = server.local_addr();
        Ok(Live {
            cluster,
            server,
            addr,
        })
    }

    pub fn stop(self) -> io::Result<()> {
        self.server.shutdown()
    }
}

/// What the epochs of one run measured. Vectors hold one value per epoch
/// unless noted.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: Vec<f64>,
    pub get_p50_us: Vec<f64>,
    pub get_p99_us: Vec<f64>,
    /// Every `PREFIX` latency of the run.
    pub prefix_ms: Vec<f64>,
    /// Every serial APPEND latency of the run.
    pub append_ns: Vec<u64>,
    pub get_ops_s: Vec<f64>,
    pub append_ops_s: Vec<f64>,
    pub cpu_us_per_op: Vec<f64>,
    pub client_cpu_share: Vec<f64>,
    pub serial_block_reads: u64,
    /// Serial GETs sent, all epochs: the samples behind the percentiles.
    pub serial_gets: u64,
    pub stored_bytes_per_user_byte: f64,
    pub repair_mb_s: Vec<f64>,
    pub repair_blocks: u64,
    /// GET latencies seen while repair ran, all epochs.
    pub repair_fg_ns: Vec<u64>,
    pub sequence_hash: u64,
    pub gen_s: f64,
    pub gen_ops: usize,
}

/// Latencies of one serial pass, by operation.
#[derive(Debug, Default)]
pub struct SerialTimes {
    pub get_ns: Vec<u64>,
    pub prefix_ns: Vec<u64>,
    pub append_ns: Vec<u64>,
    /// Block reads the `PREFIX` requests cost, so that they can be taken out
    /// of a per-GET figure.
    pub prefix_block_reads: u64,
}

/// Sends `script` one request at a time, timing first request byte to last
/// verified reply byte.
pub fn run_serial(
    client: &mut Client,
    script: &Script,
    data: &Data,
    cluster: &SecCluster,
    out: &mut Outcome,
) -> io::Result<SerialTimes> {
    let mut times = SerialTimes::default();
    times.get_ns.reserve(script.len());
    for (i, &req) in script.reqs.iter().enumerate() {
        let reads_before = (req.op == Op::Prefix).then(|| cluster.metrics_snapshot().io.symbol_reads);
        let t = Instant::now();
        client.send(script, i..i + 1, data)?;
        let ok = client.recv(req, data, Verify::Full)?;
        let ns = t.elapsed().as_nanos() as u64;
        out.attempted += 1;
        out.failed += u64::from(!ok);
        match req.op {
            Op::Get => times.get_ns.push(ns),
            Op::Prefix => times.prefix_ns.push(ns),
            Op::Append => times.append_ns.push(ns),
            Op::Fail | Op::Ping => {}
        }
        if let Some(before) = reads_before {
            times.prefix_block_reads += cluster.metrics_snapshot().io.symbol_reads - before;
        }
    }
    Ok(times)
}

/// One pipelined phase.
#[derive(Debug, Default)]
struct Window {
    gets: u64,
    appends: u64,
    elapsed: Duration,
    server_cpu_ns: u64,
    client_cpu_ns: u64,
}

/// Closed loop over two connections: a batch of `depth` requests is in
/// flight on each; when a connection's batch has been read and checked, its
/// next batch goes out. With `window` set the scripts are cycled until it
/// closes; without, each script is sent exactly once.
#[allow(clippy::too_many_arguments)]
fn run_pipelined(
    clients: &mut [Client; 2],
    scripts: &[Script; 2],
    data: &Data,
    depth: usize,
    window: Option<Duration>,
    start_at: usize,
    server_tids: &[u32],
    out: &mut Outcome,
) -> io::Result<Window> {
    let mut w = Window::default();
    let mut next = [start_at; 2];
    let mut inflight = [0..0, 0..0];
    let mut checked = 0u64;
    let server_cpu = sys::threads_cpu_ns(server_tids);
    let client_cpu = sys::self_cpu_ns();
    let start = Instant::now();
    let mut send_next =
        |c: usize, clients: &mut [Client; 2], inflight: &mut [std::ops::Range<usize>; 2]| {
            let script = &scripts[c];
            let closed = match window {
                Some(window) => start.elapsed() >= window,
                None => next[c] >= script.len(),
            };
            if closed || script.len() == 0 {
                inflight[c] = 0..0;
                return Ok(());
            }
            let end = (next[c] + depth).min(script.len());
            inflight[c] = next[c]..end;
            next[c] = if window.is_some() { end % script.len() } else { end };
            clients[c].send(script, inflight[c].clone(), data)
        };
    for c in 0..2 {
        send_next(c, clients, &mut inflight)?;
    }
    while !(inflight[0].is_empty() && inflight[1].is_empty()) {
        for c in 0..2 {
            for i in inflight[c].clone() {
                let req = scripts[c].reqs[i];
                checked += 1;
                let verify = if checked % 64 == 0 {
                    Verify::Full
                } else {
                    Verify::Edges
                };
                let ok = clients[c].recv(req, data, verify)?;
                out.attempted += 1;
                out.failed += u64::from(!ok);
                match req.op {
                    Op::Append => w.appends += 1,
                    _ => w.gets += 1,
                }
            }
            if !inflight[c].is_empty() {
                send_next(c, clients, &mut inflight)?;
            }
        }
    }
    w.elapsed = start.elapsed();
    w.server_cpu_ns = sys::threads_cpu_ns(server_tids) - server_cpu;
    w.client_cpu_ns = sys::self_cpu_ns() - client_cpu;
    Ok(w)
}

/// `degraded_read`: rebuild every failed node with `SecCluster::repair_node`
/// from this thread while a serial client keeps reading.
fn run_repair(
    spec: &Spec,
    live: &Live,
    client: &mut Client,
    script: &Script,
    data: &Data,
    out: &mut Outcome,
) -> io::Result<()> {
    let stop = AtomicBool::new(false);
    let (blocks, elapsed, reader) = std::thread::scope(|s| {
        let reader = s.spawn(|| -> io::Result<(Vec<u64>, u64)> {
            let mut ns = Vec::with_capacity(4096);
            let mut failed = 0;
            // SeqCst: the flag orders nothing else, it only ends the loop.
            for i in (0..script.len()).cycle() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let t = Instant::now();
                client.send(script, i..i + 1, data)?;
                failed += u64::from(!client.recv(script.reqs[i], data, Verify::Full)?);
                ns.push(t.elapsed().as_nanos() as u64);
            }
            Ok((ns, failed))
        });
        let t = Instant::now();
        let mut blocks = Ok(0usize);
        'repair: for shard in 0..SHARDS {
            for node in spec.failed_nodes() {
                match live.cluster.repair_node(shard, node) {
                    Ok(n) => blocks = blocks.map(|b| b + n),
                    Err(e) => {
                        blocks = Err(io::Error::other(e));
                        break 'repair;
                    }
                }
            }
        }
        let elapsed = t.elapsed();
        stop.store(true, Ordering::SeqCst);
        (blocks, elapsed, reader.join())
    });
    let (ns, failed) = reader.map_err(|_| io::Error::other("reader thread panicked"))??;
    let blocks = blocks?;
    out.attempted += ns.len() as u64;
    out.failed += failed;
    out.repair_blocks += blocks as u64;
    out.repair_mb_s
        .push((blocks * spec.shard_len()) as f64 / 1e6 / elapsed.as_secs_f64());
    out.repair_fg_ns.extend(ns);
    Ok(())
}

fn run_epoch(
    spec: &Spec,
    plan: &EpochPlan,
    data: &Data,
    scale: &Scale,
    out: &mut Outcome,
) -> io::Result<()> {
    let t0 = Instant::now();
    let live = Live::start(spec, data)?;
    let mut c0 = Client::connect(live.addr)?;
    let failed_before = out.failed;
    run_serial(&mut c0, &plan.warmup, data, &live.cluster, out)?;
    out.setup_s.push(t0.elapsed().as_secs_f64());
    if out.failed > failed_before {
        return Err(io::Error::other("warm-up reply failed verification"));
    }
    let server_tids = sys::threads_named("sec-net-");

    let reads_before = live.cluster.metrics_snapshot().io.symbol_reads;
    let mut times = run_serial(&mut c0, &plan.serial, data, &live.cluster, out)?;
    let reads = live.cluster.metrics_snapshot().io.symbol_reads - reads_before;
    out.serial_block_reads += reads - times.prefix_block_reads;
    out.serial_gets += times.get_ns.len() as u64;
    let (p50, p99) = p50_p99_us(&mut times.get_ns);
    out.get_p50_us.push(p50);
    out.get_p99_us.push(p99);
    out.append_ns.extend(times.append_ns);
    out.prefix_ms
        .extend(times.prefix_ns.iter().map(|&ns| ns as f64 / 1e6));

    let mut clients = [c0, Client::connect(live.addr)?];
    for i in 0..spec.windows_per_epoch() {
        let window = (spec.kind != Kind::IngestMixed).then_some(scale.window);
        let start_at = i * spec.depth * 64 % plan.pipelined[0].len().max(1);
        let w = run_pipelined(
            &mut clients,
            &plan.pipelined,
            data,
            spec.depth,
            window,
            start_at,
            &server_tids,
            out,
        )?;
        let secs = w.elapsed.as_secs_f64();
        out.get_ops_s.push(w.gets as f64 / secs);
        if w.appends > 0 {
            out.append_ops_s.push(w.appends as f64 / secs);
        }
        out.cpu_us_per_op
            .push(w.server_cpu_ns as f64 / 1e3 / (w.gets + w.appends) as f64);
        out.client_cpu_share.push(ratio(
            w.client_cpu_ns as f64,
            (w.client_cpu_ns + w.server_cpu_ns) as f64,
        ));
    }

    // Before repair rewrites blocks: what the appends alone stored.
    let m = live.cluster.metrics_snapshot();
    out.stored_bytes_per_user_byte = ratio(
        (m.io.symbol_writes as usize * spec.shard_len()) as f64,
        (m.versions * spec.object_len) as f64,
    );
    if spec.kind == Kind::DegradedRead {
        run_repair(spec, &live, &mut clients[0], &plan.during_repair, data, out)?;
    }
    drop(clients);
    live.stop()
}

/// Runs every epoch of one workload.
pub fn run(spec: &Spec, scale: &Scale, seed: u64) -> io::Result<(Outcome, Data)> {
    let data = Data::generate(spec, seed, spec.versions.max(scale.grow_pipelined));
    let mut out = Outcome {
        sequence_hash: FNV_OFFSET,
        ..Outcome::default()
    };
    for epoch in 0..scale.epochs {
        let t = Instant::now();
        let plan = plan_epoch(spec, scale, &data, seed, epoch);
        out.gen_s += t.elapsed().as_secs_f64();
        out.gen_ops += plan.requests();
        plan.hash_into(&mut out.sequence_hash);
        run_epoch(spec, &plan, &data, scale, &mut out)?;
    }
    Ok((out, data))
}
