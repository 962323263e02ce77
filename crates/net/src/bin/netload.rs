//! `sec-netload` — loopback load generator for `sec-netserver`.
//!
//! ```text
//! sec-netload --addr HOST:PORT [--connections N] [--pipeline D]
//!             [--duration-ms MS] [--rate REQ_PER_S] [--seed S]
//!             [--objects O] [--versions V] [--chaos] [--json]
//! ```
//!
//! Drives `GET`s round-robin over the first `--objects` objects and
//! `--versions` versions (matching `sec-netserver`'s pre-population
//! defaults). `--rate` switches from the closed loop to open-loop Poisson
//! arrivals. `--chaos` runs a side thread that cycles `FAIL`/`REVIVE` on
//! shard 0's nodes and appends fresh versions mid-stream, to exercise the
//! server under membership churn. The connection count is capped to what
//! `RLIMIT_NOFILE` actually allows (after trying to raise it) — the cap is
//! logged, never silent.

use std::net::{SocketAddr, ToSocketAddrs};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sec_engine::ObjectId;
use sec_net::load::{run_get_load, LoadConfig};
use sec_net::NetClient;

struct Args {
    addr: String,
    connections: usize,
    pipeline: usize,
    duration_ms: u64,
    rate: Option<f64>,
    seed: u64,
    objects: u64,
    versions: usize,
    chaos: bool,
    json: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            addr: String::new(),
            connections: 64,
            pipeline: 16,
            duration_ms: 1000,
            rate: None,
            seed: 0x5ec,
            objects: 16,
            versions: 4,
            chaos: false,
            json: false,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--connections" => args.connections = parse("--connections", &value("--connections")?)?,
            "--pipeline" => args.pipeline = parse("--pipeline", &value("--pipeline")?)?,
            "--duration-ms" => args.duration_ms = parse("--duration-ms", &value("--duration-ms")?)?,
            "--rate" => args.rate = Some(parse("--rate", &value("--rate")?)?),
            "--seed" => args.seed = parse("--seed", &value("--seed")?)?,
            "--objects" => args.objects = parse("--objects", &value("--objects")?)?,
            "--versions" => args.versions = parse("--versions", &value("--versions")?)?,
            "--chaos" => args.chaos = true,
            "--json" => args.json = true,
            "--help" | "-h" => {
                return Err(
                    "usage: sec-netload --addr HOST:PORT [--connections N] [--pipeline D] \
                     [--duration-ms MS] [--rate REQ_PER_S] [--seed S] [--objects O] \
                     [--versions V] [--chaos] [--json]"
                        .to_string(),
                );
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.addr.is_empty() {
        return Err("--addr is required".to_string());
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(name: &str, raw: &str) -> Result<T, String> {
    raw.parse().map_err(|_| format!("bad value for {name}: {raw}"))
}

/// FAIL/REVIVE one node at a time on shard 0 and append fresh versions,
/// on a dedicated connection, until `stop` flips.
fn chaos_loop(addr: SocketAddr, stop: &AtomicBool) {
    let Ok(mut client) = NetClient::connect(addr) else {
        eprintln!("chaos: connect failed, skipping");
        return;
    };
    let mut node = 0usize;
    let mut round = 0u8;
    #[expect(
        clippy::disallowed_methods,
        reason = "stop is a lone shutdown flag; the chaos loop only needs to observe it \
                  eventually, no other state is published through it"
    )]
    while !stop.load(Ordering::Relaxed) {
        if let Err(e) = client.fail(0, node) {
            eprintln!("chaos: FAIL transport error: {e}");
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
        let payload: Vec<u8> = (0..768).map(|i| (i as u8) ^ round).collect();
        if let Err(e) = client.append(ObjectId(0), &payload) {
            eprintln!("chaos: APPEND transport error: {e}");
            return;
        }
        if let Err(e) = client.revive(0, node) {
            eprintln!("chaos: REVIVE transport error: {e}");
            return;
        }
        node = (node + 1) % 3;
        round = round.wrapping_add(1);
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let addr: SocketAddr = match args.addr.to_socket_addrs().ok().and_then(|mut a| a.next()) {
        Some(addr) => addr,
        None => {
            eprintln!("cannot resolve {}", args.addr);
            return ExitCode::FAILURE;
        }
    };

    // Each load connection costs one fd; keep headroom for the reactor,
    // stdio and the chaos client.
    let limit = sec_net::sys::raise_nofile((args.connections as u64 + 64).max(1024));
    let max_conns = (limit.saturating_sub(64)) as usize;
    let connections = if args.connections > max_conns {
        eprintln!(
            "capping connections {} -> {max_conns} (RLIMIT_NOFILE {limit})",
            args.connections
        );
        max_conns
    } else {
        args.connections
    };

    let targets: Vec<(ObjectId, usize)> = (0..args.objects.max(1))
        .flat_map(|id| (1..=args.versions.max(1)).map(move |v| (ObjectId(id), v)))
        .collect();
    let config = LoadConfig {
        connections,
        pipeline: args.pipeline,
        duration: Duration::from_millis(args.duration_ms),
        open_loop_rate: args.rate,
        seed: args.seed,
    };

    let stop = Arc::new(AtomicBool::new(false));
    let chaos_thread = args.chaos.then(|| {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || chaos_loop(addr, &stop))
    });

    let result = run_get_load(addr, &targets, &config);

    #[expect(
        clippy::disallowed_methods,
        reason = "same lone flag; thread::join below is the real synchronization point for \
                  everything the chaos thread wrote"
    )]
    stop.store(true, Ordering::Relaxed);
    if let Some(thread) = chaos_thread {
        let _ = thread.join();
    }

    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("load run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.json {
        println!(
            "{{\"connections\":{},\"pipeline\":{},\"requests\":{},\"errors\":{},\
             \"elapsed_ms\":{},\"req_per_sec\":{:.1},\"p50_us\":{},\"p99_us\":{},\
             \"max_us\":{},\"backend\":\"{}\"}}",
            report.connections,
            report.pipeline,
            report.requests,
            report.errors,
            report.elapsed.as_millis(),
            report.req_per_sec,
            report.p50_us,
            report.p99_us,
            report.max_us,
            report.backend,
        );
    } else {
        println!(
            "{} conns x pipeline {} ({}): {} requests ({} errors) in {:.2}s = {:.0} req/s, \
             p50 {}us p99 {}us max {}us",
            report.connections,
            report.pipeline,
            report.backend,
            report.requests,
            report.errors,
            report.elapsed.as_secs_f64(),
            report.req_per_sec,
            report.p50_us,
            report.p99_us,
            report.max_us,
        );
    }
    ExitCode::SUCCESS
}
