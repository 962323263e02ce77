//! The event-loop TCP server over a [`SecCluster`].
//!
//! # Architecture
//!
//! One reactor ([`Poller`]) per worker thread. Worker 0
//! owns the nonblocking listener and hands accepted connections to workers
//! round-robin through per-worker inboxes (a `Mutex<Vec<TcpStream>>` plus a
//! pipe [`Waker`] — an SO_REUSEPORT-free accept split
//! that keeps the whole stack portable). A connection then lives entirely
//! on its worker: no cross-thread state beyond the shared `SecCluster`,
//! whose read path is `&self` by contract.
//!
//! # Pipelining
//!
//! After every read the worker parses *every* complete frame in the
//! connection's input buffer and serves each command as it is parsed, one
//! [`SecCluster`] call per command, so responses come back in request
//! order by construction. All responses of one readiness event (often
//! cache-hit `Arc` clones) accumulate in the connection's write buffer and
//! are flushed with a single `write` per wakeup. That syscall coalescing —
//! many frames drained per `read`, many replies flushed per `write` — is
//! the whole pipelining gain; there is no batched read path underneath
//! (the one PR 10 shipped was 0.42–0.91× a plain `get_version` loop on the
//! benchmark ledger and was removed).
//!
//! # Backpressure
//!
//! A connection whose un-flushed write buffer exceeds
//! [`ServerConfig::high_water`] stops being read (its read interest is
//! dropped) until the buffer drains below [`ServerConfig::low_water`] — a
//! slow reader throttles itself, not the server.
//!
//! # Shutdown
//!
//! [`ServerHandle::shutdown`] stops accepting, performs one final
//! nonblocking read per connection, serves every complete frame already
//! received, then flushes write buffers until empty or
//! [`ServerConfig::drain_timeout`] expires. In-flight requests are drained;
//! half-received frames are dropped.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sec_engine::{ClusterMetrics, SecCluster};

use crate::proto::{self, Command, Parsed};
use crate::sys::{Interest, Poller, Waker};

/// Reactor token of the worker's waker pipe.
const WAKER_TOKEN: u64 = u64::MAX;
/// Reactor token of the listener (worker 0 only).
const LISTENER_TOKEN: u64 = u64::MAX - 1;
/// Spare room a read syscall is offered, at least.
const READ_CHUNK: usize = 64 * 1024;

/// Tunables for [`Server::start`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads (each its own reactor). `0` means one per available
    /// core.
    pub workers: usize,
    /// Pause reading a connection once its un-flushed write buffer exceeds
    /// this many bytes.
    pub high_water: usize,
    /// Resume reading once the write buffer drains below this.
    pub low_water: usize,
    /// How long shutdown keeps flushing drained responses before closing
    /// connections that will not drain.
    pub drain_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            high_water: 1 << 20,
            low_water: 128 << 10,
            drain_timeout: Duration::from_secs(5),
        }
    }
}

impl ServerConfig {
    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// State shared by every worker.
struct Shared {
    cluster: Arc<SecCluster>,
    config: ServerConfig,
    shutdown: AtomicBool,
    /// Accepted connections handed from worker 0 to their target worker.
    inboxes: Vec<Mutex<Vec<TcpStream>>>,
}

/// The server entry point; see the module docs for the architecture.
#[derive(Debug)]
pub struct Server;

impl Server {
    /// Binds `addr` (port 0 picks a free port — see
    /// [`ServerHandle::local_addr`]) and starts the worker threads.
    pub fn start<A: ToSocketAddrs>(
        cluster: Arc<SecCluster>,
        addr: A,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let workers = config.resolved_workers();
        let shared = Arc::new(Shared {
            cluster,
            config,
            shutdown: AtomicBool::new(false),
            inboxes: (0..workers).map(|_| Mutex::new(Vec::new())).collect(),
        });
        let wakers: Vec<Arc<Waker>> = (0..workers)
            .map(|_| Waker::new().map(Arc::new))
            .collect::<io::Result<_>>()?;
        let mut threads = Vec::with_capacity(workers);
        for worker in 0..workers {
            let shared = Arc::clone(&shared);
            let wakers = wakers.clone();
            let listener = (worker == 0).then(|| listener.try_clone()).transpose()?;
            threads.push(
                std::thread::Builder::new()
                    .name(format!("sec-net-{worker}"))
                    .spawn(move || worker_loop(worker, &shared, &wakers, listener))?,
            );
        }
        Ok(ServerHandle {
            local_addr,
            shared,
            wakers,
            threads,
        })
    }
}

/// A running server; dropping it also shuts it down (without error
/// reporting — call [`ServerHandle::shutdown`] for that).
#[derive(Debug)]
pub struct ServerHandle {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    wakers: Vec<Arc<Waker>>,
    threads: Vec<JoinHandle<io::Result<()>>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("workers", &self.inboxes.len())
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Requests a graceful shutdown and joins every worker: accepted-but-
    /// unserved requests are answered, write buffers are flushed (up to the
    /// drain timeout), then sockets close.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.stop()
    }

    fn stop(&mut self) -> io::Result<()> {
        // audit: atomic ok — Release pairs with the workers' Acquire load so
        // config/drain state written before the store is visible once a worker
        // observes shutdown after its waker fires.
        self.shared.shutdown.store(true, Ordering::Release);
        for waker in &self.wakers {
            waker.wake();
        }
        let mut first_err = None;
        for thread in self.threads.drain(..) {
            match thread.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    first_err.get_or_insert(e);
                }
                Err(_) => {
                    first_err.get_or_insert_with(|| io::Error::other("worker thread panicked"));
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            let _ = self.stop();
        }
    }
}

/// One connection's state, owned by its worker.
struct Conn {
    stream: TcpStream,
    /// Read buffer: `rbuf[..rlen]` holds received bytes not yet consumed, the
    /// rest is zero-filled once and then reused as the room reads land in.
    rbuf: Vec<u8>,
    rlen: usize,
    wbuf: Vec<u8>,
    /// Flushed prefix of `wbuf`.
    wpos: usize,
    interest: Interest,
    /// Reading paused by write-buffer backpressure.
    paused: bool,
    /// Close once the write buffer drains (poisoned stream, peer EOF, or
    /// server drain).
    closing: bool,
    /// Peer closed its write half (no more requests will arrive).
    peer_closed: bool,
}

impl Conn {
    fn pending(&self) -> usize {
        self.wbuf.len() - self.wpos
    }
}

fn lock_inbox(inbox: &Mutex<Vec<TcpStream>>) -> Vec<TcpStream> {
    match inbox.lock() {
        Ok(mut guard) => std::mem::take(&mut *guard),
        Err(poisoned) => std::mem::take(&mut *poisoned.into_inner()),
    }
}

fn worker_loop(
    worker: usize,
    shared: &Shared,
    wakers: &[Arc<Waker>],
    mut listener: Option<TcpListener>,
) -> io::Result<()> {
    let mut poller = Poller::new()?;
    let waker = &wakers[worker];
    poller.register(waker.read_fd(), WAKER_TOKEN, Interest::READ)?;
    if let Some(l) = &listener {
        poller.register(l.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
    }
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut events = Vec::new();
    let mut rr = 0usize;
    let mut draining = false;
    let mut drain_deadline = Instant::now();

    loop {
        let timeout_ms = if draining { 20 } else { -1 };
        poller.wait(&mut events, timeout_ms)?;

        // audit: atomic ok — Acquire pairs with ServerHandle::stop's Release
        // store, ordering the flag read before the drain bookkeeping it gates.
        if !draining && shared.shutdown.load(Ordering::Acquire) {
            draining = true;
            drain_deadline = Instant::now() + shared.config.drain_timeout;
            if let Some(l) = listener.take() {
                poller.deregister(l.as_raw_fd())?;
            }
            // Serve whatever full frames already reached each socket, then
            // stop reading and flush.
            let tokens: Vec<u64> = conns.keys().copied().collect();
            for token in tokens {
                if let Some(conn) = conns.get_mut(&token) {
                    let _ = read_some(conn);
                    process_conn(&shared.cluster, conn);
                    conn.closing = true;
                    let _ = flush(conn);
                    finish_conn(
                        &mut poller,
                        &mut conns,
                        token,
                        shared.config.high_water,
                        shared.config.low_water,
                    );
                }
            }
        }

        for &ev in &events {
            match ev.token {
                WAKER_TOKEN => {
                    waker.drain();
                    for stream in lock_inbox(&shared.inboxes[worker]) {
                        if draining {
                            continue; // refused: shutting down
                        }
                        let _ = admit(&mut poller, &mut conns, stream);
                    }
                }
                LISTENER_TOKEN => {
                    let Some(l) = &listener else { continue };
                    loop {
                        match l.accept() {
                            Ok((stream, _)) => {
                                let target = rr % shared.inboxes.len();
                                rr = rr.wrapping_add(1);
                                if target == worker {
                                    let _ = admit(&mut poller, &mut conns, stream);
                                } else {
                                    match shared.inboxes[target].lock() {
                                        Ok(mut inbox) => inbox.push(stream),
                                        Err(poisoned) => poisoned.into_inner().push(stream),
                                    }
                                    wakers[target].wake();
                                }
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                            // EMFILE and friends: drop the wakeup, retry on
                            // the next readiness report.
                            Err(_) => break,
                        }
                    }
                }
                token => {
                    let Some(conn) = conns.get_mut(&token) else {
                        continue;
                    };
                    if ev.readable && !conn.paused && !conn.closing {
                        match read_some(conn) {
                            Ok(()) => {}
                            Err(_) => conn.closing = true,
                        }
                        process_conn(&shared.cluster, conn);
                    }
                    if flush(conn).is_err() {
                        conn.wbuf.clear();
                        conn.wpos = 0;
                        conn.closing = true;
                    }
                    finish_conn(
                        &mut poller,
                        &mut conns,
                        token,
                        shared.config.high_water,
                        shared.config.low_water,
                    );
                }
            }
        }

        if draining {
            if Instant::now() >= drain_deadline {
                for (_, conn) in conns.drain() {
                    let _ = poller.deregister(conn.stream.as_raw_fd());
                }
            }
            if conns.is_empty() {
                return Ok(());
            }
        }
    }
}

/// Registers a freshly accepted connection with this worker's reactor.
fn admit(poller: &mut Poller, conns: &mut HashMap<u64, Conn>, stream: TcpStream) -> io::Result<()> {
    stream.set_nonblocking(true)?;
    let _ = stream.set_nodelay(true);
    let fd = stream.as_raw_fd();
    let token = fd as u64;
    poller.register(fd, token, Interest::READ)?;
    conns.insert(
        token,
        Conn {
            stream,
            rbuf: Vec::new(),
            rlen: 0,
            wbuf: Vec::new(),
            wpos: 0,
            interest: Interest::READ,
            paused: false,
            closing: false,
            peer_closed: false,
        },
    );
    Ok(())
}

/// Reads until the socket has no more to give: a read that comes back short
/// of the room it was offered drained it, and the poller is level-triggered,
/// so later bytes — and EOF — wake the worker again.
fn read_some(conn: &mut Conn) -> io::Result<()> {
    loop {
        if conn.rbuf.len() - conn.rlen < READ_CHUNK {
            conn.rbuf.resize(conn.rlen + READ_CHUNK, 0);
        }
        let room = &mut conn.rbuf[conn.rlen..];
        match conn.stream.read(room) {
            Ok(0) => {
                conn.peer_closed = true;
                return Ok(());
            }
            Ok(n) => {
                let drained = n < room.len();
                conn.rlen += n;
                if drained {
                    return Ok(());
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Parses and serves every complete frame in the read buffer, appending
/// all responses (in request order) to the write buffer.
fn process_conn(cluster: &SecCluster, conn: &mut Conn) {
    let (consumed, poisoned) = process_frames(cluster, &conn.rbuf[..conn.rlen], &mut conn.wbuf);
    if poisoned {
        conn.closing = true;
        conn.rlen = 0;
    } else if consumed > 0 {
        conn.rbuf.copy_within(consumed..conn.rlen, 0);
        conn.rlen -= consumed;
    }
}

fn process_frames(cluster: &SecCluster, rbuf: &[u8], wbuf: &mut Vec<u8>) -> (usize, bool) {
    let mut pos = 0;
    loop {
        match proto::parse_command(&rbuf[pos..]) {
            Parsed::Complete { command, consumed } => {
                execute(cluster, wbuf, &command);
                pos += consumed;
            }
            Parsed::Incomplete => return (pos, false),
            Parsed::Malformed { reason } => {
                proto::write_error(wbuf, reason);
                return (pos, true);
            }
        }
    }
}

/// Serves one command, appending its response to `wbuf`.
fn execute(cluster: &SecCluster, wbuf: &mut Vec<u8>, command: &Command<'_>) {
    match *command {
        Command::Ping => proto::write_simple(wbuf, "PONG"),
        Command::Get { object, version } => match cluster.get_version(object, version) {
            Ok(retrieval) => proto::write_bulk(wbuf, &retrieval.data),
            Err(e) => proto::write_error(wbuf, &e.to_string()),
        },
        Command::Prefix { object, version } => match cluster.get_prefix(object, version) {
            Ok(prefix) => {
                proto::write_array_header(wbuf, prefix.versions.len());
                for version in &prefix.versions {
                    proto::write_bulk(wbuf, version);
                }
            }
            Err(e) => proto::write_error(wbuf, &e.to_string()),
        },
        Command::Append { object, payload } => match cluster.append_version(object, payload) {
            Ok(id) => proto::write_int(wbuf, id.0 as u64),
            Err(e) => proto::write_error(wbuf, &e.to_string()),
        },
        Command::Fail { group, node } => match cluster.fail_node(group, node) {
            Ok(()) => proto::write_simple(wbuf, "OK"),
            Err(e) => proto::write_error(wbuf, &e.to_string()),
        },
        Command::Revive { group, node } => match cluster.revive_node(group, node) {
            Ok(()) => proto::write_simple(wbuf, "OK"),
            Err(e) => proto::write_error(wbuf, &e.to_string()),
        },
        Command::Metrics => {
            proto::write_bulk(wbuf, metrics_json(&cluster.metrics_snapshot()).as_bytes());
        }
    }
}

/// Flushes the write buffer until empty or `WouldBlock` — one syscall per
/// coalesced response run in the common case.
fn flush(conn: &mut Conn) -> io::Result<()> {
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    if conn.wpos == conn.wbuf.len() {
        conn.wbuf.clear();
        conn.wpos = 0;
    } else if conn.wpos > (1 << 20) {
        conn.wbuf.drain(..conn.wpos);
        conn.wpos = 0;
    }
    Ok(())
}

/// Applies backpressure, updates reactor interest, and closes the
/// connection once it owes nothing.
fn finish_conn(
    poller: &mut Poller,
    conns: &mut HashMap<u64, Conn>,
    token: u64,
    high_water: usize,
    low_water: usize,
) {
    let Some(conn) = conns.get_mut(&token) else {
        return;
    };
    let pending = conn.pending();
    if !conn.paused && pending > high_water {
        conn.paused = true;
    } else if conn.paused && pending < low_water {
        conn.paused = false;
    }
    if (conn.closing || conn.peer_closed) && pending == 0 {
        let fd = conn.stream.as_raw_fd();
        let _ = poller.deregister(fd);
        conns.remove(&token);
        return;
    }
    let want = Interest {
        readable: !conn.paused && !conn.closing && !conn.peer_closed,
        writable: pending > 0,
    };
    if want.readable != conn.interest.readable || want.writable != conn.interest.writable {
        let fd = conn.stream.as_raw_fd();
        if poller.modify(fd, token, want).is_ok() {
            conn.interest = want;
        }
    }
}

/// Cluster metrics as a small flat JSON object (hand-rolled — the workspace
/// carries no serde).
fn metrics_json(m: &ClusterMetrics) -> String {
    format!(
        concat!(
            "{{\"placement\":\"{}\",\"shards\":{},\"objects\":{},\"versions\":{},",
            "\"nodes\":{},\"live_nodes\":{},\"retrievals\":{},\"symbol_reads\":{},",
            "\"symbol_writes\":{},\"failed_reads\":{},\"repairs\":{},",
            "\"cache_hits\":{},\"cache_base_hits\":{},\"cache_misses\":{},",
            "\"deltas_applied\":{},\"checkpoints_written\":{}}}"
        ),
        m.placement,
        m.shards.len(),
        m.objects,
        m.versions,
        m.nodes,
        m.live_nodes,
        m.io.retrievals,
        m.io.symbol_reads,
        m.io.symbol_writes,
        m.io.failed_reads,
        m.io.repairs,
        m.cache.hits,
        m.cache.base_hits,
        m.cache.misses,
        m.deltas_applied,
        m.checkpoints_written,
    )
}
