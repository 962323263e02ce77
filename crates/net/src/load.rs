//! A loopback load generator over the wire protocol.
//!
//! Drives `connections` concurrent sockets from one reactor thread in
//! either of two modes:
//!
//! * **closed loop** (`open_loop_rate: None`) — every connection keeps
//!   exactly [`LoadConfig::pipeline`] `GET`s outstanding; a reply
//!   immediately funds the next request. `pipeline: 1` is the classic
//!   one-request-per-flush client, larger depths exercise the server's
//!   frame draining and reply coalescing.
//! * **open loop** (`open_loop_rate: Some(rate)`) — requests arrive on a
//!   Poisson schedule of `rate` req/s (exponential interarrivals from
//!   [`sec_workload::arrivals::ArrivalProcess`]), assigned to connections
//!   round-robin regardless of what is still outstanding, so queueing delay
//!   shows up in the latency tail instead of throttling the arrival
//!   process.
//!
//! Per-request latency is measured enqueue-to-reply; the report carries
//! sustained req/s plus p50/p99/max microseconds.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use sec_engine::ObjectId;
use sec_workload::arrivals::ArrivalProcess;

use crate::proto::{self, Command, ParsedReply, Reply};
use crate::sys::{Interest, Poller};

/// Parameters of one load run.
#[derive(Debug, Clone, Copy)]
pub struct LoadConfig {
    /// Concurrent TCP connections.
    pub connections: usize,
    /// Outstanding requests per connection (closed loop); 1 disables
    /// pipelining.
    pub pipeline: usize,
    /// How long to keep issuing requests.
    pub duration: Duration,
    /// `Some(rate)` switches to open-loop Poisson arrivals at `rate` req/s
    /// across all connections.
    pub open_loop_rate: Option<f64>,
    /// Seed for the arrival process and target selection offsets.
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            connections: 1,
            pipeline: 1,
            duration: Duration::from_secs(1),
            open_loop_rate: None,
            seed: 0x5ec,
        }
    }
}

/// Results of one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Connections actually driven.
    pub connections: usize,
    /// Pipeline depth of the run.
    pub pipeline: usize,
    /// Replies received (success or `-ERR`).
    pub requests: u64,
    /// `-ERR` replies among them.
    pub errors: u64,
    /// Wall time from first send to last reply.
    pub elapsed: Duration,
    /// `requests / elapsed`.
    pub req_per_sec: f64,
    /// Median enqueue-to-reply latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// Worst latency, microseconds.
    pub max_us: u64,
    /// Reactor backend the generator ran on.
    pub backend: &'static str,
}

/// Room offered to each socket read; the read buffer grows by this much at a
/// time and is then reused.
const READ_CHUNK: usize = 64 * 1024;

struct LoadConn {
    stream: TcpStream,
    /// Read buffer; `rbuf[..rlen]` holds received, not yet parsed bytes.
    rbuf: Vec<u8>,
    rlen: usize,
    wbuf: Vec<u8>,
    wpos: usize,
    inflight: VecDeque<Instant>,
    interest: Interest,
    next_target: usize,
}

impl LoadConn {
    fn enqueue_get(&mut self, targets: &[(ObjectId, usize)], now: Instant) {
        // Empty target lists are rejected before the loop starts.
        if let Some(&(object, version)) = targets.get(self.next_target % targets.len()) {
            self.next_target = self.next_target.wrapping_add(1);
            proto::encode_command(&Command::Get { object, version }, &mut self.wbuf);
            self.inflight.push_back(now);
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        Ok(())
    }
}

/// Runs one load generation pass of `GET`s drawn round-robin from
/// `targets`, per `config`. The server must already hold the targeted
/// objects/versions (error replies are counted, not retried).
///
/// # Errors
///
/// Propagates connection failures and protocol violations; a clean run with
/// server-side `-ERR` replies is *not* an error (see [`LoadReport::errors`]).
pub fn run_get_load(
    addr: SocketAddr,
    targets: &[(ObjectId, usize)],
    config: &LoadConfig,
) -> io::Result<LoadReport> {
    if targets.is_empty() || config.connections == 0 || config.pipeline == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "targets, connections and pipeline must be non-empty/non-zero",
        ));
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let arrivals = match config.open_loop_rate {
        Some(rate) => Some(ArrivalProcess::poisson(rate).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidInput, format!("bad arrival rate: {e}"))
        })?),
        None => None,
    };

    let mut poller = Poller::new()?;
    let backend = poller.backend_name();
    let mut conns: Vec<LoadConn> = Vec::with_capacity(config.connections);
    for i in 0..config.connections {
        let stream = connect_with_retry(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let conn = LoadConn {
            stream,
            rbuf: Vec::new(),
            rlen: 0,
            wbuf: Vec::new(),
            wpos: 0,
            inflight: VecDeque::new(),
            interest: Interest::READ,
            // Stagger target cursors so connections don't hammer one object
            // in lockstep.
            next_target: i.wrapping_mul(7919),
        };
        use std::os::unix::io::AsRawFd;
        poller.register(conn.stream.as_raw_fd(), i as u64, Interest::READ)?;
        conns.push(conn);
    }

    let mut samples: Vec<u64> = Vec::new();
    let mut requests = 0u64;
    let mut errors = 0u64;
    let start = Instant::now();
    let send_deadline = start + config.duration;
    // After the send window closes, wait this long for stragglers.
    let hard_deadline = send_deadline + Duration::from_secs(10);
    let mut next_arrival = start;
    let mut rr = 0usize;

    // Prime the closed loop (open loop starts sending when arrivals fire).
    if arrivals.is_none() {
        let now = Instant::now();
        for conn in &mut conns {
            for _ in 0..config.pipeline {
                conn.enqueue_get(targets, now);
            }
            let _ = conn.flush();
        }
    }
    update_interests(&mut poller, &mut conns)?;

    let mut events = Vec::new();
    let mut last_reply = start;
    loop {
        let now = Instant::now();
        let sending = now < send_deadline;
        if !sending && conns.iter().all(|c| c.inflight.is_empty()) {
            break;
        }
        if now >= hard_deadline {
            break;
        }
        let timeout_ms = match (&arrivals, sending) {
            (Some(_), true) => {
                let until = next_arrival.saturating_duration_since(now);
                until.as_millis().min(50) as i32
            }
            _ => 50,
        };
        poller.wait(&mut events, timeout_ms)?;

        // Open loop: emit every arrival that is due.
        if let (Some(process), true) = (&arrivals, sending) {
            let mut now = Instant::now();
            while next_arrival <= now && now < send_deadline {
                let idx = rr % conns.len();
                rr = rr.wrapping_add(1);
                if let Some(conn) = conns.get_mut(idx) {
                    conn.enqueue_get(targets, now);
                }
                let gap = process.next_gap(&mut rng);
                next_arrival += Duration::from_secs_f64(gap.min(60.0));
                now = Instant::now();
            }
            for conn in conns.iter_mut() {
                if !conn.wbuf.is_empty() {
                    let _ = conn.flush();
                }
            }
        }

        for &ev in &events {
            let idx = ev.token as usize;
            let Some(conn) = conns.get_mut(idx) else {
                continue;
            };
            if ev.readable {
                read_available(conn)?;
                let mut refills = 0usize;
                let mut pos = 0usize;
                loop {
                    match proto::parse_reply(&conn.rbuf[pos..conn.rlen]) {
                        ParsedReply::Complete { reply, consumed } => {
                            pos += consumed;
                            let now = Instant::now();
                            last_reply = now;
                            if let Some(sent) = conn.inflight.pop_front() {
                                let us = now.duration_since(sent).as_micros() as u64;
                                samples.push(us);
                            }
                            requests += 1;
                            if matches!(reply, Reply::Error(_)) {
                                errors += 1;
                            }
                            refills += 1;
                        }
                        ParsedReply::Incomplete => break,
                        ParsedReply::Malformed { reason } => {
                            return Err(io::Error::new(io::ErrorKind::InvalidData, reason));
                        }
                    }
                }
                // One compaction per wakeup, not one per reply.
                if pos > 0 {
                    conn.rbuf.copy_within(pos..conn.rlen, 0);
                    conn.rlen -= pos;
                }
                // Closed loop: a reply funds the next request; batch the
                // whole refill into one flush.
                if arrivals.is_none() && Instant::now() < send_deadline {
                    let now = Instant::now();
                    for _ in 0..refills {
                        conn.enqueue_get(targets, now);
                    }
                }
            }
            if ev.writable || !conn.wbuf.is_empty() {
                let _ = conn.flush();
            }
        }
        update_interests(&mut poller, &mut conns)?;
    }

    let elapsed = last_reply
        .saturating_duration_since(start)
        .max(Duration::from_micros(1));
    samples.sort_unstable();
    let pct = |p: f64| -> u64 {
        if samples.is_empty() {
            return 0;
        }
        let idx = ((samples.len() as f64 - 1.0) * p).round() as usize;
        samples.get(idx.min(samples.len() - 1)).copied().unwrap_or(0)
    };
    Ok(LoadReport {
        connections: config.connections,
        pipeline: config.pipeline,
        requests,
        errors,
        elapsed,
        req_per_sec: requests as f64 / elapsed.as_secs_f64(),
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        max_us: samples.last().copied().unwrap_or(0),
        backend,
    })
}

fn connect_with_retry(addr: SocketAddr) -> io::Result<TcpStream> {
    let mut delay = Duration::from_millis(1);
    for attempt in 0..8 {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(_) if attempt < 7 => {
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(100));
            }
            Err(e) => return Err(e),
        }
    }
    Err(io::Error::other("connect retries exhausted"))
}

/// Reads until the socket has no more to give: a read that comes back short
/// of the room it was offered drained it, and the poller is level-triggered,
/// so later bytes wake the loop again (`server::read_some`, client side).
fn read_available(conn: &mut LoadConn) -> io::Result<()> {
    loop {
        if conn.rbuf.len() - conn.rlen < READ_CHUNK {
            conn.rbuf.resize(conn.rlen + READ_CHUNK, 0);
        }
        let room = &mut conn.rbuf[conn.rlen..];
        match conn.stream.read(room) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed a load connection",
                ));
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

fn update_interests(poller: &mut Poller, conns: &mut [LoadConn]) -> io::Result<()> {
    use std::os::unix::io::AsRawFd;
    for (i, conn) in conns.iter_mut().enumerate() {
        let want = Interest {
            readable: true,
            writable: conn.wpos < conn.wbuf.len(),
        };
        if want.writable != conn.interest.writable {
            poller.modify(conn.stream.as_raw_fd(), i as u64, want)?;
            conn.interest = want;
        }
    }
    Ok(())
}
