//! Minimal OS polling layer: `epoll` on Linux with a portable `poll`
//! fallback, a pipe-based [`Waker`], and an `RLIMIT_NOFILE` helper.
//!
//! The build environment has no crates.io access, so instead of the `libc`
//! crate this module declares the handful of POSIX symbols it needs as raw
//! `extern "C"` functions. Every call site is an `unsafe` block with a
//! `// SAFETY:` comment (clippy's `undocumented_unsafe_blocks`, denied in
//! this crate's manifest); the crate is `unsafe_code = "deny"` with this
//! module as the only carve-out (mirroring `sec-gf`'s SIMD kernels).
//!
//! The reactor backend is chosen once per [`Poller`]: `epoll` on Linux
//! unless `SEC_NET_REACTOR=poll` forces the fallback (any other platform
//! always uses `poll`).

#![allow(unsafe_code, reason = "raw POSIX calls: the crate has no `libc` to wrap them")]

use std::io;
use std::os::unix::io::RawFd;

/// One readiness event delivered by [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the file descriptor was registered with.
    pub token: u64,
    /// Readable (or peer-closed / errored, which must be surfaced to a
    /// reader so it observes the EOF/error).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
}

/// Readiness interest for a registered descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when readable.
    pub readable: bool,
    /// Wake when writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };

    /// Read-and-write interest.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };

    /// Write-only interest (reading paused by backpressure).
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
}

// POSIX/Linux symbols. Signatures match the x86-64 and aarch64 SysV ABIs;
// `fcntl`'s vararg is declared with its only shape used here (an int flag
// argument), which is ABI-compatible on those targets.
extern "C" {
    fn pipe(fds: *mut i32) -> i32;
    fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
}

#[cfg(target_os = "linux")]
extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
}

const F_GETFL: i32 = 3;
const F_SETFL: i32 = 4;
#[cfg(target_os = "linux")]
const O_NONBLOCK: i32 = 0x800;
#[cfg(not(target_os = "linux"))]
const O_NONBLOCK: i32 = 0x4;

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const POLLERR: i16 = 0x8;
const POLLHUP: i16 = 0x10;

#[cfg(target_os = "linux")]
const EPOLLIN: u32 = 0x1;
#[cfg(target_os = "linux")]
const EPOLLOUT: u32 = 0x4;
#[cfg(target_os = "linux")]
const EPOLLERR: u32 = 0x8;
#[cfg(target_os = "linux")]
const EPOLLHUP: u32 = 0x10;
#[cfg(target_os = "linux")]
const EPOLLRDHUP: u32 = 0x2000;
#[cfg(target_os = "linux")]
const EPOLL_CTL_ADD: i32 = 1;
#[cfg(target_os = "linux")]
const EPOLL_CTL_DEL: i32 = 2;
#[cfg(target_os = "linux")]
const EPOLL_CTL_MOD: i32 = 3;
#[cfg(target_os = "linux")]
const EPOLL_CLOEXEC: i32 = 0x80000;

const RLIMIT_NOFILE: i32 = 7;

/// `struct epoll_event`. Packed on x86-64 (the kernel ABI), aligned
/// elsewhere.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[repr(C, packed)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[cfg(all(target_os = "linux", not(target_arch = "x86_64")))]
#[repr(C)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

/// `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// `struct rlimit`.
#[repr(C)]
struct Rlimit {
    rlim_cur: u64,
    rlim_max: u64,
}

fn last_os_error() -> io::Error {
    io::Error::last_os_error()
}

/// Sets `O_NONBLOCK` on a raw descriptor (used for the waker pipe; sockets
/// go through `std`'s `set_nonblocking`).
fn set_nonblocking(fd: RawFd) -> io::Result<()> {
    // SAFETY: fcntl on a descriptor we own; F_GETFL takes no argument
    let flags = unsafe { fcntl(fd, F_GETFL, 0) };
    if flags < 0 {
        return Err(last_os_error());
    }
    // SAFETY: fcntl F_SETFL with an int flag argument on an owned descriptor
    if unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) } < 0 {
        return Err(last_os_error());
    }
    Ok(())
}

/// The process's `RLIMIT_NOFILE` as `(soft, hard)`.
pub fn nofile_limit() -> io::Result<(u64, u64)> {
    let mut lim = Rlimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // SAFETY: getrlimit writes into a properly sized local struct
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } < 0 {
        return Err(last_os_error());
    }
    Ok((lim.rlim_cur, lim.rlim_max))
}

/// Best-effort raise of the file-descriptor soft limit toward `target`
/// (privileged processes may raise the hard limit too). Returns the soft
/// limit in effect afterwards; never fails — a denied raise just leaves the
/// old limit, which the caller must cap its connection count to.
pub fn raise_nofile(target: u64) -> u64 {
    let Ok((soft, hard)) = nofile_limit() else {
        return 1024;
    };
    if soft >= target {
        return soft;
    }
    // Try within the hard limit first, then (for root) beyond it.
    for wanted in [target.min(hard), target] {
        if wanted <= soft {
            continue;
        }
        let lim = Rlimit {
            rlim_cur: wanted,
            rlim_max: hard.max(wanted),
        };
        // SAFETY: setrlimit reads a properly initialized local struct
        if unsafe { setrlimit(RLIMIT_NOFILE, &lim) } == 0 {
            return nofile_limit().map_or(wanted, |(s, _)| s);
        }
    }
    nofile_limit().map_or(soft, |(s, _)| s)
}

/// A cross-thread wake-up channel for a [`Poller`]: one byte written to a
/// nonblocking pipe whose read end is registered with the reactor.
#[derive(Debug)]
pub struct Waker {
    read_fd: RawFd,
    write_fd: RawFd,
}

impl Waker {
    /// Creates the pipe with both ends nonblocking.
    pub fn new() -> io::Result<Self> {
        let mut fds = [0i32; 2];
        // SAFETY: pipe writes two descriptors into a 2-element array
        if unsafe { pipe(fds.as_mut_ptr()) } < 0 {
            return Err(last_os_error());
        }
        let waker = Waker {
            read_fd: fds[0],
            write_fd: fds[1],
        };
        set_nonblocking(waker.read_fd)?;
        set_nonblocking(waker.write_fd)?;
        Ok(waker)
    }

    /// The read end, for registration with a [`Poller`].
    pub fn read_fd(&self) -> RawFd {
        self.read_fd
    }

    /// Wakes the owning reactor. A full pipe means a wake-up is already
    /// pending, so `EAGAIN` is success.
    pub fn wake(&self) {
        let byte = [1u8];
        // SAFETY: write of one byte from a live stack buffer to an owned fd
        let _ = unsafe { write(self.write_fd, byte.as_ptr(), 1) };
    }

    /// Drains pending wake-up bytes (called by the reactor thread when the
    /// read end polls readable).
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: read into a live stack buffer of the stated length
            let n = unsafe { read(self.read_fd, buf.as_mut_ptr(), buf.len()) };
            if n <= 0 {
                return;
            }
        }
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: closing descriptors this Waker exclusively owns
        unsafe {
            close(self.read_fd);
            close(self.write_fd);
        }
    }
}

// The pipe ends are plain descriptors; writes from any thread are atomic at
// this size.
// SAFETY: Waker holds two owned fds; write(2)/read(2) on them are thread-safe
unsafe impl Send for Waker {}
// SAFETY: wake() and drain() only issue thread-safe syscalls on owned fds
unsafe impl Sync for Waker {}

#[derive(Debug)]
enum Backend {
    #[cfg(target_os = "linux")]
    Epoll {
        epfd: RawFd,
    },
    Poll {
        registered: Vec<(RawFd, u64, Interest)>,
    },
}

/// A readiness reactor over one set of registered descriptors.
///
/// Level-triggered on both backends: a descriptor keeps reporting ready
/// until the condition is consumed, so a handler that processes only part
/// of its input is woken again.
#[derive(Debug)]
pub struct Poller {
    backend: Backend,
}

impl Poller {
    /// Creates a reactor on the default backend for the platform
    /// (`SEC_NET_REACTOR=poll` forces the portable fallback).
    pub fn new() -> io::Result<Self> {
        let force_poll = std::env::var("SEC_NET_REACTOR").is_ok_and(|v| v == "poll");
        Self::with_backend(force_poll)
    }

    #[cfg(target_os = "linux")]
    fn with_backend(force_poll: bool) -> io::Result<Self> {
        if force_poll {
            return Ok(Poller {
                backend: Backend::Poll {
                    registered: Vec::new(),
                },
            });
        }
        // SAFETY: epoll_create1 takes only a flags word
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(last_os_error());
        }
        Ok(Poller {
            backend: Backend::Epoll { epfd },
        })
    }

    #[cfg(not(target_os = "linux"))]
    fn with_backend(_force_poll: bool) -> io::Result<Self> {
        Ok(Poller {
            backend: Backend::Poll {
                registered: Vec::new(),
            },
        })
    }

    /// The active backend name, surfaced in logs and bench output.
    pub fn backend_name(&self) -> &'static str {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { .. } => "epoll",
            Backend::Poll { .. } => "poll",
        }
    }

    /// Registers `fd` under `token` with the given interest.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd } => epoll_update(*epfd, EPOLL_CTL_ADD, fd, token, interest),
            Backend::Poll { registered } => {
                registered.retain(|&(f, _, _)| f != fd);
                registered.push((fd, token, interest));
                Ok(())
            }
        }
    }

    /// Changes the interest set of a registered descriptor.
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd } => epoll_update(*epfd, EPOLL_CTL_MOD, fd, token, interest),
            Backend::Poll { registered } => {
                for entry in registered.iter_mut() {
                    if entry.0 == fd {
                        *entry = (fd, token, interest);
                        return Ok(());
                    }
                }
                Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
            }
        }
    }

    /// Removes a descriptor from the interest set. Must be called *before*
    /// the descriptor is closed.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd } => {
                let mut ev = EpollEvent { events: 0, data: 0 };
                // SAFETY: epoll_ctl DEL with a valid epfd and a live event struct
                if unsafe { epoll_ctl(*epfd, EPOLL_CTL_DEL, fd, &mut ev) } < 0 {
                    return Err(last_os_error());
                }
                Ok(())
            }
            Backend::Poll { registered } => {
                registered.retain(|&(f, _, _)| f != fd);
                Ok(())
            }
        }
    }

    /// Blocks until at least one registered descriptor is ready or
    /// `timeout_ms` elapses (`-1` blocks indefinitely), appending readiness
    /// into `events` (cleared first). `EINTR` reports as zero events.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        events.clear();
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd } => {
                const MAX_EVENTS: usize = 256;
                let mut raw = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
                // SAFETY: epoll_wait fills at most MAX_EVENTS entries of a live array
                let n = unsafe { epoll_wait(*epfd, raw.as_mut_ptr(), MAX_EVENTS as i32, timeout_ms) };
                if n < 0 {
                    let err = last_os_error();
                    if err.kind() == io::ErrorKind::Interrupted {
                        return Ok(());
                    }
                    return Err(err);
                }
                for ev in raw.iter().take(n as usize) {
                    let bits = ev.events;
                    events.push(Event {
                        token: ev.data,
                        readable: bits & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                        writable: bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                    });
                }
                Ok(())
            }
            Backend::Poll { registered } => {
                let mut fds: Vec<PollFd> = registered
                    .iter()
                    .map(|&(fd, _, interest)| PollFd {
                        fd,
                        events: (if interest.readable { POLLIN } else { 0 })
                            | (if interest.writable { POLLOUT } else { 0 }),
                        revents: 0,
                    })
                    .collect();
                // SAFETY: poll reads/writes exactly fds.len() pollfd entries of a live Vec
                let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
                if n < 0 {
                    let err = last_os_error();
                    if err.kind() == io::ErrorKind::Interrupted {
                        return Ok(());
                    }
                    return Err(err);
                }
                for (pfd, &(_, token, _)) in fds.iter().zip(registered.iter()) {
                    let bits = pfd.revents;
                    if bits == 0 {
                        continue;
                    }
                    events.push(Event {
                        token,
                        readable: bits & (POLLIN | POLLERR | POLLHUP) != 0,
                        writable: bits & (POLLOUT | POLLERR | POLLHUP) != 0,
                    });
                }
                Ok(())
            }
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Backend::Epoll { epfd } = self.backend {
            // SAFETY: closing the epoll descriptor this Poller exclusively owns
            unsafe {
                close(epfd);
            }
        }
    }
}

#[cfg(target_os = "linux")]
fn epoll_update(epfd: RawFd, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
    let mut ev = EpollEvent {
        events: (if interest.readable {
            EPOLLIN | EPOLLRDHUP
        } else {
            0
        }) | (if interest.writable { EPOLLOUT } else { 0 }),
        data: token,
    };
    // SAFETY: epoll_ctl with a valid epfd and a live, initialized event struct
    if unsafe { epoll_ctl(epfd, op, fd, &mut ev) } < 0 {
        return Err(last_os_error());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    fn poller_pair() -> Vec<Poller> {
        let mut out = vec![Poller::with_backend(true).unwrap()];
        if cfg!(target_os = "linux") {
            out.push(Poller::with_backend(false).unwrap());
        }
        out
    }

    #[test]
    fn waker_wakes_and_drains() {
        for mut poller in poller_pair() {
            let waker = Waker::new().unwrap();
            poller.register(waker.read_fd(), 7, Interest::READ).unwrap();
            let mut events = Vec::new();
            // Nothing pending: a zero timeout returns no events.
            poller.wait(&mut events, 0).unwrap();
            assert!(events.is_empty(), "{}", poller.backend_name());
            waker.wake();
            waker.wake();
            poller.wait(&mut events, 1000).unwrap();
            assert!(events.iter().any(|e| e.token == 7 && e.readable));
            waker.drain();
            poller.wait(&mut events, 0).unwrap();
            assert!(events.is_empty());
        }
    }

    #[test]
    fn socket_readability_and_deregister() {
        for mut poller in poller_pair() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let mut client = TcpStream::connect(addr).unwrap();
            let (mut served, _) = listener.accept().unwrap();
            served.set_nonblocking(true).unwrap();
            let fd = served.as_raw_fd();
            poller.register(fd, 42, Interest::READ).unwrap();
            client.write_all(b"hello").unwrap();
            let mut events = Vec::new();
            poller.wait(&mut events, 2000).unwrap();
            assert!(events.iter().any(|e| e.token == 42 && e.readable));
            let mut buf = [0u8; 16];
            let n = served.read(&mut buf).unwrap();
            assert_eq!(&buf[..n], b"hello");
            poller.deregister(fd).unwrap();
            client.write_all(b"more").unwrap();
            poller.wait(&mut events, 50).unwrap();
            assert!(events.is_empty(), "{}", poller.backend_name());
        }
    }

    #[test]
    fn write_interest_reported() {
        for mut poller in poller_pair() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let client = TcpStream::connect(addr).unwrap();
            client.set_nonblocking(true).unwrap();
            let fd = client.as_raw_fd();
            poller.register(fd, 9, Interest::READ_WRITE).unwrap();
            let mut events = Vec::new();
            poller.wait(&mut events, 2000).unwrap();
            assert!(events.iter().any(|e| e.token == 9 && e.writable));
            // Dropping write interest stops the readiness storm.
            poller.modify(fd, 9, Interest::READ).unwrap();
            poller.wait(&mut events, 50).unwrap();
            assert!(!events.iter().any(|e| e.token == 9 && e.writable));
        }
    }

    #[test]
    fn nofile_limit_queries() {
        let (soft, hard) = nofile_limit().unwrap();
        assert!(soft > 0 && hard >= soft);
        // A no-op raise (target below the current soft limit) keeps it.
        assert_eq!(raise_nofile(1), soft);
    }
}
