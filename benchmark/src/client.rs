//! A lean verifying client for the SEC wire protocol.
//!
//! `sec_net::NetClient` materialises every reply as a `Vec`, which for a
//! whole-archive `PREFIX` costs more than the server's own work. This one
//! sends pre-encoded frames from one reusable buffer, reads the reply header
//! and then exactly the announced length through one fixed read buffer, and
//! compares the bytes against the expected version as they stream past — no
//! allocation per reply.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

use crate::gen::{Data, Op, Req, Script};

const READ_BUF: usize = 256 * 1024;
/// Bytes compared at each end of a bulk reply in light verification.
const EDGE: usize = 16;

/// How thoroughly a reply's payload is compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verify {
    /// Every byte (warm-up, serial phase, traced requests).
    Full,
    /// Length and the first and last `EDGE` bytes of each bulk (pipelined
    /// phase, where the caller still asks for `Full` on 1 reply in 64).
    Edges,
}

#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    buf: Box<[u8]>,
    pos: usize,
    len: usize,
    send: Vec<u8>,
    /// Reply bytes received, framing included.
    pub bytes_in: u64,
}

fn malformed(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("malformed reply: {what}"))
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            buf: vec![0u8; READ_BUF].into_boxed_slice(),
            pos: 0,
            len: 0,
            send: Vec::with_capacity(64 * 1024),
            bytes_in: 0,
        })
    }

    /// Sends requests `range` of `script` back to back in one write.
    pub fn send(
        &mut self,
        script: &Script,
        range: std::ops::Range<usize>,
        data: &Data,
    ) -> io::Result<()> {
        self.send.clear();
        for i in range {
            self.send.extend_from_slice(script.head(i));
            let req = script.reqs[i];
            if req.op == Op::Append {
                self.send.extend_from_slice(data.version(req.a, req.b));
                self.send.extend_from_slice(b"\r\n");
            }
        }
        self.stream.write_all(&self.send)
    }

    /// Reads the reply to `req` and checks it against what the generator
    /// knows the answer to be. `Ok(false)` is a wrong or `-ERR` reply that
    /// left the stream in step; an `Err` is a stream that cannot be trusted
    /// any further.
    pub fn recv(&mut self, req: Req, data: &Data, verify: Verify) -> io::Result<bool> {
        match req.op {
            Op::Get => self.recv_bulk(data.version(req.a, req.b), verify),
            Op::Prefix => {
                let expected = data.prefix(req.a, req.b);
                let (kind, count) = self.header()?;
                if kind == b'-' {
                    return Ok(false);
                }
                if kind != b'*' {
                    return Err(malformed("expected an array"));
                }
                let mut ok = count == expected.len() as u64;
                for i in 0..count as usize {
                    // A wrong count still has to be read to stay in step.
                    let version = expected.get(i).map_or(&[][..], Vec::as_slice);
                    ok &= self.recv_bulk(version, verify)?;
                }
                Ok(ok)
            }
            Op::Append => {
                let (kind, value) = self.header()?;
                Ok(kind == b':' && value == u64::from(req.b))
            }
            Op::Fail => self.recv_simple(b"OK"),
            Op::Ping => self.recv_simple(b"PONG"),
        }
    }

    fn fill(&mut self) -> io::Result<()> {
        if self.pos == self.len {
            self.pos = 0;
            self.len = 0;
        } else if self.len == self.buf.len() {
            self.buf.copy_within(self.pos..self.len, 0);
            self.len -= self.pos;
            self.pos = 0;
        }
        let n = self.stream.read(&mut self.buf[self.len..])?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed mid-reply",
            ));
        }
        self.len += n;
        self.bytes_in += n as u64;
        Ok(())
    }

    /// Consumes one CRLF-terminated line and returns its bounds in `buf`.
    fn line(&mut self) -> io::Result<(usize, usize)> {
        let mut scanned = 0;
        loop {
            let window = &self.buf[self.pos..self.len];
            if let Some(at) = window[scanned..].windows(2).position(|w| w == b"\r\n") {
                let start = self.pos;
                let end = self.pos + scanned + at;
                self.pos = end + 2;
                return Ok((start, end));
            }
            if window.len() > 1024 {
                return Err(malformed("header line too long"));
            }
            scanned = window.len().saturating_sub(1);
            self.fill()?;
        }
    }

    /// The type byte of the next reply and, for `$`, `*` and `:`, its number.
    fn header(&mut self) -> io::Result<(u8, u64)> {
        let (start, end) = self.line()?;
        let line = &self.buf[start..end];
        let (&kind, rest) = line.split_first().ok_or_else(|| malformed("empty line"))?;
        match kind {
            b'$' | b'*' | b':' => {
                let mut value = 0u64;
                if rest.is_empty() || rest.len() > 19 || !rest.iter().all(u8::is_ascii_digit) {
                    return Err(malformed("bad number"));
                }
                for &d in rest {
                    value = value * 10 + u64::from(d - b'0');
                }
                Ok((kind, value))
            }
            b'+' | b'-' => Ok((kind, 0)),
            _ => Err(malformed("unknown reply type")),
        }
    }

    fn recv_simple(&mut self, expected: &[u8]) -> io::Result<bool> {
        let (start, end) = self.line()?;
        Ok(self.buf[start..end].split_first() == Some((&b'+', expected)))
    }

    fn recv_bulk(&mut self, expected: &[u8], verify: Verify) -> io::Result<bool> {
        let (kind, announced) = self.header()?;
        if kind == b'-' {
            return Ok(false);
        }
        if kind != b'$' {
            return Err(malformed("expected a bulk"));
        }
        let total = announced as usize;
        let mut ok = total == expected.len();
        let mut off = 0;
        while off < total {
            if self.pos == self.len {
                self.fill()?;
            }
            let take = (self.len - self.pos).min(total - off);
            if ok {
                let got = &self.buf[self.pos..self.pos + take];
                ok = match verify {
                    Verify::Full => got == &expected[off..off + take],
                    Verify::Edges => edges_match(expected, off, got),
                };
            }
            self.pos += take;
            off += take;
        }
        while self.len - self.pos < 2 {
            self.fill()?;
        }
        if &self.buf[self.pos..self.pos + 2] != b"\r\n" {
            return Err(malformed("bulk not CRLF-terminated"));
        }
        self.pos += 2;
        Ok(ok)
    }
}

/// Compares the parts of `got` (which sits at `off` in the reply) that fall
/// in the first or last `EDGE` bytes of `expected`.
fn edges_match(expected: &[u8], off: usize, got: &[u8]) -> bool {
    let end = off + got.len();
    let head = off..end.min(EDGE);
    let tail = off.max(expected.len().saturating_sub(EDGE))..end;
    [head, tail]
        .into_iter()
        .filter(|r| r.start < r.end)
        .all(|r| got[r.start - off..r.end - off] == expected[r.clone()])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_comparison_sees_only_the_ends() {
        let expected: Vec<u8> = (0..100).collect();
        let mut got = expected.clone();
        assert!(edges_match(&expected, 0, &got));
        got[50] ^= 1; // the middle is not looked at
        assert!(edges_match(&expected, 0, &got));
        got[3] ^= 1;
        assert!(!edges_match(&expected, 0, &got));
        got[3] ^= 1;
        got[99] ^= 1;
        assert!(!edges_match(&expected, 0, &got));
        // A chunk in the middle of the reply, overlapping the tail only.
        assert!(edges_match(&expected, 80, &expected[80..95]));
        assert!(!edges_match(&expected, 80, &[0u8; 15]));
        assert!(edges_match(&expected, 20, &[0u8; 60]));
    }
}
