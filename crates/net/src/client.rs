//! A small blocking client for the SEC wire protocol, with explicit
//! pipelining.
//!
//! [`NetClient::pipeline`] encodes a whole slice of commands into one
//! buffer, sends it with a single `write`, and then reads exactly one reply
//! per command — the client-side half of the server's reply coalescing.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use sec_engine::ObjectId;

use crate::proto::{self, Command, ParsedReply, Reply};

/// A blocking protocol client over one TCP connection.
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
    rbuf: Vec<u8>,
    encode_buf: Vec<u8>,
}

impl NetClient {
    /// Connects (with `TCP_NODELAY`, so unpipelined request/response
    /// round-trips are not Nagle-delayed).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(NetClient {
            stream,
            rbuf: Vec::new(),
            encode_buf: Vec::new(),
        })
    }

    /// Sends one command and waits for its reply.
    pub fn call(&mut self, command: &Command<'_>) -> io::Result<Reply> {
        self.encode_buf.clear();
        proto::encode_command(command, &mut self.encode_buf);
        let buf = std::mem::take(&mut self.encode_buf);
        self.stream.write_all(&buf)?;
        self.encode_buf = buf;
        let mut replies = self.read_replies(1)?;
        replies
            .pop()
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "no reply"))
    }

    /// Sends every command back-to-back in one write, then reads one reply
    /// per command (in order).
    pub fn pipeline(&mut self, commands: &[Command<'_>]) -> io::Result<Vec<Reply>> {
        self.encode_buf.clear();
        for command in commands {
            proto::encode_command(command, &mut self.encode_buf);
        }
        let buf = std::mem::take(&mut self.encode_buf);
        self.stream.write_all(&buf)?;
        self.encode_buf = buf;
        self.read_replies(commands.len())
    }

    /// Reads exactly `count` replies, blocking as needed.
    pub fn read_replies(&mut self, count: usize) -> io::Result<Vec<Reply>> {
        let mut replies = Vec::with_capacity(count);
        let mut chunk = [0u8; 64 * 1024];
        while replies.len() < count {
            match proto::parse_reply(&self.rbuf) {
                ParsedReply::Complete { reply, consumed } => {
                    self.rbuf.drain(..consumed);
                    replies.push(reply);
                    continue;
                }
                ParsedReply::Malformed { reason } => {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, reason));
                }
                ParsedReply::Incomplete => {}
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed mid-reply",
                ));
            }
            self.rbuf.extend_from_slice(&chunk[..n]);
        }
        Ok(replies)
    }

    /// `PING`; errors if the server answers anything but `+PONG`.
    pub fn ping(&mut self) -> io::Result<()> {
        match self.call(&Command::Ping)? {
            Reply::Simple(s) if s == "PONG" => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// `GET` — `Ok(Ok(bytes))` on success, `Ok(Err(message))` for a server
    /// `-ERR` reply.
    pub fn get(&mut self, object: ObjectId, version: usize) -> io::Result<Result<Vec<u8>, String>> {
        match self.call(&Command::Get { object, version })? {
            Reply::Bulk(data) => Ok(Ok(data)),
            Reply::Error(message) => Ok(Err(message)),
            other => Err(unexpected(&other)),
        }
    }

    /// `PREFIX` — the first `version` versions in order.
    pub fn prefix(
        &mut self,
        object: ObjectId,
        version: usize,
    ) -> io::Result<Result<Vec<Vec<u8>>, String>> {
        match self.call(&Command::Prefix { object, version })? {
            Reply::Array(items) => Ok(Ok(items)),
            Reply::Error(message) => Ok(Err(message)),
            other => Err(unexpected(&other)),
        }
    }

    /// `APPEND` — the new 1-based version number.
    pub fn append(&mut self, object: ObjectId, payload: &[u8]) -> io::Result<Result<u64, String>> {
        match self.call(&Command::Append { object, payload })? {
            Reply::Int(version) => Ok(Ok(version)),
            Reply::Error(message) => Ok(Err(message)),
            other => Err(unexpected(&other)),
        }
    }

    /// `FAIL`.
    pub fn fail(&mut self, shard: usize, node: usize) -> io::Result<Result<(), String>> {
        self.ok_command(&Command::Fail { shard, node })
    }

    /// `REVIVE`.
    pub fn revive(&mut self, shard: usize, node: usize) -> io::Result<Result<(), String>> {
        self.ok_command(&Command::Revive { shard, node })
    }

    /// `METRICS` — the raw JSON bulk.
    pub fn metrics(&mut self) -> io::Result<String> {
        match self.call(&Command::Metrics)? {
            Reply::Bulk(data) => String::from_utf8(data)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "metrics not UTF-8")),
            other => Err(unexpected(&other)),
        }
    }

    fn ok_command(&mut self, command: &Command<'_>) -> io::Result<Result<(), String>> {
        match self.call(command)? {
            Reply::Simple(s) if s == "OK" => Ok(Ok(())),
            Reply::Error(message) => Ok(Err(message)),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(reply: &Reply) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected reply shape: {reply:?}"),
    )
}
