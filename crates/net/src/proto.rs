//! The RESP-like wire protocol: incremental zero-copy frame parsing plus
//! request/reply encoders.
//!
//! # Grammar
//!
//! Requests are CRLF-terminated lines of space-separated tokens; `APPEND`
//! is followed by a binary payload and a trailing CRLF:
//!
//! ```text
//! PING\r\n
//! GET <obj> <ver>\r\n
//! PREFIX <obj> <ver>\r\n
//! APPEND <obj> <len>\r\n<len raw bytes>\r\n
//! FAIL <group> <node>\r\n
//! REVIVE <group> <node>\r\n
//! METRICS\r\n
//! ```
//!
//! A node is addressed as `(group, node)`: the group is a shard index under
//! colocated placement and a decimal object id under dispersed placement,
//! where `node` is the object's placement id `e·n + i`.
//!
//! `<obj>` is either a decimal 64-bit object id or an object *name* (any
//! other token, hashed through [`ObjectId::from_name`] — so `GET logs 3`
//! and `GET 7818597926421802027 3` address the same object). Replies use
//! the RESP shapes `+simple`, `-ERR message`, `:integer`, `$len` bulk and
//! `*count` arrays of bulks.
//!
//! # Incremental parsing
//!
//! [`parse_command`] and [`parse_reply`] consume a prefix of a byte buffer
//! and either return a complete frame plus its exact byte length, ask for
//! more bytes ([`Parsed::Incomplete`]), or reject the frame with a reason
//! ([`Parsed::Malformed`]) — never panicking, whatever the split: the
//! caller may feed bytes one at a time and re-parse after every read. A
//! malformed frame poisons the stream (there is no reliable resync point in
//! a binary protocol), so the server replies `-ERR` and closes.
//!
//! This module is under `sec-audit`'s panic-freedom rule: no unwraps and no
//! unchecked indexing. Payload slices borrow from the input buffer
//! (zero-copy); the server copies only into its write buffer.

use sec_engine::ObjectId;

/// Commands larger than this are rejected outright (a line, not a payload).
pub const MAX_LINE: usize = 1024;

/// Upper bound on an `APPEND` payload; larger lengths are rejected before
/// any buffering happens.
pub const MAX_PAYLOAD: usize = 64 << 20;

/// One parsed request frame. The `APPEND` payload borrows the input buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command<'a> {
    /// Liveness probe.
    Ping,
    /// Retrieve one version of an object.
    Get {
        /// Target object.
        object: ObjectId,
        /// 1-based version number.
        version: usize,
    },
    /// Retrieve versions `1..=version` of an object.
    Prefix {
        /// Target object.
        object: ObjectId,
        /// 1-based version number.
        version: usize,
    },
    /// Append the next version of an object.
    Append {
        /// Target object.
        object: ObjectId,
        /// The version's bytes (borrowed from the input buffer).
        payload: &'a [u8],
    },
    /// Fail node `(group, node)` (see [`sec_engine::SecCluster::fail_node`]).
    Fail {
        /// The failure domain: a shard index under colocated placement, an
        /// object id under dispersed.
        group: usize,
        /// Node index within the group.
        node: usize,
    },
    /// Revive node `(group, node)` (see [`sec_engine::SecCluster::revive_node`]).
    Revive {
        /// The failure domain, as for [`Command::Fail`].
        group: usize,
        /// Node index within the group.
        node: usize,
    },
    /// Snapshot the cluster metrics as a JSON bulk.
    Metrics,
}

/// Outcome of parsing one request frame from the front of a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parsed<'a> {
    /// A complete frame occupying exactly `consumed` leading bytes.
    Complete {
        /// The decoded command.
        command: Command<'a>,
        /// Bytes of the buffer this frame occupied.
        consumed: usize,
    },
    /// The buffer holds only a (valid so far) frame prefix; read more.
    Incomplete,
    /// The leading frame can never become valid.
    Malformed {
        /// Human-readable rejection reason (stable, used in `-ERR` replies).
        reason: &'static str,
    },
}

/// One parsed reply frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// `+message` simple string.
    Simple(String),
    /// `-ERR message` error string (without the leading `-`).
    Error(String),
    /// `:value` integer.
    Int(u64),
    /// `$len` bulk bytes.
    Bulk(Vec<u8>),
    /// `*count` array of bulks.
    Array(Vec<Vec<u8>>),
}

/// Outcome of parsing one reply frame from the front of a buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParsedReply {
    /// A complete reply occupying exactly `consumed` leading bytes.
    Complete {
        /// The decoded reply.
        reply: Reply,
        /// Bytes of the buffer this frame occupied.
        consumed: usize,
    },
    /// The buffer holds only a reply prefix; read more.
    Incomplete,
    /// The leading reply frame can never become valid.
    Malformed {
        /// Human-readable rejection reason.
        reason: &'static str,
    },
}

/// Locates the first CRLF within the window `buf[..max]`, returning the
/// index of the `\r`.
fn find_crlf(buf: &[u8], max: usize) -> Option<usize> {
    let window = buf.get(..buf.len().min(max))?;
    window.windows(2).position(|pair| pair == b"\r\n")
}

/// Checked decimal parse; rejects empty tokens, non-digits and overflow.
fn parse_u64(token: &[u8]) -> Option<u64> {
    if token.is_empty() || token.len() > 20 {
        return None;
    }
    let mut value: u64 = 0;
    for &b in token {
        if !b.is_ascii_digit() {
            return None;
        }
        value = value.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
    }
    Some(value)
}

/// An object token: a decimal id, or any other token hashed as a name.
fn parse_object(token: &[u8]) -> Option<ObjectId> {
    if token.is_empty() {
        return None;
    }
    if let Some(id) = parse_u64(token) {
        return Some(ObjectId(id));
    }
    let name = core::str::from_utf8(token).ok()?;
    Some(ObjectId::from_name(name))
}

fn parse_usize(token: &[u8]) -> Option<usize> {
    parse_u64(token).and_then(|v| usize::try_from(v).ok())
}

/// Parses one request frame from the front of `buf`.
///
/// See the module docs for the grammar; `Incomplete` is returned for any
/// strict prefix of a valid frame, so torn frames at arbitrary byte
/// boundaries re-parse cleanly once more bytes arrive.
pub fn parse_command(buf: &[u8]) -> Parsed<'_> {
    let Some(line_end) = find_crlf(buf, MAX_LINE) else {
        if buf.len() >= MAX_LINE {
            return Parsed::Malformed {
                reason: "command line too long",
            };
        }
        return Parsed::Incomplete;
    };
    let Some(line) = buf.get(..line_end) else {
        return Parsed::Incomplete;
    };
    let consumed_line = line_end + 2;
    let mut tokens = line.split(|&b| b == b' ');
    let Some(word) = tokens.next() else {
        return Parsed::Malformed {
            reason: "empty command",
        };
    };
    let arg1 = tokens.next();
    let arg2 = tokens.next();
    if tokens.next().is_some() {
        return Parsed::Malformed {
            reason: "too many arguments",
        };
    }
    let two_naturals = |reason: &'static str| -> Result<(usize, usize), Parsed<'static>> {
        match (arg1.and_then(parse_usize), arg2.and_then(parse_usize)) {
            (Some(a), Some(b)) => Ok((a, b)),
            _ => Err(Parsed::Malformed { reason }),
        }
    };
    let object_and_version = |reason: &'static str| -> Result<(ObjectId, usize), Parsed<'static>> {
        match (arg1.and_then(parse_object), arg2.and_then(parse_usize)) {
            (Some(o), Some(v)) => Ok((o, v)),
            _ => Err(Parsed::Malformed { reason }),
        }
    };
    let bare = |command: Command<'static>, reason: &'static str| -> Parsed<'static> {
        if arg1.is_some() {
            Parsed::Malformed { reason }
        } else {
            Parsed::Complete {
                command,
                consumed: consumed_line,
            }
        }
    };
    match word {
        b"PING" => bare(Command::Ping, "PING takes no arguments"),
        b"METRICS" => bare(Command::Metrics, "METRICS takes no arguments"),
        b"GET" => match object_and_version("GET wants: GET <obj> <ver>") {
            Ok((object, version)) => Parsed::Complete {
                command: Command::Get { object, version },
                consumed: consumed_line,
            },
            Err(m) => m,
        },
        b"PREFIX" => match object_and_version("PREFIX wants: PREFIX <obj> <ver>") {
            Ok((object, version)) => Parsed::Complete {
                command: Command::Prefix { object, version },
                consumed: consumed_line,
            },
            Err(m) => m,
        },
        b"FAIL" => match two_naturals("FAIL wants: FAIL <group> <node>") {
            Ok((group, node)) => Parsed::Complete {
                command: Command::Fail { group, node },
                consumed: consumed_line,
            },
            Err(m) => m,
        },
        b"REVIVE" => match two_naturals("REVIVE wants: REVIVE <group> <node>") {
            Ok((group, node)) => Parsed::Complete {
                command: Command::Revive { group, node },
                consumed: consumed_line,
            },
            Err(m) => m,
        },
        b"APPEND" => {
            let Some(object) = arg1.and_then(parse_object) else {
                return Parsed::Malformed {
                    reason: "APPEND wants: APPEND <obj> <len>",
                };
            };
            // A length token with a sign (or any non-digit) is rejected, so
            // "negative" lengths can never reach the buffering path.
            let Some(len) = arg2.and_then(parse_usize) else {
                return Parsed::Malformed {
                    reason: "APPEND length must be a non-negative integer",
                };
            };
            if len > MAX_PAYLOAD {
                return Parsed::Malformed {
                    reason: "APPEND payload too large",
                };
            }
            let Some(total) = consumed_line.checked_add(len).and_then(|t| t.checked_add(2)) else {
                return Parsed::Malformed {
                    reason: "APPEND payload too large",
                };
            };
            if buf.len() < total {
                return Parsed::Incomplete;
            }
            let Some(payload) = buf.get(consumed_line..consumed_line + len) else {
                return Parsed::Incomplete;
            };
            match buf.get(consumed_line + len..total) {
                Some(b"\r\n") => Parsed::Complete {
                    command: Command::Append { object, payload },
                    consumed: total,
                },
                _ => Parsed::Malformed {
                    reason: "APPEND payload not CRLF-terminated",
                },
            }
        }
        _ => Parsed::Malformed {
            reason: "unknown command",
        },
    }
}

/// Encodes a request frame in canonical form (object as a decimal id).
/// `parse_command` inverts this exactly.
pub fn encode_command(command: &Command<'_>, out: &mut Vec<u8>) {
    match command {
        Command::Ping => out.extend_from_slice(b"PING\r\n"),
        Command::Metrics => out.extend_from_slice(b"METRICS\r\n"),
        Command::Get { object, version } => {
            push_line(out, format_args!("GET {} {version}", object.0));
        }
        Command::Prefix { object, version } => {
            push_line(out, format_args!("PREFIX {} {version}", object.0));
        }
        Command::Fail { group, node } => {
            push_line(out, format_args!("FAIL {group} {node}"));
        }
        Command::Revive { group, node } => {
            push_line(out, format_args!("REVIVE {group} {node}"));
        }
        Command::Append { object, payload } => {
            push_line(out, format_args!("APPEND {} {}", object.0, payload.len()));
            out.extend_from_slice(payload);
            out.extend_from_slice(b"\r\n");
        }
    }
}

fn push_line(out: &mut Vec<u8>, args: core::fmt::Arguments<'_>) {
    use std::io::Write as _;
    // Vec<u8> Write is infallible; the result is still surfaced not unwrapped.
    let _ = write!(out, "{args}\r\n");
}

/// `+message\r\n`
pub fn write_simple(out: &mut Vec<u8>, message: &str) {
    out.push(b'+');
    push_sanitized(out, message);
    out.extend_from_slice(b"\r\n");
}

/// `-ERR message\r\n` (CR/LF in the message are replaced by spaces so a
/// multi-line error cannot desynchronize the stream).
pub fn write_error(out: &mut Vec<u8>, message: &str) {
    out.extend_from_slice(b"-ERR ");
    push_sanitized(out, message);
    out.extend_from_slice(b"\r\n");
}

/// `:value\r\n`
pub fn write_int(out: &mut Vec<u8>, value: u64) {
    push_line(out, format_args!(":{value}"));
}

/// `$len\r\ndata\r\n`
pub fn write_bulk(out: &mut Vec<u8>, data: &[u8]) {
    push_line(out, format_args!("${}", data.len()));
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
}

/// `*count\r\n` (followed by `count` bulks written by the caller).
pub fn write_array_header(out: &mut Vec<u8>, count: usize) {
    push_line(out, format_args!("*{count}"));
}

fn push_sanitized(out: &mut Vec<u8>, message: &str) {
    for &b in message.as_bytes() {
        out.push(if b == b'\r' || b == b'\n' { b' ' } else { b });
    }
}

/// Parses one reply frame from the front of `buf` (the client half of the
/// protocol; incremental exactly like [`parse_command`]).
pub fn parse_reply(buf: &[u8]) -> ParsedReply {
    let Some((&kind, _)) = buf.split_first() else {
        return ParsedReply::Incomplete;
    };
    let Some(line_end) = find_crlf(buf, MAX_LINE) else {
        if buf.len() >= MAX_LINE {
            return ParsedReply::Malformed {
                reason: "reply line too long",
            };
        }
        return ParsedReply::Incomplete;
    };
    let Some(line) = buf.get(1..line_end) else {
        return ParsedReply::Incomplete;
    };
    let consumed_line = line_end + 2;
    match kind {
        b'+' => match core::str::from_utf8(line) {
            Ok(s) => ParsedReply::Complete {
                reply: Reply::Simple(s.to_owned()),
                consumed: consumed_line,
            },
            Err(_) => ParsedReply::Malformed {
                reason: "simple string not UTF-8",
            },
        },
        b'-' => match core::str::from_utf8(line) {
            Ok(s) => ParsedReply::Complete {
                reply: Reply::Error(s.strip_prefix("ERR ").unwrap_or(s).to_owned()),
                consumed: consumed_line,
            },
            Err(_) => ParsedReply::Malformed {
                reason: "error string not UTF-8",
            },
        },
        b':' => match parse_u64(line) {
            Some(value) => ParsedReply::Complete {
                reply: Reply::Int(value),
                consumed: consumed_line,
            },
            None => ParsedReply::Malformed {
                reason: "bad integer reply",
            },
        },
        b'$' => match parse_bulk_at(buf, 0) {
            BulkAt::Complete { data, consumed } => ParsedReply::Complete {
                reply: Reply::Bulk(data),
                consumed,
            },
            BulkAt::Incomplete => ParsedReply::Incomplete,
            BulkAt::Malformed { reason } => ParsedReply::Malformed { reason },
        },
        b'*' => {
            let Some(count) = parse_u64(line).and_then(|v| usize::try_from(v).ok()) else {
                return ParsedReply::Malformed {
                    reason: "bad array header",
                };
            };
            if count > 1 << 20 {
                return ParsedReply::Malformed {
                    reason: "array too large",
                };
            }
            let mut items = Vec::with_capacity(count.min(1024));
            let mut at = consumed_line;
            for _ in 0..count {
                match parse_bulk_at(buf, at) {
                    BulkAt::Complete { data, consumed } => {
                        items.push(data);
                        at = consumed;
                    }
                    BulkAt::Incomplete => return ParsedReply::Incomplete,
                    BulkAt::Malformed { reason } => return ParsedReply::Malformed { reason },
                }
            }
            ParsedReply::Complete {
                reply: Reply::Array(items),
                consumed: at,
            }
        }
        _ => ParsedReply::Malformed {
            reason: "unknown reply type",
        },
    }
}

enum BulkAt {
    Complete { data: Vec<u8>, consumed: usize },
    Incomplete,
    Malformed { reason: &'static str },
}

/// Parses a `$len\r\ndata\r\n` bulk starting at absolute offset `at`;
/// `consumed` is the absolute offset one past the bulk.
fn parse_bulk_at(buf: &[u8], at: usize) -> BulkAt {
    let Some(rest) = buf.get(at..) else {
        return BulkAt::Incomplete;
    };
    match rest.split_first() {
        Some((&b'$', _)) => {}
        Some(_) => {
            return BulkAt::Malformed {
                reason: "expected bulk",
            }
        }
        None => return BulkAt::Incomplete,
    }
    let Some(line_end) = find_crlf(rest, MAX_LINE) else {
        if rest.len() >= MAX_LINE {
            return BulkAt::Malformed {
                reason: "bulk header too long",
            };
        }
        return BulkAt::Incomplete;
    };
    let Some(len) = rest
        .get(1..line_end)
        .and_then(parse_u64)
        .and_then(|v| usize::try_from(v).ok())
    else {
        return BulkAt::Malformed {
            reason: "bad bulk length",
        };
    };
    if len > MAX_PAYLOAD {
        return BulkAt::Malformed {
            reason: "bulk too large",
        };
    }
    let data_start = line_end + 2;
    let Some(total) = data_start.checked_add(len).and_then(|t| t.checked_add(2)) else {
        return BulkAt::Malformed {
            reason: "bulk too large",
        };
    };
    if rest.len() < total {
        return BulkAt::Incomplete;
    }
    let Some(data) = rest.get(data_start..data_start + len) else {
        return BulkAt::Incomplete;
    };
    match rest.get(data_start + len..total) {
        Some(b"\r\n") => BulkAt::Complete {
            data: data.to_vec(),
            consumed: at + total,
        },
        _ => BulkAt::Malformed {
            reason: "bulk not CRLF-terminated",
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_each_command() {
        let cases: &[(&[u8], Command<'_>)] = &[
            (b"PING\r\n", Command::Ping),
            (b"METRICS\r\n", Command::Metrics),
            (
                b"GET 7 3\r\n",
                Command::Get {
                    object: ObjectId(7),
                    version: 3,
                },
            ),
            (
                b"PREFIX 7 2\r\n",
                Command::Prefix {
                    object: ObjectId(7),
                    version: 2,
                },
            ),
            (b"FAIL 0 2\r\n", Command::Fail { group: 0, node: 2 }),
            (b"REVIVE 1 0\r\n", Command::Revive { group: 1, node: 0 }),
            (
                b"APPEND 9 5\r\nhello\r\n",
                Command::Append {
                    object: ObjectId(9),
                    payload: b"hello",
                },
            ),
        ];
        for (bytes, want) in cases {
            match parse_command(bytes) {
                Parsed::Complete { command, consumed } => {
                    assert_eq!(&command, want);
                    assert_eq!(consumed, bytes.len());
                }
                other => panic!("{:?} -> {other:?}", String::from_utf8_lossy(bytes)),
            }
        }
    }

    #[test]
    fn names_hash_like_from_name() {
        match parse_command(b"GET logs 1\r\n") {
            Parsed::Complete {
                command: Command::Get { object, .. },
                ..
            } => assert_eq!(object, ObjectId::from_name("logs")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn torn_frames_are_incomplete() {
        let full = b"APPEND 9 5\r\nhello\r\n";
        for cut in 0..full.len() {
            let parsed = parse_command(&full[..cut]);
            assert_eq!(parsed, Parsed::Incomplete, "cut={cut}");
        }
    }

    #[test]
    fn malformed_frames_rejected() {
        for bytes in [
            b"NOPE\r\n".as_slice(),
            b"GET 1\r\n",
            b"GET 1 2 3\r\n",
            b"PING 1\r\n",
            b"GET 1 -2\r\n",
            b"APPEND 1 -5\r\nhello\r\n",
            b"APPEND 1 99999999999999999999999\r\n",
            b"APPEND 1 5\r\nhelloXY",
            b"\r\n",
        ] {
            assert!(
                matches!(parse_command(bytes), Parsed::Malformed { .. }),
                "{:?}",
                String::from_utf8_lossy(bytes)
            );
        }
        let oversized = format!("APPEND 1 {}\r\n", MAX_PAYLOAD + 1);
        assert!(matches!(
            parse_command(oversized.as_bytes()),
            Parsed::Malformed { .. }
        ));
        let long_line = vec![b'A'; MAX_LINE + 1];
        assert!(matches!(parse_command(&long_line), Parsed::Malformed { .. }));
    }

    #[test]
    fn replies_roundtrip() {
        let mut buf = Vec::new();
        write_simple(&mut buf, "PONG");
        write_error(&mut buf, "boom\r\nline");
        write_int(&mut buf, 42);
        write_bulk(&mut buf, b"data");
        write_array_header(&mut buf, 2);
        write_bulk(&mut buf, b"a");
        write_bulk(&mut buf, b"");
        let mut at = 0;
        let mut replies = Vec::new();
        while at < buf.len() {
            match parse_reply(&buf[at..]) {
                ParsedReply::Complete { reply, consumed } => {
                    replies.push(reply);
                    at += consumed;
                }
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(
            replies,
            vec![
                Reply::Simple("PONG".into()),
                Reply::Error("boom  line".into()),
                Reply::Int(42),
                Reply::Bulk(b"data".to_vec()),
                Reply::Array(vec![b"a".to_vec(), Vec::new()]),
            ]
        );
    }

    #[test]
    fn reply_parser_rejects_garbage() {
        assert!(matches!(parse_reply(b"@x\r\n"), ParsedReply::Malformed { .. }));
        assert!(matches!(parse_reply(b":1x\r\n"), ParsedReply::Malformed { .. }));
        assert!(matches!(parse_reply(b"$-1\r\n"), ParsedReply::Malformed { .. }));
        assert!(matches!(
            parse_reply(b"*2\r\n$1\r\na\r\n:3\r\n"),
            ParsedReply::Malformed { .. }
        ));
        assert_eq!(parse_reply(b""), ParsedReply::Incomplete);
        assert_eq!(parse_reply(b"$4\r\nda"), ParsedReply::Incomplete);
    }
}
