//! Property tests for the wire protocol: every command round-trips through
//! encoder → parser under adversarial framing — torn at every byte
//! boundary, concatenated into pipelines, or padded with trailing bytes —
//! and hostile headers (oversized, signed, overflowing lengths) are
//! rejected without panicking.

use proptest::prelude::*;

use sec_engine::ObjectId;
use sec_net::proto::{
    self, encode_command, parse_command, parse_reply, Command, Parsed, ParsedReply, Reply, MAX_PAYLOAD,
};

/// An owned stand-in for `Command<'a>` (the borrowed payload can't live in a
/// proptest strategy).
#[derive(Debug, Clone)]
enum OwnedCommand {
    Ping,
    Metrics,
    Get { object: u64, version: usize },
    Prefix { object: u64, version: usize },
    Append { object: u64, payload: Vec<u8> },
    Fail { group: usize, node: usize },
    Revive { group: usize, node: usize },
}

impl OwnedCommand {
    fn borrow(&self) -> Command<'_> {
        match self {
            OwnedCommand::Ping => Command::Ping,
            OwnedCommand::Metrics => Command::Metrics,
            OwnedCommand::Get { object, version } => Command::Get {
                object: ObjectId(*object),
                version: *version,
            },
            OwnedCommand::Prefix { object, version } => Command::Prefix {
                object: ObjectId(*object),
                version: *version,
            },
            OwnedCommand::Append { object, payload } => Command::Append {
                object: ObjectId(*object),
                payload,
            },
            OwnedCommand::Fail { group, node } => Command::Fail {
                group: *group,
                node: *node,
            },
            OwnedCommand::Revive { group, node } => Command::Revive {
                group: *group,
                node: *node,
            },
        }
    }
}

/// Object ids biased toward the extremes of the decimal encoding.
fn id_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(1u64), Just(u64::MAX), 0u64..=u64::MAX]
}

fn version_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![Just(0usize), Just(1usize), Just(usize::MAX), 0usize..10_000]
}

/// Payloads biased toward framing hazards: empty, lone CR, lone LF, an
/// embedded CRLF (must not terminate the frame early), and random bytes.
fn payload_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        Just(Vec::new()),
        Just(b"\r".to_vec()),
        Just(b"\n".to_vec()),
        Just(b"\r\n".to_vec()),
        Just(b"x\r\ny".to_vec()),
        proptest::collection::vec(0u8..=255, 0..300),
    ]
}

fn command_strategy() -> impl Strategy<Value = OwnedCommand> {
    prop_oneof![
        Just(OwnedCommand::Ping),
        Just(OwnedCommand::Metrics),
        (id_strategy(), version_strategy())
            .prop_map(|(object, version)| OwnedCommand::Get { object, version }),
        (id_strategy(), version_strategy())
            .prop_map(|(object, version)| OwnedCommand::Prefix { object, version }),
        (id_strategy(), payload_strategy())
            .prop_map(|(object, payload)| OwnedCommand::Append { object, payload }),
        (0usize..64, 0usize..64).prop_map(|(group, node)| OwnedCommand::Fail { group, node }),
        (0usize..64, 0usize..64).prop_map(|(group, node)| OwnedCommand::Revive { group, node }),
    ]
}

/// ASCII text without CR/LF (which the reply writers sanitize by design).
fn message_strategy() -> impl Strategy<Value = String> {
    let charset: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ._-";
    let n = charset.len();
    proptest::collection::vec(0usize..n, 0..40)
        .prop_map(move |indices| indices.into_iter().map(|i| charset[i] as char).collect())
}

fn hostile_length_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(format!("{}", MAX_PAYLOAD as u64 + 1)),
        Just("-1".to_string()),
        Just("-99999".to_string()),
        Just("+5".to_string()),
        Just("18446744073709551616".to_string()),
        Just("99999999999999999999999999".to_string()),
        Just("0x10".to_string()),
        Just("5.0".to_string()),
    ]
}

proptest! {
    /// encode → parse is the identity, and consumes exactly the frame.
    #[test]
    fn encode_parse_round_trip(command in command_strategy()) {
        let mut buf = Vec::new();
        encode_command(&command.borrow(), &mut buf);
        match parse_command(&buf) {
            Parsed::Complete { command: parsed, consumed } => {
                prop_assert_eq!(parsed, command.borrow());
                prop_assert_eq!(consumed, buf.len());
            }
            other => prop_assert!(false, "round trip failed: {:?}", other),
        }
    }

    /// Every strict prefix of a valid frame is `Incomplete` — a frame torn
    /// at ANY byte boundary re-parses once the rest arrives — and the parse
    /// result is identical whatever suffix follows the frame.
    #[test]
    fn torn_at_every_boundary_then_completed(
        command in command_strategy(),
        trailer in proptest::collection::vec(0u8..=255, 0..40),
    ) {
        let mut buf = Vec::new();
        encode_command(&command.borrow(), &mut buf);
        for cut in 0..buf.len() {
            prop_assert_eq!(
                parse_command(&buf[..cut]),
                Parsed::Incomplete,
                "cut at {} of {}", cut, buf.len()
            );
        }
        // With arbitrary pipelined bytes appended, the first frame parses
        // identically and consumes only itself.
        let mut extended = buf.clone();
        extended.extend_from_slice(&trailer);
        match parse_command(&extended) {
            Parsed::Complete { command: parsed, consumed } => {
                prop_assert_eq!(parsed, command.borrow());
                prop_assert_eq!(consumed, buf.len());
            }
            other => prop_assert!(false, "suffix changed the parse: {:?}", other),
        }
    }

    /// A pipeline of concatenated frames parses back to the same sequence,
    /// frame by frame, regardless of how the commands interleave.
    #[test]
    fn pipelined_concatenation_preserves_sequence(
        commands in proptest::collection::vec(command_strategy(), 1..12),
    ) {
        let mut buf = Vec::new();
        for command in &commands {
            encode_command(&command.borrow(), &mut buf);
        }
        let mut at = 0;
        for (i, want) in commands.iter().enumerate() {
            match parse_command(&buf[at..]) {
                Parsed::Complete { command: parsed, consumed } => {
                    prop_assert_eq!(parsed, want.borrow(), "frame {}", i);
                    at += consumed;
                }
                other => {
                    prop_assert!(false, "frame {} failed: {:?}", i, other);
                }
            }
        }
        prop_assert_eq!(at, buf.len(), "pipeline left residue");
    }

    /// The parser never panics on arbitrary bytes, and whatever it accepts
    /// it accepts with a sane `consumed`.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..2048)) {
        match parse_command(&bytes) {
            Parsed::Complete { consumed, .. } => {
                prop_assert!(consumed > 0 && consumed <= bytes.len());
            }
            Parsed::Incomplete | Parsed::Malformed { .. } => {}
        }
        match parse_reply(&bytes) {
            ParsedReply::Complete { consumed, .. } => {
                prop_assert!(consumed > 0 && consumed <= bytes.len());
            }
            ParsedReply::Incomplete | ParsedReply::Malformed { .. } => {}
        }
    }

    /// Hostile APPEND length tokens — signed, overflowing, over the payload
    /// cap, non-decimal — are `Malformed`, never `Complete`, never a panic.
    #[test]
    fn hostile_append_lengths_rejected(
        object in id_strategy(),
        length in hostile_length_strategy(),
    ) {
        let frame = format!("APPEND {object} {length}\r\nhello\r\n");
        prop_assert!(
            matches!(parse_command(frame.as_bytes()), Parsed::Malformed { .. }),
            "{:?} was not rejected", frame
        );
    }

    /// Reply encodings round-trip under every torn split.
    #[test]
    fn reply_round_trip_and_tearing(
        message in message_strategy(),
        value in 0u64..=u64::MAX,
        bulk in proptest::collection::vec(0u8..=255, 0..200),
        items in proptest::collection::vec(proptest::collection::vec(0u8..=255, 0..50), 0..6),
    ) {
        let mut buf = Vec::new();
        proto::write_simple(&mut buf, &message);
        proto::write_error(&mut buf, &message);
        proto::write_int(&mut buf, value);
        proto::write_bulk(&mut buf, &bulk);
        proto::write_array_header(&mut buf, items.len());
        for item in &items {
            proto::write_bulk(&mut buf, item);
        }
        let expected = [
            Reply::Simple(message.clone()),
            Reply::Error(message.clone()),
            Reply::Int(value),
            Reply::Bulk(bulk),
            Reply::Array(items),
        ];
        let mut at = 0;
        for (i, want) in expected.iter().enumerate() {
            match parse_reply(&buf[at..]) {
                ParsedReply::Complete { reply, consumed } => {
                    prop_assert_eq!(&reply, want, "reply {}", i);
                    // Every strict prefix of this frame is Incomplete.
                    for cut in 0..consumed {
                        prop_assert_eq!(
                            parse_reply(&buf[at..at + cut]),
                            ParsedReply::Incomplete,
                            "reply {} cut {}", i, cut
                        );
                    }
                    at += consumed;
                }
                other => {
                    prop_assert!(false, "reply {} failed: {:?}", i, other);
                }
            }
        }
        prop_assert_eq!(at, buf.len());
    }
}
