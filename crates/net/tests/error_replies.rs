//! Known-answer test of the `-ERR` replies: the literal wire text of every
//! cluster and store error a client can provoke. A client matches on these
//! strings, so a reworded `Display` is a protocol change; requests and
//! replies here are written out, never built from the errors they pin.
//!
//! Not reachable from the wire, so not pinned: `ClusterError::NoShards`
//! (construction only), `StoreError::Code` (a corrupt block),
//! `StoreError::RepairRaced` (repair, which the protocol does not carry),
//! `StoreError::InvalidSymbol` (a `Placement` lookup the server never makes)
//! and
//! `VersioningError::EmptyArchive` (an object with no versions is unknown).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use sec_engine::{ObjectId, PlacementStrategy, SecCluster};
use sec_erasure::GeneratorForm;
use sec_net::{Server, ServerConfig};
use sec_versioning::{ArchiveConfig, EncodingStrategy};

/// Serves a (6, 3) Basic SEC cluster of `shards` shards under `placement`,
/// object 0 holding three 64-byte versions; sends every request of
/// `exchange` in one pipelined write and asserts the replies, byte for byte.
fn assert_exchange(shards: usize, placement: PlacementStrategy, exchange: &[(&str, &str)]) {
    let config = ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec)
        .expect("valid archive config");
    let cluster = SecCluster::with_placement(config, shards, 0, placement).expect("cluster");
    let history: Vec<Vec<u8>> = (1..=3).map(|v| vec![v; 64]).collect();
    cluster.append_all(ObjectId(0), &history).expect("populate");
    let server =
        Server::start(Arc::new(cluster), "127.0.0.1:0", ServerConfig::default()).expect("server start");

    let request: String = exchange.iter().map(|(req, _)| format!("{req}\r\n")).collect();
    let expected: String = exchange.iter().map(|(_, reply)| format!("{reply}\r\n")).collect();
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream.write_all(request.as_bytes()).expect("pipelined write");
    let mut wire = vec![0u8; expected.len()];
    stream.read_exact(&mut wire).expect("replies");
    assert_eq!(String::from_utf8_lossy(&wire), expected);
    server.shutdown().expect("clean shutdown");
}

#[test]
fn every_error_reply_is_pinned_word_for_word() {
    let unknown = "-ERR object-0000000000000309 holds no versions in this cluster";
    assert_exchange(
        2,
        PlacementStrategy::Colocated,
        &[
            (
                "GET 0 99",
                "-ERR engine error: versioning error: version 99 does not exist (3 versions archived)",
            ),
            (
                "GET 0 0",
                "-ERR engine error: versioning error: version 0 does not exist (3 versions archived)",
            ),
            (
                "PREFIX 0 4",
                "-ERR engine error: versioning error: version 4 does not exist (3 versions archived)",
            ),
            ("GET 777 1", unknown),
            ("PREFIX 777 1", unknown),
            (
                "APPEND 0 3\r\nabc",
                "-ERR engine error: versioning error: version has 3 bytes but the archive \
                 stores 64-byte objects",
            ),
            ("FAIL 2 0", "-ERR shard 2 is out of range for a 2-shard cluster"),
            ("REVIVE 7 0", "-ERR shard 7 is out of range for a 2-shard cluster"),
            (
                "FAIL 0 6",
                "-ERR engine error: node id 6 is out of range for a 6-node cluster",
            ),
            (
                "REVIVE 1 9",
                "-ERR engine error: node id 9 is out of range for a 6-node cluster",
            ),
        ],
    );
}

#[test]
fn unrecoverable_and_placement_errors_are_pinned_word_for_word() {
    // Four of six nodes down leaves fewer than k = 3 for the full x_1.
    let lost = "-ERR engine error: archive entry 0 is unrecoverable with the current failures";
    assert_exchange(
        1,
        PlacementStrategy::Colocated,
        &[
            ("FAIL 0 0", "+OK"),
            ("FAIL 0 1", "+OK"),
            ("FAIL 0 2", "+OK"),
            ("FAIL 0 3", "+OK"),
            ("GET 0 2", lost),
            ("PREFIX 0 1", lost),
        ],
    );
    // Under colocated placement the group is a shard.
    assert_exchange(
        1,
        PlacementStrategy::Colocated,
        &[
            ("FAIL 1 0", "-ERR shard 1 is out of range for a 1-shard cluster"),
            (
                "REVIVE 0 6",
                "-ERR engine error: node id 6 is out of range for a 6-node cluster",
            ),
        ],
    );
    // Under dispersed placement the group is an object id, and object 0's
    // three stored entries own 3 × 6 nodes.
    assert_exchange(
        1,
        PlacementStrategy::Dispersed,
        &[
            ("FAIL 0 17", "+OK"),
            ("REVIVE 0 17", "+OK"),
            (
                "FAIL 777 0",
                "-ERR object-0000000000000309 holds no versions in this cluster",
            ),
            (
                "REVIVE 1 0",
                "-ERR object-0000000000000001 holds no versions in this cluster",
            ),
            (
                "FAIL 0 18",
                "-ERR engine error: node id 18 is out of range for a 18-node cluster",
            ),
            (
                "REVIVE 0 99",
                "-ERR engine error: node id 99 is out of range for a 18-node cluster",
            ),
        ],
    );
}
