//! End-to-end tests: a real `Server` over loopback sockets, exercised by
//! `NetClient`s — single calls, pipelines, concurrent clients, membership
//! chaos, malformed input, and the graceful-shutdown contract.

#![allow(
    clippy::disallowed_methods,
    reason = "test code: the stop flag its worker threads poll"
)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use sec_engine::{ObjectId, PlacementStrategy, SecCluster};
use sec_erasure::GeneratorForm;
use sec_net::load::{run_get_load, LoadConfig};
use sec_net::proto::{self, Command};
use sec_net::{NetClient, Reply, Server, ServerConfig};
use sec_versioning::{ArchiveConfig, EncodingStrategy};

/// `(n, k) = (6, 3)` Basic SEC over 4 shards, with a small delta cache.
fn test_cluster() -> Arc<SecCluster> {
    let config = ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec)
        .expect("valid archive config");
    Arc::new(SecCluster::with_cache(config, 4, 4).expect("cluster"))
}

/// Deterministic version payload, distinct per `(object, version)`.
fn payload(id: u64, version: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| (id as usize + version * 31 + i) as u8).collect()
}

fn populate(cluster: &SecCluster, objects: u64, versions: usize, len: usize) {
    for id in 0..objects {
        let history: Vec<Vec<u8>> = (1..=versions).map(|v| payload(id, v, len)).collect();
        cluster.append_all(ObjectId(id), &history).expect("populate");
    }
}

fn start_server(cluster: &Arc<SecCluster>, workers: usize) -> sec_net::ServerHandle {
    let config = ServerConfig {
        workers,
        ..ServerConfig::default()
    };
    Server::start(Arc::clone(cluster), "127.0.0.1:0", config).expect("server start")
}

#[test]
fn single_calls_round_trip_every_command() {
    let cluster = test_cluster();
    populate(&cluster, 4, 3, 96);
    let server = start_server(&cluster, 2);
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    client.ping().expect("ping");

    // Every stored version comes back byte-exact vs the direct cluster call.
    for id in 0..4u64 {
        for v in 1..=3usize {
            let direct = cluster.get_version(ObjectId(id), v).expect("direct get");
            let wire = client.get(ObjectId(id), v).expect("io").expect("reply");
            assert_eq!(wire, *direct.data, "object {id} version {v}");
        }
    }

    // PREFIX returns the first l versions in order.
    let prefix = client.prefix(ObjectId(2), 3).expect("io").expect("reply");
    assert_eq!(prefix.len(), 3);
    for (i, version) in prefix.iter().enumerate() {
        assert_eq!(*version, payload(2, i + 1, 96), "prefix version {}", i + 1);
    }

    // APPEND returns the new 1-based version id and the data is served back.
    let new_payload = payload(9, 4, 96);
    let version = client
        .append(ObjectId(9), &new_payload)
        .expect("io")
        .expect("reply");
    assert_eq!(version, 1);
    assert_eq!(
        client.get(ObjectId(9), 1).expect("io").expect("reply"),
        new_payload
    );

    // FAIL / REVIVE go through; a GET between them still succeeds because
    // (6, 3) tolerates one dead node.
    client.fail(0, 1).expect("io").expect("fail");
    let degraded = client.get(ObjectId(0), 1);
    client.revive(0, 1).expect("io").expect("revive");
    assert_eq!(
        degraded.expect("io").expect("reply"),
        payload(0, 1, 96),
        "read under one failed node"
    );

    // METRICS is JSON-ish and reflects the appended state.
    let metrics = client.metrics().expect("metrics");
    assert!(metrics.starts_with('{') && metrics.ends_with('}'), "{metrics}");
    assert!(metrics.contains("\"objects\":5"), "{metrics}");

    // Error paths come back as server-side errors, not transport failures.
    assert!(client.get(ObjectId(0), 99).expect("io").is_err());
    assert!(client.get(ObjectId(777), 1).expect("io").is_err());

    drop(client);
    server.shutdown().expect("clean shutdown");
}

#[test]
fn pipelined_batches_preserve_request_order() {
    let cluster = test_cluster();
    populate(&cluster, 8, 4, 64);
    let server = start_server(&cluster, 2);
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    // A long mixed pipeline: GET runs interleaved with PINGs.
    let mut commands = Vec::new();
    let mut expected: Vec<Option<(u64, usize)>> = Vec::new();
    for round in 0..50usize {
        for id in 0..8u64 {
            let version = (round + id as usize) % 4 + 1;
            commands.push(Command::Get {
                object: ObjectId(id),
                version,
            });
            expected.push(Some((id, version)));
        }
        commands.push(Command::Ping);
        expected.push(None);
    }
    let replies = client.pipeline(&commands).expect("pipeline");
    assert_eq!(replies.len(), commands.len());
    for (reply, want) in replies.iter().zip(&expected) {
        match want {
            Some((id, version)) => match reply {
                Reply::Bulk(data) => assert_eq!(*data, payload(*id, *version, 64)),
                other => panic!("expected bulk for {id}/{version}, got {other:?}"),
            },
            None => assert_eq!(*reply, Reply::Simple("PONG".to_string())),
        }
    }

    server.shutdown().expect("clean shutdown");
}

#[test]
fn pipelined_errors_and_a_write_keep_their_slots_on_the_wire() {
    let cluster = test_cluster();
    populate(&cluster, 2, 3, 64);
    let server = start_server(&cluster, 1);

    let appended = payload(0, 4, 64);

    // One write: GET ok, GET bad-version, GET unknown-object, APPEND,
    // GET new-version, GET ok.
    let get = |id, version| Command::Get {
        object: ObjectId(id),
        version,
    };
    let commands = [
        get(0, 2),
        get(0, 99),
        get(777, 1),
        Command::Append {
            object: ObjectId(0),
            payload: &appended,
        },
        get(0, 4),
        get(1, 1),
    ];
    let mut request = Vec::new();
    for command in &commands {
        proto::encode_command(command, &mut request);
    }

    // Six replies, in request order, byte for byte.
    let mut expected = Vec::new();
    proto::write_bulk(&mut expected, &payload(0, 2, 64));
    // The error text is pinned word for word (`error_replies.rs` pins the
    // rest); the APPEND after it does not change the count it quotes.
    expected.extend_from_slice(
        b"-ERR engine error: versioning error: version 99 does not exist (3 versions archived)\r\n",
    );
    expected.extend_from_slice(b"-ERR object-0000000000000309 holds no versions in this cluster\r\n");
    proto::write_int(&mut expected, 4);
    proto::write_bulk(&mut expected, &appended);
    proto::write_bulk(&mut expected, &payload(1, 1, 64));

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream.write_all(&request).expect("pipelined write");
    let mut wire = vec![0u8; expected.len()];
    stream.read_exact(&mut wire).expect("six replies");
    assert!(
        wire == expected,
        "replies out of order or altered:\n got {}\nwant {}",
        String::from_utf8_lossy(&wire),
        String::from_utf8_lossy(&expected)
    );

    server.shutdown().expect("clean shutdown");
}

#[test]
fn concurrent_clients_under_fail_revive_chaos_stay_byte_exact() {
    let cluster = test_cluster();
    populate(&cluster, 6, 4, 128);
    let server = start_server(&cluster, 3);
    let addr = server.local_addr();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

    // Chaos: cycle FAIL/REVIVE across shard 0's nodes and APPEND fresh
    // versions to a dedicated object, over the wire, while readers run.
    let chaos = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut client = NetClient::connect(addr).expect("chaos connect");
            let mut node = 0usize;
            let mut round = 0usize;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                client.fail(0, node).expect("io").expect("fail");
                let extra = payload(100, round, 128);
                client.append(ObjectId(100), &extra).expect("io").expect("append");
                client.revive(0, node).expect("io").expect("revive");
                node = (node + 1) % 3;
                round += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            round
        })
    };

    // Readers: pipelined GETs against the immutable pre-populated versions.
    // Every reply must be either a clean `-ERR` (too many dead nodes at that
    // instant) or the exact bytes — never garbage, never out of order.
    let readers: Vec<_> = (0..4)
        .map(|reader| {
            std::thread::spawn(move || {
                let mut client = NetClient::connect(addr).expect("reader connect");
                let mut errors = 0usize;
                let mut ok = 0usize;
                for round in 0..60usize {
                    let commands: Vec<Command<'_>> = (0..6u64)
                        .map(|id| Command::Get {
                            object: ObjectId(id),
                            version: (reader + round + id as usize) % 4 + 1,
                        })
                        .collect();
                    let replies = client.pipeline(&commands).expect("pipeline io");
                    for (reply, command) in replies.iter().zip(&commands) {
                        let Command::Get { object, version } = command else {
                            unreachable!()
                        };
                        match reply {
                            Reply::Bulk(data) => {
                                assert_eq!(
                                    *data,
                                    payload(object.0, *version, 128),
                                    "object {} version {version}",
                                    object.0
                                );
                                ok += 1;
                            }
                            Reply::Error(_) => errors += 1,
                            other => panic!("unexpected reply {other:?}"),
                        }
                    }
                }
                (ok, errors)
            })
        })
        .collect();

    let mut total_ok = 0;
    for reader in readers {
        let (ok, _errors) = reader.join().expect("reader thread");
        total_ok += ok;
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let chaos_rounds = chaos.join().expect("chaos thread");

    assert!(total_ok > 0, "no successful read survived the chaos");
    assert!(chaos_rounds > 0, "chaos thread never completed a round");

    // The chaos appends are all serveable afterwards.
    let mut client = NetClient::connect(addr).expect("connect");
    let appended = cluster.version_count(ObjectId(100)).unwrap_or(0);
    assert_eq!(appended, chaos_rounds);
    for v in 1..=appended {
        let wire = client.get(ObjectId(100), v).expect("io").expect("reply");
        assert_eq!(wire, payload(100, v - 1, 128), "chaos append version {v}");
    }

    server.shutdown().expect("clean shutdown");
}

/// Every `(object, version)` of a 3-object, 4-version history, object-major.
fn every_read() -> impl Iterator<Item = (u64, usize)> {
    (0..3u64).flat_map(|id| (1..=4).map(move |v| (id, v)))
}

#[test]
fn dispersed_fail_and_revive_degrade_only_the_named_object() {
    // Under dispersed placement the group of `FAIL <group> <node>` is an
    // object id and `node` its placement id `e·n + i`. The oracle is an
    // identical cluster failed by direct calls; errors compare as wire text.
    let config = ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec)
        .expect("valid archive config");
    let build = || {
        let cluster =
            SecCluster::with_placement(config, 2, 0, PlacementStrategy::Dispersed).expect("cluster");
        populate(&cluster, 3, 4, 128);
        cluster
    };
    let served = Arc::new(build());
    let oracle = build();
    let server = start_server(&served, 2);
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let oracle_reads = || -> Vec<Result<Vec<u8>, String>> {
        every_read()
            .map(|(id, v)| match oracle.get_version(ObjectId(id), v) {
                Ok(r) => Ok((*r.data).clone()),
                Err(e) => Err(e.to_string()),
            })
            .collect()
    };
    let mut wire_reads = || -> Vec<Result<Vec<u8>, String>> {
        every_read()
            .map(|(id, v)| client.get(ObjectId(id), v).expect("io"))
            .collect()
    };
    let healthy: Vec<Result<Vec<u8>, String>> =
        every_read().map(|(id, v)| Ok(payload(id, v, 128))).collect();
    assert_eq!(wire_reads(), healthy);

    // Fail n − k + 1 = 4 of the 6 nodes of object 1's entry 2 (z_3): its
    // versions 3 and 4 need that entry, nothing else does.
    let (object, n) = (1usize, 6usize);
    let mut admin = NetClient::connect(server.local_addr()).expect("connect");
    for node in 2 * n..2 * n + 4 {
        admin.fail(object, node).expect("io").expect("fail");
        oracle.fail_node(object, node).expect("direct fail");
    }
    let degraded = wire_reads();
    assert_eq!(degraded, oracle_reads());
    let lost = "engine error: archive entry 2 is unrecoverable with the current failures";
    for ((id, v), (read, healthy)) in every_read().zip(degraded.iter().zip(&healthy)) {
        if id == object as u64 && v >= 3 {
            assert_eq!(read, &Err(lost.to_owned()), "object {id} version {v}");
        } else {
            assert_eq!(read, healthy, "object {id} version {v}");
        }
    }

    for node in 2 * n..2 * n + 4 {
        admin.revive(object, node).expect("io").expect("revive");
        oracle.revive_node(object, node).expect("direct revive");
    }
    assert_eq!(wire_reads(), healthy);
    assert_eq!(oracle_reads(), healthy);

    drop((client, admin));
    server.shutdown().expect("clean shutdown");
}

#[test]
fn torn_frames_across_writes_still_parse() {
    let cluster = test_cluster();
    populate(&cluster, 1, 1, 48);
    let server = start_server(&cluster, 1);

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");

    // Dribble an APPEND and a GET one byte at a time across the socket.
    let mut frames = Vec::new();
    proto::encode_command(
        &Command::Append {
            object: ObjectId(0),
            payload: b"torn-frame-payload-torn-frame-payload-torn-frame",
        },
        &mut frames,
    );
    proto::encode_command(
        &Command::Get {
            object: ObjectId(0),
            version: 2,
        },
        &mut frames,
    );
    for byte in &frames {
        stream.write_all(std::slice::from_ref(byte)).expect("write");
        if byte % 7 == 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    // Replies: `:2` for the append (second version), then the bulk.
    let mut rbuf = Vec::new();
    let mut replies = Vec::new();
    let mut chunk = [0u8; 4096];
    while replies.len() < 2 {
        match proto::parse_reply(&rbuf) {
            sec_net::ParsedReply::Complete { reply, consumed } => {
                rbuf.drain(..consumed);
                replies.push(reply);
                continue;
            }
            sec_net::ParsedReply::Incomplete => {}
            sec_net::ParsedReply::Malformed { reason } => panic!("malformed reply: {reason}"),
        }
        let n = stream.read(&mut chunk).expect("read");
        assert!(n > 0, "server closed early");
        rbuf.extend_from_slice(&chunk[..n]);
    }
    assert_eq!(replies[0], Reply::Int(2));
    assert_eq!(
        replies[1],
        Reply::Bulk(b"torn-frame-payload-torn-frame-payload-torn-frame".to_vec())
    );

    server.shutdown().expect("clean shutdown");
}

#[test]
fn a_burst_a_frame_longer_than_the_read_buffer_and_a_half_close_keep_every_reply() {
    let cluster = test_cluster();
    populate(&cluster, 2, 2, 64);
    let server = start_server(&cluster, 1);

    // One write: a burst of small GETs, an APPEND several read chunks long
    // (the server reads at least 64 KiB at a time), a GET of what it stored,
    // and another burst — then the client closes its sending half at once.
    let big = payload(7, 3, 5 * 64 * 1024 + 123);
    let burst = 48usize;
    let get = |i: usize| Command::Get {
        object: ObjectId((i % 2) as u64),
        version: i % 2 + 1,
    };
    let mut frames = Vec::new();
    (0..burst).for_each(|i| proto::encode_command(&get(i), &mut frames));
    let append = Command::Append {
        object: ObjectId(7),
        payload: &big,
    };
    proto::encode_command(&append, &mut frames);
    let read_back = Command::Get {
        object: ObjectId(7),
        version: 1,
    };
    proto::encode_command(&read_back, &mut frames);
    (burst..2 * burst).for_each(|i| proto::encode_command(&get(i), &mut frames));

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(&frames).expect("write");
    stream.shutdown(std::net::Shutdown::Write).expect("half-close");

    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).expect("read to EOF");
    let mut replies = Vec::new();
    while !buf.is_empty() {
        match proto::parse_reply(&buf) {
            sec_net::ParsedReply::Complete { reply, consumed } => {
                buf.drain(..consumed);
                replies.push(reply);
            }
            sec_net::ParsedReply::Incomplete => panic!("truncated reply after {}", replies.len()),
            sec_net::ParsedReply::Malformed { reason } => panic!("malformed reply: {reason}"),
        }
    }
    let small = |i: usize| Reply::Bulk(payload((i % 2) as u64, i % 2 + 1, 64));
    let mut want: Vec<Reply> = (0..burst).map(small).collect();
    want.push(Reply::Int(1));
    want.push(Reply::Bulk(big.clone()));
    want.extend((burst..2 * burst).map(small));
    assert_eq!(replies.len(), want.len(), "a reply went missing");
    assert!(replies == want, "replies out of order or altered");

    server.shutdown().expect("clean shutdown");
}

#[test]
fn malformed_frame_gets_an_error_then_the_connection_closes() {
    let cluster = test_cluster();
    populate(&cluster, 1, 1, 32);
    let server = start_server(&cluster, 1);

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(b"APPEND obj -5\r\n").expect("write");

    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).expect("read to EOF");
    let text = String::from_utf8_lossy(&buf);
    assert!(text.starts_with("-ERR"), "got: {text:?}");

    server.shutdown().expect("clean shutdown");
}

#[test]
fn shutdown_drains_pipelined_requests_already_received() {
    let cluster = test_cluster();
    populate(&cluster, 2, 2, 64);
    let server = start_server(&cluster, 2);
    let addr = server.local_addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut frames = Vec::new();
    let count = 64usize;
    for i in 0..count {
        proto::encode_command(
            &Command::Get {
                object: ObjectId((i % 2) as u64),
                version: i % 2 + 1,
            },
            &mut frames,
        );
    }
    stream.write_all(&frames).expect("write");
    // Give the worker a moment to read the burst, then shut down.
    std::thread::sleep(Duration::from_millis(100));
    server.shutdown().expect("clean shutdown");

    // Every request the server had read must have been answered before the
    // socket closed — and the replies are well-formed and byte-exact.
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).expect("drain to EOF");
    let mut replies = 0usize;
    while !buf.is_empty() {
        match proto::parse_reply(&buf) {
            sec_net::ParsedReply::Complete { reply, consumed } => {
                let want = payload((replies % 2) as u64, replies % 2 + 1, 64);
                assert_eq!(reply, Reply::Bulk(want), "reply {replies}");
                buf.drain(..consumed);
                replies += 1;
            }
            sec_net::ParsedReply::Incomplete => panic!("truncated reply after {replies}"),
            sec_net::ParsedReply::Malformed { reason } => panic!("malformed: {reason}"),
        }
    }
    assert_eq!(replies, count, "drain served a prefix, not the whole burst");
}

#[test]
fn poll_fallback_backend_serves_the_same_protocol() {
    // Force the portable reactor for this server (the env var is read at
    // `Poller::new`, so concurrently running tests merely pick it up too —
    // both backends must serve identically anyway).
    std::env::set_var("SEC_NET_REACTOR", "poll");
    let cluster = test_cluster();
    populate(&cluster, 2, 2, 64);
    let server = start_server(&cluster, 2);
    let result = (|| -> std::io::Result<()> {
        let mut client = NetClient::connect(server.local_addr())?;
        client.ping()?;
        let commands: Vec<Command<'_>> = (0..2u64)
            .flat_map(|id| {
                (1..=2usize).map(move |version| Command::Get {
                    object: ObjectId(id),
                    version,
                })
            })
            .collect();
        let replies = client.pipeline(&commands)?;
        for (reply, command) in replies.iter().zip(&commands) {
            let Command::Get { object, version } = command else {
                unreachable!()
            };
            assert_eq!(*reply, Reply::Bulk(payload(object.0, *version, 64)));
        }
        Ok(())
    })();
    std::env::remove_var("SEC_NET_REACTOR");
    result.expect("poll-backend round trip");
    server.shutdown().expect("clean shutdown");
}

#[test]
fn backpressure_pauses_and_resumes_a_slow_reader() {
    let cluster = test_cluster();
    // Large-ish payloads so a pipelined burst overflows a tiny high-water.
    populate(&cluster, 1, 1, 4096);
    let config = ServerConfig {
        workers: 1,
        high_water: 8 * 1024,
        low_water: 2 * 1024,
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&cluster), "127.0.0.1:0", config).expect("server");

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut frames = Vec::new();
    let count = 256usize;
    for _ in 0..count {
        proto::encode_command(
            &Command::Get {
                object: ObjectId(0),
                version: 1,
            },
            &mut frames,
        );
    }
    stream.write_all(&frames).expect("write");

    // Read slowly in small chunks: the server must pause reading when its
    // write buffer passes high-water and resume as we drain, and every
    // reply must still arrive intact.
    let mut rbuf = Vec::new();
    let mut replies = 0usize;
    let mut chunk = [0u8; 1024];
    let want = payload(0, 1, 4096);
    while replies < count {
        let n = stream.read(&mut chunk).expect("read");
        assert!(n > 0, "server closed after {replies} replies");
        rbuf.extend_from_slice(&chunk[..n]);
        std::thread::sleep(Duration::from_micros(100));
        loop {
            match proto::parse_reply(&rbuf) {
                sec_net::ParsedReply::Complete { reply, consumed } => {
                    assert_eq!(reply, Reply::Bulk(want.clone()), "reply {replies}");
                    rbuf.drain(..consumed);
                    replies += 1;
                }
                sec_net::ParsedReply::Incomplete => break,
                sec_net::ParsedReply::Malformed { reason } => panic!("malformed: {reason}"),
            }
        }
    }

    server.shutdown().expect("clean shutdown");
}

#[test]
fn load_generator_closed_and_open_loop_count_every_reply_once() {
    let cluster = test_cluster();
    // 96 KiB replies: larger than one 64 KiB read, so the generator's read
    // cursor and once-per-wakeup compaction carry partial frames across.
    populate(&cluster, 4, 2, 96 * 1024);
    let server = start_server(&cluster, 2);
    let targets: Vec<(ObjectId, usize)> = (0..4u64)
        .flat_map(|id| (1..=2usize).map(move |v| (ObjectId(id), v)))
        .collect();

    let closed = LoadConfig {
        connections: 64,
        pipeline: 4,
        duration: Duration::from_millis(200),
        ..LoadConfig::default()
    };
    let report = run_get_load(server.local_addr(), &targets, &closed).expect("closed loop");
    assert!(report.requests > 0);
    assert_eq!(report.errors, 0);
    assert!(
        report.p50_us <= report.p99_us && report.p99_us <= report.max_us,
        "{report:?}"
    );

    let rate = 2000.0;
    let open = LoadConfig {
        connections: 8,
        duration: Duration::from_millis(300),
        open_loop_rate: Some(rate),
        ..LoadConfig::default()
    };
    let report = run_get_load(server.local_addr(), &targets, &open).expect("open loop");
    assert_eq!(report.errors, 0);
    assert!(
        report.p50_us <= report.p99_us && report.p99_us <= report.max_us,
        "{report:?}"
    );
    let offered = rate * open.duration.as_secs_f64();
    assert!(
        (offered / 3.0..offered * 3.0).contains(&(report.requests as f64)),
        "open loop at {rate}/s for {:?} answered {} requests",
        open.duration,
        report.requests
    );

    for (targets, connections, pipeline) in [(&[][..], 1, 1), (&targets[..], 0, 1), (&targets[..], 1, 0)]
    {
        let config = LoadConfig {
            connections,
            pipeline,
            ..LoadConfig::default()
        };
        let err = run_get_load(server.local_addr(), targets, &config).expect_err("rejected");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }
    server.shutdown().expect("clean shutdown");
}
