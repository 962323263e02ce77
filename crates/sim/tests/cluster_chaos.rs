//! Cross-shard chaos: shards are independent failure and concurrency
//! domains, so readers of objects on healthy shards must keep serving
//! *bit-exact* data with *bit-exact* read accounting while other shards are
//! concurrently failed, appended to, revived and repaired — even while an
//! entire other shard is down.
//!
//! This is the threaded counterpart of the cluster simulations
//! (`sim_cluster.rs`): those show sharding is unobservable per object,
//! checked step by step against the walk-free reference; this suite shows
//! the *isolation* claim holds under concurrency (readers and chaos touch
//! distinct shards and never block or corrupt each other). Expected bytes
//! and read counts come from [`sec_sim::reference`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;

use sec_engine::{ClusterError, ObjectId, SecCluster};
use sec_erasure::GeneratorForm;
use sec_sim::{reference, SimRng};
use sec_store::StoreError;
use sec_versioning::{ArchiveConfig, ByteVersionedArchive, EncodingStrategy};

const N: usize = 6;
const K: usize = 3;
const SHARDS: usize = 4;
const READERS: usize = 6;

fn config() -> ArchiveConfig {
    ArchiveConfig::new(N, K, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec).unwrap()
}

/// The suite's seed, resolved once (so announced once) for all its tests:
/// the label's own, or the `SEC_SIM_SEED` pinned to replay another.
fn suite_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| sec_sim::seed::resolve("cluster-chaos"))
}

/// Eight versions of a 90-byte object with a mixed sparsity profile (two
/// sparse edits, an identical version, a two-block edit, a dense rewrite,
/// another sparse edit, two blocks). A pure function of the suite `seed`
/// and a per-object `salt`, so a failure's printed `SEC_SIM_SEED` replays
/// every object's exact byte history.
fn versions(seed: u64, salt: u8) -> Vec<Vec<u8>> {
    let mut rng = SimRng::new(seed ^ u64::from(salt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let v1: Vec<u8> = (0..90).map(|i| (i * 31 + 7) as u8 ^ salt).collect();
    let mut out = vec![v1];
    for gamma in [1usize, 1, 0, 2, 3, 1, 2] {
        let mut next = out.last().unwrap().clone();
        let mut blocks = [0usize, 1, 2];
        rng.shuffle(&mut blocks);
        for &block in &blocks[..gamma] {
            let position = block * 30 + rng.gen_range(30);
            next[position] ^= 1 + rng.gen_range(255) as u8;
        }
        out.push(next);
    }
    out
}

/// An archive holding `versions`, the reference's block store.
fn archive(versions: &[Vec<u8>]) -> ByteVersionedArchive {
    let mut archive = ByteVersionedArchive::new(config()).unwrap();
    archive.append_all(versions).unwrap();
    archive
}

/// Finds an id (probing a salt) that routes to `shard`.
fn id_on_shard(cluster: &SecCluster, shard: usize, mut salt: u64) -> ObjectId {
    loop {
        let id = ObjectId(salt);
        if cluster.shard_of(id) == shard {
            return id;
        }
        salt = salt.wrapping_add(0x1000_0000_0100_0001);
    }
}

#[test]
fn readers_on_quiet_shards_stay_exact_while_other_shards_burn() {
    let seed = suite_seed();
    let cluster = Arc::new(SecCluster::new(config(), SHARDS).unwrap());

    // Two reader objects on shards 0 and 1, two chaos objects on shards 2
    // and 3 — the routing is hash-driven, so probe for ids.
    let quiet: Vec<ObjectId> = (0..2).map(|s| id_on_shard(&cluster, s, s as u64)).collect();
    let burning: Vec<ObjectId> = (2..4).map(|s| id_on_shard(&cluster, s, s as u64)).collect();

    for (i, &id) in quiet.iter().enumerate() {
        cluster.append_all(id, &versions(seed, i as u8)).unwrap();
    }
    for (i, &id) in burning.iter().enumerate() {
        cluster.append_all(id, &versions(seed, 0x80 + i as u8)).unwrap();
    }

    // The reference's reads of the quiet objects: bytes AND exact block-read
    // counts must hold throughout the chaos.
    type VersionExpectations = Vec<(Vec<u8>, usize)>;
    let expected: Vec<(ObjectId, VersionExpectations)> = quiet
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            let archive = archive(&versions(seed, i as u8));
            let per_version = (1..=archive.len())
                .map(|l| {
                    let r = reference::read_version(&archive, l, None, |_, _| true).unwrap();
                    (r.data, r.io_reads)
                })
                .collect();
            (id, per_version)
        })
        .collect();
    let expected = Arc::new(expected);

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|t| {
            let cluster = Arc::clone(&cluster);
            let expected = Arc::clone(&expected);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut served = 0usize;
                let mut round = 0usize;
                while !stop.load(Ordering::Relaxed) || round < 8 {
                    let (id, per_version) = &expected[(t + round) % expected.len()];
                    let l = (t + round) % per_version.len() + 1;
                    let (want, want_reads) = &per_version[l - 1];
                    let got = cluster
                        .get_version(*id, l)
                        .unwrap_or_else(|e| panic!("reader {t}: quiet-shard read of v{l} failed: {e}"));
                    assert_eq!(*got.data, *want, "reader {t}: torn read of v{l}");
                    assert_eq!(
                        got.io_reads, *want_reads,
                        "reader {t}: chaos on other shards changed v{l}'s read cost"
                    );
                    served += 1;
                    round += 1;
                }
                served
            })
        })
        .collect();

    // Chaos confined to shards 2 and 3: failure bursts past n − k (the whole
    // shard at once), interleaved appends, revives and repairs.
    let chaos = {
        let cluster = Arc::clone(&cluster);
        let burning = burning.clone();
        thread::spawn(move || {
            for round in 0..12 {
                for (i, &id) in burning.iter().enumerate() {
                    let shard = 2 + i;
                    // Take the whole shard down — n failures, far beyond n−k.
                    for node in 0..N {
                        cluster.fail_node(shard, node).unwrap();
                    }
                    assert!(matches!(
                        cluster.get_version(id, 1),
                        Err(ClusterError::Engine(StoreError::Unrecoverable { .. }))
                    ));
                    for node in 0..N {
                        cluster.revive_node(shard, node).unwrap();
                    }
                    // Append under a single failure, then repair it.
                    let node = round % N;
                    cluster.fail_node(shard, node).unwrap();
                    let latest = cluster.version_count(id).unwrap();
                    let mut next = (*cluster.get_version(id, latest).unwrap().data).clone();
                    let edit = (round * 13) % next.len();
                    next[edit] ^= 0xC3;
                    cluster.append_version(id, &next).unwrap();
                    cluster.repair_node(shard, node).unwrap();
                }
            }
        })
    };

    chaos.join().expect("chaos thread panicked");
    stop.store(true, Ordering::Relaxed);
    let total_served: usize = readers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total_served >= READERS * 8, "readers must have made progress");

    // Quiesced: every shard healthy, every object serves every version.
    let m = cluster.metrics_snapshot();
    assert_eq!(m.objects, 4);
    for shard in &m.shards {
        assert_eq!(shard.live_nodes, N, "chaos must leave every node repaired");
    }
    for (i, &id) in quiet.iter().enumerate() {
        for (l, want) in versions(seed, i as u8).iter().enumerate() {
            assert_eq!(*cluster.get_version(id, l + 1).unwrap().data, *want);
        }
    }
    for &id in &burning {
        let len = cluster.version_count(id).unwrap();
        assert_eq!(len, 8 + 12, "12 chaos rounds appended one version each");
        assert!(cluster.get_prefix(id, len).is_ok());
    }
    // The quiet shards never recorded a failed read.
    assert_eq!(m.shards[0].io.failed_reads, 0);
    assert_eq!(m.shards[1].io.failed_reads, 0);
}

#[test]
fn concurrent_appenders_on_distinct_objects_do_not_interleave_sequences() {
    // Many threads append to their own objects through the shared router;
    // per-object sequences must come out exactly as if appended alone.
    let seed = suite_seed();
    let cluster = Arc::new(SecCluster::new(config(), SHARDS).unwrap());
    let writers: Vec<_> = (0..8u64)
        .map(|t| {
            let cluster = Arc::clone(&cluster);
            thread::spawn(move || {
                let id = ObjectId(t);
                let vs = versions(seed, t as u8);
                for v in &vs {
                    cluster.append_version(id, v).unwrap();
                }
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer thread panicked");
    }
    assert_eq!(cluster.object_count(), 8);
    for t in 0..8u64 {
        let id = ObjectId(t);
        let vs = versions(seed, t as u8);
        let got = cluster.get_prefix(id, vs.len()).unwrap();
        assert_eq!(
            got.versions, vs,
            "object {t}: sequence corrupted by concurrent appends"
        );
        // And the read accounting matches the reference's.
        let want = reference::read_prefix(&archive(&vs), vs.len(), None, |_, _| true).unwrap();
        assert_eq!(got.io_reads, want.io_reads);
    }
}
