//! `SecCluster::get_batch` is a plain in-order loop over `get_version`:
//! it must return byte-identical data, the same block-read counts and the
//! same per-request error text as the single-request calls, for every
//! encoding strategy, with and without a delta cache, and under failures.

use std::sync::Arc;

use sec_engine::{ClusterError, ObjectId, SecCluster};
use sec_erasure::GeneratorForm;
use sec_versioning::{ArchiveConfig, EncodingStrategy};

fn payload(id: u64, version: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (id as usize * 7 + version * 31 + i) as u8)
        .collect()
}

fn populated(strategy: EncodingStrategy, cache: usize) -> Arc<SecCluster> {
    let config = ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, strategy).expect("config");
    let cluster = Arc::new(SecCluster::with_cache(config, 4, cache).expect("cluster"));
    for id in 0..6u64 {
        let history: Vec<Vec<u8>> = (1..=5).map(|v| payload(id, v, 96)).collect();
        cluster.append_all(ObjectId(id), &history).expect("populate");
    }
    cluster
}

fn all_strategies() -> [EncodingStrategy; 4] {
    [
        EncodingStrategy::BasicSec,
        EncodingStrategy::OptimizedSec,
        EncodingStrategy::ReversedSec,
        EncodingStrategy::NonDifferential,
    ]
}

/// A request mix with same-object runs, interleavings, repeats, and
/// per-request failures (bad versions, unknown objects).
fn request_mix() -> Vec<(ObjectId, usize)> {
    let mut requests = Vec::new();
    // A long same-object run, including repeats.
    for v in [1usize, 3, 3, 5, 2, 4, 1, 5] {
        requests.push((ObjectId(0), v));
    }
    // Interleaved objects.
    for v in 1..=5usize {
        for id in 1..4u64 {
            requests.push((ObjectId(id), v));
        }
    }
    // Error slots mixed in: invalid version, unknown object.
    requests.push((ObjectId(0), 0));
    requests.push((ObjectId(0), 99));
    requests.push((ObjectId(777), 1));
    // And valid work after the errors.
    requests.push((ObjectId(5), 4));
    requests.push((ObjectId(5), 4));
    requests
}

/// Asserts a batch's slots equal the single calls replayed on `singles` (a
/// twin cluster, so cache state can't leak between the two runs): bytes,
/// version, block reads and cache flag on success, error text on failure.
fn assert_matches_singles(
    batched: &SecCluster,
    singles: &SecCluster,
    requests: &[(ObjectId, usize)],
    ctx: &str,
) {
    let results = batched.get_batch(requests);
    assert_eq!(results.len(), requests.len(), "{ctx}");
    for (&(id, version), result) in requests.iter().zip(&results) {
        let ctx = format!("{ctx} object {} version {version}", id.0);
        match (result, singles.get_version(id, version)) {
            (Ok(b), Ok(s)) => {
                assert_eq!(*b.data, *s.data, "{ctx}");
                assert_eq!(
                    (b.version, b.io_reads, b.cached),
                    (s.version, s.io_reads, s.cached),
                    "{ctx}"
                );
            }
            (Err(b), Err(s)) => {
                assert_eq!(b, &s, "{ctx}");
                assert_eq!(b.to_string(), s.to_string(), "{ctx}");
            }
            (b, s) => panic!("{ctx}: batch {b:?} vs single {s:?}"),
        }
    }
}

#[test]
fn get_batch_matches_single_calls_for_every_strategy() {
    for strategy in all_strategies() {
        for cache in [0usize, 4] {
            let batched = populated(strategy, cache);
            let singles = populated(strategy, cache);
            let ctx = format!("{strategy:?} cache={cache}");
            assert_matches_singles(&batched, &singles, &request_mix(), &ctx);
        }
    }
}

#[test]
fn batched_repeats_prime_the_cache_within_one_call() {
    // With a cache, a batch of identical requests decodes once: the first
    // slot pays reads, every later slot is an exact hit with zero reads.
    let cluster = populated(EncodingStrategy::BasicSec, 4);
    // Appends may have primed the cache; start the batch cold.
    cluster.clear_cache(ObjectId(2)).expect("clear cache");
    let requests = vec![(ObjectId(2), 3); 6];
    let results = cluster.get_batch(&requests);
    let first = results.first().and_then(|r| r.as_ref().ok()).expect("first ok");
    assert!(first.io_reads > 0, "first request must hit the nodes");
    for (i, result) in results.iter().enumerate().skip(1) {
        let retrieval = result.as_ref().expect("later ok");
        assert_eq!(retrieval.io_reads, 0, "request {i} should be a cache hit");
        assert!(retrieval.cached, "request {i} should report cached");
        assert_eq!(*retrieval.data, payload(2, 3, 96));
    }
}

#[test]
fn get_batch_under_node_failures_matches_single_calls() {
    for strategy in all_strategies() {
        let batched = populated(strategy, 0);
        let singles = populated(strategy, 0);
        // n − k = 3 failures per shard: every read re-plans around the dead
        // nodes and still succeeds; a fourth makes every read fail. Both
        // must come out identically.
        for (dead, readable) in [(0..3usize, true), (3..4, false)] {
            for shard in 0..4usize {
                for node in dead.clone() {
                    batched.fail_node(shard, node).expect("fail");
                    singles.fail_node(shard, node).expect("fail");
                }
            }
            let requests = request_mix();
            assert_eq!(
                batched.get_batch(&requests[..1])[0].is_ok(),
                readable,
                "{strategy:?}"
            );
            assert_matches_singles(
                &batched,
                &singles,
                &requests,
                &format!("{strategy:?} dead={dead:?}"),
            );
        }
    }
}

#[test]
fn empty_and_unknown_batches_are_well_behaved() {
    let cluster = populated(EncodingStrategy::BasicSec, 4);
    assert!(cluster.get_batch(&[]).is_empty());
    let unknown = cluster.get_batch(&[(ObjectId(999), 1), (ObjectId(999), 2)]);
    assert_eq!(unknown.len(), 2);
    for result in &unknown {
        assert!(matches!(
            result,
            Err(ClusterError::UnknownObject { object }) if *object == ObjectId(999)
        ));
    }
}
