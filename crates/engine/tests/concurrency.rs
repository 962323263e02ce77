//! The threaded stress suite: a [`SecEngine`] must serve many concurrent
//! readers with results and symbol-read counts *identical* to the
//! single-threaded references, across every survivable failure pattern.
//!
//! The reference is [`ByteVersionedArchive`]: its all-nodes-alive read
//! counts are eqs. 3–4 of the paper lifted to blocks, and read from the live
//! positions of a failure pattern (colocated: position `i` is node `i`) it
//! gives the failure-aware counts.
//!
//! Reads are deterministic given the live set, so even the aggregate
//! counters must come out exact: N threads each replaying the reference
//! workload must account exactly N × the reference's block reads.
//!
//! The byte workload is drawn from a suite seed (`sec_sim::seed::resolve`),
//! so every run prints a `SEC_SIM_SEED=…` line — captured by cargo and shown
//! only on failure — that replays the exact version profile bit-identically.

use std::sync::Arc;
use std::thread;

use sec_engine::SecEngine;
use sec_erasure::GeneratorForm;
use sec_sim::SimRng;
use sec_store::failure::enumerate_patterns;
use sec_versioning::{ArchiveConfig, ByteVersionedArchive, EncodingStrategy};

const N: usize = 6;
const K: usize = 3;
const READERS: usize = 8;

fn config(strategy: EncodingStrategy) -> ArchiveConfig {
    ArchiveConfig::new(N, K, GeneratorForm::NonSystematic, strategy).unwrap()
}

/// Eight versions of a 90-byte object (30-byte blocks) with a mixed
/// sparsity profile: the γ sequence is fixed — sparse single-block edits, a
/// two-block edit, an identical version (γ = 0) and a dense rewrite — while
/// the edited positions and masks are a pure function of `seed`, so the
/// printed `SEC_SIM_SEED` replays the exact bytes of a failing run.
fn versions(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = SimRng::new(seed);
    let v1: Vec<u8> = (0..90).map(|i| (i * 31 + 7) as u8).collect();
    let mut out = vec![v1];
    // γ = distinct 30-byte blocks touched per update.
    for gamma in [1usize, 1, 0, 2, 3, 1, 2] {
        let mut next = out.last().unwrap().clone();
        let mut blocks = [0usize, 1, 2];
        rng.shuffle(&mut blocks);
        for &block in &blocks[..gamma] {
            let position = block * 30 + rng.gen_range(30);
            // A non-zero mask, so the block genuinely changes and γ holds.
            next[position] ^= 1 + rng.gen_range(255) as u8;
        }
        out.push(next);
    }
    out
}

/// One reference retrieval outcome: the bytes and the exact block reads.
struct Expected {
    data: Vec<u8>,
    io_reads: usize,
}

/// Spawns `READERS` threads, each retrieving every version `rounds` times,
/// asserting bit-identical data and read counts against `expected`.
fn hammer(engine: &Arc<SecEngine>, expected: &Arc<Vec<Expected>>, rounds: usize) {
    let handles: Vec<_> = (0..READERS)
        .map(|t| {
            let engine = Arc::clone(engine);
            let expected = Arc::clone(expected);
            thread::spawn(move || {
                for round in 0..rounds {
                    // Stagger the per-thread version order so different
                    // readers hold different node-lock subsets at once.
                    for i in 0..expected.len() {
                        let l = (t + round + i) % expected.len() + 1;
                        let want = &expected[l - 1];
                        let got = engine.get_version(l).unwrap_or_else(|e| {
                            panic!("reader {t} round {round}: version {l} failed: {e}")
                        });
                        assert_eq!(*got.data, want.data, "reader {t} version {l}: wrong bytes");
                        assert_eq!(
                            got.io_reads, want.io_reads,
                            "reader {t} version {l}: wrong read count"
                        );
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("reader thread panicked");
    }
}

#[test]
fn eight_readers_match_the_archive_reference_bit_for_bit() {
    let seed = sec_sim::seed::resolve("engine-concurrency");
    for strategy in [
        EncodingStrategy::BasicSec,
        EncodingStrategy::OptimizedSec,
        EncodingStrategy::ReversedSec,
        EncodingStrategy::NonDifferential,
    ] {
        let vs = versions(seed);
        let mut reference = ByteVersionedArchive::new(config(strategy)).unwrap();
        reference.append_all(&vs).unwrap();
        let expected: Arc<Vec<Expected>> = Arc::new(
            (1..=vs.len())
                .map(|l| {
                    let r = reference.retrieve_version(l).unwrap();
                    Expected {
                        data: r.data,
                        io_reads: r.io_reads,
                    }
                })
                .collect(),
        );

        let engine = SecEngine::new(config(strategy)).unwrap();
        engine.append_all(&vs).unwrap();
        engine.reset_metrics();
        let engine = Arc::new(engine);
        const ROUNDS: usize = 3;
        hammer(&engine, &expected, ROUNDS);

        // Aggregate accounting must be exact: every reader replayed the
        // reference workload, so total block reads are READERS × ROUNDS ×
        // the reference total.
        let reference_total: usize = expected.iter().map(|e| e.io_reads).sum();
        let m = engine.metrics_snapshot();
        assert_eq!(
            m.io.symbol_reads as usize,
            READERS * ROUNDS * reference_total,
            "{strategy}: aggregate reads must be exactly N threads × reference"
        );
        assert_eq!(
            m.io.retrievals as usize,
            READERS * ROUNDS * vs.len(),
            "{strategy}"
        );
        assert_eq!(m.io.failed_reads, 0, "{strategy}");
        assert_eq!(
            m.node_reads.iter().sum::<u64>(),
            m.io.symbol_reads,
            "{strategy}: per-node counters must sum to the aggregate"
        );
    }
}

#[test]
fn eight_readers_under_every_survivable_failure_pattern() {
    let vs = versions(sec_sim::seed::resolve("engine-concurrency-patterns"));
    // The systematic form makes the live set observable: failures cost its
    // sparse deltas their qualifying rows, and the reads rise to k.
    for form in [GeneratorForm::NonSystematic, GeneratorForm::Systematic] {
        let config = ArchiveConfig::new(N, K, form, EncodingStrategy::BasicSec).unwrap();
        // Failure-aware single-threaded reference: the archive read from
        // each pattern's live positions.
        let mut reference = ByteVersionedArchive::new(config).unwrap();
        reference.append_all(&vs).unwrap();

        let engine = SecEngine::new(config).unwrap();
        engine.append_all(&vs).unwrap();
        let engine = Arc::new(engine);

        let mut checked = 0usize;
        for pattern in enumerate_patterns(N) {
            if pattern.failed_count() > N - K {
                continue;
            }
            checked += 1;

            let expected: Arc<Vec<Expected>> = Arc::new(
                (1..=vs.len())
                    .map(|l| {
                        let r = reference
                            .retrieve_version_from(l, |_, position| !pattern.is_failed(position))
                            .unwrap();
                        Expected {
                            data: r.data,
                            io_reads: r.io_reads,
                        }
                    })
                    .collect(),
            );

            engine.apply_pattern(&pattern);
            engine.reset_metrics();
            hammer(&engine, &expected, 1);

            let reference_total: usize = expected.iter().map(|e| e.io_reads).sum();
            let m = engine.metrics_snapshot();
            assert_eq!(
                m.io.symbol_reads as usize,
                READERS * reference_total,
                "{form} pattern {:?}: aggregate reads must be exactly N threads × reference",
                pattern.failed_nodes()
            );
            assert_eq!(m.live_nodes, N - pattern.failed_count());
        }
        // 1 + 6 + 15 + 20 patterns of weight ≤ 3 over 6 nodes.
        assert_eq!(checked, 42, "{form}");
    }
}

#[test]
fn readers_race_failures_appends_and_repairs_without_corruption() {
    // A liveness/consistency smoke: readers hammer the engine while another
    // thread fails, revives and repairs nodes and appends new versions.
    // Results must always be *some* complete version image — never a torn
    // read — and every successful retrieval of version l must equal the
    // reference bytes for l.
    let vs = versions(sec_sim::seed::resolve("engine-concurrency-races"));
    let strategy = EncodingStrategy::BasicSec;
    let engine = SecEngine::new(config(strategy)).unwrap();
    engine.append_all(&vs[..4]).unwrap();
    let engine = Arc::new(engine);

    let expected: Arc<Vec<Vec<u8>>> = Arc::new(vs.clone());

    let readers: Vec<_> = (0..READERS)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let expected = Arc::clone(&expected);
            thread::spawn(move || {
                let mut served = 0usize;
                for round in 0..60 {
                    let available = engine.len();
                    let l = (t + round) % available + 1;
                    match engine.get_version(l) {
                        Ok(r) => {
                            assert_eq!(*r.data, expected[l - 1], "reader {t}: torn read of v{l}");
                            served += 1;
                        }
                        // Unrecoverable is legitimate while the chaos thread
                        // holds ≥ n−k nodes down.
                        Err(e) => assert!(
                            matches!(e, sec_store::StoreError::Unrecoverable { .. }),
                            "reader {t}: unexpected error {e}"
                        ),
                    }
                }
                served
            })
        })
        .collect();

    let chaos = {
        let engine = Arc::clone(&engine);
        let vs = vs.clone();
        thread::spawn(move || {
            for (i, v) in vs[4..].iter().enumerate() {
                let node = i % N;
                engine.fail_node(node).expect("in-range node");
                engine.append_version(v).expect("append during failures");
                engine.revive_node(node).expect("in-range node");
                engine.repair_node(node).expect("repair with one failure");
            }
        })
    };

    chaos.join().expect("chaos thread panicked");
    let total_served: usize = readers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total_served > 0, "readers must have made progress");

    // Quiesced: everything is repaired, so every version reads exactly.
    for (l, expect) in vs.iter().enumerate() {
        assert_eq!(*engine.get_version(l + 1).unwrap().data, *expect);
    }
}
