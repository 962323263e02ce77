//! Dispersed-placement chaos: a failed node (or a wholesale-failed entry)
//! must degrade **only the entry it hosts**. Readers of every other version
//! stay bit-exact in data *and* in read cost — even while the doomed entry's
//! nodes are failed and revived under them and an appender grows the slab
//! directory concurrently.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use sec_engine::SecEngine;
use sec_erasure::GeneratorForm;
use sec_sim::SimRng;
use sec_store::{PlacementStrategy, StoreError};
use sec_versioning::{ArchiveConfig, ByteVersionedArchive, EncodingStrategy};

const N: usize = 6;
const K: usize = 3;

fn config(strategy: EncodingStrategy) -> ArchiveConfig {
    ArchiveConfig::new(N, K, GeneratorForm::NonSystematic, strategy).unwrap()
}

/// Six versions of a 60-byte object with single-byte (γ = 1) edits — one
/// edited byte touches exactly one block, and the non-zero mask guarantees
/// each version differs from its parent, so every version still owns one
/// entry. Positions and masks are a pure function of `seed`, so a failure's
/// printed `SEC_SIM_SEED` replays the exact workload.
fn versions(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = SimRng::new(seed);
    let mut versions = vec![(0..60).map(|i| (i * 13 + 7) as u8).collect::<Vec<u8>>()];
    for _ in 1..6 {
        let mut next = versions.last().unwrap().clone();
        next[rng.gen_range(60)] ^= 1 + rng.gen_range(255) as u8;
        versions.push(next);
    }
    versions
}

/// Failing every node of entry `j` must leave every version whose walk does
/// not touch entry `j` byte-identical — at the all-alive reference's exact
/// read cost — and fail exactly the versions that need entry `j`.
#[test]
fn failing_one_entry_degrades_only_the_versions_that_need_it() {
    let seed = sec_sim::seed::resolve("placement-chaos");
    for strategy in [
        EncodingStrategy::BasicSec,
        EncodingStrategy::OptimizedSec,
        EncodingStrategy::ReversedSec,
        EncodingStrategy::NonDifferential,
    ] {
        let vs = versions(seed);
        let mut reference = ByteVersionedArchive::new(config(strategy)).unwrap();
        reference.append_all(&vs).unwrap();
        let engine =
            SecEngine::with_placement(config(strategy), PlacementStrategy::Dispersed, 0).unwrap();
        engine.append_all(&vs).unwrap();
        let entries = reference.layout().len();

        for doomed in 0..entries {
            // Wholesale-fail the doomed entry's private node set.
            for node in doomed * N..(doomed + 1) * N {
                engine.fail_node(node).unwrap();
            }
            for l in 1..=vs.len() {
                // Basic/Optimized SEC walk entries 0..l (anchor + deltas);
                // the baseline stores one full entry per version; Reversed
                // SEC reads the trailing full copy (the last entry, needed
                // by everyone) and walks deltas l-1..latest backwards.
                let latest = entries - 1;
                let touches_doomed = match strategy {
                    EncodingStrategy::NonDifferential => l - 1 == doomed,
                    EncodingStrategy::ReversedSec => {
                        doomed == latest || (doomed >= l - 1 && doomed < latest)
                    }
                    _ => doomed < l,
                };
                if touches_doomed {
                    assert!(
                        matches!(
                            engine.get_version(l),
                            Err(StoreError::Unrecoverable { entry }) if entry == doomed
                        ),
                        "{strategy} v{l} must be lost with entry {doomed} down"
                    );
                } else {
                    let got = engine.get_version(l).unwrap();
                    let want = reference.retrieve_version(l).unwrap();
                    assert_eq!(*got.data, want.data, "{strategy} v{l}, entry {doomed} down");
                    assert_eq!(
                        got.io_reads, want.io_reads,
                        "{strategy} v{l} read cost must not see entry {doomed}'s failures"
                    );
                }
            }
            // Revive for the next round.
            for node in doomed * N..(doomed + 1) * N {
                engine.revive_node(node).unwrap();
            }
        }
    }
}

/// Readers of healthy versions keep exact bytes *and* exact read costs while
/// a chaos thread flips the last entry's nodes and an appender grows the
/// slab directory — dispersed node sets are disjoint, so the churn is
/// invisible to them.
#[test]
fn concurrent_readers_are_isolated_from_entry_churn_and_growth() {
    let vs = versions(sec_sim::seed::resolve("placement-chaos-churn"));
    let mut reference = ByteVersionedArchive::new(config(EncodingStrategy::BasicSec)).unwrap();
    reference.append_all(&vs).unwrap();
    // Per-version expectations from the all-alive single-threaded reference.
    let expected: Vec<(Vec<u8>, usize)> = (1..vs.len()) // versions 1..=5: never touch entry 5
        .map(|l| {
            let r = reference.retrieve_version(l).unwrap();
            (r.data, r.io_reads)
        })
        .collect();

    let engine = Arc::new(
        SecEngine::with_placement(
            config(EncodingStrategy::BasicSec),
            PlacementStrategy::Dispersed,
            0,
        )
        .unwrap(),
    );
    engine.append_all(&vs).unwrap();
    let stop = Arc::new(AtomicBool::new(false));

    // Chaos: wholesale-fail and revive the last entry's slab (nodes 30..36).
    let chaos = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let doomed = 5usize;
            while !stop.load(Ordering::Relaxed) {
                for node in doomed * N..(doomed + 1) * N {
                    engine.fail_node(node).unwrap();
                }
                std::thread::yield_now();
                for node in doomed * N..(doomed + 1) * N {
                    engine.revive_node(node).unwrap();
                }
            }
        })
    };

    // Growth: keep appending γ = 1 versions, each adding a fresh slab.
    let grower = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        let mut object = vs.last().unwrap().clone();
        std::thread::spawn(move || {
            let mut round = 0usize;
            while !stop.load(Ordering::Relaxed) && round < 64 {
                object[(round * 31) % 60] ^= 0x55;
                engine.append_version(&object).unwrap();
                round += 1;
            }
        })
    };

    let readers: Vec<_> = (0..8)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let expected = expected.clone();
            std::thread::spawn(move || {
                for i in 0..200 {
                    let l = (t + i) % expected.len() + 1;
                    let (want, want_reads) = &expected[l - 1];
                    let got = engine.get_version(l).unwrap();
                    assert_eq!(&*got.data, want, "v{l} bytes under churn");
                    assert_eq!(got.io_reads, *want_reads, "v{l} read cost under churn");
                }
            })
        })
        .collect();

    for reader in readers {
        reader.join().expect("reader panicked");
    }
    stop.store(true, Ordering::Relaxed);
    chaos.join().expect("chaos thread panicked");
    grower.join().expect("grower thread panicked");

    // The node space grew behind the readers without disturbing them.
    assert!(engine.node_count() > vs.len() * N);
    assert_eq!(engine.node_count(), engine.metrics_snapshot().nodes);
}
