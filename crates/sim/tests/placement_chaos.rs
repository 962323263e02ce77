//! Dispersed-placement chaos: a failed node (or a wholesale-failed entry)
//! must degrade **only the entry it hosts**. Readers of every other version
//! stay bit-exact in data *and* in read cost — even while the doomed entry's
//! nodes are failed and revived under them and an appender grows the slab
//! directory concurrently. Expected bytes and read counts come from
//! [`sec_sim::reference`]; the single-threaded entry-by-entry degradation
//! is `sim_placement.rs`'s `failing_one_entry_degrades_only_the_versions_that_need_it`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use sec_engine::SecEngine;
use sec_erasure::GeneratorForm;
use sec_sim::{reference, SimRng};
use sec_store::PlacementStrategy;
use sec_versioning::{ArchiveConfig, ByteVersionedArchive, EncodingStrategy};

const N: usize = 6;
const K: usize = 3;

fn config(strategy: EncodingStrategy) -> ArchiveConfig {
    ArchiveConfig::new(N, K, GeneratorForm::NonSystematic, strategy).unwrap()
}

/// The suite's seed, resolved once (so announced once) for all its tests:
/// the label's own, or the `SEC_SIM_SEED` pinned to replay another.
fn suite_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| sec_sim::seed::resolve("placement-chaos"))
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

/// Readers of healthy versions keep exact bytes *and* exact read costs while
/// a chaos thread flips the last entry's nodes and an appender grows the
/// slab directory — dispersed node sets are disjoint, so the churn is
/// invisible to them.
#[test]
fn concurrent_readers_are_isolated_from_entry_churn_and_growth() {
    let vs = versions(suite_seed());
    let mut archive = ByteVersionedArchive::new(config(EncodingStrategy::BasicSec)).unwrap();
    archive.append_all(&vs).unwrap();
    // Per-version expectations from the reference reading every position.
    let expected: Vec<(Vec<u8>, usize)> = (1..vs.len()) // versions 1..=5: never touch entry 5
        .map(|l| {
            let r = reference::read_version(&archive, l, None, |_, _| true).unwrap();
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
