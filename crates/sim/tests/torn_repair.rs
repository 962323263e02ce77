//! Torn repairs never destroy recoverable data.
//!
//! A repair that dies between staging and commit (`engine::rebuild::abort`)
//! must leave every version that was recoverable before the repair still
//! recoverable after it — and a retry must finish the job. The abort point
//! is a buggify site, fired deterministically through the installed
//! [`SimHook`].

use std::rc::Rc;

use sec_engine::{PlacementStrategy, SecEngine};
use sec_erasure::GeneratorForm;
use sec_sim::harness::{next_version, SimOptions};
use sec_sim::{random_walk, walk, SimHook, SimRng};
use sec_store::StoreError;
use sec_versioning::{ArchiveConfig, EncodingStrategy};

const N: usize = 5;
const K: usize = 3;
const OBJECT_LEN: usize = 64;

fn config() -> ArchiveConfig {
    ArchiveConfig::new(N, K, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec)
        .expect("valid config")
}

fn version_chain(count: usize) -> Vec<Vec<u8>> {
    let mut versions = Vec::new();
    for i in 0..count {
        let parent = versions.last().map(Vec::as_slice);
        versions.push(next_version(parent, OBJECT_LEN, &[(i * 7 + 1, 0x3C + i as u8)]));
    }
    versions
}

/// Engine-level torn repair: the abort fires between the rebuild's staging
/// and its commit, the repair errors, the node stays failed — and every
/// version readable before is readable after, byte-identical. The retry
/// completes, and the rebuilt blocks are *proven* good by failing enough
/// other nodes that decoding must use them.
#[test]
fn aborted_engine_rebuild_destroys_nothing_and_retry_completes() {
    let engine = SecEngine::with_placement(config(), PlacementStrategy::Colocated, 0)
        .expect("engine construction");
    let versions = version_chain(4);
    for bytes in &versions {
        engine.append_version(bytes).expect("append");
    }
    engine.fail_node(0).expect("fail");

    let hook = Rc::new(SimHook::new(SimRng::new(0x70A2)));
    let _guard = hook.install();
    hook.set_probability("engine::rebuild::abort", 100);
    let err = engine
        .repair_node(0)
        .expect_err("the armed abort must tear the repair");
    assert!(
        matches!(err, StoreError::Unrecoverable { .. }),
        "a torn rebuild surfaces as Unrecoverable, got {err}"
    );
    assert!(hook.faults_fired() > 0, "the abort site must actually have fired");
    assert_eq!(
        engine.is_node_alive(0),
        Ok(false),
        "a torn repair must not revive the node"
    );
    // Nothing was destroyed: every version still reads exactly.
    for (idx, bytes) in versions.iter().enumerate() {
        let got = engine
            .get_version(idx + 1)
            .expect("recoverable with one node down");
        assert_eq!(
            *got.data,
            *bytes,
            "version {} diverged after the torn repair",
            idx + 1
        );
    }

    // Retry with the fault disarmed: the repair completes.
    hook.set_probability("engine::rebuild::abort", 0);
    engine.repair_node(0).expect("retry must complete");
    assert_eq!(engine.is_node_alive(0), Ok(true));
    // Force decoding to depend on node 0's rebuilt blocks: with n−k other
    // nodes down, every read needs node 0.
    for node in K..N {
        engine.fail_node(node).expect("fail");
    }
    for (idx, bytes) in versions.iter().enumerate() {
        let got = engine
            .get_version(idx + 1)
            .expect("k live nodes incl. the repaired one");
        assert_eq!(
            *got.data,
            *bytes,
            "rebuilt blocks of version {} are wrong",
            idx + 1
        );
    }
}

/// The same property explored on a one-object cluster: walks whose repairs
/// abort with 30% probability must never diverge from the model — reads
/// after any number of torn repairs stay byte-exact (the harness checks
/// every `Get`).
#[test]
fn walks_with_flaky_repairs_never_lose_data() {
    random_walk("torn-repair-walk", 20, |seed| {
        let options = SimOptions {
            rebuild_abort_percent: 30,
            ..SimOptions::strict(N, K, OBJECT_LEN)
        };
        walk(options, seed, 60);
    });
}

/// Spurious read faults (`store::node::read`) compose with torn repairs:
/// the cluster may fail reads the fault-free oracle serves (only as
/// `Unrecoverable`), but whenever it *does* serve bytes they are the model's
/// bytes.
#[test]
fn walks_with_read_faults_serve_only_correct_bytes() {
    random_walk("read-fault-walk", 20, |seed| {
        let options = SimOptions {
            read_fault_percent: 15,
            rebuild_abort_percent: 15,
            ..SimOptions::strict(N, K, OBJECT_LEN)
        };
        walk(options, seed, 60);
    });
}
