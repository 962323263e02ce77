//! Pinned-seed regression for the metrics/append lock-order inversion.
//!
//! An earlier metrics path acquired the slab directory (rank 2) before the
//! archive (rank 0) while `append_version` held them in hierarchy order —
//! a real deadlock under thread racing, and invisible until the OS
//! scheduler happened to interleave the two paths. This test reproduces
//! the *shape* of that bug deterministically: the pre-fix acquisition
//! order is modelled with the engine's own rank-checked [`OrderedRwLock`],
//! which turns the would-be deadlock into an immediate "lock-order
//! violation" panic on a pinned seed's schedule; the same schedule against
//! the fixed engine's real `metrics_snapshot` passes and demonstrably
//! exercises the same ranks (checked through the fault-hook lock trace).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use sec_engine::ordered::{LockRank, OrderedRwLock};
use sec_engine::{ObjectId, SecCluster};
use sec_erasure::GeneratorForm;
use sec_sim::harness::{Op, Sim, SimOptions};
use sec_sim::{SimHook, SimRng};
use sec_versioning::object::VersionId;
use sec_versioning::{ArchiveConfig, EncodingStrategy};

/// The schedule is pinned: this regression replays one known-bad
/// interleaving, it does not explore.
const PINNED_SEED: u64 = 0x5E_C006_D00D_BEEF;

/// Steps in the pinned schedule: `true` = metrics snapshot, `false` =
/// append. Derived from the seed so the schedule is a pure function of it.
fn pinned_schedule() -> Vec<bool> {
    let mut rng = SimRng::new(PINNED_SEED);
    // At least one append before the first metrics step, then a seed-drawn
    // mix — the inversion needs both paths present, not a specific mix.
    let mut steps = vec![false];
    for _ in 0..10 {
        steps.push(rng.chance_percent(50));
    }
    steps
}

/// The pre-fix code shape: appends take archive → directory (hierarchy
/// order); the metrics view took directory → archive. Modelled with the
/// engine's own rank-checked locks, the first metrics step of the pinned
/// schedule panics at the acquisition site — in every build of this suite,
/// whose `sim-faults` dependency arms the rank check in release too — the
/// deterministic, attributable form of the deadlock the thread-raced
/// chaos suite could only hit by luck.
#[test]
fn pre_fix_metrics_shape_violates_the_hierarchy_on_the_pinned_schedule() {
    let archive = OrderedRwLock::new(LockRank::Archive, 0u64);
    let directory = OrderedRwLock::new(LockRank::Directory, Vec::<u64>::new());
    let result = catch_unwind(AssertUnwindSafe(|| {
        for metrics_step in pinned_schedule() {
            if metrics_step {
                // Pre-fix metrics order: directory first, then archive.
                let slabs = directory.read();
                let versions = archive.read();
                let _ = (slabs.len(), *versions);
            } else {
                // Append order (correct): archive first, then directory.
                let mut versions = archive.write();
                *versions += 1;
                directory.write().push(*versions);
            }
        }
    }));
    let panic = result.expect_err("the pre-fix acquisition order must trip the rank check");
    let message = panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        message.contains("lock-order violation"),
        "expected the rank check to name the violation, got: {message}"
    );
}

/// The fixed engine runs the *same* pinned schedule — real appends
/// interleaved with real `metrics_snapshot` calls — without tripping the
/// rank check, and the lock trace proves the schedule exercised the same
/// archive and directory ranks the pre-fix shape inverted.
#[test]
fn fixed_engine_survives_the_same_schedule() {
    let mut sim = Sim::new(SimOptions::strict(5, 3, 64), SimRng::new(PINNED_SEED));
    for metrics_step in pinned_schedule() {
        if metrics_step {
            sim.step(&Op::CheckMetrics);
        } else {
            sim.step(&Op::Append {
                object: 0,
                edits: vec![(11, 0x2A)],
            });
        }
    }
    sim.step(&Op::CheckMetrics);
    let archive_acquisitions = sim.hook().visits("engine::lock::archive");
    let directory_acquisitions = sim.hook().visits("engine::lock::directory");
    assert!(
        archive_acquisitions > 0 && directory_acquisitions > 0,
        "the schedule must exercise both ranks the inversion involved \
         (archive: {archive_acquisitions}, directory: {directory_acquisitions})"
    );
}

/// Two first appends of one object race, and the loser finds the winner's
/// engine when it takes the object map to admit its own: the branch that
/// replays the loser's version on the winner. Thread races reach it only by
/// luck, so here the rival append runs as a window action at the loser's
/// object-map write. The rank checks, armed in every `sec-sim` build, then
/// see that path on every run.
#[test]
fn a_first_append_that_loses_the_race_replays_on_the_winner() {
    let config =
        ArchiveConfig::new(5, 3, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec).unwrap();
    let cluster = Rc::new(SecCluster::new(config, 1).unwrap());
    let hook = Rc::new(SimHook::new(SimRng::new(PINNED_SEED)));
    let _installed = hook.install();
    let id = ObjectId(7);
    let (first, second) = (vec![0x11u8; 48], vec![0x22u8; 48]);

    // The loser visits the object-map site twice: its existence check, then
    // the admission write. The rival's whole first append runs at the second.
    hook.arm_window("engine::lock::objects");
    hook.queue_window_action(|| {});
    let rival = Rc::clone(&cluster);
    let rival_version = first.clone();
    hook.queue_window_action(move || {
        assert_eq!(rival.append_version(id, &rival_version).unwrap(), VersionId(1));
    });
    let version = cluster.append_version(id, &second).unwrap();
    assert!(hook.disarm_window().is_empty(), "the rival append never ran");

    assert_eq!(
        version,
        VersionId(2),
        "the loser's version lands after the winner's"
    );
    assert_eq!(cluster.version_count(id), Some(2));
    assert_eq!(*cluster.get_version(id, 1).unwrap().data, first);
    assert_eq!(*cluster.get_version(id, 2).unwrap().data, second);
}
