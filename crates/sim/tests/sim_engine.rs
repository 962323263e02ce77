//! Deterministic re-expression of `crates/engine/tests/concurrency.rs`.
//!
//! The thread-raced suite hammers one engine from eight OS threads and
//! hopes the scheduler produces interesting interleavings; these tests
//! produce the interleavings *on purpose*, from a seed, and check every
//! step against the model and the failure-aware oracle. Any failure prints a
//! `SEC_SIM_SEED=0x…` line; export it to replay the schedule exactly.
//!
//! Engine-level scenarios run on a cluster of one shard holding one object
//! (object 0, node group 0).

use sec_engine::PlacementStrategy;
use sec_sim::harness::{next_version, Op, Sim, SimOptions, WindowOp};
use sec_sim::{interleavings, random_walk, walk, SimRng};
use sec_versioning::EncodingStrategy;

const N: usize = 5;
const K: usize = 3;
const OBJECT_LEN: usize = 64;

/// `eight_readers_match_the_archive_reference_bit_for_bit`, deterministic:
/// every `Get` in every schedule is checked against the reference archive's
/// bytes and, read from the model's live blocks, its I/O count.
#[test]
fn seeded_schedules_match_the_reference_bit_for_bit() {
    random_walk("engine-colocated-strict", 30, |seed| {
        walk(SimOptions::strict(N, K, OBJECT_LEN), seed, 60);
    });
}

/// The same exploration under each non-trivial encoding strategy.
#[test]
fn seeded_schedules_hold_under_every_encoding() {
    for encoding in [
        EncodingStrategy::BasicSec,
        EncodingStrategy::OptimizedSec,
        EncodingStrategy::ReversedSec,
        EncodingStrategy::NonDifferential,
    ] {
        random_walk("engine-encodings", 8, |seed| {
            let mut options = SimOptions::strict(N, K, OBJECT_LEN);
            options.encoding = encoding;
            walk(options, seed, 40);
        });
    }
}

/// `eight_readers_under_every_survivable_failure_pattern`, deterministic:
/// for every failure pattern with at most `n − k` dead nodes, reads of
/// every version must keep matching the reference (the harness panics on
/// the first divergence, and on any engine error the fault-free oracle
/// does not share).
#[test]
fn every_survivable_failure_pattern_serves_every_version() {
    random_walk("engine-survivable-patterns", 6, |seed| {
        let mut rng = SimRng::new(seed);
        for pattern in 0u32..1 << N {
            if pattern.count_ones() as usize > N - K {
                continue;
            }
            let mut sim = Sim::new(SimOptions::strict(N, K, OBJECT_LEN), rng.fork());
            for _ in 0..4 {
                sim.step(&Op::Append {
                    object: 0,
                    edits: vec![(rng.gen_range(OBJECT_LEN), 0x11)],
                });
            }
            for node in 0..N {
                if pattern & (1 << node) != 0 {
                    sim.step(&Op::Fail { group: 0, node });
                }
            }
            for version in 1..=sim.version_count(0) {
                sim.step(&Op::Get { object: 0, version });
            }
            sim.step(&Op::GetPrefix {
                object: 0,
                upto: sim.version_count(0),
            });
            sim.step(&Op::CheckMetrics);
        }
    });
}

/// `readers_race_failures_appends_and_repairs_without_corruption`,
/// deterministic: the random walk draws from the full operation alphabet
/// (appends, reads, failures, revivals, repairs with interleaving windows,
/// timed failures) and the cache is exercised too.
#[test]
fn reads_survive_failures_appends_and_repairs_without_corruption() {
    random_walk("engine-churn", 20, |seed| {
        let mut options = SimOptions::strict(N, K, OBJECT_LEN);
        options.cache_capacity = 3;
        walk(options, seed, 80);
    });
}

/// Checkpointed layouts stay *strict*: the reference archive shares the
/// engine's `CheckpointPolicy`, so the layouts (and therefore the I/O
/// accounting) stay bit-identical with caching disabled.
#[test]
fn checkpointed_schedules_keep_strict_io_accounting() {
    random_walk("engine-checkpointed-strict", 15, |seed| {
        let mut options = SimOptions::strict(N, K, OBJECT_LEN);
        options.checkpoint_spacing = 2;
        walk(options, seed, 60);
    });
}

/// Cache, checkpoints and the full churn alphabet together (including the
/// walk's `ResetCache` steps): byte equality against model and oracle
/// under each delta-bearing encoding.
#[test]
fn cached_checkpointed_walks_survive_churn() {
    for encoding in [
        EncodingStrategy::BasicSec,
        EncodingStrategy::OptimizedSec,
        EncodingStrategy::ReversedSec,
    ] {
        random_walk("engine-cache-checkpoints", 8, |seed| {
            let mut options = SimOptions::strict(N, K, OBJECT_LEN);
            options.encoding = encoding;
            options.cache_capacity = 3;
            options.checkpoint_spacing = 2;
            walk(options, seed, 60);
        });
    }
}

/// Pinned cache lifecycle: with more than `n − k` nodes down, an uncached
/// read is unrecoverable, but the append-warmed cache keeps serving the
/// latest version; `ResetCache` drops it and the very same read then fails
/// exactly as the oracle predicts, until a revival restores service.
#[test]
fn cached_reads_survive_dead_nodes_until_reset() {
    let mut options = SimOptions::strict(N, K, OBJECT_LEN);
    options.cache_capacity = 2;
    let mut sim = Sim::new(options, SimRng::new(11));
    sim.step(&Op::Append {
        object: 0,
        edits: Vec::new(),
    });
    sim.step(&Op::Append {
        object: 0,
        edits: vec![(3, 0x21)],
    });
    sim.step(&Op::Append {
        object: 0,
        edits: vec![(9, 0x42)],
    });
    // k = 3 live nodes are required; leave only 2 so node reads die.
    sim.step(&Op::Fail { group: 0, node: 0 });
    sim.step(&Op::Fail { group: 0, node: 1 });
    sim.step(&Op::Fail { group: 0, node: 2 });
    // Appends pre-warmed the cache: version 3 is served from it (the
    // harness's Ok-vs-oracle-Err arm asserts the hit is cached).
    sim.step(&Op::Get {
        object: 0,
        version: 3,
    });
    // Dropping the cache forces node reads; the engine now fails with
    // exactly the oracle's error (the Err/Err arm asserts equality).
    sim.step(&Op::ResetCache { object: 0 });
    sim.step(&Op::Get {
        object: 0,
        version: 3,
    });
    sim.step(&Op::Revive { group: 0, node: 0 });
    sim.step(&Op::Get {
        object: 0,
        version: 3,
    });
    sim.step(&Op::CheckMetrics);
}

/// Exhaustive mode: every order-preserving interleaving of a failure/repair
/// track with an append/read track — all C(4,2) = 6 schedules, not a
/// sample. The harness checks model and oracle agreement in each.
#[test]
fn exhaustive_interleavings_of_repair_and_append() {
    let repair_track = vec![
        Op::Fail { group: 0, node: 1 },
        Op::Repair {
            group: 0,
            node: 1,
            window: Vec::new(),
        },
    ];
    let append_track = vec![
        Op::Append {
            object: 0,
            edits: vec![(5, 0x21)],
        },
        Op::Get {
            object: 0,
            version: 1,
        },
    ];
    let schedules = interleavings(&[repair_track, append_track]);
    assert_eq!(schedules.len(), 6);
    for schedule in &schedules {
        let mut sim = Sim::new(SimOptions::strict(N, K, OBJECT_LEN), SimRng::new(0));
        sim.step(&Op::Append {
            object: 0,
            edits: Vec::new(),
        });
        // `Get { version: 1 }` needs version 1, appended above; the merged
        // tracks then exercise fail/repair against append/read in every
        // relative order.
        sim.run(schedule);
    }
}

/// Pinned-seed regression for the repair-window race: a node that fails
/// *while its repair is rebuilding* must not be revived by that repair's
/// commit. An unconditional revive stomps the new failure and the harness's
/// LOST FAILURE assertion fires; the epoch-checked repair observes the bump
/// and returns `RepairRaced`. Run under both placements: colocated drives
/// `SecCluster::repair_node`'s own epoch check, dispersed drives
/// `SecEngine::repair_node`'s (through `SecCluster::repair_object_node`).
#[test]
fn repair_window_failure_is_never_lost() {
    for placement in [PlacementStrategy::Colocated, PlacementStrategy::Dispersed] {
        // Pinned: this exact schedule is the regression, not a random walk.
        let mut rng = SimRng::new(0x5EC0_0000_0000_0007);
        let options = SimOptions {
            placement,
            ..SimOptions::strict(N, K, OBJECT_LEN)
        };
        let mut sim = Sim::new(options, rng.fork());
        sim.step(&Op::Append {
            object: 0,
            edits: Vec::new(),
        });
        sim.step(&Op::Append {
            object: 0,
            edits: vec![(3, 0x42)],
        });
        sim.step(&Op::Fail { group: 0, node: 2 });
        // The window re-fails node 2 between its rebuild and its commit.
        // The harness asserts the repair reports `RepairRaced` (an `Ok` here
        // is the lost failure).
        sim.step(&Op::Repair {
            group: 0,
            node: 2,
            window: vec![WindowOp::Fail(0, 2)],
        });
        assert!(!sim.model_alive(0, 2), "the mid-repair failure must stick");
        sim.step(&Op::CheckMetrics);
        // The documented recovery: re-run the repair. No window this time,
        // so it commits and the node serves reads again.
        sim.step(&Op::Repair {
            group: 0,
            node: 2,
            window: Vec::new(),
        });
        assert!(sim.model_alive(0, 2));
        for version in 1..=sim.version_count(0) {
            sim.step(&Op::Get { object: 0, version });
        }
        sim.step(&Op::CheckMetrics);
    }
}

/// The repair window under heavier traffic: appends and reads landing in
/// the window are linearized before the repair's commit and must all be
/// visible afterwards.
#[test]
fn repair_windows_linearize_appends_and_reads() {
    random_walk("engine-repair-windows", 20, |seed| {
        let mut rng = SimRng::new(seed);
        let mut sim = Sim::new(SimOptions::strict(N, K, OBJECT_LEN), rng.fork());
        for _ in 0..3 {
            sim.step(&Op::Append {
                object: 0,
                edits: vec![(rng.gen_range(OBJECT_LEN), 0x33)],
            });
        }
        let node = rng.gen_range(N);
        sim.step(&Op::Fail { group: 0, node });
        sim.step(&Op::Repair {
            group: 0,
            node,
            window: vec![
                WindowOp::Append(0, vec![(rng.gen_range(OBJECT_LEN), 0x44)]),
                WindowOp::Get(0, 1),
                WindowOp::Append(0, vec![(rng.gen_range(OBJECT_LEN), 0x55)]),
            ],
        });
        for version in 1..=sim.version_count(0) {
            sim.step(&Op::Get { object: 0, version });
        }
        sim.step(&Op::CheckMetrics);
    });
}

/// Timed failures: a node down for `t` virtual ticks comes back when the
/// clock reaches its revival, and reads in between degrade exactly as the
/// oracle predicts.
#[test]
fn virtual_clock_revivals_restore_service() {
    let mut sim = Sim::new(SimOptions::strict(N, K, OBJECT_LEN), SimRng::new(9));
    sim.step(&Op::Append {
        object: 0,
        edits: Vec::new(),
    });
    sim.step(&Op::FailFor {
        group: 0,
        node: 0,
        ticks: 3,
    });
    sim.step(&Op::FailFor {
        group: 0,
        node: 1,
        ticks: 5,
    });
    assert!(!sim.model_alive(0, 0) && !sim.model_alive(0, 1));
    sim.step(&Op::Get {
        object: 0,
        version: 1,
    });
    sim.step(&Op::AdvanceClock { ticks: 3 });
    assert!(sim.model_alive(0, 0), "node 0's revival was due at tick 3");
    assert!(!sim.model_alive(0, 1), "node 1's revival is due at tick 5");
    sim.step(&Op::AdvanceClock { ticks: 2 });
    assert!(sim.model_alive(0, 1));
    sim.step(&Op::Get {
        object: 0,
        version: 1,
    });
    sim.step(&Op::CheckMetrics);
}

/// The base-object helper is deterministic: the same edits always produce
/// the same version chain (this is what makes window appends replayable).
#[test]
fn version_chains_are_pure_functions_of_their_edits() {
    let v1 = next_version(None, OBJECT_LEN, &[]);
    let v2 = next_version(Some(&v1), OBJECT_LEN, &[(7, 0x10)]);
    assert_eq!(next_version(None, OBJECT_LEN, &[]), v1);
    assert_eq!(next_version(Some(&v1), OBJECT_LEN, &[(7, 0x10)]), v2);
    assert_ne!(v1, v2);
}

/// Dispersed placement joins the same exploration (placement-specific
/// scenarios live in `sim_placement.rs`).
#[test]
fn dispersed_schedules_match_the_reference() {
    random_walk("engine-dispersed", 15, |seed| {
        let mut options = SimOptions::strict(N, K, 48);
        options.placement = PlacementStrategy::Dispersed;
        walk(options, seed, 50);
    });
}
