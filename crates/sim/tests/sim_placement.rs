//! Deterministic re-expression of `crates/engine/tests/placement_chaos.rs`:
//! dispersed placement, where every archive entry owns a private set of
//! `n` nodes and failures are scoped to single entries. One shard holds one
//! object, whose node group (group 0) grows by `n` with each stored entry.

use sec_engine::PlacementStrategy;
use sec_sim::harness::{Op, Sim, SimOptions};
use sec_sim::{interleavings, random_walk, walk, SimRng};

const N: usize = 5;
const K: usize = 3;
const OBJECT_LEN: usize = 48;

fn dispersed_options() -> SimOptions {
    SimOptions {
        placement: PlacementStrategy::Dispersed,
        ..SimOptions::strict(N, K, OBJECT_LEN)
    }
}

/// `failing_one_entry_degrades_only_the_versions_that_need_it`,
/// deterministic: killing the *last* delta entry's node group makes only
/// the last version unrecoverable — every earlier version is decoded from
/// entries whose groups are intact. The harness checks both directions
/// (engine errors the oracle does not share are divergence, and vice
/// versa).
#[test]
fn failing_one_entry_degrades_only_the_versions_that_need_it() {
    random_walk("placement-entry-scoped", 10, |seed| {
        let mut rng = SimRng::new(seed);
        let mut sim = Sim::new(dispersed_options(), rng.fork());
        let versions = 4;
        for _ in 0..versions {
            sim.step(&Op::Append {
                object: 0,
                edits: vec![(rng.gen_range(OBJECT_LEN), 0x2B)],
            });
        }
        // Entry indices equal version indices under BasicSec (x1, then a
        // delta per version); kill the last entry's group beyond repair.
        let last_entry = versions - 1;
        for position in 0..=(N - K) {
            sim.step(&Op::Fail {
                group: 0,
                node: last_entry * N + position,
            });
        }
        // Earlier versions read clean; the last is unrecoverable on both
        // the engine and the oracle (the harness asserts the errors match).
        for version in 1..=versions {
            sim.step(&Op::Get { object: 0, version });
        }
        sim.step(&Op::GetPrefix {
            object: 0,
            upto: versions - 1,
        });
        sim.step(&Op::CheckMetrics);
    });
}

/// `concurrent_readers_are_isolated_from_entry_churn_and_growth`,
/// deterministic: reads of settled versions interleave with appends (which
/// grow the node space) and with failure churn on *other* entries' groups;
/// every read must stay bit-exact.
#[test]
fn readers_are_isolated_from_entry_churn_and_growth() {
    random_walk("placement-churn", 15, |seed| {
        let mut rng = SimRng::new(seed);
        let mut sim = Sim::new(dispersed_options(), rng.fork());
        sim.step(&Op::Append {
            object: 0,
            edits: Vec::new(),
        });
        for _ in 0..30 {
            match rng.gen_range(4) {
                0 if sim.version_count(0) < 10 => sim.step(&Op::Append {
                    object: 0,
                    edits: vec![(rng.gen_range(OBJECT_LEN), 0x5D)],
                }),
                1 => {
                    // Churn the newest entry's group; version 1 only needs
                    // entry 0.
                    let entry = sim.version_count(0) - 1;
                    if entry > 0 {
                        let node = entry * N + rng.gen_range(N);
                        sim.step(&Op::Fail { group: 0, node });
                        sim.step(&Op::Revive { group: 0, node });
                    }
                }
                2 => {
                    let node = rng.gen_range(sim.node_count(0));
                    sim.step(&Op::Repair {
                        group: 0,
                        node,
                        window: Vec::new(),
                    });
                }
                _ => sim.step(&Op::Get {
                    object: 0,
                    version: 1 + rng.gen_range(sim.version_count(0)),
                }),
            }
        }
        sim.step(&Op::CheckMetrics);
    });
}

/// Full-alphabet walk under dispersed placement (repairs with windows,
/// timed failures, cache resets — everything `random_op` draws).
#[test]
fn dispersed_random_walks_match_the_oracle() {
    random_walk("placement-walk", 20, |seed| {
        walk(dispersed_options(), seed, 60);
    });
}

/// Exhaustive mode: every interleaving of entry-scoped failure churn with
/// appends that grow the placement (C(6,3) = 20 schedules, each checked
/// end to end).
#[test]
fn exhaustive_interleavings_of_growth_and_entry_failures() {
    let churn_track = vec![
        Op::Fail { group: 0, node: 1 },
        Op::Get {
            object: 0,
            version: 1,
        },
        Op::Revive { group: 0, node: 1 },
    ];
    let growth_track = vec![
        Op::Append {
            object: 0,
            edits: vec![(3, 0x61)],
        },
        Op::Append {
            object: 0,
            edits: vec![(9, 0x62)],
        },
        Op::Get {
            object: 0,
            version: 1,
        },
    ];
    let schedules = interleavings(&[churn_track, growth_track]);
    assert_eq!(schedules.len(), 20);
    for schedule in &schedules {
        let mut sim = Sim::new(dispersed_options(), SimRng::new(1));
        sim.step(&Op::Append {
            object: 0,
            edits: Vec::new(),
        });
        sim.run(schedule);
    }
}
