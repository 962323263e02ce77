//! Deterministic re-expression of `crates/engine/tests/cluster_chaos.rs`,
//! plus the pinned-seed regression for the `SecCluster::repair_node`
//! window race. Nodes are addressed as `(shard, node)` under colocated
//! placement and `(object, node)` under dispersed.

use sec_engine::PlacementStrategy;
use sec_sim::harness::{Op, Sim, SimOptions, WindowOp};
use sec_sim::{random_walk, walk, SimRng};

const N: usize = 5;
const K: usize = 3;
const SHARDS: usize = 2;
const OBJECTS: usize = 4;
const OBJECT_LEN: usize = 48;

fn options() -> SimOptions {
    SimOptions {
        shards: SHARDS,
        objects: OBJECTS,
        ..SimOptions::strict(N, K, OBJECT_LEN)
    }
}

/// Seeded exploration over the full cluster alphabet: appends and reads on
/// several objects across shards, node failures, revivals and repairs with
/// interleaving windows — every read checked against the per-object model
/// and the failure-aware oracle.
#[test]
fn seeded_cluster_schedules_match_their_models() {
    random_walk("cluster-walk", 25, |seed| walk(options(), seed, 70));
}

/// `readers_on_quiet_shards_stay_exact_while_other_shards_burn`,
/// deterministic: one object's shard stays untouched while every node of
/// the *other* shard is churned through fail/revive/repair; reads of the
/// quiet object must stay bit-exact throughout (the harness asserts so on
/// every `Get`).
#[test]
fn quiet_shards_stay_exact_while_other_shards_burn() {
    random_walk("cluster-quiet-shard", 15, |seed| {
        let mut rng = SimRng::new(seed);
        let mut sim = Sim::new(options(), rng.fork());
        // Give every object a version so each shard holds data, then find
        // two objects on different shards.
        for object in 0..OBJECTS {
            sim.step(&Op::Append {
                object,
                edits: vec![(rng.gen_range(OBJECT_LEN), 0x17)],
            });
        }
        let quiet = 0;
        let quiet_shard = sim.group_of(quiet);
        let burn_shard = (quiet_shard + 1) % SHARDS;
        for round in 0..12 {
            let node = rng.gen_range(N);
            match round % 3 {
                0 => sim.step(&Op::Fail {
                    group: burn_shard,
                    node,
                }),
                1 => sim.step(&Op::Revive {
                    group: burn_shard,
                    node,
                }),
                _ => sim.step(&Op::Repair {
                    group: burn_shard,
                    node,
                    window: Vec::new(),
                }),
            }
            let upto = sim.version_count(quiet);
            sim.step(&Op::Get {
                object: quiet,
                version: 1 + rng.gen_range(upto),
            });
        }
        sim.step(&Op::CheckMetrics);
    });
}

/// `concurrent_appenders_on_distinct_objects_do_not_interleave_sequences`,
/// deterministic: interleaved appends to distinct objects never cross
/// version chains — each object's reads must return *its* bytes.
#[test]
fn interleaved_appends_keep_object_sequences_isolated() {
    random_walk("cluster-isolated-appends", 15, |seed| {
        let mut rng = SimRng::new(seed);
        let mut sim = Sim::new(options(), rng.fork());
        for _ in 0..24 {
            let object = rng.gen_range(OBJECTS);
            sim.step(&Op::Append {
                object,
                edits: vec![(rng.gen_range(OBJECT_LEN), (object as u8 + 1) << 3)],
            });
        }
        for object in 0..OBJECTS {
            for version in 1..=sim.version_count(object) {
                sim.step(&Op::Get { object, version });
            }
        }
        sim.step(&Op::CheckMetrics);
    });
}

/// The cluster walk with per-engine delta caches and anchor checkpoints on
/// (including the walk's `ResetCache` steps): byte equality against each
/// object's model and oracle throughout.
#[test]
fn cached_checkpointed_cluster_walks_match_their_models() {
    random_walk("cluster-cache-checkpoints", 15, |seed| {
        let options = SimOptions {
            cache_capacity: 3,
            checkpoint_spacing: 2,
            ..options()
        };
        walk(options, seed, 70);
    });
}

/// Pinned cluster mirror of the engine's cache lifecycle test: with more
/// than `n − k` nodes of an object's shard down, the append-warmed cache
/// keeps serving; `ResetCache` forces the next read back to the nodes,
/// where it fails exactly as the oracle predicts until the nodes revive.
#[test]
fn cluster_cached_reads_survive_dead_nodes_until_reset() {
    let mut opts = options();
    opts.cache_capacity = 2;
    let mut rng = SimRng::new(0x5EC0_0000_0000_0009);
    let mut sim = Sim::new(opts, rng.fork());
    sim.step(&Op::Append {
        object: 0,
        edits: Vec::new(),
    });
    sim.step(&Op::Append {
        object: 0,
        edits: vec![(3, 0x21)],
    });
    let shard = sim.group_of(0);
    for node in 0..=2 {
        sim.step(&Op::Fail { group: shard, node });
    }
    sim.step(&Op::Get {
        object: 0,
        version: 2,
    });
    sim.step(&Op::ResetCache { object: 0 });
    sim.step(&Op::Get {
        object: 0,
        version: 2,
    });
    for node in 0..=2 {
        sim.step(&Op::Revive { group: shard, node });
    }
    sim.step(&Op::Get {
        object: 0,
        version: 2,
    });
    sim.step(&Op::CheckMetrics);
}

/// Pinned-seed regression for the `SecCluster::repair_node` window bug
/// fixed in this change: the repair rebuilt every engine, then revived the
/// node *unconditionally* — a failure landing between the last rebuild and
/// the revive was silently erased, leaving the node marked live with
/// post-failure writes never rebuilt. The fixed repair snapshots the
/// node's failure epoch and only commits the revive if no new failure
/// intervened, returning `RepairRaced` otherwise (the harness turns a
/// lost failure into a LOST FAILURE panic).
#[test]
fn cluster_repair_window_failure_is_never_lost() {
    // Pinned schedule — this is the regression, not an exploration.
    let mut rng = SimRng::new(0x5EC0_0000_0000_0006);
    let mut sim = Sim::new(options(), rng.fork());
    // Two objects with data (whichever shards they land on) so the repair
    // has engines to rebuild and its window actually opens.
    sim.step(&Op::Append {
        object: 0,
        edits: Vec::new(),
    });
    sim.step(&Op::Append {
        object: 0,
        edits: vec![(3, 0x42)],
    });
    sim.step(&Op::Append {
        object: 1,
        edits: Vec::new(),
    });
    let shard = sim.group_of(0);
    sim.step(&Op::Fail {
        group: shard,
        node: 2,
    });
    // Re-fail the node inside the repair window (between two per-object
    // rebuilds). The harness asserts the repair reports `RepairRaced`.
    sim.step(&Op::Repair {
        group: shard,
        node: 2,
        window: vec![WindowOp::Fail(shard, 2)],
    });
    assert!(!sim.model_alive(shard, 2), "the mid-repair failure must stick");
    sim.step(&Op::CheckMetrics);
    // Recovery: re-run the repair; it commits and reads come back exact.
    sim.step(&Op::Repair {
        group: shard,
        node: 2,
        window: Vec::new(),
    });
    assert!(sim.model_alive(shard, 2));
    for object in 0..OBJECTS {
        for version in 1..=sim.version_count(object) {
            sim.step(&Op::Get { object, version });
        }
    }
    sim.step(&Op::CheckMetrics);
}

/// Objects admitted *during* a repair window (first append racing the
/// repair) are safe: the first append writes complete blocks, so the new
/// object needs nothing from the rebuild. The repair still commits (no
/// failure intervened) and every read stays exact.
#[test]
fn objects_admitted_mid_repair_are_complete() {
    let mut rng = SimRng::new(0x5EC0_0000_0000_0008);
    let mut sim = Sim::new(options(), rng.fork());
    sim.step(&Op::Append {
        object: 0,
        edits: Vec::new(),
    });
    sim.step(&Op::Append {
        object: 0,
        edits: vec![(1, 9)],
    });
    let shard = sim.group_of(0);
    sim.step(&Op::Fail {
        group: shard,
        node: 1,
    });
    // Window: the *first* append of object 2 lands between per-object
    // rebuilds, admitting a brand-new object the repair's engine snapshot
    // has never seen. Its first-append blocks are complete, so it needs
    // nothing from the rebuild.
    assert_eq!(sim.version_count(2), 0);
    sim.step(&Op::Repair {
        group: shard,
        node: 1,
        window: vec![WindowOp::Append(2, vec![(2, 0x77)])],
    });
    assert!(
        sim.model_alive(shard, 1),
        "no failure intervened: the repair must commit"
    );
    assert_eq!(sim.version_count(2), 1, "the window append must have run");
    for object in [0, 2] {
        for version in 1..=sim.version_count(object) {
            sim.step(&Op::Get { object, version });
        }
    }
    sim.step(&Op::CheckMetrics);
}

/// The sweep's `cluster-dispersed-strict` property: under dispersed
/// placement every object owns its node space, so the walk drives the
/// object-scoped calls (`fail_object_node`, `repair_object_node`, window
/// `engine::repair::window`) and checks every read and liveness bit.
#[test]
fn seeded_dispersed_cluster_schedules_match_their_models() {
    random_walk("cluster-dispersed-strict", 20, |seed| {
        let options = SimOptions {
            placement: PlacementStrategy::Dispersed,
            objects: 3,
            ..options()
        };
        walk(options, seed, 60);
    });
}

/// The sweep's `cluster-read-faults` property: spurious node-read faults
/// and torn rebuilds. A cluster repair that tears midway keeps the objects
/// it already rebuilt and leaves the node failed; every read the cluster
/// serves is the model's bytes, and every read it fails is `Unrecoverable`.
#[test]
fn cluster_walks_with_read_faults_and_torn_repairs_serve_only_correct_bytes() {
    random_walk("cluster-read-faults", 20, |seed| {
        let options = SimOptions {
            objects: 3,
            read_fault_percent: 10,
            rebuild_abort_percent: 10,
            ..options()
        };
        walk(options, seed, 60);
    });
}
