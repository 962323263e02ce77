//! Deterministic re-expression of `crates/engine/tests/cluster_chaos.rs`,
//! plus the pinned-seed regression for the `SecCluster::repair_node`
//! window race this change fixes.

use sec_sim::harness::{ClusterOp, ClusterSim, ClusterSimOptions, ClusterWindowOp};
use sec_sim::{random_walk, SimRng};

const N: usize = 5;
const K: usize = 3;
const SHARDS: usize = 2;
const OBJECTS: usize = 4;
const OBJECT_LEN: usize = 48;

fn options() -> ClusterSimOptions {
    ClusterSimOptions::strict(N, K, SHARDS, OBJECTS, OBJECT_LEN)
}

/// Seeded exploration over the full cluster alphabet: appends and reads on
/// several objects across shards, node failures, revivals and repairs with
/// interleaving windows — every read checked against the per-object model
/// and the failure-aware oracle.
#[test]
fn seeded_cluster_schedules_match_their_models() {
    random_walk("cluster-walk", 25, |seed| {
        let mut rng = SimRng::new(seed);
        let mut sim = ClusterSim::new(options(), rng.fork());
        for _ in 0..70 {
            let op = sim.random_op(&mut rng);
            sim.step(&op);
        }
        sim.step(&ClusterOp::CheckMetrics);
    });
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
        let mut sim = ClusterSim::new(options(), rng.fork());
        // Give every object a version so each shard holds data, then find
        // two objects on different shards.
        for object in 0..OBJECTS {
            sim.step(&ClusterOp::Append {
                object,
                edits: vec![(rng.gen_range(OBJECT_LEN), 0x17)],
            });
        }
        let quiet = 0;
        let quiet_shard = sim.object_shard(quiet);
        let burn_shard = (quiet_shard + 1) % SHARDS;
        for round in 0..12 {
            let node = rng.gen_range(N);
            match round % 3 {
                0 => sim.step(&ClusterOp::Fail {
                    shard: burn_shard,
                    node,
                }),
                1 => sim.step(&ClusterOp::Revive {
                    shard: burn_shard,
                    node,
                }),
                _ => sim.step(&ClusterOp::Repair {
                    shard: burn_shard,
                    node,
                    window: Vec::new(),
                }),
            }
            let upto = sim.object_versions(quiet);
            sim.step(&ClusterOp::Get {
                object: quiet,
                version: 1 + rng.gen_range(upto),
            });
        }
        sim.step(&ClusterOp::CheckMetrics);
    });
}

/// `concurrent_appenders_on_distinct_objects_do_not_interleave_sequences`,
/// deterministic: interleaved appends to distinct objects never cross
/// version chains — each object's reads must return *its* bytes.
#[test]
fn interleaved_appends_keep_object_sequences_isolated() {
    random_walk("cluster-isolated-appends", 15, |seed| {
        let mut rng = SimRng::new(seed);
        let mut sim = ClusterSim::new(options(), rng.fork());
        for _ in 0..24 {
            let object = rng.gen_range(OBJECTS);
            sim.step(&ClusterOp::Append {
                object,
                edits: vec![(rng.gen_range(OBJECT_LEN), (object as u8 + 1) << 3)],
            });
        }
        for object in 0..OBJECTS {
            for version in 1..=sim.object_versions(object) {
                sim.step(&ClusterOp::Get { object, version });
            }
        }
        sim.step(&ClusterOp::CheckMetrics);
    });
}

/// The cluster walk with per-engine delta caches and anchor checkpoints on
/// (including the walk's `ResetCache` steps): byte equality against each
/// object's model and oracle throughout.
#[test]
fn cached_checkpointed_cluster_walks_match_their_models() {
    random_walk("cluster-cache-checkpoints", 15, |seed| {
        let mut rng = SimRng::new(seed);
        let mut options = options();
        options.cache_capacity = 3;
        options.checkpoint_spacing = 2;
        let mut sim = ClusterSim::new(options, rng.fork());
        for _ in 0..70 {
            let op = sim.random_op(&mut rng);
            sim.step(&op);
        }
        sim.step(&ClusterOp::CheckMetrics);
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
    let mut sim = ClusterSim::new(opts, rng.fork());
    sim.step(&ClusterOp::Append {
        object: 0,
        edits: Vec::new(),
    });
    sim.step(&ClusterOp::Append {
        object: 0,
        edits: vec![(3, 0x21)],
    });
    let shard = sim.object_shard(0);
    for node in 0..=2 {
        sim.step(&ClusterOp::Fail { shard, node });
    }
    sim.step(&ClusterOp::Get {
        object: 0,
        version: 2,
    });
    sim.step(&ClusterOp::ResetCache { object: 0 });
    sim.step(&ClusterOp::Get {
        object: 0,
        version: 2,
    });
    for node in 0..=2 {
        sim.step(&ClusterOp::Revive { shard, node });
    }
    sim.step(&ClusterOp::Get {
        object: 0,
        version: 2,
    });
    sim.step(&ClusterOp::CheckMetrics);
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
    let mut sim = ClusterSim::new(options(), rng.fork());
    // Two objects with data (whichever shards they land on) so the repair
    // has engines to rebuild and its window actually opens.
    sim.step(&ClusterOp::Append {
        object: 0,
        edits: Vec::new(),
    });
    sim.step(&ClusterOp::Append {
        object: 0,
        edits: vec![(3, 0x42)],
    });
    sim.step(&ClusterOp::Append {
        object: 1,
        edits: Vec::new(),
    });
    let shard = sim.object_shard(0);
    sim.step(&ClusterOp::Fail { shard, node: 2 });
    // Re-fail the node inside the repair window (between two per-object
    // rebuilds). The harness asserts the repair reports `RepairRaced`.
    sim.step(&ClusterOp::Repair {
        shard,
        node: 2,
        window: vec![ClusterWindowOp::Fail(shard, 2)],
    });
    assert!(!sim.model_alive(shard, 2), "the mid-repair failure must stick");
    sim.step(&ClusterOp::CheckMetrics);
    // Recovery: re-run the repair; it commits and reads come back exact.
    sim.step(&ClusterOp::Repair {
        shard,
        node: 2,
        window: Vec::new(),
    });
    assert!(sim.model_alive(shard, 2));
    for object in 0..OBJECTS {
        for version in 1..=sim.object_versions(object) {
            sim.step(&ClusterOp::Get { object, version });
        }
    }
    sim.step(&ClusterOp::CheckMetrics);
}

/// Objects admitted *during* a repair window (first append racing the
/// repair) are safe: the first append writes complete blocks, so the new
/// object needs nothing from the rebuild. The repair still commits (no
/// failure intervened) and every read stays exact.
#[test]
fn objects_admitted_mid_repair_are_complete() {
    let mut rng = SimRng::new(0x5EC0_0000_0000_0008);
    let mut sim = ClusterSim::new(options(), rng.fork());
    sim.step(&ClusterOp::Append {
        object: 0,
        edits: Vec::new(),
    });
    sim.step(&ClusterOp::Append {
        object: 0,
        edits: vec![(1, 9)],
    });
    let shard = sim.object_shard(0);
    sim.step(&ClusterOp::Fail { shard, node: 1 });
    // Window: the *first* append of object 2 lands between per-object
    // rebuilds, admitting a brand-new object the repair's engine snapshot
    // has never seen. Its first-append blocks are complete, so it needs
    // nothing from the rebuild.
    assert_eq!(sim.object_versions(2), 0);
    sim.step(&ClusterOp::Repair {
        shard,
        node: 1,
        window: vec![ClusterWindowOp::Append(2, vec![(2, 0x77)])],
    });
    assert!(
        sim.model_alive(shard, 1),
        "no failure intervened: the repair must commit"
    );
    assert_eq!(sim.object_versions(2), 1, "the window append must have run");
    for object in [0, 2] {
        for version in 1..=sim.object_versions(object) {
            sim.step(&ClusterOp::Get { object, version });
        }
    }
    sim.step(&ClusterOp::CheckMetrics);
}
