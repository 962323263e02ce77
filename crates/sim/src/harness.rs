//! The deterministic scheduler: explicit operation steps over a real
//! [`SecCluster`], checked against the walk-free reference.
//!
//! Instead of racing OS threads, a simulation is a *schedule*: a sequence of
//! [`Op`]s (append, read, fail, revive, repair, metrics) applied one at a
//! time to the system under test. Concurrency is reintroduced exactly where
//! the production code exposes it — the buggify fault points — via
//! *interleaving windows*: a repair step can carry operations that the
//! installed [`SimHook`] runs inside the repair's window, between its
//! rebuild and its liveness commit, where no locks are held. Every step is
//! checked against a model (the exact version bytes and liveness the system
//! should hold) and against [`crate::reference`] for read results, I/O
//! accounting and errors. The reference reads one `ByteVersionedArchive` per
//! object holding the same versions — used only as a block store, its layout
//! checked against the plaintext on every append — from the positions the
//! model's liveness leaves readable. It shares no code with the walk the
//! cluster reads through, so a walk bug is a divergence.
//!
//! With caching on, the model also tracks the versions each object's cache
//! could hold (appended or served since its last `ResetCache`): a cached read
//! must be what the reference reads from one of them, and a failed read must
//! fail as the reference does from none or one of them. The metrics check
//! holds the cluster's block counters to the model's account: every reported
//! read, `k` reads and one write per block a repair rebuilt, and `n` writes
//! per stored entry an append wrote.
//!
//! A node is addressed as `(group, node)`, the cluster's own node address:
//! the sim calls [`SecCluster::fail_node`], [`SecCluster::revive_node`],
//! [`SecCluster::is_node_alive`] and [`SecCluster::repair_node`] under
//! either placement. Under colocated placement the group is a shard and the
//! repair window is `cluster::repair::window`; under dispersed placement the
//! group is an object (the sim's object index is its id) and the window is
//! `engine::repair::window`.
//!
//! Schedules are pure functions of a seed; see `crate::explore` for the
//! random-walk and exhaustive drivers and `docs/DST.md` for the replay
//! workflow.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use sec_engine::{CacheStats, ClusterError, ObjectId, PlacementStrategy, SecCluster};
use sec_erasure::GeneratorForm;
use sec_store::fault::{self, HookGuard};
use sec_store::{IoMetrics, Placement, StoreError};
use sec_versioning::{
    ArchiveConfig, ByteVersionedArchive, CheckpointPolicy, EncodingStrategy, VersioningError,
};

use crate::clock::{EventQueue, VirtualClock};
use crate::hook::SimHook;
use crate::reference;
use crate::rng::SimRng;

/// Most versions a random walk appends to one object, so long schedules
/// keep bounded cost.
const MAX_VERSIONS: usize = 24;

/// One scheduled operation against the system under test. Objects are
/// indices into the sim's object table; nodes are `(group, node)` (see the
/// module docs).
#[derive(Debug, Clone)]
pub enum Op {
    /// Append the next version of `object`: its previous version (or a
    /// fixed base object for the first append) with each `(position,
    /// delta)` edit XORed in. Deltas of zero are coerced to 1 so every edit
    /// is real.
    Append {
        /// Object index.
        object: usize,
        /// Byte edits defining the new version's delta from its parent.
        edits: Vec<(usize, u8)>,
    },
    /// Retrieve version `version` (1-based) of `object` and check it
    /// against the model and the reference.
    Get {
        /// Object index.
        object: usize,
        /// The version to read.
        version: usize,
    },
    /// Retrieve versions `1..=upto` of `object` and check them against the
    /// model and the reference.
    GetPrefix {
        /// Object index.
        object: usize,
        /// The last version of the prefix.
        upto: usize,
    },
    /// Fail a node.
    Fail {
        /// Node group: a shard (colocated) or an object (dispersed).
        group: usize,
        /// Node within the group.
        node: usize,
    },
    /// Revive a node without repair (crash recovery).
    Revive {
        /// Node group.
        group: usize,
        /// Node within the group.
        node: usize,
    },
    /// Fail a node now and schedule its revival `ticks` of virtual time
    /// later (delivered by the next `AdvanceClock` that reaches the due
    /// tick).
    FailFor {
        /// Node group.
        group: usize,
        /// Node within the group.
        node: usize,
        /// Virtual ticks until the scheduled revive.
        ticks: u64,
    },
    /// Advance the virtual clock, delivering any due scheduled events.
    AdvanceClock {
        /// Ticks to advance by.
        ticks: u64,
    },
    /// Repair a node, optionally interleaving `window` operations inside
    /// the repair's lock-free window (between rebuild and liveness commit;
    /// a colocated repair opens one window per rebuilt object).
    Repair {
        /// Node group.
        group: usize,
        /// Node within the group.
        node: usize,
        /// Operations the hook runs inside the repair window, in order.
        window: Vec<WindowOp>,
    },
    /// Drain the I/O counters (`reset_metrics`) and fold them into the
    /// exactly-once accounting check.
    ResetMetrics,
    /// Drop `object`'s cached decoded versions, forcing its subsequent reads
    /// back to the nodes (a no-op with caching disabled).
    ResetCache {
        /// Object index.
        object: usize,
    },
    /// Assert the metrics snapshot agrees with the model (versions, objects,
    /// node counts, liveness, exactly-once retrieval accounting).
    CheckMetrics,
}

/// An operation run *inside* a repair's interleaving window by the fault
/// hook. No locks are held at the window sites, so everything the cluster
/// offers is safe there; the restriction to this enum is what keeps window
/// schedules replayable.
#[derive(Debug, Clone)]
pub enum WindowOp {
    /// Fail node `(group, node)` mid-repair.
    Fail(usize, usize),
    /// Revive node `(group, node)` mid-repair.
    Revive(usize, usize),
    /// Append to an object mid-repair (edits as [`Op::Append`]).
    Append(usize, Vec<(usize, u8)>),
    /// Read `(object, version)` mid-repair (checked for byte equality).
    Get(usize, usize),
}

/// What a window action actually did, recorded by the hook's closures and
/// replayed onto the model after the repair returns.
enum WindowRecord {
    Fail(usize, usize, Result<(), ClusterError>),
    Revive(usize, usize, Result<(), ClusterError>),
    Append(usize, Vec<u8>),
    Get {
        object: usize,
        version: usize,
        /// The bytes and block reads, or the error.
        outcome: Result<(Vec<u8>, usize), ClusterError>,
    },
}

/// Construction parameters for [`Sim`].
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Codeword length `n`.
    pub n: usize,
    /// Dimension `k`.
    pub k: usize,
    /// Generator form of the code.
    pub form: GeneratorForm,
    /// Encoding strategy of every object.
    pub encoding: EncodingStrategy,
    /// Placement strategy of the cluster under test.
    pub placement: PlacementStrategy,
    /// Shard count.
    pub shards: usize,
    /// Number of distinct objects the schedule may touch.
    pub objects: usize,
    /// Byte length of every version of every object.
    pub object_len: usize,
    /// Per-object delta-cache capacity (0 disables; strict I/O accounting
    /// requires 0).
    pub cache_capacity: usize,
    /// Checkpoint spacing for every archive under test *and* the reference's
    /// block store (0 disables). Strict-compatible: both store the layout
    /// the plaintext dictates, so I/O accounting stays bit-identical.
    pub checkpoint_spacing: usize,
    /// Probability (percent) that a node read spuriously fails
    /// (`store::node::read` buggify site).
    pub read_fault_percent: u32,
    /// Probability (percent) that a rebuild aborts between stage and commit
    /// (`engine::rebuild::abort` buggify site).
    pub rebuild_abort_percent: u32,
}

impl SimOptions {
    /// A strict (fault-free, cache-free) colocated non-systematic BasicSec
    /// setup of one shard holding one object: the configuration under which
    /// behaviour must match the reference bit-for-bit including I/O counts.
    /// Widen it with struct-update syntax.
    pub fn strict(n: usize, k: usize, object_len: usize) -> Self {
        Self {
            n,
            k,
            form: GeneratorForm::NonSystematic,
            encoding: EncodingStrategy::BasicSec,
            placement: PlacementStrategy::Colocated,
            shards: 1,
            objects: 1,
            object_len,
            cache_capacity: 0,
            checkpoint_spacing: 0,
            read_fault_percent: 0,
            rebuild_abort_percent: 0,
        }
    }

    /// Whether faults are injected, so the cluster may fail reads the
    /// fault-free reference serves.
    fn faulty(&self) -> bool {
        self.read_fault_percent > 0 || self.rebuild_abort_percent > 0
    }
}

/// The model of one object: the reference's block store, the version bytes
/// (index `l-1` = version `l`) and the versions its cache could hold;
/// object `i` is [`ObjectId`] `i`.
struct ObjectModel {
    archive: ByteVersionedArchive,
    versions: Vec<Vec<u8>>,
    cacheable: BTreeSet<usize>,
}

/// The model of one node: liveness and failure epoch.
#[derive(Debug, Clone, Copy)]
struct NodeModel {
    alive: bool,
    epoch: u64,
}

const FRESH_NODE: NodeModel = NodeModel {
    alive: true,
    epoch: 0,
};

/// Deterministic simulation of one [`SecCluster`] against its model.
///
/// The model is authoritative: exact version bytes per object, per-node
/// liveness and failure epochs, and expected metric counters. Divergence
/// panics with a message naming the step — under
/// `crate::explore::random_walk` that panic carries the replay seed.
pub struct Sim {
    cluster: Rc<SecCluster>,
    hook: Rc<SimHook>,
    _hook_guard: HookGuard,
    options: SimOptions,
    objects: Vec<ObjectModel>,
    /// Node models per group: one group of `n` per shard (colocated), or one
    /// per object growing by `n` with each stored entry (dispersed).
    groups: Vec<Vec<NodeModel>>,
    clock: VirtualClock,
    /// Revivals scheduled by [`Op::FailFor`], as `(group, node)`.
    due: EventQueue<(usize, usize)>,
    /// The model's account of the I/O counters since construction, drained
    /// epochs included.
    expected: IoMetrics,
    /// The I/O counters every [`Op::ResetMetrics`] drained.
    drained: IoMetrics,
    steps: u64,
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("options", &self.options)
            .field("steps", &self.steps)
            .finish_non_exhaustive()
    }
}

impl Sim {
    /// Builds the cluster under test and installs the simulation's fault
    /// hook (seeded from `hook_rng`) on the current thread.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration (bad code parameters or zero
    /// shards) — simulations are tests, and a bad setup should fail loudly
    /// at construction.
    pub fn new(options: SimOptions, hook_rng: SimRng) -> Self {
        let config = ArchiveConfig::new(options.n, options.k, options.form, options.encoding)
            .expect("sim: invalid archive config")
            .with_checkpoints(CheckpointPolicy::every(options.checkpoint_spacing));
        let cluster = SecCluster::with_placement(
            config,
            options.shards,
            options.cache_capacity,
            options.placement,
        )
        .expect("sim: cluster construction failed");
        let hook = Rc::new(SimHook::new(hook_rng));
        hook.set_probability("store::node::read", options.read_fault_percent);
        hook.set_probability("engine::rebuild::abort", options.rebuild_abort_percent);
        let guard = hook.install();
        let objects = (0..options.objects)
            .map(|_| ObjectModel {
                archive: ByteVersionedArchive::new(config)
                    .expect("sim: reference archive construction failed"),
                versions: Vec::new(),
                cacheable: BTreeSet::new(),
            })
            .collect();
        let groups = match options.placement {
            PlacementStrategy::Colocated => vec![vec![FRESH_NODE; options.n]; options.shards],
            PlacementStrategy::Dispersed => vec![Vec::new(); options.objects],
        };
        Self {
            cluster: Rc::new(cluster),
            hook,
            _hook_guard: guard,
            options,
            objects,
            groups,
            clock: VirtualClock::new(),
            due: EventQueue::new(),
            expected: IoMetrics::new(),
            drained: IoMetrics::new(),
            steps: 0,
        }
    }

    /// The fault hook, for tests that assert on site traces.
    pub fn hook(&self) -> &Rc<SimHook> {
        &self.hook
    }

    /// Versions appended so far to `object`.
    pub fn version_count(&self, object: usize) -> usize {
        self.objects.get(object).map_or(0, |o| o.versions.len())
    }

    /// The node group holding `object`'s blocks: its shard under colocated
    /// placement, the object itself under dispersed.
    pub fn group_of(&self, object: usize) -> usize {
        match self.options.placement {
            PlacementStrategy::Colocated => self.cluster.shard_of(id(object)),
            PlacementStrategy::Dispersed => object,
        }
    }

    /// Number of nodes group `group` currently has.
    pub fn node_count(&self, group: usize) -> usize {
        self.groups.get(group).map_or(0, Vec::len)
    }

    /// The model's liveness for node `(group, node)` (out of range reads as
    /// dead).
    pub fn model_alive(&self, group: usize, node: usize) -> bool {
        self.node(group, node).is_some_and(|n| n.alive)
    }

    fn node(&self, group: usize, node: usize) -> Option<&NodeModel> {
        self.groups.get(group).and_then(|g| g.get(node))
    }

    fn object(&self, object: usize) -> &ObjectModel {
        self.objects
            .get(object)
            .unwrap_or_else(|| panic!("step {}: unknown object index {object}", self.steps))
    }

    fn model_version(&self, object: usize, l: usize) -> Option<&[u8]> {
        let versions = &self.objects.get(object)?.versions;
        versions.get(l.wrapping_sub(1)).map(Vec::as_slice)
    }

    /// Draws a random next operation for walk-style exploration.
    pub fn random_op(&self, rng: &mut SimRng) -> Op {
        let object = rng.gen_range(self.objects.len());
        let versions = self.version_count(object);
        if versions == 0 {
            return Op::Append {
                object,
                edits: random_edits(rng, self.options.object_len),
            };
        }
        let (group, node) = self.random_node(rng, object);
        match rng.gen_range(100) {
            0..=19 if versions < MAX_VERSIONS => Op::Append {
                object,
                edits: random_edits(rng, self.options.object_len),
            },
            0..=39 => Op::Get {
                object,
                version: rng.gen_range(versions) + 1,
            },
            40..=51 => Op::GetPrefix {
                object,
                upto: rng.gen_range(versions) + 1,
            },
            52..=63 => Op::Fail { group, node },
            64..=73 => Op::Revive { group, node },
            74..=85 => {
                let window = (0..rng.gen_range(3))
                    .map(|_| self.random_window_op(rng, object))
                    .collect();
                Op::Repair { group, node, window }
            }
            86..=90 => Op::FailFor {
                group,
                node,
                ticks: 1 + rng.gen_range(5) as u64,
            },
            91..=95 => Op::AdvanceClock {
                ticks: 1 + rng.gen_range(5) as u64,
            },
            96 => Op::ResetMetrics,
            97 => Op::ResetCache { object },
            _ => Op::CheckMetrics,
        }
    }

    /// A window operation on a random object that has versions, or on
    /// `fallback` (which must have some).
    fn random_window_op(&self, rng: &mut SimRng, fallback: usize) -> WindowOp {
        let drawn = rng.gen_range(self.objects.len());
        let object = if self.version_count(drawn) > 0 {
            drawn
        } else {
            fallback
        };
        let versions = self.version_count(object);
        let (group, node) = self.random_node(rng, object);
        match rng.gen_range(10) {
            0..=3 => WindowOp::Fail(group, node),
            4..=5 => WindowOp::Revive(group, node),
            6..=7 if versions < MAX_VERSIONS => {
                WindowOp::Append(object, random_edits(rng, self.options.object_len))
            }
            _ => WindowOp::Get(object, rng.gen_range(versions) + 1),
        }
    }

    /// A random node: any shard's under colocated placement, `object`'s
    /// (which must have versions) under dispersed.
    fn random_node(&self, rng: &mut SimRng, object: usize) -> (usize, usize) {
        match self.options.placement {
            PlacementStrategy::Colocated => {
                (rng.gen_range(self.options.shards), rng.gen_range(self.options.n))
            }
            PlacementStrategy::Dispersed => (object, rng.gen_range(self.node_count(object))),
        }
    }

    /// Applies one operation and checks every invariant it touches.
    ///
    /// # Panics
    ///
    /// Panics when the cluster diverges from the model or the reference — that
    /// panic *is* the simulation's failure signal.
    pub fn step(&mut self, op: &Op) {
        self.steps += 1;
        match op {
            Op::Append { object, edits } => self.do_append(*object, edits),
            Op::Get { object, version } => self.do_get(*object, *version),
            Op::GetPrefix { object, upto } => self.do_get_prefix(*object, *upto),
            Op::Fail { group, node } => self.do_fail(*group, *node),
            Op::Revive { group, node } => self.do_revive(*group, *node),
            Op::FailFor { group, node, ticks } => {
                self.do_fail(*group, *node);
                let due = self.clock.now().saturating_add(*ticks);
                self.due.schedule(due, (*group, *node));
            }
            Op::AdvanceClock { ticks } => {
                let now = self.clock.advance(*ticks);
                while let Some((group, node)) = self.due.pop_due(now) {
                    self.do_revive(group, node);
                }
            }
            Op::Repair { group, node, window } => self.do_repair(*group, *node, window),
            Op::ResetMetrics => {
                let m = self.cluster.reset_metrics();
                self.drained.absorb(&m.io);
            }
            Op::ResetCache { object } => self.do_reset_cache(*object),
            Op::CheckMetrics => self.check_metrics(),
        }
    }

    /// Runs a whole schedule, then a final metrics check.
    pub fn run(&mut self, schedule: &[Op]) {
        for op in schedule {
            self.step(op);
        }
        self.check_metrics();
    }

    fn do_append(&mut self, object: usize, edits: &[(usize, u8)]) {
        let step = self.steps;
        let bytes = next_version(
            self.object(object).versions.last().map(Vec::as_slice),
            self.options.object_len,
            edits,
        );
        self.cluster
            .append_version(id(object), &bytes)
            .unwrap_or_else(|e| panic!("step {step}: append to object {object} failed: {e}"));
        self.apply_append_to_model(object, bytes);
        assert_eq!(
            self.cluster.version_count(id(object)),
            Some(self.version_count(object)),
            "step {step}: object {object} version count diverged"
        );
    }

    fn apply_append_to_model(&mut self, object: usize, bytes: Vec<u8>) {
        let step = self.steps;
        let group = self.group_of(object);
        let Some(model) = self.objects.get_mut(object) else {
            panic!("step {step}: append to unknown object index {object}");
        };
        fault::with_suspended(|| {
            model
                .archive
                .append_version(&bytes)
                .unwrap_or_else(|e| panic!("step {step}: reference archive append failed: {e}"));
        });
        model.versions.push(bytes);
        let version = model.versions.len();
        if self.options.cache_capacity > 0 {
            model.cacheable.insert(version);
        }
        // An append writes every block of the entry it stores, and Reversed
        // SEC also rewrites its previous full copy as a delta.
        let reversed = self.options.encoding == EncodingStrategy::ReversedSec;
        let entries_written = 1 + usize::from(reversed && version > 1);
        self.expected.symbol_writes += (self.options.n * entries_written) as u64;
        let want = reference::expected_layout(model.archive.config(), &model.versions);
        let got = &model.archive;
        assert_eq!(
            (got.layout(), got.sparsity_profile(), got.checkpoints_written()),
            (want.layout.as_slice(), want.profile.as_slice(), want.checkpoints),
            "step {step}: object {object} stored layout diverged from its plaintext"
        );
        // Dispersed placement grows the object's node space with each stored
        // entry; fresh nodes are live in epoch 0.
        let entries = model.archive.layout().len();
        let nodes = Placement::new(self.options.placement, self.options.n, entries).node_count();
        if let Some(group) = self.groups.get_mut(group) {
            if group.len() < nodes {
                group.resize(nodes, FRESH_NODE);
            }
        }
    }

    /// The reference's liveness for `object`: block `position` of stored
    /// entry `entry` is readable when the node the placement maps it to is
    /// live in the model. The reference's reads have no fault points, so
    /// injected faults never perturb expected results.
    fn model_live(&self, object: usize) -> impl Fn(usize, usize) -> bool + '_ {
        let entries = self.object(object).archive.layout().len();
        let placement = Placement::new(self.options.placement, self.options.n, entries);
        let group = self.group_of(object);
        move |entry, position| {
            placement
                .try_node_for(entry, position)
                .is_ok_and(|node| self.model_alive(group, node))
        }
    }

    fn do_get(&mut self, object: usize, version: usize) {
        self.expected.retrievals += 1;
        let step = self.steps;
        let got = self.cluster.get_version(id(object), version);
        let model = self.object(object);
        let anchors = self.anchors(object, |a| match self.options.encoding {
            EncodingStrategy::ReversedSec => a >= version,
            EncodingStrategy::NonDifferential => a == version,
            EncodingStrategy::BasicSec | EncodingStrategy::OptimizedSec => a <= version,
        });
        let what = format!("object {object} get_version({version})");
        self.check_read(
            &what,
            got.as_ref()
                .map(|got| (got.data.as_slice(), got.io_reads, got.cached)),
            &anchors,
            |anchor| {
                let anchor = anchor.map(|a| (a, model.versions[a - 1].as_slice()));
                reference::read_version(&model.archive, version, anchor, self.model_live(object))
                    .map(|want| (want.data, want.io_reads))
            },
        );
        let Ok(got) = got else {
            self.resync_io();
            return;
        };
        assert_eq!(
            Some(got.data.as_slice()),
            self.model_version(object, version),
            "step {step}: {what} bytes diverged from model"
        );
        self.expected.symbol_reads += got.io_reads as u64;
        if self.options.cache_capacity > 0 {
            // The read left `version` cached: an immediate re-read is an
            // exact hit that reads no block.
            self.expected.retrievals += 1;
            let again = (self.cluster.get_version(id(object), version))
                .unwrap_or_else(|e| panic!("step {step}: {what} re-read failed: {e}"));
            assert!(
                again.cached && again.io_reads == 0 && again.data == got.data,
                "step {step}: {what} re-read was not a byte-exact cache hit ({} reads, cached {})",
                again.io_reads,
                again.cached
            );
            self.cacheable_mut(object).insert(version);
        }
    }

    fn do_get_prefix(&mut self, object: usize, upto: usize) {
        self.expected.retrievals += 1;
        let step = self.steps;
        let got = self.cluster.get_prefix(id(object), upto);
        let model = self.object(object);
        // Only Reversed SEC's backward chain starts from a cached tail.
        let anchors = match self.options.encoding {
            EncodingStrategy::ReversedSec => self.anchors(object, |a| a >= upto),
            _ => Vec::new(),
        };
        let what = format!("object {object} get_prefix({upto})");
        self.check_read(
            &what,
            got.as_ref()
                .map(|got| (got.versions.as_slice(), got.io_reads, got.cached)),
            &anchors,
            |tail| {
                let tail = tail.map(|a| (a, model.versions[a - 1].as_slice()));
                reference::read_prefix(&model.archive, upto, tail, self.model_live(object))
                    .map(|want| (want.versions, want.io_reads))
            },
        );
        let Ok(prefix) = got else {
            self.resync_io();
            return;
        };
        assert_eq!(prefix.versions.len(), upto, "step {step}: {what} length");
        for (idx, bytes) in prefix.versions.iter().enumerate() {
            assert_eq!(
                Some(bytes.as_slice()),
                self.model_version(object, idx + 1),
                "step {step}: {what} bytes diverged from model at version {}",
                idx + 1
            );
        }
        self.expected.symbol_reads += prefix.io_reads as u64;
    }

    /// The versions `object`'s cache could hold that `usable` admits as a
    /// read's anchor, nearest the read's target first.
    fn anchors(&self, object: usize, usable: impl Fn(usize) -> bool) -> Vec<usize> {
        let mut anchors: Vec<usize> = (self.object(object).cacheable.iter().copied())
            .filter(|&a| usable(a))
            .collect();
        if self.options.encoding != EncodingStrategy::ReversedSec {
            anchors.reverse();
        }
        anchors
    }

    fn cacheable_mut(&mut self, object: usize) -> &mut BTreeSet<usize> {
        let step = self.steps;
        match self.objects.get_mut(object) {
            Some(model) => &mut model.cacheable,
            None => panic!("step {step}: unknown object index {object}"),
        }
    }

    /// Checks one read, `what`, against the reference. The cluster's answer
    /// is `(bytes, block reads, cached)`; `want(anchor)` is the reference's
    /// `(bytes, block reads)` read from scratch (`None`) or from one of
    /// `anchors`, the versions the cluster could hold cached.
    ///
    /// An uncached answer must be the reference's from scratch, a cached one
    /// the reference's from one anchor, reads included (unless faults are
    /// injected). A failure must be the reference's from scratch or from one
    /// anchor, error for error; with faults injected the cluster may also
    /// fail, as `Unrecoverable`, a read the reference serves.
    fn check_read<G, W>(
        &self,
        what: &str,
        got: Result<(G, usize, bool), &ClusterError>,
        anchors: &[usize],
        want: impl Fn(Option<usize>) -> Result<(W, usize), VersioningError>,
    ) where
        G: PartialEq<W> + std::fmt::Debug,
        W: std::fmt::Debug,
    {
        let step = self.steps;
        let got = got.map_err(|e| match e {
            ClusterError::Engine(e) => e,
            other => panic!("step {step}: {what} failed with non-engine error {other}"),
        });
        let faulty = self.options.faulty();
        let want = |anchor| want(anchor).map_err(StoreError::from);
        match got {
            Ok((got, got_reads, false)) => match want(None) {
                Ok((want, want_reads)) => {
                    assert_eq!(got, want, "step {step}: {what} bytes diverged from the reference");
                    assert!(
                        faulty || got_reads == want_reads,
                        "step {step}: {what} I/O accounting diverged from the reference \
                         ({got_reads} vs {want_reads} reads)"
                    );
                }
                Err(want_err) => panic!(
                    "step {step}: cluster served {what} uncached but the reference fails with {want_err}"
                ),
            },
            Ok((got, got_reads, true)) => {
                assert!(
                    self.options.cache_capacity > 0,
                    "step {step}: {what} cache hit with caching disabled"
                );
                let served = anchors.iter().any(|&anchor| {
                    want(Some(anchor)).is_ok_and(|(want, want_reads)| {
                        got == want && (faulty || want_reads == got_reads)
                    })
                });
                assert!(
                    served,
                    "step {step}: cluster served {what} cached in {got_reads} reads, which the \
                     reference reads from none of the versions it could hold ({anchors:?})"
                );
            }
            Err(got_err) => {
                let same = |anchor| want(anchor).err().as_ref() == Some(got_err);
                if same(None) || anchors.iter().any(|&anchor| same(Some(anchor))) {
                    return;
                }
                assert!(
                    faulty,
                    "step {step}: {what} fails with {got_err}, which the reference fails with \
                     from none of no anchor and {anchors:?}"
                );
                assert!(
                    matches!(got_err, StoreError::Unrecoverable { .. }),
                    "step {step}: injected faults must surface as Unrecoverable, got {got_err}"
                );
            }
        }
    }

    fn do_reset_cache(&mut self, object: usize) {
        let step = self.steps;
        let model = self.object(object);
        match self.cluster.clear_cache(id(object)) {
            Ok(()) => {
                assert!(
                    !model.versions.is_empty(),
                    "step {step}: clear_cache(object {object}) succeeded before any append"
                );
                self.cacheable_mut(object).clear();
            }
            Err(ClusterError::UnknownObject { .. }) => assert!(
                model.versions.is_empty(),
                "step {step}: clear_cache(object {object}) lost a known object"
            ),
            Err(e) => panic!("step {step}: clear_cache(object {object}) failed unexpectedly: {e}"),
        }
    }

    fn do_fail(&mut self, group: usize, node: usize) {
        self.cluster
            .fail_node(group, node)
            .unwrap_or_else(|e| panic!("step {}: fail ({group}, {node}): {e}", self.steps));
        self.model_fail(group, node);
    }

    fn do_revive(&mut self, group: usize, node: usize) {
        self.cluster
            .revive_node(group, node)
            .unwrap_or_else(|e| panic!("step {}: revive ({group}, {node}): {e}", self.steps));
        self.model_revive(group, node);
    }

    fn model_fail(&mut self, group: usize, node: usize) {
        if let Some(model) = self.groups.get_mut(group).and_then(|g| g.get_mut(node)) {
            model.alive = false;
            model.epoch += 1;
        }
    }

    fn model_revive(&mut self, group: usize, node: usize) {
        if let Some(model) = self.groups.get_mut(group).and_then(|g| g.get_mut(node)) {
            model.alive = true;
        }
    }

    fn epoch(&self, group: usize, node: usize) -> u64 {
        self.node(group, node).map_or(0, |n| n.epoch)
    }

    /// Whether the model says rebuilding `(group, node)` is impossible right
    /// now: the group holds data and the node's slab (the group under
    /// colocated placement, its entry's `n` nodes under dispersed) has fewer
    /// than `k` *other* live nodes.
    fn model_repair_blocked(&self, group: usize, node: usize) -> bool {
        let holds_data =
            (0..self.objects.len()).any(|o| self.group_of(o) == group && self.version_count(o) > 0);
        let n = self.options.n;
        let slab = (node / n) * n;
        let live_others = (slab..slab + n)
            .filter(|&p| p != node && self.model_alive(group, p))
            .count();
        holds_data && live_others < self.options.k
    }

    fn do_repair(&mut self, group: usize, node: usize, window: &[WindowOp]) {
        let step = self.steps;
        let snapshot_epoch = self.epoch(group, node);
        let records: Rc<RefCell<Vec<WindowRecord>>> = Rc::new(RefCell::new(Vec::new()));
        // Precompute window-append bytes: actions execute as a queue prefix,
        // so an append sees exactly the versions of the appends before it.
        let mut chains: Vec<Option<Vec<u8>>> =
            self.objects.iter().map(|o| o.versions.last().cloned()).collect();
        for op in window {
            let cluster = self.cluster.clone();
            let records = records.clone();
            match op.clone() {
                WindowOp::Fail(g, nd) => self.hook.queue_window_action(move || {
                    let outcome = cluster.fail_node(g, nd);
                    records.borrow_mut().push(WindowRecord::Fail(g, nd, outcome));
                }),
                WindowOp::Revive(g, nd) => self.hook.queue_window_action(move || {
                    let outcome = cluster.revive_node(g, nd);
                    records.borrow_mut().push(WindowRecord::Revive(g, nd, outcome));
                }),
                WindowOp::Append(object, edits) => {
                    let chain = &mut chains[object];
                    let bytes = next_version(chain.as_deref(), self.options.object_len, &edits);
                    *chain = Some(bytes.clone());
                    self.hook.queue_window_action(move || {
                        cluster
                            .append_version(id(object), &bytes)
                            .unwrap_or_else(|e| panic!("window append failed: {e}"));
                        records.borrow_mut().push(WindowRecord::Append(object, bytes));
                    });
                }
                WindowOp::Get(object, version) => {
                    self.hook.queue_window_action(move || {
                        let outcome = cluster
                            .get_version(id(object), version)
                            .map(|r| ((*r.data).clone(), r.io_reads));
                        records.borrow_mut().push(WindowRecord::Get {
                            object,
                            version,
                            outcome,
                        });
                    });
                }
            }
        }
        self.hook.arm_window(match self.options.placement {
            PlacementStrategy::Colocated => "cluster::repair::window",
            PlacementStrategy::Dispersed => "engine::repair::window",
        });
        let result = self.cluster.repair_node(group, node);
        // Actions whose window never fired simply did not happen.
        drop(self.hook.disarm_window());

        // Linearize the executed window actions into the model (they all
        // happened before the repair's liveness commit).
        let mut window_touched_liveness = false;
        let mut window_read_failed = false;
        for record in records.take() {
            match record {
                WindowRecord::Fail(g, nd, outcome) => {
                    outcome.unwrap_or_else(|e| panic!("step {step}: window fail ({g}, {nd}): {e}"));
                    window_touched_liveness = true;
                    self.model_fail(g, nd);
                }
                WindowRecord::Revive(g, nd, outcome) => {
                    outcome.unwrap_or_else(|e| panic!("step {step}: window revive ({g}, {nd}): {e}"));
                    window_touched_liveness = true;
                    self.model_revive(g, nd);
                }
                WindowRecord::Append(object, bytes) => self.apply_append_to_model(object, bytes),
                WindowRecord::Get {
                    object,
                    version,
                    outcome,
                } => {
                    self.expected.retrievals += 1;
                    let Ok((bytes, reads)) = outcome else {
                        window_read_failed = true;
                        continue;
                    };
                    assert_eq!(
                        Some(bytes.as_slice()),
                        self.model_version(object, version),
                        "step {step}: window get(object {object}, {version}) diverged from model"
                    );
                    self.expected.symbol_reads += reads as u64;
                    if self.options.cache_capacity > 0 {
                        self.cacheable_mut(object).insert(version);
                    }
                }
            }
        }

        let raced = self.epoch(group, node) != snapshot_epoch;
        match result {
            Ok(rebuilt) => {
                // A repair must never revive a node whose newest failure its
                // rebuild did not see.
                assert!(
                    !raced,
                    "step {step}: LOST FAILURE — repair ({group}, {node}) revived a node that \
                     failed mid-repair (epoch {snapshot_epoch} → {})",
                    self.epoch(group, node)
                );
                self.model_revive(group, node);
                // Each rebuilt block decoded from `k` sources.
                self.expected.symbol_reads += (self.options.k * rebuilt) as u64;
                self.expected.symbol_writes += rebuilt as u64;
            }
            Err(ClusterError::Engine(StoreError::RepairRaced { node: raced_node })) => {
                assert_eq!(raced_node, node, "step {step}: RepairRaced names the wrong node");
                assert!(
                    raced,
                    "step {step}: repair ({group}, {node}) reported RepairRaced but the model saw \
                     no mid-repair failure"
                );
                // The node keeps whatever liveness the window left it.
            }
            Err(ClusterError::Engine(StoreError::Unrecoverable { .. })) => {
                // Legitimate when too few live sources remain. In a strict
                // run whose window never revived nodes, liveness only
                // shrank, so the model must agree the rebuild is blocked.
                if !self.options.faulty() && !window_touched_liveness {
                    assert!(
                        self.model_repair_blocked(group, node),
                        "step {step}: repair ({group}, {node}) says unrecoverable but the model \
                         has ≥ k live sources"
                    );
                }
            }
            Err(e) => panic!("step {step}: repair ({group}, {node}) failed unexpectedly: {e}"),
        }
        // Either way the cluster's visible liveness must match the model.
        self.assert_liveness();
        if result.is_err() || window_read_failed {
            self.resync_io();
        }
    }

    /// Takes the cluster's block counters as the model's account after an
    /// operation whose block I/O the model does not predict: a failed read
    /// (the walk reads the entries planned before the one that fails) or a
    /// failed repair (which may fail after rebuilding some blocks).
    fn resync_io(&mut self) {
        let io = self.cluster.metrics_snapshot().io;
        self.expected.symbol_reads = io.symbol_reads + self.drained.symbol_reads;
        self.expected.symbol_writes = io.symbol_writes + self.drained.symbol_writes;
    }

    fn assert_liveness(&self) {
        let step = self.steps;
        for (group, nodes) in self.groups.iter().enumerate() {
            for (node, want) in nodes.iter().enumerate() {
                let got = self
                    .cluster
                    .is_node_alive(group, node)
                    .unwrap_or_else(|e| panic!("step {step}: liveness of ({group}, {node}): {e}"));
                assert_eq!(
                    got, want.alive,
                    "step {step}: liveness of node ({group}, {node}) diverged (cluster {got}, \
                     model {})",
                    want.alive
                );
            }
        }
    }

    fn check_metrics(&self) {
        let step = self.steps;
        let m = self.cluster.metrics_snapshot();
        let versions: usize = self.objects.iter().map(|o| o.versions.len()).sum();
        let admitted = self.objects.iter().filter(|o| !o.versions.is_empty()).count();
        let nodes: usize = self.groups.iter().map(Vec::len).sum();
        let live = self.groups.iter().flatten().filter(|n| n.alive).count();
        assert_eq!(m.versions, versions, "step {step}: metrics.versions diverged");
        let checkpoints: usize = (self.objects.iter())
            .map(|o| o.archive.checkpoints_written())
            .sum();
        assert_eq!(
            m.checkpoints_written, checkpoints as u64,
            "step {step}: metrics.checkpoints_written diverged"
        );
        assert_eq!(m.objects, admitted, "step {step}: metrics.objects diverged");
        assert_eq!(m.nodes, nodes, "step {step}: metrics.nodes diverged");
        assert_eq!(m.live_nodes, live, "step {step}: metrics.live_nodes diverged");
        let objects: usize = m.shards.iter().map(|shard| shard.objects).sum();
        assert_eq!(objects, admitted, "step {step}: per-shard objects diverged");
        let mut io = m.io;
        io.absorb(&self.drained);
        assert_eq!(
            io.retrievals, self.expected.retrievals,
            "step {step}: retrieval accounting lost or duplicated increments across resets"
        );
        assert_eq!(
            io.symbol_reads, self.expected.symbol_reads,
            "step {step}: symbol_reads diverged from the block reads reported and repaired"
        );
        assert_eq!(
            io.symbol_writes, self.expected.symbol_writes,
            "step {step}: symbol_writes diverged from n per entry written plus one per block repaired"
        );
        let node_reads: u64 = m.shards.iter().flat_map(|shard| &shard.node_reads).sum();
        assert_eq!(
            node_reads, io.symbol_reads,
            "step {step}: per-node reads diverged from symbol_reads"
        );
        if self.options.read_fault_percent == 0 {
            assert_eq!(
                io.failed_reads, 0,
                "step {step}: a block read failed without injected faults"
            );
        }
        if self.options.cache_capacity == 0 {
            assert_eq!(
                m.cache,
                CacheStats::default(),
                "step {step}: a disabled cache kept books"
            );
        }
        self.assert_liveness();
    }
}

/// The cluster id of object index `object`.
fn id(object: usize) -> ObjectId {
    ObjectId(object as u64)
}

/// The next version in a chain: the parent's bytes (or the fixed base
/// object when there is no parent) with each `(position, delta)` edit XORed
/// in; zero deltas are coerced to 1 so every edit changes its byte.
pub fn next_version(parent: Option<&[u8]>, object_len: usize, edits: &[(usize, u8)]) -> Vec<u8> {
    let mut bytes: Vec<u8> = match parent {
        Some(p) => p.to_vec(),
        None => (0..object_len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(7))
            .collect(),
    };
    if bytes.is_empty() {
        return bytes;
    }
    for &(position, delta) in edits {
        let position = position % bytes.len();
        let delta = if delta == 0 { 1 } else { delta };
        if let Some(byte) = bytes.get_mut(position) {
            *byte ^= delta;
        }
    }
    bytes
}

/// Random edit list for version generation: 0–3 single-byte XOR edits,
/// matching the paper's sparse-update model (small γ per version).
pub fn random_edits(rng: &mut SimRng, object_len: usize) -> Vec<(usize, u8)> {
    let count = rng.gen_range(4);
    (0..count)
        .map(|_| (rng.gen_range(object_len.max(1)), (rng.next_u64() % 255) as u8 + 1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_version_applies_xor_edits() {
        let base = next_version(None, 8, &[]);
        assert_eq!(base.len(), 8);
        let child = next_version(Some(&base), 8, &[(3, 0x0F), (3, 0x0F), (5, 1)]);
        // Double-XOR cancels; position 5 differs.
        assert_eq!(child[3], base[3]);
        assert_ne!(child[5], base[5]);
        assert_eq!(next_version(Some(&base), 8, &[]), base);
    }

    #[test]
    fn zero_deltas_still_edit() {
        let base = next_version(None, 4, &[]);
        let child = next_version(Some(&base), 4, &[(1, 0)]);
        assert_ne!(child, base);
    }
}
