//! The deterministic scheduler: explicit operation steps over a real
//! [`SecEngine`] / [`SecCluster`], checked against single-threaded oracles.
//!
//! Instead of racing OS threads, a simulation is a *schedule*: a sequence of
//! [`Op`]s (append, read, fail, revive, repair, metrics) applied one at a
//! time to the system under test. Concurrency is reintroduced exactly where
//! the production code exposes it — the buggify fault points — via
//! *interleaving windows*: a repair step can carry operations that the
//! installed [`SimHook`] runs inside `engine::repair::window` /
//! `cluster::repair::window`, i.e. between a repair's rebuild and its
//! liveness commit, where no locks are held. Every step is checked against
//! a model (the exact version bytes and liveness the system should hold)
//! and against the single-threaded oracle for read results and I/O
//! accounting: a `ByteVersionedArchive` holding the same versions, read
//! from the positions the model's liveness leaves readable.
//!
//! Schedules are pure functions of a seed; see `crate::explore` for the
//! random-walk and exhaustive drivers and `docs/DST.md` for the replay
//! workflow.

use std::cell::RefCell;
use std::rc::Rc;

use sec_engine::{ClusterError, ObjectId, PlacementStrategy, SecCluster, SecEngine};
use sec_erasure::GeneratorForm;
use sec_store::fault::{self, HookGuard};
use sec_store::{Placement, StoreError};
use sec_versioning::{
    ArchiveConfig, BytePrefixRetrieval, ByteVersionRetrieval, ByteVersionedArchive, CheckpointPolicy,
    EncodingStrategy,
};

use crate::clock::{EventQueue, VirtualClock};
use crate::hook::SimHook;
use crate::rng::SimRng;

/// One scheduled operation against the system under test.
#[derive(Debug, Clone)]
pub enum Op {
    /// Append the next version: the previous version (or a fixed base
    /// object for the first append) with each `(position, delta)` edit
    /// XORed in. Deltas of zero are coerced to 1 so every edit is real.
    Append {
        /// Byte edits defining the new version's delta from its parent.
        edits: Vec<(usize, u8)>,
    },
    /// Retrieve version `version` (1-based) and check it against the model
    /// and the oracle.
    Get {
        /// The version to read.
        version: usize,
    },
    /// Retrieve versions `1..=upto` and check them against the model.
    GetPrefix {
        /// The last version of the prefix.
        upto: usize,
    },
    /// Fail a node (by placement node id).
    Fail {
        /// The node to fail.
        node: usize,
    },
    /// Revive a node without repair (crash recovery).
    Revive {
        /// The node to revive.
        node: usize,
    },
    /// Fail a node now and schedule its revival `ticks` of virtual time
    /// later (delivered by the next `AdvanceClock` that reaches the due
    /// tick).
    FailFor {
        /// The node to fail.
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
    /// the repair's lock-free window (between rebuild and liveness commit).
    Repair {
        /// The node to repair.
        node: usize,
        /// Operations the hook runs inside the repair window, in order.
        window: Vec<WindowOp>,
    },
    /// Drain the I/O counters (`reset_metrics`) and fold them into the
    /// exactly-once accounting check.
    ResetMetrics,
    /// Drop every cached decoded version, forcing subsequent reads back to
    /// the nodes (a no-op with caching disabled).
    ResetCache,
    /// Assert the metrics snapshot agrees with the model (versions, node
    /// counts, liveness, exactly-once retrieval accounting).
    CheckMetrics,
}

/// An operation run *inside* a repair's interleaving window by the fault
/// hook. Restricted to operations that are safe at the window sites (no
/// locks are held there, so everything the engine offers is safe; the
/// restriction to this enum is what keeps window schedules replayable).
#[derive(Debug, Clone)]
pub enum WindowOp {
    /// Fail a node mid-repair.
    Fail(usize),
    /// Revive a node mid-repair.
    Revive(usize),
    /// Append a version mid-repair (edits as [`Op::Append`]).
    Append(Vec<(usize, u8)>),
    /// Read a version mid-repair (1-based; checked for byte equality).
    Get(usize),
}

/// What a window action actually did, recorded by the hook's closures and
/// replayed onto the model after the repair returns.
enum WindowRecord {
    Fail(usize),
    Revive(usize),
    Append(Vec<u8>),
    Get {
        version: usize,
        outcome: Result<Vec<u8>, StoreError>,
    },
}

/// Construction parameters for [`EngineSim`].
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Codeword length `n`.
    pub n: usize,
    /// Dimension `k`.
    pub k: usize,
    /// Encoding strategy of the archive under test.
    pub encoding: EncodingStrategy,
    /// Placement strategy of the engine under test.
    pub placement: PlacementStrategy,
    /// Byte length of every version.
    pub object_len: usize,
    /// Engine delta-cache capacity (0 disables; strict I/O accounting
    /// requires 0).
    pub cache_capacity: usize,
    /// Checkpoint spacing for the archive under test *and* the reference
    /// (0 disables). Strict-compatible: both sides share the layout, so
    /// I/O accounting stays bit-identical.
    pub checkpoint_spacing: usize,
    /// Probability (percent) that a node read spuriously fails
    /// (`store::node::read` buggify site).
    pub read_fault_percent: u32,
    /// Probability (percent) that a repair aborts between stage and commit
    /// (`engine::rebuild::abort` buggify site).
    pub rebuild_abort_percent: u32,
}

impl SimOptions {
    /// A strict (fault-free, cache-free) colocated BasicSec setup, the
    /// configuration under which engine behaviour must match the oracle
    /// bit-for-bit including I/O counts.
    pub fn strict(n: usize, k: usize, object_len: usize) -> Self {
        Self {
            n,
            k,
            encoding: EncodingStrategy::BasicSec,
            placement: PlacementStrategy::Colocated,
            object_len,
            cache_capacity: 0,
            checkpoint_spacing: 0,
            read_fault_percent: 0,
            rebuild_abort_percent: 0,
        }
    }

    fn is_strict(&self) -> bool {
        self.read_fault_percent == 0 && self.rebuild_abort_percent == 0 && self.cache_capacity == 0
    }
}

/// A clock-driven event (scheduled by [`Op::FailFor`]).
#[derive(Debug)]
enum DueEvent {
    Revive(usize),
}

/// Deterministic simulation of one [`SecEngine`] against its model.
///
/// The model is authoritative: exact version bytes, per-node liveness and
/// failure epochs, and expected metric counters. Divergence panics with a
/// message naming the step — under `crate::explore::random_walk` that
/// panic carries the replay seed.
pub struct EngineSim {
    engine: Rc<SecEngine>,
    hook: Rc<SimHook>,
    _hook_guard: HookGuard,
    options: SimOptions,
    /// Oracle archive holding the same versions as the engine.
    reference: ByteVersionedArchive,
    /// Model version bytes, index `l-1` = version `l`.
    versions: Vec<Vec<u8>>,
    /// Model liveness by placement node id.
    live: Vec<bool>,
    /// Model failure epochs by placement node id.
    epochs: Vec<u64>,
    clock: VirtualClock,
    due: EventQueue<DueEvent>,
    expected_retrievals: u64,
    drained_retrievals: u64,
    steps: u64,
}

impl std::fmt::Debug for EngineSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineSim")
            .field("options", &self.options)
            .field("versions", &self.versions.len())
            .field("steps", &self.steps)
            .finish_non_exhaustive()
    }
}

impl EngineSim {
    /// Builds the engine under test and installs the simulation's fault
    /// hook (seeded from `hook_rng`) on the current thread.
    ///
    /// # Panics
    ///
    /// Panics on an invalid code configuration — simulations are tests, and
    /// a bad setup should fail loudly at construction.
    pub fn new(options: SimOptions, hook_rng: SimRng) -> Self {
        let config = ArchiveConfig::new(
            options.n,
            options.k,
            GeneratorForm::NonSystematic,
            options.encoding,
        )
        .expect("sim: invalid archive config")
        .with_checkpoints(CheckpointPolicy::every(options.checkpoint_spacing));
        let engine = SecEngine::with_placement(config, options.placement, options.cache_capacity)
            .expect("sim: engine construction failed");
        let reference = ByteVersionedArchive::new(config).expect("sim: reference construction failed");
        let hook = Rc::new(SimHook::new(hook_rng));
        hook.set_probability("store::node::read", options.read_fault_percent);
        hook.set_probability("engine::rebuild::abort", options.rebuild_abort_percent);
        let guard = hook.install();
        let node_count = engine.node_count();
        Self {
            engine: Rc::new(engine),
            hook,
            _hook_guard: guard,
            options,
            reference,
            versions: Vec::new(),
            live: vec![true; node_count],
            epochs: vec![0; node_count],
            clock: VirtualClock::new(),
            due: EventQueue::new(),
            expected_retrievals: 0,
            drained_retrievals: 0,
            steps: 0,
        }
    }

    /// The fault hook, for tests that assert on site traces.
    pub fn hook(&self) -> &Rc<SimHook> {
        &self.hook
    }

    /// Number of versions appended so far.
    pub fn version_count(&self) -> usize {
        self.versions.len()
    }

    /// Number of nodes the placement currently addresses.
    pub fn node_count(&self) -> usize {
        self.live.len()
    }

    /// The model's liveness for `node` (out-of-range reads as dead).
    pub fn model_alive(&self, node: usize) -> bool {
        self.live.get(node).copied().unwrap_or(false)
    }

    /// Bytes of model version `l` (1-based), if appended.
    pub fn model_version(&self, l: usize) -> Option<&[u8]> {
        self.versions.get(l.wrapping_sub(1)).map(Vec::as_slice)
    }

    /// Draws a random next operation for walk-style exploration. Append
    /// count is capped so long schedules keep bounded cost.
    pub fn random_op(&self, rng: &mut SimRng) -> Op {
        if self.versions.is_empty() {
            return Op::Append {
                edits: random_edits(rng, self.options.object_len),
            };
        }
        let nodes = self.node_count();
        let versions = self.versions.len();
        match rng.gen_range(100) {
            0..=19 if versions < 24 => Op::Append {
                edits: random_edits(rng, self.options.object_len),
            },
            0..=39 => Op::Get {
                version: rng.gen_range(versions) + 1,
            },
            40..=51 => Op::GetPrefix {
                upto: rng.gen_range(versions) + 1,
            },
            52..=63 => Op::Fail {
                node: rng.gen_range(nodes),
            },
            64..=73 => Op::Revive {
                node: rng.gen_range(nodes),
            },
            74..=85 => {
                let node = rng.gen_range(nodes);
                let mut window = Vec::new();
                for _ in 0..rng.gen_range(3) {
                    window.push(self.random_window_op(rng));
                }
                Op::Repair { node, window }
            }
            86..=90 => Op::FailFor {
                node: rng.gen_range(nodes),
                ticks: 1 + rng.gen_range(5) as u64,
            },
            91..=95 => Op::AdvanceClock {
                ticks: 1 + rng.gen_range(5) as u64,
            },
            96 => Op::ResetMetrics,
            97 => Op::ResetCache,
            _ => Op::CheckMetrics,
        }
    }

    fn random_window_op(&self, rng: &mut SimRng) -> WindowOp {
        let nodes = self.node_count();
        match rng.gen_range(10) {
            0..=3 => WindowOp::Fail(rng.gen_range(nodes)),
            4..=5 => WindowOp::Revive(rng.gen_range(nodes)),
            6..=7 if self.versions.len() < 24 => {
                WindowOp::Append(random_edits(rng, self.options.object_len))
            }
            _ => WindowOp::Get(rng.gen_range(self.versions.len()) + 1),
        }
    }

    /// Applies one operation and checks every invariant it touches.
    ///
    /// # Panics
    ///
    /// Panics when the engine diverges from the model or the oracle — that
    /// panic *is* the simulation's failure signal.
    pub fn step(&mut self, op: &Op) {
        self.steps += 1;
        let step = self.steps;
        match op {
            Op::Append { edits } => self.do_append(edits),
            Op::Get { version } => self.do_get(*version),
            Op::GetPrefix { upto } => self.do_get_prefix(*upto),
            Op::Fail { node } => self.do_fail(*node),
            Op::Revive { node } => self.do_revive(*node),
            Op::FailFor { node, ticks } => {
                self.do_fail(*node);
                self.due
                    .schedule(self.clock.now().saturating_add(*ticks), DueEvent::Revive(*node));
            }
            Op::AdvanceClock { ticks } => {
                let now = self.clock.advance(*ticks);
                while let Some(DueEvent::Revive(node)) = self.due.pop_due(now) {
                    self.do_revive(node);
                }
            }
            Op::Repair { node, window } => self.do_repair(*node, window),
            Op::ResetMetrics => {
                let m = self.engine.reset_metrics();
                self.drained_retrievals += m.io.retrievals;
            }
            Op::ResetCache => self.engine.clear_cache(),
            Op::CheckMetrics => self.check_metrics(step),
        }
    }

    /// Runs a whole schedule, then a final metrics check.
    pub fn run(&mut self, schedule: &[Op]) {
        for op in schedule {
            self.step(op);
        }
        self.check_metrics(self.steps);
    }

    fn do_append(&mut self, edits: &[(usize, u8)]) {
        let bytes = next_version(
            self.versions.last().map(Vec::as_slice),
            self.options.object_len,
            edits,
        );
        self.engine
            .append_version(&bytes)
            .unwrap_or_else(|e| panic!("step {}: engine append failed: {e}", self.steps));
        self.apply_append_to_model(bytes);
        assert_eq!(
            self.engine.len(),
            self.versions.len(),
            "step {}: version count diverged",
            self.steps
        );
    }

    fn apply_append_to_model(&mut self, bytes: Vec<u8>) {
        fault::with_suspended(|| {
            self.reference
                .append_version(&bytes)
                .unwrap_or_else(|e| panic!("step {}: reference append failed: {e}", self.steps));
        });
        self.versions.push(bytes);
        // Dispersed placement grows the node space with each stored entry;
        // fresh nodes are live in epoch 0.
        let node_count = self.engine.node_count();
        while self.live.len() < node_count {
            self.live.push(true);
            self.epochs.push(0);
        }
    }

    /// The single-threaded oracle: the reference archive read only from the
    /// blocks the model's liveness leaves readable, each position mapped to
    /// its node through the engine's placement. The archive's read path has
    /// no fault points, so injected faults never perturb expected results.
    fn oracle(&self, version: usize) -> Result<ByteVersionRetrieval, StoreError> {
        Ok(self
            .reference
            .retrieve_version_from(version, self.oracle_live())?)
    }

    /// The prefix oracle: versions `1..=upto` read as [`Self::oracle`] reads
    /// one.
    fn prefix_oracle(&self, upto: usize) -> Result<BytePrefixRetrieval, StoreError> {
        Ok(self.reference.retrieve_prefix_from(upto, self.oracle_live())?)
    }

    /// Whether the model leaves block `position` of stored entry `entry`
    /// readable, through the engine's placement.
    fn oracle_live(&self) -> impl Fn(usize, usize) -> bool + '_ {
        let entries = self.reference.layout().len();
        let placement = Placement::new(self.options.placement, self.options.n, entries);
        move |entry, position| {
            placement
                .try_node_for(entry, position)
                .is_ok_and(|node| self.model_alive(node))
        }
    }

    fn do_get(&mut self, version: usize) {
        self.expected_retrievals += 1;
        let engine_result = self.engine.get_version(version);
        let oracle_result = self.oracle(version);
        let step = self.steps;
        self.check_read(
            &format!("get_version({version})"),
            engine_result
                .as_ref()
                .map(|got| (got.data.as_slice(), got.io_reads, got.cached)),
            oracle_result
                .as_ref()
                .map(|want| (want.data.as_slice(), want.io_reads)),
        );
        if let Ok(got) = engine_result {
            assert_eq!(
                Some(got.data.as_slice()),
                self.model_version(version),
                "step {step}: get_version({version}) bytes diverged from model"
            );
        }
    }

    fn do_get_prefix(&mut self, upto: usize) {
        self.expected_retrievals += 1;
        let engine_result = self.engine.get_prefix(upto);
        let oracle_result = self.prefix_oracle(upto);
        let step = self.steps;
        // Recoverability judged apart from the prefix walk's planning: a
        // prefix is served exactly when every version in it is.
        assert_eq!(
            oracle_result.is_ok(),
            (1..=upto).all(|version| self.oracle(version).is_ok()),
            "step {step}: get_prefix({upto}) oracle disagrees with the version oracles"
        );
        self.check_read(
            &format!("get_prefix({upto})"),
            engine_result
                .as_ref()
                .map(|got| (got.versions.as_slice(), got.io_reads, got.cached)),
            oracle_result
                .as_ref()
                .map(|want| (want.versions.as_slice(), want.io_reads)),
        );
        if let Ok(prefix) = engine_result {
            assert_eq!(
                prefix.versions.len(),
                upto,
                "step {step}: get_prefix({upto}) length"
            );
            for (idx, got) in prefix.versions.iter().enumerate() {
                assert_eq!(
                    Some(got.as_slice()),
                    self.model_version(idx + 1),
                    "step {step}: get_prefix({upto}) bytes diverged from model at version {}",
                    idx + 1
                );
            }
        }
    }

    /// Checks one read, `what`, against the oracle: the engine's answer is
    /// `(bytes, block reads, cached)`, the oracle's `(bytes, block reads)`.
    fn check_read<T: PartialEq + std::fmt::Debug>(
        &self,
        what: &str,
        engine: Result<(T, usize, bool), &StoreError>,
        oracle: Result<(T, usize), &StoreError>,
    ) {
        let step = self.steps;
        match (engine, oracle) {
            (Ok((got, got_reads, cached)), Ok((want, want_reads))) => {
                assert_eq!(got, want, "step {step}: {what} bytes diverged from oracle");
                if self.options.is_strict() {
                    assert_eq!(
                        got_reads, want_reads,
                        "step {step}: {what} I/O accounting diverged from oracle"
                    );
                    assert!(!cached, "step {step}: {what} cache hit with caching disabled");
                }
            }
            (Err(engine_err), Err(oracle_err)) => {
                if self.options.cache_capacity == 0 {
                    assert_eq!(
                        engine_err, oracle_err,
                        "step {step}: {what} failed on both sides with different errors"
                    );
                } else {
                    // A walk anchored on a cached version can fail at a
                    // different entry than the oracle's from-scratch walk;
                    // the error kind must agree.
                    assert_eq!(
                        std::mem::discriminant(engine_err),
                        std::mem::discriminant(oracle_err),
                        "step {step}: {what} failed on both sides with different error kinds \
                         ({engine_err} vs {oracle_err})"
                    );
                }
            }
            (Ok((_, _, cached)), Err(oracle_err)) => {
                // A cached anchor legitimately serves a read the cache-free
                // oracle cannot reach past the current failures; anything
                // else is divergence.
                assert!(
                    cached,
                    "step {step}: engine served {what} uncached but the oracle fails with {oracle_err}"
                );
            }
            (Err(engine_err), Ok(_)) => {
                // With read faults armed the engine may fail a read the
                // fault-free oracle serves; without them this is divergence.
                assert!(
                    !self.options.is_strict(),
                    "step {step}: oracle serves {what} but the engine fails with {engine_err}"
                );
                assert!(
                    matches!(engine_err, StoreError::Unrecoverable { .. }),
                    "step {step}: injected read faults must surface as Unrecoverable, got {engine_err}"
                );
            }
        }
    }

    fn do_fail(&mut self, node: usize) {
        self.engine
            .fail_node(node)
            .unwrap_or_else(|e| panic!("step {}: fail_node({node}): {e}", self.steps));
        self.model_fail(node);
    }

    fn model_fail(&mut self, node: usize) {
        if let (Some(live), Some(epoch)) = (self.live.get_mut(node), self.epochs.get_mut(node)) {
            *live = false;
            *epoch += 1;
        }
    }

    fn do_revive(&mut self, node: usize) {
        self.engine
            .revive_node(node)
            .unwrap_or_else(|e| panic!("step {}: revive_node({node}): {e}", self.steps));
        if let Some(live) = self.live.get_mut(node) {
            *live = true;
        }
    }

    /// Whether the model says rebuilding `node` is impossible right now:
    /// its slab has fewer than `k` *other* live nodes (and at least one
    /// stored entry to rebuild).
    fn model_repair_blocked(&self, node: usize) -> bool {
        if self.versions.is_empty() {
            return false;
        }
        let n = self.options.n;
        let slab_base = match self.options.placement {
            PlacementStrategy::Colocated => 0,
            PlacementStrategy::Dispersed => (node / n) * n,
        };
        let live_others = (slab_base..slab_base + n)
            .filter(|&p| p != node && self.live.get(p).copied().unwrap_or(false))
            .count();
        live_others < self.options.k
    }

    fn do_repair(&mut self, node: usize, window: &[WindowOp]) {
        let step = self.steps;
        let snapshot_epoch = self.epochs.get(node).copied().unwrap_or(0);
        let records: Rc<RefCell<Vec<WindowRecord>>> = Rc::new(RefCell::new(Vec::new()));
        // Precompute window-append bytes: actions execute as a queue prefix,
        // so append j sees exactly the versions of appends 0..j.
        let mut chain = self.versions.last().cloned();
        for op in window {
            match op {
                WindowOp::Fail(target) => {
                    let engine = self.engine.clone();
                    let records = records.clone();
                    let target = *target;
                    self.hook.queue_window_action(move || {
                        let _ = engine.fail_node(target);
                        records.borrow_mut().push(WindowRecord::Fail(target));
                    });
                }
                WindowOp::Revive(target) => {
                    let engine = self.engine.clone();
                    let records = records.clone();
                    let target = *target;
                    self.hook.queue_window_action(move || {
                        let _ = engine.revive_node(target);
                        records.borrow_mut().push(WindowRecord::Revive(target));
                    });
                }
                WindowOp::Append(edits) => {
                    let bytes = next_version(chain.as_deref(), self.options.object_len, edits);
                    chain = Some(bytes.clone());
                    let engine = self.engine.clone();
                    let records = records.clone();
                    self.hook.queue_window_action(move || {
                        engine
                            .append_version(&bytes)
                            .unwrap_or_else(|e| panic!("window append failed: {e}"));
                        records.borrow_mut().push(WindowRecord::Append(bytes));
                    });
                }
                WindowOp::Get(version) => {
                    let engine = self.engine.clone();
                    let records = records.clone();
                    let version = *version;
                    self.hook.queue_window_action(move || {
                        let outcome = engine.get_version(version).map(|r| (*r.data).clone());
                        records.borrow_mut().push(WindowRecord::Get { version, outcome });
                    });
                }
            }
        }
        self.hook.arm_window("engine::repair::window");
        let result = self.engine.repair_node(node);
        // Actions whose window never fired simply did not happen.
        drop(self.hook.disarm_window());

        // Linearize the executed window actions into the model (they all
        // happened before the repair's liveness commit).
        let mut window_touched_liveness = false;
        for record in records.take() {
            match record {
                WindowRecord::Fail(target) => {
                    window_touched_liveness = true;
                    self.model_fail(target);
                }
                WindowRecord::Revive(target) => {
                    window_touched_liveness = true;
                    if let Some(live) = self.live.get_mut(target) {
                        *live = true;
                    }
                }
                WindowRecord::Append(bytes) => self.apply_append_to_model(bytes),
                WindowRecord::Get { version, outcome } => {
                    self.expected_retrievals += 1;
                    if let Ok(bytes) = outcome {
                        assert_eq!(
                            Some(bytes.as_slice()),
                            self.model_version(version),
                            "step {step}: window get({version}) bytes diverged from model"
                        );
                    }
                }
            }
        }

        let raced = self.epochs.get(node).copied().unwrap_or(0) != snapshot_epoch;
        match result {
            Ok(_) => {
                // The satellite-1 regression: a repair must never revive a
                // node whose newest failure its rebuild did not see.
                assert!(
                    !raced,
                    "step {step}: LOST FAILURE — repair_node({node}) revived a node that failed \
                     mid-repair (epoch {snapshot_epoch} → {})",
                    self.epochs.get(node).copied().unwrap_or(0)
                );
                if let Some(live) = self.live.get_mut(node) {
                    *live = true;
                }
            }
            Err(StoreError::RepairRaced { node: raced_node }) => {
                assert_eq!(raced_node, node, "step {step}: RepairRaced names the wrong node");
                assert!(
                    raced,
                    "step {step}: repair_node({node}) reported RepairRaced but the model saw no \
                     mid-repair failure"
                );
                // The node keeps whatever liveness the window left it.
            }
            Err(StoreError::Unrecoverable { .. }) => {
                // Legitimate when too few live sources remain. In a strict
                // run whose window never revived nodes, liveness only
                // shrank, so the model must agree the rebuild is blocked.
                if self.options.is_strict() && !window_touched_liveness {
                    assert!(
                        self.model_repair_blocked(node),
                        "step {step}: repair_node({node}) says unrecoverable but the model has \
                         ≥ k live sources"
                    );
                }
            }
            Err(e) => panic!("step {step}: repair_node({node}) failed unexpectedly: {e}"),
        }
        // Either way the engine's visible liveness must match the model.
        self.assert_liveness(step);
    }

    fn assert_liveness(&self, step: u64) {
        for (node, want) in self.live.iter().enumerate() {
            let got = self
                .engine
                .is_node_alive(node)
                .unwrap_or_else(|e| panic!("step {step}: is_node_alive({node}): {e}"));
            assert_eq!(
                got, *want,
                "step {step}: liveness of node {node} diverged (engine {got}, model {want})"
            );
        }
    }

    fn check_metrics(&self, step: u64) {
        let m = self.engine.metrics_snapshot();
        assert_eq!(
            m.versions,
            self.versions.len(),
            "step {step}: metrics.versions diverged"
        );
        assert_eq!(m.nodes, self.live.len(), "step {step}: metrics.nodes diverged");
        let live = self.live.iter().filter(|&&l| l).count();
        assert_eq!(m.live_nodes, live, "step {step}: metrics.live_nodes diverged");
        assert_eq!(
            m.io.retrievals + self.drained_retrievals,
            self.expected_retrievals,
            "step {step}: retrieval accounting lost or duplicated increments across resets"
        );
        self.assert_liveness(step);
    }
}

/// Construction parameters for [`ClusterSim`].
#[derive(Debug, Clone)]
pub struct ClusterSimOptions {
    /// Codeword length `n`.
    pub n: usize,
    /// Dimension `k`.
    pub k: usize,
    /// Encoding strategy for every object.
    pub encoding: EncodingStrategy,
    /// Shard count.
    pub shards: usize,
    /// Number of distinct objects the schedule may touch.
    pub objects: usize,
    /// Byte length of every version of every object.
    pub object_len: usize,
    /// Per-engine delta-cache capacity (0 disables; strict I/O accounting
    /// requires 0).
    pub cache_capacity: usize,
    /// Checkpoint spacing shared by every object's archive and reference
    /// (0 disables). Strict-compatible, as for [`SimOptions`].
    pub checkpoint_spacing: usize,
    /// Probability (percent) of spurious node-read failures.
    pub read_fault_percent: u32,
}

impl ClusterSimOptions {
    /// A strict (fault-free, cache-free) colocated cluster setup.
    pub fn strict(n: usize, k: usize, shards: usize, objects: usize, object_len: usize) -> Self {
        Self {
            n,
            k,
            encoding: EncodingStrategy::BasicSec,
            shards,
            objects,
            object_len,
            cache_capacity: 0,
            checkpoint_spacing: 0,
            read_fault_percent: 0,
        }
    }

    fn is_strict(&self) -> bool {
        self.read_fault_percent == 0 && self.cache_capacity == 0
    }
}

/// One scheduled operation against a [`SecCluster`] (colocated placement:
/// shard-shared liveness, the geometry the cluster chaos suite exercises).
#[derive(Debug, Clone)]
pub enum ClusterOp {
    /// Append the next version of object `object` (index into the sim's
    /// object table).
    Append {
        /// Object index.
        object: usize,
        /// Byte edits as [`Op::Append`].
        edits: Vec<(usize, u8)>,
    },
    /// Retrieve and check one version of an object.
    Get {
        /// Object index.
        object: usize,
        /// 1-based version.
        version: usize,
    },
    /// Fail a node of a shard's shared group.
    Fail {
        /// Shard index.
        shard: usize,
        /// Node position within the shard's group.
        node: usize,
    },
    /// Revive a node of a shard's shared group.
    Revive {
        /// Shard index.
        shard: usize,
        /// Node position within the shard's group.
        node: usize,
    },
    /// Repair a node, optionally interleaving window operations inside the
    /// cluster repair's lock-free windows (between per-object rebuilds).
    Repair {
        /// Shard index.
        shard: usize,
        /// Node position within the shard's group.
        node: usize,
        /// Operations run inside `cluster::repair::window`, in order, one
        /// per rebuilt object.
        window: Vec<ClusterWindowOp>,
    },
    /// Drain cluster I/O counters into the exactly-once accounting.
    ResetMetrics,
    /// Drop an object's cached decoded versions (a no-op with caching
    /// disabled).
    ResetCache {
        /// Object index.
        object: usize,
    },
    /// Assert the cluster metrics snapshot against the model.
    CheckMetrics,
}

/// An operation run inside a cluster repair's interleaving window.
#[derive(Debug, Clone)]
pub enum ClusterWindowOp {
    /// Fail a node of a shard mid-repair.
    Fail(usize, usize),
    /// Revive a node of a shard mid-repair.
    Revive(usize, usize),
    /// Append to an object mid-repair.
    Append(usize, Vec<(usize, u8)>),
    /// Read version of an object mid-repair.
    Get(usize, usize),
}

enum ClusterWindowRecord {
    Fail(usize, usize),
    Revive(usize, usize),
    Append(usize, Vec<u8>),
    Get {
        object: usize,
        version: usize,
        outcome: Result<Vec<u8>, ClusterError>,
    },
}

struct ObjectModel {
    id: ObjectId,
    shard: usize,
    reference: ByteVersionedArchive,
    versions: Vec<Vec<u8>>,
}

/// Deterministic simulation of one colocated [`SecCluster`] against its
/// model, mirroring [`EngineSim`] across shards and objects.
pub struct ClusterSim {
    cluster: Rc<SecCluster>,
    hook: Rc<SimHook>,
    _hook_guard: HookGuard,
    options: ClusterSimOptions,
    objects: Vec<ObjectModel>,
    /// Model liveness per shard group.
    live: Vec<Vec<bool>>,
    /// Model failure epochs per shard group.
    epochs: Vec<Vec<u64>>,
    expected_retrievals: u64,
    drained_retrievals: u64,
    steps: u64,
}

impl std::fmt::Debug for ClusterSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterSim")
            .field("options", &self.options)
            .field("steps", &self.steps)
            .finish_non_exhaustive()
    }
}

impl ClusterSim {
    /// Builds the cluster under test and installs the simulation's fault
    /// hook on the current thread.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration (bad code parameters or zero
    /// shards) — simulations are tests and must fail loudly at setup.
    pub fn new(options: ClusterSimOptions, hook_rng: SimRng) -> Self {
        let config = ArchiveConfig::new(
            options.n,
            options.k,
            GeneratorForm::NonSystematic,
            options.encoding,
        )
        .expect("sim: invalid archive config")
        .with_checkpoints(CheckpointPolicy::every(options.checkpoint_spacing));
        let cluster = SecCluster::with_cache(config, options.shards, options.cache_capacity)
            .expect("sim: cluster construction failed");
        let hook = Rc::new(SimHook::new(hook_rng));
        hook.set_probability("store::node::read", options.read_fault_percent);
        let guard = hook.install();
        let objects = (0..options.objects)
            .map(|i| {
                let id = ObjectId(i as u64);
                ObjectModel {
                    id,
                    shard: cluster.shard_of(id),
                    reference: ByteVersionedArchive::new(config)
                        .expect("sim: reference construction failed"),
                    versions: Vec::new(),
                }
            })
            .collect();
        Self {
            cluster: Rc::new(cluster),
            hook,
            _hook_guard: guard,
            live: vec![vec![true; options.n]; options.shards],
            epochs: vec![vec![0; options.n]; options.shards],
            options,
            objects,
            expected_retrievals: 0,
            drained_retrievals: 0,
            steps: 0,
        }
    }

    /// The fault hook, for tests that assert on site traces.
    pub fn hook(&self) -> &Rc<SimHook> {
        &self.hook
    }

    /// Versions appended so far to object `object`.
    pub fn object_versions(&self, object: usize) -> usize {
        self.objects.get(object).map_or(0, |o| o.versions.len())
    }

    /// The shard object `object` routes to.
    pub fn object_shard(&self, object: usize) -> usize {
        self.objects.get(object).map_or(0, |o| o.shard)
    }

    /// Model liveness of `node` on `shard`.
    pub fn model_alive(&self, shard: usize, node: usize) -> bool {
        self.live
            .get(shard)
            .and_then(|group| group.get(node))
            .copied()
            .unwrap_or(false)
    }

    /// Draws a random next operation for walk-style exploration.
    pub fn random_op(&self, rng: &mut SimRng) -> ClusterOp {
        let object = rng.gen_range(self.objects.len());
        let versions = self.object_versions(object);
        if versions == 0 {
            return ClusterOp::Append {
                object,
                edits: random_edits(rng, self.options.object_len),
            };
        }
        let shard = rng.gen_range(self.options.shards);
        let node = rng.gen_range(self.options.n);
        match rng.gen_range(100) {
            0..=19 if versions < 16 => ClusterOp::Append {
                object,
                edits: random_edits(rng, self.options.object_len),
            },
            0..=44 => ClusterOp::Get {
                object,
                version: rng.gen_range(versions) + 1,
            },
            45..=58 => ClusterOp::Fail { shard, node },
            59..=70 => ClusterOp::Revive { shard, node },
            71..=89 => {
                let mut window = Vec::new();
                for _ in 0..rng.gen_range(3) {
                    window.push(self.random_window_op(rng));
                }
                ClusterOp::Repair { shard, node, window }
            }
            90..=92 => ClusterOp::ResetMetrics,
            93..=94 => ClusterOp::ResetCache { object },
            _ => ClusterOp::CheckMetrics,
        }
    }

    fn random_window_op(&self, rng: &mut SimRng) -> ClusterWindowOp {
        let shard = rng.gen_range(self.options.shards);
        let node = rng.gen_range(self.options.n);
        let object = rng.gen_range(self.objects.len());
        let versions = self.object_versions(object);
        match rng.gen_range(10) {
            0..=3 => ClusterWindowOp::Fail(shard, node),
            4..=5 => ClusterWindowOp::Revive(shard, node),
            6..=7 if versions > 0 && versions < 16 => {
                ClusterWindowOp::Append(object, random_edits(rng, self.options.object_len))
            }
            _ if versions > 0 => ClusterWindowOp::Get(object, rng.gen_range(versions) + 1),
            _ => ClusterWindowOp::Fail(shard, node),
        }
    }

    /// Applies one operation and checks every invariant it touches.
    ///
    /// # Panics
    ///
    /// Panics when the cluster diverges from the model or the oracle.
    pub fn step(&mut self, op: &ClusterOp) {
        self.steps += 1;
        match op {
            ClusterOp::Append { object, edits } => self.do_append(*object, edits),
            ClusterOp::Get { object, version } => self.do_get(*object, *version),
            ClusterOp::Fail { shard, node } => self.do_fail(*shard, *node),
            ClusterOp::Revive { shard, node } => self.do_revive(*shard, *node),
            ClusterOp::Repair { shard, node, window } => self.do_repair(*shard, *node, window),
            ClusterOp::ResetMetrics => {
                let m = self.cluster.reset_metrics();
                self.drained_retrievals += m.io.retrievals;
            }
            ClusterOp::ResetCache { object } => self.do_reset_cache(*object),
            ClusterOp::CheckMetrics => self.check_metrics(),
        }
    }

    /// Runs a whole schedule, then a final metrics check.
    pub fn run(&mut self, schedule: &[ClusterOp]) {
        for op in schedule {
            self.step(op);
        }
        self.check_metrics();
    }

    fn do_append(&mut self, object: usize, edits: &[(usize, u8)]) {
        let step = self.steps;
        let Some(model) = self.objects.get(object) else {
            panic!("step {step}: append to unknown object index {object}");
        };
        let bytes = next_version(
            model.versions.last().map(Vec::as_slice),
            self.options.object_len,
            edits,
        );
        self.cluster
            .append_version(model.id, &bytes)
            .unwrap_or_else(|e| panic!("step {step}: cluster append to object {object} failed: {e}"));
        self.apply_append_to_model(object, bytes);
    }

    fn apply_append_to_model(&mut self, object: usize, bytes: Vec<u8>) {
        let step = self.steps;
        if let Some(model) = self.objects.get_mut(object) {
            fault::with_suspended(|| {
                model
                    .reference
                    .append_version(&bytes)
                    .unwrap_or_else(|e| panic!("step {step}: reference append failed: {e}"));
            });
            model.versions.push(bytes);
        }
    }

    fn do_get(&mut self, object: usize, version: usize) {
        let step = self.steps;
        self.expected_retrievals += 1;
        let Some(model) = self.objects.get(object) else {
            panic!("step {step}: get on unknown object index {object}");
        };
        let engine_result = self.cluster.get_version(model.id, version);
        // Colocated: position `p` of every entry lives on the shard's node `p`.
        let oracle_result = model
            .reference
            .retrieve_version_from(version, |_, position| self.model_alive(model.shard, position))
            .map_err(StoreError::from);
        match (&engine_result, &oracle_result) {
            (Ok(got), Ok(want)) => {
                assert_eq!(
                    *got.data, want.data,
                    "step {step}: object {object} get({version}) bytes diverged from oracle"
                );
                if self.options.is_strict() {
                    assert_eq!(
                        got.io_reads, want.io_reads,
                        "step {step}: object {object} get({version}) I/O accounting diverged"
                    );
                    assert!(
                        !got.cached,
                        "step {step}: object {object} get({version}) cache hit with caching disabled"
                    );
                }
            }
            (Err(ClusterError::Engine(engine_err)), Err(oracle_err)) => {
                if self.options.cache_capacity == 0 {
                    assert_eq!(
                        engine_err, oracle_err,
                        "step {step}: object {object} get({version}) errors diverged"
                    );
                } else {
                    // As for [`EngineSim::do_get`]: a cached base shifts the
                    // entry a failing walk reports; the kind must agree.
                    assert_eq!(
                        std::mem::discriminant(engine_err),
                        std::mem::discriminant(oracle_err),
                        "step {step}: object {object} get({version}) error kinds diverged \
                         ({engine_err} vs {oracle_err})"
                    );
                }
            }
            (Ok(got), Err(oracle_err)) => {
                // As in [`EngineSim::do_get`]: a cache hit legitimately
                // serves a version the cache-free oracle cannot reach past
                // the current failures; anything else is divergence.
                assert!(
                    got.cached,
                    "step {step}: cluster served object {object} get({version}) uncached but the \
                     oracle fails with {oracle_err}"
                );
                assert_eq!(
                    Some(got.data.as_slice()),
                    model.versions.get(version.wrapping_sub(1)).map(Vec::as_slice),
                    "step {step}: cached object {object} get({version}) bytes diverged from model"
                );
            }
            (Err(engine_err), Ok(_)) => {
                assert!(
                    !self.options.is_strict(),
                    "step {step}: oracle serves object {object} get({version}) but the cluster \
                     fails with {engine_err}"
                );
            }
            (Err(engine_err), Err(_)) => {
                panic!("step {step}: object {object} get({version}) failed with non-engine error {engine_err}")
            }
        }
    }

    fn do_reset_cache(&mut self, object: usize) {
        let step = self.steps;
        let Some(model) = self.objects.get(object) else {
            panic!("step {step}: reset cache on unknown object index {object}");
        };
        match self.cluster.clear_cache(model.id) {
            Ok(()) => assert!(
                !model.versions.is_empty(),
                "step {step}: clear_cache(object {object}) succeeded before any append"
            ),
            Err(ClusterError::UnknownObject { .. }) => assert!(
                model.versions.is_empty(),
                "step {step}: clear_cache(object {object}) lost a known object"
            ),
            Err(e) => panic!("step {step}: clear_cache(object {object}) failed unexpectedly: {e}"),
        }
    }

    fn do_fail(&mut self, shard: usize, node: usize) {
        self.cluster
            .fail_node(shard, node)
            .unwrap_or_else(|e| panic!("step {}: fail_node({shard}, {node}): {e}", self.steps));
        self.model_fail(shard, node);
    }

    fn model_fail(&mut self, shard: usize, node: usize) {
        if let Some(group) = self.live.get_mut(shard) {
            if let Some(live) = group.get_mut(node) {
                *live = false;
            }
        }
        if let Some(group) = self.epochs.get_mut(shard) {
            if let Some(epoch) = group.get_mut(node) {
                *epoch += 1;
            }
        }
    }

    fn do_revive(&mut self, shard: usize, node: usize) {
        self.cluster
            .revive_node(shard, node)
            .unwrap_or_else(|e| panic!("step {}: revive_node({shard}, {node}): {e}", self.steps));
        self.model_revive(shard, node);
    }

    fn model_revive(&mut self, shard: usize, node: usize) {
        if let Some(group) = self.live.get_mut(shard) {
            if let Some(live) = group.get_mut(node) {
                *live = true;
            }
        }
    }

    fn do_repair(&mut self, shard: usize, node: usize, window: &[ClusterWindowOp]) {
        let step = self.steps;
        let snapshot_epoch = self.shard_epoch(shard, node);
        let records: Rc<RefCell<Vec<ClusterWindowRecord>>> = Rc::new(RefCell::new(Vec::new()));
        let mut chains: Vec<Option<Vec<u8>>> =
            self.objects.iter().map(|o| o.versions.last().cloned()).collect();
        for op in window {
            match op {
                ClusterWindowOp::Fail(s, nd) => {
                    let cluster = self.cluster.clone();
                    let records = records.clone();
                    let (s, nd) = (*s, *nd);
                    self.hook.queue_window_action(move || {
                        let _ = cluster.fail_node(s, nd);
                        records.borrow_mut().push(ClusterWindowRecord::Fail(s, nd));
                    });
                }
                ClusterWindowOp::Revive(s, nd) => {
                    let cluster = self.cluster.clone();
                    let records = records.clone();
                    let (s, nd) = (*s, *nd);
                    self.hook.queue_window_action(move || {
                        let _ = cluster.revive_node(s, nd);
                        records.borrow_mut().push(ClusterWindowRecord::Revive(s, nd));
                    });
                }
                ClusterWindowOp::Append(object, edits) => {
                    let object = *object;
                    let Some(id) = self.objects.get(object).map(|o| o.id) else {
                        continue;
                    };
                    let Some(chain) = chains.get_mut(object) else {
                        continue;
                    };
                    let bytes = next_version(chain.as_deref(), self.options.object_len, edits);
                    *chain = Some(bytes.clone());
                    let cluster = self.cluster.clone();
                    let records = records.clone();
                    self.hook.queue_window_action(move || {
                        cluster
                            .append_version(id, &bytes)
                            .unwrap_or_else(|e| panic!("window append failed: {e}"));
                        records
                            .borrow_mut()
                            .push(ClusterWindowRecord::Append(object, bytes));
                    });
                }
                ClusterWindowOp::Get(object, version) => {
                    let object = *object;
                    let version = *version;
                    let Some(id) = self.objects.get(object).map(|o| o.id) else {
                        continue;
                    };
                    let cluster = self.cluster.clone();
                    let records = records.clone();
                    self.hook.queue_window_action(move || {
                        let outcome = cluster.get_version(id, version).map(|r| (*r.data).clone());
                        records.borrow_mut().push(ClusterWindowRecord::Get {
                            object,
                            version,
                            outcome,
                        });
                    });
                }
            }
        }
        self.hook.arm_window("cluster::repair::window");
        let result = self.cluster.repair_node(shard, node);
        drop(self.hook.disarm_window());

        let mut window_touched_liveness = false;
        for record in records.take() {
            match record {
                ClusterWindowRecord::Fail(s, nd) => {
                    window_touched_liveness = true;
                    self.model_fail(s, nd);
                }
                ClusterWindowRecord::Revive(s, nd) => {
                    window_touched_liveness = true;
                    self.model_revive(s, nd);
                }
                ClusterWindowRecord::Append(object, bytes) => self.apply_append_to_model(object, bytes),
                ClusterWindowRecord::Get {
                    object,
                    version,
                    outcome,
                } => {
                    self.expected_retrievals += 1;
                    if let Ok(bytes) = outcome {
                        let model = self
                            .objects
                            .get(object)
                            .and_then(|o| o.versions.get(version.wrapping_sub(1)));
                        assert_eq!(
                            Some(bytes.as_slice()),
                            model.map(Vec::as_slice),
                            "step {step}: window get(object {object}, {version}) diverged from model"
                        );
                    }
                }
            }
        }

        let raced = self.shard_epoch(shard, node) != snapshot_epoch;
        match result {
            Ok(_) => {
                assert!(
                    !raced,
                    "step {step}: LOST FAILURE — repair_node({shard}, {node}) revived a node that \
                     failed mid-repair"
                );
                self.model_revive(shard, node);
            }
            Err(ClusterError::Engine(StoreError::RepairRaced { node: raced_node })) => {
                assert_eq!(raced_node, node, "step {step}: RepairRaced names the wrong node");
                assert!(
                    raced,
                    "step {step}: repair_node({shard}, {node}) reported RepairRaced but the model \
                     saw no mid-repair failure"
                );
            }
            Err(ClusterError::Engine(StoreError::Unrecoverable { .. })) => {
                if self.options.is_strict() && !window_touched_liveness {
                    let live_others = self
                        .live
                        .get(shard)
                        .map(|group| group.iter().enumerate().filter(|&(p, &l)| p != node && l).count())
                        .unwrap_or(0);
                    assert!(
                        live_others < self.options.k,
                        "step {step}: repair_node({shard}, {node}) says unrecoverable but the \
                         model has ≥ k live sources"
                    );
                }
            }
            Err(e) => panic!("step {step}: repair_node({shard}, {node}) failed unexpectedly: {e}"),
        }
        self.assert_liveness(step);
    }

    fn shard_epoch(&self, shard: usize, node: usize) -> u64 {
        self.epochs
            .get(shard)
            .and_then(|group| group.get(node))
            .copied()
            .unwrap_or(0)
    }

    fn assert_liveness(&self, step: u64) {
        for (shard, group) in self.live.iter().enumerate() {
            for (node, want) in group.iter().enumerate() {
                let got = self
                    .cluster
                    .is_node_alive(shard, node)
                    .unwrap_or_else(|e| panic!("step {step}: is_node_alive({shard}, {node}): {e}"));
                assert_eq!(
                    got, *want,
                    "step {step}: liveness of shard {shard} node {node} diverged"
                );
            }
        }
    }

    fn check_metrics(&self) {
        let step = self.steps;
        let m = self.cluster.metrics_snapshot();
        let versions: usize = self.objects.iter().map(|o| o.versions.len()).sum();
        let admitted = self.objects.iter().filter(|o| !o.versions.is_empty()).count();
        assert_eq!(
            m.versions, versions,
            "step {step}: cluster metrics.versions diverged"
        );
        assert_eq!(
            m.objects, admitted,
            "step {step}: cluster metrics.objects diverged"
        );
        assert_eq!(
            m.nodes,
            self.options.shards * self.options.n,
            "step {step}: cluster metrics.nodes diverged"
        );
        let live: usize = self.live.iter().map(|g| g.iter().filter(|&&l| l).count()).sum();
        assert_eq!(
            m.live_nodes, live,
            "step {step}: cluster metrics.live_nodes diverged"
        );
        assert_eq!(
            m.io.retrievals + self.drained_retrievals,
            self.expected_retrievals,
            "step {step}: cluster retrieval accounting lost or duplicated increments across resets"
        );
        self.assert_liveness(step);
    }
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
