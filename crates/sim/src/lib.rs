//! # sec-sim — deterministic simulation harness for the SEC stack
//!
//! Chaos found the bugs; this crate makes them replayable. Instead of
//! racing OS threads and hoping the scheduler cooperates, a simulation is
//! a *schedule*: a seed-derived sequence of explicit operations (append,
//! read, fail, revive, repair, metrics) applied one at a time to a real
//! [`sec_engine::SecCluster`] — the facade `sec-netserver` serves — under
//! either placement, with concurrency reintroduced exactly where the
//! production code exposes it: the `sec_store::fault` buggify sites
//! compiled in behind the `sim-faults` feature.
//!
//! The pieces:
//!
//! * [`rng::SimRng`] — a tiny seeded SplitMix64 generator; every schedule
//!   is a pure function of one `u64` seed.
//! * [`seed`] — seed resolution and the `SEC_SIM_SEED` replay contract.
//! * [`clock`] — virtual time (a counter, never the wall clock).
//! * [`hook::SimHook`] — the installed fault hook: seeded buggify
//!   decisions, site tracing, and queued window actions that interleave
//!   operations inside lock-free repair windows.
//! * [`harness`] — [`Sim`], the scheduler that applies operations to a
//!   cluster of `shards × objects` and checks every step against a model
//!   and the walk-free reference. Nodes are addressed as
//!   `(group, node)`: the group is a shard under colocated placement and
//!   an object under dispersed. An engine-level scenario is one shard
//!   holding one object.
//! * [`mod@reference`] — the walk-free reference: the layout a plaintext
//!   history must be stored as, and a straight-line read of stored blocks
//!   that plans and decodes each entry on its own. It shares nothing with
//!   `sec_versioning::walk`, so the sim sees walk bugs.
//! * [`explore`] — seeded random walks (with failing-seed printing) and
//!   exhaustive interleaving of short windows.
//!
//! Replay: any failing run prints `SEC_SIM_SEED=0x…`; export it and rerun
//! the same test (or `sim-sweep`, which then runs every property once on
//! that seed) to reproduce the interleaving bit-identically. See
//! `docs/DST.md` for the full workflow and the buggify site catalogue.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod explore;
pub mod harness;
pub mod hook;
pub mod reference;
pub mod rng;
pub mod seed;

pub use clock::{EventQueue, VirtualClock};
pub use explore::{interleavings, random_walk, walk, MAX_EXHAUSTIVE_STEPS};
pub use harness::{Op, Sim, SimOptions, WindowOp};
pub use hook::SimHook;
pub use rng::SimRng;
pub use seed::SEED_ENV;
