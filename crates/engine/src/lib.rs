//! The concurrent SEC serving layer.
//!
//! The whole point of Sparsity Exploiting Coding is that *reads are cheap*:
//! a `γ`-sparse delta costs `2γ` block reads instead of `k`, so a SEC
//! archive is a read-heavy serving system by design. The lower layers
//! (`sec-erasure`, `sec-versioning`, `sec-store`) expose retrieval through
//! `&self`, and this crate puts a long-lived engine on top of them:
//!
//! * [`SecEngine`] owns an `ArchiveLedger` — the stored layout, γ profile
//!   and plaintext tail, but no coded blocks — behind an `RwLock` (shared
//!   for reads, exclusive only for appends and repairs) plus one `RwLock`'d
//!   storage node per codeword position — the *sharded lock* layout, so a
//!   retrieval locks exactly the nodes its read plan touches. The nodes are
//!   the only owner of coded blocks: an append writes the blocks the ledger
//!   returns to their nodes and drops the encode buffer;
//! * read planning is **lock-free**: node liveness lives in an array of
//!   atomics outside the node locks, so planning a `2γ`-read sparse
//!   retrieval never contends with in-flight block reads;
//! * the node layout is **placement-generic** (§IV of the paper): every
//!   layer consults a shared [`Placement`] instead of assuming `node i ↔
//!   codeword position i`, so the same serving stack runs colocated (`n`
//!   shared nodes, the paper's resilience-optimal layout) or dispersed
//!   (`n` fresh nodes per stored entry, slabs appended on write without
//!   blocking in-flight readers) — under dispersed placement a node
//!   failure degrades exactly the one entry it hosts;
//! * an optional [`DeltaCache`] (shared-read LRU keyed by version) serves
//!   exact hits without touching a single node and lets nearby requests
//!   walk forward or backward from the *nearest* cached decoded base,
//!   paying only for the deltas in between;
//! * every I/O is accounted exactly as in the paper's model — the engine's
//!   read counts are bit-compatible with the single-threaded
//!   `ByteVersionedArchive` reference, which the concurrency test suite
//!   asserts under random failure patterns.
//!
//! # Example
//!
//! ```rust
//! use sec_engine::SecEngine;
//! use sec_erasure::GeneratorForm;
//! use sec_versioning::{ArchiveConfig, EncodingStrategy};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec)?;
//! let engine = SecEngine::new(config)?;
//!
//! let v1 = vec![7u8; 30];
//! let mut v2 = v1.clone();
//! v2[4] ^= 0x5A; // single-block edit: γ = 1
//! engine.append_version(&v1)?;
//! engine.append_version(&v2)?;
//!
//! // Retrieval takes `&self`: clone the engine into an `Arc` and serve
//! // any number of reader threads.
//! let r = engine.get_version(2)?;
//! assert_eq!(*r.data, v2);
//! assert_eq!(r.io_reads, 3 + 2); // k + 2γ block reads
//!
//! engine.fail_node(0)?;
//! engine.fail_node(5)?;
//! assert_eq!(*engine.get_version(2)?.data, v2); // MDS survives n−k failures
//! # Ok(())
//! # }
//! ```
//!
//! # Scaling out: [`SecCluster`]
//!
//! One engine serves one versioned object. A [`SecCluster`] hashes
//! [`ObjectId`]s across `S` independent shards — each with its own storage
//! nodes, liveness atomics and delta caches, all sharing a single set of
//! `GF(2^8)` multiplication tables — so independent objects append and
//! retrieve concurrently on different shards with zero shared locking:
//!
//! ```rust
//! use sec_engine::{ObjectId, SecCluster};
//! use sec_erasure::GeneratorForm;
//! use sec_versioning::{ArchiveConfig, EncodingStrategy};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec)?;
//! let cluster = SecCluster::new(config, 4)?;
//!
//! let wiki = ObjectId::from_name("wiki/Main_Page");
//! let v1 = vec![7u8; 30];
//! cluster.append_version(wiki, &v1)?;
//! assert_eq!(*cluster.get_version(wiki, 1)?.data, v1);
//!
//! // A node is addressed as (group, node), the group being the placement's
//! // failure domain: a shard under the default colocated placement (an
//! // object id under dispersed). A typo'd address is an error, not a
//! // process abort.
//! let shard = cluster.shard_of(wiki);
//! cluster.fail_node(shard, 0)?;
//! assert!(cluster.fail_node(99, 0).is_err());
//! assert_eq!(*cluster.get_version(wiki, 1)?.data, v1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]
#![warn(missing_docs)]

mod cluster;
mod engine;
pub mod ordered;
mod read;

pub use cluster::{ClusterError, ClusterMetrics, ObjectId, SecCluster, ShardMetrics};
pub use engine::{EngineMetrics, EnginePrefix, EngineRetrieval, SecEngine};
pub use sec_store::StoreError as EngineError;
// One source of truth for node placement: the engine and cluster consume
// `sec-store`'s `Placement` rather than growing a parallel notion of layout.
pub use sec_store::{Placement, PlacementStrategy};
pub use sec_versioning::{CacheStats, CheckpointPolicy, DeltaCache};
