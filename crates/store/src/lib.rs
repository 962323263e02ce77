//! Simulated distributed storage back-end for SEC archives.
//!
//! The SEC paper's evaluation is analytical and simulation-based: encoded
//! pieces of every stored object live on `n` (colocated placement) or `n·L`
//! (dispersed placement) storage nodes, nodes fail independently with
//! probability `p`, and the metrics of interest are (a) whether versions and
//! whole archives remain recoverable and (b) how many disk I/O reads a
//! retrieval costs. This crate provides that substrate:
//!
//! * [`placement`] — colocated vs dispersed node assignment (§IV);
//! * [`node`] — in-memory storage nodes holding coded blocks, with per-node
//!   liveness and read counters;
//! * [`failure`] — i.i.d. failure injection and exhaustive failure-pattern
//!   enumeration for the small clusters of the paper's examples;
//! * [`byte_store`] / [`ByteDistributedStore`] — a byte archive's coded
//!   blocks spread over those nodes, with failure-aware retrieval that reads
//!   only from live nodes, falls back from `2γ`-read sparse plans to `k`-read
//!   full plans exactly as §V describes, reports every read it performed, and
//!   repairs lost nodes. It is single-threaded: the oracle `sec-engine` is
//!   checked against, not the serving path.
//!
//! # Example
//!
//! ```rust
//! use sec_erasure::GeneratorForm;
//! use sec_store::ByteDistributedStore;
//! use sec_versioning::{ArchiveConfig, ByteVersionedArchive, EncodingStrategy};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec)?;
//! let mut archive = ByteVersionedArchive::new(config)?;
//! let v1 = vec![1u8; 3 * 512]; // three 512-byte blocks
//! let mut v2 = v1.clone();
//! v2[1024] = 77; // edits the third block only
//! archive.append_all(&[v1, v2.clone()])?;
//!
//! let store = ByteDistributedStore::colocated(&archive);
//! store.fail_node(0)?;
//! store.fail_node(5)?;
//! // Both versions survive two failures of the (6,3) MDS code.
//! let retrieved = store.retrieve_version(&archive, 2)?;
//! assert_eq!(retrieved.data, v2);
//! assert_eq!(retrieved.io_reads, 3 + 2); // k + 2γ block reads, failures or not
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]
#![warn(missing_docs)]

mod store;

pub mod byte_store;
pub mod failure;
pub mod fault;
pub mod metrics;
pub mod node;
pub mod placement;

pub use byte_store::{ByteDistributedStore, ByteStoredRetrieval};
pub use failure::FailurePattern;
pub use metrics::{AtomicIoMetrics, IoMetrics};
pub use node::StorageNode;
pub use placement::{Placement, PlacementStrategy};
pub use store::StoreError;
