//! Storage-side building blocks for SEC archives.
//!
//! The SEC paper's evaluation is analytical and simulation-based: encoded
//! pieces of every stored object live on `n` (colocated placement) or `n·L`
//! (dispersed placement) storage nodes, nodes fail independently with
//! probability `p`, and the metrics of interest are (a) whether versions and
//! whole archives remain recoverable and (b) how many disk I/O reads a
//! retrieval costs. This crate provides the pieces `sec-engine` serves with:
//!
//! * [`placement`] — colocated vs dispersed node assignment (§IV);
//! * [`node`] — the block slots one storage node keeps, with a read counter;
//! * [`failure`] — i.i.d. failure injection and exhaustive failure-pattern
//!   enumeration for the small clusters of the paper's examples;
//! * [`metrics`] — the I/O counters, updatable under a shared borrow;
//! * [`fault`] — the buggify fault points of the deterministic simulator;
//! * [`StoreError`] — the error type shared with `sec-engine`.
//!
//! A placement and a failure pattern together say which block positions of
//! each stored entry are readable.
//! [`ByteVersionedArchive::retrieve_version_from`](sec_versioning::ByteVersionedArchive::retrieve_version_from)
//! reads a version from exactly those positions — `2γ`-read sparse plans,
//! falling back to `k`-read full plans as §V describes — which makes the
//! byte archive the failure-aware reference the engine is checked against.
//!
//! # Example
//!
//! ```rust
//! use sec_erasure::GeneratorForm;
//! use sec_store::{FailurePattern, Placement, PlacementStrategy};
//! use sec_versioning::{ArchiveConfig, ByteVersionedArchive, EncodingStrategy, VersioningError};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec)?;
//! let mut archive = ByteVersionedArchive::new(config)?;
//! let v1 = vec![1u8; 3 * 512]; // three 512-byte blocks
//! let mut v2 = v1.clone();
//! v2[1024] = 77; // edits the third block only: γ = 1
//! archive.append_all(&[v1, v2.clone()])?;
//!
//! // Position `position` of entry `entry` is readable when its node is up.
//! fn live(placement: Placement, pattern: &FailurePattern) -> impl Fn(usize, usize) -> bool + '_ {
//!     move |entry, position| {
//!         placement
//!             .try_node_for(entry, position)
//!             .is_ok_and(|node| !pattern.is_failed(node))
//!     }
//! }
//!
//! // Dispersed: nodes 6..12 hold only the delta. Four of them fail, and its
//! // 2γ = 2 surviving blocks still serve it: k + 2γ reads, as if healthy.
//! let dispersed = Placement::new(PlacementStrategy::Dispersed, 6, archive.layout().len());
//! let pattern = FailurePattern::with_failures(dispersed.node_count(), &[6, 7, 8, 9]);
//! let read = archive.retrieve_version_from(2, live(dispersed, &pattern))?;
//! assert_eq!(read.data, v2);
//! assert_eq!(read.io_reads, 3 + 2);
//!
//! // Colocated: four failures hit every entry, and the full version, which
//! // needs k = 3 blocks, is lost.
//! let colocated = Placement::new(PlacementStrategy::Colocated, 6, archive.layout().len());
//! let pattern = FailurePattern::with_failures(6, &[0, 1, 3, 5]);
//! assert_eq!(
//!     archive.retrieve_version_from(2, live(colocated, &pattern)),
//!     Err(VersioningError::Unrecoverable { entry: 0 })
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]
#![warn(missing_docs)]

mod store;

pub mod failure;
pub mod fault;
pub mod metrics;
pub mod node;
pub mod placement;

pub use failure::FailurePattern;
pub use metrics::{AtomicIoMetrics, IoMetrics};
pub use node::StorageNode;
pub use placement::{Placement, PlacementStrategy};
pub use store::StoreError;
