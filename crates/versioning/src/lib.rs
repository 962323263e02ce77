//! Delta-based versioned archives encoded with Sparsity Exploiting Coding —
//! the primary contribution of the SEC paper as a usable library.
//!
//! A [`ByteVersionedArchive`] accepts successive versions of a fixed-size byte
//! object, splits each into `k` equally sized blocks (the paper's
//! `x_1, x_2, …, x_L ∈ F_q^k` with "symbol" read as "block"), encodes them
//! with an `(n, k)` MDS code according to an [`EncodingStrategy`], and supports
//! retrieval of any version (or any prefix of versions) with explicit disk-I/O
//! accounting:
//!
//! * [`EncodingStrategy::BasicSec`] — store `x_1` in full, every later
//!   version as the delta `z_{j+1} = x_{j+1} − x_j` (paper, Fig. 1);
//! * [`EncodingStrategy::OptimizedSec`] — like Basic, but store the full
//!   version instead of the delta whenever `γ ≥ k/2` ("Optimized Step j+1");
//! * [`EncodingStrategy::ReversedSec`] — store deltas plus the *latest*
//!   version in full, favouring access to recent versions;
//! * [`EncodingStrategy::NonDifferential`] — the baseline: every version is
//!   encoded in full.
//!
//! The archive is an [`ArchiveLedger`] (layout, `γ` profile, the one `append`
//! that decides what a version is stored as) plus the coded blocks that
//! `append` returns; `sec-engine` pairs the same ledger with storage nodes,
//! and every layer reads through the one traversal in [`walk`]. Because
//! they share it, the archive cannot check the walk for the engine: the
//! independent check is `sec-sim`'s walk-free reference, which reads each
//! stored entry on its own.
//!
//! The [`io_model`] module provides the closed-form I/O read counts of
//! eqs. (3)–(4) without touching any data, which is what the paper's Fig. 9
//! and the §III-D example report; the archive reproduces the same numbers
//! operationally, block read for block read.
//!
//! # Example
//!
//! ```rust
//! use sec_erasure::GeneratorForm;
//! use sec_versioning::{ArchiveConfig, ByteVersionedArchive, EncodingStrategy};
//!
//! # fn main() -> Result<(), sec_versioning::VersioningError> {
//! let config = ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec)?;
//! let mut archive = ByteVersionedArchive::new(config)?;
//!
//! let v1 = vec![7u8; 3 * 1024]; // three 1 KiB blocks
//! let mut v2 = v1.clone();
//! v2[0] = 99; // a 1-sparse edit: one block changes
//! archive.append_version(&v1)?;
//! archive.append_version(&v2)?;
//!
//! // Retrieving both versions costs k + 2γ = 3 + 2 = 5 block reads instead of 6.
//! let retrieval = archive.retrieve_prefix(2)?;
//! assert_eq!(retrieval.io_reads, 5);
//! assert_eq!(retrieval.versions[1], v2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]
#![warn(missing_docs)]

mod archive;
mod error;

pub mod byte_archive;
pub mod cache;
pub mod io_model;
pub mod ledger;
pub mod object;
pub mod walk;

pub use archive::{ArchiveConfig, CheckpointPolicy, EncodingStrategy, StoredPayload};
pub use byte_archive::{BytePrefixRetrieval, ByteVersionRetrieval, ByteVersionedArchive};
pub use cache::{CacheStats, DeltaCache};
pub use error::VersioningError;
pub use io_model::IoModel;
pub use ledger::{ArchiveLedger, ByteEncodedEntry, CodedBlocks};

#[cfg(test)]
mod proptests;
