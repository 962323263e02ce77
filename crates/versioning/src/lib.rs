//! Delta-based versioned archives encoded with Sparsity Exploiting Coding —
//! the primary contribution of the SEC paper as a usable library.
//!
//! A [`VersionedArchive`] accepts successive versions of a fixed-size data
//! object (`x_1, x_2, …, x_L ∈ F_q^k`), encodes them with an `(n, k)` MDS code
//! according to an [`EncodingStrategy`], and supports retrieval of any version
//! (or any prefix of versions) with explicit disk-I/O accounting:
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
//! For production-shaped byte objects, [`ByteVersionedArchive`] provides the
//! same strategies over contiguous byte shards, with per-block delta sparsity
//! and retrieval through the batched `GF(2^8)` pipeline of `sec-erasure`.
//!
//! The [`io_model`] module provides the closed-form I/O read counts of
//! eqs. (3)–(4) without touching any data, which is what the paper's Fig. 9
//! and the §III-D example report; the archive itself reproduces the same
//! numbers operationally via [`retrieval`].
//!
//! # Example
//!
//! ```rust
//! use sec_gf::{GaloisField, Gf1024};
//! use sec_erasure::GeneratorForm;
//! use sec_versioning::{ArchiveConfig, EncodingStrategy, VersionedArchive};
//!
//! # fn main() -> Result<(), sec_versioning::VersioningError> {
//! let config = ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec)?;
//! let mut archive: VersionedArchive<Gf1024> = VersionedArchive::new(config)?;
//!
//! let v1: Vec<Gf1024> = [10u64, 20, 30].iter().map(|&v| Gf1024::from_u64(v)).collect();
//! let mut v2 = v1.clone();
//! v2[0] = Gf1024::from_u64(99); // a 1-sparse edit
//! archive.append_version(&v1)?;
//! archive.append_version(&v2)?;
//!
//! // Retrieving both versions costs k + 2γ = 3 + 2 = 5 reads instead of 6.
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
pub mod delta;
pub mod io_model;
pub mod ledger;
pub mod object;
pub mod retrieval;
pub mod walk;

pub use archive::{
    ArchiveConfig, CheckpointPolicy, EncodedEntry, EncodingStrategy, StoredPayload, VersionedArchive,
};
pub use byte_archive::{BytePrefixRetrieval, ByteVersionRetrieval, ByteVersionedArchive};
pub use cache::{CacheStats, DeltaCache};
pub use delta::Delta;
pub use error::VersioningError;
pub use io_model::IoModel;
pub use ledger::{ArchiveLedger, ByteEncodedEntry};
pub use retrieval::{PrefixRetrieval, VersionRetrieval};

#[cfg(test)]
mod proptests;
