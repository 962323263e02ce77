//! # sec — Sparsity Exploiting Erasure Coding for versioned storage
//!
//! A reproduction of *"Sparsity Exploiting Erasure Coding for Resilient
//! Storage and Efficient I/O Access in Delta based Versioning Systems"*
//! (Harshan, Oggier, Datta — ICDCS 2015) as a production-quality Rust
//! workspace. This facade crate re-exports the public API of every
//! subsystem:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`gf`] | `sec-gf` | the field `GF(2^8)`, bulk kernels |
//! | [`linalg`] | `sec-linalg` | matrices, Gaussian elimination, Cauchy matrices, criteria checks |
//! | [`erasure`] | `sec-erasure` | systematic / non-systematic Cauchy MDS codes, sparse recovery, read planning |
//! | [`versioning`] | `sec-versioning` | byte archives (layout ledger + blocks), Basic/Optimized/Reversed SEC, I/O model |
//! | [`store`] | `sec-store` | storage nodes as block-slot arrays, placement, failure patterns, I/O counters, the shared error type |
//! | [`engine`] | `sec-engine` | concurrent serving layer: sharded locks, lock-free planning, delta cache |
//! | [`analysis`] | `sec-analysis` | static resilience, availability, average-I/O, expected-I/O |
//! | [`workload`] | `sec-workload` | sparsity PMFs and synthetic edit traces |
//!
//! The most common entry points are re-exported at the crate root.
//!
//! # Quickstart
//!
//! ```rust
//! use sec::{ArchiveConfig, ByteVersionedArchive, EncodingStrategy, GeneratorForm};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A (6, 3) non-systematic SEC archive, as in the paper's running example:
//! // a 3 KB object in three 1 KB blocks, one block per symbol of the paper.
//! let config = ArchiveConfig::new(6, 3, GeneratorForm::NonSystematic, EncodingStrategy::BasicSec)?;
//! let mut archive = ByteVersionedArchive::new(config)?;
//!
//! let v1: Vec<u8> = (0..3 * 1024).map(|i| (i % 251) as u8).collect();
//! let mut v2 = v1.clone();
//! v2[1500] ^= 59; // touches the second block only: γ = 1
//! archive.append_all(&[v1, v2.clone()])?;
//!
//! let both = archive.retrieve_prefix(2)?;
//! assert_eq!(both.io_reads, 5); // k + 2γ = 3 + 2 block reads, instead of 2k = 6
//! assert_eq!(both.versions[1], v2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]
#![warn(missing_docs)]

#[cfg(test)]
mod delta;
#[cfg(test)]
mod retrieval;

pub use sec_analysis as analysis;
pub use sec_engine as engine;
pub use sec_erasure as erasure;
pub use sec_gf as gf;
pub use sec_linalg as linalg;
pub use sec_store as store;
pub use sec_versioning as versioning;
pub use sec_workload as workload;

pub use sec_engine::{ObjectId, SecCluster, SecEngine};
pub use sec_erasure::{ByteCodec, ByteShards, CodeParams, GeneratorForm, SecCode};
pub use sec_store::{Placement, PlacementStrategy};
pub use sec_versioning::{
    ArchiveConfig, ByteVersionedArchive, CheckpointPolicy, DeltaCache, EncodingStrategy, IoModel,
};
pub use sec_workload::{SparsityPmf, ZipfPmf};
