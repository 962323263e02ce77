//! Sparsity PMFs and synthetic versioned-edit workloads for SEC experiments.
//!
//! The SEC paper evaluates its I/O savings under parametric probability mass
//! functions on the delta sparsity level `Γ` — truncated Exponential and
//! truncated Poisson distributions (eqs. 22–23, Fig. 6) — because no standard
//! versioning workloads exist. This crate provides:
//!
//! * [`pmf`] — those PMFs (plus uniform/fixed/empirical variants), with exact
//!   probabilities, sampling, and expectations;
//! * [`traces`] — synthetic multi-version edit traces (localized edits,
//!   scattered edits, append-heavy growth, and a mixed "document history"
//!   model) that produce actual symbol-level version sequences whose measured
//!   sparsity can be fed back into the analytical machinery;
//! * [`zipf`] — Zipf popularity PMFs over recency ranks, used by the
//!   benchmark's workloads to draw skewed version-read targets;
//! * [`arrivals`] — open-loop request arrival processes (Poisson
//!   interarrivals and slotted truncated-Poisson counts) consumed by the
//!   network load generator's open-loop mode.
//!
//! # Example
//!
//! ```rust
//! use sec_workload::pmf::SparsityPmf;
//!
//! // Paper, Fig. 6: truncated exponential on {1, 2, 3} with α = 0.6.
//! let pmf = SparsityPmf::truncated_exponential(0.6, 3).unwrap();
//! let probs = pmf.probabilities();
//! assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
//! assert!(probs[0] > probs[1] && probs[1] > probs[2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod pmf;
pub mod traces;
pub mod zipf;

pub use arrivals::{ArrivalProcess, SlottedArrivals};
pub use pmf::SparsityPmf;
pub use traces::{EditModel, TraceConfig, VersionTrace};
pub use zipf::ZipfPmf;
