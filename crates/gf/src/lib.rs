//! Finite-field arithmetic for the SEC (Sparsity Exploiting Coding) stack.
//!
//! The SEC paper works with data objects `x ∈ F_q^k` where `q` is a power of
//! two. Every code here runs over `q = 256`: the paper's (6,3), (10,5) and
//! (12,6) Cauchy codes fit `GF(2^8)` (a Cauchy code needs `n + k ≤ q`), and
//! one byte is one symbol. This crate provides:
//!
//! * the [`GaloisField`] trait describing a binary-extension field,
//! * its one implementation, [`Gf256`] (`GF(2^8)`), built from log/exp tables
//!   generated at first use,
//! * bulk slice kernels ([`bulk`]) used by the erasure encoder to apply a
//!   scalar coefficient to a whole block of symbols at once,
//! * the byte-shard fast path ([`bulk8`]): split-table `GF(2^8)` kernels
//!   operating directly on `&[u8]` shards, with a per-coefficient table
//!   cache. The generic [`bulk`] kernels remain the scalar reference
//!   implementation the fast path is tested against,
//! * runtime-dispatched SIMD kernels ([`kernel`]) behind the `bulk8` entry
//!   points: SSSE3/AVX2 `PSHUFB` and NEON `TBL` nibble-lookup multiplication
//!   selected once per process (overridable via `SEC_GF_KERNEL` or
//!   [`force_kernel`]), with the scalar loops as the universal fallback and
//!   differential-test reference.
//!
//! # Example
//!
//! ```rust
//! use sec_gf::{GaloisField, Gf256};
//!
//! let a = Gf256::from_u64(0x53);
//! let b = Gf256::from_u64(0xCA);
//! let p = a * b;
//! // Multiplication is invertible for non-zero elements.
//! assert_eq!(p / b, a);
//! // Addition is XOR in characteristic two, so every element is its own negative.
//! assert_eq!(a + a, Gf256::ZERO);
//! ```

#![deny(unsafe_code)] // kernel.rs SIMD modules carve out per-module #[allow]s
#![warn(missing_debug_implementations)]
#![warn(missing_docs)]

mod field;
mod fields;
mod tables;

pub mod bulk;
pub mod bulk8;
pub mod kernel;

pub use field::GaloisField;
pub use fields::Gf256;
pub use kernel::{active_kernel, force_kernel, reset_kernel, Kernel, UnsupportedKernel, KERNEL_ENV};

#[cfg(test)]
mod proptests;
