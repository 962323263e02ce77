//! Systematic and non-systematic Cauchy MDS erasure codes with
//! sparse-delta recovery — the coding layer of SEC (Sparsity Exploiting
//! Coding).
//!
//! The SEC paper archives a sequence of versions `x_1, x_2, …` by erasure
//! coding the first version in full and every later version as its delta
//! `z_{j+1} = x_{j+1} − x_j`. The coding layer must therefore support two
//! retrieval modes from the same `(n, k)` code:
//!
//! 1. **Full decode** — recover an arbitrary `k`-symbol object from any `k`
//!    coded symbols (the MDS property / Criterion 1);
//! 2. **Sparse decode** — recover a `γ`-sparse delta (`γ < k/2`) from only
//!    `2γ` coded symbols drawn from a row set in which every `2γ` columns are
//!    linearly independent (Criterion 2, Proposition 1).
//!
//! [`SecCode`] packages a generator matrix (non-systematic Cauchy, or
//! systematic `[I_k ; B]` with a Cauchy parity block `B`) together with both
//! decoders and read planning over live/failed nodes; [`ByteCodec`] runs the
//! same code over byte shards. The plain "encode every version in full"
//! usage of [`SecCode`] serves as the paper's baseline.
//!
//! # Example
//!
//! ```rust
//! use sec_gf::{GaloisField, Gf256};
//! use sec_erasure::{GeneratorForm, SecCode};
//!
//! # fn main() -> Result<(), sec_erasure::CodeError> {
//! let code: SecCode<Gf256> = SecCode::cauchy(6, 3, GeneratorForm::NonSystematic)?;
//!
//! // A 1-sparse delta: only the first symbol changed.
//! let delta = vec![Gf256::from_u64(0x2A), Gf256::ZERO, Gf256::ZERO];
//! let codeword = code.encode(&delta)?;
//!
//! // Any 2·γ = 2 coded symbols recover it.
//! let shares = vec![(4, codeword[4]), (1, codeword[1])];
//! let recovered = code.decode_sparse(&shares, 1)?;
//! assert_eq!(recovered, delta);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]
#![warn(missing_docs)]

mod code;
mod error;

pub mod byte_shards;
pub mod criteria;
pub mod read_plan;
pub mod sparse;

pub use byte_shards::{ByteCodec, ByteShards};
pub use code::{CodeParams, GeneratorForm, SecCode, Share};
pub use criteria::{CriteriaReport, GammaReport};
pub use error::CodeError;
pub use read_plan::{DecodeMethod, ReadPlan, ReadTarget};

#[cfg(test)]
mod proptests;
