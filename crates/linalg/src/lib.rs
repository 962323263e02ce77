//! Dense linear algebra over binary extension fields.
//!
//! This crate is the algebraic substrate of the SEC erasure-coding stack:
//! generator matrices, Gaussian elimination, rank and invertibility checks,
//! and the Cauchy matrices the paper uses to build MDS codes satisfying its
//! two design criteria:
//!
//! * **Criterion 1** — at least one `k × k` submatrix of the generator is
//!   invertible, so full (non-sparse) objects can be decoded from any `k`
//!   surviving coded symbols.
//! * **Criterion 2** — for every sparsity level `γ < k/2` there is a
//!   `2γ × k` submatrix in which *every* choice of `2γ` columns is linearly
//!   independent, so a `γ`-sparse delta is uniquely recoverable from just `2γ`
//!   coded symbols (Proposition 1 of the paper).
//!
//! The [`checks`] module provides direct verifiers for both criteria; the
//! [`cauchy`] module builds matrices that satisfy them by construction
//! (every square submatrix of a Cauchy matrix is invertible).
//!
//! # Example
//!
//! ```rust
//! use sec_gf::Gf256;
//! use sec_linalg::{cauchy::cauchy_matrix, checks, Matrix};
//!
//! // A (6, 3) non-systematic generator from a Cauchy matrix.
//! let g: Matrix<Gf256> = cauchy_matrix(6, 3).expect("field is large enough");
//! assert!(checks::has_invertible_k_submatrix(&g));
//! assert!(checks::all_columns_independent(&g.select_rows(&[0, 1]).unwrap()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]
#![warn(missing_docs)]

mod matrix;

pub mod cauchy;
pub mod checks;
pub mod combinatorics;
pub mod ops;

pub use matrix::{Matrix, MatrixError};

#[cfg(test)]
mod proptests;
