//! Dense `d`-way tensor substrate for the RA-HOOI reproduction.
//!
//! This crate provides the local (single-address-space) tensor machinery
//! that TuckerMPI supplies in C++: generalized column-major dense tensors,
//! mode-`j` unfoldings, tensor-times-matrix (TTM) products, unfolding Gram
//! matrices, the all-but-one contraction needed by subspace iteration, and
//! multidimensional prefix sums for the rank-adaptive core analysis. It
//! also hosts the workspace's low-level GEMM kernels and flop accounting.
//!
//! Layout convention throughout: entries are stored mode-0-fastest, so the
//! mode-0 unfolding is a zero-copy column-major matrix view.
//!
//! # Example
//!
//! ```
//! use ratucker_tensor::prelude::*;
//!
//! let x = DenseTensor::from_fn([4, 3, 2], |idx| (idx[0] + idx[1] + idx[2]) as f64);
//! // TTM with a 2x3 matrix in mode 1 shrinks that mode to 2.
//! let m = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64);
//! let y = ttm(&x, 1, &m, Transpose::No);
//! assert_eq!(y.shape().dims(), &[4, 2, 2]);
//! // Entry check against the definition Y_(1) = M · X_(1).
//! let want: f64 = (0..3).map(|k| m[(0, k)] * x.get(&[1, k, 1])).sum();
//! assert_eq!(y.get(&[1, 0, 1]), want);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contract;
pub mod dense;
pub mod flops;
pub mod gram;
pub mod io;
pub mod kernels;
pub mod matrix;
pub mod par;
pub mod prefix;
pub mod random;
pub mod scalar;
pub mod shape;
pub mod ttm;
pub mod unfold;

pub use contract::{contract_all_but, contract_all_but_accumulate};
pub use dense::DenseTensor;
pub use gram::{gram, gram_accumulate};
pub use matrix::Matrix;
pub use prefix::{leading_norm_sq, prefix_squared_sums};
pub use scalar::Scalar;
pub use shape::Shape;
pub use ttm::{multi_ttm, multi_ttm_all_but, slab_grid, ttm, ttm_right_range, Transpose};
pub use unfold::{fold, unfold};

/// Common imports.
pub mod prelude {
    pub use crate::dense::DenseTensor;
    pub use crate::matrix::Matrix;
    pub use crate::scalar::Scalar;
    pub use crate::shape::Shape;
    pub use crate::ttm::{multi_ttm, multi_ttm_all_but, ttm, ttm_right_range, Transpose};
}
