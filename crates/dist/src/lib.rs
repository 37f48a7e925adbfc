//! Block-distributed dense tensors — the TuckerMPI-equivalent substrate.
//!
//! A global `d`-way tensor is distributed over a `P_1 × … × P_d` Cartesian
//! processor grid with near-even contiguous blocks per mode; factor
//! matrices are replicated on every rank (TuckerMPI's convention). On top
//! of the distribution this crate implements the three parallel kernels
//! the Tucker algorithms need:
//!
//! - [`ops::try_dist_ttm`] — TTM with reduce-scatter along the mode fiber;
//! - [`ops::try_dist_gram`] — unfolding Gram via fiber all-to-all
//!   redistribution + local rank-k update + allreduce;
//! - [`ops::try_dist_contract_fiber`] — the paper's new all-but-one
//!   contraction for subspace iteration (§3.4), against each rank's own
//!   core block (gathered along the mode's fiber only when that mode is
//!   split), with sum-reduce + broadcast so each rank runs the subsequent
//!   QR redundantly.
//!
//! Each kernel is fallible: lost messages, crashed peers, corrupted
//! payloads and budget refusals surface as a typed `CommError`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distribution;
pub mod dtensor;
pub mod ops;
pub mod redistribute;
pub mod replica;

pub use distribution::{block_len, block_offset, block_range, owner_of, BlockRange, TensorDist};
pub use dtensor::DistTensor;
pub use ops::{
    try_dist_contract, try_dist_contract_fiber, try_dist_gram, try_dist_gram_checked,
    try_dist_multi_ttm_all_but, try_dist_ttm, try_dist_ttm_checked, AbftMode,
};
pub use redistribute::{try_redistribute, BlockPiece};
pub use replica::{restorer_for, try_refresh_buddies, BuddyStore, Replica};
