//! Tucker decomposition algorithms — the paper's contribution.
//!
//! This crate implements, distributed over the `ratucker-mpi` runtime:
//!
//! - **STHOSVD** (Alg. 1) — the state-of-the-art baseline, in both the
//!   rank-specified and error-specified formulations;
//! - **HOOI / HOOI-DT / HOSI / HOSI-DT** (Algs. 2, 4, 5) — fixed-rank
//!   block coordinate descent with optional dimension-tree memoization of
//!   the multi-TTMs and optional subspace-iteration LLSV;
//! - **RA-HOSI-DT** (Alg. 3) — the rank-adaptive variant solving the
//!   error-specified problem, with the eq.-(3) core analysis.
//!
//! Each algorithm is written once. The distributed entry points are
//! collective over a [`ratucker_mpi::CartGrid`]: [`dist::dist_sthosvd`],
//! [`dist::dist_hooi`], [`dist::dist_ra_hooi`]. The single-tensor entry
//! points [`sthosvd::sthosvd`], [`hooi::hooi`] and [`ra::ra_hooi`] run
//! the same code on a one-rank universe over an all-ones grid; each
//! call costs one thread spawn and one copy of the input into the
//! rank's block.
//!
//! # Example: error-specified compression with RA-HOSI-DT
//!
//! ```
//! use ratucker::prelude::*;
//!
//! // A 20x18x16 tensor that is (ranks 3,3,3) + 1% noise.
//! let x = SyntheticSpec::new(&[20, 18, 16], &[3, 3, 3], 0.01, 42).build::<f64>();
//!
//! // Ask for 5% relative error from a deliberately wrong rank guess.
//! let cfg = RaConfig::ra_hosi_dt(0.05, &[2, 2, 2]).with_alpha(2.0);
//! let res = ra_hooi(&x, &cfg);
//! assert!(res.rel_error <= 0.05);
//! assert!(res.tucker.compression_ratio() > 10.0);
//!
//! // The identity ‖X − X̂‖² = ‖X‖² − ‖G‖² matches explicit reconstruction.
//! let direct = res.tucker.reconstruct().rel_error(&x);
//! assert!((direct - res.rel_error).abs() < 1e-9);
//! ```
//!
//! # Example: comparing the fixed-rank variants
//!
//! ```
//! use ratucker::prelude::*;
//!
//! let x = SyntheticSpec::new(&[16, 16, 16], &[4, 4, 4], 0.02, 7).build::<f32>();
//! let st = sthosvd(&x, &SthosvdTruncation::Ranks(vec![4, 4, 4]));
//! for cfg in [HooiConfig::hooi(), HooiConfig::hosi_dt()] {
//!     let res = ratucker::hooi(&x, &[4, 4, 4], &cfg.with_max_iters(2));
//!     // Random-init HOOI reaches STHOSVD-level error in two sweeps (§3.1).
//!     assert!(res.rel_error() < st.rel_error * 1.05 + 1e-6);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod core_analysis;
pub mod dist;
pub mod hooi;
pub mod llsv;
pub mod ra;
pub mod recover;
pub mod sthosvd;
pub mod synthetic;
pub mod timings;
pub mod tucker_tensor;

pub use checkpoint::{Checkpoint, CheckpointPolicy};
pub use core_analysis::{analyze_core, analyze_core_greedy, tucker_storage, CoreAnalysis};
pub use dist::AbftStats;
pub use hooi::{
    dimtree_schedule, hooi, hooi_with_init, DimTreeEvent, HooiConfig, HooiResult, LlsvStrategy,
    TtmStrategy,
};
pub use ra::{ra_hooi, RaConfig, RaResult};
pub use recover::{dist_ra_hooi_resilient, RecoveryReport, ResilienceConfig, ResilientOutcome};
pub use sthosvd::{sthosvd, SthosvdResult, SthosvdTruncation};
pub use synthetic::SyntheticSpec;
pub use timings::{Phase, Timings, ALL_PHASES};
pub use tucker_tensor::TuckerTensor;

/// Common imports.
pub mod prelude {
    pub use crate::checkpoint::CheckpointPolicy;
    pub use crate::hooi::{hooi, HooiConfig, LlsvStrategy, TtmStrategy};
    pub use crate::ra::{ra_hooi, RaConfig};
    pub use crate::sthosvd::{sthosvd, SthosvdTruncation};
    pub use crate::synthetic::SyntheticSpec;
    pub use crate::timings::{Phase, Timings};
    pub use crate::tucker_tensor::TuckerTensor;
}
