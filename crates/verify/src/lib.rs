//! Verification layer for the RA-HOOI workspace: differential oracles
//! and algebraic invariant checkers for every numerical kernel.
//!
//! Correctness here rests on two independent legs (DESIGN.md §12):
//!
//! 1. **Differential oracles** ([`oracle`]) — naive, audit-by-eye
//!    reference implementations (triple-loop GEMM, unfold-then-multiply
//!    TTM and Gram, an independent cyclic-Jacobi eigensolver) that the
//!    optimized kernels are compared against numerically, and textbook
//!    STHOSVD and HOOI built from them that the solvers are compared
//!    against on every processor grid.
//! 2. **Algebraic invariants** ([`invariants`]) — properties any
//!    correct output must satisfy regardless of implementation:
//!    orthonormal factors, symmetric PSD Grams, the core-norm error
//!    identity, TTM mode-order commutativity, and monotone HOOI fit.
//!
//! Every tolerance used by either leg lives in [`tolerances`] with a
//! derivation comment — there are no magic numbers at call sites.
//!
//! The third leg, *schedule exploration* (replaying a distributed
//! program under adversarial message schedules and asserting
//! bit-identical results), lives in `ratucker-mpi` as
//! [`Universe::explore`](../ratucker_mpi/struct.Universe.html) because
//! it needs fabric internals; this crate's integration tests drive it
//! over the real solvers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod invariants;
pub mod oracle;
pub mod tolerances;

pub use invariants::{
    check_core_norm_identity, check_factor_match, check_monotone_fit, check_orthonormal,
    check_symmetric_psd, check_ttm_commutes,
};
pub use oracle::{
    gram_naive, hooi_textbook, hosi_textbook, jacobi_eigenvalues_naive, matmul_naive, qrcp_q_naive,
    sthosvd_textbook, ttm_naive, TextbookTruncation, TextbookTucker,
};
