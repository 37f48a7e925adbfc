//! Leading left singular vectors (LLSV) of tensor unfoldings: the
//! pieces both routes of the paper share.
//!
//! The two routes themselves are distributed kernels in `crate::dist`:
//! - **Gram + EVD** (§2.1, `try_dist_llsv_gram`): form `Y_(j) Y_(j)ᵀ`,
//!   eigensolve with [`robust_sym_evd`], keep the leading eigenvectors
//!   under a [`Truncation`] rule.
//! - **Subspace iteration** (Alg. 5, `try_dist_llsv_subspace`): one
//!   step of orthogonal iteration seeded by the previous factor —
//!   `G = Uᵀ·Y_(j)` (a TTM), `Z = Y_(j)·Gᵀ` (the all-but-one
//!   contraction), then QRCP to orthonormalize and order the columns.

use ratucker_linalg::evd::{try_sym_evd, EvdError, SymEvd};
use ratucker_tensor::matrix::Matrix;
use ratucker_tensor::scalar::Scalar;

/// Truncation rule for the Gram+EVD route.
#[derive(Clone, Copy, Debug)]
pub enum Truncation {
    /// Keep exactly `r` leading singular vectors (rank-specified).
    Rank(usize),
    /// Keep the smallest rank whose discarded squared singular-value mass
    /// is at most this threshold (error-specified; STHOSVD passes
    /// `ε²‖X‖²/d`).
    ErrorSq(f64),
}

/// Symmetric EVD with a Jacobi-SVD fallback, for Gram matrices.
///
/// The QL iteration can stall on pathological spectra; for a symmetric
/// positive semidefinite Gram matrix the one-sided Jacobi SVD computes
/// the same decomposition (singular values = eigenvalues, left singular
/// vectors = eigenvectors), slower but unconditionally convergent — so
/// [`EvdError::NoConvergence`] downgrades to a fallback instead of
/// failing the sweep.
///
/// # Panics
/// Panics on [`EvdError::NonFinite`]: no factorization can repair NaN/∞
/// input, which indicates corrupted data upstream (see the screening in
/// the distributed kernels).
pub fn robust_sym_evd<T: Scalar>(g: &Matrix<T>) -> SymEvd<T> {
    match try_sym_evd(g) {
        Ok(evd) => evd,
        Err(e @ EvdError::NonFinite) => panic!("{e}"),
        Err(EvdError::NoConvergence { .. }) => {
            let svd = ratucker_linalg::svd_jacobi(g);
            SymEvd {
                values: svd.sigma,
                vectors: svd.u,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn robust_evd_agrees_with_plain_evd() {
        let mut rng = StdRng::seed_from_u64(40);
        let b: Matrix<f64> = ratucker_tensor::random::normal_matrix(7, 7, &mut rng);
        let g = b.matmul(&b.transpose()); // symmetric PSD
        let plain = ratucker_linalg::sym_evd(&g);
        let robust = robust_sym_evd(&g);
        assert_eq!(robust.values, plain.values);
        assert_eq!(robust.vectors.max_abs_diff(&plain.vectors), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn robust_evd_rejects_non_finite_gram() {
        let mut g = Matrix::<f64>::identity(3);
        g[(1, 1)] = f64::NAN;
        let _ = robust_sym_evd(&g);
    }

    #[test]
    fn jacobi_fallback_matches_ql_on_gram_matrices() {
        // Exercise the fallback arm directly: for PSD Gram matrices the
        // Jacobi SVD must reproduce the QL eigendecomposition.
        let mut rng = StdRng::seed_from_u64(41);
        let b: Matrix<f64> = ratucker_tensor::random::normal_matrix(6, 4, &mut rng);
        let g = b.transpose().matmul(&b);
        let ql = ratucker_linalg::sym_evd(&g);
        let svd = ratucker_linalg::svd_jacobi(&g);
        for (a, b) in svd.sigma.iter().zip(&ql.values) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
        // Same subspace per eigenvector (sign may flip).
        for j in 0..4 {
            let dot: f64 = svd
                .u
                .col(j)
                .iter()
                .zip(ql.vectors.col(j))
                .map(|(x, y)| x * y)
                .sum();
            assert!(dot.abs() > 1.0 - 1e-8, "column {j}: |dot| = {}", dot.abs());
        }
    }
}
