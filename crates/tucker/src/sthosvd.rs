//! Sequentially Truncated Higher-Order SVD (Alg. 1) — the baseline.
//!
//! The algorithm is written once, in `crate::dist`; [`sthosvd`] runs it
//! on a grid of one rank.

use crate::dist::{dist_sthosvd, on_one_rank};
use crate::timings::Timings;
use crate::tucker_tensor::TuckerTensor;
use ratucker_tensor::dense::DenseTensor;
use ratucker_tensor::scalar::Scalar;

/// How STHOSVD truncates each mode.
#[derive(Clone, Debug)]
pub enum SthosvdTruncation {
    /// Fixed per-mode ranks (rank-specified formulation, eq. 1).
    Ranks(Vec<usize>),
    /// Relative error tolerance ε (error-specified formulation, eq. 2):
    /// each mode keeps the smallest rank with discarded mass ≤ ε²‖X‖²/d.
    RelError(f64),
}

/// Result of an STHOSVD run.
#[derive(Clone, Debug)]
pub struct SthosvdResult<T: Scalar> {
    /// The computed decomposition.
    pub tucker: TuckerTensor<T>,
    /// Per-phase time/flop breakdown.
    pub timings: Timings,
    /// Relative approximation error (from the core-norm identity).
    pub rel_error: f64,
}

/// Runs STHOSVD, processing modes `0, 1, …, d−1` in order.
///
/// This is [`crate::dist::dist_sthosvd`] on a one-rank universe over an
/// all-ones grid: each call spawns one thread and copies `x` once into
/// the rank's block.
pub fn sthosvd<T: Scalar>(x: &DenseTensor<T>, trunc: &SthosvdTruncation) -> SthosvdResult<T> {
    let (res, tucker) = on_one_rank(x, |grid, xd| dist_sthosvd(grid, xd, trunc));
    SthosvdResult {
        tucker,
        timings: res.timings,
        rel_error: res.rel_error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticSpec;
    use crate::timings::Phase;

    #[test]
    fn exact_recovery_of_noiseless_tucker() {
        let spec = SyntheticSpec::new(&[10, 9, 8], &[3, 2, 4], 0.0, 11);
        let x = spec.build::<f64>();
        let res = sthosvd(&x, &SthosvdTruncation::Ranks(vec![3, 2, 4]));
        assert!(res.rel_error < 1e-6, "rel_error {}", res.rel_error);
        // Reconstruction agrees with the identity-based error.
        let rec_err = res.tucker.reconstruct().rel_error(&x);
        assert!((rec_err - res.rel_error).abs() < 1e-6);
    }

    #[test]
    fn error_specified_meets_tolerance_and_trims_ranks() {
        let spec = SyntheticSpec::new(&[12, 11, 10], &[3, 3, 3], 0.01, 13);
        let x = spec.build::<f64>();
        let res = sthosvd(&x, &SthosvdTruncation::RelError(0.1));
        assert!(res.rel_error <= 0.1, "rel_error {}", res.rel_error);
        // With noise at 1% and ε = 10%, the true ranks suffice.
        for (&r, &r_true) in res.tucker.ranks().iter().zip(&[3usize, 3, 3]) {
            assert!(r <= r_true, "rank {r} > true {r_true}");
        }
    }

    #[test]
    fn tight_tolerance_keeps_more_rank_than_loose() {
        let spec = SyntheticSpec::new(&[14, 12, 10], &[4, 4, 4], 0.05, 17);
        let x = spec.build::<f64>();
        let loose = sthosvd(&x, &SthosvdTruncation::RelError(0.3));
        let tight = sthosvd(&x, &SthosvdTruncation::RelError(0.06));
        let sl: usize = loose.tucker.storage_entries();
        let st: usize = tight.tucker.storage_entries();
        assert!(st >= sl, "tight {st} < loose {sl}");
        assert!(tight.rel_error <= 0.06);
    }

    #[test]
    fn factors_orthonormal_and_error_identity_consistent() {
        let spec = SyntheticSpec::new(&[9, 8, 7, 6], &[2, 2, 2, 2], 0.02, 19);
        let x = spec.build::<f64>();
        let res = sthosvd(&x, &SthosvdTruncation::Ranks(vec![2, 2, 2, 2]));
        assert!(res.tucker.orthonormality_defect() < 1e-10);
        let direct = res.tucker.reconstruct().rel_error(&x);
        assert!((direct - res.rel_error).abs() < 1e-8);
    }

    #[test]
    fn timings_cover_expected_phases() {
        let spec = SyntheticSpec::new(&[8, 8, 8], &[2, 2, 2], 0.0, 23);
        let x = spec.build::<f32>();
        let res = sthosvd(&x, &SthosvdTruncation::Ranks(vec![2, 2, 2]));
        assert!(res.timings.flops(Phase::Gram) > 0);
        assert!(res.timings.flops(Phase::Evd) > 0);
        assert!(res.timings.flops(Phase::Ttm) > 0);
        assert_eq!(res.timings.flops(Phase::Qr), 0);
    }

    #[test]
    fn quasi_optimality_error_bounded_by_noise() {
        // STHOSVD at the true ranks must achieve error ≈ the noise floor.
        let spec = SyntheticSpec::new(&[12, 12, 12], &[3, 3, 3], 0.05, 29);
        let x = spec.build::<f64>();
        let res = sthosvd(&x, &SthosvdTruncation::Ranks(vec![3, 3, 3]));
        assert!(res.rel_error < 0.06, "rel_error {}", res.rel_error);
        assert!(res.rel_error > 0.01, "suspiciously low {}", res.rel_error);
    }
}
