//! Gram matrices of tensor unfoldings.
//!
//! `G = X_(j) X_(j)ᵀ` is the `n_j × n_j` symmetric positive semidefinite
//! matrix whose leading eigenvectors are the leading left singular vectors
//! of the unfolding — the LLSV building block of STHOSVD (Alg. 1) and of
//! the Gram+EVD variants of HOOI (Alg. 2).
//!
//! Every mode runs the `A·Aᵀ` SYRK, whose panels read A in place through
//! the narrow register-tile path (`kernels.rs`, DESIGN.md §16). Mode 0's
//! unfolding is the tensor itself. For `j > 0` the unfolding is
//! *streamed*: [`kernels::KC`] columns at a time, in ascending (slab,
//! row) column order, are copied into an `n_j × KC` scratch block and
//! fed to the SYRK. A per-slab `Aᵀ·A` would run each slab as its own
//! depth-`left` product, which once mode 0 is truncated is a depth of
//! about 8 per call. Each Gram entry still sums the columns in the
//! unfolding's order, the same chain as the per-slab sum. The scratch
//! (at most `n_j · KC` entries per worker) is bounded kernel workspace
//! and, like the packing buffers, is not charged to the memory ledger.

use crate::dense::DenseTensor;
use crate::kernels;
use crate::matrix::Matrix;
use crate::scalar::Scalar;

/// Computes `X_(mode) · X_(mode)ᵀ`.
pub fn gram<T: Scalar>(x: &DenseTensor<T>, mode: usize) -> Matrix<T> {
    let n_j = x.dim(mode);
    let mut g = Matrix::zeros(n_j, n_j);
    gram_accumulate(x, mode, &mut g);
    g
}

/// Accumulates `X_(mode) · X_(mode)ᵀ` into `g` (distributed callers sum
/// local contributions into a shared output before an allreduce).
pub fn gram_accumulate<T: Scalar>(x: &DenseTensor<T>, mode: usize, g: &mut Matrix<T>) {
    let n_j = x.dim(mode);
    assert_eq!(g.rows(), n_j, "Gram output must be n_mode x n_mode");
    assert_eq!(g.cols(), n_j, "Gram output must be n_mode x n_mode");
    if n_j == 0 {
        return;
    }
    let cols = x.num_entries() / n_j;
    if mode == 0 {
        // X_(0) is the natural n_0 × rest view.
        kernels::syrk_nt(n_j, cols, x.data(), n_j, g.as_mut_slice(), n_j);
        return;
    }

    // Every worker streams the whole unfolding for its columns of G, so
    // each entry's chain is the serial one at any worker count. Formula
    // flops for the whole update are charged on the calling rank thread.
    let left = x.shape().left(mode);
    let total_fl = (n_j as u64) * (n_j as u64 + 1) * (cols as u64);
    crate::flops::add(total_fl);
    let xdata = x.data();
    kernels::syrk_columns(n_j, total_fl, g.as_mut_slice(), n_j, |gcols, gsub| {
        let mut block = vec![T::ZERO; n_j * kernels::KC.min(cols)];
        for c0 in (0..cols).step_by(kernels::KC) {
            let kb = kernels::KC.min(cols - c0);
            copy_unfolding_cols(xdata, left, n_j, c0, &mut block[..n_j * kb]);
            kernels::syrk_trapezoid(n_j, kb, &block, n_j, true, gcols.clone(), gsub, n_j);
        }
    });
}

/// Copies columns `c0..` of the unfolding into `block` (`n_j` rows, one
/// column per `n_j` entries). Column `l + r·left` is the mode fiber
/// `x[l, :, r]`: entries `left` apart in slab `r`. The SI contraction
/// ([`crate::contract`]) streams its two unfoldings through it too.
pub(crate) fn copy_unfolding_cols<T: Scalar>(
    x: &[T],
    left: usize,
    n_j: usize,
    c0: usize,
    block: &mut [T],
) {
    for (c, col) in block.chunks_exact_mut(n_j).enumerate() {
        let (l, r) = ((c0 + c) % left, (c0 + c) / left);
        let fiber = &x[l + r * left * n_j..];
        for (i, v) in col.iter_mut().enumerate() {
            *v = fiber[i * left];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unfold::unfold;

    fn test_tensor(dims: &[usize]) -> DenseTensor<f64> {
        DenseTensor::from_fn(crate::shape::Shape::new(dims), |idx| {
            let mut v = 0.3;
            for (k, &i) in idx.iter().enumerate() {
                v += ((k + 1) * (i + 1)) as f64 * 0.07;
            }
            v.cos()
        })
    }

    #[test]
    fn gram_matches_unfold_reference() {
        let x = test_tensor(&[4, 3, 5, 2]);
        for mode in 0..4 {
            let unf = unfold(&x, mode);
            let want = unf.matmul(&unf.transpose());
            let got = gram(&x, mode);
            assert!(got.max_abs_diff(&want) < 1e-11, "mode {mode}");
        }
    }

    #[test]
    fn gram_is_symmetric_psd_trace() {
        let x = test_tensor(&[3, 6, 2]);
        for mode in 0..3 {
            let g = gram(&x, mode);
            // Symmetry.
            assert!(g.max_abs_diff(&g.transpose()) < 1e-12);
            // trace(G) = ‖X‖².
            let trace: f64 = (0..g.rows()).map(|i| g[(i, i)]).sum();
            assert!((trace - x.squared_norm_f64()).abs() < 1e-10, "mode {mode}");
            // Diagonal nonnegative.
            for i in 0..g.rows() {
                assert!(g[(i, i)] >= -1e-14);
            }
        }
    }

    #[test]
    fn gram_accumulate_sums_contributions() {
        let x = test_tensor(&[3, 4]);
        let mut g = gram(&x, 1);
        let single = g.clone();
        gram_accumulate(&x, 1, &mut g);
        // Accumulating a second time doubles every entry.
        for i in 0..g.rows() {
            for j in 0..g.cols() {
                assert!((g[(i, j)] - 2.0 * single[(i, j)]).abs() < 1e-12);
            }
        }
    }

    /// The per-slab sum the streamed unfolding replaced: one `Aᵀ·A`
    /// SYRK per right slab, in ascending slab order.
    fn per_slab_gram<T: Scalar>(x: &DenseTensor<T>, mode: usize, g: &mut Matrix<T>) {
        let n_j = x.dim(mode);
        let left = x.shape().left(mode);
        let slab = left * n_j;
        for r in 0..x.shape().right(mode) {
            let a = &x.data()[r * slab..(r + 1) * slab];
            kernels::syrk_tn(n_j, left, a, left, g.as_mut_slice(), n_j);
        }
    }

    #[test]
    fn streamed_gram_is_bitwise_the_per_slab_sum_on_every_mode() {
        fn run<T: Scalar>() {
            let bits = |g: &Matrix<T>| {
                g.as_slice()
                    .iter()
                    .map(|v| v.to_f64().to_bits())
                    .collect::<Vec<_>>()
            };
            for left in [1, 3, 8, 128] {
                for right in [1, 5, 64] {
                    // 19 = two SYRK panels plus a 3-wide edge panel.
                    let x = DenseTensor::<T>::from_fn(
                        crate::shape::Shape::new(&[left, 19, right]),
                        |idx| T::from_f64(((idx[0] * 37 + idx[1] * 11 + idx[2] * 5) as f64).sin()),
                    );
                    for mode in 0..3 {
                        let n = x.dim(mode);
                        let g0 =
                            Matrix::from_fn(n, n, |i, j| T::from_f64(0.5 + (i * n + j) as f64));
                        let mut want = g0.clone();
                        per_slab_gram(&x, mode, &mut want);
                        for workers in [1, 2, 4] {
                            crate::par::set_num_threads(workers);
                            let mut got = g0.clone();
                            gram_accumulate(&x, mode, &mut got);
                            assert_eq!(
                                bits(&got),
                                bits(&want),
                                "left {left} right {right} mode {mode} workers {workers}"
                            );
                        }
                        crate::par::set_num_threads(1);
                    }
                }
            }
        }
        run::<f32>();
        run::<f64>();
    }
}
