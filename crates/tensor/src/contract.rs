//! All-but-one tensor contractions.
//!
//! The subspace-iteration LLSV (Alg. 5, line 3) needs `Z = A · Gᵀ` where
//! `A = Y_(j)` is the unfolding of the all-but-one multi-TTM result and
//! `G = G_(j)` is the matching unfolding of the current core. Written on
//! tensors, `Z[a, b] = Σ_{i : i_j = a} Y[i] · G[i with i_j ← b]` — a
//! contraction over every mode except `j` between two tensors that agree
//! in all non-`j` dimensions. The paper notes this kernel did not exist in
//! TuckerMPI and "mimics the computation of the Gram matrix … but is a
//! nonsymmetric operation" (§3.4); this module is that kernel.
//!
//! Each entry of `Z` sums the unfolding's columns in ascending (slab,
//! row) order, and the path runs that one chain three ways, chosen by
//! shape alone ([`contract_path`]):
//!
//! - `left = 1` (mode 0, or leading modes of extent 1): both unfoldings
//!   are the tensors' natural views, one `gemm_nt`;
//! - one right slab's product is tiny (small `left`): the unfoldings
//!   are *streamed* the way the Gram streams its own ([`crate::gram`]):
//!   [`kernels::KC`] columns at a time of `Y_(j)` and `G_(j)` are copied
//!   into `n_j × KC` and `r_j × KC` scratch blocks, each pair one
//!   `gemm_nt`. One `gemm_tn` per right slab would run at depth `left`,
//!   which once mode 0 is truncated is about 16 per call;
//! - otherwise: one `gemm_tn` of depth `left` per right slab, which at
//!   such sizes is faster than copying the unfoldings.
//!
//! The paths are bitwise equal: splitting `k` into separate accumulating
//! calls does not change a GEMM's chain (the `kernels` contract). The
//! scratch, at most `(n_j + r_j) · KC` entries, is bounded kernel
//! workspace and, like the packing buffers, is not charged to the memory
//! ledger.

use crate::dense::DenseTensor;
use crate::gram::copy_unfolding_cols;
use crate::kernels;
use crate::matrix::Matrix;
use crate::scalar::Scalar;

/// Computes `Z = Y_(mode) · G_(mode)ᵀ` (an `n_mode × r_mode` matrix)
/// without materializing either unfolding.
///
/// # Panics
/// Panics if `y` and `g` differ in any dimension other than `mode`.
pub fn contract_all_but<T: Scalar>(
    y: &DenseTensor<T>,
    g: &DenseTensor<T>,
    mode: usize,
) -> Matrix<T> {
    let mut z = Matrix::zeros(y.dim(mode), g.dim(mode));
    contract_all_but_accumulate(y, g, mode, &mut z);
    z
}

/// Accumulating form of [`contract_all_but`], for distributed partial sums.
pub fn contract_all_but_accumulate<T: Scalar>(
    y: &DenseTensor<T>,
    g: &DenseTensor<T>,
    mode: usize,
    z: &mut Matrix<T>,
) {
    assert_eq!(y.order(), g.order(), "order mismatch in contraction");
    for k in 0..y.order() {
        if k != mode {
            assert_eq!(
                y.dim(k),
                g.dim(k),
                "contraction requires matching dims in mode {k} (got {} vs {})",
                y.dim(k),
                g.dim(k)
            );
        }
    }
    let n_j = y.dim(mode);
    let r_j = g.dim(mode);
    assert_eq!(z.rows(), n_j);
    assert_eq!(z.cols(), r_j);

    let (left, right) = (y.shape().left(mode), y.shape().right(mode));
    let cols = left * right;
    let (yd, gd, zd) = (y.data(), g.data(), z.as_mut_slice());
    match contract_path(left, n_j, r_j) {
        // Z = Y_(j) · G_(j)ᵀ on the natural views: (n_j × cols)·(cols × r_j).
        ContractPath::Natural => kernels::gemm_nt(n_j, r_j, cols, yd, n_j, gd, r_j, zd, n_j),
        ContractPath::Streamed => {
            let kc = kernels::KC.min(cols);
            let mut yb = vec![T::ZERO; n_j * kc];
            let mut gb = vec![T::ZERO; r_j * kc];
            for c0 in (0..cols).step_by(kernels::KC) {
                let kb = kernels::KC.min(cols - c0);
                copy_unfolding_cols(yd, left, n_j, c0, &mut yb[..n_j * kb]);
                copy_unfolding_cols(gd, left, r_j, c0, &mut gb[..r_j * kb]);
                kernels::gemm_nt(n_j, r_j, kb, &yb, n_j, &gb, r_j, zd, n_j);
            }
        }
        ContractPath::PerSlab => {
            let (y_slab, g_slab) = (left * n_j, left * r_j);
            // Z += A_rᵀ B_r for each right slab (A_r : left×n_j, B_r : left×r_j).
            for r in 0..right {
                let a = &yd[r * y_slab..(r + 1) * y_slab];
                let b = &gd[r * g_slab..(r + 1) * g_slab];
                kernels::gemm_tn(n_j, r_j, left, a, left, b, left, zd, n_j);
            }
        }
    }
}

/// The loop nest [`contract_all_but_accumulate`] runs (see the module
/// docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ContractPath {
    Natural,
    Streamed,
    PerSlab,
}

/// Picks the path by shape alone: stream when one right slab's
/// `n_j × r_j × left` product is below [`kernels::PACK_MIN_FLOPS`],
/// where the per-slab GEMM would run the kernels' unblocked loop. In
/// f64 on a 2-vCPU AVX-512 Xeon (best of 200 calls, `n_j` 24, `r_j` 16,
/// 200 right slabs) that cut is where the paths cross: `left` 21 ran
/// 1.39 ms per slab against 0.34 ms streamed, `left` 22 (packed slabs)
/// 0.29 against 0.36. The 24×24×33×16 HCCI-like SI's mode 1 (`left`
/// 16) runs 1.36 → 0.33 ms; its mode 2 (`left` 256) stays per slab,
/// where streaming measured 0.19 → 0.32 ms. A streamed block's
/// `n_j · r_j · KC` product is then below `par::PAR_MIN_FLOPS`, so it
/// runs on one worker, as the slabs it replaces did.
fn contract_path(left: usize, n_j: usize, r_j: usize) -> ContractPath {
    if left <= 1 {
        ContractPath::Natural
    } else if 2 * (n_j as u64) * (r_j as u64) * (left as u64) < kernels::PACK_MIN_FLOPS {
        ContractPath::Streamed
    } else {
        ContractPath::PerSlab
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unfold::unfold;

    fn tensor_from_seed(dims: &[usize], seed: f64) -> DenseTensor<f64> {
        DenseTensor::from_fn(crate::shape::Shape::new(dims), |idx| {
            let mut v = seed;
            for (k, &i) in idx.iter().enumerate() {
                v += ((k + 1) * (i + 2)) as f64 * 0.13;
            }
            v.sin()
        })
    }

    #[test]
    fn contraction_matches_unfold_reference() {
        let dims_y = [4, 3, 5];
        for mode in 0..3 {
            let mut dims_g = dims_y;
            dims_g[mode] = 2; // r_mode != n_mode
            let y = tensor_from_seed(&dims_y, 0.1);
            let g = tensor_from_seed(&dims_g, 0.7);
            let want = unfold(&y, mode).matmul(&unfold(&g, mode).transpose());
            let got = contract_all_but(&y, &g, mode);
            assert!(got.max_abs_diff(&want) < 1e-11, "mode {mode}");
        }
    }

    #[test]
    fn contraction_with_self_equals_gram() {
        let y = tensor_from_seed(&[3, 4, 2], 0.2);
        for mode in 0..3 {
            let z = contract_all_but(&y, &y, mode);
            let g = crate::gram::gram(&y, mode);
            assert!(z.max_abs_diff(&g) < 1e-11, "mode {mode}");
        }
    }

    #[test]
    fn accumulate_form_sums() {
        let y = tensor_from_seed(&[3, 4], 0.3);
        let g = tensor_from_seed(&[3, 2], 0.9);
        let once = contract_all_but(&y, &g, 1);
        let mut acc = once.clone();
        contract_all_but_accumulate(&y, &g, 1, &mut acc);
        for i in 0..acc.rows() {
            for j in 0..acc.cols() {
                assert!((acc[(i, j)] - 2.0 * once[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn contract_shapes_take_the_streamed_path() {
        use ContractPath::*;
        // (dims of Y, mode, r): the 24×24×33×16 HCCI-like SI at r = 16
        // (mode 1's `left` is 16, mode 2's 256, mode 3's 4096), mode 1
        // at r = 10, the 128³ Miranda-like SI at r = 11 (mode 1's slab
        // product, 2·128·11·11, is above the cut), a leading mode of
        // extent 1, the cut at `left` 21 / 22 (n 24, r 16), a 12-long
        // mode that streams at `left` 32, and a last mode behind two
        // short ones.
        let cases: [(&[usize], usize, usize, ContractPath); 12] = [
            (&[24, 16, 16, 16], 0, 16, Natural),
            (&[16, 24, 16, 16], 1, 16, Streamed),
            (&[10, 24, 10, 10], 1, 10, Streamed),
            (&[16, 16, 33, 16], 2, 16, PerSlab),
            (&[16, 16, 16, 16], 3, 16, PerSlab),
            (&[11, 128, 11], 1, 11, PerSlab),
            (&[11, 11, 128], 2, 11, PerSlab),
            (&[1, 24, 16], 1, 16, Natural),
            (&[21, 24, 16], 1, 16, Streamed),
            (&[22, 24, 16], 1, 16, PerSlab),
            (&[32, 12, 16], 1, 16, Streamed),
            (&[2, 8, 24], 2, 16, Streamed),
        ];
        for (dims, mode, r_j, want) in cases {
            let left = crate::shape::Shape::new(dims).left(mode);
            assert_eq!(
                contract_path(left, dims[mode], r_j),
                want,
                "dims {dims:?} mode {mode} r {r_j}"
            );
        }
    }

    /// The per-slab sum every path is bitwise equal to: one `Aᵀ·B` of
    /// depth `left` per right slab, in ascending slab order.
    fn per_slab_contraction<T: Scalar>(
        y: &DenseTensor<T>,
        g: &DenseTensor<T>,
        mode: usize,
        z: &mut Matrix<T>,
    ) {
        let (n_j, r_j) = (y.dim(mode), g.dim(mode));
        let left = y.shape().left(mode);
        for r in 0..y.shape().right(mode) {
            let a = &y.data()[r * left * n_j..(r + 1) * left * n_j];
            let b = &g.data()[r * left * r_j..(r + 1) * left * r_j];
            kernels::gemm_tn(n_j, r_j, left, a, left, b, left, z.as_mut_slice(), n_j);
        }
    }

    #[test]
    fn streamed_contraction_is_bitwise_the_per_slab_sum_on_every_mode() {
        fn run<T: Scalar>() {
            let bits = |z: &Matrix<T>| {
                z.as_slice()
                    .iter()
                    .map(|v| v.to_f64().to_bits())
                    .collect::<Vec<_>>()
            };
            let fill = |dims: &[usize], seed: usize| {
                DenseTensor::<T>::from_fn(crate::shape::Shape::new(dims), |idx| {
                    let h = idx[0] * 37 + idx[1] * 11 + idx[2] * 5 + seed;
                    T::from_f64((h as f64 * 0.61).sin())
                })
            };
            // `left` 1 (natural), 3, 16 (streamed), 32 and 33 (per slab
            // at r ≥ 16) in front of a 19-row mode; `right` 1, 40 (one
            // KC block of columns at `left` 3) and 100 (several, with a
            // ragged last one).
            // The last shape's mode-2 slabs clear the worker-split
            // threshold.
            let mut shapes: Vec<[usize; 3]> = Vec::new();
            for left in [1, 3, 16, 32, 33] {
                for right in [1, 40, 100] {
                    shapes.push([left, 19, right]);
                }
            }
            shapes.push([4, 300, 70]);
            for dims in shapes {
                let y = fill(&dims, 0);
                for mode in 0..3 {
                    for r_j in [1, 7, 16] {
                        let mut gdims = dims;
                        gdims[mode] = r_j;
                        let g = fill(&gdims, 3);
                        let n_j = dims[mode];
                        let z0 =
                            Matrix::from_fn(n_j, r_j, |i, j| T::from_f64(0.5 + (i + j) as f64));
                        let mut want = z0.clone();
                        per_slab_contraction(&y, &g, mode, &mut want);
                        for workers in [1, 2] {
                            crate::par::set_num_threads(workers);
                            let mut got = z0.clone();
                            contract_all_but_accumulate(&y, &g, mode, &mut got);
                            assert_eq!(
                                bits(&got),
                                bits(&want),
                                "dims {dims:?} mode {mode} r {r_j} workers {workers}"
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

    #[test]
    #[should_panic(expected = "matching dims")]
    fn rejects_mismatched_free_modes() {
        let y: DenseTensor<f64> = DenseTensor::zeros([3, 4]);
        let g: DenseTensor<f64> = DenseTensor::zeros([3, 5]);
        contract_all_but(&y, &g, 0);
    }
}
