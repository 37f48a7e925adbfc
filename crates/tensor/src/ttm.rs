//! Tensor-times-matrix (TTM) products.
//!
//! `Y = X ×_j M` is defined by `Y_(j) = M · X_(j)`. The kernel never forms
//! the unfolding: with the mode-0-fastest layout, `X` viewed along mode `j`
//! is a stack of `right` contiguous `left × n_j` slabs, and each output
//! slab is one GEMM. Mode 0 collapses to a single large GEMM on the
//! natural matrix view.
//!
//! With a factor of `r ≤ 16` columns applied transposed (the Tucker
//! case), every one of these GEMMs is r-wide, and
//! [`crate::kernels`] runs it on a narrow path that reads the slab in
//! place instead of packing it: `gemm_nn` with `n = r` for `mode > 0`,
//! `gemm_tn` with `m = r` for mode 0. Wider factors and
//! [`Transpose::No`] run the packed path.
//!
//! In the Tucker algorithms the matrix is almost always a *factor matrix
//! transposed* (`X ×_j U_jᵀ` with `U_j ∈ ℝ^{n_j×r_j}`), so the API takes
//! the factor as stored plus a [`Transpose`] flag rather than forcing
//! callers to materialize `Uᵀ`.

use crate::dense::DenseTensor;
use crate::kernels;
use crate::matrix::Matrix;
use crate::scalar::Scalar;

/// Whether the matrix operand of a TTM is applied as stored or transposed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transpose {
    /// `Y_(j) = M · X_(j)` with `M : p × n_j`.
    No,
    /// `Y_(j) = Mᵀ · X_(j)` with `M : n_j × p` (the factor-matrix case).
    Yes,
}

/// Computes `Y = X ×_mode op(M)`: [`ttm_right_range`] over every
/// output slab, wrapped as a tensor.
///
/// # Panics
/// Panics if the inner dimension of `op(M)` does not match `n_mode`.
pub fn ttm<T: Scalar>(
    x: &DenseTensor<T>,
    mode: usize,
    m: &Matrix<T>,
    trans: Transpose,
) -> DenseTensor<T> {
    let p = match trans {
        Transpose::No => m.rows(),
        Transpose::Yes => m.cols(),
    };
    let shape = x.shape();
    let data = ttm_right_range(x, mode, m, trans, 0..shape.left(mode), 0..shape.right(mode));
    DenseTensor::from_vec(shape.with_dim(mode, p), data)
}

/// Computes the block of `Y = X ×_mode op(M)` that the left-index range
/// `rows` and the output-slab range `range` select, without
/// materializing the input slab. It is returned packed as
/// `[rows.len(), p, range.len()]`: `range.len()` slabs of `rows.len() ×
/// p` (for mode 0, whose left extent is 1, the column range `range` of
/// the natural `p × (N/n_0)` output view).
///
/// Any block is bit-identical to the matching entries of the full
/// product: for `mode > 0` each output slab is one independent GEMM
/// (split across the worker pool by whole slabs when there are enough)
/// and `rows` restricts it to a row range of its `left × n_mode`
/// operand, and for `mode == 0` the restriction is a column range of
/// the single natural GEMM. Each output entry is the same ascending-k
/// chain whatever the row or column partition (the §16 kernel
/// contract).
///
/// # Panics
/// Panics on an inner dimension mismatch, or if `rows` exceeds the left
/// extent or `range` the right extent (`N/n_0` for mode 0).
pub fn ttm_right_range<T: Scalar>(
    x: &DenseTensor<T>,
    mode: usize,
    m: &Matrix<T>,
    trans: Transpose,
    rows: std::ops::Range<usize>,
    range: std::ops::Range<usize>,
) -> Vec<T> {
    let n_j = x.dim(mode);
    let (p, inner) = match trans {
        Transpose::No => (m.rows(), m.cols()),
        Transpose::Yes => (m.cols(), m.rows()),
    };
    assert_eq!(
        inner, n_j,
        "TTM inner dimension mismatch in mode {mode}: op(M) is ?x{inner}, n_mode={n_j}"
    );
    let left = x.shape().left(mode);
    assert!(rows.end <= left, "left range {rows:?} exceeds {left}");
    let cols = range.len();

    if mode == 0 {
        let rest = x.num_entries() / n_j;
        assert!(range.end <= rest, "right range {range:?} exceeds {rest}");
        if rows.is_empty() {
            return Vec::new();
        }
        let a = &x.data()[range.start * n_j..range.end * n_j];
        let mut y = vec![T::ZERO; p * cols];
        match trans {
            Transpose::No => kernels::gemm_nn(p, cols, n_j, m.as_slice(), p, a, n_j, &mut y, p),
            Transpose::Yes => kernels::gemm_tn(p, cols, n_j, m.as_slice(), n_j, a, n_j, &mut y, p),
        }
        return y;
    }

    let right = x.shape().right(mode);
    assert!(range.end <= right, "right range {range:?} exceeds {right}");
    let h = rows.len();
    let x_slab = left * n_j;
    let y_slab = h * p;
    let bt = trans == Transpose::No;
    let ldb = if bt { p } else { n_j };
    let mut y = vec![T::ZERO; y_slab * cols];
    // Slab `r`'s operand rows `rows`: a `h × n_j` view with stride `left`.
    let operand = |r: usize| &x.data()[r * x_slab + rows.start..(r + 1) * x_slab];

    let total_fl = 2 * (h as u64) * (p as u64) * (n_j as u64) * (cols as u64);
    let nt = crate::par::num_threads();
    if nt > 1 && cols >= nt && total_fl >= crate::par::PAR_MIN_FLOPS {
        // Enough slabs to feed every worker: split the slab batch
        // across the pool. Each output slab is written by exactly one
        // worker, so the per-element accumulation order is unchanged
        // and the result is bit-identical to the serial loop below. The
        // flop formula for the whole batch is charged on the calling
        // rank thread, matching the accounting convention in `flops`.
        crate::flops::add(total_fl);
        let mslice = m.as_slice();
        let ranges = crate::par::partition(cols, nt);
        let start = range.start;
        let parts = crate::par::split_columns(&mut y, y_slab, &ranges);
        crate::par::for_each_part(parts, |_, (slabs, ysub)| {
            for (off, c) in ysub.chunks_exact_mut(y_slab).enumerate() {
                let a = operand(start + slabs.start + off);
                kernels::gemm_serial(h, p, n_j, a, left, false, mslice, ldb, bt, c, h);
            }
        });
        return y;
    }

    for (off, r) in range.enumerate() {
        let a = operand(r);
        let c = &mut y[off * y_slab..(off + 1) * y_slab];
        match trans {
            Transpose::No => kernels::gemm_nt(h, p, n_j, a, left, m.as_slice(), p, c, h),
            Transpose::Yes => kernels::gemm_nn(h, p, n_j, a, left, m.as_slice(), n_j, c, h),
        }
    }
    y
}

/// Cuts a TTM's `left × right` grid of output rows and slabs into
/// about `n` blocks for [`ttm_right_range`]: along the right extent
/// first, and along the left extent only when `right` is smaller than
/// `n`. Returns the `(left, right)` block counts, each at least 1.
pub fn slab_grid(left: usize, right: usize, n: usize) -> (usize, usize) {
    let n_right = right.min(n).max(1);
    (left.min(n.div_ceil(n_right)).max(1), n_right)
}

/// Applies a sequence of TTMs in the given order.
///
/// Each element is `(mode, matrix, transpose)`. Order matters for cost but
/// not for the result (TTMs in distinct modes commute); the Tucker
/// algorithms choose orders deliberately (see the dimension-tree module).
pub fn multi_ttm<T: Scalar>(
    x: &DenseTensor<T>,
    ops: &[(usize, &Matrix<T>, Transpose)],
) -> DenseTensor<T> {
    let mut cur: Option<DenseTensor<T>> = None;
    for &(mode, m, trans) in ops {
        let next = match &cur {
            None => ttm(x, mode, m, trans),
            Some(t) => ttm(t, mode, m, trans),
        };
        cur = Some(next);
    }
    cur.unwrap_or_else(|| x.clone())
}

/// Convenience: `X ×_1 U_1ᵀ ×_2 U_2ᵀ … ×_d U_dᵀ` skipping `skip_mode`
/// (the all-but-one multi-TTM at the heart of each HOOI subiteration,
/// Alg. 2 line 5). Modes are applied in increasing order except that the
/// skipped mode is omitted; pass `skip_mode = usize::MAX` to apply all.
pub fn multi_ttm_all_but<T: Scalar>(
    x: &DenseTensor<T>,
    factors: &[Matrix<T>],
    skip_mode: usize,
) -> DenseTensor<T> {
    let ops: Vec<(usize, &Matrix<T>, Transpose)> = factors
        .iter()
        .enumerate()
        .filter(|&(k, _)| k != skip_mode)
        .map(|(k, u)| (k, u, Transpose::Yes))
        .collect();
    multi_ttm(x, &ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unfold::{fold, unfold};

    fn reference_ttm(
        x: &DenseTensor<f64>,
        mode: usize,
        m: &Matrix<f64>,
        trans: Transpose,
    ) -> DenseTensor<f64> {
        let unf = unfold(x, mode);
        let prod = match trans {
            Transpose::No => m.matmul(&unf),
            Transpose::Yes => m.t_matmul(&unf),
        };
        let p = match trans {
            Transpose::No => m.rows(),
            Transpose::Yes => m.cols(),
        };
        fold(&prod, mode, &x.shape().with_dim(mode, p))
    }

    fn test_tensor(dims: &[usize]) -> DenseTensor<f64> {
        DenseTensor::from_fn(crate::shape::Shape::new(dims), |idx| {
            let mut v = 1.0;
            for (k, &i) in idx.iter().enumerate() {
                v += ((k + 2) * i) as f64 * 0.1;
            }
            v.sin()
        })
    }

    /// Checks that `ttm_right_range` at each split in `splits(right)`,
    /// crossed with each left split in `row_splits(left)` for modes > 0,
    /// is the exact bit pattern of the matching block of the full
    /// output, for every mode, both transposes and each output width in
    /// `ps`.
    fn assert_ranges_slice_full_ttm(
        dims: &[usize],
        ps: &[usize],
        splits: impl Fn(usize) -> Vec<usize>,
        row_splits: impl Fn(usize) -> Vec<usize>,
    ) {
        let x = test_tensor(dims);
        for mode in 0..dims.len() {
            let n_j = x.dim(mode);
            let left = x.shape().left(mode);
            let row_cuts = if mode == 0 {
                vec![left]
            } else {
                row_splits(left)
            };
            for &p in ps {
                for trans in [Transpose::No, Transpose::Yes] {
                    let op = match trans {
                        Transpose::No => {
                            Matrix::from_fn(p, n_j, |i, j| ((i * n_j + j) as f64).cos())
                        }
                        Transpose::Yes => {
                            Matrix::from_fn(n_j, p, |i, j| ((i + 3 * j) as f64).sin())
                        }
                    };
                    let full = ttm(&x, mode, &op, trans);
                    let right = full.num_entries() / (left * p);
                    for split in splits(right) {
                        for cut in &row_cuts {
                            for range in [0..split, split..right] {
                                for rows in [0..*cut, *cut..left] {
                                    let part = ttm_right_range(
                                        &x,
                                        mode,
                                        &op,
                                        trans,
                                        rows.clone(),
                                        range.clone(),
                                    );
                                    let want: Vec<u64> = range
                                        .clone()
                                        .flat_map(|r| (0..p).map(move |i| (r * p + i) * left))
                                        .flat_map(|base| {
                                            full.data()[base + rows.start..base + rows.end].iter()
                                        })
                                        .map(|v| v.to_bits())
                                        .collect();
                                    assert_eq!(
                                        part.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                                        want,
                                        "mode {mode} p {p} {trans:?} split {split} rows {rows:?}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ttm_right_range_is_bitwise_slice_of_full_ttm() {
        assert_ranges_slice_full_ttm(
            &[4, 3, 5, 2],
            &[2],
            |right| (0..=right).collect(),
            |left| (0..=left).collect(),
        );
    }

    #[test]
    fn ttm_right_range_is_bitwise_slice_of_full_ttm_above_pack_threshold() {
        // Past PACK_MIN_FLOPS, so each width reaches the kernel path it
        // selects: the narrow ones for p ≤ 16 (`Transpose::Yes`), the
        // packed one for p = 17 and for `Transpose::No`. Every split for
        // modes 1 and 2; mode 0's 384 output columns are split at every
        // 37th column and next to the ends. Modes 1 and 2 also cut their
        // left extent (32 and 768 rows) next to the ends, where the thin
        // row slab falls below the pack threshold onto the small path,
        // and at an odd interior row that splits the row tiles.
        assert_ranges_slice_full_ttm(
            &[32, 24, 16],
            &[1, 7, 16, 17],
            |right| {
                let mut s: Vec<usize> = (0..=right)
                    .step_by(if right > 100 { 37 } else { 1 })
                    .collect();
                s.extend([1, right - 1, right]);
                s
            },
            |left| vec![0, 1, left / 2 + 3, left - 1],
        );
    }

    #[test]
    fn ttm_matches_unfold_reference_all_modes() {
        let x = test_tensor(&[4, 3, 5, 2]);
        for mode in 0..4 {
            let n_j = x.dim(mode);
            let m = Matrix::from_fn(2, n_j, |i, j| ((i * n_j + j) as f64).cos());
            let fast = ttm(&x, mode, &m, Transpose::No);
            let slow = reference_ttm(&x, mode, &m, Transpose::No);
            assert!(fast.max_abs_diff(&slow) < 1e-12, "mode {mode}");
        }
    }

    #[test]
    fn ttm_transposed_matches_reference() {
        let x = test_tensor(&[3, 4, 2]);
        for mode in 0..3 {
            let n_j = x.dim(mode);
            let u = Matrix::from_fn(n_j, 2, |i, j| ((i + 3 * j) as f64).sin());
            let fast = ttm(&x, mode, &u, Transpose::Yes);
            let slow = reference_ttm(&x, mode, &u, Transpose::Yes);
            assert!(fast.max_abs_diff(&slow) < 1e-12, "mode {mode}");
        }
    }

    #[test]
    fn ttm_identity_is_noop() {
        let x = test_tensor(&[3, 4, 2]);
        for mode in 0..3 {
            let id = Matrix::identity(x.dim(mode));
            let y = ttm(&x, mode, &id, Transpose::No);
            assert_eq!(y.max_abs_diff(&x), 0.0);
        }
    }

    #[test]
    fn ttms_in_distinct_modes_commute() {
        let x = test_tensor(&[4, 3, 5]);
        let a = Matrix::from_fn(2, 4, |i, j| ((i + j) as f64).sin());
        let b = Matrix::from_fn(2, 5, |i, j| ((i * 2 + j) as f64).cos());
        let y1 = ttm(&ttm(&x, 0, &a, Transpose::No), 2, &b, Transpose::No);
        let y2 = ttm(&ttm(&x, 2, &b, Transpose::No), 0, &a, Transpose::No);
        assert!(y1.max_abs_diff(&y2) < 1e-12);
    }

    #[test]
    fn ttm_is_linear_in_tensor() {
        let x = test_tensor(&[3, 4]);
        let mut x2 = x.clone();
        x2.scale(2.0);
        let m = Matrix::from_fn(2, 4, |i, j| (i + j) as f64);
        let mut y = ttm(&x, 1, &m, Transpose::No);
        y.scale(2.0);
        let y2 = ttm(&x2, 1, &m, Transpose::No);
        assert!(y.max_abs_diff(&y2) < 1e-12);
    }

    #[test]
    fn multi_ttm_all_but_skips_mode() {
        let x = test_tensor(&[4, 3, 5]);
        let factors: Vec<Matrix<f64>> = (0..3)
            .map(|k| Matrix::from_fn(x.dim(k), 2, |i, j| ((i + j + k) as f64).sin()))
            .collect();
        let y = multi_ttm_all_but(&x, &factors, 1);
        assert_eq!(y.shape().dims(), &[2, 3, 2]);
        let expect = ttm(
            &ttm(&x, 0, &factors[0], Transpose::Yes),
            2,
            &factors[2],
            Transpose::Yes,
        );
        assert!(y.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn multi_ttm_empty_is_copy() {
        let x = test_tensor(&[2, 2]);
        let y = multi_ttm(&x, &[]);
        assert_eq!(y.max_abs_diff(&x), 0.0);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn ttm_rejects_bad_dims() {
        let x: DenseTensor<f64> = DenseTensor::zeros([3, 4]);
        let m: Matrix<f64> = Matrix::zeros(2, 5);
        ttm(&x, 0, &m, Transpose::No);
    }

    #[test]
    fn norm_invariant_under_orthogonal_ttm() {
        // ‖X ×_j Qᵀ‖ = ‖X‖ when Q is square orthogonal.
        let x = test_tensor(&[3, 4, 2]);
        // Householder-free orthogonal matrix: permutation + sign flips.
        let q = {
            let mut q = Matrix::zeros(4, 4);
            q[(0, 2)] = 1.0;
            q[(1, 0)] = -1.0;
            q[(2, 3)] = 1.0;
            q[(3, 1)] = -1.0;
            q
        };
        let y = ttm(&x, 1, &q, Transpose::Yes);
        assert!((y.norm() - x.norm()).abs() < 1e-12);
    }
}
