//! Dense `d`-way tensors in generalized column-major layout.

use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::shape::Shape;
use ratucker_mem::{bytes_of, BudgetExceeded, Charge};

/// A dense tensor with entries stored mode-0-fastest.
///
/// The buffer is charged to the calling rank's `ratucker-mem` ledger
/// for the tensor's lifetime (released on drop, re-charged on clone).
/// The infallible constructors track without enforcing;
/// [`DenseTensor::try_zeros`] / [`DenseTensor::try_from_vec`]
/// additionally respect the rank's budget.
#[derive(Clone, PartialEq)]
pub struct DenseTensor<T> {
    shape: Shape,
    data: Vec<T>,
    charge: Charge,
}

impl<T: Scalar> DenseTensor<T> {
    /// All-zeros tensor of the given shape.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let data = vec![T::ZERO; shape.num_entries()];
        let charge = Charge::force(bytes_of::<T>(data.len()));
        DenseTensor {
            shape,
            data,
            charge,
        }
    }

    /// All-zeros tensor charged against the rank's memory budget —
    /// refused (with nothing allocated) if it would not fit.
    pub fn try_zeros(shape: impl Into<Shape>) -> Result<Self, BudgetExceeded> {
        let shape = shape.into();
        let charge = Charge::try_new(bytes_of::<T>(shape.num_entries()))?;
        let data = vec![T::ZERO; shape.num_entries()];
        Ok(DenseTensor {
            shape,
            data,
            charge,
        })
    }

    /// Budget-checked variant of [`DenseTensor::from_vec`]: charges the
    /// adopted buffer against the rank's budget.
    ///
    /// # Panics
    /// Panics if the buffer length does not match the shape.
    pub fn try_from_vec(shape: impl Into<Shape>, data: Vec<T>) -> Result<Self, BudgetExceeded> {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.num_entries(),
            "buffer length {} does not match shape {shape}",
            data.len()
        );
        let charge = Charge::try_new(bytes_of::<T>(data.len()))?;
        Ok(DenseTensor {
            shape,
            data,
            charge,
        })
    }

    /// Builds a tensor entry-wise from a multi-index function.
    pub fn from_fn(shape: impl Into<Shape>, mut f: impl FnMut(&[usize]) -> T) -> Self {
        let shape = shape.into();
        let mut data = Vec::with_capacity(shape.num_entries());
        shape.for_each_index(|idx| data.push(f(idx)));
        let charge = Charge::force(bytes_of::<T>(data.len()));
        DenseTensor {
            shape,
            data,
            charge,
        }
    }

    /// Wraps an existing buffer (must be in layout order).
    ///
    /// # Panics
    /// Panics if the buffer length does not match the shape.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<T>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.num_entries(),
            "buffer length {} does not match shape {shape}",
            data.len()
        );
        let charge = Charge::force(bytes_of::<T>(data.len()));
        DenseTensor {
            shape,
            data,
            charge,
        }
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of modes.
    #[inline]
    pub fn order(&self) -> usize {
        self.shape.order()
    }

    /// Dimension of mode `j`.
    #[inline]
    pub fn dim(&self, mode: usize) -> usize {
        self.shape.dim(mode)
    }

    /// Total entry count.
    #[inline]
    pub fn num_entries(&self) -> usize {
        self.data.len()
    }

    /// `true` when every entry is finite (no NaN/Inf) — the screening
    /// predicate applied at distributed kernel boundaries.
    pub fn all_finite(&self) -> bool {
        crate::kernels::all_finite(&self.data)
    }

    /// Underlying buffer in layout order.
    #[inline]
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Mutable buffer access.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Entry at a multi-index.
    #[inline]
    pub fn get(&self, idx: &[usize]) -> T {
        self.data[self.shape.linear_index(idx)]
    }

    /// Frobenius-style tensor norm ‖X‖ (accumulated in `f64`).
    pub fn norm(&self) -> T {
        T::from_f64(self.squared_norm_f64().sqrt())
    }

    /// ‖X‖² accumulated in `f64`, the quantity the rank-adaptive stopping
    /// rule of Alg. 3 compares against `(1-ε²)‖X‖²`.
    pub fn squared_norm_f64(&self) -> f64 {
        crate::flops::add(2 * self.data.len() as u64);
        let mut acc = 0.0f64;
        for &x in &self.data {
            let v = x.to_f64();
            acc += v * v;
        }
        acc
    }

    /// In-place `self += alpha * other` (used by noise injection).
    pub fn add_scaled(&mut self, alpha: T, other: &DenseTensor<T>) {
        assert_eq!(self.shape, other.shape, "shape mismatch in add_scaled");
        crate::kernels::axpy(alpha, &other.data, &mut self.data);
    }

    /// Scales every entry.
    pub fn scale(&mut self, alpha: T) {
        crate::kernels::scal(alpha, &mut self.data);
    }

    /// Largest absolute entry-wise difference (test helper).
    pub fn max_abs_diff(&self, other: &DenseTensor<T>) -> f64 {
        assert_eq!(self.shape, other.shape, "shape mismatch in max_abs_diff");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a.to_f64() - b.to_f64()).abs())
            .fold(0.0, f64::max)
    }

    /// Relative Frobenius error ‖self − other‖ / ‖other‖.
    pub fn rel_error(&self, other: &DenseTensor<T>) -> f64 {
        assert_eq!(self.shape, other.shape, "shape mismatch in rel_error");
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for (&a, &b) in self.data.iter().zip(&other.data) {
            let d = a.to_f64() - b.to_f64();
            num += d * d;
            den += b.to_f64() * b.to_f64();
        }
        (num / den).sqrt()
    }

    /// The leading subtensor `X(0..r_0, …, 0..r_{d-1})` as a new tensor.
    ///
    /// This is the truncation primitive of the rank-adaptive core analysis
    /// (§3.2): any leading subtensor of the core, with the corresponding
    /// leading factor columns, is a valid Tucker approximation.
    pub fn leading_subtensor(&self, ranks: &[usize]) -> DenseTensor<T> {
        assert_eq!(ranks.len(), self.order(), "rank vector order mismatch");
        for (k, &r) in ranks.iter().enumerate() {
            assert!(
                r >= 1 && r <= self.dim(k),
                "rank {r} out of range for mode {k} (dim {})",
                self.dim(k)
            );
        }
        let mut data = Vec::with_capacity(ranks.iter().product());
        append_block(
            &self.data,
            self.shape.dims(),
            &vec![0; ranks.len()],
            ranks,
            &mut data,
        );
        DenseTensor::from_vec(Shape::new(ranks), data)
    }

    /// Reinterprets the buffer under a new shape with equal entry count.
    pub fn reshape(self, shape: impl Into<Shape>) -> DenseTensor<T> {
        let shape = shape.into();
        assert_eq!(
            shape.num_entries(),
            self.data.len(),
            "reshape must preserve entry count"
        );
        DenseTensor {
            shape,
            data: self.data,
            charge: self.charge,
        }
    }

    /// Converts a 2-way tensor into a [`Matrix`] (zero-copy).
    pub fn into_matrix(self) -> Matrix<T> {
        assert_eq!(self.order(), 2, "into_matrix requires a 2-way tensor");
        Matrix::from_vec(self.dim(0), self.dim(1), self.data)
    }
}

impl<T: Scalar> std::fmt::Debug for DenseTensor<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DenseTensor({}, {} entries, ‖·‖={:.6e})",
            self.shape,
            self.num_entries(),
            self.norm().to_f64()
        )
    }
}

/// Walks a hyper-rectangle of `extents` that sits at `src_off` in a
/// column-major buffer of shape `src_dims` and at `dst_off` in one of
/// shape `dst_dims`, calling `f(src_start, dst_start, len)` once per
/// contiguous run, in the block's own layout order.
///
/// Runs are mode-0 columns, widened across every leading mode the block
/// spans in full in *both* buffers (a whole-tensor copy is one run). An
/// in-place odometer over the remaining modes carries both linear
/// offsets by precomputed strides, so the walk allocates nothing per
/// run or entry. This is the single data-movement primitive behind
/// [`copy_block`], [`append_block`] and the distributed gather, scatter,
/// slab extraction and redistribution.
///
/// # Panics
/// Panics if the argument orders differ or the block overruns either
/// buffer's shape.
pub fn for_each_run(
    src_dims: &[usize],
    src_off: &[usize],
    dst_dims: &[usize],
    dst_off: &[usize],
    extents: &[usize],
    mut f: impl FnMut(usize, usize, usize),
) {
    let d = extents.len();
    assert!(
        d >= 1
            && [src_dims, src_off, dst_dims, dst_off]
                .iter()
                .all(|v| v.len() == d),
        "block order mismatch"
    );
    for k in 0..d {
        assert!(
            src_off[k] + extents[k] <= src_dims[k] && dst_off[k] + extents[k] <= dst_dims[k],
            "block overruns mode {k}: extent {} at {}/{} into {}/{}",
            extents[k],
            src_off[k],
            dst_off[k],
            src_dims[k],
            dst_dims[k]
        );
    }
    if extents.contains(&0) {
        return;
    }
    // Modes 0..=m form one run: every mode before m is spanned in full
    // by both buffers (so its offsets are zero).
    let m = (0..d - 1)
        .find(|&k| extents[k] != src_dims[k] || extents[k] != dst_dims[k])
        .unwrap_or(d - 1);
    let run: usize = extents[..=m].iter().product();
    let mut src_stride = vec![0usize; d];
    let mut dst_stride = vec![0usize; d];
    let (mut s, mut t) = (0, 0);
    let (mut ss, mut ts) = (1, 1);
    for k in 0..d {
        src_stride[k] = ss;
        dst_stride[k] = ts;
        s += src_off[k] * ss;
        t += dst_off[k] * ts;
        ss *= src_dims[k];
        ts *= dst_dims[k];
    }
    let mut idx = vec![0usize; d];
    loop {
        f(s, t, run);
        let mut k = m + 1;
        loop {
            if k == d {
                return;
            }
            idx[k] += 1;
            s += src_stride[k];
            t += dst_stride[k];
            if idx[k] < extents[k] {
                break;
            }
            s -= src_stride[k] * extents[k];
            t -= dst_stride[k] * extents[k];
            idx[k] = 0;
            k += 1;
        }
    }
}

/// Copies the hyper-rectangle of `extents` at `src_off` in the
/// column-major buffer `src` (shape `src_dims`) to `dst_off` in `dst`
/// (shape `dst_dims`), one contiguous run at a time
/// (see [`for_each_run`]).
pub fn copy_block<T: Copy>(
    src: &[T],
    src_dims: &[usize],
    src_off: &[usize],
    dst: &mut [T],
    dst_dims: &[usize],
    dst_off: &[usize],
    extents: &[usize],
) {
    for_each_run(
        src_dims,
        src_off,
        dst_dims,
        dst_off,
        extents,
        |s, t, len| {
            dst[t..t + len].copy_from_slice(&src[s..s + len]);
        },
    );
}

/// Appends the hyper-rectangle of `extents` at `src_off` in the
/// column-major buffer `src` (shape `src_dims`) to `out`, in the block's
/// own layout order — building a fresh block without first zero-filling
/// it.
pub fn append_block<T: Copy>(
    src: &[T],
    src_dims: &[usize],
    src_off: &[usize],
    extents: &[usize],
    out: &mut Vec<T>,
) {
    out.reserve(extents.iter().product());
    let zeros = vec![0; extents.len()];
    for_each_run(src_dims, src_off, extents, &zeros, extents, |s, _, len| {
        out.extend_from_slice(&src[s..s + len]);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_merge_across_fully_spanned_leading_modes() {
        let mut runs = Vec::new();
        for_each_run(
            &[4, 3, 2],
            &[0, 0, 0],
            &[4, 3, 2],
            &[0, 0, 0],
            &[4, 3, 2],
            |s, t, n| runs.push((s, t, n)),
        );
        assert_eq!(runs, vec![(0, 0, 24)]);
        runs.clear();
        // Full in mode 0 of both, partial in mode 1: one run per mode-2
        // index, each spanning modes 0 and 1.
        for_each_run(
            &[4, 3, 2],
            &[0, 1, 0],
            &[4, 2, 2],
            &[0, 0, 0],
            &[4, 2, 2],
            |s, t, n| runs.push((s, t, n)),
        );
        assert_eq!(runs, vec![(4, 0, 8), (16, 8, 8)]);
        runs.clear();
        // Partial in mode 0: plain mode-0 columns.
        for_each_run(&[4, 3], &[1, 1], &[2, 2], &[0, 0], &[2, 2], |s, t, n| {
            runs.push((s, t, n))
        });
        assert_eq!(runs, vec![(5, 0, 2), (9, 2, 2)]);
    }

    #[test]
    #[should_panic(expected = "overruns mode 1")]
    fn copy_block_rejects_an_overrun() {
        let src = [0.0f64; 12];
        let mut dst = [0.0f64; 12];
        copy_block(&src, &[4, 3], &[0, 2], &mut dst, &[4, 3], &[0, 0], &[4, 2]);
    }

    #[test]
    fn buffers_are_ledger_charged_for_their_lifetime() {
        ratucker_mem::install_rank(None, 0);
        let base = ratucker_mem::stats().live;
        let t: DenseTensor<f64> = DenseTensor::zeros([4, 4]);
        assert_eq!(ratucker_mem::stats().live, base + 128);
        let u = t.clone();
        assert_eq!(ratucker_mem::stats().live, base + 256);
        let r = u.reshape([2, 8]); // moves the charge, no re-charge
        assert_eq!(ratucker_mem::stats().live, base + 256);
        drop(r);
        drop(t);
        assert_eq!(ratucker_mem::stats().live, base);
        ratucker_mem::install_rank(None, 0);
    }

    #[test]
    fn try_zeros_respects_the_budget() {
        ratucker_mem::install_rank(Some(200), 0);
        let ok: DenseTensor<f64> = DenseTensor::try_zeros([5]).expect("40 B fits");
        let err = DenseTensor::<f64>::try_zeros([4, 8]).expect_err("256 B must not fit");
        assert_eq!(err.requested, 256);
        assert_eq!(err.budget, 200);
        assert!(DenseTensor::<f64>::try_from_vec([3], vec![1.0; 3]).is_ok());
        drop(ok);
        ratucker_mem::install_rank(None, 0);
    }

    #[test]
    fn from_fn_and_get_agree() {
        let t = DenseTensor::from_fn([2, 3, 4], |idx| {
            (idx[0] + 10 * idx[1] + 100 * idx[2]) as f64
        });
        assert_eq!(t.get(&[1, 2, 3]), 321.0);
        assert_eq!(t.get(&[0, 0, 0]), 0.0);
    }

    #[test]
    fn layout_is_mode0_fastest() {
        let t = DenseTensor::from_fn([2, 2], |idx| (idx[0] + 2 * idx[1]) as f32);
        assert_eq!(t.data(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn norm_matches_manual() {
        let t = DenseTensor::from_vec([2, 2], vec![1.0f64, 2.0, 2.0, 4.0]);
        assert!((t.norm() - 5.0).abs() < 1e-14);
        assert!((t.squared_norm_f64() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn leading_subtensor_extracts() {
        let t = DenseTensor::from_fn([3, 3, 3], |idx| (idx[0] + 3 * idx[1] + 9 * idx[2]) as f64);
        let s = t.leading_subtensor(&[2, 1, 2]);
        assert_eq!(s.shape().dims(), &[2, 1, 2]);
        for idx in s.shape().indices() {
            assert_eq!(s.get(&idx), t.get(&idx));
        }
    }

    #[test]
    fn leading_subtensor_full_is_identity() {
        let t = DenseTensor::from_fn([2, 3], |idx| (idx[0] * 5 + idx[1]) as f32);
        let s = t.leading_subtensor(&[2, 3]);
        assert_eq!(s, t);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn leading_subtensor_rejects_overshoot() {
        let t: DenseTensor<f64> = DenseTensor::zeros([2, 2]);
        t.leading_subtensor(&[3, 1]);
    }

    #[test]
    fn add_scaled_and_rel_error() {
        let a = DenseTensor::from_vec([2], vec![1.0f64, 0.0]);
        let mut b = a.clone();
        let noise = DenseTensor::from_vec([2], vec![0.0f64, 1.0]);
        b.add_scaled(0.5, &noise);
        assert!((b.rel_error(&a) - 0.5).abs() < 1e-14);
    }

    #[test]
    fn all_finite_screens_nan_and_inf() {
        let mut t = DenseTensor::from_fn([2, 3], |idx| (idx[0] + idx[1]) as f64);
        assert!(t.all_finite());
        t.data_mut()[3] = f64::NAN;
        assert!(!t.all_finite());
        t.data_mut()[3] = f64::NEG_INFINITY;
        assert!(!t.all_finite());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = DenseTensor::from_fn([2, 3], |idx| (idx[0] + 2 * idx[1]) as f64);
        let data_before = t.data().to_vec();
        let r = t.reshape([3, 2]);
        assert_eq!(r.data(), &data_before[..]);
    }

    #[test]
    fn into_matrix_roundtrip() {
        let t = DenseTensor::from_fn([3, 2], |idx| (idx[0] + 3 * idx[1]) as f64);
        let m = t.clone().into_matrix();
        for i in 0..3 {
            for j in 0..2 {
                assert_eq!(m[(i, j)], t.get(&[i, j]));
            }
        }
    }
}
