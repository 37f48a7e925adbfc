//! Symmetric eigenvalue decomposition.
//!
//! Classic two-stage dense symmetric eigensolver: Householder
//! tridiagonalization (EISPACK `tred2`) followed by the implicit-shift QL
//! iteration with eigenvector accumulation (`tql2`). This is the
//! "sequential EVD" of TuckerMPI's LLSV whose `O(n³)` cost the paper
//! identifies as STHOSVD's scaling bottleneck (§2.1, §4.1) — we keep it
//! deliberately sequential for the same reason TuckerMPI does, so the
//! bottleneck is reproduced rather than papered over.

use ratucker_tensor::flops;
use ratucker_tensor::matrix::Matrix;
use ratucker_tensor::scalar::Scalar;

/// Result of a symmetric EVD, eigenpairs sorted by descending eigenvalue.
#[derive(Clone, Debug)]
pub struct SymEvd<T: Scalar> {
    /// Eigenvalues, largest first.
    pub values: Vec<T>,
    /// Orthonormal eigenvectors; column `i` pairs with `values[i]`.
    pub vectors: Matrix<T>,
}

/// Typed failure of the symmetric eigensolver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvdError {
    /// The input matrix contains NaN or ±∞ entries (e.g. a corrupted
    /// collective payload) — iterating on it would never converge.
    NonFinite,
    /// The QL iteration exhausted its sweep budget on one eigenvalue.
    NoConvergence {
        /// Index of the eigenvalue being isolated when the budget ran out.
        eigenvalue: usize,
        /// Sweeps attempted.
        iters: usize,
    },
}

impl std::fmt::Display for EvdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvdError::NonFinite => {
                write!(f, "sym_evd: input matrix contains non-finite entries")
            }
            EvdError::NoConvergence { eigenvalue, iters } => write!(
                f,
                "tql2: no convergence for eigenvalue {eigenvalue} after {iters} iterations"
            ),
        }
    }
}

impl std::error::Error for EvdError {}

/// Computes the full eigendecomposition of a symmetric matrix.
///
/// Only the lower triangle of `a` is read. Panics if `a` is not square or
/// on an [`EvdError`] (non-finite input, QL non-convergence); see
/// [`try_sym_evd`] for the fallible variant.
pub fn sym_evd<T: Scalar>(a: &Matrix<T>) -> SymEvd<T> {
    try_sym_evd(a).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible variant of [`sym_evd`]: non-finite input and QL
/// non-convergence surface as a typed [`EvdError`] instead of a panic
/// (callers such as `llsv` use this to fall back to the Jacobi SVD).
///
/// # Panics
/// Still panics if `a` is not square — that is a shape bug, not a
/// numerical fault.
pub fn try_sym_evd<T: Scalar>(a: &Matrix<T>) -> Result<SymEvd<T>, EvdError> {
    let n = a.rows();
    assert_eq!(n, a.cols(), "sym_evd requires a square matrix");
    if n == 0 {
        return Ok(SymEvd {
            values: Vec::new(),
            vectors: Matrix::zeros(0, 0),
        });
    }
    // Screen for NaN/±∞ up front: QL on garbage spins through its whole
    // sweep budget before failing, and the error would be less precise.
    if !a.all_finite() {
        return Err(EvdError::NonFinite);
    }
    // Symmetrize defensively (distributed reductions can leave the two
    // triangles differing in the last ulp, which QL then amplifies).
    let mut z = Matrix::from_fn(n, n, |i, j| {
        let half = T::from_f64(0.5);
        (a[(i, j)] + a[(j, i)]) * half
    });
    let mut d = vec![T::ZERO; n];
    let mut e = vec![T::ZERO; n];
    tred2(&mut z, &mut d, &mut e);
    tql2(&mut z, &mut d, &mut e)?;
    // Leading-order cost of tridiagonalization + accumulation ≈ (4/3 + 3)n³;
    // we log 4n³ as a round leading-order figure.
    flops::add(4 * (n as u64).pow(3));

    // Sort eigenpairs descending.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| d[j].partial_cmp(&d[i]).unwrap_or(std::cmp::Ordering::Equal));
    let values: Vec<T> = order.iter().map(|&i| d[i]).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (new_col, &old_col) in order.iter().enumerate() {
        vectors.col_mut(new_col).copy_from_slice(z.col(old_col));
    }
    Ok(SymEvd { values, vectors })
}

/// Householder reduction of a real symmetric matrix to tridiagonal form,
/// accumulating the orthogonal transformation in `z` (EISPACK tred2).
/// On exit `d` holds the diagonal, `e[1..]` the subdiagonal.
fn tred2<T: Scalar>(z: &mut Matrix<T>, d: &mut [T], e: &mut [T]) {
    let n = z.rows();
    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = T::ZERO;
        if l > 0 {
            let mut scale = T::ZERO;
            for k in 0..=l {
                scale += z[(i, k)].abs();
            }
            if scale == T::ZERO {
                e[i] = z[(i, l)];
            } else {
                for k in 0..=l {
                    let v = z[(i, k)] / scale;
                    z[(i, k)] = v;
                    h += v * v;
                }
                let f = z[(i, l)];
                let g = if f >= T::ZERO { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                z[(i, l)] = f - g;
                let mut f_acc = T::ZERO;
                for j in 0..=l {
                    z[(j, i)] = z[(i, j)] / h;
                    let mut g_acc = T::ZERO;
                    for k in 0..=j {
                        g_acc += z[(j, k)] * z[(i, k)];
                    }
                    for k in j + 1..=l {
                        g_acc += z[(k, j)] * z[(i, k)];
                    }
                    e[j] = g_acc / h;
                    f_acc += e[j] * z[(i, j)];
                }
                let hh = f_acc / (h + h);
                for j in 0..=l {
                    let f = z[(i, j)];
                    let g = e[j] - hh * f;
                    e[j] = g;
                    for k in 0..=j {
                        let upd = f * e[k] + g * z[(i, k)];
                        z[(j, k)] -= upd;
                    }
                }
            }
        } else {
            e[i] = z[(i, l)];
        }
        d[i] = h;
    }
    d[0] = T::ZERO;
    e[0] = T::ZERO;
    for i in 0..n {
        if d[i] != T::ZERO {
            for j in 0..i {
                let mut g = T::ZERO;
                for k in 0..i {
                    g += z[(i, k)] * z[(k, j)];
                }
                for k in 0..i {
                    let upd = g * z[(k, i)];
                    z[(k, j)] -= upd;
                }
            }
        }
        d[i] = z[(i, i)];
        z[(i, i)] = T::ONE;
        for j in 0..i {
            z[(j, i)] = T::ZERO;
            z[(i, j)] = T::ZERO;
        }
    }
}

/// Implicit-shift QL iteration on a symmetric tridiagonal matrix with
/// eigenvector accumulation (EISPACK tql2).
fn tql2<T: Scalar>(z: &mut Matrix<T>, d: &mut [T], e: &mut [T]) -> Result<(), EvdError> {
    let n = z.rows();
    if n == 1 {
        return Ok(());
    }
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = T::ZERO;
    for l in 0..n {
        let mut iter = 0;
        loop {
            // Look for a negligible subdiagonal element to split the matrix.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= T::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > 50 {
                return Err(EvdError::NoConvergence {
                    eigenvalue: l,
                    iters: iter - 1,
                });
            }
            // Form the implicit Wilkinson shift.
            let two = T::from_f64(2.0);
            let mut g = (d[l + 1] - d[l]) / (two * e[l]);
            let mut r = g.hypot(T::ONE);
            g = d[m] - d[l] + e[l] / (g + r.abs().copysign_s(g));
            let mut s = T::ONE;
            let mut c = T::ONE;
            let mut p = T::ZERO;
            let mut i = m;
            let mut underflow_restart = false;
            while i > l {
                i -= 1;
                let mut f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == T::ZERO {
                    d[i + 1] -= p;
                    e[m] = T::ZERO;
                    underflow_restart = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + two * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Rotate eigenvector columns i and i+1.
                let (col_i, col_i1) = z.cols_mut_pair(i, i + 1);
                for k in 0..n {
                    f = col_i1[k];
                    col_i1[k] = s * col_i[k] + c * f;
                    col_i[k] = c * col_i[k] - s * f;
                }
            }
            if underflow_restart {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = T::ZERO;
        }
    }
    Ok(())
}

/// Smallest rank `r` such that the *discarded* eigenvalue mass
/// `Σ_{i≥r} λ_i` is at most `threshold_sq` (eigenvalues descending;
/// negative round-off eigenvalues are clamped to zero). This is the
/// error-specified truncation rule of Alg. 1 line 4, where
/// `threshold_sq = ε²‖X‖²/d`.
pub fn rank_for_error<T: Scalar>(eigenvalues: &[T], threshold_sq: f64) -> usize {
    let n = eigenvalues.len();
    // Trailing cumulative sums in f64.
    let mut tail = 0.0f64;
    let mut rank = n;
    for r in (0..n).rev() {
        tail += eigenvalues[r].to_f64().max(0.0);
        if tail > threshold_sq {
            break;
        }
        rank = r;
    }
    rank.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ratucker_tensor::random::random_orthonormal;

    fn random_symmetric(n: usize, seed: u64) -> Matrix<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let b: Matrix<f64> = ratucker_tensor::random::normal_matrix(n, n, &mut rng);
        let mut s = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                s[(i, j)] = 0.5 * (b[(i, j)] + b[(j, i)]);
            }
        }
        s
    }

    fn check_evd(a: &Matrix<f64>, tol: f64) {
        let n = a.rows();
        let SymEvd { values, vectors } = sym_evd(a);
        // Orthonormal eigenvectors.
        assert!(
            vectors.orthonormality_defect() < tol,
            "defect {}",
            vectors.orthonormality_defect()
        );
        // A·v = λ·v for each pair.
        for (j, &lambda) in values.iter().enumerate() {
            let v = vectors.col(j);
            for i in 0..n {
                let av: f64 = (0..n).map(|k| a[(i, k)] * v[k]).sum();
                assert!(
                    (av - lambda * v[i]).abs() < tol * (1.0 + lambda.abs()),
                    "residual at ({i},{j}): {} vs {}",
                    av,
                    lambda * v[i]
                );
            }
        }
        // Descending order.
        for j in 1..n {
            assert!(values[j - 1] >= values[j] - 1e-12);
        }
    }

    #[test]
    fn evd_diagonal_matrix() {
        let mut a = Matrix::zeros(4, 4);
        for (i, &v) in [3.0, -1.0, 7.0, 0.5].iter().enumerate() {
            a[(i, i)] = v;
        }
        let evd = sym_evd(&a);
        assert!((evd.values[0] - 7.0).abs() < 1e-14);
        assert!((evd.values[3] - (-1.0)).abs() < 1e-14);
        check_evd(&a, 1e-12);
    }

    #[test]
    fn evd_2x2_known() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let mut a = Matrix::zeros(2, 2);
        a[(0, 0)] = 2.0;
        a[(0, 1)] = 1.0;
        a[(1, 0)] = 1.0;
        a[(1, 1)] = 2.0;
        let evd = sym_evd(&a);
        assert!((evd.values[0] - 3.0).abs() < 1e-14);
        assert!((evd.values[1] - 1.0).abs() < 1e-14);
    }

    #[test]
    fn evd_random_matrices_various_sizes() {
        for (n, seed) in [(1, 1u64), (2, 2), (3, 3), (5, 4), (10, 5), (30, 6), (64, 7)] {
            let a = random_symmetric(n, seed);
            check_evd(&a, 1e-9);
        }
    }

    #[test]
    fn evd_clustered_and_zero_eigenvalues() {
        // Rank-deficient PSD matrix: B Bᵀ with B 6x2.
        let mut rng = StdRng::seed_from_u64(11);
        let b: Matrix<f64> = ratucker_tensor::random::normal_matrix(6, 2, &mut rng);
        let a = b.matmul(&b.transpose());
        let evd = sym_evd(&a);
        check_evd(&a, 1e-9);
        // Four eigenvalues ≈ 0.
        for j in 2..6 {
            assert!(evd.values[j].abs() < 1e-10, "λ_{j} = {}", evd.values[j]);
        }
    }

    #[test]
    fn evd_recovers_known_spectrum() {
        // Q Λ Qᵀ with a chosen spectrum.
        let mut rng = StdRng::seed_from_u64(21);
        let q: Matrix<f64> = random_orthonormal(8, 8, &mut rng);
        let lambda = [9.0, 5.0, 4.0, 1.0, 0.5, 0.25, 0.1, 0.0];
        let mut a = Matrix::zeros(8, 8);
        for i in 0..8 {
            for j in 0..8 {
                let mut acc = 0.0;
                for k in 0..8 {
                    acc += q[(i, k)] * lambda[k] * q[(j, k)];
                }
                a[(i, j)] = acc;
            }
        }
        let evd = sym_evd(&a);
        for (got, want) in evd.values.iter().zip(lambda.iter()) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }
    }

    #[test]
    fn evd_f32_works() {
        let mut a = Matrix::<f32>::zeros(3, 3);
        a[(0, 0)] = 4.0;
        a[(1, 1)] = 2.0;
        a[(2, 2)] = 1.0;
        a[(0, 1)] = 0.5;
        a[(1, 0)] = 0.5;
        let evd = sym_evd(&a);
        assert!(evd.vectors.orthonormality_defect() < 1e-5);
        assert!(evd.values[0] > evd.values[1]);
    }

    #[test]
    fn non_finite_input_is_a_typed_error() {
        let mut a = random_symmetric(5, 31);
        a[(2, 3)] = f64::NAN;
        a[(3, 2)] = f64::NAN;
        assert_eq!(try_sym_evd(&a).unwrap_err(), EvdError::NonFinite);
        a[(2, 3)] = f64::INFINITY;
        a[(3, 2)] = f64::INFINITY;
        assert_eq!(try_sym_evd(&a).unwrap_err(), EvdError::NonFinite);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn panicking_wrapper_reports_non_finite_input() {
        let mut a = random_symmetric(4, 32);
        a[(0, 0)] = f64::NAN;
        let _ = sym_evd(&a);
    }

    #[test]
    fn try_sym_evd_matches_panicking_wrapper() {
        let a = random_symmetric(7, 33);
        let fallible = try_sym_evd(&a).unwrap();
        let plain = sym_evd(&a);
        assert_eq!(fallible.values, plain.values);
        assert_eq!(fallible.vectors.max_abs_diff(&plain.vectors), 0.0);
    }

    #[test]
    fn evd_error_messages_are_descriptive() {
        assert!(EvdError::NonFinite.to_string().contains("non-finite"));
        let e = EvdError::NoConvergence {
            eigenvalue: 3,
            iters: 50,
        };
        assert!(e.to_string().contains("eigenvalue 3"), "{e}");
        assert!(e.to_string().contains("50"), "{e}");
    }

    #[test]
    fn rank_for_error_rules() {
        let ev = [10.0, 4.0, 1.0, 0.5, 0.25];
        // Discard nothing: tail must be ≤ threshold.
        assert_eq!(rank_for_error(&ev, 0.0), 5);
        assert_eq!(rank_for_error(&ev, 0.25), 4);
        assert_eq!(rank_for_error(&ev, 0.75), 3);
        assert_eq!(rank_for_error(&ev, 1.75), 2);
        assert_eq!(rank_for_error(&ev, 5.75), 1);
        // Rank never drops below 1 even with a huge budget.
        assert_eq!(rank_for_error(&ev, 1e9), 1);
        // Negative round-off eigenvalues are ignored.
        assert_eq!(rank_for_error(&[4.0, 1.0, -1e-17], 1.0 + 1e-12), 1);
    }
}
