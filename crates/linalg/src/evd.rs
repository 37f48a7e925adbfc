//! Symmetric eigenvalue decomposition.
//!
//! Classic two-stage dense symmetric eigensolver: Householder
//! tridiagonalization (EISPACK `tred2`) followed by the implicit-shift QL
//! iteration with eigenvector accumulation (`tql2`). This is the
//! "sequential EVD" of TuckerMPI's LLSV whose `O(n³)` cost the paper
//! identifies as STHOSVD's scaling bottleneck (§2.1, §4.1) — we keep it
//! deliberately sequential for the same reason TuckerMPI does, so the
//! bottleneck is reproduced rather than papered over.
//!
//! Both stages stay sequential and `O(n³)`. EISPACK writes `tred2`'s
//! two cubic loops, `p = A·u` in the reduction and `g = uᵀ·Z` in the
//! accumulation, as one dot product per output entry, reading rows with
//! stride `n`: a dependent add chain each, so they run at add latency.
//! Here the same chains run as column axpys, `y[0..m] += col_k·x[k]`
//! for `k` ascending from zero, so every entry receives the same
//! unfused products in the same order and the result is bitwise the
//! EISPACK one (`tred2_is_bitwise_the_eispack_loop` holds it to the
//! EISPACK loop). Two facts make that possible:
//!
//! - The reduction keeps the active block full-symmetric. Its rank-2
//!   update gives entry `(r, c)` `u[r]·e[c] + e[r]·u[c]` and the mirror
//!   entry the same two products added the other way round; IEEE `*`
//!   and `+` commute, so the triangles stay bitwise equal and EISPACK's
//!   lower-triangle reads `A[k, j]` can become column reads `A[j, k]`.
//! - The accumulation runs on `Zᵀ`, where EISPACK's row reads are
//!   columns. The reduction leaves its Householder vectors in that
//!   layout, so one in-place transpose at the end restores `Z`.
//!
//! On one core of a 2-vCPU x86 host a 128² f32 `tred2` takes about
//! 0.5 ms this way against about 2.5 ms as dot products, so `tql2` is
//! the larger half of the EVD.

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
    eigenpairs(z, d, e)
}

/// The EVD's second stage: QL on `tred2`'s tridiagonal `(d, e)` with
/// the transformation `z`, then the eigenpairs sorted descending.
fn eigenpairs<T: Scalar>(
    mut z: Matrix<T>,
    mut d: Vec<T>,
    mut e: Vec<T>,
) -> Result<SymEvd<T>, EvdError> {
    let n = z.rows();
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
///
/// Every entry is the same ascending-`k` chain of unfused products as in
/// the EISPACK loop, run as column axpys instead of strided dot products
/// (see the module docs for why that is bitwise the same).
fn tred2<T: Scalar>(z: &mut Matrix<T>, d: &mut [T], e: &mut [T]) {
    let n = z.rows();
    let a = z.as_mut_slice();
    // Reduction. Step `i` reflects column `i` against the active block
    // `A = z[0..i, 0..i]`, which stays full-symmetric, so column `i`
    // reads bitwise as EISPACK's row `i`. It leaves `u` in column `i`
    // and `u/h` in row `i`: the layout of Zᵀ the accumulation wants.
    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = T::ZERO;
        let (block, rest) = a.split_at_mut(i * n);
        let u = &mut rest[..i];
        if l > 0 {
            let mut scale = T::ZERO;
            for &v in u.iter() {
                scale += v.abs();
            }
            if scale == T::ZERO {
                e[i] = u[l];
            } else {
                for v in u.iter_mut() {
                    *v /= scale;
                    h += *v * *v;
                }
                let f = u[l];
                let g = if f >= T::ZERO { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                u[l] = f - g;
                // p = A·u, one column of A at a time; p lives in e[0..i].
                let p = &mut e[..i];
                p.fill(T::ZERO);
                for (k, &uk) in u.iter().enumerate() {
                    let col = &block[k * n..k * n + i];
                    for (pj, &ajk) in p.iter_mut().zip(col) {
                        *pj += ajk * uk;
                    }
                }
                let mut f_acc = T::ZERO;
                for (pj, &uj) in p.iter_mut().zip(u.iter()) {
                    *pj /= h;
                    f_acc += *pj * uj;
                }
                let hh = f_acc / (h + h);
                for (pj, &uj) in p.iter_mut().zip(u.iter()) {
                    *pj -= hh * uj;
                }
                // A -= u·eᵀ + e·uᵀ on both triangles: entry (r, c) gets
                // `u[r]·e[c] + e[r]·u[c]`, its mirror the same two
                // products in the other order, which IEEE `+` commutes.
                for (c, (&uc, &ec)) in u.iter().zip(p.iter()).enumerate() {
                    let col = &mut block[c * n..c * n + i];
                    for ((arc, &ur), &er) in col.iter_mut().zip(u.iter()).zip(p.iter()) {
                        *arc -= ur * ec + er * uc;
                    }
                }
                for (j, &uj) in u.iter().enumerate() {
                    block[j * n + i] = uj / h;
                }
            }
        } else {
            e[i] = u[l];
        }
        d[i] = h;
    }
    d[0] = T::ZERO;
    e[0] = T::ZERO;
    // Accumulation on W = Zᵀ: EISPACK's `g_j = Σ_k z(i,k)·z(k,j)` is
    // `g += W(k,i)·W(0..i,k)` over columns k, and its `z(k,j) -= g_j·z(k,i)`
    // is `W(0..i,k) -= g·W(i,k)`.
    let mut g = vec![T::ZERO; n];
    for i in 0..n {
        if d[i] != T::ZERO {
            let (w, rest) = a.split_at_mut(i * n);
            let g = &mut g[..i];
            g.fill(T::ZERO);
            for (k, &uk) in rest[..i].iter().enumerate() {
                let col = &w[k * n..k * n + i];
                for (gj, &wjk) in g.iter_mut().zip(col) {
                    *gj += uk * wjk;
                }
            }
            for k in 0..i {
                let col = &mut w[k * n..k * n + i + 1];
                let t = col[i];
                for (wjk, &gj) in col.iter_mut().zip(g.iter()) {
                    *wjk -= gj * t;
                }
            }
        }
        d[i] = a[i * n + i];
        a[i * n + i] = T::ONE;
        for j in 0..i {
            a[i * n + j] = T::ZERO;
            a[j * n + i] = T::ZERO;
        }
    }
    // Back from Zᵀ to Z.
    for c in 0..n {
        for r in c + 1..n {
            a.swap(c * n + r, r * n + c);
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
    // Split when `|e[m]| ≤ ε·tst1`, `tst1` the largest `|d[l]| + |e[l]|`
    // of the whole tridiagonal. `tred2` leaves a fast-decaying spectrum's
    // round-off-level eigenvalues at the top, where QL isolates first. A
    // scale local to the top (the neighbouring diagonal entries, or
    // EISPACK's running maximum from `l = 0`) asks for relative accuracy
    // there, which the implicit shift cannot give: it enters as
    // `d[m] − shift` at the large end and is lost below `ε·|d[m]|`, so the
    // sweeps stall until the budget runs out.
    let tst1 = d
        .iter()
        .zip(e.iter())
        .fold(T::ZERO, |t, (&dl, &el)| t.max_s(dl.abs() + el.abs()));
    for l in 0..n {
        let mut iter = 0;
        loop {
            // Look for a negligible subdiagonal element to split the matrix.
            let mut m = l;
            while m + 1 < n && e[m].abs() > T::EPSILON * tst1 {
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

    fn check_evd<T: Scalar>(a: &Matrix<T>, tol: f64) {
        let n = a.rows();
        let SymEvd { values, vectors } = sym_evd(a);
        // Orthonormal eigenvectors.
        assert!(
            vectors.orthonormality_defect() < tol,
            "defect {}",
            vectors.orthonormality_defect()
        );
        // A·v = λ·v for each pair, evaluated in f64.
        for (j, &lambda) in values.iter().enumerate() {
            let (lambda, v) = (lambda.to_f64(), vectors.col(j));
            for i in 0..n {
                let av: f64 = (0..n).map(|k| a[(i, k)].to_f64() * v[k].to_f64()).sum();
                let lv = lambda * v[i].to_f64();
                assert!(
                    (av - lv).abs() < tol * (1.0 + lambda.abs()),
                    "residual at ({i},{j}): {av} vs {lv}"
                );
            }
        }
        // Descending order.
        for j in 1..n {
            assert!(values[j - 1].to_f64() >= values[j].to_f64() - 1e-12);
        }
    }

    /// EISPACK `tred2` as written, one row-indexed dot product per
    /// entry: the bitwise oracle for [`tred2`].
    fn tred2_eispack<T: Scalar>(z: &mut Matrix<T>, d: &mut [T], e: &mut [T]) {
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

    /// The bitwise oracle test's inputs, built in f64 and rounded to the
    /// scalar under test.
    fn oracle_inputs(n: usize, seed: u64) -> Vec<(&'static str, Matrix<f64>)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut zero_lines = random_symmetric(n, seed + 1);
        for m in [n / 2, n - 1] {
            for k in 0..n {
                zero_lines[(m, k)] = 0.0;
                zero_lines[(k, m)] = 0.0;
            }
        }
        let diagonal = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                (i as f64 - n as f64 / 3.0) * 0.7
            } else {
                0.0
            }
        });
        let b: Matrix<f64> = ratucker_tensor::random::normal_matrix(n, n / 4 + 1, &mut rng);
        let gram = b.matmul(&b.transpose());
        // Miranda-like: an orthogonal basis with a geometrically
        // decaying spectrum, as in the Gram of a smooth field.
        let q: Matrix<f64> = random_orthonormal(n, n, &mut rng);
        let decay = Matrix::from_fn(n, n, |i, j| {
            (0..n)
                .map(|k| q[(i, k)] * 0.8f64.powi(k as i32) * q[(j, k)])
                .sum()
        });
        vec![
            ("zero row/column", zero_lines),
            ("diagonal", diagonal),
            ("rank-deficient Gram", gram),
            ("decaying spectrum", decay),
        ]
    }

    fn assert_bitwise<T: Scalar>(got: &[T], want: &[T], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                g.to_f64().to_bits(),
                w.to_f64().to_bits(),
                "{what}[{i}]: {} vs {}",
                g.to_f64(),
                w.to_f64()
            );
        }
    }

    fn check_tred2_against_oracle<T: Scalar>(a64: &Matrix<f64>, what: &str) {
        let n = a64.rows();
        let a = Matrix::from_fn(n, n, |i, j| T::from_f64(a64[(i, j)]));
        // The symmetrization `try_sym_evd` applies before `tred2`.
        let half = T::from_f64(0.5);
        let z0 = Matrix::from_fn(n, n, |i, j| (a[(i, j)] + a[(j, i)]) * half);
        let (mut z, mut d, mut e) = (z0.clone(), vec![T::ZERO; n], vec![T::ZERO; n]);
        tred2(&mut z, &mut d, &mut e);
        let (mut z_ref, mut d_ref, mut e_ref) = (z0, vec![T::ZERO; n], vec![T::ZERO; n]);
        tred2_eispack(&mut z_ref, &mut d_ref, &mut e_ref);
        assert_bitwise(z.as_slice(), z_ref.as_slice(), &format!("{what} z"));
        assert_bitwise(&d, &d_ref, &format!("{what} d"));
        assert_bitwise(&e, &e_ref, &format!("{what} e"));
        // Equal inputs to `tql2` fail alike, should QL run out its
        // sweep budget.
        match (try_sym_evd(&a), eigenpairs(z_ref, d_ref, e_ref)) {
            (Ok(got), Ok(want)) => {
                assert_bitwise(&got.values, &want.values, &format!("{what} values"));
                assert_bitwise(
                    got.vectors.as_slice(),
                    want.vectors.as_slice(),
                    &format!("{what} vectors"),
                );
            }
            (got, want) => assert_eq!(got.err(), want.err(), "{what}"),
        }
    }

    #[test]
    fn tred2_is_bitwise_the_eispack_loop() {
        for n in [1usize, 2, 3, 7, 8, 9, 64, 127, 128, 129, 200] {
            for (kind, a) in oracle_inputs(n, 40 + n as u64) {
                check_tred2_against_oracle::<f64>(&a, &format!("f64 n={n} {kind}"));
                check_tred2_against_oracle::<f32>(&a, &format!("f32 n={n} {kind}"));
            }
        }
    }

    #[test]
    fn ql_converges_on_a_fast_decaying_spectrum() {
        // The 0.8ᵏ input of `oracle_inputs`: its eigenvalues fall to
        // round-off well before the end of the spectrum, as in the Gram
        // of a smooth field.
        let decaying = |n: usize| {
            let (kind, a) = oracle_inputs(n, 40 + n as u64).pop().unwrap();
            assert_eq!(kind, "decaying spectrum");
            a
        };
        let a = decaying(128);
        check_evd(&Matrix::from_fn(128, 128, |i, j| a[(i, j)] as f32), 1e-5);
        check_evd(&decaying(200), 1e-9);
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
