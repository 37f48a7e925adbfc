//! Naive reference implementations ("oracles") of every numerical
//! kernel in the workspace.
//!
//! Each oracle is written for *obviousness*, not speed: triple loops,
//! `f64` accumulation regardless of the storage scalar, and textbook
//! formulas with no blocking, memoization, or layout tricks. The
//! optimized kernels in `ratucker-tensor` / `ratucker-linalg` are
//! verified against these differentially — any disagreement beyond
//! [`crate::tolerances`] is a bug in one of the two, and the oracle is
//! short enough to audit by eye.
//!
//! Three whole-algorithm oracles sit on top of these kernels:
//! [`sthosvd_textbook`] and [`hooi_textbook`] follow the algorithms as
//! printed, taking every leading left singular vector from a Jacobi SVD
//! of the unfolding itself, and [`hosi_textbook`] takes it from one
//! subspace-iteration step (Alg. 5) on naive TTMs and a Gram–Schmidt
//! QRCP ([`qrcp_q_naive`]). None uses a Gram matrix, eigensolver,
//! dimension tree or data distribution. The solvers are checked against
//! them on every processor grid.

use ratucker_linalg::svd::svd_jacobi;
use ratucker_tensor::{fold, unfold, DenseTensor, Matrix, Scalar, Shape, Transpose};

/// Textbook `C = A · B` with a triple loop and `f64` accumulation.
pub fn matmul_naive<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul_naive: inner dimensions disagree"
    );
    Matrix::from_fn(a.rows(), b.cols(), |i, j| {
        let acc: f64 = (0..a.cols())
            .map(|k| a[(i, k)].to_f64() * b[(k, j)].to_f64())
            .sum();
        T::from_f64(acc)
    })
}

/// TTM by the definition: unfold, multiply naively, fold back.
///
/// Matches [`ratucker_tensor::ttm`]'s conventions: `Transpose::No`
/// computes `Y_(mode) = M · X_(mode)` with `M : p × n_mode`, and
/// `Transpose::Yes` computes `Y_(mode) = Mᵀ · X_(mode)` with
/// `M : n_mode × p` (the factor-matrix case).
pub fn ttm_naive<T: Scalar>(
    x: &DenseTensor<T>,
    mode: usize,
    m: &Matrix<T>,
    t: Transpose,
) -> DenseTensor<T> {
    let eff = match t {
        Transpose::No => m.clone(),
        Transpose::Yes => m.transpose(),
    };
    assert_eq!(
        eff.cols(),
        x.dim(mode),
        "ttm_naive: operand does not match mode {mode}"
    );
    let y = matmul_naive(&eff, &unfold(x, mode));
    let mut dims = x.shape().dims().to_vec();
    dims[mode] = eff.rows();
    fold(&y, mode, &Shape::new(&dims))
}

/// Gram matrix by the definition: `G = X_(mode) · X_(mode)ᵀ`, entry by
/// entry with `f64` accumulation.
pub fn gram_naive<T: Scalar>(x: &DenseTensor<T>, mode: usize) -> Matrix<T> {
    let u = unfold(x, mode);
    let n = u.rows();
    Matrix::from_fn(n, n, |i, j| {
        let acc: f64 = (0..u.cols())
            .map(|k| u[(i, k)].to_f64() * u[(j, k)].to_f64())
            .sum();
        T::from_f64(acc)
    })
}

/// Eigenvalues of a symmetric matrix by classical two-sided cyclic
/// Jacobi, independent of `ratucker_linalg::sym_evd`. Returned in
/// descending order.
///
/// The rotation for the `(p, q)` pivot uses the textbook stable choice
/// `t = sign(θ) / (|θ| + √(θ² + 1))` with `θ = (a_qq − a_pp) / 2a_pq`,
/// which annihilates `a_pq` while keeping `|t| ≤ 1`.
pub fn jacobi_eigenvalues_naive(a: &Matrix<f64>) -> Vec<f64> {
    let n = a.rows();
    assert_eq!(n, a.cols(), "jacobi_eigenvalues_naive: matrix not square");
    let mut m = a.as_slice().to_vec();
    let idx = |i: usize, j: usize| i + j * n;
    let scale = m.iter().fold(0.0f64, |s, v| s.max(v.abs())).max(1.0);
    for _sweep in 0..100 {
        let off: f64 = (0..n)
            .flat_map(|p| (p + 1..n).map(move |q| (p, q)))
            .map(|(p, q)| m[idx(p, q)] * m[idx(p, q)])
            .sum();
        if off.sqrt() <= 1e-15 * scale {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                let apq = m[idx(p, q)];
                if apq.abs() <= 1e-18 * scale {
                    continue;
                }
                let theta = (m[idx(q, q)] - m[idx(p, p)]) / (2.0 * apq);
                let sign = if theta >= 0.0 { 1.0 } else { -1.0 };
                let t = sign / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // B = A · J, then Jᵀ · B, with J the (p, q) rotation.
                for k in 0..n {
                    let akp = m[idx(k, p)];
                    let akq = m[idx(k, q)];
                    m[idx(k, p)] = c * akp - s * akq;
                    m[idx(k, q)] = s * akp + c * akq;
                }
                for k in 0..n {
                    let apk = m[idx(p, k)];
                    let aqk = m[idx(q, k)];
                    m[idx(p, k)] = c * apk - s * aqk;
                    m[idx(q, k)] = s * apk + c * aqk;
                }
            }
        }
    }
    let mut evs: Vec<f64> = (0..n).map(|i| m[idx(i, i)]).collect();
    evs.sort_by(|x, y| y.partial_cmp(x).unwrap());
    evs
}

/// A Tucker decomposition computed by a textbook oracle.
#[derive(Clone, Debug)]
pub struct TextbookTucker<T: Scalar> {
    /// The core `G = X ×_1 U_1ᵀ ⋯ ×_d U_dᵀ`.
    pub core: DenseTensor<T>,
    /// The factor matrices, one per mode.
    pub factors: Vec<Matrix<T>>,
    /// `‖X − G ×_1 U_1 ⋯ ×_d U_d‖ / ‖X‖ = √(1 − ‖G‖²/‖X‖²)`.
    pub rel_error: f64,
}

/// How [`sthosvd_textbook`] picks each mode's rank.
#[derive(Clone, Debug)]
pub enum TextbookTruncation {
    /// These ranks, one per mode (eq. 1).
    Ranks(Vec<usize>),
    /// Per mode, the fewest leading singular vectors whose discarded
    /// squared singular values sum to at most `ε²‖X‖²/d` (eq. 2).
    RelError(f64),
}

/// STHOSVD (Alg. 1) as written: for each mode in order, the leading
/// left singular vectors of the current tensor's unfolding, then the
/// TTM that shrinks that mode.
pub fn sthosvd_textbook<T: Scalar>(
    x: &DenseTensor<T>,
    trunc: &TextbookTruncation,
) -> TextbookTucker<T> {
    let (d, mut core, mut factors) = (x.order(), x.clone(), Vec::new());
    for n in 0..d {
        let svd = svd_jacobi(&unfold(&core, n));
        let r = match trunc {
            TextbookTruncation::Ranks(r) => r[n],
            TextbookTruncation::RelError(eps) => {
                let sq: Vec<f64> = svd.sigma.iter().map(|s| s.to_f64().powi(2)).collect();
                let budget = eps * eps * norm_sq(x) / d as f64;
                (1..sq.len())
                    .find(|&r| sq[r..].iter().sum::<f64>() <= budget)
                    .unwrap_or(sq.len())
            }
        };
        factors.push(svd.u.leading_cols(r));
        core = ttm_naive(&core, n, &factors[n], Transpose::Yes);
    }
    textbook_tucker(x, core, factors)
}

/// HOOI (Alg. 2) in the shape of the classic `hooi.m`: each sweep
/// replaces the factors in mode order, each by the leading left singular
/// vectors of the unfolding of `X` times every other factor's
/// transpose; the core is `X` times every factor's transpose. Starts
/// from the factors `init`, whose column counts are the ranks.
pub fn hooi_textbook<T: Scalar>(
    x: &DenseTensor<T>,
    init: &[Matrix<T>],
    sweeps: usize,
) -> TextbookTucker<T> {
    sweep_textbook(x, init, sweeps, |y, n, u| {
        svd_jacobi(&unfold(y, n)).u.leading_cols(u.cols())
    })
}

/// HOSI: HOOI whose LLSV is one step of subspace iteration (Alg. 5)
/// from the current factor, in the sweep shape of [`hooi_textbook`].
/// For mode `n`, with `Y` the tensor projected on every other factor:
/// `G = Y ×_n U_nᵀ`, `Z = Y_(n) · G_(n)ᵀ`, and the new `U_n` is the `Q`
/// of a column-pivoted QR of `Z` ([`qrcp_q_naive`]).
pub fn hosi_textbook<T: Scalar>(
    x: &DenseTensor<T>,
    init: &[Matrix<T>],
    sweeps: usize,
) -> TextbookTucker<T> {
    sweep_textbook(x, init, sweeps, |y, n, u| {
        let g = ttm_naive(y, n, u, Transpose::Yes);
        qrcp_q_naive(&matmul_naive(&unfold(y, n), &unfold(&g, n).transpose()))
    })
}

/// The Gauss–Seidel sweep both fixed-rank oracles share: `llsv(Y, n,
/// U_n)` returns mode `n`'s new factor from the projected tensor `Y`.
fn sweep_textbook<T: Scalar>(
    x: &DenseTensor<T>,
    init: &[Matrix<T>],
    sweeps: usize,
    llsv: impl Fn(&DenseTensor<T>, usize, &Matrix<T>) -> Matrix<T>,
) -> TextbookTucker<T> {
    let project = |factors: &[Matrix<T>], skip: Option<usize>| {
        (0..x.order())
            .filter(|&k| Some(k) != skip)
            .fold(x.clone(), |y, k| {
                ttm_naive(&y, k, &factors[k], Transpose::Yes)
            })
    };
    let mut factors = init.to_vec();
    for _ in 0..sweeps {
        for n in 0..x.order() {
            let y = project(&factors, Some(n));
            factors[n] = llsv(&y, n, &factors[n]);
        }
    }
    textbook_tucker(x, project(&factors, None), factors)
}

/// The `Q` of a column-pivoted QR by modified Gram–Schmidt in `f64`:
/// each step takes the remaining column of largest residual norm,
/// normalizes it, and projects it out of the others. Shares no code
/// with `ratucker_linalg::qrcp` (Householder with downdated norms);
/// both order `Q`'s columns by the same pivot rule, and the columns
/// agree up to sign.
pub fn qrcp_q_naive<T: Scalar>(z: &Matrix<T>) -> Matrix<T> {
    let mut rest: Vec<Vec<f64>> = (0..z.cols())
        .map(|j| z.col(j).iter().map(|v| v.to_f64()).collect())
        .collect();
    let sq = |c: &[f64]| c.iter().map(|v| v * v).sum::<f64>();
    let mut q: Vec<Vec<f64>> = Vec::new();
    while q.len() < z.rows() && !rest.is_empty() {
        let best = (0..rest.len())
            .max_by(|&a, &b| sq(&rest[a]).total_cmp(&sq(&rest[b])))
            .expect("a column remains");
        let mut v = rest.remove(best);
        let norm = sq(&v).sqrt();
        v.iter_mut().for_each(|e| *e /= norm);
        for c in &mut rest {
            let d: f64 = c.iter().zip(&v).map(|(a, b)| a * b).sum();
            c.iter_mut().zip(&v).for_each(|(e, b)| *e -= d * b);
        }
        q.push(v);
    }
    Matrix::from_fn(z.rows(), q.len(), |i, j| T::from_f64(q[j][i]))
}

/// Squared Frobenius norm with `f64` accumulation.
fn norm_sq<T: Scalar>(x: &DenseTensor<T>) -> f64 {
    x.data().iter().map(|v| v.to_f64().powi(2)).sum()
}

fn textbook_tucker<T: Scalar>(
    x: &DenseTensor<T>,
    core: DenseTensor<T>,
    factors: Vec<Matrix<T>>,
) -> TextbookTucker<T> {
    let rel_error = (1.0 - norm_sq(&core) / norm_sq(x)).max(0.0).sqrt();
    TextbookTucker {
        core,
        factors,
        rel_error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tolerances::{TOL_EVD_CROSS, TOL_ORACLE};
    use ratucker_tensor::kernels;
    use ratucker_tensor::ttm;
    use ratucker_tensor::{gram, Transpose};

    /// Deterministic pseudo-random fill in [−1, 1] (splitmix-style).
    fn fill(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mut z = *state;
        z ^= z >> 33;
        z = z.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        z ^= z >> 33;
        (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }

    fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
        let mut s = seed;
        Matrix::from_fn(rows, cols, |_, _| fill(&mut s))
    }

    fn rand_tensor(dims: &[usize], seed: u64) -> DenseTensor<f64> {
        let mut s = seed;
        DenseTensor::from_fn(Shape::new(dims), |_| fill(&mut s))
    }

    #[test]
    fn matmul_matches_the_optimized_implementation() {
        let a = rand_matrix(7, 5, 11);
        let b = rand_matrix(5, 6, 12);
        let fast = a.matmul(&b);
        let slow = matmul_naive(&a, &b);
        assert!(fast.max_abs_diff(&slow) < TOL_ORACLE);
    }

    #[test]
    fn gemm_kernels_match_the_naive_oracle() {
        let (m, n, k) = (6, 5, 4);
        let a = rand_matrix(m, k, 21); // m×k
        let at = a.transpose(); // k×m
        let b = rand_matrix(k, n, 22); // k×n
        let bt = b.transpose(); // n×k
        let want = matmul_naive(&a, &b);

        let mut c = vec![0.0f64; m * n];
        kernels::gemm_nn(m, n, k, a.as_slice(), m, b.as_slice(), k, &mut c, m);
        assert!(Matrix::from_vec(m, n, c).max_abs_diff(&want) < TOL_ORACLE);

        let mut c = vec![0.0f64; m * n];
        kernels::gemm_tn(m, n, k, at.as_slice(), k, b.as_slice(), k, &mut c, m);
        assert!(Matrix::from_vec(m, n, c).max_abs_diff(&want) < TOL_ORACLE);

        let mut c = vec![0.0f64; m * n];
        kernels::gemm_nt(m, n, k, a.as_slice(), m, bt.as_slice(), n, &mut c, m);
        assert!(Matrix::from_vec(m, n, c).max_abs_diff(&want) < TOL_ORACLE);
    }

    #[test]
    fn syrk_kernels_match_the_naive_oracle_on_their_triangle() {
        let (n, k) = (5, 7);
        let a = rand_matrix(k, n, 31); // k×n, C = AᵀA is n×n
        let want_tn = matmul_naive(&a.transpose(), &a);
        let mut c = vec![0.0f64; n * n];
        kernels::syrk_tn(n, k, a.as_slice(), k, &mut c, n);
        let got = Matrix::from_vec(n, n, c);
        for j in 0..n {
            for i in j..n {
                assert!(
                    (got[(i, j)] - want_tn[(i, j)]).abs() < TOL_ORACLE,
                    "syrk_tn ({i},{j})"
                );
            }
        }

        let b = rand_matrix(n, k, 32); // n×k, C = BBᵀ is n×n
        let want_nt = matmul_naive(&b, &b.transpose());
        let mut c = vec![0.0f64; n * n];
        kernels::syrk_nt(n, k, b.as_slice(), n, &mut c, n);
        let got = Matrix::from_vec(n, n, c);
        for j in 0..n {
            for i in j..n {
                assert!(
                    (got[(i, j)] - want_nt[(i, j)]).abs() < TOL_ORACLE,
                    "syrk_nt ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn gram_schmidt_qrcp_matches_householder_qrcp_up_to_sign() {
        let z = rand_matrix(9, 4, 121);
        let want = ratucker_linalg::qrcp(&z).q;
        let got = qrcp_q_naive(&z);
        crate::check_factor_match(&got, &want, TOL_ORACLE).unwrap();
    }

    #[test]
    fn vector_kernels_match_f64_references() {
        let x = rand_matrix(1, 64, 41).into_vec();
        let y0 = rand_matrix(1, 64, 42).into_vec();

        let mut y = y0.clone();
        kernels::axpy(0.75, &x, &mut y);
        for i in 0..x.len() {
            assert!((y[i] - (y0[i] + 0.75 * x[i])).abs() < TOL_ORACLE);
        }

        let d = kernels::dot(&x, &y0);
        let want: f64 = x.iter().zip(&y0).map(|(a, b)| a * b).sum();
        assert!((d - want).abs() < TOL_ORACLE);

        let nrm = kernels::nrm2(&x);
        let want = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((nrm - want).abs() < TOL_ORACLE);

        let mut z = x.clone();
        kernels::scal(-2.0, &mut z);
        for i in 0..x.len() {
            assert!((z[i] + 2.0 * x[i]).abs() < TOL_ORACLE);
        }
    }

    #[test]
    fn ttm_matches_the_unfold_oracle_in_both_transpose_modes() {
        let x = rand_tensor(&[5, 4, 3], 51);
        for mode in 0..3 {
            let m_no = rand_matrix(2, x.dim(mode), 60 + mode as u64);
            let fast = ttm(&x, mode, &m_no, Transpose::No);
            let slow = ttm_naive(&x, mode, &m_no, Transpose::No);
            assert!(fast.max_abs_diff(&slow) < TOL_ORACLE, "No, mode {mode}");

            let m_yes = rand_matrix(x.dim(mode), 2, 70 + mode as u64);
            let fast = ttm(&x, mode, &m_yes, Transpose::Yes);
            let slow = ttm_naive(&x, mode, &m_yes, Transpose::Yes);
            assert!(fast.max_abs_diff(&slow) < TOL_ORACLE, "Yes, mode {mode}");
        }
    }

    #[test]
    fn gram_matches_the_entrywise_oracle_on_every_mode() {
        let x = rand_tensor(&[4, 5, 3], 81);
        for mode in 0..3 {
            let fast = gram(&x, mode);
            let slow = gram_naive(&x, mode);
            assert!(fast.max_abs_diff(&slow) < TOL_ORACLE, "mode {mode}");
        }
    }

    #[test]
    fn sym_evd_eigenvalues_match_the_independent_jacobi_oracle() {
        let x = rand_tensor(&[6, 5, 4], 91);
        for mode in 0..3 {
            let g = gram(&x, mode);
            let fast = ratucker_linalg::sym_evd(&g);
            let slow = jacobi_eigenvalues_naive(&g);
            assert_eq!(fast.values.len(), slow.len());
            for (k, (a, b)) in fast.values.iter().zip(&slow).enumerate() {
                assert!(
                    (a - b).abs() < TOL_EVD_CROSS * (1.0 + b.abs()),
                    "mode {mode}, λ_{k}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn svd_singular_values_match_the_jacobi_oracle_on_the_gram() {
        let a = rand_matrix(5, 7, 101);
        let s = ratucker_linalg::svd_jacobi(&a);
        let evs = jacobi_eigenvalues_naive(&matmul_naive(&a, &a.transpose()));
        for (j, (sv, ev)) in s.sigma.iter().zip(&evs).enumerate().take(a.rows()) {
            assert!(
                (sv * sv - ev).abs() < TOL_EVD_CROSS * (1.0 + ev.abs()),
                "σ_{j}² = {} vs λ_{j} = {ev}",
                sv * sv
            );
        }
    }

    #[test]
    fn jacobi_oracle_recovers_a_known_spectrum() {
        // Diagonal + rotation: spectrum known exactly by construction.
        let q = ratucker_linalg::qr(&rand_matrix(5, 5, 111)).q;
        let lambda = [9.0, 4.0, 1.0, 0.25, 0.0];
        let a = Matrix::from_fn(5, 5, |i, j| {
            (0..5).map(|k| q[(i, k)] * lambda[k] * q[(j, k)]).sum()
        });
        let evs = jacobi_eigenvalues_naive(&a);
        for (got, want) in evs.iter().zip(&lambda) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }
    }
}
