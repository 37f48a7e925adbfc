//! Machine calibration: measure this host's kernel rates with the
//! repository's own GEMM and EVD implementations, and build a
//! [`ratucker_perfmodel::Machine`] from them.

use ratucker_perfmodel::Machine;
use ratucker_tensor::matrix::Matrix;
use std::time::Instant;

/// The fastest of five timed runs of `f`, after one untimed warm-up,
/// in seconds: one call is about a millisecond, so a single or mean
/// timing is at the mercy of the scheduler.
fn fastest_of_five(mut f: impl FnMut()) -> f64 {
    f();
    (0..5)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Measures the effective GEMM rate (flops/s) of the workspace kernels
/// on a 192² f32 product.
pub fn measure_gemm_rate() -> f64 {
    let n = 192;
    let a = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 7) as f32).sin());
    let b = Matrix::from_fn(n, n, |i, j| ((i + j * 13) as f32).cos());
    let secs = fastest_of_five(|| {
        std::hint::black_box(a.matmul(&b)[(0, 0)]);
    });
    2.0 * (n as f64).powi(3) / secs
}

/// Measures the sequential symmetric-EVD rate (flops/s, counting 4n³).
pub fn measure_evd_rate() -> f64 {
    let n = 128;
    let a = Matrix::from_fn(n, n, |i, j| {
        let v = ((i * 13 + j * 29) as f64).sin();
        let w = ((j * 13 + i * 29) as f64).sin();
        0.5 * (v + w) + if i == j { 2.0 } else { 0.0 }
    });
    let secs = fastest_of_five(|| {
        std::hint::black_box(ratucker_linalg::sym_evd(&a).values[0]);
    });
    4.0 * (n as f64).powi(3) / secs
}

/// A performance-model machine calibrated against this host.
pub fn calibrated_machine() -> Machine {
    let gemm = measure_gemm_rate();
    let evd = measure_evd_rate();
    println!(
        "[calibrate] gemm rate = {:.2e} flop/s, seq EVD rate = {:.2e} flop/s",
        gemm, evd
    );
    Machine::calibrated(gemm, evd)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_are_positive_and_sane() {
        let g = measure_gemm_rate();
        let e = measure_evd_rate();
        assert!(g > 1e6, "gemm rate {g}");
        assert!(e > 1e5, "evd rate {e}");
    }
}
