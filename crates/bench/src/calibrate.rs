//! Machine calibration: measure this host's kernel rates with the
//! repository's own GEMM and EVD implementations, and build a
//! [`ratucker_perfmodel::Machine`] from them.

use ratucker_perfmodel::Machine;
use ratucker_tensor::matrix::Matrix;
use std::time::Instant;

/// Measures the effective GEMM rate (flops/s) of the workspace kernels.
pub fn measure_gemm_rate() -> f64 {
    let n = 192;
    let a = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 7) as f32).sin());
    let b = Matrix::from_fn(n, n, |i, j| ((i + j * 13) as f32).cos());
    // Warm up.
    let _ = a.matmul(&b);
    let reps = 5;
    let t0 = Instant::now();
    let mut sink = 0.0f32;
    for _ in 0..reps {
        let c = a.matmul(&b);
        sink += c[(0, 0)];
    }
    let secs = t0.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    (reps as f64) * 2.0 * (n as f64).powi(3) / secs
}

/// Measures the sequential symmetric-EVD rate (flops/s, counting 4n³)
/// from the fastest of five timed calls after a warm-up: one call is
/// about a millisecond, so a single timing is at the mercy of the
/// scheduler.
pub fn measure_evd_rate() -> f64 {
    let n = 128;
    let a = Matrix::from_fn(n, n, |i, j| {
        let v = ((i * 13 + j * 29) as f64).sin();
        let w = ((j * 13 + i * 29) as f64).sin();
        0.5 * (v + w) + if i == j { 2.0 } else { 0.0 }
    });
    let _ = ratucker_linalg::sym_evd(&a);
    let secs = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let e = ratucker_linalg::sym_evd(&a);
            std::hint::black_box(e.values[0]);
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
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
