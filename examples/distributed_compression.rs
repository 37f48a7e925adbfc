//! Distributed Tucker compression on the message-passing runtime.
//!
//! ```sh
//! cargo run --release --example distributed_compression
//! ```
//!
//! Launches an 8-rank universe, distributes a 4-way tensor over a 2x2x2x1
//! processor grid, and runs distributed STHOSVD and distributed
//! rank-adaptive HOSI-DT — the same collective code paths a real MPI
//! deployment would execute — then verifies both against the same
//! solvers on one rank (the single-tensor entry points) and reports the
//! communication volume per algorithm.

use ra_hooi::dist::DistTensor;
use ra_hooi::mpi::{CartGrid, Universe};
use ra_hooi::prelude::*;
use ra_hooi::tucker::dist::{dist_ra_hooi, dist_sthosvd};

fn main() {
    let dims = [32usize, 32, 32, 16];
    let spec = SyntheticSpec::new(&dims, &[5, 5, 5, 4], 0.01, 77);
    let grid_dims = [2usize, 2, 2, 1];
    let eps = 0.05;

    println!("distributing a {dims:?} tensor over a {grid_dims:?} grid (8 ranks)…\n");

    // --- distributed STHOSVD ---
    let u = Universe::new(8);
    let s = spec.clone();
    let results = u.run(|c| {
        let grid = CartGrid::new(c, &grid_dims);
        let x_full = s.build::<f32>();
        let x = DistTensor::scatter_from_replicated(&grid, &x_full);
        let res = dist_sthosvd(&grid, &x, &SthosvdTruncation::RelError(eps));
        (res.rel_error, res.tucker.ranks())
    });
    let st_bytes = u.traffic().snapshot().0;
    let (st_err, st_ranks) = &results[0];
    println!(
        "dist STHOSVD:    error {st_err:.4}, ranks {st_ranks:?}, traffic {:.2} MB",
        st_bytes as f64 / 1e6
    );

    // --- distributed rank-adaptive HOSI-DT ---
    let u = Universe::new(8);
    let s = spec.clone();
    let cfg = RaConfig::ra_hosi_dt(eps, &[6, 6, 6, 5])
        .with_seed(2)
        .stopping_on_threshold();
    let cfg2 = cfg.clone();
    let results = u.run(move |c| {
        let grid = CartGrid::new(c, &grid_dims);
        let x_full = s.build::<f32>();
        let x = DistTensor::scatter_from_replicated(&grid, &x_full);
        let res = dist_ra_hooi(&grid, &x, &cfg2);
        (res.rel_error, res.tucker.ranks())
    });
    let ra_bytes = u.traffic().snapshot().0;
    let (ra_err, ra_ranks) = &results[0];
    println!(
        "dist RA-HOSI-DT: error {ra_err:.4}, ranks {ra_ranks:?}, traffic {:.2} MB",
        ra_bytes as f64 / 1e6
    );

    // --- verify against the single-tensor entry points (one rank) ---
    let x = spec.build::<f32>();
    let st_seq = sthosvd(&x, &SthosvdTruncation::RelError(eps));
    let ra_seq = ra_hooi(&x, &cfg);
    println!(
        "\none-rank STHOSVD error {:.4} (dist {:.4})",
        st_seq.rel_error, st_err
    );
    println!(
        "one-rank RA error      {:.4} (dist {:.4})",
        ra_seq.rel_error, ra_err
    );
    // f32 accumulations over ~half a million elements take different
    // summation orders on the 8-rank reduce tree vs the one-rank run, so
    // the rel_errors agree to ~1e-3 of their magnitude, not bitwise.
    assert!((st_seq.rel_error - st_err).abs() < 1e-4);
    assert!(ra_err <= &eps);
    println!("\n8 ranks and one rank agree; both meet eps = {eps}.");
}
