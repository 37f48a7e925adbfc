//! Property tests: for arbitrary small tensors and admissible grids, the
//! distributed kernels must agree with the sequential ones bitwise-close.

use proptest::prelude::*;
use ratucker_dist::{try_dist_contract, try_dist_gram, try_dist_ttm, DistTensor};
use ratucker_mpi::{CartGrid, Universe};
use ratucker_tensor::dense::DenseTensor;
use ratucker_tensor::matrix::Matrix;
use ratucker_tensor::shape::Shape;
use ratucker_tensor::ttm::{ttm, Transpose};

/// Strategy: (dims, grid) with 2–3 modes, dims 3–6, and a grid whose
/// product is ≤ 8 and which never oversubscribes a mode.
fn arb_dims_grid() -> impl Strategy<Value = (Vec<usize>, Vec<usize>)> {
    (2usize..=3)
        .prop_flat_map(|d| {
            (
                prop::collection::vec(3usize..=6, d..=d),
                prop::collection::vec(1usize..=2, d..=d),
            )
        })
        .prop_filter("grid fits dims", |(dims, grid)| {
            grid.iter().zip(dims).all(|(&g, &n)| g <= n) && grid.iter().product::<usize>() <= 8
        })
}

fn tensor_of(dims: &[usize], seed: u64) -> DenseTensor<f64> {
    DenseTensor::from_fn(Shape::new(dims), |idx| {
        let mut v = seed as f64 * 0.01;
        for (k, &i) in idx.iter().enumerate() {
            v += ((k + 1) * (i + 2)) as f64 * 0.19;
        }
        v.sin()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn dist_ttm_matches_sequential(
        (dims, grid) in arb_dims_grid(),
        seed in 0u64..100,
        mode_pick in 0usize..3,
    ) {
        let d = dims.len();
        let mode = mode_pick % d;
        let r = 2usize.min(dims[mode]);
        // Keep the output mode's extent ≥ the grid dim there.
        let r = r.max(grid[mode]);
        let x_ref = tensor_of(&dims, seed);
        let u = Matrix::from_fn(dims[mode], r, |i, j| ((seed as usize + i + 3 * j) as f64 * 0.23).cos());
        let want = ttm(&x_ref, mode, &u, Transpose::Yes);
        let p: usize = grid.iter().product();
        let dims2 = dims.clone();
        let grid2 = grid.clone();
        let out = Universe::launch(p, move |c| {
            let g = CartGrid::new(c, &grid2);
            let xd = DistTensor::from_fn(&g, Shape::new(&dims2), |idx| x_ref.get(idx));
            try_dist_ttm(&g, &xd, mode, &u, Transpose::Yes)
                .unwrap()
                .try_gather_replicated(&g).unwrap()
        });
        for got in out {
            prop_assert!(got.max_abs_diff(&want) < 1e-11);
        }
    }

    #[test]
    fn dist_gram_matches_sequential(
        (dims, grid) in arb_dims_grid(),
        seed in 0u64..100,
        mode_pick in 0usize..3,
    ) {
        let d = dims.len();
        let mode = mode_pick % d;
        let x_ref = tensor_of(&dims, seed);
        let want = ratucker_tensor::gram::gram(&x_ref, mode);
        let p: usize = grid.iter().product();
        let dims2 = dims.clone();
        let grid2 = grid.clone();
        let out = Universe::launch(p, move |c| {
            let g = CartGrid::new(c, &grid2);
            let xd = DistTensor::from_fn(&g, Shape::new(&dims2), |idx| x_ref.get(idx));
            try_dist_gram(&g, &xd, mode).unwrap()
        });
        for got in out {
            prop_assert!(got.max_abs_diff(&want) < 1e-10);
        }
    }

    #[test]
    fn dist_contract_matches_sequential(
        (dims, grid) in arb_dims_grid(),
        seed in 0u64..100,
        mode_pick in 0usize..3,
    ) {
        let d = dims.len();
        let mode = mode_pick % d;
        let x_ref = tensor_of(&dims, seed);
        let mut core_dims = dims.clone();
        core_dims[mode] = 2.min(core_dims[mode]);
        let core = tensor_of(&core_dims, seed.wrapping_add(7));
        let want = ratucker_tensor::contract::contract_all_but(&x_ref, &core, mode);
        let p: usize = grid.iter().product();
        let dims2 = dims.clone();
        let grid2 = grid.clone();
        let core2 = core.clone();
        let out = Universe::launch(p, move |c| {
            let g = CartGrid::new(c, &grid2);
            let xd = DistTensor::from_fn(&g, Shape::new(&dims2), |idx| x_ref.get(idx));
            try_dist_contract(&g, &xd, &core2, mode).unwrap()
        });
        for got in out {
            prop_assert!(got.max_abs_diff(&want) < 1e-10);
        }
    }

    #[test]
    fn scatter_gather_roundtrip_any_grid(
        (dims, grid) in arb_dims_grid(),
        seed in 0u64..100,
    ) {
        let x_ref = tensor_of(&dims, seed);
        let p: usize = grid.iter().product();
        let dims2 = dims.clone();
        let grid2 = grid.clone();
        let x_in = x_ref.clone();
        let out = Universe::launch(p, move |c| {
            let g = CartGrid::new(c, &grid2);
            let xd = DistTensor::from_fn(&g, Shape::new(&dims2), |idx| x_in.get(idx));
            let norm = xd.try_squared_norm(&g).unwrap();
            (xd.try_gather_replicated(&g).unwrap(), norm)
        });
        for (got, norm) in out {
            prop_assert_eq!(got.max_abs_diff(&x_ref), 0.0);
            prop_assert!((norm - x_ref.squared_norm_f64()).abs() < 1e-9);
        }
    }
}
