//! Conformance suite: every distributed solver, swept over tensor
//! orders d ∈ {3, 4} and processor counts P ∈ {1, 2, 4, 8}, against
//! differential oracles — within the documented tolerances of
//! `ratucker_verify::tolerances` — plus the algebraic invariants any
//! correct output must satisfy.
//!
//! Four comparison layers per case:
//!
//! 1. **cross-rank**: every rank's gathered result is *bitwise*
//!    identical (the collectives are replicated-deterministic);
//! 2. **distributed vs. textbook oracle** (STHOSVD, HOOI and HOSI-DT):
//!    relative error within `TOL_DIST_REL_ERROR`, ranks equal, factor
//!    columns within `TOL_DIST_FACTOR` up to sign, against
//!    `ratucker_verify::{sthosvd_textbook, hooi_textbook, hosi_textbook}`
//!    — the algorithms as printed, on naive TTMs and a Jacobi SVD of
//!    each unfolding (HOSI: one subspace-iteration step and a
//!    Gram–Schmidt QRCP), sharing no code with the solvers;
//! 3. **P > 1 vs. P = 1**: the same checks against the single-tensor
//!    entry points (`sthosvd`, `ra_hooi`), which run the distributed
//!    solver on one rank;
//! 4. **invariants**: orthonormal factors and the core-norm error
//!    identity on the gathered decomposition.

use ra_hooi::dist::DistTensor;
use ra_hooi::mpi::{CartGrid, Universe};
use ra_hooi::prelude::*;
use ra_hooi::tucker::dist::{dist_hooi, dist_ra_hooi, dist_sthosvd};
use ra_hooi::tucker::hooi::random_init;
use ra_hooi::tucker::{dist_ra_hooi_resilient, ResilienceConfig, ResilientOutcome};
use ratucker_verify::tolerances::{
    TOL_CORE_NORM, TOL_DIST_FACTOR, TOL_DIST_REL_ERROR, TOL_MONOTONE_SLACK, TOL_ORTHO,
};
use ratucker_verify::{
    check_core_norm_identity, check_factor_match, check_monotone_fit, check_orthonormal,
    hooi_textbook, hosi_textbook, sthosvd_textbook, TextbookTruncation, TextbookTucker,
};

struct Case {
    dims: Vec<usize>,
    ranks: Vec<usize>,
    seed: u64,
    /// One grid per processor count in {1, 2, 4, 8}.
    grids: Vec<Vec<usize>>,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            dims: vec![10, 9, 8],
            ranks: vec![3, 3, 2],
            seed: 331,
            grids: vec![vec![1, 1, 1], vec![2, 1, 1], vec![2, 2, 1], vec![2, 2, 2]],
        },
        Case {
            dims: vec![8, 7, 6, 5],
            ranks: vec![2, 2, 2, 2],
            seed: 332,
            grids: vec![
                vec![1, 1, 1, 1],
                vec![2, 1, 1, 1],
                vec![2, 2, 1, 1],
                vec![2, 2, 2, 1],
            ],
        },
    ]
}

/// Gathered results from each rank must agree bit-for-bit.
fn assert_bitwise_equal_across_ranks(results: &[(f64, TuckerTensor<f64>)], ctx: &str) {
    let (err0, t0) = &results[0];
    for (rank, (err, t)) in results.iter().enumerate().skip(1) {
        assert_eq!(
            err.to_bits(),
            err0.to_bits(),
            "{ctx}: rank {rank} rel_error differs from rank 0"
        );
        for (j, (f, f0)) in t.factors.iter().zip(&t0.factors).enumerate() {
            let same = f
                .as_slice()
                .iter()
                .zip(f0.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{ctx}: rank {rank} factor {j} differs from rank 0");
        }
        let same = t
            .core
            .data()
            .iter()
            .zip(t0.core.data())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "{ctx}: rank {rank} core differs from rank 0");
    }
}

fn assert_invariants(x: &DenseTensor<f64>, t: &TuckerTensor<f64>, reported: f64, ctx: &str) {
    for (j, f) in t.factors.iter().enumerate() {
        check_orthonormal(f, TOL_ORTHO).unwrap_or_else(|e| panic!("{ctx}: factor {j}: {e}"));
    }
    check_core_norm_identity(x, &t.core, &t.factors, reported, TOL_CORE_NORM)
        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
}

/// A gathered result agrees with a reference within the distributed
/// tolerances: relative error, ranks, and factor columns up to sign.
fn assert_conforms(
    (err, t): &(f64, TuckerTensor<f64>),
    ref_err: f64,
    ref_factors: &[Matrix<f64>],
    ctx: &str,
) {
    assert!(
        (err - ref_err).abs() < TOL_DIST_REL_ERROR,
        "{ctx}: rel_error {err} vs {ref_err}"
    );
    let ref_ranks: Vec<usize> = ref_factors.iter().map(|u| u.cols()).collect();
    assert_eq!(t.ranks(), ref_ranks, "{ctx}: ranks differ");
    for (j, (fd, fs)) in t.factors.iter().zip(ref_factors).enumerate() {
        check_factor_match(fd, fs, TOL_DIST_FACTOR)
            .unwrap_or_else(|e| panic!("{ctx}: factor {j}: {e}"));
    }
}

#[test]
fn scatter_then_gather_is_bitwise_identity_on_every_grid() {
    // Every conformance grid plus grids that leave mode 0 (or all but
    // the last mode) whole, where the run copies merge leading modes.
    for case in cases() {
        let x = SyntheticSpec::new(&case.dims, &case.ranks, 0.02, case.seed).build::<f64>();
        let mut grids = case.grids.clone();
        let d = case.dims.len();
        let mut last_split = vec![1; d];
        last_split[d - 1] = 2;
        let mut trailing_split = vec![2; d];
        trailing_split[0] = 1;
        grids.extend([last_split, trailing_split]);
        for gd in grids {
            let p: usize = gd.iter().product();
            let xg = x.clone();
            let g2 = gd.clone();
            let out = Universe::launch(p, move |c| {
                let grid = CartGrid::new(c, &g2);
                let xd = DistTensor::scatter_from_replicated(&grid, &xg);
                let per_entry = DistTensor::from_fn(&grid, xg.shape().clone(), |idx| xg.get(idx));
                let block_ok = bits(xd.local().data()) == bits(per_entry.local().data());
                (block_ok, xd.try_gather_replicated(&grid).expect("gather"))
            });
            for (rank, (block_ok, back)) in out.iter().enumerate() {
                assert!(block_ok, "grid {gd:?} rank {rank}: scattered block differs");
                assert_eq!(back.shape(), x.shape(), "grid {gd:?}");
                assert!(
                    bits(back.data()) == bits(x.data()),
                    "grid {gd:?} rank {rank}: gather(scatter(x)) != x bitwise"
                );
            }
        }
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn sthosvd_conforms_to_the_sequential_oracle_on_every_grid() {
    for case in cases() {
        let x = SyntheticSpec::new(&case.dims, &case.ranks, 0.02, case.seed).build::<f64>();
        for (trunc, oracle_trunc) in [
            (
                SthosvdTruncation::Ranks(case.ranks.clone()),
                TextbookTruncation::Ranks(case.ranks.clone()),
            ),
            (
                SthosvdTruncation::RelError(0.1),
                TextbookTruncation::RelError(0.1),
            ),
        ] {
            let oracle = sthosvd_textbook(&x, &oracle_trunc);
            assert_invariants(
                &x,
                &TuckerTensor::new(oracle.core.clone(), oracle.factors.clone()),
                oracle.rel_error,
                "textbook STHOSVD",
            );
            let seq = sthosvd(&x, &trunc);
            assert_invariants(&x, &seq.tucker, seq.rel_error, "STHOSVD on one rank");

            for grid_dims in &case.grids {
                let p: usize = grid_dims.iter().product();
                let ctx = format!(
                    "STHOSVD {trunc:?} d={} P={p} grid {grid_dims:?}",
                    case.dims.len()
                );
                let gd = grid_dims.clone();
                let tr = trunc.clone();
                let xg = x.clone();
                let out = Universe::launch(p, move |c| {
                    let grid = CartGrid::new(c, &gd);
                    let xd = DistTensor::scatter_from_replicated(&grid, &xg);
                    let res = dist_sthosvd(&grid, &xd, &tr);
                    (res.rel_error, res.tucker.gather(&grid))
                });
                assert_bitwise_equal_across_ranks(&out, &ctx);
                assert_conforms(
                    &out[0],
                    oracle.rel_error,
                    &oracle.factors,
                    &format!("{ctx} vs textbook"),
                );
                assert_conforms(
                    &out[0],
                    seq.rel_error,
                    &seq.tucker.factors,
                    &format!("{ctx} vs P=1"),
                );
                assert_invariants(&x, &out[0].1, out[0].0, &ctx);
            }
        }
    }
}

/// A textbook fixed-rank solver: `(X, initial factors, sweeps)`.
type FixedRankOracle = fn(&DenseTensor<f64>, &[Matrix<f64>], usize) -> TextbookTucker<f64>;

/// Fixed-rank runs of `cfgs`, two sweeps from the same random factors,
/// on every grid against `oracle` from those factors.
fn assert_fixed_rank_conforms(cfgs: &[HooiConfig], oracle: FixedRankOracle) {
    for case in cases() {
        let x = SyntheticSpec::new(&case.dims, &case.ranks, 0.02, case.seed).build::<f64>();
        let seed = 3;
        let oracle = oracle(&x, &random_init(&case.dims, &case.ranks, seed), 2);
        for cfg in cfgs {
            let cfg = cfg.clone().with_seed(seed).with_max_iters(2);
            for grid_dims in &case.grids {
                let p: usize = grid_dims.iter().product();
                let ctx = format!(
                    "{} d={} P={p} grid {grid_dims:?}",
                    cfg.variant_name(),
                    case.dims.len()
                );
                let gd = grid_dims.clone();
                let (ranks, cfg2, xg) = (case.ranks.clone(), cfg.clone(), x.clone());
                let out = Universe::launch(p, move |c| {
                    let grid = CartGrid::new(c, &gd);
                    let xd = DistTensor::scatter_from_replicated(&grid, &xg);
                    let res = dist_hooi(&grid, &xd, &ranks, &cfg2);
                    (res.rel_error, res.tucker.gather(&grid))
                });
                assert_bitwise_equal_across_ranks(&out, &ctx);
                assert_conforms(
                    &out[0],
                    oracle.rel_error,
                    &oracle.factors,
                    &format!("{ctx} vs textbook"),
                );
                assert_invariants(&x, &out[0].1, out[0].0, &ctx);
            }
        }
    }
}

#[test]
fn hooi_conforms_to_the_textbook_oracle_on_every_grid() {
    // The Gram + EVD variants, direct and dimension-tree: both are
    // Alg. 2's Gauss–Seidel sweep.
    assert_fixed_rank_conforms(&[HooiConfig::hooi(), HooiConfig::hooi_dt()], hooi_textbook);
}

#[test]
fn hosi_dt_conforms_to_the_textbook_oracle_on_every_grid() {
    // The subspace-iteration route: the distributed SI contraction and
    // QRCP against Alg. 5 on naive TTMs and a Gram–Schmidt QRCP.
    assert_fixed_rank_conforms(&[HooiConfig::hosi_dt()], hosi_textbook);
}

#[test]
fn ra_hosi_dt_conforms_to_the_sequential_oracle_on_every_grid() {
    let eps = 0.05;
    for case in cases() {
        let x = SyntheticSpec::new(&case.dims, &case.ranks, 0.01, case.seed).build::<f64>();
        // Every mode's rank must stay ≥ the largest grid dimension the
        // sweep uses (a core mode smaller than the grid leaves empty
        // ranks), so the initial guess starts at 2, not 1.
        let guess = vec![2; case.dims.len()];
        let cfg = RaConfig::ra_hosi_dt(eps, &guess).with_seed(9);
        // The reference is the driver on one rank (`ra_hooi`).
        let seq = ra_hooi(&x, &cfg);
        assert!(seq.rel_error <= eps, "RA on one rank missed its tolerance");
        assert_invariants(&x, &seq.tucker, seq.rel_error, "RA-HOSI-DT on one rank");

        for grid_dims in &case.grids {
            let p: usize = grid_dims.iter().product();
            let ctx = format!("RA-HOSI-DT d={} P={p} grid {grid_dims:?}", case.dims.len());
            let gd = grid_dims.clone();
            let cfg2 = cfg.clone();
            let xg = x.clone();
            let out = Universe::launch(p, move |c| {
                let grid = CartGrid::new(c, &gd);
                let xd = DistTensor::scatter_from_replicated(&grid, &xg);
                let res = dist_ra_hooi(&grid, &xd, &cfg2);
                (res.rel_error, res.tucker.gather(&grid))
            });
            assert_bitwise_equal_across_ranks(&out, &ctx);
            let (err, t) = &out[0];
            assert!(*err <= eps, "{ctx}: tolerance missed: {err}");
            assert_conforms(
                &out[0],
                seq.rel_error,
                &seq.tucker.factors,
                &format!("{ctx} vs P=1"),
            );
            assert_invariants(&x, t, *err, &ctx);
        }
    }
}

#[test]
fn hooi_fit_is_monotone_and_matches_its_invariants() {
    for case in cases() {
        let x = SyntheticSpec::new(&case.dims, &case.ranks, 0.02, case.seed).build::<f64>();
        for cfg in [HooiConfig::hooi(), HooiConfig::hosi_dt()] {
            let res = hooi(&x, &case.ranks, &cfg.with_max_iters(4).with_seed(3));
            let errors: Vec<f64> = res.sweeps.iter().map(|s| s.rel_error).collect();
            check_monotone_fit(&errors, TOL_MONOTONE_SLACK)
                .unwrap_or_else(|e| panic!("d={}: {e}", case.dims.len()));
            assert_invariants(&x, &res.tucker, res.rel_error(), "fixed-rank HOOI");
        }
    }
}

/// Chaos: a straggler demotion fires while the pipelined TTM/SI
/// collectives are in flight. The revocation must drain the split-phase
/// requests as typed errors absorbed by the recovery protocol — the run
/// completes on the survivors instead of hanging in a `wait`.
#[test]
fn straggler_demotion_drains_inflight_pipeline_cleanly() {
    use ra_hooi::mpi::FaultPlan;
    use ra_hooi::obs::StragglerPolicy;
    use std::time::Duration;

    const VICTIM: usize = 1;
    let plan = FaultPlan::quiet(77).with_slow_rank(VICTIM, Duration::from_millis(5));
    let u = Universe::with_fault_plan(4, plan);
    u.set_recv_timeout(Duration::from_secs(60));
    // Degradation rung 1, where the distributed TTM runs its slab
    // pipeline.
    u.set_start_rung(1);
    let out = u.run(move |c| {
        let spec = SyntheticSpec::new(&[12, 10, 8], &[3, 3, 2], 0.01, 917);
        let grid = CartGrid::new(c, &[2, 2, 1]);
        let x = DistTensor::scatter_from_replicated(&grid, &spec.build::<f64>());
        let cfg = RaConfig::ra_hosi_dt(0.1, &[2, 2, 2])
            .with_seed(31)
            .with_alpha(2.0)
            .with_max_iters(3);
        let res = ResilienceConfig::default().with_straggler(
            StragglerPolicy::new(2.0)
                .with_consecutive(1)
                .with_min_secs(0.02),
        );
        // The sweeps leading up to the demotion run the slabbed TTM
        // (modes 0 and 1 span two ranks each), so the verdict lands
        // with split-phase requests posted on the victim's fibers.
        match dist_ra_hooi_resilient(&grid, &x, &cfg, &res).expect("no rank errors out") {
            ResilientOutcome::Completed { result, report, .. } => {
                assert_eq!(report.demoted_ranks, vec![VICTIM]);
                assert!(result.rel_error <= 0.1, "post-demotion fit missed");
                1u64
            }
            ResilientOutcome::Spare { report, .. } => {
                assert_eq!(report.demoted_ranks, vec![VICTIM]);
                0u64
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    });
    // Three survivors cannot fill a [2, 2, 1] grid: the rebuild settles
    // on 2 active ranks, parking the victim and one survivor as spares.
    assert_eq!(out.iter().sum::<u64>(), 2, "2 active ranks complete");
}

#[test]
fn fault_free_resilient_solver_conforms_to_the_plain_distributed_run() {
    let case = &cases()[0];
    let x = SyntheticSpec::new(&case.dims, &case.ranks, 0.01, case.seed).build::<f64>();
    let guess = vec![2; case.dims.len()];
    let cfg = RaConfig::ra_hosi_dt(0.05, &guess).with_seed(9);

    let cfg2 = cfg.clone();
    let xg = x.clone();
    let plain = Universe::launch(4, move |c| {
        let grid = CartGrid::new(c, &[2, 2, 1]);
        let xd = DistTensor::scatter_from_replicated(&grid, &xg);
        dist_ra_hooi(&grid, &xd, &cfg2).rel_error
    });

    let cfg2 = cfg.clone();
    let xg = x.clone();
    let resilient = Universe::launch(4, move |c| {
        let grid = CartGrid::new(c, &[2, 2, 1]);
        let xd = DistTensor::scatter_from_replicated(&grid, &xg);
        let out = dist_ra_hooi_resilient(&grid, &xd, &cfg2, &ResilienceConfig::default())
            .expect("fault-free resilient run succeeds");
        match out {
            ResilientOutcome::Completed { result, report, .. } => {
                assert_eq!(report.recoveries, 0, "fault-free run took a recovery");
                result.rel_error
            }
            other => panic!("fault-free run did not complete: {other:?}"),
        }
    });

    for (rank, (a, b)) in plain.iter().zip(&resilient).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "rank {rank}: resilient path diverged fault-free: {a} vs {b}"
        );
    }
}
