//! Pins the band between the perfmodel peak-memory *prediction* and the
//! ledger-*measured* per-rank high-water mark (see
//! `ratucker_perfmodel::memory` and `DESIGN.md` §14).
//!
//! The prediction is structural (resident state + the largest staging
//! slab) and must bound every rank's measured high-water mark from
//! above once the admission margin is applied, without being more than
//! `BAND` times the largest measured mark — a model that over-predicts
//! by 10x would admit nothing, one that under-predicts would admit runs
//! the ledger then kills. The degraded distributed TTM's staging term is
//! pinned on its own: it must bound the measured mark and sit below
//! rung 0's.

use ra_hooi::dist::{try_dist_ttm, DistTensor};
use ra_hooi::mem::MemPhase;
use ra_hooi::mpi::{CartGrid, Universe};
use ra_hooi::perfmodel::{estimate_peak, MemProblem, ADMISSION_MARGIN};
use ra_hooi::prelude::*;
use ra_hooi::tucker::{dist_ra_hooi_resilient, ResilienceConfig, ResilientOutcome};

/// The documented band: margin-adjusted prediction / largest measured
/// high-water mark stays below this.
const BAND: f64 = 2.0;

#[test]
fn perfmodel_peak_bounds_measured_hwm_within_band() {
    let dims = [24usize, 20, 16];
    let grid_dims = [2usize, 2, 2];
    let spec = SyntheticSpec::new(&dims, &[6, 6, 4], 0.01, 914);
    let cfg = RaConfig::ra_hosi_dt(0.1, &[3, 3, 2])
        .with_seed(31)
        .with_alpha(2.0)
        .with_max_iters(3);

    let u = Universe::new(8);
    u.set_mem_budget(Some(1 << 30));
    let results = u.run(move |c| {
        let grid = CartGrid::new(c, &grid_dims);
        let x = DistTensor::scatter_from_replicated(&grid, &spec.build::<f64>());
        // Measure the run itself: the scattered block stays live, so it
        // is still part of every later high-water mark.
        ra_hooi::mem::reset_hwm();
        let res = ResilienceConfig::default();
        match dist_ra_hooi_resilient(&grid, &x, &cfg, &res).unwrap() {
            ResilientOutcome::Completed { result, .. } => {
                (ra_hooi::mem::stats().hwm, result.tucker.ranks())
            }
            other => panic!("fault-free run must complete, got {other:?}"),
        }
    });

    let final_ranks = results[0].1.clone();
    let hwm_max = results.iter().map(|r| r.0).max().unwrap();
    let prob = MemProblem {
        dims: dims.to_vec(),
        grid: grid_dims.to_vec(),
        ranks: final_ranks.clone(),
        buddy_degree: 1,
        abft: false,
        elem_bytes: 8,
    };
    let pred = (estimate_peak(&prob, 0).peak() as f64 * ADMISSION_MARGIN) as u64;
    println!(
        "final_ranks={final_ranks:?} hwm per rank={:?} max={hwm_max} raw_pred={} margin_pred={pred}",
        results.iter().map(|r| r.0).collect::<Vec<_>>(),
        estimate_peak(&prob, 0).peak(),
    );

    assert!(
        pred >= hwm_max,
        "the admission-margin prediction must bound the measured peak: \
         predicted {pred} B < measured {hwm_max} B"
    );
    assert!(
        (pred as f64) <= BAND * hwm_max as f64,
        "the prediction is uselessly loose: predicted {pred} B > \
         {BAND} x measured {hwm_max} B"
    );
}

/// Each rank's `MemPhase::Ttm` high-water mark over one distributed
/// TTM at degradation rung `rung`: mode 2 of an 8×12×10 f64 tensor,
/// split in two along that mode (`right = 1`, so rung 1 cuts
/// left-slabs), times a 10 × 4 factor.
fn one_ttm_hwm(rung: u8) -> Vec<u64> {
    Universe::launch(2, move |c| {
        let grid = CartGrid::new(c, &[1, 1, 2]);
        let x = DistTensor::from_fn(&grid, Shape::new(&[8, 12, 10]), |idx| {
            (idx[0] + 3 * idx[1] + 7 * idx[2]) as f64 * 0.01
        });
        let u = Matrix::from_fn(10, 4, |i, j| ((i + 2 * j) as f64).sin());
        ra_hooi::mem::set_rung(rung);
        ra_hooi::mem::reset_hwm();
        try_dist_ttm(&grid, &x, 2, &u, Transpose::Yes).unwrap();
        ra_hooi::mem::stats().hwm_by_phase[MemPhase::Ttm.index()]
    })
}

/// The problem of [`one_ttm_hwm`]. Only mode 2's TTM runs: ranks of 1
/// elsewhere keep the other modes' staging terms below it.
fn one_ttm_problem() -> MemProblem {
    MemProblem {
        dims: vec![8, 12, 10],
        grid: vec![1, 1, 2],
        ranks: vec![1, 1, 4],
        buddy_degree: 0,
        abft: false,
        elem_bytes: 8,
    }
}

#[test]
fn rung_zero_ttm_hwm_is_bounded_by_its_estimate() {
    let rung0 = one_ttm_hwm(0);
    let est = estimate_peak(&one_ttm_problem(), 0).ttm_staging;
    println!("TTM hwm per rank at rung 0 {rung0:?}; rung-0 estimate {est}");
    for (rank, &h0) in rung0.iter().enumerate() {
        assert!(
            h0 <= est,
            "rank {rank}: rung-0 TTM high-water {h0} B exceeds its estimate {est} B"
        );
    }
}

#[test]
fn rung_one_ttm_hwm_is_bounded_by_its_estimate_and_below_rung_zero() {
    let rung0 = one_ttm_hwm(0);
    let rung1 = one_ttm_hwm(1);
    let prob = one_ttm_problem();
    let est = estimate_peak(&prob, 1).ttm_staging;
    println!("TTM hwm per rank: rung 0 {rung0:?}, rung 1 {rung1:?}; rung-1 estimate {est}");
    for (rank, (&h0, &h1)) in rung0.iter().zip(&rung1).enumerate() {
        assert!(
            h1 <= est,
            "rank {rank}: rung-1 TTM high-water {h1} B exceeds its estimate {est} B"
        );
        assert!(
            h1 < h0,
            "rank {rank}: rung 1 must shed TTM staging: {h1} B vs rung 0's {h0} B"
        );
    }
}
