//! Property tests for the slabbed TTM (DESIGN.md §17) on the wire, run
//! at degradation rung 1 where the slab pipeline lives: injected
//! message drops healed by the retry policy must leave the slabbed TTM
//! and the Gram bitwise equal to a clean-wire run; and a rank crash
//! landing mid-pipeline — with slab reduce-scatters in flight — must
//! surface on every survivor as a typed [`CommError`], never a hang.
//! That the slab count itself never shows in the results is pinned by
//! `ratucker-dist`'s `slab_count_is_bitwise_invisible`.

use std::time::Duration;

use proptest::prelude::*;
use ra_hooi::dist::{try_dist_gram, try_dist_ttm, DistTensor};
use ra_hooi::mpi::{CartGrid, FaultPlan, RetryPolicy, Universe};
use ra_hooi::prelude::*;
use ra_hooi::tensor::{Matrix, Transpose};

/// A d-way problem whose mode 1 carries the whole processor fiber: the
/// deepest reduce-scatter pipeline the TTM can form at that P.
fn dims_for(d: usize) -> Vec<usize> {
    match d {
        3 => vec![8, 12, 10],
        _ => vec![6, 12, 5, 4],
    }
}

fn grid_for(d: usize, p: usize) -> Vec<usize> {
    let mut g = vec![1; d];
    g[1] = p;
    g
}

/// Runs the mode-1 TTM and Gram and returns this rank's result bits.
fn ttm_gram_bits(c: ra_hooi::mpi::Comm, d: usize, seed: u64) -> Vec<u64> {
    let p = c.size();
    let grid = CartGrid::new(c, &grid_for(d, p));
    let dims = dims_for(d);
    let spec = SyntheticSpec::new(&dims, &vec![2; d], 0.05, seed);
    let x = DistTensor::scatter_from_replicated(&grid, &spec.build::<f64>());
    let m = Matrix::from_fn(dims[1], 8, |i, j| {
        (((i * 8 + j) as f64) + seed as f64).sin()
    });
    let y = try_dist_ttm(&grid, &x, 1, &m, Transpose::Yes).expect("TTM");
    let g = try_dist_gram(&grid, &x, 1).expect("Gram");
    let mut bits: Vec<u64> = y.local().data().iter().map(|v| v.to_bits()).collect();
    bits.extend(g.as_slice().iter().map(|v| v.to_bits()));
    bits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Message drops healed by the retry policy leave the slabbed
    /// results bitwise identical to a clean-wire run: the eager
    /// contribution sends retry transparently, and the combine order
    /// never depends on which send needed another attempt.
    #[test]
    fn drops_healed_by_retry_stay_bitwise(
        seed in 0u64..1_000,
        prob_pct in 5u32..=25,
    ) {
        let d = 3usize;
        let p = 4usize;
        let clean = Universe::new(p);
        clean.set_start_rung(1);
        let clean = clean.run(move |c| ttm_gram_bits(c, d, seed));
        let u = Universe::with_fault_plan(
            p,
            FaultPlan::quiet(seed).with_drops(f64::from(prob_pct) / 100.0),
        );
        u.set_retry_policy(Some(RetryPolicy::new(12)));
        u.set_start_rung(1);
        let dropped = u.run(move |c| ttm_gram_bits(c, d, seed));
        for (rank, (a, b)) in clean.iter().zip(&dropped).enumerate() {
            prop_assert_eq!(a, b, "rank {}: healed drops changed the bits", rank);
        }
        u.traffic().check_invariant().unwrap();
    }

    /// A crash landing while slab reduce-scatters are in flight: every
    /// survivor's `try_dist_ttm` returns a typed `CommError` (the test
    /// completing at all is the no-hang assertion; the 10 s timeout is
    /// the backstop).
    #[test]
    fn midpipeline_crash_is_typed_error_not_hang(
        seed in 0u64..1_000,
        crash_op in 30u64..90,
    ) {
        let d = 3usize;
        let p = 4usize;
        const VICTIM: usize = 2;
        let u = Universe::with_fault_plan(
            p,
            FaultPlan::quiet(seed).with_crash(VICTIM, crash_op),
        );
        u.set_recv_timeout(Duration::from_secs(10));
        u.set_start_rung(1);
        let out = u.try_run(move |c| {
            let grid = CartGrid::new(c, &grid_for(d, p));
            let dims = dims_for(d);
            let spec = SyntheticSpec::new(&dims, &vec![2; d], 0.05, seed);
            let x = DistTensor::scatter_from_replicated(&grid, &spec.build::<f64>());
            let m = Matrix::from_fn(dims[1], 8, |i, j| (((i * 8 + j) as f64) * 0.7).cos());
            for _ in 0..200 {
                if let Err(e) = try_dist_ttm(&grid, &x, 1, &m, Transpose::Yes) {
                    // Typed surfacing, not a panic and not a stall.
                    return format!("{e:?}").is_empty() as u64;
                }
            }
            panic!("the injected crash never surfaced in 200 pipelined TTMs");
        });
        for (rank, res) in out.iter().enumerate() {
            if rank == VICTIM {
                prop_assert!(res.is_err(), "the victim must die, not return");
            } else {
                prop_assert_eq!(
                    res.as_ref().ok().copied(),
                    Some(0),
                    "rank {}: survivor did not get a typed CommError",
                    rank
                );
            }
        }
    }
}
