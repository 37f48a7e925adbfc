//! Schedule exploration over the real distributed solvers.
//!
//! `Universe::explore` replays a workload under ≥25 deterministic
//! message schedules (OS baseline, adversarial starvation / LIFO /
//! cross-traffic delay, seeded random) and asserts bit-identical
//! per-rank results, deadlock-freedom, and the fabric's traffic
//! invariants. Because the collectives use fixed reduction trees and
//! per-link FIFO is never violated, *any* divergence is a genuine
//! schedule race, not floating-point noise.
//!
//! Two workloads:
//!
//! 1. a fault-free distributed STHOSVD at P = 4 returning the raw bit
//!    patterns of every factor matrix, the local core block, and the
//!    relative error (the ISSUE acceptance check);
//! 2. a full shrink-and-continue recovery at P = 4: rank 2 is crashed
//!    mid-workload by the fault injector, the survivors revoke → agree
//!    → shrink → restore the dead rank's block from its buddy replica →
//!    re-block onto the [2, 1] grid → run a post-recovery collective.
//!    The returned state (survivor set, shrunken grid, restored block
//!    bits, collective result) must be identical under every schedule
//!    even though *where* each survivor first observes the failure is
//!    schedule-dependent;
//! 3. a full straggler demotion at P = 4: rank 1 runs 5 ms late on
//!    every data-plane operation, the induced-wait detector confirms it
//!    after a committed sweep, the grid demotes it online (verdict →
//!    retire → shrink → restore → redistribute), and the run completes
//!    on the survivors. The digest (who was demoted, the final grid,
//!    the result bits) must be identical under every schedule — the
//!    perturbations are microsecond-scale, so they can never flip the
//!    millisecond-scale verdict.

use std::time::Duration;

use ratucker::dist::dist_sthosvd;
use ratucker::prelude::*;
use ratucker_dist::{
    restorer_for, try_redistribute, try_refresh_buddies, BlockPiece, DistTensor, TensorDist,
};
use ratucker_mpi::{
    choose_shrunk_dims, sum_op, try_rebuild_grid, CartGrid, Comm, CommError, FaultPlan,
    SchedulePolicy, ShrinkOutcome, Universe,
};
use ratucker_tensor::Shape;

const N_SCHEDULES: usize = 25;

#[test]
fn dist_sthosvd_factors_are_bit_identical_under_25_schedules() {
    let spec = SyntheticSpec::new(&[10, 9, 8], &[3, 3, 2], 0.02, 4242);
    let u = Universe::new(4);
    u.set_recv_timeout(Duration::from_secs(20));
    let report = u.explore(N_SCHEDULES, 0xE5E5, move |c| {
        let grid = CartGrid::new(c, &[2, 2, 1]);
        let x = DistTensor::scatter_from_replicated(&grid, &spec.build::<f64>());
        let res = dist_sthosvd(&grid, &x, &SthosvdTruncation::Ranks(vec![3, 3, 2]));
        // Raw bit patterns, so explore's PartialEq comparison is a
        // bitwise check, not an approximate one.
        let mut bits = vec![res.rel_error.to_bits()];
        for f in &res.tucker.factors {
            bits.extend(f.as_slice().iter().map(|v| v.to_bits()));
        }
        bits.extend(res.tucker.core.local().data().iter().map(|v| v.to_bits()));
        bits
    });
    assert_eq!(report.policies.len(), N_SCHEDULES);
    assert!(
        report.failed_ranks.is_empty(),
        "fault-free run failed on ranks {:?}",
        report.failed_ranks
    );
    // The suite must actually be diverse: baseline first, all distinct.
    assert_eq!(report.policies[0], SchedulePolicy::Os);
    for (i, a) in report.policies.iter().enumerate() {
        for b in report.policies.iter().skip(i + 1) {
            assert_ne!(a, b, "duplicate schedule in the suite");
        }
    }
}

#[test]
fn p4_pipelined_ttm_si_bit_identical_under_25_schedules() {
    use ratucker::dist::dist_hooi;
    use ratucker_dist::try_dist_ttm;
    use ratucker_tensor::{Matrix, Transpose};

    // The slabbed TTM under every schedule, at degradation rung 1 where
    // the slab pipeline lives: the mode-1 TTM over a 4-rank fiber (slab
    // reduce-scatters in flight behind slab GEMMs), then the HOSI
    // subspace iteration (slabbed TTMs, one iterate allreduce per SI
    // step). Results must agree bitwise across schedules — any
    // divergence is a schedule race in the split-phase machinery, not
    // roundoff.
    let spec = SyntheticSpec::new(&[12, 16, 10], &[3, 4, 2], 0.02, 4343);
    let u = Universe::new(4);
    u.set_recv_timeout(Duration::from_secs(20));
    u.set_start_rung(1);
    let report = u.explore(N_SCHEDULES, 0x0E71, move |c| {
        let grid = CartGrid::new(c, &[1, 4, 1]);
        let x = DistTensor::scatter_from_replicated(&grid, &spec.build::<f64>());
        let m = Matrix::from_fn(16, 8, |i, j| (((i * 8 + j) as f64) * 0.37).sin());
        let y = try_dist_ttm(&grid, &x, 1, &m, Transpose::Yes).expect("fault-free TTM");

        let cfg = HooiConfig::hosi_dt().with_max_iters(2).with_seed(9);
        let res = dist_hooi(&grid, &x, &[3, 4, 2], &cfg);
        let mut bits: Vec<u64> = y.local().data().iter().map(|v| v.to_bits()).collect();
        bits.push(res.rel_error.to_bits());
        for f in &res.tucker.factors {
            bits.extend(f.as_slice().iter().map(|v| v.to_bits()));
        }
        bits
    });
    assert_eq!(report.policies.len(), N_SCHEDULES);
    assert!(
        report.failed_ranks.is_empty(),
        "pipelined kernels failed on ranks {:?}",
        report.failed_ranks
    );
}

const GRID: [usize; 2] = [2, 2];
const DIMS: [usize; 2] = [12, 10];
const CRASH_RANK: usize = 2;
/// Fabric-op index of the injected crash: safely past grid setup and
/// the buddy refresh (~10 ops on rank 2), inside the allreduce loop.
const CRASH_OP: u64 = 60;

/// The survivors' workload: set up a block-distributed tensor with
/// degree-1 buddy replication, run collectives until the injected crash
/// surfaces as a typed error, then recover online and report the
/// post-recovery state.
fn recovery_workload(c: Comm) -> Vec<u64> {
    let grid = CartGrid::new(c, &GRID);
    let x = DistTensor::from_fn(&grid, Shape::new(&DIMS), |idx| {
        (idx[0] * 31 + idx[1] * 7) as f64 / 17.0
    });
    let buddies = try_refresh_buddies(&grid, &x, 1).expect("the crash lands after the refresh");

    // Drive collectives until rank 2's crash is observed. Which
    // iteration (and which CommError variant) each survivor sees is
    // schedule-dependent; nothing from this loop may leak into the
    // return value.
    let work = || -> Result<(), CommError> {
        for _ in 0..200 {
            grid.comm
                .try_allreduce(vec![x.local().squared_norm_f64()], sum_op)?;
        }
        Ok(())
    };
    work().expect_err("the injected crash must surface within 200 allreduces");

    // Online recovery, mirroring the resilient driver: revoke → agree →
    // shrink → buddy-restore → re-block → rebuild the grid.
    grid.comm.revoke();
    let survivors = grid.comm.try_agree().expect("survivors agree");
    let p = grid.comm.size();
    let me = grid.comm.rank();
    let in_surv = |r: usize| survivors.contains(&grid.comm.world_rank_of(r));
    let dead: Vec<usize> = (0..p).filter(|&r| !in_surv(r)).collect();
    assert_eq!(dead, vec![CRASH_RANK], "exactly the crashed rank is dead");

    let newcomm = grid
        .comm
        .shrink(&survivors)
        .expect("an agreed survivor is in its own survivor list");
    let mut pieces = vec![BlockPiece::from_block(x.dist(), x.coords(), x.local())];
    for &d in &dead {
        let holder = restorer_for(d, p, 1, in_surv).expect("the buddy of rank 2 survived");
        if holder == me {
            let rep = buddies
                .replica_for(d)
                .expect("the ring successor holds the replica");
            pieces.push(rep.to_piece(&x));
        }
    }
    let new_dims = choose_shrunk_dims(&GRID, newcomm.size());
    let new_dist = TensorDist::new(Shape::new(&DIMS), &new_dims);
    let block = try_redistribute(&newcomm, &new_dist, pieces).expect("re-blocking succeeds");

    match try_rebuild_grid(newcomm, &GRID).expect("grid rebuild succeeds") {
        ShrinkOutcome::Active(g2) => {
            let xb = block.expect("active ranks of the shrunken grid receive a block");
            let total = g2
                .comm
                .try_allreduce(vec![xb.local().squared_norm_f64()], sum_op)
                .expect("post-recovery collective succeeds")[0];
            let mut out = vec![1u64];
            out.extend(survivors.iter().map(|&s| s as u64));
            out.extend(g2.dims().iter().map(|&d| d as u64));
            out.push(total.to_bits());
            out.extend(xb.local().data().iter().map(|v| v.to_bits()));
            out
        }
        ShrinkOutcome::Spare(_) => {
            let mut out = vec![u64::MAX];
            out.extend(survivors.iter().map(|&s| s as u64));
            out
        }
    }
}

#[test]
fn p4_recovery_converges_to_identical_state_under_25_schedules() {
    let plan = FaultPlan::quiet(11).with_crash(CRASH_RANK, CRASH_OP);
    let u = Universe::with_fault_plan(4, plan);
    u.set_recv_timeout(Duration::from_secs(20));
    let report = u.explore(N_SCHEDULES, 0x2ECE, recovery_workload);
    assert_eq!(report.policies.len(), N_SCHEDULES);
    // Exactly the crashed rank fails — under every schedule, with the
    // same deterministic panic message (checked inside explore).
    assert_eq!(report.failed_ranks, vec![CRASH_RANK]);
}

#[test]
fn p4_straggler_demotion_converges_to_identical_state_under_25_schedules() {
    use ratucker::{dist_ra_hooi_resilient, ResilienceConfig, ResilientOutcome};
    use ratucker_obs::StragglerPolicy;

    const VICTIM: usize = 1;
    let plan = FaultPlan::quiet(91).with_slow_rank(VICTIM, Duration::from_millis(5));
    let u = Universe::with_fault_plan(4, plan);
    u.set_recv_timeout(Duration::from_secs(60));
    let report = u.explore(N_SCHEDULES, 0xDE40, move |c| {
        let spec = SyntheticSpec::new(&[12, 10, 8], &[3, 3, 2], 0.01, 913);
        let grid = CartGrid::new(c, &[2, 2, 1]);
        let x = DistTensor::scatter_from_replicated(&grid, &spec.build::<f64>());
        let cfg = RaConfig::ra_hosi_dt(0.1, &[2, 2, 2])
            .with_seed(31)
            .with_alpha(2.0)
            .with_max_iters(3);
        // The 2.0 multiple absorbs the blame cascade (ranks queued up
        // behind the victim accrue secondary wait); the 5 ms/op signal
        // is ~300× the largest schedule perturbation, so the verdict
        // cannot flip with the schedule.
        let res = ResilienceConfig::default().with_straggler(
            StragglerPolicy::new(2.0)
                .with_consecutive(1)
                .with_min_secs(0.02),
        );
        match dist_ra_hooi_resilient(&grid, &x, &cfg, &res).expect("no rank errors out") {
            ResilientOutcome::Completed { result, report, .. } => {
                let mut out = vec![1u64];
                out.extend(report.demoted_ranks.iter().map(|&r| r as u64));
                out.extend(report.final_grid.iter().map(|&d| d as u64));
                out.push(result.rel_error.to_bits());
                for f in &result.tucker.factors {
                    out.extend(f.as_slice().iter().map(|v| v.to_bits()));
                }
                out
            }
            ResilientOutcome::Spare { report, .. } => {
                let mut out = vec![u64::MAX];
                out.extend(report.demoted_ranks.iter().map(|&r| r as u64));
                out
            }
            ResilientOutcome::FallbackToCheckpoint { dead, .. } => {
                panic!("no checkpoint policy is configured, yet fallback named {dead:?}")
            }
        }
    });
    assert_eq!(report.policies.len(), N_SCHEDULES);
    assert!(
        report.failed_ranks.is_empty(),
        "demotion must be clean on every rank, failed: {:?}",
        report.failed_ranks
    );
}

#[test]
fn p8_budget_pressure_converges_to_identical_state_under_25_schedules() {
    use ratucker::{dist_ra_hooi_resilient, ResilienceConfig, ResilientOutcome};

    // The chaos-suite scenario-14 cell: rank 3's budget shrinks to
    // 28800 B at its own fabric op 60 — program-order deterministic on
    // the pressured rank, and far from a sweep-commit boundary, so the
    // refusal always lands mid-sweep. The ladder verdict travels the
    // revocation-immune ctrl plane, so every schedule must agree rung 1
    // and finish bit-identical on the full grid.
    let plan = FaultPlan::quiet(67).with_mem_pressure(3, 60, 28_800);
    let u = Universe::with_fault_plan(8, plan);
    u.set_recv_timeout(Duration::from_secs(60));
    let report = u.explore(N_SCHEDULES, 0xB4D6, move |c| {
        let spec = SyntheticSpec::new(&[24, 20, 16], &[6, 6, 4], 0.01, 914);
        let grid = CartGrid::new(c, &[2, 2, 2]);
        let x = DistTensor::scatter_from_replicated(&grid, &spec.build::<f64>());
        let cfg = RaConfig::ra_hosi_dt(0.1, &[3, 3, 2])
            .with_seed(31)
            .with_alpha(2.0)
            .with_max_iters(3);
        let res = ResilienceConfig::default().with_buddy_degree(0);
        match dist_ra_hooi_resilient(&grid, &x, &cfg, &res).expect("no rank errors out") {
            ResilientOutcome::Completed { result, report, .. } => {
                let mut out = vec![1u64, report.max_rung as u64];
                out.extend(report.final_grid.iter().map(|&d| d as u64));
                out.push(result.rel_error.to_bits());
                for f in &result.tucker.factors {
                    out.extend(f.as_slice().iter().map(|v| v.to_bits()));
                }
                out
            }
            other => panic!("budget pressure must stay on the ladder, got {other:?}"),
        }
    });
    assert_eq!(report.policies.len(), N_SCHEDULES);
    assert!(
        report.failed_ranks.is_empty(),
        "degradation must be clean on every rank, failed: {:?}",
        report.failed_ranks
    );
}
