//! Chaos suite: distributed decompositions under injected faults.
//!
//! Every scenario must end in one of exactly two ways — a correct result
//! or a clean *typed* error — never a hang and never a silent wrong
//! answer. Fault plans are seeded and counter-hashed, so each scenario
//! is replayable from its `(seed, plan)` pair.
//!
//! Scenario catalogue (ISSUE tentpole 5):
//! 1. delay-only STHOSVD at P = 4 — semantics preserving, bit-equal;
//! 2. delay-only HOOI at P = 8 — semantics preserving, bit-equal;
//! 3. message drops at P = 2 — surface as typed timeouts, fast;
//! 4. NaN payload injection at P = 2 — caught by the kernel screens;
//! 5. rank crash mid-HOOI at P = 4 — peers fail fast with typed errors;
//! 6. rank crash mid-RA-HOSI-DT at P = 4 → checkpoint resume matches the
//!    fault-free decomposition within 1e-10 and meets ε;
//! 7. sampled mixed fault plans over STHOSVD *and* RA-HOSI-DT — each
//!    sampled run is correct-or-typed-error.
//!
//! Online-recovery scenarios (ISSUE "shrink-and-continue" tentpole):
//! 8. kill 1 of 8 ranks mid-RA-HOSI-DT sweep → the survivors finish
//!    **online** (agree → shrink → buddy restore → continue), with no
//!    disk restart, matching the fault-free run within 1e-10;
//! 9. kill a rank *and* its only buddy at the same mid-sweep op → every
//!    survivor reports a clean `FallbackToCheckpoint`, and the disk
//!    resume then matches the fault-free run within 1e-10;
//! 10. sampled mixed fault plans through the resilient solver — each
//!     sampled run either completes bit-equal to fault-free (transient
//!     faults were retried or missed) or fails with a typed error.
//!
//! Gray-failure scenarios (ISSUE "deadlines, retries, demotion"
//! tentpole):
//! 11. a persistently slow (but alive and correct) rank at P = 8 is
//!     confirmed by the induced-wait straggler detector, demoted online
//!     through the shrink path, and the survivors converge within 1e-10
//!     of the fault-free run — without ever waiting out the recv
//!     timeout;
//! 12. a flaky link (seeded intermittent drops at probability 0.2) is
//!     fully healed by send-side retry-with-backoff: no failure
//!     surfaces and the result is bit-identical to fault-free;
//! 13. a dead-slow rank under a strict per-collective deadline is
//!     blamed, retired, and (with replication disabled) every survivor
//!     reports a clean `FallbackToCheckpoint`; the disk resume then
//!     matches the fault-free run within 1e-10.
//!
//! Memory-pressure scenarios (ISSUE "budget + degradation ladder"
//! tentpole):
//! 14. a mid-sweep per-rank budget shrink at P = 8 trips a typed
//!     `BudgetExceeded`, the collectively-agreed degradation ladder
//!     steps to rung 1 (the TTM reduced in `2·P_j` slabs), and the run
//!     completes on the full grid bit-identical to fault-free — memory
//!     pressure costs footprint, never accuracy;
//! 15. a budget below what even the cheapest rung needs exhausts the
//!     ladder: every rank reports a clean `FallbackToCheckpoint` (no
//!     rank dead, reason naming the memory budget), and the disk
//!     resume on a healthy universe matches the fault-free run within
//!     1e-10.
//!
//! Service scenarios (ISSUE "multi-tenant service" tentpole):
//! 16. kill one rank mid-compress *through the service* under load:
//!     the victim job still completes (online recovery, or checkpoint
//!     fallback + resume), concurrent query jobs on other stored cores
//!     keep succeeding throughout, the one-shot plan does not leak
//!     into the next job on the warm universe, and the per-tenant
//!     traffic charges still partition the global ledger exactly.

use std::path::PathBuf;
use std::time::Duration;

use ra_hooi::dist::DistTensor;
use ra_hooi::mpi::{
    CartGrid, CorruptMode, DeadlinePolicy, FaultPlan, RankFailure, RetryPolicy, Universe,
};
use ra_hooi::obs::StragglerPolicy;
use ra_hooi::prelude::*;
use ra_hooi::serve::{CompressSpec, JobOutcome, QuerySpec, Request, ServeConfig, Service};
use ra_hooi::tucker::dist::{dist_hooi, dist_ra_hooi, dist_ra_hooi_checkpointed, dist_sthosvd};
use ra_hooi::tucker::{dist_ra_hooi_resilient, ResilienceConfig, ResilientOutcome};
use ratucker_verify::tolerances::TOL_DIST_REL_ERROR;

/// The full set of messages a typed failure is allowed to carry. Anything
/// else is an untyped panic leaking through the fault layer.
const TYPED_FAILURES: &[&str] = &[
    "timed out waiting for a message",
    "fabric channel closed",
    "unexpected element type",
    "injected fault at rank",
    "injected crash",
    "detected corrupted data",
    "silent data corruption",
    "communicator revoked",
    "wrong-sized payload",
    "deadline budget",
    "demoted by the failure detector",
];

fn assert_typed(f: &RankFailure) {
    assert!(
        TYPED_FAILURES.iter().any(|t| f.message.contains(t)),
        "rank {} failed with an untyped panic: {}",
        f.rank,
        f.message
    );
}

fn ckpt_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ratucker_chaos_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

// ---------------------------------------------------------------- 1 & 2

#[test]
fn delay_only_sthosvd_p4_is_bit_identical_to_fault_free() {
    let spec = SyntheticSpec::new(&[12, 10, 8], &[3, 3, 2], 0.02, 901);
    let plan = FaultPlan::quiet(17).with_delays(0.4, Duration::from_millis(2));
    assert!(plan.is_semantics_preserving());

    let s = spec.clone();
    let baseline = Universe::launch(4, move |c| {
        let grid = CartGrid::new(c, &[2, 2, 1]);
        let x = DistTensor::scatter_from_replicated(&grid, &s.build::<f64>());
        let res = dist_sthosvd(&grid, &x, &SthosvdTruncation::RelError(0.1));
        (res.rel_error, res.tucker.ranks())
    });

    let s = spec.clone();
    let u = Universe::with_fault_plan(4, plan);
    let delayed = u.run(move |c| {
        let grid = CartGrid::new(c, &[2, 2, 1]);
        let x = DistTensor::scatter_from_replicated(&grid, &s.build::<f64>());
        let res = dist_sthosvd(&grid, &x, &SthosvdTruncation::RelError(0.1));
        (res.rel_error, res.tucker.ranks())
    });

    for (b, d) in baseline.iter().zip(&delayed) {
        assert_eq!(
            b.0.to_bits(),
            d.0.to_bits(),
            "rel_error drifted under delays"
        );
        assert_eq!(b.1, d.1, "ranks drifted under delays");
    }
}

#[test]
fn delay_only_hooi_p8_is_bit_identical_to_fault_free() {
    let spec = SyntheticSpec::new(&[12, 10, 8], &[3, 3, 2], 0.02, 902);
    let cfg = HooiConfig::hosi_dt().with_max_iters(2).with_seed(5);
    let plan = FaultPlan::quiet(23).with_delays(0.25, Duration::from_millis(1));
    assert!(plan.is_semantics_preserving());

    let s = spec.clone();
    let c2 = cfg.clone();
    let baseline = Universe::launch(8, move |c| {
        let grid = CartGrid::new(c, &[2, 2, 2]);
        let x = DistTensor::scatter_from_replicated(&grid, &s.build::<f64>());
        dist_hooi(&grid, &x, &[3, 3, 2], &c2).rel_error
    });

    let s = spec.clone();
    let c2 = cfg.clone();
    let u = Universe::with_fault_plan(8, plan);
    let delayed = u.run(move |c| {
        let grid = CartGrid::new(c, &[2, 2, 2]);
        let x = DistTensor::scatter_from_replicated(&grid, &s.build::<f64>());
        dist_hooi(&grid, &x, &[3, 3, 2], &c2).rel_error
    });

    for (b, d) in baseline.iter().zip(&delayed) {
        assert_eq!(b.to_bits(), d.to_bits(), "rel_error drifted under delays");
    }
}

// ------------------------------------------------------------------- 3

#[test]
fn dropped_messages_surface_as_typed_timeouts_not_hangs() {
    let spec = SyntheticSpec::new(&[10, 8], &[3, 2], 0.02, 903);
    let plan = FaultPlan::quiet(29).with_drops(1.0);
    let u = Universe::with_fault_plan(2, plan);
    u.set_recv_timeout(Duration::from_millis(250));

    let started = std::time::Instant::now();
    let results = u.try_run(move |c| {
        let grid = CartGrid::new(c, &[2, 1]);
        let x = DistTensor::scatter_from_replicated(&grid, &spec.build::<f64>());
        dist_sthosvd(&grid, &x, &SthosvdTruncation::RelError(0.1)).rel_error
    });

    let failures: Vec<&RankFailure> = results.iter().filter_map(|r| r.as_ref().err()).collect();
    assert!(!failures.is_empty(), "dropping every message must fail");
    for f in &failures {
        assert_typed(f);
    }
    assert!(
        failures.iter().any(|f| f.message.contains("timed out")
            || f.message.contains("fabric channel closed")),
        "at least one rank must observe the lost message: {failures:?}"
    );
    // "Never hang": everything resolved within a few timeout periods.
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "drop scenario took {:?}",
        started.elapsed()
    );
}

// ------------------------------------------------------------------- 4

#[test]
fn nan_injection_is_caught_by_the_kernel_screens() {
    let spec = SyntheticSpec::new(&[10, 8], &[3, 2], 0.02, 904);
    let plan = FaultPlan::quiet(31).with_corruption(1.0, CorruptMode::NanInject);
    let u = Universe::with_fault_plan(2, plan);
    u.set_recv_timeout(Duration::from_secs(5));

    let results = u.try_run(move |c| {
        let grid = CartGrid::new(c, &[2, 1]);
        let x = DistTensor::scatter_from_replicated(&grid, &spec.build::<f64>());
        dist_sthosvd(&grid, &x, &SthosvdTruncation::RelError(0.1)).rel_error
    });

    let failures: Vec<&RankFailure> = results.iter().filter_map(|r| r.as_ref().err()).collect();
    assert!(!failures.is_empty(), "NaN injection must not pass silently");
    for f in &failures {
        assert_typed(f);
    }
    assert!(
        failures
            .iter()
            .any(|f| f.message.contains("detected corrupted data")),
        "the numerical screens must name the corruption: {failures:?}"
    );
}

// ------------------------------------------------------------------- 5

#[test]
fn rank_crash_mid_hooi_fails_fast_with_typed_errors() {
    let spec = SyntheticSpec::new(&[12, 10, 8], &[3, 3, 2], 0.02, 905);
    let cfg = HooiConfig::hosi_dt().with_max_iters(2).with_seed(5);
    let plan = FaultPlan::quiet(37).with_crash(2, 25);
    let u = Universe::with_fault_plan(4, plan);
    u.set_recv_timeout(Duration::from_secs(5));

    let started = std::time::Instant::now();
    let results = u.try_run(move |c| {
        let grid = CartGrid::new(c, &[2, 2, 1]);
        let x = DistTensor::scatter_from_replicated(&grid, &spec.build::<f64>());
        dist_hooi(&grid, &x, &[3, 3, 2], &cfg).rel_error
    });

    let failures: Vec<&RankFailure> = results.iter().filter_map(|r| r.as_ref().err()).collect();
    assert!(!failures.is_empty(), "a scheduled crash must be observed");
    for f in &failures {
        assert_typed(f);
    }
    assert!(
        failures
            .iter()
            .any(|f| f.rank == 2 && f.message.contains("injected crash")),
        "rank 2's own failure must carry the crash payload: {failures:?}"
    );
    // Survivors fail fast on the retired peer rather than waiting out the
    // receive timeout.
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "crash scenario took {:?}",
        started.elapsed()
    );
}

// ------------------------------------------------------------------- 6

#[test]
fn crash_then_checkpoint_resume_matches_the_fault_free_run() {
    let spec = SyntheticSpec::new(&[12, 10, 8], &[3, 3, 2], 0.01, 906);
    let cfg = RaConfig::ra_hosi_dt(0.1, &[2, 2, 2])
        .with_seed(31)
        .with_alpha(2.0)
        .with_max_iters(3);
    let dir = ckpt_dir("crash_resume");

    // Fault-free reference.
    let s = spec.clone();
    let c2 = cfg.clone();
    let reference = Universe::launch(4, move |c| {
        let grid = CartGrid::new(c, &[2, 2, 1]);
        let x = DistTensor::scatter_from_replicated(&grid, &s.build::<f64>());
        let res = dist_ra_hooi(&grid, &x, &c2);
        (res.rel_error, res.tucker.gather(&grid))
    })
    .into_iter()
    .next()
    .unwrap();
    assert!(
        reference.0 <= cfg.eps,
        "reference run must meet the tolerance, got {}",
        reference.0
    );

    // Crash rank 1 mid-run while checkpointing every sweep.
    let s = spec.clone();
    let c2 = cfg.clone();
    let policy = CheckpointPolicy::new(&dir).every(1);
    let u = Universe::with_fault_plan(4, FaultPlan::quiet(41).with_crash(1, 60));
    u.set_recv_timeout(Duration::from_secs(5));
    let faulty = u.try_run(move |c| {
        let grid = CartGrid::new(c, &[2, 2, 1]);
        let x = DistTensor::scatter_from_replicated(&grid, &s.build::<f64>());
        dist_ra_hooi_checkpointed(&grid, &x, &c2, &policy).rel_error
    });
    let failures: Vec<&RankFailure> = faulty.iter().filter_map(|r| r.as_ref().err()).collect();
    assert!(!failures.is_empty(), "the crash at op 60 must be observed");
    for f in &failures {
        assert_typed(f);
    }

    // Resume from whatever checkpoint survived; with an empty directory
    // this degrades to a fresh run, which must *also* match.
    let s = spec.clone();
    let c2 = cfg.clone();
    let policy = CheckpointPolicy::new(&dir).every(1).resuming();
    let resumed = Universe::launch(4, move |c| {
        let grid = CartGrid::new(c, &[2, 2, 1]);
        let x = DistTensor::scatter_from_replicated(&grid, &s.build::<f64>());
        let res = dist_ra_hooi_checkpointed(&grid, &x, &c2, &policy);
        (res.rel_error, res.tucker.gather(&grid))
    })
    .into_iter()
    .next()
    .unwrap();

    // Acceptance: resume reproduces the fault-free decomposition within
    // 1e-10 and still meets ε.
    assert!(
        (resumed.0 - reference.0).abs() <= 1e-10,
        "rel_error diverged after resume: {} vs {}",
        resumed.0,
        reference.0
    );
    assert!(resumed.0 <= cfg.eps, "resumed run missed ε: {}", resumed.0);
    assert_eq!(resumed.1.ranks(), reference.1.ranks());
    assert!(
        resumed.1.core.max_abs_diff(&reference.1.core) <= 1e-10,
        "core diverged after resume"
    );
    for (a, b) in resumed.1.factors.iter().zip(&reference.1.factors) {
        assert!(a.max_abs_diff(b) <= 1e-10, "factor diverged after resume");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------------------------- 7

#[test]
fn sampled_fault_plans_always_end_in_result_or_typed_error() {
    let spec = SyntheticSpec::new(&[10, 8, 6], &[3, 2, 2], 0.02, 907);
    let ra = RaConfig::ra_hosi_dt(0.15, &[2, 2, 2])
        .with_seed(13)
        .with_alpha(2.0)
        .with_max_iters(2);

    // Fault-free references.
    let s = spec.clone();
    let st_ref = Universe::launch(2, move |c| {
        let grid = CartGrid::new(c, &[2, 1, 1]);
        let x = DistTensor::scatter_from_replicated(&grid, &s.build::<f64>());
        dist_sthosvd(&grid, &x, &SthosvdTruncation::RelError(0.15)).rel_error
    })[0];
    let s = spec.clone();
    let r2 = ra.clone();
    let ra_ref = Universe::launch(2, move |c| {
        let grid = CartGrid::new(c, &[2, 1, 1]);
        let x = DistTensor::scatter_from_replicated(&grid, &s.build::<f64>());
        dist_ra_hooi(&grid, &x, &r2).rel_error
    })[0];

    for seed in 0..6u64 {
        let plan = FaultPlan::quiet(seed)
            .with_delays(0.2, Duration::from_millis(1))
            .with_drops(0.02)
            .with_corruption(0.02, CorruptMode::NanInject);
        let u = Universe::with_fault_plan(2, plan);
        u.set_recv_timeout(Duration::from_millis(500));

        let s = spec.clone();
        let r2 = ra.clone();
        let results = u.try_run(move |c| {
            let grid = CartGrid::new(c, &[2, 1, 1]);
            let x = DistTensor::scatter_from_replicated(&grid, &s.build::<f64>());
            // Alternate algorithms across sampled seeds; both ranks must
            // agree, so the choice is keyed on the seed only.
            if seed % 2 == 0 {
                dist_sthosvd(&grid, &x, &SthosvdTruncation::RelError(0.15)).rel_error
            } else {
                dist_ra_hooi(&grid, &x, &r2).rel_error
            }
        });

        let want = if seed % 2 == 0 { st_ref } else { ra_ref };
        for r in &results {
            match r {
                // Drops / corruption happened to miss: the answer must be
                // *correct*, not merely finite.
                Ok(got) => assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "seed {seed}: survived faults but answer drifted"
                ),
                Err(f) => assert_typed(f),
            }
        }
    }
}

// ------------------------------------------------------------------- 8

/// Per-rank digest of a resilient run for the crash scenarios.
#[derive(Debug)]
enum Digest {
    Completed {
        rel_error: f64,
        core_norm: f64,
        recoveries: usize,
        restored: Vec<usize>,
        final_grid: Vec<usize>,
        max_rung: u8,
    },
    Spare,
    Fallback {
        dead: Vec<usize>,
    },
}

fn digest(outcome: ResilientOutcome<f64>) -> Digest {
    match outcome {
        ResilientOutcome::Completed {
            result,
            grid,
            report,
        } => Digest::Completed {
            rel_error: result.rel_error,
            core_norm: result.tucker.gather(&grid).core.squared_norm_f64().sqrt(),
            recoveries: report.recoveries,
            restored: report.restored_ranks,
            final_grid: report.final_grid,
            max_rung: report.max_rung,
        },
        ResilientOutcome::Spare { .. } => Digest::Spare,
        ResilientOutcome::FallbackToCheckpoint { dead, .. } => Digest::Fallback { dead },
    }
}

#[test]
fn kill_one_of_eight_mid_sweep_recovers_online_within_1e10() {
    let spec = SyntheticSpec::new(&[12, 10, 8], &[3, 3, 2], 0.01, 908);
    let cfg = RaConfig::ra_hosi_dt(0.1, &[2, 2, 2])
        .with_seed(31)
        .with_alpha(2.0)
        .with_max_iters(3);

    // Fault-free reference on the full [2,2,2] grid.
    let s = spec.clone();
    let c2 = cfg.clone();
    let (ref_err, ref_core_norm) = Universe::launch(8, move |c| {
        let grid = CartGrid::new(c, &[2, 2, 2]);
        let x = DistTensor::scatter_from_replicated(&grid, &s.build::<f64>());
        let res = dist_ra_hooi(&grid, &x, &c2);
        let core_norm = res.tucker.gather(&grid).core.squared_norm_f64().sqrt();
        (res.rel_error, core_norm)
    })
    .into_iter()
    .next()
    .unwrap();
    assert!(ref_err <= cfg.eps, "reference missed ε: {ref_err}");

    // Kill rank 5 mid-sweep; no checkpoint policy is attached, so the
    // *only* way to finish is the online shrink-and-continue path.
    let victim = 5usize;
    let s = spec.clone();
    let c2 = cfg.clone();
    let u = Universe::with_fault_plan(8, FaultPlan::quiet(43).with_crash(victim, 60));
    u.set_recv_timeout(Duration::from_secs(5));
    let started = std::time::Instant::now();
    let results = u.try_run(move |c| {
        let grid = CartGrid::new(c, &[2, 2, 2]);
        let x = DistTensor::scatter_from_replicated(&grid, &s.build::<f64>());
        digest(dist_ra_hooi_resilient(&grid, &x, &c2, &ResilienceConfig::default()).unwrap())
    });

    let f = results[victim].as_ref().unwrap_err();
    assert!(
        f.message.contains("injected crash"),
        "victim must die of the scheduled crash: {}",
        f.message
    );
    let mut completed = 0;
    let mut spares = 0;
    for (rank, r) in results.iter().enumerate() {
        if rank == victim {
            continue;
        }
        match r.as_ref().expect("survivors must not panic") {
            Digest::Completed {
                rel_error,
                core_norm,
                recoveries,
                restored,
                final_grid,
                ..
            } => {
                completed += 1;
                assert!(*recoveries >= 1);
                assert!(restored.contains(&victim), "restored {restored:?}");
                // 7 survivors → largest grid elementwise ≤ [2,2,2] is 4.
                assert_eq!(final_grid.iter().product::<usize>(), 4);
                assert!(
                    (rel_error - ref_err).abs() <= 1e-10,
                    "rank {rank}: rel_error diverged online: {rel_error} vs {ref_err}"
                );
                assert!(
                    (core_norm - ref_core_norm).abs() <= 1e-10 * ref_core_norm.max(1.0),
                    "rank {rank}: core norm diverged online: {core_norm} vs {ref_core_norm}"
                );
                assert!(*rel_error <= cfg.eps, "recovered run missed ε");
            }
            Digest::Spare => spares += 1,
            Digest::Fallback { dead } => {
                panic!("rank {rank} fell back to disk (dead {dead:?}) — recovery must be online")
            }
        }
    }
    assert_eq!((completed, spares), (4, 3), "4 actives + 3 spares");
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "online recovery took {:?}",
        started.elapsed()
    );
}

// ------------------------------------------------------------------- 9

#[test]
fn killing_rank_and_buddy_falls_back_to_checkpoint_cleanly() {
    let spec = SyntheticSpec::new(&[12, 10, 8], &[3, 3, 2], 0.01, 909);
    let cfg = RaConfig::ra_hosi_dt(0.1, &[2, 2, 2])
        .with_seed(31)
        .with_alpha(2.0)
        .with_max_iters(3);
    let dir = ckpt_dir("double_crash");

    // Fault-free reference.
    let s = spec.clone();
    let c2 = cfg.clone();
    let reference = Universe::launch(4, move |c| {
        let grid = CartGrid::new(c, &[2, 2, 1]);
        let x = DistTensor::scatter_from_replicated(&grid, &s.build::<f64>());
        let res = dist_ra_hooi(&grid, &x, &c2);
        (res.rel_error, res.tucker.gather(&grid))
    })
    .into_iter()
    .next()
    .unwrap();

    // With degree-1 replication rank 2's only replica lives on rank 3:
    // crash both at the same mid-sweep op and in-memory recovery is
    // impossible by construction.
    let s = spec.clone();
    let c2 = cfg.clone();
    let policy = CheckpointPolicy::new(&dir).every(1);
    let res_cfg = ResilienceConfig::default()
        .with_checkpoint(policy.clone())
        .with_buddy_degree(1);
    let plan = FaultPlan::quiet(47).with_crash(2, 60).with_crash(3, 60);
    let u = Universe::with_fault_plan(4, plan);
    u.set_recv_timeout(Duration::from_secs(5));
    let results = u.try_run(move |c| {
        let grid = CartGrid::new(c, &[2, 2, 1]);
        let x = DistTensor::scatter_from_replicated(&grid, &s.build::<f64>());
        digest(dist_ra_hooi_resilient(&grid, &x, &c2, &res_cfg).unwrap())
    });
    for rank in [2usize, 3] {
        let f = results[rank].as_ref().unwrap_err();
        assert_typed(f);
    }
    for rank in [0usize, 1] {
        match results[rank].as_ref().expect("survivors must not panic") {
            Digest::Fallback { dead } => {
                assert!(dead.contains(&2), "dead set {dead:?} must name rank 2");
            }
            Digest::Completed { .. } | Digest::Spare => {
                panic!("rank {rank}: degree-1 replication cannot survive a rank+buddy loss")
            }
        }
    }

    // RTCK: resume from the surviving checkpoint and match the fault-free
    // decomposition within 1e-10 (exactly the scenario-6 acceptance).
    let s = spec.clone();
    let c2 = cfg.clone();
    let policy = policy.resuming();
    let resumed = Universe::launch(4, move |c| {
        let grid = CartGrid::new(c, &[2, 2, 1]);
        let x = DistTensor::scatter_from_replicated(&grid, &s.build::<f64>());
        let res = dist_ra_hooi_checkpointed(&grid, &x, &c2, &policy);
        (res.rel_error, res.tucker.gather(&grid))
    })
    .into_iter()
    .next()
    .unwrap();
    assert!(
        (resumed.0 - reference.0).abs() <= 1e-10,
        "rel_error diverged after the disk fallback: {} vs {}",
        resumed.0,
        reference.0
    );
    assert_eq!(resumed.1.ranks(), reference.1.ranks());
    assert!(resumed.1.core.max_abs_diff(&reference.1.core) <= 1e-10);

    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------------------------ 10

#[test]
fn sampled_fault_plans_through_the_resilient_solver() {
    let spec = SyntheticSpec::new(&[10, 8, 6], &[3, 2, 2], 0.02, 910);
    let ra = RaConfig::ra_hosi_dt(0.15, &[2, 2, 2])
        .with_seed(13)
        .with_alpha(2.0)
        .with_max_iters(2);

    // Fault-free reference (the resilient path is bit-identical to the
    // plain one when nothing fails).
    let s = spec.clone();
    let r2 = ra.clone();
    let want = Universe::launch(2, move |c| {
        let grid = CartGrid::new(c, &[2, 1, 1]);
        let x = DistTensor::scatter_from_replicated(&grid, &s.build::<f64>());
        dist_ra_hooi(&grid, &x, &r2).rel_error
    })[0];

    for seed in 0..6u64 {
        let plan = FaultPlan::quiet(100 + seed)
            .with_delays(0.2, Duration::from_millis(1))
            .with_drops(0.02)
            .with_corruption(0.02, CorruptMode::NanInject);
        let u = Universe::with_fault_plan(2, plan);
        u.set_recv_timeout(Duration::from_millis(500));

        let s = spec.clone();
        let r2 = ra.clone();
        let results = u.try_run(move |c| {
            let grid = CartGrid::new(c, &[2, 1, 1]);
            let x = DistTensor::scatter_from_replicated(&grid, &s.build::<f64>());
            let res = ResilienceConfig::default().with_abft(ra_hooi::dist::AbftMode::Detect);
            // Surface solver errors with their Display text so they land
            // in the typed-failure whitelist, as the drivers would.
            digest(dist_ra_hooi_resilient(&grid, &x, &r2, &res).unwrap_or_else(|e| panic!("{e}")))
        });

        for r in &results {
            match r {
                // Same-topology retries are bit-transparent: the sweep
                // restarts from the replicated pre-sweep snapshot, so a
                // run that rides out its faults on the original grid
                // must land the exact fault-free answer.
                Ok(Digest::Completed {
                    rel_error,
                    final_grid,
                    ..
                }) if final_grid == &[2, 1, 1] => assert_eq!(
                    rel_error.to_bits(),
                    want.to_bits(),
                    "seed {seed}: transient faults must be retried into the exact answer"
                ),
                // A mid-run shrink moves the remaining sweeps onto a
                // smaller grid whose collectives reduce in a different
                // order; bit-identity is a per-grid contract (the
                // conformance suite holds grids to the sequential
                // oracle only within TOL_DIST_REL_ERROR), so a shrunk
                // completion is held to that same cross-grid tolerance.
                Ok(Digest::Completed {
                    rel_error,
                    final_grid,
                    ..
                }) => assert!(
                    (rel_error - want).abs() < TOL_DIST_REL_ERROR,
                    "seed {seed}: shrunk completion on {final_grid:?} drifted \
                     past the cross-grid tolerance: {rel_error} vs {want}"
                ),
                // At P = 2 a "failure" consensus can leave a lone
                // survivor as the whole grid or a fallback — both are
                // clean typed outcomes, not hangs.
                Ok(Digest::Spare) | Ok(Digest::Fallback { .. }) => {}
                Err(f) => assert_typed(f),
            }
        }
    }
}

// ------------------------------------------------------------------ 11

#[test]
fn persistent_straggler_at_p8_is_demoted_online_within_1e10() {
    let spec = SyntheticSpec::new(&[12, 10, 8], &[3, 3, 2], 0.01, 911);
    let cfg = RaConfig::ra_hosi_dt(0.1, &[2, 2, 2])
        .with_seed(31)
        .with_alpha(2.0)
        .with_max_iters(3);

    // Fault-free reference on the full [2,2,2] grid.
    let s = spec.clone();
    let c2 = cfg.clone();
    let ref_err = Universe::launch(8, move |c| {
        let grid = CartGrid::new(c, &[2, 2, 2]);
        let x = DistTensor::scatter_from_replicated(&grid, &s.build::<f64>());
        dist_ra_hooi(&grid, &x, &c2).rel_error
    })[0];

    // Rank 5 never crashes and never corrupts a payload — it is just
    // slow on every data-plane operation. Liveness probes cannot see
    // this; only the induced-wait signal can.
    let victim = 5usize;
    let plan = FaultPlan::quiet(53).with_slow_rank(victim, Duration::from_millis(5));
    assert!(plan.is_semantics_preserving());
    let u = Universe::with_fault_plan(8, plan);
    u.set_recv_timeout(Duration::from_secs(120));

    let s = spec.clone();
    let c2 = cfg.clone();
    let started = std::time::Instant::now();
    let results = u.try_run(move |c| {
        let grid = CartGrid::new(c, &[2, 2, 2]);
        let x = DistTensor::scatter_from_replicated(&grid, &s.build::<f64>());
        let res = ResilienceConfig::default().with_straggler(
            StragglerPolicy::new(2.0)
                .with_consecutive(1)
                .with_min_secs(0.05),
        );
        digest(dist_ra_hooi_resilient(&grid, &x, &c2, &res).unwrap())
    });

    let mut completed = 0;
    let mut spares = 0;
    for (rank, r) in results.iter().enumerate() {
        match r.as_ref().expect("no rank panics under demotion") {
            Digest::Completed {
                rel_error,
                recoveries,
                restored,
                final_grid,
                ..
            } => {
                completed += 1;
                assert!(*recoveries >= 1, "rank {rank}");
                assert!(restored.contains(&victim), "restored {restored:?}");
                // 7 survivors → largest grid elementwise ≤ [2,2,2] is 4.
                assert_eq!(final_grid.iter().product::<usize>(), 4);
                assert!(
                    (rel_error - ref_err).abs() <= 1e-10,
                    "rank {rank}: demotion diverged: {rel_error} vs {ref_err}"
                );
                assert!(*rel_error <= cfg.eps, "demoted run missed ε");
            }
            Digest::Spare => spares += 1,
            Digest::Fallback { dead } => {
                panic!("rank {rank} fell back to disk (dead {dead:?}) — demotion must be online")
            }
        }
    }
    // The demoted straggler exits as a spare alongside the 3 ranks that
    // do not fit the shrunken grid.
    assert_eq!((completed, spares), (4, 4), "4 actives + 4 spares");
    assert!(matches!(results[victim], Ok(Digest::Spare)));
    // "Never hangs": nothing waited out the 120 s receive timeout.
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "straggler demotion took {:?}",
        started.elapsed()
    );
}

// ------------------------------------------------------------------ 12

#[test]
fn flaky_link_is_fully_healed_by_retries_bit_identically() {
    let spec = SyntheticSpec::new(&[12, 10, 8], &[3, 3, 2], 0.01, 912);
    let cfg = RaConfig::ra_hosi_dt(0.1, &[2, 2, 2])
        .with_seed(31)
        .with_alpha(2.0)
        .with_max_iters(3);

    let s = spec.clone();
    let c2 = cfg.clone();
    let baseline = Universe::launch(4, move |c| {
        let grid = CartGrid::new(c, &[2, 2, 1]);
        let x = DistTensor::scatter_from_replicated(&grid, &s.build::<f64>());
        dist_ra_hooi(&grid, &x, &c2).rel_error
    });

    // The 0→1 link drops each message with probability 0.2 (seeded, so
    // the run is replayable); the sender retransmits with backoff.
    let plan = FaultPlan::quiet(59).with_flaky_link(0, 1, 0.2);
    assert!(!plan.is_semantics_preserving(), "flaky links lose data");
    let u = Universe::with_fault_plan(4, plan);
    u.set_retry_policy(Some(RetryPolicy::new(10)));

    let s = spec.clone();
    let c2 = cfg.clone();
    let healed = u.try_run(move |c| {
        let grid = CartGrid::new(c, &[2, 2, 1]);
        let x = DistTensor::scatter_from_replicated(&grid, &s.build::<f64>());
        dist_ra_hooi(&grid, &x, &c2).rel_error
    });

    for (b, h) in baseline.iter().zip(&healed) {
        let h = h.as_ref().expect("every drop must be healed by a retry");
        assert_eq!(
            b.to_bits(),
            h.to_bits(),
            "retry-healed run drifted from fault-free"
        );
    }
    // The plan actually dropped something — the equality above is only
    // interesting if retries did real work.
    let healed_drops = u
        .traffic()
        .drops_healed
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(healed_drops > 0, "flaky link never fired");
    u.traffic()
        .check_invariant()
        .expect("attempted == delivered + dropped");
}

// ------------------------------------------------------------------ 13

#[test]
fn deadline_expiry_under_dead_slow_rank_falls_back_to_checkpoint() {
    let spec = SyntheticSpec::new(&[12, 10, 8], &[3, 3, 2], 0.01, 913);
    let cfg = RaConfig::ra_hosi_dt(0.1, &[2, 2, 2])
        .with_seed(31)
        .with_alpha(2.0)
        .with_max_iters(3);
    let dir = ckpt_dir("deadline_fallback");

    // Fault-free reference.
    let s = spec.clone();
    let c2 = cfg.clone();
    let reference = Universe::launch(4, move |c| {
        let grid = CartGrid::new(c, &[2, 2, 1]);
        let x = DistTensor::scatter_from_replicated(&grid, &s.build::<f64>());
        let res = dist_ra_hooi(&grid, &x, &c2);
        (res.rel_error, res.tucker.gather(&grid))
    })
    .into_iter()
    .next()
    .unwrap();

    // Rank 1 turns dead-slow (2 s per data-plane op) partway into the
    // last sweep, against a 250 ms per-collective budget; replication
    // is disabled, so once the blame retires the straggler the only
    // clean exit is the disk fallback. The onset keeps the setup
    // collectives (grid construction, ‖X‖²) fault-free — those run
    // outside the resilient driver, exactly like a real job's
    // initialization, and a node degrading mid-run is the gray-failure
    // shape this scenario models. Op 80 of rank 1's 104 fault-free ops
    // is the reduce-scatter wait of the third sweep's first TTM after
    // its first SI step.
    let victim = 1usize;
    let plan = FaultPlan::quiet(61)
        .with_slow_rank(victim, Duration::from_secs(2))
        .with_slow_onset(victim, 80);
    let u = Universe::with_fault_plan(4, plan);
    u.set_recv_timeout(Duration::from_secs(120));
    u.set_deadline_policy(Some(DeadlinePolicy::uniform(Duration::from_millis(250))));

    let s = spec.clone();
    let c2 = cfg.clone();
    let policy = CheckpointPolicy::new(&dir).every(1);
    let res_cfg = ResilienceConfig::default()
        .with_buddy_degree(0)
        .with_checkpoint(policy.clone());
    let started = std::time::Instant::now();
    let results = u.try_run(move |c| {
        let grid = CartGrid::new(c, &[2, 2, 1]);
        let x = DistTensor::scatter_from_replicated(&grid, &s.build::<f64>());
        digest(dist_ra_hooi_resilient(&grid, &x, &c2, &res_cfg).unwrap())
    });

    // The blamed straggler is retired and exits as a demoted spare (or
    // surfaces the typed demotion error); every survivor reports a
    // clean fallback naming it dead.
    match &results[victim] {
        Ok(Digest::Spare) => {}
        Ok(other) => panic!("victim must exit as a spare, got {other:?}"),
        Err(f) => assert_typed(f),
    }
    let mut fallbacks = 0;
    for (rank, r) in results.iter().enumerate() {
        if rank == victim {
            continue;
        }
        match r.as_ref().expect("survivors must not panic") {
            Digest::Fallback { dead } => {
                fallbacks += 1;
                assert!(
                    dead.contains(&victim),
                    "dead set {dead:?} must name the straggler"
                );
            }
            Digest::Spare => {}
            Digest::Completed { .. } => {
                panic!("rank {rank}: replication is disabled, recovery cannot be online")
            }
        }
    }
    assert!(
        fallbacks >= 1,
        "at least one survivor must report the fallback"
    );
    // Fail-fast: the 250 ms budget, not the 120 s timeout, bounded the run.
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "deadline fallback took {:?}",
        started.elapsed()
    );

    // RTCK: resume from the surviving checkpoint on a healthy universe
    // and match the fault-free decomposition within 1e-10.
    let s = spec.clone();
    let c2 = cfg.clone();
    let policy = policy.resuming();
    let resumed = Universe::launch(4, move |c| {
        let grid = CartGrid::new(c, &[2, 2, 1]);
        let x = DistTensor::scatter_from_replicated(&grid, &s.build::<f64>());
        let res = dist_ra_hooi_checkpointed(&grid, &x, &c2, &policy);
        (res.rel_error, res.tucker.gather(&grid))
    })
    .into_iter()
    .next()
    .unwrap();
    assert!(
        (resumed.0 - reference.0).abs() <= 1e-10,
        "rel_error diverged after the deadline fallback: {} vs {}",
        resumed.0,
        reference.0
    );
    assert_eq!(resumed.1.ranks(), reference.1.ranks());
    assert!(resumed.1.core.max_abs_diff(&reference.1.core) <= 1e-10);

    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------------------------ 14

#[test]
fn mid_sweep_budget_shrink_engages_ladder_and_converges() {
    let spec = SyntheticSpec::new(&[24, 20, 16], &[6, 6, 4], 0.01, 914);
    let cfg = RaConfig::ra_hosi_dt(0.1, &[3, 3, 2])
        .with_seed(31)
        .with_alpha(2.0)
        .with_max_iters(3);

    // Fault-free reference on the full [2,2,2] grid.
    let s = spec.clone();
    let c2 = cfg.clone();
    let ref_err = Universe::launch(8, move |c| {
        let grid = CartGrid::new(c, &[2, 2, 2]);
        let x = DistTensor::scatter_from_replicated(&grid, &s.build::<f64>());
        dist_ra_hooi(&grid, &x, &c2).rel_error
    })[0];
    assert!(ref_err <= cfg.eps, "reference missed ε: {ref_err}");

    // Rank 3's budget shrinks to 21120 B at fabric op 60: enough for the
    // resident working set but below the rung-0 TTM staging peak of the
    // grown-rank sweeps. Replication is off so the budget bites inside
    // the sweep (far from the sweep-commit boundary), which keeps the
    // recovery deterministic: the refused allocation revokes the data
    // plane, every rank agrees rung 1 on the ctrl plane, and the sweep
    // retries with slab-by-slab TTM reductions that fit.
    let plan = FaultPlan::quiet(67).with_mem_pressure(3, 60, 21_120);
    let u = Universe::with_fault_plan(8, plan);
    u.set_recv_timeout(Duration::from_secs(5));
    let s = spec.clone();
    let c2 = cfg.clone();
    let started = std::time::Instant::now();
    let results = u.try_run(move |c| {
        let grid = CartGrid::new(c, &[2, 2, 2]);
        let x = DistTensor::scatter_from_replicated(&grid, &s.build::<f64>());
        let res = ResilienceConfig::default().with_buddy_degree(0);
        digest(dist_ra_hooi_resilient(&grid, &x, &c2, &res).unwrap())
    });

    for (rank, r) in results.iter().enumerate() {
        match r.as_ref().expect("no rank panics under memory pressure") {
            Digest::Completed {
                rel_error,
                final_grid,
                max_rung,
                ..
            } => {
                // The ladder engaged (rung >= 1) and nobody left the grid.
                assert!(
                    *max_rung >= 1,
                    "rank {rank}: pressure must engage the ladder, rung {max_rung}"
                );
                assert_eq!(final_grid, &[2, 2, 2], "no rank may be evicted");
                // Degraded execution changes the working set, not the
                // answer: rung 1 runs rung 0's slab loop at more slabs,
                // with the same combine order, so the result is bit-equal.
                assert_eq!(
                    rel_error.to_bits(),
                    ref_err.to_bits(),
                    "rank {rank}: degraded run drifted: {rel_error} vs {ref_err}"
                );
                assert!(*rel_error <= cfg.eps, "degraded run missed ε");
            }
            other => panic!("rank {rank}: expected completion on the ladder, got {other:?}"),
        }
    }
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "budget recovery took {:?}",
        started.elapsed()
    );
}

// ------------------------------------------------------------------ 15

#[test]
fn budget_below_checkpoint_floor_falls_back_cleanly() {
    let spec = SyntheticSpec::new(&[24, 20, 16], &[6, 6, 4], 0.01, 915);
    let cfg = RaConfig::ra_hosi_dt(0.1, &[3, 3, 2])
        .with_seed(31)
        .with_alpha(2.0)
        .with_max_iters(3);
    let dir = ckpt_dir("budget_floor");

    // Fault-free reference.
    let s = spec.clone();
    let c2 = cfg.clone();
    let reference = Universe::launch(8, move |c| {
        let grid = CartGrid::new(c, &[2, 2, 2]);
        let x = DistTensor::scatter_from_replicated(&grid, &s.build::<f64>());
        let res = dist_ra_hooi(&grid, &x, &c2);
        (res.rel_error, res.tucker.gather(&grid))
    })
    .into_iter()
    .next()
    .unwrap();

    // 2 KiB is below rank 3's resident block alone: every rung of the
    // ladder still refuses the first allocation of the retried sweep,
    // so the run must climb 1 → 2 → 3, agree the ladder is exhausted,
    // and fall back to the checkpoint cleanly on every rank — no
    // deadlock, no abort, no rank declared dead.
    let s = spec.clone();
    let c2 = cfg.clone();
    let policy = CheckpointPolicy::new(&dir).every(1);
    let res_cfg = ResilienceConfig::default()
        .with_buddy_degree(0)
        .with_checkpoint(policy.clone());
    let plan = FaultPlan::quiet(71).with_mem_pressure(3, 60, 2 << 10);
    let u = Universe::with_fault_plan(8, plan);
    u.set_recv_timeout(Duration::from_secs(5));
    let started = std::time::Instant::now();
    let results = u.try_run(move |c| {
        let grid = CartGrid::new(c, &[2, 2, 2]);
        let x = DistTensor::scatter_from_replicated(&grid, &s.build::<f64>());
        match dist_ra_hooi_resilient(&grid, &x, &c2, &res_cfg).unwrap() {
            ResilientOutcome::FallbackToCheckpoint { dead, reason, .. } => (dead, reason),
            other => panic!("expected checkpoint fallback, got {other:?}"),
        }
    });
    for (rank, r) in results.iter().enumerate() {
        let (dead, reason) = r.as_ref().expect("every rank exits cleanly");
        assert!(dead.is_empty(), "rank {rank}: no rank died: {dead:?}");
        assert!(
            reason.contains("memory budget"),
            "rank {rank}: reason must name the budget: {reason}"
        );
    }
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "budget fallback took {:?}",
        started.elapsed()
    );

    // RTCK: resume from the surviving checkpoint on a healthy universe
    // and match the fault-free decomposition within 1e-10.
    let s = spec.clone();
    let c2 = cfg.clone();
    let policy = policy.resuming();
    let resumed = Universe::launch(8, move |c| {
        let grid = CartGrid::new(c, &[2, 2, 2]);
        let x = DistTensor::scatter_from_replicated(&grid, &s.build::<f64>());
        let res = dist_ra_hooi_checkpointed(&grid, &x, &c2, &policy);
        (res.rel_error, res.tucker.gather(&grid))
    })
    .into_iter()
    .next()
    .unwrap();
    assert!(
        (resumed.0 - reference.0).abs() <= 1e-10,
        "rel_error diverged after the budget fallback: {} vs {}",
        resumed.0,
        reference.0
    );
    assert_eq!(resumed.1.ranks(), reference.1.ranks());
    assert!(resumed.1.core.max_abs_diff(&reference.1.core) <= 1e-10);

    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------------------------ 16

#[test]
fn service_survives_rank_kill_mid_compress_while_queries_keep_flowing() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let dir = ckpt_dir("service_kill");
    let service = Service::start(ServeConfig {
        p: 4,
        query_workers: 2,
        checkpoint_dir: Some(dir.clone()),
        recv_timeout: Duration::from_secs(5),
        ..ServeConfig::default()
    });
    let compress = |name: &str, seed: u64| {
        Request::Compress(CompressSpec {
            name: name.into(),
            dims: vec![12, 10, 8],
            construction_ranks: vec![3, 3, 2],
            noise: 0.01,
            seed,
            eps: 0.1,
            initial_ranks: vec![2, 2, 2],
            alpha: 2.0,
            max_iters: 3,
        })
    };

    // Tenant "steady" stores a core fault-free; its queries are the
    // availability probe during the crash.
    let id = service.submit("steady", compress("baseline", 916)).unwrap();
    let (outcome, _) = service.wait(id);
    assert!(
        outcome.is_success(),
        "baseline compress failed: {outcome:?}"
    );

    // Arm a one-shot mid-sweep kill, then compress for tenant "victim"
    // while "steady" hammers queries from another thread.
    service.inject_fault_plan(FaultPlan::quiet(53).with_crash(1, 60));
    let compress_done = AtomicBool::new(false);
    let (victim_outcome, probe_stats) = std::thread::scope(|scope| {
        let service = &service;
        let done = &compress_done;
        let prober = scope.spawn(move || {
            let (mut issued, mut during_crash) = (0usize, 0usize);
            while !done.load(Ordering::SeqCst) {
                let q = service
                    .submit(
                        "steady",
                        Request::Query(QuerySpec {
                            name: "baseline".into(),
                            offsets: vec![2, 1, 0],
                            lens: vec![4, 4, 3],
                        }),
                    )
                    .expect("query submission must stay open during recovery");
                let (outcome, _) = service.wait(q);
                let JobOutcome::Queried { entries, .. } = outcome else {
                    panic!("query failed during mid-compress crash: {outcome:?}");
                };
                assert_eq!(entries, 4 * 4 * 3);
                issued += 1;
                if !done.load(Ordering::SeqCst) {
                    during_crash += 1;
                }
            }
            (issued, during_crash)
        });
        let id = service.submit("victim", compress("wounded", 917)).unwrap();
        let outcome = service.wait(id).0;
        compress_done.store(true, Ordering::SeqCst);
        (outcome, prober.join().expect("prober must not panic"))
    });

    // The victim job completed despite the kill — online or via disk.
    let JobOutcome::Compressed {
        rel_error,
        recovery,
        ..
    } = &victim_outcome
    else {
        panic!("victim job must complete, got {victim_outcome:?}");
    };
    assert!(*rel_error <= 0.1, "victim job missed eps: {rel_error}");
    assert!(
        recovery.recoveries >= 1 || recovery.resumed_from_checkpoint,
        "the kill must have been visible to the recovery stack: {recovery:?}"
    );
    assert!(
        probe_stats.0 >= 1,
        "availability probe never ran ({probe_stats:?})"
    );

    // The one-shot plan must not leak: a warm universe re-arms plan op
    // counters every run, so a fresh compress would crash again if the
    // service failed to clear it.
    let id = service.submit("steady", compress("after", 918)).unwrap();
    let (outcome, _) = service.wait(id);
    let JobOutcome::Compressed { recovery, .. } = &outcome else {
        panic!("post-crash compress failed: {outcome:?}");
    };
    assert_eq!(
        (recovery.recoveries, recovery.resumed_from_checkpoint),
        (0, false),
        "the injected plan leaked into the next job: {recovery:?}"
    );

    assert!(
        service.check_partition(),
        "tenant charges must partition global traffic after recovery"
    );
    let report = service.shutdown();
    assert_eq!(report.failed, 0, "no job may be lost to the injected kill");
    assert_eq!(report.stored_cores, 3);
    assert!(report.partition_ok);
    let _ = std::fs::remove_dir_all(&dir);
}
