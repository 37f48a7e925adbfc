//! The distributed rank-adaptive HOOI driver, with online
//! shrink-and-continue recovery.
//!
//! [`dist_ra_hooi_resilient`] runs Alg. 3's loop (sweep, threshold
//! test, truncate or grow) with the fault-tolerance stack from the
//! lower layers wired around it. It is the only distributed RA-HOOI
//! loop: [`crate::dist::dist_ra_hooi`] and
//! [`crate::dist::dist_ra_hooi_checkpointed`] run it with
//! [`ResilienceConfig::off`], so a fault-free resilient run is bit for
//! bit the plain one. The stack:
//!
//! 1. **ABFT checksums** ([`ratucker_dist::AbftMode`]) on every Gram
//!    and TTM collective; in `Recover` mode a poisoned contraction is
//!    recomputed in place (the verdict is collective, so all ranks
//!    retry together).
//! 2. **Diskless buddy replication**: at every sweep boundary each rank
//!    pushes its local block to its ring successors
//!    ([`ratucker_dist::try_refresh_buddies`]), so a dead rank's block
//!    survives in a peer's memory.
//! 3. **Shrink and continue**: when a sweep aborts with a failure-class
//!    error (peer closed, timeout, revoked), the survivors revoke the
//!    communicator, run ULFM-style agreement, re-block the global
//!    tensor onto a shrunken grid from their own blocks plus the dead
//!    ranks' replicas, restore the pre-sweep factors (replicated, so a
//!    local snapshot suffices), re-derive the sweep RNG from
//!    `(seed, sweep)`, and retry the sweep — **no disk restart**.
//! 4. **RTCK fallback**: only when a rank *and* all of its buddies die
//!    between two refreshes does the run fall back to the disk
//!    checkpoint ([`ResilientOutcome::FallbackToCheckpoint`]); the
//!    caller then restarts from
//!    [`crate::dist::dist_ra_hooi_checkpointed`] with
//!    `policy.resuming()`.
//!
//! The recovery preserves the *decision trajectory* of the fault-free
//! run: `‖X‖²` is computed once up front, redistribution is bit-exact,
//! the expansion RNG is pure in `(seed, sweep)`, and truncation ranks
//! are floored at the **original** grid dimensions (any shrunken grid
//! has elementwise-smaller dims, so the floors remain feasible). The
//! only divergence from the fault-free run is reduction order on the
//! new grid — O(ε) roundoff, which the chaos suite bounds at 1e-10.

use crate::checkpoint::{CheckpointPolicy, FileCheckpointer, NoCheckpoint, RaCheckpointer};
use crate::core_analysis::analyze_core;
use crate::dist::{try_dist_sweep, AbftStats, DistRunResult, DistTucker, SweepCtx};
use crate::ra::{expand_factors, start_state, RaConfig, RaStep, RUNG_FREEZE};
use crate::timings::{Phase, Timings};
use crate::tucker_tensor::TuckerTensor;
use ratucker_dist::{
    restorer_for, try_redistribute, try_refresh_buddies, AbftMode, BlockPiece, BuddyStore,
    DistTensor, TensorDist,
};
use ratucker_mpi::{choose_shrunk_dims, try_rebuild_grid, CartGrid, CommError, ShrinkOutcome};
use ratucker_obs::{StragglerDetector, StragglerPolicy};
use ratucker_tensor::io::IoScalar;
use ratucker_tensor::matrix::Matrix;
use ratucker_tensor::scalar::Scalar;
use std::borrow::Cow;

/// Configuration of the online-recovery stack.
#[derive(Clone, Debug)]
pub struct ResilienceConfig {
    /// Replication degree `k`: each rank's block is mirrored on its `k`
    /// ring successors. `0` disables diskless recovery (every failure
    /// falls back to the checkpoint). The CLI flag is
    /// `--buddy-replication <k>`.
    pub buddy_degree: usize,
    /// Checksum policy for the distributed kernels. The CLI flag is
    /// `--abft {off,detect,recover}`.
    pub abft: AbftMode,
    /// Optional RTCK checkpoint policy: sweeps are checkpointed as in
    /// [`crate::dist::dist_ra_hooi_checkpointed`] so the disk fallback
    /// has something to resume from.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Upper bound on recovery rounds (shrinks + transient retries)
    /// before the run gives up and surfaces the triggering error. `0`
    /// returns the first error as it is, with no revoke, agreement or
    /// fallback, and skips the per-sweep factor snapshot.
    pub max_recoveries: usize,
    /// Optional straggler demotion: after every committed sweep the
    /// induced-wait deltas are fed to a [`StragglerPolicy`] detector,
    /// and a confirmed slow-but-alive rank is proactively evicted
    /// through the same shrink-and-continue machinery a crash takes.
    /// The CLI flag is `--straggler-demotion <multiple>`.
    pub straggler: Option<StragglerPolicy>,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            buddy_degree: 1,
            abft: AbftMode::Off,
            checkpoint: None,
            max_recoveries: 4,
            straggler: None,
        }
    }
}

impl ResilienceConfig {
    /// Every mechanism off: no replication, no checksums, no straggler
    /// policy and no recovery round, so the first error ends the run
    /// unchanged. [`crate::dist::dist_ra_hooi`] runs the driver so.
    pub fn off() -> Self {
        ResilienceConfig {
            buddy_degree: 0,
            abft: AbftMode::Off,
            checkpoint: None,
            max_recoveries: 0,
            straggler: None,
        }
    }

    /// Sets the replication degree.
    pub fn with_buddy_degree(mut self, k: usize) -> Self {
        self.buddy_degree = k;
        self
    }

    /// Sets the ABFT policy.
    pub fn with_abft(mut self, abft: AbftMode) -> Self {
        self.abft = abft;
        self
    }

    /// Attaches an RTCK checkpoint policy.
    pub fn with_checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = Some(policy);
        self
    }

    /// Enables straggler demotion with the given policy.
    pub fn with_straggler(mut self, policy: StragglerPolicy) -> Self {
        self.straggler = Some(policy);
        self
    }
}

/// What the fault-tolerance stack did during a completed run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Recovery rounds taken (grid shrinks plus same-topology retries
    /// after transient faults).
    pub recoveries: usize,
    /// Grid-communicator ranks (of the grid current at each failure)
    /// that were declared dead and restored from buddy replicas.
    pub restored_ranks: Vec<usize>,
    /// Grid-communicator ranks (of the grid current at each verdict)
    /// that were alive but confirmed as stragglers and proactively
    /// demoted.
    pub demoted_ranks: Vec<usize>,
    /// Dimensions of the grid the run finished on.
    pub final_grid: Vec<usize>,
    /// ABFT detection / recomputation counters.
    pub abft: AbftStats,
    /// Highest rung of the graceful-degradation ladder the run reached
    /// under memory pressure (`0` = never degraded, `3` = rank growth
    /// frozen; `DESIGN.md` §14 lists the rungs).
    pub max_rung: u8,
}

/// Per-rank outcome of a resilient run.
#[derive(Clone, Debug)]
pub enum ResilientOutcome<T: Scalar> {
    /// The run finished on this rank's (possibly shrunken) grid.
    Completed {
        /// The decomposition and per-sweep history.
        result: Box<DistRunResult<T>>,
        /// The grid the run finished on (needed to gather the core).
        grid: Box<CartGrid>,
        /// What the fault-tolerance stack did along the way.
        report: RecoveryReport,
    },
    /// This rank survived a failure but did not fit the shrunken grid;
    /// it contributed its pieces to the redistribution and exited.
    Spare {
        /// What the stack had done up to the exit.
        report: RecoveryReport,
        /// Phase breakdown up to the exit, including the time spent in
        /// the recovery rounds themselves ([`Phase::Recovery`]).
        timings: Timings,
    },
    /// A dead rank's block is unrecoverable in memory (the rank and all
    /// of its buddies died between two refreshes, or replication is
    /// disabled): the caller must restart from the disk checkpoint.
    FallbackToCheckpoint {
        /// Grid-communicator ranks declared dead at the fatal failure.
        dead: Vec<usize>,
        /// Human-readable reason.
        reason: String,
        /// Phase breakdown up to the fallback decision, including the
        /// recovery rounds that failed to restore the block.
        timings: Timings,
    },
}

impl<T: Scalar> ResilientOutcome<T> {
    /// The merged per-phase breakdown of the run, whatever its outcome.
    /// Shrink/restore/refresh time is charged to [`Phase::Recovery`],
    /// so the cost of the fault-tolerance stack is visible next to the
    /// algorithmic phases.
    pub fn timings(&self) -> &Timings {
        match self {
            ResilientOutcome::Completed { result, .. } => &result.timings,
            ResilientOutcome::Spare { timings, .. } => timings,
            ResilientOutcome::FallbackToCheckpoint { timings, .. } => timings,
        }
    }

    /// A stable one-word label for the outcome variant, for job-scoped
    /// status reporting (the serve layer surfaces this per job without
    /// matching on the generic enum itself).
    pub fn kind_label(&self) -> &'static str {
        match self {
            ResilientOutcome::Completed { .. } => "completed",
            ResilientOutcome::Spare { .. } => "spare",
            ResilientOutcome::FallbackToCheckpoint { .. } => "fallback",
        }
    }

    /// The recovery report, when the stack produced one. `Completed` and
    /// `Spare` ranks carry a report; a `FallbackToCheckpoint` verdict is
    /// reached *before* a report exists, so it returns `None`.
    pub fn report(&self) -> Option<&RecoveryReport> {
        match self {
            ResilientOutcome::Completed { report, .. } => Some(report),
            ResilientOutcome::Spare { report, .. } => Some(report),
            ResilientOutcome::FallbackToCheckpoint { .. } => None,
        }
    }
}

/// What one recovery round decided.
enum Recovery<T: Scalar> {
    /// Same topology (every member survived — the fault was transient);
    /// retry the sweep.
    Retry,
    /// Continue on a shrunken grid with the re-blocked tensor.
    Continue {
        grid: Box<CartGrid>,
        x: DistTensor<T>,
        restored: Vec<usize>,
    },
    /// This rank is a spare on the shrunken grid: pieces contributed,
    /// no block owned.
    Spare,
    /// Online recovery is impossible; fall back to the checkpoint.
    Fallback { dead: Vec<usize>, reason: String },
}

/// Is this error the failure class that triggers shrink-and-continue
/// (as opposed to data corruption, which has its own policy)?
/// `DeadlineExceeded` (a gray failure: the peer is alive but blew its
/// per-collective budget) and `Demoted` (the failure detector evicted
/// a rank) both take the same revoke → agree → shrink path a crash
/// does. `BudgetExceeded` (a resource failure: the allocation was
/// refused by the memory ledger, and the refusing rank revoked the
/// communicator so its peers flush too) rides the same path, but the
/// post-recovery rung verdict escalates the degradation ladder instead
/// of shrinking the grid — no rank died.
fn is_failure(e: &CommError) -> bool {
    matches!(
        e,
        CommError::PeerClosed { .. }
            | CommError::Timeout { .. }
            | CommError::Revoked { .. }
            | CommError::SizeMismatch { .. }
            | CommError::DeadlineExceeded { .. }
            | CommError::Demoted { .. }
            | CommError::BudgetExceeded { .. }
    )
}

/// One recovery round: revoke → agree → (if members died) advertise
/// replica holdings, designate restorers, shrink, re-block. Collective
/// over the current grid's survivors. Errors during recovery itself
/// (e.g. another rank dying mid-redistribution) surface as `Err` and
/// the driver retries the whole round against the new failure.
fn try_recover<T: Scalar>(
    grid: &CartGrid,
    x: &DistTensor<T>,
    buddies: &BuddyStore<T>,
    degree: usize,
) -> Result<Recovery<T>, CommError> {
    grid.comm.revoke();
    let survivors = grid.comm.try_agree()?;
    let p = grid.comm.size();
    let me = grid.comm.rank();
    let in_surv = |r: usize| survivors.contains(&grid.comm.world_rank_of(r));
    let dead: Vec<usize> = (0..p).filter(|&r| !in_surv(r)).collect();
    if dead.is_empty() {
        // Transient fault (dropped message, spurious timeout): the
        // epoch bump in `try_agree` has already quarantined stale
        // traffic; retry on the same topology.
        return Ok(Recovery::Retry);
    }
    if degree == 0 {
        return Ok(Recovery::Fallback {
            dead,
            reason: "buddy replication disabled (--buddy-replication 0)".into(),
        });
    }

    // The dense survivor communicator; same member order everywhere.
    let newcomm = grid
        .comm
        .shrink(&survivors)
        .expect("an agreed survivor is in its own survivor list");

    // Advertise which dead ranks' replicas each survivor actually holds
    // (a refresh interrupted by the failure may have left holdings
    // uneven), then designate restorers deterministically from the
    // shared view: the first ring successor that both survived and
    // holds the replica. `u64` payloads ride the data plane but are not
    // floats, so the corruption injector cannot touch them.
    let my_holdings: Vec<u64> = dead
        .iter()
        .filter(|&&d| buddies.replica_for(d).is_some())
        .map(|&d| d as u64)
        .collect();
    let all_holdings = newcomm.try_allgatherv(my_holdings)?;
    // Map: old-grid comm rank → dead ranks whose replicas it holds.
    let world_to_old: std::collections::HashMap<usize, usize> =
        (0..p).map(|r| (grid.comm.world_rank_of(r), r)).collect();
    let mut holdings_of_old: Vec<Vec<usize>> = vec![Vec::new(); p];
    for (new_rank, held) in all_holdings.iter().enumerate() {
        let old = world_to_old[&newcomm.world_rank_of(new_rank)];
        holdings_of_old[old] = held.iter().map(|&d| d as usize).collect();
    }

    let mut my_pieces: Vec<BlockPiece<T>> =
        vec![BlockPiece::from_block(x.dist(), x.coords(), x.local())];
    for &d in &dead {
        let holder = restorer_for(d, p, degree, |r| {
            in_surv(r) && holdings_of_old[r].contains(&d)
        });
        match holder {
            Some(h) if h == me => {
                let rep = buddies
                    .replica_for(d)
                    .expect("designated restorer advertises the replica it holds");
                my_pieces.push(rep.to_piece(x));
            }
            Some(_) => {}
            None => {
                return Ok(Recovery::Fallback {
                    reason: format!(
                        "rank {d} and all {degree} of its replica holders died \
                         between refreshes; its block is unrecoverable in memory"
                    ),
                    dead,
                });
            }
        }
    }

    // Re-block onto the shrunken grid. The destination grid occupies
    // the first `Π dims` ranks of `newcomm` — the same layout
    // `try_rebuild_grid` produces below, so coordinates line up.
    let new_dims = choose_shrunk_dims(grid.dims(), newcomm.size());
    let new_dist = TensorDist::new(x.global_shape().clone(), &new_dims);
    let block = try_redistribute(&newcomm, &new_dist, my_pieces)?;
    match try_rebuild_grid(newcomm, grid.dims())? {
        ShrinkOutcome::Active(g2) => Ok(Recovery::Continue {
            grid: g2,
            x: block.expect("active ranks of the shrunken grid receive a block"),
            restored: dead,
        }),
        ShrinkOutcome::Spare(_) => Ok(Recovery::Spare),
    }
}

/// What a burst of recovery rounds decided for this rank.
enum RoundsOutcome {
    /// A topology was committed (same or shrunken); resume sweeping.
    Resumed,
    /// This rank left the grid (spare on the shrunken topology, or
    /// itself demoted).
    Spare,
    /// Online recovery is impossible; fall back to the checkpoint.
    Fallback { dead: Vec<usize>, reason: String },
    /// Recovery itself failed fatally.
    Failed(CommError),
}

/// Runs recovery rounds against `trigger` (and any fresh failures that
/// strike during recovery) until a topology commits, this rank exits,
/// or the `max_recoveries` cap is hit. On success `grid`/`x`/`buddies`
/// are updated in place; all time spent is charged to
/// [`Phase::Recovery`].
///
/// Gray-failure triggers get one extra step: a
/// [`CommError::DeadlineExceeded`] blame names a slow-but-alive peer,
/// which is retired *before* agreement so the shrunken topology
/// excludes it — the ULFM machinery only evicts ranks it cannot hear
/// from, and a straggler still answers eventually (on the ctrl plane
/// it answers promptly, so agreement alone would keep re-admitting
/// it). The blame is settled by the fabric's wait-for chain walk
/// ([`ratucker_mpi::Fabric::resolve_blame`]), not taken at face value.
fn recovery_rounds<T: Scalar>(
    grid: &mut CartGrid,
    x: &mut Cow<'_, DistTensor<T>>,
    buddies: &mut BuddyStore<T>,
    res: &ResilienceConfig,
    report: &mut RecoveryReport,
    timings: &mut Timings,
    trigger: CommError,
) -> RoundsOutcome {
    let rec_t0 = std::time::Instant::now();
    let me_world = grid.comm.world_rank_of(grid.comm.rank());
    let mut last = trigger;
    let mut round = 0;
    let out = loop {
        if let CommError::DeadlineExceeded { src, .. } = &last {
            // The proximate src of an expired budget may itself be a
            // healthy rank queued up behind the real straggler, so the
            // blame is resolved along the fabric's wait-for chain
            // before anyone is retired.
            let blamed = grid.comm.fabric().resolve_blame(me_world, *src);
            if blamed != me_world {
                grid.comm.fabric().retire(blamed);
            }
        }
        report.recoveries += 1;
        round += 1;
        if report.recoveries > res.max_recoveries {
            // A budget refusal at the cap still gets a clean exit: the
            // checkpoint fallback is exactly what an operator restarts
            // from with more memory, and returning the raw error here
            // would surface as an untyped failure on this rank only.
            break if matches!(last, CommError::BudgetExceeded { .. }) {
                RoundsOutcome::Fallback {
                    dead: Vec::new(),
                    reason: format!(
                        "memory budget pressure exhausted the recovery budget \
                         ({} recoveries): restart from the checkpoint with more \
                         memory or fewer ranks per node",
                        res.max_recoveries
                    ),
                }
            } else {
                RoundsOutcome::Failed(last)
            };
        }
        // The span is scoped to the recovery call so the `Continue`
        // arm below can replace `grid` freely.
        let recovery = {
            let _s = ratucker_obs::span(&grid.comm, "Recovery");
            try_recover(grid, x, buddies, res.buddy_degree)
        };
        match recovery {
            Ok(Recovery::Retry) => break RoundsOutcome::Resumed,
            Ok(Recovery::Continue {
                grid: g2,
                x: x2,
                restored,
            }) => {
                *grid = *g2;
                *x = Cow::Owned(x2);
                // The old store's replicas are keyed by the old grid's
                // ranks and block shapes; they are meaningless on the
                // new topology. The retry's refresh rebuilds the store
                // before the sweep; a failure in that window
                // conservatively falls back to disk.
                *buddies = BuddyStore::disabled();
                report.restored_ranks.extend(restored);
                break RoundsOutcome::Resumed;
            }
            Ok(Recovery::Spare) => break RoundsOutcome::Spare,
            Ok(Recovery::Fallback { dead, reason }) => {
                break RoundsOutcome::Fallback { dead, reason }
            }
            Err(CommError::Demoted { rank }) if rank == me_world => {
                // Someone else's blame evicted *us* mid-recovery: exit
                // cleanly; the survivors restore our block.
                break RoundsOutcome::Spare;
            }
            Err(CommError::BudgetExceeded { .. }) => {
                // A budget refusal inside recovery is deterministic:
                // retrying the round reruns the same allocation, and
                // the degradation ladder cannot shrink replica/restore
                // storage. Leave the grid instead — retire self so the
                // survivors' next agreement excludes this rank and
                // restores its block from the buddy replicas, exactly
                // like a demoted straggler.
                grid.comm.fabric().retire(me_world);
                break RoundsOutcome::Spare;
            }
            Err(e2) if is_failure(&e2) && round <= res.max_recoveries => last = e2,
            Err(e2) => break RoundsOutcome::Failed(e2),
        }
    };
    timings.record(Phase::Recovery, rec_t0.elapsed().as_secs_f64());
    out
}

/// One straggler-detection window after a committed sweep. Collective
/// over the grid: comm rank 0 scores every member by how long the rest
/// of the grid spent blocked waiting on it since the last window (the
/// induced-wait delta from
/// [`ratucker_mpi::TrafficStats::induced_wait_us`]) and feeds the
/// scores to the detector; the verdict rides the ctrl plane
/// ([`ratucker_mpi::Comm::try_verdict_max`], encoded as
/// `comm rank + 1`) so every rank acts on the same decision even
/// though the counters are read at slightly different instants.
fn straggler_window(
    grid: &CartGrid,
    detector: &mut StragglerDetector,
    prev_wait_us: &mut Vec<u64>,
) -> Result<Option<usize>, CommError> {
    let p = grid.comm.size();
    let now = grid.comm.traffic().induced_wait_us();
    let verdict = if grid.comm.rank() == 0 {
        let mut scores = vec![0.0; p];
        for (r, score) in scores.iter_mut().enumerate() {
            let w = grid.comm.world_rank_of(r);
            let cur = now.get(w).copied().unwrap_or(0);
            let old = prev_wait_us.get(w).copied().unwrap_or(0);
            *score = cur.saturating_sub(old) as f64 * 1e-6;
        }
        detector.observe(&scores).map_or(0.0, |v| (v + 1) as f64)
    } else {
        0.0
    };
    *prev_wait_us = now;
    let v = grid.comm.try_verdict_max(verdict)?;
    Ok((v > 0.0).then(|| v as usize - 1))
}

/// Outcome of one successful sweep attempt (before it is committed to
/// the driver's state).
struct SweepOutcome<T: Scalar> {
    core: DistTensor<T>,
    err: f64,
    new_ranks: Vec<usize>,
    met: bool,
}

/// One full RA-HOOI iteration — sweep, threshold test, then the step
/// [`RaConfig::decide`] picks — with every collective fallible.
/// Truncation ranks are floored at `floor` (the *original* grid dims,
/// which keep every local block nonempty) instead of the current grid
/// dims, so the decision trajectory is invariant under grid shrinks.
#[allow(clippy::too_many_arguments)]
fn attempt_sweep<T: Scalar>(
    grid: &CartGrid,
    x: &DistTensor<T>,
    factors: &mut Vec<Matrix<T>>,
    ranks: &[usize],
    it: usize,
    config: &RaConfig,
    threshold: f64,
    x_norm_sq: f64,
    dims: &[usize],
    floor: &[usize],
    timings: &mut Timings,
    ctx: &mut SweepCtx,
) -> Result<SweepOutcome<T>, CommError> {
    let core = try_dist_sweep(grid, x, factors, ranks, &config.inner, timings, ctx)?;
    let core_norm_sq = core.try_squared_norm(grid)?;
    let met = core_norm_sq >= threshold;
    // Gather the (small) core everywhere and run eq. (3) redundantly, so
    // every rank reaches the same decision without extra coordination.
    let mut analysed = None;
    if met {
        analysed = Some(timings.time(Phase::CoreAnalysis, || {
            let _s = ratucker_obs::span(&grid.comm, "CoreAnalysis");
            let core_repl = core.try_gather_replicated(grid)?;
            let analysis = analyze_core(&core_repl, dims, x_norm_sq, config.eps);
            Ok::<_, CommError>((core_repl, analysis))
        })?);
    }
    let analysis = analysed
        .as_ref()
        .and_then(|(_, a)| a.as_ref().map(|a| a.ranks.as_slice()));
    // The rung is collectively agreed, so every rank freezes the same
    // sweep and the trajectory stays deterministic.
    let step = config.decide(met, analysis, ranks, dims, floor, ratucker_mem::rung());
    let untruncated_err = ((x_norm_sq - core_norm_sq).max(0.0) / x_norm_sq).sqrt();
    let (core, err, new_ranks) = match step {
        RaStep::Truncate(new_ranks) => {
            let _mem = ratucker_mem::with_phase(ratucker_mem::MemPhase::Factors);
            let (core_repl, _) = analysed.expect("a truncation follows a core analysis");
            let trunc = TuckerTensor::new(core_repl, std::mem::take(factors)).truncate(&new_ranks);
            let core = DistTensor::scatter_from_replicated(grid, &trunc.core);
            let err = trunc.rel_error_from_core(x_norm_sq);
            *factors = trunc.factors;
            (core, err, new_ranks)
        }
        RaStep::Grow(grown) => {
            // No sweep follows the last one to use wider factors: the
            // run returns this sweep's factors, which match its core.
            if it + 1 < config.max_iters {
                expand_factors(factors, &grown, config.inner.seed, it);
            }
            (core, untruncated_err, grown)
        }
        RaStep::Keep | RaStep::Freeze => (core, untruncated_err, ranks.to_vec()),
    };
    Ok(SweepOutcome {
        core,
        err,
        new_ranks,
        met,
    })
}

/// Distributed rank-adaptive HOOI with online shrink-and-continue
/// recovery, diskless buddy replication, ABFT checksums, and RTCK disk
/// fallback. Collective over `grid0`.
///
/// Failure semantics per error class:
/// - `PeerClosed` / `Timeout` / `Revoked` → revoke, agree, shrink (or
///   same-topology retry for transient faults), restore dead blocks
///   from buddy replicas, reset factors to the pre-sweep snapshot, and
///   retry the sweep. No disk involved.
/// - [`CommError::SilentCorruption`] → under [`AbftMode::Recover`] the
///   kernels already recomputed up to the retry cap; a persistent
///   mismatch (and any mismatch under [`AbftMode::Detect`]) surfaces as
///   `Err` — consistently on every rank, because the checksum verdict
///   is collective.
/// - Everything else (NaN screens, type mismatches) surfaces as `Err`.
///
/// `Err` is also returned when `max_recoveries` consecutive recovery
/// rounds fail to produce a working topology, and for the first
/// error of any class when `max_recoveries` is `0`.
pub fn dist_ra_hooi_resilient<T: IoScalar>(
    grid0: &CartGrid,
    x0: &DistTensor<T>,
    config: &RaConfig,
    res: &ResilienceConfig,
) -> Result<ResilientOutcome<T>, CommError> {
    match &res.checkpoint {
        Some(policy) => ra_driver(grid0, x0, config, res, &mut FileCheckpointer { policy }),
        None => ra_driver(grid0, x0, config, res, &mut NoCheckpoint),
    }
}

/// The one distributed RA-HOOI loop behind [`dist_ra_hooi_resilient`],
/// [`crate::dist::dist_ra_hooi`] and
/// [`crate::dist::dist_ra_hooi_checkpointed`]. It takes its checkpoint
/// I/O as a hook so it needs no `IoScalar` bound; `res.checkpoint` is
/// not read here. Grid rank 0 of the grid current at each sweep writes
/// the checkpoint, so a shrink that removes the old writer hands the
/// job to the new rank 0.
pub(crate) fn ra_driver<T: Scalar>(
    grid0: &CartGrid,
    x0: &DistTensor<T>,
    config: &RaConfig,
    res: &ResilienceConfig,
    ckpt: &mut impl RaCheckpointer<T>,
) -> Result<ResilientOutcome<T>, CommError> {
    let dims: Vec<usize> = x0.global_shape().dims().to_vec();
    // Rank floors are frozen at the original grid dims (see module docs).
    let floor: Vec<usize> = grid0.dims().to_vec();
    let mut grid = grid0.clone();
    // The caller's block is borrowed, never copied: recovery only reads
    // it, and a shrink swaps in the re-blocked tensor it returns.
    let mut x = Cow::Borrowed(x0);
    let mut report = RecoveryReport::default();

    // ‖X‖² is computed once, before any failure, and carried through
    // recoveries unchanged — recomputing it on a shrunken grid would
    // perturb the threshold by reduction-order roundoff.
    let x_norm_sq = x.try_squared_norm(&grid)?;
    let threshold = (1.0 - config.eps * config.eps) * x_norm_sq;
    let (mut it, mut ranks, mut factors) = start_state(config, &dims, x_norm_sq, ckpt);

    let mut timings = Timings::new();
    let mut ctx = SweepCtx::new(res.abft);
    let mut sweep_errors = Vec::new();
    let mut sweep_ranks = Vec::new();
    let mut sweep_met = Vec::new();
    let mut sweep_timings = Vec::new();
    let mut result_core: Option<DistTensor<T>> = None;
    let mut buddies: BuddyStore<T> = BuddyStore::disabled();
    let mut detector = StragglerDetector::new(res.straggler.unwrap_or_default());
    // Baseline for induced-wait deltas; refreshed every window and
    // after every topology change.
    let mut prev_wait_us: Vec<u64> = grid.comm.traffic().induced_wait_us();

    // Dispatches a burst of recovery rounds; evaluates to `()` only on
    // the resume path (all exit outcomes return from the function).
    // With no recovery budget the trigger ends the run as it is.
    macro_rules! run_recovery {
        ($trigger:expr) => {
            let trigger = $trigger;
            if res.max_recoveries == 0 {
                return Err(trigger);
            }
            match recovery_rounds(
                &mut grid,
                &mut x,
                &mut buddies,
                res,
                &mut report,
                &mut timings,
                trigger,
            ) {
                RoundsOutcome::Resumed => {
                    detector.reset();
                    prev_wait_us = grid.comm.traffic().induced_wait_us();
                }
                RoundsOutcome::Spare => {
                    report.abft = ctx.stats;
                    return Ok(ResilientOutcome::Spare { report, timings });
                }
                RoundsOutcome::Fallback { dead, reason } => {
                    return Ok(ResilientOutcome::FallbackToCheckpoint {
                        dead,
                        reason,
                        timings,
                    });
                }
                RoundsOutcome::Failed(e) => return Err(e),
            }
        };
    }

    while it < config.max_iters {
        if grid.comm.rank() == 0 {
            ckpt.save_sweep(config, it, x_norm_sq, &dims, &ranks, &factors);
        }
        // The sweep mutates factors in place; snapshot them (replicated,
        // so a local copy is globally consistent) for the retry path —
        // when there is one.
        let snapshot = (res.max_recoveries > 0).then(|| {
            let _s = ratucker_obs::span(&grid.comm, "snapshot");
            factors.clone()
        });
        // This attempt's phases; merged into the run's total whatever
        // the outcome, and kept as the sweep's record if it commits.
        let mut sweep_t = Timings::new();
        let refreshed = if res.buddy_degree > 0 {
            // Buddy refresh is pure fault-tolerance overhead: charge it
            // to the Recovery phase so the breakdown shows the price of
            // resilience next to the algorithmic phases.
            let refresh_t0 = std::time::Instant::now();
            let refreshed = {
                let _s = ratucker_obs::span(&grid.comm, "refresh");
                try_refresh_buddies(&grid, &x, res.buddy_degree)
            };
            sweep_t.record(Phase::Recovery, refresh_t0.elapsed().as_secs_f64());
            refreshed
        } else {
            Ok(BuddyStore::disabled())
        };
        let attempt = refreshed.and_then(|store| {
            buddies = store;
            attempt_sweep(
                &grid,
                &x,
                &mut factors,
                &ranks,
                it,
                config,
                threshold,
                x_norm_sq,
                &dims,
                &floor,
                &mut sweep_t,
                &mut ctx,
            )
        });
        timings.merge(&sweep_t);
        match attempt {
            Ok(out) => {
                ranks = out.new_ranks;
                sweep_errors.push(out.err);
                sweep_ranks.push(ranks.clone());
                sweep_met.push(out.met);
                sweep_timings.push(sweep_t);
                result_core = Some(out.core);
                it += 1;
                if out.met && config.stop_on_threshold {
                    break;
                }
                // Straggler demotion: a committed sweep closes one
                // detection window. A confirmed slow-but-alive rank is
                // proactively evicted through the same shrink path a
                // crash takes — its block is restored from buddy
                // replicas and the committed factors carry over
                // unchanged (they are replicated and the tensor is
                // immutable).
                if res.straggler.is_some() && grid.comm.size() >= 2 {
                    match straggler_window(&grid, &mut detector, &mut prev_wait_us) {
                        Ok(None) => {}
                        Ok(Some(victim)) => {
                            let victim_world = grid.comm.world_rank_of(victim);
                            report.demoted_ranks.push(victim);
                            if grid.comm.rank() == victim {
                                // Evict ourselves *after* the verdict
                                // completed everywhere, so the
                                // survivors' agreement excludes us and
                                // none of their collectives hang on us.
                                grid.comm.fabric().retire(victim_world);
                                report.abft = ctx.stats;
                                return Ok(ResilientOutcome::Spare { report, timings });
                            }
                            run_recovery!(CommError::Demoted { rank: victim_world });
                        }
                        Err(e) if is_failure(&e) => {
                            run_recovery!(e);
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
            Err(CommError::Demoted { rank })
                if res.max_recoveries > 0 && rank == grid.comm.world_rank_of(grid.comm.rank()) =>
            {
                // The failure detector (a peer's deadline blame or a
                // straggler verdict) evicted this rank while it was
                // slow but alive: exit cleanly as a spare; the
                // survivors restore our block from replicas.
                report.abft = ctx.stats;
                return Ok(ResilientOutcome::Spare { report, timings });
            }
            Err(e) if is_failure(&e) => {
                // Shrink-and-continue: retry recovery rounds against
                // fresh failures until one commits or the cap is hit,
                // then retry this sweep from the pre-sweep state.
                let budget_hit = matches!(e, CommError::BudgetExceeded { .. });
                run_recovery!(e);
                // Recovery can race a sweep commit: a revocation that
                // strikes inside the threshold verdict may leave some
                // ranks having committed the sweep (factors updated,
                // ranks grown) while others still retry it, and their
                // data-plane messages would then disagree on every
                // block size. The sweep index is agreed before
                // resuming; a mismatch is unrecoverable online — the
                // divergent ranks hold different factor states — so it
                // falls back to the checkpoint cleanly instead.
                let hi = grid.comm.try_verdict_max(it as f64)? as usize;
                let lo = (-grid.comm.try_verdict_max(-(it as f64))?) as usize;
                if hi != lo {
                    return Ok(ResilientOutcome::FallbackToCheckpoint {
                        dead: Vec::new(),
                        reason: format!(
                            "recovery raced a sweep commit (sweeps {lo}..{hi} in \
                             flight): the survivors hold divergent factor states, \
                             resume from the checkpoint"
                        ),
                        timings,
                    });
                }
                // Degradation-ladder verdict, collective over the
                // resumed grid. Only the rank whose allocation was
                // refused sees `BudgetExceeded` (its peers flush with
                // `Revoked`), so the escalation proposal rides a
                // max-verdict on the ctrl plane: every survivor commits
                // to the same rung before the sweep retries. A verdict
                // past the last rung means the ladder is exhausted —
                // the retry would refuse the same allocation again —
                // so the run falls back to the disk checkpoint cleanly
                // on every rank at once.
                let old_rung = ratucker_mem::rung();
                let proposed = if budget_hit {
                    old_rung.saturating_add(1)
                } else {
                    old_rung
                };
                let verdict = grid.comm.try_verdict_max(proposed as f64)? as u8;
                if verdict > RUNG_FREEZE {
                    return Ok(ResilientOutcome::FallbackToCheckpoint {
                        dead: Vec::new(),
                        reason: format!(
                            "memory budget exhausted beyond degradation rung {RUNG_FREEZE}: \
                             no cheaper execution mode is left, restart from the checkpoint \
                             with more memory or fewer ranks per node"
                        ),
                        timings,
                    });
                }
                ratucker_mem::set_rung(verdict);
                report.max_rung = report.max_rung.max(verdict);
                if verdict > old_rung {
                    // A ladder escalation is deterministic progress —
                    // the retry runs strictly cheaper — not a crash
                    // retry: refund the recovery round so
                    // `max_recoveries` keeps bounding genuine fault
                    // storms only. `old_rung` and `verdict` are both
                    // collectively committed, so every rank refunds in
                    // lockstep.
                    report.recoveries = report.recoveries.saturating_sub(1);
                }
                factors = snapshot.expect("a retry budget implies a snapshot");
            }
            Err(e) => return Err(e),
        }
    }

    report.final_grid = grid.dims().to_vec();
    report.abft = ctx.stats;
    let rel_error = *sweep_errors.last().expect("max_iters must be at least 1");
    Ok(ResilientOutcome::Completed {
        result: Box::new(DistRunResult {
            tucker: DistTucker {
                core: result_core.expect("max_iters must be at least 1"),
                factors,
            },
            rel_error,
            timings,
            sweep_errors,
            sweep_ranks,
            sweep_met,
            sweep_timings,
        }),
        grid: Box::new(grid),
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::dist_ra_hooi;
    use crate::hooi::HooiConfig;
    use crate::synthetic::SyntheticSpec;
    use ratucker_mpi::{CorruptMode, FaultPlan, Universe};

    fn build_dist(grid: &CartGrid, spec: &SyntheticSpec) -> DistTensor<f64> {
        let full = spec.build::<f64>();
        DistTensor::scatter_from_replicated(grid, &full)
    }

    fn undershoot_cfg() -> RaConfig {
        RaConfig::ra_hosi_dt(0.05, &[2, 2, 2])
            .with_seed(19)
            .with_alpha(2.0)
            .with_max_iters(3)
    }

    /// Everything a rank's run produced, for bitwise comparison.
    type RunState = (f64, Vec<f64>, Vec<Vec<usize>>, Vec<Matrix<f64>>, Vec<f64>);

    fn state_of(result: &DistRunResult<f64>, grid: &CartGrid) -> RunState {
        (
            result.rel_error,
            result.sweep_errors.clone(),
            result.sweep_ranks.clone(),
            result.tucker.factors.clone(),
            result.tucker.gather(grid).core.data().to_vec(),
        )
    }

    /// The core gather that feeds eq. (3) runs under the
    /// `CoreAnalysis` span: at P = 2 every such span carries the
    /// gather's allgatherv bytes instead of booking them to `sweep`.
    #[test]
    fn core_analysis_spans_carry_the_core_gather() {
        use ratucker_mpi::CollectiveKind;
        let spec = SyntheticSpec::new(&[12, 10, 8], &[3, 3, 2], 0.02, 209);
        let session = ratucker_obs::TraceSession::start();
        Universe::launch(2, move |c| {
            let grid = CartGrid::new(c, &[1, 1, 2]);
            let x = build_dist(&grid, &spec);
            let res = ResilienceConfig::default();
            match dist_ra_hooi_resilient(&grid, &x, &undershoot_cfg(), &res).unwrap() {
                ResilientOutcome::Completed { result, .. } => {
                    assert!(result.timings.secs(Phase::CoreAnalysis) > 0.0)
                }
                other => panic!("fault-free run must complete, got {other:?}"),
            }
        });
        let trace = session.finish();
        let spans: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.phase == "CoreAnalysis")
            .collect();
        assert!(!spans.is_empty(), "the run must reach a core analysis");
        for e in spans {
            assert!(
                e.traffic.bytes_of(CollectiveKind::Allgatherv) > 0,
                "rank {}: CoreAnalysis span carries no gather bytes",
                e.rank
            );
        }
    }

    #[test]
    fn fault_free_resilient_run_is_bitwise_identical_to_plain() {
        let spec = SyntheticSpec::new(&[12, 10, 8], &[3, 3, 2], 0.02, 209);
        let mut dir = std::env::temp_dir();
        dir.push(format!("ratucker_resilient_table_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let grow = undershoot_cfg();
        // Starts above the true ranks: the first sweep truncates.
        let overshoot = RaConfig::ra_hosi_dt(0.1, &[5, 5, 4])
            .with_seed(23)
            .with_max_iters(2);
        let on = ResilienceConfig::default();
        let cases: Vec<(&str, RaConfig, ResilienceConfig)> = vec![
            ("buddy 1", grow.clone(), on.clone()),
            ("buddy 0", grow.clone(), on.clone().with_buddy_degree(0)),
            (
                "abft detect",
                grow.clone(),
                on.clone().with_abft(AbftMode::Detect),
            ),
            (
                "abft recover",
                grow.clone(),
                on.clone().with_abft(AbftMode::Recover),
            ),
            (
                "checkpoint",
                grow.clone(),
                on.clone().with_checkpoint(CheckpointPolicy::new(&dir)),
            ),
            (
                "checkpoint, resilience off",
                grow.clone(),
                ResilienceConfig::off().with_checkpoint(CheckpointPolicy::new(&dir)),
            ),
            (
                "stop on threshold",
                grow.clone().stopping_on_threshold(),
                on.clone(),
            ),
            ("overshoot", overshoot.clone(), on.clone()),
        ];
        for (name, cfg, res) in cases {
            let (s, c2) = (spec.clone(), cfg.clone());
            let plain = Universe::launch(4, move |c| {
                let grid = CartGrid::new(c, &[2, 2, 1]);
                let x = build_dist(&grid, &s);
                let result = dist_ra_hooi(&grid, &x, &c2);
                // Resilience off records no recovery overhead.
                assert_eq!(result.timings.secs(Phase::Recovery), 0.0);
                state_of(&result, &grid)
            });
            let s = spec.clone();
            let resilient = Universe::launch(4, move |c| {
                let grid = CartGrid::new(c, &[2, 2, 1]);
                let x = build_dist(&grid, &s);
                match dist_ra_hooi_resilient(&grid, &x, &cfg, &res).unwrap() {
                    ResilientOutcome::Completed {
                        result,
                        grid,
                        report,
                    } => (state_of(&result, &grid), report),
                    other => panic!("fault-free run must complete, got {other:?}"),
                }
            });
            let _ = std::fs::remove_dir_all(&dir);
            for (a, (b, report)) in plain.iter().zip(&resilient) {
                assert_eq!(a.0, b.0, "{name}: rel_error");
                assert_eq!(a.1, b.1, "{name}: sweep errors");
                assert_eq!(a.2, b.2, "{name}: sweep ranks");
                for (ua, ub) in a.3.iter().zip(&b.3) {
                    assert_eq!(ua.as_slice(), ub.as_slice(), "{name}: factors");
                }
                assert_eq!(a.4, b.4, "{name}: core");
                assert_eq!(report.recoveries, 0, "{name}");
                assert!(report.restored_ranks.is_empty(), "{name}");
                assert_eq!(report.final_grid, vec![2, 2, 1], "{name}");
                assert_eq!(report.abft, AbftStats::default(), "{name}");
            }
            if name == "overshoot" {
                let first = &plain[0].2[0];
                assert!(
                    first
                        .iter()
                        .zip(&overshoot.initial_ranks)
                        .any(|(r, r0)| r < r0),
                    "the overshoot start must truncate, got {first:?}"
                );
            }
        }
    }

    #[test]
    fn resilience_off_returns_the_first_error_unchanged() {
        let spec = SyntheticSpec::new(&[12, 10, 8], &[3, 3, 2], 0.02, 209);
        let cfg = undershoot_cfg();
        // The plan of `budget_below_every_rung_falls_back_to_checkpoint_cleanly`:
        // with recovery on, rank 1's refusal climbs the ladder and every
        // rank falls back to the checkpoint. With it off there is no
        // revoke-and-agree round, no ladder and no fallback: the refusing
        // rank returns its `BudgetExceeded` as it is, and its peers the
        // error the abort left them with.
        let plan = FaultPlan::quiet(11).with_mem_pressure(1, 50, 1 << 10);
        let out = Universe::try_launch(4, plan, move |c| {
            let grid = CartGrid::new(c, &[2, 2, 1]);
            let x = build_dist(&grid, &spec);
            dist_ra_hooi_resilient(&grid, &x, &cfg, &ResilienceConfig::off())
        });
        for (rank, res) in out.into_iter().enumerate() {
            match res.expect("no rank panics under memory pressure") {
                Err(CommError::BudgetExceeded { .. }) if rank == 1 => {}
                Err(e) if rank != 1 => assert!(is_failure(&e), "rank {rank}: {e}"),
                other => panic!("rank {rank}: expected the first error, got {other:?}"),
            }
        }
    }

    #[test]
    fn crash_mid_sweep_shrinks_and_continues_online() {
        let spec = SyntheticSpec::new(&[12, 10, 8], &[3, 3, 2], 0.02, 209);
        let cfg = undershoot_cfg();

        // Fault-free reference error on the original [2,2,1] grid.
        let (s, c2) = (spec.clone(), cfg.clone());
        let reference = Universe::launch(4, move |c| {
            let grid = CartGrid::new(c, &[2, 2, 1]);
            let x = build_dist(&grid, &s);
            dist_ra_hooi(&grid, &x, &c2).rel_error
        })[0];

        // Kill rank 2 mid-sweep, after the first buddy refresh has
        // mirrored its block onto rank 3.
        let victim = 2;
        let plan = FaultPlan::quiet(41).with_crash(victim, 60);
        let (s, c2) = (spec.clone(), cfg.clone());
        let out = Universe::try_launch(4, plan, move |c| {
            let grid = CartGrid::new(c, &[2, 2, 1]);
            let x = build_dist(&grid, &s);
            dist_ra_hooi_resilient(&grid, &x, &c2, &ResilienceConfig::default()).unwrap()
        });

        let failure = out[victim].as_ref().unwrap_err();
        assert!(
            failure.message.contains("injected crash"),
            "victim should die of the injected crash, got: {}",
            failure.message
        );
        let mut completed = 0;
        let mut spares = 0;
        for (rank, res) in out.iter().enumerate() {
            if rank == victim {
                continue;
            }
            match res.as_ref().expect("survivors must not panic") {
                ResilientOutcome::Completed { result, report, .. } => {
                    completed += 1;
                    assert!(report.recoveries >= 1, "rank {rank}: {report:?}");
                    assert!(
                        report.restored_ranks.contains(&victim),
                        "rank {rank}: {report:?}"
                    );
                    // 3 survivors → the largest grid elementwise ≤ [2,2,1]
                    // has 2 ranks.
                    assert_eq!(report.final_grid, vec![2, 1, 1], "rank {rank}");
                    assert!(
                        (result.rel_error - reference).abs() < 1e-10,
                        "rank {rank}: online recovery diverged: {} vs {reference}",
                        result.rel_error
                    );
                }
                ResilientOutcome::Spare { report, .. } => {
                    spares += 1;
                    assert!(report.recoveries >= 1);
                }
                ResilientOutcome::FallbackToCheckpoint { dead, reason, .. } => {
                    panic!("rank {rank} fell back to disk (dead {dead:?}): {reason}")
                }
            }
        }
        assert_eq!((completed, spares), (2, 1));
    }

    #[test]
    fn straggler_is_demoted_online_and_the_run_converges() {
        use std::time::Duration;
        let spec = SyntheticSpec::new(&[12, 10, 8], &[3, 3, 2], 0.02, 209);
        let cfg = undershoot_cfg();

        // Fault-free reference error on the original [2,2,1] grid.
        let (s, c2) = (spec.clone(), cfg.clone());
        let reference = Universe::launch(4, move |c| {
            let grid = CartGrid::new(c, &[2, 2, 1]);
            let x = build_dist(&grid, &s);
            dist_ra_hooi(&grid, &x, &c2).rel_error
        })[0];

        // Rank 1 is alive and correct but pays a delay on every data-
        // plane operation: a gray failure no liveness check can see.
        let victim = 1;
        let plan = FaultPlan::quiet(31).with_slow_rank(victim, Duration::from_millis(5));
        let (s, c2) = (spec.clone(), cfg.clone());
        let out = Universe::try_launch(4, plan, move |c| {
            let grid = CartGrid::new(c, &[2, 2, 1]);
            let x = build_dist(&grid, &s);
            // The blame cascades: ranks stuck waiting on the victim
            // delay their own sends, inflating the median, so the
            // relative multiple is set well below the victim's ~3×
            // share.
            let res = ResilienceConfig::default().with_straggler(
                StragglerPolicy::new(2.0)
                    .with_consecutive(1)
                    .with_min_secs(0.02),
            );
            dist_ra_hooi_resilient(&grid, &x, &c2, &res).unwrap()
        });

        let mut completed = 0;
        let mut spares = 0;
        for (rank, res) in out.iter().enumerate() {
            match res.as_ref().expect("no rank panics under demotion") {
                ResilientOutcome::Completed { result, report, .. } => {
                    completed += 1;
                    assert!(
                        report.demoted_ranks.contains(&victim),
                        "rank {rank}: {report:?}"
                    );
                    assert!(
                        report.restored_ranks.contains(&victim),
                        "rank {rank}: {report:?}"
                    );
                    // 3 survivors → the largest grid elementwise ≤ [2,2,1]
                    // has 2 ranks.
                    assert_eq!(report.final_grid, vec![2, 1, 1], "rank {rank}");
                    assert!(
                        (result.rel_error - reference).abs() < 1e-10,
                        "rank {rank}: demotion diverged: {} vs {reference}",
                        result.rel_error
                    );
                }
                ResilientOutcome::Spare { .. } => spares += 1,
                ResilientOutcome::FallbackToCheckpoint { dead, reason, .. } => {
                    panic!("rank {rank} fell back to disk (dead {dead:?}): {reason}")
                }
            }
        }
        // The victim exits as a spare; one survivor does not fit the
        // shrunken grid.
        assert_eq!((completed, spares), (2, 2));
    }

    #[test]
    fn budget_below_every_rung_falls_back_to_checkpoint_cleanly() {
        let spec = SyntheticSpec::new(&[12, 10, 8], &[3, 3, 2], 0.02, 209);
        let cfg = undershoot_cfg();
        // 1 KiB is below rank 1's resident block alone, so every rung of
        // the ladder still refuses the first staging charge: the run
        // must climb 1 → 2 → 3, agree the ladder is exhausted, and fall
        // back to the checkpoint cleanly on every rank — no deadlock,
        // no abort, no rank declared dead.
        let plan = FaultPlan::quiet(11).with_mem_pressure(1, 50, 1 << 10);
        let out = Universe::try_launch(4, plan, move |c| {
            let grid = CartGrid::new(c, &[2, 2, 1]);
            let x = build_dist(&grid, &spec);
            dist_ra_hooi_resilient(&grid, &x, &cfg, &ResilienceConfig::default()).unwrap()
        });
        for (rank, res) in out.into_iter().enumerate() {
            match res.expect("no rank panics under memory pressure") {
                ResilientOutcome::FallbackToCheckpoint { dead, reason, .. } => {
                    assert!(dead.is_empty(), "rank {rank}: no rank died: {dead:?}");
                    assert!(
                        reason.contains("memory budget"),
                        "rank {rank}: unexpected reason: {reason}"
                    );
                }
                other => panic!("rank {rank}: expected checkpoint fallback, got {other:?}"),
            }
        }
    }

    #[test]
    fn finite_corruption_surfaces_collectively_under_detect() {
        let spec = SyntheticSpec::new(&[10, 9, 8], &[3, 3, 2], 0.02, 205);
        let cfg = RaConfig::ra_hosi_dt(0.1, &[3, 3, 2])
            .with_seed(13)
            .with_max_iters(2);
        let plan = FaultPlan::quiet(7).with_corruption(1.0, CorruptMode::ExponentFlip);
        let s = spec.clone();
        let out = Universe::try_launch(4, plan, move |c| {
            let grid = CartGrid::new(c, &[2, 2, 1]);
            let x = build_dist(&grid, &s);
            let res = ResilienceConfig::default().with_abft(AbftMode::Detect);
            dist_ra_hooi_resilient(&grid, &x, &cfg, &res)
        });
        // The checksum verdict is collective: every rank sees the same
        // SilentCorruption error, none hangs, none diverges.
        for (rank, res) in out.into_iter().enumerate() {
            match res.expect("ranks return the error, they do not panic") {
                Err(CommError::SilentCorruption { rel_err, .. }) => {
                    assert!(rel_err.is_finite() || rel_err.is_infinite());
                }
                other => panic!("rank {rank}: expected SilentCorruption, got {other:?}"),
            }
        }
    }

    #[test]
    fn abft_recover_recomputes_sparse_corruption_and_converges() {
        let spec = SyntheticSpec::new(&[12, 10, 8], &[3, 3, 2], 0.02, 209);
        // HOOI (Gram-EVD + direct TTM) keeps almost all sweep traffic on
        // the checked kernels.
        let mut cfg = RaConfig::ra_hosi_dt(0.1, &[3, 3, 2])
            .with_seed(13)
            .with_max_iters(2);
        cfg.inner = HooiConfig::hooi().with_seed(13);
        let plan = FaultPlan::quiet(23).with_corruption(0.01, CorruptMode::ExponentFlip);
        let s = spec.clone();
        let out = Universe::try_launch(4, plan, move |c| {
            let grid = CartGrid::new(c, &[2, 2, 1]);
            let x = build_dist(&grid, &s);
            let res = ResilienceConfig::default().with_abft(AbftMode::Recover);
            dist_ra_hooi_resilient(&grid, &x, &cfg, &res).unwrap()
        });
        let mut detected = 0;
        for (rank, res) in out.into_iter().enumerate() {
            match res.expect("no rank panics") {
                ResilientOutcome::Completed { result, report, .. } => {
                    assert!(
                        result.rel_error <= 0.1,
                        "rank {rank}: corrupted run missed the tolerance: {}",
                        result.rel_error
                    );
                    assert_eq!(report.abft.detected, report.abft.recomputed);
                    detected = report.abft.detected;
                }
                other => panic!("rank {rank}: expected completion, got {other:?}"),
            }
        }
        assert!(
            detected > 0,
            "fault plan was meant to poison at least one checked collective"
        );
    }
}
