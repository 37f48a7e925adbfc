//! Distributed Tucker algorithms over the `ratucker-mpi` runtime.
//!
//! Every function here is *collective*: all ranks of the grid call it with
//! identical arguments (aside from their local tensor blocks) and follow
//! the same control flow. Factor matrices are replicated; the per-mode
//! EVD/QR factorizations are executed redundantly on every rank, exactly
//! as TuckerMPI does — the paper's strong-scaling story (the sequential
//! EVD plateau of STHOSVD vs. HOSI's thin QR) depends on reproducing that
//! design decision.
//!
//! Each TTM and SI kernel call these algorithms make is one collective
//! at degradation rung 0; under memory pressure (rung ≥ 1) the TTM
//! splits its reduction into slabs (DESIGN.md §17). Its result is
//! bitwise independent of the slab count, so nothing here depends on
//! the rung.

use crate::checkpoint::{CheckpointPolicy, FileCheckpointer, NoCheckpoint, RaCheckpointer};
use crate::hooi::{HooiConfig, LlsvStrategy, TtmStrategy};
use crate::llsv::robust_sym_evd;
use crate::llsv::Truncation;
use crate::ra::RaConfig;
use crate::recover::{ra_driver, ResilienceConfig, ResilientOutcome};
use crate::sthosvd::SthosvdTruncation;
use crate::timings::{Phase, Timings};
use crate::tucker_tensor::TuckerTensor;
use ratucker_dist::{
    try_dist_contract_fiber, try_dist_gram_checked, try_dist_ttm_checked, AbftMode, DistTensor,
};
use ratucker_linalg::evd::rank_for_error;
use ratucker_linalg::qr::qrcp;
use ratucker_mpi::CommError;
use ratucker_mpi::{CartGrid, Universe};
use ratucker_tensor::dense::DenseTensor;
use ratucker_tensor::io::IoScalar;
use ratucker_tensor::matrix::Matrix;
use ratucker_tensor::scalar::Scalar;
use ratucker_tensor::ttm::Transpose;
use std::borrow::Cow;

/// A distributed Tucker decomposition: distributed core, replicated
/// factors.
#[derive(Clone, Debug)]
pub struct DistTucker<T: Scalar> {
    /// The distributed core tensor.
    pub core: DistTensor<T>,
    /// Replicated factor matrices.
    pub factors: Vec<Matrix<T>>,
}

impl<T: Scalar> DistTucker<T> {
    /// Tucker ranks.
    pub fn ranks(&self) -> Vec<usize> {
        self.core.global_shape().dims().to_vec()
    }

    /// Gathers the core on every rank, yielding an ordinary
    /// [`TuckerTensor`]. Collective.
    ///
    /// # Panics
    /// Panics with the error's message if the core allgather fails.
    pub fn gather(&self, grid: &CartGrid) -> TuckerTensor<T> {
        let core = self
            .core
            .try_gather_replicated(grid)
            .unwrap_or_else(|e| panic!("{e}"));
        TuckerTensor::new(core, self.factors.clone())
    }
}

/// Result of a distributed algorithm run (per rank).
#[derive(Clone, Debug)]
pub struct DistRunResult<T: Scalar> {
    /// The decomposition (collectively consistent across ranks).
    pub tucker: DistTucker<T>,
    /// Relative error from the core-norm identity.
    pub rel_error: f64,
    /// This rank's phase breakdown (wall clock includes waiting on
    /// collectives, which is how communication imbalance shows up).
    pub timings: Timings,
    /// Per-sweep relative errors (HOOI variants; single entry for STHOSVD).
    pub sweep_errors: Vec<f64>,
    /// Per-sweep rank vectors (rank-adaptive runs).
    pub sweep_ranks: Vec<Vec<usize>>,
    /// Per-sweep threshold verdicts `‖G‖² ≥ (1−ε²)‖X‖²` (rank-adaptive
    /// runs).
    pub sweep_met: Vec<bool>,
    /// Per-sweep phase breakdowns (rank-adaptive runs); `timings` also
    /// counts failed attempts and recovery rounds.
    pub sweep_timings: Vec<Timings>,
}

/// Runs `solve` on a one-rank universe over an all-ones grid, with `x`
/// copied into the rank's block, and returns its result with the core
/// gathered. The single-tensor entry points are this call: each costs one
/// thread spawn and one copy of `x`, and gives bit for bit the result
/// of the same solver on a grid of one.
pub(crate) fn on_one_rank<T: Scalar>(
    x: &DenseTensor<T>,
    solve: impl Fn(&CartGrid, &DistTensor<T>) -> DistRunResult<T> + Sync,
) -> (DistRunResult<T>, TuckerTensor<T>) {
    let ones = vec![1; x.order()];
    let mut out = Universe::launch(1, |comm| {
        let grid = CartGrid::new(comm, &ones);
        let res = solve(&grid, &DistTensor::scatter_from_replicated(&grid, x));
        let tucker = res.tucker.gather(&grid);
        (res, tucker)
    });
    out.pop().expect("a one-rank universe returns one result")
}

/// ABFT bookkeeping for a resilient run: how many checksum mismatches
/// the checked kernels reported and how many contractions were
/// recomputed in response ([`AbftMode::Recover`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AbftStats {
    /// Checksum mismatches detected.
    pub detected: usize,
    /// Poisoned contractions recomputed (always `<= detected`).
    pub recomputed: usize,
}

/// Resilience context threaded through the fallible sweep pipeline: the
/// ABFT policy plus the per-run detection counters.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SweepCtx {
    /// Checksum policy for the distributed kernels.
    pub abft: AbftMode,
    /// Detection / recomputation counters.
    pub stats: AbftStats,
}

impl SweepCtx {
    /// Context with checksums disabled (the fixed-rank drivers
    /// [`dist_sthosvd`] and [`dist_hooi`]).
    pub fn off() -> Self {
        SweepCtx::new(AbftMode::Off)
    }

    /// Context with the given checksum policy.
    pub fn new(abft: AbftMode) -> Self {
        SweepCtx {
            abft,
            stats: AbftStats::default(),
        }
    }
}

/// How many times one poisoned contraction may be recomputed before the
/// mismatch is treated as persistent (a sticky hardware fault rather
/// than a transient bit flip) and surfaced to the caller.
const ABFT_MAX_ATTEMPTS: usize = 3;

/// Runs a checked collective kernel under the context's ABFT policy:
/// on a checksum mismatch in [`AbftMode::Recover`], recompute (the
/// verdict is collective — every rank of the grid reaches the same
/// decision, so the retry stays a well-formed collective); in
/// [`AbftMode::Detect`], count it and surface the error.
fn with_abft_retry<T>(
    ctx: &mut SweepCtx,
    mut op: impl FnMut() -> Result<T, CommError>,
) -> Result<T, CommError> {
    let mut attempt = 0;
    loop {
        match op() {
            Err(e @ CommError::SilentCorruption { .. }) => {
                ctx.stats.detected += 1;
                if ctx.abft == AbftMode::Recover && attempt + 1 < ABFT_MAX_ATTEMPTS {
                    ctx.stats.recomputed += 1;
                    attempt += 1;
                    continue;
                }
                return Err(e);
            }
            other => return other,
        }
    }
}

/// Checked TTM under the context's ABFT retry policy.
fn checked_ttm<T: Scalar>(
    grid: &CartGrid,
    x: &DistTensor<T>,
    mode: usize,
    m: &Matrix<T>,
    trans: Transpose,
    ctx: &mut SweepCtx,
) -> Result<DistTensor<T>, CommError> {
    let abft = ctx.abft;
    with_abft_retry(ctx, || try_dist_ttm_checked(grid, x, mode, m, trans, abft))
}

/// Checked TTM chain: multiplies `x` by `factors[m]ᵀ` in each mode `m`
/// of `modes`, in the given order, under the context's ABFT retry
/// policy. An empty chain returns a copy of `x`.
fn checked_ttm_chain<T: Scalar>(
    grid: &CartGrid,
    x: &DistTensor<T>,
    factors: &[Matrix<T>],
    modes: impl IntoIterator<Item = usize>,
    ctx: &mut SweepCtx,
) -> Result<DistTensor<T>, CommError> {
    let mut cur: Option<DistTensor<T>> = None;
    for m in modes {
        let src = cur.as_ref().unwrap_or(x);
        cur = Some(checked_ttm(grid, src, m, &factors[m], Transpose::Yes, ctx)?);
    }
    Ok(cur.unwrap_or_else(|| x.clone()))
}

/// Distributed LLSV via Gram + redundant EVD (fallible).
fn try_dist_llsv_gram<T: Scalar>(
    grid: &CartGrid,
    y: &DistTensor<T>,
    mode: usize,
    trunc: Truncation,
    timings: &mut Timings,
    ctx: &mut SweepCtx,
) -> Result<Matrix<T>, CommError> {
    let abft = ctx.abft;
    let g = with_abft_retry(ctx, || {
        timings.time(Phase::Gram, || try_dist_gram_checked(grid, y, mode, abft))
    })?;
    let evd = timings.time(Phase::Evd, || {
        let _s = ratucker_obs::span_mode(&grid.comm, "EVD", mode);
        robust_sym_evd(&g)
    });
    let r = match trunc {
        Truncation::Rank(r) => r.min(evd.values.len()),
        Truncation::ErrorSq(t) => rank_for_error(&evd.values, t),
    };
    Ok(evd.vectors.leading_cols(r))
}

/// Distributed LLSV via subspace iteration (Alg. 5 over the grid,
/// fallible): distributed TTM for the core unfolding, distributed
/// contraction against each rank's own core block (gathered along the
/// mode's fiber only when the mode is split) with sum-reduce+broadcast,
/// redundant QRCP.
/// `steps` repeats the iteration (the paper uses 1).
fn try_dist_llsv_subspace<T: Scalar>(
    grid: &CartGrid,
    y: &DistTensor<T>,
    mode: usize,
    u_prev: &Matrix<T>,
    steps: usize,
    timings: &mut Timings,
    ctx: &mut SweepCtx,
) -> Result<Matrix<T>, CommError> {
    let mut u = u_prev.clone();
    for _ in 0..steps.max(1) {
        // Both Alg. 5 multiplies are charged to the Contract ("SI") phase:
        // together they are Table 1's SI row.
        let g_core = {
            let abft = ctx.abft;
            with_abft_retry(ctx, || {
                timings.time(Phase::Contract, || {
                    try_dist_ttm_checked(grid, y, mode, &u, Transpose::Yes, abft)
                })
            })?
        };
        let z = timings.time(Phase::Contract, || {
            try_dist_contract_fiber(grid, y, &g_core, mode)
        })?;
        let f = timings.time(Phase::Qr, || {
            let _s = ratucker_obs::span_mode(&grid.comm, "QR", mode);
            qrcp(&z)
        });
        u = f.q;
    }
    Ok(u)
}

#[allow(clippy::too_many_arguments)]
fn try_dist_update_factor<T: Scalar>(
    grid: &CartGrid,
    y: &DistTensor<T>,
    mode: usize,
    rank: usize,
    config: &HooiConfig,
    factors: &mut [Matrix<T>],
    timings: &mut Timings,
    ctx: &mut SweepCtx,
) -> Result<(), CommError> {
    factors[mode] = match config.llsv {
        LlsvStrategy::GramEvd => {
            try_dist_llsv_gram(grid, y, mode, Truncation::Rank(rank), timings, ctx)?
        }
        LlsvStrategy::SubspaceIter => {
            try_dist_llsv_subspace(grid, y, mode, &factors[mode], config.si_steps, timings, ctx)?
        }
    };
    Ok(())
}

/// Distributed STHOSVD (Alg. 1). Collective.
///
/// # Panics
/// Panics with the error's message on the first communication error.
pub fn dist_sthosvd<T: Scalar>(
    grid: &CartGrid,
    x: &DistTensor<T>,
    trunc: &SthosvdTruncation,
) -> DistRunResult<T> {
    try_dist_sthosvd(grid, x, trunc).unwrap_or_else(|e| panic!("{e}"))
}

fn try_dist_sthosvd<T: Scalar>(
    grid: &CartGrid,
    x: &DistTensor<T>,
    trunc: &SthosvdTruncation,
) -> Result<DistRunResult<T>, CommError> {
    let d = x.global_shape().order();
    let x_norm_sq = x.try_squared_norm(grid)?;
    let mut timings = Timings::new();
    let mut ctx = SweepCtx::off();
    // Borrowed until the first TTM: the caller's block is held once.
    let mut y = Cow::Borrowed(x);
    let mut factors = Vec::with_capacity(d);
    for j in 0..d {
        let mode_trunc = match trunc {
            SthosvdTruncation::Ranks(r) => Truncation::Rank(r[j]),
            SthosvdTruncation::RelError(eps) => {
                Truncation::ErrorSq(eps * eps * x_norm_sq / d as f64)
            }
        };
        let u = try_dist_llsv_gram(grid, &y, j, mode_trunc, &mut timings, &mut ctx)?;
        y = Cow::Owned(timings.time(Phase::Ttm, || {
            checked_ttm(grid, &y, j, &u, Transpose::Yes, &mut ctx)
        })?);
        factors.push(u);
    }
    let core_norm_sq = y.try_squared_norm(grid)?;
    let rel_error = ((x_norm_sq - core_norm_sq).max(0.0) / x_norm_sq).sqrt();
    Ok(DistRunResult {
        tucker: DistTucker {
            core: y.into_owned(),
            factors,
        },
        rel_error,
        timings,
        sweep_errors: vec![rel_error],
        sweep_ranks: Vec::new(),
        sweep_met: Vec::new(),
        sweep_timings: Vec::new(),
    })
}

/// One distributed HOOI sweep (fallible); returns the new core.
///
/// All communication goes through the checked kernels under the
/// context's ABFT policy; any [`CommError`] (peer failure, timeout,
/// revocation, unrecovered checksum mismatch) aborts the sweep with the
/// factors possibly half-updated — callers that intend to retry must
/// snapshot `factors` first (see `crate::recover`).
pub(crate) fn try_dist_sweep<T: Scalar>(
    grid: &CartGrid,
    x: &DistTensor<T>,
    factors: &mut [Matrix<T>],
    ranks: &[usize],
    config: &HooiConfig,
    timings: &mut Timings,
    ctx: &mut SweepCtx,
) -> Result<DistTensor<T>, CommError> {
    let _span = ratucker_obs::span(&grid.comm, "sweep");
    match config.ttm {
        TtmStrategy::Direct => {
            let d = x.global_shape().order();
            let mut core = None;
            for j in 0..d {
                let y = timings.time(Phase::Ttm, || {
                    checked_ttm_chain(grid, x, factors, (0..d).filter(|&k| k != j), ctx)
                })?;
                try_dist_update_factor(grid, &y, j, ranks[j], config, factors, timings, ctx)?;
                if j == d - 1 {
                    core = Some(timings.time(Phase::Ttm, || {
                        checked_ttm(grid, &y, j, &factors[j], Transpose::Yes, ctx)
                    })?);
                }
            }
            Ok(core.expect("tensor has at least one mode"))
        }
        TtmStrategy::DimTree => {
            let d = x.global_shape().order();
            let modes: Vec<usize> = (0..d).collect();
            let mut core = None;
            try_dist_dimtree_rec(
                grid, x, &modes, factors, ranks, config, timings, &mut core, ctx,
            )?;
            Ok(core.expect("mode d-1 leaf must set the core"))
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn try_dist_dimtree_rec<T: Scalar>(
    grid: &CartGrid,
    x: &DistTensor<T>,
    modes: &[usize],
    factors: &mut [Matrix<T>],
    ranks: &[usize],
    config: &HooiConfig,
    timings: &mut Timings,
    core: &mut Option<DistTensor<T>>,
    ctx: &mut SweepCtx,
) -> Result<(), CommError> {
    let d = factors.len();
    if modes.len() == 1 {
        let m = modes[0];
        try_dist_update_factor(grid, x, m, ranks[m], config, factors, timings, ctx)?;
        if m == d - 1 {
            *core = Some(timings.time(Phase::Ttm, || {
                checked_ttm(grid, x, m, &factors[m], Transpose::Yes, ctx)
            })?);
        }
        return Ok(());
    }
    let mid = modes.len() / 2;
    let (lo, hi) = modes.split_at(mid);

    let x_hi = timings.time(Phase::Ttm, || {
        checked_ttm_chain(grid, x, factors, hi.iter().rev().copied(), ctx)
    })?;
    try_dist_dimtree_rec(grid, &x_hi, lo, factors, ranks, config, timings, core, ctx)?;
    drop(x_hi);

    let x_lo = timings.time(Phase::Ttm, || {
        checked_ttm_chain(grid, x, factors, lo.iter().copied(), ctx)
    })?;
    try_dist_dimtree_rec(grid, &x_lo, hi, factors, ranks, config, timings, core, ctx)
}

/// Distributed fixed-rank HOOI (any variant). Collective.
///
/// # Panics
/// Panics with the error's message on the first communication error.
pub fn dist_hooi<T: Scalar>(
    grid: &CartGrid,
    x: &DistTensor<T>,
    ranks: &[usize],
    config: &HooiConfig,
) -> DistRunResult<T> {
    // Same seed on every rank → identical replicated factors.
    let init = crate::hooi::random_init::<T>(x.global_shape().dims(), ranks, config.seed);
    try_dist_hooi(grid, x, ranks, &init, config).unwrap_or_else(|e| panic!("{e}"))
}

/// Distributed fixed-rank HOOI from the replicated initial factors
/// `init` (fallible).
pub(crate) fn try_dist_hooi<T: Scalar>(
    grid: &CartGrid,
    x: &DistTensor<T>,
    ranks: &[usize],
    init: &[Matrix<T>],
    config: &HooiConfig,
) -> Result<DistRunResult<T>, CommError> {
    let x_norm_sq = x.try_squared_norm(grid)?;
    let mut factors = init.to_vec();
    let mut timings = Timings::new();
    let mut ctx = SweepCtx::off();
    let mut sweep_errors = Vec::new();
    let mut core = None;
    let mut prev_err = f64::INFINITY;

    for _ in 0..config.max_iters {
        let c = try_dist_sweep(grid, x, &mut factors, ranks, config, &mut timings, &mut ctx)?;
        let g = c.try_squared_norm(grid)?;
        let rel_error = ((x_norm_sq - g).max(0.0) / x_norm_sq).sqrt();
        core = Some(c);
        sweep_errors.push(rel_error);
        if let Some(tol) = config.tol {
            if (prev_err - rel_error).abs() <= tol * rel_error.max(f64::EPSILON) {
                break;
            }
        }
        prev_err = rel_error;
    }

    let rel_error = *sweep_errors.last().unwrap();
    Ok(DistRunResult {
        tucker: DistTucker {
            core: core.expect("max_iters must be at least 1"),
            factors,
        },
        rel_error,
        timings,
        sweep_errors,
        sweep_ranks: Vec::new(),
        sweep_met: Vec::new(),
        sweep_timings: Vec::new(),
    })
}

/// Distributed rank-adaptive HOOI (Alg. 3). Collective.
///
/// The core is allgathered (cost `r^d`, the Table 2 "Core Analysis" row)
/// and the eq.-(3) search runs redundantly on every rank, so truncation
/// decisions are identical everywhere without extra coordination. This
/// is the driver of [`crate::recover`] with [`ResilienceConfig::off`].
///
/// # Panics
/// Panics with the error's message on the first communication error.
pub fn dist_ra_hooi<T: Scalar>(
    grid: &CartGrid,
    x: &DistTensor<T>,
    config: &RaConfig,
) -> DistRunResult<T> {
    ra_driver_off(grid, x, config, &mut NoCheckpoint)
}

/// Distributed rank-adaptive HOOI with checkpoint/restart. Collective.
///
/// Factors and ranks are replicated, so a single checkpoint file serves
/// the whole grid: grid rank 0 writes it (atomically), and with
/// `policy.resume` every rank reads the latest checkpoint itself before
/// the first sweep. The growth RNG is derived per sweep, so the resumed
/// run reproduces the uninterrupted decomposition bit for bit on every
/// rank. `policy.dir` must name a filesystem location shared by all
/// ranks (trivially true in the threaded runtime).
///
/// # Panics
/// Panics if a checkpoint exists but cannot be read or does not match
/// this run's seed/ε/tensor (see [`crate::checkpoint::Checkpoint::validate`]),
/// and with the error's message on the first communication error.
pub fn dist_ra_hooi_checkpointed<T: IoScalar>(
    grid: &CartGrid,
    x: &DistTensor<T>,
    config: &RaConfig,
    policy: &CheckpointPolicy,
) -> DistRunResult<T> {
    ra_driver_off(grid, x, config, &mut FileCheckpointer { policy })
}

/// Runs the driver with resilience off: it either completes or fails
/// with the first error, which becomes a panic as in the other plain
/// drivers.
fn ra_driver_off<T: Scalar>(
    grid: &CartGrid,
    x: &DistTensor<T>,
    config: &RaConfig,
    ckpt: &mut impl RaCheckpointer<T>,
) -> DistRunResult<T> {
    let out = ra_driver(grid, x, config, &ResilienceConfig::off(), ckpt);
    match out.unwrap_or_else(|e| panic!("{e}")) {
        ResilientOutcome::Completed { result, .. } => *result,
        other => panic!("a run without recovery ended as `{}`", other.kind_label()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ratucker_tensor::random::{normal_tensor, random_orthonormal};
    use ratucker_tensor::ttm::ttm;

    fn build_dist<T: Scalar>(
        grid: &CartGrid,
        spec: &SyntheticSpec,
    ) -> (DistTensor<T>, DenseTensor<T>) {
        // Deterministic generation: every rank builds the full tensor and
        // takes its block (test-scale only).
        let full = spec.build::<T>();
        let dist = DistTensor::scatter_from_replicated(grid, &full);
        (dist, full)
    }

    #[test]
    fn dist_sthosvd_matches_sequential() {
        let spec = SyntheticSpec::new(&[10, 9, 8], &[3, 2, 3], 0.02, 201);
        let seq = {
            let x = spec.build::<f64>();
            crate::sthosvd::sthosvd(&x, &SthosvdTruncation::Ranks(vec![3, 2, 3]))
        };
        for grid_dims in [vec![1, 1, 1], vec![2, 1, 2], vec![3, 1, 1]] {
            let p: usize = grid_dims.iter().product();
            let gd = grid_dims.clone();
            let s = spec.clone();
            let out = Universe::launch(p, move |c| {
                let grid = CartGrid::new(c, &gd);
                let (x, _) = build_dist::<f64>(&grid, &s);
                let res = dist_sthosvd(&grid, &x, &SthosvdTruncation::Ranks(vec![3, 2, 3]));
                (res.rel_error, res.tucker.gather(&grid))
            });
            for (err, tucker) in out {
                assert!(
                    (err - seq.rel_error).abs() < 1e-8,
                    "grid {grid_dims:?}: {err} vs {}",
                    seq.rel_error
                );
                assert_eq!(tucker.ranks(), vec![3, 2, 3]);
            }
        }
    }

    #[test]
    fn dist_sthosvd_error_specified_matches_sequential_ranks() {
        let spec = SyntheticSpec::new(&[12, 10, 8], &[3, 3, 2], 0.01, 203);
        let seq = {
            let x = spec.build::<f64>();
            crate::sthosvd::sthosvd(&x, &SthosvdTruncation::RelError(0.1))
        };
        let s = spec.clone();
        let out = Universe::launch(4, move |c| {
            let grid = CartGrid::new(c, &[2, 2, 1]);
            let (x, _) = build_dist::<f64>(&grid, &s);
            let res = dist_sthosvd(&grid, &x, &SthosvdTruncation::RelError(0.1));
            (res.rel_error, res.tucker.ranks())
        });
        for (err, ranks) in out {
            assert_eq!(ranks, seq.tucker.ranks());
            assert!((err - seq.rel_error).abs() < 1e-8);
        }
    }

    #[test]
    fn dist_hooi_all_variants_match_sequential_error() {
        let spec = SyntheticSpec::new(&[10, 9, 8], &[3, 3, 2], 0.02, 205);
        let x_full = spec.build::<f64>();
        for cfg in [
            HooiConfig::hooi(),
            HooiConfig::hooi_dt(),
            HooiConfig::hosi(),
            HooiConfig::hosi_dt(),
        ] {
            let cfg = cfg.with_seed(11).with_max_iters(2);
            let seq = crate::hooi::hooi(&x_full, &[3, 3, 2], &cfg);
            let s = spec.clone();
            let cfg2 = cfg.clone();
            let out = Universe::launch(4, move |c| {
                let grid = CartGrid::new(c, &[2, 1, 2]);
                let (x, _) = build_dist::<f64>(&grid, &s);
                dist_hooi(&grid, &x, &[3, 3, 2], &cfg2).rel_error
            });
            for err in out {
                assert!(
                    (err - seq.rel_error()).abs() < 1e-7,
                    "{}: dist {err} vs seq {}",
                    cfg.variant_name(),
                    seq.rel_error()
                );
            }
        }
    }

    #[test]
    fn dist_hooi_bitwise_consistent_across_ranks() {
        let spec = SyntheticSpec::new(&[8, 8, 8], &[2, 2, 2], 0.01, 207);
        let s = spec.clone();
        let out = Universe::launch(8, move |c| {
            let grid = CartGrid::new(c, &[2, 2, 2]);
            let (x, _) = build_dist::<f64>(&grid, &s);
            let res = dist_hooi(&grid, &x, &[2, 2, 2], &HooiConfig::hosi_dt().with_seed(3));
            // Factors are replicated: hash one entry stream.
            res.tucker.factors[1].as_slice().to_vec()
        });
        for f in &out[1..] {
            assert_eq!(f, &out[0]);
        }
    }

    #[test]
    fn dist_ra_matches_sequential_behaviour() {
        let spec = SyntheticSpec::new(&[12, 10, 8], &[3, 3, 2], 0.02, 209);
        let cfg = RaConfig::ra_hosi_dt(0.1, &[4, 4, 3])
            .with_seed(13)
            .with_max_iters(2);
        let x_full = spec.build::<f64>();
        let seq = crate::ra::ra_hooi(&x_full, &cfg);
        let s = spec.clone();
        let cfg2 = cfg.clone();
        let out = Universe::launch(4, move |c| {
            let grid = CartGrid::new(c, &[2, 2, 1]);
            let (x, _) = build_dist::<f64>(&grid, &s);
            let res = dist_ra_hooi(&grid, &x, &cfg2);
            (res.rel_error, res.tucker.ranks(), res.sweep_ranks.clone())
        });
        for (err, ranks, _sweeps) in out {
            assert!(err <= 0.1, "tolerance violated: {err}");
            // Same final ranks as the sequential run (deterministic seeds,
            // modulo the grid-dims floor which is inactive here).
            assert_eq!(ranks, seq.tucker.ranks());
        }
    }

    #[test]
    fn dist_checkpoint_resume_matches_uninterrupted_run() {
        let spec = SyntheticSpec::new(&[12, 10, 8], &[3, 3, 2], 0.01, 213);
        let cfg = RaConfig::ra_hosi_dt(0.05, &[2, 2, 2])
            .with_seed(19)
            .with_alpha(2.0)
            .with_max_iters(3);
        let mut dir = std::env::temp_dir();
        dir.push(format!("ratucker_dist_ckpt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Fault-free run, writing checkpoints as it goes.
        let policy = CheckpointPolicy::new(&dir);
        let (s, c2, p2) = (spec.clone(), cfg.clone(), policy.clone());
        let reference = Universe::launch(4, move |c| {
            let grid = CartGrid::new(c, &[2, 2, 1]);
            let (x, _) = build_dist::<f64>(&grid, &s);
            let res = dist_ra_hooi_checkpointed(&grid, &x, &c2, &p2);
            (res.rel_error, res.tucker.gather(&grid))
        });
        let sweeps = std::fs::read_dir(&dir).unwrap().count();
        assert!(
            sweeps >= 2,
            "need a multi-sweep run, saw {sweeps} checkpoints"
        );

        // Simulate a crash after sweep 1: drop later checkpoints, resume.
        for sweep in 2..cfg.max_iters {
            let _ = std::fs::remove_file(policy.path_for(sweep));
        }
        let (s, c2) = (spec.clone(), cfg.clone());
        let p2 = policy.clone().resuming();
        let resumed = Universe::launch(4, move |c| {
            let grid = CartGrid::new(c, &[2, 2, 1]);
            let (x, _) = build_dist::<f64>(&grid, &s);
            let res = dist_ra_hooi_checkpointed(&grid, &x, &c2, &p2);
            (res.rel_error, res.tucker.gather(&grid))
        });
        for ((err_a, tk_a), (err_b, tk_b)) in resumed.iter().zip(&reference) {
            assert_eq!(err_a, err_b);
            assert_eq!(tk_a.ranks(), tk_b.ranks());
            assert_eq!(tk_a.core.max_abs_diff(&tk_b.core), 0.0);
            for (ua, ub) in tk_a.factors.iter().zip(&tk_b.factors) {
                assert_eq!(ua.max_abs_diff(ub), 0.0);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dist_ra_run_ending_on_growth_returns_its_last_sweeps_factors() {
        // A tolerance no sweep meets: every sweep ends in a growth step,
        // the last one included.
        let spec = SyntheticSpec::new(&[12, 10, 8], &[3, 3, 2], 0.05, 215);
        let cfg = RaConfig::ra_hosi_dt(1e-9, &[2, 2, 2])
            .with_seed(23)
            .with_max_iters(2);
        let out = Universe::launch(2, move |c| {
            let grid = CartGrid::new(c, &[2, 1, 1]);
            let (x, _) = build_dist::<f64>(&grid, &spec);
            let res = dist_ra_hooi(&grid, &x, &cfg);
            (res.sweep_ranks.clone(), res.tucker.gather(&grid))
        });
        for (sweep_ranks, tucker) in out {
            assert_eq!(sweep_ranks, vec![vec![3, 3, 3], vec![5, 5, 5]]);
            assert_eq!(tucker.ranks(), vec![3, 3, 3]);
            assert!(tucker.factors.iter().all(|u| u.cols() == 3));
        }
    }

    #[test]
    fn dist_ra_undershoot_grows_ranks() {
        let spec = SyntheticSpec::new(&[12, 10, 8], &[3, 3, 2], 0.01, 211);
        let cfg = RaConfig::ra_hosi_dt(0.05, &[2, 2, 2])
            .with_seed(17)
            .with_alpha(2.0)
            .with_max_iters(3);
        let s = spec.clone();
        let out = Universe::launch(2, move |c| {
            let grid = CartGrid::new(c, &[2, 1, 1]);
            let (x, _) = build_dist::<f64>(&grid, &s);
            let res = dist_ra_hooi(&grid, &x, &cfg);
            (res.rel_error, res.sweep_ranks.clone())
        });
        for (err, sweep_ranks) in out {
            assert!(err <= 0.05, "tolerance violated: {err}");
            assert!(sweep_ranks[0] > vec![2, 2, 2] || sweep_ranks.len() > 1);
        }
    }

    /// Runs one LLSV kernel on a grid of one holding `x`; returns the
    /// factor and the phases the kernel charged.
    fn llsv_on_one_rank(
        x: &DenseTensor<f64>,
        llsv: impl Fn(
                &CartGrid,
                &DistTensor<f64>,
                &mut Timings,
                &mut SweepCtx,
            ) -> Result<Matrix<f64>, CommError>
            + Sync,
    ) -> (Matrix<f64>, Timings) {
        let ones = vec![1; x.order()];
        let mut out = Universe::launch(1, |c| {
            let grid = CartGrid::new(c, &ones);
            let y = DistTensor::scatter_from_replicated(&grid, x);
            let mut t = Timings::new();
            let u = llsv(&grid, &y, &mut t, &mut SweepCtx::off()).expect("fault-free LLSV");
            (u, t)
        });
        out.pop().unwrap()
    }

    fn llsv_gram(x: &DenseTensor<f64>, mode: usize, trunc: Truncation) -> (Matrix<f64>, Timings) {
        llsv_on_one_rank(x, |g, y, t, c| try_dist_llsv_gram(g, y, mode, trunc, t, c))
    }

    fn llsv_subspace(
        x: &DenseTensor<f64>,
        mode: usize,
        u_prev: &Matrix<f64>,
        steps: usize,
    ) -> (Matrix<f64>, Timings) {
        llsv_on_one_rank(x, |g, y, t, c| {
            try_dist_llsv_subspace(g, y, mode, u_prev, steps, t, c)
        })
    }

    /// A 3-way tensor with a known mode-0 subspace of dimension 2.
    fn structured_tensor(seed: u64) -> (DenseTensor<f64>, Matrix<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let u: Matrix<f64> = random_orthonormal(8, 2, &mut rng);
        let core: DenseTensor<f64> = normal_tensor([2, 5, 4], &mut rng);
        let x = ttm(&core, 0, &u, Transpose::No);
        (x, u)
    }

    fn subspace_distance(a: &Matrix<f64>, b: &Matrix<f64>) -> f64 {
        // ‖A Aᵀ − B Bᵀ‖_max for orthonormal A, B of equal rank.
        let pa = a.matmul(&a.transpose());
        let pb = b.matmul(&b.transpose());
        pa.max_abs_diff(&pb)
    }

    #[test]
    fn gram_evd_recovers_exact_subspace() {
        let (x, u_true) = structured_tensor(5);
        let (u, t) = llsv_gram(&x, 0, Truncation::Rank(2));
        assert_eq!(u.cols(), 2);
        assert!(u.orthonormality_defect() < 1e-12);
        assert!(subspace_distance(&u, &u_true) < 1e-10);
        assert!(t.flops(Phase::Gram) > 0);
        assert!(t.flops(Phase::Evd) > 0);
    }

    #[test]
    fn error_specified_rank_selection() {
        let (x, _) = structured_tensor(6);
        // Tiny error budget (above round-off, below the spectrum) → the
        // numerical rank of the exactly-rank-2 unfolding.
        let (u, _) = llsv_gram(&x, 0, Truncation::ErrorSq(1e-9));
        assert_eq!(u.cols(), 2);
        // Huge budget → rank 1.
        let (u1, _) = llsv_gram(&x, 0, Truncation::ErrorSq(1e12));
        assert_eq!(u1.cols(), 1);
    }

    #[test]
    fn subspace_iter_recovers_exact_subspace_from_random_start() {
        let (x, u_true) = structured_tensor(7);
        let mut rng = StdRng::seed_from_u64(99);
        let u0: Matrix<f64> = random_orthonormal(8, 2, &mut rng);
        // With an exactly rank-2 unfolding, a single subspace iteration
        // lands in the true subspace (A Aᵀ applied to any full-rank start
        // spans the range of A).
        let (u, t) = llsv_subspace(&x, 0, &u0, 1);
        assert_eq!(u.cols(), 2);
        assert!(u.orthonormality_defect() < 1e-12);
        assert!(subspace_distance(&u, &u_true) < 1e-9);
        assert!(t.flops(Phase::Contract) > 0);
        assert!(t.flops(Phase::Qr) > 0);
    }

    #[test]
    fn subspace_iter_matches_gram_route_on_dominant_subspace() {
        // With noise, one subspace iteration from the Gram answer must stay
        // on the Gram answer (it is an invariant subspace).
        let (mut x, _) = structured_tensor(8);
        let mut rng = StdRng::seed_from_u64(1);
        let noise: DenseTensor<f64> = normal_tensor(x.shape().clone(), &mut rng);
        x.add_scaled(1e-6, &noise);
        let (u_gram, _) = llsv_gram(&x, 0, Truncation::Rank(2));
        let (u_si, _) = llsv_subspace(&x, 0, &u_gram, 1);
        assert!(subspace_distance(&u_gram, &u_si) < 1e-4);
    }

    #[test]
    fn works_on_middle_and_last_modes() {
        let mut rng = StdRng::seed_from_u64(3);
        let u1: Matrix<f64> = random_orthonormal(6, 2, &mut rng);
        let core: DenseTensor<f64> = normal_tensor([4, 2, 5], &mut rng);
        let x = ttm(&core, 1, &u1, Transpose::No);
        let (got, _) = llsv_gram(&x, 1, Truncation::Rank(2));
        assert!(subspace_distance(&got, &u1) < 1e-10);
        let (got_si, _) = llsv_subspace(&x, 1, &got, 1);
        assert!(subspace_distance(&got_si, &u1) < 1e-10);
    }

    #[test]
    fn multi_step_subspace_iteration_improves_noisy_start() {
        // Gapped spectrum with noise: more SI steps from a random start
        // must land at least as close to the dominant subspace.
        let (mut x, u_true) = structured_tensor(9);
        let mut rng = StdRng::seed_from_u64(2);
        let noise: DenseTensor<f64> = normal_tensor(x.shape().clone(), &mut rng);
        x.add_scaled(0.05, &noise);
        let u0: Matrix<f64> = random_orthonormal(8, 2, &mut rng);
        let (one, _) = llsv_subspace(&x, 0, &u0, 1);
        let (many, _) = llsv_subspace(&x, 0, &u0, 4);
        let d1 = subspace_distance(&one, &u_true);
        let d4 = subspace_distance(&many, &u_true);
        // With a wide spectral gap one step already converges to the
        // noise floor; extra steps must stay there (never diverge).
        assert!(d4 <= d1 + 1e-3, "1 step: {d1}, 4 steps: {d4}");
        assert!(d4 < 0.05, "4 steps should converge tightly: {d4}");
    }
}
