//! Rank-adaptive HOOI (Alg. 3: RA-HOSI-DT and friends).
//!
//! Solves the *error-specified* Tucker problem with HOOI: sweep, check
//! `‖G‖² ≥ (1−ε²)‖X‖²`; when satisfied, run the core analysis (eq. 3) and
//! truncate core and factors to the storage-optimal leading subtensor;
//! otherwise grow every rank by the factor α (appending random orthonormal
//! columns to the factors) and sweep again. Any TTM/LLSV strategy pair can
//! back the sweep; the paper's flagship is the dimension-tree + subspace-
//! iteration combination (RA-HOSI-DT).
//!
//! The loop itself is written once, in `crate::recover` (`ra_driver`),
//! behind every distributed entry point; [`ra_hooi`] runs it on a grid
//! of one rank. The steps of the loop that do not depend on how the
//! tensor is laid out live here, next to the configuration they read:
//! the initial rank clamp (`RaConfig::start_ranks`), checkpoint resume
//! (`start_state`), the post-sweep decision (`RaConfig::decide`), the
//! α-growth rule (`RaConfig::grow`, which admission control replays in
//! [`RaConfig::peak_ranks`]) and the factor expansion
//! (`expand_factors`).

use crate::checkpoint::{expansion_rng, RaCheckpointer};
use crate::core_analysis::tucker_storage;
use crate::dist::{dist_ra_hooi, on_one_rank};
use crate::hooi::HooiConfig;
use crate::timings::Timings;
use crate::tucker_tensor::TuckerTensor;
use ratucker_tensor::dense::DenseTensor;
use ratucker_tensor::matrix::Matrix;
use ratucker_tensor::random::{normal_matrix, orthonormalize_columns};
use ratucker_tensor::scalar::Scalar;

/// Highest rung of the graceful-degradation ladder that still makes
/// forward progress. The rungs (see `DESIGN.md` §14):
///
/// * **0** — normal operation: one TTM reduce-scatter per call; one-shot
///   Gram assembly.
/// * **1** — slabbed TTM: the same slab loop as rung 0 at about `2·P_j`
///   slabs instead of one, each charging only its own partial product
///   and packed copy while in flight, so two slabs' worth is held
///   instead of twice the whole partial product. Results are bitwise
///   rung 0's.
/// * **2** — streamed Gram: the unfolding columns are assembled and
///   accumulated into the Gram matrix in batches instead of one
///   full-width scratch matrix.
/// * **3** — rank growth frozen: the expansion step is skipped, capping
///   factor/core memory at the current ranks. Growth is the one step
///   that *increases* the working set; the sweeps still improve the
///   factors at the current ranks.
/// * **> 3** — nothing left to shed: the distributed driver falls back
///   to the checkpoint.
pub(crate) const RUNG_FREEZE: u8 = 3;

/// Configuration of a rank-adaptive run.
#[derive(Clone, Debug)]
pub struct RaConfig {
    /// Relative error tolerance ε.
    pub eps: f64,
    /// Rank growth factor α (the paper typically uses 1.5 or 2).
    pub alpha: f64,
    /// Initial rank estimate (perfect / over / under in the experiments).
    pub initial_ranks: Vec<usize>,
    /// Maximum number of sweeps (the paper caps at 3).
    pub max_iters: usize,
    /// Stop at the first sweep that satisfies the tolerance.
    pub stop_on_threshold: bool,
    /// The sweep engine (TTM/LLSV strategies, seed).
    pub inner: HooiConfig,
}

/// What the rank-adaptive loop does after a sweep (Alg. 3 lines 5–9).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum RaStep {
    /// The tolerance held: truncate core and factors to these ranks
    /// (eq. 3, floored).
    Truncate(Vec<usize>),
    /// The tolerance held, but no rank is cut: rounding left no leading
    /// subtensor that meets it, or the floored eq.-(3) ranks are the
    /// sweep's own. Keep the decomposition as it is.
    Keep,
    /// The tolerance missed: grow to these ranks (capped at the
    /// dimensions, so they may equal the current ranks).
    Grow(Vec<usize>),
    /// The tolerance missed under memory pressure: keep the ranks.
    Freeze,
}

impl RaConfig {
    /// RA-HOSI-DT with the given tolerance and starting ranks — the
    /// paper's flagship configuration.
    pub fn ra_hosi_dt(eps: f64, initial_ranks: &[usize]) -> RaConfig {
        RaConfig {
            eps,
            alpha: 1.5,
            initial_ranks: initial_ranks.to_vec(),
            max_iters: 3,
            stop_on_threshold: false,
            inner: HooiConfig::hosi_dt(),
        }
    }

    /// Builder: growth factor.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Builder: sweep cap.
    pub fn with_max_iters(mut self, it: usize) -> Self {
        self.max_iters = it;
        self
    }

    /// Builder: stop at first satisfying sweep.
    pub fn stopping_on_threshold(mut self) -> Self {
        self.stop_on_threshold = true;
        self
    }

    /// Builder: RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.inner.seed = seed;
        self
    }

    /// Checks the configuration against the tensor dimensions, returning
    /// a description of the first infeasible state found.
    ///
    /// The solvers call this before touching any data so that a bad
    /// configuration surfaces as one clear message at entry instead of an
    /// obscure mid-sweep panic or an infinite growth stall (e.g. a
    /// non-finite α would never enlarge the ranks).
    pub fn validate(&self, dims: &[usize]) -> Result<(), String> {
        if !self.eps.is_finite() || self.eps <= 0.0 || self.eps >= 1.0 {
            return Err(format!(
                "tolerance eps = {} must be a finite value in (0, 1)",
                self.eps
            ));
        }
        if !self.alpha.is_finite() || self.alpha <= 1.0 {
            return Err(format!(
                "growth factor alpha = {} must be finite and > 1",
                self.alpha
            ));
        }
        if self.max_iters == 0 {
            return Err("max_iters = 0: at least one sweep is required".to_string());
        }
        if self.initial_ranks.len() != dims.len() {
            return Err(format!(
                "initial ranks have {} entries but the tensor has {} modes",
                self.initial_ranks.len(),
                dims.len()
            ));
        }
        if let Some(k) = self.initial_ranks.iter().position(|&r| r == 0) {
            return Err(format!(
                "initial rank for mode {k} is 0; ranks must be >= 1"
            ));
        }
        if let Some(k) = dims.iter().position(|&n| n == 0) {
            return Err(format!("tensor dimension for mode {k} is 0"));
        }
        Ok(())
    }

    /// The ranks of the first sweep of a fresh run: the initial guesses
    /// clamped to the tensor dimensions. (A resumed run starts from the
    /// checkpoint's ranks instead; see `start_state`.)
    ///
    /// # Panics
    /// Panics if the configuration is infeasible ([`RaConfig::validate`]).
    pub(crate) fn start_ranks(&self, dims: &[usize]) -> Vec<usize> {
        if let Err(msg) = self.validate(dims) {
            panic!("infeasible rank-adaptive configuration: {msg}");
        }
        self.initial_ranks
            .iter()
            .zip(dims)
            .map(|(&r, &n)| r.min(n).max(1))
            .collect()
    }

    /// One growth step (Alg. 3 line 9): `r ← min(⌈α·r⌉, n)` per mode.
    pub(crate) fn grow(&self, ranks: &[usize], dims: &[usize]) -> Vec<usize> {
        ranks
            .iter()
            .zip(dims)
            .map(|(&r, &n)| (((r as f64) * self.alpha).ceil() as usize).min(n))
            .collect()
    }

    /// The ranks of the last sweep of a run that misses the tolerance at
    /// every sweep: the growth rule `min(⌈α·r⌉, n)` applied
    /// `max_iters − 1` times to the initial ranks clamped to the
    /// dimensions. No sweep of any run with this configuration runs
    /// at larger ranks, so admission control budgets for these.
    ///
    /// # Panics
    /// Panics if the configuration is infeasible ([`RaConfig::validate`]).
    pub fn peak_ranks(&self, dims: &[usize]) -> Vec<usize> {
        let mut ranks = self.start_ranks(dims);
        for _ in 1..self.max_iters {
            ranks = self.grow(&ranks, dims);
        }
        ranks
    }

    /// The post-sweep decision, a pure function of the sweep's outcome:
    /// `met` is the threshold test, `analysis` the eq.-(3) ranks (computed
    /// only when `met`), `floor` the per-mode minimum a truncation may
    /// keep (the run's original grid dimensions, so every block stays
    /// nonempty; all ones on a grid of one), and `rung` the
    /// collectively agreed memory-degradation rung (0 unless a budget
    /// refusal escalated the ladder).
    pub(crate) fn decide(
        &self,
        met: bool,
        analysis: Option<&[usize]>,
        ranks: &[usize],
        dims: &[usize],
        floor: &[usize],
        rung: u8,
    ) -> RaStep {
        match (met, analysis) {
            (true, Some(a)) => {
                let cut: Vec<usize> = a.iter().zip(floor).map(|(&r, &f)| r.max(f)).collect();
                if cut == ranks {
                    RaStep::Keep
                } else {
                    RaStep::Truncate(cut)
                }
            }
            (true, None) => RaStep::Keep,
            (false, _) if rung >= RUNG_FREEZE => RaStep::Freeze,
            (false, _) => RaStep::Grow(self.grow(ranks, dims)),
        }
    }
}

/// The state entering the first sweep a run executes: `(sweep, ranks,
/// factors)`. A fresh run starts at sweep 0 from the clamped initial
/// ranks and seeded random factors; a resumed run starts from the
/// checkpointer's latest state.
///
/// # Panics
/// Panics if the configuration is infeasible, or if the checkpoint lies
/// at or past the sweep cap.
pub(crate) fn start_state<T: Scalar>(
    config: &RaConfig,
    dims: &[usize],
    x_norm_sq: f64,
    ckpt: &mut impl RaCheckpointer<T>,
) -> (usize, Vec<usize>, Vec<Matrix<T>>) {
    let ranks = config.start_ranks(dims);
    match ckpt.resume(config.inner.seed, config.eps, dims, x_norm_sq) {
        Some(ck) => {
            assert!(
                ck.sweep < config.max_iters,
                "checkpoint is at sweep {} but this run caps at {} sweeps",
                ck.sweep,
                config.max_iters
            );
            (ck.sweep, ck.ranks, ck.factors)
        }
        None => {
            let factors = crate::hooi::random_init::<T>(dims, &ranks, config.inner.seed);
            (0, ranks, factors)
        }
    }
}

/// Widens every factor to `ranks[k]` columns by appending random columns
/// orthonormalized against the existing basis. The columns come from
/// [`expansion_rng`]`(seed, sweep)` in mode order, and a mode already at
/// its rank draws none, so every rank of a grid, a retried sweep and a
/// resumed run all append the same columns.
pub(crate) fn expand_factors<T: Scalar>(
    factors: &mut [Matrix<T>],
    ranks: &[usize],
    seed: u64,
    sweep: usize,
) {
    let _mem = ratucker_mem::with_phase(ratucker_mem::MemPhase::Factors);
    let mut rng = expansion_rng(seed, sweep);
    for (u, &r) in factors.iter_mut().zip(ranks) {
        if r > u.cols() {
            let extra = normal_matrix::<T, _>(u.rows(), r - u.cols(), &mut rng);
            let mut ext = u.hcat(&extra);
            orthonormalize_columns(&mut ext, u.cols());
            *u = ext;
        }
    }
}

/// One sweep of the rank-adaptive loop.
#[derive(Clone, Debug)]
pub struct RaIterInfo {
    /// Ranks the sweep ran at.
    pub ranks_in: Vec<usize>,
    /// Ranks after the post-sweep action (truncation or growth).
    pub ranks_out: Vec<usize>,
    /// Relative error *after* the post-sweep action.
    pub rel_error: f64,
    /// Whether `‖G‖² ≥ (1−ε²)‖X‖²` held at sweep end.
    pub met_threshold: bool,
    /// Whether the sweep ended with a core-analysis truncation that cut
    /// the ranks (an analysis that keeps the sweep's ranks truncates
    /// nothing).
    pub truncated: bool,
    /// Relative size of the decomposition after this sweep.
    pub relative_size: f64,
    /// Phase breakdown of the sweep.
    pub timings: Timings,
}

/// Result of a rank-adaptive run.
#[derive(Clone, Debug)]
pub struct RaResult<T: Scalar> {
    /// The final (truncated, if the threshold was met) decomposition.
    pub tucker: TuckerTensor<T>,
    /// Per-sweep history.
    pub iterations: Vec<RaIterInfo>,
    /// First sweep index (0-based) meeting the tolerance, if any.
    pub met_at: Option<usize>,
    /// Total phase breakdown.
    pub timings: Timings,
    /// Final relative error.
    pub rel_error: f64,
}

/// Runs rank-adaptive HOOI (Alg. 3).
///
/// This is [`crate::dist::dist_ra_hooi`] on a one-rank universe over an
/// all-ones grid: each call spawns one thread and copies `x` once into
/// the rank's block.
///
/// # Panics
/// Panics if the configuration is infeasible ([`RaConfig::validate`]).
pub fn ra_hooi<T: Scalar>(x: &DenseTensor<T>, config: &RaConfig) -> RaResult<T> {
    let dims = x.shape().dims();
    let mut ranks_in = config.start_ranks(dims);
    let (res, tucker) = on_one_rank(x, |grid, xd| dist_ra_hooi(grid, xd, config));
    let full: usize = dims.iter().product();
    let sweeps = res.sweep_ranks.into_iter().zip(res.sweep_errors);
    let iterations: Vec<RaIterInfo> = sweeps
        .zip(res.sweep_met.into_iter().zip(res.sweep_timings))
        .map(|((ranks_out, rel_error), (met_threshold, timings))| {
            let ranks_in = std::mem::replace(&mut ranks_in, ranks_out.clone());
            // A met threshold keeps or truncates the sweep's decomposition;
            // a missed one returns it as it is, whatever the next ranks.
            let kept = if met_threshold { &ranks_out } else { &ranks_in };
            RaIterInfo {
                truncated: met_threshold && ranks_out != ranks_in,
                relative_size: 1.0 / (full as f64 / tucker_storage(kept, dims) as f64),
                ranks_in,
                ranks_out,
                rel_error,
                met_threshold,
                timings,
            }
        })
        .collect();
    RaResult {
        tucker,
        met_at: iterations.iter().position(|i| i.met_threshold),
        iterations,
        timings: res.timings,
        rel_error: res.rel_error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointPolicy;
    use crate::dist::{dist_ra_hooi_checkpointed, DistRunResult};
    use crate::synthetic::SyntheticSpec;
    use crate::timings::Phase;

    fn noisy_tensor(seed: u64) -> DenseTensor<f64> {
        SyntheticSpec::new(&[14, 12, 10], &[4, 3, 3], 0.02, seed).build()
    }

    #[test]
    fn validate_rejects_infeasible_configs() {
        let dims = [14usize, 12, 10];
        let good = RaConfig::ra_hosi_dt(0.1, &[4, 3, 3]);
        assert!(good.validate(&dims).is_ok());

        let bad_eps = RaConfig {
            eps: 0.0,
            ..good.clone()
        };
        assert!(bad_eps.validate(&dims).unwrap_err().contains("eps"));
        let nan_eps = RaConfig {
            eps: f64::NAN,
            ..good.clone()
        };
        assert!(nan_eps.validate(&dims).unwrap_err().contains("eps"));

        let bad_alpha = good.clone().with_alpha(1.0);
        assert!(bad_alpha.validate(&dims).unwrap_err().contains("alpha"));
        let inf_alpha = good.clone().with_alpha(f64::INFINITY);
        assert!(inf_alpha.validate(&dims).unwrap_err().contains("alpha"));

        let no_sweeps = good.clone().with_max_iters(0);
        assert!(no_sweeps.validate(&dims).unwrap_err().contains("max_iters"));

        let wrong_order = RaConfig::ra_hosi_dt(0.1, &[4, 3]);
        assert!(wrong_order.validate(&dims).unwrap_err().contains("modes"));

        let zero_rank = RaConfig::ra_hosi_dt(0.1, &[4, 0, 3]);
        assert!(zero_rank.validate(&dims).unwrap_err().contains("mode 1"));
    }

    #[test]
    #[should_panic(expected = "infeasible rank-adaptive configuration")]
    fn infeasible_config_is_rejected_at_entry() {
        let x = noisy_tensor(71);
        // α = 1 would stall rank growth forever; reject before sweeping.
        let cfg = RaConfig::ra_hosi_dt(0.1, &[4, 3, 3]).with_alpha(1.0);
        let _ = ra_hooi(&x, &cfg);
    }

    #[test]
    fn peak_ranks_are_the_ranks_of_the_last_sweep_of_an_always_growing_run() {
        let x = noisy_tensor(59);
        let dims = [14usize, 12, 10];
        // A tolerance no sweep meets: the ranks grow after every sweep.
        let cfg = RaConfig::ra_hosi_dt(1e-9, &[3, 3, 3]).with_seed(10);
        let res = ra_hooi(&x, &cfg);
        assert!(res.iterations.iter().all(|i| !i.met_threshold));
        let last = &res.iterations.last().unwrap().ranks_in;
        assert_eq!(cfg.peak_ranks(&dims), *last);
        // ⌈⌈3·1.5⌉·1.5⌉ = 8, where ⌈3·1.5²⌉ = 7 under-counts.
        assert_eq!(*last, vec![8, 8, 8]);
        // Growth stops at the dimensions.
        let capped = RaConfig::ra_hosi_dt(0.1, &[3, 3, 3]).with_max_iters(9);
        assert_eq!(capped.peak_ranks(&dims), dims.to_vec());
    }

    #[test]
    fn decision_truncates_to_the_analysis_floored() {
        let cfg = RaConfig::ra_hosi_dt(0.1, &[4, 4, 4]);
        let step = cfg.decide(
            true,
            Some(&[1, 3, 2]),
            &[4, 4, 4],
            &[9, 9, 9],
            &[2, 2, 2],
            0,
        );
        assert_eq!(step, RaStep::Truncate(vec![2, 3, 2]));
        // A met threshold truncates even at the freeze rung.
        let frozen = cfg.decide(
            true,
            Some(&[3, 3, 3]),
            &[4, 4, 4],
            &[9, 9, 9],
            &[1, 1, 1],
            3,
        );
        assert_eq!(frozen, RaStep::Truncate(vec![3, 3, 3]));
    }

    #[test]
    fn decision_keeps_the_decomposition_when_no_prefix_meets_the_threshold() {
        let cfg = RaConfig::ra_hosi_dt(0.1, &[4, 4, 4]);
        let step = cfg.decide(true, None, &[4, 4, 4], &[9, 9, 9], &[1, 1, 1], 0);
        assert_eq!(step, RaStep::Keep);
    }

    #[test]
    fn decision_keeps_when_the_analysis_returns_the_sweep_ranks() {
        let cfg = RaConfig::ra_hosi_dt(0.1, &[4, 4, 4]);
        let same = cfg.decide(
            true,
            Some(&[4, 3, 4]),
            &[4, 3, 4],
            &[9, 9, 9],
            &[1, 1, 1],
            0,
        );
        assert_eq!(same, RaStep::Keep);
        // Ranks the floor lifts back to the sweep's cut nothing either.
        let floored = cfg.decide(
            true,
            Some(&[1, 3, 2]),
            &[2, 3, 2],
            &[9, 9, 9],
            &[2, 2, 2],
            0,
        );
        assert_eq!(floored, RaStep::Keep);
        // One cut mode is enough to truncate.
        let one_cut = cfg.decide(
            true,
            Some(&[4, 2, 4]),
            &[4, 3, 4],
            &[9, 9, 9],
            &[1, 1, 1],
            0,
        );
        assert_eq!(one_cut, RaStep::Truncate(vec![4, 2, 4]));
    }

    #[test]
    fn decision_grows_by_alpha_capped_at_the_dimensions() {
        let cfg = RaConfig::ra_hosi_dt(0.1, &[4, 4, 4]);
        let step = cfg.decide(false, None, &[4, 4, 3], &[5, 9, 9], &[1, 1, 1], 2);
        assert_eq!(step, RaStep::Grow(vec![5, 6, 5]));
        let at_cap = cfg.decide(false, None, &[5, 9, 9], &[5, 9, 9], &[1, 1, 1], 0);
        assert_eq!(at_cap, RaStep::Grow(vec![5, 9, 9]));
    }

    #[test]
    fn decision_freezes_growth_from_the_freeze_rung_up() {
        let cfg = RaConfig::ra_hosi_dt(0.1, &[4, 4, 4]);
        for rung in [RUNG_FREEZE, RUNG_FREEZE + 1] {
            let step = cfg.decide(false, None, &[4, 4, 4], &[9, 9, 9], &[1, 1, 1], rung);
            assert_eq!(step, RaStep::Freeze, "rung {rung}");
        }
    }

    #[test]
    fn expansion_draws_columns_only_for_modes_that_grow() {
        let dims = [6usize, 5, 4];
        let start = crate::hooi::random_init::<f64>(&dims, &[2, 2, 2], 5);
        // Ranks already reached: nothing is drawn, nothing changes.
        let mut same = start.clone();
        expand_factors(&mut same, &[2, 2, 2], 5, 1);
        for (a, b) in same.iter().zip(&start) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
        // Only mode 1 grows, so it takes the sweep RNG's first draws:
        // the same columns as if it were the only factor.
        let mut grown = start.clone();
        expand_factors(&mut grown, &[2, 4, 2], 5, 1);
        let mut alone = vec![start[1].clone()];
        expand_factors(&mut alone, &[4], 5, 1);
        assert_eq!(grown[1].cols(), 4);
        assert_eq!(grown[1].as_slice(), alone[0].as_slice());
        assert_eq!(grown[0].as_slice(), start[0].as_slice());
        assert_eq!(grown[2].as_slice(), start[2].as_slice());
    }

    #[test]
    fn perfect_start_meets_tolerance_in_one_sweep() {
        let x = noisy_tensor(71);
        let cfg = RaConfig::ra_hosi_dt(0.1, &[4, 3, 3]).with_seed(1);
        let res = ra_hooi(&x, &cfg);
        assert_eq!(
            res.met_at,
            Some(0),
            "history: {:?}",
            res.iterations
                .iter()
                .map(|i| i.rel_error)
                .collect::<Vec<_>>()
        );
        assert!(res.rel_error <= 0.1, "rel_error {}", res.rel_error);
    }

    #[test]
    fn overshoot_truncates_below_start() {
        let x = noisy_tensor(73);
        // 25% overshoot, as in §4.2.
        let cfg = RaConfig::ra_hosi_dt(0.1, &[5, 4, 4])
            .with_seed(2)
            .with_max_iters(1);
        let res = ra_hooi(&x, &cfg);
        assert_eq!(res.met_at, Some(0));
        let r = res.tucker.ranks();
        assert!(
            r.iter().zip(&[5usize, 4, 4]).all(|(a, b)| a <= b),
            "ranks {r:?}"
        );
        assert!(res.rel_error <= 0.1);
    }

    #[test]
    fn undershoot_grows_then_meets() {
        let x = noisy_tensor(79);
        // Start well below the true ranks with a tight tolerance: the
        // first sweep cannot meet it, so ranks must grow.
        let cfg = RaConfig::ra_hosi_dt(0.03, &[1, 1, 1])
            .with_seed(3)
            .with_alpha(2.0)
            .with_max_iters(4);
        let res = ra_hooi(&x, &cfg);
        assert!(res.iterations[0].ranks_out > res.iterations[0].ranks_in);
        assert!(
            res.met_at.is_some(),
            "never met: {:?}",
            res.iterations
                .iter()
                .map(|i| (i.ranks_in.clone(), i.rel_error))
                .collect::<Vec<_>>()
        );
        assert!(res.rel_error <= 0.03);
    }

    #[test]
    fn growth_caps_at_dimensions() {
        let x = SyntheticSpec::new(&[4, 4], &[4, 4], 0.5, 83).build::<f64>();
        // Impossible tolerance forces growth to the caps.
        let cfg = RaConfig::ra_hosi_dt(1e-9, &[2, 2])
            .with_seed(4)
            .with_alpha(3.0)
            .with_max_iters(3);
        let res = ra_hooi(&x, &cfg);
        let last = res.iterations.last().unwrap();
        assert!(last.ranks_in.iter().all(|&r| r <= 4));
    }

    #[test]
    fn relative_size_decreases_when_truncating_overshoot() {
        let x = noisy_tensor(89);
        let cfg = RaConfig::ra_hosi_dt(0.1, &[6, 5, 5])
            .with_seed(5)
            .with_max_iters(2);
        let res = ra_hooi(&x, &cfg);
        let full_size = crate::core_analysis::tucker_storage(&[6, 5, 5], &[14, 12, 10]) as f64
            / (14.0 * 12.0 * 10.0);
        assert!(
            res.iterations[0].relative_size <= full_size,
            "size {} vs start {}",
            res.iterations[0].relative_size,
            full_size
        );
    }

    #[test]
    fn stop_on_threshold_halts_early() {
        let x = noisy_tensor(97);
        // A loose tolerance the very first sweep is certain to satisfy.
        let cfg = RaConfig::ra_hosi_dt(0.3, &[4, 3, 3])
            .with_seed(6)
            .with_max_iters(3)
            .stopping_on_threshold();
        let res = ra_hooi(&x, &cfg);
        assert_eq!(res.iterations.len(), 1);
    }

    #[test]
    fn ra_works_with_all_variants() {
        let x = noisy_tensor(101);
        for inner in [
            HooiConfig::hooi(),
            HooiConfig::hooi_dt(),
            HooiConfig::hosi(),
            HooiConfig::hosi_dt(),
        ] {
            let cfg = RaConfig {
                eps: 0.1,
                alpha: 1.5,
                initial_ranks: vec![4, 3, 3],
                max_iters: 2,
                stop_on_threshold: false,
                inner: inner.with_seed(7),
            };
            let res = ra_hooi(&x, &cfg);
            assert!(
                res.rel_error <= 0.1,
                "{} failed: {}",
                cfg.inner.variant_name(),
                res.rel_error
            );
        }
    }

    #[test]
    fn core_analysis_time_is_recorded_when_truncating() {
        let x = noisy_tensor(103);
        let cfg = RaConfig::ra_hosi_dt(0.15, &[5, 4, 4])
            .with_seed(8)
            .with_max_iters(1);
        let res = ra_hooi(&x, &cfg);
        assert!(res.iterations[0].truncated);
        assert!(res.timings.flops(Phase::CoreAnalysis) > 0);
    }

    #[test]
    fn meeting_the_threshold_at_the_sweep_ranks_reports_no_truncation() {
        // Exact multilinear rank [3, 3, 3]: one sweep at those ranks
        // meets a tight ε, and every smaller prefix of the core misses
        // it, so the core analysis keeps the ranks the sweep ran at.
        let x = SyntheticSpec::new(&[14, 12, 10], &[3, 3, 3], 0.0, 5).build::<f64>();
        let cfg = RaConfig::ra_hosi_dt(1e-3, &[3, 3, 3])
            .with_seed(4)
            .with_max_iters(1);
        let it = &ra_hooi(&x, &cfg).iterations[0];
        assert!(it.met_threshold, "rel_error {}", it.rel_error);
        assert_eq!(it.ranks_out, it.ranks_in);
        assert!(!it.truncated);
    }

    /// The checkpointed driver on a grid of one, with the core gathered.
    fn checkpointed(
        x: &DenseTensor<f64>,
        cfg: &RaConfig,
        policy: &CheckpointPolicy,
    ) -> (DistRunResult<f64>, TuckerTensor<f64>) {
        on_one_rank(x, |grid, xd| {
            dist_ra_hooi_checkpointed(grid, xd, cfg, policy)
        })
    }

    fn ckpt_dir(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ratucker_ra_ckpt_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn checkpointed_run_equals_plain_run() {
        let x = noisy_tensor(113);
        let cfg = RaConfig::ra_hosi_dt(0.03, &[1, 1, 1])
            .with_seed(21)
            .with_alpha(2.0)
            .with_max_iters(4);
        let reference = ra_hooi(&x, &cfg);
        let dir = ckpt_dir("plain");
        let policy = CheckpointPolicy::new(&dir);
        let (checked, _) = checkpointed(&x, &cfg, &policy);
        assert_eq!(checked.rel_error, reference.rel_error);
        for (a, b) in checked.tucker.factors.iter().zip(&reference.tucker.factors) {
            assert_eq!(a.max_abs_diff(b), 0.0);
        }
        // One checkpoint per executed sweep.
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            reference.iterations.len()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_resume_reproduces_uninterrupted_run_bit_for_bit() {
        let x = noisy_tensor(113);
        let cfg = RaConfig::ra_hosi_dt(0.03, &[1, 1, 1])
            .with_seed(21)
            .with_alpha(2.0)
            .with_max_iters(4);
        let reference = ra_hooi(&x, &cfg);
        assert!(
            reference.iterations.len() >= 3,
            "test needs a multi-sweep run, got {}",
            reference.iterations.len()
        );
        let dir = ckpt_dir("resume");
        let policy = CheckpointPolicy::new(&dir);
        let _ = checkpointed(&x, &cfg, &policy);
        // Simulate a crash during sweep 2: throw away everything the run
        // wrote after the state entering sweep 1.
        for sweep in 2..cfg.max_iters {
            let _ = std::fs::remove_file(policy.path_for(sweep));
        }
        let (resumed, resumed_tucker) = checkpointed(&x, &cfg, &policy.clone().resuming());
        // Only sweeps 1.. re-ran, yet the result is identical.
        assert_eq!(resumed.sweep_errors.len(), reference.iterations.len() - 1);
        assert_eq!(resumed.rel_error, reference.rel_error);
        assert_eq!(resumed_tucker.ranks(), reference.tucker.ranks());
        assert_eq!(
            resumed_tucker.core.max_abs_diff(&reference.tucker.core),
            0.0
        );
        for (a, b) in resumed_tucker.factors.iter().zip(&reference.tucker.factors) {
            assert_eq!(a.max_abs_diff(b), 0.0);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "refusing to resume")]
    fn resume_rejects_mismatched_seed() {
        let x = noisy_tensor(127);
        let cfg = RaConfig::ra_hosi_dt(0.1, &[4, 3, 3])
            .with_seed(30)
            .with_max_iters(1);
        let dir = ckpt_dir("mismatch");
        let policy = CheckpointPolicy::new(&dir);
        let _ = checkpointed(&x, &cfg, &policy);
        let other = cfg.clone().with_seed(31);
        // Leak the dir on purpose: the panic unwinds before cleanup, and
        // the unique name keeps reruns isolated. The rank's panic is
        // re-raised with its message.
        let _ = checkpointed(&x, &other, &policy.resuming());
    }

    #[test]
    fn reconstruction_error_matches_reported() {
        let x = noisy_tensor(107);
        let cfg = RaConfig::ra_hosi_dt(0.08, &[4, 3, 3]).with_seed(9);
        let res = ra_hooi(&x, &cfg);
        let direct = res.tucker.reconstruct().rel_error(&x);
        assert!(
            (direct - res.rel_error).abs() < 1e-8,
            "direct {direct} reported {}",
            res.rel_error
        );
    }
}
