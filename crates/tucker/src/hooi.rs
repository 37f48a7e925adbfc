//! Higher Order Orthogonal Iteration (Alg. 2) and its optimized variants.
//!
//! The four variants of the paper are the cross product of two choices:
//!
//! | variant  | multi-TTM            | LLSV               |
//! |----------|----------------------|--------------------|
//! | HOOI     | direct (Alg. 2)      | Gram + EVD         |
//! | HOOI-DT  | dimension tree (Alg. 4) | Gram + EVD      |
//! | HOSI     | direct               | subspace iteration (Alg. 5) |
//! | HOSI-DT  | dimension tree       | subspace iteration |
//!
//! The dimension tree halves the mode set at each level and memoizes the
//! partial multi-TTM products, cutting the TTM flops from `2d·rn^d/P` to
//! `4·rn^d/P` (§3.3). Subspace iteration replaces the `n×n` Gram + `O(n³)`
//! EVD with two thin products and an `n×r` QRCP (§3.4).
//!
//! The sweep is written once, in `crate::dist` (`try_dist_sweep`);
//! [`hooi`] and [`hooi_with_init`] run it on a grid of one rank.

use crate::dist::{on_one_rank, try_dist_hooi};
use crate::timings::Timings;
use crate::tucker_tensor::TuckerTensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ratucker_tensor::dense::DenseTensor;
use ratucker_tensor::matrix::Matrix;
use ratucker_tensor::random::random_orthonormal;
use ratucker_tensor::scalar::Scalar;

/// Multi-TTM evaluation strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TtmStrategy {
    /// Recompute the all-but-one product from scratch per subiteration.
    Direct,
    /// Dimension-tree memoization (Alg. 4).
    DimTree,
}

/// LLSV evaluation strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LlsvStrategy {
    /// Gram matrix + symmetric EVD.
    GramEvd,
    /// One step of subspace iteration seeded by the previous factor.
    SubspaceIter,
}

/// Configuration of a fixed-rank HOOI run.
#[derive(Clone, Debug)]
pub struct HooiConfig {
    /// Multi-TTM strategy.
    pub ttm: TtmStrategy,
    /// LLSV strategy.
    pub llsv: LlsvStrategy,
    /// Maximum number of full sweeps.
    pub max_iters: usize,
    /// Optional early stop: halt when the relative error improves by less
    /// than this fraction between sweeps.
    pub tol: Option<f64>,
    /// Seed for the random initial factors.
    pub seed: u64,
    /// Subspace-iteration steps per subiteration (paper default: 1).
    pub si_steps: usize,
}

impl HooiConfig {
    /// Paper variant HOOI: direct TTM, Gram+EVD.
    pub fn hooi() -> Self {
        Self::variant(TtmStrategy::Direct, LlsvStrategy::GramEvd)
    }
    /// Paper variant HOOI-DT: dimension tree, Gram+EVD.
    pub fn hooi_dt() -> Self {
        Self::variant(TtmStrategy::DimTree, LlsvStrategy::GramEvd)
    }
    /// Paper variant HOSI: direct TTM, subspace iteration.
    pub fn hosi() -> Self {
        Self::variant(TtmStrategy::Direct, LlsvStrategy::SubspaceIter)
    }
    /// Paper variant HOSI-DT: dimension tree, subspace iteration.
    pub fn hosi_dt() -> Self {
        Self::variant(TtmStrategy::DimTree, LlsvStrategy::SubspaceIter)
    }

    fn variant(ttm: TtmStrategy, llsv: LlsvStrategy) -> Self {
        HooiConfig {
            ttm,
            llsv,
            max_iters: 2,
            tol: None,
            seed: 0,
            si_steps: 1,
        }
    }

    /// Builder: number of sweeps.
    pub fn with_max_iters(mut self, it: usize) -> Self {
        self.max_iters = it;
        self
    }

    /// Builder: RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: relative-improvement stopping tolerance.
    pub fn with_tol(mut self, tol: f64) -> Self {
        self.tol = Some(tol);
        self
    }

    /// Builder: subspace-iteration steps per subiteration.
    pub fn with_si_steps(mut self, steps: usize) -> Self {
        self.si_steps = steps;
        self
    }

    /// The paper's name for this variant.
    pub fn variant_name(&self) -> &'static str {
        match (self.ttm, self.llsv) {
            (TtmStrategy::Direct, LlsvStrategy::GramEvd) => "HOOI",
            (TtmStrategy::DimTree, LlsvStrategy::GramEvd) => "HOOI-DT",
            (TtmStrategy::Direct, LlsvStrategy::SubspaceIter) => "HOSI",
            (TtmStrategy::DimTree, LlsvStrategy::SubspaceIter) => "HOSI-DT",
        }
    }
}

/// Per-sweep record.
#[derive(Clone, Debug)]
pub struct SweepInfo {
    /// Relative error at sweep end (core-norm identity).
    pub rel_error: f64,
}

/// Result of a fixed-rank HOOI run.
#[derive(Clone, Debug)]
pub struct HooiResult<T: Scalar> {
    /// The computed decomposition.
    pub tucker: TuckerTensor<T>,
    /// Per-sweep history.
    pub sweeps: Vec<SweepInfo>,
    /// Total breakdown across sweeps (plus initialization).
    pub timings: Timings,
}

impl<T: Scalar> HooiResult<T> {
    /// Final relative error.
    pub fn rel_error(&self) -> f64 {
        self.sweeps.last().map(|s| s.rel_error).unwrap_or(1.0)
    }
}

/// Random orthonormal initial factors (the paper's initialization).
pub fn random_init<T: Scalar>(dims: &[usize], ranks: &[usize], seed: u64) -> Vec<Matrix<T>> {
    let mut rng = StdRng::seed_from_u64(seed);
    dims.iter()
        .zip(ranks)
        .map(|(&n, &r)| {
            assert!(r <= n, "rank {r} exceeds dimension {n}");
            random_orthonormal(n, r, &mut rng)
        })
        .collect()
}

/// Runs fixed-rank HOOI (any variant) from random initial factors.
///
/// This is [`crate::dist::dist_hooi`] on one rank (see
/// [`hooi_with_init`] for the cost).
pub fn hooi<T: Scalar>(x: &DenseTensor<T>, ranks: &[usize], config: &HooiConfig) -> HooiResult<T> {
    let factors = random_init(x.shape().dims(), ranks, config.seed);
    hooi_with_init(x, ranks, factors, config)
}

/// Runs fixed-rank HOOI from the given initial factors.
///
/// The sweeps are the distributed ones (`crate::dist`), run on a
/// one-rank universe over an all-ones grid: each call spawns one thread
/// and copies `x` once into the rank's block.
pub fn hooi_with_init<T: Scalar>(
    x: &DenseTensor<T>,
    ranks: &[usize],
    factors: Vec<Matrix<T>>,
    config: &HooiConfig,
) -> HooiResult<T> {
    assert_eq!(ranks.len(), x.order());
    let (res, tucker) = on_one_rank(x, |grid, xd| {
        try_dist_hooi(grid, xd, ranks, &factors, config).unwrap_or_else(|e| panic!("{e}"))
    });
    HooiResult {
        tucker,
        sweeps: res
            .sweep_errors
            .into_iter()
            .map(|rel_error| SweepInfo { rel_error })
            .collect(),
        timings: res.timings,
    }
}

/// One event of the dimension-tree traversal (used to render the paper's
/// Fig. 1 and to reason about the TTM schedule without running a sweep).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DimTreeEvent {
    /// A TTM in `mode`, performed at a node whose not-yet-multiplied mode
    /// set (after this TTM) is `remaining`.
    Ttm {
        /// The mode being multiplied.
        mode: usize,
        /// Modes still unmultiplied after this TTM.
        remaining: Vec<usize>,
    },
    /// A leaf: the factor of `mode` is updated by LLSV.
    Leaf {
        /// The mode whose factor is updated.
        mode: usize,
        /// True at the mode `d−1` leaf, where the core is also computed.
        computes_core: bool,
    },
}

/// The TTM/LLSV schedule of one dimension-tree sweep for an order-`d`
/// tensor, in execution order: the order of the distributed sweep's
/// recursion (`try_dist_dimtree_rec`), which a traced sweep checks.
pub fn dimtree_schedule(d: usize) -> Vec<DimTreeEvent> {
    fn rec(modes: &[usize], d: usize, out: &mut Vec<DimTreeEvent>) {
        if modes.len() == 1 {
            out.push(DimTreeEvent::Leaf {
                mode: modes[0],
                computes_core: modes[0] == d - 1,
            });
            return;
        }
        let mid = modes.len() / 2;
        let (lo, hi) = modes.split_at(mid);
        let mut remaining: Vec<usize> = modes.to_vec();
        for &m in hi.iter().rev() {
            remaining.retain(|&x| x != m);
            out.push(DimTreeEvent::Ttm {
                mode: m,
                remaining: remaining.clone(),
            });
        }
        rec(lo, d, out);
        let mut remaining: Vec<usize> = modes.to_vec();
        for &m in lo.iter() {
            remaining.retain(|&x| x != m);
            out.push(DimTreeEvent::Ttm {
                mode: m,
                remaining: remaining.clone(),
            });
        }
        rec(hi, d, out);
    }
    let modes: Vec<usize> = (0..d).collect();
    let mut out = Vec::new();
    rec(&modes, d, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticSpec;
    use crate::timings::Phase;

    #[test]
    fn schedule_is_the_ttm_order_of_a_traced_dimtree_sweep() {
        for d in 2..=6 {
            let (dims, ranks) = (vec![4; d], vec![2; d]);
            let x = SyntheticSpec::new(&dims, &ranks, 0.01, 70 + d as u64).build::<f64>();
            let session = ratucker_obs::TraceSession::start();
            let _ = hooi(&x, &ranks, &HooiConfig::hooi_dt().with_max_iters(1));
            let traced: Vec<Option<usize>> = session
                .finish()
                .events
                .iter()
                .filter(|e| e.phase == "TTM")
                .map(|e| e.mode)
                .collect();
            // The tree's TTMs, then the mode-(d−1) leaf's core TTM.
            let mut expected: Vec<Option<usize>> = dimtree_schedule(d)
                .iter()
                .filter_map(|e| match e {
                    DimTreeEvent::Ttm { mode, .. } => Some(Some(*mode)),
                    DimTreeEvent::Leaf { .. } => None,
                })
                .collect();
            expected.push(Some(d - 1));
            assert_eq!(traced, expected, "d={d}");
        }
    }

    #[test]
    fn schedule_leaves_cover_all_modes_in_order() {
        for d in 2..=6 {
            let sched = dimtree_schedule(d);
            let leaves: Vec<usize> = sched
                .iter()
                .filter_map(|e| match e {
                    DimTreeEvent::Leaf { mode, .. } => Some(*mode),
                    _ => None,
                })
                .collect();
            assert_eq!(leaves, (0..d).collect::<Vec<_>>(), "d={d}");
            // Exactly one leaf computes the core: the last one.
            let core_leaves: Vec<&DimTreeEvent> = sched
                .iter()
                .filter(|e| {
                    matches!(
                        e,
                        DimTreeEvent::Leaf {
                            computes_core: true,
                            ..
                        }
                    )
                })
                .collect();
            assert_eq!(core_leaves.len(), 1);
            assert!(matches!(
                sched.last().unwrap(),
                DimTreeEvent::Leaf { mode, computes_core: true } if *mode == d - 1
            ));
        }
    }

    #[test]
    fn schedule_ttm_count_is_memoized() {
        // Direct: d·(d−1) TTMs per sweep. Tree for d=6 should do far fewer.
        let sched = dimtree_schedule(6);
        let ttms = sched
            .iter()
            .filter(|e| matches!(e, DimTreeEvent::Ttm { .. }))
            .count();
        assert!(ttms < 6 * 5, "tree does {ttms} TTMs");
        // Fig. 1: the order-6 tree performs 6 TTMs off the root (3 each
        // branch) plus the deeper levels.
        assert!(ttms >= 6);
    }

    #[test]
    fn schedule_root_branches_match_paper_order() {
        // Root of the d=6 tree: high modes multiplied first, from mode 5
        // (paper's "left branch ... in reverse order, mode d first").
        let sched = dimtree_schedule(6);
        match &sched[0] {
            DimTreeEvent::Ttm { mode, remaining } => {
                assert_eq!(*mode, 5);
                assert_eq!(remaining, &vec![0, 1, 2, 3, 4]);
            }
            other => panic!("unexpected first event {other:?}"),
        }
    }

    fn all_variants() -> [HooiConfig; 4] {
        [
            HooiConfig::hooi(),
            HooiConfig::hooi_dt(),
            HooiConfig::hosi(),
            HooiConfig::hosi_dt(),
        ]
    }

    #[test]
    fn all_variants_recover_noiseless_tucker() {
        let spec = SyntheticSpec::new(&[10, 9, 8], &[3, 2, 3], 0.0, 31);
        let x = spec.build::<f64>();
        for cfg in all_variants() {
            let res = hooi(&x, &[3, 2, 3], &cfg.with_seed(5).with_max_iters(2));
            assert!(
                res.rel_error() < 1e-6,
                "{:?}: rel_error {}",
                res.tucker.ranks(),
                res.rel_error()
            );
            assert!(res.tucker.orthonormality_defect() < 1e-9);
        }
    }

    #[test]
    fn dimension_tree_matches_direct_error() {
        // DT reorders subiterations but must land at equivalent quality.
        let spec = SyntheticSpec::new(&[12, 10, 9, 8], &[2, 3, 2, 2], 0.02, 37);
        let x = spec.build::<f64>();
        let direct = hooi(
            &x,
            &[2, 3, 2, 2],
            &HooiConfig::hooi().with_seed(7).with_max_iters(2),
        );
        let tree = hooi(
            &x,
            &[2, 3, 2, 2],
            &HooiConfig::hooi_dt().with_seed(7).with_max_iters(2),
        );
        assert!(
            (direct.rel_error() - tree.rel_error()).abs() < 1e-3,
            "direct {} tree {}",
            direct.rel_error(),
            tree.rel_error()
        );
    }

    #[test]
    fn dimension_tree_uses_fewer_ttm_flops() {
        let spec = SyntheticSpec::new(&[14, 14, 14, 14], &[3, 3, 3, 3], 0.01, 41);
        let x = spec.build::<f64>();
        let direct = hooi(&x, &[3, 3, 3, 3], &HooiConfig::hooi().with_max_iters(1));
        let tree = hooi(&x, &[3, 3, 3, 3], &HooiConfig::hooi_dt().with_max_iters(1));
        let fd = direct.timings.flops(Phase::Ttm);
        let ft = tree.timings.flops(Phase::Ttm);
        // Theory: direct ≈ 2d·rn^d, tree ≈ 4·rn^d → ratio ≈ d/2 = 2 for d=4.
        assert!(
            fd as f64 / ft as f64 > 1.4,
            "direct {fd} tree {ft} (ratio {})",
            fd as f64 / ft as f64
        );
    }

    #[test]
    fn subspace_iteration_avoids_evd() {
        let spec = SyntheticSpec::new(&[10, 10, 10], &[2, 2, 2], 0.01, 43);
        let x = spec.build::<f64>();
        let hosi = hooi(&x, &[2, 2, 2], &HooiConfig::hosi_dt().with_max_iters(2));
        assert_eq!(hosi.timings.flops(Phase::Evd), 0);
        assert_eq!(hosi.timings.flops(Phase::Gram), 0);
        assert!(hosi.timings.flops(Phase::Qr) > 0);
        assert!(hosi.timings.flops(Phase::Contract) > 0);
    }

    #[test]
    fn converges_in_two_sweeps_with_noise() {
        // The paper's claim: random init reaches STHOSVD-level error in
        // 1-2 iterations.
        let spec = SyntheticSpec::new(&[16, 14, 12], &[4, 3, 3], 0.05, 47);
        let x = spec.build::<f64>();
        let st =
            crate::sthosvd::sthosvd(&x, &crate::sthosvd::SthosvdTruncation::Ranks(vec![4, 3, 3]));
        for cfg in all_variants() {
            let res = hooi(&x, &[4, 3, 3], &cfg.with_seed(3).with_max_iters(2));
            assert!(
                res.rel_error() < st.rel_error * 1.05 + 1e-12,
                "{} vs STHOSVD {}",
                res.rel_error(),
                st.rel_error
            );
        }
    }

    #[test]
    fn error_is_monotone_nonincreasing_over_sweeps() {
        let spec = SyntheticSpec::new(&[12, 11, 10], &[3, 3, 3], 0.1, 53);
        let x = spec.build::<f64>();
        let res = hooi(&x, &[3, 3, 3], &HooiConfig::hooi().with_max_iters(4));
        for w in res.sweeps.windows(2) {
            assert!(
                w[1].rel_error <= w[0].rel_error + 1e-10,
                "{} -> {}",
                w[0].rel_error,
                w[1].rel_error
            );
        }
    }

    #[test]
    fn tol_stops_early() {
        let spec = SyntheticSpec::new(&[10, 10], &[2, 2], 0.0, 59);
        let x = spec.build::<f64>();
        let res = hooi(
            &x,
            &[2, 2],
            &HooiConfig::hooi().with_max_iters(10).with_tol(1e-8),
        );
        assert!(res.sweeps.len() < 10, "ran {} sweeps", res.sweeps.len());
        assert!(res.rel_error() < 1e-7);
    }

    #[test]
    fn two_way_tensors_work() {
        // d = 2 exercises the smallest dimension tree.
        let spec = SyntheticSpec::new(&[20, 15], &[4, 4], 0.01, 61);
        let x = spec.build::<f64>();
        for cfg in all_variants() {
            let res = hooi(&x, &[4, 4], &cfg.with_max_iters(2));
            assert!(res.rel_error() < 0.02, "{}", res.rel_error());
        }
    }

    #[test]
    fn five_way_dimension_tree() {
        let spec = SyntheticSpec::new(&[6, 6, 6, 6, 6], &[2, 2, 2, 2, 2], 0.0, 67);
        let x = spec.build::<f64>();
        let res = hooi(
            &x,
            &[2, 2, 2, 2, 2],
            &HooiConfig::hosi_dt().with_max_iters(2),
        );
        assert!(res.rel_error() < 1e-5, "{}", res.rel_error());
    }

    #[test]
    fn variant_names() {
        assert_eq!(HooiConfig::hooi().variant_name(), "HOOI");
        assert_eq!(HooiConfig::hooi_dt().variant_name(), "HOOI-DT");
        assert_eq!(HooiConfig::hosi().variant_name(), "HOSI");
        assert_eq!(HooiConfig::hosi_dt().variant_name(), "HOSI-DT");
    }
}
