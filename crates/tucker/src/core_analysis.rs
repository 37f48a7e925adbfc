//! Rank-adaptive core analysis (paper §3.2, optimization problem eq. 3).
//!
//! Given the current core `G` and the input norm, find the leading
//! subtensor `G(0..r)` minimizing the Tucker storage
//! `Π r_j + Σ n_j r_j` subject to `‖G(0..r)‖² ≥ (1−ε²)‖X‖²`. Solved
//! exhaustively over all `Π r_j` leading-rank vectors in O(1) per
//! candidate using the multidimensional prefix sums of squared core
//! entries — `O(d·r^d)` total, as analyzed in the paper.

use ratucker_tensor::dense::DenseTensor;
use ratucker_tensor::prefix::prefix_squared_sums;
use ratucker_tensor::scalar::Scalar;

/// The outcome of a core-analysis truncation search.
#[derive(Clone, Debug, PartialEq)]
pub struct CoreAnalysis {
    /// The chosen ranks (exclusive upper bounds per mode).
    pub ranks: Vec<usize>,
    /// Storage of the truncated decomposition, in entries.
    pub storage: usize,
    /// `‖G(0..r)‖²` of the chosen truncation.
    pub kept_norm_sq: f64,
}

/// Storage in entries of a Tucker decomposition with the given ranks and
/// outer dimensions: `Π r_j + Σ n_j r_j` (the objective of eq. 3).
pub fn tucker_storage(ranks: &[usize], outer_dims: &[usize]) -> usize {
    let core: usize = ranks.iter().product();
    let factors: usize = ranks.iter().zip(outer_dims).map(|(&r, &n)| r * n).sum();
    core + factors
}

/// Solves eq. (3). Returns `None` when even the full core fails the
/// threshold (i.e. the current approximation is not yet accurate enough
/// and the rank-adaptive loop must grow ranks instead).
pub fn analyze_core<T: Scalar>(
    core: &DenseTensor<T>,
    outer_dims: &[usize],
    x_norm_sq: f64,
    eps: f64,
) -> Option<CoreAnalysis> {
    assert_eq!(core.order(), outer_dims.len());
    let target = (1.0 - eps * eps) * x_norm_sq;
    let prefix = prefix_squared_sums(core);
    let mut best: Option<CoreAnalysis> = None;
    // Every index of the prefix tensor is a candidate rank vector
    // r_j = idx_j + 1; feasibility and cost are O(d) reads each.
    let mut ranks = vec![0usize; core.order()];
    let mut kept_at = prefix.data().iter();
    core.shape().for_each_index(|idx| {
        let kept = *kept_at.next().expect("prefix tensor has the core's shape");
        if kept < target {
            return;
        }
        for (r, &i) in ranks.iter_mut().zip(idx) {
            *r = i + 1;
        }
        let storage = tucker_storage(&ranks, outer_dims);
        let better = match &best {
            None => true,
            Some(b) => storage < b.storage,
        };
        if better {
            best = Some(CoreAnalysis {
                ranks: ranks.clone(),
                storage,
                kept_norm_sq: kept,
            });
        }
    });
    best
}

/// Greedy mode-wise truncation, in the spirit of Xiao & Yang's RA-HOOI
/// ([26], discussed in §2.3): starting from the full core, repeatedly
/// drop one rank from whichever mode keeps the threshold satisfied and
/// saves the most storage, until no single-mode decrement is feasible.
///
/// This is the ablation partner of [`analyze_core`]: the paper's
/// exhaustive eq.-(3) search can shift rank *across* modes, which greedy
/// per-mode decisions cannot; `analyze_core` is therefore never worse.
pub fn analyze_core_greedy<T: Scalar>(
    core: &DenseTensor<T>,
    outer_dims: &[usize],
    x_norm_sq: f64,
    eps: f64,
) -> Option<CoreAnalysis> {
    assert_eq!(core.order(), outer_dims.len());
    let target = (1.0 - eps * eps) * x_norm_sq;
    let prefix = prefix_squared_sums(core);
    let mut ranks: Vec<usize> = core.shape().dims().to_vec();
    let kept = |ranks: &[usize]| -> f64 {
        let idx: Vec<usize> = ranks.iter().map(|&r| r - 1).collect();
        prefix.get(&idx)
    };
    if kept(&ranks) < target {
        return None;
    }
    loop {
        let mut best: Option<(usize, usize)> = None; // (mode, storage)
        for k in 0..ranks.len() {
            if ranks[k] == 1 {
                continue;
            }
            ranks[k] -= 1;
            if kept(&ranks) >= target {
                let storage = tucker_storage(&ranks, outer_dims);
                if best.is_none_or(|(_, s)| storage < s) {
                    best = Some((k, storage));
                }
            }
            ranks[k] += 1;
        }
        match best {
            Some((k, _)) => ranks[k] -= 1,
            None => break,
        }
    }
    let kept_norm_sq = kept(&ranks);
    let storage = tucker_storage(&ranks, outer_dims);
    Some(CoreAnalysis {
        ranks,
        storage,
        kept_norm_sq,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Diagonal-dominant core: entry (i,i,..) big, rest small.
    fn decaying_core(dims: &[usize], decay: f64) -> DenseTensor<f64> {
        DenseTensor::from_fn(ratucker_tensor::shape::Shape::new(dims), |idx| {
            let s: usize = idx.iter().sum();
            (-decay * s as f64).exp()
        })
    }

    #[test]
    fn storage_formula() {
        assert_eq!(tucker_storage(&[2, 3], &[10, 20]), 6 + 20 + 60);
    }

    #[test]
    fn full_ranks_always_feasible_at_zero_eps_when_exact() {
        let g = decaying_core(&[3, 3], 1.0);
        let xns = g.squared_norm_f64();
        let res = analyze_core(&g, &[10, 10], xns, 0.0).unwrap();
        // Only the full core keeps all mass.
        assert_eq!(res.ranks, vec![3, 3]);
        assert!((res.kept_norm_sq - xns).abs() < 1e-12);
    }

    #[test]
    fn loose_tolerance_truncates_harder() {
        let g = decaying_core(&[5, 5, 5], 2.0);
        let xns = g.squared_norm_f64();
        let tight = analyze_core(&g, &[50, 50, 50], xns, 0.01).unwrap();
        let loose = analyze_core(&g, &[50, 50, 50], xns, 0.3).unwrap();
        assert!(loose.storage <= tight.storage);
        assert!(loose.ranks.iter().zip(&tight.ranks).all(|(l, t)| l <= t));
    }

    #[test]
    fn infeasible_when_noise_exceeds_core_mass() {
        // ‖G‖² is only half of ‖X‖² → no truncation satisfies ε = 0.1.
        let g = decaying_core(&[3, 3], 1.0);
        let xns = g.squared_norm_f64() * 2.0;
        assert!(analyze_core(&g, &[10, 10], xns, 0.1).is_none());
    }

    #[test]
    fn chosen_truncation_is_feasible_and_optimal_by_brute_force() {
        let g = decaying_core(&[4, 3, 4], 0.9);
        let xns = g.squared_norm_f64() * 1.001; // slight noise mass outside
        let eps = 0.2;
        let res = analyze_core(&g, &[20, 30, 10], xns, eps).unwrap();
        let target = (1.0 - eps * eps) * xns;
        assert!(res.kept_norm_sq >= target);

        // Brute-force the optimum.
        let mut best: Option<(usize, Vec<usize>)> = None;
        for r0 in 1..=4usize {
            for r1 in 1..=3usize {
                for r2 in 1..=4usize {
                    let sub = g.leading_subtensor(&[r0, r1, r2]);
                    if sub.squared_norm_f64() >= target {
                        let s = tucker_storage(&[r0, r1, r2], &[20, 30, 10]);
                        if best.as_ref().is_none_or(|(bs, _)| s < *bs) {
                            best = Some((s, vec![r0, r1, r2]));
                        }
                    }
                }
            }
        }
        let (best_storage, _) = best.unwrap();
        assert_eq!(res.storage, best_storage);
    }

    #[test]
    fn greedy_is_feasible_and_never_beats_exhaustive() {
        for decay in [0.4, 0.9, 1.5] {
            let g = decaying_core(&[4, 4, 4], decay);
            let xns = g.squared_norm_f64() * 1.0005;
            for eps in [0.05, 0.15, 0.3] {
                let exhaustive = analyze_core(&g, &[40, 25, 10], xns, eps);
                let greedy = analyze_core_greedy(&g, &[40, 25, 10], xns, eps);
                match (exhaustive, greedy) {
                    (Some(e), Some(gr)) => {
                        let target = (1.0 - eps * eps) * xns;
                        assert!(gr.kept_norm_sq >= target);
                        assert!(
                            e.storage <= gr.storage,
                            "exhaustive {} > greedy {} (decay {decay}, eps {eps})",
                            e.storage,
                            gr.storage
                        );
                    }
                    (None, None) => {}
                    other => panic!("feasibility disagreement: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn greedy_infeasible_when_mass_insufficient() {
        let g = decaying_core(&[3, 3], 1.0);
        let xns = g.squared_norm_f64() * 2.0;
        assert!(analyze_core_greedy(&g, &[10, 10], xns, 0.1).is_none());
    }

    #[test]
    fn unbalanced_outer_dims_shift_ranks_across_modes() {
        // With mode 0 very expensive (n_0 huge), the optimizer should
        // prefer trimming mode 0 over mode 1 when mass allows.
        let g = DenseTensor::from_fn([3, 3], |idx| {
            // Symmetric mass in both modes.
            (-((idx[0] + idx[1]) as f64)).exp()
        });
        let xns = g.squared_norm_f64();
        let res = analyze_core(&g, &[10_000, 10], xns, 0.35).unwrap();
        assert!(
            res.ranks[0] <= res.ranks[1],
            "expected mode 0 trimmed at least as hard: {:?}",
            res.ranks
        );
    }
}
