//! Flop and word counts per algorithm phase (Tables 1 and 2).

/// The problem the model is evaluated on: a cubic `d`-way tensor of
/// dimension `n` compressed to ranks `r` (the paper's simplifying
/// assumption for its cost analysis).
#[derive(Clone, Copy, Debug)]
pub struct Problem {
    /// Tensor dimension per mode.
    pub n: f64,
    /// Tucker rank per mode.
    pub r: f64,
    /// Number of modes.
    pub d: usize,
    /// HOOI iteration count ℓ (ignored by STHOSVD).
    pub iters: usize,
}

impl Problem {
    /// Convenience constructor.
    pub fn new(n: usize, r: usize, d: usize, iters: usize) -> Problem {
        Problem {
            n: n as f64,
            r: r as f64,
            d,
            iters,
        }
    }
}

/// The algorithms of the paper's comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlgKind {
    /// Sequentially truncated HOSVD (baseline).
    Sthosvd,
    /// HOOI with direct multi-TTMs and Gram+EVD.
    Hooi,
    /// HOOI with dimension trees and Gram+EVD.
    HooiDt,
    /// HOOI with direct multi-TTMs and subspace iteration.
    Hosi,
    /// HOOI with dimension trees and subspace iteration.
    HosiDt,
}

impl AlgKind {
    /// All algorithms, in the paper's plotting order.
    pub const ALL: [AlgKind; 5] = [
        AlgKind::Sthosvd,
        AlgKind::Hooi,
        AlgKind::HooiDt,
        AlgKind::Hosi,
        AlgKind::HosiDt,
    ];

    /// Display name matching the paper's legends.
    pub fn name(self) -> &'static str {
        match self {
            AlgKind::Sthosvd => "STHOSVD",
            AlgKind::Hooi => "HOOI",
            AlgKind::HooiDt => "HOOI-DT",
            AlgKind::Hosi => "HOSI",
            AlgKind::HosiDt => "HOSI-DT",
        }
    }

    /// True for the dimension-tree variants.
    pub fn uses_dim_tree(self) -> bool {
        matches!(self, AlgKind::HooiDt | AlgKind::HosiDt)
    }

    /// True for the subspace-iteration variants.
    pub fn uses_subspace_iter(self) -> bool {
        matches!(self, AlgKind::Hosi | AlgKind::HosiDt)
    }
}

/// Costs of one named phase.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseCost {
    /// Phase label ("TTM", "Gram", "EVD", "SI", "QR", "CoreAnalysis").
    pub label: &'static str,
    /// Flops that parallelize over `P` ranks.
    pub parallel_flops: f64,
    /// Flops executed redundantly/sequentially on one critical path
    /// (the sequential EVD and QR factorizations).
    pub sequential_flops: f64,
    /// Words moved on the critical path (Table 2 bandwidth terms).
    pub words: f64,
    /// Messages on the critical path (latency terms; collective trees are
    /// charged `log₂ P` per operation).
    pub messages: f64,
    /// Words of memory traffic per full pass over the operands, total
    /// across ranks (drives the roofline bandwidth bound).
    pub touched_words: f64,
}

/// A full per-phase cost breakdown.
#[derive(Clone, Debug)]
pub struct CostBreakdown {
    /// The phases in execution order.
    pub phases: Vec<PhaseCost>,
}

impl CostBreakdown {
    /// Total parallel flops.
    pub fn parallel_flops(&self) -> f64 {
        self.phases.iter().map(|p| p.parallel_flops).sum()
    }

    /// Total sequential flops.
    pub fn sequential_flops(&self) -> f64 {
        self.phases.iter().map(|p| p.sequential_flops).sum()
    }

    /// Total words communicated.
    pub fn words(&self) -> f64 {
        self.phases.iter().map(|p| p.words).sum()
    }
}

fn log2p(p: f64) -> f64 {
    if p <= 1.0 {
        0.0
    } else {
        p.log2().ceil()
    }
}

/// Evaluates the Table 1 + Table 2 cost expressions for `alg` on `prob`
/// over the processor grid `grid` (`Π grid = P`).
pub fn algorithm_cost(alg: AlgKind, prob: &Problem, grid: &[usize]) -> CostBreakdown {
    assert_eq!(grid.len(), prob.d, "grid order must match tensor order");
    let p: f64 = grid.iter().map(|&g| g as f64).product();
    let n = prob.n;
    let r = prob.r;
    let d = prob.d;
    let df = d as f64;
    let nd = n.powi(d as i32);
    let p1 = grid[0] as f64;
    let p2 = if d > 1 { grid[1] as f64 } else { 1.0 };
    let pd = grid[d - 1] as f64;

    let mut phases = Vec::new();
    match alg {
        AlgKind::Sthosvd => {
            // Gram: Σ_j r^{j-1} n^{d-j+2} / P  (j = 1..d, 1-indexed).
            let mut gram_flops = 0.0;
            let mut ttm_flops = 0.0;
            let mut llsv_words = 0.0;
            let mut ttm_words = 0.0;
            let mut touched = 0.0;
            for j in 1..=d {
                let y_entries = r.powi(j as i32 - 1) * n.powi((d - j + 1) as i32);
                gram_flops += y_entries * n / p;
                ttm_flops += 2.0 * y_entries * r / p;
                // Redistribution to 1D columns along the j-th grid dim +
                // Gram allreduce.
                let pj = grid[j - 1] as f64;
                llsv_words += y_entries / p * (pj - 1.0) / pj + n * n;
                // TTM reduce-scatter along the j-th grid dim.
                ttm_words += y_entries * (r / n) / p * (pj - 1.0);
                touched += 2.0 * y_entries;
            }
            phases.push(PhaseCost {
                label: "Gram",
                parallel_flops: gram_flops,
                sequential_flops: 0.0,
                words: llsv_words,
                messages: 3.0 * df * log2p(p),
                touched_words: touched,
            });
            phases.push(PhaseCost {
                label: "EVD",
                parallel_flops: 0.0,
                sequential_flops: df * 4.0 * n.powi(3),
                words: 0.0,
                messages: 0.0,
                touched_words: df * n * n,
            });
            phases.push(PhaseCost {
                label: "TTM",
                parallel_flops: ttm_flops,
                sequential_flops: 0.0,
                words: ttm_words,
                messages: df * log2p(p),
                touched_words: touched,
            });
        }
        _ => {
            let iters = prob.iters as f64;
            // --- multi-TTM phase ---
            let (ttm_flops, ttm_words, ttm_touched) = if alg.uses_dim_tree() {
                // 4 Σ_{i=1..⌈d/2⌉} r^i n^{d-i+1} / P  (the two root
                // branches dominate; deeper levels are lower order but we
                // include a 2× fudge-free partial sum of both branches).
                let mut f = 0.0;
                for i in 1..=d.div_ceil(2) {
                    f += 4.0 * r.powi(i as i32) * n.powi((d - i + 1) as i32) / p;
                }
                let words = r * nd / n / p * (p1 + pd - 2.0);
                (f, words, 4.0 * nd)
            } else {
                // d multi-TTMs, each 2 Σ_{i=1..d-1} r^i n^{d-i+1} / P.
                let mut one = 0.0;
                for i in 1..=(d - 1) {
                    one += 2.0 * r.powi(i as i32) * n.powi((d - i + 1) as i32) / p;
                }
                let f = df * one;
                let words = (df - 1.0) * r * nd / n / p * (p1 - 1.0) + r * nd / n / p * (p2 - 1.0);
                (f, words, 2.0 * df * nd)
            };
            phases.push(PhaseCost {
                label: "TTM",
                parallel_flops: iters * ttm_flops,
                sequential_flops: 0.0,
                words: iters * ttm_words,
                messages: iters * df * df * log2p(p),
                touched_words: iters * ttm_touched,
            });

            if alg.uses_subspace_iter() {
                // --- subspace iteration: TTM + contraction, then QR ---
                let rd = r.powi(d as i32);
                let si_flops = 4.0 * df * n * rd / p;
                let sum_pi_minus_1: f64 = grid.iter().map(|&g| g as f64 - 1.0).sum();
                // Per mode j: the core TTM's reduce-scatter and the
                // core's allgather along the same fiber, r^d/P·(P_j − 1)
                // words each, then the n·r iterate's reduce + broadcast.
                let si_words = 2.0 * rd / p * sum_pi_minus_1 + 2.0 * df * n * r;
                phases.push(PhaseCost {
                    label: "SI",
                    parallel_flops: iters * si_flops,
                    sequential_flops: 0.0,
                    words: iters * si_words,
                    messages: iters * 3.0 * df * log2p(p),
                    touched_words: iters * 2.0 * df * n * r.powi(d as i32 - 1),
                });
                phases.push(PhaseCost {
                    label: "QR",
                    parallel_flops: 0.0,
                    // O(d·n·r²) in the paper; coefficient 8 matches this
                    // implementation's QRCP + explicit thin-Q formation.
                    sequential_flops: iters * df * 8.0 * n * r * r,
                    words: 0.0,
                    messages: 0.0,
                    touched_words: iters * df * n * r,
                });
            } else {
                // --- Gram + EVD LLSV ---
                let gram_flops = df * n * n * r.powi(d as i32 - 1) / p;
                let sum_frac: f64 = grid.iter().map(|&g| (g as f64 - 1.0) / g as f64).sum();
                let gram_words = n * r.powi(d as i32 - 1) / p * sum_frac + df * n * n;
                phases.push(PhaseCost {
                    label: "Gram",
                    parallel_flops: iters * gram_flops,
                    sequential_flops: 0.0,
                    words: iters * gram_words,
                    messages: iters * 3.0 * df * log2p(p),
                    touched_words: iters * df * n * r.powi(d as i32 - 1),
                });
                phases.push(PhaseCost {
                    label: "EVD",
                    parallel_flops: 0.0,
                    sequential_flops: iters * df * 4.0 * n.powi(3),
                    words: 0.0,
                    messages: 0.0,
                    touched_words: iters * df * n * n,
                });
            }

            // --- core analysis (rank-adaptive overhead) ---
            let rd = r.powi(d as i32);
            phases.push(PhaseCost {
                label: "CoreAnalysis",
                parallel_flops: 0.0,
                sequential_flops: iters * df * rd,
                words: iters * rd,
                messages: iters * log2p(p),
                touched_words: iters * rd,
            });
        }
    }
    CostBreakdown { phases }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flops_of(alg: AlgKind, prob: &Problem, grid: &[usize]) -> f64 {
        let c = algorithm_cost(alg, prob, grid);
        c.parallel_flops() + c.sequential_flops()
    }

    #[test]
    fn sthosvd_dominated_by_first_gram() {
        // n ≫ r: Gram ≈ n^{d+1}/P.
        let prob = Problem::new(1000, 10, 3, 1);
        let c = algorithm_cost(AlgKind::Sthosvd, &prob, &[1, 1, 1]);
        let gram = c.phases.iter().find(|p| p.label == "Gram").unwrap();
        let expect = 1000f64.powi(4);
        assert!(
            (gram.parallel_flops / expect - 1.0).abs() < 0.02,
            "{} vs {expect}",
            gram.parallel_flops
        );
    }

    #[test]
    fn dim_tree_saves_factor_d_over_2_in_ttm() {
        let prob = Problem::new(500, 10, 4, 1);
        let direct = algorithm_cost(AlgKind::Hooi, &prob, &[1, 1, 1, 1]);
        let tree = algorithm_cost(AlgKind::HooiDt, &prob, &[1, 1, 1, 1]);
        let fd = direct
            .phases
            .iter()
            .find(|p| p.label == "TTM")
            .unwrap()
            .parallel_flops;
        let ft = tree
            .phases
            .iter()
            .find(|p| p.label == "TTM")
            .unwrap()
            .parallel_flops;
        let ratio = fd / ft;
        // Theory: d/2 = 2 to leading order.
        assert!((ratio - 2.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn subspace_iteration_removes_cubic_sequential_term() {
        let prob = Problem::new(2000, 10, 3, 2);
        let hooi = algorithm_cost(AlgKind::Hooi, &prob, &[1, 1, 1]);
        let hosi = algorithm_cost(AlgKind::Hosi, &prob, &[1, 1, 1]);
        assert!(hooi.sequential_flops() > 100.0 * hosi.sequential_flops());
    }

    #[test]
    fn hosi_dt_cheaper_than_sthosvd_when_n_over_r_large() {
        // The paper's headline: n/r > 8 (with ℓ = 2) favors HOSI-DT.
        let prob = Problem::new(1000, 20, 3, 2); // n/r = 50
        let st = flops_of(AlgKind::Sthosvd, &prob, &[1, 1, 1]);
        let hd = flops_of(AlgKind::HosiDt, &prob, &[1, 1, 1]);
        assert!(hd < st, "HOSI-DT {hd} vs STHOSVD {st}");

        // And the reverse at small dimension reduction.
        let prob2 = Problem::new(100, 60, 3, 2); // n/r < 2
        let st2 = flops_of(AlgKind::Sthosvd, &prob2, &[1, 1, 1]);
        let hd2 = flops_of(AlgKind::HosiDt, &prob2, &[1, 1, 1]);
        assert!(hd2 > st2, "HOSI-DT {hd2} vs STHOSVD {st2}");
    }

    #[test]
    fn sthosvd_prefers_p1_equal_1_grids() {
        let prob = Problem::new(1000, 10, 3, 1);
        let bad = algorithm_cost(AlgKind::Sthosvd, &prob, &[8, 1, 1]).words();
        let good = algorithm_cost(AlgKind::Sthosvd, &prob, &[1, 1, 8]).words();
        assert!(
            good < bad,
            "P1=1 grid should communicate less: {good} vs {bad}"
        );
    }

    #[test]
    fn dim_tree_prefers_p1_pd_equal_1_grids() {
        let prob = Problem::new(500, 10, 4, 2);
        let bad = algorithm_cost(AlgKind::HosiDt, &prob, &[4, 1, 1, 4]).words();
        let good = algorithm_cost(AlgKind::HosiDt, &prob, &[1, 4, 4, 1]).words();
        assert!(good < bad, "{good} vs {bad}");
    }

    #[test]
    fn costs_scale_down_with_p() {
        let prob = Problem::new(800, 16, 3, 2);
        for alg in AlgKind::ALL {
            let c1 = algorithm_cost(alg, &prob, &[1, 1, 1]).parallel_flops();
            let c8 = algorithm_cost(alg, &prob, &[1, 2, 4]).parallel_flops();
            assert!(
                (c1 / c8 - 8.0).abs() < 1e-6,
                "{}: parallel flops must scale 1/P",
                alg.name()
            );
        }
    }
}
