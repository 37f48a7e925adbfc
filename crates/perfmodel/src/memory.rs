//! Per-rank peak-memory model and admission control.
//!
//! The distributed RA-HOSI-DT working set is dominated by a handful of
//! structurally known buffers: the resident tensor block, its buddy
//! replicas, the replicated factor matrices, the gathered core, and the
//! TTM/Gram staging slabs. This module turns those shapes into a
//! per-rank **peak estimate in bytes**, evaluated per rung of the
//! graceful-degradation ladder (rung 0 reduces the TTM in one slab and
//! rung 1 in `2·P_j`, under the one charge rule of the distributed
//! TTM; rung 2 streams the Gram assembly — see `ratucker::recover`),
//! and an **admission** decision: given a `--mem-budget`, either the run is
//! admitted at the cheapest rung whose projected peak fits, or it is
//! rejected up front with the shortfall — *before* any rank allocates a
//! byte or a collective is posted.
//!
//! The estimate is intentionally an upper bound with slack rather than
//! an exact accounting: transient copies (redistribution staging,
//! checkpoint serialization, `hcat` temporaries) ride inside the
//! documented band (see `DESIGN.md` §14) instead of being modeled term
//! by term. The validation test in `tests/mem_band.rs` pins the band:
//! the margin-adjusted prediction must bound the measured ledger
//! high-water mark from above without exceeding `BAND` times it.

use ratucker_tensor::slab_grid;

/// The shape of a distributed run, as the memory model sees it.
#[derive(Clone, Debug)]
pub struct MemProblem {
    /// Global tensor dimensions.
    pub dims: Vec<usize>,
    /// Processor grid (same order as `dims`).
    pub grid: Vec<usize>,
    /// Worst-case per-mode Tucker ranks the run may reach (for a
    /// rank-adaptive run: the growth-capped ranks, not the initial
    /// ones).
    pub ranks: Vec<usize>,
    /// Buddy-replication degree `k` (each rank stores `k` peer blocks).
    pub buddy_degree: usize,
    /// Whether ABFT checksums ride the collectives (one extra row/slot
    /// per message — negligible, kept for completeness).
    pub abft: bool,
    /// Bytes per scalar element (8 for `f64`).
    pub elem_bytes: usize,
}

impl MemProblem {
    fn local_dim(&self, j: usize) -> usize {
        self.dims[j].div_ceil(self.grid[j])
    }

    fn block_entries(&self) -> u64 {
        (0..self.dims.len())
            .map(|j| self.local_dim(j) as u64)
            .product()
    }
}

/// Per-component peak estimate, in bytes. `peak()` combines them the
/// way the sweep does: everything resident plus the largest staging
/// phase (TTM and Gram staging never coexist).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemEstimate {
    /// The rank's resident tensor block.
    pub block: u64,
    /// Buddy replicas of `degree` predecessor blocks.
    pub replicas: u64,
    /// Factor matrices, replicated on every rank.
    pub factors: u64,
    /// The gathered (replicated) core at the threshold test.
    pub core: u64,
    /// Largest TTM packing/reduction slab across modes, at this rung.
    pub ttm_staging: u64,
    /// Largest Gram send/assembly staging across modes, at this rung.
    pub gram_staging: u64,
}

impl MemEstimate {
    /// The projected per-rank peak: all resident state plus the larger
    /// of the two (mutually exclusive) staging phases.
    pub fn peak(&self) -> u64 {
        self.block
            + self.replicas
            + self.factors
            + self.core
            + self.ttm_staging.max(self.gram_staging)
    }
}

/// Evaluates the per-rank peak estimate at the given degradation rung.
pub fn estimate_peak(prob: &MemProblem, rung: u8) -> MemEstimate {
    let d = prob.dims.len();
    assert_eq!(prob.grid.len(), d, "grid order must match tensor order");
    assert_eq!(prob.ranks.len(), d, "ranks order must match tensor order");
    let e = prob.elem_bytes as u64;
    let block = prob.block_entries() * e;

    let factors: u64 = (0..d).map(|j| (prob.dims[j] * prob.ranks[j]) as u64).sum();
    let core: u64 = (0..d).map(|j| prob.ranks[j] as u64).product();

    // Per-mode TTM staging. The partial product spans local_left ×
    // r_j × local_right entries (the output mode is global width before
    // the reduce-scatter). A local mode holds it and its result. A split
    // mode reduces it in the dist TTM's slabs, cut by `slab_grid`: one
    // at rung 0, 2·p_j at rung ≥ 1. Each charges its partial product
    // and packed copy (2·slab + p_j entries) while in flight, at most
    // two are in flight at once, and the operand's local_n_j × r_j row
    // slice lives beside them.
    let mut ttm_staging = 0u64;
    // Per-mode Gram staging: the unfolding columns of the fully
    // contracted-by-others tensor, C_j = Π_{k≠j} r_k of them, staged
    // once for the send and assembled into an n_j × (C_j / p_j) scratch
    // (rung 2 streams the scratch in 8 batches) plus the n_j² Gram.
    let mut gram_staging = 0u64;
    for j in 0..d {
        let pj = prob.grid[j] as u64;
        let ttm = if pj > 1 {
            let left: usize = (0..j).map(|k| prob.local_dim(k)).product();
            let right: usize = (j + 1..d).map(|k| prob.local_dim(k)).product();
            let n = if rung >= 1 { 2 * prob.grid[j] } else { 1 };
            let (n_left, n_right) = slab_grid(left, right, n);
            let largest = (left.div_ceil(n_left) * right.div_ceil(n_right) * prob.ranks[j]) as u64;
            (prob.local_dim(j) * prob.ranks[j]) as u64 + n.min(2) as u64 * (2 * largest + pj)
        } else {
            2 * prob.block_entries() / prob.local_dim(j) as u64 * prob.ranks[j] as u64
        };
        ttm_staging = ttm_staging.max(ttm * e);

        let cols: u64 = (0..d)
            .filter(|&k| k != j)
            .map(|k| prob.ranks[k] as u64)
            .product();
        let my_cols = cols.div_ceil(pj);
        let nj = prob.dims[j] as u64;
        let scratch_cols = if rung >= 2 {
            my_cols.div_ceil(8).max(1)
        } else {
            my_cols.max(1)
        };
        // Send staging (local rows × all columns) + received blocks
        // (all rows × my columns) + assembly scratch + Gram matrix.
        let gram = prob.local_dim(j) as u64 * cols + nj * my_cols + nj * scratch_cols + nj * nj;
        gram_staging = gram_staging.max(gram * e);
    }

    MemEstimate {
        block,
        replicas: prob.buddy_degree as u64 * block,
        factors: factors * e,
        core: core * e,
        ttm_staging,
        gram_staging,
    }
}

/// Safety margin applied on top of the structural estimate before a run
/// is admitted: transient copies (redistribution staging, checkpoint
/// serialization, `hcat`/orthonormalization temporaries) are not
/// modeled term by term and must fit in the slack.
pub const ADMISSION_MARGIN: f64 = 1.25;

/// The admission decision for a budgeted run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// The run fits: start at `start_rung` (the cheapest rung whose
    /// projected peak, with margin, fits the budget) with `headroom`
    /// bytes to spare.
    Admit {
        /// Degradation rung to install before the first sweep.
        start_rung: u8,
        /// Budget minus the margin-adjusted projected peak.
        headroom: u64,
    },
    /// Even the highest rung does not fit: the run is refused before
    /// any allocation. `required` is the margin-adjusted peak of the
    /// cheapest mode.
    Reject {
        /// Bytes the cheapest degradation mode would need.
        required: u64,
        /// The offered budget.
        budget: u64,
    },
}

/// Admission control: projects the peak at every rung of the ladder and
/// admits the run at the first (cheapest) rung that fits `budget`,
/// with [`ADMISSION_MARGIN`] slack. Rung 3 (frozen rank growth) is not
/// proposed at admission — freezing is only meaningful after growth has
/// been observed to not fit, which the online ladder handles; admission
/// evaluates rungs 0–2.
pub fn admit(prob: &MemProblem, budget: u64) -> Admission {
    let mut cheapest = u64::MAX;
    for rung in 0..=2u8 {
        let required = (estimate_peak(prob, rung).peak() as f64 * ADMISSION_MARGIN) as u64;
        cheapest = cheapest.min(required);
        if required <= budget {
            return Admission::Admit {
                start_rung: rung,
                headroom: budget - required,
            };
        }
    }
    Admission::Reject {
        required: cheapest,
        budget,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prob() -> MemProblem {
        MemProblem {
            dims: vec![12, 10, 8],
            grid: vec![2, 2, 1],
            ranks: vec![6, 6, 4],
            buddy_degree: 1,
            abft: false,
            elem_bytes: 8,
        }
    }

    #[test]
    fn higher_rungs_project_smaller_peaks() {
        let p = prob();
        let e0 = estimate_peak(&p, 0);
        let e1 = estimate_peak(&p, 1);
        let e2 = estimate_peak(&p, 2);
        assert!(e0.peak() >= e1.peak() && e1.peak() >= e2.peak());
        assert!(
            e0.ttm_staging > e1.ttm_staging,
            "rung 1 reduces the TTM in slabs: {} vs {}",
            e0.ttm_staging,
            e1.ttm_staging
        );
        assert!(
            e1.gram_staging > e2.gram_staging,
            "rung 2 streams the Gram scratch: {} vs {}",
            e1.gram_staging,
            e2.gram_staging
        );
    }

    #[test]
    fn admission_picks_the_cheapest_fitting_rung() {
        let p = prob();
        let r0 = (estimate_peak(&p, 0).peak() as f64 * ADMISSION_MARGIN) as u64;
        let r2 = (estimate_peak(&p, 2).peak() as f64 * ADMISSION_MARGIN) as u64;
        // Generous budget → rung 0.
        match admit(&p, 2 * r0) {
            Admission::Admit { start_rung: 0, .. } => {}
            other => panic!("expected rung-0 admit, got {other:?}"),
        }
        // Budget between rung-2 and rung-0 needs → a degraded admit.
        if r2 < r0 {
            match admit(&p, (r0 + r2) / 2) {
                Admission::Admit { start_rung, .. } => assert!(start_rung >= 1),
                other => panic!("expected degraded admit, got {other:?}"),
            }
        }
        // Budget below every rung → reject with the shortfall visible.
        match admit(&p, r2 / 4) {
            Admission::Reject { required, budget } => {
                assert!(required > budget);
                assert_eq!(budget, r2 / 4);
            }
            other => panic!("expected reject, got {other:?}"),
        }
    }

    #[test]
    fn peak_scales_down_with_the_grid() {
        let small = prob();
        let mut big = prob();
        big.grid = vec![1, 1, 1];
        assert!(
            estimate_peak(&big, 0).peak() > estimate_peak(&small, 0).peak(),
            "more ranks per mode must shrink the per-rank block"
        );
    }
}
