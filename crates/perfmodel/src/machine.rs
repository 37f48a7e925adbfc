//! The machine model: converts phase costs into seconds.

use crate::costs::{CostBreakdown, PhaseCost};

/// Machine parameters for the time model.
///
/// Defaults are Perlmutter-CPU-like (dual AMD EPYC 7763 per node); the
/// absolute values only set the scale of the curves — the *shapes* of
/// Figs. 2–3 come from the cost expressions. `calibrated` lets the bench
/// harness substitute rates measured on the host with this repository's
/// own kernels, tying the model to the implementation.
#[derive(Clone, Debug)]
pub struct Machine {
    /// Effective GEMM-like flops/second per core for the parallel phases.
    pub flop_rate: f64,
    /// Flops/second of the *sequential* EVD (the unparallelized LAPACK
    /// call in TuckerMPI; typically several times slower than GEMM).
    pub seq_factorization_rate: f64,
    /// Memory bandwidth per node, words/second (roofline bound for the
    /// low-arithmetic-intensity TTM/contraction phases).
    pub node_bw_words: f64,
    /// Cores per node.
    pub cores_per_node: usize,
    /// Per-message latency, seconds (α).
    pub alpha: f64,
    /// Per-word transfer time, seconds (β).
    pub beta: f64,
}

impl Machine {
    /// Perlmutter-CPU-like defaults (single precision words).
    pub fn perlmutter_like() -> Machine {
        Machine {
            flop_rate: 1.5e10,
            seq_factorization_rate: 2.0e9,
            // Effective streaming bandwidth per node for tensor-sized
            // operands (~160 GB/s at 4-byte words — roughly half of STREAM
            // triad on a dual-EPYC node, reflecting the strided access of
            // slab kernels).
            node_bw_words: 4.0e10,
            cores_per_node: 128,
            alpha: 2.0e-6,
            beta: 2.0e-10, // ~5 GWords/s per-rank injection
        }
    }

    /// A machine calibrated from measured rates (flops/s) of this
    /// repository's own GEMM and EVD kernels on the host, keeping the
    /// Perlmutter-like network and node shape.
    pub fn calibrated(gemm_rate: f64, evd_rate: f64) -> Machine {
        Machine {
            flop_rate: gemm_rate,
            seq_factorization_rate: evd_rate,
            // Scale node bandwidth with the measured compute rate so the
            // compute/bandwidth balance point stays Perlmutter-like.
            node_bw_words: gemm_rate * 2.7,
            ..Machine::perlmutter_like()
        }
    }

    /// Predicted seconds for one phase on `p` cores.
    pub fn phase_time(&self, phase: &PhaseCost, p: usize) -> f64 {
        let pf = p as f64;
        let nodes = (p as f64 / self.cores_per_node as f64).max(1.0).min(pf);
        // Parallel compute: roofline of flop rate vs. node memory
        // bandwidth (touched_words is a total across ranks).
        let t_parallel = if phase.parallel_flops > 0.0 {
            let t_flops = phase.parallel_flops / (pf * self.flop_rate);
            let t_bw = phase.touched_words / (nodes * self.node_bw_words);
            t_flops.max(t_bw)
        } else {
            0.0
        };
        // Sequential/redundant factorizations do not scale with P.
        let t_seq = phase.sequential_flops / self.seq_factorization_rate;
        // α–β network model.
        let t_net = phase.words * self.beta + phase.messages * self.alpha;
        t_parallel + t_seq + t_net
    }

    /// Predicted total seconds for a breakdown on `p` cores.
    pub fn total_time(&self, costs: &CostBreakdown, p: usize) -> f64 {
        costs.phases.iter().map(|ph| self.phase_time(ph, p)).sum()
    }

    /// Per-phase `(label, seconds)` pairs.
    pub fn phase_times(&self, costs: &CostBreakdown, p: usize) -> Vec<(&'static str, f64)> {
        costs
            .phases
            .iter()
            .map(|ph| (ph.label, self.phase_time(ph, p)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::{algorithm_cost, AlgKind, Problem};

    #[test]
    fn sequential_phase_does_not_scale() {
        let m = Machine::perlmutter_like();
        let prob = Problem::new(2000, 10, 3, 1);
        let c = algorithm_cost(AlgKind::Sthosvd, &prob, &[1, 1, 1]);
        let evd = c.phases.iter().find(|p| p.label == "EVD").unwrap();
        let t1 = m.phase_time(evd, 1);
        let t1024 = m.phase_time(evd, 1024);
        assert!((t1 - t1024).abs() / t1 < 1e-9);
    }

    #[test]
    fn parallel_phase_scales_until_bandwidth_bound() {
        let m = Machine::perlmutter_like();
        let prob = Problem::new(500, 4, 3, 1);
        // Small rank → low arithmetic intensity TTM.
        let c = algorithm_cost(AlgKind::HosiDt, &prob, &[1, 1, 1]);
        let ttm = c.phases.iter().find(|p| p.label == "TTM").unwrap();
        let t1 = m.phase_time(ttm, 1);
        let t64 = m.phase_time(ttm, 64);
        let t128 = m.phase_time(ttm, 128);
        assert!(t64 < t1, "must speed up off one core");
        // Within one node, speedup saturates at the bandwidth roof:
        // 64 → 128 cores gains little.
        assert!(t128 > t64 * 0.7, "single-node saturation expected");
    }

    #[test]
    fn network_terms_increase_time() {
        let m = Machine::perlmutter_like();
        let mut phase = PhaseCost {
            label: "TTM",
            parallel_flops: 1e9,
            sequential_flops: 0.0,
            words: 0.0,
            messages: 0.0,
            touched_words: 0.0,
        };
        let base = m.phase_time(&phase, 16);
        phase.words = 1e9;
        phase.messages = 1e3;
        assert!(m.phase_time(&phase, 16) > base);
    }

    #[test]
    fn calibrated_keeps_balance() {
        let m = Machine::calibrated(2e9, 5e8);
        assert_eq!(m.flop_rate, 2e9);
        assert_eq!(m.seq_factorization_rate, 5e8);
        assert!(m.node_bw_words > m.flop_rate);
    }
}
