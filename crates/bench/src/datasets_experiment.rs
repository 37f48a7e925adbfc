//! The shared §4.2 experiment: error-specified compression of a
//! simulation dataset, STHOSVD vs rank-adaptive HOSI-DT from three kinds
//! of starting ranks, at three tolerances.
//!
//! Figures 4/6/8 are the progression (time, error, relative size per
//! iteration); Figures 5/7/9 are the per-phase breakdowns. One run of
//! [`run_dataset_experiment`] produces the data for both.

use crate::report::Table;
use ratucker::prelude::*;
use ratucker::timings::ALL_PHASES;
use ratucker::RaResult;
use ratucker_datasets::{DatasetSpec, TOLERANCES};
use ratucker_tensor::dense::DenseTensor;
use ratucker_tensor::scalar::Scalar;
use std::time::Instant;

/// The three starting-rank policies of §4.2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StartKind {
    /// STHOSVD's final ranks for the same tolerance.
    Perfect,
    /// 25% above perfect.
    Over,
    /// 25% below perfect.
    Under,
}

impl StartKind {
    /// All policies in the paper's order.
    pub const ALL: [StartKind; 3] = [StartKind::Perfect, StartKind::Over, StartKind::Under];

    /// Label used in the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            StartKind::Perfect => "perfect",
            StartKind::Over => "over",
            StartKind::Under => "under",
        }
    }

    /// Applies the policy to STHOSVD's ranks (clamped to the dims).
    pub fn ranks(self, perfect: &[usize], dims: &[usize]) -> Vec<usize> {
        perfect
            .iter()
            .zip(dims)
            .map(|(&r, &n)| {
                let v = match self {
                    StartKind::Perfect => r as f64,
                    StartKind::Over => (r as f64 * 1.25).ceil(),
                    StartKind::Under => (r as f64 * 0.75).floor(),
                };
                (v as usize).clamp(1, n)
            })
            .collect()
    }
}

/// One recorded iteration of a rank-adaptive run.
#[derive(Clone, Debug)]
pub struct IterRecord {
    /// Cumulative wall seconds through this iteration.
    pub cum_seconds: f64,
    /// Relative error after the iteration's truncation/growth action.
    pub rel_error: f64,
    /// Relative size of the decomposition.
    pub rel_size: f64,
    /// Whether the error threshold held at this iteration.
    pub met: bool,
}

/// One RA configuration's progression.
#[derive(Clone, Debug)]
pub struct RaSeries {
    /// Tolerance ε.
    pub eps: f64,
    /// Starting-rank policy.
    pub start: StartKind,
    /// Starting ranks used.
    pub start_ranks: Vec<usize>,
    /// Per-iteration records.
    pub iters: Vec<IterRecord>,
    /// Index of the first iteration meeting the tolerance.
    pub met_at: Option<usize>,
    /// The full result (for breakdowns).
    pub result_timings: ratucker::Timings,
    /// Final ranks.
    pub final_ranks: Vec<usize>,
}

/// The STHOSVD reference at one tolerance.
#[derive(Clone, Debug)]
pub struct SthosvdSeries {
    /// Tolerance ε.
    pub eps: f64,
    /// Wall seconds.
    pub seconds: f64,
    /// Achieved relative error.
    pub rel_error: f64,
    /// Relative size.
    pub rel_size: f64,
    /// Final ranks (the "perfect" starting ranks).
    pub ranks: Vec<usize>,
    /// Phase breakdown.
    pub timings: ratucker::Timings,
}

/// Full experiment output for one dataset.
#[derive(Clone, Debug)]
pub struct DatasetReport {
    /// Dataset name.
    pub name: String,
    /// Tensor dims.
    pub dims: Vec<usize>,
    /// STHOSVD reference per tolerance.
    pub sthosvd: Vec<SthosvdSeries>,
    /// RA series per (tolerance × start policy).
    pub ra: Vec<RaSeries>,
}

/// Runs the full §4.2 experiment for one dataset at the given precision.
pub fn run_dataset_experiment<T: Scalar>(spec: &DatasetSpec) -> DatasetReport {
    println!("[dataset] generating {} …", spec.name);
    let x: DenseTensor<T> = spec.build();
    let dims = x.shape().dims().to_vec();

    let mut sthosvd_series = Vec::new();
    let mut ra_series = Vec::new();

    for &eps in &TOLERANCES {
        // STHOSVD reference (also defines the "perfect" starting ranks).
        let t0 = Instant::now();
        let st = sthosvd(&x, &SthosvdTruncation::RelError(eps));
        let st_secs = t0.elapsed().as_secs_f64();
        println!(
            "[sthosvd] eps={eps}: {:.3}s err={:.4} ranks={:?}",
            st_secs,
            st.rel_error,
            st.tucker.ranks()
        );
        let perfect = st.tucker.ranks();
        sthosvd_series.push(SthosvdSeries {
            eps,
            seconds: st_secs,
            rel_error: st.rel_error,
            rel_size: st.tucker.relative_size(),
            ranks: perfect.clone(),
            timings: st.timings.clone(),
        });

        for start in StartKind::ALL {
            let start_ranks = start.ranks(&perfect, &dims);
            let cfg = RaConfig::ra_hosi_dt(eps, &start_ranks)
                .with_seed(7)
                .with_max_iters(3);
            let t0 = Instant::now();
            let res: RaResult<T> = ra_hooi(&x, &cfg);
            let _total = t0.elapsed().as_secs_f64();
            let mut cum = 0.0;
            let iters: Vec<IterRecord> = res
                .iterations
                .iter()
                .map(|it| {
                    cum += it.timings.total_secs();
                    IterRecord {
                        cum_seconds: cum,
                        rel_error: it.rel_error,
                        rel_size: it.relative_size,
                        met: it.met_threshold,
                    }
                })
                .collect();
            println!(
                "[ra-hosi-dt] eps={eps} start={}: met_at={:?} err={:.4} ranks={:?}",
                start.label(),
                res.met_at,
                res.rel_error,
                res.tucker.ranks()
            );
            ra_series.push(RaSeries {
                eps,
                start,
                start_ranks,
                iters,
                met_at: res.met_at,
                result_timings: res.timings.clone(),
                final_ranks: res.tucker.ranks(),
            });
        }
    }

    DatasetReport {
        name: spec.name.clone(),
        dims,
        sthosvd: sthosvd_series,
        ra: ra_series,
    }
}

impl DatasetReport {
    /// The progression table (Figs. 4/6/8).
    pub fn progression_table(&self) -> Table {
        let mut t = Table::new(
            &format!(
                "{}: error/time/size progression (RA-HOSI-DT vs STHOSVD)",
                self.name
            ),
            &[
                "eps",
                "series",
                "iter",
                "cum_seconds",
                "rel_error",
                "rel_size",
                "met",
            ],
        );
        for st in &self.sthosvd {
            t.row_strings(vec![
                format!("{}", st.eps),
                "STHOSVD".into(),
                "-".into(),
                format!("{:.4}", st.seconds),
                format!("{:.5}", st.rel_error),
                format!("{:.5}", st.rel_size),
                "yes".into(),
            ]);
        }
        for ra in &self.ra {
            for (i, it) in ra.iters.iter().enumerate() {
                t.row_strings(vec![
                    format!("{}", ra.eps),
                    format!("RA({})", ra.start.label()),
                    format!("{}", i + 1),
                    format!("{:.4}", it.cum_seconds),
                    format!("{:.5}", it.rel_error),
                    format!("{:.5}", it.rel_size),
                    if it.met { "yes".into() } else { "no".into() },
                ]);
            }
        }
        t
    }

    /// Speedup-at-threshold summary (the headline numbers of §4.2).
    pub fn speedup_table(&self) -> Table {
        let mut t = Table::new(
            &format!("{}: time-to-tolerance speedup over STHOSVD", self.name),
            &[
                "eps",
                "start",
                "iters_needed",
                "ra_seconds",
                "sthosvd_seconds",
                "speedup",
                "size_vs_sthosvd",
            ],
        );
        for ra in &self.ra {
            let st = self
                .sthosvd
                .iter()
                .find(|s| s.eps == ra.eps)
                .expect("matching tolerance");
            match ra.met_at {
                Some(k) => {
                    let ra_secs = ra.iters[k].cum_seconds;
                    let size_ratio = ra.iters[k].rel_size / st.rel_size;
                    t.row_strings(vec![
                        format!("{}", ra.eps),
                        ra.start.label().into(),
                        format!("{}", k + 1),
                        format!("{:.4}", ra_secs),
                        format!("{:.4}", st.seconds),
                        format!("{:.2}x", st.seconds / ra_secs),
                        format!("{:.3}", size_ratio),
                    ]);
                }
                None => {
                    t.row_strings(vec![
                        format!("{}", ra.eps),
                        ra.start.label().into(),
                        "never".into(),
                        "-".into(),
                        format!("{:.4}", st.seconds),
                        "-".into(),
                        "-".into(),
                    ]);
                }
            }
        }
        t
    }

    /// The per-phase breakdown table (Figs. 5/7/9).
    pub fn breakdown_table(&self) -> Table {
        let mut header: Vec<String> = vec!["eps".into(), "series".into(), "total_s".into()];
        for p in ALL_PHASES {
            header.push(p.label().to_string());
        }
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(
            &format!("{}: running-time breakdown by phase (seconds)", self.name),
            &header_refs,
        );
        let phase_cells = |tm: &ratucker::Timings| -> Vec<String> {
            ALL_PHASES
                .iter()
                .map(|&p| format!("{:.4}", tm.secs(p)))
                .collect()
        };
        for st in &self.sthosvd {
            let mut row = vec![
                format!("{}", st.eps),
                "STHOSVD".to_string(),
                format!("{:.4}", st.timings.total_secs()),
            ];
            row.extend(phase_cells(&st.timings));
            t.row_strings(row);
        }
        for ra in &self.ra {
            let mut row = vec![
                format!("{}", ra.eps),
                format!("RA({})", ra.start.label()),
                format!("{:.4}", ra.result_timings.total_secs()),
            ];
            row.extend(phase_cells(&ra.result_timings));
            t.row_strings(row);
        }
        t
    }
}
