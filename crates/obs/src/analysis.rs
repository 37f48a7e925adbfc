//! Cross-rank trace analysis: per-phase load imbalance and a
//! critical-path estimate.
//!
//! The input is a completed [`Trace`](crate::trace::Trace). Spans are
//! grouped by phase label; per phase the analysis reduces each rank's
//! **exclusive** (self) time and bytes, then reports:
//!
//! * **imbalance** = max-over-ranks / mean-over-ranks of self time —
//!   1.0 is perfectly balanced, `P` is one rank doing everything;
//! * **critical path** = Σ over phases of the *slowest* rank's self
//!   time — the bulk-synchronous lower bound on wall time if every
//!   phase ends with a barrier (the paper's collectives make each
//!   sweep phase effectively bulk-synchronous).

use crate::trace::{SpanEvent, Trace};
use ratucker_mpi::KindSnapshot;
use std::fmt;

/// Per-phase statistics over all ranks.
#[derive(Clone, Debug)]
pub struct PhaseStat {
    /// Phase label.
    pub phase: &'static str,
    /// Number of spans with this label (all ranks).
    pub spans: usize,
    /// Exclusive seconds per rank (index = world rank).
    pub self_secs: Vec<f64>,
    /// Exclusive bytes sent per rank (index = world rank).
    pub self_bytes: Vec<u64>,
    /// Exclusive per-kind traffic summed over ranks.
    pub traffic: KindSnapshot,
}

impl PhaseStat {
    /// Total exclusive seconds across ranks.
    pub fn total_secs(&self) -> f64 {
        self.self_secs.iter().sum()
    }

    /// Total exclusive bytes across ranks.
    pub fn total_bytes(&self) -> u64 {
        self.self_bytes.iter().sum()
    }

    /// Slowest rank's exclusive seconds.
    pub fn max_secs(&self) -> f64 {
        self.self_secs.iter().cloned().fold(0.0, f64::max)
    }

    /// Load imbalance: max/mean of per-rank exclusive seconds.
    /// 1.0 when perfectly balanced; `NaN`-free (returns 1.0 when the
    /// phase did no work at all).
    pub fn imbalance(&self) -> f64 {
        let n = self.self_secs.len();
        if n == 0 {
            return 1.0;
        }
        let mean = self.total_secs() / n as f64;
        if mean <= 0.0 {
            1.0
        } else {
            self.max_secs() / mean
        }
    }
}

/// A full per-phase breakdown of a trace.
#[derive(Clone, Debug)]
pub struct PhaseBreakdown {
    /// Number of ranks in the trace.
    pub ranks: usize,
    /// Phases in first-appearance order.
    pub phases: Vec<PhaseStat>,
}

impl PhaseBreakdown {
    /// Builds the breakdown from a trace.
    pub fn from_trace(trace: &Trace) -> PhaseBreakdown {
        PhaseBreakdown::from_events(&trace.events, trace.ranks())
    }

    /// Builds the breakdown from raw span events over `ranks` ranks.
    pub fn from_events(events: &[SpanEvent], ranks: usize) -> PhaseBreakdown {
        let mut phases: Vec<PhaseStat> = Vec::new();
        for e in events {
            if e.rank >= ranks {
                continue;
            }
            let stat = match phases.iter_mut().find(|s| s.phase == e.phase) {
                Some(s) => s,
                None => {
                    phases.push(PhaseStat {
                        phase: e.phase,
                        spans: 0,
                        self_secs: vec![0.0; ranks],
                        self_bytes: vec![0; ranks],
                        traffic: KindSnapshot::default(),
                    });
                    phases.last_mut().expect("just pushed")
                }
            };
            stat.spans += 1;
            stat.self_secs[e.rank] += e.self_dur_us as f64 * 1e-6;
            stat.self_bytes[e.rank] += e.traffic.total_bytes();
            stat.traffic.merge(&e.traffic);
        }
        PhaseBreakdown { ranks, phases }
    }

    /// Looks up a phase by label.
    pub fn phase(&self, label: &str) -> Option<&PhaseStat> {
        self.phases.iter().find(|s| s.phase == label)
    }

    /// Bulk-synchronous critical-path estimate: Σ over phases of the
    /// slowest rank's exclusive time.
    pub fn critical_path_secs(&self) -> f64 {
        self.phases.iter().map(|s| s.max_secs()).sum()
    }

    /// Mean per-rank total exclusive time (the "perfect balance" wall
    /// time for the same work).
    pub fn balanced_secs(&self) -> f64 {
        if self.ranks == 0 {
            return 0.0;
        }
        self.phases.iter().map(|s| s.total_secs()).sum::<f64>() / self.ranks as f64
    }
}

impl fmt::Display for PhaseBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<14} {:>7} {:>11} {:>11} {:>9} {:>12}",
            "phase", "spans", "max s", "mean s", "imbal", "bytes"
        )?;
        for s in &self.phases {
            let mean = if self.ranks == 0 {
                0.0
            } else {
                s.total_secs() / self.ranks as f64
            };
            writeln!(
                f,
                "{:<14} {:>7} {:>11.6} {:>11.6} {:>9.3} {:>12}",
                s.phase,
                s.spans,
                s.max_secs(),
                mean,
                s.imbalance(),
                s.total_bytes()
            )?;
        }
        write!(
            f,
            "critical path {:.6} s   balanced {:.6} s",
            self.critical_path_secs(),
            self.balanced_secs()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(rank: usize, phase: &'static str, self_us: u64, bytes: u64) -> SpanEvent {
        let mut traffic = KindSnapshot::default();
        traffic.bytes[0] = bytes;
        traffic.messages[0] = u64::from(bytes > 0);
        SpanEvent {
            rank,
            phase,
            mode: None,
            depth: 0,
            t_start_us: 0,
            dur_us: self_us,
            self_dur_us: self_us,
            traffic,
            gross_bytes: bytes,
            gross_messages: u64::from(bytes > 0),
            mem_hwm_bytes: 0,
            mem_live_bytes: 0,
        }
    }

    #[test]
    fn imbalance_and_critical_path() {
        // Phase A: rank0 = 3s, rank1 = 1s → mean 2, max 3, imbalance 1.5.
        // Phase B: both 1s → imbalance 1.0.
        let events = vec![
            ev(0, "A", 3_000_000, 100),
            ev(1, "A", 1_000_000, 50),
            ev(0, "B", 1_000_000, 0),
            ev(1, "B", 1_000_000, 0),
        ];
        let b = PhaseBreakdown::from_events(&events, 2);
        let a = b.phase("A").unwrap();
        assert!((a.imbalance() - 1.5).abs() < 1e-12);
        assert_eq!(a.total_bytes(), 150);
        assert!((b.phase("B").unwrap().imbalance() - 1.0).abs() < 1e-12);
        // Critical path: 3 (A's max) + 1 (B's max) = 4 s.
        assert!((b.critical_path_secs() - 4.0).abs() < 1e-12);
        // Balanced: (4 + 2) / 2 = 3 s.
        assert!((b.balanced_secs() - 3.0).abs() < 1e-12);
        // Display renders without panicking and mentions both phases.
        let text = format!("{b}");
        assert!(text.contains("A") && text.contains("critical path"));
    }

    #[test]
    fn empty_and_idle_phases_are_nan_free() {
        let b = PhaseBreakdown::from_events(&[], 0);
        assert_eq!(b.critical_path_secs(), 0.0);
        assert_eq!(b.balanced_secs(), 0.0);
        let idle = vec![ev(0, "idle", 0, 0)];
        let b = PhaseBreakdown::from_events(&idle, 1);
        assert_eq!(b.phase("idle").unwrap().imbalance(), 1.0);
    }
}
