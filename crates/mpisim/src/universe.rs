//! Launching a set of ranks.
//!
//! [`Universe::run`] plays the role of `mpirun`: it spawns one OS thread
//! per rank, hands each a world [`Comm`], and collects the per-rank return
//! values. [`Universe::try_run`] is the fault-tolerant variant: a rank
//! panic (including injected crashes from a [`FaultPlan`]) is caught and
//! returned as a [`RankFailure`] carrying the original panic payload,
//! while the crashed rank is retired on the fabric so surviving ranks
//! observe [`crate::CommError::PeerClosed`] instead of hanging.

use crate::comm::Comm;
use crate::fabric::{Adversary, Fabric, SchedulePolicy, TrafficStats};
use crate::fault::{FaultPlan, RankFailure};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::Duration;

std::thread_local! {
    /// Set while a rank thread runs under a universe: the process-wide
    /// panic hook stays quiet for these threads because the panic is
    /// captured (and re-raised or reported) by the launcher.
    static RANK_THREAD: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// The trace session tag of a thread that is not a rank thread
    /// (0 = none); see [`adopt_trace_tag`].
    static TRACE_TAG: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// On a rank thread, the fabric of the universe it runs under: its
    /// trace tag is the thread's.
    static RANK_FABRIC: std::cell::RefCell<Option<Arc<Fabric>>> =
        const { std::cell::RefCell::new(None) };
}

/// The trace session tag of the calling thread: its universe's on a
/// rank thread, else the tag it last adopted.
fn current_trace_tag() -> u64 {
    RANK_FABRIC
        .with(|f| f.borrow().as_ref().map(|f| f.trace_tag()))
        .unwrap_or_else(|| TRACE_TAG.with(|t| t.get()))
}

/// Puts the calling thread into trace session `tag` (0 = none); on a
/// rank thread, its whole universe joins. Universes the thread creates
/// or runs afterwards carry the tag on their fabric
/// ([`Fabric::trace_tag`]), and so do their rank threads. The tag is
/// opaque here: a tracer opens a session by adopting a fresh nonzero id
/// and closes it by adopting 0, and records only spans whose fabric
/// carries its id.
pub fn adopt_trace_tag(tag: u64) {
    TRACE_TAG.with(|t| t.set(tag));
    RANK_FABRIC.with(|f| {
        if let Some(fabric) = f.borrow().as_ref() {
            fabric.set_trace_tag(tag);
        }
    });
}

/// Installs (once) a panic hook that suppresses the default "thread
/// panicked" stderr noise for rank threads, whose panics are captured.
fn install_quiet_hook() {
    static HOOK: std::sync::OnceLock<()> = std::sync::OnceLock::new();
    HOOK.get_or_init(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !RANK_THREAD.with(|f| f.get()) || std::env::var_os("MPISIM_RANK_BACKTRACE").is_some()
            {
                default(info);
            }
        }));
    });
}

/// Stringifies a panic payload, preserving `&str` / `String` payloads.
fn payload_to_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Outcome summary of [`Universe::explore`]. All assertions happen
/// *inside* `explore` (it panics on any divergence, deadlock, or
/// accounting violation), so the report is purely diagnostic.
#[derive(Clone, Debug)]
pub struct ExploreReport {
    /// The schedule policies exercised, in order; index 0 is the
    /// unperturbed baseline every later schedule is compared against.
    pub policies: Vec<SchedulePolicy>,
    /// Ranks that failed — identically under every schedule — if the
    /// workload deliberately includes failing ranks (fault injection).
    pub failed_ranks: Vec<usize>,
}

/// The deterministic schedule suite [`Universe::explore`] runs: the `Os`
/// baseline, the LIFO, crossing-delay, and wait-starving overlap
/// adversaries, starvation of each rank in turn, then seeded-random
/// schedules derived from `seed`. All `n_schedules` entries are pairwise
/// distinct.
pub fn schedule_suite(p: usize, n_schedules: usize, seed: u64) -> Vec<SchedulePolicy> {
    (0..n_schedules)
        .map(|i| match i {
            0 => SchedulePolicy::Os,
            1 => SchedulePolicy::Adversarial(Adversary::Lifo),
            2 => SchedulePolicy::Adversarial(Adversary::CrossDelay),
            3 => SchedulePolicy::Adversarial(Adversary::StarveWaits),
            _ if i - 4 < p => SchedulePolicy::Adversarial(Adversary::StarveRank { rank: i - 4 }),
            _ => SchedulePolicy::SeededRandom {
                seed: seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(i as u64),
            },
        })
        .collect()
}

/// Sentinel for "no budget" in [`Universe`]'s atomic budget cell.
const NO_BUDGET: u64 = u64::MAX;

/// A set of `p` ranks over a shared fabric.
pub struct Universe {
    fabric: Arc<Fabric>,
    /// Per-rank memory budget installed on each rank thread's ledger at
    /// spawn ([`NO_BUDGET`] = unbudgeted).
    mem_budget: std::sync::atomic::AtomicU64,
    /// Degradation rung each rank's ledger starts on (admission control
    /// may start a job pre-degraded instead of rejecting it).
    start_rung: std::sync::atomic::AtomicU8,
}

impl Universe {
    /// Creates a universe with `p` ranks. Created on a thread in a
    /// trace session, it joins that session (see [`adopt_trace_tag`]).
    pub fn new(p: usize) -> Universe {
        let fabric = Fabric::new(p);
        fabric.set_trace_tag(current_trace_tag());
        Universe {
            fabric,
            mem_budget: std::sync::atomic::AtomicU64::new(NO_BUDGET),
            start_rung: std::sync::atomic::AtomicU8::new(0),
        }
    }

    /// Creates a universe with `p` ranks and a fault-injection plan
    /// attached to its fabric.
    pub fn with_fault_plan(p: usize, plan: FaultPlan) -> Universe {
        let u = Universe::new(p);
        u.fabric.attach_fault_plan(plan);
        u
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.fabric.size()
    }

    /// Traffic counters accumulated by everything run on this universe.
    pub fn traffic(&self) -> &TrafficStats {
        self.fabric.stats()
    }

    /// The underlying fabric (for timeout / fault-plan configuration).
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// Overrides the blocked-receive timeout for all ranks. The default
    /// is 120 s, or the value of `MPISIM_RECV_TIMEOUT_SECS` if set.
    pub fn set_recv_timeout(&self, timeout: Duration) -> &Universe {
        self.fabric.set_recv_timeout(timeout);
        self
    }

    /// Attaches (or replaces) a fault-injection plan.
    pub fn set_fault_plan(&self, plan: FaultPlan) -> &Universe {
        self.fabric.attach_fault_plan(plan);
        self
    }

    /// Removes the fault-injection plan, if any. A long-lived universe
    /// needs this between jobs: `reset_for_run` re-arms the plan's op
    /// counters on every run, so a one-shot injected crash would fire
    /// again on the *next* job unless the plan is cleared once consumed.
    pub fn clear_fault_plan(&self) -> &Universe {
        self.fabric.clear_fault_plan();
        self
    }

    /// Installs (or clears, with `None`) per-collective deadline budgets
    /// for all ranks (see [`crate::DeadlinePolicy`]).
    pub fn set_deadline_policy(&self, policy: Option<crate::DeadlinePolicy>) -> &Universe {
        self.fabric.set_deadline_policy(policy);
        self
    }

    /// Installs (or clears, with `None`) the retry-with-backoff policy
    /// for all ranks (see [`crate::RetryPolicy`]).
    pub fn set_retry_policy(&self, policy: Option<crate::RetryPolicy>) -> &Universe {
        self.fabric.set_retry_policy(policy);
        self
    }

    /// Installs (or, with [`SchedulePolicy::Os`], clears) a schedule
    /// perturbation policy for subsequent runs.
    pub fn set_schedule_policy(&self, policy: SchedulePolicy) -> &Universe {
        self.fabric.set_schedule_policy(policy);
        self
    }

    /// Installs (or clears, with `None`) a per-rank memory budget:
    /// every rank thread spawned by subsequent runs starts with its
    /// `ratucker-mem` ledger reset and this budget in force.
    pub fn set_mem_budget(&self, budget: Option<u64>) -> &Universe {
        self.mem_budget.store(
            budget.unwrap_or(NO_BUDGET),
            std::sync::atomic::Ordering::Relaxed,
        );
        self
    }

    /// Sets the degradation rung rank ledgers start on (default 0).
    /// Admission control uses this to start a tight-budget job already
    /// degraded instead of rejecting it outright.
    pub fn set_start_rung(&self, rung: u8) -> &Universe {
        self.start_rung
            .store(rung, std::sync::atomic::Ordering::Relaxed);
        self
    }

    /// Replays `f` under `n_schedules` distinct deterministic message
    /// schedules (see [`schedule_suite`]) and asserts that the program is
    /// schedule-independent:
    ///
    /// - **bit-identical results** — every rank's return value equals the
    ///   baseline (`Os`) schedule's, compared with `PartialEq` (return
    ///   raw factor data, not summaries, to make this a bitwise check);
    /// - **identical failure sets** — ranks that panic (e.g. injected
    ///   crashes) fail on the same rank with the same message everywhere;
    /// - **deadlock-freedom** — no rank times out on a receive under any
    ///   schedule;
    /// - **traffic invariants** — the fabric's accounting invariant
    ///   (`attempted == delivered + dropped`) and per-kind partition
    ///   invariant hold after every run.
    ///
    /// Panics with a message naming the offending schedule on any
    /// violation; otherwise returns a diagnostic [`ExploreReport`]. The
    /// previously installed schedule policy is replaced, and the fabric
    /// is left back on [`SchedulePolicy::Os`].
    pub fn explore<R, F>(&self, n_schedules: usize, seed: u64, f: F) -> ExploreReport
    where
        R: Send + PartialEq + std::fmt::Debug,
        F: Fn(Comm) -> R + Sync,
    {
        assert!(n_schedules > 0, "explore needs at least one schedule");
        let policies = schedule_suite(self.size(), n_schedules, seed);
        let mut baseline: Option<Vec<Result<R, RankFailure>>> = None;
        for (i, &policy) in policies.iter().enumerate() {
            self.fabric.set_schedule_policy(policy);
            let out = self.try_run(&f);
            self.fabric.set_schedule_policy(SchedulePolicy::Os);
            for (rank, res) in out.iter().enumerate() {
                if let Err(failure) = res {
                    assert!(
                        !failure.message.contains("timed out waiting"),
                        "schedule {i} ({policy:?}): rank {rank} deadlocked: {}",
                        failure.message
                    );
                }
            }
            // The fabric is quiescent between runs, so both counter
            // invariants must hold exactly (they are cumulative across
            // schedules; monotonicity keeps the checks valid).
            if let Err((attempted, delivered, dropped)) = self.fabric.stats().check_invariant() {
                panic!(
                    "schedule {i} ({policy:?}): traffic accounting violated: \
                     attempted {attempted} != delivered {delivered} + dropped {dropped}"
                );
            }
            if let Err(err) = self.fabric.stats().check_kind_partition() {
                panic!("schedule {i} ({policy:?}): kind-partition invariant violated: {err:?}");
            }
            match &baseline {
                None => baseline = Some(out),
                Some(base) => {
                    for (rank, (b, o)) in base.iter().zip(&out).enumerate() {
                        match (b, o) {
                            (Ok(bv), Ok(ov)) => assert!(
                                bv == ov,
                                "schedule {i} ({policy:?}): rank {rank} diverged from the \
                                 baseline schedule:\n  baseline: {bv:?}\n  got:      {ov:?}"
                            ),
                            (Err(bf), Err(of)) => assert!(
                                bf.message == of.message,
                                "schedule {i} ({policy:?}): rank {rank} failed differently: \
                                 baseline {:?}, got {:?}",
                                bf.message,
                                of.message
                            ),
                            (Ok(_), Err(of)) => panic!(
                                "schedule {i} ({policy:?}): rank {rank} failed where the \
                                 baseline succeeded: {}",
                                of.message
                            ),
                            (Err(bf), Ok(_)) => panic!(
                                "schedule {i} ({policy:?}): rank {rank} succeeded where the \
                                 baseline failed: {}",
                                bf.message
                            ),
                        }
                    }
                }
            }
        }
        let failed_ranks = baseline
            .map(|base| {
                base.iter()
                    .enumerate()
                    .filter_map(|(rank, res)| res.is_err().then_some(rank))
                    .collect()
            })
            .unwrap_or_default();
        ExploreReport {
            policies,
            failed_ranks,
        }
    }

    /// Runs `f` on every rank concurrently, catching per-rank panics.
    ///
    /// Returns one entry per rank, in rank order: `Ok(result)` for ranks
    /// that returned, `Err(RankFailure)` — with the original panic
    /// payload preserved — for ranks that panicked (organically or via
    /// an injected crash). A panicking rank is retired on the fabric
    /// immediately, so surviving ranks blocked on it fail fast with
    /// [`crate::CommError::PeerClosed`] rather than waiting out the
    /// receive timeout. Never aborts the process; never hangs longer
    /// than the receive timeout.
    ///
    /// Run from a thread in a trace session, the universe joins that
    /// session; run from a thread in none, it keeps the session it has
    /// (see [`adopt_trace_tag`]).
    pub fn try_run<R, F>(&self, f: F) -> Vec<Result<R, RankFailure>>
    where
        R: Send,
        F: Fn(Comm) -> R + Sync,
    {
        install_quiet_hook();
        let tag = current_trace_tag();
        if tag != 0 {
            self.fabric.set_trace_tag(tag);
        }
        self.fabric.reset_for_run();
        let p = self.fabric.size();
        let budget = self.mem_budget.load(std::sync::atomic::Ordering::Relaxed);
        let budget = (budget != NO_BUDGET).then_some(budget);
        let rung = self.start_rung.load(std::sync::atomic::Ordering::Relaxed);
        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..p)
                .map(|rank| {
                    let fabric = Arc::clone(&self.fabric);
                    scope.spawn(move || {
                        RANK_THREAD.with(|flag| flag.set(true));
                        RANK_FABRIC.with(|f| *f.borrow_mut() = Some(Arc::clone(&fabric)));
                        // Fresh ledger per run: replayed schedules (and
                        // reused universes) start from identical
                        // accounting state.
                        ratucker_mem::install_rank(budget, rung);
                        let comm = Comm::world(Arc::clone(&fabric), rank);
                        let result = std::panic::catch_unwind(AssertUnwindSafe(|| f(comm)));
                        if result.is_err() {
                            // Wake peers blocked on this rank.
                            fabric.retire(rank);
                        }
                        RANK_FABRIC.with(|f| f.borrow_mut().take());
                        result
                    })
                })
                .collect();
            handles
                .into_iter()
                .enumerate()
                .map(|(rank, h)| match h.join() {
                    Ok(Ok(value)) => Ok(value),
                    Ok(Err(payload)) => Err(RankFailure {
                        rank,
                        message: payload_to_string(payload.as_ref()),
                    }),
                    // The catch_unwind above makes this unreachable, but
                    // translate rather than abort if it ever happens.
                    Err(payload) => Err(RankFailure {
                        rank,
                        message: payload_to_string(payload.as_ref()),
                    }),
                })
                .collect()
        })
    }

    /// Runs `f` on every rank concurrently and returns the per-rank
    /// results in rank order. May be called repeatedly; traffic counters
    /// accumulate across calls.
    ///
    /// # Panics
    /// If any rank panics, re-raises with the rank id *and the rank's
    /// original panic message* attached.
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Comm) -> R + Sync,
    {
        self.try_run(f)
            .into_iter()
            .map(|res| match res {
                Ok(v) => v,
                Err(failure) => panic!("rank {} panicked: {}", failure.rank, failure.message),
            })
            .collect()
    }

    /// Convenience one-shot: build a universe, run, return results.
    pub fn launch<R, F>(p: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Comm) -> R + Sync,
    {
        Universe::new(p).run(f)
    }

    /// Convenience one-shot for the fault-tolerant path: build a
    /// universe with `plan` attached, `try_run`, return per-rank
    /// outcomes.
    pub fn try_launch<R, F>(p: usize, plan: FaultPlan, f: F) -> Vec<Result<R, RankFailure>>
    where
        R: Send,
        F: Fn(Comm) -> R + Sync,
    {
        Universe::with_fault_plan(p, plan).try_run(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_see_their_ids() {
        let ids = Universe::launch(5, |c| (c.rank(), c.size()));
        for (i, &(r, s)) in ids.iter().enumerate() {
            assert_eq!(r, i);
            assert_eq!(s, 5);
        }
    }

    #[test]
    fn universe_is_reusable() {
        let u = Universe::new(3);
        let a = u.run(|c| c.rank());
        let b = u.run(|c| c.rank() * 10);
        assert_eq!(a, vec![0, 1, 2]);
        assert_eq!(b, vec![0, 10, 20]);
    }

    #[test]
    fn single_rank_universe() {
        let out = Universe::launch(1, |c| {
            c.try_barrier().unwrap();
            c.rank()
        });
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn mem_budget_and_rung_are_installed_on_rank_threads() {
        let u = Universe::new(2);
        u.set_mem_budget(Some(4096)).set_start_rung(1);
        let out = u.run(|_c| (ratucker_mem::budget(), ratucker_mem::rung()));
        assert!(out.iter().all(|&(b, r)| b == Some(4096) && r == 1));
        // Clearing restores unbudgeted rung-0 ledgers on the next run.
        u.set_mem_budget(None).set_start_rung(0);
        let out = u.run(|_c| (ratucker_mem::budget(), ratucker_mem::rung()));
        assert!(out.iter().all(|&(b, r)| b.is_none() && r == 0));
    }

    #[test]
    fn mem_pressure_arms_the_budget_at_its_onset_op() {
        use crate::fault::FaultPlan;
        // Each barrier is a fixed number of fabric ops; after enough of
        // them every rank is past onset 4.
        let u = Universe::with_fault_plan(2, FaultPlan::quiet(3).with_mem_pressure(1, 4, 1 << 16));
        let out = u.run(|c| {
            let before = ratucker_mem::budget();
            for _ in 0..8 {
                c.try_barrier().unwrap();
            }
            (before, ratucker_mem::budget())
        });
        assert_eq!(out[0], (None, None), "unpressured rank stays unbudgeted");
        assert_eq!(out[1].0, None, "pressure must not fire before onset");
        assert_eq!(out[1].1, Some(1 << 16), "pressure armed at onset");
    }

    #[test]
    fn try_run_captures_panic_payload() {
        let u = Universe::new(2);
        let out = u.try_run(|c| {
            if c.rank() == 1 {
                panic!("deliberate failure on rank {}", c.rank());
            }
            c.rank()
        });
        assert_eq!(out[0].as_ref().unwrap(), &0);
        let failure = out[1].as_ref().unwrap_err();
        assert_eq!(failure.rank, 1);
        assert_eq!(failure.message, "deliberate failure on rank 1");
    }

    #[test]
    fn run_reraises_with_original_message() {
        let err = std::panic::catch_unwind(|| {
            Universe::launch(2, |c| {
                if c.rank() == 0 {
                    panic!("the real reason");
                }
                c.rank()
            });
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("rank 0 panicked") && msg.contains("the real reason"),
            "got: {msg}"
        );
    }

    #[test]
    fn crashed_peer_fails_fast_not_timeout() {
        use std::time::Instant;
        let u = Universe::new(2);
        u.set_recv_timeout(Duration::from_secs(30));
        let start = Instant::now();
        let out = u.try_run(|c| {
            if c.rank() == 0 {
                panic!("rank 0 dies before sending");
            }
            // Rank 1 blocks on rank 0; must fail fast via PeerClosed.
            c.try_recv::<f64>(0).unwrap_or_else(|e| panic!("{e}")).len()
        });
        assert!(out[0].is_err());
        assert!(out[1].is_err());
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "survivor should fail fast, took {:?}",
            start.elapsed()
        );
        let msg = &out[1].as_ref().unwrap_err().message;
        assert!(msg.contains("fabric channel closed"), "got: {msg}");
    }

    #[test]
    fn universe_usable_after_failed_try_run() {
        let u = Universe::new(2);
        let bad = u.try_run(|c| {
            if c.rank() == 0 {
                panic!("boom");
            }
            c.rank()
        });
        assert!(bad[0].is_err());
        let good = u.try_run(|c| {
            c.try_barrier().unwrap_or_else(|e| panic!("{e}"));
            c.rank() + 100
        });
        assert_eq!(
            good.into_iter().map(Result::unwrap).collect::<Vec<_>>(),
            vec![100, 101]
        );
    }

    #[test]
    fn explore_accepts_schedule_invariant_collectives() {
        let u = Universe::new(4);
        u.set_recv_timeout(Duration::from_secs(20));
        let report = u.explore(8, 42, |c| {
            let sum = c
                .try_allreduce(vec![c.rank() as f64 + 1.0, 2.5], |acc, x| {
                    for (a, b) in acc.iter_mut().zip(x) {
                        *a += *b;
                    }
                })
                .unwrap_or_else(|e| panic!("{e}"));
            c.try_barrier().unwrap_or_else(|e| panic!("{e}"));
            // Return raw bits so the comparison is bitwise, not approximate.
            sum.iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
        });
        assert_eq!(report.policies.len(), 8);
        assert!(report.failed_ranks.is_empty());
        // Suite structure: baseline first, every policy distinct.
        assert_eq!(report.policies[0], SchedulePolicy::Os);
        for (i, a) in report.policies.iter().enumerate() {
            for b in &report.policies[i + 1..] {
                assert_ne!(a, b, "schedules must be pairwise distinct");
            }
        }
    }

    #[test]
    fn explore_detects_divergent_results() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let u = Universe::new(2);
        // A deliberately schedule-dependent "program": rank 0's result
        // changes on every run, so the second schedule must diverge.
        let counter = AtomicU64::new(0);
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
            u.explore(3, 7, |c| {
                if c.rank() == 0 {
                    counter.fetch_add(1, Ordering::SeqCst)
                } else {
                    0
                }
            });
        }));
        let msg = payload_to_string(res.unwrap_err().as_ref());
        assert!(msg.contains("diverged"), "got: {msg}");
    }

    #[test]
    fn injected_crash_is_reported_per_rank() {
        use crate::fault::FaultPlan;
        let out = Universe::try_launch(2, FaultPlan::quiet(0).with_crash(1, 1), |c| {
            c.try_barrier().unwrap_or_else(|e| panic!("{e}"));
            c.rank()
        });
        assert!(out[0].is_err() || out[0].is_ok()); // rank 0: PeerClosed panic or completed
        let f = out[1].as_ref().unwrap_err();
        assert!(f.message.contains("injected crash"), "got: {}", f.message);
    }

    #[test]
    fn clear_fault_plan_disarms_before_next_run() {
        // Without the clear, reset_for_run re-arms the plan's op counters
        // and the second run would crash again.
        use crate::fault::FaultPlan;
        let u = Universe::new(2);
        u.set_fault_plan(FaultPlan::quiet(0).with_crash(1, 1));
        let first = u.try_run(|c| {
            c.try_barrier().unwrap_or_else(|e| panic!("{e}"));
            c.rank()
        });
        assert!(first[1].is_err(), "crash plan should fire on first run");
        u.clear_fault_plan();
        let second = u.try_run(|c| {
            c.try_barrier().unwrap_or_else(|e| panic!("{e}"));
            c.rank()
        });
        for (r, res) in second.iter().enumerate() {
            assert_eq!(*res.as_ref().expect("clean run after clear"), r);
        }
    }
}
