//! Typed communication errors and deterministic fault injection.
//!
//! The paper's algorithms target thousands of ranks, where message loss,
//! stragglers, and node failure are routine. This module gives the
//! simulated fabric the same failure surface:
//!
//! - [`CommError`] — the typed error every fallible fabric / collective
//!   operation returns instead of panicking;
//! - [`FaultPlan`] — a seeded, fully deterministic description of the
//!   faults to inject (per-link delay, message drop, payload corruption,
//!   rank crash at operation *N*). Every decision is a pure function of
//!   `(seed, src, dst, per-link message index)` or `(seed, rank, op
//!   index)`, so any failing chaos scenario replays bit-identically from
//!   its plan;
//! - [`RankFailure`] — the per-rank outcome captured by
//!   [`crate::Universe::try_run`] when a rank panics instead of
//!   returning.

use std::fmt;
use std::time::Duration;

/// Error type of every fabric and collective operation.
///
/// A caller that cannot recover panics with the `Display` text
/// (`panic!("{e}")`), so a rank failure's message names the fault: for
/// example [`crate::Universe::explore`] recognises a deadlock by the
/// [`CommError::Timeout`] text `"timed out waiting"`.
#[derive(Clone, Debug, PartialEq)]
pub enum CommError {
    /// A blocked receive exceeded the fabric's receive timeout — the
    /// moral equivalent of a deadlock or a lost message.
    Timeout {
        /// World rank of the expected sender.
        src: usize,
        /// World rank of the receiver that timed out.
        dst: usize,
        /// How long the receiver waited.
        waited: Duration,
    },
    /// The peer rank retired (panicked / crashed) while this rank was
    /// sending to or receiving from it.
    PeerClosed {
        /// World rank of the retired peer.
        peer: usize,
        /// World rank of the surviving side.
        me: usize,
    },
    /// The received payload's element type did not match the expected
    /// one — mismatched collective calls, MPI's datatype error.
    TypeMismatch {
        /// World rank of the sender.
        src: usize,
        /// World rank of the receiver.
        dst: usize,
        /// The element type the receiver asked for.
        expected: &'static str,
    },
    /// A fault injected by the attached [`FaultPlan`].
    Injected {
        /// Rank at which the fault fired.
        rank: usize,
        /// Human-readable description of the injected fault.
        what: String,
    },
    /// Numerical corruption (NaN/Inf) detected by a kernel-boundary
    /// screen — either in this rank's local input block or in a
    /// collective's result (a corrupted payload from another rank).
    Corrupted {
        /// World rank that detected the corruption.
        rank: usize,
        /// Where the corruption was found.
        what: String,
    },
    /// *Finite* silent data corruption caught by an ABFT checksum: the
    /// post-allreduce verification of a checksum-augmented kernel found a
    /// mismatch larger than the numerical tolerance, even though every
    /// value is finite (so the NaN/Inf screens could not have fired).
    SilentCorruption {
        /// Tensor mode of the contraction whose checksum failed.
        mode: usize,
        /// Relative checksum mismatch observed.
        rel_err: f64,
    },
    /// The communicator was revoked by a peer that observed a failure
    /// (the ULFM `MPI_Comm_revoke` notice): every pending and future
    /// operation on it aborts so all survivors reach the agreement
    /// collective promptly instead of waiting out timeouts.
    Revoked {
        /// World rank observing the revocation.
        rank: usize,
    },
    /// A payload arrived with the right element type but the wrong
    /// element count — the signature of a dropped or misrouted message
    /// desynchronizing a point-to-point channel (the *next* payload on
    /// the channel was consumed in the lost one's place). Failure-class:
    /// the recovery path's epoch bump quarantines the stale traffic.
    SizeMismatch {
        /// World rank of the sender.
        src: usize,
        /// World rank of the receiver.
        dst: usize,
        /// Element count the receiver expected.
        expected: usize,
        /// Element count actually received.
        got: usize,
    },
    /// A receive exceeded its per-collective deadline budget (the
    /// [`crate::DeadlinePolicy`] layer *under* the global recv timeout):
    /// the peer is slow-but-alive — a gray failure — and the caller gets
    /// to react long before the coarse [`CommError::Timeout`] would fire.
    DeadlineExceeded {
        /// World rank of the expected sender (the suspected straggler).
        src: usize,
        /// World rank of the receiver whose budget expired.
        dst: usize,
        /// The collective kind whose budget expired.
        kind: &'static str,
        /// The per-operation budget that was exhausted.
        budget: Duration,
    },
    /// The rank was demoted by the failure detector (straggler demotion
    /// or a deadline-blame eviction): its peers have agreed to treat it
    /// as failed, and every further fabric operation it issues — or that
    /// targets it — aborts with this error so the shrink machinery takes
    /// over instead of a stall.
    Demoted {
        /// World rank that was demoted.
        rank: usize,
    },
    /// An allocation was refused by the rank's memory-budget ledger
    /// (`ratucker-mem`): the requested working set would not fit under
    /// the budget. A *resource* failure, not a data failure — the
    /// recovery loop reacts by stepping down the graceful-degradation
    /// ladder (smaller staging, streamed accumulation, frozen rank
    /// growth) instead of aborting the process the way a real OOM would.
    BudgetExceeded {
        /// World rank whose budget was exhausted.
        rank: usize,
        /// Allocation phase (ledger attribution) of the refused charge.
        phase: &'static str,
        /// Bytes the refused charge asked for.
        requested: u64,
        /// Live ledger bytes at the time of the refusal.
        live: u64,
        /// The budget in force, in bytes.
        budget: u64,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Timeout { src, dst, waited } => write!(
                f,
                "rank {dst} timed out waiting for a message from rank {src} \
                 (mismatched collective?) after {:.1}s",
                waited.as_secs_f64()
            ),
            CommError::PeerClosed { peer, me } => write!(
                f,
                "fabric channel closed: a rank panicked \
                 (rank {peer} retired; observed by rank {me})"
            ),
            CommError::TypeMismatch { src, dst, expected } => write!(
                f,
                "rank {dst} received a message from rank {src} \
                 with unexpected element type {expected}"
            ),
            CommError::Injected { rank, what } => {
                write!(f, "injected fault at rank {rank}: {what}")
            }
            CommError::Corrupted { rank, what } => {
                write!(f, "rank {rank} detected corrupted data: {what}")
            }
            CommError::SilentCorruption { mode, rel_err } => write!(
                f,
                "ABFT checksum mismatch in mode {mode} \
                 (silent data corruption, relative error {rel_err:.3e})"
            ),
            CommError::Revoked { rank } => write!(
                f,
                "communicator revoked for fault recovery (observed by rank {rank})"
            ),
            // `src == dst` marks a self-detected configuration mismatch
            // (e.g. a grid shape that disagrees with its communicator)
            // rather than a wrong-sized message from a peer.
            CommError::SizeMismatch {
                src,
                dst,
                expected,
                got,
            } if src == dst => write!(
                f,
                "rank {dst} detected a size mismatch: got {got}, expected {expected} \
                 (configuration disagrees with the communicator?)"
            ),
            CommError::SizeMismatch {
                src,
                dst,
                expected,
                got,
            } => write!(
                f,
                "rank {dst} received a wrong-sized payload from rank {src} \
                 (lost or misrouted message?): got {got} elements, expected {expected}"
            ),
            CommError::DeadlineExceeded {
                src,
                dst,
                kind,
                budget,
            } => write!(
                f,
                "rank {dst} exceeded the {kind} deadline budget of {:.3}s \
                 waiting for rank {src} (slow-but-alive peer?)",
                budget.as_secs_f64()
            ),
            CommError::Demoted { rank } => write!(
                f,
                "rank {rank} was demoted by the failure detector \
                 (straggler eviction)"
            ),
            CommError::BudgetExceeded {
                rank,
                phase,
                requested,
                live,
                budget,
            } => write!(
                f,
                "rank {rank} exceeded its memory budget in phase {phase}: \
                 requested {requested} B with {live} B live against a {budget} B budget"
            ),
        }
    }
}

impl std::error::Error for CommError {}

/// Outcome of a rank that panicked under [`crate::Universe::try_run`].
#[derive(Clone, Debug)]
pub struct RankFailure {
    /// The rank that failed.
    pub rank: usize,
    /// The panic payload, stringified (`&str` / `String` payloads are
    /// preserved verbatim).
    pub message: String,
}

impl fmt::Display for RankFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rank {} panicked: {}", self.rank, self.message)
    }
}

impl std::error::Error for RankFailure {}

/// How an injected corruption mangles an `f64`/`f32` payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CorruptMode {
    /// Flip one mantissa/exponent bit of one element (silent data
    /// corruption — the value stays "plausible").
    BitFlip,
    /// Overwrite one element with NaN (detectable by the numerical
    /// guards at kernel boundaries).
    NanInject,
    /// Flip one *exponent* bit of one element, with a guaranteed-finite
    /// result: the value changes by a large power-of-two factor but stays
    /// an ordinary float, so NaN/Inf screens provably cannot catch it —
    /// only the ABFT checksums can.
    ExponentFlip,
}

/// Deterministic, seeded fault-injection plan attachable to a fabric.
///
/// All probabilities are evaluated with a counter-based hash, never an
/// RNG stream shared across threads, so injection decisions are
/// independent of thread scheduling: message *k* on link `src→dst` is
/// delayed/dropped/corrupted iff `hash(seed, src, dst, k)` says so,
/// regardless of when it is sent.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Seed from which every injection decision is derived.
    pub seed: u64,
    /// Probability that a message is delayed, and the maximum delay.
    pub delay: Option<(f64, Duration)>,
    /// Probability that a message is silently dropped (the receiver
    /// surfaces this as [`CommError::Timeout`]).
    pub drop: Option<f64>,
    /// Probability that an `f64`/`f32` payload is corrupted, and how.
    pub corrupt: Option<(f64, CorruptMode)>,
    /// `(rank, op)` pairs: rank `rank` panics ("crashes") when it issues
    /// its `op`-th fabric operation (sends + receives, 1-based).
    pub crashes: Vec<(usize, u64)>,
    /// `(rank, delay)` pairs: a *persistently slow* rank — every fabric
    /// rendezvous (send and receive) it participates in is delayed by
    /// the fixed duration. The gray-failure analogue of a crash plan:
    /// the rank stays alive and correct, just late, every single time.
    pub slow_ranks: Vec<(usize, Duration)>,
    /// `(rank, op)` pairs: suppress `slow_ranks` delays for `rank`
    /// until it has issued `op` fabric operations (sends + receives,
    /// 1-based) — models a node that *degrades mid-run* (thermal
    /// throttling, a failing disk) rather than booting slow. First
    /// match wins; absent means slow from the first operation.
    pub slow_onset: Vec<(usize, u64)>,
    /// `(src, dst, prob)` triples: a *flaky link* — messages on the
    /// specific `src→dst` link are dropped with probability `prob`,
    /// decided by the same counter-based hash as [`FaultPlan::drop_for`]
    /// (distinct salt), so flaky-link runs replay bit-identically.
    pub flaky_links: Vec<(usize, usize, f64)>,
    /// `(rank, onset, budget)` triples: *memory pressure* — when `rank`
    /// issues its `onset`-th fabric operation (sends + receives,
    /// 1-based, the same counter [`FaultPlan::slow_delay_at`] gates on)
    /// its `ratucker-mem` ledger budget shrinks to `budget` bytes.
    /// Models a co-tenant landing on the node mid-run. Deterministic:
    /// the onset is a program-order operation count, not wall time.
    pub mem_pressure: Vec<(usize, u64, u64)>,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a baseline).
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            delay: None,
            drop: None,
            corrupt: None,
            crashes: Vec::new(),
            slow_ranks: Vec::new(),
            slow_onset: Vec::new(),
            flaky_links: Vec::new(),
            mem_pressure: Vec::new(),
        }
    }

    /// Adds random per-message delays: each message is delayed with
    /// probability `prob` by a deterministic duration in `[0, max]`.
    pub fn with_delays(mut self, prob: f64, max: Duration) -> FaultPlan {
        self.delay = Some((prob, max));
        self
    }

    /// Adds random message drops with probability `prob`.
    pub fn with_drops(mut self, prob: f64) -> FaultPlan {
        self.drop = Some(prob);
        self
    }

    /// Adds random payload corruption with probability `prob`.
    pub fn with_corruption(mut self, prob: f64, mode: CorruptMode) -> FaultPlan {
        self.corrupt = Some((prob, mode));
        self
    }

    /// Schedules rank `rank` to crash at its `op`-th fabric operation
    /// (1-based across sends and receives).
    pub fn with_crash(mut self, rank: usize, op: u64) -> FaultPlan {
        self.crashes.push((rank, op));
        self
    }

    /// Marks `rank` as persistently slow: every fabric rendezvous it
    /// participates in is delayed by `delay`.
    pub fn with_slow_rank(mut self, rank: usize, delay: Duration) -> FaultPlan {
        self.slow_ranks.push((rank, delay));
        self
    }

    /// Delays the onset of `rank`'s persistent slowness until its
    /// `op`-th fabric operation (1-based): before that the rank runs at
    /// full speed. Lets a scenario get through setup collectives before
    /// the node turns dead-slow.
    pub fn with_slow_onset(mut self, rank: usize, op: u64) -> FaultPlan {
        self.slow_onset.push((rank, op));
        self
    }

    /// Marks the `src→dst` link as flaky: each message on it is dropped
    /// with probability `prob` (deterministic, counter-hashed).
    pub fn with_flaky_link(mut self, src: usize, dst: usize, prob: f64) -> FaultPlan {
        self.flaky_links.push((src, dst, prob));
        self
    }

    /// Schedules memory pressure on `rank`: from its `onset`-th fabric
    /// operation (1-based) onward, the rank's ledger budget is `budget`
    /// bytes. First entry for a rank wins.
    pub fn with_mem_pressure(mut self, rank: usize, onset: u64, budget: u64) -> FaultPlan {
        self.mem_pressure.push((rank, onset, budget));
        self
    }

    /// True if the plan can only reorder timing (delays, slow ranks),
    /// never lose or alter data — such a plan must be
    /// semantics-preserving. Flaky links lose messages, so they are not,
    /// even though retry-with-backoff can heal them in practice.
    pub fn is_semantics_preserving(&self) -> bool {
        self.drop.is_none()
            && self.corrupt.is_none()
            && self.crashes.is_empty()
            && self.flaky_links.is_empty()
            && self.mem_pressure.is_empty()
    }

    /// The scheduled crash op for `rank`, if any (first match wins).
    pub fn crash_op(&self, rank: usize) -> Option<u64> {
        self.crashes
            .iter()
            .find(|&&(r, _)| r == rank)
            .map(|&(_, op)| op)
    }

    /// Deterministic 64-bit hash for the `idx`-th message on `src→dst`.
    pub fn link_hash(&self, src: usize, dst: usize, idx: u64) -> u64 {
        let mut x = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((src as u64) << 32 | dst as u64)
            .wrapping_add(idx.wrapping_mul(0xD1B5_4A32_D192_ED03));
        // SplitMix64 finalizer.
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Converts a hash to a uniform probability in `[0, 1)`.
    pub fn unit(h: u64) -> f64 {
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Should message `idx` on `src→dst` be delayed, and by how much?
    pub fn delay_for(&self, src: usize, dst: usize, idx: u64) -> Option<Duration> {
        let (prob, max) = self.delay?;
        let h = self.link_hash(src, dst, idx ^ 0x00DE_1A4D);
        if Self::unit(h) < prob {
            let frac = Self::unit(self.link_hash(src, dst, idx ^ 0x5EED_0001));
            Some(Duration::from_nanos((max.as_nanos() as f64 * frac) as u64))
        } else {
            None
        }
    }

    /// Should message `idx` on `src→dst` be dropped?
    pub fn drop_for(&self, src: usize, dst: usize, idx: u64) -> bool {
        match self.drop {
            Some(prob) => {
                let h = self.link_hash(src, dst, idx ^ 0x0000_D401);
                Self::unit(h) < prob
            }
            None => false,
        }
    }

    /// Should message `idx` on `src→dst` be dropped by a *flaky link*?
    /// Distinct salt from [`FaultPlan::drop_for`], so the two drop
    /// sources decide independently.
    pub fn flaky_drop_for(&self, src: usize, dst: usize, idx: u64) -> bool {
        self.flaky_links
            .iter()
            .filter(|&&(s, d, _)| s == src && d == dst)
            .any(|&(_, _, prob)| {
                let h = self.link_hash(src, dst, idx ^ 0x00F1_AC4E);
                Self::unit(h) < prob
            })
    }

    /// Combined loss decision for message `idx` on `src→dst`: the plan's
    /// global drop probability *or* a flaky link. This is the predicate
    /// the send path (and its retry loop) evaluates per attempt.
    pub fn lost_for(&self, src: usize, dst: usize, idx: u64) -> bool {
        self.drop_for(src, dst, idx) || self.flaky_drop_for(src, dst, idx)
    }

    /// The persistent-slowness delay for `rank`, if any (delays from
    /// repeated entries accumulate). Ignores any onset — see
    /// [`FaultPlan::slow_delay_at`] for the onset-aware variant.
    pub fn slow_delay(&self, rank: usize) -> Option<Duration> {
        let total: Duration = self
            .slow_ranks
            .iter()
            .filter(|&&(r, _)| r == rank)
            .map(|&(_, d)| d)
            .sum();
        (total > Duration::ZERO).then_some(total)
    }

    /// The persistent-slowness delay applying to `rank`'s `op`-th fabric
    /// operation (1-based): `None` while the operation count is still
    /// below the rank's scheduled onset.
    pub fn slow_delay_at(&self, rank: usize, op: u64) -> Option<Duration> {
        let onset = self
            .slow_onset
            .iter()
            .find(|&&(r, _)| r == rank)
            .map_or(0, |&(_, at)| at);
        if op < onset {
            return None;
        }
        self.slow_delay(rank)
    }

    /// The memory budget applying to `rank`'s `op`-th fabric operation
    /// (1-based): `None` while the operation count is below the rank's
    /// scheduled pressure onset, or when the rank has no entry.
    pub fn mem_budget_at(&self, rank: usize, op: u64) -> Option<u64> {
        self.mem_pressure
            .iter()
            .find(|&&(r, _, _)| r == rank)
            .and_then(|&(_, onset, budget)| (op >= onset).then_some(budget))
    }

    /// Should message `idx` on `src→dst` be corrupted? Returns the mode
    /// and a hash to derive element/bit choice from.
    pub fn corrupt_for(&self, src: usize, dst: usize, idx: u64) -> Option<(CorruptMode, u64)> {
        let (prob, mode) = self.corrupt?;
        let h = self.link_hash(src, dst, idx ^ 0x00C0_44D7);
        if Self::unit(h) < prob {
            Some((mode, self.link_hash(src, dst, idx ^ 0x00C0_44D8)))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let a = FaultPlan::quiet(42)
            .with_delays(0.5, Duration::from_micros(500))
            .with_drops(0.1)
            .with_corruption(0.2, CorruptMode::NanInject);
        let b = a.clone();
        for idx in 0..200 {
            assert_eq!(a.delay_for(0, 1, idx), b.delay_for(0, 1, idx));
            assert_eq!(a.drop_for(1, 0, idx), b.drop_for(1, 0, idx));
            assert_eq!(
                a.corrupt_for(2, 3, idx).map(|(m, h)| (m as u8, h)),
                b.corrupt_for(2, 3, idx).map(|(m, h)| (m as u8, h))
            );
        }
    }

    #[test]
    fn probabilities_roughly_hold() {
        let plan = FaultPlan::quiet(7).with_drops(0.25);
        let n = 10_000;
        let dropped = (0..n).filter(|&i| plan.drop_for(0, 1, i)).count();
        let frac = dropped as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.03, "drop fraction {frac}");
    }

    #[test]
    fn quiet_plan_injects_nothing() {
        let plan = FaultPlan::quiet(3);
        assert!(plan.is_semantics_preserving());
        for idx in 0..100 {
            assert!(plan.delay_for(0, 1, idx).is_none());
            assert!(!plan.drop_for(0, 1, idx));
            assert!(plan.corrupt_for(0, 1, idx).is_none());
        }
        assert_eq!(plan.crash_op(0), None);
    }

    #[test]
    fn delay_only_plan_is_semantics_preserving() {
        let plan = FaultPlan::quiet(1).with_delays(0.9, Duration::from_micros(100));
        assert!(plan.is_semantics_preserving());
        assert!(!plan.clone().with_drops(0.1).is_semantics_preserving());
        assert!(!plan.clone().with_crash(0, 5).is_semantics_preserving());
        // Slow ranks only reorder timing; flaky links lose data.
        assert!(plan
            .clone()
            .with_slow_rank(1, Duration::from_micros(50))
            .is_semantics_preserving());
        assert!(!plan.with_flaky_link(0, 1, 0.2).is_semantics_preserving());
    }

    #[test]
    fn slow_onset_gates_the_delay_by_operation_count() {
        let plan = FaultPlan::quiet(7)
            .with_slow_rank(1, Duration::from_millis(5))
            .with_slow_onset(1, 10);
        assert_eq!(plan.slow_delay_at(1, 0), None);
        assert_eq!(plan.slow_delay_at(1, 9), None);
        assert_eq!(plan.slow_delay_at(1, 10), Some(Duration::from_millis(5)));
        assert_eq!(plan.slow_delay_at(1, 11), Some(Duration::from_millis(5)));
        // The onset-ignoring accessor still reports the full delay, and
        // a rank without an onset entry is slow from the start.
        assert_eq!(plan.slow_delay(1), Some(Duration::from_millis(5)));
        let no_onset = FaultPlan::quiet(7).with_slow_rank(2, Duration::from_millis(3));
        assert_eq!(no_onset.slow_delay_at(2, 0), Some(Duration::from_millis(3)));
        // Onset alone (no slow delay) injects nothing.
        assert_eq!(
            FaultPlan::quiet(7)
                .with_slow_onset(1, 5)
                .slow_delay_at(1, 99),
            None
        );
    }

    #[test]
    fn slow_onset_plans_stay_semantics_preserving() {
        let plan = FaultPlan::quiet(7)
            .with_slow_rank(1, Duration::from_millis(5))
            .with_slow_onset(1, 10);
        assert!(plan.is_semantics_preserving());
    }

    #[test]
    fn slow_rank_delays_are_per_rank_and_accumulate() {
        let plan = FaultPlan::quiet(5)
            .with_slow_rank(2, Duration::from_millis(3))
            .with_slow_rank(2, Duration::from_millis(1));
        assert_eq!(plan.slow_delay(2), Some(Duration::from_millis(4)));
        assert_eq!(plan.slow_delay(0), None);
        assert_eq!(FaultPlan::quiet(5).slow_delay(2), None);
    }

    #[test]
    fn flaky_link_decisions_are_deterministic_and_link_local() {
        let plan = FaultPlan::quiet(11).with_flaky_link(0, 1, 0.3);
        let n = 10_000;
        let dropped = (0..n).filter(|&i| plan.flaky_drop_for(0, 1, i)).count();
        let frac = dropped as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.03, "flaky drop fraction {frac}");
        // Only the configured link is flaky — and replays agree.
        assert!((0..n).all(|i| !plan.flaky_drop_for(1, 0, i)));
        let replay = plan.clone();
        assert!((0..200).all(|i| plan.lost_for(0, 1, i) == replay.lost_for(0, 1, i)));
        // A lost message is lost regardless of which source decided it.
        let both = plan.with_drops(0.1);
        assert!((0..200).all(|i| {
            both.lost_for(0, 1, i) == (both.drop_for(0, 1, i) || both.flaky_drop_for(0, 1, i))
        }));
    }

    #[test]
    fn mem_pressure_onset_gates_the_budget_by_operation_count() {
        let plan = FaultPlan::quiet(9).with_mem_pressure(2, 40, 1 << 20);
        assert_eq!(plan.mem_budget_at(2, 0), None);
        assert_eq!(plan.mem_budget_at(2, 39), None);
        assert_eq!(plan.mem_budget_at(2, 40), Some(1 << 20));
        assert_eq!(plan.mem_budget_at(2, 41), Some(1 << 20));
        assert_eq!(plan.mem_budget_at(0, 100), None);
        // Pressure changes what the program can do — not just timing.
        assert!(!plan.is_semantics_preserving());
    }

    #[test]
    fn budget_exceeded_display_is_stable() {
        let e = CommError::BudgetExceeded {
            rank: 3,
            phase: "gram",
            requested: 4096,
            live: 900,
            budget: 2048,
        };
        let s = e.to_string();
        assert!(s.contains("rank 3 exceeded its memory budget"), "got: {s}");
        assert!(s.contains("phase gram"), "got: {s}");
        assert!(s.contains("4096 B"), "got: {s}");
    }

    #[test]
    fn gray_failure_error_display_is_stable() {
        let d = CommError::DeadlineExceeded {
            src: 3,
            dst: 0,
            kind: "allreduce",
            budget: Duration::from_millis(250),
        };
        assert!(d
            .to_string()
            .contains("exceeded the allreduce deadline budget"));
        assert!(d.to_string().contains("waiting for rank 3"));
        let m = CommError::Demoted { rank: 5 };
        assert!(m.to_string().contains("rank 5 was demoted"));
    }

    #[test]
    fn comm_error_display_is_stable() {
        let t = CommError::Timeout {
            src: 1,
            dst: 0,
            waited: Duration::from_secs(2),
        };
        assert!(t.to_string().contains("timed out waiting for a message"));
        let m = CommError::TypeMismatch {
            src: 0,
            dst: 1,
            expected: "f64",
        };
        assert!(m.to_string().contains("unexpected element type"));
        let p = CommError::PeerClosed { peer: 2, me: 0 };
        assert!(p.to_string().starts_with("fabric channel closed"));
    }
}
