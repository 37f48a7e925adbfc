//! Per-rank memory-budget accounting: the [`AllocLedger`].
//!
//! Every rank in the simulated universe is an OS thread, so the ledger
//! is thread-local: charges made while a rank closure runs are that
//! rank's working set. The ledger tracks live bytes, cumulative
//! charges/releases, and per-[`MemPhase`] live bytes and high-water
//! marks, and (optionally) enforces a hard byte budget — a charge that
//! would push the live total past the budget fails with a typed
//! [`BudgetExceeded`] instead of aborting the process.
//!
//! Invariants the ledger maintains exactly (see `tests/ledger_prop.rs`):
//!
//! - `charged − released == live` at every instant;
//! - `Σ_phase live_by_phase[p] == live` (the phase partition);
//! - `hwm` and every `hwm_by_phase[p]` are monotone non-decreasing
//!   between [`reset_hwm`] calls, and `hwm ≤ Σ_p hwm_by_phase[p]`.
//!
//! Releases are *clamped*: a [`Charge`] dropped on a different thread
//! than the one that created it (rare — tensors handed across the
//! launcher boundary) releases at most what its phase currently holds,
//! so counters never underflow and the partition invariant survives
//! cross-thread moves.
//!
//! The ledger also carries the rank's **degradation rung** (0..=3), the
//! position on the graceful-degradation ladder the resilient solver
//! agrees collectively when a budget trips (see `tucker::recover` and
//! DESIGN.md §14). Kernels read it with [`rung`]; only the recovery
//! loop and [`install_rank`] write it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::fmt;

/// The allocation phases the ledger attributes charges to. Kernels
/// scope themselves with [`with_phase`]; charges made outside any scope
/// land in [`MemPhase::Other`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemPhase {
    /// Dense tensor blocks (the distributed tensor's local data).
    Dense,
    /// TTM scratch: local multiply output and packed reduce staging.
    Ttm,
    /// Gram scratch: packed exchange blocks and the assembled unfolding.
    Gram,
    /// Redistribute staging (piece routing and assembly).
    Redistribute,
    /// Buddy-replica storage and refresh staging.
    Replica,
    /// ABFT checksum rows/columns.
    Abft,
    /// Factor matrices and their temporaries.
    Factors,
    /// Checkpoint serialization buffers.
    Checkpoint,
    /// Anything not otherwise attributed.
    Other,
}

impl MemPhase {
    /// Number of phases (length of [`MemPhase::ALL`]).
    pub const COUNT: usize = 9;

    /// Every phase, in index order.
    pub const ALL: [MemPhase; MemPhase::COUNT] = [
        MemPhase::Dense,
        MemPhase::Ttm,
        MemPhase::Gram,
        MemPhase::Redistribute,
        MemPhase::Replica,
        MemPhase::Abft,
        MemPhase::Factors,
        MemPhase::Checkpoint,
        MemPhase::Other,
    ];

    /// Dense index of the phase (position in [`MemPhase::ALL`]).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            MemPhase::Dense => 0,
            MemPhase::Ttm => 1,
            MemPhase::Gram => 2,
            MemPhase::Redistribute => 3,
            MemPhase::Replica => 4,
            MemPhase::Abft => 5,
            MemPhase::Factors => 6,
            MemPhase::Checkpoint => 7,
            MemPhase::Other => 8,
        }
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            MemPhase::Dense => "dense",
            MemPhase::Ttm => "ttm",
            MemPhase::Gram => "gram",
            MemPhase::Redistribute => "redistribute",
            MemPhase::Replica => "replica",
            MemPhase::Abft => "abft",
            MemPhase::Factors => "factors",
            MemPhase::Checkpoint => "checkpoint",
            MemPhase::Other => "other",
        }
    }
}

impl fmt::Display for MemPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A charge was refused because it would exceed the rank's budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// Phase the refused charge was attributed to.
    pub phase: MemPhase,
    /// Bytes the charge asked for.
    pub requested: u64,
    /// Live bytes at the time of the refusal.
    pub live: u64,
    /// The budget in force.
    pub budget: u64,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "memory budget exceeded in phase {}: requested {} B with {} B live against a {} B budget",
            self.phase, self.requested, self.live, self.budget
        )
    }
}

impl std::error::Error for BudgetExceeded {}

/// The per-thread ledger state.
struct Ledger {
    live: u64,
    hwm: u64,
    charged: u64,
    released: u64,
    live_by_phase: [u64; MemPhase::COUNT],
    hwm_by_phase: [u64; MemPhase::COUNT],
    budget: Option<u64>,
    phase: MemPhase,
    rung: u8,
}

impl Ledger {
    const fn fresh() -> Ledger {
        Ledger {
            live: 0,
            hwm: 0,
            charged: 0,
            released: 0,
            live_by_phase: [0; MemPhase::COUNT],
            hwm_by_phase: [0; MemPhase::COUNT],
            budget: None,
            phase: MemPhase::Other,
            rung: 0,
        }
    }

    fn charge(&mut self, bytes: u64, phase: MemPhase) {
        let p = phase.index();
        self.live += bytes;
        self.charged += bytes;
        self.live_by_phase[p] += bytes;
        self.hwm = self.hwm.max(self.live);
        self.hwm_by_phase[p] = self.hwm_by_phase[p].max(self.live_by_phase[p]);
    }

    fn release(&mut self, bytes: u64, phase: MemPhase) {
        // Clamp to what the phase actually holds: a charge dropped on a
        // foreign thread must never underflow this thread's counters.
        let p = phase.index();
        let rel = bytes.min(self.live_by_phase[p]);
        self.live_by_phase[p] -= rel;
        self.live -= rel;
        self.released += rel;
    }

    fn headroom_check(&self, bytes: u64, phase: MemPhase) -> Result<(), BudgetExceeded> {
        match self.budget {
            Some(budget) if self.live.saturating_add(bytes) > budget => Err(BudgetExceeded {
                phase,
                requested: bytes,
                live: self.live,
                budget,
            }),
            _ => Ok(()),
        }
    }
}

thread_local! {
    static LEDGER: RefCell<Ledger> = const { RefCell::new(Ledger::fresh()) };
}

/// A snapshot of the calling thread's ledger counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LedgerStats {
    /// Currently live (charged, not yet released) bytes.
    pub live: u64,
    /// High-water mark of `live` since install/[`reset_hwm`].
    pub hwm: u64,
    /// Cumulative bytes charged.
    pub charged: u64,
    /// Cumulative bytes released.
    pub released: u64,
    /// Live bytes per phase (indexed by [`MemPhase::index`]).
    pub live_by_phase: [u64; MemPhase::COUNT],
    /// Per-phase high-water marks.
    pub hwm_by_phase: [u64; MemPhase::COUNT],
    /// The budget in force, if any.
    pub budget: Option<u64>,
}

impl LedgerStats {
    /// Bytes left under the budget (`u64::MAX` when unbudgeted).
    pub fn headroom(&self) -> u64 {
        match self.budget {
            Some(b) => b.saturating_sub(self.live),
            None => u64::MAX,
        }
    }
}

/// (Re)initializes the calling rank thread's ledger: clears every
/// counter, installs `budget`, and sets the degradation rung. Called by
/// the universe launcher at rank spawn so replayed schedules start from
/// identical ledger state.
pub fn install_rank(budget: Option<u64>, rung: u8) {
    LEDGER.with(|l| {
        let mut l = l.borrow_mut();
        *l = Ledger::fresh();
        l.budget = budget;
        l.rung = rung;
    });
}

/// Replaces the calling thread's budget (used by deterministic pressure
/// injection: `FaultPlan::with_mem_pressure` arms this at its onset op).
pub fn set_budget(budget: Option<u64>) {
    LEDGER.with(|l| l.borrow_mut().budget = budget);
}

/// The budget currently in force on this thread.
pub fn budget() -> Option<u64> {
    LEDGER.with(|l| l.borrow().budget)
}

/// The calling rank's degradation rung (0 = unconstrained).
pub fn rung() -> u8 {
    LEDGER.with(|l| l.borrow().rung)
}

/// Sets the degradation rung. Only the recovery loop should call this,
/// after a collective verdict, so every rank moves in lockstep.
pub fn set_rung(rung: u8) {
    LEDGER.with(|l| l.borrow_mut().rung = rung);
}

/// Snapshot of the calling thread's counters.
pub fn stats() -> LedgerStats {
    LEDGER.with(|l| {
        let l = l.borrow();
        LedgerStats {
            live: l.live,
            hwm: l.hwm,
            charged: l.charged,
            released: l.released,
            live_by_phase: l.live_by_phase,
            hwm_by_phase: l.hwm_by_phase,
            budget: l.budget,
        }
    })
}

/// Folds a finished worker thread's ledger counters into the calling
/// thread's ledger (harvest-on-join for the intra-rank kernel pool).
///
/// Cumulative `charged`/`released` add up; any bytes the worker left
/// live transfer to the caller (normally zero — kernel workers release
/// everything before joining); and the worker's high-water mark is
/// stacked on the caller's *current* live level, the conservative
/// reading of "the worker's peak existed alongside whatever the rank
/// held at join time". With this, per-rank accounting (and the
/// `tests/mem_band.rs` prediction band) is independent of how many pool
/// workers the kernels used.
pub fn absorb_worker(w: &LedgerStats) {
    LEDGER.with(|l| {
        let mut l = l.borrow_mut();
        l.charged += w.charged;
        l.released += w.released;
        l.hwm = l.hwm.max(l.live + w.hwm);
        l.live += w.live;
        for p in 0..MemPhase::COUNT {
            l.hwm_by_phase[p] = l.hwm_by_phase[p].max(l.live_by_phase[p] + w.hwm_by_phase[p]);
            l.live_by_phase[p] += w.live_by_phase[p];
        }
    });
}

/// Resets the high-water marks to the current live level. Used after
/// setup (e.g. materializing a test tensor) so the marks measure the
/// solver's working set, not the harness's.
pub fn reset_hwm() {
    LEDGER.with(|l| {
        let mut l = l.borrow_mut();
        l.hwm = l.live;
        l.hwm_by_phase = l.live_by_phase;
    });
}

/// Checks — without charging — that `bytes` more would fit under the
/// budget. The gate for infallible constructors on fallible paths.
pub fn ensure_headroom(bytes: u64) -> Result<(), BudgetExceeded> {
    LEDGER.with(|l| {
        let l = l.borrow();
        l.headroom_check(bytes, l.phase)
    })
}

/// The ambient phase charges are currently attributed to.
pub fn current_phase() -> MemPhase {
    LEDGER.with(|l| l.borrow().phase)
}

/// RAII guard restoring the previous ambient phase on drop.
pub struct PhaseGuard {
    prev: MemPhase,
}

/// Sets the ambient allocation phase for the current scope. Charges
/// made while the guard lives are attributed to `phase`.
pub fn with_phase(phase: MemPhase) -> PhaseGuard {
    let prev = LEDGER.with(|l| {
        let mut l = l.borrow_mut();
        std::mem::replace(&mut l.phase, phase)
    });
    PhaseGuard { prev }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        LEDGER.with(|l| l.borrow_mut().phase = self.prev);
    }
}

/// A live claim of `bytes` against the calling rank's ledger, released
/// on drop. Embedded in buffers ([`TrackedBuf`]) and tensor types so
/// their lifetimes drive the accounting.
///
/// `Clone` re-charges the same bytes (in the charge's phase, on the
/// cloning thread) — a cloned buffer is a second live buffer. Equality
/// always holds: the charge is bookkeeping, not data, so deriving
/// `PartialEq` on a carrying type still compares only the payload.
pub struct Charge {
    bytes: u64,
    phase: MemPhase,
}

impl Charge {
    /// A zero-byte charge (no ledger interaction).
    pub const fn none() -> Charge {
        Charge {
            bytes: 0,
            phase: MemPhase::Other,
        }
    }

    /// Charges `bytes` unconditionally (tracking without enforcement),
    /// attributed to the ambient phase. Used by infallible constructors.
    pub fn force(bytes: u64) -> Charge {
        let phase = LEDGER.with(|l| {
            let mut l = l.borrow_mut();
            let phase = l.phase;
            l.charge(bytes, phase);
            phase
        });
        Charge { bytes, phase }
    }

    /// Charges `bytes` against the budget, refusing with
    /// [`BudgetExceeded`] (and charging nothing) if it would not fit.
    pub fn try_new(bytes: u64) -> Result<Charge, BudgetExceeded> {
        LEDGER.with(|l| {
            let mut l = l.borrow_mut();
            let phase = l.phase;
            l.headroom_check(bytes, phase)?;
            l.charge(bytes, phase);
            Ok(Charge { bytes, phase })
        })
    }

    /// The charged byte count.
    #[inline]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The phase the charge is attributed to.
    #[inline]
    pub fn phase(&self) -> MemPhase {
        self.phase
    }
}

impl Drop for Charge {
    fn drop(&mut self) {
        if self.bytes > 0 {
            LEDGER.with(|l| l.borrow_mut().release(self.bytes, self.phase));
        }
    }
}

impl Clone for Charge {
    fn clone(&self) -> Charge {
        if self.bytes > 0 {
            LEDGER.with(|l| l.borrow_mut().charge(self.bytes, self.phase));
        }
        Charge {
            bytes: self.bytes,
            phase: self.phase,
        }
    }
}

impl PartialEq for Charge {
    fn eq(&self, _other: &Charge) -> bool {
        true
    }
}

impl Eq for Charge {}

impl Default for Charge {
    fn default() -> Charge {
        Charge::none()
    }
}

impl fmt::Debug for Charge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Charge({} B, {})", self.bytes, self.phase)
    }
}

/// Convenience: the ledger cost of `len` elements of `T`.
#[inline]
pub fn bytes_of<T>(len: usize) -> u64 {
    (len as u64).saturating_mul(std::mem::size_of::<T>() as u64)
}

/// Parses a byte size with an optional binary suffix: `"1048576"`,
/// `"64K"`, `"256M"`, `"2G"` (case-insensitive; `KB`/`KiB` spellings
/// accepted). This is the one shared parser behind every byte-count
/// flag in the workspace (`--mem-budget`, the serve daemon's ingest
/// limit, parameter-file `Mem budget` keys).
///
/// Semantics:
/// - `None` on malformed input (non-numeric digits, unknown suffix,
///   negative values) and on zero — a zero budget is always a
///   configuration mistake, not a request for an empty ledger;
/// - values that overflow `u64` after the suffix shift **saturate** to
///   `u64::MAX` rather than failing: "more bytes than addressable" is
///   an unbudgeted run, and refusing it would make generous inputs
///   behave worse than absent ones.
pub fn parse_size(s: &str) -> Option<u64> {
    let upper = s.trim().to_ascii_uppercase();
    let (digits, shift) = if let Some(d) = upper
        .strip_suffix("KIB")
        .or(upper.strip_suffix("KB"))
        .or(upper.strip_suffix('K'))
    {
        (d, 10)
    } else if let Some(d) = upper
        .strip_suffix("MIB")
        .or(upper.strip_suffix("MB"))
        .or(upper.strip_suffix('M'))
    {
        (d, 20)
    } else if let Some(d) = upper
        .strip_suffix("GIB")
        .or(upper.strip_suffix("GB"))
        .or(upper.strip_suffix('G'))
    {
        (d, 30)
    } else if let Some(d) = upper.strip_suffix('B') {
        (d, 0)
    } else {
        (upper.as_str(), 0)
    };
    // Parse into u128 so an over-u64 digit string saturates instead of
    // erroring; the suffix shift then saturates the same way.
    let n: u128 = digits.trim().parse().ok()?;
    let bytes = n.saturating_mul(1u128 << shift);
    match bytes {
        0 => None,
        b => Some(u64::try_from(b).unwrap_or(u64::MAX)),
    }
}

/// Per-job high-water-mark scope: brackets one unit of work on a
/// long-lived thread so its peak ledger usage can be attributed to that
/// job alone (the serve daemon's query workers process many jobs per
/// thread; without rebasing, every job would inherit the largest peak
/// seen since the thread started).
///
/// `begin` rebases the thread's high-water marks to the current live
/// level; [`JobScope::peak`] reports how far above that level the job
/// pushed them. Dropping the scope is a no-op — the next `begin`
/// rebases again.
pub struct JobScope {
    base_live: u64,
}

impl JobScope {
    /// Starts a job scope: rebases the high-water marks to `live`.
    pub fn begin() -> JobScope {
        reset_hwm();
        JobScope {
            base_live: stats().live,
        }
    }

    /// Peak bytes this job added above the live level at `begin`.
    pub fn peak(&self) -> u64 {
        stats().hwm.saturating_sub(self.base_live)
    }
}

/// A `Vec<T>` whose capacity is charged to the ledger for its lifetime.
/// The workhorse for staging buffers at communication boundaries.
///
/// The charge covers the capacity requested at construction; growing
/// past it is not re-charged (staging buffers here are sized up front).
/// [`TrackedBuf::into_vec`] releases the charge — use it only when
/// handing the buffer to a consumer that finishes with it promptly
/// (e.g. a collective that sends and drops it).
pub struct TrackedBuf<T> {
    data: Vec<T>,
    _charge: Charge,
}

impl<T> TrackedBuf<T> {
    /// An empty buffer with `cap` elements of charged capacity.
    pub fn try_with_capacity(cap: usize) -> Result<TrackedBuf<T>, BudgetExceeded> {
        let charge = Charge::try_new(bytes_of::<T>(cap))?;
        Ok(TrackedBuf {
            data: Vec::with_capacity(cap),
            _charge: charge,
        })
    }

    /// A length-`len` buffer of `value` clones, charged.
    pub fn try_filled(len: usize, value: T) -> Result<TrackedBuf<T>, BudgetExceeded>
    where
        T: Clone,
    {
        let charge = Charge::try_new(bytes_of::<T>(len))?;
        Ok(TrackedBuf {
            data: vec![value; len],
            _charge: charge,
        })
    }

    /// Unwraps the vector, releasing the charge.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }
}

impl<T> std::ops::Deref for TrackedBuf<T> {
    type Target = Vec<T>;
    fn deref(&self) -> &Vec<T> {
        &self.data
    }
}

impl<T> std::ops::DerefMut for TrackedBuf<T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_release_roundtrip() {
        install_rank(None, 0);
        let c = Charge::force(100);
        assert_eq!(stats().live, 100);
        assert_eq!(c.bytes(), 100);
        drop(c);
        let s = stats();
        assert_eq!(s.live, 0);
        assert_eq!(s.charged, 100);
        assert_eq!(s.released, 100);
        assert_eq!(s.hwm, 100);
    }

    #[test]
    fn budget_is_enforced() {
        install_rank(Some(150), 0);
        let a = Charge::try_new(100).expect("fits");
        let err = Charge::try_new(100).expect_err("must not fit");
        assert_eq!(err.requested, 100);
        assert_eq!(err.live, 100);
        assert_eq!(err.budget, 150);
        // The refused charge left no trace.
        assert_eq!(stats().live, 100);
        drop(a);
        assert!(Charge::try_new(150).is_ok());
        install_rank(None, 0);
    }

    #[test]
    fn phases_partition_live() {
        install_rank(None, 0);
        let _d;
        {
            let _g = with_phase(MemPhase::Dense);
            _d = Charge::force(10);
        }
        let g = with_phase(MemPhase::Gram);
        let _c = Charge::force(5);
        drop(g);
        let s = stats();
        assert_eq!(s.live, 15);
        assert_eq!(s.live_by_phase[MemPhase::Dense.index()], 10);
        assert_eq!(s.live_by_phase[MemPhase::Gram.index()], 5);
        assert_eq!(s.live_by_phase.iter().sum::<u64>(), s.live);
        assert_eq!(current_phase(), MemPhase::Other);
    }

    #[test]
    fn clone_recharges_in_original_phase() {
        install_rank(None, 0);
        let orig;
        {
            let _g = with_phase(MemPhase::Ttm);
            orig = Charge::force(8);
        }
        let copy = orig.clone(); // ambient is Other, charge stays Ttm
        assert_eq!(copy.phase(), MemPhase::Ttm);
        assert_eq!(stats().live_by_phase[MemPhase::Ttm.index()], 16);
        drop(copy);
        drop(orig);
        assert_eq!(stats().live, 0);
    }

    #[test]
    fn absorb_worker_folds_counters_and_stacks_hwm() {
        install_rank(None, 0);
        let held = Charge::force(100); // rank holds 100 B at join time
        let worker = std::thread::spawn(|| {
            let _g = with_phase(MemPhase::Ttm);
            let c = Charge::force(40);
            drop(c);
            stats()
        })
        .join()
        .unwrap();
        absorb_worker(&worker);
        let s = stats();
        assert_eq!(s.charged, 140);
        assert_eq!(s.released, 40);
        assert_eq!(s.live, 100);
        // Worker peak (40) stacked on the rank's live at join (100).
        assert_eq!(s.hwm, 140);
        assert_eq!(s.hwm_by_phase[MemPhase::Ttm.index()], 40);
        drop(held);
        assert_eq!(stats().live, 0);
        install_rank(None, 0);
    }

    #[test]
    fn reset_hwm_rebases_to_live() {
        install_rank(None, 0);
        let big = Charge::force(1000);
        drop(big);
        let small = Charge::force(10);
        assert_eq!(stats().hwm, 1000);
        reset_hwm();
        assert_eq!(stats().hwm, 10);
        drop(small);
        install_rank(None, 0);
    }

    #[test]
    fn tracked_buf_charges_capacity() {
        install_rank(Some(1024), 0);
        let mut buf = TrackedBuf::<f64>::try_with_capacity(16).expect("fits");
        buf.extend_from_slice(&[1.0; 16]);
        assert_eq!(stats().live, 128);
        assert!(
            TrackedBuf::<f64>::try_filled(1024, 0.0).is_err(),
            "8 KiB cannot fit a 1 KiB budget"
        );
        let v = buf.into_vec();
        assert_eq!(v.len(), 16);
        assert_eq!(stats().live, 0, "into_vec releases the charge");
        install_rank(None, 0);
    }

    #[test]
    fn ensure_headroom_checks_without_charging() {
        install_rank(Some(100), 0);
        assert!(ensure_headroom(100).is_ok());
        assert!(ensure_headroom(101).is_err());
        assert_eq!(stats().live, 0);
        install_rank(None, 0);
    }

    #[test]
    fn parse_size_suffixes_zero_overflow_and_garbage() {
        // Plain counts and every suffix spelling.
        assert_eq!(parse_size("1048576"), Some(1 << 20));
        assert_eq!(parse_size("64K"), Some(64 << 10));
        assert_eq!(parse_size("64k"), Some(64 << 10));
        assert_eq!(parse_size(" 256 MiB "), Some(256 << 20));
        assert_eq!(parse_size("2GB"), Some(2 << 30));
        assert_eq!(parse_size("512b"), Some(512));
        // Zero is a configuration mistake, whatever the suffix.
        assert_eq!(parse_size("0"), None);
        assert_eq!(parse_size("0G"), None);
        // Overflow saturates: a beyond-addressable budget is "unbounded",
        // both from oversized digits and from the suffix shift.
        assert_eq!(parse_size("999999999999999999999G"), Some(u64::MAX));
        assert_eq!(parse_size("18446744073709551615K"), Some(u64::MAX));
        assert_eq!(parse_size(&u64::MAX.to_string()), Some(u64::MAX));
        // Malformed suffixes and digits are typed away as None.
        assert_eq!(parse_size("lots"), None);
        assert_eq!(parse_size("-3M"), None);
        assert_eq!(parse_size("3T"), None);
        assert_eq!(parse_size("1.5G"), None);
        assert_eq!(parse_size(""), None);
        assert_eq!(parse_size("K"), None);
    }

    #[test]
    fn job_scope_isolates_per_job_peaks() {
        install_rank(None, 0);
        // A big job followed by a small one on the same thread: the
        // small job's scope must not inherit the big peak.
        let big = JobScope::begin();
        let c = Charge::force(1000);
        drop(c);
        assert_eq!(big.peak(), 1000);
        let resident = Charge::force(64); // live across the next job
        let small = JobScope::begin();
        let c = Charge::force(10);
        assert_eq!(small.peak(), 10, "peak is relative to live at begin");
        drop(c);
        drop(resident);
        install_rank(None, 0);
    }

    #[test]
    fn install_rank_resets_everything() {
        install_rank(Some(50), 2);
        let _c = Charge::force(40);
        assert_eq!(rung(), 2);
        install_rank(None, 0);
        let s = stats();
        assert_eq!((s.live, s.hwm, s.charged, s.released), (0, 0, 0, 0));
        assert_eq!(s.budget, None);
        assert_eq!(rung(), 0);
    }
}
