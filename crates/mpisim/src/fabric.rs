//! The in-memory interconnect: one unbounded FIFO link per ordered rank
//! pair, plus traffic accounting, liveness tracking, and fault hooks.
//!
//! Messages are type-erased (`Box<dyn Any + Send>`) so a single fabric can
//! carry `f32`, `f64`, `usize`, … payloads; the typed [`crate::comm::Comm`]
//! API downcasts on receipt and surfaces a [`CommError::TypeMismatch`]
//! (which indicates mismatched collective calls — the moral equivalent of
//! an MPI datatype error).
//!
//! Point-to-point traffic goes through [`Fabric::try_send`] /
//! [`Fabric::try_recv`], which report every failure as a [`CommError`].
//!
//! Links are hand-rolled `Mutex<VecDeque> + Condvar` queues rather than a
//! channel crate: the build environment is offline, and owning the queue
//! lets the fabric wake blocked receivers when a peer rank retires
//! (crashes), turning would-be 120 s hangs into immediate
//! [`CommError::PeerClosed`] results.

use crate::fault::{CommError, CorruptMode, FaultPlan};
use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Default bound on how long a blocked receive waits before declaring
/// deadlock. Generous enough for debug-mode collective trees; short
/// enough that a mismatched collective fails a test instead of hanging
/// it. Overridable per fabric ([`Fabric::set_recv_timeout`]) or globally
/// via the `MPISIM_RECV_TIMEOUT_SECS` environment variable.
pub const RECV_TIMEOUT: Duration = Duration::from_secs(120);

/// Environment variable overriding the default receive timeout (seconds,
/// fractional values allowed).
pub const RECV_TIMEOUT_ENV: &str = "MPISIM_RECV_TIMEOUT_SECS";

/// Upper bound accepted from the env override (~31 years). Values above
/// this would push `Duration::from_secs_f64` toward its panic threshold,
/// and no test deliberately waits that long.
const MAX_TIMEOUT_SECS: f64 = 1e9;

/// Parses an `MPISIM_RECV_TIMEOUT_SECS` value: a positive, finite number
/// of seconds (fractional allowed), at most [`MAX_TIMEOUT_SECS`].
fn parse_recv_timeout(raw: &str) -> Result<Duration, String> {
    match raw.trim().parse::<f64>() {
        Ok(secs) if secs > 0.0 && secs <= MAX_TIMEOUT_SECS => Ok(Duration::from_secs_f64(secs)),
        Ok(secs) => Err(format!("{secs} is not in (0, {MAX_TIMEOUT_SECS}] seconds")),
        Err(err) => Err(format!("not a number: {err}")),
    }
}

/// Converts a `Duration` to whole microseconds, saturating at `u64::MAX`
/// (~584 000 years) instead of wrapping. `as_micros() as u64` silently
/// truncates the `u128` for absurd-but-parseable timeouts near the
/// [`MAX_TIMEOUT_SECS`] boundary, which would turn a "wait forever"
/// request into a near-zero timeout.
fn duration_to_us_saturating(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

fn default_recv_timeout() -> Duration {
    match std::env::var(RECV_TIMEOUT_ENV) {
        Ok(v) => parse_recv_timeout(&v).unwrap_or_else(|why| {
            // Warn exactly once per process: a malformed override used to
            // be swallowed silently, leaving CI runs on the 120 s default
            // with no clue why their tightened timeout never applied.
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| {
                eprintln!(
                    "mpisim: ignoring malformed {RECV_TIMEOUT_ENV}={v:?} ({why}); \
                     using the default {}s",
                    RECV_TIMEOUT.as_secs()
                );
            });
            RECV_TIMEOUT
        }),
        Err(_) => RECV_TIMEOUT,
    }
}

type Payload = Box<dyn Any + Send>;

/// Number of [`CollectiveKind`] variants (sizes the per-kind counter
/// tables).
pub const KIND_COUNT: usize = 9;

/// The collective operation a fabric message belongs to, for
/// phase-attributed traffic accounting.
///
/// Every delivered message is charged to exactly one kind:
/// [`CollectiveKind::PointToPoint`] for bare `try_send`/`try_recv`
/// traffic, and the matching collective kind for messages sent inside a
/// collective algorithm (an allreduce's internal reduce *and* broadcast
/// legs are both charged to `Allreduce` — attribution follows the
/// user-facing operation, not its implementation tree).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum CollectiveKind {
    /// Bare point-to-point sends outside any collective.
    PointToPoint = 0,
    /// Dissemination barrier rounds.
    Barrier = 1,
    /// Binomial-tree broadcast.
    Bcast = 2,
    /// Binomial-tree reduce.
    Reduce = 3,
    /// Allreduce (its reduce and broadcast legs both land here).
    Allreduce = 4,
    /// Ring allgather of variable blocks (includes `Comm::split`'s
    /// membership exchange).
    Allgatherv = 5,
    /// Ring reduce-scatter.
    ReduceScatter = 6,
    /// Direct pairwise all-to-all of variable blocks.
    Alltoallv = 7,
    /// Gather of variable blocks to a root.
    Gatherv = 8,
}

impl CollectiveKind {
    /// Every kind, in counter-table order.
    pub const ALL: [CollectiveKind; KIND_COUNT] = [
        CollectiveKind::PointToPoint,
        CollectiveKind::Barrier,
        CollectiveKind::Bcast,
        CollectiveKind::Reduce,
        CollectiveKind::Allreduce,
        CollectiveKind::Allgatherv,
        CollectiveKind::ReduceScatter,
        CollectiveKind::Alltoallv,
        CollectiveKind::Gatherv,
    ];

    /// Counter-table index of this kind.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name (used as JSON keys in trace files).
    pub fn name(self) -> &'static str {
        match self {
            CollectiveKind::PointToPoint => "p2p",
            CollectiveKind::Barrier => "barrier",
            CollectiveKind::Bcast => "bcast",
            CollectiveKind::Reduce => "reduce",
            CollectiveKind::Allreduce => "allreduce",
            CollectiveKind::Allgatherv => "allgatherv",
            CollectiveKind::ReduceScatter => "reduce_scatter",
            CollectiveKind::Alltoallv => "alltoallv",
            CollectiveKind::Gatherv => "gatherv",
        }
    }

    /// Inverse of [`CollectiveKind::name`].
    pub fn from_name(name: &str) -> Option<CollectiveKind> {
        CollectiveKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// A plain-integer snapshot of per-kind delivered traffic: `bytes[k]` /
/// `messages[k]` indexed by [`CollectiveKind::index`]. Doubles as a
/// *delta* (see [`TrafficScope::delta`]) and as an accumulator — the
/// counters are monotone, so differences and sums stay exact.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindSnapshot {
    /// Delivered bytes per collective kind.
    pub bytes: [u64; KIND_COUNT],
    /// Delivered messages per collective kind.
    pub messages: [u64; KIND_COUNT],
}

impl KindSnapshot {
    /// Total bytes across all kinds.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Total messages across all kinds.
    pub fn total_messages(&self) -> u64 {
        self.messages.iter().sum()
    }

    /// Bytes charged to `kind`.
    #[inline]
    pub fn bytes_of(&self, kind: CollectiveKind) -> u64 {
        self.bytes[kind.index()]
    }

    /// Messages charged to `kind`.
    #[inline]
    pub fn messages_of(&self, kind: CollectiveKind) -> u64 {
        self.messages[kind.index()]
    }

    /// The counter movement since `earlier` (which must be an older
    /// snapshot of the same counters; monotonicity makes this exact).
    pub fn since(&self, earlier: &KindSnapshot) -> KindSnapshot {
        let mut out = KindSnapshot::default();
        for k in 0..KIND_COUNT {
            out.bytes[k] = self.bytes[k] - earlier.bytes[k];
            out.messages[k] = self.messages[k] - earlier.messages[k];
        }
        out
    }

    /// Accumulates `other` into `self` (for merging deltas).
    pub fn merge(&mut self, other: &KindSnapshot) {
        for k in 0..KIND_COUNT {
            self.bytes[k] += other.bytes[k];
            self.messages[k] += other.messages[k];
        }
    }

    /// `self - other` where every component of `other` is ≤ the matching
    /// component of `self` (used to carve a child span's traffic out of
    /// its parent's). Saturates rather than panicking so a racy reader
    /// can never underflow.
    pub fn saturating_sub(&self, other: &KindSnapshot) -> KindSnapshot {
        let mut out = KindSnapshot::default();
        for k in 0..KIND_COUNT {
            out.bytes[k] = self.bytes[k].saturating_sub(other.bytes[k]);
            out.messages[k] = self.messages[k].saturating_sub(other.messages[k]);
        }
        out
    }
}

/// A scoped delta guard over one rank's per-kind traffic counters.
///
/// Created by `Comm::traffic_scope()` (or [`TrafficStats::scope`]), it
/// snapshots the bytes/messages **sent by that rank** at construction;
/// [`TrafficScope::delta`] returns how much the rank has sent since.
/// Because the snapshot covers only the owning rank's source-side
/// counters, concurrent traffic from other ranks never leaks into the
/// delta — summing disjoint scopes across all ranks partitions the
/// universe-global totals exactly, which is what lets spans attribute
/// communication to phases without double counting.
#[derive(Clone, Copy, Debug)]
pub struct TrafficScope<'a> {
    stats: &'a TrafficStats,
    rank: usize,
    start: KindSnapshot,
}

impl TrafficScope<'_> {
    /// The world rank whose sends this scope observes.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Per-kind traffic this rank has sent since the scope was created.
    /// Non-consuming: call repeatedly for running totals.
    pub fn delta(&self) -> KindSnapshot {
        self.stats.kind_snapshot_for(self.rank).since(&self.start)
    }
}

/// Per-universe traffic counters (shared by every communicator derived
/// from the universe).
///
/// Counter semantics (the *accounting invariant*, enforced by a
/// regression test): a `try_send` that passes the liveness check counts
/// as one **attempted** message; it then counts as exactly one of
/// **delivered** (`messages`/`bytes`, payload enqueued on the link) or
/// **dropped** (a fault plan consumed it on the wire). Therefore
/// `attempted == messages + dropped` holds at every instant, even while
/// a collective is aborting mid-fanout — nothing is double-counted and
/// nothing leaks.
#[derive(Debug, Default)]
pub struct TrafficStats {
    /// Total bytes moved through point-to-point sends (delivered only).
    pub bytes: AtomicU64,
    /// Total messages delivered to a link queue.
    pub messages: AtomicU64,
    /// Total messages put on the wire (delivered + dropped).
    pub attempted: AtomicU64,
    /// Messages consumed by an injected drop fault.
    pub dropped: AtomicU64,
    /// Per-source-rank byte counts (load-imbalance analysis).
    pub bytes_by_rank: Vec<AtomicU64>,
    /// Send-side retransmissions issued by the [`RetryPolicy`] after an
    /// injected drop (each also counts on `attempted`, and then on
    /// exactly one of `messages` or `dropped`).
    pub send_retries: AtomicU64,
    /// Receive-side deadline-budget re-arms issued by the [`RetryPolicy`]
    /// after a [`DeadlinePolicy`] budget expired.
    pub recv_retries: AtomicU64,
    /// Messages eventually delivered after one or more injected drops —
    /// the retry layer's healing score.
    pub drops_healed: AtomicU64,
    /// Per-*sender*-rank induced blocked-wait microseconds: time
    /// receivers spent blocked in `try_recv` waiting for a message from
    /// this rank. Under blocking collectives this is the online
    /// straggler signal — a persistently slow rank makes everyone else
    /// wait on *it*, so its column grows a multiple faster than the rest.
    wait_us_by_src: Vec<AtomicU64>,
    /// Per-source-rank, per-kind delivered bytes
    /// (`rank * KIND_COUNT + kind.index()`).
    kind_bytes: Vec<AtomicU64>,
    /// Per-source-rank, per-kind delivered messages (same layout).
    kind_messages: Vec<AtomicU64>,
    /// Deliveries that have begun charging the counters above, and
    /// deliveries that have finished: equal only while no charge is
    /// half-applied, which is when [`Self::check_kind_partition`] reads.
    charges_started: AtomicU64,
    charges_finished: AtomicU64,
}

impl TrafficStats {
    fn new(p: usize) -> Self {
        TrafficStats {
            bytes: AtomicU64::new(0),
            messages: AtomicU64::new(0),
            attempted: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            bytes_by_rank: (0..p).map(|_| AtomicU64::new(0)).collect(),
            send_retries: AtomicU64::new(0),
            recv_retries: AtomicU64::new(0),
            drops_healed: AtomicU64::new(0),
            wait_us_by_src: (0..p).map(|_| AtomicU64::new(0)).collect(),
            kind_bytes: (0..p * KIND_COUNT).map(|_| AtomicU64::new(0)).collect(),
            kind_messages: (0..p * KIND_COUNT).map(|_| AtomicU64::new(0)).collect(),
            charges_started: AtomicU64::new(0),
            charges_finished: AtomicU64::new(0),
        }
    }

    /// Per-sender induced blocked-wait microseconds (see
    /// `wait_us_by_src`): entry `r` is how long receivers have spent
    /// blocked waiting for messages *from* rank `r`, cumulatively.
    pub fn induced_wait_us(&self) -> Vec<u64> {
        self.wait_us_by_src
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect()
    }

    /// Charges `us` microseconds of blocked receive wait to sender `src`.
    fn charge_wait(&self, src: usize, us: u64) {
        if us > 0 {
            self.wait_us_by_src[src].fetch_add(us, Ordering::Relaxed);
        }
    }

    /// Snapshot of `(bytes, messages)`.
    pub fn snapshot(&self) -> (u64, u64) {
        (
            self.bytes.load(Ordering::Relaxed),
            self.messages.load(Ordering::Relaxed),
        )
    }

    /// Checks the accounting invariant `attempted == delivered + dropped`;
    /// returns the three counters on violation.
    pub fn check_invariant(&self) -> Result<(), (u64, u64, u64)> {
        let attempted = self.attempted.load(Ordering::Relaxed);
        let delivered = self.messages.load(Ordering::Relaxed);
        let dropped = self.dropped.load(Ordering::Relaxed);
        if attempted == delivered + dropped {
            Ok(())
        } else {
            Err((attempted, delivered, dropped))
        }
    }

    /// Largest per-rank byte count (the paper's cost model charges the
    /// critical path, i.e. the busiest rank).
    pub fn max_bytes_per_rank(&self) -> u64 {
        self.bytes_by_rank
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }

    /// Per-kind delivered traffic sent by world rank `rank`.
    pub fn kind_snapshot_for(&self, rank: usize) -> KindSnapshot {
        let mut snap = KindSnapshot::default();
        let base = rank * KIND_COUNT;
        for k in 0..KIND_COUNT {
            snap.bytes[k] = self.kind_bytes[base + k].load(Ordering::Relaxed);
            snap.messages[k] = self.kind_messages[base + k].load(Ordering::Relaxed);
        }
        snap
    }

    /// Per-kind delivered traffic summed over every source rank.
    pub fn kind_totals(&self) -> KindSnapshot {
        let p = self.bytes_by_rank.len();
        let mut snap = KindSnapshot::default();
        for r in 0..p {
            snap.merge(&self.kind_snapshot_for(r));
        }
        snap
    }

    /// A [`TrafficScope`] delta guard over `world_rank`'s send counters.
    pub fn scope(&self, world_rank: usize) -> TrafficScope<'_> {
        TrafficScope {
            stats: self,
            rank: world_rank,
            start: self.kind_snapshot_for(world_rank),
        }
    }

    /// Checks the *partition invariant*: summed over ranks, the per-kind
    /// byte/message counters must equal the global `bytes`/`messages`
    /// exactly — every delivered message is charged to one kind on one
    /// source rank, nothing double-counted, nothing orphaned. Returns
    /// `(kind_total, global_total)` pairs for bytes and messages on
    /// violation.
    ///
    /// Sound while messages are in flight: a delivery charges the kind
    /// and global counters as several updates, so the check reads them
    /// again until no charge was half-applied during the read.
    #[allow(clippy::type_complexity)]
    pub fn check_kind_partition(&self) -> Result<(), ((u64, u64), (u64, u64))> {
        let (totals, bytes, msgs) = loop {
            // Pairs with the `Release` increment of `charges_finished`:
            // every finished charge's updates are visible to the reads.
            let finished = self.charges_finished.load(Ordering::Acquire);
            let totals = self.kind_totals();
            let (bytes, msgs) = self.snapshot();
            // Pairs with the `Release` fence after `charges_started` is
            // incremented: a read that saw any update of a charge also
            // sees that charge as started.
            fence(Ordering::Acquire);
            if self.charges_started.load(Ordering::Relaxed) == finished {
                break (totals, bytes, msgs);
            }
            std::thread::yield_now();
        };
        if totals.total_bytes() == bytes && totals.total_messages() == msgs {
            Ok(())
        } else {
            Err((
                (totals.total_bytes(), bytes),
                (totals.total_messages(), msgs),
            ))
        }
    }
}

/// Per-collective-kind receive deadline budgets, layered *under* the
/// global recv timeout ([`Fabric::recv_timeout`]).
///
/// The global timeout is the fabric's coarse deadlock detector (120 s by
/// default); a deadline budget is the gray-failure detector: a receive
/// inside a collective of kind `k` that blocks longer than `budget(k)`
/// fails fast with [`CommError::DeadlineExceeded`], naming the suspected
/// straggler, long before the global timeout would fire. A kind with no
/// budget falls back to the global timeout alone.
///
/// With a [`RetryPolicy`] installed, an expired budget is retried with
/// backoff before the error surfaces (the peer may be slow, not gone).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeadlinePolicy {
    budgets: [Option<Duration>; KIND_COUNT],
}

impl DeadlinePolicy {
    /// No budgets at all: every kind uses the global timeout alone.
    pub fn none() -> DeadlinePolicy {
        DeadlinePolicy {
            budgets: [None; KIND_COUNT],
        }
    }

    /// The same budget for every collective kind.
    pub fn uniform(budget: Duration) -> DeadlinePolicy {
        DeadlinePolicy {
            budgets: [Some(budget); KIND_COUNT],
        }
    }

    /// Overrides the budget for one kind.
    pub fn with_kind(mut self, kind: CollectiveKind, budget: Duration) -> DeadlinePolicy {
        self.budgets[kind.index()] = Some(budget);
        self
    }

    /// The budget for `kind`, if one is set.
    pub fn budget(&self, kind: CollectiveKind) -> Option<Duration> {
        self.budgets[kind.index()]
    }

    /// The `strict` profile: 250 ms per collective — tight enough that a
    /// dead-slow peer is blamed within a sweep, loose enough that debug
    /// builds of the tier-1 problem sizes never trip it.
    pub fn strict() -> DeadlinePolicy {
        DeadlinePolicy::uniform(Duration::from_millis(250))
    }

    /// The `lenient` profile: 2 s per collective — catches only gross
    /// stalls, suitable for heavily loaded CI machines.
    pub fn lenient() -> DeadlinePolicy {
        DeadlinePolicy::uniform(Duration::from_secs(2))
    }

    /// Parses a named profile for the CLI `--deadline-profile` knob:
    /// `"off"` → no policy, `"strict"` / `"lenient"` → the matching
    /// preset. Unknown names return `None`.
    #[allow(clippy::option_option)]
    pub fn profile(name: &str) -> Option<Option<DeadlinePolicy>> {
        match name.to_ascii_lowercase().as_str() {
            "off" => Some(None),
            "strict" => Some(Some(DeadlinePolicy::strict())),
            "lenient" => Some(Some(DeadlinePolicy::lenient())),
            _ => None,
        }
    }
}

/// Bounded retry-with-exponential-backoff for transient point-to-point
/// failures: send-side retransmission of injected drops (flaky links)
/// and receive-side re-arming of expired [`DeadlinePolicy`] budgets.
///
/// Backoff for attempt *n* (1-based) is `base · 2^(n-1)`, capped at
/// `max_backoff`. Every retry is counted on [`TrafficStats`]
/// (`send_retries` / `recv_retries` / `drops_healed`), and each send
/// attempt moves the `attempted` ledger, so the accounting invariant
/// `attempted == delivered + dropped` holds through the retry loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of retries after the initial attempt.
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Backoff cap.
    pub max_backoff: Duration,
}

impl RetryPolicy {
    /// A policy with `max_retries` retries, 50 µs base backoff, 5 ms cap.
    pub fn new(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_millis(5),
        }
    }

    /// The backoff before retry `attempt` (1-based).
    pub fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.saturating_sub(1).min(16);
        (self.base_backoff * factor).min(self.max_backoff)
    }
}

/// One ordered-pair FIFO queue. Each entry carries the fabric *epoch* at
/// which it was sent; receivers discard entries from earlier epochs, so
/// in-flight data from before a fault recovery cannot poison the retried
/// collective (see [`Fabric::bump_epoch`]).
struct Link {
    queue: Mutex<VecDeque<(u64, Payload)>>,
    ready: Condvar,
}

impl Link {
    fn new() -> Link {
        Link {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<(u64, Payload)>> {
        // A panicking rank never holds a link lock (all fault panics
        // happen outside the critical section), but be robust anyway.
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Runtime state of an attached [`FaultPlan`]: the plan plus the
/// per-link and per-rank operation counters its decisions key on.
struct FaultState {
    plan: FaultPlan,
    /// Message index per ordered link (`dst * p + src`).
    link_ops: Vec<AtomicU64>,
    /// Fabric-operation count per rank (sends + receives).
    rank_ops: Vec<AtomicU64>,
}

impl FaultState {
    fn new(plan: FaultPlan, p: usize) -> FaultState {
        FaultState {
            plan,
            link_ops: (0..p * p).map(|_| AtomicU64::new(0)).collect(),
            rank_ops: (0..p).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Counts one fabric operation for `rank`; panics if the plan says
    /// this is the operation at which the rank crashes. The panic models
    /// process death: it is deliberately not a `CommError`, because a
    /// crashed rank cannot handle errors — [`crate::Universe::try_run`]
    /// catches it as a [`crate::RankFailure`].
    fn step_rank(&self, rank: usize) {
        let op = self.rank_ops[rank].fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(at) = self.plan.crash_op(rank) {
            if op == at {
                panic!("injected crash: rank {rank} died at fabric operation {op}");
            }
        }
        // Memory-pressure injection: `step_rank` always runs on the
        // rank's own OS thread, so shrinking the thread-local ledger
        // budget here lands on exactly the targeted rank, at a
        // program-order (hence schedule-independent) onset.
        if let Some(budget) = self.plan.mem_budget_at(rank, op) {
            ratucker_mem::set_budget(Some(budget));
        }
    }

    /// The persistent-slowness delay for `rank` at its *current*
    /// operation count (respects any scheduled onset).
    fn slow_delay_now(&self, rank: usize) -> Option<Duration> {
        self.plan
            .slow_delay_at(rank, self.rank_ops[rank].load(Ordering::Relaxed))
    }
}

/// How the fabric perturbs operation timing to explore alternative
/// thread interleavings (see DESIGN.md §12 and [`crate::Universe::explore`]).
///
/// Perturbation never violates per-link FIFO order or per-rank program
/// order — it only shifts *when* a send publishes its payload and when a
/// receive drains its queue, which is exactly the freedom a real network
/// has. The collectives' reduction trees are fixed by rank arithmetic,
/// so any observable divergence under a perturbed schedule is a genuine
/// schedule-dependent bug, not floating-point reassociation.
///
/// All delays are deterministic functions of `(policy, src, dst,
/// per-link operation index)`: the same policy replays the same nominal
/// delay pattern every run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// No perturbation: deliveries land whenever the OS thread scheduler
    /// gets there. The default; incurs no overhead beyond a per-op
    /// `Mutex` lookup that the fault path already pays.
    Os,
    /// Hash-derived micro-delays (0–45 µs) on every send, receive, and
    /// Condvar wakeup, keyed by `seed` — each seed is a distinct
    /// deterministic schedule.
    SeededRandom {
        /// Seed selecting the delay pattern.
        seed: u64,
    },
    /// A targeted worst-case strategy.
    Adversarial(Adversary),
}

/// Targeted adversarial scheduling strategies (see [`SchedulePolicy`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Adversary {
    /// Every fabric operation of one rank is delayed, so it arrives last
    /// at every rendezvous — a consistently slow straggler, the shape
    /// that flushes out barrier/agreement races.
    StarveRank {
        /// The rank to starve.
        rank: usize,
    },
    /// Deprioritizes old traffic: within each window of operations on a
    /// link, the earliest get the longest delays — approximating LIFO
    /// observation order at the receivers without violating per-link
    /// FIFO delivery (which pipelined collectives rely on for
    /// correctness; see DESIGN.md §12).
    Lifo,
    /// Maximum delay on "crossing" messages (`src > dst`) while downward
    /// traffic flows freely — skewing every symmetric exchange so the
    /// two directions of a ring or butterfly never proceed in lockstep.
    CrossDelay,
    /// The overlap adversary: every *receive-side* operation is delayed
    /// by an index-varying amount (sends publish on time), so in-flight
    /// split-phase requests complete in a different order than they were
    /// posted and every `Request::wait` is starved behind freshly-posted
    /// traffic. Receivers also always yield after a Condvar wakeup. This
    /// is the schedule shape that flushes out pipelined-collective bugs:
    /// compute/communication overlap windows stretch to their maximum
    /// while per-link FIFO delivery stays intact.
    StarveWaits,
}

/// Runtime state of an installed [`SchedulePolicy`]: the policy plus the
/// per-link operation counters its delay decisions key on (send, receive,
/// and Condvar-wakeup counters are kept separately so each perturbation
/// point sees a dense index sequence).
struct ScheduleState {
    policy: SchedulePolicy,
    p: usize,
    /// Send index per ordered link (`dst * p + src`).
    send_ops: Vec<AtomicU64>,
    /// Receive index per ordered link (same layout).
    recv_ops: Vec<AtomicU64>,
    /// Condvar-wakeup index per ordered link (same layout).
    wake_ops: Vec<AtomicU64>,
}

/// SplitMix64-style mix of a schedule seed and an operation coordinate.
/// Local rather than shared with `fault.rs` so the two subsystems'
/// decision streams can never alias.
fn sched_hash(seed: u64, src: u64, dst: u64, idx: u64) -> u64 {
    let mut z = seed
        .wrapping_add(src.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(dst.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(idx.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ScheduleState {
    /// Base delay quantum. Long enough to reliably shift which thread
    /// wins a lock race; short enough that thousands of perturbed ops
    /// stay well under a second per run.
    const UNIT_US: u64 = 15;

    /// Salt decorrelating send-side delay decisions (see [`Self::op_delay`]).
    const SEND_SALT: u64 = 0x5E4D_5A17;
    /// Salt decorrelating receive-side delay decisions. `StarveWaits`
    /// keys on this to target only the waiting side of a rendezvous.
    const RECV_SALT: u64 = 0x2EC5_5A17;
    /// Salt decorrelating Condvar-wakeup yield decisions.
    const WAKE_SALT: u64 = 0x3A4E_5A17;

    fn new(policy: SchedulePolicy, p: usize) -> ScheduleState {
        ScheduleState {
            policy,
            p,
            send_ops: (0..p * p).map(|_| AtomicU64::new(0)).collect(),
            recv_ops: (0..p * p).map(|_| AtomicU64::new(0)).collect(),
            wake_ops: (0..p * p).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn reset(&self) {
        for c in self
            .send_ops
            .iter()
            .chain(self.recv_ops.iter())
            .chain(self.wake_ops.iter())
        {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Delay for one fabric operation. `actor` is the rank executing the
    /// op (`src` for sends, `dst` for receives); `salt` decorrelates the
    /// send-side and receive-side delay streams under `SeededRandom`.
    fn op_delay(
        &self,
        actor: usize,
        src: usize,
        dst: usize,
        idx: u64,
        salt: u64,
    ) -> Option<Duration> {
        match self.policy {
            SchedulePolicy::Os => None,
            SchedulePolicy::SeededRandom { seed } => {
                let steps = sched_hash(seed ^ salt, src as u64, dst as u64, idx) % 4;
                (steps > 0).then(|| Duration::from_micros(Self::UNIT_US * steps))
            }
            SchedulePolicy::Adversarial(Adversary::StarveRank { rank }) => {
                (actor == rank).then(|| Duration::from_micros(8 * Self::UNIT_US))
            }
            SchedulePolicy::Adversarial(Adversary::Lifo) => {
                let pos = idx % 4;
                (pos < 3).then(|| Duration::from_micros(2 * Self::UNIT_US * (3 - pos)))
            }
            SchedulePolicy::Adversarial(Adversary::CrossDelay) => {
                (src > dst).then(|| Duration::from_micros(6 * Self::UNIT_US))
            }
            SchedulePolicy::Adversarial(Adversary::StarveWaits) => {
                // Receive-side only: an index-varying delay (2, 5, or 8
                // quanta) reorders which of several in-flight requests a
                // waiting rank observes first, while sends publish
                // undelayed so overlap windows stretch to their maximum.
                (salt == Self::RECV_SALT)
                    .then(|| Duration::from_micros(Self::UNIT_US * (2 + (idx % 3) * 3)))
            }
        }
    }

    fn send_delay(&self, src: usize, dst: usize) -> Option<Duration> {
        let idx = self.send_ops[dst * self.p + src].fetch_add(1, Ordering::Relaxed);
        self.op_delay(src, src, dst, idx, Self::SEND_SALT)
    }

    fn recv_delay(&self, src: usize, dst: usize) -> Option<Duration> {
        let idx = self.recv_ops[dst * self.p + src].fetch_add(1, Ordering::Relaxed);
        self.op_delay(dst, src, dst, idx, Self::RECV_SALT)
    }

    /// Should a receiver that just woke from its Condvar briefly release
    /// the link lock and yield, letting another contender win the race?
    /// This perturbs *which* waiter observes a freshly-enqueued message
    /// first — the wakeup-choice dimension of the schedule space.
    fn yield_after_wakeup(&self, src: usize, dst: usize) -> bool {
        let idx = self.wake_ops[dst * self.p + src].fetch_add(1, Ordering::Relaxed);
        match self.policy {
            SchedulePolicy::Os => false,
            SchedulePolicy::SeededRandom { seed } => {
                sched_hash(seed ^ Self::WAKE_SALT, src as u64, dst as u64, idx) & 1 == 1
            }
            SchedulePolicy::Adversarial(Adversary::StarveRank { rank }) => dst == rank,
            SchedulePolicy::Adversarial(Adversary::Lifo) => idx.is_multiple_of(2),
            SchedulePolicy::Adversarial(Adversary::CrossDelay) => src > dst,
            // Waiters always lose the post-wakeup race: another
            // contender (or a fresh poster) gets the lock first.
            SchedulePolicy::Adversarial(Adversary::StarveWaits) => true,
        }
    }
}

/// Resets a `blocked_on` cell to "not blocked" when the receive that
/// set it returns, on every exit path.
struct ClearOnDrop<'a>(&'a AtomicUsize);

impl Drop for ClearOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(usize::MAX, Ordering::Relaxed);
    }
}

/// The link matrix connecting `p` ranks.
pub struct Fabric {
    p: usize,
    /// `links[dst * p + src]`: FIFO from `src` to `dst` (data plane).
    links: Vec<Link>,
    /// Control-plane links (`ctrl[dst * p + src]`). These model ULFM's
    /// reliable out-of-band failure-detector network: they bypass fault
    /// injection, revocation, epoch filtering, and traffic accounting,
    /// but still honor liveness and timeouts. Agreement/recovery traffic
    /// rides here so the recovery protocol itself cannot be poisoned by
    /// the faults it is recovering from.
    ctrl: Vec<Link>,
    /// Liveness flags; a retired (crashed) rank wakes its blocked peers.
    alive: Vec<AtomicBool>,
    /// `blocked_on[r]`: the world rank that rank `r` is currently
    /// blocked waiting on in a data-plane receive (`usize::MAX` when
    /// not blocked). Feeds [`Fabric::resolve_blame`], the wait-for
    /// chain walk that distinguishes a true straggler from the healthy
    /// ranks queued up behind it.
    blocked_on: Vec<AtomicUsize>,
    /// Revocation flag: once any rank revokes the fabric, pending and
    /// future data-plane operations fail fast with
    /// [`CommError::Revoked`] until the recovery protocol clears it.
    revoked: AtomicBool,
    /// Message epoch; bumped on recovery so stale in-flight data from an
    /// aborted collective is discarded at the receiver.
    epoch: AtomicU64,
    stats: TrafficStats,
    /// Receive timeout in microseconds (atomic so tests can tighten it).
    recv_timeout_us: AtomicU64,
    /// Optional per-collective deadline budgets (gray-failure detector).
    deadline: Mutex<Option<DeadlinePolicy>>,
    /// Optional bounded retry-with-backoff for transient p2p failures.
    retry: Mutex<Option<RetryPolicy>>,
    /// Optional fault-injection state.
    fault: Mutex<Option<Arc<FaultState>>>,
    /// Optional schedule-perturbation state (`None` ⇔ [`SchedulePolicy::Os`]).
    schedule: Mutex<Option<Arc<ScheduleState>>>,
    /// Opaque id of the trace session this fabric's universe belongs to
    /// (0 = none); see [`crate::universe::adopt_trace_tag`].
    trace_tag: AtomicU64,
}

impl Fabric {
    /// Builds a fully-connected fabric for `p` ranks.
    pub fn new(p: usize) -> Arc<Fabric> {
        assert!(p > 0, "fabric needs at least one rank");
        Arc::new(Fabric {
            p,
            links: (0..p * p).map(|_| Link::new()).collect(),
            ctrl: (0..p * p).map(|_| Link::new()).collect(),
            alive: (0..p).map(|_| AtomicBool::new(true)).collect(),
            blocked_on: (0..p).map(|_| AtomicUsize::new(usize::MAX)).collect(),
            revoked: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            stats: TrafficStats::new(p),
            recv_timeout_us: AtomicU64::new(duration_to_us_saturating(default_recv_timeout())),
            deadline: Mutex::new(None),
            retry: Mutex::new(None),
            fault: Mutex::new(None),
            schedule: Mutex::new(None),
            trace_tag: AtomicU64::new(0),
        })
    }

    /// Number of ranks in the universe.
    pub fn size(&self) -> usize {
        self.p
    }

    /// Traffic counters for this universe.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// The trace session tag this fabric's universe carries (0 = none).
    /// A tracer records a span only when this equals its open session's
    /// id, so universes outside the session stay out of its trace.
    #[inline]
    pub fn trace_tag(&self) -> u64 {
        self.trace_tag.load(Ordering::Relaxed)
    }

    pub(crate) fn set_trace_tag(&self, tag: u64) {
        self.trace_tag.store(tag, Ordering::Relaxed);
    }

    /// The current receive timeout.
    pub fn recv_timeout(&self) -> Duration {
        Duration::from_micros(self.recv_timeout_us.load(Ordering::Relaxed))
    }

    /// Overrides the receive timeout for this fabric. Durations beyond
    /// `u64::MAX` microseconds (~584 000 years) saturate instead of
    /// silently wrapping to a near-zero timeout.
    pub fn set_recv_timeout(&self, timeout: Duration) {
        self.recv_timeout_us
            .store(duration_to_us_saturating(timeout), Ordering::Relaxed);
    }

    /// Installs (or clears, with `None`) the per-collective deadline
    /// budgets.
    pub fn set_deadline_policy(&self, policy: Option<DeadlinePolicy>) {
        *self.deadline.lock().unwrap_or_else(|e| e.into_inner()) = policy;
    }

    /// The currently installed deadline policy, if any.
    pub fn deadline_policy(&self) -> Option<DeadlinePolicy> {
        *self.deadline.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Installs (or clears, with `None`) the retry-with-backoff policy.
    pub fn set_retry_policy(&self, policy: Option<RetryPolicy>) {
        *self.retry.lock().unwrap_or_else(|e| e.into_inner()) = policy;
    }

    /// The currently installed retry policy, if any.
    pub fn retry_policy(&self) -> Option<RetryPolicy> {
        *self.retry.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Attaches a fault-injection plan (replacing any previous one) and
    /// resets its operation counters.
    pub fn attach_fault_plan(&self, plan: FaultPlan) {
        let state = Arc::new(FaultState::new(plan, self.p));
        *self.fault.lock().unwrap_or_else(|e| e.into_inner()) = Some(state);
    }

    /// Removes the attached fault plan.
    pub fn clear_fault_plan(&self) {
        *self.fault.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }

    fn fault_state(&self) -> Option<Arc<FaultState>> {
        self.fault.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Installs a schedule-perturbation policy (replacing any previous
    /// one) with fresh operation counters. [`SchedulePolicy::Os`] clears
    /// the state entirely, restoring zero-perturbation behavior.
    pub fn set_schedule_policy(&self, policy: SchedulePolicy) {
        let state = match policy {
            SchedulePolicy::Os => None,
            _ => Some(Arc::new(ScheduleState::new(policy, self.p))),
        };
        *self.schedule.lock().unwrap_or_else(|e| e.into_inner()) = state;
    }

    /// The currently installed schedule policy.
    pub fn schedule_policy(&self) -> SchedulePolicy {
        self.schedule_state()
            .map_or(SchedulePolicy::Os, |s| s.policy)
    }

    fn schedule_state(&self) -> Option<Arc<ScheduleState>> {
        self.schedule
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Is `rank` still alive (not retired)?
    pub fn is_alive(&self, rank: usize) -> bool {
        self.alive[rank].load(Ordering::SeqCst)
    }

    /// Marks `rank` as dead and wakes every receiver blocked on a
    /// message from it, so peers observe [`CommError::PeerClosed`]
    /// instead of waiting out the timeout. The retired rank's *own*
    /// blocked receives are woken too: a rank demoted by its peers (the
    /// straggler-eviction verdict) observes [`CommError::Demoted`]
    /// promptly instead of stalling to the global timeout.
    pub fn retire(&self, rank: usize) {
        self.alive[rank].store(false, Ordering::SeqCst);
        for other in 0..self.p {
            for lane in [&self.links, &self.ctrl] {
                for link_idx in [other * self.p + rank, rank * self.p + other] {
                    let link = &lane[link_idx];
                    let _guard = link.lock();
                    link.ready.notify_all();
                }
            }
        }
    }

    /// Resolves a deadline blame raised by `dst` against `src` to the
    /// most likely straggler by walking the fabric's wait-for chain.
    ///
    /// The proximate peer of an expired budget is often innocent: a
    /// rank stuck in a blocking receive behind the real straggler has
    /// not issued its *own* sends yet, so lateness chains through the
    /// topology (rank 0 times out on rank 3, which is blocked on
    /// rank 2, which is blocked on the degraded rank 1). Each blocked
    /// receive publishes who it waits on; the walk follows that
    /// relation from `src` until it reaches a rank that is *not*
    /// blocked — the one actually failing to make progress. The walk
    /// stops early if it loops back to `dst` or exceeds `p` hops
    /// (a genuine wait cycle), returning the last rank reached.
    ///
    /// The cells are read racily, but a rank slow enough to trip a
    /// deadline budget leaves the chain quiesced for the whole budget,
    /// so every blamer resolves to the same culprit in practice.
    pub fn resolve_blame(&self, dst: usize, src: usize) -> usize {
        let mut cur = src;
        for _ in 0..self.p {
            let next = self.blocked_on[cur].load(Ordering::Relaxed);
            if next == usize::MAX || next == dst || next == cur {
                break;
            }
            cur = next;
        }
        cur
    }

    /// Has the fabric been revoked (a rank observed a failure and called
    /// [`Fabric::revoke`])?
    pub fn is_revoked(&self) -> bool {
        self.revoked.load(Ordering::SeqCst)
    }

    /// Revokes the data plane: every pending and future data-plane send
    /// or receive fails fast with [`CommError::Revoked`], flushing all
    /// live ranks out of whatever collective they were blocked in so
    /// they can enter the agreement protocol. Control-plane traffic is
    /// unaffected. Idempotent.
    pub fn revoke(&self) {
        self.revoked.store(true, Ordering::SeqCst);
        for link in &self.links {
            let _guard = link.lock();
            link.ready.notify_all();
        }
    }

    /// Clears the revocation flag after recovery completes. Call only
    /// from the agreement protocol, after [`Fabric::bump_epoch`].
    pub fn clear_revocation(&self) {
        self.revoked.store(false, Ordering::SeqCst);
    }

    /// The current message epoch.
    pub fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Advances the message epoch. Data messages already in flight (sent
    /// under an older epoch) are silently discarded at the receiver, so
    /// a collective retried after recovery cannot consume stale payloads
    /// from its aborted predecessor.
    pub fn bump_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Restores all ranks to alive, clears stale in-flight messages, and
    /// resets fault-plan counters, revocation, and the message epoch.
    /// Called at the start of each [`crate::Universe`] run so a universe
    /// remains usable after a failed run.
    pub fn reset_for_run(&self) {
        for a in &self.alive {
            a.store(true, Ordering::SeqCst);
        }
        for b in &self.blocked_on {
            b.store(usize::MAX, Ordering::Relaxed);
        }
        for link in self.links.iter().chain(self.ctrl.iter()) {
            link.lock().clear();
        }
        self.revoked.store(false, Ordering::SeqCst);
        self.epoch.store(0, Ordering::SeqCst);
        if let Some(state) = self.fault_state() {
            for c in state.link_ops.iter().chain(state.rank_ops.iter()) {
                c.store(0, Ordering::Relaxed);
            }
        }
        if let Some(state) = self.schedule_state() {
            state.reset();
        }
    }

    #[inline]
    fn link(&self, src: usize, dst: usize) -> &Link {
        &self.links[dst * self.p + src]
    }

    /// Fallible send of a typed vector from `src` to `dst`, recording
    /// traffic and applying any injected faults.
    ///
    /// Accounting order matters (see [`TrafficStats`]): the message
    /// counts as *attempted* once it passes the liveness check, and then
    /// as exactly one of *delivered* or *dropped* — a collective that
    /// aborts mid-fanout neither double-counts nor leaks.
    pub fn try_send<T: Send + 'static>(
        &self,
        src: usize,
        dst: usize,
        data: Vec<T>,
    ) -> Result<(), CommError> {
        self.try_send_kind(src, dst, data, CollectiveKind::PointToPoint)
    }

    /// [`Fabric::try_send`] with an explicit [`CollectiveKind`] charged
    /// for the traffic — the collectives in [`crate::comm::Comm`] use
    /// this so every delivered byte is attributed to the user-facing
    /// operation that moved it.
    pub fn try_send_kind<T: Send + 'static>(
        &self,
        src: usize,
        dst: usize,
        mut data: Vec<T>,
        kind: CollectiveKind,
    ) -> Result<(), CommError> {
        let fault = self.fault_state();
        if let Some(state) = &fault {
            state.step_rank(src);
        }
        if !self.is_alive(src) {
            // This rank was demoted (retired) by the failure detector
            // while still running: fail fast instead of feeding a
            // communicator its peers have already shrunk away from.
            return Err(CommError::Demoted { rank: src });
        }
        if self.is_revoked() {
            return Err(CommError::Revoked { rank: src });
        }
        if !self.is_alive(dst) {
            return Err(CommError::PeerClosed { peer: dst, me: src });
        }

        let bytes = std::mem::size_of_val(data.as_slice()) as u64;
        self.stats.attempted.fetch_add(1, Ordering::Relaxed);

        if let Some(state) = &fault {
            if let Some(delay) = state.slow_delay_now(src) {
                // Persistent slow rank: every rendezvous it initiates is
                // late, modeling a degraded-but-alive node.
                std::thread::sleep(delay);
            }
            let idx = state.link_ops[dst * self.p + src].fetch_add(1, Ordering::Relaxed);
            if let Some(delay) = state.plan.delay_for(src, dst, idx) {
                std::thread::sleep(delay);
            }
            if let Some((mode, h)) = state.plan.corrupt_for(src, dst, idx) {
                corrupt_payload(&mut data, mode, h);
            }
            if state.plan.lost_for(src, dst, idx) {
                // The message vanishes on the wire. It was attempted but
                // not delivered, so only the `dropped` counter moves —
                // unless a retry policy retransmits it. The retry loop
                // runs inside this call (same thread, same link), so
                // per-link FIFO order is preserved and a healed run is
                // bit-identical to a fault-free one. Loss decisions are
                // pure functions of the per-link message index, so each
                // retransmission draws a fresh, deterministic decision.
                self.stats.dropped.fetch_add(1, Ordering::Relaxed);
                let mut healed = false;
                if let Some(retry) = self.retry_policy() {
                    for attempt in 1..=retry.max_retries {
                        std::thread::sleep(retry.backoff(attempt));
                        self.stats.send_retries.fetch_add(1, Ordering::Relaxed);
                        self.stats.attempted.fetch_add(1, Ordering::Relaxed);
                        let idx =
                            state.link_ops[dst * self.p + src].fetch_add(1, Ordering::Relaxed);
                        if !state.plan.lost_for(src, dst, idx) {
                            self.stats.drops_healed.fetch_add(1, Ordering::Relaxed);
                            healed = true;
                            break;
                        }
                        self.stats.dropped.fetch_add(1, Ordering::Relaxed);
                    }
                }
                if !healed {
                    // Exhausted (or no policy): the receiver will surface
                    // this as a Timeout / DeadlineExceeded.
                    return Ok(());
                }
            }
        }

        // Schedule perturbation: deterministically shift *when* this send
        // publishes its payload. FIFO order on the link is untouched.
        if let Some(sched) = self.schedule_state() {
            if let Some(delay) = sched.send_delay(src, dst) {
                std::thread::sleep(delay);
            }
        }

        let stats = &self.stats;
        stats.charges_started.fetch_add(1, Ordering::Relaxed);
        fence(Ordering::Release);
        stats.bytes.fetch_add(bytes, Ordering::Relaxed);
        stats.messages.fetch_add(1, Ordering::Relaxed);
        stats.bytes_by_rank[src].fetch_add(bytes, Ordering::Relaxed);
        let cell = src * KIND_COUNT + kind.index();
        stats.kind_bytes[cell].fetch_add(bytes, Ordering::Relaxed);
        stats.kind_messages[cell].fetch_add(1, Ordering::Relaxed);
        stats.charges_finished.fetch_add(1, Ordering::Release);

        let epoch = self.current_epoch();
        let link = self.link(src, dst);
        link.lock().push_back((epoch, Box::new(data)));
        link.ready.notify_all();
        Ok(())
    }

    /// Fallible receive of the next message sent from `src` to `dst`,
    /// downcasting to the expected element type. Messages sent under an
    /// earlier fabric epoch are silently discarded (stale traffic from a
    /// collective aborted by fault recovery).
    pub fn try_recv<T: Send + 'static>(&self, src: usize, dst: usize) -> Result<Vec<T>, CommError> {
        self.try_recv_kind(src, dst, CollectiveKind::PointToPoint)
    }

    /// [`Fabric::try_recv`] with an explicit [`CollectiveKind`]: the kind
    /// selects which [`DeadlinePolicy`] budget (if any) this receive runs
    /// under, layered *under* the global timeout. When a budget expires
    /// with a [`RetryPolicy`] installed, the wait is re-armed with
    /// backoff (counted on `TrafficStats::recv_retries`) before
    /// [`CommError::DeadlineExceeded`] surfaces.
    ///
    /// Blocked-wait time is charged to the *sender* on
    /// [`TrafficStats::induced_wait_us`] — the per-rank signal the
    /// straggler detector consumes.
    pub fn try_recv_kind<T: Send + 'static>(
        &self,
        src: usize,
        dst: usize,
        kind: CollectiveKind,
    ) -> Result<Vec<T>, CommError> {
        if let Some(state) = self.fault_state() {
            state.step_rank(dst);
            if let Some(delay) = state.slow_delay_now(dst) {
                // Persistent slow rank: its receives are as late as its
                // sends — the whole node is degraded, not one link.
                std::thread::sleep(delay);
            }
        }
        // Schedule perturbation: shift when this receiver starts draining
        // its queue (lock not yet held, so nothing else is blocked).
        let sched = self.schedule_state();
        if let Some(state) = &sched {
            if let Some(delay) = state.recv_delay(src, dst) {
                std::thread::sleep(delay);
            }
        }
        let timeout = self.recv_timeout();
        let overall = Instant::now() + timeout;
        let budget = self.deadline_policy().and_then(|d| d.budget(kind));
        let retry = budget.and(self.retry_policy());
        let mut attempt = 0u32;
        let mut op_deadline = budget.map(|b| Instant::now() + b);
        let wait_start = Instant::now();
        let charge = || {
            self.stats
                .charge_wait(src, duration_to_us_saturating(wait_start.elapsed()));
        };
        // Publish who we are blocked on for the duration of the wait so
        // deadline blame can be resolved along the wait-for chain (the
        // guard clears the cell on every exit path).
        self.blocked_on[dst].store(src, Ordering::Relaxed);
        let _blocked = ClearOnDrop(&self.blocked_on[dst]);
        let link = self.link(src, dst);
        let mut queue = link.lock();
        let payload = loop {
            if self.is_revoked() {
                charge();
                return Err(CommError::Revoked { rank: dst });
            }
            if !self.is_alive(dst) {
                // Demoted by the failure detector while blocked (or about
                // to block): fail fast instead of waiting out a timeout
                // on a membership that no longer includes us.
                charge();
                return Err(CommError::Demoted { rank: dst });
            }
            let current = self.current_epoch();
            match queue.pop_front() {
                Some((epoch, payload)) if epoch >= current => break payload,
                Some(_) => continue, // stale epoch: discard, keep looking
                None => {}
            }
            if !self.is_alive(src) {
                charge();
                return Err(CommError::PeerClosed { peer: src, me: dst });
            }
            let now = Instant::now();
            if now >= overall {
                charge();
                return Err(CommError::Timeout {
                    src,
                    dst,
                    waited: timeout,
                });
            }
            if let (Some(d), Some(b)) = (op_deadline, budget) {
                if now >= d {
                    match retry {
                        Some(r) if attempt < r.max_retries => {
                            // Re-arm the budget with backoff: the peer
                            // may be slow, not gone. Release the link
                            // lock while sleeping so the sender can
                            // deliver in the meantime.
                            attempt += 1;
                            self.stats.recv_retries.fetch_add(1, Ordering::Relaxed);
                            drop(queue);
                            std::thread::sleep(r.backoff(attempt));
                            op_deadline = Some(Instant::now() + b);
                            queue = link.lock();
                            continue;
                        }
                        _ => {
                            charge();
                            return Err(CommError::DeadlineExceeded {
                                src,
                                dst,
                                kind: kind.name(),
                                budget: b,
                            });
                        }
                    }
                }
            }
            let until = op_deadline.map_or(overall, |d| d.min(overall));
            let (guard, _res) = link
                .ready
                .wait_timeout(queue, until - now)
                .unwrap_or_else(|e| e.into_inner());
            queue = guard;
            // Schedule perturbation of the wakeup choice: briefly release
            // the lock and yield so a different contender can win it.
            if let Some(state) = &sched {
                if state.yield_after_wakeup(src, dst) {
                    drop(queue);
                    std::thread::yield_now();
                    queue = link.lock();
                }
            }
        };
        drop(queue);
        charge();
        payload
            .downcast::<Vec<T>>()
            .map(|b| *b)
            .map_err(|_| CommError::TypeMismatch {
                src,
                dst,
                expected: std::any::type_name::<T>(),
            })
    }

    /// Control-plane send (failure detection / agreement traffic).
    ///
    /// Bypasses fault injection, revocation, epoch filtering, and the
    /// traffic counters — modeling ULFM's assumption of a reliable
    /// out-of-band detector network — but still refuses to target a dead
    /// rank.
    pub fn ctrl_send<T: Send + 'static>(
        &self,
        src: usize,
        dst: usize,
        data: Vec<T>,
    ) -> Result<(), CommError> {
        if !self.is_alive(src) {
            // A demoted rank must not litter the control plane: stale
            // votes from an evicted member could poison a later
            // agreement round (ctrl messages carry no epoch).
            return Err(CommError::Demoted { rank: src });
        }
        if !self.is_alive(dst) {
            return Err(CommError::PeerClosed { peer: dst, me: src });
        }
        // Schedule perturbation covers the control plane too (agreement
        // and failure-detection races are prime exploration targets);
        // the counters are shared with the data plane, which is fine —
        // a rank issues its sends in program order, so the combined
        // index stream is still deterministic.
        if let Some(sched) = self.schedule_state() {
            if let Some(delay) = sched.send_delay(src, dst) {
                std::thread::sleep(delay);
            }
        }
        let link = &self.ctrl[dst * self.p + src];
        link.lock().push_back((0, Box::new(data)));
        link.ready.notify_all();
        Ok(())
    }

    /// Control-plane receive (see [`Fabric::ctrl_send`]). Honors
    /// liveness and the receive timeout; ignores revocation and epochs.
    pub fn ctrl_recv<T: Send + 'static>(
        &self,
        src: usize,
        dst: usize,
    ) -> Result<Vec<T>, CommError> {
        if let Some(sched) = self.schedule_state() {
            if let Some(delay) = sched.recv_delay(src, dst) {
                std::thread::sleep(delay);
            }
        }
        let timeout = self.recv_timeout();
        let deadline = Instant::now() + timeout;
        let link = &self.ctrl[dst * self.p + src];
        let mut queue = link.lock();
        let payload = loop {
            if !self.is_alive(dst) {
                // Demoted while waiting for agreement traffic: wake up
                // and leave instead of stalling to the timeout.
                return Err(CommError::Demoted { rank: dst });
            }
            if let Some((_, payload)) = queue.pop_front() {
                break payload;
            }
            if !self.is_alive(src) {
                return Err(CommError::PeerClosed { peer: src, me: dst });
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(CommError::Timeout {
                    src,
                    dst,
                    waited: timeout,
                });
            }
            let (guard, _res) = link
                .ready
                .wait_timeout(queue, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            queue = guard;
        };
        drop(queue);
        payload
            .downcast::<Vec<T>>()
            .map(|b| *b)
            .map_err(|_| CommError::TypeMismatch {
                src,
                dst,
                expected: std::any::type_name::<T>(),
            })
    }
}

/// Applies an injected corruption to an `f64` or `f32` payload in place.
/// Non-float payloads (control traffic, index exchanges) are left alone:
/// the model is silent data corruption in bulk numeric transfers.
// `&mut Vec<T>` (not `&mut [T]`) is required: the `Any` downcast must see
// the concrete `Vec<f64>` / `Vec<f32>` type to identify float payloads.
#[allow(clippy::ptr_arg)]
fn corrupt_payload<T: Send + 'static>(data: &mut Vec<T>, mode: CorruptMode, h: u64) {
    let any: &mut dyn Any = data;
    if let Some(v) = any.downcast_mut::<Vec<f64>>() {
        if v.is_empty() {
            return;
        }
        let i = (h as usize) % v.len();
        match mode {
            CorruptMode::NanInject => v[i] = f64::NAN,
            CorruptMode::BitFlip => {
                let bit = (h >> 32) % 52; // mantissa bits: silent, plausible
                v[i] = f64::from_bits(v[i].to_bits() ^ (1u64 << bit));
            }
            CorruptMode::ExponentFlip => v[i] = exponent_flip_f64(v[i], h),
        }
    } else if let Some(v) = any.downcast_mut::<Vec<f32>>() {
        if v.is_empty() {
            return;
        }
        let i = (h as usize) % v.len();
        match mode {
            CorruptMode::NanInject => v[i] = f32::NAN,
            CorruptMode::BitFlip => {
                let bit = ((h >> 32) % 23) as u32;
                v[i] = f32::from_bits(v[i].to_bits() ^ (1u32 << bit));
            }
            CorruptMode::ExponentFlip => v[i] = exponent_flip_f32(v[i], h),
        }
    }
}

/// Flips one exponent bit of `x`, choosing the first candidate (in a
/// hash-derived order) whose result is still finite. For any finite
/// input at least one of the 11 exponent bits yields a finite value, so
/// the corruption is *guaranteed finite*: a large-magnitude but
/// perfectly plausible number that NaN/Inf screens provably cannot
/// catch — exactly the class of silent error ABFT checksums exist for.
fn exponent_flip_f64(x: f64, h: u64) -> f64 {
    let start = ((h >> 32) % 11) as usize;
    for t in 0..11u64 {
        let bit = 52 + ((start as u64 + t) % 11);
        let cand = f64::from_bits(x.to_bits() ^ (1u64 << bit));
        if cand.is_finite() && cand != x {
            return cand;
        }
    }
    x
}

/// `f32` analog of [`exponent_flip_f64`] (8 exponent bits, 23..=30).
fn exponent_flip_f32(x: f32, h: u64) -> f32 {
    let start = ((h >> 32) % 8) as u32;
    for t in 0..8u32 {
        let bit = 23 + ((start + t) % 8);
        let cand = f32::from_bits(x.to_bits() ^ (1u32 << bit));
        if cand.is_finite() && cand != x {
            return cand;
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_recv_roundtrip() {
        let f = Fabric::new(2);
        f.try_send(0, 1, vec![1.0f64, 2.0, 3.0]).unwrap();
        let got: Vec<f64> = f.try_recv(0, 1).unwrap();
        assert_eq!(got, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn traffic_is_counted() {
        let f = Fabric::new(2);
        f.try_send(0, 1, vec![0u64; 10]).unwrap();
        let _: Vec<u64> = f.try_recv(0, 1).unwrap();
        let (bytes, msgs) = f.stats().snapshot();
        assert_eq!(bytes, 80);
        assert_eq!(msgs, 1);
        assert_eq!(f.stats().max_bytes_per_rank(), 80);
    }

    #[test]
    fn messages_from_same_source_are_fifo() {
        let f = Fabric::new(2);
        f.try_send(0, 1, vec![1i64]).unwrap();
        f.try_send(0, 1, vec![2i64]).unwrap();
        assert_eq!(f.try_recv::<i64>(0, 1).unwrap(), vec![1]);
        assert_eq!(f.try_recv::<i64>(0, 1).unwrap(), vec![2]);
    }

    #[test]
    fn type_mismatch_is_a_typed_error() {
        let f = Fabric::new(2);
        f.try_send(0, 1, vec![1.0f32]).unwrap();
        match f.try_recv::<f64>(0, 1) {
            Err(CommError::TypeMismatch {
                src: 0,
                dst: 1,
                expected,
            }) => {
                assert!(expected.contains("f64"));
            }
            other => panic!("expected TypeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn self_send_works() {
        let f = Fabric::new(1);
        f.try_send(0, 0, vec![7u8]).unwrap();
        assert_eq!(f.try_recv::<u8>(0, 0).unwrap(), vec![7]);
    }

    #[test]
    fn recv_times_out_with_typed_error() {
        let f = Fabric::new(2);
        f.set_recv_timeout(Duration::from_millis(20));
        let start = Instant::now();
        match f.try_recv::<f64>(0, 1) {
            Err(CommError::Timeout { src: 0, dst: 1, .. }) => {}
            other => panic!("expected Timeout, got {other:?}"),
        }
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn retired_peer_surfaces_peer_closed() {
        let f = Fabric::new(2);
        f.retire(0);
        match f.try_recv::<f64>(0, 1) {
            Err(CommError::PeerClosed { peer: 0, me: 1 }) => {}
            other => panic!("expected PeerClosed, got {other:?}"),
        }
        match f.try_send(1, 0, vec![1.0f64]) {
            Err(CommError::PeerClosed { peer: 0, me: 1 }) => {}
            other => panic!("expected PeerClosed, got {other:?}"),
        }
        f.reset_for_run();
        assert!(f.is_alive(0));
    }

    #[test]
    fn retire_wakes_blocked_receiver() {
        let f = Fabric::new(2);
        f.set_recv_timeout(Duration::from_secs(30));
        let f2 = Arc::clone(&f);
        let start = Instant::now();
        let h = std::thread::spawn(move || f2.try_recv::<f64>(0, 1));
        std::thread::sleep(Duration::from_millis(30));
        f.retire(0);
        let res = h.join().unwrap();
        assert!(matches!(res, Err(CommError::PeerClosed { peer: 0, me: 1 })));
        assert!(start.elapsed() < Duration::from_secs(5), "receiver hung");
    }

    #[test]
    fn dropped_message_times_out() {
        let f = Fabric::new(2);
        f.set_recv_timeout(Duration::from_millis(20));
        f.attach_fault_plan(FaultPlan::quiet(0).with_drops(1.0));
        f.try_send(0, 1, vec![1.0f64]).unwrap();
        assert!(matches!(
            f.try_recv::<f64>(0, 1),
            Err(CommError::Timeout { .. })
        ));
        f.clear_fault_plan();
    }

    #[test]
    fn nan_corruption_hits_f64_payloads() {
        let f = Fabric::new(2);
        f.attach_fault_plan(FaultPlan::quiet(0).with_corruption(1.0, CorruptMode::NanInject));
        f.try_send(0, 1, vec![1.0f64, 2.0, 3.0]).unwrap();
        let got: Vec<f64> = f.try_recv(0, 1).unwrap();
        assert_eq!(got.iter().filter(|x| x.is_nan()).count(), 1);
        // Non-float payloads pass through untouched.
        f.try_send(0, 1, vec![5usize, 6]).unwrap();
        assert_eq!(f.try_recv::<usize>(0, 1).unwrap(), vec![5, 6]);
    }

    #[test]
    fn bitflip_corruption_changes_one_value() {
        let f = Fabric::new(2);
        f.attach_fault_plan(FaultPlan::quiet(9).with_corruption(1.0, CorruptMode::BitFlip));
        let orig = vec![1.0f64, 2.0, 3.0, 4.0];
        f.try_send(0, 1, orig.clone()).unwrap();
        let got: Vec<f64> = f.try_recv(0, 1).unwrap();
        let changed = got.iter().zip(&orig).filter(|(a, b)| a != b).count();
        assert_eq!(changed, 1);
        assert!(
            got.iter().all(|x| x.is_finite()),
            "mantissa flips stay finite"
        );
    }

    #[test]
    fn exponent_flip_is_finite_and_changes_one_value() {
        let f = Fabric::new(2);
        f.attach_fault_plan(FaultPlan::quiet(41).with_corruption(1.0, CorruptMode::ExponentFlip));
        let orig = vec![1.5f64, -2.25, 3.75, 4.125];
        f.try_send(0, 1, orig.clone()).unwrap();
        let got: Vec<f64> = f.try_recv(0, 1).unwrap();
        let changed = got.iter().zip(&orig).filter(|(a, b)| a != b).count();
        assert_eq!(changed, 1, "exactly one element corrupted");
        assert!(
            got.iter().all(|x| x.is_finite()),
            "exponent flips must stay finite (so NaN screens miss them): {got:?}"
        );
        f.clear_fault_plan();
    }

    #[test]
    fn exponent_flip_helper_is_total() {
        // Every finite input (including zero and subnormals) must have a
        // finite, different flip result.
        for &x in &[0.0f64, -0.0, 1.0, -1.0, f64::MIN_POSITIVE, 1e308, -1e-300] {
            for h in 0..11u64 {
                let y = exponent_flip_f64(x, h << 32);
                assert!(y.is_finite(), "x={x}, h={h} -> {y}");
                assert!(y != x, "x={x}, h={h} did not change");
            }
        }
        for &x in &[0.0f32, 1.0, -3.5, f32::MIN_POSITIVE, 1e38] {
            for h in 0..8u64 {
                let y = exponent_flip_f32(x, h << 32);
                assert!(y.is_finite(), "x={x}, h={h} -> {y}");
                assert!(y != x, "x={x}, h={h} did not change");
            }
        }
    }

    #[test]
    fn dropped_messages_keep_counters_consistent() {
        let f = Fabric::new(2);
        f.attach_fault_plan(FaultPlan::quiet(3).with_drops(1.0));
        for _ in 0..5 {
            f.try_send(0, 1, vec![1.0f64; 8]).unwrap();
        }
        let stats = f.stats();
        assert_eq!(stats.attempted.load(Ordering::Relaxed), 5);
        assert_eq!(stats.dropped.load(Ordering::Relaxed), 5);
        let (bytes, msgs) = stats.snapshot();
        assert_eq!(msgs, 0, "dropped messages are not 'delivered'");
        assert_eq!(bytes, 0, "dropped bytes are not counted as moved");
        stats.check_invariant().expect("invariant under total drop");
        f.clear_fault_plan();
        f.try_send(0, 1, vec![1.0f64; 8]).unwrap();
        assert_eq!(stats.attempted.load(Ordering::Relaxed), 6);
        assert_eq!(stats.messages.load(Ordering::Relaxed), 1);
        stats
            .check_invariant()
            .expect("invariant after mixed traffic");
    }

    #[test]
    fn revoke_fails_pending_and_future_data_ops() {
        let f = Fabric::new(2);
        f.set_recv_timeout(Duration::from_secs(30));
        let f2 = Arc::clone(&f);
        let start = Instant::now();
        let h = std::thread::spawn(move || f2.try_recv::<f64>(0, 1));
        std::thread::sleep(Duration::from_millis(30));
        f.revoke();
        let res = h.join().unwrap();
        assert!(
            matches!(res, Err(CommError::Revoked { rank: 1 })),
            "{res:?}"
        );
        assert!(start.elapsed() < Duration::from_secs(5), "receiver hung");
        assert!(matches!(
            f.try_send(0, 1, vec![1.0f64]),
            Err(CommError::Revoked { rank: 0 })
        ));
        // Control plane keeps working while revoked.
        f.ctrl_send(0, 1, vec![7u64]).unwrap();
        assert_eq!(f.ctrl_recv::<u64>(0, 1).unwrap(), vec![7]);
        f.clear_revocation();
        f.try_send(0, 1, vec![2.0f64]).unwrap();
        assert_eq!(f.try_recv::<f64>(0, 1).unwrap(), vec![2.0]);
    }

    #[test]
    fn epoch_bump_discards_stale_messages() {
        let f = Fabric::new(2);
        f.set_recv_timeout(Duration::from_millis(20));
        f.try_send(0, 1, vec![1.0f64]).unwrap(); // epoch 0
        f.bump_epoch();
        // The stale epoch-0 message must not satisfy this receive.
        assert!(matches!(
            f.try_recv::<f64>(0, 1),
            Err(CommError::Timeout { .. })
        ));
        f.try_send(0, 1, vec![2.0f64]).unwrap(); // epoch 1
        assert_eq!(f.try_recv::<f64>(0, 1).unwrap(), vec![2.0]);
    }

    #[test]
    fn injected_crash_panics_at_op_n() {
        let f = Fabric::new(2);
        f.attach_fault_plan(FaultPlan::quiet(0).with_crash(0, 3));
        f.try_send(0, 1, vec![1u8]).unwrap(); // op 1
        f.try_send(0, 1, vec![2u8]).unwrap(); // op 2
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            f.try_send(0, 1, vec![3u8]).unwrap(); // op 3 → crash
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("injected crash"), "got: {msg}");
    }

    #[test]
    fn kind_counters_partition_the_global_totals() {
        let f = Fabric::new(2);
        f.try_send_kind(0, 1, vec![1.0f64; 4], CollectiveKind::Allreduce)
            .unwrap();
        f.try_send_kind(1, 0, vec![1.0f64; 2], CollectiveKind::ReduceScatter)
            .unwrap();
        f.try_send(0, 1, vec![7u8]).unwrap(); // bare p2p
        let stats = f.stats();
        let totals = stats.kind_totals();
        assert_eq!(totals.bytes_of(CollectiveKind::Allreduce), 32);
        assert_eq!(totals.bytes_of(CollectiveKind::ReduceScatter), 16);
        assert_eq!(totals.bytes_of(CollectiveKind::PointToPoint), 1);
        assert_eq!(totals.messages_of(CollectiveKind::Allreduce), 1);
        assert_eq!(totals.total_bytes(), stats.snapshot().0);
        assert_eq!(totals.total_messages(), stats.snapshot().1);
        stats.check_kind_partition().expect("partition invariant");
        // Per-rank attribution: rank 0 sent the allreduce + p2p bytes.
        let r0 = stats.kind_snapshot_for(0);
        assert_eq!(r0.bytes_of(CollectiveKind::Allreduce), 32);
        assert_eq!(r0.bytes_of(CollectiveKind::ReduceScatter), 0);
    }

    #[test]
    fn dropped_sends_are_not_charged_to_any_kind() {
        let f = Fabric::new(2);
        f.attach_fault_plan(FaultPlan::quiet(3).with_drops(1.0));
        f.try_send_kind(0, 1, vec![1.0f64; 8], CollectiveKind::Bcast)
            .unwrap();
        let totals = f.stats().kind_totals();
        assert_eq!(totals.total_bytes(), 0, "dropped bytes never delivered");
        assert_eq!(totals.total_messages(), 0);
        f.stats().check_kind_partition().expect("partition on drop");
        f.clear_fault_plan();
    }

    #[test]
    fn traffic_scope_sees_only_its_own_rank() {
        let f = Fabric::new(2);
        let scope0 = f.stats().scope(0);
        let scope1 = f.stats().scope(1);
        f.try_send_kind(0, 1, vec![1.0f64; 3], CollectiveKind::Gatherv)
            .unwrap();
        let d0 = scope0.delta();
        let d1 = scope1.delta();
        assert_eq!(d0.total_bytes(), 24);
        assert_eq!(d0.bytes_of(CollectiveKind::Gatherv), 24);
        assert_eq!(d1.total_bytes(), 0, "rank 1 sent nothing");
        // Scopes are non-consuming and deltas are cumulative.
        f.try_send_kind(0, 1, vec![1.0f64], CollectiveKind::Gatherv)
            .unwrap();
        assert_eq!(scope0.delta().total_bytes(), 32);
    }

    #[test]
    fn kind_name_round_trips() {
        for kind in CollectiveKind::ALL {
            assert_eq!(CollectiveKind::from_name(kind.name()), Some(kind));
            assert_eq!(CollectiveKind::ALL[kind.index()], kind);
        }
        assert_eq!(CollectiveKind::from_name("warp_drive"), None);
    }

    #[test]
    fn env_var_overrides_default_timeout() {
        // Can't mutate the environment of already-built fabrics, but the
        // parser itself must accept fractional seconds and reject junk.
        assert_eq!(RECV_TIMEOUT, Duration::from_secs(120));
        let f = Fabric::new(1);
        f.set_recv_timeout(Duration::from_millis(1500));
        assert_eq!(f.recv_timeout(), Duration::from_millis(1500));
    }

    #[test]
    fn recv_timeout_parser_accepts_positive_seconds() {
        assert_eq!(parse_recv_timeout("120"), Ok(Duration::from_secs(120)));
        assert_eq!(parse_recv_timeout("1.5"), Ok(Duration::from_millis(1500)));
        assert_eq!(parse_recv_timeout("  2 "), Ok(Duration::from_secs(2)));
        assert_eq!(parse_recv_timeout("0.25"), Ok(Duration::from_millis(250)));
    }

    #[test]
    fn recv_timeout_parser_rejects_malformed_values() {
        // Every rejection carries a reason (surfaced in the one-time
        // warning) instead of being silently swallowed.
        for bad in ["0", "-3", "nan", "inf", "-inf", "1e300", "", "abc", "12s"] {
            let err = parse_recv_timeout(bad).unwrap_err();
            assert!(!err.is_empty(), "{bad:?} should explain its rejection");
        }
    }

    #[test]
    fn schedule_policy_installs_and_clears() {
        let f = Fabric::new(2);
        assert_eq!(f.schedule_policy(), SchedulePolicy::Os);
        f.set_schedule_policy(SchedulePolicy::SeededRandom { seed: 7 });
        assert_eq!(
            f.schedule_policy(),
            SchedulePolicy::SeededRandom { seed: 7 }
        );
        f.set_schedule_policy(SchedulePolicy::Adversarial(Adversary::StarveRank {
            rank: 1,
        }));
        assert_eq!(
            f.schedule_policy(),
            SchedulePolicy::Adversarial(Adversary::StarveRank { rank: 1 })
        );
        f.set_schedule_policy(SchedulePolicy::Os);
        assert_eq!(f.schedule_policy(), SchedulePolicy::Os);
    }

    #[test]
    fn fifo_order_survives_every_schedule_policy() {
        // The determinism guarantee: perturbation shifts timing only,
        // never the order in which one link delivers its messages.
        let policies = [
            SchedulePolicy::SeededRandom { seed: 99 },
            SchedulePolicy::Adversarial(Adversary::StarveRank { rank: 0 }),
            SchedulePolicy::Adversarial(Adversary::Lifo),
            SchedulePolicy::Adversarial(Adversary::CrossDelay),
            SchedulePolicy::Adversarial(Adversary::StarveWaits),
        ];
        for policy in policies {
            let f = Fabric::new(2);
            f.set_schedule_policy(policy);
            for i in 0..10i64 {
                f.try_send(1, 0, vec![i]).unwrap();
            }
            for i in 0..10i64 {
                assert_eq!(
                    f.try_recv::<i64>(1, 0).unwrap(),
                    vec![i],
                    "under {policy:?}"
                );
            }
        }
    }

    #[test]
    fn schedule_delays_are_deterministic_and_targeted() {
        let starve = ScheduleState::new(
            SchedulePolicy::Adversarial(Adversary::StarveRank { rank: 1 }),
            4,
        );
        // Only ops executed *by* the starved rank are delayed.
        assert!(starve.op_delay(1, 1, 0, 0, 0).is_some());
        assert!(starve.op_delay(0, 0, 1, 0, 0).is_none());

        let cross = ScheduleState::new(SchedulePolicy::Adversarial(Adversary::CrossDelay), 4);
        assert!(cross.op_delay(2, 2, 0, 0, 0).is_some(), "upward is delayed");
        assert!(cross.op_delay(0, 0, 2, 0, 0).is_none(), "downward flows");

        let lifo = ScheduleState::new(SchedulePolicy::Adversarial(Adversary::Lifo), 2);
        let d0 = lifo.op_delay(0, 0, 1, 0, 0).unwrap();
        let d2 = lifo.op_delay(0, 0, 1, 2, 0).unwrap();
        assert!(d0 > d2, "older ops wait longer: {d0:?} vs {d2:?}");
        assert!(lifo.op_delay(0, 0, 1, 3, 0).is_none(), "newest goes first");

        let waits = ScheduleState::new(SchedulePolicy::Adversarial(Adversary::StarveWaits), 2);
        assert!(
            waits
                .op_delay(1, 0, 1, 0, ScheduleState::RECV_SALT)
                .is_some(),
            "receive side is starved"
        );
        assert!(
            waits
                .op_delay(0, 0, 1, 0, ScheduleState::SEND_SALT)
                .is_none(),
            "sends publish undelayed"
        );
        let w0 = waits.op_delay(1, 0, 1, 0, ScheduleState::RECV_SALT);
        let w1 = waits.op_delay(1, 0, 1, 1, ScheduleState::RECV_SALT);
        assert_ne!(w0, w1, "index-varying delays reorder completions");
        assert!(waits.yield_after_wakeup(0, 1), "waiters always yield");

        let a = ScheduleState::new(SchedulePolicy::SeededRandom { seed: 5 }, 2);
        let b = ScheduleState::new(SchedulePolicy::SeededRandom { seed: 5 }, 2);
        for idx in 0..32 {
            assert_eq!(
                a.op_delay(0, 0, 1, idx, 7),
                b.op_delay(0, 0, 1, idx, 7),
                "same seed must replay the same delay pattern"
            );
        }
        let c = ScheduleState::new(SchedulePolicy::SeededRandom { seed: 6 }, 2);
        let differs = (0..32).any(|idx| a.op_delay(0, 0, 1, idx, 7) != c.op_delay(0, 0, 1, idx, 7));
        assert!(differs, "different seeds should differ somewhere");
    }

    #[test]
    fn recv_timeout_parser_accepts_the_max_boundary() {
        // The documented ceiling itself must parse…
        assert_eq!(parse_recv_timeout("1e9"), Ok(Duration::from_secs_f64(1e9)));
        // …and convert to microseconds without truncation (1e15 µs fits
        // comfortably in u64; the old `as_micros() as u64` cast only
        // wrapped beyond ~5.8e5 years, which saturation now absorbs).
        assert_eq!(
            duration_to_us_saturating(Duration::from_secs_f64(1e9)),
            1_000_000_000_000_000
        );
        assert!(parse_recv_timeout("1.000001e9").is_err(), "above the cap");
    }

    #[test]
    fn set_recv_timeout_saturates_instead_of_wrapping() {
        let f = Fabric::new(1);
        // Duration::MAX is ~5.8e11 years: `as_micros() as u64` would wrap
        // this to a near-zero timeout. Saturation keeps it "forever".
        f.set_recv_timeout(Duration::MAX);
        assert_eq!(f.recv_timeout(), Duration::from_micros(u64::MAX));
        // In-range values are exact.
        f.set_recv_timeout(Duration::from_millis(1500));
        assert_eq!(f.recv_timeout(), Duration::from_millis(1500));
    }

    #[test]
    fn deadline_budget_fires_before_the_global_timeout() {
        let f = Fabric::new(2);
        f.set_recv_timeout(Duration::from_secs(30));
        f.set_deadline_policy(Some(DeadlinePolicy::uniform(Duration::from_millis(25))));
        let start = Instant::now();
        match f.try_recv_kind::<f64>(0, 1, CollectiveKind::Allreduce) {
            Err(CommError::DeadlineExceeded {
                src: 0,
                dst: 1,
                kind,
                budget,
            }) => {
                assert_eq!(kind, "allreduce");
                assert_eq!(budget, Duration::from_millis(25));
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(start.elapsed() < Duration::from_secs(5), "budget ignored");
        // A kind with no budget still waits out the global timeout.
        f.set_deadline_policy(Some(
            DeadlinePolicy::none().with_kind(CollectiveKind::Bcast, Duration::from_millis(25)),
        ));
        f.set_recv_timeout(Duration::from_millis(80));
        assert!(matches!(
            f.try_recv_kind::<f64>(0, 1, CollectiveKind::Allreduce),
            Err(CommError::Timeout { .. })
        ));
    }

    #[test]
    fn recv_retries_rearm_the_budget_then_surface_deadline_exceeded() {
        let f = Fabric::new(2);
        f.set_recv_timeout(Duration::from_secs(30));
        f.set_deadline_policy(Some(DeadlinePolicy::uniform(Duration::from_millis(10))));
        f.set_retry_policy(Some(RetryPolicy::new(2)));
        let start = Instant::now();
        assert!(matches!(
            f.try_recv_kind::<f64>(0, 1, CollectiveKind::Gatherv),
            Err(CommError::DeadlineExceeded { .. })
        ));
        // Two re-armed budgets before giving up: ≥ 3 × 10 ms of waiting.
        assert!(start.elapsed() >= Duration::from_millis(30));
        assert_eq!(f.stats().recv_retries.load(Ordering::Relaxed), 2);
        // A message arriving during a retry window is delivered normally.
        f.try_send(0, 1, vec![9.0f64]).unwrap();
        assert_eq!(
            f.try_recv_kind::<f64>(0, 1, CollectiveKind::Gatherv)
                .unwrap(),
            vec![9.0]
        );
    }

    #[test]
    fn retry_policy_heals_flaky_link_drops() {
        let f = Fabric::new(2);
        f.attach_fault_plan(FaultPlan::quiet(21).with_flaky_link(0, 1, 0.4));
        f.set_retry_policy(Some(RetryPolicy::new(8)));
        for i in 0..20i64 {
            f.try_send(0, 1, vec![i]).unwrap();
        }
        // Every message is eventually delivered, in order.
        for i in 0..20i64 {
            assert_eq!(f.try_recv::<i64>(0, 1).unwrap(), vec![i]);
        }
        let stats = f.stats();
        assert!(
            stats.drops_healed.load(Ordering::Relaxed) > 0,
            "seed 21 at p=0.4 must drop at least once in 20 sends"
        );
        assert!(stats.send_retries.load(Ordering::Relaxed) > 0);
        // Every attempt (first tries + retries) is on the ledger.
        stats.check_invariant().expect("invariant through retries");
        assert_eq!(stats.messages.load(Ordering::Relaxed), 20);
        f.clear_fault_plan();
    }

    #[test]
    fn retry_exhaustion_still_keeps_the_ledger_consistent() {
        let f = Fabric::new(2);
        f.set_recv_timeout(Duration::from_millis(20));
        f.attach_fault_plan(FaultPlan::quiet(0).with_drops(1.0));
        f.set_retry_policy(Some(RetryPolicy::new(3)));
        f.try_send(0, 1, vec![1.0f64]).unwrap();
        let stats = f.stats();
        // 1 first attempt + 3 retries, all dropped, none delivered.
        assert_eq!(stats.attempted.load(Ordering::Relaxed), 4);
        assert_eq!(stats.dropped.load(Ordering::Relaxed), 4);
        assert_eq!(stats.send_retries.load(Ordering::Relaxed), 3);
        assert_eq!(stats.drops_healed.load(Ordering::Relaxed), 0);
        stats.check_invariant().expect("invariant after exhaustion");
        assert!(matches!(
            f.try_recv::<f64>(0, 1),
            Err(CommError::Timeout { .. })
        ));
        f.clear_fault_plan();
    }

    #[test]
    fn slow_rank_delays_its_own_rendezvous() {
        let f = Fabric::new(2);
        f.attach_fault_plan(FaultPlan::quiet(0).with_slow_rank(0, Duration::from_millis(30)));
        let t0 = Instant::now();
        f.try_send(0, 1, vec![1u8]).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(30), "send not slowed");
        // The fast rank's operations are unaffected (its recv pops an
        // already-delivered message instantly).
        let t1 = Instant::now();
        assert_eq!(f.try_recv::<u8>(0, 1).unwrap(), vec![1]);
        assert!(t1.elapsed() < Duration::from_millis(25));
        f.clear_fault_plan();
    }

    #[test]
    fn demoted_rank_fails_fast_on_every_plane() {
        let f = Fabric::new(2);
        f.set_recv_timeout(Duration::from_secs(30));
        f.retire(1);
        assert!(matches!(
            f.try_send(1, 0, vec![1.0f64]),
            Err(CommError::Demoted { rank: 1 })
        ));
        assert!(matches!(
            f.try_recv::<f64>(0, 1),
            Err(CommError::Demoted { rank: 1 })
        ));
        assert!(matches!(
            f.ctrl_send(1, 0, vec![1u64]),
            Err(CommError::Demoted { rank: 1 })
        ));
        assert!(matches!(
            f.ctrl_recv::<u64>(0, 1),
            Err(CommError::Demoted { rank: 1 })
        ));
        f.reset_for_run();
    }

    #[test]
    fn retire_wakes_the_retired_ranks_own_blocked_recv() {
        let f = Fabric::new(2);
        f.set_recv_timeout(Duration::from_secs(30));
        let f2 = Arc::clone(&f);
        let start = Instant::now();
        // Rank 1 blocks waiting on rank 0; its *own* demotion must wake it.
        let h = std::thread::spawn(move || f2.try_recv::<f64>(0, 1));
        std::thread::sleep(Duration::from_millis(30));
        f.retire(1);
        let res = h.join().unwrap();
        assert!(
            matches!(res, Err(CommError::Demoted { rank: 1 })),
            "{res:?}"
        );
        assert!(start.elapsed() < Duration::from_secs(5), "zombie hung");
    }

    #[test]
    fn resolve_blame_walks_the_wait_for_chain_to_the_stalled_rank() {
        // Rank 0 waits on rank 1, which waits on rank 2, which is doing
        // nothing (the stalled culprit). The blame raised by rank 0
        // against its proximate peer must resolve to rank 2.
        let f = Fabric::new(3);
        let f1 = Arc::clone(&f);
        let h1 = std::thread::spawn(move || f1.try_recv::<f64>(2, 1));
        let f0 = Arc::clone(&f);
        let h0 = std::thread::spawn(move || f0.try_recv::<f64>(1, 0));
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(f.resolve_blame(0, 1), 2);
        // A blame against a rank that is not blocked stays where it is.
        assert_eq!(f.resolve_blame(0, 2), 2);
        // Unwind the chain: rank 2 answers, then rank 1 can answer.
        f.try_send(2, 1, vec![7.0f64]).unwrap();
        assert_eq!(h1.join().unwrap().unwrap(), vec![7.0]);
        f.try_send(1, 0, vec![8.0f64]).unwrap();
        assert_eq!(h0.join().unwrap().unwrap(), vec![8.0]);
        // All cells cleared once nobody is blocked.
        assert_eq!(f.resolve_blame(0, 1), 1);
    }

    #[test]
    fn blocked_waits_are_charged_to_the_sender() {
        let f = Fabric::new(2);
        let f2 = Arc::clone(&f);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            f2.try_send(0, 1, vec![1.0f64]).unwrap();
        });
        assert_eq!(f.try_recv::<f64>(0, 1).unwrap(), vec![1.0]);
        h.join().unwrap();
        let waits = f.stats().induced_wait_us();
        assert!(
            waits[0] >= 30_000,
            "rank 0 made the receiver wait ~40 ms, charged {} µs",
            waits[0]
        );
        assert_eq!(waits[1], 0, "rank 1 sent nothing");
    }

    #[test]
    fn deadline_profiles_parse() {
        assert_eq!(DeadlinePolicy::profile("off"), Some(None));
        assert_eq!(
            DeadlinePolicy::profile("strict"),
            Some(Some(DeadlinePolicy::strict()))
        );
        assert_eq!(
            DeadlinePolicy::profile("LENIENT"),
            Some(Some(DeadlinePolicy::lenient()))
        );
        assert_eq!(DeadlinePolicy::profile("brutal"), None);
        assert!(
            DeadlinePolicy::strict()
                .budget(CollectiveKind::Allreduce)
                .unwrap()
                < DeadlinePolicy::lenient()
                    .budget(CollectiveKind::Allreduce)
                    .unwrap()
        );
        assert_eq!(
            DeadlinePolicy::none().budget(CollectiveKind::Allreduce),
            None
        );
    }

    #[test]
    fn retry_backoff_is_exponential_and_capped() {
        let r = RetryPolicy::new(10);
        assert_eq!(r.backoff(1), Duration::from_micros(50));
        assert_eq!(r.backoff(2), Duration::from_micros(100));
        assert_eq!(r.backoff(3), Duration::from_micros(200));
        assert_eq!(r.backoff(30), Duration::from_millis(5), "capped");
    }

    #[test]
    fn schedule_counters_reset_with_the_run() {
        let f = Fabric::new(2);
        f.set_schedule_policy(SchedulePolicy::Adversarial(Adversary::Lifo));
        let state = f.schedule_state().unwrap();
        f.try_send(0, 1, vec![1u8]).unwrap();
        // Link index dst * p + src = 2.
        assert_eq!(state.send_ops[2].load(Ordering::Relaxed), 1);
        f.reset_for_run();
        assert_eq!(state.send_ops[2].load(Ordering::Relaxed), 0);
    }
}
