//! The per-rank span tracer.
//!
//! A [`Span`] is an RAII guard marking one phase of work on one rank:
//! it records wall time (inclusive and exclusive of child spans) and,
//! through a [`ratucker_mpi::TrafficScope`], the communication the rank
//! performed while the span was open, per collective kind. Spans nest;
//! a child's traffic and time are carved out of its parent's *self*
//! totals, so summing the self-deltas of all spans partitions the rank's
//! traffic exactly — no byte is double-counted and (under a root span
//! covering the whole rank closure) none is orphaned.
//!
//! Tracing is **off by default** and near-zero-cost when off:
//! [`span`] performs one relaxed atomic load and returns an inert guard —
//! no allocation, no clock read, no counter snapshot. Turning it on is
//! scoped by a [`TraceSession`]; at most one is open per process (a
//! second `start()` waits for the first to end).
//!
//! A session records only the spans of the universes that belong to
//! it, so untraced universes running at the same time (parallel tests,
//! a service's other jobs) stay out of its trace. A universe joins the
//! open session when it is created on, or run from, a thread in the
//! session, or when the session is started on one of its rank threads.
//! A thread is in the session if it started it or is a rank thread of a
//! universe in it (see [`ratucker_mpi::adopt_trace_tag`]). An armed
//! span costs one more relaxed load: its fabric's session tag.
//!
//! Completed spans land in a bounded per-thread ring buffer (oldest
//! evicted first, evictions counted); buffers flush to a global
//! collector when the rank thread exits — [`crate::TraceSession`]
//! relies on `Universe::run` joining its scoped rank threads before
//! returning, so by the time [`TraceSession::finish`] runs every rank's
//! spans are in the collector.

use ratucker_mpi::{adopt_trace_tag, Comm, KindSnapshot, TrafficStats};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Default per-thread ring-buffer capacity (spans retained per rank).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Id of the open session (0 = tracing off). Ids come from
/// [`NEXT_SESSION`] and are never reused, so a universe still tagged
/// with a closed session's id never matches a later one.
static ENABLED: AtomicU64 = AtomicU64::new(0);
static NEXT_SESSION: AtomicU64 = AtomicU64::new(1);
static RING_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);
static EVICTED: AtomicU64 = AtomicU64::new(0);
static COLLECTOR: Mutex<Vec<SpanEvent>> = Mutex::new(Vec::new());
static SESSION: Mutex<()> = Mutex::new(());
static CLOCK: OnceLock<Instant> = OnceLock::new();

/// Is tracing currently enabled? One relaxed atomic load — this is the
/// whole cost of a disabled [`span`] call site.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) != 0
}

/// Does a span on `comm` record? Only while a session is open and
/// `comm`'s universe belongs to it.
#[inline]
fn armed(comm: &Comm) -> bool {
    let id = ENABLED.load(Ordering::Relaxed);
    id != 0 && comm.fabric().trace_tag() == id
}

/// Microseconds since the process-wide trace clock origin.
fn now_us() -> u64 {
    CLOCK
        .get_or_init(Instant::now)
        .elapsed()
        .as_micros()
        .min(u128::from(u64::MAX)) as u64
}

/// One completed span: a phase of work on one rank, with exclusive
/// (self) and inclusive (gross) time and traffic.
#[derive(Clone, Debug)]
pub struct SpanEvent {
    /// World rank the span ran on.
    pub rank: usize,
    /// Phase label (static: `"TTM"`, `"Gram"`, `"sweep"`, …).
    pub phase: &'static str,
    /// Tensor mode the phase worked on, when meaningful.
    pub mode: Option<usize>,
    /// Nesting depth (0 = top-level span on its rank).
    pub depth: usize,
    /// Start time, µs since the trace clock origin.
    pub t_start_us: u64,
    /// Inclusive duration, µs.
    pub dur_us: u64,
    /// Exclusive duration (child spans subtracted), µs.
    pub self_dur_us: u64,
    /// Exclusive per-kind traffic **sent by this rank** inside the span
    /// (child spans subtracted). Summing this field over all spans of a
    /// trace partitions the ranks' send totals.
    pub traffic: KindSnapshot,
    /// Inclusive bytes sent (children included).
    pub gross_bytes: u64,
    /// Inclusive messages sent (children included).
    pub gross_messages: u64,
    /// The rank's memory-ledger high-water mark (bytes) when the span
    /// closed — cumulative over the run, not span-local.
    pub mem_hwm_bytes: u64,
    /// The rank's live ledger-charged bytes when the span closed.
    pub mem_live_bytes: u64,
}

/// Per-thread accumulator a parent span keeps for its children's
/// inclusive totals, so it can compute its own exclusive numbers.
#[derive(Default)]
struct ChildAcc {
    traffic: KindSnapshot,
    dur_us: u64,
}

#[derive(Default)]
struct ThreadState {
    stack: Vec<ChildAcc>,
    ring: std::collections::VecDeque<SpanEvent>,
}

impl Drop for ThreadState {
    fn drop(&mut self) {
        flush_state(self);
    }
}

fn flush_state(state: &mut ThreadState) {
    if state.ring.is_empty() {
        return;
    }
    let mut collector = COLLECTOR.lock().unwrap_or_else(|e| e.into_inner());
    collector.extend(state.ring.drain(..));
}

thread_local! {
    static THREAD: RefCell<ThreadState> = RefCell::new(ThreadState::default());
}

/// Flushes the calling thread's span buffer into the global collector.
/// Rank threads flush automatically on exit; call this only for spans
/// recorded on a long-lived thread (e.g. the main thread).
pub fn flush_current_thread() {
    THREAD.with(|t| flush_state(&mut t.borrow_mut()));
}

/// RAII span guard. Created by [`span`] / [`span_mode`]; the span closes
/// (and records its event) when the guard drops. Inert — a single bool —
/// when tracing is disabled.
pub struct Span<'a> {
    inner: Option<SpanInner<'a>>,
}

struct SpanInner<'a> {
    stats: &'a TrafficStats,
    rank: usize,
    phase: &'static str,
    mode: Option<usize>,
    t_start_us: u64,
    start: KindSnapshot,
}

/// Opens a span for `phase` on the calling rank (identified through
/// `comm`'s world-rank mapping). Near-zero-cost no-op when tracing is
/// disabled or `comm`'s universe is not in the open session.
#[inline]
pub fn span<'a>(comm: &'a Comm, phase: &'static str) -> Span<'a> {
    if !armed(comm) {
        return Span { inner: None };
    }
    span_armed(comm, phase, None)
}

/// [`span`] with a tensor-mode tag.
#[inline]
pub fn span_mode<'a>(comm: &'a Comm, phase: &'static str, mode: usize) -> Span<'a> {
    if !armed(comm) {
        return Span { inner: None };
    }
    span_armed(comm, phase, Some(mode))
}

#[cold]
fn span_armed<'a>(comm: &'a Comm, phase: &'static str, mode: Option<usize>) -> Span<'a> {
    let rank = comm.world_rank_of(comm.rank());
    let stats = comm.traffic();
    let start = stats.kind_snapshot_for(rank);
    THREAD.with(|t| t.borrow_mut().stack.push(ChildAcc::default()));
    Span {
        inner: Some(SpanInner {
            stats,
            rank,
            phase,
            mode,
            t_start_us: now_us(),
            start,
        }),
    }
}

impl Span<'_> {
    /// Is this guard actually recording (its universe was in the open
    /// session when it opened)?
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let end = inner.stats.kind_snapshot_for(inner.rank);
        let gross = end.since(&inner.start);
        let dur_us = now_us().saturating_sub(inner.t_start_us);
        let mem = ratucker_mem::stats();
        THREAD.with(|t| {
            let mut state = t.borrow_mut();
            let children = state.stack.pop().unwrap_or_default();
            let event = SpanEvent {
                rank: inner.rank,
                phase: inner.phase,
                mode: inner.mode,
                depth: state.stack.len(),
                t_start_us: inner.t_start_us,
                dur_us,
                self_dur_us: dur_us.saturating_sub(children.dur_us),
                traffic: gross.saturating_sub(&children.traffic),
                gross_bytes: gross.total_bytes(),
                gross_messages: gross.total_messages(),
                mem_hwm_bytes: mem.hwm,
                mem_live_bytes: mem.live,
            };
            if let Some(parent) = state.stack.last_mut() {
                parent.traffic.merge(&gross);
                parent.dur_us += dur_us;
            }
            let cap = RING_CAPACITY.load(Ordering::Relaxed).max(1);
            if state.ring.len() >= cap {
                state.ring.pop_front();
                EVICTED.fetch_add(1, Ordering::Relaxed);
            }
            state.ring.push_back(event);
        });
    }
}

/// A completed trace: every span collected during one [`TraceSession`].
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// The collected spans (per-rank order preserved; ranks interleaved).
    pub events: Vec<SpanEvent>,
    /// Spans evicted from full ring buffers (0 unless a rank outgrew
    /// the ring capacity — evictions break the partition property).
    pub evicted: u64,
}

impl Trace {
    /// Number of ranks that recorded at least one span (max rank + 1).
    pub fn ranks(&self) -> usize {
        self.events.iter().map(|e| e.rank + 1).max().unwrap_or(0)
    }

    /// Sum of per-span exclusive traffic over all events — under root
    /// spans this equals the traffic the universe moved during the
    /// session.
    pub fn totals(&self) -> KindSnapshot {
        let mut acc = KindSnapshot::default();
        for e in &self.events {
            acc.merge(&e.traffic);
        }
        acc
    }

    /// The spans recorded by `rank`, in completion order.
    pub fn events_of_rank(&self, rank: usize) -> impl Iterator<Item = &SpanEvent> {
        self.events.iter().filter(move |e| e.rank == rank)
    }
}

/// Scoped ownership of the (process-global) tracer.
///
/// `start()` clears the collector, opens a session with a fresh id and
/// puts the calling thread in it; [`finish`] closes it and returns the
/// [`Trace`]. Sessions are mutually exclusive: a second `start()`
/// blocks until the first session is dropped.
///
/// Only universes in the session record spans. A universe joins when
/// it is created on, or run from, a thread in the session, or when
/// `start()` is called on one of its rank threads (rank 0 opening the
/// session mid-run, followed by a barrier, traces every rank). A thread
/// is in the session if it started it or is a rank thread of a
/// universe in it. Every other universe — an untraced one running at
/// the same time, say in a parallel test — records nothing, so the
/// trace's self-traffic partitions its own universes' counters only.
pub struct TraceSession {
    _lock: MutexGuard<'static, ()>,
}

impl TraceSession {
    /// Begins a session with the default ring capacity.
    pub fn start() -> TraceSession {
        TraceSession::start_with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// Begins a session retaining at most `capacity` spans per rank
    /// thread (oldest evicted first).
    pub fn start_with_capacity(capacity: usize) -> TraceSession {
        let lock = SESSION.lock().unwrap_or_else(|e| e.into_inner());
        COLLECTOR.lock().unwrap_or_else(|e| e.into_inner()).clear();
        EVICTED.store(0, Ordering::Relaxed);
        RING_CAPACITY.store(capacity.max(1), Ordering::Relaxed);
        let _ = CLOCK.get_or_init(Instant::now);
        let id = NEXT_SESSION.fetch_add(1, Ordering::Relaxed);
        adopt_trace_tag(id);
        ENABLED.store(id, Ordering::SeqCst);
        TraceSession { _lock: lock }
    }

    /// Ends the session and returns everything it recorded. Rank
    /// threads must have exited (e.g. `Universe::run` returned) — their
    /// buffers flush on thread exit; the calling thread is flushed
    /// explicitly.
    pub fn finish(self) -> Trace {
        close_session();
        flush_current_thread();
        let events = std::mem::take(&mut *COLLECTOR.lock().unwrap_or_else(|e| e.into_inner()));
        Trace {
            events,
            evicted: EVICTED.swap(0, Ordering::Relaxed),
        }
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        // finish() already closed the session; this covers early drops.
        close_session();
    }
}

/// Turns tracing off and takes the calling thread (and, on a rank
/// thread, its universe) out of the session.
fn close_session() {
    ENABLED.store(0, Ordering::SeqCst);
    adopt_trace_tag(0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ratucker_mpi::{sum_op, CollectiveKind, Universe};
    use std::sync::Barrier;

    /// Per rank and per kind, the trace's self-traffic equals `u`'s
    /// fabric counters.
    fn assert_rank_partition(trace: &Trace, u: &Universe) {
        assert_eq!(trace.evicted, 0);
        for r in 0..u.size() {
            let mut sum = KindSnapshot::default();
            for e in trace.events_of_rank(r) {
                sum.merge(&e.traffic);
            }
            assert_eq!(sum, u.traffic().kind_snapshot_for(r), "rank {r}");
        }
        assert_eq!(trace.totals(), u.traffic().kind_totals());
    }

    /// A root span over collectives, with every rank of every universe
    /// sharing `overlap` held at its barrier inside the span.
    fn overlapping_work(c: &Comm, phase: &'static str, overlap: &Barrier) {
        let _root = span(c, phase);
        let _ = c.try_allreduce(vec![c.rank() as f64; 32], sum_op).unwrap();
        overlap.wait();
        {
            let _s = span_mode(c, phase, 0);
            let _ = c.try_allgatherv(vec![c.rank() as u64; 3]).unwrap();
        }
        overlap.wait();
        c.try_barrier().unwrap();
    }

    #[test]
    fn disabled_spans_are_inert() {
        // Hold the session lock (without enabling) so concurrent tests
        // cannot flip the global flag under us.
        let _guard = SESSION.lock().unwrap_or_else(|e| e.into_inner());
        ENABLED.store(0, Ordering::SeqCst);
        COLLECTOR.lock().unwrap_or_else(|e| e.into_inner()).clear();
        Universe::launch(2, |c| {
            let s = span(&c, "noop");
            assert!(!s.is_active());
            let _ = c.try_allreduce(vec![1.0f64; 4], sum_op).unwrap();
        });
        flush_current_thread();
        assert!(
            COLLECTOR
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .is_empty(),
            "disabled spans must record nothing"
        );
    }

    #[test]
    fn spans_attribute_traffic_and_nest_exclusively() {
        let session = TraceSession::start();
        let u = Universe::new(4);
        u.run(|c| {
            let _root = span(&c, "run");
            {
                let _s = span_mode(&c, "TTM", 1);
                let _ = c.try_allreduce(vec![1.0f64; 16], sum_op).unwrap();
            }
            {
                let _outer = span(&c, "outer");
                let _ = c.try_allgatherv(vec![c.rank() as u64; 2]).unwrap();
                {
                    let _inner = span(&c, "inner");
                    let _ = c.try_allreduce(vec![0.5f64; 8], sum_op).unwrap();
                }
            }
        });
        let trace = session.finish();
        assert_eq!(trace.ranks(), 4);
        assert_eq!(trace.evicted, 0);
        // 4 spans per rank.
        for r in 0..4 {
            assert_eq!(trace.events_of_rank(r).count(), 4, "rank {r}");
        }
        // The partition property: summed self traffic == universe totals.
        let totals = trace.totals();
        let global = u.traffic().kind_totals();
        assert_eq!(totals, global);
        // The inner span's allreduce traffic is excluded from "outer".
        let outer: Vec<_> = trace.events.iter().filter(|e| e.phase == "outer").collect();
        for e in &outer {
            assert_eq!(e.traffic.bytes_of(CollectiveKind::Allreduce), 0);
            assert_eq!(e.depth, 1);
        }
        let ttm: Vec<_> = trace.events.iter().filter(|e| e.phase == "TTM").collect();
        assert_eq!(ttm.len(), 4);
        for e in &ttm {
            assert_eq!(e.mode, Some(1));
            assert_eq!(e.traffic.bytes_of(CollectiveKind::Allgatherv), 0);
        }
        // Root spans carry no exclusive allreduce traffic either
        // (everything happened inside children) but their gross includes
        // all of it.
        for e in trace.events.iter().filter(|e| e.phase == "run") {
            assert_eq!(e.depth, 0);
            assert_eq!(e.traffic.total_bytes(), 0);
            assert!(e.gross_bytes > 0 || e.rank == 0);
        }
    }

    #[test]
    fn ring_capacity_evicts_oldest() {
        let session = TraceSession::start_with_capacity(2);
        Universe::launch(1, |c| {
            for i in 0..5 {
                let _s = span_mode(&c, "tick", i);
            }
        });
        let trace = session.finish();
        assert_eq!(trace.events.len(), 2, "ring kept the newest two");
        assert_eq!(trace.evicted, 3);
        let modes: Vec<_> = trace.events.iter().map(|e| e.mode.unwrap()).collect();
        assert_eq!(modes, vec![3, 4]);
    }

    #[test]
    fn untraced_universe_stays_out_of_a_concurrent_session() {
        const TRACED: usize = 2;
        const UNTRACED: usize = 3;
        let overlap = Barrier::new(TRACED + UNTRACED);
        let session = TraceSession::start();
        let traced = Universe::new(TRACED);
        std::thread::scope(|s| {
            // A plain thread is in no session, so the universe it
            // creates and runs is not either.
            s.spawn(|| Universe::new(UNTRACED).run(|c| overlapping_work(&c, "untraced", &overlap)));
            traced.run(|c| overlapping_work(&c, "traced", &overlap));
        });
        let trace = session.finish();
        assert!(
            trace.events.iter().all(|e| e.phase == "traced"),
            "the untraced universe's spans leaked into the trace"
        );
        assert_eq!(trace.ranks(), TRACED);
        assert_rank_partition(&trace, &traced);
    }

    #[test]
    fn session_opened_on_rank_zero_traces_every_rank() {
        let u = Universe::new(3);
        let traces = u.run(|c| {
            let session = (c.rank() == 0).then(TraceSession::start);
            c.try_barrier().unwrap();
            {
                let _s = span(&c, "work");
                let _ = c.try_allreduce(vec![1.0f64; 16], sum_op).unwrap();
            }
            // Every rank's spans reach the collector before rank 0
            // ends the session.
            flush_current_thread();
            c.try_barrier().unwrap();
            session.map(TraceSession::finish)
        });
        let trace = traces.into_iter().flatten().next().expect("rank 0's trace");
        for r in 0..u.size() {
            assert_eq!(trace.events_of_rank(r).count(), 1, "rank {r}");
        }
        let kind = CollectiveKind::Allreduce;
        assert_eq!(
            trace.totals().bytes_of(kind),
            u.traffic().kind_totals().bytes_of(kind)
        );
        assert!(trace.totals().bytes_of(kind) > 0);
    }

    #[test]
    fn universe_created_in_session_is_traced_when_run_elsewhere() {
        let session = TraceSession::start();
        let u = Universe::new(2);
        // Like the service: created on the session's thread, run from
        // a worker thread that is in no session.
        std::thread::scope(|s| {
            s.spawn(|| {
                u.run(|c| {
                    let _root = span(&c, "job");
                    let _ = c.try_allreduce(vec![1.0f64; 8], sum_op).unwrap();
                })
            });
        });
        let trace = session.finish();
        assert_eq!(trace.ranks(), 2);
        assert_rank_partition(&trace, &u);
    }

    #[test]
    fn universe_created_before_session_is_traced_when_run_in_it() {
        let u = Universe::new(2);
        let session = TraceSession::start();
        u.run(|c| {
            let _root = span(&c, "layer");
            let _ = c.try_allgatherv(vec![c.rank() as u64; 4]).unwrap();
        });
        let trace = session.finish();
        assert_eq!(trace.ranks(), 2);
        assert_rank_partition(&trace, &u);
    }
}
