//! The service: a warm universe, two worker pools, and the books.
//!
//! One **compress worker** owns the fabric: compress jobs are
//! serialized onto the warm [`Universe`] (so per-job traffic deltas
//! partition the global counters exactly, and a mid-job rank failure
//! is confined to the job that was running). A pool of **light
//! workers** serves query and status jobs concurrently from the shared
//! [`CoreStore`] — queries never touch the fabric, which is what keeps
//! them available while a compress job is being recovered.

use crate::job::{CompressSpec, JobId, JobOutcome, JobState, QuerySpec, RecoverySummary, Request};
use crate::queue::{FairQueue, QueueFull};
use crate::store::{CoreStore, StoredCore};
use ratucker::dist::dist_ra_hooi_checkpointed;
use ratucker::{
    dist_ra_hooi_resilient, CheckpointPolicy, RaConfig, ResilienceConfig, ResilientOutcome,
    SyntheticSpec, TuckerTensor,
};
use ratucker_dist::AbftMode;
use ratucker_dist::DistTensor;
use ratucker_mem::JobScope;
use ratucker_mpi::{enumerate_grids, CartGrid, FaultPlan, KindSnapshot, Universe};
use ratucker_obs::TenantLedger;
use ratucker_perfmodel::memory::{admit, Admission, MemProblem};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Ranks in the warm universe.
    pub p: usize,
    /// Per-rank memory budget for compress jobs; `None` disables
    /// admission control and ledger budgets.
    pub mem_budget: Option<u64>,
    /// Largest full-tensor ingest accepted, in bytes.
    pub ingest_limit: Option<u64>,
    /// Per-tenant queue depth cap (backpressure at submit).
    pub queue_cap: usize,
    /// Light workers serving query/status jobs.
    pub query_workers: usize,
    /// Directory for per-job RTCK checkpoints; `None` disables the
    /// disk-fallback path (failures beyond online recovery fail the job).
    pub checkpoint_dir: Option<PathBuf>,
    /// Buddy-replication degree for compress jobs.
    pub buddy_degree: usize,
    /// Fabric receive timeout (bounds how long survivors of a rank
    /// crash can block).
    pub recv_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            p: 4,
            mem_budget: None,
            ingest_limit: None,
            queue_cap: 1024,
            query_workers: 2,
            checkpoint_dir: None,
            buddy_degree: 1,
            recv_timeout: Duration::from_secs(5),
        }
    }
}

/// Why a submission was refused at the door.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The service is shutting down.
    ShuttingDown,
    /// The tenant's queue is at its depth cap.
    QueueFull {
        /// The cap that was hit.
        cap: usize,
    },
    /// The ingest exceeds `--ingest-limit`.
    IngestTooLarge {
        /// Requested full-tensor bytes.
        bytes: u64,
        /// The configured limit.
        limit: u64,
    },
    /// The spec is malformed (mode-count mismatch, rank > dim, …).
    Invalid(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
            SubmitError::QueueFull { cap } => write!(f, "tenant queue full (cap {cap})"),
            SubmitError::IngestTooLarge { bytes, limit } => {
                write!(f, "ingest of {bytes} B exceeds the {limit} B limit")
            }
            SubmitError::Invalid(msg) => write!(f, "invalid request: {msg}"),
        }
    }
}

/// What the daemon reports after a clean shutdown.
#[derive(Clone, Debug)]
pub struct ShutdownReport {
    /// Jobs accepted over the service lifetime.
    pub submitted: u64,
    /// Jobs that finished successfully.
    pub completed: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// Jobs refused by admission control.
    pub rejected: u64,
    /// Global fabric traffic over the lifetime.
    pub global_traffic: KindSnapshot,
    /// Whether per-tenant charges partition the global traffic exactly.
    pub partition_ok: bool,
    /// Cores resident in the store at shutdown.
    pub stored_cores: usize,
}

/// A light (fabric-free) job.
enum LightJob {
    Query(QuerySpec),
    Status,
}

struct QueueState {
    compress: FairQueue<(JobId, CompressSpec)>,
    light: FairQueue<(JobId, LightJob)>,
}

struct JobRecord {
    tenant: String,
    kind: &'static str,
    state: JobState,
    enqueued: Instant,
}

struct Inner {
    cfg: ServeConfig,
    universe: Universe,
    queues: Mutex<QueueState>,
    work_cv: Condvar,
    jobs: Mutex<HashMap<JobId, JobRecord>>,
    done_cv: Condvar,
    store: RwLock<CoreStore>,
    tenants: Mutex<TenantLedger>,
    next_id: AtomicU64,
    accepting: AtomicBool,
    draining: AtomicBool,
    injected_plan: Mutex<Option<FaultPlan>>,
}

/// The running service. Dropping it without [`Service::shutdown`]
/// detaches the workers; call `shutdown` for a clean drain and report.
pub struct Service {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// Per-rank verdict of one compress run, reduced on the service side.
enum RankVerdict {
    Done {
        tucker: Box<TuckerTensor<f64>>,
        rel_error: f64,
        summary: RecoverySummary,
        hwm: u64,
    },
    Spare {
        hwm: u64,
    },
    Fallback {
        dead: Vec<usize>,
        reason: String,
    },
    CommError(String),
}

impl Service {
    /// Boots the universe and the worker pools.
    pub fn start(cfg: ServeConfig) -> Service {
        assert!(cfg.p >= 1, "need at least one rank");
        assert!(cfg.query_workers >= 1, "need at least one light worker");
        let universe = Universe::new(cfg.p);
        universe.set_recv_timeout(cfg.recv_timeout);
        universe.set_mem_budget(cfg.mem_budget);
        let inner = Arc::new(Inner {
            queues: Mutex::new(QueueState {
                compress: FairQueue::new(cfg.queue_cap),
                light: FairQueue::new(cfg.queue_cap),
            }),
            work_cv: Condvar::new(),
            jobs: Mutex::new(HashMap::new()),
            done_cv: Condvar::new(),
            store: RwLock::new(CoreStore::new()),
            tenants: Mutex::new(TenantLedger::new()),
            next_id: AtomicU64::new(1),
            accepting: AtomicBool::new(true),
            draining: AtomicBool::new(false),
            injected_plan: Mutex::new(None),
            universe,
            cfg,
        });
        let mut workers = Vec::new();
        {
            let inner = Arc::clone(&inner);
            workers.push(
                std::thread::Builder::new()
                    .name("serve-compress".into())
                    .spawn(move || compress_worker(&inner))
                    .expect("spawn compress worker"),
            );
        }
        for i in 0..inner.cfg.query_workers {
            let inner = Arc::clone(&inner);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("serve-light-{i}"))
                    .spawn(move || light_worker(&inner))
                    .expect("spawn light worker"),
            );
        }
        Service { inner, workers }
    }

    /// Arms a one-shot fault-injection plan: the *next* compress job
    /// runs with it attached and the plan is cleared once that job
    /// finishes (a warm universe re-arms plan counters every run, so
    /// leaving it attached would crash every subsequent job). Chaos
    /// tests use this to kill a rank mid-compress under load.
    pub fn inject_fault_plan(&self, plan: FaultPlan) {
        *self.inner.injected_plan.lock().unwrap() = Some(plan);
    }

    /// Accepts a job, or refuses it at the door.
    pub fn submit(&self, tenant: &str, req: Request) -> Result<JobId, SubmitError> {
        let inner = &self.inner;
        if !inner.accepting.load(Ordering::SeqCst) {
            return Err(SubmitError::ShuttingDown);
        }
        if tenant.is_empty() || tenant.contains(char::is_whitespace) {
            return Err(SubmitError::Invalid(
                "tenant must be a non-empty word".into(),
            ));
        }
        if let Request::Compress(spec) = &req {
            validate_compress(spec).map_err(SubmitError::Invalid)?;
            if let Some(limit) = inner.cfg.ingest_limit {
                let bytes = spec.ingest_bytes();
                if bytes > limit {
                    return Err(SubmitError::IngestTooLarge { bytes, limit });
                }
            }
        }
        let id = JobId(inner.next_id.fetch_add(1, Ordering::SeqCst));
        let kind = req.kind();
        {
            let mut queues = inner.queues.lock().unwrap();
            let pushed = match req {
                Request::Compress(spec) => queues.compress.push(tenant, (id, spec)),
                Request::Query(spec) => queues.light.push(tenant, (id, LightJob::Query(spec))),
                Request::Status => queues.light.push(tenant, (id, LightJob::Status)),
            };
            if let Err(QueueFull { cap }) = pushed {
                return Err(SubmitError::QueueFull { cap });
            }
            inner.jobs.lock().unwrap().insert(
                id,
                JobRecord {
                    tenant: tenant.to_string(),
                    kind,
                    state: JobState::Queued,
                    enqueued: Instant::now(),
                },
            );
        }
        inner.tenants.lock().unwrap().record_submitted(tenant);
        inner.work_cv.notify_all();
        Ok(id)
    }

    /// Blocks until the job finishes; returns its outcome and
    /// queue-to-done latency. Panics on an unknown id.
    pub fn wait(&self, id: JobId) -> (JobOutcome, Duration) {
        let mut jobs = self.inner.jobs.lock().unwrap();
        loop {
            match &jobs.get(&id).expect("unknown job id").state {
                JobState::Done(outcome, latency) => return (outcome.clone(), *latency),
                _ => jobs = self.inner.done_cv.wait(jobs).unwrap(),
            }
        }
    }

    /// Non-blocking state probe.
    pub fn state(&self, id: JobId) -> Option<JobState> {
        self.inner
            .jobs
            .lock()
            .unwrap()
            .get(&id)
            .map(|r| r.state.clone())
    }

    /// Global traffic the universe has moved since boot.
    pub fn global_traffic(&self) -> KindSnapshot {
        self.inner.universe.traffic().kind_totals()
    }

    /// Checks the tenant-partition invariant right now (only exact
    /// while no compress job is in flight).
    pub fn check_partition(&self) -> bool {
        let global = self.global_traffic();
        self.inner
            .tenants
            .lock()
            .unwrap()
            .check_partition(&global)
            .is_ok()
    }

    /// A tenant's books, if it has any history.
    pub fn tenant_account(&self, tenant: &str) -> Option<ratucker_obs::TenantAccount> {
        self.inner.tenants.lock().unwrap().account(tenant).cloned()
    }

    /// Stops accepting, drains both queues, joins the workers, and
    /// reports the lifetime books.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.inner.accepting.store(false, Ordering::SeqCst);
        {
            // Under the queue lock, so no worker sits between its
            // `draining` check and `work_cv.wait` when the flag flips
            // (it would miss this wake-up and sleep forever).
            let _queues = self.inner.queues.lock().unwrap();
            self.inner.draining.store(true, Ordering::SeqCst);
            self.inner.work_cv.notify_all();
        }
        for handle in self.workers.drain(..) {
            handle.join().expect("worker panicked");
        }
        let global = self.inner.universe.traffic().kind_totals();
        let tenants = self.inner.tenants.lock().unwrap();
        let (mut submitted, mut completed, mut failed, mut rejected) = (0, 0, 0, 0);
        for (_, acc) in tenants.accounts() {
            submitted += acc.submitted;
            completed += acc.completed;
            failed += acc.failed;
            rejected += acc.rejected;
        }
        ShutdownReport {
            submitted,
            completed,
            failed,
            rejected,
            partition_ok: tenants.check_partition(&global).is_ok(),
            global_traffic: global,
            stored_cores: self.inner.store.read().unwrap().len(),
        }
    }
}

fn validate_compress(spec: &CompressSpec) -> Result<(), String> {
    let d = spec.dims.len();
    if d < 2 {
        return Err("need at least 2 modes".into());
    }
    if spec.construction_ranks.len() != d || spec.initial_ranks.len() != d {
        return Err("rank vectors must have one entry per mode".into());
    }
    for (&n, (&cr, &ir)) in spec
        .dims
        .iter()
        .zip(spec.construction_ranks.iter().zip(&spec.initial_ranks))
    {
        if n == 0 || cr == 0 || ir == 0 {
            return Err("dims and ranks must be positive".into());
        }
        if cr > n || ir > n {
            return Err("ranks must not exceed dimensions".into());
        }
    }
    if !(spec.eps > 0.0 && spec.eps < 1.0) {
        return Err("eps must be in (0, 1)".into());
    }
    if spec.max_iters == 0 || spec.alpha <= 1.0 {
        return Err("need max_iters >= 1 and alpha > 1".into());
    }
    if spec.name.is_empty() || spec.name.contains(char::is_whitespace) {
        return Err("name must be a non-empty word".into());
    }
    Ok(())
}

/// Best process grid for a job: among all factorizations of `p` over
/// `d` modes that fit elementwise under `caps`, the one with the
/// smallest local block of `dims` (most balanced split). `caps` must
/// bound every distributed extent the job will create — the tensor's
/// `dims` *and* the core's ranks, since `n_k ≥ P_k` per mode is a hard
/// distribution invariant.
fn choose_grid(p: usize, dims: &[usize], caps: &[usize]) -> Option<Vec<usize>> {
    enumerate_grids(p, dims.len())
        .into_iter()
        .filter(|g| g.iter().zip(caps).all(|(&gj, &cj)| gj <= cj))
        .min_by_key(|g| {
            g.iter()
                .zip(dims)
                .map(|(&gj, &nj)| nj.div_ceil(gj))
                .product::<usize>()
        })
}

fn finish_job(inner: &Inner, id: JobId, outcome: JobOutcome) {
    let mut jobs = inner.jobs.lock().unwrap();
    let record = jobs.get_mut(&id).expect("finishing unknown job");
    let latency = record.enqueued.elapsed();
    {
        let mut tenants = inner.tenants.lock().unwrap();
        match &outcome {
            JobOutcome::Compressed { peak_bytes, .. } => {
                tenants.record_completed(&record.tenant, *peak_bytes)
            }
            JobOutcome::Queried { entries, .. } => {
                tenants.record_completed(&record.tenant, (*entries as u64).saturating_mul(8))
            }
            JobOutcome::Status { .. } => tenants.record_completed(&record.tenant, 0),
            JobOutcome::Rejected { .. } => tenants.record_rejected(&record.tenant),
            JobOutcome::Failed { .. } => tenants.record_failed(&record.tenant),
        }
    }
    record.state = JobState::Done(outcome, latency);
    drop(jobs);
    inner.done_cv.notify_all();
}

fn mark_running(inner: &Inner, id: JobId) {
    if let Some(record) = inner.jobs.lock().unwrap().get_mut(&id) {
        record.state = JobState::Running;
    }
}

// ------------------------------------------------------------ compress

fn compress_worker(inner: &Inner) {
    loop {
        let next = {
            let mut queues = inner.queues.lock().unwrap();
            loop {
                if let Some(job) = queues.compress.pop() {
                    break Some(job);
                }
                if inner.draining.load(Ordering::SeqCst) {
                    break None;
                }
                queues = inner.work_cv.wait(queues).unwrap();
            }
        };
        let Some((tenant, (id, spec))) = next else {
            return;
        };
        mark_running(inner, id);
        let outcome = run_compress(inner, &tenant, &spec);
        finish_job(inner, id, outcome);
    }
}

fn run_compress(inner: &Inner, tenant: &str, spec: &CompressSpec) -> JobOutcome {
    let p = inner.cfg.p;
    // The grid must fit under the tensor dims AND the smallest core the
    // job can hold (its initial ranks) — the solver distributes both.
    let caps: Vec<usize> = spec
        .dims
        .iter()
        .zip(&spec.initial_ranks)
        .map(|(&n, &r)| n.min(r))
        .collect();
    let Some(grid_dims) = choose_grid(p, &spec.dims, &caps) else {
        return JobOutcome::Failed {
            reason: format!(
                "no {}-way grid of {p} ranks fits dims {:?} with initial ranks {:?}",
                spec.dims.len(),
                spec.dims,
                spec.initial_ranks
            ),
        };
    };

    let ra = RaConfig::ra_hosi_dt(spec.eps, &spec.initial_ranks)
        .with_seed(spec.seed)
        .with_alpha(spec.alpha)
        .with_max_iters(spec.max_iters);
    if let Err(msg) = ra.validate(&spec.dims) {
        return JobOutcome::Failed {
            reason: format!("infeasible rank-adaptive configuration: {msg}"),
        };
    }

    let mut resilience = ResilienceConfig::default().with_buddy_degree(inner.cfg.buddy_degree);
    let ckpt_policy = inner
        .cfg
        .checkpoint_dir
        .as_ref()
        .map(|dir| CheckpointPolicy::new(dir.join(format!("{tenant}-{}", spec.name))).every(1));
    if let Some(policy) = &ckpt_policy {
        resilience = resilience.with_checkpoint(policy.clone());
    }

    // Admission control against the daemon budget: the ranks of a run
    // that grows every sweep, as the CLI driver projects them.
    let mut start_rung = 0u8;
    if let Some(budget) = inner.cfg.mem_budget {
        let prob = MemProblem {
            dims: spec.dims.clone(),
            grid: grid_dims.clone(),
            ranks: ra.peak_ranks(&spec.dims),
            buddy_degree: resilience.buddy_degree,
            abft: resilience.abft != AbftMode::Off,
            elem_bytes: std::mem::size_of::<f64>(),
        };
        match admit(&prob, budget) {
            Admission::Admit {
                start_rung: rung, ..
            } => start_rung = rung,
            Admission::Reject { required, budget } => {
                return JobOutcome::Rejected { required, budget };
            }
        }
    }

    // One-shot chaos injection: attach for this job only.
    let injected = inner.injected_plan.lock().unwrap().take();
    let has_plan = injected.is_some();
    if let Some(plan) = injected {
        inner.universe.set_fault_plan(plan);
    }
    inner.universe.set_start_rung(start_rung);

    let traffic_before = inner.universe.traffic().kind_totals();
    let generator = SyntheticSpec::new(&spec.dims, &spec.construction_ranks, spec.noise, spec.seed);
    let results = {
        let gd = grid_dims.clone();
        let gen = generator.clone();
        let ra = ra.clone();
        let resilience = resilience.clone();
        inner.universe.try_run(move |c| {
            let scope = JobScope::begin();
            let grid = CartGrid::new(c, &gd);
            let x = DistTensor::scatter_from_replicated(&grid, &gen.build::<f64>());
            match dist_ra_hooi_resilient(&grid, &x, &ra, &resilience) {
                Ok(ResilientOutcome::Completed {
                    result,
                    grid,
                    report,
                }) => {
                    let tucker = result.tucker.gather(&grid);
                    RankVerdict::Done {
                        tucker: Box::new(tucker),
                        rel_error: result.rel_error,
                        summary: RecoverySummary {
                            recoveries: report.recoveries,
                            restored_ranks: report.restored_ranks,
                            demoted_ranks: report.demoted_ranks,
                            final_grid: report.final_grid,
                            resumed_from_checkpoint: false,
                        },
                        hwm: scope.peak(),
                    }
                }
                Ok(ResilientOutcome::Spare { .. }) => RankVerdict::Spare { hwm: scope.peak() },
                Ok(ResilientOutcome::FallbackToCheckpoint { dead, reason, .. }) => {
                    RankVerdict::Fallback { dead, reason }
                }
                Err(e) => RankVerdict::CommError(e.to_string()),
            }
        })
    };
    // The plan (if any) was for this job alone; a warm universe re-arms
    // plan op-counters on every run, so clear it before the next job.
    if has_plan {
        inner.universe.clear_fault_plan();
    }
    inner.universe.set_start_rung(0);

    let outcome = reduce_compress(inner, tenant, spec, &grid_dims, &ra, &ckpt_policy, results);
    let delta = inner
        .universe
        .traffic()
        .kind_totals()
        .since(&traffic_before);
    inner.tenants.lock().unwrap().charge_traffic(tenant, &delta);
    outcome
}

#[allow(clippy::too_many_arguments)]
fn reduce_compress(
    inner: &Inner,
    tenant: &str,
    spec: &CompressSpec,
    grid_dims: &[usize],
    ra: &RaConfig,
    ckpt_policy: &Option<CheckpointPolicy>,
    results: Vec<Result<RankVerdict, ratucker_mpi::RankFailure>>,
) -> JobOutcome {
    let mut done: Option<(Box<TuckerTensor<f64>>, f64, RecoverySummary)> = None;
    let mut peak = 0u64;
    let mut fallback: Option<String> = None;
    let mut first_error: Option<String> = None;
    for result in results {
        let verdict = match result {
            Ok(v) => v,
            Err(f) => {
                first_error.get_or_insert(format!("rank {} crashed: {}", f.rank, f.message));
                continue;
            }
        };
        match verdict {
            RankVerdict::Done {
                tucker,
                rel_error,
                summary,
                hwm,
            } => {
                peak = peak.max(hwm);
                if done.is_none() {
                    done = Some((tucker, rel_error, summary));
                }
            }
            RankVerdict::Spare { hwm } => peak = peak.max(hwm),
            RankVerdict::Fallback { dead, reason } => {
                fallback.get_or_insert(format!("dead ranks {dead:?}: {reason}"));
            }
            RankVerdict::CommError(e) => {
                first_error.get_or_insert(e);
            }
        }
    }

    if done.is_none() {
        if let (Some(why), Some(policy)) = (&fallback, ckpt_policy) {
            // Disk fallback: the failure exceeded online recovery, but
            // every survivor checkpointed. Resume on a healthy universe
            // run (the one-shot plan is already cleared).
            let resume = policy.clone().resuming();
            let gd = grid_dims.to_vec();
            let gen =
                SyntheticSpec::new(&spec.dims, &spec.construction_ranks, spec.noise, spec.seed);
            let ra = ra.clone();
            let resumed = inner.universe.try_run(move |c| {
                let scope = JobScope::begin();
                let grid = CartGrid::new(c, &gd);
                let x = DistTensor::scatter_from_replicated(&grid, &gen.build::<f64>());
                let res = dist_ra_hooi_checkpointed(&grid, &x, &ra, &resume);
                let tucker = res.tucker.gather(&grid);
                (Box::new(tucker), res.rel_error, scope.peak())
            });
            for r in resumed.into_iter().flatten() {
                peak = peak.max(r.2);
                if done.is_none() {
                    let summary = RecoverySummary {
                        resumed_from_checkpoint: true,
                        final_grid: grid_dims.to_vec(),
                        ..RecoverySummary::default()
                    };
                    done = Some((r.0, r.1, summary));
                }
            }
            if done.is_none() {
                return JobOutcome::Failed {
                    reason: format!("checkpoint resume failed after fallback ({why})"),
                };
            }
        }
    }

    match done {
        Some((tucker, rel_error, recovery)) => {
            let ranks = tucker.ranks();
            let storage_entries = tucker.storage_entries();
            inner.store.write().unwrap().insert(
                tenant,
                &spec.name,
                StoredCore {
                    tucker: *tucker,
                    rel_error,
                },
            );
            JobOutcome::Compressed {
                ranks,
                rel_error,
                storage_entries,
                recovery,
                peak_bytes: peak,
            }
        }
        None => JobOutcome::Failed {
            reason: fallback
                .map(|w| format!("unrecoverable failure, no checkpoint policy: {w}"))
                .or(first_error)
                .unwrap_or_else(|| "no rank produced a result".into()),
        },
    }
}

// --------------------------------------------------------------- light

fn light_worker(inner: &Inner) {
    loop {
        let next = {
            let mut queues = inner.queues.lock().unwrap();
            loop {
                if let Some(job) = queues.light.pop() {
                    break Some(job);
                }
                if inner.draining.load(Ordering::SeqCst) {
                    break None;
                }
                queues = inner.work_cv.wait(queues).unwrap();
            }
        };
        let Some((tenant, (id, job))) = next else {
            return;
        };
        mark_running(inner, id);
        let outcome = match job {
            LightJob::Query(spec) => run_query(inner, &tenant, &spec),
            LightJob::Status => run_status(inner, &tenant),
        };
        finish_job(inner, id, outcome);
    }
}

fn run_query(inner: &Inner, tenant: &str, spec: &QuerySpec) -> JobOutcome {
    let store = inner.store.read().unwrap();
    match store.extract(tenant, &spec.name, &spec.offsets, &spec.lens) {
        Ok(slab) => {
            let entries = slab.num_entries();
            let checksum = slab.data().iter().sum();
            JobOutcome::Queried { entries, checksum }
        }
        Err(e) => JobOutcome::Failed {
            reason: e.to_string(),
        },
    }
}

fn run_status(inner: &Inner, tenant: &str) -> JobOutcome {
    let store = inner.store.read().unwrap();
    let names = store.names(tenant);
    // Live per-kind pressure: how many of the tenant's jobs are still
    // queued or running right now.
    let (mut pending_compress, mut pending_light) = (0usize, 0usize);
    for record in inner.jobs.lock().unwrap().values() {
        if record.tenant == tenant && !matches!(record.state, JobState::Done(..)) {
            match record.kind {
                "compress" => pending_compress += 1,
                _ => pending_light += 1,
            }
        }
    }
    let tenants = inner.tenants.lock().unwrap();
    let report = match tenants.account(tenant) {
        Some(acc) => format!(
            "tenant {tenant}: submitted {} completed {} failed {} rejected {} \
             pending {}+{} (compress+light), traffic {} B / {} msgs, \
             peak job {} B, cores [{}]",
            acc.submitted,
            acc.completed,
            acc.failed,
            acc.rejected,
            pending_compress,
            pending_light,
            acc.traffic.total_bytes(),
            acc.traffic.total_messages(),
            acc.peak_job_bytes,
            names.join(", "),
        ),
        None => format!("tenant {tenant}: no history"),
    };
    JobOutcome::Status { report }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_compress(name: &str, seed: u64) -> Request {
        Request::Compress(CompressSpec {
            name: name.into(),
            dims: vec![10, 8, 6],
            construction_ranks: vec![3, 2, 2],
            noise: 0.01,
            seed,
            eps: 0.2,
            initial_ranks: vec![2, 2, 2],
            alpha: 2.0,
            max_iters: 2,
        })
    }

    #[test]
    fn compress_query_status_roundtrip_with_partition_invariant() {
        let service = Service::start(ServeConfig {
            p: 2,
            query_workers: 1,
            ..ServeConfig::default()
        });
        let c = service.submit("acme", small_compress("field", 42)).unwrap();
        let (outcome, _) = service.wait(c);
        let JobOutcome::Compressed {
            ranks, rel_error, ..
        } = &outcome
        else {
            panic!("compress failed: {outcome:?}");
        };
        assert!(ranks.iter().all(|&r| r >= 1));
        assert!(*rel_error <= 0.2, "missed eps: {rel_error}");

        let q = service
            .submit(
                "acme",
                Request::Query(QuerySpec {
                    name: "field".into(),
                    offsets: vec![1, 2, 0],
                    lens: vec![3, 2, 4],
                }),
            )
            .unwrap();
        let (outcome, _) = service.wait(q);
        let JobOutcome::Queried { entries, .. } = outcome else {
            panic!("query failed: {outcome:?}");
        };
        assert_eq!(entries, 3 * 2 * 4);

        // Cross-tenant reads are refused; the tenant's failure count
        // records it.
        let stranger = service
            .submit(
                "other",
                Request::Query(QuerySpec {
                    name: "field".into(),
                    offsets: vec![0, 0, 0],
                    lens: vec![1, 1, 1],
                }),
            )
            .unwrap();
        assert!(!service.wait(stranger).0.is_success());

        let s = service.submit("acme", Request::Status).unwrap();
        let (outcome, _) = service.wait(s);
        let JobOutcome::Status { report } = outcome else {
            panic!("status failed");
        };
        assert!(report.contains("field"), "{report}");

        assert!(
            service.check_partition(),
            "tenant charges must partition traffic"
        );
        let report = service.shutdown();
        assert_eq!(report.submitted, 4);
        assert_eq!(report.completed, 3);
        assert_eq!(report.failed, 1);
        assert!(report.partition_ok);
        assert_eq!(report.stored_cores, 1);
        assert!(report.global_traffic.total_bytes() > 0);
    }

    #[test]
    fn shutdown_never_strands_an_idle_worker() {
        // Each cycle shuts down while light workers are still draining a
        // burst of status jobs and going back to sleep; a lost wake-up
        // hangs `join`, which the watchdog turns into a failure.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for cycle in 0..300 {
                let service = Service::start(ServeConfig {
                    p: 1,
                    query_workers: 4,
                    ..ServeConfig::default()
                });
                if cycle % 50 == 0 {
                    let c = service.submit("acme", small_compress("f", cycle)).unwrap();
                    assert!(service.wait(c).0.is_success());
                }
                for _ in 0..8 {
                    service.submit("acme", Request::Status).unwrap();
                }
                assert!(service.shutdown().partition_ok);
            }
            tx.send(()).unwrap();
        });
        rx.recv_timeout(std::time::Duration::from_secs(120))
            .expect("shutdown hung: a worker missed the draining wake-up");
    }

    #[test]
    fn admission_rejects_what_cannot_fit() {
        let service = Service::start(ServeConfig {
            p: 2,
            query_workers: 1,
            mem_budget: Some(1024), // nothing real fits in 1 KiB
            ..ServeConfig::default()
        });
        let id = service.submit("acme", small_compress("big", 7)).unwrap();
        let (outcome, _) = service.wait(id);
        let JobOutcome::Rejected { required, budget } = outcome else {
            panic!("expected rejection, got {outcome:?}");
        };
        assert_eq!(budget, 1024);
        assert!(required > budget);
        let report = service.shutdown();
        assert_eq!(report.rejected, 1);
        assert_eq!(report.stored_cores, 0);
    }

    #[test]
    fn door_checks_refuse_bad_submissions() {
        let service = Service::start(ServeConfig {
            p: 2,
            query_workers: 1,
            ingest_limit: Some(1024),
            ..ServeConfig::default()
        });
        // Ingest limit.
        let err = service
            .submit("acme", small_compress("big", 1))
            .unwrap_err();
        assert!(matches!(
            err,
            SubmitError::IngestTooLarge {
                bytes: 3840,
                limit: 1024
            }
        ));
        // Malformed specs.
        let mut bad = small_compress("x", 1);
        if let Request::Compress(c) = &mut bad {
            c.initial_ranks = vec![99, 99, 99];
        }
        assert!(matches!(
            service.submit("acme", bad),
            Err(SubmitError::Invalid(_))
        ));
        assert!(matches!(
            service.submit("bad tenant", Request::Status),
            Err(SubmitError::Invalid(_))
        ));
        let report = service.shutdown();
        assert_eq!(report.submitted, 0);
    }

    #[test]
    fn queue_cap_backpressures() {
        let service = Service::start(ServeConfig {
            p: 2,
            query_workers: 1,
            queue_cap: 1,
            ..ServeConfig::default()
        });
        // The first compress starts running almost immediately; a burst
        // of two more must hit the 1-deep lane at least once, because
        // the worker is busy for the burst's microseconds.
        let a = service.submit("acme", small_compress("a", 1)).unwrap();
        let burst: Vec<_> = ["b", "c"]
            .iter()
            .map(|name| service.submit("acme", small_compress(name, 2)))
            .collect();
        let saw_full = burst
            .iter()
            .any(|r| matches!(r, Err(SubmitError::QueueFull { cap: 1 })));
        for id in burst.into_iter().flatten() {
            let _ = service.wait(id);
        }
        let _ = service.wait(a);
        assert!(saw_full, "a 1-deep queue must refuse a burst of 3");
        service.shutdown();
    }

    #[test]
    fn grid_choice_fits_and_balances() {
        // Minimal block volume for p=4 over [10, 8, 6] is 120 (e.g.
        // [2,2,1]); [4,1,1]'s 144 must lose.
        let dims = [10usize, 8, 6];
        let g = choose_grid(4, &dims, &dims).unwrap();
        let block: usize = g
            .iter()
            .zip(&dims)
            .map(|(&gj, &nj)| nj.div_ceil(gj))
            .product();
        assert_eq!(block, 120, "unbalanced grid {g:?}");
        assert_eq!(
            choose_grid(4, &[10, 1, 1], &[10, 1, 1]),
            Some(vec![4, 1, 1])
        );
        assert_eq!(choose_grid(4, &[1, 1, 1], &[1, 1, 1]), None);
        // Rank caps bind: p=4 with per-mode cap 2 must spread over two
        // modes even when one dim could hold all four ranks.
        assert_eq!(choose_grid(4, &[10, 8, 6], &[2, 2, 1]), Some(vec![2, 2, 1]));
        let g = choose_grid(8, &[6, 5, 4, 3], &[6, 5, 4, 3]).unwrap();
        assert_eq!(g.iter().product::<usize>(), 8);
        assert!(g.iter().zip(&[6, 5, 4, 3]).all(|(&gj, &nj)| gj <= nj));
    }
}
