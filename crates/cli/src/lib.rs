//! Parameter-file driven drivers, mirroring the TuckerMPI drivers of the
//! paper's artifact.
//!
//! The artifact runs
//! `srun -n 8 ./build/mpi/drivers/bin/sthosvd --parameter-file STHOSVD.cfg`;
//! here the same experiment is
//! `cargo run --release -p ratucker-cli --bin sthosvd -- --parameter-file STHOSVD.cfg`,
//! with the "MPI processes" provided by the threaded runtime (one rank
//! thread per grid cell).
//!
//! Recognized keys (artifact names, plus a few additions marked `+`):
//!
//! | key | meaning | default |
//! |---|---|---|
//! | `Print options` | echo the parsed parameters | `false` |
//! | `Print timings` | print the per-phase breakdown | `false` |
//! | `Global dims` | tensor dimensions | required |
//! | `Processor grid dims` | grid (product = rank count) | all ones |
//! | `Noise` | synthetic noise level | `1e-4` |
//! | `Construction Ranks` | synthetic ground-truth ranks | `Ranks` |
//! | `Ranks` / `Decomposition Ranks` | target / initial ranks | required unless error-specified |
//! | `SV Threshold` | STHOSVD relative error ε (0 ⇒ rank-specified) | `0` |
//! | `SVD Method` | `0` Gram+EVD, `2` subspace iteration | `0` |
//! | `Dimension Tree Memoization` | enable Alg. 4 | `false` |
//! | `HOOI-Adapt Threshold` | RA tolerance ε (0 ⇒ fixed-rank) | `0` |
//! | `HOOI max iters` | sweep cap | `2` |
//! | `HOOI Adapt core tensor gather type` | accepted for compatibility (allgather is always used) | `false` |
//! | `Rank Growth Factor` + | RA α | `1.5` |
//! | `Checkpoint dir` + | write RA sweep checkpoints here (also `--checkpoint-dir`) | none |
//! | `Checkpoint every` + | save every n-th sweep | `1` |
//! | `Resume` + | resume from the latest checkpoint (also `--resume`) | `false` |
//! | `Buddy replication` + | diskless replication degree k (also `--buddy-replication <k>`) | none |
//! | `ABFT` + | `off` / `detect` / `recover` checksums (also `--abft <mode>`) | none |
//! | `Deadline profile` + | `off` / `strict` / `lenient` per-collective deadlines (also `--deadline-profile <name>`) | `off` |
//! | `Retry` + | max retransmissions per p2p op, with exponential backoff (also `--retry <n>`) | `0` |
//! | `Straggler demotion` + | demote a rank whose induced wait exceeds this multiple of the median (also `--straggler-demotion <x>`) | off |
//! | `Mem budget` + | per-rank memory budget in bytes, `K`/`M`/`G` suffixes accepted (also `--mem-budget <size>`); the run is admitted through the perf-model peak estimate, possibly at a degraded rung, or refused up front | none |
//! | `Threads` + | intra-rank kernel worker threads (also `--threads <n>`, `RATUCKER_THREADS` env); results are bit-identical at any setting | `1` |
//! | `Trace out` + | write a merged Chrome trace JSON here (also `--trace-out <path>`) | none |
//! | `Seed` + | RNG seed | `0` |
//! | `Precision` + | `single` / `double` | `single` |
//! | `Input file` + | raw tensor to load instead of synthetic | none |
//! | `Output prefix` + | write core/factors as `.rtt` files | none |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod params;

pub use params::{ParamError, Params};

use ratucker::checkpoint::CheckpointPolicy;
use ratucker::dist::{dist_hooi, dist_sthosvd, DistRunResult};
use ratucker::prelude::*;
use ratucker::{dist_ra_hooi_resilient, ResilienceConfig, ResilientOutcome};
use ratucker::{Timings, ALL_PHASES};
use ratucker_dist::{AbftMode, DistTensor};
use ratucker_mpi::{CartGrid, DeadlinePolicy, RetryPolicy, Universe};
use ratucker_obs::StragglerPolicy;
use ratucker_perfmodel::{admit, Admission, MemProblem};
use ratucker_tensor::dense::DenseTensor;
use ratucker_tensor::io::IoScalar;
use ratucker_tensor::shape::Shape;

/// Which floating-point width a driver runs in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Precision {
    /// `f32` (the synthetic experiments of §4.1).
    Single,
    /// `f64` (the HCCI/SP experiments of §4.2.2).
    Double,
}

/// Parses the `Precision` key.
pub fn precision(params: &Params) -> Result<Precision, ParamError> {
    match params
        .get("Precision")
        .unwrap_or("single")
        .to_ascii_lowercase()
        .as_str()
    {
        "single" | "f32" => Ok(Precision::Single),
        "double" | "f64" => Ok(Precision::Double),
        other => Err(ParamError::Invalid {
            key: "Precision".into(),
            value: other.into(),
            expected: "single or double",
        }),
    }
}

/// Echoes the parameter file (the artifact's `Print options = true`).
pub fn maybe_print_options(params: &Params) {
    if params.bool_or("Print options", false).unwrap_or(false) {
        println!("--- options ---");
        for (k, v) in params.keys() {
            println!("{k} = {v}");
        }
        println!("---------------");
    }
}

/// Prints a per-phase timing breakdown (the artifact's `Print timings`).
pub fn maybe_print_timings(params: &Params, timings: &Timings) {
    if params.bool_or("Print timings", false).unwrap_or(false) {
        println!("--- timings (rank 0) ---");
        for &p in &ALL_PHASES {
            let s = timings.secs(p);
            if s > 0.0 || timings.flops(p) > 0 {
                println!(
                    "{:>12}: {:.6} s  ({} flops)",
                    p.label(),
                    s,
                    timings.flops(p)
                );
            }
        }
        println!("{:>12}: {:.6} s", "total", timings.total_secs());
        println!("------------------------");
    }
}

/// Loads the input tensor (`Input file`) or generates the synthetic one.
pub fn input_tensor<T: IoScalar>(
    params: &Params,
) -> Result<DenseTensor<T>, Box<dyn std::error::Error>> {
    let dims = params.usize_list("Global dims")?;
    if let Some(path) = params.get("Input file") {
        let x = if path.ends_with(".rtt") {
            ratucker_tensor::io::read_rtt(path)?
        } else {
            ratucker_tensor::io::read_raw(path, Shape::new(&dims))?
        };
        if x.shape().dims() != dims {
            return Err(format!(
                "input tensor has shape {:?}, parameter file says {:?}",
                x.shape().dims(),
                dims
            )
            .into());
        }
        return Ok(x);
    }
    let construction = params
        .usize_list_opt("Construction Ranks")?
        .or(params.usize_list_opt("Ranks")?)
        .ok_or_else(|| ParamError::Missing("Construction Ranks (or Ranks)".into()))?;
    let noise = params.f64_or("Noise", 1e-4)?;
    let seed = params.usize_or("Seed", 0)? as u64;
    Ok(SyntheticSpec::new(&dims, &construction, noise, seed).build())
}

/// Parses the checkpoint keys (`Checkpoint dir` / `Checkpoint every` /
/// `Resume`) into a policy, if checkpointing is requested.
pub fn checkpoint_policy(params: &Params) -> Result<Option<CheckpointPolicy>, ParamError> {
    let Some(dir) = params.get("Checkpoint dir") else {
        return Ok(None);
    };
    let mut policy = CheckpointPolicy::new(dir).every(params.usize_or("Checkpoint every", 1)?);
    if params.bool_or("Resume", false)? {
        policy = policy.resuming();
    }
    Ok(Some(policy))
}

/// Parses the resilience keys (`Buddy replication` / `ABFT` /
/// `Straggler demotion`) into a [`ResilienceConfig`], if any is present.
/// The checkpoint policy, if any, rides along as the RTCK disk fallback.
pub fn resilience_config(
    params: &Params,
    checkpoint: Option<CheckpointPolicy>,
) -> Result<Option<ResilienceConfig>, ParamError> {
    let buddy = params.get("Buddy replication");
    let abft = params.get("ABFT");
    let straggler = params.get("Straggler demotion");
    if buddy.is_none() && abft.is_none() && straggler.is_none() {
        return Ok(None);
    }
    let mut cfg = ResilienceConfig::default()
        .with_buddy_degree(params.usize_or("Buddy replication", 1)?)
        .with_abft(match abft {
            None => AbftMode::Off,
            Some(s) => AbftMode::parse(s).ok_or_else(|| ParamError::Invalid {
                key: "ABFT".into(),
                value: s.into(),
                expected: "off, detect, or recover",
            })?,
        });
    if straggler.is_some() {
        let multiple = params.f64_or("Straggler demotion", 4.0)?;
        if multiple.is_nan() || multiple <= 1.0 {
            return Err(ParamError::Invalid {
                key: "Straggler demotion".into(),
                value: multiple.to_string(),
                expected: "median multiple greater than 1",
            });
        }
        cfg = cfg.with_straggler(StragglerPolicy::new(multiple));
    }
    if let Some(policy) = checkpoint {
        cfg = cfg.with_checkpoint(policy);
    }
    Ok(Some(cfg))
}

/// The shared K/M/G byte-size parser (re-exported from `ratucker-mem`
/// so every byte-count flag in the workspace — `Mem budget` here, the
/// serve daemon's `--mem-budget` / `--ingest-limit` — parses
/// identically: `None` on malformed input or zero, saturation to
/// `u64::MAX` on overflow).
pub use ratucker_mem::parse_size;

/// Parses the `Mem budget` key (per-rank budget in bytes, `K`/`M`/`G`
/// suffixes accepted).
pub fn mem_budget(params: &Params) -> Result<Option<u64>, ParamError> {
    match params.get("Mem budget") {
        None => Ok(None),
        Some(s) => parse_size(s).map(Some).ok_or_else(|| ParamError::Invalid {
            key: "Mem budget".into(),
            value: s.into(),
            expected: "a positive byte count with an optional K/M/G suffix",
        }),
    }
}

/// Parses the `Threads` key (intra-rank kernel worker threads; values
/// above `ratucker_tensor::par::MAX_THREADS` saturate there). Unlike the
/// `RATUCKER_THREADS` env override — which warns and runs serial on
/// garbage, matching the `MPISIM_RECV_TIMEOUT_SECS` precedent — a
/// malformed *config file* value is a hard error.
pub fn threads(params: &Params) -> Result<Option<usize>, ParamError> {
    match params.get("Threads") {
        None => Ok(None),
        Some(s) => match s.trim().parse::<usize>() {
            Ok(n) if n >= 1 => Ok(Some(n.min(ratucker_tensor::par::MAX_THREADS))),
            _ => Err(ParamError::Invalid {
                key: "Threads".into(),
                value: s.into(),
                expected: "a positive worker count",
            }),
        },
    }
}

/// Installs the configured worker-pool size before any rank thread
/// spawns (rank threads inherit the process-global setting). `None`
/// leaves the `RATUCKER_THREADS` env resolution in charge.
fn install_threads(n: Option<usize>) {
    if let Some(n) = n {
        ratucker_tensor::par::set_num_threads(n);
    }
}

/// Parses the `Deadline profile` key into a per-collective deadline
/// policy (`off`, `strict`, or `lenient`).
pub fn deadline_policy(params: &Params) -> Result<Option<DeadlinePolicy>, ParamError> {
    match params.get("Deadline profile") {
        None => Ok(None),
        Some(s) => DeadlinePolicy::profile(s).ok_or_else(|| ParamError::Invalid {
            key: "Deadline profile".into(),
            value: s.into(),
            expected: "off, strict, or lenient",
        }),
    }
}

/// Parses the `Retry` key (max retransmissions per point-to-point
/// operation; `0` disables retries).
pub fn retry_policy(params: &Params) -> Result<Option<RetryPolicy>, ParamError> {
    let n = params.usize_or("Retry", 0)?;
    Ok((n > 0).then(|| RetryPolicy::new(n.min(u32::MAX as usize) as u32)))
}

/// The grid dims (default: all ones over the tensor order).
pub fn grid_dims(params: &Params) -> Result<Vec<usize>, ParamError> {
    let dims = params.usize_list("Global dims")?;
    Ok(params
        .usize_list_opt("Processor grid dims")?
        .unwrap_or_else(|| vec![1; dims.len()]))
}

/// Writes a Tucker decomposition as `.rtt` files under a prefix.
pub fn write_tucker<T: IoScalar>(prefix: &str, tucker: &TuckerTensor<T>) -> std::io::Result<()> {
    ratucker_tensor::io::write_rtt(format!("{prefix}_core.rtt"), &tucker.core)?;
    for (k, u) in tucker.factors.iter().enumerate() {
        let t = DenseTensor::from_vec(Shape::new(&[u.rows(), u.cols()]), u.as_slice().to_vec());
        ratucker_tensor::io::write_rtt(format!("{prefix}_factor_{k}.rtt"), &t)?;
    }
    Ok(())
}

/// Outcome of a driver run, for printing and for the integration tests.
#[derive(Clone, Debug)]
pub struct DriverOutcome {
    /// Final relative error.
    pub rel_error: f64,
    /// Final Tucker ranks.
    pub ranks: Vec<usize>,
    /// Compression ratio.
    pub compression: f64,
    /// Rank-0 phase breakdown.
    pub timings: Timings,
    /// Per-sweep errors (HOOI) or the single STHOSVD error.
    pub sweep_errors: Vec<f64>,
}

/// Runs STHOSVD as configured by a parameter file. Returns the rank-0
/// outcome.
pub fn run_sthosvd_driver<T: IoScalar>(
    params: &Params,
) -> Result<DriverOutcome, Box<dyn std::error::Error>> {
    if !params.bool_or("Perform STHOSVD", true)? {
        return Err("parameter file sets `Perform STHOSVD = false`".into());
    }
    let x = input_tensor::<T>(params)?;
    let grid = grid_dims(params)?;
    let eps = params.f64_or("SV Threshold", 0.0)?;
    let trunc = if eps > 0.0 {
        SthosvdTruncation::RelError(eps)
    } else {
        SthosvdTruncation::Ranks(
            params
                .usize_list_opt("Ranks")?
                .ok_or_else(|| ParamError::Missing("Ranks".into()))?,
        )
    };
    let p: usize = grid.iter().product();
    install_threads(threads(params)?);
    let outcome = run_collective(
        p,
        &grid,
        &x,
        params.get("Trace out"),
        deadline_policy(params)?,
        retry_policy(params)?,
        None,
        move |g, xd| dist_sthosvd(g, xd, &trunc),
    );
    if let Some(prefix) = params.get("Output prefix") {
        // Re-run gather on a fresh universe is unnecessary: outcome holds
        // the gathered tucker already.
        write_tucker(prefix, &outcome.1)?;
    }
    Ok(outcome.0)
}

/// Runs HOOI (fixed-rank or rank-adaptive) as configured by a parameter
/// file. Returns the rank-0 outcome.
pub fn run_hooi_driver<T: IoScalar>(
    params: &Params,
) -> Result<DriverOutcome, Box<dyn std::error::Error>> {
    let x = input_tensor::<T>(params)?;
    let grid = grid_dims(params)?;
    let ranks = params
        .usize_list_opt("Decomposition Ranks")?
        .or(params.usize_list_opt("Ranks")?)
        .ok_or_else(|| ParamError::Missing("Decomposition Ranks (or Ranks)".into()))?;

    let mut cfg = match (
        params.bool_or("Dimension Tree Memoization", false)?,
        params.usize_or("SVD Method", 0)?,
    ) {
        (false, 0) => HooiConfig::hooi(),
        (true, 0) => HooiConfig::hooi_dt(),
        (false, 2) => HooiConfig::hosi(),
        (true, 2) => HooiConfig::hosi_dt(),
        (_, other) => {
            return Err(format!("SVD Method = {other} is not supported (use 0 or 2)").into())
        }
    };
    cfg = cfg
        .with_max_iters(params.usize_or("HOOI max iters", 2)?)
        .with_seed(params.usize_or("Seed", 0)? as u64)
        .with_si_steps(params.usize_or("Subspace Iteration Steps", 1)?);
    // Accepted for compatibility with the artifact's parameter files.
    let _ = params.bool_or("HOOI Adapt core tensor gather type", false)?;

    let adapt_eps = params.f64_or("HOOI-Adapt Threshold", 0.0)?;
    let ckpt = checkpoint_policy(params)?;
    if ckpt.is_some() && adapt_eps <= 0.0 {
        return Err(
            "`Checkpoint dir` requires a rank-adaptive run (`HOOI-Adapt Threshold` > 0)".into(),
        );
    }
    let resilience = resilience_config(params, ckpt.clone())?;
    if resilience.is_some() && adapt_eps <= 0.0 {
        return Err("`Buddy replication` / `ABFT` require a rank-adaptive run \
                    (`HOOI-Adapt Threshold` > 0)"
            .into());
    }
    // Validated before admission, which projects its peak ranks.
    let ra = if adapt_eps > 0.0 {
        let ra = RaConfig {
            eps: adapt_eps,
            alpha: params.f64_or("Rank Growth Factor", 1.5)?,
            initial_ranks: ranks.clone(),
            max_iters: cfg.max_iters,
            stop_on_threshold: params.bool_or("Stop On Threshold", false)?,
            inner: cfg.clone(),
        };
        ra.validate(x.shape().dims())
            .map_err(|msg| format!("infeasible rank-adaptive configuration: {msg}"))?;
        Some(ra)
    } else {
        None
    };
    let p: usize = grid.iter().product();
    install_threads(threads(params)?);
    let deadline = deadline_policy(params)?;
    let retry = retry_policy(params)?;
    // Memory-budget admission (perfmodel peak projection): the run is
    // either admitted at the cheapest degradation rung whose projected
    // per-rank peak fits, or refused here — before any rank thread
    // starts or a byte is staged.
    let mem = match mem_budget(params)? {
        None => None,
        Some(budget) => {
            // Worst-case ranks: the driver's growth rule every sweep.
            let peak_ranks: Vec<usize> = match &ra {
                Some(ra) => ra.peak_ranks(x.shape().dims()),
                None => ranks
                    .iter()
                    .zip(x.shape().dims())
                    .map(|(&r, &n)| r.min(n))
                    .collect(),
            };
            let mp = MemProblem {
                dims: x.shape().dims().to_vec(),
                grid: grid.clone(),
                ranks: peak_ranks,
                buddy_degree: resilience.as_ref().map_or(0, |r| r.buddy_degree),
                abft: resilience.as_ref().is_some_and(|r| r.abft != AbftMode::Off),
                elem_bytes: std::mem::size_of::<T>(),
            };
            match admit(&mp, budget) {
                Admission::Admit {
                    start_rung,
                    headroom,
                } => {
                    if start_rung > 0 {
                        println!(
                            "mem budget: admitted at degradation rung {start_rung} \
                             ({headroom} B headroom)"
                        );
                    }
                    Some((budget, start_rung))
                }
                Admission::Reject { required, budget } => {
                    return Err(format!(
                        "memory budget of {budget} B per rank refused: the cheapest \
                         degraded execution mode still needs about {required} B; \
                         raise --mem-budget or use more ranks"
                    )
                    .into())
                }
            }
        }
    };
    let outcome = match ra {
        Some(ra) => {
            // Without a resilience flag the driver runs with resilience
            // off, writing checkpoints if a policy is set.
            let res = resilience.unwrap_or_else(|| ResilienceConfig {
                checkpoint: ckpt,
                ..ResilienceConfig::off()
            });
            run_collective(
                p,
                &grid,
                &x,
                params.get("Trace out"),
                deadline,
                retry,
                mem,
                move |g, xd| {
                    let out =
                        dist_ra_hooi_resilient(g, xd, &ra, &res).unwrap_or_else(|e| panic!("{e}"));
                    match out {
                        ResilientOutcome::Completed { result, .. } => *result,
                        other => panic!(
                            "driver run without fault injection did not complete: the \
                             resilient solver returned {other:?} (phase timings: {})",
                            other.timings().summary()
                        ),
                    }
                },
            )
        }
        None => run_collective(
            p,
            &grid,
            &x,
            params.get("Trace out"),
            deadline,
            retry,
            mem,
            move |g, xd| dist_hooi(g, xd, &ranks, &cfg),
        ),
    };
    if let Some(prefix) = params.get("Output prefix") {
        write_tucker(prefix, &outcome.1)?;
    }
    Ok(outcome.0)
}

/// Launches a universe over the given grid, scatters the tensor, runs the
/// collective algorithm, and collects rank-0's outcome plus the gathered
/// decomposition.
///
/// When `trace_out` is set, a span-tracing session brackets the launch
/// (with a per-rank root `"run"` span so self-attributed traffic
/// partitions the universe totals), and the merged Chrome trace JSON is
/// written to that path together with a per-phase breakdown on stdout.
///
/// The gray-failure knobs (`deadline` / `retry`) are installed on the
/// universe's fabric before any rank starts, and the memory budget and
/// its admitted degradation rung (`mem`) on every rank's ledger.
#[allow(clippy::too_many_arguments)]
fn run_collective<T: IoScalar>(
    p: usize,
    grid_dims: &[usize],
    x: &DenseTensor<T>,
    trace_out: Option<&str>,
    deadline: Option<DeadlinePolicy>,
    retry: Option<RetryPolicy>,
    mem: Option<(u64, u8)>,
    run: impl Fn(&CartGrid, &DistTensor<T>) -> DistRunResult<T> + Sync,
) -> (DriverOutcome, TuckerTensor<T>) {
    let session = trace_out.map(|_| ratucker_obs::TraceSession::start());
    let universe = Universe::new(p);
    universe
        .set_deadline_policy(deadline)
        .set_retry_policy(retry);
    if let Some((budget, start_rung)) = mem {
        universe
            .set_mem_budget(Some(budget))
            .set_start_rung(start_rung);
    }
    let results = universe.run(|c| {
        let grid = CartGrid::new(c, grid_dims);
        // Root span per rank: created *after* grid construction (which
        // consumes the Comm by value) so it borrows `grid.comm`.
        let _root = ratucker_obs::span(&grid.comm, "run");
        let xd = DistTensor::scatter_from_replicated(&grid, x);
        let res = run(&grid, &xd);
        let tucker = res.tucker.gather(&grid);
        (res, tucker)
    });
    if let (Some(session), Some(path)) = (session, trace_out) {
        let trace = session.finish();
        match ratucker_obs::write_trace(std::path::Path::new(path), &trace) {
            Ok(()) => {
                println!(
                    "trace: {} spans over {} ranks -> {path}",
                    trace.events.len(),
                    trace.ranks()
                );
                println!("{}", ratucker_obs::PhaseBreakdown::from_trace(&trace));
            }
            Err(e) => eprintln!("trace: failed to write {path}: {e}"),
        }
    }
    let (res, tucker) = results.into_iter().next().expect("at least one rank");
    (
        DriverOutcome {
            rel_error: res.rel_error,
            ranks: res.tucker.ranks(),
            compression: tucker.compression_ratio(),
            timings: res.timings,
            sweep_errors: res.sweep_errors,
        },
        tucker,
    )
}

/// Parses `--parameter-file <path>` from argv (the artifact's interface),
/// then layers the command-line flags (`--checkpoint-dir <dir>`,
/// `--resume`, `--mem-budget <size>`, …) over the file as their
/// parameter-file keys (`Checkpoint dir`, `Resume`, `Mem budget`, …).
pub fn parameter_file_from_args() -> Result<Params, Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    params_from_argv(&args)
}

/// A flag's value: its usage hint and what the flag's missing-value
/// error says it requires.
type FlagValue = (&'static str, &'static str);

/// The flags layered over the parameter file: (flag, parameter-file
/// key, value). A flag without a value sets its key to `true`.
#[rustfmt::skip]
const FLAGS: [(&str, &str, Option<FlagValue>); 10] = [
    ("--checkpoint-dir", "Checkpoint dir", Some(("<dir>", "a path argument"))),
    ("--resume", "Resume", None),
    ("--buddy-replication", "Buddy replication", Some(("<k>", "a degree argument"))),
    ("--abft", "ABFT", Some(("off|detect|recover", "a mode argument (off, detect, recover)"))),
    ("--trace-out", "Trace out", Some(("<trace.json>", "a path argument"))),
    ("--deadline-profile", "Deadline profile",
        Some(("off|strict|lenient", "a profile argument (off, strict, lenient)"))),
    ("--retry", "Retry", Some(("<n>", "a max-retransmissions argument"))),
    ("--straggler-demotion", "Straggler demotion", Some(("<x>", "a median-multiple argument"))),
    ("--mem-budget", "Mem budget",
        Some(("<size>", "a size argument (bytes, K/M/G suffixes accepted)"))),
    ("--threads", "Threads", Some(("<n>", "a worker-count argument"))),
];

/// Testable core of [`parameter_file_from_args`].
pub fn params_from_argv(args: &[String]) -> Result<Params, Box<dyn std::error::Error>> {
    let usage = || {
        let mut usage = String::from("usage: <driver> --parameter-file <file.cfg>");
        for (flag, _, arg) in FLAGS {
            match arg {
                Some((hint, _)) => usage += &format!(" [{flag} {hint}]"),
                None => usage += &format!(" [{flag}]"),
            }
        }
        usage
    };
    let pos = args
        .iter()
        .position(|a| a == "--parameter-file")
        .ok_or_else(usage)?;
    let path = args
        .get(pos + 1)
        .ok_or("--parameter-file requires a path argument")?;
    let mut params = Params::load(path)?;
    for (flag, key, arg) in FLAGS {
        let Some(pos) = args.iter().position(|a| a == flag) else {
            continue;
        };
        let value = match arg {
            None => "true",
            Some((_, requires)) => args
                .get(pos + 1)
                .ok_or_else(|| format!("{flag} requires {requires}"))?,
        };
        params.set(key, value);
    }
    Ok(params)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sthosvd_cfg(extra: &str) -> Params {
        Params::parse(&format!(
            "Global dims = 12 10 8\nRanks = 3 3 2\nNoise = 0.01\nProcessor grid dims = 1 2 2\n{extra}"
        ))
        .unwrap()
    }

    #[test]
    fn sthosvd_driver_rank_specified() {
        // A key the CLI no longer reads (the retired `Overlap` knob)
        // is ignored, so old parameter files keep working.
        let p = sthosvd_cfg("Overlap = off\n");
        let out = run_sthosvd_driver::<f32>(&p).unwrap();
        assert_eq!(out.ranks, vec![3, 3, 2]);
        assert!(out.rel_error < 0.05, "err {}", out.rel_error);
        assert!(out.compression > 1.0);
    }

    #[test]
    fn sthosvd_driver_error_specified() {
        let p = sthosvd_cfg("SV Threshold = 0.1\n");
        let out = run_sthosvd_driver::<f32>(&p).unwrap();
        assert!(out.rel_error <= 0.1);
    }

    #[test]
    fn sthosvd_driver_respects_perform_flag() {
        let p = sthosvd_cfg("Perform STHOSVD = false\n");
        assert!(run_sthosvd_driver::<f32>(&p).is_err());
    }

    #[test]
    fn hooi_driver_all_variant_selectors() {
        for (dt, svd) in [(false, 0usize), (true, 0), (false, 2), (true, 2)] {
            let p = Params::parse(&format!(
                "Global dims = 10 9 8\nConstruction Ranks = 3 2 2\nDecomposition Ranks = 3 2 2\n\
                 Noise = 0.01\nProcessor grid dims = 2 1 1\n\
                 Dimension Tree Memoization = {dt}\nSVD Method = {svd}\nHOOI max iters = 2\n"
            ))
            .unwrap();
            let out = run_hooi_driver::<f64>(&p).unwrap();
            assert!(out.rel_error < 0.05, "dt={dt} svd={svd}: {}", out.rel_error);
            assert_eq!(out.sweep_errors.len(), 2);
        }
    }

    #[test]
    fn hooi_driver_rank_adaptive() {
        let p = Params::parse(
            "Global dims = 12 10 8\nConstruction Ranks = 3 3 2\nDecomposition Ranks = 4 4 3\n\
             Noise = 0.01\nProcessor grid dims = 1 1 2\nDimension Tree Memoization = true\n\
             SVD Method = 2\nHOOI-Adapt Threshold = 0.1\nHOOI max iters = 3\n",
        )
        .unwrap();
        let out = run_hooi_driver::<f32>(&p).unwrap();
        assert!(out.rel_error <= 0.1);
        // Adaptive truncation should land at or below the start ranks.
        assert!(out.ranks.iter().zip(&[4usize, 4, 3]).all(|(a, b)| a <= b));
    }

    #[test]
    fn hooi_driver_rejects_infeasible_ra_config_cleanly() {
        // α = 1 can never grow ranks; the driver must return a typed
        // error instead of launching ranks that panic mid-sweep.
        let p = Params::parse(
            "Global dims = 12 10 8\nConstruction Ranks = 3 3 2\nDecomposition Ranks = 4 4 3\n\
             Noise = 0.01\nProcessor grid dims = 1 1 2\n\
             HOOI-Adapt Threshold = 0.1\nRank Growth Factor = 1.0\n",
        )
        .unwrap();
        let err = run_hooi_driver::<f32>(&p).unwrap_err();
        assert!(
            err.to_string()
                .contains("infeasible rank-adaptive configuration"),
            "{err}"
        );
    }

    #[test]
    fn hooi_driver_rejects_unknown_svd_method() {
        let p = Params::parse("Global dims = 8 8\nRanks = 2 2\nSVD Method = 7\n").unwrap();
        assert!(run_hooi_driver::<f32>(&p).is_err());
    }

    #[test]
    fn driver_roundtrips_through_files() {
        let dir = std::env::temp_dir();
        let input = dir.join(format!("ratucker_cli_in_{}.rtt", std::process::id()));
        let prefix = dir
            .join(format!("ratucker_cli_out_{}", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let x = SyntheticSpec::new(&[10, 8, 6], &[2, 2, 2], 0.01, 9).build::<f32>();
        ratucker_tensor::io::write_rtt(&input, &x).unwrap();

        let p = Params::parse(&format!(
            "Global dims = 10 8 6\nRanks = 2 2 2\nInput file = {}\nOutput prefix = {prefix}\n",
            input.display()
        ))
        .unwrap();
        let out = run_sthosvd_driver::<f32>(&p).unwrap();
        assert!(out.rel_error < 0.05);

        // The written core must load back with the reported ranks.
        let core: DenseTensor<f32> =
            ratucker_tensor::io::read_rtt(format!("{prefix}_core.rtt")).unwrap();
        assert_eq!(core.shape().dims(), &out.ranks[..]);
        std::fs::remove_file(&input).unwrap();
        for k in 0..3 {
            std::fs::remove_file(format!("{prefix}_factor_{k}.rtt")).unwrap();
        }
        std::fs::remove_file(format!("{prefix}_core.rtt")).unwrap();
    }

    #[test]
    fn checkpoint_keys_build_a_policy() {
        let p = Params::parse("Checkpoint dir = /tmp/ck\nCheckpoint every = 2\nResume = true\n")
            .unwrap();
        let pol = checkpoint_policy(&p).unwrap().unwrap();
        assert_eq!(pol.dir, std::path::PathBuf::from("/tmp/ck"));
        assert_eq!(pol.every, 2);
        assert!(pol.resume);
        assert!(checkpoint_policy(&Params::parse("").unwrap())
            .unwrap()
            .is_none());
    }

    #[test]
    fn checkpointing_requires_rank_adaptive_run() {
        let p = Params::parse(
            "Global dims = 8 8\nRanks = 2 2\nNoise = 0.01\nCheckpoint dir = /tmp/ck\n",
        )
        .unwrap();
        let err = run_hooi_driver::<f32>(&p).unwrap_err().to_string();
        assert!(err.contains("rank-adaptive"), "{err}");
    }

    #[test]
    fn argv_flags_layer_over_the_parameter_file() {
        let dir = std::env::temp_dir();
        let cfg = dir.join(format!("ratucker_cli_argv_{}.cfg", std::process::id()));
        std::fs::write(&cfg, "Global dims = 8 8\nRanks = 2 2\n").unwrap();
        let args: Vec<String> = [
            "driver",
            "--parameter-file",
            cfg.to_str().unwrap(),
            "--checkpoint-dir",
            "/tmp/ckdir",
            "--resume",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let p = params_from_argv(&args).unwrap();
        assert_eq!(p.get("Checkpoint dir"), Some("/tmp/ckdir"));
        assert!(p.bool_or("Resume", false).unwrap());
        assert_eq!(p.usize_list("Global dims").unwrap(), vec![8, 8]);
        std::fs::remove_file(&cfg).unwrap();
    }

    #[test]
    fn hooi_driver_rank_adaptive_with_checkpoints() {
        let mut ckdir = std::env::temp_dir();
        ckdir.push(format!("ratucker_cli_ck_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&ckdir);
        let p = Params::parse(&format!(
            "Global dims = 12 10 8\nConstruction Ranks = 3 3 2\nDecomposition Ranks = 2 2 2\n\
             Noise = 0.01\nProcessor grid dims = 1 1 2\nDimension Tree Memoization = true\n\
             SVD Method = 2\nHOOI-Adapt Threshold = 0.05\nHOOI max iters = 3\n\
             Rank Growth Factor = 2.0\nPrecision = double\nCheckpoint dir = {}\n",
            ckdir.display()
        ))
        .unwrap();
        let out = run_hooi_driver::<f64>(&p).unwrap();
        assert!(out.rel_error <= 0.05);
        let saved = std::fs::read_dir(&ckdir).unwrap().count();
        assert!(saved >= 1, "no checkpoints written");
        // Resuming from the final checkpoint reproduces the outcome.
        let mut p2 = p.clone();
        p2.set("Resume", "true");
        let out2 = run_hooi_driver::<f64>(&p2).unwrap();
        assert_eq!(out2.rel_error, out.rel_error);
        assert_eq!(out2.ranks, out.ranks);
        std::fs::remove_dir_all(&ckdir).unwrap();
    }

    #[test]
    fn resilience_keys_build_a_config() {
        let p = Params::parse("Buddy replication = 2\nABFT = recover\n").unwrap();
        let cfg = resilience_config(&p, None).unwrap().unwrap();
        assert_eq!(cfg.buddy_degree, 2);
        assert_eq!(cfg.abft, AbftMode::Recover);
        assert!(cfg.checkpoint.is_none());

        // Either key alone is enough; the other takes its default.
        let p = Params::parse("ABFT = detect\n").unwrap();
        let cfg = resilience_config(&p, Some(CheckpointPolicy::new("/tmp/ck")))
            .unwrap()
            .unwrap();
        assert_eq!(cfg.buddy_degree, 1);
        assert_eq!(cfg.abft, AbftMode::Detect);
        assert!(cfg.checkpoint.is_some());

        assert!(resilience_config(&Params::parse("").unwrap(), None)
            .unwrap()
            .is_none());
        let bad = Params::parse("ABFT = sometimes\n").unwrap();
        assert!(resilience_config(&bad, None).is_err());
    }

    #[test]
    fn resilience_flags_layer_over_the_parameter_file() {
        let dir = std::env::temp_dir();
        let cfg = dir.join(format!("ratucker_cli_res_argv_{}.cfg", std::process::id()));
        std::fs::write(&cfg, "Global dims = 8 8\nRanks = 2 2\n").unwrap();
        let args: Vec<String> = [
            "driver",
            "--parameter-file",
            cfg.to_str().unwrap(),
            "--buddy-replication",
            "2",
            "--abft",
            "detect",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let p = params_from_argv(&args).unwrap();
        assert_eq!(p.get("Buddy replication"), Some("2"));
        assert_eq!(p.get("ABFT"), Some("detect"));
        std::fs::remove_file(&cfg).unwrap();
    }

    #[test]
    fn resilience_requires_rank_adaptive_run() {
        let p =
            Params::parse("Global dims = 8 8\nRanks = 2 2\nNoise = 0.01\nBuddy replication = 1\n")
                .unwrap();
        let err = run_hooi_driver::<f32>(&p).unwrap_err().to_string();
        assert!(err.contains("rank-adaptive"), "{err}");
    }

    #[test]
    fn hooi_driver_rank_adaptive_resilient_matches_plain() {
        let base = "Global dims = 12 10 8\nConstruction Ranks = 3 3 2\n\
                    Decomposition Ranks = 2 2 2\nNoise = 0.01\nProcessor grid dims = 1 2 2\n\
                    Dimension Tree Memoization = true\nSVD Method = 2\n\
                    HOOI-Adapt Threshold = 0.05\nHOOI max iters = 3\n\
                    Rank Growth Factor = 2.0\nPrecision = double\n";
        let plain = run_hooi_driver::<f64>(&Params::parse(base).unwrap()).unwrap();
        let p = Params::parse(&format!("{base}Buddy replication = 1\nABFT = recover\n")).unwrap();
        let resilient = run_hooi_driver::<f64>(&p).unwrap();
        // No faults are injected: the resilient path is bit-identical.
        assert_eq!(resilient.rel_error, plain.rel_error);
        assert_eq!(resilient.ranks, plain.ranks);
    }

    #[test]
    fn gray_failure_keys_build_policies() {
        let p = Params::parse("Deadline profile = strict\nRetry = 3\n").unwrap();
        let d = deadline_policy(&p).unwrap().unwrap();
        assert_eq!(d, DeadlinePolicy::strict());
        let r = retry_policy(&p).unwrap().unwrap();
        assert_eq!(r.max_retries, 3);

        // "off" and 0 disable the knobs without erroring.
        let p = Params::parse("Deadline profile = off\nRetry = 0\n").unwrap();
        assert!(deadline_policy(&p).unwrap().is_none());
        assert!(retry_policy(&p).unwrap().is_none());
        // Absent keys default to disabled.
        let p = Params::parse("").unwrap();
        assert!(deadline_policy(&p).unwrap().is_none());
        assert!(retry_policy(&p).unwrap().is_none());
        // Unknown profiles are typed errors.
        let p = Params::parse("Deadline profile = aggressive\n").unwrap();
        assert!(deadline_policy(&p).is_err());
    }

    #[test]
    fn straggler_key_joins_the_resilience_config() {
        let p = Params::parse("Straggler demotion = 3\n").unwrap();
        let cfg = resilience_config(&p, None).unwrap().unwrap();
        let pol = cfg.straggler.unwrap();
        assert_eq!(pol.multiple, 3.0);
        // The key alone is enough to opt into the resilient driver; the
        // other knobs take their defaults.
        assert_eq!(cfg.buddy_degree, 1);
        assert_eq!(cfg.abft, AbftMode::Off);
        // A multiple that can never exceed the median is rejected.
        let bad = Params::parse("Straggler demotion = 1.0\n").unwrap();
        assert!(resilience_config(&bad, None).is_err());
        // Without the key, no straggler policy is attached.
        let p = Params::parse("ABFT = detect\n").unwrap();
        assert!(resilience_config(&p, None)
            .unwrap()
            .unwrap()
            .straggler
            .is_none());
    }

    #[test]
    fn gray_failure_flags_layer_over_the_parameter_file() {
        let dir = std::env::temp_dir();
        let cfg = dir.join(format!("ratucker_cli_gray_argv_{}.cfg", std::process::id()));
        std::fs::write(&cfg, "Global dims = 8 8\nRanks = 2 2\n").unwrap();
        let args: Vec<String> = [
            "driver",
            "--parameter-file",
            cfg.to_str().unwrap(),
            "--deadline-profile",
            "lenient",
            "--retry",
            "4",
            "--straggler-demotion",
            "2.5",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let p = params_from_argv(&args).unwrap();
        assert_eq!(p.get("Deadline profile"), Some("lenient"));
        assert_eq!(p.get("Retry"), Some("4"));
        assert_eq!(p.get("Straggler demotion"), Some("2.5"));
        std::fs::remove_file(&cfg).unwrap();
    }

    #[test]
    fn hooi_driver_runs_with_gray_failure_knobs() {
        // Installing deadlines and retries on a healthy run must not
        // change the result: nothing times out, nothing retries.
        let base = "Global dims = 12 10 8\nConstruction Ranks = 3 3 2\n\
                    Decomposition Ranks = 2 2 2\nNoise = 0.01\nProcessor grid dims = 1 2 2\n\
                    HOOI-Adapt Threshold = 0.05\nHOOI max iters = 3\n\
                    Rank Growth Factor = 2.0\nPrecision = double\n";
        let plain = run_hooi_driver::<f64>(&Params::parse(base).unwrap()).unwrap();
        let p = Params::parse(&format!(
            "{base}Deadline profile = lenient\nRetry = 2\nStraggler demotion = 100\n"
        ))
        .unwrap();
        let guarded = run_hooi_driver::<f64>(&p).unwrap();
        assert_eq!(guarded.rel_error, plain.rel_error);
        assert_eq!(guarded.ranks, plain.ranks);
    }

    #[test]
    fn trace_out_key_writes_a_valid_chrome_trace() {
        let dir = std::env::temp_dir();
        let trace_path = dir
            .join(format!("ratucker_cli_trace_{}.json", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let p = sthosvd_cfg(&format!("Trace out = {trace_path}\n"));
        let out = run_sthosvd_driver::<f32>(&p).unwrap();
        assert!(out.rel_error < 0.05);

        // The emitted file must round-trip through the obs parser and
        // pass validation: 4 ranks, ≥1 span each, per-phase self bytes
        // summing to the footer's universe totals.
        let text = std::fs::read_to_string(&trace_path).unwrap();
        let parsed = ratucker_obs::parse(&text).unwrap();
        ratucker_obs::validate_parsed(&parsed).unwrap();
        assert_eq!(parsed.ranks, 4);
        assert!(parsed
            .spans
            .iter()
            .any(|s| s.phase == "run" && s.depth == 0));
        assert!(parsed.spans.iter().any(|s| s.phase == "Gram"));
        std::fs::remove_file(&trace_path).unwrap();
    }

    #[test]
    fn trace_out_flag_layers_over_the_parameter_file() {
        let dir = std::env::temp_dir();
        let cfg = dir.join(format!(
            "ratucker_cli_trace_argv_{}.cfg",
            std::process::id()
        ));
        std::fs::write(&cfg, "Global dims = 8 8\nRanks = 2 2\n").unwrap();
        let args: Vec<String> = [
            "driver",
            "--parameter-file",
            cfg.to_str().unwrap(),
            "--trace-out",
            "/tmp/trace.json",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let p = params_from_argv(&args).unwrap();
        assert_eq!(p.get("Trace out"), Some("/tmp/trace.json"));
        std::fs::remove_file(&cfg).unwrap();
    }

    #[test]
    fn size_suffixes_parse() {
        assert_eq!(parse_size("1048576"), Some(1 << 20));
        assert_eq!(parse_size("64K"), Some(64 << 10));
        assert_eq!(parse_size("64k"), Some(64 << 10));
        assert_eq!(parse_size("256 MiB"), Some(256 << 20));
        assert_eq!(parse_size("2GB"), Some(2 << 30));
        assert_eq!(parse_size("512b"), Some(512));
        assert_eq!(parse_size("0"), None);
        assert_eq!(parse_size("lots"), None);
        assert_eq!(parse_size("-3M"), None);
    }

    #[test]
    fn mem_budget_key_parses_and_rejects_garbage() {
        let p = Params::parse("Mem budget = 128M\n").unwrap();
        assert_eq!(mem_budget(&p).unwrap(), Some(128 << 20));
        assert_eq!(mem_budget(&Params::parse("").unwrap()).unwrap(), None);
        let bad = Params::parse("Mem budget = plenty\n").unwrap();
        assert!(mem_budget(&bad).is_err());
    }

    #[test]
    fn mem_budget_flag_layers_over_the_parameter_file() {
        let dir = std::env::temp_dir();
        let cfg = dir.join(format!("ratucker_cli_mem_argv_{}.cfg", std::process::id()));
        std::fs::write(&cfg, "Global dims = 8 8\nRanks = 2 2\n").unwrap();
        let args: Vec<String> = [
            "driver",
            "--parameter-file",
            cfg.to_str().unwrap(),
            "--mem-budget",
            "64M",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let p = params_from_argv(&args).unwrap();
        assert_eq!(p.get("Mem budget"), Some("64M"));
        std::fs::remove_file(&cfg).unwrap();
    }

    #[test]
    fn threads_key_parses_saturates_and_rejects_garbage() {
        let p = Params::parse("Threads = 4\n").unwrap();
        assert_eq!(threads(&p).unwrap(), Some(4));
        assert_eq!(threads(&Params::parse("").unwrap()).unwrap(), None);
        let big = Params::parse("Threads = 99999999\n").unwrap();
        assert_eq!(
            threads(&big).unwrap(),
            Some(ratucker_tensor::par::MAX_THREADS)
        );
        for bad in ["Threads = 0\n", "Threads = two\n", "Threads = -1\n"] {
            assert!(threads(&Params::parse(bad).unwrap()).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn threads_flag_layers_over_the_parameter_file() {
        let dir = std::env::temp_dir();
        let cfg = dir.join(format!(
            "ratucker_cli_threads_argv_{}.cfg",
            std::process::id()
        ));
        std::fs::write(&cfg, "Global dims = 8 8\nRanks = 2 2\nThreads = 1\n").unwrap();
        let args: Vec<String> = [
            "driver",
            "--parameter-file",
            cfg.to_str().unwrap(),
            "--threads",
            "2",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let p = params_from_argv(&args).unwrap();
        assert_eq!(p.get("Threads"), Some("2"));
        std::fs::remove_file(&cfg).unwrap();
    }

    #[test]
    fn generous_mem_budget_leaves_the_run_bit_identical() {
        let base = "Global dims = 12 10 8\nConstruction Ranks = 3 3 2\n\
                    Decomposition Ranks = 2 2 2\nNoise = 0.01\nProcessor grid dims = 1 2 2\n\
                    HOOI-Adapt Threshold = 0.05\nHOOI max iters = 3\n\
                    Rank Growth Factor = 2.0\nPrecision = double\n";
        let plain = run_hooi_driver::<f64>(&Params::parse(base).unwrap()).unwrap();
        let p = Params::parse(&format!("{base}Mem budget = 1G\n")).unwrap();
        let budgeted = run_hooi_driver::<f64>(&p).unwrap();
        // A budget no allocation ever hits admits at rung 0 and changes
        // nothing: same arithmetic, same decisions.
        assert_eq!(budgeted.rel_error, plain.rel_error);
        assert_eq!(budgeted.ranks, plain.ranks);
    }

    #[test]
    fn multithreaded_run_is_bit_identical_to_serial() {
        let base = "Global dims = 12 10 8\nConstruction Ranks = 3 3 2\n\
                    Decomposition Ranks = 2 2 2\nNoise = 0.01\nProcessor grid dims = 1 2 2\n\
                    HOOI-Adapt Threshold = 0.05\nHOOI max iters = 3\nPrecision = double\n";
        let serial =
            run_hooi_driver::<f64>(&Params::parse(&format!("{base}Threads = 1\n")).unwrap())
                .unwrap();
        let threaded =
            run_hooi_driver::<f64>(&Params::parse(&format!("{base}Threads = 4\n")).unwrap())
                .unwrap();
        ratucker_tensor::par::set_num_threads(1);
        assert_eq!(serial.rel_error.to_bits(), threaded.rel_error.to_bits());
        assert_eq!(serial.ranks, threaded.ranks);
        let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&serial.sweep_errors), bits(&threaded.sweep_errors));
    }

    #[test]
    fn hopeless_mem_budget_is_refused_before_launch() {
        let p = Params::parse(
            "Global dims = 12 10 8\nConstruction Ranks = 3 3 2\n\
             Decomposition Ranks = 2 2 2\nNoise = 0.01\nProcessor grid dims = 1 2 2\n\
             HOOI-Adapt Threshold = 0.05\nHOOI max iters = 3\n\
             Rank Growth Factor = 2.0\nPrecision = double\nMem budget = 1K\n",
        )
        .unwrap();
        let err = run_hooi_driver::<f64>(&p).unwrap_err().to_string();
        assert!(err.contains("refused"), "{err}");
        assert!(err.contains("--mem-budget"), "{err}");
    }

    #[test]
    fn input_shape_mismatch_is_error() {
        let dir = std::env::temp_dir();
        let input = dir.join(format!("ratucker_cli_mismatch_{}.rtt", std::process::id()));
        let x = SyntheticSpec::new(&[6, 6], &[2, 2], 0.0, 1).build::<f32>();
        ratucker_tensor::io::write_rtt(&input, &x).unwrap();
        let p = Params::parse(&format!(
            "Global dims = 6 7\nRanks = 2 2\nInput file = {}\n",
            input.display()
        ))
        .unwrap();
        assert!(run_sthosvd_driver::<f32>(&p).is_err());
        std::fs::remove_file(&input).unwrap();
    }
}
