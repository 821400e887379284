//! The shared experiment engine.
//!
//! Every figure binary used to rebuild and re-profile each benchmark at
//! every sweep point and `run_suite` spawned one unbounded thread per
//! benchmark, panicking on the first failure. The engine replaces both
//! patterns with one substrate:
//!
//! * **Memoised workbenches** — [`Engine::workbench`] assembles and
//!   profiles each [`Benchmark`] exactly once per engine (and, through
//!   [`Engine::global`], exactly once per process), no matter how many
//!   geometries, area sizes or schemes sweep over it. Baseline
//!   [`Measurement`]s are likewise shared per `(benchmark, geometry,
//!   input-set)` across every scheme normalised against them.
//! * **Bounded, deterministic parallelism** — [`Engine::run`] flattens
//!   an [`Experiment`] into `(benchmark × geometry × scheme)` jobs and
//!   executes them on a worker pool sized from
//!   `std::thread::available_parallelism`. Results are ordered by job
//!   index, never by completion order, so output is reproducible on any
//!   machine at any parallelism.
//! * **Lock-step lanes** — before its per-job pass, [`Engine::run`]
//!   groups its jobs, with any baseline not yet built, by
//!   `(benchmark, code layout)`: the fetch scheme and cache geometry
//!   change timing and energy, never architecture (the paper's §4), so
//!   each group is one guest execution timing every member as a lane
//!   ([`wp_core::measure_lanes`]). The results fill the baseline cells
//!   and per-job slots the per-job pass then consumes, so failure
//!   handling, retries and journal events stay per job.
//! * **Structured failures** — a failing job surfaces as a
//!   [`JobFailure`] inside [`SuiteReport::failures`] while every other
//!   job still completes; nothing panics and no result is lost. Panics
//!   are caught at the job boundary and converted into
//!   [`CoreError::Panic`] failures, so one poisoned job cannot take the
//!   suite (or the process) down.
//! * **Bounded retry** — a [`RetryPolicy`] re-runs jobs whose error is
//!   *transient* ([`CoreError::is_transient`]: host I/O hiccups and
//!   wall-clock watchdog timeouts), with deterministic exponential
//!   backoff. Memoised failure cells are evicted before each retry so a
//!   cached `Err` cannot permanently poison a benchmark, and a failed
//!   cell costs one retry however many jobs met it.
//! * **Watchdog** — [`Engine::with_job_time_limit`] arms
//!   `wp-sim`'s wall-clock watchdog for every profiling and measurement
//!   run, converting hung jobs into typed
//!   [`wp_core::wp_sim::SimError::Timeout`] failures.
//! * **Observability** — per-phase wall-clock totals
//!   (assemble/profile/link/simulate/price), cache hit/miss counters,
//!   retry/panic/timeout counters, and JSON manifests via
//!   [`SuiteReport::json`].

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use wp_obs::account::Usage;
use wp_obs::journal::Scope as JournalScope;
use wp_obs::metrics::{Counter as ObsCounter, Gauge as ObsGauge, Histogram as ObsHistogram};
use wp_obs::Obs;
use wp_trace::SpanCollector;

use wp_core::wp_linker::Layout;
use wp_core::wp_mem::CacheGeometry;
use wp_core::wp_sim::SimError;
use wp_core::wp_workloads::{Benchmark, InputSet};
use wp_core::{
    measure_lanes, measure_with, CoreError, MeasureOptions, MeasureTiming, Measurement, Scheme,
    Workbench,
};

use crate::json::Json;
use crate::SuiteRow;

/// Errors shared between the cache and every job that hit it.
pub type SharedError = Arc<CoreError>;

/// Locks a mutex, recovering the guard from a poisoned lock. All
/// engine state behind mutexes (cache maps, result slots) stays
/// structurally valid across a panic — panics are caught
/// at the job boundary anyway — so the poison flag carries no
/// information here.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A declarative experiment: the full cross product of benchmarks,
/// cache geometries and schemes, measured on one input set.
#[derive(Clone, Debug)]
pub struct Experiment {
    /// Benchmarks to measure.
    pub benchmarks: Vec<Benchmark>,
    /// Cache geometries to measure on.
    pub geometries: Vec<CacheGeometry>,
    /// Schemes to measure (the baseline is always measured implicitly
    /// for normalisation; list it explicitly to get a 1.0 row).
    pub schemes: Vec<Scheme>,
    /// The input set jobs run on (profiling always uses `Small`).
    pub input_set: InputSet,
}

impl Experiment {
    /// An experiment on the large (measurement) input set.
    #[must_use]
    pub fn new(
        benchmarks: impl Into<Vec<Benchmark>>,
        geometries: impl Into<Vec<CacheGeometry>>,
        schemes: impl Into<Vec<Scheme>>,
    ) -> Experiment {
        Experiment {
            benchmarks: benchmarks.into(),
            geometries: geometries.into(),
            schemes: schemes.into(),
            input_set: InputSet::Large,
        }
    }

    /// Overrides the input set (e.g. `Small` for quick regression runs).
    #[must_use]
    pub fn with_input_set(mut self, set: InputSet) -> Experiment {
        self.input_set = set;
        self
    }

    /// Number of jobs this experiment flattens into.
    #[must_use]
    pub fn job_count(&self) -> usize {
        self.benchmarks.len() * self.geometries.len() * self.schemes.len()
    }

    /// The manifest's `experiment` section. `pub(crate)` so the
    /// campaign's manifest-assembly node can render the identical
    /// section without re-running the suite.
    pub(crate) fn json(&self) -> Json {
        Json::obj([
            ("benchmarks", Json::arr(self.benchmarks.iter().map(|b| Json::from(b.name())))),
            ("geometries", Json::arr(self.geometries.iter().map(|g| Json::from(g.to_string())))),
            ("schemes", Json::arr(self.schemes.iter().map(|s| Json::from(s.label())))),
            ("input_set", Json::from(self.input_set.name())),
        ])
    }
}

/// Bounded retry for *transient* job failures
/// ([`CoreError::is_transient`] — host I/O errors and watchdog
/// timeouts; deterministic failures are never retried). Backoff is
/// deterministic exponential: attempt `n` sleeps `backoff * 2^(n-1)`
/// before re-running.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RetryPolicy {
    /// Total attempts per job, including the first (≥ 1).
    pub max_attempts: u32,
    /// Base backoff slept before the first retry.
    pub backoff: Duration,
}

impl RetryPolicy {
    /// No retries: one attempt, the engine's default.
    #[must_use]
    pub fn none() -> RetryPolicy {
        RetryPolicy { max_attempts: 1, backoff: Duration::ZERO }
    }

    /// A policy with `max_attempts` total attempts (clamped to ≥ 1) and
    /// `backoff` base delay.
    #[must_use]
    pub fn new(max_attempts: u32, backoff: Duration) -> RetryPolicy {
        RetryPolicy { max_attempts: max_attempts.max(1), backoff }
    }

    /// The deterministic delay before the retry following attempt
    /// number `attempt` (1-based): `backoff * 2^(attempt-1)`, saturating.
    #[must_use]
    pub fn delay(&self, attempt: u32) -> Duration {
        let exponent = attempt.saturating_sub(1).min(20);
        self.backoff.saturating_mul(1 << exponent)
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::none()
    }
}

/// One completed `(benchmark, geometry, scheme)` job, normalised
/// against the shared baseline of its `(benchmark, geometry)`.
#[derive(Clone, Debug)]
pub struct JobRow {
    /// The benchmark measured.
    pub benchmark: Benchmark,
    /// The cache geometry measured on.
    pub geometry: CacheGeometry,
    /// The scheme measured.
    pub scheme: Scheme,
    /// The scheme's report label.
    pub label: String,
    /// Normalised I-cache energy (1.0 = baseline).
    pub energy: f64,
    /// Energy-delay product against the baseline.
    pub ed: f64,
    /// Cycles the run took.
    pub cycles: u64,
    /// Instructions the run committed.
    pub instructions: u64,
    /// Instruction fetches the run issued (the ground truth the
    /// `obs_report` cross-check reconciles histograms against).
    pub fetches: u64,
}

impl JobRow {
    /// One manifest row. `pub(crate)` so a campaign measure node can
    /// publish exactly the bytes the suite manifest will embed.
    pub(crate) fn json(&self) -> Json {
        Json::obj([
            ("benchmark", Json::from(self.benchmark.name())),
            ("geometry", Json::from(self.geometry.to_string())),
            ("scheme", Json::from(self.label.clone())),
            ("energy", Json::from(self.energy)),
            ("ed", Json::from(self.ed)),
            ("cycles", Json::from(self.cycles)),
            ("instructions", Json::from(self.instructions)),
            ("fetches", Json::from(self.fetches)),
        ])
    }
}

/// Which phase of a job failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JobPhase {
    /// Assembling/profiling the benchmark's workbench.
    Workbench,
    /// Measuring the shared baseline.
    Baseline,
    /// Measuring the scheme itself.
    Measure,
}

impl JobPhase {
    fn name(self) -> &'static str {
        match self {
            JobPhase::Workbench => "workbench",
            JobPhase::Baseline => "baseline",
            JobPhase::Measure => "measure",
        }
    }
}

/// A structured per-job failure: the job's identity plus the error,
/// reported instead of a panic so sibling jobs keep their results.
#[derive(Clone, Debug)]
pub struct JobFailure {
    /// The benchmark of the failing job.
    pub benchmark: Benchmark,
    /// The geometry of the failing job.
    pub geometry: CacheGeometry,
    /// The scheme of the failing job.
    pub scheme: Scheme,
    /// Which phase failed.
    pub phase: JobPhase,
    /// The underlying error (shared when a cached phase failed).
    pub error: SharedError,
    /// How many attempts the job made before giving up (> 1 only when a
    /// [`RetryPolicy`] retried a transient error).
    pub attempts: u32,
}

impl JobFailure {
    fn json(&self) -> Json {
        Json::obj([
            ("benchmark", Json::from(self.benchmark.name())),
            ("geometry", Json::from(self.geometry.to_string())),
            ("scheme", Json::from(self.scheme.label())),
            ("phase", Json::from(self.phase.name())),
            ("error", Json::from(self.error.to_string())),
            ("attempts", Json::from(self.attempts)),
        ])
    }
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} on {} under {} failed in {} after {} attempt{}: {}",
            self.benchmark,
            self.geometry,
            self.scheme.label(),
            self.phase.name(),
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            self.error
        )
    }
}

/// A snapshot of the engine's counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct EngineStats {
    /// Workbenches assembled and profiled (cache misses) — the
    /// "profiled exactly once per process" counter.
    pub workbench_builds: u64,
    /// Workbench cache hits.
    pub workbench_hits: u64,
    /// Baseline measurements run (cache misses).
    pub baseline_builds: u64,
    /// Baseline cache hits.
    pub baseline_hits: u64,
    /// Jobs that produced a row.
    pub jobs_ok: u64,
    /// Jobs that produced a failure.
    pub jobs_failed: u64,
    /// Job attempts re-run after a transient failure.
    pub retries: u64,
    /// Panics caught at the job boundary.
    pub panics: u64,
    /// Wall-clock watchdog timeouts observed (per failing attempt).
    pub timeouts: u64,
    /// Wall-clock nanoseconds assembling + naturally linking modules.
    pub assemble_ns: u64,
    /// Wall-clock nanoseconds in profiling runs.
    pub profiling_ns: u64,
    /// Wall-clock nanoseconds relinking under scheme layouts.
    pub link_ns: u64,
    /// Wall-clock nanoseconds simulating measurement runs.
    pub simulate_ns: u64,
    /// Wall-clock nanoseconds pricing energy.
    pub price_ns: u64,
    /// Worker threads the pool uses.
    pub workers: u64,
}

impl EngineStats {
    /// JSON rendering. Wall-clock phase totals are genuinely
    /// nondeterministic, so [`SuiteReport::results_json`] (the
    /// determinism-checked subset) excludes this object.
    #[must_use]
    pub fn json(&self) -> Json {
        Json::obj([
            ("workbench_builds", Json::from(self.workbench_builds)),
            ("workbench_hits", Json::from(self.workbench_hits)),
            ("baseline_builds", Json::from(self.baseline_builds)),
            ("baseline_hits", Json::from(self.baseline_hits)),
            ("jobs_ok", Json::from(self.jobs_ok)),
            ("jobs_failed", Json::from(self.jobs_failed)),
            ("retries", Json::from(self.retries)),
            ("panics", Json::from(self.panics)),
            ("timeouts", Json::from(self.timeouts)),
            ("assemble_ns", Json::from(self.assemble_ns)),
            ("profiling_ns", Json::from(self.profiling_ns)),
            ("link_ns", Json::from(self.link_ns)),
            ("simulate_ns", Json::from(self.simulate_ns)),
            ("price_ns", Json::from(self.price_ns)),
            ("workers", Json::from(self.workers)),
        ])
    }
}

impl std::fmt::Display for EngineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "engine: {} jobs ok, {} failed on {} workers | workbenches {} built / {} reused, \
             baselines {} built / {} reused | retries {}, panics {}, timeouts {} | assemble \
             {:.2}s, profile {:.2}s, link {:.2}s, simulate {:.2}s, price {:.2}s",
            self.jobs_ok,
            self.jobs_failed,
            self.workers,
            self.workbench_builds,
            self.workbench_hits,
            self.baseline_builds,
            self.baseline_hits,
            self.retries,
            self.panics,
            self.timeouts,
            self.assemble_ns as f64 / 1e9,
            self.profiling_ns as f64 / 1e9,
            self.link_ns as f64 / 1e9,
            self.simulate_ns as f64 / 1e9,
            self.price_ns as f64 / 1e9,
        )
    }
}

#[derive(Default)]
struct Counters {
    workbench_builds: AtomicU64,
    workbench_hits: AtomicU64,
    baseline_builds: AtomicU64,
    baseline_hits: AtomicU64,
    jobs_ok: AtomicU64,
    jobs_failed: AtomicU64,
    retries: AtomicU64,
    panics: AtomicU64,
    timeouts: AtomicU64,
    assemble_ns: AtomicU64,
    profiling_ns: AtomicU64,
    link_ns: AtomicU64,
    simulate_ns: AtomicU64,
    price_ns: AtomicU64,
}

/// The whole-suite result: partial rows plus structured failures plus
/// the engine counters at completion.
#[derive(Clone, Debug)]
pub struct SuiteReport {
    /// The experiment that ran.
    pub experiment: Experiment,
    /// Completed rows, in deterministic `benchmarks × geometries ×
    /// schemes` order (independent of completion order).
    pub rows: Vec<JobRow>,
    /// Failed jobs, in the same deterministic order.
    pub failures: Vec<JobFailure>,
    /// Engine counters snapshotted after the run.
    pub stats: EngineStats,
}

impl SuiteReport {
    /// Whether every job completed.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// Per-benchmark [`SuiteRow`]s for one geometry (the shape
    /// [`crate::format_table`] renders). Benchmarks with any failed
    /// scheme at this geometry are omitted — partial results, ragged
    /// rows never.
    #[must_use]
    pub fn rows_for(&self, geometry: CacheGeometry) -> Vec<SuiteRow> {
        self.experiment
            .benchmarks
            .iter()
            .filter_map(|&benchmark| {
                let values: Vec<(String, f64, f64)> = self
                    .rows
                    .iter()
                    .filter(|r| r.benchmark == benchmark && r.geometry == geometry)
                    .map(|r| (r.label.clone(), r.energy, r.ed))
                    .collect();
                (values.len() == self.experiment.schemes.len())
                    .then_some(SuiteRow { benchmark, values })
            })
            .collect()
    }

    /// Renders the per-benchmark table for one geometry, or a placeholder
    /// when every benchmark failed there.
    #[must_use]
    pub fn table_for(&self, geometry: CacheGeometry) -> String {
        let rows = self.rows_for(geometry);
        if rows.is_empty() {
            return format!("(no completed rows for {geometry})\n");
        }
        crate::format_table(&rows)
    }

    /// The deterministic manifest subset: experiment + rows + failures.
    /// Byte-identical across reruns of the same experiment (asserted by
    /// the determinism regression test); excludes wall-clock stats.
    #[must_use]
    pub fn results_json(&self) -> Json {
        Json::obj([
            ("schema", Json::from("wp-bench/suite-v1")),
            ("experiment", self.experiment.json()),
            ("rows", Json::arr(self.rows.iter().map(JobRow::json))),
            ("failures", Json::arr(self.failures.iter().map(JobFailure::json))),
        ])
    }

    /// The full manifest: [`SuiteReport::results_json`] plus the engine
    /// stats (cache counters and phase timings).
    #[must_use]
    pub fn json(&self) -> Json {
        let mut manifest = self.results_json();
        manifest.push("stats", self.stats.json());
        manifest
    }

    /// Prints every failure to stderr; returns how many there were.
    pub fn print_failures(&self) -> usize {
        for failure in &self.failures {
            eprintln!("FAILED: {failure}");
        }
        self.failures.len()
    }
}

type Cached<T> = Arc<OnceLock<Result<Arc<T>, SharedError>>>;

/// One flattened job: its index in the experiment, then what it
/// measures.
type Job = (usize, Benchmark, CacheGeometry, Scheme);

/// A job's measurement from the lane pass, waiting for its per-job
/// pass to take it.
type Prepared = Mutex<Option<Result<Arc<Measurement>, SharedError>>>;

/// Where a lane's measurement goes.
#[derive(Clone, Copy, Debug)]
enum LaneTarget {
    /// The shared baseline cell of the lane's geometry.
    Baseline,
    /// The prepared slot of this job index.
    Job(usize),
}

/// One pool task of the lane pass: a single execution of `benchmark`
/// under `layout`, timing every lane.
#[derive(Debug)]
struct LaneGroup {
    benchmark: Benchmark,
    layout: Layout,
    lanes: Vec<(CacheGeometry, Scheme, LaneTarget)>,
}

/// Fault-injection hook: inspects a job before it is measured and may
/// force a [`CoreError`]. Test-support for exercising the structured
/// failure path (e.g. checksum-mismatch surfacing) without corrupting a
/// real benchmark.
pub type FaultHook = dyn Fn(Benchmark, CacheGeometry, Scheme) -> Option<CoreError> + Send + Sync;

/// Build-fault hook: called at the top of every workbench construction
/// with the benchmark and the 1-based attempt number for that
/// benchmark; returning `Some` fails the build with that error.
/// Test-support for the retry and panic-isolation paths (a transient
/// error on attempt 1 exercises retry; panicking in the hook exercises
/// panic isolation).
pub type BuildFaultHook = dyn Fn(Benchmark, u32) -> Option<CoreError> + Send + Sync;

/// Pre-registered handles into the armed [`Obs`] registry, so the hot
/// path never takes the registry lock.
struct EngineMetrics {
    jobs_ok: ObsCounter,
    jobs_failed: ObsCounter,
    retries: ObsCounter,
    panics: ObsCounter,
    timeouts: ObsCounter,
    workbench_builds: ObsCounter,
    baseline_builds: ObsCounter,
    queue_depth: ObsGauge,
    running: ObsGauge,
    job_fetches: ObsHistogram,
    job_cycles: ObsHistogram,
    job_wall_us: ObsHistogram,
}

impl EngineMetrics {
    fn new(obs: &Obs) -> EngineMetrics {
        let m = &obs.metrics;
        EngineMetrics {
            jobs_ok: m.counter("wp_engine_jobs_ok_total", "Jobs that produced a row"),
            jobs_failed: m.counter("wp_engine_jobs_failed_total", "Jobs that produced a failure"),
            retries: m
                .counter("wp_engine_retries_total", "Job attempts re-run after a transient error"),
            panics: m.counter("wp_engine_panics_total", "Panics caught at the job boundary"),
            timeouts: m
                .counter("wp_engine_timeouts_total", "Wall-clock watchdog timeouts observed"),
            workbench_builds: m
                .counter("wp_engine_workbench_builds_total", "Workbenches assembled and profiled"),
            baseline_builds: m
                .counter("wp_engine_baseline_builds_total", "Baseline measurements run"),
            queue_depth: m.gauge("wp_pool_queue_depth", "Jobs waiting for a worker"),
            running: m.gauge("wp_pool_running", "Jobs currently executing"),
            job_fetches: m.histogram("wp_job_fetches", "Instruction fetches per completed job"),
            job_cycles: m.histogram("wp_job_cycles", "Simulated cycles per completed job"),
            job_wall_us: m.histogram("wp_job_wall_us", "Host wall microseconds per fresh job"),
        }
    }
}

/// Live worker-pool state, maintained by [`Engine::execute`] whether or
/// not metrics are armed (the atomics cost nothing measurable).
struct PoolMonitor {
    queued: AtomicUsize,
    running: AtomicUsize,
    busy_ns: Vec<AtomicU64>,
}

impl PoolMonitor {
    fn new(workers: usize) -> PoolMonitor {
        PoolMonitor {
            queued: AtomicUsize::new(0),
            running: AtomicUsize::new(0),
            busy_ns: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// A point-in-time view of the worker pool: how deep the queue is, how
/// many jobs are executing, and how much wall time each worker slot has
/// spent busy since the engine was built.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolSnapshot {
    /// The pool bound ([`Engine::workers`]).
    pub workers: usize,
    /// Jobs submitted but not yet picked up.
    pub queued: usize,
    /// Jobs currently executing.
    pub running: usize,
    /// Cumulative busy nanoseconds per worker slot.
    pub busy_ns: Vec<u64>,
}

impl PoolSnapshot {
    /// Total busy nanoseconds across all worker slots.
    #[must_use]
    pub fn total_busy_ns(&self) -> u64 {
        self.busy_ns.iter().sum()
    }
}

/// The shared experiment engine. See the module docs for the contract.
pub struct Engine {
    workers: usize,
    workbenches: Mutex<HashMap<Benchmark, Cached<Workbench>>>,
    baselines: Mutex<HashMap<(Benchmark, CacheGeometry, InputSet), Cached<Measurement>>>,
    counters: Counters,
    retry: RetryPolicy,
    job_time_limit: Option<Duration>,
    fault: Option<Box<FaultHook>>,
    build_fault: Option<Box<BuildFaultHook>>,
    build_attempts: Mutex<HashMap<Benchmark, u32>>,
    /// Wall-clock span telemetry, armed by `$WP_TRACE` at construction
    /// (see [`SpanCollector::from_env`]); `None` costs one branch per
    /// recording site.
    spans: Option<Arc<SpanCollector>>,
    /// Metrics + journal + accounts, armed by `$WP_OBS` at construction
    /// (see [`Obs::from_env`]) or injected via [`Engine::with_obs`];
    /// same compile-out discipline as `spans`.
    obs: Option<Arc<Obs>>,
    /// Pre-registered metric handles (present iff `obs` is).
    metrics: Option<EngineMetrics>,
    /// Live pool state (always maintained; reads are test/`--watch`
    /// support via [`Engine::pool_snapshot`]).
    pool: PoolMonitor,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("workers", &self.workers)
            .field("retry", &self.retry)
            .field("job_time_limit", &self.job_time_limit)
            .field("stats", &self.stats())
            .field("fault", &self.fault.is_some())
            .field("build_fault", &self.build_fault.is_some())
            .finish()
    }
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::new()
    }
}

impl Engine {
    /// An engine sized from `std::thread::available_parallelism`.
    #[must_use]
    pub fn new() -> Engine {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        Engine::with_workers(workers)
    }

    /// An engine with an explicit worker-pool bound (≥ 1).
    #[must_use]
    pub fn with_workers(workers: usize) -> Engine {
        let workers = workers.max(1);
        let obs = Obs::from_env();
        let metrics = obs.as_deref().map(EngineMetrics::new);
        Engine {
            workers,
            workbenches: Mutex::new(HashMap::new()),
            baselines: Mutex::new(HashMap::new()),
            counters: Counters::default(),
            retry: RetryPolicy::none(),
            job_time_limit: None,
            fault: None,
            build_fault: None,
            build_attempts: Mutex::new(HashMap::new()),
            spans: SpanCollector::from_env(),
            obs,
            metrics,
            pool: PoolMonitor::new(workers),
        }
    }

    /// The span collector, when `$WP_TRACE` armed one at construction.
    /// Binaries drain it into the Chrome `trace_event` export.
    #[must_use]
    pub fn span_collector(&self) -> Option<&Arc<SpanCollector>> {
        self.spans.as_ref()
    }

    /// Arms metrics, journal and accounts on an explicit [`Obs`]
    /// handle, independent of `$WP_OBS` — how `obs_report` and the
    /// determinism tests arm observability without mutating the process
    /// environment.
    #[must_use]
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Engine {
        self.metrics = Some(EngineMetrics::new(&obs));
        self.obs = Some(obs);
        self
    }

    /// The armed observability context, if any.
    #[must_use]
    pub fn obs(&self) -> Option<&Arc<Obs>> {
        self.obs.as_ref()
    }

    /// Live worker-pool state: queue depth, running jobs, per-worker
    /// busy time.
    #[must_use]
    pub fn pool_snapshot(&self) -> PoolSnapshot {
        PoolSnapshot {
            workers: self.workers,
            queued: self.pool.queued.load(Ordering::Relaxed),
            running: self.pool.running.load(Ordering::Relaxed),
            busy_ns: self.pool.busy_ns.iter().map(|a| a.load(Ordering::Relaxed)).collect(),
        }
    }

    /// Installs a retry policy for transient job failures.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Engine {
        self.retry = retry;
        self
    }

    /// Arms a wall-clock watchdog on every profiling and measurement
    /// simulation: a job exceeding `limit` fails with
    /// [`wp_core::wp_sim::SimError::Timeout`] (a transient error, so it
    /// combines with [`Engine::with_retry`]).
    #[must_use]
    pub fn with_job_time_limit(mut self, limit: Duration) -> Engine {
        self.job_time_limit = Some(limit);
        self
    }

    /// Installs a fault-injection hook (test support; see [`FaultHook`]).
    #[must_use]
    pub fn with_fault(
        mut self,
        hook: impl Fn(Benchmark, CacheGeometry, Scheme) -> Option<CoreError> + Send + Sync + 'static,
    ) -> Engine {
        self.fault = Some(Box::new(hook));
        self
    }

    /// Installs a workbench build-fault hook (test support; see
    /// [`BuildFaultHook`]).
    #[must_use]
    pub fn with_build_fault(
        mut self,
        hook: impl Fn(Benchmark, u32) -> Option<CoreError> + Send + Sync + 'static,
    ) -> Engine {
        self.build_fault = Some(Box::new(hook));
        self
    }

    /// The process-wide engine: every binary and `run_suite` call in
    /// this process shares its workbench and baseline caches, which is
    /// what makes "each benchmark is profiled exactly once per process"
    /// literal.
    pub fn global() -> &'static Engine {
        static GLOBAL: OnceLock<Engine> = OnceLock::new();
        GLOBAL.get_or_init(Engine::new)
    }

    /// The worker-pool bound.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Snapshots the counters.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        let c = &self.counters;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        EngineStats {
            workbench_builds: load(&c.workbench_builds),
            workbench_hits: load(&c.workbench_hits),
            baseline_builds: load(&c.baseline_builds),
            baseline_hits: load(&c.baseline_hits),
            jobs_ok: load(&c.jobs_ok),
            jobs_failed: load(&c.jobs_failed),
            retries: load(&c.retries),
            panics: load(&c.panics),
            timeouts: load(&c.timeouts),
            assemble_ns: load(&c.assemble_ns),
            profiling_ns: load(&c.profiling_ns),
            link_ns: load(&c.link_ns),
            simulate_ns: load(&c.simulate_ns),
            price_ns: load(&c.price_ns),
            workers: self.workers as u64,
        }
    }

    /// Mirrors the pool atomics into the armed gauges (no-op when
    /// metrics are off).
    fn sync_pool_gauges(&self) {
        if let Some(m) = &self.metrics {
            m.queue_depth.set(self.pool.queued.load(Ordering::Relaxed) as i64);
            m.running.set(self.pool.running.load(Ordering::Relaxed) as i64);
        }
    }

    fn add_measure_timing(&self, timing: &MeasureTiming) {
        let add = |a: &AtomicU64, d: std::time::Duration| {
            a.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        };
        add(&self.counters.link_ns, timing.link);
        add(&self.counters.simulate_ns, timing.simulate);
        add(&self.counters.price_ns, timing.price);
    }

    fn measure_options(&self, set: InputSet) -> MeasureOptions {
        let options = MeasureOptions::new(set);
        match self.job_time_limit {
            Some(limit) => options.with_time_limit(limit),
            None => options,
        }
    }

    /// Runs `f`, converting a panic into a shared
    /// [`CoreError::Panic`] — the engine's panic-isolation boundary.
    fn catch_panic<T>(&self, f: impl FnOnce() -> Result<T, SharedError>) -> Result<T, SharedError> {
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(result) => result,
            Err(payload) => {
                self.counters.panics.fetch_add(1, Ordering::Relaxed);
                if let Some(m) = &self.metrics {
                    m.panics.inc();
                }
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                if let Some(spans) = &self.spans {
                    spans.instant("panic", "panic", vec![("message".into(), message.clone())]);
                }
                Err(Arc::new(CoreError::Panic { message }))
            }
        }
    }

    /// The memoised workbench for `benchmark`: assembled and profiled
    /// exactly once per engine, shared by every caller thereafter.
    /// Failures are memoised too — a broken benchmark is not rebuilt
    /// per sweep point (until a retry evicts the failed cell).
    ///
    /// # Errors
    ///
    /// The (shared) construction error.
    pub fn workbench(&self, benchmark: Benchmark) -> Result<Arc<Workbench>, SharedError> {
        let cell = {
            let mut map = lock(&self.workbenches);
            Arc::clone(map.entry(benchmark).or_default())
        };
        let mut built = false;
        let result = cell.get_or_init(|| {
            built = true;
            self.counters.workbench_builds.fetch_add(1, Ordering::Relaxed);
            let attempt = {
                let mut attempts = lock(&self.build_attempts);
                let n = attempts.entry(benchmark).or_insert(0);
                *n += 1;
                *n
            };
            if let Some(hook) = &self.build_fault {
                if let Some(error) = hook(benchmark, attempt) {
                    return Err(Arc::new(error));
                }
            }
            let started = Instant::now();
            let built = Workbench::build(benchmark, self.job_time_limit);
            if let Some(spans) = &self.spans {
                spans.record(
                    format!("workbench:{}", benchmark.name()),
                    "build",
                    started,
                    vec![("ok".into(), built.is_ok().to_string())],
                );
            }
            match built {
                Ok((workbench, timing)) => {
                    self.counters
                        .assemble_ns
                        .fetch_add(timing.assemble.as_nanos() as u64, Ordering::Relaxed);
                    self.counters
                        .profiling_ns
                        .fetch_add(timing.profiling.as_nanos() as u64, Ordering::Relaxed);
                    if let (Some(obs), Some(m)) = (&self.obs, &self.metrics) {
                        m.workbench_builds.inc();
                        obs.accounts.charge(
                            benchmark.name(),
                            "-",
                            "workbench",
                            Usage {
                                wall_ns: (timing.assemble + timing.profiling).as_nanos() as u64,
                                ..Usage::default()
                            },
                        );
                    }
                    Ok(Arc::new(workbench))
                }
                Err(e) => Err(Arc::new(e)),
            }
        });
        if !built {
            self.counters.workbench_hits.fetch_add(1, Ordering::Relaxed);
        }
        result.clone()
    }

    /// The memoised baseline measurement for `(benchmark, geometry,
    /// set)`, shared across every scheme normalised against it.
    ///
    /// # Errors
    ///
    /// The (shared) workbench or measurement error.
    pub fn baseline(
        &self,
        benchmark: Benchmark,
        geometry: CacheGeometry,
        set: InputSet,
    ) -> Result<Arc<Measurement>, SharedError> {
        let cell = {
            let mut map = lock(&self.baselines);
            Arc::clone(map.entry((benchmark, geometry, set)).or_default())
        };
        let mut built = false;
        let result = cell.get_or_init(|| {
            built = true;
            self.counters.baseline_builds.fetch_add(1, Ordering::Relaxed);
            let workbench = self.workbench(benchmark)?;
            let started = Instant::now();
            let measured =
                measure_with(&workbench, geometry, Scheme::Baseline, self.measure_options(set));
            if let Some(spans) = &self.spans {
                spans.record(
                    format!("baseline:{}", benchmark.name()),
                    "measure",
                    started,
                    vec![
                        ("geometry".into(), geometry.to_string()),
                        ("ok".into(), measured.is_ok().to_string()),
                    ],
                );
            }
            match measured {
                Ok((measurement, timing)) => {
                    self.add_measure_timing(&timing);
                    self.charge_baseline(
                        benchmark,
                        &measurement,
                        timing.link + timing.simulate + timing.price,
                    );
                    Ok(Arc::new(measurement))
                }
                Err(e) => Err(Arc::new(e)),
            }
        });
        if !built {
            self.counters.baseline_hits.fetch_add(1, Ordering::Relaxed);
        }
        result.clone()
    }

    /// Counts and charges one built baseline to the armed metrics and
    /// accounts (no-op when observability is off).
    fn charge_baseline(&self, benchmark: Benchmark, measurement: &Measurement, wall: Duration) {
        if let (Some(obs), Some(m)) = (&self.obs, &self.metrics) {
            m.baseline_builds.inc();
            obs.accounts.charge(
                benchmark.name(),
                &Scheme::Baseline.label(),
                "baseline",
                Usage {
                    wall_ns: wall.as_nanos() as u64,
                    cycles: measurement.run.cycles,
                    fetches: measurement.run.fetch.fetches,
                    energy_pj: measurement.energy.icache_pj(),
                    ..Usage::default()
                },
            );
        }
    }

    /// Memoises a baseline a lane group measured, with the accounting
    /// [`Engine::baseline`] would have done building it. A cell some
    /// other caller filled meanwhile keeps its value (both are the same
    /// deterministic measurement).
    fn publish_baseline(
        &self,
        key: (Benchmark, CacheGeometry, InputSet),
        result: Result<Arc<Measurement>, SharedError>,
        wall: Duration,
    ) {
        let cell = {
            let mut map = lock(&self.baselines);
            Arc::clone(map.entry(key).or_default())
        };
        let measured = result.as_ref().ok().map(Arc::clone);
        if cell.set(result).is_ok() {
            self.counters.baseline_builds.fetch_add(1, Ordering::Relaxed);
            if let Some(measurement) = measured {
                self.charge_baseline(key.0, &measurement, wall);
            }
        }
    }

    /// Groups `jobs`, with every baseline they need that no cell holds
    /// yet, by `(benchmark, code layout)`, in first-seen order. When
    /// there are fewer groups than workers, the largest groups are
    /// halved into lane shards until every worker has one.
    fn plan_lane_groups(&self, jobs: &[Job], set: InputSet) -> Vec<LaneGroup> {
        let mut groups: Vec<LaneGroup> = Vec::new();
        let mut lane = |benchmark: Benchmark, geometry, scheme: Scheme, target| {
            let layout = scheme.layout();
            let at =
                match groups.iter().position(|g| g.benchmark == benchmark && g.layout == layout) {
                    Some(at) => at,
                    None => {
                        groups.push(LaneGroup { benchmark, layout, lanes: Vec::new() });
                        groups.len() - 1
                    }
                };
            groups[at].lanes.push((geometry, scheme, target));
        };
        let mut baselines: Vec<(Benchmark, CacheGeometry)> = Vec::new();
        for &(index, benchmark, geometry, scheme) in jobs {
            if !baselines.contains(&(benchmark, geometry)) {
                baselines.push((benchmark, geometry));
                let built = lock(&self.baselines)
                    .get(&(benchmark, geometry, set))
                    .is_some_and(|cell| cell.get().is_some());
                if !built {
                    lane(benchmark, geometry, Scheme::Baseline, LaneTarget::Baseline);
                }
            }
            if scheme != Scheme::Baseline {
                lane(benchmark, geometry, scheme, LaneTarget::Job(index));
            }
        }
        while groups.len() < self.workers {
            let Some(largest) = groups
                .iter_mut()
                .filter(|group| group.lanes.len() > 1)
                .max_by_key(|group| group.lanes.len())
            else {
                break;
            };
            let lanes = largest.lanes.split_off(largest.lanes.len() / 2);
            let (benchmark, layout) = (largest.benchmark, largest.layout);
            groups.push(LaneGroup { benchmark, layout, lanes });
        }
        groups
    }

    /// Runs one lane group and files each lane's measurement (or the
    /// group's shared error) into its baseline cell or job slot. A
    /// workbench failure is left for the per-job pass, which meets the
    /// memoised error in its own phase. The watchdog allows the group
    /// one job's limit per lane.
    fn run_lane_group(&self, group: &LaneGroup, set: InputSet, prepared: &[Prepared]) {
        let Ok(workbench) = self.catch_panic(|| self.workbench(group.benchmark)) else {
            return;
        };
        let lanes: Vec<(CacheGeometry, Scheme)> =
            group.lanes.iter().map(|&(geometry, scheme, _)| (geometry, scheme)).collect();
        let mut options = self.measure_options(set);
        if let Some(limit) = self.job_time_limit {
            options = options.with_time_limit(limit.saturating_mul(lanes.len() as u32));
        }
        let started = Instant::now();
        let measured =
            self.catch_panic(|| measure_lanes(&workbench, &lanes, options).map_err(Arc::new));
        if let Some(spans) = &self.spans {
            spans.record(
                format!("lanes:{}/{:?}", group.benchmark.name(), group.layout),
                "measure",
                started,
                vec![
                    ("lanes".into(), lanes.len().to_string()),
                    ("ok".into(), measured.is_ok().to_string()),
                ],
            );
        }
        let (results, wall): (Vec<Result<Arc<Measurement>, SharedError>>, Duration) = match measured
        {
            Ok((measurements, timing)) => {
                self.add_measure_timing(&timing);
                let wall = (timing.link + timing.simulate + timing.price) / lanes.len() as u32;
                (measurements.into_iter().map(|m| Ok(Arc::new(m))).collect(), wall)
            }
            Err(e) => (vec![Err(e); lanes.len()], Duration::ZERO),
        };
        for (&(geometry, _, target), result) in group.lanes.iter().zip(results) {
            match target {
                LaneTarget::Baseline => {
                    self.publish_baseline((group.benchmark, geometry, set), result, wall);
                }
                LaneTarget::Job(index) => *lock(&prepared[index]) = Some(result),
            }
        }
    }

    /// Evicts this job's workbench and baseline cells if they still
    /// memoise `error`, so a retry re-runs the failed phase instead of
    /// replaying the failure. Returns `false` when neither does: the
    /// error did not come from a cell (a measure-phase failure), or
    /// another job that met the same failed cell evicted it first.
    fn evict_failed(
        &self,
        benchmark: Benchmark,
        geometry: CacheGeometry,
        set: InputSet,
        error: &SharedError,
    ) -> bool {
        fn evict<K: std::hash::Hash + Eq, T>(
            map: &Mutex<HashMap<K, Cached<T>>>,
            key: &K,
            error: &SharedError,
        ) -> bool {
            let mut map = lock(map);
            let failed = map.get(key).and_then(|cell| cell.get()?.as_ref().err());
            failed.is_some_and(|e| Arc::ptr_eq(e, error)) && map.remove(key).is_some()
        }
        let workbench = evict(&self.workbenches, &benchmark, error);
        evict(&self.baselines, &(benchmark, geometry, set), error) || workbench
    }

    /// Measures one scheme through the caches: the workbench is
    /// memoised, and `Scheme::Baseline` resolves to the shared baseline
    /// measurement.
    ///
    /// # Errors
    ///
    /// The (possibly shared) failure of any phase.
    pub fn measure(
        &self,
        benchmark: Benchmark,
        geometry: CacheGeometry,
        scheme: Scheme,
        set: InputSet,
    ) -> Result<Arc<Measurement>, SharedError> {
        if scheme == Scheme::Baseline {
            return self.baseline(benchmark, geometry, set);
        }
        let workbench = self.workbench(benchmark)?;
        let started = Instant::now();
        let measured = measure_with(&workbench, geometry, scheme, self.measure_options(set));
        if let Some(spans) = &self.spans {
            spans.record(
                format!("measure:{}/{}", benchmark.name(), scheme.label()),
                "measure",
                started,
                vec![
                    ("geometry".into(), geometry.to_string()),
                    ("ok".into(), measured.is_ok().to_string()),
                ],
            );
        }
        match measured {
            Ok((measurement, timing)) => {
                self.add_measure_timing(&timing);
                Ok(Arc::new(measurement))
            }
            Err(e) => Err(Arc::new(e)),
        }
    }

    /// Runs `experiment` to completion on the bounded pool and returns
    /// the structured report. Never panics on job failure.
    #[must_use]
    pub fn run(&self, experiment: &Experiment) -> SuiteReport {
        // Flattened deterministic job order: benchmark-major, then
        // geometry, then scheme — the order rows are reported in. The
        // index is the job's deterministic journal-ordering group.
        let jobs: Vec<Job> = experiment
            .benchmarks
            .iter()
            .flat_map(|&b| {
                experiment
                    .geometries
                    .iter()
                    .flat_map(move |&g| experiment.schemes.iter().map(move |&s| (b, g, s)))
            })
            .enumerate()
            .map(|(i, (b, g, s))| (i, b, g, s))
            .collect();

        // Journal group allocation happens here, on the single thread
        // that starts the run: group `base` bookends the suite, groups
        // `base + 1 + index` belong to the jobs. Allocation order is
        // deterministic, emission order inside a group is single-job
        // monotone, so the exported journal is run-reproducible.
        let journal_base = self.obs.as_ref().map(|obs| {
            let base = obs.journal.alloc_groups(jobs.len() as u64 + 2);
            obs.journal.scope(base).emit(
                "suite_start",
                vec![
                    ("jobs", jobs.len().to_string()),
                    ("input_set", experiment.input_set.name().to_string()),
                ],
            );
            base
        });

        let set = experiment.input_set;
        // The lane pass: one execution per (benchmark, layout) group,
        // filling baseline cells and job slots.
        let groups = self.plan_lane_groups(&jobs, set);
        let prepared: Vec<Prepared> = jobs.iter().map(|_| Mutex::new(None)).collect();
        let lane_pass = |group: &LaneGroup| self.run_lane_group(group, set, &prepared);

        let job = |&(index, benchmark, geometry, scheme): &Job| {
            let jscope = self.obs.as_ref().zip(journal_base).map(|(obs, base)| {
                let scope = obs.journal.scope(base + 1 + index as u64);
                scope.emit(
                    "job_start",
                    vec![
                        ("benchmark", benchmark.name().to_string()),
                        ("geometry", geometry.to_string()),
                        ("scheme", scheme.label()),
                    ],
                );
                scope
            });
            let started = Instant::now();
            let slot = &prepared[index];
            let result = self.run_job(benchmark, geometry, scheme, set, slot, jscope.as_ref());
            if let (Ok(_), Some(m)) = (&result, &self.metrics) {
                m.job_wall_us.record(u64::try_from(started.elapsed().as_micros()).unwrap_or(0));
            }
            if let Some(s) = &jscope {
                match &result {
                    Ok(row) => s.emit(
                        "job_finish",
                        vec![
                            ("outcome", "ok".to_string()),
                            ("fetches", row.fetches.to_string()),
                            ("cycles", row.cycles.to_string()),
                        ],
                    ),
                    Err(failure) => s.emit(
                        "job_finish",
                        vec![
                            ("outcome", "failed".to_string()),
                            ("phase", failure.phase.name().to_string()),
                            ("attempts", failure.attempts.to_string()),
                            ("error", failure.error.to_string()),
                        ],
                    ),
                }
            }
            result
        };
        let results = self.execute_phased(&groups, lane_pass, &jobs, job);

        let mut rows = Vec::new();
        let mut failures = Vec::new();
        for result in results {
            match result {
                Ok(row) => {
                    self.counters.jobs_ok.fetch_add(1, Ordering::Relaxed);
                    if let Some(m) = &self.metrics {
                        m.jobs_ok.inc();
                        m.job_fetches.record(row.fetches);
                        m.job_cycles.record(row.cycles);
                    }
                    rows.push(row);
                }
                Err(failure) => {
                    self.counters.jobs_failed.fetch_add(1, Ordering::Relaxed);
                    if let Some(m) = &self.metrics {
                        m.jobs_failed.inc();
                    }
                    failures.push(failure);
                }
            }
        }
        if let (Some(obs), Some(base)) = (&self.obs, journal_base) {
            obs.journal.scope(base + jobs.len() as u64 + 1).emit(
                "suite_finish",
                vec![("rows", rows.len().to_string()), ("failures", failures.len().to_string())],
            );
        }
        SuiteReport { experiment: experiment.clone(), rows, failures, stats: self.stats() }
    }

    /// One job with the retry policy applied: transient failures
    /// ([`CoreError::is_transient`]) are re-attempted up to
    /// [`RetryPolicy::max_attempts`] with deterministic backoff,
    /// evicting memoised failure cells first; deterministic failures
    /// return immediately. A failed cell costs one retry however many
    /// jobs met it: a job whose workbench or baseline failure another
    /// job already evicted re-reads the cell without counting a retry
    /// or backing off.
    fn run_job(
        &self,
        benchmark: Benchmark,
        geometry: CacheGeometry,
        scheme: Scheme,
        set: InputSet,
        prepared: &Prepared,
        jscope: Option<&JournalScope>,
    ) -> Result<JobRow, JobFailure> {
        let mut attempt = 1;
        loop {
            match self.run_job_once(benchmark, geometry, scheme, set, prepared, attempt) {
                Ok(row) => return Ok(row),
                Err(failure) => {
                    if matches!(&*failure.error, CoreError::Sim(SimError::Timeout { .. })) {
                        self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                        if let Some(m) = &self.metrics {
                            m.timeouts.inc();
                        }
                        if let Some(s) = jscope {
                            s.emit("job_timeout", vec![("attempt", attempt.to_string())]);
                        }
                        if let Some(spans) = &self.spans {
                            spans.instant(
                                format!("timeout:{}", benchmark.name()),
                                "timeout",
                                vec![("scheme".into(), scheme.label())],
                            );
                        }
                    }
                    if matches!(&*failure.error, CoreError::Panic { .. }) {
                        if let Some(s) = jscope {
                            s.emit(
                                "job_panic",
                                vec![
                                    ("attempt", attempt.to_string()),
                                    ("error", failure.error.to_string()),
                                ],
                            );
                        }
                    }
                    if attempt < self.retry.max_attempts && failure.error.is_transient() {
                        let evicted = self.evict_failed(benchmark, geometry, set, &failure.error);
                        if !evicted && failure.phase != JobPhase::Measure {
                            continue;
                        }
                        self.counters.retries.fetch_add(1, Ordering::Relaxed);
                        if let (Some(obs), Some(m)) = (&self.obs, &self.metrics) {
                            m.retries.inc();
                            obs.accounts.charge(
                                benchmark.name(),
                                &scheme.label(),
                                "measure",
                                Usage { retries: 1, ..Usage::default() },
                            );
                        }
                        if let Some(s) = jscope {
                            s.emit(
                                "job_retry",
                                vec![
                                    ("attempt", attempt.to_string()),
                                    ("error", failure.error.to_string()),
                                ],
                            );
                        }
                        if let Some(spans) = &self.spans {
                            spans.instant(
                                format!("retry:{}", benchmark.name()),
                                "retry",
                                vec![
                                    ("attempt".into(), attempt.to_string()),
                                    ("error".into(), failure.error.to_string()),
                                ],
                            );
                        }
                        std::thread::sleep(self.retry.delay(attempt));
                        attempt += 1;
                        continue;
                    }
                    return Err(failure);
                }
            }
        }
    }

    fn run_job_once(
        &self,
        benchmark: Benchmark,
        geometry: CacheGeometry,
        scheme: Scheme,
        set: InputSet,
        prepared: &Prepared,
        attempt: u32,
    ) -> Result<JobRow, JobFailure> {
        let fail = |phase, error| JobFailure {
            benchmark,
            geometry,
            scheme,
            phase,
            error,
            attempts: attempt,
        };
        // Workbench first: its failure is the most specific phase.
        self.catch_panic(|| self.workbench(benchmark))
            .map_err(|e| fail(JobPhase::Workbench, e))?;
        let baseline = self
            .catch_panic(|| self.baseline(benchmark, geometry, set))
            .map_err(|e| fail(JobPhase::Baseline, e))?;
        let measurement = self
            .catch_panic(|| {
                if let Some(hook) = &self.fault {
                    if let Some(error) = hook(benchmark, geometry, scheme) {
                        return Err(Arc::new(error));
                    }
                }
                // The lane pass measured this job; a retry finds the
                // slot taken and measures the job alone.
                if let Some(result) = lock(prepared).take() {
                    return result;
                }
                self.measure(benchmark, geometry, scheme, set)
            })
            .map_err(|e| fail(JobPhase::Measure, e))?;
        if let Some(obs) = &self.obs {
            // Baseline rows resolve through the shared baseline cell,
            // which already charged its build to the `baseline` phase;
            // charging it again here would double-count the shared
            // measurement once per scheme that reuses it.
            if scheme != Scheme::Baseline {
                obs.accounts.charge(
                    benchmark.name(),
                    &scheme.label(),
                    "measure",
                    Usage {
                        cycles: measurement.run.cycles,
                        fetches: measurement.run.fetch.fetches,
                        energy_pj: measurement.energy.icache_pj(),
                        ..Usage::default()
                    },
                );
            }
        }
        Ok(JobRow {
            benchmark,
            geometry,
            scheme,
            label: scheme.label(),
            energy: measurement.normalized_icache_energy(&baseline),
            ed: measurement.ed_product(&baseline),
            cycles: measurement.run.cycles,
            instructions: measurement.run.instructions,
            fetches: measurement.run.fetch.fetches,
        })
    }

    /// Runs `job` over every element of `jobs` on the bounded worker
    /// pool, returning results **in input order** regardless of which
    /// worker finished first.
    pub fn execute<T, R, F>(&self, jobs: &[T], job: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.execute_phased(&[] as &[()], |()| {}, jobs, job)
    }

    /// [`Engine::execute`] preceded, on the same worker threads, by a
    /// `prepare` pass over `tasks` that finishes before any job starts.
    /// One set of threads per run keeps the allocator's per-thread
    /// arenas (and so peak memory) as they were with one pass. The
    /// calling thread is worker 0, so a one-worker engine starts no
    /// thread and never lands a run on a fresh allocator arena. A panic
    /// in `prepare` is swallowed: preparation is best-effort, and the
    /// jobs redo whatever it left undone.
    fn execute_phased<P, G, T, R, F>(&self, tasks: &[P], prepare: G, jobs: &[T], job: F) -> Vec<R>
    where
        P: Sync,
        G: Fn(&P) + Sync,
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let mut slots: Vec<Option<R>> = Vec::with_capacity(jobs.len());
        slots.resize_with(jobs.len(), || None);
        let slots = Mutex::new(slots);
        let (next_task, next) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let workers = self.workers.min(jobs.len().max(tasks.len())).max(1);
        let barrier = std::sync::Barrier::new(workers);
        self.pool.queued.fetch_add(tasks.len() + jobs.len(), Ordering::Relaxed);
        self.sync_pool_gauges();
        let (next_task, next, slots, barrier) = (&next_task, &next, &slots, &barrier);
        let (prepare, job) = (&prepare, &job);
        // Books one unit of pool work around `f`.
        let timed = move |worker: usize, f: &mut dyn FnMut()| {
            self.pool.queued.fetch_sub(1, Ordering::Relaxed);
            self.pool.running.fetch_add(1, Ordering::Relaxed);
            self.sync_pool_gauges();
            let started = Instant::now();
            f();
            self.pool.busy_ns[worker]
                .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
            self.pool.running.fetch_sub(1, Ordering::Relaxed);
            self.sync_pool_gauges();
        };
        let work = move |worker: usize| {
            while let Some(task) = tasks.get(next_task.fetch_add(1, Ordering::Relaxed)) {
                timed(worker, &mut || {
                    let _ = catch_unwind(AssertUnwindSafe(|| prepare(task)));
                });
            }
            barrier.wait();
            loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(input) = jobs.get(index) else { break };
                let mut result = None;
                timed(worker, &mut || result = Some(job(input)));
                lock(slots)[index] = result;
            }
        };
        std::thread::scope(|scope| {
            for worker in 1..workers {
                scope.spawn(move || work(worker));
            }
            work(0);
        });
        let results = lock(slots)
            .drain(..)
            .map(|slot| slot.unwrap_or_else(|| unreachable!("every job index filled")))
            .collect();
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_preserves_input_order() {
        let engine = Engine::with_workers(8);
        let jobs: Vec<u64> = (0..64).collect();
        // Reverse sleep makes later jobs finish first without the pool.
        let results = engine.execute(&jobs, |&n| {
            std::thread::sleep(std::time::Duration::from_micros(64 - n));
            n * 2
        });
        assert_eq!(results, (0..64).map(|n| n * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn a_one_worker_engine_runs_jobs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let jobs: Vec<u64> = (0..8).collect();
        let threads = Engine::with_workers(1).execute(&jobs, |_| std::thread::current().id());
        assert!(threads.iter().all(|&id| id == caller), "{threads:?} vs {caller:?}");
    }

    #[test]
    fn workers_never_zero() {
        assert_eq!(Engine::with_workers(0).workers(), 1);
    }

    #[test]
    fn experiment_job_count() {
        let exp = Experiment::new(
            vec![Benchmark::Crc, Benchmark::Sha],
            vec![CacheGeometry::xscale_icache()],
            vec![Scheme::WayMemoization, Scheme::Baseline],
        );
        assert_eq!(exp.job_count(), 4);
    }

    #[test]
    fn retry_policy_backoff_is_deterministic_exponential() {
        let policy = RetryPolicy::new(4, Duration::from_millis(10));
        assert_eq!(policy.delay(1), Duration::from_millis(10));
        assert_eq!(policy.delay(2), Duration::from_millis(20));
        assert_eq!(policy.delay(3), Duration::from_millis(40));
        // Clamped attempts never overflow the multiplier.
        assert!(policy.delay(100) >= policy.delay(3));
        assert_eq!(RetryPolicy::none().max_attempts, 1);
        assert_eq!(RetryPolicy::new(0, Duration::ZERO).max_attempts, 1);
    }

    #[test]
    fn panic_payloads_are_stringified() {
        let engine = Engine::with_workers(1);
        let r: Result<(), SharedError> = engine.catch_panic(|| panic!("boom {}", 7));
        match r {
            Err(e) => {
                assert!(matches!(&*e, CoreError::Panic { message } if message == "boom 7"));
            }
            Ok(()) => panic!("expected panic to be caught"),
        }
        assert_eq!(engine.stats().panics, 1);
    }
}
