//! The `obs_report` pipeline: run the suite with observability armed
//! and reconcile every metric against independently-derived ground
//! truth.
//!
//! Metrics that nobody checks rot silently — a counter that drifts off
//! its source of truth is worse than no counter, because dashboards
//! keep trusting it. This pipeline makes the observability layer
//! *falsifiable*: it drives the engine through a scripted campaign
//! whose outcome is known exactly (one transient fault that must
//! retry, one deterministic failure that must surface, a clean rerun
//! on a second engine that must complete every job, and a quick chaos
//! mini-campaign with real scheme demotions), then demands
//! that every counter, journal count, histogram total and account cell
//! agree with the [`SuiteReport`]s and [`ChaosOutcome`] the same run
//! produced through the ordinary, uninstrumented return path. Any
//! mismatch is a failed check and the binary exits 1.
//!
//! The canonical manifest ([`ObsReport::canonical_manifest`]) is
//! byte-deterministic — accounts are exported without their wall-clock
//! column and the only histograms included count simulated quantities —
//! so `BENCH_obs_report.json` is blessed and gated byte for byte with
//! the other stored baselines.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wp_core::wp_mem::CacheGeometry;
use wp_core::wp_workloads::{Benchmark, InputSet};
use wp_core::{CoreError, Scheme};
use wp_obs::metrics::MetricSnapshot;
use wp_obs::Obs;

use crate::chaos::{run_campaign_on, ChaosOutcome};
use crate::engine::{Engine, Experiment, RetryPolicy, SuiteReport};
use crate::Json;

/// Schema tag of the canonical manifest. Mixed into the obs node's task
/// key, so a payload-shape change (a bumped tag) can never be served a
/// stale stored manifest.
pub const OBS_SCHEMA: &str = "obs_report/v2";

/// Acceptance bound on the cost of *armed* observability, percent of
/// the unarmed wall clock (min-of-N, interleaved).
pub const OBS_OVERHEAD_LIMIT_PCT: f64 = 2.0;

/// Worker-pool bound the pipeline pins: the cross-checks and the
/// journal must come out identical at any parallelism, and running at a
/// fixed width keeps the wall section comparable across hosts.
pub const OBS_WORKERS: usize = 4;

/// The scripted experiment the pipeline drives: quick is the CI smoke
/// shape, full is what the blessed baseline records.
#[must_use]
pub fn obs_experiment(quick: bool) -> Experiment {
    let icache = CacheGeometry::xscale_icache();
    if quick {
        Experiment::new(
            [Benchmark::Crc, Benchmark::Sha],
            [icache],
            [Scheme::WayMemoization, Scheme::WayPlacement { area_bytes: 8 * 1024 }],
        )
        .with_input_set(InputSet::Small)
    } else {
        Experiment::new(
            [Benchmark::Crc, Benchmark::Sha, Benchmark::Bitcount],
            [icache],
            [Scheme::WayPlacement { area_bytes: 32 * 1024 }, Scheme::WayMemoization],
        )
        .with_input_set(InputSet::Large)
    }
}

/// One reconciliation check: a metric/journal/account reading against
/// the ground truth the run's ordinary return path established.
#[derive(Clone, Debug)]
pub struct Check {
    /// What is being reconciled.
    pub name: &'static str,
    /// The independently-derived expected value.
    pub expected: u64,
    /// What the observability layer reported.
    pub actual: u64,
}

impl Check {
    /// Whether the reading agrees with ground truth.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.expected == self.actual
    }

    fn json(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.name)),
            ("expected", Json::Uint(self.expected)),
            ("actual", Json::Uint(self.actual)),
            ("ok", Json::from(self.ok())),
        ])
    }
}

/// The finished pipeline: both suite passes, the chaos mini-campaign,
/// and every reconciliation check.
pub struct ObsReport {
    /// Whether this was the quick (CI smoke) shape.
    pub quick: bool,
    /// The armed observability context (shared by both engines).
    pub obs: Arc<Obs>,
    /// The experiment that ran.
    pub experiment: Experiment,
    /// First pass: one retry victim, one hard failure.
    pub faulted: SuiteReport,
    /// Second pass: the same experiment rerun on a fresh engine sharing
    /// the [`Obs`]; completes every job.
    pub resumed: SuiteReport,
    /// The chaos mini-campaign (always the quick matrix).
    pub chaos: ChaosOutcome,
    /// Every reconciliation check.
    pub checks: Vec<Check>,
    /// Per-worker busy time of the second engine (a wall-clock reading
    /// `obs_report` prints).
    pub busy_ns: Vec<u64>,
}

impl ObsReport {
    /// Whether the scripted campaign behaved and every check passed.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.faulted.failures.len() == 1
            && self.resumed.is_complete()
            && !self.chaos.failed()
            && self.checks.iter().all(Check::ok)
    }

    /// Failed checks, for reporting.
    #[must_use]
    pub fn failed_checks(&self) -> Vec<&Check> {
        self.checks.iter().filter(|c| !c.ok()).collect()
    }

    /// The byte-deterministic manifest: provenance, accounts rendered
    /// as `runs` rows keyed `scheme#phase` (wall-clock column dropped),
    /// the deterministic metric values, and every check verdict.
    #[must_use]
    pub fn canonical_manifest(&self) -> Json {
        let key = crate::campaign::keys::obs(self.quick, &crate::campaign::InputTags::default());
        self.canonical_manifest_with_key(&key)
    }

    /// [`ObsReport::canonical_manifest`] with an explicit provenance
    /// task key, so the campaign DAG can stamp the key of the node
    /// that produced these bytes.
    #[must_use]
    pub fn canonical_manifest_with_key(&self, task_key: &wp_campaign::TaskKey) -> Json {
        let runs: Vec<Json> = self
            .obs
            .accounts
            .snapshot()
            .iter()
            .map(|(key, usage)| {
                Json::obj([
                    ("benchmark", Json::from(key.benchmark.as_str())),
                    ("scheme", Json::from(format!("{}#{}", key.scheme, key.phase).as_str())),
                    ("phase", Json::from(key.phase.as_str())),
                    ("fetches", Json::Uint(usage.fetches)),
                    ("cycles", Json::Uint(usage.cycles)),
                    ("retries", Json::Uint(usage.retries)),
                    ("icache_pj", Json::from(usage.energy_pj)),
                ])
            })
            .collect();

        let mut metrics = Vec::new();
        for snap in self.obs.metrics.snapshot() {
            match snap {
                MetricSnapshot::Counter { name, value, .. } => {
                    metrics.push((name, Json::Uint(value)));
                }
                MetricSnapshot::Gauge { name, value, .. } => {
                    metrics.push((name, Json::from(value as f64)));
                }
                MetricSnapshot::Histogram { name, snapshot, .. } => {
                    // Wall-clock histograms are real but nondeterministic;
                    // they live in the Prometheus snapshot, not here.
                    if name.contains("wall") {
                        continue;
                    }
                    metrics.push((
                        name,
                        Json::obj([
                            ("count", Json::Uint(snapshot.count())),
                            ("sum", Json::Uint(snapshot.sum())),
                            ("min", Json::Uint(snapshot.min())),
                            ("p50", Json::Uint(snapshot.quantile(0.5))),
                            ("p90", Json::Uint(snapshot.quantile(0.9))),
                            ("max", Json::Uint(snapshot.max())),
                        ]),
                    ));
                }
            }
        }

        let failed = self.failed_checks().len();
        Json::obj([
            ("schema", Json::from(OBS_SCHEMA)),
            ("kind", Json::from("obs_report")),
            (
                "provenance",
                Json::obj([
                    ("quick", Json::from(self.quick)),
                    ("workers", Json::from(OBS_WORKERS)),
                    ("input_set", Json::from(self.experiment.input_set.name())),
                    (
                        "benchmarks",
                        Json::arr(self.experiment.benchmarks.iter().map(|b| Json::from(b.name()))),
                    ),
                    (
                        "schemes",
                        Json::arr(self.experiment.schemes.iter().map(|s| Json::from(s.label()))),
                    ),
                    ("jobs", Json::from(self.experiment.job_count())),
                    ("mini_campaign_quick", Json::from(true)),
                    ("task_key", Json::from(task_key.hex().as_str())),
                ]),
            ),
            ("runs", Json::Arr(runs)),
            (
                "metrics",
                Json::obj(metrics.iter().map(|(name, value)| (name.as_str(), value.clone()))),
            ),
            ("checks", Json::arr(self.checks.iter().map(Check::json))),
            ("journal_events", Json::from(self.obs.journal.len())),
            (
                "summary",
                Json::obj([
                    ("checks", Json::from(self.checks.len())),
                    ("failed_checks", Json::from(failed)),
                    ("suite_failures", Json::from(self.faulted.failures.len())),
                    ("resumed_complete", Json::from(self.resumed.is_complete())),
                    ("chaos_ok", Json::from(!self.chaos.failed())),
                    ("ok", Json::from(self.ok())),
                ]),
            ),
        ])
    }
}

/// Runs the scripted campaign against `obs` and reconciles. Pass a
/// fresh [`Obs::new`] — the checks assume nothing else has written to
/// the registry, journal or accounts. `sabotage` bumps one counter
/// just before verification, proving the checks can actually fail
/// (the injected-mismatch smoke in CI and the tests relies on it).
///
/// # Errors
///
/// Infrastructure failures only (an engine pass with the wrong
/// shape). Check mismatches are *not* errors — they are reported
/// through [`ObsReport::checks`].
pub fn run_pipeline(obs: &Arc<Obs>, quick: bool, sabotage: bool) -> Result<ObsReport, String> {
    let experiment = obs_experiment(quick);
    let jobs = experiment.job_count();

    // Victims, picked deterministically from the experiment's corners:
    // the first job fails transiently on its first attempt (must
    // retry), the last job fails hard (must surface as a failure).
    let retry_victim = (experiment.benchmarks[0], experiment.schemes[0]);
    let hard_victim = (
        experiment.benchmarks[experiment.benchmarks.len() - 1],
        experiment.schemes[experiment.schemes.len() - 1],
    );
    let tripped = AtomicBool::new(false);
    let faulted_engine = Engine::with_workers(OBS_WORKERS)
        .with_obs(Arc::clone(obs))
        .with_retry(RetryPolicy::new(2, Duration::ZERO))
        .with_fault(move |benchmark, _geometry, scheme| {
            if (benchmark, scheme) == retry_victim && !tripped.swap(true, Ordering::Relaxed) {
                return Some(CoreError::Io {
                    context: "obs_report scripted fault".to_string(),
                    message: "transient, succeeds on retry".to_string(),
                });
            }
            if (benchmark, scheme) == hard_victim {
                return Some(CoreError::ChecksumMismatch {
                    benchmark,
                    expected: 0xDEAD,
                    actual: 0xBEEF,
                });
            }
            None
        });
    let faulted = faulted_engine.run(&experiment);
    if faulted.failures.len() != 1 {
        return Err(format!(
            "faulted pass should fail exactly the hard victim: {:?}",
            faulted.failures
        ));
    }

    // Rerun on a clean engine sharing the same Obs: every job runs
    // fresh and the suite completes, so both engines accumulate into
    // one registry, journal and set of accounts.
    let resumed_engine = Engine::with_workers(OBS_WORKERS).with_obs(Arc::clone(obs));
    let resumed = resumed_engine.run(&experiment);
    if !resumed.is_complete() {
        return Err(format!("rerun pass failed: {:?}", resumed.failures));
    }

    // The chaos mini-campaign (always the quick matrix — the full one
    // is the chaos baseline's job): real injected faults, real
    // demotions, journaled and counted through the same Obs.
    let chaos = run_campaign_on(&resumed_engine, true);

    if sabotage {
        obs.metrics.counter("wp_engine_retries_total", "").inc();
    }

    let checks = reconcile(obs, &experiment, &faulted, &resumed, &chaos, jobs as u64);
    Ok(ObsReport {
        quick,
        obs: Arc::clone(obs),
        experiment,
        faulted,
        resumed,
        chaos,
        checks,
        busy_ns: resumed_engine.pool_snapshot().busy_ns,
    })
}

/// Every reconciliation: counters vs [`SuiteReport`] stats, journal
/// counts vs both, histogram totals vs the rows themselves, chaos
/// counters vs the classified trials, account cells vs the rows that
/// were charged to them.
fn reconcile(
    obs: &Arc<Obs>,
    experiment: &Experiment,
    faulted: &SuiteReport,
    resumed: &SuiteReport,
    chaos: &ChaosOutcome,
    jobs: u64,
) -> Vec<Check> {
    let counter = |name: &str| obs.metrics.counter_value(name).unwrap_or(u64::MAX);
    let journal = &obs.journal;
    let mut checks = Vec::new();
    let mut push = |name: &'static str, expected: u64, actual: u64| {
        checks.push(Check { name, expected, actual });
    };

    // Suite bookends: one start/finish pair per engine pass.
    push("journal suite_start events", 2, journal.count_kind("suite_start"));
    push("journal suite_finish events", 2, journal.count_kind("suite_finish"));
    push("journal job_start events", 2 * jobs, journal.count_kind("job_start"));

    // Job outcomes: counters and journal against the reports.
    let fresh_ok = faulted.stats.jobs_ok + resumed.stats.jobs_ok;
    push("jobs_ok counter vs engine stats", fresh_ok, counter("wp_engine_jobs_ok_total"));
    push(
        "journal ok finishes vs engine stats",
        fresh_ok,
        journal.count_kind_attr("job_finish", "outcome", "ok"),
    );
    let failed = (faulted.failures.len() + resumed.failures.len()) as u64;
    push("jobs_failed counter vs reports", failed, counter("wp_engine_jobs_failed_total"));
    push(
        "journal failed finishes vs reports",
        failed,
        journal.count_kind_attr("job_finish", "outcome", "failed"),
    );

    // The scripted retry: engine stats, counter, journal and accounts
    // must all have seen exactly it.
    let retries = faulted.stats.retries + resumed.stats.retries;
    push("retries counter vs engine stats", retries, counter("wp_engine_retries_total"));
    push("journal job_retry events", retries, journal.count_kind("job_retry"));
    push("accounts retry column", retries, obs.accounts.total(None, |u| u.retries));

    // Histogram totals vs the report rows themselves (both passes).
    let rows = || faulted.rows.iter().chain(&resumed.rows);
    if let Some(h) = obs.metrics.histogram_snapshot("wp_job_fetches") {
        push("job_fetches histogram count vs rows", rows().count() as u64, h.count());
        push("job_fetches histogram sum vs rows", rows().map(|r| r.fetches).sum(), h.sum());
    } else {
        push("job_fetches histogram present", 1, 0);
    }
    if let Some(h) = obs.metrics.histogram_snapshot("wp_job_cycles") {
        push("job_cycles histogram sum vs rows", rows().map(|r| r.cycles).sum(), h.sum());
    } else {
        push("job_cycles histogram present", 1, 0);
    }

    // Chaos: per-outcome counters and journal vs the classified trials,
    // ladder moves vs the transitions the controller reported.
    let (graceful, detected, silent) = chaos.outcome_counts();
    push(
        "chaos graceful counter vs trials",
        graceful as u64,
        counter("wp_chaos_trials_graceful_total"),
    );
    push(
        "chaos detected counter vs trials",
        detected as u64,
        counter("wp_chaos_trials_detected_total"),
    );
    push("chaos silent counter vs trials", silent as u64, counter("wp_chaos_trials_silent_total"));
    push(
        "journal chaos_trial events vs trials",
        chaos.trials.len() as u64,
        journal.count_kind("chaos_trial"),
    );
    let demotions: u64 = chaos.trials.iter().map(|(t, _)| t.trial.demotions).sum();
    let promotions: u64 = chaos.trials.iter().map(|(t, _)| t.trial.promotions).sum();
    push("demotions counter vs trials", demotions, counter("wp_demotions_total"));
    push("journal scheme_demotion events", demotions, journal.count_kind("scheme_demotion"));
    push("promotions counter vs trials", promotions, counter("wp_promotions_total"));
    push("journal scheme_promotion events", promotions, journal.count_kind("scheme_promotion"));

    // Workbench builds: each engine builds each benchmark once, and the
    // chaos mini-campaign adds its own matrix on the second engine.
    let chaos_benchmarks = crate::chaos::chaos_benchmarks(true).0;
    let extra =
        chaos_benchmarks.iter().filter(|b| !experiment.benchmarks.contains(b)).count() as u64;
    push(
        "workbench_builds counter vs engines",
        2 * experiment.benchmarks.len() as u64 + extra,
        counter("wp_engine_workbench_builds_total"),
    );

    // No registration bugs: every metric name was registered with one
    // kind only.
    push("registry kind conflicts", 0, obs.metrics.kind_conflicts());

    checks
}

/// Runs the pipeline and renders the blessed manifest stamped with
/// `task_key` (the campaign DAG passes the key of its obs node),
/// refusing — like the chaos campaign — to produce a baseline whose
/// observability layer does not reconcile.
///
/// # Errors
///
/// A description of the failed check(s) or infrastructure failure.
pub fn build_obs_baseline_with_key(
    quick: bool,
    task_key: &wp_campaign::TaskKey,
) -> Result<Json, String> {
    let obs = Obs::new();
    let report = run_pipeline(&obs, quick, false)?;
    if !report.ok() {
        let failed: Vec<String> = report
            .failed_checks()
            .iter()
            .map(|c| format!("{}: expected {}, got {}", c.name, c.expected, c.actual))
            .collect();
        return Err(format!("obs_report checks failed: {}", failed.join("; ")));
    }
    Ok(report.canonical_manifest_with_key(task_key))
}

/// Measures the cost of armed observability: interleaved min-of-16
/// wall-clock of the same single-job experiment on an unarmed engine
/// and on one carrying a live [`Obs`]. Both engines are warmed first so
/// the timed region is measurement only (which is where every
/// instrumentation branch lives). The job runs on the large input in
/// every pipeline shape, so each timed run lasts tens of milliseconds
/// instead of the few the small input gives, which host noise alone
/// can push past [`OBS_OVERHEAD_LIMIT_PCT`]. Returns `(plain_ns,
/// armed_ns, overhead_pct)`.
///
/// # Errors
///
/// A description of the failing run.
pub fn measure_overhead() -> Result<(f64, f64, f64), String> {
    let experiment = Experiment::new(
        [Benchmark::Crc],
        [CacheGeometry::xscale_icache()],
        [Scheme::WayMemoization],
    );
    let plain_engine = Engine::with_workers(1);
    let armed_engine = Engine::with_workers(1).with_obs(Obs::new());
    // Warm both caches (workbench + baseline) outside the timed region.
    for engine in [&plain_engine, &armed_engine] {
        let report = engine.run(&experiment);
        if !report.is_complete() {
            return Err(format!("overhead warmup failed: {:?}", report.failures));
        }
    }
    let mut plain_ns = f64::INFINITY;
    let mut armed_ns = f64::INFINITY;
    for round in 0..16 {
        let start = Instant::now();
        let report = plain_engine.run(&experiment);
        let plain = start.elapsed().as_nanos() as f64;
        if !report.is_complete() {
            return Err(format!("overhead plain run failed: {:?}", report.failures));
        }
        let start = Instant::now();
        let report = armed_engine.run(&experiment);
        let armed = start.elapsed().as_nanos() as f64;
        if !report.is_complete() {
            return Err(format!("overhead armed run failed: {:?}", report.failures));
        }
        if round > 0 {
            plain_ns = plain_ns.min(plain);
            armed_ns = armed_ns.min(armed);
        }
    }
    let overhead_pct = ((armed_ns - plain_ns) / plain_ns * 100.0).max(0.0);
    Ok((plain_ns, armed_ns, overhead_pct))
}
