//! The chaos/soak campaign: detection + degradation under escalating
//! fault pressure.
//!
//! The fault campaign (`fault_campaign`) established the paper's §4
//! *passive* claim: faults inside the way-placement trust boundary
//! never corrupt architectural state. This campaign exercises the
//! *active* stack that PR 7 added on top — parity/duplication checks
//! in the fetch core, priced recovery, and the degradation controller
//! that walks a faulting machine down the scheme ladder — and holds it
//! to three falsifiable invariants:
//!
//! 1. **No silent corruption**, at any injection rate, ever.
//! 2. **No undetected energy burn**: a graceful trial that landed
//!    faults either saw the detection layer catch at least one, or the
//!    controller demote the scheme, or the faults were absorbed for
//!    free (energy ratio within noise of the clean twin).
//! 3. **Bounded clean-run overhead**: with detection and degradation
//!    armed but *zero* faults injected, total fetch-side energy
//!    (I-cache + recovery checks) stays within
//!    [`CLEAN_OVERHEAD_LIMIT`] of the unarmed clean twin.
//!
//! [`ChaosOutcome::manifest`] renders the whole campaign as a
//! byte-deterministic manifest; the campaign DAG's chaos node
//! ([`build_chaos_baseline_with_key`]) produces the copy that is
//! blessed and gated byte for byte with the other stored baselines.

use std::sync::Arc;

use wp_core::wp_mem::{CacheGeometry, FaultConfig};
use wp_core::wp_sim::DegradationPolicy;
use wp_core::wp_workloads::{Benchmark, InputSet};
use wp_core::{fault_trial_with, FaultOutcome, FaultSpec, FaultTrial, MeasureOptions, Scheme};
use wp_obs::account::Usage;
use wp_obs::metrics::Counter;
use wp_obs::Obs;

use crate::engine::Engine;
use crate::Json;

/// Schema tag of the campaign manifest. Mixed into the campaign
/// node's task key, so a payload-shape change (a bumped tag) can never
/// be served a stale stored manifest.
pub const CHAOS_SCHEMA: &str = "wp-bench/chaos-campaign-v2";

/// The escalating hardware fault ladder, in faults per million
/// fetches. Rate 0 is the armed-but-clean rung that prices the
/// detection overhead itself.
pub const CHAOS_RATES_PPM: [u32; 4] = [0, 1_000, 10_000, 100_000];

/// Invariant 3's bound: armed-but-clean total fetch-side energy
/// (I-cache + recovery checks) within 5% of the unarmed twin.
pub const CLEAN_OVERHEAD_LIMIT: f64 = 1.05;

/// Invariant 2's noise floor: an energy ratio at or below this counts
/// as "absorbed for free" (second-order timing effects move the ratio
/// a little even when every fault was overwritten before use).
pub const ENERGY_BURN_SLACK: f64 = 1.02;

/// The campaign matrix: quick is the CI smoke shape, full soaks the
/// whole suite. Both run small inputs — the ladder multiplies trials,
/// not input sizes.
#[must_use]
pub fn chaos_benchmarks(quick: bool) -> (&'static [Benchmark], InputSet) {
    if quick {
        (&[Benchmark::Crc, Benchmark::Sha, Benchmark::Bitcount], InputSet::Small)
    } else {
        (&Benchmark::ALL, InputSet::Small)
    }
}

/// The degradation policy the campaign arms: small windows so even the
/// quick benchmarks close enough of them for the controller to act at
/// the higher rungs of the ladder.
#[must_use]
pub fn chaos_policy() -> DegradationPolicy {
    DegradationPolicy { window_fetches: 4096, demote_faults: 4, promote_windows: 4 }
}

/// One classified campaign trial.
#[derive(Clone, Debug)]
pub struct ChaosTrial {
    /// The benchmark the trial ran.
    pub benchmark: Benchmark,
    /// The scheme under test.
    pub scheme: Scheme,
    /// The injection rate of this rung.
    pub rate_ppm: u32,
    /// The classified trial, with detection/recovery counters.
    pub trial: FaultTrial,
}

impl ChaosTrial {
    /// The manifest row's scheme column: `label@rate`, so every
    /// (benchmark, scheme, rate) row has a distinct
    /// `benchmark`/`scheme` pair.
    #[must_use]
    pub fn scheme_key(&self) -> String {
        format!("{}@{}ppm", self.scheme.label(), self.rate_ppm)
    }

    /// Whether this trial violates invariant 2: an energy-burning
    /// graceful run whose faults nobody detected and nobody reacted to.
    #[must_use]
    pub fn is_undetected_burn(&self) -> bool {
        match self.trial.outcome {
            FaultOutcome::Graceful { energy_ratio, faults_injected, .. } => {
                self.rate_ppm > 0
                    && faults_injected > 0
                    && self.trial.detection.total_detected() == 0
                    && self.trial.demotions == 0
                    && energy_ratio > ENERGY_BURN_SLACK
            }
            _ => false,
        }
    }

    /// The armed-but-clean overhead of a rate-0 trial: total fetch-side
    /// energy (I-cache + recovery checks) over the unarmed clean twin's
    /// I-cache energy. `None` for faulted rungs or errored runs.
    #[must_use]
    pub fn clean_overhead(&self, clean_icache_pj: f64) -> Option<f64> {
        match self.trial.outcome {
            FaultOutcome::Graceful { .. } if self.rate_ppm == 0 && clean_icache_pj > 0.0 => {
                Some((self.trial.icache_pj + self.trial.recovery_pj) / clean_icache_pj)
            }
            _ => None,
        }
    }

    fn json(&self, clean_icache_pj: f64) -> Json {
        let mut json = Json::obj([
            ("benchmark", Json::from(self.benchmark.name())),
            ("scheme", Json::from(self.scheme_key().as_str())),
            ("rate_ppm", Json::from(self.rate_ppm)),
            ("fetches", Json::Uint(self.trial.fetches)),
            ("icache_pj", Json::from(self.trial.icache_pj + self.trial.recovery_pj)),
            ("recovery_pj", Json::from(self.trial.recovery_pj)),
            ("outcome", Json::from(self.trial.outcome.label())),
            ("faults_detected", Json::from(self.trial.detection.total_detected())),
            ("recovery_cycles", Json::from(self.trial.detection.recovery_cycles)),
            ("demotions", Json::from(self.trial.demotions)),
            ("promotions", Json::from(self.trial.promotions)),
            (
                "final_scheme",
                match self.trial.final_scheme {
                    Some(scheme) => Json::from(scheme.label()),
                    None => Json::Null,
                },
            ),
        ]);
        if let FaultOutcome::Graceful { cycle_ratio, energy_ratio, faults_injected } =
            self.trial.outcome
        {
            json.push("cycle_ratio", Json::from(cycle_ratio));
            json.push("energy_ratio", Json::from(energy_ratio));
            json.push("faults_injected", Json::from(faults_injected));
        }
        if let Some(overhead) = self.clean_overhead(clean_icache_pj) {
            json.push("clean_overhead", Json::from(overhead));
        }
        json
    }
}

/// The finished campaign: every trial and the violation lists the
/// binary and [`build_chaos_baseline_with_key`] fail on.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// Whether this was the quick (CI smoke) shape.
    pub quick: bool,
    /// The geometry the campaign ran on.
    pub geometry: CacheGeometry,
    /// Every trial with its unarmed clean twin's I-cache energy.
    pub trials: Vec<(ChaosTrial, f64)>,
    /// Invariant 1 violations: silent corruptions, described.
    pub silent: Vec<String>,
    /// Invariant 2 violations: undetected energy burners, described.
    pub undetected: Vec<String>,
    /// Invariant 3 violations: rate-0 overhead past the limit.
    pub overhead: Vec<String>,
    /// Infrastructure failures (workbench/clean-twin build errors).
    pub errors: Vec<String>,
}

impl ChaosOutcome {
    /// Whether any invariant was violated (the campaign's exit gate).
    #[must_use]
    pub fn failed(&self) -> bool {
        !self.silent.is_empty()
            || !self.undetected.is_empty()
            || !self.overhead.is_empty()
            || !self.errors.is_empty()
    }

    /// Graceful / detected / silent trial counts.
    #[must_use]
    pub fn outcome_counts(&self) -> (usize, usize, usize) {
        let count = |label: &str| {
            self.trials.iter().filter(|(t, _)| t.trial.outcome.label() == label).count()
        };
        (count("graceful"), count("detected"), count("silent-corruption"))
    }

    /// Renders the byte-deterministic campaign manifest: one `runs`
    /// row per rung (fetches, recovery-inclusive energy, outcome,
    /// detections and ladder moves) plus the invariant summary.
    #[must_use]
    pub fn manifest(&self) -> Json {
        let key = crate::campaign::keys::chaos(self.quick, &crate::campaign::InputTags::default());
        self.manifest_with_key(&key)
    }

    /// [`ChaosOutcome::manifest`] with an explicit provenance task
    /// key, so the campaign DAG can stamp the key of the node that
    /// produced these bytes.
    #[must_use]
    pub fn manifest_with_key(&self, task_key: &wp_campaign::TaskKey) -> Json {
        let (graceful, detected, silent) = self.outcome_counts();
        let (benchmarks, set) = chaos_benchmarks(self.quick);
        let policy = chaos_policy();
        Json::obj([
            ("schema", Json::from(CHAOS_SCHEMA)),
            ("kind", Json::from("chaos_campaign")),
            (
                "provenance",
                Json::obj([
                    ("quick", Json::from(self.quick)),
                    ("geometry", Json::from(self.geometry.to_string())),
                    ("input_set", Json::from(set.name())),
                    ("rates_ppm", Json::arr(CHAOS_RATES_PPM.iter().map(|&r| Json::from(r)))),
                    ("benchmarks", Json::arr(benchmarks.iter().map(|b| Json::from(b.name())))),
                    (
                        "degradation",
                        Json::obj([
                            ("window_fetches", Json::from(policy.window_fetches)),
                            ("demote_faults", Json::from(policy.demote_faults)),
                            ("promote_windows", Json::from(policy.promote_windows)),
                        ]),
                    ),
                    ("clean_overhead_limit", Json::from(CLEAN_OVERHEAD_LIMIT)),
                    ("task_key", Json::from(task_key.hex().as_str())),
                ]),
            ),
            ("runs", Json::arr(self.trials.iter().map(|(t, clean_pj)| t.json(*clean_pj)))),
            (
                "summary",
                Json::obj([
                    ("trials", Json::from(self.trials.len())),
                    ("graceful", Json::from(graceful)),
                    ("detected", Json::from(detected)),
                    ("silent_corruptions", Json::from(silent)),
                    ("undetected_energy_burners", Json::from(self.undetected.len())),
                    ("clean_overhead_violations", Json::from(self.overhead.len())),
                    ("infrastructure_errors", Json::from(self.errors.len())),
                    ("ok", Json::from(!self.failed())),
                ]),
            ),
        ])
    }
}

/// Observability handles for one campaign run: pre-registered counters
/// plus the journal group base allocated before the pool fans out, so
/// event ordering stays seed-deterministic under any worker count.
struct ChaosObs {
    obs: Arc<Obs>,
    base: u64,
    jobs: u64,
    graceful: Counter,
    detected: Counter,
    silent: Counter,
    demotions: Counter,
    promotions: Counter,
}

impl ChaosObs {
    fn new(obs: Arc<Obs>, job_count: usize, quick: bool) -> ChaosObs {
        let base = obs.journal.alloc_groups(job_count as u64 + 2);
        obs.journal.scope(base).emit(
            "campaign_start",
            vec![
                ("jobs", job_count.to_string()),
                ("rates", CHAOS_RATES_PPM.len().to_string()),
                ("quick", quick.to_string()),
            ],
        );
        let c = |name: &str, help: &str| obs.metrics.counter(name, help);
        ChaosObs {
            base,
            jobs: job_count as u64,
            graceful: c("wp_chaos_trials_graceful_total", "chaos trials classified graceful"),
            detected: c("wp_chaos_trials_detected_total", "chaos trials classified detected"),
            silent: c("wp_chaos_trials_silent_total", "chaos trials classified silent-corruption"),
            demotions: c("wp_demotions_total", "scheme ladder demotions across chaos trials"),
            promotions: c("wp_promotions_total", "scheme ladder promotions across chaos trials"),
            obs,
        }
    }

    /// Records one classified trial into the journal (group `base + 1 +
    /// job_index`), the counters, and the per-phase accounts.
    fn record_trial(&self, job_index: usize, trial: &ChaosTrial) {
        let scope = self.obs.journal.scope(self.base + 1 + job_index as u64);
        scope.emit(
            "chaos_trial",
            vec![
                ("benchmark", trial.benchmark.name().to_string()),
                ("scheme", trial.scheme_key()),
                ("rate_ppm", trial.rate_ppm.to_string()),
                ("outcome", trial.trial.outcome.label().to_string()),
                ("fetches", trial.trial.fetches.to_string()),
                ("demotions", trial.trial.demotions.to_string()),
                ("promotions", trial.trial.promotions.to_string()),
            ],
        );
        for transition in &trial.trial.transitions {
            let kind =
                if transition.is_demotion() { "scheme_demotion" } else { "scheme_promotion" };
            scope.emit(
                kind,
                vec![
                    ("benchmark", trial.benchmark.name().to_string()),
                    ("scheme", trial.scheme_key()),
                    ("boundary", transition.boundary.to_string()),
                    ("from", transition.from.label().to_string()),
                    ("to", transition.to.label().to_string()),
                    ("window_faults", transition.window_faults.to_string()),
                ],
            );
        }
        match trial.trial.outcome.label() {
            "graceful" => self.graceful.inc(),
            "detected" => self.detected.inc(),
            _ => self.silent.inc(),
        }
        self.demotions.add(trial.trial.demotions);
        self.promotions.add(trial.trial.promotions);
        self.obs.accounts.charge(
            trial.benchmark.name(),
            &trial.scheme_key(),
            "chaos",
            Usage {
                fetches: trial.trial.fetches,
                energy_pj: trial.trial.icache_pj + trial.trial.recovery_pj,
                ..Usage::default()
            },
        );
    }

    fn finish(&self, outcome: &ChaosOutcome) {
        self.obs.journal.scope(self.base + self.jobs + 1).emit(
            "campaign_finish",
            vec![
                ("trials", outcome.trials.len().to_string()),
                ("silent", outcome.silent.len().to_string()),
                ("undetected", outcome.undetected.len().to_string()),
                ("overhead", outcome.overhead.len().to_string()),
                ("errors", outcome.errors.len().to_string()),
            ],
        );
    }
}

/// Runs the full campaign on the process-wide engine: every
/// `(benchmark, scheme)` pair measures its unarmed clean twin once,
/// then climbs the rate ladder with detection + degradation armed.
#[must_use]
pub fn run_campaign(quick: bool) -> ChaosOutcome {
    run_campaign_on(Engine::global(), quick)
}

/// [`run_campaign`] on a caller-supplied engine. When the engine
/// carries an [`Obs`] handle, the campaign journals every classified
/// trial and ladder transition, bumps the chaos counters, and charges
/// the `chaos` phase accounts; with observability disarmed the
/// behaviour — and the manifest — is bit-identical to before.
#[must_use]
pub fn run_campaign_on(engine: &Engine, quick: bool) -> ChaosOutcome {
    let geometry = CacheGeometry::xscale_icache();
    let (benchmarks, set) = chaos_benchmarks(quick);
    let schemes = [Scheme::WayPlacement { area_bytes: 32 * 1024 }, Scheme::WayMemoization];
    let policy = chaos_policy();

    let jobs: Vec<(usize, Benchmark, Scheme)> = benchmarks
        .iter()
        .flat_map(|&b| schemes.iter().map(move |&s| (b, s)))
        .enumerate()
        .map(|(i, (b, s))| (i, b, s))
        .collect();
    let chaos_obs = engine.obs().map(|obs| ChaosObs::new(Arc::clone(obs), jobs.len(), quick));

    let results = engine.execute(&jobs, |&(index, benchmark, scheme)| {
        let workbench = match engine.workbench(benchmark) {
            Ok(workbench) => workbench,
            Err(e) => return Err(format!("{benchmark}: workbench failed: {e}")),
        };
        let clean = match engine.measure(benchmark, geometry, scheme, set) {
            Ok(clean) => clean,
            Err(e) => return Err(format!("{benchmark}: clean measurement failed: {e}")),
        };
        // Deterministic per-job seed, independent of worker count.
        let seed = (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(0xC0A5);
        let batch: Vec<_> = CHAOS_RATES_PPM
            .iter()
            .map(|&rate| {
                let spec = FaultSpec::Hardware(FaultConfig::all(seed, rate));
                let options = MeasureOptions::new(set).with_fault(spec).with_degradation(policy);
                let trial = fault_trial_with(&workbench, geometry, scheme, options, &clean);
                (ChaosTrial { benchmark, scheme, rate_ppm: rate, trial }, clean.energy.icache_pj())
            })
            .collect();
        if let Some(chaos_obs) = &chaos_obs {
            for (trial, _) in &batch {
                chaos_obs.record_trial(index, trial);
            }
        }
        Ok(batch)
    });

    let mut trials = Vec::new();
    let mut errors = Vec::new();
    for result in results {
        match result {
            Ok(batch) => trials.extend(batch),
            Err(message) => errors.push(message),
        }
    }

    let silent = trials
        .iter()
        .filter(|(t, _)| t.trial.outcome.is_silent_corruption())
        .map(|(t, _)| format!("{} under {} at {} ppm", t.benchmark, t.scheme_key(), t.rate_ppm))
        .collect();
    let undetected = trials
        .iter()
        .filter(|(t, _)| t.is_undetected_burn())
        .map(|(t, _)| {
            format!("{} under {}: energy burn with zero detections", t.benchmark, t.scheme_key())
        })
        .collect();
    let overhead = trials
        .iter()
        .filter_map(|(t, clean_pj)| {
            let ratio = t.clean_overhead(*clean_pj)?;
            (ratio > CLEAN_OVERHEAD_LIMIT).then(|| {
                format!(
                    "{} under {}: armed clean overhead {ratio:.4} > {CLEAN_OVERHEAD_LIMIT}",
                    t.benchmark,
                    t.scheme_key(),
                )
            })
        })
        .collect();

    let outcome = ChaosOutcome { quick, geometry, trials, silent, undetected, overhead, errors };
    if let Some(chaos_obs) = &chaos_obs {
        chaos_obs.finish(&outcome);
    }
    outcome
}

/// Runs the campaign and renders the blessed manifest stamped with
/// `task_key` (the campaign DAG passes the key of its chaos node),
/// refusing to produce a baseline whose resilience invariants do not
/// hold.
///
/// # Errors
///
/// A description of the violated invariant(s).
pub fn build_chaos_baseline_with_key(
    quick: bool,
    task_key: &wp_campaign::TaskKey,
) -> Result<Json, String> {
    let outcome = run_campaign(quick);
    if outcome.failed() {
        let mut reasons = Vec::new();
        reasons.extend(outcome.silent.iter().cloned());
        reasons.extend(outcome.undetected.iter().cloned());
        reasons.extend(outcome.overhead.iter().cloned());
        reasons.extend(outcome.errors.iter().cloned());
        return Err(format!("chaos campaign invariants violated: {}", reasons.join("; ")));
    }
    Ok(outcome.manifest_with_key(task_key))
}
