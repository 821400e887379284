//! The three workloads and their untraced passes.
//!
//! A pass is one fresh single-worker engine: set-up (every benchmark's
//! `Engine::workbench`) followed by the measured phase, which goes
//! through the same public calls the figure binaries make, one timed
//! call per benchmark. The reference kernel is timed between those
//! calls, so that the pass's host time can be divided by the host
//! speed while it ran.

use std::time::Instant;

use wp_bench::chaos::{chaos_policy, ChaosTrial, CHAOS_RATES_PPM, CLEAN_OVERHEAD_LIMIT};
use wp_bench::{figure6_geometries, Engine, Experiment};
use wp_core::wp_energy::EnergyReport;
use wp_core::wp_mem::{CacheGeometry, FaultConfig};
use wp_core::wp_sim::RunResult;
use wp_core::wp_workloads::{Benchmark, InputSet};
use wp_core::{fault_trial_with, FaultOutcome, FaultSpec, FaultTrial, MeasureOptions, Scheme};

use crate::reference::{self, Reference};

/// Which experiment a run measures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Fig4,
    Grid,
    Faults,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "fig4" => Some(Kind::Fig4),
            "grid" => Some(Kind::Grid),
            "faults" => Some(Kind::Faults),
            _ => None,
        }
    }
}

/// The knee bands of `baselines/BENCH_tuned_areas.json` at the commit
/// that defined this benchmark (1 KB; 2-8 KB; 16 KB). Copied here so
/// that a later re-tune cannot silently change the `grid` workload.
const KNEE_BANDS: [&[&str]; 3] = [
    &[
        "bitcount",
        "susan_c",
        "susan_e",
        "susan_s",
        "tiff2bw",
        "tiff2rgba",
        "tiffdither",
        "patricia",
        "ispell",
        "rsynth",
        "rawcaudio",
        "rawdaudio",
        "crc",
    ],
    &["cjpeg", "djpeg", "tiffmedian", "sha", "blowfish_d", "blowfish_e", "fft", "fft_i"],
    &["rijndael_d", "rijndael_e"],
];

/// SplitMix64's output function: the benchmark's own generator, so
/// that the generated job list does not depend on the program's PRNG.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The generated job list of one workload: the only thing the program
/// sees of the seeds.
#[derive(Clone, Debug)]
pub struct Plan {
    pub kind: Kind,
    pub benchmarks: Vec<Benchmark>,
    pub geometries: Vec<CacheGeometry>,
    pub schemes: Vec<Scheme>,
    pub set: InputSet,
    /// Per `(benchmark, scheme)` pair of `faults`, in job order: the
    /// fault seed of its trials.
    pub fault_seeds: Vec<u64>,
}

impl Plan {
    /// Builds the job list. `seed` seeds the fault trials of `faults`;
    /// `draw_seed` draws `grid`'s benchmarks, one per knee band.
    pub fn new(kind: Kind, seed: u64, draw_seed: u64) -> Result<Plan, String> {
        let xscale = vec![CacheGeometry::xscale_icache()];
        let wp32 = Scheme::WayPlacement { area_bytes: 32 * 1024 };
        let plan = match kind {
            Kind::Fig4 => Plan {
                kind,
                benchmarks: Benchmark::ALL.to_vec(),
                geometries: xscale,
                schemes: vec![Scheme::WayMemoization, wp32],
                set: InputSet::Large,
                fault_seeds: Vec::new(),
            },
            Kind::Grid => {
                let benchmarks = KNEE_BANDS
                    .iter()
                    .enumerate()
                    .map(|(band, names)| {
                        let pick = mix(draw_seed ^ mix(band as u64)) % names.len() as u64;
                        let name = names[pick as usize];
                        Benchmark::by_name(name).ok_or(format!("unknown benchmark `{name}`"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Plan {
                    kind,
                    benchmarks,
                    geometries: figure6_geometries(),
                    schemes: vec![
                        Scheme::WayMemoization,
                        Scheme::WayPlacement { area_bytes: 8 * 1024 },
                        Scheme::WayPlacement { area_bytes: 2 * 1024 },
                    ],
                    set: InputSet::Large,
                    fault_seeds: Vec::new(),
                }
            }
            Kind::Faults => {
                let schemes = vec![wp32, Scheme::WayMemoization];
                let pairs = (Benchmark::ALL.len() * schemes.len()) as u64;
                Plan {
                    kind,
                    benchmarks: Benchmark::ALL.to_vec(),
                    geometries: xscale,
                    schemes,
                    set: InputSet::Small,
                    fault_seeds: (0..pairs).map(|i| mix(seed ^ mix(i))).collect(),
                }
            }
        };
        Ok(plan)
    }

    pub fn geometry(&self) -> CacheGeometry {
        self.geometries[0]
    }

    /// Passes every untraced run makes at least, so that its medians
    /// are taken over several passes. `grid` makes more: its three
    /// timed calls of 2-4 s each let the reference kernel see little
    /// of a pass, and its passes are the shortest.
    pub fn min_passes(&self) -> usize {
        match self.kind {
            Kind::Grid => 4,
            Kind::Fig4 | Kind::Faults => 3,
        }
    }

    /// The fault seeds of benchmark `index`'s pairs, one per scheme
    /// (empty outside `faults`).
    pub fn seeds(&self, index: usize) -> &[u64] {
        let n = self.schemes.len();
        self.fault_seeds.get(index * n..(index + 1) * n).unwrap_or(&[])
    }
}

/// One operation's result, flattened to bits so that two runs can be
/// compared exactly.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JobResult {
    pub label: String,
    pub bits: Vec<u64>,
}

/// The exact fields of a clean measurement: counters and priced
/// energy.
pub fn measurement_bits(run: &RunResult, energy: &EnergyReport) -> Vec<u64> {
    vec![
        run.instructions,
        run.cycles,
        run.checksum,
        run.fetch.fetches,
        run.fetch.tag_comparisons,
        run.fetch.misses,
        energy.icache_pj().to_bits(),
        energy.total_pj().to_bits(),
    ]
}

/// The exact fields of a fault trial.
pub fn trial_bits(trial: &FaultTrial) -> Vec<u64> {
    let (cycle_ratio, energy_ratio, injected) = match trial.outcome {
        FaultOutcome::Graceful { cycle_ratio, energy_ratio, faults_injected } => {
            (cycle_ratio.to_bits(), energy_ratio.to_bits(), faults_injected)
        }
        FaultOutcome::Detected { .. } => (1, 0, 0),
        FaultOutcome::SilentCorruption { .. } => (2, 0, 0),
    };
    vec![
        cycle_ratio,
        energy_ratio,
        injected,
        trial.fetches,
        trial.icache_pj.to_bits(),
        trial.recovery_pj.to_bits(),
        trial.detection.total_detected(),
        trial.demotions,
        trial.promotions,
    ]
}

/// Checks one fault trial against the chaos campaign's invariants.
/// Returns a description of the violation, if any.
pub fn trial_violation(chaos: &ChaosTrial, clean_icache_pj: f64) -> Option<String> {
    let what = format!("{} under {}", chaos.benchmark, chaos.scheme_key());
    match &chaos.trial.outcome {
        FaultOutcome::SilentCorruption { .. } => Some(format!("{what}: silent corruption")),
        FaultOutcome::Detected { error } => Some(format!("{what}: typed error: {error}")),
        FaultOutcome::Graceful { .. } if chaos.is_undetected_burn() => {
            Some(format!("{what}: energy burn with zero detections"))
        }
        FaultOutcome::Graceful { .. } => chaos
            .clean_overhead(clean_icache_pj)
            .filter(|&ratio| ratio > CLEAN_OVERHEAD_LIMIT)
            .map(|ratio| {
                format!("{what}: armed clean overhead {ratio:.4} > {CLEAN_OVERHEAD_LIMIT}")
            }),
    }
}

/// One rung of the armed fault ladder for a `(benchmark, scheme)`
/// pair, classified against its unarmed clean twin.
pub fn trial(
    workbench: &wp_core::Workbench,
    plan: &Plan,
    scheme: Scheme,
    seed: u64,
    rate_ppm: u32,
    clean: &wp_core::Measurement,
) -> ChaosTrial {
    let spec = FaultSpec::Hardware(FaultConfig::all(seed, rate_ppm));
    let options = MeasureOptions::new(plan.set).with_fault(spec).with_degradation(chaos_policy());
    let trial = fault_trial_with(workbench, plan.geometry(), scheme, options, clean);
    ChaosTrial { benchmark: workbench.benchmark(), scheme, rate_ppm, trial }
}

/// Everything one untraced pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    pub setup_s: f64,
    /// Raw host seconds of the measured phase: the sum of its timed
    /// calls, without the reference samples between them.
    pub measured_s: f64,
    /// The reference kernel's time before the first call and after
    /// each call.
    pub references: Vec<f64>,
    /// Host seconds spent timing the reference kernel.
    pub sampling_s: f64,
    /// Guest instructions simulated in the measured phase.
    pub insns: u64,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub results: Vec<JobResult>,
    /// Mean I-cache energy (%) of the way-placement jobs against their
    /// reference, and their mean ED product.
    pub energy_pct: f64,
    pub ed: f64,
}

impl Pass {
    /// The median reference sample: the pass's host speed.
    pub fn reference_s(&self) -> f64 {
        let mut samples = self.references.clone();
        samples.sort_by(f64::total_cmp);
        samples.get(samples.len() / 2).copied().unwrap_or(f64::NAN)
    }

    /// The measured phase in reference seconds: host seconds on a host
    /// whose reference kernel runs in [`reference::NOMINAL_S`].
    pub fn normalised_s(&self) -> f64 {
        self.measured_s / self.reference_s() * reference::NOMINAL_S
    }
}

/// Runs one untraced pass on a fresh single-worker engine, which is
/// returned with its workbenches built.
pub fn pass(plan: &Plan, reference: &mut Reference) -> (Pass, Engine) {
    let engine = Engine::with_workers(1);
    let mut pass = Pass::default();
    let started = Instant::now();
    for &benchmark in &plan.benchmarks {
        if let Err(e) = engine.workbench(benchmark) {
            pass.failures.push(format!("{benchmark}: workbench: {e}"));
        }
    }
    pass.setup_s = started.elapsed().as_secs_f64();
    let mut wp = Vec::new();
    let mut sample = |pass: &mut Pass| {
        let started = Instant::now();
        pass.references.push(reference.sample());
        pass.sampling_s += started.elapsed().as_secs_f64();
    };
    sample(&mut pass);
    let mut timed = |pass: &mut Pass, f: &mut dyn FnMut(&mut Pass)| {
        let started = Instant::now();
        f(pass);
        pass.measured_s += started.elapsed().as_secs_f64();
        sample(pass);
    };
    match plan.kind {
        Kind::Fig4 | Kind::Grid => {
            for &benchmark in &plan.benchmarks {
                let experiment =
                    Experiment::new([benchmark], plan.geometries.clone(), plan.schemes.clone())
                        .with_input_set(plan.set);
                let mut report = None;
                timed(&mut pass, &mut |_| report = Some(engine.run(&experiment)));
                let Some(report) = report else { continue };
                record_suite(&engine, plan, benchmark, &report, &mut pass, &mut wp);
            }
        }
        Kind::Faults => {
            for (index, &benchmark) in plan.benchmarks.iter().enumerate() {
                timed(&mut pass, &mut |pass| {
                    for (&scheme, &seed) in plan.schemes.iter().zip(plan.seeds(index)) {
                        faults_pair(&engine, plan, benchmark, scheme, seed, pass, &mut wp);
                    }
                });
            }
        }
    }
    let n = wp.len().max(1) as f64;
    pass.energy_pct = 100.0 * wp.iter().map(|(e, _)| e).sum::<f64>() / n;
    pass.ed = wp.iter().map(|(_, d)| d).sum::<f64>() / n;
    (pass, engine)
}

/// Accounts one benchmark's `Engine::run` report: failures, the
/// architecture checks across its schemes and geometries, and the
/// exact per-job results. Baselines are read back from the engine's
/// cache, so no simulation happens here.
fn record_suite(
    engine: &Engine,
    plan: &Plan,
    benchmark: Benchmark,
    report: &wp_bench::SuiteReport,
    pass: &mut Pass,
    wp: &mut Vec<(f64, f64)>,
) {
    pass.attempted += (report.experiment.job_count() + plan.geometries.len()) as u64;
    pass.failures.extend(report.failures.iter().map(ToString::to_string));
    let mut architecture: Option<(u64, u64)> = None;
    let mut check = |pass: &mut Pass, what: &str, insns: u64, checksum: Option<u64>| {
        let (expected_insns, expected_sum) =
            *architecture.get_or_insert((insns, checksum.unwrap_or(0)));
        if insns != expected_insns || checksum.is_some_and(|c| c != expected_sum) {
            pass.failures
                .push(format!("{benchmark} {what}: architecture differs across configurations"));
        }
    };
    for &geometry in &plan.geometries {
        match engine.baseline(benchmark, geometry, plan.set) {
            Ok(base) => {
                check(pass, "baseline", base.run.instructions, Some(base.run.checksum));
                pass.insns += base.run.instructions;
                pass.results.push(JobResult {
                    label: format!("{benchmark}/{geometry}/baseline"),
                    bits: measurement_bits(&base.run, &base.energy),
                });
            }
            Err(e) => pass.failures.push(format!("{benchmark} baseline on {geometry}: {e}")),
        }
    }
    for row in &report.rows {
        check(pass, &row.label, row.instructions, None);
        pass.insns += row.instructions;
        if matches!(row.scheme, Scheme::WayPlacement { .. }) {
            wp.push((row.energy, row.ed));
        }
        pass.results.push(JobResult {
            label: format!("{benchmark}/{}/{}", row.geometry, row.label),
            bits: vec![
                row.instructions,
                row.cycles,
                row.fetches,
                row.energy.to_bits(),
                row.ed.to_bits(),
            ],
        });
    }
}

/// One `(benchmark, scheme)` pair of `faults`: the unarmed clean twin
/// through `Engine::measure`, then the armed ladder.
fn faults_pair(
    engine: &Engine,
    plan: &Plan,
    benchmark: Benchmark,
    scheme: Scheme,
    seed: u64,
    pass: &mut Pass,
    wp: &mut Vec<(f64, f64)>,
) {
    pass.attempted += 1 + CHAOS_RATES_PPM.len() as u64;
    let label = format!("{benchmark}/{}", scheme.label());
    let (workbench, clean) = match engine
        .workbench(benchmark)
        .and_then(|w| engine.measure(benchmark, plan.geometry(), scheme, plan.set).map(|c| (w, c)))
    {
        Ok(pair) => pair,
        Err(e) => {
            pass.failures.push(format!("{label}: clean twin: {e}"));
            return;
        }
    };
    pass.insns += clean.run.instructions;
    pass.results.push(JobResult {
        label: format!("{label}/clean"),
        bits: measurement_bits(&clean.run, &clean.energy),
    });
    let clean_pj = clean.energy.icache_pj();
    for rate in CHAOS_RATES_PPM {
        let chaos = trial(&workbench, plan, scheme, seed, rate, &clean);
        if let Some(violation) = trial_violation(&chaos, clean_pj) {
            pass.failures.push(violation);
        }
        if let FaultOutcome::Graceful { cycle_ratio, .. } = chaos.trial.outcome {
            // Faults never change architecture (the trial verified the
            // checksum), so a graceful trial committed its clean twin's
            // instructions.
            pass.insns += clean.run.instructions;
            if matches!(scheme, Scheme::WayPlacement { .. }) {
                let energy = (chaos.trial.icache_pj + chaos.trial.recovery_pj) / clean_pj;
                wp.push((energy, energy * cycle_ratio));
            }
        }
        pass.results.push(JobResult {
            label: format!("{label}@{}ppm", chaos.rate_ppm),
            bits: trial_bits(&chaos.trial),
        });
    }
}
