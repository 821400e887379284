//! Engine glue for the wp-tune autotuner: runs the traced
//! full-coverage measurement, feeds the attribution into
//! [`wp_tune::predict`], drives [`wp_tune::refine`] with real engine
//! measurements, and assembles the deterministic
//! `BENCH_tuned_areas.json` manifest body.
//!
//! Kept in `wp-bench` (not `wp-tune`) because it needs the memoised
//! [`Engine`]; `wp-tune` itself stays a pure analysis crate. The
//! manifest body is returned as a [`Json`] tree so the determinism
//! test can run the whole pipeline twice in-process and compare bytes.

use wp_core::{measure_traced, MeasureOptions, Scheme};
use wp_mem::CacheGeometry;
use wp_trace::TraceRecorder;
use wp_tune::{Prediction, Refinement, TuneError, TUNED_SCHEMA};
use wp_workloads::{Benchmark, InputSet};

use crate::engine::Engine;
use crate::Json;

/// Everything the tuner learned about one benchmark.
#[derive(Clone, Debug)]
pub struct BenchmarkTuning {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// The model sweep over the grid and its predicted knee.
    pub prediction: Prediction,
    /// The bounded measured search seeded at the predicted knee.
    pub refinement: Refinement,
    /// The area the tuner chose (the measured knee), bytes.
    pub chosen_area_bytes: u32,
    /// Predicted I-cache energy at the chosen area, pJ.
    pub predicted_pj: f64,
    /// Measured I-cache energy at the chosen area, pJ.
    pub measured_pj: f64,
}

impl BenchmarkTuning {
    /// Predicted-over-measured energy at the chosen area (idle-run
    /// [`wp_energy::ratio`] semantics) — the manifest's headline
    /// model-quality figure.
    #[must_use]
    pub fn predicted_measured_ratio(&self) -> f64 {
        wp_energy::ratio(self.predicted_pj, self.measured_pj)
    }

    /// One manifest row. `pub(crate)` so a campaign tune node can
    /// publish exactly the bytes the tuned manifest will embed.
    pub(crate) fn json(&self) -> Json {
        let chosen = self.refinement.chosen_index;
        Json::obj([
            ("benchmark", Json::from(self.benchmark.name())),
            ("chosen_area_bytes", Json::from(self.chosen_area_bytes)),
            ("chosen_index", Json::from(chosen)),
            (
                "predicted_knee_area_bytes",
                Json::from(self.prediction.candidates[self.prediction.knee_index].area_bytes),
            ),
            ("predicted_pj", Json::from(self.predicted_pj)),
            ("measured_pj", Json::from(self.measured_pj)),
            ("predicted_measured_ratio", Json::from(self.predicted_measured_ratio())),
            (
                "covered_fetch_share",
                Json::from(self.prediction.candidates[chosen].covered_fetch_share),
            ),
            (
                "prediction",
                Json::arr(self.prediction.candidates.iter().map(|c| {
                    Json::obj([
                        ("area_bytes", Json::from(c.area_bytes)),
                        ("covered_fetch_share", Json::from(c.covered_fetch_share)),
                        ("energy_pj", Json::from(c.energy_pj)),
                    ])
                })),
            ),
            (
                "search",
                Json::arr(self.refinement.steps.iter().map(|s| {
                    Json::obj([
                        ("area_bytes", Json::from(s.area_bytes)),
                        ("energy_pj", Json::from(s.energy)),
                    ])
                })),
            ),
            ("measurements", Json::from(self.refinement.steps.len())),
        ])
    }
}

fn measure_error(benchmark: Benchmark, error: &dyn std::fmt::Display) -> TuneError {
    TuneError::Measure { message: format!("{}: {error}", benchmark.name()) }
}

/// Tunes one benchmark: one traced run at full coverage (the largest
/// grid area), a model sweep over the whole grid, then the bounded
/// measured refinement.
///
/// # Errors
///
/// [`TuneError::Measure`] wrapping any engine failure, plus
/// everything [`wp_tune::predict`] / [`wp_tune::refine`] raise.
pub fn tune_benchmark(
    benchmark: Benchmark,
    icache: CacheGeometry,
    grid: &[u32],
    tolerance: f64,
    set: InputSet,
) -> Result<BenchmarkTuning, TuneError> {
    tune_benchmark_on(Engine::global(), benchmark, icache, grid, tolerance, set)
}

/// [`tune_benchmark`] on an explicit engine, so a campaign tune node
/// runs on the campaign's own pool instead of the process-global one.
pub(crate) fn tune_benchmark_on(
    engine: &Engine,
    benchmark: Benchmark,
    icache: CacheGeometry,
    grid: &[u32],
    tolerance: f64,
    set: InputSet,
) -> Result<BenchmarkTuning, TuneError> {
    let full = *grid.first().ok_or(TuneError::EmptyGrid)?;
    let workbench = engine.workbench(benchmark).map_err(|e| measure_error(benchmark, &e))?;

    // One traced run at full coverage: every chain's measured tag cost
    // is its covered cost, which is what the prediction extrapolates.
    let scheme = Scheme::WayPlacement { area_bytes: full };
    let map = workbench
        .link(scheme.layout(), set)
        .map_err(|e| measure_error(benchmark, &e))?
        .layout_map();
    let mut recorder = TraceRecorder::new().with_layout(map.clone());
    measure_traced(&workbench, icache, scheme, MeasureOptions::new(set), &mut recorder)
        .map_err(|e| measure_error(benchmark, &e))?;
    let attribution = recorder.attribution().ok_or(TuneError::EmptyAttribution)?;

    let prediction = wp_tune::predict(&map, attribution, icache, grid, tolerance)?;
    let refinement = wp_tune::refine(grid, prediction.knee_index, tolerance, |area_bytes| {
        engine
            .measure(benchmark, icache, Scheme::WayPlacement { area_bytes }, set)
            .map(|m| m.energy.icache.total_pj())
            .map_err(|e| measure_error(benchmark, &e))
    })?;

    Ok(BenchmarkTuning {
        benchmark,
        chosen_area_bytes: grid[refinement.chosen_index],
        predicted_pj: prediction.candidates[refinement.chosen_index].energy_pj,
        measured_pj: refinement.chosen_energy,
        prediction,
        refinement,
    })
}

/// Tunes a set of benchmarks and assembles the
/// `BENCH_tuned_areas.json` manifest body, `quick` naming the CI smoke
/// shape. Fully deterministic: two calls with the same inputs render
/// byte-identical text, and on a campaign shape
/// ([`crate::baseline::tuned_benchmarks`]) the bytes the campaign's
/// tuned-areas node publishes.
///
/// # Errors
///
/// The first per-benchmark failure aborts the suite (tuning is cheap
/// and its output gates CI, so partial manifests are worth less than a
/// loud failure).
pub fn tune_suite(
    benchmarks: &[Benchmark],
    icache: CacheGeometry,
    grid: &[u32],
    tolerance: f64,
    set: InputSet,
    quick: bool,
) -> Result<(Vec<BenchmarkTuning>, Json), TuneError> {
    let tunings = benchmarks
        .iter()
        .map(|&benchmark| tune_benchmark(benchmark, icache, grid, tolerance, set))
        .collect::<Result<Vec<BenchmarkTuning>, TuneError>>()?;
    let task_key = crate::campaign::keys::tuned_manifest(
        benchmarks,
        icache,
        grid,
        tolerance,
        set,
        &crate::campaign::InputTags::default(),
    );
    let rows = tunings.iter().map(BenchmarkTuning::json).collect();
    let manifest = tuned_manifest_from(rows, icache, grid, tolerance, set, quick, &task_key);
    Ok((tunings, manifest))
}

/// Assembles the `tuned_areas/v1` manifest body from already-rendered
/// per-benchmark tuning rows. Split from [`tune_suite`] so a campaign
/// manifest node builds byte-identical output from stored tune
/// payloads; `task_key` lands in a provenance block (`fig5 --areas`
/// ignores it) and `quick` in a trailing field.
#[must_use]
pub fn tuned_manifest_from(
    rows: Vec<Json>,
    icache: CacheGeometry,
    grid: &[u32],
    tolerance: f64,
    set: InputSet,
    quick: bool,
    task_key: &wp_campaign::TaskKey,
) -> Json {
    Json::obj([
        ("schema", Json::from(TUNED_SCHEMA)),
        ("tolerance", Json::from(tolerance)),
        ("geometry", Json::from(icache.to_string())),
        ("input_set", Json::from(set.name())),
        ("grid", Json::arr(grid.iter().map(|&a| Json::from(a)))),
        ("benchmarks", Json::Arr(rows)),
        ("provenance", Json::obj([("task_key", Json::from(task_key.hex().as_str()))])),
        ("quick", Json::from(quick)),
    ])
}
