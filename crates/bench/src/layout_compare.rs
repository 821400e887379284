//! The layout competition: every [`Layout`] pass linked, traced and
//! priced on every benchmark, under both way-aware schemes.
//!
//! The paper's energy win lives or dies on layout quality —
//! way-placement only saves energy for code that lands inside the WP
//! area — so this pipeline races the paper's hottest-chain-first pass
//! against the natural/random/pessimal ablation baselines and the two
//! literature passes ([`wp_linker::ExtTsp`],
//! [`wp_linker::Codestitcher`]). Per `(benchmark, layout)` it reports:
//!
//! * the static WP-area coverage of the 1 KB prefix
//!   ([`wp_linker::LinkOutput::coverage_of_prefix`], training profile);
//! * the measured fetch share the 1 KB prefix actually covered on the
//!   evaluation inputs (from the [`wp_tune::predict`] sweep);
//! * the tuned knee (smallest WP area within tolerance of the best
//!   predicted energy) and its predicted energy;
//! * measured I-cache energy under `way-placement/1KB` and under way
//!   memoization.
//!
//! The manifest (`layout_compare/v1`) keys its rows
//! `<bench>/<layout>@<scheme>` and carries the knee as a `hot_chains`
//! row labelled `knee`; it is blessed and gated byte for byte with the
//! other baseline manifests, so any drift is named by its JSON path.

use wp_core::{measure_lanes, measure_traced, MeasureOptions, Scheme};
use wp_linker::Layout;
use wp_mem::CacheGeometry;
use wp_trace::TraceRecorder;
use wp_tune::{TuneError, DEFAULT_TOLERANCE};
use wp_workloads::{Benchmark, InputSet};

use crate::engine::Engine;
use crate::{Json, FIGURE5_AREAS};

/// Schema tag the layout-compare manifest carries.
pub const LAYOUT_SCHEMA: &str = "layout_compare/v1";
/// The WP area the competition scores coverage and energy at: the
/// smallest figure-5 area, where layout quality matters most.
pub const COMPARE_AREA_BYTES: u32 = 1024;
/// Seed of the random-layout ablation entry (fixed so the manifest is
/// deterministic).
pub const RANDOM_SEED: u64 = 0xB10C;

/// The competing passes, in manifest order: the four original chain
/// sorts, then the two literature passes.
#[must_use]
pub fn compare_layouts() -> [Layout; 6] {
    [
        Layout::Natural,
        Layout::WayPlacement,
        Layout::Random(RANDOM_SEED),
        Layout::Pessimal,
        Layout::ExtTsp,
        Layout::Codestitcher,
    ]
}

/// The benchmark matrix: quick is the CI smoke shape, full covers the
/// whole suite on the evaluation inputs.
#[must_use]
pub fn layout_benchmarks(quick: bool) -> (Vec<Benchmark>, InputSet) {
    if quick {
        (vec![Benchmark::Crc], InputSet::Small)
    } else {
        (Benchmark::ALL.to_vec(), InputSet::Large)
    }
}

fn pipeline_error(tag: &str, error: &dyn std::fmt::Display) -> TuneError {
    TuneError::Measure { message: format!("{tag}: {error}") }
}

/// All manifest rows of one benchmark: for each competing layout, the
/// way-placement row (with coverage and knee columns) and the
/// way-memoization row. Deterministic for fixed inputs.
///
/// # Errors
///
/// [`TuneError::Measure`] wrapping any link/measure failure, plus
/// everything [`wp_tune::predict`] raises.
pub(crate) fn layout_runs_on(
    engine: &Engine,
    benchmark: Benchmark,
    icache: CacheGeometry,
    set: InputSet,
) -> Result<Vec<Json>, TuneError> {
    let workbench =
        engine.workbench(benchmark).map_err(|e| pipeline_error(benchmark.name(), &e))?;
    let full_area = FIGURE5_AREAS[0];
    // The measured energy at the competition area, under each layout:
    // one execution times every layout's pair of lanes.
    let wp_small = Scheme::WayPlacement { area_bytes: COMPARE_AREA_BYTES };
    let memo = Scheme::WayMemoization;
    let lanes: Vec<(CacheGeometry, Scheme, Layout)> = compare_layouts()
        .into_iter()
        .flat_map(|layout| [(icache, wp_small, layout), (icache, memo, layout)])
        .collect();
    let (measured, _) = measure_lanes(&workbench, &lanes, MeasureOptions::new(set))
        .map_err(|e| pipeline_error(benchmark.name(), &e))?;
    let mut rows = Vec::with_capacity(lanes.len());
    for (layout, pair) in compare_layouts().into_iter().zip(measured.chunks(2)) {
        let tag = format!("{}/{}", benchmark.name(), layout.label());

        // Static coverage: how much of the training profile's dynamic
        // weight the pass packed into the first KB.
        let link = workbench.link(layout, set).map_err(|e| pipeline_error(&tag, &e))?;
        let coverage_1k = link.coverage_of_prefix(workbench.profile(), COMPARE_AREA_BYTES);

        // One traced run at full coverage feeds the knee prediction
        // (the same sweep the autotuner runs, under this layout).
        let wp_full = Scheme::WayPlacement { area_bytes: full_area };
        let mut recorder = TraceRecorder::new().with_layout(link.layout_map());
        measure_traced(
            &workbench,
            icache,
            wp_full,
            MeasureOptions::new(set).with_layout(layout),
            &mut recorder,
        )
        .map_err(|e| pipeline_error(&tag, &e))?;
        let attribution = recorder.attribution().ok_or(TuneError::EmptyAttribution)?;
        let map = link.layout_map();
        let prediction =
            wp_tune::predict(&map, attribution, icache, &FIGURE5_AREAS, DEFAULT_TOLERANCE)?;
        let knee = &prediction.candidates[prediction.knee_index];
        let covered_1k = prediction
            .candidates
            .iter()
            .find(|c| c.area_bytes == COMPARE_AREA_BYTES)
            .map_or(0.0, |c| c.covered_fetch_share);

        let (wp, m) = (&pair[0], &pair[1]);
        rows.push(Json::obj([
            ("benchmark", Json::from(benchmark.name())),
            ("scheme", Json::from(format!("{}@{}", layout.label(), wp_small.label()).as_str())),
            ("layout", Json::from(layout.label())),
            ("fetches", Json::Uint(wp.run.fetch.fetches)),
            ("cycles", Json::Uint(wp.run.cycles)),
            ("icache_pj", Json::from(wp.energy.icache.total_pj())),
            ("coverage_1k", Json::from(coverage_1k)),
            ("covered_fetch_share_1k", Json::from(covered_1k)),
            ("knee_area_bytes", Json::from(knee.area_bytes)),
            ("knee_index", Json::from(prediction.knee_index)),
            ("knee_covered_share", Json::from(knee.covered_fetch_share)),
            ("knee_pj", Json::from(knee.energy_pj)),
            (
                "hot_chains",
                Json::Arr(vec![Json::obj([
                    ("label", Json::from("knee")),
                    ("fetches", Json::Uint(u64::from(knee.area_bytes))),
                    ("energy_pj", Json::from(knee.energy_pj)),
                ])]),
            ),
        ]));

        rows.push(Json::obj([
            ("benchmark", Json::from(benchmark.name())),
            ("scheme", Json::from(format!("{}@{}", layout.label(), memo.label()).as_str())),
            ("layout", Json::from(layout.label())),
            ("fetches", Json::Uint(m.run.fetch.fetches)),
            ("cycles", Json::Uint(m.run.cycles)),
            ("icache_pj", Json::from(m.energy.icache.total_pj())),
        ]));
    }
    Ok(rows)
}

/// [`layout_runs_on`] as one JSON array — the payload a campaign
/// per-benchmark layout node stores.
pub(crate) fn layout_run_payload(
    engine: &Engine,
    benchmark: Benchmark,
    icache: CacheGeometry,
    set: InputSet,
) -> Result<Json, TuneError> {
    layout_runs_on(engine, benchmark, icache, set).map(Json::Arr)
}

/// Assembles the layout-compare manifest from per-benchmark row arrays
/// (one `Json::Arr` per benchmark, in benchmark order). Split out so a
/// campaign manifest node builds byte-identical output from stored
/// payloads; `task_key` lands in provenance (display-only).
///
/// # Errors
///
/// [`TuneError::Measure`] when a payload is not an array.
pub fn layout_manifest_from_runs(
    quick: bool,
    per_benchmark: Vec<Json>,
    task_key: &wp_campaign::TaskKey,
) -> Result<Json, TuneError> {
    let icache = CacheGeometry::xscale_icache();
    let (benchmarks, set) = layout_benchmarks(quick);
    let mut runs = Vec::new();
    for payload in per_benchmark {
        match payload {
            Json::Arr(rows) => runs.extend(rows),
            other => {
                return Err(TuneError::Measure {
                    message: format!("layout payload is not an array: {}", other.to_compact()),
                })
            }
        }
    }
    Ok(Json::obj([
        ("schema", Json::from(LAYOUT_SCHEMA)),
        ("kind", Json::from("layout_compare")),
        (
            "provenance",
            Json::obj([
                ("quick", Json::from(quick)),
                ("input_set", Json::from(set.name())),
                ("geometry", Json::from(icache.to_string())),
                ("compare_area_bytes", Json::from(COMPARE_AREA_BYTES)),
                ("grid", Json::arr(FIGURE5_AREAS.iter().map(|&a| Json::from(a)))),
                ("tolerance", Json::from(DEFAULT_TOLERANCE)),
                ("layouts", Json::arr(compare_layouts().iter().map(|l| Json::from(l.label())))),
                ("benchmarks", Json::arr(benchmarks.iter().map(|b| Json::from(b.name())))),
                ("task_key", Json::from(task_key.hex().as_str())),
            ]),
        ),
        ("runs", Json::Arr(runs)),
    ]))
}

/// Builds the canonical layout-compare baseline: the whole competition
/// matrix, fanned out per benchmark on the engine pool.
/// Byte-deterministic for a fixed `quick` flag.
///
/// # Errors
///
/// The first per-benchmark failure aborts the build.
pub fn build_layout_baseline(quick: bool) -> Result<Json, TuneError> {
    let engine = Engine::global();
    let icache = CacheGeometry::xscale_icache();
    let (benchmarks, set) = layout_benchmarks(quick);
    let per_benchmark = engine
        .execute(&benchmarks, |&benchmark| layout_run_payload(engine, benchmark, icache, set))
        .into_iter()
        .collect::<Result<Vec<Json>, TuneError>>()?;
    let task_key =
        crate::campaign::keys::layout_manifest(quick, &crate::campaign::InputTags::default());
    layout_manifest_from_runs(quick, per_benchmark, &task_key)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quick competition reconciles: every layout yields both rows,
    /// coverage shares are in [0, 1], way-placement's knee columns are
    /// present, and the two builds are byte-identical.
    #[test]
    fn quick_layout_baseline_is_deterministic_and_sane() {
        let a = build_layout_baseline(true).expect("layout baseline");
        let b = build_layout_baseline(true).expect("layout baseline");
        assert_eq!(a.to_pretty(), b.to_pretty(), "non-deterministic manifest");

        let runs = a.get("runs").and_then(Json::as_array).expect("runs");
        assert_eq!(runs.len(), compare_layouts().len() * 2);
        for run in runs {
            let scheme = run.get("scheme").and_then(Json::as_str).expect("scheme");
            assert!(scheme.contains('@'), "joinable scheme key: {scheme}");
            assert!(run.get("fetches").and_then(Json::as_u64).unwrap_or(0) > 0);
            if let Some(cov) = run.get("coverage_1k").and_then(Json::as_f64) {
                assert!((0.0..=1.0).contains(&cov), "coverage {cov}");
                let knee = run.get("knee_area_bytes").and_then(Json::as_u64).expect("knee");
                assert!(FIGURE5_AREAS.contains(&(knee as u32)), "knee {knee}");
            }
        }
        // The way-placement pass must not lose to the natural layout on
        // measured 1 KB coverage for the smoke benchmark.
        let share = |layout: &str| {
            runs.iter()
                .find(|r| {
                    r.get("layout").and_then(Json::as_str) == Some(layout)
                        && r.get("coverage_1k").is_some()
                })
                .and_then(|r| r.get("covered_fetch_share_1k"))
                .and_then(Json::as_f64)
                .expect("share")
        };
        assert!(share("way-placement") >= share("natural"));
    }
}
