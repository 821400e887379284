//! Stored-baseline blessing and gating.
//!
//! The reproduction's central artefacts — the traced-run report, the
//! autotuned WP-area manifest, the chaos-campaign resilience manifest
//! and the obs-report reconciliation manifest — must stay stable as
//! the simulator grows: silent drift in
//! any scheme's counters invalidates every number the paper comparison
//! rests on. This module freezes them:
//!
//! * [`bless`] runs the trace-report and tuned-areas pipelines and
//!   writes **canonical** manifests (deterministic: no wall-clock
//!   fields, no environment-dependent paths, with a provenance header
//!   recording grid/tolerance/input set) into a baselines directory
//!   that is committed to the repository;
//! * [`gate`] re-runs the same pipelines into a scratch directory and
//!   drives [`wp_tune::diff`] against the blessed copies, flagging any
//!   fetch/energy shift past the gates and any structural mismatch
//!   (missing run, changed grid, renamed chain).
//!
//! The `bless` and `gate` binaries are thin wrappers; the library
//! entry points keep the whole round trip testable in-process, where
//! the engine's memoised workbenches make a quick bless/gate cycle
//! cheap.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use wp_campaign::{Store, TaskKey};
use wp_core::{measure_traced, MeasureOptions, Scheme};
use wp_energy::CacheEnergyModel;
use wp_mem::{CacheGeometry, FetchStats};
use wp_obs::Obs;
use wp_trace::{ChainAttribution, TraceRecorder};
use wp_tune::{DiffThresholds, TraceDiff, TraceSet, TuneError, DEFAULT_TOLERANCE};
use wp_workloads::{Benchmark, InputSet};

use crate::autotune::tune_suite;
use crate::engine::Engine;
use crate::{Json, FIGURE5_AREAS};

/// Schema tag the blessed trace-report baseline carries.
pub const BASELINE_SCHEMA: &str = "baseline/v1";
/// The default committed baselines directory, relative to the repo
/// root (where CI runs).
pub const DEFAULT_BASELINE_DIR: &str = "baselines";
/// The **byte-deterministic** manifests a baseline set consists of, in
/// bless/gate order. Two bless runs over the same tree produce these
/// byte-identically.
pub const BASELINE_FILES: [&str; 5] = [
    "BENCH_trace_report.json",
    "BENCH_tuned_areas.json",
    "BENCH_chaos_campaign.json",
    "BENCH_obs_report.json",
    "BENCH_layout_compare.json",
];
/// Hottest chains recorded per traced run (mirrors `trace_report`).
pub const TOP_K: usize = 5;
/// Relative tolerance when reconciling per-chain picojoule sums.
const ENERGY_REL_TOL: f64 = 1e-6;

/// The traced-run matrix of the trace-report pipeline: quick is the
/// CI smoke shape (one benchmark, small inputs), full is the shape
/// `trace_report` publishes.
#[must_use]
pub fn trace_benchmarks(quick: bool) -> (&'static [Benchmark], InputSet) {
    if quick {
        (&[Benchmark::Crc], InputSet::Small)
    } else {
        (&[Benchmark::Crc, Benchmark::Sha, Benchmark::Bitcount], InputSet::Large)
    }
}

/// The benchmark set of the tuned-areas pipeline: quick tunes the CI
/// smoke benchmark, full tunes the whole 23-benchmark suite so the
/// blessed `BENCH_tuned_areas.json` covers every figure-5 curve.
#[must_use]
pub fn tuned_benchmarks(quick: bool) -> (Vec<Benchmark>, InputSet) {
    if quick {
        (vec![Benchmark::Crc], InputSet::Small)
    } else {
        (Benchmark::ALL.to_vec(), InputSet::Large)
    }
}

fn pipeline_error(context: &str, error: &dyn std::fmt::Display) -> TuneError {
    TuneError::Measure { message: format!("{context}: {error}") }
}

/// Renders the hottest `top_k` chains of an attribution as manifest
/// rows (shared with the `trace_report` binary, so blessed baselines
/// and published reports agree on what a hot-chain record is).
#[must_use]
pub fn hot_chains_json(
    attribution: &ChainAttribution,
    model: &CacheEnergyModel,
    top_k: usize,
) -> Vec<Json> {
    let total_fetches = attribution.total().fetches.max(1);
    attribution
        .ranked()
        .into_iter()
        .take(top_k)
        .map(|id| {
            let row = &attribution.rows()[id as usize];
            let info = &attribution.map().chains()[id as usize];
            let energy_pj = model.fetch_energy(&FetchStats::from(&row.to_counters())).total_pj();
            Json::obj([
                ("chain", Json::from(id)),
                ("label", Json::from(info.label.as_str())),
                ("weight", Json::Uint(info.weight)),
                ("insns", Json::from(info.insns)),
                ("fetches", Json::Uint(row.fetches)),
                ("fetch_share", Json::from(row.fetches as f64 / total_fetches as f64)),
                (
                    "tags_per_fetch",
                    Json::from(row.tag_comparisons as f64 / row.fetches.max(1) as f64),
                ),
                ("energy_pj", Json::from(energy_pj)),
            ])
        })
        .collect()
}

/// One canonical traced run: everything `trace_report` derives that is
/// deterministic (counters, energies, hot chains), nothing that is not
/// (wall-clock spans, sink overhead, ring/interval bookkeeping).
/// Reconciliation failures are hard errors — a baseline whose chain
/// sums disagree with the hardware counters must never be blessed.
fn canonical_run(
    benchmark: Benchmark,
    icache: CacheGeometry,
    scheme: Scheme,
    set: InputSet,
) -> Result<Json, TuneError> {
    canonical_run_on(Engine::global(), benchmark, icache, scheme, set)
}

/// [`canonical_run`] on an explicit engine, so a campaign trace-run
/// node executes on the campaign's own pool (with its retry policy and
/// armed [`wp_obs::Obs`]) instead of the process-global engine.
pub(crate) fn canonical_run_on(
    engine: &Engine,
    benchmark: Benchmark,
    icache: CacheGeometry,
    scheme: Scheme,
    set: InputSet,
) -> Result<Json, TuneError> {
    let tag = format!("{}/{}", benchmark.name(), scheme.label());
    let workbench = engine.workbench(benchmark).map_err(|e| pipeline_error(&tag, &e))?;
    let map = workbench
        .link(scheme.layout(), set)
        .map_err(|e| pipeline_error(&tag, &e))?
        .layout_map();
    let mut recorder = TraceRecorder::new().with_layout(map);
    let (m, _) =
        measure_traced(&workbench, icache, scheme, MeasureOptions::new(set), &mut recorder)
            .map_err(|e| pipeline_error(&tag, &e))?;
    let attribution = recorder
        .attribution()
        .ok_or_else(|| pipeline_error(&tag, &"recorder has no layout"))?;

    let total = attribution.total();
    let aggregate = m.run.fetch;
    if total.fetches != aggregate.fetches
        || total.tag_comparisons != aggregate.tag_comparisons
        || attribution.unattributed().fetches != 0
    {
        return Err(pipeline_error(&tag, &"attribution does not reconcile with counters"));
    }
    let mem = scheme.memory_config(icache);
    let model = CacheEnergyModel::for_scheme(icache, mem.icache.scheme);
    let chain_pj: f64 = attribution
        .rows()
        .iter()
        .chain(std::iter::once(attribution.unattributed()))
        .map(|row| model.fetch_energy(&FetchStats::from(&row.to_counters())).total_pj())
        .sum();
    let aggregate_pj = m.energy.icache.total_pj();
    if (chain_pj - aggregate_pj).abs() > ENERGY_REL_TOL * aggregate_pj.max(1.0) {
        return Err(pipeline_error(&tag, &"per-chain energies do not sum to the aggregate"));
    }

    Ok(Json::obj([
        ("benchmark", Json::from(benchmark.name())),
        ("scheme", Json::from(scheme.label().as_str())),
        ("fetches", Json::Uint(aggregate.fetches)),
        ("cycles", Json::Uint(m.run.cycles)),
        ("icache_pj", Json::from(aggregate_pj)),
        ("chains", Json::from(attribution.rows().len())),
        ("hot_chains", Json::Arr(hot_chains_json(attribution, &model, TOP_K))),
    ]))
}

pub(crate) fn input_set_name(set: InputSet) -> &'static str {
    match set {
        InputSet::Small => "small",
        InputSet::Large => "large",
    }
}

/// The two way-aware schemes every trace-report run covers, in manifest
/// order. Shared with the campaign planner so its per-run task keys
/// describe exactly the runs [`build_trace_baseline`] performs.
#[must_use]
pub fn trace_schemes() -> [Scheme; 2] {
    [Scheme::WayPlacement { area_bytes: 32 * 1024 }, Scheme::WayMemoization]
}

/// Assembles the trace-report baseline manifest from already-rendered
/// canonical run objects. Split from [`build_trace_baseline`] so a
/// campaign manifest node can build byte-identical output from stored
/// run payloads without re-simulating; `task_key` lands in the
/// provenance block (display-only — the diff gate never joins on it).
#[must_use]
pub fn trace_manifest_from_runs(quick: bool, runs: Vec<Json>, task_key: &TaskKey) -> Json {
    let icache = CacheGeometry::xscale_icache();
    let (benchmarks, set) = trace_benchmarks(quick);
    let schemes = trace_schemes();
    Json::obj([
        ("schema", Json::from(BASELINE_SCHEMA)),
        ("kind", Json::from("trace_report")),
        (
            "provenance",
            Json::obj([
                ("quick", Json::from(quick)),
                ("input_set", Json::from(input_set_name(set))),
                ("geometry", Json::from(icache.to_string())),
                ("schemes", Json::arr(schemes.iter().map(|s| Json::from(s.label().as_str())))),
                ("benchmarks", Json::arr(benchmarks.iter().map(|b| Json::from(b.name())))),
                ("hot_chains", Json::from(TOP_K)),
                ("task_key", Json::from(task_key.hex().as_str())),
            ]),
        ),
        ("runs", Json::Arr(runs)),
    ])
}

/// Builds the canonical trace-report baseline: both way-aware schemes
/// over the trace-report benchmark matrix, counters and per-chain
/// energies only. Byte-deterministic for a fixed `quick` flag.
///
/// # Errors
///
/// [`TuneError::Measure`] wrapping any pipeline failure or
/// reconciliation mismatch.
pub fn build_trace_baseline(quick: bool) -> Result<Json, TuneError> {
    let icache = CacheGeometry::xscale_icache();
    let (benchmarks, set) = trace_benchmarks(quick);
    let schemes = trace_schemes();
    let mut runs = Vec::with_capacity(benchmarks.len() * schemes.len());
    for &benchmark in benchmarks {
        for &scheme in &schemes {
            runs.push(canonical_run(benchmark, icache, scheme, set)?);
        }
    }
    let task_key =
        crate::campaign::keys::trace_manifest(quick, &crate::campaign::InputTags::default());
    Ok(trace_manifest_from_runs(quick, runs, &task_key))
}

/// Builds the canonical tuned-areas baseline: [`tune_suite`] over the
/// figure-5 grid — the whole 23-benchmark suite in full mode — with a
/// `quick` provenance marker. The `tuned_areas/v1` schema already
/// records grid, tolerance, geometry and input set, so the blessed
/// copy stays directly consumable by `fig5 --areas`.
///
/// # Errors
///
/// Everything [`tune_suite`] raises.
pub fn build_tuned_baseline(quick: bool) -> Result<Json, TuneError> {
    let (benchmarks, set) = tuned_benchmarks(quick);
    let icache = CacheGeometry::xscale_icache();
    let (_, mut manifest) =
        tune_suite(&benchmarks, icache, &FIGURE5_AREAS, DEFAULT_TOLERANCE, set)?;
    manifest.push("quick", Json::from(quick));
    Ok(manifest)
}

/// Runs the five baseline pipelines and writes [`BASELINE_FILES`] into
/// `dir` (created if missing), returning the written paths in that
/// order.
///
/// # Errors
///
/// [`TuneError::Io`] on write failure, plus any pipeline failure —
/// including the chaos campaign, which refuses to bless a tree whose
/// resilience invariants fail, and the obs_report pipeline, which
/// refuses to bless a tree whose metrics do not reconcile with ground
/// truth.
pub fn bless(dir: &Path, quick: bool) -> Result<Vec<PathBuf>, TuneError> {
    let trace = build_trace_baseline(quick)?;
    let tuned = build_tuned_baseline(quick)?;
    let chaos = crate::chaos::build_chaos_baseline(quick)
        .map_err(|message| pipeline_error("chaos_campaign", &message))?;
    let obs = crate::obs::build_obs_baseline(quick)
        .map_err(|message| pipeline_error("obs_report", &message))?;
    let layout = crate::layout_compare::build_layout_baseline(quick)?;
    std::fs::create_dir_all(dir).map_err(|e| TuneError::io(dir, &e))?;
    let mut paths = Vec::with_capacity(BASELINE_FILES.len());
    let manifests = [&trace, &tuned, &chaos, &obs, &layout];
    for (name, manifest) in BASELINE_FILES.into_iter().zip(manifests) {
        let path = dir.join(name);
        std::fs::write(&path, manifest.to_pretty()).map_err(|e| TuneError::io(&path, &e))?;
        paths.push(path);
    }
    Ok(paths)
}

/// The outcome of gating a fresh re-run against a blessed baseline
/// set: one [`TraceDiff`] per baseline manifest.
#[derive(Clone, Debug)]
pub struct GateReport {
    /// The blessed (baseline) directory.
    pub blessed_dir: PathBuf,
    /// The scratch directory the fresh manifests were written to.
    pub fresh_dir: PathBuf,
    /// Per-manifest comparisons, [`BASELINE_FILES`] in order.
    pub diffs: Vec<(String, TraceDiff)>,
}

impl GateReport {
    /// Total regression flags across every manifest.
    #[must_use]
    pub fn regressions(&self) -> usize {
        self.diffs.iter().map(|(_, diff)| diff.regressions()).sum()
    }

    /// `true` when nothing flagged.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.regressions() == 0
    }

    /// The process exit code CI gates on: 0 clean, 1 regression.
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.is_clean())
    }

    /// Renders the `BENCH_gate.json` manifest body.
    #[must_use]
    pub fn json(&self) -> Json {
        Json::obj([
            ("schema", Json::from("gate/v1")),
            ("blessed_dir", Json::from(self.blessed_dir.display().to_string().as_str())),
            (
                "manifests",
                Json::arr(self.diffs.iter().map(|(name, diff)| {
                    Json::obj([
                        ("file", Json::from(name.as_str())),
                        ("regressions", Json::from(diff.regressions())),
                        ("diff", diff.json()),
                    ])
                })),
            ),
            ("regressions", Json::from(self.regressions())),
            ("ok", Json::from(self.is_clean())),
        ])
    }
}

/// Re-runs every baseline pipeline into `fresh_dir` (through [`bless`])
/// and diffs every blessed manifest in `blessed_dir` against its fresh
/// counterpart. The caller owns both directories (and the decision to
/// delete the scratch one).
///
/// # Errors
///
/// [`TuneError::Io`] / [`TuneError::Json`] / [`TuneError::Malformed`]
/// when a blessed manifest is missing or unreadable, plus any pipeline
/// failure during the re-run. Regressions are *not* errors — they are
/// reported through [`GateReport::regressions`].
pub fn gate(
    blessed_dir: &Path,
    fresh_dir: &Path,
    quick: bool,
    thresholds: DiffThresholds,
) -> Result<GateReport, TuneError> {
    bless(fresh_dir, quick)?;
    diff_baselines(blessed_dir, fresh_dir, thresholds, |name| TraceSet::load(&fresh_dir.join(name)))
}

/// [`gate`] with the fresh side produced through the campaign store
/// instead of a temp-dir re-simulation: the five baseline pipelines run
/// as a content-addressed DAG rooted at `store`, so a warm store (e.g.
/// right after a clean bless through the campaign) serves every
/// manifest as a pure hit and the gate costs seconds, while a cold
/// store computes exactly what [`gate`] would have. The diffed bytes
/// are identical either way.
///
/// # Errors
///
/// Blessed-manifest load failures, plus any pipeline failure inside the
/// campaign run (reported with the failing node labels). Regressions
/// are *not* errors.
pub fn gate_via_store(
    blessed_dir: &Path,
    store: &Store,
    quick: bool,
    thresholds: DiffThresholds,
    obs: Option<&Arc<Obs>>,
) -> Result<GateReport, TuneError> {
    use crate::campaign::{self, Group};

    let config = campaign::CampaignConfig::new(quick, Group::BASELINE.to_vec());
    let run = campaign::run(&config, store, obs);
    if !run.report.ok() {
        let failures: Vec<String> = run
            .report
            .failures()
            .iter()
            .map(|(label, error)| format!("{label}: {error}"))
            .collect();
        return Err(TuneError::Measure {
            message: format!("campaign pipelines failed: {}", failures.join("; ")),
        });
    }

    diff_baselines(blessed_dir, store.root(), thresholds, |name| {
        let stem = name.trim_start_matches("BENCH_").trim_end_matches(".json");
        let (_, bytes) = run
            .manifests()
            .iter()
            .find(|(group, _)| group.manifest_name() == stem)
            .ok_or_else(|| TuneError::Measure {
                message: format!("campaign produced no payload for {name}"),
            })?;
        let text = std::str::from_utf8(bytes).map_err(|e| TuneError::Measure {
            message: format!("{name}: stored payload is not UTF-8: {e}"),
        })?;
        TraceSet::parse(text, &format!("store:{name}"), stem)
    })
}

/// The one diff loop behind [`gate`] and [`gate_via_store`], which
/// differ only in where the fresh manifests come from: each of
/// [`BASELINE_FILES`] in `blessed_dir` against the copy `fresh` loads
/// for that file name. `fresh_dir` names the fresh side in the report.
fn diff_baselines(
    blessed_dir: &Path,
    fresh_dir: &Path,
    thresholds: DiffThresholds,
    mut fresh: impl FnMut(&str) -> Result<TraceSet, TuneError>,
) -> Result<GateReport, TuneError> {
    let mut diffs = Vec::with_capacity(BASELINE_FILES.len());
    for name in BASELINE_FILES {
        let blessed = TraceSet::load(&blessed_dir.join(name))?;
        diffs.push((name.to_string(), TraceDiff::compute(&blessed, &fresh(name)?, thresholds)));
    }
    Ok(GateReport {
        blessed_dir: blessed_dir.to_path_buf(),
        fresh_dir: fresh_dir.to_path_buf(),
        diffs,
    })
}
