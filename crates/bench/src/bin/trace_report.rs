//! `trace_report` — end-to-end telemetry over the simulator stack.
//!
//! Runs a set of benchmarks under both way-aware schemes with a
//! [`wp_trace::TraceRecorder`] attached, then emits:
//!
//! * `TRACE_<bench>_<scheme>.jsonl` — the deterministic event/interval/
//!   chain stream (see `wp_trace::export::to_jsonl`);
//! * `TRACE_report.trace.json` — a Chrome `trace_event` file combining
//!   harness wall-clock spans with per-run guest counter tracks;
//! * `BENCH_trace_report.json` — the manifest (`trace_report/v3`):
//!   hottest chains per run, interval series sizes and reconciliation
//!   verdicts. It holds no wall-clock reading, so two runs of one tree
//!   write identical manifests.
//!
//! What a disabled sink must preserve is the simulator's per-line
//! fetch path; wp-sim's unit test
//! `null_sink_runs_call_the_fetch_core_only_on_line_changes` checks
//! that by counting fetch-core calls, which no wall-clock pair can.
//!
//! Every roll-up is re-derived from the raw attribution and checked
//! against the aggregate hardware counters; any mismatch exits 1.
//!
//! Usage: `trace_report [--quick] [--check]`
//!
//! `--quick` shrinks the run for CI smoke (one benchmark, small
//! inputs); `--check` re-reads an existing manifest from disk and
//! re-verifies its reconciliation claims without simulating.

use std::path::PathBuf;
use std::time::Instant;

use wp_bench::baseline::{hot_chains_json, ENERGY_REL_TOL, TOP_K};
use wp_bench::engine::Engine;
use wp_bench::{manifest_path, write_manifest, Json};
use wp_core::{measure_traced, MeasureOptions, Scheme, Workbench};
use wp_energy::CacheEnergyModel;
use wp_mem::{CacheGeometry, FetchStats};
use wp_trace::{export, TraceRecorder};
use wp_workloads::{Benchmark, InputSet};

fn bench_dir() -> PathBuf {
    wp_core::env::bench_dir()
}

fn scheme_file_tag(scheme: Scheme) -> String {
    scheme.label().replace(['/', ' '], "-")
}

/// One traced run distilled for the manifest.
struct RunReport {
    benchmark: Benchmark,
    scheme: Scheme,
    json: Json,
    ok: bool,
    track: (String, Vec<wp_trace::IntervalSample>),
    jsonl_name: String,
}

/// Runs one (benchmark, scheme) pair traced and verifies every roll-up
/// against the aggregate counters.
fn trace_run(
    workbench: &Workbench,
    icache: CacheGeometry,
    scheme: Scheme,
    set: InputSet,
    interval_cycles: u64,
) -> Result<RunReport, String> {
    let benchmark = workbench.benchmark();
    let tag = format!("{}/{}", benchmark.name(), scheme.label());

    let map = workbench
        .link(scheme.layout(), set)
        .map_err(|e| format!("{tag}: link failed: {e}"))?
        .layout_map();
    let mut recorder = TraceRecorder::new().with_interval_cycles(interval_cycles).with_layout(map);
    let started = Instant::now();
    let (m, _) = measure_traced(workbench, icache, scheme, MeasureOptions::new(set), &mut recorder)
        .map_err(|e| format!("{tag}: measure failed: {e}"))?;
    if let Some(spans) = Engine::global().span_collector() {
        spans.record(
            format!("trace:{tag}"),
            "measure",
            started,
            vec![("fetches".into(), m.run.fetch.fetches.to_string())],
        );
    }

    let attribution = recorder
        .attribution()
        .ok_or_else(|| format!("{tag}: recorder has no layout map"))?;
    let total = attribution.total();
    let aggregate = m.run.fetch;

    // Reconciliation 1: per-chain fetch sums equal the hardware counter.
    let fetches_ok = total.fetches == aggregate.fetches
        && total.tag_comparisons == aggregate.tag_comparisons
        && total.hits == aggregate.hits;
    // Reconciliation 2: every fetched pc resolved to a chain.
    let unattributed_ok = attribution.unattributed().fetches == 0;
    // Reconciliation 3: the interval series partitions the run.
    let interval_fetches: u64 = recorder.intervals().iter().map(|s| s.counters.fetches).sum();
    let intervals_ok = interval_fetches == aggregate.fetches && recorder.intervals().len() >= 10;
    // Reconciliation 4: per-chain energies sum to the aggregate price.
    let mem = scheme.memory_config(icache);
    let model = CacheEnergyModel::for_scheme(icache, mem.icache.scheme);
    let chain_pj: f64 = attribution
        .rows()
        .iter()
        .chain(std::iter::once(attribution.unattributed()))
        .map(|row| model.fetch_energy(&FetchStats::from(&row.to_counters())).total_pj())
        .sum();
    let aggregate_pj = m.energy.icache.total_pj();
    let energy_ok = (chain_pj - aggregate_pj).abs() <= ENERGY_REL_TOL * aggregate_pj.max(1.0);
    // Every fetch was offered to the ring; drops are counted evictions.
    let ring_ok = recorder.recorded() == aggregate.fetches
        && recorder.events().len() as u64 == recorder.recorded() - recorder.dropped();

    let ok = fetches_ok && unattributed_ok && intervals_ok && energy_ok && ring_ok;
    if !ok {
        eprintln!(
            "{tag}: RECONCILIATION FAILED (fetches {fetches_ok}, unattributed {unattributed_ok}, \
             intervals {intervals_ok}, energy {energy_ok}, ring {ring_ok})"
        );
    }

    let jsonl_name = format!("TRACE_{}_{}.jsonl", benchmark.name(), scheme_file_tag(scheme));
    let jsonl = export::to_jsonl(&recorder);
    std::fs::write(bench_dir().join(&jsonl_name), jsonl)
        .map_err(|e| format!("{tag}: writing {jsonl_name}: {e}"))?;

    let json = Json::obj([
        ("benchmark", Json::from(benchmark.name())),
        ("scheme", Json::from(scheme.label().as_str())),
        ("fetches", Json::Uint(aggregate.fetches)),
        ("cycles", Json::Uint(m.run.cycles)),
        ("icache_pj", Json::from(aggregate_pj)),
        ("chain_sum_pj", Json::from(chain_pj)),
        ("events_recorded", Json::Uint(recorder.recorded())),
        ("events_dropped", Json::Uint(recorder.dropped())),
        ("intervals", Json::from(recorder.intervals().len())),
        ("interval_fetches", Json::Uint(interval_fetches)),
        ("chains", Json::from(attribution.rows().len())),
        ("hot_chains", Json::Arr(hot_chains_json(attribution, &model, TOP_K))),
        (
            "reconciled",
            Json::obj([
                ("fetch_totals", Json::from(fetches_ok)),
                ("unattributed", Json::from(unattributed_ok)),
                ("intervals", Json::from(intervals_ok)),
                ("energy", Json::from(energy_ok)),
                ("ring", Json::from(ring_ok)),
            ]),
        ),
        ("ok", Json::from(ok)),
    ]);
    let track = (tag, recorder.intervals().to_vec());
    Ok(RunReport { benchmark, scheme, json, ok, track, jsonl_name })
}

/// `--check`: re-read the manifest from disk and re-verify its claims.
fn check_manifest() -> i32 {
    let path = manifest_path("trace_report");
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("check: cannot read {}: {e}", path.display());
            return 1;
        }
    };
    let manifest = match Json::parse(&text) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("check: {} is not valid JSON: {e}", path.display());
            return 1;
        }
    };
    let mut failures = 0;
    let runs = manifest.get("runs").and_then(Json::as_array).unwrap_or(&[]);
    if runs.is_empty() {
        eprintln!("check: manifest has no runs");
        failures += 1;
    }
    for run in runs {
        let name = run.get("benchmark").and_then(Json::as_str).unwrap_or("?");
        let fetches = run.get("fetches").and_then(Json::as_u64).unwrap_or(0);
        let interval_fetches = run.get("interval_fetches").and_then(Json::as_u64).unwrap_or(1);
        let recorded = run.get("events_recorded").and_then(Json::as_u64).unwrap_or(0);
        let dropped = run.get("events_dropped").and_then(Json::as_u64).unwrap_or(0);
        let ok = run.get("ok").and_then(Json::as_bool).unwrap_or(false);
        let hot_sum: u64 = run.get("hot_chains").and_then(Json::as_array).map_or(0, |chains| {
            chains
                .iter()
                .map(|c| c.get("fetches").and_then(Json::as_u64).unwrap_or(0))
                .sum()
        });
        if !ok {
            eprintln!("check: run {name} recorded a reconciliation failure");
            failures += 1;
        }
        if interval_fetches != fetches {
            eprintln!("check: run {name} interval fetches {interval_fetches} != {fetches}");
            failures += 1;
        }
        if recorded != fetches || dropped > recorded {
            eprintln!("check: run {name} ring saw {recorded} ({dropped} dropped) of {fetches}");
            failures += 1;
        }
        if hot_sum > fetches {
            eprintln!("check: run {name} hot-chain fetches {hot_sum} exceed total {fetches}");
            failures += 1;
        }
    }
    if failures == 0 {
        println!("check: {} reconciles ({} runs)", path.display(), runs.len());
        0
    } else {
        eprintln!("check: {failures} failure(s)");
        1
    }
}

fn run(quick: bool) -> Result<i32, String> {
    let icache = CacheGeometry::xscale_icache();
    let set = if quick { InputSet::Small } else { InputSet::Large };
    let benchmarks: &[Benchmark] = if quick {
        &[Benchmark::Crc]
    } else {
        &[Benchmark::Crc, Benchmark::Sha, Benchmark::Bitcount]
    };
    let schemes = [Scheme::WayPlacement { area_bytes: 32 * 1024 }, Scheme::WayMemoization];
    let interval_cycles: u64 = if quick { 256 } else { 1024 };
    let engine = Engine::global();
    // Every run writes its JSONL stream into the directory as it goes.
    let dir = bench_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;

    let mut runs = Vec::new();
    let mut tracks = Vec::new();
    let mut files = Vec::new();
    let mut all_ok = true;
    for &benchmark in benchmarks {
        let workbench =
            engine.workbench(benchmark).map_err(|e| format!("{}: {e}", benchmark.name()))?;
        for &scheme in &schemes {
            let report = trace_run(&workbench, icache, scheme, set, interval_cycles)?;
            println!(
                "{:<10} {:<24} {} intervals, {} chains traced, ok={}",
                report.benchmark.name(),
                report.scheme.label(),
                report.track.1.len(),
                report.json.get("chains").and_then(Json::as_u64).unwrap_or(0),
                report.ok,
            );
            all_ok &= report.ok;
            files.push(report.jsonl_name.clone());
            tracks.push(report.track);
            runs.push(report.json);
        }
    }

    let spans = engine.span_collector().map(|c| c.spans()).unwrap_or_default();
    let chrome = export::chrome_trace(&spans, &tracks);
    let chrome_name = "TRACE_report.trace.json";
    std::fs::write(dir.join(chrome_name), chrome.to_pretty())
        .map_err(|e| format!("writing {chrome_name}: {e}"))?;
    files.push(chrome_name.to_string());

    let manifest = Json::obj([
        ("schema", Json::from("trace_report/v3")),
        ("quick", Json::from(quick)),
        ("input_set", Json::from(set.name())),
        ("interval_cycles", Json::Uint(interval_cycles)),
        ("runs", Json::Arr(runs)),
        ("spans", Json::from(spans.len())),
        ("files", Json::Arr(files.iter().map(|f| Json::from(f.as_str())).collect())),
        ("ok", Json::from(all_ok)),
    ]);
    let path =
        write_manifest("trace_report", &manifest).map_err(|e| format!("writing manifest: {e}"))?;
    eprintln!("manifest: {}", path.display());
    Ok(i32::from(!all_ok))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    if args.iter().any(|a| a == "--check") {
        std::process::exit(check_manifest());
    }
    match run(quick) {
        Ok(code) => std::process::exit(code),
        Err(message) => {
            eprintln!("trace_report: {message}");
            std::process::exit(1);
        }
    }
}
