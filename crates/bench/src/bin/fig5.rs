//! Figure 5 reproduction: average normalised I-cache energy (a) and ED
//! product (b) as the way-placement area shrinks from 32 KB to 1 KB on
//! the 32 KB, 32-way cache, with way-memoization as the yardstick.
//!
//! Paper shape targets: graceful degradation; even the 1 KB area keeps
//! energy at ~56% — still beating way-memoization's ~68%; ED ~0.94 at
//! 1 KB. No relink is needed between area sizes (§4.1): the same
//! binary serves every row — and on the engine, neither is a second
//! profile: every area size shares one memoised workbench and one
//! baseline measurement per benchmark.
//!
//! Usage: `fig5 [--areas <file|csv>]`
//!
//! `--areas` takes either a comma-separated area list (`16K,8K,1024`)
//! that overrides the `FIGURE5_AREAS` sweep grid, or the path to a
//! `BENCH_tuned_areas.json` manifest from the `tune` binary — the
//! latter switches to **validation mode**: the sweep runs the standard
//! grid over exactly the manifest's benchmarks, locates each
//! benchmark's sweep-optimal area with the same knee criterion the
//! tuner used (`wp_tune::knee_index`), and checks every tuned area
//! lands within one grid step of it, exiting 1 on any miss.

use std::path::Path;

use wp_bench::campaign::{keys, provenance_json, InputTags};
use wp_bench::{finish, mean_ed, mean_energy, Engine, Experiment, Json, FIGURE5_AREAS};
use wp_core::wp_mem::CacheGeometry;
use wp_core::wp_workloads::Benchmark;
use wp_core::Scheme;
use wp_tune::{knee_index, parse_area_list, TunedManifest};

fn usage() -> ! {
    eprintln!("usage: fig5 [--areas <file|csv>]");
    std::process::exit(2);
}

enum Mode {
    /// The standard (or overridden) grid sweep over all benchmarks.
    Sweep(Vec<u32>),
    /// Sweep the standard grid over the manifest's benchmarks, then
    /// check each tuned area against the sweep-optimal one.
    Validate(TunedManifest),
}

fn parse_mode() -> Mode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    let mut mode = Mode::Sweep(FIGURE5_AREAS.to_vec());
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--areas" => {
                let spec = iter.next().unwrap_or_else(|| usage());
                if Path::new(spec).is_file() {
                    match TunedManifest::load(Path::new(spec)) {
                        Ok(manifest) => {
                            // A tuned manifest from a different grid
                            // would be checked against the wrong
                            // neighbors: "within one grid step" only
                            // means anything on the sweep's own grid.
                            if manifest.grid != FIGURE5_AREAS {
                                eprintln!(
                                    "fig5: tuned manifest grid {:?} does not match the sweep \
                                     grid {:?}; re-run tune on the sweep grid before validating",
                                    manifest.grid, FIGURE5_AREAS
                                );
                                std::process::exit(2);
                            }
                            mode = Mode::Validate(manifest);
                        }
                        Err(error) => {
                            eprintln!("fig5: {error}");
                            std::process::exit(2);
                        }
                    }
                } else {
                    match parse_area_list(spec) {
                        Ok(areas) => mode = Mode::Sweep(areas),
                        Err(error) => {
                            eprintln!("fig5: {error}");
                            std::process::exit(2);
                        }
                    }
                }
            }
            _ => usage(),
        }
    }
    mode
}

/// Checks every tuned area against the sweep-optimal one (the knee of
/// the benchmark's measured energy curve, under the tolerance the
/// tuner ran with). Returns the validation manifest section and
/// whether every benchmark passed.
fn validate(manifest: &TunedManifest, rows: &[wp_bench::SuiteRow], grid: &[u32]) -> (Json, bool) {
    let mut entries = Vec::new();
    let mut all_ok = true;
    println!();
    println!("== Validation: tuned areas vs sweep-optimal (tolerance {}) ==", manifest.tolerance);
    for entry in &manifest.entries {
        let row = rows.iter().find(|r| r.benchmark.name() == entry.benchmark);
        let (verdict, detail) = match row {
            None => (false, "benchmark missing from sweep".to_string()),
            Some(row) => {
                // values[0] is way-memoization; area i sits at i+1.
                let energies: Vec<f64> = (0..grid.len()).map(|i| row.values[i + 1].1).collect();
                match (
                    knee_index(&energies, manifest.tolerance),
                    grid.iter().position(|&a| a == entry.area_bytes),
                ) {
                    (Ok(optimal), Some(tuned)) => {
                        let ok = tuned.abs_diff(optimal) <= 1;
                        (
                            ok,
                            format!(
                                "tuned {} B (index {tuned}), sweep-optimal {} B (index {optimal})",
                                entry.area_bytes, grid[optimal]
                            ),
                        )
                    }
                    (Err(error), _) => (false, format!("sweep knee failed: {error}")),
                    (_, None) => {
                        (false, format!("tuned area {} B is not on the grid", entry.area_bytes))
                    }
                }
            }
        };
        all_ok &= verdict;
        println!("{:<10} {} — {detail}", entry.benchmark, if verdict { "PASS" } else { "FAIL" });
        entries.push(Json::obj([
            ("benchmark", Json::from(entry.benchmark.as_str())),
            ("tuned_area_bytes", Json::from(entry.area_bytes)),
            ("ok", Json::from(verdict)),
            ("detail", Json::from(detail)),
        ]));
    }
    let section = Json::obj([
        ("tolerance", Json::from(manifest.tolerance)),
        ("benchmarks", Json::Arr(entries)),
        ("ok", Json::from(all_ok)),
    ]);
    (section, all_ok)
}

/// Places each tuned area *on* the sweep curve: the `tuned` series of
/// `BENCH_fig5.json`, one `(benchmark, area, energy, ED)` point per
/// tuned benchmark, read off the sweep measurements at the tuned
/// area's grid column — so a plot of the sweep can overlay where the
/// autotuner landed instead of only reporting a pass/fail verdict.
fn tuned_series(manifest: &TunedManifest, rows: &[wp_bench::SuiteRow], grid: &[u32]) -> Json {
    let mut points = Vec::new();
    println!();
    println!("== Tuned points on the sweep curve ==");
    for entry in &manifest.entries {
        let row = rows.iter().find(|r| r.benchmark.name() == entry.benchmark);
        let index = grid.iter().position(|&a| a == entry.area_bytes);
        let (Some(row), Some(index)) = (row, index) else {
            // validate() already reports the miss; nothing to plot.
            continue;
        };
        // values[0] is way-memoization; area i sits at i+1.
        let (_, energy, ed) = &row.values[index + 1];
        println!(
            "{:<10} {:>5} B | {:>9.1}% | {:>6.3}",
            entry.benchmark,
            entry.area_bytes,
            energy * 100.0,
            ed
        );
        points.push(Json::obj([
            ("benchmark", Json::from(entry.benchmark.as_str())),
            ("area_bytes", Json::from(entry.area_bytes)),
            ("energy", Json::from(*energy)),
            ("ed", Json::from(*ed)),
        ]));
    }
    Json::Arr(points)
}

fn main() {
    let mode = parse_mode();
    let geom = CacheGeometry::xscale_icache();

    let (grid, benchmarks): (Vec<u32>, Vec<Benchmark>) = match &mode {
        Mode::Sweep(areas) => (areas.clone(), Benchmark::ALL.to_vec()),
        Mode::Validate(manifest) => {
            let named: Vec<Benchmark> = Benchmark::ALL
                .iter()
                .copied()
                .filter(|b| manifest.entries.iter().any(|e| e.benchmark == b.name()))
                .collect();
            (FIGURE5_AREAS.to_vec(), named)
        }
    };

    println!("== Figure 5: {geom}, way-placement area sweep ==");
    println!("{:<18} | {:>10} | {:>6}", "configuration", "energy", "ED");

    // One experiment: way-memoization plus every area size, so the
    // whole sweep is a single engine run over shared caches.
    let schemes: Vec<Scheme> = std::iter::once(Scheme::WayMemoization)
        .chain(grid.iter().map(|&area_bytes| Scheme::WayPlacement { area_bytes }))
        .collect();
    let experiment = Experiment::new(benchmarks, [geom], schemes);
    let report = Engine::global().run(&experiment);
    let rows = report.rows_for(geom);
    if !rows.is_empty() {
        println!(
            "{:<18} | {:>9.1}% | {:>6.3}   (paper: ~68%)",
            "way-memoization",
            mean_energy(&rows, 0) * 100.0,
            mean_ed(&rows, 0)
        );
        for (index, area) in grid.iter().enumerate() {
            println!(
                "{:<18} | {:>9.1}% | {:>6.3}",
                format!("way-placement {}KB", *area as f64 / 1024.0),
                mean_energy(&rows, index + 1) * 100.0,
                mean_ed(&rows, index + 1)
            );
        }
    }
    println!();
    println!("paper: 32KB area ~50% energy ... 1KB area ~56% energy, ED ~0.94");

    let mut manifest = Json::obj([
        ("figure", Json::from("fig5")),
        ("areas_bytes", Json::arr(grid.iter().map(|&a| Json::from(a)))),
    ]);
    let mut validation_failed = false;
    if let Mode::Validate(tuned) = &mode {
        let (section, ok) = validate(tuned, &rows, &grid);
        manifest.push("validation", section);
        manifest.push("tuned", tuned_series(tuned, &rows, &grid));
        validation_failed = !ok;
    }
    manifest.push("suite", report.results_json());
    // The task key of the experiment actually swept (an overridden
    // --areas grid keys differently from the standard campaign node).
    let key = keys::fig_manifest("fig5", &experiment, &InputTags::default());
    manifest.push("provenance", provenance_json(&key));
    let code = finish("fig5", &report, &manifest);
    std::process::exit(if validation_failed { 1 } else { code });
}
