//! `tune` — attribution-guided way-placement area autotuning.
//!
//! For each benchmark: one traced run at full coverage yields
//! per-chain fetch/tag attribution; `wp_tune::predict` models the
//! I-cache energy of every `FIGURE5_AREAS` candidate from it (covered
//! fetches keep their measured single-tag cost, uncovered fetches pay
//! the full CAM width); a bounded measured search (`wp_tune::refine`)
//! then verifies the predicted knee with real simulations, measuring
//! only as many grid points as the prediction error requires.
//!
//! Writes the deterministic `BENCH_tuned_areas.json` manifest — the
//! input to `fig5 --areas` validation — through the manifest function
//! the campaign's tuned-areas node uses.
//!
//! Usage: `tune [--quick | --all] [--tolerance T] [--areas CSV]`
//!
//! The default tunes the crc/sha/bitcount set on the large inputs;
//! `--all` extends to the whole 23-benchmark suite and `--quick`
//! shrinks to one benchmark on the small input set. Those two are the
//! campaign's shapes: without `--tolerance` or `--areas` they write
//! exactly the bytes `bless` freezes into `baselines/` (`--all`) and
//! `wp-campaign run --only tune --quick` writes (`--quick`).
//! `--tolerance` sets the knee criterion (default 0.02: within 2% of
//! the best measured energy); `--areas` overrides the candidate grid.
//!
//! Exit codes: `0` tuned, `1` pipeline/tuning failure, `2` usage
//! error — the same convention as `gate`, so CI can tell a broken
//! invocation from a genuinely failing run.

use wp_bench::autotune::tune_suite;
use wp_bench::baseline::tuned_benchmarks;
use wp_bench::{write_manifest, FIGURE5_AREAS};
use wp_mem::CacheGeometry;
use wp_tune::{parse_area_list, parse_threshold, TuneError, DEFAULT_TOLERANCE};
use wp_workloads::{Benchmark, InputSet};

fn usage() -> ! {
    eprintln!("usage: tune [--quick | --all] [--tolerance T] [--areas CSV]");
    std::process::exit(2);
}

fn run() -> Result<(), TuneError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut all = false;
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut grid: Vec<u32> = FIGURE5_AREAS.to_vec();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--all" => all = true,
            "--tolerance" => tolerance = parse_threshold(iter.next().unwrap_or_else(|| usage()))?,
            "--areas" => grid = parse_area_list(iter.next().unwrap_or_else(|| usage()))?,
            _ => usage(),
        }
    }
    if quick && all {
        usage();
    }

    let (benchmarks, set) = if quick || all {
        tuned_benchmarks(quick)
    } else {
        (vec![Benchmark::Crc, Benchmark::Sha, Benchmark::Bitcount], InputSet::Large)
    };
    let icache = CacheGeometry::xscale_icache();

    let (tunings, manifest) = tune_suite(&benchmarks, icache, &grid, tolerance, set, quick)?;
    for t in &tunings {
        println!(
            "{:<10} chosen {:>5} B (predicted knee {:>5} B), {:.3e} pJ measured, \
             predicted/measured {:.4}, {} measurements",
            t.benchmark.name(),
            t.chosen_area_bytes,
            t.prediction.candidates[t.prediction.knee_index].area_bytes,
            t.measured_pj,
            t.predicted_measured_ratio(),
            t.refinement.steps.len(),
        );
    }
    let path = write_manifest("tuned_areas", &manifest).map_err(|e| TuneError::Io {
        path: "BENCH_tuned_areas.json".to_string(),
        message: e.to_string(),
    })?;
    eprintln!("manifest: {}", path.display());
    Ok(())
}

fn main() {
    if let Err(error) = run() {
        eprintln!("tune: {error}");
        // Usage mistakes (bad --areas/--tolerance tokens) exit 2;
        // pipeline and tuning failures exit 1.
        std::process::exit(error.exit_code());
    }
}
