//! `gate` — byte-exact gating against stored baselines.
//!
//! Runs the five baseline pipelines (trace report, tuned areas, chaos
//! campaign, obs report, layout competition) through the campaign DAG
//! and compares each fresh manifest with its blessed copy in the
//! baselines directory (default `baselines/`) byte for byte. For every
//! manifest that differs it prints each JSON path whose value changed,
//! with the blessed and the fresh value, or reports that only the
//! formatting changed. The comparison is written to `BENCH_gate.json`.
//! To accept an intentional change, run `bless` and commit the result.
//!
//! Usage: `gate [--quick] [--dir DIR] [--store DIR]`
//!
//! `--quick` gates the CI smoke shape against a `bless --quick`
//! directory. With `--store DIR` (or `$WP_STORE_DIR` set) the pipelines
//! run against that wp-campaign store: a warm store (e.g. right after a
//! campaign run on the same tree) serves every manifest as a pure hit
//! and the gate costs milliseconds. Without one they run in a
//! temporary store that is removed afterwards.
//!
//! Exit codes: `0` every manifest identical, `1` a difference or a
//! pipeline failure, `2` usage error or a missing or unreadable
//! baseline (an invocation problem, not drift).

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use std::path::PathBuf;

use wp_bench::baseline::{gate, with_scratch_store, Verdict, DEFAULT_BASELINE_DIR};
use wp_bench::write_manifest;
use wp_campaign::Store;
use wp_tune::TuneError;

fn usage() -> ! {
    eprintln!("usage: gate [--quick] [--dir DIR] [--store DIR]");
    std::process::exit(2);
}

fn run() -> Result<i32, TuneError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut dir = PathBuf::from(DEFAULT_BASELINE_DIR);
    let mut store_root = wp_core::env::store_dir();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--dir" => dir = PathBuf::from(iter.next().unwrap_or_else(|| usage())),
            "--store" => store_root = Some(PathBuf::from(iter.next().unwrap_or_else(|| usage()))),
            _ => usage(),
        }
    }

    let report = if let Some(root) = store_root {
        eprintln!("gate: campaign store at {}", root.display());
        gate(&dir, &Store::new(root), quick, None)?
    } else {
        with_scratch_store("gate", |store| gate(&dir, store, quick, None))?
    };

    for (name, verdict) in &report.manifests {
        match verdict {
            Verdict::Identical => println!("{name:<28} identical"),
            Verdict::Formatting => println!("{name:<28} DIFFERS   formatting only"),
            Verdict::Differs(paths) => {
                println!("{name:<28} DIFFERS   {} path(s)", paths.len());
                for path in paths {
                    println!("  {path}");
                }
            }
        }
    }
    println!(
        "{} manifest(s), {} differing from the blessed bytes",
        report.manifests.len(),
        report.differing()
    );
    eprintln!("gate: campaign {} hit(s), {} miss(es)", report.store_hits, report.store_misses);

    let path = write_manifest("gate", &report.json()).map_err(|e| TuneError::Io {
        path: "BENCH_gate.json".to_string(),
        message: e.to_string(),
    })?;
    eprintln!("manifest: {}", path.display());
    Ok(report.exit_code())
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(error) => {
            eprintln!("gate: {error}");
            // A missing, unreadable or non-JSON baseline is an
            // invocation problem; a pipeline failure means the tree can
            // no longer reproduce its baselines.
            let code = match error {
                TuneError::Io { .. } | TuneError::Json { .. } => 2,
                _ => error.exit_code(),
            };
            std::process::exit(code);
        }
    }
}
