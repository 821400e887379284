//! `bless` — write canonical stored baselines.
//!
//! Runs the five baseline pipelines (trace report, tuned areas, chaos
//! campaign, obs report, layout competition) through the campaign DAG
//! and writes their deterministic manifests into the baselines
//! directory (default `baselines/`, the copy committed to the
//! repository). Run it after an *intentional* change to the simulator,
//! energy model or layout shifts the numbers, then commit the
//! refreshed manifests; the `gate` binary fails CI on any byte of drift
//! against them in the meantime.
//!
//! Every run computes from scratch in a temporary store that is
//! removed afterwards, so a stale store entry can never be blessed.
//!
//! Usage: `bless [--quick] [--dir DIR]`
//!
//! `--quick` blesses the CI smoke shape (one benchmark, small inputs)
//! — useful for the self-bless/gate smoke test, never for the
//! committed baselines. Exit codes: `0` blessed, `1` pipeline
//! failure, `2` usage error.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use std::path::PathBuf;

use wp_bench::baseline::{bless, with_scratch_store, DEFAULT_BASELINE_DIR};

fn usage() -> ! {
    eprintln!("usage: bless [--quick] [--dir DIR]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut dir = PathBuf::from(DEFAULT_BASELINE_DIR);
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--dir" => dir = PathBuf::from(iter.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }

    match with_scratch_store("bless", |store| bless(&dir, store, quick)) {
        Ok(paths) => {
            for path in paths {
                println!("blessed: {}", path.display());
            }
        }
        Err(error) => {
            eprintln!("bless: {error}");
            std::process::exit(error.exit_code());
        }
    }
}
