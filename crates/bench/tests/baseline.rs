//! Round-trip integration tests for the stored-baseline subsystem:
//! bless → gate clean, perturb → gate flags with exit code exactly 1,
//! and two independent bless runs are byte-identical.

use std::path::{Path, PathBuf};

use wp_bench::baseline::{bless, gate, BASELINE_FILES, PERF_BASELINE_FILE};
use wp_bench::perf::PERF_SCHEMA;
use wp_bench::Json;
use wp_tune::DiffThresholds;

/// A fresh scratch directory under the system temp dir; any leftover
/// from a previous run is cleared first.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wp-baseline-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The `schema` field of the manifest at `path`.
fn schema_of(path: &Path) -> String {
    let text = std::fs::read_to_string(path).expect("read manifest");
    let manifest = Json::parse(&text).expect("parse manifest");
    manifest
        .get("schema")
        .and_then(Json::as_str)
        .expect("manifest schema")
        .to_string()
}

#[test]
fn bless_gate_round_trip_and_perturbation() {
    let blessed = scratch("blessed");
    let paths = bless(&blessed, true).expect("bless");
    assert_eq!(paths.len(), BASELINE_FILES.len() + 1, "canonical pair + perf manifest");
    assert!(paths[BASELINE_FILES.len()].ends_with(PERF_BASELINE_FILE));
    for path in &paths {
        assert!(path.is_file(), "{} missing", path.display());
    }

    // A gate straight after a bless must be clean on every
    // deterministic manifest: same tree, same pipelines. The wall-clock
    // manifest, picked out by its schema, is re-measured here while
    // this binary's other tests load the CPUs, so its clean gate is
    // left to `perf_speedup_drift_gates_under_generous_thresholds` and
    // to CI's serial `gate --dir baselines` step.
    let report =
        gate(&blessed, &scratch("fresh-clean"), true, DiffThresholds::default()).expect("gate");
    let deterministic: Vec<_> = report
        .diffs
        .iter()
        .filter(|(name, _)| schema_of(&blessed.join(name)) != PERF_SCHEMA)
        .collect();
    assert_eq!(deterministic.len(), BASELINE_FILES.len(), "one wall-clock manifest");
    for (name, diff) in deterministic {
        assert_eq!(
            diff.regressions(),
            0,
            "fresh gate flagged {name}: {}",
            diff.json().to_compact()
        );
    }

    // Perturb one blessed chain energy by far more than the 2%
    // relative gate and the 1024 pJ absolute floor (prepending a digit
    // scales the value ~10x): the gate must flag it, exit code
    // exactly 1.
    let trace_path = blessed.join(BASELINE_FILES[0]);
    let text = std::fs::read_to_string(&trace_path).expect("read blessed trace report");
    let perturbed = text.replacen("\"energy_pj\": ", "\"energy_pj\": 9", 1);
    assert_ne!(text, perturbed, "no chain energy found to perturb");
    std::fs::write(&trace_path, perturbed).expect("write perturbed baseline");

    let report =
        gate(&blessed, &scratch("fresh-perturbed"), true, DiffThresholds::default()).expect("gate");
    assert!(report.regressions() > 0);
    assert_eq!(report.exit_code(), 1, "a gated shift exits exactly 1");
    // Only the trace-report manifest was touched; the tuned-areas
    // manifest must still diff clean.
    assert_eq!(report.diffs[1].1.regressions(), 0);

    for dir in [blessed, scratch("fresh-clean"), scratch("fresh-perturbed")] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn perf_speedup_drift_gates_under_generous_thresholds() {
    let blessed = scratch("perf-blessed");
    bless(&blessed, true).expect("bless");

    // Scale every blessed speedup (the icache_pj metric slot) roughly
    // tenfold by prepending a digit: far past even the generous 75%
    // relative gate and the 1.0 absolute speedup floor. The honest
    // wall-clock wobble of the fresh re-measurement must NOT flag; the
    // fabricated speedup shift must.
    let path = blessed.join(PERF_BASELINE_FILE);
    let text = std::fs::read_to_string(&path).expect("read perf baseline");
    let perturbed = text.replace("\"icache_pj\": ", "\"icache_pj\": 9");
    assert_ne!(text, perturbed, "no speedup field found to perturb");
    std::fs::write(&path, perturbed).expect("write perturbed perf baseline");

    let report =
        gate(&blessed, &scratch("perf-fresh"), true, DiffThresholds::default()).expect("gate");
    let (name, perf_diff) = &report.diffs[BASELINE_FILES.len()];
    assert_eq!(name, PERF_BASELINE_FILE);
    assert!(perf_diff.regressions() > 0, "tenfold speedup shift must flag");
    assert_eq!(report.exit_code(), 1);
    // The byte-deterministic manifests are untouched and stay clean.
    assert_eq!(report.diffs[0].1.regressions(), 0);
    assert_eq!(report.diffs[1].1.regressions(), 0);

    for dir in [blessed, scratch("perf-fresh")] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn independent_bless_runs_are_byte_identical() {
    let first_dir = scratch("determinism-a");
    let second_dir = scratch("determinism-b");
    bless(&first_dir, true).expect("first bless");
    bless(&second_dir, true).expect("second bless");
    for name in BASELINE_FILES {
        let first = std::fs::read(first_dir.join(name)).expect("read first");
        let second = std::fs::read(second_dir.join(name)).expect("read second");
        assert_eq!(first, second, "{name} differs between two bless runs");
    }
    let _ = std::fs::remove_dir_all(first_dir);
    let _ = std::fs::remove_dir_all(second_dir);
}
