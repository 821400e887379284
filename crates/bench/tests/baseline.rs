//! Round-trip integration tests for the stored-baseline subsystem:
//! bless → gate clean, perturb → gate flags with exit code exactly 1,
//! and two independent bless runs are byte-identical.

use std::path::PathBuf;

use wp_bench::baseline::{bless, gate, BASELINE_FILES};
use wp_tune::DiffThresholds;

/// A fresh scratch directory under the system temp dir; any leftover
/// from a previous run is cleared first.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wp-baseline-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn bless_gate_round_trip_and_perturbation() {
    let blessed = scratch("blessed");
    let paths = bless(&blessed, true).expect("bless");
    assert_eq!(paths.len(), BASELINE_FILES.len());
    for path in &paths {
        assert!(path.is_file(), "{} missing", path.display());
    }

    // A gate straight after a bless must be clean: same tree, same
    // pipelines, every manifest deterministic.
    let report =
        gate(&blessed, &scratch("fresh-clean"), true, DiffThresholds::default()).expect("gate");
    assert!(report.is_clean(), "fresh gate flagged: {}", report.json().to_compact());
    assert_eq!(report.exit_code(), 0);

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
