//! Integration tests for the autotuning pipeline: determinism of the
//! tuned-areas manifest and its byte identity with the campaign's,
//! agreement between the tuner's choice and the sweep-optimal area,
//! and schema round-tripping into the validator.

use wp_bench::autotune::{tune_suite, BenchmarkTuning};
use wp_bench::baseline::{tuned_benchmarks, with_scratch_store};
use wp_bench::campaign::{self, CampaignConfig, Group};
use wp_bench::engine::Engine;
use wp_bench::{Json, FIGURE5_AREAS};
use wp_core::wp_mem::CacheGeometry;
use wp_core::wp_workloads::{Benchmark, InputSet};
use wp_core::Scheme;
use wp_tune::{knee_index, TunedManifest, DEFAULT_TOLERANCE};

/// What `tune --quick` runs: the campaign's quick tuned-areas shape.
fn tune_quick() -> (Vec<BenchmarkTuning>, Json) {
    let (benchmarks, set) = tuned_benchmarks(true);
    let geom = CacheGeometry::xscale_icache();
    tune_suite(&benchmarks, geom, &FIGURE5_AREAS, DEFAULT_TOLERANCE, set, true).expect("tune_suite")
}

#[test]
fn tuned_manifests_are_byte_identical() {
    let first = tune_quick().1.to_pretty();
    let second = tune_quick().1.to_pretty();
    assert_eq!(first, second, "two independent tune runs must render identical manifests");
    assert!(first.contains("tuned_areas/v1"));
}

#[test]
fn quick_tuned_manifest_is_the_campaign_payload() {
    let (_, manifest) = tune_quick();
    let config = CampaignConfig::new(true, vec![Group::Tune]);
    let run = with_scratch_store("tune-test", |store| campaign::run(&config, store, None));
    assert!(run.report.ok(), "{:?}", run.report.failures());
    let payload = run.manifest(Group::Tune).expect("tuned-areas payload");
    assert_eq!(
        String::from_utf8_lossy(payload),
        manifest.to_pretty(),
        "tune --quick and the campaign's quick tune must write the same bytes"
    );
}

#[test]
fn tuned_area_is_within_one_grid_step_of_sweep_optimal() {
    let geom = CacheGeometry::xscale_icache();
    let set = InputSet::Small;
    let engine = Engine::global();
    let (tunings, _) = tune_suite(
        &[Benchmark::Crc, Benchmark::Sha, Benchmark::Bitcount],
        geom,
        &FIGURE5_AREAS,
        DEFAULT_TOLERANCE,
        set,
        false,
    )
    .expect("tune_suite");
    for tuning in &tunings {
        // The exhaustive sweep the tuner is meant to replace.
        let energies: Vec<f64> = FIGURE5_AREAS
            .iter()
            .map(|&area_bytes| {
                engine
                    .measure(tuning.benchmark, geom, Scheme::WayPlacement { area_bytes }, set)
                    .expect("sweep measurement")
                    .energy
                    .icache
                    .total_pj()
            })
            .collect();
        let optimal = knee_index(&energies, DEFAULT_TOLERANCE).expect("sweep knee");
        let chosen = tuning.refinement.chosen_index;
        assert!(
            chosen.abs_diff(optimal) <= 1,
            "{}: tuned index {chosen} ({} B) vs sweep-optimal {optimal} ({} B); curve {energies:?}",
            tuning.benchmark.name(),
            FIGURE5_AREAS[chosen],
            FIGURE5_AREAS[optimal],
        );
        // The search must have measured strictly fewer points than the
        // sweep it replaces (that is its reason to exist).
        assert!(tuning.refinement.steps.len() < FIGURE5_AREAS.len());
        // The prediction at the chosen area should be close to the
        // measurement — the covered/uncovered split is the only model.
        let ratio = tuning.predicted_measured_ratio();
        assert!(
            (0.8..=1.2).contains(&ratio),
            "{}: predicted/measured {ratio}",
            tuning.benchmark.name()
        );
    }
}

#[test]
fn tune_binary_exit_codes_distinguish_usage_from_failure() {
    use std::process::Command;
    // A malformed argument is a usage mistake: exit 2.
    let out = Command::new(env!("CARGO_BIN_EXE_tune"))
        .args(["--tolerance", "nope"])
        .output()
        .expect("run tune");
    assert_eq!(out.status.code(), Some(2), "bad threshold token must exit 2");
    let out = Command::new(env!("CARGO_BIN_EXE_tune"))
        .args(["--quick", "--all"])
        .output()
        .expect("run tune");
    assert_eq!(out.status.code(), Some(2), "conflicting flags must exit 2");
    // A pipeline failure (here: the manifest directory cannot be
    // created because a file is in the way) is a genuine tuning-run
    // failure: exit 1, not the old blanket 2.
    let blocker = std::env::temp_dir().join(format!("wp-tune-notadir-{}", std::process::id()));
    std::fs::write(&blocker, b"in the way").expect("write blocker");
    let out = Command::new(env!("CARGO_BIN_EXE_tune"))
        .arg("--quick")
        .env("WP_BENCH_DIR", blocker.join("sub"))
        .output()
        .expect("run tune");
    let _ = std::fs::remove_file(&blocker);
    assert_eq!(
        out.status.code(),
        Some(1),
        "pipeline failure must exit 1; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn fig5_rejects_tuned_manifest_with_mismatched_grid() {
    use std::process::Command;
    // A tuned manifest from a non-sweep grid must be refused before
    // the sweep even starts — checking "within one grid step" against
    // the wrong neighbors proves nothing.
    let manifest = r#"{
  "schema": "tuned_areas/v1",
  "tolerance": 0.02,
  "grid": [4096, 2048],
  "benchmarks": [{"benchmark": "crc", "chosen_area_bytes": 2048, "measured_pj": 1.0}]
}"#;
    let path = std::env::temp_dir().join(format!("wp-fig5-badgrid-{}.json", std::process::id()));
    std::fs::write(&path, manifest).expect("write manifest");
    let out = Command::new(env!("CARGO_BIN_EXE_fig5"))
        .args(["--areas", &path.display().to_string()])
        .output()
        .expect("run fig5");
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(2), "mismatched grid must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("[4096, 2048]") && stderr.contains("32768"),
        "error must name both grids: {stderr}"
    );
}

#[test]
fn emitted_manifest_round_trips_into_the_validator() {
    let (tunings, manifest) = tune_quick();
    let parsed = TunedManifest::parse(&manifest.to_pretty(), "in-memory").expect("parses");
    assert_eq!(parsed.tolerance, DEFAULT_TOLERANCE);
    assert_eq!(parsed.area_for("crc"), Some(tunings[0].chosen_area_bytes));
}
