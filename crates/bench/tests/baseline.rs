//! Round-trip integration tests for the stored-baseline subsystem:
//! bless → gate identical, served from the warm store; one changed value
//! in a blessed manifest → gate exits exactly 1 naming that JSON path
//! while the other four manifests stay identical; two blesses from
//! independent stores are byte-identical.

use std::path::{Path, PathBuf};

use wp_bench::baseline::{baseline_file, bless, gate, PathDiff, Verdict};
use wp_bench::campaign::Group;
use wp_bench::Json;
use wp_campaign::Store;
use wp_obs::Obs;

/// A fresh scratch directory under the system temp dir; any leftover
/// from a previous run is cleared first.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wp-baseline-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The blessed `runs` array of `group`'s manifest.
fn blessed_runs(blessed: &Path, group: Group) -> Vec<Json> {
    let text = std::fs::read_to_string(blessed.join(baseline_file(group))).expect("read");
    let document = Json::parse(&text).expect("blessed manifest parses");
    document.get("runs").and_then(Json::as_array).expect("runs").to_vec()
}

/// Rewrites the first `from` in `group`'s blessed file to `to`, gates,
/// restores the file, and returns the one path the gate names. The gate
/// must exit exactly 1, report that path in `BENCH_gate.json`'s body,
/// and find the other four manifests identical.
fn gate_mutated(blessed: &Path, store: &Store, group: Group, from: &str, to: &str) -> PathDiff {
    let file = baseline_file(group);
    let path = blessed.join(&file);
    let text = std::fs::read_to_string(&path).expect("read blessed manifest");
    let mutated = text.replacen(from, to, 1);
    assert_ne!(text, mutated, "{from:?} not found in {file}");
    std::fs::write(&path, mutated).expect("write mutated manifest");
    let report = gate(blessed, store, true, None).expect("gate");
    std::fs::write(&path, text).expect("restore blessed manifest");

    assert_eq!(report.exit_code(), 1, "a changed value exits exactly 1");
    let body = report.json().to_compact();
    let mut named = Vec::new();
    for (name, verdict) in report.manifests {
        match verdict {
            Verdict::Differs(paths) if name == file => named = paths,
            Verdict::Identical if name != file => {}
            other => panic!("{name}: unexpected verdict {other:?}"),
        }
    }
    assert_eq!(named.len(), 1, "{file}: {named:?}");
    assert!(body.contains(&format!("\"path\":\"{}\"", named[0].path)), "{body}");
    named.remove(0)
}

#[test]
fn bless_gate_round_trip_and_perturbation() {
    let store = Store::new(scratch("store"));
    let blessed = scratch("blessed");
    let paths = bless(&blessed, &store, true).expect("bless");
    assert_eq!(paths.len(), Group::BASELINE.len());
    assert!(paths.iter().all(|path| path.is_file()), "{paths:?}");

    // A gate straight after a bless must be clean: same tree, same
    // DAG, every manifest deterministic. The bless left the store warm,
    // so every manifest resolves from it without re-simulating.
    let obs = Obs::new();
    let report = gate(&blessed, &store, true, Some(&obs)).expect("gate");
    assert!(report.is_clean(), "fresh gate differs: {}", report.json().to_compact());
    assert_eq!(report.exit_code(), 0);
    let counter = |name| obs.metrics.counter_value(name).unwrap_or(0);
    assert_eq!(counter("wp_campaign_store_misses_total"), 0);
    assert_eq!(counter("wp_campaign_store_hits_total"), Group::BASELINE.len() as u64);

    // One cycle more in the first traced run. A 2% tolerance, or a
    // join that reads only fetches and energy, would miss it.
    let runs = blessed_runs(&blessed, Group::Trace);
    let cycles = runs[0].get("cycles").and_then(Json::as_u64).expect("runs[0].cycles");
    let from = format!("\"cycles\": {cycles}");
    let to = format!("\"cycles\": {}", cycles + 1);
    let diff = gate_mutated(&blessed, &store, Group::Trace, &from, &to);
    assert_eq!(diff.path, "runs[0].cycles");
    assert_eq!(
        (diff.blessed, diff.fresh),
        (Some(Json::Uint(cycles + 1)), Some(Json::Uint(cycles)))
    );

    // A chaos rung reclassified as a silent corruption: no metric moves,
    // the classification does.
    let rung = blessed_runs(&blessed, Group::Chaos)
        .iter()
        .position(|run| run.get("outcome").and_then(Json::as_str) == Some("graceful"))
        .expect("a graceful rung");
    let from = "\"outcome\": \"graceful\"";
    let diff =
        gate_mutated(&blessed, &store, Group::Chaos, from, "\"outcome\": \"silent-corruption\"");
    assert_eq!(diff.path, format!("runs[{rung}].outcome"));
    assert_eq!(diff.blessed, Some(Json::from("silent-corruption")));
    assert_eq!(diff.fresh, Some(Json::from("graceful")));

    // The restored directory gates clean again.
    assert!(gate(&blessed, &store, true, None).expect("gate").is_clean());

    let _ = std::fs::remove_dir_all(blessed);
    let _ = std::fs::remove_dir_all(store.root());
}

#[test]
fn independent_bless_runs_are_byte_identical() {
    let dirs = [scratch("determinism-a"), scratch("determinism-b")];
    let stores = [scratch("determinism-store-a"), scratch("determinism-store-b")].map(Store::new);
    bless(&dirs[0], &stores[0], true).expect("first bless");
    bless(&dirs[1], &stores[1], true).expect("second bless");
    for group in Group::BASELINE {
        let name = baseline_file(group);
        let first = std::fs::read(dirs[0].join(&name)).expect("read first");
        let second = std::fs::read(dirs[1].join(&name)).expect("read second");
        assert_eq!(first, second, "{name} differs between two bless runs");
    }
    for dir in [dirs[0].as_path(), dirs[1].as_path(), stores[0].root(), stores[1].root()] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
