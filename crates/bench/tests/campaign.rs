//! End-to-end tests for the campaign DAG: cold-run byte identity with
//! the standalone builders and with a direct engine run, warm-rerun
//! purity (zero misses, identical bytes), single-benchmark
//! invalidation recomputing only its dependency cone, a killed
//! campaign resuming through the store, and the store-backed gate
//! resolving every fresh manifest as a hit against a warm store.

use std::path::PathBuf;
use std::sync::Arc;

use wp_bench::baseline::gate_via_store;
use wp_bench::campaign::{
    fig1_data, fig1_manifest, fig_experiment, keys, plan, run, CampaignConfig, Group, InputTags,
};
use wp_bench::{Engine, Json};
use wp_campaign::{NullMonitor, Store};
use wp_core::wp_mem::CacheGeometry;
use wp_core::wp_workloads::{Benchmark, InputSet};
use wp_core::{CoreError, Scheme};
use wp_obs::Obs;
use wp_tune::DiffThresholds;

/// A fresh scratch directory under the system temp dir; any leftover
/// from a previous run is cleared first.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wp-campaign-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn hits(obs: &Obs) -> u64 {
    obs.metrics.counter_value("wp_campaign_store_hits_total").unwrap_or(0)
}

fn misses(obs: &Obs) -> u64 {
    obs.metrics.counter_value("wp_campaign_store_misses_total").unwrap_or(0)
}

#[test]
fn campaign_manifests_match_standalone_builders_and_carry_task_keys() {
    let store = Store::new(scratch("builders"));
    let config = CampaignConfig::new(true, vec![Group::Fig1, Group::Table1]);
    let run = run(&config, &store, None);
    assert!(run.report.ok(), "campaign failed: {:?}", run.report.failures());

    // The DAG nodes call the very builders the standalone binaries
    // call, so the payloads must be byte-identical to a direct render.
    let fig1 = run.manifest(Group::Fig1).expect("fig1 payload");
    assert_eq!(fig1, fig1_manifest(&fig1_data(), &keys::fig1()).to_pretty().as_bytes());
    for group in [Group::Fig1, Group::Table1] {
        let text = String::from_utf8(run.manifest(group).expect("payload").to_vec()).expect("utf8");
        assert!(text.contains("\"task_key\""), "{group:?} manifest lacks provenance.task_key");
    }

    let _ = std::fs::remove_dir_all(store.root());
}

#[test]
fn warm_rerun_is_pure_hits_and_tag_flip_recomputes_only_the_cone() {
    let store = Store::new(scratch("incremental"));
    let groups = vec![Group::Fig1, Group::Table1, Group::Fig4, Group::Trace, Group::Tune];
    let config = CampaignConfig::new(true, groups.clone());

    // Cold run: every node computes. 12 nodes total — fig1, table1,
    // fig4 (2 benchmarks x 2 schemes = 4 measures + manifest), trace
    // (Crc x 2 schemes = 2 runs + manifest), tune (Crc + manifest).
    let obs1 = Obs::new();
    let run1 = run(&config, &store, Some(&obs1));
    assert!(run1.report.ok(), "cold run failed: {:?}", run1.report.failures());
    assert_eq!((misses(&obs1), hits(&obs1)), (12, 0), "cold run must compute all 12 nodes");

    // Warm rerun: the five manifest roots hit, their whole upstream
    // cones prune — nothing re-simulates, bytes identical.
    let obs2 = Obs::new();
    let run2 = run(&config, &store, Some(&obs2));
    assert!(run2.report.ok());
    assert_eq!(misses(&obs2), 0, "warm rerun must not recompute anything");
    assert_eq!(hits(&obs2), 5, "each manifest root resolves from the store");
    assert_eq!(run2.report.pruned(), 7, "upstream measure/run nodes never evaluate");
    for &group in &groups {
        assert_eq!(
            run1.manifest(group),
            run2.manifest(group),
            "{group:?} warm manifest must be byte-identical"
        );
    }

    // Flip one benchmark's input tag: only the nodes whose keys mix in
    // that benchmark recompute — fig4's two Crc measures + manifest,
    // both trace runs (trace quick is Crc-only) + manifest, tune/crc +
    // manifest. Everything else (fig1, table1, the Sha measures) hits.
    let mut flipped = config.clone();
    flipped.tags = InputTags::default().with(Benchmark::Crc, "v2");
    let obs3 = Obs::new();
    let run3 = run(&flipped, &store, Some(&obs3));
    assert!(run3.report.ok(), "flipped run failed: {:?}", run3.report.failures());
    assert_eq!(misses(&obs3), 8, "exactly the Crc-dependent cone recomputes");
    assert_eq!(hits(&obs3), 4, "fig1, table1 and the two Sha measures stay hits");
    for group in [Group::Fig1, Group::Table1] {
        assert_eq!(
            run1.manifest(group),
            run3.manifest(group),
            "{group:?} does not depend on Crc inputs"
        );
    }
    // The recomputed manifests carry the new key, so their bytes move.
    assert_ne!(run1.manifest(Group::Fig4), run3.manifest(Group::Fig4));

    let _ = std::fs::remove_dir_all(store.root());
}

/// The campaign measures each figure job in its own node, one lane per
/// execution, while the figure binaries run the whole suite through
/// [`Engine::run`]'s shared lanes; both must render the same `suite`.
#[test]
fn campaign_figure_suites_equal_a_direct_engine_run() {
    let store = Store::new(scratch("suites"));
    let config = CampaignConfig::new(true, vec![Group::Fig4, Group::Fig5]);
    let campaign = run(&config, &store, None);
    assert!(campaign.report.ok(), "campaign failed: {:?}", campaign.report.failures());

    let engine = Engine::with_workers(2);
    for group in [Group::Fig4, Group::Fig5] {
        let direct = engine.run(&fig_experiment(group, true).expect("suite group"));
        assert!(direct.is_complete(), "{group:?} failures: {:?}", direct.failures);
        let bytes = campaign.manifest(group).expect("payload");
        let manifest = Json::parse(std::str::from_utf8(bytes).expect("utf8")).expect("json");
        let suite = manifest.get("suite").expect("suite section");
        assert_eq!(
            suite.to_pretty(),
            direct.results_json().to_pretty(),
            "{group:?} campaign suite diverges from a direct engine run"
        );
    }

    let _ = std::fs::remove_dir_all(store.root());
}

/// A killed campaign resumes through the store. The kill fails one
/// fig4 measure job, so its node and the fig4 root publish nothing
/// while the three survivors do; one survivor's entry is then torn
/// mid-payload. A rerun on a clean engine recomputes exactly the
/// victim, the torn node and the root, serves the other two survivors
/// from the store, and renders the uninterrupted run's bytes.
#[test]
fn killed_campaign_resumes_through_the_store() {
    let store = Store::new(scratch("killed"));
    let config = CampaignConfig::new(true, vec![Group::Fig4]);
    let victim = (Benchmark::Sha, Scheme::WayPlacement { area_bytes: 32 * 1024 });

    let killed = Arc::new(Engine::new().with_fault(move |benchmark, _geometry, scheme| {
        ((benchmark, scheme) == victim).then(|| CoreError::Io {
            context: "campaign kill".to_string(),
            message: "injected mid-campaign kill".to_string(),
        })
    }));
    let killed_plan = plan(&config, &killed);
    let partial = killed_plan.dag.run(&store, &killed_plan.roots(), config.workers, &NullMonitor);
    assert_eq!(partial.failed(), 1, "exactly the victim fails: {:?}", partial.failures());
    assert_eq!(partial.skipped(), 1, "the fig4 root waits on the victim");

    // Tear the tail off a survivor's entry, as a crash mid-write would.
    let survivor = keys::measure(
        Benchmark::Crc,
        CacheGeometry::xscale_icache(),
        Scheme::WayMemoization,
        InputSet::Small,
        &InputTags::default(),
    )
    .hex();
    let entry = store.root().join("objects").join(&survivor[..2]).join(&survivor);
    let bytes = std::fs::read(&entry).expect("survivor published");
    std::fs::write(&entry, &bytes[..bytes.len() - 7]).expect("tear entry");

    let resumed = run(&config, &store, None);
    assert!(resumed.report.ok(), "resume failed: {:?}", resumed.report.failures());
    assert_eq!(resumed.report.misses(), 3, "victim, torn survivor and fig4 root recompute");
    assert_eq!(resumed.report.hits(), 2, "the two intact survivors come from the store");

    let fresh = Store::new(scratch("killed-reference"));
    let reference = run(&config, &fresh, None);
    assert!(reference.report.ok(), "reference failed: {:?}", reference.report.failures());
    assert_eq!(
        resumed.manifest(Group::Fig4),
        reference.manifest(Group::Fig4),
        "a resumed campaign must render the uninterrupted manifest byte for byte"
    );

    let _ = std::fs::remove_dir_all(store.root());
    let _ = std::fs::remove_dir_all(fresh.root());
}

#[test]
fn gate_via_store_is_pure_hits_against_a_warm_store() {
    let store = Store::new(scratch("gate"));
    let config = CampaignConfig::new(true, Group::BASELINE.to_vec());
    let warm = run(&config, &store, None);
    assert!(warm.report.ok(), "warm-up run failed: {:?}", warm.report.failures());

    // Bless straight from the campaign payloads: the store-backed gate
    // must then diff clean without a single re-simulation.
    let blessed = scratch("gate-blessed");
    std::fs::create_dir_all(&blessed).expect("create blessed dir");
    for (group, bytes) in warm.manifests() {
        let name = format!("BENCH_{}.json", group.manifest_name());
        std::fs::write(blessed.join(name), bytes).expect("write blessed manifest");
    }

    let obs = Obs::new();
    let report = gate_via_store(&blessed, &store, true, DiffThresholds::default(), Some(&obs))
        .expect("gate");
    assert!(report.is_clean(), "warm gate flagged: {:?}", report.json().to_compact());
    assert_eq!(report.exit_code(), 0);
    assert_eq!(misses(&obs), 0, "a warm gate re-simulates nothing");
    assert_eq!(
        hits(&obs),
        Group::BASELINE.len() as u64,
        "every fresh manifest resolves from the store"
    );

    let _ = std::fs::remove_dir_all(store.root());
    let _ = std::fs::remove_dir_all(blessed);
}
