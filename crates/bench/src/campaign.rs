//! Every experiment in the repository as **one content-addressed
//! DAG** — the wp-bench glue behind the `wp-campaign` binary.
//!
//! The standalone binaries (`fig4`, `trace_report`, `tune`, …) each
//! re-run their pipeline from scratch; this module plans the same
//! pipelines as [`wp_campaign::Dag`] nodes whose keys commit to the
//! benchmark, scheme, geometry, input set and pass configuration (and,
//! through Merkle composition, to the whole dependency cone). A node
//! whose key is already in the [`wp_campaign::Store`] is served from
//! disk; everything downstream of unchanged inputs is pruned without
//! even a probe.
//!
//! Three invariants this module is responsible for:
//!
//! * **Byte identity** — a manifest assembled from stored payloads is
//!   byte-identical to the one the standalone binary writes. The
//!   figure binaries therefore share their manifest builders with the
//!   DAG nodes ([`fig1_manifest`], [`table1_manifest`], the suite
//!   assembly in [`plan`]), and every `BENCH_*.json` carries its
//!   producing node's key as `provenance.task_key`.
//! * **Pure nodes** — DAG nodes only *produce payloads*; all file
//!   emission happens after the run ([`write_manifests`]), so a store
//!   hit never skips a side effect.
//! * **Static keys** — every key is computable without running
//!   anything ([`keys`]), which is what lets the scheduler prune a
//!   whole dependency cone on a root hit and lets `explain` report
//!   provenance offline.
//!
//! Incremental recompute hangs off [`InputTags`]: each benchmark
//! carries an input-set tag (default `"v1"`) that is mixed into every
//! leaf key touching that benchmark. Re-tagging one benchmark models
//! "its inputs changed": exactly the manifests downstream of it
//! recompute, and everything else is served from the store.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use wp_campaign::{Dag, Monitor, NullMonitor, RunReport, Store, TaskId, TaskKey};
use wp_core::wp_mem::{CacheGeometry, FetchStats, ICacheConfig, InstructionCache, MemoryConfig};
use wp_core::wp_sim::SimConfig;
use wp_core::wp_workloads::{Benchmark, InputSet};
use wp_core::Scheme;
use wp_obs::metrics::{Counter, Histogram};
use wp_obs::Obs;
use wp_tune::DEFAULT_TOLERANCE;

use crate::engine::{Engine, Experiment, RetryPolicy};
use crate::{baseline, Json, FIGURE5_AREAS};

/// Per-benchmark input-set tags. The tag names *which inputs* a
/// benchmark's jobs consume; it is mixed into every leaf task key that
/// touches the benchmark, so changing a tag invalidates exactly that
/// benchmark's subgraph. The default tag is [`InputTags::DEFAULT_TAG`]
/// — the committed input generation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InputTags(Vec<(Benchmark, String)>);

impl InputTags {
    /// The tag every benchmark carries until overridden.
    pub const DEFAULT_TAG: &'static str = "v1";

    /// The tag of `benchmark`.
    #[must_use]
    pub fn tag(&self, benchmark: Benchmark) -> &str {
        self.0
            .iter()
            .find(|(b, _)| *b == benchmark)
            .map_or(Self::DEFAULT_TAG, |(_, tag)| tag.as_str())
    }

    /// Overrides the tag of `benchmark`.
    pub fn set(&mut self, benchmark: Benchmark, tag: impl Into<String>) {
        let tag = tag.into();
        if let Some(entry) = self.0.iter_mut().find(|(b, _)| *b == benchmark) {
            entry.1 = tag;
        } else {
            self.0.push((benchmark, tag));
        }
    }

    /// Builder form of [`InputTags::set`].
    #[must_use]
    pub fn with(mut self, benchmark: Benchmark, tag: impl Into<String>) -> InputTags {
        self.set(benchmark, tag);
        self
    }
}

/// Static task-key derivation: the campaign's whole key space,
/// computable without running anything. The part builders here are the
/// single source of truth — [`plan`] hands the same parts to
/// [`Dag::add`], and a unit test pins the two producing identical
/// keys, so a key printed into `provenance.task_key` always names the
/// node that can rebuild those bytes.
pub mod keys {
    use super::{Benchmark, CacheGeometry, Experiment, InputSet, InputTags, Scheme, TaskKey};
    use crate::baseline;

    /// Global salt mixed into every key. Bump the epoch to invalidate
    /// the entire store after a change that alters payloads without
    /// altering any key input (e.g. a simulator fix). The chaos and obs
    /// nodes also mix in their manifest's schema tag, so bumping a tag
    /// invalidates only that node.
    pub const CAMPAIGN_EPOCH: &str = "wp-campaign/epoch-1";

    pub(crate) fn measure_parts(
        benchmark: Benchmark,
        geometry: CacheGeometry,
        scheme: Scheme,
        set: InputSet,
        tags: &InputTags,
    ) -> Vec<String> {
        vec![
            "measure".to_string(),
            CAMPAIGN_EPOCH.to_string(),
            benchmark.name().to_string(),
            tags.tag(benchmark).to_string(),
            geometry.to_string(),
            scheme.label(),
            set.name().to_string(),
        ]
    }

    /// One engine measurement: a single `(benchmark, geometry, scheme,
    /// input set)` job.
    #[must_use]
    pub fn measure(
        benchmark: Benchmark,
        geometry: CacheGeometry,
        scheme: Scheme,
        set: InputSet,
        tags: &InputTags,
    ) -> TaskKey {
        TaskKey::derive(&measure_parts(benchmark, geometry, scheme, set, tags), &[])
    }

    pub(crate) fn trace_run_parts(
        benchmark: Benchmark,
        geometry: CacheGeometry,
        scheme: Scheme,
        set: InputSet,
        tags: &InputTags,
    ) -> Vec<String> {
        vec![
            "trace-run".to_string(),
            CAMPAIGN_EPOCH.to_string(),
            benchmark.name().to_string(),
            tags.tag(benchmark).to_string(),
            geometry.to_string(),
            scheme.label(),
            set.name().to_string(),
            baseline::TOP_K.to_string(),
        ]
    }

    /// One canonical traced run (counters, energies, hot chains).
    #[must_use]
    pub fn trace_run(
        benchmark: Benchmark,
        geometry: CacheGeometry,
        scheme: Scheme,
        set: InputSet,
        tags: &InputTags,
    ) -> TaskKey {
        TaskKey::derive(&trace_run_parts(benchmark, geometry, scheme, set, tags), &[])
    }

    pub(crate) fn fig1_parts() -> Vec<String> {
        vec!["fig1".to_string(), CAMPAIGN_EPOCH.to_string()]
    }

    /// The figure-1 hand-example manifest (pure, no benchmark inputs).
    #[must_use]
    pub fn fig1() -> TaskKey {
        TaskKey::derive(&fig1_parts(), &[])
    }

    pub(crate) fn table1_parts() -> Vec<String> {
        vec!["table1".to_string(), CAMPAIGN_EPOCH.to_string()]
    }

    /// The table-1 configuration manifest (pure, no benchmark inputs).
    #[must_use]
    pub fn table1() -> TaskKey {
        TaskKey::derive(&table1_parts(), &[])
    }

    pub(crate) fn fig_manifest_parts(fig: &str, experiment: &Experiment) -> Vec<String> {
        vec![
            "fig-manifest".to_string(),
            CAMPAIGN_EPOCH.to_string(),
            fig.to_string(),
            experiment.json().to_compact(),
        ]
    }

    pub(crate) fn experiment_measure_keys(
        experiment: &Experiment,
        tags: &InputTags,
    ) -> Vec<TaskKey> {
        let mut deps = Vec::with_capacity(experiment.job_count());
        for &benchmark in &experiment.benchmarks {
            for &geometry in &experiment.geometries {
                for &scheme in &experiment.schemes {
                    deps.push(measure(benchmark, geometry, scheme, experiment.input_set, tags));
                }
            }
        }
        deps
    }

    /// A figure suite manifest (`fig4`/`fig5`/`fig6`): Merkle over its
    /// per-job measure keys in row order.
    #[must_use]
    pub fn fig_manifest(fig: &str, experiment: &Experiment, tags: &InputTags) -> TaskKey {
        TaskKey::derive(
            &fig_manifest_parts(fig, experiment),
            &experiment_measure_keys(experiment, tags),
        )
    }

    pub(crate) fn trace_manifest_parts(quick: bool) -> Vec<String> {
        vec!["trace-manifest".to_string(), CAMPAIGN_EPOCH.to_string(), quick.to_string()]
    }

    /// The trace-report baseline manifest: Merkle over its canonical
    /// runs in manifest order.
    #[must_use]
    pub fn trace_manifest(quick: bool, tags: &InputTags) -> TaskKey {
        let icache = CacheGeometry::xscale_icache();
        let (benchmarks, set) = baseline::trace_benchmarks(quick);
        let mut deps = Vec::new();
        for &benchmark in benchmarks {
            for scheme in baseline::trace_schemes() {
                deps.push(trace_run(benchmark, icache, scheme, set, tags));
            }
        }
        TaskKey::derive(&trace_manifest_parts(quick), &deps)
    }

    pub(crate) fn tune_parts(
        benchmark: Benchmark,
        icache: CacheGeometry,
        grid: &[u32],
        tolerance: f64,
        set: InputSet,
        tags: &InputTags,
    ) -> Vec<String> {
        let grid: Vec<String> = grid.iter().map(u32::to_string).collect();
        vec![
            "tune".to_string(),
            CAMPAIGN_EPOCH.to_string(),
            benchmark.name().to_string(),
            tags.tag(benchmark).to_string(),
            icache.to_string(),
            grid.join(","),
            tolerance.to_string(),
            set.name().to_string(),
        ]
    }

    /// One benchmark's autotune (prediction + bounded refinement).
    #[must_use]
    pub fn tune(
        benchmark: Benchmark,
        icache: CacheGeometry,
        grid: &[u32],
        tolerance: f64,
        set: InputSet,
        tags: &InputTags,
    ) -> TaskKey {
        TaskKey::derive(&tune_parts(benchmark, icache, grid, tolerance, set, tags), &[])
    }

    pub(crate) fn tuned_manifest_parts() -> Vec<String> {
        vec!["tuned-manifest".to_string(), CAMPAIGN_EPOCH.to_string()]
    }

    /// The tuned-areas manifest: Merkle over its per-benchmark tune
    /// keys (which already commit to grid, tolerance and input set, so
    /// the manifest parts carry no configuration of their own).
    #[must_use]
    pub fn tuned_manifest(
        benchmarks: &[Benchmark],
        icache: CacheGeometry,
        grid: &[u32],
        tolerance: f64,
        set: InputSet,
        tags: &InputTags,
    ) -> TaskKey {
        let deps: Vec<TaskKey> = benchmarks
            .iter()
            .map(|&benchmark| tune(benchmark, icache, grid, tolerance, set, tags))
            .collect();
        TaskKey::derive(&tuned_manifest_parts(), &deps)
    }

    pub(crate) fn chaos_parts(quick: bool, tags: &InputTags) -> Vec<String> {
        let (benchmarks, set) = crate::chaos::chaos_benchmarks(quick);
        let mut parts = vec![
            "chaos".to_string(),
            CAMPAIGN_EPOCH.to_string(),
            crate::chaos::CHAOS_SCHEMA.to_string(),
            quick.to_string(),
            set.name().to_string(),
        ];
        parts.extend(benchmarks.iter().map(|b| format!("{}={}", b.name(), tags.tag(*b))));
        parts
    }

    /// The chaos-campaign manifest (monolithic: the fault ladder is
    /// one pipeline, so member benchmark tags are mixed into the parts
    /// instead of into per-job dependency keys).
    #[must_use]
    pub fn chaos(quick: bool, tags: &InputTags) -> TaskKey {
        TaskKey::derive(&chaos_parts(quick, tags), &[])
    }

    pub(crate) fn obs_parts(quick: bool, tags: &InputTags) -> Vec<String> {
        let experiment = crate::obs::obs_experiment(quick);
        let mut parts = vec![
            "obs".to_string(),
            CAMPAIGN_EPOCH.to_string(),
            crate::obs::OBS_SCHEMA.to_string(),
            quick.to_string(),
            experiment.json().to_compact(),
        ];
        parts
            .extend(experiment.benchmarks.iter().map(|b| format!("{}={}", b.name(), tags.tag(*b))));
        parts
    }

    /// The obs-report reconciliation manifest (monolithic, like
    /// [`chaos`]).
    #[must_use]
    pub fn obs(quick: bool, tags: &InputTags) -> TaskKey {
        TaskKey::derive(&obs_parts(quick, tags), &[])
    }

    pub(crate) fn layout_run_parts(
        benchmark: Benchmark,
        geometry: CacheGeometry,
        set: InputSet,
        tags: &InputTags,
    ) -> Vec<String> {
        let grid: Vec<String> = super::FIGURE5_AREAS.iter().map(u32::to_string).collect();
        let mut parts = vec![
            "layout-run".to_string(),
            CAMPAIGN_EPOCH.to_string(),
            benchmark.name().to_string(),
            tags.tag(benchmark).to_string(),
            geometry.to_string(),
            set.name().to_string(),
            crate::layout_compare::COMPARE_AREA_BYTES.to_string(),
            grid.join(","),
            super::DEFAULT_TOLERANCE.to_string(),
            crate::layout_compare::RANDOM_SEED.to_string(),
        ];
        parts
            .extend(crate::layout_compare::compare_layouts().iter().map(|l| l.label().to_string()));
        parts
    }

    /// One benchmark's layout competition: every pass linked, traced
    /// and priced under both way-aware schemes.
    #[must_use]
    pub fn layout_run(
        benchmark: Benchmark,
        geometry: CacheGeometry,
        set: InputSet,
        tags: &InputTags,
    ) -> TaskKey {
        TaskKey::derive(&layout_run_parts(benchmark, geometry, set, tags), &[])
    }

    pub(crate) fn layout_manifest_parts(quick: bool) -> Vec<String> {
        vec!["layout-manifest".to_string(), CAMPAIGN_EPOCH.to_string(), quick.to_string()]
    }

    /// The layout-compare manifest: Merkle over its per-benchmark
    /// competition keys (which already commit to the pass roster, grid
    /// and compare area).
    #[must_use]
    pub fn layout_manifest(quick: bool, tags: &InputTags) -> TaskKey {
        let icache = CacheGeometry::xscale_icache();
        let (benchmarks, set) = crate::layout_compare::layout_benchmarks(quick);
        let deps: Vec<TaskKey> =
            benchmarks.iter().map(|&b| layout_run(b, icache, set, tags)).collect();
        TaskKey::derive(&layout_manifest_parts(quick), &deps)
    }
}

/// One schedulable pipeline family of the campaign.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Group {
    /// The figure-1 hand example (pure).
    Fig1,
    /// The table-1 configuration dump (pure).
    Table1,
    /// The figure-4 suite (xscale cache, way-memoization vs 32 KB WP).
    Fig4,
    /// The figure-5 area sweep.
    Fig5,
    /// The figure-6 size × associativity grid.
    Fig6,
    /// The trace-report baseline pipeline.
    Trace,
    /// The tuned-areas autotune pipeline.
    Tune,
    /// The chaos-campaign resilience pipeline.
    Chaos,
    /// The obs-report reconciliation pipeline.
    Obs,
    /// The layout-compare competition pipeline.
    LayoutCompare,
}

impl Group {
    /// Every group, in planning order.
    pub const ALL: [Group; 10] = [
        Group::Fig1,
        Group::Table1,
        Group::Fig4,
        Group::Fig5,
        Group::Fig6,
        Group::Trace,
        Group::Tune,
        Group::Chaos,
        Group::Obs,
        Group::LayoutCompare,
    ];
    /// The figure/table groups (`run --only fig`).
    pub const FIGURES: [Group; 5] =
        [Group::Fig1, Group::Table1, Group::Fig4, Group::Fig5, Group::Fig6];
    /// The five blessed-baseline groups — what [`baseline::bless`] and
    /// [`baseline::gate`] run — in the order they report them.
    pub const BASELINE: [Group; 5] =
        [Group::Trace, Group::Tune, Group::Chaos, Group::Obs, Group::LayoutCompare];

    /// The `BENCH_<name>.json` stem this group's manifest is written
    /// to — identical to the standalone binary's output path.
    #[must_use]
    pub fn manifest_name(self) -> &'static str {
        match self {
            Group::Fig1 => "fig1",
            Group::Table1 => "table1",
            Group::Fig4 => "fig4",
            Group::Fig5 => "fig5",
            Group::Fig6 => "fig6",
            Group::Trace => "trace_report",
            Group::Tune => "tuned_areas",
            Group::Chaos => "chaos_campaign",
            Group::Obs => "obs_report",
            Group::LayoutCompare => "layout_compare",
        }
    }

    /// Parses a `run --only` selector into the groups it names.
    /// Accepts family selectors (`fig`, `gate`) and individual
    /// manifest names (`fig4`, `tuned_areas`, `tune`, …).
    #[must_use]
    pub fn parse(selector: &str) -> Option<Vec<Group>> {
        match selector {
            "all" => Some(Group::ALL.to_vec()),
            "fig" | "figs" | "figures" => Some(Group::FIGURES.to_vec()),
            "gate" | "baseline" => Some(Group::BASELINE.to_vec()),
            "fig1" => Some(vec![Group::Fig1]),
            "table1" => Some(vec![Group::Table1]),
            "fig4" => Some(vec![Group::Fig4]),
            "fig5" => Some(vec![Group::Fig5]),
            "fig6" => Some(vec![Group::Fig6]),
            "trace" | "trace_report" => Some(vec![Group::Trace]),
            "tune" | "tuned_areas" => Some(vec![Group::Tune]),
            "chaos" | "chaos_campaign" => Some(vec![Group::Chaos]),
            "obs" | "obs_report" => Some(vec![Group::Obs]),
            "layout" | "layout_compare" => Some(vec![Group::LayoutCompare]),
            _ => None,
        }
    }
}

/// What to run and how.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Quick (CI smoke) shapes instead of the full published shapes.
    pub quick: bool,
    /// Which pipeline families to plan.
    pub groups: Vec<Group>,
    /// Per-benchmark input-set tags.
    pub tags: InputTags,
    /// DAG worker threads (each running node may itself fan out on the
    /// shared engine pool, so this stays small).
    pub workers: usize,
    /// Optional per-job watchdog handed to the campaign engine.
    pub job_time_limit: Option<Duration>,
}

impl CampaignConfig {
    /// A config over an explicit group list with default tags.
    #[must_use]
    pub fn new(quick: bool, groups: Vec<Group>) -> CampaignConfig {
        CampaignConfig {
            quick,
            groups,
            tags: InputTags::default(),
            workers: 2,
            job_time_limit: None,
        }
    }

    /// Everything ([`Group::ALL`]).
    #[must_use]
    pub fn all(quick: bool) -> CampaignConfig {
        CampaignConfig::new(quick, Group::ALL.to_vec())
    }
}

/// The benchmark matrix of the campaign's figure suites: full mode is
/// the published figure shape (all benchmarks, large inputs — exactly
/// what the standalone binaries run), quick is the CI smoke shape.
#[must_use]
pub fn fig_benchmarks(quick: bool) -> (Vec<Benchmark>, InputSet) {
    if quick {
        (vec![Benchmark::Crc, Benchmark::Sha], InputSet::Small)
    } else {
        (Benchmark::ALL.to_vec(), InputSet::Large)
    }
}

/// The engine experiment behind one figure suite (`None` for the
/// non-suite groups).
#[must_use]
pub fn fig_experiment(group: Group, quick: bool) -> Option<Experiment> {
    let (benchmarks, set) = fig_benchmarks(quick);
    let xscale = CacheGeometry::xscale_icache();
    let experiment = match group {
        Group::Fig4 => Experiment::new(
            benchmarks,
            [xscale],
            [Scheme::WayMemoization, Scheme::WayPlacement { area_bytes: 32 * 1024 }],
        ),
        Group::Fig5 => {
            let schemes: Vec<Scheme> = std::iter::once(Scheme::WayMemoization)
                .chain(FIGURE5_AREAS.iter().map(|&area_bytes| Scheme::WayPlacement { area_bytes }))
                .collect();
            Experiment::new(benchmarks, [xscale], schemes)
        }
        Group::Fig6 => Experiment::new(
            benchmarks,
            crate::figure6_geometries(),
            [
                Scheme::WayMemoization,
                Scheme::WayPlacement { area_bytes: 8 * 1024 },
                Scheme::WayPlacement { area_bytes: 2 * 1024 },
            ],
        ),
        _ => return None,
    };
    Some(experiment.with_input_set(set))
}

/// Figure 1's measured counts: the three-fetch hand example on the
/// 2-set, 4-way cache, warmed then counted.
#[derive(Clone, Copy, Debug)]
pub struct Fig1Data {
    /// The figure's cache geometry.
    pub geometry: CacheGeometry,
    /// Steady-state counts under the set-associative baseline.
    pub baseline: FetchStats,
    /// Steady-state counts under way-placement (same-line elision off,
    /// isolating the way effect).
    pub way_placement: FetchStats,
}

fn warm_and_count(cache: &mut InstructionCache, wp: bool) -> FetchStats {
    let addrs = [0x04u32, 0x08, 0x20];
    for addr in addrs {
        cache.fetch(addr, wp); // warm: fills + hint training
    }
    let before = *cache.stats();
    for addr in addrs {
        cache.fetch(addr, wp);
    }
    let after = *cache.stats();
    FetchStats {
        fetches: after.fetches - before.fetches,
        tag_comparisons: after.tag_comparisons - before.tag_comparisons,
        ..FetchStats::new()
    }
}

/// Runs the figure-1 hand example (shared by the `fig1` binary and the
/// campaign's fig1 node).
#[must_use]
pub fn fig1_data() -> Fig1Data {
    let geometry = CacheGeometry::new(256, 4, 32);
    let mut baseline = InstructionCache::new(ICacheConfig::baseline(geometry));
    let b = warm_and_count(&mut baseline, false);
    let mut wp = InstructionCache::new(ICacheConfig {
        same_line_elision: false, // the figure isolates the way effect
        ..ICacheConfig::way_placement(geometry)
    });
    let w = warm_and_count(&mut wp, true);
    Fig1Data { geometry, baseline: b, way_placement: w }
}

/// The `provenance` block a figure manifest carries: the task key of
/// the node that produced (or could reproduce) its bytes.
#[must_use]
pub fn provenance_json(task_key: &TaskKey) -> Json {
    Json::obj([("task_key", Json::from(task_key.hex().as_str()))])
}

/// Renders `BENCH_fig1.json` from [`Fig1Data`].
#[must_use]
pub fn fig1_manifest(data: &Fig1Data, task_key: &TaskKey) -> Json {
    let (b, w) = (data.baseline, data.way_placement);
    let saving = 100.0 * (1.0 - w.tag_comparisons as f64 / b.tag_comparisons as f64);
    Json::obj([
        ("figure", Json::from("fig1")),
        ("geometry", Json::from(data.geometry.to_string())),
        ("baseline_fetches", Json::from(b.fetches)),
        ("baseline_tag_comparisons", Json::from(b.tag_comparisons)),
        ("way_placement_fetches", Json::from(w.fetches)),
        ("way_placement_tag_comparisons", Json::from(w.tag_comparisons)),
        ("tag_saving_fraction", Json::from(saving / 100.0)),
        ("paper_baseline_tag_comparisons", Json::from(12u32)),
        ("paper_way_placement_tag_comparisons", Json::from(3u32)),
        ("provenance", provenance_json(task_key)),
    ])
}

/// Renders `BENCH_table1.json` from the live configuration defaults.
#[must_use]
pub fn table1_manifest(task_key: &TaskKey) -> Json {
    let geom = CacheGeometry::xscale_icache();
    let mem = MemoryConfig::baseline(geom);
    let sim = SimConfig::new(mem);
    Json::obj([
        ("figure", Json::from("table1")),
        ("memory_bus_bits", Json::from(32u32)),
        ("memory_latency_cycles", Json::from(mem.icache.miss_latency)),
        ("tlb_entries", Json::from(mem.itlb.entries)),
        ("tlb_page_bytes", Json::from(mem.itlb.page_bytes)),
        ("icache", Json::from(geom.to_string())),
        ("dcache", Json::from(mem.dcache.geometry.to_string())),
        ("write_buffer_entries", Json::from(mem.dcache.write_buffer_entries)),
        ("writeback_latency_cycles", Json::from(mem.dcache.writeback_latency)),
        ("btb_entries", Json::from(sim.btb_entries)),
        ("branch_penalty_cycles", Json::from(sim.branch_penalty)),
        ("load_latency_cycles", Json::from(sim.load_latency)),
        ("mul_latency_cycles", Json::from(sim.mul_latency)),
        ("provenance", provenance_json(task_key)),
    ])
}

/// A planned campaign: the DAG plus which node publishes each
/// requested group's manifest.
pub struct Plan {
    /// The content-addressed graph.
    pub dag: Dag,
    manifest_nodes: Vec<(Group, TaskId)>,
}

impl Plan {
    /// The `(group, node)` pairs whose payloads are the campaign's
    /// manifests, in config order.
    #[must_use]
    pub fn manifest_nodes(&self) -> &[(Group, TaskId)] {
        &self.manifest_nodes
    }

    /// The run roots: every manifest node.
    #[must_use]
    pub fn roots(&self) -> Vec<TaskId> {
        self.manifest_nodes.iter().map(|&(_, id)| id).collect()
    }
}

fn add_node(
    dag: &mut Dag,
    label: String,
    parts: &[String],
    deps: &[TaskId],
    run: impl Fn(&wp_campaign::TaskCtx<'_>) -> Result<Vec<u8>, String> + Send + Sync + 'static,
) -> TaskId {
    let part_refs: Vec<&str> = parts.iter().map(String::as_str).collect();
    dag.add(label, &part_refs, deps, run)
}

fn parse_payload(bytes: &[u8]) -> Result<Json, String> {
    let text =
        std::str::from_utf8(bytes).map_err(|e| format!("stored payload is not UTF-8: {e}"))?;
    Json::parse(text).map_err(|e| format!("stored payload is not JSON: {e}"))
}

fn parse_dep_payloads(ctx: &wp_campaign::TaskCtx<'_>) -> Result<Vec<Json>, String> {
    (0..ctx.dep_count()).map(|i| parse_payload(ctx.dep(i))).collect()
}

fn plan_measure(
    dag: &mut Dag,
    engine: &Arc<Engine>,
    benchmark: Benchmark,
    geometry: CacheGeometry,
    scheme: Scheme,
    set: InputSet,
    tags: &InputTags,
) -> TaskId {
    let parts = keys::measure_parts(benchmark, geometry, scheme, set, tags);
    let label =
        format!("measure/{}/{}/{}/{}", benchmark.name(), geometry, scheme.label(), set.name());
    let engine = Arc::clone(engine);
    add_node(dag, label, &parts, &[], move |_| {
        let experiment = Experiment::new([benchmark], [geometry], [scheme]).with_input_set(set);
        let report = engine.run(&experiment);
        if let Some(failure) = report.failures.first() {
            return Err(failure.to_string());
        }
        report
            .rows
            .first()
            .map(|row| row.json().to_compact().into_bytes())
            .ok_or_else(|| "engine returned no row".to_string())
    })
}

fn plan_fig(
    dag: &mut Dag,
    config: &CampaignConfig,
    engine: &Arc<Engine>,
    group: Group,
    experiment: Experiment,
) -> TaskId {
    let mut dep_ids = Vec::with_capacity(experiment.job_count());
    for &benchmark in &experiment.benchmarks {
        for &geometry in &experiment.geometries {
            for &scheme in &experiment.schemes {
                dep_ids.push(plan_measure(
                    dag,
                    engine,
                    benchmark,
                    geometry,
                    scheme,
                    experiment.input_set,
                    &config.tags,
                ));
            }
        }
    }
    let fig = group.manifest_name();
    let key = keys::fig_manifest(fig, &experiment, &config.tags);
    let parts = keys::fig_manifest_parts(fig, &experiment);
    let areas = (group == Group::Fig5).then(|| FIGURE5_AREAS.to_vec());
    add_node(dag, fig.to_string(), &parts, &dep_ids, move |ctx| {
        let rows = parse_dep_payloads(ctx)?;
        let suite = Json::obj([
            ("schema", Json::from("wp-bench/suite-v1")),
            ("experiment", experiment.json()),
            ("rows", Json::Arr(rows)),
            ("failures", Json::Arr(Vec::new())),
        ]);
        let mut manifest = Json::obj([("figure", Json::from(fig))]);
        if let Some(areas) = &areas {
            manifest.push("areas_bytes", Json::arr(areas.iter().map(|&a| Json::from(a))));
        }
        manifest.push("suite", suite);
        manifest.push("provenance", provenance_json(&key));
        Ok(manifest.to_pretty().into_bytes())
    })
}

fn plan_trace(dag: &mut Dag, config: &CampaignConfig, engine: &Arc<Engine>) -> TaskId {
    let quick = config.quick;
    let icache = CacheGeometry::xscale_icache();
    let (benchmarks, set) = baseline::trace_benchmarks(quick);
    let mut dep_ids = Vec::new();
    for &benchmark in benchmarks {
        for scheme in baseline::trace_schemes() {
            let parts = keys::trace_run_parts(benchmark, icache, scheme, set, &config.tags);
            let label = format!("trace-run/{}/{}", benchmark.name(), scheme.label());
            let engine = Arc::clone(engine);
            dep_ids.push(add_node(dag, label, &parts, &[], move |_| {
                baseline::canonical_run(&engine, benchmark, icache, scheme, set)
                    .map(|run| run.to_compact().into_bytes())
                    .map_err(|e| e.to_string())
            }));
        }
    }
    let key = keys::trace_manifest(quick, &config.tags);
    add_node(
        dag,
        "trace_report".to_string(),
        &keys::trace_manifest_parts(quick),
        &dep_ids,
        move |ctx| {
            let runs = parse_dep_payloads(ctx)?;
            Ok(baseline::trace_manifest_from_runs(quick, runs, &key).to_pretty().into_bytes())
        },
    )
}

fn plan_tune(dag: &mut Dag, config: &CampaignConfig, engine: &Arc<Engine>) -> TaskId {
    let quick = config.quick;
    let icache = CacheGeometry::xscale_icache();
    let (benchmarks, set) = baseline::tuned_benchmarks(quick);
    let mut dep_ids = Vec::with_capacity(benchmarks.len());
    for &benchmark in &benchmarks {
        let parts = keys::tune_parts(
            benchmark,
            icache,
            &FIGURE5_AREAS,
            DEFAULT_TOLERANCE,
            set,
            &config.tags,
        );
        let engine = Arc::clone(engine);
        dep_ids.push(add_node(dag, format!("tune/{}", benchmark.name()), &parts, &[], move |_| {
            crate::autotune::tune_benchmark_on(
                &engine,
                benchmark,
                icache,
                &FIGURE5_AREAS,
                DEFAULT_TOLERANCE,
                set,
            )
            .map(|tuning| tuning.json().to_compact().into_bytes())
            .map_err(|e| e.to_string())
        }));
    }
    let key = keys::tuned_manifest(
        &benchmarks,
        icache,
        &FIGURE5_AREAS,
        DEFAULT_TOLERANCE,
        set,
        &config.tags,
    );
    add_node(dag, "tuned_areas".to_string(), &keys::tuned_manifest_parts(), &dep_ids, move |ctx| {
        let rows = parse_dep_payloads(ctx)?;
        let mut manifest = crate::autotune::tuned_manifest_from(
            rows,
            icache,
            &FIGURE5_AREAS,
            DEFAULT_TOLERANCE,
            set,
            &key,
        );
        manifest.push("quick", Json::from(quick));
        Ok(manifest.to_pretty().into_bytes())
    })
}

fn plan_layout(dag: &mut Dag, config: &CampaignConfig, engine: &Arc<Engine>) -> TaskId {
    let quick = config.quick;
    let icache = CacheGeometry::xscale_icache();
    let (benchmarks, set) = crate::layout_compare::layout_benchmarks(quick);
    let mut dep_ids = Vec::with_capacity(benchmarks.len());
    for &benchmark in &benchmarks {
        let parts = keys::layout_run_parts(benchmark, icache, set, &config.tags);
        let engine = Arc::clone(engine);
        dep_ids.push(add_node(
            dag,
            format!("layout/{}", benchmark.name()),
            &parts,
            &[],
            move |_| {
                crate::layout_compare::layout_run_payload(&engine, benchmark, icache, set)
                    .map(|rows| rows.to_compact().into_bytes())
                    .map_err(|e| e.to_string())
            },
        ));
    }
    let key = keys::layout_manifest(quick, &config.tags);
    add_node(
        dag,
        "layout_compare".to_string(),
        &keys::layout_manifest_parts(quick),
        &dep_ids,
        move |ctx| {
            let per_benchmark = parse_dep_payloads(ctx)?;
            crate::layout_compare::layout_manifest_from_runs(quick, per_benchmark, &key)
                .map(|m| m.to_pretty().into_bytes())
                .map_err(|e| e.to_string())
        },
    )
}

/// Plans the whole campaign over `config.groups`. Shared sub-nodes
/// (e.g. a measure job appearing in both the fig5 grid and fig4)
/// deduplicate by key inside the DAG.
#[must_use]
pub fn plan(config: &CampaignConfig, engine: &Arc<Engine>) -> Plan {
    let mut dag = Dag::new();
    let mut manifest_nodes = Vec::new();
    for &group in &config.groups {
        let quick = config.quick;
        let id = match group {
            Group::Fig1 => {
                let key = keys::fig1();
                add_node(&mut dag, "fig1".to_string(), &keys::fig1_parts(), &[], move |_| {
                    Ok(fig1_manifest(&fig1_data(), &key).to_pretty().into_bytes())
                })
            }
            Group::Table1 => {
                let key = keys::table1();
                add_node(&mut dag, "table1".to_string(), &keys::table1_parts(), &[], move |_| {
                    Ok(table1_manifest(&key).to_pretty().into_bytes())
                })
            }
            Group::Fig4 | Group::Fig5 | Group::Fig6 => {
                let Some(experiment) = fig_experiment(group, quick) else { continue };
                plan_fig(&mut dag, config, engine, group, experiment)
            }
            Group::Trace => plan_trace(&mut dag, config, engine),
            Group::Tune => plan_tune(&mut dag, config, engine),
            Group::LayoutCompare => plan_layout(&mut dag, config, engine),
            Group::Chaos => {
                let key = keys::chaos(quick, &config.tags);
                add_node(
                    &mut dag,
                    "chaos_campaign".to_string(),
                    &keys::chaos_parts(quick, &config.tags),
                    &[],
                    move |_| {
                        crate::chaos::build_chaos_baseline_with_key(quick, &key)
                            .map(|m| m.to_pretty().into_bytes())
                    },
                )
            }
            Group::Obs => {
                let key = keys::obs(quick, &config.tags);
                add_node(
                    &mut dag,
                    "obs_report".to_string(),
                    &keys::obs_parts(quick, &config.tags),
                    &[],
                    move |_| {
                        crate::obs::build_obs_baseline_with_key(quick, &key)
                            .map(|m| m.to_pretty().into_bytes())
                    },
                )
            }
        };
        manifest_nodes.push((group, id));
    }
    Plan { dag, manifest_nodes }
}

/// Campaign instruments on an [`Obs`] registry — the [`Monitor`]
/// bridge the ISSUE's observability satellite names.
pub struct CampaignMetrics {
    /// `wp_campaign_store_hits_total`.
    pub hits: Counter,
    /// `wp_campaign_store_misses_total`.
    pub misses: Counter,
    node_wall_us: Histogram,
}

impl CampaignMetrics {
    /// Registers (or re-attaches to) the campaign instruments on `obs`.
    #[must_use]
    pub fn register(obs: &Obs) -> CampaignMetrics {
        CampaignMetrics {
            hits: obs.metrics.counter(
                "wp_campaign_store_hits_total",
                "Campaign nodes served from the content-addressed store",
            ),
            misses: obs.metrics.counter(
                "wp_campaign_store_misses_total",
                "Campaign nodes that had to execute (store misses)",
            ),
            node_wall_us: obs
                .metrics
                .histogram("wp_campaign_node_wall_us", "Host wall microseconds per executed node"),
        }
    }
}

impl Monitor for CampaignMetrics {
    fn store_hit(&self, _label: &str, _key: &TaskKey) {
        self.hits.inc();
    }

    fn store_miss(&self, _label: &str, _key: &TaskKey) {
        self.misses.inc();
    }

    fn node_done(&self, _label: &str, _key: &TaskKey, wall: Duration, _ok: bool) {
        self.node_wall_us.record(u64::try_from(wall.as_micros()).unwrap_or(u64::MAX));
    }
}

/// The outcome of a campaign run: the raw DAG report plus every
/// rendered manifest payload (hit or computed alike).
pub struct CampaignRun {
    /// Per-node outcomes, hit/miss counts, failures.
    pub report: RunReport,
    manifests: Vec<(Group, Vec<u8>)>,
}

impl CampaignRun {
    /// The manifest payload of `group`, if its node resolved.
    #[must_use]
    pub fn manifest(&self, group: Group) -> Option<&[u8]> {
        self.manifests
            .iter()
            .find(|(g, _)| *g == group)
            .map(|(_, bytes)| bytes.as_slice())
    }

    /// Every resolved `(group, payload)` pair, in config order.
    #[must_use]
    pub fn manifests(&self) -> &[(Group, Vec<u8>)] {
        &self.manifests
    }
}

/// Plans and runs the campaign against `store`. The engine is built
/// fresh per run with the campaign retry policy (and `obs`, when
/// armed, so engine metrics, the event journal and the campaign's own
/// hit/miss counters land in one registry).
#[must_use]
pub fn run(config: &CampaignConfig, store: &Store, obs: Option<&Arc<Obs>>) -> CampaignRun {
    let mut engine = Engine::new().with_retry(RetryPolicy::new(3, Duration::from_millis(10)));
    if let Some(obs) = obs {
        engine = engine.with_obs(Arc::clone(obs));
    }
    if let Some(limit) = config.job_time_limit {
        engine = engine.with_job_time_limit(limit);
    }
    let engine = Arc::new(engine);
    let plan = plan(config, &engine);
    let metrics = obs.map(|obs| CampaignMetrics::register(obs));
    let report = match &metrics {
        Some(monitor) => plan.dag.run(store, &plan.roots(), config.workers, monitor),
        None => plan.dag.run(store, &plan.roots(), config.workers, &NullMonitor),
    };
    let mut manifests = Vec::new();
    for &(group, id) in plan.manifest_nodes() {
        if let Some(bytes) = report.payload(id) {
            manifests.push((group, bytes.to_vec()));
        }
    }
    CampaignRun { report, manifests }
}

/// Writes every rendered manifest to its standard `BENCH_<name>.json`
/// path (the same place the standalone binaries write), returning the
/// written paths. File emission lives here — outside the DAG — so a
/// store hit still refreshes the manifest on disk.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_manifests(run: &CampaignRun) -> std::io::Result<Vec<PathBuf>> {
    let mut paths = Vec::with_capacity(run.manifests().len());
    for (group, bytes) in run.manifests() {
        let path = crate::manifest_path(group.manifest_name());
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(&path, bytes)?;
        paths.push(path);
    }
    Ok(paths)
}

/// Everything `wp-campaign explain <label>` reports about one node.
#[derive(Clone, Debug)]
pub struct Explain {
    /// The node's label.
    pub label: String,
    /// Its content-addressed key.
    pub key: TaskKey,
    /// The identity parts the key commits to (dependency keys are
    /// mixed in on top).
    pub parts: Vec<String>,
    /// Whether the store currently holds its payload.
    pub in_store: bool,
    /// Direct dependencies: `(label, key, in_store)`.
    pub deps: Vec<(String, TaskKey, bool)>,
}

/// Looks `label` up in `config`'s plan and reports its key, identity
/// parts and hit/miss provenance against `store`. Purely static — no
/// node runs.
#[must_use]
pub fn explain(config: &CampaignConfig, store: &Store, label: &str) -> Option<Explain> {
    let engine = Arc::new(Engine::new());
    let plan = plan(config, &engine);
    let id = plan.dag.find(label)?;
    let deps = plan
        .dag
        .deps(id)
        .iter()
        .map(|&d| {
            let key = plan.dag.key(d);
            (plan.dag.label(d).to_string(), key, store.contains(&key))
        })
        .collect();
    let key = plan.dag.key(id);
    Some(Explain {
        label: label.to_string(),
        key,
        parts: plan.dag.parts(id).to_vec(),
        in_store: store.contains(&key),
        deps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The static key space and the planned DAG must agree: a key in
    /// `provenance.task_key` has to name the node that produced the
    /// bytes, or `explain` and incremental invalidation both lie.
    #[test]
    fn static_keys_match_planned_node_keys() {
        let config = CampaignConfig::all(true);
        let engine = Arc::new(Engine::with_workers(1));
        let plan = plan(&config, &engine);
        for &(group, id) in plan.manifest_nodes() {
            let quick = config.quick;
            let expected = match group {
                Group::Fig1 => keys::fig1(),
                Group::Table1 => keys::table1(),
                Group::Fig4 | Group::Fig5 | Group::Fig6 => {
                    let experiment = fig_experiment(group, quick).expect("suite group");
                    keys::fig_manifest(group.manifest_name(), &experiment, &config.tags)
                }
                Group::Trace => keys::trace_manifest(quick, &config.tags),
                Group::Tune => {
                    let (benchmarks, set) = baseline::tuned_benchmarks(quick);
                    keys::tuned_manifest(
                        &benchmarks,
                        CacheGeometry::xscale_icache(),
                        &FIGURE5_AREAS,
                        DEFAULT_TOLERANCE,
                        set,
                        &config.tags,
                    )
                }
                Group::Chaos => keys::chaos(quick, &config.tags),
                Group::Obs => keys::obs(quick, &config.tags),
                Group::LayoutCompare => keys::layout_manifest(quick, &config.tags),
            };
            assert_eq!(
                plan.dag.key(id),
                expected,
                "{}: planned key diverges from keys::*",
                group.manifest_name()
            );
        }
    }

    /// Re-tagging one benchmark's inputs must move exactly the keys
    /// downstream of that benchmark.
    #[test]
    fn input_tag_flip_invalidates_only_the_dependent_subgraph() {
        let base = InputTags::default();
        let flipped = InputTags::default().with(Benchmark::Crc, "v2");
        let xscale = CacheGeometry::xscale_icache();

        // Leaf: the tagged benchmark moves, a sibling does not.
        let scheme = Scheme::WayMemoization;
        assert_ne!(
            keys::measure(Benchmark::Crc, xscale, scheme, InputSet::Small, &base),
            keys::measure(Benchmark::Crc, xscale, scheme, InputSet::Small, &flipped),
        );
        assert_eq!(
            keys::measure(Benchmark::Sha, xscale, scheme, InputSet::Small, &base),
            keys::measure(Benchmark::Sha, xscale, scheme, InputSet::Small, &flipped),
        );

        // Manifests containing the benchmark move (Merkle propagation)…
        for quick in [true, false] {
            assert_ne!(keys::trace_manifest(quick, &base), keys::trace_manifest(quick, &flipped));
            assert_ne!(keys::chaos(quick, &base), keys::chaos(quick, &flipped));
            assert_ne!(keys::obs(quick, &base), keys::obs(quick, &flipped));
            assert_ne!(keys::layout_manifest(quick, &base), keys::layout_manifest(quick, &flipped));
        }

        // …while the input-independent nodes stand still.
        assert_eq!(keys::fig1(), keys::fig1());
    }

    /// The shared measure space: fig4's two xscale schemes are a
    /// subset of fig5's sweep + memoization, so planning both figures
    /// must dedup every fig4 measure node into fig5's.
    #[test]
    fn shared_measure_nodes_deduplicate_across_figures() {
        let config = CampaignConfig::new(true, vec![Group::Fig5, Group::Fig4]);
        let engine = Arc::new(Engine::with_workers(1));
        let plan = plan(&config, &engine);
        let (benchmarks, _) = fig_benchmarks(true);
        // fig5: per-benchmark (1 wm + 6 areas) + manifest; fig4 adds
        // only its own manifest node — its measures all dedup.
        let fig5_nodes = benchmarks.len() * (1 + FIGURE5_AREAS.len()) + 1;
        assert_eq!(plan.dag.len(), fig5_nodes + 1);
    }

    /// `Group::parse` covers every manifest name and the family
    /// selectors.
    #[test]
    fn group_selectors_parse() {
        for group in Group::ALL {
            assert_eq!(Group::parse(group.manifest_name()), Some(vec![group]));
        }
        assert_eq!(Group::parse("fig").map(|g| g.len()), Some(5));
        assert_eq!(Group::parse("gate").map(|g| g.len()), Some(5));
        assert_eq!(Group::parse("all").map(|g| g.len()), Some(10));
        assert_eq!(Group::parse("nope"), None);
    }
}
