//! Stored-baseline blessing and gating, and the repository's one
//! manifest differ.
//!
//! The reproduction's central artefacts — the traced-run report, the
//! autotuned WP-area manifest, the chaos-campaign resilience manifest,
//! the obs-report reconciliation manifest and the layout competition —
//! must stay stable as the simulator grows: silent drift in any
//! scheme's counters invalidates every number the paper comparison
//! rests on. All five are simulation-derived and byte-deterministic,
//! so this module freezes them exactly:
//!
//! * [`bless`] runs the campaign DAG's [`Group::BASELINE`] nodes and
//!   writes their payloads into a baselines directory that is
//!   committed to the repository;
//! * [`gate`] runs the same DAG and compares every payload with its
//!   blessed file byte for byte. On a mismatch it names every JSON
//!   path whose value differs ([`PathDiff`]), with the blessed and the
//!   fresh value; bytes that differ while every value agrees are
//!   reported as formatting.
//!
//! The DAG is the only producer of these bytes, so a blessed file, a
//! gate's fresh side and `wp-campaign run --only baseline` always
//! agree. The `bless` and `gate` binaries are thin wrappers; the
//! library entry points keep the whole round trip testable in-process.
//!
//! [`Verdict::compare`] over two [`Document`]s is also how `trace_diff`
//! compares any two captures (a JSON manifest, or a `.jsonl` stream
//! read as the array of its line records): every comparison of
//! deterministic output in the repository is exact and names its paths
//! the same way.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use wp_campaign::{Store, TaskKey};
use wp_core::{measure_traced, MeasureOptions, Scheme};
use wp_energy::CacheEnergyModel;
use wp_mem::{CacheGeometry, FetchStats};
use wp_obs::Obs;
use wp_trace::{ChainAttribution, TraceRecorder};
use wp_tune::TuneError;
use wp_workloads::{Benchmark, InputSet};

use crate::campaign::{self, CampaignConfig, CampaignRun, Group};
use crate::engine::Engine;
use crate::Json;

/// Schema tag the blessed trace-report baseline carries.
pub const BASELINE_SCHEMA: &str = "baseline/v1";
/// The default committed baselines directory, relative to the repo
/// root (where CI runs).
pub const DEFAULT_BASELINE_DIR: &str = "baselines";
/// Hottest chains recorded per traced run (shared with `trace_report`).
pub const TOP_K: usize = 5;
/// Relative tolerance when reconciling per-chain picojoule sums with
/// the aggregate price (shared with `trace_report`).
pub const ENERGY_REL_TOL: f64 = 1e-6;

/// The file a baseline group's manifest is blessed to.
#[must_use]
pub fn baseline_file(group: Group) -> String {
    format!("BENCH_{}.json", group.manifest_name())
}

/// The traced-run matrix of the trace-report pipeline: quick is the
/// CI smoke shape (one benchmark, small inputs), full is the shape
/// `trace_report` publishes.
#[must_use]
pub fn trace_benchmarks(quick: bool) -> (&'static [Benchmark], InputSet) {
    if quick {
        (&[Benchmark::Crc], InputSet::Small)
    } else {
        (&[Benchmark::Crc, Benchmark::Sha, Benchmark::Bitcount], InputSet::Large)
    }
}

/// The benchmark set of the tuned-areas pipeline: quick tunes the CI
/// smoke benchmark, full tunes the whole 23-benchmark suite so the
/// blessed `BENCH_tuned_areas.json` covers every figure-5 curve.
#[must_use]
pub fn tuned_benchmarks(quick: bool) -> (Vec<Benchmark>, InputSet) {
    if quick {
        (vec![Benchmark::Crc], InputSet::Small)
    } else {
        (Benchmark::ALL.to_vec(), InputSet::Large)
    }
}

fn pipeline_error(context: &str, error: &dyn std::fmt::Display) -> TuneError {
    TuneError::Measure { message: format!("{context}: {error}") }
}

/// Renders the hottest `top_k` chains of an attribution as manifest
/// rows (shared with the `trace_report` binary, so blessed baselines
/// and published reports agree on what a hot-chain record is).
#[must_use]
pub fn hot_chains_json(
    attribution: &ChainAttribution,
    model: &CacheEnergyModel,
    top_k: usize,
) -> Vec<Json> {
    let total_fetches = attribution.total().fetches.max(1);
    attribution
        .ranked()
        .into_iter()
        .take(top_k)
        .map(|id| {
            let row = &attribution.rows()[id as usize];
            let info = &attribution.map().chains()[id as usize];
            let energy_pj = model.fetch_energy(&FetchStats::from(&row.to_counters())).total_pj();
            Json::obj([
                ("chain", Json::from(id)),
                ("label", Json::from(info.label.as_str())),
                ("weight", Json::Uint(info.weight)),
                ("insns", Json::from(info.insns)),
                ("fetches", Json::Uint(row.fetches)),
                ("fetch_share", Json::from(row.fetches as f64 / total_fetches as f64)),
                (
                    "tags_per_fetch",
                    Json::from(row.tag_comparisons as f64 / row.fetches.max(1) as f64),
                ),
                ("energy_pj", Json::from(energy_pj)),
            ])
        })
        .collect()
}

/// One canonical traced run on `engine` — the payload of a campaign
/// trace-run node: everything `trace_report` derives that is
/// deterministic (counters, energies, hot chains), nothing that is not
/// (wall-clock spans, sink overhead, ring/interval bookkeeping).
/// Reconciliation failures are hard errors — a baseline whose chain
/// sums disagree with the hardware counters must never be blessed.
pub(crate) fn canonical_run(
    engine: &Engine,
    benchmark: Benchmark,
    icache: CacheGeometry,
    scheme: Scheme,
    set: InputSet,
) -> Result<Json, TuneError> {
    let tag = format!("{}/{}", benchmark.name(), scheme.label());
    let workbench = engine.workbench(benchmark).map_err(|e| pipeline_error(&tag, &e))?;
    let map = workbench
        .link(scheme.layout(), set)
        .map_err(|e| pipeline_error(&tag, &e))?
        .layout_map();
    let mut recorder = TraceRecorder::new().with_layout(map);
    let (m, _) =
        measure_traced(&workbench, icache, scheme, MeasureOptions::new(set), &mut recorder)
            .map_err(|e| pipeline_error(&tag, &e))?;
    let attribution = recorder
        .attribution()
        .ok_or_else(|| pipeline_error(&tag, &"recorder has no layout"))?;

    let total = attribution.total();
    let aggregate = m.run.fetch;
    if total.fetches != aggregate.fetches
        || total.tag_comparisons != aggregate.tag_comparisons
        || attribution.unattributed().fetches != 0
    {
        return Err(pipeline_error(&tag, &"attribution does not reconcile with counters"));
    }
    let mem = scheme.memory_config(icache);
    let model = CacheEnergyModel::for_scheme(icache, mem.icache.scheme);
    let chain_pj: f64 = attribution
        .rows()
        .iter()
        .chain(std::iter::once(attribution.unattributed()))
        .map(|row| model.fetch_energy(&FetchStats::from(&row.to_counters())).total_pj())
        .sum();
    let aggregate_pj = m.energy.icache.total_pj();
    if (chain_pj - aggregate_pj).abs() > ENERGY_REL_TOL * aggregate_pj.max(1.0) {
        return Err(pipeline_error(&tag, &"per-chain energies do not sum to the aggregate"));
    }

    Ok(Json::obj([
        ("benchmark", Json::from(benchmark.name())),
        ("scheme", Json::from(scheme.label().as_str())),
        ("fetches", Json::Uint(aggregate.fetches)),
        ("cycles", Json::Uint(m.run.cycles)),
        ("icache_pj", Json::from(aggregate_pj)),
        ("chains", Json::from(attribution.rows().len())),
        ("hot_chains", Json::Arr(hot_chains_json(attribution, &model, TOP_K))),
    ]))
}

/// The two way-aware schemes every trace-report run covers, in manifest
/// order. Shared with the campaign planner so its per-run task keys
/// describe exactly the runs its trace-run nodes perform.
#[must_use]
pub fn trace_schemes() -> [Scheme; 2] {
    [Scheme::WayPlacement { area_bytes: 32 * 1024 }, Scheme::WayMemoization]
}

/// Assembles the trace-report baseline manifest from already-rendered
/// canonical run objects (the campaign's trace-run payloads);
/// `task_key` lands in the provenance block.
#[must_use]
pub fn trace_manifest_from_runs(quick: bool, runs: Vec<Json>, task_key: &TaskKey) -> Json {
    let icache = CacheGeometry::xscale_icache();
    let (benchmarks, set) = trace_benchmarks(quick);
    let schemes = trace_schemes();
    Json::obj([
        ("schema", Json::from(BASELINE_SCHEMA)),
        ("kind", Json::from("trace_report")),
        (
            "provenance",
            Json::obj([
                ("quick", Json::from(quick)),
                ("input_set", Json::from(set.name())),
                ("geometry", Json::from(icache.to_string())),
                ("schemes", Json::arr(schemes.iter().map(|s| Json::from(s.label().as_str())))),
                ("benchmarks", Json::arr(benchmarks.iter().map(|b| Json::from(b.name())))),
                ("hot_chains", Json::from(TOP_K)),
                ("task_key", Json::from(task_key.hex().as_str())),
            ]),
        ),
        ("runs", Json::Arr(runs)),
    ])
}

/// Runs `f` against a fresh store in a scratch directory that is
/// removed afterwards, so nothing it computes can come from (or
/// outlive) an earlier run. `tag` names the directory.
pub fn with_scratch_store<T>(tag: &str, f: impl FnOnce(&Store) -> T) -> T {
    let root = std::env::temp_dir().join(format!("wp-{tag}-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let result = f(&Store::new(&root));
    let _ = std::fs::remove_dir_all(&root);
    result
}

/// Runs the [`Group::BASELINE`] campaign against `store`, failing
/// with every failed node's label and error if any pipeline failed —
/// including the chaos campaign, which refuses to produce a manifest
/// when its resilience invariants fail, and the obs pipeline, which
/// refuses when its metrics do not reconcile with ground truth.
fn run_baselines(
    store: &Store,
    quick: bool,
    obs: Option<&Arc<Obs>>,
) -> Result<CampaignRun, TuneError> {
    let config = CampaignConfig::new(quick, Group::BASELINE.to_vec());
    let run = campaign::run(&config, store, obs);
    if !run.report.ok() {
        let failures: Vec<String> = run
            .report
            .failures()
            .iter()
            .map(|(label, error)| format!("{label}: {error}"))
            .collect();
        return Err(TuneError::Measure {
            message: format!("campaign pipelines failed: {}", failures.join("; ")),
        });
    }
    Ok(run)
}

fn payload(run: &CampaignRun, group: Group) -> Result<&[u8], TuneError> {
    run.manifest(group).ok_or_else(|| TuneError::Measure {
        message: format!("campaign produced no payload for {}", baseline_file(group)),
    })
}

/// Runs the five baseline pipelines through the campaign DAG on
/// `store` and writes each payload to its [`baseline_file`] in `dir`
/// (created if missing), returning the written paths in
/// [`Group::BASELINE`] order.
///
/// # Errors
///
/// [`TuneError::Io`] on write failure, [`TuneError::Measure`] naming
/// every failed pipeline node.
pub fn bless(dir: &Path, store: &Store, quick: bool) -> Result<Vec<PathBuf>, TuneError> {
    let run = run_baselines(store, quick, None)?;
    std::fs::create_dir_all(dir).map_err(|e| TuneError::io(dir, &e))?;
    let mut paths = Vec::with_capacity(Group::BASELINE.len());
    for group in Group::BASELINE {
        let path = dir.join(baseline_file(group));
        std::fs::write(&path, payload(&run, group)?).map_err(|e| TuneError::io(&path, &e))?;
        paths.push(path);
    }
    Ok(paths)
}

/// One JSON path whose value differs between a blessed manifest and
/// its fresh twin (for `trace_diff`, its left and its right file). A
/// side is `None` where the path does not exist (a key or array
/// element only the other side has).
#[derive(Clone, PartialEq, Debug)]
pub struct PathDiff {
    /// The path: object keys joined by `.`, array indices as `[i]`,
    /// e.g. `runs[0].cycles`.
    pub path: String,
    /// The blessed value.
    pub blessed: Option<Json>,
    /// The fresh value.
    pub fresh: Option<Json>,
}

impl PathDiff {
    fn json(&self) -> Json {
        let mut json = Json::obj([("path", Json::from(self.path.as_str()))]);
        for (side, value) in [("blessed", &self.blessed), ("fresh", &self.fresh)] {
            if let Some(value) = value {
                json.push(side, value.clone());
            }
        }
        json
    }
}

impl std::fmt::Display for PathDiff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let show =
            |value: &Option<Json>| value.as_ref().map_or("(absent)".into(), Json::to_compact);
        write!(f, "{}: blessed {}, fresh {}", self.path, show(&self.blessed), show(&self.fresh))
    }
}

/// Every JSON path at which `blessed` and `fresh` hold different
/// values, in document order (blessed keys first, then keys only
/// `fresh` has). Objects match by key, arrays by index; an element or
/// key only one side has is reported once at its own path. Values of
/// different types differ at the path where they meet. An empty result
/// means the two documents are equal as JSON values.
fn json_diff(blessed: &Json, fresh: &Json) -> Vec<PathDiff> {
    let mut diffs = Vec::new();
    diff_at(String::new(), blessed, fresh, &mut diffs);
    diffs
}

fn diff_at(path: String, blessed: &Json, fresh: &Json, diffs: &mut Vec<PathDiff>) {
    let key_path =
        |key: &str| if path.is_empty() { key.to_string() } else { format!("{path}.{key}") };
    let one_sided = |path, blessed: Option<&Json>, fresh: Option<&Json>| PathDiff {
        path,
        blessed: blessed.cloned(),
        fresh: fresh.cloned(),
    };
    match (blessed, fresh) {
        (Json::Obj(left), Json::Obj(right)) => {
            for (key, value) in left {
                match right.iter().find(|(k, _)| k == key) {
                    Some((_, other)) => diff_at(key_path(key), value, other, diffs),
                    None => diffs.push(one_sided(key_path(key), Some(value), None)),
                }
            }
            for (key, value) in right {
                if !left.iter().any(|(k, _)| k == key) {
                    diffs.push(one_sided(key_path(key), None, Some(value)));
                }
            }
        }
        (Json::Arr(left), Json::Arr(right)) => {
            for i in 0..left.len().max(right.len()) {
                let at = format!("{path}[{i}]");
                match (left.get(i), right.get(i)) {
                    (Some(value), Some(other)) => diff_at(at, value, other, diffs),
                    (value, other) => diffs.push(one_sided(at, value, other)),
                }
            }
        }
        _ if blessed == fresh => {}
        _ => diffs.push(one_sided(path, Some(blessed), Some(fresh))),
    }
}

/// A manifest read for comparison: its bytes and the JSON value they
/// hold.
#[derive(Debug)]
pub struct Document {
    bytes: Vec<u8>,
    value: Json,
}

impl Document {
    /// Parses `bytes`: one JSON document or, when `name` ends in
    /// `.jsonl`, a stream read as the array of its line records, so
    /// line `i + 1`'s fields have paths `[i].<field>`.
    ///
    /// # Errors
    ///
    /// [`TuneError::Json`] naming `name` (and the line, in a stream)
    /// when the bytes are not UTF-8 or not JSON.
    pub fn parse(name: &str, bytes: Vec<u8>) -> Result<Document, TuneError> {
        let invalid = |source: String, message: String| TuneError::Json { source, message };
        let text =
            std::str::from_utf8(&bytes).map_err(|e| invalid(name.to_string(), e.to_string()))?;
        let value = if name.ends_with(".jsonl") {
            let line = |(i, line): (usize, &str)| {
                Json::parse(line).map_err(|message| invalid(format!("{name}:{}", i + 1), message))
            };
            Json::Arr(text.lines().enumerate().map(line).collect::<Result<_, _>>()?)
        } else {
            Json::parse(text).map_err(|message| invalid(name.to_string(), message))?
        };
        Ok(Document { bytes, value })
    }

    /// Reads the file at `path` and parses it as [`Document::parse`]
    /// does.
    ///
    /// # Errors
    ///
    /// [`TuneError::Io`] when the file cannot be read, else as
    /// [`Document::parse`].
    pub fn read(path: &Path) -> Result<Document, TuneError> {
        let bytes = std::fs::read(path).map_err(|e| TuneError::io(path, &e))?;
        Document::parse(&path.display().to_string(), bytes)
    }
}

/// How one fresh manifest compares with its blessed file.
#[derive(Clone, PartialEq, Debug)]
pub enum Verdict {
    /// Byte-identical.
    Identical,
    /// The bytes differ but every JSON value is equal: whitespace, key
    /// order or number spelling changed.
    Formatting,
    /// These paths hold different values.
    Differs(Vec<PathDiff>),
}

impl Verdict {
    /// Compares two renderings of one manifest: equal bytes are
    /// [`Verdict::Identical`]; otherwise every JSON path whose value
    /// differs, or [`Verdict::Formatting`] when none does.
    #[must_use]
    pub fn compare(blessed: &Document, fresh: &Document) -> Verdict {
        if blessed.bytes == fresh.bytes {
            return Verdict::Identical;
        }
        let paths = json_diff(&blessed.value, &fresh.value);
        if paths.is_empty() {
            Verdict::Formatting
        } else {
            Verdict::Differs(paths)
        }
    }

    /// Adds the verdict's `verdict` label and, when values differ, its
    /// `paths` (each with both values) to a report object.
    pub fn push_json(&self, json: &mut Json) {
        let label = match self {
            Verdict::Identical => "identical",
            Verdict::Formatting => "formatting",
            Verdict::Differs(_) => "differs",
        };
        json.push("verdict", Json::from(label));
        if let Verdict::Differs(paths) = self {
            json.push("paths", Json::arr(paths.iter().map(PathDiff::json)));
        }
    }
}

impl std::fmt::Display for Verdict {
    /// `identical`, `DIFFERS   formatting only`, or `DIFFERS   N
    /// path(s)` followed by one indented line per path.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Identical => write!(f, "identical"),
            Verdict::Formatting => write!(f, "DIFFERS   formatting only"),
            Verdict::Differs(paths) => {
                write!(f, "DIFFERS   {} path(s)", paths.len())?;
                paths.iter().try_for_each(|path| write!(f, "\n  {path}"))
            }
        }
    }
}

/// The outcome of gating a fresh campaign run against a blessed
/// baseline set: one [`Verdict`] per baseline file.
#[derive(Clone, Debug)]
pub struct GateReport {
    /// The blessed (baseline) directory.
    pub blessed_dir: PathBuf,
    /// `(file name, verdict)` in [`Group::BASELINE`] order.
    pub manifests: Vec<(String, Verdict)>,
    /// Campaign nodes served from the store.
    pub store_hits: usize,
    /// Campaign nodes that had to run.
    pub store_misses: usize,
}

impl GateReport {
    /// How many manifests are not byte-identical to their blessed file.
    #[must_use]
    pub fn differing(&self) -> usize {
        self.manifests
            .iter()
            .filter(|(_, verdict)| *verdict != Verdict::Identical)
            .count()
    }

    /// `true` when every manifest is byte-identical.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.differing() == 0
    }

    /// The process exit code CI gates on: 0 identical, 1 a difference.
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.is_clean())
    }

    /// Renders the `BENCH_gate.json` manifest body.
    #[must_use]
    pub fn json(&self) -> Json {
        Json::obj([
            ("schema", Json::from("gate/v2")),
            ("blessed_dir", Json::from(self.blessed_dir.display().to_string().as_str())),
            (
                "manifests",
                Json::arr(self.manifests.iter().map(|(name, verdict)| {
                    let mut json = Json::obj([("file", Json::from(name.as_str()))]);
                    verdict.push_json(&mut json);
                    json
                })),
            ),
            ("differing", Json::from(self.differing())),
            ("ok", Json::from(self.is_clean())),
        ])
    }
}

/// Runs the five baseline pipelines through the campaign DAG on
/// `store` and compares each payload with its blessed file in
/// `blessed_dir` byte for byte. A warm store (right after a bless or
/// a campaign run on the same tree) serves every manifest as a hit;
/// a cold one recomputes it. `obs`, when armed, receives the engine
/// and campaign metrics.
///
/// # Errors
///
/// [`TuneError::Io`] when a blessed file is missing or unreadable,
/// [`TuneError::Json`] when one is not JSON (both checked before any
/// pipeline runs), [`TuneError::Measure`] naming every failed pipeline
/// node. Differences are *not* errors — they are reported through
/// [`GateReport::manifests`].
pub fn gate(
    blessed_dir: &Path,
    store: &Store,
    quick: bool,
    obs: Option<&Arc<Obs>>,
) -> Result<GateReport, TuneError> {
    let blessed = Group::BASELINE
        .iter()
        .map(|&group| Document::read(&blessed_dir.join(baseline_file(group))))
        .collect::<Result<Vec<Document>, TuneError>>()?;
    let run = run_baselines(store, quick, obs)?;
    let (store_hits, store_misses) = (run.report.hits(), run.report.misses());
    let mut manifests = Vec::with_capacity(Group::BASELINE.len());
    for (group, blessed) in Group::BASELINE.into_iter().zip(blessed) {
        let name = baseline_file(group);
        let fresh = Document::parse(&name, payload(&run, group)?.to_vec())
            .map_err(|e| pipeline_error(&name, &format!("fresh payload: {e}")))?;
        manifests.push((name, Verdict::compare(&blessed, &fresh)));
    }
    Ok(GateReport { blessed_dir: blessed_dir.to_path_buf(), manifests, store_hits, store_misses })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(text: &str) -> Json {
        Json::parse(text).expect("test document parses")
    }

    /// `(case, blessed, fresh, every differing path)`.
    const CASES: [(&str, &str, &str, &[&str]); 5] = [
        (
            "nested field",
            r#"{"a":{"b":{"c":1,"d":2}}}"#,
            r#"{"a":{"b":{"c":1,"d":3}}}"#,
            &["a.b.d"],
        ),
        (
            "array index",
            r#"{"runs":[{"n":1},{"n":2}]}"#,
            r#"{"runs":[{"n":1},{"n":3}]}"#,
            &["runs[1].n"],
        ),
        ("array length", r#"{"xs":[1,2]}"#, r#"{"xs":[1,2,3,4]}"#, &["xs[2]", "xs[3]"]),
        (
            "missing key",
            r#"{"keep":1,"gone":{"x":1}}"#,
            r#"{"keep":1,"new":true}"#,
            &["gone", "new"],
        ),
        // An integer that became a float, a string that became an
        // object: each differs where the types meet, not below it.
        (
            "type change",
            r#"{"n":5,"s":"x","t":[1]}"#,
            r#"{"n":5.0,"s":{"x":1},"t":[1]}"#,
            &["n", "s"],
        ),
    ];

    #[test]
    fn json_diff_names_every_differing_path() {
        for (case, blessed, fresh, expected) in CASES {
            let diffs = json_diff(&doc(blessed), &doc(fresh));
            let paths: Vec<&str> = diffs.iter().map(|d| d.path.as_str()).collect();
            assert_eq!(paths, expected, "{case}");
            assert!(json_diff(&doc(blessed), &doc(blessed)).is_empty(), "{case}");
        }
        // Both values ride along; a side without the path is absent.
        let diffs = json_diff(&doc(CASES[0].1), &doc(CASES[0].2));
        assert_eq!(diffs[0].to_string(), "a.b.d: blessed 2, fresh 3");
        let grown = json_diff(&doc(CASES[2].1), &doc(CASES[2].2));
        assert_eq!((&grown[1].blessed, &grown[1].fresh), (&None, &Some(Json::Uint(4))));
        let gone = json_diff(&doc(CASES[3].1), &doc(CASES[3].2));
        assert_eq!(gone[0].to_string(), r#"gone: blessed {"x":1}, fresh (absent)"#);
    }

    #[test]
    fn formatting_only_difference_has_no_paths() {
        let parse = |text: &str| Document::parse("m.json", text.as_bytes().to_vec());
        let pretty = parse(&doc(r#"{"a":1.5,"b":[1,2]}"#).to_pretty()).expect("parses");
        let respelled = parse("{\"b\": [1, 2],\n \"a\": 1.50}").expect("parses");
        assert_eq!(Verdict::compare(&pretty, &respelled), Verdict::Formatting);
        assert_eq!(Verdict::compare(&pretty, &pretty), Verdict::Identical);
        // Text that is not JSON is unreadable, whatever it is compared with.
        let broken = parse("{oops");
        assert!(matches!(broken, Err(TuneError::Json { .. })), "{broken:?}");
    }
}
