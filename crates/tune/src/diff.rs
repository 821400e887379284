//! Cross-run trace regression diffing.
//!
//! Joins two telemetry captures — `BENCH_trace_report.json` manifests
//! or raw `TRACE_*.jsonl` streams — run-by-run and chain-by-chain, and
//! flags fetch/energy shifts beyond configurable thresholds. A shift
//! is a **regression** only when it clears *both* gates:
//!
//! * relative: `|ratio(right, left) − 1| > rel` — using wp-energy's
//!   idle-run [`ratio`] semantics, so two zero-energy runs diff clean
//!   (`0/0 → 1.0`, shift `0`) instead of producing `NaN`;
//! * absolute: `|right − left| > abs` — a floor that keeps relatively
//!   large but absolutely tiny wobbles (a 3-fetch chain doubling) from
//!   gating CI.
//!
//! Both comparisons are strict, so a shift sitting *exactly at* a
//! threshold does not flag. A run or chain present on only one side is
//! a structural regression regardless of thresholds.

use wp_energy::ratio;
use wp_trace::Json;

use crate::error::TuneError;

/// Default relative shift gate (2%).
pub const DEFAULT_REL_TOL: f64 = 0.02;
/// Default absolute fetch-count floor.
pub const DEFAULT_ABS_FETCHES: f64 = 64.0;
/// Default absolute energy floor (pJ for manifests; tag comparisons
/// for raw JSONL streams, which carry no priced energy).
pub const DEFAULT_ABS_ENERGY: f64 = 1024.0;

/// The differ's gates.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct DiffThresholds {
    /// Relative shift gate, as a fraction (`0.02` = 2%).
    pub rel: f64,
    /// Absolute floor for fetch-count shifts.
    pub abs_fetches: f64,
    /// Absolute floor for energy shifts.
    pub abs_energy: f64,
}

impl Default for DiffThresholds {
    fn default() -> DiffThresholds {
        DiffThresholds {
            rel: DEFAULT_REL_TOL,
            abs_fetches: DEFAULT_ABS_FETCHES,
            abs_energy: DEFAULT_ABS_ENERGY,
        }
    }
}

/// One metric compared across the two sides.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MetricShift {
    /// The left (baseline) value.
    pub left: f64,
    /// The right (candidate) value.
    pub right: f64,
    /// `|right − left|`.
    pub abs_shift: f64,
    /// `|ratio(right, left) − 1|` with idle-run semantics.
    pub rel_shift: f64,
    /// Whether the shift clears both gates.
    pub regressed: bool,
}

impl MetricShift {
    /// Compares one metric under a (relative gate, absolute floor)
    /// pair. Both comparisons are strict: exactly-at-threshold is not
    /// a regression.
    #[must_use]
    pub fn new(left: f64, right: f64, rel_tol: f64, abs_floor: f64) -> MetricShift {
        let abs_shift = (right - left).abs();
        let rel_shift = (ratio(right, left) - 1.0).abs();
        let regressed = rel_shift > rel_tol && abs_shift > abs_floor;
        MetricShift { left, right, abs_shift, rel_shift, regressed }
    }

    fn json(&self) -> Json {
        Json::obj([
            ("left", Json::from(self.left)),
            ("right", Json::from(self.right)),
            ("abs_shift", Json::from(self.abs_shift)),
            ("rel_shift", Json::from(self.rel_shift)),
            ("regressed", Json::from(self.regressed)),
        ])
    }
}

/// One chain's roll-up inside a run.
#[derive(Clone, PartialEq, Debug)]
pub struct ChainRow {
    /// Join key: the chain's label, or `chain-<id>` when unlabeled.
    pub key: String,
    /// Attributed fetches.
    pub fetches: f64,
    /// The chain's energy figure (pJ from a manifest; tag comparisons
    /// from a raw JSONL stream).
    pub energy: f64,
}

/// One run (benchmark × scheme) distilled from a capture.
#[derive(Clone, PartialEq, Debug)]
pub struct RunTrace {
    /// Join key, `benchmark/scheme` (or the file stem for JSONL).
    pub key: String,
    /// Total fetches.
    pub fetches: f64,
    /// Total energy figure (same unit caveat as [`ChainRow::energy`]).
    pub energy: f64,
    /// Per-chain rows, in capture order.
    pub chains: Vec<ChainRow>,
}

/// A parsed capture: one manifest (many runs) or one JSONL stream
/// (a single run).
#[derive(Clone, PartialEq, Debug)]
pub struct TraceSet {
    /// Where the capture came from (path or caller-supplied tag).
    pub source: String,
    /// `"manifest"` or `"jsonl"`.
    pub kind: &'static str,
    /// The unit of every `energy` field in this capture.
    pub energy_unit: &'static str,
    /// The capture's `provenance.task_key`, when the manifest carries
    /// one (campaign-produced manifests name the content-addressed
    /// store entry they came from). Carried for provenance display
    /// only — never joined on, never gated on: two byte-identical
    /// result sets produced by different pipeline configurations must
    /// still diff clean.
    pub task_key: Option<String>,
    /// The runs, in capture order.
    pub runs: Vec<RunTrace>,
}

/// Appends `#2`, `#3`… to keys already taken so joins stay injective
/// even if two chains share a label.
fn unique_key(base: String, taken: &mut Vec<String>) -> String {
    let mut key = base.clone();
    let mut n = 1;
    while taken.contains(&key) {
        n += 1;
        key = format!("{base}#{n}");
    }
    taken.push(key.clone());
    key
}

/// The optional `provenance.task_key` field of a manifest document.
fn provenance_task_key(document: &Json) -> Option<String> {
    document
        .get("provenance")
        .and_then(|p| p.get("task_key"))
        .and_then(Json::as_str)
        .map(str::to_string)
}

fn require_str(value: &Json, field: &str, source: &str) -> Result<String, TuneError> {
    value.get(field).and_then(Json::as_str).map(str::to_string).ok_or_else(|| {
        TuneError::MissingField { source: source.to_string(), field: field.to_string() }
    })
}

fn require_f64(value: &Json, field: &str, source: &str) -> Result<f64, TuneError> {
    value.get(field).and_then(Json::as_f64).ok_or_else(|| TuneError::MissingField {
        source: source.to_string(),
        field: field.to_string(),
    })
}

impl TraceSet {
    /// Loads and parses a capture file, sniffing its format: a JSON
    /// document with a `runs` array is a `BENCH_trace_report.json`
    /// manifest; a stream of single-line objects whose first line is a
    /// `meta` record is a `TRACE_*.jsonl` export.
    ///
    /// # Errors
    ///
    /// [`TuneError::Io`] on read failure, [`TuneError::Json`] /
    /// [`TuneError::MissingField`] on malformed content.
    pub fn load(path: &std::path::Path) -> Result<TraceSet, TuneError> {
        let text = std::fs::read_to_string(path).map_err(|e| TuneError::io(path, &e))?;
        let stem = path
            .file_stem()
            .map_or_else(|| path.display().to_string(), |s| s.to_string_lossy().into_owned());
        TraceSet::parse(&text, &path.display().to_string(), &stem)
    }

    /// Parses capture text; `source` labels errors and the diff
    /// manifest, `stem` keys a JSONL capture's single run.
    ///
    /// # Errors
    ///
    /// [`TuneError::Json`] / [`TuneError::MissingField`] on malformed
    /// content.
    pub fn parse(text: &str, source: &str, stem: &str) -> Result<TraceSet, TuneError> {
        match Json::parse(text) {
            Ok(document) => {
                if document.get("runs").is_some() {
                    TraceSet::from_manifest(&document, source)
                } else if document.get("type").and_then(Json::as_str) == Some("meta") {
                    // A one-line JSONL file parses as a single object.
                    TraceSet::from_jsonl(text, source, stem)
                } else {
                    Err(TuneError::MissingField {
                        source: source.to_string(),
                        field: "runs".to_string(),
                    })
                }
            }
            // Multi-line JSONL is not a single JSON document ("trailing
            // data"); fall through to line-by-line parsing, which
            // reports the real error if the text is garbage either way.
            Err(_) => TraceSet::from_jsonl(text, source, stem),
        }
    }

    fn from_manifest(document: &Json, source: &str) -> Result<TraceSet, TuneError> {
        let runs = document.get("runs").and_then(Json::as_array).ok_or_else(|| {
            TuneError::MissingField { source: source.to_string(), field: "runs".to_string() }
        })?;
        let mut out = Vec::with_capacity(runs.len());
        let mut run_keys = Vec::new();
        for run in runs {
            let benchmark = require_str(run, "benchmark", source)?;
            let scheme = require_str(run, "scheme", source)?;
            let fetches = require_f64(run, "fetches", source)?;
            let energy = require_f64(run, "icache_pj", source)?;
            let mut chains = Vec::new();
            let mut chain_keys = Vec::new();
            for chain in run.get("hot_chains").and_then(Json::as_array).unwrap_or(&[]) {
                chains.push(ChainRow {
                    key: unique_key(chain_key(chain, source)?, &mut chain_keys),
                    fetches: require_f64(chain, "fetches", source)?,
                    energy: require_f64(chain, "energy_pj", source)?,
                });
            }
            out.push(RunTrace {
                key: unique_key(format!("{benchmark}/{scheme}"), &mut run_keys),
                fetches,
                energy,
                chains,
            });
        }
        Ok(TraceSet {
            source: source.to_string(),
            kind: "manifest",
            energy_unit: "pJ",
            task_key: provenance_task_key(document),
            runs: out,
        })
    }

    /// A raw JSONL stream carries no priced energy, so tag comparisons
    /// stand in: they are the area-sensitive term the energy model
    /// prices, and shifts in them are exactly what the differ is for.
    fn from_jsonl(text: &str, source: &str, stem: &str) -> Result<TraceSet, TuneError> {
        let mut fetches = 0.0;
        let mut tags = 0.0;
        let mut chains = Vec::new();
        let mut chain_keys = Vec::new();
        let mut saw_meta = false;
        for (index, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let record = Json::parse(line).map_err(|message| TuneError::Json {
                source: format!("{source}:{}", index + 1),
                message,
            })?;
            match record.get("type").and_then(Json::as_str) {
                Some("meta") => {
                    saw_meta = true;
                    fetches = require_f64(&record, "events_recorded", source)?;
                }
                Some("chain") => {
                    let line_source = format!("{source}:{}", index + 1);
                    let row_fetches = require_f64(&record, "fetches", source)?;
                    let row_tags = require_f64(&record, "tag_comparisons", source)?;
                    tags += row_tags;
                    chains.push(ChainRow {
                        key: unique_key(chain_key(&record, &line_source)?, &mut chain_keys),
                        fetches: row_fetches,
                        energy: row_tags,
                    });
                }
                Some("unattributed") => {
                    tags += require_f64(&record, "tag_comparisons", source)?;
                }
                // interval / fetch lines carry no per-chain totals.
                Some(_) => {}
                None => {
                    return Err(TuneError::MissingField {
                        source: format!("{source}:{}", index + 1),
                        field: "type".to_string(),
                    })
                }
            }
        }
        if !saw_meta {
            return Err(TuneError::MissingField {
                source: source.to_string(),
                field: "meta".to_string(),
            });
        }
        Ok(TraceSet {
            source: source.to_string(),
            kind: "jsonl",
            energy_unit: "tag_comparisons",
            task_key: None,
            runs: vec![RunTrace { key: stem.to_string(), fetches, energy: tags, chains }],
        })
    }
}

/// Join key for a chain record: its label when present, `chain-<id>`
/// otherwise — labels survive chain renumbering across layouts.
///
/// A record carrying *neither* a non-empty label nor a chain id has no
/// identity to join on; inventing one (the old code fell back to a
/// `chain-<u64::MAX>` sentinel) would let two id-less chains silently
/// alias through the `#2` dedup suffix, so it is a hard
/// [`TuneError::Malformed`] instead.
fn chain_key(chain: &Json, source: &str) -> Result<String, TuneError> {
    if let Some(label) = chain.get("label").and_then(Json::as_str) {
        if !label.is_empty() {
            return Ok(label.to_string());
        }
    }
    match chain.get("chain").and_then(Json::as_u64) {
        Some(id) => Ok(format!("chain-{id}")),
        None => Err(TuneError::Malformed {
            source: source.to_string(),
            message: "chain record has neither a non-empty label nor a chain id".to_string(),
        }),
    }
}

/// Where an entry was found.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Presence {
    /// Present in both captures — shifts were computed.
    Both,
    /// Present only in the left (baseline) capture.
    OnlyLeft,
    /// Present only in the right (candidate) capture.
    OnlyRight,
}

impl Presence {
    fn label(self) -> &'static str {
        match self {
            Presence::Both => "both",
            Presence::OnlyLeft => "only_left",
            Presence::OnlyRight => "only_right",
        }
    }
}

/// One chain compared across the two sides.
#[derive(Clone, PartialEq, Debug)]
pub struct ChainDiff {
    /// The chain's join key.
    pub key: String,
    /// Where the chain was found.
    pub presence: Presence,
    /// Fetch-count shift (missing side counted as zero).
    pub fetch: MetricShift,
    /// Energy shift (missing side counted as zero).
    pub energy: MetricShift,
}

impl ChainDiff {
    /// Whether this chain flags: a structural one-sided appearance or
    /// a metric shift past the gates.
    #[must_use]
    pub fn regressed(&self) -> bool {
        self.presence != Presence::Both || self.fetch.regressed || self.energy.regressed
    }
}

/// One run compared across the two sides.
#[derive(Clone, PartialEq, Debug)]
pub struct RunDiff {
    /// The run's join key.
    pub key: String,
    /// Where the run was found. A one-sided run is a structural
    /// regression and carries no shifts.
    pub presence: Presence,
    /// Total-fetch shift (matched runs only).
    pub fetch: Option<MetricShift>,
    /// Total-energy shift (matched runs only).
    pub energy: Option<MetricShift>,
    /// Per-chain comparison (matched runs only).
    pub chains: Vec<ChainDiff>,
}

impl RunDiff {
    /// Number of flags this run contributes.
    #[must_use]
    pub fn regressions(&self) -> usize {
        if self.presence != Presence::Both {
            return 1;
        }
        usize::from(self.fetch.is_some_and(|s| s.regressed))
            + usize::from(self.energy.is_some_and(|s| s.regressed))
            + self.chains.iter().filter(|c| c.regressed()).count()
    }
}

/// The full comparison of two captures.
#[derive(Clone, PartialEq, Debug)]
pub struct TraceDiff {
    /// The baseline capture's source.
    pub left: String,
    /// The candidate capture's source.
    pub right: String,
    /// The unit of the energy metric that was compared.
    pub energy_unit: &'static str,
    /// The baseline capture's `provenance.task_key`, carried through
    /// for display — never part of any gate.
    pub left_task_key: Option<String>,
    /// The candidate capture's `provenance.task_key`, same caveat.
    pub right_task_key: Option<String>,
    /// The gates used.
    pub thresholds: DiffThresholds,
    /// Per-run comparisons: left order, right-only runs appended.
    pub runs: Vec<RunDiff>,
}

impl TraceDiff {
    /// Joins two captures run-by-run (by `benchmark/scheme` key) and
    /// chain-by-chain (by label) and gates every metric.
    #[must_use]
    pub fn compute(left: &TraceSet, right: &TraceSet, thresholds: DiffThresholds) -> TraceDiff {
        let mut runs = Vec::new();
        for l in &left.runs {
            match right.runs.iter().find(|r| r.key == l.key) {
                Some(r) => runs.push(diff_run(l, r, thresholds)),
                None => runs.push(RunDiff {
                    key: l.key.clone(),
                    presence: Presence::OnlyLeft,
                    fetch: None,
                    energy: None,
                    chains: Vec::new(),
                }),
            }
        }
        for r in &right.runs {
            if !left.runs.iter().any(|l| l.key == r.key) {
                runs.push(RunDiff {
                    key: r.key.clone(),
                    presence: Presence::OnlyRight,
                    fetch: None,
                    energy: None,
                    chains: Vec::new(),
                });
            }
        }
        TraceDiff {
            left: left.source.clone(),
            right: right.source.clone(),
            energy_unit: left.energy_unit,
            left_task_key: left.task_key.clone(),
            right_task_key: right.task_key.clone(),
            thresholds,
            runs,
        }
    }

    /// Total regression flags across every run.
    #[must_use]
    pub fn regressions(&self) -> usize {
        self.runs.iter().map(RunDiff::regressions).sum()
    }

    /// `true` when nothing flagged.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.regressions() == 0
    }

    /// The process exit code CI gates on: 0 clean, 1 regression.
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.is_clean())
    }

    /// Renders the `BENCH_trace_diff.json` manifest body.
    #[must_use]
    pub fn json(&self) -> Json {
        let runs = self
            .runs
            .iter()
            .map(|run| {
                let mut obj = Json::obj([
                    ("key", Json::from(run.key.as_str())),
                    ("presence", Json::from(run.presence.label())),
                    ("regressions", Json::from(run.regressions())),
                ]);
                if let Some(shift) = run.fetch {
                    obj.push("fetches", shift.json());
                }
                if let Some(shift) = run.energy {
                    obj.push("energy", shift.json());
                }
                if !run.chains.is_empty() {
                    obj.push(
                        "chains",
                        Json::arr(run.chains.iter().map(|chain| {
                            Json::obj([
                                ("key", Json::from(chain.key.as_str())),
                                ("presence", Json::from(chain.presence.label())),
                                ("fetches", chain.fetch.json()),
                                ("energy", chain.energy.json()),
                                ("regressed", Json::from(chain.regressed())),
                            ])
                        })),
                    );
                }
                obj
            })
            .collect();
        let mut manifest = Json::obj([
            ("schema", Json::from("trace_diff/v1")),
            ("left", Json::from(self.left.as_str())),
            ("right", Json::from(self.right.as_str())),
        ]);
        // Carried, not gated: the keys identify the store entries the
        // captures came from, and are absent for pre-campaign files.
        if let Some(key) = &self.left_task_key {
            manifest.push("left_task_key", Json::from(key.as_str()));
        }
        if let Some(key) = &self.right_task_key {
            manifest.push("right_task_key", Json::from(key.as_str()));
        }
        for (name, value) in [
            ("energy_unit", Json::from(self.energy_unit)),
            (
                "thresholds",
                Json::obj([
                    ("rel", Json::from(self.thresholds.rel)),
                    ("abs_fetches", Json::from(self.thresholds.abs_fetches)),
                    ("abs_energy", Json::from(self.thresholds.abs_energy)),
                ]),
            ),
            ("runs", Json::Arr(runs)),
            ("regressions", Json::from(self.regressions())),
            ("ok", Json::from(self.is_clean())),
        ] {
            manifest.push(name, value);
        }
        manifest
    }
}

fn diff_run(left: &RunTrace, right: &RunTrace, t: DiffThresholds) -> RunDiff {
    let mut chains = Vec::new();
    for l in &left.chains {
        match right.chains.iter().find(|r| r.key == l.key) {
            Some(r) => chains.push(ChainDiff {
                key: l.key.clone(),
                presence: Presence::Both,
                fetch: MetricShift::new(l.fetches, r.fetches, t.rel, t.abs_fetches),
                energy: MetricShift::new(l.energy, r.energy, t.rel, t.abs_energy),
            }),
            None => chains.push(ChainDiff {
                key: l.key.clone(),
                presence: Presence::OnlyLeft,
                fetch: MetricShift::new(l.fetches, 0.0, t.rel, t.abs_fetches),
                energy: MetricShift::new(l.energy, 0.0, t.rel, t.abs_energy),
            }),
        }
    }
    for r in &right.chains {
        if !left.chains.iter().any(|l| l.key == r.key) {
            chains.push(ChainDiff {
                key: r.key.clone(),
                presence: Presence::OnlyRight,
                fetch: MetricShift::new(0.0, r.fetches, t.rel, t.abs_fetches),
                energy: MetricShift::new(0.0, r.energy, t.rel, t.abs_energy),
            });
        }
    }
    RunDiff {
        key: left.key.clone(),
        presence: Presence::Both,
        fetch: Some(MetricShift::new(left.fetches, right.fetches, t.rel, t.abs_fetches)),
        energy: Some(MetricShift::new(left.energy, right.energy, t.rel, t.abs_energy)),
        chains,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type RunSpec<'a> = (&'a str, &'a str, u64, f64, &'a [(&'a str, u64, f64)]);

    fn manifest(runs: &[RunSpec<'_>]) -> String {
        let runs = runs
            .iter()
            .map(|(bench, scheme, fetches, pj, chains)| {
                Json::obj([
                    ("benchmark", Json::from(*bench)),
                    ("scheme", Json::from(*scheme)),
                    ("fetches", Json::Uint(*fetches)),
                    ("icache_pj", Json::from(*pj)),
                    (
                        "hot_chains",
                        Json::arr(chains.iter().map(|(label, f, e)| {
                            Json::obj([
                                ("chain", Json::Uint(0)),
                                ("label", Json::from(*label)),
                                ("fetches", Json::Uint(*f)),
                                ("energy_pj", Json::from(*e)),
                            ])
                        })),
                    ),
                ])
            })
            .collect::<Vec<_>>();
        Json::obj([("schema", Json::from("trace_report/v1")), ("runs", Json::Arr(runs))])
            .to_pretty()
    }

    fn set(text: &str, tag: &str) -> TraceSet {
        TraceSet::parse(text, tag, tag).expect("parses")
    }

    #[test]
    fn self_diff_is_clean() {
        let text = manifest(&[
            ("crc", "way-placement/32KB", 4096, 2048.0, &[("main", 4096, 2048.0)]),
            ("sha", "way-placement/32KB", 8192, 4096.0, &[]),
        ]);
        let diff =
            TraceDiff::compute(&set(&text, "a"), &set(&text, "b"), DiffThresholds::default());
        assert!(diff.is_clean());
        assert_eq!(diff.exit_code(), 0);
        assert_eq!(diff.runs.len(), 2);
        assert_eq!(diff.json().get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn task_key_is_carried_but_never_gated() {
        let body = manifest(&[("crc", "way-placement/32KB", 4096, 2048.0, &[])]);
        let mut with_key = Json::parse(&body).expect("manifest parses");
        with_key.push(
            "provenance",
            Json::obj([("task_key", Json::from("deadbeefdeadbeefdeadbeefdeadbeef"))]),
        );
        let keyed = set(&with_key.to_pretty(), "keyed");
        assert_eq!(keyed.task_key.as_deref(), Some("deadbeefdeadbeefdeadbeefdeadbeef"));
        let bare = set(&body, "bare");
        assert_eq!(bare.task_key, None);

        // Identical results under different (or missing) task keys
        // must still diff clean: the key is provenance, not a metric.
        let diff = TraceDiff::compute(&keyed, &bare, DiffThresholds::default());
        assert!(diff.is_clean());
        let rendered = diff.json();
        assert_eq!(
            rendered.get("left_task_key").and_then(Json::as_str),
            Some("deadbeefdeadbeefdeadbeefdeadbeef")
        );
        assert_eq!(rendered.get("right_task_key"), None);
    }

    #[test]
    fn exactly_at_threshold_does_not_flag() {
        // Powers of two keep every shift exactly representable:
        // 64 → 80 fetches is rel 0.25, abs 16.
        let left = manifest(&[("crc", "s", 64, 64.0, &[])]);
        let right = manifest(&[("crc", "s", 80, 80.0, &[])]);
        let at = DiffThresholds { rel: 0.25, abs_fetches: 16.0, abs_energy: 16.0 };
        let diff = TraceDiff::compute(&set(&left, "l"), &set(&right, "r"), at);
        assert!(diff.is_clean(), "rel shift exactly at the gate stays clean");

        let over_rel = DiffThresholds { rel: 0.249, abs_fetches: 15.0, abs_energy: 15.0 };
        let diff = TraceDiff::compute(&set(&left, "l"), &set(&right, "r"), over_rel);
        assert_eq!(diff.regressions(), 2, "fetches + energy flag once past both gates");
        assert_eq!(diff.exit_code(), 1);

        // Clearing only one gate is not enough.
        let abs_only = DiffThresholds { rel: 0.5, abs_fetches: 1.0, abs_energy: 1.0 };
        assert!(TraceDiff::compute(&set(&left, "l"), &set(&right, "r"), abs_only).is_clean());
        let rel_only = DiffThresholds { rel: 0.01, abs_fetches: 1e9, abs_energy: 1e9 };
        assert!(TraceDiff::compute(&set(&left, "l"), &set(&right, "r"), rel_only).is_clean());
    }

    #[test]
    fn missing_benchmark_is_a_structural_regression() {
        let both = manifest(&[("crc", "s", 64, 64.0, &[]), ("sha", "s", 64, 64.0, &[])]);
        let one = manifest(&[("crc", "s", 64, 64.0, &[])]);
        let diff = TraceDiff::compute(&set(&both, "l"), &set(&one, "r"), DiffThresholds::default());
        assert_eq!(diff.regressions(), 1);
        assert_eq!(diff.runs[1].presence, Presence::OnlyLeft);
        // And in the other direction.
        let diff = TraceDiff::compute(&set(&one, "l"), &set(&both, "r"), DiffThresholds::default());
        assert_eq!(diff.regressions(), 1);
        assert_eq!(diff.runs[1].presence, Presence::OnlyRight);
        assert_eq!(diff.exit_code(), 1);
    }

    #[test]
    fn zero_energy_runs_diff_clean() {
        // An idle run on both sides: 0/0 ratios must not NaN-poison.
        let idle = manifest(&[("noop", "s", 0, 0.0, &[])]);
        let diff =
            TraceDiff::compute(&set(&idle, "l"), &set(&idle, "r"), DiffThresholds::default());
        assert!(diff.is_clean());
        // Idle baseline, active candidate: infinite relative shift
        // flags once the absolute floor is cleared.
        let active = manifest(&[("noop", "s", 4096, 4096.0, &[])]);
        let diff =
            TraceDiff::compute(&set(&idle, "l"), &set(&active, "r"), DiffThresholds::default());
        assert_eq!(diff.regressions(), 2);
    }

    #[test]
    fn chain_shifts_and_dropouts_flag() {
        let left = manifest(&[("crc", "s", 4096, 4096.0, &[("hot", 4000, 4000.0)])]);
        let shifted = manifest(&[("crc", "s", 4096, 4096.0, &[("hot", 2000, 2000.0)])]);
        let t = DiffThresholds::default();
        let diff = TraceDiff::compute(&set(&left, "l"), &set(&shifted, "r"), t);
        assert_eq!(diff.regressions(), 1, "the shifted chain flags once");
        let chain = &diff.runs[0].chains[0];
        assert!(chain.fetch.regressed && chain.energy.regressed);
        // The chain disappearing entirely is structural.
        let gone = manifest(&[("crc", "s", 4096, 4096.0, &[("other", 4000, 4000.0)])]);
        let diff = TraceDiff::compute(&set(&left, "l"), &set(&gone, "r"), t);
        let chains = &diff.runs[0].chains;
        assert_eq!(chains.len(), 2);
        assert!(chains.iter().any(|c| c.presence == Presence::OnlyLeft));
        assert!(chains.iter().any(|c| c.presence == Presence::OnlyRight));
    }

    #[test]
    fn jsonl_streams_diff_on_tag_comparisons() {
        let text = concat!(
            "{\"type\":\"meta\",\"events_recorded\":100,\"events_dropped\":0,",
            "\"interval_cycles\":256,\"intervals\":1,\"chains\":2}\n",
            "{\"type\":\"interval\",\"fetches\":100}\n",
            "{\"type\":\"chain\",\"chain\":0,\"label\":\"main\",\"fetches\":90,",
            "\"tag_comparisons\":90}\n",
            "{\"type\":\"chain\",\"chain\":1,\"label\":\"\",\"fetches\":8,",
            "\"tag_comparisons\":256}\n",
            "{\"type\":\"unattributed\",\"fetches\":2,\"tag_comparisons\":64}\n",
        );
        let parsed = set(text, "TRACE_crc");
        assert_eq!(parsed.kind, "jsonl");
        assert_eq!(parsed.energy_unit, "tag_comparisons");
        assert_eq!(parsed.runs.len(), 1);
        assert_eq!(parsed.runs[0].fetches, 100.0);
        assert_eq!(parsed.runs[0].energy, 90.0 + 256.0 + 64.0);
        assert_eq!(parsed.runs[0].chains[1].key, "chain-1");
        let diff = TraceDiff::compute(&parsed, &parsed, DiffThresholds::default());
        assert!(diff.is_clean());
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        assert!(matches!(TraceSet::parse("{not json", "bad", "bad"), Err(TuneError::Json { .. })));
        assert_eq!(
            TraceSet::parse("{\"schema\":\"x\"}", "m.json", "m"),
            Err(TuneError::MissingField { source: "m.json".into(), field: "runs".into() })
        );
        let no_bench = Json::obj([("runs", Json::arr([Json::obj([("scheme", Json::from("s"))])]))])
            .to_compact();
        assert_eq!(
            TraceSet::parse(&no_bench, "m.json", "m"),
            Err(TuneError::MissingField { source: "m.json".into(), field: "benchmark".into() })
        );
        // JSONL with a corrupt line reports the line number.
        let err =
            TraceSet::parse("{\"type\":\"meta\",\"events_recorded\":1}\n{oops\n", "t.jsonl", "t")
                .unwrap_err();
        assert!(matches!(&err, TuneError::Json { source, .. } if source == "t.jsonl:2"));
    }

    #[test]
    fn idless_chain_records_are_malformed_not_aliased() {
        // A chain record with neither a label nor a chain id used to
        // degrade to the `chain-18446744073709551615` sentinel; two of
        // them would then silently alias via the `#2` dedup. It must
        // be a typed error instead.
        let one_idless = Json::obj([
            ("schema", Json::from("trace_report/v1")),
            (
                "runs",
                Json::arr([Json::obj([
                    ("benchmark", Json::from("crc")),
                    ("scheme", Json::from("s")),
                    ("fetches", Json::Uint(64)),
                    ("icache_pj", Json::from(64.0)),
                    (
                        "hot_chains",
                        Json::arr([
                            Json::obj([
                                ("label", Json::from("")),
                                ("fetches", Json::Uint(32)),
                                ("energy_pj", Json::from(32.0)),
                            ]),
                            Json::obj([
                                ("fetches", Json::Uint(32)),
                                ("energy_pj", Json::from(32.0)),
                            ]),
                        ]),
                    ),
                ])]),
            ),
        ])
        .to_pretty();
        let err = TraceSet::parse(&one_idless, "m.json", "m").unwrap_err();
        assert!(
            matches!(&err, TuneError::Malformed { source, message }
                if source == "m.json" && message.contains("neither")),
            "{err}"
        );
        // Same for a JSONL chain line, which reports its line number.
        let jsonl = concat!(
            "{\"type\":\"meta\",\"events_recorded\":10}\n",
            "{\"type\":\"chain\",\"label\":\"\",\"fetches\":10,\"tag_comparisons\":10}\n",
        );
        let err = TraceSet::parse(jsonl, "t.jsonl", "t").unwrap_err();
        assert!(
            matches!(&err, TuneError::Malformed { source, .. } if source == "t.jsonl:2"),
            "{err}"
        );
    }

    #[test]
    fn duplicate_labels_stay_joinable() {
        let text = manifest(&[("crc", "s", 100, 100.0, &[("loop", 50, 50.0), ("loop", 30, 30.0)])]);
        let parsed = set(&text, "m");
        assert_eq!(parsed.runs[0].chains[0].key, "loop");
        assert_eq!(parsed.runs[0].chains[1].key, "loop#2");
        let diff = TraceDiff::compute(&parsed, &parsed, DiffThresholds::default());
        assert!(diff.is_clean());
    }
}
