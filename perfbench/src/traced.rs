//! The traced run: the workload's jobs redone layer by layer from the
//! benchmark's own code, with an in-memory span around every call into
//! a crate.
//!
//! It mirrors what `Workbench::build` and `wp_core::measure_traced` do
//! (assemble, link, profile, link, simulate, verify, price), adds a
//! standalone `Machine::boot` of each job's image, and replays each
//! clean run's fetch stream (captured untimed through a `TraceSink`)
//! through `MemorySystem::fetch` and `fetch_block`. Every per-job
//! result must equal the untraced pass's bit for bit, and every replay
//! must reproduce its run's `FetchStats`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use wp_bench::chaos::CHAOS_RATES_PPM;
use wp_bench::Engine;
use wp_core::wp_energy::{EnergyModel, SystemActivity};
use wp_core::wp_isa::{Image, Insn, Op, Operand, ShiftAmount};
use wp_core::wp_linker::{Layout, Linker, Profile};
use wp_core::wp_mem::{CacheGeometry, FetchStats, MemoryConfig, MemorySystem};
use wp_core::wp_sim::{simulate, simulate_traced, Machine, SimConfig, TraceSink};
use wp_core::wp_trace::FetchEvent;
use wp_core::wp_workloads::{Benchmark, InputSet};
use wp_core::{verify, FaultOutcome, Measurement, Scheme};

use crate::reference::Reference;
use crate::workload::{self, measurement_bits, trial_bits, trial_violation, JobResult, Kind, Plan};
use crate::Outcome;

/// One timed call. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    job: Option<u32>,
}

/// In-memory spans, written out when the run ends.
#[derive(Debug)]
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str, job: Option<u32>) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start: self.now(), end: 0, parent, job });
        self.open.push(id);
        id
    }

    fn exit(&mut self, id: usize) {
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        self.spans[id].end = self.now();
    }

    fn time<T>(&mut self, name: &'static str, job: Option<u32>, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, job);
        let value = f();
        self.exit(id);
        value
    }

    /// Per span name: (calls, total seconds, self seconds). Self time is
    /// a span's duration minus its children's.
    fn totals(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end - span.start;
            }
        }
        let mut totals = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = totals.entry(span.name).or_insert((0, 0.0, 0.0));
            let ns = span.end - span.start;
            entry.0 += 1;
            entry.1 += ns as f64 / 1e9;
            entry.2 += ns.saturating_sub(children) as f64 / 1e9;
        }
        totals
    }

    fn jsonl(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"job\":{}}}",
                span.name,
                span.start,
                span.end,
                opt(span.parent.map(|p| p as u64)),
                opt(span.job.map(u64::from)),
            );
        }
        out
    }
}

/// Captures a run's fetch addresses, in order.
#[derive(Debug, Default)]
struct FetchCapture {
    pcs: Vec<u32>,
}

impl TraceSink for FetchCapture {
    fn enabled(&self) -> bool {
        true
    }

    fn record_fetch(&mut self, event: &FetchEvent) {
        self.pcs.push(event.pc);
    }
}

/// The simulator's straight-line batching rule (`straight_line_simple`
/// in `wp-sim` when this benchmark was defined): runs of these
/// instructions within one line go through `fetch_block`. The
/// simulator also requires that no scoreboard stall can fire inside
/// the run, which a replay cannot see, so the replay batches at least
/// as much as the simulator did.
fn batchable(insn: Insn) -> bool {
    match insn.op {
        Op::Nop | Op::Mov16 { .. } => true,
        Op::Alu { op2: Operand::Reg { amount: ShiftAmount::Reg(_), .. }, .. } => false,
        Op::Alu { .. } => true,
        _ => false,
    }
}

/// A benchmark's compiler side, rebuilt the way `Workbench::build`
/// builds it.
struct Bench {
    benchmark: Benchmark,
    linkers: [Linker; 2],
    profile: Profile,
}

impl Bench {
    fn linker(&self, set: InputSet) -> &Linker {
        match set {
            InputSet::Small => &self.linkers[0],
            InputSet::Large => &self.linkers[1],
        }
    }
}

/// Sums over the traced run that are not span times.
#[derive(Debug, Default)]
struct Counts {
    profile_insns: u64,
    simulate_insns: u64,
    replayed_fetches: u64,
    batched_fetches: u64,
    fetch: FetchStats,
    cycles: u64,
    itlb_lookups: u64,
    itlb_misses: u64,
    dcache_accesses: u64,
    dcache_misses: u64,
    faults_injected: u64,
    detected: u64,
    demotions: u64,
    outcomes: [u64; 3],
    verify_mismatches: u64,
    attempted: u64,
    failures: Vec<String>,
}

struct Traced {
    tracer: Tracer,
    counts: Counts,
    next_job: u32,
}

impl Traced {
    fn bench(&mut self, benchmark: Benchmark) -> Result<Bench, String> {
        let t = &mut self.tracer;
        let small = t.time("assemble", None, || benchmark.modules(InputSet::Small));
        let large = t.time("assemble", None, || benchmark.modules(InputSet::Large));
        let linkers = [Linker::new().with_modules(small), Linker::new().with_modules(large)];
        let natural = t
            .time("link", None, || linkers[0].link(Layout::Natural, &Profile::empty()))
            .map_err(|e| format!("{benchmark}: natural link: {e}"))?;
        let profiled = t.time("profile", None, || {
            let config = SimConfig::new(MemoryConfig::baseline(CacheGeometry::xscale_icache()))
                .with_profile();
            let run = simulate(&natural.image, &config).map_err(|e| e.to_string())?;
            verify(benchmark, InputSet::Small, run.checksum).map_err(|e| e.to_string())?;
            let counts = run.insn_counts.as_deref().unwrap_or(&[]);
            Ok::<_, String>((natural.profile_from_counts(counts), run.instructions))
        });
        let (profile, insns) = profiled.map_err(|e| format!("{benchmark}: profiling: {e}"))?;
        self.counts.profile_insns += insns;
        Ok(Bench { benchmark, linkers, profile })
    }

    /// One clean job, as `wp_core::measure_traced` runs it, then its
    /// standalone boot and the replays of its fetch stream.
    fn job(
        &mut self,
        bench: &Bench,
        geometry: CacheGeometry,
        scheme: Scheme,
        set: InputSet,
    ) -> Result<Measurement, String> {
        let id = Some(self.next_job);
        self.next_job += 1;
        self.counts.attempted += 1;
        let what = format!("{} {geometry} {}", bench.benchmark, scheme.label());
        let mem = scheme.memory_config(geometry);
        let config = SimConfig::new(mem);
        let t = &mut self.tracer;
        let job = t.enter("job", id);
        let mut layers = || -> Result<_, String> {
            let output = t
                .time("link", id, || bench.linker(set).link(scheme.layout(), &bench.profile))
                .map_err(|e| format!("{what}: link: {e}"))?;
            let run = t
                .time("simulate", id, || simulate(&output.image, &config))
                .map_err(|e| format!("{what}: simulate: {e}"))?;
            let verified = t.time("verify", id, || verify(bench.benchmark, set, run.checksum));
            let activity = SystemActivity {
                fetch: run.fetch,
                dcache: run.dcache,
                itlb: run.itlb,
                dtlb: run.dtlb,
                cycles: run.cycles,
                instructions: run.instructions,
                detection: run.detection,
            };
            let energy = t.time("price", id, || EnergyModel::new().price(&mem, &activity));
            Ok((output, run, verified, energy))
        };
        let layers = layers();
        t.exit(job);
        let (output, run, verified, energy) = layers?;
        if let Err(e) = verified {
            self.counts.verify_mismatches += 1;
            return Err(format!("{what}: {e}"));
        }

        t.time("boot", id, || black_box(Machine::boot(&output.image)));
        let mut capture = FetchCapture::default();
        let captured = simulate_traced(&output.image, &config, &mut capture)
            .map_err(|e| format!("{what}: capture: {e}"))?;
        if captured.cycles != run.cycles || captured.fetch != run.fetch {
            return Err(format!("{what}: the captured run differs from the measured one"));
        }
        let per_fetch = t.time("fetch", id, || {
            let mut replay = MemorySystem::new(mem);
            for &pc in &capture.pcs {
                replay.fetch(pc);
            }
            *replay.fetch_stats()
        });
        let simple: Vec<bool> = output.image.text.iter().map(|&insn| batchable(insn)).collect();
        let line_bytes = geometry.line_bytes();
        let (blocked, batched) = t.time("fetch_block", id, || {
            let mut replay = MemorySystem::new(mem);
            let mut batched = 0u64;
            let pcs = &capture.pcs;
            let is_simple = |pc: u32| simple[((pc - Image::TEXT_BASE) / 4) as usize];
            let mut i = 0;
            while i < pcs.len() {
                let (pc, mut words) = (pcs[i], 1);
                if is_simple(pc) {
                    while i + words < pcs.len()
                        && pcs[i + words] == pc + 4 * words as u32
                        && pcs[i + words] / line_bytes == pc / line_bytes
                        && is_simple(pcs[i + words])
                    {
                        words += 1;
                    }
                }
                if words > 1 {
                    replay.fetch_block(pc, words as u32);
                    batched += words as u64;
                } else {
                    replay.fetch(pc);
                }
                i += words;
            }
            (*replay.fetch_stats(), batched)
        });
        if per_fetch != run.fetch || blocked != run.fetch {
            return Err(format!("{what}: a fetch replay did not reproduce the run's FetchStats"));
        }
        let c = &mut self.counts;
        c.simulate_insns += run.instructions;
        c.replayed_fetches += capture.pcs.len() as u64;
        c.batched_fetches += batched;
        c.fetch.merge(&run.fetch);
        c.cycles += run.cycles;
        c.itlb_lookups += run.itlb.lookups;
        c.itlb_misses += run.itlb.misses;
        c.dcache_accesses += run.dcache.accesses();
        c.dcache_misses += run.dcache.misses;
        Ok(Measurement { scheme, icache: geometry, run, energy })
    }

    /// The armed ladder for one pair; `job` marks trials that belong
    /// to the workload, as opposed to the resilience probe.
    #[allow(clippy::too_many_arguments)]
    fn ladder(
        &mut self,
        workbench: &wp_core::Workbench,
        plan: &Plan,
        scheme: Scheme,
        seed: u64,
        clean: &Measurement,
        job: bool,
        results: &mut Vec<JobResult>,
    ) {
        let label = format!("{}/{}", workbench.benchmark(), scheme.label());
        for rate in CHAOS_RATES_PPM {
            let id = job.then_some(self.next_job);
            self.next_job += u32::from(job);
            let name = match rate {
                0 => "trial.0ppm",
                1_000 => "trial.1kppm",
                10_000 => "trial.10kppm",
                _ => "trial.100kppm",
            };
            let chaos = self
                .tracer
                .time(name, id, || workload::trial(workbench, plan, scheme, seed, rate, clean));
            let c = &mut self.counts;
            c.attempted += 1;
            if let Some(violation) = trial_violation(&chaos, clean.energy.icache_pj()) {
                c.failures.push(violation);
            }
            match chaos.trial.outcome {
                FaultOutcome::Graceful { faults_injected, .. } => {
                    c.faults_injected += faults_injected;
                    c.outcomes[0] += 1;
                }
                FaultOutcome::Detected { .. } => c.outcomes[1] += 1,
                FaultOutcome::SilentCorruption { .. } => c.outcomes[2] += 1,
            }
            c.detected += chaos.trial.detection.total_detected();
            c.demotions += chaos.trial.demotions;
            results.push(JobResult {
                label: format!("{label}@{rate}ppm"),
                bits: trial_bits(&chaos.trial),
            });
        }
    }
}

/// Runs one untraced pass, then the traced pass, and compares them.
/// Prints the per-crate self-time table and writes the spans to
/// `spans` as JSON lines.
pub fn run(plan: &Plan, spans: &Path) -> Outcome {
    let mut reference = Reference::new();
    let (untraced, engine) = workload::pass(plan, &mut reference);
    let mut traced = Traced { tracer: Tracer::new(), counts: Counts::default(), next_job: 0 };
    traced.counts.attempted = untraced.attempted;
    traced.counts.failures = untraced.failures.clone();
    let mut results = Vec::new();
    for (index, &benchmark) in plan.benchmarks.iter().enumerate() {
        let seeds = plan.seeds(index);
        if let Err(e) = one_benchmark(&mut traced, plan, &engine, benchmark, seeds, &mut results) {
            traced.counts.failures.push(e);
        }
    }
    let failures = &mut traced.counts.failures;
    if results.len() != untraced.results.len() {
        failures.push(format!(
            "the traced pass has {} results, the untraced one {}",
            results.len(),
            untraced.results.len()
        ));
    }
    for (traced_job, untraced_job) in results.iter().zip(&untraced.results) {
        if traced_job != untraced_job {
            failures.push(format!(
                "{}: traced result differs from the untraced one ({})",
                traced_job.label, untraced_job.label
            ));
        }
    }
    if plan.kind != Kind::Faults {
        probe(&mut traced, plan, &engine);
    }
    let totals = traced.tracer.totals();
    let jobs_s: f64 = traced
        .tracer
        .spans
        .iter()
        .filter(|s| s.job.is_some() && (s.name == "job" || s.name.starts_with("trial.")))
        .map(|s| (s.end - s.start) as f64 / 1e9)
        .sum();
    eprint!("{}", table(plan.kind, &totals, jobs_s, untraced.measured_s));
    let written = spans
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(spans, traced.tracer.jsonl()));
    match written {
        Ok(()) => eprintln!("spans: {}", spans.display()),
        Err(e) => eprintln!("spans: cannot write {}: {e}", spans.display()),
    }
    let failed = traced.counts.failures.len() as u64;
    for failure in &traced.counts.failures {
        eprintln!("FAILED: {failure}");
    }
    Outcome {
        correct: failed == 0,
        attempted: traced.counts.attempted,
        failed,
        metrics: metrics(&totals, &traced.counts, jobs_s, untraced.measured_s),
    }
}

/// Redoes one benchmark's share of the workload, in the untraced
/// pass's job order.
fn one_benchmark(
    traced: &mut Traced,
    plan: &Plan,
    engine: &Engine,
    benchmark: Benchmark,
    seeds: &[u64],
    results: &mut Vec<JobResult>,
) -> Result<(), String> {
    let bench = traced.bench(benchmark)?;
    match plan.kind {
        Kind::Fig4 | Kind::Grid => {
            let mut rows = Vec::new();
            for &geometry in &plan.geometries {
                let base = traced.job(&bench, geometry, Scheme::Baseline, plan.set)?;
                results.push(JobResult {
                    label: format!("{benchmark}/{geometry}/baseline"),
                    bits: measurement_bits(&base.run, &base.energy),
                });
                for &scheme in &plan.schemes {
                    let m = traced.job(&bench, geometry, scheme, plan.set)?;
                    let energy = m.energy.normalized_icache_energy(&base.energy);
                    let ed = m.energy.ed_product(&base.energy);
                    rows.push(JobResult {
                        label: format!("{benchmark}/{geometry}/{}", scheme.label()),
                        bits: vec![
                            m.run.instructions,
                            m.run.cycles,
                            m.run.fetch.fetches,
                            energy.to_bits(),
                            ed.to_bits(),
                        ],
                    });
                }
            }
            // The untraced pass lists every baseline of a benchmark
            // before its rows.
            results.extend(rows);
        }
        Kind::Faults => {
            let workbench = engine.workbench(benchmark).map_err(|e| e.to_string())?;
            for (&scheme, &seed) in plan.schemes.iter().zip(seeds) {
                let clean = traced.job(&bench, plan.geometry(), scheme, plan.set)?;
                results.push(JobResult {
                    label: format!("{benchmark}/{}/clean", scheme.label()),
                    bits: measurement_bits(&clean.run, &clean.energy),
                });
                traced.ladder(&workbench, plan, scheme, seed, &clean, true, results);
            }
        }
    }
    Ok(())
}

/// `fig4` and `grid` leave the resilience layer disarmed. So that its
/// per-layer figures are measured on every workload, the traced run
/// ends by climbing the armed ladder once, for the workload's first
/// benchmark under way-placement 32 KB on small inputs.
fn probe(traced: &mut Traced, plan: &Plan, engine: &Engine) {
    let benchmark = plan.benchmarks[0];
    let probe_plan = Plan {
        set: InputSet::Small,
        geometries: vec![CacheGeometry::xscale_icache()],
        ..plan.clone()
    };
    let scheme = Scheme::WayPlacement { area_bytes: 32 * 1024 };
    let clean = engine.workbench(benchmark).and_then(|w| {
        engine
            .measure(benchmark, probe_plan.geometry(), scheme, InputSet::Small)
            .map(|c| (w, c))
    });
    match clean {
        Ok((workbench, clean)) => {
            traced.counts.attempted += 1;
            let mut results = Vec::new();
            traced.ladder(&workbench, &probe_plan, scheme, 0, &clean, false, &mut results);
        }
        Err(e) => traced.counts.failures.push(format!("{benchmark}: probe clean twin: {e}")),
    }
}

fn metrics(
    totals: &BTreeMap<&'static str, (u64, f64, f64)>,
    c: &Counts,
    jobs_s: f64,
    untraced_s: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let total = |name: &str| totals.get(name).map_or(0.0, |t| t.1);
    let calls = |name: &str| totals.get(name).map_or(0, |t| t.0) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let fetches = c.replayed_fetches as f64;
    let f = &c.fetch;
    vec![
        ("assemble.s", total("assemble"), "s"),
        ("assemble.calls", calls("assemble"), "count"),
        ("link.s", total("link"), "s"),
        ("link.calls", calls("link"), "count"),
        ("profile.s", total("profile"), "s"),
        ("profile.insns", c.profile_insns as f64, "count"),
        ("simulate.s", total("simulate"), "s"),
        ("simulate.insns", c.simulate_insns as f64, "count"),
        ("simulate.ns_per_insn", 1e9 * ratio(total("simulate"), c.simulate_insns as f64), "ns"),
        ("execute.s", total("simulate") - total("fetch"), "s"),
        ("boot.s", total("boot"), "s"),
        ("fetch.s", total("fetch"), "s"),
        ("fetch.ns_per_fetch", 1e9 * ratio(total("fetch"), fetches), "ns"),
        ("fetch_block.s", total("fetch_block"), "s"),
        ("fetch_block.ns_per_fetch", 1e9 * ratio(total("fetch_block"), fetches), "ns"),
        ("fetch.batched_share", ratio(c.batched_fetches as f64, fetches), "fraction"),
        ("icache.tags_per_fetch", ratio(f.tag_comparisons as f64, f.fetches as f64), "tags/fetch"),
        ("icache.miss_rate", ratio(f.misses as f64, f.fetches as f64), "fraction"),
        ("icache.hint_mispredicts", f.hint_false_wp as f64, "count"),
        ("itlb.miss_rate", ratio(c.itlb_misses as f64, c.itlb_lookups as f64), "fraction"),
        ("dcache.miss_rate", ratio(c.dcache_misses as f64, c.dcache_accesses as f64), "fraction"),
        ("sim.cpi", ratio(c.cycles as f64, c.simulate_insns as f64), "cycles/insn"),
        ("trial.0ppm.s", total("trial.0ppm"), "s"),
        ("trial.1kppm.s", total("trial.1kppm"), "s"),
        ("trial.10kppm.s", total("trial.10kppm"), "s"),
        ("trial.100kppm.s", total("trial.100kppm"), "s"),
        ("faults.injected", c.faults_injected as f64, "count"),
        ("detect.detected", c.detected as f64, "count"),
        ("degrade.demotions", c.demotions as f64, "count"),
        ("outcome.graceful", c.outcomes[0] as f64, "count"),
        ("outcome.detected", c.outcomes[1] as f64, "count"),
        ("outcome.silent", c.outcomes[2] as f64, "count"),
        ("price.s", total("price"), "s"),
        ("measure.self_s", totals.get("job").map_or(0.0, |t| t.2), "s"),
        ("verify.mismatches", c.verify_mismatches as f64, "count"),
        ("trace.jobs_s", jobs_s, "s"),
        ("trace.untraced_s", untraced_s, "s"),
    ]
}

/// The per-crate self-time table of one traced run.
fn table(
    kind: Kind,
    totals: &BTreeMap<&'static str, (u64, f64, f64)>,
    jobs_s: f64,
    untraced_s: f64,
) -> String {
    const ROWS: [(&str, &str); 14] = [
        ("assemble", "wp-workloads + wp-isa (Benchmark::modules)"),
        ("link", "wp-linker (Linker::link)"),
        ("profile", "wp-sim, profiling run (simulate)"),
        ("simulate", "wp-sim, measurement runs (simulate)"),
        ("verify", "wp-core verify (host reference)"),
        ("price", "wp-energy (EnergyModel::price)"),
        ("job", "wp-core measure glue (job self time)"),
        ("trial.0ppm", "wp-core fault_trial_with, 0 ppm"),
        ("trial.1kppm", "wp-core fault_trial_with, 1k ppm"),
        ("trial.10kppm", "wp-core fault_trial_with, 10k ppm"),
        ("trial.100kppm", "wp-core fault_trial_with, 100k ppm"),
        ("boot", "wp-sim Machine::boot (standalone, extra)"),
        ("fetch", "wp-mem MemorySystem::fetch replay (extra)"),
        ("fetch_block", "wp-mem MemorySystem::fetch_block replay (extra)"),
    ];
    let mut out = format!("per-crate self time, {kind:?} traced run:\n");
    let _ = writeln!(out, "{:<48} {:>7} {:>9} {:>9}", "layer", "calls", "total s", "self s");
    for (name, label) in ROWS {
        let (calls, total, own) = totals.get(name).copied().unwrap_or((0, 0.0, 0.0));
        let _ = writeln!(out, "{label:<48} {calls:>7} {total:>9.3} {own:>9.3}");
    }
    let _ = writeln!(
        out,
        "summed job spans {jobs_s:.3} s vs untraced measured phase {untraced_s:.3} s (gap {:.3} s)",
        untraced_s - jobs_s
    );
    out
}
