//! `obs_report` — the observability layer's own acceptance harness.
//!
//! Runs the scripted fault/rerun/chaos campaign of
//! [`wp_bench::obs::run_pipeline`] with metrics, journal and accounts
//! armed, then emits:
//!
//! * `OBS_metrics.prom` — the full registry in Prometheus text
//!   exposition format (wall-clock histograms included);
//! * `OBS_journal.jsonl` — the structured event journal, sorted by its
//!   deterministic `(group, local)` key: byte-identical across runs of
//!   the same shape;
//! * `BENCH_obs_report.json` — the manifest: per-phase account rows,
//!   deterministic metric values, and every reconciliation check, plus
//!   a `wall` section (overhead measurement, per-worker busy time) that
//!   is *excluded* from determinism comparisons — the blessed copy is
//!   the canonical manifest without it.
//!
//! Every metric is cross-checked against independently derived ground
//! truth (suite reports, chaos classifications, journal counts); any
//! mismatch exits 1, as does armed overhead past
//! [`wp_bench::obs::OBS_OVERHEAD_LIMIT_PCT`].
//!
//! Usage: `obs_report [--quick] [--watch] [--sabotage]`
//!
//! `--quick` shrinks the campaign for CI smoke; `--watch` renders a
//! live TTY view (per-job spinner rows, pool queue depth, a fault-rate
//! sparkline from journal arrival stamps) while the pipeline runs;
//! `--sabotage` deliberately bumps one counter before verification, to
//! prove the cross-checks can fail (CI uses it as a negative test).

use std::collections::BTreeMap;
use std::io::{IsTerminal, Write};
use std::sync::Arc;
use std::time::Duration;

use wp_bench::obs::{measure_overhead, run_pipeline, ObsReport, OBS_OVERHEAD_LIMIT_PCT};
use wp_bench::{write_manifest, Json};
use wp_obs::journal::Event;
use wp_obs::Obs;

const SPINNER: [char; 10] = ['⠋', '⠙', '⠹', '⠸', '⠼', '⠴', '⠦', '⠧', '⠇', '⠏'];
const SPARKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
/// Journal event kinds that count as "a fault happened now" for the
/// live sparkline.
const FAULT_KINDS: [&str; 5] =
    ["job_retry", "job_timeout", "job_panic", "scheme_demotion", "chaos_trial"];

/// One frame of the live view. Returns the rendered line count so the
/// next frame can rewind over it.
fn render_frame(obs: &Arc<Obs>, tick: usize, out: &mut impl Write) -> usize {
    let events = obs.journal.snapshot();
    let queued = obs.metrics.gauge_value("wp_pool_queue_depth").unwrap_or(0);
    let running = obs.metrics.gauge_value("wp_pool_running").unwrap_or(0);
    let mut lines = Vec::new();
    lines.push(format!(
        "obs_report: {} events | queue {queued} | running {running} | {:.1}s",
        events.len(),
        obs.journal.now_us() as f64 / 1e6,
    ));

    // Per-job rows: a group with a job_start is a job; a later
    // job_finish (or chaos_trial batch) in the same group closes it.
    let mut jobs: BTreeMap<u64, (String, Option<String>)> = BTreeMap::new();
    for e in &events {
        match e.kind {
            "job_start" => {
                let get = |key| {
                    e.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v.as_str()).unwrap_or("?")
                };
                jobs.insert(e.group, (format!("{}/{}", get("benchmark"), get("scheme")), None));
            }
            "job_finish" => {
                let outcome = e
                    .attrs
                    .iter()
                    .find(|(k, _)| *k == "outcome")
                    .map(|(_, v)| v.clone())
                    .unwrap_or_default();
                if let Some(job) = jobs.get_mut(&e.group) {
                    job.1 = Some(outcome);
                }
            }
            _ => {}
        }
    }
    let shown = 12usize;
    let skip = jobs.len().saturating_sub(shown);
    if skip > 0 {
        lines.push(format!("  … {skip} earlier job(s)"));
    }
    for (_, (label, outcome)) in jobs.iter().skip(skip) {
        let marker = match outcome.as_deref() {
            None => SPINNER[tick % SPINNER.len()],
            Some("ok") => '✓',
            Some(_) => '✗',
        };
        lines.push(format!("  {marker} {label}"));
    }

    // Fault-rate sparkline: arrival stamps of fault-ish events, bucketed
    // over the journal's lifetime so far.
    let now = obs.journal.now_us().max(1);
    let mut bins = [0u64; 32];
    let mut faults = 0u64;
    for e in &events {
        if is_fault(e) {
            faults += 1;
            let bin = ((e.wall_us as u128 * bins.len() as u128) / now as u128)
                .min(bins.len() as u128 - 1) as usize;
            bins[bin] += 1;
        }
    }
    let peak = bins.iter().copied().max().unwrap_or(0).max(1);
    let spark: String = bins
        .iter()
        .map(|&n| if n == 0 { SPARKS[0] } else { SPARKS[(n * 7).div_ceil(peak) as usize] })
        .collect();
    lines.push(format!("  faults {spark} ({faults} events)"));

    for line in &lines {
        let _ = writeln!(out, "\x1b[K{line}");
    }
    let _ = out.flush();
    lines.len()
}

fn is_fault(e: &Event) -> bool {
    FAULT_KINDS.contains(&e.kind)
        && (e.kind != "chaos_trial"
            || e.attrs.iter().any(|(k, v)| *k == "outcome" && v == "detected"))
}

/// Runs the pipeline on a worker thread and renders the live view until
/// it completes.
fn run_watched(obs: &Arc<Obs>, quick: bool, sabotage: bool) -> Result<ObsReport, String> {
    let worker = {
        let obs = Arc::clone(obs);
        std::thread::spawn(move || run_pipeline(&obs, quick, sabotage))
    };
    let mut out = std::io::stdout().lock();
    let mut tick = 0usize;
    let mut last = 0usize;
    loop {
        if last > 0 {
            let _ = write!(out, "\x1b[{last}A");
        }
        last = render_frame(obs, tick, &mut out);
        if worker.is_finished() {
            break;
        }
        tick += 1;
        std::thread::sleep(Duration::from_millis(120));
    }
    worker.join().map_err(|_| "pipeline thread panicked".to_string())?
}

fn run(quick: bool, watch: bool, sabotage: bool) -> Result<i32, String> {
    let obs = Obs::new();
    let report = if watch && std::io::stdout().is_terminal() {
        run_watched(&obs, quick, sabotage)?
    } else {
        if watch {
            eprintln!("obs_report: stdout is not a terminal, running without live view");
        }
        run_pipeline(&obs, quick, sabotage)?
    };

    for check in &report.checks {
        println!(
            "{} {:<44} expected {:>12} actual {:>12}",
            if check.ok() { "PASS" } else { "FAIL" },
            check.name,
            check.expected,
            check.actual,
        );
    }
    let failed = report.failed_checks().len();
    println!(
        "checks: {}/{} passed | suite failures {} (want 1) | rerun complete {} | chaos ok {}",
        report.checks.len() - failed,
        report.checks.len(),
        report.faulted.failures.len(),
        report.resumed.is_complete(),
        !report.chaos.failed(),
    );

    let (plain_ns, armed_ns, overhead_pct) = measure_overhead()?;
    let overhead_ok = overhead_pct < OBS_OVERHEAD_LIMIT_PCT;
    println!(
        "armed overhead: {overhead_pct:.3}% (plain {:.2} ms, armed {:.2} ms, \
         bound {OBS_OVERHEAD_LIMIT_PCT}%)",
        plain_ns / 1e6,
        armed_ns / 1e6,
    );

    let dir = wp_core::env::bench_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    std::fs::write(dir.join("OBS_metrics.prom"), report.obs.metrics.prometheus())
        .map_err(|e| format!("writing OBS_metrics.prom: {e}"))?;
    std::fs::write(dir.join("OBS_journal.jsonl"), report.obs.journal.to_jsonl())
        .map_err(|e| format!("writing OBS_journal.jsonl: {e}"))?;

    // The canonical manifest plus the host-dependent `wall` section —
    // the one key determinism comparisons exclude and the blessed copy
    // never carries.
    let mut manifest = report.canonical_manifest();
    manifest.push(
        "wall",
        Json::obj([
            ("plain_ns", Json::from(plain_ns)),
            ("armed_ns", Json::from(armed_ns)),
            ("overhead_pct", Json::from(overhead_pct)),
            ("limit_pct", Json::from(OBS_OVERHEAD_LIMIT_PCT)),
            ("overhead_ok", Json::from(overhead_ok)),
            ("busy_ns", Json::arr(report.busy_ns.iter().map(|&n| Json::Uint(n)))),
        ]),
    );
    let path =
        write_manifest("obs_report", &manifest).map_err(|e| format!("writing manifest: {e}"))?;
    eprintln!("manifest: {}", path.display());

    let all_ok = report.ok() && overhead_ok;
    if !all_ok {
        eprintln!("obs_report: FAILED ({failed} check(s), overhead ok: {overhead_ok})");
    }
    Ok(i32::from(!all_ok))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let watch = args.iter().any(|a| a == "--watch");
    let sabotage = args.iter().any(|a| a == "--sabotage");
    match run(quick, watch, sabotage) {
        Ok(code) => std::process::exit(code),
        Err(message) => {
            eprintln!("obs_report: {message}");
            std::process::exit(1);
        }
    }
}
