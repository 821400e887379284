//! End-to-end and per-layer benchmark of the way-placement
//! reproduction. See `perfbench/README.md` for the workloads, the
//! metrics and how steady they are.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig4|grid|faults> --seed <n> --seconds <s> --trace <0|1> [--draw-seed <n>]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` measures the
//! end-to-end metrics with tracing off; `--trace 1` is a separate run
//! that reports the per-layer metrics, prints the per-crate self-time
//! table and writes its spans to `perfbench/out/`.

mod reference;
mod traced;
mod workload;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use reference::Reference;
use workload::{Kind, Pass, Plan};

/// The `grid` draw used unless `--draw-seed` says otherwise. It draws
/// tiffdither (1 KB band), sha (2-8 KB) and rijndael_e (16 KB), whose
/// pass of about 10 s keeps a run of three passes near half a minute.
const DEFAULT_DRAW_SEED: u64 = 2;

/// What a run reports on its last line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`, in `BENCHMARK.json`'s order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

struct Args {
    kind: Kind,
    seed: u64,
    draw_seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut draw_seed = DEFAULT_DRAW_SEED;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload `{value}`"))?);
            }
            "--seed" => seed = Some(number()?),
            "--draw-seed" => draw_seed = number()?,
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                });
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let missing = |name: &str| format!("missing --{name}");
    Ok(Args {
        kind: kind.ok_or_else(|| missing("workload"))?,
        seed: seed.ok_or_else(|| missing("seed"))?,
        draw_seed,
        seconds: seconds.ok_or_else(|| missing("seconds"))?,
        trace: trace.ok_or_else(|| missing("trace"))?,
    })
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Peak resident memory of this process, from `/proc/self/status`.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).ok_or("no VmHWM")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("VmHWM: {e}"))?;
    Ok(kib / 1024.0)
}

/// Untraced passes until `seconds` have gone by, and at least
/// [`Plan::min_passes`], then the end-to-end metrics. Each pass's measured
/// phase is divided by the median reference sample taken during it;
/// `wall_s` is the median of that over the passes.
fn end_to_end(plan: &Plan, seconds: u64) -> Result<Outcome, String> {
    let mut reference = Reference::new();
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < plan.min_passes() || started.elapsed() < Duration::from_secs(seconds) {
        let (pass, engine) = workload::pass(plan, &mut reference);
        drop(engine);
        eprintln!(
            "pass {}: set-up {:.3} s, measured {:.3} s raw ({:.1} guest MIPS), \
             {:.3} ref-s (reference {:.3} ms, sampling {:.3} s)",
            passes.len(),
            pass.setup_s,
            pass.measured_s,
            pass.insns as f64 / pass.measured_s / 1e6,
            pass.normalised_s(),
            1e3 * pass.reference_s(),
            pass.sampling_s,
        );
        passes.push(pass);
    }
    let first = &passes[0];
    let mut correct = true;
    for (i, pass) in passes.iter().enumerate() {
        for failure in &pass.failures {
            eprintln!("FAILED (pass {i}): {failure}");
        }
        if pass.results != first.results {
            eprintln!("pass {i} does not repeat pass 0's per-job results exactly");
            correct = false;
        }
    }
    let failed: u64 = passes.iter().map(|p| p.failures.len() as u64).sum();
    let wall = median(&mut passes.iter().map(Pass::normalised_s).collect::<Vec<_>>());
    let raw = median(&mut passes.iter().map(|p| p.measured_s).collect::<Vec<_>>());
    eprintln!("{} passes; raw measured-phase median {raw:.3} s", passes.len());
    Ok(Outcome {
        correct: correct && failed == 0,
        attempted: passes.iter().map(|p| p.attempted).sum(),
        failed,
        metrics: vec![
            ("wall_s", wall, "ref-s"),
            ("setup_s", median(&mut passes.iter().map(|p| p.setup_s).collect::<Vec<_>>()), "s"),
            ("guest_mips", first.insns as f64 / wall / 1e6, "Minsn/ref-s"),
            ("peak_rss_mb", peak_rss_mib()?, "MiB"),
            ("icache_energy_pct", first.energy_pct, "%"),
            ("ed_product", first.ed, "ratio"),
        ],
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let plan = match Plan::new(args.kind, args.seed, args.draw_seed) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let names: Vec<&str> = plan.benchmarks.iter().map(|b| b.name()).collect();
    eprintln!("workload {:?}: {}", plan.kind, names.join(" "));
    let outcome = if args.trace {
        let spans = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{:?}-{}.jsonl", plan.kind, args.seed).to_lowercase());
        Ok(traced::run(&plan, &spans))
    } else {
        end_to_end(&plan, args.seconds)
    };
    let Outcome { correct, attempted, failed, metrics } = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut json = String::new();
    let mut finite = true;
    for (name, value, unit) in &metrics {
        finite &= value.is_finite();
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            json,
            "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
            if json.is_empty() { "" } else { ", " }
        );
        eprintln!("{name:<26} {value:>16.6} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
        correct && finite
    );
}
