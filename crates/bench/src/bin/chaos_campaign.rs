//! The chaos/soak campaign driver.
//!
//! Arms the full detection-and-recovery stack — parity/duplication
//! checks in the fetch core, priced recovery, and the degradation
//! controller — and soaks it under an escalating hardware fault ladder
//! (0 / 1k / 10k / 100k ppm) across the benchmark suite. Fails (exit 1)
//! when any resilience invariant breaks:
//!
//! * a silent architectural corruption at any rate;
//! * an energy-burning fault the detection layer never saw and the
//!   controller never reacted to;
//! * armed-but-clean detection overhead past 5% of the unarmed twin.
//!
//!   chaos_campaign [--quick]
//!
//! `--quick` restricts to three benchmarks (the CI smoke shape); the
//! default soaks all of `Benchmark::ALL`. Writes
//! `BENCH_chaos_campaign.json`, the same manifest `bless` freezes into
//! the committed baselines.

use wp_bench::chaos::{run_campaign, CHAOS_RATES_PPM, CLEAN_OVERHEAD_LIMIT};
use wp_bench::{write_manifest, Engine};
use wp_core::FaultOutcome;

fn main() {
    let quick = std::env::args().any(|arg| arg == "--quick");
    let outcome = run_campaign(quick);
    let (graceful, detected, silent) = outcome.outcome_counts();

    println!(
        "== Chaos campaign: {} trials on {}, rates {:?} ppm ==",
        outcome.trials.len(),
        outcome.geometry,
        CHAOS_RATES_PPM,
    );
    println!(
        "{:>10} | {:>6} | {:>16} | {:>16} | {:>9}",
        "rate (ppm)", "trials", "cycles (avg/max)", "energy (avg/max)", "demotions"
    );
    for &rate in &CHAOS_RATES_PPM {
        let at_rate: Vec<_> = outcome.trials.iter().filter(|(t, _)| t.rate_ppm == rate).collect();
        let ratios: Vec<(f64, f64)> = at_rate
            .iter()
            .filter_map(|(t, _)| match t.trial.outcome {
                FaultOutcome::Graceful { cycle_ratio, energy_ratio, .. } => {
                    Some((cycle_ratio, energy_ratio))
                }
                _ => None,
            })
            .collect();
        let count = ratios.len();
        let mean = |f: fn(&(f64, f64)) -> f64| {
            if count == 0 {
                1.0
            } else {
                ratios.iter().map(f).sum::<f64>() / count as f64
            }
        };
        let max = |f: fn(&(f64, f64)) -> f64| ratios.iter().map(f).fold(1.0f64, f64::max);
        let demotions: u64 = at_rate.iter().map(|(t, _)| t.trial.demotions).sum();
        println!(
            "{rate:>10} | {count:>6} | {:>7.4} / {:>6.4} | {:>7.4} / {:>6.4} | {demotions:>9}",
            mean(|p| p.0),
            max(|p| p.0),
            mean(|p| p.1),
            max(|p| p.1),
        );
    }

    let worst_overhead = outcome
        .trials
        .iter()
        .filter_map(|(t, clean_pj)| t.clean_overhead(*clean_pj))
        .fold(0.0f64, f64::max);
    println!();
    println!(
        "{} trials: {graceful} graceful, {detected} detected, {silent} silent corruptions",
        outcome.trials.len(),
    );
    println!("armed-but-clean overhead: worst {worst_overhead:.4} (limit {CLEAN_OVERHEAD_LIMIT})");
    for message in outcome
        .silent
        .iter()
        .map(|m| format!("SILENT CORRUPTION: {m}"))
        .chain(outcome.undetected.iter().map(|m| format!("UNDETECTED ENERGY BURN: {m}")))
        .chain(outcome.overhead.iter().map(|m| format!("CLEAN OVERHEAD: {m}")))
        .chain(outcome.errors.iter().map(|m| format!("CAMPAIGN ERROR: {m}")))
    {
        eprintln!("{message}");
    }
    if !outcome.failed() {
        println!("invariants hold: every energy-burning fault was detected or degraded away,");
        println!("no run corrupted architectural state, and detection rides within its");
        println!("energy budget.");
    }

    match write_manifest("chaos_campaign", &outcome.manifest()) {
        Ok(path) => eprintln!("manifest: {}", path.display()),
        Err(e) => eprintln!("manifest: failed to write BENCH_chaos_campaign.json: {e}"),
    }
    eprintln!("{}", Engine::global().stats());
    std::process::exit(i32::from(outcome.failed()));
}
