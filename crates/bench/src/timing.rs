//! Minimal micro-benchmark loop used by the `benches/` targets.
//!
//! The offline build cannot fetch `criterion`, so the bench targets use
//! this helper instead: warm up, run a fixed iteration count, report
//! min/median ns per iteration (min is the least noisy statistic for
//! short deterministic kernels).

use std::hint::black_box;
use std::time::Instant;

/// Times `f` over `iters` iterations (after `warmup` unrecorded runs)
/// and prints one aligned result line. Returns the median ns/iter.
pub fn bench_loop<R>(label: &str, warmup: u32, iters: u32, mut f: impl FnMut() -> R) -> f64 {
    for _ in 0..warmup {
        black_box(f());
    }
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    let median = samples[samples.len() / 2];
    let min = samples[0];
    println!("{label:<40} {min:>12.0} ns/iter (min) {median:>12.0} ns/iter (median)");
    median
}

/// [`bench_loop`] with a throughput column: `elements` processed per
/// iteration, reported as million elements per second at the median.
pub fn bench_throughput<R>(
    label: &str,
    warmup: u32,
    iters: u32,
    elements: u64,
    f: impl FnMut() -> R,
) -> f64 {
    let median = bench_loop(label, warmup, iters, f);
    let meps = elements as f64 / median * 1e3;
    println!("{:<40} {meps:>12.2} M elements/s", "");
    median
}
