//! Engine resilience integration tests: panic isolation, bounded
//! retry of transient failures and watchdog timeouts. Resuming an
//! interrupted run is the campaign store's job (`tests/campaign.rs`).

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use wp_bench::{Engine, Experiment, JobPhase, RetryPolicy};
use wp_core::wp_mem::CacheGeometry;
use wp_core::wp_sim::SimError;
use wp_core::wp_workloads::{Benchmark, InputSet};
use wp_core::{CoreError, Scheme};

const AREA: u32 = 8 * 1024;

fn experiment(benchmarks: impl Into<Vec<Benchmark>>) -> Experiment {
    Experiment::new(
        benchmarks,
        [CacheGeometry::xscale_icache()],
        [Scheme::WayMemoization, Scheme::WayPlacement { area_bytes: AREA }],
    )
    .with_input_set(InputSet::Small)
}

/// A job that panics during workbench construction is converted into a
/// structured `CoreError::Panic` failure while every sibling job —
/// including siblings running concurrently on the same pool —
/// completes with real results.
#[test]
fn panicking_build_is_isolated_and_siblings_complete() {
    let engine = Engine::with_workers(4).with_build_fault(|benchmark, _attempt| {
        if benchmark == Benchmark::Sha {
            panic!("injected build panic for {benchmark}");
        }
        None
    });
    let report = engine.run(&experiment([Benchmark::Crc, Benchmark::Sha]));

    // Both Sha jobs fail (the memoised build failure is shared)...
    assert_eq!(report.failures.len(), 2, "failures: {:?}", report.failures);
    for failure in &report.failures {
        assert_eq!(failure.benchmark, Benchmark::Sha);
        assert_eq!(failure.phase, JobPhase::Workbench);
        assert_eq!(failure.attempts, 1, "panics are not transient, so no retry");
        assert!(
            matches!(&*failure.error, CoreError::Panic { message }
                if message.contains("injected build panic")),
            "unexpected error {:?}",
            failure.error
        );
    }
    // ...while both Crc jobs produced rows.
    assert_eq!(report.rows.len(), 2);
    assert!(report.rows.iter().all(|r| r.benchmark == Benchmark::Crc));
    assert!(report.stats.panics >= 1, "{:?}", report.stats);
    // The failure renders into the manifest (exercises JobFailure::json).
    assert!(report.results_json().to_compact().contains("job panicked"));
}

/// A transient (I/O) failure on the first build attempt is retried
/// after the failed cache cell is evicted, and the second attempt
/// succeeds — the workbench really is built twice.
#[test]
fn transient_build_failure_is_retried_and_succeeds() {
    let engine = Engine::with_workers(2)
        .with_retry(RetryPolicy::new(3, Duration::ZERO))
        .with_build_fault(|_benchmark, attempt| {
            (attempt == 1).then(|| CoreError::Io {
                context: "injected transient fault".to_string(),
                message: "simulated EIO".to_string(),
            })
        });
    let report = engine.run(&experiment([Benchmark::Crc]));

    assert!(report.is_complete(), "failures: {:?}", report.failures);
    assert_eq!(report.rows.len(), 2);
    assert_eq!(report.stats.retries, 1, "{:?}", report.stats);
    // Attempt 1 hit the injected fault; attempt 2 built for real.
    assert_eq!(report.stats.workbench_builds, 2, "{:?}", report.stats);
}

/// Deterministic failures (wrong checksum) are not retried even under
/// a generous retry policy: the failure reports exactly one attempt.
#[test]
fn permanent_failure_is_not_retried() {
    let attempts = AtomicU32::new(0);
    let engine = Engine::with_workers(2)
        .with_retry(RetryPolicy::new(5, Duration::ZERO))
        .with_fault(move |benchmark, _geometry, scheme| {
            (benchmark == Benchmark::Crc && scheme == Scheme::WayMemoization).then(|| {
                attempts.fetch_add(1, Ordering::Relaxed);
                CoreError::ChecksumMismatch { benchmark, expected: 1, actual: 2 }
            })
        });
    let report = engine.run(&experiment([Benchmark::Crc]));

    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.failures[0].attempts, 1);
    assert_eq!(report.stats.retries, 0, "{:?}", report.stats);
    assert_eq!(report.rows.len(), 1, "the sibling scheme still completed");
}

/// An immediate watchdog limit times out the profiling run; the
/// timeout is transient, so the policy retries it (uselessly here —
/// the limit still applies) and the final failure records every
/// attempt.
#[test]
fn watchdog_timeout_is_typed_transient_and_retried() {
    let engine = Engine::with_workers(1)
        .with_job_time_limit(Duration::ZERO)
        .with_retry(RetryPolicy::new(2, Duration::ZERO));
    let report = engine.run(&Experiment::new(
        [Benchmark::Crc],
        [CacheGeometry::xscale_icache()],
        [Scheme::WayMemoization],
    ));

    assert_eq!(report.failures.len(), 1);
    let failure = &report.failures[0];
    assert!(
        matches!(&*failure.error, CoreError::Sim(SimError::Timeout { .. })),
        "unexpected error {:?}",
        failure.error
    );
    assert!(failure.error.is_transient());
    assert_eq!(failure.attempts, 2, "retried once, then gave up");
    assert_eq!(report.stats.retries, 1, "{:?}", report.stats);
    assert!(report.stats.timeouts >= 2, "{:?}", report.stats);
}
