//! `wp-obs` — engine-wide observability for the way-placement
//! reproduction.
//!
//! Three pillars, all zero-dependency and deterministic by design:
//!
//! * [`metrics`] — a process-wide registry of atomic counters, gauges
//!   and log-bucketed histograms with deterministic quantile readout.
//! * [`journal`] — a structured JSONL event journal whose export order
//!   is independent of worker-pool scheduling.
//! * [`account`] — per-phase resource accounting attributed by
//!   benchmark × scheme × phase.
//!
//! Plus [`mod@env`], the unified reader for every `WP_*` environment gate.
//!
//! Arming follows the same compile-out discipline as `wp-trace`'s
//! `NullSink`: consumers hold an `Option<Arc<Obs>>` that is `None`
//! unless `$WP_OBS` is set (or an explicit handle is injected), so a
//! disarmed run costs one branch per choke point and produces
//! bit-identical manifests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod account;
pub mod env;
pub mod journal;
pub mod metrics;

use std::sync::Arc;

/// One armed observability context: a metrics registry, an event
/// journal and an account book, shared by every instrumented component
/// that holds a clone of the `Arc`.
#[derive(Default)]
pub struct Obs {
    /// Metrics registry.
    pub metrics: metrics::Registry,
    /// Event journal.
    pub journal: Arc<journal::Journal>,
    /// Resource accounts.
    pub accounts: account::Accounts,
}

impl Obs {
    /// Fresh, explicitly-armed context (for tests and the `obs_report`
    /// pipeline, which must not depend on process environment).
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Environment-gated arming: `Some` only when `$WP_OBS` is set,
    /// mirroring `SpanCollector::from_env` in wp-trace.
    #[must_use]
    pub fn from_env() -> Option<Arc<Self>> {
        env::obs_enabled().then(Self::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_bundles_all_three_pillars() {
        let obs = Obs::new();
        obs.metrics.counter("wp_t_total", "t").inc();
        let base = obs.journal.alloc_groups(1);
        obs.journal.scope(base).emit("tick", vec![]);
        obs.accounts.charge(
            "crc",
            "wp",
            "measure",
            account::Usage { cycles: 1, ..account::Usage::default() },
        );
        assert_eq!(obs.metrics.counter_value("wp_t_total"), Some(1));
        assert_eq!(obs.journal.len(), 1);
        assert_eq!(obs.accounts.total(None, |u| u.cycles), 1);
    }
}
