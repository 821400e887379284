//! # wp-core — compiler way-placement, end to end
//!
//! The top-level API of the *Instruction Cache Energy Saving Through
//! Compiler Way-Placement* reproduction (Jones, Bartolini, De Bus,
//! Cavazos, O'Boyle — DATE 2008). It glues the substrates together:
//!
//! * `wp-workloads` MiBench-like guests →
//! * `wp-linker` profile-guided chain layout →
//! * `wp-sim` XScale-class cycle simulation over the
//! * `wp-mem` way-placement / way-memoization cache models →
//! * `wp-energy` pricing into the paper's two metrics.
//!
//! The flow per benchmark mirrors §3–§5 of the paper:
//!
//! 1. [`Workbench::new`] assembles the program, links it in natural
//!    order and profiles it on the *small* input set;
//! 2. [`Workbench::link`] re-emits the binary under any
//!    [`wp_linker::Layout`] — no recompilation, so one profile serves
//!    every cache geometry and way-placement area size;
//! 3. [`measure`] runs a [`Scheme`] on the *large* inputs, verifies the
//!    architectural checksum against the host-side reference, and
//!    prices the run;
//! 4. [`Comparison`] normalises everything against the equally
//!    configured baseline, exactly as the paper reports.
//!
//! ## Example
//!
//! ```no_run
//! # fn main() -> Result<(), wp_core::CoreError> {
//! use wp_core::{measure, Scheme, Workbench};
//! use wp_mem::CacheGeometry;
//! use wp_workloads::Benchmark;
//!
//! let workbench = Workbench::new(Benchmark::Sha)?;
//! let geom = CacheGeometry::xscale_icache();
//! let baseline = measure(&workbench, geom, Scheme::Baseline)?;
//! let wp = measure(&workbench, geom, Scheme::WayPlacement { area_bytes: 32 * 1024 })?;
//! println!(
//!     "sha: I-cache energy x{:.2}, ED {:.2}",
//!     wp.normalized_icache_energy(&baseline),
//!     wp.ed_product(&baseline),
//! );
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod fault;
mod measure;
mod scheme;
mod workbench;

pub use fault::{
    corrupt_profile, fault_trial, fault_trial_with, FaultOutcome, FaultSpec, FaultTrial,
};
pub use measure::{
    measure, measure_lanes, measure_on, measure_on_timed, measure_traced, measure_with, Comparison,
    MeasureOptions, MeasureTiming, Measurement,
};
pub use scheme::Scheme;
pub use workbench::{align_area, text_base, verify, BuildTiming, CoreError, Workbench};

// Re-export the crates downstream binaries need, so `wp-bench` and the
// examples depend on one crate.
pub use wp_energy;
pub use wp_isa;
pub use wp_linker;
pub use wp_mem;
pub use wp_obs;
pub use wp_sim;
pub use wp_trace;
pub use wp_workloads;

/// The unified `WP_*` environment gate (documented home:
/// `wp_core::env`, implemented in the bottom-of-stack `wp-obs` crate
/// so `wp-trace` can share it without a dependency cycle).
pub use wp_obs::env;
