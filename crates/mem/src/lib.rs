//! # wp-mem — the XScale-style memory hierarchy
//!
//! Cache, TLB and way-placement hardware models for the *compiler
//! way-placement* reproduction (Jones et al., DATE 2008).
//!
//! The crate models the energy-relevant microarchitecture of an Intel
//! XScale-class embedded core:
//!
//! * [`CacheGeometry`] — sizes, associativity and the tag-bit way mapping
//!   of figure 3;
//! * [`CamArray`] — the CAM-tagged, set-per-sub-bank line store shared by
//!   both caches, with round-robin / LRU / random replacement;
//! * [`InstructionCache`] — the fetch engine, switchable between the
//!   [`FetchScheme::Baseline`] full search, the paper's
//!   [`FetchScheme::WayPlacement`] (one tag comparison per fetch, global
//!   way-hint bit, same-line elision) and the
//!   [`FetchScheme::WayMemoization`] comparison scheme of Ma et al.;
//! * [`DataCache`] — write-back, write-allocate data side;
//! * [`Tlb`] — fully-associative TLBs; the I-TLB carries the per-page
//!   **way-placement bit** that the OS model writes on each fill;
//! * [`MemorySystem`] — the assembled hierarchy: a [`FetchSide`]
//!   (I-TLB, I-cache, fault injector) and a [`DataSide`] (D-TLB,
//!   D-cache). The pipeline simulator drives the two sides directly, so
//!   several timing lanes can share one data side's address state and
//!   keep a fetch side and a [`WriteBuffer`] each.
//!
//! Every energy-relevant micro-event (tag comparisons, match-line
//! precharges, data reads, line fills, link updates, ...) is counted in
//! [`FetchStats`] / [`DCacheStats`] / [`TlbStats`]; the `wp-energy` crate
//! prices those events.
//!
//! ## Example
//!
//! ```
//! use wp_mem::{CacheGeometry, MemoryConfig, MemorySystem};
//!
//! // The paper's initial evaluation: 32 KB, 32-way cache, 32 KB WP area.
//! let geom = CacheGeometry::xscale_icache();
//! let mut mem = MemorySystem::new(MemoryConfig::way_placement(geom, 0x8000, 32 * 1024));
//! for _ in 0..100 {
//!     mem.fetch(0x8000);
//!     mem.fetch(0x8004);
//! }
//! // Way-placed, same-line and hinted fetches need far fewer than
//! // `ways` tag comparisons per fetch.
//! assert!(mem.fetch_stats().tags_per_fetch() < 1.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod cam;
mod dcache;
mod detect;
mod fault;
mod geometry;
mod hierarchy;
mod icache;
pub mod rng;
mod stats;
mod tlb;

pub use cam::{CamArray, FillOutcome, ReplacementPolicy};
pub use dcache::{DCacheConfig, DataCache, DataOutcome, DataProbe, WriteBuffer};
pub use detect::{DetectedFault, DetectionStats};
pub use fault::{FaultConfig, FaultInjector, FaultKind, FaultStats};
pub use geometry::{CacheGeometry, GeometryShifts};
pub use hierarchy::{DataAccess, DataSide, FetchSide, FetchTiming, MemoryConfig, MemorySystem};
pub use icache::{FetchOutcome, FetchScheme, ICacheConfig, InstructionCache};
pub use stats::{DCacheStats, FetchStats, TlbStats};
pub use tlb::{Tlb, TlbConfig, TlbOutcome};
// Telemetry vocabulary (re-exported so cache users need not name
// `wp-trace` directly for the common case).
pub use wp_trace::{AccessKind, FetchEvent};
