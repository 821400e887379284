//! # wp-sim — the XTREM-like cycle simulator
//!
//! A functional + timing simulator of an Intel XScale-class embedded
//! core, the measurement substrate of the *compiler way-placement*
//! reproduction (Jones et al., DATE 2008). It executes [`wp_isa::Image`]
//! guests exactly and models time as the paper's Table 1 machine does:
//!
//! * single issue, in order, with a scoreboard (out-of-order
//!   completion): load-use and multiply interlocks stall;
//! * a 7/8-stage front end whose taken-branch penalty is hidden by a
//!   direct-mapped BTB once warm;
//! * instruction fetch through the `wp-mem` I-TLB + I-cache pair — so
//!   way-placement's hint-misprediction cycles and every cache-miss
//!   stall land in the cycle count;
//! * blocking data cache with write-back/write-allocate timing.
//!
//! Guests communicate results over three syscalls ([`syscall`]): `exit`,
//! `putc` and `report`, the last feeding an order-sensitive checksum
//! that the workload suite uses to verify architectural correctness on
//! every configuration (if a cache model corrupted execution, the
//! checksum would change — a property the integration tests lean on).
//!
//! ## Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use wp_mem::{CacheGeometry, MemoryConfig};
//! use wp_sim::{simulate, SimConfig};
//! use wp_linker::{Layout, Linker, Profile};
//!
//! let module = wp_isa::assemble(
//!     "fib",
//!     "
//!     _start:
//!         mov r1, #0
//!         mov r2, #1
//!         mov r4, #10
//!     .Lloop:
//!         add r3, r1, r2
//!         mov r1, r2
//!         mov r2, r3
//!         subs r4, r4, #1
//!         bne .Lloop
//!         mov r0, r1
//!         swi #2          ; report fib(10)
//!         mov r0, #0
//!         swi #0
//!     ",
//! )?;
//! let image = Linker::new().with_module(module)
//!     .link(Layout::Natural, &Profile::empty())?.image;
//! let result = simulate(
//!     &image,
//!     &SimConfig::new(MemoryConfig::baseline(CacheGeometry::xscale_icache())),
//! )?;
//! assert_eq!(result.exit_code, 0);
//! assert!(result.cpi() >= 1.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod degrade;
mod exec;
mod machine;
mod simulator;

pub use degrade::{DegradationController, DegradationPolicy, SchemeTransition};
pub use exec::{Control, ExecError, InsnClass, Step};
pub use machine::{Machine, MemFault, MEMORY_BYTES};
pub use simulator::{
    checksum_of, simulate, simulate_lanes, simulate_traced, syscall, RunResult, SimConfig, SimError,
};
// Sink vocabulary for `simulate_traced` callers.
pub use wp_trace::{NullSink, TraceSink};
