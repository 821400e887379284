//! # wp-tune — attribution-guided way-placement area autotuning
//!
//! The paper picks the way-placement area by sweeping a fixed grid and
//! eyeballing the figure-5 knee. This crate closes the loop
//! analytically ([`knee`]): from one traced full-coverage run
//! (per-chain attribution joined against the linker's emission-order
//! layout map), [`predict`] models the I-cache energy of *every*
//! candidate area — shrinking the area un-covers a suffix of the
//! hottest-first chain list, and uncovered fetches pay the full CAM
//! width — then [`refine`] spot-checks the predicted knee with a
//! bounded measured search. The shared [`knee_index`] criterion
//! (smallest area within tolerance of the best energy) is also what
//! `fig5 --areas` validates against, reading the tuner's output
//! through [`TunedManifest`].
//!
//! Everything user-facing fails through the typed [`TuneError`]; the
//! crate adds no external dependencies and, like the rest of the
//! workspace, forbids `unwrap`/`expect` outside tests.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod error;
pub mod knee;
pub mod manifest;

pub use error::TuneError;
pub use knee::{
    knee_index, predict, refine, AreaPrediction, Prediction, RefineStep, Refinement,
    DEFAULT_TOLERANCE,
};
pub use manifest::{
    parse_area, parse_area_list, parse_threshold, TunedEntry, TunedManifest, TUNED_SCHEMA,
};
