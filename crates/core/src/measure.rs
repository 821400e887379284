//! Measurement: run a scheme on a workbench, verify the architecture,
//! price the energy, and compare against a baseline.

use std::time::{Duration, Instant};

use wp_energy::{EnergyModel, EnergyReport, SystemActivity};
use wp_mem::CacheGeometry;
use wp_sim::{
    simulate_lanes, simulate_traced, NullSink, RunResult, SimConfig, SimError, TraceSink,
};
use wp_workloads::InputSet;

use crate::fault::{corrupt_profile, FaultSpec};
use crate::scheme::Scheme;
use crate::workbench::{verify, CoreError, Workbench};
use wp_linker::{Layout, LinkOutput};

/// One priced, verified measurement run.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// The scheme measured.
    pub scheme: Scheme,
    /// The cache geometry used.
    pub icache: CacheGeometry,
    /// The raw simulation result (counters, cycles, checksum).
    pub run: RunResult,
    /// The priced energy report.
    pub energy: EnergyReport,
}

impl Measurement {
    /// Normalised I-cache energy against a baseline measurement
    /// (figure 4a/5a/6a's metric).
    #[must_use]
    pub fn normalized_icache_energy(&self, baseline: &Measurement) -> f64 {
        self.energy.normalized_icache_energy(&baseline.energy)
    }

    /// The ED product against a baseline measurement (figure
    /// 4b/5b/6b's metric).
    #[must_use]
    pub fn ed_product(&self, baseline: &Measurement) -> f64 {
        self.energy.ed_product(&baseline.energy)
    }
}

/// Runs `scheme` on `workbench`'s large-input binary over `icache`
/// geometry, verifying the architectural checksum.
///
/// # Errors
///
/// Returns [`CoreError`] on link or simulation failure, or if the run
/// produced a wrong checksum (a model bug, never noise).
pub fn measure(
    workbench: &Workbench,
    icache: CacheGeometry,
    scheme: Scheme,
) -> Result<Measurement, CoreError> {
    measure_on(workbench, icache, scheme, InputSet::Large)
}

/// [`measure`] with an explicit input set (profiling-style studies).
///
/// # Errors
///
/// As for [`measure`].
pub fn measure_on(
    workbench: &Workbench,
    icache: CacheGeometry,
    scheme: Scheme,
    set: InputSet,
) -> Result<Measurement, CoreError> {
    measure_on_timed(workbench, icache, scheme, set).map(|(m, _)| m)
}

/// Wall-clock breakdown of one [`measure_on_timed`] call, by phase.
///
/// Observability hook for suite harnesses (`wp-bench`'s engine sums
/// these across jobs); the durations are host time, not guest time,
/// and carry no experimental meaning.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MeasureTiming {
    /// Relinking the binary under the scheme's layout.
    pub link: Duration,
    /// Simulating the run (includes checksum verification).
    pub simulate: Duration,
    /// Pricing the counters through the energy model.
    pub price: Duration,
}

/// Options modifying a measurement run: input set, wall-clock
/// watchdog, fault injection, and the resilience layer (detection /
/// graceful degradation).
#[derive(Clone, Copy, Debug)]
pub struct MeasureOptions {
    /// Which input set to run.
    pub set: InputSet,
    /// Wall-clock watchdog for the simulation (`None` disables it).
    pub time_limit: Option<Duration>,
    /// Fault to inject (`None` = clean run).
    pub fault: Option<FaultSpec>,
    /// Arm the fetch core's fault-detection checks (parity, WP-bit
    /// duplication, way-hint shadow); recovery energy is priced into
    /// the report.
    pub detection: bool,
    /// Graceful scheme degradation policy (implies `detection`).
    pub degradation: Option<wp_sim::DegradationPolicy>,
    /// Link-time layout override (`None` = the scheme's own layout).
    /// Layout studies use this to measure a scheme under an alternative
    /// pass; [`FaultSpec::PermuteChains`] still wins over it.
    pub layout: Option<Layout>,
}

impl MeasureOptions {
    /// Clean, unlimited options for `set`.
    #[must_use]
    pub fn new(set: InputSet) -> MeasureOptions {
        MeasureOptions {
            set,
            time_limit: None,
            fault: None,
            detection: false,
            degradation: None,
            layout: None,
        }
    }

    /// The same options with `fault` injected.
    #[must_use]
    pub fn with_fault(mut self, fault: FaultSpec) -> MeasureOptions {
        self.fault = Some(fault);
        self
    }

    /// The same options with a wall-clock watchdog armed.
    #[must_use]
    pub fn with_time_limit(mut self, limit: Duration) -> MeasureOptions {
        self.time_limit = Some(limit);
        self
    }

    /// The same options with detection armed.
    #[must_use]
    pub fn with_detection(mut self) -> MeasureOptions {
        self.detection = true;
        self
    }

    /// The same options with graceful degradation (and detection)
    /// armed.
    #[must_use]
    pub fn with_degradation(mut self, policy: wp_sim::DegradationPolicy) -> MeasureOptions {
        self.degradation = Some(policy);
        self.detection = true;
        self
    }

    /// The same options linking under `layout` instead of the scheme's
    /// own layout.
    #[must_use]
    pub fn with_layout(mut self, layout: Layout) -> MeasureOptions {
        self.layout = Some(layout);
        self
    }
}

/// [`measure_on`] with a per-phase wall-clock breakdown.
///
/// # Errors
///
/// As for [`measure`].
pub fn measure_on_timed(
    workbench: &Workbench,
    icache: CacheGeometry,
    scheme: Scheme,
    set: InputSet,
) -> Result<(Measurement, MeasureTiming), CoreError> {
    measure_with(workbench, icache, scheme, MeasureOptions::new(set))
}

/// The fully-general measurement entry point: [`measure_on_timed`]
/// plus a watchdog and fault injection, per [`MeasureOptions`].
///
/// Compiler-side faults ([`FaultSpec::CorruptProfile`],
/// [`FaultSpec::PermuteChains`]) perturb the link step; hardware
/// faults ([`FaultSpec::Hardware`]) arm the memory system's injector.
/// The architectural checksum is verified in every case, so a fault
/// that corrupts execution surfaces as
/// [`CoreError::ChecksumMismatch`] rather than passing silently.
///
/// # Errors
///
/// As for [`measure`]; additionally [`wp_sim::SimError::Timeout`]
/// when the watchdog fires.
pub fn measure_with(
    workbench: &Workbench,
    icache: CacheGeometry,
    scheme: Scheme,
    options: MeasureOptions,
) -> Result<(Measurement, MeasureTiming), CoreError> {
    measure_traced(workbench, icache, scheme, options, &mut NullSink)
}

/// [`measure_with`] streaming telemetry into `sink` (see
/// [`wp_sim::simulate_traced`]).
///
/// To attribute fetches per chain, pre-build the layout map from an
/// identically parameterised link — linking is deterministic, so
/// `workbench.link(scheme.layout(), set)?.layout_map()` indexes
/// exactly the binary this function measures:
///
/// ```no_run
/// # fn main() -> Result<(), wp_core::CoreError> {
/// use wp_core::{measure_traced, MeasureOptions, Scheme, Workbench};
/// use wp_mem::CacheGeometry;
/// use wp_trace::TraceRecorder;
/// use wp_workloads::{Benchmark, InputSet};
///
/// let workbench = Workbench::new(Benchmark::Crc)?;
/// let scheme = Scheme::WayPlacement { area_bytes: 32 * 1024 };
/// let map = workbench.link(scheme.layout(), InputSet::Large)?.layout_map();
/// let mut recorder = TraceRecorder::new().with_layout(map);
/// let (m, _) = measure_traced(
///     &workbench,
///     CacheGeometry::xscale_icache(),
///     scheme,
///     MeasureOptions::new(InputSet::Large),
///     &mut recorder,
/// )?;
/// let attribution = recorder.attribution().unwrap();
/// assert_eq!(attribution.total().fetches, m.run.fetch.fetches);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// As for [`measure_with`].
pub fn measure_traced<S: TraceSink>(
    workbench: &Workbench,
    icache: CacheGeometry,
    scheme: Scheme,
    options: MeasureOptions,
    sink: &mut S,
) -> Result<(Measurement, MeasureTiming), CoreError> {
    let start = Instant::now();
    let output = link_for(workbench, options.layout.unwrap_or_else(|| scheme.layout()), &options)?;
    let link = start.elapsed();

    let start = Instant::now();
    let sim_config = sim_config(icache, scheme, &options);
    let run = simulate_traced(&output.image, &sim_config, sink)?;
    verify(workbench.benchmark(), options.set, run.checksum)?;
    let simulate = start.elapsed();

    let start = Instant::now();
    let measurement = priced(icache, scheme, &sim_config, run);
    let price = start.elapsed();

    Ok((measurement, MeasureTiming { link, simulate, price }))
}

/// [`measure_with`] for a group of `(geometry, scheme)` lanes that
/// share one code layout: links once, times every lane in one
/// lock-step execution ([`wp_sim::simulate_lanes`]), verifies the
/// checksum once and prices each lane. Lane `i`'s measurement equals
/// `measure_with(workbench, lanes[i].0, lanes[i].1, options)`; the
/// returned timing covers the whole group.
///
/// # Errors
///
/// [`wp_sim::SimError::LaneMismatch`] when `options.layout` is unset
/// and a lane's scheme links under a different layout than lane 0's;
/// otherwise what [`measure_with`] would return, which is the same for
/// every lane (the watchdog limit applies to the whole group).
pub fn measure_lanes(
    workbench: &Workbench,
    lanes: &[(CacheGeometry, Scheme)],
    options: MeasureOptions,
) -> Result<(Vec<Measurement>, MeasureTiming), CoreError> {
    let Some(&(_, first)) = lanes.first() else {
        return Ok((Vec::new(), MeasureTiming::default()));
    };
    let layout = match options.layout {
        Some(layout) => layout,
        None => {
            if let Some(lane) = lanes.iter().position(|(_, s)| s.layout() != first.layout()) {
                return Err(CoreError::Sim(SimError::LaneMismatch { lane }));
            }
            first.layout()
        }
    };
    let start = Instant::now();
    let output = link_for(workbench, layout, &options)?;
    let link = start.elapsed();

    let start = Instant::now();
    let configs: Vec<SimConfig> = lanes
        .iter()
        .map(|&(icache, scheme)| sim_config(icache, scheme, &options))
        .collect();
    let runs = simulate_lanes(&output.image, &configs)?;
    if let Some(run) = runs.first() {
        verify(workbench.benchmark(), options.set, run.checksum)?;
    }
    let simulate = start.elapsed();

    let start = Instant::now();
    let measurements = lanes
        .iter()
        .zip(&configs)
        .zip(runs)
        .map(|((&(icache, scheme), config), run)| priced(icache, scheme, config, run))
        .collect();
    let price = start.elapsed();

    Ok((measurements, MeasureTiming { link, simulate, price }))
}

/// Links the measured binary under `layout`; compiler-side faults
/// perturb this step.
fn link_for(
    workbench: &Workbench,
    layout: Layout,
    options: &MeasureOptions,
) -> Result<LinkOutput, CoreError> {
    let set = options.set;
    Ok(match options.fault {
        Some(FaultSpec::CorruptProfile { seed, flips }) => {
            let corrupted = corrupt_profile(workbench.profile(), seed, flips);
            workbench.link_with(layout, set, &corrupted)?
        }
        Some(FaultSpec::PermuteChains { seed }) => workbench.link(Layout::Random(seed), set)?,
        Some(FaultSpec::Hardware(_)) | None => workbench.link(layout, set)?,
    })
}

/// The simulator configuration of one measurement; hardware faults,
/// detection and degradation arm the memory system here.
fn sim_config(icache: CacheGeometry, scheme: Scheme, options: &MeasureOptions) -> SimConfig {
    let mut mem = scheme.memory_config(icache);
    if let Some(FaultSpec::Hardware(config)) = options.fault {
        mem.fault = Some(config);
    }
    mem.detection = options.detection || options.degradation.is_some();
    let mut sim_config = SimConfig::new(mem);
    sim_config.time_limit = options.time_limit;
    sim_config.degradation = options.degradation;
    sim_config
}

/// Prices a verified run through the energy model.
fn priced(
    icache: CacheGeometry,
    scheme: Scheme,
    config: &SimConfig,
    run: RunResult,
) -> Measurement {
    let activity = SystemActivity {
        fetch: run.fetch,
        dcache: run.dcache,
        itlb: run.itlb,
        dtlb: run.dtlb,
        cycles: run.cycles,
        instructions: run.instructions,
        detection: run.detection,
    };
    let energy = EnergyModel::new().price(&config.mem, &activity);
    Measurement { scheme, icache, run, energy }
}

/// A baseline-relative comparison for one benchmark and geometry.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// The baseline run.
    pub baseline: Measurement,
    /// The runs under test, in the order requested.
    pub subjects: Vec<Measurement>,
}

impl Comparison {
    /// Measures `schemes` against [`Scheme::Baseline`] on one geometry.
    ///
    /// # Errors
    ///
    /// Propagates the first measurement failure.
    pub fn run(
        workbench: &Workbench,
        icache: CacheGeometry,
        schemes: &[Scheme],
    ) -> Result<Comparison, CoreError> {
        let baseline = measure(workbench, icache, Scheme::Baseline)?;
        let subjects = schemes
            .iter()
            .map(|&scheme| measure(workbench, icache, scheme))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Comparison { baseline, subjects })
    }

    /// `(label, normalised I-cache energy, ED product)` rows.
    #[must_use]
    pub fn rows(&self) -> Vec<(String, f64, f64)> {
        self.subjects
            .iter()
            .map(|m| {
                (
                    m.scheme.label(),
                    m.normalized_icache_energy(&self.baseline),
                    m.ed_product(&self.baseline),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_workloads::Benchmark;

    #[test]
    fn way_placement_beats_baseline_and_memoization_on_crc() {
        let workbench = Workbench::new(Benchmark::Crc).expect("workbench");
        let geom = CacheGeometry::xscale_icache();
        let comparison = Comparison::run(
            &workbench,
            geom,
            &[Scheme::WayPlacement { area_bytes: 32 * 1024 }, Scheme::WayMemoization],
        )
        .expect("measure");
        let rows = comparison.rows();
        let (wp_energy, wp_ed) = (rows[0].1, rows[0].2);
        let (memo_energy, _memo_ed) = (rows[1].1, rows[1].2);
        assert!(wp_energy < 0.7, "way-placement energy {wp_energy}");
        assert!(wp_energy < memo_energy, "{wp_energy} vs {memo_energy}");
        assert!(wp_ed < 1.0, "ED {wp_ed}");
        // Performance is essentially unchanged (§6.1).
        let slowdown =
            comparison.subjects[0].run.cycles as f64 / comparison.baseline.run.cycles as f64;
        assert!((0.95..1.05).contains(&slowdown), "slowdown {slowdown}");
    }
}
