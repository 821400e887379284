//! Lane-equivalence suite: one lock-step execution that times many
//! cache configurations reproduces standalone simulation exactly.
//!
//! For each benchmark on figure 6's nine geometries, every [`Scheme`]
//! variant is grouped by the code layout it links with, and each group
//! is measured as the lanes of one [`measure_lanes`] call:
//!
//! * **exactness** — every lane's `RunResult` (every field) and priced
//!   `EnergyReport` equal a standalone run of that lane on the
//!   per-fetch path: lanes leave same-line fetches of a clean machine
//!   out of the fetch core, and a sink that sees every fetch sends each
//!   one through it;
//! * **isolation** — a lane's result is unchanged when its group is
//!   reversed or cut to a subset, so no state leaks between lanes;
//! * **armed lanes** — with faults, detection and the chaos campaign's
//!   degradation policy armed, at every `CHAOS_RATES_PPM` rung, lanes
//!   still equal their standalone runs;
//! * **cross-layout lanes** — one execution times lanes under every
//!   layout the layout competition races, each equal to a standalone
//!   run linked under its own layout, whichever layout lane 0 has.
//!
//! Set `WP_QUICK=1` to trim the sweep to three benchmarks (the
//! cross-layout test keeps patricia, whose layouts mispredict apart).

use wp_bench::chaos::{chaos_policy, CHAOS_RATES_PPM};
use wp_bench::engine::Engine;
use wp_bench::figure6_geometries;
use wp_bench::layout_compare::compare_layouts;
use wp_core::wp_linker::Layout;
use wp_core::wp_mem::{CacheGeometry, FaultConfig, MemoryConfig};
use wp_core::wp_sim::{simulate_lanes, SimConfig, SimError, TraceSink};
use wp_core::wp_workloads::{Benchmark, InputSet};
use wp_core::{
    measure_lanes, measure_traced, FaultSpec, MeasureOptions, Measurement, Scheme, Workbench,
};

const AREA: u32 = 8 * 1024;

fn benchmarks() -> &'static [Benchmark] {
    if wp_core::env::quick() {
        &[Benchmark::Crc, Benchmark::Sha, Benchmark::Bitcount]
    } else {
        &Benchmark::ALL
    }
}

/// Every scheme variant that links under `layout`.
fn schemes(layout: Layout) -> Vec<Scheme> {
    [
        Scheme::Baseline,
        Scheme::WayPlacement { area_bytes: AREA },
        Scheme::WayMemoization,
        Scheme::WayPlacementNaturalLayout { area_bytes: AREA },
        Scheme::BaselineOptimisedLayout,
        Scheme::WayPlacementNoElision { area_bytes: AREA },
        Scheme::WayPrediction,
    ]
    .into_iter()
    .filter(|scheme| scheme.layout() == layout)
    .collect()
}

/// Every `(geometry, scheme)` lane, each under its scheme's layout.
fn lanes(geometries: &[CacheGeometry], schemes: &[Scheme]) -> Vec<(CacheGeometry, Scheme, Layout)> {
    geometries
        .iter()
        .flat_map(|&g| schemes.iter().map(move |&s| (g, s, s.layout())))
        .collect()
}

fn workbench(benchmark: Benchmark) -> std::sync::Arc<Workbench> {
    Engine::global().workbench(benchmark).expect("workbench")
}

fn group(
    workbench: &Workbench,
    lanes: &[(CacheGeometry, Scheme, Layout)],
    options: MeasureOptions,
) -> Vec<Measurement> {
    measure_lanes(workbench, lanes, options).expect("lane group").0
}

/// A sink that sees every fetch and keeps none.
struct PerFetch;

impl TraceSink for PerFetch {
    fn enabled(&self) -> bool {
        true
    }
}

/// `scheme` on `geometry` alone, every fetch through the fetch core.
fn standalone(
    workbench: &Workbench,
    geometry: CacheGeometry,
    scheme: Scheme,
    options: MeasureOptions,
) -> Measurement {
    measure_traced(workbench, geometry, scheme, options, &mut PerFetch)
        .expect("standalone")
        .0
}

fn assert_same(tag: &str, lane: &Measurement, alone: &Measurement) {
    assert_eq!(lane.scheme, alone.scheme, "{tag}");
    assert_eq!(lane.icache, alone.icache, "{tag}");
    assert_eq!(lane.run, alone.run, "{tag}: run result");
    assert_eq!(lane.energy, alone.energy, "{tag}: priced energy");
}

/// Exactness against standalone runs, then isolation: the reversed
/// group and every third lane alone reproduce the same lanes.
fn check_layout(layout: Layout) {
    let geometries = figure6_geometries();
    let options = MeasureOptions::new(InputSet::Small);
    for &benchmark in benchmarks() {
        let workbench = workbench(benchmark);
        let lanes = lanes(&geometries, &schemes(layout));
        let measured = group(&workbench, &lanes, options);
        assert_eq!(measured.len(), lanes.len());
        for (&(geometry, scheme, _), lane) in lanes.iter().zip(&measured) {
            let tag = format!("{benchmark} {geometry} {}", scheme.label());
            assert_same(&tag, lane, &standalone(&workbench, geometry, scheme, options));
        }

        let reversed: Vec<_> = lanes.iter().rev().copied().collect();
        let backwards = group(&workbench, &reversed, options);
        for (lane, forward) in backwards.iter().rev().zip(&measured) {
            assert_same(&format!("{benchmark} reversed"), lane, forward);
        }
        let subset: Vec<usize> = (1..lanes.len()).step_by(3).collect();
        let picked: Vec<_> = subset.iter().map(|&i| lanes[i]).collect();
        for (lane, &i) in group(&workbench, &picked, options).iter().zip(&subset) {
            assert_same(&format!("{benchmark} subset"), lane, &measured[i]);
        }
    }
}

#[test]
fn natural_layout_lanes_equal_standalone_runs() {
    check_layout(Layout::Natural);
}

#[test]
fn way_placement_layout_lanes_equal_standalone_runs() {
    check_layout(Layout::WayPlacement);
}

/// The armed groups: each scheme family once per layout (the area
/// ablations share their family's fetch paths).
const ARMED_NATURAL: [Scheme; 3] =
    [Scheme::Baseline, Scheme::WayMemoization, Scheme::WayPrediction];
const ARMED_WAY_PLACEMENT: [Scheme; 2] =
    [Scheme::WayPlacement { area_bytes: AREA }, Scheme::WayPlacementNoElision { area_bytes: AREA }];

/// Faults, detection and degradation are per-lane state: each lane
/// draws its own fault stream and walks its own ladder, exactly as it
/// would alone. Covers every rung of the chaos campaign, armed with
/// detection and its degradation policy (the 0 ppm rung is the
/// armed-but-clean one), on the chaos campaign's geometry.
#[test]
fn armed_lanes_equal_standalone_runs() {
    let geometries = [CacheGeometry::xscale_icache()];
    let (mut faulted, mut demoted) = (0, 0);
    for (index, &benchmark) in benchmarks().iter().enumerate() {
        let workbench = workbench(benchmark);
        for rate in CHAOS_RATES_PPM {
            let spec = FaultSpec::Hardware(FaultConfig::all(0xC4A05 + index as u64, rate));
            let options = MeasureOptions::new(InputSet::Small)
                .with_fault(spec)
                .with_degradation(chaos_policy());
            for schemes in [&ARMED_NATURAL[..], &ARMED_WAY_PLACEMENT[..]] {
                let lanes = lanes(&geometries, schemes);
                for (&(geometry, scheme, _), lane) in
                    lanes.iter().zip(&group(&workbench, &lanes, options))
                {
                    let tag = format!("{benchmark} {} at {rate} ppm", scheme.label());
                    assert_same(&tag, lane, &standalone(&workbench, geometry, scheme, options));
                    faulted += usize::from(lane.run.faults.total() > 0);
                    demoted += usize::from(lane.run.demotions > 0);
                }
            }
        }
    }
    assert!(faulted > 0 && demoted > 0, "faults must land and lanes must degrade");
}

/// One execution times every layout the layout competition races:
/// each lane equals a standalone run linked under its own layout, on
/// the per-fetch path, and a group whose lane 0 (the executed binary)
/// is another layout reproduces every lane.
#[test]
fn cross_layout_lanes_equal_standalone_runs() {
    let geometries = [CacheGeometry::xscale_icache(), CacheGeometry::new(16 * 1024, 8, 32)];
    let schemes =
        [Scheme::Baseline, Scheme::WayPlacement { area_bytes: AREA }, Scheme::WayMemoization];
    let options = MeasureOptions::new(InputSet::Small);
    let mut mispredicts_differ = false;
    // Patricia's small input mispredicts thousands of branches more
    // under the natural layout than under way-placement's.
    let mut benchmarks = benchmarks().to_vec();
    if !benchmarks.contains(&Benchmark::Patricia) {
        benchmarks.push(Benchmark::Patricia);
    }
    for benchmark in benchmarks {
        let workbench = workbench(benchmark);
        let lanes: Vec<(CacheGeometry, Scheme, Layout)> = compare_layouts()
            .into_iter()
            .flat_map(|layout| {
                lanes(&geometries, &schemes).into_iter().map(move |(g, s, _)| (g, s, layout))
            })
            .collect();
        let measured = group(&workbench, &lanes, options);
        assert_eq!(measured.len(), lanes.len());
        for (&(geometry, scheme, layout), lane) in lanes.iter().zip(&measured) {
            let tag = format!("{benchmark} {geometry} {} under {}", scheme.label(), layout.label());
            let alone = standalone(&workbench, geometry, scheme, options.with_layout(layout));
            assert_same(&tag, lane, &alone);
        }
        let mispredicts = |layout: Layout| {
            let at = lanes.iter().position(|&(_, _, l)| l == layout).expect("layout lane");
            measured[at].run.branch_mispredicts
        };
        mispredicts_differ |= compare_layouts()
            .iter()
            .any(|&l| mispredicts(l) != mispredicts(Layout::Natural));

        // Rotated so lane 0 runs a relabelled layout: the executed
        // binary changes, no lane's result does.
        for shift in [lanes.len() / 2, lanes.len() - schemes.len()] {
            let mut rotated = lanes.clone();
            rotated.rotate_left(shift);
            assert_ne!(rotated[0].2, Layout::Natural);
            let again = group(&workbench, &rotated, options);
            for (i, lane) in again.iter().enumerate() {
                let tag = format!("{benchmark} lane 0 under {}", rotated[0].2.label());
                assert_same(&tag, lane, &measured[(i + shift) % lanes.len()]);
            }
        }
    }
    assert!(mispredicts_differ, "each layout must predict branches with its own BTB");
}

/// Lanes under different layouts equal their standalone runs; lanes
/// that would not share one execution are typed errors, never panics;
/// an empty group runs nothing.
#[test]
fn mismatched_lane_groups_are_typed_errors() {
    let workbench = workbench(Benchmark::Crc);
    let geometry = CacheGeometry::xscale_icache();
    let options = MeasureOptions::new(InputSet::Small);
    let mixed =
        lanes(&[geometry], &[Scheme::WayMemoization, Scheme::WayPlacement { area_bytes: AREA }]);
    assert_ne!(mixed[0].2, mixed[1].2);
    let measured = group(&workbench, &mixed, options);
    for (&(geometry, scheme, layout), lane) in mixed.iter().zip(&measured) {
        let alone = standalone(&workbench, geometry, scheme, options.with_layout(layout));
        assert_same(&format!("mixed {}", scheme.label()), lane, &alone);
    }
    // An explicit layout runs both lanes under it, as a standalone run
    // with that layout would.
    let forced = options.with_layout(Layout::Natural);
    let measured = group(&workbench, &mixed, forced);
    let alone = standalone(&workbench, mixed[1].0, mixed[1].1, forced);
    assert_same("forced layout", &measured[1], &alone);
    assert!(measure_lanes(&workbench, &[], options).expect("empty").0.is_empty());

    let image = workbench.link(Layout::Natural, InputSet::Small).expect("link").image;
    let first = SimConfig::new(MemoryConfig::way_memoization(geometry));
    let mut slower = SimConfig::new(MemoryConfig::baseline(geometry));
    slower.mem.dcache.miss_latency += 1;
    let budget = SimConfig { max_instructions: 1000, ..first };
    for config in [slower, budget] {
        match simulate_lanes(&image, &[first, config]) {
            Err(SimError::LaneMismatch { lane: 1 }) => {}
            other => panic!("a core/data-side mismatch must be a typed error, got {other:?}"),
        }
    }
    assert!(simulate_lanes(&image, &[]).expect("empty").is_empty());
}
