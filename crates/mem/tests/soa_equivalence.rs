//! Cross-scheme and golden-stream invariants of the SoA fetch core.
//!
//! The per-line reference model that held the PR-6 rewrite together is
//! gone (its evidence served); these checks replace it with oracles the
//! core carries within itself:
//!
//! * **traced twin** — `fetch_traced` must be counter- and
//!   timing-identical to `fetch` on every stream;
//! * **detection twin** — arming the detection checks on a fault-free
//!   run must not change a single fetch counter or cycle (protection is
//!   observation-only until something is actually wrong);
//! * **golden fingerprints** — fixed seeded streams over the XScale
//!   geometry must reproduce baked-in counter/energy fingerprints
//!   bit-for-bit, pinning the core's behaviour against silent drift.
//!
//! All of it runs across every fetch scheme and every figure-6
//! geometry. Set `WP_QUICK=1` to run a trimmed sweep (CI's quick lane).

use wp_core::wp_isa::Image;
use wp_core::wp_linker::{Layout, Linker, Profile};
use wp_core::wp_sim::{simulate_traced, SimConfig};
use wp_core::wp_trace::TraceRecorder;
use wp_core::wp_workloads::{Benchmark, InputSet};
use wp_energy::CacheEnergyModel;
use wp_mem::rng::SplitMix64;
use wp_mem::{CacheGeometry, FaultConfig, FetchScheme, MemoryConfig, MemorySystem};

fn quick() -> bool {
    // The unified env gate: WP_QUICK set, non-empty and not "0".
    wp_core::env::quick()
}

/// The figure-6 geometry grid (16/32/64 KB × 8/16/32 ways, 32 B lines).
fn figure6_geometries() -> Vec<CacheGeometry> {
    let mut geometries = Vec::new();
    for size_kb in [16u32, 32, 64] {
        for ways in [8u32, 16, 32] {
            geometries.push(CacheGeometry::new(size_kb * 1024, ways, 32));
        }
    }
    geometries
}

/// All four fetch schemes around one geometry. The way-placement area
/// is half the cache rounded to pages, anchored at `base`.
fn scheme_configs(geom: CacheGeometry, base: u32) -> Vec<(&'static str, MemoryConfig)> {
    let area = (geom.size_bytes() / 2) & !1023;
    vec![
        ("baseline", MemoryConfig::baseline(geom)),
        ("way-placement", MemoryConfig::way_placement(geom, base, area.max(1024))),
        ("way-memoization", MemoryConfig::way_memoization(geom)),
        ("way-prediction", MemoryConfig::way_prediction(geom)),
    ]
}

/// A compact, order-sensitive digest of a run: total cycles plus the
/// energy-relevant counters and the priced energy, fold-mixed so any
/// single-counter drift changes the value.
fn fingerprint(mem: &MemorySystem, cycles: u64) -> u64 {
    let s = mem.fetch_stats();
    let model =
        CacheEnergyModel::for_scheme(mem.config().icache.geometry, mem.config().icache.scheme);
    let pj_bits = model.fetch_energy(s).total_pj().to_bits();
    [
        cycles,
        s.fetches,
        s.hits,
        s.misses,
        s.tag_comparisons,
        s.matchline_precharges,
        s.data_reads,
        s.line_fills,
        s.same_line_elisions,
        s.wp_accesses,
        s.hint_false_wp,
        s.hint_false_normal,
        s.link_hits,
        s.link_updates,
        s.link_invalidations,
        s.penalty_cycles,
        mem.itlb_stats().lookups,
        mem.itlb_stats().misses,
        pj_bits,
    ]
    .iter()
    .fold(0xcbf2_9ce4_8422_2325u64, |acc, &v| (acc ^ v).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Drives one config over `addrs` four ways — per-fetch untraced,
/// per-fetch traced, detection-armed, and (fault-free only) asserting
/// the detection twin changes nothing — and returns the untraced run's
/// fingerprint.
fn assert_invariants(scheme: &str, config: MemoryConfig, addrs: &[u32]) -> u64 {
    let mut plain = MemorySystem::new(config);
    let mut traced = MemorySystem::new(config);
    let mut cycles = 0u64;
    for (i, &addr) in addrs.iter().enumerate() {
        let untraced = plain.fetch(addr);
        let (timing, event) = traced.fetch_traced(addr);
        assert_eq!(
            timing, untraced,
            "{scheme} {}: traced timing diverged at fetch {i} ({addr:#x})",
            config.icache.geometry
        );
        assert_eq!(event.pc, addr);
        assert_eq!(event.hit, timing.hit);
        cycles += u64::from(untraced.cycles);
    }
    assert_eq!(plain.fetch_stats(), traced.fetch_stats(), "{scheme}: fetch stats");
    assert_eq!(plain.itlb_stats(), traced.itlb_stats(), "{scheme}: I-TLB stats");
    assert_eq!(plain.fault_stats(), traced.fault_stats(), "{scheme}: fault stats");

    if config.fault.is_none() {
        // Protection must be observation-only on a clean machine.
        let mut armed = MemorySystem::new(config.with_detection());
        let mut armed_cycles = 0u64;
        for &addr in addrs {
            armed_cycles += u64::from(armed.fetch(addr).cycles);
        }
        assert_eq!(armed_cycles, cycles, "{scheme}: detection twin cycles");
        assert_eq!(armed.fetch_stats(), plain.fetch_stats(), "{scheme}: detection twin stats");
        let detect = armed.detection_stats();
        assert_eq!(detect.total_detected(), 0, "{scheme}: clean run detected faults: {detect:?}");
        assert_eq!(detect.recovery_cycles, 0, "{scheme}: clean run charged recovery");
        assert!(
            detect.parity_checks > 0
                || config.icache.scheme == wp_mem::FetchScheme::Baseline
                || detect.wp_bit_checks > 0
        );
    }

    fingerprint(&plain, cycles)
}

/// A loopy instruction-like address stream: straight-line runs broken
/// by mostly-backward branches with occasional far jumps, spanning
/// several pages so the I-TLB churns too.
fn synthetic_stream(seed: u64, len: usize, span: u32) -> Vec<u32> {
    let mut rng = SplitMix64::new(seed);
    let mut addrs = Vec::with_capacity(len);
    let mut pc = (rng.below(u64::from(span / 4)) as u32) * 4;
    while addrs.len() < len {
        for _ in 0..rng.range_u64(1, 24) {
            addrs.push(pc % span);
            pc = pc.wrapping_add(4);
        }
        pc = if rng.below(4) == 0 {
            (rng.below(u64::from(span / 4)) as u32) * 4
        } else {
            pc.wrapping_sub(rng.range_u64(0, 64) as u32 * 4) % span
        };
    }
    addrs.truncate(len);
    addrs
}

/// Captures the fetch-pc stream of a benchmark's natural-layout binary
/// on the small input (run capped, stream capped at `cap` fetches).
fn capture_fetch_pcs(benchmark: Benchmark, cap: usize) -> Vec<u32> {
    let linked = Linker::new()
        .with_modules(benchmark.modules(InputSet::Small))
        .link(Layout::Natural, &Profile::empty())
        .expect("link");
    let mut config = SimConfig::new(MemoryConfig::baseline(CacheGeometry::xscale_icache()));
    config.max_instructions = 40_000;
    let mut recorder = TraceRecorder::new().with_capacity(cap);
    // InstructionLimit on long benchmarks is expected: the recorded
    // prefix is the stream under test either way.
    let _ = simulate_traced(&linked.image, &config, &mut recorder);
    recorder.events().iter().map(|e| e.pc).collect()
}

#[test]
fn synthetic_streams_agree_across_schemes_and_geometries() {
    let len = if quick() { 4_000 } else { 30_000 };
    for geom in figure6_geometries() {
        // A span a little past the cache size exercises conflict misses
        // and way-placement wrap-around; several pages exercise the TLB.
        let span = geom.size_bytes() + geom.size_bytes() / 2;
        for (i, (scheme, config)) in scheme_configs(geom, 0).into_iter().enumerate() {
            let seed = 0x50a0_0000 + u64::from(geom.size_bytes()) + i as u64;
            assert_invariants(scheme, config, &synthetic_stream(seed, len, span));
        }
    }
}

#[test]
fn benchmark_fetch_streams_agree_across_schemes() {
    let (benchmarks, cap): (&[Benchmark], usize) =
        if quick() { (&Benchmark::ALL[..4], 2_048) } else { (&Benchmark::ALL, 8_192) };
    let geom = CacheGeometry::xscale_icache();
    for &benchmark in benchmarks {
        let pcs = capture_fetch_pcs(benchmark, cap);
        assert!(!pcs.is_empty(), "{benchmark}: captured no fetches");
        for (scheme, config) in scheme_configs(geom, Image::TEXT_BASE) {
            assert_invariants(scheme, config, &pcs);
        }
    }
}

#[test]
fn fault_injected_streams_agree_across_schemes() {
    let len = if quick() { 4_000 } else { 20_000 };
    let geom = CacheGeometry::xscale_icache();
    for (i, (scheme, config)) in scheme_configs(geom, 0).into_iter().enumerate() {
        // A hot rate so every weave point (stale WP bits, hint
        // inversions, CAM tag flips) fires many times in the stream.
        let config = config.with_fault(FaultConfig::all(0xFA_017 + i as u64, 50_000));
        let stream = synthetic_stream(0xDEAD_0000 + i as u64, len, 96 * 1024);
        assert_invariants(scheme, config, &stream);
    }
}

#[test]
fn small_geometries_agree_too() {
    // Below-figure-6 corners: minimum sets, high associativity relative
    // to size, and the 64-way single-word valid-mask edge.
    for geom in [
        CacheGeometry::new(2 * 1024, 4, 32),
        CacheGeometry::new(4 * 1024, 32, 32),
        CacheGeometry::new(64 * 1024, 64, 32),
    ] {
        let len = if quick() { 2_000 } else { 10_000 };
        for (i, (scheme, config)) in scheme_configs(geom, 0).into_iter().enumerate() {
            let seed = 0x5311_0000 + u64::from(geom.ways()) + i as u64;
            let stream = synthetic_stream(seed, len, geom.size_bytes() * 2);
            assert_invariants(scheme, config, &stream);
        }
    }
}

/// Golden-stream pinning: the XScale geometry driven over one fixed
/// seeded stream must reproduce these fingerprints bit-for-bit. Any
/// intentional change to fetch semantics, counter accounting or energy
/// pricing shows up here as a fingerprint mismatch and must be
/// re-blessed consciously (regenerate with `WP_PRINT_GOLDEN=1`).
#[test]
fn golden_stream_fingerprints_are_stable() {
    let geom = CacheGeometry::xscale_icache();
    let stream = synthetic_stream(0x601D, 12_000, geom.size_bytes() + geom.size_bytes() / 2);
    let mut got = Vec::new();
    for (scheme, config) in scheme_configs(geom, 0) {
        got.push((scheme, assert_invariants(scheme, config, &stream)));
    }
    if wp_core::env::print_golden() {
        for (scheme, print) in &got {
            println!("    (\"{scheme}\", {print:#018x}),");
        }
    }
    let golden: [(&str, u64); 4] = [
        ("baseline", 0x348c7991bb70af30),
        ("way-placement", 0x497cf6d386703d27),
        ("way-memoization", 0xccf21bc007589521),
        ("way-prediction", 0xe672da2e59ee6edf),
    ];
    for ((scheme, got), (gscheme, want)) in got.iter().zip(golden.iter()) {
        assert_eq!(scheme, gscheme);
        assert_eq!(
            got, want,
            "{scheme}: golden fingerprint drifted (run with WP_PRINT_GOLDEN=1 to regenerate)"
        );
    }
}

/// Golden pinning of the armed, degraded fetch path a demoted chaos
/// trial runs: a way-placement machine with every weave point firing at
/// 5% and detection armed, switched to way-memoization a third of the
/// way through and to the baseline full search at two thirds. The
/// fingerprint folds the cycles and every fetch, detection and fault
/// counter, so any drift in the parity scrub — which ways it checks,
/// what it invalidates, what recovery it charges — changes the value.
#[test]
fn golden_degraded_armed_stream_is_stable() {
    let geom = CacheGeometry::xscale_icache();
    let config = MemoryConfig::way_placement(geom, 0, geom.size_bytes() / 2)
        .with_fault(FaultConfig::all(0xDE6_7ADE, 50_000))
        .with_detection();
    let stream = synthetic_stream(0xA7ED, 12_000, 96 * 1024);
    let mut mem = MemorySystem::new(config);
    let mut cycles = 0u64;
    let mut checks_before_baseline = 0;
    for (i, &addr) in stream.iter().enumerate() {
        if i == stream.len() / 3 {
            mem.set_fetch_scheme(FetchScheme::WayMemoization);
        } else if i == 2 * stream.len() / 3 {
            mem.set_fetch_scheme(FetchScheme::Baseline);
            checks_before_baseline = mem.detection_stats().parity_checks;
        }
        cycles += u64::from(mem.fetch(addr).cycles);
    }
    assert_eq!(mem.current_scheme(), FetchScheme::Baseline);
    let detect = mem.detection_stats();
    let faults = mem.fault_stats();
    assert!(faults.tag_bit_flips > 0, "tag flips must land: {faults:?}");
    assert!(detect.tag_parity_faults > 0, "the scrub must catch some: {detect:?}");
    // The baseline third scrubs whole sets: far more checks per fetch
    // than the one-way scrubs before it.
    let baseline_fetches = (stream.len() - 2 * stream.len() / 3) as u64;
    assert!(detect.parity_checks - checks_before_baseline > 4 * baseline_fetches);

    let print = [
        fingerprint(&mem, cycles),
        detect.parity_checks,
        detect.wp_bit_checks,
        detect.tag_parity_faults,
        detect.hint_mismatches,
        detect.wp_bit_mismatches,
        detect.hint_bounds_faults,
        detect.lines_invalidated,
        detect.hint_resets,
        detect.wp_rederivations,
        detect.recovery_cycles,
        faults.opportunities,
        faults.wp_bit_flips,
        faults.hint_inversions,
        faults.tag_bit_flips,
    ]
    .iter()
    .fold(0xcbf2_9ce4_8422_2325u64, |acc, &v| (acc ^ v).wrapping_mul(0x0000_0100_0000_01b3));
    if wp_core::env::print_golden() {
        println!("    degraded-armed: {print:#018x}");
    }
    assert_eq!(
        print, 0xd245_fa92_844d_a1d2,
        "degraded armed fingerprint drifted (run with WP_PRINT_GOLDEN=1 to regenerate)"
    );
}
