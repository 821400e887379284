//! The assembled memory hierarchy: I-cache + I-TLB on the fetch side,
//! D-cache + D-TLB on the data side. This is the component the `wp-sim`
//! pipeline talks to.

use crate::dcache::{DCacheConfig, DataCache, DataProbe};
use crate::detect::{DetectedFault, DetectionStats};
use crate::fault::{FaultConfig, FaultInjector, FaultKind, FaultStats};
use crate::icache::{FetchScheme, ICacheConfig, InstructionCache};
use crate::tlb::{Tlb, TlbConfig};
use crate::{CacheGeometry, DCacheStats, FetchStats, TlbStats};
use wp_trace::FetchEvent;

/// Full memory-hierarchy configuration.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MemoryConfig {
    /// Instruction cache.
    pub icache: ICacheConfig,
    /// Data cache.
    pub dcache: DCacheConfig,
    /// Instruction TLB.
    pub itlb: TlbConfig,
    /// Data TLB.
    pub dtlb: TlbConfig,
    /// Upper bound of the way-placement area (`0` disables it). The
    /// region `[0, wp_limit)` is way-placed; code is linked at
    /// `wp_isa::Image::TEXT_BASE`, so the effective area is
    /// `[TEXT_BASE, wp_limit)`.
    pub wp_limit: u32,
    /// Optional hardware fault injection (`None` = fault-free machine).
    pub fault: Option<FaultConfig>,
    /// Arm the in-array detection-and-recovery checks (tag parity,
    /// way-hint shadow, WP-bit duplication). Off by default: the
    /// unprotected hierarchy behaves byte-identically to the
    /// pre-detection core.
    pub detection: bool,
}

impl MemoryConfig {
    /// The paper's Table 1 baseline around a given I-cache geometry.
    #[must_use]
    pub fn baseline(icache_geometry: CacheGeometry) -> MemoryConfig {
        MemoryConfig {
            icache: ICacheConfig::baseline(icache_geometry),
            dcache: DCacheConfig::xscale(),
            itlb: TlbConfig::default_itlb(),
            dtlb: TlbConfig::default_itlb(),
            wp_limit: 0,
            fault: None,
            detection: false,
        }
    }

    /// The same configuration with hardware fault injection enabled.
    #[must_use]
    pub fn with_fault(self, fault: FaultConfig) -> MemoryConfig {
        MemoryConfig { fault: Some(fault), ..self }
    }

    /// The same configuration with detection-and-recovery armed.
    #[must_use]
    pub fn with_detection(self) -> MemoryConfig {
        MemoryConfig { detection: true, ..self }
    }

    /// A way-placement configuration: `wp_area_bytes` of code starting
    /// at `text_base` are way-placed.
    ///
    /// # Panics
    ///
    /// Panics if the resulting limit is not page-aligned.
    #[must_use]
    pub fn way_placement(
        icache_geometry: CacheGeometry,
        text_base: u32,
        wp_area_bytes: u32,
    ) -> MemoryConfig {
        MemoryConfig {
            icache: ICacheConfig::way_placement(icache_geometry),
            wp_limit: text_base + wp_area_bytes,
            ..MemoryConfig::baseline(icache_geometry)
        }
    }

    /// The way-memoization comparison configuration.
    #[must_use]
    pub fn way_memoization(icache_geometry: CacheGeometry) -> MemoryConfig {
        MemoryConfig {
            icache: ICacheConfig::way_memoization(icache_geometry),
            ..MemoryConfig::baseline(icache_geometry)
        }
    }

    /// The MRU way-prediction comparison configuration (extension).
    #[must_use]
    pub fn way_prediction(icache_geometry: CacheGeometry) -> MemoryConfig {
        MemoryConfig {
            icache: ICacheConfig::way_prediction(icache_geometry),
            ..MemoryConfig::baseline(icache_geometry)
        }
    }
}

/// Combined timing result of a fetch through I-TLB and I-cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FetchTiming {
    /// Whether the I-cache hit.
    pub hit: bool,
    /// Total fetch cycles including TLB fill stalls and hint penalties.
    pub cycles: u32,
}

/// The fetch side of the hierarchy: I-TLB, I-cache, the fault
/// injector and the detection counters. Everything here is paced by
/// the fetch stream alone, so one timing lane of a lock-step group is
/// one `FetchSide`.
#[derive(Clone, Debug)]
pub struct FetchSide {
    config: MemoryConfig,
    icache: InstructionCache,
    itlb: Tlb,
    fault: Option<FaultInjector>,
    /// TLB-side detection counters (the I-cache keeps its own).
    detect: DetectionStats,
}

impl FetchSide {
    /// Builds the fetch side of `config`.
    #[must_use]
    pub fn new(config: MemoryConfig) -> FetchSide {
        let wp_limit =
            if config.icache.scheme == FetchScheme::WayPlacement { config.wp_limit } else { 0 };
        let mut icache = InstructionCache::new(config.icache);
        icache.set_detection(config.detection);
        FetchSide {
            config,
            icache,
            itlb: Tlb::new(config.itlb, wp_limit),
            fault: config.fault.map(FaultInjector::new),
            detect: DetectionStats::new(),
        }
    }

    /// Switches the fetch scheme at run time (the degradation
    /// controller's lever); see
    /// [`InstructionCache::set_scheme`] for the flush semantics. The
    /// constructed `config` keeps the *preferred* scheme;
    /// [`current_scheme`](FetchSide::current_scheme) reports what is
    /// actually running.
    pub fn set_fetch_scheme(&mut self, scheme: FetchScheme) {
        self.icache.set_scheme(scheme);
    }

    /// The fetch scheme currently running (differs from the configured
    /// scheme only after a runtime switch).
    #[must_use]
    pub fn current_scheme(&self) -> FetchScheme {
        self.icache.config().scheme
    }

    /// Merged detection-and-recovery counters from the I-cache checks
    /// and the I-TLB WP-bit scrubber. All zero when detection is off.
    #[must_use]
    pub fn detection_stats(&self) -> DetectionStats {
        let mut stats = self.detect;
        stats.merge(self.icache.detect_stats());
        stats
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &MemoryConfig {
        &self.config
    }

    /// The fault-injection and I-TLB half of a fetch, shared by the
    /// traced and untraced paths.
    fn pre_fetch(&mut self, addr: u32) -> crate::TlbOutcome {
        // Hardware fault injection happens at the trust boundaries the
        // paper's §4 argues are timing-only: the tag array, the global
        // way-hint bit, and the I-TLB's per-page WP bit.
        if let Some(injector) = self.fault.as_mut() {
            if injector.fires(FaultKind::TagBitFlip) {
                let geom = self.icache.config().geometry;
                let set = injector.draw(geom.sets());
                let way = injector.draw(geom.ways());
                let bit = injector.draw(geom.tag_bits());
                if self.icache.corrupt_tag_bit(set, way, bit) {
                    injector.note_tag_bit_flip();
                }
            }
            if injector.fires(FaultKind::HintInversion) {
                self.icache.invert_way_hint();
                injector.note_hint_inversion();
            }
        }
        let mut tlb = self.itlb.lookup(addr);
        if let Some(injector) = self.fault.as_mut() {
            if injector.fires(FaultKind::StaleWpBit) {
                if self.config.detection {
                    // Against protected state the fault corrupts the
                    // *stored* entry (the lookup just made it
                    // resident), leaving the duplicate stale; the
                    // scrub below is what decides the delivered bit.
                    self.itlb.corrupt_wp_bit(addr);
                } else {
                    tlb.wp = !tlb.wp;
                }
                injector.note_wp_bit_flip();
            }
        }
        if self.config.detection {
            // Cross-check the WP bit the cache is about to trust; a
            // mismatch is repaired by a modeled I-TLB refill, priced
            // at the miss penalty.
            if let Some((repaired, wp)) = self.itlb.scrub_wp(addr) {
                self.detect.wp_bit_checks += 1;
                if repaired {
                    let vpn = addr >> self.config.itlb.page_bits();
                    self.detect.record(DetectedFault::WpBitMismatch { vpn });
                    self.detect.wp_rederivations += 1;
                    let stall = self.config.itlb.miss_penalty;
                    self.detect.recovery_cycles += u64::from(stall);
                    tlb.stall_cycles += stall;
                }
                tlb.wp = wp;
            }
        }
        tlb
    }

    /// Folds an I-cache outcome and the parallel I-TLB outcome into one
    /// timing result — the single place the TLB-fill stall is charged,
    /// shared by [`fetch`](FetchSide::fetch) and
    /// [`fetch_traced`](FetchSide::fetch_traced) so the accounting
    /// cannot drift between them.
    fn compose_timing(fetch: crate::FetchOutcome, tlb: crate::TlbOutcome) -> FetchTiming {
        FetchTiming { hit: fetch.hit, cycles: fetch.cycles + tlb.stall_cycles }
    }

    /// Fetches the instruction at `addr`: I-TLB and I-cache are accessed
    /// in parallel (§4.1), so a TLB hit adds no cycles; a TLB miss
    /// stalls for the fill.
    pub fn fetch(&mut self, addr: u32) -> FetchTiming {
        let tlb = self.pre_fetch(addr);
        let fetch = self.icache.fetch(addr, tlb.wp);
        FetchSide::compose_timing(fetch, tlb)
    }

    /// [`fetch`](FetchSide::fetch) plus a classified telemetry
    /// event. Behaviour and counters are identical to `fetch`; the
    /// event's `cycle` field is left 0 for the simulator to stamp.
    pub fn fetch_traced(&mut self, addr: u32) -> (FetchTiming, FetchEvent) {
        let tlb = self.pre_fetch(addr);
        let (fetch, event) = self.icache.fetch_traced(addr, tlb.wp);
        (FetchSide::compose_timing(fetch, tlb), event)
    }

    /// Instruction-fetch counters.
    #[must_use]
    pub fn fetch_stats(&self) -> &FetchStats {
        self.icache.stats()
    }

    /// I-TLB counters.
    #[must_use]
    pub fn itlb_stats(&self) -> &TlbStats {
        self.itlb.stats()
    }

    /// Injected-fault counters (all zero when injection is disabled).
    #[must_use]
    pub fn fault_stats(&self) -> FaultStats {
        self.fault.as_ref().map(|f| *f.stats()).unwrap_or_default()
    }

    /// The instruction cache (diagnostics / invariant checks).
    #[must_use]
    pub fn icache(&self) -> &InstructionCache {
        &self.icache
    }

    /// Resets all state and counters, including the fault injector's
    /// PRNG stream, and restores the configured fetch scheme if a
    /// runtime switch had demoted it.
    pub fn reset(&mut self) {
        if self.icache.config() != &self.config.icache {
            self.icache = InstructionCache::new(self.config.icache);
            self.icache.set_detection(self.config.detection);
        } else {
            self.icache.reset();
        }
        self.itlb.reset();
        self.fault = self.config.fault.map(FaultInjector::new);
        self.detect = DetectionStats::new();
    }
}

/// The address half of one data access through [`DataSide`]: the
/// D-TLB fill stall and what the D-cache lookup found.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DataAccess {
    /// D-TLB fill stall (zero on a hit).
    pub tlb_stall: u32,
    /// The D-cache's address half.
    pub probe: DataProbe,
}

/// The data side of the hierarchy: D-TLB and D-cache. Its address
/// state ([`DataSide::probe`]) depends only on the data-address stream;
/// only the write buffer's drain depends on the pipeline clock, so
/// lock-step timing lanes share one `DataSide` and keep a
/// [`crate::WriteBuffer`] each.
#[derive(Clone, Debug)]
pub struct DataSide {
    dcache: DataCache,
    dtlb: Tlb,
}

impl DataSide {
    /// Builds the data side of `config`.
    #[must_use]
    pub fn new(config: &MemoryConfig) -> DataSide {
        DataSide { dcache: DataCache::new(config.dcache), dtlb: Tlb::new(config.dtlb, 0) }
    }

    /// The address half of an access at `addr`: D-TLB lookup plus
    /// [`DataCache::probe`].
    pub fn probe(&mut self, addr: u32, write: bool) -> DataAccess {
        let tlb = self.dtlb.lookup(addr);
        DataAccess { tlb_stall: tlb.stall_cycles, probe: self.dcache.probe(addr, write) }
    }

    /// A whole access at pipeline cycle `now` against the D-cache's own
    /// write buffer; returns the stall cycles.
    pub fn access_at(&mut self, addr: u32, write: bool, now: u64) -> u32 {
        let tlb = self.dtlb.lookup(addr);
        tlb.stall_cycles + self.dcache.access_at(addr, write, now).stall_cycles
    }

    /// Data-cache counters; `miss_stall_cycles` counts the D-cache's own
    /// write buffer (zero when only [`DataSide::probe`] was used).
    #[must_use]
    pub fn dcache_stats(&self) -> DCacheStats {
        self.dcache.stats()
    }

    /// D-TLB counters.
    #[must_use]
    pub fn dtlb_stats(&self) -> &TlbStats {
        self.dtlb.stats()
    }

    /// Resets all state and counters.
    pub fn reset(&mut self) {
        self.dcache.reset();
        self.dtlb.reset();
    }
}

/// The memory system handed to the pipeline model: a [`FetchSide`] and
/// a [`DataSide`].
#[derive(Clone, Debug)]
pub struct MemorySystem {
    fetch: FetchSide,
    data: DataSide,
}

impl MemorySystem {
    /// Builds the hierarchy from a configuration.
    #[must_use]
    pub fn new(config: MemoryConfig) -> MemorySystem {
        MemorySystem { fetch: FetchSide::new(config), data: DataSide::new(&config) }
    }

    /// See [`FetchSide::set_fetch_scheme`].
    pub fn set_fetch_scheme(&mut self, scheme: FetchScheme) {
        self.fetch.set_fetch_scheme(scheme);
    }

    /// See [`FetchSide::current_scheme`].
    #[must_use]
    pub fn current_scheme(&self) -> FetchScheme {
        self.fetch.current_scheme()
    }

    /// See [`FetchSide::detection_stats`].
    #[must_use]
    pub fn detection_stats(&self) -> DetectionStats {
        self.fetch.detection_stats()
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &MemoryConfig {
        self.fetch.config()
    }

    /// See [`FetchSide::fetch`].
    pub fn fetch(&mut self, addr: u32) -> FetchTiming {
        self.fetch.fetch(addr)
    }

    /// See [`FetchSide::fetch_traced`].
    pub fn fetch_traced(&mut self, addr: u32) -> (FetchTiming, FetchEvent) {
        self.fetch.fetch_traced(addr)
    }

    /// Fetches `words` consecutive instruction words starting at
    /// `addr`, one [`fetch`](MemorySystem::fetch) each. The timing sums
    /// their cycles; `hit` is the conjunction of their hits.
    pub fn fetch_block(&mut self, addr: u32, words: u32) -> FetchTiming {
        let mut timing = FetchTiming { hit: true, cycles: 0 };
        for i in 0..words {
            let next = self.fetch.fetch(addr + 4 * i);
            timing.cycles += next.cycles;
            timing.hit &= next.hit;
        }
        timing
    }

    /// A data load at `addr` during pipeline cycle `now`; returns stall
    /// cycles beyond the pipeline's base load latency.
    pub fn load(&mut self, addr: u32, now: u64) -> u32 {
        self.data.access_at(addr, false, now)
    }

    /// A data store at `addr` during pipeline cycle `now`; returns stall
    /// cycles.
    pub fn store(&mut self, addr: u32, now: u64) -> u32 {
        self.data.access_at(addr, true, now)
    }

    /// Instruction-fetch counters.
    #[must_use]
    pub fn fetch_stats(&self) -> &FetchStats {
        self.fetch.fetch_stats()
    }

    /// Data-cache counters.
    #[must_use]
    pub fn dcache_stats(&self) -> DCacheStats {
        self.data.dcache_stats()
    }

    /// I-TLB counters.
    #[must_use]
    pub fn itlb_stats(&self) -> &TlbStats {
        self.fetch.itlb_stats()
    }

    /// D-TLB counters.
    #[must_use]
    pub fn dtlb_stats(&self) -> &TlbStats {
        self.data.dtlb_stats()
    }

    /// Injected-fault counters (all zero when injection is disabled).
    #[must_use]
    pub fn fault_stats(&self) -> FaultStats {
        self.fetch.fault_stats()
    }

    /// The instruction cache (diagnostics / invariant checks).
    #[must_use]
    pub fn icache(&self) -> &InstructionCache {
        self.fetch.icache()
    }

    /// Resets all state and counters, including the fault injector's
    /// PRNG stream, and restores the configured fetch scheme if a
    /// runtime switch had demoted it.
    pub fn reset(&mut self) {
        self.fetch.reset();
        self.data.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_charges_tlb_fill_once() {
        let geom = CacheGeometry::new(2048, 4, 32);
        let mut mem = MemorySystem::new(MemoryConfig::baseline(geom));
        let first = mem.fetch(0x8000);
        assert!(!first.hit);
        assert!(first.cycles > 50, "miss fill + TLB fill");
        let second = mem.fetch(0x8000);
        assert!(second.hit);
        assert_eq!(second.cycles, 1);
        assert_eq!(mem.itlb_stats().misses, 1);
    }

    #[test]
    fn wp_limit_only_applies_to_way_placement() {
        let geom = CacheGeometry::new(2048, 4, 32);
        let cfg = MemoryConfig { wp_limit: 0x8000 + 1024, ..MemoryConfig::baseline(geom) };
        let mem = MemorySystem::new(cfg);
        assert_eq!(mem.fetch.itlb.wp_limit(), 0, "baseline ignores wp_limit");

        let cfg = MemoryConfig::way_placement(geom, 0x8000, 1024);
        let mem = MemorySystem::new(cfg);
        assert_eq!(mem.fetch.itlb.wp_limit(), 0x8000 + 1024);
    }

    #[test]
    fn way_placement_fetches_are_single_tag() {
        let geom = CacheGeometry::new(2048, 4, 32);
        let mut mem = MemorySystem::new(MemoryConfig::way_placement(geom, 0x8000, 2048));
        // Warm TLB, hint and cache on a two-line loop.
        for _ in 0..4 {
            mem.fetch(0x8000);
            mem.fetch(0x8020);
        }
        let tags = mem.fetch_stats().tag_comparisons;
        for _ in 0..10 {
            mem.fetch(0x8000);
            mem.fetch(0x8020);
        }
        // 20 fetches, all way-placement hits: 1 tag each.
        assert_eq!(mem.fetch_stats().tag_comparisons - tags, 20);
        assert!(mem.icache().way_placement_invariant_holds(0x8000 + 2048));
    }

    #[test]
    fn loads_and_stores_hit_dcache() {
        let geom = CacheGeometry::new(2048, 4, 32);
        let mut mem = MemorySystem::new(MemoryConfig::baseline(geom));
        assert!(mem.load(0x10_0000, 0) > 0, "cold miss stalls");
        assert_eq!(mem.load(0x10_0000, 60), 0, "warm hit");
        assert_eq!(mem.store(0x10_0004, 61), 0, "same line");
        assert_eq!(mem.dcache_stats().writes, 1);
    }

    #[test]
    fn fault_injection_perturbs_timing_deterministically() {
        let geom = CacheGeometry::new(2048, 4, 32);
        let run = |fault: Option<FaultConfig>| {
            let mut cfg = MemoryConfig::way_placement(geom, 0x8000, 2048);
            cfg.fault = fault;
            let mut mem = MemorySystem::new(cfg);
            let mut cycles = 0u64;
            for i in 0..4000u32 {
                cycles += u64::from(mem.fetch(0x8000 + (i % 64) * 4).cycles);
            }
            (cycles, mem.fault_stats())
        };

        let (clean_cycles, clean_faults) = run(None);
        assert_eq!(clean_faults.total(), 0);

        let faulty = FaultConfig::all(0xF00D, 50_000); // 5% per kind
        let (faulty_cycles, faults) = run(Some(faulty));
        assert!(faults.total() > 0, "faults must land: {faults:?}");
        assert!(faults.opportunities >= 3 * 4000);
        // Graceful degradation: fetch timing worsens (or at worst is
        // unchanged), and the run is reproducible bit-for-bit.
        assert!(faulty_cycles >= clean_cycles, "{faulty_cycles} vs {clean_cycles}");
        assert_eq!(run(Some(faulty)), (faulty_cycles, faults));
    }

    #[test]
    fn reset_restores_fault_stream() {
        let geom = CacheGeometry::new(2048, 4, 32);
        let cfg = MemoryConfig::way_placement(geom, 0x8000, 2048)
            .with_fault(FaultConfig::all(7, 100_000));
        let mut mem = MemorySystem::new(cfg);
        for i in 0..500u32 {
            mem.fetch(0x8000 + (i % 32) * 4);
        }
        let first = mem.fault_stats();
        mem.reset();
        assert_eq!(mem.fault_stats().total(), 0);
        for i in 0..500u32 {
            mem.fetch(0x8000 + (i % 32) * 4);
        }
        assert_eq!(mem.fault_stats(), first, "reset replays the same stream");
    }

    fn stream(seed: u64, len: usize) -> Vec<u32> {
        // A loopy, multi-page fetch stream with sequential runs.
        let mut rng = crate::rng::SplitMix64::new(seed);
        let mut pc = 0x8000u32;
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let run = rng.range_u64(1, 12) as u32;
            for i in 0..run {
                out.push(pc + 4 * i);
            }
            pc = if rng.below(3) == 0 {
                0x8000 + (rng.next_u32() & 0x3FFF & !3)
            } else {
                pc + 4 * run
            };
        }
        out.truncate(len);
        out
    }

    /// Satellite: the traced and untraced paths share one accounting
    /// helper — equal streams must produce equal `FetchStats`, TLB
    /// stats and timings.
    #[test]
    fn traced_and_untraced_fetch_cannot_drift() {
        let geom = CacheGeometry::new(2048, 4, 32);
        for config in [
            MemoryConfig::baseline(geom),
            MemoryConfig::way_placement(geom, 0x8000, 2048),
            MemoryConfig::way_memoization(geom),
            MemoryConfig::way_prediction(geom),
        ] {
            let mut plain = MemorySystem::new(config);
            let mut traced = MemorySystem::new(config);
            for addr in stream(0xD1FF, 4000) {
                let untraced = plain.fetch(addr);
                let (timing, event) = traced.fetch_traced(addr);
                assert_eq!(timing, untraced, "addr {addr:#x}");
                assert_eq!(event.pc, addr);
                assert_eq!(event.hit, timing.hit);
            }
            assert_eq!(plain.fetch_stats(), traced.fetch_stats());
            assert_eq!(plain.itlb_stats(), traced.itlb_stats());
        }
    }

    /// `fetch_block` (the entry point the standalone benchmark replays
    /// runs through) is cycle- and counter-identical to the per-fetch
    /// loop for every scheme and for armed fault injectors, with and
    /// without detection armed.
    #[test]
    fn fetch_block_matches_sequential_fetches() {
        let geom = CacheGeometry::new(2048, 4, 32);
        let faulted =
            MemoryConfig::way_placement(geom, 0x8000, 2048).with_fault(FaultConfig::all(3, 80_000));
        for config in [
            MemoryConfig::baseline(geom),
            MemoryConfig::way_placement(geom, 0x8000, 2048),
            MemoryConfig::way_memoization(geom),
            MemoryConfig::way_prediction(geom),
            faulted,
            faulted.with_detection(),
        ] {
            let mut looped = MemorySystem::new(config);
            let mut blocked = MemorySystem::new(config);
            let mut rng = crate::rng::SplitMix64::new(0xB10C);
            let mut pc = 0x8000u32;
            for _ in 0..3000 {
                let words_left = (geom.line_bytes() - (pc & (geom.line_bytes() - 1))) / 4;
                let words = rng.range_u64(1, u64::from(words_left)) as u32;
                let mut loop_timing = looped.fetch(pc);
                for i in 1..words {
                    let t = looped.fetch(pc + 4 * i);
                    loop_timing.cycles += t.cycles;
                    loop_timing.hit = loop_timing.hit && t.hit;
                }
                let block_timing = blocked.fetch_block(pc, words);
                assert_eq!(block_timing, loop_timing, "pc {pc:#x} words {words}");
                pc = if rng.below(4) == 0 {
                    0x8000 + (rng.next_u32() & 0x7FFF & !3)
                } else {
                    pc + 4 * words
                };
            }
            assert_eq!(looped.fetch_stats(), blocked.fetch_stats());
            assert_eq!(looped.itlb_stats(), blocked.itlb_stats());
            assert_eq!(looped.fault_stats(), blocked.fault_stats());
            assert_eq!(looped.detection_stats(), blocked.detection_stats());
            if config.fault.is_some() {
                assert!(looped.fault_stats().total() > 0, "faults must land in this stream");
            }
        }
    }

    /// Each injected fault kind is caught by its matching check: hint
    /// inversions and stale WP bits immediately (shadow copies are
    /// scrubbed on the very next fetch), tag flips when the poisoned
    /// way is next armed (some are absorbed by unrelated refills
    /// first — never more detections than injections).
    #[test]
    fn detection_catches_and_recovers_injected_faults() {
        let geom = CacheGeometry::new(2048, 4, 32);
        let config = MemoryConfig::way_placement(geom, 0x8000, 2048)
            .with_fault(FaultConfig::all(0xDE7EC7, 30_000))
            .with_detection();
        let mut mem = MemorySystem::new(config);
        for addr in stream(0x5EED, 6000) {
            mem.fetch(0x8000 + (addr & 0x3FFF));
        }
        let faults = mem.fault_stats();
        let detect = mem.detection_stats();
        assert!(faults.total() > 0, "faults must land: {faults:?}");
        assert_eq!(detect.hint_mismatches, faults.hint_inversions, "hint inversions: {detect:?}");
        assert_eq!(detect.hint_resets, faults.hint_inversions);
        assert_eq!(detect.wp_bit_mismatches, faults.wp_bit_flips, "stale WP bits: {detect:?}");
        assert_eq!(detect.wp_rederivations, faults.wp_bit_flips);
        assert!(detect.tag_parity_faults <= faults.tag_bit_flips, "{detect:?} vs {faults:?}");
        assert_eq!(detect.lines_invalidated, detect.tag_parity_faults);
        assert!(detect.recovery_cycles > 0);
        assert!(detect.parity_checks > 0 && detect.wp_bit_checks > 0);

        // The repaired machine keeps its way-placement invariant.
        assert!(mem.icache().way_placement_invariant_holds(0x8000 + 2048));
    }

    /// Detection on a fault-free machine is free: identical counters
    /// and cycles, zero detections, zero recovery.
    #[test]
    fn detection_is_observation_only_when_clean() {
        let geom = CacheGeometry::new(2048, 4, 32);
        let base = MemoryConfig::way_placement(geom, 0x8000, 2048);
        let mut off = MemorySystem::new(base);
        let mut on = MemorySystem::new(base.with_detection());
        let mut off_cycles = 0u64;
        let mut on_cycles = 0u64;
        for addr in stream(0xC1EA2, 4000) {
            off_cycles += u64::from(off.fetch(addr).cycles);
            on_cycles += u64::from(on.fetch(addr).cycles);
        }
        assert_eq!(on_cycles, off_cycles);
        assert_eq!(on.fetch_stats(), off.fetch_stats());
        assert_eq!(off.detection_stats(), DetectionStats::new(), "disarmed counts nothing");
        let detect = on.detection_stats();
        assert_eq!(detect.total_detected(), 0);
        assert_eq!(detect.recovery_cycles, 0);
        assert!(detect.parity_checks > 0, "checks must actually run: {detect:?}");
        assert!(detect.wp_bit_checks > 0);
    }

    /// Runtime scheme switching (the degradation controller's lever)
    /// flushes the array so the new scheme starts invariant-clean, and
    /// `reset` restores the configured scheme.
    #[test]
    fn runtime_scheme_switch_flushes_and_reset_restores() {
        let geom = CacheGeometry::new(2048, 4, 32);
        let mut mem = MemorySystem::new(MemoryConfig::way_placement(geom, 0x8000, 2048));
        for i in 0..64u32 {
            mem.fetch(0x8000 + i * 4);
        }
        assert!(mem.icache().array().valid_lines() > 0);
        assert_eq!(mem.current_scheme(), FetchScheme::WayPlacement);

        mem.set_fetch_scheme(FetchScheme::WayMemoization);
        assert_eq!(mem.current_scheme(), FetchScheme::WayMemoization);
        assert_eq!(mem.icache().array().valid_lines(), 0, "switch flushes the array");
        for i in 0..64u32 {
            assert!(mem.fetch(0x8000 + i * 4).cycles >= 1);
        }

        // Demote further to the serial full-CAM probe, then promote
        // back; the way-placement invariant must hold on refilled state.
        mem.set_fetch_scheme(FetchScheme::Baseline);
        assert_eq!(mem.current_scheme(), FetchScheme::Baseline);
        mem.set_fetch_scheme(FetchScheme::WayPlacement);
        for i in 0..64u32 {
            mem.fetch(0x8000 + i * 4);
        }
        assert!(mem.icache().way_placement_invariant_holds(0x8000 + 2048));

        mem.set_fetch_scheme(FetchScheme::Baseline);
        mem.reset();
        assert_eq!(mem.current_scheme(), FetchScheme::WayPlacement, "reset restores config");
        assert_eq!(mem.fetch_stats().fetches, 0);
    }

    /// A machine built without same-line elision keeps it off through
    /// demotion and re-promotion: a scheme switch cannot add hardware.
    #[test]
    fn no_elision_machine_never_elides_after_a_scheme_switch() {
        let geom = CacheGeometry::new(2048, 4, 32);
        let mut config = MemoryConfig::way_placement(geom, 0x8000, 2048);
        config.icache.same_line_elision = false;
        let mut fetch = FetchSide::new(config.with_detection());
        let straight_line = |fetch: &mut FetchSide| {
            for i in 0..64u32 {
                fetch.fetch(0x8000 + i * 4);
            }
        };
        straight_line(&mut fetch);
        for scheme in [
            FetchScheme::WayMemoization,
            FetchScheme::Baseline,
            FetchScheme::WayMemoization,
            FetchScheme::WayPlacement,
        ] {
            fetch.set_fetch_scheme(scheme);
            straight_line(&mut fetch);
            assert!(!fetch.icache().config().same_line_elision, "{scheme:?} turned elision on");
        }
        assert_eq!(fetch.fetch_stats().same_line_elisions, 0);
        assert_eq!(fetch.fetch_stats().fetches, 5 * 64);
        assert_eq!(fetch.icache().config(), &config.icache, "re-promoted to the built machine");
    }

    #[test]
    fn reset_restores_cold_state() {
        let geom = CacheGeometry::new(2048, 4, 32);
        let mut mem = MemorySystem::new(MemoryConfig::baseline(geom));
        mem.fetch(0x8000);
        mem.load(0x10_0000, 2);
        mem.reset();
        assert_eq!(mem.fetch_stats().fetches, 0);
        assert!(!mem.fetch(0x8000).hit);
    }
}
