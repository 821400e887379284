//! Deterministic, seeded hardware fault injection for the memory
//! hierarchy — the robustness campaign's perturbation engine.
//!
//! The paper's safety argument (§4) is that the way-placement hardware
//! sits entirely on the *timing/energy* side of the machine: a stale
//! per-page WP bit in the I-TLB or an inverted global way-hint costs an
//! extra access and a cycle, never correctness. This module makes that
//! claim testable by flipping exactly those bits — plus the CAM tags
//! both comparison schemes rely on — at a configurable rate, driven by
//! a seeded [`SplitMix64`](crate::rng::SplitMix64) stream so every
//! campaign is reproducible.
//!
//! Fault kinds (one opportunity of each enabled kind per fetch):
//!
//! * **Stale WP bit** — the I-TLB outcome's way-placement bit is
//!   inverted before the cache sees it, modelling a corrupted or stale
//!   TLB entry (the OS model wrote the wrong bit).
//! * **Way-hint inversion** — the global way-hint flip-flop of §4.1 is
//!   toggled, modelling an upset of the single-bit predictor.
//! * **Tag bit flip** — one bit of one resident CAM tag is inverted,
//!   modelling a soft error in the tag array. Because the cache models
//!   *placement only* (data lives in the simulator's flat memory), a
//!   flipped tag perturbs hit/miss behaviour, never the fetched bits.
//!
//! Every injected fault is counted in [`FaultStats`]; `wp-sim` surfaces
//! the counters so a campaign can prove faults actually landed.

use crate::rng::SplitMix64;

/// Which hardware fault kinds an injector may fire.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FaultKind {
    /// Invert the I-TLB outcome's per-page way-placement bit.
    StaleWpBit,
    /// Toggle the global way-hint bit (§4.1).
    HintInversion,
    /// Flip one bit of one resident CAM tag.
    TagBitFlip,
}

impl FaultKind {
    /// All kinds, in presentation order.
    pub const ALL: [FaultKind; 3] =
        [FaultKind::StaleWpBit, FaultKind::HintInversion, FaultKind::TagBitFlip];

    /// Short label used in manifests.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            FaultKind::StaleWpBit => "stale-wp-bit",
            FaultKind::HintInversion => "hint-inversion",
            FaultKind::TagBitFlip => "tag-bit-flip",
        }
    }
}

/// Configuration of the hardware fault injector.
///
/// Each enabled kind gets one firing opportunity per instruction fetch;
/// it fires with probability `rate_ppm / 1_000_000`, decided by a
/// seeded PRNG draw, so equal configs produce byte-identical campaigns.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FaultConfig {
    /// PRNG seed; equal seeds yield equal fault streams.
    pub seed: u64,
    /// Per-opportunity firing probability in parts per million.
    pub rate_ppm: u32,
    /// Enable stale-WP-bit faults.
    pub stale_wp_bits: bool,
    /// Enable way-hint inversions.
    pub hint_inversions: bool,
    /// Enable CAM tag bit flips.
    pub tag_bit_flips: bool,
}

impl FaultConfig {
    /// A config with every fault kind enabled.
    #[must_use]
    pub fn all(seed: u64, rate_ppm: u32) -> FaultConfig {
        FaultConfig {
            seed,
            rate_ppm,
            stale_wp_bits: true,
            hint_inversions: true,
            tag_bit_flips: true,
        }
    }

    /// A config with exactly one fault kind enabled.
    #[must_use]
    pub fn only(kind: FaultKind, seed: u64, rate_ppm: u32) -> FaultConfig {
        FaultConfig {
            seed,
            rate_ppm,
            stale_wp_bits: kind == FaultKind::StaleWpBit,
            hint_inversions: kind == FaultKind::HintInversion,
            tag_bit_flips: kind == FaultKind::TagBitFlip,
        }
    }

    /// Whether `kind` is enabled.
    #[must_use]
    pub fn enables(&self, kind: FaultKind) -> bool {
        match kind {
            FaultKind::StaleWpBit => self.stale_wp_bits,
            FaultKind::HintInversion => self.hint_inversions,
            FaultKind::TagBitFlip => self.tag_bit_flips,
        }
    }
}

/// Counters of injected faults (and the opportunities they drew from).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FaultStats {
    /// Firing opportunities evaluated (one per enabled kind per fetch).
    pub opportunities: u64,
    /// Stale-WP-bit faults injected.
    pub wp_bit_flips: u64,
    /// Way-hint inversions injected.
    pub hint_inversions: u64,
    /// CAM tag bits flipped (only counted when a valid line was hit).
    pub tag_bit_flips: u64,
}

impl FaultStats {
    /// Total faults injected across all kinds.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.wp_bit_flips + self.hint_inversions + self.tag_bit_flips
    }

    /// Accumulates another set of counters.
    pub fn merge(&mut self, other: &FaultStats) {
        self.opportunities += other.opportunities;
        self.wp_bit_flips += other.wp_bit_flips;
        self.hint_inversions += other.hint_inversions;
        self.tag_bit_flips += other.tag_bit_flips;
    }
}

/// The stateful injector: a seeded PRNG plus fault counters.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    config: FaultConfig,
    rng: SplitMix64,
    stats: FaultStats,
}

impl FaultInjector {
    /// Creates an injector from its configuration.
    #[must_use]
    pub fn new(config: FaultConfig) -> FaultInjector {
        FaultInjector { config, rng: SplitMix64::new(config.seed), stats: FaultStats::default() }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Accumulated fault counters.
    #[must_use]
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Draws one firing decision for `kind`; returns `true` when the
    /// fault should be injected. Returns `false` without consuming
    /// randomness when `kind` is disabled, so enabling an extra kind
    /// never perturbs the other kinds' streams within a fetch ordering.
    pub fn fires(&mut self, kind: FaultKind) -> bool {
        if !self.config.enables(kind) || self.config.rate_ppm == 0 {
            return false;
        }
        self.stats.opportunities += 1;
        self.rng.below(1_000_000) < u64::from(self.config.rate_ppm)
    }

    /// A uniform draw from `0..bound` for picking fault sites.
    pub fn draw(&mut self, bound: u32) -> u32 {
        self.rng.below(u64::from(bound.max(1))) as u32
    }

    /// Records an injected stale-WP-bit fault.
    pub fn note_wp_bit_flip(&mut self) {
        self.stats.wp_bit_flips += 1;
    }

    /// Records an injected way-hint inversion.
    pub fn note_hint_inversion(&mut self) {
        self.stats.hint_inversions += 1;
    }

    /// Records an injected tag bit flip.
    pub fn note_tag_bit_flip(&mut self) {
        self.stats.tag_bit_flips += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_never_fires() {
        let mut inj = FaultInjector::new(FaultConfig::all(1, 0));
        for _ in 0..1000 {
            for kind in FaultKind::ALL {
                assert!(!inj.fires(kind));
            }
        }
        assert_eq!(inj.stats().total(), 0);
        assert_eq!(inj.stats().opportunities, 0);
    }

    #[test]
    fn full_rate_always_fires() {
        let mut inj = FaultInjector::new(FaultConfig::all(1, 1_000_000));
        for _ in 0..100 {
            assert!(inj.fires(FaultKind::StaleWpBit));
        }
        assert_eq!(inj.stats().opportunities, 100);
    }

    #[test]
    fn disabled_kind_never_fires_and_draws_nothing() {
        let config = FaultConfig::only(FaultKind::StaleWpBit, 9, 1_000_000);
        let mut inj = FaultInjector::new(config);
        assert!(!inj.fires(FaultKind::TagBitFlip));
        assert!(!inj.fires(FaultKind::HintInversion));
        assert!(inj.fires(FaultKind::StaleWpBit));
        assert_eq!(inj.stats().opportunities, 1);
    }

    #[test]
    fn firing_stream_is_deterministic_per_seed() {
        let stream = |seed| {
            let mut inj = FaultInjector::new(FaultConfig::all(seed, 250_000));
            (0..256).map(|_| inj.fires(FaultKind::StaleWpBit)).collect::<Vec<bool>>()
        };
        assert_eq!(stream(5), stream(5));
        assert_ne!(stream(5), stream(6));
    }

    #[test]
    fn rate_is_roughly_honoured() {
        let mut inj = FaultInjector::new(FaultConfig::all(3, 100_000)); // 10%
        let fired = (0..10_000).filter(|_| inj.fires(FaultKind::TagBitFlip)).count();
        assert!((800..1200).contains(&fired), "10% of 10k draws, got {fired}");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(FaultKind::StaleWpBit.label(), "stale-wp-bit");
        assert_eq!(FaultKind::HintInversion.label(), "hint-inversion");
        assert_eq!(FaultKind::TagBitFlip.label(), "tag-bit-flip");
    }
}
