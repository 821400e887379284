//! Fully-associative translation lookaside buffers.
//!
//! The guest runs identity-mapped (no paging is needed for the study),
//! but the I-TLB is architecturally essential to way-placement: it holds
//! the per-page **way-placement bit** that the OS writes on each fill
//! (§4.1 of the paper). The bit marks pages whose instructions are
//! mapped to explicit cache ways.
//!
//! The paper makes the way-placement area "a multiple of the memory page
//! size" yet evaluates 1 KB and 2 KB areas; we reconcile this with 1 KB
//! pages (common in embedded MMUs) — see DESIGN.md §3 for the
//! substitution note.
//!
//! Storage is structure-of-arrays: a contiguous `vpns` slab plus
//! `present` and `wp` bitsets (the WP bits in a parallel slab, one bit
//! per entry), with a last-hit index checked before the CAM scan and,
//! after it, a small table of entry hints indexed by a hash of the VPN.
//! Because a fill only ever happens after a whole-TLB miss, present
//! VPNs are unique, so answering from the last-hit entry or from a
//! hinted entry that still holds the VPN — or scanning in any order —
//! is equivalent to a full sequential probe, and the hit path carries
//! no recency state to update.
//!
//! The WP bit is the single most safety-critical bit in the design — a
//! stale 1 sends fetches down the unchecked way-placement path — so it
//! is stored twice: the `wp_check` bitset duplicates every bit written
//! at fill time. [`scrub_wp`](Tlb::scrub_wp) compares the copies and,
//! on a mismatch, re-derives the bit from the OS boundary exactly as a
//! fill would (a modeled I-TLB refill, priced at the miss penalty).

use crate::TlbStats;

/// Slots in a TLB's table of entry hints.
const HINT_SLOTS: usize = 64;

/// The hint slot of `vpn` (Fibonacci hashing, so pages a power of two
/// apart, such as the stack top and the data base, land apart).
#[inline]
fn hint_slot(vpn: u32) -> usize {
    (vpn.wrapping_mul(0x9e37_79b9) >> (32 - HINT_SLOTS.trailing_zeros())) as usize
}

/// TLB configuration.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TlbConfig {
    /// Number of entries (Table 1: 32, fully associative).
    pub entries: u32,
    /// Page size in bytes (power of two).
    pub page_bytes: u32,
    /// Cycles to fill an entry on a miss (the OS walk).
    pub miss_penalty: u32,
}

impl TlbConfig {
    /// The reproduction's default: 32 entries, 1 KB pages, 20-cycle fill.
    #[must_use]
    pub fn default_itlb() -> TlbConfig {
        TlbConfig { entries: 32, page_bytes: 1024, miss_penalty: 20 }
    }

    /// Number of page-offset bits.
    #[must_use]
    pub fn page_bits(&self) -> u32 {
        self.page_bytes.trailing_zeros()
    }
}

/// Result of a TLB lookup.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TlbOutcome {
    /// The page's way-placement bit.
    pub wp: bool,
    /// Whether the lookup missed (entry was filled by the OS model).
    pub miss: bool,
    /// Stall cycles charged for the fill.
    pub stall_cycles: u32,
}

/// A fully-associative TLB with round-robin replacement.
///
/// `wp_limit` is the OS model's way-placement boundary: pages that lie
/// entirely below it get their way-placement bit set when the OS writes
/// the entry. Because the boundary is only consulted on *fills*, changing
/// it mid-run models the paper's "even adjusting it during program
/// execution" only after a TLB flush — exactly the hardware's behaviour.
#[derive(Clone, Debug)]
pub struct Tlb {
    config: TlbConfig,
    page_bits: u32,
    /// Stored virtual page numbers, indexed by entry.
    vpns: Vec<u32>,
    /// Presence bits, one per entry, packed 64 to a word.
    present: Vec<u64>,
    /// Way-placement bits, one per entry, in a parallel slab.
    wp: Vec<u64>,
    /// Duplicate WP bits written at fill time; [`Tlb::scrub_wp`]
    /// cross-checks them against `wp` to catch stale-bit faults.
    wp_check: Vec<u64>,
    /// The entry the last hit resolved to — fetch streams are heavily
    /// page-local, so this answers most lookups without a scan.
    last_hit: usize,
    /// The entry that last resolved each [`hint_slot`] of VPNs: data
    /// streams alternate between a few pages (stack, globals, heap),
    /// which the last-hit entry alone misses. A hint is only trusted
    /// when its entry is present and holds the VPN.
    hints: [u32; HINT_SLOTS],
    next_victim: usize,
    wp_limit: u32,
    stats: TlbStats,
}

impl Tlb {
    /// Creates an empty TLB. Addresses in `[0, wp_limit)` are
    /// way-placement pages; pass 0 for none.
    ///
    /// # Panics
    ///
    /// Panics if `wp_limit` is not page-aligned (the paper requires the
    /// area to be a whole number of pages).
    #[must_use]
    pub fn new(config: TlbConfig, wp_limit: u32) -> Tlb {
        assert!(
            wp_limit.is_multiple_of(config.page_bytes),
            "way-placement limit {wp_limit:#x} is not page-aligned"
        );
        let words = (config.entries as usize).div_ceil(64);
        Tlb {
            config,
            page_bits: config.page_bits(),
            vpns: vec![0; config.entries as usize],
            present: vec![0; words],
            wp: vec![0; words],
            wp_check: vec![0; words],
            last_hit: 0,
            hints: [0; HINT_SLOTS],
            next_victim: 0,
            wp_limit,
            stats: TlbStats::new(),
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// The way-placement boundary this TLB fills entries against.
    #[must_use]
    pub fn wp_limit(&self) -> u32 {
        self.wp_limit
    }

    /// Accumulated counters.
    #[must_use]
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    /// Flushes all entries (e.g. when the OS resizes the area).
    pub fn flush(&mut self) {
        self.present.fill(0);
        self.wp.fill(0);
        self.wp_check.fill(0);
        self.last_hit = 0;
        self.next_victim = 0;
    }

    /// Resets entries and counters.
    pub fn reset(&mut self) {
        self.flush();
        self.stats = TlbStats::new();
    }

    #[inline]
    fn is_present(&self, entry: usize) -> bool {
        self.present[entry >> 6] & (1u64 << (entry & 63)) != 0
    }

    #[inline]
    fn wp_bit(&self, entry: usize) -> bool {
        self.wp[entry >> 6] & (1u64 << (entry & 63)) != 0
    }

    /// Looks up `addr`, filling on a miss.
    #[inline]
    pub fn lookup(&mut self, addr: u32) -> TlbOutcome {
        self.stats.lookups += 1;
        let vpn = addr >> self.page_bits;
        // Same-page fast path: no scan when the last hit still matches.
        let last = self.last_hit;
        if self.vpns[last] == vpn && self.is_present(last) {
            return TlbOutcome { wp: self.wp_bit(last), miss: false, stall_cycles: 0 };
        }
        self.search(vpn)
    }

    /// The rest of a lookup of `vpn` that missed the last-hit entry:
    /// the hinted entry, the CAM scan, then the fill.
    #[inline(never)]
    fn search(&mut self, vpn: u32) -> TlbOutcome {
        let slot = hint_slot(vpn);
        if let Some(entry) = self.find(vpn) {
            self.last_hit = entry;
            self.hints[slot] = entry as u32;
            return TlbOutcome { wp: self.wp_bit(entry), miss: false, stall_cycles: 0 };
        }
        // Miss: the OS writes the entry, deriving the way-placement bit
        // from the page's position relative to the configured area.
        self.stats.misses += 1;
        self.stats.miss_stall_cycles += u64::from(self.config.miss_penalty);
        let page_base = vpn << self.page_bits;
        let wp = page_base.saturating_add(self.config.page_bytes) <= self.wp_limit;
        let victim = self.next_victim;
        self.next_victim = (self.next_victim + 1) % self.vpns.len();
        self.vpns[victim] = vpn;
        self.present[victim >> 6] |= 1u64 << (victim & 63);
        self.write_wp_bits(victim, wp);
        self.last_hit = victim;
        self.hints[slot] = victim as u32;
        TlbOutcome { wp, miss: true, stall_cycles: self.config.miss_penalty }
    }

    /// The present entry holding `vpn`: its hinted entry if that still
    /// holds it, else the first one a scan finds (the only one, as
    /// present VPNs are unique).
    #[inline]
    fn find(&self, vpn: u32) -> Option<usize> {
        let hinted = self.hints[hint_slot(vpn)] as usize;
        if self.vpns[hinted] == vpn && self.is_present(hinted) {
            return Some(hinted);
        }
        (0..self.vpns.len()).find(|&e| self.is_present(e) && self.vpns[e] == vpn)
    }

    /// Records `n` more lookups of the page the previous lookup
    /// resolved: each is a same-page hit, which changes nothing but the
    /// lookup count.
    pub(crate) fn note_repeat_hits(&mut self, n: u64) {
        debug_assert!(self.is_present(self.last_hit), "repeat hits need a resident page");
        self.stats.lookups += n;
    }

    /// Writes both copies of an entry's WP bit (a fill or a repair).
    #[inline]
    fn write_wp_bits(&mut self, entry: usize, wp: bool) {
        let mask = 1u64 << (entry & 63);
        if wp {
            self.wp[entry >> 6] |= mask;
            self.wp_check[entry >> 6] |= mask;
        } else {
            self.wp[entry >> 6] &= !mask;
            self.wp_check[entry >> 6] &= !mask;
        }
    }

    #[inline]
    fn wp_check_bit(&self, entry: usize) -> bool {
        self.wp_check[entry >> 6] & (1u64 << (entry & 63)) != 0
    }

    #[inline]
    fn entry_of(&self, addr: u32) -> Option<usize> {
        let vpn = addr >> self.page_bits;
        let last = self.last_hit;
        if self.vpns[last] == vpn && self.is_present(last) {
            return Some(last);
        }
        self.find(vpn)
    }

    /// Flips the *primary* WP bit of `addr`'s entry, leaving the
    /// duplicate untouched — the fault injector's stale-WP-bit model
    /// against protected state. Returns `false` when the page is not
    /// resident (nothing to corrupt).
    pub fn corrupt_wp_bit(&mut self, addr: u32) -> bool {
        match self.entry_of(addr) {
            Some(entry) => {
                self.wp[entry >> 6] ^= 1u64 << (entry & 63);
                true
            }
            None => false,
        }
    }

    /// Cross-checks the two copies of `addr`'s WP bit and repairs a
    /// mismatch by re-deriving the bit from the OS boundary, exactly as
    /// a fill would. Returns `None` when the page is not resident, and
    /// otherwise `(repaired, wp)` where `wp` is the (now trustworthy)
    /// way-placement bit. Pure check on the match path; a repair is a
    /// modeled refill the caller prices at the miss penalty.
    pub fn scrub_wp(&mut self, addr: u32) -> Option<(bool, bool)> {
        let entry = self.entry_of(addr)?;
        if self.wp_bit(entry) == self.wp_check_bit(entry) {
            return Some((false, self.wp_bit(entry)));
        }
        let page_base = (addr >> self.page_bits) << self.page_bits;
        let wp = page_base.saturating_add(self.config.page_bytes) <= self.wp_limit;
        self.write_wp_bits(entry, wp);
        Some((true, wp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlb(wp_limit: u32) -> Tlb {
        Tlb::new(TlbConfig { entries: 4, page_bytes: 1024, miss_penalty: 20 }, wp_limit)
    }

    #[test]
    fn hinted_lookups_match_a_round_robin_scan() {
        // Three hot pages among a spread that overflows 32 entries and
        // collides in the hint table: every outcome equals a plain
        // fully-associative round-robin model's.
        let config = TlbConfig { entries: 32, page_bytes: 1024, miss_penalty: 20 };
        let mut t = Tlb::new(config, 40 * 1024);
        let (mut model, mut victim) = (vec![None; 32], 0);
        let mut rng = crate::rng::SplitMix64::new(0x71b);
        for _ in 0..20_000 {
            let vpn = if rng.flip() { [3, 67, 131][rng.index(3)] } else { rng.below(96) as u32 };
            let miss = !model.contains(&Some(vpn));
            if miss {
                model[victim] = Some(vpn);
                victim = (victim + 1) % model.len();
            }
            let outcome = t.lookup(vpn << 10 | rng.below(1024) as u32);
            assert_eq!((outcome.miss, outcome.wp), (miss, vpn < 40), "vpn {vpn}");
        }
        assert!(t.stats().misses > 1000 && t.stats().misses < 15_000, "{:?}", t.stats());
    }

    #[test]
    fn miss_then_hit() {
        let mut t = tlb(0);
        let first = t.lookup(0x8000);
        assert!(first.miss);
        assert_eq!(first.stall_cycles, 20);
        let second = t.lookup(0x8123);
        assert!(!second.miss, "same page");
        assert_eq!(second.stall_cycles, 0);
        assert_eq!(t.stats().lookups, 2);
        assert_eq!(t.stats().misses, 1);
    }

    #[test]
    fn wp_bit_follows_limit() {
        let mut t = tlb(0x0800); // 2 KB area: pages 0 and 1
        assert!(t.lookup(0x0000).wp);
        assert!(t.lookup(0x0400).wp);
        assert!(!t.lookup(0x0800).wp, "first page past the limit");
        assert!(!t.lookup(0x9000).wp);
    }

    #[test]
    fn capacity_eviction_round_robin() {
        let mut t = tlb(0);
        for page in 0..4u32 {
            t.lookup(page * 1024);
        }
        assert_eq!(t.stats().misses, 4);
        // A fifth page evicts the first.
        t.lookup(4 * 1024);
        let out = t.lookup(0);
        assert!(out.miss, "page 0 was evicted");
    }

    #[test]
    fn flush_forces_refills_with_new_limit() {
        let mut t = tlb(0x0400);
        assert!(t.lookup(0x0000).wp);
        assert!(!t.lookup(0x0400).wp, "page 1 is outside the 1 KB area");
        // Model the OS growing the area at run time: new limit, but the
        // stale cached entry still answers until flushed
        // (hardware-faithful: the bit is written only on fills).
        t.wp_limit = 0x0800;
        assert!(!t.lookup(0x0400).wp);
        t.flush();
        assert!(t.lookup(0x0400).wp);
    }

    #[test]
    #[should_panic(expected = "page-aligned")]
    fn unaligned_limit_rejected() {
        let _ = tlb(0x0401);
    }

    #[test]
    fn reset_zeroes_stats() {
        let mut t = tlb(0);
        t.lookup(0);
        t.reset();
        assert_eq!(t.stats().lookups, 0);
        assert!(t.lookup(0).miss);
    }

    #[test]
    fn last_hit_survives_unrelated_evictions() {
        let mut t = tlb(0x0400);
        // Fill all 4 entries; keep hitting page 3 while pages rotate in.
        for page in 0..4u32 {
            t.lookup(page * 1024);
        }
        assert!(!t.lookup(3 * 1024).miss);
        // Entry 0 (page 0) is the round-robin victim for page 4; page 3
        // must still hit afterwards with the correct wp bit.
        assert!(t.lookup(4 * 1024).miss);
        let out = t.lookup(3 * 1024);
        assert!(!out.miss);
        assert!(!out.wp);
        let out = t.lookup(0x0000);
        assert!(out.miss, "page 0 evicted");
        assert!(out.wp, "page 0 is inside the 1 KB area");
    }

    #[test]
    fn scrub_detects_and_rederives_corrupt_wp_bit() {
        let mut t = tlb(0x0400);
        assert!(t.lookup(0x0000).wp);
        assert!(!t.lookup(0x0800).wp);
        // Clean entries scrub clean.
        assert_eq!(t.scrub_wp(0x0000), Some((false, true)));
        assert_eq!(t.scrub_wp(0x0800), Some((false, false)));
        assert_eq!(t.scrub_wp(0x4000), None, "page not resident");
        // Corrupt both directions; scrub must re-derive the OS truth.
        assert!(t.corrupt_wp_bit(0x0000));
        assert!(t.corrupt_wp_bit(0x0800));
        assert_eq!(t.scrub_wp(0x0123), Some((true, true)));
        assert_eq!(t.scrub_wp(0x0933), Some((true, false)));
        // Repair is durable: the next lookup hits with the right bit.
        assert!(t.lookup(0x0000).wp);
        assert!(!t.lookup(0x0800).wp);
        assert_eq!(t.scrub_wp(0x0000), Some((false, true)));
    }

    #[test]
    fn corrupt_wp_bit_misses_nonresident_pages() {
        let mut t = tlb(0);
        assert!(!t.corrupt_wp_bit(0x8000));
        t.lookup(0x8000);
        assert!(t.corrupt_wp_bit(0x8000));
    }
}
