//! The tag array shared by both caches: a CAM-tagged, set-associative
//! line store with pluggable replacement.
//!
//! This models *placement* only — which line lives in which (set, way)
//! slot. Data contents live in the functional simulator's flat memory;
//! splitting the two keeps the cache model reusable for timing and
//! energy studies, which is exactly how XTREM structures its caches.
//!
//! Storage is structure-of-arrays, mirroring the parallel
//! tag/valid/data RAMs of a hardware cache (and of the SNIPPETS
//! Verilog models): one contiguous `tags` slab, one `valid` bitset and
//! one `dirty` bitset, all indexed `set * ways + way`. A set's ways
//! are consecutive slab entries, so a full CAM search touches one or
//! two cache lines of host memory instead of chasing per-line structs,
//! and the valid bits of a whole set land in a single `u64` word
//! (ways is a power of two ≤ 64 per set-word by construction of the
//! bitset indexing).
//!
//! Each slot is also protected by a **tag parity bit**, written on
//! every fill. The fault injector's
//! [`flip_tag_bit`](CamArray::flip_tag_bit) deliberately leaves the
//! parity bit stale, so a single-bit tag flip is always caught by
//! [`tag_parity_ok`](CamArray::tag_parity_ok) the next time a protected
//! access scrubs the way it is about to trust.
//!
//! The array does not store the parity bit itself. It stores, per
//! slot, whether the check would *disagree*: whether the parity written
//! at fill no longer matches the parity of the stored tag. That is
//! exact because only four operations write `tags`: a fill writes a
//! tag together with its parity (agreement), an invalidation zeroes
//! both (agreement), and a flip changes one tag bit and so toggles the
//! tag's parity (disagreement toggles). The disagreement bit is
//! therefore "flipped an odd number of times since the fill", which is
//! precisely "stored parity ≠ parity(current tag)". A check becomes a
//! bit test, and [`parity_scrub`](CamArray::parity_scrub) checks up to
//! 64 ways of a set with two word loads instead of one popcount per
//! way.

use crate::geometry::GeometryShifts;
use crate::rng::SplitMix64;
use crate::CacheGeometry;

/// Replacement policy for non-way-placed fills.
///
/// The XScale uses round-robin; LRU and random are provided for the
/// sensitivity ablation in `wp-bench`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum ReplacementPolicy {
    /// Per-set rotating counter (the XScale's policy).
    #[default]
    RoundRobin,
    /// Least recently used.
    Lru,
    /// Uniformly random victim (deterministically seeded).
    Random,
}

/// The outcome of a fill: which way was used and which line (by base
/// address) was evicted, if any.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FillOutcome {
    /// The way the new line was placed in.
    pub way: u32,
    /// Base address of the evicted line, if a valid line was displaced.
    pub evicted: Option<u32>,
    /// Whether the evicted line was dirty (needs writeback).
    pub evicted_dirty: bool,
}

/// A set-associative tag array in structure-of-arrays layout.
#[derive(Clone, Debug)]
pub struct CamArray {
    geom: CacheGeometry,
    shifts: GeometryShifts,
    policy: ReplacementPolicy,
    /// Stored tags, indexed `set * ways + way`.
    tags: Vec<u32>,
    /// Valid bits, one per slot, packed 64 to a word.
    valid: Vec<u64>,
    /// Dirty bits, one per slot, packed 64 to a word.
    dirty: Vec<u64>,
    /// Parity-disagreement bits, one per slot: set when the tag's
    /// fill-time parity bit no longer matches the stored tag (it was
    /// flipped an odd number of times since the fill).
    disagree: Vec<u64>,
    /// LRU timestamps, indexed `set * ways + way`.
    last_use: Vec<u64>,
    round_robin: Vec<u32>,
    rng: SplitMix64,
    tick: u64,
}

#[inline]
fn bitset_words(slots: usize) -> usize {
    slots.div_ceil(64)
}

impl CamArray {
    /// Creates an empty array. `seed` only matters for
    /// [`ReplacementPolicy::Random`].
    #[must_use]
    pub fn new(geom: CacheGeometry, policy: ReplacementPolicy, seed: u64) -> CamArray {
        let slots = (geom.sets() * geom.ways()) as usize;
        CamArray {
            geom,
            shifts: geom.shifts(),
            policy,
            tags: vec![0; slots],
            valid: vec![0; bitset_words(slots)],
            dirty: vec![0; bitset_words(slots)],
            disagree: vec![0; bitset_words(slots)],
            last_use: vec![0; slots],
            round_robin: vec![0; geom.sets() as usize],
            rng: SplitMix64::new(seed),
            tick: 0,
        }
    }

    /// The geometry this array was built with.
    #[must_use]
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    #[inline]
    fn slot(&self, set: u32, way: u32) -> usize {
        (set * self.shifts.ways + way) as usize
    }

    #[inline]
    fn is_valid(&self, slot: usize) -> bool {
        self.valid[slot >> 6] & (1u64 << (slot & 63)) != 0
    }

    #[inline]
    fn set_valid(&mut self, slot: usize) {
        self.valid[slot >> 6] |= 1u64 << (slot & 63);
    }

    #[inline]
    fn is_dirty(&self, slot: usize) -> bool {
        self.dirty[slot >> 6] & (1u64 << (slot & 63)) != 0
    }

    #[inline]
    fn set_dirty_bit(&mut self, slot: usize) {
        self.dirty[slot >> 6] |= 1u64 << (slot & 63);
    }

    #[inline]
    fn clear_dirty_bit(&mut self, slot: usize) {
        self.dirty[slot >> 6] &= !(1u64 << (slot & 63));
    }

    /// The valid bits of `set`'s ways as the low bits of a word.
    ///
    /// A set's `ways` slots start at `set * ways`; because `ways` is a
    /// power of two, for `ways <= 64` that aligned run never straddles
    /// a bitset word, and for wider sets the caller-visible semantics
    /// fall back to per-slot tests.
    #[inline]
    fn set_valid_bits(&self, set: u32) -> u64 {
        let base = self.slot(set, 0);
        let ways = self.shifts.ways;
        if ways <= 64 {
            let word = self.valid[base >> 6];
            let lane = (base & 63) as u32;
            let mask = if ways == 64 { u64::MAX } else { (1u64 << ways) - 1 };
            (word >> lane) & mask
        } else {
            // Degenerate ultra-wide sets: assemble the mask slot by slot.
            (0..ways).fold(0u64, |acc, w| {
                acc | (u64::from(self.is_valid(base + w as usize)) << w.min(63))
            })
        }
    }

    /// Word `word` of `set`'s bits in the bitset `bits`: the bits of
    /// ways `64 * word ..` as the low bits of a `u64`. A set of up to 64
    /// ways is one aligned run inside a bitset word (see
    /// [`set_valid_bits`](CamArray::set_valid_bits)); a wider set is
    /// `ways / 64` whole words.
    #[inline]
    fn set_word(&self, bits: &[u64], set: u32, word: u32) -> u64 {
        let base = self.slot(set, 0) + 64 * word as usize;
        let ways = self.shifts.ways;
        if ways >= 64 {
            bits[base >> 6]
        } else {
            debug_assert_eq!(word, 0, "a set of {ways} ways has one word");
            (bits[base >> 6] >> (base & 63)) & ((1u64 << ways) - 1)
        }
    }

    /// Searches the set for `addr`'s tag; returns the way on a hit.
    /// Pure lookup — does not touch recency state.
    #[inline]
    #[must_use]
    pub fn lookup(&self, addr: u32) -> Option<u32> {
        let set = self.shifts.set_of(addr);
        let tag = self.shifts.tag_of(addr);
        let base = self.slot(set, 0);
        if self.shifts.ways <= 64 {
            // Scan only the valid ways, lowest way first — identical
            // first-way-wins order to a sequential probe.
            let mut live = self.set_valid_bits(set);
            while live != 0 {
                let way = live.trailing_zeros();
                if self.tags[base + way as usize] == tag {
                    return Some(way);
                }
                live &= live - 1;
            }
            None
        } else {
            (0..self.shifts.ways).find(|&way| {
                self.is_valid(base + way as usize) && self.tags[base + way as usize] == tag
            })
        }
    }

    /// [`lookup`](CamArray::lookup), trying way `hint` first. The answer
    /// is the same whenever no set holds one tag in two ways, which is
    /// so in an array whose fills only follow a missed lookup and whose
    /// tags no fault flips: the data cache's.
    #[inline]
    #[must_use]
    pub(crate) fn lookup_hinted(&self, addr: u32, hint: u32) -> Option<u32> {
        if self.probe_way(addr, hint) {
            Some(hint)
        } else {
            self.lookup(addr)
        }
    }

    /// The set `addr` maps to.
    #[inline]
    #[must_use]
    pub(crate) fn set_of(&self, addr: u32) -> usize {
        self.shifts.set_of(addr) as usize
    }

    /// Whether `addr`'s specific way holds `addr`'s line — the one-tag
    /// probe a way-placement access performs.
    #[inline]
    #[must_use]
    pub fn probe_way(&self, addr: u32, way: u32) -> bool {
        let set = self.shifts.set_of(addr);
        let slot = self.slot(set, way);
        self.is_valid(slot) && self.tags[slot] == self.shifts.tag_of(addr)
    }

    /// Records a use of (set, way) for LRU bookkeeping.
    #[inline]
    pub fn touch(&mut self, addr: u32, way: u32) {
        self.touch_n(addr, way, 1);
    }

    /// Records `n` consecutive uses of (set, way): the state `n` calls
    /// to [`touch`](CamArray::touch) leave behind.
    #[inline]
    pub(crate) fn touch_n(&mut self, addr: u32, way: u32, n: u64) {
        self.tick += n;
        let set = self.shifts.set_of(addr);
        let slot = self.slot(set, way);
        self.last_use[slot] = self.tick;
    }

    /// Marks the line holding `addr` in `way` dirty (write-back caches).
    #[inline]
    pub fn mark_dirty(&mut self, addr: u32, way: u32) {
        let set = self.shifts.set_of(addr);
        let slot = self.slot(set, way);
        self.set_dirty_bit(slot);
    }

    /// Picks a victim way in `addr`'s set according to the policy,
    /// preferring invalid ways.
    pub fn pick_victim(&mut self, addr: u32) -> u32 {
        let set = self.shifts.set_of(addr);
        let ways = self.shifts.ways;
        if ways <= 64 {
            let mask = if ways == 64 { u64::MAX } else { (1u64 << ways) - 1 };
            let free = !self.set_valid_bits(set) & mask;
            if free != 0 {
                return free.trailing_zeros();
            }
        } else {
            let base = self.slot(set, 0);
            if let Some(way) = (0..ways).find(|&w| !self.is_valid(base + w as usize)) {
                return way;
            }
        }
        match self.policy {
            ReplacementPolicy::RoundRobin => {
                let way = self.round_robin[set as usize];
                self.round_robin[set as usize] = (way + 1) % ways;
                way
            }
            ReplacementPolicy::Lru => {
                let base = self.slot(set, 0);
                (0..ways).min_by_key(|&w| self.last_use[base + w as usize]).unwrap_or(0)
            }
            ReplacementPolicy::Random => self.rng.below(u64::from(ways)) as u32,
        }
    }

    /// Installs `addr`'s line into `way`, returning what was evicted.
    pub fn fill(&mut self, addr: u32, way: u32) -> FillOutcome {
        self.tick += 1;
        let set = self.shifts.set_of(addr);
        let slot = self.slot(set, way);
        let was_valid = self.is_valid(slot);
        let evicted = was_valid.then(|| self.geom.addr_of(self.tags[slot], set));
        let evicted_dirty = was_valid && self.is_dirty(slot);
        let tag = self.shifts.tag_of(addr);
        self.tags[slot] = tag;
        self.set_valid(slot);
        self.clear_dirty_bit(slot);
        // The fill writes the tag's parity alongside it: they agree.
        self.disagree[slot >> 6] &= !(1u64 << (slot & 63));
        self.last_use[slot] = self.tick;
        FillOutcome { way, evicted, evicted_dirty }
    }

    /// Compares the stored parity check bit of (`set`, `way`) against
    /// the parity of the stored tag. Returns `None` for invalid slots
    /// (nothing to check), `Some(true)` when the check passes and
    /// `Some(false)` on a mismatch — i.e. the tag was corrupted after
    /// its fill.
    #[must_use]
    pub fn tag_parity_ok(&self, set: u32, way: u32) -> Option<bool> {
        let slot = self.slot(set, way);
        if !self.is_valid(slot) {
            return None;
        }
        Some(self.disagree[slot >> 6] & (1u64 << (slot & 63)) == 0)
    }

    /// Parity-checks word `word` of `set` — ways `64 * word ..` up to
    /// 64 of them — at once: returns the ways whose check fails, as
    /// bits relative to `64 * word`, and how many valid ways were
    /// checked. Equal, way for way, to calling
    /// [`tag_parity_ok`](CamArray::tag_parity_ok) on each of those ways;
    /// a set of `ways` ways has `ways.div_ceil(64)` words.
    #[must_use]
    pub(crate) fn parity_scrub(&self, set: u32, word: u32) -> (u64, u32) {
        let valid = self.set_word(&self.valid, set, word);
        (self.set_word(&self.disagree, set, word) & valid, valid.count_ones())
    }

    /// Invalidates a single slot — the recovery action for a detected
    /// tag-parity fault. The line refills through the normal miss path
    /// on its next access, which is what prices the recovery honestly.
    pub fn invalidate_slot(&mut self, set: u32, way: u32) {
        let slot = self.slot(set, way);
        self.valid[slot >> 6] &= !(1u64 << (slot & 63));
        self.dirty[slot >> 6] &= !(1u64 << (slot & 63));
        self.disagree[slot >> 6] &= !(1u64 << (slot & 63));
        self.tags[slot] = 0;
        self.last_use[slot] = 0;
    }

    /// Flips one bit of the tag stored at (`set`, `way`) — the fault
    /// injector's soft-error model. Returns `true` when a valid line
    /// was actually corrupted; invalid slots are left untouched (there
    /// is no tag to corrupt).
    pub fn flip_tag_bit(&mut self, set: u32, way: u32, bit: u32) -> bool {
        let slot = self.slot(set % self.shifts.sets, way % self.shifts.ways);
        if !self.is_valid(slot) {
            return false;
        }
        self.tags[slot] ^= 1 << (bit % self.shifts.tag_bits);
        // One flipped bit toggles the tag's parity, so it toggles
        // whether the fill-time parity bit still agrees.
        self.disagree[slot >> 6] ^= 1u64 << (slot & 63);
        true
    }

    /// Invalidates every line (e.g. between benchmark runs).
    pub fn invalidate_all(&mut self) {
        self.tags.fill(0);
        self.valid.fill(0);
        self.dirty.fill(0);
        self.disagree.fill(0);
        self.last_use.fill(0);
        self.round_robin.fill(0);
        self.tick = 0;
    }

    /// Number of currently valid lines (a popcount over the bitset).
    #[must_use]
    pub fn valid_lines(&self) -> usize {
        self.valid_popcount()
    }

    /// Popcount of the valid bitset — by construction equal to
    /// [`valid_lines`](CamArray::valid_lines); exposed separately so
    /// invariant tests can compare it against an enumeration.
    #[must_use]
    pub fn valid_popcount(&self) -> usize {
        self.valid.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over the base addresses of all resident lines, with
    /// their (set, way) position — used by invariant checks.
    pub fn resident_lines(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        let geom = self.geom;
        let ways = self.shifts.ways;
        (0..self.tags.len()).filter(|&slot| self.is_valid(slot)).map(move |slot| {
            let set = slot as u32 / ways;
            let way = slot as u32 % ways;
            (geom.addr_of(self.tags[slot], set), set, way)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheGeometry {
        // 2 sets, 4 ways, 32 B lines = 256 B (figure 1's example cache).
        CacheGeometry::new(256, 4, 32)
    }

    #[test]
    fn lookup_miss_then_hit() {
        let mut cam = CamArray::new(tiny(), ReplacementPolicy::RoundRobin, 0);
        assert_eq!(cam.lookup(0x1000), None);
        let way = cam.pick_victim(0x1000);
        cam.fill(0x1000, way);
        assert_eq!(cam.lookup(0x1000), Some(way));
        assert_eq!(cam.lookup(0x1004), Some(way), "same line");
        assert_eq!(cam.lookup(0x1040), None, "other set");
        assert_eq!(cam.valid_lines(), 1);
    }

    #[test]
    fn round_robin_cycles_through_ways() {
        let mut cam = CamArray::new(tiny(), ReplacementPolicy::RoundRobin, 0);
        // Fill the whole set, then observe the rotation.
        let set_stride = 64; // 2 sets * 32 B
        for i in 0..4u32 {
            let addr = 0x1000 + i * set_stride;
            let way = cam.pick_victim(addr);
            assert_eq!(way, i, "invalid ways first");
            cam.fill(addr, way);
        }
        let victims: Vec<u32> = (0..6).map(|_| cam.pick_victim(0x1000)).collect();
        assert_eq!(victims, vec![0, 1, 2, 3, 0, 1]);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut cam = CamArray::new(tiny(), ReplacementPolicy::Lru, 0);
        let set_stride = 64;
        for i in 0..4u32 {
            let addr = 0x1000 + i * set_stride;
            cam.fill(addr, i);
        }
        // Touch ways 0, 2, 3 — way 1 becomes LRU.
        cam.touch(0x1000, 0);
        cam.touch(0x1000 + 2 * set_stride, 2);
        cam.touch(0x1000 + 3 * set_stride, 3);
        assert_eq!(cam.pick_victim(0x1000), 1);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let picks = |seed| {
            let mut cam = CamArray::new(tiny(), ReplacementPolicy::Random, seed);
            for i in 0..4u32 {
                cam.fill(0x1000 + i * 64, i);
            }
            (0..8).map(|_| cam.pick_victim(0x1000)).collect::<Vec<u32>>()
        };
        assert_eq!(picks(7), picks(7));
    }

    #[test]
    fn fill_reports_eviction() {
        let mut cam = CamArray::new(tiny(), ReplacementPolicy::RoundRobin, 0);
        cam.fill(0x1000, 2);
        let out = cam.fill(0x2000, 2);
        assert_eq!(out.evicted, Some(0x1000));
        assert!(!out.evicted_dirty);
        assert_eq!(cam.lookup(0x1000), None);
        assert_eq!(cam.lookup(0x2000), Some(2));
    }

    #[test]
    fn dirty_eviction() {
        let mut cam = CamArray::new(tiny(), ReplacementPolicy::RoundRobin, 0);
        cam.fill(0x1000, 0);
        cam.mark_dirty(0x1000, 0);
        let out = cam.fill(0x2000, 0);
        assert!(out.evicted_dirty);
        // A refill of the same address is clean again.
        cam.fill(0x1000, 0);
        let out = cam.fill(0x2000, 0);
        assert!(!out.evicted_dirty);
    }

    #[test]
    fn probe_way_is_single_way() {
        let mut cam = CamArray::new(tiny(), ReplacementPolicy::RoundRobin, 0);
        cam.fill(0x1000, 3);
        assert!(cam.probe_way(0x1000, 3));
        assert!(!cam.probe_way(0x1000, 0));
        assert!(!cam.probe_way(0x2000, 3));
    }

    #[test]
    fn invalidate_all_clears() {
        let mut cam = CamArray::new(tiny(), ReplacementPolicy::RoundRobin, 0);
        cam.fill(0x1000, 0);
        cam.invalidate_all();
        assert_eq!(cam.valid_lines(), 0);
        assert_eq!(cam.lookup(0x1000), None);
    }

    #[test]
    fn resident_lines_enumerates() {
        let mut cam = CamArray::new(tiny(), ReplacementPolicy::RoundRobin, 0);
        cam.fill(0x1000, 1);
        cam.fill(0x1020, 2); // other set (bit 5 is the index bit)
        let mut lines: Vec<(u32, u32, u32)> = cam.resident_lines().collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![(0x1000, 0, 1), (0x1020, 1, 2)]);
    }

    #[test]
    fn popcount_tracks_enumeration() {
        let mut cam = CamArray::new(CacheGeometry::xscale_icache(), ReplacementPolicy::Lru, 3);
        let mut rng = SplitMix64::new(0x50a);
        for _ in 0..2000 {
            let addr = (rng.next_u32() >> 4) & !3;
            let way = cam.lookup(addr).unwrap_or_else(|| cam.pick_victim(addr));
            cam.fill(addr, way);
            assert_eq!(cam.valid_popcount(), cam.resident_lines().count());
        }
    }

    #[test]
    fn parity_catches_any_single_bit_flip() {
        let mut cam = CamArray::new(tiny(), ReplacementPolicy::RoundRobin, 0);
        cam.fill(0x1000, 2);
        assert_eq!(cam.tag_parity_ok(0, 2), Some(true));
        assert_eq!(cam.tag_parity_ok(0, 0), None, "invalid slot has no check");
        for bit in 0..tiny().tag_bits() {
            assert!(cam.flip_tag_bit(0, 2, bit));
            assert_eq!(cam.tag_parity_ok(0, 2), Some(false), "bit {bit}");
            assert!(cam.flip_tag_bit(0, 2, bit), "flip back");
            assert_eq!(cam.tag_parity_ok(0, 2), Some(true));
        }
    }

    #[test]
    fn refill_restores_parity() {
        let mut cam = CamArray::new(tiny(), ReplacementPolicy::RoundRobin, 0);
        cam.fill(0x1000, 1);
        cam.flip_tag_bit(0, 1, 3);
        assert_eq!(cam.tag_parity_ok(0, 1), Some(false));
        cam.fill(0x3000, 1);
        assert_eq!(cam.tag_parity_ok(0, 1), Some(true), "fill rewrites the check bit");
    }

    #[test]
    fn invalidate_slot_clears_one_line() {
        let mut cam = CamArray::new(tiny(), ReplacementPolicy::RoundRobin, 0);
        cam.fill(0x1000, 1);
        cam.fill(0x1020, 2);
        cam.mark_dirty(0x1000, 1);
        cam.invalidate_slot(0, 1);
        assert_eq!(cam.lookup(0x1000), None);
        assert_eq!(cam.lookup(0x1020), Some(2), "other set untouched");
        assert_eq!(cam.valid_lines(), 1);
        assert_eq!(cam.tag_parity_ok(0, 1), None);
        // Refilling the invalidated slot reports no (stale dirty) eviction.
        let out = cam.fill(0x2000, 1);
        assert_eq!(out.evicted, None);
        assert!(!out.evicted_dirty);
    }

    /// The disagreement bitset against an oracle that keeps its own copy
    /// of every slot's tag and fill-time parity bit and recomputes each
    /// check from them: random fills, flips, single invalidations and
    /// flushes on 1- to 128-way arrays, with every `tag_parity_ok` and
    /// every set-wide scrub word compared after every step.
    #[test]
    fn parity_bitset_matches_recomputed_parity() {
        let parity = |tag: u32| tag.count_ones() & 1 == 1;
        for ways in [1u32, 8, 32, 64, 128] {
            let geom = CacheGeometry::new(4 * ways * 32, ways, 32);
            let sets = geom.sets();
            let mut cam = CamArray::new(geom, ReplacementPolicy::RoundRobin, 0);
            // Per slot: the stored tag and the parity bit its fill wrote.
            let mut shadow: Vec<Option<(u32, bool)>> = vec![None; (sets * ways) as usize];
            let mut rng = SplitMix64::new(0x9A41_7000 + u64::from(ways));
            let mut failures_seen = 0;
            for step in 0..3000 {
                let set = rng.below(u64::from(sets)) as u32;
                let way = rng.below(u64::from(ways)) as u32;
                let slot = (set * ways + way) as usize;
                match rng.below(1000) {
                    0..=399 => {
                        let tag = rng.next_u32() >> (32 - geom.tag_bits());
                        cam.fill(geom.addr_of(tag, set), way);
                        shadow[slot] = Some((tag, parity(tag)));
                    }
                    400..=799 => {
                        let bit = rng.below(64) as u32;
                        let corrupted = cam.flip_tag_bit(set, way, bit);
                        assert_eq!(corrupted, shadow[slot].is_some(), "{ways}-way step {step}");
                        if let Some((tag, _)) = shadow[slot].as_mut() {
                            *tag ^= 1 << (bit % geom.tag_bits());
                        }
                    }
                    800..=997 => {
                        cam.invalidate_slot(set, way);
                        shadow[slot] = None;
                    }
                    _ => {
                        cam.invalidate_all();
                        shadow.fill(None);
                    }
                }
                for set in 0..sets {
                    let mut want_failed = vec![0u64; ways.div_ceil(64) as usize];
                    let mut want_checked = vec![0u32; want_failed.len()];
                    for way in 0..ways {
                        let want = shadow[(set * ways + way) as usize]
                            .map(|(tag, fill_parity)| parity(tag) == fill_parity);
                        assert_eq!(
                            cam.tag_parity_ok(set, way),
                            want,
                            "{ways}-way step {step}: set {set} way {way}"
                        );
                        let word = (way / 64) as usize;
                        want_checked[word] += u32::from(want.is_some());
                        if want == Some(false) {
                            want_failed[word] |= 1 << (way % 64);
                            failures_seen += 1;
                        }
                    }
                    for word in 0..want_failed.len() {
                        assert_eq!(
                            cam.parity_scrub(set, word as u32),
                            (want_failed[word], want_checked[word]),
                            "{ways}-way step {step}: set {set} word {word}"
                        );
                    }
                }
            }
            // The shadow tracked the array's real tags, not a model of them.
            let mut resident: Vec<(u32, u32, u32)> = cam.resident_lines().collect();
            resident.sort_unstable();
            let mut expected: Vec<(u32, u32, u32)> = (0..sets * ways)
                .filter_map(|slot| {
                    let (set, way) = (slot / ways, slot % ways);
                    shadow[slot as usize].map(|(tag, _)| (geom.addr_of(tag, set), set, way))
                })
                .collect();
            expected.sort_unstable();
            assert_eq!(resident, expected, "{ways}-way tags");
            assert!(failures_seen > 0, "{ways}-way: no parity failure was ever exercised");
        }
    }

    #[test]
    fn sixty_four_way_set_valid_bits() {
        // ways == 64 exercises the full-word mask path.
        let geom = CacheGeometry::new(64 * 32, 64, 32);
        let mut cam = CamArray::new(geom, ReplacementPolicy::RoundRobin, 0);
        for i in 0..64u32 {
            let addr = i * geom.way_span_bytes();
            let way = cam.pick_victim(addr);
            assert_eq!(way, i);
            cam.fill(addr, way);
        }
        assert_eq!(cam.valid_lines(), 64);
        for i in 0..64u32 {
            assert_eq!(cam.lookup(i * geom.way_span_bytes()), Some(i));
        }
    }
}
