//! The data cache: a write-back, write-allocate CAM cache in the XScale
//! style, with the write buffer of the paper's Table 1 — dirty evictions
//! drain to memory in the background and only stall the pipeline when
//! the buffer is full. (The read-side fill buffer is subsumed by the
//! fixed miss latency in this blocking model.) The data side is
//! untouched by way-placement (the technique is I-cache only), but its
//! accesses contribute to total processor energy and therefore to the
//! ED product.

use std::collections::VecDeque;

use crate::cam::{CamArray, ReplacementPolicy};
use crate::{CacheGeometry, DCacheStats};

/// Data cache configuration.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct DCacheConfig {
    /// Geometry of the cache.
    pub geometry: CacheGeometry,
    /// Replacement policy.
    pub replacement: ReplacementPolicy,
    /// Cycles to fill a line from memory on a miss (Table 1: 50).
    pub miss_latency: u32,
    /// Extra cycles when the victim is dirty and must be written back
    /// through the write buffer before the fill completes.
    pub writeback_latency: u32,
    /// Write-buffer entries (Table 1); dirty evictions only stall when
    /// all entries are draining.
    pub write_buffer_entries: u32,
}

impl DCacheConfig {
    /// The XScale's 32 KB, 32-way data cache.
    #[must_use]
    pub fn xscale() -> DCacheConfig {
        DCacheConfig {
            geometry: CacheGeometry::new(32 * 1024, 32, 32),
            replacement: ReplacementPolicy::RoundRobin,
            miss_latency: 50,
            writeback_latency: 8,
            write_buffer_entries: 4,
        }
    }
}

/// Outcome of a data access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DataOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// Cycles beyond the pipeline's base load-use latency.
    pub stall_cycles: u32,
}

/// The address half of a data access: what the lookup found. It
/// depends only on the address stream, never on the pipeline clock,
/// so timing lanes that share one address stream can share it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DataProbe {
    /// Whether the access hit.
    pub hit: bool,
    /// Whether the fill evicted a dirty line (a writeback to buffer).
    pub evicted_dirty: bool,
}

/// The write-buffer half of a data access: the miss latency plus the
/// stall of a writeback that finds every entry still draining. Its
/// drain queue is paced by the pipeline clock, so each timing lane
/// keeps its own.
#[derive(Clone, Debug)]
pub struct WriteBuffer {
    miss_latency: u32,
    writeback_latency: u32,
    entries: usize,
    /// Cycle numbers at which in-flight writebacks finish draining.
    draining: VecDeque<u64>,
    /// Cycles stalled on misses (the `miss_stall_cycles` counter).
    stall_cycles: u64,
}

impl WriteBuffer {
    /// An empty write buffer with `config`'s latencies and depth.
    #[must_use]
    pub fn new(config: &DCacheConfig) -> WriteBuffer {
        WriteBuffer {
            miss_latency: config.miss_latency,
            writeback_latency: config.writeback_latency,
            entries: config.write_buffer_entries as usize,
            draining: VecDeque::new(),
            stall_cycles: 0,
        }
    }

    /// Cycles stalled on misses so far.
    #[must_use]
    pub fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }

    /// Empties the buffer and zeroes the stall counter.
    pub fn reset(&mut self) {
        self.draining.clear();
        self.stall_cycles = 0;
    }

    /// Times an access whose address half found `probe`, at pipeline
    /// cycle `now`.
    #[inline]
    pub fn settle(&mut self, probe: DataProbe, now: u64) -> DataOutcome {
        if probe.hit {
            return DataOutcome { hit: true, stall_cycles: 0 };
        }
        self.settle_miss(probe, now)
    }

    /// The miss half of [`WriteBuffer::settle`].
    #[inline(never)]
    fn settle_miss(&mut self, probe: DataProbe, now: u64) -> DataOutcome {
        let mut stall = self.miss_latency;
        if probe.evicted_dirty {
            stall += self.enqueue_writeback(now + u64::from(stall));
        }
        self.stall_cycles += u64::from(stall);
        DataOutcome { hit: false, stall_cycles: stall }
    }

    /// Enqueues a writeback at cycle `now`; returns the stall, which is
    /// zero unless every write-buffer entry is still draining.
    fn enqueue_writeback(&mut self, now: u64) -> u32 {
        while self.draining.front().is_some_and(|&done| done <= now) {
            self.draining.pop_front();
        }
        let mut stall = 0u32;
        let mut start = now;
        if self.draining.len() >= self.entries {
            if let Some(front) = self.draining.pop_front() {
                stall = (front - now) as u32;
                start = front;
            }
        }
        let last = self.draining.back().copied().unwrap_or(start).max(start);
        self.draining.push_back(last + u64::from(self.writeback_latency));
        stall
    }
}

/// The data cache model (placement and timing; contents live in the
/// functional memory): the address half ([`DataCache::probe`]) plus
/// one [`WriteBuffer`].
#[derive(Clone, Debug)]
pub struct DataCache {
    config: DCacheConfig,
    array: CamArray,
    /// The way each set last hit or filled, which
    /// [`DataCache::probe`] compares first: data streams revisit a few
    /// lines per set.
    recent: Vec<u32>,
    /// Address-half counters; `miss_stall_cycles` lives in `buffer`.
    stats: DCacheStats,
    buffer: WriteBuffer,
}

impl DataCache {
    /// Creates an empty data cache.
    #[must_use]
    pub fn new(config: DCacheConfig) -> DataCache {
        DataCache {
            config,
            array: CamArray::new(config.geometry, config.replacement, 0xdca4e),
            recent: vec![0; config.geometry.sets() as usize],
            stats: DCacheStats::new(),
            buffer: WriteBuffer::new(&config),
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &DCacheConfig {
        &self.config
    }

    /// Accumulated counters.
    #[must_use]
    pub fn stats(&self) -> DCacheStats {
        DCacheStats { miss_stall_cycles: self.buffer.stall_cycles, ..self.stats }
    }

    /// Resets tags, counters and the write buffer.
    pub fn reset(&mut self) {
        self.array.invalidate_all();
        self.recent.fill(0);
        self.stats = DCacheStats::new();
        self.buffer.reset();
    }

    /// [`DataCache::access_at`] with an ever-advancing internal clock —
    /// for tests and trace tools that have no pipeline clock.
    pub fn access(&mut self, addr: u32, write: bool) -> DataOutcome {
        let now = self.buffer.stall_cycles + self.stats.accesses();
        self.access_at(addr, write, now)
    }

    /// Performs a load (`write == false`) or store (`write == true`) of
    /// any width at `addr`, at pipeline cycle `now` (which paces the
    /// write buffer's background drain): [`DataCache::probe`] followed
    /// by [`WriteBuffer::settle`] on this cache's own buffer.
    pub fn access_at(&mut self, addr: u32, write: bool, now: u64) -> DataOutcome {
        let probe = self.probe(addr, write);
        self.buffer.settle(probe, now)
    }

    /// The address half of an access: lookup, fill, dirty eviction and
    /// every counter except `miss_stall_cycles`. The stall is left to a
    /// [`WriteBuffer`].
    #[inline]
    pub fn probe(&mut self, addr: u32, write: bool) -> DataProbe {
        if write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        self.stats.tag_comparisons += u64::from(self.config.geometry.ways());
        self.stats.data_accesses += 1;
        let set = self.array.set_of(addr);
        match self.array.lookup_hinted(addr, self.recent[set]) {
            Some(way) => {
                self.recent[set] = way;
                self.stats.hits += 1;
                self.array.touch(addr, way);
                if write {
                    self.array.mark_dirty(addr, way);
                }
                DataProbe { hit: true, evicted_dirty: false }
            }
            None => self.fill(addr, write),
        }
    }

    /// The miss half of [`DataCache::probe`]: victim, fill, writeback.
    #[inline(never)]
    fn fill(&mut self, addr: u32, write: bool) -> DataProbe {
        self.stats.misses += 1;
        self.stats.line_fills += 1;
        let way = self.array.pick_victim(addr);
        let outcome = self.array.fill(addr, way);
        self.recent[self.array.set_of(addr)] = way;
        if outcome.evicted_dirty {
            self.stats.writebacks += 1;
        }
        if write {
            // Write-allocate: the line is filled then written.
            self.array.mark_dirty(addr, way);
        }
        DataProbe { hit: false, evicted_dirty: outcome.evicted_dirty }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DCacheConfig {
        DCacheConfig {
            geometry: CacheGeometry::new(1024, 4, 32),
            replacement: ReplacementPolicy::RoundRobin,
            miss_latency: 50,
            writeback_latency: 8,
            write_buffer_entries: 2,
        }
    }

    #[test]
    fn recent_way_hits_are_the_full_searchs_way() {
        // Each hit the set's recent way answers must be the way a full
        // search finds, under every replacement policy.
        for replacement in [ReplacementPolicy::RoundRobin, ReplacementPolicy::Lru] {
            let mut cache = DataCache::new(DCacheConfig { replacement, ..small() });
            let mut rng = crate::rng::SplitMix64::new(0xdca);
            let mut hits = 0;
            for _ in 0..20_000 {
                let addr = rng.below(640) as u32 * 4;
                let full = cache.array.lookup(addr);
                let probe = cache.probe(addr, rng.flip());
                assert_eq!(probe.hit, full.is_some());
                if let Some(way) = full {
                    assert_eq!(cache.recent[cache.array.set_of(addr)], way);
                    hits += 1;
                }
            }
            assert!(hits > 2_000 && hits < 18_000, "{replacement:?}: {hits} hits");
        }
    }

    #[test]
    fn read_miss_then_hit() {
        let mut cache = DataCache::new(small());
        let miss = cache.access(0x2000, false);
        assert!(!miss.hit);
        assert_eq!(miss.stall_cycles, 50);
        let hit = cache.access(0x2000, false);
        assert!(hit.hit);
        assert_eq!(hit.stall_cycles, 0);
        assert_eq!(cache.stats().reads, 2);
        assert_eq!(cache.stats().line_fills, 1);
    }

    #[test]
    fn write_buffer_absorbs_isolated_writebacks() {
        let mut cache = DataCache::new(small());
        cache.access_at(0x2000, true, 0);
        assert_eq!(cache.stats().writebacks, 0);
        // Evict the dirty line: the buffer has room, so the fill pays
        // only the miss latency.
        let stride = 8 * 32; // sets * line = 256 B
        let mut max_stall = 0;
        for i in 1..=4u32 {
            let out = cache.access_at(0x2000 + i * stride, false, 1000 + u64::from(i));
            max_stall = max_stall.max(out.stall_cycles);
        }
        assert_eq!(cache.stats().writebacks, 1);
        assert_eq!(max_stall, 50, "buffered writeback must not stall");
        // Clean evictions don't write back.
        for i in 5..=8u32 {
            cache.access_at(0x2000 + i * stride, false, 2000 + u64::from(i));
        }
        assert_eq!(cache.stats().writebacks, 1);
    }

    #[test]
    fn write_buffer_stalls_when_full() {
        let mut cache = DataCache::new(small());
        let stride = 8 * 32;
        // Dirty many lines in one set (the second four evict the dirty
        // first four), then evict back-to-back at one instant: two
        // writebacks buffer for free, later ones must wait.
        for i in 0..8u32 {
            cache.access_at(0x2000 + i * stride, true, u64::from(i));
        }
        assert_eq!(cache.stats().writebacks, 4);
        let mut stalls = Vec::new();
        for i in 8..16u32 {
            let out = cache.access_at(0x2000 + i * stride, true, 100);
            stalls.push(out.stall_cycles);
        }
        assert_eq!(cache.stats().writebacks, 12);
        assert!(stalls.iter().take(2).all(|&s| s == 50), "{stalls:?}");
        assert!(stalls.iter().skip(2).any(|&s| s > 50), "{stalls:?}");
    }

    /// Lanes share the address half and keep their own write buffers:
    /// one `probe` stream settled against two diverging clocks must
    /// reproduce two independent caches stall for stall.
    #[test]
    fn shared_address_half_with_per_lane_write_buffers_matches_independent_caches() {
        let config = small();
        let stride = 8 * 32;
        let mut shared = DataCache::new(config);
        let mut lanes = [WriteBuffer::new(&config), WriteBuffer::new(&config)];
        let mut alone = [DataCache::new(config), DataCache::new(config)];
        let mut clocks = [0u64; 2];
        // Accesses arrive faster than writebacks drain on lane 0 and
        // slower on lane 1, so the two buffers fill on different
        // schedules.
        let pace = [1u64, 9];
        let mut stalled = [false; 2];
        let mut diverged = false;
        for i in 0..64u32 {
            // Writes to one set: every fill past the fourth evicts a
            // dirty line, so writebacks arrive back to back.
            let addr = 0x2000 + (i % 12) * stride;
            let probe = shared.probe(addr, i % 3 != 2);
            let mut stalls = [0u32; 2];
            for lane in 0..2 {
                let expected = alone[lane].access_at(addr, i % 3 != 2, clocks[lane]);
                let got = lanes[lane].settle(probe, clocks[lane]);
                assert_eq!(got, expected, "access {i}, lane {lane}");
                stalled[lane] |= got.stall_cycles > config.miss_latency;
                stalls[lane] = got.stall_cycles;
                clocks[lane] += pace[lane];
            }
            diverged |= stalls[0] != stalls[1];
        }
        for lane in 0..2 {
            let merged =
                DCacheStats { miss_stall_cycles: lanes[lane].stall_cycles(), ..shared.stats() };
            assert_eq!(merged, alone[lane].stats(), "lane {lane}");
        }
        assert!(stalled[0], "the fast lane must find its write buffer full");
        assert!(diverged, "the lanes' stalls must differ somewhere");
    }

    #[test]
    fn stats_track_tag_energy() {
        let mut cache = DataCache::new(small());
        cache.access(0x2000, false);
        cache.access(0x2000, true);
        assert_eq!(cache.stats().tag_comparisons, 8, "4 ways x 2 accesses");
        assert_eq!(cache.stats().data_accesses, 2);
    }

    #[test]
    fn reset_clears() {
        let mut cache = DataCache::new(small());
        cache.access(0x2000, true);
        cache.reset();
        assert_eq!(cache.stats().accesses(), 0);
        assert!(!cache.access(0x2000, false).hit);
        // The re-filled line is clean: no writeback on later eviction.
        assert_eq!(cache.stats().writebacks, 0);
    }
}
