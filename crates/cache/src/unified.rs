//! The *unified* architecture's cache: one LRU chain over RAM and flash
//! frames.
//!
//! From §3.3 of the paper: "RAM and flash are managed together using a
//! single LRU chain. Data blocks are placed into the least recently used
//! buffer, whether RAM or flash, and are never migrated. No attempt is made
//! to prefer RAM to flash. Here the RAM cache is not a subset of the flash."
//!
//! The chain is a chain of *frames*. A frame physically lives in one
//! medium forever; what changes is which block occupies it and where it sits
//! in the recency order. The effective capacity is the *sum* of the two
//! tiers (72 GB for the baseline 8 GB RAM + 64 GB flash), which is the
//! source of the unified architecture's read-latency advantage (§7.1).

use fcache_types::BlockAddr;

use crate::stats::CacheStats;
use crate::table::BlockTable;

/// Which physical medium a frame lives in.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Medium {
    /// DRAM frame.
    Ram,
    /// Flash frame.
    Flash,
}

/// Block evicted by a unified insert.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct UnifiedEviction {
    /// The displaced block.
    pub addr: BlockAddr,
    /// Medium it lived in (its writeback, if dirty, reads from this medium).
    pub medium: Medium,
    /// True if the caller must write the block back.
    pub dirty: bool,
}

/// Result of [`UnifiedCache::insert`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct UnifiedInsert {
    /// Medium of the frame the new block landed in (the write/fill pays
    /// this medium's latency).
    pub medium: Medium,
    /// Block displaced from that frame, if it held one.
    pub evicted: Option<UnifiedEviction>,
    /// True if the block was already cached (promoted in place; `medium` is
    /// the frame it already occupied).
    pub already_present: bool,
}

/// One LRU chain over RAM + flash frames.
///
/// # Examples
///
/// ```
/// use fcache_cache::{Medium, UnifiedCache};
/// use fcache_types::{BlockAddr, FileId};
///
/// // 1 RAM frame + 3 flash frames = capacity 4.
/// let mut c = UnifiedCache::new(1, 3);
/// assert_eq!(c.capacity(), 4);
/// let ins = c.insert(BlockAddr::new(FileId(0), 0), false);
/// assert!(ins.evicted.is_none());
/// ```
pub struct UnifiedCache {
    /// One node per frame, listed for the cache's lifetime; a frame's
    /// medium is its node's flash flag, a free frame is a vacant node, and
    /// only occupied frames are indexed (see `table.rs` and `PERF.md`).
    table: BlockTable,
    ram_frames: usize,
    flash_frames: usize,
    stats: CacheStats,
}

impl UnifiedCache {
    /// Creates a unified cache with the given frame counts.
    ///
    /// Free frames are seeded at the LRU end, interleaved proportionally
    /// (roughly one RAM frame per `flash/ram` flash frames) so that fills
    /// draw from both media in the steady-state ratio rather than consuming
    /// one medium wholesale first. "No attempt is made to prefer RAM to
    /// flash" (§3.3).
    pub fn new(ram_frames: usize, flash_frames: usize) -> Self {
        let total = ram_frames + flash_frames;
        let mut table = BlockTable::new(total);
        // Interleave: walk both tallies with an error accumulator
        // (Bresenham-style) for a deterministic proportional mix.
        let mut ram_left = ram_frames;
        let mut flash_left = flash_frames;
        let mut acc: i64 = 0;
        for _ in 0..total {
            let medium = if ram_left == 0 {
                Medium::Flash
            } else if flash_left == 0 {
                Medium::Ram
            } else {
                acc += ram_frames as i64;
                if acc >= total as i64 {
                    acc -= total as i64;
                    Medium::Ram
                } else {
                    Medium::Flash
                }
            };
            match medium {
                Medium::Ram => ram_left -= 1,
                Medium::Flash => flash_left -= 1,
            }
            let id = table.push_back(0, medium == Medium::Flash);
            table.set_vacant(id, true);
        }
        Self {
            table,
            ram_frames,
            flash_frames,
            stats: CacheStats::default(),
        }
    }

    /// Total frame count (RAM + flash) — the effective capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.ram_frames + self.flash_frames
    }

    /// RAM frame count.
    pub fn ram_frames(&self) -> usize {
        self.ram_frames
    }

    /// Flash frame count.
    pub fn flash_frames(&self) -> usize {
        self.flash_frames
    }

    /// Number of blocks currently cached.
    pub fn len(&self) -> usize {
        self.table.indexed()
    }

    /// True if no blocks are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of dirty blocks.
    pub fn dirty_len(&self) -> usize {
        self.table.dirty_len()
    }

    /// Heap bytes of the cache's block index and frame slab, as allocated
    /// (a deterministic memory cost: it depends on the frame counts only,
    /// up to `2^22` frames).
    pub fn heap_bytes(&self) -> usize {
        self.table.heap_bytes()
    }

    /// Statistics counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets the statistics counters.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn medium(&self, id: u32) -> Medium {
        if self.table.is_flash(id) {
            Medium::Flash
        } else {
            Medium::Ram
        }
    }

    /// Looks a block up; on a hit promotes its frame and returns the medium
    /// (the read pays that medium's latency).
    pub fn lookup(&mut self, addr: BlockAddr) -> Option<Medium> {
        match self.table.get(addr.to_u64()) {
            Some(id) => {
                self.table.touch(id);
                self.stats.hits += 1;
                Some(self.medium(id))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// True if the block is cached; no promotion, no statistics.
    pub fn contains(&self, addr: BlockAddr) -> bool {
        self.table.get(addr.to_u64()).is_some()
    }

    /// Medium of a cached block without promoting it.
    pub fn medium_of(&self, addr: BlockAddr) -> Option<Medium> {
        self.table.get(addr.to_u64()).map(|id| self.medium(id))
    }

    /// True if the block is cached and dirty.
    pub fn is_dirty(&self, addr: BlockAddr) -> bool {
        self.table
            .get(addr.to_u64())
            .is_some_and(|id| self.table.is_dirty(id))
    }

    /// Inserts (or overwrites) a block.
    ///
    /// A new block takes the least-recently-used *frame*, whatever medium
    /// it is, displacing that frame's previous occupant. An existing block
    /// is promoted in place (blocks never migrate between media).
    pub fn insert(&mut self, addr: BlockAddr, dirty: bool) -> UnifiedInsert {
        let key = addr.to_u64();
        let slot = match self.table.find(key) {
            Ok((_, id)) => {
                self.table.touch(id);
                if dirty {
                    self.stats.overwrites += 1;
                    self.table.set_dirty(id, true);
                }
                return UnifiedInsert {
                    medium: self.medium(id),
                    evicted: None,
                    already_present: true,
                };
            }
            Err(slot) => slot,
        };

        let victim = self
            .table
            .back()
            .expect("unified cache has at least one frame");
        let medium = self.medium(victim);
        let evicted = if self.table.is_vacant(victim) {
            self.table.set_vacant(victim, false);
            None
        } else {
            Some(UnifiedEviction {
                addr: BlockAddr::from_u64(self.table.key(victim)),
                medium,
                dirty: self.table.is_dirty(victim),
            })
        };
        self.table.index_at(slot, key, victim);
        if let Some(ev) = &evicted {
            self.table.unindex(ev.addr.to_u64(), victim);
            if ev.dirty {
                self.stats.dirty_evictions += 1;
            } else {
                self.stats.clean_evictions += 1;
            }
        }
        self.table.touch(victim);
        self.table.set_dirty(victim, dirty);
        self.stats.insertions += 1;
        UnifiedInsert {
            medium,
            evicted,
            already_present: false,
        }
    }

    /// Marks a cached block clean (after its writeback completes).
    pub fn mark_clean(&mut self, addr: BlockAddr) -> bool {
        match self.table.get(addr.to_u64()) {
            Some(id) => {
                self.table.set_dirty(id, false);
                true
            }
            None => false,
        }
    }

    /// Removes a block (consistency invalidation). The frame stays in the
    /// chain as a free frame at its current recency position.
    pub fn remove(&mut self, addr: BlockAddr) -> Option<UnifiedEviction> {
        let (slot, id) = self.table.find(addr.to_u64()).ok()?;
        let dirty = self.table.is_dirty(id);
        self.table.unindex_slot(slot);
        self.table.set_dirty(id, false);
        self.table.set_vacant(id, true);
        self.stats.invalidations += 1;
        Some(UnifiedEviction {
            addr,
            medium: self.medium(id),
            dirty,
        })
    }

    /// Dirty frames' blocks and media, unsorted.
    fn dirty_frames(&self) -> impl Iterator<Item = (BlockAddr, Medium)> + '_ {
        self.table
            .dirty()
            .map(|id| (BlockAddr::from_u64(self.table.key(id)), self.medium(id)))
    }

    /// Appends dirty blocks living in `medium` to `out`, sorted by address
    /// (deterministic flush order). Caller-owned buffer: periodic syncers
    /// reuse one allocation across ticks.
    pub fn dirty_blocks_of_into(&self, medium: Medium, out: &mut Vec<BlockAddr>) {
        let start = out.len();
        out.extend(
            self.dirty_frames()
                .filter(|&(_, m)| m == medium)
                .map(|(a, _)| a),
        );
        out[start..].sort_unstable();
    }

    /// Snapshot of dirty blocks and the medium each lives in, sorted by
    /// address (allocating convenience wrapper; the syncers use
    /// [`UnifiedCache::dirty_blocks_of_into`]).
    pub fn dirty_blocks(&self) -> Vec<(BlockAddr, Medium)> {
        let mut v: Vec<(BlockAddr, Medium)> = self.dirty_frames().collect();
        v.sort_unstable_by_key(|(a, _)| *a);
        v
    }

    /// Verifies internal invariants; test support.
    ///
    /// # Panics
    ///
    /// Panics if frame accounting, the index or the dirty set is
    /// inconsistent.
    pub fn check_invariants(&self) {
        self.table.check();
        assert_eq!(
            self.table.listed(),
            self.capacity(),
            "frame count must never change"
        );
        let mut flash = 0;
        let mut occupied = 0;
        for id in self.table.iter() {
            flash += usize::from(self.table.is_flash(id));
            if self.table.is_vacant(id) {
                assert!(!self.table.is_dirty(id), "free frame cannot be dirty");
            } else {
                occupied += 1;
                assert_eq!(
                    self.table.get(self.table.key(id)),
                    Some(id),
                    "occupied frame not indexed at its node"
                );
            }
        }
        assert_eq!(flash, self.flash_frames, "flash frames leaked");
        assert_eq!(occupied, self.len(), "index size mismatch");
    }
}

impl std::fmt::Debug for UnifiedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UnifiedCache")
            .field("ram_frames", &self.ram_frames)
            .field("flash_frames", &self.flash_frames)
            .field("len", &self.len())
            .field("dirty", &self.dirty_len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcache_types::FileId;

    fn addr(n: u32) -> BlockAddr {
        BlockAddr::new(FileId(0), n)
    }

    #[test]
    fn capacity_is_sum_of_tiers() {
        let c = UnifiedCache::new(2, 16);
        assert_eq!(c.capacity(), 18);
        assert_eq!(c.ram_frames(), 2);
        assert_eq!(c.flash_frames(), 16);
        c.check_invariants();
    }

    #[test]
    fn fills_both_media_proportionally() {
        let mut c = UnifiedCache::new(2, 16);
        let mut ram = 0;
        for i in 0..9 {
            let ins = c.insert(addr(i), false);
            assert!(!ins.already_present);
            assert!(ins.evicted.is_none());
            if ins.medium == Medium::Ram {
                ram += 1;
            }
        }
        // Half the cache filled: roughly half the RAM frames used, i.e. the
        // interleave mixed RAM in rather than front- or back-loading it.
        assert_eq!(ram, 1, "expected ~1 of 2 RAM frames after 9 of 18 fills");
        c.check_invariants();
    }

    #[test]
    fn blocks_never_migrate() {
        let mut c = UnifiedCache::new(1, 3);
        c.insert(addr(0), false);
        let m0 = c.medium_of(addr(0)).unwrap();
        for i in 1..4 {
            c.insert(addr(i), false);
        }
        // Promote block 0 many times; medium must not change.
        for _ in 0..10 {
            assert_eq!(c.lookup(addr(0)), Some(m0));
        }
        c.check_invariants();
    }

    #[test]
    fn full_cache_evicts_lru_frame_occupant() {
        let mut c = UnifiedCache::new(1, 2);
        c.insert(addr(0), false);
        c.insert(addr(1), false);
        c.insert(addr(2), true);
        // All frames full; LRU block is 0.
        let ins = c.insert(addr(3), false);
        let ev = ins.evicted.expect("must evict");
        assert_eq!(ev.addr, addr(0));
        assert!(!ev.dirty);
        // New block landed in the frame block 0 occupied.
        assert_eq!(ins.medium, ev.medium);
        c.check_invariants();
    }

    #[test]
    fn dirty_eviction_reports_medium_and_dirty() {
        let mut c = UnifiedCache::new(0, 1);
        c.insert(addr(0), true);
        let ins = c.insert(addr(1), false);
        let ev = ins.evicted.unwrap();
        assert_eq!(ev.addr, addr(0));
        assert_eq!(ev.medium, Medium::Flash);
        assert!(ev.dirty);
        assert_eq!(c.stats().dirty_evictions, 1);
        c.check_invariants();
    }

    #[test]
    fn overwrite_in_place_keeps_medium() {
        let mut c = UnifiedCache::new(1, 1);
        let first = c.insert(addr(0), false);
        let again = c.insert(addr(0), true);
        assert!(again.already_present);
        assert_eq!(again.medium, first.medium);
        assert!(c.is_dirty(addr(0)));
        assert_eq!(c.len(), 1);
        c.check_invariants();
    }

    #[test]
    fn remove_frees_frame_without_losing_it() {
        let mut c = UnifiedCache::new(1, 1);
        c.insert(addr(0), true);
        c.insert(addr(1), false);
        let ev = c.remove(addr(0)).unwrap();
        assert!(ev.dirty);
        assert_eq!(c.len(), 1);
        assert_eq!(c.capacity(), 2);
        // The freed frame is reused by the next insert without eviction.
        let ins = c.insert(addr(2), false);
        assert!(ins.evicted.is_none() || ins.evicted.unwrap().addr != addr(0));
        c.check_invariants();
    }

    #[test]
    fn mark_clean_clears_dirty() {
        let mut c = UnifiedCache::new(1, 1);
        c.insert(addr(0), true);
        assert_eq!(c.dirty_len(), 1);
        assert!(c.mark_clean(addr(0)));
        assert_eq!(c.dirty_len(), 0);
        assert!(!c.mark_clean(addr(5)));
        c.check_invariants();
    }

    #[test]
    fn steady_state_insert_medium_ratio_tracks_frame_ratio() {
        // 1:8 RAM:flash — like the paper's 8 GB RAM + 64 GB flash. In steady
        // state (cache full, uniform random access) roughly 8/9 of new
        // inserts should land in flash (source of the 8/9 × flash-write
        // latency result in §7.1).
        let mut c = UnifiedCache::new(64, 512);
        let mut n = 0u32;
        // Fill.
        for _ in 0..c.capacity() {
            c.insert(addr(n), false);
            n += 1;
        }
        let mut flash_hits = 0;
        let total = 2000;
        for _ in 0..total {
            let ins = c.insert(addr(n), false);
            n += 1;
            assert!(ins.evicted.is_some());
            if ins.medium == Medium::Flash {
                flash_hits += 1;
            }
        }
        let frac = flash_hits as f64 / total as f64;
        assert!(
            (frac - 8.0 / 9.0).abs() < 0.05,
            "flash placement fraction {frac} should be near 8/9"
        );
        c.check_invariants();
    }

    #[test]
    fn dirty_blocks_reports_media() {
        let mut c = UnifiedCache::new(1, 1);
        c.insert(addr(0), true);
        c.insert(addr(1), true);
        let mut media: Vec<_> = c.dirty_blocks().into_iter().map(|(_, m)| m).collect();
        media.sort_by_key(|m| *m == Medium::Flash);
        assert_eq!(media, vec![Medium::Ram, Medium::Flash]);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::VecDeque;

        /// Eleven blocks in each of three files, one of them with the top
        /// file-id bit set.
        fn key() -> impl Strategy<Value = BlockAddr> {
            (0usize..3, 0u32..11)
                .prop_map(|(f, b)| BlockAddr::new(FileId([0, 1, 0x8000_0003][f]), b))
        }

        /// Reference model of one frame of the chain. Its medium is learned
        /// when the first block lands in it and must never change.
        #[derive(Clone, Copy, Debug)]
        struct Frame {
            medium: Option<Medium>,
            block: Option<BlockAddr>,
            dirty: bool,
        }

        /// Checks a reported medium against the frame's learned one.
        fn learn(frame: &mut Frame, got: Medium) -> Result<(), TestCaseError> {
            prop_assert_eq!(*frame.medium.get_or_insert(got), got);
            Ok(())
        }

        // The frame chain as a VecDeque, front = MRU: lookups and inserts
        // promote, a new block takes the LRU frame whatever it holds, a
        // removal frees the frame where it stands.
        proptest! {
            #[test]
            fn invariants_hold_under_random_ops(
                ram in 0usize..4,
                flash in 1usize..12,
                ops in proptest::collection::vec((key(), any::<bool>(), 0u8..4), 0..300),
            ) {
                let mut c = UnifiedCache::new(ram, flash);
                let free = Frame { medium: None, block: None, dirty: false };
                let mut chain: VecDeque<Frame> = std::iter::repeat_n(free, ram + flash).collect();
                for (k, d, sel) in ops {
                    let at = chain.iter().position(|f| f.block == Some(k));
                    match sel {
                        0 => {
                            let got = c.lookup(k);
                            prop_assert_eq!(got.is_some(), at.is_some());
                            if let Some(p) = at {
                                let f = chain.remove(p).unwrap();
                                prop_assert_eq!(got, f.medium);
                                chain.push_front(f);
                            }
                        }
                        1 => {
                            let ins = c.insert(k, d);
                            prop_assert_eq!(ins.already_present, at.is_some());
                            let mut f = match at {
                                Some(p) => {
                                    let mut f = chain.remove(p).unwrap();
                                    f.dirty |= d;
                                    prop_assert!(ins.evicted.is_none());
                                    f
                                }
                                None => {
                                    let f = chain.pop_back().unwrap();
                                    prop_assert_eq!(
                                        ins.evicted.map(|e| (e.addr, e.medium, e.dirty)),
                                        f.block.map(|b| (b, ins.medium, f.dirty))
                                    );
                                    Frame { block: Some(k), dirty: d, ..f }
                                }
                            };
                            learn(&mut f, ins.medium)?;
                            chain.push_front(f);
                        }
                        2 => {
                            let got = c.remove(k);
                            match at {
                                Some(p) => {
                                    let f = &mut chain[p];
                                    prop_assert_eq!(
                                        got.map(|e| (e.addr, Some(e.medium), e.dirty)),
                                        Some((k, f.medium, f.dirty))
                                    );
                                    (f.block, f.dirty) = (None, false);
                                }
                                None => prop_assert_eq!(got, None),
                            }
                        }
                        _ => {
                            prop_assert_eq!(c.mark_clean(k), at.is_some());
                            if let Some(p) = at {
                                chain[p].dirty = false;
                            }
                        }
                    }
                    c.check_invariants();
                    let held: Vec<&Frame> = chain.iter().filter(|f| f.block.is_some()).collect();
                    prop_assert_eq!(c.len(), held.len());
                    let mut dirty: Vec<(BlockAddr, Medium)> = held
                        .iter()
                        .filter(|f| f.dirty)
                        .map(|f| (f.block.unwrap(), f.medium.unwrap()))
                        .collect();
                    dirty.sort_unstable_by_key(|&(a, _)| a);
                    prop_assert_eq!(c.dirty_blocks(), dirty);
                    for f in held {
                        prop_assert_eq!(c.medium_of(f.block.unwrap()), f.medium);
                    }
                    for m in [Medium::Ram, Medium::Flash] {
                        let learned = chain.iter().filter(|f| f.medium == Some(m)).count();
                        let frames = if m == Medium::Ram { ram } else { flash };
                        prop_assert!(learned <= frames, "{m:?} frames over-learned");
                    }
                }
            }

            #[test]
            fn media_never_change_for_resident_blocks(
                ops in proptest::collection::vec((0u32..16, any::<bool>()), 1..200),
            ) {
                let mut c = UnifiedCache::new(2, 6);
                let mut known: std::collections::HashMap<u32, Medium> = Default::default();
                for (k, d) in ops {
                    let before = c.medium_of(addr(k));
                    let ins = c.insert(addr(k), d);
                    if let Some(ev) = ins.evicted {
                        known.remove(&ev.addr.block);
                    }
                    if let Some(m) = before {
                        prop_assert!(ins.already_present);
                        prop_assert_eq!(ins.medium, m);
                    }
                    known.insert(k, ins.medium);
                    prop_assert_eq!(c.medium_of(addr(k)), Some(ins.medium));
                }
            }
        }
    }
}
