//! Single-tier block cache with dirty tracking.
//!
//! Used for the RAM cache everywhere and for the flash cache in the *naive*
//! and *lookaside* architectures. The cache is a timing-free data
//! structure; the simulator charges device/network time around each
//! transition and performs the actual writeback I/O for dirty evictions.
//!
//! The paper fixes the replacement policy: "we put aside other relevant
//! but secondary considerations, such as cache replacement policy (we use
//! LRU)" (§1). [`EvictionPolicy::Lru`] is therefore the default; FIFO and
//! CLOCK (second chance) are provided for the replacement-policy ablation.

use fcache_types::BlockAddr;

use crate::stats::CacheStats;
use crate::table::BlockTable;

/// Replacement policy of a [`BlockCache`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum EvictionPolicy {
    /// Least recently used — the paper's policy and the default.
    #[default]
    Lru,
    /// Insertion order; hits do not affect eviction order.
    Fifo,
    /// CLOCK / second chance: hits set a reference bit; eviction rotates
    /// past referenced entries, clearing their bits.
    Clock,
}

/// What `insert` had to evict, if anything.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Eviction {
    /// The block that was evicted.
    pub addr: BlockAddr,
    /// True if the block was dirty: the caller must write it to the next
    /// level before the data is lost ("synchronous evictions once the
    /// cache fills", §7.1).
    pub dirty: bool,
}

/// Result of [`BlockCache::insert`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InsertOutcome {
    /// The block was already cached; it was promoted (and possibly
    /// re-dirtied).
    AlreadyPresent,
    /// Inserted into a free slot.
    Inserted,
    /// Inserted; the returned victim was evicted to make room.
    InsertedEvicting(Eviction),
    /// The cache has zero capacity; nothing was stored.
    ZeroCapacity,
}

/// A fixed-capacity LRU cache of 4 KB blocks with dirty tracking.
///
/// # Examples
///
/// ```
/// use fcache_cache::{BlockCache, InsertOutcome};
/// use fcache_types::{BlockAddr, FileId};
///
/// let mut c = BlockCache::new(2);
/// let a = BlockAddr::new(FileId(1), 0);
/// let b = BlockAddr::new(FileId(1), 1);
/// let d = BlockAddr::new(FileId(1), 2);
/// assert_eq!(c.insert(a, false), InsertOutcome::Inserted);
/// assert_eq!(c.insert(b, false), InsertOutcome::Inserted);
/// assert!(c.lookup(a)); // promotes `a`
/// match c.insert(d, false) {
///     InsertOutcome::InsertedEvicting(ev) => assert_eq!(ev.addr, b),
///     other => panic!("unexpected {other:?}"),
/// }
/// ```
pub struct BlockCache {
    capacity: usize,
    policy: EvictionPolicy,
    /// Block index, LRU order and dirty list in one compact table (see
    /// `table.rs` and `PERF.md`); the dirty bit lives in the node.
    table: BlockTable,
    stats: CacheStats,
}

impl BlockCache {
    /// Creates a cache holding at most `capacity_blocks` blocks.
    ///
    /// A capacity of zero models "no cache at this tier": every lookup
    /// misses and inserts are dropped.
    pub fn new(capacity_blocks: usize) -> Self {
        Self::with_policy(capacity_blocks, EvictionPolicy::Lru)
    }

    /// Creates a cache with an explicit replacement policy (ablation use;
    /// the paper's caches are LRU).
    pub fn with_policy(capacity_blocks: usize, policy: EvictionPolicy) -> Self {
        Self {
            capacity: capacity_blocks,
            policy,
            table: BlockTable::new(capacity_blocks),
            stats: CacheStats::default(),
        }
    }

    /// Replacement policy in force.
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// Applies the policy's on-reference behavior to a resident node.
    #[inline]
    fn reference(&mut self, id: u32) {
        match self.policy {
            EvictionPolicy::Lru => self.table.touch(id),
            EvictionPolicy::Fifo => {}
            EvictionPolicy::Clock => self.table.set_referenced(id, true),
        }
    }

    /// Selects the eviction victim per the policy without unlinking it.
    fn select_victim(&mut self) -> u32 {
        let back = |t: &BlockTable| t.back().expect("full cache has a victim");
        match self.policy {
            EvictionPolicy::Lru | EvictionPolicy::Fifo => back(&self.table),
            EvictionPolicy::Clock => {
                // Second chance: rotate referenced entries to the front,
                // clearing their bit; evict the first unreferenced one.
                // Terminates: each rotation clears one bit.
                loop {
                    let id = back(&self.table);
                    if !self.table.referenced(id) {
                        return id;
                    }
                    self.table.set_referenced(id, false);
                    self.table.touch(id);
                }
            }
        }
    }

    /// Maximum block count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current block count.
    pub fn len(&self) -> usize {
        self.table.indexed()
    }

    /// True if no blocks are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when every slot is occupied.
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    /// Number of dirty blocks.
    pub fn dirty_len(&self) -> usize {
        self.table.dirty_len()
    }

    /// Heap bytes of the cache's block index and node slab, as allocated
    /// (a deterministic memory cost: it depends on the capacity only, up
    /// to `2^22` blocks).
    pub fn heap_bytes(&self) -> usize {
        self.table.heap_bytes()
    }

    /// Statistics counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets the statistics counters (cache contents are untouched).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Looks a block up, promoting it to MRU on a hit.
    pub fn lookup(&mut self, addr: BlockAddr) -> bool {
        match self.table.get(addr.to_u64()) {
            Some(id) => {
                self.reference(id);
                self.stats.hits += 1;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// True if the block is cached; no promotion, no statistics.
    pub fn contains(&self, addr: BlockAddr) -> bool {
        self.table.get(addr.to_u64()).is_some()
    }

    /// Promotes a block *without* counting a hit or miss (the promotion
    /// itself follows the replacement policy's reference behavior).
    ///
    /// Used for inclusive-cache maintenance: a RAM hit promotes the flash
    /// copy so the flash LRU order stays a superset of RAM recency and the
    /// naive/lookaside subset property holds. Returns false if absent.
    pub fn promote(&mut self, addr: BlockAddr) -> bool {
        match self.table.get(addr.to_u64()) {
            Some(id) => {
                self.reference(id);
                true
            }
            None => false,
        }
    }

    /// True if the block is cached and dirty.
    pub fn is_dirty(&self, addr: BlockAddr) -> bool {
        self.table
            .get(addr.to_u64())
            .is_some_and(|id| self.table.is_dirty(id))
    }

    /// Inserts (or overwrites) a block, promoting it to MRU.
    ///
    /// If the block is present it stays present; `dirty = true` marks it
    /// dirty (a clean insert never cleans an existing dirty block — data
    /// freshness wins). If the cache is full the LRU block is evicted and
    /// returned so the caller can write it back if dirty.
    pub fn insert(&mut self, addr: BlockAddr, dirty: bool) -> InsertOutcome {
        let key = addr.to_u64();
        let slot = match self.table.find(key) {
            Ok((_, id)) => {
                self.reference(id);
                if dirty {
                    self.stats.overwrites += 1;
                    self.table.set_dirty(id, true);
                }
                return InsertOutcome::AlreadyPresent;
            }
            Err(slot) => slot,
        };
        if self.capacity == 0 {
            return InsertOutcome::ZeroCapacity;
        }

        let outcome = if self.len() >= self.capacity {
            // Recycle the victim's node in place: index the new key in the
            // slot the miss found, then drop the victim's key.
            let victim = self.select_victim();
            let old = self.table.key(victim);
            let was_dirty = self.table.is_dirty(victim);
            if was_dirty {
                self.stats.dirty_evictions += 1;
            } else {
                self.stats.clean_evictions += 1;
            }
            self.table.index_at(slot, key, victim);
            self.table.unindex(old, victim);
            self.table.touch(victim);
            self.table.set_dirty(victim, dirty);
            InsertOutcome::InsertedEvicting(Eviction {
                addr: BlockAddr::from_u64(old),
                dirty: was_dirty,
            })
        } else {
            let id = self.table.push_front(key, false);
            self.table.index_at(slot, key, id);
            self.table.set_dirty(id, dirty);
            InsertOutcome::Inserted
        };
        self.stats.insertions += 1;
        outcome
    }

    /// Marks a cached block dirty (no promotion). Returns false if absent.
    pub fn mark_dirty(&mut self, addr: BlockAddr) -> bool {
        self.set_dirty(addr, true)
    }

    /// Marks a cached block clean (after a completed writeback).
    /// Returns false if the block is absent.
    pub fn mark_clean(&mut self, addr: BlockAddr) -> bool {
        self.set_dirty(addr, false)
    }

    fn set_dirty(&mut self, addr: BlockAddr, dirty: bool) -> bool {
        match self.table.get(addr.to_u64()) {
            Some(id) => {
                self.table.set_dirty(id, dirty);
                true
            }
            None => false,
        }
    }

    /// Removes a block (cache-consistency invalidation or subset
    /// maintenance). Returns whether it was present and whether dirty.
    pub fn remove(&mut self, addr: BlockAddr) -> Option<Eviction> {
        let (slot, id) = self.table.find(addr.to_u64()).ok()?;
        let dirty = self.table.is_dirty(id);
        self.table.unindex_slot(slot);
        self.table.remove(id);
        self.stats.invalidations += 1;
        Some(Eviction { addr, dirty })
    }

    /// Address and dirtiness of the current LRU block, if any.
    pub fn peek_lru(&self) -> Option<Eviction> {
        let id = self.table.back()?;
        Some(Eviction {
            addr: BlockAddr::from_u64(self.table.key(id)),
            dirty: self.table.is_dirty(id),
        })
    }

    /// Appends all dirty block addresses to `out`, sorted by address.
    ///
    /// The syncer uses this to flush: it iterates the snapshot, writing each
    /// block to the next level and marking it clean on completion. Taking a
    /// caller-owned buffer lets periodic flushers reuse one allocation
    /// across ticks instead of churning the allocator. The sort keeps flush
    /// order deterministic and independent of the dirty list's order.
    pub fn dirty_blocks_into(&self, out: &mut Vec<BlockAddr>) {
        let start = out.len();
        out.reserve(self.dirty_len());
        out.extend(
            self.table
                .dirty()
                .map(|id| BlockAddr::from_u64(self.table.key(id))),
        );
        out[start..].sort_unstable();
    }

    /// Snapshot of all dirty block addresses, sorted by address
    /// (allocating convenience wrapper over [`BlockCache::dirty_blocks_into`]).
    pub fn dirty_blocks(&self) -> Vec<BlockAddr> {
        let mut v = Vec::with_capacity(self.dirty_len());
        self.dirty_blocks_into(&mut v);
        v
    }

    /// Iterates cached blocks from MRU to LRU (test/diagnostic use).
    pub fn iter_mru(&self) -> impl Iterator<Item = (BlockAddr, bool)> + '_ {
        self.table.iter().map(|id| {
            (
                BlockAddr::from_u64(self.table.key(id)),
                self.table.is_dirty(id),
            )
        })
    }

    /// Verifies internal invariants; test support.
    ///
    /// # Panics
    ///
    /// Panics if the index, LRU list, and dirty list disagree.
    pub fn check_invariants(&self) {
        self.table.check();
        assert_eq!(
            self.table.indexed(),
            self.table.listed(),
            "index/lru size mismatch"
        );
        assert!(self.len() <= self.capacity, "over capacity");
        for id in self.table.iter() {
            assert_eq!(
                self.table.get(self.table.key(id)),
                Some(id),
                "lru block not indexed at its node"
            );
        }
    }
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache")
            .field("capacity", &self.capacity)
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
    fn miss_then_hit() {
        let mut c = BlockCache::new(4);
        assert!(!c.lookup(addr(1)));
        c.insert(addr(1), false);
        assert!(c.lookup(addr(1)));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        c.check_invariants();
    }

    #[test]
    fn eviction_order_is_lru() {
        let mut c = BlockCache::new(3);
        c.insert(addr(1), false);
        c.insert(addr(2), false);
        c.insert(addr(3), false);
        assert!(c.lookup(addr(1))); // 1 promoted; LRU is 2
        match c.insert(addr(4), false) {
            InsertOutcome::InsertedEvicting(ev) => {
                assert_eq!(ev.addr, addr(2));
                assert!(!ev.dirty);
            }
            other => panic!("unexpected {other:?}"),
        }
        c.check_invariants();
    }

    #[test]
    fn dirty_eviction_reports_dirty() {
        let mut c = BlockCache::new(1);
        c.insert(addr(1), true);
        match c.insert(addr(2), false) {
            InsertOutcome::InsertedEvicting(ev) => {
                assert_eq!(ev.addr, addr(1));
                assert!(ev.dirty);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.stats().dirty_evictions, 1);
        assert_eq!(c.dirty_len(), 0);
        c.check_invariants();
    }

    #[test]
    fn overwrite_marks_dirty_and_promotes() {
        let mut c = BlockCache::new(2);
        c.insert(addr(1), false);
        c.insert(addr(2), false);
        assert_eq!(c.insert(addr(1), true), InsertOutcome::AlreadyPresent);
        assert!(c.is_dirty(addr(1)));
        // 1 is MRU now, so inserting 3 evicts 2.
        match c.insert(addr(3), false) {
            InsertOutcome::InsertedEvicting(ev) => assert_eq!(ev.addr, addr(2)),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.stats().overwrites, 1);
        c.check_invariants();
    }

    #[test]
    fn clean_insert_does_not_clean_dirty_block() {
        let mut c = BlockCache::new(2);
        c.insert(addr(1), true);
        assert_eq!(c.insert(addr(1), false), InsertOutcome::AlreadyPresent);
        assert!(c.is_dirty(addr(1)), "refetch must not lose dirtiness");
    }

    #[test]
    fn mark_clean_and_dirty_roundtrip() {
        let mut c = BlockCache::new(2);
        c.insert(addr(1), true);
        assert_eq!(c.dirty_len(), 1);
        assert!(c.mark_clean(addr(1)));
        assert_eq!(c.dirty_len(), 0);
        assert!(c.mark_dirty(addr(1)));
        assert!(c.is_dirty(addr(1)));
        assert!(!c.mark_dirty(addr(9)));
        assert!(!c.mark_clean(addr(9)));
        c.check_invariants();
    }

    #[test]
    fn remove_invalidates() {
        let mut c = BlockCache::new(2);
        c.insert(addr(1), true);
        let ev = c.remove(addr(1)).unwrap();
        assert!(ev.dirty);
        assert!(!c.contains(addr(1)));
        assert_eq!(c.remove(addr(1)), None);
        assert_eq!(c.stats().invalidations, 1);
        c.check_invariants();
    }

    #[test]
    fn zero_capacity_cache_stores_nothing() {
        let mut c = BlockCache::new(0);
        assert_eq!(c.insert(addr(1), false), InsertOutcome::ZeroCapacity);
        assert!(!c.lookup(addr(1)));
        assert_eq!(c.len(), 0);
        c.check_invariants();
    }

    #[test]
    fn promote_reorders_without_stats() {
        let mut c = BlockCache::new(2);
        c.insert(addr(1), false);
        c.insert(addr(2), false);
        let before = *c.stats();
        assert!(c.promote(addr(1)));
        assert!(!c.promote(addr(9)));
        assert_eq!(
            *c.stats(),
            before,
            "promote must not touch hit/miss counters"
        );
        // 1 is MRU, so 2 is the eviction victim.
        assert_eq!(c.peek_lru().unwrap().addr, addr(2));
        c.check_invariants();
    }

    #[test]
    fn dirty_blocks_snapshot() {
        let mut c = BlockCache::new(8);
        for i in 0..6 {
            c.insert(addr(i), i % 2 == 0);
        }
        let mut dirty = c.dirty_blocks();
        dirty.sort();
        assert_eq!(dirty, vec![addr(0), addr(2), addr(4)]);
    }

    #[test]
    fn peek_lru_matches_next_eviction() {
        let mut c = BlockCache::new(2);
        c.insert(addr(1), true);
        c.insert(addr(2), false);
        let peek = c.peek_lru().unwrap();
        match c.insert(addr(3), false) {
            InsertOutcome::InsertedEvicting(ev) => assert_eq!(ev, peek),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn len_tracks_inserts_up_to_capacity() {
        let mut c = BlockCache::new(3);
        for i in 0..10 {
            c.insert(addr(i), false);
            assert!(c.len() <= 3);
        }
        assert!(c.is_full());
        assert_eq!(c.len(), 3);
        assert_eq!(c.stats().insertions, 10);
        assert_eq!(c.stats().evictions(), 7);
        c.check_invariants();
    }

    mod replacement_policies {
        use super::*;

        #[test]
        fn fifo_ignores_hits() {
            let mut c = BlockCache::with_policy(2, EvictionPolicy::Fifo);
            c.insert(addr(1), false);
            c.insert(addr(2), false);
            assert!(c.lookup(addr(1))); // does not protect 1 under FIFO
            match c.insert(addr(3), false) {
                InsertOutcome::InsertedEvicting(ev) => assert_eq!(ev.addr, addr(1)),
                other => panic!("unexpected {other:?}"),
            }
            c.check_invariants();
        }

        #[test]
        fn clock_gives_second_chance() {
            let mut c = BlockCache::with_policy(2, EvictionPolicy::Clock);
            c.insert(addr(1), false);
            c.insert(addr(2), false);
            assert!(c.lookup(addr(1))); // sets 1's reference bit
                                        // Victim scan: 1 is referenced → spared (bit cleared, rotated);
                                        // 2 is unreferenced → evicted.
            match c.insert(addr(3), false) {
                InsertOutcome::InsertedEvicting(ev) => assert_eq!(ev.addr, addr(2)),
                other => panic!("unexpected {other:?}"),
            }
            assert!(c.contains(addr(1)));
            c.check_invariants();
        }

        #[test]
        fn clock_evicts_oldest_when_all_referenced() {
            let mut c = BlockCache::with_policy(3, EvictionPolicy::Clock);
            for i in 1..=3 {
                c.insert(addr(i), false);
                assert!(c.lookup(addr(i)));
            }
            // All referenced: one full rotation clears every bit, then the
            // oldest (1) is the first unreferenced victim.
            match c.insert(addr(4), false) {
                InsertOutcome::InsertedEvicting(ev) => assert_eq!(ev.addr, addr(1)),
                other => panic!("unexpected {other:?}"),
            }
            c.check_invariants();
        }

        #[test]
        fn lru_beats_fifo_on_skewed_access() {
            // A hot block re-referenced between streams survives under LRU
            // and CLOCK but not under FIFO: hit counts order LRU ≥ CLOCK > FIFO.
            let run = |policy| {
                let mut c = BlockCache::with_policy(8, policy);
                let mut hits = 0u64;
                for round in 0..200u32 {
                    if c.lookup(addr(0)) {
                        hits += 1;
                    }
                    c.insert(addr(0), false);
                    for i in 0..4 {
                        let a = addr(1 + (round * 4 + i) % 40);
                        c.lookup(a);
                        c.insert(a, false);
                    }
                }
                c.check_invariants();
                hits
            };
            let lru = run(EvictionPolicy::Lru);
            let clock = run(EvictionPolicy::Clock);
            let fifo = run(EvictionPolicy::Fifo);
            assert!(lru >= clock, "lru {lru} vs clock {clock}");
            assert!(clock > fifo, "clock {clock} vs fifo {fifo}");
        }

        #[test]
        fn policies_share_dirty_semantics() {
            for policy in [
                EvictionPolicy::Lru,
                EvictionPolicy::Fifo,
                EvictionPolicy::Clock,
            ] {
                let mut c = BlockCache::with_policy(1, policy);
                c.insert(addr(1), true);
                match c.insert(addr(2), false) {
                    InsertOutcome::InsertedEvicting(ev) => {
                        assert!(ev.dirty, "{policy:?} must report dirty victim");
                    }
                    other => panic!("unexpected {other:?}"),
                }
                c.check_invariants();
            }
        }
    }

    /// Fills a 4-block cache (an 8-slot index) with blocks whose home is
    /// the index's last slot, so their cluster wraps to slots 0..3, then
    /// empties it in LRU, MRU and interleaved order and refills it after
    /// each: every removal shifts the cluster back across the wrap point.
    #[test]
    fn removals_in_any_order_shift_across_the_wrap() {
        let mut c = BlockCache::new(4);
        let keys = crate::table::keys_homed_at(8, 7, 1 << 32, 8);
        let blocks: Vec<BlockAddr> = keys.into_iter().map(BlockAddr::from_u64).collect();
        let fill = |c: &mut BlockCache, set: &[BlockAddr]| {
            for (i, &b) in set.iter().enumerate() {
                assert_eq!(c.insert(b, i % 2 == 0), InsertOutcome::Inserted);
                c.check_invariants();
            }
        };
        // Oldest first: LRU order is the insertion order.
        let orders: [&[usize]; 3] = [&[0, 1, 2, 3], &[3, 2, 1, 0], &[1, 3, 0, 2]];
        for (round, order) in orders.iter().enumerate() {
            let set = &blocks[4 * (round % 2)..4 * (round % 2) + 4];
            fill(&mut c, set);
            for (n, &o) in order.iter().enumerate() {
                let ev = c.remove(set[o]).expect("resident");
                assert_eq!(ev.dirty, o % 2 == 0);
                c.check_invariants();
                for (j, &b) in set.iter().enumerate() {
                    assert_eq!(c.contains(b), !order[..=n].contains(&j), "block {j}");
                }
            }
            assert!(c.is_empty());
        }
        // Refill and evict through the wrapped cluster as well.
        fill(&mut c, &blocks[..4]);
        for (i, &b) in blocks[4..].iter().enumerate() {
            match c.insert(b, false) {
                InsertOutcome::InsertedEvicting(ev) => assert_eq!(ev.addr, blocks[i]),
                other => panic!("unexpected {other:?}"),
            }
            c.check_invariants();
        }
        assert_eq!(c.dirty_len(), 0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::{HashSet, VecDeque};

        #[derive(Debug, Clone)]
        enum Op {
            Lookup(BlockAddr),
            Insert(BlockAddr, bool),
            MarkClean(BlockAddr),
            MarkDirty(BlockAddr),
            Promote(BlockAddr),
            Remove(BlockAddr),
            PeekLru,
        }

        /// Eight blocks in each of three files, one of them with the top
        /// file-id bit set: block numbers repeat across files, so keys
        /// differ in their high and low halves alike.
        fn key() -> impl Strategy<Value = BlockAddr> {
            (0usize..3, 0u32..8)
                .prop_map(|(f, b)| BlockAddr::new(FileId([0, 1, 0x8000_0003][f]), b))
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                key().prop_map(Op::Lookup),
                (key(), any::<bool>()).prop_map(|(k, d)| Op::Insert(k, d)),
                key().prop_map(Op::MarkClean),
                key().prop_map(Op::MarkDirty),
                key().prop_map(Op::Promote),
                key().prop_map(Op::Remove),
                Just(Op::PeekLru),
            ]
        }

        /// Reference model: VecDeque of (block, dirty), front = MRU.
        struct Model {
            cap: usize,
            q: VecDeque<(BlockAddr, bool)>,
        }

        impl Model {
            fn find(&self, k: BlockAddr) -> Option<usize> {
                self.q.iter().position(|&(x, _)| x == k)
            }

            fn lookup(&mut self, k: BlockAddr) -> bool {
                if let Some(p) = self.find(k) {
                    let e = self.q.remove(p).unwrap();
                    self.q.push_front(e);
                    true
                } else {
                    false
                }
            }

            fn insert(&mut self, k: BlockAddr, d: bool) -> Option<(BlockAddr, bool)> {
                if let Some(p) = self.find(k) {
                    let mut e = self.q.remove(p).unwrap();
                    e.1 |= d;
                    self.q.push_front(e);
                    return None;
                }
                let evicted = if self.q.len() >= self.cap {
                    self.q.pop_back()
                } else {
                    None
                };
                self.q.push_front((k, d));
                evicted
            }

            fn set_dirty(&mut self, k: BlockAddr, d: bool) -> bool {
                self.q
                    .iter_mut()
                    .find(|(x, _)| *x == k)
                    .map(|e| e.1 = d)
                    .is_some()
            }
        }

        /// The pre-refactor representation: recency order in one structure,
        /// dirtiness in a *separate* set (the two-probe model this cache
        /// replaced). The folded single-probe cache must stay observably
        /// identical to it.
        struct TwoStructureModel {
            cap: usize,
            order: VecDeque<BlockAddr>, // front = MRU
            dirty: HashSet<BlockAddr>,
        }

        impl TwoStructureModel {
            /// Moves a resident block to MRU; false if absent.
            fn promote(&mut self, k: BlockAddr) -> bool {
                match self.order.iter().position(|&x| x == k) {
                    Some(p) => {
                        self.order.remove(p);
                        self.order.push_front(k);
                        true
                    }
                    None => false,
                }
            }

            fn insert(&mut self, k: BlockAddr, d: bool) -> Option<(BlockAddr, bool)> {
                if self.promote(k) {
                    if d {
                        self.dirty.insert(k);
                    }
                    return None;
                }
                let evicted = if self.order.len() >= self.cap {
                    self.order.pop_back().map(|v| (v, self.dirty.remove(&v)))
                } else {
                    None
                };
                self.order.push_front(k);
                if d {
                    self.dirty.insert(k);
                }
                evicted
            }
        }

        fn check_insert(
            got: InsertOutcome,
            want: Option<(BlockAddr, bool)>,
        ) -> Result<(), TestCaseError> {
            match (got, want) {
                (InsertOutcome::InsertedEvicting(ev), Some((mk, md))) => {
                    prop_assert_eq!(ev.addr, mk);
                    prop_assert_eq!(ev.dirty, md);
                }
                (InsertOutcome::Inserted, None) | (InsertOutcome::AlreadyPresent, None) => {}
                (got, want) => {
                    return Err(TestCaseError::fail(format!(
                        "insert mismatch: sut={got:?} model={want:?}"
                    )));
                }
            }
            Ok(())
        }

        proptest! {
            #[test]
            fn folded_dirty_bit_matches_two_structure_model(
                cap in 1usize..10,
                ops in proptest::collection::vec(op_strategy(), 0..300),
            ) {
                let mut sut = BlockCache::new(cap);
                let mut model = TwoStructureModel {
                    cap,
                    order: VecDeque::new(),
                    dirty: HashSet::new(),
                };
                for op in ops {
                    match op {
                        Op::Lookup(k) => {
                            prop_assert_eq!(sut.lookup(k), model.promote(k));
                        }
                        Op::Promote(k) => {
                            prop_assert_eq!(sut.promote(k), model.promote(k));
                        }
                        Op::Insert(k, d) => {
                            check_insert(sut.insert(k, d), model.insert(k, d))?;
                        }
                        Op::MarkClean(k) => {
                            let present = model.order.contains(&k);
                            model.dirty.remove(&k);
                            prop_assert_eq!(sut.mark_clean(k), present);
                        }
                        Op::MarkDirty(k) => {
                            let present = model.order.contains(&k);
                            if present {
                                model.dirty.insert(k);
                            }
                            prop_assert_eq!(sut.mark_dirty(k), present);
                        }
                        Op::Remove(k) => {
                            let got = sut.remove(k);
                            if let Some(p) = model.order.iter().position(|&x| x == k) {
                                model.order.remove(p);
                                let was_dirty = model.dirty.remove(&k);
                                prop_assert_eq!(got.map(|e| (e.addr, e.dirty)),
                                                Some((k, was_dirty)));
                            } else {
                                prop_assert_eq!(got, None);
                            }
                        }
                        Op::PeekLru => {
                            let want = model.order.back().map(|&k| Eviction {
                                addr: k,
                                dirty: model.dirty.contains(&k),
                            });
                            prop_assert_eq!(sut.peek_lru(), want);
                        }
                    }
                    // Observable dirty state must match the two-structure
                    // model exactly after every operation.
                    sut.check_invariants();
                    prop_assert_eq!(sut.dirty_len(), model.dirty.len());
                    for &k in model.order.iter() {
                        prop_assert_eq!(sut.is_dirty(k), model.dirty.contains(&k));
                    }
                    let mut expect: Vec<BlockAddr> = model.dirty.iter().copied().collect();
                    expect.sort_unstable();
                    prop_assert_eq!(sut.dirty_blocks(), expect);
                }
            }

            #[test]
            fn matches_reference_model(
                cap in 1usize..8,
                ops in proptest::collection::vec(op_strategy(), 0..300),
            ) {
                let mut sut = BlockCache::new(cap);
                let mut model = Model { cap, q: VecDeque::new() };
                for op in ops {
                    match op {
                        Op::Lookup(k) => {
                            prop_assert_eq!(sut.lookup(k), model.lookup(k));
                        }
                        Op::Promote(k) => {
                            prop_assert_eq!(sut.promote(k), model.lookup(k));
                        }
                        Op::Insert(k, d) => {
                            check_insert(sut.insert(k, d), model.insert(k, d))?;
                        }
                        Op::MarkClean(k) => {
                            prop_assert_eq!(sut.mark_clean(k), model.set_dirty(k, false));
                        }
                        Op::MarkDirty(k) => {
                            prop_assert_eq!(sut.mark_dirty(k), model.set_dirty(k, true));
                        }
                        Op::Remove(k) => {
                            let expect = model.find(k).map(|p| model.q.remove(p).unwrap());
                            let got = sut.remove(k);
                            prop_assert_eq!(got.map(|e| (e.addr, e.dirty)), expect);
                        }
                        Op::PeekLru => {
                            prop_assert_eq!(
                                sut.peek_lru().map(|e| (e.addr, e.dirty)),
                                model.q.back().copied()
                            );
                        }
                    }
                    sut.check_invariants();
                    prop_assert_eq!(sut.len(), model.q.len());
                    prop_assert_eq!(
                        sut.iter_mru().collect::<Vec<_>>(),
                        model.q.iter().copied().collect::<Vec<_>>()
                    );
                }
            }
        }
    }
}
