//! The shared core of both caches: an open-addressed block index over a
//! slab of 24-byte LRU nodes.
//!
//! **Nodes.** Each node holds a block key (the packed
//! [`fcache_types::BlockAddr::to_u64`]), its LRU links and its dirty-list
//! links: `8 + 4 × 4 = 24` bytes. Node ids are 31-bit, so the top bit of
//! every link word is spare and carries one flag:
//!
//! | word         | link                       | flag                       |
//! |--------------|----------------------------|----------------------------|
//! | `prev`       | toward MRU                 | CLOCK reference bit        |
//! | `next`       | toward LRU (free chain)    | frame lives in flash       |
//! | `dirty_prev` | dirty list                 | dirty                      |
//! | `dirty_next` | dirty list                 | vacant (unified free frame)|
//!
//! **Index.** A power-of-two array of 8-byte slots, each packing a 32-bit
//! hash tag (high half) and `node id + 1` (low half; an all-zero slot is
//! empty). The tag's top bits pick the home slot, so moving or rehashing a
//! slot never reads its node. Probing is linear; deletion shifts the rest
//! of the cluster back into the hole (no tombstones), so a lookup's probe
//! length depends only on the keys present, never on past deletions.
//!
//! The index holds at most `capacity + 1` keys (an evicting insert indexes
//! the new key before it drops the victim's) in at least `2 × capacity`
//! slots, so the load factor stays at or below one half. Capacities above
//! [`PREALLOC_BLOCKS`] start from a smaller table that doubles as it fills.
//!
//! Nothing here iterates in slot order: the LRU list and the dirty list
//! are walked through their links, so the index layout can never leak into
//! an eviction, a victim or a snapshot.

/// Link value meaning "no node" (all 31 index bits set).
const NIL: u32 = LINK;

/// Index bits of a link word.
const LINK: u32 = 0x7fff_ffff;

/// The spare top bit of a link word.
const FLAG: u32 = 0x8000_0000;

/// Block count whose index is allocated whole up front; a larger cache's
/// index starts at this size and doubles as it fills.
const PREALLOC_BLOCKS: usize = 1 << 22;

/// Smallest index, so that a home slot is always `tag >> shift` with
/// `shift < 32`.
const MIN_SLOTS: usize = 8;

/// One index slot: `tag << 32 | (node id + 1)`, or [`EMPTY`].
type Slot = u64;

const EMPTY: Slot = 0;

/// One cached block (or, in the unified cache, one frame).
#[derive(Clone, Copy)]
struct Node {
    key: u64,
    prev: u32,
    next: u32,
    dirty_prev: u32,
    dirty_next: u32,
}

const _: () = assert!(std::mem::size_of::<Node>() == 24);
const _: () = assert!(std::mem::size_of::<Slot>() == 8);

const fn link(word: u32) -> u32 {
    word & LINK
}

const fn flag(word: u32) -> bool {
    word & FLAG != 0
}

/// `word` with its link replaced, flag kept.
const fn relink(word: u32, to: u32) -> u32 {
    (word & FLAG) | to
}

/// `word` with its flag set to `on`, link kept.
const fn reflag(word: u32, on: bool) -> u32 {
    if on {
        word | FLAG
    } else {
        word & LINK
    }
}

/// 32-bit hash tag of a key: the top half of a Fibonacci multiply, whose
/// high bits depend on every key bit.
#[inline]
fn tag_of(key: u64) -> u32 {
    (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as u32
}

#[inline]
fn slot_of(tag: u32, id: u32) -> Slot {
    (u64::from(tag) << 32) | u64::from(id + 1)
}

/// Block index plus node slab with an LRU list and a dirty list.
///
/// Callers pass only ids of live nodes; [`BlockTable::find`] and the list
/// walks are the only sources of ids.
pub(crate) struct BlockTable {
    slots: Vec<Slot>,
    /// `32 - log2(slots.len())`: a tag's top bits pick its home slot.
    shift: u32,
    /// Size the index may grow to: `2 × capacity`, rounded up to a power
    /// of two.
    max_slots: usize,
    /// Keys in the index.
    indexed: usize,
    nodes: Vec<Node>,
    /// Head of the chain of freed nodes (threaded through `next`).
    free: u32,
    /// MRU end of the LRU list.
    head: u32,
    /// LRU end of the LRU list.
    tail: u32,
    /// Nodes on the LRU list.
    listed: usize,
    dirty_head: u32,
    dirty_len: usize,
}

impl BlockTable {
    /// A table for at most `capacity` indexed keys and listed nodes.
    pub(crate) fn new(capacity: usize) -> Self {
        let slots = Self::slots_for(capacity.min(PREALLOC_BLOCKS));
        Self::with_slots(capacity, slots)
    }

    /// Index size for `blocks` keys at load factor ≤ ½.
    fn slots_for(blocks: usize) -> usize {
        (2 * blocks).next_power_of_two().max(MIN_SLOTS)
    }

    /// A table whose index starts at `slots` slots (a power of two no
    /// larger than the capacity's full size) and grows from there.
    fn with_slots(capacity: usize, slots: usize) -> Self {
        assert!(
            capacity < NIL as usize,
            "cache capacity {capacity} exceeds node ids"
        );
        let max_slots = Self::slots_for(capacity);
        assert!(slots.is_power_of_two() && (MIN_SLOTS..=max_slots).contains(&slots));
        Self {
            slots: vec![EMPTY; slots],
            shift: 32 - slots.trailing_zeros(),
            max_slots,
            indexed: 0,
            nodes: Vec::with_capacity(capacity.min(PREALLOC_BLOCKS)),
            free: NIL,
            head: NIL,
            tail: NIL,
            listed: 0,
            dirty_head: NIL,
            dirty_len: 0,
        }
    }

    /// Bytes of the index and the node slab, as allocated.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
            + self.nodes.capacity() * std::mem::size_of::<Node>()
    }

    #[inline]
    fn home(&self, tag: u32) -> usize {
        (tag >> self.shift) as usize
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// Probes for `key`: `Ok((slot, node))` if indexed, else `Err(slot)`
    /// with the empty slot where [`BlockTable::index_at`] would put it.
    #[inline]
    pub(crate) fn find(&self, key: u64) -> Result<(usize, u32), usize> {
        let tag = tag_of(key);
        let mask = self.mask();
        let mut i = self.home(tag);
        loop {
            let s = self.slots[i];
            if s == EMPTY {
                return Err(i);
            }
            if (s >> 32) as u32 == tag {
                let id = s as u32 - 1;
                if self.nodes[id as usize].key == key {
                    return Ok((i, id));
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Node holding `key`, if indexed.
    #[inline]
    pub(crate) fn get(&self, key: u64) -> Option<u32> {
        self.find(key).ok().map(|(_, id)| id)
    }

    /// Indexes `key` → `id` at `slot`, the empty slot a [`BlockTable::find`]
    /// miss for `key` returned (no index change in between), and stores
    /// `key` in the node. The node's previous key, if indexed, stays
    /// indexed until [`BlockTable::unindex`].
    pub(crate) fn index_at(&mut self, slot: usize, key: u64, id: u32) {
        let over_half = (self.indexed + 1) * 2 > self.slots.len();
        let slot = if over_half && self.slots.len() < self.max_slots {
            self.grow();
            self.find(key).expect_err("indexing a key twice")
        } else {
            slot
        };
        debug_assert_eq!(self.slots[slot], EMPTY, "index_at over a live slot");
        self.slots[slot] = slot_of(tag_of(key), id);
        self.nodes[id as usize].key = key;
        self.indexed += 1;
    }

    /// Doubles the index, re-homing every slot from its tag alone.
    fn grow(&mut self) {
        let doubled = vec![EMPTY; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        self.shift -= 1;
        let mask = self.mask();
        for s in old.into_iter().filter(|&s| s != EMPTY) {
            let mut i = self.home((s >> 32) as u32);
            while self.slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = s;
        }
    }

    /// Drops the index entry `key` → `id`.
    ///
    /// # Panics
    ///
    /// Panics if that entry is not indexed.
    pub(crate) fn unindex(&mut self, key: u64, id: u32) {
        let want = slot_of(tag_of(key), id);
        let mask = self.mask();
        let mut i = self.home(tag_of(key));
        while self.slots[i] != want {
            assert_ne!(self.slots[i], EMPTY, "unindex of a key that is not indexed");
            i = (i + 1) & mask;
        }
        self.unindex_slot(i);
    }

    /// Empties `slot` and shifts the rest of its cluster back: each later
    /// entry whose probe path runs through the hole moves into it, which
    /// leaves a new hole behind, until the cluster ends.
    pub(crate) fn unindex_slot(&mut self, slot: usize) {
        let mask = self.mask();
        let mut hole = slot;
        let mut i = slot;
        loop {
            i = (i + 1) & mask;
            let s = self.slots[i];
            if s == EMPTY {
                break;
            }
            // Distances wrap at the table end: the hole is on `s`'s probe
            // path iff it lies cyclically within [home, i).
            let home = self.home((s >> 32) as u32);
            if i.wrapping_sub(home) & mask >= i.wrapping_sub(hole) & mask {
                self.slots[hole] = s;
                hole = i;
            }
        }
        self.slots[hole] = EMPTY;
        self.indexed -= 1;
    }

    /// Keys in the index.
    pub(crate) fn indexed(&self) -> usize {
        self.indexed
    }

    /// Nodes on the LRU list.
    pub(crate) fn listed(&self) -> usize {
        self.listed
    }

    /// Key stored in a node.
    #[inline]
    pub(crate) fn key(&self, id: u32) -> u64 {
        self.nodes[id as usize].key
    }

    fn alloc(&mut self, key: u64, flash: bool) -> u32 {
        let node = Node {
            key,
            prev: NIL,
            next: reflag(NIL, flash),
            dirty_prev: NIL,
            dirty_next: NIL,
        };
        if self.free != NIL {
            let id = self.free;
            self.free = link(self.nodes[id as usize].next);
            self.nodes[id as usize] = node;
            id
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        }
    }

    /// Adds a node at the MRU end; returns its id. `flash` is the node's
    /// medium flag, fixed for its lifetime.
    pub(crate) fn push_front(&mut self, key: u64, flash: bool) -> u32 {
        let id = self.alloc(key, flash);
        self.link_front(id);
        self.listed += 1;
        id
    }

    /// Adds a node at the LRU end (a frame to be consumed first).
    pub(crate) fn push_back(&mut self, key: u64, flash: bool) -> u32 {
        let id = self.alloc(key, flash);
        let n = &mut self.nodes[id as usize];
        n.prev = relink(n.prev, self.tail);
        n.next = relink(n.next, NIL);
        if self.tail != NIL {
            let t = &mut self.nodes[self.tail as usize];
            t.next = relink(t.next, id);
        } else {
            self.head = id;
        }
        self.tail = id;
        self.listed += 1;
        id
    }

    fn link_front(&mut self, id: u32) {
        let old = self.head;
        let n = &mut self.nodes[id as usize];
        n.prev = relink(n.prev, NIL);
        n.next = relink(n.next, old);
        if old != NIL {
            let h = &mut self.nodes[old as usize];
            h.prev = relink(h.prev, id);
        } else {
            self.tail = id;
        }
        self.head = id;
    }

    fn unlink(&mut self, id: u32) {
        let n = self.nodes[id as usize];
        let (prev, next) = (link(n.prev), link(n.next));
        if prev != NIL {
            let p = &mut self.nodes[prev as usize];
            p.next = relink(p.next, next);
        } else {
            self.head = next;
        }
        if next != NIL {
            let q = &mut self.nodes[next as usize];
            q.prev = relink(q.prev, prev);
        } else {
            self.tail = prev;
        }
    }

    /// Moves a node to the MRU end.
    #[inline]
    pub(crate) fn touch(&mut self, id: u32) {
        if self.head != id {
            self.unlink(id);
            self.link_front(id);
        }
    }

    /// Takes a node off both lists and frees it for reuse. The caller has
    /// already unindexed its key.
    pub(crate) fn remove(&mut self, id: u32) {
        self.set_dirty(id, false);
        self.unlink(id);
        let n = &mut self.nodes[id as usize];
        n.next = relink(n.next, self.free);
        self.free = id;
        self.listed -= 1;
    }

    /// The MRU node.
    pub(crate) fn front(&self) -> Option<u32> {
        (self.head != NIL).then_some(self.head)
    }

    /// The LRU node.
    pub(crate) fn back(&self) -> Option<u32> {
        (self.tail != NIL).then_some(self.tail)
    }

    /// Listed nodes, MRU to LRU.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        std::iter::successors(self.front(), move |&id| {
            let next = link(self.nodes[id as usize].next);
            (next != NIL).then_some(next)
        })
    }

    /// CLOCK reference bit.
    pub(crate) fn referenced(&self, id: u32) -> bool {
        flag(self.nodes[id as usize].prev)
    }

    pub(crate) fn set_referenced(&mut self, id: u32, on: bool) {
        let n = &mut self.nodes[id as usize];
        n.prev = reflag(n.prev, on);
    }

    /// Medium flag given at push time.
    pub(crate) fn is_flash(&self, id: u32) -> bool {
        flag(self.nodes[id as usize].next)
    }

    /// Vacant flag: a listed node holding no block (a free unified frame).
    pub(crate) fn is_vacant(&self, id: u32) -> bool {
        flag(self.nodes[id as usize].dirty_next)
    }

    pub(crate) fn set_vacant(&mut self, id: u32, on: bool) {
        let n = &mut self.nodes[id as usize];
        n.dirty_next = reflag(n.dirty_next, on);
    }

    #[inline]
    pub(crate) fn is_dirty(&self, id: u32) -> bool {
        flag(self.nodes[id as usize].dirty_prev)
    }

    /// Sets a node's dirty bit, linking it onto or off the dirty list.
    pub(crate) fn set_dirty(&mut self, id: u32, dirty: bool) {
        if self.is_dirty(id) == dirty {
            return;
        }
        if dirty {
            let old = self.dirty_head;
            let n = &mut self.nodes[id as usize];
            n.dirty_prev = reflag(NIL, true);
            n.dirty_next = relink(n.dirty_next, old);
            if old != NIL {
                let h = &mut self.nodes[old as usize];
                h.dirty_prev = relink(h.dirty_prev, id);
            }
            self.dirty_head = id;
            self.dirty_len += 1;
        } else {
            let n = self.nodes[id as usize];
            let (prev, next) = (link(n.dirty_prev), link(n.dirty_next));
            if prev != NIL {
                let p = &mut self.nodes[prev as usize];
                p.dirty_next = relink(p.dirty_next, next);
            } else {
                self.dirty_head = next;
            }
            if next != NIL {
                let q = &mut self.nodes[next as usize];
                q.dirty_prev = relink(q.dirty_prev, prev);
            }
            let n = &mut self.nodes[id as usize];
            n.dirty_prev = NIL;
            n.dirty_next = relink(n.dirty_next, NIL);
            self.dirty_len -= 1;
        }
    }

    /// Dirty node count.
    pub(crate) fn dirty_len(&self) -> usize {
        self.dirty_len
    }

    /// Dirty nodes, in no particular order (callers sort).
    pub(crate) fn dirty(&self) -> impl Iterator<Item = u32> + '_ {
        let first = (self.dirty_head != NIL).then_some(self.dirty_head);
        std::iter::successors(first, move |&id| {
            let next = link(self.nodes[id as usize].dirty_next);
            (next != NIL).then_some(next)
        })
    }

    /// Verifies the table's own structure; test support.
    ///
    /// # Panics
    ///
    /// Panics if a list's links disagree with its counts or with each
    /// other, if an indexed key is unreachable from its home slot, or if
    /// a slot disagrees with its node.
    pub(crate) fn check(&self) {
        // LRU list: forward walk matches back-links, count and tail.
        let mut prev = NIL;
        let mut walked = 0;
        for id in self.iter() {
            assert_eq!(
                link(self.nodes[id as usize].prev),
                prev,
                "LRU back-link mismatch"
            );
            walked += 1;
            assert!(walked <= self.listed, "LRU list cycle");
            prev = id;
        }
        assert_eq!(walked, self.listed, "LRU list length mismatch");
        assert_eq!(self.tail, prev, "LRU tail mismatch");
        // Free chain holds every node not listed.
        let mut free = 0;
        let mut cur = self.free;
        while cur != NIL {
            free += 1;
            assert!(free <= self.nodes.len(), "free chain cycle");
            cur = link(self.nodes[cur as usize].next);
        }
        assert_eq!(free + self.listed, self.nodes.len(), "nodes leaked");
        // Dirty list: exactly the dirty nodes, with consistent back-links.
        let mut prev = NIL;
        let mut walked = 0;
        for id in self.dirty() {
            let n = self.nodes[id as usize];
            assert!(flag(n.dirty_prev), "dirty list holds a clean node");
            assert_eq!(link(n.dirty_prev), prev, "dirty list back-link mismatch");
            walked += 1;
            assert!(walked <= self.dirty_len, "dirty list cycle");
            prev = id;
        }
        assert_eq!(walked, self.dirty_len, "dirty list length mismatch");
        // Index: every entry names its node's key, lies on an unbroken
        // probe path from its home, and is what a lookup finds.
        let mask = self.mask();
        let mut live = 0;
        for (i, &s) in self.slots.iter().enumerate() {
            if s == EMPTY {
                continue;
            }
            live += 1;
            let id = s as u32 - 1;
            let key = self.key(id);
            assert_eq!((s >> 32) as u32, tag_of(key), "slot tag is not its node's");
            let mut j = self.home(tag_of(key));
            while j != i {
                assert_ne!(self.slots[j], EMPTY, "probe path broken before slot {i}");
                j = (j + 1) & mask;
            }
            assert_eq!(self.find(key), Ok((i, id)), "lookup misses an indexed key");
        }
        assert_eq!(live, self.indexed, "index count mismatch");
        assert!(self.indexed * 2 <= self.slots.len(), "index over half full");
    }

    /// Home slot of `key` in this table; test support.
    #[cfg(test)]
    pub(crate) fn home_of(&self, key: u64) -> usize {
        self.home(tag_of(key))
    }

    /// Index size; test support.
    #[cfg(test)]
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }
}

/// The first `n` keys, counting up from `from`, whose home slot in a
/// `slots`-slot index is `home`; test support.
#[cfg(test)]
pub(crate) fn keys_homed_at(slots: usize, home: usize, from: u64, n: usize) -> Vec<u64> {
    let t = BlockTable::with_slots(slots / 2, slots);
    (from..).filter(|&k| t.home_of(k) == home).take(n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(t: &BlockTable) -> Vec<u64> {
        t.iter().map(|id| t.key(id)).collect()
    }

    /// `push_front` plus indexing, as a cache fill does.
    fn insert(t: &mut BlockTable, key: u64) -> u32 {
        let slot = t.find(key).expect_err("fresh key");
        let id = t.push_front(key, false);
        t.index_at(slot, key, id);
        id
    }

    /// Unindexes and frees the LRU node, returning its key.
    fn pop_back(t: &mut BlockTable) -> Option<u64> {
        let id = t.back()?;
        let key = t.key(id);
        t.unindex(key, id);
        t.remove(id);
        Some(key)
    }

    fn erase(t: &mut BlockTable, key: u64) {
        let id = t.get(key).expect("indexed");
        t.unindex(key, id);
        t.remove(id);
    }

    #[test]
    fn push_touch_pop_order() {
        let mut t = BlockTable::new(8);
        let a = insert(&mut t, 1);
        insert(&mut t, 2);
        insert(&mut t, 3);
        t.touch(a);
        assert_eq!(keys(&t), vec![1, 3, 2]);
        assert_eq!(pop_back(&mut t), Some(2));
        assert_eq!(pop_back(&mut t), Some(3));
        assert_eq!(pop_back(&mut t), Some(1));
        assert_eq!((t.listed(), t.indexed()), (0, 0));
        t.check();
    }

    #[test]
    fn push_back_seeds_lru_end() {
        let mut t = BlockTable::new(4);
        t.push_front(10, false);
        t.push_back(20, true);
        assert_eq!(keys(&t), vec![10, 20]);
        let back = t.back().unwrap();
        assert!(t.is_flash(back) && !t.is_flash(t.front().unwrap()));
        t.check();
    }

    #[test]
    fn remove_middle() {
        let mut t = BlockTable::new(4);
        insert(&mut t, 1);
        insert(&mut t, 2);
        insert(&mut t, 3);
        erase(&mut t, 2);
        assert_eq!(t.listed(), 2);
        assert_eq!(keys(&t), vec![3, 1]);
        assert_eq!(t.get(2), None);
        t.check();
    }

    #[test]
    fn slot_reuse_after_remove() {
        let mut t = BlockTable::new(4);
        let a = insert(&mut t, 1);
        erase(&mut t, 1);
        let b = insert(&mut t, 2);
        // The freed node is recycled.
        assert_eq!(a, b);
        assert_eq!(t.get(2), Some(b));
        assert_eq!(t.listed(), 1);
        t.check();
    }

    #[test]
    fn touch_head_is_noop() {
        let mut t = BlockTable::new(4);
        insert(&mut t, 1);
        let b = insert(&mut t, 2);
        t.touch(b);
        assert_eq!(keys(&t), vec![2, 1]);
        t.check();
    }

    #[test]
    fn touch_tail_moves_to_front() {
        let mut t = BlockTable::new(4);
        let a = insert(&mut t, 1);
        insert(&mut t, 2);
        t.touch(a);
        assert_eq!(t.front(), Some(a));
        assert_eq!(t.key(t.back().unwrap()), 2);
        t.check();
    }

    #[test]
    fn victim_node_is_recycled_in_place() {
        // An evicting insert re-keys the LRU node and moves it to MRU:
        // same id, new key, old key gone from the index.
        let mut t = BlockTable::new(2);
        let a = insert(&mut t, 1);
        let b = insert(&mut t, 2);
        let slot = t.find(3).expect_err("fresh key");
        t.index_at(slot, 3, a);
        t.unindex(1, a);
        t.touch(a);
        assert_eq!(keys(&t), vec![3, 2]);
        assert_eq!((t.get(3), t.get(1)), (Some(a), None));
        assert_eq!((t.front(), t.back()), (Some(a), Some(b)));
        t.check();
    }

    #[test]
    fn flags_leave_links_alone() {
        let mut t = BlockTable::new(4);
        let a = insert(&mut t, 1);
        let b = insert(&mut t, 2);
        let c = insert(&mut t, 3);
        for id in [a, b, c] {
            t.set_referenced(id, true);
            t.set_vacant(id, true);
            t.set_dirty(id, true);
        }
        t.set_dirty(b, false);
        t.touch(a);
        t.check();
        assert_eq!(keys(&t), vec![1, 3, 2]);
        assert!(t.referenced(b) && t.is_vacant(b) && !t.is_dirty(b));
        let mut dirty: Vec<u64> = t.dirty().map(|id| t.key(id)).collect();
        dirty.sort_unstable();
        assert_eq!((dirty, t.dirty_len()), (vec![1, 3], 2));
        t.set_referenced(a, false);
        t.set_vacant(a, false);
        assert!(!t.referenced(a) && !t.is_vacant(a) && t.is_dirty(a));
        // Freeing a dirty node takes it off the dirty list.
        erase(&mut t, 3);
        assert_eq!(t.dirty_len(), 1);
        t.check();
    }

    #[test]
    fn single_element_edge_cases() {
        let mut t = BlockTable::new(1);
        assert_eq!(pop_back(&mut t), None);
        assert!(t.front().is_none() && t.back().is_none());
        let a = insert(&mut t, 9);
        assert_eq!((t.front(), t.back()), (Some(a), Some(a)));
        t.touch(a);
        assert_eq!(pop_back(&mut t), Some(9));
        assert_eq!(t.listed(), 0);
        t.check();
    }

    #[test]
    fn backward_shift_wraps_the_table_end() {
        // Four keys homed at the last slot fill it and wrap to slots 0..3;
        // every removal must pull the rest of the cluster back across the
        // wrap point.
        let mut t = BlockTable::new(4);
        let last = t.slot_count() - 1;
        for order in [[0, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2]] {
            let ks = keys_homed_at(t.slot_count(), last, 1 + 100 * order[0] as u64, 4);
            for &k in &ks {
                insert(&mut t, k);
            }
            t.check();
            for (n, &o) in order.iter().enumerate() {
                erase(&mut t, ks[o]);
                t.check();
                for (j, &k) in ks.iter().enumerate() {
                    assert_eq!(t.get(k).is_some(), !order[..=n].contains(&j), "key {j}");
                }
            }
            assert_eq!(t.indexed(), 0);
        }
    }

    #[test]
    fn index_grows_past_its_preallocation() {
        // The path a cache above `PREALLOC_BLOCKS` takes, from the
        // smallest table: doubling, re-homing from tags, lookups after.
        let mut t = BlockTable::with_slots(1000, MIN_SLOTS);
        let key = |n: u64| (n % 7) << 32 | n;
        for n in 0..1000 {
            insert(&mut t, key(n));
            assert!(t.indexed() * 2 <= t.slot_count());
        }
        assert_eq!(t.slot_count(), 2048);
        t.check();
        for n in (0..1000).step_by(2) {
            erase(&mut t, key(n));
        }
        t.check();
        for n in 0..1000 {
            assert_eq!(t.get(key(n)).is_some(), n % 2 == 1);
        }
        for n in (0..1000).step_by(2) {
            insert(&mut t, key(n));
        }
        assert_eq!(
            t.slot_count(),
            2048,
            "capacity-bound index never outgrows 2x"
        );
        t.check();
    }

    #[test]
    fn heap_bytes_counts_index_and_slab() {
        let t = BlockTable::new(65_536);
        assert_eq!(t.heap_bytes(), 131_072 * 8 + 65_536 * 24);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::VecDeque;

        #[derive(Debug, Clone)]
        enum Op {
            Push,
            TouchNth(usize),
            RemoveNth(usize),
            PopBack,
            DirtyNth(usize, bool),
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                Just(Op::Push),
                (0usize..64).prop_map(Op::TouchNth),
                (0usize..64).prop_map(Op::RemoveNth),
                Just(Op::PopBack),
                (0usize..64, any::<bool>()).prop_map(|(n, d)| Op::DirtyNth(n, d)),
            ]
        }

        // Reference model: VecDeque of (key, dirty), front = MRU. Keys are
        // unique and spread over several files.
        proptest! {
            #[test]
            fn matches_reference_model(ops in proptest::collection::vec(op_strategy(), 0..200)) {
                let mut t = BlockTable::with_slots(256, MIN_SLOTS);
                let mut model: VecDeque<(u64, bool)> = VecDeque::new();
                let mut next = 0u64;
                for op in ops {
                    match op {
                        Op::Push if model.len() < 256 => {
                            let k = (next % 5) << 32 | next;
                            next += 1;
                            insert(&mut t, k);
                            model.push_front((k, false));
                        }
                        Op::TouchNth(n) if !model.is_empty() => {
                            let e = model.remove(n % model.len()).unwrap();
                            model.push_front(e);
                            t.touch(t.get(e.0).unwrap());
                        }
                        Op::RemoveNth(n) if !model.is_empty() => {
                            let (k, _) = model.remove(n % model.len()).unwrap();
                            erase(&mut t, k);
                        }
                        Op::PopBack => {
                            prop_assert_eq!(pop_back(&mut t), model.pop_back().map(|e| e.0));
                        }
                        Op::DirtyNth(n, d) if !model.is_empty() => {
                            let n = n % model.len();
                            model[n].1 = d;
                            t.set_dirty(t.get(model[n].0).unwrap(), d);
                        }
                        _ => {}
                    }
                    t.check();
                    prop_assert_eq!(t.listed(), model.len());
                    prop_assert_eq!(t.indexed(), model.len());
                    prop_assert_eq!(
                        t.iter().map(|id| (t.key(id), t.is_dirty(id))).collect::<Vec<_>>(),
                        model.iter().copied().collect::<Vec<_>>()
                    );
                    prop_assert_eq!(t.dirty_len(), model.iter().filter(|e| e.1).count());
                }
            }
        }
    }
}
