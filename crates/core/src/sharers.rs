//! The sharer directory: which hosts' caches hold each block.
//!
//! A client's write "instantly invalidates" every other client's copy of
//! the block (§3.8). Probing every peer's caches for every written block
//! costs O(hosts) hash probes per write; the directory answers "who holds
//! this block" with one probe, so a write visits exactly the holders.
//!
//! The directory is exact: a host is listed for a block if and only if one
//! of its cache tiers holds it. The engine keeps it so by reporting every
//! cache transition that adds or drops a block — the outcome of each tier
//! insert ([`SharerDirectory::note_insert`],
//! [`SharerDirectory::note_unified_insert`]) and each invalidation
//! ([`SharerDirectory::invalidate`]) — at the same synchronous step as the
//! cache mutation itself.
//!
//! Layout: one hash-map entry per cached block, holding up to
//! [`INLINE`] host slots inline — a shared block usually has one to four
//! holders. A larger holder set moves into a `Vec` in a slab owned by the
//! directory; a set that shrinks back to [`INLINE`] returns inline and its
//! `Vec` is cleared and recycled, so no entry owns a heap allocation and
//! any `u16` host count fits.
//!
//! Cost: listing or delisting a holder scans the block's holder set, so a
//! fill or eviction of a block held by `k` hosts costs O(k); an
//! invalidating write costs O(holders) instead of O(hosts). Since every
//! fill and eviction pays a map update, only runs of many hosts keep a
//! directory (`DIRECTORY_MIN_HOSTS` in `host.rs`).

use std::collections::hash_map::Entry;

use fcache_cache::{InsertOutcome, UnifiedInsert};
use fcache_types::{BlockAddr, FxHashMap};

/// Holder slots stored inline in each entry.
const INLINE: usize = 4;
/// `Holders::spill` of a set stored inline.
const NIL: u32 = u32::MAX;

/// One block's holder set: `inline[..len]` when `spill` is [`NIL`], else
/// the slab `Vec` at index `spill` (then more than [`INLINE`] holders).
#[derive(Clone, Copy, Debug)]
struct Holders {
    len: u16,
    inline: [u16; INLINE],
    spill: u32,
}

impl Holders {
    fn one(host: u16) -> Self {
        Self {
            len: 1,
            inline: [host, 0, 0, 0],
            spill: NIL,
        }
    }

    fn ids<'a>(&'a self, slab: &'a [Vec<u16>]) -> &'a [u16] {
        if self.spill == NIL {
            &self.inline[..usize::from(self.len)]
        } else {
            &slab[self.spill as usize]
        }
    }
}

/// Block address → the hosts (by slot in the run's host list) whose caches
/// hold it. See the module docs.
#[derive(Debug)]
pub(crate) struct SharerDirectory {
    map: FxHashMap<u64, Holders>,
    /// Holder sets larger than [`INLINE`]; empty `Vec`s listed in `free`
    /// are recycled.
    slab: Vec<Vec<u16>>,
    free: Vec<u32>,
}

impl SharerDirectory {
    /// An empty directory.
    pub fn new() -> Self {
        Self {
            map: FxHashMap::default(),
            slab: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Records the outcome of `host` inserting `addr` into one of its
    /// layered tiers (RAM or flash). A new copy lists the host; an evicted
    /// victim delists it unless `still_holds(victim)` reports another of
    /// the host's tiers still holds that block.
    pub fn note_insert(
        &mut self,
        host: u16,
        addr: BlockAddr,
        outcome: InsertOutcome,
        still_holds: impl FnOnce(BlockAddr) -> bool,
    ) {
        match outcome {
            InsertOutcome::Inserted => self.add(addr, host),
            InsertOutcome::InsertedEvicting(ev) => {
                self.add(addr, host);
                if !still_holds(ev.addr) {
                    self.remove(ev.addr, host);
                }
            }
            InsertOutcome::AlreadyPresent | InsertOutcome::ZeroCapacity => {}
        }
    }

    /// Records the outcome of `host` inserting `addr` into its unified
    /// cache, the host's only tier: a new copy lists the host, a displaced
    /// block delists it.
    pub fn note_unified_insert(&mut self, host: u16, addr: BlockAddr, ins: &UnifiedInsert) {
        if !ins.already_present {
            self.add(addr, host);
        }
        if let Some(ev) = ins.evicted {
            self.remove(ev.addr, host);
        }
    }

    /// Delists every holder of `addr` except `keep`, calling `drop_copy`
    /// on each one (which must remove that host's copies). `keep` stays
    /// listed if it was.
    pub fn invalidate(&mut self, addr: BlockAddr, keep: u16, mut drop_copy: impl FnMut(u16)) {
        let Entry::Occupied(mut slot) = self.map.entry(addr.to_u64()) else {
            return;
        };
        let h = *slot.get();
        let mut kept = false;
        for &id in h.ids(&self.slab) {
            if id == keep {
                kept = true;
            } else {
                drop_copy(id);
            }
        }
        if kept {
            *slot.get_mut() = Holders::one(keep);
        } else {
            slot.remove();
        }
        if h.spill != NIL {
            self.recycle(h.spill);
        }
    }

    /// Lists `host` as a holder of `addr` (no-op if already listed).
    fn add(&mut self, addr: BlockAddr, host: u16) {
        let h = match self.map.entry(addr.to_u64()) {
            Entry::Vacant(v) => {
                v.insert(Holders::one(host));
                return;
            }
            Entry::Occupied(o) => o.into_mut(),
        };
        if h.ids(&self.slab).contains(&host) {
            return;
        }
        let n = usize::from(h.len);
        if h.spill != NIL {
            self.slab[h.spill as usize].push(host);
        } else if n < INLINE {
            h.inline[n] = host;
        } else {
            let s = match self.free.pop() {
                Some(s) => s,
                None => {
                    self.slab.push(Vec::new());
                    u32::try_from(self.slab.len() - 1).expect("slab fits u32 indices")
                }
            };
            let v = &mut self.slab[s as usize];
            v.extend_from_slice(&h.inline);
            v.push(host);
            h.spill = s;
        }
        h.len += 1;
    }

    /// Delists `host` as a holder of `addr` (no-op if not listed); the
    /// last holder takes its position and an emptied entry is removed.
    fn remove(&mut self, addr: BlockAddr, host: u16) {
        let Entry::Occupied(mut slot) = self.map.entry(addr.to_u64()) else {
            return;
        };
        let h = slot.get_mut();
        if h.spill == NIL {
            let n = usize::from(h.len);
            let Some(pos) = h.inline[..n].iter().position(|&id| id == host) else {
                return;
            };
            if n == 1 {
                slot.remove();
                return;
            }
            h.inline[pos] = h.inline[n - 1];
        } else {
            let v = &mut self.slab[h.spill as usize];
            let Some(pos) = v.iter().position(|&id| id == host) else {
                return;
            };
            v.swap_remove(pos);
            if v.len() == INLINE {
                h.inline.copy_from_slice(v);
                v.clear();
                self.free.push(std::mem::replace(&mut h.spill, NIL));
            }
        }
        h.len -= 1;
    }

    /// Returns slab slot `s` to the free list, emptied.
    fn recycle(&mut self, s: u32) {
        self.slab[s as usize].clear();
        self.free.push(s);
    }

    /// The listed holders of `addr`, in listing order.
    #[cfg(test)]
    fn holders(&self, addr: BlockAddr) -> Vec<u16> {
        self.map
            .get(&addr.to_u64())
            .map_or_else(Vec::new, |h| h.ids(&self.slab).to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcache_cache::{BlockCache, UnifiedCache};
    use fcache_types::FileId;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// One model host: layered tiers, or a unified cache.
    enum Tiers {
        Layered { ram: BlockCache, flash: BlockCache },
        Unified(UnifiedCache),
    }

    impl Tiers {
        fn holds(&self, addr: BlockAddr) -> bool {
            match self {
                Tiers::Layered { ram, flash } => ram.contains(addr) || flash.contains(addr),
                Tiers::Unified(u) => u.contains(addr),
            }
        }

        fn drop_copy(&mut self, addr: BlockAddr) -> bool {
            match self {
                Tiers::Layered { ram, flash } => {
                    let r = ram.remove(addr).is_some();
                    flash.remove(addr).is_some() || r
                }
                Tiers::Unified(u) => u.remove(addr).is_some(),
            }
        }
    }

    fn addr(i: u32) -> BlockAddr {
        BlockAddr::new(FileId(i % 5), i / 5)
    }

    /// Drives real caches through random inserts (with the evictions they
    /// cause) and invalidating writes, reporting every transition to the
    /// directory, and checks the directory against a brute-force scan of
    /// every host's tiers after each step. Host slots are spread over
    /// `0..slot_span` so large ids (≥ 128) are exercised.
    fn run_model(seed: u64, hosts: usize, slot_span: u16, blocks: u32, steps: usize) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let slot_of = |i: usize| (i as u64 * u64::from(slot_span) / hosts as u64) as u16;
        let mut tiers: Vec<Tiers> = (0..hosts)
            .map(|i| {
                if i % 3 == 2 {
                    Tiers::Unified(UnifiedCache::new(2, 5))
                } else {
                    Tiers::Layered {
                        ram: BlockCache::new(3),
                        flash: BlockCache::new(7),
                    }
                }
            })
            .collect();
        let mut dir = SharerDirectory::new();
        let mut max_holders = 0;
        for _ in 0..steps {
            let host = rng.gen_range(0..hosts);
            let a = addr(rng.gen_range(0..blocks));
            let mut touched = vec![a];
            match rng.gen_range(0..4) {
                0 => {
                    // An invalidating write: every other holder loses its
                    // copies.
                    let mut dropped = Vec::new();
                    dir.invalidate(a, slot_of(host), |slot| dropped.push(slot));
                    let mut want: Vec<u16> = (0..hosts)
                        .filter(|&i| i != host && tiers[i].holds(a))
                        .map(slot_of)
                        .collect();
                    dropped.sort_unstable();
                    want.sort_unstable();
                    assert_eq!(dropped, want, "invalidation visits exactly the holders");
                    for &slot in &dropped {
                        let i = (0..hosts).find(|&i| slot_of(i) == slot).unwrap();
                        assert!(tiers[i].drop_copy(a));
                    }
                }
                k => {
                    let dirty = k == 1;
                    match &mut tiers[host] {
                        Tiers::Unified(u) => {
                            let ins = u.insert(a, dirty);
                            if let Some(ev) = ins.evicted {
                                touched.push(ev.addr);
                            }
                            dir.note_unified_insert(slot_of(host), a, &ins);
                        }
                        Tiers::Layered { ram, flash } => {
                            // Both tiers, so blocks often sit in RAM and
                            // flash at once and one tier's eviction must
                            // not delist a block the other still holds.
                            let into_ram = rng.gen_bool(0.5);
                            let outcome = if into_ram {
                                ram.insert(a, dirty)
                            } else {
                                flash.insert(a, dirty)
                            };
                            if let InsertOutcome::InsertedEvicting(ev) = outcome {
                                touched.push(ev.addr);
                            }
                            let (ram, flash) = (&*ram, &*flash);
                            dir.note_insert(slot_of(host), a, outcome, |v| {
                                ram.contains(v) || flash.contains(v)
                            });
                        }
                    }
                }
            }
            for &t in &touched {
                let mut got = dir.holders(t);
                let mut want: Vec<u16> = (0..hosts)
                    .filter(|&i| tiers[i].holds(t))
                    .map(slot_of)
                    .collect();
                max_holders = max_holders.max(got.len());
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "holders of {t:?}");
            }
        }
        // Every block, not just the last step's: nothing stale anywhere.
        for i in 0..blocks {
            let mut got = dir.holders(addr(i));
            got.sort_unstable();
            let want: Vec<u16> = (0..hosts)
                .filter(|&h| tiers[h].holds(addr(i)))
                .map(slot_of)
                .collect();
            assert_eq!(got, want);
        }
        assert!(
            dir.map.values().all(|h| h.len > 0),
            "no empty entries linger"
        );
        if hosts > 2 * INLINE {
            assert!(
                max_holders > 2 * INLINE,
                "large spilled sets were exercised"
            );
        }
    }

    #[test]
    fn matches_brute_force_few_hosts() {
        for seed in 0..20 {
            run_model(seed, 3, 3, 12, 2_000);
        }
    }

    #[test]
    fn matches_brute_force_with_spilled_sets_and_high_slots() {
        for seed in 0..8 {
            run_model(100 + seed, 40, 1000, 6, 6_000);
        }
    }

    #[test]
    fn spilled_sets_shrink_back_inline_and_recycle_slab_vecs() {
        let mut dir = SharerDirectory::new();
        let a = addr(1);
        let b = addr(2);
        for host in 0..30u16 {
            dir.add(a, host * 37);
        }
        dir.add(a, 37); // already listed
        assert_eq!(dir.holders(a).len(), 30);
        assert_eq!(dir.slab.len(), 1);
        for host in 4..30u16 {
            dir.remove(a, host * 37);
        }
        dir.remove(a, 5); // not listed
        let mut left = dir.holders(a);
        left.sort_unstable();
        assert_eq!(left, vec![0, 37, 74, 111]);
        let h = dir.map[&a.to_u64()];
        assert_eq!((h.len, h.spill), (4, NIL), "back inline");
        assert_eq!(dir.free, vec![0], "its slab Vec is recycled");
        // Growing another block past the inline slots reuses that Vec.
        for host in 0..20u16 {
            dir.add(b, 1000 + host);
        }
        assert_eq!(dir.slab.len(), 1);
        assert!(dir.free.is_empty());
        let mut dropped = Vec::new();
        dir.invalidate(a, 37, |h| dropped.push(h));
        dropped.sort_unstable();
        assert_eq!(dropped, vec![0, 74, 111]);
        assert_eq!(dir.holders(a), vec![37]);
        dir.invalidate(b, 7, |_| {});
        assert!(dir.holders(b).is_empty());
        assert!(!dir.map.contains_key(&b.to_u64()));
        assert_eq!(dir.free, vec![0]);
        assert!(dir.slab[0].is_empty());
    }
}
