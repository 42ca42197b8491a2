//! Per-host simulation state.

use std::cell::{Cell, OnceCell, RefCell};
use std::rc::{Rc, Weak};

use fcache_cache::{BlockCache, InsertOutcome, UnifiedCache, UnifiedInsert};
use fcache_des::Sim;
use fcache_device::IoLog;
use fcache_net::Segment;
use fcache_types::{BlockAddr, FxHashSet, HostId};

use fcache_remote::ShardedStore;

use crate::config::SimConfig;
use crate::devsvc::DeviceService;
use crate::flush::FlushQueue;
use crate::metrics::Metrics;
use crate::robust::FaultCtx;
use crate::sharers::SharerDirectory;
use crate::telemetry::TelemetryCtx;

/// Fewest hosts for which a run keeps a sharer directory. The directory
/// costs a map update on every cache insert and eviction; the scan it
/// replaces costs a probe of every peer's caches per written block. On
/// hosts sharing one working set with 30–60 % writes (naive, lookaside and
/// unified; 2-vCPU x86-64 box) the directory was 11–39 % slower than the
/// scan at 2 hosts, slower in 11 of 12 cases at 4–8 hosts, within ±5 % at
/// 16 and 8–27 % faster at 32.
const DIRECTORY_MIN_HOSTS: u16 = 16;

/// The hosts of one multi-host run, shared by every host of the run, and —
/// from [`DIRECTORY_MIN_HOSTS`] hosts up — the sharer directory over their
/// caches. A one-host run has no peers to invalidate and builds none.
pub(crate) struct Peers {
    /// Every host of the run, indexed by `HostCtx::id` (weak: the hosts
    /// own this registry).
    hosts: OnceCell<Vec<Weak<HostCtx>>>,
    /// Which hosts' caches hold each block (see `crate::sharers`); `None`
    /// below [`DIRECTORY_MIN_HOSTS`], where invalidation scans every peer.
    dir: Option<RefCell<SharerDirectory>>,
}

impl Peers {
    /// An empty registry for a run of `n_hosts` hosts;
    /// [`Peers::register`] fills it once the run's hosts exist.
    pub fn new(n_hosts: u16) -> Self {
        Self {
            hosts: OnceCell::new(),
            dir: (n_hosts >= DIRECTORY_MIN_HOSTS).then(|| RefCell::new(SharerDirectory::new())),
        }
    }

    /// Registers the run's hosts, in `HostId` order.
    pub fn register(&self, hosts: &[Rc<HostCtx>]) {
        let weak = hosts.iter().map(Rc::downgrade).collect();
        assert!(self.hosts.set(weak).is_ok(), "hosts registered twice");
    }

    fn hosts(&self) -> impl Iterator<Item = Rc<HostCtx>> + '_ {
        self.hosts
            .get()
            .into_iter()
            .flatten()
            .filter_map(Weak::upgrade)
    }
}

/// This host's view of the storage backend: the shared store plus one
/// private segment per shard (the host's network link to that backend).
/// The default topology is one shard with one replica — the paper's
/// single filer behind one wire (PERF.md invariant 11).
pub(crate) struct RemoteCtx {
    /// The shared backend (filers, schedules, replication bookkeeping);
    /// one instance per run.
    pub store: Rc<ShardedStore>,
    /// Per-shard segments, indexed by shard (shared across a fan-in
    /// group).
    pub segments: Vec<Segment>,
    /// Scaled hedge delay in simulated ns (`None` disables hedging).
    pub hedge_ns: Option<u64>,
}

/// Everything one compute server ("host") owns in the simulation.
///
/// Caches live in `RefCell`s; engine code never holds a borrow across an
/// await point. In a multi-host run every host shares one [`Peers`]
/// registry: the run's host list plus, from [`DIRECTORY_MIN_HOSTS`] hosts
/// up, the sharer directory recording which hosts' caches hold each block,
/// which the engine updates on every insert and eviction so that a write
/// invalidates only the holders.
pub(crate) struct HostCtx {
    /// Host identity.
    pub id: HostId,
    /// Simulation handle.
    pub sim: Sim,
    /// Shared configuration.
    pub cfg: Rc<SimConfig>,
    /// RAM tier (naive/lookaside; capacity may be zero).
    pub ram: RefCell<BlockCache>,
    /// Flash tier (naive/lookaside; capacity may be zero).
    pub flash: RefCell<BlockCache>,
    /// Unified cache (only for [`crate::Architecture::Unified`]).
    pub unified: Option<RefCell<UnifiedCache>>,
    /// Shared metrics sink.
    pub metrics: Metrics,
    /// Flash I/O log (for Figure 1 replay; usually disabled). The device
    /// service holds a clone and appends every flash access it times.
    pub iolog: IoLog,
    /// Flash device timing service: every flash read/write the engine
    /// performs is charged through it (flat Table 1 latencies by default,
    /// or the queue-aware SSD model — see `crate::devsvc`).
    pub dev: DeviceService,
    /// Blocks with an asynchronous RAM-tier flush in flight (dedupe).
    pub ram_flush_pending: RefCell<FxHashSet<u64>>,
    /// Blocks with an asynchronous flash-tier flush in flight (dedupe).
    pub flash_flush_pending: RefCell<FxHashSet<u64>>,
    /// The run's hosts (and sharer directory, if it keeps one), for
    /// instant cache-consistency invalidation. `None` in a one-host run.
    pub peers: Option<Rc<Peers>>,
    /// Set once the first measured (non-warmup) operation issues; flipping
    /// it resets all statistics.
    pub warmup_over: Rc<Cell<bool>>,
    /// Reusable `Vec<BlockAddr>` pool for per-op scratch (miss lists, hit
    /// lists) and syncer dirty-set snapshots. Once the pool has warmed up
    /// to the host's concurrency level, the simulate-one-op path performs
    /// no heap allocation (see `PERF.md`).
    pub buf_pool: RefCell<Vec<Vec<BlockAddr>>>,
    /// Asynchronous write-through flush queue, drained by a converging pool
    /// of long-lived worker daemons (see `crate::flush`): policy `a` runs
    /// allocation-free once the pool has grown to the peak concurrency.
    pub flushq: FlushQueue,
    /// Fault-injection context (resolved schedules, retry parameters,
    /// shared robustness counters). `None` — the default — means every
    /// fault-aware path collapses to its pre-fault form (see
    /// `crate::robust`).
    pub fault: Option<Rc<FaultCtx>>,
    /// The storage backend (router, replicas, per-shard segments); every
    /// miss and write-back goes through it.
    pub remote: RemoteCtx,
    /// Sim-time telemetry collector (op spans, unified windows, span
    /// stream). `None` — the default — makes every instrumentation hook a
    /// no-op, the literal pre-telemetry code path (PERF.md invariant 12).
    pub telemetry: Option<Rc<TelemetryCtx>>,
}

impl HostCtx {
    /// Takes a cleared scratch buffer from the pool (or allocates the
    /// pool's first few on a cold start).
    pub fn take_buf(&self) -> Vec<BlockAddr> {
        self.buf_pool.borrow_mut().pop().unwrap_or_default()
    }

    /// Returns a scratch buffer to the pool for reuse.
    pub fn put_buf(&self, mut buf: Vec<BlockAddr>) {
        buf.clear();
        self.buf_pool.borrow_mut().push(buf);
    }
    /// True if this host has a RAM cache tier.
    pub fn has_ram(&self) -> bool {
        self.cfg.ram_blocks() > 0
    }

    /// True if this host has a flash cache tier.
    pub fn has_flash(&self) -> bool {
        self.cfg.flash_blocks() > 0
    }

    /// Current cache occupancy as `(dirty blocks, cached blocks)` across
    /// whichever tiers this host's architecture uses — the telemetry
    /// window dirty-ratio sample.
    pub fn cache_occupancy(&self) -> (u64, u64) {
        if let Some(u) = &self.unified {
            let u = u.borrow();
            (u.dirty_len() as u64, u.len() as u64)
        } else {
            let ram = self.ram.borrow();
            let flash = self.flash.borrow();
            (
                (ram.dirty_len() + flash.dirty_len()) as u64,
                (ram.len() + flash.len()) as u64,
            )
        }
    }

    /// True if any of this host's cache tiers holds `addr`.
    fn holds(&self, addr: BlockAddr) -> bool {
        self.ram.borrow().contains(addr)
            || self.flash.borrow().contains(addr)
            || self
                .unified
                .as_ref()
                .is_some_and(|u| u.borrow().contains(addr))
    }

    /// Removes `addr` from every tier of this host; true if any held it.
    fn drop_copy(&self, addr: BlockAddr) -> bool {
        let mut held = self.ram.borrow_mut().remove(addr).is_some();
        held |= self.flash.borrow_mut().remove(addr).is_some();
        if let Some(u) = &self.unified {
            held |= u.borrow_mut().remove(addr).is_some();
        }
        held
    }

    /// The run's sharer directory, if it keeps one.
    fn directory(&self) -> Option<&RefCell<SharerDirectory>> {
        self.peers.as_ref()?.dir.as_ref()
    }

    /// Records a RAM or flash insert's outcome in the sharer directory:
    /// a new copy lists this host, and an evicted victim delists it once
    /// no tier holds the block.
    pub fn note_insert(&self, addr: BlockAddr, outcome: InsertOutcome) {
        if let Some(dir) = self.directory() {
            dir.borrow_mut()
                .note_insert(self.id.0, addr, outcome, |victim| self.holds(victim));
        }
    }

    /// Records a unified-cache insert's outcome in the sharer directory.
    pub fn note_unified_insert(&self, addr: BlockAddr, ins: &UnifiedInsert) {
        if let Some(dir) = self.directory() {
            dir.borrow_mut().note_unified_insert(self.id.0, addr, ins);
        }
    }

    /// Invalidates copies of `addr` held by *other* hosts (instant, global
    /// knowledge, §3.8); returns how many hosts held a copy. With a sharer
    /// directory only the hosts it lists as holders are visited, and they
    /// are delisted; debug builds cross-check that no unlisted peer holds
    /// the block. Without one every peer's caches are probed.
    pub fn invalidate_peers(&self, addr: BlockAddr) -> u64 {
        let Some(peers) = &self.peers else {
            return 0;
        };
        let Some(dir) = &peers.dir else {
            return peers
                .hosts()
                .filter(|p| p.id != self.id)
                .map(|p| u64::from(p.drop_copy(addr)))
                .sum();
        };
        let hosts = peers.hosts.get().expect("hosts registered at build");
        let mut count = 0u64;
        dir.borrow_mut().invalidate(addr, self.id.0, |id| {
            if let Some(peer) = hosts[usize::from(id)].upgrade() {
                let held = peer.drop_copy(addr);
                debug_assert!(
                    held,
                    "directory lists host {id} for {addr:?} without a copy"
                );
                count += u64::from(held);
            }
        });
        #[cfg(debug_assertions)]
        for peer in peers.hosts().filter(|p| p.id != self.id) {
            assert!(
                !peer.holds(addr),
                "host {:?} holds {addr:?} but the directory does not list it",
                peer.id
            );
        }
        count
    }

    /// Flips the warmup flag on the first measured op, resetting every
    /// statistics counter so that "statistics are not collected" for the
    /// warmup half of the trace (§4).
    pub fn maybe_end_warmup(&self) {
        if self.warmup_over.get() {
            return;
        }
        self.warmup_over.set(true);
        match &self.peers {
            Some(peers) => peers.hosts().for_each(|h| h.reset_stats()),
            None => self.reset_stats(),
        }
        self.remote.store.reset_service_stats();
    }

    fn reset_stats(&self) {
        self.ram.borrow_mut().reset_stats();
        self.flash.borrow_mut().reset_stats();
        if let Some(u) = &self.unified {
            u.borrow_mut().reset_stats();
        }
        // Outside a fleet every host shares one metrics sink, so the
        // peers' resets just repeat harmlessly (the whole warmup-end
        // sequence is synchronous); in a fleet each host resets its own.
        self.metrics.reset();
        for seg in &self.remote.segments {
            seg.reset_stats();
        }
        self.dev.reset_stats();
        // Robustness counters are NOT reset: like `device_windows` and
        // `degraded_time`, they cover the whole run including warmup —
        // fault handling, not steady-state latency, is what they measure.
        // (Resetting them would also tear counts for ops parked across
        // the warmup boundary: entry counted before the reset, completion
        // after, leaving ok > ops in the window tallies.)
    }
}

impl std::fmt::Debug for HostCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostCtx")
            .field("id", &self.id)
            .field("ram", &self.ram.borrow())
            .field("flash", &self.flash.borrow())
            .finish()
    }
}
