//! The simulation engine: per-architecture read/write paths, writeback
//! machinery, and syncer daemons.
//!
//! Every path here follows the paper's §3 design descriptions; quotes in
//! comments mark the load-bearing sentences.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use fcache_cache::{InsertOutcome, Medium};
use fcache_des::SimTime;
use fcache_net::Direction;
use fcache_types::{BlockAddr, FaultError, FaultKind, OpKind, Phase, TraceOp, BLOCK_SIZE};

use crate::arch::Architecture;
use crate::flush::{self, FlushReq, FlushTarget};
use crate::host::{HostCtx, RemoteCtx};
use crate::policy::WritebackPolicy;
use crate::robust::{DegradedPolicy, FaultCtx, RobustnessState};
use crate::telemetry::{enter, OpSpan};

/// Where the data being flushed currently lives, which decides what the
/// flush costs before the network leg.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum FlushSource {
    /// Data is in RAM or "in hand" (write-through with the payload still in
    /// the requester's context): only the wire + filer cost applies.
    InHand,
    /// Data must first be read off the flash device.
    Flash,
}

/// Executes one trace operation, returning its application latency.
pub(crate) async fn execute_op(h: &Rc<HostCtx>, op: &TraceOp) -> SimTime {
    if !op.warmup() {
        h.maybe_end_warmup();
    }
    let t0 = h.sim.now();
    // A span exists only for measured ops on telemetry-enabled runs; the
    // default threads `None` through every hook below, which is a no-op —
    // the literal pre-telemetry path (PERF.md invariant 12).
    let span = h
        .telemetry
        .as_ref()
        .filter(|_| !op.warmup())
        .map(|_| OpSpan::new(t0));
    let sp = span.as_ref();
    match (op.kind(), h.cfg.arch) {
        (OpKind::Read, Architecture::Unified) => read_unified(h, op, sp).await,
        (OpKind::Read, _) => read_layered(h, op, sp).await,
        (OpKind::Write, Architecture::Unified) => write_unified(h, op, sp).await,
        (OpKind::Write, _) => write_layered(h, op, sp).await,
    }
    let latency = h.sim.now() - t0;
    if !op.warmup() {
        h.metrics.record_op(op.kind(), latency, op.nblocks());
        if let (Some(t), Some(sp)) = (&h.telemetry, sp) {
            t.complete_op(h, op, sp, h.sim.now());
        }
    }
    latency
}

// ---------------------------------------------------------------------------
// Read paths
// ---------------------------------------------------------------------------

/// Naive / lookaside read: RAM, then flash, then the filer; fetched blocks
/// are "first placed in flash, then into RAM" (§3.2).
async fn read_layered(h: &Rc<HostCtx>, op: &TraceOp, sp: Option<&OpSpan>) {
    // RAM stage: hits pay the RAM read latency; misses fall through. The
    // miss/hit lists live in pooled buffers so the per-op path performs no
    // heap allocation after pool warmup.
    let mut ram_misses = h.take_buf();
    let mut wait = SimTime::ZERO;
    if h.has_ram() {
        let mut ram = h.ram.borrow_mut();
        for b in op.blocks() {
            if ram.lookup(b) {
                wait += h.cfg.ram_model.read;
                if h.cfg.inclusive_promotion && h.has_flash() {
                    // Keep the flash LRU order a superset of RAM recency so
                    // the subset property holds without management (§3.3).
                    h.flash.borrow_mut().promote(b);
                }
            } else {
                ram_misses.push(b);
            }
        }
    } else {
        ram_misses.extend(op.blocks());
    }
    if wait > SimTime::ZERO {
        h.sim.sleep(wait).await;
    }
    if ram_misses.is_empty() {
        if let Some(s) = sp {
            s.note_blocks(u64::from(op.nblocks()), 0);
        }
        h.put_buf(ram_misses);
        return;
    }

    // Flash stage.
    let mut flash_hits = h.take_buf();
    let mut filer_misses = h.take_buf();
    if h.has_flash() {
        let mut flash = h.flash.borrow_mut();
        for b in &ram_misses {
            if flash.lookup(*b) {
                flash_hits.push(*b);
            } else {
                filer_misses.push(*b);
            }
        }
    } else {
        std::mem::swap(&mut filer_misses, &mut ram_misses);
    }
    // Device time for the flash hits goes through the timing service:
    // flat mode charges one combined sleep (as the paper's model always
    // did), SSD mode services each block through the bounded device queue.
    h.dev.read_batch(&flash_hits, sp).await;

    // Filer stage: "each I/O request uses one packet in each direction"
    // (§5) — one request covers every block this op still misses.
    let miss_count = filer_misses.len() as u64;
    if !filer_misses.is_empty() {
        let fetched = remote_fetch(h, &filer_misses, sp).await;
        if fetched {
            if h.has_flash() && h.cfg.populate_flash_on_read {
                for &b in filer_misses.iter() {
                    flash_insert(h, b, false, sp).await;
                }
            }
        } else {
            // Failed-fast miss: no data arrived, so nothing to cache.
            filer_misses.clear();
        }
    }
    if let Some(s) = sp {
        // `filer_misses` was cleared on a failed fetch, so its length is
        // the blocks that actually arrived from the backend; failed blocks
        // count as neither hit nor fetch.
        s.note_blocks(
            u64::from(op.nblocks()) - miss_count,
            filer_misses.len() as u64,
        );
    }

    // Fill RAM with everything that missed it.
    if h.has_ram() {
        for &b in flash_hits.iter().chain(filer_misses.iter()) {
            ram_insert(h, b, false, sp).await;
        }
    }
    h.put_buf(ram_misses);
    h.put_buf(flash_hits);
    h.put_buf(filer_misses);
}

/// Unified read: one lookup against the single LRU chain; hits pay the
/// latency of whichever medium the frame lives in.
async fn read_unified(h: &Rc<HostCtx>, op: &TraceOp, sp: Option<&OpSpan>) {
    let unified = h
        .unified
        .as_ref()
        .expect("unified arch has a unified cache");
    let mut wait = SimTime::ZERO;
    let mut misses = h.take_buf();
    let mut flash_hits = h.take_buf();
    {
        let mut u = unified.borrow_mut();
        for b in op.blocks() {
            match u.lookup(b) {
                Some(Medium::Ram) => wait += h.cfg.ram_model.read,
                Some(Medium::Flash) => match h.dev.try_flat_read(b) {
                    // Flat timing folds into the one combined sleep below,
                    // exactly as before the device service existed.
                    Some(lat) => wait += lat,
                    // Queue-aware timing: the hit must be serviced by the
                    // device queue, which cannot happen under the cache
                    // borrow — collect it for after the loop.
                    None => flash_hits.push(b),
                },
                None => misses.push(b),
            }
        }
    }
    if wait > SimTime::ZERO {
        h.sim.sleep(wait).await;
    }
    // Queue-aware flash hits overlap through the NCQ as one batch, the
    // same as the layered read path.
    h.dev.read_batch(&flash_hits, sp).await;
    h.put_buf(flash_hits);
    if misses.is_empty() {
        if let Some(s) = sp {
            s.note_blocks(u64::from(op.nblocks()), 0);
        }
        h.put_buf(misses);
        return;
    }
    let miss_count = misses.len() as u64;
    let fetched = remote_fetch(h, &misses, sp).await;
    if let Some(s) = sp {
        s.note_blocks(
            u64::from(op.nblocks()) - miss_count,
            if fetched { miss_count } else { 0 },
        );
    }
    if fetched {
        for &b in misses.iter() {
            unified_insert(h, b, false, sp).await;
        }
    }
    h.put_buf(misses);
}

// ---------------------------------------------------------------------------
// Write paths
// ---------------------------------------------------------------------------

/// Naive / lookaside write: into RAM, then onward per the tier policies.
async fn write_layered(h: &Rc<HostCtx>, op: &TraceOp, sp: Option<&OpSpan>) {
    for b in op.blocks() {
        let invalidated = h.invalidate_peers(b);
        if !op.warmup() {
            h.metrics.record_block_write(invalidated);
        }
        if h.has_ram() {
            ram_insert(h, b, true, sp).await;
            match h.cfg.ram_policy {
                WritebackPolicy::WriteThrough => {
                    if filer_down(h) {
                        // Degraded mode: the filer is unreachable, so the
                        // blocking write-through falls back to writeback-style
                        // buffering — the flush queue holds the block and
                        // drains once the outage clears (§ISSUE 6).
                        buffered_write(h);
                        spawn_ram_flush(h, b);
                    } else {
                        flush_ram_block(h, b, sp).await;
                    }
                }
                WritebackPolicy::AsyncWriteThrough => spawn_ram_flush(h, b),
                WritebackPolicy::Periodic(_) | WritebackPolicy::None => {}
            }
        } else if h.has_flash() && h.cfg.arch == Architecture::Naive {
            // No RAM tier: writes land directly in flash (§7.5's zero-RAM
            // configuration) and the flash policy governs.
            flash_insert(h, b, true, sp).await;
        } else {
            // No cache at all (or lookaside without RAM): synchronous
            // write to the filer; lookaside additionally updates flash.
            flush_to_filer(h, b, FlushSource::InHand, sp).await;
            if h.has_flash() && h.cfg.arch == Architecture::Lookaside {
                flash_insert(h, b, false, sp).await;
            }
        }
    }
}

/// Unified write: overwrite in place on a hit, else claim the LRU frame;
/// either way the block's frame medium sets the cost and its tier policy
/// governs the writeback.
async fn write_unified(h: &Rc<HostCtx>, op: &TraceOp, sp: Option<&OpSpan>) {
    for b in op.blocks() {
        let invalidated = h.invalidate_peers(b);
        if !op.warmup() {
            h.metrics.record_block_write(invalidated);
        }
        unified_insert(h, b, true, sp).await;
    }
}

// ---------------------------------------------------------------------------
// Tier insert helpers (pay device time, handle dirty evictions)
// ---------------------------------------------------------------------------

/// Inserts a block into RAM, paying the RAM write latency. A dirty LRU
/// victim is written back synchronously first — this stall is the source of
/// the `none`-policy convoys ("synchronous evictions once the cache fills",
/// §7.1).
async fn ram_insert(h: &Rc<HostCtx>, addr: BlockAddr, dirty: bool, sp: Option<&OpSpan>) {
    enter(sp, &h.sim, Phase::CacheProbe);
    h.sim.sleep(h.cfg.ram_model.write).await;
    let outcome = h.ram.borrow_mut().insert(addr, dirty);
    h.note_insert(addr, outcome);
    if let InsertOutcome::InsertedEvicting(ev) = outcome {
        if ev.dirty {
            evicted_ram_writeback(h, ev.addr, sp).await;
        }
    }
}

/// Writes an evicted dirty RAM block down a level: to flash in the naive
/// architecture, directly to the filer in lookaside (updating flash after).
async fn evicted_ram_writeback(h: &Rc<HostCtx>, addr: BlockAddr, sp: Option<&OpSpan>) {
    match h.cfg.arch {
        Architecture::Naive if h.has_flash() => {
            flash_insert(h, addr, true, sp).await;
        }
        _ => {
            // Lookaside, or naive with no flash tier: straight to the filer.
            flush_to_filer(h, addr, FlushSource::InHand, sp).await;
            if h.has_flash() && h.cfg.arch == Architecture::Lookaside {
                flash_insert(h, addr, false, sp).await;
            }
        }
    }
}

/// Inserts a block into flash, paying the flash write latency. Evicting a
/// dirty flash victim forces a synchronous writeback to the filer. If the
/// inserted block is dirty, the flash writeback policy reacts.
async fn flash_insert(h: &Rc<HostCtx>, addr: BlockAddr, dirty: bool, sp: Option<&OpSpan>) {
    h.dev.write(addr, sp).await;
    let outcome = h.flash.borrow_mut().insert(addr, dirty);
    h.note_insert(addr, outcome);
    if let InsertOutcome::InsertedEvicting(ev) = outcome {
        if ev.dirty {
            flush_to_filer(h, ev.addr, FlushSource::Flash, sp).await;
        }
    }
    if dirty {
        on_flash_dirtied(h, addr, sp).await;
    }
}

/// Applies the flash writeback policy to a block that just became dirty in
/// flash.
async fn on_flash_dirtied(h: &Rc<HostCtx>, addr: BlockAddr, sp: Option<&OpSpan>) {
    match h.cfg.flash_policy {
        WritebackPolicy::WriteThrough => {
            if filer_down(h) {
                // Degraded mode: keep the block dirty in flash and let the
                // flush queue drain it after the outage.
                buffered_write(h);
                spawn_flash_flush(h, addr);
                return;
            }
            // Blocking write-through; the payload is still in hand.
            h.flash.borrow_mut().mark_clean(addr);
            flush_to_filer(h, addr, FlushSource::InHand, sp).await;
        }
        WritebackPolicy::AsyncWriteThrough => spawn_flash_flush(h, addr),
        WritebackPolicy::Periodic(_) | WritebackPolicy::None => {}
    }
}

/// Inserts into the unified cache: pays the landing medium's write cost,
/// flushes a dirty victim, and applies the landing tier's policy when the
/// block is dirty.
async fn unified_insert(h: &Rc<HostCtx>, addr: BlockAddr, dirty: bool, sp: Option<&OpSpan>) {
    let ins = h
        .unified
        .as_ref()
        .expect("unified cache")
        .borrow_mut()
        .insert(addr, dirty);
    h.note_unified_insert(addr, &ins);
    match ins.medium {
        Medium::Ram => {
            enter(sp, &h.sim, Phase::CacheProbe);
            h.sim.sleep(h.cfg.ram_model.write).await;
        }
        Medium::Flash => h.dev.write(addr, sp).await,
    }
    if let Some(ev) = ins.evicted {
        if ev.dirty {
            let src = match ev.medium {
                Medium::Ram => FlushSource::InHand,
                Medium::Flash => FlushSource::Flash,
            };
            flush_to_filer(h, ev.addr, src, sp).await;
        }
    }
    if dirty {
        let policy = match ins.medium {
            Medium::Ram => h.cfg.ram_policy,
            Medium::Flash => h.cfg.flash_policy,
        };
        match policy {
            WritebackPolicy::WriteThrough => {
                if filer_down(h) {
                    buffered_write(h);
                    spawn_unified_flush(h, addr, ins.medium);
                    return;
                }
                h.unified
                    .as_ref()
                    .expect("unified cache")
                    .borrow_mut()
                    .mark_clean(addr);
                flush_to_filer(h, addr, FlushSource::InHand, sp).await;
            }
            WritebackPolicy::AsyncWriteThrough => spawn_unified_flush(h, addr, ins.medium),
            WritebackPolicy::Periodic(_) | WritebackPolicy::None => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Degraded mode and retries (see `crate::robust`)
// ---------------------------------------------------------------------------

/// True when the filer fault schedule has an outage open right now. Always
/// false without a fault plan, so write-through degradation never engages
/// on fault-free runs.
fn filer_down(h: &HostCtx) -> bool {
    h.fault
        .as_ref()
        .is_some_and(|f| f.set.filer.outage_until(h.sim.now().as_nanos()).is_some())
}

/// Counts one write-through write degraded to buffered writeback.
fn buffered_write(h: &HostCtx) {
    if let Some(f) = &h.fault {
        RobustnessState::bump(&f.state.buffered_writes);
    }
}

/// Parks an op whose replicas `shards` are all down until the first of
/// them returns, counting it as queued (degraded-mode queueing). Outages
/// only exist under a fault plan, so the fault ctx is present.
async fn park_until_live(h: &Rc<HostCtx>, shards: impl Iterator<Item = u16>, sp: Option<&OpSpan>) {
    let f = h.fault.as_ref().expect("outages require a fault plan");
    let now = h.sim.now().as_nanos();
    let clear = shards
        .filter_map(|s| h.remote.store.outage_until(s, now))
        .min()
        .unwrap_or(now);
    RobustnessState::bump(&f.state.queued_ops);
    let wait = SimTime::from_nanos(clear).saturating_sub(h.sim.now());
    enter(sp, &h.sim, Phase::DegradedPark);
    h.sim.sleep(wait.max(SimTime::from_nanos(1))).await;
}

/// Charges one failed exchange attempt: the per-op timeout, then the
/// jittered exponential backoff before the retry.
async fn failed_attempt(h: &Rc<HostCtx>, f: &FaultCtx, attempt: u32, sp: Option<&OpSpan>) {
    RobustnessState::bump(&f.state.timeouts);
    enter(sp, &h.sim, Phase::RetryBackoff);
    h.sim.sleep(f.op_timeout).await;
    RobustnessState::bump(&f.state.retries);
    if let Some(s) = sp {
        s.note_retry();
    }
    h.sim.sleep(f.backoff(attempt)).await;
}

// ---------------------------------------------------------------------------
// The storage backend (read-any / write-all, hedging, failover)
// ---------------------------------------------------------------------------

/// Fetches a miss list from the backend: the list is partitioned by
/// primary shard and each group is served **read-any** across its replica
/// ring (optionally hedged). Returns whether every group's data arrived.
/// With one shard — the default, the paper's single filer — the whole
/// list is one group: "each I/O request uses one packet in each
/// direction" (§5).
async fn remote_fetch(h: &Rc<HostCtx>, blocks: &[BlockAddr], sp: Option<&OpSpan>) -> bool {
    let router = h.remote.store.router();
    // Window accounting against the backend accounting schedule:
    // filer-wide clauses and shard-local clauses each contribute one
    // distinct window, so availability-per-window covers a single shard's
    // outage as well as a whole-backend one.
    let widx = h.fault.as_ref().map(|f| {
        let w = f.acct.window_index_at(h.sim.now().as_nanos());
        f.state.window_op(w);
        w
    });
    let ok = if router.shards() == 1 {
        fetch_group(h, 0, blocks, sp).await
    } else {
        let mut ok = true;
        let mut group = h.take_buf();
        for k in 0..router.shards() {
            group.clear();
            group.extend(blocks.iter().copied().filter(|b| router.primary(*b) == k));
            if !group.is_empty() && !fetch_group(h, k, &group, sp).await {
                ok = false;
            }
        }
        h.put_buf(group);
        ok
    };
    if let (true, Some(f), Some(w)) = (ok, &h.fault, widx) {
        f.state.window_ok(w);
    }
    ok
}

/// Serves one primary-shard group: pick the first live replica in ring
/// order (counting a failover when it is not the primary), optionally
/// hedge against the next live one, and retry with timeout + jittered
/// backoff on transient failures, up to `max_retries`. A whole-ring
/// outage degrades per [`DegradedPolicy`]; cache hits keep serving
/// either way.
async fn fetch_group(
    h: &Rc<HostCtx>,
    primary: u16,
    blocks: &[BlockAddr],
    sp: Option<&OpSpan>,
) -> bool {
    let r = &h.remote;
    let router = r.store.router();
    let ring = |j: u16| (primary + j) % router.shards();
    let mut attempt: u32 = 0;
    loop {
        let now = h.sim.now().as_nanos();
        let first = (0..router.replicas())
            .map(ring)
            .find(|&s| r.store.live_at(s, now));
        let Some(first) = first else {
            // The whole replica set is down: no replica can serve.
            let f = h.fault.as_ref().expect("outages require a fault plan");
            match f.cfg.degraded {
                DegradedPolicy::Queue => {
                    // Availability first: park the miss until a replica
                    // returns, then fetch. Hits never reach this path.
                    park_until_live(h, (0..router.replicas()).map(ring), sp).await;
                    continue;
                }
                DegradedPolicy::FailFast | DegradedPolicy::Strict => {
                    f.state.op_failed(&shard_outage_clause(r, primary, now));
                    return false;
                }
            }
        };
        // Hedge when configured and a second live replica exists to race.
        let hedge = r.hedge_ns.and_then(|d| {
            (0..router.replicas())
                .map(ring)
                .find(|&s| s != first && r.store.live_at(s, now))
                .map(|s| (s, d))
        });
        let served = match hedge {
            Some((second, delay_ns)) => {
                hedged_exchange(h, first, second, delay_ns, blocks, sp).await
            }
            None => shard_exchange(h, first, blocks, sp).await.map(|()| first),
        };
        match served {
            Ok(winner) => {
                if winner != primary {
                    r.store.note_failover();
                }
                return true;
            }
            Err(e) => {
                let f = h.fault.as_ref().expect("fault-free exchanges cannot fail");
                if attempt >= f.cfg.max_retries {
                    RobustnessState::bump(&f.state.timeouts);
                    enter(sp, &h.sim, Phase::RetryBackoff);
                    h.sim.sleep(f.op_timeout).await;
                    f.state.op_failed(&e.clause);
                    return false;
                }
                attempt += 1;
                failed_attempt(h, f, attempt, sp).await;
            }
        }
    }
}

/// One full miss exchange against shard `shard` over this host's segment
/// to it: request packet out, filer read service, payload packet back.
/// Any leg can fail transiently; a failed leg consumes no service time.
/// Without a fault plan each leg is the plain, infallible one.
async fn shard_exchange(
    h: &Rc<HostCtx>,
    shard: u16,
    blocks: &[BlockAddr],
    sp: Option<&OpSpan>,
) -> Result<(), FaultError> {
    let seg = &h.remote.segments[usize::from(shard)];
    let filer = h.remote.store.filer(shard);
    let n = blocks.len() as u32;
    enter(sp, &h.sim, Phase::Net);
    seg.try_transfer(Direction::ToServer, 0).await?;
    enter(sp, &h.sim, Phase::Filer);
    filer.try_read_blocks(blocks).await?;
    enter(sp, &h.sim, Phase::Net);
    seg.try_transfer(Direction::FromServer, u64::from(n) * BLOCK_SIZE)
        .await
}

/// Shared state of one hedged-read race (see [`hedged_exchange`]).
struct RaceState {
    winner: Cell<Option<u16>>,
    pending: Cell<u8>,
    error: RefCell<Option<FaultError>>,
    waker: RefCell<Option<Waker>>,
}

impl RaceState {
    /// Records one arm's result; returns whether this arm won the race.
    fn arm_done(&self, shard: u16, result: Result<(), FaultError>) -> bool {
        self.pending.set(self.pending.get() - 1);
        let mut won = false;
        match result {
            Ok(()) => {
                if self.winner.get().is_none() {
                    self.winner.set(Some(shard));
                    won = true;
                }
            }
            Err(e) => {
                let mut slot = self.error.borrow_mut();
                if slot.is_none() {
                    *slot = Some(e);
                }
            }
        }
        self.maybe_wake();
        won
    }

    /// An arm that never launched (the race was decided first).
    fn arm_skipped(&self) {
        self.pending.set(self.pending.get() - 1);
        self.maybe_wake();
    }

    fn maybe_wake(&self) {
        if self.winner.get().is_some() || self.pending.get() == 0 {
            if let Some(w) = self.waker.borrow_mut().take() {
                w.wake();
            }
        }
    }
}

/// Resolves at the first arm success — the race's point: the op continues
/// at the winner's latency while the loser finishes in the background —
/// or when every arm has finished without one.
struct RaceDone(Rc<RaceState>);

impl Future for RaceDone {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.0.winner.get().is_some() || self.0.pending.get() == 0 {
            return Poll::Ready(());
        }
        *self.0.waker.borrow_mut() = Some(cx.waker().clone());
        Poll::Pending
    }
}

/// Hedged read: send to `first` immediately; if it has not answered within
/// `delay_ns`, duplicate the request to `second` and take whichever
/// answers first. The late response is not awaited — its shard keeps
/// servicing it in the background (counted as a cancelled hedge when it
/// does arrive after losing).
async fn hedged_exchange(
    h: &Rc<HostCtx>,
    first: u16,
    second: u16,
    delay_ns: u64,
    blocks: &[BlockAddr],
    sp: Option<&OpSpan>,
) -> Result<u16, FaultError> {
    let state = Rc::new(RaceState {
        winner: Cell::new(None),
        pending: Cell::new(2),
        error: RefCell::new(None),
        waker: RefCell::new(None),
    });

    // Primary arm: the ordinary exchange.
    {
        let h2 = Rc::clone(h);
        let st = Rc::clone(&state);
        let mut buf = h.take_buf();
        buf.extend_from_slice(blocks);
        h.sim.spawn_daemon(async move {
            let res = shard_exchange(&h2, first, &buf, None).await;
            h2.put_buf(buf);
            st.arm_done(first, res);
        });
    }
    // Hedge arm: waits out the hedge delay, then duplicates the request
    // unless the primary already answered.
    {
        let h2 = Rc::clone(h);
        let st = Rc::clone(&state);
        let mut buf = h.take_buf();
        buf.extend_from_slice(blocks);
        h.sim.spawn_daemon(async move {
            h2.sim.sleep(SimTime::from_nanos(delay_ns)).await;
            if st.winner.get().is_some() {
                // Primary answered inside the hedge delay: nothing sent.
                h2.put_buf(buf);
                st.arm_skipped();
                return;
            }
            let store = Rc::clone(&h2.remote.store);
            store.note_hedge_launched();
            let res = shard_exchange(&h2, second, &buf, None).await;
            h2.put_buf(buf);
            let arrived = res.is_ok();
            if st.arm_done(second, res) {
                store.note_hedge_won();
            } else if arrived {
                // The result arrived after the primary had already won.
                store.note_hedge_cancelled();
            }
        });
    }

    // The op's own time here is the race wait itself — neither arm's legs
    // run on the op task, so the whole interval is failover/hedge wait.
    enter(sp, &h.sim, Phase::Failover);
    RaceDone(Rc::clone(&state)).await;
    match state.winner.get() {
        Some(w) => Ok(w),
        None => Err(state.error.borrow_mut().take().unwrap_or(FaultError {
            clause: format!("shard{first}:outage"),
        })),
    }
}

/// The clause text of the outage open on `shard` at `now_ns` (for failure
/// attribution when a miss fails fast).
fn shard_outage_clause(r: &RemoteCtx, shard: u16, now_ns: u64) -> String {
    r.store
        .faults(shard)
        .windows()
        .iter()
        .find(|w| w.kind == FaultKind::Outage && w.start_ns <= now_ns && now_ns < w.end_ns)
        .map(|w| w.clause.clone())
        .unwrap_or_else(|| format!("shard{shard}:outage"))
}

/// Sends one dirty block to the backend, **write-all**: data packet out,
/// buffered filer write, acknowledgement back, on every replica. The
/// write acknowledges only when every *live* replica has accepted it
/// (fanned out concurrently, so the ack latency is the slowest live
/// replica, not the sum); replicas down at write time are recorded as
/// under-replicated for the recovery pass. If the whole replica set is
/// down the write parks until a replica returns. Dirty data is never
/// dropped: durability over latency, whatever the degraded policy.
/// Flushing from flash first pays a flash read (the data must come off
/// the device) when configured.
async fn flush_to_filer(h: &Rc<HostCtx>, addr: BlockAddr, src: FlushSource, sp: Option<&OpSpan>) {
    if src == FlushSource::Flash && h.cfg.charge_flash_read_on_writeback {
        // The data must come off the device before it can be sent.
        h.dev.read(addr, sp).await;
    }
    let r = &h.remote;
    let router = r.store.router();
    let mut ring = router.replica_set(addr);
    let first = ring.next().expect("replication factor >= 1");
    if ring.len() == 0 {
        // The only replica: its write parks through outages itself.
        return write_one_replica(h, first, addr, sp).await;
    }
    while !router
        .replica_set(addr)
        .any(|s| r.store.live_at(s, h.sim.now().as_nanos()))
    {
        park_until_live(h, router.replica_set(addr), sp).await;
    }
    let mut handles = Vec::with_capacity(ring.len());
    for shard in ring {
        let h2 = Rc::clone(h);
        handles.push(
            h.sim
                .spawn(async move { write_one_replica(&h2, shard, addr, None).await }),
        );
    }
    write_one_replica(h, first, addr, sp).await;
    // Waiting out the slower replicas' spawned legs is ack fan-in: wire
    // time from the op's perspective.
    enter(sp, &h.sim, Phase::Net);
    for handle in handles {
        handle.await;
    }
}

/// Writes one block to one replica, retrying transient failures without
/// bound (the backoff exponent is capped). A replica that is *down* —
/// initially or mid-retry — is skipped and the copy recorded as
/// under-replicated, unless it is the block's only replica: then the
/// write parks until it returns and retries, keeping its attempt count.
async fn write_one_replica(h: &Rc<HostCtx>, shard: u16, addr: BlockAddr, sp: Option<&OpSpan>) {
    let r = &h.remote;
    let mut attempt: u32 = 0;
    loop {
        let now = h.sim.now().as_nanos();
        if !r.store.live_at(shard, now) {
            if r.store.router().replicas() == 1 {
                park_until_live(h, std::iter::once(shard), sp).await;
                continue;
            }
            // Ack without this replica and leave the copy for recovery
            // re-replication.
            r.store.mark_under_replicated(shard, addr, now);
            return;
        }
        let seg = &r.segments[usize::from(shard)];
        let filer = r.store.filer(shard);
        enter(sp, &h.sim, Phase::Net);
        let mut sent = seg.try_transfer(Direction::ToServer, BLOCK_SIZE).await;
        if sent.is_ok() {
            enter(sp, &h.sim, Phase::Filer);
            sent = filer.try_write(1).await;
        }
        if sent.is_ok() {
            enter(sp, &h.sim, Phase::Net);
            sent = seg.try_transfer(Direction::FromServer, 0).await;
        }
        match sent {
            Ok(()) => return,
            Err(_) => {
                attempt += 1;
                let f = h.fault.as_ref().expect("fault-free exchanges cannot fail");
                failed_attempt(h, f, attempt, sp).await;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Flush machinery
// ---------------------------------------------------------------------------

/// Flushes one dirty RAM block down a level (the RAM tier's writeback
/// unit): naive writes it to flash; lookaside writes it to the filer and
/// then updates the (never-dirty) flash copy.
pub(crate) async fn flush_ram_block(h: &Rc<HostCtx>, addr: BlockAddr, sp: Option<&OpSpan>) {
    if !h.ram.borrow_mut().mark_clean(addr) {
        return; // evicted or invalidated since queued
    }
    match h.cfg.arch {
        Architecture::Naive if h.has_flash() => {
            flash_insert(h, addr, true, sp).await;
        }
        _ => {
            flush_to_filer(h, addr, FlushSource::InHand, sp).await;
            if h.has_flash() && h.cfg.arch == Architecture::Lookaside {
                // "The flash is updated after the file server and never
                // contains dirty data." (§3.3)
                flash_insert(h, addr, false, sp).await;
            }
        }
    }
}

/// Flushes one dirty flash block to the filer.
pub(crate) async fn flush_flash_block(h: &Rc<HostCtx>, addr: BlockAddr, sp: Option<&OpSpan>) {
    if !h.flash.borrow_mut().mark_clean(addr) {
        return;
    }
    flush_to_filer(h, addr, FlushSource::Flash, sp).await;
}

/// Flushes one dirty unified frame to the filer.
pub(crate) async fn flush_unified_block(h: &Rc<HostCtx>, addr: BlockAddr, sp: Option<&OpSpan>) {
    let unified = h.unified.as_ref().expect("unified cache");
    let medium = {
        let mut u = unified.borrow_mut();
        if !u.is_dirty(addr) {
            return;
        }
        let m = u.medium_of(addr).expect("dirty block is mapped");
        u.mark_clean(addr);
        m
    };
    let src = match medium {
        Medium::Ram => FlushSource::InHand,
        Medium::Flash => FlushSource::Flash,
    };
    flush_to_filer(h, addr, src, sp).await;
}

/// Queues a detached asynchronous write-through flush for a RAM block.
/// Duplicate submissions for a block already being flushed are suppressed;
/// the worker's flush loop re-checks dirtiness so a re-dirty during flight
/// is not lost. No allocation once the host's worker pool has converged
/// (see `crate::flush`).
fn spawn_ram_flush(h: &Rc<HostCtx>, addr: BlockAddr) {
    if !h.ram_flush_pending.borrow_mut().insert(addr.to_u64()) {
        return;
    }
    flush::submit(
        h,
        FlushReq {
            addr,
            target: FlushTarget::Ram,
        },
    );
}

/// Queues a detached asynchronous write-through flush for a flash block.
fn spawn_flash_flush(h: &Rc<HostCtx>, addr: BlockAddr) {
    if !h.flash_flush_pending.borrow_mut().insert(addr.to_u64()) {
        return;
    }
    flush::submit(
        h,
        FlushReq {
            addr,
            target: FlushTarget::Flash,
        },
    );
}

/// Queues a detached asynchronous write-through flush for a unified frame.
fn spawn_unified_flush(h: &Rc<HostCtx>, addr: BlockAddr, medium: Medium) {
    let pending = match medium {
        Medium::Ram => &h.ram_flush_pending,
        Medium::Flash => &h.flash_flush_pending,
    };
    if !pending.borrow_mut().insert(addr.to_u64()) {
        return;
    }
    flush::submit(
        h,
        FlushReq {
            addr,
            target: FlushTarget::Unified(medium),
        },
    );
}

// ---------------------------------------------------------------------------
// Syncer daemons (periodic policies)
// ---------------------------------------------------------------------------

/// Which tier a syncer batch flushes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum FlushTier {
    Ram,
    Flash,
    Unified,
}

/// Flushes a batch of dirty blocks keeping up to `syncer_window` I/Os in
/// flight. The syncer is one thread issuing asynchronous I/O: the wire —
/// not the flush loop — is the writeback bottleneck, which is what lets
/// "any reasonable writeback policy maintain an ample supply of clean
/// blocks" (§7.1).
async fn flush_batch(h: &Rc<HostCtx>, blocks: &[BlockAddr], tier: FlushTier) {
    let window = h.cfg.syncer_window.max(1);
    let mut handles = Vec::with_capacity(window.min(blocks.len()));
    for chunk in blocks.chunks(window) {
        handles.extend(chunk.iter().map(|b| {
            let h2 = Rc::clone(h);
            let b = *b;
            h.sim.spawn(async move {
                match tier {
                    FlushTier::Ram => flush_ram_block(&h2, b, None).await,
                    FlushTier::Flash => flush_flash_block(&h2, b, None).await,
                    FlushTier::Unified => flush_unified_block(&h2, b, None).await,
                }
            })
        }));
        for handle in handles.drain(..) {
            handle.await;
        }
    }
}

/// Periodic RAM-tier syncer: every `period`, flush every block that is
/// dirty in RAM ("dirty data remains in the cache until a syncer thread
/// flushes the data back", §3.5). The dirty-set snapshot reuses one
/// scratch buffer across ticks instead of allocating per tick.
pub(crate) async fn ram_syncer(h: Rc<HostCtx>, period: SimTime) {
    let mut dirty: Vec<BlockAddr> = Vec::new();
    loop {
        h.sim.sleep(period).await;
        dirty.clear();
        h.ram.borrow().dirty_blocks_into(&mut dirty);
        flush_batch(&h, &dirty, FlushTier::Ram).await;
    }
}

/// Periodic flash-tier syncer (naive architecture).
pub(crate) async fn flash_syncer(h: Rc<HostCtx>, period: SimTime) {
    let mut dirty: Vec<BlockAddr> = Vec::new();
    loop {
        h.sim.sleep(period).await;
        dirty.clear();
        h.flash.borrow().dirty_blocks_into(&mut dirty);
        flush_batch(&h, &dirty, FlushTier::Flash).await;
    }
}

/// Periodic unified-tier syncer for one medium.
pub(crate) async fn unified_syncer(h: Rc<HostCtx>, medium: Medium, period: SimTime) {
    let mut dirty: Vec<BlockAddr> = Vec::new();
    loop {
        h.sim.sleep(period).await;
        dirty.clear();
        h.unified
            .as_ref()
            .expect("unified cache")
            .borrow()
            .dirty_blocks_of_into(medium, &mut dirty);
        flush_batch(&h, &dirty, FlushTier::Unified).await;
    }
}
