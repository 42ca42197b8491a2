//! Building and running a complete simulation from a configuration and a
//! trace.
//!
//! Two replay paths share one engine:
//!
//! - [`run_trace`] replays an in-memory [`Trace`] through **per-thread
//!   cursors**: one counting-sort index pass groups op indices by
//!   `(host, thread)` slot, and each slot's task walks its span of the
//!   shared order array. No per-thread `Vec<TraceOp>` clones exist — replay
//!   memory beyond the shared trace is the 4-byte-per-op index, shared by
//!   all threads.
//! - [`run_source`] replays any [`TraceSource`] (streamed generation,
//!   chunked `FCTRACE1` file reads) through bounded chunks fanned into
//!   per-thread queues, so replay memory is O(chunk) plus transient
//!   inter-thread skew — independent of trace length.
//!
//! Both paths spawn one task per `(host, thread)` slot in slot order and
//! deliver each thread's ops in trace order, so they produce bit-identical
//! [`SimReport`]s (asserted by `tests/trace_streaming.rs`).

use std::cell::{Cell, RefCell};
use std::io;
use std::rc::Rc;

use fcache_cache::{BlockCache, Medium, UnifiedCache};
use fcache_des::{RunError, Sim, SimTime};
use fcache_device::IoLog;
use fcache_filer::{Filer, FilerStats};
use fcache_net::{Segment, SegmentStats};
use fcache_remote::{shard_net_config, BackendSeeds, Router, ShardedStore};
use fcache_types::{
    mix64, FaultSchedule, FxHashSet, HostId, ResolvedFaultSet, SlotCursor, Trace, TraceOp,
    TraceSource, BLOCK_SIZE, TRACE_CHUNK_OPS,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::arch::Architecture;
use crate::config::SimConfig;
use crate::devsvc::DeviceService;
use crate::engine::{self, execute_op};
use crate::flush::{self, FlushQueue};
use crate::host::{HostCtx, Peers, RemoteCtx};
use crate::metrics::Metrics;
use crate::report::SimReport;
use crate::robust::{DegradedPolicy, FaultCtx, RobustnessState};
use crate::spill::SpillQueue;
use crate::telemetry::{SpanStream, TelemetryCtx, TelemetryStats};

/// Error from a simulation run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The discrete-event core found blocked tasks with no pending events.
    Deadlock {
        /// Number of stuck tasks.
        live_tasks: usize,
    },
    /// The trace source failed mid-stream (I/O error, corrupt record, or an
    /// op outside the dimensions its metadata promised).
    Source(String),
    /// The run panicked. Produced only by [`crate::Sweep`], which catches
    /// per-job panics so one hostile job cannot abort a whole sweep; the
    /// payload is the panic message.
    Panic(String),
    /// An operation failed under fault injection while the degraded policy
    /// was [`crate::DegradedPolicy::Strict`] — the run refuses to report
    /// degraded results. The payload is the first offending fault clause
    /// (e.g. `filer:outage@40s-60s`), so a sweep error names the injection
    /// that sank the job.
    Faulted {
        /// The fault clause behind the first failed operation.
        clause: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { live_tasks } => {
                write!(f, "simulation deadlocked with {live_tasks} task(s) blocked")
            }
            SimError::Source(msg) => write!(f, "trace source failed: {msg}"),
            SimError::Panic(msg) => write!(f, "simulation panicked: {msg}"),
            SimError::Faulted { clause } => {
                write!(
                    f,
                    "operation failed under injected fault ({clause}) with strict degraded policy"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<RunError> for SimError {
    fn from(e: RunError) -> Self {
        match e {
            RunError::Deadlock { live_tasks } => SimError::Deadlock { live_tasks },
        }
    }
}

/// Resolved fault-injection state for one run: the per-target schedules
/// plus the shared robustness counters. Absent when the plan is empty, so
/// fault-free runs build exactly the pre-fault object graph.
struct FaultParts {
    set: Rc<ResolvedFaultSet>,
    /// Backend availability-accounting schedule: filer windows plus the
    /// distinct shard windows (mirrors deduped), so per-window tallies
    /// cover shard faults too.
    acct: Rc<FaultSchedule>,
    state: Rc<RobustnessState>,
}

/// Everything both replay paths share: the executor, the hosts, and the
/// global sinks that become the report.
struct SimParts {
    sim: Sim,
    cfg: Rc<SimConfig>,
    metrics: Metrics,
    hosts: Vec<Rc<HostCtx>>,
    fault: Option<FaultParts>,
    /// The storage backend: one filer per shard behind the router (one
    /// shard by default — the paper's single filer).
    store: Rc<ShardedStore>,
}

/// Builds the executor and one [`HostCtx`] per host (no tasks yet).
fn build_parts(config: &SimConfig, n_hosts: u16) -> SimParts {
    let cfg = Rc::new(config.clone());
    let sim = Sim::new();

    // Resolve the fault plan once per run: paper-scale windows divide by
    // `time_scale` (like syncer periods) and stochastic episodes expand
    // against the run seed, so the same configuration always injects the
    // same faults. Shard clauses land on per-shard schedules (`shard*` on
    // every shard) and filer clauses fan out to every shard; an
    // out-of-range `shard<k>` is a configuration error, which `Sweep`
    // reports as the job's error.
    let fault = (!cfg.fault_plan.is_empty()).then(|| {
        let set = cfg
            .fault_plan
            .resolve_sharded(cfg.seed, cfg.time_scale, cfg.shards)
            .unwrap_or_else(|e| panic!("{e}"));
        let acct = Rc::new(set.backend_accounting());
        let set = Rc::new(set);
        let state = Rc::new(RobustnessState::new(acct.windows().len()));
        FaultParts { set, acct, state }
    });

    let metrics = Metrics::new();
    let warmup_over = Rc::new(Cell::new(false));

    // The storage backend: one filer per shard (each with its own
    // content-hash luck and fault schedule) behind a shared router. The
    // seeds follow the topology, so the default one-shard store is the
    // single filer, seeds included (PERF.md invariant 11).
    let router = Router::new(cfg.shards, cfg.replicas);
    let seeds = BackendSeeds::new(router, cfg.seed);
    let scheds: Vec<FaultSchedule> = match &fault {
        Some(fp) => fp.set.shards.clone(),
        None => vec![FaultSchedule::default(); usize::from(cfg.shards)],
    };
    let filers: Vec<Filer> = (0..cfg.shards)
        .map(|k| {
            let f = Filer::new(sim.clone(), seeds.filer_config(cfg.filer, k));
            match &fault {
                Some(_) => f.with_faults(scheds[usize::from(k)].clone(), seeds.filer_faults(k)),
                None => f,
            }
        })
        .collect();
    let store = Rc::new(ShardedStore::new(router, filers, scheds));
    // Hedging needs a second replica to race.
    let hedge_ns = (cfg.replicas > 1)
        .then(|| cfg.hedge.map(|d| cfg.scaled_time(d).as_nanos()))
        .flatten();

    // Telemetry: one span stream per run (shared by every host, so rows
    // land in global completion order) and a per-host collector. Built
    // only when engaged, so the default run wires exactly the
    // pre-telemetry object graph (PERF.md invariant 12).
    let span_stream: Option<Rc<SpanStream>> = cfg.trace_out.as_ref().map(|path| {
        Rc::new(
            SpanStream::create(path)
                .unwrap_or_else(|e| panic!("--trace-out {}: {e}", path.display())),
        )
    });
    let telemetry_window_ns = cfg.telemetry_windows.map(|w| cfg.scaled_time(w).as_nanos());

    // Network fan-in: hosts share wires in groups of `fanin`. Each group's
    // first host (its *leader*, `i % fanin == 0`) creates the segments —
    // fault seeds keyed by the leader's index — and the rest of the group
    // clones the handles (clones share the channel and the counters). At
    // fan-in 1 every host is its own leader, so this is literally the
    // pre-fleet per-host wiring, seeds included (PERF.md invariant 13).
    let fanin = cfg.net_fanin();
    let mut group_segments: Vec<Segment> = Vec::new();
    let mut hosts: Vec<Rc<HostCtx>> = Vec::with_capacity(usize::from(n_hosts));
    // Cache-consistency invalidation needs peers: one registry (with a
    // sharer directory once there are enough hosts) per multi-host run.
    let peers = (n_hosts > 1).then(|| Rc::new(Peers::new(n_hosts)));
    for i in 0..n_hosts {
        // This host's wires to the backend: one segment per shard
        // (shared across the fan-in group), with a small deterministic
        // latency skew per shard.
        if i % fanin == 0 {
            group_segments = (0..cfg.shards)
                .map(|k| {
                    let net = shard_net_config(cfg.net, k);
                    let seg = if cfg.duplex_network {
                        Segment::new_duplex(sim.clone(), net)
                    } else {
                        Segment::new(sim.clone(), net)
                    };
                    match &fault {
                        Some(fp) => seg.with_faults(
                            fp.set.net_to_server.clone(),
                            fp.set.net_from_server.clone(),
                            seeds.segment_faults(i, k),
                        ),
                        None => seg,
                    }
                })
                .collect();
        }
        let remote = RemoteCtx {
            store: Rc::clone(&store),
            segments: group_segments.clone(),
            hedge_ns,
        };
        let unified = (cfg.arch == Architecture::Unified)
            .then(|| RefCell::new(UnifiedCache::new(cfg.ram_blocks(), cfg.flash_blocks())));
        let iolog = if cfg.log_flash_io {
            IoLog::new()
        } else {
            IoLog::disabled()
        };
        let mut dev = DeviceService::new(sim.clone(), &cfg, HostId(i), iolog.clone());
        if let Some(fp) = &fault {
            dev = dev.with_faults(
                fp.set.device.clone(),
                mix64(cfg.seed ^ (u64::from(i) << 32) ^ 0xde71_fa17_0000_0003),
                Rc::clone(&fp.state),
                cfg.scaled_time(cfg.robustness.retry_base),
            );
        }
        let host_fault = fault.as_ref().map(|fp| {
            Rc::new(FaultCtx {
                set: Rc::clone(&fp.set),
                acct: Rc::clone(&fp.acct),
                cfg: cfg.robustness,
                op_timeout: cfg.scaled_time(cfg.robustness.op_timeout),
                retry_base: cfg.scaled_time(cfg.robustness.retry_base),
                rng: RefCell::new(SmallRng::seed_from_u64(mix64(
                    cfg.seed ^ (u64::from(i) << 32) ^ 0x0b0f_fa17_0000_0004,
                ))),
                state: Rc::clone(&fp.state),
            })
        });
        // Fleet cells give every host a private metrics sink (folded
        // exactly into one snapshot at collection); outside a fleet
        // every host shares one sink — the pre-fleet object graph.
        let host_metrics = if cfg.fleet_engaged() {
            Metrics::new()
        } else {
            metrics.clone()
        };
        hosts.push(Rc::new(HostCtx {
            id: HostId(i),
            sim: sim.clone(),
            cfg: Rc::clone(&cfg),
            ram: RefCell::new(BlockCache::with_policy(
                if cfg.arch == Architecture::Unified {
                    0
                } else {
                    cfg.ram_blocks()
                },
                cfg.replacement,
            )),
            flash: RefCell::new(BlockCache::with_policy(
                if cfg.arch == Architecture::Unified {
                    0
                } else {
                    cfg.flash_blocks()
                },
                cfg.replacement,
            )),
            unified,
            metrics: host_metrics,
            iolog,
            dev,
            ram_flush_pending: RefCell::new(FxHashSet::default()),
            flash_flush_pending: RefCell::new(FxHashSet::default()),
            peers: peers.clone(),
            warmup_over: Rc::clone(&warmup_over),
            buf_pool: RefCell::new(Vec::new()),
            flushq: FlushQueue::new(),
            fault: host_fault,
            remote,
            telemetry: cfg
                .telemetry_engaged()
                .then(|| Rc::new(TelemetryCtx::new(telemetry_window_ns, span_stream.clone()))),
        }));
    }
    if let Some(p) = &peers {
        p.register(&hosts);
    }

    SimParts {
        sim,
        cfg,
        metrics,
        hosts,
        fault,
        store,
    }
}

/// Spawns the periodic syncer daemons and the optional clock pin. Called
/// after the per-thread replay tasks so both paths share one spawn order.
fn spawn_daemons(parts: &SimParts) {
    let SimParts {
        sim, cfg, hosts, ..
    } = parts;
    for h in hosts {
        match cfg.arch {
            Architecture::Unified => {
                if let Some(period) = cfg.scaled_period(cfg.ram_policy) {
                    sim.spawn_daemon(engine::unified_syncer(Rc::clone(h), Medium::Ram, period));
                }
                if let Some(period) = cfg.scaled_period(cfg.flash_policy) {
                    sim.spawn_daemon(engine::unified_syncer(Rc::clone(h), Medium::Flash, period));
                }
            }
            Architecture::Naive | Architecture::Lookaside => {
                if h.has_ram() {
                    if let Some(period) = cfg.scaled_period(cfg.ram_policy) {
                        sim.spawn_daemon(engine::ram_syncer(Rc::clone(h), period));
                    }
                }
                // The lookaside flash never holds dirty data, so its syncer
                // would be a no-op; only naive needs one.
                if cfg.arch == Architecture::Naive && h.has_flash() {
                    if let Some(period) = cfg.scaled_period(cfg.flash_policy) {
                        sim.spawn_daemon(engine::flash_syncer(Rc::clone(h), period));
                    }
                }
            }
        }
    }

    // Recovery-drain probes: at the close of every filer outage, measure
    // the flush backlog that piled up while write-through was degraded and
    // time how long it takes to drain. Daemons, so they never extend the
    // run past the workload; spawned only when a plan exists, so fault-free
    // runs spawn exactly the pre-fault task set.
    if let Some(fp) = &parts.fault {
        for h in hosts {
            for (_, end_ns) in fp.set.filer.outage_spans() {
                let h = Rc::clone(h);
                let state = Rc::clone(&fp.state);
                let s = sim.clone();
                sim.spawn_daemon(async move {
                    s.sleep_until(SimTime::from_nanos(end_ns)).await;
                    let depth = h.flushq.backlog();
                    if depth > 0 {
                        let t0 = s.now();
                        flush::wait_drained(&h).await;
                        state.note_drain(depth as u64, s.now() - t0);
                    }
                });
            }
        }
    }

    // Recovery re-replication: when a failed shard returns, copy every
    // block whose acknowledged write it missed back from a surviving
    // replica. Backend-to-backend traffic — it pays filer service time on
    // both ends but no client segment time — fanned over a bounded number
    // of repair streams (a sequential drain cannot outpace a large
    // backlog before the run ends; a fleet rebuilds in parallel but
    // bounds the streams to protect foreground traffic). One pass per
    // (shard, outage span), so a copy whose only source is itself still
    // down is requeued for the next pass. At replication 1 there is no
    // other replica to copy from (writes park through the outage
    // instead), so no pass is spawned.
    const REPAIR_STREAMS: usize = 16;
    let store = &parts.store;
    if parts.fault.is_some() && store.router().replicas() > 1 {
        for k in 0..store.router().shards() {
            for (_, end_ns) in store.faults(k).outage_spans() {
                let store = Rc::clone(store);
                let s = sim.clone();
                sim.spawn_daemon(async move {
                    s.sleep_until(SimTime::from_nanos(end_ns)).await;
                    let queue = Rc::new(RefCell::new(store.take_under_replicated(k)));
                    let drain =
                        |store: Rc<ShardedStore>,
                         s: Sim,
                         queue: Rc<RefCell<Vec<fcache_types::BlockAddr>>>| async move {
                            loop {
                                // Scope the borrow: `while let` would hold the
                                // RefMut across the awaits below.
                                let popped = queue.borrow_mut().pop();
                                let Some(addr) = popped else { break };
                                let now = s.now().as_nanos();
                                let src = store
                                    .router()
                                    .replica_set(addr)
                                    .find(|&r| r != k && store.live_at(r, now));
                                match src {
                                    Some(src) => {
                                        store.filer(src).read_blocks(&[addr]).await;
                                        store.filer(k).write(1).await;
                                        store.note_re_replicated(BLOCK_SIZE, s.now().as_nanos());
                                    }
                                    // No live source right now: leave the copy
                                    // for the next recovery pass.
                                    None => store.requeue_under_replicated(k, addr),
                                }
                            }
                        };
                    for _ in 1..REPAIR_STREAMS {
                        s.spawn_daemon(drain(Rc::clone(&store), s.clone(), Rc::clone(&queue)));
                    }
                    drain(store, s.clone(), queue).await;
                });
            }
        }
    }

    // Optionally pin the clock past the trace so periodic syncers can run.
    if let Some(t) = cfg.min_runtime {
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep_until(t).await;
        });
    }
}

/// Runs the simulation, aggregates the report, and shuts the executor down
/// (breaking task↔executor `Rc` cycles) before surfacing any run error.
fn run_and_collect(parts: &SimParts) -> Result<SimReport, SimError> {
    let SimParts {
        sim,
        cfg,
        metrics,
        hosts,
        fault,
        store,
    } = parts;
    let run = sim.run().map_err(SimError::from);

    // Segment counters are shared across a fan-in group, so summing every
    // host's handle would multiply-count shared wires: only group leaders
    // contribute (at fan-in 1, everyone — the pre-fleet accounting).
    let fanin = cfg.net_fanin();
    fn add_seg(net: &mut SegmentStats, s: SegmentStats) {
        net.packets += s.packets;
        net.payload_bytes += s.payload_bytes;
        net.busy += s.busy;
        net.queue_wait += s.queue_wait;
        net.queue_waits += s.queue_waits;
    }

    // Aggregate before shutdown (shutdown drops the host tasks).
    let end_ns = sim.now().as_nanos();
    let mut filer = FilerStats::default();
    let mut per_shard = Vec::with_capacity(usize::from(store.router().shards()));
    for k in 0..store.router().shards() {
        let fs = store.shard_stats(k);
        filer.fast_reads += fs.fast_reads;
        filer.slow_reads += fs.slow_reads;
        filer.writes += fs.writes;
        per_shard.push(crate::report::ShardServiceStats {
            fast_reads: fs.fast_reads,
            slow_reads: fs.slow_reads,
            writes: fs.writes,
            outage_ns: store.faults(k).outage_overlap(end_ns),
        });
    }
    let mut report = SimReport {
        metrics: metrics.snapshot(),
        filer,
        end_time: sim.now(),
        events: sim.events_processed(),
        shard: crate::report::ShardStats::for_run(
            cfg,
            store.router(),
            hosts.first().and_then(|h| h.remote.hedge_ns).unwrap_or(0),
            per_shard,
            store.stats(end_ns),
        ),
        ..SimReport::default()
    };
    for (i, h) in hosts.iter().enumerate() {
        report.ram += *h.ram.borrow().stats();
        report.flash += *h.flash.borrow().stats();
        if let Some(u) = &h.unified {
            report.unified += *u.borrow().stats();
        }
        if i % usize::from(fanin) == 0 {
            for seg in &h.remote.segments {
                add_seg(&mut report.net, seg.stats());
            }
        }
        report.device += h.dev.stats();
        if let Some(w) = h.dev.take_windows() {
            // Each host numbers its windows from I/O 0; rebase every
            // appended series past the previous host's end so the combined
            // sequence tiles contiguously (hosts append in host-id order).
            let windows = report.device_windows.get_or_insert_with(Vec::new);
            let offset = windows
                .last()
                .map(|l| l.start_io + l.reads + l.writes)
                .unwrap_or(0);
            windows.extend(w.into_iter().map(|mut s| {
                s.start_io += offset;
                s
            }));
        }
    }
    if cfg.log_flash_io {
        let mut log = Vec::new();
        for h in hosts {
            log.extend(h.iolog.take());
        }
        report.flash_iolog = Some(log);
    }
    if let Some(fp) = fault {
        let mut rs = fp.state.snapshot(&fp.acct);
        rs.degraded_time =
            SimTime::from_nanos(fp.set.filer.outage_overlap(report.end_time.as_nanos()));
        report.robustness = rs;
    }
    if hosts.iter().any(|h| h.telemetry.is_some()) {
        let mut telem = TelemetryStats::default();
        for h in hosts {
            if let Some(t) = &h.telemetry {
                t.fold_into(&mut telem);
            }
        }
        // Per-window shard availability is global (one fault schedule per
        // shard), filled once at collection rather than summed per host.
        if telem.window_ns > 0 && report.shard.engaged() {
            let spans: Vec<Vec<(u64, u64)>> = (0..store.router().shards())
                .map(|k| store.faults(k).outage_spans())
                .collect();
            for w in &mut telem.windows {
                let (lo, hi) = (w.start_ns, w.end_ns);
                w.shard_live_ns = spans
                    .iter()
                    .map(|outages| {
                        let down: u64 = outages
                            .iter()
                            .map(|&(s, e)| e.min(hi).saturating_sub(s.max(lo)))
                            .sum();
                        (hi - lo).saturating_sub(down)
                    })
                    .collect();
            }
        }
        report.telemetry = telem;
        // Final flush: every host shares one stream, flush it once.
        if let Some(stream) = hosts
            .iter()
            .find_map(|h| h.telemetry.as_ref().and_then(|t| t.stream()))
        {
            stream.finish();
        }
    }
    if let Some(topo) = cfg.fleet {
        // Fleet mode: each host recorded into its own sink; the exact
        // fold (counters + bucket-wise histograms) reproduces what one
        // shared sink would have held, and the per-host rows feed the
        // fleet percentiles.
        let mut folded = crate::metrics::MetricsSnapshot::default();
        let mut per_host = Vec::with_capacity(hosts.len());
        for (i, h) in hosts.iter().enumerate() {
            let s = h.metrics.snapshot();
            folded = folded.merged(&s);
            per_host.push(crate::report::HostLoadStats {
                host: topo.host_base + i as u32,
                read_ops: s.read_ops,
                write_ops: s.write_ops,
                read_latency_ns: s.read_latency.as_nanos(),
                write_latency_ns: s.write_latency.as_nanos(),
            });
        }
        report.metrics = folded;
        report.fleet = crate::report::FleetStats {
            topology: Some(topo),
            per_host,
        };
    }

    sim.shutdown();
    run?;
    if cfg.robustness.degraded == DegradedPolicy::Strict {
        if let Some(clause) = fault.as_ref().and_then(|fp| fp.state.first_fail()) {
            return Err(SimError::Faulted { clause });
        }
    }
    Ok(report)
}

/// Immutable raw view of the trace's op slice, handed to replay tasks.
///
/// The executor requires `'static` futures, but the ops live in the caller's
/// `&Trace` borrow. A lifetime-erased pointer is sound here because the ops
/// are only dereferenced while `Sim::run` executes inside [`run_trace`]'s
/// borrow of the trace: every replay task is either completed during the run
/// or dropped by `Sim::shutdown` before `run_trace` returns, and a future
/// that is never polled again never touches the pointer (even if a panic
/// leaks the executor, leaked tasks are never polled).
#[derive(Clone, Copy)]
struct OpsView {
    ptr: *const TraceOp,
    len: usize,
}

impl OpsView {
    fn new(ops: &[TraceOp]) -> Self {
        Self {
            ptr: ops.as_ptr(),
            len: ops.len(),
        }
    }

    fn get(&self, i: usize) -> &TraceOp {
        debug_assert!(i < self.len);
        // SAFETY: `i` is an index produced by the counting sort over the
        // same slice, and the slice outlives every poll (type-level comment).
        unsafe { &*self.ptr.add(i) }
    }
}

/// Runs `trace` under `config`, returning the aggregated report.
///
/// This is the crate's main entry point. The run is fully deterministic:
/// the same configuration and trace always produce the same report. The
/// trace is shared, not copied: replay builds a 4-byte-per-op index once
/// and every thread cursor walks the caller's buffer in place (sweeps
/// replaying one trace across many configurations share a single copy).
///
/// # Examples
///
/// ```
/// use fcache::{run_trace, SimConfig};
/// use fcache_fsmodel::{FsModel, FsModelConfig};
/// use fcache_trace::{generate, TraceGenConfig};
/// use fcache_types::ByteSize;
///
/// let model = FsModel::generate(FsModelConfig {
///     total_bytes: ByteSize::mib(32),
///     seed: 1,
///     ..FsModelConfig::default()
/// });
/// let trace = generate(&model, TraceGenConfig {
///     working_set: ByteSize::mib(2),
///     seed: 2,
///     ..TraceGenConfig::default()
/// });
/// let cfg = SimConfig {
///     ram_size: ByteSize::kib(512),
///     flash_size: ByteSize::mib(4),
///     ..SimConfig::default()
/// };
/// let report = run_trace(&cfg, &trace).unwrap();
/// assert!(report.metrics.read_ops > 0);
/// ```
pub fn run_trace(config: &SimConfig, trace: &Trace) -> Result<SimReport, SimError> {
    // Size the host/thread grid from the metadata, widened by what the ops
    // actually carry.
    let (mut max_host, mut max_thread) = (0u16, 0u16);
    for op in &trace.ops {
        max_host = max_host.max(op.host().0);
        max_thread = max_thread.max(op.thread().0);
    }
    let n_hosts = u16::max(trace.meta.hosts.max(1), max_host + 1);
    let n_threads = u16::max(trace.meta.threads_per_host.max(1), max_thread + 1);
    let n_slots = n_hosts as usize * n_threads as usize;

    assert!(
        trace.ops.len() <= u32::MAX as usize,
        "trace exceeds the 4-billion-op cursor index range"
    );

    // One index pass: counting-sort op indices by (host, thread) slot. The
    // order array is the only per-run allocation that scales with the
    // trace, and it is shared read-only by every thread task — the ops
    // themselves are never copied ("each application thread can have only
    // one I/O in progress", §5, so per-slot order is all replay needs).
    let slot_of = |op: &TraceOp| op.host().index() * n_threads as usize + op.thread().index();
    let mut starts = vec![0u32; n_slots + 1];
    for op in &trace.ops {
        starts[slot_of(op) + 1] += 1;
    }
    for i in 0..n_slots {
        starts[i + 1] += starts[i];
    }
    let mut next = starts.clone();
    let mut order = vec![0u32; trace.ops.len()];
    for (i, op) in trace.ops.iter().enumerate() {
        let s = slot_of(op);
        order[next[s] as usize] = i as u32;
        next[s] += 1;
    }
    let order: Rc<[u32]> = order.into();

    let parts = build_parts(config, n_hosts);
    let ops = OpsView::new(&trace.ops);

    // One cursor task per slot, in slot order (empty slots spawn a task
    // that completes on its first poll, mirroring the streamed path).
    for slot in 0..n_slots {
        let host = Rc::clone(&parts.hosts[slot / n_threads as usize]);
        let order = Rc::clone(&order);
        let (lo, hi) = (starts[slot] as usize, starts[slot + 1] as usize);
        parts.sim.spawn(async move {
            for &idx in &order[lo..hi] {
                execute_op(&host, ops.get(idx as usize)).await;
            }
        });
    }

    spawn_daemons(&parts);
    run_and_collect(&parts)
}

/// Type-erased handle to the caller's `&mut S` source: a data pointer plus
/// a monomorphized fill thunk, so the `'static` replay tasks can pull
/// chunks without naming the source's lifetime. Sound for the same reason
/// as [`OpsView`]: only dereferenced while `Sim::run` executes inside
/// [`run_source`]'s borrow of the source.
struct RawSource {
    data: *mut (),
    fill: unsafe fn(*mut (), &mut Vec<TraceOp>, usize) -> io::Result<usize>,
}

impl RawSource {
    fn new<S: TraceSource>(source: &mut S) -> Self {
        unsafe fn fill_thunk<S: TraceSource>(
            data: *mut (),
            out: &mut Vec<TraceOp>,
            max: usize,
        ) -> io::Result<usize> {
            // SAFETY: `data` was produced from `&mut S` by `RawSource::new`
            // and is only used while that borrow is live (type-level
            // comment); the feed's `RefCell` serializes access.
            unsafe { (*data.cast::<S>()).next_chunk(out, max) }
        }
        Self {
            data: (source as *mut S).cast(),
            fill: fill_thunk::<S>,
        }
    }

    fn fill(&mut self, out: &mut Vec<TraceOp>, max: usize) -> io::Result<usize> {
        // SAFETY: see `RawSource` docs.
        unsafe { (self.fill)(self.data, out, max) }
    }
}

/// Shared chunk feed: per-slot queues refilled from the source on demand.
/// The queues are [`SpillQueue`]s, so inter-thread skew past a bounded
/// resident window overflows to disk instead of growing replay memory —
/// O(chunk) per slot unconditionally, even for a trace whose slots are
/// laid out back to back.
struct Feed {
    source: RawSource,
    queues: Vec<SpillQueue>,
    chunk: Vec<TraceOp>,
    n_threads: usize,
    done: bool,
    error: Option<String>,
}

impl Feed {
    /// Pops the next op for `slot`, pulling chunks from the source until
    /// the slot has one or the stream ends. Refills cost zero simulated
    /// time, matching the materialized path where all ops exist up front.
    fn next_for(&mut self, slot: usize) -> Option<TraceOp> {
        loop {
            match self.queues[slot].pop() {
                Ok(Some(op)) => return Some(op),
                Ok(None) => {}
                Err(e) => {
                    // Spilled backlog that cannot be read back is gone;
                    // fail the run rather than silently dropping ops.
                    self.error = Some(format!("spilled op backlog lost: {e}"));
                    self.done = true;
                    return None;
                }
            }
            if self.done {
                return None;
            }
            self.refill();
        }
    }

    fn refill(&mut self) {
        self.chunk.clear();
        match self.source.fill(&mut self.chunk, TRACE_CHUNK_OPS) {
            Ok(0) => self.done = true,
            Ok(_) => {
                for op in self.chunk.drain(..) {
                    let slot = op.host().index() * self.n_threads + op.thread().index();
                    if slot >= self.queues.len() {
                        self.error = Some(format!(
                            "op for {} {} outside the {}-host/{}-thread grid its meta promised",
                            op.host(),
                            op.thread(),
                            self.queues.len() / self.n_threads,
                            self.n_threads,
                        ));
                        self.done = true;
                        return;
                    }
                    self.queues[slot].push(op);
                }
            }
            Err(e) => {
                self.error = Some(e.to_string());
                self.done = true;
            }
        }
    }
}

/// Replays a streamed [`TraceSource`] under `config`.
///
/// Ops are pulled in bounded chunks ([`TRACE_CHUNK_OPS`]) and fanned into
/// per-thread queues, so replay memory is O(chunk + inter-thread skew)
/// regardless of trace length — a generated multi-gigabyte workload or an
/// archived `FCTRACE1` file replays without ever being resident. Reports
/// are bit-identical to materializing the same ops and calling
/// [`run_trace`].
///
/// The host/thread grid comes from [`TraceSource::meta`]; an op outside
/// that grid fails the run with [`SimError::Source`].
pub fn run_source<S: TraceSource>(
    config: &SimConfig,
    source: &mut S,
) -> Result<SimReport, SimError> {
    let meta = source.meta();
    let n_hosts = meta.hosts.max(1);
    let n_threads = meta.threads_per_host.max(1);
    let n_slots = n_hosts as usize * n_threads as usize;

    // Zero-copy fast path: a random-access source hands every slot its
    // own cursor, so ops flow straight from the source to the engine with
    // no shared chunk buffer or per-slot queues at all.
    if source.fork_slot(0, 0).is_some() {
        return run_forked(config, source, n_hosts, n_threads);
    }

    let parts = build_parts(config, n_hosts);
    let feed = Rc::new(RefCell::new(Feed {
        source: RawSource::new(source),
        queues: (0..n_slots).map(|_| SpillQueue::new()).collect(),
        chunk: Vec::with_capacity(TRACE_CHUNK_OPS),
        n_threads: n_threads as usize,
        done: false,
        error: None,
    }));

    for slot in 0..n_slots {
        let host = Rc::clone(&parts.hosts[slot / n_threads as usize]);
        let feed = Rc::clone(&feed);
        parts.sim.spawn(async move {
            loop {
                // The borrow must not span the await (a `while let` would
                // hold the `RefMut` through the body): copy the op out of
                // the queue, drop the borrow, then run the engine.
                let next = feed.borrow_mut().next_for(slot);
                let Some(op) = next else { break };
                execute_op(&host, &op).await;
            }
        });
    }

    spawn_daemons(&parts);
    let report = run_and_collect(&parts);
    if let Some(msg) = feed.borrow_mut().error.take() {
        return Err(SimError::Source(msg));
    }
    report
}

/// The forked replay path: one [`SlotCursor`] per `(host, thread)` slot,
/// each task pulling its own ops straight out of the source.
///
/// The task loop has exactly the same shape as the chunk-fed one — a
/// synchronous pull, then one `execute_op` await per op — so both paths
/// poll their tasks identically and produce bit-identical reports
/// (including executor event counts; pinned by `tests/trace_streaming.rs`).
fn run_forked<S: TraceSource + ?Sized>(
    config: &SimConfig,
    source: &S,
    n_hosts: u16,
    n_threads: u16,
) -> Result<SimReport, SimError> {
    let n_slots = n_hosts as usize * n_threads as usize;
    let parts = build_parts(config, n_hosts);
    let error: Rc<RefCell<Option<String>>> = Rc::new(RefCell::new(None));

    for slot in 0..n_slots {
        let host = Rc::clone(&parts.hosts[slot / n_threads as usize]);
        let cursor = source
            .fork_slot(
                (slot / n_threads as usize) as u16,
                (slot % n_threads as usize) as u16,
            )
            .expect("forkable source must fork every slot");
        // SAFETY: erases the borrow of `source` so the `'static` task can
        // hold the cursor. Sound for the same reason as `OpsView` and
        // `RawSource`: the cursor is only used while `Sim::run` executes
        // inside this function's borrow of the source — every task is
        // completed or dropped by `Sim::shutdown` before we return, and a
        // task that is never polled never touches it.
        let mut cursor: Box<dyn SlotCursor + 'static> =
            unsafe { std::mem::transmute::<Box<dyn SlotCursor + '_>, _>(cursor) };
        let error = Rc::clone(&error);
        parts.sim.spawn(async move {
            loop {
                let next = cursor.next();
                match next {
                    Ok(Some(op)) => {
                        execute_op(&host, &op).await;
                    }
                    Ok(None) => break,
                    Err(e) => {
                        // First failing slot wins (deterministic: tasks
                        // run in a deterministic order and every slot
                        // stops at the same offending record anyway).
                        let mut err = error.borrow_mut();
                        if err.is_none() {
                            *err = Some(e.to_string());
                        }
                        break;
                    }
                }
            }
        });
    }

    spawn_daemons(&parts);
    let report = run_and_collect(&parts);
    if let Some(msg) = error.borrow_mut().take() {
        return Err(SimError::Source(msg));
    }
    report
}
