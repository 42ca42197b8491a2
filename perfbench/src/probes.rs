//! Standalone probes: single layers driven through their public APIs with
//! the workload's own inputs and capacities, outside the engine.

use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use fcache::{DeviceService, SimConfig};
use fcache_cache::{BlockCache, UnifiedCache};
use fcache_des::{Sim, SimTime};
use fcache_device::IoLog;
use fcache_types::{BlockAddr, ByteReader, FileId, HostId, TraceOp, TraceSource};

/// Ops replayed by the cache probe, at most.
const CACHE_PROBE_OPS: usize = 250_000;
/// Timer sleeps driven through the DES probe.
const DES_PROBE_SLEEPS: u64 = 400_000;
/// Device operations pushed through the SSD service probe.
const DEVICE_PROBE_OPS: u64 = 100_000;

/// What a workload hands the probes.
pub struct ProbeInput<'a> {
    /// The workload's trace archive, if it has one.
    pub archive: Option<&'a Path>,
    /// A fresh stream of the workload's ops, if it has no archive.
    pub stream: Option<Box<dyn TraceSource + 'a>>,
    /// Cache capacities to replay the block stream at:
    /// `(ram blocks, flash blocks, unified)`.
    pub caches: Vec<(usize, usize, bool)>,
    /// The scaled configuration whose SSD device to probe, if any.
    pub ssd: Option<SimConfig>,
    /// Concurrent replay tasks in one simulation.
    pub tasks: usize,
}

/// Probe results; zero where the workload has no such layer.
#[derive(Debug, Default)]
pub struct ProbeOut {
    pub decode_ns_per_op: f64,
    pub cache_probe_ns: f64,
    pub device_service_ns: f64,
    pub des_ns_per_event: f64,
    /// Conservation checks the probes failed.
    pub failures: Vec<String>,
}

pub fn run(mut input: ProbeInput<'_>) -> ProbeOut {
    let mut out = ProbeOut::default();
    let map = input.archive.map(|path| {
        let file = std::fs::File::open(path).expect("open archive");
        fcache_mmap::Mmap::map(&file).expect("map archive")
    });
    let mut ops = Vec::new();
    if let Some(map) = &map {
        out.decode_ns_per_op = decode_walk(map, &mut out.failures);
        let mut reader = ByteReader::new(map).expect("archive header");
        fill(&mut reader, &mut ops);
    } else if let Some(stream) = input.stream.as_mut() {
        fill(stream, &mut ops);
    }
    out.cache_probe_ns = cache_replay(&ops, &input.caches, &mut out.failures);
    if let Some(cfg) = &input.ssd {
        out.device_service_ns = device_service(cfg, &mut out.failures);
    }
    out.des_ns_per_event = des_timers(input.tasks, &mut out.failures);
    out
}

fn fill(source: &mut dyn TraceSource, ops: &mut Vec<TraceOp>) {
    while ops.len() < CACHE_PROBE_OPS {
        let want = (CACHE_PROBE_OPS - ops.len()).min(4096);
        match source.next_chunk(ops, want) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Walks the mapped archive through one forked cursor per
/// `(host, thread)` slot, as the replay feed does; ns per archived op.
fn decode_walk(bytes: &[u8], failures: &mut Vec<String>) -> f64 {
    let reader = ByteReader::new(bytes).expect("archive header");
    let total = reader.remaining();
    let meta = reader.meta().clone();
    let t0 = Instant::now();
    let mut seen = 0u64;
    for host in 0..meta.hosts {
        for thread in 0..meta.threads_per_host {
            let mut cursor = reader.fork_slot(host, thread).expect("archives fork");
            loop {
                match cursor.next() {
                    Ok(Some(op)) => {
                        std::hint::black_box(op);
                        seen += 1;
                    }
                    Ok(None) => break,
                    Err(e) => {
                        failures.push(format!("decode walk: {e}"));
                        break;
                    }
                }
            }
        }
    }
    let ns = t0.elapsed().as_nanos() as f64;
    if seen != total {
        failures.push(format!("decode walk yielded {seen} of {total} ops"));
    }
    ns / total.max(1) as f64
}

/// Replays the ops' block stream through the caches alone; ns per lookup.
/// Checks that each cache's hits + misses equal the lookups made.
fn cache_replay(
    ops: &[TraceOp],
    caches: &[(usize, usize, bool)],
    failures: &mut Vec<String>,
) -> f64 {
    let mut lookups_total = 0u64;
    let mut ns_total = 0f64;
    for &(ram_blocks, flash_blocks, unified) in caches {
        let t0 = Instant::now();
        if unified {
            let mut cache = UnifiedCache::new(ram_blocks, flash_blocks);
            let mut lookups = 0u64;
            for op in ops {
                for b in op.blocks() {
                    lookups += 1;
                    if cache.lookup(b).is_none() {
                        cache.insert(b, op.is_write());
                    }
                }
            }
            ns_total += t0.elapsed().as_nanos() as f64;
            let s = cache.stats();
            if s.hits + s.misses != lookups {
                failures.push(format!(
                    "unified cache: {} hits + {} misses != {lookups} lookups",
                    s.hits, s.misses
                ));
            }
            lookups_total += lookups;
        } else {
            let mut ram = BlockCache::new(ram_blocks);
            let mut flash = BlockCache::new(flash_blocks);
            let (mut ram_lookups, mut flash_lookups) = (0u64, 0u64);
            for op in ops {
                for b in op.blocks() {
                    ram_lookups += 1;
                    if ram.lookup(b) {
                        continue;
                    }
                    flash_lookups += 1;
                    if !flash.lookup(b) {
                        flash.insert(b, false);
                    }
                    ram.insert(b, op.is_write());
                }
            }
            ns_total += t0.elapsed().as_nanos() as f64;
            for (tier, cache, lookups) in
                [("ram", &ram, ram_lookups), ("flash", &flash, flash_lookups)]
            {
                let s = cache.stats();
                if s.hits + s.misses != lookups {
                    failures.push(format!(
                        "{tier} cache: {} hits + {} misses != {lookups} lookups",
                        s.hits, s.misses
                    ));
                }
            }
            lookups_total += ram_lookups + flash_lookups;
        }
    }
    if lookups_total == 0 {
        0.0
    } else {
        ns_total / lookups_total as f64
    }
}

/// Pushes device ops through one queue-aware SSD service from eight
/// concurrent submitters (60% writes, like the sweep); ns per device op.
fn device_service(cfg: &SimConfig, failures: &mut Vec<String>) -> f64 {
    const LANES: u64 = 8;
    let t0 = Instant::now();
    let sim = Sim::new();
    let dev = Rc::new(DeviceService::new(
        sim.clone(),
        cfg,
        HostId(0),
        IoLog::disabled(),
    ));
    for lane in 0..LANES {
        let dev = Rc::clone(&dev);
        sim.spawn(async move {
            for i in 0..DEVICE_PROBE_OPS / LANES {
                let addr = BlockAddr::new(FileId(0), (lane * 1_000_003 + i * 17) as u32);
                if i % 5 < 3 {
                    dev.write(addr, None).await;
                } else {
                    dev.read(addr, None).await;
                }
            }
        });
    }
    if let Err(e) = sim.run() {
        failures.push(format!("device probe: {e:?}"));
    }
    sim.shutdown();
    let ns = t0.elapsed().as_nanos() as f64;
    let ops = dev.stats().ops();
    if ops != DEVICE_PROBE_OPS {
        failures.push(format!(
            "device probe serviced {ops} of {DEVICE_PROBE_OPS} ops"
        ));
    }
    ns / DEVICE_PROBE_OPS as f64
}

/// Timer sleeps from `tasks` concurrent tasks in one executor; ns per
/// executor event.
fn des_timers(tasks: usize, failures: &mut Vec<String>) -> f64 {
    let tasks = tasks.max(1) as u64;
    let per_task = DES_PROBE_SLEEPS / tasks;
    let t0 = Instant::now();
    let sim = Sim::new();
    for lane in 0..tasks {
        let s = sim.clone();
        sim.spawn(async move {
            for i in 0..per_task {
                s.sleep(SimTime::from_nanos((lane * 37 + i) % 97 + 1)).await;
            }
        });
    }
    if let Err(e) = sim.run() {
        failures.push(format!("des probe: {e:?}"));
    }
    sim.shutdown();
    let ns = t0.elapsed().as_nanos() as f64;
    let events = sim.events_processed();
    if events < per_task * tasks {
        failures.push(format!(
            "des probe processed {events} events for {} sleeps",
            per_task * tasks
        ));
    }
    ns / events.max(1) as f64
}
