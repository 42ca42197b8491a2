//! Micro/throughput benchmarks for the simulator itself (not paper
//! figures): data-structure op rates, end-to-end simulated-ops/sec for the
//! baseline layered and unified configurations, and serial-vs-parallel
//! sweep wall-clock.
//!
//! Emits a human table on stdout and machine-readable JSON to
//! `BENCH_micro.json` (schema below) so successive PRs can track the
//! performance trajectory:
//!
//! ```json
//! {"bench":"micro","schema":1,"results":[
//!   {"name":"layered_sim_ops_per_sec","value":123.0,"unit":"blocks/s"}, ...]}
//! ```
//!
//! `FCACHE_SCALE` overrides the workload scale (default 1/1024);
//! `FCACHE_BENCH_OUT` overrides the JSON output path.

use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use fcache::DeviceService;
use fcache_bench::{
    scale_from_env, Architecture, FlashTiming, Scenario, SimConfig, Sweep, Workbench, Workload,
    WorkloadSpec,
};
use fcache_cache::{BlockCache, UnifiedCache};
use fcache_des::{Sim, SimTime};
use fcache_device::{IoLog, SsdConfig};
use fcache_fleet::{Fleet, FleetSpec};
use fcache_types::{
    BlockAddr, ByteReader, ByteSize, FaultPlan, FileId, FleetTopology, HostId, TraceOp, TraceReader,
};

struct Results {
    entries: Vec<(String, f64, &'static str)>,
}

impl Results {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        // Big rates print as integers; small ratios/walls keep decimals.
        if value >= 1000.0 {
            println!("{name:<34} {value:>14.0} {unit}");
        } else {
            println!("{name:<34} {value:>14.3} {unit}");
        }
        self.entries.push((name.to_string(), value, unit));
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{\"bench\":\"micro\",\"schema\":1,\"results\":[");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"value\":{value:.3},\"unit\":\"{unit}\"}}"
            );
        }
        out.push_str("]}");
        out
    }
}

fn bench_block_cache(res: &mut Results) {
    const N: u32 = 2_000_000;
    let mut cache = BlockCache::new(65_536);
    let t0 = Instant::now();
    for n in 0..N {
        cache.insert(BlockAddr::new(FileId(0), n), n % 3 == 0);
    }
    res.push(
        "block_cache_insert_evict_per_sec",
        f64::from(N) / t0.elapsed().as_secs_f64(),
        "ops/s",
    );

    let mut hits = 0u64;
    let t0 = Instant::now();
    for n in 0..N {
        // All resident: pure hit-path lookups (one index probe each).
        hits += u64::from(cache.lookup(BlockAddr::new(FileId(0), N - 1 - (n % 65_536))));
    }
    assert_eq!(hits, u64::from(N));
    res.push(
        "block_cache_hit_lookup_per_sec",
        f64::from(N) / t0.elapsed().as_secs_f64(),
        "ops/s",
    );

    // Deterministic memory cost of a full 65 536-block cache: index plus
    // node slab, from the cache's own allocations.
    assert!(cache.is_full());
    res.push(
        "cache_bytes_per_block",
        cache.heap_bytes() as f64 / cache.capacity() as f64,
        "B",
    );

    let mut unified = UnifiedCache::new(8_192, 57_344);
    let t0 = Instant::now();
    for n in 0..N {
        unified.insert(BlockAddr::new(FileId(0), n), n % 3 == 0);
    }
    res.push(
        "unified_insert_evict_per_sec",
        f64::from(N) / t0.elapsed().as_secs_f64(),
        "ops/s",
    );
}

fn bench_des(res: &mut Results) {
    const SLEEPS: u64 = 200_000;
    let t0 = Instant::now();
    let sim = Sim::new();
    for lane in 0..8u64 {
        let s = sim.clone();
        sim.spawn(async move {
            for i in 0..SLEEPS / 8 {
                s.sleep(SimTime::from_nanos((lane * 37 + i) % 97 + 1)).await;
            }
        });
    }
    sim.run().unwrap();
    sim.shutdown();
    res.push(
        "des_timer_events_per_sec",
        SLEEPS as f64 / t0.elapsed().as_secs_f64(),
        "events/s",
    );
}

/// Raw device-service throughput: flash ops pushed through the queue-aware
/// SSD timing path (slot acquire + model draw + timed sleep) by eight
/// concurrent submitters in a dedicated DES — the per-op cost of
/// `flash_timing = ssd`, isolated from the rest of the engine.
fn bench_ssd_service(res: &mut Results) {
    const OPS: u64 = 200_000;
    const LANES: u64 = 8;
    let cfg = SimConfig {
        flash_size: ByteSize::mib(256),
        flash_timing: FlashTiming::Ssd(SsdConfig::auto()),
        ..SimConfig::baseline()
    };
    let t0 = Instant::now();
    let sim = Sim::new();
    let dev = Rc::new(DeviceService::new(
        sim.clone(),
        &cfg,
        HostId(0),
        IoLog::disabled(),
    ));
    for lane in 0..LANES {
        let dev = Rc::clone(&dev);
        sim.spawn(async move {
            for i in 0..OPS / LANES {
                let addr = BlockAddr::new(FileId(0), (lane * 1_000_003 + i * 17) as u32);
                if i % 3 == 0 {
                    dev.write(addr, None).await;
                } else {
                    dev.read(addr, None).await;
                }
            }
        });
    }
    sim.run().expect("ssd service run");
    sim.shutdown();
    assert_eq!(dev.stats().ops(), OPS);
    res.push(
        "ssd_service_ops_per_sec",
        OPS as f64 / t0.elapsed().as_secs_f64(),
        "ops/s",
    );
}

/// Intra-batch NCQ overlap in *simulated* time: one submitter issuing
/// 16-block `read_batch` calls back to back. With overlapped submission the
/// batch finishes when its last member completes, not after the serial sum
/// of per-command service times — so summed device busy time divided by
/// elapsed simulated time is the concurrency the batch path extracts from
/// the queue. Serial submission would pin this at 1.0; PERF.md invariant 14
/// requires > 1.
fn bench_ssd_batch_overlap(res: &mut Results) {
    const BATCHES: u32 = 2_000;
    const BATCH: u32 = 16;
    let cfg = SimConfig {
        flash_size: ByteSize::mib(256),
        flash_timing: FlashTiming::Ssd(SsdConfig::auto()),
        ..SimConfig::baseline()
    };
    let sim = Sim::new();
    let dev = Rc::new(DeviceService::new(
        sim.clone(),
        &cfg,
        HostId(0),
        IoLog::disabled(),
    ));
    {
        let dev = Rc::clone(&dev);
        sim.spawn(async move {
            for b in 0..BATCHES {
                let addrs: Vec<BlockAddr> = (0..BATCH)
                    .map(|i| BlockAddr::new(FileId(0), b * BATCH + i))
                    .collect();
                dev.read_batch(&addrs, None).await;
            }
        });
    }
    sim.run().expect("batch overlap run");
    let stats = dev.stats();
    let elapsed = sim.now();
    sim.shutdown();
    assert_eq!(stats.reads, u64::from(BATCHES * BATCH));
    res.push(
        "ssd_batch_overlap_speedup",
        stats.read_time.as_nanos() as f64 / elapsed.as_nanos().max(1) as f64,
        "x",
    );
}

fn main() {
    let scale = scale_from_env(1024);
    println!("# micro benchmarks, workload scale 1/{scale}");
    let mut res = Results {
        entries: Vec::new(),
    };

    bench_block_cache(&mut res);
    bench_des(&mut res);
    bench_ssd_service(&mut res);
    bench_ssd_batch_overlap(&mut res);

    // End-to-end throughput: simulated trace blocks per wall-clock second.
    let wb = Workbench::new(scale, 42);
    let trace = wb.make_trace(&WorkloadSpec::baseline_60g());
    let blocks = trace.stats().blocks as f64;

    let layered = SimConfig::baseline();
    let t0 = Instant::now();
    let r = wb.run_with_trace(&layered, &trace).expect("layered run");
    let layered_wall = t0.elapsed().as_secs_f64();
    assert!(r.metrics.read_ops > 0);
    res.push("layered_sim_ops_per_sec", blocks / layered_wall, "blocks/s");

    // The same run under queue-aware SSD timing: the wall-clock ratio to
    // the flat run is the whole-engine overhead of `flash_timing = ssd`
    // (recorded in PERF.md invariant 7).
    let layered_ssd = SimConfig {
        flash_timing: FlashTiming::Ssd(SsdConfig::auto()),
        ..SimConfig::baseline()
    };
    let t0 = Instant::now();
    let r = wb
        .run_with_trace(&layered_ssd, &trace)
        .expect("layered ssd run");
    let ssd_wall = t0.elapsed().as_secs_f64();
    assert!(r.device.ops() > 0);
    res.push("layered_ssd_sim_ops_per_sec", blocks / ssd_wall, "blocks/s");
    res.push(
        "ssd_timing_overhead_vs_flat",
        ssd_wall / layered_wall.max(1e-9),
        "x",
    );

    // The same run through a mid-run filer outage: the wall-clock ratio to
    // the clean run is the engine cost of the engaged robustness layer
    // (retry/park bookkeeping, recovery drains) on top of the simulation.
    let layered_faulted = SimConfig {
        fault_plan: FaultPlan::parse("filer:outage@40s-60s").expect("spec"),
        ..SimConfig::baseline()
    };
    let t0 = Instant::now();
    let r = wb
        .run_with_trace(&layered_faulted, &trace)
        .expect("faulted run");
    let faulted_wall = t0.elapsed().as_secs_f64();
    assert!(r.robustness.engaged());
    res.push(
        "fault_outage_sim_ops_per_sec",
        blocks / faulted_wall,
        "blocks/s",
    );
    res.push(
        "fault_outage_overhead_vs_clean",
        faulted_wall / layered_wall.max(1e-9),
        "x",
    );

    // The same run with telemetry engaged (10 s unified windows, spans
    // recorded in-memory): the ratio to the plain run is the whole-engine
    // cost of span bookkeeping — PERF.md invariant 12 demands this is pure
    // addition, so the ratio should hover near 1.
    let layered_telemetry = SimConfig {
        telemetry_windows: Some(SimTime::from_micros(10_000_000)),
        ..SimConfig::baseline()
    };
    let t0 = Instant::now();
    let r = wb
        .run_with_trace(&layered_telemetry, &trace)
        .expect("telemetry run");
    let telemetry_wall = t0.elapsed().as_secs_f64();
    assert!(r.telemetry.engaged() && r.telemetry.spans > 0);
    res.push(
        "telemetry_overhead_vs_off",
        telemetry_wall / layered_wall.max(1e-9),
        "x",
    );

    // Span streaming: the same telemetry run also writing one JSON row per
    // op to a file (`--trace-out`) — the sustained span encode+write rate.
    let span_path = std::env::temp_dir().join("fcache_bench_spans.jsonl");
    let layered_streamed = SimConfig {
        trace_out: Some(span_path.clone()),
        ..layered_telemetry
    };
    let t0 = Instant::now();
    let r = wb
        .run_with_trace(&layered_streamed, &trace)
        .expect("span stream run");
    let stream_wall = t0.elapsed().as_secs_f64();
    assert!(r.telemetry.spans > 0);
    res.push(
        "span_stream_ops_per_sec",
        r.telemetry.spans as f64 / stream_wall.max(1e-9),
        "spans/s",
    );
    let _ = std::fs::remove_file(&span_path);

    // Packed-op footprint: the trajectory record of the 16-byte layout vs
    // the seed's 20-byte field-per-flag struct (host + thread + kind enum +
    // file + start + nblocks + warmup bool, 4-byte aligned).
    res.push(
        "trace_bytes_per_op",
        std::mem::size_of::<TraceOp>() as f64,
        "B",
    );
    res.push("trace_bytes_per_op_seed", 20.0, "B");

    // Streamed replay throughput — the zero-copy fast path: a `ByteReader`
    // over the raw FCTRACE1 image forks one cursor per (host, thread) slot
    // and each engine task decodes its records straight out of the archive
    // bytes, with no chunk queues or op buffering in between. This is what
    // `fcsim replay` runs over a mapped archive.
    let mut archive = Vec::new();
    trace.encode(&mut archive).expect("encode trace");
    let scaled_layered = layered.clone().scaled_down(wb.scale());
    // Best-of-3 wall time: the replay engine is deterministic, so repeat
    // variation is pure measurement noise (scheduler, cache state of a
    // shared CI core) and the minimum is the least-contaminated sample.
    let replay_reps = 3;
    let mut replay_wall = f64::MAX;
    for _ in 0..replay_reps {
        let t0 = Instant::now();
        let mut bytes = ByteReader::new(&archive).expect("trace header");
        let r = fcache_bench::run_source(&scaled_layered, &mut bytes).expect("forked replay");
        replay_wall = replay_wall.min(t0.elapsed().as_secs_f64());
        assert!(r.metrics.read_ops > 0);
    }
    res.push(
        "trace_replay_ops_per_sec",
        trace.len() as f64 / replay_wall,
        "ops/s",
    );

    // The chunk-fed fallback for comparison: buffered `TraceReader` decode
    // through the per-slot feed (spill-bounded queues, resident op memory
    // O(chunk)) — the path non-mappable inputs take.
    let mut chunked_wall = f64::MAX;
    for _ in 0..replay_reps {
        let t0 = Instant::now();
        let mut reader = TraceReader::new(archive.as_slice()).expect("trace header");
        let r = fcache_bench::run_source(&scaled_layered, &mut reader).expect("chunked replay");
        chunked_wall = chunked_wall.min(t0.elapsed().as_secs_f64());
        assert!(r.metrics.read_ops > 0);
    }
    res.push(
        "trace_replay_chunked_ops_per_sec",
        trace.len() as f64 / chunked_wall,
        "ops/s",
    );

    // End-to-end file replay through a real memory mapping: archive on
    // disk, `Workload::file` (open → mmap → `ByteReader` → forked cursors),
    // including open/map/header cost.
    let replay_path = std::env::temp_dir().join("fcache_bench_replay.fctrace");
    std::fs::write(&replay_path, &archive).expect("write archive");
    let mut mmap_wall = f64::MAX;
    for _ in 0..replay_reps {
        let t0 = Instant::now();
        let r = fcache_bench::Scenario::new(scaled_layered.clone(), Workload::file(&replay_path))
            .run()
            .expect("mmap replay");
        mmap_wall = mmap_wall.min(t0.elapsed().as_secs_f64());
        assert!(r.metrics.read_ops > 0);
    }
    let _ = std::fs::remove_file(&replay_path);
    res.push(
        "replay_mmap_ops_per_sec",
        trace.len() as f64 / mmap_wall,
        "ops/s",
    );

    let unified = SimConfig {
        arch: Architecture::Unified,
        ..SimConfig::baseline()
    };
    let t0 = Instant::now();
    wb.run_with_trace(&unified, &trace).expect("unified run");
    res.push(
        "unified_sim_ops_per_sec",
        blocks / t0.elapsed().as_secs_f64(),
        "blocks/s",
    );

    // Sweep scaling: the same 4 configurations serial vs parallel.
    let cfgs: Vec<SimConfig> = [0u64, 32, 64, 128]
        .iter()
        .map(|g| {
            SimConfig {
                flash_size: ByteSize::gib(*g),
                ..SimConfig::baseline()
            }
            .scaled_down(scale)
        })
        .collect();
    let t0 = Instant::now();
    for cfg in &cfgs {
        fcache_bench::run_trace(cfg, &trace).expect("serial sweep");
    }
    let serial_wall = t0.elapsed().as_secs_f64();
    res.push("sweep4_serial_wall_s", serial_wall, "s");

    let t0 = Instant::now();
    let results = cfgs
        .iter()
        .enumerate()
        .fold(Sweep::new(), |sweep, (i, cfg)| {
            sweep.scenario(
                format!("job{i}"),
                Scenario::new(cfg.clone(), Workload::trace(&trace)),
            )
        })
        .run();
    let parallel_wall = t0.elapsed().as_secs_f64();
    assert!(results.iter().all(|item| item.is_ok()));
    res.push("sweep4_parallel_wall_s", parallel_wall, "s");
    res.push("sweep4_speedup", serial_wall / parallel_wall.max(1e-9), "x");

    // Fully streamed sweep: the same 4 configurations, but each job
    // regenerates its own `TraceStream` instead of borrowing the resident
    // trace — the O(chunk × jobs) sweep mode. Throughput counts every
    // job's ops (generation + simulation per job).
    let spec = WorkloadSpec::baseline_60g();
    let t0 = Instant::now();
    let streamed = Sweep::over(Workload::stream(|| wb.make_stream(&spec)))
        .configs(cfgs.iter().cloned())
        .run();
    let streamed_wall = t0.elapsed().as_secs_f64();
    let reports = streamed.into_reports().expect("streamed sweep");
    assert_eq!(reports.len(), cfgs.len());
    res.push(
        "sweep_streamed_ops_per_sec",
        (trace.len() * cfgs.len()) as f64 / streamed_wall.max(1e-9),
        "ops/s",
    );
    res.push(
        "sweep_workers",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1) as f64,
        "threads",
    );

    // Fleet throughput: 1000 hosts in 100-host cells on shared wires
    // (fan-in 4), one DES job per cell through the in-process fleet path.
    // Deeper scaling than the single-host benches keeps this smoke-speed;
    // the metric is simulated blocks across all cells per wall second.
    let fleet_scale = scale.max(4096);
    let fleet = Fleet::new(
        SimConfig {
            ram_size: ByteSize::gib(8),
            flash_size: ByteSize::gib(32),
            ..SimConfig::baseline()
        },
        FleetSpec {
            hosts: 1000,
            cell_hosts: 100,
            hosts_per_segment: 4,
            workload: WorkloadSpec {
                working_set: ByteSize::gib(32),
                seed: 7,
                ..WorkloadSpec::default()
            },
            scale: fleet_scale,
        },
    );
    let t0 = Instant::now();
    let summary = fleet.run().expect("fleet run").summary();
    let fleet_wall = t0.elapsed().as_secs_f64();
    assert!(summary.hosts == 1000 && summary.queue_waits > 0);
    res.push(
        "fleet_1k_hosts_ops_per_sec",
        (summary.metrics.read_blocks + summary.metrics.write_blocks) as f64 / fleet_wall.max(1e-9),
        "blocks/s",
    );

    // Invariant 13's price tag: a one-host fleet cell is the pre-fleet
    // engine plus per-host metric sinks and the fleet fold, so the wall
    // ratio to the plain run on the same trace should hover near 1.
    let layered_fleet = SimConfig {
        fleet: Some(FleetTopology {
            cell: 0,
            cells: 1,
            host_base: 0,
            fleet_hosts: 1,
            hosts_per_segment: 1,
        }),
        ..SimConfig::baseline()
    };
    let t0 = Instant::now();
    let r = wb
        .run_with_trace(&layered_fleet, &trace)
        .expect("fleet-engaged run");
    let fleet1_wall = t0.elapsed().as_secs_f64();
    assert!(r.fleet.engaged());
    res.push(
        "fleet_overhead_vs_single_host",
        fleet1_wall / layered_wall.max(1e-9),
        "x",
    );

    let out = std::env::var("FCACHE_BENCH_OUT").unwrap_or_else(|_| "BENCH_micro.json".into());
    let json = res.to_json();
    println!("{json}");
    if let Err(e) = std::fs::write(&out, format!("{json}\n")) {
        eprintln!("could not write {out}: {e}");
    } else {
        println!("# json written to {out}");
    }
}
