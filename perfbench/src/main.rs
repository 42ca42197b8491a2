//! `perfbench`: runs one workload of the flash-cache simulator for a fixed
//! wall-clock budget and prints its metrics as one JSON line.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --work DIR
//!           [--digests FILE]
//! ```
//!
//! With `--trace 0` the workload runs untraced, pass after pass, each pass
//! timed as a whole, and the line carries the end-to-end metrics. With
//! `--trace 1` each untraced pass is followed by a
//! traced one (sim-time telemetry on, spans recorded
//! around the calls into each layer), the layer probes run, the spans are
//! written to `DIR/spans-NAME.jsonl`, and the line carries the per-layer
//! metrics. `perfbench/run.py` builds this binary and drives it.

mod check;
mod probes;
mod spans;
mod sys;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use fcache::SimReport;
use fcache_types::{Json, Phase};

use check::Digests;
use spans::Tracer;
use workloads::{Bench, Rep, SetupTimes};

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// Setups before each untraced pass; `setup_s` is the median of all of
/// a run's setups.
const SETUPS_PER_PASS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: PathBuf,
    digests: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(key.to_string(), value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("--{k} is required"));
    let num = |k: &str| -> Result<f64, String> {
        get(k)?.parse::<f64>().map_err(|e| format!("--{k}: {e}"))
    };
    let seconds = num("seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: get("workload")?.clone(),
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
        work: PathBuf::from(get("work")?),
        digests: flags.get("digests").map(PathBuf::from),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One measured pass: host-side meters around [`Bench::run`].
struct Measured {
    rep: Rep,
    wall_s: f64,
    cpu_s: f64,
    allocs: u64,
    alloc_bytes: u64,
    traced: bool,
}

impl Measured {
    fn ops(&self) -> u64 {
        self.reports()
            .map(|r| r.metrics.read_ops + r.metrics.write_ops)
            .sum()
    }

    fn reports(&self) -> impl Iterator<Item = &SimReport> {
        self.rep.jobs.iter().filter_map(|j| j.report.as_ref().ok())
    }
}

fn measure(bench: &dyn Bench, trace: workloads::Trace<'_>) -> Measured {
    let (a0, b0) = sys::alloc_counts();
    let cpu0 = sys::process_cpu_s();
    let t0 = Instant::now();
    let rep = bench.run(trace);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = sys::process_cpu_s() - cpu0;
    let (a1, b1) = sys::alloc_counts();
    Measured {
        rep,
        wall_s,
        cpu_s,
        allocs: a1 - a0,
        alloc_bytes: b1 - b0,
        traced: trace.is_some(),
    }
}

/// One setup, inside a `setup` span when tracing.
fn setup_once(bench: &mut dyn Bench, tracer: Option<&Tracer>) -> Result<SetupTimes, String> {
    let times = match tracer {
        Some(tracer) => {
            let root = tracer.begin("setup", None, None);
            let t = bench.setup(Some((tracer, root)));
            tracer.end(root);
            t
        }
        None => bench.setup(None),
    };
    times.map_err(|e| format!("setup: {e}"))
}

fn run(args: &Args) -> Result<(), String> {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2);
    std::fs::create_dir_all(&args.work).map_err(|e| format!("{}: {e}", args.work.display()))?;
    let mut bench =
        workloads::make(&args.workload, args.seed, threads, &args.work).ok_or_else(|| {
            format!(
                "unknown workload {:?} (known: {})",
                args.workload,
                workloads::NAMES.join(", ")
            )
        })?;
    let digests = args.digests.as_deref().map(Digests::load).transpose()?;
    if args.trace {
        sys::count_allocations();
    }
    eprintln!(
        "# perfbench {} seed {} threads {threads} trace {}",
        args.workload, args.seed, args.trace as u8
    );

    // Untraced runs set up again before every pass, so setup time is
    // sampled across the whole run like the passes (every setup of one
    // seed makes identical inputs; a pass uses the last one's). Of each
    // group of setups only the first follows a pass, so the median falls
    // among setups that follow a setup. A traced run sets up once, in
    // spans.
    let tracer = Tracer::new();
    let t0 = Instant::now();
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut passes: Vec<Measured> = Vec::new();
    let mut traced_roots = Vec::new();
    let mut peak_rss_mib = None;
    loop {
        let reps = if args.trace {
            usize::from(setups.is_empty())
        } else {
            SETUPS_PER_PASS
        };
        for _ in 0..reps {
            setups.push(setup_once(bench.as_mut(), args.trace.then_some(&tracer))?);
        }
        passes.push(measure(bench.as_ref(), None));
        // Peak memory of setup plus one pass: a later pass's own peak also
        // holds what the allocator retained from the passes before it, so
        // it grows with their number, which depends on speed.
        peak_rss_mib.get_or_insert_with(sys::peak_rss_mib);
        if args.trace {
            let root = tracer.begin("run", None, None);
            passes.push(measure(bench.as_ref(), Some((&tracer, root))));
            tracer.end(root);
            traced_roots.push(root);
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let cycles = passes.len() / if args.trace { 2 } else { 1 };
        if elapsed + elapsed / cycles as f64 > args.seconds {
            break;
        }
    }
    let timed_s = t0.elapsed().as_secs_f64();

    // Checks.
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut first_digest: BTreeMap<String, String> = BTreeMap::new();
    let check_digests = digests.as_ref().is_some_and(|d| d.seed == args.seed);
    if check_digests && !digests.as_ref().is_some_and(|d| d.has(&args.workload)) {
        failures.push(format!("no digests recorded for {}", args.workload));
    }
    for (rep, traced) in passes.iter().map(|p| (&p.rep, p.traced)) {
        let rep_broken = !rep.row_errors.is_empty();
        failures.extend(rep.row_errors.iter().cloned());
        for job in &rep.jobs {
            attempted += 1;
            let mut bad = check::conservation(job, bench.expected().get(&job.label), traced);
            if let Ok(report) = &job.report {
                let d = check::digest(report);
                let first = first_digest.entry(job.label.clone()).or_insert(d.clone());
                if *first != d {
                    bad.push(format!("{}: digest differs between passes", job.label));
                }
                if check_digests {
                    let want = digests
                        .as_ref()
                        .and_then(|x| x.get(&args.workload, &job.label));
                    if want != Some(d.as_str()) {
                        bad.push(format!(
                            "{}: digest {d}, recorded {}",
                            job.label,
                            want.unwrap_or("none")
                        ));
                    }
                }
            }
            if !bad.is_empty() || rep_broken {
                failed += 1;
            }
            failures.extend(bad);
        }
    }
    let plain: Vec<&Measured> = passes.iter().filter(|p| !p.traced).collect();
    let traced: Vec<&Measured> = passes.iter().filter(|p| p.traced).collect();
    let mut metrics: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        metrics.insert(name.to_string(), if v.is_finite() { v } else { 0.0 });
    };
    if !args.trace {
        put(
            "ops_per_s",
            median(plain.iter().map(|p| p.ops() as f64 / p.wall_s).collect()),
        );
        put(
            "cpu_ns_per_op",
            median(
                plain
                    .iter()
                    .map(|p| p.cpu_s * 1e9 / p.ops() as f64)
                    .collect(),
            ),
        );
        put("peak_rss_mib", peak_rss_mib.unwrap_or(0.0));
        put(
            "setup_s",
            median(setups.iter().map(|s| s.total_s).collect()),
        );
    } else {
        // The layer probes and the results round trip count as one more
        // checked job.
        let mut layer_failures = Vec::new();
        layer_metrics(
            bench.as_ref(),
            &setups[0],
            &plain,
            &traced,
            &tracer,
            &traced_roots,
            threads,
            &mut put,
            &mut layer_failures,
        );
        let probes = probes::run(bench.probes());
        put("types.decode_ns_per_op", probes.decode_ns_per_op);
        put("cache.probe_ns", probes.cache_probe_ns);
        put("device.service_ns", probes.device_service_ns);
        put("des.ns_per_event", probes.des_ns_per_event);
        layer_failures.extend(probes.failures);
        attempted += 1;
        failed += u64::from(!layer_failures.is_empty());
        failures.extend(layer_failures);
        let spans_path = args.work.join(format!("spans-{}.jsonl", args.workload));
        tracer
            .write_jsonl(&spans_path)
            .map_err(|e| format!("{}: {e}", spans_path.display()))?;
        eprintln!("# spans written to {}", spans_path.display());
    }
    put("job_fail_frac", failed as f64 / attempted.max(1) as f64);
    failures.sort();
    failures.dedup();
    for f in failures.iter().take(20) {
        eprintln!("# check failed: {f}");
    }

    // Digests of the first pass's jobs, for recording.
    let digest_json = first_digest.iter().fold(Json::obj(), |j, (label, d)| {
        j.field(label, Json::Str(d.clone()))
    });
    let metrics_json = metrics
        .iter()
        .fold(Json::obj(), |j, (name, v)| j.field(name, Json::F64(*v)));
    let line = Json::obj()
        .field("workload", Json::Str(args.workload.clone()))
        .field("seed", Json::U64(args.seed))
        .field("threads", Json::U64(threads as u64))
        .field("trace", Json::Bool(args.trace))
        .field("passes", Json::U64(passes.len() as u64))
        .field("timed_s", Json::F64(timed_s))
        .field(
            "pass_s",
            Json::Arr(plain.iter().map(|p| Json::F64(p.wall_s)).collect()),
        )
        .field(
            "setup_s",
            Json::Arr(setups.iter().map(|s| Json::F64(s.total_s)).collect()),
        )
        .field("digest_checked", Json::Bool(check_digests))
        .field("attempted", Json::U64(attempted))
        .field("failed", Json::U64(failed))
        .field(
            "failures",
            Json::Arr(
                failures
                    .iter()
                    .take(20)
                    .map(|f| Json::Str(f.clone()))
                    .collect(),
            ),
        )
        .field("digests", digest_json)
        .field("metrics", metrics_json);
    println!("{}", line.to_string());
    Ok(())
}

/// Sums of the simulated counters over every job of a pass.
#[derive(Default)]
struct Totals {
    ops: u64,
    read_blocks: u64,
    write_blocks: u64,
    read_latency_ns: u64,
    write_latency_ns: u64,
    events: u64,
    end_ns: u64,
    probes: u64,
    evictions: u64,
    hits: [u64; 3],
    lookups: [u64; 3],
    dev: fcache::DeviceStatsSnapshot,
    packets: u64,
    net_queue_waits: u64,
    net_queue_wait_ns: u64,
    filer_fast: u64,
    filer_slow: u64,
    filer_writes: u64,
    failovers: u64,
    hedges_launched: u64,
    hedges_won: u64,
    re_replicated: u64,
    retries: u64,
    queued_ops: u64,
    degraded_ns: u64,
    phase_ns: [u64; Phase::COUNT],
    spans: u64,
}

impl Totals {
    fn of<'a>(reports: impl Iterator<Item = &'a SimReport>) -> Self {
        let mut t = Totals::default();
        for r in reports {
            let m = &r.metrics;
            t.ops += m.read_ops + m.write_ops;
            t.read_blocks += m.read_blocks;
            t.write_blocks += m.write_blocks;
            t.read_latency_ns += m.read_latency.as_nanos();
            t.write_latency_ns += m.write_latency.as_nanos();
            t.events += r.events;
            t.end_ns += r.end_time.as_nanos();
            for (i, c) in [&r.ram, &r.flash, &r.unified].into_iter().enumerate() {
                t.hits[i] += c.hits;
                t.lookups[i] += c.hits + c.misses;
                t.probes += c.hits + c.misses;
                t.evictions += c.clean_evictions + c.dirty_evictions;
            }
            t.dev += r.device;
            t.packets += r.net.packets;
            t.net_queue_waits += r.net.queue_waits;
            t.net_queue_wait_ns += r.net.queue_wait.as_nanos();
            t.filer_fast += r.filer.fast_reads;
            t.filer_slow += r.filer.slow_reads;
            // Remote-tier runs fold their per-shard filers into `filer`.
            t.filer_writes += r.filer.writes;
            let rs = &r.shard.remote;
            t.failovers += rs.failovers;
            t.hedges_launched += rs.hedges_launched;
            t.hedges_won += rs.hedges_won;
            t.re_replicated += rs.re_replicated_blocks;
            t.retries += r.robustness.retries;
            t.queued_ops += r.robustness.queued_ops;
            t.degraded_ns += r.robustness.degraded_time.as_nanos();
            for (i, ns) in r.telemetry.phase_ns.iter().enumerate() {
                t.phase_ns[i] += ns;
            }
            t.spans += r.telemetry.spans;
        }
        t
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The per-layer metrics of a traced run (names are `<layer>.<metric>`).
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    bench: &dyn Bench,
    setup: &SetupTimes,
    plain: &[&Measured],
    traced: &[&Measured],
    tracer: &Tracer,
    roots: &[spans::SpanId],
    threads: usize,
    put: &mut impl FnMut(&str, f64),
    failures: &mut Vec<String>,
) {
    let last = traced.last().expect("a traced pass ran");
    let t = Totals::of(last.reports());
    let ops = t.ops.max(1);
    let per_op = |v: u64| v as f64 / ops as f64;

    put("fsmodel.build_s", setup.fsmodel_s);
    put(
        "trace.gen_ns_per_op",
        setup.gen_s * 1e9 / setup.gen_ops.max(1) as f64,
    );
    put(
        "types.encode_ns_per_op",
        setup.encode_s * 1e9 / setup.gen_ops.max(1) as f64,
    );
    let feed_ns = tracer.busy_ns("feed") as f64 / traced.len() as f64;
    put("feed.wait_ns_per_op", feed_ns / ops as f64);
    put("des.events_per_op", per_op(t.events));
    put(
        "host.allocs_per_op",
        median(
            plain
                .iter()
                .map(|p| p.allocs as f64 / p.ops().max(1) as f64)
                .collect(),
        ),
    );
    put(
        "host.alloc_bytes_per_op",
        median(
            plain
                .iter()
                .map(|p| p.alloc_bytes as f64 / p.ops().max(1) as f64)
                .collect(),
        ),
    );
    put("cache.probes_per_op", per_op(t.probes));
    put("cache.evictions_per_op", per_op(t.evictions));
    put("cache.ram_hit_ratio", ratio(t.hits[0], t.lookups[0]));
    put("cache.flash_hit_ratio", ratio(t.hits[1], t.lookups[1]));
    put("cache.unified_hit_ratio", ratio(t.hits[2], t.lookups[2]));

    let d = &t.dev;
    put("device.ops_per_op", per_op(d.ops()));
    put(
        "device.queue_wait_frac",
        ratio(d.queue_waits, d.depth_samples),
    );
    put("device.mean_depth", ratio(d.depth_sum, d.depth_samples));
    put(
        "device.mean_service_us",
        ratio(d.read_time.as_nanos() + d.write_time.as_nanos(), d.ops()) / 1e3,
    );

    put("net.packets_per_op", per_op(t.packets));
    put(
        "net.queue_waits_per_packet",
        ratio(t.net_queue_waits, t.packets),
    );
    put(
        "net.queue_wait_us_per_packet",
        ratio(t.net_queue_wait_ns, t.packets) / 1e3,
    );
    put("filer.reads_per_op", per_op(t.filer_fast + t.filer_slow));
    put(
        "filer.slow_read_frac",
        ratio(t.filer_slow, t.filer_fast + t.filer_slow),
    );
    put("filer.writes_per_op", per_op(t.filer_writes));
    put("remote.failovers_per_op", per_op(t.failovers));
    put(
        "remote.hedge_win_ratio",
        ratio(t.hedges_won, t.hedges_launched),
    );
    put("remote.re_replicated_blocks", t.re_replicated as f64);
    put("robust.retries_per_op", per_op(t.retries));
    put("robust.queued_ops", t.queued_ops as f64);
    put("robust.degraded_s", t.degraded_ns as f64 / 1e9);

    for p in Phase::ALL {
        put(
            &format!("phase.{}_us_per_op", p.label()),
            ratio(t.phase_ns[p.index()], t.spans) / 1e3,
        );
    }
    put(
        "model.read_us_per_block",
        ratio(t.read_latency_ns, t.read_blocks) / 1e3,
    );
    put(
        "model.write_us_per_block",
        ratio(t.write_latency_ns, t.write_blocks) / 1e3,
    );
    put("model.sim_s", t.end_ns as f64 / 1e9);

    let wall = |ps: &[&Measured]| median(ps.iter().map(|p| p.wall_s).collect());
    put("telemetry.overhead_x", wall(traced) / wall(plain));

    // Results layer: each job's report as a result row (with the default
    // configuration's summary), encoded and strictly decoded.
    let rows: Vec<fcache::ResultRow> = last
        .rep
        .jobs
        .iter()
        .enumerate()
        .filter_map(|(index, job)| {
            Some(fcache::ResultRow {
                index,
                label: job.label.clone(),
                config: fcache::SimConfig::default(),
                report: job.report.as_ref().ok()?.clone(),
            })
        })
        .collect();
    let t0 = Instant::now();
    let lines: Vec<String> = rows
        .iter()
        .map(|r| fcache::row_to_json(r).to_string())
        .collect();
    let encode_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let decoded = lines
        .iter()
        .filter(|l| {
            Json::parse(l)
                .ok()
                .and_then(|v| fcache::row_from_json(&v).ok())
                .is_some()
        })
        .count();
    let decode_s = t0.elapsed().as_secs_f64();
    let n = rows.len().max(1) as f64;
    put("results.encode_us_per_row", encode_s * 1e6 / n);
    put(
        "results.row_bytes",
        lines.iter().map(|l| l.len() + 1).sum::<usize>() as f64 / n,
    );
    put("results.decode_us_per_row", decode_s * 1e6 / n);
    if decoded != rows.len() {
        failures.push(format!(
            "{} of {} rows fail to decode",
            rows.len() - decoded,
            rows.len()
        ));
    }

    put(
        "sweep.thread_util",
        median(
            plain
                .iter()
                .map(|p| p.cpu_s / (p.wall_s * bench.threads().min(threads) as f64))
                .collect(),
        ),
    );
    put(
        "fleet.merge_ms",
        median(traced.iter().map(|p| p.rep.merge_ms).collect()),
    );
    put(
        "fleet.fold_ms",
        median(traced.iter().map(|p| p.rep.fold_ms).collect()),
    );

    // Self times no other metric already reports (a childless span's self
    // time is its duration, which the metrics above carry for fsmodel,
    // tracegen, encode, feed, merge and fold): setup once, pass spans as
    // the median over traced passes.
    let setup_self = tracer.self_ns(None);
    put(
        "self.setup_ms",
        setup_self.get("setup").copied().unwrap_or(0) as f64 / 1e6,
    );
    let per_pass: Vec<_> = roots.iter().map(|&r| tracer.self_ns(Some(r))).collect();
    for name in ["run", "job", "sink"] {
        put(
            &format!("self.{name}_ms"),
            median(
                per_pass
                    .iter()
                    .map(|m| m.get(name).copied().unwrap_or(0) as f64 / 1e6)
                    .collect(),
            ),
        );
    }
}
