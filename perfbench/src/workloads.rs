//! The three benchmark workloads, each driven through the simulator's
//! public run surface: a [`Scenario`] over an archived trace, a [`Sweep`]
//! of streamed jobs into a [`JsonlSink`], and a [`Fleet`] through its
//! worker-part and merge path.
//!
//! Every workload is a fixed batch input made from the benchmark seed.
//! Setup (file-server model, trace generation, archive encoding) is timed
//! on its own; a pass runs every job of the workload once.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use fcache::{
    read_rows, Architecture, DegradedPolicy, FlashTiming, JsonlSink, MemorySink, Scenario,
    SimConfig, SimReport, Sweep, TeeSink, Workbench, Workload, WorkloadSpec,
};
use fcache_des::SimTime;
use fcache_device::SsdConfig;
use fcache_fleet::{Fleet, FleetSpec, FleetSummary};
use fcache_types::{ByteReader, ByteSize, FaultPlan, TraceOp, TraceSource};

use crate::spans::{JobSink, SpanId, TimedSource, Tracer};

/// Names of the workloads, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["replay_paper", "sweep_ssd", "fleet_shard_outage"];

/// Trace threads per host (the generator's default, the paper's eight):
/// concurrent replay tasks per simulated host.
const TASKS: usize = 8;

/// Telemetry window used by traced runs (paper-scale sim time).
const TRACE_WINDOW: SimTime = SimTime::from_micros(10_000_000);

/// Where traced calls record their spans: the tracer and the parent span.
pub type Trace<'t> = Option<(&'t Tracer, SpanId)>;

/// Input-side counts one job must reproduce: its measured (post-warmup)
/// operations and blocks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Expect {
    pub ops: u64,
    pub blocks: u64,
    /// Every operation of the input, warmup included.
    pub input_ops: u64,
}

impl Expect {
    fn add(&mut self, op: &TraceOp) {
        self.input_ops += 1;
        if !op.warmup() {
            self.ops += 1;
            self.blocks += u64::from(op.nblocks());
        }
    }

    fn of_source(source: &mut impl TraceSource) -> io::Result<Self> {
        let mut e = Expect::default();
        let mut chunk = Vec::with_capacity(4096);
        loop {
            chunk.clear();
            if source.next_chunk(&mut chunk, 4096)? == 0 {
                return Ok(e);
            }
            chunk.iter().for_each(|op| e.add(op));
        }
    }
}

/// One finished job: its label and its report or error.
pub struct Job {
    pub label: String,
    pub report: Result<SimReport, String>,
}

/// What one pass over a workload produced.
#[derive(Default)]
pub struct Rep {
    pub jobs: Vec<Job>,
    /// Problems found reading the pass's results file back.
    pub row_errors: Vec<String>,
    pub merge_ms: f64,
    pub fold_ms: f64,
}

/// Setup-phase timings of the last setup.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub fsmodel_s: f64,
    pub gen_s: f64,
    pub gen_ops: u64,
    pub encode_s: f64,
}

/// A benchmark workload.
pub trait Bench {
    /// Worker threads the workload's pool runs with.
    fn threads(&self) -> usize;
    /// Builds the inputs; may run several times, the last one is kept.
    fn setup(&mut self, trace: Trace<'_>) -> io::Result<SetupTimes>;
    /// Expected input-side counts per job label.
    fn expected(&self) -> &BTreeMap<String, Expect>;
    /// One pass. With a tracer, also engages the simulator's sim-time
    /// telemetry and wraps its trace sources and result sinks.
    fn run(&self, trace: Trace<'_>) -> Rep;
    /// The benchmark's standalone probes of single layers.
    fn probes(&self) -> crate::probes::ProbeInput<'_>;
}

/// Builds the workload `name` with its inputs seeded by `seed`.
pub fn make(name: &str, seed: u64, threads: usize, work: &Path) -> Option<Box<dyn Bench>> {
    match name {
        "replay_paper" => Some(Box::new(ReplayPaper::new(seed, work))),
        "sweep_ssd" => Some(Box::new(SweepSsd::new(seed, threads, work))),
        "fleet_shard_outage" => Some(Box::new(FleetOutage::new(seed, threads, work))),
        _ => None,
    }
}

/// Runs `f` in a span named `name` when tracing, returning its result and
/// wall seconds.
fn step<T>(trace: Trace<'_>, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = match trace {
        Some((tracer, parent)) => tracer.scope(name, Some(parent), f),
        None => f(),
    };
    (out, t0.elapsed().as_secs_f64())
}

/// `cfg`, with sim-time telemetry engaged on traced passes.
fn with_telemetry(cfg: &SimConfig, trace: Trace<'_>) -> SimConfig {
    SimConfig {
        telemetry_windows: trace.map(|_| TRACE_WINDOW),
        ..cfg.clone()
    }
}

/// Strictly reads the results file at `path` back: it must hold exactly
/// one row per delivered job, each decoding to that job's report.
fn check_rows(path: &Path, delivered: &BTreeMap<String, SimReport>, rep: &mut Rep) {
    let rows = match read_rows(path) {
        Ok(rows) => rows,
        Err(e) => return rep.row_errors.push(format!("read_rows: {e}")),
    };
    let mut seen = BTreeSet::new();
    for row in &rows {
        if !seen.insert(row.label.as_str()) {
            rep.row_errors
                .push(format!("row {:?} appears twice", row.label));
        } else if delivered.get(&row.label) != Some(&row.report) {
            rep.row_errors
                .push(format!("row {:?} does not decode to its report", row.label));
        }
    }
    if seen.len() != delivered.len() {
        rep.row_errors.push(format!(
            "results file holds {} of {} rows",
            seen.len(),
            delivered.len()
        ));
    }
}

/// Every job of a pass that failed as a whole, with its error.
fn all_failed(labels: Vec<String>, error: String) -> Vec<Job> {
    labels
        .into_iter()
        .map(|label| Job {
            label,
            report: Err(error.clone()),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// replay_paper

/// The paper's §4 baseline replayed from an `FCTRACE1` archive through
/// the memory-mapped file feed.
pub struct ReplayPaper {
    seed: u64,
    cfg: SimConfig,
    archive: PathBuf,
    expected: BTreeMap<String, Expect>,
}

impl ReplayPaper {
    const SCALE: u64 = 16;
    const LABEL: &'static str = "naive ram=8G flash=64G ws=60G wr=30%";

    fn new(seed: u64, work: &Path) -> Self {
        let cfg = SimConfig {
            arch: Architecture::Naive,
            ram_size: ByteSize::gib(8),
            flash_size: ByteSize::gib(64),
            seed,
            ..SimConfig::baseline()
        }
        .scaled_down(Self::SCALE);
        Self {
            seed,
            cfg,
            archive: work.join("replay_paper.fctrace"),
            expected: BTreeMap::new(),
        }
    }

    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            working_set: ByteSize::gib(60),
            write_fraction: 0.3,
            seed: self.seed,
            ..WorkloadSpec::default()
        }
    }
}

impl Bench for ReplayPaper {
    fn threads(&self) -> usize {
        1
    }

    fn setup(&mut self, trace: Trace<'_>) -> io::Result<SetupTimes> {
        let t0 = Instant::now();
        let (wb, fsmodel_s) = step(trace, "fsmodel", || Workbench::new(Self::SCALE, self.seed));
        let (ops, gen_s) = step(trace, "tracegen", || wb.make_trace(&self.spec()));
        let mut bytes = Vec::new();
        let (encoded, encode_s) = step(trace, "encode", || ops.encode(&mut bytes));
        encoded?;
        step(trace, "write", || std::fs::write(&self.archive, &bytes)).0?;
        let mut expect = Expect::default();
        ops.ops.iter().for_each(|op| expect.add(op));
        self.expected = BTreeMap::from([(Self::LABEL.to_string(), expect)]);
        Ok(SetupTimes {
            total_s: t0.elapsed().as_secs_f64(),
            fsmodel_s,
            gen_s,
            gen_ops: ops.len() as u64,
            encode_s,
        })
    }

    fn expected(&self) -> &BTreeMap<String, Expect> {
        &self.expected
    }

    fn run(&self, trace: Trace<'_>) -> Rep {
        let report = match trace {
            None => Scenario::new(self.cfg.clone(), Workload::file(&self.archive)).run(),
            Some((tracer, parent)) => {
                // The same mapped-archive feed `Workload::file` uses, with
                // the engine's calls into it timed.
                let file = std::fs::File::open(&self.archive).expect("open archive");
                let map = fcache_mmap::Mmap::map(&file).expect("map archive");
                let bytes: &[u8] = &map;
                let cfg = with_telemetry(&self.cfg, trace);
                let workload = Workload::stream(|| {
                    let reader = ByteReader::new(bytes).expect("archive header");
                    TimedSource::new(reader, tracer, parent, 0)
                });
                let report = Scenario::new(cfg, workload).run();
                tracer.end_job(0);
                report
            }
        };
        Rep {
            jobs: vec![Job {
                label: Self::LABEL.to_string(),
                report: report.map_err(|e| e.to_string()),
            }],
            ..Rep::default()
        }
    }

    fn probes(&self) -> crate::probes::ProbeInput<'_> {
        crate::probes::ProbeInput {
            archive: Some(&self.archive),
            stream: None,
            caches: vec![(self.cfg.ram_blocks(), self.cfg.flash_blocks(), false)],
            ssd: None,
            tasks: TASKS,
        }
    }
}

// ---------------------------------------------------------------------------
// sweep_ssd

/// A write-heavy policy sweep under queue-aware SSD timing, every job
/// regenerating its trace, rows streamed through a JSONL sink.
pub struct SweepSsd {
    seed: u64,
    threads: usize,
    jobs: Vec<(String, SimConfig)>,
    rows: PathBuf,
    wb: Option<Workbench>,
    expected: BTreeMap<String, Expect>,
}

impl SweepSsd {
    const SCALE: u64 = 64;

    fn new(seed: u64, threads: usize, work: &Path) -> Self {
        let mut jobs = Vec::new();
        for arch in [
            Architecture::Naive,
            Architecture::Lookaside,
            Architecture::Unified,
        ] {
            for flash in [ByteSize::gib(16), ByteSize::gib(64)] {
                let cfg = SimConfig {
                    arch,
                    flash_size: flash,
                    flash_timing: FlashTiming::Ssd(SsdConfig::auto()),
                    seed,
                    ..SimConfig::baseline()
                };
                jobs.push((
                    format!("{} flash={flash}", arch.name()),
                    cfg.scaled_down(Self::SCALE),
                ));
            }
        }
        Self {
            seed,
            threads,
            jobs,
            rows: work.join("sweep_ssd.rows.jsonl"),
            wb: None,
            expected: BTreeMap::new(),
        }
    }

    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            working_set: ByteSize::gib(60),
            write_fraction: 0.6,
            seed: self.seed,
            ..WorkloadSpec::default()
        }
    }
}

impl Bench for SweepSsd {
    fn threads(&self) -> usize {
        self.threads
    }

    fn setup(&mut self, trace: Trace<'_>) -> io::Result<SetupTimes> {
        let t0 = Instant::now();
        self.wb = None;
        let (wb, fsmodel_s) = step(trace, "fsmodel", || Workbench::new(Self::SCALE, self.seed));
        let (expect, gen_s) = step(trace, "tracegen", || {
            Expect::of_source(&mut wb.make_stream(&self.spec()))
        });
        let expect = expect?;
        self.expected = self
            .jobs
            .iter()
            .map(|(label, _)| (label.clone(), expect))
            .collect();
        self.wb = Some(wb);
        Ok(SetupTimes {
            total_s: t0.elapsed().as_secs_f64(),
            fsmodel_s,
            gen_s,
            gen_ops: expect.input_ops,
            ..SetupTimes::default()
        })
    }

    fn expected(&self) -> &BTreeMap<String, Expect> {
        &self.expected
    }

    fn run(&self, trace: Trace<'_>) -> Rep {
        let mut rep = Rep::default();
        let mut jsonl = match JsonlSink::create(&self.rows) {
            Ok(s) => s,
            Err(e) => {
                let labels = self.jobs.iter().map(|(l, _)| l.clone()).collect();
                rep.jobs = all_failed(labels, format!("create results file: {e}"));
                return rep;
            }
        };
        let mut memory = MemorySink::new();
        let mut tee = TeeSink::new(&mut jsonl, &mut memory);
        let wb = self.wb.as_ref().expect("setup ran");
        let spec = self.spec();
        let mut sweep = Sweep::new().threads(self.threads);
        for (i, (label, cfg)) in self.jobs.iter().enumerate() {
            let spec = spec.clone();
            let source = move || wb.make_stream(&spec);
            let workload = match trace {
                None => Workload::stream(source),
                Some((tracer, parent)) => {
                    Workload::stream(move || TimedSource::new(source(), tracer, parent, i))
                }
            };
            sweep = sweep.scenario(
                label.clone(),
                Scenario::new(with_telemetry(cfg, trace), workload),
            );
        }

        let results = match trace {
            None => sweep.sink(&mut tee).run(),
            Some((tracer, _)) => sweep
                .sink(&mut JobSink {
                    inner: &mut tee,
                    tracer,
                })
                .run(),
        };
        if let Some(e) = results.sink_error() {
            rep.row_errors.push(format!("sink: {e}"));
        }
        let delivered: BTreeMap<String, SimReport> = memory
            .into_rows()
            .into_iter()
            .map(|row| (row.label, row.report))
            .collect();
        check_rows(&self.rows, &delivered, &mut rep);
        rep.jobs = results
            .iter()
            .map(|item| Job {
                label: item.label.clone(),
                report: match &item.error {
                    Some(e) => Err(e.to_string()),
                    None => delivered
                        .get(&item.label)
                        .cloned()
                        .ok_or_else(|| "no row delivered".to_string()),
                },
            })
            .collect();
        rep
    }

    fn probes(&self) -> crate::probes::ProbeInput<'_> {
        let wb = self.wb.as_ref().expect("setup ran");
        let small = &self.jobs[0].1;
        crate::probes::ProbeInput {
            archive: None,
            stream: Some(Box::new(wb.make_stream(&self.spec()))),
            caches: vec![
                (small.ram_blocks(), small.flash_blocks(), false),
                (small.ram_blocks(), small.flash_blocks(), true),
            ],
            ssd: Some(small.clone()),
            tasks: TASKS,
        }
    }
}

// ---------------------------------------------------------------------------
// fleet_shard_outage

/// A 1000-host fleet on shared uplinks against a sharded, replicated,
/// hedged remote tier that loses a shard mid-run.
pub struct FleetOutage {
    threads: usize,
    base: SimConfig,
    spec: FleetSpec,
    out: PathBuf,
    wb: Option<Workbench>,
    expected: BTreeMap<String, Expect>,
}

/// The fleet's fault plan, in paper-scale time. At 1/1024 scale a cell's
/// run covers about 65 s of paper time. Shard 1 is down from 24 s to 34 s,
/// around the start of the measured ops (reads fail over, hedges race,
/// writes leave copies under-replicated and recovery re-replicates them
/// well before the run ends), and inside that window the whole backend
/// blips for 1 s (degraded-mode queueing and retries).
const FAULTS: &str = "shard1:outage@24s-34s;filer:outage@29s-30s";

impl FleetOutage {
    const SCALE: u64 = 1024;

    fn new(seed: u64, threads: usize, work: &Path) -> Self {
        let mut base = SimConfig {
            ram_size: ByteSize::gib(8),
            flash_size: ByteSize::gib(32),
            shards: 4,
            replicas: 2,
            hedge: Some(SimTime::from_micros(200)),
            fault_plan: FaultPlan::parse(FAULTS).expect("fault grammar"),
            seed,
            ..SimConfig::baseline()
        };
        base.robustness.degraded = DegradedPolicy::Queue;
        let spec = FleetSpec {
            hosts: 1000,
            cell_hosts: 100,
            hosts_per_segment: 4,
            workload: WorkloadSpec {
                working_set: ByteSize::gib(32),
                write_fraction: 0.3,
                seed,
                ..WorkloadSpec::default()
            },
            scale: Self::SCALE,
        };
        Self {
            threads,
            base,
            spec,
            out: work.join("fleet_shard_outage.rows.jsonl"),
            wb: None,
            expected: BTreeMap::new(),
        }
    }
}

impl Bench for FleetOutage {
    fn threads(&self) -> usize {
        self.threads
    }

    fn setup(&mut self, trace: Trace<'_>) -> io::Result<SetupTimes> {
        let t0 = Instant::now();
        self.wb = None;
        let plan = self.spec.plan();
        let (wb, fsmodel_s) = step(trace, "fsmodel", || {
            Workbench::new(self.spec.scale, self.spec.workload.seed)
        });
        let (expected, gen_s) = step(trace, "tracegen", || {
            (0..plan.cells())
                .map(|cell| {
                    let spec = plan.cell_spec(&self.spec.workload, cell);
                    Ok((
                        plan.cell_label(cell),
                        Expect::of_source(&mut wb.make_stream(&spec))?,
                    ))
                })
                .collect::<io::Result<BTreeMap<_, _>>>()
        });
        self.expected = expected?;
        self.wb = Some(wb);
        Ok(SetupTimes {
            total_s: t0.elapsed().as_secs_f64(),
            fsmodel_s,
            gen_s,
            gen_ops: self.expected.values().map(|e| e.input_ops).sum(),
            ..SetupTimes::default()
        })
    }

    fn expected(&self) -> &BTreeMap<String, Expect> {
        &self.expected
    }

    /// `Fleet::run_worker`, `Fleet::merge_parts` and the fleet fold, as
    /// `fcsim fleet` runs them with one process.
    fn run(&self, trace: Trace<'_>) -> Rep {
        let mut rep = Rep::default();
        let fleet =
            Fleet::new(with_telemetry(&self.base, trace), self.spec.clone()).threads(self.threads);
        let labels: Vec<String> = self.expected.keys().cloned().collect();
        let (ran, _) = step(trace, "worker", || fleet.run_worker(&self.out, 1, 0, false));
        if let Err(e) = ran {
            // The fleet reports its first failed cell only; count them all.
            rep.jobs = all_failed(labels, e.to_string());
            return rep;
        }
        let (merged, merge_s) = step(trace, "merge", || fleet.merge_parts(&self.out, 1));
        rep.merge_ms = merge_s * 1e3;
        let rows = match merged {
            Ok(rows) => rows,
            Err(e) => {
                rep.jobs = all_failed(labels, format!("merge_parts: {e}"));
                return rep;
            }
        };
        let (summary, fold_s) = step(trace, "fold", || FleetSummary::from_rows(&rows));
        rep.fold_ms = fold_s * 1e3;
        if summary.cells != labels.len() {
            rep.row_errors.push(format!(
                "fleet fold saw {} of {} cells",
                summary.cells,
                labels.len()
            ));
        }
        let delivered: BTreeMap<String, SimReport> = rows
            .into_iter()
            .map(|row| (row.label, row.report))
            .collect();
        check_rows(&self.out, &delivered, &mut rep);
        rep.jobs = delivered
            .into_iter()
            .map(|(label, report)| Job {
                label,
                report: Ok(report),
            })
            .collect();
        rep
    }

    fn probes(&self) -> crate::probes::ProbeInput<'_> {
        let wb = self.wb.as_ref().expect("setup ran");
        let plan = self.spec.plan();
        let cell0 = plan.cell_config(&self.base, 0).scaled_down(self.spec.scale);
        crate::probes::ProbeInput {
            archive: None,
            stream: Some(Box::new(
                wb.make_stream(&plan.cell_spec(&self.spec.workload, 0)),
            )),
            caches: vec![(cell0.ram_blocks(), cell0.flash_blocks(), false)],
            ssd: None,
            tasks: usize::from(self.spec.cell_hosts) * TASKS,
        }
    }
}
