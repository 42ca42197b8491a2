//! Wall-clock spans recorded by the benchmark around its own calls into
//! the simulator's layers.
//!
//! Spans are kept in memory and written out when the run ends. Each has a
//! name, a start and end on one monotonic clock, the span that caused it,
//! and the sweep job (or fleet cell) it belongs to. Calls that happen once
//! per operation — the engine pulling ops out of a [`TraceSource`] — are
//! *coalesced*: one span per job whose `busy_ns` is the time spent inside
//! those calls and whose `calls` counts them, instead of one span per op.
//!
//! A span's self time is its busy time minus the part covered by its
//! children: the union of its ordinary children's intervals, and the busy
//! time of its coalesced children.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fcache::{ResultRow, ResultSink};
use fcache_types::{Json, SlotCursor, TraceMeta, TraceOp, TraceSource};

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    job: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    busy_ns: u64,
    calls: u64,
    coalesced: bool,
}

/// In-memory span recorder, shared by every worker thread of a run.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    /// Open job spans by sweep job index (closed by [`JobSink`]).
    jobs: Mutex<HashMap<usize, SpanId>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            jobs: Mutex::new(HashMap::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now.
    pub fn begin(&self, name: &'static str, parent: Option<SpanId>, job: Option<usize>) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans.push(Span {
            name,
            parent,
            job,
            start_ns,
            end_ns: start_ns,
            busy_ns: 0,
            calls: 1,
            coalesced: false,
        });
        spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn end(&self, id: SpanId) {
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span list poisoned");
        let s = &mut spans[id];
        s.end_ns = end_ns;
        s.busy_ns = end_ns - s.start_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<T>(&self, name: &'static str, parent: Option<SpanId>, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, parent, None);
        let out = f();
        self.end(id);
        out
    }

    /// Records the coalesced span `name` of `acc`'s calls under `parent`.
    /// Runs inside `Drop`, so a poisoned span list is skipped, not
    /// unwrapped.
    fn record_coalesced(&self, name: &'static str, parent: SpanId, job: usize, acc: &FeedAcc) {
        let end_ns = acc.last_ns.load(Ordering::Relaxed);
        let span = Span {
            name,
            parent: Some(parent),
            job: Some(job),
            start_ns: acc.first_ns.load(Ordering::Relaxed).min(end_ns),
            end_ns,
            busy_ns: acc.busy_ns.load(Ordering::Relaxed),
            calls: acc.calls.load(Ordering::Relaxed),
            coalesced: true,
        };
        if let Ok(mut spans) = self.spans.lock() {
            spans.push(span);
        }
    }

    /// Opens the span of sweep job `job` (at its workload factory call).
    fn open_job(&self, parent: SpanId, job: usize) -> SpanId {
        let id = self.begin("job", Some(parent), Some(job));
        self.jobs
            .lock()
            .expect("job table poisoned")
            .insert(job, id);
        id
    }

    /// Closes the span of job `job` if it is still open (jobs that deliver
    /// no row, such as a lone [`fcache::Scenario`]).
    pub fn end_job(&self, job: usize) {
        let open = self.jobs.lock().expect("job table poisoned").remove(&job);
        if let Some(id) = open {
            self.end(id);
        }
    }

    /// Total busy nanoseconds of every span named `name`.
    pub fn busy_ns(&self, name: &str) -> u64 {
        let spans = self.spans.lock().expect("span list poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.busy_ns)
            .sum()
    }

    /// Self time in nanoseconds per span name, over the spans descending
    /// from `root` (inclusive), or over every span when `root` is `None`.
    pub fn self_ns(&self, root: Option<SpanId>) -> BTreeMap<&'static str, u64> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let in_tree = |mut i: SpanId| -> bool {
            let Some(root) = root else { return true };
            loop {
                if i == root {
                    return true;
                }
                match spans[i].parent {
                    Some(p) => i = p,
                    None => return false,
                }
            }
        };
        let mut out = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            if !in_tree(i) {
                continue;
            }
            let mut covered = 0u64;
            let mut intervals: Vec<(u64, u64)> = Vec::new();
            for &c in &children[i] {
                let cs = &spans[c];
                if cs.coalesced {
                    covered += cs.busy_ns;
                } else {
                    intervals.push((cs.start_ns.max(s.start_ns), cs.end_ns.min(s.end_ns)));
                }
            }
            covered += union_len(&mut intervals);
            *out.entry(s.name).or_insert(0) += s.busy_ns.saturating_sub(covered);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or(Json::Null, |v| Json::U64(v as u64));
            let row = Json::obj()
                .field("id", Json::U64(i as u64))
                .field("name", Json::Str(s.name.to_string()))
                .field("parent", opt(s.parent))
                .field("job", opt(s.job))
                .field("start_ns", Json::U64(s.start_ns))
                .field("end_ns", Json::U64(s.end_ns))
                .field("busy_ns", Json::U64(s.busy_ns))
                .field("calls", Json::U64(s.calls));
            writeln!(out, "{}", row.to_string())?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` (sorted in place).
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter().filter(|(a, b)| b > a) {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Time spent inside one job's feed calls.
#[derive(Default)]
struct FeedAcc {
    busy_ns: AtomicU64,
    calls: AtomicU64,
    first_ns: AtomicU64,
    last_ns: AtomicU64,
}

impl FeedAcc {
    fn timed<T>(&self, tracer: &Tracer, f: impl FnOnce() -> T) -> T {
        let t0 = tracer.now_ns();
        let out = f();
        let t1 = tracer.now_ns();
        if self.calls.fetch_add(1, Ordering::Relaxed) == 0 {
            self.first_ns.store(t0, Ordering::Relaxed);
        }
        self.busy_ns.fetch_add(t1 - t0, Ordering::Relaxed);
        self.last_ns.fetch_max(t1, Ordering::Relaxed);
        out
    }
}

/// A [`TraceSource`] that times every call the engine makes into the
/// source it wraps, including calls into forked per-slot cursors. Made by
/// a job's workload factory: making one opens the job's span; dropping it
/// records the job's coalesced `feed` span.
pub struct TimedSource<'t, S> {
    inner: S,
    tracer: &'t Tracer,
    job_span: SpanId,
    job: usize,
    acc: Arc<FeedAcc>,
}

impl<'t, S: TraceSource> TimedSource<'t, S> {
    pub fn new(inner: S, tracer: &'t Tracer, parent: SpanId, job: usize) -> Self {
        let job_span = tracer.open_job(parent, job);
        Self {
            inner,
            tracer,
            job_span,
            job,
            acc: Arc::new(FeedAcc::default()),
        }
    }
}

impl<S: TraceSource> TraceSource for TimedSource<'_, S> {
    fn meta(&self) -> &TraceMeta {
        self.inner.meta()
    }

    fn next_chunk(&mut self, out: &mut Vec<TraceOp>, max: usize) -> io::Result<usize> {
        let (acc, tracer, inner) = (&self.acc, self.tracer, &mut self.inner);
        acc.timed(tracer, || inner.next_chunk(out, max))
    }

    fn fork_slot(&self, host: u16, thread: u16) -> Option<Box<dyn SlotCursor + '_>> {
        let inner = self
            .acc
            .timed(self.tracer, || self.inner.fork_slot(host, thread))?;
        Some(Box::new(TimedCursor {
            inner,
            tracer: self.tracer,
            acc: Arc::clone(&self.acc),
        }))
    }
}

impl<S> Drop for TimedSource<'_, S> {
    fn drop(&mut self) {
        self.tracer
            .record_coalesced("feed", self.job_span, self.job, &self.acc);
    }
}

struct TimedCursor<'a> {
    inner: Box<dyn SlotCursor + 'a>,
    tracer: &'a Tracer,
    acc: Arc<FeedAcc>,
}

impl SlotCursor for TimedCursor<'_> {
    fn next(&mut self) -> io::Result<Option<TraceOp>> {
        let (acc, tracer, inner) = (&self.acc, self.tracer, &mut self.inner);
        acc.timed(tracer, || inner.next())
    }
}

/// A [`ResultSink`] that records a `sink` span around each row's delivery
/// and closes the delivering job's span after it.
pub struct JobSink<'t, 's> {
    pub inner: &'s mut dyn ResultSink,
    pub tracer: &'t Tracer,
}

impl ResultSink for JobSink<'_, '_> {
    fn on_row(&mut self, row: ResultRow) -> io::Result<()> {
        let index = row.index;
        let job = self
            .tracer
            .jobs
            .lock()
            .expect("job table poisoned")
            .remove(&index);
        let id = self.tracer.begin("sink", job, Some(index));
        let out = self.inner.on_row(row);
        self.tracer.end(id);
        if let Some(job) = job {
            self.tracer.end(job);
        }
        out
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}
