//! Output checks: per-job conservation against the generated input, and
//! a digest of every simulated statistic.

use fcache::{report_to_json, SimReport};
use fcache_types::Json;

use crate::workloads::{Expect, Job};

/// Digest of every simulated statistic in `report`: FNV-1a over its exact
/// results-JSON encoding with the sim-time telemetry section left out (it
/// is present only on traced runs). The report holds no host-side (wall
/// clock) fields.
pub fn digest(report: &SimReport) -> String {
    let mut r = report.clone();
    r.telemetry = Default::default();
    let text = report_to_json(&r).to_string();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Conservation checks for one job; returns what failed.
///
/// - the job completed;
/// - measured ops and blocks equal the input's post-warmup ops and blocks;
/// - on traced runs, one span per measured op, and the per-phase times
///   sum exactly to the summed op latency.
pub fn conservation(job: &Job, expect: Option<&Expect>, traced: bool) -> Vec<String> {
    let mut bad = Vec::new();
    let report = match &job.report {
        Ok(r) => r,
        Err(e) => return vec![format!("{}: {e}", job.label)],
    };
    let m = &report.metrics;
    let ops = m.read_ops + m.write_ops;
    let blocks = m.read_blocks + m.write_blocks;
    match expect {
        None => bad.push(format!("{}: no generated input recorded", job.label)),
        Some(e) => {
            if ops != e.ops || blocks != e.blocks {
                bad.push(format!(
                    "{}: measured {ops} ops / {blocks} blocks, input has {} / {}",
                    job.label, e.ops, e.blocks
                ));
            }
        }
    }
    if traced {
        let t = &report.telemetry;
        let latency = m.read_latency.as_nanos() + m.write_latency.as_nanos();
        if t.spans != ops {
            bad.push(format!("{}: {} spans for {ops} ops", job.label, t.spans));
        }
        if t.total_ns() != latency {
            bad.push(format!(
                "{}: phases sum to {} ns, latency is {latency} ns",
                job.label,
                t.total_ns()
            ));
        }
    }
    bad
}

/// Recorded digests: `{"seed": N, "workloads": {name: {label: digest}}}`.
pub struct Digests {
    pub seed: u64,
    doc: Json,
}

impl Digests {
    pub fn load(path: &std::path::Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let seed = doc
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{}: no seed", path.display()))?;
        Ok(Self { seed, doc })
    }

    /// The recorded digest of job `label` of `workload`.
    pub fn get(&self, workload: &str, label: &str) -> Option<&str> {
        self.doc
            .get("workloads")?
            .get(workload)?
            .get(label)?
            .as_str()
    }

    /// Whether any digest is recorded for `workload`.
    pub fn has(&self, workload: &str) -> bool {
        self.doc
            .get("workloads")
            .and_then(|w| w.get(workload))
            .is_some()
    }
}
