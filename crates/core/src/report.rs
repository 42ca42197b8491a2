//! Aggregated results of one simulation run.

use core::fmt;

use fcache_cache::CacheStats;
use fcache_des::SimTime;
use fcache_device::{IoLogEntry, WindowStat};
use fcache_filer::FilerStats;
use fcache_net::SegmentStats;
use fcache_remote::{RemoteStats, Router};
use fcache_types::FleetTopology;

use crate::config::SimConfig;
use crate::devsvc::DeviceStatsSnapshot;
use crate::metrics::MetricsSnapshot;
use crate::robust::RobustnessStats;
use crate::telemetry::TelemetryStats;

/// Everything measured by one simulation run (post-warmup unless noted).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimReport {
    /// Application-level latency metrics.
    pub metrics: MetricsSnapshot,
    /// RAM tier counters, summed over hosts (naive/lookaside).
    pub ram: CacheStats,
    /// Flash tier counters, summed over hosts (naive/lookaside).
    pub flash: CacheStats,
    /// Unified cache counters, summed over hosts (unified architecture).
    pub unified: CacheStats,
    /// Filer service counters.
    pub filer: FilerStats,
    /// Network counters, summed over host segments.
    pub net: SegmentStats,
    /// Flash device service counters, summed over hosts: service-time
    /// histograms and queue-depth occupancy. All zero under the default
    /// flat timing; populated when `flash_timing` is `Ssd`.
    pub device: DeviceStatsSnapshot,
    /// Per-window device latency averages (the Figure 1 series, produced
    /// by the in-engine device service). Present only when
    /// `flash_timing = Ssd` and `device_window > 0`; covers the whole run
    /// including warmup, since device fill behavior is the point.
    /// Multi-host runs append each host's series in host-id order, with
    /// `start_io` rebased so the combined sequence tiles contiguously.
    pub device_windows: Option<Vec<WindowStat>>,
    /// Simulated time at completion (includes warmup).
    pub end_time: SimTime,
    /// Executor polls performed (a proxy for simulation work).
    pub events: u64,
    /// Flash I/O log (present only when `log_flash_io` was set; covers the
    /// whole run including warmup, since device fill behavior is the point).
    pub flash_iolog: Option<Vec<IoLogEntry>>,
    /// Robustness counters under fault injection: retries, timeouts,
    /// failed/queued ops, degraded time, recovery drains, and per-window
    /// availability. All zero/empty when the run had no fault plan.
    /// Covers the whole run including warmup (like `device_windows`):
    /// fault handling, not steady-state latency, is what it measures.
    pub robustness: RobustnessStats,
    /// Sharded remote-tier counters: topology, per-shard service tallies,
    /// hedged-read and failover counts, and under-replication bookkeeping.
    /// Disengaged (all zero, `shards == 0`) when the run used the plain
    /// single-filer backend.
    pub shard: ShardStats,
    /// Sim-time telemetry: per-phase latency attribution and the unified
    /// window time series, merged across hosts. Default (disengaged) when
    /// the run collected no telemetry. Collecting it never changes any
    /// other field (PERF.md invariant 12).
    pub telemetry: TelemetryStats,
    /// Fleet section: this cell's placement in the fleet and per-host
    /// load/latency rows for fleet-level percentiles. Disengaged (empty)
    /// outside a fleet run; engaging it changes no other field
    /// (PERF.md invariant 13).
    pub fleet: FleetStats,
}

/// One host's post-warmup load and latency tallies within a fleet cell.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostLoadStats {
    /// Global host id (cell `host_base` + local index).
    pub host: u32,
    /// Completed read operations.
    pub read_ops: u64,
    /// Completed write operations.
    pub write_ops: u64,
    /// Sum of read operation latencies (ns).
    pub read_latency_ns: u64,
    /// Sum of write operation latencies (ns).
    pub write_latency_ns: u64,
}

impl HostLoadStats {
    /// Mean per-op read latency in microseconds.
    pub fn mean_read_us(&self) -> f64 {
        if self.read_ops == 0 {
            0.0
        } else {
            self.read_latency_ns as f64 / self.read_ops as f64 / 1000.0
        }
    }

    /// Mean per-op write latency in microseconds.
    pub fn mean_write_us(&self) -> f64 {
        if self.write_ops == 0 {
            0.0
        } else {
            self.write_latency_ns as f64 / self.write_ops as f64 / 1000.0
        }
    }
}

/// Fleet section of a [`SimReport`]: where this cell sits in the fleet
/// and what each of its hosts saw. Empty `per_host` (the default) means
/// the run was not a fleet cell.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FleetStats {
    /// This cell's placement and network fan-in. `None` when disengaged.
    pub topology: Option<FleetTopology>,
    /// Per-host load rows, in global host-id order.
    pub per_host: Vec<HostLoadStats>,
}

impl FleetStats {
    /// True when the run was a fleet cell.
    pub fn engaged(&self) -> bool {
        self.topology.is_some()
    }

    /// Hosts in this cell.
    pub fn hosts(&self) -> usize {
        self.per_host.len()
    }

    /// p50/p95/p99 of the *per-host mean* read latency (µs) across this
    /// cell's hosts — the cross-host spread, exact by sorting (host
    /// counts are thousands, not billions). Zero-read hosts are included
    /// at 0 µs so a starved host drags the spread down visibly.
    pub fn host_read_p50_p95_p99_us(&self) -> (f64, f64, f64) {
        let mut means: Vec<f64> = self
            .per_host
            .iter()
            .map(HostLoadStats::mean_read_us)
            .collect();
        means.sort_by(f64::total_cmp);
        (
            percentile_of_sorted(&means, 50.0),
            percentile_of_sorted(&means, 95.0),
            percentile_of_sorted(&means, 99.0),
        )
    }
}

/// Nearest-rank percentile of an ascending-sorted sample (the same rule
/// [`crate::histogram::HistogramSnapshot::percentile`] uses on buckets).
fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

/// One shard's service tallies plus how long its fault schedule had it in
/// outage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardServiceStats {
    /// Block reads this shard served fast.
    pub fast_reads: u64,
    /// Block reads this shard served slow.
    pub slow_reads: u64,
    /// Blocks written to this shard (including re-replication copies).
    pub writes: u64,
    /// Simulated time this shard spent in outage during the run.
    pub outage_ns: u64,
}

/// Remote-tier section of a [`SimReport`]. `shards == 0` (the default)
/// means the run used the plain single filer, so the report shows no
/// shard section.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardStats {
    /// Number of backend shards (0 when disengaged).
    pub shards: u16,
    /// Replication factor.
    pub replicas: u16,
    /// Scaled hedge delay in simulated ns (0 when hedging was off).
    pub hedge_ns: u64,
    /// Per-shard service tallies, indexed by shard.
    pub per_shard: Vec<ShardServiceStats>,
    /// Replication-layer counters (hedges, failovers, under-replication,
    /// recovery traffic). Covers the whole run including warmup, like
    /// `robustness`.
    pub remote: RemoteStats,
}

impl ShardStats {
    /// The section a run reports: the backend's topology and tallies when
    /// the configuration engages the sharded tier
    /// ([`SimConfig::remote_engaged`]), else the empty section of a plain
    /// single-filer run.
    pub(crate) fn for_run(
        cfg: &SimConfig,
        router: Router,
        hedge_ns: u64,
        per_shard: Vec<ShardServiceStats>,
        remote: RemoteStats,
    ) -> Self {
        if !cfg.remote_engaged() {
            return Self::default();
        }
        Self {
            shards: router.shards(),
            replicas: router.replicas(),
            hedge_ns,
            per_shard,
            remote,
        }
    }

    /// True when the run used the sharded remote tier.
    pub fn engaged(&self) -> bool {
        self.shards > 0
    }
}

impl SimReport {
    /// Mean per-block application read latency (µs) — the paper's primary
    /// metric.
    pub fn read_latency_us(&self) -> f64 {
        self.metrics.read_latency_us()
    }

    /// Mean per-block application write latency (µs).
    pub fn write_latency_us(&self) -> f64 {
        self.metrics.write_latency_us()
    }

    /// RAM cache hit rate over measured lookups.
    pub fn ram_hit_rate(&self) -> f64 {
        self.ram.hit_rate()
    }

    /// Flash hit rate over lookups that reached the flash tier.
    pub fn flash_hit_rate(&self) -> f64 {
        self.flash.hit_rate()
    }

    /// Flash hits as a fraction of *all* block reads (the §7.2 accounting:
    /// "the flash hit rate varies from 0 … to 47%").
    pub fn flash_hit_rate_of_all_reads(&self) -> f64 {
        let all = self.ram.lookups().max(self.flash.lookups());
        if all == 0 {
            0.0
        } else {
            self.flash.hits as f64 / all as f64
        }
    }

    /// Percentage of block writes that invalidated a copy at another host.
    pub fn invalidation_pct(&self) -> f64 {
        self.metrics.invalidation_pct()
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "simulated time     {}", self.end_time)?;
        writeln!(
            f,
            "reads              {} ops / {} blocks, {:.1} us/block",
            self.metrics.read_ops,
            self.metrics.read_blocks,
            self.read_latency_us()
        )?;
        writeln!(
            f,
            "writes             {} ops / {} blocks, {:.1} us/block",
            self.metrics.write_ops,
            self.metrics.write_blocks,
            self.write_latency_us()
        )?;
        let (rp50, rp95, rp99) = self.metrics.read_hist.p50_p95_p99_us();
        let (wp50, wp95, wp99) = self.metrics.write_hist.p50_p95_p99_us();
        if self.metrics.read_ops > 0 {
            writeln!(
                f,
                "read p50/p95/p99   {rp50:.0} / {rp95:.0} / {rp99:.0} us (per op, bucketed)"
            )?;
        }
        if self.metrics.write_ops > 0 {
            writeln!(
                f,
                "write p50/p95/p99  {wp50:.0} / {wp95:.0} / {wp99:.0} us (per op, bucketed)"
            )?;
        }
        writeln!(
            f,
            "ram                {:.1}% hit ({} / {})",
            100.0 * self.ram_hit_rate(),
            self.ram.hits,
            self.ram.lookups()
        )?;
        writeln!(
            f,
            "flash              {:.1}% hit ({} / {})",
            100.0 * self.flash_hit_rate(),
            self.flash.hits,
            self.flash.lookups()
        )?;
        if self.unified.lookups() > 0 {
            writeln!(
                f,
                "unified            {:.1}% hit ({} / {})",
                100.0 * self.unified.hit_rate(),
                self.unified.hits,
                self.unified.lookups()
            )?;
        }
        writeln!(
            f,
            "filer              {} fast / {} slow reads, {} writes",
            self.filer.fast_reads, self.filer.slow_reads, self.filer.writes
        )?;
        writeln!(
            f,
            "network            {} packets, {} payload bytes",
            self.net.packets, self.net.payload_bytes
        )?;
        if self.net.queue_waits > 0 {
            writeln!(
                f,
                "net queueing       {} packets waited, {} total queue time",
                self.net.queue_waits, self.net.queue_wait
            )?;
        }
        if self.device.ops() > 0 {
            writeln!(
                f,
                "device             {} reads ({:.1} us avg) / {} writes ({:.1} us avg)",
                self.device.reads,
                self.device.read_avg_us(),
                self.device.writes,
                self.device.write_avg_us()
            )?;
            let (dp50, dp95, dp99) = self.device.read_hist.p50_p95_p99_us();
            writeln!(
                f,
                "device read p50/p95/p99 {dp50:.0} / {dp95:.0} / {dp99:.0} us (service time, bucketed)"
            )?;
            writeln!(
                f,
                "device queue       depth {:.2} mean / {} peak, {} waits over {} submits",
                self.device.mean_queue_depth(),
                self.device.depth_max,
                self.device.queue_waits,
                self.device.depth_samples
            )?;
        }
        if self.metrics.tracked_writes > 0 {
            writeln!(
                f,
                "invalidations      {:.1}% of {} block writes",
                self.invalidation_pct(),
                self.metrics.tracked_writes
            )?;
        }
        if self.robustness.engaged() {
            let r = &self.robustness;
            writeln!(
                f,
                "faults             {} retries, {} timeouts, {} failed / {} queued ops, {} buffered writes",
                r.retries, r.timeouts, r.failed_ops, r.queued_ops, r.buffered_writes
            )?;
            writeln!(
                f,
                "degraded           {} ({:.1}% of run)",
                r.degraded_time,
                100.0 * r.degraded_fraction(self.end_time)
            )?;
            if r.drain_events > 0 {
                writeln!(
                    f,
                    "recovery           {} drains, max depth {}, {} total drain time",
                    r.drain_events, r.drain_depth_max, r.drain_time
                )?;
            }
            for (i, w) in r.windows.iter().enumerate() {
                writeln!(
                    f,
                    "window {i}           {} - {}: {:.1}% available ({} / {} ops)",
                    w.start,
                    w.end,
                    100.0 * w.availability(),
                    w.ok,
                    w.ops
                )?;
            }
        }
        if self.shard.engaged() {
            let sh = &self.shard;
            writeln!(
                f,
                "remote tier        {} shard(s) x {} replica(s), {}",
                sh.shards,
                sh.replicas,
                if sh.hedge_ns > 0 {
                    format!("hedge after {}", SimTime::from_nanos(sh.hedge_ns))
                } else {
                    "no hedging".to_string()
                }
            )?;
            for (k, s) in sh.per_shard.iter().enumerate() {
                writeln!(
                    f,
                    "shard {k}            {} fast / {} slow reads, {} writes, {} outage",
                    s.fast_reads,
                    s.slow_reads,
                    s.writes,
                    SimTime::from_nanos(s.outage_ns)
                )?;
            }
            let r = &sh.remote;
            writeln!(
                f,
                "hedged reads       {} launched, {} won, {} cancelled, {} failovers",
                r.hedges_launched, r.hedges_won, r.hedges_cancelled, r.failovers
            )?;
            if r.under_intervals > 0 {
                writeln!(
                    f,
                    "re-replication     {} blocks / {} bytes copied; {} under-replicated interval(s), peak {}, {} open, {} exposed",
                    r.re_replicated_blocks,
                    r.re_replication_bytes,
                    r.under_intervals,
                    r.under_peak,
                    r.under_now,
                    SimTime::from_nanos(r.under_time_ns)
                )?;
            }
        }
        if let Some(topo) = &self.fleet.topology {
            writeln!(f, "fleet              {topo}")?;
            let (p50, p95, p99) = self.fleet.host_read_p50_p95_p99_us();
            writeln!(
                f,
                "fleet hosts        {} in cell, per-host mean read p50/p95/p99 {p50:.0} / {p95:.0} / {p99:.0} us",
                self.fleet.hosts()
            )?;
        }
        if self.telemetry.engaged() {
            let t = &self.telemetry;
            writeln!(
                f,
                "telemetry          {} spans, {} attributed{}",
                t.spans,
                SimTime::from_nanos(t.total_ns()),
                if t.window_ns > 0 {
                    format!(
                        ", {} window(s) x {}",
                        t.windows.len(),
                        SimTime::from_nanos(t.window_ns)
                    )
                } else {
                    String::new()
                }
            )?;
            for p in fcache_types::Phase::ALL {
                let i = p.index();
                if t.phase_ns[i] == 0 {
                    continue;
                }
                let (p50, p95, p99) = t.phase_hists[i].p50_p95_p99_us();
                writeln!(
                    f,
                    "phase {:<13}{} over {} ops ({:.1}%), p50/p95/p99 {p50:.0} / {p95:.0} / {p99:.0} us",
                    p.label(),
                    SimTime::from_nanos(t.phase_ns[i]),
                    t.phase_ops[i],
                    100.0 * t.share(p)
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_is_nan_free() {
        let r = SimReport::default();
        assert_eq!(r.read_latency_us(), 0.0);
        assert_eq!(r.write_latency_us(), 0.0);
        assert_eq!(r.ram_hit_rate(), 0.0);
        assert_eq!(r.flash_hit_rate_of_all_reads(), 0.0);
        assert_eq!(r.invalidation_pct(), 0.0);
    }

    #[test]
    fn display_includes_key_lines() {
        let r = SimReport::default();
        let s = r.to_string();
        for needle in ["reads", "writes", "ram", "flash", "filer", "network"] {
            assert!(s.contains(needle), "missing {needle}");
        }
        assert!(!s.contains("fleet"), "disengaged fleet prints nothing");
    }

    #[test]
    fn fleet_host_percentiles_are_nearest_rank() {
        let mut fleet = FleetStats {
            topology: Some(FleetTopology {
                cell: 0,
                cells: 1,
                host_base: 0,
                fleet_hosts: 100,
                hosts_per_segment: 4,
            }),
            per_host: Vec::new(),
        };
        assert!(fleet.engaged());
        // 100 hosts with mean read latencies 1..=100 µs: nearest-rank
        // percentiles land exactly on 50 / 95 / 99.
        for host in 0..100u32 {
            fleet.per_host.push(HostLoadStats {
                host,
                read_ops: 1,
                write_ops: 0,
                read_latency_ns: u64::from(host + 1) * 1000,
                write_latency_ns: 0,
            });
        }
        assert_eq!(fleet.host_read_p50_p95_p99_us(), (50.0, 95.0, 99.0));
        let report = SimReport {
            fleet,
            ..SimReport::default()
        };
        let s = report.to_string();
        assert!(s.contains("fleet              cell 0/1"), "{s}");
        assert!(s.contains("100 in cell"), "{s}");
    }

    #[test]
    fn empty_fleet_percentiles_are_zero() {
        let f = FleetStats::default();
        assert!(!f.engaged());
        assert_eq!(f.host_read_p50_p95_p99_us(), (0.0, 0.0, 0.0));
        assert_eq!(HostLoadStats::default().mean_read_us(), 0.0);
        assert_eq!(HostLoadStats::default().mean_write_us(), 0.0);
    }
}
