//! Fault injection end to end: a mid-run filer outage must engage the
//! client robustness layer (parked misses, buffered writes, recovery
//! drains) without losing operations; degraded policies must differ in
//! exactly the documented ways; and an empty plan must leave the report's
//! robustness section untouched.

use fcache::{
    run_trace, Architecture, DegradedPolicy, FlashTiming, RobustnessStats, SimConfig, SimError,
    Workbench, WorkloadSpec, WritebackPolicy,
};
use fcache_device::{SimTime, SsdConfig};
use fcache_types::{ByteSize, FaultPlan, Trace};

const SCALE: u64 = 4096;

fn workbench_trace() -> Trace {
    Workbench::new(SCALE, 42).make_trace(&WorkloadSpec::baseline_60g())
}

/// Baseline config with a fault spec, at test scale.
fn faulted(spec: &str) -> SimConfig {
    SimConfig {
        fault_plan: FaultPlan::parse(spec).expect("valid spec"),
        ..SimConfig::baseline()
    }
    .scaled_down(SCALE)
}

#[test]
fn clean_runs_report_no_robustness_activity() {
    let trace = workbench_trace();
    let cfg = SimConfig::baseline().scaled_down(SCALE);
    let r = run_trace(&cfg, &trace).expect("clean run");
    assert_eq!(r.robustness, RobustnessStats::default());
    assert!(!r.robustness.engaged());
}

#[test]
fn midrun_filer_outage_parks_misses_and_loses_nothing() {
    let trace = workbench_trace();
    let clean = run_trace(&SimConfig::baseline().scaled_down(SCALE), &trace).expect("clean");
    let cfg = faulted("filer:outage@40s-60s");
    let r = run_trace(&cfg, &trace).expect("faulted run");

    let rs = &r.robustness;
    assert!(rs.engaged(), "outage must engage the robustness layer");
    assert!(rs.degraded_time > SimTime::ZERO, "outage overlaps the run");
    assert!(
        rs.queued_ops > 0,
        "misses and flushes park during the outage"
    );
    assert_eq!(rs.failed_ops, 0, "queue policy never gives up");
    for w in &rs.windows {
        assert!(w.ok <= w.ops, "window tallies stay coherent: {w:?}");
    }

    // Zero rows lost: parking delays ops, it never drops them. The
    // post-warmup op/block tallies are decided by the trace alone.
    assert_eq!(r.metrics.read_ops, clean.metrics.read_ops);
    assert_eq!(r.metrics.write_ops, clean.metrics.write_ops);
    assert_eq!(r.metrics.read_blocks, clean.metrics.read_blocks);
    assert_eq!(r.metrics.write_blocks, clean.metrics.write_blocks);

    // (No latency ordering is asserted: parking delays the parked reads
    // but also reshuffles cache contents and contention, so the
    // post-warmup mean can move either way by a hair.)

    // Same plan, same seed, same report: fault handling is part of the
    // deterministic simulation.
    let again = run_trace(&cfg, &trace).expect("repeat faulted run");
    assert_eq!(format!("{again:?}"), format!("{r:?}"));
}

#[test]
fn failfast_fails_misses_during_the_outage() {
    let trace = workbench_trace();
    let mut cfg = faulted("filer:outage@40s-60s");
    cfg.robustness.degraded = DegradedPolicy::FailFast;
    let r = run_trace(&cfg, &trace).expect("failfast run");
    let rs = &r.robustness;
    assert!(rs.failed_ops > 0, "misses inside the outage must fail fast");
    let (ops, ok) = rs
        .windows
        .iter()
        .fold((0u64, 0u64), |(a, b), w| (a + w.ops, b + w.ok));
    assert!(
        ok < ops,
        "failed in-window fetches must dent availability ({ok}/{ops})"
    );
}

#[test]
fn strict_policy_surfaces_the_offending_clause() {
    let trace = workbench_trace();
    let mut cfg = faulted("filer:outage@40s-60s");
    cfg.robustness.degraded = DegradedPolicy::Strict;
    let err = run_trace(&cfg, &trace).expect_err("strict run must fail");
    let SimError::Faulted { clause } = &err else {
        panic!("expected SimError::Faulted, got {err:?}");
    };
    assert!(
        clause.contains("filer:outage"),
        "clause names the culprit: {clause:?}"
    );
    assert!(err.to_string().contains("strict degraded policy"), "{err}");
}

#[test]
fn writethrough_buffers_writes_through_the_outage_and_drains() {
    // Write-through RAM against the filer: an outage degrades those
    // writes to writeback-style buffering, and the recovery probe sees
    // the backlog drain once the filer returns.
    let trace = workbench_trace();
    let cfg = SimConfig {
        ram_policy: WritebackPolicy::WriteThrough,
        flash_size: ByteSize::ZERO,
        fault_plan: FaultPlan::parse("filer:outage@40s-60s").unwrap(),
        ..SimConfig::baseline()
    }
    .scaled_down(SCALE);
    let r = run_trace(&cfg, &trace).expect("write-through faulted run");
    let rs = &r.robustness;
    assert!(
        rs.buffered_writes > 0,
        "write-through must degrade to buffering during the outage"
    );
    assert!(rs.drain_events >= 1, "recovery must observe a drain");
    assert!(rs.drain_depth_max > 0);
    assert_eq!(rs.failed_ops, 0, "writes are never dropped");
}

#[test]
fn transient_net_errors_retry_with_backoff() {
    let trace = workbench_trace();
    let cfg = faulted("net:err0.5@20s-80s");
    let r = run_trace(&cfg, &trace).expect("flaky-net run");
    let rs = &r.robustness;
    assert!(rs.retries > 0, "transient failures must be retried");
    assert!(
        rs.timeouts >= rs.retries,
        "every retry was preceded by a timeout"
    );
}

#[test]
fn device_slowdown_inflates_device_service_times() {
    let trace = workbench_trace();
    let ssd = |spec: Option<&str>| {
        let mut cfg = SimConfig {
            flash_timing: FlashTiming::Ssd(SsdConfig::auto()),
            ..SimConfig::baseline()
        };
        if let Some(s) = spec {
            cfg.fault_plan = FaultPlan::parse(s).unwrap();
        }
        cfg.scaled_down(SCALE)
    };
    let clean = run_trace(&ssd(None), &trace).expect("clean ssd run");
    let slow = run_trace(&ssd(Some("device:slowx16@0s-100000s")), &trace).expect("slow ssd run");
    assert!(clean.device.ops() > 0 && slow.device.ops() > 0);
    assert!(
        slow.device.read_avg_us() > clean.device.read_avg_us(),
        "a 16x device slowdown must show up in device service times ({} vs {})",
        slow.device.read_avg_us(),
        clean.device.read_avg_us()
    );
}

// ---------------------------------------------------------------------------
// Golden check: faulted single-filer runs
// ---------------------------------------------------------------------------

/// Report fields of faulted runs against the default single filer
/// (1 shard × 1 replica), recorded on the engine that still carried a
/// separate filer path beside the sharded remote tier (same workload:
/// `Workbench::new(4096, 42)`, `WorkloadSpec::baseline_60g()`, configs
/// scaled down by 4096). The one backend path must keep reproducing them
/// bit for bit: seeds, retries, parks and the executor event count.
#[derive(Debug, PartialEq, Eq)]
struct FaultGolden {
    end_ns: u64,
    events: u64,
    read_latency_ns: u64,
    write_latency_ns: u64,
    filer_fast: u64,
    filer_slow: u64,
    filer_writes: u64,
    net_packets: u64,
    retries: u64,
    timeouts: u64,
    queued: u64,
    failed: u64,
    buffered: u64,
}

/// One pinned case: plan, degraded policy, architecture, and whether the
/// RAM tier writes through (which engages write-through degradation).
struct FaultCase {
    plan: &'static str,
    degraded: DegradedPolicy,
    arch: Architecture,
    write_through: bool,
    golden: FaultGolden,
}

const FAULT_GOLDENS: &[FaultCase] = &[
    FaultCase {
        plan: "filer:outage@40s-60s",
        degraded: DegradedPolicy::Queue,
        arch: Architecture::Naive,
        write_through: false,
        golden: FaultGolden {
            end_ns: 615210052,
            events: 69631,
            read_latency_ns: 1432240716,
            write_latency_ns: 1002400,
            filer_fast: 1162,
            filer_slow: 137,
            filer_writes: 3258,
            net_packets: 7259,
            retries: 0,
            timeouts: 0,
            queued: 14,
            failed: 0,
            buffered: 0,
        },
    },
    FaultCase {
        plan: "filer:outage@40s-60s",
        degraded: DegradedPolicy::FailFast,
        arch: Architecture::Lookaside,
        write_through: false,
        golden: FaultGolden {
            end_ns: 576618829,
            events: 60880,
            read_latency_ns: 1572001228,
            write_latency_ns: 8582261,
            filer_fast: 2859,
            filer_slow: 312,
            filer_writes: 4872,
            net_packets: 11180,
            retries: 0,
            timeouts: 0,
            queued: 67,
            failed: 140,
            buffered: 0,
        },
    },
    FaultCase {
        plan: "filer:outage@40s-60s",
        degraded: DegradedPolicy::Queue,
        arch: Architecture::Unified,
        write_through: true,
        golden: FaultGolden {
            end_ns: 610618981,
            events: 45926,
            read_latency_ns: 1170536976,
            write_latency_ns: 198162040,
            filer_fast: 1088,
            filer_slow: 130,
            filer_writes: 3296,
            net_packets: 7278,
            retries: 0,
            timeouts: 0,
            queued: 15,
            failed: 0,
            buffered: 1,
        },
    },
    FaultCase {
        plan: "filer:outage@40s-60s",
        degraded: DegradedPolicy::FailFast,
        arch: Architecture::Naive,
        write_through: true,
        golden: FaultGolden {
            end_ns: 600343573,
            events: 59984,
            read_latency_ns: 1275992973,
            write_latency_ns: 43128400,
            filer_fast: 2361,
            filer_slow: 252,
            filer_writes: 4890,
            net_packets: 11001,
            retries: 0,
            timeouts: 0,
            queued: 1085,
            failed: 329,
            buffered: 1211,
        },
    },
    FaultCase {
        plan: "filer:err0.3@20s-80s",
        degraded: DegradedPolicy::Queue,
        arch: Architecture::Unified,
        write_through: false,
        golden: FaultGolden {
            end_ns: 599268640,
            events: 49422,
            read_latency_ns: 1295258088,
            write_latency_ns: 46981600,
            filer_fast: 1061,
            filer_slow: 125,
            filer_writes: 3296,
            net_packets: 7270,
            retries: 14,
            timeouts: 14,
            queued: 0,
            failed: 0,
            buffered: 0,
        },
    },
    FaultCase {
        plan: "filer:err0.3@20s-80s",
        degraded: DegradedPolicy::FailFast,
        arch: Architecture::Naive,
        write_through: false,
        golden: FaultGolden {
            end_ns: 609454464,
            events: 69564,
            read_latency_ns: 1516496536,
            write_latency_ns: 1002400,
            filer_fast: 1252,
            filer_slow: 150,
            filer_writes: 3322,
            net_packets: 7435,
            retries: 14,
            timeouts: 14,
            queued: 0,
            failed: 0,
            buffered: 0,
        },
    },
    FaultCase {
        plan: "net:err0.5@20s-80s",
        degraded: DegradedPolicy::Queue,
        arch: Architecture::Lookaside,
        write_through: false,
        golden: FaultGolden {
            end_ns: 605535220,
            events: 62635,
            read_latency_ns: 1427610936,
            write_latency_ns: 1002400,
            filer_fast: 1178,
            filer_slow: 138,
            filer_writes: 3266,
            net_packets: 7282,
            retries: 63,
            timeouts: 65,
            queued: 0,
            failed: 2,
            buffered: 0,
        },
    },
    FaultCase {
        plan: "net:err0.5@20s-80s",
        degraded: DegradedPolicy::FailFast,
        arch: Architecture::Unified,
        write_through: false,
        golden: FaultGolden {
            end_ns: 605649526,
            events: 49484,
            read_latency_ns: 1284373756,
            write_latency_ns: 47187600,
            filer_fast: 1065,
            filer_slow: 126,
            filer_writes: 3300,
            net_packets: 7277,
            retries: 34,
            timeouts: 37,
            queued: 0,
            failed: 3,
            buffered: 0,
        },
    },
    FaultCase {
        plan: "filer:slowx4@20s-80s",
        degraded: DegradedPolicy::Queue,
        arch: Architecture::Naive,
        write_through: false,
        golden: FaultGolden {
            end_ns: 622393020,
            events: 69695,
            read_latency_ns: 1490775924,
            write_latency_ns: 1002400,
            filer_fast: 1231,
            filer_slow: 148,
            filer_writes: 3385,
            net_packets: 7547,
            retries: 0,
            timeouts: 0,
            queued: 0,
            failed: 0,
            buffered: 0,
        },
    },
    FaultCase {
        plan: "filer:slowx4@20s-80s",
        degraded: DegradedPolicy::FailFast,
        arch: Architecture::Lookaside,
        write_through: false,
        golden: FaultGolden {
            end_ns: 616628356,
            events: 62496,
            read_latency_ns: 1447298124,
            write_latency_ns: 1002400,
            filer_fast: 1242,
            filer_slow: 151,
            filer_writes: 3402,
            net_packets: 7584,
            retries: 0,
            timeouts: 0,
            queued: 0,
            failed: 0,
            buffered: 0,
        },
    },
    FaultCase {
        plan: "net:err0.5@30s-50s;filer:outage@40s-60s",
        degraded: DegradedPolicy::Queue,
        arch: Architecture::Naive,
        write_through: true,
        golden: FaultGolden {
            end_ns: 611040773,
            events: 61917,
            read_latency_ns: 1422128264,
            write_latency_ns: 53628400,
            filer_fast: 1224,
            filer_slow: 144,
            filer_writes: 3314,
            net_packets: 7400,
            retries: 20,
            timeouts: 20,
            queued: 7,
            failed: 0,
            buffered: 0,
        },
    },
    FaultCase {
        plan: "net:err0.5@30s-50s;filer:outage@40s-60s",
        degraded: DegradedPolicy::FailFast,
        arch: Architecture::Unified,
        write_through: false,
        golden: FaultGolden {
            end_ns: 567128550,
            events: 48881,
            read_latency_ns: 1390045444,
            write_latency_ns: 47084600,
            filer_fast: 1848,
            filer_slow: 204,
            filer_writes: 3939,
            net_packets: 8907,
            retries: 24,
            timeouts: 24,
            queued: 257,
            failed: 114,
            buffered: 0,
        },
    },
];

#[test]
fn faulted_single_filer_runs_match_goldens() {
    let trace = workbench_trace();
    for case in FAULT_GOLDENS {
        let mut cfg = faulted(case.plan);
        cfg.arch = case.arch;
        cfg.robustness.degraded = case.degraded;
        if case.write_through {
            cfg.ram_policy = WritebackPolicy::WriteThrough;
        }
        let r = run_trace(&cfg, &trace).expect("faulted run");
        assert!(!r.shard.engaged(), "a 1x1 run reports no shard section");
        let rs = &r.robustness;
        let got = FaultGolden {
            end_ns: r.end_time.as_nanos(),
            events: r.events,
            read_latency_ns: r.metrics.read_latency.as_nanos(),
            write_latency_ns: r.metrics.write_latency.as_nanos(),
            filer_fast: r.filer.fast_reads,
            filer_slow: r.filer.slow_reads,
            filer_writes: r.filer.writes,
            net_packets: r.net.packets,
            retries: rs.retries,
            timeouts: rs.timeouts,
            queued: rs.queued_ops,
            failed: rs.failed_ops,
            buffered: rs.buffered_writes,
        };
        assert_eq!(
            got, case.golden,
            "{} / {:?} / {:?} / write_through={}",
            case.plan, case.degraded, case.arch, case.write_through
        );
    }
}
