//! Network segment model.
//!
//! §5 of the paper: "The network is modeled less exactly: each segment can
//! carry one packet at a time, and each I/O request uses one packet in each
//! direction. Each packet is assumed to incur a fixed latency (for headers,
//! block information, and so forth) plus a small amount of additional time
//! per bit of block data transferred."
//!
//! A [`Segment`] is therefore a capacity-1 [`fcache_des::Resource`] plus a
//! timing rule: holding the segment for `base + bits × per_bit` models one
//! packet on the wire. Hosts connect to the filer "by private network
//! segments" (§3), i.e. one `Segment` per host with no cross-host
//! contention — but full contention among the threads, syncers, and
//! evictions of a single host, which is what produces the paper's eviction
//! convoys.
//!
//! **Shared wires.** Cloning a `Segment` shares its channel *and* its
//! traffic counters: handing the same segment to several hosts models a
//! shared uplink where their packets queue FIFO against each other. The
//! fleet subsystem uses exactly this to simulate cross-host network
//! contention (`hosts_per_segment` hosts per wire); the time packets
//! spend waiting behind other packets is tallied separately from wire
//! time as [`SegmentStats::queue_wait`].

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::rc::Rc;

use fcache_des::{Resource, Sim, SimTime};
use fcache_types::{FaultEffect, FaultError, FaultSchedule};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Direction of a packet on a segment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// Client → filer (requests, write payloads).
    ToServer,
    /// Filer → client (responses, read payloads).
    FromServer,
}

/// Wire timing parameters (Table 1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NetConfig {
    /// Fixed per-packet latency (Table 1: 8.2 µs — "loosely corresponding
    /// to a gigabit network", §7).
    pub base_latency: SimTime,
    /// Per-bit data latency (Table 1: 1 ns / bit).
    pub per_bit: SimTime,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            base_latency: SimTime::from_nanos(8_200),
            per_bit: SimTime::from_nanos(1),
        }
    }
}

impl NetConfig {
    /// Table 1 values.
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// Wire time of one packet carrying `payload_bytes` of block data.
    ///
    /// # Examples
    ///
    /// ```
    /// use fcache_net::NetConfig;
    /// use fcache_des::SimTime;
    ///
    /// let cfg = NetConfig::default();
    /// // Command-only packet: just the base latency.
    /// assert_eq!(cfg.packet_time(0), SimTime::from_nanos(8_200));
    /// // One 4 KB block: 8.2 µs + 32768 bits × 1 ns = 40.968 µs.
    /// assert_eq!(cfg.packet_time(4096), SimTime::from_nanos(40_968));
    /// ```
    pub fn packet_time(&self, payload_bytes: u64) -> SimTime {
        self.base_latency + self.per_bit.times(payload_bytes * 8)
    }
}

/// Traffic counters for a segment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SegmentStats {
    /// Packets carried.
    pub packets: u64,
    /// Payload bytes carried.
    pub payload_bytes: u64,
    /// Total wire-busy time.
    pub busy: SimTime,
    /// Total time packets spent queued for the wire before transmitting
    /// (zero on an uncontended segment).
    pub queue_wait: SimTime,
    /// Packets that had to wait for the wire at all.
    pub queue_waits: u64,
}

/// Fault-injection state for a segment: one resolved schedule per
/// direction plus a dedicated RNG for `ErrorRate` draws.
struct SegmentFaults {
    to_server: FaultSchedule,
    from_server: FaultSchedule,
    rng: RefCell<SmallRng>,
}

/// A network segment between hosts and the filer.
///
/// Half-duplex by default (one packet at a time in either direction, as the
/// paper specifies); [`Segment::new_duplex`] provides a full-duplex variant
/// used by the ablation benches. A clone shares the wire and the counters
/// with its original — private per-host wiring uses one `Segment` per
/// host, shared (fleet) wiring clones one `Segment` across a host group.
#[derive(Clone)]
pub struct Segment {
    sim: Sim,
    cfg: NetConfig,
    to_server: Resource,
    from_server: Resource,
    stats: Rc<Cell<SegmentStats>>,
    faults: Option<Rc<SegmentFaults>>,
}

impl Segment {
    /// Creates a half-duplex segment: both directions share one channel.
    pub fn new(sim: Sim, cfg: NetConfig) -> Self {
        let chan = Resource::new(1);
        Self {
            sim,
            cfg,
            to_server: chan.clone(),
            from_server: chan,
            stats: Rc::new(Cell::new(SegmentStats::default())),
            faults: None,
        }
    }

    /// Creates a full-duplex segment: each direction has its own channel.
    pub fn new_duplex(sim: Sim, cfg: NetConfig) -> Self {
        Self {
            sim,
            cfg,
            to_server: Resource::new(1),
            from_server: Resource::new(1),
            stats: Rc::new(Cell::new(SegmentStats::default())),
            faults: None,
        }
    }

    /// Attaches per-direction fault schedules (seeded error draws).
    /// Without this, [`Segment::try_transfer`] behaves exactly like
    /// [`Segment::transfer`].
    pub fn with_faults(
        mut self,
        to_server: FaultSchedule,
        from_server: FaultSchedule,
        seed: u64,
    ) -> Self {
        self.faults = Some(Rc::new(SegmentFaults {
            to_server,
            from_server,
            rng: RefCell::new(SmallRng::seed_from_u64(seed)),
        }));
        self
    }

    /// Wire configuration.
    pub fn config(&self) -> NetConfig {
        self.cfg
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> SegmentStats {
        self.stats.get()
    }

    /// Resets traffic counters (end of warmup).
    pub fn reset_stats(&self) {
        self.stats.set(SegmentStats::default());
    }

    /// Transfers one packet with `payload_bytes` of block data in the given
    /// direction, waiting FIFO for the wire and holding it for the packet's
    /// wire time. Ignores any attached fault schedule.
    pub async fn transfer(&self, dir: Direction, payload_bytes: u64) {
        let carried = self.carry(dir, payload_bytes, None).await;
        debug_assert!(carried.is_ok(), "a carry without faults cannot fail");
    }

    /// Fault-aware [`Segment::transfer`]: after winning the wire, consults
    /// the direction's schedule at `sim.now()` and either drops the packet
    /// (no wire time, no stats), carries it with inflated wire time, or
    /// carries it normally. Without a schedule it is exactly `transfer`.
    pub fn try_transfer(
        &self,
        dir: Direction,
        payload_bytes: u64,
    ) -> impl Future<Output = Result<(), FaultError>> + '_ {
        self.carry(dir, payload_bytes, self.faults.as_deref())
    }

    /// One packet over the wire, consulting `faults` (when given) once the
    /// wire is won. One flat future: the engine's every backend exchange
    /// polls through it.
    async fn carry(
        &self,
        dir: Direction,
        payload_bytes: u64,
        faults: Option<&SegmentFaults>,
    ) -> Result<(), FaultError> {
        let chan = match dir {
            Direction::ToServer => &self.to_server,
            Direction::FromServer => &self.from_server,
        };
        let queued_at = self.sim.now();
        let _guard = chan.acquire().await;
        let waited = self.sim.now() - queued_at;
        let mut t = self.cfg.packet_time(payload_bytes);
        if let Some(f) = faults {
            let sched = match dir {
                Direction::ToServer => &f.to_server,
                Direction::FromServer => &f.from_server,
            };
            let effect = {
                let mut rng = f.rng.borrow_mut();
                sched.effect_at(self.sim.now().as_nanos(), &mut || {
                    rng.gen_range(0.0f64..1.0)
                })
            };
            match effect {
                FaultEffect::Fail { clause, .. } => return Err(FaultError { clause }),
                FaultEffect::SlowBy(factor) => t = t.scale(factor),
                FaultEffect::None => {}
            }
        }
        self.sim.sleep(t).await;
        let mut s = self.stats.get();
        s.packets += 1;
        s.payload_bytes += payload_bytes;
        s.busy += t;
        if waited > SimTime::ZERO {
            s.queue_wait += waited;
            s.queue_waits += 1;
        }
        self.stats.set(s);
        Ok(())
    }
}

impl std::fmt::Debug for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Segment")
            .field("cfg", &self.cfg)
            .field("stats", &self.stats.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_time_matches_table1_math() {
        let cfg = NetConfig::default();
        assert_eq!(cfg.packet_time(0).as_nanos(), 8_200);
        assert_eq!(cfg.packet_time(4096).as_nanos(), 8_200 + 4096 * 8);
        assert_eq!(cfg.packet_time(8 * 4096).as_nanos(), 8_200 + 8 * 4096 * 8);
    }

    #[test]
    fn transfer_takes_wire_time() {
        let sim = Sim::new();
        let seg = Segment::new(sim.clone(), NetConfig::default());
        let s = sim.clone();
        let seg2 = seg.clone();
        let h = sim.spawn(async move {
            seg2.transfer(Direction::ToServer, 4096).await;
            s.now()
        });
        sim.run().unwrap();
        assert_eq!(h.try_result().unwrap(), SimTime::from_nanos(40_968));
        assert_eq!(seg.stats().packets, 1);
        assert_eq!(seg.stats().payload_bytes, 4096);
    }

    #[test]
    fn half_duplex_serializes_both_directions() {
        let sim = Sim::new();
        let seg = Segment::new(sim.clone(), NetConfig::default());
        for dir in [Direction::ToServer, Direction::FromServer] {
            let seg = seg.clone();
            sim.spawn(async move {
                seg.transfer(dir, 0).await;
            });
        }
        let report = sim.run().unwrap();
        // Two command packets share one channel: 2 × 8.2 µs.
        assert_eq!(report.end_time, SimTime::from_nanos(16_400));
    }

    #[test]
    fn full_duplex_overlaps_directions() {
        let sim = Sim::new();
        let seg = Segment::new_duplex(sim.clone(), NetConfig::default());
        for dir in [Direction::ToServer, Direction::FromServer] {
            let seg = seg.clone();
            sim.spawn(async move {
                seg.transfer(dir, 0).await;
            });
        }
        let report = sim.run().unwrap();
        assert_eq!(report.end_time, SimTime::from_nanos(8_200));
    }

    #[test]
    fn contention_convoys_fifo() {
        let sim = Sim::new();
        let seg = Segment::new(sim.clone(), NetConfig::default());
        let n = 5;
        for _ in 0..n {
            let seg = seg.clone();
            sim.spawn(async move {
                seg.transfer(Direction::ToServer, 4096).await;
            });
        }
        let report = sim.run().unwrap();
        assert_eq!(report.end_time, SimTime::from_nanos(40_968 * n));
        assert_eq!(seg.stats().packets, n);
        assert_eq!(seg.stats().busy, SimTime::from_nanos(40_968 * n));
    }

    #[test]
    fn shared_clones_queue_and_tally_waits() {
        // Two "hosts" holding clones of one segment contend for the same
        // wire: transfers serialize FIFO, shared counters see both, and
        // the loser's wait shows up as queue_wait (the winner's does not).
        let sim = Sim::new();
        let seg = Segment::new(sim.clone(), NetConfig::default());
        for _host in 0..2 {
            let seg = seg.clone();
            sim.spawn(async move {
                seg.transfer(Direction::ToServer, 4096).await;
            });
        }
        let report = sim.run().unwrap();
        assert_eq!(report.end_time, SimTime::from_nanos(2 * 40_968));
        let s = seg.stats();
        assert_eq!(s.packets, 2);
        assert_eq!(s.queue_waits, 1, "only the second packet waited");
        assert_eq!(s.queue_wait, SimTime::from_nanos(40_968));
    }

    #[test]
    fn uncontended_transfer_records_no_wait() {
        let sim = Sim::new();
        let seg = Segment::new(sim.clone(), NetConfig::default());
        let seg2 = seg.clone();
        sim.spawn(async move {
            seg2.transfer(Direction::ToServer, 4096).await;
            seg2.transfer(Direction::FromServer, 0).await;
        });
        sim.run().unwrap();
        let s = seg.stats();
        assert_eq!(s.queue_waits, 0);
        assert_eq!(s.queue_wait, SimTime::ZERO);
    }

    #[test]
    fn reset_stats_zeroes_counters() {
        let sim = Sim::new();
        let seg = Segment::new(sim.clone(), NetConfig::default());
        let seg2 = seg.clone();
        sim.spawn(async move {
            seg2.transfer(Direction::ToServer, 4096).await;
        });
        sim.run().unwrap();
        assert_ne!(seg.stats(), SegmentStats::default());
        seg.reset_stats();
        assert_eq!(seg.stats(), SegmentStats::default());
    }
}
