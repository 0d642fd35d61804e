//! A single switch output port: the one scheduling round every
//! transmitter in this crate runs, on a link of fixed rate. A round at
//! decision time `t` admits every arrival due by `t` (each at its own
//! arrival instant: transactions read `now`), decides up to `burst`
//! dequeues at `t` and transmits them back to back; an idle round hops
//! to the next arrival or [`PortScheduler::next_ready`]. [`run_port`]
//! drives it at burst 1 over any scheduler, `Switch::run` over each
//! port's tree, and the lossless fabric transmits through it.

use crate::scheduler::PortScheduler;
use crate::switch::PortTrace;
use pifo_core::prelude::*;

/// One transmitted packet with its port-level timing.
///
/// Equality is full-struct (packet, start, finish, wait) — what the
/// trace bit-identity tests compare departure for departure. That
/// contract is why telemetry never adds fields here: per-packet path
/// records live in a side channel
/// ([`PortTrace::paths`](crate::switch::PortTrace::paths),
/// index-aligned with the departures), so a telemetry-on trace stays
/// byte-comparable to a telemetry-off one.
/// [`PortTrace::path`](crate::switch::PortTrace::path) joins a record
/// with its departure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Departure {
    /// The packet as it left (fields may have been updated, e.g. LSTF
    /// slack charging).
    pub packet: Packet,
    /// When transmission began.
    pub start: Nanos,
    /// When the last bit left (start + length/rate).
    pub finish: Nanos,
    /// Queueing wait: `start - packet.arrival`.
    pub wait: Nanos,
}

/// Configuration for a port run.
#[derive(Debug, Clone)]
pub struct PortConfig {
    /// Link rate in bits/second.
    pub rate_bps: u64,
    /// Simulation horizon: no round starts at or after it (a round in
    /// flight may finish past it); packets not sent by then stay queued.
    pub horizon: Nanos,
    /// Charge LSTF slack (Fig 6: `slack -= wait`) on each departure,
    /// through [`pifo_algos::charge_wait`].
    pub charge_lstf_slack: bool,
}

impl PortConfig {
    /// A work-conserving port at `rate_bps` with a long horizon.
    pub fn new(rate_bps: u64) -> Self {
        PortConfig {
            rate_bps,
            horizon: Nanos::from_secs(3_600),
            charge_lstf_slack: false,
        }
    }

    /// Set the simulation horizon.
    pub fn with_horizon(mut self, horizon: Nanos) -> Self {
        self.horizon = horizon;
        self
    }

    /// Enable LSTF slack charging at departure.
    pub fn with_lstf_charging(mut self) -> Self {
        self.charge_lstf_slack = true;
        self
    }
}

/// Run `arrivals` (sorted by arrival time) through `sched` on a link
/// described by `cfg`, one packet per round. Returns the departures in
/// transmission order.
///
/// # Panics
///
/// Panics if `arrivals` is not sorted by arrival time.
pub fn run_port(
    arrivals: &[Packet],
    sched: &mut dyn PortScheduler,
    cfg: &PortConfig,
) -> Vec<Departure> {
    assert!(
        arrivals.windows(2).all(|w| w[0].arrival <= w[1].arrival),
        "arrivals must be time-sorted"
    );
    let mut port = PortSim::new(arrivals, None);
    while port.t < cfg.horizon {
        port.step_round(sched, cfg.rate_bps, 1);
    }
    let mut out = port.trace.departures;
    if cfg.charge_lstf_slack {
        // Exact after the run: no scheduler sees a departed packet.
        for d in &mut out {
            pifo_algos::charge_wait(&mut d.packet, d.start);
        }
    }
    out
}

/// One port's progress through the round loop. The scheduler is lent
/// per round, so a driver may keep it elsewhere (the switch keeps its
/// trees in `Switch::ports`, so shared-pool borrows never overlap).
pub(crate) struct PortSim<'a> {
    /// The run's arrival stream; a packet is cloned once, at admission.
    arrivals: &'a [Packet],
    /// This port's share of `arrivals` by index, when the stream feeds
    /// several ports (`None`: all of it). `next` of them are admitted.
    pending: Option<Vec<u32>>,
    next: usize,
    /// Decision time of the next round; `Nanos::MAX` once drained with
    /// nothing left to wait for.
    pub(crate) t: Nanos,
    pub(crate) trace: PortTrace,
}

impl<'a> PortSim<'a> {
    /// A port fed `pending`, its departure trace sized once.
    pub(crate) fn new(arrivals: &'a [Packet], pending: Option<Vec<u32>>) -> Self {
        let expect = pending.as_ref().map_or(arrivals.len(), Vec::len);
        let mut port = PortSim {
            arrivals,
            pending,
            next: 0,
            t: Nanos::ZERO,
            trace: PortTrace {
                departures: Vec::with_capacity(expect),
                ..PortTrace::default()
            },
        };
        if let Some(p) = port.head() {
            port.t = p.arrival;
        }
        port
    }

    /// The next packet this port has yet to admit.
    fn head(&self) -> Option<&'a Packet> {
        let i = match &self.pending {
            Some(pending) => *pending.get(self.next)? as usize,
            None => self.next,
        };
        self.arrivals.get(i)
    }

    /// Run one round at `self.t` and set `t` to the next round's time.
    pub(crate) fn step_round<S: PortScheduler + ?Sized>(
        &mut self,
        sched: &mut S,
        rate_bps: u64,
        burst: usize,
    ) {
        while let Some(p) = self.head().filter(|p| p.arrival <= self.t) {
            self.next += 1;
            if !sched.enqueue(p.clone(), p.arrival) {
                self.trace.drops += 1;
            }
        }
        // Up to `burst` dequeues, all decided at `t`, each put on the
        // wire as it leaves, back to back.
        let decided = self.t;
        let mut sent = 0;
        while sent < burst {
            let Some(p) = sched.dequeue(decided) else {
                break;
            };
            self.t = transmit(p, self.t, rate_bps, &mut self.trace.departures);
            sent += 1;
        }
        if sent > 0 {
            return;
        }
        // Idle: hop to the next arrival or shaping release (strictly
        // later: the round released everything due at `t`), or, drained
        // for good, to `Nanos::MAX`.
        let next_arrival = self.head().map(|p| p.arrival);
        let next = [next_arrival, sched.next_ready(self.t)];
        self.t = match next.into_iter().flatten().min() {
            Some(next) => next.max(Nanos(self.t.as_nanos() + 1)),
            None => Nanos::MAX,
        };
    }
}

/// Put `p` on the wire at `start` at `rate_bps`, appending its
/// departure to `out`; returns the instant its last bit left.
pub(crate) fn transmit(p: Packet, start: Nanos, rate_bps: u64, out: &mut Vec<Departure>) -> Nanos {
    let finish = start + tx_time(p.length as u64, rate_bps);
    out.push(Departure {
        wait: start.saturating_sub(p.arrival),
        start,
        finish,
        packet: p,
    });
    finish
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::FifoSched;

    fn pkts(times_lens: &[(u64, u32)]) -> Vec<Packet> {
        times_lens
            .iter()
            .enumerate()
            .map(|(i, &(t, l))| Packet::new(i as u64, FlowId(0), l, Nanos(t)))
            .collect()
    }

    #[test]
    fn back_to_back_transmissions_pack_the_link() {
        // 1000 B at 8 Gb/s = 1000 ns each; both arrive at t=0.
        let arr = pkts(&[(0, 1_000), (0, 1_000)]);
        let mut s = FifoSched::new(10);
        let out = run_port(&arr, &mut s, &PortConfig::new(8_000_000_000));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].start, Nanos(0));
        assert_eq!(out[0].finish, Nanos(1_000));
        assert_eq!(out[1].start, Nanos(1_000));
        assert_eq!(out[1].finish, Nanos(2_000));
        assert_eq!(out[1].wait, Nanos(1_000));
    }

    #[test]
    fn idle_link_waits_for_arrivals() {
        let arr = pkts(&[(0, 1_000), (10_000, 1_000)]);
        let mut s = FifoSched::new(10);
        let out = run_port(&arr, &mut s, &PortConfig::new(8_000_000_000));
        assert_eq!(out[1].start, Nanos(10_000), "link idles until arrival");
        assert_eq!(out[1].wait, Nanos::ZERO);
    }

    #[test]
    fn horizon_cuts_off() {
        let arr = pkts(&[(0, 1_000), (0, 1_000), (0, 1_000)]);
        let mut s = FifoSched::new(10);
        let cfg = PortConfig::new(8_000_000_000).with_horizon(Nanos(1_500));
        let out = run_port(&arr, &mut s, &cfg);
        assert_eq!(out.len(), 2, "third packet would start at 2000 > horizon");
        assert_eq!(s.backlog(), 1);
    }

    #[test]
    fn lstf_charging_updates_slack() {
        let mut arr = pkts(&[(0, 1_000), (0, 1_000)]);
        arr[0].slack = 10_000;
        arr[1].slack = 10_000;
        let mut s = FifoSched::new(10);
        let cfg = PortConfig::new(8_000_000_000).with_lstf_charging();
        let out = run_port(&arr, &mut s, &cfg);
        assert_eq!(out[0].packet.slack, 10_000, "no wait, no charge");
        assert_eq!(out[1].packet.slack, 10_000 - 1_000, "charged 1000 ns wait");
    }

    #[test]
    fn utilisation_accounts_every_byte() {
        // 100 packets of 1500 B at 10 Gb/s, all at t=0: the link must
        // finish at exactly 100 * 1200 ns.
        let arr: Vec<Packet> = (0..100)
            .map(|i| Packet::new(i, FlowId(0), 1_500, Nanos(0)))
            .collect();
        let mut s = FifoSched::new(1_000);
        let out = run_port(&arr, &mut s, &PortConfig::new(10_000_000_000));
        assert_eq!(out.last().unwrap().finish, Nanos(100 * 1_200));
    }

    #[test]
    #[should_panic(expected = "time-sorted")]
    fn unsorted_arrivals_rejected() {
        let arr = pkts(&[(100, 100), (0, 100)]);
        let mut s = FifoSched::new(10);
        let _ = run_port(&arr, &mut s, &PortConfig::new(1_000_000));
    }
}
