//! Buffer management (§6.1).
//!
//! "Buffer management is largely orthogonal to scheduling, and is
//! implemented using counters that track the occupancies of various
//! flows and ports. Before a packet is enqueued into the scheduler, if
//! any of these counters exceeds a static or dynamic threshold, the
//! packet is dropped."
//!
//! Those counters and thresholds live in one place: `pifo-core`'s
//! [`SharedPacketPool`], whose [`AdmissionPolicy`] gates every insert on
//! per-port and (with [`AdmissionPolicy::PortFlow`]) per-flow occupancy.
//! A tree built with `TreeBuilder::build_in_pool` under
//! `PortFlow { port: Unlimited, flow: t }` is a scheduler with per-flow
//! thresholds in front of it:
//!
//! * [`Threshold::Static`] — a fixed per-flow cap;
//! * [`Threshold::Dynamic`] — the Choudhury–Hahne scheme the paper cites
//!   as \[14\]: a flow may use at most `alpha ×` the *remaining free*
//!   buffer, which automatically tightens under pressure and prevents a
//!   single flow from locking everyone else out.
//!
//! This module holds the one §6.1 option the pool does not implement:
//! [`Red`], Random Early Detection \[18\] — probabilistic drops driven by
//! an EWMA of the queue length, seeded for deterministic simulation —
//! and [`RedScheduler`], which puts it in front of any [`PortScheduler`].

use crate::scheduler::PortScheduler;
use pifo_core::prelude::*;

// ---------------------------------------------------------------------------
// RED (Random Early Detection)
// ---------------------------------------------------------------------------

/// Random Early Detection \[18\] — §6.1's AQM alternative to thresholds.
///
/// Tracks an exponentially-weighted moving average of the queue length;
/// packets are admitted below `min_th`, dropped above `max_th`, and
/// dropped with probability rising linearly to `max_p` in between.
/// Randomness comes from a seeded xorshift, keeping runs reproducible.
#[derive(Debug)]
pub struct Red {
    min_th: f64,
    max_th: f64,
    max_p: f64,
    /// EWMA weight (classic RED default 0.002; we use 1/128).
    weight: f64,
    avg: f64,
    rng: u64,
    drops: u64,
}

impl Red {
    /// RED with thresholds in packets and `max_p` as a fraction (0..1].
    ///
    /// # Panics
    ///
    /// Panics unless `0 < min_th < max_th` and `0 < max_p <= 1`.
    pub fn new(min_th: usize, max_th: usize, max_p: f64, seed: u64) -> Self {
        assert!(min_th > 0 && min_th < max_th, "need 0 < min_th < max_th");
        assert!(max_p > 0.0 && max_p <= 1.0, "need 0 < max_p <= 1");
        Red {
            min_th: min_th as f64,
            max_th: max_th as f64,
            max_p,
            weight: 1.0 / 128.0,
            avg: 0.0,
            rng: seed | 1,
            drops: 0,
        }
    }

    fn next_uniform(&mut self) -> f64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        (self.rng >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Admission decision given the instantaneous queue length; updates
    /// the average and the drop counter.
    pub fn admit(&mut self, queue_len: usize) -> bool {
        self.avg = (1.0 - self.weight) * self.avg + self.weight * queue_len as f64;
        let admit = if self.avg < self.min_th {
            true
        } else if self.avg >= self.max_th {
            false
        } else {
            let p = self.max_p * (self.avg - self.min_th) / (self.max_th - self.min_th);
            self.next_uniform() >= p
        };
        if !admit {
            self.drops += 1;
        }
        admit
    }

    /// Current EWMA of the queue length.
    pub fn average(&self) -> f64 {
        self.avg
    }

    /// RED drops so far.
    pub fn drops(&self) -> u64 {
        self.drops
    }
}

/// A [`PortScheduler`] gated by RED: early random drops keep the average
/// queue (and therefore queueing delay) near `min_th` under persistent
/// overload, instead of pinning at the buffer limit like tail drop.
pub struct RedScheduler<S> {
    inner: S,
    red: Red,
}

impl<S: PortScheduler> RedScheduler<S> {
    /// Wrap `inner` behind `red`.
    pub fn new(inner: S, red: Red) -> Self {
        RedScheduler { inner, red }
    }

    /// The RED state.
    pub fn red(&self) -> &Red {
        &self.red
    }
}

impl<S: PortScheduler> PortScheduler for RedScheduler<S> {
    fn enqueue(&mut self, pkt: Packet, now: Nanos) -> bool {
        if !self.red.admit(self.inner.backlog()) {
            return false;
        }
        self.inner.enqueue(pkt, now)
    }

    fn dequeue(&mut self, now: Nanos) -> Option<Packet> {
        self.inner.dequeue(now)
    }

    fn next_ready(&self, now: Nanos) -> Option<Nanos> {
        self.inner.next_ready(now)
    }

    fn backlog(&self) -> usize {
        self.inner.backlog()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::FifoSched;
    use crate::scheduler::TreeScheduler;

    fn pkt(id: u64, flow: u32) -> Packet {
        Packet::new(id, FlowId(flow), 1_000, Nanos(id))
    }

    /// A FIFO tree behind per-flow `threshold`s in a `capacity`-packet
    /// pool: the §6.1 composition, thresholds in front of the scheduler.
    fn flow_threshold_fifo(capacity: usize, threshold: Threshold) -> TreeScheduler {
        let pool = SharedPacketPool::new(
            capacity,
            AdmissionPolicy::PortFlow {
                port: Threshold::Unlimited,
                flow: threshold,
            },
        )
        .unwrap()
        .into_shared();
        let mut b = TreeBuilder::new();
        let root = b.add_root("fifo", Box::new(pifo_algos::Fifo));
        let tree = b
            .build_in_pool(Box::new(move |_| root), pool.register_port())
            .unwrap();
        TreeScheduler::new("fifo", tree)
    }

    #[test]
    fn static_threshold_caps_each_flow() {
        let mut s = flow_threshold_fifo(100, Threshold::Static(2));
        assert!(s.enqueue(pkt(0, 1), Nanos(0)));
        assert!(s.enqueue(pkt(1, 1), Nanos(0)));
        assert!(!s.enqueue(pkt(2, 1), Nanos(0)), "third of flow 1 dropped");
        assert!(s.enqueue(pkt(3, 2), Nanos(0)), "other flows unaffected");
        assert_eq!(s.drops(), 1);
        assert_eq!(
            s.tree().pool_handle().pool().flow_occupancy(FlowId(1)),
            Some(2)
        );
    }

    #[test]
    fn dequeue_frees_headroom() {
        let mut s = flow_threshold_fifo(100, Threshold::Static(1));
        assert!(s.enqueue(pkt(0, 1), Nanos(0)));
        assert!(!s.enqueue(pkt(1, 1), Nanos(0)));
        s.dequeue(Nanos(1)).expect("packet");
        assert!(s.enqueue(pkt(2, 1), Nanos(2)), "freed by the dequeue");
    }

    #[test]
    fn dynamic_threshold_prevents_monopoly_lockout() {
        // The classic tail-drop pathology: one flow owning the whole
        // buffer. With dynamic thresholds a second flow always finds
        // room.
        let mut s = flow_threshold_fifo(64, Threshold::Dynamic { num: 1, den: 1 });
        let mut id = 0;
        for _ in 0..200 {
            let _ = s.enqueue(pkt(id, 1), Nanos(id));
            id += 1;
        }
        let hog = s.tree().pool_handle().pool().flow_occupancy(FlowId(1));
        assert!(hog <= Some(32), "hog capped at half: {hog:?}");
        assert!(s.enqueue(pkt(id, 2), Nanos(id)), "victim admitted");
    }

    #[test]
    fn inner_rejection_counts_as_drop() {
        // The buffer is full even though the flow threshold would admit:
        // capacity rejects, and the reject is one drop, counted once.
        let mut s = flow_threshold_fifo(1, Threshold::Static(50));
        assert!(s.enqueue(pkt(0, 1), Nanos(0)));
        assert!(!s.enqueue(pkt(1, 1), Nanos(0)));
        assert_eq!(s.drops(), 1);
        assert_eq!(
            s.tree().pool_handle().pool().live(),
            1,
            "occupancy not double-counted"
        );
    }

    #[test]
    fn red_admits_below_min_threshold() {
        let mut red = Red::new(10, 30, 0.1, 42);
        for _ in 0..100 {
            assert!(red.admit(5), "avg stays below min_th");
        }
        assert_eq!(red.drops(), 0);
    }

    #[test]
    fn red_drops_everything_above_max_threshold() {
        let mut red = Red::new(10, 30, 0.1, 42);
        // Drive the average above max_th.
        for _ in 0..2_000 {
            let _ = red.admit(100);
        }
        assert!(red.average() > 30.0);
        assert!(!red.admit(100));
        assert!(!red.admit(100));
    }

    #[test]
    fn red_drops_probabilistically_in_between() {
        let mut red = Red::new(10, 30, 0.5, 7);
        // Hold the instantaneous queue at 20 until the EWMA settles
        // mid-band, then count drops over a window.
        for _ in 0..2_000 {
            let _ = red.admit(20);
        }
        let before = red.drops();
        let mut admitted = 0;
        for _ in 0..1_000 {
            if red.admit(20) {
                admitted += 1;
            }
        }
        let dropped = (red.drops() - before) as usize;
        assert_eq!(admitted + dropped, 1_000);
        // Mid-band at max_p=0.5 -> drop prob ~0.25; allow wide slack.
        assert!(dropped > 100 && dropped < 450, "dropped {dropped}");
    }

    #[test]
    fn red_is_seed_deterministic() {
        let run = |seed: u64| -> Vec<bool> {
            let mut red = Red::new(5, 15, 0.3, seed);
            (0..500).map(|_| red.admit(10)).collect()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10), "different seed, different pattern");
    }

    #[test]
    fn red_scheduler_keeps_average_queue_near_threshold() {
        // Persistent 2x overload into a 1000-slot FIFO: tail drop pins
        // the queue at the limit; RED holds the EWMA near max_th.
        let mut red_sched = RedScheduler::new(FifoSched::new(1_000), Red::new(50, 150, 0.2, 3));
        let mut plain = FifoSched::new(1_000);
        let mut id = 0u64;
        for round in 0..5_000u64 {
            // Two arrivals, one departure per round.
            for _ in 0..2 {
                let _ = red_sched.enqueue(pkt(id, (id % 7) as u32), Nanos(round));
                let _ = plain.enqueue(pkt(id, (id % 7) as u32), Nanos(round));
                id += 1;
            }
            let _ = red_sched.dequeue(Nanos(round));
            let _ = plain.dequeue(Nanos(round));
        }
        assert!(
            red_sched.backlog() < 300,
            "RED keeps the queue short: {}",
            red_sched.backlog()
        );
        assert!(
            plain.backlog() >= 999,
            "tail drop pins at the limit: {}",
            plain.backlog()
        );
    }
}
