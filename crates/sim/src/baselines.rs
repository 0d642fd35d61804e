//! Fixed-function baseline schedulers — the "menu" a conventional switch
//! offers (§1): FIFO, Deficit Round Robin \[34\], a token-bucket-shaped
//! FIFO and Stochastic Fairness Queueing. These are *not* built on PIFOs;
//! they are the comparison points the paper's programmable scheduler
//! replaces (strict priority is one PIFO node, `pifo_algos::StrictPriority`).

use crate::scheduler::PortScheduler;
use pifo_core::prelude::*;
use std::collections::{HashMap, VecDeque};

// ---------------------------------------------------------------------------
// FIFO
// ---------------------------------------------------------------------------

/// Plain tail-drop FIFO.
#[derive(Debug)]
pub struct FifoSched {
    q: VecDeque<Packet>,
    limit: usize,
    drops: u64,
}

impl FifoSched {
    /// FIFO with space for `limit` packets.
    pub fn new(limit: usize) -> Self {
        FifoSched {
            q: VecDeque::new(),
            limit,
            drops: 0,
        }
    }

    /// Packets dropped at the tail so far.
    pub fn drops(&self) -> u64 {
        self.drops
    }
}

impl PortScheduler for FifoSched {
    fn enqueue(&mut self, pkt: Packet, _now: Nanos) -> bool {
        if self.q.len() >= self.limit {
            self.drops += 1;
            return false;
        }
        self.q.push_back(pkt);
        true
    }

    fn dequeue(&mut self, _now: Nanos) -> Option<Packet> {
        self.q.pop_front()
    }

    fn next_ready(&self, _now: Nanos) -> Option<Nanos> {
        None // work-conserving: ready iff non-empty, never "later"
    }

    fn backlog(&self) -> usize {
        self.q.len()
    }

    fn name(&self) -> &str {
        "FIFO"
    }
}

// ---------------------------------------------------------------------------
// Deficit Round Robin
// ---------------------------------------------------------------------------

/// Deficit Round Robin \[34\]: the classic line-rate approximation of fair
/// queueing found in today's switches.
#[derive(Debug)]
pub struct DrrSched {
    queues: HashMap<FlowId, VecDeque<Packet>>,
    /// Active list: flows with backlog, in round-robin order.
    active: VecDeque<FlowId>,
    deficit: HashMap<FlowId, u64>,
    quantum: HashMap<FlowId, u64>,
    default_quantum: u64,
    backlog: usize,
    limit: usize,
    drops: u64,
}

impl DrrSched {
    /// DRR with the given default quantum (bytes added to a flow's deficit
    /// each round) and a shared buffer of `limit` packets.
    pub fn new(default_quantum: u64, limit: usize) -> Self {
        assert!(default_quantum > 0, "quantum must be positive");
        DrrSched {
            queues: HashMap::new(),
            active: VecDeque::new(),
            deficit: HashMap::new(),
            quantum: HashMap::new(),
            default_quantum,
            backlog: 0,
            limit,
            drops: 0,
        }
    }

    /// Give `flow` a custom quantum (weighted DRR).
    pub fn set_quantum(&mut self, flow: FlowId, quantum: u64) {
        assert!(quantum > 0, "quantum must be positive");
        self.quantum.insert(flow, quantum);
    }

    fn quantum_of(&self, flow: FlowId) -> u64 {
        self.quantum
            .get(&flow)
            .copied()
            .unwrap_or(self.default_quantum)
    }

    /// Packets dropped so far.
    pub fn drops(&self) -> u64 {
        self.drops
    }
}

impl PortScheduler for DrrSched {
    fn enqueue(&mut self, pkt: Packet, _now: Nanos) -> bool {
        if self.backlog >= self.limit {
            self.drops += 1;
            return false;
        }
        let flow = pkt.flow;
        let q = self.queues.entry(flow).or_default();
        let was_empty = q.is_empty();
        q.push_back(pkt);
        self.backlog += 1;
        if was_empty {
            self.active.push_back(flow);
            self.deficit.insert(flow, 0);
        }
        true
    }

    fn dequeue(&mut self, _now: Nanos) -> Option<Packet> {
        if self.backlog == 0 {
            return None;
        }
        // Visit flows round-robin; a flow sends while its deficit covers
        // the head packet, then moves to the back of the list.
        loop {
            let flow = *self.active.front().expect("backlog>0 implies active");
            let head_len = self.queues[&flow].front().expect("active flow").length as u64;
            let quantum = self.quantum_of(flow);
            let d = self.deficit.get_mut(&flow).expect("active flow");
            if *d >= head_len {
                *d -= head_len;
                let pkt = self
                    .queues
                    .get_mut(&flow)
                    .and_then(|q| q.pop_front())
                    .expect("head exists");
                self.backlog -= 1;
                if self.queues[&flow].is_empty() {
                    // Flow done: leave the round and forfeit its deficit.
                    self.active.pop_front();
                    self.deficit.remove(&flow);
                }
                return Some(pkt);
            }
            // Grant a quantum and rotate.
            *d += quantum;
            self.active.rotate_left(1);
        }
    }

    fn next_ready(&self, _now: Nanos) -> Option<Nanos> {
        None
    }

    fn backlog(&self) -> usize {
        self.backlog
    }

    fn name(&self) -> &str {
        "DRR"
    }
}

// ---------------------------------------------------------------------------
// Token-bucket-shaped FIFO (classic "traffic shaping" menu item)
// ---------------------------------------------------------------------------

/// A FIFO whose head is released by a token bucket: the fixed-function
/// "traffic shaping" of conventional switches.
#[derive(Debug)]
pub struct ShapedFifo {
    q: VecDeque<Packet>,
    limit: usize,
    drops: u64,
    rate_bps: u64,
    burst_nanobits: i128,
    tokens: i128,
    last_refill: Nanos,
}

impl ShapedFifo {
    /// FIFO shaped to `rate_bps` with `burst_bytes` of burst, buffering up
    /// to `limit` packets.
    pub fn new(rate_bps: u64, burst_bytes: u64, limit: usize) -> Self {
        assert!(rate_bps > 0, "rate must be positive");
        let burst = burst_bytes as i128 * 8 * 1_000_000_000;
        ShapedFifo {
            q: VecDeque::new(),
            limit,
            drops: 0,
            rate_bps,
            burst_nanobits: burst,
            tokens: burst,
            last_refill: Nanos::ZERO,
        }
    }

    fn refill(&mut self, now: Nanos) {
        let dt = now.saturating_sub(self.last_refill).as_nanos() as i128;
        self.tokens = (self.tokens + dt * self.rate_bps as i128).min(self.burst_nanobits);
        self.last_refill = now;
    }

    fn head_cost(&self) -> Option<i128> {
        self.q.front().map(|p| p.length as i128 * 8 * 1_000_000_000)
    }

    /// Packets dropped so far.
    pub fn drops(&self) -> u64 {
        self.drops
    }
}

impl PortScheduler for ShapedFifo {
    fn enqueue(&mut self, pkt: Packet, _now: Nanos) -> bool {
        if self.q.len() >= self.limit {
            self.drops += 1;
            return false;
        }
        self.q.push_back(pkt);
        true
    }

    fn dequeue(&mut self, now: Nanos) -> Option<Packet> {
        self.refill(now);
        let need = self.head_cost()?;
        if need <= self.tokens {
            self.tokens -= need;
            self.q.pop_front()
        } else {
            None
        }
    }

    fn next_ready(&self, now: Nanos) -> Option<Nanos> {
        let need = self.head_cost()?;
        let deficit = need - self.tokens;
        if deficit <= 0 {
            return Some(now);
        }
        let wait = (deficit + self.rate_bps as i128 - 1) / self.rate_bps as i128;
        Some(Nanos(now.as_nanos() + wait as u64))
    }

    fn backlog(&self) -> usize {
        self.q.len()
    }

    fn name(&self) -> &str {
        "ShapedFIFO"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(id: u64, flow: u32, len: u32) -> Packet {
        Packet::new(id, FlowId(flow), len, Nanos::ZERO)
    }

    #[test]
    fn fifo_is_fifo_and_tail_drops() {
        let mut s = FifoSched::new(2);
        assert!(s.enqueue(pkt(0, 0, 100), Nanos(0)));
        assert!(s.enqueue(pkt(1, 0, 100), Nanos(0)));
        assert!(!s.enqueue(pkt(2, 0, 100), Nanos(0)));
        assert_eq!(s.drops(), 1);
        assert_eq!(s.dequeue(Nanos(1)).unwrap().id.0, 0);
        assert_eq!(s.dequeue(Nanos(1)).unwrap().id.0, 1);
        assert!(s.dequeue(Nanos(1)).is_none());
    }

    #[test]
    fn drr_equal_quanta_split_evenly() {
        let mut s = DrrSched::new(1_500, 1_000);
        for i in 0..100 {
            s.enqueue(pkt(i, (i % 2) as u32, 1_000), Nanos(0));
        }
        let mut count = [0u32; 2];
        for _ in 0..40 {
            let p = s.dequeue(Nanos(1)).unwrap();
            count[p.flow.0 as usize] += 1;
        }
        assert!((count[0] as i32 - count[1] as i32).abs() <= 2, "{count:?}");
    }

    #[test]
    fn drr_weighted_quanta_split_proportionally() {
        let mut s = DrrSched::new(1_000, 1_000);
        s.set_quantum(FlowId(0), 1_000);
        s.set_quantum(FlowId(1), 3_000);
        for i in 0..200 {
            s.enqueue(pkt(i, (i % 2) as u32, 1_000), Nanos(0));
        }
        let mut count = [0u32; 2];
        for _ in 0..80 {
            let p = s.dequeue(Nanos(1)).unwrap();
            count[p.flow.0 as usize] += 1;
        }
        let ratio = count[1] as f64 / count[0] as f64;
        assert!((ratio - 3.0).abs() < 0.5, "want ~3.0, got {ratio:.2}");
    }

    #[test]
    fn drr_large_packets_accumulate_deficit() {
        // Quantum 500 < packet 1000: a flow needs two rounds per packet
        // but still progresses (no starvation).
        let mut s = DrrSched::new(500, 100);
        s.enqueue(pkt(0, 0, 1_000), Nanos(0));
        s.enqueue(pkt(1, 1, 1_000), Nanos(0));
        let a = s.dequeue(Nanos(1)).unwrap();
        let b = s.dequeue(Nanos(1)).unwrap();
        assert_ne!(a.flow, b.flow);
        assert!(s.dequeue(Nanos(1)).is_none());
    }

    #[test]
    fn drr_flow_leaving_forfeits_deficit() {
        let mut s = DrrSched::new(1_500, 100);
        s.enqueue(pkt(0, 0, 100), Nanos(0));
        assert_eq!(s.dequeue(Nanos(1)).unwrap().id.0, 0);
        // Flow 0 re-arrives: deficit must restart at 0, not carry over.
        s.enqueue(pkt(1, 0, 100), Nanos(2));
        assert_eq!(s.dequeue(Nanos(3)).unwrap().id.0, 1);
        assert_eq!(s.backlog(), 0);
    }

    #[test]
    fn shaped_fifo_gates_on_tokens() {
        // 8 Gb/s = 1 B/ns, burst 1000 B.
        let mut s = ShapedFifo::new(8_000_000_000, 1_000, 10);
        s.enqueue(pkt(0, 0, 1_000), Nanos(0));
        s.enqueue(pkt(1, 0, 1_000), Nanos(0));
        assert!(s.dequeue(Nanos(0)).is_some(), "burst covers first packet");
        assert!(s.dequeue(Nanos(0)).is_none(), "no tokens for second");
        assert_eq!(s.next_ready(Nanos(0)), Some(Nanos(1_000)));
        assert!(s.dequeue(Nanos(1_000)).is_some());
    }

    #[test]
    fn shaped_fifo_next_ready_none_when_empty() {
        let s = ShapedFifo::new(1_000_000, 1_000, 10);
        assert_eq!(s.next_ready(Nanos(0)), None);
    }
}

// ---------------------------------------------------------------------------
// Stochastic Fairness Queueing
// ---------------------------------------------------------------------------

/// Stochastic Fairness Queueing \[29\] — the third WFQ approximation §2.1
/// names: flows hash into a fixed number of buckets served round-robin;
/// fairness is probabilistic (hash collisions share a bucket).
#[derive(Debug)]
pub struct SfqSched {
    buckets: Vec<VecDeque<Packet>>,
    /// Round-robin cursor over buckets.
    cursor: usize,
    backlog: usize,
    limit: usize,
    drops: u64,
    /// Salt for the flow hash (rotated periodically in real SFQ; fixed
    /// here for determinism).
    salt: u64,
}

impl SfqSched {
    /// SFQ with `n_buckets` hash buckets and a shared `limit`.
    pub fn new(n_buckets: usize, limit: usize, salt: u64) -> Self {
        assert!(n_buckets > 0, "need at least one bucket");
        SfqSched {
            buckets: (0..n_buckets).map(|_| VecDeque::new()).collect(),
            cursor: 0,
            backlog: 0,
            limit,
            drops: 0,
            salt,
        }
    }

    fn bucket_of(&self, flow: FlowId) -> usize {
        // SplitMix64-style scramble of (flow, salt).
        let mut x = flow.0 as u64 ^ self.salt;
        x = x.wrapping_add(0x9E3779B97F4A7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
        (x ^ (x >> 31)) as usize % self.buckets.len()
    }

    /// Packets dropped so far.
    pub fn drops(&self) -> u64 {
        self.drops
    }
}

impl PortScheduler for SfqSched {
    fn enqueue(&mut self, pkt: Packet, _now: Nanos) -> bool {
        if self.backlog >= self.limit {
            self.drops += 1;
            return false;
        }
        let b = self.bucket_of(pkt.flow);
        self.buckets[b].push_back(pkt);
        self.backlog += 1;
        true
    }

    fn dequeue(&mut self, _now: Nanos) -> Option<Packet> {
        if self.backlog == 0 {
            return None;
        }
        let n = self.buckets.len();
        for _ in 0..n {
            let i = self.cursor;
            self.cursor = (self.cursor + 1) % n;
            if let Some(p) = self.buckets[i].pop_front() {
                self.backlog -= 1;
                return Some(p);
            }
        }
        unreachable!("backlog > 0 but all buckets empty");
    }

    fn next_ready(&self, _now: Nanos) -> Option<Nanos> {
        None
    }

    fn backlog(&self) -> usize {
        self.backlog
    }

    fn name(&self) -> &str {
        "SFQ"
    }
}

#[cfg(test)]
mod sfq_tests {
    use super::*;

    fn pkt(id: u64, flow: u32) -> Packet {
        Packet::new(id, FlowId(flow), 1_000, Nanos(id))
    }

    #[test]
    fn distinct_buckets_share_round_robin() {
        let mut s = SfqSched::new(64, 1_000, 7);
        // Find two flows that do NOT collide.
        let (f1, f2) = {
            let mut a = 0u32;
            let mut b = 1u32;
            while s.bucket_of(FlowId(a)) == s.bucket_of(FlowId(b)) {
                b += 1;
                let _ = &mut a;
            }
            (a, b)
        };
        for i in 0..10 {
            s.enqueue(pkt(i * 2, f1), Nanos(0));
            s.enqueue(pkt(i * 2 + 1, f2), Nanos(0));
        }
        let mut count = [0u32; 2];
        for _ in 0..10 {
            let p = s.dequeue(Nanos(1)).unwrap();
            count[if p.flow.0 == f1 { 0 } else { 1 }] += 1;
        }
        assert!((count[0] as i32 - count[1] as i32).abs() <= 1, "{count:?}");
    }

    #[test]
    fn colliding_flows_share_one_bucket() {
        // With a single bucket everything collides: SFQ degenerates to
        // FIFO — the probabilistic caveat of the scheme.
        let mut s = SfqSched::new(1, 100, 0);
        s.enqueue(pkt(0, 1), Nanos(0));
        s.enqueue(pkt(1, 2), Nanos(0));
        s.enqueue(pkt(2, 1), Nanos(0));
        let order: Vec<u64> = std::iter::from_fn(|| s.dequeue(Nanos(1)).map(|p| p.id.0)).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn tail_drop_and_backlog() {
        let mut s = SfqSched::new(4, 2, 1);
        assert!(s.enqueue(pkt(0, 1), Nanos(0)));
        assert!(s.enqueue(pkt(1, 2), Nanos(0)));
        assert!(!s.enqueue(pkt(2, 3), Nanos(0)));
        assert_eq!(s.drops(), 1);
        assert_eq!(s.backlog(), 2);
        assert_eq!(s.name(), "SFQ");
    }

    #[test]
    fn hash_is_deterministic_per_salt() {
        let a = SfqSched::new(64, 10, 42);
        let b = SfqSched::new(64, 10, 42);
        let c = SfqSched::new(64, 10, 43);
        let same = (0..100u32).all(|f| a.bucket_of(FlowId(f)) == b.bucket_of(FlowId(f)));
        assert!(same, "same salt, same mapping");
        let differs = (0..100u32).any(|f| a.bucket_of(FlowId(f)) != c.bucket_of(FlowId(f)));
        assert!(differs, "different salt perturbs the mapping");
    }
}
