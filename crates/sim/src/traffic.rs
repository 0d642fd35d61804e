//! Deterministic, seeded traffic generation.
//!
//! Sources produce finite packet streams, each in non-decreasing arrival
//! order (each [`Packet`] carries its arrival time); [`merge`] interleaves
//! several sources into one time-sorted arrival list for a port, the
//! lower source index first at a shared instant. Since every input is
//! already in order, the generators merge their inputs' heads instead of
//! sorting the whole stream. All randomness comes from a seeded
//! [`rand::rngs::StdRng`], keeping every experiment reproducible.

use pifo_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

/// A finite stream of packets, already stamped with arrival times.
///
/// The stream is time-sorted: each packet arrives no earlier than the one
/// before it, and packets sharing an instant keep their emission order
/// downstream. [`merge`] and the lossless fabric rely on this contract;
/// `merge` panics on a source that breaks it.
pub trait TrafficSource {
    /// The next packet, or `None` when the source is exhausted. It
    /// arrives no earlier than the packet returned before it.
    fn next_packet(&mut self) -> Option<Packet>;

    /// An upper bound on the packets this source will still emit — how
    /// many more times [`next_packet`](Self::next_packet) returns `Some`
    /// — that holds under any pause/resume schedule; `None` (the
    /// default) when unknown. The lossless fabric sizes each port's
    /// departure trace from these bounds, and grows the trace instead
    /// where one is unknown.
    ///
    /// The built-in sources return the exact length of their remaining
    /// unpaused stream, and it falls by one per packet. That is a bound
    /// for any pause schedule: the clock-driven sources stop at a fixed
    /// `end` and a pause only shifts their clock later, and
    /// [`PoissonSource`] ignores pauses.
    fn size_hint(&mut self) -> Option<usize> {
        None
    }

    /// PFC-style pause notification: the fabric asked this source to stop
    /// transmitting at `now` (§6.2). The default is a no-op — an
    /// oblivious source keeps its precomputed schedule, and the lossless
    /// fabric holds its packets back for it. Clock-driven sources
    /// override this (with [`resume`](Self::resume)) to *shift* their
    /// emission clock by the paused duration, like a real NIC that
    /// transmits nothing while paused rather than bursting a backlog.
    ///
    /// A second `pause` before the matching `resume` is idempotent.
    fn pause(&mut self, _now: Nanos) {}

    /// PFC-style resume notification at `now`; see [`pause`](Self::pause).
    /// Without a preceding `pause` this is a no-op.
    fn resume(&mut self, _now: Nanos) {}
}

/// Merge time-sorted sources into one arrival-time-sorted vector.
///
/// At a shared instant the lower source index comes first, and each
/// source's packets keep their emission order: the result equals a
/// stable sort of the sources' concatenated streams, so experiments are
/// deterministic. The merge is lazy. It keeps one head per source in a
/// calendar keyed by `(arrival, source index)`, so it needs no memory
/// beyond its output and those heads.
///
/// # Panics
///
/// Panics if a source emits a packet earlier than its previous one: the
/// sources must be time-sorted (the [`TrafficSource`] contract).
pub fn merge(mut sources: Vec<Box<dyn TrafficSource>>) -> Vec<Packet> {
    let mut heads: Vec<Option<Packet>> = sources.iter_mut().map(|s| s.next_packet()).collect();
    let mut calendar: BinaryHeap<Reverse<(Nanos, usize)>> = heads
        .iter()
        .enumerate()
        .filter_map(|(i, head)| Some(Reverse((head.as_ref()?.arrival, i))))
        .collect();
    let mut out = Vec::new();
    while let Some(mut top) = calendar.peek_mut() {
        let Reverse((at, i)) = *top;
        let next = sources[i].next_packet();
        // Re-key the emitter in place; an exhausted source leaves.
        match &next {
            Some(p) => {
                assert!(
                    p.arrival >= at,
                    "traffic source {i} emitted {} after {at}: sources must be time-sorted",
                    p.arrival
                );
                top.0 .0 = p.arrival;
            }
            None => {
                PeekMut::pop(top);
            }
        }
        out.push(std::mem::replace(&mut heads[i], next).expect("a calendar entry has a head"));
    }
    out
}

/// Re-number packet ids to be globally unique after merging (sources
/// assign ids independently). Call after [`merge`].
pub fn renumber(packets: &mut [Packet]) {
    for (i, p) in packets.iter_mut().enumerate() {
        p.id = PacketId(i as u64);
    }
}

/// The pause state every clock-driven source shares: while paused it
/// emits nothing, and on resume its clock moves on by the time it spent
/// paused, so the stream restarts at its configured rate instead of
/// bursting a backlog.
#[derive(Debug, Default, Clone)]
struct PauseClock {
    paused_at: Option<Nanos>,
}

impl PauseClock {
    /// Pause at `now`; a second pause before the resume changes nothing.
    fn pause(&mut self, now: Nanos) {
        self.paused_at.get_or_insert(now);
    }

    /// Resume at `now`, shifting `clock` by the paused duration (no-op
    /// without a pending pause).
    fn resume(&mut self, now: Nanos, clock: &mut Nanos) {
        if let Some(t0) = self.paused_at.take() {
            *clock += now.saturating_sub(t0);
        }
    }
}

/// Packets a clock-driven schedule emits before `end`: bursts of `burst`
/// packets `gap` apart, one burst starting every `period` from `start`.
/// Needs `(burst - 1) * gap <= period`, so every burst but the last is
/// whole. `None` when the schedule never reaches `end` (a zero period)
/// or the count overflows `usize`.
fn grid_len(start: Nanos, burst: u64, gap: Nanos, period: Nanos, end: Nanos) -> Option<usize> {
    if start >= end {
        return Some(0);
    }
    if period == Nanos::ZERO {
        return None;
    }
    let span = u128::from((end - start).as_nanos());
    let (period, gap, burst) = (
        u128::from(period.as_nanos()),
        u128::from(gap.as_nanos()),
        u128::from(burst),
    );
    let bursts = span.div_ceil(period);
    // The last burst has this long before `end`.
    let last = span - (bursts - 1) * period;
    let tail = if gap == 0 {
        burst
    } else {
        last.div_ceil(gap).min(burst)
    };
    usize::try_from((bursts - 1) * burst + tail).ok()
}

// ---------------------------------------------------------------------------
// CBR
// ---------------------------------------------------------------------------

/// Constant-bit-rate source: fixed-size packets at exact intervals.
#[derive(Debug)]
pub struct CbrSource {
    flow: FlowId,
    pkt_len: u32,
    interval: Nanos,
    next_time: Nanos,
    end: Nanos,
    next_id: u64,
    seq: u64,
    class: u8,
    paused: PauseClock,
}

impl CbrSource {
    /// A CBR stream for `flow`: `pkt_len`-byte packets at `rate_bps`,
    /// from `start` (inclusive) to `end` (exclusive).
    ///
    /// # Panics
    ///
    /// Panics if the rate or length is zero.
    pub fn new(flow: FlowId, pkt_len: u32, rate_bps: u64, start: Nanos, end: Nanos) -> Self {
        assert!(
            rate_bps > 0 && pkt_len > 0,
            "rate and length must be positive"
        );
        let interval = tx_time(pkt_len as u64, rate_bps);
        CbrSource {
            flow,
            pkt_len,
            interval,
            next_time: start,
            end,
            next_id: 0,
            seq: 0,
            class: 0,
            paused: PauseClock::default(),
        }
    }

    /// Set the priority class stamped on every packet.
    pub fn with_class(mut self, class: u8) -> Self {
        self.class = class;
        self
    }
}

impl TrafficSource for CbrSource {
    fn next_packet(&mut self) -> Option<Packet> {
        if self.next_time >= self.end {
            return None;
        }
        let p = Packet::new(self.next_id, self.flow, self.pkt_len, self.next_time)
            .with_class(self.class)
            .with_seq_in_flow(self.seq);
        self.next_id += 1;
        self.seq += 1;
        self.next_time += self.interval;
        Some(p)
    }

    fn size_hint(&mut self) -> Option<usize> {
        grid_len(self.next_time, 1, Nanos::ZERO, self.interval, self.end)
    }

    fn pause(&mut self, now: Nanos) {
        self.paused.pause(now);
    }

    fn resume(&mut self, now: Nanos) {
        self.paused.resume(now, &mut self.next_time);
    }
}

// ---------------------------------------------------------------------------
// Poisson
// ---------------------------------------------------------------------------

/// Poisson arrivals: exponentially distributed gaps at a mean packet rate.
#[derive(Debug, Clone)]
pub struct PoissonSource {
    flow: FlowId,
    pkt_len: u32,
    mean_gap_ns: f64,
    next_time: Nanos,
    end: Nanos,
    rng: StdRng,
    next_id: u64,
    seq: u64,
    /// Packets still to come, counted by a replay on the first
    /// [`size_hint`](TrafficSource::size_hint).
    left: Option<usize>,
}

impl PoissonSource {
    /// Poisson stream for `flow`: `pkt_len`-byte packets at an average of
    /// `rate_pps` packets/second until `end`, seeded deterministically.
    ///
    /// # Panics
    ///
    /// Panics if the rate or length is zero.
    pub fn new(flow: FlowId, pkt_len: u32, rate_pps: f64, end: Nanos, seed: u64) -> Self {
        assert!(
            rate_pps > 0.0 && pkt_len > 0,
            "rate and length must be positive"
        );
        PoissonSource {
            flow,
            pkt_len,
            mean_gap_ns: 1e9 / rate_pps,
            next_time: Nanos::ZERO,
            end,
            rng: StdRng::seed_from_u64(seed),
            next_id: 0,
            seq: 0,
            left: None,
        }
    }
}

impl TrafficSource for PoissonSource {
    fn next_packet(&mut self) -> Option<Packet> {
        // Exponential gap via inverse transform.
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let gap = (-u.ln() * self.mean_gap_ns).round() as u64;
        let t = Nanos(self.next_time.as_nanos() + gap);
        if t >= self.end {
            // Exhausted for good: a later, shorter gap must not revive it.
            self.next_time = self.end;
            return None;
        }
        self.next_time = t;
        let p = Packet::new(self.next_id, self.flow, self.pkt_len, t).with_seq_in_flow(self.seq);
        self.next_id += 1;
        self.seq += 1;
        if let Some(left) = &mut self.left {
            *left -= 1;
        }
        Some(p)
    }

    fn size_hint(&mut self) -> Option<usize> {
        if self.left.is_none() {
            self.left = Some(replay_len(self.clone()));
        }
        self.left
    }
}

/// The length of `src`'s remaining stream, drawn on a copy of it.
fn replay_len(mut src: impl TrafficSource) -> usize {
    std::iter::from_fn(|| src.next_packet()).count()
}

// ---------------------------------------------------------------------------
// On/Off bursts
// ---------------------------------------------------------------------------

/// On/off source: bursts of back-to-back packets separated by idle gaps —
/// the bursty traffic Stop-and-Go (§3.2) is designed to smooth.
#[derive(Debug)]
pub struct OnOffSource {
    flow: FlowId,
    pkt_len: u32,
    burst_pkts: u32,
    line_gap: Nanos,
    idle_gap: Nanos,
    in_burst: u32,
    next_time: Nanos,
    end: Nanos,
    next_id: u64,
    seq: u64,
    paused: PauseClock,
}

impl OnOffSource {
    /// Bursts of `burst_pkts` packets emitted back-to-back at
    /// `line_rate_bps`, separated by `idle` time, until `end`.
    ///
    /// # Panics
    ///
    /// Panics if any of the sizing parameters is zero.
    pub fn new(
        flow: FlowId,
        pkt_len: u32,
        burst_pkts: u32,
        line_rate_bps: u64,
        idle: Nanos,
        end: Nanos,
    ) -> Self {
        assert!(
            burst_pkts > 0 && pkt_len > 0,
            "burst and length must be positive"
        );
        OnOffSource {
            flow,
            pkt_len,
            burst_pkts,
            line_gap: tx_time(pkt_len as u64, line_rate_bps),
            idle_gap: idle,
            in_burst: 0,
            next_time: Nanos::ZERO,
            end,
            next_id: 0,
            seq: 0,
            paused: PauseClock::default(),
        }
    }
}

impl TrafficSource for OnOffSource {
    fn next_packet(&mut self) -> Option<Packet> {
        if self.next_time >= self.end {
            return None;
        }
        let p = Packet::new(self.next_id, self.flow, self.pkt_len, self.next_time)
            .with_seq_in_flow(self.seq);
        self.next_id += 1;
        self.seq += 1;
        self.in_burst += 1;
        if self.in_burst >= self.burst_pkts {
            self.in_burst = 0;
            self.next_time += self.idle_gap;
        } else {
            self.next_time += self.line_gap;
        }
        Some(p)
    }

    fn size_hint(&mut self) -> Option<usize> {
        if self.next_time >= self.end {
            return Some(0);
        }
        // Count from the current burst's start, then leave out the
        // `in_burst` packets it has already sent.
        let gap = self.line_gap.as_nanos();
        let burst_start = self.next_time - Nanos(u64::from(self.in_burst) * gap);
        let period = (u64::from(self.burst_pkts) - 1)
            .saturating_mul(gap)
            .saturating_add(self.idle_gap.as_nanos());
        let from_start = grid_len(
            burst_start,
            u64::from(self.burst_pkts),
            self.line_gap,
            Nanos(period),
            self.end,
        )?;
        Some(from_start - self.in_burst as usize)
    }

    fn pause(&mut self, now: Nanos) {
        self.paused.pause(now);
    }

    fn resume(&mut self, now: Nanos) {
        self.paused.resume(now, &mut self.next_time);
    }
}

// ---------------------------------------------------------------------------
// Incast
// ---------------------------------------------------------------------------

/// Incast: `fanin` synchronized senders all firing a burst at the same
/// target at once, repeating every `period` — the partition/aggregate
/// traffic that concentrates load on one egress port and stresses a
/// switch far beyond what any single smooth flow can.
///
/// Each epoch, every sender emits `pkts_per_sender` back-to-back packets
/// at its access line rate, and all `fanin` senders start simultaneously
/// (their packets tie instant-for-instant, emitted in sender order, which
/// [`merge`] keeps). Senders are flows `base_flow .. base_flow + fanin`.
#[derive(Debug)]
pub struct IncastSource {
    base_flow: u32,
    fanin: u32,
    pkt_len: u32,
    pkts_per_sender: u32,
    line_gap: Nanos,
    period: Nanos,
    end: Nanos,
    /// Iteration state: (epoch, packet-within-sender, sender).
    epoch: u64,
    k: u32,
    sender: u32,
    next_id: u64,
    /// Cumulative PFC pause shift added to every emitted time (incast
    /// times are computed from the epoch grid rather than carried in a
    /// clock, so the shift is additive).
    offset: Nanos,
    paused: PauseClock,
}

impl IncastSource {
    /// `fanin` senders, each bursting `pkts_per_sender` packets of
    /// `pkt_len` bytes at `line_rate_bps`, synchronized every `period`
    /// until `end`. Flows are numbered from `base_flow`.
    ///
    /// # Panics
    ///
    /// Panics if any sizing parameter is zero, or if a sender's burst
    /// does not fit inside `period` — overlapping epochs would make the
    /// emitted stream non-monotonic in time (and the exhaustion check
    /// would silently drop the overlapped tail), breaking the
    /// [`TrafficSource`] time-sorted contract.
    pub fn new(
        base_flow: FlowId,
        fanin: u32,
        pkt_len: u32,
        pkts_per_sender: u32,
        line_rate_bps: u64,
        period: Nanos,
        end: Nanos,
    ) -> Self {
        assert!(
            fanin > 0 && pkt_len > 0 && pkts_per_sender > 0 && period > Nanos::ZERO,
            "incast sizing parameters must be positive"
        );
        let line_gap = tx_time(pkt_len as u64, line_rate_bps);
        assert!(
            (pkts_per_sender as u64 - 1) * line_gap.as_nanos() < period.as_nanos(),
            "incast burst ({pkts_per_sender} pkts x {line_gap} gap) must fit inside the \
             {period} period, or epochs would overlap and emission order would not be \
             time-sorted"
        );
        IncastSource {
            base_flow: base_flow.0,
            fanin,
            pkt_len,
            pkts_per_sender,
            line_gap,
            period,
            end,
            epoch: 0,
            k: 0,
            sender: 0,
            next_id: 0,
            offset: Nanos::ZERO,
            paused: PauseClock::default(),
        }
    }

    /// The instant the current epoch's first wave goes out.
    fn epoch_start(&self) -> Nanos {
        self.offset + Nanos(self.epoch * self.period.as_nanos())
    }

    /// The instant of the next wave: packet `k` of every sender.
    fn next_wave(&self) -> Nanos {
        self.epoch_start() + Nanos(self.k as u64 * self.line_gap.as_nanos())
    }
}

impl TrafficSource for IncastSource {
    fn next_packet(&mut self) -> Option<Packet> {
        // Emission order (epoch, k, sender) is time-sorted: within an
        // epoch, packet k of *every* sender shares one arrival instant.
        let t = self.next_wave();
        if t >= self.end {
            return None;
        }
        let p = Packet::new(
            self.next_id,
            FlowId(self.base_flow + self.sender),
            self.pkt_len,
            t,
        )
        .with_seq_in_flow((self.epoch * self.pkts_per_sender as u64) + self.k as u64);
        self.next_id += 1;
        self.sender += 1;
        if self.sender == self.fanin {
            self.sender = 0;
            self.k += 1;
            if self.k == self.pkts_per_sender {
                self.k = 0;
                self.epoch += 1;
            }
        }
        Some(p)
    }

    fn size_hint(&mut self) -> Option<usize> {
        if self.next_wave() >= self.end {
            return Some(0);
        }
        // Whole waves (one packet per sender at one instant) from the
        // current epoch's first, less the waves and senders already sent.
        let waves = grid_len(
            self.epoch_start(),
            u64::from(self.pkts_per_sender),
            self.line_gap,
            self.period,
            self.end,
        )? - self.k as usize;
        (waves.checked_mul(self.fanin as usize)?).checked_sub(self.sender as usize)
    }

    fn pause(&mut self, now: Nanos) {
        self.paused.pause(now);
    }

    fn resume(&mut self, now: Nanos) {
        self.paused.resume(now, &mut self.offset);
    }
}

// ---------------------------------------------------------------------------
// Randomized (Markov-style) on/off bursts
// ---------------------------------------------------------------------------

/// On/off source with *randomized* burst and idle durations: burst
/// lengths are 1 + Exp(mean_burst_pkts − 1) packets (rounded), idle gaps
/// Exp(mean_idle) — the seeded, heavy-burst traffic that batching
/// schedulers (Eiffel, NSDI'19) are built for, where the deterministic
/// [`OnOffSource`] is too regular to expose queue-depth excursions.
#[derive(Debug, Clone)]
pub struct MarkovOnOffSource {
    flow: FlowId,
    pkt_len: u32,
    mean_burst_pkts: f64,
    mean_idle_ns: f64,
    line_gap: Nanos,
    rng: StdRng,
    remaining_in_burst: u32,
    next_time: Nanos,
    end: Nanos,
    next_id: u64,
    seq: u64,
    paused: PauseClock,
    /// Packets still to come, counted by a replay on the first
    /// [`size_hint`](TrafficSource::size_hint).
    left: Option<usize>,
}

impl MarkovOnOffSource {
    /// Bursts averaging `mean_burst_pkts` packets of `pkt_len` bytes at
    /// `line_rate_bps`, separated by idle gaps averaging `mean_idle`,
    /// until `end`; all randomness from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the burst mean is below 1 or the length is zero.
    pub fn new(
        flow: FlowId,
        pkt_len: u32,
        mean_burst_pkts: f64,
        line_rate_bps: u64,
        mean_idle: Nanos,
        end: Nanos,
        seed: u64,
    ) -> Self {
        assert!(
            mean_burst_pkts >= 1.0 && pkt_len > 0,
            "mean burst must be >= 1 packet and length positive"
        );
        let mut src = MarkovOnOffSource {
            flow,
            pkt_len,
            mean_burst_pkts,
            mean_idle_ns: mean_idle.as_nanos() as f64,
            line_gap: tx_time(pkt_len as u64, line_rate_bps),
            rng: StdRng::seed_from_u64(seed),
            remaining_in_burst: 0,
            next_time: Nanos::ZERO,
            end,
            next_id: 0,
            seq: 0,
            paused: PauseClock::default(),
            left: None,
        };
        src.remaining_in_burst = src.sample_burst();
        src
    }

    fn exp_sample(&mut self, mean: f64) -> f64 {
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        -u.ln() * mean
    }

    fn sample_burst(&mut self) -> u32 {
        // 1 + Exp(mean - 1): strictly positive bursts with the requested
        // mean, exponentially heavy tails.
        let extra = self.exp_sample(self.mean_burst_pkts - 1.0);
        1 + extra.round().min(u32::MAX as f64 / 2.0) as u32
    }
}

impl TrafficSource for MarkovOnOffSource {
    fn next_packet(&mut self) -> Option<Packet> {
        if self.next_time >= self.end {
            return None;
        }
        let p = Packet::new(self.next_id, self.flow, self.pkt_len, self.next_time)
            .with_seq_in_flow(self.seq);
        self.next_id += 1;
        self.seq += 1;
        self.remaining_in_burst -= 1;
        if self.remaining_in_burst == 0 {
            let idle = self.exp_sample(self.mean_idle_ns).round() as u64;
            self.next_time += Nanos(self.line_gap.as_nanos() + idle);
            self.remaining_in_burst = self.sample_burst();
        } else {
            self.next_time += self.line_gap;
        }
        if let Some(left) = &mut self.left {
            *left -= 1;
        }
        Some(p)
    }

    fn size_hint(&mut self) -> Option<usize> {
        if self.left.is_none() {
            self.left = Some(replay_len(self.clone()));
        }
        self.left
    }

    fn pause(&mut self, now: Nanos) {
        self.paused.pause(now);
    }

    fn resume(&mut self, now: Nanos) {
        self.paused.resume(now, &mut self.next_time);
    }
}

// ---------------------------------------------------------------------------
// Flow workloads (for FCT experiments)
// ---------------------------------------------------------------------------

/// An empirical flow-size distribution given as a CDF over sizes in bytes.
#[derive(Debug, Clone)]
pub struct SizeDistribution {
    /// `(size_bytes, cumulative_probability)`, increasing in both.
    points: Vec<(u64, f64)>,
}

impl SizeDistribution {
    /// Build from `(size, cdf)` points.
    ///
    /// # Panics
    ///
    /// Panics if points are empty, unordered, or the last CDF != 1.0.
    pub fn new(points: Vec<(u64, f64)>) -> Self {
        assert!(!points.is_empty(), "distribution needs points");
        for w in points.windows(2) {
            assert!(
                w[0].0 <= w[1].0 && w[0].1 <= w[1].1,
                "CDF points must be non-decreasing"
            );
        }
        assert!(
            (points.last().unwrap().1 - 1.0).abs() < 1e-9,
            "CDF must end at 1.0"
        );
        SizeDistribution { points }
    }

    /// A web-search-like heavy-tailed distribution (most flows are a few
    /// KB; a small fraction are multi-MB), in the spirit of the workloads
    /// that motivate SRPT/pFabric (§1, §3.4).
    pub fn web_search() -> Self {
        SizeDistribution::new(vec![
            (6_000, 0.15),
            (13_000, 0.30),
            (19_000, 0.45),
            (33_000, 0.60),
            (53_000, 0.70),
            (133_000, 0.80),
            (667_000, 0.90),
            (1_333_000, 0.95),
            (6_667_000, 0.98),
            (20_000_000, 1.00),
        ])
    }

    /// A bounded Pareto distribution on `[min_bytes, max_bytes]` with
    /// tail index `alpha` — the canonical heavy-tailed flow-size model
    /// (small `alpha` ⇒ heavier tail; `alpha ≈ 1.1–1.3` matches measured
    /// datacenter workloads). Discretized onto 32 log-spaced CDF points,
    /// sampled with the same inverse-transform interpolation as the
    /// empirical distributions.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < min_bytes < max_bytes` and `alpha > 0`.
    pub fn bounded_pareto(alpha: f64, min_bytes: u64, max_bytes: u64) -> Self {
        assert!(
            alpha > 0.0 && min_bytes > 0 && min_bytes < max_bytes,
            "need alpha > 0 and 0 < min < max"
        );
        const POINTS: usize = 32;
        let (xm, xmax) = (min_bytes as f64, max_bytes as f64);
        // Bounded-Pareto CDF: F(x) = (1 - (xm/x)^a) / (1 - (xm/xM)^a).
        let tail = (xm / xmax).powf(alpha);
        let cdf = |x: f64| (1.0 - (xm / x).powf(alpha)) / (1.0 - tail);
        let log_step = (xmax / xm).ln() / (POINTS - 1) as f64;
        let mut points: Vec<(u64, f64)> = (0..POINTS)
            .map(|i| {
                let x = xm * (log_step * i as f64).exp();
                (x.round() as u64, cdf(x).clamp(0.0, 1.0))
            })
            .collect();
        // Pin the endpoints exactly (float round-off must not violate
        // the CDF contract).
        points.first_mut().expect("POINTS > 0").1 = 0.0;
        let last = points.last_mut().expect("POINTS > 0");
        last.0 = max_bytes;
        last.1 = 1.0;
        // Monotonicity can be dented by rounding at tiny ranges; repair.
        for i in 1..points.len() {
            if points[i].0 < points[i - 1].0 {
                points[i].0 = points[i - 1].0;
            }
            if points[i].1 < points[i - 1].1 {
                points[i].1 = points[i - 1].1;
            }
        }
        SizeDistribution::new(points)
    }

    /// Sample a size using inverse-transform over the piecewise CDF.
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        let u: f64 = rng.gen_range(0.0..1.0);
        let mut prev_size = 0u64;
        let mut prev_cdf = 0.0;
        for &(size, cdf) in &self.points {
            if u <= cdf {
                // Linear interpolation within the segment.
                let frac = if cdf > prev_cdf {
                    (u - prev_cdf) / (cdf - prev_cdf)
                } else {
                    1.0
                };
                let lo = prev_size as f64;
                let hi = size as f64;
                return (lo + frac * (hi - lo)).max(1.0) as u64;
            }
            prev_size = size;
            prev_cdf = cdf;
        }
        self.points.last().unwrap().0
    }
}

/// A generated flow: id, arrival of its first packet, total size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSpec {
    /// Flow identifier.
    pub flow: FlowId,
    /// Time the flow starts.
    pub start: Nanos,
    /// Total bytes.
    pub size: u64,
}

/// Generate an open-loop flow workload: flows arrive Poisson at
/// `flows_per_sec`, sizes from `dist`, each flow's packets injected
/// back-to-back at `access_rate_bps` in `mtu`-byte packets.
///
/// Packets carry `flow_size` and `remaining` so SJF/SRPT/LAS transactions
/// work out of the box. Returns the packets and the specs. The packets
/// are time-sorted and numbered in that order; at a shared instant the
/// lower flow index comes first, the order a stable sort of the flows'
/// concatenated packets gives. Every spec is drawn before any packet is
/// built; the flows' packets are then merged by instant, lazily, into an
/// output sized exactly.
pub fn flow_workload(
    n_flows: usize,
    flows_per_sec: f64,
    dist: &SizeDistribution,
    access_rate_bps: u64,
    mtu: u32,
    seed: u64,
) -> (Vec<Packet>, Vec<FlowSpec>) {
    assert!(n_flows > 0 && mtu > 0, "need flows and a positive MTU");
    let mut rng = StdRng::seed_from_u64(seed);
    let mean_gap_ns = 1e9 / flows_per_sec;
    let mut t = 0u64;
    let specs: Vec<FlowSpec> = (0..n_flows)
        .map(|i| {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += (-u.ln() * mean_gap_ns).round() as u64;
            FlowSpec {
                flow: FlowId(i as u32),
                start: Nanos(t),
                size: dist.sample(&mut rng),
            }
        })
        .collect();

    let mtu = mtu as u64;
    let gap = tx_time(mtu, access_rate_bps);
    let total: u64 = specs.iter().map(|s| s.size.div_ceil(mtu)).sum();
    let mut packets = Vec::with_capacity(usize::try_from(total).expect("packet count fits usize"));
    // A flow's cursor is its next packet's instant (the calendar key) and
    // the bytes it has sent. Every packet but a flow's last is `mtu`
    // bytes, so the bytes sent also give the next `seq_in_flow`.
    let mut sent = vec![0u64; n_flows];
    let mut calendar: BinaryHeap<Reverse<(Nanos, usize)>> = specs
        .iter()
        .enumerate()
        .filter(|(_, s)| s.size > 0)
        .map(|(i, s)| Reverse((s.start, i)))
        .collect();
    while let Some(mut top) = calendar.peek_mut() {
        let Reverse((at, i)) = *top;
        let FlowSpec { flow, size, .. } = specs[i];
        let remaining = size - sent[i];
        let len = remaining.min(mtu);
        packets.push(
            Packet::new(packets.len() as u64, flow, len as u32, at)
                .with_flow_size(size)
                .with_remaining(remaining)
                .with_attained(sent[i])
                .with_seq_in_flow(sent[i] / mtu),
        );
        sent[i] += len;
        if sent[i] < size {
            top.0 .0 = at + gap;
        } else {
            PeekMut::pop(top);
        }
    }
    (packets, specs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cbr_spacing_is_exact() {
        // 1000 B at 8 Mb/s: 1 ms per packet.
        let mut s = CbrSource::new(
            FlowId(1),
            1_000,
            8_000_000,
            Nanos::ZERO,
            Nanos::from_millis(5),
        );
        let times: Vec<u64> = std::iter::from_fn(|| s.next_packet())
            .map(|p| p.arrival.as_nanos())
            .collect();
        assert_eq!(times, vec![0, 1_000_000, 2_000_000, 3_000_000, 4_000_000]);
    }

    #[test]
    fn cbr_respects_start_and_class() {
        let mut s = CbrSource::new(FlowId(1), 500, 8_000_000, Nanos(100), Nanos(200)).with_class(3);
        let p = s.next_packet().unwrap();
        assert_eq!(p.arrival, Nanos(100));
        assert_eq!(p.class, 3);
    }

    #[test]
    fn poisson_is_seed_deterministic() {
        let a: Vec<u64> = {
            let mut s = PoissonSource::new(FlowId(0), 100, 1e6, Nanos::from_millis(1), 42);
            std::iter::from_fn(|| s.next_packet())
                .map(|p| p.arrival.as_nanos())
                .collect()
        };
        let b: Vec<u64> = {
            let mut s = PoissonSource::new(FlowId(0), 100, 1e6, Nanos::from_millis(1), 42);
            std::iter::from_fn(|| s.next_packet())
                .map(|p| p.arrival.as_nanos())
                .collect()
        };
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn poisson_rate_is_roughly_right() {
        // 1e6 pps over 100 ms ≈ 100_000 packets; allow 5%.
        let mut s = PoissonSource::new(FlowId(0), 100, 1e6, Nanos::from_millis(100), 7);
        let n = std::iter::from_fn(|| s.next_packet()).count();
        assert!((90_000..110_000).contains(&n), "got {n}");
    }

    /// Once exhausted, a Poisson source stays exhausted: a later, shorter
    /// gap must not land before `end` again (its bound counts down to
    /// zero at the first `None`).
    #[test]
    fn poisson_stays_exhausted() {
        let mut s = PoissonSource::new(FlowId(0), 100, 1e6, Nanos::from_micros(50), 3);
        let n = std::iter::from_fn(|| s.next_packet()).count();
        assert!(n > 0);
        assert!((0..10_000).all(|_| s.next_packet().is_none()));
        assert_eq!(s.size_hint(), Some(0));
    }

    #[test]
    fn onoff_bursts_then_idles() {
        let mut s = OnOffSource::new(
            FlowId(0),
            1_000,
            3,
            8_000_000_000, // 1 B/ns -> 1000 ns per packet
            Nanos(10_000),
            Nanos(50_000),
        );
        let times: Vec<u64> = std::iter::from_fn(|| s.next_packet())
            .map(|p| p.arrival.as_nanos())
            .take(6)
            .collect();
        assert_eq!(times, vec![0, 1_000, 2_000, 12_000, 13_000, 14_000]);
    }

    #[test]
    fn merge_sorts_by_time() {
        let a = CbrSource::new(FlowId(0), 100, 8_000_000, Nanos(50), Nanos::from_millis(1));
        let b = CbrSource::new(FlowId(1), 100, 8_000_000, Nanos(0), Nanos::from_millis(1));
        let mut merged = merge(vec![Box::new(a), Box::new(b)]);
        renumber(&mut merged);
        assert!(merged.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        // Ids unique and dense.
        for (i, p) in merged.iter().enumerate() {
            assert_eq!(p.id.0, i as u64);
        }
    }

    #[test]
    fn size_distribution_samples_within_support() {
        let d = SizeDistribution::web_search();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let s = d.sample(&mut rng);
            assert!((1..=20_000_000).contains(&s));
        }
    }

    #[test]
    fn size_distribution_median_sane() {
        // Web-search CDF hits 0.45 at 19KB and 0.60 at 33KB; the median
        // must land between.
        let d = SizeDistribution::web_search();
        let mut rng = StdRng::seed_from_u64(2);
        let mut samples: Vec<u64> = (0..10_001).map(|_| d.sample(&mut rng)).collect();
        samples.sort_unstable();
        let median = samples[samples.len() / 2];
        assert!((19_000..=33_000).contains(&median), "median {median}");
    }

    #[test]
    #[should_panic(expected = "CDF must end at 1.0")]
    fn bad_cdf_rejected() {
        let _ = SizeDistribution::new(vec![(100, 0.5)]);
    }

    #[test]
    fn incast_senders_fire_simultaneously() {
        // 4 senders, 2 packets each, 1000 B at 1 B/ns, every 50 µs.
        let mut s = IncastSource::new(
            FlowId(10),
            4,
            1_000,
            2,
            8_000_000_000,
            Nanos::from_micros(50),
            Nanos::from_micros(120),
        );
        let pkts: Vec<Packet> = std::iter::from_fn(|| s.next_packet()).collect();
        // 3 epochs fit (t = 0, 50 µs, 100 µs) × 4 senders × 2 packets.
        assert_eq!(pkts.len(), 24);
        // First wave: all 4 senders at t=0, then all 4 at t=1000.
        let wave: Vec<(u64, u32)> = pkts[..8]
            .iter()
            .map(|p| (p.arrival.as_nanos(), p.flow.0))
            .collect();
        assert_eq!(
            wave,
            vec![
                (0, 10),
                (0, 11),
                (0, 12),
                (0, 13),
                (1_000, 10),
                (1_000, 11),
                (1_000, 12),
                (1_000, 13),
            ]
        );
        // Epochs repeat at the period.
        assert_eq!(pkts[8].arrival, Nanos::from_micros(50));
        assert!(pkts.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        // Per-sender sequence numbers advance across epochs.
        let f10: Vec<u64> = pkts
            .iter()
            .filter(|p| p.flow.0 == 10)
            .map(|p| p.seq_in_flow)
            .collect();
        assert_eq!(f10, vec![0, 1, 2, 3, 4, 5]);
    }

    /// Every clock-driven source, paused for 2.5 µs after its second
    /// packet, emits the rest of its unpaused stream shifted by exactly
    /// that long: no backlog burst, a second pause does not shift twice,
    /// and a resume without a pause is a no-op.
    #[test]
    fn pause_shifts_every_clock_without_bursting() {
        const RATE: u64 = 8_000_000_000;
        const F: FlowId = FlowId(1);
        const END: Nanos = Nanos::MAX;
        type Make = fn() -> Box<dyn TrafficSource>;
        let sources: [(&str, Make); 4] = [
            ("cbr", || {
                Box::new(CbrSource::new(F, 1_000, RATE, Nanos::ZERO, END))
            }),
            ("on/off", || {
                Box::new(OnOffSource::new(F, 1_000, 3, RATE, Nanos(10_000), END))
            }),
            ("incast", || {
                Box::new(IncastSource::new(F, 2, 1_000, 2, RATE, Nanos(50_000), END))
            }),
            ("markov", || {
                Box::new(MarkovOnOffSource::new(
                    F,
                    1_000,
                    4.0,
                    RATE,
                    Nanos(20_000),
                    END,
                    7,
                ))
            }),
        ];
        const SHIFT: u64 = 2_500;
        let arrivals = |s: &mut dyn TrafficSource, n: usize| -> Vec<u64> {
            (0..n).map(|_| s.next_packet().unwrap().arrival.0).collect()
        };
        for (name, make) in sources {
            let plain = arrivals(&mut *make(), 20);
            let mut s = make();
            let mut got = arrivals(&mut *s, 2);
            s.pause(Nanos(plain[1]));
            s.pause(Nanos(plain[1] + 1_000)); // second pause: no double shift
            s.resume(Nanos(plain[1] + SHIFT));
            got.extend(arrivals(&mut *s, 9));
            s.resume(Nanos(plain[1] + 100_000)); // no pause pending: no shift
            got.extend(arrivals(&mut *s, 9));
            let want: Vec<u64> = plain
                .iter()
                .enumerate()
                .map(|(i, &t)| if i < 2 { t } else { t + SHIFT })
                .collect();
            assert_eq!(got, want, "{name}: the clock shifts by the pause, once");
        }
    }

    #[test]
    fn pause_shifts_the_incast_epoch_grid() {
        let mut s = IncastSource::new(
            FlowId(10),
            2,
            1_000,
            2,
            8_000_000_000,
            Nanos::from_micros(50),
            Nanos::from_micros(200),
        );
        // Drain epoch 0 (2 senders × 2 packets).
        for _ in 0..4 {
            s.next_packet().unwrap();
        }
        s.pause(Nanos::from_micros(10));
        s.resume(Nanos::from_micros(30));
        // Epoch 1 lands 20 µs late, and the intra-epoch grid is intact.
        let p = s.next_packet().unwrap();
        assert_eq!(p.arrival, Nanos::from_micros(70));
        for _ in 0..2 {
            s.next_packet().unwrap();
        }
        assert_eq!(s.next_packet().unwrap().arrival, Nanos(71_000));
    }

    #[test]
    fn default_pause_is_a_noop() {
        // PoissonSource keeps the trait defaults: pausing must not
        // disturb its schedule.
        let run = |pause: bool| {
            let mut s = PoissonSource::new(FlowId(0), 100, 1e6, Nanos::from_micros(100), 42);
            let mut out = Vec::new();
            for i in 0.. {
                if pause && i == 3 {
                    s.pause(Nanos(1));
                    s.resume(Nanos(2));
                }
                match s.next_packet() {
                    Some(p) => out.push(p.arrival.0),
                    None => break,
                }
            }
            out
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn markov_onoff_is_bursty_and_deterministic() {
        let gen = || {
            let mut s = MarkovOnOffSource::new(
                FlowId(0),
                1_000,
                8.0,
                8_000_000_000,
                Nanos::from_micros(20),
                Nanos::from_millis(2),
                99,
            );
            std::iter::from_fn(move || s.next_packet())
                .map(|p| p.arrival.as_nanos())
                .collect::<Vec<u64>>()
        };
        let a = gen();
        assert_eq!(a, gen(), "same seed, same stream");
        assert!(a.len() > 50, "got {}", a.len());
        // Bursty: both back-to-back gaps (line gap = 1000 ns) and long
        // idles must appear.
        let gaps: Vec<u64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(gaps.contains(&1_000), "line-rate gaps inside bursts");
        assert!(gaps.iter().any(|&g| g > 5_000), "idle gaps between bursts");
    }

    #[test]
    fn bounded_pareto_is_heavy_tailed_within_support() {
        let d = SizeDistribution::bounded_pareto(1.2, 1_000, 10_000_000);
        let mut rng = StdRng::seed_from_u64(5);
        let samples: Vec<u64> = (0..20_000).map(|_| d.sample(&mut rng)).collect();
        assert!(samples.iter().all(|&s| (1..=10_000_000).contains(&s)));
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2];
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        // Heavy tail: the mean sits far above the median, and the top
        // percentile reaches deep into the tail.
        assert!(median < 3_000, "median {median} should be near the minimum");
        assert!(mean > 2.0 * median as f64, "mean {mean} vs median {median}");
        assert!(sorted[sorted.len() * 99 / 100] > 40_000);
    }

    #[test]
    fn flow_workload_packets_consistent() {
        let (pkts, specs) = flow_workload(
            20,
            10_000.0,
            &SizeDistribution::web_search(),
            10_000_000_000,
            1_500,
            3,
        );
        assert_eq!(specs.len(), 20);
        // Per-flow totals must match the spec.
        for spec in &specs {
            let total: u64 = pkts
                .iter()
                .filter(|p| p.flow == spec.flow)
                .map(|p| p.length as u64)
                .sum();
            assert_eq!(total, spec.size, "flow {} bytes", spec.flow);
        }
        // remaining must decrease along each flow, ending at last packet len.
        for spec in &specs {
            let mut flow_pkts: Vec<&Packet> = pkts.iter().filter(|p| p.flow == spec.flow).collect();
            flow_pkts.sort_by_key(|p| p.seq_in_flow);
            let mut expect = spec.size;
            for p in flow_pkts {
                assert_eq!(p.remaining, expect);
                assert_eq!(p.flow_size, spec.size);
                expect -= p.length as u64;
            }
            assert_eq!(expect, 0);
        }
    }
}
