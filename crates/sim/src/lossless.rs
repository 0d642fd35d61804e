//! The lossless fabric: PFC-style backpressure instead of drops.
//!
//! §6.2 of the paper names priority flow control pause/resume as a
//! concern the programmable scheduler must absorb; §5.1's shared buffer
//! computes admission from "occupancies of various flows and ports".
//! This module combines both into a closed-loop fabric: instead of
//! letting [`AdmissionPolicy`] *drop*
//! a packet the thresholds reject, a [`LosslessFabric`] **pauses the
//! traffic sources that feed the congested port** and resumes them once
//! the buffer drains — the discipline RDMA-class datacenter fabrics
//! run, where a single lost packet costs a transport-level recovery.
//!
//! # The control loop
//!
//! Per `(port, class)` pair the fabric keeps a two-watermark hysteresis
//! ([`Watermarks`]): when the pair's buffered pressure (packets resident
//! in the port tree plus packets held at ingress) reaches `xoff` — or
//! the pool-side [`SharedPacketPool::would_admit`] probe goes false — a
//! **pause** is asserted; once pressure falls back to `xon` *and* the
//! pool admits again, a **resume** follows. `xon < xoff` keeps the
//! signal from chattering. Pause/resume control frames reach the
//! sources after [`LosslessConfig::wire_delay`]; packets already in
//! flight during that window land in a bounded per-port **headroom
//! (skid) buffer**, sized exactly like a real PFC skid buffer absorbs
//! the round-trip worth of line-rate traffic. Sources receive the
//! signal through [`TrafficSource::pause`]/[`TrafficSource::resume`]:
//! clock-driven sources shift their schedule; oblivious sources keep
//! their timestamps and the fabric simply holds their packets back.
//!
//! Ingress admission into a port tree is gated on the **full port ×
//! flow verdict** ([`SharedPacketPool::would_admit_flow`]): a packet whose
//! flow or port threshold would reject it waits in the skid buffer
//! instead of being dropped, and the resulting pressure is what trips
//! the pause watermark — drops become backpressure.
//!
//! Every port's tree buffers in the switch's **one** shared pool, §5.1's
//! one buffer ([`LosslessFabric::new`] panics, naming the port,
//! otherwise), so port `i` is pool port `i`.
//!
//! # Determinism
//!
//! The driver executes one global event loop in `(time, kind, index)`
//! order — control-frame deliveries before emissions before scheduling
//! rounds at equal instants, lowest index first within a kind. A round
//! shares the [`Switch`] round's rules — each packet admitted at its own
//! arrival instant, `burst` dequeues decided at the round time, sent
//! back-to-back through [`crate::port`]'s one transmit — and adds its own:
//! skid packets enter head-of-line gated, a port with nothing to hop to
//! parks until an emission or another port's progress wakes it (live
//! sources have no known next arrival), and per-class pressure is
//! re-evaluated after each round. All decisions read tree/pool state
//! that is identical across the exact engines, so departure traces *and*
//! the pause/resume event log are bit-identical across backends. The
//! loop runs on the calling thread, with the pool lent to it for the
//! run, and takes no worker count: a lossless fabric is globally coupled
//! through the pause wire, the same serial dependency chain that keeps
//! the ports of one shared pool on one worker in [`Switch::run`], so
//! there are no independent ports to spread.
//!
//! # Faults and the watchdog
//!
//! A [`FaultPlan`] injects the classic lossless-fabric failure modes —
//! dead egress port, slow drain, a pool stuck full, delayed resume
//! frames — and the **pause watchdog** turns what would be a silent
//! hang into a typed [`FabricStall`]: any `(port, class)` pause held
//! longer than [`LosslessConfig::max_pause`], a scheduling-round budget
//! blowout, or a quiescent fabric with packets still trapped
//! (circular wait) stops the run with a diagnosis instead of looping.
//!
//! # The event calendar
//!
//! Choosing the next event costs O(log n) in the source count, not a
//! scan of every source, and the per-event state is indexed by
//! position, not kept in comparison-ordered maps:
//!
//! * the **emission calendar** is a binary heap of `(max(arrival, gate),
//!   source, stamp)` entries. A source owns one valid entry exactly while
//!   it is unblocked with a pending packet, and the valid head is the
//!   next emission. The emitting source is always that head and its next
//!   key is never earlier, so its own emission re-keys the head in place,
//!   or pops it when the source is exhausted or blocks on a pause it can
//!   already see. A pause delivery bumps the stamp of every source it
//!   blocks, which makes their entries stale; a resume delivery pushes a
//!   fresh entry at `max(arrival, gate)`. Stale heads are discarded
//!   before the head is read;
//! * the **pause index** is a heap of `(paused_since, port, class)`
//!   entries pushed where the watermark evaluation asserts a pause. An
//!   entry is stale once its pair is no longer paused since that instant,
//!   and is discarded the same way; the valid head is the pause the
//!   watchdog measures;
//! * **class state** is an array per port indexed by class. A class
//!   exists on a port once it has carried a packet there, and only
//!   existing classes are evaluated against the watermarks and the pool
//!   probe. The source-visible pause is a flag on the same entry;
//! * **round times** are a dense per-port due array, the only record of
//!   a port's next round (`Nanos::MAX` while the port is parked); the
//!   next round is its first minimum. Ports parked on a gated skid head
//!   are woken by other ports' progress, a scan that runs only while
//!   some skid buffer holds a packet.
//!
//! Tuple order *is* the event order: equal instants fall back to the
//! lower source (or port) index, as the `(time, kind, index)` rule
//! demands. Debug builds re-derive both heap heads — next emission,
//! oldest pause — before every event by the definitional scan over all
//! sources and all `(port, class)` pairs, and assert they agree, so
//! every debug test run checks the calendar against its specification;
//! release builds contain no such scan. The next round is read off the
//! due array itself, which no other record shadows.

use crate::port::transmit;
use crate::switch::{PortTrace, Switch, SwitchRun};
use crate::traffic::TrafficSource;
use pifo_core::prelude::*;
use pifo_core::telemetry::NO_NODE;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};
use std::ops::ControlFlow;

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// The two-watermark pause hysteresis: assert pause at `xoff`, release
/// at `xon`, with `xon < xoff` so the signal cannot chatter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watermarks {
    /// Pause when a `(port, class)` pair's pressure reaches this many
    /// packets.
    pub xoff: usize,
    /// Resume once pressure has drained back to this many packets.
    pub xon: usize,
}

impl Watermarks {
    /// Watermarks with `xon < xoff` hysteresis.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < xoff` and `xon < xoff`.
    pub fn new(xoff: usize, xon: usize) -> Self {
        assert!(
            xoff > 0 && xon < xoff,
            "watermarks need 0 < xoff and xon < xoff (got xoff={xoff}, xon={xon})"
        );
        Watermarks { xoff, xon }
    }
}

/// Everything that sizes the lossless control loop. Build with
/// [`LosslessConfig::new`] and adjust with the `with_*` setters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LosslessConfig {
    /// The pause/resume hysteresis per `(port, class)`.
    pub watermarks: Watermarks,
    /// Per-port skid-buffer slots beyond the trees: in-flight packets
    /// that arrive while pause propagates (or whose admission is gated)
    /// wait here. Overflowing the headroom is the only way a lossless
    /// fabric drops, and a correctly sized headroom — at least the
    /// packets a source can emit in one pause round trip — never does.
    pub headroom: usize,
    /// Propagation delay of pause/resume control frames from the switch
    /// to the sources (one way). Zero models an on-die wire.
    pub wire_delay: Nanos,
    /// Watchdog bound: a `(port, class)` pause continuously asserted
    /// longer than this is diagnosed as a [`FabricStall`] instead of
    /// being allowed to wedge the run.
    pub max_pause: Nanos,
    /// Watchdog bound on total scheduling rounds — the formal guarantee
    /// that any run (any fault plan) terminates.
    pub round_budget: u64,
}

impl LosslessConfig {
    /// A config with `Watermarks::new(xoff, xon)`, headroom sized to one
    /// `xoff` worth of packets (min 16), an on-die pause wire, a 10 ms
    /// watchdog, and a 10-million-round budget.
    pub fn new(xoff: usize, xon: usize) -> Self {
        LosslessConfig {
            watermarks: Watermarks::new(xoff, xon),
            headroom: xoff.max(16),
            wire_delay: Nanos::ZERO,
            max_pause: Nanos::from_millis(10),
            round_budget: 10_000_000,
        }
    }

    /// Set the per-port skid-buffer size.
    ///
    /// # Panics
    ///
    /// Panics if `headroom` is zero — a lossless fabric needs somewhere
    /// to put the in-flight packets.
    pub fn with_headroom(mut self, headroom: usize) -> Self {
        assert!(headroom > 0, "headroom must be positive");
        self.headroom = headroom;
        self
    }

    /// Set the pause-frame propagation delay.
    pub fn with_wire_delay(mut self, delay: Nanos) -> Self {
        self.wire_delay = delay;
        self
    }

    /// Set the pause watchdog bound.
    ///
    /// # Panics
    ///
    /// Panics if `max_pause` is zero.
    pub fn with_max_pause(mut self, max_pause: Nanos) -> Self {
        assert!(max_pause > Nanos::ZERO, "max_pause must be positive");
        self.max_pause = max_pause;
        self
    }

    /// Set the scheduling-round budget.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is zero.
    pub fn with_round_budget(mut self, budget: u64) -> Self {
        assert!(budget > 0, "round budget must be positive");
        self.round_budget = budget;
        self
    }

    /// The pool capacity below which `ports` ports could overrun the
    /// buffer even with every pause honored: each port may legitimately
    /// hold up to `xoff` packets in its tree (the pause only asserts at
    /// the watermark) plus a skid buffer of in-flight packets, so a
    /// shared pool of at least `ports × (xoff + headroom)` can never be
    /// forced over capacity by admitted traffic.
    pub fn min_pool_capacity(&self, ports: usize) -> usize {
        ports * (self.watermarks.xoff + self.headroom)
    }
}

// ---------------------------------------------------------------------------
// Faults
// ---------------------------------------------------------------------------

/// Injected faults for robustness testing — the lossless-fabric failure
/// modes a pause watchdog exists to survive. Compose with the chainable
/// constructors; [`FaultPlan::default`] injects nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Ports whose transmitter is dead: they admit and buffer but never
    /// dequeue — the classic PFC head-of-line victim maker.
    pub dead_ports: Vec<usize>,
    /// `(port, k)` pairs: the port drains at `1/k` of the fabric line
    /// rate.
    pub slow_drain: Vec<(usize, u32)>,
    /// From this instant on, the pool admits nothing — as if another
    /// tenant wedged the shared buffer full.
    pub stuck_pool_at: Option<Nanos>,
    /// Extra delay added to **resume** frames only (pause frames stay
    /// prompt) — the asymmetry that turns transient congestion into
    /// pause storms.
    pub resume_delay: Nanos,
}

impl FaultPlan {
    /// No faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Kill `port`'s transmitter.
    pub fn dead_port(mut self, port: usize) -> Self {
        self.dead_ports.push(port);
        self
    }

    /// Drain `port` at `1/k` of the line rate.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn slow_port(mut self, port: usize, k: u32) -> Self {
        assert!(k > 0, "slow-drain factor must be >= 1");
        self.slow_drain.push((port, k));
        self
    }

    /// Wedge the pool full from `at` onward.
    pub fn stuck_pool(mut self, at: Nanos) -> Self {
        self.stuck_pool_at = Some(at);
        self
    }

    /// Delay every resume frame by `delay`.
    pub fn delayed_resume(mut self, delay: Nanos) -> Self {
        self.resume_delay = delay;
        self
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self == &FaultPlan::default()
    }
}

// ---------------------------------------------------------------------------
// Diagnoses and reports
// ---------------------------------------------------------------------------

/// Why a lossless run stalled (see [`FabricStall`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallKind {
    /// A dead egress port is sitting on trapped packets.
    DeadPort {
        /// The dead port.
        port: usize,
    },
    /// The shared pool stopped admitting and never recovered.
    StuckPool,
    /// A pause stayed asserted past the watchdog bound with no dead
    /// port or stuck pool to blame — a pause storm.
    PauseStorm {
        /// The port whose pause exceeded the bound.
        port: usize,
    },
    /// The scheduling-round budget ran out before the fabric drained.
    RoundBudget {
        /// Rounds executed when the budget tripped.
        rounds: u64,
    },
    /// The fabric went quiescent — no deliverable control frame, no
    /// eligible emission, no runnable round — with packets still
    /// trapped: a circular wait between paused sources and gated
    /// ingress.
    CircularWait,
}

/// A typed stall diagnosis: what a lossless fabric reports **instead of
/// hanging** when a fault (or a misconfiguration) makes progress
/// impossible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricStall {
    /// What wedged.
    pub kind: StallKind,
    /// Simulated time of the diagnosis.
    pub at: Nanos,
    /// The longest pause still asserted at the diagnosis instant.
    pub paused_for: Nanos,
}

impl core::fmt::Display for FabricStall {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self.kind {
            StallKind::DeadPort { port } => write!(f, "dead port {port}")?,
            StallKind::StuckPool => write!(f, "stuck pool")?,
            StallKind::PauseStorm { port } => write!(f, "pause storm on port {port}")?,
            StallKind::RoundBudget { rounds } => {
                write!(f, "round budget exhausted after {rounds} rounds")?
            }
            StallKind::CircularWait => write!(f, "circular wait")?,
        }
        write!(
            f,
            " (stalled at {}, longest pause {})",
            self.at, self.paused_for
        )
    }
}

/// Pause or resume, as logged in [`PauseEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PauseAction {
    /// The watermark (or the pool probe) tripped: stop sending.
    Pause,
    /// Pressure drained: send again.
    Resume,
}

/// One switch-side pause-signal transition, logged at the instant the
/// watermark decision was made (frames reach sources `wire_delay`
/// later). The log is deterministic: identical runs produce identical
/// event sequences, across backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PauseEvent {
    /// Decision instant.
    pub time: Nanos,
    /// Egress port asserting the signal.
    pub port: usize,
    /// Priority class the signal covers.
    pub class: u8,
    /// Pause or resume.
    pub action: PauseAction,
}

/// Per-source pause accounting for a lossless run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourcePauseStats {
    /// Pause notifications delivered to this source.
    pub pauses: u64,
    /// Resume notifications delivered to this source.
    pub resumes: u64,
    /// Total time spent paused.
    pub total_paused: Nanos,
    /// The longest single pause.
    pub max_pause: Nanos,
}

/// Everything a [`LosslessFabric`] run produced.
#[derive(Debug)]
pub struct LosslessRun {
    /// The per-port departure traces and misroute counter, exactly like
    /// a [`Switch::run`] (drops here count skid-buffer overflows — zero
    /// on a correctly sized fabric).
    pub run: SwitchRun,
    /// Every switch-side pause/resume transition, in decision order.
    pub pause_events: Vec<PauseEvent>,
    /// The stall diagnosis, if the watchdog stopped the run.
    pub stall: Option<FabricStall>,
    /// Pause accounting per source, indexed like the input sources.
    pub sources: Vec<SourcePauseStats>,
    /// Total switch-side pause-asserted time per port (summed across
    /// classes).
    pub port_paused: Vec<Nanos>,
    /// Peak skid-buffer occupancy per port.
    pub peak_skid: Vec<usize>,
    /// Packets lost to skid-buffer overflow (== `run.total_drops()`).
    pub skid_overflow: u64,
    /// Peak pool occupancy observed across the run.
    pub max_pool_live: usize,
    /// Scheduling rounds executed.
    pub rounds: u64,
    /// The merged telemetry of the run — tree-level trace events plus
    /// synthesized pause/resume/fault events and fabric-level gauges
    /// (`fabric.pool_live`, `fabric.paused_classes`,
    /// `fabric.skid_occupancy`). `None` unless the wrapped switch was
    /// built with [`crate::switch::SwitchBuilder::with_telemetry`].
    pub telemetry: Option<TelemetrySnapshot>,
}

impl LosslessRun {
    /// Total packets transmitted.
    pub fn total_departures(&self) -> usize {
        self.run.total_departures()
    }

    /// Total packets lost anywhere in the fabric (skid overflows; tree
    /// admission is gated, so trees never drop). Zero is the lossless
    /// contract.
    pub fn total_drops(&self) -> u64 {
        self.run.total_drops()
    }

    /// Switch-side pause events of one action kind.
    pub fn count_events(&self, action: PauseAction) -> usize {
        self.pause_events
            .iter()
            .filter(|e| e.action == action)
            .count()
    }
}

// ---------------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------------

/// Per-`(port, class)` pressure and pause state, one entry per class
/// number in [`PortState::classes`].
#[derive(Debug, Default, Clone)]
struct ClassState {
    /// The class has carried a packet to this port. Only such classes
    /// are evaluated for pause; the rest are placeholders below the
    /// highest class seen.
    seen: bool,
    /// Packets of this class resident in the port's tree.
    occ: usize,
    /// Packets of this class waiting in the port's skid buffer.
    skid: usize,
    /// Switch-side pause assertion time, when asserted.
    paused_since: Option<Nanos>,
    /// A pause frame for this pair has reached the sources and its
    /// resume has not.
    visible: bool,
}

/// Per-port driver state (the tree itself stays in the switch; the next
/// round's time is the port's entry in [`Driver::due`]).
#[derive(Default)]
struct PortState {
    /// The transmitter is committed until this instant: arrivals may
    /// wake a parked or idle-hopping port but never rewind one
    /// mid-transmit.
    busy_until: Nanos,
    /// The port's line rate under the slow-drain fault.
    rate: u64,
    trace: PortTrace,
    /// The PFC skid buffer: packets held at ingress, FIFO.
    skid: VecDeque<Packet>,
    /// Per-class pressure/pause state, indexed by class number.
    classes: Vec<ClassState>,
    peak_skid: usize,
    paused_total: Nanos,
}

impl PortState {
    /// Record that `class` has reached this port, growing the class
    /// array to hold it.
    fn mark_seen(&mut self, class: u8) {
        let c = class as usize;
        if c >= self.classes.len() {
            self.classes.resize(c + 1, ClassState::default());
        }
        self.classes[c].seen = true;
    }
}

/// Per-source driver state.
struct SourceState {
    src: Box<dyn TrafficSource>,
    /// The next packet pulled from the source (its head of line).
    next: Option<Packet>,
    /// Classified target of `next`: `Some((port, class))`, or `None`
    /// for a misroute.
    target: Option<(usize, u8)>,
    /// Since when the source-visible pause has covered `next`'s target.
    blocked: Option<Nanos>,
    /// Emissions may not precede this instant (set by resume delivery):
    /// packets stamped earlier are in-flight work released now.
    gate: Nanos,
    /// The calendar entry carrying this stamp is the source's valid one;
    /// blocking bumps it to invalidate the entry in place.
    stamp: u64,
    stats: SourcePauseStats,
}

impl SourceState {
    /// Pull the source's next packet and classify it onto a port of
    /// `switch`.
    fn pull(&mut self, switch: &Switch) {
        self.next = self.src.next_packet();
        self.target = self.next.as_ref().and_then(|p| {
            let port = (switch.classifier)(p);
            (port < switch.ports.len()).then_some((port, p.class))
        });
    }

    /// A pause reaches the source at `now`.
    fn block(&mut self, now: Nanos) {
        self.stamp += 1;
        self.blocked = Some(now);
        self.stats.pauses += 1;
        self.src.pause(now);
    }

    /// Close the source's pause at `now` in its accounting.
    fn unblock(&mut self, now: Nanos) {
        let since = self.blocked.take().expect("only a blocked source unblocks");
        let dur = now.saturating_sub(since);
        self.stats.resumes += 1;
        self.stats.total_paused += dur;
        self.stats.max_pause = self.stats.max_pause.max(dur);
    }
}

/// An emission-calendar entry: `(instant, source, stamp)`, min first.
type EmitEntry = Reverse<(Nanos, usize, u64)>;

/// A pause-index entry: `(paused_since, port, class)`.
type PauseEntry = (Nanos, usize, u8);

/// The emission instant of a source's head packet — its stamp, or the
/// resume gate when that is later. `None` while the source is blocked
/// or exhausted, which is exactly when it has no valid calendar entry.
fn emit_at(s: &SourceState) -> Option<Nanos> {
    match &s.next {
        Some(p) if s.blocked.is_none() => Some(p.arrival.max(s.gate)),
        _ => None,
    }
}

/// The calendar entry of source `si`, if it is eligible.
fn emit_entry(si: usize, s: &SourceState) -> Option<EmitEntry> {
    emit_at(s).map(|t| Reverse((t, si, s.stamp)))
}

/// A stall of `kind` diagnosed at `at`, with how long the oldest pause
/// still asserted had been held by then.
fn stall(kind: StallKind, at: Nanos, oldest_pause: Option<PauseEntry>) -> FabricStall {
    let paused_for = oldest_pause.map_or(Nanos::ZERO, |(since, ..)| at.saturating_sub(since));
    FabricStall {
        kind,
        at,
        paused_for,
    }
}

/// The debug oracle: the heap heads must equal what the definitional
/// scans — the earliest `max(arrival, gate)` over every unblocked source
/// with a packet, the earliest `paused_since` over every `(port, class)`
/// pair, lowest index first — would have chosen. Written out
/// independently of [`emit_at`] on purpose.
#[cfg(debug_assertions)]
fn assert_calendar_heads(
    srcs: &[SourceState],
    ports: &[PortState],
    next_emit: Option<(Nanos, usize)>,
    oldest_pause: Option<PauseEntry>,
) {
    let scanned_emit = srcs
        .iter()
        .enumerate()
        .filter(|(_, s)| s.blocked.is_none())
        .filter_map(|(si, s)| s.next.as_ref().map(|p| (p.arrival.max(s.gate), si)))
        .min();
    assert_eq!(
        next_emit, scanned_emit,
        "emission calendar head disagrees with the scan over all sources"
    );
    let scanned_pause = ports
        .iter()
        .enumerate()
        .flat_map(|(i, ps)| {
            ps.classes
                .iter()
                .enumerate()
                .filter_map(move |(class, cs)| cs.paused_since.map(|since| (since, i, class as u8)))
        })
        .min();
    assert_eq!(
        oldest_pause, scanned_pause,
        "pause index head disagrees with the scan over all (port, class) pairs"
    );
}

/// The next event; variant order is the kind order at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    Control,
    Emit(usize),
    Round(usize),
}

/// One lossless run: the fabric's switch and its pool, lent for the
/// run, and all per-run state. [`step`](Self::step) executes one event.
struct Driver<'a> {
    switch: &'a mut Switch,
    pool: LentPool<'a>,
    cfg: LosslessConfig,
    faults: &'a FaultPlan,
    ports: Vec<PortState>,
    srcs: Vec<SourceState>,
    /// The event calendar (see the module docs): unblocked sources with
    /// a pending packet by emission instant, asserted pauses by
    /// assertion instant, every port's next round time (`Nanos::MAX`:
    /// parked, woken by emissions or by other ports' progress), and the
    /// control frames in flight by delivery instant, then by the index
    /// of the [`PauseEvent`] each carries.
    emit_cal: BinaryHeap<EmitEntry>,
    paused: BinaryHeap<Reverse<PauseEntry>>,
    due: Vec<Nanos>,
    frames: BinaryHeap<Reverse<(Nanos, usize)>>,
    /// `(port, class)` pairs with a pause asserted.
    paused_pairs: usize,
    /// Packets held in all skid buffers together.
    skid_total: usize,
    pause_events: Vec<PauseEvent>,
    misrouted: u64,
    skid_overflow: u64,
    max_pool_live: usize,
    rounds: u64,
    next_id: u64,
    /// The fabric-level gauges' sampling stride: it rides the global
    /// round counter, whose one order keeps the series bit-reproducible.
    sample_every: Option<u64>,
    gauges: [GaugeSeries; 3],
}

impl<'a> Driver<'a> {
    fn new(
        switch: &'a mut Switch,
        pool: &'a SharedPool,
        cfg: LosslessConfig,
        faults: &'a FaultPlan,
        sources: Vec<Box<dyn TrafficSource>>,
    ) -> Self {
        let mut srcs: Vec<SourceState> = sources
            .into_iter()
            .map(|src| {
                let mut s = SourceState {
                    src,
                    next: None,
                    target: None,
                    blocked: None,
                    gate: Nanos::ZERO,
                    stamp: 0,
                    stats: SourcePauseStats::default(),
                };
                s.pull(switch);
                s
            })
            .collect();
        // Size each port's trace, and the path log its tree is handed for
        // the run, once: a port sends at most its sources' held heads
        // plus what those sources can still emit. A port with a source of
        // unknown bound, or whose reservation the allocator refuses,
        // grows them as it fills instead.
        let mut bound: Vec<Option<usize>> = vec![Some(0); switch.ports.len()];
        for s in &mut srcs {
            if let Some((port, _)) = s.target {
                bound[port] = bound[port]
                    .zip(s.src.size_hint())
                    .and_then(|(b, left)| b.checked_add(left)?.checked_add(1));
            }
        }
        let paths = switch.telemetry.is_some_and(|c| c.path_records);
        let ports = (switch.ports.iter_mut().zip(bound).enumerate())
            .map(|(i, (tree, bound))| {
                let (mut ps, mut log) = (PortState::default(), PathLog::new());
                ps.trace.port = i as u16;
                let slow = faults.slow_drain.iter().rev().find(|&&(p, _)| p == i);
                ps.rate = (switch.rate_bps / slow.map_or(1, |&(_, k)| k.max(1)) as u64).max(1);
                if let Some(b) = bound {
                    let _ = ps.trace.departures.try_reserve_exact(b);
                    if paths {
                        let _ = log.try_reserve_exact(b);
                    }
                }
                tree.replace_path_log(log);
                ps
            })
            .collect();
        Driver {
            emit_cal: srcs
                .iter()
                .enumerate()
                .filter_map(|(si, s)| emit_entry(si, s))
                .collect(),
            pool: pool.lend(),
            cfg,
            faults,
            ports,
            srcs,
            paused: BinaryHeap::new(),
            due: vec![Nanos::MAX; switch.ports.len()],
            frames: BinaryHeap::new(),
            paused_pairs: 0,
            skid_total: 0,
            pause_events: Vec::new(),
            misrouted: 0,
            skid_overflow: 0,
            max_pool_live: 0,
            rounds: 0,
            next_id: 0,
            sample_every: switch.telemetry.map(|c| c.sample_every.max(1)),
            gauges: [
                "fabric.pool_live",
                "fabric.paused_classes",
                "fabric.skid_occupancy",
            ]
            .map(GaugeSeries::new),
            switch,
        }
    }

    /// Execute the next event in `(time, kind, index)` order, once the
    /// watchdog has checked it. `Break` ends the run: `None` for a
    /// complete drain, else the stall that stopped it.
    fn step(&mut self) -> ControlFlow<Option<FabricStall>> {
        // Discard stale heads (see the module docs) before reading.
        while let Some(&Reverse((_, si, stamp))) = self.emit_cal.peek() {
            if self.srcs[si].stamp == stamp {
                break;
            }
            self.emit_cal.pop();
        }
        while let Some(&Reverse((since, i, class))) = self.paused.peek() {
            if self.ports[i].classes[class as usize].paused_since == Some(since) {
                break;
            }
            self.paused.pop();
        }
        let next_emit = self.emit_cal.peek().map(|&Reverse((t, si, _))| (t, si));
        let oldest_pause = self.paused.peek().map(|r| r.0);
        let next_round = (self.due.iter().enumerate())
            .min_by_key(|&(_, &t)| t)
            .filter(|&(_, &t)| t < Nanos::MAX)
            .map(|(i, &t)| (t, i));
        #[cfg(debug_assertions)]
        assert_calendar_heads(&self.srcs, &self.ports, next_emit, oldest_pause);
        let pick = [
            self.frames
                .peek()
                .map(|&Reverse((t, _))| (t, Event::Control)),
            next_emit.map(|(t, si)| (t, Event::Emit(si))),
            next_round.map(|(t, i)| (t, Event::Round(i))),
        ]
        .into_iter()
        .flatten()
        .min();

        // The watchdog: the oldest asserted pause must not outlive
        // max_pause before the next event runs.
        if let (Some((since, port, _)), Some((next, _))) = (oldest_pause, pick) {
            let deadline = since + self.cfg.max_pause;
            if next > deadline {
                let kind = if self.faults.dead_ports.contains(&port) {
                    StallKind::DeadPort { port }
                } else if self.faults.stuck_pool_at.is_some_and(|t| deadline >= t) {
                    StallKind::StuckPool
                } else {
                    StallKind::PauseStorm { port }
                };
                return ControlFlow::Break(Some(stall(kind, deadline, oldest_pause)));
            }
        }

        match pick {
            None => return ControlFlow::Break(self.quiescent(oldest_pause)),
            Some((now, Event::Control)) => self.deliver(now),
            Some((now, Event::Emit(si))) => self.emit(now, si),
            Some((now, Event::Round(i))) => {
                // The round budget bounds every run.
                self.rounds += 1;
                if self.rounds > self.cfg.round_budget {
                    let kind = StallKind::RoundBudget {
                        rounds: self.rounds,
                    };
                    return ControlFlow::Break(Some(stall(kind, now, oldest_pause)));
                }
                self.round(now, i);
            }
        }
        ControlFlow::Continue(())
    }

    /// The injected stuck pool admits nothing at `now`.
    fn stuck(&self, now: Nanos) -> bool {
        self.faults.stuck_pool_at.is_some_and(|t| now >= t)
    }

    /// The pool's full port × flow verdict for a packet of `flow` at
    /// port `i` (which is also its pool port).
    fn admits(&self, i: usize, flow: FlowId) -> bool {
        self.pool.would_admit_flow(i, flow)
    }

    /// No deliverable control frame, no eligible emission, no runnable
    /// round: a complete drain, or packets trapped in a wait nothing can
    /// break. The stall is stamped at the watchdog deadline of a pause
    /// still asserted (with no event left it outlives any bound), else at
    /// the last pause-signal decision.
    fn quiescent(&self, oldest_pause: Option<PauseEntry>) -> Option<FabricStall> {
        let trees = &self.switch.ports;
        let trapped = self.skid_total > 0
            || self.srcs.iter().any(|s| s.next.is_some())
            || trees.iter().any(|t| !t.is_empty() || t.shaped_len() > 0);
        if !trapped {
            return None;
        }
        let at = match oldest_pause {
            Some((since, ..)) => since + self.cfg.max_pause,
            None => self.pause_events.last().map_or(Nanos::ZERO, |e| e.time),
        };
        let dead = self.faults.dead_ports.iter().find(|&&p| {
            p < trees.len() && (!trees[p].is_empty() || !self.ports[p].skid.is_empty())
        });
        let kind = match dead {
            Some(&port) => StallKind::DeadPort { port },
            None if self.faults.stuck_pool_at.is_some() => StallKind::StuckPool,
            None => StallKind::CircularWait,
        };
        Some(stall(kind, at, oldest_pause))
    }

    /// Deliver the earliest control frame at `now`: a pause blocks every
    /// unblocked source whose head packet it covers, a resume puts every
    /// blocked one back on the calendar, gated at `now`.
    fn deliver(&mut self, now: Nanos) {
        let Reverse((_, e)) = self.frames.pop().expect("picked control frame");
        let ev = self.pause_events[e];
        // A frame only ever names a pair that paused, so the class exists
        // on the port.
        self.ports[ev.port].classes[ev.class as usize].visible = ev.action == PauseAction::Pause;
        for (si, s) in self.srcs.iter_mut().enumerate() {
            if s.target != Some((ev.port, ev.class)) {
                continue;
            }
            match ev.action {
                PauseAction::Pause if s.blocked.is_none() => s.block(now),
                PauseAction::Resume if s.blocked.is_some() => {
                    s.unblock(now);
                    s.src.resume(now);
                    s.gate = now;
                    // Back on the calendar, no earlier than the gate.
                    self.emit_cal.extend(emit_entry(si, s));
                }
                _ => {}
            }
        }
    }

    /// Emit source `si`'s head packet at `now` (the source heads the
    /// calendar) into its port's tree — if the pool admits it and nothing
    /// is held back ahead of it — else its skid buffer, else lose it to
    /// headroom overflow; wake the port and re-evaluate its pause signal.
    /// Then pull the source's next packet and re-key its entry.
    fn emit(&mut self, now: Nanos, si: usize) {
        let s = &mut self.srcs[si];
        let mut p = s.next.take().expect("eligible emission");
        let target = s.target.take();
        // Stamp the true emission instant (a gated release happens at the
        // gate, not the original stamp) and a globally unique id.
        p.arrival = p.arrival.max(s.gate);
        p.id = PacketId(self.next_id);
        self.next_id += 1;
        if let Some((i, class)) = target {
            self.ports[i].mark_seen(class);
            // Direct admission keeps arrival order: only when nothing is
            // already held back may this packet bypass the skid queue.
            if !self.stuck(now) && self.ports[i].skid.is_empty() && self.admits(i, p.flow) {
                self.enqueue(i, p, now);
            } else if self.ports[i].skid.len() < self.cfg.headroom {
                let ps = &mut self.ports[i];
                ps.classes[class as usize].skid += 1;
                ps.skid.push_back(p);
                ps.peak_skid = ps.peak_skid.max(ps.skid.len());
                self.skid_total += 1;
            } else {
                // Headroom overflow: the one loss mode.
                self.ports[i].trace.drops += 1;
                self.skid_overflow += 1;
            }
            // Wake the port no earlier than its transmitter allows.
            let wake = now.max(self.ports[i].busy_until);
            self.due[i] = self.due[i].min(wake);
            self.eval_pause(i, now);
            // The pool peaks at admission instants: dequeues only lower it.
            self.max_pool_live = self.max_pool_live.max(self.pool.live());
        } else {
            self.misrouted += 1;
        }

        let s = &mut self.srcs[si];
        s.pull(self.switch);
        // The emitter was unblocked: a pause already visible for its next
        // packet blocks it now.
        if let Some((port, class)) = s.target {
            let classes = &self.ports[port].classes;
            if classes.get(class as usize).is_some_and(|cs| cs.visible) {
                s.block(now);
            }
        }
        // Re-key the head in place; a blocked or exhausted source leaves.
        let mut head = self
            .emit_cal
            .peek_mut()
            .expect("the emitter heads the calendar");
        match emit_at(s) {
            Some(t) => head.0 .0 = t,
            None => {
                PeekMut::pop(head);
            }
        }
    }

    /// Enqueue `p` into port `i`'s tree at `at`, counting it against its
    /// class — or as a drop if the tree refuses what the pool admitted
    /// (unknown flow and the like).
    fn enqueue(&mut self, i: usize, p: Packet, at: Nanos) {
        // A path record's enqueue instant is its departure's arrival.
        debug_assert_eq!(at, p.arrival, "port {i} enqueues a packet off its arrival");
        let class = p.class as usize;
        let tree = &mut self.switch.ports[i];
        if tree.enqueue_lent(Some(&mut self.pool), p, at).is_ok() {
            self.ports[i].classes[class].occ += 1;
        } else {
            self.ports[i].trace.drops += 1;
        }
    }

    /// Port `i`'s scheduling round at `now`: admit the skid buffer's
    /// admissible head, decide and transmit up to `burst` dequeues, set
    /// the next round, and re-evaluate the port's pause signal.
    fn round(&mut self, now: Nanos, i: usize) {
        // Admit gated skid packets, oldest first, each at its own arrival
        // instant — stop at the first the pool still refuses
        // (head-of-line, not reorder).
        let stuck = self.stuck(now);
        while let Some(front) = self.ports[i].skid.front() {
            if front.arrival > now || stuck || !self.admits(i, front.flow) {
                break;
            }
            let p = self.ports[i].skid.pop_front().expect("peeked front");
            self.ports[i].classes[p.class as usize].skid -= 1;
            self.skid_total -= 1;
            let at = p.arrival;
            self.enqueue(i, p, at);
        }
        self.max_pool_live = self.max_pool_live.max(self.pool.live());

        // Up to `burst` dequeues decided at `now` (a dead port decides
        // nothing), each leaving the tree for the wire back-to-back at the
        // port's (possibly fault-slowed) line rate.
        let dead = self.faults.dead_ports.contains(&i);
        let burst = if dead { 0 } else { self.switch.burst };
        let (ps, tree) = (&mut self.ports[i], &mut self.switch.ports[i]);
        let (mut t, mut sent) = (now, 0);
        while sent < burst {
            let Some(p) = tree.dequeue_lent(Some(&mut self.pool), now) else {
                break;
            };
            ps.classes[p.class as usize].occ -= 1;
            t = transmit(p, t, ps.rate, &mut ps.trace.departures);
            sent += 1;
        }

        let round_end = if sent == 0 {
            // Idle: hop to the next local cause — a future skid arrival
            // or a shaping release — or park until an emission or another
            // port's progress wakes us (a gated head, arrival <= now,
            // cannot be hopped to: it waits for pool space).
            let next_skid = ps.skid.front().map(|p| p.arrival);
            let next = next_skid.into_iter().chain(tree.next_shaping_event()).min();
            ps.busy_until = now;
            self.due[i] = next.filter(|&t| t > now).unwrap_or(Nanos::MAX);
            now
        } else {
            ps.busy_until = t;
            self.due[i] = t;
            // Progress frees pool space: wake parked ports whose skid
            // heads may now be admissible (none can be parked on one while
            // every skid is empty; this port is not parked).
            if self.skid_total > 0 {
                for (other, due) in self.ports.iter().zip(&mut self.due) {
                    if *due == Nanos::MAX && !other.skid.is_empty() {
                        *due = t.max(other.busy_until);
                    }
                }
            }
            t
        };
        // Re-evaluate the pause signal at the instant the round's effect
        // is complete: the last transmit finish, or the decision time of
        // an idle round.
        self.eval_pause(i, round_end);
        if self.sample_every.is_some_and(|n| self.rounds % n == 0) {
            let [pool, paused, skid] = &mut self.gauges;
            pool.push(round_end, self.pool.live() as u64);
            paused.push(round_end, self.paused_pairs as u64);
            skid.push(round_end, self.skid_total as u64);
        }
    }

    /// The switch-side pause evaluation for port `i` at `now`: compare
    /// every seen class's pressure against the watermarks, and the
    /// pool's port-side probe, and signal each transition.
    fn eval_pause(&mut self, i: usize, now: Nanos) {
        let pool_ok = !self.stuck(now) && self.pool.would_admit(i);
        let Watermarks { xoff, xon } = self.cfg.watermarks;
        for class in 0..self.ports[i].classes.len() {
            let ps = &mut self.ports[i];
            let cs = &mut ps.classes[class];
            let pressure = cs.occ + cs.skid;
            let action = match cs.paused_since {
                _ if !cs.seen => continue,
                None if pressure >= xoff || !pool_ok => {
                    cs.paused_since = Some(now);
                    self.paused.push(Reverse((now, i, class as u8)));
                    self.paused_pairs += 1;
                    PauseAction::Pause
                }
                Some(since) if pressure <= xon && pool_ok => {
                    // Its pause-index entry is stale from here.
                    cs.paused_since = None;
                    self.paused_pairs -= 1;
                    ps.paused_total += now.saturating_sub(since);
                    PauseAction::Resume
                }
                _ => continue,
            };
            let delay = match action {
                PauseAction::Pause => self.cfg.wire_delay,
                PauseAction::Resume => self.cfg.wire_delay + self.faults.resume_delay,
            };
            // The frame carries the logged event: frames leave in
            // decision order at one delivery instant.
            self.frames
                .push(Reverse((now + delay, self.pause_events.len())));
            self.pause_events.push(PauseEvent {
                time: now,
                port: i,
                class: class as u8,
                action,
            });
        }
    }

    /// End the run and report it. A cleanly drained fabric first
    /// resolves any pause still asserted (e.g. one tripped by the very
    /// last round) and closes every source's pause, so the event log
    /// reconciles: every pause has a matching resume or the stall report
    /// explains why not.
    fn finish(mut self, stall: Option<FabricStall>) -> LosslessRun {
        if stall.is_none() {
            let end = self.pause_events.last().map_or(Nanos::ZERO, |e| e.time);
            for (i, ps) in self.ports.iter_mut().enumerate() {
                for (class, cs) in ps.classes.iter_mut().enumerate() {
                    if let Some(since) = cs.paused_since.take() {
                        ps.paused_total += end.saturating_sub(since);
                        self.pause_events.push(PauseEvent {
                            time: end,
                            port: i,
                            class: class as u8,
                            action: PauseAction::Resume,
                        });
                    }
                }
            }
            for s in self.srcs.iter_mut().filter(|s| s.blocked.is_some()) {
                s.unblock(end);
            }
        }
        let traces = (self.ports.iter_mut().zip(self.switch.ports.iter_mut()))
            .map(|(ps, tree)| {
                ps.trace.paths = tree.replace_path_log(PathLog::new());
                std::mem::take(&mut ps.trace)
            })
            .collect();
        let run = SwitchRun {
            ports: traces,
            misrouted: self.misrouted,
        };
        let telemetry = self.switch.telemetry_snapshot(&run).map(|mut snap| {
            // Pause/resume transitions and the stall verdict are driver
            // state, not tree state: synthesize their trace events here,
            // off the hot path.
            let pauses = self.pause_events.iter().map(|e| TraceEvent {
                time: e.time,
                kind: match e.action {
                    PauseAction::Pause => EventKind::Pause,
                    PauseAction::Resume => EventKind::Resume,
                },
                port: e.port as u16,
                node: NO_NODE,
                flow: FlowId(0),
                value: e.class as u64,
                aux: 0,
            });
            let fault = stall.as_ref().map(|s| {
                let (code, port) = match s.kind {
                    StallKind::DeadPort { port } => (0u64, port as u16),
                    StallKind::StuckPool => (1, 0),
                    StallKind::PauseStorm { port } => (2, port as u16),
                    StallKind::RoundBudget { .. } => (3, 0),
                    StallKind::CircularWait => (4, 0),
                };
                TraceEvent {
                    time: s.at,
                    kind: EventKind::Fault,
                    port,
                    node: NO_NODE,
                    flow: FlowId(0),
                    value: code,
                    aux: u32::try_from(s.paused_for.as_nanos()).unwrap_or(u32::MAX),
                }
            });
            for ev in pauses.chain(fault) {
                snap.counts[ev.kind as usize] += 1;
                snap.events_recorded += 1;
                snap.events.push(ev);
            }
            // Stable: at one `(time, port)` the trees' events stay ahead
            // of the fabric's, in recording order.
            snap.sort_events();
            snap.gauges.extend(self.gauges);
            snap
        });
        LosslessRun {
            run,
            pause_events: self.pause_events,
            stall,
            sources: self.srcs.iter().map(|s| s.stats).collect(),
            port_paused: self.ports.iter().map(|p| p.paused_total).collect(),
            peak_skid: self.ports.iter().map(|p| p.peak_skid).collect(),
            skid_overflow: self.skid_overflow,
            max_pool_live: self.max_pool_live,
            rounds: self.rounds,
            telemetry,
        }
    }
}

/// A [`Switch`] driven closed-loop: watermark-triggered PFC pause and
/// resume to the traffic sources instead of admission drops. Build the
/// switch on one shared pool (under
/// [`AdmissionPolicy::PortFlow`](pifo_core::pool::AdmissionPolicy) for
/// the intended configuration), wrap it, and [`run`](Self::run) it
/// against live [`TrafficSource`]s.
pub struct LosslessFabric {
    switch: Switch,
    cfg: LosslessConfig,
}

impl LosslessFabric {
    /// Wrap `switch` in the lossless control loop under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics, naming the first port that does not, unless every port's
    /// tree buffers in the switch's shared pool — §5.1's one buffer, the
    /// pool [`LosslessConfig::min_pool_capacity`] sizes (build the
    /// switch with `SwitchBuilder::with_shared_pool` and
    /// `add_shared_port`).
    pub fn new(switch: Switch, cfg: LosslessConfig) -> Self {
        assert!(
            switch.shared == switch.ports.len(),
            "LosslessFabric::new: port {} does not buffer in the fabric's one shared pool",
            switch.shared
        );
        LosslessFabric { switch, cfg }
    }

    /// The wrapped switch (tree/pool inspection after a run).
    pub fn switch(&self) -> &Switch {
        &self.switch
    }

    /// The control-loop configuration.
    pub fn config(&self) -> &LosslessConfig {
        &self.cfg
    }

    /// Run `sources` through the fabric under `faults`
    /// ([`FaultPlan::default`] injects none).
    ///
    /// Sources are polled lazily — a paused source is simply not asked
    /// for packets — and every decision happens in one deterministic
    /// global `(time, kind, index)` event order: control-frame
    /// deliveries, then emissions, then scheduling rounds at equal
    /// times, index-ordered within a kind. That order is sequential by
    /// nature — the pause wire couples every port, see the module docs.
    ///
    /// Each port's departure trace is allocated once, sized from what
    /// its sources can still send ([`TrafficSource::size_hint`]); a
    /// source without a bound makes its port's trace grow as it fills.
    ///
    /// # Panics
    ///
    /// Panics, naming the port and its backlog, if a port's tree still
    /// holds packets (a stalled earlier run leaves them):
    /// the run's per-class pressure starts from empty trees.
    pub fn run(&mut self, sources: Vec<Box<dyn TrafficSource>>, faults: FaultPlan) -> LosslessRun {
        for (i, tree) in self.switch.ports.iter().enumerate() {
            assert!(
                tree.is_empty() && tree.shaped_len() == 0,
                "LosslessFabric::run: port {i}'s tree still holds {} packets ({} shaped) \
                 from an earlier run; a lossless run starts from empty trees",
                tree.len(),
                tree.shaped_len()
            );
        }
        let pool = self
            .switch
            .pool
            .clone()
            .expect("every port buffers in the pool");
        let mut driver = Driver::new(&mut self.switch, &pool, self.cfg, &faults, sources);
        loop {
            if let ControlFlow::Break(stall) = driver.step() {
                return driver.finish(stall);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::switch::SwitchBuilder;
    use crate::traffic::CbrSource;
    use pifo_algos::Stfq;
    use pifo_core::pool::{AdmissionPolicy, Threshold};

    fn lossless_switch(ports: usize, capacity: usize, xoff: usize, headroom: usize) -> Switch {
        let mut sb = SwitchBuilder::new(8_000_000_000); // 1 B/ns
        sb.with_shared_pool(
            capacity,
            AdmissionPolicy::PortFlow {
                port: Threshold::Static(xoff + headroom),
                flow: Threshold::Unlimited,
            },
        );
        for _ in 0..ports {
            sb.add_shared_port(|h| {
                let mut b = TreeBuilder::new();
                let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
                b.build_in_pool(Box::new(move |_| root), h).unwrap()
            });
        }
        sb.build(Box::new(move |p: &Packet| p.flow.0 as usize % ports))
    }

    /// An overdriven port pauses its source, resumes it, and loses
    /// nothing.
    #[test]
    fn overload_pauses_then_drains_without_loss() {
        // One port at 8 Gb/s fed 2× line rate: queue must grow, trip
        // xoff, pause the source, drain, resume.
        let cfg = LosslessConfig::new(16, 4).with_headroom(64);
        let switch = lossless_switch(1, 128, 16, 64);
        let mut fabric = LosslessFabric::new(switch, cfg);
        let src = CbrSource::new(
            FlowId(0),
            1_000,
            16_000_000_000,
            Nanos::ZERO,
            Nanos(400_000),
        );
        let run = fabric.run(vec![Box::new(src)], FaultPlan::none());

        assert!(run.stall.is_none(), "no stall: {:?}", run.stall);
        assert_eq!(run.total_drops(), 0, "lossless");
        assert!(run.total_departures() > 0);
        assert!(
            run.count_events(PauseAction::Pause) > 0,
            "2x overload must pause"
        );
        assert_eq!(
            run.count_events(PauseAction::Pause),
            run.count_events(PauseAction::Resume),
            "every pause resolved"
        );
        assert_eq!(run.sources[0].pauses, run.sources[0].resumes);
        assert!(run.sources[0].total_paused > Nanos::ZERO);
        assert!(run.port_paused[0] > Nanos::ZERO);
    }

    /// Four sources sharing two ports at 1.5x line rate get paused, and
    /// the fabric loses nothing and never stalls.
    #[test]
    fn shared_ports_pause_without_loss() {
        let cfg = LosslessConfig::new(12, 4).with_headroom(32);
        let switch = lossless_switch(2, 128, 12, 32);
        let mut fabric = LosslessFabric::new(switch, cfg);
        let sources: Vec<Box<dyn TrafficSource>> = (0..4)
            .map(|f| {
                Box::new(CbrSource::new(
                    FlowId(f),
                    1_000,
                    6_000_000_000,
                    Nanos(f as u64 * 10),
                    Nanos(200_000),
                )) as Box<dyn TrafficSource>
            })
            .collect();
        let run = fabric.run(sources, FaultPlan::none());
        assert!(run.stall.is_none());
        assert_eq!(run.total_drops(), 0);
        assert!(
            run.count_events(PauseAction::Pause) > 0,
            "1.5x overload must pause"
        );
    }

    /// A dead port under load is diagnosed, not hung.
    #[test]
    fn dead_port_yields_typed_stall() {
        let cfg = LosslessConfig::new(8, 2)
            .with_headroom(16)
            .with_max_pause(Nanos::from_micros(100));
        let switch = lossless_switch(2, 64, 8, 16);
        let mut fabric = LosslessFabric::new(switch, cfg);
        let sources: Vec<Box<dyn TrafficSource>> = (0..2)
            .map(|f| {
                Box::new(CbrSource::new(
                    FlowId(f),
                    1_000,
                    8_000_000_000,
                    Nanos::ZERO,
                    Nanos(500_000),
                )) as Box<dyn TrafficSource>
            })
            .collect();
        let run = fabric.run(sources, FaultPlan::none().dead_port(0));
        let stall = run.stall.expect("dead port under load must stall");
        assert_eq!(stall.kind, StallKind::DeadPort { port: 0 });
        // Port 1 kept transmitting — the fault is contained.
        assert!(!run.run.ports[1].departures.is_empty());
    }

    /// A lossless fabric is one shared buffer: a port that owns its pool
    /// is refused, by name.
    #[test]
    #[should_panic(expected = "port 2 does not buffer in the fabric's one shared pool")]
    fn private_pool_port_rejected() {
        let mut sb = SwitchBuilder::new(8_000_000_000);
        sb.with_shared_pool(64, AdmissionPolicy::Unlimited);
        let stfq = |b: &mut TreeBuilder| b.add_root("stfq", Box::new(Stfq::unweighted()));
        for _ in 0..2 {
            sb.add_shared_port(|h| {
                let mut b = TreeBuilder::new();
                let root = stfq(&mut b);
                b.build_in_pool(Box::new(move |_| root), h).unwrap()
            });
        }
        let mut b = TreeBuilder::new();
        let root = stfq(&mut b);
        sb.add_port(b.build(Box::new(move |_| root)).unwrap());
        let switch = sb.build(Box::new(|p: &Packet| p.flow.0 as usize % 3));
        let _ = LosslessFabric::new(switch, LosslessConfig::new(8, 2));
    }

    /// Config invariants hold and are enforced.
    #[test]
    #[should_panic(expected = "xon < xoff")]
    fn inverted_watermarks_rejected() {
        let _ = Watermarks::new(4, 4);
    }

    #[test]
    fn min_pool_capacity_math() {
        let cfg = LosslessConfig::new(64, 16).with_headroom(32);
        assert_eq!(cfg.min_pool_capacity(16), 16 * (64 + 32));
    }
}
