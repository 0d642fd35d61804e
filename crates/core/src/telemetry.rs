//! Fabric-wide telemetry: flight-recorder event tracing, per-packet
//! path records, and time-series gauges.
//!
//! The paper's evaluation (§7) judges schedulers by what happens *inside*
//! the fabric — queue depths, admission verdicts, pause storms, rank
//! inversions — not only by the departure trace. This module provides the
//! three observability primitives the rest of the workspace hooks into:
//!
//! * [`FlightRecorder`] — a fixed-capacity ring buffer of compact `Copy`
//!   [`TraceEvent`]s (enqueue, dequeue, drop, shaping park/release,
//!   pause/resume, pool alloc/free, fault), stamped with sim time and
//!   source. Recording is O(1) and allocation-free; the recorder is
//!   `Option`-gated at every hook site, so a disabled recorder costs one
//!   pointer-null branch on the hot path and nothing else.
//! * [`PathLog`] — INT-style per-packet digests: an opt-in mode where
//!   each packet accumulates a bounded list of [`PathHop`]s (node, rank,
//!   queue depth seen at enqueue, entry time). A finished digest is
//!   written once, when its packet leaves the tree, straight into the
//!   caller's [`PathLog`], which keeps only the hops: one arena of them
//!   and a four-byte end word per record. A record digests the departure
//!   at its own index, and everything else it reports (packet, flow,
//!   enqueue and departure instants) is that departure's: `pifo-sim`'s
//!   `PortTrace::path` joins the two. A fabric hands each port's log to
//!   its tree for the length of a run and takes it back at the end. A
//!   record in flight is staged by the port's tree, whose staging grows
//!   with the packets the port holds, not with the pool's slot count.
//! * [`GaugeSeries`] — named time series of sampled counters (per-port
//!   queue depth, pool occupancy, free-list length, paused-class count,
//!   inversion counters), assembled by the simulation layer.
//!
//! A run's telemetry is packaged as a [`TelemetrySnapshot`] with a
//! stable, serde-free JSON export ([`TelemetrySnapshot::to_json`], schema
//! tag `pifo-telemetry-v1`).
//!
//! # Determinism contract
//!
//! Telemetry observes; it never steers. Enabling any mode leaves
//! departure traces bit-identical (asserted in
//! `tests/telemetry_determinism.rs`), and every worker count of
//! `Switch::run` runs the same per-packet tree calls in the same per-port
//! order, so the event stream itself is byte-reproducible for a seeded
//! run at any worker count.

use crate::packet::FlowId;
use crate::time::Nanos;
use std::fmt::Write as _;

/// Sentinel for [`TraceEvent::node`] when the event has no tree node
/// (e.g. a drop whose classifier target was out of range, or a
/// fabric-level pause frame).
pub const NO_NODE: u32 = u32::MAX;

/// What happened. Each kind documents how it uses the two payload words
/// [`TraceEvent::value`] and [`TraceEvent::aux`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// A packet was admitted and pushed into its leaf PIFO.
    /// `value` = leaf rank, `aux` = leaf queue depth seen at enqueue.
    Enqueue = 0,
    /// A packet left the tree. `value` = the popped leaf rank,
    /// `aux` = packets remaining buffered after this dequeue.
    Dequeue = 1,
    /// A packet was rejected before entering any queue.
    /// `value` = packet id, `aux` = reason ([`drop_reason`] codes).
    Drop = 2,
    /// A shaping transaction parked a walk on the agenda (Fig 5).
    /// `value` = release time (ns), `aux` = buffer slot.
    ShapingPark = 3,
    /// A parked walk resumed. `value` = scheduled release time (ns),
    /// `aux` = buffer slot.
    ShapingRelease = 4,
    /// PFC pause asserted. `value` = traffic class.
    Pause = 5,
    /// PFC pause released. `value` = traffic class.
    Resume = 6,
    /// A packet-pool slot was claimed. `value` = slot index.
    PoolAlloc = 7,
    /// A packet-pool slot was returned. `value` = slot index.
    PoolFree = 8,
    /// A fabric fault / watchdog verdict. `value` = fault code,
    /// `aux` = how long the victim was paused (ns, saturating at
    /// `u32::MAX`).
    Fault = 9,
}

impl EventKind {
    /// Number of distinct kinds (array-sizing constant).
    pub const COUNT: usize = 10;

    /// Every kind, in discriminant order.
    pub const ALL: [EventKind; EventKind::COUNT] = [
        EventKind::Enqueue,
        EventKind::Dequeue,
        EventKind::Drop,
        EventKind::ShapingPark,
        EventKind::ShapingRelease,
        EventKind::Pause,
        EventKind::Resume,
        EventKind::PoolAlloc,
        EventKind::PoolFree,
        EventKind::Fault,
    ];

    /// Stable lowercase label (used by the JSON export).
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Enqueue => "enqueue",
            EventKind::Dequeue => "dequeue",
            EventKind::Drop => "drop",
            EventKind::ShapingPark => "shaping_park",
            EventKind::ShapingRelease => "shaping_release",
            EventKind::Pause => "pause",
            EventKind::Resume => "resume",
            EventKind::PoolAlloc => "pool_alloc",
            EventKind::PoolFree => "pool_free",
            EventKind::Fault => "fault",
        }
    }
}

/// Reason codes carried in [`EventKind::Drop`]'s `aux` word.
pub mod drop_reason {
    /// The shared packet buffer (or its admission policy) rejected the
    /// packet.
    pub const BUFFER_FULL: u32 = 0;
    /// The classifier returned a node outside the tree.
    pub const UNKNOWN_NODE: u32 = 1;
    /// The classifier returned an interior node.
    pub const NOT_A_LEAF: u32 = 2;
}

/// One compact, `Copy` trace event: what happened, when, and where.
///
/// Exactly 32 bytes — two per cache line — so the recorder's ring write
/// stays cheap; the per-kind meaning of `value`/`aux` is documented on
/// [`EventKind`]. `aux` is the narrow payload word (depths, remaining
/// counts, slots, reason codes all fit 32 bits; the one wide quantity,
/// a fault's pause duration, is saturated).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation time the event was recorded at.
    pub time: Nanos,
    /// What happened.
    pub kind: EventKind,
    /// Source port: the pool port of the tree that recorded it, which a
    /// fabric's snapshot renames to the fabric port (pause/fault events
    /// carry the fabric port from the start).
    pub port: u16,
    /// Source tree node, or [`NO_NODE`].
    pub node: u32,
    /// The flow involved (zero when the event has no flow).
    pub flow: FlowId,
    /// First payload word (see [`EventKind`]).
    pub value: u64,
    /// Second payload word, 32-bit (see [`EventKind`]).
    pub aux: u32,
}

// The 32-byte layout is a perf contract, not an accident: the overhead
// bench budgets ring writes at two events per cache line.
const _: () = assert!(std::mem::size_of::<TraceEvent>() == 32);

/// A fixed-capacity ring buffer of [`TraceEvent`]s — the flight recorder.
///
/// Capacity is rounded up to a power of two so the hot-path write is an
/// index mask, one store, and two counter increments. Once full, the
/// oldest events are overwritten ([`FlightRecorder::overwritten`] counts
/// how many); per-kind totals keep counting regardless.
///
/// ```
/// use pifo_core::telemetry::{EventKind, FlightRecorder, TraceEvent, NO_NODE};
/// use pifo_core::prelude::*;
///
/// let mut fr = FlightRecorder::new(8);
/// for i in 0..10u64 {
///     fr.record(TraceEvent {
///         time: Nanos(i),
///         kind: EventKind::Enqueue,
///         port: 0,
///         node: NO_NODE,
///         flow: FlowId(0),
///         value: i,
///         aux: 0,
///     });
/// }
/// assert_eq!(fr.total_recorded(), 10);
/// assert_eq!(fr.overwritten(), 2);
/// let kept: Vec<u64> = fr.iter().map(|e| e.value).collect();
/// assert_eq!(kept, (2..10).collect::<Vec<_>>(), "oldest overwritten first");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecorder {
    /// Pre-filled at construction so the hot-path write is a plain
    /// masked store — no branch, no growth.
    buf: Box<[TraceEvent]>,
    mask: usize,
    total: u64,
    counts: [u64; EventKind::COUNT],
}

impl FlightRecorder {
    /// A recorder retaining the most recent `capacity` events (rounded up
    /// to a power of two, minimum 8). The ring is allocated up front so
    /// recording never allocates.
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        let zero = TraceEvent {
            time: Nanos(0),
            kind: EventKind::Enqueue,
            port: 0,
            node: NO_NODE,
            flow: FlowId(0),
            value: 0,
            aux: 0,
        };
        FlightRecorder {
            buf: vec![zero; cap].into_boxed_slice(),
            mask: cap - 1,
            total: 0,
            counts: [0; EventKind::COUNT],
        }
    }

    /// Record one event: O(1), allocation-free, branch-free.
    #[inline]
    pub fn record(&mut self, ev: TraceEvent) {
        self.counts[ev.kind as usize] += 1;
        self.buf[self.total as usize & self.mask] = ev;
        self.total += 1;
    }

    /// Events currently retained in the ring.
    pub fn len(&self) -> usize {
        (self.total as usize).min(self.buf.len())
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Ring capacity (power of two).
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Total events ever recorded, including overwritten ones.
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Events lost to ring wraparound.
    pub fn overwritten(&self) -> u64 {
        self.total - self.len() as u64
    }

    /// Lifetime count of events of `kind` (survives wraparound).
    pub fn count(&self, kind: EventKind) -> u64 {
        self.counts[kind as usize]
    }

    /// All lifetime per-kind counts, indexed by discriminant.
    pub fn counts(&self) -> &[u64; EventKind::COUNT] {
        &self.counts
    }

    /// Retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> + '_ {
        let n = self.len();
        let start = if self.total as usize > n {
            self.total as usize & self.mask
        } else {
            0
        };
        (0..n).map(move |i| &self.buf[(start + i) & self.mask])
    }

    /// Retained events, oldest first, as an owned vector.
    pub fn to_vec(&self) -> Vec<TraceEvent> {
        self.iter().copied().collect()
    }
}

fn write_event_json(s: &mut String, ev: &TraceEvent) {
    let _ = write!(
        s,
        "  {{\"t\": {}, \"kind\": \"{}\", \"port\": {}, \"node\": {}, \"flow\": {}, \
         \"value\": {}, \"aux\": {}}}",
        ev.time.as_nanos(),
        ev.kind.label(),
        ev.port,
        if ev.node == NO_NODE {
            -1
        } else {
            ev.node as i64
        },
        ev.flow.0,
        ev.value,
        ev.aux,
    );
}

/// Maximum hops retained per packet in a path record; deeper walks set
/// the record's truncation flag. Eight levels is far beyond any
/// scheduling hierarchy in the paper (Fig 3 is two levels).
pub const MAX_PATH_HOPS: usize = 8;

/// One hop of a packet's enqueue walk: which node ranked it, the rank it
/// got, and the queue depth it found there.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathHop {
    /// The tree node this hop's element was pushed into.
    pub node: u32,
    /// The rank the node's scheduling transaction assigned.
    pub rank: u64,
    /// Scheduling-PIFO depth observed just before the push.
    pub depth: u32,
    /// When the element entered the node's PIFO.
    pub entered: Nanos,
}

// Like `TraceEvent`'s, this layout is a perf contract: a one-hop packet
// costs the log 28 bytes, its hop and its end word.
const _: () = assert!(std::mem::size_of::<PathHop>() == 24);

/// The bit of a record's end word (and of a staged record's hop count)
/// that marks a walk with more hops than were kept.
const TRUNCATED: u32 = 1 << 31;

/// Completed path records in departure order: the hops each packet's
/// enqueue walk took, in one arena, and one four-byte word per record
/// saying where its hops end (its high bit set when the walk was
/// truncated). Record `i` digests the `i`-th packet its tree dequeued;
/// who that packet was and when it entered and left the tree are its
/// departure's, so a log keeps none of it — `pifo-sim`'s
/// `PortTrace::path` joins the two.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathLog {
    hops: Vec<PathHop>,
    /// Record `i`'s hops are `hops[ends[i - 1]..ends[i]]` (from 0 for the
    /// first), each end read without its `TRUNCATED` bit.
    ends: Vec<u32>,
}

impl PathLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty log with room for `records` records. The tree it is
    /// handed to adds room for their hops (see
    /// [`ScheduleTree::replace_path_log`](crate::tree::ScheduleTree::replace_path_log)).
    pub fn with_capacity(records: usize) -> Self {
        PathLog {
            hops: Vec::new(),
            ends: Vec::with_capacity(records),
        }
    }

    /// Reserve room for `records` more records, allocating exactly that,
    /// or report that the allocator refused (the log stays usable and
    /// grows as it fills).
    pub fn try_reserve_exact(
        &mut self,
        records: usize,
    ) -> Result<(), std::collections::TryReserveError> {
        self.ends.try_reserve_exact(records)
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when the log holds no record.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Record `i`'s hops, leaf first, and whether its walk had more hops
    /// than were kept; `None` past the end.
    pub fn get(&self, i: usize) -> Option<(&[PathHop], bool)> {
        let end = *self.ends.get(i)?;
        let start = i.checked_sub(1).map_or(0, |j| self.ends[j] & !TRUNCATED);
        let hops = &self.hops[start as usize..(end & !TRUNCATED) as usize];
        Some((hops, end & TRUNCATED != 0))
    }

    /// The records the log has room for without growing: what a driver
    /// presized it to.
    pub(crate) fn record_capacity(&self) -> usize {
        self.ends.capacity()
    }

    /// Room for `hops` more hops, if the allocator grants it.
    pub(crate) fn reserve_hops(&mut self, hops: usize) {
        let _ = self.hops.try_reserve_exact(hops);
    }

    /// Append one record: its walk's `hops` and `truncated` flag.
    fn push(&mut self, hops: &[PathHop], truncated: bool) {
        self.hops.extend_from_slice(hops);
        let end = u32::try_from(self.hops.len())
            .ok()
            .filter(|&end| end < TRUNCATED)
            .expect("a path log holds fewer than 2³¹ hops");
        self.ends
            .push(if truncated { end | TRUNCATED } else { end });
    }
}

/// The mark of a pool slot with no record in flight, and the end of the
/// free-stage list.
const NO_STAGE: u32 = u32::MAX;

/// Accumulates the hops of in-flight packets' path records, keyed by
/// their packet-pool slot, and appends each record to the caller's
/// [`PathLog`] when its packet is dequeued, so a log holds its records in
/// departure order.
///
/// A record is staged in a dense array that grows only to the most
/// records this recorder has had in flight at once (its port's peak
/// occupancy); a slot reaches its stage through a four-byte index. A
/// tree on a fabric-wide shared pool therefore pays four bytes per pool
/// slot it has used, not a whole staged record. A stage is one word, the
/// record's hop count and truncation flag, plus as many hops as its tree
/// is tall (at most [`MAX_PATH_HOPS`]): a walk visits each node from its
/// leaf to the root once. A tree sizes its recorder's staging once per
/// run, from the path log the run hands it (see
/// [`ScheduleTree::replace_path_log`](crate::tree::ScheduleTree::replace_path_log)).
///
/// `hop` and `finish` are no-ops for slots with no record in flight, so
/// hook sites never need to know whether a given walk belongs to a
/// tracked packet (e.g. shaping resumptions whose packet already
/// departed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PathRecorder {
    /// Pool slot → its record's stage, or `NO_STAGE`.
    stage_of: Vec<u32>,
    /// Stage → the hop count of the record staged there, with its
    /// `TRUNCATED` bit; while the stage is free, the next free stage.
    staged: Vec<u32>,
    /// Stage `s`'s hops, at `s * stride..`. Past the record's hop count
    /// they are whatever the stage's previous occupants left.
    hops: Vec<PathHop>,
    /// Hops kept per record.
    stride: usize,
    /// The last stage whose record finished: free stages are reused
    /// last-freed first.
    free: u32,
}

impl PathRecorder {
    /// An empty recorder for a tree `height` levels tall: no walk takes
    /// more hops than that, so a stage keeps `height` of them (at least
    /// one, at most [`MAX_PATH_HOPS`]).
    pub(crate) fn for_height(height: usize) -> Self {
        PathRecorder {
            stage_of: Vec::new(),
            staged: Vec::new(),
            hops: Vec::new(),
            stride: height.clamp(1, MAX_PATH_HOPS),
            free: NO_STAGE,
        }
    }

    /// Hops kept per record: the most a log of `n` records needs is `n`
    /// times this.
    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    /// Reserve (not fill) room for `records` records in flight on pool
    /// slots below `records`, so a run within that never grows the
    /// staging while it runs.
    pub(crate) fn reserve(&mut self, records: usize) {
        let more = |len: usize| records.saturating_sub(len);
        self.stage_of.reserve_exact(more(self.stage_of.len()));
        self.staged.reserve_exact(more(self.staged.len()));
        self.hops
            .reserve_exact(more(self.staged.len()).saturating_mul(self.stride));
    }

    /// Start a record for the packet admitted into pool slot `slot`, with
    /// no hops yet. The stage's hop storage is reused as is.
    pub(crate) fn begin(&mut self, slot: usize) {
        if slot >= self.stage_of.len() {
            self.stage_of.resize(slot + 1, NO_STAGE);
        }
        let stage = match self.stage_of[slot] {
            NO_STAGE => match self.free {
                NO_STAGE => {
                    self.staged.push(0);
                    let hops = self.hops.len() + self.stride;
                    self.hops.resize(hops, PathHop::default());
                    u32::try_from(self.staged.len() - 1).expect("fewer than 2³² records in flight")
                }
                stage => {
                    self.free = self.staged[stage as usize];
                    stage
                }
            },
            stage => stage,
        };
        self.stage_of[slot] = stage;
        self.staged[stage as usize] = 0;
    }

    /// The stage of slot `slot`'s record in flight, if any.
    #[inline]
    fn stage(&self, slot: usize) -> Option<u32> {
        self.stage_of.get(slot).copied().filter(|&s| s != NO_STAGE)
    }

    /// Append a hop to slot `slot`'s record (no-op when untracked; sets
    /// the truncation flag past [`MAX_PATH_HOPS`], which a tree's walks
    /// never reach below that height).
    pub(crate) fn hop(&mut self, slot: usize, node: u32, rank: u64, depth: u32, entered: Nanos) {
        let Some(stage) = self.stage(slot) else {
            return;
        };
        let word = &mut self.staged[stage as usize];
        let n = (*word & !TRUNCATED) as usize;
        if n < self.stride {
            self.hops[stage as usize * self.stride + n] = PathHop {
                node,
                rank,
                depth,
                entered,
            };
            *word += 1;
        } else {
            *word |= TRUNCATED;
        }
    }

    /// Close slot `slot`'s record and append its hops to `log` (no-op
    /// when untracked).
    pub(crate) fn finish(&mut self, slot: usize, log: &mut PathLog) {
        let Some(stage) = self.stage(slot) else {
            return;
        };
        self.stage_of[slot] = NO_STAGE;
        let word = self.staged[stage as usize];
        let first = stage as usize * self.stride;
        let n = (word & !TRUNCATED) as usize;
        log.push(&self.hops[first..first + n], word & TRUNCATED != 0);
        self.staged[stage as usize] = self.free;
        self.free = stage;
    }
}

/// One sample of a gauge: `(time, value)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugePoint {
    /// Sample instant.
    pub time: Nanos,
    /// Sampled value.
    pub value: u64,
}

/// A named time series of [`GaugePoint`]s (e.g. `"port3.depth"`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GaugeSeries {
    /// Series name, stable across runs (used as the JSON key).
    pub name: String,
    /// Samples in time order.
    pub points: Vec<GaugePoint>,
}

impl GaugeSeries {
    /// An empty series called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        GaugeSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Append one sample.
    pub fn push(&mut self, time: Nanos, value: u64) {
        self.points.push(GaugePoint { time, value });
    }
}

/// How much telemetry a run collects: a [`FlightRecorder`] of
/// [`RING_CAPACITY`](Self::RING_CAPACITY) events per tree always, path
/// records and the gauge stride as set here. Passed to the simulation
/// layer (e.g. `SwitchBuilder::with_telemetry` in `pifo-sim`), which
/// turns it on for each tree with `ScheduleTree::enable_telemetry`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Also collect per-packet path records into a [`PathLog`] per port
    /// (the most expensive mode).
    pub path_records: bool,
    /// Sample gauges every this many scheduling rounds.
    pub sample_every: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            path_records: false,
            sample_every: 16,
        }
    }
}

impl TelemetryConfig {
    /// Flight-recorder ring capacity per tree. Sized so a diagnostic
    /// window survives while the ring's working set stays cache-resident:
    /// at one enqueue + one dequeue + two pool events per packet, 256
    /// retains the last ~64 packets per port in 8 KiB. Larger rings keep
    /// more history but cost throughput — the hot loop streams writes
    /// over the whole ring.
    pub const RING_CAPACITY: usize = 256;

    /// Default config plus per-packet path records.
    pub fn with_paths() -> Self {
        TelemetryConfig {
            path_records: true,
            ..TelemetryConfig::default()
        }
    }
}

/// A run's merged telemetry: lifetime event counts, the retained event
/// stream (deterministically ordered by `(time, port, per-port index)`),
/// and every gauge series.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Total events recorded across all sources (including overwritten).
    pub events_recorded: u64,
    /// Lifetime per-kind counts, indexed by [`EventKind`] discriminant.
    pub counts: [u64; EventKind::COUNT],
    /// Retained events, merged and deterministically ordered.
    pub events: Vec<TraceEvent>,
    /// All gauge series.
    pub gauges: Vec<GaugeSeries>,
}

impl TelemetrySnapshot {
    /// Lifetime count of `kind` events.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.counts[kind as usize]
    }

    /// Merge another source's recorder into this snapshot (events are
    /// appended; call [`sort_events`](Self::sort_events) once all sources
    /// are merged).
    pub fn absorb_recorder(&mut self, recorder: &FlightRecorder) {
        self.events_recorded += recorder.total_recorded();
        for (acc, n) in self.counts.iter_mut().zip(recorder.counts()) {
            *acc += n;
        }
        self.events.extend(recorder.iter().copied());
    }

    /// Put the merged event stream into its canonical order: by time,
    /// then source port, preserving each source's own recording order.
    /// Deterministic for a seeded run regardless of how many sources
    /// were merged or in what order the fabric drained them.
    pub fn sort_events(&mut self) {
        // Recording order within one (time, port) group is the original
        // relative order as long as sources were absorbed port-by-port:
        // a stable sort never reorders equal keys.
        self.events.sort_by_key(|e| (e.time, e.port));
    }

    /// Stable JSON export, schema `pifo-telemetry-v1`: counts, gauges,
    /// then the retained events. Serde-free and deterministic — two
    /// identically-seeded runs render byte-identical documents.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"schema\": \"pifo-telemetry-v1\",\n");
        let _ = writeln!(s, "  \"events_recorded\": {},", self.events_recorded);
        let _ = writeln!(s, "  \"events_retained\": {},", self.events.len());
        s.push_str("  \"counts\": {");
        for (i, kind) in EventKind::ALL.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{}\": {}", kind.label(), self.counts[*kind as usize]);
        }
        s.push_str("},\n  \"gauges\": [\n");
        for (i, g) in self.gauges.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let _ = write!(s, "    {{\"name\": \"{}\", \"points\": [", g.name);
            for (j, p) in g.points.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "[{}, {}]", p.time.as_nanos(), p.value);
            }
            s.push_str("]}");
        }
        s.push_str("\n  ],\n  \"events\": [\n");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            write_event_json(&mut s, ev);
        }
        s.push_str("\n  ]\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, kind: EventKind, value: u64) -> TraceEvent {
        TraceEvent {
            time: Nanos(t),
            kind,
            port: 0,
            node: NO_NODE,
            flow: FlowId(7),
            value,
            aux: 0,
        }
    }

    #[test]
    fn ring_wraps_oldest_first() {
        let mut fr = FlightRecorder::new(8);
        for i in 0..20 {
            fr.record(ev(i, EventKind::Enqueue, i));
        }
        assert_eq!(fr.capacity(), 8);
        assert_eq!(fr.total_recorded(), 20);
        assert_eq!(fr.overwritten(), 12);
        let vals: Vec<u64> = fr.iter().map(|e| e.value).collect();
        assert_eq!(vals, (12..20).collect::<Vec<_>>());
        assert_eq!(fr.count(EventKind::Enqueue), 20, "counts survive wrap");
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(FlightRecorder::new(0).capacity(), 8);
        assert_eq!(FlightRecorder::new(9).capacity(), 16);
        assert_eq!(FlightRecorder::new(4096).capacity(), 4096);
    }

    fn hop(node: u32, rank: u64, depth: u32, entered: u64) -> PathHop {
        PathHop {
            node,
            rank,
            depth,
            entered: Nanos(entered),
        }
    }

    #[test]
    fn multi_hop_record_round_trips_leaf_first() {
        let mut pr = PathRecorder::for_height(MAX_PATH_HOPS);
        pr.begin(3);
        pr.hop(3, 7, 100, 2, Nanos(10));
        pr.hop(3, 4, 200, 1, Nanos(25));
        pr.hop(3, 0, 300, 0, Nanos(40));
        let mut log = PathLog::new();
        pr.finish(3, &mut log);
        assert_eq!(log.len(), 1);
        assert!(log.get(1).is_none());
        let (hops, truncated) = log.get(0).expect("one record");
        assert!(!truncated);
        assert_eq!(
            hops,
            [hop(7, 100, 2, 10), hop(4, 200, 1, 25), hop(0, 300, 0, 40)]
        );
    }

    /// A ninth hop sets the truncation flag and keeps the first eight.
    #[test]
    fn path_recorder_tracks_hops_and_truncates() {
        let (mut pr, mut log) = (PathRecorder::for_height(MAX_PATH_HOPS), PathLog::new());
        pr.begin(0);
        for i in 0..MAX_PATH_HOPS as u32 {
            pr.hop(0, i, i as u64, i, Nanos(0));
        }
        pr.finish(0, &mut log);
        pr.begin(0);
        for i in 0..=MAX_PATH_HOPS as u32 {
            pr.hop(0, 100 + i, i as u64, i, Nanos(1));
        }
        pr.finish(0, &mut log);

        let (exact, truncated) = log.get(0).expect("eight-hop record");
        assert_eq!(exact.len(), MAX_PATH_HOPS);
        assert!(!truncated, "eight hops fit");
        let (over, truncated) = log.get(1).expect("nine-hop record");
        assert!(truncated);
        let nodes: Vec<u32> = over.iter().map(|h| h.node).collect();
        assert_eq!(nodes, (100..100 + MAX_PATH_HOPS as u32).collect::<Vec<_>>());
    }

    /// The overtaken-shaped-reference case: a packet departs while a
    /// parked reference to it still holds its slot, and the resumed walk
    /// later reports hops for a record that is already closed.
    #[test]
    fn hop_and_finish_on_unknown_or_finished_slots_are_no_ops() {
        let (mut pr, mut log) = (PathRecorder::for_height(MAX_PATH_HOPS), PathLog::new());
        pr.hop(99, 0, 0, 0, Nanos(10));
        pr.finish(99, &mut log);
        assert!(log.is_empty(), "never-begun slots are ignored");

        pr.begin(2);
        pr.hop(2, 1, 1, 0, Nanos(10));
        pr.finish(2, &mut log);
        pr.hop(2, 0, 9, 9, Nanos(30));
        pr.finish(2, &mut log);
        // In range but never begun: storage exists, no record is live.
        pr.hop(1, 0, 0, 0, Nanos(30));
        pr.finish(1, &mut log);

        assert_eq!(log.len(), 1, "the late finishes logged nothing");
        let (hops, _) = log.get(0).expect("the one finished record");
        assert_eq!(hops, [hop(1, 1, 0, 10)], "the late hop was dropped");
    }

    #[test]
    fn reused_slot_starts_from_zero_hops() {
        let (mut pr, mut log) = (PathRecorder::for_height(MAX_PATH_HOPS), PathLog::new());
        pr.begin(0);
        for i in 0..=MAX_PATH_HOPS as u32 {
            pr.hop(0, 50 + i, 5, 5, Nanos(0));
        }
        pr.finish(0, &mut log);
        // Same slot, next occupant: one hop, then none at all.
        pr.begin(0);
        pr.hop(0, 9, 1, 0, Nanos(6));
        pr.finish(0, &mut log);
        pr.begin(0);
        pr.finish(0, &mut log);

        let (second, truncated) = log.get(1).expect("second occupant");
        assert!(!truncated, "truncation does not leak across occupants");
        assert_eq!(second, [hop(9, 1, 0, 6)]);
        let (third, truncated) = log.get(2).expect("third occupant");
        assert!(third.is_empty() && !truncated);
        assert!(log.get(0).expect("first occupant").1);
    }

    /// Staging grows with the records in flight, not with the slot
    /// indices: two packets far apart in a large shared pool stage two
    /// records, and a finished record's stage serves the next packet.
    #[test]
    fn staging_grows_with_records_in_flight_not_slot_indices() {
        let (mut pr, mut log) = (PathRecorder::for_height(MAX_PATH_HOPS), PathLog::new());
        pr.begin(59_999);
        pr.begin(30_000);
        pr.hop(59_999, 1, 40, 0, Nanos(0));
        pr.hop(30_000, 2, 40, 0, Nanos(1));
        assert_eq!(pr.staged.len(), 2);
        pr.finish(59_999, &mut log);
        pr.begin(7);
        assert_eq!(pr.staged.len(), 2, "the freed stage is reused");
        pr.hop(7, 3, 40, 0, Nanos(3));
        pr.finish(7, &mut log);
        pr.finish(30_000, &mut log);
        let nodes: Vec<u32> = (0..log.len())
            .map(|i| log.get(i).expect("in range").0[0].node)
            .collect();
        assert_eq!(nodes, [1, 3, 2], "records land in finishing order");
    }

    #[test]
    fn snapshot_merge_and_order() {
        let mut a = FlightRecorder::new(8);
        a.record(ev(5, EventKind::Enqueue, 1));
        a.record(ev(9, EventKind::Dequeue, 1));
        let mut b = FlightRecorder::new(8);
        let mut e = ev(5, EventKind::Enqueue, 2);
        e.port = 1;
        b.record(e);

        let mut snap = TelemetrySnapshot::default();
        snap.absorb_recorder(&a);
        snap.absorb_recorder(&b);
        snap.sort_events();
        assert_eq!(snap.events_recorded, 3);
        assert_eq!(snap.count(EventKind::Enqueue), 2);
        let order: Vec<(u64, u16)> = snap
            .events
            .iter()
            .map(|e| (e.time.as_nanos(), e.port))
            .collect();
        assert_eq!(order, vec![(5, 0), (5, 1), (9, 0)]);
    }

    #[test]
    fn json_is_stable() {
        let mut snap = TelemetrySnapshot::default();
        let mut fr = FlightRecorder::new(8);
        fr.record(ev(1, EventKind::Drop, 7));
        snap.absorb_recorder(&fr);
        let mut g = GaugeSeries::new("port0.depth");
        g.push(Nanos(0), 3);
        snap.gauges.push(g);
        let json = snap.to_json();
        assert!(json.contains("\"schema\": \"pifo-telemetry-v1\""));
        assert!(json.contains("\"drop\": 1"));
        assert!(json.contains("\"port0.depth\""));
        assert_eq!(json, snap.to_json(), "rendering is deterministic");
    }
}
