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
//! * [`PathLog`] / [`PathRecorder`] — INT-style per-packet digests: an
//!   opt-in mode where each packet accumulates a bounded list of
//!   [`PathHop`]s (node, rank, queue depth seen at enqueue, entry time)
//!   plus its enqueue/departure instants. A finished digest is written
//!   once, when its packet departs, straight into the caller's
//!   [`PathLog`] — a 40-byte [`PathRecord`] header over a hop arena that
//!   holds only the hops its walk took — for post-hoc joins against the
//!   departure trace. A fabric hands each port's log to its tree for the
//!   length of a run, stamps each record's departure in the round that
//!   sends its packet, and takes the log back at the end. A record in
//!   flight is staged by the port's [`PathRecorder`], which grows with
//!   the packets the port holds, not with the pool's slot count.
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
    /// Source port (a tree's pool port, or the fabric port for
    /// pause/fault events).
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

/// Maximum hops retained per packet in a [`PathRecord`]; deeper walks set
/// [`PathRecord::truncated`]. Eight levels is far beyond any scheduling
/// hierarchy in the paper (Fig 3 is two levels).
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

/// An INT-style per-packet digest: who the packet was, the instants it
/// entered and left the tree, and where in its [`PathLog`]'s hop arena
/// the hops of its enqueue walk sit. Read one through
/// [`PathLog::get`]/[`PathLog::iter`], which pair it with those hops.
///
/// `departed - enqueued` reconciles exactly with the departure trace's
/// wait accounting (`Departure::wait` in `pifo-sim`) — the simulation
/// layer finalizes `departed` with the transmit start time, and
/// `enqueued` is the tree-enqueue instant, which is the packet's arrival.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathRecord {
    /// Raw packet id.
    pub packet: u64,
    /// The packet's flow.
    pub flow: FlowId,
    /// The pool port of the tree that buffered it.
    pub port: u16,
    hop_count: u8,
    /// True when the walk had more than [`MAX_PATH_HOPS`] hops and the
    /// extra hops were discarded.
    pub truncated: bool,
    /// When the packet entered the tree (tree-enqueue `now`).
    pub enqueued: Nanos,
    /// When the packet departed (finalized by the sim layer to the
    /// transmit start instant).
    pub departed: Nanos,
    /// Index of this record's first hop in its log's arena.
    first_hop: u64,
}

// Like `TraceEvent`'s, these layouts are a perf contract: a one-hop
// packet costs the log 64 bytes, not a fixed eight-hop record.
const _: () = assert!(std::mem::size_of::<PathRecord>() == 40);
const _: () = assert!(std::mem::size_of::<PathHop>() == 24);

impl PathRecord {
    /// Time from tree enqueue to departure — the packet's total
    /// residence in the tree.
    pub fn wait(&self) -> Nanos {
        Nanos(
            self.departed
                .as_nanos()
                .saturating_sub(self.enqueued.as_nanos()),
        )
    }
}

/// One entry of a [`PathLog`]: a [`PathRecord`] (reachable through
/// `Deref`) together with the hops its walk took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathRef<'a> {
    record: &'a PathRecord,
    hops: &'a [PathHop],
}

impl std::ops::Deref for PathRef<'_> {
    type Target = PathRecord;

    fn deref(&self) -> &PathRecord {
        self.record
    }
}

impl<'a> PathRef<'a> {
    /// The recorded hops, leaf first.
    pub fn hops(&self) -> &'a [PathHop] {
        self.hops
    }

    /// Residence time attributable to hop `i`: from that hop's entry to
    /// the next hop's entry (or to departure for the last hop). For
    /// work-conserving trees every hop of one walk shares an entry time,
    /// so the leaf hop carries the full residence.
    pub fn residence(&self, i: usize) -> Nanos {
        let start = self.hops[i].entered.as_nanos();
        let end = self
            .hops
            .get(i + 1)
            .map(|h| h.entered.as_nanos())
            .unwrap_or(self.departed.as_nanos());
        Nanos(end.saturating_sub(start))
    }
}

/// Completed path records in departure order: 40-byte [`PathRecord`]
/// headers over one arena holding only the hops each walk took.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathLog {
    records: Vec<PathRecord>,
    hops: Vec<PathHop>,
}

impl PathLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty log with room for `records` records and `hops` hops.
    pub fn with_capacity(records: usize, hops: usize) -> Self {
        PathLog {
            records: Vec::with_capacity(records),
            hops: Vec::with_capacity(hops),
        }
    }

    /// Reserve room for `records` more records and `hops` more hops,
    /// allocating exactly that, or report that the allocator refused (the
    /// log stays usable and grows as it fills).
    pub fn try_reserve_exact(
        &mut self,
        records: usize,
        hops: usize,
    ) -> Result<(), std::collections::TryReserveError> {
        self.records.try_reserve_exact(records)?;
        self.hops.try_reserve_exact(hops)
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the log holds no record.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records the log has room for without growing: what a driver
    /// presized it to.
    pub(crate) fn record_capacity(&self) -> usize {
        self.records.capacity()
    }

    /// Record `i` with its hops, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<PathRef<'_>> {
        self.records.get(i).map(|r| self.entry(r))
    }

    /// Every record with its hops, in departure order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = PathRef<'_>> + '_ {
        self.records.iter().map(|r| self.entry(r))
    }

    /// The record headers, mutable — for drivers that model transmission
    /// and finalize `departed` to the transmit start.
    pub fn records_mut(&mut self) -> &mut [PathRecord] {
        &mut self.records
    }

    fn entry<'a>(&'a self, record: &'a PathRecord) -> PathRef<'a> {
        let first = record.first_hop as usize;
        PathRef {
            record,
            hops: &self.hops[first..first + record.hop_count as usize],
        }
    }
}

/// The mark of a pool slot with no record in flight, and the end of the
/// free-stage list.
const NO_STAGE: u32 = u32::MAX;

/// A record in flight: its [`PathRecord`] header less the fields
/// [`PathRecorder::finish`] stamps. While the stage is free, `packet`
/// links the next free stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Staged {
    packet: u64,
    enqueued: Nanos,
    flow: FlowId,
    port: u16,
    hop_count: u8,
    truncated: bool,
}

const _: () = assert!(std::mem::size_of::<Staged>() == 24);

/// Accumulates [`PathRecord`]s for in-flight packets, keyed by their
/// packet-pool slot, and appends each to the caller's [`PathLog`] when it
/// finishes, so a log holds its records in departure order.
///
/// A record is staged in a dense array that grows only to the most
/// records this recorder has had in flight at once (its port's peak
/// occupancy); a slot reaches its stage through a four-byte index. A
/// tree on a fabric-wide shared pool therefore pays four bytes per pool
/// slot it has used, not a whole staged record. A stage keeps as many
/// hops as its tree is tall (at most [`MAX_PATH_HOPS`]): a walk visits
/// each node from its leaf to the root once, so a one-level tree stages
/// a 24-byte header and one hop per record. A tree sizes its recorder's
/// staging once per run, from the path log the run hands it (see
/// [`ScheduleTree::replace_path_log`](crate::tree::ScheduleTree::replace_path_log)).
///
/// `hop` and `finish` are no-ops for slots with no record in flight, so
/// hook sites never need to know whether a given walk belongs to a
/// tracked packet (e.g. shaping resumptions whose packet already
/// departed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathRecorder {
    /// Pool slot → its record's stage, or `NO_STAGE`.
    stage_of: Vec<u32>,
    /// Stage → the record staged there.
    stages: Vec<Staged>,
    /// Stage `s`'s hops, at `s * stride..`. Past the record's
    /// `hop_count` they are whatever the stage's previous occupants left.
    hops: Vec<PathHop>,
    /// Hops kept per record.
    stride: usize,
    /// The last stage whose record finished: free stages are reused
    /// last-freed first.
    free: u32,
}

impl Default for PathRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl PathRecorder {
    /// An empty recorder that keeps up to [`MAX_PATH_HOPS`] hops per
    /// record.
    pub fn new() -> Self {
        Self::for_height(MAX_PATH_HOPS)
    }

    /// An empty recorder for a tree `height` levels tall: no walk takes
    /// more hops than that, so a stage keeps `height` of them (at least
    /// one, at most [`MAX_PATH_HOPS`]).
    pub(crate) fn for_height(height: usize) -> Self {
        PathRecorder {
            stage_of: Vec::new(),
            stages: Vec::new(),
            hops: Vec::new(),
            stride: height.clamp(1, MAX_PATH_HOPS),
            free: NO_STAGE,
        }
    }

    /// Reserve (not fill) room for `records` records in flight on pool
    /// slots below `records`, so a run within that never grows the
    /// staging while it runs.
    pub(crate) fn reserve(&mut self, records: usize) {
        let more = |len: usize| records.saturating_sub(len);
        self.stage_of.reserve_exact(more(self.stage_of.len()));
        self.stages.reserve_exact(more(self.stages.len()));
        self.hops
            .reserve_exact(more(self.stages.len()).saturating_mul(self.stride));
    }

    /// Start a record for the packet admitted into pool slot `slot`.
    /// Resets the stage's header only: the hop storage is reused as is.
    pub fn begin(&mut self, slot: usize, packet: u64, flow: FlowId, port: u16, enqueued: Nanos) {
        if slot >= self.stage_of.len() {
            self.stage_of.resize(slot + 1, NO_STAGE);
        }
        if self.stage_of[slot] == NO_STAGE {
            self.stage_of[slot] = match self.free {
                NO_STAGE => {
                    self.stages.push(Staged::default());
                    let hops = self.hops.len() + self.stride;
                    self.hops.resize(hops, PathHop::default());
                    u32::try_from(self.stages.len() - 1).expect("fewer than 2³² records in flight")
                }
                stage => {
                    self.free = self.stages[stage as usize].packet as u32;
                    stage
                }
            };
        }
        self.stages[self.stage_of[slot] as usize] = Staged {
            packet,
            enqueued,
            flow,
            port,
            hop_count: 0,
            truncated: false,
        };
    }

    /// The stage of slot `slot`'s record in flight, if any.
    #[inline]
    fn stage(&self, slot: usize) -> Option<u32> {
        self.stage_of.get(slot).copied().filter(|&s| s != NO_STAGE)
    }

    /// Append a hop to slot `slot`'s record (no-op when untracked; sets
    /// `truncated` past [`MAX_PATH_HOPS`], which a tree's walks never
    /// reach below that height).
    pub fn hop(&mut self, slot: usize, node: u32, rank: u64, depth: u32, entered: Nanos) {
        let Some(stage) = self.stage(slot) else {
            return;
        };
        let s = &mut self.stages[stage as usize];
        let n = s.hop_count as usize;
        if n < self.stride {
            self.hops[stage as usize * self.stride + n] = PathHop {
                node,
                rank,
                depth,
                entered,
            };
            s.hop_count += 1;
        } else {
            s.truncated = true;
        }
    }

    /// Close slot `slot`'s record at `departed` and append it, with the
    /// hops it took, to `log` (no-op when untracked).
    pub fn finish(&mut self, slot: usize, departed: Nanos, log: &mut PathLog) {
        let Some(stage) = self.stage(slot) else {
            return;
        };
        self.stage_of[slot] = NO_STAGE;
        let s = &mut self.stages[stage as usize];
        log.records.push(PathRecord {
            packet: s.packet,
            flow: s.flow,
            port: s.port,
            hop_count: s.hop_count,
            truncated: s.truncated,
            enqueued: s.enqueued,
            departed,
            first_hop: log.hops.len() as u64,
        });
        let first = stage as usize * self.stride;
        log.hops
            .extend_from_slice(&self.hops[first..first + s.hop_count as usize]);
        s.packet = u64::from(self.free);
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
    /// Also collect per-packet [`PathRecord`]s (the most expensive mode).
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

    #[test]
    fn multi_hop_record_round_trips_leaf_first() {
        let mut pr = PathRecorder::new();
        pr.begin(3, 42, FlowId(1), 5, Nanos(10));
        pr.hop(3, 7, 100, 2, Nanos(10));
        pr.hop(3, 4, 200, 1, Nanos(25));
        pr.hop(3, 0, 300, 0, Nanos(40));
        let mut log = PathLog::new();
        pr.finish(3, Nanos(50), &mut log);
        assert_eq!(log.len(), 1);
        assert!(log.get(1).is_none());
        let r = log.get(0).expect("one record");
        assert_eq!((r.packet, r.flow, r.port), (42, FlowId(1), 5));
        assert_eq!((r.enqueued, r.departed), (Nanos(10), Nanos(50)));
        assert!(!r.truncated);
        let hop = |node, rank, depth, entered| PathHop {
            node,
            rank,
            depth,
            entered: Nanos(entered),
        };
        assert_eq!(
            r.hops(),
            [hop(7, 100, 2, 10), hop(4, 200, 1, 25), hop(0, 300, 0, 40)]
        );
        assert_eq!(r.wait(), Nanos(40));
        let residences: Vec<Nanos> = (0..3).map(|i| r.residence(i)).collect();
        assert_eq!(residences, [Nanos(15), Nanos(15), Nanos(10)]);
    }

    /// A ninth hop sets `truncated` and keeps the first eight.
    #[test]
    fn path_recorder_tracks_hops_and_truncates() {
        let (mut pr, mut log) = (PathRecorder::new(), PathLog::new());
        pr.begin(0, 1, FlowId(0), 0, Nanos(0));
        for i in 0..MAX_PATH_HOPS as u32 {
            pr.hop(0, i, i as u64, i, Nanos(0));
        }
        pr.finish(0, Nanos(1), &mut log);
        pr.begin(0, 2, FlowId(0), 0, Nanos(1));
        for i in 0..=MAX_PATH_HOPS as u32 {
            pr.hop(0, 100 + i, i as u64, i, Nanos(1));
        }
        pr.finish(0, Nanos(2), &mut log);

        let exact = log.get(0).expect("eight-hop record");
        assert_eq!(exact.hops().len(), MAX_PATH_HOPS);
        assert!(!exact.truncated, "eight hops fit");
        let over = log.get(1).expect("nine-hop record");
        assert!(over.truncated);
        let nodes: Vec<u32> = over.hops().iter().map(|h| h.node).collect();
        assert_eq!(nodes, (100..100 + MAX_PATH_HOPS as u32).collect::<Vec<_>>());
    }

    /// The overtaken-shaped-reference case: a packet departs while a
    /// parked reference to it still holds its slot, and the resumed walk
    /// later reports hops for a record that is already closed.
    #[test]
    fn hop_and_finish_on_unknown_or_finished_slots_are_no_ops() {
        let (mut pr, mut log) = (PathRecorder::new(), PathLog::new());
        pr.hop(99, 0, 0, 0, Nanos(10));
        pr.finish(99, Nanos(50), &mut log);
        assert!(log.is_empty(), "never-begun slots are ignored");

        pr.begin(2, 7, FlowId(0), 0, Nanos(10));
        pr.hop(2, 1, 1, 0, Nanos(10));
        pr.finish(2, Nanos(20), &mut log);
        pr.hop(2, 0, 9, 9, Nanos(30));
        pr.finish(2, Nanos(40), &mut log);
        // In range but never begun: storage exists, no record is live.
        pr.hop(1, 0, 0, 0, Nanos(30));
        pr.finish(1, Nanos(40), &mut log);

        assert_eq!(log.len(), 1);
        let r = log.get(0).expect("the one finished record");
        assert_eq!(r.departed, Nanos(20), "the late finish changed nothing");
        assert_eq!(r.hops().len(), 1, "the late hop was dropped");
    }

    #[test]
    fn reused_slot_starts_from_zero_hops() {
        let (mut pr, mut log) = (PathRecorder::new(), PathLog::new());
        pr.begin(0, 1, FlowId(1), 0, Nanos(0));
        for i in 0..=MAX_PATH_HOPS as u32 {
            pr.hop(0, 50 + i, 5, 5, Nanos(0));
        }
        pr.finish(0, Nanos(5), &mut log);
        // Same slot, next occupant: one hop, then none at all.
        pr.begin(0, 2, FlowId(2), 0, Nanos(6));
        pr.hop(0, 9, 1, 0, Nanos(6));
        pr.finish(0, Nanos(7), &mut log);
        pr.begin(0, 3, FlowId(3), 0, Nanos(8));
        pr.finish(0, Nanos(9), &mut log);

        let second = log.get(1).expect("second occupant");
        assert_eq!(second.packet, 2);
        assert!(
            !second.truncated,
            "truncation does not leak across occupants"
        );
        assert_eq!(second.hops().len(), 1);
        assert_eq!(second.hops()[0].node, 9);
        let third = log.get(2).expect("third occupant");
        assert_eq!(third.packet, 3);
        assert!(third.hops().is_empty());
    }

    /// Staging grows with the records in flight, not with the slot
    /// indices: two packets far apart in a large shared pool stage two
    /// records, and a finished record's stage serves the next packet.
    #[test]
    fn staging_grows_with_records_in_flight_not_slot_indices() {
        let (mut pr, mut log) = (PathRecorder::new(), PathLog::new());
        pr.begin(59_999, 1, FlowId(1), 0, Nanos(0));
        pr.begin(30_000, 2, FlowId(2), 0, Nanos(1));
        pr.hop(59_999, 4, 40, 0, Nanos(0));
        assert_eq!(pr.stages.len(), 2);
        pr.finish(59_999, Nanos(2), &mut log);
        pr.begin(7, 3, FlowId(3), 0, Nanos(3));
        assert_eq!(pr.stages.len(), 2, "the freed stage is reused");
        pr.finish(7, Nanos(4), &mut log);
        pr.finish(30_000, Nanos(5), &mut log);
        let packets: Vec<u64> = log.iter().map(|r| r.packet).collect();
        assert_eq!(packets, [1, 3, 2]);
        assert_eq!(log.get(0).expect("first").hops()[0].node, 4);
        assert!(log.get(1).expect("second").hops().is_empty());
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
