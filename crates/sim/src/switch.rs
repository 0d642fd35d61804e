//! A multi-port, shared-memory switch fabric: one classifier feeding N
//! egress ports, each owning a [`ScheduleTree`] drained at line rate.
//!
//! The paper's hardware serves many ports from one PIFO mesh at line
//! rate (§4–§5); single-queue microbenchmarks hide the behaviour that
//! emerges when a classifier sprays bursty, incast-prone traffic across
//! many queues. This module is the software analogue of that fabric:
//!
//! * a **shared classifier** ([`PortClassifier`]) maps every arriving
//!   packet to its egress port;
//! * each **port** owns one scheduling tree (any [`PifoBackend`], any
//!   transaction program — ports may differ);
//! * a **line-rate drain loop** transmits from every port at the
//!   configured link rate, in scheduling rounds of up to
//!   [`SwitchBuilder::with_burst`] packets.
//!
//! # Scheduling rounds
//!
//! Ports make decisions at *round* granularity, in [`crate::port`]'s
//! one round: at round time `t` the port admits everything that has
//! arrived by `t` — one [`ScheduleTree::enqueue`] per packet, at its own
//! arrival instant — then commits up to `burst` packets, one
//! [`ScheduleTree::dequeue`] each, all decided at `t` and transmitted
//! back-to-back. This is the paper's one mechanism — push in by rank,
//! pop from the head, one packet per operation (§4.2–§4.3) — and the
//! only path a round takes; the switch adds only gauge samples to it.
//! [`Switch::run`]'s worker count chooses only how many threads run
//! rounds (see the threading model below).
//!
//! # Packets stay put
//!
//! The paper's scheduler never moves packet bytes: PIFO entries are
//! small handles and the packet sits still in the shared buffer (§4–§5,
//! Fig 6). [`Switch::run`] keeps that shape around the trees. The
//! classifier splits the borrowed arrival slice into per-port *index*
//! lists, so an arrival is cloned exactly once — at the tree enqueue
//! call that buffers it — and moves out of the buffer into its
//! [`Departure`]. Each port's departure trace is allocated once, at the
//! port's arrival count, and so is its path log: the run hands the log
//! to the port's tree, the tree writes each record's hops into it once,
//! when its packet departs, and the run moves the log into
//! [`PortTrace::paths`] at the end. A record keeps nothing its departure
//! already says: [`PortTrace::path`] joins the two.
//!
//! # One buffer for all ports
//!
//! The paper's switch serves every port from **one** shared packet
//! buffer (§5.1), with §6.1 threshold counters deciding drops before any
//! enqueue. A switch has one such memory, its own:
//! [`SwitchBuilder::with_shared_pool`] creates it (a second call
//! panics), and each [`SwitchBuilder::add_shared_port`] tree holds a
//! [`PoolHandle`] into that one [`SharedPacketPool`], so incast pressure
//! on one port genuinely consumes — and, under
//! [`AdmissionPolicy::DynamicThreshold`], is fenced away from — the
//! memory every other port draws on. Shared ports come first, so port
//! `i`'s counters sit at pool port `i`. Ports with private slabs
//! ([`SwitchBuilder::add_port`], which refuses a tree built in any
//! shared pool) follow, and remain embarrassingly independent. Read any
//! port's pool after a run with [`Switch::pool_of`].
//!
//! Because ports contend for shared state, [`Switch::run`] runs the
//! rounds of ports sharing a pool in **`(time, port)` order** — the
//! earliest pending round first, ties broken by port index — rather
//! than simulating each port to completion in turn. That is what makes
//! cross-port admission coupling real and deterministic: identical
//! inputs give bit-identical traces, on every backend, with any number
//! of workers.
//!
//! # Threading model
//!
//! The unit of parallelism is the **pool**. A `ScheduleTree` is `Send`
//! with the pool it owns or its handle into a shared one (see
//! `pifo_core::pool`), so whole port state machines can migrate to
//! worker threads. [`Switch::run`] groups ports by the pool their tree
//! buffers in — the shared ports are group 0, and each private port is
//! a group of its own — and deals the groups round-robin to
//! `min(groups, workers)` workers. Worker 0 is the caller's thread, and
//! it lends itself the shared pool once, for the whole run; the rest are
//! scoped threads, so a one-worker drain spawns nothing. Each worker runs
//! the `(time, port)`-ordered round loop over its own ports only, so it
//! walks the arrival stream front to back once and no tree operation
//! locks.
//!
//! Ports in distinct pools share no state, so each per-port trace — and
//! therefore the merged `(time, port)`-ordered trace — is
//! **bit-identical** to the one-worker drain, whatever the worker count
//! or thread timing. Ports that *share* a pool always land on one
//! worker: every admission decision reads the occupancy that every
//! earlier-in-time admission on any of its ports wrote, so the decisions
//! form one serial dependency chain through the pool — the paper's one
//! shared buffer in one clock domain (§5.1). A fabric on one shared pool
//! is one group and runs on the caller's thread. Trees must share state
//! only through their pool: anything else two of them share is seen in
//! thread order.

use crate::port::{Departure, PortSim};
use crate::scheduler::LentTree;
use pifo_core::prelude::*;

/// Maps a packet to the egress port that must transmit it — the shared
/// classification step in front of the fabric. Out-of-range ports count
/// as misroutes (the packet is dropped and tallied in
/// [`SwitchRun::misrouted`]). `Send` so fabrics (which own their
/// classifier) can cross thread boundaries.
pub type PortClassifier = Box<dyn Fn(&Packet) -> usize + Send>;

/// Builder for [`Switch`]: add one scheduling tree per egress port, then
/// [`build`](Self::build) with the shared classifier.
///
/// ```
/// use pifo_core::prelude::*;
/// use pifo_sim::switch::SwitchBuilder;
///
/// // Two FIFO ports behind a flow-hash classifier.
/// let mut sb = SwitchBuilder::new(8_000_000_000); // 8 Gb/s per port
/// for _ in 0..2 {
///     let mut b = TreeBuilder::new();
///     let root = b.add_root("fifo", Box::new(FnTransaction::new("fifo", |ctx: &EnqCtx| {
///         Rank(ctx.now.as_nanos())
///     })));
///     sb.add_port(b.build(Box::new(move |_| root)).unwrap());
/// }
/// let mut switch = sb.build(Box::new(|p: &Packet| p.flow.0 as usize % 2));
///
/// let arrivals: Vec<Packet> = (0..4)
///     .map(|i| Packet::new(i, FlowId(i as u32), 1_000, Nanos(i)))
///     .collect();
/// let run = switch.run(&arrivals, 1); // one worker: the calling thread
/// assert_eq!(run.total_departures(), 4);
/// assert_eq!(run.ports[0].departures.len(), 2); // flows 0, 2
/// assert_eq!(run.ports[1].departures.len(), 2); // flows 1, 3
/// ```
pub struct SwitchBuilder {
    trees: Vec<ScheduleTree>,
    rate_bps: u64,
    burst: usize,
    pool: Option<SharedPool>,
    track_inversions: bool,
    telemetry: Option<TelemetryConfig>,
}

impl SwitchBuilder {
    /// A switch whose ports each transmit at `rate_bps`, in the default
    /// scheduling round of 32 packets. A run drains every port to empty.
    ///
    /// # Panics
    ///
    /// Panics if the rate is zero.
    pub fn new(rate_bps: u64) -> Self {
        assert!(rate_bps > 0, "link rate must be positive");
        SwitchBuilder {
            trees: Vec::new(),
            rate_bps,
            burst: 32,
            pool: None,
            track_inversions: false,
            telemetry: None,
        }
    }

    /// Enable per-port rank-inversion tracking: every port tree scores
    /// its root-level dequeue ranks (inversions, unpifoness, max
    /// regression — see
    /// [`pifo_core::metrics::InversionStats`]). Read the
    /// counters after a run with [`Switch::inversion_stats`] /
    /// [`Switch::total_inversion_stats`]. Off by default — disabled
    /// tracking costs nothing on the drain path.
    pub fn track_inversions(&mut self) -> &mut Self {
        self.track_inversions = true;
        self
    }

    /// Collect telemetry during runs: every port tree gets a
    /// [`FlightRecorder`] ring of [`TelemetryConfig::RING_CAPACITY`] trace
    /// events (plus per-packet path records when `cfg.path_records` is
    /// set), and each port samples its gauge series — queue depth, pool
    /// occupancy, cumulative inversions when tracking — every
    /// `cfg.sample_every` scheduling rounds. Read the merged result after
    /// a run with [`Switch::telemetry_snapshot`]; per-port path records
    /// land on [`PortTrace::paths`] (read them with [`PortTrace::path`]).
    /// Off by default — disabled telemetry costs one null check per tree
    /// operation. Telemetry observes only: departure traces are
    /// bit-identical with it on or off.
    pub fn with_telemetry(&mut self, cfg: TelemetryConfig) -> &mut Self {
        self.telemetry = Some(cfg);
        self
    }

    /// Add an egress port owning `tree`; returns the port index the
    /// classifier must use for it (assigned densely from 0).
    ///
    /// The tree keeps the **private** slab `TreeBuilder::build` gave it —
    /// this port shares memory with nobody. Ports drawing on the
    /// fabric's one shared pool are added with
    /// [`add_shared_port`](Self::add_shared_port), before any of these.
    ///
    /// # Panics
    ///
    /// Panics if `tree` buffers in a shared pool: a switch has one
    /// shared pool, its own, and registers its ports itself.
    pub fn add_port(&mut self, tree: ScheduleTree) -> usize {
        assert!(
            matches!(tree.pool_handle(), TreePool::Owned(_)),
            "add_port: port {} buffers in a shared pool; a switch shares only its own \
             pool, through add_shared_port",
            self.trees.len()
        );
        self.trees.push(tree);
        self.trees.len() - 1
    }

    /// Give the fabric its shared packet pool (§5.1's one buffer for all
    /// ports): `capacity` packets, admission decided per port by
    /// `policy` (§6.1). Read its occupancies and per-port
    /// admitted/rejected counters after a run with [`Switch::pool_of`].
    ///
    /// Call before [`add_shared_port`](Self::add_shared_port).
    ///
    /// # Panics
    ///
    /// Panics if a shared pool was already attached — a second pool
    /// would silently split the fabric's "shared" memory in two — or if
    /// `SharedPacketPool::new` refuses the capacity or policy (with the
    /// [`PoolError`]'s message).
    pub fn with_shared_pool(&mut self, capacity: usize, policy: AdmissionPolicy) -> &mut Self {
        assert!(
            self.pool.is_none(),
            "the fabric already has a shared pool; one switch shares one memory"
        );
        let pool = SharedPacketPool::new(capacity, policy)
            .unwrap_or_else(|e| panic!("with_shared_pool: {e}"));
        self.pool = Some(pool.into_shared());
        self
    }

    /// Add an egress port whose tree buffers in the fabric's shared
    /// pool: registers a pool port and hands its [`PoolHandle`] to
    /// `build`, which finishes with `TreeBuilder::build_in_pool`.
    /// Returns the port index, which is also the port's index in the
    /// pool.
    ///
    /// # Panics
    ///
    /// Panics if [`with_shared_pool`](Self::with_shared_pool) was not
    /// called first, if a port was already added with
    /// [`add_port`](Self::add_port) (shared ports come first, so the
    /// pool's per-port counters line up with the run's port traces), or
    /// if `build` returns a tree that does not buffer at that pool port.
    pub fn add_shared_port(&mut self, build: impl FnOnce(PoolHandle) -> ScheduleTree) -> usize {
        let handle = self
            .pool
            .as_ref()
            .expect("call with_shared_pool before add_shared_port")
            .register_port();
        let port = handle.port();
        assert_eq!(
            port,
            self.trees.len(),
            "pool port index diverged from switch port index: add shared ports before \
             private ones"
        );
        let tree = build(handle);
        assert!(
            matches!(tree.pool_handle(), TreePool::Shared(h) if h.port() == port),
            "add_shared_port: port {port}'s tree must be built in the handle it was given"
        );
        self.trees.push(tree);
        port
    }

    /// Packets committed per scheduling round (default 32). It defines
    /// the decision epochs; [`Switch::run`]'s worker count only chooses
    /// which thread runs each port's rounds.
    ///
    /// # Panics
    ///
    /// Panics if `burst` is zero.
    pub fn with_burst(&mut self, burst: usize) -> &mut Self {
        assert!(burst > 0, "a scheduling round must commit >= 1 packet");
        self.burst = burst;
        self
    }

    /// Finish construction with the shared classifier.
    ///
    /// # Panics
    ///
    /// Panics if no port was added.
    pub fn build(self, classifier: PortClassifier) -> Switch {
        assert!(!self.trees.is_empty(), "a switch needs at least one port");
        let mut ports = self.trees;
        if self.track_inversions {
            for tree in &mut ports {
                tree.enable_inversion_tracking();
            }
        }
        if let Some(cfg) = &self.telemetry {
            for tree in &mut ports {
                tree.enable_telemetry(cfg);
            }
        }
        Switch {
            shared: self.pool.as_ref().map_or(0, |p| p.pool().num_ports()),
            pool: self.pool,
            ports,
            classifier,
            rate_bps: self.rate_bps,
            burst: self.burst,
            telemetry: self.telemetry,
        }
    }
}

/// The multi-port fabric (see the module docs). Built by
/// [`SwitchBuilder`]; driven by [`run`](Self::run).
pub struct Switch {
    pub(crate) ports: Vec<ScheduleTree>,
    /// The pool the first [`shared`](Self::shared) ports buffer in.
    pub(crate) pool: Option<SharedPool>,
    /// How many ports, from port 0, buffer in the shared pool.
    pub(crate) shared: usize,
    pub(crate) classifier: PortClassifier,
    pub(crate) rate_bps: u64,
    pub(crate) burst: usize,
    pub(crate) telemetry: Option<TelemetryConfig>,
}

/// What one egress port did during a [`Switch::run`].
#[derive(Debug, Clone, Default)]
pub struct PortTrace {
    /// Every transmitted packet with its timing, in transmission order.
    pub departures: Vec<Departure>,
    /// Packets this port's tree rejected (buffer full / unknown flow).
    pub drops: u64,
    /// Completed per-packet path records, index-aligned with
    /// [`departures`](Self::departures): record `i` holds the hops of
    /// `departures[i]`'s enqueue walk, and nothing the departure says
    /// already. Read a record whole with [`path`](Self::path) or
    /// [`path_views`](Self::path_views). Empty unless the fabric enabled
    /// [`TelemetryConfig::path_records`].
    pub paths: PathLog,
    /// This port's sampled gauge series (queue depth, pool occupancy,
    /// cumulative inversions when tracking). Empty unless the fabric was
    /// built with [`SwitchBuilder::with_telemetry`].
    pub gauges: Vec<GaugeSeries>,
    /// The fabric port this trace is of, which its path records name.
    pub(crate) port: u16,
}

/// One departure's path record: the hops its tree logged for it, joined
/// with the departure they belong to ([`PortTrace::path`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathView<'a> {
    /// Raw packet id.
    pub packet: u64,
    /// The packet's flow.
    pub flow: FlowId,
    /// The fabric port whose tree buffered it.
    pub port: u16,
    /// True when the walk had more than
    /// [`MAX_PATH_HOPS`](pifo_core::telemetry::MAX_PATH_HOPS) hops and the
    /// extra hops were discarded.
    pub truncated: bool,
    /// When the packet entered the tree: its arrival, which both fabrics
    /// enqueue it at.
    pub enqueued: Nanos,
    /// When its transmission began.
    pub departed: Nanos,
    hops: &'a [PathHop],
}

impl<'a> PathView<'a> {
    /// The recorded hops, leaf first.
    pub fn hops(&self) -> &'a [PathHop] {
        self.hops
    }

    /// Time from tree enqueue to departure — the packet's total
    /// residence in the tree, which is its [`Departure::wait`].
    pub fn wait(&self) -> Nanos {
        self.departed.saturating_sub(self.enqueued)
    }

    /// Residence time attributable to hop `i`: from that hop's entry to
    /// the next hop's entry (or to departure for the last hop). For
    /// work-conserving trees every hop of one walk shares an entry time,
    /// so the leaf hop carries the full residence.
    pub fn residence(&self, i: usize) -> Nanos {
        let end = self.hops.get(i + 1).map_or(self.departed, |h| h.entered);
        end.saturating_sub(self.hops[i].entered)
    }
}

/// The result of one [`Switch::run`]: per-port traces plus fabric-level
/// counters.
#[derive(Debug, Clone, Default)]
pub struct SwitchRun {
    /// One trace per port, indexed like the builder's ports.
    pub ports: Vec<PortTrace>,
    /// Packets the classifier sent to a non-existent port.
    pub misrouted: u64,
}

impl PortTrace {
    /// Path record `i` joined with `departures[i]`, or `None` past the
    /// end of [`paths`](Self::paths).
    pub fn path(&self, i: usize) -> Option<PathView<'_>> {
        let (hops, truncated) = self.paths.get(i)?;
        let d = &self.departures[i];
        Some(PathView {
            packet: d.packet.id.0,
            flow: d.packet.flow,
            port: self.port,
            truncated,
            enqueued: d.packet.arrival,
            departed: d.start,
            hops,
        })
    }

    /// Every path record joined with its departure, in departure order.
    pub fn path_views(&self) -> impl ExactSizeIterator<Item = PathView<'_>> + '_ {
        (0..self.paths.len()).map(|i| self.path(i).expect("one departure per path record"))
    }
}

impl SwitchRun {
    /// Total packets transmitted across every port.
    pub fn total_departures(&self) -> usize {
        self.ports.iter().map(|p| p.departures.len()).sum()
    }

    /// Total packets dropped by port trees (excluding misroutes).
    pub fn total_drops(&self) -> u64 {
        self.ports.iter().map(|p| p.drops).sum()
    }

    /// The instant the last bit left the fabric, across all ports.
    pub fn last_finish(&self) -> Nanos {
        self.ports
            .iter()
            .filter_map(|p| p.departures.last())
            .map(|d| d.finish)
            .max()
            .unwrap_or(Nanos::ZERO)
    }
}

impl Switch {
    /// Number of egress ports.
    pub fn num_ports(&self) -> usize {
        self.ports.len()
    }

    /// Read-only view of port `i`'s scheduling tree.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn port(&self, i: usize) -> &ScheduleTree {
        &self.ports[i]
    }

    /// The pool port `i`'s tree buffers in: the switch's shared pool for
    /// a port added with [`SwitchBuilder::add_shared_port`] (where the
    /// port's counters sit at pool port `i`), else the private pool the
    /// tree owns (its counters at pool port 0). A shared pool is locked
    /// while the guard lives, so take one guard at a time.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn pool_of(&self, i: usize) -> PoolGuard<'_> {
        match &self.pool {
            Some(pool) if i < self.shared => pool.pool(),
            _ => self.ports[i].pool_handle().pool(),
        }
    }

    /// Port `i`'s rank-inversion counters; `None` unless the fabric was
    /// built with [`SwitchBuilder::track_inversions`] (or the port tree
    /// enabled tracking itself).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn inversion_stats(&self, i: usize) -> Option<pifo_core::metrics::InversionStats> {
        self.ports[i].inversion_stats()
    }

    /// Fabric-level inversion counters: every tracking port merged
    /// (`max_regression` takes the fabric max). `None` when no port
    /// tracks.
    pub fn total_inversion_stats(&self) -> Option<pifo_core::metrics::InversionStats> {
        let mut total: Option<pifo_core::metrics::InversionStats> = None;
        for tree in &self.ports {
            if let Some(s) = tree.inversion_stats() {
                total.get_or_insert_with(Default::default).merge(&s);
            }
        }
        total
    }

    /// Run `arrivals` (time-sorted) through the fabric on up to `workers`
    /// threads, returning the per-port departure traces. `workers: 0`
    /// means one worker per available CPU (what `Default::default()`
    /// gives); the first worker is the calling thread, so one worker
    /// spawns nothing.
    ///
    /// Scheduling rounds execute in `(time, port)` order — the earliest
    /// pending round runs next, ties broken by port index — so ports
    /// sharing a packet pool observe each other's occupancy exactly as
    /// of their own decision instants. Ports in distinct pools cannot
    /// observe each other at all, which is what lets the drain spread
    /// pools over worker threads (see the module docs' threading model).
    /// Determinism is total — identical inputs give bit-identical
    /// traces, whatever the worker count.
    ///
    /// # Panics
    ///
    /// Panics if `arrivals` is not sorted by arrival time, or holds more
    /// than `u32::MAX` packets.
    pub fn run(&mut self, arrivals: &[Packet], workers: usize) -> SwitchRun {
        assert!(
            u32::try_from(arrivals.len()).is_ok(),
            "a run indexes its arrivals with 32 bits"
        );
        // Shared classification: split the arrival stream per port by
        // index, preserving arrival order, and check that order in the
        // same pass. The packets stay where they are until a port
        // enqueues them.
        let mut per_port: Vec<Vec<u32>> = vec![Vec::new(); self.ports.len()];
        let mut misrouted = 0u64;
        let mut last = Nanos::ZERO;
        for (i, p) in arrivals.iter().enumerate() {
            assert!(p.arrival >= last, "arrivals must be time-sorted");
            last = p.arrival;
            let port = (self.classifier)(p);
            match per_port.get_mut(port) {
                Some(q) => q.push(i as u32),
                None => misrouted += 1,
            }
        }

        let telemetry = self.telemetry;
        let mut sims: Vec<SwitchPort> = per_port
            .into_iter()
            .zip(&mut self.ports)
            .enumerate()
            .map(|(i, (pending, tree))| SwitchPort::new(arrivals, pending, tree, i, telemetry))
            .collect();

        let workers = match workers {
            0 => std::thread::available_parallelism().map_or(1, |c| c.get()),
            n => n,
        };
        self.drain(&mut sims, workers);

        SwitchRun {
            ports: sims.into_iter().map(SwitchPort::into_trace).collect(),
            misrouted,
        }
    }

    /// Merge every port's flight recorder and the run's sampled gauge
    /// series into one [`TelemetrySnapshot`], events in canonical
    /// `(time, port)` order (stable, so each port's recording order is
    /// preserved within an instant) — byte-reproducible for a seeded
    /// run, whatever the worker count. Each event names the fabric port
    /// whose tree recorded it (a tree stamps its pool port, which is 0
    /// for every private pool). `None` unless the fabric was built with
    /// [`SwitchBuilder::with_telemetry`].
    pub fn telemetry_snapshot(&self, run: &SwitchRun) -> Option<TelemetrySnapshot> {
        self.telemetry?;
        let mut snap = TelemetrySnapshot::default();
        for (port, tree) in self.ports.iter().enumerate() {
            if let Some(r) = tree.flight_recorder() {
                let from = snap.events.len();
                snap.absorb_recorder(r);
                for ev in &mut snap.events[from..] {
                    ev.port = port as u16;
                }
            }
        }
        snap.sort_events();
        for trace in &run.ports {
            snap.gauges.extend(trace.gauges.iter().cloned());
        }
        Some(snap)
    }

    /// Drain every port on up to `workers` threads, as the module docs'
    /// threading model describes.
    fn drain(&mut self, sims: &mut [SwitchPort], workers: usize) {
        // The shared ports are group 0; each private port is a group of
        // its own.
        let shared = self.shared;
        let first_private = usize::from(shared > 0);
        let workers = workers.clamp(1, first_private + self.ports.len() - shared);
        let mut shards: Vec<Vec<DrainPort>> = (0..workers).map(|_| Vec::new()).collect();
        for (i, (sim, tree)) in sims.iter_mut().zip(&mut self.ports).enumerate() {
            let group = if i < shared {
                0
            } else {
                first_private + i - shared
            };
            shards[group % workers].push((sim, tree, i < shared));
        }
        let (rate_bps, burst) = (self.rate_bps, self.burst);
        let mut shards = shards.into_iter();
        let mine = shards.next().expect("at least one worker");
        // Group 0, and with it the shared pool, stays on this thread.
        let mut pool = self.pool.as_ref().map(SharedPool::lend);
        std::thread::scope(|s| {
            for shard in shards {
                s.spawn(move || drain_in_time_order(shard, None, rate_bps, burst));
            }
            drain_in_time_order(mine, pool.as_mut(), rate_bps, burst);
        });
    }
}

/// One port of a drain: its run state, its tree, and whether the tree
/// buffers in the shared pool.
type DrainPort<'s, 'a> = (&'s mut SwitchPort<'a>, &'s mut ScheduleTree, bool);

/// Run `ports` to completion in `(time, port)` order: always advance the
/// port whose next scheduling round is earliest, ties to the one listed
/// first (the lowest port index), lending the shared ports `pool`, until
/// every port's next round is `Nanos::MAX`. Then take back each tree's
/// path log.
fn drain_in_time_order(
    mut ports: Vec<DrainPort>,
    mut pool: Option<&mut LentPool>,
    rate_bps: u64,
    burst: usize,
) {
    loop {
        let (mut best, mut best_t) = (None, Nanos::MAX);
        for (i, (p, _, _)) in ports.iter().enumerate() {
            if p.sim.t < best_t {
                (best, best_t) = (Some(i), p.sim.t);
            }
        }
        let Some(i) = best else { break };
        let (port, tree, shared) = &mut ports[i];
        let pool = pool.as_deref_mut().filter(|_| *shared);
        port.step(LentTree { tree, pool }, rate_bps, burst);
    }
    for (port, tree, _) in ports {
        port.sim.trace.paths = tree.replace_path_log(PathLog::new());
    }
}

/// One port of [`Switch::run`]: the shared round plus the gauge samples
/// taken around it.
struct SwitchPort<'a> {
    sim: PortSim<'a>,
    /// Scheduling rounds executed so far (drives gauge sampling; counts
    /// the same way on any worker, so sample instants agree).
    rounds: u64,
    /// `Some` when telemetry gauges are being sampled.
    gauges: Option<PortGauges>,
}

/// One port's sampled gauge series and their sampling stride.
struct PortGauges {
    every: u64,
    depth: GaugeSeries,
    occupancy: GaugeSeries,
    inversions: GaugeSeries,
}

impl<'a> SwitchPort<'a> {
    /// A port fed `pending`, whose `tree` is handed a path log sized to
    /// the port's arrival count when the run records paths.
    fn new(
        arrivals: &'a [Packet],
        pending: Vec<u32>,
        tree: &mut ScheduleTree,
        port: usize,
        telemetry: Option<TelemetryConfig>,
    ) -> Self {
        let expect = pending.len();
        let idle = pending.is_empty() && tree.is_empty() && tree.shaped_len() == 0;
        let mut sim = PortSim::new(arrivals, Some(pending));
        if idle {
            sim.t = Nanos::MAX;
        }
        sim.trace.port = port as u16;
        tree.replace_path_log(if telemetry.is_some_and(|c| c.path_records) {
            PathLog::with_capacity(expect)
        } else {
            PathLog::new()
        });
        SwitchPort {
            sim,
            rounds: 0,
            gauges: telemetry.map(|c| PortGauges {
                every: c.sample_every.max(1),
                depth: GaugeSeries::new(format!("port{port}.depth")),
                occupancy: GaugeSeries::new(format!("port{port}.pool_occupancy")),
                inversions: GaugeSeries::new(format!("port{port}.inversions")),
            }),
        }
    }

    /// The finished trace, with the sampled gauge series moved into it.
    fn into_trace(self) -> PortTrace {
        let mut trace = self.sim.trace;
        if let Some(g) = self.gauges {
            trace.gauges = vec![g.depth, g.occupancy];
            if !g.inversions.points.is_empty() {
                trace.gauges.push(g.inversions);
            }
        }
        trace
    }

    /// Run one round on `tree`, then sample its gauges.
    fn step(&mut self, mut tree: LentTree, rate_bps: u64, burst: usize) {
        let t = self.sim.t;
        self.sim.step_round(&mut tree, rate_bps, burst);
        // Sampled after the round: transmission leaves the tree alone,
        // so the values are those at the decision instant `t`, whatever
        // the worker count.
        self.rounds += 1;
        if let Some(g) = &mut self.gauges {
            if self.rounds % g.every == 0 {
                g.depth.push(t, tree.tree.len() as u64);
                g.occupancy.push(t, tree.pool().live() as u64);
                if let Some(s) = tree.tree.inversion_stats() {
                    g.inversions.push(t, s.inversions);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{merge, renumber, CbrSource, IncastSource, TrafficSource};
    use pifo_algos::{Stfq, TokenBucketFilter};
    use pifo_core::transaction::FnTransaction;

    /// A three-hop walk's residences split its wait at each hop's entry.
    #[test]
    fn path_view_splits_the_wait_across_hops() {
        let hop = |node, entered| PathHop {
            node,
            rank: 0,
            depth: 0,
            entered: Nanos(entered),
        };
        let hops = [hop(7, 10), hop(4, 25), hop(0, 40)];
        let view = PathView {
            packet: 42,
            flow: FlowId(1),
            port: 5,
            truncated: false,
            enqueued: Nanos(10),
            departed: Nanos(50),
            hops: &hops,
        };
        assert_eq!(view.wait(), Nanos(40));
        let residences: Vec<Nanos> = (0..3).map(|i| view.residence(i)).collect();
        assert_eq!(residences, [Nanos(15), Nanos(15), Nanos(10)]);
    }

    fn fifo_tree() -> ScheduleTree {
        let mut b = TreeBuilder::new();
        let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
        b.build(Box::new(move |_| root)).unwrap()
    }

    fn workload(flows: u32, end: Nanos) -> Vec<Packet> {
        let mut sources: Vec<Box<dyn TrafficSource>> = Vec::new();
        for f in 0..flows {
            sources.push(Box::new(CbrSource::new(
                FlowId(f),
                1_000,
                2_000_000_000,
                Nanos(17 * f as u64),
                end,
            )));
        }
        sources.push(Box::new(IncastSource::new(
            FlowId(flows),
            32,
            1_000,
            4,
            8_000_000_000,
            Nanos::from_micros(50),
            end,
        )));
        let mut arr = merge(sources);
        renumber(&mut arr);
        arr
    }

    /// Fabric-level inversion tracking: exact backends score zero on
    /// every port; an approximate FIFO backend under priority-inverting
    /// arrivals scores the inversions it actually commits.
    #[test]
    fn inversion_tracking_scores_ports() {
        let build = |backend: PifoBackend, track: bool| {
            let mut sb = SwitchBuilder::new(8_000_000_000);
            if track {
                sb.track_inversions();
            }
            for _ in 0..2 {
                let mut b = TreeBuilder::new();
                b.with_backend(backend);
                let root = b.add_root(
                    "prio",
                    Box::new(FnTransaction::new("prio", |ctx: &EnqCtx| {
                        Rank(ctx.packet.class as u64)
                    })),
                );
                sb.add_port(b.build(Box::new(move |_| root)).unwrap());
            }
            sb.build(Box::new(|p: &Packet| p.flow.0 as usize % 2))
        };
        // Descending classes arriving together: an exact PIFO reverses
        // them; a FIFO transmits them as-is, inverting every pair.
        let arrivals: Vec<Packet> = (0..64u64)
            .map(|i| {
                Packet::new(i, FlowId((i % 2) as u32), 1_000, Nanos(0)).with_class(63 - i as u8)
            })
            .collect();

        let mut untracked = build(PifoBackend::Rifo, false);
        untracked.run(&arrivals, 1);
        assert_eq!(
            untracked.total_inversion_stats(),
            None,
            "tracking is opt-in"
        );

        for backend in PifoBackend::EXACT {
            let mut sw = build(backend, true);
            sw.run(&arrivals, 1);
            let total = sw.total_inversion_stats().expect("tracking enabled");
            assert_eq!(total.dequeues, 64, "{backend}");
            assert_eq!(total.inversions, 0, "{backend} is exact");
            assert_eq!(total.unpifoness, 0, "{backend} is exact");
        }

        let mut sw = build(PifoBackend::Rifo, true);
        sw.run(&arrivals, 1);
        let total = sw.total_inversion_stats().expect("tracking enabled");
        assert_eq!(total.dequeues, 64);
        assert!(total.inversions > 0, "FIFO under inverted load");
        assert!(total.unpifoness > 0);
        for port in 0..sw.num_ports() {
            let s = sw.inversion_stats(port).expect("per-port counters");
            assert!(s.inversions > 0, "port {port} saw inverted arrivals");
        }
    }

    /// Ports are isolated: traffic for one port never shows up on, or
    /// delays, another.
    #[test]
    fn ports_are_isolated() {
        let mut sb = SwitchBuilder::new(8_000_000_000);
        for _ in 0..3 {
            sb.add_port(fifo_tree());
        }
        let mut sw = sb.build(Box::new(|p: &Packet| p.flow.0 as usize));
        // Flood port 0; trickle port 2; nothing for port 1.
        let mut arrivals: Vec<Packet> = (0..100)
            .map(|i| Packet::new(i, FlowId(0), 1_000, Nanos(0)))
            .collect();
        arrivals.push(Packet::new(100, FlowId(2), 1_000, Nanos(5)));
        let run = sw.run(&arrivals, 1);
        assert_eq!(run.ports[0].departures.len(), 100);
        assert_eq!(run.ports[1].departures.len(), 0);
        assert_eq!(run.ports[2].departures.len(), 1);
        // The port-2 packet is not queued behind port 0's flood.
        assert_eq!(run.ports[2].departures[0].start, Nanos(5));
        assert_eq!(run.last_finish(), run.ports[0].departures[99].finish);
    }

    /// Misroutes are counted, not transmitted.
    #[test]
    fn misroutes_are_counted() {
        let mut sb = SwitchBuilder::new(8_000_000_000);
        sb.add_port(fifo_tree());
        let mut sw = sb.build(Box::new(|p: &Packet| p.flow.0 as usize));
        let arrivals = vec![
            Packet::new(0, FlowId(0), 100, Nanos(0)),
            Packet::new(1, FlowId(7), 100, Nanos(1)), // no port 7
        ];
        let run = sw.run(&arrivals, 1);
        assert_eq!(run.misrouted, 1);
        assert_eq!(run.total_departures(), 1);
    }

    /// A stream that steps back in time is refused before any port runs,
    /// wherever the step is.
    #[test]
    #[should_panic(expected = "arrivals must be time-sorted")]
    fn unsorted_arrivals_rejected() {
        let mut sb = SwitchBuilder::new(8_000_000_000);
        sb.add_port(fifo_tree());
        sb.add_port(fifo_tree());
        let mut sw = sb.build(Box::new(|p: &Packet| p.flow.0 as usize % 2));
        let arrivals: Vec<Packet> = [0, 10, 20, 15]
            .into_iter()
            .enumerate()
            .map(|(i, t)| Packet::new(i as u64, FlowId(i as u32), 100, Nanos(t)))
            .collect();
        let _ = sw.run(&arrivals, 1);
    }

    /// Build a flat STFQ port tree inside a shared pool.
    fn pooled_fifo_tree(backend: PifoBackend, pool: PoolHandle) -> ScheduleTree {
        let mut b = TreeBuilder::new();
        b.with_backend(backend);
        let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
        b.build_in_pool(Box::new(move |_| root), pool).unwrap()
    }

    /// One hog port floods a tight shared pool while a victim port
    /// trickles: under the naive shared cap the victim is locked out;
    /// under Choudhury–Hahne dynamic thresholds the hog is fenced and
    /// the victim transmits everything.
    #[test]
    fn shared_pool_dynamic_thresholds_prevent_lockout() {
        let run = |policy: AdmissionPolicy| -> SwitchRun {
            let mut sb = SwitchBuilder::new(1_000_000_000);
            sb.with_shared_pool(64, policy);
            sb.with_burst(4);
            for _ in 0..2 {
                sb.add_shared_port(|pool| pooled_fifo_tree(PifoBackend::default(), pool));
            }
            let mut sw = sb.build(Box::new(|p: &Packet| p.flow.0 as usize % 2));
            // The hog (flow 0 → port 0): 8x oversubscribed CBR — one
            // 1000 B packet per 500 ns against an 8000 ns service time —
            // pins the shared pool at capacity for the whole storm. The
            // victim (flow 1 → port 1) sends a 12-packet burst mid-storm.
            let mut arrivals: Vec<Packet> = (0..400)
                .map(|i| Packet::new(i, FlowId(0), 1_000, Nanos(i * 500)))
                .collect();
            for i in 0..12u64 {
                arrivals.push(Packet::new(400 + i, FlowId(1), 1_000, Nanos(100_000)));
            }
            arrivals.sort_by_key(|p| p.arrival);
            sw.run(&arrivals, 1)
        };

        let naive = run(AdmissionPolicy::Unlimited);
        assert!(
            naive.ports[1].drops > 0,
            "naive shared cap must lock the victim out (got {} drops)",
            naive.ports[1].drops
        );

        let fenced = run(AdmissionPolicy::DynamicThreshold { num: 1, den: 1 });
        assert_eq!(
            fenced.ports[1].drops, 0,
            "dynamic thresholds admit the victim"
        );
        assert_eq!(fenced.ports[1].departures.len(), 12);
        assert!(
            fenced.ports[0].drops > 0,
            "the hog still pays for its oversubscription"
        );
        // Every offered packet is accounted: transmitted or dropped.
        assert_eq!(fenced.total_departures() as u64 + fenced.total_drops(), 412);
        assert_eq!(naive.total_departures() as u64 + naive.total_drops(), 412);
    }

    /// Shared-pool fabrics keep the bit-identity guarantee: per-port
    /// traces agree across worker counts and across backends.
    #[test]
    fn shared_pool_traces_identical_across_modes_and_backends() {
        let end = Nanos::from_micros(200);
        let arrivals = workload(12, end);
        let build = |backend: PifoBackend| {
            let mut sb = SwitchBuilder::new(1_000_000_000);
            sb.with_shared_pool(256, AdmissionPolicy::DynamicThreshold { num: 1, den: 1 });
            for _ in 0..4 {
                sb.add_shared_port(|pool| pooled_fifo_tree(backend, pool));
            }
            sb.with_burst(8);
            sb.build(Box::new(|p: &Packet| p.flow.0 as usize % 4))
        };
        let reference = build(PifoBackend::SortedArray).run(&arrivals, 1);
        assert!(reference.total_drops() > 0, "pool pressure must be real");
        // Cross-backend trace identity is an exact-trio property: the
        // approximate backends legally reorder departures.
        for backend in PifoBackend::EXACT {
            for workers in [1, 2] {
                let run = build(backend).run(&arrivals, workers);
                for (port, (a, b)) in reference.ports.iter().zip(&run.ports).enumerate() {
                    assert_eq!(
                        a.drops, b.drops,
                        "[{backend}/{workers}] port {port} drops diverge"
                    );
                    assert_eq!(
                        a.departures.len(),
                        b.departures.len(),
                        "[{backend}/{workers}] port {port} departure count diverges"
                    );
                    for (x, y) in a.departures.iter().zip(&b.departures) {
                        assert_eq!(x, y, "[{backend}/{workers}] port {port} trace diverges");
                    }
                }
            }
        }
    }

    /// The pool's per-port counters agree with the port traces after a
    /// run, and the pool drains clean.
    #[test]
    fn shared_pool_counters_reconcile_with_traces() {
        let mut sb = SwitchBuilder::new(8_000_000_000);
        sb.with_shared_pool(32, AdmissionPolicy::DynamicThreshold { num: 1, den: 1 });
        for _ in 0..3 {
            sb.add_shared_port(|h| pooled_fifo_tree(PifoBackend::Bucket, h));
        }
        let mut sw = sb.build(Box::new(|p: &Packet| p.flow.0 as usize % 3));
        let arrivals: Vec<Packet> = (0..300)
            .map(|i| Packet::new(i, FlowId((i % 5) as u32), 1_000, Nanos(i / 5)))
            .collect();
        let run = sw.run(&arrivals, 1);

        let pool = sw.pool_of(0);
        let stats = pool.stats();
        assert_eq!(stats.live, 0, "fabric drained: pool must be empty");
        for (port, trace) in run.ports.iter().enumerate() {
            assert_eq!(
                stats.ports[port].rejected, trace.drops,
                "port {port}: pool reject counter vs trace drops"
            );
            assert_eq!(
                stats.ports[port].admitted,
                trace.departures.len() as u64,
                "port {port}: everything admitted eventually departed"
            );
        }
        pool.assert_coherent();
    }

    /// A switch shares only its own pool: a tree built in any other
    /// shared pool is refused at `add_port`, by port.
    #[test]
    #[should_panic(expected = "add_port: port 1 buffers in a shared pool")]
    fn add_port_refuses_a_tree_in_a_shared_pool() {
        let other = SharedPacketPool::unbounded().into_shared();
        let mut sb = SwitchBuilder::new(8_000_000_000);
        sb.add_port(fifo_tree());
        sb.add_port(pooled_fifo_tree(PifoBackend::Heap, other.register_port()));
    }

    /// `pool_of` reads the pool each port's tree buffers in: the
    /// switch's own for the shared ports, the tree's for private ones.
    #[test]
    fn pool_of_is_the_pool_each_tree_buffers_in() {
        let mut sb = SwitchBuilder::new(8_000_000_000);
        sb.with_shared_pool(
            16,
            AdmissionPolicy::PortFlow {
                port: Threshold::Static(4),
                flow: Threshold::Unlimited,
            },
        );
        for _ in 0..2 {
            sb.add_shared_port(|h| pooled_fifo_tree(PifoBackend::Heap, h));
        }
        sb.add_port(fifo_tree());
        let mut sw = sb.build(Box::new(|p: &Packet| p.flow.0 as usize % 3));
        // Six packets per port at one instant: the shared ports reject
        // two each, the unbounded private port none.
        let arrivals: Vec<Packet> = (0..18)
            .map(|i| Packet::new(i, FlowId((i % 3) as u32), 1_000, Nanos(0)))
            .collect();
        let run = sw.run(&arrivals, 1);
        assert_eq!(run.total_drops(), 4);
        for i in 0..3 {
            let via_switch = sw.pool_of(i).stats();
            let via_tree = sw.port(i).pool_handle().pool().stats();
            assert_eq!(via_switch, via_tree, "port {i}");
        }
        let shared = sw.pool_of(0).stats();
        assert_eq!((shared.capacity, shared.ports.len()), (Some(16), 2));
        assert_eq!(shared.ports[1].rejected, 2);
        let private = sw.pool_of(2).stats();
        assert_eq!((private.capacity, private.ports.len()), (None, 1));
        assert_eq!(private.ports[0].admitted, 6);
    }

    /// A shaped port sleeps across shaping gaps instead of spinning, on
    /// one worker or two.
    #[test]
    fn shaped_port_hops_to_release_times() {
        let build = || {
            let mut b = TreeBuilder::new();
            let root = b.add_root(
                "root",
                Box::new(FnTransaction::new("fifo", |ctx: &EnqCtx| {
                    Rank(ctx.now.as_nanos())
                })),
            );
            let leaf = b.add_child(
                root,
                "shaped",
                Box::new(FnTransaction::new("fifo", |ctx: &EnqCtx| {
                    Rank(ctx.now.as_nanos())
                })),
            );
            // 8 Gb/s = 1 B/ns, burst of one 1000 B packet.
            b.set_shaper(leaf, Box::new(TokenBucketFilter::new(8_000_000_000, 1_000)));
            let mut sb = SwitchBuilder::new(80_000_000_000);
            sb.add_port(b.build(Box::new(move |_| leaf)).unwrap());
            sb.build(Box::new(|_: &Packet| 0))
        };
        let arrivals: Vec<Packet> = (0..3)
            .map(|i| Packet::new(i, FlowId(0), 1_000, Nanos(0)))
            .collect();
        let a = build().run(&arrivals, 1);
        let b = build().run(&arrivals, 2);
        for run in [&a, &b] {
            assert_eq!(run.ports[0].departures.len(), 3);
            // Token bucket meters one packet per microsecond after the
            // initial burst.
            assert_eq!(run.ports[0].departures[0].start, Nanos(0));
            assert_eq!(run.ports[0].departures[1].start, Nanos(1_000));
            assert_eq!(run.ports[0].departures[2].start, Nanos(2_000));
        }
    }
}
