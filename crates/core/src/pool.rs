//! The fabric-wide shared packet pool with threshold admission (§5.1, §6.1).
//!
//! The paper's switch serves **all** ports from one shared packet buffer
//! (~60 K packets on the reference chip, §5.1), with buffer management
//! reduced to occupancy counters in front of the enqueue: "Before a
//! packet is enqueued into the scheduler, if any of these counters
//! exceeds a static or dynamic threshold, the packet is dropped" (§6.1).
//!
//! This module is that memory system in software:
//!
//! * [`SharedPacketPool`] owns the single packet slab (a chunked slot
//!   store with a free list and per-slot generation counters) **plus**
//!   the §6.1 counters: per-port occupancy and
//!   admitted/rejected tallies, maintained O(1) on every insert/release,
//!   and per-flow occupancy — a [`FlowMap`] table maintained O(1) when
//!   the policy has a flow-side threshold (the only reader on the packet
//!   path), and not kept at all otherwise.
//! * [`AdmissionPolicy`] decides drops *before* any slab insert:
//!   [`AdmissionPolicy::Unlimited`] (global capacity only — the naive
//!   shared buffer whose lockout pathology motivates §6.1),
//!   [`AdmissionPolicy::Static`] (a fixed per-port cap), and
//!   [`AdmissionPolicy::DynamicThreshold`] (Choudhury–Hahne \[14\]: a
//!   port may hold at most `alpha ×` the *remaining free* space, which
//!   tightens automatically under pressure and guarantees no port can
//!   lock the others out).
//! * [`PoolHandle`] is one port's capability into the pool, and the only
//!   way to insert, probe or release: the scheduling tree holds a handle
//!   instead of owning a slab, so N trees genuinely compete for — and are
//!   protected within — one memory.
//! * [`Threshold`] is the per-entity threshold arithmetic, applied to
//!   ports and (under [`AdmissionPolicy::PortFlow`]) to flows.
//!
//! # Threading model
//!
//! The pool is `Arc`-shared and safe to use from many threads, split by
//! who touches what:
//!
//! * **Writers take one lock.** A `Mutex` guards the ledger: the free
//!   list, the slot high-water mark, the registered ports' counter
//!   blocks and the per-flow table. [`PoolHandle::try_insert`] decides
//!   the §6.1 verdict, claims a slot and bumps the counters in one
//!   critical section; the last [`PoolHandle::release`] of a slot frees
//!   it and settles the counters in another. Every fabric drains a pool
//!   from one thread (`pifo-sim`'s `Switch::run` deals all ports of a
//!   pool to one worker, and the lossless fabric runs on the caller's
//!   thread), so the lock is uncontended.
//! * **Readers take none.** Slab chunks are published once through
//!   [`OnceLock`], each slot carries an atomic generation (even = free,
//!   odd = occupied, so stale handles are detected on access) and
//!   reference count, and the live count and each port's occupancy are
//!   atomics written only under the lock. The crate-private slot read,
//!   [`PoolHandle::retain`], the port-only [`PoolHandle::would_admit`]
//!   probe and the occupancy gauges therefore never lock, and a
//!   `ScheduleTree` reads packet fields straight from the slab at every
//!   level of its walk.
//!
//! A handle may only be dereferenced inside this crate, by a caller that
//! holds (at least) one of the slot's references — the scheduling tree
//! maintains this internally and never exposes a dangling handle.
//! Admission decisions from several threads are serialized by the lock
//! but not externally ordered; the fabric keeps its departure traces
//! deterministic by making shared-pool admission decisions in the global
//! `(time, port)` round order (see `pifo-sim`'s `Switch::run`).
//!
//! Accounting is **checked**: decrementing an occupancy counter that is
//! already zero (a double release) panics in debug builds and increments
//! the visible [`SharedPacketPool::accounting_errors`] counter in release
//! builds, instead of silently saturating.

use crate::packet::{FlowId, FlowMap, Packet};
use core::fmt;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// A 4-byte ticket naming one occupied slot of a [`SharedPacketPool`] —
/// what the scheduling tree's PIFOs circulate instead of packets (§4,
/// Fig 6: the packet is written once into the shared buffer, and PIFO
/// entries carry a pointer to it).
///
/// Handles are only meaningful to the pool that issued them and only
/// until the slot's last reference is released; the scheduling tree keeps
/// this discipline internally and never exposes a dangling handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PktHandle(u32);

impl PktHandle {
    /// Raw slot index (for diagnostics).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PktHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// Per-entity admission threshold — the §6.1 counter comparison, shared
/// by the pool's per-port and per-flow policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Threshold {
    /// No threshold on this entity: only the other gates (global
    /// capacity, the companion threshold of a
    /// [`AdmissionPolicy::PortFlow`] pair) apply.
    #[default]
    Unlimited,
    /// The entity may buffer at most this many packets.
    Static(usize),
    /// The entity may buffer at most `alpha × free_space` packets
    /// (Choudhury–Hahne dynamic thresholds \[14\]; `alpha` as a ratio of
    /// numerator/denominator to stay in integer arithmetic).
    Dynamic {
        /// Numerator of alpha.
        num: usize,
        /// Denominator of alpha.
        den: usize,
    },
}

impl Threshold {
    /// Would an entity currently holding `used` packets be allowed one
    /// more, given `free` unoccupied slots? (The global `free > 0` check
    /// is the caller's — this is only the threshold comparison.)
    pub fn admits(self, used: usize, free: usize) -> bool {
        match self {
            Threshold::Unlimited => true,
            Threshold::Static(t) => used < t,
            Threshold::Dynamic { num, den } => used < (free * num) / den,
        }
    }
}

impl fmt::Display for Threshold {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Threshold::Unlimited => write!(f, "unlimited"),
            Threshold::Static(t) => write!(f, "static({t})"),
            Threshold::Dynamic { num, den } => write!(f, "dynamic({num}/{den})"),
        }
    }
}

/// Fabric-wide admission policy applied per **port** in front of the
/// shared pool (§6.1). See the module docs for the three regimes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// No per-port threshold: only the pool's global capacity gates
    /// admission. One incast port can occupy the entire buffer and lock
    /// every other port out — the tail-drop pathology §6.1's thresholds
    /// exist to prevent. Also the right policy for a sole-owner pool.
    #[default]
    Unlimited,
    /// A fixed per-port cap: a port holding `per_port` packets is
    /// rejected regardless of how empty the rest of the pool is.
    Static {
        /// Maximum packets any one port may hold.
        per_port: usize,
    },
    /// Choudhury–Hahne dynamic thresholds: a port may hold at most
    /// `(num/den) × free_space` packets. As the pool fills, every port's
    /// threshold tightens; because a hog's own occupancy shrinks the free
    /// space it is compared against, the pool converges with headroom
    /// left over and lightly-loaded ports are always admitted.
    DynamicThreshold {
        /// Numerator of alpha.
        num: usize,
        /// Denominator of alpha.
        den: usize,
    },
    /// Combined port × flow admission — the paper's §5.1 "occupancies of
    /// various flows and ports" in one decision. A packet is admitted
    /// only if **both** thresholds pass: the port it targets and the flow
    /// it belongs to (a flow-side threshold is what makes the pool keep
    /// its O(1) flow table; under every other policy it keeps
    /// none). `PortFlow { port: Unlimited, flow: t }` is a per-flow
    /// threshold buffer, and mixed pairs express lossless fabrics where a
    /// port watermark backs a per-flow fairness cap.
    PortFlow {
        /// Threshold applied to the target port's occupancy.
        port: Threshold,
        /// Threshold applied to the packet's flow occupancy (pool-wide).
        flow: Threshold,
    },
}

impl AdmissionPolicy {
    /// Would a port currently holding `used` packets be allowed one more,
    /// given `free` unoccupied slots?
    ///
    /// For [`AdmissionPolicy::PortFlow`] this evaluates the **port side
    /// only** — the flow side needs a flow identity, which this signature
    /// does not carry. Use [`AdmissionPolicy::admits_port_flow`] (or
    /// [`PoolHandle::would_admit_flow`]) for the full verdict.
    pub fn admits(self, used: usize, free: usize) -> bool {
        match self {
            AdmissionPolicy::Unlimited => true,
            AdmissionPolicy::Static { per_port } => Threshold::Static(per_port).admits(used, free),
            AdmissionPolicy::DynamicThreshold { num, den } => {
                Threshold::Dynamic { num, den }.admits(used, free)
            }
            AdmissionPolicy::PortFlow { port, .. } => port.admits(used, free),
        }
    }

    /// The full admission verdict given both occupancies. For the three
    /// port-only policies `flow_used` is ignored and this equals
    /// [`AdmissionPolicy::admits`]; for [`AdmissionPolicy::PortFlow`]
    /// both thresholds must pass.
    pub fn admits_port_flow(self, port_used: usize, flow_used: usize, free: usize) -> bool {
        match self {
            AdmissionPolicy::PortFlow { port, flow } => {
                port.admits(port_used, free) && flow.admits(flow_used, free)
            }
            other => other.admits(port_used, free),
        }
    }

    /// Does this policy consult per-flow occupancy? When true, admission
    /// paths must look up the packet's flow count before deciding.
    pub fn uses_flow_state(self) -> bool {
        matches!(
            self,
            AdmissionPolicy::PortFlow {
                flow: Threshold::Static(_) | Threshold::Dynamic { .. },
                ..
            }
        )
    }

    /// Short stable label for reports (`unlimited` / `static` /
    /// `dynamic` / `port_flow`).
    pub fn label(self) -> &'static str {
        match self {
            AdmissionPolicy::Unlimited => "unlimited",
            AdmissionPolicy::Static { .. } => "static",
            AdmissionPolicy::DynamicThreshold { .. } => "dynamic",
            AdmissionPolicy::PortFlow { .. } => "port_flow",
        }
    }
}

impl fmt::Display for AdmissionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionPolicy::Unlimited => write!(f, "unlimited"),
            AdmissionPolicy::Static { per_port } => write!(f, "static({per_port})"),
            AdmissionPolicy::DynamicThreshold { num, den } => write!(f, "dynamic({num}/{den})"),
            AdmissionPolicy::PortFlow { port, flow } => {
                write!(f, "port_flow(port={port},flow={flow})")
            }
        }
    }
}

/// The most ports one pool will register. Port indices are stored per
/// slot as a `u32`, and fabric layouts beyond this are configuration
/// bugs, not workloads — registration returns
/// [`PoolError::TooManyPorts`] instead of silently truncating the index.
pub const MAX_PORTS: usize = 65_536;

/// Errors surfaced by pool configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// `register_port` would exceed [`MAX_PORTS`].
    TooManyPorts {
        /// The configured limit ([`MAX_PORTS`]).
        limit: usize,
    },
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::TooManyPorts { limit } => {
                write!(f, "pool already has {limit} ports (the maximum)")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// §6.1 counters for one port of the pool: atomics so gauges and
/// port-only probes read them without a lock, written only under the
/// pool's ledger lock.
#[derive(Debug, Default)]
struct PortCounters {
    /// Live slots currently attributed to this port.
    occupancy: AtomicUsize,
    /// Packets ever admitted for this port.
    admitted: AtomicU64,
    /// Packets ever rejected (policy or capacity) for this port.
    rejected: AtomicU64,
}

/// A snapshot of one port's pool counters (see
/// [`SharedPacketPool::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortPoolStats {
    /// Live slots currently attributed to the port.
    pub occupancy: usize,
    /// Packets ever admitted for the port.
    pub admitted: u64,
    /// Packets ever rejected for the port.
    pub rejected: u64,
}

/// A snapshot of the whole pool (see [`SharedPacketPool::stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Live packets across all ports.
    pub live: usize,
    /// The global capacity, if bounded.
    pub capacity: Option<usize>,
    /// One entry per registered port.
    pub ports: Vec<PortPoolStats>,
}

// ---------------------------------------------------------------------------
// The slot store
// ---------------------------------------------------------------------------

/// log2 of the first chunk's slot count.
const CHUNK0_BITS: u32 = 6;

/// Chunk `k` holds `64 << k` slots; 26 chunks cover the whole `u32`
/// handle space.
const NUM_CHUNKS: usize = 26;

/// One slot of the slab. The packet bytes live in an [`UnsafeCell`];
/// exclusive access is guaranteed by the slot lifecycle: a slot is
/// written only by the insert that took it off the free list (or claimed
/// it fresh) under the ledger lock, and moved out only by the release
/// that dropped its last reference.
struct SlotCell {
    /// Lifecycle generation: even = free, odd = occupied. Incremented
    /// under the ledger lock on every transition, so access to a freed or
    /// never-claimed slot is detected.
    gen: AtomicU32,
    /// Reference count; 0 for free slots.
    refs: AtomicU32,
    /// The port the §6.1 counters attribute this slot to. (The flow they
    /// attribute it to is the resident packet's own `flow`.)
    port: AtomicU32,
    packet: UnsafeCell<MaybeUninit<Packet>>,
}

// SAFETY: every field but `packet` is an atomic. `packet` is written only
// by the insert that claimed the free slot under the ledger lock, before
// the `Release` store of an odd `gen` publishes it; it is read in place
// only by callers holding a reference, after an `Acquire` load of that
// odd `gen`; and it is moved out only by the release that took `refs`
// from 1 to 0, so no reader remains. The slot returns to the free list —
// where the next insert can claim it — only under the lock, after the
// move, so the lock orders the move before the next write.
unsafe impl Sync for SlotCell {}

impl SlotCell {
    fn new_free() -> SlotCell {
        SlotCell {
            gen: AtomicU32::new(0),
            refs: AtomicU32::new(0),
            port: AtomicU32::new(0),
            packet: UnsafeCell::new(MaybeUninit::uninit()),
        }
    }
}

/// Map a slot index to its (chunk, offset) pair. Chunk `k` covers
/// indices `[64·(2^k − 1), 64·(2^(k+1) − 1))`.
#[inline]
fn chunk_of(idx: u32) -> (usize, usize) {
    let shifted = (idx as u64) + (1 << CHUNK0_BITS);
    let k = (63 - shifted.leading_zeros() - CHUNK0_BITS) as usize;
    let base = ((1u64 << CHUNK0_BITS) << k) - (1 << CHUNK0_BITS);
    (k, (idx as u64 - base) as usize)
}

/// Everything the pool's writers change, behind its one lock.
#[derive(Default)]
struct Ledger {
    /// Freed slot indices, reused most recently freed first.
    free: Vec<u32>,
    /// Slots ever claimed: the slab's high-water mark.
    claimed: u32,
    /// Registered ports' counter blocks, by port index (each
    /// [`PoolHandle`] shares its own port's block).
    ports: Vec<Arc<PortCounters>>,
    /// Live slots per flow (entries removed at zero, so the table stays
    /// bounded by the instantaneous flow fan-in). Empty forever when the
    /// pool's `track_flows` is off, and then
    /// [`SharedPacketPool::flow_occupancy`] answers `None`.
    flows: FlowMap<usize>,
}

impl Ledger {
    fn flow_count(&self, flow: FlowId) -> usize {
        self.flows.get(&flow).copied().unwrap_or(0)
    }
}

/// The single shared packet slab plus its §6.1 admission counters.
///
/// All mutation goes through a port's [`PoolHandle`], so the counters
/// can never drift from the slab: [`PoolHandle::try_insert`] gates on the
/// [`AdmissionPolicy`] *before* any slab write (a reject hands the
/// caller's packet back by move, unchanged), and [`PoolHandle::release`]
/// settles the port/flow counters — from the port tag stamped in the slot
/// and the packet's flow — exactly when the slot's last reference drops.
/// Each of the two is one O(1) critical section under the pool's one
/// lock, so the pool may be driven from many threads at once (see the
/// module docs for the threading model). The pool itself offers only
/// read-only introspection.
///
/// Use [`SharedPacketPool::into_shared`], then
/// [`register_port`](Self::register_port), to hand out per-port
/// handles.
pub struct SharedPacketPool {
    /// Chunked slot storage: chunk `k` holds `64 << k` slots, allocated
    /// by the first insert that claims an index in it and published to
    /// lock-free readers by its [`OnceLock`].
    chunks: [OnceLock<Box<[SlotCell]>>; NUM_CHUNKS],
    /// The writers' state: free list, high-water mark, ports, flows.
    ledger: Mutex<Ledger>,
    /// Live packets (occupied slots). Written only under `ledger`.
    live: AtomicUsize,
    capacity: Option<usize>,
    policy: AdmissionPolicy,
    /// `policy.uses_flow_state()`, decided once: only a policy with a
    /// flow-side threshold reads per-flow occupancy on the packet path,
    /// so only then is the ledger's flow table maintained.
    track_flows: bool,
    /// Accounting violations detected in release builds (debug builds
    /// panic instead) — see [`Self::accounting_errors`].
    accounting_errors: AtomicU64,
}

impl fmt::Debug for SharedPacketPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedPacketPool")
            .field("live", &self.live())
            .field("capacity", &self.capacity)
            .field("policy", &self.policy)
            .field("ports", &self.num_ports())
            .field("slots", &self.slot_count())
            .finish()
    }
}

/// Decrement an occupancy counter, refusing to go below zero. Callers
/// hold the ledger lock, the counter's only writer, so a load and a store
/// are exact.
fn checked_dec(counter: &AtomicUsize, errors: &AtomicU64, what: &str) {
    match counter.load(Ordering::Relaxed).checked_sub(1) {
        Some(v) => counter.store(v, Ordering::Release),
        None => underflow(errors, what),
    }
}

/// A counter would go below zero: a double release panics in debug
/// builds and bumps `errors` in release builds (the §6.1 counters must
/// never silently saturate — a dynamic threshold computed from a clamped
/// counter admits traffic it should drop).
fn underflow(errors: &AtomicU64, what: &str) {
    if cfg!(debug_assertions) {
        panic!("pool accounting underflow: {what} decremented below zero (double release)");
    }
    errors.fetch_add(1, Ordering::Relaxed);
}

impl SharedPacketPool {
    fn with_capacity_and_policy(capacity: Option<usize>, policy: AdmissionPolicy) -> Self {
        SharedPacketPool {
            chunks: std::array::from_fn(|_| OnceLock::new()),
            ledger: Mutex::default(),
            live: AtomicUsize::new(0),
            capacity,
            policy,
            track_flows: policy.uses_flow_state(),
            accounting_errors: AtomicU64::new(0),
        }
    }

    /// A pool of `capacity` packets under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is zero or a dynamic denominator is zero.
    pub fn new(capacity: usize, policy: AdmissionPolicy) -> Self {
        assert!(capacity > 0, "pool capacity must be positive");
        match policy {
            AdmissionPolicy::DynamicThreshold { den, .. } => {
                assert!(den > 0, "alpha denominator must be positive");
            }
            AdmissionPolicy::PortFlow { port, flow } => {
                for t in [port, flow] {
                    if let Threshold::Dynamic { den, .. } = t {
                        assert!(den > 0, "alpha denominator must be positive");
                    }
                }
            }
            _ => {}
        }
        Self::with_capacity_and_policy(Some(capacity), policy)
    }

    /// An unbounded pool with no per-port threshold — the sole-owner
    /// configuration `TreeBuilder::build` uses when no buffer limit is
    /// set.
    pub fn unbounded() -> Self {
        Self::with_capacity_and_policy(None, AdmissionPolicy::Unlimited)
    }

    /// Register a new port (dense indices from 0) and return its handle.
    ///
    /// # Panics
    ///
    /// Panics if the pool already has [`MAX_PORTS`] ports; use
    /// [`try_register_port`](Self::try_register_port) to handle the
    /// overflow as a typed error.
    pub fn register_port(self: &Arc<Self>) -> PoolHandle {
        self.try_register_port()
            .unwrap_or_else(|e| panic!("register_port: {e}"))
    }

    /// Register a new port and return its handle — or
    /// [`PoolError::TooManyPorts`] when the pool is at [`MAX_PORTS`]
    /// (port indices are stored per slot as `u32`; validation happens
    /// here, at registration, so no later cast can truncate).
    pub fn try_register_port(self: &Arc<Self>) -> Result<PoolHandle, PoolError> {
        let mut ledger = self.ledger();
        if ledger.ports.len() >= MAX_PORTS {
            return Err(PoolError::TooManyPorts { limit: MAX_PORTS });
        }
        let counters = Arc::new(PortCounters::default());
        ledger.ports.push(Arc::clone(&counters));
        Ok(PoolHandle {
            pool: Arc::clone(self),
            counters,
            port: (ledger.ports.len() - 1) as u32,
        })
    }

    /// Wrap the pool for sharing across ports.
    pub fn into_shared(self) -> SharedPool {
        Arc::new(self)
    }

    fn ledger(&self) -> MutexGuard<'_, Ledger> {
        self.ledger
            .lock()
            .expect("pool ledger poisoned by a panicking writer")
    }

    /// The slot at `idx`, or `None` when its chunk was never allocated.
    #[inline]
    fn slot(&self, idx: u32) -> Option<&SlotCell> {
        let (k, off) = chunk_of(idx);
        self.chunks[k].get().map(|chunk| &chunk[off])
    }

    /// The occupied slot `handle` names; a freed or never-claimed one
    /// panics with `what`.
    #[inline]
    fn occupied(&self, handle: PktHandle, what: &str) -> &SlotCell {
        match self.slot(handle.0) {
            Some(slot) if slot.gen.load(Ordering::Acquire) & 1 == 1 => slot,
            _ => panic!("{what} {handle}"),
        }
    }

    /// Take the most recently freed slot, or claim a fresh one (growing
    /// the slab by a chunk when the index starts one).
    fn claim(&self, ledger: &mut Ledger) -> (u32, &SlotCell) {
        let idx = ledger.free.pop().unwrap_or_else(|| {
            let idx = ledger.claimed;
            assert!(idx != u32::MAX, "packet pool exceeds u32 slots");
            ledger.claimed += 1;
            idx
        });
        let (k, off) = chunk_of(idx);
        let chunk = self.chunks[k].get_or_init(|| {
            (0..(1usize << CHUNK0_BITS) << k)
                .map(|_| SlotCell::new_free())
                .collect()
        });
        (idx, &chunk[off])
    }

    /// The §6.1 verdict for a port holding `counters.occupancy` packets:
    /// global capacity, then the port threshold, then — when the flow's
    /// occupancy is given — the flow threshold. The one copy behind
    /// `try_insert` and both `would_admit*` probes.
    fn admits(&self, counters: &PortCounters, flow_used: Option<usize>) -> bool {
        let live = self.live.load(Ordering::Acquire);
        let free = match self.capacity {
            Some(cap) if live >= cap => return false,
            Some(cap) => cap - live,
            None => usize::MAX,
        };
        let used = counters.occupancy.load(Ordering::Acquire);
        match flow_used {
            Some(flow_used) => self.policy.admits_port_flow(used, flow_used, free),
            // Port side only; for a policy without a flow side that *is*
            // the full verdict.
            None => self.policy.admits(used, free),
        }
    }

    /// The verdict [`try_insert_with`](Self::try_insert_with) would reach
    /// right now, without counting a reject. Only a named `flow` under a
    /// flow-side threshold reads the flow table, so only it locks.
    fn probe(&self, counters: &PortCounters, flow: Option<FlowId>) -> bool {
        match flow {
            Some(flow) if self.track_flows => {
                let ledger = self.ledger();
                self.admits(counters, Some(ledger.flow_count(flow)))
            }
            _ => self.admits(counters, None),
        }
    }

    /// The insert path behind [`PoolHandle::try_insert`]: verdict, slot
    /// claim and counter updates in one critical section. The lock holder
    /// is the counters' only writer, so each bump is a load and a store,
    /// not a read-modify-write.
    fn try_insert_with(
        &self,
        counters: &PortCounters,
        port: u32,
        packet: Packet,
    ) -> Result<PktHandle, Packet> {
        let mut ledger = self.ledger();
        let flow = packet.flow;
        let flow_used = self.track_flows.then(|| ledger.flow_count(flow));
        if !self.admits(counters, flow_used) {
            let rejected = counters.rejected.load(Ordering::Relaxed);
            counters.rejected.store(rejected + 1, Ordering::Relaxed);
            return Err(packet);
        }
        let (idx, slot) = self.claim(&mut ledger);
        let gen = slot.gen.load(Ordering::Acquire);
        debug_assert_eq!(gen & 1, 0, "claimed occupied slot");
        debug_assert_eq!(slot.refs.load(Ordering::Acquire), 0);
        // SAFETY: the slot is free and was claimed under the lock this
        // thread holds, so no other thread writes it and no reference
        // reads it until the `gen` store below publishes it.
        unsafe { (*slot.packet.get()).write(packet) };
        slot.port.store(port, Ordering::Relaxed);
        slot.refs.store(1, Ordering::Relaxed);
        // even -> odd: occupied. The `Release` pairs with the `Acquire`
        // loads of `gen` in `get`/`retain`/`release_with`, publishing the
        // packet bytes and the port tag written above.
        slot.gen.store(gen.wrapping_add(1), Ordering::Release);
        let live = self.live.load(Ordering::Relaxed);
        self.live.store(live + 1, Ordering::Release);
        let used = counters.occupancy.load(Ordering::Relaxed);
        counters.occupancy.store(used + 1, Ordering::Release);
        let admitted = counters.admitted.load(Ordering::Relaxed);
        counters.admitted.store(admitted + 1, Ordering::Relaxed);
        if self.track_flows {
            *ledger.flows.entry(flow).or_insert(0) += 1;
        }
        Ok(PktHandle(idx))
    }

    /// The slot read behind [`PoolHandle::get`]. The caller's reference
    /// is what keeps the slot from being freed or reused underneath the
    /// returned borrow.
    fn get(&self, handle: PktHandle) -> &Packet {
        let slot = self.occupied(handle, "stale packet handle");
        // SAFETY: the slot is occupied and the caller holds a reference,
        // so no thread can free (and therefore rewrite) it while the
        // returned borrow lives.
        unsafe { (*slot.packet.get()).assume_init_ref() }
    }

    /// The reference bump behind [`PoolHandle::retain`].
    fn retain(&self, handle: PktHandle) {
        let slot = self.occupied(handle, "retain of stale packet handle");
        slot.refs.fetch_add(1, Ordering::AcqRel);
    }

    /// The release path behind [`PoolHandle::release`], given the
    /// releasing handle's port and counter block: when the slot was
    /// inserted through that port (always, for a tree) the occupancy
    /// settles on the cached block without a port-table lookup.
    fn release_with(
        &self,
        handle: PktHandle,
        own_port: u32,
        own_counters: &PortCounters,
    ) -> Option<Packet> {
        let slot = self.occupied(handle, "release of stale packet handle");
        // Checked decrement: a reference count already at zero means a
        // double release raced the slot's teardown.
        match slot
            .refs
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |r| r.checked_sub(1))
        {
            Ok(1) => {}
            Ok(_) => return None, // other holders remain
            Err(_) => {
                if cfg!(debug_assertions) {
                    panic!("double release of packet handle {handle}");
                }
                self.accounting_errors.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        }
        // SAFETY: we observed the count go 1 -> 0, so no reference
        // remains and this thread is the slot's sole owner until the
        // ledger takes it back below.
        let packet = unsafe { (*slot.packet.get()).assume_init_read() };
        let port = slot.port.load(Ordering::Relaxed);
        let mut ledger = self.ledger();
        // odd -> even: free. The `Release` pairs with the `Acquire` loads
        // that reject stale handles.
        let gen = slot.gen.load(Ordering::Relaxed);
        slot.gen.store(gen.wrapping_add(1), Ordering::Release);
        ledger.free.push(handle.0);
        let errors = &self.accounting_errors;
        checked_dec(&self.live, errors, "pool live");
        let occupancy = if port == own_port {
            &own_counters.occupancy
        } else {
            &ledger.ports[port as usize].occupancy
        };
        checked_dec(occupancy, errors, "port occupancy");
        if self.track_flows {
            // Checked, and the entry goes at zero so idle flows cost
            // nothing.
            match ledger.flows.get_mut(&packet.flow) {
                Some(c) if *c > 1 => *c -= 1,
                Some(_) => {
                    ledger.flows.remove(&packet.flow);
                }
                None => underflow(errors, "flow occupancy"),
            }
        }
        Some(packet)
    }

    /// Number of references currently held on `handle`'s slot (0 for a
    /// free slot). For tests and diagnostics.
    pub fn ref_count(&self, handle: PktHandle) -> usize {
        match self.slot(handle.0) {
            Some(slot) if slot.gen.load(Ordering::Acquire) & 1 == 1 => {
                slot.refs.load(Ordering::Acquire) as usize
            }
            _ => 0,
        }
    }

    /// Live packets across all ports.
    pub fn live(&self) -> usize {
        self.live.load(Ordering::Acquire)
    }

    /// True when no packet is resident.
    pub fn is_empty(&self) -> bool {
        self.live() == 0
    }

    /// The global capacity, if bounded.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Unoccupied slots under the global capacity (`usize::MAX` when
    /// unbounded) — the `free_space` the dynamic threshold compares
    /// against.
    pub fn free_space(&self) -> usize {
        match self.capacity {
            Some(cap) => cap.saturating_sub(self.live()),
            None => usize::MAX,
        }
    }

    /// The admission policy in force.
    pub fn policy(&self) -> AdmissionPolicy {
        self.policy
    }

    /// Number of registered ports.
    pub fn num_ports(&self) -> usize {
        self.ledger().ports.len()
    }

    /// Total slots ever claimed (high-water mark of the working set).
    pub fn slot_count(&self) -> usize {
        self.ledger().claimed as usize
    }

    /// Live slots currently attributed to `port`.
    pub fn port_occupancy(&self, port: usize) -> usize {
        self.ledger().ports[port].occupancy.load(Ordering::Acquire)
    }

    /// Packets ever admitted for `port`.
    pub fn port_admitted(&self, port: usize) -> u64 {
        self.ledger().ports[port].admitted.load(Ordering::Relaxed)
    }

    /// Packets ever rejected for `port` (threshold or capacity).
    pub fn port_rejected(&self, port: usize) -> u64 {
        self.ledger().ports[port].rejected.load(Ordering::Relaxed)
    }

    /// Live slots currently holding packets of `flow`, O(1) from the flow
    /// table — or `None` when the policy has no flow-side threshold
    /// ([`AdmissionPolicy::uses_flow_state`]), because then nothing reads
    /// per-flow occupancy and the pool keeps no flow table.
    pub fn flow_occupancy(&self, flow: FlowId) -> Option<usize> {
        self.track_flows.then(|| self.ledger().flow_count(flow))
    }

    /// Accounting violations detected so far (double releases and other
    /// counter underflows). Debug builds panic at the violation site
    /// instead, so this is only ever non-zero in release builds; a
    /// healthy pool reports 0 forever.
    pub fn accounting_errors(&self) -> u64 {
        self.accounting_errors.load(Ordering::Relaxed)
    }

    /// A copyable snapshot of the pool-wide and per-port counters.
    pub fn stats(&self) -> PoolStats {
        let ledger = self.ledger();
        PoolStats {
            live: self.live(),
            capacity: self.capacity(),
            ports: ledger
                .ports
                .iter()
                .map(|p| PortPoolStats {
                    occupancy: p.occupancy.load(Ordering::Acquire),
                    admitted: p.admitted.load(Ordering::Relaxed),
                    rejected: p.rejected.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }

    /// Check counter/slab coherence: per-port occupancies sum to the
    /// slab's live count, the free list holds exactly the free slots, no
    /// accounting errors were recorded, and the flow table agrees with
    /// the resident packets' flows — entry for entry (and in total) when
    /// the policy keeps it, empty when it does not.
    /// O(slots); for tests, and **quiescent only** — the walk reads
    /// resident packets, so no reference may be released during it.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violation found.
    pub fn assert_coherent(&self) {
        let ledger = self.ledger();
        let claimed = ledger.claimed;
        // The free list must hold every free slot, and only those, once.
        let mut on_free_list = vec![false; claimed as usize];
        for &idx in &ledger.free {
            assert!(idx < claimed, "free list points out of range");
            let seen = std::mem::replace(&mut on_free_list[idx as usize], true);
            assert!(!seen, "free list holds slot {idx} twice");
        }
        let mut occupied = 0usize;
        let mut by_flow_tag: FlowMap<usize> = FlowMap::default();
        for idx in 0..claimed {
            let slot = self
                .slot(idx)
                .expect("claimed slot in an unallocated chunk");
            let is_free = slot.gen.load(Ordering::Acquire) & 1 == 0;
            assert_eq!(
                on_free_list[idx as usize], is_free,
                "slot {idx}: on the free list iff free"
            );
            if is_free {
                assert_eq!(
                    slot.refs.load(Ordering::Acquire),
                    0,
                    "free slot {idx} holds references"
                );
            } else {
                occupied += 1;
                *by_flow_tag
                    .entry(self.get(PktHandle(idx)).flow)
                    .or_insert(0) += 1;
                assert!(
                    slot.refs.load(Ordering::Acquire) > 0,
                    "occupied slot {idx} has zero references"
                );
                assert!(
                    (slot.port.load(Ordering::Relaxed) as usize) < ledger.ports.len().max(1),
                    "occupied slot {idx} attributed to unregistered port"
                );
            }
        }
        assert_eq!(self.live(), occupied, "live counter diverged from slots");
        let by_port: usize = ledger
            .ports
            .iter()
            .map(|p| p.occupancy.load(Ordering::Acquire))
            .sum();
        assert_eq!(
            by_port,
            self.live(),
            "per-port occupancies diverged from the slab"
        );
        assert!(
            self.track_flows || ledger.flows.is_empty(),
            "flow table populated under a policy that never reads it"
        );
        for (flow, &count) in &ledger.flows {
            assert_eq!(
                Some(&count),
                by_flow_tag.get(flow),
                "flow table entry for {flow} diverged from the resident packets"
            );
        }
        if self.track_flows {
            assert_eq!(
                ledger.flows.values().sum::<usize>(),
                self.live(),
                "per-flow occupancies diverged from the slab"
            );
        }
        assert_eq!(
            self.accounting_errors(),
            0,
            "pool recorded accounting errors"
        );
    }
}

/// A shared [`SharedPacketPool`], for registering ports and reading
/// fabric-level statistics.
///
/// ```
/// use pifo_core::pool::{AdmissionPolicy, SharedPacketPool};
///
/// let pool = SharedPacketPool::new(8, AdmissionPolicy::DynamicThreshold { num: 1, den: 1 })
///     .into_shared();
/// let port_a = pool.register_port();
/// let port_b = pool.register_port();
/// assert_eq!((port_a.port(), port_b.port()), (0, 1));
/// assert_eq!(pool.stats().capacity, Some(8));
/// ```
pub type SharedPool = Arc<SharedPacketPool>;

/// One port's capability into a [`SharedPacketPool`] — what a
/// `ScheduleTree` holds in place of a private slab.
///
/// All slab traffic flows through the handle, which supplies the port
/// identity for the §6.1 counters (and caches the port's counter block,
/// so the hot path never looks the port up). Handles may be cloned (e.g.
/// to probe occupancy from outside the tree); the clone refers to the
/// same port. Handles are `Send` — a tree and its handle can migrate to a
/// worker thread together.
///
/// Borrowing a resident packet is crate-private: a borrow is sound only
/// while its holder keeps a reference to the slot, which the scheduling
/// tree does and nothing outside this crate could be held to. So safe
/// code cannot keep a borrow across the slot's release and read the
/// next packet through it:
///
/// ```compile_fail
/// use pifo_core::pool::{AdmissionPolicy, SharedPacketPool};
/// use pifo_core::prelude::*;
///
/// let pool = SharedPacketPool::new(1, AdmissionPolicy::DynamicThreshold { num: 1, den: 1 })
///     .into_shared();
/// let h = pool.register_port();
/// let a = h.try_insert(Packet::new(1, FlowId(0), 100, Nanos(0))).unwrap();
/// let first = h.get(a); // error: `get` is private
/// h.release(a);
/// h.try_insert(Packet::new(2, FlowId(0), 100, Nanos(0))).unwrap();
/// assert_eq!(first.id.0, 1);
/// ```
#[derive(Debug, Clone)]
pub struct PoolHandle {
    pool: Arc<SharedPacketPool>,
    /// This port's counter block (the same `Arc` the pool's table
    /// holds).
    counters: Arc<PortCounters>,
    port: u32,
}

impl PoolHandle {
    /// A handle to a fresh single-port pool — the private-slab
    /// configuration: `capacity` is the only admission gate, exactly like
    /// the per-tree slab it replaced.
    pub fn sole_owner(capacity: Option<usize>) -> PoolHandle {
        let pool = match capacity {
            Some(cap) => SharedPacketPool::new(cap, AdmissionPolicy::Unlimited),
            None => SharedPacketPool::unbounded(),
        };
        pool.into_shared().register_port()
    }

    /// This handle's port index within the pool.
    pub fn port(&self) -> usize {
        self.port as usize
    }

    /// The shared pool this handle belongs to (for fabric-level stats).
    pub fn shared_pool(&self) -> SharedPool {
        Arc::clone(&self.pool)
    }

    /// The pool itself (slab occupancy, coherence checks, counters).
    pub fn pool(&self) -> &SharedPacketPool {
        &self.pool
    }

    /// Insert `packet` for this port, with one reference, returning its
    /// handle — or the packet itself, unchanged, when the global capacity
    /// or the policy's port (or flow) threshold rejects it. The reject is
    /// tallied against this port.
    pub fn try_insert(&self, packet: Packet) -> Result<PktHandle, Packet> {
        self.pool.try_insert_with(&self.counters, self.port, packet)
    }

    /// Would a packet for this port be admitted right now? The port side
    /// of the [`try_insert`](Self::try_insert) verdict, without counting
    /// a reject. Under concurrent mutation this is advisory — another
    /// thread may change the answer before you act on it.
    pub fn would_admit(&self) -> bool {
        self.pool.probe(&self.counters, None)
    }

    /// Would a packet of `flow` for this port be admitted right now? The
    /// full [`try_insert`](Self::try_insert) verdict — global capacity,
    /// port threshold, *and* flow threshold for a
    /// [`AdmissionPolicy::PortFlow`] policy (for port-only policies it
    /// equals [`would_admit`](Self::would_admit)). The same advisory
    /// caveat applies; the lossless fabric gates ingress on it serially
    /// in round order, where it is exact.
    pub fn would_admit_flow(&self, flow: FlowId) -> bool {
        self.pool.probe(&self.counters, Some(flow))
    }

    /// Borrow the packet in `handle`'s slot. The borrow is
    /// generation-checked: accessing a fully released slot panics.
    /// Callers must hold one of the slot's references for the duration
    /// of the borrow (the scheduling tree's standing discipline), which
    /// is why only this crate may call it.
    pub(crate) fn get(&self, handle: PktHandle) -> &Packet {
        self.pool.get(handle)
    }

    /// Add one reference to `handle`'s slot (the §6.1 counters track
    /// *slots*, so this changes no counter).
    ///
    /// # Panics
    ///
    /// Panics if the slot is free.
    pub fn retain(&self, handle: PktHandle) {
        self.pool.retain(handle);
    }

    /// Drop one reference to `handle`'s slot. When it was the last, the
    /// packet moves out, the slot frees, and the inserting port's and
    /// flow's occupancy counters are decremented — in O(1), whichever
    /// port's handle releases it.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already free (a stale handle), and — in
    /// debug builds — on any accounting underflow the release would
    /// cause; release builds tally underflows in
    /// [`SharedPacketPool::accounting_errors`] instead.
    pub fn release(&self, handle: PktHandle) -> Option<Packet> {
        self.pool.release_with(handle, self.port, &self.counters)
    }

    /// Live packets across the whole pool (all ports).
    pub fn pool_live(&self) -> usize {
        self.pool.live()
    }

    /// Live slots currently attributed to this port.
    pub fn occupancy(&self) -> usize {
        self.counters.occupancy.load(Ordering::Acquire)
    }

    /// Packets ever rejected for this port.
    pub fn rejected(&self) -> u64 {
        self.counters.rejected.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Nanos;

    fn pkt(id: u64, flow: u32) -> Packet {
        Packet::new(id, FlowId(flow), 1_000, Nanos(id))
    }

    #[test]
    fn sole_owner_pool_matches_private_slab_semantics() {
        let h = PoolHandle::sole_owner(Some(2));
        let a = h.try_insert(pkt(0, 1)).unwrap();
        let _b = h.try_insert(pkt(1, 2)).unwrap();
        // At capacity: the rejected packet comes back unchanged, by move.
        let back = h.try_insert(pkt(2, 3)).unwrap_err();
        assert_eq!(back.id.0, 2);
        assert_eq!(h.rejected(), 1);
        assert_eq!(h.occupancy(), 2);
        let out = h.release(a).expect("sole reference");
        assert_eq!(out.id.0, 0);
        assert_eq!(h.occupancy(), 1);
        assert!(h.would_admit());
        h.shared_pool().assert_coherent();
    }

    /// Alpha = 1 converges at half the capacity, whether the dynamic
    /// threshold sits on the port side (one hog port) or on the flow
    /// side (one hog flow); either way the other port or flow still gets
    /// in.
    #[test]
    fn dynamic_threshold_caps_a_hog_but_admits_a_light_port() {
        let port_side = AdmissionPolicy::DynamicThreshold { num: 1, den: 1 };
        let flow_side = AdmissionPolicy::PortFlow {
            port: Threshold::Unlimited,
            flow: Threshold::Dynamic { num: 1, den: 1 },
        };
        for (policy, light_port) in [(port_side, true), (flow_side, false)] {
            let pool = SharedPacketPool::new(8, policy).into_shared();
            let hog = pool.register_port();
            let light = if light_port {
                pool.register_port()
            } else {
                hog.clone()
            };
            // The hog fills until its occupancy reaches the shrinking free
            // space: with alpha = 1 it converges at half the buffer.
            let mut admitted = 0;
            let mut id = 0;
            while hog.would_admit_flow(FlowId(1)) {
                hog.try_insert(pkt(id, 1)).unwrap();
                id += 1;
                admitted += 1;
                assert!(admitted <= 8, "{policy}: must converge");
            }
            assert_eq!(admitted, 4, "{policy}: alpha=1 -> at most half the buffer");
            assert!(hog.try_insert(pkt(id, 1)).is_err(), "{policy}");
            // Lockout prevented: the light port (or flow) still gets in.
            assert!(light.would_admit_flow(FlowId(2)), "{policy}");
            light.try_insert(pkt(id + 1, 2)).unwrap();
            assert_eq!(pool.stats().live, 5, "{policy}");
            pool.assert_coherent();
        }
    }

    /// Capacity is a hard limit whatever the thresholds say: with no
    /// port threshold, or under a generous flow threshold, a hog can own
    /// every slot, and only a release lets the victim back in.
    #[test]
    fn unlimited_policy_allows_full_lockout() {
        let generous_flow = AdmissionPolicy::PortFlow {
            port: Threshold::Unlimited,
            flow: Threshold::Static(100),
        };
        for policy in [AdmissionPolicy::Unlimited, generous_flow] {
            let pool = SharedPacketPool::new(4, policy).into_shared();
            let hog = pool.register_port();
            let victim = pool.register_port();
            let held: Vec<PktHandle> = (0..4)
                .map(|id| hog.try_insert(pkt(id, 1)).unwrap())
                .collect();
            // The naive shared cap lets the hog own every slot.
            assert!(
                !victim.would_admit_flow(FlowId(2)),
                "{policy}: victim locked out"
            );
            assert!(victim.try_insert(pkt(9, 2)).is_err(), "{policy}");
            assert_eq!(victim.rejected(), 1, "{policy}");
            hog.release(held[0]).expect("sole reference");
            assert!(
                victim.would_admit_flow(FlowId(2)),
                "{policy}: a release reopens"
            );
            victim.try_insert(pkt(10, 2)).unwrap();
            pool.assert_coherent();
        }
    }

    #[test]
    fn static_policy_caps_each_port_independently() {
        let pool =
            SharedPacketPool::new(100, AdmissionPolicy::Static { per_port: 2 }).into_shared();
        let a = pool.register_port();
        let b = pool.register_port();
        a.try_insert(pkt(0, 1)).unwrap();
        a.try_insert(pkt(1, 1)).unwrap();
        assert!(a.try_insert(pkt(2, 1)).is_err(), "third on port A dropped");
        assert!(b.would_admit(), "port B unaffected");
        b.try_insert(pkt(3, 2)).unwrap();
        assert_eq!(pool.port_occupancy(0), 2);
        assert_eq!(pool.port_occupancy(1), 1);
        assert_eq!(
            pool.flow_occupancy(FlowId(1)),
            None,
            "a port-only policy keeps no flow counts"
        );
    }

    #[test]
    fn release_settles_the_inserting_ports_counters() {
        // A flow-side threshold, so the pool keeps flow counts too.
        let policy = AdmissionPolicy::PortFlow {
            port: Threshold::Unlimited,
            flow: Threshold::Static(8),
        };
        let pool = SharedPacketPool::new(8, policy).into_shared();
        let a = pool.register_port();
        let b = pool.register_port();
        let ha = a.try_insert(pkt(0, 7)).unwrap();
        let _hb = b.try_insert(pkt(1, 7)).unwrap();
        assert_eq!(pool.flow_occupancy(FlowId(7)), Some(2));
        // Releasing through *either* handle settles against port A — the
        // pool remembers which port owns the slot.
        b.release(ha).expect("sole reference");
        assert_eq!(pool.port_occupancy(0), 0);
        assert_eq!(pool.port_occupancy(1), 1);
        assert_eq!(pool.flow_occupancy(FlowId(7)), Some(1));
        pool.assert_coherent();
    }

    #[test]
    fn retained_slot_counts_until_last_release() {
        let h = PoolHandle::sole_owner(Some(4));
        let a = h.try_insert(pkt(0, 1)).unwrap();
        h.retain(a);
        assert!(h.release(a).is_none(), "one holder remains");
        assert_eq!(h.occupancy(), 1, "slot still counted");
        let p = h.release(a).expect("last reference");
        assert_eq!(p.id.0, 0);
        assert_eq!(h.occupancy(), 0);
    }

    /// Draining reopens the threshold (free space grows *and* own
    /// occupancy shrinks), on the port side and on the flow side alike.
    #[test]
    fn freed_space_reopens_a_dynamic_threshold() {
        for policy in [
            AdmissionPolicy::DynamicThreshold { num: 1, den: 1 },
            AdmissionPolicy::PortFlow {
                port: Threshold::Unlimited,
                flow: Threshold::Dynamic { num: 1, den: 1 },
            },
        ] {
            let pool = SharedPacketPool::new(8, policy).into_shared();
            let h = pool.register_port();
            let mut handles = Vec::new();
            let mut id = 0;
            while h.would_admit_flow(FlowId(1)) {
                handles.push(h.try_insert(pkt(id, 1)).unwrap());
                id += 1;
            }
            assert!(h.try_insert(pkt(99, 1)).is_err(), "{policy}");
            h.release(handles.pop().unwrap());
            h.release(handles.pop().unwrap());
            assert!(h.would_admit_flow(FlowId(1)), "{policy}");
            h.try_insert(pkt(100, 1)).unwrap();
        }
    }

    #[test]
    fn slots_are_reused_after_release() {
        let h = PoolHandle::sole_owner(None);
        let a = h.try_insert(pkt(0, 1)).unwrap();
        let _b = h.try_insert(pkt(1, 1)).unwrap();
        h.release(a);
        let c = h.try_insert(pkt(2, 1)).unwrap();
        assert_eq!(c.index(), a.index(), "freed slot is reused first");
        assert_eq!(h.pool().slot_count(), 2, "no growth while free slots exist");
        h.pool().assert_coherent();
    }

    #[test]
    fn slab_grows_across_chunk_boundaries() {
        // Chunk 0 holds 64 slots; pushing past it exercises chunk
        // allocation and the index → (chunk, offset) mapping.
        let h = PoolHandle::sole_owner(None);
        let handles: Vec<_> = (0..200)
            .map(|i| h.try_insert(pkt(i, (i % 7) as u32)).unwrap())
            .collect();
        assert_eq!(h.pool_live(), 200);
        for (i, &hd) in handles.iter().enumerate() {
            assert_eq!(h.get(hd).id.0, i as u64);
        }
        h.pool().assert_coherent();
        for hd in handles {
            h.release(hd);
        }
        assert_eq!(h.pool_live(), 0);
        h.pool().assert_coherent();
    }

    #[test]
    #[should_panic(expected = "stale packet handle")]
    fn stale_handle_panics() {
        let h = PoolHandle::sole_owner(None);
        let a = h.try_insert(pkt(0, 1)).unwrap();
        h.release(a);
        let _ = h.get(a);
    }

    /// A handle whose index was never claimed reads as stale through the
    /// chunk lookup — past the high-water mark inside an allocated chunk
    /// (index 1) or inside a chunk never allocated (64 starts chunk 1) —
    /// and never reaches uninitialised packet bytes.
    #[test]
    fn never_claimed_handles_panic_as_stale() {
        let h = PoolHandle::sole_owner(None);
        let _a = h.try_insert(pkt(0, 1)).unwrap();
        for idx in [1, 64] {
            let never = PktHandle(idx);
            assert_eq!(h.pool().ref_count(never), 0);
            let reads: [&dyn Fn(); 3] = [
                &|| {
                    let _ = h.get(never);
                },
                &|| h.retain(never),
                &|| {
                    let _ = h.release(never);
                },
            ];
            for read in reads {
                let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(read))
                    .expect_err("a never-claimed handle must panic");
                let msg = err.downcast_ref::<String>().expect("formatted panic");
                assert!(msg.contains("stale packet handle"), "h{idx}: {msg}");
            }
        }
        h.pool().assert_coherent();
    }

    /// The property the pool's threading model rests on, stated by the
    /// compiler rather than by hand.
    #[test]
    fn pool_and_handle_are_send_and_sync() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<SharedPacketPool>();
        send_sync::<PoolHandle>();
    }

    #[test]
    fn double_release_of_freed_slot_is_detected() {
        // First release frees the slot; the second must be detected as a
        // stale handle, not silently clamp any counter.
        let h = PoolHandle::sole_owner(Some(4));
        let a = h.try_insert(pkt(0, 1)).unwrap();
        h.release(a).expect("sole reference");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.release(a)));
        assert!(err.is_err(), "double release must not be silent");
        assert_eq!(h.occupancy(), 0, "counters unaffected by the bad release");
        h.pool().assert_coherent();
    }

    #[test]
    fn port_registration_has_a_typed_overflow_error() {
        let pool = SharedPacketPool::new(4, AdmissionPolicy::Unlimited).into_shared();
        for _ in 0..MAX_PORTS {
            pool.try_register_port().expect("below the limit");
        }
        assert_eq!(pool.num_ports(), MAX_PORTS);
        // The boundary: one more is a typed error, not a truncated index.
        assert_eq!(
            pool.try_register_port().unwrap_err(),
            PoolError::TooManyPorts { limit: MAX_PORTS }
        );
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.register_port()));
        assert!(err.is_err(), "the panicking variant reports it too");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_pool_rejected() {
        let _ = SharedPacketPool::new(0, AdmissionPolicy::Unlimited);
    }

    #[test]
    #[should_panic(expected = "denominator must be positive")]
    fn zero_alpha_denominator_rejected() {
        let _ = SharedPacketPool::new(4, AdmissionPolicy::DynamicThreshold { num: 1, den: 0 });
    }

    #[test]
    fn port_flow_policy_gates_on_both_occupancies() {
        let pool = SharedPacketPool::new(
            16,
            AdmissionPolicy::PortFlow {
                port: Threshold::Static(8),
                flow: Threshold::Static(2),
            },
        )
        .into_shared();
        let port = pool.register_port();
        // Flow 1 is admitted twice, then capped — while flow 2 (same
        // port) is still admitted: the cap is per flow, not per port.
        let a = port.try_insert(pkt(0, 1)).expect("first of flow 1");
        let _b = port.try_insert(pkt(1, 1)).expect("second of flow 1");
        assert!(!port.would_admit_flow(FlowId(1)), "flow 1 at cap");
        assert!(port.would_admit_flow(FlowId(2)), "flow 2 unaffected");
        assert!(port.try_insert(pkt(2, 1)).is_err(), "flow 1 rejected");
        let _c = port.try_insert(pkt(3, 2)).expect("flow 2 admitted");
        assert_eq!(port.rejected(), 1, "the flow-side reject is tallied");
        // Releasing a flow-1 packet reopens the flow threshold.
        port.release(a);
        assert!(port.would_admit_flow(FlowId(1)), "cap reopened");
        // The port-only probe ignores the flow side by design.
        assert!(port.would_admit(), "port side is under its threshold");
    }

    #[test]
    fn would_admit_flow_matches_try_insert_for_port_only_policies() {
        let pool = SharedPacketPool::new(2, AdmissionPolicy::Static { per_port: 2 }).into_shared();
        let port = pool.register_port();
        assert!(port.would_admit_flow(FlowId(7)));
        let _a = port.try_insert(pkt(0, 7)).expect("admitted");
        let _b = port.try_insert(pkt(1, 7)).expect("admitted");
        // Global capacity exhausted: both probes agree with try_insert.
        assert!(!port.would_admit_flow(FlowId(7)));
        assert!(!port.would_admit());
        assert!(port.try_insert(pkt(2, 7)).is_err());
    }

    #[test]
    fn port_flow_policy_formats_and_labels() {
        let p = AdmissionPolicy::PortFlow {
            port: Threshold::Static(64),
            flow: Threshold::Dynamic { num: 1, den: 4 },
        };
        assert_eq!(p.label(), "port_flow");
        assert_eq!(
            p.to_string(),
            "port_flow(port=static(64),flow=dynamic(1/4))"
        );
        assert!(p.uses_flow_state());
        assert!(!AdmissionPolicy::PortFlow {
            port: Threshold::Static(64),
            flow: Threshold::Unlimited,
        }
        .uses_flow_state());
        assert!(!AdmissionPolicy::Unlimited.uses_flow_state());
    }
}
