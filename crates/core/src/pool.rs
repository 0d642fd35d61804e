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
//! * [`SharedPacketPool`] is the single packet slab (a `Vec` of slots
//!   with a LIFO free list) **plus** the §6.1 counters, maintained O(1)
//!   on every insert/release: per-port occupancy and admitted/rejected
//!   tallies, and — only under a policy with a flow-side threshold —
//!   per-flow occupancy in a [`FlowMap`].
//! * [`AdmissionPolicy`] decides drops *before* any slab insert:
//!   [`AdmissionPolicy::Unlimited`] (global capacity only — the naive
//!   shared buffer whose lockout pathology motivates §6.1),
//!   [`AdmissionPolicy::DynamicThreshold`] (Choudhury–Hahne \[14\]: a
//!   port may hold at most `alpha ×` the *remaining free* space, which
//!   tightens automatically under pressure and guarantees no port can
//!   lock the others out), and [`AdmissionPolicy::PortFlow`] (a port and
//!   a flow [`Threshold`] together; a fixed per-port cap is
//!   `PortFlow { port: Threshold::Static(n), flow: Threshold::Unlimited }`).
//! * [`SharedPool`] is a pool shared by several trees, and
//!   [`PoolHandle`] is one port's capability into it: a scheduling tree
//!   built in a shared pool holds a handle, so N trees genuinely compete
//!   for — and are protected within — one memory. A switch has one:
//!   `pifo-sim`'s `SwitchBuilder::with_shared_pool` creates it and
//!   registers its ports, the shared ports first, and its stats are read
//!   through `Switch::pool_of`.
//! * [`Threshold`] is the per-entity threshold arithmetic, applied to
//!   ports and (under [`AdmissionPolicy::PortFlow`]) to flows.
//!
//! # Ownership
//!
//! The pool is plain data: inserts, retains and releases take
//! `&mut self`, and a borrowed packet holds the pool, so the borrow
//! checker keeps its slot from being released underneath it. Every
//! fabric drains a pool from one thread, so nothing here is atomic:
//!
//! * A tree built with `TreeBuilder::build` **owns** its pool and reaches
//!   it without a lock.
//! * A shared pool is one `Arc<Mutex<SharedPacketPool>>` behind its
//!   [`PoolHandle`]s, and it has **one user at a time**: the drain it is
//!   lent to, or one call. The code that drains it (`pifo-sim`'s
//!   `Switch::run`, on the caller's thread, and `LosslessFabric::run`)
//!   takes it **once per run** with [`SharedPool::lend`] and lends `&mut`
//!   pool to every tree operation and admission probe, in the global
//!   `(time, port)` round order that keeps traces deterministic. A direct
//!   call through a handle, or on a shared-pool tree, takes the pool for
//!   that call alone.
//! * A shared pool is **never waited on**: a call that finds it in use —
//!   lent to a drain, or read through a [`PoolGuard`], on this thread or
//!   any other — panics, naming the port, instead of blocking.
//!
//! Accounting is **checked**: decrementing an occupancy counter that is
//! already zero (a double release) panics in debug builds and increments
//! the visible [`SharedPacketPool::accounting_errors`] counter in release
//! builds, instead of silently saturating.

use crate::packet::{FlowId, FlowMap, Packet};
use core::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};

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
    ///
    /// The dynamic threshold admits iff `used < ⌊free · num / den⌋`,
    /// computed as `(used + 1) · den ≤ free · num` in `u128`: no
    /// division, and no product of two `usize`s can overflow.
    pub fn admits(self, used: usize, free: usize) -> bool {
        match self {
            Threshold::Unlimited => true,
            Threshold::Static(t) => used < t,
            Threshold::Dynamic { num, den } => {
                (used as u128 + 1) * den as u128 <= free as u128 * num as u128
            }
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
    /// exist to prevent. Also the right policy for a pool one tree owns.
    #[default]
    Unlimited,
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
    /// [`SharedPacketPool::would_admit_flow`]) for the full verdict.
    pub fn admits(self, used: usize, free: usize) -> bool {
        match self {
            AdmissionPolicy::Unlimited => true,
            AdmissionPolicy::DynamicThreshold { num, den } => {
                Threshold::Dynamic { num, den }.admits(used, free)
            }
            AdmissionPolicy::PortFlow { port, .. } => port.admits(used, free),
        }
    }

    /// The full admission verdict given both occupancies. For the two
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
}

impl fmt::Display for AdmissionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionPolicy::Unlimited => write!(f, "unlimited"),
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
    /// Registering one more port would exceed [`MAX_PORTS`].
    TooManyPorts {
        /// The configured limit ([`MAX_PORTS`]).
        limit: usize,
    },
    /// [`SharedPacketPool::new`] was asked for a pool of no packets.
    ZeroCapacity,
    /// A dynamic threshold's alpha has a zero denominator.
    ZeroDenominator,
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::TooManyPorts { limit } => {
                write!(f, "pool already has {limit} ports (the maximum)")
            }
            PoolError::ZeroCapacity => write!(f, "pool capacity must be positive"),
            PoolError::ZeroDenominator => write!(f, "alpha denominator must be positive"),
        }
    }
}

impl std::error::Error for PoolError {}

/// One port's §6.1 counters (the pool keeps one per registered port;
/// [`SharedPacketPool::stats`] copies them out).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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

/// One slot of the slab: occupied exactly when it holds a packet.
struct Slot {
    /// References held on the slot; 0 for a free slot.
    refs: u32,
    /// The port the §6.1 counters attribute this slot to. (The flow they
    /// attribute it to is the resident packet's own `flow`.)
    port: u32,
    packet: Option<Packet>,
}

/// The single shared packet slab plus its §6.1 admission counters.
///
/// Every insert goes through [`try_insert`](Self::try_insert), so the
/// counters can never drift from the slab: it gates on the
/// [`AdmissionPolicy`] *before* any slab write (a reject hands the
/// caller's packet back by move, unchanged), and
/// [`release`](Self::release) settles the port/flow counters — from the
/// port tag stamped in the slot and the packet's flow — exactly when the
/// slot's last reference drops. Both are O(1).
///
/// A tree that owns its pool drives it directly; share one between trees
/// with [`into_shared`](Self::into_shared), then hand each tree a port
/// with [`SharedPool::register_port`] (see the module docs).
pub struct SharedPacketPool {
    /// The slab; a [`PktHandle`] is an index into it.
    slots: Vec<Slot>,
    /// Freed slot indices, reused most recently freed first.
    free: Vec<u32>,
    /// The registered ports' counters, by port index.
    ports: Vec<PortPoolStats>,
    /// Live slots per flow (entries removed at zero, so the table stays
    /// bounded by the instantaneous flow fan-in). Empty forever when
    /// `track_flows` is off, and then [`Self::flow_occupancy`] answers
    /// `None`.
    flows: FlowMap<usize>,
    /// Live packets (occupied slots).
    live: usize,
    capacity: Option<usize>,
    policy: AdmissionPolicy,
    /// `policy.uses_flow_state()`, decided once: only a policy with a
    /// flow-side threshold reads per-flow occupancy on the packet path,
    /// so only then is the flow table maintained.
    track_flows: bool,
    /// Accounting violations detected in release builds (debug builds
    /// panic instead) — see [`Self::accounting_errors`].
    accounting_errors: u64,
}

impl fmt::Debug for SharedPacketPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedPacketPool")
            .field("live", &self.live)
            .field("capacity", &self.capacity)
            .field("policy", &self.policy)
            .field("ports", &self.ports.len())
            .field("slots", &self.slots.len())
            .finish()
    }
}

/// Decrement an occupancy counter, refusing to go below zero: a double
/// release panics in debug builds and bumps `errors` in release builds
/// (the §6.1 counters must never silently saturate — a dynamic threshold
/// computed from a clamped counter admits traffic it should drop).
fn checked_dec(counter: &mut usize, errors: &mut u64, what: &str) {
    match counter.checked_sub(1) {
        Some(v) => *counter = v,
        None => underflow(errors, what),
    }
}

fn underflow(errors: &mut u64, what: &str) {
    if cfg!(debug_assertions) {
        panic!("pool accounting underflow: {what} decremented below zero (double release)");
    }
    *errors += 1;
}

impl SharedPacketPool {
    fn with_capacity_and_policy(capacity: Option<usize>, policy: AdmissionPolicy) -> Self {
        SharedPacketPool {
            slots: Vec::new(),
            free: Vec::new(),
            ports: Vec::new(),
            flows: FlowMap::default(),
            live: 0,
            capacity,
            policy,
            track_flows: policy.uses_flow_state(),
            accounting_errors: 0,
        }
    }

    /// A pool of `capacity` packets under `policy`, or
    /// [`PoolError::ZeroCapacity`] / [`PoolError::ZeroDenominator`] when
    /// the capacity or a dynamic threshold's alpha denominator is zero.
    pub fn new(capacity: usize, policy: AdmissionPolicy) -> Result<Self, PoolError> {
        if capacity == 0 {
            return Err(PoolError::ZeroCapacity);
        }
        let zero_den = |t: Threshold| matches!(t, Threshold::Dynamic { den: 0, .. });
        let zero = match policy {
            AdmissionPolicy::DynamicThreshold { den, .. } => den == 0,
            AdmissionPolicy::PortFlow { port, flow } => zero_den(port) || zero_den(flow),
            _ => false,
        };
        if zero {
            return Err(PoolError::ZeroDenominator);
        }
        Ok(Self::with_capacity_and_policy(Some(capacity), policy))
    }

    /// An unbounded pool with no per-port threshold — the configuration
    /// `TreeBuilder::build` gives a tree when no buffer limit is set.
    pub fn unbounded() -> Self {
        Self::with_capacity_and_policy(None, AdmissionPolicy::Unlimited)
    }

    /// Register a new port (dense indices from 0) and return its index —
    /// or [`PoolError::TooManyPorts`] when the pool is at [`MAX_PORTS`]
    /// (port indices are stored per slot as `u32`; validation happens
    /// here, at registration, so no later cast can truncate).
    pub fn try_register_port(&mut self) -> Result<usize, PoolError> {
        if self.ports.len() >= MAX_PORTS {
            return Err(PoolError::TooManyPorts { limit: MAX_PORTS });
        }
        self.ports.push(PortPoolStats::default());
        Ok(self.ports.len() - 1)
    }

    /// Share the pool between trees (see [`SharedPool`]).
    pub fn into_shared(self) -> SharedPool {
        SharedPool(Arc::new(Mutex::new(self)))
    }

    /// The occupied slot `handle` names; a freed or never-claimed one
    /// panics with `what`.
    fn occupied(&mut self, handle: PktHandle, what: &str) -> &mut Slot {
        match self.slots.get_mut(handle.index()) {
            Some(slot) if slot.packet.is_some() => slot,
            _ => panic!("{what} {handle}"),
        }
    }

    fn flow_count(&self, flow: FlowId) -> usize {
        self.flows.get(&flow).copied().unwrap_or(0)
    }

    /// The §6.1 verdict for `port`: global capacity, then the port
    /// threshold, then — when the flow's occupancy is given — the flow
    /// threshold. The one copy behind `try_insert` and both probes.
    fn admits(&self, port: usize, flow_used: Option<usize>) -> bool {
        let free = match self.capacity {
            Some(cap) if self.live >= cap => return false,
            Some(cap) => cap - self.live,
            None => usize::MAX,
        };
        let used = self.ports[port].occupancy;
        match flow_used {
            Some(flow_used) => self.policy.admits_port_flow(used, flow_used, free),
            // Port side only; for a policy without a flow side that *is*
            // the full verdict.
            None => self.policy.admits(used, free),
        }
    }

    /// Would a packet for `port` be admitted right now? The port side of
    /// the [`try_insert`](Self::try_insert) verdict, without counting a
    /// reject.
    pub fn would_admit(&self, port: usize) -> bool {
        self.admits(port, None)
    }

    /// Would a packet of `flow` for `port` be admitted right now? The
    /// full [`try_insert`](Self::try_insert) verdict — global capacity,
    /// port threshold, *and* flow threshold for a
    /// [`AdmissionPolicy::PortFlow`] policy (for port-only policies it
    /// equals [`would_admit`](Self::would_admit)).
    pub fn would_admit_flow(&self, port: usize, flow: FlowId) -> bool {
        self.admits(port, self.track_flows.then(|| self.flow_count(flow)))
    }

    /// Insert `packet` for `port`, with one reference, returning its
    /// handle — or the packet itself, unchanged, when the global capacity
    /// or the policy's port (or flow) threshold rejects it. The reject is
    /// tallied against `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port` was never registered.
    pub fn try_insert(&mut self, port: usize, packet: Packet) -> Result<PktHandle, Packet> {
        let flow = packet.flow;
        let flow_used = self.track_flows.then(|| self.flow_count(flow));
        if !self.admits(port, flow_used) {
            self.ports[port].rejected += 1;
            return Err(packet);
        }
        let slot = Slot {
            refs: 1,
            port: port as u32,
            packet: Some(packet),
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = slot;
                idx
            }
            None => {
                let idx = self.slots.len();
                assert!(idx < u32::MAX as usize, "packet pool exceeds u32 slots");
                self.slots.push(slot);
                idx as u32
            }
        };
        self.live += 1;
        let counters = &mut self.ports[port];
        counters.occupancy += 1;
        counters.admitted += 1;
        if self.track_flows {
            *self.flows.entry(flow).or_insert(0) += 1;
        }
        Ok(PktHandle(idx))
    }

    /// Borrow the packet in `handle`'s slot (see [`PoolHandle`] for why
    /// the borrow is sound).
    ///
    /// # Panics
    ///
    /// Panics if the slot is free (a stale handle).
    pub fn get(&self, handle: PktHandle) -> &Packet {
        match self.slots.get(handle.index()) {
            Some(Slot {
                packet: Some(packet),
                ..
            }) => packet,
            _ => panic!("stale packet handle {handle}"),
        }
    }

    /// Add one reference to `handle`'s slot (the §6.1 counters track
    /// *slots*, so this changes no counter).
    ///
    /// # Panics
    ///
    /// Panics if the slot is free.
    pub fn retain(&mut self, handle: PktHandle) {
        self.occupied(handle, "retain of stale packet handle").refs += 1;
    }

    /// Drop one reference to `handle`'s slot. When it was the last, the
    /// packet moves out, the slot frees, and the inserting port's and
    /// flow's occupancy counters are decremented — in O(1).
    ///
    /// # Panics
    ///
    /// Panics if the slot is already free (a stale handle), and — in
    /// debug builds — on any accounting underflow the release would
    /// cause; release builds tally underflows in
    /// [`accounting_errors`](Self::accounting_errors) instead.
    pub fn release(&mut self, handle: PktHandle) -> Option<Packet> {
        let slot = self.occupied(handle, "release of stale packet handle");
        slot.refs -= 1;
        if slot.refs > 0 {
            return None; // other holders remain
        }
        let port = slot.port as usize;
        let packet = slot
            .packet
            .take()
            .expect("an occupied slot holds its packet");
        self.free.push(handle.0);
        let errors = &mut self.accounting_errors;
        checked_dec(&mut self.live, errors, "pool live");
        checked_dec(&mut self.ports[port].occupancy, errors, "port occupancy");
        if self.track_flows {
            // Checked, and the entry goes at zero so idle flows cost
            // nothing.
            match self.flows.get_mut(&packet.flow) {
                Some(c) if *c > 1 => *c -= 1,
                Some(_) => {
                    self.flows.remove(&packet.flow);
                }
                None => underflow(errors, "flow occupancy"),
            }
        }
        Some(packet)
    }

    /// Number of references currently held on `handle`'s slot (0 for a
    /// free slot). For tests and diagnostics.
    pub fn ref_count(&self, handle: PktHandle) -> usize {
        match self.slots.get(handle.index()) {
            Some(slot) if slot.packet.is_some() => slot.refs as usize,
            _ => 0,
        }
    }

    /// Live packets across all ports.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Number of registered ports.
    pub fn num_ports(&self) -> usize {
        self.ports.len()
    }

    /// Total slots ever claimed (high-water mark of the working set).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Live slots currently attributed to `port`.
    pub fn port_occupancy(&self, port: usize) -> usize {
        self.ports[port].occupancy
    }

    /// Packets ever admitted for `port`.
    pub fn port_admitted(&self, port: usize) -> u64 {
        self.ports[port].admitted
    }

    /// Packets ever rejected for `port` (threshold or capacity).
    pub fn port_rejected(&self, port: usize) -> u64 {
        self.ports[port].rejected
    }

    /// Live slots currently holding packets of `flow`, O(1) from the flow
    /// table — or `None` when the policy has no flow-side threshold
    /// ([`AdmissionPolicy::uses_flow_state`]), because then nothing reads
    /// per-flow occupancy and the pool keeps no flow table.
    pub fn flow_occupancy(&self, flow: FlowId) -> Option<usize> {
        self.track_flows.then(|| self.flow_count(flow))
    }

    /// Accounting violations detected so far (double releases and other
    /// counter underflows). Debug builds panic at the violation site
    /// instead, so this is only ever non-zero in release builds; a
    /// healthy pool reports 0 forever.
    pub fn accounting_errors(&self) -> u64 {
        self.accounting_errors
    }

    /// The pool's slot count, if bounded (what [`stats`](Self::stats)
    /// reports, without copying the per-port counters).
    pub(crate) fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// A copyable snapshot of the pool-wide and per-port counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            live: self.live,
            capacity: self.capacity,
            ports: self.ports.clone(),
        }
    }

    /// Check counter/slab coherence: per-port occupancies sum to the
    /// slab's live count, the free list holds exactly the free slots, no
    /// accounting errors were recorded, and the flow table agrees with
    /// the resident packets' flows — entry for entry (and in total) when
    /// the policy keeps it, empty when it does not. O(slots); for tests.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violation found.
    pub fn assert_coherent(&self) {
        let claimed = self.slots.len();
        // The free list must hold every free slot, and only those, once.
        let mut on_free_list = vec![false; claimed];
        for &idx in &self.free {
            assert!((idx as usize) < claimed, "free list points out of range");
            let seen = std::mem::replace(&mut on_free_list[idx as usize], true);
            assert!(!seen, "free list holds slot {idx} twice");
        }
        let mut occupied = 0usize;
        let mut by_flow_tag: FlowMap<usize> = FlowMap::default();
        for (idx, slot) in self.slots.iter().enumerate() {
            assert_eq!(
                on_free_list[idx],
                slot.packet.is_none(),
                "slot {idx}: on the free list iff free"
            );
            match &slot.packet {
                None => assert_eq!(slot.refs, 0, "free slot {idx} holds references"),
                Some(packet) => {
                    occupied += 1;
                    *by_flow_tag.entry(packet.flow).or_insert(0) += 1;
                    assert!(slot.refs > 0, "occupied slot {idx} has zero references");
                    assert!(
                        (slot.port as usize) < self.ports.len().max(1),
                        "occupied slot {idx} attributed to unregistered port"
                    );
                }
            }
        }
        assert_eq!(self.live, occupied, "live counter diverged from slots");
        let by_port: usize = self.ports.iter().map(|p| p.occupancy).sum();
        assert_eq!(
            by_port, self.live,
            "per-port occupancies diverged from the slab"
        );
        assert!(
            self.track_flows || self.flows.is_empty(),
            "flow table populated under a policy that never reads it"
        );
        for (flow, &count) in &self.flows {
            assert_eq!(
                Some(&count),
                by_flow_tag.get(flow),
                "flow table entry for {flow} diverged from the resident packets"
            );
        }
        if self.track_flows {
            assert_eq!(
                self.flows.values().sum::<usize>(),
                self.live,
                "per-flow occupancies diverged from the slab"
            );
        }
        assert_eq!(self.accounting_errors, 0, "pool recorded accounting errors");
    }
}

/// A [`SharedPacketPool`] shared by several trees: register their ports
/// on it, lend it to the code that drains them, read its statistics.
///
/// ```
/// use pifo_core::pool::{AdmissionPolicy, SharedPacketPool};
///
/// let pool = SharedPacketPool::new(8, AdmissionPolicy::DynamicThreshold { num: 1, den: 1 })?
///     .into_shared();
/// let port_a = pool.register_port();
/// let port_b = pool.register_port();
/// assert_eq!((port_a.port(), port_b.port()), (0, 1));
/// assert_eq!(pool.pool().stats().capacity, Some(8));
/// # Ok::<(), pifo_core::pool::PoolError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SharedPool(Arc<Mutex<SharedPacketPool>>);

impl SharedPool {
    /// Register a new port (dense indices from 0) and return its handle.
    ///
    /// # Panics
    ///
    /// Panics if the pool already has [`MAX_PORTS`] ports
    /// ([`SharedPacketPool::try_register_port`] reports it as an error).
    pub fn register_port(&self) -> PoolHandle {
        let port = self.lock(None).try_register_port();
        PoolHandle {
            shared: self.clone(),
            port: port.unwrap_or_else(|e| panic!("register_port: {e}")) as u32,
        }
    }

    /// The pool, held for as long as the guard lives (statistics,
    /// coherence checks).
    ///
    /// # Panics
    ///
    /// Panics if the pool is in use.
    pub fn pool(&self) -> PoolGuard<'_> {
        PoolGuard(Guard::Held(self.lock(None)))
    }

    /// Lend the pool to the code that drains it: the pool's one user for
    /// the whole run, with `&mut` pool for every tree operation and probe
    /// in it (`ScheduleTree::enqueue_lent`,
    /// [`SharedPacketPool::would_admit`]). Until the loan drops, any
    /// other call on the pool — through a handle, or on a tree built in
    /// it, from any thread — panics naming its port.
    ///
    /// # Panics
    ///
    /// Panics if the pool is in use.
    pub fn lend(&self) -> LentPool<'_> {
        LentPool {
            shared: self,
            pool: self.lock(None),
        }
    }

    /// Take the pool for one user, made for `port` (or for the pool as a
    /// whole): a pool in use panics, it is never waited on.
    fn lock(&self, port: Option<u32>) -> MutexGuard<'_, SharedPacketPool> {
        match self.0.try_lock() {
            Ok(pool) => pool,
            Err(TryLockError::WouldBlock) => {
                let whose = port.map_or("the shared pool".to_string(), |p| {
                    format!("port {p}'s shared pool")
                });
                panic!(
                    "{whose} is in use (lent to a drain, or read through `pool()`): a shared \
                     pool has one user at a time and is never waited on"
                );
            }
            Err(TryLockError::Poisoned(_)) => {
                panic!("shared pool poisoned by a panicking caller")
            }
        }
    }
}

/// A shared pool lent to the code that drains it for a whole run (see
/// [`SharedPool::lend`]): `&mut` access with no further locking. The
/// pool returns to its handles when the loan drops.
pub struct LentPool<'a> {
    shared: &'a SharedPool,
    pool: MutexGuard<'a, SharedPacketPool>,
}

impl Deref for LentPool<'_> {
    type Target = SharedPacketPool;
    fn deref(&self) -> &SharedPacketPool {
        &self.pool
    }
}

impl DerefMut for LentPool<'_> {
    fn deref_mut(&mut self) -> &mut SharedPacketPool {
        &mut self.pool
    }
}

/// Read access to a pool (see [`PoolHandle::pool`],
/// [`TreePool::pool`]): borrowed from the tree that owns it, or a shared
/// pool held for as long as the guard lives.
pub struct PoolGuard<'a>(Guard<'a>);

enum Guard<'a> {
    Owned(&'a SharedPacketPool),
    Held(MutexGuard<'a, SharedPacketPool>),
}

impl Deref for PoolGuard<'_> {
    type Target = SharedPacketPool;
    fn deref(&self) -> &SharedPacketPool {
        match &self.0 {
            Guard::Owned(pool) => pool,
            Guard::Held(pool) => pool,
        }
    }
}

/// One port's capability into a [`SharedPool`] — what a `ScheduleTree`
/// built in a shared pool holds. Every call takes the pool for that call
/// alone, and panics if the pool is in use; a clone refers to the same
/// port. Admission probes and everything else go to the pool itself,
/// with [`port`](Self::port): [`pool`](Self::pool), or the drain's loan.
///
/// Reading a resident packet needs the pool itself
/// ([`SharedPacketPool::get`]), and the borrow holds the pool: the slot
/// cannot be released — its packet moved out or replaced — while the
/// borrow lives, as the compiler checks:
///
/// ```compile_fail
/// use pifo_core::pool::{AdmissionPolicy, SharedPacketPool};
/// use pifo_core::prelude::*;
///
/// let mut pool = SharedPacketPool::new(1, AdmissionPolicy::Unlimited).unwrap();
/// let port = pool.try_register_port().unwrap();
/// let a = pool.try_insert(port, Packet::new(1, FlowId(0), 100, Nanos(0))).unwrap();
/// let first = pool.get(a);
/// pool.release(a); // error: `pool` is still borrowed by `first`
/// assert_eq!(first.id.0, 1);
/// ```
#[derive(Debug, Clone)]
pub struct PoolHandle {
    shared: SharedPool,
    port: u32,
}

impl PoolHandle {
    /// This handle's port index within the pool.
    pub fn port(&self) -> usize {
        self.port as usize
    }

    /// The pool itself (slab occupancy, coherence checks, counters),
    /// held for as long as the guard lives.
    ///
    /// # Panics
    ///
    /// Panics, naming the port, if the pool is in use.
    pub fn pool(&self) -> PoolGuard<'_> {
        PoolGuard(Guard::Held(self.lock()))
    }

    fn lock(&self) -> MutexGuard<'_, SharedPacketPool> {
        self.shared.lock(Some(self.port))
    }

    /// [`SharedPacketPool::try_insert`] for this port.
    pub fn try_insert(&self, packet: Packet) -> Result<PktHandle, Packet> {
        self.lock().try_insert(self.port(), packet)
    }

    /// [`SharedPacketPool::release`]: the counters settle against the
    /// port that inserted the slot, whichever port's handle releases it.
    pub fn release(&self, handle: PktHandle) -> Option<Packet> {
        self.lock().release(handle)
    }

    /// Live packets across the whole pool (all ports).
    pub fn pool_live(&self) -> usize {
        self.lock().live()
    }
}

/// How a scheduling tree reaches its pool (`ScheduleTree::pool_handle`).
#[derive(Debug)]
pub enum TreePool {
    /// A single-port pool of the tree's own (`TreeBuilder::build`),
    /// reached without a lock; the tree is its port 0.
    Owned(Box<SharedPacketPool>),
    /// A port of a shared pool (`TreeBuilder::build_in_pool`).
    Shared(PoolHandle),
}

impl TreePool {
    /// The tree's port index within its pool.
    pub fn port(&self) -> usize {
        match self {
            TreePool::Owned(_) => 0,
            TreePool::Shared(handle) => handle.port(),
        }
    }

    /// The pool (slab occupancy, coherence checks, counters). A shared
    /// pool is held for as long as the guard lives, and panics, naming
    /// the port, if it is in use.
    pub fn pool(&self) -> PoolGuard<'_> {
        match self {
            TreePool::Owned(pool) => PoolGuard(Guard::Owned(pool)),
            TreePool::Shared(handle) => handle.pool(),
        }
    }

    /// Run `f` on the pool for one tree operation: the shared pool the
    /// caller holds `lent`, else an owned pool directly, or a shared one
    /// taken for this call.
    pub(crate) fn with<R>(
        &mut self,
        lent: Option<&mut LentPool<'_>>,
        f: impl FnOnce(&mut SharedPacketPool) -> R,
    ) -> R {
        match (self, lent) {
            (TreePool::Shared(h), Some(lent)) if Arc::ptr_eq(&h.shared.0, &lent.shared.0) => {
                f(lent)
            }
            (pool, Some(_)) => panic!(
                "port {}: lent a pool this tree does not buffer in",
                pool.port()
            ),
            (TreePool::Owned(pool), None) => f(pool),
            (TreePool::Shared(h), None) => f(&mut h.lock()),
        }
    }
}

// The threading contract, checked by the compiler: a tree (with the pool
// it owns, or its handle) moves to a worker thread whole.
const _: () = {
    const fn send<T: Send>() {}
    send::<crate::tree::ScheduleTree>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Nanos;

    fn pkt(id: u64, flow: u32) -> Packet {
        Packet::new(id, FlowId(flow), 1_000, Nanos(id))
    }

    /// A pool of `ports` registered ports.
    fn pool(capacity: usize, policy: AdmissionPolicy, ports: usize) -> SharedPacketPool {
        let mut pool = SharedPacketPool::new(capacity, policy).unwrap();
        for _ in 0..ports {
            pool.try_register_port().unwrap();
        }
        pool
    }

    fn unbounded() -> SharedPacketPool {
        let mut pool = SharedPacketPool::unbounded();
        pool.try_register_port().unwrap();
        pool
    }

    /// A fixed per-port cap and no flow threshold.
    fn static_per_port(n: usize) -> AdmissionPolicy {
        AdmissionPolicy::PortFlow {
            port: Threshold::Static(n),
            flow: Threshold::Unlimited,
        }
    }

    /// `free · num` above `usize::MAX` must not wrap: a nearly empty
    /// pool of 2^62 slots at alpha 8 admits its first packet.
    #[test]
    fn dynamic_threshold_does_not_overflow() {
        let alpha = AdmissionPolicy::DynamicThreshold { num: 8, den: 1 };
        let mut p = pool(1 << 62, alpha, 1);
        assert!(p.would_admit(0));
        p.try_insert(0, pkt(0, 1)).expect("first packet admitted");
        assert!(Threshold::Dynamic { num: 8, den: 1 }.admits(1 << 62, usize::MAX));
    }

    /// The cross-multiplied dynamic threshold decides as the floor
    /// formula `used < ⌊free · num / den⌋` wherever that one does not
    /// overflow.
    #[test]
    fn dynamic_threshold_matches_the_floor_formula() {
        for used in 0..=12 {
            for free in 0..=12 {
                for num in 0..=6 {
                    for den in 1..=6 {
                        assert_eq!(
                            Threshold::Dynamic { num, den }.admits(used, free),
                            used < free * num / den,
                            "used {used}, free {free}, alpha {num}/{den}"
                        );
                    }
                }
            }
        }
    }

    /// A single-port pool — what a tree built with `TreeBuilder::build`
    /// owns — gates on its capacity alone, like a private slab.
    #[test]
    fn sole_owner_pool_matches_private_slab_semantics() {
        let mut p = pool(2, AdmissionPolicy::Unlimited, 1);
        let a = p.try_insert(0, pkt(0, 1)).unwrap();
        let _b = p.try_insert(0, pkt(1, 2)).unwrap();
        // At capacity: the rejected packet comes back unchanged, by move.
        let back = p.try_insert(0, pkt(2, 3)).unwrap_err();
        assert_eq!(back.id.0, 2);
        assert_eq!(p.port_rejected(0), 1);
        assert_eq!(p.port_occupancy(0), 2);
        let out = p.release(a).expect("sole reference");
        assert_eq!(out.id.0, 0);
        assert_eq!(p.port_occupancy(0), 1);
        assert!(p.would_admit(0));
        p.assert_coherent();
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
        for (policy, light) in [(port_side, 1), (flow_side, 0)] {
            let mut p = pool(8, policy, 2);
            let hog = 0;
            // The hog fills until its occupancy reaches the shrinking free
            // space: with alpha = 1 it converges at half the buffer.
            let mut admitted = 0;
            let mut id = 0;
            while p.would_admit_flow(hog, FlowId(1)) {
                p.try_insert(hog, pkt(id, 1)).unwrap();
                id += 1;
                admitted += 1;
                assert!(admitted <= 8, "{policy}: must converge");
            }
            assert_eq!(admitted, 4, "{policy}: alpha=1 -> at most half the buffer");
            assert!(p.try_insert(hog, pkt(id, 1)).is_err(), "{policy}");
            // Lockout prevented: the light port (or flow) still gets in.
            assert!(p.would_admit_flow(light, FlowId(2)), "{policy}");
            p.try_insert(light, pkt(id + 1, 2)).unwrap();
            assert_eq!(p.stats().live, 5, "{policy}");
            p.assert_coherent();
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
            let mut p = pool(4, policy, 2);
            let (hog, victim) = (0, 1);
            let held: Vec<PktHandle> = (0..4)
                .map(|id| p.try_insert(hog, pkt(id, 1)).unwrap())
                .collect();
            // The naive shared cap lets the hog own every slot.
            assert!(
                !p.would_admit_flow(victim, FlowId(2)),
                "{policy}: victim locked out"
            );
            assert!(p.try_insert(victim, pkt(9, 2)).is_err(), "{policy}");
            assert_eq!(p.port_rejected(victim), 1, "{policy}");
            p.release(held[0]).expect("sole reference");
            assert!(
                p.would_admit_flow(victim, FlowId(2)),
                "{policy}: a release reopens"
            );
            p.try_insert(victim, pkt(10, 2)).unwrap();
            p.assert_coherent();
        }
    }

    #[test]
    fn static_policy_caps_each_port_independently() {
        let mut p = pool(100, static_per_port(2), 2);
        p.try_insert(0, pkt(0, 1)).unwrap();
        p.try_insert(0, pkt(1, 1)).unwrap();
        assert!(
            p.try_insert(0, pkt(2, 1)).is_err(),
            "third on port A dropped"
        );
        assert!(p.would_admit(1), "port B unaffected");
        p.try_insert(1, pkt(3, 2)).unwrap();
        assert_eq!(p.port_occupancy(0), 2);
        assert_eq!(p.port_occupancy(1), 1);
        assert_eq!(
            p.flow_occupancy(FlowId(1)),
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
        let shared = SharedPacketPool::new(8, policy).unwrap().into_shared();
        let a = shared.register_port();
        let b = shared.register_port();
        let ha = a.try_insert(pkt(0, 7)).unwrap();
        let _hb = b.try_insert(pkt(1, 7)).unwrap();
        assert_eq!(shared.pool().flow_occupancy(FlowId(7)), Some(2));
        // Releasing through *either* handle settles against port A — the
        // pool remembers which port owns the slot.
        b.release(ha).expect("sole reference");
        let p = shared.pool();
        assert_eq!(p.port_occupancy(0), 0);
        assert_eq!(p.port_occupancy(1), 1);
        assert_eq!(p.flow_occupancy(FlowId(7)), Some(1));
        p.assert_coherent();
    }

    #[test]
    fn retained_slot_counts_until_last_release() {
        let mut p = pool(4, AdmissionPolicy::Unlimited, 1);
        let a = p.try_insert(0, pkt(0, 1)).unwrap();
        p.retain(a);
        assert_eq!(p.ref_count(a), 2);
        assert!(p.release(a).is_none(), "one holder remains");
        assert_eq!(p.port_occupancy(0), 1, "slot still counted");
        let out = p.release(a).expect("last reference");
        assert_eq!(out.id.0, 0);
        assert_eq!(p.port_occupancy(0), 0);
        assert_eq!(p.ref_count(a), 0);
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
            let mut p = pool(8, policy, 1);
            let mut handles = Vec::new();
            let mut id = 0;
            while p.would_admit_flow(0, FlowId(1)) {
                handles.push(p.try_insert(0, pkt(id, 1)).unwrap());
                id += 1;
            }
            assert!(p.try_insert(0, pkt(99, 1)).is_err(), "{policy}");
            p.release(handles.pop().unwrap());
            p.release(handles.pop().unwrap());
            assert!(p.would_admit_flow(0, FlowId(1)), "{policy}");
            p.try_insert(0, pkt(100, 1)).unwrap();
        }
    }

    #[test]
    fn slots_are_reused_after_release() {
        let mut p = unbounded();
        let a = p.try_insert(0, pkt(0, 1)).unwrap();
        let _b = p.try_insert(0, pkt(1, 1)).unwrap();
        p.release(a);
        let c = p.try_insert(0, pkt(2, 1)).unwrap();
        assert_eq!(c.index(), a.index(), "freed slot is reused first");
        assert_eq!(p.slot_count(), 2, "no growth while free slots exist");
        p.assert_coherent();
    }

    #[test]
    fn slab_grows_and_frees_in_claim_order() {
        let mut p = unbounded();
        let handles: Vec<_> = (0..200)
            .map(|i| p.try_insert(0, pkt(i, (i % 7) as u32)).unwrap())
            .collect();
        assert_eq!(p.live(), 200);
        for (i, &hd) in handles.iter().enumerate() {
            assert_eq!(hd.index(), i, "fresh slots are claimed in order");
            assert_eq!(p.get(hd).id.0, i as u64);
        }
        p.assert_coherent();
        for hd in handles {
            p.release(hd);
        }
        assert_eq!(p.live(), 0);
        p.assert_coherent();
        // The free list is LIFO: the last slot freed is the next claimed.
        assert_eq!(p.try_insert(0, pkt(200, 0)).unwrap().index(), 199);
    }

    #[test]
    #[should_panic(expected = "stale packet handle")]
    fn stale_handle_panics() {
        let mut p = unbounded();
        let a = p.try_insert(0, pkt(0, 1)).unwrap();
        p.release(a);
        let _ = p.get(a);
    }

    /// A handle whose index was never claimed — inside the slab's
    /// allocation or past it — reads as stale on every path, and the
    /// panic leaves the pool untouched.
    #[test]
    fn never_claimed_handles_panic_as_stale() {
        let mut p = pool(4, AdmissionPolicy::Unlimited, 1);
        let a = p.try_insert(0, pkt(0, 1)).unwrap();
        for stale in [PktHandle(1), PktHandle(64)] {
            assert_eq!(p.ref_count(stale), 0);
            for op in 0..3 {
                let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match op {
                    0 => {
                        let _ = p.get(stale);
                    }
                    1 => p.retain(stale),
                    _ => {
                        let _ = p.release(stale);
                    }
                }))
                .expect_err("a stale handle must panic");
                let msg = err.downcast_ref::<String>().expect("formatted panic");
                assert!(msg.contains("stale packet handle"), "{stale}: {msg}");
            }
        }
        assert_eq!(p.port_occupancy(0), 1, "counters unaffected");
        assert_eq!(p.get(a).id.0, 0);
        p.assert_coherent();
    }

    #[test]
    fn double_release_of_freed_slot_is_detected() {
        // First release frees the slot; the second must be detected as a
        // stale handle, not silently clamp any counter.
        let mut p = pool(4, AdmissionPolicy::Unlimited, 1);
        let a = p.try_insert(0, pkt(0, 1)).unwrap();
        p.release(a).expect("sole reference");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.release(a)));
        assert!(err.is_err(), "double release must not be silent");
        assert_eq!(
            p.port_occupancy(0),
            0,
            "counters unaffected by the bad release"
        );
        p.assert_coherent();
    }

    #[test]
    fn port_registration_has_a_typed_overflow_error() {
        let mut p = SharedPacketPool::new(4, AdmissionPolicy::Unlimited).unwrap();
        for _ in 0..MAX_PORTS {
            p.try_register_port().expect("below the limit");
        }
        assert_eq!(p.num_ports(), MAX_PORTS);
        // The boundary: one more is a typed error, not a truncated index.
        assert_eq!(
            p.try_register_port().unwrap_err(),
            PoolError::TooManyPorts { limit: MAX_PORTS }
        );
        // A shared pool's `register_port` panics with it instead.
        let shared = p.into_shared();
        let err = std::panic::catch_unwind(|| shared.register_port()).expect_err("at the limit");
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("65536 ports"), "{msg}");
    }

    #[test]
    fn zero_capacity_pool_rejected() {
        assert_eq!(
            SharedPacketPool::new(0, AdmissionPolicy::Unlimited).unwrap_err(),
            PoolError::ZeroCapacity
        );
        assert_eq!(
            PoolError::ZeroCapacity.to_string(),
            "pool capacity must be positive"
        );
    }

    #[test]
    fn zero_alpha_denominator_rejected() {
        let dynamic = Threshold::Dynamic { num: 1, den: 0 };
        for policy in [
            AdmissionPolicy::DynamicThreshold { num: 1, den: 0 },
            AdmissionPolicy::PortFlow {
                port: dynamic,
                flow: Threshold::Unlimited,
            },
            AdmissionPolicy::PortFlow {
                port: Threshold::Static(4),
                flow: dynamic,
            },
        ] {
            assert_eq!(
                SharedPacketPool::new(4, policy).unwrap_err(),
                PoolError::ZeroDenominator,
                "{policy}"
            );
        }
        assert_eq!(
            PoolError::ZeroDenominator.to_string(),
            "alpha denominator must be positive"
        );
    }

    #[test]
    fn port_flow_policy_gates_on_both_occupancies() {
        let policy = AdmissionPolicy::PortFlow {
            port: Threshold::Static(8),
            flow: Threshold::Static(2),
        };
        let mut p = pool(16, policy, 1);
        // Flow 1 is admitted twice, then capped — while flow 2 (same
        // port) is still admitted: the cap is per flow, not per port.
        let a = p.try_insert(0, pkt(0, 1)).expect("first of flow 1");
        let _b = p.try_insert(0, pkt(1, 1)).expect("second of flow 1");
        assert!(!p.would_admit_flow(0, FlowId(1)), "flow 1 at cap");
        assert!(p.would_admit_flow(0, FlowId(2)), "flow 2 unaffected");
        assert!(p.try_insert(0, pkt(2, 1)).is_err(), "flow 1 rejected");
        let _c = p.try_insert(0, pkt(3, 2)).expect("flow 2 admitted");
        assert_eq!(p.port_rejected(0), 1, "the flow-side reject is tallied");
        // Releasing a flow-1 packet reopens the flow threshold.
        p.release(a);
        assert!(p.would_admit_flow(0, FlowId(1)), "cap reopened");
        // The port-only probe ignores the flow side by design.
        assert!(p.would_admit(0), "port side is under its threshold");
    }

    #[test]
    fn would_admit_flow_matches_try_insert_for_port_only_policies() {
        let mut p = pool(2, static_per_port(2), 1);
        assert!(p.would_admit_flow(0, FlowId(7)));
        let _a = p.try_insert(0, pkt(0, 7)).expect("admitted");
        let _b = p.try_insert(0, pkt(1, 7)).expect("admitted");
        // Global capacity exhausted: both probes agree with try_insert.
        assert!(!p.would_admit_flow(0, FlowId(7)));
        assert!(!p.would_admit(0));
        assert!(p.try_insert(0, pkt(2, 7)).is_err());
    }

    #[test]
    fn port_flow_policy_formats_and_labels() {
        let p = AdmissionPolicy::PortFlow {
            port: Threshold::Static(64),
            flow: Threshold::Dynamic { num: 1, den: 4 },
        };
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
