//! The packet model.
//!
//! Scheduling transactions read packet fields (`p.length`, `p.slack`, ...)
//! to compute ranks. We model a packet as a small plain struct carrying the
//! fields used by every algorithm in the paper (§2–§3). Payload bytes are
//! never materialised — the scheduler only ever sees headers/metadata,
//! exactly like the switch scheduler sits behind the parser.

use crate::time::Nanos;
use core::fmt;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Globally unique packet identifier (assigned by the traffic source).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PacketId(pub u64);

/// A flow identifier.
///
/// The paper uses "flow" generically: "a set of packets with a common
/// attribute" (§2.1, footnote 2). At interior tree nodes the "flow" is a
/// child class rather than a 5-tuple; see [`crate::tree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FlowId(pub u32);

/// Per-flow state, indexed by flow id — the software stand-in for the
/// register array a scheduling transaction's atom keeps (`last_finish[f]`,
/// a flow's weight, a §6.1 occupancy counter).
///
/// It is a `HashMap` under [`FlowHasher`] instead of the default SipHash:
/// one multiply per probe, and — the hasher being fixed, not seeded per
/// process — a table layout that repeats from run to run. Flow ids are
/// produced by this program's own classifiers and traffic sources; keep
/// the default hasher for a table whose keys an adversary chooses.
pub type FlowMap<V> = HashMap<FlowId, V, BuildHasherDefault<FlowHasher>>;

/// The hasher behind [`FlowMap`]: one multiply by an odd constant, the
/// product's high half folded into its low half.
///
/// Distinct `u32` ids get distinct hashes (an odd multiplier and the fold
/// are both invertible on `u64`), and both ends of the word are mixed:
/// the table picks its bucket from the low bits and its control tag from
/// the top seven, so strided ids (`i << 20`, as interior-node and
/// per-port flow numbering produce) must not collapse in either.
#[derive(Debug, Default, Clone, Copy)]
pub struct FlowHasher(u64);

/// 2^64 / φ, the Fibonacci-hashing multiplier (odd).
const FLOW_HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for FlowHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    /// What `FlowId`'s derived `Hash` calls, once per key.
    #[inline]
    fn write_u32(&mut self, id: u32) {
        let m = (self.0 ^ u64::from(id)).wrapping_mul(FLOW_HASH_MUL);
        self.0 = m ^ (m >> 32);
    }

    /// Keys other than a single `u32` are not what this hasher is for;
    /// they still hash correctly, a byte per multiply.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A packet as seen by the scheduler: identity plus the header fields that
/// the paper's scheduling transactions consume.
///
/// Fields not used by a given algorithm are simply ignored by its
/// transaction; they default to zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Unique id (for tracing and tests).
    pub id: PacketId,
    /// The flow this packet belongs to.
    pub flow: FlowId,
    /// Packet length in bytes, headers included.
    pub length: u32,
    /// Wall-clock arrival time at the current switch.
    pub arrival: Nanos,
    /// Class-of-service / IP TOS style priority class (strict priority, CBQ).
    pub class: u8,
    /// LSTF slack in nanoseconds: time remaining until the deadline,
    /// initialised at the end host and decremented by queueing wait at each
    /// switch (§3.1). Stored as `i64` because slack can be driven negative
    /// by congestion.
    pub slack: i64,
    /// Absolute deadline (EDF).
    pub deadline: Nanos,
    /// Total flow size in bytes (Shortest Job First).
    pub flow_size: u64,
    /// Remaining flow bytes including this packet (SRPT).
    pub remaining: u64,
    /// Attained service: bytes of this flow already served (LAS).
    pub attained: u64,
    /// Sequence number of this packet within its flow (0-based); used to
    /// check in-flow ordering invariants.
    pub seq_in_flow: u64,
}

impl Packet {
    /// Create a packet with the required fields; everything else zeroed.
    pub fn new(id: u64, flow: FlowId, length: u32, arrival: Nanos) -> Packet {
        Packet {
            id: PacketId(id),
            flow,
            length,
            arrival,
            class: 0,
            slack: 0,
            deadline: Nanos::ZERO,
            flow_size: 0,
            remaining: 0,
            attained: 0,
            seq_in_flow: 0,
        }
    }

    /// Builder-style: set the priority class.
    pub fn with_class(mut self, class: u8) -> Packet {
        self.class = class;
        self
    }

    /// Builder-style: set the LSTF slack.
    pub fn with_slack(mut self, slack: i64) -> Packet {
        self.slack = slack;
        self
    }

    /// Builder-style: set the EDF deadline.
    pub fn with_deadline(mut self, deadline: Nanos) -> Packet {
        self.deadline = deadline;
        self
    }

    /// Builder-style: set total flow size (SJF).
    pub fn with_flow_size(mut self, flow_size: u64) -> Packet {
        self.flow_size = flow_size;
        self
    }

    /// Builder-style: set remaining flow bytes (SRPT).
    pub fn with_remaining(mut self, remaining: u64) -> Packet {
        self.remaining = remaining;
        self
    }

    /// Builder-style: set attained service (LAS).
    pub fn with_attained(mut self, attained: u64) -> Packet {
        self.attained = attained;
        self
    }

    /// Builder-style: set the in-flow sequence number.
    pub fn with_seq_in_flow(mut self, seq: u64) -> Packet {
        self.seq_in_flow = seq;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_zeroes_optional_fields() {
        let p = Packet::new(1, FlowId(7), 1500, Nanos(10));
        assert_eq!(p.id, PacketId(1));
        assert_eq!(p.flow, FlowId(7));
        assert_eq!(p.length, 1500);
        assert_eq!(p.arrival, Nanos(10));
        assert_eq!(p.class, 0);
        assert_eq!(p.slack, 0);
        assert_eq!(p.deadline, Nanos::ZERO);
        assert_eq!(p.flow_size, 0);
        assert_eq!(p.remaining, 0);
        assert_eq!(p.attained, 0);
        assert_eq!(p.seq_in_flow, 0);
    }

    #[test]
    fn builder_chain_sets_fields() {
        let p = Packet::new(2, FlowId(1), 64, Nanos::ZERO)
            .with_class(3)
            .with_slack(-25)
            .with_deadline(Nanos(99))
            .with_flow_size(10_000)
            .with_remaining(4_000)
            .with_attained(6_000)
            .with_seq_in_flow(42);
        assert_eq!(p.class, 3);
        assert_eq!(p.slack, -25);
        assert_eq!(p.deadline, Nanos(99));
        assert_eq!(p.flow_size, 10_000);
        assert_eq!(p.remaining, 4_000);
        assert_eq!(p.attained, 6_000);
        assert_eq!(p.seq_in_flow, 42);
    }

    fn hash_of(id: u32) -> u64 {
        use std::hash::{BuildHasher, BuildHasherDefault};
        BuildHasherDefault::<FlowHasher>::default().hash_one(FlowId(id))
    }

    #[test]
    fn flow_hasher_is_injective_on_flow_ids() {
        use std::collections::{BTreeSet, HashSet};
        // The corners, then 2^16 ids spread over the whole u32 range.
        let ids: BTreeSet<u32> = [0, 1, u32::MAX]
            .into_iter()
            .chain((1..=1u32 << 16).map(|i| i.wrapping_mul(65_521) ^ (i << 7)))
            .collect();
        assert!(ids.len() > 60_000, "sample degenerated to {}", ids.len());
        let hashes: HashSet<u64> = ids.iter().map(|&id| hash_of(id)).collect();
        assert_eq!(hashes.len(), ids.len(), "two flow ids share a hash");
    }

    /// The table picks a bucket from the hash's low bits and a control
    /// tag from its top seven: strided ids must spread in both. The
    /// identity hash puts 4 096 keys of stride 4 096 in one bucket.
    #[test]
    fn flow_hasher_spreads_strided_ids() {
        for stride in [1u32, 16, 256, 4_096, 65_536, 1 << 20] {
            let hashes: Vec<u64> = (0..4_096u32).map(|i| hash_of(i * stride)).collect();
            let distinct = |f: fn(u64) -> u64| {
                hashes
                    .iter()
                    .map(|&h| f(h))
                    .collect::<std::collections::HashSet<u64>>()
                    .len()
            };
            let buckets = distinct(|h| h & 0xFFF);
            let tags = distinct(|h| h >> 57);
            assert!(buckets >= 1_024, "stride {stride}: {buckets} buckets");
            assert!(tags >= 64, "stride {stride}: {tags} control tags");
        }
    }

    #[test]
    fn flow_map_round_trips_widely_strided_keys() {
        let key = |i: u32| FlowId(i.wrapping_mul(1 << 20).wrapping_add(i >> 12));
        let mut m: FlowMap<u32> = FlowMap::default();
        for i in 0..100_000 {
            assert_eq!(m.insert(key(i), i), None, "key {i} is fresh");
        }
        assert_eq!(m.len(), 100_000);
        for i in 0..100_000 {
            assert_eq!(m.get(&key(i)), Some(&i));
        }
        for i in (0..100_000).step_by(2) {
            assert_eq!(m.remove(&key(i)), Some(i));
        }
        assert_eq!(m.len(), 50_000);
        assert_eq!(m.get(&key(1)), Some(&1));
        assert_eq!(m.get(&key(2)), None);
    }

    #[test]
    fn display_ids() {
        assert_eq!(format!("{}", FlowId(3)), "f3");
        assert_eq!(format!("{}", PacketId(9)), "p9");
    }
}
