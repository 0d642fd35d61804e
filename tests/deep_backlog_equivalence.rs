//! Cross-engine equivalence **at depth**.
//!
//! The differential proptests stop at a few hundred operations, so FIFO
//! tie order and rejection behaviour with tens of thousands of elements
//! standing in a queue were pinned nowhere in tier-1. These tests hold a
//! ≥ 20 000-deep backlog and require every exact engine — and
//! [`PifoBackend::default`], what `TreeBuilder::new()` hands out — to
//! agree with the [`PifoBackend::SortedArray`] reference event for
//! event: raw queues first, then whole trees under `run_port`.

use pifo::prelude::*;

/// Every exact engine, reference first, then `None`: the engine a user
/// gets without asking.
fn engines() -> impl Iterator<Item = Option<PifoBackend>> {
    PifoBackend::EXACT.into_iter().map(Some).chain([None])
}

fn label(engine: Option<PifoBackend>) -> String {
    engine.map_or("default".to_string(), |e| e.to_string())
}

#[test]
fn default_engine_is_exact() {
    assert!(PifoBackend::default().is_exact());
}

// ---------------------------------------------------------------------------
// Raw engines
// ---------------------------------------------------------------------------

const RAW_CAPACITY: usize = 24_000;
const RAW_FLOOR: usize = 20_000;
const RAW_PUSHES: u32 = 40_000;

/// splitmix64 — the test's only source of ranks.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug, PartialEq, Eq)]
enum Event {
    Rejected {
        rank: Rank,
        item: u32,
        capacity: usize,
    },
    Popped(Rank, u32),
}

/// Fill a bounded queue past its capacity, churn it without letting the
/// depth fall below `RAW_FLOOR`, then drain; log every rejection and pop.
fn raw_trace(engine: Option<PifoBackend>) -> Vec<Event> {
    let mut q = engine
        .unwrap_or_default()
        .make_enum_bounded::<u32>(RAW_CAPACITY);
    let mut rng = 7u64;
    let mut log = Vec::new();
    let mut min_depth_after_fill = usize::MAX;
    for item in 0..RAW_PUSHES {
        let r = next(&mut rng);
        // Scattered ranks over a window that drifts upward like a virtual
        // clock, and one push in four from a fixed band of 64 values: mass
        // ties, thousands deep, whose FIFO order the log exposes.
        let rank = if r % 4 == 0 {
            Rank(1_000_000 + 1_000 * (r >> 8 & 63))
        } else {
            Rank(64 * item as u64 + (r >> 8) % (1 << 21))
        };
        if let Err(full) = q.try_push(rank, item) {
            log.push(Event::Rejected {
                rank: full.rank,
                item: full.item,
                capacity: full.capacity,
            });
        }
        // Pop zero to two per push once the queue has filled, so pushes
        // are both admitted and rejected at depth.
        if item as usize >= RAW_CAPACITY + 2_000 {
            for _ in 0..next(&mut rng) % 3 {
                if q.len() > RAW_FLOOR {
                    let (rank, item) = q.pop().expect("non-empty");
                    log.push(Event::Popped(rank, item));
                }
            }
            min_depth_after_fill = min_depth_after_fill.min(q.len());
        }
    }
    assert!(min_depth_after_fill >= RAW_FLOOR, "backlog must stay deep");
    while let Some((rank, item)) = q.pop() {
        log.push(Event::Popped(rank, item));
    }
    log
}

#[test]
fn raw_engines_agree_at_depth() {
    let mut traces = engines().map(|e| (label(e), raw_trace(e)));
    let (_, reference) = traces.next().expect("the sorted reference");
    let rejected = reference
        .iter()
        .filter(|e| matches!(e, Event::Rejected { .. }))
        .count();
    assert!(rejected >= 2_000, "the fill must overrun the capacity");
    assert!(reference.len() - rejected >= 30_000, "pops at depth");
    for (name, trace) in traces {
        assert!(trace == reference, "{name} diverges from the reference");
    }
}

// ---------------------------------------------------------------------------
// Whole trees under run_port
// ---------------------------------------------------------------------------

const RATE_BPS: u64 = 10_000_000_000;

/// Departures and tail drops of `arrivals` through `tree`.
fn port_trace(arrivals: &[Packet], tree: ScheduleTree) -> (Vec<Departure>, u64) {
    let mut sched = TreeScheduler::new("deep", tree);
    let departures = run_port(arrivals, &mut sched, &PortConfig::new(RATE_BPS));
    (departures, sched.drops())
}

fn assert_engines_agree(arrivals: &[Packet], tree: impl Fn(Option<PifoBackend>) -> ScheduleTree) {
    let mut runs = engines().map(|e| (label(e), port_trace(arrivals, tree(e))));
    let (_, reference) = runs.next().expect("the sorted reference");
    // A bounded tree only tail-drops when its buffer is full, so a drop
    // proves the backlog reached the buffer limit.
    assert!(reference.1 > 0, "the workload must overrun the buffer");
    assert_eq!(
        reference.0.len() as u64 + reference.1,
        arrivals.len() as u64
    );
    for (name, run) in runs {
        assert_eq!(run.1, reference.1, "{name}: drop count");
        assert!(run.0 == reference.0, "{name}: departures diverge");
    }
}

/// One SRPT node behind a 20 000-packet buffer, fed heavy-tailed flows
/// at four times the link rate: scattered ranks, a standing backlog at
/// the limit, tail drops.
#[test]
fn deep_srpt_port_agrees_across_engines() {
    let dist = SizeDistribution::bounded_pareto(1.2, 1_000, 10_000_000);
    let (arrivals, _) = flow_workload(16_000, 1_600_000.0, &dist, 4 * RATE_BPS, 1_500, 11);
    assert_engines_agree(&arrivals, |engine| {
        let mut b = TreeBuilder::new();
        if let Some(e) = engine {
            b.with_backend(e);
        }
        b.buffer_limit(20_000);
        let root = b.add_root("srpt", Box::new(Srpt));
        b.build(Box::new(move |_| root)).expect("valid")
    });
}

const HIER_LEVELS: u32 = 5;
const HIER_FANOUT: u32 = 4;
const HIER_LEAVES: u32 = HIER_FANOUT.pow(HIER_LEVELS - 1);
const HIER_BUFFER: usize = 12_000;

/// The paper's headline shape: five levels of STFQ, fan-out four,
/// children weighted 1..=4; flow `f` sits on leaf `f % HIER_LEAVES`.
fn hier5(level: u32, index: u32, flows: u32) -> Hierarchy {
    if level + 1 == HIER_LEVELS {
        let members = (0..flows)
            .filter(|f| f % HIER_LEAVES == index)
            .map(|f| (FlowId(f), 1 + (f / HIER_LEAVES % 4) as u64))
            .collect();
        return Hierarchy::leaf(&format!("leaf{index}"), members);
    }
    let children = (0..HIER_FANOUT)
        .map(|c| {
            (
                1 + c as u64,
                hier5(level + 1, index * HIER_FANOUT + c, flows),
            )
        })
        .collect();
    Hierarchy::class(&format!("l{level}n{index}"), children)
}

const HIER_FLOWS: u32 = 6_144;

/// Heavy-tailed flows at four times the link rate over `HIER_FLOWS`
/// flows: a full `HIER_BUFFER`-slot pool and tail drops.
fn hier5_arrivals() -> Vec<Packet> {
    let dist = SizeDistribution::bounded_pareto(1.2, 1_000, 1_000_000);
    let (arrivals, _) = flow_workload(
        HIER_FLOWS as usize,
        1_600_000.0,
        &dist,
        4 * RATE_BPS,
        1_500,
        12,
    );
    arrivals
}

fn hier5_pool() -> PoolHandle {
    SharedPacketPool::new(HIER_BUFFER, AdmissionPolicy::Unlimited)
        .unwrap()
        .into_shared()
        .register_port()
}

/// Every buffered packet holds one reference in the root PIFO, so a full
/// `HIER_BUFFER`-slot pool is a root ≥ 10 000 deep.
#[test]
fn deep_hier5_port_agrees_across_engines() {
    let arrivals = hier5_arrivals();
    let shape = hier5(0, 0, HIER_FLOWS);
    assert_eq!(shape.depth(), HIER_LEVELS as usize);
    assert_engines_agree(&arrivals, |engine| {
        let (mut b, classifier, _) = shape.tree();
        b.with_backend(engine.unwrap_or_default());
        b.build_in_pool(classifier, hier5_pool()).expect("valid")
    });
}

/// A transaction's undeclared twin: forwards `rank`, `on_dequeue` and
/// `name` only, so `ranks_monotone_per_flow` keeps its default `false`
/// and the node runs the packet-sorting engine its backend names.
struct Undeclared(Box<dyn SchedulingTransaction>);

impl SchedulingTransaction for Undeclared {
    fn rank(&mut self, ctx: &EnqCtx<'_>) -> Rank {
        self.0.rank(ctx)
    }

    fn on_dequeue(&mut self, rank: Rank, ctx: &DeqCtx) {
        self.0.on_dequeue(rank, ctx)
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

/// The flow-head decomposition against the heap engine, not only against
/// the sorted reference: the hier5 STFQ tree on `Heap`, whose declared
/// nodes sort flow heads, departs exactly like the same tree with every
/// `Stfq` undeclared, whose nodes heap-sort every packet.
#[test]
fn deep_hier5_flow_heads_equal_packet_heap() {
    let arrivals = hier5_arrivals();
    let shape = hier5(0, 0, HIER_FLOWS);
    let run = |wrap: fn(Box<dyn SchedulingTransaction>) -> Box<dyn SchedulingTransaction>| {
        // The description's nodes, re-added with each transaction wrapped.
        let (described, classifier, _) = shape.tree();
        let mut b = TreeBuilder::new();
        b.with_backend(PifoBackend::Heap);
        for n in described.into_nodes().expect("valid") {
            let tx = wrap(n.sched);
            match n.parent {
                None => b.add_root(&n.name, tx),
                Some(p) => b.add_child(p, &n.name, tx),
            };
        }
        let tree = b.build_in_pool(classifier, hier5_pool()).expect("valid");
        port_trace(&arrivals, tree)
    };
    let flow_heads = run(|s| s);
    let packet_heap = run(|s| Box::new(Undeclared(s)));
    assert!(packet_heap.1 > 0, "the workload must overrun the buffer");
    assert_eq!(flow_heads.1, packet_heap.1, "drop count");
    assert!(flow_heads.0 == packet_heap.0, "departures diverge");
}
