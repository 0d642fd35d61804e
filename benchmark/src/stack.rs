//! Every call the benchmark makes into the repository lives in this
//! file, so a later simplicity PR can see exactly which public surface
//! it must keep compiling.
//!
//! Durable surface only: no `push_batch`/`pop_batch`/`enqueue_batch`/
//! `dequeue_upto`, no named `DrainMode` variant (`Default::default()`),
//! no `*_with_backend`/`*_in_pool` helpers of `pifo-algos`, no
//! `BoxedPifo`, `PacketBuffer`, `sim::buffer` or `SharedPool::borrow()`.
//! Trees are built with `TreeBuilder::new()`'s default engine unless a
//! caller asks for the second exact engine (the verify phase).

use domino_lite::{figures, DominoScheduling};
use pifo_algos::{Stfq, TokenBucketFilter, WeightTable};
use pifo_core::prelude::*;
use pifo_sim::switch::{Switch, SwitchBuilder, SwitchRun};
use pifo_sim::{
    flow_workload, latency_stats, merge, renumber, run_port, Departure, IncastSource,
    LosslessConfig, LosslessFabric, LosslessRun, MarkovOnOffSource, PauseAction, PortConfig,
    SizeDistribution, TrafficSource, TreeScheduler,
};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 6] = [
    "fabric16_onoff",
    "fabric16_onoff_paths",
    "fabric16_incast_shared",
    "fabric16_incast_lossless",
    "port1_hier5",
    "port1_deep_srpt",
];

const PORTS: usize = 16;
const RATE_BPS: u64 = 10_000_000_000;
const PKT_LEN: u32 = 1_000;
const ONOFF_FLOWS: u32 = 256;
const PORT_BUFFER: usize = 60_000;
const FABRIC_BURST: usize = 64;
/// Incast senders are flows `INCAST_BASE..INCAST_BASE + 64`, all
/// classified to port 0.
const INCAST_BASE: u32 = ONOFF_FLOWS;
const SHARED_POOL_SLOTS: usize = 2_048;
const LOSSLESS_XOFF: usize = 32;
const LOSSLESS_XON: usize = 8;
const LOSSLESS_HEADROOM: usize = 32;
const LOSSLESS_BURST: usize = 32;
const HIER5_FLOWS: u32 = 1_024;
const HIER5_FANOUT: usize = 4;
const HIER5_LEVELS: usize = 5;
const HIER5_LEAVES: u32 = (HIER5_FANOUT as u32).pow(HIER5_LEVELS as u32 - 1);
const SRPT_MTU: u32 = 1_500;

/// Simulated durations at `scale == 1.0`. The ISSUE's sizes (60/120/40/
/// 860 ms, 100 000 flows) were cut to about two fifths so that 21+ timed
/// passes, five set-ups and a verify pass fit the driver's per-run cap;
/// utilisation and drop behaviour are unchanged (see README.md).
const ONOFF_NS: u64 = 24_000_000;
const INCAST_SHARED_NS: u64 = 48_000_000;
const INCAST_LOSSLESS_NS: u64 = 16_000_000;
const HIER5_NS: u64 = 240_000_000;
const SRPT_FLOWS: usize = 40_000;
const SRPT_BUFFER: usize = 20_000;
const LADDER_NS: u64 = 12_000_000;

/// The second exact engine, used once per run to cross-check digests.
pub fn verify_engine() -> Option<PifoBackend> {
    Some(PifoBackend::Heap)
}

fn mix(seed: u64, salt: u64) -> u64 {
    // splitmix64: decorrelates the per-source seeds derived from --seed.
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of a run's `k`-th independent arrival stream.
pub fn stream_seed(seed: u64, k: usize) -> u64 {
    mix(seed, 0x5712_EA11 + k as u64)
}

/// One digest over several, in order.
pub fn combine_digests(digests: &[u64]) -> u64 {
    let mut all = Fnv::new();
    for &d in digests {
        all.word(d);
    }
    all.0
}

fn scaled(ns: u64, scale: f64) -> Nanos {
    Nanos(((ns as f64 * scale) as u64).max(200_000))
}

// ---------------------------------------------------------------------------
// sim::traffic
// ---------------------------------------------------------------------------

fn onoff_sources(
    seed: u64,
    flows: u32,
    mean_idle: Nanos,
    end: Nanos,
) -> Vec<Box<dyn TrafficSource>> {
    (0..flows)
        .map(|f| {
            Box::new(MarkovOnOffSource::new(
                FlowId(f),
                PKT_LEN,
                16.0,
                RATE_BPS,
                mean_idle,
                end,
                mix(seed, f as u64),
            )) as Box<dyn TrafficSource>
        })
        .collect()
}

fn incast_sources(seed: u64, end: Nanos) -> Vec<Box<dyn TrafficSource>> {
    let mut sources = onoff_sources(seed, ONOFF_FLOWS, Nanos::from_micros(440), end);
    sources.push(Box::new(IncastSource::new(
        FlowId(INCAST_BASE),
        64,
        PKT_LEN,
        16,
        4 * RATE_BPS,
        Nanos::from_micros(200),
        end,
    )));
    sources
}

fn merged(sources: Vec<Box<dyn TrafficSource>>) -> Vec<Packet> {
    let mut arrivals = merge(sources);
    renumber(&mut arrivals);
    arrivals
}

// ---------------------------------------------------------------------------
// core::tree, core::transaction, algos::stfq
// ---------------------------------------------------------------------------

fn builder(engine: Option<PifoBackend>, limit: Option<usize>) -> TreeBuilder {
    let mut b = TreeBuilder::new();
    if let Some(e) = engine {
        b.with_backend(e);
    }
    if let Some(l) = limit {
        b.buffer_limit(l);
    }
    b
}

fn finish(b: TreeBuilder, classifier: Classifier, pool: Option<PoolHandle>) -> ScheduleTree {
    match pool {
        Some(handle) => b.build_in_pool(classifier, handle),
        None => b.build(classifier),
    }
    .expect("benchmark trees are well-formed")
}

/// One node, unweighted STFQ: the cheapest tree a port can carry.
fn stfq_tree(
    engine: Option<PifoBackend>,
    limit: Option<usize>,
    pool: Option<PoolHandle>,
) -> ScheduleTree {
    let mut b = builder(engine, limit);
    let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
    finish(b, Box::new(move |_| root), pool)
}

fn srpt_transaction() -> Box<dyn SchedulingTransaction> {
    Box::new(FnTransaction::new("srpt", |ctx: &EnqCtx| {
        Rank(ctx.packet.remaining)
    }))
}

fn srpt_tree(engine: Option<PifoBackend>, limit: Option<usize>) -> ScheduleTree {
    let mut b = builder(engine, limit);
    let root = b.add_root("srpt", srpt_transaction());
    finish(b, Box::new(move |_| root), None)
}

/// Flow `f` sits on hier5 leaf `f % HIER5_LEAVES`; the flows sharing a
/// leaf weigh 1, 2, 3, 4 in turn.
fn leaf_weights(flows: impl Iterator<Item = u32>) -> WeightTable {
    WeightTable::from_pairs(flows.map(|f| (FlowId(f), 1 + (f / HIER5_LEAVES % 4) as u64)))
}

/// The paper's headline hierarchy: `HIER5_LEVELS` levels of fan-out
/// `HIER5_FANOUT` (341 STFQ nodes, 256 leaves), children weighted 1..=4.
fn hier5_tree(engine: Option<PifoBackend>, limit: Option<usize>, flows: u32) -> ScheduleTree {
    let mut b = builder(engine, limit);
    // Node ids are dense in add order, so a node's children ids are
    // known before they exist: level by level, node k's children are
    // `level_start + HIER5_FANOUT * k ..`.
    let interior = |first_child: usize| {
        WeightTable::from_pairs(
            (0..HIER5_FANOUT)
                .map(|c| (NodeId::from_index(first_child + c).as_flow(), 1 + c as u64)),
        )
    };
    let mut level: Vec<NodeId> = vec![b.add_root("l0", Box::new(Stfq::new(interior(1))))];
    let mut next_id = 1usize;
    for depth in 1..HIER5_LEVELS {
        let leaf_level = depth + 1 == HIER5_LEVELS;
        let width = level.len() * HIER5_FANOUT;
        let mut below = Vec::with_capacity(width);
        for (k, &parent) in level.iter().enumerate() {
            for c in 0..HIER5_FANOUT {
                let idx = k * HIER5_FANOUT + c;
                let tx = if leaf_level {
                    Stfq::new(leaf_weights(
                        (0..flows).filter(|f| f % HIER5_LEAVES == idx as u32),
                    ))
                } else {
                    Stfq::new(interior(next_id + width + idx * HIER5_FANOUT))
                };
                below.push(b.add_child(parent, &format!("l{depth}n{idx}"), Box::new(tx)));
            }
        }
        next_id += width;
        level = below;
    }
    let leaves = level;
    assert_eq!(leaves.len(), HIER5_LEAVES as usize);
    finish(
        b,
        Box::new(move |p: &Packet| leaves[(p.flow.0 % HIER5_LEAVES) as usize]),
        None,
    )
}

/// Fig 3's shape (root 1:9 over Left 3:7 and Right 4:6), flows folded
/// onto A..D by `flow % 4`; `shaped` adds a token bucket per leaf at
/// `shaper_bps` with a 16-packet burst.
fn hpfq2_tree(flows: u32, shaper_bps: Option<u64>) -> ScheduleTree {
    let mut b = builder(None, None);
    // Node ids are dense in add order: Left will be node 1, Right node 2.
    let root = b.add_root(
        "WFQ_Root",
        Box::new(Stfq::new(WeightTable::from_pairs([
            (FlowId(1), 1),
            (FlowId(2), 9),
        ]))),
    );
    let side = |b: &mut TreeBuilder, name: &str, residues: [u32; 2], weights: [u64; 2]| {
        let table = WeightTable::from_pairs((0..flows).filter_map(|f| {
            residues
                .iter()
                .position(|&r| f % 4 == r)
                .map(|i| (FlowId(f), weights[i]))
        }));
        b.add_child(root, name, Box::new(Stfq::new(table)))
    };
    let left = side(&mut b, "WFQ_Left", [0, 1], [3, 7]);
    let right = side(&mut b, "WFQ_Right", [2, 3], [4, 6]);
    if let Some(bps) = shaper_bps {
        for leaf in [left, right] {
            b.set_shaper(
                leaf,
                Box::new(TokenBucketFilter::new(bps, 16 * PKT_LEN as u64)),
            );
        }
    }
    finish(
        b,
        Box::new(move |p: &Packet| if p.flow.0 % 4 < 2 { left } else { right }),
        None,
    )
}

// ---------------------------------------------------------------------------
// sim::switch, core::pool, core::telemetry
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
enum Memory {
    /// Each port owns a private slab of `PORT_BUFFER` packets.
    Private,
    /// All ports draw on one pool of `slots` packets under `policy`.
    Shared {
        slots: usize,
        policy: AdmissionPolicy,
    },
}

fn fabric(
    ports: usize,
    rate_bps: u64,
    burst: usize,
    memory: Memory,
    telemetry: Option<TelemetryConfig>,
    engine: Option<PifoBackend>,
) -> Switch {
    let mut sb = SwitchBuilder::new(rate_bps);
    sb.with_burst(burst);
    if let Some(cfg) = telemetry {
        sb.with_telemetry(cfg);
    }
    match memory {
        Memory::Private => {
            for _ in 0..ports {
                sb.add_port(stfq_tree(engine, Some(PORT_BUFFER), None));
            }
        }
        Memory::Shared { slots, policy } => {
            sb.with_shared_pool(slots, policy);
            for _ in 0..ports {
                sb.add_shared_port(|handle| stfq_tree(engine, None, Some(handle)));
            }
        }
    }
    sb.build(Box::new(move |p: &Packet| {
        if p.flow.0 >= INCAST_BASE {
            0
        } else {
            p.flow.0 as usize % ports
        }
    }))
}

fn lossless_fabric(engine: Option<PifoBackend>) -> LosslessFabric {
    let cfg = LosslessConfig::new(LOSSLESS_XOFF, LOSSLESS_XON).with_headroom(LOSSLESS_HEADROOM);
    let memory = Memory::Shared {
        slots: cfg.min_pool_capacity(PORTS),
        policy: AdmissionPolicy::PortFlow {
            port: Threshold::Static(LOSSLESS_XOFF + LOSSLESS_HEADROOM),
            flow: Threshold::Unlimited,
        },
    };
    LosslessFabric::new(
        fabric(PORTS, RATE_BPS, LOSSLESS_BURST, memory, None, engine),
        cfg,
    )
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    FabricOnOff { paths: bool },
    FabricIncastShared,
    FabricIncastLossless,
    PortHier5,
    PortDeepSrpt,
}

/// One workload's inputs, made from the seed; the program under test
/// only ever sees these packets.
pub struct Workload {
    pub name: &'static str,
    kind: Kind,
    seed: u64,
    end: Nanos,
    /// The time-sorted arrival stream; empty for the lossless workload,
    /// whose sources run live inside the fabric's closed loop.
    arrivals: Vec<Packet>,
}

/// A freshly built stack, ready for one replay.
pub enum Stack {
    Fabric(Switch),
    Port(TreeScheduler, PortConfig),
    Lossless(LosslessFabric, Vec<Box<dyn TrafficSource>>),
}

impl Stack {
    /// The public function a pass times, as its span is named.
    pub fn call_name(&self) -> &'static str {
        match self {
            Stack::Fabric(_) => "sim::switch::Switch::run",
            Stack::Port(..) => "sim::port::run_port",
            Stack::Lossless(..) => "sim::lossless::LosslessFabric::run",
        }
    }
}

pub enum Output {
    Fabric(SwitchRun),
    Port(Vec<Departure>),
    Lossless(Box<LosslessRun>),
}

/// Counts read off a drained stack; every one repeats exactly for a seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub pool_admitted: u64,
    pub pool_rejected: u64,
    pub pool_accounting_errors: u64,
    pub lossless_pauses: u64,
    pub lossless_resumes: u64,
    pub lossless_paused_ns: u64,
    pub lossless_peak_skid: u64,
    pub lossless_peak_pool: u64,
    pub telemetry_events: u64,
    pub telemetry_path_records: u64,
}

/// What one pass produced, with the per-pass checks already applied.
#[derive(Debug, Clone, PartialEq)]
pub struct PassReport {
    /// Packets offered to the stack (lossless: delivered by it).
    pub packets: u64,
    pub departed: u64,
    pub dropped: u64,
    pub misrouted: u64,
    /// FNV-1a over (port, packet id, start, finish) of every departure,
    /// then per-port drops and the misroute count.
    pub digest: u64,
    pub counts: Counts,
    /// Empty when every check held.
    pub failures: Vec<String>,
}

impl Workload {
    /// Generate the workload's inputs (`sim::traffic`). `scale` shrinks
    /// simulated durations for the smoke test; benchmark runs use 1.0.
    pub fn generate(name: &str, seed: u64, scale: f64) -> Option<Workload> {
        let name = *WORKLOADS.iter().find(|w| **w == name)?;
        let (kind, ns) = match name {
            "fabric16_onoff" => (Kind::FabricOnOff { paths: false }, ONOFF_NS),
            "fabric16_onoff_paths" => (Kind::FabricOnOff { paths: true }, ONOFF_NS),
            "fabric16_incast_shared" => (Kind::FabricIncastShared, INCAST_SHARED_NS),
            "fabric16_incast_lossless" => (Kind::FabricIncastLossless, INCAST_LOSSLESS_NS),
            "port1_hier5" => (Kind::PortHier5, HIER5_NS),
            // Sized by its flow count, not by simulated time.
            _ => (Kind::PortDeepSrpt, 0),
        };
        let end = scaled(ns, scale);
        let arrivals = match kind {
            Kind::FabricOnOff { .. } => merged(onoff_sources(
                seed,
                ONOFF_FLOWS,
                Nanos::from_micros(220),
                end,
            )),
            Kind::FabricIncastShared => merged(incast_sources(seed, end)),
            Kind::FabricIncastLossless => Vec::new(),
            Kind::PortHier5 => merged(onoff_sources(
                seed,
                HIER5_FLOWS,
                Nanos::from_millis(14),
                end,
            )),
            Kind::PortDeepSrpt => {
                let flows = ((SRPT_FLOWS as f64 * scale) as usize).max(500);
                let dist = SizeDistribution::bounded_pareto(1.2, 1_000, 10_000_000);
                flow_workload(flows, 400_000.0, &dist, 4 * RATE_BPS, SRPT_MTU, seed).0
            }
        };
        Some(Workload {
            name,
            kind,
            seed,
            end,
            arrivals,
        })
    }

    /// Packets generated up front (0 for the live-source workload).
    pub fn generated(&self) -> usize {
        self.arrivals.len()
    }

    /// Build a fresh stack (untimed part of a pass). `engine: None` is
    /// `TreeBuilder::new()`'s default, what users get.
    pub fn build(&self, engine: Option<PifoBackend>) -> Stack {
        match self.kind {
            Kind::FabricOnOff { paths } => Stack::Fabric(fabric(
                PORTS,
                RATE_BPS,
                FABRIC_BURST,
                Memory::Private,
                paths.then(TelemetryConfig::with_paths),
                engine,
            )),
            Kind::FabricIncastShared => Stack::Fabric(fabric(
                PORTS,
                RATE_BPS,
                FABRIC_BURST,
                Memory::Shared {
                    slots: SHARED_POOL_SLOTS,
                    policy: AdmissionPolicy::DynamicThreshold { num: 1, den: 1 },
                },
                None,
                engine,
            )),
            Kind::FabricIncastLossless => {
                Stack::Lossless(lossless_fabric(engine), incast_sources(self.seed, self.end))
            }
            Kind::PortHier5 => Stack::Port(
                TreeScheduler::new("hier5", hier5_tree(engine, Some(PORT_BUFFER), HIER5_FLOWS)),
                PortConfig::new(RATE_BPS),
            ),
            Kind::PortDeepSrpt => Stack::Port(
                TreeScheduler::new("srpt", srpt_tree(engine, Some(SRPT_BUFFER))),
                PortConfig::new(RATE_BPS),
            ),
        }
    }

    /// The single public call a pass times: one full replay of the
    /// arrival stream, to drain.
    pub fn replay(&self, stack: &mut Stack) -> Output {
        match stack {
            Stack::Fabric(switch) => Output::Fabric(switch.run(&self.arrivals, Default::default())),
            Stack::Port(sched, cfg) => Output::Port(run_port(&self.arrivals, sched, cfg)),
            Stack::Lossless(fabric, sources) => Output::Lossless(Box::new(
                fabric.run(std::mem::take(sources), Default::default()),
            )),
        }
    }

    /// Digest the output and apply the per-pass checks (untimed).
    pub fn inspect(&self, stack: &Stack, out: &Output) -> PassReport {
        let mut failures = Vec::new();
        let mut counts = Counts::default();
        let mut digest = Fnv::new();
        let offered = self.arrivals.len() as u64;

        let (departed, dropped, misrouted) = match (stack, out) {
            (Stack::Fabric(switch), Output::Fabric(run)) => {
                digest_switch_run(&mut digest, run);
                check_fabric_pools(switch, &mut counts, &mut failures);
                if let Some(snap) = switch.telemetry_snapshot(run) {
                    counts.telemetry_events = snap.events_recorded;
                }
                counts.telemetry_path_records =
                    run.ports.iter().map(|p| p.paths.len() as u64).sum();
                (
                    run.total_departures() as u64,
                    run.total_drops(),
                    run.misrouted,
                )
            }
            (Stack::Port(sched, _), Output::Port(departures)) => {
                digest_departures(&mut digest, 0, departures);
                digest.word(sched.drops());
                digest.word(0);
                check_tree_pool(sched.tree(), &mut counts, &mut failures);
                (departures.len() as u64, sched.drops(), 0)
            }
            (Stack::Lossless(fabric, _), Output::Lossless(run)) => {
                digest_switch_run(&mut digest, &run.run);
                check_fabric_pools(fabric.switch(), &mut counts, &mut failures);
                let pauses = run.count_events(PauseAction::Pause) as u64;
                let resumes = run.count_events(PauseAction::Resume) as u64;
                counts.lossless_pauses = pauses;
                counts.lossless_resumes = resumes;
                counts.lossless_paused_ns = run.port_paused.iter().map(|n| n.as_nanos()).sum();
                counts.lossless_peak_skid = run.peak_skid.iter().copied().max().unwrap_or(0) as u64;
                counts.lossless_peak_pool = run.max_pool_live as u64;
                if let Some(stall) = &run.stall {
                    failures.push(format!("lossless fabric stalled: {stall}"));
                }
                if run.skid_overflow != 0 {
                    failures.push(format!("skid overflow: {}", run.skid_overflow));
                }
                if pauses != resumes {
                    failures.push(format!("pauses {pauses} != resumes {resumes}"));
                }
                (
                    run.total_departures() as u64,
                    run.total_drops(),
                    run.run.misrouted,
                )
            }
            _ => unreachable!("a stack only ever produces its own kind of output"),
        };

        let lossless = self.kind == Kind::FabricIncastLossless;
        if !lossless && offered != departed + dropped + misrouted {
            failures.push(format!(
                "offered {offered} != departed {departed} + dropped {dropped} + misrouted {misrouted}"
            ));
        }
        if lossless && dropped + misrouted != 0 {
            failures.push(format!(
                "lossless fabric lost {dropped} and misrouted {misrouted}"
            ));
        }
        if departed == 0 {
            failures.push("nothing departed".to_string());
        }
        PassReport {
            packets: if lossless { departed } else { offered },
            departed,
            dropped,
            misrouted,
            digest: digest.0,
            counts,
            failures,
        }
    }

    /// Simulated queueing wait over every departure in `out`: `(p50, p99)`
    /// in ns, nearest rank (`sim::metrics`). The same on every pass of a
    /// stream, so a run asks once per stream.
    pub fn wait_percentiles(&self, out: &Output) -> (u64, u64) {
        let ports = match out {
            Output::Fabric(run) => &run.ports[..],
            Output::Port(departures) => {
                return percentiles(departures.iter());
            }
            Output::Lossless(run) => &run.run.ports[..],
        };
        percentiles(ports.iter().flat_map(|p| &p.departures))
    }

    /// The op sequence one port's tree saw in `out` (port 0 of a fabric,
    /// the only port otherwise), for the direct-drive replays.
    pub fn direct_drive(&self, out: &Output) -> DirectDrive {
        let departures = match out {
            Output::Fabric(run) => &run.ports[0].departures,
            Output::Port(departures) => departures,
            Output::Lossless(run) => &run.run.ports[0].departures,
        };
        DirectDrive::from_departures(self.kind, departures)
    }
}

fn percentiles<'a>(departures: impl Iterator<Item = &'a Departure>) -> (u64, u64) {
    let waits: Vec<u64> = departures.map(|d| d.wait.as_nanos()).collect();
    latency_stats(&waits).map_or((0, 0), |s| (s.p50_ns, s.p99_ns))
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest_departures(digest: &mut Fnv, port: u64, departures: &[Departure]) {
    for d in departures {
        digest.word(port);
        digest.word(d.packet.id.0);
        digest.word(d.start.as_nanos());
        digest.word(d.finish.as_nanos());
    }
}

fn digest_switch_run(digest: &mut Fnv, run: &SwitchRun) {
    for (i, port) in run.ports.iter().enumerate() {
        digest_departures(digest, i as u64, &port.departures);
    }
    for port in &run.ports {
        digest.word(port.drops);
    }
    digest.word(run.misrouted);
}

/// After a drain the tree's pool must be empty, coherent and free of
/// accounting errors; tallies the port's admission counters.
fn check_tree_pool(tree: &ScheduleTree, counts: &mut Counts, failures: &mut Vec<String>) {
    let handle = tree.pool_handle();
    let pool = handle.pool();
    counts.pool_admitted += pool.port_admitted(handle.port());
    counts.pool_rejected += pool.port_rejected(handle.port());
    // A shared pool is reached through every port; check it once.
    if handle.port() != 0 {
        return;
    }
    counts.pool_accounting_errors += pool.accounting_errors();
    if pool.live() != 0 {
        failures.push(format!("pool holds {} packets after drain", pool.live()));
    }
    if pool.accounting_errors() != 0 {
        failures.push(format!(
            "{} pool accounting errors",
            pool.accounting_errors()
        ));
    }
    if catch_unwind(AssertUnwindSafe(|| pool.assert_coherent())).is_err() {
        failures.push("pool failed assert_coherent".to_string());
    }
}

fn check_fabric_pools(switch: &Switch, counts: &mut Counts, failures: &mut Vec<String>) {
    for i in 0..switch.num_ports() {
        check_tree_pool(switch.port(i), counts, failures);
    }
}

// ---------------------------------------------------------------------------
// Direct drive: one tree, one PIFO, per-op timing
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Enqueue packet `i` of the replayed stream at its arrival time.
    Enq(u32),
    /// Dequeue at this instant.
    Deq(Nanos),
}

/// Reconstruct the op sequence a port loop issues for `packets`
/// (arrival-sorted) given the instants its departures started: before
/// each dequeue, everything that has arrived by then is enqueued.
fn port_ops(packets: &[Packet], starts: impl Iterator<Item = Nanos>) -> Vec<Op> {
    let mut ops = Vec::with_capacity(2 * packets.len());
    let mut next = 0usize;
    for start in starts {
        while next < packets.len() && packets[next].arrival <= start {
            ops.push(Op::Enq(next as u32));
            next += 1;
        }
        ops.push(Op::Deq(start));
    }
    // Packets still queued at the horizon (or dropped) were offered too.
    ops.extend((next..packets.len()).map(|i| Op::Enq(i as u32)));
    ops
}

/// Per-op wall-clock costs of one direct-drive replay, in op order.
#[derive(Debug, Default)]
pub struct OpTimes {
    pub insert_ns: Vec<u32>,
    pub remove_ns: Vec<u32>,
    pub peak_len: usize,
    pub shaping_inspections: u64,
}

/// Ops per block span of a direct-drive replay.
pub const BLOCK_OPS: usize = 256;

pub struct DirectDrive {
    kind: Kind,
    /// The packets the port admitted, in arrival order.
    packets: Vec<Packet>,
    ops: Vec<Op>,
}

impl DirectDrive {
    fn from_departures(kind: Kind, departures: &[Departure]) -> DirectDrive {
        let mut packets: Vec<Packet> = departures.iter().map(|d| d.packet.clone()).collect();
        packets.sort_by_key(|p| (p.arrival, p.id));
        let ops = port_ops(&packets, departures.iter().map(|d| d.start));
        DirectDrive { kind, packets, ops }
    }

    fn tree(&self) -> ScheduleTree {
        match self.kind {
            Kind::PortHier5 => hier5_tree(None, None, HIER5_FLOWS),
            Kind::PortDeepSrpt => srpt_tree(None, None),
            _ => stfq_tree(None, None, None),
        }
    }

    fn leaf_transaction(&self) -> Box<dyn SchedulingTransaction> {
        match self.kind {
            Kind::PortHier5 => Box::new(Stfq::new(leaf_weights(0..HIER5_FLOWS))),
            Kind::PortDeepSrpt => srpt_transaction(),
            _ => Box::new(Stfq::unweighted()),
        }
    }

    /// Replay the ops through a private tree of the workload's shape
    /// (`core::tree`), timing every `enqueue` and `dequeue` call;
    /// `on_block` receives each `BLOCK_OPS`-op block's bounds.
    pub fn replay_tree(&self, on_block: &mut dyn FnMut(Instant, Instant)) -> OpTimes {
        let mut tree = self.tree();
        let mut times = OpTimes::default();
        let mut served = 0usize;
        for block in self.ops.chunks(BLOCK_OPS) {
            let block_start = Instant::now();
            for op in block {
                match *op {
                    Op::Enq(i) => {
                        let p = self.packets[i as usize].clone();
                        let at = p.arrival;
                        let t = Instant::now();
                        let admitted = tree.enqueue(p, at).is_ok();
                        times.insert_ns.push(t.elapsed().as_nanos() as u32);
                        black_box(admitted);
                    }
                    Op::Deq(now) => {
                        let t = Instant::now();
                        let p = tree.dequeue(now);
                        times.remove_ns.push(t.elapsed().as_nanos() as u32);
                        served += p.is_some() as usize;
                    }
                }
            }
            times.peak_len = times.peak_len.max(tree.len());
            on_block(block_start, Instant::now());
        }
        assert_eq!(
            served,
            self.packets.len(),
            "direct-drive tree replay must serve every admitted packet"
        );
        times.shaping_inspections = tree.shaping_inspections();
        times
    }

    /// Replay the ops through one default-engine PIFO holding the whole
    /// backlog (`core::pifo`), ranks from the workload's leaf
    /// transaction (computed outside the timed calls).
    pub fn replay_pifo(&self, on_block: &mut dyn FnMut(Instant, Instant)) -> OpTimes {
        let mut tx = self.leaf_transaction();
        let mut q = PifoBackend::default().make_enum::<u32>();
        let mut times = OpTimes::default();
        for block in self.ops.chunks(BLOCK_OPS) {
            let block_start = Instant::now();
            for op in block {
                match *op {
                    Op::Enq(i) => {
                        let p = &self.packets[i as usize];
                        let rank = tx.rank(&EnqCtx {
                            packet: p,
                            now: p.arrival,
                            flow: p.flow,
                        });
                        let t = Instant::now();
                        q.push(rank, i);
                        times.insert_ns.push(t.elapsed().as_nanos() as u32);
                    }
                    Op::Deq(now) => {
                        let t = Instant::now();
                        let popped = q.pop();
                        times.remove_ns.push(t.elapsed().as_nanos() as u32);
                        let (rank, i) = popped.expect("a dequeue follows its enqueue");
                        let flow = self.packets[i as usize].flow;
                        tx.on_dequeue(rank, &DeqCtx { now, flow });
                    }
                }
            }
            times.peak_len = times.peak_len.max(q.len());
            on_block(block_start, Instant::now());
        }
        times
    }
}

// ---------------------------------------------------------------------------
// The ladder: one stream through successively taller stacks
// ---------------------------------------------------------------------------

pub const RUNGS: [&str; 18] = [
    "rank",
    "rank_domino",
    "pool",
    "pifo_sorted",
    "pifo_heap",
    "pifo_bucket",
    "tree1",
    "tree_hpfq2",
    "tree_hier5",
    "tree_shaped",
    "port",
    "switch_p1",
    "switch_p4",
    "switch_p16",
    "switch_p16_shared",
    "switch_p16_recorder",
    "switch_p16_paths",
    "lossless_p16",
];

/// `fabric16_onoff`'s arrival stream (shorter), plus the exact enqueue/
/// dequeue op sequence `run_port` issues for it on one port at 16x line
/// rate, with the rank every enqueue got and the packet every dequeue
/// popped — so each rung below `port` replays identical work and the
/// differences between rungs are attributable.
pub struct Ladder {
    seed: u64,
    end: Nanos,
    arrivals: Vec<Packet>,
    ops: Vec<Op>,
    enq_rank: Vec<Rank>,
    /// Per dequeue, in order: the rank popped and the packet it carried.
    deq: Vec<(Rank, u32)>,
}

impl Ladder {
    pub fn new(seed: u64, scale: f64) -> Ladder {
        let end = scaled(LADDER_NS, scale);
        let arrivals = merged(onoff_sources(
            seed,
            ONOFF_FLOWS,
            Nanos::from_micros(220),
            end,
        ));
        let departures = Self::port_run(&arrivals);
        assert_eq!(
            departures.len(),
            arrivals.len(),
            "the ladder stream must not overflow its port buffer"
        );
        let ops = port_ops(&arrivals, departures.iter().map(|d| d.start));

        // Shadow replay: STFQ over one reference PIFO reproduces the
        // port's departure order exactly, which proves the op sequence.
        let mut stfq = Stfq::unweighted();
        let mut q = PifoBackend::default().make_enum::<u32>();
        let mut enq_rank = vec![Rank(0); arrivals.len()];
        let mut deq = Vec::with_capacity(arrivals.len());
        for op in &ops {
            match *op {
                Op::Enq(i) => {
                    let p = &arrivals[i as usize];
                    let rank = stfq.rank(&EnqCtx {
                        packet: p,
                        now: p.arrival,
                        flow: p.flow,
                    });
                    enq_rank[i as usize] = rank;
                    q.push(rank, i);
                }
                Op::Deq(now) => {
                    let (rank, i) = q.pop().expect("a dequeue follows its enqueue");
                    let flow = arrivals[i as usize].flow;
                    stfq.on_dequeue(rank, &DeqCtx { now, flow });
                    deq.push((rank, i));
                }
            }
        }
        for (d, &(_, i)) in departures.iter().zip(&deq) {
            assert_eq!(
                d.packet.id, arrivals[i as usize].id,
                "reconstructed op sequence diverged from run_port's trace"
            );
        }
        Ladder {
            seed,
            end,
            arrivals,
            ops,
            enq_rank,
            deq,
        }
    }

    pub fn packets(&self) -> usize {
        self.arrivals.len()
    }

    fn port_run(arrivals: &[Packet]) -> Vec<Departure> {
        let mut sched = TreeScheduler::new("stfq", stfq_tree(None, Some(PORT_BUFFER), None));
        run_port(
            arrivals,
            &mut sched,
            &PortConfig::new(PORTS as u64 * RATE_BPS),
        )
    }

    /// Build rung `rung`'s stack (untimed), time one replay of the
    /// stream through it, and check what came out (untimed). Returns the
    /// time and the packets it covers.
    pub fn run(&self, rung: usize) -> (Duration, usize) {
        let n = self.arrivals.len();
        let dt = match RUNGS[rung] {
            "rank" => self.rank_rung(Box::new(Stfq::unweighted())),
            "rank_domino" => {
                self.rank_rung(Box::new(DominoScheduling::new("stfq", figures::stfq())))
            }
            "pool" => self.pool_rung(),
            "pifo_sorted" => self.pifo_rung(PifoBackend::SortedArray),
            "pifo_heap" => self.pifo_rung(PifoBackend::Heap),
            "pifo_bucket" => self.pifo_rung(PifoBackend::Bucket),
            "tree1" => self.tree_rung(stfq_tree(None, None, None)),
            "tree_hpfq2" => self.tree_rung(hpfq2_tree(ONOFF_FLOWS, None)),
            "tree_hier5" => self.tree_rung(hier5_tree(None, None, ONOFF_FLOWS)),
            // Each leaf carries about half of 0.88 x 160 Gb/s; shaping
            // at 80 Gb/s parks bursts on the agenda without starving.
            "tree_shaped" => self.tree_rung(hpfq2_tree(ONOFF_FLOWS, Some(8 * RATE_BPS))),
            "port" => {
                let t = Instant::now();
                let departures = Self::port_run(&self.arrivals);
                let dt = t.elapsed();
                assert_eq!(departures.len(), n);
                dt
            }
            "switch_p1" => self.switch_rung(1, Memory::Private, None),
            "switch_p4" => self.switch_rung(4, Memory::Private, None),
            "switch_p16" => self.switch_rung(16, Memory::Private, None),
            "switch_p16_shared" => self.switch_rung(
                16,
                Memory::Shared {
                    slots: PORTS * PORT_BUFFER,
                    policy: AdmissionPolicy::DynamicThreshold { num: 1, den: 1 },
                },
                None,
            ),
            "switch_p16_recorder" => {
                self.switch_rung(16, Memory::Private, Some(TelemetryConfig::default()))
            }
            "switch_p16_paths" => {
                self.switch_rung(16, Memory::Private, Some(TelemetryConfig::with_paths()))
            }
            "lossless_p16" => {
                let mut fabric = lossless_fabric(None);
                let sources =
                    onoff_sources(self.seed, ONOFF_FLOWS, Nanos::from_micros(220), self.end);
                let t = Instant::now();
                let run = fabric.run(sources, Default::default());
                let dt = t.elapsed();
                assert!(run.stall.is_none(), "lossless rung stalled");
                assert_eq!(run.total_drops(), 0);
                // A paused source shifts its clock, so packets it would
                // have sent near the end fall past it: count what left.
                assert!(run.total_departures() > 0);
                return (dt, run.total_departures());
            }
            other => unreachable!("unknown rung {other}"),
        };
        (dt, n)
    }

    /// `algos::stfq` / `domino::adapter`: the rank transaction alone,
    /// through the same boxed dispatch a tree node uses.
    fn rank_rung(&self, mut tx: Box<dyn SchedulingTransaction>) -> Duration {
        let mut sum = 0u64;
        let mut deq = self.deq.iter();
        let t = Instant::now();
        for op in &self.ops {
            match *op {
                Op::Enq(i) => {
                    let p = &self.arrivals[i as usize];
                    let rank = tx.rank(&EnqCtx {
                        packet: p,
                        now: p.arrival,
                        flow: p.flow,
                    });
                    sum = sum.wrapping_add(rank.value());
                }
                Op::Deq(now) => {
                    let &(rank, i) = deq.next().expect("one record per dequeue");
                    let flow = self.arrivals[i as usize].flow;
                    tx.on_dequeue(rank, &DeqCtx { now, flow });
                }
            }
        }
        let dt = t.elapsed();
        let expected = self
            .enq_rank
            .iter()
            .fold(0u64, |s, r| s.wrapping_add(r.value()));
        assert_eq!(sum, expected, "rank rung computed different ranks");
        dt
    }

    /// `core::pool`: `try_insert` on enqueue, `release` on dequeue.
    fn pool_rung(&self) -> Duration {
        let pool = SharedPacketPool::unbounded().into_shared().register_port();
        let mut handles = vec![None; self.arrivals.len()];
        let mut deq = self.deq.iter();
        let mut released = 0usize;
        let t = Instant::now();
        for op in &self.ops {
            match *op {
                Op::Enq(i) => {
                    handles[i as usize] = pool.try_insert(self.arrivals[i as usize].clone()).ok();
                }
                Op::Deq(_) => {
                    let &(_, i) = deq.next().expect("one record per dequeue");
                    let handle = handles[i as usize]
                        .take()
                        .expect("inserted before released");
                    released += black_box(pool.release(handle)).is_some() as usize;
                }
            }
        }
        let dt = t.elapsed();
        assert_eq!(released, self.arrivals.len());
        assert_eq!(pool.pool_live(), 0);
        dt
    }

    /// `core::pifo`: push with the recorded rank, pop.
    fn pifo_rung(&self, engine: PifoBackend) -> Duration {
        let mut q = engine.make_enum::<u32>();
        let mut deq = self.deq.iter();
        let t = Instant::now();
        for op in &self.ops {
            match *op {
                Op::Enq(i) => q.push(self.enq_rank[i as usize], i),
                Op::Deq(_) => {
                    let popped = q.pop().map(|(_, i)| i);
                    let expected = deq.next().map(|&(_, i)| i);
                    // Exact engines agree on the order, ties included.
                    assert_eq!(popped, expected, "{engine} popped out of order");
                }
            }
        }
        let dt = t.elapsed();
        assert!(q.is_empty());
        dt
    }

    /// `core::tree`: the op sequence through `enqueue`/`dequeue`, then
    /// whatever shapers still hold.
    fn tree_rung(&self, mut tree: ScheduleTree) -> Duration {
        let mut served = 0usize;
        let mut now = Nanos::ZERO;
        let t = Instant::now();
        for op in &self.ops {
            match *op {
                Op::Enq(i) => {
                    let p = self.arrivals[i as usize].clone();
                    let at = p.arrival;
                    black_box(tree.enqueue(p, at).is_ok());
                }
                Op::Deq(at) => {
                    now = at;
                    served += tree.dequeue(at).is_some() as usize;
                }
            }
        }
        loop {
            match tree.dequeue(now) {
                Some(_) => served += 1,
                None => match tree.next_shaping_event() {
                    Some(next) => now = next.max(Nanos(now.as_nanos() + 1)),
                    None => break,
                },
            }
        }
        let dt = t.elapsed();
        assert_eq!(served, self.arrivals.len(), "tree rung lost packets");
        dt
    }

    /// `sim::switch`: `ports` ports sharing 160 Gb/s, so utilisation is
    /// the same on every rung.
    fn switch_rung(
        &self,
        ports: usize,
        memory: Memory,
        telemetry: Option<TelemetryConfig>,
    ) -> Duration {
        let rate = RATE_BPS * (PORTS / ports) as u64;
        let mut switch = fabric(ports, rate, FABRIC_BURST, memory, telemetry, None);
        let t = Instant::now();
        let run = switch.run(&self.arrivals, Default::default());
        let dt = t.elapsed();
        assert_eq!(run.total_departures(), self.arrivals.len());
        assert_eq!(run.total_drops() + run.misrouted, 0);
        dt
    }
}
