//! `Switch::run`, `LosslessFabric::run` and `run_port` allocate per run,
//! not per packet or per scheduling round: the classifier demuxes by
//! index (and `run_port`, whose stream is all one port's, builds no index
//! list), each port's departure trace is sized once (from its arrival
//! count, or from the lossless fabric's source bounds) or grows by
//! doubling, a round transmits each packet as it leaves its tree, and
//! path records are appended into logs that are reused. This test counts
//! allocator calls over two run sizes and fails when their number scales
//! with the packet count — the shape of regression (a `mem::take` per
//! round, a packet clone per demux) that otherwise only shows up as
//! `alloc.count_per_pkt` / `alloc.bytes_per_pkt` in a traced benchmark
//! run. The lossless and `run_port` legs also bound the bytes each extra
//! packet costs.
//!
//! It also bounds what building a tree costs before any packet arrives:
//! a node's PIFO allocates its storage on first use, so a tree of idle
//! nodes costs a few hundred bytes per node, whatever its engine.
//!
//! The same allocator also tracks the live heap's peak, which pins
//! `merge`'s memory (a lazy merge of time-sorted sources holds its output
//! and one head per source, and no sort scratch) and what path records
//! cost a fabric on one shared pool (a few bytes per pool slot per port,
//! not a staged record per pool slot per port).
//!
//! An integration test is its own binary, so it can install its own
//! `#[global_allocator]`. There is exactly one `#[test]` here: the
//! counters are process-wide, so that a multi-worker drain's worker
//! threads are counted too.

use pifo::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed, and the highest that count has
/// reached since a measurement last reset it.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn on_alloc(size: usize) {
    if COUNTING.load(Relaxed) {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(size as u64, Relaxed);
    }
    let live = LIVE.fetch_add(size as u64, Relaxed) + size as u64;
    PEAK.fetch_max(live, Relaxed);
}

fn on_dealloc(size: usize) {
    LIVE.fetch_sub(size as u64, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result unchanged; the counters are plain
// statistics that publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_dealloc(layout.size());
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_dealloc(layout.size());
        on_alloc(new_size);
        // SAFETY: `ptr` came from `System` through this allocator, and
        // the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const PORTS: usize = 4;
const RATE_BPS: u64 = 10_000_000_000;

/// Four private-slab single-node STFQ ports behind a flow-hash
/// classifier.
fn build_switch(telemetry: Option<TelemetryConfig>) -> Switch {
    let mut sb = SwitchBuilder::new(RATE_BPS);
    if let Some(cfg) = telemetry {
        sb.with_telemetry(cfg);
    }
    for _ in 0..PORTS {
        let mut b = TreeBuilder::new();
        let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
        sb.add_port(b.build(Box::new(move |_| root)).expect("tree"));
    }
    sb.build(Box::new(|p: &Packet| p.flow.0 as usize % PORTS))
}

/// `n` packets round-robin over the ports, one per port per microsecond
/// against an 800 ns service time: every port stays busy and its backlog
/// stays short, so nothing but the traces grows with `n`.
fn arrivals(n: u64) -> Vec<Packet> {
    (0..n)
        .map(|i| Packet::new(i, FlowId((i % 16) as u32), 1_000, Nanos(i * 250)))
        .collect()
}

/// Four shared-pool STFQ ports under PFC whose thresholds a short
/// backlog never reaches.
fn lossless_fabric() -> LosslessFabric {
    let mut sb = SwitchBuilder::new(RATE_BPS);
    sb.with_shared_pool(
        PORTS * 64,
        AdmissionPolicy::PortFlow {
            port: Threshold::Static(64),
            flow: Threshold::Unlimited,
        },
    );
    for _ in 0..PORTS {
        sb.add_shared_port(|h| {
            let mut b = TreeBuilder::new();
            let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
            b.build_in_pool(Box::new(move |_| root), h).expect("tree")
        });
    }
    let cfg = LosslessConfig::new(32, 8).with_headroom(32);
    LosslessFabric::new(
        sb.build(Box::new(|p: &Packet| p.flow.0 as usize % PORTS)),
        cfg,
    )
}

/// `n` packets from 16 CBR flows, four per port: each flow sends one
/// packet every 4 µs, staggered, so every port sees one per microsecond
/// against an 800 ns service time — busy, never paused.
fn lossless_sources(n: u64) -> Vec<Box<dyn TrafficSource>> {
    const FLOWS: u64 = 16;
    let per_flow = n / FLOWS;
    (0..FLOWS)
        .map(|f| {
            let start = Nanos(f * 250);
            let end = Nanos(start.as_nanos() + per_flow * 4_000);
            Box::new(CbrSource::new(
                FlowId(f as u32),
                1_000,
                2_000_000_000,
                start,
                end,
            )) as Box<dyn TrafficSource>
        })
        .collect()
}

/// Allocator calls and bytes requested during one `LosslessFabric::run`
/// of `n` packets.
fn measure_lossless(n: u64) -> (u64, u64) {
    let mut fabric = lossless_fabric();
    let sources = lossless_sources(n);
    CALLS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
    let run = fabric.run(sources, FaultPlan::none());
    COUNTING.store(false, Relaxed);
    assert!(run.stall.is_none(), "no stall: {:?}", run.stall);
    assert_eq!(run.total_departures() as u64, n, "nothing dropped");
    assert_eq!(run.count_events(PauseAction::Pause), 0, "never paused");
    (CALLS.load(Relaxed), BYTES.load(Relaxed))
}

/// The live heap's peak above its starting level during one `merge` of
/// `n` packets from `lossless_sources`, with the source count and the
/// merged vector's capacity.
fn measure_merge(n: u64) -> (u64, usize, usize) {
    let sources = lossless_sources(n);
    let k = sources.len();
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let merged = merge(sources);
    let peak = PEAK.load(Relaxed) - base;
    assert_eq!(merged.len() as u64, n, "every packet merged");
    (peak, k, merged.capacity())
}

/// Allocator calls and bytes requested during one `run_port` of the
/// whole stream through one single-node STFQ tree at four ports' line
/// rate: a 200 ns service time against one packet per 250 ns.
fn measure_port(n: u64) -> (u64, u64) {
    let arr = arrivals(n);
    let mut b = TreeBuilder::new();
    let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
    let mut sched = TreeScheduler::new("stfq", b.build(Box::new(move |_| root)).expect("tree"));
    let cfg = PortConfig::new(PORTS as u64 * RATE_BPS);
    CALLS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
    let departures = run_port(&arr, &mut sched, &cfg);
    COUNTING.store(false, Relaxed);
    assert_eq!(departures.len() as u64, n, "nothing dropped");
    (CALLS.load(Relaxed), BYTES.load(Relaxed))
}

const SHARED_PORTS: usize = 16;
const SHARED_SLOTS: usize = 16_384;
const SHARED_PORT_LIMIT: usize = SHARED_SLOTS / SHARED_PORTS;

/// The live heap's peak above its starting level during one
/// single-worker `Switch::run` of an incast of `n` packets on sixteen
/// ports of one 16 384-slot shared pool: every port receives one packet
/// per 50 ns against an 800 ns service time, so each fills to its
/// 1 024-packet share, the pool fills to its last slot, and every port
/// buffers packets in slots spread across the whole pool. Returns the
/// peak with the number of path records the run logged.
fn measure_shared_peak(n: u64, telemetry: TelemetryConfig) -> (u64, usize) {
    let mut sb = SwitchBuilder::new(RATE_BPS);
    sb.with_telemetry(telemetry);
    sb.with_shared_pool(
        SHARED_SLOTS,
        AdmissionPolicy::PortFlow {
            port: Threshold::Static(SHARED_PORT_LIMIT),
            flow: Threshold::Unlimited,
        },
    );
    for _ in 0..SHARED_PORTS {
        sb.add_shared_port(|h| {
            let mut b = TreeBuilder::new();
            let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
            b.build_in_pool(Box::new(move |_| root), h).expect("tree")
        });
    }
    let mut sw = sb.build(Box::new(|p: &Packet| p.flow.0 as usize % SHARED_PORTS));
    let arr: Vec<Packet> = (0..n)
        .map(|i| {
            let flow = FlowId((i % SHARED_PORTS as u64) as u32);
            Packet::new(i, flow, 1_000, Nanos(i / SHARED_PORTS as u64 * 50))
        })
        .collect();
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let run = sw.run(&arr, 1);
    let peak = PEAK.load(Relaxed) - base;
    let dropped: u64 = run.ports.iter().map(|p| p.drops).sum();
    assert!(dropped > 0, "every port reached its share of the pool");
    (peak, run.ports.iter().map(|p| p.paths.len()).sum())
}

const IDLE_LEAVES: usize = 64;

/// Bytes requested building a default tree (`TreeBuilder::new()`): a
/// strict-priority root over `IDLE_LEAVES` SRPT leaves, which no packet
/// ever reaches. Neither transaction declares per-flow monotone ranks, so
/// every node runs the default engine. Returns the bytes with the node
/// count.
fn measure_idle_tree() -> (u64, usize) {
    BYTES.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
    let mut b = TreeBuilder::new();
    let root = b.add_root("prio", Box::new(StrictPriority));
    let leaves: Vec<NodeId> = (0..IDLE_LEAVES)
        .map(|i| b.add_child(root, &format!("srpt{i}"), Box::new(Srpt)))
        .collect();
    let tree = b
        .build(Box::new(move |p: &Packet| {
            leaves[p.flow.0 as usize % IDLE_LEAVES]
        }))
        .expect("tree");
    COUNTING.store(false, Relaxed);
    assert!(tree.is_empty());
    (BYTES.load(Relaxed), 1 + IDLE_LEAVES)
}

/// Allocator calls and bytes requested during one `Switch::run`.
fn measure(n: u64, workers: usize, telemetry: Option<TelemetryConfig>) -> (u64, u64) {
    let arr = arrivals(n);
    let mut sw = build_switch(telemetry);
    CALLS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
    let run = sw.run(&arr, workers);
    COUNTING.store(false, Relaxed);
    assert_eq!(run.total_departures() as u64, n, "nothing dropped");
    if telemetry.is_some_and(|c| c.path_records) {
        let records: usize = run.ports.iter().map(|p| p.paths.len()).sum();
        assert_eq!(records as u64, n, "one path record per departure");
    }
    (CALLS.load(Relaxed), BYTES.load(Relaxed))
}

#[test]
fn run_allocations_do_not_scale_with_packets() {
    const N: u64 = 4_096;
    for workers in [1, 2] {
        for telemetry in [None, Some(TelemetryConfig::with_paths())] {
            let label = format!(
                "{workers} worker(s) / {}",
                if telemetry.is_some() { "paths" } else { "off" }
            );
            let (small_calls, small_bytes) = measure(N, workers, telemetry);
            let (big_calls, big_bytes) = measure(4 * N, workers, telemetry);
            // Amortised `Vec` growth only: a few doublings per port for
            // the index lists and the gauge series.
            let grew = big_calls.saturating_sub(small_calls);
            assert!(
                grew < 64,
                "[{label}] {small_calls} allocations for {N} packets, {big_calls} for {}: \
                 something allocates per packet or per round",
                4 * N
            );
            if telemetry.is_none() {
                // Each extra packet costs its `Departure` and an index:
                // a second copy of the packet anywhere would show.
                let per_pkt = big_bytes.saturating_sub(small_bytes) / (3 * N);
                let bound = std::mem::size_of::<Departure>() + std::mem::size_of::<Packet>();
                assert!(
                    per_pkt < bound as u64,
                    "[{label}] {per_pkt} B allocated per extra packet, expected under {bound}"
                );
            }
        }
    }

    // The one-port loop: the same allocations at any length, and each
    // extra packet costs exactly its `Departure` (a per-arrival index
    // list would add four bytes).
    let (small_calls, small_bytes) = measure_port(N);
    let (big_calls, big_bytes) = measure_port(4 * N);
    assert!(
        big_calls.saturating_sub(small_calls) < 64,
        "[run_port] {small_calls} allocations for {N} packets, {big_calls} for {}: \
         something allocates per packet or per round",
        4 * N
    );
    let per_pkt = big_bytes.saturating_sub(small_bytes) / (3 * N);
    let bound = std::mem::size_of::<Departure>() as u64;
    assert!(
        per_pkt <= bound,
        "[run_port] {per_pkt} B allocated per extra packet, expected at most {bound}"
    );

    // The merge holds its output and one head per source: a sort's
    // scratch (a stable sort takes at least half the input) would show.
    let (peak, sources, capacity) = measure_merge(4 * N);
    let bound = capacity * std::mem::size_of::<Packet>() + sources * 256;
    assert!(
        peak <= bound as u64,
        "[merge] live heap peaked {peak} B above its start merging {} packets from \
         {sources} sources, expected at most {bound} (output capacity {capacity})",
        4 * N
    );

    // Path records on a shared pool: a port stages each record in flight
    // and reaches it from the packet's pool slot, so staging costs a few
    // bytes per pool slot a port has used plus one stage per packet the
    // port holds, not a whole stage per pool slot on every port. Against
    // a run with the flight recorder alone, path records may add each
    // port's log (a 40-byte record and one 24-byte hop per arrival), 16
    // bytes per port per pool slot and 512 bytes per packet of a port's
    // share; staging 240 bytes per slot on every port exceeds that
    // several times over.
    let n = 2 * SHARED_SLOTS as u64;
    let (recorder_peak, _) = measure_shared_peak(n, TelemetryConfig::default());
    let (paths_peak, records) = measure_shared_peak(n, TelemetryConfig::with_paths());
    assert!(records > SHARED_SLOTS, "the pool filled and drained");
    let bound =
        n as usize * 64 + SHARED_PORTS * SHARED_SLOTS * 16 + SHARED_PORTS * SHARED_PORT_LIMIT * 512;
    let extra = paths_peak.saturating_sub(recorder_peak);
    assert!(
        extra <= bound as u64,
        "[shared paths] path records raised the live heap's peak by {extra} B on \
         {SHARED_PORTS} ports of a {SHARED_SLOTS}-slot pool, expected at most {bound}"
    );

    // An idle tree: each node's queue engine (the bucket calendar's
    // 4 096 bucket headers, by default) is allocated on its first push,
    // not when the tree is built.
    let (bytes, nodes) = measure_idle_tree();
    let per_node = bytes / nodes as u64;
    assert!(
        per_node <= 1_024,
        "[idle tree] building {nodes} idle nodes allocated {per_node} B per node, \
         expected at most 1 KiB"
    );

    // The lossless fabric's own event loop, on a busy stream that never
    // pauses: its scheduling rounds must reuse their buffers too. Each
    // port's trace is sized once from its sources' bounds, so each extra
    // packet costs exactly its `Departure`; growing the trace by
    // doubling would request two to four times that.
    let (small_calls, small_bytes) = measure_lossless(N);
    let (big_calls, big_bytes) = measure_lossless(4 * N);
    assert!(
        big_calls.saturating_sub(small_calls) < 64,
        "[lossless] {small_calls} allocations for {N} packets, {big_calls} for {}: \
         something allocates per packet or per round",
        4 * N
    );
    let per_pkt = big_bytes.saturating_sub(small_bytes) / (3 * N);
    let bound = std::mem::size_of::<Departure>() as u64;
    assert!(
        per_pkt <= bound,
        "[lossless] {per_pkt} B allocated per extra packet, expected at most {bound}"
    );
}
