//! Lossless-fabric sweep: what PFC-style backpressure costs — and buys —
//! against the drop-based admission policies on the §5.1 incast storm.
//!
//! A 16-port fabric takes the shared-pool incast workload under four
//! buffer disciplines:
//!
//! * `drop_only`    — one pool, global capacity only
//!   (`AdmissionPolicy::Unlimited`): the storm pins the pool and the
//!   fabric sheds load by tail-dropping;
//! * `static`       — fixed per-port thresholds: fenced, still dropping;
//! * `dynamic`      — Choudhury–Hahne thresholds (`alpha = 1`): victims
//!   protected, hog drops continue;
//! * `pfc_lossless` — port×flow admission wired into watermark-driven
//!   pause/resume ([`LosslessFabric`]): **zero drops, asserted** — the
//!   hog is paced to its drain rate instead of shedding.
//!
//! Every discipline runs on every exact PIFO backend and reports its
//! peak pool occupancy; the lossless leg also reports pause counts, and
//! runs the storm ≈ 41× longer so that its paced hog delivers as many
//! packets as the drop legs handle (see [`lossless_waves`]) — the
//! `pkts_per_sec` columns compare like with like. Results land in
//! `BENCH_lossless.json` (override with `BENCH_LOSSLESS_OUT`);
//! `--smoke` / `BENCH_LOSSLESS_SMOKE=1` shrinks the sweep for CI.

use pifo_algos::Stfq;
use pifo_core::prelude::*;
use pifo_sim::switch::{DrainMode, SwitchBuilder};
use pifo_sim::{IncastSource, LosslessConfig, LosslessFabric, LosslessRun, TrafficSource};
use std::fmt::Write as _;
use std::time::Instant;

const PORTS: usize = 16;
const RATE_BPS: u64 = 10_000_000_000;
const POOL_CAPACITY: usize = 1_024;
const WAVE_PKTS: u64 = 1_024;
const WAVE_PERIOD_NS: u64 = 20_000;
const XOFF: usize = 32;
const XON: usize = 8;
const HEADROOM: usize = 32;

#[derive(Clone, Copy, PartialEq)]
enum Discipline {
    DropOnly,
    Static,
    Dynamic,
    PfcLossless,
}

impl Discipline {
    const ALL: [Discipline; 4] = [
        Discipline::DropOnly,
        Discipline::Static,
        Discipline::Dynamic,
        Discipline::PfcLossless,
    ];

    fn label(self) -> &'static str {
        match self {
            Discipline::DropOnly => "drop_only",
            Discipline::Static => "static",
            Discipline::Dynamic => "dynamic",
            Discipline::PfcLossless => "pfc_lossless",
        }
    }

    fn policy(self) -> AdmissionPolicy {
        match self {
            Discipline::DropOnly => AdmissionPolicy::Unlimited,
            Discipline::Static => AdmissionPolicy::Static {
                per_port: XOFF + HEADROOM,
            },
            Discipline::Dynamic => AdmissionPolicy::DynamicThreshold { num: 1, den: 1 },
            Discipline::PfcLossless => AdmissionPolicy::PortFlow {
                port: Threshold::Static(XOFF + HEADROOM),
                flow: Threshold::Unlimited,
            },
        }
    }
}

struct Record {
    discipline: Discipline,
    backend: PifoBackend,
    packets: u64,
    departed: u64,
    drops: u64,
    pauses: usize,
    peak_pool: usize,
    elapsed_ns: u128,
}

impl Record {
    fn pps(&self) -> f64 {
        self.packets as f64 / (self.elapsed_ns as f64 / 1e9)
    }
}

/// The drop-based runs replay a pre-generated arrival trace (open loop:
/// the storm does not react to drops).
fn arrivals(waves: u64) -> Vec<Packet> {
    let mut out = Vec::new();
    let mut id = 0u64;
    for wave in 0..waves {
        for k in 0..WAVE_PKTS {
            out.push(Packet::new(
                id,
                FlowId((k % 64) as u32),
                1_000,
                Nanos(wave * WAVE_PERIOD_NS),
            ));
            id += 1;
        }
    }
    out
}

/// The lossless run needs live sources (backpressure closes the loop):
/// the same 64-sender incast, emitted reactively.
fn hog_source(waves: u64) -> Vec<Box<dyn TrafficSource>> {
    vec![Box::new(IncastSource::new(
        FlowId(0),
        64,
        1_000,
        (WAVE_PKTS / 64) as u32,
        RATE_BPS,
        Nanos(WAVE_PERIOD_NS),
        Nanos(waves * WAVE_PERIOD_NS),
    )) as Box<dyn TrafficSource>]
}

/// Waves the lossless leg runs so that its `packets` matches the drop
/// legs': backpressure holds the hog to port 0's line rate — one packet
/// per `tx_time`, not one wave per period — so delivering a drop leg's
/// `waves × WAVE_PKTS` packets takes that many transmit times.
fn lossless_waves(waves: u64) -> u64 {
    (waves * WAVE_PKTS * tx_time(1_000, RATE_BPS).as_nanos()).div_ceil(WAVE_PERIOD_NS)
}

// Every storm flow lands on port 0; ports 1..15 stand by (their share
// of the pool is what the sizing rule reserves).
fn classify(_: &Packet) -> usize {
    0
}

fn build_switch(discipline: Discipline, backend: PifoBackend) -> pifo_sim::Switch {
    let mut sb = SwitchBuilder::new(RATE_BPS);
    sb.with_burst(32);
    sb.with_shared_pool(POOL_CAPACITY, discipline.policy());
    for _ in 0..PORTS {
        sb.add_shared_port(|pool| {
            let mut b = TreeBuilder::new();
            b.with_backend(backend);
            let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
            b.build_in_pool(Box::new(move |_| root), pool)
                .expect("tree")
        });
    }
    sb.build(Box::new(classify))
}

fn run_drop_based(discipline: Discipline, backend: PifoBackend, arr: &[Packet]) -> Record {
    let mut sw = build_switch(discipline, backend);
    let start = Instant::now();
    let run = sw.run(arr, DrainMode::PerPacket);
    let elapsed_ns = start.elapsed().as_nanos();
    let handled = run.total_departures() as u64 + run.total_drops();
    assert_eq!(handled, arr.len() as u64, "every packet accounted");
    Record {
        discipline,
        backend,
        packets: handled,
        departed: run.total_departures() as u64,
        drops: run.total_drops(),
        pauses: 0,
        // Freed slots are reused first, so the slots ever claimed are
        // exactly the pool's high-water mark.
        peak_pool: sw.port(0).pool_handle().pool().slot_count(),
        elapsed_ns,
    }
}

fn run_lossless(backend: PifoBackend, waves: u64) -> (Record, LosslessRun) {
    let cfg = LosslessConfig::new(XOFF, XON).with_headroom(HEADROOM);
    let mut fabric = LosslessFabric::new(build_switch(Discipline::PfcLossless, backend), cfg);
    let start = Instant::now();
    let run = fabric.run(hog_source(waves), DrainMode::PerPacket);
    let elapsed_ns = start.elapsed().as_nanos();

    // The zero-drop contract is a bench invariant, not just a column.
    assert!(run.stall.is_none(), "lossless run stalled: {:?}", run.stall);
    assert_eq!(run.total_drops(), 0, "the lossless leg must not drop");
    assert_eq!(run.skid_overflow, 0, "headroom must never overflow");
    assert_eq!(
        run.count_events(pifo_sim::PauseAction::Pause),
        run.count_events(pifo_sim::PauseAction::Resume),
        "every pause must resolve"
    );
    let cfg = LosslessConfig::new(XOFF, XON).with_headroom(HEADROOM);
    assert!(
        run.max_pool_live <= cfg.min_pool_capacity(PORTS),
        "pool peak {} exceeds the sizing rule {}",
        run.max_pool_live,
        cfg.min_pool_capacity(PORTS)
    );

    let departed = run.total_departures() as u64;
    let record = Record {
        discipline: Discipline::PfcLossless,
        backend,
        packets: departed,
        departed,
        drops: 0,
        pauses: run.count_events(pifo_sim::PauseAction::Pause),
        peak_pool: run.max_pool_live,
        elapsed_ns,
    };
    (record, run)
}

fn main() {
    let smoke = pifo_bench::cli::smoke_flag("BENCH_LOSSLESS_SMOKE");
    let waves: u64 = if smoke { 25 } else { 400 };
    let arr = arrivals(waves);
    println!(
        "lossless_fabric: {} storm packets ({} waves x {WAVE_PKTS}), {} mode",
        arr.len(),
        waves,
        if smoke { "smoke" } else { "full" }
    );

    let mut results: Vec<Record> = Vec::new();
    for discipline in Discipline::ALL {
        for backend in PifoBackend::EXACT {
            let r = match discipline {
                Discipline::PfcLossless => run_lossless(backend, lossless_waves(waves)).0,
                _ => run_drop_based(discipline, backend, &arr),
            };
            println!(
                "lossless_fabric {:<13} backend={:<6} {:>12.0} pkts/s  departed={:<8} drops={:<8} pauses={:<6} peak_pool={}",
                r.discipline.label(),
                r.backend.label(),
                r.pps(),
                r.departed,
                r.drops,
                r.pauses,
                r.peak_pool,
            );
            results.push(r);
        }
    }

    // The sweep's comparative claims, asserted:
    let drops_of = |d: Discipline| -> u64 {
        results
            .iter()
            .filter(|r| r.discipline == d)
            .map(|r| r.drops)
            .sum()
    };
    assert!(
        drops_of(Discipline::DropOnly) > 0,
        "the storm must overwhelm the naive pool"
    );
    assert_eq!(drops_of(Discipline::PfcLossless), 0, "lossless is lossless");

    // Hand-rolled JSON (no serde in the offline workspace).
    let mut json = String::from("{\n  \"bench\": \"lossless_fabric\",\n");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(json, "  \"waves\": {waves},");
    let _ = writeln!(json, "  \"lossless_waves\": {},", lossless_waves(waves));
    let _ = writeln!(json, "  \"ports\": {PORTS},");
    let _ = writeln!(json, "  \"pool_capacity\": {POOL_CAPACITY},");
    let _ = writeln!(json, "  \"xoff\": {XOFF},");
    let _ = writeln!(json, "  \"xon\": {XON},");
    let _ = writeln!(json, "  \"headroom\": {HEADROOM},");
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"discipline\": \"{}\", \"backend\": \"{}\", \"packets\": {}, \
             \"departed\": {}, \"drops\": {}, \"pauses\": {}, \"peak_pool\": {}, \
             \"elapsed_ns\": {}, \"pkts_per_sec\": {:.0}}}",
            r.discipline.label(),
            r.backend.label(),
            r.packets,
            r.departed,
            r.drops,
            r.pauses,
            r.peak_pool,
            r.elapsed_ns,
            r.pps()
        );
        json.push_str(if i + 1 == results.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ]\n}\n");

    let out = std::env::var("BENCH_LOSSLESS_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_lossless.json").to_string()
    });
    std::fs::write(&out, &json).expect("write BENCH_lossless.json");
    println!("wrote {out}");
}
