//! Shared-pool admission sweep: the §5.1/§6.1 memory system under an
//! incast storm, comparing three buffer organisations on a 16-port
//! fabric —
//!
//! * `private`    — every port owns a private slab (the pre-pool design:
//!   ports are embarrassingly independent, the storm cannot touch the
//!   victims and the victims cannot borrow the storm's idle memory);
//! * `shared_naive` — one pool, global capacity only
//!   (`AdmissionPolicy::Unlimited`): the storm pins the pool and locks
//!   the victim ports out;
//! * `shared_dynamic` — one pool behind Choudhury–Hahne dynamic
//!   thresholds (`alpha = 1`): the storm is fenced to a fraction of the
//!   pool and victim drops return to zero.
//!
//! Every configuration runs on every backend. Results land in
//! `BENCH_pool.json` (override with `BENCH_POOL_OUT`); `--smoke` /
//! `BENCH_POOL_SMOKE=1` shrinks the sweep for CI.

use pifo_algos::Stfq;
use pifo_core::prelude::*;
use pifo_sim::switch::{DrainMode, SwitchBuilder};
use std::fmt::Write as _;
use std::time::Instant;

const PORTS: usize = 16;
const POOL_CAPACITY: usize = 1_024;
const WAVE_PKTS: u64 = 1_024;
const WAVE_PERIOD_NS: u64 = 20_000;
const VICTIM_BURST: u64 = 64;

#[derive(Clone, Copy, PartialEq)]
enum Config {
    Private,
    SharedNaive,
    SharedDynamic,
}

impl Config {
    const ALL: [Config; 3] = [Config::Private, Config::SharedNaive, Config::SharedDynamic];

    fn label(self) -> &'static str {
        match self {
            Config::Private => "private",
            Config::SharedNaive => "shared_naive",
            Config::SharedDynamic => "shared_dynamic",
        }
    }
}

struct Record {
    config: Config,
    backend: PifoBackend,
    packets: u64,
    hog_drops: u64,
    victim_drops: u64,
    elapsed_ns: u128,
}

impl Record {
    fn pps(&self) -> f64 {
        self.packets as f64 / (self.elapsed_ns as f64 / 1e9)
    }
}

/// The storm + victims workload: `waves` incast waves of 1 024 packets
/// into port 0 (8× the port drain rate, so the pool stays pinned), and a
/// 64-packet victim burst per port 1..15 every 500 µs, staggered.
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
    let horizon = waves * WAVE_PERIOD_NS;
    for port in 1..PORTS as u64 {
        let mut t = 50_000 + 30_000 * (port - 1);
        while t < horizon {
            for _ in 0..VICTIM_BURST {
                out.push(Packet::new(id, FlowId(100 + port as u32), 1_000, Nanos(t)));
                id += 1;
            }
            t += 500_000;
        }
    }
    out.sort_by_key(|p| p.arrival);
    out
}

fn classify(p: &Packet) -> usize {
    if p.flow.0 < 64 {
        0
    } else {
        (p.flow.0 as usize - 100) % PORTS
    }
}

fn build_switch(config: Config, backend: PifoBackend) -> pifo_sim::Switch {
    let mut sb = SwitchBuilder::new(10_000_000_000);
    sb.with_burst(32);
    match config {
        Config::Private => {
            for port in 0..PORTS {
                let mut b = TreeBuilder::new();
                b.with_backend(backend);
                if port == 0 {
                    b.buffer_limit(POOL_CAPACITY);
                }
                let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
                sb.add_port(b.build(Box::new(move |_| root)).expect("tree"));
            }
        }
        Config::SharedNaive | Config::SharedDynamic => {
            let policy = if config == Config::SharedNaive {
                AdmissionPolicy::Unlimited
            } else {
                AdmissionPolicy::DynamicThreshold { num: 1, den: 1 }
            };
            sb.with_shared_pool(POOL_CAPACITY, policy);
            for _ in 0..PORTS {
                sb.add_shared_port(|pool| {
                    let mut b = TreeBuilder::new();
                    b.with_backend(backend);
                    let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
                    b.build_in_pool(Box::new(move |_| root), pool)
                        .expect("tree")
                });
            }
        }
    }
    sb.build(Box::new(classify))
}

fn run_config(config: Config, backend: PifoBackend, arr: &[Packet]) -> Record {
    let mut sw = build_switch(config, backend);
    let start = Instant::now();
    let run = sw.run(arr, DrainMode::PerPacket);
    let elapsed_ns = start.elapsed().as_nanos();
    let handled = run.total_departures() as u64 + run.total_drops();
    assert_eq!(handled, arr.len() as u64, "every packet accounted");
    Record {
        config,
        backend,
        packets: handled,
        hog_drops: run.ports[0].drops,
        victim_drops: run.ports[1..].iter().map(|p| p.drops).sum(),
        elapsed_ns,
    }
}

fn main() {
    let smoke = pifo_bench::cli::smoke_flag("BENCH_POOL_SMOKE");

    // Full mode: ~1.2 M storm packets (+ victim bursts). Smoke: ~60 K.
    let waves: u64 = if smoke { 58 } else { 1_200 };
    let arr = arrivals(waves);
    println!(
        "shared_pool: {} arrival packets ({} waves x {WAVE_PKTS} + victim bursts), {} mode",
        arr.len(),
        waves,
        if smoke { "smoke" } else { "full" }
    );

    let mut results: Vec<Record> = Vec::new();
    for config in Config::ALL {
        for backend in PifoBackend::ALL {
            let r = run_config(config, backend, &arr);
            println!(
                "shared_pool {:<15} backend={:<6} {:>12.0} pkts/s  hog_drops={:<8} victim_drops={}",
                r.config.label(),
                r.backend.label(),
                r.pps(),
                r.hog_drops,
                r.victim_drops,
            );
            results.push(r);
        }
        // Admission behaviour is a correctness claim of the sweep, not
        // just a number: victims must drop under the naive cap and must
        // not under dynamic thresholds (or private slabs).
        let victim_drops: u64 = results
            .iter()
            .filter(|r| r.config == config)
            .map(|r| r.victim_drops)
            .sum();
        match config {
            Config::SharedNaive => {
                assert!(victim_drops > 0, "naive shared cap must lock victims out")
            }
            Config::Private | Config::SharedDynamic => assert_eq!(
                victim_drops,
                0,
                "{} must not drop victim packets",
                config.label()
            ),
        }
    }

    // Hand-rolled JSON (no serde in the offline workspace).
    let mut json = String::from("{\n  \"bench\": \"shared_pool\",\n");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(json, "  \"ports\": {PORTS},");
    let _ = writeln!(json, "  \"pool_capacity\": {POOL_CAPACITY},");
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"config\": \"{}\", \"backend\": \"{}\", \
             \"packets\": {}, \"hog_drops\": {}, \"victim_drops\": {}, \
             \"elapsed_ns\": {}, \"pkts_per_sec\": {:.0}}}",
            r.config.label(),
            r.backend.label(),
            r.packets,
            r.hog_drops,
            r.victim_drops,
            r.elapsed_ns,
            r.pps()
        );
        json.push_str(if i + 1 == results.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ]\n}\n");

    let out = std::env::var("BENCH_POOL_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pool.json").to_string()
    });
    std::fs::write(&out, &json).expect("write BENCH_pool.json");
    println!("wrote {out}");
}
