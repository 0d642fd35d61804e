//! Multi-port switch-fabric throughput: the shared-classifier → N-port →
//! line-rate-drain pipeline of `pifo_sim::switch`, swept over ports ×
//! PIFO backends × traffic patterns.
//!
//! Each whole-fabric run — one arrival stream per traffic pattern
//! (incast, Markov on/off, heavy-tailed flow workload; 1M+ packets each
//! in full mode), classified across 1/4/16 ports — lands as one row of
//! `BENCH_switch.json` (override the path with `BENCH_SWITCH_OUT`).
//!
//! `--smoke` (or `BENCH_SWITCH_SMOKE=1`) shrinks the sweep for CI.

use pifo_algos::Stfq;
use pifo_core::prelude::*;
use pifo_sim::switch::{DrainMode, SwitchBuilder};
use pifo_sim::traffic::{
    flow_workload, merge, renumber, IncastSource, MarkovOnOffSource, SizeDistribution,
    TrafficSource,
};
use std::fmt::Write as _;
use std::time::Instant;

/// One measured fabric configuration.
struct Record {
    pattern: String,
    ports: usize,
    backend: PifoBackend,
    packets: u64,
    elapsed_ns: u128,
}

impl Record {
    fn pps(&self) -> f64 {
        self.packets as f64 / (self.elapsed_ns as f64 / 1e9)
    }
}

/// A flat single-node STFQ scheduler — the common per-port program.
fn port_tree(backend: PifoBackend, buffer: usize) -> ScheduleTree {
    let mut b = TreeBuilder::new();
    b.with_backend(backend);
    b.buffer_limit(buffer);
    let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
    b.build(Box::new(move |_| root)).expect("single-node tree")
}

/// Incast: 64 synchronized senders per wave, bursting every 20 µs.
fn incast_arrivals(target_pkts: usize) -> Vec<Packet> {
    const FANIN: u32 = 64;
    const PKTS_PER_SENDER: u32 = 16;
    let per_epoch = (FANIN * PKTS_PER_SENDER) as usize;
    let epochs = target_pkts.div_ceil(per_epoch) as u64;
    let period = Nanos::from_micros(20);
    let mut src = IncastSource::new(
        FlowId(0),
        FANIN,
        1_000,
        PKTS_PER_SENDER,
        40_000_000_000,
        period,
        Nanos(period.as_nanos() * epochs),
    );
    let mut out: Vec<Packet> = std::iter::from_fn(|| src.next_packet()).collect();
    renumber(&mut out);
    out
}

/// Markov on/off: 64 independently bursting flows.
fn onoff_arrivals(target_pkts: usize) -> Vec<Packet> {
    const FLOWS: u32 = 64;
    // Mean cycle: 16 packets * 1 µs on-rate + 10 µs idle ≈ 26 µs per
    // flow, so packets/flow ≈ horizon / 1.6 µs.
    let horizon = Nanos((target_pkts as u64 / FLOWS as u64) * 1_650);
    let sources: Vec<Box<dyn TrafficSource>> = (0..FLOWS)
        .map(|f| {
            Box::new(MarkovOnOffSource::new(
                FlowId(f),
                1_000,
                16.0,
                8_000_000_000,
                Nanos::from_micros(10),
                horizon,
                0xC0FFEE + f as u64,
            )) as Box<dyn TrafficSource>
        })
        .collect();
    let mut out = merge(sources);
    renumber(&mut out);
    out
}

/// Heavy-tailed flow workload: bounded-Pareto sizes, Poisson flow
/// arrivals, packets injected at access-link rate.
fn heavytail_arrivals(target_pkts: usize) -> Vec<Packet> {
    let dist = SizeDistribution::bounded_pareto(1.2, 1_000, 10_000_000);
    // Discretized mean ≈ 5 KB ≈ 3.3 MTU packets per flow.
    let n_flows = (target_pkts / 3).max(1);
    let (pkts, _) = flow_workload(n_flows, 2_000_000.0, &dist, 10_000_000_000, 1_500, 7);
    pkts
}

/// Run one fabric configuration and time it.
fn run_switch_config(
    pattern: &str,
    arrivals: &[Packet],
    ports: usize,
    backend: PifoBackend,
) -> Record {
    let mut sb = SwitchBuilder::new(10_000_000_000);
    for _ in 0..ports {
        sb.add_port(port_tree(backend, 60_000));
    }
    sb.with_burst(64);
    let mut sw = sb.build(Box::new(move |p: &Packet| p.flow.0 as usize % ports));

    let start = Instant::now();
    let run = sw.run(arrivals, DrainMode::PerPacket);
    let elapsed_ns = start.elapsed().as_nanos();
    let handled = run.total_departures() as u64 + run.total_drops();
    assert!(handled > 0, "{pattern}: fabric must move packets");
    Record {
        pattern: pattern.to_string(),
        ports,
        backend,
        packets: handled,
        elapsed_ns,
    }
}

fn main() {
    let smoke = pifo_bench::cli::smoke_flag("BENCH_SWITCH_SMOKE");

    let (target_pkts, port_counts, patterns): (usize, &[usize], &[&str]) = if smoke {
        (60_000, &[4], &["incast"])
    } else {
        (1_200_000, &[1, 4, 16], &["incast", "onoff", "heavytail"])
    };

    let mut results: Vec<Record> = Vec::new();

    // ---- Fabric sweep: pattern × ports × backend ------------------------
    for &pattern in patterns {
        let arrivals = match pattern {
            "incast" => incast_arrivals(target_pkts),
            "onoff" => onoff_arrivals(target_pkts),
            "heavytail" => heavytail_arrivals(target_pkts),
            other => unreachable!("unknown pattern {other}"),
        };
        if !smoke {
            assert!(
                arrivals.len() >= 1_000_000,
                "{pattern}: full mode must sweep 1M+ packets (got {})",
                arrivals.len()
            );
        }
        println!("pattern {pattern:<10} {} arrival packets", arrivals.len());
        for &ports in port_counts {
            for backend in PifoBackend::ALL {
                let r = run_switch_config(pattern, &arrivals, ports, backend);
                println!(
                    "switch_fabric {pattern:<10} ports={ports:<3} backend={:<6} {:>12.0} pkts/s",
                    r.backend.label(),
                    r.pps()
                );
                results.push(r);
            }
        }
    }

    // Hand-rolled JSON (no serde in the offline workspace).
    let mut json = String::from("{\n  \"bench\": \"switch_fabric\",\n");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"pattern\": \"{}\", \"ports\": {}, \"backend\": \"{}\", \
             \"packets\": {}, \"elapsed_ns\": {}, \"pkts_per_sec\": {:.0}}}",
            r.pattern,
            r.ports,
            r.backend.label(),
            r.packets,
            r.elapsed_ns,
            r.pps()
        );
        json.push_str(if i + 1 == results.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ]\n}\n");

    let out = std::env::var("BENCH_SWITCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_switch.json").to_string()
    });
    std::fs::write(&out, &json).expect("write BENCH_switch.json");
    println!("wrote {out}");
}
