//! Multi-core fabric drain sweep: a 16-port incast fabric with private
//! per-port slabs — sixteen pools, so sixteen independent groups to deal
//! to workers — drained by `Switch::run` at 1, 2, 4, and 8 workers. Each
//! worker runs its ports in `(time, port)` order on one pass over the
//! arrivals; the 1-worker leg runs on the calling thread alone and is
//! the baseline every speedup is quoted against.
//!
//! Every multi-worker leg's per-port departure traces are cross-checked
//! byte-identical to the one-worker run — the
//! sweep measures a drain that is *provably* the same schedule, not a
//! relaxed one. Results land in `BENCH_parallel.json` (override with
//! `BENCH_PARALLEL_OUT`); `--smoke` shrinks the sweep for CI.
//!
//! The JSON records `available_parallelism` so the numbers are
//! interpretable: on a 1-core box the parallel legs can only tie the
//! one-worker drain (worker threads time-slice one core), so the ≥2×
//! speedup check is asserted only when ≥4 cores are actually available
//! (and not in smoke mode, where the workload is too small to amortise
//! thread startup).

use pifo_algos::Stfq;
use pifo_core::prelude::*;
use pifo_sim::switch::{SwitchBuilder, SwitchRun};
use std::fmt::Write as _;
use std::time::Instant;

const PORTS: usize = 16;
/// Incast fan-in per port: 16 flows converge on every output port.
const FANIN: u64 = 16;
const WAVE_PERIOD_NS: u64 = 20_000;
const PORT_BUFFER: usize = 512;

/// Synchronized incast onto all 16 ports: every wave lands `FANIN`
/// packets on every port simultaneously, so each port carries the same
/// heavy load and the parallel drain has 16 equal shards to spread.
fn arrivals(waves: u64) -> Vec<Packet> {
    let mut out = Vec::new();
    let mut id = 0u64;
    for wave in 0..waves {
        for k in 0..FANIN {
            for port in 0..PORTS as u64 {
                // classify() routes flow f to port f % PORTS.
                let flow = (port + PORTS as u64 * k) as u32;
                out.push(Packet::new(
                    id,
                    FlowId(flow),
                    1_000,
                    Nanos(wave * WAVE_PERIOD_NS),
                ));
                id += 1;
            }
        }
    }
    out
}

fn classify(p: &Packet) -> usize {
    p.flow.0 as usize % PORTS
}

fn build_switch() -> pifo_sim::Switch {
    let mut sb = SwitchBuilder::new(10_000_000_000);
    sb.with_burst(32);
    for _ in 0..PORTS {
        let mut b = TreeBuilder::new();
        b.buffer_limit(PORT_BUFFER);
        let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
        sb.add_port(b.build(Box::new(move |_| root)).expect("tree"));
    }
    sb.build(Box::new(classify))
}

struct Record {
    workers: usize,
    packets: u64,
    elapsed_ns: u128,
}

impl Record {
    fn pps(&self) -> f64 {
        self.packets as f64 / (self.elapsed_ns as f64 / 1e9)
    }
}

fn run_workers(workers: usize, arr: &[Packet]) -> (Record, SwitchRun) {
    let mut sw = build_switch();
    let start = Instant::now();
    let run = sw.run(arr, workers);
    let elapsed_ns = start.elapsed().as_nanos();
    let handled = run.total_departures() as u64 + run.total_drops() + run.misrouted;
    assert_eq!(handled, arr.len() as u64, "every packet accounted");
    (
        Record {
            workers,
            packets: handled,
            elapsed_ns,
        },
        run,
    )
}

fn assert_same_schedule(label: &str, reference: &SwitchRun, candidate: &SwitchRun) {
    for (port, (a, b)) in reference.ports.iter().zip(&candidate.ports).enumerate() {
        assert_eq!(a.drops, b.drops, "[{label}] port {port} drops diverge");
        assert_eq!(
            a.departures, b.departures,
            "[{label}] port {port} trace diverges from sequential"
        );
    }
}

fn main() {
    let smoke = pifo_bench::cli::smoke_flag();

    // Full mode: ~1.3 M packets (5 000 waves x 16 ports x 16 fan-in).
    // Smoke: ~5 K.
    let waves: u64 = if smoke { 20 } else { 5_000 };
    let arr = arrivals(waves);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "parallel_drain: {} arrival packets ({} waves x {PORTS} ports x {FANIN} fan-in), \
         {} mode, {} core(s) available",
        arr.len(),
        waves,
        if smoke { "smoke" } else { "full" },
        cores,
    );

    let mut results: Vec<Record> = Vec::new();

    let (one, reference) = run_workers(1, &arr);
    let baseline_pps = one.pps();
    println!("parallel_drain workers=1  {baseline_pps:>12.0} pkts/s  (baseline)");
    results.push(one);

    let mut speedup_at_4 = 0.0f64;
    for workers in [2usize, 4, 8] {
        let (r, run) = run_workers(workers, &arr);
        assert_same_schedule(&format!("w{workers}"), &reference, &run);
        let speedup = r.pps() / baseline_pps;
        if workers == 4 {
            speedup_at_4 = speedup;
        }
        println!(
            "parallel_drain workers={workers:<2} {:>12.0} pkts/s  ({speedup:.2}x one worker)",
            r.pps(),
        );
        results.push(r);
    }

    // The acceptance check needs real cores under the workers and a
    // workload large enough to amortise thread startup; on fewer than 4
    // cores (or in smoke mode) the numbers are still recorded but not
    // asserted.
    if !smoke && cores >= 4 {
        assert!(
            speedup_at_4 >= 2.0,
            "expected >= 2x one-worker throughput at 4 workers on {cores} cores, got {speedup_at_4:.2}x"
        );
    }

    // Hand-rolled JSON (no serde in the offline workspace). The row schema
    // predates worker counts: every row is the one drain ("parallel"), and
    // "per packet" in the speedup key is the one-worker baseline.
    let mut json = String::from("{\n  \"bench\": \"parallel_drain\",\n");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(json, "  \"ports\": {PORTS},");
    let _ = writeln!(json, "  \"fan_in\": {FANIN},");
    let _ = writeln!(json, "  \"available_parallelism\": {cores},");
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"drain\": \"parallel\", \"workers\": {}, \"packets\": {}, \
             \"elapsed_ns\": {}, \"pkts_per_sec\": {:.0}, \"speedup_vs_per_packet\": {:.3}}}",
            r.workers,
            r.packets,
            r.elapsed_ns,
            r.pps(),
            r.pps() / baseline_pps,
        );
        json.push_str(if i + 1 == results.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ]\n}\n");

    let out = std::env::var("BENCH_PARALLEL_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel.json").to_string()
    });
    std::fs::write(&out, &json).expect("write BENCH_parallel.json");
    println!("wrote {out}");
}
