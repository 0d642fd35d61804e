//! Telemetry overhead on the 16-port incast fabric: what the flight
//! recorder and the per-packet path records cost — and the proof they
//! only observe.
//!
//! The §5.1 incast storm (64 flows, 1024-packet waves every 20 µs)
//! sprays across a 16-port shared-pool switch under Choudhury–Hahne
//! thresholds. Every exact backend runs three telemetry modes:
//!
//! * `off`            — no telemetry (the baseline hot path);
//! * `recorder`       — per-tree flight-recorder rings + sampled gauges;
//! * `recorder_paths` — the above plus INT-style per-packet path
//!   records (the most expensive mode).
//!
//! Three invariants are asserted, not just reported:
//!
//! 1. departure traces are **bit-identical** across all three modes
//!    (telemetry observes, never steers);
//! 2. the flight-recorder mode costs at most 10% throughput on the
//!    full-scale run (the acceptance bound; the smoke run uses a loose
//!    sanity bound because tiny runs are timing noise);
//! 3. the event stream reconciles with the trace: enqueue = pool-alloc
//!    = admitted, dequeue = departed, drop events = trace drops, and
//!    one path record per departure.
//!
//! Results land in `BENCH_telemetry.json` (override with
//! `BENCH_TELEMETRY_OUT`); `--smoke` / `BENCH_TELEMETRY_SMOKE=1`
//! shrinks the sweep for CI.

use pifo_algos::Stfq;
use pifo_core::prelude::*;
use pifo_core::telemetry::EventKind;
use pifo_sim::switch::{DrainMode, SwitchBuilder, SwitchRun};
use std::fmt::Write as _;
use std::time::Instant;

const PORTS: usize = 16;
const RATE_BPS: u64 = 10_000_000_000;
const POOL_CAPACITY: usize = 1_024;
const WAVE_PKTS: u64 = 1_024;
const WAVE_PERIOD_NS: u64 = 20_000;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Off,
    Recorder,
    RecorderPaths,
}

impl Mode {
    const ALL: [Mode; 3] = [Mode::Off, Mode::Recorder, Mode::RecorderPaths];

    fn label(self) -> &'static str {
        match self {
            Mode::Off => "off",
            Mode::Recorder => "recorder",
            Mode::RecorderPaths => "recorder_paths",
        }
    }

    fn config(self) -> Option<TelemetryConfig> {
        match self {
            Mode::Off => None,
            Mode::Recorder => Some(TelemetryConfig::default()),
            Mode::RecorderPaths => Some(TelemetryConfig::with_paths()),
        }
    }
}

struct Record {
    backend: PifoBackend,
    mode: Mode,
    packets: u64,
    departed: u64,
    drops: u64,
    elapsed_ns: u128,
    ratio_vs_off: f64,
    events_recorded: u64,
    events_retained: usize,
    path_records: usize,
}

impl Record {
    fn pps(&self) -> f64 {
        self.packets as f64 / (self.elapsed_ns as f64 / 1e9)
    }
}

/// The incast storm, spread across all 16 ports by the flow classifier.
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

fn build_switch(backend: PifoBackend, mode: Mode) -> pifo_sim::Switch {
    let mut sb = SwitchBuilder::new(RATE_BPS);
    sb.with_burst(32);
    sb.with_shared_pool(
        POOL_CAPACITY,
        AdmissionPolicy::DynamicThreshold { num: 1, den: 1 },
    );
    if let Some(cfg) = mode.config() {
        sb.with_telemetry(cfg);
    }
    for _ in 0..PORTS {
        sb.add_shared_port(|pool| {
            let mut b = TreeBuilder::new();
            b.with_backend(backend);
            let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
            b.build_in_pool(Box::new(move |_| root), pool)
                .expect("tree")
        });
    }
    sb.build(Box::new(|p: &Packet| p.flow.0 as usize % PORTS))
}

/// Run all three telemetry modes for one backend, `reps` times each,
/// **interleaved** (off, recorder, recorder_paths, off, …) so that
/// machine-speed drift between cells hits every mode equally. Returns
/// per-mode fastest elapsed time plus one trace and snapshot (runs are
/// deterministic, so any rep's trace is *the* trace).
fn measure_all(
    backend: PifoBackend,
    arr: &[Packet],
    reps: usize,
) -> [(u128, SwitchRun, Option<TelemetrySnapshot>); 3] {
    let mut best: [Option<(u128, SwitchRun, Option<TelemetrySnapshot>)>; 3] = [None, None, None];
    for _ in 0..reps {
        for (slot, mode) in Mode::ALL.into_iter().enumerate() {
            let mut sw = build_switch(backend, mode);
            let start = Instant::now();
            let run = sw.run(arr, DrainMode::PerPacket);
            let elapsed = start.elapsed().as_nanos();
            match &mut best[slot] {
                Some((b, _, _)) => *b = (*b).min(elapsed),
                None => {
                    let snap = sw.telemetry_snapshot(&run);
                    best[slot] = Some((elapsed, run, snap));
                }
            }
        }
    }
    best.map(|b| b.expect("reps >= 1"))
}

fn main() {
    let smoke = pifo_bench::cli::smoke_flag("BENCH_TELEMETRY_SMOKE");
    let (waves, reps): (u64, usize) = if smoke { (25, 2) } else { (400, 5) };
    let arr = arrivals(waves);
    println!(
        "telemetry_overhead: {} storm packets ({} waves x {WAVE_PKTS}) across {PORTS} ports, {} mode",
        arr.len(),
        waves,
        if smoke { "smoke" } else { "full" }
    );

    let mut results: Vec<Record> = Vec::new();
    for backend in PifoBackend::EXACT {
        let mut off_elapsed = 0u128;
        let mut off_run: Option<SwitchRun> = None;
        let cells = measure_all(backend, &arr, reps);
        for (mode, (elapsed_ns, run, snap)) in Mode::ALL.into_iter().zip(cells) {
            let departed = run.total_departures() as u64;
            let drops = run.total_drops();
            assert_eq!(departed + drops, arr.len() as u64, "every packet accounted");

            // Invariant 1: telemetry observes, never steers.
            if let Some(reference) = &off_run {
                for (port, (a, b)) in reference.ports.iter().zip(&run.ports).enumerate() {
                    assert_eq!(
                        a.departures,
                        b.departures,
                        "[{backend}/{}] port {port} trace diverges from telemetry-off",
                        mode.label()
                    );
                    assert_eq!(
                        a.drops,
                        b.drops,
                        "[{backend}/{}] port {port} drops",
                        mode.label()
                    );
                }
            }

            // Invariant 3: the event stream reconciles with the trace.
            let (events_recorded, events_retained) = match &snap {
                Some(s) => {
                    assert_eq!(s.count(EventKind::Enqueue), departed, "enqueues = admitted");
                    assert_eq!(s.count(EventKind::PoolAlloc), departed, "allocs = admitted");
                    assert_eq!(s.count(EventKind::Dequeue), departed, "dequeues = departed");
                    assert_eq!(s.count(EventKind::PoolFree), departed, "frees = departed");
                    assert_eq!(s.count(EventKind::Drop), drops, "drop events = trace drops");
                    (s.events_recorded, s.events.len())
                }
                None => (0, 0),
            };
            let path_records: usize = run.ports.iter().map(|p| p.paths.len()).sum();
            if mode == Mode::RecorderPaths {
                assert_eq!(
                    path_records as u64, departed,
                    "one path record per departure"
                );
            }

            let ratio_vs_off = match mode {
                Mode::Off => {
                    off_elapsed = elapsed_ns;
                    off_run = Some(run.clone());
                    1.0
                }
                _ => elapsed_ns as f64 / off_elapsed as f64,
            };
            // Invariant 2: the flight recorder is cheap. The acceptance
            // bound holds on the full-scale run; smoke runs are too
            // short to time meaningfully, so only a sanity bound there.
            if mode == Mode::Recorder {
                let bound = if smoke { 3.0 } else { 1.10 };
                assert!(
                    ratio_vs_off <= bound,
                    "[{backend}] flight recorder costs {:.1}% (> {:.0}% bound)",
                    (ratio_vs_off - 1.0) * 100.0,
                    (bound - 1.0) * 100.0
                );
            }

            println!(
                "telemetry_overhead backend={:<6} mode={:<14} {:>12.0} pkts/s  ratio={:.3}  events={:<9} paths={}",
                backend.label(),
                mode.label(),
                arr.len() as f64 / (elapsed_ns as f64 / 1e9),
                ratio_vs_off,
                events_recorded,
                path_records,
            );
            results.push(Record {
                backend,
                mode,
                packets: arr.len() as u64,
                departed,
                drops,
                elapsed_ns,
                ratio_vs_off,
                events_recorded,
                events_retained,
                path_records,
            });
        }
    }

    // Determinism cross-check (one cell): the merged event stream is
    // identical whether the fabric drains on one thread or in parallel.
    {
        let backend = PifoBackend::default();
        let snap_of = |mode: DrainMode| {
            let mut sw = build_switch(backend, Mode::RecorderPaths);
            let run = sw.run(&arr, mode);
            sw.telemetry_snapshot(&run).expect("telemetry on")
        };
        assert_eq!(
            snap_of(DrainMode::PerPacket),
            snap_of(DrainMode::Parallel { workers: 2 }),
            "event stream must be drain-mode invariant"
        );
    }

    // Hand-rolled JSON (no serde in the offline workspace).
    let mut json = String::from("{\n  \"bench\": \"telemetry_overhead\",\n");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(json, "  \"ports\": {PORTS},");
    let _ = writeln!(json, "  \"pool_capacity\": {POOL_CAPACITY},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"backend\": \"{}\", \"telemetry\": \"{}\", \"packets\": {}, \
             \"departed\": {}, \"drops\": {}, \"elapsed_ns\": {}, \"pkts_per_sec\": {:.0}, \
             \"ratio_vs_off\": {:.4}, \"events_recorded\": {}, \"events_retained\": {}, \
             \"path_records\": {}}}",
            r.backend.label(),
            r.mode.label(),
            r.packets,
            r.departed,
            r.drops,
            r.elapsed_ns,
            r.pps(),
            r.ratio_vs_off,
            r.events_recorded,
            r.events_retained,
            r.path_records,
        );
        json.push_str(if i + 1 == results.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ]\n}\n");

    let out = std::env::var("BENCH_TELEMETRY_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_telemetry.json").to_string()
    });
    std::fs::write(&out, &json).expect("write BENCH_telemetry.json");
    println!("wrote {out}");
}
