//! X7: the observability tour — flight-recorder event tracing,
//! INT-style per-packet path records, and time-series gauges on the
//! shared-buffer fabric, with the "observes, never steers" contract
//! checked inline.

use pifo_algos::Stfq;
use pifo_core::prelude::*;
use pifo_core::telemetry::EventKind;
use pifo_sim::{Switch, SwitchBuilder};
use std::fmt::Write as _;

const PORTS: usize = 4;
const RATE_BPS: u64 = 10_000_000_000;
const POOL: usize = 256;

fn build_switch(telemetry: Option<TelemetryConfig>) -> Switch {
    let backend = super::backend();
    let mut sb = SwitchBuilder::new(RATE_BPS);
    sb.with_burst(16);
    sb.with_shared_pool(POOL, AdmissionPolicy::DynamicThreshold { num: 1, den: 1 });
    if let Some(cfg) = telemetry {
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

/// A bursty deterministic workload: 32 flows, 3 waves of 256 packets,
/// enough to overrun the pool and exercise the drop path.
fn arrivals() -> Vec<Packet> {
    let mut out = Vec::new();
    let mut id = 0u64;
    for wave in 0..3u64 {
        for k in 0..256u64 {
            out.push(Packet::new(
                id,
                FlowId((k % 32) as u32),
                1_000,
                Nanos(wave * 50_000),
            ));
            id += 1;
        }
    }
    out
}

/// X7 — one run with full telemetry: event taxonomy, path records
/// joined against departures, sampled gauges, and the JSON snapshot.
pub fn tour() -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "X7 (observability): flight recorder + path records + gauges on a \
         {PORTS}-port shared-pool fabric"
    );

    // Reference run with telemetry off, to check the contract inline.
    let mut plain = build_switch(None);
    let base = plain.run(&arrivals(), 1);

    // Sample gauges every 2 rounds — this demo run is only a few dozen
    // rounds long, so the default stride would miss it entirely.
    let mut cfg = TelemetryConfig::with_paths();
    cfg.sample_every = 2;
    let mut sw = build_switch(Some(cfg));
    let run = sw.run(&arrivals(), 1);
    let snap = sw.telemetry_snapshot(&run).expect("telemetry enabled");

    for (a, b) in base.ports.iter().zip(&run.ports) {
        assert_eq!(
            a.departures, b.departures,
            "telemetry observes, never steers"
        );
        assert_eq!(a.drops, b.drops);
    }
    let _ = writeln!(
        s,
        "contract: departure traces bit-identical with telemetry on vs off (checked)"
    );

    let _ = writeln!(
        s,
        "\nworkload: {} packets, {} departed, {} dropped",
        768,
        run.total_departures(),
        run.total_drops()
    );

    // --- the flight recorder ------------------------------------------
    let _ = writeln!(
        s,
        "\nflight recorder: {} events recorded, {} retained in the rings",
        snap.events_recorded,
        snap.events.len()
    );
    let _ = writeln!(s, "{:>16} {:>8}", "event kind", "count");
    for kind in EventKind::ALL {
        let n = snap.count(kind);
        if n > 0 {
            let _ = writeln!(s, "{:>16} {:>8}", kind.label(), n);
        }
    }
    if let Some(last) = snap.events.last() {
        let _ = writeln!(
            s,
            "last event: {} at t={} on port {} (flow {})",
            last.kind.label(),
            last.time,
            last.port,
            last.flow.0
        );
    }

    // --- per-packet path records --------------------------------------
    let with_paths: Vec<_> = run.ports.iter().filter(|p| !p.paths.is_empty()).collect();
    let _ = writeln!(
        s,
        "\npath records: {} (one per departure)",
        run.ports.iter().map(|p| p.paths.len()).sum::<usize>()
    );
    if let Some(port) = with_paths.first() {
        // The record is joined with the departure it is aligned to.
        let rec = port.path(0).expect("port has path records");
        let _ = writeln!(
            s,
            "sample: packet {} flow {} — enqueued t={}, departed t={}, wait {} \
             (== departure wait), {} hop(s):",
            rec.packet,
            rec.flow.0,
            rec.enqueued,
            rec.departed,
            rec.wait(),
            rec.hops().len()
        );
        for hop in rec.hops() {
            let _ = writeln!(
                s,
                "  node {}: rank {}, queue depth {} at enqueue",
                hop.node, hop.rank, hop.depth
            );
        }
    }

    // --- gauges --------------------------------------------------------
    let _ = writeln!(s, "\ngauges ({} series):", snap.gauges.len());
    let _ = writeln!(
        s,
        "{:<24} {:>8} {:>8} {:>8}",
        "series", "samples", "peak", "last"
    );
    for g in &snap.gauges {
        let peak = g.points.iter().map(|p| p.value).max().unwrap_or(0);
        let last = g.points.last().map(|p| p.value).unwrap_or(0);
        let _ = writeln!(
            s,
            "{:<24} {:>8} {:>8} {:>8}",
            g.name,
            g.points.len(),
            peak,
            last
        );
    }

    // --- the snapshot export ------------------------------------------
    let json = snap.to_json();
    let _ = writeln!(
        s,
        "\nsnapshot: {} bytes of schema `pifo-telemetry-v1` JSON \
         (TelemetrySnapshot::to_json)",
        json.len()
    );
    s
}

#[cfg(test)]
mod tests {
    #[test]
    fn tour_runs_and_reconciles() {
        let out = super::tour();
        assert!(out.contains("bit-identical"), "{out}");
        assert!(out.contains("pifo-telemetry-v1"), "{out}");
    }
}
