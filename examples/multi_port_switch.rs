//! Multi-port switch fabric: one shared classifier spraying mixed
//! traffic — an incast storm, Markov on/off bursts and smooth CBR —
//! across four egress ports, each scheduled by its own PIFO tree, then
//! drained at line rate until every port is empty (a switch run has no
//! horizon: every packet departs or is dropped).
//!
//! ```sh
//! cargo run --release --example multi_port_switch
//! ```

use pifo::prelude::*;

fn port_tree(backend: PifoBackend) -> ScheduleTree {
    let mut b = TreeBuilder::new();
    b.with_backend(backend);
    b.buffer_limit(20_000);
    let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
    b.build(Box::new(move |_| root)).expect("single-node tree")
}

fn main() {
    const PORTS: usize = 4;
    let end = Nanos::from_millis(2);

    // Traffic mix. Flows 0..31 are an incast storm aimed (via the
    // classifier below) at port 0; flows 100..104 burst on/off; flows
    // 200..208 are smooth CBR background spread across all ports.
    let mut sources: Vec<Box<dyn TrafficSource>> = Vec::new();
    sources.push(Box::new(IncastSource::new(
        FlowId(0),
        32,             // fan-in
        1_000,          // bytes
        8,              // packets per sender per epoch
        10_000_000_000, // sender access rate
        Nanos::from_micros(100),
        end,
    )));
    for f in 100..104 {
        sources.push(Box::new(MarkovOnOffSource::new(
            FlowId(f),
            1_000,
            12.0,
            10_000_000_000,
            Nanos::from_micros(30),
            end,
            f as u64,
        )));
    }
    for f in 200..208 {
        sources.push(Box::new(CbrSource::new(
            FlowId(f),
            1_000,
            500_000_000,
            Nanos::ZERO,
            end,
        )));
    }
    let mut arrivals = merge(sources);
    renumber(&mut arrivals);
    println!("{} packets across {} sources\n", arrivals.len(), 13);

    // The shared classifier: the incast flows all hit port 0; everything
    // else is spread by flow hash.
    let classify = |p: &Packet| -> usize {
        if p.flow.0 < 32 {
            0
        } else {
            p.flow.0 as usize % PORTS
        }
    };

    // One fabric per backend, drained by one worker on this thread. The
    // default drain deals the four private-slab ports (each its own
    // pool) to one worker per core, and must agree bit for bit.
    for backend in PifoBackend::ALL {
        let build = || {
            let mut sb = SwitchBuilder::new(10_000_000_000); // 10 Gb/s ports
            for _ in 0..PORTS {
                sb.add_port(port_tree(backend));
            }
            sb.with_burst(64);
            sb.build(Box::new(classify))
        };
        let t0 = std::time::Instant::now();
        let run = build().run(&arrivals, 1);
        let elapsed = t0.elapsed();

        println!(
            "backend={} ({:.1} ms wall clock)",
            backend,
            elapsed.as_secs_f64() * 1e3
        );
        for (i, port) in run.ports.iter().enumerate() {
            let bytes: u64 = port.departures.iter().map(|d| d.packet.length as u64).sum();
            let max_wait = port
                .departures
                .iter()
                .map(|d| d.wait)
                .max()
                .unwrap_or(Nanos::ZERO);
            println!(
                "  port {i}: {:>6} departures  {:>5} drops  {:>6.2} Gb/s offered  max wait {:>9}",
                port.departures.len(),
                port.drops,
                (bytes as f64 * 8.0) / end.as_nanos() as f64,
                format!("{} ns", max_wait.as_nanos()),
            );
        }
        let parallel = build().run(&arrivals, 0);
        let agree = parallel.ports.iter().zip(&run.ports).all(|(a, b)| {
            a.departures.len() == b.departures.len()
                && a.departures
                    .iter()
                    .zip(&b.departures)
                    .all(|(x, y)| x.packet == y.packet && x.start == y.start)
        });
        println!(
            "  every-core == one-worker traces: {}\n",
            if agree {
                "yes (bit-identical)"
            } else {
                "NO — BUG"
            }
        );
        assert!(agree);
    }

    println!("The incast storm concentrates on port 0 (watch its max wait),");
    println!("while the CBR background on ports 1-3 barely queues — the");
    println!("behaviour single-queue microbenchmarks cannot show.");
}
