//! One buffer for all ports: §5.1's shared packet memory with §6.1
//! threshold admission, on a 16-port fabric under an incast storm.
//!
//! Three buffer organisations face the same traffic — an 8×
//! oversubscribed incast storm into port 0, with short bursts on every
//! other port:
//!
//! * **private slabs** — ports share nothing: victims are safe, but the
//!   storm cannot use one byte of the victims' idle memory;
//! * **one shared pool, naive cap** — the storm pins the pool at
//!   capacity and locks every victim port out;
//! * **one shared pool, dynamic thresholds** (Choudhury–Hahne) — each
//!   port may hold at most `alpha ×` the remaining free space, so the
//!   storm is fenced to a fraction of the pool and victims sail through.
//!
//! A switch has one shared memory, its own: `with_shared_pool` creates
//! it, `add_shared_port` adds its ports (they come first, so port `i`'s
//! counters sit at pool port `i`), and `Switch::pool_of` reads it after
//! the run. The run is the pool's one user while it drains; the pool is
//! never waited on, so reading it mid-run would panic, not block.
//!
//! ```sh
//! cargo run --release --example shared_pool_admission
//! ```

use pifo::prelude::*;

const PORTS: usize = 16;
const POOL: usize = 1_024;

fn arrivals() -> Vec<Packet> {
    let mut out = Vec::new();
    let mut id = 0u64;
    // The storm: 25 waves of 1 024 packets (64 senders x 16) into port 0.
    for wave in 0..25u64 {
        for k in 0..1_024u64 {
            out.push(Packet::new(
                id,
                FlowId((k % 64) as u32),
                1_000,
                Nanos(wave * 20_000),
            ));
            id += 1;
        }
    }
    // The victims: one 64-packet burst per port, staggered mid-storm.
    for port in 1..PORTS as u64 {
        for _ in 0..64 {
            out.push(Packet::new(
                id,
                FlowId(100 + port as u32),
                1_000,
                Nanos(50_000 + 30_000 * (port - 1)),
            ));
            id += 1;
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

fn stfq_root(b: &mut TreeBuilder) -> NodeId {
    b.add_root("stfq", Box::new(Stfq::unweighted()))
}

fn report(name: &str, run: &SwitchRun) {
    let victim_drops: u64 = run.ports[1..].iter().map(|p| p.drops).sum();
    let victim_out: usize = run.ports[1..].iter().map(|p| p.departures.len()).sum();
    println!(
        "{name:<28} hog: {:>6} sent / {:>6} dropped   victims: {:>4} sent / {:>4} dropped",
        run.ports[0].departures.len(),
        run.ports[0].drops,
        victim_out,
        victim_drops,
    );
}

fn main() {
    let arr = arrivals();
    println!(
        "{} packets: an incast storm into port 0, a 64-packet burst on each of {} victim ports\n",
        arr.len(),
        PORTS - 1
    );

    // --- Private slabs: isolation by construction. ----------------------
    let mut sb = SwitchBuilder::new(10_000_000_000);
    for port in 0..PORTS {
        let mut b = TreeBuilder::new();
        if port == 0 {
            b.buffer_limit(POOL);
        }
        let root = stfq_root(&mut b);
        sb.add_port(b.build(Box::new(move |_| root)).unwrap());
    }
    let run = sb.build(Box::new(classify)).run(&arr, 1);
    report("private slabs", &run);

    // --- One pool, naive cap: the storm owns every slot. ----------------
    let mut sb = SwitchBuilder::new(10_000_000_000);
    sb.with_shared_pool(POOL, AdmissionPolicy::Unlimited);
    for _ in 0..PORTS {
        sb.add_shared_port(|pool| {
            let mut b = TreeBuilder::new();
            let root = stfq_root(&mut b);
            b.build_in_pool(Box::new(move |_| root), pool).unwrap()
        });
    }
    let run = sb.build(Box::new(classify)).run(&arr, 1);
    report("shared pool, naive cap", &run);
    let naive_victim_drops: u64 = run.ports[1..].iter().map(|p| p.drops).sum();

    // --- One pool, dynamic thresholds: the storm is fenced. -------------
    let mut sb = SwitchBuilder::new(10_000_000_000);
    sb.with_shared_pool(POOL, AdmissionPolicy::DynamicThreshold { num: 1, den: 1 });
    for _ in 0..PORTS {
        sb.add_shared_port(|h| {
            let mut b = TreeBuilder::new();
            let root = stfq_root(&mut b);
            b.build_in_pool(Box::new(move |_| root), h).unwrap()
        });
    }
    let mut switch = sb.build(Box::new(classify));
    let run = switch.run(&arr, 1);
    report("shared pool, dynamic alpha=1", &run);

    // Every port reads the one pool: port 0's view is the whole pool's.
    let stats = switch.pool_of(0).stats();
    println!(
        "\npool after the run: {} live / {:?} capacity; per-port rejects: {:?}",
        stats.live,
        stats.capacity,
        stats.ports.iter().map(|p| p.rejected).collect::<Vec<_>>(),
    );
    let fenced_victim_drops: u64 = run.ports[1..].iter().map(|p| p.drops).sum();
    println!(
        "\nThe §6.1 point: one memory, shared *and* fenced — victims dropped {naive_victim_drops} \
         packets under the naive cap, {fenced_victim_drops} under dynamic thresholds."
    );
}
