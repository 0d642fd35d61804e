//! The §5.1 incast-storm scenario rerun **lossless**: the same 16-port
//! fabric and the same hog-plus-victims traffic as `shared_pool_incast`,
//! but with the port×flow admission policy wired into PFC-style
//! backpressure instead of tail drops.
//!
//! What must hold (and is asserted here):
//!
//! * **zero drops anywhere** — the storm that drops thousands of packets
//!   under every drop-based policy loses nothing once the fabric pauses
//!   the senders;
//! * every pause resolves: pause/resume counts reconcile switch-side and
//!   source-side, and each individual pause stays under the watchdog
//!   bound (the run completes, it does not stall);
//! * the pool never exceeds the `ports × (xoff + headroom)` sizing rule;
//! * with a non-zero pause-wire delay, the in-flight packets land in the
//!   headroom skid buffer — exercised, bounded, and still lossless;
//! * departure traces **and the pause-event log** are bit-identical
//!   across every exact PIFO backend.

use pifo::prelude::*;

const PORTS: usize = 16;
const RATE_BPS: u64 = 10_000_000_000;
/// 64 synchronized senders × 16 packets, every 20 µs: the same 1 024-
/// packet incast wave as `shared_pool_incast`, 8× the port drain rate.
const HOG_END: Nanos = Nanos(500_000);
const VICTIM_BURST: u64 = 64;

fn classify(p: &Packet) -> usize {
    if p.flow.0 < 64 {
        0
    } else {
        (p.flow.0 as usize - 100) % PORTS
    }
}

/// The live-source equivalent of `shared_pool_incast::arrivals()`: one
/// incast hog into port 0, one line-rate 64-packet burst per victim
/// port, staggered 30 µs apart.
fn sources() -> Vec<Box<dyn TrafficSource>> {
    let mut out: Vec<Box<dyn TrafficSource>> = vec![Box::new(IncastSource::new(
        FlowId(0),
        64,
        1_000,
        16,
        RATE_BPS,
        Nanos(20_000),
        HOG_END,
    ))];
    for port in 1..PORTS as u64 {
        let start = Nanos(50_000 + 30_000 * (port - 1));
        let gap = tx_time(1_000, RATE_BPS);
        out.push(Box::new(CbrSource::new(
            FlowId(100 + port as u32),
            1_000,
            RATE_BPS,
            start,
            start + Nanos(VICTIM_BURST * gap.as_nanos()),
        )));
    }
    out
}

fn build_fabric(
    backend: PifoBackend,
    port_threshold: usize,
    pool_capacity: usize,
    cfg: LosslessConfig,
) -> LosslessFabric {
    fabric_of(
        PORTS,
        backend,
        port_threshold,
        pool_capacity,
        cfg,
        Box::new(classify),
    )
}

/// `ports` STFQ ports on one port×flow pool behind `classifier`.
fn fabric_of(
    ports: usize,
    backend: PifoBackend,
    port_threshold: usize,
    pool_capacity: usize,
    cfg: LosslessConfig,
    classifier: pifo::sim::PortClassifier,
) -> LosslessFabric {
    let mut sb = SwitchBuilder::new(RATE_BPS);
    sb.with_shared_pool(
        pool_capacity,
        AdmissionPolicy::PortFlow {
            port: Threshold::Static(port_threshold),
            flow: Threshold::Unlimited,
        },
    );
    for _ in 0..ports {
        sb.add_shared_port(|h| {
            let mut b = TreeBuilder::new();
            b.with_backend(backend);
            let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
            b.build_in_pool(Box::new(move |_| root), h).expect("tree")
        });
    }
    LosslessFabric::new(sb.build(classifier), cfg)
}

/// The on-die configuration: pause frames propagate instantly, so the
/// port threshold (xoff + headroom) gates direct admission and the skid
/// buffer stays in reserve.
fn run_on_die(backend: PifoBackend) -> LosslessRun {
    let cfg = LosslessConfig::new(32, 8).with_headroom(32);
    let mut fabric = build_fabric(backend, 64, PORTS * 64, cfg);
    fabric.run(sources(), FaultPlan::none())
}

fn assert_lossless(run: &LosslessRun, label: &str) {
    assert!(run.stall.is_none(), "[{label}] stalled: {:?}", run.stall);
    assert_eq!(run.total_drops(), 0, "[{label}] lossless contract");
    assert_eq!(run.skid_overflow, 0, "[{label}] headroom never overflows");
    assert_eq!(run.run.misrouted, 0, "[{label}] classifier total");
    assert_eq!(
        run.count_events(PauseAction::Pause),
        run.count_events(PauseAction::Resume),
        "[{label}] every switch-side pause resolves"
    );
    for (i, s) in run.sources.iter().enumerate() {
        assert_eq!(
            s.pauses, s.resumes,
            "[{label}] source {i} pause/resume counts reconcile"
        );
    }
}

#[test]
fn incast_storm_under_backpressure_drops_nothing() {
    let run = run_on_die(PifoBackend::Bucket);
    assert_lossless(&run, "on-die");

    // The storm is real: the hog was paused, repeatedly, and the victim
    // sources never were.
    assert!(
        run.count_events(PauseAction::Pause) > 10,
        "an 8x incast overload must keep tripping xoff (got {})",
        run.count_events(PauseAction::Pause)
    );
    assert!(run.sources[0].pauses > 0, "the hog source gets paused");
    assert!(run.port_paused[0] > Nanos::ZERO, "port 0 asserts pause");
    for (i, s) in run.sources.iter().enumerate().skip(1) {
        assert_eq!(s.pauses, 0, "victim source {i} is never paused");
    }
    for port in 1..PORTS {
        assert_eq!(run.port_paused[port], Nanos::ZERO, "victim port {port}");
        assert_eq!(
            run.run.ports[port].departures.len() as u64,
            VICTIM_BURST,
            "victim port {port} delivers its whole burst"
        );
    }

    // Bounded pause: the watchdog never fired, so every single pause sat
    // under `max_pause`; the accounting agrees.
    let cfg = LosslessConfig::new(32, 8).with_headroom(32);
    assert!(
        run.sources[0].max_pause < cfg.max_pause,
        "longest source pause {} must stay under the watchdog bound {}",
        run.sources[0].max_pause,
        cfg.max_pause
    );
    assert!(run.sources[0].total_paused >= run.sources[0].max_pause);

    // Pool sizing rule: ports x (xoff + headroom) is never exceeded (the
    // per-port Static threshold enforces exactly that partition).
    assert!(
        run.max_pool_live <= cfg.min_pool_capacity(PORTS),
        "pool peak {} exceeds the sizing bound {}",
        run.max_pool_live,
        cfg.min_pool_capacity(PORTS)
    );

    // Backpressure converts drops into delay, not loss: the paused hog
    // is throttled to the port's line rate, and the port runs at (or
    // near) that rate for the whole storm — 500 µs / 800 ns ≈ 625
    // packet slots, all but the ramp-up used.
    assert!(
        run.run.ports[0].departures.len() >= 600,
        "the hog must keep port 0 at line rate between pauses (got {})",
        run.run.ports[0].departures.len()
    );
}

/// With a real pause-wire delay the in-flight packets land in the skid
/// buffer: used, bounded by headroom, and still zero loss.
#[test]
fn wire_delay_fills_headroom_but_never_overflows() {
    // Port threshold == xoff: admission rejects right at the watermark,
    // so everything emitted during pause propagation is skid-buffered.
    // One 64-packet incast instant can land inside the 400 ns wire
    // window, plus the instant already in flight: headroom 160 covers it.
    let cfg = LosslessConfig::new(32, 8)
        .with_headroom(160)
        .with_wire_delay(Nanos(400));
    let mut fabric = build_fabric(PifoBackend::Bucket, 32, PORTS * 32, cfg);
    let run = fabric.run(sources(), FaultPlan::none());

    assert_lossless(&run, "wire-delay");
    assert!(
        run.peak_skid[0] > 0,
        "pause propagation must put in-flight packets into the skid buffer"
    );
    assert!(
        run.peak_skid[0] <= cfg.headroom,
        "skid {} exceeds headroom {}",
        run.peak_skid[0],
        cfg.headroom
    );
    assert!(
        run.max_pool_live <= PORTS * 32,
        "skid packets are held outside the pool"
    );
}

/// Departure traces and the pause-event log are bit-identical across
/// every exact backend — backpressure does not cost the fabric its
/// determinism.
#[test]
fn lossless_traces_identical_across_backends_and_drain_modes() {
    let reference = run_on_die(PifoBackend::SortedArray);
    assert_lossless(&reference, "reference");
    assert!(reference.count_events(PauseAction::Pause) > 0);

    for backend in PifoBackend::EXACT {
        let run = run_on_die(backend);
        let label = backend.to_string();
        assert_lossless(&run, &label);
        assert_eq!(
            reference.pause_events, run.pause_events,
            "[{label}] pause-event log diverges"
        );
        assert_eq!(
            reference.rounds, run.rounds,
            "[{label}] round count diverges"
        );
        for (port, (a, b)) in reference.run.ports.iter().zip(&run.run.ports).enumerate() {
            assert_eq!(
                a.departures.len(),
                b.departures.len(),
                "[{label}] port {port} departure count diverges"
            );
            for (x, y) in a.departures.iter().zip(&b.departures) {
                assert_eq!(x, y, "[{label}] port {port} trace diverges");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The event calendar
// ---------------------------------------------------------------------------
//
// The fabric picks its next emission from a `(emission instant, source
// index)` calendar heap. These tests pin the calendar's subtle rules by
// their observable outcome; in a debug build (what `cargo test` runs) the
// fabric additionally asserts, before every event, that the calendar head
// equals the definitional scan over all sources — so a mis-keyed calendar
// fails here twice over.

/// An oblivious scripted source: pre-stamped packets handed out in
/// order, no reaction to pause or resume. An empty script never emits.
struct Script(std::collections::VecDeque<Packet>);

impl TrafficSource for Script {
    fn next_packet(&mut self) -> Option<Packet> {
        self.0.pop_front()
    }
}

/// A script of `(flow, stamp)` 1000-byte packets.
fn script(packets: &[(u32, u64)]) -> Box<dyn TrafficSource> {
    Box::new(Script(
        packets
            .iter()
            .map(|&(flow, stamp)| Packet::new(0, FlowId(flow), 1_000, Nanos(stamp)))
            .collect(),
    ))
}

/// A `ports`-port lossless fabric classifying `flow % ports`, its pool
/// sized by the `ports × (xoff + headroom)` rule.
fn calendar_fabric(ports: usize, cfg: LosslessConfig) -> LosslessFabric {
    fabric_of(
        ports,
        PifoBackend::Bucket,
        cfg.watermarks.xoff + cfg.headroom,
        cfg.min_pool_capacity(ports),
        cfg,
        Box::new(move |p: &Packet| p.flow.0 as usize % ports),
    )
}

/// Every delivered packet, in emission order (the fabric numbers packets
/// as it admits them).
fn by_emission(run: &LosslessRun) -> Vec<Packet> {
    let mut all: Vec<Packet> = run
        .run
        .ports
        .iter()
        .flat_map(|p| p.departures.iter().map(|d| d.packet.clone()))
        .collect();
    all.sort_by_key(|p| p.id);
    all
}

/// Rule 1 — many sources share every emission instant: admission order
/// is source index order, whatever the flow ids or target ports.
#[test]
fn tied_emission_instants_admit_in_source_index_order() {
    const N: usize = 48;
    const PER_SOURCE: usize = 20;
    // Source k carries flow 7k mod 48 — a permutation, so neither flow
    // order nor port order coincides with index order. Three quarter-rate
    // sources per port: nothing ever pauses.
    let flow_of = |k: usize| (k * 7 % N) as u32;
    let gap = tx_time(1_000, RATE_BPS / 4);
    let start = Nanos(1_000);
    let sources: Vec<Box<dyn TrafficSource>> = (0..N)
        .map(|k| {
            Box::new(CbrSource::new(
                FlowId(flow_of(k)),
                1_000,
                RATE_BPS / 4,
                start,
                start + Nanos(PER_SOURCE as u64 * gap.as_nanos()),
            )) as Box<dyn TrafficSource>
        })
        .collect();
    let mut fabric = calendar_fabric(PORTS, LosslessConfig::new(32, 8).with_headroom(32));
    let run = fabric.run(sources, FaultPlan::none());

    assert_lossless(&run, "tied");
    assert!(
        run.pause_events.is_empty(),
        "under-loaded ports never pause"
    );
    let emitted = by_emission(&run);
    assert_eq!(emitted.len(), N * PER_SOURCE);
    for (j, p) in emitted.iter().enumerate() {
        let (wave, k) = (j / N, j % N);
        assert_eq!(p.id, PacketId(j as u64));
        assert_eq!(
            p.flow,
            FlowId(flow_of(k)),
            "emission {j}: wave {wave} must admit source {k} here"
        );
        assert_eq!(
            p.arrival,
            start + Nanos(wave as u64 * gap.as_nanos()),
            "emission {j}: all {N} sources share wave {wave}'s instant"
        );
    }
}

/// Rule 2 — a resume whose gate is later than the head packet's stamp
/// re-keys the source at the gate, and a source whose *next* packet
/// targets an already-visible pause blocks without entering the
/// calendar.
#[test]
fn resume_gate_rekeys_and_visible_pause_blocks_the_next_packet() {
    for wire in [0u64, 300] {
        let label = format!("wire {wire}");
        let cfg = LosslessConfig::new(4, 1)
            .with_headroom(16)
            .with_wire_delay(Nanos(wire));
        // Source 0: one packet to port 1 while port 0's pause is visible
        // (asserted at 400, visible by 700), then one to port 0 stamped
        // 760 — pulled at 750 into a visible pause.
        // Source 1: the hog — twelve packets to port 0 at 10x line rate,
        // so its head-of-line stamp is always far behind the gate.
        let hog: Vec<(u32, u64)> = (0..12).map(|k| (0, k * 100)).collect();
        let sources = vec![script(&[(1, 750), (2, 760)]), script(&hog)];
        let run = calendar_fabric(2, cfg).run(sources, FaultPlan::none());
        assert_lossless(&run, &label);
        assert_eq!(run.total_departures(), 14, "[{label}] everything delivered");

        let first_pause = run.pause_events[0];
        assert_eq!(
            (first_pause.time, first_pause.port, first_pause.action),
            (Nanos(400), 0, PauseAction::Pause),
            "[{label}] the fifth hog packet trips xoff"
        );
        // The instants at which resume frames reach the sources. A clean
        // drain appends settlement resumes at the last event time; those
        // never gate an emission, so extra entries are harmless here.
        let gates: Vec<Nanos> = run
            .pause_events
            .iter()
            .filter(|e| e.port == 0 && e.action == PauseAction::Resume)
            .map(|e| e.time + Nanos(wire))
            .collect();
        let visible_at = first_pause.time + Nanos(wire);

        // Every port-0 emission after the pause became visible happened
        // exactly at a gate: the stamps (<= 1100) are all older than the
        // first gate, so a source keyed by its raw stamp would show up
        // here with an instant that is no gate.
        let emitted = by_emission(&run);
        for p in emitted.iter().filter(|p| p.flow != FlowId(1)) {
            assert!(
                p.arrival <= visible_at || gates.contains(&p.arrival),
                "[{label}] {} emitted at {}, neither before the pause nor at a gate {gates:?}",
                p.id,
                p.arrival
            );
        }

        // Source 0 pulled its port-0 packet into the visible pause: it
        // was blocked at 750 without ever being eligible, and released
        // at the first gate — ahead of the hog, which shares that gate
        // with an *older* stamp but a higher index.
        let gated = emitted
            .iter()
            .find(|p| p.flow == FlowId(2))
            .expect("delivered");
        assert!(run.sources[0].pauses >= 1, "[{label}] source 0 was blocked");
        assert_eq!(gated.arrival, gates[0], "[{label}] released at the gate");
        assert!(gated.arrival > Nanos(760));
        assert_eq!(
            run.sources[0].total_paused,
            gates[0] - Nanos(750),
            "[{label}] blocked from the pull at 750 to the gate"
        );
        let hog_at_gate = emitted
            .iter()
            .find(|p| p.flow == FlowId(0) && p.arrival == gates[0])
            .expect("the hog is released at the same gate");
        assert!(
            gated.id < hog_at_gate.id,
            "[{label}] equal gates fall back to source index order"
        );
    }
}

/// Rule 3 — sources that never emit are invisible: appending any number
/// of them leaves departures, pause log and every run counter
/// bit-identical.
#[test]
fn idle_sources_leave_the_run_bit_identical() {
    let cfg = LosslessConfig::new(32, 8).with_headroom(32);
    let reference = run_on_die(PifoBackend::Bucket);
    let live = reference.sources.len();
    for idle in [1usize, 17, 300] {
        let mut with_idle = sources();
        with_idle.extend((0..idle).map(|_| script(&[])));
        let run = build_fabric(PifoBackend::Bucket, 64, PORTS * 64, cfg)
            .run(with_idle, FaultPlan::none());

        assert_eq!(reference.pause_events, run.pause_events, "+{idle} idle");
        for (a, b) in reference.run.ports.iter().zip(&run.run.ports) {
            assert_eq!(a.departures, b.departures, "+{idle} idle");
            assert_eq!(a.drops, b.drops, "+{idle} idle");
        }
        assert_eq!(reference.run.misrouted, run.run.misrouted);
        assert_eq!(reference.stall, run.stall);
        assert_eq!(reference.port_paused, run.port_paused);
        assert_eq!(reference.peak_skid, run.peak_skid);
        assert_eq!(reference.skid_overflow, run.skid_overflow);
        assert_eq!(reference.max_pool_live, run.max_pool_live);
        assert_eq!(reference.rounds, run.rounds);
        assert_eq!(reference.sources[..], run.sources[..live]);
        assert!(
            run.sources[live..]
                .iter()
                .all(|s| *s == SourcePauseStats::default()),
            "+{idle} idle: an idle source is never paused"
        );
    }
}

// ---------------------------------------------------------------------------
// Pause state per (port, class)
// ---------------------------------------------------------------------------

/// Pauses are kept per `(port, class)`: a hog on one class pauses that
/// class only, a stuck pool pauses every class a port has carried — in
/// class order, at one instant — and a class a port never carried is
/// never paused there.
#[test]
fn pauses_are_per_port_and_class() {
    const STUCK_AT: Nanos = Nanos(30_000);
    let cfg = LosslessConfig::new(8, 2)
        .with_headroom(16)
        .with_max_pause(Nanos::from_micros(100));
    let mut fabric = calendar_fabric(2, cfg);
    let cbr = |flow: u32, class: u8, rate: u64, end: u64| {
        Box::new(
            CbrSource::new(FlowId(flow), 1_000, rate, Nanos::ZERO, Nanos(end)).with_class(class),
        ) as Box<dyn TrafficSource>
    };
    let sources = vec![
        // Source 0: a 2x-line-rate hog on (port 0, class 3), over before
        // the pool sticks.
        cbr(0, 3, 2 * RATE_BPS, 10_000),
        // Source 1: a light class-0 stream on port 0.
        cbr(2, 0, RATE_BPS / 5, 60_000),
        // Source 2: a class-0 stream on port 1, which never sees class 3.
        cbr(1, 0, RATE_BPS / 2, 60_000),
    ];
    let run = fabric.run(sources, FaultPlan::none().stuck_pool(STUCK_AT));
    assert_eq!(
        run.stall.map(|s| s.kind),
        Some(StallKind::StuckPool),
        "a pool stuck for good ends the run"
    );
    assert_eq!(run.total_drops(), 0);

    // Each pair's log alternates pause, resume, pause, ...
    let pairs: [(usize, u8); 3] = [(0, 0), (0, 3), (1, 0)];
    for (port, class) in pairs {
        let actions: Vec<PauseAction> = run
            .pause_events
            .iter()
            .filter(|e| (e.port, e.class) == (port, class))
            .map(|e| e.action)
            .collect();
        assert!(!actions.is_empty(), "({port}, {class}) pauses");
        for (k, a) in actions.iter().enumerate() {
            let want = [PauseAction::Pause, PauseAction::Resume][k % 2];
            assert_eq!(*a, want, "({port}, {class}) event {k}");
        }
    }
    // Only pairs that carried a packet appear: class 3 never reached
    // port 1, classes 1 and 2 never reached either port.
    for e in &run.pause_events {
        assert!(
            pairs.contains(&(e.port, e.class)),
            "pause state for an unseen pair: {e:?}"
        );
    }

    // The hog paused class 3 alone; class 0 on the same port was never
    // paused before the pool stuck, and its source kept emitting through
    // the class-3 pause.
    let first = run.pause_events[0];
    assert_eq!(
        (first.port, first.class, first.action),
        (0, 3, PauseAction::Pause)
    );
    assert!(first.time < STUCK_AT);
    let hog_resumed = run
        .pause_events
        .iter()
        .find(|e| (e.port, e.class, e.action) == (0, 3, PauseAction::Resume))
        .expect("the hog's pause resolves once it stops")
        .time;
    assert!(hog_resumed < STUCK_AT);
    assert!(run
        .pause_events
        .iter()
        .all(|e| (e.port, e.class) != (0, 0) || e.time >= STUCK_AT));
    let class0_during_pause = run.run.ports[0]
        .departures
        .iter()
        .filter(|d| d.packet.class == 0 && d.packet.arrival >= first.time)
        .filter(|d| d.packet.arrival < hog_resumed)
        .count();
    assert!(
        class0_during_pause > 0,
        "class 0 kept emitting on port 0 while class 3 was paused"
    );
    assert_eq!(run.sources[1].pauses, 1, "paused once, by the stuck pool");
    assert!(run.sources[0].pauses >= 1);

    // At the stuck instant port 0 pauses both of its classes in one
    // evaluation: same instant, class order.
    let stuck: Vec<(Nanos, u8)> = run
        .pause_events
        .iter()
        .filter(|e| e.port == 0 && e.action == PauseAction::Pause && e.time >= STUCK_AT)
        .map(|e| (e.time, e.class))
        .collect();
    assert_eq!(stuck.len(), 2, "{stuck:?}");
    assert_eq!(stuck[0].0, stuck[1].0, "one instant");
    assert_eq!((stuck[0].1, stuck[1].1), (0, 3), "class order");
    for w in run.pause_events.windows(2) {
        if (w[0].time, w[0].port) == (w[1].time, w[1].port) {
            assert!(
                w[0].class < w[1].class,
                "one port's events in class order: {w:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// A pinned storm
// ---------------------------------------------------------------------------

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// A small 16-port incast-plus-on/off storm with a real pause wire and
/// late resume frames. Its departure digest and pause log are pinned, so
/// any change to the event order — same-instant ties among gated
/// releases included — fails here, in every build profile.
#[test]
fn storm_departures_and_pause_log_are_pinned() {
    const END: Nanos = Nanos(300_000);
    let cfg = LosslessConfig::new(32, 8)
        .with_headroom(64)
        .with_wire_delay(Nanos(300));
    let mut fabric = build_fabric(PifoBackend::Heap, 32 + 64, PORTS * (32 + 64), cfg);
    let mut sources: Vec<Box<dyn TrafficSource>> = (0..64u32)
        .map(|f| {
            // Flows 100.. spread over all sixteen ports, four per port.
            Box::new(MarkovOnOffSource::new(
                FlowId(100 + f),
                1_000,
                16.0,
                RATE_BPS,
                Nanos::from_micros(30),
                END,
                0x5EED + f as u64,
            )) as Box<dyn TrafficSource>
        })
        .collect();
    sources.push(Box::new(IncastSource::new(
        FlowId(0),
        64,
        1_000,
        8,
        4 * RATE_BPS,
        Nanos::from_micros(25),
        END,
    )));
    let run = fabric.run(sources, FaultPlan::none().delayed_resume(Nanos(500)));
    assert_lossless(&run, "storm");

    let mut departures = Fnv(0xcbf2_9ce4_8422_2325);
    for (port, trace) in run.run.ports.iter().enumerate() {
        departures.word(port as u64);
        for d in &trace.departures {
            for w in [
                d.packet.id.0,
                d.packet.flow.0 as u64,
                d.packet.arrival.as_nanos(),
                d.start.as_nanos(),
                d.finish.as_nanos(),
            ] {
                departures.word(w);
            }
        }
    }
    let mut pauses = Fnv(0xcbf2_9ce4_8422_2325);
    for e in &run.pause_events {
        for w in [
            e.time.as_nanos(),
            e.port as u64,
            e.class as u64,
            (e.action == PauseAction::Resume) as u64,
        ] {
            pauses.word(w);
        }
    }

    // The storm must exercise ties: distinct sources released at one
    // resume gate share an emission instant.
    let mut instants: Vec<(Nanos, FlowId)> = by_emission(&run)
        .iter()
        .filter(|p| p.flow.0 >= 100)
        .map(|p| (p.arrival, p.flow))
        .collect();
    instants.sort();
    let ties = instants
        .windows(2)
        .filter(|w| w[0].0 == w[1].0 && w[0].1 != w[1].1)
        .count();
    assert!(
        ties > 0,
        "no two on/off sources ever emitted at one instant"
    );

    assert!(run.peak_skid[0] > 0, "the wire delay fills port 0's skid");

    // Recorded on the ordered-set calendar this loop replaced.
    let observed = (
        run.total_departures(),
        run.count_events(PauseAction::Pause),
        run.rounds,
        departures.0,
        pauses.0,
    );
    assert_eq!(
        observed,
        (
            5_522,
            38,
            1_142,
            0x0625_EC6E_7D03_820D,
            0x2A48_8AC2_6E69_900E
        )
    );
}
