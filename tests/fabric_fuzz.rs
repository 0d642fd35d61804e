//! The whole fabric, fuzzed against its own reference.
//!
//! Every case draws a random fabric and a random traffic mix:
//!
//! * 1–6 ports. The first `S` share one pool of random capacity under a
//!   random admission policy; the rest own private pools, bounded or
//!   not. Each tree is one- or two-level STFQ, and some two-level trees
//!   shape one leaf with a token bucket. The burst is random too.
//! * A time-sorted merge of CBR, on-off, Poisson and incast sources,
//!   whose flows the classifier may send to a port that does not exist.
//!
//! The reference is the fabric run on `SortedArray` by one worker. Every
//! exact engine, with one, two or one-per-CPU workers and telemetry off,
//! on, or on with path records, must then give:
//!
//! * the reference's departures, drops and misroutes;
//! * every tree empty at the end (a run drains: nothing stays resident),
//!   so offered = departed + dropped + misrouted;
//! * coherent pools whose counters agree with the traces and the trees;
//! * for each telemetry setting, the reference's snapshot JSON byte for
//!   byte, and the same path views.
//!
//! The same ports, all on one pool and behind the PFC control loop
//! without faults, must never stall, must resume every pause, must leave
//! every tree empty, and must give the same departures and pause log on
//! every exact engine.
//!
//! A failing case prints its index: the cases are seeded by index, so
//! `cargo test --test fabric_fuzz` (with the same `PROPTEST_CASES`)
//! replays it.

use pifo::prelude::*;
use pifo::sim::{OnOffSource, PortClassifier, PortTrace};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

const RATE_BPS: u64 = 10_000_000_000;

/// A uniform draw from `lo..=hi`.
fn pick(rng: &mut TestRng, lo: u64, hi: u64) -> u64 {
    lo + rng.below(hi - lo + 1)
}

#[derive(Debug, Clone, Copy)]
enum Tree {
    /// One STFQ node.
    Flat,
    /// An STFQ root over two STFQ leaves, the second shaped by a token
    /// bucket of this rate when set.
    TwoLevel { shaped_bps: Option<u64> },
}

#[derive(Debug, Clone, Copy)]
enum Source {
    Cbr {
        flow: u32,
        len: u32,
        bps: u64,
        start: u64,
    },
    OnOff {
        flow: u32,
        len: u32,
        burst: u32,
        idle: u64,
    },
    Poisson {
        flow: u32,
        len: u32,
        pps: f64,
        seed: u64,
    },
    Incast {
        flow: u32,
        fanin: u32,
        pkts: u32,
        period: u64,
    },
}

#[derive(Debug, Clone)]
struct Case {
    trees: Vec<Tree>,
    /// The first `shared` ports buffer in one pool of this capacity
    /// under this policy.
    shared: usize,
    capacity: usize,
    policy: AdmissionPolicy,
    /// Each private port's buffer limit (`None`: unbounded).
    limits: Vec<Option<usize>>,
    burst: usize,
    /// The classifier's modulus: above `trees.len()` some flows misroute.
    spread: usize,
    sources: Vec<Source>,
    end: u64,
}

struct Cases;

impl Strategy for Cases {
    type Value = Case;

    fn generate(&self, rng: &mut TestRng) -> Case {
        let ports = pick(rng, 1, 6) as usize;
        let shared = pick(rng, 0, ports as u64) as usize;
        let trees = (0..ports)
            .map(|_| match rng.below(3) {
                0 => Tree::Flat,
                1 => Tree::TwoLevel { shaped_bps: None },
                _ => Tree::TwoLevel {
                    shaped_bps: Some(pick(rng, 2, 8) * 1_000_000_000),
                },
            })
            .collect();
        let capacity = pick(rng, 8, 128) as usize;
        let policy = match rng.below(4) {
            0 => AdmissionPolicy::Unlimited,
            1 => AdmissionPolicy::PortFlow {
                port: Threshold::Static(pick(rng, 4, 64) as usize),
                flow: Threshold::Unlimited,
            },
            2 => AdmissionPolicy::DynamicThreshold {
                num: pick(rng, 1, 3) as usize,
                den: pick(rng, 1, 3) as usize,
            },
            _ => AdmissionPolicy::PortFlow {
                port: Threshold::Static(pick(rng, 8, 64) as usize),
                flow: Threshold::Static(pick(rng, 2, 16) as usize),
            },
        };
        let limits = (shared..ports)
            .map(|_| (rng.below(2) == 0).then(|| pick(rng, 4, 32) as usize))
            .collect();
        let end = pick(rng, 40, 150) * 1_000;
        let sources = (0..pick(rng, 2, 6))
            .map(|_| {
                let flow = rng.below(64) as u32;
                let len = pick(rng, 64, 1_500) as u32;
                match rng.below(4) {
                    0 => Source::Cbr {
                        flow,
                        len,
                        bps: pick(rng, 1, 10) * 1_000_000_000,
                        start: rng.below(end / 2),
                    },
                    1 => Source::OnOff {
                        flow,
                        len,
                        burst: pick(rng, 2, 24) as u32,
                        idle: pick(rng, 2, 30) * 1_000,
                    },
                    2 => Source::Poisson {
                        flow,
                        len,
                        pps: pick(rng, 1, 4) as f64 * 500_000.0,
                        seed: rng.next_u64(),
                    },
                    _ => Source::Incast {
                        flow,
                        fanin: pick(rng, 2, 8) as u32,
                        pkts: pick(rng, 1, 8) as u32,
                        period: pick(rng, 20, 60) * 1_000,
                    },
                }
            })
            .collect();
        Case {
            trees,
            shared,
            capacity,
            policy,
            limits,
            burst: pick(rng, 1, 16) as usize,
            spread: ports + rng.below(2) as usize,
            sources,
            end,
        }
    }
}

impl Case {
    fn sources(&self) -> Vec<Box<dyn TrafficSource>> {
        let end = Nanos(self.end);
        self.sources
            .iter()
            .map(|&s| -> Box<dyn TrafficSource> {
                match s {
                    Source::Cbr {
                        flow,
                        len,
                        bps,
                        start,
                    } => Box::new(CbrSource::new(FlowId(flow), len, bps, Nanos(start), end)),
                    Source::OnOff {
                        flow,
                        len,
                        burst,
                        idle,
                    } => Box::new(OnOffSource::new(
                        FlowId(flow),
                        len,
                        burst,
                        RATE_BPS,
                        Nanos(idle),
                        end,
                    )),
                    Source::Poisson {
                        flow,
                        len,
                        pps,
                        seed,
                    } => Box::new(PoissonSource::new(FlowId(flow), len, pps, end, seed)),
                    Source::Incast {
                        flow,
                        fanin,
                        pkts,
                        period,
                    } => Box::new(IncastSource::new(
                        FlowId(flow),
                        fanin,
                        1_000,
                        pkts,
                        RATE_BPS,
                        Nanos(period),
                        end,
                    )),
                }
            })
            .collect()
    }

    fn arrivals(&self) -> Vec<Packet> {
        let mut arrivals = merge(self.sources());
        renumber(&mut arrivals);
        arrivals
    }

    /// Port `i`'s tree on `engine`: built in `pool` when given, else
    /// owning a pool of `limit` packets.
    fn tree(
        &self,
        i: usize,
        engine: PifoBackend,
        pool: Option<PoolHandle>,
        limit: Option<usize>,
    ) -> ScheduleTree {
        let mut b = TreeBuilder::new();
        b.with_backend(engine);
        let root = b.add_root("stfq", Box::new(Stfq::unweighted()));
        let classifier: Classifier = match self.trees[i] {
            Tree::Flat => Box::new(move |_| root),
            Tree::TwoLevel { shaped_bps } => {
                let leaves = [0, 1].map(|k| {
                    let name = ["left", "right"][k];
                    b.add_child(root, name, Box::new(Stfq::unweighted()))
                });
                if let Some(bps) = shaped_bps {
                    let tbf = TokenBucketFilter::new(bps, 3_000);
                    b.set_shaper(leaves[1], Box::new(tbf));
                }
                Box::new(move |p: &Packet| leaves[(p.flow.0 as usize / 7) % 2])
            }
        };
        if let Some(limit) = limit {
            b.buffer_limit(limit);
        }
        match pool {
            Some(handle) => b.build_in_pool(classifier, handle),
            None => b.build(classifier),
        }
        .expect("fuzzed trees are well-formed")
    }

    fn classifier(&self) -> PortClassifier {
        let spread = self.spread;
        Box::new(move |p: &Packet| p.flow.0 as usize % spread)
    }

    fn switch(&self, engine: PifoBackend, telemetry: Option<TelemetryConfig>) -> Switch {
        let mut sb = SwitchBuilder::new(RATE_BPS);
        sb.with_burst(self.burst);
        if let Some(cfg) = telemetry {
            sb.with_telemetry(cfg);
        }
        if self.shared > 0 {
            sb.with_shared_pool(self.capacity, self.policy);
        }
        for i in 0..self.shared {
            sb.add_shared_port(|h| self.tree(i, engine, Some(h), None));
        }
        for i in self.shared..self.trees.len() {
            sb.add_port(self.tree(i, engine, None, self.limits[i - self.shared]));
        }
        sb.build(self.classifier())
    }

    /// The same ports, all on one pool sized so that no honoured pause
    /// can overrun it, behind the PFC loop.
    fn lossless(
        &self,
        engine: PifoBackend,
        cfg: LosslessConfig,
        telemetry: bool,
    ) -> LosslessFabric {
        let mut sb = SwitchBuilder::new(RATE_BPS);
        sb.with_burst(self.burst);
        if telemetry {
            sb.with_telemetry(TelemetryConfig::with_paths());
        }
        let xoff = cfg.watermarks.xoff;
        sb.with_shared_pool(
            cfg.min_pool_capacity(self.trees.len()),
            AdmissionPolicy::PortFlow {
                port: Threshold::Static(xoff + cfg.headroom),
                flow: Threshold::Unlimited,
            },
        );
        for i in 0..self.trees.len() {
            sb.add_shared_port(|h| self.tree(i, engine, Some(h), None));
        }
        LosslessFabric::new(sb.build(self.classifier()), cfg)
    }
}

/// A run's path records, each joined with its departure.
type Paths = Vec<(u64, FlowId, u16, bool, Nanos, Nanos, Vec<PathHop>)>;

fn paths(run: &SwitchRun) -> Paths {
    let views = run.ports.iter().flat_map(PortTrace::path_views);
    views
        .map(|v| {
            let hops = v.hops().to_vec();
            (
                v.packet,
                v.flow,
                v.port,
                v.truncated,
                v.enqueued,
                v.departed,
                hops,
            )
        })
        .collect()
}

fn assert_same_run(label: &str, reference: &SwitchRun, run: &SwitchRun) {
    assert_eq!(reference.misrouted, run.misrouted, "[{label}] misroutes");
    for (port, (a, b)) in reference.ports.iter().zip(&run.ports).enumerate() {
        assert_eq!(a.drops, b.drops, "[{label}] port {port} drops");
        assert_eq!(
            a.departures, b.departures,
            "[{label}] port {port} departures"
        );
    }
}

/// No port tree holds a packet, buffered or shaped: the run drained.
fn assert_drained(label: &str, sw: &Switch) {
    for i in 0..sw.num_ports() {
        let tree = sw.port(i);
        assert_eq!(
            (tree.len(), tree.shaped_len()),
            (0, 0),
            "[{label}] port {i} still holds (buffered, shaped) packets"
        );
    }
}

/// The run drained, every offered packet is accounted for once, and
/// every pool agrees with the trees that buffer in it and with the run's
/// traces.
fn assert_accounted(label: &str, case: &Case, sw: &Switch, run: &SwitchRun, offered: usize) {
    assert_drained(label, sw);
    assert_eq!(
        run.total_departures() as u64 + run.total_drops() + run.misrouted,
        offered as u64,
        "[{label}] offered = departed + dropped + misrouted"
    );
    let mut shared_live = 0;
    for (i, trace) in run.ports.iter().enumerate() {
        let tree = sw.port(i);
        let held = tree.shaped_refs_holding_packets();
        let pool = tree.pool_handle().pool();
        let port = if i < case.shared { i } else { 0 };
        pool.assert_coherent();
        assert_eq!(
            pool.port_occupancy(port),
            held,
            "[{label}] port {i} occupancy"
        );
        assert_eq!(
            pool.port_rejected(port),
            trace.drops,
            "[{label}] port {i} rejects"
        );
        assert_eq!(
            pool.port_admitted(port),
            trace.departures.len() as u64,
            "[{label}] port {i} admissions"
        );
        if i < case.shared {
            shared_live += held;
            assert_eq!(pool.num_ports(), case.shared, "[{label}] shared pool ports");
        } else {
            assert_eq!(pool.live(), held, "[{label}] port {i}'s private pool");
        }
    }
    if case.shared > 0 {
        let pool = sw.port(0).pool_handle().pool();
        assert_eq!(pool.live(), shared_live, "[{label}] shared pool live");
    }
}

fn check_switch(case: &Case) {
    let arrivals = case.arrivals();
    let reference = case
        .switch(PifoBackend::SortedArray, None)
        .run(&arrivals, 1);
    // Each telemetry setting's snapshot and path views, from its first run.
    let mut observed: [Option<(Option<String>, Paths)>; 3] = Default::default();
    let settings = [
        None,
        Some(TelemetryConfig::default()),
        Some(TelemetryConfig::with_paths()),
    ];
    for engine in PifoBackend::EXACT {
        for workers in [1, 2, 0] {
            for (t, telemetry) in settings.into_iter().enumerate() {
                let label = format!("{engine}/w{workers}/telemetry {t}");
                let mut sw = case.switch(engine, telemetry);
                let run = sw.run(&arrivals, workers);
                assert_same_run(&label, &reference, &run);
                assert_accounted(&label, case, &sw, &run, arrivals.len());
                let snapshot = sw.telemetry_snapshot(&run).map(|s| s.to_json());
                assert_eq!(snapshot.is_some(), telemetry.is_some(), "[{label}]");
                let seen = (snapshot, paths(&run));
                if telemetry.is_some_and(|c| c.path_records) {
                    assert_eq!(seen.1.len(), run.total_departures(), "[{label}] records");
                }
                match &observed[t] {
                    None => observed[t] = Some(seen),
                    Some(first) => {
                        assert!(first.0 == seen.0, "[{label}] snapshot JSON differs");
                        assert!(first.1 == seen.1, "[{label}] path views differ");
                    }
                }
            }
        }
    }
}

fn check_lossless(case: &Case, rng: &mut TestRng) {
    let xoff = pick(rng, 4, 32) as usize;
    let cfg = LosslessConfig::new(xoff, rng.below(xoff as u64) as usize)
        .with_headroom(pick(rng, 16, 64) as usize);
    let mut reference: Option<LosslessRun> = None;
    let mut reference_snapshot: Option<String> = None;
    for engine in PifoBackend::EXACT {
        for telemetry in [false, true] {
            let label = format!("lossless {engine}/telemetry {telemetry}");
            let mut fabric = case.lossless(engine, cfg, telemetry);
            let run = fabric.run(case.sources(), FaultPlan::none());
            assert!(run.stall.is_none(), "[{label}] stalled: {:?}", run.stall);
            assert_drained(&label, fabric.switch());
            assert_eq!(run.total_drops(), 0, "[{label}] lossless");
            assert_eq!(
                run.count_events(PauseAction::Pause),
                run.count_events(PauseAction::Resume),
                "[{label}] every pause resumes"
            );
            if let Some(snapshot) = run.telemetry.as_ref().map(TelemetrySnapshot::to_json) {
                let first = reference_snapshot.get_or_insert_with(|| snapshot.clone());
                assert!(*first == snapshot, "[{label}] snapshot JSON differs");
            }
            match &reference {
                None => reference = Some(run),
                Some(first) => {
                    assert_same_run(&label, &first.run, &run.run);
                    assert_eq!(first.pause_events, run.pause_events, "[{label}] pause log");
                }
            }
        }
    }
}

proptest! {
    /// Every exact engine, at every worker count and telemetry setting,
    /// drains every fabric exactly as the one-worker sorted reference.
    #[test]
    fn every_engine_and_worker_count_drains_alike(case in Cases) {
        check_switch(&case);
    }

    /// The same ports behind the PFC loop, without faults, never stall
    /// and drain to empty trees alike on every exact engine.
    #[test]
    fn lossless_fabrics_drain_alike_without_stalling(case in Cases, seed in any::<u64>()) {
        check_lossless(&case, &mut TestRng::from_seed(seed));
    }
}
