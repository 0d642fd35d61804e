//! One run of one workload: set-up, timed passes, checks, and — in a
//! traced run — the per-layer numbers.

use crate::alloc;
use crate::json::{obj, Json};
use crate::measure::{self, Tracer};
use crate::stack::{self, Ladder, OpTimes, Output, PassReport, Workload, RUNGS};
use std::time::Instant;

/// Independent arrival streams an untraced run measures, each from its
/// own sub-seed: a queueing simulation near saturation mixes slowly, so
/// one stream's cost per packet depends on its seed by several percent;
/// ten streams average that out. Every stream is one set-up (`setup_s`
/// is their median) followed by its timed passes.
pub const STREAMS: usize = 10;
/// The fewest timed passes per stream, and the default.
pub const PASSES_PER_STREAM: usize = 3;
/// Timed passes on either side of `trace.overhead_ratio`.
const TRACE_PASSES: usize = 5;
const LADDER_SWEEPS: (usize, usize) = (3, 9);

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Exactly this many timed passes on each stream.
    Passes(usize),
    /// Each stream gets an equal share of this much wall-clock time:
    /// timed passes until its share is spent, and at least
    /// `PASSES_PER_STREAM` of them.
    Seconds(f64),
}

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub budget: Budget,
    pub trace: bool,
    /// `STREAMS` for benchmark runs; the smoke test measures fewer.
    pub streams: usize,
    /// 1.0 for benchmark runs; the smoke test shrinks simulated time.
    pub scale: f64,
    /// Where a traced run writes `trace-<workload>.json`.
    pub trace_dir: Option<std::path::PathBuf>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run produced; `to_json` is the line the driver reads.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    /// Over the streams' digests, in order.
    pub digest: u64,
    pub streams: usize,
    pub passes: usize,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunRecord {
    /// Exactly the keys the driver's contract names.
    pub fn result_line(&self) -> Json {
        obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
        ])
    }

    /// The contract line plus what an output file needs to compare runs.
    pub fn to_json(&self) -> Json {
        let Json::Obj(result) = self.result_line() else {
            unreachable!("the result line is an object");
        };
        let mut fields = vec![
            ("workload".to_string(), Json::Str(self.workload.clone())),
            ("seed".to_string(), Json::Num(self.seed as f64)),
            ("trace".to_string(), Json::Bool(self.trace)),
            (
                "digest".to_string(),
                Json::Str(format!("{:016x}", self.digest)),
            ),
            ("streams".to_string(), Json::Num(self.streams as f64)),
            ("passes".to_string(), Json::Num(self.passes as f64)),
        ];
        fields.extend(result);
        Json::Obj(fields)
    }

    fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        obj([
                            ("value", Json::Num(m.value)),
                            ("unit", Json::Str(m.unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// Tally of what the passes of a run attempted and got wrong.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Tally {
    fn note(&mut self, what: &str, report: &PassReport, reference: &PassReport) {
        self.attempted += report.packets;
        let mut why = report.failures.clone();
        if report.digest != reference.digest {
            why.push(format!(
                "digest {:016x} differs from the first pass's {:016x}",
                report.digest, reference.digest
            ));
        }
        if !why.is_empty() {
            self.failed += report.packets;
            self.messages
                .extend(why.into_iter().map(|w| format!("{what}: {w}")));
        }
    }
}

struct Pass {
    seconds: f64,
    report: PassReport,
    output: Output,
    allocs: Option<alloc::AllocCounts>,
}

/// Build a fresh stack (untimed), time one full replay to drain, digest
/// and check the output (untimed).
fn pass(wl: &Workload, tracer: &mut Tracer, count_allocs: bool) -> Pass {
    tracer.span("pass", |tracer| {
        let mut stack = tracer.span("stack.build", |_| wl.build(None));
        let call = stack.call_name();
        let (seconds, output, allocs) = tracer.span(call, |_| {
            if count_allocs {
                alloc::start();
            }
            let t = Instant::now();
            let output = wl.replay(&mut stack);
            let seconds = t.elapsed().as_secs_f64();
            (seconds, output, count_allocs.then(alloc::stop))
        });
        let report = tracer.span("inspect", |_| wl.inspect(&stack, &output));
        Pass {
            seconds,
            report,
            output,
            allocs,
        }
    })
}

fn push(metrics: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
    println!("  {name:<36} {value:>18.4} {unit}");
    metrics.push(Metric {
        name: name.to_string(),
        value,
        unit,
    });
}

/// One arrival stream, set up and measured.
struct Stream {
    /// The warm-up replay's report: what every timed pass must repeat.
    reference: PassReport,
    /// Simulated queueing wait `(p50, p99)` in ns.
    wait_ns: (u64, u64),
    gen_s: f64,
    setup_s: f64,
    pass_s: Vec<f64>,
}

impl Stream {
    fn best_pass_s(&self) -> f64 {
        self.pass_s.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// Set up stream `k` — generate its inputs, build the stack, replay once
/// so lazy growth and page faults are paid — then time passes over it,
/// tracing off, until `enough(passes, seconds since set-up began)`.
fn measure_stream(
    cfg: &RunConfig,
    k: usize,
    tracer: &mut Tracer,
    tally: &mut Tally,
    enough: impl Fn(usize, f64) -> bool,
) -> Result<(Workload, Stream), String> {
    let t = Instant::now();
    let seed = stack::stream_seed(cfg.seed, k);
    let (wl, gen_s, stack, output) = tracer.span("setup", |tracer| {
        let wl = tracer
            .span("traffic.gen", |_| {
                Workload::generate(&cfg.workload, seed, cfg.scale)
            })
            .ok_or_else(|| format!("unknown workload '{}'", cfg.workload))?;
        let gen_s = t.elapsed().as_secs_f64();
        let mut stack = tracer.span("stack.build", |_| wl.build(None));
        let output = tracer.span("warmup", |_| wl.replay(&mut stack));
        Ok::<_, String>((wl, gen_s, stack, output))
    })?;
    let setup_s = t.elapsed().as_secs_f64();
    let reference = wl.inspect(&stack, &output);
    let wait_ns = wl.wait_percentiles(&output);
    drop((stack, output));
    tally.note(&format!("stream {k} warm-up"), &reference, &reference);

    let mut pass_s = Vec::new();
    let mut quiet = Tracer::new(false, &cfg.workload);
    while !enough(pass_s.len(), t.elapsed().as_secs_f64()) {
        let p = pass(&wl, &mut quiet, false);
        let what = format!("stream {k} pass {}", pass_s.len());
        tally.note(&what, &p.report, &reference);
        pass_s.push(p.seconds);
    }
    let stream = Stream {
        reference,
        wait_ns,
        gen_s,
        setup_s,
        pass_s,
    };
    Ok((wl, stream))
}

pub fn run_workload(cfg: &RunConfig) -> Result<RunRecord, String> {
    let run_start = Instant::now();
    let mut tracer = Tracer::new(cfg.trace, &cfg.workload);
    let mut tally = Tally::default();

    // A traced run takes its end-to-end baseline from one stream.
    let streams = if cfg.trace { 1 } else { cfg.streams.max(1) };
    let enough = |passes: usize, elapsed: f64| match (cfg.trace, cfg.budget) {
        (true, _) => passes >= TRACE_PASSES,
        (false, Budget::Passes(n)) => passes >= n.max(1),
        (false, Budget::Seconds(s)) => passes >= PASSES_PER_STREAM && elapsed >= s / streams as f64,
    };

    // Only the first stream's inputs are kept (for the verify pass and
    // the traced half); the others are dropped as soon as measured.
    let mut first = None;
    let mut peak_rss_mib = f64::NAN;
    let mut measured: Vec<Stream> = Vec::with_capacity(streams);
    for k in 0..streams {
        let (wl, s) = measure_stream(cfg, k, &mut tracer, &mut tally, enough)?;
        println!(
            "{} stream {k}: {} packets, digest {:016x}, set-up {:.3} s, {} passes, \
             median {:.3} ms, min {:.3} ms",
            cfg.workload,
            s.reference.packets,
            s.reference.digest,
            s.setup_s,
            s.pass_s.len(),
            measure::median(&s.pass_s) * 1e3,
            s.best_pass_s() * 1e3,
        );
        if k == 0 {
            // The peak of one stream's set-up and passes: later streams
            // add heap fragmentation that varies chaotically with their
            // sizes, which is the allocator's behaviour, not the stack's.
            peak_rss_mib = measure::peak_rss_mib();
            first = Some(wl);
        }
        measured.push(s);
    }
    let wl = first.expect("at least one stream");
    let packets: u64 = measured.iter().map(|s| s.reference.packets).sum();
    let departed: u64 = measured.iter().map(|s| s.reference.departed).sum();
    let passes: usize = measured.iter().map(|s| s.pass_s.len()).sum();
    let digests: Vec<u64> = measured.iter().map(|s| s.reference.digest).collect();
    let digest = stack::combine_digests(&digests);
    // Each stream's best pass, as ns per packet, and the median stream
    // of those. The machine's noise is one-sided (a shared host only ever
    // slows a pass), so the best of a stream's passes is its steadiest
    // estimate; the median over streams averages the seed's influence
    // and cannot be moved by a burst of noise over a few streams.
    let stream_ns_per_pkt: Vec<f64> = measured
        .iter()
        .map(|s| s.best_pass_s() * 1e9 / s.reference.packets as f64)
        .collect();
    let ns_per_pkt = measure::median(&stream_ns_per_pkt);
    let pass_ns_per_pkt: Vec<f64> = measured
        .iter()
        .flat_map(|s| {
            let packets = s.reference.packets as f64;
            s.pass_s.iter().map(move |t| t * 1e9 / packets)
        })
        .collect();
    let (tail_pct, tail_ns) = measure::tail(&pass_ns_per_pkt);
    println!(
        "{}: seed {:#x}, digest {digest:016x}; {passes} passes over {streams} streams: \
         median stream's best {ns_per_pkt:.1} ns/pkt; all passes median {:.1}, \
         p{tail_pct:.0} {tail_ns:.1} ns/pkt",
        wl.name,
        cfg.seed,
        measure::median(&pass_ns_per_pkt),
    );

    let mut metrics = Vec::new();
    if cfg.trace {
        let inputs = TraceInputs {
            cfg,
            wl: &wl,
            reference: &measured[0].reference,
            gen_s: measured[0].gen_s,
            pass_s: &measured[0].pass_s,
            run_start,
        };
        per_layer(&inputs, &mut tracer, &mut tally, &mut metrics)?;
    } else {
        let across =
            |f: fn(&Stream) -> f64| measure::median(&measured.iter().map(f).collect::<Vec<_>>());
        push(&mut metrics, "pkts_per_s", 1e9 / ns_per_pkt, "1/s");
        push(&mut metrics, "setup_s", across(|s| s.setup_s), "s");
        push(&mut metrics, "peak_rss_mib", peak_rss_mib, "MiB");
        push(
            &mut metrics,
            "sim_wait_p50_ns",
            across(|s| s.wait_ns.0 as f64),
            "ns",
        );
        push(
            &mut metrics,
            "sim_wait_p99_ns",
            across(|s| s.wait_ns.1 as f64),
            "ns",
        );
        push(
            &mut metrics,
            "delivered_share",
            departed as f64 / packets as f64,
            "ratio",
        );
    }

    // Verify, once and untimed: a second exact engine must produce the
    // identical departure trace.
    let mut stack = wl.build(stack::verify_engine());
    let output = wl.replay(&mut stack);
    let verify = wl.inspect(&stack, &output);
    tally.note(
        "verify on the second engine",
        &verify,
        &measured[0].reference,
    );

    for m in &tally.messages {
        eprintln!("CHECK FAILED [{}] {m}", wl.name);
    }
    Ok(RunRecord {
        workload: wl.name.to_string(),
        seed: cfg.seed,
        trace: cfg.trace,
        digest,
        streams,
        passes,
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

struct TraceInputs<'a> {
    cfg: &'a RunConfig,
    wl: &'a Workload,
    reference: &'a PassReport,
    gen_s: f64,
    pass_s: &'a [f64],
    run_start: Instant,
}

/// The traced half of a run: traced passes with allocation counts, the
/// two direct-drive replays, the ladder, and the trace file.
fn per_layer(
    inp: &TraceInputs<'_>,
    tracer: &mut Tracer,
    tally: &mut Tally,
    metrics: &mut Vec<Metric>,
) -> Result<(), String> {
    let (cfg, wl, reference) = (inp.cfg, inp.wl, inp.reference);
    let packets = reference.packets as f64;
    let timer_ns = measure::timer_overhead_ns();

    let mut traced_s = Vec::new();
    let mut last = None;
    for i in 0..TRACE_PASSES {
        tracer.set_pass(i as u32);
        let p = pass(wl, tracer, true);
        tally.note(&format!("traced pass {i}"), &p.report, reference);
        traced_s.push(p.seconds);
        last = Some(p);
    }
    let last = last.expect("TRACE_PASSES > 0");
    let allocs = last.allocs.expect("traced passes count allocations");
    let counts = last.report.counts;

    let direct = wl.direct_drive(&last.output);
    drop(last.output);
    let mut tree = tracer.span("direct.tree", |tr| {
        direct.replay_tree(&mut |a, b| tr.record("direct.tree.block", a, b))
    });
    let mut pifo = tracer.span("direct.pifo", |tr| {
        direct.replay_pifo(&mut |a, b| tr.record("direct.pifo.block", a, b))
    });
    drop(direct);

    // The ladder: every rung once per sweep, so slow drift of the
    // machine lands on all rungs alike; median over sweeps.
    let ladder = tracer.span("ladder.build", |_| Ladder::new(cfg.seed, cfg.scale));
    let mut rung_ns: Vec<Vec<f64>> = vec![Vec::new(); RUNGS.len()];
    let mut sweeps = 0;
    loop {
        tracer.set_pass(sweeps as u32);
        tracer.span("ladder.sweep", |tr| {
            for (i, rung) in RUNGS.iter().enumerate() {
                let (dt, n) = tr.span(&format!("ladder.{rung}"), |_| ladder.run(i));
                rung_ns[i].push(dt.as_nanos() as f64 / n as f64);
            }
        });
        sweeps += 1;
        let enough = match cfg.budget {
            Budget::Passes(n) => sweeps >= n.clamp(LADDER_SWEEPS.0, 5),
            Budget::Seconds(s) => {
                sweeps >= LADDER_SWEEPS.1
                    || (sweeps >= LADDER_SWEEPS.0 && inp.run_start.elapsed().as_secs_f64() >= s)
            }
        };
        if enough {
            break;
        }
    }
    println!(
        "  ladder: {} packets, {sweeps} sweeps of {} rungs",
        ladder.packets(),
        RUNGS.len()
    );
    let rung = |name: &str| {
        let i = RUNGS.iter().position(|r| *r == name).expect("known rung");
        measure::median(&rung_ns[i])
    };

    push(
        metrics,
        "traffic.gen_ns_per_pkt",
        inp.gen_s * 1e9 / wl.generated().max(1) as f64,
        "ns/pkt",
    );
    for name in RUNGS {
        push(
            metrics,
            &format!("ladder.{name}_ns_per_pkt"),
            rung(name),
            "ns/pkt",
        );
    }
    let parts = rung("rank") + rung("pool") + rung("pifo_sorted");
    let derived = [
        ("tree.tax_ratio", rung("tree1") / parts, "ratio"),
        (
            "tree.level_ns",
            (rung("tree_hier5") - rung("tree1")) / 4.0,
            "ns",
        ),
        ("port.loop_ns", rung("port") - rung("tree1"), "ns"),
        ("switch.loop_ns", rung("switch_p1") - rung("tree1"), "ns"),
        (
            "switch.port_cliff_ratio",
            rung("switch_p16") / rung("switch_p1"),
            "ratio",
        ),
        (
            "pool.shared_ratio",
            rung("switch_p16_shared") / rung("switch_p16"),
            "ratio",
        ),
        (
            "telemetry.recorder_ratio",
            rung("switch_p16_recorder") / rung("switch_p16"),
            "ratio",
        ),
        (
            "telemetry.paths_ratio",
            rung("switch_p16_paths") / rung("switch_p16"),
            "ratio",
        ),
        (
            "lossless.ratio",
            rung("lossless_p16") / rung("switch_p16_shared"),
            "ratio",
        ),
    ];
    for (name, value, unit) in derived {
        push(metrics, name, value, unit);
    }

    let mut ops = |prefix: &str, insert: &str, remove: &str, t: &mut OpTimes| {
        for (op, samples) in [(insert, &mut t.insert_ns), (remove, &mut t.remove_ns)] {
            for (label, p) in [("p50", 50.0), ("p99", 99.0)] {
                let v = measure::op_percentile(samples, p, timer_ns);
                push(metrics, &format!("{prefix}.{op}_{label}_ns"), v, "ns");
            }
        }
    };
    ops("tree", "enqueue", "dequeue", &mut tree);
    ops("pifo", "push", "pop", &mut pifo);
    push(metrics, "tree.peak_len", tree.peak_len as f64, "pkts");
    push(
        metrics,
        "tree.shaping_inspections",
        tree.shaping_inspections as f64,
        "count",
    );

    let decided = (counts.pool_admitted + counts.pool_rejected).max(1) as f64;
    let count_metrics = [
        (
            "alloc.count_per_pkt",
            allocs.count as f64 / packets,
            "1/pkt",
        ),
        (
            "alloc.bytes_per_pkt",
            allocs.bytes as f64 / packets,
            "B/pkt",
        ),
        (
            "alloc.peak_live_mib",
            allocs.peak_live_bytes as f64 / (1024.0 * 1024.0),
            "MiB",
        ),
        ("pool.admitted", counts.pool_admitted as f64, "pkts"),
        ("pool.rejected", counts.pool_rejected as f64, "pkts"),
        (
            "pool.admit_ratio",
            counts.pool_admitted as f64 / decided,
            "ratio",
        ),
        (
            "pool.accounting_errors",
            counts.pool_accounting_errors as f64,
            "count",
        ),
        ("switch.departed", reference.departed as f64, "pkts"),
        ("switch.dropped", reference.dropped as f64, "pkts"),
        ("switch.misrouted", reference.misrouted as f64, "pkts"),
        ("lossless.pauses", counts.lossless_pauses as f64, "count"),
        ("lossless.resumes", counts.lossless_resumes as f64, "count"),
        ("lossless.paused_ns", counts.lossless_paused_ns as f64, "ns"),
        (
            "lossless.peak_skid",
            counts.lossless_peak_skid as f64,
            "pkts",
        ),
        (
            "lossless.peak_pool",
            counts.lossless_peak_pool as f64,
            "pkts",
        ),
        (
            "telemetry.events_recorded",
            counts.telemetry_events as f64,
            "count",
        ),
        (
            "telemetry.path_records",
            counts.telemetry_path_records as f64,
            "count",
        ),
    ];
    for (name, value, unit) in count_metrics {
        push(metrics, name, value, unit);
    }

    let (_, tail_s) = measure::tail(inp.pass_s);
    push(
        metrics,
        "pass.tail_ns_per_pkt",
        tail_s * 1e9 / packets,
        "ns/pkt",
    );
    push(metrics, "pass.count", inp.pass_s.len() as f64, "count");
    push(metrics, "trace.timer_overhead_ns", timer_ns, "ns");
    push(
        metrics,
        "trace.overhead_ratio",
        measure::median(&traced_s) / measure::median(inp.pass_s),
        "ratio",
    );

    println!("  self time by span (span minus children):");
    for (name, count, total, own) in tracer.self_times() {
        println!(
            "    {name:<40} x{count:<6} total {:>10.3} ms  self {:>10.3} ms",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    if let Some(dir) = &cfg.trace_dir {
        let path = dir.join(format!("trace-{}.json", wl.name));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, tracer.to_json().render() + "\n"))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("  wrote {}", path.display());
    }
    Ok(())
}

pub fn describe_budget(b: Budget) -> String {
    match b {
        Budget::Passes(n) => format!("{n} timed passes per stream"),
        Budget::Seconds(s) => format!(
            "timed passes for {s} s over all streams (at least {PASSES_PER_STREAM} per stream)"
        ),
    }
}
