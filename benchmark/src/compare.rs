//! `pifo-benchmark compare A.json B.json`: judge set B against set A by
//! the bounds `BENCHMARK.json` fixes.

use crate::json::{self, Json};
use crate::measure;

pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Per-layer metrics that are counts of what the program did: for one
/// seed they repeat exactly, so two sets must agree on them to the digit.
/// (`alloc.*` is not here: a std `HashMap`'s per-process hash seed moves
/// its resize points, so those counts wobble by an allocation or two
/// where flows come and go — seen on `port1_deep_srpt`.)
pub const EXACT_COUNTS: [&str; 16] = [
    "tree.peak_len",
    "tree.shaping_inspections",
    "pool.admitted",
    "pool.rejected",
    "pool.admit_ratio",
    "pool.accounting_errors",
    "switch.departed",
    "switch.dropped",
    "switch.misrouted",
    "lossless.pauses",
    "lossless.resumes",
    "lossless.paused_ns",
    "lossless.peak_skid",
    "lossless.peak_pool",
    "telemetry.events_recorded",
    "telemetry.path_records",
];

pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// `None` for per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

pub fn spec() -> Spec {
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    let metric_list = |key: &str| {
        doc.get(key)
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|m| MetricSpec {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
                unit: m
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
                higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                bound: m.get("bound").and_then(Json::as_f64),
            })
            .collect()
    };
    Spec {
        workloads: doc
            .get("workloads")
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
            .collect(),
        end_to_end: metric_list("end_to_end"),
        per_layer: metric_list("per_layer"),
    }
}

struct Run<'a> {
    workload: &'a str,
    seed: u64,
    trace: bool,
    /// How many streams the digest covers.
    streams: u64,
    digest: &'a str,
    metrics: &'a Json,
}

fn runs(doc: &Json) -> Vec<Run<'_>> {
    doc.get("runs")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|r| {
            Some(Run {
                workload: r.get("workload")?.as_str()?,
                seed: r.get("seed")?.as_f64()? as u64,
                trace: r.get("trace")?.as_bool()?,
                streams: r.get("streams")?.as_f64()? as u64,
                digest: r.get("digest")?.as_str()?,
                metrics: r.get("metrics")?,
            })
        })
        .collect()
}

fn values(runs: &[Run<'_>], workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .filter_map(|r| r.metrics.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Print the comparison; `Ok(true)` when nothing regressed or differed.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (doc_a, doc_b) = (load(path_a)?, load(path_b)?);
    let (a, b) = (runs(&doc_a), runs(&doc_b));
    let spec = spec();
    let mut clean = true;

    println!(
        "{:<26} {:<18} {:>14} {:>14} {:>8} {:>7} {:>8}  status",
        "workload", "metric", "median A", "median B", "worse", "bound", "spread"
    );
    for workload in &spec.workloads {
        for m in &spec.end_to_end {
            let (va, vb) = (
                values(&a, workload, false, &m.name),
                values(&b, workload, false, &m.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (measure::median(&va), measure::median(&vb));
            let worse = if m.higher_is_better { ma - mb } else { mb - ma } / ma.abs();
            let bound = m.bound.unwrap_or(0.0);
            let spread = [&va, &vb]
                .iter()
                .filter_map(|v| measure::spread(v))
                .fold(None, |acc: Option<f64>, s| {
                    Some(acc.map_or(s, |a| a.max(s)))
                });
            let status = match spread {
                Some(s) if s > bound => "unresolved",
                _ if worse > bound => {
                    clean = false;
                    "regressed"
                }
                _ => "ok",
            };
            println!(
                "{workload:<26} {:<18} {ma:>14.4} {mb:>14.4} {:>+7.2}% {:>6.1}% {:>8}  {status}",
                m.name,
                worse * 100.0,
                bound * 100.0,
                spread.map_or("n<2".to_string(), |s| format!("{:.2}%", s * 100.0)),
            );
        }
    }

    // Per-layer metrics carry no bound: show where the time moved.
    for workload in &spec.workloads {
        for m in &spec.per_layer {
            let (va, vb) = (
                values(&a, workload, true, &m.name),
                values(&b, workload, true, &m.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (measure::median(&va), measure::median(&vb));
            println!(
                "{workload:<26} {:<36} {ma:>14.4} {mb:>14.4} {:<6} {:>+8.2}%",
                m.name,
                m.unit,
                if ma == 0.0 {
                    0.0
                } else {
                    (mb - ma) / ma.abs() * 100.0
                },
            );
        }
    }

    // What must repeat exactly: digests and count metrics of runs that
    // share a workload, seed, mode and stream count.
    let key = |r: &Run<'_>| (r.workload.to_string(), r.seed, r.trace, r.streams);
    let mut exact_pairs = 0;
    for ra in &a {
        for rb in b.iter().filter(|rb| key(rb) == key(ra)) {
            exact_pairs += 1;
            if ra.digest != rb.digest {
                clean = false;
                println!(
                    "{} seed {:#x}: digest {} vs {}  differs",
                    ra.workload, ra.seed, ra.digest, rb.digest
                );
            }
            for name in EXACT_COUNTS.iter().filter(|_| ra.trace) {
                let get = |r: &Run<'_>| r.metrics.get(name).and_then(|m| m.get("value")?.as_f64());
                if get(ra) != get(rb) {
                    clean = false;
                    println!(
                        "{} seed {:#x}: {name} {:?} vs {:?}  differs",
                        ra.workload,
                        ra.seed,
                        get(ra),
                        get(rb)
                    );
                }
            }
        }
    }
    println!("{exact_pairs} same-seed run pairs compared for exact digests and counts");
    Ok(clean)
}
