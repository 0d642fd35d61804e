//! Statistics, spans and the machine record — nothing here calls into
//! the repository.

use crate::json::{obj, Json};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three quartile cut points, as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them.
/// `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// The highest percentile with at least ten samples beyond it (never
/// below the median): `(percentile, value)`.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return (f64::NAN, f64::NAN);
    }
    let idx = n.saturating_sub(11).max(n / 2).min(n - 1);
    (100.0 * (idx + 1) as f64 / n as f64, v[idx])
}

/// Nearest-rank percentile of per-op nanosecond samples, less the timer's
/// own cost (the convention `sim::metrics::latency_stats` uses).
pub fn op_percentile(samples: &mut [u32], p: f64, timer_ns: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    let raw = samples[rank.clamp(1, samples.len()) - 1] as f64;
    (raw - timer_ns).max(0.0)
}

/// Median cost of one `Instant::now()` … `elapsed()` pair around nothing.
pub fn timer_overhead_ns() -> f64 {
    let samples: Vec<f64> = (0..20_001)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(t).elapsed().as_nanos() as f64
        })
        .collect();
    // The clock ticks in whole nanoseconds, so the median of pairs is
    // quantised; the mean of the central half keeps its fraction.
    let v = sorted(&samples);
    let mid = &v[v.len() / 4..3 * v.len() / 4];
    mid.iter().sum::<f64>() / mid.len() as f64
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub pass: u32,
}

/// In-memory span recorder for a traced run: one span around every call
/// the harness makes into a layer. Disabled, it only runs the closure.
pub struct Tracer {
    enabled: bool,
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

impl Tracer {
    pub fn new(enabled: bool, workload: &str) -> Tracer {
        Tracer {
            enabled,
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    fn since_origin(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open one.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(id);
        self.spans[id].start_ns = self.since_origin(Instant::now());
        let out = f(self);
        self.spans[id].end_ns = self.since_origin(Instant::now());
        self.open.pop();
        out
    }

    /// Record an already-measured interval as a child of the innermost
    /// open span (block spans of the direct-drive replays).
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: self.since_origin(start),
                end_ns: self.since_origin(end),
                parent: self.open.last().copied(),
                pass: self.pass,
            });
        }
    }

    /// Per span name: `(count, total_ns, self_ns)`, self time being a
    /// span's duration less what its children cover; in first-seen order.
    pub fn self_times(&self) -> Vec<(String, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut rows: Vec<(String, u64, u64, u64)> = Vec::new();
        for (s, &covered) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(covered);
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += dur;
                    r.3 += own;
                }
                None => rows.push((s.name.clone(), 1, dur, own)),
            }
        }
        rows
    }

    pub fn to_json(&self) -> Json {
        obj([
            ("workload", Json::Str(self.workload.clone())),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .enumerate()
                        .map(|(id, s)| {
                            obj([
                                ("id", Json::Num(id as f64)),
                                ("name", Json::Str(s.name.clone())),
                                ("start_ns", Json::Num(s.start_ns as f64)),
                                ("end_ns", Json::Num(s.end_ns as f64)),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                                ),
                                ("workload", Json::Str(self.workload.clone())),
                                ("pass", Json::Num(s.pass as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

// ---------------------------------------------------------------------------
// The machine record
// ---------------------------------------------------------------------------

/// `VmHWM` of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn load_average_1m() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// The commit the working directory is at, read from `.git` there (a
/// checkout that is not a repository has none).
fn git_sha() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    match sha.trim() {
        "" => "unknown".to_string(),
        s => s.to_string(),
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What every output file records about where its numbers came from.
pub fn envelope() -> Json {
    obj([
        ("schema", Json::Str("pifo-benchmark-v1".to_string())),
        ("git_sha", Json::Str(git_sha())),
        ("rustc", Json::Str(rustc_version())),
        ("nproc", Json::Num(nproc() as f64)),
        (
            "load_average_1m",
            load_average_1m().map_or(Json::Null, Json::Num),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=25).map(f64::from).collect();
        assert_eq!(tail(&v), (60.0, 15.0));
        let few: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(tail(&few), (60.0, 3.0));
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(true, "w");
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let rows = t.self_times();
        let outer = rows.iter().find(|r| r.0 == "outer").unwrap();
        let inner = rows.iter().find(|r| r.0 == "inner").unwrap();
        assert_eq!(outer.2 - inner.2, outer.3, "outer self = total - child");
        assert_eq!(inner.2, inner.3, "a leaf span is all self time");
        assert_eq!(t.to_json().get("spans").unwrap().as_arr().len(), 2);
    }
}
