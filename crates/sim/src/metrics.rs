//! Measurement utilities: per-flow throughput, latency percentiles, flow
//! completion times, and Jain's fairness index.

use crate::port::Departure;
use pifo_core::prelude::*;
use std::collections::HashMap;

/// Per-flow bytes transmitted inside a window, and the implied rates.
#[derive(Debug, Clone, Default)]
pub struct ThroughputReport {
    /// Bytes per flow inside the window.
    pub bytes: HashMap<FlowId, u64>,
    /// Window length.
    pub window: Nanos,
}

impl ThroughputReport {
    /// The measured rate of `flow` in bits/second.
    pub fn rate_bps(&self, flow: FlowId) -> f64 {
        let b = self.bytes.get(&flow).copied().unwrap_or(0);
        if self.window == Nanos::ZERO {
            return 0.0;
        }
        (b as f64 * 8.0) / self.window.as_secs_f64()
    }

    /// The fraction of `total` bytes that went to `flow`.
    pub fn share(&self, flow: FlowId) -> f64 {
        let total: u64 = self.bytes.values().sum();
        if total == 0 {
            return 0.0;
        }
        self.bytes.get(&flow).copied().unwrap_or(0) as f64 / total as f64
    }
}

/// Tally bytes per flow for departures whose *finish* lies in
/// `[from, to)`.
pub fn throughput(departures: &[Departure], from: Nanos, to: Nanos) -> ThroughputReport {
    let mut bytes: HashMap<FlowId, u64> = HashMap::new();
    for d in departures {
        if d.finish >= from && d.finish < to {
            *bytes.entry(d.packet.flow).or_insert(0) += d.packet.length as u64;
        }
    }
    ThroughputReport {
        bytes,
        window: to.saturating_sub(from),
    }
}

/// Summary statistics over a set of latency (or any duration) samples.
///
/// Percentiles use the **nearest-rank** convention: the p-th percentile
/// of `n` sorted samples is the sample at rank `⌈(p/100)·n⌉` (1-based,
/// clamped to `[1, n]`). Every reported percentile is therefore an
/// *actual sample value*, never an interpolation: with one sample every
/// percentile is that sample; with `n = 10`, p99 is the maximum
/// (`⌈0.99·10⌉ = 10`); tied values are reported as-is. This is the
/// convention the telemetry layer's per-packet residence times are
/// summarized with, so telemetry-derived and departure-derived
/// percentiles agree exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean, ns.
    pub mean_ns: f64,
    /// Median, ns (nearest-rank).
    pub p50_ns: u64,
    /// 99th percentile, ns (nearest-rank).
    pub p99_ns: u64,
    /// Maximum, ns.
    pub max_ns: u64,
}

/// Compute latency statistics from raw nanosecond samples
/// (nearest-rank percentiles — see [`LatencyStats`]).
/// Returns `None` for an empty sample set.
pub fn latency_stats(samples: &[u64]) -> Option<LatencyStats> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let count = v.len();
    let sum: u128 = v.iter().map(|&x| x as u128).sum();
    Some(LatencyStats {
        count,
        mean_ns: sum as f64 / count as f64,
        p50_ns: v[percentile_index(count, 50.0)],
        p99_ns: v[percentile_index(count, 99.0)],
        max_ns: v[count - 1],
    })
}

/// Index of the p-th percentile in a sorted array of `n` samples:
/// nearest-rank `⌈(p/100)·n⌉`, 1-based, clamped to `[1, n]`, returned
/// 0-based.
fn percentile_index(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Queueing waits (ns) of all departures of `flow` (or all, if `None`).
pub fn waits_of(departures: &[Departure], flow: Option<FlowId>) -> Vec<u64> {
    departures
        .iter()
        .filter(|d| flow.map_or(true, |f| d.packet.flow == f))
        .map(|d| d.wait.as_nanos())
        .collect()
}

/// One completed flow: size and completion time.
#[derive(Debug, Clone, Copy)]
pub struct FlowCompletion {
    /// Flow id.
    pub flow: FlowId,
    /// Total bytes observed.
    pub bytes: u64,
    /// First packet arrival.
    pub start: Nanos,
    /// Last packet finish.
    pub end: Nanos,
}

impl FlowCompletion {
    /// Flow completion time.
    pub fn fct(&self) -> Nanos {
        self.end.saturating_sub(self.start)
    }
}

/// Extract flow completion times from a departure log. A flow "completes"
/// when its last observed packet finishes; flows with packets still queued
/// at the horizon are omitted when `expected_bytes` (from the workload
/// spec) says they are incomplete.
pub fn flow_completions(
    departures: &[Departure],
    expected_bytes: &HashMap<FlowId, u64>,
) -> Vec<FlowCompletion> {
    let mut agg: HashMap<FlowId, (u64, Nanos, Nanos)> = HashMap::new();
    for d in departures {
        let e = agg
            .entry(d.packet.flow)
            .or_insert((0, d.packet.arrival, d.finish));
        e.0 += d.packet.length as u64;
        e.1 = e.1.min(d.packet.arrival);
        e.2 = e.2.max(d.finish);
    }
    let mut out: Vec<FlowCompletion> = agg
        .into_iter()
        .filter(|(f, (bytes, _, _))| expected_bytes.get(f).map_or(true, |&e| *bytes >= e))
        .map(|(flow, (bytes, start, end))| FlowCompletion {
            flow,
            bytes,
            start,
            end,
        })
        .collect();
    out.sort_by_key(|c| c.flow);
    out
}

/// Jain's fairness index over a set of allocations:
/// `(Σx)² / (n·Σx²)` — 1.0 is perfectly fair.
pub fn jain_index(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (xs.len() as f64 * sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dep(flow: u32, len: u32, arrival: u64, start: u64, finish: u64) -> Departure {
        Departure {
            packet: Packet::new(0, FlowId(flow), len, Nanos(arrival)),
            start: Nanos(start),
            finish: Nanos(finish),
            wait: Nanos(start - arrival),
        }
    }

    #[test]
    fn throughput_counts_window_only() {
        let deps = vec![
            dep(1, 1_000, 0, 0, 100),
            dep(1, 1_000, 0, 100, 250),
            dep(2, 500, 0, 250, 300),
        ];
        let r = throughput(&deps, Nanos(0), Nanos(200));
        assert_eq!(r.bytes[&FlowId(1)], 1_000);
        assert!(!r.bytes.contains_key(&FlowId(2)));
    }

    #[test]
    fn rate_and_share() {
        let deps = vec![dep(1, 1_000, 0, 0, 100), dep(2, 3_000, 0, 100, 200)];
        let r = throughput(&deps, Nanos(0), Nanos(1_000));
        // 1000 B in 1 us = 8 Gb/s.
        assert!((r.rate_bps(FlowId(1)) - 8e9).abs() < 1.0);
        assert!((r.share(FlowId(2)) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn latency_percentiles() {
        let samples: Vec<u64> = (1..=100).collect();
        let st = latency_stats(&samples).unwrap();
        assert_eq!(st.count, 100);
        assert_eq!(st.p50_ns, 50);
        assert_eq!(st.p99_ns, 99);
        assert_eq!(st.max_ns, 100);
        assert!((st.mean_ns - 50.5).abs() < 1e-9);
    }

    #[test]
    fn latency_empty_is_none() {
        assert!(latency_stats(&[]).is_none());
    }

    #[test]
    fn single_sample_stats() {
        let st = latency_stats(&[7]).unwrap();
        assert_eq!(st.p50_ns, 7);
        assert_eq!(st.p99_ns, 7);
        assert_eq!(st.max_ns, 7);
    }

    /// Nearest-rank boundary behaviour: p99 on tiny sample sets is the
    /// maximum (rank ⌈0.99·n⌉ = n for n ≤ 100), and p50 sits at rank
    /// ⌈n/2⌉ — the lower-middle sample for even n, never interpolated.
    #[test]
    fn tiny_samples_use_nearest_rank() {
        for n in [2usize, 3, 5, 10] {
            let samples: Vec<u64> = (1..=n as u64).collect();
            let st = latency_stats(&samples).unwrap();
            assert_eq!(st.p99_ns, n as u64, "p99 of n={n} is the max");
            assert_eq!(st.p50_ns, n.div_ceil(2) as u64, "p50 of n={n}");
        }
        // 101 samples: rank ⌈0.99·101⌉ = 100 — the first n where p99
        // drops below the maximum.
        let samples: Vec<u64> = (1..=101).collect();
        let st = latency_stats(&samples).unwrap();
        assert_eq!(st.p99_ns, 100);
        assert_eq!(st.max_ns, 101);
    }

    /// Ties are reported as-is: the percentile is always one of the
    /// sample values, and a run of equal samples spanning the rank
    /// yields that value.
    #[test]
    fn tied_samples_report_the_tied_value() {
        let st = latency_stats(&[5, 5, 5, 5]).unwrap();
        assert_eq!(st.p50_ns, 5);
        assert_eq!(st.p99_ns, 5);
        let st = latency_stats(&[1, 9, 9, 9]).unwrap();
        assert_eq!(st.p50_ns, 9, "rank 2 of [1,9,9,9]");
        assert_eq!(st.p99_ns, 9);
    }

    #[test]
    fn completions_filter_incomplete_flows() {
        let deps = vec![dep(1, 1_000, 0, 0, 100), dep(2, 500, 0, 100, 200)];
        let mut expected = HashMap::new();
        expected.insert(FlowId(1), 1_000u64);
        expected.insert(FlowId(2), 9_999u64); // flow 2 incomplete
        let fc = flow_completions(&deps, &expected);
        assert_eq!(fc.len(), 1);
        assert_eq!(fc[0].flow, FlowId(1));
        assert_eq!(fc[0].fct(), Nanos(100));
    }

    #[test]
    fn jain_extremes() {
        assert!((jain_index(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        // One flow hogs everything among 4: index -> 1/4.
        assert!((jain_index(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        assert_eq!(jain_index(&[]), 1.0);
    }
}
