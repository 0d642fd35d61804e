//! Rank-pattern probe: the heap and the bucket calendar timed on the
//! seven rank patterns that once cost the calendar 3–60× the heap.
//!
//! Each pattern keeps a 10 K standing backlog and then runs 100 K
//! operations, one push and one pop each, on both engines in one
//! process. A timing is not a test, so the probe is ignored by default;
//! it still checks that both engines pop the same ranks. Run it with
//!
//! ```sh
//! cargo test --release -p pifo-core --test engine_probe -- --ignored --nocapture
//! ```

use pifo_core::prelude::*;
use std::time::Instant;

const BACKLOG: usize = 10_000;
const OPS: usize = 100_000;
const REPS: usize = 5;

/// The calendar's default bucket width (2^8 rank values).
const BUCKET: u64 = 1 << 8;
/// A start high enough that the falling patterns never reach zero.
const TOP: u64 = 1 << 40;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `BACKLOG + OPS` ranks of one pattern, in push order.
fn ranks(pattern: &str) -> Vec<u64> {
    let mut rng = 0x00C0_FFEE;
    (0..(BACKLOG + OPS) as u64)
        .map(|i| match pattern {
            "falling by 1" => TOP - i,
            "falling by one bucket" => TOP - i * BUCKET,
            "rising by 2^20" => i << 20,
            "eight classes" => splitmix(&mut rng) % 8,
            "uniform 0..2^16" => splitmix(&mut rng) >> 48,
            "uniform 0..2^40" => splitmix(&mut rng) >> 24,
            "uniform u64" => splitmix(&mut rng),
            other => panic!("unknown pattern {other}"),
        })
        .collect()
}

/// Median ns per operation over `REPS` runs, and a checksum of the
/// popped ranks.
fn time(backend: PifoBackend, ranks: &[u64]) -> (f64, u64) {
    let mut samples = Vec::with_capacity(REPS);
    let mut sum = 0u64;
    for _ in 0..REPS {
        let mut q = backend.make_enum::<u32>();
        for (i, &r) in ranks[..BACKLOG].iter().enumerate() {
            q.push(Rank(r), i as u32);
        }
        sum = 0;
        let start = Instant::now();
        for (i, &r) in ranks[BACKLOG..].iter().enumerate() {
            q.push(Rank(r), i as u32);
            let (rank, _) = q.pop().expect("a standing backlog");
            sum = sum.wrapping_mul(31).wrapping_add(rank.value());
        }
        samples.push(start.elapsed().as_nanos() as f64 / OPS as f64);
        std::hint::black_box(&q);
    }
    samples.sort_by(f64::total_cmp);
    (samples[REPS / 2], sum)
}

#[test]
#[ignore = "timing probe; run explicitly with --ignored --nocapture"]
fn rank_pattern_probe() {
    println!(
        "{:<24} {:>10} {:>10} {:>8}",
        "pattern", "heap ns/op", "bucket", "ratio"
    );
    for pattern in [
        "falling by 1",
        "falling by one bucket",
        "rising by 2^20",
        "eight classes",
        "uniform 0..2^16",
        "uniform 0..2^40",
        "uniform u64",
    ] {
        let ranks = ranks(pattern);
        let (heap, heap_sum) = time(PifoBackend::Heap, &ranks);
        let (bucket, bucket_sum) = time(PifoBackend::Bucket, &ranks);
        assert_eq!(
            heap_sum, bucket_sum,
            "{pattern}: the engines popped differently"
        );
        println!(
            "{pattern:<24} {heap:>10.0} {bucket:>10.0} {:>7.2}x",
            bucket / heap
        );
    }
}
