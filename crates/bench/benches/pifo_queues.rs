//! PIFO data-structure benchmarks: every registered software backend
//! (sorted-array reference, binary heap, FFS bucket calendar) vs the
//! hardware-style block, across occupancies up to the Trident-scale
//! 60 K elements of §5.1. The sweep runs each backend through the
//! [`PifoBackend::make_enum`] path — the same engine the scheduling tree
//! uses — so the numbers reflect what trees actually pay.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pifo_core::prelude::*;
use pifo_hw::{BlockConfig, LogicalPifoId, PifoBlock};

/// Deterministic xorshift for rank streams.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

fn bench_push_pop(c: &mut Criterion) {
    let mut group = c.benchmark_group("pifo_push_pop");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    for &n in &[1_000usize, 10_000, 60_000] {
        group.throughput(Throughput::Elements(n as u64));
        for backend in PifoBackend::ALL {
            group.bench_with_input(BenchmarkId::new(backend.label(), n), &n, |b, &n| {
                b.iter(|| {
                    let mut q = backend.make_enum::<u64>();
                    let mut rng = Rng(42);
                    for i in 0..n as u64 {
                        q.push(Rank(rng.next() % 1_000_000), i);
                    }
                    while let Some(e) = q.pop() {
                        black_box(e);
                    }
                })
            });
        }
    }
    group.finish();
}

/// The §5.2 scaling argument measured: pushing 60 K elements through the
/// hardware block only ever sorts ~1 K flow heads.
fn bench_hw_block(c: &mut Criterion) {
    let mut group = c.benchmark_group("hw_block_60k");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    for &flows in &[256u32, 1_024] {
        group.throughput(Throughput::Elements(60_000));
        group.bench_with_input(BenchmarkId::new("flows", flows), &flows, |b, &flows| {
            b.iter(|| {
                let mut blk = PifoBlock::new(BlockConfig {
                    n_flows: flows as usize,
                    ..BlockConfig::default()
                });
                let l = LogicalPifoId(0);
                let mut rng = Rng(7);
                let mut next = vec![0u64; flows as usize];
                for i in 0..60_000u64 {
                    let f = (rng.next() % flows as u64) as u32;
                    next[f as usize] += 1 + rng.next() % 16;
                    blk.enqueue(l, FlowId(f), Rank(next[f as usize] * 4096 + f as u64), i)
                        .expect("capacity");
                }
                while let Some(e) = blk.dequeue(l) {
                    black_box(e);
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_push_pop, bench_hw_block);
criterion_main!(benches);
