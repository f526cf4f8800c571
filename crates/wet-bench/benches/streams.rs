//! Criterion micro-benchmarks for the tier-2 stream compressor: per-
//! method compression and decompression throughput on the three stream
//! shapes the WET produces (timestamp-like, value-locality-like,
//! random), plus cursor stepping, whole-stream decode and the Sequitur
//! baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use wet_stream::{sequitur, CompressedStream, Method, StreamConfig};

const N: usize = 50_000;

fn timestamp_like() -> Vec<u64> {
    // Strictly increasing with a few distinct strides.
    let mut v = Vec::with_capacity(N);
    let mut t = 1u64;
    for i in 0..N {
        t += match i % 7 {
            0..=3 => 1,
            4 | 5 => 3,
            _ => 11,
        };
        v.push(t);
    }
    v
}

fn value_like() -> Vec<u64> {
    // Small working set with repeating patterns.
    (0..N).map(|i| [7u64, 11, 7, 13, 7, 11, 42][i % 7] + (i as u64 / 1000) % 3).collect()
}

fn random_like() -> Vec<u64> {
    let mut x = 0x12345678u64;
    (0..N)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect()
}

fn bench_compress(c: &mut Criterion) {
    let cfg = StreamConfig::default();
    let shapes = [("ts", timestamp_like()), ("vals", value_like()), ("rand", random_like())];
    let mut g = c.benchmark_group("compress");
    g.sample_size(10);
    g.throughput(Throughput::Elements(N as u64));
    for (name, data) in &shapes {
        for m in [Method::Fcm { order: 2 }, Method::Dfcm { order: 1 }, Method::LastN { n: 8 }] {
            g.bench_with_input(BenchmarkId::new(m.name(), name), data, |b, d| {
                b.iter(|| CompressedStream::compress(black_box(d), m, &cfg));
            });
        }
        g.bench_with_input(BenchmarkId::new("auto", name), data, |b, d| {
            b.iter(|| CompressedStream::compress_auto(black_box(d), &cfg));
        });
        g.bench_with_input(BenchmarkId::new("sequitur", name), data, |b, d| {
            b.iter(|| sequitur::compress(black_box(d)));
        });
    }
    g.finish();
}

fn bench_traverse(c: &mut Criterion) {
    let cfg = StreamConfig::default();
    let data = timestamp_like();
    let mut g = c.benchmark_group("traverse");
    g.sample_size(10);
    g.throughput(Throughput::Elements(N as u64));
    let stream = CompressedStream::compress_auto(&data, &cfg);
    g.bench_function("forward_full", |b| {
        b.iter_batched(
            || stream.clone(),
            |mut s| {
                s.rewind();
                while s.step_forward() {}
                black_box(s.window_start())
            },
            criterion::BatchSize::LargeInput,
        );
    });
    g.bench_function("backward_full", |b| {
        b.iter_batched(
            || stream.clone(),
            |mut s| {
                while s.step_backward() {}
                black_box(s.window_start())
            },
            criterion::BatchSize::LargeInput,
        );
    });
    g.finish();
}

/// Whole-stream decode with the window left at the right end, where
/// compression leaves it, against the window walk it replaced. The
/// throughput is bytes of decoded `u64` values per second.
fn bench_decode(c: &mut Criterion) {
    let cfg = StreamConfig::default();
    let shapes = [("ts", timestamp_like()), ("vals", value_like()), ("rand", random_like())];
    let mut g = c.benchmark_group("decode");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(8 * N as u64));
    for (name, data) in &shapes {
        let stream = CompressedStream::compress_auto(data, &cfg);
        g.bench_with_input(BenchmarkId::new("one_direction", name), &stream, |b, s| {
            b.iter(|| black_box(s.decode()));
        });
        g.bench_with_input(BenchmarkId::new("window_walk", name), &stream, |b, s| {
            b.iter(|| black_box(s.clone().decompress()));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_compress, bench_traverse, bench_decode);
criterion_main!(benches);
