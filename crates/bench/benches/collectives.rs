//! Criterion microbenchmarks of the message-passing runtime: collective
//! latency/throughput over the thread fabric at small rank counts.
//! These calibrate expectations for the functional distributed runs
//! (thread scheduling dominates at this scale — which is exactly why the
//! paper-scale curves come from the α–β model instead).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ratucker_mpi::{sum_op, Universe};
use std::hint::black_box;
use std::time::Duration;

fn bench_allreduce(c: &mut Criterion) {
    let mut g = c.benchmark_group("allreduce_f64");
    g.measurement_time(Duration::from_secs(2)).sample_size(10);
    for p in [2usize, 4, 8] {
        g.bench_with_input(BenchmarkId::new("ranks", p), &p, |b, &p| {
            let u = Universe::new(p);
            b.iter(|| {
                let out = u.run(|comm| comm.try_allreduce(vec![1.0f64; 1024], sum_op).unwrap());
                black_box(out[0][0])
            });
        });
    }
    g.finish();
}

fn bench_reduce_scatter(c: &mut Criterion) {
    let mut g = c.benchmark_group("reduce_scatter_f32");
    g.measurement_time(Duration::from_secs(2)).sample_size(10);
    for p in [2usize, 4, 8] {
        g.bench_with_input(BenchmarkId::new("ranks", p), &p, |b, &p| {
            let u = Universe::new(p);
            let counts = vec![512usize; p];
            b.iter(|| {
                let out = u.run(|comm| {
                    comm.try_reduce_scatter(vec![1.0f32; 512 * p], &counts, sum_op)
                        .unwrap()
                });
                black_box(out[0][0])
            });
        });
    }
    g.finish();
}

fn bench_alltoallv(c: &mut Criterion) {
    let mut g = c.benchmark_group("alltoallv_f32");
    g.measurement_time(Duration::from_secs(2)).sample_size(10);
    for p in [2usize, 4, 8] {
        g.bench_with_input(BenchmarkId::new("ranks", p), &p, |b, &p| {
            let u = Universe::new(p);
            b.iter(|| {
                let out = u.run(|comm| {
                    let blocks: Vec<Vec<f32>> = (0..p).map(|_| vec![1.0f32; 256]).collect();
                    comm.try_alltoallv(blocks).unwrap()
                });
                black_box(out[0][0][0])
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_allreduce,
    bench_reduce_scatter,
    bench_alltoallv
);
criterion_main!(benches);
