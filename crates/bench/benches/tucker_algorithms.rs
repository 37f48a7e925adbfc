//! End-to-end algorithm benches: STHOSVD vs the four HOOI variants (the
//! Fig. 2 single-core comparison at bench scale) and the rank-adaptive
//! driver, in the high-compression regime where the paper's wins live.

use criterion::{criterion_group, criterion_main, Criterion};
use ratucker::prelude::*;
use std::hint::black_box;
use std::time::Duration;

fn bench_rank_specified(c: &mut Criterion) {
    // High compression: n/r = 8 — the regime boundary of §3.1.
    let dims = [64usize, 64, 64];
    let r = 8;
    let x = SyntheticSpec::new(&dims, &[r; 3], 1e-4, 31).build::<f32>();

    let mut g = c.benchmark_group("rank_specified_3way_64_r8");
    g.measurement_time(Duration::from_secs(4)).sample_size(10);
    g.bench_function("STHOSVD", |b| {
        b.iter(|| black_box(sthosvd(&x, &SthosvdTruncation::Ranks(vec![r; 3])).rel_error))
    });
    for cfg in [
        HooiConfig::hooi(),
        HooiConfig::hooi_dt(),
        HooiConfig::hosi(),
        HooiConfig::hosi_dt(),
    ] {
        let cfg = cfg.with_max_iters(2).with_seed(5);
        g.bench_function(cfg.variant_name(), |b| {
            b.iter(|| black_box(hooi(&x, &[r; 3], &cfg).rel_error()))
        });
    }
    g.finish();
}

fn bench_error_specified(c: &mut Criterion) {
    let dims = [48usize, 48, 48];
    let x = SyntheticSpec::new(&dims, &[6; 3], 5e-3, 37).build::<f32>();

    let mut g = c.benchmark_group("error_specified_3way_48");
    g.measurement_time(Duration::from_secs(4)).sample_size(10);
    g.bench_function("STHOSVD_eps0.05", |b| {
        b.iter(|| black_box(sthosvd(&x, &SthosvdTruncation::RelError(0.05)).rel_error))
    });
    g.bench_function("RA-HOSI-DT_eps0.05_perfect", |b| {
        let cfg = RaConfig::ra_hosi_dt(0.05, &[6, 6, 6])
            .with_seed(5)
            .stopping_on_threshold();
        b.iter(|| black_box(ra_hooi(&x, &cfg).rel_error))
    });
    g.bench_function("RA-HOSI-DT_eps0.05_over", |b| {
        let cfg = RaConfig::ra_hosi_dt(0.05, &[8, 8, 8])
            .with_seed(5)
            .stopping_on_threshold();
        b.iter(|| black_box(ra_hooi(&x, &cfg).rel_error))
    });
    g.finish();
}

criterion_group!(benches, bench_rank_specified, bench_error_specified);
criterion_main!(benches);
