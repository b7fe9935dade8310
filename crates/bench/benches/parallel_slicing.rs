//! Sequential vs pooled slice solving (the `foces-runtime` thread pool)
//! on FatTree(8) — the paper's largest scaling topology (Fig. 12). Each
//! measurement solves every per-switch slice of one detection round; the
//! pooled variants run the slices on the work-stealing pool and must
//! return verdicts bit-identical to the sequential path (asserted once
//! before timing).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use foces::{Detector, Fcm, SlicedFcm};
use foces_bench::{deployment, healthy_counters};
use foces_controlplane::RuleGranularity;
use foces_net::generators::fattree;
use foces_runtime::detect_parallel;
use std::hint::black_box;

fn bench_parallel_slicing(c: &mut Criterion) {
    let mut dep = deployment(fattree(8), RuleGranularity::PerFlowPair);
    let fcm = Fcm::from_view(&dep.view);
    let sliced = SlicedFcm::from_fcm(&fcm);
    let counters = healthy_counters(&mut dep);
    let detector = Detector::default();

    // The speedup is only meaningful if the answers agree exactly.
    let sequential = sliced.detect(&detector, &counters).unwrap();
    for workers in [2, 4, 8] {
        let pooled = detect_parallel(&sliced, &detector, &counters, workers).unwrap();
        assert_eq!(pooled, sequential, "{workers} workers diverged");
    }

    let mut group = c.benchmark_group("parallel_slicing_fattree8");
    group.sample_size(20);
    group.bench_with_input(BenchmarkId::new("sequential", 1), &counters, |b, y| {
        b.iter(|| sliced.detect(black_box(&detector), black_box(y)).unwrap());
    });
    for workers in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("pooled", workers), &counters, |b, y| {
            b.iter(|| {
                detect_parallel(
                    black_box(&sliced),
                    black_box(&detector),
                    black_box(y),
                    workers,
                )
                .unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_slicing);
criterion_main!(benches);
