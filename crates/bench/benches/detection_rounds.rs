//! One-detection-round benchmarks on the four paper topologies (Table I):
//! baseline Algorithm 1 (direct and paper-literal dense), sliced
//! Algorithm 2, and the sparse CGLS extension. These are the per-round
//! costs behind the paper's "minimal computation overhead" claim.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use foces::{Detector, Fcm, SlicedFcm};
use foces_bench::{deployment, healthy_counters};
use foces_controlplane::RuleGranularity;
use foces_experiments::{solve_cgls, solve_dense_naive};
use foces_net::generators::{bcube, dcell, fattree, stanford};
use std::hint::black_box;

fn topologies() -> Vec<(&'static str, foces_net::Topology)> {
    vec![
        ("stanford", stanford()),
        ("fattree4", fattree(4)),
        ("bcube14", bcube(1, 4)),
        ("dcell14", dcell(1, 4)),
    ]
}

fn bench_detection(c: &mut Criterion) {
    let mut group = c.benchmark_group("detection_round");
    group.sample_size(20);
    for (name, topo) in topologies() {
        let mut dep = deployment(topo, RuleGranularity::PerFlowPair);
        let fcm = Fcm::from_view(&dep.view);
        let sliced = SlicedFcm::from_fcm(&fcm);
        let counters = healthy_counters(&mut dep);

        let direct = Detector::with_threshold(4.5);
        group.bench_with_input(BenchmarkId::new("direct", name), &counters, |b, y| {
            b.iter(|| direct.detect(black_box(&fcm), black_box(y)).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("paper_naive", name), &counters, |b, y| {
            b.iter(|| solve_dense_naive(black_box(&fcm), black_box(y)).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("cgls", name), &counters, |b, y| {
            b.iter(|| solve_cgls(black_box(&fcm), black_box(y), 1e-10, 5000).unwrap());
        });
        let default = Detector::default();
        group.bench_with_input(BenchmarkId::new("sliced", name), &counters, |b, y| {
            b.iter(|| sliced.detect(black_box(&default), black_box(y)).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_detection);
criterion_main!(benches);
