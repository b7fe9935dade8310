//! Scaling ablation (the Criterion companion to the Fig. 12 experiment
//! binary): detection time vs flow count on FatTree(8) with aggregated
//! rules, comparing the paper-literal dense pipeline, the structure-aware
//! direct solver, CGLS, and slicing. Also the rule-granularity ablation:
//! how aggregation changes the solve cost on a fixed topology.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use foces::{Detector, Fcm, SlicedFcm};
use foces_controlplane::{provision, uniform_flows, RuleGranularity};
use foces_dataplane::LossModel;
use foces_experiments::{solve_cgls, solve_dense_naive};
use foces_net::generators::fattree;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::hint::black_box;

fn setup(flows_wanted: usize, granularity: RuleGranularity) -> (Fcm, SlicedFcm, Vec<f64>) {
    let topo = fattree(8);
    let mut flows = uniform_flows(&topo, 16256.0 * 1000.0);
    let mut rng = StdRng::seed_from_u64(7);
    flows.shuffle(&mut rng);
    flows.truncate(flows_wanted);
    let mut dep = provision(topo, &flows, granularity).expect("provision");
    let fcm = Fcm::from_view(&dep.view);
    let sliced = SlicedFcm::from_fcm(&fcm);
    let mut loss = LossModel::none();
    dep.replay_traffic(&mut loss);
    (fcm, sliced, dep.dataplane.collect_counters())
}

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig12_scaling");
    group.sample_size(10);
    for n in [250usize, 500, 1000, 2000] {
        let (fcm, sliced, counters) = setup(n, RuleGranularity::PerDestination);
        group.bench_with_input(BenchmarkId::new("paper_naive", n), &counters, |b, y| {
            b.iter(|| solve_dense_naive(black_box(&fcm), black_box(y)).unwrap());
        });
        let direct = Detector::with_threshold(4.5);
        group.bench_with_input(BenchmarkId::new("direct", n), &counters, |b, y| {
            b.iter(|| direct.detect(black_box(&fcm), black_box(y)).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("cgls", n), &counters, |b, y| {
            b.iter(|| solve_cgls(black_box(&fcm), black_box(y), 1e-10, 5000).unwrap());
        });
        let default = Detector::default();
        group.bench_with_input(BenchmarkId::new("sliced", n), &counters, |b, y| {
            b.iter(|| sliced.detect(black_box(&default), black_box(y)).unwrap());
        });
    }
    group.finish();
}

fn bench_granularity_ablation(c: &mut Criterion) {
    // DESIGN.md ablation: rule aggregation vs per-flow rules at a fixed
    // flow count. Aggregation couples columns (denser Gram blocks, more
    // Cholesky fill); per-flow rules make the normal equations diagonal.
    let mut group = c.benchmark_group("granularity_ablation");
    group.sample_size(10);
    for (label, g) in [
        ("per_destination", RuleGranularity::PerDestination),
        ("per_flow_pair", RuleGranularity::PerFlowPair),
    ] {
        let (fcm, _, counters) = setup(1000, g);
        let direct = Detector::with_threshold(4.5);
        group.bench_with_input(BenchmarkId::new("direct", label), &counters, |b, y| {
            b.iter(|| direct.detect(black_box(&fcm), black_box(y)).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scaling, bench_granularity_ablation);
criterion_main!(benches);
