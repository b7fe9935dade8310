//! Stage-by-stage costs of the FOCES pipeline (architecture Fig. 6):
//! provisioning (controller), ATPG logical-flow tracing (FCM Generator),
//! FCM assembly, slicing (per switch and over a 4-region edge cut), one
//! traffic replay (Statistics Collector stand-in) — plus the header-space
//! primitives everything rests on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use foces::{Fcm, ShardedFcm, SlicedFcm};
use foces_atpg::trace_flows;
use foces_bench::deployment;
use foces_controlplane::RuleGranularity;
use foces_dataplane::LossModel;
use foces_headerspace::Wildcard;
use foces_net::generators::{bcube, fattree, stanford};
use foces_net::{partition, PartitionSpec};
use std::hint::black_box;

fn bench_stages(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(20);
    for (name, topo) in [
        ("stanford", stanford()),
        ("fattree4", fattree(4)),
        ("bcube14", bcube(1, 4)),
    ] {
        group.bench_with_input(BenchmarkId::new("provision", name), &topo, |b, t| {
            b.iter(|| deployment(black_box(t.clone()), RuleGranularity::PerFlowPair));
        });
        let part = partition(&topo, PartitionSpec::EdgeCut { k: 4 });
        let dep = deployment(topo, RuleGranularity::PerFlowPair);
        group.bench_with_input(BenchmarkId::new("atpg_trace", name), &dep.view, |b, v| {
            b.iter(|| trace_flows(black_box(v)));
        });
        group.bench_with_input(BenchmarkId::new("fcm_build", name), &dep.view, |b, v| {
            b.iter(|| Fcm::from_view(black_box(v)));
        });
        let fcm = Fcm::from_view(&dep.view);
        group.bench_with_input(BenchmarkId::new("slice_build", name), &fcm, |b, f| {
            b.iter(|| SlicedFcm::from_fcm(black_box(f)));
        });
        // The same constructor over a 4-region edge cut.
        group.bench_with_input(BenchmarkId::new("shard_build_k4", name), &fcm, |b, f| {
            b.iter(|| ShardedFcm::from_fcm(black_box(f), &part));
        });
        group.bench_with_input(BenchmarkId::new("replay", name), &dep, |b, d| {
            b.iter(|| {
                let mut dp = d.dataplane.clone();
                let mut loss = LossModel::none();
                for f in &d.flows {
                    dp.inject(
                        f.src,
                        foces_dataplane::pair_header(f.src, f.dst),
                        f.rate,
                        &mut loss,
                    );
                }
                dp.collect_counters()
            });
        });
    }
    group.finish();
}

fn bench_headerspace(c: &mut Criterion) {
    let mut group = c.benchmark_group("headerspace");
    let a = Wildcard::from_str_bits("1010****_****0101_10******_*1*1*1*1").unwrap();
    let b = Wildcard::from_str_bits("10*0**11_********_1*0*****_*1*1**11").unwrap();
    group.bench_function("intersect_32", |bch| {
        bch.iter(|| black_box(&a).intersect(black_box(&b)));
    });
    group.bench_function("subset_32", |bch| {
        bch.iter(|| black_box(&a).is_subset_of(black_box(&b)));
    });
    group.bench_function("match_concrete_32", |bch| {
        bch.iter(|| black_box(&a).matches_concrete(black_box(0xA0F5_8055)));
    });
    let wide_a = Wildcard::any(256);
    let mut wide_b = Wildcard::any(256);
    for i in (0..256).step_by(3) {
        wide_b.set_bit(i, Some(i % 2 == 0));
    }
    group.bench_function("intersect_256", |bch| {
        bch.iter(|| black_box(&wide_a).intersect(black_box(&wide_b)));
    });
    group.finish();
}

criterion_group!(benches, bench_stages, bench_headerspace);
criterion_main!(benches);
