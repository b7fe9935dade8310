//! Sharded-cluster detection vs the sequential and slice-parallel
//! baselines on FatTree(8) with the **full all-pairs** flow set.
//!
//! Hand-rolled harness (`harness = false`, no Criterion). The sequential
//! baseline is the global system through a cold [`IncrementalSolver`] —
//! the same direct factorization pipeline every shard worker runs, so
//! the comparison isolates what sharding buys. Two more baselines are
//! recorded for context: [`Detector::detect`] on the default backend
//! (run after the baseline on the same FCM, so it reads the basis and any
//! factor the baseline memoized) and [`detect_parallel`] (per-switch
//! slicing).
//! Then for each shard count `k ∈ {1, 4, 16}` a [`ClusterService`]
//! drives several epochs over the same counters — epoch 0 is the cold
//! fan-out and must report `cold` on every shard, later epochs must go
//! warm on every shard. Sharding beats the
//! sequential direct solve even on one core: `k` Cholesky factors of
//! `n/k`-column systems cost ~`1/k²` of one `n`-column factor.
//! Per-shard solve times, pool statistics, and the speedups against the
//! baselines land in `BENCH_cluster.json` at the repository root. With
//! `--test` (the CI smoke mode) it runs a scaled-down FatTree(4)
//! configuration, keeps the assertions, and writes nothing.

use foces::{Detector, Fcm, IncrementalSolver, SlicedFcm, SolvePath};
use foces_cluster::{ClusterConfig, ClusterService};
use foces_controlplane::{provision, uniform_flows, Deployment, RuleGranularity};
use foces_dataplane::LossModel;
use foces_net::generators::fattree;
use foces_net::PartitionSpec;
use foces_runtime::detect_parallel;
use std::fmt::Write as _;
use std::time::Instant;

struct EpochSample {
    epoch: usize,
    wall_ms: f64,
    /// Slowest single shard (the critical path of a perfectly scheduled
    /// fan-out).
    max_shard_ms: f64,
    /// Sum over shards (the work a sequential scheduler would do).
    sum_shard_ms: f64,
    warm_shards: usize,
    shards: Vec<(usize, f64, String)>,
    steals: usize,
}

struct ClusterRun {
    k: usize,
    regions: usize,
    boundary_flows: usize,
    epochs: Vec<EpochSample>,
}

fn run_cluster(dep: &Deployment, counters: &[f64], k: usize, epochs: usize) -> ClusterRun {
    let fcm = Fcm::from_view(&dep.view);
    let config = ClusterConfig {
        spec: PartitionSpec::EdgeCut { k },
        ..ClusterConfig::default()
    };
    let mut svc =
        ClusterService::new(fcm, dep.view.topology(), config).expect("cluster construction");
    let regions = svc.partition().region_count();
    let boundary_flows = svc.sharded().boundary_flows().len();
    let mut samples = Vec::with_capacity(epochs);
    for epoch in 0..epochs {
        let t = Instant::now();
        let r = svc.run_epoch(counters).expect("cluster epoch");
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        assert!(
            !r.anomalous,
            "benign counters flagged at k={k} epoch {epoch}"
        );
        assert!(
            r.shards.iter().all(|s| s.health.is_healthy()),
            "degraded shard in a fault-free bench at k={k}"
        );
        let warm_shards = r
            .shards
            .iter()
            .filter(|s| s.solve_path.is_some_and(|p| p.is_warm()))
            .count();
        if epoch == 0 {
            assert_eq!(
                warm_shards, 0,
                "k={k}: every shard's first solve must be cold"
            );
        } else {
            assert_eq!(
                warm_shards,
                r.shards.len(),
                "k={k} epoch {epoch}: every healthy shard must be warm after the first epoch"
            );
        }
        samples.push(EpochSample {
            epoch,
            wall_ms,
            max_shard_ms: r.shards.iter().map(|s| s.elapsed_ms).fold(0.0, f64::max),
            sum_shard_ms: r.shards.iter().map(|s| s.elapsed_ms).sum(),
            warm_shards,
            shards: r
                .shards
                .iter()
                .map(|s| {
                    let path = s
                        .solve_path
                        .map(|p| p.to_string())
                        .unwrap_or_else(|| "none".into());
                    (s.region, s.elapsed_ms, path)
                })
                .collect(),
            steals: r.pool.steals,
        });
    }
    ClusterRun {
        k,
        regions,
        boundary_flows,
        epochs: samples,
    }
}

fn render_json(
    topology: &str,
    fcm: &Fcm,
    sequential_ms: f64,
    auto_ms: f64,
    parallel_ms: f64,
    runs: &[ClusterRun],
) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\n  \"benchmark\": \"cluster\",\n  \"topology\": \"{topology}\",\n  \
         \"flows\": {},\n  \"rules\": {},\n  \"sequential_ms\": {sequential_ms:.3},\n  \
         \"sequential_auto_ms\": {auto_ms:.3},\n  \
         \"detect_parallel_ms\": {parallel_ms:.3},\n  \"runs\": [",
        fcm.flow_count(),
        fcm.rule_count(),
    );
    for (i, r) in runs.iter().enumerate() {
        let cold = &r.epochs[0];
        let warm_wall: f64 = r.epochs[1..].iter().map(|e| e.wall_ms).sum::<f64>()
            / (r.epochs.len() - 1).max(1) as f64;
        let _ = write!(
            s,
            "{}\n    {{\"k\": {}, \"regions\": {}, \"boundary_flows\": {}, \
             \"cold_wall_ms\": {:.3}, \"warm_wall_ms_mean\": {warm_wall:.3}, \
             \"speedup_vs_sequential\": {:.2}, \"speedup_vs_detect_parallel\": {:.2}, \
             \"epochs\": [",
            if i == 0 { "" } else { "," },
            r.k,
            r.regions,
            r.boundary_flows,
            cold.wall_ms,
            sequential_ms / cold.wall_ms.max(1e-12),
            parallel_ms / cold.wall_ms.max(1e-12),
        );
        for (j, e) in r.epochs.iter().enumerate() {
            let _ = write!(
                s,
                "{}\n      {{\"epoch\": {}, \"wall_ms\": {:.3}, \"max_shard_ms\": {:.3}, \
                 \"sum_shard_ms\": {:.3}, \"warm_shards\": {}, \"steals\": {}, \"shards\": [",
                if j == 0 { "" } else { "," },
                e.epoch,
                e.wall_ms,
                e.max_shard_ms,
                e.sum_shard_ms,
                e.warm_shards,
                e.steals,
            );
            for (m, (region, ms, path)) in e.shards.iter().enumerate() {
                let _ = write!(
                    s,
                    "{}{{\"region\": {region}, \"ms\": {ms:.3}, \"path\": \"{path}\"}}",
                    if m == 0 { "" } else { ", " },
                );
            }
            s.push_str("]}");
        }
        s.push_str("\n    ]}");
    }
    s.push_str("\n  ]\n}\n");
    s
}

fn benign_counters(dep: &mut Deployment) -> Vec<f64> {
    dep.dataplane.reset_counters();
    dep.replay_traffic(&mut LossModel::none());
    dep.dataplane.collect_counters()
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    if test_mode {
        // CI smoke: FatTree(4) all-pairs, k=2, assertions on, no file.
        let topo = fattree(4);
        let flows = uniform_flows(&topo, topo.host_count() as f64 * 1000.0);
        let mut dep = provision(topo, &flows, RuleGranularity::PerDestination).expect("provision");
        let counters = benign_counters(&mut dep);
        let r = run_cluster(&dep, &counters, 2, 3);
        assert!(r.epochs[1..]
            .iter()
            .all(|e| e.warm_shards == e.shards.len()));
        println!(
            "cluster bench smoke: ok ({} regions, {} boundary flows, {} epochs)",
            r.regions,
            r.boundary_flows,
            r.epochs.len()
        );
        return;
    }

    // Full run: the paper's largest topology with every host pair flowing.
    let topo = fattree(8);
    let flows = uniform_flows(&topo, topo.host_count() as f64 * 1000.0);
    let mut dep = provision(topo, &flows, RuleGranularity::PerDestination).expect("provision");
    let fcm = Fcm::from_view(&dep.view);
    let counters = benign_counters(&mut dep);
    eprintln!(
        "fattree8 all-pairs: {} flows x {} rules",
        fcm.flow_count(),
        fcm.rule_count()
    );

    let detector = Detector::default();
    // Like-for-like sequential baseline: the global system through a cold
    // direct factorization, exactly the pipeline each shard worker runs.
    let t = Instant::now();
    let mut cold_solver = IncrementalSolver::default();
    let (verdict, path) = detector
        .detect_warm(&fcm, &counters, &mut cold_solver)
        .expect("sequential solve");
    let sequential_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(path, SolvePath::Cold, "fresh solver cannot be warm");
    assert!(!verdict.anomalous, "benign counters flagged sequentially");
    eprintln!("sequential (cold direct): {sequential_ms:.1} ms");

    // Context baseline: the default backend's one-shot detect on the same
    // FCM, which reads the basis (and any factor) the baseline memoized.
    let t = Instant::now();
    detector.detect(&fcm, &counters).expect("auto solve");
    let auto_ms = t.elapsed().as_secs_f64() * 1e3;
    eprintln!("sequential (auto/CGLS): {auto_ms:.1} ms");

    let sliced = SlicedFcm::from_fcm(&fcm);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let t = Instant::now();
    detect_parallel(&sliced, &detector, &counters, workers).expect("parallel solve");
    let parallel_ms = t.elapsed().as_secs_f64() * 1e3;
    eprintln!("detect_parallel({workers} workers): {parallel_ms:.1} ms");

    const EPOCHS: usize = 4;
    let mut runs = Vec::new();
    for k in [1usize, 4, 16] {
        let r = run_cluster(&dep, &counters, k, EPOCHS);
        eprintln!(
            "k={k}: cold {:.1} ms, warm mean {:.1} ms",
            r.epochs[0].wall_ms,
            r.epochs[1..].iter().map(|e| e.wall_ms).sum::<f64>() / (EPOCHS - 1) as f64
        );
        runs.push(r);
    }

    let k4 = runs.iter().find(|r| r.k == 4).expect("k=4 run");
    assert!(
        k4.epochs[0].wall_ms < sequential_ms,
        "k=4 cold fan-out ({:.1} ms) must beat the sequential solve ({sequential_ms:.1} ms)",
        k4.epochs[0].wall_ms
    );

    let json = render_json("fattree8", &fcm, sequential_ms, auto_ms, parallel_ms, &runs);
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cluster.json");
    std::fs::write(out, &json).expect("write BENCH_cluster.json");
    print!("{json}");
    eprintln!("wrote {out}");
}
