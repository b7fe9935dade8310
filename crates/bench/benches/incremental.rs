//! Cold vs. warm epoch solves on FatTree(8) under rolling churn.
//!
//! Hand-rolled harness (`harness = false`, no Criterion): each measured
//! epoch reroutes a small fraction of flows, rebuilds the FCM from the
//! view, replays fresh traffic, and then solves the same system twice —
//! once **cold** (a fresh [`IncrementalSolver`], i.e. a from-scratch
//! `HᵀH = LLᵀ` factorization) and once **warm** (the persistent solver
//! patching its cached factor with the churn's basis delta). Residuals
//! are cross-checked every epoch, so the benchmark is also an end-to-end
//! equivalence test on the paper's largest topology.
//!
//! Both solvers run on the dense backend, whose `FactorCache` is the
//! factor patched across churn; the default sparse backend solves each
//! rebuilt FCM on its own memoized factor and patches nothing.
//!
//! Writes `BENCH_incremental.json` at the repository root. With `--test`
//! (the CI smoke mode) it runs a scaled-down configuration, keeps the
//! equivalence assertions, and writes nothing.

use foces::{BackendKind, Fcm, IncrementalSolver, RankBudget, SolvePath};
use foces_controlplane::{provision, uniform_flows, Deployment, RuleGranularity};
use foces_dataplane::LossModel;
use foces_net::generators::fattree;
use foces_net::SwitchId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::Instant;

struct EpochSample {
    epoch: usize,
    /// Reroutes that actually landed this epoch.
    churned_flows: usize,
    cold_ms: f64,
    warm_ms: f64,
    /// Display form of the warm solver's path ("warm(rank=k)" or a
    /// cold-fallback reason).
    path: String,
    warm_was_warm: bool,
}

struct RunResult {
    flows: usize,
    rules: usize,
    samples: Vec<EpochSample>,
}

fn provision_subset(topo: foces_net::Topology, flows_wanted: usize) -> Deployment {
    let n = topo.host_count() as f64;
    let mut flows = uniform_flows(&topo, n * (n - 1.0) * 1000.0);
    let mut rng = StdRng::seed_from_u64(7);
    flows.shuffle(&mut rng);
    flows.truncate(flows_wanted);
    provision(topo, &flows, RuleGranularity::PerDestination).expect("bench topology provisions")
}

/// Reroutes up to `k` random flows through random off-path waypoints.
/// Returns how many reroutes actually landed (a waypoint may admit no
/// simple path; those attempts are skipped).
fn churn(dep: &mut Deployment, rng: &mut StdRng, k: usize) -> usize {
    let mut landed = 0;
    for _ in 0..k * 8 {
        if landed == k {
            break;
        }
        let flow = rng.gen_range(0..dep.flows.len());
        let path = dep.expected_paths[flow].clone();
        let candidates: Vec<SwitchId> = dep
            .view
            .topology()
            .switches()
            .filter(|s| !path.contains(s))
            .collect();
        let Some(&w) = candidates.choose(rng) else {
            continue;
        };
        if dep.reroute_flow_via(flow, &[w]).is_ok() {
            landed += 1;
        }
    }
    landed
}

fn dense_solver() -> IncrementalSolver {
    IncrementalSolver::with_backend(RankBudget::default(), BackendKind::Dense)
}

/// Runs `epochs` measured churn epochs against `dep`, returning per-epoch
/// cold/warm timings. Panics if the two solves ever disagree beyond
/// solver tolerance — the benchmark doubles as an equivalence check.
fn run(mut dep: Deployment, epochs: usize, churn_per_epoch: usize) -> RunResult {
    let mut rng = StdRng::seed_from_u64(42);
    let fcm0 = Fcm::from_view(&dep.view);
    let flows = fcm0.flow_count();
    let rules = fcm0.rule_count();

    // Epoch 0 (unmeasured): factor from scratch to warm the cache.
    dep.replay_traffic(&mut LossModel::none());
    let counters0 = fcm0.counters_from(&dep.dataplane);
    let mut warm = dense_solver();
    warm.solve(&fcm0, &counters0).expect("warm-up solve");

    let mut samples = Vec::with_capacity(epochs);
    for epoch in 0..epochs {
        let churned_flows = churn(&mut dep, &mut rng, churn_per_epoch);
        let fcm = Fcm::from_view(&dep.view);
        dep.dataplane.reset_counters();
        dep.replay_traffic(&mut LossModel::none());
        let counters = fcm.counters_from(&dep.dataplane);
        // The cold side solves its own newly built FCM: an FCM memoizes its
        // basis on first solve (and a clone shares it), so sharing `fcm`
        // would hand the warm side a basis the cold side already paid for.
        let cold_fcm = Fcm::from_parts(fcm.rules().to_vec(), fcm.flows().to_vec());

        let t = Instant::now();
        let mut cold_solver = dense_solver();
        let (cold_out, cold_path) = cold_solver.solve(&cold_fcm, &counters).expect("cold solve");
        let cold_ms = t.elapsed().as_secs_f64() * 1e3;
        assert!(
            !cold_path.is_warm(),
            "a fresh solver cannot be warm: {cold_path}"
        );

        let t = Instant::now();
        let (warm_out, path) = warm.solve(&fcm, &counters).expect("warm solve");
        let warm_ms = t.elapsed().as_secs_f64() * 1e3;

        let scale = counters.iter().fold(1.0_f64, |m, v| m.max(v.abs()));
        for (a, b) in warm_out.residual.iter().zip(&cold_out.residual) {
            assert!(
                (a - b).abs() <= 1e-6 * scale,
                "epoch {epoch}: warm residual {a} vs cold {b}"
            );
        }

        samples.push(EpochSample {
            epoch,
            churned_flows,
            cold_ms,
            warm_ms,
            path: path.to_string(),
            warm_was_warm: matches!(path, SolvePath::Warm { .. }),
        });
    }
    RunResult {
        flows,
        rules,
        samples,
    }
}

fn render_json(
    topology: &str,
    churn_per_epoch: usize,
    churn_fraction: f64,
    r: &RunResult,
) -> String {
    let cold_total: f64 = r.samples.iter().map(|s| s.cold_ms).sum();
    let warm_total: f64 = r.samples.iter().map(|s| s.warm_ms).sum();
    let n = r.samples.len().max(1) as f64;
    let speedup = cold_total / warm_total.max(1e-12);
    let warm_epochs = r.samples.iter().filter(|s| s.warm_was_warm).count();
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\n  \"benchmark\": \"incremental\",\n  \"topology\": \"{topology}\",\n  \
         \"flows\": {},\n  \"rules\": {},\n  \"epochs\": {},\n  \
         \"churn_flows_per_epoch\": {churn_per_epoch},\n  \"churn_fraction\": {churn_fraction:.4},\n  \
         \"cold_ms_mean\": {:.3},\n  \"warm_ms_mean\": {:.3},\n  \
         \"cold_ms_total\": {cold_total:.3},\n  \"warm_ms_total\": {warm_total:.3},\n  \
         \"speedup\": {speedup:.2},\n  \"warm_epochs\": {warm_epochs},\n  \"samples\": [",
        r.flows,
        r.rules,
        r.samples.len(),
        cold_total / n,
        warm_total / n,
    );
    for (i, e) in r.samples.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n    {{\"epoch\": {}, \"churned_flows\": {}, \"cold_ms\": {:.3}, \
             \"warm_ms\": {:.3}, \"path\": \"{}\"}}",
            if i == 0 { "" } else { "," },
            e.epoch,
            e.churned_flows,
            e.cold_ms,
            e.warm_ms,
            e.path,
        );
    }
    s.push_str("\n  ]\n}\n");
    s
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    if test_mode {
        // CI smoke: a small FatTree(4), two churn epochs, assertions on.
        let dep = provision_subset(fattree(4), 120);
        let r = run(dep, 2, 2);
        assert!(
            r.samples.iter().all(|s| s.warm_was_warm),
            "smoke run must stay warm: {:?}",
            r.samples.iter().map(|s| s.path.clone()).collect::<Vec<_>>()
        );
        println!(
            "incremental bench smoke: ok ({} epochs warm)",
            r.samples.len()
        );
        return;
    }

    // Full run: the paper's largest topology, rolling ~0.5% flow churn per
    // epoch (well under the 5% regime the warm path is budgeted for).
    const FLOWS: usize = 4000;
    const EPOCHS: usize = 8;
    const CHURN: usize = 20;
    let dep = provision_subset(fattree(8), FLOWS);
    let r = run(dep, EPOCHS, CHURN);
    let json = render_json("fattree8", CHURN, CHURN as f64 / FLOWS as f64, &r);
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_incremental.json");
    std::fs::write(out, &json).expect("write BENCH_incremental.json");
    print!("{json}");
    eprintln!("wrote {out}");
}
