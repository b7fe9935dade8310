//! Cold vs. warm epoch solves on FatTree(8) under rolling churn.
//!
//! Hand-rolled harness (`harness = false`, no Criterion): each measured
//! epoch reroutes a small fraction of flows, rebuilds the FCM from the
//! view, replays fresh traffic, and then solves the same system twice on
//! the default backend — once **cold** (a fresh [`IncrementalSolver`] on
//! a freshly built FCM: ordering, symbolic analysis and sparse factor
//! from scratch) and once **warm** (the persistent solver on the rebuilt
//! FCM, which likewise factors the rebuilt basis once; both must report
//! `SolvePath::Cold`). Residuals are cross-checked every epoch, so the
//! benchmark is also an end-to-end equivalence test on the paper's
//! largest topology. Each epoch then re-solves the unchanged FCM, which
//! must report `SolvePath::Warm` with a bit-identical residual: the
//! factor memoized on the FCM is reused, not rebuilt.
//!
//! Writes `BENCH_incremental.json` at the repository root. With `--test`
//! (the CI smoke mode) it runs a scaled-down configuration, keeps the
//! equivalence assertions, and writes nothing.

use foces::{Fcm, IncrementalSolver, SolvePath};
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
    /// Re-solving the unchanged FCM on its memoized factor.
    resolve_ms: f64,
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

/// Runs `epochs` measured churn epochs against `dep`, returning per-epoch
/// cold/warm timings. Panics if the two solves ever disagree beyond
/// solver tolerance — the benchmark doubles as an equivalence check.
fn run(mut dep: Deployment, epochs: usize, churn_per_epoch: usize) -> RunResult {
    let mut rng = StdRng::seed_from_u64(42);
    let fcm0 = Fcm::from_view(&dep.view);
    let flows = fcm0.flow_count();
    let rules = fcm0.rule_count();

    // Epoch 0 (unmeasured): factor from scratch to warm the solver.
    dep.replay_traffic(&mut LossModel::none());
    let counters0 = fcm0.counters_from(&dep.dataplane);
    let mut warm = IncrementalSolver::default();
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
        // It is traced from the view like `fcm`, not copied with
        // `Fcm::from_parts`: a copy lays the flows out contiguously, and
        // building the basis from it runs ~1 ms faster at FatTree(8), a
        // memory-layout gap that would be read as the solver's.
        let cold_fcm = Fcm::from_view(&dep.view);

        let t = Instant::now();
        let mut cold_solver = IncrementalSolver::default();
        let (cold_out, cold_path) = cold_solver.solve(&cold_fcm, &counters).expect("cold solve");
        let cold_ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            cold_path,
            SolvePath::Cold,
            "epoch {epoch}: a fresh solver cannot be warm"
        );

        let t = Instant::now();
        let (warm_out, path) = warm.solve(&fcm, &counters).expect("warm solve");
        let warm_ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            path,
            SolvePath::Cold,
            "epoch {epoch}: a rebuilt FCM's first solve is cold"
        );

        let scale = counters.iter().fold(1.0_f64, |m, v| m.max(v.abs()));
        for (a, b) in warm_out.residual.iter().zip(&cold_out.residual) {
            assert!(
                (a - b).abs() <= 1e-6 * scale,
                "epoch {epoch}: warm residual {a} vs cold {b}"
            );
        }

        let t = Instant::now();
        let (again, again_path) = warm.solve(&fcm, &counters).expect("re-solve");
        let resolve_ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            again_path,
            SolvePath::Warm,
            "epoch {epoch}: re-solving an unchanged FCM must reuse its factor"
        );
        assert!(
            again
                .residual
                .iter()
                .zip(&warm_out.residual)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "epoch {epoch}: re-solve residual differs from the first solve"
        );

        samples.push(EpochSample {
            epoch,
            churned_flows,
            cold_ms,
            warm_ms,
            resolve_ms,
        });
    }
    RunResult {
        flows,
        rules,
        samples,
    }
}

/// Median of a sample (the mean of the middle two for an even count).
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
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
    let resolve_total: f64 = r.samples.iter().map(|s| s.resolve_ms).sum();
    let n = r.samples.len().max(1) as f64;
    let speedup = cold_total / warm_total.max(1e-12);
    let med = |f: fn(&EpochSample) -> f64| median(r.samples.iter().map(f).collect());
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\n  \"benchmark\": \"incremental\",\n  \"topology\": \"{topology}\",\n  \
         \"flows\": {},\n  \"rules\": {},\n  \"epochs\": {},\n  \
         \"churn_flows_per_epoch\": {churn_per_epoch},\n  \"churn_fraction\": {churn_fraction:.4},\n  \
         \"cold_ms_mean\": {:.3},\n  \"warm_ms_mean\": {:.3},\n  \"resolve_ms_mean\": {:.3},\n  \
         \"cold_ms_median\": {:.3},\n  \"warm_ms_median\": {:.3},\n  \"resolve_ms_median\": {:.3},\n  \
         \"cold_ms_total\": {cold_total:.3},\n  \"warm_ms_total\": {warm_total:.3},\n  \
         \"speedup\": {speedup:.2},\n  \"samples\": [",
        r.flows,
        r.rules,
        r.samples.len(),
        cold_total / n,
        warm_total / n,
        resolve_total / n,
        med(|e| e.cold_ms),
        med(|e| e.warm_ms),
        med(|e| e.resolve_ms),
    );
    for (i, e) in r.samples.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n    {{\"epoch\": {}, \"churned_flows\": {}, \"cold_ms\": {:.3}, \
             \"warm_ms\": {:.3}, \"resolve_ms\": {:.3}}}",
            if i == 0 { "" } else { "," },
            e.epoch,
            e.churned_flows,
            e.cold_ms,
            e.warm_ms,
            e.resolve_ms,
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
        println!(
            "incremental bench smoke: ok ({} epochs, every rebuilt FCM's first \
             solve cold, every unchanged re-solve warm and bit-identical)",
            r.samples.len()
        );
        return;
    }

    // Full run: the paper's largest topology, rolling ~0.5% flow churn per
    // epoch.
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
