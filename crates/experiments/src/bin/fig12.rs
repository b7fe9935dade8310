//! **Fig. 12** — detection time vs number of flows, baseline vs slicing,
//! on FatTree(8).
//!
//! Protocol (paper §VI-F): provision increasing numbers of flows (random
//! subsets of the 128×127 host pairs) on FatTree(8) and wall-clock one
//! detection round of the baseline (Algorithm 1, direct normal-equation
//! solve) against the sliced detector (Algorithm 2).
//!
//! Expected shape: the baseline's time grows roughly cubically with the
//! number of distinct flow columns while slicing grows far slower;
//! at the largest point slicing takes a small fraction (< 20 % in the
//! paper) of the baseline.
//!
//! Differences from the paper, documented in EXPERIMENTS.md: rules are
//! compiled per destination so that rules aggregate flows (with per-flow
//! rules the normal-equation matrix is diagonal and the baseline cost
//! collapses — our fluid testbed is "too clean" for the paper's timing
//! story otherwise), and absolute times are not comparable to the paper's
//! Python/NumPy prototype.
//!
//! The default sweep stops at 3000 flows (~30 s total: the paper-literal
//! baseline is deliberately cubic); `FOCES_FULL=1` extends it to the
//! paper's 12000-flow point (several minutes for the dense inversions).

use foces::{Detector, Fcm, SlicedFcm};
use foces_controlplane::{provision, uniform_flows, FlowSpec, RuleGranularity};
use foces_dataplane::LossModel;
use foces_experiments::{solve_cgls, solve_dense_naive};
use foces_net::generators::fattree;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let full = std::env::var("FOCES_FULL")
        .map(|v| v == "1")
        .unwrap_or(false);
    let mut sweep = vec![250usize, 500, 1000, 2000, 3000];
    if full {
        sweep.extend([4000, 6000, 9000, 12000]);
    }
    println!("# Fig. 12: detection time vs flows, FatTree(8), per-destination rules");
    println!("# baseline = paper-literal dense (H'H)^-1 pipeline; sliced = Algorithm 2;");
    println!("# direct/cgls = this reproduction's structure-aware extensions");
    println!("flows,unique_columns,rules,baseline_ms,sliced_ms,direct_ms,cgls_ms,fcm_build_ms,slice_build_ms");
    let topo = fattree(8);
    let all_flows: Vec<FlowSpec> = uniform_flows(&topo, 16256.0 * 1000.0);
    let mut rng = StdRng::seed_from_u64(99);
    for &n in &sweep {
        let mut flows = all_flows.clone();
        flows.shuffle(&mut rng);
        flows.truncate(n);
        let mut dep = provision(topo.clone(), &flows, RuleGranularity::PerDestination)
            .expect("fattree(8) provisions");

        let t0 = Instant::now();
        let fcm = Fcm::from_view(&dep.view);
        let fcm_build = t0.elapsed();

        let t0 = Instant::now();
        let sliced = SlicedFcm::from_fcm(&fcm);
        let slice_build = t0.elapsed();

        // One healthy collection round.
        let mut loss = LossModel::none();
        dep.replay_traffic(&mut loss);
        let counters = dep.dataplane.collect_counters();

        // Paper baseline: the literal (HᵀH)⁻¹ dense pipeline of Eq. (4).
        let t0 = Instant::now();
        let baseline_solve = solve_dense_naive(&fcm, &counters).expect("solve");
        let baseline = t0.elapsed();

        // Algorithm 2: per-switch slices (small sub-systems, default solver).
        let detector = Detector::default();
        let t0 = Instant::now();
        let sliced_verdict = sliced.detect(&detector, &counters).expect("solve");
        let sliced_time = t0.elapsed();

        // Reproduction extensions: structure-aware direct and sparse CGLS.
        // The baseline memoized the FCM's basis; the direct round times
        // its own on a copy without that memo.
        let fcm = fcm.unmemoized();
        let t0 = Instant::now();
        let direct_verdict = detector.detect(&fcm, &counters).expect("solve");
        let direct_time = t0.elapsed();
        let t0 = Instant::now();
        solve_cgls(&fcm, &counters, 1e-10, 5000).expect("solve");
        let cgls_time = t0.elapsed();

        assert!(!direct_verdict.anomalous && !sliced_verdict.anomalous);
        let baseline_agrees = (baseline_solve.residual.iter())
            .zip(&direct_verdict.solve.residual)
            .all(|(a, b)| (a - b).abs() < 1e-6);
        assert!(
            baseline_agrees,
            "the baseline's residual left the default solve's"
        );
        let unique = fcm.column_groups().basis.len();
        println!(
            "{n},{unique},{},{:.1},{:.1},{:.1},{:.1},{:.1},{:.1}",
            fcm.rule_count(),
            baseline.as_secs_f64() * 1e3,
            sliced_time.as_secs_f64() * 1e3,
            direct_time.as_secs_f64() * 1e3,
            cgls_time.as_secs_f64() * 1e3,
            fcm_build.as_secs_f64() * 1e3,
            slice_build.as_secs_f64() * 1e3
        );
    }
}
