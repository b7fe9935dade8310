//! Leave-one-switch-out parity: the Woodbury capacitance behind
//! [`LooSolver::leave_out`] and the coverage classifier against an
//! independent oracle that removes each switch's rows explicitly and
//! decides rank and least squares densely from scratch
//! (`crates/core/tests/support/loo_oracle.rs`).
//!
//! Networks: FatTree(4) with per-pair and per-destination rules, and the
//! ring and line family of `coverage_props`, whose ring-4 and line-3
//! per-destination planes hold switches that lose rank. Counters: the
//! honest replay with one switch's rows forged (so leaving the forger out
//! is consistent), and the same with a fixed multiplicative jitter on every
//! row (so every anomaly index is finite and informative).

use foces::{
    analyze_coverage, CoverageConfig, Fcm, LooClass, LooSolver, LooStatus, DEFAULT_THRESHOLD,
};
use foces_controlplane::{provision, uniform_flows, RuleGranularity};
use foces_dataplane::LossModel;
use foces_net::generators::{fattree, linear, ring};
use foces_net::Topology;

#[path = "../crates/core/tests/support/loo_oracle.rs"]
mod loo_oracle;
use loo_oracle::Oracle;

/// FCM and loss-free counters of one honest replay.
fn plane(topo: Topology, volume: f64, granularity: RuleGranularity) -> (Fcm, Vec<f64>) {
    let flows = uniform_flows(&topo, volume);
    let mut dep = provision(topo, &flows, granularity).unwrap();
    dep.dataplane.reset_counters();
    dep.replay_traffic(&mut LossModel::none());
    let truth = dep.dataplane.collect_counters();
    (Fcm::from_view(&dep.view), truth)
}

/// Whether two anomaly indices agree to `1e-9` relative (`NaN` and `∞`
/// agree only with themselves).
fn same_index(a: f64, b: f64) -> bool {
    if a.is_nan() || b.is_nan() {
        return a.is_nan() && b.is_nan();
    }
    if a.is_infinite() || b.is_infinite() {
        return a == b;
    }
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

/// A fixed pseudo-random value in `[0, 1)` per row and salt.
fn unit(row: usize, salt: u64) -> f64 {
    let mut h = (row as u64 ^ salt.rotate_left(17)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= h >> 29;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The two counter sets: the forger's rows scaled and offset, and that
/// plus ±0.5 % jitter on every row.
fn counter_sets(fcm: &Fcm, truth: &[f64], salt: u64) -> [Vec<f64>; 2] {
    let switches: Vec<_> = fcm.rules().iter().map(|r| r.switch).collect();
    let forger = switches[(salt as usize * 7) % switches.len()];
    let forged: Vec<f64> = truth
        .iter()
        .zip(&switches)
        .enumerate()
        .map(|(i, (&y, &s))| {
            if s == forger {
                1.7 * y + 500.0 * (1.0 + unit(i, salt))
            } else {
                y
            }
        })
        .collect();
    let jittered = forged
        .iter()
        .enumerate()
        .map(|(i, &y)| y * (1.0 + 0.01 * (unit(i, salt ^ 0xA5A5) - 0.5)))
        .collect();
    [forged, jittered]
}

/// Every row-owning switch: solver and coverage class against the oracle.
/// Returns how many leave-outs the oracle judged `[Consistent,
/// StillAnomalous, RankLost]`.
fn check(name: &str, topo: Topology, granularity: RuleGranularity, salt: u64) -> [usize; 3] {
    let (fcm, truth) = plane(topo, 12_000.0, granularity);
    let report = analyze_coverage(&fcm, &CoverageConfig::default()).unwrap();
    assert!(!report.truncated, "{name}: {}", report.summary());
    let mut tally = [0; 3];
    for counters in counter_sets(&fcm, &truth, salt) {
        let oracle = Oracle::new(&fcm, &counters, DEFAULT_THRESHOLD);
        let mut solver = LooSolver::build(&fcm, &counters, DEFAULT_THRESHOLD).unwrap();
        for sc in &report.switches {
            let s = sc.switch;
            let want = oracle.leave_out(s);
            let got = solver.leave_out(s).unwrap();
            let at = format!("{name} s{}", s.0);
            assert_eq!(got.status, want.status, "{at}: {got:?} vs {want:?}");
            assert_eq!(got.rows_removed, want.rows_removed, "{at}");
            assert_eq!(got.flows_dropped, want.flows_dropped, "{at}");
            assert_eq!(sc.flows_stranded, want.flows_dropped, "{at}");
            assert!(
                same_index(got.anomaly_index_without, want.anomaly_index_without),
                "{at}: AI {} vs oracle {}",
                got.anomaly_index_without,
                want.anomaly_index_without
            );
            assert_eq!(
                sc.loo == LooClass::RankLost,
                want.status == LooStatus::RankLost,
                "{at}: class {:?} vs oracle {:?}",
                sc.loo,
                want.status
            );
            tally[match want.status {
                LooStatus::Consistent => 0,
                LooStatus::StillAnomalous => 1,
                LooStatus::RankLost => 2,
            }] += 1;
        }
        assert_eq!(solver.cold_factorizations(), 1, "{name}");
    }
    tally
}

#[test]
fn fattree4_leave_outs_match_the_explicit_reduction() {
    use RuleGranularity::{PerDestination, PerFlowPair};
    for (name, granularity, salt) in [("pair", PerFlowPair, 1), ("dest", PerDestination, 2)] {
        let [consistent, still, lost] = check(name, fattree(4), granularity, salt);
        // The forger's leave-out is consistent; the rest are not.
        assert!(consistent >= 1 && still >= 13, "fattree4 {name}");
        assert_eq!(lost, 0, "fattree4 {name}");
    }
}

#[test]
fn ring_and_line_leave_outs_match_the_explicit_reduction() {
    use RuleGranularity::{PerDestination, PerFlowPair};
    let family = [
        ("line2 dest", linear(2), PerDestination),
        ("line3 dest", linear(3), PerDestination),
        ("line3 pair", linear(3), PerFlowPair),
        ("ring3 dest", ring(3), PerDestination),
        ("ring3 pair", ring(3), PerFlowPair),
        ("ring4 dest", ring(4), PerDestination),
        ("ring5 pair", ring(5), PerFlowPair),
        ("line4 dest", linear(4), PerDestination),
    ];
    let mut specimens = Vec::new();
    for (salt, (name, topo, granularity)) in family.into_iter().enumerate() {
        if check(name, topo, granularity, salt as u64 + 3)[2] > 0 {
            specimens.push(name);
        }
    }
    // The comparison is not vacuous: rank-lost switches occur and match.
    assert_eq!(specimens, ["line3 dest", "ring4 dest", "line4 dest"]);
}

/// The `lockstep` and `stream` workloads' FCM: FatTree(6), all pairs,
/// per-destination rules. Its pre-flight report is pinned.
#[test]
fn fattree6_per_destination_report_is_pinned() {
    let topo = fattree(6);
    let flows = uniform_flows(&topo, 1_000.0);
    let dep = provision(topo, &flows, RuleGranularity::PerDestination).unwrap();
    let fcm = Fcm::from_view(&dep.view);
    let report = analyze_coverage(&fcm, &CoverageConfig::default()).unwrap();
    assert_eq!(
        (report.rule_count, report.basis_cols, report.switches.len()),
        (1_350, 972, 25)
    );
    assert!(!report.truncated);
    assert_eq!(report.class_count(LooClass::Localizable), 25);
    assert_eq!(report.class_count(LooClass::ConditionalOnMask), 0);
    assert_eq!(report.class_count(LooClass::RankLost), 0);
    assert_eq!(report.warn_count(), 0, "{}", report.summary());
    assert_eq!(report.degradation_margin, 1);
}
