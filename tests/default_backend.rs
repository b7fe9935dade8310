//! One backend per round, sparse by default.
//!
//! * **Every solve a round makes runs on its FCM's memoized factor.** A
//!   degraded round with one switch silent solves on the full FCM's
//!   memoized sparse factor (the row-removal kernel), even as the first
//!   round; after a full `RuntimeService` round every per-switch slice
//!   holds one too. Under `backend: Dense` none of them does: the backend a
//!   driver is configured with governs the slices and the masked rounds
//!   too, not only the warm full-system solve.
//! * **The backend changes no decision.** The `run` and `stream` liar
//!   drills decide the same, epoch by epoch, under `backend: Dense` (the
//!   per-call dense reference) and under the default.
//! * **The backends agree round by round.** A fixed-case slice of the
//!   256-case `crates/core/tests/backend_props.rs` battery: verdicts,
//!   residuals, anomaly indices and localization scores to 1e-9 on
//!   FatTree(4), ring(6) and BCube(1,4), with churned, lossy, anomalous,
//!   degraded-mask and k-resilient-probe rounds.

#[path = "../crates/core/tests/support/backend_parity.rs"]
mod backend_parity;

use backend_parity::{check_case, Case};
use foces::{AlarmState, BackendKind, Fcm};
use foces_channel::FakeStrategy;
use foces_controlplane::{provision, uniform_flows, Deployment, RuleGranularity};
use foces_ingest::{CadenceConfig, StreamAction, StreamConfig, StreamDriver};
use foces_net::generators::fattree;
use foces_net::SwitchId;
use foces_runtime::{
    ByzantineConfig, DetectionMode, EpochReport, FaultScenario, RuntimeConfig, ScenarioDriver,
};

/// FatTree(4), per-pair rules, 1,000 units per host pair: the plane of
/// `scenarios/coverage_fattree4.foces`.
fn testbed() -> Deployment {
    let topo = fattree(4);
    let flows = uniform_flows(&topo, 240_000.0);
    provision(topo, &flows, RuleGranularity::PerFlowPair).expect("provision fattree(4)")
}

/// Whether `fcm` holds a memoized factor of its basis Gram.
fn memoized(fcm: &Fcm) -> bool {
    let (_, factored_now) = fcm
        .basis_system()
        .cholesky()
        .borrow_or_factor()
        .expect("the basis Gram factors");
    !factored_now
}

/// A degraded round with `silent` offline, then a full one; returns
/// whether the full FCM held a memoized factor after the degraded round
/// (no full round ran before it), and whether every slice held one after
/// the full round.
fn memo_after_rounds(backend: BackendKind, silent: SwitchId) -> (bool, Vec<bool>) {
    let scenario = FaultScenario {
        epochs: 2,
        loss: 0.0,
        drop_prob: 0.0,
        jitter_ms: 0.0,
        offline: Some((silent, 0, 1)),
        seed: 3,
        ..FaultScenario::default()
    };
    let config = RuntimeConfig {
        backend,
        ..RuntimeConfig::default()
    };
    let mut driver = ScenarioDriver::new(testbed(), scenario, config);
    let degraded = driver.step().expect("degraded round");
    let DetectionMode::Degraded { missing, .. } = &degraded.mode else {
        panic!("expected a degraded round, got {:?}", degraded.mode);
    };
    assert_eq!(missing, &vec![silent]);
    let masked_memo = memoized(driver.service().pipeline().fcm());
    let full = driver.step().expect("full round");
    assert_eq!(full.mode, DetectionMode::Full);
    let slices: Vec<bool> = driver
        .service()
        .sliced()
        .sharded()
        .shard_views()
        .iter()
        .map(|v| memoized(v.sub_fcm))
        .collect();
    (masked_memo, slices)
}

#[test]
fn every_default_solve_runs_on_a_memoized_factor() {
    // A switch that owns FCM rows (not every core switch carries a flow).
    let silent = Fcm::from_view(&testbed().view).rules()[0].switch;
    let (masked, slices) = memo_after_rounds(BackendKind::default(), silent);
    assert!(masked, "the masked round solved on the full FCM's factor");
    assert!(slices.len() > 1);
    assert!(
        slices.iter().all(|&m| m),
        "every slice's factor is memoized: {slices:?}"
    );

    // The dense reference forms a dense Gram per call and memoizes nothing.
    let (masked, slices) = memo_after_rounds(BackendKind::Dense, silent);
    assert!(!masked && slices.iter().all(|&m| !m));
}

/// The decision-bearing part of one lockstep epoch.
#[derive(Debug, PartialEq)]
struct Decision {
    epoch: u64,
    mode: DetectionMode,
    anomalous: Option<bool>,
    state: AlarmState,
    raised: bool,
    cleared: bool,
    localized: Option<SwitchId>,
    quarantined: Vec<SwitchId>,
    released: Option<SwitchId>,
}

/// The `run` liar drill: `foces run scenarios/coverage_fattree4.foces
/// --epochs 30 --liars 1 --fake-at 5 --confess-at 18 --seed 3`.
fn run_drill(backend: BackendKind) -> Vec<EpochReport> {
    let scenario = FaultScenario {
        epochs: 30,
        loss: 0.02,
        drop_prob: 0.0,
        jitter_ms: 0.0,
        seed: 3,
        anomaly_seed: 3,
        liars: 1,
        fake_window: Some((5, 18)),
        ..FaultScenario::default()
    };
    let config = RuntimeConfig {
        byzantine: ByzantineConfig {
            enabled: true,
            ..ByzantineConfig::default()
        },
        backend,
        ..RuntimeConfig::default()
    };
    let mut driver = ScenarioDriver::new(testbed(), scenario, config);
    (0..30)
        .map(|_| driver.step().expect("no round may fail outright"))
        .collect()
}

fn decision(r: &EpochReport) -> Decision {
    Decision {
        epoch: r.epoch,
        mode: r.mode.clone(),
        anomalous: r.verdict.as_ref().map(|v| v.anomalous),
        state: r.state,
        raised: r.alarm_raised,
        cleared: r.alarm_cleared,
        localized: r.localized_liar,
        quarantined: r.quarantined_switches.clone(),
        released: r.quarantine_released,
    }
}

fn close(a: f64, b: f64, rel: f64) -> bool {
    a == b || (a - b).abs() <= rel * a.abs().max(b.abs())
}

#[test]
fn run_liar_drill_decides_the_same_on_both_backends() {
    let dense = run_drill(BackendKind::Dense);
    let sparse = run_drill(BackendKind::default());
    for (d, s) in dense.iter().zip(&sparse) {
        assert_eq!(decision(d), decision(s));
        if let (Some(dv), Some(sv)) = (&d.verdict, &s.verdict) {
            assert!(
                close(dv.anomaly_index, sv.anomaly_index, 1e-9),
                "epoch {}: anomaly index dense {} vs sparse {}",
                d.epoch,
                dv.anomaly_index,
                sv.anomaly_index
            );
        }
    }
    // The drill exercises the whole liar lifecycle.
    assert!(sparse.iter().any(|r| r.localized_liar.is_some()));
    assert!(sparse.iter().any(|r| r.quarantine_released.is_some()));
}

/// The `stream` liar drill: `foces stream scenarios/coverage_fattree4.foces
/// --duration-ms 20000 --liars 1 --fake-at 3000 --confess-at 12000 --seed 3`.
/// Returns its JSONL log.
fn stream_drill(backend: BackendKind) -> Vec<String> {
    let script = vec![
        (
            3000.0,
            StreamAction::Compromise {
                liars: 1,
                strategy: FakeStrategy::Naive,
                magnitude: 1.0,
            },
        ),
        (12000.0, StreamAction::Confess),
    ];
    let config = StreamConfig {
        duration_ms: 20_000.0,
        cadence: CadenceConfig::fixed(50.0),
        seed: 3,
        byzantine: ByzantineConfig {
            enabled: true,
            ..ByzantineConfig::default()
        },
        backend,
        ..StreamConfig::default()
    };
    let mut driver = StreamDriver::new(testbed(), config, script);
    driver.run().expect("no round may fail outright");
    driver.log().lines().to_vec()
}

/// The value of `"key":` in a flat JSON line, as written.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let tag = format!("\"{key}\":");
    let start = line
        .find(&tag)
        .unwrap_or_else(|| panic!("no {key} in {line}"))
        + tag.len();
    let rest = &line[start..];
    &rest[..rest.find([',', '}']).unwrap_or(rest.len())]
}

#[test]
fn stream_liar_drill_decides_the_same_on_both_backends() {
    let dense = stream_drill(BackendKind::Dense);
    let sparse = stream_drill(BackendKind::default());
    assert_eq!(dense.len(), sparse.len());
    let keys = [
        "t_ms",
        "region",
        "round",
        "kind",
        "anomalous",
        "alarm",
        "raised",
        "cleared",
        "liars",
        "localized",
        "byz_unresolved",
    ];
    for (d, s) in dense.iter().zip(&sparse) {
        if !d.contains("\"round\":") {
            // Script events (compromise, confess) carry no solve.
            assert_eq!(d, s);
            continue;
        }
        for key in keys {
            assert_eq!(field(d, key), field(s, key), "{key}:\n{d}\n{s}");
        }
        // Written to six decimals: equal up to the last printed digit.
        let ai = |l: &str| field(l, "ai").trim_matches('"').parse::<f64>().unwrap();
        let (a, b) = (ai(d), ai(s));
        assert!(
            close(a, b, 1e-9) || (a - b).abs() <= 1e-6,
            "ai {a} vs {b}:\n{d}\n{s}"
        );
    }
    // The drill exercises the whole liar lifecycle.
    let rounds: Vec<&String> = sparse.iter().filter(|l| l.contains("\"round\":")).collect();
    assert!(rounds.iter().any(|l| field(l, "localized") != "null"));
    assert!(rounds.iter().any(|l| field(l, "raised") == "true"));
    assert!(rounds.iter().any(|l| field(l, "cleared") == "true"));
}

#[test]
fn dense_and_sparse_agree_on_fixed_parity_cases() {
    // (topology, churn, injected perturbation, lossy) covers each
    // topology clean and perturbed, churned and pristine, with and without
    // sampled loss; every case also runs a masked round and a probe.
    let cases = [
        (0, false, 0.0, 0),
        (0, true, 1_500.0, 7),
        (1, false, 1_800.0, 2),
        (1, true, 0.0, 13),
        (2, false, 0.0, 5),
        (2, true, 1_200.0, 4),
        (0, true, 1_999.0, 1),
        (2, false, 1_650.0, 11),
    ];
    for (i, &(topo_pick, churn, perturb, loss_seed)) in cases.iter().enumerate() {
        check_case(Case {
            topo_pick,
            churn_flow: 37 * i + 3,
            churn,
            perturb_row: 101 * i + 17,
            perturb,
            masked_switch: 5 * i + 1,
            loss_seed,
        });
    }
}
