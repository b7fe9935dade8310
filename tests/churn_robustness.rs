//! Churn-robustness acceptance test: the runtime service driven on a
//! FatTree(4) fabric while the controller performs rolling reroutes every
//! few epochs, so counters regularly mix rule-table generations.
//!
//! The two halves of the PR's acceptance criteria:
//! * **No false alarms under churn**: a healthy network with a rolling
//!   update schedule must finish a 30-epoch run with zero alarm raises —
//!   every churn epoch is *reconciled* (journaled rows masked, updated
//!   flows quarantined), never scored as an anomaly, and the FCM is
//!   rebuilt once the view moves on.
//! * **No blindness either**: the same schedule with a packet-dropping
//!   compromised switch must still raise the alarm, within the hysteresis
//!   bound (`raise_k` anomalous rounds) plus the churn-suppression
//!   slack — quarantine absorbs updates, not attacks.

use foces_controlplane::{provision, uniform_flows, Deployment, RuleGranularity};
use foces_dataplane::AnomalyKind;
use foces_net::generators::fattree;
use foces_runtime::{FaultScenario, RuntimeConfig, ScenarioDriver};

const EPOCHS: u64 = 30;
const CHURN_PERIOD: u64 = 3;
const ATTACK_AT: u64 = 10;

fn testbed() -> Deployment {
    let topo = fattree(4);
    let flows = uniform_flows(&topo, 240_000.0);
    provision(topo, &flows, RuleGranularity::PerFlowPair).expect("provision fattree(4)")
}

fn rolling_update_scenario() -> FaultScenario {
    FaultScenario {
        epochs: EPOCHS,
        loss: 0.0,
        drop_prob: 0.0,
        latency_ms: 2.0,
        jitter_ms: 0.0,
        reorder_prob: 0.0,
        offline: None,
        anomaly_window: None,
        anomaly_kind: AnomalyKind::EarlyDrop,
        seed: 5,
        anomaly_seed: 11,
        churn_period: Some(CHURN_PERIOD),
        churn_seed: 21,
        ..FaultScenario::default()
    }
}

#[test]
fn rolling_reroutes_alone_never_alarm() {
    let mut driver = ScenarioDriver::new(
        testbed(),
        rolling_update_scenario(),
        RuntimeConfig::default(),
    );
    let reports = driver.run().expect("no round may fail outright");
    assert_eq!(reports.len(), EPOCHS as usize);

    let m = *driver.service().metrics();
    assert!(
        driver.churn_events() > 0,
        "the schedule must actually churn"
    );
    assert!(
        m.reconciled_rounds >= driver.churn_events(),
        "every churn epoch reconciles: {} reconciled < {} churn events",
        m.reconciled_rounds,
        driver.churn_events()
    );
    assert!(m.stale_generation_replies > 0, "stamps must flag the churn");
    assert!(m.quarantined_flows > 0, "updated flows must be quarantined");
    assert!(m.fcm_rebuilds > 0, "the FCM must follow the view");
    assert_eq!(m.blind_rounds, 0, "churn never blinds a perfect channel");

    // The whole point: zero raises across the run, and every round —
    // reconciled or full — scores normal.
    assert_eq!(m.alarms_raised, 0, "rule churn is not an anomaly");
    for r in &reports {
        assert!(
            !r.anomalous(),
            "epoch {}: healthy churned round scored anomalous ({:?})",
            r.epoch,
            r.mode
        );
        assert_eq!(r.churn, driver.churn_due_at(r.epoch), "epoch {}", r.epoch);
        assert_eq!(
            r.mode.is_reconciled(),
            driver.churn_due_at(r.epoch),
            "epoch {}: mode {:?}",
            r.epoch,
            r.mode
        );
    }
    assert_eq!(driver.service().state(), foces::AlarmState::Normal);
}

#[test]
fn packet_dropper_is_still_caught_under_the_same_churn() {
    let mut scenario = rolling_update_scenario();
    scenario.anomaly_window = Some((ATTACK_AT, EPOCHS));
    let config = RuntimeConfig::default();
    // Worst-case raise latency: `raise_k` consecutive anomalous
    // rounds, stretched by the churn-suppression penalty for every churn
    // epoch that can land inside the confirmation window.
    let h = config.hysteresis;
    let bound = ATTACK_AT
        + u64::from(h.raise_k)
        + u64::from(h.churn_suppress + h.churn_penalty)
        + EPOCHS / CHURN_PERIOD / 2;

    let mut driver = ScenarioDriver::new(testbed(), scenario, config);
    let reports = driver.run().expect("no round may fail outright");

    let m = *driver.service().metrics();
    assert!(
        m.reconciled_rounds > 0,
        "churn keeps rolling during the attack"
    );
    let raised: Vec<u64> = reports
        .iter()
        .filter(|r| r.alarm_raised)
        .map(|r| r.epoch)
        .collect();
    assert!(
        !raised.is_empty(),
        "quarantine absorbed the attack: no alarm in {EPOCHS} epochs"
    );
    let first = raised[0];
    assert!(first >= ATTACK_AT, "alarm at {first} predates the attack");
    assert!(
        first <= bound,
        "alarm at {first} outran the hysteresis bound {bound}"
    );
    // The dropper stays active to the end of the run, so the alarm must
    // still be standing when the run ends.
    assert_eq!(driver.service().state(), foces::AlarmState::Alarmed);
}
