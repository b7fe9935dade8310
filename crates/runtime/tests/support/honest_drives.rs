//! One honest-network Byzantine case, shared by
//! `crates/runtime/tests/byzantine_props.rs` (random cases) and the
//! workspace-root `tests/byzantine.rs` (fixed seeds, tier-1).
//!
//! The Byzantine layer's *negative* contract: an honest network — whatever
//! the control channel and the update schedule do — never has a switch
//! localized as a liar or its counters quarantined. Two tiers:
//! * **Lossless + churn**: with zero traffic loss every epoch's system is
//!   exactly consistent, so not a single round may score anomalous — zero
//!   suspicion, zero implications, zero alarms.
//! * **Noisy**: with traffic loss the residuals carry real noise, so
//!   isolated anomalous rounds (and transient suspicion) are legitimate —
//!   but leave-one-out must still refuse to pin that diffuse noise on any
//!   single switch: zero localizations, zero quarantines, always.

use foces_controlplane::{provision, uniform_flows, Deployment, RuleGranularity};
use foces_net::generators::ring;
use foces_runtime::{ByzantineConfig, FaultScenario, RuntimeConfig, ScenarioDriver};

const EPOCHS: u64 = 12;

fn testbed() -> Deployment {
    let topo = ring(4);
    let flows = uniform_flows(&topo, 12_000.0);
    provision(topo, &flows, RuleGranularity::PerFlowPair).expect("provision ring(4)")
}

/// Drives an honest ring(4) with the Byzantine layer armed through the
/// given channel faults and churn, and returns the driver for inspection.
fn run(
    loss: f64,
    drop_prob: f64,
    reorder_prob: f64,
    churn_period: Option<u64>,
    seed: u64,
) -> ScenarioDriver {
    let scenario = FaultScenario {
        epochs: EPOCHS,
        loss,
        drop_prob,
        latency_ms: 2.0,
        jitter_ms: 1.0,
        reorder_prob,
        offline: None,
        anomaly_window: None,
        churn_period,
        churn_seed: seed ^ 0x5bd1_e995,
        seed,
        liars: 0,
        ..FaultScenario::default()
    };
    let config = RuntimeConfig {
        byzantine: ByzantineConfig {
            enabled: true,
            ..ByzantineConfig::default()
        },
        ..RuntimeConfig::default()
    };
    let mut driver = ScenarioDriver::new(testbed(), scenario, config);
    driver.run().expect("honest epochs never fail outright");
    driver
}

/// Lossless counters are exactly consistent: churn, message drops and
/// reordering may degrade rounds but can never manufacture suspicion.
pub fn assert_lossless_is_unsuspected(
    drop_prob: f64,
    reorder_prob: f64,
    churn_period: u64,
    seed: u64,
) {
    let driver = run(0.0, drop_prob, reorder_prob, Some(churn_period), seed);
    let case =
        format!("drop {drop_prob}, reorder {reorder_prob}, churn {churn_period}, seed {seed}");
    let m = *driver.service().metrics();
    assert_eq!(m.alarms_raised, 0, "{case}: honest churn raised an alarm");
    assert_eq!(m.liars_localized, 0, "{case}");
    assert_eq!(m.switch_quarantines, 0, "{case}");
    assert_eq!(m.unresolved_byzantine, 0, "{case}");
    assert_eq!(
        driver.service().suspicion().max_score(),
        0.0,
        "{case}: suspicion accumulated on a lossless honest network"
    );
    assert!(
        driver.service().suspicion().implicated().is_empty(),
        "{case}"
    );
    assert!(driver.service().quarantined_switches().is_empty(), "{case}");
}

/// Traffic loss makes residual noise, but diffuse noise is never pinned on
/// a single switch: no localization, no quarantine.
pub fn assert_noisy_is_never_quarantined(
    loss: f64,
    drop_prob: f64,
    reorder_prob: f64,
    churn: bool,
    seed: u64,
) {
    let churn_period = if churn { Some(3) } else { None };
    let driver = run(loss, drop_prob, reorder_prob, churn_period, seed);
    let case = format!(
        "loss {loss}, drop {drop_prob}, reorder {reorder_prob}, churn {churn}, seed {seed}"
    );
    let m = *driver.service().metrics();
    assert_eq!(
        m.liars_localized, 0,
        "{case}: LOO pinned honest loss noise on a switch"
    );
    assert_eq!(m.switch_quarantines, 0, "{case}: honest switch quarantined");
    assert!(driver.service().quarantined_switches().is_empty(), "{case}");
}
