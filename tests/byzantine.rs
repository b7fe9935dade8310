//! Byzantine-resilience acceptance test: a counter-forging switch on the
//! paper's FatTree(4) fabric must be *localized* — not just detected —
//! and its counters quarantined, without ever implicating an honest
//! switch.
//!
//! The two halves of the PR's acceptance criteria:
//! * **Localization within the hysteresis bound**: a single naive liar
//!   compromised at a known epoch is localized by the leave-one-out
//!   cross-validation no later than `fake_at + raise_after + 1`, the
//!   localized switch is exactly the compromised one, and no honest
//!   switch is ever quarantined at any point of the run. After the liar
//!   confesses, the quarantine is released and the alarm clears.
//! * **No paranoia**: a fully honest run under rolling rule churn with
//!   the Byzantine layer armed ends with zero localizations, zero
//!   quarantines and zero unresolved-Byzantine epochs.
//!
//! Both the lockstep `run` driver and the event-driven `stream` driver go
//! through the one [`foces::LiarLifecycle`]; the stream drill and the
//! two-liar re-probe rotation below exercise it from each side.

use foces::AlarmState;
use foces_channel::{FakeStrategy, ForgingAgent, HonestAgent};
use foces_controlplane::{provision, uniform_flows, Deployment, RuleGranularity};
use foces_dataplane::LossModel;
use foces_ingest::{CadenceConfig, StreamAction, StreamConfig, StreamDriver};
use foces_net::generators::fattree;
use foces_net::SwitchId;
use foces_runtime::{
    ByzantineConfig, EpochReport, FaultProfile, FaultScenario, RuntimeConfig, RuntimeService,
    ScenarioDriver, SimTransport,
};

const EPOCHS: u64 = 14;
const FAKE_AT: u64 = 2;
const CONFESS_AT: u64 = 9;

fn testbed() -> Deployment {
    let topo = fattree(4);
    let flows = uniform_flows(&topo, 240_000.0);
    provision(topo, &flows, RuleGranularity::PerFlowPair).expect("provision fattree(4)")
}

/// A quiet control channel: the test isolates the Byzantine machinery
/// from transport noise (the noisy-channel interplay is covered by the
/// proptest battery in `crates/runtime/tests/byzantine_props.rs`).
fn quiet_scenario(epochs: u64) -> FaultScenario {
    FaultScenario {
        epochs,
        loss: 0.0,
        drop_prob: 0.0,
        latency_ms: 1.0,
        jitter_ms: 0.0,
        reorder_prob: 0.0,
        anomaly_window: None,
        seed: 3,
        ..FaultScenario::default()
    }
}

fn byzantine_config() -> RuntimeConfig {
    RuntimeConfig {
        byzantine: ByzantineConfig {
            enabled: true,
            ..ByzantineConfig::default()
        },
        ..RuntimeConfig::default()
    }
}

#[test]
fn single_liar_is_localized_within_the_hysteresis_bound() {
    let scenario = FaultScenario {
        liars: 1,
        fake_window: Some((FAKE_AT, CONFESS_AT)),
        liar_seed: 11,
        ..quiet_scenario(EPOCHS)
    };
    let config = byzantine_config();
    // Localization can only follow the alarm, and the alarm needs
    // `raise_after` anomalous rounds starting at `fake_at`; the LOO pass
    // gets one more epoch of slack to converge on the culprit.
    let bound = FAKE_AT + u64::from(config.raise_after) + 1;

    let mut driver = ScenarioDriver::new(testbed(), scenario, config);
    // Step manually: `liar_switches()` is only populated while the fake
    // window is open, so the culprit's identity is captured mid-run.
    let mut reports = Vec::new();
    let mut liars = Vec::new();
    for _ in 0..EPOCHS {
        reports.push(driver.step().expect("no round may fail outright"));
        if !driver.liar_switches().is_empty() {
            liars = driver.liar_switches().to_vec();
        }
    }
    assert_eq!(reports.len(), EPOCHS as usize);
    assert_eq!(
        liars.len(),
        1,
        "the scenario compromises exactly one switch"
    );
    let liar = liars[0];

    // The liar is localized, exactly once, within the bound.
    let localized: Vec<(u64, _)> = reports
        .iter()
        .filter_map(|r| r.localized_liar.map(|s| (r.epoch, s)))
        .collect();
    assert_eq!(
        localized.len(),
        1,
        "exactly one localization event, got {localized:?}"
    );
    let (when, who) = localized[0];
    assert_eq!(
        who, liar,
        "localized s{} but the liar is s{}",
        who.0, liar.0
    );
    assert!(
        when >= FAKE_AT,
        "localization at {when} predates the compromise"
    );
    assert!(
        when <= bound,
        "localization at {when} outran the hysteresis bound {bound}"
    );

    // Quarantine discipline: only the liar is ever quarantined, and the
    // quarantine is live for every epoch between localization and release.
    let mut released = None;
    for r in &reports {
        for q in &r.quarantined_switches {
            assert_eq!(
                *q, liar,
                "epoch {}: honest switch s{} quarantined",
                r.epoch, q.0
            );
        }
        if let Some(s) = r.quarantine_released {
            assert_eq!(s, liar);
            released = Some(r.epoch);
        }
        if r.epoch > when && released.is_none() {
            assert_eq!(
                r.quarantined_switches,
                vec![liar],
                "epoch {}: quarantine dropped before the re-probe released it",
                r.epoch
            );
        }
    }
    let released = released.expect("the confessed liar's quarantine must be released");
    assert!(
        released >= CONFESS_AT,
        "release at {released} predates the confession at {CONFESS_AT}"
    );

    // The run resolves: alarm cleared, nobody quarantined, books balanced.
    let m = *driver.service().metrics();
    assert_eq!(m.liars_localized, 1);
    assert_eq!(m.switch_quarantines, 1);
    assert_eq!(m.quarantine_releases, 1);
    assert!(
        m.loo_solves > 0,
        "localization must go through the leave-one-out pass"
    );
    assert!(
        m.loo_downdates > 0,
        "LOO must reuse the cached factor via downdates, not refactorize"
    );
    assert_eq!(driver.service().state(), AlarmState::Normal);
    assert!(driver.service().quarantined_switches().is_empty());
    assert!(!driver.service().byzantine_unresolved());
}

#[test]
fn honest_churning_network_is_never_quarantined() {
    let scenario = FaultScenario {
        epochs: 30,
        churn_period: Some(3),
        churn_seed: 21,
        ..quiet_scenario(30)
    };
    let mut driver = ScenarioDriver::new(testbed(), scenario, byzantine_config());
    let reports = driver.run().expect("no round may fail outright");

    assert!(
        driver.churn_events() > 0,
        "the schedule must actually churn"
    );
    let m = *driver.service().metrics();
    assert_eq!(m.alarms_raised, 0, "honest churn is not an anomaly");
    assert_eq!(m.liars_localized, 0);
    assert_eq!(
        m.switch_quarantines, 0,
        "no honest switch may be quarantined"
    );
    assert_eq!(m.unresolved_byzantine, 0);
    for r in &reports {
        assert!(
            r.localized_liar.is_none() && r.quarantined_switches.is_empty(),
            "epoch {}: spurious Byzantine verdict on an honest network",
            r.epoch
        );
    }
    assert_eq!(
        driver.service().suspicion().max_score(),
        0.0,
        "a clean channel accumulates zero suspicion"
    );
    assert_eq!(driver.service().state(), AlarmState::Normal);
}

/// A naive liar's agent: every counter reported as `2·truth + 1000`, the
/// table reported as installed.
fn naive_liar(dep: &Deployment, liar: SwitchId) -> Box<ForgingAgent> {
    let table = dep
        .view
        .table(liar)
        .iter()
        .map(|(_, r)| r.clone())
        .collect();
    let mut agent = ForgingAgent::new(liar, table);
    for i in 0..dep.dataplane.table(liar).len() {
        agent.forge_counter(i, dep.dataplane.true_counter(liar, i) * 2.0 + 1000.0);
    }
    Box::new(agent)
}

/// Steps `svc` until `liar` is localized (at most `budget` epochs).
fn run_until_localized(
    svc: &mut RuntimeService,
    dep: &Deployment,
    liar: SwitchId,
    budget: usize,
) -> EpochReport {
    for _ in 0..budget {
        let r = svc.run_epoch(&dep.dataplane, &dep.view).expect("epoch");
        if let Some(s) = r.localized_liar {
            assert_eq!(s, liar, "epoch {}: wrong switch localized", r.epoch);
            return r;
        }
    }
    panic!("s{} was not localized within {budget} epochs", liar.0);
}

/// Re-probe starvation: with two switches quarantined, a failed probe of
/// the lower-id one must not block the other's release. Liar A (lower id)
/// is localized first; liar B (higher id) starts forging once A is
/// quarantined and is localized too; then B confesses while A keeps lying.
/// Re-probes rotate through the quarantined set, so B is re-admitted
/// within two probe periods and A never is.
#[test]
fn confessed_liar_is_released_while_a_lower_id_liar_keeps_lying() {
    let mut dep = testbed();
    dep.dataplane.reset_counters();
    dep.replay_traffic(&mut LossModel::none());
    let config = byzantine_config();
    let reprobe_after = u64::from(config.byzantine.reprobe_after);
    let transport = SimTransport::new(
        3,
        FaultProfile {
            latency_ms: 1.0,
            ..FaultProfile::default()
        },
    );
    let mut svc = RuntimeService::with_sim_transport(&dep.view, transport, config);
    let (a, b) = (SwitchId(4), SwitchId(12));

    svc.replace_agent(naive_liar(&dep, a));
    let ra = run_until_localized(&mut svc, &dep, a, 6);
    assert_eq!(ra.quarantined_switches, vec![a]);

    svc.replace_agent(naive_liar(&dep, b));
    let rb = run_until_localized(&mut svc, &dep, b, 8);
    assert_eq!(rb.quarantined_switches, vec![a, b]);
    // B keeps lying for a while, so probes of both fail at least once.
    for _ in 0..2 * reprobe_after {
        let r = svc.run_epoch(&dep.dataplane, &dep.view).expect("epoch");
        assert_eq!(r.quarantine_released, None, "epoch {}", r.epoch);
    }

    svc.replace_agent(Box::new(HonestAgent::new(b)));
    let mut released = None;
    for quiet in 1..=2 * reprobe_after {
        let r = svc.run_epoch(&dep.dataplane, &dep.view).expect("epoch");
        assert!(!r.anomalous(), "epoch {}: both liars are withheld", r.epoch);
        if let Some(s) = r.quarantine_released {
            assert_eq!(s, b, "epoch {}: the lying switch was released", r.epoch);
            released = Some(quiet);
            break;
        }
    }
    assert!(
        released.is_some(),
        "the confessed s{} was not released within {} quiet epochs",
        b.0,
        2 * reprobe_after
    );
    // A keeps lying: every later probe of it fails.
    for _ in 0..3 * reprobe_after {
        let r = svc.run_epoch(&dep.dataplane, &dep.view).expect("epoch");
        assert_eq!(r.quarantined_switches, vec![a], "epoch {}", r.epoch);
    }
    let m = svc.metrics();
    assert_eq!(m.liars_localized, 2);
    assert_eq!(m.quarantine_releases, 1);
    assert!(!svc.byzantine_unresolved());
}

/// The stream driver's liar lifecycle end to end: a naive liar compromised
/// mid-stream is localized on a shard sub-system, quarantined, and released
/// after it confesses — with no honest switch ever quarantined.
#[test]
fn stream_liar_is_localized_quarantined_then_released() {
    let script = vec![
        (
            40.0,
            StreamAction::Compromise {
                liars: 1,
                strategy: FakeStrategy::Naive,
                magnitude: 1.0,
            },
        ),
        (260.0, StreamAction::Confess),
    ];
    let cfg = StreamConfig {
        duration_ms: 500.0,
        regions: 2,
        cadence: CadenceConfig {
            min_ms: 10.0,
            max_ms: 80.0,
            backoff: 1.5,
            quiet_threshold: 3,
        },
        byzantine: ByzantineConfig {
            enabled: true,
            ..ByzantineConfig::default()
        },
        ..StreamConfig::default()
    };
    let mut d = StreamDriver::new(testbed(), cfg, script);
    let r = d.run().expect("no round may fail outright");
    assert_eq!(r.metrics.liars_localized, 1, "{:?}", r.metrics);
    assert_eq!(
        r.metrics.switch_quarantines, 1,
        "no honest switch quarantined"
    );
    assert!(r.metrics.loo_solves > 0);
    assert!(
        r.metrics.loo_downdates > 0,
        "leave-one-out went through downdates"
    );
    assert_eq!(
        r.metrics.quarantine_releases, 1,
        "the confessed switch is re-admitted"
    );
    assert_eq!(
        r.metrics.unresolved_byzantine, 0,
        "a pure fabrication localizes"
    );
    assert!(d.quarantined_switches().is_empty());
    assert!(!d.byzantine_unresolved());
    assert_eq!(r.alarm_state, AlarmState::Normal);
    let localized = d
        .log()
        .lines()
        .iter()
        .any(|l| l.contains("\"localized\":") && !l.contains("\"localized\":null"));
    assert!(localized, "the JSONL must name the localized liar");
}
