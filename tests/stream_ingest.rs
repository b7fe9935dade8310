//! Acceptance tests for the event-driven ingest pipeline on a FatTree(4)
//! fabric — the stream-mode analogue of `churn_robustness.rs`.
//!
//! The two halves of the PR's acceptance criteria:
//! * **Out-of-order ingestion never false-alarms**: with reply
//!   reordering, jitter, and a rolling-reroute schedule, stale
//!   generation-stamped replies must be reconciled against the update
//!   journal — zero alarm raises over the whole run, and the stream's
//!   final per-shard verdicts must agree with ground truth.
//! * **No blindness either**: a switch that silently drops packets must
//!   still raise the alarm, within the hysteresis bound (`raise_k`
//!   anomalous shard rounds at the poll cadence ceiling) — reconciliation
//!   absorbs updates and reordering, not attacks.
//!
//! A third test pins the stream's liar lifecycle: a lying switch is
//! released only once it has confessed.

use foces_channel::{FakeStrategy, FaultProfile};
use foces_controlplane::scenario::Scenario;
use foces_controlplane::{provision, uniform_flows, Deployment, RuleGranularity};
use foces_dataplane::AnomalyKind;
use foces_ingest::{CadenceConfig, StreamAction, StreamConfig, StreamDriver};
use foces_net::generators::fattree;
use foces_runtime::{ByzantineConfig, HysteresisConfig};

fn testbed() -> Deployment {
    let topo = fattree(4);
    let flows = uniform_flows(&topo, 240_000.0);
    provision(topo, &flows, RuleGranularity::PerFlowPair).expect("provision fattree(4)")
}

/// A FatTree(4) stream over a messy channel: jitter and a 10% chance any
/// reply is a stale reordered one. Four regions, so three quiet shards
/// interleave with any suspicious one — the alarm window must span a full
/// sweep of shards, not just two rounds.
fn messy_config() -> StreamConfig {
    StreamConfig {
        duration_ms: 700.0,
        regions: 4,
        cadence: CadenceConfig {
            min_ms: 20.0,
            max_ms: 80.0,
            backoff: 1.5,
            quiet_threshold: 3,
        },
        hysteresis: HysteresisConfig {
            window: 8,
            raise_k: 2,
            clear_after: 4,
            churn_suppress: 2,
            churn_penalty: 1,
        },
        profile: FaultProfile {
            latency_ms: 2.0,
            jitter_ms: 3.0,
            drop_prob: 0.0,
            reorder_prob: 0.10,
            offline: Vec::new(),
        },
        settle_ms: 60.0,
        seed: 5,
        churn_seed: 21,
        anomaly_seed: 11,
        ..StreamConfig::default()
    }
}

#[test]
fn reordered_replies_under_rolling_reroutes_never_false_alarm() {
    let script = vec![
        (120.0, StreamAction::Churn),
        (260.0, StreamAction::Churn),
        (400.0, StreamAction::Churn),
    ];
    let mut driver = StreamDriver::new(testbed(), messy_config(), script);
    let report = driver.run().expect("stream must complete");
    let m = report.metrics;

    // The mess actually happened: replies really were reordered mid-run,
    // and counters really did mix rule generations.
    assert!(m.stale_replies > 0, "reordering never bit: {m:?}");
    assert!(
        m.reconciled_rounds > 0,
        "churn must be reconciled, not ignored: {m:?}"
    );
    assert!(m.fcm_rebuilds >= 3, "each settled churn rebuilds: {m:?}");

    // And none of it raised an alarm.
    assert_eq!(m.alarms_raised, 0, "false alarm under churn: {m:?}");
    assert_eq!(
        report.alarm_state,
        foces::AlarmState::Normal,
        "stream must end quiet"
    );
    assert!(
        report.verdict_parity(),
        "final stream verdicts must match ground truth: {:?}",
        report.stream_verdicts
    );
}

#[test]
fn a_dropper_still_alarms_within_the_hysteresis_bound() {
    let config = messy_config();
    let raise_k = config.hysteresis.raise_k as f64;
    let ceiling = config.cadence.max_ms;
    let script = vec![(200.0, StreamAction::Inject(AnomalyKind::EarlyDrop))];
    let mut driver = StreamDriver::new(testbed(), config, script);
    let report = driver.run().expect("stream must complete");
    let m = report.metrics;

    assert!(m.anomalous_rounds > 0, "dropper never scored: {m:?}");
    assert!(m.alarms_raised >= 1, "dropper must raise the alarm: {m:?}");
    assert_ne!(
        report.alarm_state,
        foces::AlarmState::Normal,
        "unrepaired dropper must leave the stream alarmed"
    );

    // Hysteresis bound: `raise_k` anomalous shard rounds at the cadence
    // ceiling (plus one sweep of slack for the fire that's already in
    // flight when the anomaly lands).
    let latency = m
        .alarm_latency_ms
        .expect("raise must stamp its latency milestone");
    let bound = (raise_k + 1.0) * ceiling;
    assert!(
        latency <= bound,
        "alarm took {latency:.1} ms, bound {bound:.1} ms: {m:?}"
    );
}

/// The value of `"key":` in one flat JSONL line.
fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let len = line[start..].find([',', '}'])?;
    Some(&line[start..start + len])
}

/// The stream liar drill `foces stream scenarios/coverage_fattree4.foces
/// --duration-ms 20000 --liars 1 --fake-at 3000 --confess-at 12000 --seed 3`
/// for the default liar (s4) and `--liar-seed` 1 (s12) and 4 (s11). Each
/// liar is localized once, stays quarantined while it lies, and is
/// released once, after its confession. Boundary flows put some of a
/// liar's rows into a neighbouring region's shard, whose system need not
/// show the lie: a re-probe there used to release s4 and s12 25 times
/// before the confession. Re-probes now run only on the region whose
/// round localized the switch.
#[test]
fn a_stream_liar_is_released_once_and_only_after_it_confesses() {
    let text = std::fs::read_to_string("scenarios/coverage_fattree4.foces").unwrap();
    let scenario = Scenario::parse(&text).unwrap();
    let (fake_at, confess_at) = (3_000.0, 12_000.0);
    for liar_seed in [StreamConfig::default().liar_seed, 1, 4] {
        let config = StreamConfig {
            duration_ms: 20_000.0,
            cadence: CadenceConfig::fixed(50.0),
            seed: 3,
            liar_seed,
            byzantine: ByzantineConfig {
                enabled: true,
                ..ByzantineConfig::default()
            },
            ..StreamConfig::default()
        };
        let compromise = StreamAction::Compromise {
            liars: 1,
            strategy: FakeStrategy::Naive,
            magnitude: 1.0,
        };
        let script = vec![(fake_at, compromise), (confess_at, StreamAction::Confess)];
        let mut driver = StreamDriver::new(scenario.provision().unwrap(), config, script);
        let m = driver.run().expect("stream must complete").metrics;
        let counts = (
            m.liars_localized,
            m.switch_quarantines,
            m.quarantine_releases,
        );
        assert_eq!(counts, (1, 1, 1), "liar seed {liar_seed}: {m:?}");
        // Quarantine changes show as the round lines' `liars` count moving.
        let mut changes = Vec::new();
        let mut held = "0";
        for line in driver.log().lines() {
            let round = json_field(line, "region").and(json_field(line, "t_ms"));
            let (Some(t), Some(liars)) = (round, json_field(line, "liars")) else {
                continue;
            };
            if liars != held {
                changes.push((t.parse::<f64>().unwrap(), liars.to_string()));
                held = liars;
            }
        }
        assert_eq!(changes.len(), 2, "liar seed {liar_seed}: {changes:?}");
        let (localized_at, released_at) = (changes[0].0, changes[1].0);
        assert!(
            localized_at > fake_at && localized_at < confess_at,
            "liar seed {liar_seed}: localized at {localized_at} ms"
        );
        assert!(
            released_at > confess_at,
            "liar seed {liar_seed}: released at {released_at} ms, before the confession"
        );
    }
}
