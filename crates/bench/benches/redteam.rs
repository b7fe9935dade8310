//! Byzantine redteam goldens on FatTree(8) with the full all-pairs flow
//! set (per-destination rules, the same configuration as the cluster
//! bench).
//!
//! Hand-rolled harness (`harness = false`, no Criterion). Three goldens,
//! all asserted:
//!
//! * **Localization**: a single naive counter-forging switch is
//!   localized with precision = recall = 1.0, and every leave-one-out
//!   cross-validation solve goes through rank-one Woodbury corrections
//!   of the round's one sparse factor (`foces_sparse::Capacitance`) —
//!   `loo_solves > 0` with `loo_downdates == 0` (a cold refactorization
//!   per candidate) fails the bench.
//! * **No paranoia**: 30 honest rolling-reroute epochs with the
//!   Byzantine layer armed produce zero quarantines and zero
//!   localizations.
//! * **Evasion cost**: the (strategy × magnitude) sweep — what fraction
//!   λ of the full lie each collusion strategy can inject before the
//!   detector catches it — lands in `BENCH_redteam.json` at the
//!   repository root.
//!
//! With `--test` (the CI smoke mode) it runs the scaled-down FatTree(4)
//! per-pair configuration, keeps the assertions, and writes nothing.

use foces_channel::FakeStrategy;
use foces_controlplane::{provision, uniform_flows, Deployment, RuleGranularity};
use foces_net::generators::fattree;
use foces_net::SwitchId;
use foces_runtime::{ByzantineConfig, FaultScenario, RuntimeConfig, ScenarioDriver};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Instant;

const FAKE_AT: u64 = 2;

fn byzantine_config() -> RuntimeConfig {
    RuntimeConfig {
        byzantine: ByzantineConfig {
            enabled: true,
            ..ByzantineConfig::default()
        },
        ..RuntimeConfig::default()
    }
}

/// A perfect channel and no traffic loss: the goldens isolate the
/// Byzantine machinery.
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

struct LiarOutcome {
    true_liars: Vec<SwitchId>,
    localized: Vec<SwitchId>,
    first_alarm: Option<u64>,
    loo_solves: u64,
    loo_downdates: u64,
    switch_quarantines: u64,
    unresolved: bool,
}

impl LiarOutcome {
    fn precision(&self) -> Option<f64> {
        if self.localized.is_empty() {
            return None;
        }
        let tp = self
            .localized
            .iter()
            .filter(|s| self.true_liars.contains(s))
            .count();
        Some(tp as f64 / self.localized.len() as f64)
    }

    fn recall(&self) -> f64 {
        let tp = self
            .localized
            .iter()
            .filter(|s| self.true_liars.contains(s))
            .count();
        tp as f64 / self.true_liars.len().max(1) as f64
    }
}

/// Drives one compromised run to completion, stepping manually so the
/// liar identities (only exposed while the fake window is open) are
/// captured.
fn liar_run(
    dep: Deployment,
    strategy: FakeStrategy,
    liars: usize,
    magnitude: f64,
    epochs: u64,
    confess_at: Option<u64>,
) -> LiarOutcome {
    let scenario = FaultScenario {
        liars,
        fake_strategy: strategy,
        fake_window: Some((FAKE_AT, confess_at.unwrap_or(epochs))),
        fake_magnitude: magnitude,
        liar_seed: 11,
        ..quiet_scenario(epochs)
    };
    let mut driver = ScenarioDriver::new(dep, scenario, byzantine_config());
    let mut true_liars = Vec::new();
    let mut localized = BTreeSet::new();
    let mut first_alarm = None;
    let verbose = std::env::var_os("REDTEAM_VERBOSE").is_some();
    for epoch in 0..epochs {
        let r = driver.step().expect("no round may fail outright");
        if !driver.liar_switches().is_empty() {
            true_liars = driver.liar_switches().to_vec();
        }
        if r.alarm_raised && epoch >= FAKE_AT && first_alarm.is_none() {
            first_alarm = Some(epoch);
        }
        if let Some(s) = r.localized_liar {
            localized.insert(s);
        }
        if verbose {
            eprintln!(
                "    epoch {epoch}: mode={:?} anomalous={} suspicion_max={:.3} \
                 implicated={:?} localized={:?} quarantined={:?} state={:?} unresolved={}",
                r.mode,
                r.anomalous(),
                r.suspicion_max,
                r.implicated,
                r.localized_liar,
                r.quarantined_switches,
                r.state,
                r.byz_unresolved,
            );
        }
    }
    let m = *driver.service().metrics();
    assert!(
        m.loo_solves == 0 || m.loo_downdates > 0,
        "{} leave-one-out solves spent no downdates: quarantine went \
         through cold refactorization",
        m.loo_solves
    );
    LiarOutcome {
        true_liars,
        localized: localized.into_iter().collect(),
        first_alarm,
        loo_solves: m.loo_solves,
        loo_downdates: m.loo_downdates,
        switch_quarantines: m.switch_quarantines,
        unresolved: driver.service().byzantine_unresolved(),
    }
}

/// Golden 1: the single naive liar, localized exactly.
fn golden_localization(dep: Deployment, epochs: u64) -> LiarOutcome {
    let o = liar_run(dep, FakeStrategy::Naive, 1, 1.0, epochs, Some(epochs - 5));
    assert_eq!(o.true_liars.len(), 1, "scenario must compromise one switch");
    assert_eq!(
        o.precision(),
        Some(1.0),
        "localized {:?} but the liar is {:?}",
        o.localized,
        o.true_liars
    );
    assert_eq!(o.recall(), 1.0, "the naive liar escaped localization");
    assert!(o.loo_solves > 0, "localization must run the LOO pass");
    assert!(
        o.loo_downdates > 0,
        "LOO must reuse the factor via downdates"
    );
    o
}

/// Golden 2: honest rolling reroutes, zero quarantines.
fn golden_honest_churn(dep: Deployment, epochs: u64) {
    let scenario = FaultScenario {
        churn_period: Some(3),
        churn_seed: 21,
        ..quiet_scenario(epochs)
    };
    let mut driver = ScenarioDriver::new(dep, scenario, byzantine_config());
    driver.run().expect("honest epochs never fail");
    assert!(
        driver.churn_events() > 0,
        "the schedule must actually churn"
    );
    let m = *driver.service().metrics();
    assert_eq!(m.alarms_raised, 0, "honest churn raised an alarm");
    assert_eq!(m.switch_quarantines, 0, "honest switch quarantined");
    assert_eq!(m.liars_localized, 0, "honest switch localized as a liar");
}

struct Cell {
    strategy: FakeStrategy,
    magnitude: f64,
    detected: bool,
    latency: Option<u64>,
    precision: Option<f64>,
    recall: f64,
}

/// The evasion-cost sweep: one liar per cell, magnitude λ varied per
/// strategy.
fn sweep(dep: &Deployment, epochs: u64, magnitudes: &[f64]) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &strategy in FakeStrategy::ALL.iter() {
        for &magnitude in magnitudes {
            let t = Instant::now();
            let o = liar_run(dep.clone(), strategy, 1, magnitude, epochs, None);
            let detected = o.first_alarm.is_some();
            eprintln!(
                "  {strategy} λ={magnitude}: {} ({:.1}s, loo {} solves / {} downdates{})",
                if detected {
                    format!(
                        "DETECTED in {} epochs",
                        o.first_alarm.unwrap() - FAKE_AT + 1
                    )
                } else {
                    "evaded".to_string()
                },
                t.elapsed().as_secs_f64(),
                o.loo_solves,
                o.loo_downdates,
                if o.unresolved { ", unresolved" } else { "" },
            );
            cells.push(Cell {
                strategy,
                magnitude,
                detected,
                latency: o.first_alarm.map(|e| e - FAKE_AT + 1),
                precision: o.precision(),
                recall: o.recall(),
            });
        }
    }
    cells
}

fn render_json(scenario: &str, epochs: u64, cells: &[Cell]) -> String {
    let opt = |v: Option<f64>| v.map_or("null".to_string(), |x| format!("{x}"));
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\n  \"bench\": \"redteam\",\n  \"scenario\": \"{scenario}\",\n  \
         \"epochs\": {epochs},\n  \"fake_at\": {FAKE_AT},\n  \"cells\": ["
    );
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n    {{\"strategy\": \"{}\", \"magnitude\": {}, \"detected\": {}, \
             \"latency_epochs\": {}, \"precision\": {}, \"recall\": {}}}",
            if i == 0 { "" } else { "," },
            c.strategy,
            c.magnitude,
            c.detected,
            c.latency.map_or("null".to_string(), |l| l.to_string()),
            opt(c.precision),
            c.recall,
        );
    }
    s.push_str("\n  ],\n  \"evasion\": [");
    let mut first = true;
    for &strategy in FakeStrategy::ALL.iter() {
        let of_strategy: Vec<&Cell> = cells.iter().filter(|c| c.strategy == strategy).collect();
        let min_detected = of_strategy
            .iter()
            .filter(|c| c.detected)
            .map(|c| c.magnitude)
            .fold(f64::INFINITY, f64::min);
        let max_undetected = of_strategy
            .iter()
            .filter(|c| !c.detected)
            .map(|c| c.magnitude)
            .fold(f64::NEG_INFINITY, f64::max);
        let _ = write!(
            s,
            "{}\n    {{\"strategy\": \"{strategy}\", \"min_detected_magnitude\": {}, \
             \"max_undetected_magnitude\": {}}}",
            if first { "" } else { "," },
            if min_detected.is_finite() {
                format!("{min_detected}")
            } else {
                "null".to_string()
            },
            if max_undetected.is_finite() {
                format!("{max_undetected}")
            } else {
                "null".to_string()
            },
        );
        first = false;
    }
    s.push_str("\n  ]\n}\n");
    s
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    if test_mode {
        // CI smoke: FatTree(4) per-pair, both goldens, no file.
        let topo = fattree(4);
        let flows = uniform_flows(&topo, 240_000.0);
        let dep = provision(topo, &flows, RuleGranularity::PerFlowPair).expect("provision");
        let o = golden_localization(dep.clone(), 14);
        golden_honest_churn(dep, 12);
        println!(
            "redteam bench smoke: ok (liar {:?} localized, alarm at {:?}, \
             loo {} solves / {} downdates)",
            o.true_liars, o.first_alarm, o.loo_solves, o.loo_downdates
        );
        return;
    }

    // Full run: the paper's largest topology. Liar localization needs
    // per-pair counter attribution (per-destination rows aggregate too
    // many flows for a single switch's removal to stay identifiable —
    // the LOO pass refuses with RankLost rather than certify), and the
    // LOO downdate cost grows with the column basis, so the flow set is
    // a seeded all-pairs sample at pair granularity — the same
    // configuration as the incremental pipeline's stage-cost probe.
    let topo = fattree(8);
    let n = topo.host_count() as f64;
    let mut flows = uniform_flows(&topo, n * (n - 1.0) * 1000.0);
    let mut rng = StdRng::seed_from_u64(7);
    flows.shuffle(&mut rng);
    flows.truncate(1200);
    let t = Instant::now();
    let dep = provision(topo, &flows, RuleGranularity::PerFlowPair).expect("provision");
    eprintln!(
        "fattree8 sampled all-pairs provisioned in {:.1}s ({} flows, per-pair)",
        t.elapsed().as_secs_f64(),
        dep.flows.len()
    );

    let t = Instant::now();
    let o = golden_localization(dep.clone(), 14);
    eprintln!(
        "golden 1 (localization): liar {:?} localized, alarm at epoch {:?}, \
         precision 1.0, recall 1.0, loo {} solves / {} downdates, {} quarantines ({:.1}s)",
        o.true_liars,
        o.first_alarm,
        o.loo_solves,
        o.loo_downdates,
        o.switch_quarantines,
        t.elapsed().as_secs_f64()
    );

    let t = Instant::now();
    golden_honest_churn(dep.clone(), 30);
    eprintln!(
        "golden 2 (honest churn): 30 rolling-reroute epochs, zero quarantines ({:.1}s)",
        t.elapsed().as_secs_f64()
    );

    eprintln!("evasion sweep:");
    let cells = sweep(&dep, 8, &[0.25, 0.5, 1.0]);
    // The naive full-magnitude forgery is the anchor of the curve: it
    // must be both detected and correctly localized at this scale.
    let anchor = cells
        .iter()
        .find(|c| c.strategy == FakeStrategy::Naive && c.magnitude == 1.0)
        .expect("sweep covers the naive full lie");
    assert!(anchor.detected, "the naive full lie evaded on fattree(8)");
    assert_eq!(anchor.precision, Some(1.0));
    assert_eq!(anchor.recall, 1.0);

    let json = render_json("fattree-8 per-pair sampled all-pairs", 12, &cells);
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_redteam.json");
    std::fs::write(out, &json).expect("write BENCH_redteam.json");
    eprintln!("wrote BENCH_redteam.json ({} cells)", cells.len());
}
