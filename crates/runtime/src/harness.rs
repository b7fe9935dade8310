//! Scenario harness: a whole deployment driven epoch by epoch.
//!
//! [`ScenarioDriver`] owns the [`Deployment`] *and* the
//! [`RuntimeService`], reproducing the paper's functional test (§VI,
//! Fig. 7) under channel faults: each epoch it resets counters, replays
//! traffic (with optional packet loss), injects/reverts a forwarding
//! anomaly at the configured epochs, then lets the service poll and
//! detect. The `foces run` CLI subcommand and the cross-crate fault
//! integration test are both thin wrappers around this type.

use crate::adversary::{rolling_update, Adversary};
use crate::service::{EpochReport, RuntimeConfig, RuntimeError, RuntimeService};
use crate::transport::{FaultProfile, SimTransport};
use foces_channel::{FakeStrategy, HonestAgent};
use foces_controlplane::Deployment;
use foces_dataplane::{inject_random_anomaly, AnomalyKind, AppliedAnomaly, LossModel};
use foces_net::SwitchId;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A complete fault-injection scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultScenario {
    /// Detection epochs to run.
    pub epochs: u64,
    /// Per-packet traffic loss probability (counter noise, §V).
    pub loss: f64,
    /// Control-channel message drop probability.
    pub drop_prob: f64,
    /// Base control-channel round-trip latency, ms.
    pub latency_ms: f64,
    /// Uniform latency jitter on top of the base, ms.
    pub jitter_ms: f64,
    /// Probability of a stale (reordered) reply.
    pub reorder_prob: f64,
    /// A switch taken offline for part of the run, with its `[start, end)`
    /// epoch window.
    pub offline: Option<(SwitchId, u64, u64)>,
    /// Epoch window `[start, end)` during which a forwarding anomaly is
    /// active: injected entering `start`, repaired entering `end`.
    pub anomaly_window: Option<(u64, u64)>,
    /// The kind of anomaly to inject.
    pub anomaly_kind: AnomalyKind,
    /// Rolling-update churn: every `period` epochs (starting at `period`)
    /// the controller reroutes a random flow **mid-epoch** — half the
    /// traffic is replayed under the old rules, half under the new — so
    /// the collected counters genuinely mix generations.
    pub churn_period: Option<u64>,
    /// Seed for choosing which flow to reroute and through where.
    pub churn_seed: u64,
    /// Seed for the transport faults and per-epoch loss sampling.
    pub seed: u64,
    /// Seed for choosing the compromised rule.
    pub anomaly_seed: u64,
    /// Number of Byzantine (counter-forging) switches, drawn from those that
    /// own a rule, never the offline victim. 0 = everyone honest.
    pub liars: usize,
    /// How the liars coordinate their forged reports.
    pub fake_strategy: FakeStrategy,
    /// Epoch window `[start, end)` during which the liars forge: forging
    /// agents are installed entering `start` and the liars *confess*
    /// (honest agents restored, cover anomalies repaired) entering `end`.
    pub fake_window: Option<(u64, u64)>,
    /// Forgery interpolation λ ∈ [0, 1]: 0 reports the truth, 1 the
    /// strategy's full lie. The redteam sweep varies exactly this knob.
    pub fake_magnitude: f64,
    /// Seed for choosing which switches lie.
    pub liar_seed: u64,
}

impl Default for FaultScenario {
    /// 30 epochs, 3% traffic loss, 10% message drop, 5 ms ± 3 ms latency,
    /// no reordering, nobody offline, no anomaly.
    fn default() -> Self {
        FaultScenario {
            epochs: 30,
            loss: 0.03,
            drop_prob: 0.10,
            latency_ms: 5.0,
            jitter_ms: 3.0,
            reorder_prob: 0.0,
            offline: None,
            anomaly_window: None,
            anomaly_kind: AnomalyKind::PathDeviation,
            churn_period: None,
            churn_seed: 7,
            seed: 0,
            anomaly_seed: 4,
            liars: 0,
            fake_strategy: FakeStrategy::Naive,
            fake_window: None,
            fake_magnitude: 1.0,
            liar_seed: 11,
        }
    }
}

impl FaultScenario {
    /// The transport profile every switch gets by default.
    fn base_profile(&self) -> FaultProfile {
        FaultProfile {
            latency_ms: self.latency_ms,
            jitter_ms: self.jitter_ms,
            drop_prob: self.drop_prob,
            reorder_prob: self.reorder_prob,
            offline: Vec::new(),
        }
    }

    /// Builds the seeded transport, including the offline window.
    pub fn transport(&self) -> SimTransport {
        let mut t = SimTransport::new(self.seed, self.base_profile());
        if let Some((victim, start, end)) = self.offline {
            let mut p = self.base_profile();
            p.offline = vec![(start, end)];
            t.set_profile(victim, p);
        }
        t
    }
}

/// Drives one deployment through a [`FaultScenario`].
pub struct ScenarioDriver {
    dep: Deployment,
    service: RuntimeService,
    scenario: FaultScenario,
    inject_rng: StdRng,
    churn_rng: StdRng,
    applied: Option<AppliedAnomaly>,
    /// Reroutes/refinements applied so far (for tests and summaries).
    churn_events: u64,
    adversary: Adversary,
}

impl ScenarioDriver {
    /// Builds the driver: honest agents over a [`SimTransport`] configured
    /// from `scenario`, service configured from `config`.
    pub fn new(dep: Deployment, scenario: FaultScenario, config: RuntimeConfig) -> Self {
        let service = RuntimeService::with_sim_transport(&dep.view, scenario.transport(), config);
        let inject_rng = StdRng::seed_from_u64(scenario.anomaly_seed);
        let churn_rng = StdRng::seed_from_u64(scenario.churn_seed);
        let adversary = Adversary::new(scenario.liar_seed);
        ScenarioDriver {
            dep,
            service,
            scenario,
            inject_rng,
            churn_rng,
            applied: None,
            churn_events: 0,
            adversary,
        }
    }

    /// The service (metrics, event log, alarm state).
    pub fn service(&self) -> &RuntimeService {
        &self.service
    }

    /// Mutable service access (e.g. to install a file-backed event log
    /// before the first epoch).
    pub fn service_mut(&mut self) -> &mut RuntimeService {
        &mut self.service
    }

    /// The scenario being driven.
    pub fn scenario(&self) -> &FaultScenario {
        &self.scenario
    }

    /// The currently active injected anomaly, if any.
    pub fn active_anomaly(&self) -> Option<&AppliedAnomaly> {
        self.applied.as_ref()
    }

    /// The deployment being driven (view, journal, data plane).
    pub fn deployment(&self) -> &Deployment {
        &self.dep
    }

    /// Controller updates (reroutes/refinements) applied so far.
    pub fn churn_events(&self) -> u64 {
        self.churn_events
    }

    /// Is `epoch` a scheduled churn epoch?
    pub fn churn_due_at(&self, epoch: u64) -> bool {
        self.scenario
            .churn_period
            .is_some_and(|p| p > 0 && epoch > 0 && epoch.is_multiple_of(p))
    }

    /// Is `epoch` inside the fake (counter-forging) window?
    pub fn fake_active_at(&self, epoch: u64) -> bool {
        self.scenario.liars > 0
            && self
                .scenario
                .fake_window
                .map(|(s, e)| s <= epoch && epoch < e)
                .unwrap_or(false)
    }

    /// The switches compromised when the fake window opened (empty
    /// before it; still named after they confess).
    pub fn liar_switches(&self) -> &[SwitchId] {
        self.adversary.liars()
    }

    /// Runs one epoch: inject/repair at the window edges, reset counters,
    /// replay traffic with fresh loss sampling, poll and detect.
    ///
    /// # Errors
    ///
    /// Propagates [`RuntimeError`] from the service.
    pub fn step(&mut self) -> Result<EpochReport, RuntimeError> {
        let epoch = self.service.epochs();
        // Never compromise the offline victim: an anomaly or a liar on an
        // unobserved switch tests masking, not detection.
        let exclude: Vec<SwitchId> = self.scenario.offline.iter().map(|&(s, _, _)| s).collect();
        if let Some((start, end)) = self.scenario.anomaly_window {
            if epoch == start && self.applied.is_none() {
                self.applied = inject_random_anomaly(
                    &mut self.dep.dataplane,
                    self.scenario.anomaly_kind,
                    &mut self.inject_rng,
                    &exclude,
                );
            }
            if epoch == end {
                if let Some(a) = self.applied.take() {
                    a.revert(&mut self.dep.dataplane)
                        .expect("injected rule cannot vanish");
                }
            }
        }
        if let Some((start, end)) = self.scenario.fake_window {
            if epoch == start && self.scenario.liars > 0 && !self.adversary.is_lying() {
                self.adversary.compromise(
                    &mut self.dep,
                    self.scenario.liars,
                    self.scenario.fake_strategy,
                    self.scenario.fake_magnitude,
                    &exclude,
                );
            }
            if epoch == end && self.adversary.is_lying() {
                for s in self.adversary.confess(&mut self.dep) {
                    self.service.replace_agent(Box::new(HonestAgent::new(s)));
                }
            }
        }
        self.dep.dataplane.reset_counters();
        let mut loss = if self.scenario.loss > 0.0 {
            LossModel::sampled(
                self.scenario.loss,
                self.scenario
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(epoch),
            )
        } else {
            LossModel::none()
        };
        if self.churn_due_at(epoch) {
            rolling_update(&mut self.dep, &mut self.churn_rng, &mut loss);
            self.churn_events += 1;
        } else {
            self.dep.replay_traffic(&mut loss);
        }
        if self.fake_active_at(epoch) && self.adversary.is_lying() {
            // The registers for this epoch are final: (re)plan the forgery
            // against them and install it before the service polls.
            for agent in self.adversary.forge(&self.dep) {
                self.service.replace_agent(Box::new(agent));
            }
        }
        self.service.run_epoch(&self.dep.dataplane, &self.dep.view)
    }

    /// Runs the whole scenario, returning every epoch's report.
    ///
    /// # Errors
    ///
    /// Stops at (and returns) the first [`RuntimeError`].
    pub fn run(&mut self) -> Result<Vec<EpochReport>, RuntimeError> {
        let mut reports = Vec::with_capacity(self.scenario.epochs as usize);
        for _ in 0..self.scenario.epochs {
            reports.push(self.step()?);
        }
        Ok(reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degraded::DetectionMode;
    use foces_controlplane::{provision, uniform_flows, RuleGranularity};
    use foces_net::generators::{fattree, ring};

    fn deployment() -> Deployment {
        let topo = ring(4);
        let flows = uniform_flows(&topo, 12_000.0);
        provision(topo, &flows, RuleGranularity::PerFlowPair).unwrap()
    }

    /// Liar localization needs the forgery to be *sparse* relative to the
    /// whole system — on ring(4) one switch owns ~half the FCM rows and
    /// least squares simply absorbs an all-rules fake. FatTree(4) gives
    /// each switch a small row share, which is the regime the paper (and
    /// the LOO localizer) targets.
    fn fattree_deployment() -> Deployment {
        let topo = fattree(4);
        let flows = uniform_flows(&topo, 240_000.0);
        provision(topo, &flows, RuleGranularity::PerFlowPair).unwrap()
    }

    fn quiet() -> FaultScenario {
        FaultScenario {
            epochs: 4,
            loss: 0.0,
            drop_prob: 0.0,
            latency_ms: 1.0,
            jitter_ms: 0.0,
            ..FaultScenario::default()
        }
    }

    #[test]
    fn quiet_scenario_is_all_full_normal_rounds() {
        let mut driver = ScenarioDriver::new(deployment(), quiet(), RuntimeConfig::default());
        let reports = driver.run().unwrap();
        assert_eq!(reports.len(), 4);
        for r in &reports {
            assert_eq!(r.mode, DetectionMode::Full);
            assert!(!r.anomalous());
        }
        assert_eq!(driver.service().metrics().epochs, 4);
    }

    #[test]
    fn offline_window_produces_exactly_its_degraded_rounds() {
        let mut scenario = quiet();
        scenario.epochs = 5;
        scenario.offline = Some((foces_net::SwitchId(1), 1, 3));
        let mut driver = ScenarioDriver::new(deployment(), scenario, RuntimeConfig::default());
        let reports = driver.run().unwrap();
        let degraded: Vec<u64> = reports
            .iter()
            .filter(|r| r.mode.is_degraded())
            .map(|r| r.epoch)
            .collect();
        assert_eq!(degraded, vec![1, 2]);
        assert_eq!(driver.service().metrics().degraded_rounds, 2);
    }

    #[test]
    fn rolling_churn_reconciles_without_raising_alarms() {
        let mut scenario = quiet();
        scenario.epochs = 8;
        scenario.churn_period = Some(2);
        let mut driver = ScenarioDriver::new(deployment(), scenario, RuntimeConfig::default());
        let reports = driver.run().unwrap();
        assert!(driver.churn_events() > 0);
        let m = *driver.service().metrics();
        assert!(m.reconciled_rounds > 0, "churn epochs must reconcile");
        assert!(m.fcm_rebuilds > 0, "the view moved, the FCM must follow");
        assert_eq!(m.alarms_raised, 0, "no anomaly, no alarm");
        for r in &reports {
            assert!(!r.anomalous(), "epoch {}: churn is not an anomaly", r.epoch);
            assert_eq!(r.churn, driver.churn_due_at(r.epoch));
        }
    }

    #[test]
    fn same_seed_same_event_log() {
        let make = || {
            let mut scenario = FaultScenario {
                epochs: 6,
                ..FaultScenario::default()
            };
            scenario.seed = 99;
            let mut d = ScenarioDriver::new(deployment(), scenario, RuntimeConfig::default());
            d.run().unwrap();
            d.service()
                .log()
                .lines()
                .iter()
                .map(|l| crate::metrics::scrub_gauges(l))
                .collect::<Vec<_>>()
        };
        assert_eq!(make(), make(), "seeded runs must be bit-identical");
    }

    #[test]
    fn naive_liar_is_localized_quarantined_then_released() {
        let mut scenario = quiet();
        scenario.epochs = 14;
        scenario.liars = 1;
        scenario.fake_window = Some((2, 9));
        let mut config = RuntimeConfig::default();
        config.byzantine.enabled = true;
        let epochs = scenario.epochs;
        let mut driver = ScenarioDriver::new(fattree_deployment(), scenario, config);
        let mut liar = None;
        let mut localized_at = None;
        for epoch in 0..epochs {
            let r = driver.step().unwrap();
            if driver.fake_active_at(epoch) {
                liar = driver.liar_switches().first().copied();
            }
            if let Some(s) = r.localized_liar {
                localized_at.get_or_insert((epoch, s));
            }
        }
        let (at, s) = localized_at.expect("the liar must be localized");
        assert_eq!(Some(s), liar, "localization names the actual liar");
        assert!(
            at <= 2 + 4,
            "localized within the hysteresis bound, got epoch {at}"
        );
        let m = *driver.service().metrics();
        assert_eq!(m.liars_localized, 1);
        assert_eq!(m.switch_quarantines, 1, "no honest switch quarantined");
        assert!(m.loo_solves > 0);
        assert!(m.loo_downdates > 0, "leave-one-out went through downdates");
        assert_eq!(
            m.quarantine_releases, 1,
            "the confessed switch is re-admitted after a quiet streak"
        );
        assert!(driver.service().quarantined_switches().is_empty());
        assert!(!driver.service().byzantine_unresolved());
        assert_eq!(m.alarms_raised, m.alarms_cleared, "run ends clean");
    }

    #[test]
    fn honest_churn_accumulates_no_suspicion_with_byzantine_enabled() {
        let mut scenario = quiet();
        scenario.epochs = 8;
        scenario.churn_period = Some(2);
        let mut config = RuntimeConfig::default();
        config.byzantine.enabled = true;
        let mut driver = ScenarioDriver::new(deployment(), scenario, config);
        let reports = driver.run().unwrap();
        for r in &reports {
            assert!(!r.anomalous(), "epoch {}: honest churn is quiet", r.epoch);
            assert!(r.quarantined_switches.is_empty());
            assert!(r.localized_liar.is_none());
            assert!(!r.byz_unresolved);
        }
        let m = *driver.service().metrics();
        assert_eq!(m.switch_quarantines, 0);
        assert_eq!(m.liars_localized, 0);
        assert_eq!(m.unresolved_byzantine, 0);
        assert_eq!(
            driver.service().suspicion().max_score(),
            0.0,
            "honest rounds never add suspicion"
        );
    }

    #[test]
    fn anomaly_window_injects_and_repairs() {
        let mut scenario = quiet();
        scenario.epochs = 6;
        scenario.anomaly_window = Some((2, 4));
        let mut driver = ScenarioDriver::new(deployment(), scenario, RuntimeConfig::default());
        for epoch in 0..6u64 {
            driver.step().unwrap();
            let should_be_active = (2..4).contains(&epoch);
            assert_eq!(
                driver.active_anomaly().is_some(),
                should_be_active,
                "epoch {epoch}"
            );
        }
    }
}
