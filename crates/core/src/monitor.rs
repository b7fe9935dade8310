//! Continuous monitoring — the operational loop around the one-shot
//! [`Detector`], and the one alarm machine every loop runs.
//!
//! The paper's functional test (Fig. 7) runs FOCES "every 5 seconds" and
//! reads the verdict stream by eye. [`AlarmMachine`] turns that stream
//! into an alarm with **hysteresis**: it raises when `raise_k` of the last
//! `window` scored rounds were anomalous and clears after `clear_after`
//! consecutive normal ones, so a single noise spike (the ratio statistic
//! has a genuine false-positive floor) does not page an operator, while a
//! real compromise, which perturbs *every* round, alarms within a couple of
//! intervals. A churn round (one that witnessed a rule update) arms a
//! suppression timer that temporarily *raises the bar*
//! (`raise_k + churn_penalty`) instead of discarding evidence: right after
//! an update, residual inconsistency can masquerade as anomaly for a
//! round. Blind rounds are simply not fed to the machine — silence is
//! neither health nor attack. The `run`, `cluster` and `stream` drivers
//! each run one machine.
//!
//! A [`Monitor`] packages the loop for a counter stream: it consumes one
//! snapshot per collection interval, feeds its verdict to an
//! [`AlarmMachine`] at the default [`HysteresisConfig`], keeps the last 64
//! verdicts, and accumulates per-switch suspicion from the sliced detector
//! while the machine is not [`AlarmState::Normal`], giving a more stable
//! localization than any single round.

use crate::{localize, Detector, Fcm, FocesError, SlicedFcm, SwitchSuspicion, Verdict};
use foces_net::SwitchId;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::fmt;

/// Verdicts a [`Monitor`] retains (for operator dashboards).
const HISTORY: usize = 64;

/// Alarm state of an [`AlarmMachine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AlarmState {
    /// No anomaly suspected.
    #[default]
    Normal,
    /// The window holds anomalous rounds, but fewer than the raise quorum.
    Suspected,
    /// The alarm is raised.
    Alarmed,
}

impl fmt::Display for AlarmState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlarmState::Normal => write!(f, "normal"),
            AlarmState::Suspected => write!(f, "suspected"),
            AlarmState::Alarmed => write!(f, "ALARMED"),
        }
    }
}

/// Tunables for [`AlarmMachine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HysteresisConfig {
    /// Sliding window of scored rounds considered for raising; at least
    /// `raise_k` (see [`HysteresisConfig::check`]).
    pub window: u32,
    /// Anomalous rounds within the window required to raise.
    pub raise_k: u32,
    /// Consecutive normal rounds required to clear a raised alarm.
    pub clear_after: u32,
    /// Scored rounds a churn round suppresses (0 disables suppression).
    pub churn_suppress: u32,
    /// Extra anomalous rounds required to raise while suppressed; the
    /// effective quorum is capped at the window size so a sustained
    /// attack can always raise eventually.
    pub churn_penalty: u32,
}

impl Default for HysteresisConfig {
    /// `2`-of-`2` raise, clear after `2`, suppress `2` rounds after churn
    /// with penalty `1`.
    fn default() -> Self {
        HysteresisConfig {
            window: 2,
            raise_k: 2,
            clear_after: 2,
            churn_suppress: 2,
            churn_penalty: 1,
        }
    }
}

impl HysteresisConfig {
    /// Rejects a window smaller than the raise quorum: it could never hold
    /// `raise_k` anomalous rounds, so the alarm could never raise.
    ///
    /// # Errors
    ///
    /// A message naming the quorum.
    pub fn check(&self) -> Result<(), String> {
        if self.window < self.raise_k {
            return Err(format!(
                "below the raise quorum of {} anomalous rounds, so the alarm could never raise",
                self.raise_k
            ));
        }
        Ok(())
    }

    /// Worst-case number of rounds between a persistent anomaly first
    /// manifesting during a churn round and the alarm raise: the
    /// churn-suppression window plus its penalty delay the quorum, then
    /// `raise_k` anomalous rounds must accumulate, plus one round of slack
    /// because the churn round itself may score clean (the anomaly's rows
    /// can be masked by the update's journal).
    ///
    /// This is the completeness bound the interleaving oracles hold every
    /// schedule to: a dropper activating at epoch `u` must raise by
    /// `u + churn_raise_bound()`.
    pub fn churn_raise_bound(&self) -> u64 {
        u64::from(self.raise_k) + u64::from(self.churn_suppress + self.churn_penalty) + 1
    }
}

/// What one scored round did to the alarm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AlarmTransition {
    /// This round raised the alarm.
    pub raised: bool,
    /// This round cleared the alarm.
    pub cleared: bool,
    /// The window held a raising quorum but the churn-suppression penalty
    /// held the alarm back this round.
    pub suppressed: bool,
}

/// The k-of-n alarm state machine. Feed it every *scored* round via
/// [`AlarmMachine::observe`]; skip blind rounds entirely, which freezes
/// the machine.
#[derive(Debug, Clone)]
pub struct AlarmMachine {
    config: HysteresisConfig,
    state: AlarmState,
    /// Most recent scored rounds, newest last, bounded by `window`.
    recent: VecDeque<bool>,
    consecutive_normal: u32,
    /// Scored rounds of churn suppression still pending.
    suppress_left: u32,
}

impl AlarmMachine {
    /// A machine in [`AlarmState::Normal`] with an empty window.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`HysteresisConfig::check`].
    pub fn new(config: HysteresisConfig) -> Self {
        if let Err(e) = config.check() {
            panic!("alarm window {}: {e}", config.window);
        }
        AlarmMachine {
            config,
            state: AlarmState::Normal,
            recent: VecDeque::with_capacity(config.window as usize),
            consecutive_normal: 0,
            suppress_left: 0,
        }
    }

    /// Current alarm state.
    pub fn state(&self) -> AlarmState {
        self.state
    }

    /// Scores one round. `anomalous` is the round's verdict; `churn` says
    /// the round witnessed a rule update (reconciled detection), which
    /// arms the suppression timer *before* the round is judged.
    pub fn observe(&mut self, anomalous: bool, churn: bool) -> AlarmTransition {
        if churn && self.config.churn_suppress > 0 {
            self.suppress_left = self.config.churn_suppress;
        }
        let suppressed_now = self.suppress_left > 0;
        self.suppress_left = self.suppress_left.saturating_sub(1);

        self.recent.push_back(anomalous);
        while self.recent.len() > self.config.window as usize {
            self.recent.pop_front();
        }
        if anomalous {
            self.consecutive_normal = 0;
        } else {
            self.consecutive_normal += 1;
        }

        let hits = self.recent.iter().filter(|&&a| a).count() as u32;
        let effective_k = if suppressed_now {
            (self.config.raise_k + self.config.churn_penalty).min(self.config.window)
        } else {
            self.config.raise_k
        };

        let previous = self.state;
        let mut suppressed = false;
        self.state = match previous {
            AlarmState::Normal | AlarmState::Suspected => {
                if hits >= effective_k {
                    AlarmState::Alarmed
                } else {
                    suppressed = suppressed_now && hits >= self.config.raise_k;
                    if hits > 0 {
                        AlarmState::Suspected
                    } else {
                        AlarmState::Normal
                    }
                }
            }
            AlarmState::Alarmed => {
                if self.consecutive_normal >= self.config.clear_after {
                    // Clearing also forgets the window: post-incident
                    // rounds start from a clean slate instead of
                    // re-raising off stale hits.
                    self.recent.clear();
                    AlarmState::Normal
                } else {
                    AlarmState::Alarmed
                }
            }
        };
        AlarmTransition {
            raised: previous != AlarmState::Alarmed && self.state == AlarmState::Alarmed,
            cleared: previous == AlarmState::Alarmed && self.state == AlarmState::Normal,
            suppressed,
        }
    }
}

/// What the monitor reports after ingesting one counter snapshot.
#[derive(Debug, Clone)]
pub struct MonitorReport {
    /// Round number (0-based count of snapshots ingested).
    pub round: u64,
    /// The raw per-round verdict.
    pub verdict: Verdict,
    /// Alarm state after applying hysteresis.
    pub state: AlarmState,
    /// `true` exactly on the round the alarm transitions into
    /// [`AlarmState::Alarmed`].
    pub alarm_raised: bool,
    /// `true` exactly on the round the alarm clears back to normal.
    pub alarm_cleared: bool,
    /// Accumulated per-switch suspicion (empty while the state is
    /// normal), most suspicious first.
    pub suspects: Vec<SwitchSuspicion>,
}

/// The continuous monitor: detector + FCM + per-switch slices + an
/// [`AlarmMachine`].
///
/// # Example
///
/// ```
/// use foces::{Fcm, Monitor};
/// use foces_controlplane::{provision, uniform_flows, RuleGranularity};
/// use foces_dataplane::LossModel;
/// use foces_net::generators::bcube;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let topo = bcube(1, 4);
/// let flows = uniform_flows(&topo, 240_000.0);
/// let mut dep = provision(topo, &flows, RuleGranularity::PerFlowPair)?;
/// let fcm = Fcm::from_view(&dep.view);
/// let mut monitor = Monitor::new(fcm);
/// for _ in 0..3 {
///     dep.dataplane.reset_counters();
///     dep.replay_traffic(&mut LossModel::none());
///     let report = monitor.ingest(&dep.dataplane.collect_counters())?;
///     assert_eq!(report.state, foces::AlarmState::Normal);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Monitor {
    detector: Detector,
    fcm: Fcm,
    sliced: SlicedFcm,
    alarm: AlarmMachine,
    round: u64,
    history: VecDeque<Verdict>,
    /// Per-switch suspicion accumulated since the machine last read normal.
    suspicion: HashMap<SwitchId, f64>,
}

impl Monitor {
    /// Creates a monitor with the default [`Detector`].
    pub fn new(fcm: Fcm) -> Self {
        Monitor {
            detector: Detector::default(),
            sliced: SlicedFcm::from_fcm(&fcm),
            fcm,
            alarm: AlarmMachine::new(HysteresisConfig::default()),
            round: 0,
            history: VecDeque::new(),
            suspicion: HashMap::new(),
        }
    }

    /// Current alarm state.
    pub fn state(&self) -> AlarmState {
        self.alarm.state()
    }

    /// Rounds ingested so far.
    pub fn rounds(&self) -> u64 {
        self.round
    }

    /// The retained verdict history, oldest first.
    pub fn history(&self) -> impl Iterator<Item = &Verdict> {
        self.history.iter()
    }

    /// Ingests one counter snapshot and advances the alarm machine.
    ///
    /// # Errors
    ///
    /// Propagates [`FocesError`] from the underlying solves (length
    /// mismatch, solver failure).
    pub fn ingest(&mut self, counters: &[f64]) -> Result<MonitorReport, FocesError> {
        let verdict = self.detector.detect(&self.fcm, counters)?;
        let round = self.round;
        self.round += 1;

        if verdict.anomalous {
            let sv = self.sliced.detect(&self.detector, counters)?;
            for s in localize(&sv) {
                let score = if s.anomaly_index.is_finite() {
                    s.anomaly_index
                } else {
                    1e6
                };
                *self.suspicion.entry(s.switch).or_insert(0.0) += score;
            }
        }
        let transition = self.alarm.observe(verdict.anomalous, false);
        if self.alarm.state() == AlarmState::Normal {
            self.suspicion.clear();
        }

        let mut suspects: Vec<SwitchSuspicion> = self
            .suspicion
            .iter()
            .map(|(&switch, &anomaly_index)| SwitchSuspicion {
                switch,
                anomaly_index,
                flagged: true,
            })
            .collect();
        // Ties go to the lower switch id, so the order does not follow the
        // map's per-process hash order.
        suspects.sort_by(|a, b| {
            let by_score = b.anomaly_index.partial_cmp(&a.anomaly_index);
            let by_score = by_score.expect("suspicion sums are never NaN");
            by_score.then(a.switch.cmp(&b.switch))
        });
        suspects.truncate(5);

        self.history.push_back(verdict.clone());
        while self.history.len() > HISTORY {
            self.history.pop_front();
        }

        Ok(MonitorReport {
            round,
            verdict,
            state: self.alarm.state(),
            alarm_raised: transition.raised,
            alarm_cleared: transition.cleared,
            suspects,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foces_controlplane::{provision, uniform_flows, RuleGranularity};
    use foces_dataplane::{inject_random_anomaly, AnomalyKind, LossModel};
    use foces_net::generators::bcube;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn drive(m: &mut AlarmMachine, rounds: &[(bool, bool)]) -> Vec<AlarmTransition> {
        rounds.iter().map(|&(a, c)| m.observe(a, c)).collect()
    }

    #[test]
    fn defaults_raise_on_two_straight_hits_and_clear_on_two_normals() {
        let mut m = AlarmMachine::new(HysteresisConfig::default());
        // anomalous, normal, anomalous: never two in the 2-window.
        assert!(!m.observe(true, false).raised);
        assert_eq!(m.state(), AlarmState::Suspected);
        assert!(!m.observe(false, false).raised);
        assert!(!m.observe(true, false).raised);
        // A second consecutive anomalous round raises.
        let t = m.observe(true, false);
        assert!(t.raised);
        assert_eq!(m.state(), AlarmState::Alarmed);
        // Two consecutive normals clear.
        assert!(!m.observe(false, false).cleared);
        let t = m.observe(false, false);
        assert!(t.cleared);
        assert_eq!(m.state(), AlarmState::Normal);
    }

    #[test]
    fn k_of_n_raises_through_an_interleaved_normal() {
        // 2-of-3: anomalous, normal, anomalous holds a quorum.
        let cfg = HysteresisConfig {
            window: 3,
            raise_k: 2,
            churn_suppress: 0,
            ..HysteresisConfig::default()
        };
        let mut m = AlarmMachine::new(cfg);
        let t = drive(&mut m, &[(true, false), (false, false), (true, false)]);
        assert!(!t[0].raised && !t[1].raised);
        assert!(t[2].raised, "2-of-3 must tolerate one normal in between");
    }

    #[test]
    fn churn_suppression_delays_but_does_not_erase_evidence() {
        // window 3, raise 2, penalty 1: during suppression the quorum is 3.
        let cfg = HysteresisConfig {
            window: 3,
            raise_k: 2,
            clear_after: 2,
            churn_suppress: 2,
            churn_penalty: 1,
        };
        let mut m = AlarmMachine::new(cfg);
        // Churn round scores anomalous (reconciliation residue), next
        // round too: 2 hits would normally raise, suppression holds it.
        let t0 = m.observe(true, true);
        assert!(!t0.raised);
        let t1 = m.observe(true, false);
        assert!(!t1.raised, "suppression window still open");
        assert!(t1.suppressed, "quorum met but penalty held it");
        // Third anomalous round: either the timer expired or the window
        // is saturated — the alarm must land.
        let t2 = m.observe(true, false);
        assert!(t2.raised, "sustained anomaly raises despite churn");
    }

    #[test]
    fn suppression_timer_rearms_on_every_churn_round() {
        // While suppressed the quorum is 3 of the 3-round window.
        let cfg = HysteresisConfig {
            window: 3,
            raise_k: 2,
            clear_after: 1,
            churn_suppress: 2,
            churn_penalty: 1,
        };
        let mut m = AlarmMachine::new(cfg);
        // A churn round arms the timer for itself and one more round; it
        // has run out when the hits arrive, so two of them raise.
        let t = drive(&mut m, &[(false, true), (false, false), (true, false)]);
        assert!(t.iter().all(|t| !t.raised && !t.suppressed));
        assert!(
            m.observe(true, false).raised,
            "timer runs out without churn"
        );
        assert!(m.observe(false, false).cleared);
        // A new churn round re-arms it: two hits are held back, a third
        // (the penalty, capped at the window) raises.
        let t = drive(&mut m, &[(true, true), (true, false), (true, false)]);
        assert!(!t[1].raised && t[1].suppressed, "new churn round re-arms");
        assert!(t[2].raised);
    }

    #[test]
    fn clearing_forgets_the_window() {
        let cfg = HysteresisConfig {
            window: 4,
            raise_k: 2,
            clear_after: 2,
            churn_suppress: 0,
            churn_penalty: 0,
        };
        let mut m = AlarmMachine::new(cfg);
        drive(&mut m, &[(true, false), (true, false)]);
        assert_eq!(m.state(), AlarmState::Alarmed);
        drive(&mut m, &[(false, false), (false, false)]);
        assert_eq!(m.state(), AlarmState::Normal);
        // The two old hits are gone: one fresh anomalous round only
        // suspects, it does not re-raise off stale window contents.
        let t = m.observe(true, false);
        assert!(!t.raised);
        assert_eq!(m.state(), AlarmState::Suspected);
    }

    #[test]
    #[should_panic(expected = "below the raise quorum of 3")]
    fn a_window_smaller_than_the_quorum_is_refused() {
        // A 1-round window could never hold 3 hits.
        AlarmMachine::new(HysteresisConfig {
            window: 1,
            raise_k: 3,
            ..HysteresisConfig::default()
        });
    }

    fn setup() -> (foces_controlplane::Deployment, Fcm) {
        let topo = bcube(1, 4);
        let flows = uniform_flows(&topo, 240_000.0);
        let dep = provision(topo, &flows, RuleGranularity::PerFlowPair).unwrap();
        let fcm = Fcm::from_view(&dep.view);
        (dep, fcm)
    }

    fn healthy_round(dep: &mut foces_controlplane::Deployment, seed: u64) -> Vec<f64> {
        dep.dataplane.reset_counters();
        let mut loss = LossModel::sampled(0.03, seed);
        dep.replay_traffic(&mut loss);
        dep.dataplane.collect_counters()
    }

    #[test]
    fn stays_normal_on_healthy_rounds() {
        let (mut dep, fcm) = setup();
        let mut m = Monitor::new(fcm);
        for seed in 0..10 {
            let r = m.ingest(&healthy_round(&mut dep, seed)).unwrap();
            assert!(!r.alarm_raised);
        }
        assert_eq!(m.state(), AlarmState::Normal);
        assert_eq!(m.rounds(), 10);
    }

    #[test]
    fn alarm_raises_after_consecutive_anomalies_and_clears_on_repair() {
        let (mut dep, fcm) = setup();
        let mut m = Monitor::new(fcm);
        // Two healthy rounds.
        for seed in 0..2 {
            m.ingest(&healthy_round(&mut dep, seed)).unwrap();
        }
        // Compromise.
        let mut rng = StdRng::seed_from_u64(4);
        let applied = inject_random_anomaly(
            &mut dep.dataplane,
            AnomalyKind::PathDeviation,
            &mut rng,
            &[],
        )
        .unwrap();
        let r1 = m.ingest(&healthy_round(&mut dep, 10)).unwrap();
        assert_eq!(r1.state, AlarmState::Suspected);
        assert!(!r1.alarm_raised);
        let r2 = m.ingest(&healthy_round(&mut dep, 11)).unwrap();
        assert_eq!(r2.state, AlarmState::Alarmed);
        assert!(r2.alarm_raised);
        assert!(!r2.suspects.is_empty(), "localization accumulates");
        // Repair; alarm clears after clear_after normal rounds.
        applied.revert(&mut dep.dataplane).unwrap();
        let r3 = m.ingest(&healthy_round(&mut dep, 12)).unwrap();
        assert_eq!(r3.state, AlarmState::Alarmed, "hysteresis holds");
        let r4 = m.ingest(&healthy_round(&mut dep, 13)).unwrap();
        assert_eq!(r4.state, AlarmState::Normal);
        assert!(r4.alarm_cleared);
    }

    #[test]
    fn a_spike_stays_suspected_with_its_suspicion_until_the_window_clears() {
        let (mut dep, fcm) = setup();
        let mut m = Monitor::new(fcm);
        m.ingest(&healthy_round(&mut dep, 0)).unwrap();
        // One anomalous round (inject, then immediately repair).
        let mut rng = StdRng::seed_from_u64(9);
        let applied = inject_random_anomaly(
            &mut dep.dataplane,
            AnomalyKind::PathDeviation,
            &mut rng,
            &[],
        )
        .unwrap();
        let spike = m.ingest(&healthy_round(&mut dep, 1)).unwrap();
        assert!(spike.verdict.anomalous);
        assert_eq!(spike.state, AlarmState::Suspected);
        assert!(!spike.suspects.is_empty(), "the spike is localized");
        applied.revert(&mut dep.dataplane).unwrap();
        // The window (2 rounds) still holds the hit: suspected, with the
        // spike's suspicion kept.
        let after = m.ingest(&healthy_round(&mut dep, 2)).unwrap();
        assert!(!after.verdict.anomalous);
        assert_eq!(after.state, AlarmState::Suspected);
        assert!(!after.alarm_raised);
        let switches =
            |r: &MonitorReport| -> Vec<SwitchId> { r.suspects.iter().map(|s| s.switch).collect() };
        assert_eq!(switches(&after), switches(&spike));
        // A second normal round pushes the hit out: normal, nothing to
        // clear, suspicion forgotten.
        let clean = m.ingest(&healthy_round(&mut dep, 3)).unwrap();
        assert_eq!(clean.state, AlarmState::Normal);
        assert!(!clean.alarm_cleared, "alarm never raised, nothing to clear");
        assert!(clean.suspects.is_empty());
    }

    #[test]
    fn history_is_bounded() {
        let (mut dep, fcm) = setup();
        let mut m = Monitor::new(fcm);
        let counters = healthy_round(&mut dep, 0);
        for _ in 0..HISTORY + 3 {
            m.ingest(&counters).unwrap();
        }
        assert_eq!(m.history().count(), HISTORY);
    }

    #[test]
    fn state_display() {
        assert_eq!(AlarmState::Normal.to_string(), "normal");
        assert_eq!(AlarmState::Alarmed.to_string(), "ALARMED");
        assert_eq!(AlarmState::Suspected.to_string(), "suspected");
    }

    #[test]
    fn counter_length_errors_propagate() {
        let (_, fcm) = setup();
        let mut m = Monitor::new(fcm);
        assert!(m.ingest(&[1.0, 2.0]).is_err());
    }
}
