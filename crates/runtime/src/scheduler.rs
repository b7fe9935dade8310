//! The epoch scheduler: one statistics sweep per detection interval.
//!
//! Each epoch the scheduler polls every switch agent through the
//! [`Transport`], giving each switch a simulated-time deadline and a
//! bounded number of exponential-backoff retries. A switch that stays
//! unresponsive (drops exhausted the budget, replies kept arriving with
//! stale transaction ids, or the transport reports it offline) is
//! **marked**, not fatal: the round always completes and downstream
//! layers decide how to detect with what arrived.

use foces_channel::{ChannelError, ControllerMsg, Delivery, SwitchAgent, SwitchMsg, Transport};
use foces_dataplane::{DataPlane, RuleRef};
use foces_net::SwitchId;

/// Retry/deadline policy for one switch poll.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PollPolicy {
    /// Simulated-time budget per switch per epoch, in milliseconds. Once a
    /// poll has consumed this much (latency + timeouts + backoff), the
    /// switch is marked unresponsive for the epoch.
    pub deadline_ms: f64,
    /// Time charged for an attempt whose reply never arrives (the
    /// controller's request timeout).
    pub attempt_timeout_ms: f64,
    /// Maximum exchange attempts per switch per epoch (first try included).
    pub max_attempts: u32,
    /// Backoff before retry `k` is `backoff_base_ms * 2^(k-1)`.
    pub backoff_base_ms: f64,
}

impl Default for PollPolicy {
    /// Deadline 400 ms, attempt timeout 80 ms, 5 attempts, 10 ms base
    /// backoff — generous enough that only a genuinely bad channel (or an
    /// offline switch) exhausts it.
    fn default() -> Self {
        PollPolicy {
            deadline_ms: 400.0,
            attempt_timeout_ms: 80.0,
            max_attempts: 5,
            backoff_base_ms: 10.0,
        }
    }
}

/// Outcome of polling one switch for one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchPoll {
    /// The polled switch.
    pub switch: SwitchId,
    /// The reported per-rule counters, in table order — `None` if the
    /// switch never produced a usable reply this epoch.
    pub counters: Option<Vec<f64>>,
    /// The rule-table generation the switch stamped on its reply — `None`
    /// exactly when `counters` is. A stamp newer than the generation the
    /// FCM was built at means the counters mix traffic routed under two
    /// rule configurations (two-phase read, see
    /// [`EpochCollection::stale_switches`]).
    pub generation: Option<u64>,
    /// Exchange attempts made (≥ 1 unless the deadline was already spent).
    pub attempts: u32,
    /// Attempts lost to message drops.
    pub drops: u32,
    /// Replies discarded for carrying a stale transaction id.
    pub stale_replies: u32,
    /// Whether the transport reported the switch offline.
    pub offline: bool,
    /// Simulated time consumed by this poll, in milliseconds.
    pub elapsed_ms: f64,
}

impl SwitchPoll {
    /// Retries beyond the first attempt.
    pub fn retries(&self) -> u32 {
        self.attempts.saturating_sub(1)
    }

    /// Did the poll produce counters?
    pub fn responsive(&self) -> bool {
        self.counters.is_some()
    }
}

/// Everything one epoch's sweep produced.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochCollection {
    /// The epoch this sweep belongs to.
    pub epoch: u64,
    /// Per-switch outcomes, in ascending switch order.
    pub polls: Vec<SwitchPoll>,
    /// Simulated wall time of the sweep: switches are polled concurrently,
    /// so this is the *maximum* per-switch elapsed time.
    pub elapsed_ms: f64,
}

impl EpochCollection {
    /// The counters reported by `switch`, if it was responsive.
    pub fn counters_of(&self, switch: SwitchId) -> Option<&[f64]> {
        self.polls
            .iter()
            .find(|p| p.switch == switch)
            .and_then(|p| p.counters.as_deref())
    }

    /// Switches that produced no counters this epoch, ascending.
    pub fn missing_switches(&self) -> Vec<SwitchId> {
        self.polls
            .iter()
            .filter(|p| !p.responsive())
            .map(|p| p.switch)
            .collect()
    }

    /// Assembles the sweep into a counter vector in FCM row order:
    /// `counters[i]` is the reading for `rules[i]` (0.0 when it never
    /// arrived) and `observed[i]` says whether it actually did. This is
    /// the collection-side half of every detection round; masking and
    /// reconciliation downstream key off `observed`. A `NaN` or infinite
    /// reading counts as not collected (see
    /// [`EpochCollection::assemble_checked`]).
    pub fn assemble(&self, rules: &[RuleRef]) -> (Vec<f64>, Vec<bool>) {
        let (counters, observed, _) = self.assemble_checked(rules);
        (counters, observed)
    }

    /// [`EpochCollection::assemble`], also returning how many readings
    /// were rejected as non-finite. A Byzantine agent can report any
    /// `f64`; no flow volume explains `NaN` or `±∞`, so such a row is
    /// masked like one that never arrived instead of reaching the solve.
    pub fn assemble_checked(&self, rules: &[RuleRef]) -> (Vec<f64>, Vec<bool>, usize) {
        let mut counters = vec![0.0; rules.len()];
        let mut observed = vec![false; rules.len()];
        let mut rejected = 0;
        for (i, r) in rules.iter().enumerate() {
            if let Some(c) = self.counters_of(r.switch) {
                if let Some(&v) = c.get(r.index) {
                    if v.is_finite() {
                        counters[i] = v;
                        observed[i] = true;
                    } else {
                        rejected += 1;
                    }
                }
            }
        }
        (counters, observed, rejected)
    }

    /// Responsive switches whose reply carried a generation stamp *newer*
    /// than `fcm_generation` — the second phase of the two-phase read. A
    /// stamp records when the switch's table last changed, so an older
    /// stamp is fine (the table predates the FCM build and has not moved),
    /// but a newer one means the counters were collected against rules the
    /// FCM was not built from: the epoch must be reconciled, not scored
    /// as-is.
    pub fn stale_switches(&self, fcm_generation: u64) -> Vec<SwitchId> {
        self.polls
            .iter()
            .filter(|p| p.generation.is_some_and(|g| g > fcm_generation))
            .map(|p| p.switch)
            .collect()
    }
}

/// Polls a fixed set of agents through a [`Transport`], one sweep per
/// epoch, retrying per [`PollPolicy`].
pub struct EpochScheduler {
    agents: Vec<Box<dyn SwitchAgent>>,
    transport: Box<dyn Transport>,
    policy: PollPolicy,
    next_xid: u32,
}

impl EpochScheduler {
    /// Creates a scheduler over `agents` (sorted by switch id internally).
    pub fn new(
        mut agents: Vec<Box<dyn SwitchAgent>>,
        transport: Box<dyn Transport>,
        policy: PollPolicy,
    ) -> Self {
        agents.sort_by_key(|a| a.switch());
        EpochScheduler {
            agents,
            transport,
            policy,
            next_xid: 1,
        }
    }

    /// The switches this scheduler polls, ascending.
    pub fn switches(&self) -> Vec<SwitchId> {
        self.agents.iter().map(|a| a.switch()).collect()
    }

    /// Swaps in a new agent for the switch it claims to be (matched by
    /// [`SwitchAgent::switch`]), returning the displaced agent. Returns
    /// `None` — and changes nothing — when no agent for that switch
    /// exists. This is how a scenario compromises (or restores) a switch
    /// mid-run without rebuilding the scheduler.
    pub fn replace_agent(&mut self, agent: Box<dyn SwitchAgent>) -> Option<Box<dyn SwitchAgent>> {
        let s = agent.switch();
        let pos = self.agents.iter().position(|a| a.switch() == s)?;
        Some(std::mem::replace(&mut self.agents[pos], agent))
    }

    /// The active policy.
    pub fn policy(&self) -> PollPolicy {
        self.policy
    }

    /// Runs one epoch's sweep over all agents.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError`] only on wire-level protocol violations
    /// (malformed bytes); unresponsive switches are reported in the
    /// [`EpochCollection`], never as errors.
    pub fn poll_epoch(
        &mut self,
        dp: &DataPlane,
        epoch: u64,
    ) -> Result<EpochCollection, ChannelError> {
        self.transport.on_epoch(epoch);
        let mut polls = Vec::with_capacity(self.agents.len());
        let mut elapsed_ms: f64 = 0.0;
        for i in 0..self.agents.len() {
            let poll = self.poll_switch(dp, i)?;
            elapsed_ms = elapsed_ms.max(poll.elapsed_ms);
            polls.push(poll);
        }
        Ok(EpochCollection {
            epoch,
            polls,
            elapsed_ms,
        })
    }

    fn poll_switch(
        &mut self,
        dp: &DataPlane,
        agent_idx: usize,
    ) -> Result<SwitchPoll, ChannelError> {
        let agent = &*self.agents[agent_idx];
        let switch = agent.switch();
        let p = self.policy;
        let mut poll = SwitchPoll {
            switch,
            counters: None,
            generation: None,
            attempts: 0,
            drops: 0,
            stale_replies: 0,
            offline: false,
            elapsed_ms: 0.0,
        };
        while poll.attempts < p.max_attempts && poll.elapsed_ms < p.deadline_ms {
            if poll.attempts > 0 {
                // Exponential backoff before each retry.
                poll.elapsed_ms += p.backoff_base_ms * f64::from(1u32 << (poll.attempts - 1));
                if poll.elapsed_ms >= p.deadline_ms {
                    break;
                }
            }
            poll.attempts += 1;
            let xid = self.next_xid;
            self.next_xid = self.next_xid.wrapping_add(1).max(1);
            let msg = ControllerMsg::StatsRequest { xid };
            match self.transport.exchange(dp, agent, &msg)? {
                Delivery::Delivered { reply, latency_ms } => {
                    poll.elapsed_ms += latency_ms;
                    if poll.elapsed_ms > p.deadline_ms {
                        break; // reply arrived past the deadline: too late
                    }
                    match reply {
                        SwitchMsg::StatsReply {
                            xid: rxid,
                            generation,
                            counters,
                        } if rxid == xid => {
                            poll.counters = Some(counters);
                            poll.generation = Some(generation);
                            break;
                        }
                        _ => poll.stale_replies += 1, // stale xid or wrong type
                    }
                }
                Delivery::Dropped => {
                    poll.drops += 1;
                    poll.elapsed_ms += p.attempt_timeout_ms;
                }
                Delivery::Offline => {
                    poll.offline = true;
                    break; // retrying within the epoch cannot help
                }
            }
        }
        Ok(poll)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{FaultProfile, SimTransport};
    use foces_channel::{HonestAgent, PerfectTransport};
    use foces_controlplane::{provision, uniform_flows, RuleGranularity};
    use foces_dataplane::LossModel;
    use foces_net::generators::ring;

    fn deployment() -> foces_controlplane::Deployment {
        let topo = ring(4);
        let flows = uniform_flows(&topo, 1000.0);
        let mut dep = provision(topo, &flows, RuleGranularity::PerFlowPair).unwrap();
        dep.replay_traffic(&mut LossModel::none());
        dep
    }

    fn agents(dep: &foces_controlplane::Deployment) -> Vec<Box<dyn SwitchAgent>> {
        dep.view
            .topology()
            .switches()
            .map(|s| Box::new(HonestAgent::new(s)) as Box<dyn SwitchAgent>)
            .collect()
    }

    #[test]
    fn perfect_channel_collects_everything_first_try() {
        let dep = deployment();
        let mut sched = EpochScheduler::new(
            agents(&dep),
            Box::new(PerfectTransport),
            PollPolicy::default(),
        );
        let c = sched.poll_epoch(&dep.dataplane, 0).unwrap();
        assert!(c.missing_switches().is_empty());
        for p in &c.polls {
            assert_eq!(p.attempts, 1);
            assert_eq!(p.retries(), 0);
            let expected: Vec<f64> = (0..dep.dataplane.table(p.switch).len())
                .map(|i| dep.dataplane.counter(p.switch, i))
                .collect();
            assert_eq!(c.counters_of(p.switch).unwrap(), expected.as_slice());
        }
    }

    #[test]
    fn generation_stamps_surface_mid_epoch_updates() {
        let mut dep = deployment();
        let mut sched = EpochScheduler::new(
            agents(&dep),
            Box::new(PerfectTransport),
            PollPolicy::default(),
        );
        let c0 = sched.poll_epoch(&dep.dataplane, 0).unwrap();
        assert!(c0.polls.iter().all(|p| p.generation == Some(0)));
        assert!(c0.stale_switches(0).is_empty());
        // A controller update bumps the touched switches' table generation;
        // the next sweep's stamps expose exactly those switches as stale
        // relative to an FCM built at generation 0.
        let (generation, touched) = dep.reroute_flow_via(0, &[]).unwrap();
        assert_eq!(generation, 1);
        let c1 = sched.poll_epoch(&dep.dataplane, 1).unwrap();
        let stale = c1.stale_switches(0);
        assert!(!stale.is_empty());
        for s in &stale {
            assert_eq!(dep.dataplane.table_generation(*s), 1);
        }
        // Every stale switch hosts at least one journaled rule.
        for s in &stale {
            assert!(touched.iter().any(|r| r.switch == *s));
        }
        // Relative to a generation-1 FCM nothing is stale: the untouched
        // switches' older stamps mean their tables simply predate it.
        assert!(c1.stale_switches(1).is_empty());
    }

    #[test]
    fn assemble_orders_counters_by_fcm_rows_and_marks_gaps() {
        let dep = deployment();
        let fcm = foces::Fcm::from_view(&dep.view);
        let victim = foces_net::SwitchId(1);
        let mut t = SimTransport::new(0, FaultProfile::default());
        t.set_profile(
            victim,
            FaultProfile {
                offline: vec![(0, 10)],
                ..FaultProfile::default()
            },
        );
        let mut sched = EpochScheduler::new(agents(&dep), Box::new(t), PollPolicy::default());
        let c = sched.poll_epoch(&dep.dataplane, 0).unwrap();
        let (counters, observed) = c.assemble(fcm.rules());
        assert_eq!(counters.len(), fcm.rule_count());
        assert_eq!(observed.len(), fcm.rule_count());
        for (i, r) in fcm.rules().iter().enumerate() {
            if r.switch == victim {
                assert!(!observed[i], "offline switch rows are unobserved");
                assert_eq!(counters[i], 0.0);
            } else {
                assert!(observed[i]);
                assert_eq!(counters[i], dep.dataplane.counter(r.switch, r.index));
            }
        }
    }

    #[test]
    fn drops_trigger_retries_then_success() {
        let dep = deployment();
        // 60% drop: with 5 attempts the poll still almost surely lands, and
        // with this seed at least one retry happens across 4 switches.
        let t = SimTransport::new(
            42,
            FaultProfile {
                drop_prob: 0.6,
                ..FaultProfile::default()
            },
        );
        let mut sched = EpochScheduler::new(agents(&dep), Box::new(t), PollPolicy::default());
        let c = sched.poll_epoch(&dep.dataplane, 0).unwrap();
        let total_retries: u32 = c.polls.iter().map(|p| p.retries()).sum();
        let total_drops: u32 = c.polls.iter().map(|p| p.drops).sum();
        assert!(total_retries > 0, "60% drop must force retries");
        // Every attempt either dropped or succeeded, so per responsive poll
        // drops == retries, and an unresponsive poll has one extra drop.
        assert_eq!(
            total_drops,
            total_retries + c.missing_switches().len() as u32
        );
    }

    #[test]
    fn offline_switch_is_marked_not_fatal() {
        let dep = deployment();
        let victim = foces_net::SwitchId(2);
        let mut t = SimTransport::new(0, FaultProfile::default());
        t.set_profile(
            victim,
            FaultProfile {
                offline: vec![(0, 10)],
                ..FaultProfile::default()
            },
        );
        let mut sched = EpochScheduler::new(agents(&dep), Box::new(t), PollPolicy::default());
        let c = sched.poll_epoch(&dep.dataplane, 3).unwrap();
        assert_eq!(c.missing_switches(), vec![victim]);
        let poll = c.polls.iter().find(|p| p.switch == victim).unwrap();
        assert!(poll.offline);
        assert_eq!(poll.attempts, 1, "no point retrying an offline switch");
        // Everyone else answered.
        assert_eq!(
            c.polls.iter().filter(|p| p.responsive()).count(),
            c.polls.len() - 1
        );
    }

    #[test]
    fn total_blackout_exhausts_attempts_within_deadline() {
        let dep = deployment();
        let t = SimTransport::new(
            5,
            FaultProfile {
                drop_prob: 1.0,
                ..FaultProfile::default()
            },
        );
        let policy = PollPolicy::default();
        let mut sched = EpochScheduler::new(agents(&dep), Box::new(t), policy);
        let c = sched.poll_epoch(&dep.dataplane, 0).unwrap();
        assert_eq!(c.missing_switches().len(), c.polls.len());
        for p in &c.polls {
            assert!(p.attempts <= policy.max_attempts);
            assert!(p.drops == p.attempts);
            assert!(
                p.elapsed_ms <= policy.deadline_ms + policy.attempt_timeout_ms,
                "deadline respected up to one in-flight timeout"
            );
        }
        // The sweep is concurrent: epoch time is the max poll time, not the sum.
        assert!(c.elapsed_ms <= policy.deadline_ms + policy.attempt_timeout_ms);
    }

    #[test]
    fn stale_replies_are_discarded_and_retried() {
        let dep = deployment();
        let t = SimTransport::new(
            9,
            FaultProfile {
                reorder_prob: 1.0,
                ..FaultProfile::default()
            },
        );
        let mut sched = EpochScheduler::new(agents(&dep), Box::new(t), PollPolicy::default());
        // Epoch 0 primes each switch's reorder buffer (the very first reply
        // per switch has nothing stale to swap with, so it lands fresh).
        let c0 = sched.poll_epoch(&dep.dataplane, 0).unwrap();
        assert!(c0.missing_switches().is_empty());
        // From then on a fully-reordering channel is always one reply
        // behind: every delivery carries the previous exchange's xid, so
        // every attempt is discarded as stale and the switches end the
        // epoch unresponsive — marked, not fatal.
        let c1 = sched.poll_epoch(&dep.dataplane, 1).unwrap();
        let stale: u32 = c1.polls.iter().map(|p| p.stale_replies).sum();
        assert!(stale > 0);
        assert_eq!(c1.missing_switches().len(), c1.polls.len());
    }
}
