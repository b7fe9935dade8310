//! The counter-forging adversary of the paper's threat model (§II-B) and
//! the controller's churn policy: one of each for every driver.
//!
//! [`Adversary`] compromises switches, plans each round's coordinated lie
//! from the live registers, and confesses. It owns no agent:
//! [`Adversary::forge`] returns the forging agents and
//! [`Adversary::confess`] the switches that need honest ones back, and
//! each driver installs them where its agents live (the lockstep
//! [`crate::ScenarioDriver`] in its service, `foces-ingest`'s stream
//! driver in its agent map). The drivers differ only in when they call.

use foces::Fcm;
use foces_channel::{plan_collusion, CollusionInputs, FakeStrategy, ForgingAgent, RuleFacts};
use foces_controlplane::Deployment;
use foces_dataplane::{
    inject_random_anomaly, AnomalyKind, AppliedAnomaly, LossModel, Rule, RuleRef,
};
use foces_net::{HostId, Node, SwitchId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// The switches that lie, what they hide, and how they plan their lies.
pub struct Adversary {
    rng: StdRng,
    strategy: FakeStrategy,
    magnitude: f64,
    liars: Vec<SwitchId>,
    forging: Vec<SwitchId>,
    cover_anomalies: Vec<AppliedAnomaly>,
    /// Honest counters taken at the first forging round: the "stale"
    /// values a replay liar keeps reporting.
    stale_snapshot: BTreeMap<(SwitchId, usize), f64>,
    /// Pre-compromise tables (what a stealthy liar answers dumps with),
    /// keyed by forging switch.
    original_tables: BTreeMap<SwitchId, Vec<Rule>>,
    /// The model of the controller's expectation: an FCM of the view and
    /// the generation it was built at, re-patched when the view moves.
    expectation: Option<(u64, Fcm)>,
}

impl Adversary {
    /// An adversary that has compromised nobody yet; `seed` drives which
    /// switches it picks and where it plants its cover anomalies.
    pub fn new(seed: u64) -> Self {
        Adversary {
            rng: StdRng::seed_from_u64(seed),
            strategy: FakeStrategy::Naive,
            magnitude: 1.0,
            liars: Vec::new(),
            forging: Vec::new(),
            cover_anomalies: Vec::new(),
            stale_snapshot: BTreeMap::new(),
            original_tables: BTreeMap::new(),
            expectation: None,
        }
    }

    /// The switches of the latest compromise, ascending. They stay named
    /// after they confess, so a report can say who lied.
    pub fn liars(&self) -> &[SwitchId] {
        &self.liars
    }

    /// Every switch running a forging agent: the liars plus, under
    /// [`FakeStrategy::CoverUp`], their switch neighbours. Empty when
    /// nobody is lying.
    pub fn forging(&self) -> &[SwitchId] {
        &self.forging
    }

    /// The real anomalies the evasion strategies cover for (one early drop
    /// per liar), repaired when the liars confess.
    pub fn cover_anomalies(&self) -> &[AppliedAnomaly] {
        &self.cover_anomalies
    }

    /// Is anybody lying right now?
    pub fn is_lying(&self) -> bool {
        !self.forging.is_empty()
    }

    /// Compromises `count` switches drawn from those that own a rule, minus
    /// `exclude`, and snapshots the forging switches' (still honest)
    /// tables. Under [`FakeStrategy::CoverUp`] the liars' switch
    /// neighbours join the collusion; under the evasion strategies each
    /// liar really drops a flow early and the forged counters hide it.
    pub fn compromise(
        &mut self,
        dep: &mut Deployment,
        count: usize,
        strategy: FakeStrategy,
        magnitude: f64,
        exclude: &[SwitchId],
    ) {
        self.strategy = strategy;
        self.magnitude = magnitude;
        let topology = dep.view.topology();
        // Only a switch that owns a rule can lie about one: on a sampled
        // flow set some switches carry no flow, and compromising one would
        // make the scenario vacuous.
        let mut pool: Vec<SwitchId> = topology
            .switches()
            .filter(|s| !exclude.contains(s))
            .filter(|&s| !dep.dataplane.table(s).is_empty())
            .collect();
        pool.shuffle(&mut self.rng);
        pool.truncate(count);
        pool.sort_unstable();
        self.liars = pool;

        let mut forging = self.liars.clone();
        if strategy == FakeStrategy::CoverUp {
            for &liar in &self.liars {
                for adj in topology.adj(Node::Switch(liar)) {
                    if let Node::Switch(n) = adj.neighbor {
                        forging.push(n);
                    }
                }
            }
            forging.sort_unstable();
            forging.dedup();
        }
        // Table snapshots must predate the cover anomalies.
        for &s in &forging {
            let table = dep.dataplane.table(s).iter().map(|(_, r)| r.clone());
            self.original_tables.insert(s, table.collect());
        }
        self.forging = forging;

        if !strategy.is_fabrication() {
            let all: Vec<SwitchId> = topology.switches().collect();
            for &liar in &self.liars {
                let others: Vec<SwitchId> = all.iter().copied().filter(|&s| s != liar).collect();
                if let Some(a) = inject_random_anomaly(
                    &mut dep.dataplane,
                    AnomalyKind::EarlyDrop,
                    &mut self.rng,
                    &others,
                ) {
                    self.cover_anomalies.push(a);
                }
            }
        }
    }

    /// Plans this round's coordinated forgery against the live registers
    /// and returns one fresh agent per forging switch. Call it whenever
    /// the registers change, so the lie tracks the truth it distorts.
    pub fn forge(&mut self, dep: &Deployment) -> Vec<ForgingAgent> {
        if self.stale_snapshot.is_empty() {
            for &s in &self.forging {
                for i in 0..dep.dataplane.table(s).len() {
                    self.stale_snapshot
                        .insert((s, i), dep.dataplane.true_counter(s, i));
                }
            }
        }
        // What the controller expects: nominal (loss-free) flow volumes
        // pushed through the intended routing of the current view.
        let generation = dep.view.generation();
        let fcm = match self.expectation.take() {
            Some((built, fcm)) if built == generation => fcm,
            Some((_, fcm)) => fcm.patched(&dep.view),
            None => Fcm::from_view(&dep.view),
        };
        let mut rate_of: BTreeMap<(HostId, HostId), f64> = BTreeMap::new();
        for f in &dep.flows {
            *rate_of.entry((f.src, f.dst)).or_insert(0.0) += f.rate;
        }
        // Per rule: the expected volume, and whether a covered flow
        // crosses it (the rows the cover anomaly perturbs).
        let cover: Vec<RuleRef> = self.cover_anomalies.iter().map(|a| a.rule).collect();
        let mut model: BTreeMap<RuleRef, (f64, bool)> = BTreeMap::new();
        for j in 0..fcm.flow_count() {
            let key = (fcm.ingress(j), fcm.egress(j));
            let rate = rate_of.get(&key).copied().unwrap_or(0.0);
            let covered = fcm.flow_rules(j).any(|r| cover.contains(&r));
            for r in fcm.flow_rules(j) {
                let entry = model.entry(r).or_insert((0.0, false));
                entry.0 += rate;
                entry.1 |= covered;
            }
        }
        self.expectation = Some((generation, fcm));
        let mut inputs = CollusionInputs::default();
        for &s in &self.forging {
            let facts = (0..dep.dataplane.table(s).len()).map(|index| {
                let truth = dep.dataplane.true_counter(s, index);
                let rule = RuleRef { switch: s, index };
                let (expected, covered) = model.get(&rule).copied().unwrap_or_default();
                RuleFacts {
                    index,
                    truth,
                    expected,
                    stale: self
                        .stale_snapshot
                        .get(&(s, index))
                        .copied()
                        .unwrap_or(truth),
                    // With no cover anomaly (fabrication) every rule is
                    // fair game; with one, only its flows' rows are.
                    affected: cover.is_empty() || covered,
                }
            });
            inputs.rules_by_switch.insert(s, facts.collect());
        }
        let plan = plan_collusion(self.strategy, self.magnitude, &inputs);
        let agent = |&s: &SwitchId| {
            let table = self.original_tables.get(&s).cloned().unwrap_or_default();
            let mut agent = ForgingAgent::new(s, table);
            plan.forge_into(&mut agent);
            agent
        };
        self.forging.iter().map(agent).collect()
    }

    /// The liars confess: their cover anomalies are repaired and the
    /// forging state dropped. Returns the switches that need honest agents
    /// back.
    pub fn confess(&mut self, dep: &mut Deployment) -> Vec<SwitchId> {
        for a in self.cover_anomalies.drain(..) {
            a.revert(&mut dep.dataplane)
                .expect("covered rule cannot vanish");
        }
        self.stale_snapshot.clear();
        self.original_tables.clear();
        std::mem::take(&mut self.forging)
    }
}

/// A rolling update landing mid-window: half the window's traffic runs
/// under the old rules, one controller update lands, the other half runs
/// under the new rules, so the collected counters genuinely mix
/// generations (what reconciliation and the generation stamps absorb).
/// The update, chosen by `rng`: reroute a random flow through a random
/// off-path waypoint, else refine its granularity along its current path.
pub fn rolling_update(dep: &mut Deployment, rng: &mut StdRng, loss: &mut LossModel) {
    dep.replay_traffic_scaled(loss, 0.5);
    let flow = rng.gen_range(0..dep.flows.len());
    let path = &dep.expected_paths[flow];
    let topology = dep.view.topology();
    let candidates: Vec<SwitchId> = topology.switches().filter(|s| !path.contains(s)).collect();
    let rerouted = candidates
        .choose(rng)
        .and_then(|&w| dep.reroute_flow_via(flow, &[w]).ok());
    if rerouted.is_none() {
        let _ = dep.refine_flow(flow);
    }
    dep.replay_traffic_scaled(loss, 0.5);
}
