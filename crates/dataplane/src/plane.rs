use crate::loss::gaussian_counter_noise;
use crate::{Action, FlowTable, LossModel, Rule};
use foces_net::{HostId, Node, SwitchId, Topology};
use rand::rngs::StdRng;
use std::error::Error;
use std::fmt;

/// Globally identifies a rule: the switch that holds it plus its stable
/// index within that switch's [`FlowTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RuleRef {
    /// The switch holding the rule.
    pub switch: SwitchId,
    /// Index within the switch's flow table.
    pub index: usize,
}

impl fmt::Display for RuleRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}#r{}", self.switch.0, self.index)
    }
}

/// Errors from data-plane operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DataPlaneError {
    /// The referenced rule does not exist.
    UnknownRule(RuleRef),
    /// The referenced switch does not exist.
    UnknownSwitch(SwitchId),
}

impl fmt::Display for DataPlaneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataPlaneError::UnknownRule(r) => write!(f, "unknown rule {r}"),
            DataPlaneError::UnknownSwitch(s) => write!(f, "unknown switch s{}", s.0),
        }
    }
}

impl Error for DataPlaneError {}

/// What happened to an injected volume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeliveryReport {
    /// The host the (surviving) volume reached, or `None` if it was dropped.
    pub delivered_to: Option<HostId>,
    /// Volume that arrived at the destination (after loss), 0 if dropped.
    pub delivered_volume: f64,
    /// Switch hops traversed.
    pub hops: usize,
    /// `true` if forwarding was cut off by the TTL (a forwarding loop,
    /// possible after adversarial rule modification).
    pub ttl_exceeded: bool,
}

/// Maximum switch hops before the simulator declares a forwarding loop —
/// mirrors an IP TTL and bounds adversarially-induced loops.
pub const MAX_HOPS: usize = 64;

/// Parameters of the counter-collection noise model (the paper's
/// "out-of-sync counter values", §IV-A), used by
/// [`DataPlane::collect_counters_realistic`].
///
/// Skew factors are **bounded uniform** (`1 + U(-w, +w)`), not Gaussian:
/// the statistics collector polls switches sequentially across a bounded
/// window, so polling offsets are evenly spread, never unbounded. This is
/// load-bearing for the paper's threshold: the anomaly index is a
/// max/median ratio, and the expected *maximum* of thousands of
/// folded-Gaussian residuals is ≈ 3.4σ — pushing a healthy index past the
/// 3σ-derived threshold of 4.5. Bounded noise keeps the healthy ratio
/// near 2–3, which is what the paper's experiments (and ours) observe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectionNoise {
    /// Half-width of the per-switch polling-skew factor (fraction of one
    /// collection interval; all counters of one switch share one draw).
    pub switch_skew: f64,
    /// Half-width of the independent per-rule read jitter factor.
    pub rule_jitter: f64,
}

impl Default for CollectionNoise {
    /// ±2 % switch skew (±100 ms polling spread on a 5 s interval) and
    /// ±0.5 % per-rule jitter.
    fn default() -> Self {
        CollectionNoise {
            switch_skew: 0.02,
            rule_jitter: 0.005,
        }
    }
}

/// The simulated SDN data plane: one [`FlowTable`] and one counter array per
/// switch of an underlying [`Topology`].
///
/// See the crate-level docs for the fluid traffic model and an example.
#[derive(Debug, Clone)]
pub struct DataPlane {
    topo: Topology,
    tables: Vec<FlowTable>,
    counters: Vec<Vec<f64>>,
    /// Per-switch, per-port received volume (what OpenFlow port stats would
    /// report as rx_packets) — consumed by the FlowMon-style baseline.
    port_rx: Vec<Vec<f64>>,
    /// Per-switch, per-port transmitted volume (tx_packets). Transmission
    /// is counted before link loss; reception after, exactly like real
    /// interface counters around a lossy link.
    port_tx: Vec<Vec<f64>>,
    /// Per-switch rule-table **generation**: the controller's version stamp
    /// for the switch's configuration, advanced only through legitimate
    /// control-plane updates ([`DataPlane::set_table_generation`]). The
    /// adversary's [`DataPlane::modify_rule_action`] deliberately leaves it
    /// untouched: a compromised switch keeps reporting the stamp of the last
    /// update it acknowledged, exactly like a real switch whose firmware
    /// was tampered with below the OpenFlow layer.
    generations: Vec<u64>,
    /// Reported-counter overrides installed by compromised switches
    /// ([`crate::AnomalyKind::CounterFake`]): the *true* counters keep
    /// accumulating underneath as packets flow, but every collection path
    /// reports the forged value instead. Keyed `(switch, index)`; a BTreeMap
    /// so iteration (and therefore any derived randomness) is deterministic.
    counter_fakes: std::collections::BTreeMap<(usize, usize), f64>,
}

impl DataPlane {
    /// Wraps a topology with empty flow tables.
    pub fn new(topo: Topology) -> Self {
        let n = topo.switch_count();
        let ports: Vec<Vec<f64>> = (0..n)
            .map(|s| vec![0.0; topo.adj(Node::Switch(SwitchId(s))).len()])
            .collect();
        DataPlane {
            topo,
            tables: vec![FlowTable::new(); n],
            counters: vec![Vec::new(); n],
            port_rx: ports.clone(),
            port_tx: ports,
            generations: vec![0; n],
            counter_fakes: std::collections::BTreeMap::new(),
        }
    }

    /// The rule-table generation a switch currently acknowledges — what an
    /// honest agent stamps on its counter replies.
    ///
    /// # Panics
    ///
    /// Panics if the switch id is out of range.
    pub fn table_generation(&self, switch: SwitchId) -> u64 {
        self.generations[switch.0]
    }

    /// Stamps a switch's rule-table generation. Called by the control plane
    /// when it commits an update to this switch; never advanced by the
    /// adversary's covert [`DataPlane::modify_rule_action`].
    ///
    /// # Panics
    ///
    /// Panics if the switch id is out of range.
    pub fn set_table_generation(&mut self, switch: SwitchId, generation: u64) {
        self.generations[switch.0] = generation;
    }

    /// Per-port received volumes of a switch (index = port number).
    ///
    /// # Panics
    ///
    /// Panics if the switch id is out of range.
    pub fn port_rx(&self, switch: SwitchId) -> &[f64] {
        &self.port_rx[switch.0]
    }

    /// Per-port transmitted volumes of a switch (index = port number).
    ///
    /// # Panics
    ///
    /// Panics if the switch id is out of range.
    pub fn port_tx(&self, switch: SwitchId) -> &[f64] {
        &self.port_tx[switch.0]
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Installs a rule on a switch, returning its global reference.
    ///
    /// # Panics
    ///
    /// Panics if the switch id is out of range.
    pub fn install(&mut self, switch: SwitchId, rule: Rule) -> RuleRef {
        let index = self.tables[switch.0].push(rule);
        self.counters[switch.0].push(0.0);
        RuleRef { switch, index }
    }

    /// The flow table of a switch.
    ///
    /// # Panics
    ///
    /// Panics if the switch id is out of range.
    pub fn table(&self, switch: SwitchId) -> &FlowTable {
        &self.tables[switch.0]
    }

    /// Looks up a rule by reference.
    pub fn rule(&self, r: RuleRef) -> Option<&Rule> {
        self.tables.get(r.switch.0)?.get(r.index)
    }

    /// Replaces a rule's action, returning the previous one. This is the
    /// adversary's primitive: the match fields and counters stay intact, so
    /// a flow-table dump still shows a plausible configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DataPlaneError::UnknownRule`] if the reference is stale.
    pub fn modify_rule_action(
        &mut self,
        r: RuleRef,
        action: Action,
    ) -> Result<Action, DataPlaneError> {
        self.tables
            .get_mut(r.switch.0)
            .and_then(|t| t.set_action(r.index, action))
            .ok_or(DataPlaneError::UnknownRule(r))
    }

    /// Iterates over every rule reference in canonical order
    /// (switch-major, then table index) — the row order of the FCM.
    pub fn rule_refs(&self) -> impl Iterator<Item = RuleRef> + '_ {
        self.tables.iter().enumerate().flat_map(|(s, t)| {
            (0..t.len()).map(move |index| RuleRef {
                switch: SwitchId(s),
                index,
            })
        })
    }

    /// Total number of installed rules.
    pub fn rule_count(&self) -> usize {
        self.tables.iter().map(FlowTable::len).sum()
    }

    /// Current counter value of a rule **as the switch reports it**: the
    /// forged value while a [`crate::AnomalyKind::CounterFake`] override is
    /// installed ([`DataPlane::fake_counter`]), the truth otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the switch or index is out of range.
    pub fn counter(&self, switch: SwitchId, index: usize) -> f64 {
        let _ = self.counters[switch.0][index]; // preserve the bounds panic
        self.counter_fakes
            .get(&(switch.0, index))
            .copied()
            .unwrap_or(self.counters[switch.0][index])
    }

    /// The ground-truth counter of a rule, bypassing any forged override —
    /// what the packets actually did, which no adversary can rewrite.
    ///
    /// # Panics
    ///
    /// Panics if the switch or index is out of range.
    pub fn true_counter(&self, switch: SwitchId, index: usize) -> f64 {
        self.counters[switch.0][index]
    }

    /// Installs a reported-counter override: from now on every collection
    /// path reports `reported` for this rule while the true counter keeps
    /// accumulating underneath. Overrides survive
    /// [`DataPlane::reset_counters`] — the compromise persists across
    /// collection windows until reverted.
    ///
    /// # Errors
    ///
    /// Returns [`DataPlaneError::UnknownRule`] if the reference is stale.
    pub fn fake_counter(&mut self, r: RuleRef, reported: f64) -> Result<(), DataPlaneError> {
        if self.rule(r).is_none() {
            return Err(DataPlaneError::UnknownRule(r));
        }
        self.counter_fakes.insert((r.switch.0, r.index), reported);
        Ok(())
    }

    /// Removes a rule's reported-counter override (the switch confesses),
    /// returning the forged value if one was installed.
    pub fn clear_counter_fake(&mut self, r: RuleRef) -> Option<f64> {
        self.counter_fakes.remove(&(r.switch.0, r.index))
    }

    /// Number of rules currently reporting a forged counter.
    pub fn counter_fake_count(&self) -> usize {
        self.counter_fakes.len()
    }

    /// Zeroes every rule and port counter (start of a collection interval).
    pub fn reset_counters(&mut self) {
        for c in self
            .counters
            .iter_mut()
            .chain(self.port_rx.iter_mut())
            .chain(self.port_tx.iter_mut())
        {
            c.iter_mut().for_each(|v| *v = 0.0);
        }
    }

    /// Snapshots all counters in canonical [`DataPlane::rule_refs`] order,
    /// forged overrides included (collection reads what switches *report*).
    pub fn collect_counters(&self) -> Vec<f64> {
        self.rule_refs()
            .map(|r| self.counter(r.switch, r.index))
            .collect()
    }

    /// Snapshots counters with additive Gaussian noise of standard
    /// deviation `sigma` (the paper's out-of-sync collection model,
    /// `Y'(i) ~ N(Y₀(i), σ²)`), clamped at zero.
    pub fn collect_counters_noisy(&self, sigma: f64, rng: &mut StdRng) -> Vec<f64> {
        let mut c = self.collect_counters();
        gaussian_counter_noise(&mut c, sigma, rng);
        c
    }

    /// Snapshots counters with **polling skew**: each switch is read at a
    /// slightly different instant while traffic keeps flowing, so all of a
    /// switch's counters are scaled by a common bounded-uniform factor
    /// `1 + U(-w, +w)` (see [`CollectionNoise`] for why uniform, not
    /// Gaussian). This is the physically grounded version of the paper's
    /// out-of-sync counter noise: the per-switch correlation is what gives
    /// healthy anomaly indices their spread.
    pub fn collect_counters_skewed(&self, sync_halfwidth: f64, rng: &mut StdRng) -> Vec<f64> {
        self.collect_counters_realistic(
            &CollectionNoise {
                switch_skew: sync_halfwidth,
                rule_jitter: 0.0,
            },
            rng,
        )
    }

    /// Snapshots counters with the full collection-noise model: a shared
    /// per-switch polling-skew factor plus an independent per-rule jitter
    /// (rules within one table dump are read sequentially too, and traffic
    /// rates fluctuate within the interval). The per-rule component keeps
    /// the healthy residual *median* from collapsing to zero in low-loss
    /// regimes — without it the anomaly index's denominator is set by a
    /// handful of per-switch factors and the ratio grows heavy-tailed.
    pub fn collect_counters_realistic(
        &self,
        noise: &CollectionNoise,
        rng: &mut StdRng,
    ) -> Vec<f64> {
        use rand::Rng;
        let mut out = Vec::with_capacity(self.rule_count());
        for (s, counters) in self.counters.iter().enumerate() {
            let switch_factor = if noise.switch_skew > 0.0 {
                (1.0 + rng.gen_range(-noise.switch_skew..=noise.switch_skew)).max(0.0)
            } else {
                1.0
            };
            for (i, &c) in counters.iter().enumerate() {
                let rule_factor = if noise.rule_jitter > 0.0 {
                    (1.0 + rng.gen_range(-noise.rule_jitter..=noise.rule_jitter)).max(0.0)
                } else {
                    1.0
                };
                // A forged counter is a *fabricated number*, not a noisy
                // read of a live register: it is reported verbatim.
                match self.counter_fakes.get(&(s, i)) {
                    Some(&fake) => out.push(fake),
                    None => out.push(c * switch_factor * rule_factor),
                }
            }
        }
        out
    }

    /// Injects a volume of `volume` packets with the given header at `src`,
    /// forwarding it through flow tables until delivery, drop, or TTL
    /// exhaustion. Matched rules accumulate the volume that reached them;
    /// `loss` is applied on every link traversal (including the first and
    /// last host links).
    ///
    /// # Panics
    ///
    /// Panics if `src` is not attached to a switch — experiment setups
    /// always attach every host.
    pub fn inject(
        &mut self,
        src: HostId,
        header: u64,
        volume: f64,
        loss: &mut LossModel,
    ) -> DeliveryReport {
        let (first_switch, ingress_port) = self
            .topo
            .host_attachment(src)
            .expect("inject: source host is not attached to any switch");
        let mut volume = loss.attenuate(volume); // host -> first switch link
        self.port_rx[first_switch.0][ingress_port.0] += volume;
        let mut current = first_switch;
        let mut hops = 0;
        loop {
            if hops >= MAX_HOPS {
                return DeliveryReport {
                    delivered_to: None,
                    delivered_volume: 0.0,
                    hops,
                    ttl_exceeded: true,
                };
            }
            hops += 1;
            let Some((idx, rule)) = self.tables[current.0].lookup(header) else {
                // Table miss: default drop.
                return DeliveryReport {
                    delivered_to: None,
                    delivered_volume: 0.0,
                    hops,
                    ttl_exceeded: false,
                };
            };
            self.counters[current.0][idx] += volume;
            match rule.action() {
                Action::Drop => {
                    return DeliveryReport {
                        delivered_to: None,
                        delivered_volume: 0.0,
                        hops,
                        ttl_exceeded: false,
                    }
                }
                Action::Forward(port) => {
                    let Some(adj) = self.topo.adj(Node::Switch(current)).get(port.0).copied()
                    else {
                        // Forwarding to a nonexistent port: black hole.
                        return DeliveryReport {
                            delivered_to: None,
                            delivered_volume: 0.0,
                            hops,
                            ttl_exceeded: false,
                        };
                    };
                    self.port_tx[current.0][port.0] += volume;
                    volume = loss.attenuate(volume);
                    match adj.neighbor {
                        Node::Host(h) => {
                            return DeliveryReport {
                                delivered_to: Some(h),
                                delivered_volume: volume,
                                hops,
                                ttl_exceeded: false,
                            }
                        }
                        Node::Switch(s) => {
                            self.port_rx[s.0][adj.neighbor_port.0] += volume;
                            current = s;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::HEADER_WIDTH;
    use foces_headerspace::Wildcard;
    use foces_net::Port;
    use rand::SeedableRng;

    /// h0 - s0 - s1 - h1, with a second path s0 - s2 - s1 for deviation
    /// tests.
    fn diamond() -> (DataPlane, Vec<SwitchId>, Vec<HostId>) {
        let mut t = Topology::new();
        let s: Vec<SwitchId> = (0..3).map(|_| t.add_switch()).collect();
        let h = vec![t.add_host(), t.add_host()];
        t.connect(Node::Switch(s[0]), Node::Switch(s[1])).unwrap(); // s0 p0 <-> s1 p0
        t.connect(Node::Switch(s[0]), Node::Switch(s[2])).unwrap(); // s0 p1 <-> s2 p0
        t.connect(Node::Switch(s[2]), Node::Switch(s[1])).unwrap(); // s2 p1 <-> s1 p1
        t.connect(Node::Host(h[0]), Node::Switch(s[0])).unwrap(); // s0 p2
        t.connect(Node::Host(h[1]), Node::Switch(s[1])).unwrap(); // s1 p2
        (DataPlane::new(t), s, h)
    }

    fn any_fwd(p: usize) -> Rule {
        Rule::new(Wildcard::any(HEADER_WIDTH), 0, Action::Forward(Port(p)))
    }

    #[test]
    fn forwarding_increments_counters_and_delivers() {
        let (mut dp, s, h) = diamond();
        dp.install(s[0], any_fwd(0)); // s0 -> s1
        dp.install(s[1], any_fwd(2)); // s1 -> h1
        let rep = dp.inject(h[0], 0, 500.0, &mut LossModel::none());
        assert_eq!(rep.delivered_to, Some(h[1]));
        assert_eq!(rep.delivered_volume, 500.0);
        assert_eq!(rep.hops, 2);
        assert!(!rep.ttl_exceeded);
        assert_eq!(dp.counter(s[0], 0), 500.0);
        assert_eq!(dp.counter(s[1], 0), 500.0);
    }

    #[test]
    fn table_miss_drops() {
        let (mut dp, _s, h) = diamond();
        let rep = dp.inject(h[0], 0, 100.0, &mut LossModel::none());
        assert_eq!(rep.delivered_to, None);
        assert_eq!(rep.delivered_volume, 0.0);
    }

    #[test]
    fn drop_action_stops_forwarding_but_counts() {
        let (mut dp, s, h) = diamond();
        let r = dp.install(
            s[0],
            Rule::new(Wildcard::any(HEADER_WIDTH), 0, Action::Drop),
        );
        let rep = dp.inject(h[0], 0, 100.0, &mut LossModel::none());
        assert_eq!(rep.delivered_to, None);
        assert_eq!(dp.counter(r.switch, r.index), 100.0);
    }

    #[test]
    fn loss_compounds_per_link() {
        let (mut dp, s, h) = diamond();
        dp.install(s[0], any_fwd(0));
        dp.install(s[1], any_fwd(2));
        // 3 links: h0->s0, s0->s1, s1->h1, each 10% deterministic loss.
        let rep = dp.inject(h[0], 0, 1000.0, &mut LossModel::deterministic(0.1));
        assert!((rep.delivered_volume - 729.0).abs() < 1e-9);
        assert!((dp.counter(s[0], 0) - 900.0).abs() < 1e-9);
        assert!((dp.counter(s[1], 0) - 810.0).abs() < 1e-9);
    }

    #[test]
    fn deviation_changes_counters_downstream() {
        let (mut dp, s, h) = diamond();
        let r0 = dp.install(s[0], any_fwd(0)); // intended: s0 -> s1
        dp.install(s[1], any_fwd(2)); // s1 -> h1
        dp.install(s[2], any_fwd(1)); // s2 -> s1 (benign alternate)
                                      // Compromise s0: deviate to s2.
        let old = dp.modify_rule_action(r0, Action::Forward(Port(1))).unwrap();
        assert_eq!(old, Action::Forward(Port(0)));
        let rep = dp.inject(h[0], 0, 100.0, &mut LossModel::none());
        // Still delivered (via detour) but s2's counter now shows traffic.
        assert_eq!(rep.delivered_to, Some(h[1]));
        assert_eq!(dp.counter(s[2], 0), 100.0);
        assert_eq!(dp.counter(s[0], 0), 100.0); // adversary's counter looks normal
    }

    #[test]
    fn forwarding_loop_hits_ttl() {
        let (mut dp, s, h) = diamond();
        dp.install(s[0], any_fwd(0)); // s0 -> s1
        dp.install(s[1], any_fwd(0)); // s1 -> s0: loop
        let rep = dp.inject(h[0], 0, 10.0, &mut LossModel::none());
        assert!(rep.ttl_exceeded);
        assert_eq!(rep.hops, MAX_HOPS);
        // Counters inflated by the loop.
        assert!(dp.counter(s[0], 0) > 10.0 * 10.0);
    }

    #[test]
    fn forward_to_missing_port_black_holes() {
        let (mut dp, s, h) = diamond();
        dp.install(s[0], any_fwd(9));
        let rep = dp.inject(h[0], 0, 10.0, &mut LossModel::none());
        assert_eq!(rep.delivered_to, None);
        assert!(!rep.ttl_exceeded);
    }

    #[test]
    fn collect_counters_canonical_order() {
        let (mut dp, s, h) = diamond();
        let r0 = dp.install(s[0], any_fwd(0));
        let r1 = dp.install(s[1], any_fwd(2));
        let r2 = dp.install(s[2], any_fwd(1));
        assert_eq!(
            dp.rule_refs().collect::<Vec<_>>(),
            vec![r0, r1, r2],
            "rule refs must be switch-major ordered"
        );
        dp.inject(h[0], 0, 100.0, &mut LossModel::none());
        assert_eq!(dp.collect_counters(), vec![100.0, 100.0, 0.0]);
        dp.reset_counters();
        assert_eq!(dp.collect_counters(), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn noisy_collection_perturbs_counters() {
        let (mut dp, s, h) = diamond();
        dp.install(s[0], any_fwd(0));
        dp.install(s[1], any_fwd(2));
        dp.inject(h[0], 0, 10_000.0, &mut LossModel::none());
        let mut rng = StdRng::seed_from_u64(11);
        let noisy = dp.collect_counters_noisy(50.0, &mut rng);
        let clean = dp.collect_counters();
        assert_eq!(noisy.len(), clean.len());
        assert!(noisy.iter().zip(&clean).any(|(a, b)| a != b));
        // Noise is bounded in probability: 50σ would be absurd.
        for (n, c) in noisy.iter().zip(&clean) {
            assert!((n - c).abs() < 50.0 * 6.0);
        }
    }

    #[test]
    fn modify_rule_validates_reference() {
        let (mut dp, _, _) = diamond();
        let bogus = RuleRef {
            switch: SwitchId(0),
            index: 5,
        };
        assert!(matches!(
            dp.modify_rule_action(bogus, Action::Drop),
            Err(DataPlaneError::UnknownRule(_))
        ));
    }

    #[test]
    fn rule_count_and_lookup() {
        let (mut dp, s, _) = diamond();
        assert_eq!(dp.rule_count(), 0);
        let r = dp.install(s[1], any_fwd(2));
        assert_eq!(dp.rule_count(), 1);
        assert!(dp.rule(r).is_some());
        assert!(dp
            .rule(RuleRef {
                switch: SwitchId(9),
                index: 0
            })
            .is_none());
    }

    #[test]
    fn skewed_collection_scales_per_switch() {
        let (mut dp, s, h) = diamond();
        dp.install(s[0], any_fwd(0));
        dp.install(
            s[0],
            Rule::new(
                Wildcard::exact(HEADER_WIDTH, 1),
                5,
                Action::Forward(Port(0)),
            ),
        );
        dp.install(s[1], any_fwd(2));
        dp.inject(h[0], 0, 1000.0, &mut LossModel::none());
        dp.inject(h[0], 1, 500.0, &mut LossModel::none());
        let mut rng = StdRng::seed_from_u64(3);
        let skewed = dp.collect_counters_skewed(0.05, &mut rng);
        let clean = dp.collect_counters();
        // Both s0 rules share one skew factor.
        let f0 = skewed[0] / clean[0];
        let f1 = skewed[1] / clean[1];
        assert!((f0 - f1).abs() < 1e-12, "same-switch counters share skew");
        assert!(f0 > 0.8 && f0 < 1.2);
        // Zero sigma is the identity.
        assert_eq!(dp.collect_counters_skewed(0.0, &mut rng), clean);
    }

    #[test]
    fn port_counters_track_traffic() {
        let (mut dp, s, h) = diamond();
        dp.install(s[0], any_fwd(0)); // s0 -> s1 via port 0
        dp.install(s[1], any_fwd(2)); // s1 -> h1 via port 2
        dp.inject(h[0], 0, 1000.0, &mut LossModel::deterministic(0.1));
        // h0 link loss: 900 arrives at s0 port 2 (its host port).
        assert!((dp.port_rx(s[0])[2] - 900.0).abs() < 1e-9);
        // s0 transmits 900 on port 0; s1 receives 810 on its port 0.
        assert!((dp.port_tx(s[0])[0] - 900.0).abs() < 1e-9);
        assert!((dp.port_rx(s[1])[0] - 810.0).abs() < 1e-9);
        // s1 transmits 810 toward the host.
        assert!((dp.port_tx(s[1])[2] - 810.0).abs() < 1e-9);
        // Per-switch conservation holds in the healthy network.
        let rx: f64 = dp.port_rx(s[1]).iter().sum();
        let tx: f64 = dp.port_tx(s[1]).iter().sum();
        assert!((rx - tx).abs() < 1e-9);
        dp.reset_counters();
        assert!(dp.port_rx(s[0]).iter().all(|&v| v == 0.0));
        assert!(dp.port_tx(s[1]).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn drop_breaks_port_conservation() {
        let (mut dp, s, h) = diamond();
        dp.install(
            s[0],
            Rule::new(Wildcard::any(HEADER_WIDTH), 0, Action::Drop),
        );
        dp.inject(h[0], 0, 100.0, &mut LossModel::none());
        let rx: f64 = dp.port_rx(s[0]).iter().sum();
        let tx: f64 = dp.port_tx(s[0]).iter().sum();
        assert_eq!(rx, 100.0);
        assert_eq!(tx, 0.0);
    }

    #[test]
    fn rule_ref_display() {
        let r = RuleRef {
            switch: SwitchId(3),
            index: 7,
        };
        assert_eq!(r.to_string(), "s3#r7");
    }
}
