//! Per-switch FCM slicing (paper §IV-B, Algorithm 2).
//!
//! A slice is the region shard of a one-switch region: [`SlicedFcm`] is a
//! [`ShardedFcm`] over [`Partition::per_switch`], re-labelled by switch.
//! The paper's definition of the slice rule set, the switch's RBG
//! ([`Rbg::slicing_rules`](crate::Rbg::slicing_rules)), is the reference
//! the shard constructor is tested against.

use crate::{Detector, Fcm, FocesError, ShardedFcm, Verdict};
use foces_net::{Partition, SwitchId};
use std::fmt;

/// The sliced flow-counter matrix of paper §IV-B: one sub-FCM per switch,
/// enabling Algorithm 2's per-switch detection with `O(n³)`-per-slice cost
/// instead of one network-sized inversion. A switch's slice holds `R(S)`
/// (its rules plus their predecessor rules, from the switch's RBG) and
/// `F(S)` (the flows touching any rule of `R(S)`).
///
/// By Theorem 3, every anomaly detectable by the whole-network Algorithm 1
/// remains detectable by slicing; experiments (paper Fig. 10/11) show
/// slicing can even *improve* accuracy because benign noise elsewhere in
/// the network no longer dilutes a slice's anomaly index.
///
/// # Example
///
/// ```
/// use foces::{Detector, Fcm, SlicedFcm};
/// use foces_controlplane::{provision, uniform_flows, RuleGranularity};
/// use foces_dataplane::LossModel;
/// use foces_net::generators::bcube;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let topo = bcube(1, 4);
/// let flows = uniform_flows(&topo, 240_000.0);
/// let mut dep = provision(topo, &flows, RuleGranularity::PerDestination)?;
/// let fcm = Fcm::from_view(&dep.view);
/// let sliced = SlicedFcm::from_fcm(&fcm);
/// dep.replay_traffic(&mut LossModel::none());
/// let verdict = sliced.detect(&Detector::default(), &dep.dataplane.collect_counters())?;
/// assert!(!verdict.anomalous);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SlicedFcm {
    sharded: ShardedFcm,
}

/// Outcome of one sliced detection round (Algorithm 2, evaluated on every
/// switch rather than short-circuiting, so the per-switch indices are
/// available for localization).
#[derive(Debug, Clone, PartialEq)]
pub struct SlicedVerdict {
    /// `true` iff any switch's slice flagged an anomaly.
    pub anomalous: bool,
    /// Per-switch verdicts, in slice order.
    pub per_switch: Vec<(SwitchId, Verdict)>,
}

impl SlicedVerdict {
    /// The largest per-switch anomaly index (0 if there are no slices).
    pub fn max_anomaly_index(&self) -> f64 {
        self.per_switch
            .iter()
            .map(|(_, v)| v.anomaly_index)
            .fold(0.0, f64::max)
    }

    /// Switches whose slice exceeded the threshold.
    pub fn flagged_switches(&self) -> Vec<SwitchId> {
        self.per_switch
            .iter()
            .filter(|(_, v)| v.anomalous)
            .map(|(s, _)| *s)
            .collect()
    }
}

impl fmt::Display for SlicedVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} slices, max AI = {:.2}, flagged: {:?})",
            if self.anomalous { "ANOMALY" } else { "normal" },
            self.per_switch.len(),
            self.max_anomaly_index(),
            self.flagged_switches()
        )
    }
}

impl SlicedFcm {
    /// Slices an FCM per switch. Switches whose slice would be empty (no
    /// rule matched by any flow) are skipped.
    pub fn from_fcm(fcm: &Fcm) -> Self {
        let switches = fcm
            .rules()
            .iter()
            .map(|r| r.switch.0 + 1)
            .max()
            .unwrap_or(0);
        SlicedFcm {
            sharded: ShardedFcm::from_fcm(fcm, &Partition::per_switch(switches)),
        }
    }

    /// The slices as region shards, one single-switch region each — the
    /// unit of work for parallel sliced detection.
    pub fn sharded(&self) -> &ShardedFcm {
        &self.sharded
    }

    /// Number of slices (switches with at least one matched rule).
    pub fn slice_count(&self) -> usize {
        self.sharded.shard_count()
    }

    /// The switches with slices, in ascending order (slice order).
    pub fn switches(&self) -> impl Iterator<Item = SwitchId> + '_ {
        self.slice_dims().into_iter().map(|(s, _, _)| s)
    }

    /// Dimensions `(rules, flows)` of each slice's sub-FCM — the quantity
    /// the paper's complexity analysis is about (sub-FCMs are much smaller
    /// than the global FCM).
    pub fn slice_dims(&self) -> Vec<(SwitchId, usize, usize)> {
        // Region `i` of the per-switch partition is switch `i`.
        self.sharded
            .shard_dims()
            .into_iter()
            .map(|(region, rules, flows)| (SwitchId(region), rules, flows))
            .collect()
    }

    /// The parent FCM's rule count (the expected counter-vector length).
    pub fn parent_rule_count(&self) -> usize {
        self.sharded.parent_rule_count()
    }

    /// Runs Algorithm 2: applies the detector to every slice with its sub
    /// counter vector.
    ///
    /// # Errors
    ///
    /// * [`FocesError::CounterLengthMismatch`] if `counters` does not match
    ///   the parent FCM's rule count;
    /// * solver errors from any slice, in slice order.
    pub fn detect(
        &self,
        detector: &Detector,
        counters: &[f64],
    ) -> Result<SlicedVerdict, FocesError> {
        let union = self.sharded.detect(detector, counters)?;
        Ok(SlicedVerdict {
            anomalous: union.anomalous,
            per_switch: self
                .switches()
                .zip(union.per_shard)
                .map(|(s, (_, v))| (s, v))
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::paper_fig2_fcm;
    use foces_controlplane::{provision, uniform_flows, RuleGranularity};
    use foces_dataplane::{inject_random_anomaly, AnomalyKind, LossModel};
    use foces_net::generators::{bcube, fattree};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    fn setup(topo: foces_net::Topology) -> (Fcm, SlicedFcm, foces_controlplane::Deployment) {
        let flows = uniform_flows(&topo, topo.host_count() as f64 * 15_000.0);
        let dep = provision(topo, &flows, RuleGranularity::PerDestination).unwrap();
        let fcm = Fcm::from_view(&dep.view);
        let sliced = SlicedFcm::from_fcm(&fcm);
        (fcm, sliced, dep)
    }

    #[test]
    fn paper_fig5_sub_fcm_shape() {
        // Fig. 5: the sub-FCM for S2 of Fig. 2 is 4x3 (rules r2, r3, r5?,
        // r6... precisely: R(S2) = {r3} ∪ predecessors {r2} — in our
        // one-rule-per-switch testkit encoding: rule row 2 and its
        // predecessor row 1, flows a and b).
        let fcm = paper_fig2_fcm();
        let sliced = SlicedFcm::from_fcm(&fcm);
        // Switch 2 (rule r3) slice: rules {r3, r2}, flows {a, b}.
        let dims = sliced.slice_dims();
        let s2 = dims.iter().find(|(s, _, _)| s.0 == 2).unwrap();
        assert_eq!(s2.1, 2, "rules in S2 slice");
        assert_eq!(s2.2, 2, "flows in S2 slice");
    }

    #[test]
    fn healthy_network_not_flagged_by_slicing() {
        let (_, sliced, mut dep) = setup(bcube(1, 4));
        dep.replay_traffic(&mut LossModel::none());
        let v = sliced
            .detect(&Detector::default(), &dep.dataplane.collect_counters())
            .unwrap();
        assert!(!v.anomalous, "{v}");
        assert!(v.flagged_switches().is_empty());
    }

    #[test]
    fn theorem3_slicing_detects_what_baseline_detects() {
        // Inject anomalies; whenever the baseline flags, slicing must flag
        // too (Theorem 3).
        let detector = Detector::default();
        for seed in 0..10 {
            let (fcm, sliced, mut dep) = setup(bcube(1, 4));
            let mut rng = StdRng::seed_from_u64(seed);
            inject_random_anomaly(
                &mut dep.dataplane,
                AnomalyKind::PathDeviation,
                &mut rng,
                &[],
            )
            .unwrap();
            dep.replay_traffic(&mut LossModel::none());
            let counters = dep.dataplane.collect_counters();
            let baseline = detector.detect(&fcm, &counters).unwrap();
            let sliced_v = sliced.detect(&detector, &counters).unwrap();
            if baseline.anomalous {
                assert!(
                    sliced_v.anomalous,
                    "seed {seed}: baseline detected but slicing missed"
                );
            }
        }
    }

    #[test]
    fn flagged_switch_is_near_the_compromise() {
        let (_, sliced, mut dep) = setup(fattree(4));
        let mut rng = StdRng::seed_from_u64(12);
        let applied = inject_random_anomaly(
            &mut dep.dataplane,
            AnomalyKind::PathDeviation,
            &mut rng,
            &[],
        )
        .unwrap();
        dep.replay_traffic(&mut LossModel::none());
        let v = sliced
            .detect(&Detector::default(), &dep.dataplane.collect_counters())
            .unwrap();
        assert!(v.anomalous);
        assert!(!v.flagged_switches().is_empty());
        let _ = applied; // the compromised switch itself may or may not flag;
                         // localization quality is asserted in localize tests
    }

    #[test]
    fn slice_dimensions_are_smaller_than_parent() {
        let (fcm, sliced, _) = setup(fattree(4));
        for (_, rules, flows) in sliced.slice_dims() {
            assert!(rules <= fcm.rule_count());
            assert!(flows <= fcm.flow_count());
            assert!(rules > 0);
            assert!(flows > 0);
        }
        // Total slice area is far below #slices * parent area.
        let parent_area = fcm.rule_count() * fcm.flow_count();
        let total_slice_area: usize = sliced.slice_dims().iter().map(|(_, r, f)| r * f).sum();
        assert!(
            total_slice_area < parent_area * sliced.slice_count() / 4,
            "slices should be much smaller: {total_slice_area} vs parent {parent_area}"
        );
    }

    #[test]
    fn counter_length_validated() {
        let (_, sliced, _) = setup(bcube(1, 4));
        let err = sliced
            .detect(&Detector::default(), &[1.0, 2.0])
            .unwrap_err();
        assert!(matches!(err, FocesError::CounterLengthMismatch { .. }));
    }

    #[test]
    fn every_switch_with_rules_gets_a_slice() {
        let (fcm, sliced, _) = setup(bcube(1, 4));
        let switches_with_rules: BTreeSet<SwitchId> =
            fcm.rules().iter().map(|r| r.switch).collect();
        assert_eq!(sliced.slice_count(), switches_with_rules.len());
    }

    #[test]
    fn display_mentions_slices() {
        let (_, sliced, mut dep) = setup(bcube(1, 4));
        dep.replay_traffic(&mut LossModel::none());
        let v = sliced
            .detect(&Detector::default(), &dep.dataplane.collect_counters())
            .unwrap();
        assert!(v.to_string().contains("slices"));
    }
}
