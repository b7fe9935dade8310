use crate::SlicedVerdict;
use foces_net::SwitchId;
use std::fmt;

/// A switch ranked by how suspicious its slice looked in one detection
/// round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchSuspicion {
    /// The switch.
    pub switch: SwitchId,
    /// Its slice's anomaly index.
    pub anomaly_index: f64,
    /// Whether the slice exceeded the detection threshold.
    pub flagged: bool,
}

impl fmt::Display for SwitchSuspicion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "s{} (AI = {:.2}{})",
            self.switch.0,
            self.anomaly_index,
            if self.flagged { ", flagged" } else { "" }
        )
    }
}

/// Ranks switches by per-slice anomaly index, most suspicious first.
///
/// This implements the paper's future-work extension (§IV-B, end): "if the
/// anomaly index for one switch is high, then it is possible that this
/// switch or its last hop is responsible for the forwarding anomalies."
/// A slice flags when the anomaly disturbs counters *inside that slice* —
/// i.e. at the compromised switch itself or its immediate neighborhood —
/// so the top-ranked switches form a small candidate set containing the
/// culprit's vicinity.
///
/// Infinite anomaly indices (noiseless detections) sort above all finite
/// ones; ties keep slice order (ascending switch id).
///
/// # Example
///
/// ```
/// use foces::{localize, Detector, Fcm, SlicedFcm};
/// use foces_controlplane::{provision, uniform_flows, RuleGranularity};
/// use foces_dataplane::{inject_random_anomaly, AnomalyKind, LossModel};
/// use foces_net::generators::bcube;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let topo = bcube(1, 4);
/// let flows = uniform_flows(&topo, 240_000.0);
/// let mut dep = provision(topo, &flows, RuleGranularity::PerDestination)?;
/// let sliced = SlicedFcm::from_fcm(&Fcm::from_view(&dep.view));
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// inject_random_anomaly(&mut dep.dataplane, AnomalyKind::PathDeviation, &mut rng, &[]);
/// dep.replay_traffic(&mut LossModel::none());
/// let verdict = sliced.detect(&Detector::default(), &dep.dataplane.collect_counters())?;
/// let ranking = localize(&verdict);
/// assert!(ranking[0].flagged);
/// # Ok(())
/// # }
/// ```
pub fn localize(verdict: &SlicedVerdict) -> Vec<SwitchSuspicion> {
    let mut ranking: Vec<SwitchSuspicion> = verdict
        .per_switch
        .iter()
        .map(|(switch, v)| SwitchSuspicion {
            switch: *switch,
            anomaly_index: v.anomaly_index,
            flagged: v.anomalous,
        })
        .collect();
    // Stable sort: equal indices keep ascending-switch order.
    ranking.sort_by(|a, b| {
        b.anomaly_index
            .partial_cmp(&a.anomaly_index)
            .expect("anomaly indices are never NaN")
    });
    ranking
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Detector, Fcm, SlicedFcm};
    use foces_controlplane::{provision, uniform_flows, RuleGranularity};
    use foces_dataplane::{inject_random_anomaly, AnomalyKind, LossModel};
    use foces_net::generators::bcube;
    use foces_net::Node;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn culprit_neighborhood_is_top_ranked() {
        // Over several seeds, the compromised switch (or a direct neighbor,
        // where the counter discrepancy physically appears) must rank in
        // the top three suspicions.
        let mut hits = 0;
        let total = 8;
        for seed in 0..total {
            let topo = bcube(1, 4);
            let flows = uniform_flows(&topo, 240_000.0);
            let mut dep = provision(topo, &flows, RuleGranularity::PerDestination).unwrap();
            let sliced = SlicedFcm::from_fcm(&Fcm::from_view(&dep.view));
            let mut rng = StdRng::seed_from_u64(seed);
            let applied = inject_random_anomaly(
                &mut dep.dataplane,
                AnomalyKind::PathDeviation,
                &mut rng,
                &[],
            )
            .unwrap();
            dep.replay_traffic(&mut LossModel::none());
            let verdict = sliced
                .detect(&Detector::default(), &dep.dataplane.collect_counters())
                .unwrap();
            if !verdict.anomalous {
                continue; // undetectable deviation; nothing to localize
            }
            let ranking = localize(&verdict);
            let culprit = applied.rule.switch;
            let neighbors: Vec<foces_net::SwitchId> = dep
                .view
                .topology()
                .adj(Node::Switch(culprit))
                .iter()
                .filter_map(|a| match a.neighbor {
                    Node::Switch(s) => Some(s),
                    Node::Host(_) => None,
                })
                .collect();
            let top3: Vec<foces_net::SwitchId> = ranking.iter().take(3).map(|s| s.switch).collect();
            if top3.contains(&culprit) || top3.iter().any(|s| neighbors.contains(s)) {
                hits += 1;
            }
        }
        assert!(hits >= total - 2, "localization hit only {hits}/{total}");
    }

    #[test]
    fn ranking_is_sorted_descending() {
        let topo = bcube(1, 4);
        let flows = uniform_flows(&topo, 240_000.0);
        let mut dep = provision(topo, &flows, RuleGranularity::PerDestination).unwrap();
        let sliced = SlicedFcm::from_fcm(&Fcm::from_view(&dep.view));
        let mut loss = LossModel::sampled(0.05, 9);
        dep.replay_traffic(&mut loss);
        let verdict = sliced
            .detect(&Detector::default(), &dep.dataplane.collect_counters())
            .unwrap();
        let ranking = localize(&verdict);
        for w in ranking.windows(2) {
            assert!(w[0].anomaly_index >= w[1].anomaly_index);
        }
        assert_eq!(ranking.len(), sliced.slice_count());
    }

    #[test]
    fn suspicion_display() {
        let s = SwitchSuspicion {
            switch: foces_net::SwitchId(4),
            anomaly_index: 7.25,
            flagged: true,
        };
        let txt = s.to_string();
        assert!(txt.contains("s4"));
        assert!(txt.contains("flagged"));
    }
}
