//! Per-flow differential localization, the counter walk the localization
//! study compares against slice ranking ([`foces::localize`]).

use foces::{Fcm, SwitchSuspicion};
use foces_net::SwitchId;
use std::collections::BTreeMap;

/// Per-flow **differential localization**: for every flow whose counters
/// break conservation, find the first hop where the observed volume jumps,
/// and charge the switch *upstream* of the jump.
///
/// Rationale: under a path deviation or early drop at switch `S`, the
/// flow's counters read normally up to and including `S` (the adversary's
/// own counter still increments) and collapse from the next intended hop
/// onward — so the last rule with a healthy counter sits **on the culprit**.
/// Counter inflation (detours) is charged the same way, to the switch
/// upstream of the first inflated rule.
///
/// This complements [`foces::localize`] (slice ranking): slices name the
/// *vicinity* where conservation physically broke (often the redirection
/// target); the differential walk names the hop that *caused* it. It is
/// sharpest with per-flow rules, where each rule's counter isolates one
/// flow; with aggregated rules the per-rule expectation mixes flows and the
/// signal blurs.
///
/// `rel_tol` is the relative discrepancy treated as a jump (e.g. `0.1`
/// to tolerate 10 % loss-and-noise drift per hop). Returns switches scored
/// by total discrepancy volume charged to them, highest first; equal
/// charges keep ascending switch order.
///
/// # Example
///
/// ```
/// use foces::Fcm;
/// use foces_experiments::localize_differential;
/// use foces_controlplane::{provision, uniform_flows, RuleGranularity};
/// use foces_dataplane::{inject_random_anomaly, AnomalyKind, LossModel};
/// use foces_net::generators::bcube;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let topo = bcube(1, 4);
/// let flows = uniform_flows(&topo, 240_000.0);
/// let mut dep = provision(topo, &flows, RuleGranularity::PerFlowPair)?;
/// let fcm = Fcm::from_view(&dep.view);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let attack =
///     inject_random_anomaly(&mut dep.dataplane, AnomalyKind::PathDeviation, &mut rng, &[])
///         .unwrap();
/// dep.replay_traffic(&mut LossModel::none());
/// let ranking = localize_differential(&fcm, &dep.dataplane.collect_counters(), 0.1);
/// assert_eq!(ranking[0].switch, attack.rule.switch); // names the culprit
/// # Ok(())
/// # }
/// ```
pub fn localize_differential(fcm: &Fcm, counters: &[f64], rel_tol: f64) -> Vec<SwitchSuspicion> {
    assert_eq!(
        counters.len(),
        fcm.rule_count(),
        "counter vector must match the FCM"
    );
    let mut charge: BTreeMap<SwitchId, f64> = BTreeMap::new();
    for j in 0..fcm.flow_count() {
        // Walk the flow's rules in path order, comparing consecutive
        // counters. (Aggregated rules mix flows; the walk still works but
        // the discrepancy estimate is an upper bound.)
        //
        // Volume-LOSS jumps dominate: a deviating/dropping switch keeps its
        // own counter plausible and starves its intended successor, so the
        // upstream side of the first loss is the culprit. This holds even
        // when the deviation creates a forwarding loop — looped volume
        // inflates counters *upstream* of the culprit, but the culprit's
        // intended successor still reads ~0, and that loss boundary wins.
        // Only when a flow shows no loss anywhere (pure inflation) is the
        // first inflated rule's switch charged instead.
        let mut first_loss: Option<(SwitchId, f64)> = None;
        let mut first_inflation: Option<(SwitchId, f64)> = None;
        for pair in fcm.flow_rows(j).windows(2) {
            let (up, down) = (counters[pair[0]], counters[pair[1]]);
            if up - down > rel_tol * up.max(1.0) {
                first_loss = Some((fcm.rules()[pair[0]].switch, up - down));
                break; // everything after a loss is collateral
            }
            if first_inflation.is_none() && down - up > rel_tol * up.max(1.0) {
                first_inflation = Some((fcm.rules()[pair[1]].switch, down - up));
            }
        }
        if let Some((switch, jump)) = first_loss.or(first_inflation) {
            *charge.entry(switch).or_insert(0.0) += jump;
        }
    }
    let mut ranking: Vec<SwitchSuspicion> = charge
        .into_iter()
        .map(|(switch, volume)| SwitchSuspicion {
            switch,
            anomaly_index: volume,
            flagged: true,
        })
        .collect();
    ranking.sort_by(|a, b| {
        b.anomaly_index
            .partial_cmp(&a.anomaly_index)
            .expect("charges are never NaN")
    });
    ranking
}

#[cfg(test)]
mod tests {
    use super::*;
    use foces_controlplane::{provision, uniform_flows, RuleGranularity};
    use foces_dataplane::{inject_random_anomaly, AnomalyKind, LossModel};
    use foces_net::generators::bcube;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn differential_localization_names_the_culprit() {
        // Over many seeds and both anomaly kinds, the differential walk
        // must put the compromised switch at rank 1 (lossless, per-pair
        // rules: the jump is exact).
        for kind in [AnomalyKind::PathDeviation, AnomalyKind::EarlyDrop] {
            for seed in 0..8 {
                let topo = bcube(1, 4);
                let flows = uniform_flows(&topo, 240_000.0);
                let mut dep = provision(topo, &flows, RuleGranularity::PerFlowPair).unwrap();
                let fcm = Fcm::from_view(&dep.view);
                let mut rng = StdRng::seed_from_u64(seed);
                let attack =
                    inject_random_anomaly(&mut dep.dataplane, kind, &mut rng, &[]).unwrap();
                dep.replay_traffic(&mut LossModel::none());
                let ranking = localize_differential(&fcm, &dep.dataplane.collect_counters(), 0.1);
                assert_eq!(
                    ranking.first().map(|s| s.switch),
                    Some(attack.rule.switch),
                    "{kind} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn differential_localization_survives_moderate_loss() {
        let topo = bcube(1, 4);
        let flows = uniform_flows(&topo, 240_000.0);
        let mut dep = provision(topo, &flows, RuleGranularity::PerFlowPair).unwrap();
        let fcm = Fcm::from_view(&dep.view);
        let mut rng = StdRng::seed_from_u64(5);
        let attack = inject_random_anomaly(
            &mut dep.dataplane,
            AnomalyKind::PathDeviation,
            &mut rng,
            &[],
        )
        .unwrap();
        let mut loss = LossModel::sampled(0.05, 9);
        dep.replay_traffic(&mut loss);
        // 5% per-hop loss needs a tolerance above it; 10% works.
        let ranking = localize_differential(&fcm, &dep.dataplane.collect_counters(), 0.10);
        assert_eq!(ranking.first().map(|s| s.switch), Some(attack.rule.switch));
    }

    #[test]
    fn differential_localization_quiet_on_healthy_network() {
        let topo = bcube(1, 4);
        let flows = uniform_flows(&topo, 240_000.0);
        let mut dep = provision(topo, &flows, RuleGranularity::PerFlowPair).unwrap();
        let fcm = Fcm::from_view(&dep.view);
        let mut loss = LossModel::sampled(0.03, 2);
        dep.replay_traffic(&mut loss);
        let ranking = localize_differential(&fcm, &dep.dataplane.collect_counters(), 0.10);
        assert!(
            ranking.is_empty(),
            "no flow should jump past tolerance: {ranking:?}"
        );
    }
}
