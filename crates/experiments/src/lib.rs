//! Shared harness for the experiment binaries that regenerate the paper's
//! tables and figures (one binary per table/figure, see `src/bin/`).
//!
//! The harness mirrors the paper's Mininet/Floodlight testbed (§VI-B):
//!
//! * the four topologies of Table I (plus FatTree(8) for Fig. 12);
//! * one flow per ordered host pair, uniform rates, fixed aggregate volume;
//! * per-flow rules ([`RuleGranularity::PerFlowPair`]) by default — the
//!   behaviour of Floodlight's reactive forwarding, and the regime in which
//!   the paper's folded-normal threshold analysis (healthy anomaly index
//!   below ≈ 4.4) holds; per-destination aggregation is exercised as an
//!   ablation;
//! * anomalies injected by randomly rewriting rule actions, detection run
//!   on freshly collected counters each round.

mod baselines;
mod golden;
mod localize;
mod report;

pub use baselines::{solve_cgls, solve_dense_naive};
pub use golden::{diff_csv, GoldenPolicy};
pub use localize::localize_differential;
pub use report::{column, parse_csv, AsciiChart, Series};

use foces::{Detector, Fcm, SlicedFcm};
use foces_controlplane::{provision, uniform_flows, Deployment, RuleGranularity};
use foces_dataplane::{inject_random_anomaly, AnomalyKind, AppliedAnomaly, DataPlane, LossModel};
use foces_net::generators::{bcube, dcell, fattree, stanford};
use foces_net::Topology;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Packets per flow per collection interval used across experiments
/// (≈ a 2 Mb/s flow of 1500 B packets over the paper's 5 s interval).
pub const FLOW_RATE: f64 = 1000.0;

/// The counter-collection noise model used across experiments: 2 %
/// per-switch polling skew (±100 ms spread on a 5 s interval — the
/// statistics collector reads switches sequentially while traffic flows)
/// plus 0.5 % independent per-rule read jitter. See
/// [`foces_dataplane::CollectionNoise`].
pub fn collection_noise() -> foces_dataplane::CollectionNoise {
    foces_dataplane::CollectionNoise::default()
}

/// The four evaluation topologies of Table I.
pub fn paper_topologies() -> Vec<(&'static str, Topology)> {
    // Labels are comma-free so the experiment CSVs stay strictly parseable.
    vec![
        ("Stanford", stanford()),
        ("FatTree4", fattree(4)),
        ("BCube14", bcube(1, 4)),
        ("DCell14", dcell(1, 4)),
    ]
}

/// A provisioned network plus the FOCES structures built from its
/// controller view — everything one experiment trial needs.
pub struct Testbed {
    /// The provisioned deployment (data plane + controller view + flows).
    pub dep: Deployment,
    /// The flow-counter matrix built from the view.
    pub fcm: Fcm,
    /// The per-switch sliced FCM.
    pub sliced: SlicedFcm,
}

impl Testbed {
    /// Provisions `topo` with the all-pairs workload at [`FLOW_RATE`] per
    /// flow and builds the FCM and its slices.
    ///
    /// # Panics
    ///
    /// Panics if provisioning fails — the bundled topologies always route.
    pub fn build(topo: Topology, granularity: RuleGranularity) -> Self {
        let flows = uniform_flows(
            &topo,
            topo.host_count() as f64 * (topo.host_count() as f64 - 1.0) * FLOW_RATE,
        );
        let dep = provision(topo, &flows, granularity).expect("paper topologies provision");
        let fcm = Fcm::from_view(&dep.view);
        let sliced = SlicedFcm::from_fcm(&fcm);
        Testbed { dep, fcm, sliced }
    }

    /// One collection round on a **clone** of the data plane: optionally
    /// inject `modified_rules` random path deviations, replay all traffic
    /// under the given loss rate, and return the collected counter vector
    /// together with the applied anomalies.
    ///
    /// Cloning keeps the testbed reusable across trials; `seed` makes every
    /// trial reproducible.
    pub fn round(
        &self,
        loss_rate: f64,
        modified_rules: usize,
        seed: u64,
    ) -> (Vec<f64>, Vec<AppliedAnomaly>) {
        let mut dp = self.dep.dataplane.clone();
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
        let mut applied = Vec::new();
        for _ in 0..modified_rules {
            if let Some(a) =
                inject_random_anomaly(&mut dp, AnomalyKind::PathDeviation, &mut rng, &[])
            {
                applied.push(a);
            }
        }
        let counters = replay(&mut dp, &self.dep, loss_rate, seed);
        (counters, applied)
    }

    /// The baseline (Algorithm 1) anomaly index for a counter vector.
    ///
    /// # Panics
    ///
    /// Panics on solver failure — counters from [`Testbed::round`] always
    /// match the FCM.
    pub fn anomaly_index(&self, counters: &[f64]) -> f64 {
        Detector::default()
            .detect(&self.fcm, counters)
            .expect("testbed counters match the FCM")
            .anomaly_index
    }

    /// The sliced (Algorithm 2) maximum per-switch anomaly index.
    ///
    /// # Panics
    ///
    /// Panics on solver failure.
    pub fn sliced_anomaly_index(&self, counters: &[f64]) -> f64 {
        self.sliced
            .detect(&Detector::default(), counters)
            .expect("testbed counters match the FCM")
            .max_anomaly_index()
    }
}

/// Replays the deployment's flows through `dp` with sampled loss and
/// returns the collected counters. Exposed for binaries that manage their
/// own data-plane mutations (Fig. 7's timeline).
pub fn replay(dp: &mut DataPlane, dep: &Deployment, loss_rate: f64, seed: u64) -> Vec<f64> {
    let mut loss = if loss_rate > 0.0 {
        LossModel::sampled(loss_rate, seed.wrapping_mul(31).wrapping_add(7))
    } else {
        LossModel::none()
    };
    dp.reset_counters();
    for f in &dep.flows {
        let header = foces_dataplane::pair_header(f.src, f.dst);
        dp.inject(f.src, header, f.rate, &mut loss);
    }
    let mut sync_rng = StdRng::seed_from_u64(seed.wrapping_mul(0x5DEECE66D).wrapping_add(11));
    dp.collect_counters_realistic(&collection_noise(), &mut sync_rng)
}

/// Classification counts over a set of labelled trials.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Confusion {
    /// Anomalous trials flagged anomalous.
    pub tp: usize,
    /// Normal trials flagged anomalous.
    pub fp: usize,
    /// Normal trials passed as normal.
    pub tn: usize,
    /// Anomalous trials missed.
    pub fn_: usize,
}

impl Confusion {
    /// Builds the confusion counts for a threshold over labelled anomaly
    /// indices (`(index, is_anomalous)` pairs).
    pub fn at_threshold(samples: &[(f64, bool)], threshold: f64) -> Self {
        let mut c = Confusion::default();
        for &(ai, anomalous) in samples {
            match (ai > threshold, anomalous) {
                (true, true) => c.tp += 1,
                (true, false) => c.fp += 1,
                (false, false) => c.tn += 1,
                (false, true) => c.fn_ += 1,
            }
        }
        c
    }

    /// True-positive rate (recall); 0 when there are no positives.
    pub fn tpr(&self) -> f64 {
        ratio(self.tp, self.tp + self.fn_)
    }

    /// False-positive rate; 0 when there are no negatives.
    pub fn fpr(&self) -> f64 {
        ratio(self.fp, self.fp + self.tn)
    }

    /// Precision TP/(TP+FP); 1 when nothing was flagged (vacuous).
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            1.0
        } else {
            ratio(self.tp, self.tp + self.fp)
        }
    }

    /// Accuracy (TP+TN)/(P+N) — the paper's Fig. 10/11 metric.
    pub fn accuracy(&self) -> f64 {
        ratio(self.tp + self.tn, self.tp + self.fp + self.tn + self.fn_)
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusion_counts_and_rates() {
        let samples = [(10.0, true), (1.0, true), (0.5, false), (9.0, false)];
        let c = Confusion::at_threshold(&samples, 4.5);
        assert_eq!(
            c,
            Confusion {
                tp: 1,
                fp: 1,
                tn: 1,
                fn_: 1
            }
        );
        assert_eq!(c.tpr(), 0.5);
        assert_eq!(c.fpr(), 0.5);
        assert_eq!(c.precision(), 0.5);
        assert_eq!(c.accuracy(), 0.5);
    }

    #[test]
    fn empty_denominators_are_safe() {
        let c = Confusion::default();
        assert_eq!(c.tpr(), 0.0);
        assert_eq!(c.fpr(), 0.0);
        assert_eq!(c.precision(), 1.0);
        assert_eq!(c.accuracy(), 0.0);
    }

    #[test]
    fn testbed_round_is_reproducible() {
        let tb = Testbed::build(bcube(1, 4), RuleGranularity::PerFlowPair);
        let (c1, a1) = tb.round(0.05, 1, 42);
        let (c2, a2) = tb.round(0.05, 1, 42);
        assert_eq!(c1, c2);
        assert_eq!(a1, a2);
        let (c3, _) = tb.round(0.05, 1, 43);
        assert_ne!(c1, c3);
    }

    #[test]
    fn healthy_and_anomalous_indices_separate() {
        let tb = Testbed::build(bcube(1, 4), RuleGranularity::PerFlowPair);
        let (healthy, _) = tb.round(0.05, 0, 1);
        let (bad, applied) = tb.round(0.05, 1, 1);
        assert_eq!(applied.len(), 1);
        assert!(tb.anomaly_index(&healthy) < 4.5);
        assert!(tb.anomaly_index(&bad) > 4.5);
        assert!(tb.sliced_anomaly_index(&bad) > 4.5);
    }
}
