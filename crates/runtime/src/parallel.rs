//! Parallel slice solving.
//!
//! Every per-switch slice of the paper's §IV-B is an *independent*
//! least-squares problem. [`detect_parallel`] runs the slices of a
//! [`SlicedFcm`] as tasks on the work-stealing [`pool`](crate::pool) that
//! also runs the cluster's shards, and reassembles the verdicts in slice
//! order, so the result is **identical** to the sequential
//! [`SlicedFcm::detect`]: the same slices run the same solver on the same
//! numbers, only on different threads.

use crate::pool::{run_tasks, PoolConfig, TaskOutcome};
use foces::{Detector, FocesError, SlicedFcm, SlicedVerdict};

/// Runs sliced detection with up to `workers` threads.
///
/// `0` and `1` both solve every slice inline on the calling thread, as
/// does a system with at most one slice; otherwise `min(workers, slices)`
/// pool workers share the slices. (The pool's own [`PoolConfig::workers`]
/// reads `0` as "one per task"; this function never passes it `0`.)
///
/// # Errors
///
/// As the sequential path: the counter-length check comes first, and a
/// failing slice solve surfaces as the first failing slice's error in
/// slice order.
///
/// # Panics
///
/// Re-raises a slice solve's panic on a worker, naming its switch.
pub fn detect_parallel(
    sliced: &SlicedFcm,
    detector: &Detector,
    counters: &[f64],
    workers: usize,
) -> Result<SlicedVerdict, FocesError> {
    let slices = sliced.slice_count();
    if counters.len() != sliced.parent_rule_count() || workers <= 1 || slices <= 1 {
        return sliced.detect(detector, counters);
    }
    let workers = workers.min(slices);
    let views = sliced.sharded().shard_views();
    let tasks: Vec<_> = views
        .iter()
        .map(|view| move || view.detect(detector, counters))
        .collect();
    // Deques deep enough to seed every slice at once: the task list is
    // fixed, so backpressure would only stall the seeding thread.
    let (runs, _) = run_tasks(
        tasks,
        PoolConfig {
            workers,
            queue_capacity: slices.div_ceil(workers),
            deadline: None,
        },
    );
    let mut per_switch = Vec::with_capacity(slices);
    for (switch, run) in sliced.switches().zip(runs) {
        match run.outcome {
            TaskOutcome::Done(verdict) => per_switch.push((switch, verdict?)),
            TaskOutcome::Panicked { message } => {
                panic!("slice solve for switch s{} panicked: {message}", switch.0)
            }
        }
    }
    Ok(SlicedVerdict {
        anomalous: per_switch.iter().any(|(_, v)| v.anomalous),
        per_switch,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use foces::Fcm;
    use foces_controlplane::{provision, uniform_flows, RuleGranularity};
    use foces_dataplane::{inject_random_anomaly, AnomalyKind, LossModel};
    use foces_net::generators::bcube;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(loss: f64, seed: u64) -> (SlicedFcm, Vec<f64>) {
        let topo = bcube(1, 4);
        let flows = uniform_flows(&topo, 240_000.0);
        let mut dep = provision(topo, &flows, RuleGranularity::PerFlowPair).unwrap();
        let fcm = Fcm::from_view(&dep.view);
        let sliced = SlicedFcm::from_fcm(&fcm);
        let mut loss = if loss > 0.0 {
            LossModel::sampled(loss, seed)
        } else {
            LossModel::none()
        };
        dep.replay_traffic(&mut loss);
        (sliced, dep.dataplane.collect_counters())
    }

    #[test]
    fn parallel_verdicts_are_identical_to_sequential() {
        let (sliced, counters) = setup(0.03, 17);
        let detector = Detector::default();
        let sequential = sliced.detect(&detector, &counters).unwrap();
        for workers in [2, 4, 8] {
            let parallel = detect_parallel(&sliced, &detector, &counters, workers).unwrap();
            assert_eq!(parallel, sequential, "workers={workers}");
        }
    }

    #[test]
    fn identical_under_anomaly_too() {
        let topo = bcube(1, 4);
        let flows = uniform_flows(&topo, 240_000.0);
        let mut dep = provision(topo, &flows, RuleGranularity::PerFlowPair).unwrap();
        let fcm = Fcm::from_view(&dep.view);
        let sliced = SlicedFcm::from_fcm(&fcm);
        let mut rng = StdRng::seed_from_u64(6);
        inject_random_anomaly(
            &mut dep.dataplane,
            AnomalyKind::PathDeviation,
            &mut rng,
            &[],
        )
        .unwrap();
        dep.replay_traffic(&mut LossModel::none());
        let counters = dep.dataplane.collect_counters();
        let detector = Detector::default();
        let sequential = sliced.detect(&detector, &counters).unwrap();
        let parallel = detect_parallel(&sliced, &detector, &counters, 4).unwrap();
        assert_eq!(parallel, sequential);
        assert!(parallel.anomalous, "the injected anomaly must be visible");
    }

    #[test]
    fn single_worker_falls_back_to_sequential() {
        let (sliced, counters) = setup(0.0, 0);
        let detector = Detector::default();
        let a = detect_parallel(&sliced, &detector, &counters, 1).unwrap();
        let b = sliced.detect(&detector, &counters).unwrap();
        assert_eq!(a, b);
    }

    /// A hand-built FCM whose slicing yields exactly one slice: one
    /// switch, one rule, one flow.
    fn one_slice_fcm() -> SlicedFcm {
        use foces_dataplane::RuleRef;
        use foces_net::{HostId, SwitchId};
        let rule = RuleRef {
            switch: SwitchId(0),
            index: 0,
        };
        let flow = foces_atpg::LogicalFlow {
            ingress: HostId(0),
            egress: HostId(1),
            header: foces_headerspace::Wildcard::any(16),
            rules: vec![rule],
            path: vec![SwitchId(0)],
        };
        SlicedFcm::from_fcm(&Fcm::from_parts(vec![rule], vec![flow]))
    }

    #[test]
    fn single_slice_with_many_workers_matches_sequential() {
        // Regression: the worker count must be clamped to the slice count,
        // not taken from the CPU count — a 1-slice system asked for 32
        // workers solves inline and produces the sequential verdict.
        let sliced = one_slice_fcm();
        assert_eq!(sliced.slice_count(), 1);
        let detector = Detector::default();
        let counters = vec![1000.0];
        let seq = sliced.detect(&detector, &counters).unwrap();
        for workers in [2, 8, 32] {
            let par = detect_parallel(&sliced, &detector, &counters, workers).unwrap();
            assert_eq!(par, seq, "workers={workers}");
        }
        assert!(!seq.anomalous);
    }

    #[test]
    fn zero_slices_with_many_workers_is_an_empty_verdict() {
        // An FCM whose flows match no rules slices to zero sub-FCMs; the
        // parallel path must degrade to the sequential empty verdict
        // instead of sizing a pool for slices that do not exist.
        let sliced = SlicedFcm::from_fcm(&Fcm::from_parts(
            vec![foces_dataplane::RuleRef {
                switch: foces_net::SwitchId(0),
                index: 0,
            }],
            Vec::new(),
        ));
        assert_eq!(sliced.slice_count(), 0);
        let detector = Detector::default();
        let counters = vec![0.0];
        for workers in [0, 1, 4, 64] {
            let par = detect_parallel(&sliced, &detector, &counters, workers).unwrap();
            assert!(!par.anomalous, "workers={workers}");
            assert!(par.per_switch.is_empty());
        }
    }

    #[test]
    fn every_worker_count_returns_the_sequential_verdict() {
        // Three single-rule switches in a chain: three slices. `0` must
        // mean "inline" here, not the pool's "one per task".
        let h =
            foces_linalg::DenseMatrix::from_rows(&[&[1., 0., 1.], &[1., 1., 1.], &[0., 1., 1.]])
                .unwrap();
        let fcm = foces::testkit::fcm_from_dense(&h);
        let sliced = SlicedFcm::from_fcm(&fcm);
        assert_eq!(sliced.slice_count(), 3);
        let mut counters = fcm.expected_counters(&[100.0, 200.0, 300.0]);
        counters[2] -= 40.0;
        let detector = Detector::default();
        let sequential = sliced.detect(&detector, &counters).unwrap();
        for workers in [0, 1, 2, 64] {
            let parallel = detect_parallel(&sliced, &detector, &counters, workers).unwrap();
            assert_eq!(parallel, sequential, "workers={workers}");
        }
    }

    #[test]
    fn length_mismatch_errors_match_sequential() {
        let (sliced, _) = setup(0.0, 0);
        let detector = Detector::default();
        let short = vec![1.0; 3];
        let par = detect_parallel(&sliced, &detector, &short, 4);
        let seq = sliced.detect(&detector, &short);
        assert!(par.is_err() && seq.is_err());
    }
}
