//! Update/collection interleaving conformance (ROADMAP item 5b, grounded
//! in Tracer's observation — arXiv:2410.23763 — that consistency checking
//! must tolerate rule updates landing *during* telemetry collection).
//!
//! Since PR 9 this suite drives the `foces-sched` schedule-enumeration
//! harness instead of hand-rolled split loops:
//!
//! * the original two single-update tests are the trivial N=1 case —
//!   [`ScheduleSet::Uniform`] with 4 segments reproduces exactly the old
//!   global split fractions {0, ¼, ½, ¾, 1};
//! * two *overlapping* reroutes commit switch-by-switch in sampled
//!   interleavings, and must still reconcile (and still not mask a true
//!   dropper outside both blast radii);
//! * commits race the §13 shard fan-out: shard rounds fired at slot
//!   boundaries — including with stale-generation members — must score
//!   reconciled or blind, never anomalous.
//!
//! The exhaustive enumeration (every non-equivalent schedule for two
//! concurrent updates on FatTree(4)) runs in CI via `foces interleave`;
//! these tier-1 tests keep to bounded samples so debug runs stay fast.

use foces_controlplane::testkit::plan_reroutes;
use foces_controlplane::{provision, uniform_flows, Deployment, FlowSpec, RuleGranularity};
use foces_net::generators::fattree;
use foces_runtime::RuntimeConfig;
use foces_sched::{
    run_interleave, run_interleave_with_plans, HarnessConfig, InterleaveConfig, ScheduleSet,
};

const UPDATE_AT: u64 = 2;

fn testbed() -> Deployment {
    let topo = fattree(4);
    let flows = uniform_flows(&topo, 240_000.0);
    provision(topo, &flows, RuleGranularity::PerFlowPair).expect("provision fattree(4)")
}

/// A smaller flow set for the multi-update tests: every third all-pairs
/// flow keeps per-schedule service builds cheap without losing
/// reroutability or FCM rank.
fn sampled_testbed() -> Deployment {
    let topo = fattree(4);
    let flows: Vec<FlowSpec> = uniform_flows(&topo, 240_000.0)
        .into_iter()
        .step_by(3)
        .collect();
    provision(topo, &flows, RuleGranularity::PerFlowPair).expect("provision fattree(4)")
}

fn harness(update_at: u64, epochs_after: u64) -> HarnessConfig {
    HarnessConfig {
        runtime: RuntimeConfig::default(),
        update_at,
        epochs_after,
        transport_seed: 7,
    }
}

#[test]
fn every_global_split_of_one_update_reconciles_without_alarm() {
    // The pre-harness test enumerated one update at splits {0,.25,.5,.75,1}:
    // exactly the uniform schedules of a 4-segment window, N=1.
    let dep = testbed();
    let cfg = InterleaveConfig {
        updates: 1,
        segments: 4,
        mode: ScheduleSet::Uniform,
        harness: harness(UPDATE_AT, 3),
        check_dropper: false,
        fanout_shards: None,
        ..InterleaveConfig::default()
    };
    let report = run_interleave(&dep, &cfg).expect("harness runs");
    assert_eq!(report.explored, 5, "five global splits");
    assert!(
        report.ok(),
        "healthy schedules must reconcile: {:?}",
        report.minimal_failing
    );
    for o in &report.outcomes {
        assert!(o.schedule.is_uniform());
        assert_eq!(o.update_mode, "Reconciled");
        assert_eq!(o.alarms, 0);
    }
}

#[test]
fn a_true_dropper_is_caught_under_every_global_split() {
    let dep = testbed();
    let runtime = RuntimeConfig::default();
    let bound = UPDATE_AT + runtime.hysteresis.churn_raise_bound();
    let cfg = InterleaveConfig {
        updates: 1,
        segments: 4,
        mode: ScheduleSet::Uniform,
        harness: harness(UPDATE_AT, bound - UPDATE_AT + 2),
        check_dropper: true,
        dropper_seed: 41,
        fanout_shards: None,
        ..InterleaveConfig::default()
    };
    let report = run_interleave(&dep, &cfg).expect("harness runs");
    assert!(
        report.ok(),
        "dropper must be caught in bound on every split: {:?}",
        report.minimal_failing
    );
    for o in &report.outcomes {
        let first = o
            .dropper_first_raise
            .expect("reconciliation must not swallow the dropper");
        assert!(
            (UPDATE_AT..=bound).contains(&first),
            "split {}: alarm at {first} outside [{UPDATE_AT}, {bound}]",
            o.schedule.label()
        );
    }
}

#[test]
fn overlapping_reroutes_with_interleaved_per_switch_commits_reconcile() {
    let dep = sampled_testbed();
    // Pick two reroutes whose blast radii genuinely intersect — the case
    // where per-switch FIFO ordering and journal masking interact.
    let candidates = plan_reroutes(&dep, 16);
    let (a, b) = candidates
        .iter()
        .enumerate()
        .find_map(|(i, p)| {
            candidates[i + 1..]
                .iter()
                .find(|q| {
                    let pb = p.blast_radius();
                    q.blast_radius().iter().any(|s| pb.contains(s))
                })
                .map(|q| (p.clone(), q.clone()))
        })
        .expect("fattree(4) offers overlapping reroutes");
    assert_ne!(a.flow, b.flow, "distinct flows");
    let cfg = InterleaveConfig {
        segments: 2,
        mode: ScheduleSet::Sample { count: 5, seed: 7 },
        harness: harness(1, 2),
        check_dropper: true,
        dropper_seed: 41,
        fanout_shards: None,
        ..InterleaveConfig::default()
    };
    let report = run_interleave_with_plans(&dep, vec![a, b], &cfg).expect("harness runs");
    assert_eq!(report.explored, 5);
    assert!(
        report.ok(),
        "interleaved overlapping commits must reconcile and not mask the dropper: {:?}",
        report.minimal_failing
    );
}

#[test]
fn commits_racing_the_shard_fanout_stay_reconciled() {
    let dep = sampled_testbed();
    let cfg = InterleaveConfig {
        updates: 2,
        segments: 2,
        mode: ScheduleSet::Sample { count: 3, seed: 11 },
        harness: harness(1, 1),
        check_dropper: false,
        fanout_shards: Some(2),
        ..InterleaveConfig::default()
    };
    let report = run_interleave(&dep, &cfg).expect("harness runs");
    assert!(
        report.ok(),
        "every shard round fired mid-commit must be reconciled or blind: {:?}",
        report.minimal_failing
    );
    // The race actually happened: some round saw a member whose table
    // already stamped a generation the shard FCM has never seen.
    let stale: u64 = report
        .outcomes
        .iter()
        .filter_map(|o| o.fanout.as_ref())
        .map(|f| f.stale_rounds)
        .sum();
    assert!(stale > 0, "stale-generation shard members must occur");
    let reconciled: u64 = report
        .outcomes
        .iter()
        .filter_map(|o| o.fanout.as_ref())
        .map(|f| f.reconciled)
        .sum();
    assert!(reconciled > 0, "reconciled shard rounds must occur");
}
