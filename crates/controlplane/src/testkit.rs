//! Planning helpers for test harnesses and the `foces-sched` schedule
//! enumerator: find reroutes a deployment can actually express, without
//! mutating (or cloning) the deployment.
//!
//! Probing reroutability used to require `dep.clone()` + a speculative
//! [`Deployment::reroute_flow_via`] per (flow, waypoint) candidate —
//! O(flows × switches) full-deployment clones. [`plan_reroutes`] instead
//! drives the pure [`Deployment::probe_reroute_via`], which only walks
//! the topology.

use crate::Deployment;
use foces_net::SwitchId;

/// One reroute a deployment can express: move `flow` through `waypoint`
/// onto `new_path`. Produced by [`plan_reroutes`]; executed by
/// [`Deployment::reroute_flow_via`] or staged by
/// [`Deployment::stage_reroute_via`] with `&[self.waypoint]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReroutePlan {
    /// Index of the flow to move.
    pub flow: usize,
    /// The waypoint that forces the move.
    pub waypoint: SwitchId,
    /// The path the flow currently takes.
    pub old_path: Vec<SwitchId>,
    /// The simple path it would take through the waypoint.
    pub new_path: Vec<SwitchId>,
}

impl ReroutePlan {
    /// Every switch on the old *or* new path, sorted and deduplicated —
    /// where a dropper must not sit for "outside the update's blast
    /// radius" to hold.
    pub fn blast_radius(&self) -> Vec<SwitchId> {
        let mut blast = self.old_path.clone();
        blast.extend_from_slice(&self.new_path);
        blast.sort_unstable();
        blast.dedup();
        blast
    }
}

/// Finds up to `count` reroutes on **distinct flows**, each moving its
/// flow onto a genuinely different simple path through a single waypoint
/// off the current path. Per flow the shortest new path wins (ties to the
/// lowest waypoint id), and across flows the plans with the shortest new
/// paths are preferred — short paths keep the schedule space a
/// model-checking harness must enumerate small. Deterministic.
///
/// Returns fewer than `count` plans (possibly none) when the fabric does
/// not offer enough reroutable flows.
pub fn plan_reroutes(dep: &Deployment, count: usize) -> Vec<ReroutePlan> {
    let mut candidates: Vec<ReroutePlan> = Vec::new();
    for flow in 0..dep.flows.len() {
        let old_path = &dep.expected_paths[flow];
        if old_path.len() < 2 {
            continue;
        }
        let mut best: Option<ReroutePlan> = None;
        for w in dep.dataplane.topology().switches() {
            if old_path.contains(&w) {
                continue;
            }
            let Ok(new_path) = dep.probe_reroute_via(flow, &[w]) else {
                continue;
            };
            if new_path == *old_path {
                continue;
            }
            if best
                .as_ref()
                .is_none_or(|b| new_path.len() < b.new_path.len())
            {
                best = Some(ReroutePlan {
                    flow,
                    waypoint: w,
                    old_path: old_path.clone(),
                    new_path,
                });
            }
        }
        if let Some(plan) = best {
            candidates.push(plan);
        }
    }
    // Shortest new paths first; stable, so ties keep flow order.
    candidates.sort_by_key(|p| p.new_path.len());
    candidates.truncate(count);
    candidates
}
