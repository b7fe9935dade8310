use crate::{DestinationTree, FlowSpec, RuleGranularity};
use foces_dataplane::{dst_match, pair_match, Action, DataPlane, FlowTable, Rule, RuleRef};
use foces_net::{HostId, Node, SwitchId, Topology};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Errors from provisioning.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ProvisionError {
    /// A flow endpoint is not attached to any switch.
    UnattachedHost(HostId),
    /// No route exists between a flow's endpoints.
    NoRoute {
        /// The flow that could not be routed.
        src: HostId,
        /// Its destination.
        dst: HostId,
    },
    /// A waypoint is unreachable from the previous path segment.
    WaypointUnreachable {
        /// The unreachable waypoint.
        waypoint: SwitchId,
    },
    /// The stitched waypoint path visits a switch twice; a single
    /// match/action rule cannot express two different next hops for the
    /// same flow at one switch.
    NonSimplePath {
        /// The repeated switch.
        switch: SwitchId,
    },
    /// A flow index past the provisioned flows.
    UnknownFlow(usize),
}

impl fmt::Display for ProvisionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProvisionError::UnattachedHost(h) => {
                write!(f, "host h{} is not attached to a switch", h.0)
            }
            ProvisionError::NoRoute { src, dst } => {
                write!(f, "no route from h{} to h{}", src.0, dst.0)
            }
            ProvisionError::WaypointUnreachable { waypoint } => {
                write!(f, "waypoint s{} is unreachable", waypoint.0)
            }
            ProvisionError::NonSimplePath { switch } => {
                write!(
                    f,
                    "waypoint path revisits s{}; flow rules cannot express it",
                    switch.0
                )
            }
            ProvisionError::UnknownFlow(flow) => {
                write!(f, "no provisioned flow {flow}")
            }
        }
    }
}

impl Error for ProvisionError {}

/// What kind of mid-epoch control-plane update a journal entry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum UpdateKind {
    /// A flow was moved onto a different path (e.g. link-failure reroute).
    Reroute,
    /// A flow's rules were refined to a finer granularity (dedicated
    /// per-pair rules shadowing an aggregate), without changing its path.
    Refine,
    /// A detectability-hardening rule was installed.
    Hardening,
}

impl fmt::Display for UpdateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateKind::Reroute => write!(f, "reroute"),
            UpdateKind::Refine => write!(f, "refine"),
            UpdateKind::Hardening => write!(f, "hardening"),
        }
    }
}

/// One committed control-plane update: the generation it produced, and
/// everything whose counter semantics it may have changed.
///
/// `touched_rules` must be **conservative**: it lists every rule whose
/// counter can no longer be predicted by an FCM built before this update —
/// both the rules that newly attract traffic *and* the old rules the
/// traffic was drained away from. The runtime's reconciliation stage masks
/// exactly these rows (and quarantines the flow columns that cross them),
/// so an omission here would surface as a false alarm under churn.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateRecord {
    /// The view's generation *after* this update was applied.
    pub generation: u64,
    /// What kind of update this was.
    pub kind: UpdateKind,
    /// Every rule (old or newly installed) whose counter semantics changed.
    pub touched_rules: Vec<RuleRef>,
    /// Indices into [`Deployment::flows`] of the flows that were moved
    /// (empty for updates that do not reroute traffic).
    pub touched_flows: Vec<usize>,
}

/// The controller's record of everything it installed: topology plus a copy
/// of every flow table. This — not the live data plane — is what FOCES's
/// FCM generator reads, because a compromised switch forges its table dumps
/// to match exactly this view (threat model, §II-B).
///
/// The view is **versioned**: every committed update bumps a monotonically
/// increasing generation number and appends an [`UpdateRecord`] to the
/// journal, so a detector holding an FCM built at generation `g` can ask
/// exactly which rules changed since `g` ([`ControllerView::touched_rules_since`])
/// and reconcile instead of discarding the epoch.
#[derive(Debug, Clone)]
pub struct ControllerView {
    topo: Topology,
    tables: Vec<FlowTable>,
    generation: u64,
    journal: Vec<UpdateRecord>,
}

impl ControllerView {
    /// Builds a view directly from a topology and per-switch flow tables —
    /// for loading externally-authored configurations (tests, replayed
    /// snapshots). [`provision`] is the normal constructor.
    ///
    /// # Panics
    ///
    /// Panics if `tables.len()` differs from the topology's switch count.
    pub fn from_parts(topo: Topology, tables: Vec<FlowTable>) -> Self {
        assert_eq!(
            tables.len(),
            topo.switch_count(),
            "one flow table per switch required"
        );
        ControllerView {
            topo,
            tables,
            generation: 0,
            journal: Vec::new(),
        }
    }

    /// The current view generation: 0 at provisioning time, bumped once per
    /// committed update.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Every committed update, oldest first.
    pub fn journal(&self) -> &[UpdateRecord] {
        &self.journal
    }

    /// The journal entries committed *after* generation `since` (i.e. the
    /// updates an FCM built at `since` has not seen).
    pub fn journal_since(&self, since: u64) -> impl Iterator<Item = &UpdateRecord> {
        self.journal.iter().filter(move |u| u.generation > since)
    }

    /// The union of all rules touched by updates after generation `since`,
    /// sorted and deduplicated — the rows the reconciliation stage masks.
    pub fn touched_rules_since(&self, since: u64) -> Vec<RuleRef> {
        let mut rules: Vec<RuleRef> = self
            .journal_since(since)
            .flat_map(|u| u.touched_rules.iter().copied())
            .collect();
        rules.sort_unstable();
        rules.dedup();
        rules
    }

    /// Commits an update: bumps the generation and appends the journal
    /// entry. Returns the new generation. Callers (the [`Deployment`]
    /// update operations) are responsible for stamping the affected
    /// switches' data-plane tables with the returned generation.
    pub fn record_update(
        &mut self,
        kind: UpdateKind,
        touched_rules: Vec<RuleRef>,
        touched_flows: Vec<usize>,
    ) -> u64 {
        self.generation += 1;
        self.journal.push(UpdateRecord {
            generation: self.generation,
            kind,
            touched_rules,
            touched_flows,
        });
        self.generation
    }

    /// The network topology as the controller knows it.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The flow table the controller installed on `switch`.
    ///
    /// # Panics
    ///
    /// Panics if the switch id is out of range.
    pub fn table(&self, switch: SwitchId) -> &FlowTable {
        &self.tables[switch.0]
    }

    /// Walks a concrete header through the installed tables from `start`,
    /// appending each matched rule to `history`, for at most `max_hops`
    /// lookups. Returns the host the packet is delivered to: `None` on a
    /// drop, a table miss, a dangling port, or a spent hop budget (a
    /// forwarding loop).
    pub fn walk(
        &self,
        start: SwitchId,
        header: u64,
        max_hops: usize,
        history: &mut Vec<RuleRef>,
    ) -> Option<HostId> {
        let mut sw = start;
        for _ in 0..max_hops {
            let (index, rule) = self.table(sw).lookup(header)?;
            history.push(RuleRef { switch: sw, index });
            match rule.action() {
                Action::Drop => return None,
                Action::Forward(port) => {
                    match self.topo.adj(Node::Switch(sw)).get(port.0)?.neighbor {
                        Node::Host(h) => return Some(h),
                        Node::Switch(next) => sw = next,
                    }
                }
            }
        }
        None
    }

    /// Iterates over every installed rule in canonical (switch-major,
    /// index) order — the FCM row order.
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

    /// Looks up a rule in the view.
    pub fn rule(&self, r: RuleRef) -> Option<&Rule> {
        self.tables.get(r.switch.0)?.get(r.index)
    }

    /// Installs a rule into the view's table for `switch`, returning its
    /// reference. Used by configuration tooling (e.g. detectability
    /// hardening) that refines the rule set; remember to install the same
    /// rule on the live data plane at the same index.
    ///
    /// # Panics
    ///
    /// Panics if the switch id is out of range.
    pub fn install(&mut self, switch: SwitchId, rule: Rule) -> RuleRef {
        let index = self.tables[switch.0].push(rule);
        RuleRef { switch, index }
    }
}

/// The output of [`provision`]: a live data plane, the controller's view of
/// it, the flow demands, and the expected switch path of every flow.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// The data plane with all rules installed (counters zeroed).
    pub dataplane: DataPlane,
    /// The controller's record of what it installed (updated only by the
    /// controller itself — [`Deployment::add_flow`] — never by the
    /// adversary).
    pub view: ControllerView,
    /// The provisioned traffic demands.
    pub flows: Vec<FlowSpec>,
    /// `expected_paths[i]` is the switch path `flows[i]` should take.
    pub expected_paths: Vec<Vec<SwitchId>>,
    /// The rule-compilation granularity this deployment was built with.
    pub granularity: RuleGranularity,
}

impl Deployment {
    /// Replays every flow through the data plane for one collection
    /// interval, accumulating counters. Call
    /// [`DataPlane::reset_counters`] first when simulating successive
    /// intervals.
    pub fn replay_traffic(&mut self, loss: &mut foces_dataplane::LossModel) {
        self.replay_traffic_scaled(loss, 1.0);
    }

    /// Replays a *fraction* of every flow's per-interval volume. Two calls
    /// with `fraction = 0.5` around a mid-epoch control-plane update
    /// produce counters that genuinely mix rule generations — the race the
    /// runtime's reconciliation stage exists for.
    pub fn replay_traffic_scaled(&mut self, loss: &mut foces_dataplane::LossModel, fraction: f64) {
        for f in &self.flows {
            let header = foces_dataplane::pair_header(f.src, f.dst);
            self.dataplane
                .inject(f.src, header, f.rate * fraction, loss);
        }
    }

    /// Reactively provisions one additional flow (paper §II-A's reactive
    /// rule-installation mode): computes its route, installs any missing
    /// rules into **both** the live data plane and the controller's view
    /// (identical indices — they append in lockstep), and records the flow.
    ///
    /// Returns the rules newly installed (for
    /// `foces::Fcm::extend_rules`) and the flow's switch path (for
    /// `foces::Fcm::add_flows`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`provision`].
    pub fn add_flow(
        &mut self,
        spec: FlowSpec,
    ) -> Result<(Vec<RuleRef>, Vec<SwitchId>), ProvisionError> {
        let tree = DestinationTree::compute(self.dataplane.topology(), spec.dst)
            .ok_or(ProvisionError::UnattachedHost(spec.dst))?;
        if self
            .dataplane
            .topology()
            .host_attachment(spec.src)
            .is_none()
        {
            return Err(ProvisionError::UnattachedHost(spec.src));
        }
        let path =
            tree.path_from(self.dataplane.topology(), spec.src)
                .ok_or(ProvisionError::NoRoute {
                    src: spec.src,
                    dst: spec.dst,
                })?;
        let header = foces_dataplane::pair_header(spec.src, spec.dst);
        let mut new_rules = Vec::new();
        for &sw in &path {
            let port = tree.egress_port(sw).expect("path switches have egress");
            let needed = match self.granularity {
                RuleGranularity::PerDestination => {
                    // A per-destination rule may already exist from another
                    // source's path; matching the header is the test.
                    self.view.table(sw).lookup(header).is_none()
                }
                RuleGranularity::PerFlowPair => {
                    // Require an exact pair rule (a lower-priority dst rule
                    // from a different granularity epoch does not count).
                    !self
                        .view
                        .table(sw)
                        .iter()
                        .any(|(_, r)| r.match_fields() == &pair_match(spec.src, spec.dst))
                }
            };
            if needed {
                let rule = match self.granularity {
                    RuleGranularity::PerDestination => {
                        Rule::new(dst_match(spec.dst), 5, Action::Forward(port))
                    }
                    RuleGranularity::PerFlowPair => {
                        Rule::new(pair_match(spec.src, spec.dst), 10, Action::Forward(port))
                    }
                };
                let r = self.dataplane.install(sw, rule.clone());
                let view_index = self.view.tables[sw.0].push(rule);
                debug_assert_eq!(view_index, r.index, "view and data plane in lockstep");
                new_rules.push(r);
            }
        }
        self.flows.push(spec);
        self.expected_paths.push(path.clone());
        Ok((new_rules, path))
    }

    /// Provisions a flow that must transit the given switches in order —
    /// waypoint policies like "guest traffic goes through the firewall"
    /// (the paper's motivating security policy, §I). The route stitches
    /// shortest-path segments between consecutive waypoints; the flow gets
    /// dedicated exact-match rules (waypoint routes are per-flow by
    /// nature), installed into the data plane and the controller's view in
    /// lockstep.
    ///
    /// Returns the installed rules and the stitched switch path.
    ///
    /// # Errors
    ///
    /// * [`ProvisionError::UnattachedHost`] for detached endpoints;
    /// * [`ProvisionError::WaypointUnreachable`] if a segment has no route;
    /// * [`ProvisionError::NonSimplePath`] if the stitched path would visit
    ///   a switch twice (inexpressible with single match/action rules).
    pub fn add_flow_via(
        &mut self,
        spec: FlowSpec,
        waypoints: &[SwitchId],
    ) -> Result<(Vec<RuleRef>, Vec<SwitchId>), ProvisionError> {
        let (path, dst_port) = self.stitch_waypoint_path(spec, waypoints)?;
        // Install per-pair rules along the stitched path, at a priority
        // above plain per-pair forwarding (10): a waypoint policy for a
        // pair overrides any shortest-path rule already installed for it.
        const WAYPOINT_PRIORITY: u16 = 12;
        let mut new_rules = Vec::with_capacity(path.len());
        for (i, &sw) in path.iter().enumerate() {
            let port = match path.get(i + 1) {
                Some(&next) => self
                    .dataplane
                    .topology()
                    .port_towards(foces_net::Node::Switch(sw), foces_net::Node::Switch(next))
                    .expect("consecutive path switches are adjacent"),
                None => dst_port,
            };
            let rule = Rule::new(
                pair_match(spec.src, spec.dst),
                WAYPOINT_PRIORITY,
                Action::Forward(port),
            );
            let r = self.dataplane.install(sw, rule.clone());
            let view_index = self.view.tables[sw.0].push(rule);
            debug_assert_eq!(view_index, r.index, "view and data plane in lockstep");
            new_rules.push(r);
        }
        self.flows.push(spec);
        self.expected_paths.push(path.clone());
        Ok((new_rules, path))
    }

    /// **Journaled mid-epoch reroute** (link-failure avoidance, traffic
    /// engineering): moves provisioned flow `flow` onto the shortest path
    /// through `waypoints` (possibly empty — plain re-shortest-pathing) by
    /// installing dedicated per-pair rules that out-prioritise whatever
    /// currently carries the pair. Old rules stay installed (rule deletion
    /// is not modelled) but go quiet for this flow.
    ///
    /// Commits an [`UpdateRecord`] whose `touched_rules` conservatively
    /// covers both directions of the move: the rules on the **old** path
    /// that matched the flow (their counters lose the flow's volume) and
    /// every **newly installed** rule (unknown to older FCMs). The affected
    /// switches' data-plane tables are stamped with the new generation.
    ///
    /// Returns the new generation and the installed rules.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Deployment::add_flow_via`], and
    /// [`ProvisionError::UnknownFlow`] if `flow` is out of range.
    pub fn reroute_flow_via(
        &mut self,
        flow: usize,
        waypoints: &[SwitchId],
    ) -> Result<(u64, Vec<RuleRef>), ProvisionError> {
        let staged = self.stage_reroute_via(flow, waypoints)?;
        self.commit_staged(&staged);
        Ok((staged.generation, staged.rule_refs()))
    }

    /// The planning half of [`Deployment::reroute_flow_via`], with **no
    /// side effects**: computes the stitched path the reroute would take
    /// and validates it, without touching the view, the journal, or the
    /// data plane. `Ok` here guarantees `stage_reroute_via` with the same
    /// arguments succeeds (path computation depends only on the topology).
    ///
    /// This is the clone-free reroutability probe test harnesses should
    /// use instead of `dep.clone()` + a speculative reroute.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Deployment::add_flow_via`], and
    /// [`ProvisionError::UnknownFlow`] if `flow` is out of range.
    pub fn probe_reroute_via(
        &self,
        flow: usize,
        waypoints: &[SwitchId],
    ) -> Result<Vec<SwitchId>, ProvisionError> {
        let (path, _) = self.stitch_waypoint_path(self.flow_spec(flow)?, waypoints)?;
        Ok(path)
    }

    /// **Stages** a journaled reroute without pushing anything to the data
    /// plane: the new path's rules are installed into the controller's
    /// view, the update is journaled (generation bumped) exactly as
    /// [`Deployment::reroute_flow_via`] would, and the flow's expected
    /// path moves — but every switch still forwards with its old table
    /// until [`Deployment::commit_switch`] delivers its FlowMods.
    ///
    /// This models what a real controller does: the journal entry and the
    /// intent exist the moment the update is *issued*; each switch applies
    /// its rules (and acknowledges the new generation) at its own
    /// independent commit point. The window between stage and the last
    /// commit is exactly the race the runtime's reconciliation must absorb.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Deployment::add_flow_via`], and
    /// [`ProvisionError::UnknownFlow`] if `flow` is out of range.
    pub fn stage_reroute_via(
        &mut self,
        flow: usize,
        waypoints: &[SwitchId],
    ) -> Result<StagedUpdate, ProvisionError> {
        let spec = self.flow_spec(flow)?;
        let (path, dst_port) = self.stitch_waypoint_path(spec, waypoints)?;
        let old_path = std::mem::replace(&mut self.expected_paths[flow], path.clone());
        // Old-path rules must be resolved BEFORE the install: on switches
        // shared by both paths the lookup would otherwise find the new
        // (higher-priority) rule and miss the one being drained.
        let mut touched = self.pair_rules_on(&old_path, spec);
        let planned = self.plan_pair_rules_along(spec, &path, dst_port, &[&old_path, &path]);
        let installs: Vec<(RuleRef, Rule)> = planned
            .into_iter()
            .map(|(sw, rule)| (self.view.install(sw, rule.clone()), rule))
            .collect();
        touched.extend(installs.iter().map(|(r, _)| *r));
        touched.sort_unstable();
        touched.dedup();
        let generation = self
            .view
            .record_update(UpdateKind::Reroute, touched, vec![flow]);
        Ok(StagedUpdate {
            flow,
            generation,
            old_path,
            new_path: path,
            installs,
        })
    }

    /// Commits one switch's share of a staged reroute: installs its staged
    /// rules on the live data plane and stamps its table with the staged
    /// generation. Returns the number of rules pushed (0 if the update has
    /// none for this switch — nothing is stamped then).
    ///
    /// Commit order across *switches* is free — that freedom is the
    /// schedule space `foces-sched` enumerates. Commit order *per switch*
    /// is not: an OpenFlow connection delivers FlowMods in order, so when
    /// several staged updates target the same switch they must commit in
    /// stage order there. The index-lockstep assertion below enforces
    /// exactly that (a violation would silently desynchronize the view
    /// from the data plane, so it is a panic, not an error).
    ///
    /// # Panics
    ///
    /// Panics if a staged rule would land at a different index than the
    /// view recorded — i.e. per-switch FIFO order was violated, or the
    /// same staged update was committed twice.
    pub fn commit_switch(&mut self, staged: &StagedUpdate, switch: SwitchId) -> usize {
        let mut pushed = 0;
        for (target, rule) in &staged.installs {
            if target.switch != switch {
                continue;
            }
            let r = self.dataplane.install(switch, rule.clone());
            assert_eq!(
                r.index, target.index,
                "per-switch commits must follow stage order (FIFO FlowMod channel)"
            );
            pushed += 1;
        }
        if pushed > 0 {
            self.dataplane
                .set_table_generation(switch, staged.generation);
        }
        pushed
    }

    /// Commits a staged reroute on every switch of its new path, in path
    /// order — the degenerate "all commit points coincide" schedule, which
    /// is what the non-staged [`Deployment::reroute_flow_via`] performs.
    pub fn commit_staged(&mut self, staged: &StagedUpdate) {
        for sw in staged.switches() {
            self.commit_switch(staged, sw);
        }
    }

    /// Provisioned flow `flow`'s spec.
    fn flow_spec(&self, flow: usize) -> Result<FlowSpec, ProvisionError> {
        self.flows
            .get(flow)
            .copied()
            .ok_or(ProvisionError::UnknownFlow(flow))
    }

    /// Stitches switch-level shortest-path segments from `spec.src`'s
    /// attachment through `waypoints` to the destination and validates
    /// simplicity. Pure: the planning half of every waypoint route.
    fn stitch_waypoint_path(
        &self,
        spec: FlowSpec,
        waypoints: &[SwitchId],
    ) -> Result<(Vec<SwitchId>, foces_net::Port), ProvisionError> {
        let topo = self.dataplane.topology();
        let (src_sw, _) = topo
            .host_attachment(spec.src)
            .ok_or(ProvisionError::UnattachedHost(spec.src))?;
        let (dst_sw, dst_port) = topo
            .host_attachment(spec.dst)
            .ok_or(ProvisionError::UnattachedHost(spec.dst))?;
        let mut path: Vec<SwitchId> = vec![src_sw];
        let mut stops: Vec<SwitchId> = waypoints.to_vec();
        stops.push(dst_sw);
        for stop in stops {
            let from = *path.last().expect("path starts non-empty");
            let segment = topo
                .shortest_path(foces_net::Node::Switch(from), foces_net::Node::Switch(stop))
                .ok_or(ProvisionError::WaypointUnreachable { waypoint: stop })?;
            for node in segment.into_iter().skip(1) {
                let foces_net::Node::Switch(sw) = node else {
                    unreachable!("switch-to-switch paths never transit hosts");
                };
                path.push(sw);
            }
        }
        let mut seen = std::collections::HashSet::new();
        for &sw in &path {
            if !seen.insert(sw) {
                return Err(ProvisionError::NonSimplePath { switch: sw });
            }
        }
        Ok((path, dst_port))
    }

    /// **Journaled granularity refinement**: gives flow `flow` dedicated
    /// per-pair rules along its *current* path, shadowing whatever
    /// aggregate (per-destination) or shared rules carried it before. The
    /// path does not change, but counter attribution does — the aggregate
    /// rules lose this flow's volume — so the update is journaled exactly
    /// like a reroute.
    ///
    /// Returns the new generation and the installed rules.
    ///
    /// # Errors
    ///
    /// [`ProvisionError::UnknownFlow`] if `flow` is out of range;
    /// [`ProvisionError::UnattachedHost`] for a detached destination.
    pub fn refine_flow(&mut self, flow: usize) -> Result<(u64, Vec<RuleRef>), ProvisionError> {
        let spec = self.flow_spec(flow)?;
        let (_, dst_port) = self
            .dataplane
            .topology()
            .host_attachment(spec.dst)
            .ok_or(ProvisionError::UnattachedHost(spec.dst))?;
        let path = self.expected_paths[flow].clone();
        let mut touched = self.pair_rules_on(&path, spec);
        let new_rules = self.install_pair_rules_along(spec, &path, dst_port, &[&path]);
        touched.extend(new_rules.iter().copied());
        touched.sort_unstable();
        touched.dedup();
        let generation = self
            .view
            .record_update(UpdateKind::Refine, touched, vec![flow]);
        for r in &new_rules {
            self.dataplane.set_table_generation(r.switch, generation);
        }
        Ok((generation, new_rules))
    }

    /// **Journaled hardening install**: adds one rule to `switch` on both
    /// planes in lockstep and journals it together with every existing rule
    /// on that switch whose match region overlaps the new rule's (those may
    /// lose traffic to it). Returns the new generation and the rule.
    ///
    /// # Panics
    ///
    /// Panics if the switch id is out of range.
    pub fn install_hardening(&mut self, switch: SwitchId, rule: Rule) -> (u64, RuleRef) {
        let mut touched: Vec<RuleRef> = self
            .view
            .table(switch)
            .iter()
            .filter(|(_, existing)| existing.match_fields().overlaps(rule.match_fields()))
            .map(|(index, _)| RuleRef { switch, index })
            .collect();
        let r = self.dataplane.install(switch, rule.clone());
        let view_index = self.view.tables[switch.0].push(rule);
        debug_assert_eq!(view_index, r.index, "view and data plane in lockstep");
        touched.push(r);
        let generation = self
            .view
            .record_update(UpdateKind::Hardening, touched, Vec::new());
        self.dataplane.set_table_generation(switch, generation);
        (generation, r)
    }

    /// Rules in the view that currently match `spec`'s pair header on the
    /// given path — the rules a reroute/refine drains traffic away from.
    fn pair_rules_on(&self, path: &[SwitchId], spec: FlowSpec) -> Vec<RuleRef> {
        let header = foces_dataplane::pair_header(spec.src, spec.dst);
        path.iter()
            .filter_map(|&sw| {
                self.view
                    .table(sw)
                    .lookup(header)
                    .map(|(index, _)| RuleRef { switch: sw, index })
            })
            .collect()
    }

    /// Plans dedicated per-pair rules for `spec` along `path`, at a
    /// priority strictly above every rule that currently matches the pair
    /// on any of `priority_scopes`' switches — so the new rules win even
    /// over previous reroutes of the same flow. Pure: nothing is installed.
    fn plan_pair_rules_along(
        &self,
        spec: FlowSpec,
        path: &[SwitchId],
        dst_port: foces_net::Port,
        priority_scopes: &[&[SwitchId]],
    ) -> Vec<(SwitchId, Rule)> {
        const REROUTE_BASE_PRIORITY: u16 = 12;
        let header = foces_dataplane::pair_header(spec.src, spec.dst);
        let max_prio = priority_scopes
            .iter()
            .flat_map(|scope| scope.iter())
            .filter_map(|&sw| {
                self.view
                    .table(sw)
                    .lookup(header)
                    .map(|(_, r)| r.priority())
            })
            .max()
            .unwrap_or(0);
        let priority = max_prio.saturating_add(1).max(REROUTE_BASE_PRIORITY);
        path.iter()
            .enumerate()
            .map(|(i, &sw)| {
                let port = match path.get(i + 1) {
                    Some(&next) => self
                        .dataplane
                        .topology()
                        .port_towards(foces_net::Node::Switch(sw), foces_net::Node::Switch(next))
                        .expect("consecutive path switches are adjacent"),
                    None => dst_port,
                };
                let rule = Rule::new(
                    pair_match(spec.src, spec.dst),
                    priority,
                    Action::Forward(port),
                );
                (sw, rule)
            })
            .collect()
    }

    /// Installs dedicated per-pair rules for `spec` along `path` (lockstep
    /// on both planes) — [`Deployment::plan_pair_rules_along`] committed
    /// everywhere at once.
    fn install_pair_rules_along(
        &mut self,
        spec: FlowSpec,
        path: &[SwitchId],
        dst_port: foces_net::Port,
        priority_scopes: &[&[SwitchId]],
    ) -> Vec<RuleRef> {
        self.plan_pair_rules_along(spec, path, dst_port, priority_scopes)
            .into_iter()
            .map(|(sw, rule)| {
                let r = self.dataplane.install(sw, rule.clone());
                let view_index = self.view.tables[sw.0].push(rule);
                debug_assert_eq!(view_index, r.index, "view and data plane in lockstep");
                r
            })
            .collect()
    }
}

/// A reroute whose intent exists — view rules installed, journal entry
/// committed, expected path moved — but whose FlowMods have not yet
/// reached any switch. Produced by [`Deployment::stage_reroute_via`];
/// consumed, one switch at a time, by [`Deployment::commit_switch`].
///
/// The set of per-switch commit points (one per new-path switch) is the
/// unit the `foces-sched` schedule enumerator permutes against counter
/// collection.
#[derive(Debug, Clone)]
pub struct StagedUpdate {
    /// Index of the rerouted flow in [`Deployment::flows`].
    pub flow: usize,
    /// The generation the journal entry committed at stage time. Every
    /// switch acknowledges this generation when its commit lands.
    pub generation: u64,
    /// The path the flow is being drained from.
    pub old_path: Vec<SwitchId>,
    /// The path the flow is moving to (one staged rule per switch).
    pub new_path: Vec<SwitchId>,
    /// The staged rules with the view indices they were recorded at —
    /// the indices the data-plane pushes must reproduce at commit time.
    installs: Vec<(RuleRef, Rule)>,
}

impl StagedUpdate {
    /// The switches with pending commits, in stage (new-path) order.
    /// Paths are simple, so each switch appears once.
    pub fn switches(&self) -> Vec<SwitchId> {
        self.installs.iter().map(|(r, _)| r.switch).collect()
    }

    /// The staged rules' references (view indices), in stage order.
    pub fn rule_refs(&self) -> Vec<RuleRef> {
        self.installs.iter().map(|(r, _)| *r).collect()
    }

    /// Every switch on the old *or* new path, sorted and deduplicated —
    /// the update's whole blast radius. A "switch the update never
    /// touches" (where a dropper must still be caught) is any switch
    /// outside this set.
    pub fn blast_radius(&self) -> Vec<SwitchId> {
        let mut blast = self.old_path.clone();
        blast.extend_from_slice(&self.new_path);
        blast.sort_unstable();
        blast.dedup();
        blast
    }
}

/// Computes routes for all flows, compiles rules at the requested
/// granularity, installs them into a fresh [`DataPlane`], and returns the
/// deployment together with the controller's view.
///
/// Routing: per-destination BFS trees ([`DestinationTree`]); every rule
/// needed by at least one provisioned flow is installed, and nothing else.
///
/// # Errors
///
/// * [`ProvisionError::UnattachedHost`] if a flow endpoint has no switch;
/// * [`ProvisionError::NoRoute`] if the topology is partitioned between a
///   flow's endpoints.
pub fn provision(
    topo: Topology,
    flows: &[FlowSpec],
    granularity: RuleGranularity,
) -> Result<Deployment, ProvisionError> {
    let mut dp = DataPlane::new(topo);
    let mut trees: HashMap<HostId, DestinationTree> = HashMap::new();
    // Rule dedup: (switch, dst) -> installed, or (switch, src, dst).
    let mut dst_rules: HashMap<(SwitchId, HostId), RuleRef> = HashMap::new();
    let mut pair_rules: HashMap<(SwitchId, HostId, HostId), RuleRef> = HashMap::new();
    let mut expected_paths = Vec::with_capacity(flows.len());

    for f in flows {
        let tree = match trees.get(&f.dst) {
            Some(t) => t,
            None => {
                let t = DestinationTree::compute(dp.topology(), f.dst)
                    .ok_or(ProvisionError::UnattachedHost(f.dst))?;
                trees.entry(f.dst).or_insert(t)
            }
        };
        if dp.topology().host_attachment(f.src).is_none() {
            return Err(ProvisionError::UnattachedHost(f.src));
        }
        let path = tree
            .path_from(dp.topology(), f.src)
            .ok_or(ProvisionError::NoRoute {
                src: f.src,
                dst: f.dst,
            })?;
        // Collect (switch, egress) pairs first to end the borrow of `trees`
        // before mutating `dp`.
        let hops: Vec<(SwitchId, foces_net::Port)> = path
            .iter()
            .map(|&sw| {
                let port = tree
                    .egress_port(sw)
                    .expect("switches on a tree path have egress ports");
                (sw, port)
            })
            .collect();
        for (sw, port) in hops {
            match granularity {
                RuleGranularity::PerDestination => {
                    dst_rules.entry((sw, f.dst)).or_insert_with(|| {
                        dp.install(sw, Rule::new(dst_match(f.dst), 5, Action::Forward(port)))
                    });
                }
                RuleGranularity::PerFlowPair => {
                    pair_rules.entry((sw, f.src, f.dst)).or_insert_with(|| {
                        dp.install(
                            sw,
                            Rule::new(pair_match(f.src, f.dst), 10, Action::Forward(port)),
                        )
                    });
                }
            }
        }
        expected_paths.push(path);
    }

    let view = ControllerView {
        topo: dp.topology().clone(),
        tables: (0..dp.topology().switch_count())
            .map(|s| dp.table(SwitchId(s)).clone())
            .collect(),
        generation: 0,
        journal: Vec::new(),
    };
    Ok(Deployment {
        dataplane: dp,
        view,
        flows: flows.to_vec(),
        expected_paths,
        granularity,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniform_flows;
    use foces_dataplane::LossModel;
    use foces_net::generators::{bcube, dcell, fattree, stanford};
    use foces_net::Node;

    fn deploy(topo: Topology, granularity: RuleGranularity) -> Deployment {
        let flows = uniform_flows(&topo, topo.host_count() as f64 * 1000.0);
        provision(topo, &flows, granularity).unwrap()
    }

    #[test]
    fn all_flows_deliver_losslessly() {
        for topo in [fattree(4), bcube(1, 4), dcell(1, 4), stanford()] {
            let mut dep = deploy(topo, RuleGranularity::PerDestination);
            let flows = dep.flows.clone();
            for f in &flows {
                let header = foces_dataplane::pair_header(f.src, f.dst);
                let rep = dep
                    .dataplane
                    .inject(f.src, header, f.rate, &mut LossModel::none());
                assert_eq!(rep.delivered_to, Some(f.dst), "flow {f}");
                assert!((rep.delivered_volume - f.rate).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn per_flow_granularity_also_delivers() {
        let mut dep = deploy(fattree(4), RuleGranularity::PerFlowPair);
        let flows = dep.flows.clone();
        for f in &flows {
            let header = foces_dataplane::pair_header(f.src, f.dst);
            let rep = dep
                .dataplane
                .inject(f.src, header, f.rate, &mut LossModel::none());
            assert_eq!(rep.delivered_to, Some(f.dst));
        }
    }

    #[test]
    fn view_matches_dataplane_before_compromise() {
        let dep = deploy(bcube(1, 4), RuleGranularity::PerDestination);
        for r in dep.view.rule_refs() {
            assert_eq!(dep.view.rule(r), dep.dataplane.rule(r));
        }
        assert_eq!(dep.view.rule_count(), dep.dataplane.rule_count());
    }

    #[test]
    fn view_is_immutable_under_compromise() {
        let mut dep = deploy(bcube(1, 4), RuleGranularity::PerDestination);
        let r = dep.view.rule_refs().next().unwrap();
        let before = dep.view.rule(r).unwrap().clone();
        dep.dataplane.modify_rule_action(r, Action::Drop).unwrap();
        assert_eq!(dep.view.rule(r), Some(&before));
        assert_ne!(dep.dataplane.rule(r), Some(&before));
    }

    #[test]
    fn per_destination_aggregates_rules() {
        let dst_dep = deploy(fattree(4), RuleGranularity::PerDestination);
        let pair_dep = deploy(fattree(4), RuleGranularity::PerFlowPair);
        assert!(
            dst_dep.view.rule_count() < pair_dep.view.rule_count(),
            "aggregation must reduce rule count: {} vs {}",
            dst_dep.view.rule_count(),
            pair_dep.view.rule_count()
        );
    }

    #[test]
    fn expected_paths_start_and_end_at_attachments() {
        let dep = deploy(dcell(1, 4), RuleGranularity::PerDestination);
        for (f, p) in dep.flows.iter().zip(&dep.expected_paths) {
            let (src_sw, _) = dep.view.topology().host_attachment(f.src).unwrap();
            let (dst_sw, _) = dep.view.topology().host_attachment(f.dst).unwrap();
            assert_eq!(*p.first().unwrap(), src_sw);
            assert_eq!(*p.last().unwrap(), dst_sw);
        }
    }

    #[test]
    fn expected_paths_are_consistent_with_counters() {
        // After lossless replay, a rule's counter equals the sum of rates of
        // flows whose expected path passes its switch and matches it.
        let mut dep = deploy(fattree(4), RuleGranularity::PerDestination);
        dep.replay_traffic(&mut LossModel::none());
        for (f, p) in dep.flows.clone().iter().zip(dep.expected_paths.clone()) {
            for sw in p {
                let header = foces_dataplane::pair_header(f.src, f.dst);
                let (idx, _) = dep.dataplane.table(sw).lookup(header).unwrap();
                assert!(dep.dataplane.counter(sw, idx) >= f.rate - 1e-9);
            }
        }
    }

    #[test]
    fn unattached_host_is_rejected() {
        let mut topo = Topology::new();
        topo.add_switch();
        let h0 = topo.add_host();
        let h1 = topo.add_host();
        let flows = [FlowSpec {
            src: h0,
            dst: h1,
            rate: 1.0,
        }];
        assert!(matches!(
            provision(topo, &flows, RuleGranularity::PerDestination),
            Err(ProvisionError::UnattachedHost(_))
        ));
    }

    #[test]
    fn partitioned_network_is_rejected() {
        let mut topo = Topology::new();
        let s0 = topo.add_switch();
        let s1 = topo.add_switch();
        let h0 = topo.add_host();
        let h1 = topo.add_host();
        topo.connect(Node::Host(h0), Node::Switch(s0)).unwrap();
        topo.connect(Node::Host(h1), Node::Switch(s1)).unwrap();
        let flows = [FlowSpec {
            src: h0,
            dst: h1,
            rate: 1.0,
        }];
        assert!(matches!(
            provision(topo, &flows, RuleGranularity::PerDestination),
            Err(ProvisionError::NoRoute { .. })
        ));
    }

    #[test]
    fn add_flow_matches_batch_provisioning() {
        // Provision half the pairs up front, add the rest reactively; the
        // resulting view must install the same rule set per switch as the
        // all-at-once provisioning (order may differ).
        for g in [
            RuleGranularity::PerFlowPair,
            RuleGranularity::PerDestination,
        ] {
            let topo = bcube(1, 4);
            let all = uniform_flows(&topo, 240_000.0);
            let full = provision(topo.clone(), &all, g).unwrap();
            let (first, rest) = all.split_at(all.len() / 2);
            let mut incremental = provision(topo, first, g).unwrap();
            for f in rest {
                incremental.add_flow(*f).unwrap();
            }
            assert_eq!(incremental.flows.len(), full.flows.len());
            assert_eq!(
                incremental.view.rule_count(),
                full.view.rule_count(),
                "granularity {g:?}"
            );
            // Same multiset of (switch, match, action) triples.
            for s in incremental.view.topology().switches() {
                let mut a: Vec<String> = incremental
                    .view
                    .table(s)
                    .iter()
                    .map(|(_, r)| r.to_string())
                    .collect();
                let mut b: Vec<String> = full
                    .view
                    .table(s)
                    .iter()
                    .map(|(_, r)| r.to_string())
                    .collect();
                a.sort();
                b.sort();
                assert_eq!(a, b, "switch {s:?} tables differ ({g:?})");
            }
        }
    }

    #[test]
    fn add_flow_keeps_view_and_dataplane_in_lockstep() {
        let topo = bcube(1, 4);
        let all = uniform_flows(&topo, 240_000.0);
        let mut dep = provision(topo, &all[..10], RuleGranularity::PerFlowPair).unwrap();
        let (new_rules, path) = dep.add_flow(all[10]).unwrap();
        assert_eq!(new_rules.len(), path.len(), "per-pair: one rule per hop");
        for r in &new_rules {
            assert_eq!(dep.view.rule(*r), dep.dataplane.rule(*r));
        }
        // Re-adding the same flow installs nothing new.
        let (none, _) = dep.add_flow(all[10]).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn add_flow_delivers_traffic() {
        let topo = fattree(4);
        let all = uniform_flows(&topo, 240_000.0);
        let mut dep = provision(topo, &all[..1], RuleGranularity::PerDestination).unwrap();
        let spec = all[37];
        dep.add_flow(spec).unwrap();
        let rep = dep.dataplane.inject(
            spec.src,
            foces_dataplane::pair_header(spec.src, spec.dst),
            spec.rate,
            &mut LossModel::none(),
        );
        assert_eq!(rep.delivered_to, Some(spec.dst));
    }

    #[test]
    fn waypoint_flow_transits_the_waypoint() {
        // ring(6): h0 -> h2 shortest is s0-s1-s2; waypoint s4 forces the
        // long way round (s0-s5-s4-s3-s2), which is simple and expressible.
        let topo = foces_net::generators::ring(6);
        let hosts: Vec<HostId> = topo.hosts().collect();
        let mut dep = provision(topo, &[], RuleGranularity::PerFlowPair).unwrap();
        let spec = FlowSpec {
            src: hosts[0],
            dst: hosts[2],
            rate: 500.0,
        };
        let waypoint = SwitchId(4);
        let (rules, path) = dep.add_flow_via(spec, &[waypoint]).unwrap();
        assert_eq!(
            path,
            vec![
                SwitchId(0),
                SwitchId(5),
                SwitchId(4),
                SwitchId(3),
                SwitchId(2)
            ],
            "the long way round"
        );
        assert_eq!(rules.len(), path.len());
        // Traffic actually follows the stitched path and is delivered.
        let rep = dep.dataplane.inject(
            spec.src,
            foces_dataplane::pair_header(spec.src, spec.dst),
            spec.rate,
            &mut LossModel::none(),
        );
        assert_eq!(rep.delivered_to, Some(spec.dst));
        assert_eq!(rep.hops, path.len());
        for r in &rules {
            assert_eq!(dep.dataplane.counter(r.switch, r.index), spec.rate);
        }
    }

    #[test]
    fn waypoint_path_must_be_simple() {
        // FatTree(4): cores connect to exactly one aggregation switch per
        // pod, so a core waypoint for a same-pod flow must go up and down
        // through the SAME agg — inexpressible with single match/action
        // rules, and correctly rejected.
        let topo = fattree(4);
        let hosts: Vec<HostId> = topo.hosts().collect();
        let core = topo
            .switches()
            .find(|&s| topo.switch_role(s) == foces_net::SwitchRole::Core)
            .unwrap();
        let mut dep = provision(topo, &[], RuleGranularity::PerFlowPair).unwrap();
        let spec = FlowSpec {
            src: hosts[0],
            dst: hosts[1], // same edge switch
            rate: 1.0,
        };
        let err = dep.add_flow_via(spec, &[core]).unwrap_err();
        assert!(matches!(err, ProvisionError::NonSimplePath { .. }));
    }

    #[test]
    fn waypoint_unreachable_is_reported() {
        let mut topo = fattree(4);
        let island = topo.add_switch();
        let hosts: Vec<HostId> = topo.hosts().collect();
        let mut dep = provision(topo, &[], RuleGranularity::PerFlowPair).unwrap();
        let spec = FlowSpec {
            src: hosts[0],
            dst: hosts[15],
            rate: 1.0,
        };
        let err = dep.add_flow_via(spec, &[island]).unwrap_err();
        assert!(matches!(
            err,
            ProvisionError::WaypointUnreachable { waypoint } if waypoint == island
        ));
    }

    #[test]
    fn add_flow_validates_endpoints() {
        let mut topo = Topology::new();
        let s0 = topo.add_switch();
        let h0 = topo.add_host();
        let h1 = topo.add_host();
        topo.connect(Node::Host(h0), Node::Switch(s0)).unwrap();
        topo.connect(Node::Host(h1), Node::Switch(s0)).unwrap();
        let flows = [FlowSpec {
            src: h0,
            dst: h1,
            rate: 1.0,
        }];
        let mut dep = provision(topo, &flows, RuleGranularity::PerFlowPair).unwrap();
        let h_orphan = HostId(99);
        assert!(dep
            .add_flow(FlowSpec {
                src: h0,
                dst: h_orphan,
                rate: 1.0
            })
            .is_err());
    }

    #[test]
    fn an_unknown_flow_is_a_typed_error_and_journals_nothing() {
        let topo = foces_net::generators::ring(4);
        let flows = uniform_flows(&topo, 12_000.0);
        let mut dep = provision(topo, &flows, RuleGranularity::PerFlowPair).unwrap();
        assert_eq!(dep.flows.len(), 12);
        let before = dep.view.generation();
        let unknown = ProvisionError::UnknownFlow(19);
        assert_eq!(dep.probe_reroute_via(19, &[]), Err(unknown.clone()));
        let rerouted = dep.reroute_flow_via(19, &[SwitchId(1)]);
        assert_eq!(rerouted, Err(unknown.clone()));
        let staged = dep.stage_reroute_via(19, &[]);
        assert!(matches!(staged, Err(ProvisionError::UnknownFlow(19))));
        assert_eq!(dep.refine_flow(19), Err(unknown));
        assert_eq!(dep.view.generation(), before);
        let msg = ProvisionError::UnknownFlow(19).to_string();
        assert_eq!(msg, "no provisioned flow 19");
    }

    #[test]
    fn reroute_journals_old_and_new_rules_and_moves_traffic() {
        let topo = foces_net::generators::ring(6);
        let flows = uniform_flows(&topo, 30_000.0);
        let mut dep = provision(topo, &flows, RuleGranularity::PerFlowPair).unwrap();
        let hosts: Vec<HostId> = dep.view.topology().hosts().collect();
        let flow = dep
            .flows
            .iter()
            .position(|f| f.src == hosts[0] && f.dst == hosts[2])
            .unwrap();
        let spec = dep.flows[flow];
        let old_path = dep.expected_paths[flow].clone();
        assert_eq!(old_path, vec![SwitchId(0), SwitchId(1), SwitchId(2)]);
        let old_rules: Vec<RuleRef> = {
            let header = foces_dataplane::pair_header(spec.src, spec.dst);
            old_path
                .iter()
                .map(|&sw| {
                    let (index, _) = dep.view.table(sw).lookup(header).unwrap();
                    RuleRef { switch: sw, index }
                })
                .collect()
        };

        let (generation, new_rules) = dep.reroute_flow_via(flow, &[SwitchId(4)]).unwrap();
        assert_eq!(generation, 1);
        assert_eq!(dep.view.generation(), 1);
        assert_eq!(
            dep.expected_paths[flow],
            vec![
                SwitchId(0),
                SwitchId(5),
                SwitchId(4),
                SwitchId(3),
                SwitchId(2)
            ]
        );
        // The journal conservatively covers both the drained and the new rules.
        let touched = dep.view.touched_rules_since(0);
        for r in old_rules.iter().chain(&new_rules) {
            assert!(touched.contains(r), "journal must cover {r}");
        }
        assert_eq!(dep.view.journal().len(), 1);
        assert_eq!(dep.view.journal()[0].kind, UpdateKind::Reroute);
        assert_eq!(dep.view.journal()[0].touched_flows, vec![flow]);
        // Every switch that received a rule acknowledges the new generation.
        for r in &new_rules {
            assert_eq!(dep.dataplane.table_generation(r.switch), 1);
        }
        // Traffic follows the new path; the drained rules stay at zero.
        dep.dataplane.reset_counters();
        let rep = dep.dataplane.inject(
            spec.src,
            foces_dataplane::pair_header(spec.src, spec.dst),
            spec.rate,
            &mut LossModel::none(),
        );
        assert_eq!(rep.delivered_to, Some(spec.dst));
        assert_eq!(rep.hops, 5, "the long way round");
        for r in &new_rules {
            assert_eq!(dep.dataplane.counter(r.switch, r.index), spec.rate);
        }
        for r in &old_rules {
            assert_eq!(dep.dataplane.counter(r.switch, r.index), 0.0);
        }
    }

    #[test]
    fn rerouting_twice_out_prioritises_the_first_reroute() {
        let topo = foces_net::generators::ring(6);
        let flows = uniform_flows(&topo, 30_000.0);
        let mut dep = provision(topo, &flows, RuleGranularity::PerFlowPair).unwrap();
        let hosts: Vec<HostId> = dep.view.topology().hosts().collect();
        let flow = dep
            .flows
            .iter()
            .position(|f| f.src == hosts[0] && f.dst == hosts[2])
            .unwrap();
        let spec = dep.flows[flow];
        dep.reroute_flow_via(flow, &[SwitchId(4)]).unwrap();
        // Back onto the short path: must shadow the waypoint rules.
        let (generation, _) = dep.reroute_flow_via(flow, &[]).unwrap();
        assert_eq!(generation, 2);
        dep.dataplane.reset_counters();
        let rep = dep.dataplane.inject(
            spec.src,
            foces_dataplane::pair_header(spec.src, spec.dst),
            spec.rate,
            &mut LossModel::none(),
        );
        assert_eq!(rep.delivered_to, Some(spec.dst));
        assert_eq!(rep.hops, 3, "back on the short path");
    }

    #[test]
    fn refine_gives_the_flow_dedicated_rules_without_moving_it() {
        let mut dep = deploy(fattree(4), RuleGranularity::PerDestination);
        let flow = 7;
        let spec = dep.flows[flow];
        let path_before = dep.expected_paths[flow].clone();
        let (generation, new_rules) = dep.refine_flow(flow).unwrap();
        assert_eq!(generation, 1);
        assert_eq!(dep.expected_paths[flow], path_before, "path unchanged");
        assert_eq!(new_rules.len(), path_before.len(), "one rule per hop");
        assert_eq!(dep.view.journal()[0].kind, UpdateKind::Refine);
        dep.dataplane.reset_counters();
        let rep = dep.dataplane.inject(
            spec.src,
            foces_dataplane::pair_header(spec.src, spec.dst),
            spec.rate,
            &mut LossModel::none(),
        );
        assert_eq!(rep.delivered_to, Some(spec.dst));
        // The dedicated rules now carry the flow; the aggregates lost it.
        for r in &new_rules {
            assert_eq!(dep.dataplane.counter(r.switch, r.index), spec.rate);
        }
    }

    #[test]
    fn hardening_install_journals_overlapping_rules() {
        let mut dep = deploy(bcube(1, 4), RuleGranularity::PerDestination);
        let spec = dep.flows[0];
        let sw = dep.expected_paths[0][0];
        let shadowed = {
            let header = foces_dataplane::pair_header(spec.src, spec.dst);
            let (index, _) = dep.view.table(sw).lookup(header).unwrap();
            RuleRef { switch: sw, index }
        };
        let rule = Rule::new(pair_match(spec.src, spec.dst), 20, Action::Drop);
        let (generation, r) = dep.install_hardening(sw, rule);
        assert_eq!(generation, 1);
        assert_eq!(dep.dataplane.table_generation(sw), 1);
        assert_eq!(dep.view.rule(r), dep.dataplane.rule(r));
        let touched = &dep.view.journal()[0].touched_rules;
        assert!(touched.contains(&r), "the new rule itself is journaled");
        assert!(touched.contains(&shadowed), "the shadowed aggregate too");
    }

    #[test]
    fn covert_modification_does_not_advance_the_generation() {
        let mut dep = deploy(bcube(1, 4), RuleGranularity::PerDestination);
        let r = dep.view.rule_refs().next().unwrap();
        dep.dataplane.modify_rule_action(r, Action::Drop).unwrap();
        assert_eq!(dep.view.generation(), 0);
        assert_eq!(dep.dataplane.table_generation(r.switch), 0);
    }

    #[test]
    fn scaled_replay_is_linear_in_the_fraction() {
        let mut half = deploy(fattree(4), RuleGranularity::PerDestination);
        let mut full = half.clone();
        full.replay_traffic(&mut LossModel::none());
        half.replay_traffic_scaled(&mut LossModel::none(), 0.5);
        half.replay_traffic_scaled(&mut LossModel::none(), 0.5);
        let a = full.dataplane.collect_counters();
        let b = half.dataplane.collect_counters();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6, "{x} vs {y}");
        }
    }

    #[test]
    fn touched_rules_since_sees_only_newer_updates() {
        let topo = foces_net::generators::ring(6);
        let flows = uniform_flows(&topo, 30_000.0);
        let mut dep = provision(topo, &flows, RuleGranularity::PerFlowPair).unwrap();
        dep.reroute_flow_via(0, &[]).unwrap();
        let after_first = dep.view.generation();
        assert!(!dep.view.touched_rules_since(0).is_empty());
        assert!(dep.view.touched_rules_since(after_first).is_empty());
        dep.refine_flow(1).unwrap();
        assert!(!dep.view.touched_rules_since(after_first).is_empty());
        let all = dep.view.touched_rules_since(0);
        let newer = dep.view.touched_rules_since(after_first);
        for r in &newer {
            assert!(all.contains(r));
        }
    }

    #[test]
    fn table1_dimensions() {
        // Reproduces Table I's switch/host/flow columns exactly; rule counts
        // depend on compilation granularity (documented in EXPERIMENTS.md).
        let cases: [(&str, Topology, usize, usize, usize); 4] = [
            ("stanford", stanford(), 26, 26, 650),
            ("fattree4", fattree(4), 20, 16, 240),
            ("bcube14", bcube(1, 4), 24, 16, 240),
            ("dcell14", dcell(1, 4), 25, 20, 380),
        ];
        for (name, topo, switches, hosts, flow_count) in cases {
            assert_eq!(topo.switch_count(), switches, "{name} switches");
            assert_eq!(topo.host_count(), hosts, "{name} hosts");
            let dep = deploy(topo, RuleGranularity::PerDestination);
            assert_eq!(dep.flows.len(), flow_count, "{name} flows");
            assert!(dep.view.rule_count() > 0, "{name} rules");
        }
    }
}
