//! The flow-table index ([`FlowTable::overlapping`], [`FlowTable::lookup`],
//! [`FlowTable::is_disjoint_or_nested`]) and the walkers built on it must
//! answer exactly as the linear scans they replaced.
//!
//! * On seeded random tables — per-destination, per-pair, prefix and
//!   match-all rules with tied priorities and drop actions — `lookup` and
//!   `overlapping` equal a linear scan on 10,000 headers and 10,000
//!   regions each, and the precondition check equals the pairwise test.
//! * `trace_flows` equals (`==`, same order) a copy of the full-scan
//!   tracer kept here, on FatTree(4) under both granularities, Stanford,
//!   BCube and DCell, and after a reroute, a refinement and a hardening
//!   install.
//! * `verify_with`'s traversal and shadow findings equal a copy of the
//!   full-scan verifier on seeded loop, blackhole and shadow mutations,
//!   and on the three updated views above.
//!
//! The references use only `Wildcard::intersect`, `is_subset_of` and the
//! table's `get`/`len`, never the index.

use foces_atpg::{trace_flows, LogicalFlow};
use foces_controlplane::{provision, uniform_flows, ControllerView, Deployment, RuleGranularity};
use foces_dataplane::{
    dst_match, pair_header, pair_match, Action, FlowTable, Rule, RuleRef, HEADER_WIDTH,
};
use foces_headerspace::Wildcard;
use foces_net::generators::{bcube, dcell, fattree, random_connected, stanford};
use foces_net::{HostId, Node, Port, SwitchId, Topology};
use foces_verify::{verify_with, VerifyOptions, VerifyReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The full-scan precedence order: every index, priority descending, index
/// ascending on ties.
fn reference_order(table: &FlowTable) -> Vec<usize> {
    let mut order: Vec<usize> = (0..table.len()).collect();
    order.sort_by(|&a, &b| {
        let (ra, rb) = (table.get(a).unwrap(), table.get(b).unwrap());
        rb.priority().cmp(&ra.priority()).then(a.cmp(&b))
    });
    order
}

fn reference_overlaps(a: &Wildcard, b: &Wildcard) -> bool {
    a.intersect(b).is_some()
}

/// Per-bit membership, as `matches_concrete` decided it before.
fn reference_matches(w: &Wildcard, header: u64) -> bool {
    (0..w.width()).all(|pos| {
        w.bit(pos)
            .is_none_or(|v| ((header >> (w.width() - 1 - pos)) & 1 == 1) == v)
    })
}

fn reference_representative(w: &Wildcard) -> u64 {
    (0..w.width()).fold(0, |h, pos| {
        h | (u64::from(w.bit(pos) == Some(true)) << (w.width() - 1 - pos))
    })
}

/// The linear-scan `FlowTable::lookup`: keeps the first best priority.
fn reference_lookup(table: &FlowTable, header: u64) -> Option<usize> {
    let mut best: Option<(usize, &Rule)> = None;
    for (i, r) in table.iter() {
        if !reference_matches(r.match_fields(), header) {
            continue;
        }
        match best {
            Some((_, b)) if b.priority() >= r.priority() => {}
            _ => best = Some((i, r)),
        }
    }
    best.map(|(i, _)| i)
}

fn reference_overlapping(table: &FlowTable, region: &Wildcard) -> Vec<usize> {
    reference_order(table)
        .into_iter()
        .filter(|&i| reference_overlaps(table.get(i).unwrap().match_fields(), region))
        .collect()
}

fn reference_disjoint_or_nested(table: &FlowTable) -> bool {
    table.iter().all(|(i, ri)| {
        table.iter().skip(i + 1).all(|(_, rj)| {
            let (mi, mj) = (ri.match_fields(), rj.match_fields());
            !reference_overlaps(mi, mj) || mi.is_subset_of(mj) || mj.is_subset_of(mi)
        })
    })
}

/// Host ids drawn from a small range, so rules and headers collide often.
const HOSTS: u32 = 6;

fn host(rng: &mut StdRng) -> HostId {
    HostId(rng.gen_range(0..HOSTS) as usize)
}

/// A rule-shaped match: per-destination, per-pair, prefix or match-all.
fn random_match(rng: &mut StdRng) -> Wildcard {
    match rng.gen_range(0..8u32) {
        0..=2 => dst_match(host(rng)),
        3..=5 => pair_match(host(rng), host(rng)),
        6 => {
            let len = rng.gen_range(0..=HEADER_WIDTH);
            let bits = pair_header(host(rng), host(rng));
            Wildcard::prefix(HEADER_WIDTH, bits, len).unwrap()
        }
        _ => Wildcard::any(HEADER_WIDTH),
    }
}

fn random_table(rng: &mut StdRng) -> FlowTable {
    let len = rng.gen_range(0..40usize);
    (0..len)
        .map(|_| {
            let action = if rng.gen_bool(0.25) {
                Action::Drop
            } else {
                Action::Forward(Port(rng.gen_range(0..4usize)))
            };
            Rule::new(random_match(rng), rng.gen_range(0..4u16), action)
        })
        .collect()
}

/// A region: a rule-shaped match with a few of its free bits pinned.
fn random_region(rng: &mut StdRng) -> Wildcard {
    let mut w = random_match(rng);
    for _ in 0..rng.gen_range(0..4u32) {
        let pos = rng.gen_range(0..HEADER_WIDTH);
        if w.bit(pos).is_none() {
            w.set_bit(pos, Some(rng.gen_bool(0.3)));
        }
    }
    w
}

/// A header: mostly a host pair, sometimes random, with or without
/// garbage above the 32 header bits.
fn random_header(rng: &mut StdRng) -> u64 {
    let garbage = if rng.gen_bool(0.5) {
        rng.gen::<u64>() << HEADER_WIDTH
    } else {
        0
    };
    let low = if rng.gen_bool(0.75) {
        pair_header(host(rng), host(rng))
    } else {
        rng.gen::<u64>() & ((1 << HEADER_WIDTH) - 1)
    };
    low | garbage
}

#[test]
fn lookup_and_overlapping_equal_a_linear_scan_on_random_tables() {
    let mut rng = StdRng::seed_from_u64(18);
    let (mut hits, mut misses, mut met) = (0usize, 0usize, 0usize);
    for _ in 0..200 {
        let table = random_table(&mut rng);
        assert_eq!(table.precedence(), reference_order(&table));
        assert_eq!(
            table.is_disjoint_or_nested(),
            reference_disjoint_or_nested(&table),
            "{table}"
        );
        for _ in 0..50 {
            let header = random_header(&mut rng);
            let got = table.lookup(header);
            assert_eq!(got.map(|(i, _)| i), reference_lookup(&table, header));
            if let Some((i, rule)) = got {
                assert_eq!(Some(rule), table.get(i));
                hits += 1;
            } else {
                misses += 1;
            }
            let region = random_region(&mut rng);
            let got = table.overlapping(&region);
            assert_eq!(
                got,
                reference_overlapping(&table, &region),
                "{region}\n{table}"
            );
            met += got.len();
        }
    }
    // The draws exercise both outcomes, not just misses.
    assert!(hits > 1000 && misses > 1000, "{hits} hits, {misses} misses");
    assert!(met > 10_000, "{met} rules met");
}

/// The full-scan tracer, kept as the reference: every rule at every hop, in
/// precedence order, with the region intersected against each.
mod reference_atpg {
    use super::*;

    #[derive(Clone)]
    struct Region {
        pos: Wildcard,
        negs: Vec<Wildcard>,
    }

    impl Region {
        fn is_empty(&self) -> bool {
            self.negs.iter().any(|n| self.pos.is_subset_of(n))
        }

        fn constrain(&self, m: &Wildcard) -> Option<Region> {
            let pos = self.pos.intersect(m)?;
            let negs: Vec<Wildcard> = self
                .negs
                .iter()
                .filter(|n| reference_overlaps(&pos, n))
                .cloned()
                .collect();
            let r = Region { pos, negs };
            (!r.is_empty()).then_some(r)
        }
    }

    pub fn trace_flows(view: &ControllerView) -> Vec<LogicalFlow> {
        let topo = view.topology();
        let mut out = Vec::new();
        for ingress in topo.hosts() {
            let Some((first_switch, _)) = topo.host_attachment(ingress) else {
                continue;
            };
            let mut pos = Wildcard::any(HEADER_WIDTH);
            for bit in 0..16 {
                pos.set_bit(bit, Some((ingress.0 >> (15 - bit)) & 1 == 1));
            }
            let region = Region {
                pos,
                negs: Vec::new(),
            };
            let start = (Vec::new(), Vec::new());
            trace_from(view, ingress, first_switch, region, start, 0, &mut out);
        }
        out.sort_by(|a, b| {
            (a.ingress, a.egress, format!("{}", a.header)).cmp(&(
                b.ingress,
                b.egress,
                format!("{}", b.header),
            ))
        });
        out
    }

    fn trace_from(
        view: &ControllerView,
        ingress: HostId,
        switch: SwitchId,
        region: Region,
        (history, path): (Vec<RuleRef>, Vec<SwitchId>),
        hops: usize,
        out: &mut Vec<LogicalFlow>,
    ) {
        if hops >= 64 {
            return;
        }
        let table = view.table(switch);
        let mut shadow = region;
        for idx in reference_order(table) {
            let rule = table.get(idx).unwrap();
            let Some(matched) = shadow.constrain(rule.match_fields()) else {
                continue;
            };
            let mut new_history = history.clone();
            new_history.push(RuleRef { switch, index: idx });
            let mut new_path = path.clone();
            new_path.push(switch);
            if let Action::Forward(port) = rule.action() {
                if let Some(adj) = view.topology().adj(Node::Switch(switch)).get(port.0) {
                    match adj.neighbor {
                        Node::Host(egress) if egress != ingress => out.push(LogicalFlow {
                            ingress,
                            egress,
                            header: matched.pos.clone(),
                            rules: new_history,
                            path: new_path,
                        }),
                        Node::Host(_) => {}
                        Node::Switch(next) => trace_from(
                            view,
                            ingress,
                            next,
                            matched.clone(),
                            (new_history, new_path),
                            hops + 1,
                            out,
                        ),
                    }
                }
            }
            shadow.negs.push(rule.match_fields().clone());
            if shadow.is_empty() {
                break;
            }
        }
    }
}

fn deployment(topo: Topology, granularity: RuleGranularity) -> Deployment {
    let flows = uniform_flows(&topo, topo.host_count() as f64 * 1000.0);
    provision(topo, &flows, granularity).unwrap()
}

fn assert_traces_match(name: &str, view: &ControllerView) {
    let got = trace_flows(view);
    let want = reference_atpg::trace_flows(view);
    assert!(!want.is_empty(), "{name}: no flows traced");
    assert_eq!(got.len(), want.len(), "{name}: flow count");
    assert!(
        got == want,
        "{name}: traced flows differ from the full scan"
    );
}

#[test]
fn tracer_equals_the_full_scan_on_paper_topologies() {
    for (name, topo, granularity) in [
        ("fattree4/dst", fattree(4), RuleGranularity::PerDestination),
        ("fattree4/pair", fattree(4), RuleGranularity::PerFlowPair),
        ("stanford/dst", stanford(), RuleGranularity::PerDestination),
        ("bcube/dst", bcube(1, 4), RuleGranularity::PerDestination),
        ("dcell/dst", dcell(1, 4), RuleGranularity::PerDestination),
    ] {
        assert_traces_match(name, &deployment(topo, granularity).view);
    }
}

#[test]
fn tracer_and_verifier_equal_the_full_scan_after_each_kind_of_update() {
    let base = deployment(fattree(4), RuleGranularity::PerDestination);
    let fi = base
        .expected_paths
        .iter()
        .position(|p| p.len() >= 3)
        .expect("fattree(4) has inter-pod paths");

    // Reroute through a switch off the flow's current path.
    let mut rerouted = base.clone();
    let waypoint = rerouted
        .view
        .topology()
        .switches()
        .find(|s| {
            !base.expected_paths[fi].contains(s) && rerouted.probe_reroute_via(fi, &[*s]).is_ok()
        })
        .expect("an off-path waypoint");
    rerouted.reroute_flow_via(fi, &[waypoint]).unwrap();
    assert_traces_match("reroute", &rerouted.view);
    assert_verify_matches("reroute", &rerouted.view);

    let mut refined = base.clone();
    refined.refine_flow(fi).unwrap();
    assert_traces_match("refine", &refined.view);
    assert_verify_matches("refine", &refined.view);

    // A hardening rule nested in the per-destination rules: it diverts
    // one pair to a different port of its ingress switch.
    let mut hardened = base.clone();
    let spec = hardened.flows[fi];
    let sw = hardened.expected_paths[fi][0];
    let rule = Rule::new(pair_match(spec.src, spec.dst), 20, Action::Forward(Port(0)));
    hardened.install_hardening(sw, rule);
    assert_traces_match("hardening", &hardened.view);
    assert_verify_matches("hardening", &hardened.view);
}

/// The full-scan traversal and shadow check, kept as the reference: every rule
/// of every visited table, in precedence order.
mod reference_verify {
    use super::*;
    use foces_headerspace::covers;
    use foces_verify::{Finding, FindingKind};
    use std::collections::HashSet;

    struct Region {
        pos: Wildcard,
        negs: Vec<Wildcard>,
    }

    impl Region {
        fn witness(&self) -> Option<Wildcard> {
            self.pos.subtract_all(&self.negs).into_iter().next()
        }

        fn constrain(&self, m: &Wildcard) -> Option<(Region, Wildcard)> {
            let pos = self.pos.intersect(m)?;
            let negs: Vec<Wildcard> = self
                .negs
                .iter()
                .filter(|n| reference_overlaps(&pos, n))
                .cloned()
                .collect();
            let r = Region { pos, negs };
            let w = r.witness()?;
            Some((r, w))
        }
    }

    struct Traversal<'a> {
        view: &'a ControllerView,
        report: VerifyReport,
        loops_seen: HashSet<Vec<RuleRef>>,
        holes_seen: HashSet<(SwitchId, Option<RuleRef>)>,
    }

    fn finding(
        kind: FindingKind,
        switch: SwitchId,
        rules: Vec<RuleRef>,
        piece: Wildcard,
        detail: String,
    ) -> Finding {
        Finding {
            kind,
            switch,
            rules,
            header: Some(reference_representative(&piece)),
            region: Some(piece),
            detail,
        }
    }

    pub fn verify(view: &ControllerView) -> VerifyReport {
        let topo = view.topology();
        let mut t = Traversal {
            view,
            report: VerifyReport::default(),
            loops_seen: HashSet::new(),
            holes_seen: HashSet::new(),
        };
        for ingress in topo.hosts() {
            let Some((first_switch, _)) = topo.host_attachment(ingress) else {
                continue;
            };
            let mut pos = Wildcard::any(HEADER_WIDTH);
            for bit in 0..16 {
                pos.set_bit(bit, Some((ingress.0 >> (15 - bit)) & 1 == 1));
            }
            let region = Region {
                pos,
                negs: Vec::new(),
            };
            t.explore(first_switch, region, Vec::new(), Vec::new());
        }
        let mut report = t.report;
        shadowing(view, &mut report);
        report
    }

    impl Traversal<'_> {
        fn explore(
            &mut self,
            switch: SwitchId,
            region: Region,
            history: Vec<RuleRef>,
            path: Vec<SwitchId>,
        ) {
            if let Some(k) = path.iter().position(|&s| s == switch) {
                self.report.classes_traced += 1;
                let mut cycle: Vec<RuleRef> = history[k..].to_vec();
                if let Some(start) = cycle
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, r)| **r)
                    .map(|(i, _)| i)
                {
                    cycle.rotate_left(start);
                }
                if self.loops_seen.insert(cycle) {
                    let piece = region.witness().unwrap();
                    let cycle_path: Vec<String> =
                        path[k..].iter().map(|s| format!("s{}", s.0)).collect();
                    let detail = format!(
                        "header class re-enters s{}: cycle {} -> s{}",
                        switch.0,
                        cycle_path.join(" -> "),
                        switch.0
                    );
                    let f = finding(FindingKind::ForwardingLoop, switch, history, piece, detail);
                    self.report.findings.push(f);
                }
                return;
            }
            if path.len() > self.view.topology().switch_count() {
                return;
            }
            let table = self.view.table(switch);
            let mut shadow = region;
            for idx in reference_order(table) {
                let rule = table.get(idx).unwrap();
                let Some((matched, piece)) = shadow.constrain(rule.match_fields()) else {
                    continue;
                };
                let rref = RuleRef { switch, index: idx };
                let mut new_history = history.clone();
                new_history.push(rref);
                let mut new_path = path.clone();
                new_path.push(switch);
                match rule.action() {
                    Action::Drop => self.report.classes_traced += 1,
                    Action::Forward(port) => {
                        match self.view.topology().adj(Node::Switch(switch)).get(port.0) {
                            None => {
                                self.report.classes_traced += 1;
                                if self.holes_seen.insert((switch, Some(rref))) {
                                    let detail = format!(
                                        "rule {rref} forwards out port {} which has no link",
                                        port.0
                                    );
                                    let f = finding(
                                        FindingKind::Blackhole,
                                        switch,
                                        new_history,
                                        piece,
                                        detail,
                                    );
                                    self.report.findings.push(f);
                                }
                            }
                            Some(adj) => match adj.neighbor {
                                Node::Host(_) => self.report.classes_traced += 1,
                                Node::Switch(next) => {
                                    self.explore(next, matched, new_history, new_path);
                                }
                            },
                        }
                    }
                }
                shadow.negs.push(rule.match_fields().clone());
            }
            if let Some(piece) = shadow.witness() {
                self.report.classes_traced += 1;
                if !history.is_empty() && self.holes_seen.insert((switch, None)) {
                    let detail = format!(
                        "traffic forwarded to s{} misses its table (no matching rule)",
                        switch.0
                    );
                    let f = finding(FindingKind::Blackhole, switch, history, piece, detail);
                    self.report.findings.push(f);
                }
            }
        }
    }

    fn shadowing(view: &ControllerView, report: &mut VerifyReport) {
        for switch in view.topology().switches() {
            let table = view.table(switch);
            let order = reference_order(table);
            for (pos, &idx) in order.iter().enumerate() {
                report.rules_checked += 1;
                let rule = table.get(idx).unwrap();
                let rref = RuleRef { switch, index: idx };
                let shadowers: Vec<(RuleRef, &Wildcard)> = order[..pos]
                    .iter()
                    .map(|&i| {
                        (
                            RuleRef { switch, index: i },
                            table.get(i).unwrap().match_fields(),
                        )
                    })
                    .filter(|(_, m)| reference_overlaps(m, rule.match_fields()))
                    .collect();
                if shadowers.is_empty() {
                    continue;
                }
                let cover: Vec<Wildcard> = shadowers.iter().map(|(_, m)| (*m).clone()).collect();
                if covers(&cover, rule.match_fields()) {
                    let mut rules = vec![rref];
                    rules.extend(shadowers.iter().map(|(r, _)| *r));
                    let detail = format!(
                        "rule {rref} [p{}] {} is dead: fully covered by {} \
                         higher-precedence rule(s)",
                        rule.priority(),
                        rule.match_fields(),
                        shadowers.len()
                    );
                    let matched = rule.match_fields().clone();
                    let f = finding(FindingKind::ShadowedRule, switch, rules, matched, detail);
                    report.findings.push(f);
                }
            }
        }
    }
}

/// The verifier's findings, classes and rule count equal the reference's;
/// returns the number of findings.
fn assert_verify_matches(name: &str, view: &ControllerView) -> usize {
    let opts = VerifyOptions {
        check_fcm: false,
        ..Default::default()
    };
    let got = verify_with(view, &opts);
    let want = reference_verify::verify(view);
    assert_eq!(got.classes_traced, want.classes_traced, "{name}");
    assert_eq!(got.rules_checked, want.rules_checked, "{name}");
    assert_eq!(
        format!("{:?}", got.findings),
        format!("{:?}", want.findings),
        "{name}"
    );
    got.findings.len()
}

fn cloned_tables(view: &ControllerView) -> Vec<FlowTable> {
    (0..view.topology().switch_count())
        .map(|s| view.table(SwitchId(s)).clone())
        .collect()
}

/// The three mutation families of the verifier's own property tests, on
/// seeded random per-pair planes: a mid-path next hop bounced back (a
/// loop), a deleted last-hop rule (a blackhole), and a broader
/// higher-priority rule over a pair rule (a dead rule).
#[test]
fn verifier_findings_equal_the_full_scan_on_seeded_mutations() {
    let mut findings = [0usize; 4];
    for seed in 0..6u64 {
        let topo = random_connected(4 + seed as usize % 4, seed as usize % 4, 100 + seed);
        let dep = deployment(topo, RuleGranularity::PerFlowPair);
        findings[0] += assert_verify_matches("clean", &dep.view);
        let fi = dep
            .expected_paths
            .iter()
            .position(|p| p.len() >= 2)
            .expect("a multi-hop flow");
        let spec = dep.flows[fi];
        let path = &dep.expected_paths[fi];
        let header = pair_header(spec.src, spec.dst);
        let topo = dep.view.topology();

        let mut tables = cloned_tables(&dep.view);
        let (idx, _) = dep.view.table(path[1]).lookup(header).unwrap();
        let back = topo
            .port_towards(Node::Switch(path[1]), Node::Switch(path[0]))
            .unwrap();
        tables[path[1].0].set_action(idx, Action::Forward(back));
        let looped = ControllerView::from_parts(topo.clone(), tables);
        findings[1] += assert_verify_matches("loop", &looped);

        let last = *path.last().unwrap();
        let (deleted, _) = dep.view.table(last).lookup(header).unwrap();
        let mut tables = cloned_tables(&dep.view);
        tables[last.0] = dep
            .view
            .table(last)
            .iter()
            .filter(|&(i, _)| i != deleted)
            .map(|(_, r)| r.clone())
            .collect();
        let holed = ControllerView::from_parts(topo.clone(), tables);
        findings[2] += assert_verify_matches("blackhole", &holed);

        let mut shadowed = dep.view.clone();
        let (_, rule) = dep.view.table(path[0]).lookup(header).unwrap();
        shadowed.install(path[0], Rule::new(dst_match(spec.dst), 99, rule.action()));
        findings[3] += assert_verify_matches("shadow", &shadowed);
    }
    assert_eq!(findings[0], 0, "clean planes have no findings");
    assert!(findings[1..].iter().all(|&n| n >= 6), "{findings:?}");
}

/// FatTree(8) per-pair: 16,256 flows. The full-scan reference takes over
/// ten seconds in release, so this runs in CI's scaling job only:
/// `cargo test --release --offline --test table_index -- --ignored`.
#[test]
#[ignore = "FatTree(8) per-pair reference trace; run with --release -- --ignored"]
fn tracer_equals_the_full_scan_on_fattree8_per_pair() {
    let view = deployment(fattree(8), RuleGranularity::PerFlowPair).view;
    assert_traces_match("fattree8/pair", &view);
    assert_eq!(trace_flows(&view).len(), 16_256);
}
