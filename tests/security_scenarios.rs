//! The security-analysis cases of paper §V, constructed explicitly:
//! switch bypass, path detour, and early drop, each on a hand-built
//! topology where the expected counter signature can be asserted exactly.

use foces::{Detector, Fcm};
use foces_baselines::FlowMonChecker;
use foces_controlplane::ControllerView;
use foces_dataplane::{
    dst_match, pair_header, Action, DataPlane, FlowTable, LossModel, Rule, RuleRef,
};
use foces_net::{HostId, Node, SwitchId, Topology};

/// Line path s0-s1-s2-s3 with a bypass link s1-s3 and a stub switch d
/// hanging off s1 (for the detour case). One host at each end, plus a host
/// on d so the stub carries its own (benign) traffic.
struct Scenario {
    dp: DataPlane,
    fcm: Fcm,
    s: Vec<SwitchId>,
    d: SwitchId,
    h: Vec<HostId>,
    rules_main: Vec<RuleRef>, // dst-h1 rules at s0..s3
}

fn build() -> Scenario {
    let mut topo = Topology::new();
    let s: Vec<SwitchId> = (0..4).map(|_| topo.add_switch()).collect();
    let d = topo.add_switch();
    let h0 = topo.add_host();
    let h1 = topo.add_host();
    let hd = topo.add_host();
    topo.connect(Node::Switch(s[0]), Node::Switch(s[1]))
        .unwrap();
    topo.connect(Node::Switch(s[1]), Node::Switch(s[2]))
        .unwrap();
    topo.connect(Node::Switch(s[2]), Node::Switch(s[3]))
        .unwrap();
    topo.connect(Node::Switch(s[1]), Node::Switch(s[3]))
        .unwrap(); // bypass link
    topo.connect(Node::Switch(s[1]), Node::Switch(d)).unwrap(); // stub link
    topo.connect(Node::Host(h0), Node::Switch(s[0])).unwrap();
    topo.connect(Node::Host(h1), Node::Switch(s[3])).unwrap();
    topo.connect(Node::Host(hd), Node::Switch(d)).unwrap();

    let port =
        |a: SwitchId, b: SwitchId| topo.port_towards(Node::Switch(a), Node::Switch(b)).unwrap();
    let hport =
        |a: SwitchId, hh: HostId| topo.port_towards(Node::Switch(a), Node::Host(hh)).unwrap();

    // Policy: h0 -> h1 along s0-s1-s2-s3; hd -> h1 via d-s1-s2-s3; and
    // h0 -> hd via s0-s1-d (so d has benign rules of its own). Reverse
    // paths give the detector the unaffected-rule majority its anomaly
    // index relies on ("majority good" assumption, §IV-A).
    let mut tables = vec![FlowTable::new(); topo.switch_count()];
    // dst h1 rules.
    tables[s[0].0].push(Rule::new(
        dst_match(h1),
        5,
        Action::Forward(port(s[0], s[1])),
    ));
    tables[s[1].0].push(Rule::new(
        dst_match(h1),
        5,
        Action::Forward(port(s[1], s[2])),
    ));
    tables[s[2].0].push(Rule::new(
        dst_match(h1),
        5,
        Action::Forward(port(s[2], s[3])),
    ));
    tables[s[3].0].push(Rule::new(
        dst_match(h1),
        5,
        Action::Forward(hport(s[3], h1)),
    ));
    tables[d.0].push(Rule::new(dst_match(h1), 5, Action::Forward(port(d, s[1]))));
    // dst hd rules.
    tables[s[0].0].push(Rule::new(
        dst_match(hd),
        5,
        Action::Forward(port(s[0], s[1])),
    ));
    tables[s[1].0].push(Rule::new(dst_match(hd), 5, Action::Forward(port(s[1], d))));
    tables[d.0].push(Rule::new(dst_match(hd), 5, Action::Forward(hport(d, hd))));
    // dst h0 rules (reverse direction).
    tables[s[3].0].push(Rule::new(
        dst_match(h0),
        5,
        Action::Forward(port(s[3], s[2])),
    ));
    tables[s[2].0].push(Rule::new(
        dst_match(h0),
        5,
        Action::Forward(port(s[2], s[1])),
    ));
    tables[s[1].0].push(Rule::new(
        dst_match(h0),
        5,
        Action::Forward(port(s[1], s[0])),
    ));
    tables[s[0].0].push(Rule::new(
        dst_match(h0),
        5,
        Action::Forward(hport(s[0], h0)),
    ));
    tables[d.0].push(Rule::new(dst_match(h0), 5, Action::Forward(port(d, s[1]))));

    let view = ControllerView::from_parts(topo.clone(), tables.clone());
    let fcm = Fcm::from_view(&view);
    let mut dp = DataPlane::new(topo);
    for (sw_idx, table) in tables.iter().enumerate() {
        for (_, rule) in table.iter() {
            dp.install(SwitchId(sw_idx), rule.clone());
        }
    }
    let rules_main = (0..4)
        .map(|i| RuleRef {
            switch: s[i],
            index: 0,
        })
        .collect();
    Scenario {
        dp,
        fcm,
        s,
        d,
        h: vec![h0, h1, hd],
        rules_main,
    }
}

fn replay(sc: &mut Scenario) {
    let v = 1000.0;
    let mut loss = LossModel::none();
    let (h0, h1, hd) = (sc.h[0], sc.h[1], sc.h[2]);
    sc.dp.inject(h0, pair_header(h0, h1), v, &mut loss);
    sc.dp.inject(hd, pair_header(hd, h1), v, &mut loss);
    sc.dp.inject(h0, pair_header(h0, hd), v, &mut loss);
    // Reverse-direction background traffic.
    sc.dp.inject(h1, pair_header(h1, h0), v, &mut loss);
    sc.dp.inject(hd, pair_header(hd, h0), v, &mut loss);
}

fn detect(sc: &Scenario) -> foces::Verdict {
    Detector::default()
        .detect(&sc.fcm, &sc.fcm.counters_from(&sc.dp))
        .expect("solve")
}

#[test]
fn baseline_scenario_is_healthy() {
    let mut sc = build();
    replay(&mut sc);
    let v = detect(&sc);
    assert!(!v.anomalous, "{v}");
}

#[test]
fn switch_bypass_is_detected() {
    // §V Switch Bypass: s1 forwards h0->h1 traffic straight to s3 over the
    // bypass link, skipping s2. s1's and s3's counters stay consistent;
    // s2's rule is starved — exactly the paper's signature.
    let mut sc = build();
    let p13 = sc
        .dp
        .topology()
        .port_towards(Node::Switch(sc.s[1]), Node::Switch(sc.s[3]))
        .unwrap();
    sc.dp
        .modify_rule_action(sc.rules_main[1], Action::Forward(p13))
        .unwrap();
    replay(&mut sc);
    // Packets still delivered (the bypass is silent at the endpoints).
    assert_eq!(sc.dp.counter(sc.s[3], 0), 2000.0); // both h1-bound flows
    assert_eq!(sc.dp.counter(sc.s[2], 0), 0.0); // starved skipped switch
    let v = detect(&sc);
    assert!(v.anomalous, "{v}");
    assert_eq!(
        v.worst_rule.unwrap().switch,
        sc.s[2],
        "largest residual at the skipped switch"
    );
}

#[test]
fn path_detour_is_detected_and_inflates_detour_counters() {
    // §V Path Detour: s1 sends h0->h1 traffic to the stub d. d's own route
    // for h1 points back to s1, whose (modified) rule sends it to d again:
    // the volume ping-pongs until the hop budget kills it. The counters at
    // d (and s1) inflate far beyond any benign explanation while s2/s3
    // starve — FOCES flags it immediately.
    let mut sc = build();
    let p1d = sc
        .dp
        .topology()
        .port_towards(Node::Switch(sc.s[1]), Node::Switch(sc.d))
        .unwrap();
    sc.dp
        .modify_rule_action(sc.rules_main[1], Action::Forward(p1d))
        .unwrap();
    replay(&mut sc);
    // d's dst-h1 rule sees the looping volume many times over.
    let d_counter = sc.dp.counter(sc.d, 0);
    assert!(d_counter > 10_000.0, "detour counter inflated: {d_counter}");
    assert_eq!(sc.dp.counter(sc.s[2], 0), 0.0);
    let v = detect(&sc);
    assert!(v.anomalous, "{v}");
}

#[test]
fn early_drop_is_detected() {
    // §V Early Drop: s1 silently drops instead of forwarding; downstream
    // counters starve while s1's own counter still looks plausible.
    let mut sc = build();
    sc.dp
        .modify_rule_action(sc.rules_main[1], Action::Drop)
        .unwrap();
    replay(&mut sc);
    // Both h1-bound flows (from h0 and hd) hit s1's rule before the drop.
    assert_eq!(sc.dp.counter(sc.s[1], 0), 2000.0); // adversary counts "normally"
    assert_eq!(sc.dp.counter(sc.s[2], 0), 0.0);
    let v = detect(&sc);
    assert!(v.anomalous, "{v}");
}

#[test]
fn flowmon_contrast_bypass_is_invisible_to_port_stats() {
    // The same switch bypass that FOCES flags keeps every switch's port
    // totals balanced (nothing is dropped), so the per-port baseline sees
    // nothing — the paper's detection-scope argument, executable.
    let mut sc = build();
    let p13 = sc
        .dp
        .topology()
        .port_towards(Node::Switch(sc.s[1]), Node::Switch(sc.s[3]))
        .unwrap();
    sc.dp
        .modify_rule_action(sc.rules_main[1], Action::Forward(p13))
        .unwrap();
    replay(&mut sc);
    assert!(detect(&sc).anomalous);
    assert!(
        FlowMonChecker::new(0.001).check(&sc.dp).is_empty(),
        "port statistics balance everywhere under a pure re-route"
    );
}

#[test]
fn adversary_counter_faking_does_not_help() {
    // The threat model lets the compromised switch report any counters for
    // its own rules. Even if s1 forges its counter to the expected value
    // after an early drop, the downstream starvation still betrays it.
    let mut sc = build();
    sc.dp
        .modify_rule_action(sc.rules_main[1], Action::Drop)
        .unwrap();
    replay(&mut sc);
    let mut counters = sc.fcm.counters_from(&sc.dp);
    // Forge s1's dst-h1 counter to exactly what the controller expects.
    let row = sc.fcm.rule_row(sc.rules_main[1]).unwrap();
    counters[row] = 2000.0;
    let v = Detector::default().detect(&sc.fcm, &counters).unwrap();
    assert!(
        v.anomalous,
        "forged local counters cannot hide starvation: {v}"
    );
}
