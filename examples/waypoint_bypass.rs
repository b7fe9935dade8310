//! Scenario: a **firewall waypoint bypass** — the motivating attack from
//! the paper's introduction ("the control plane policy may require a
//! specific flow go through a firewall, and forwarding anomaly can cause
//! all packets of this flow bypass the firewall").
//!
//! The operator's policy routes guest traffic through a firewall switch
//! even though a shorter physical path exists. A compromised edge switch
//! silently rewrites its forwarding rule to take the short cut. Flow-table
//! dumps look clean (the adversary forges them); only the counters tell —
//! and FOCES reads exactly those.
//!
//! ```sh
//! cargo run --release --example waypoint_bypass
//! ```

use foces::{Detector, Fcm};
use foces_controlplane::ControllerView;
use foces_dataplane::{dst_match, Action, DataPlane, FlowTable, LossModel, Rule, RuleRef};
use foces_net::{Node, Topology};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Topology:   guest h0 ── s0 ──── s1(firewall) ──── s2 ──── s3 ── h1 server
    //                          └───────── bypass ────────┘
    let mut topo = Topology::new();
    let s0 = topo.add_switch(); // guest edge
    let s1 = topo.add_switch(); // firewall
    let s2 = topo.add_switch(); // core
    let s3 = topo.add_switch(); // server edge
    let h0 = topo.add_host(); // guest
    let h1 = topo.add_host(); // server
    topo.connect(Node::Switch(s0), Node::Switch(s1))?; // s0 port 0
    topo.connect(Node::Switch(s0), Node::Switch(s2))?; // s0 port 1: the bypass link
    topo.connect(Node::Switch(s1), Node::Switch(s2))?; // s1 port 1
    topo.connect(Node::Switch(s2), Node::Switch(s3))?; // s2 port 2
    topo.connect(Node::Host(h0), Node::Switch(s0))?; // s0 port 2
    topo.connect(Node::Host(h1), Node::Switch(s3))?; // s3 port 1

    // Policy routing (NOT shortest path): guest -> server must transit the
    // firewall. Hand-build the tables the controller installs.
    let p01 = topo
        .port_towards(Node::Switch(s0), Node::Switch(s1))
        .unwrap();
    let p02 = topo
        .port_towards(Node::Switch(s0), Node::Switch(s2))
        .unwrap();
    let p10 = topo
        .port_towards(Node::Switch(s1), Node::Switch(s0))
        .unwrap();
    let p12 = topo
        .port_towards(Node::Switch(s1), Node::Switch(s2))
        .unwrap();
    let p21 = topo
        .port_towards(Node::Switch(s2), Node::Switch(s1))
        .unwrap();
    let p23 = topo
        .port_towards(Node::Switch(s2), Node::Switch(s3))
        .unwrap();
    let p32 = topo
        .port_towards(Node::Switch(s3), Node::Switch(s2))
        .unwrap();
    let p3h = topo.port_towards(Node::Switch(s3), Node::Host(h1)).unwrap();
    let p0h = topo.port_towards(Node::Switch(s0), Node::Host(h0)).unwrap();
    // Both directions transit the firewall (a typical stateful-FW policy).
    let mut t0 = FlowTable::new();
    t0.push(Rule::new(dst_match(h1), 5, Action::Forward(p01))); // via firewall!
    t0.push(Rule::new(dst_match(h0), 5, Action::Forward(p0h)));
    let mut t1 = FlowTable::new();
    t1.push(Rule::new(dst_match(h1), 5, Action::Forward(p12)));
    t1.push(Rule::new(dst_match(h0), 5, Action::Forward(p10)));
    let mut t2 = FlowTable::new();
    t2.push(Rule::new(dst_match(h1), 5, Action::Forward(p23)));
    t2.push(Rule::new(dst_match(h0), 5, Action::Forward(p21)));
    let mut t3 = FlowTable::new();
    t3.push(Rule::new(dst_match(h1), 5, Action::Forward(p3h)));
    t3.push(Rule::new(dst_match(h0), 5, Action::Forward(p32)));
    let tables = vec![t0, t1, t2, t3];

    let view = ControllerView::from_parts(topo.clone(), tables.clone());
    let fcm = Fcm::from_view(&view);
    let path = fcm.flow(0).path;
    println!("policy path for guest->server: {path:?}");
    assert!(path.contains(&s1), "policy transits firewall");

    // Deploy, then compromise s0: skip the firewall via the bypass link.
    let mut dp = DataPlane::new(topo);
    for (sw, table) in view.topology().switches().zip(&tables) {
        for (_, rule) in table.iter() {
            dp.install(sw, rule.clone());
        }
    }
    let guest_rule = RuleRef {
        switch: s0,
        index: 0,
    };
    dp.modify_rule_action(guest_rule, Action::Forward(p02))?;
    println!("adversary at s0 rewired the guest rule onto the bypass link");

    // One interval of traffic in both directions, then detection.
    let header = foces_dataplane::pair_header(h0, h1);
    let report = dp.inject(h0, header, 10_000.0, &mut LossModel::none());
    dp.inject(
        h1,
        foces_dataplane::pair_header(h1, h0),
        10_000.0,
        &mut LossModel::none(),
    );
    println!(
        "packets still delivered to the server: {:?} (the bypass is silent!)",
        report.delivered_to == Some(h1)
    );
    let verdict = Detector::default().detect(&fcm, &dp.collect_counters())?;
    println!("FOCES verdict: {verdict}");
    assert!(verdict.anomalous, "bypass must be detected");
    let worst = verdict.worst_rule.expect("anomalous verdicts localize");
    println!(
        "largest residual at rule {worst} — the firewall's starved counter (s{} = firewall)",
        s1.0
    );
    assert_eq!(worst.switch, s1);
    Ok(())
}
