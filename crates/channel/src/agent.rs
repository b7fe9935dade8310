//! Per-switch channel endpoints.
//!
//! An agent is the software on a switch that answers the controller's
//! requests — the piece the adversary owns on a compromised switch.

use crate::message::{ControllerMsg, SwitchMsg, WireRule};
use foces_dataplane::DataPlane;
use foces_net::SwitchId;
use std::collections::HashMap;

/// A switch's side of the control channel: turns a decoded request into a
/// reply, given (read) access to the local data-plane state.
///
/// Implementations decide what to *report* — honesty is a property of the
/// agent, not of the channel.
pub trait SwitchAgent {
    /// The switch this agent runs on.
    fn switch(&self) -> SwitchId;

    /// Answers one controller request.
    fn handle(&self, dp: &DataPlane, msg: &ControllerMsg) -> SwitchMsg;
}

/// The well-behaved agent: reports true counters and the live flow table.
#[derive(Debug, Clone, Copy)]
pub struct HonestAgent {
    switch: SwitchId,
}

impl HonestAgent {
    /// Creates an honest agent for `switch`.
    pub fn new(switch: SwitchId) -> Self {
        HonestAgent { switch }
    }
}

impl SwitchAgent for HonestAgent {
    fn switch(&self) -> SwitchId {
        self.switch
    }

    fn handle(&self, dp: &DataPlane, msg: &ControllerMsg) -> SwitchMsg {
        match msg {
            ControllerMsg::StatsRequest { xid } => SwitchMsg::StatsReply {
                xid: *xid,
                generation: dp.table_generation(self.switch),
                counters: (0..dp.table(self.switch).len())
                    .map(|i| dp.counter(self.switch, i))
                    .collect(),
            },
            ControllerMsg::TableDumpRequest { xid } => SwitchMsg::TableDumpReply {
                xid: *xid,
                rules: dp
                    .table(self.switch)
                    .iter()
                    .map(|(i, r)| WireRule::from_rule(r, dp.counter(self.switch, i)))
                    .collect(),
            },
        }
    }
}

/// The compromised agent of the paper's threat model (§II-B): answers
/// table dumps with the **original** rules (as installed by the
/// controller, before the adversary rewrote actions) and overlays forged
/// counter values for chosen rules — "the adversary … can modify the
/// counters of rules at compromised switches, so as to pretend to have
/// correctly forwarded packets."
#[derive(Debug, Clone)]
pub struct ForgingAgent {
    switch: SwitchId,
    /// The table as the controller installed it (what dumps will claim).
    original_rules: Vec<foces_dataplane::Rule>,
    /// Rule-index → counter value to report instead of the truth.
    forged_counters: HashMap<usize, f64>,
}

impl ForgingAgent {
    /// Creates a forging agent. `original_rules` is the switch's table as
    /// the controller knows it (snapshot it *before* injecting anomalies).
    pub fn new(switch: SwitchId, original_rules: Vec<foces_dataplane::Rule>) -> Self {
        ForgingAgent {
            switch,
            original_rules,
            forged_counters: HashMap::new(),
        }
    }

    /// Forges the reported counter of rule `index`.
    pub fn forge_counter(&mut self, index: usize, value: f64) {
        self.forged_counters.insert(index, value);
    }

    fn reported_counter(&self, dp: &DataPlane, index: usize) -> f64 {
        self.forged_counters
            .get(&index)
            .copied()
            .unwrap_or_else(|| dp.counter(self.switch, index))
    }
}

impl SwitchAgent for ForgingAgent {
    fn switch(&self) -> SwitchId {
        self.switch
    }

    fn handle(&self, dp: &DataPlane, msg: &ControllerMsg) -> SwitchMsg {
        match msg {
            // The generation stamp is copied from the data plane even by
            // the forging agent: claiming an unacknowledged generation
            // would only draw the collector's attention.
            ControllerMsg::StatsRequest { xid } => SwitchMsg::StatsReply {
                xid: *xid,
                generation: dp.table_generation(self.switch),
                counters: (0..dp.table(self.switch).len())
                    .map(|i| self.reported_counter(dp, i))
                    .collect(),
            },
            ControllerMsg::TableDumpRequest { xid } => SwitchMsg::TableDumpReply {
                xid: *xid,
                rules: self
                    .original_rules
                    .iter()
                    .enumerate()
                    .map(|(i, r)| WireRule::from_rule(r, self.reported_counter(dp, i)))
                    .collect(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foces_dataplane::{Action, LossModel, Rule, HEADER_WIDTH};
    use foces_headerspace::Wildcard;
    use foces_net::{Node, Port, Topology};

    fn plane() -> (DataPlane, SwitchId, foces_net::HostId) {
        let mut t = Topology::new();
        let s0 = t.add_switch();
        let s1 = t.add_switch();
        let h0 = t.add_host();
        let h1 = t.add_host();
        t.connect(Node::Switch(s0), Node::Switch(s1)).unwrap();
        t.connect(Node::Host(h0), Node::Switch(s0)).unwrap();
        t.connect(Node::Host(h1), Node::Switch(s1)).unwrap();
        let mut dp = DataPlane::new(t);
        dp.install(
            s0,
            Rule::new(Wildcard::any(HEADER_WIDTH), 0, Action::Forward(Port(0))),
        );
        dp.install(
            s1,
            Rule::new(Wildcard::any(HEADER_WIDTH), 0, Action::Forward(Port(1))),
        );
        (dp, s0, h0)
    }

    #[test]
    fn honest_agent_reports_truth() {
        let (mut dp, s0, h0) = plane();
        dp.inject(h0, 0, 500.0, &mut LossModel::none());
        let agent = HonestAgent::new(s0);
        let SwitchMsg::StatsReply {
            counters,
            xid,
            generation,
        } = agent.handle(&dp, &ControllerMsg::StatsRequest { xid: 9 })
        else {
            panic!("wrong reply type")
        };
        assert_eq!(xid, 9);
        assert_eq!(generation, 0, "provisioning-time generation");
        assert_eq!(counters, vec![500.0]);
        let SwitchMsg::TableDumpReply { rules, .. } =
            agent.handle(&dp, &ControllerMsg::TableDumpRequest { xid: 1 })
        else {
            panic!("wrong reply type")
        };
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].action, Action::Forward(Port(0)));
    }

    #[test]
    fn agents_stamp_the_acknowledged_table_generation() {
        let (mut dp, s0, _) = plane();
        dp.set_table_generation(s0, 3);
        let original: Vec<Rule> = dp.table(s0).iter().map(|(_, r)| r.clone()).collect();
        for agent in [
            Box::new(HonestAgent::new(s0)) as Box<dyn SwitchAgent>,
            Box::new(ForgingAgent::new(s0, original)),
        ] {
            let SwitchMsg::StatsReply { generation, .. } =
                agent.handle(&dp, &ControllerMsg::StatsRequest { xid: 1 })
            else {
                panic!("wrong reply type")
            };
            assert_eq!(generation, 3);
        }
    }

    #[test]
    fn forging_agent_reports_original_table_after_compromise() {
        let (mut dp, s0, h0) = plane();
        // Snapshot the original table, then compromise the rule.
        let original: Vec<Rule> = dp.table(s0).iter().map(|(_, r)| r.clone()).collect();
        dp.modify_rule_action(
            foces_dataplane::RuleRef {
                switch: s0,
                index: 0,
            },
            Action::Drop,
        )
        .unwrap();
        dp.inject(h0, 0, 500.0, &mut LossModel::none());
        let agent = ForgingAgent::new(s0, original);
        let SwitchMsg::TableDumpReply { rules, .. } =
            agent.handle(&dp, &ControllerMsg::TableDumpRequest { xid: 2 })
        else {
            panic!("wrong reply type")
        };
        // The dump claims the ORIGINAL forward action, not the drop.
        assert_eq!(rules[0].action, Action::Forward(Port(0)));
    }

    #[test]
    fn forged_counters_override_truth() {
        let (mut dp, s0, h0) = plane();
        dp.inject(h0, 0, 500.0, &mut LossModel::none());
        let original: Vec<Rule> = dp.table(s0).iter().map(|(_, r)| r.clone()).collect();
        let mut agent = ForgingAgent::new(s0, original);
        agent.forge_counter(0, 9999.0);
        let SwitchMsg::StatsReply { counters, .. } =
            agent.handle(&dp, &ControllerMsg::StatsRequest { xid: 3 })
        else {
            panic!("wrong reply type")
        };
        assert_eq!(counters, vec![9999.0]);
    }
}
