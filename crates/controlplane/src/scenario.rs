//! Plain-text **scenario files**: a reproducible description of a topology,
//! a workload, and a rule-compilation granularity, parseable into a live
//! [`Deployment`]. This is the interchange format the `foces` CLI consumes,
//! and the easiest way to share a repro case ("here is the network where
//! detection misses") as a few lines of text.
//!
//! # Format
//!
//! Line-oriented; `#` starts a comment; blank lines ignored.
//!
//! ```text
//! # either a generator...
//! topology fattree 4            # fattree K | bcube LEVEL N | dcell LEVEL N
//!                               # | stanford | linear N | ring N
//!                               # | random N EXTRA SEED
//! # ...or a custom graph:
//! # switch core
//! # switch edge
//! # link core edge
//! # host edge                   # attaches a new host to the named switch
//!
//! granularity per-pair          # or per-dest (default per-pair)
//!
//! flow h0 h3 1000               # src dst rate
//! flow-via h1 h4 500 s2 s5      # src dst rate waypoint...
//! all-pairs 1000                # one flow per ordered host pair at RATE
//! all-pairs-sample 1000 1200 7  # RATE COUNT SEED: a deterministic sample
//!                               # of COUNT ordered pairs (for topologies
//!                               # whose full pair set is impractical)
//! ```
//!
//! # Example
//!
//! ```
//! use foces_controlplane::scenario::Scenario;
//!
//! let text = "topology ring 4\nall-pairs 100\n";
//! let scenario = Scenario::parse(text)?;
//! let dep = scenario.provision()?;
//! assert_eq!(dep.flows.len(), 12);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::{provision, Deployment, FlowSpec, ProvisionError, RuleGranularity};
use foces_net::{generators, HostId, Node, SwitchId, Topology};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A parse or semantic error in a scenario file.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioError {
    /// 1-based line number of the offending line (0 for file-level errors).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "scenario error: {}", self.message)
        } else {
            write!(f, "scenario error at line {}: {}", self.line, self.message)
        }
    }
}

impl Error for ScenarioError {}

impl From<ProvisionError> for ScenarioError {
    fn from(e: ProvisionError) -> Self {
        ScenarioError {
            line: 0,
            message: e.to_string(),
        }
    }
}

/// One workload entry.
#[derive(Debug, Clone, PartialEq)]
enum WorkloadEntry {
    Flow(FlowSpec),
    FlowVia(FlowSpec, Vec<SwitchId>),
    AllPairs(f64),
    /// `(rate, count, seed)` — a deterministic sample of `count` ordered
    /// host pairs, shuffled by a fixed LCG so the same scenario text always
    /// yields the same flow set on every build.
    AllPairsSample(f64, usize, u64),
}

/// A parsed scenario, ready to [`Scenario::provision`].
#[derive(Debug, Clone)]
pub struct Scenario {
    topology: Topology,
    granularity: RuleGranularity,
    workload: Vec<WorkloadEntry>,
    /// Switch labels for custom topologies (label → id), used in rendering
    /// diagnostics.
    switch_names: HashMap<String, SwitchId>,
}

impl Scenario {
    /// Parses scenario text.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] with the offending line on any syntax or
    /// semantic problem (unknown directive, undefined switch, bad number,
    /// missing topology).
    pub fn parse(text: &str) -> Result<Self, ScenarioError> {
        let mut topology: Option<Topology> = None;
        let mut custom = Topology::new();
        let mut used_custom = false;
        let mut switch_names: HashMap<String, SwitchId> = HashMap::new();
        let mut granularity = RuleGranularity::PerFlowPair;
        let mut workload = Vec::new();

        let err = |line: usize, message: String| ScenarioError { line, message };
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let tokens: Vec<&str> = line.split_whitespace().collect();
            match tokens[0] {
                "topology" => {
                    topology = Some(parse_generator(&tokens[1..], line_no)?);
                }
                "switch" => {
                    let name = *tokens
                        .get(1)
                        .ok_or_else(|| err(line_no, "switch needs a name".into()))?;
                    if switch_names.contains_key(name) {
                        return Err(err(line_no, format!("switch {name} redefined")));
                    }
                    let id = custom.add_switch();
                    switch_names.insert(name.to_string(), id);
                    used_custom = true;
                }
                "link" => {
                    let (a, b) = match tokens[1..] {
                        [a, b] => (a, b),
                        _ => return Err(err(line_no, "link needs two switch names".into())),
                    };
                    let &ida = switch_names
                        .get(a)
                        .ok_or_else(|| err(line_no, format!("unknown switch {a}")))?;
                    let &idb = switch_names
                        .get(b)
                        .ok_or_else(|| err(line_no, format!("unknown switch {b}")))?;
                    custom
                        .connect(Node::Switch(ida), Node::Switch(idb))
                        .map_err(|e| err(line_no, e.to_string()))?;
                    used_custom = true;
                }
                "host" => {
                    let name = *tokens
                        .get(1)
                        .ok_or_else(|| err(line_no, "host needs a switch name".into()))?;
                    let &id = switch_names
                        .get(name)
                        .ok_or_else(|| err(line_no, format!("unknown switch {name}")))?;
                    let h = custom.add_host();
                    custom
                        .connect(Node::Host(h), Node::Switch(id))
                        .map_err(|e| err(line_no, e.to_string()))?;
                    used_custom = true;
                }
                "granularity" => {
                    granularity = match tokens.get(1).copied() {
                        Some("per-pair") => RuleGranularity::PerFlowPair,
                        Some("per-dest") => RuleGranularity::PerDestination,
                        other => {
                            return Err(err(
                                line_no,
                                format!("granularity must be per-pair or per-dest, got {other:?}"),
                            ))
                        }
                    };
                }
                "flow" => {
                    let spec = parse_flow(&tokens[1..], line_no)?;
                    workload.push(WorkloadEntry::Flow(spec));
                }
                "flow-via" => {
                    if tokens.len() < 5 {
                        return Err(err(
                            line_no,
                            "flow-via needs src dst rate and at least one waypoint".into(),
                        ));
                    }
                    let spec = parse_flow(&tokens[1..4], line_no)?;
                    let mut waypoints = Vec::new();
                    for w in &tokens[4..] {
                        waypoints.push(parse_switch(w, &switch_names, line_no)?);
                    }
                    workload.push(WorkloadEntry::FlowVia(spec, waypoints));
                }
                "all-pairs" => {
                    let rate: f64 = tokens
                        .get(1)
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| err(line_no, "all-pairs needs a rate".into()))?;
                    workload.push(WorkloadEntry::AllPairs(rate));
                }
                "all-pairs-sample" => {
                    let bad = || err(line_no, "all-pairs-sample needs RATE COUNT SEED".into());
                    let rate: f64 = tokens.get(1).and_then(|t| t.parse().ok()).ok_or_else(bad)?;
                    let count: usize =
                        tokens.get(2).and_then(|t| t.parse().ok()).ok_or_else(bad)?;
                    let seed: u64 = tokens.get(3).and_then(|t| t.parse().ok()).ok_or_else(bad)?;
                    workload.push(WorkloadEntry::AllPairsSample(rate, count, seed));
                }
                other => {
                    return Err(err(line_no, format!("unknown directive {other:?}")));
                }
            }
        }
        let topology = match (topology, used_custom) {
            (Some(_), true) => {
                return Err(ScenarioError {
                    line: 0,
                    message: "scenario mixes a topology generator with custom \
                              switch/link/host lines"
                        .into(),
                })
            }
            (Some(t), false) => t,
            (None, true) => custom,
            (None, false) => {
                return Err(ScenarioError {
                    line: 0,
                    message: "scenario defines no topology".into(),
                })
            }
        };
        Ok(Scenario {
            topology,
            granularity,
            workload,
            switch_names,
        })
    }

    /// The parsed topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The rule-compilation granularity.
    pub fn granularity(&self) -> RuleGranularity {
        self.granularity
    }

    /// Resolves a switch by custom-topology label or `sN` index.
    pub fn switch(&self, name: &str) -> Option<SwitchId> {
        if let Some(&id) = self.switch_names.get(name) {
            return Some(id);
        }
        let idx: usize = name.strip_prefix('s')?.parse().ok()?;
        (idx < self.topology.switch_count()).then_some(SwitchId(idx))
    }

    /// Provisions the scenario into a live deployment: plain flows first
    /// (batched), then waypointed flows.
    ///
    /// # Errors
    ///
    /// Propagates [`ProvisionError`]s as file-level [`ScenarioError`]s.
    pub fn provision(&self) -> Result<Deployment, ScenarioError> {
        let mut plain: Vec<FlowSpec> = Vec::new();
        for entry in &self.workload {
            match entry {
                WorkloadEntry::Flow(f) => plain.push(*f),
                WorkloadEntry::AllPairs(rate) => {
                    let hosts: Vec<HostId> = self.topology.hosts().collect();
                    for &src in &hosts {
                        for &dst in &hosts {
                            if src != dst {
                                plain.push(FlowSpec {
                                    src,
                                    dst,
                                    rate: *rate,
                                });
                            }
                        }
                    }
                }
                WorkloadEntry::AllPairsSample(rate, count, seed) => {
                    let hosts: Vec<HostId> = self.topology.hosts().collect();
                    let mut pairs = Vec::new();
                    for &src in &hosts {
                        for &dst in &hosts {
                            if src != dst {
                                pairs.push((src, dst));
                            }
                        }
                    }
                    // Fisher–Yates with a fixed LCG (Knuth MMIX constants):
                    // deterministic across builds without a rand dependency,
                    // which is what makes the sample golden-pinnable.
                    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let mut next = || {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        state >> 33
                    };
                    for i in (1..pairs.len()).rev() {
                        let j = (next() % (i as u64 + 1)) as usize;
                        pairs.swap(i, j);
                    }
                    pairs.truncate(*count);
                    for (src, dst) in pairs {
                        plain.push(FlowSpec {
                            src,
                            dst,
                            rate: *rate,
                        });
                    }
                }
                WorkloadEntry::FlowVia(..) => {}
            }
        }
        let mut dep = provision(self.topology.clone(), &plain, self.granularity)?;
        for entry in &self.workload {
            if let WorkloadEntry::FlowVia(spec, waypoints) = entry {
                dep.add_flow_via(*spec, waypoints)?;
            }
        }
        Ok(dep)
    }
}

fn parse_generator(args: &[&str], line: usize) -> Result<Topology, ScenarioError> {
    let err = |message: String| ScenarioError { line, message };
    let num = |s: &str| -> Result<usize, ScenarioError> {
        s.parse()
            .map_err(|_| err(format!("expected a number, got {s:?}")))
    };
    match args {
        ["fattree", k] => Ok(generators::fattree(num(k)?)),
        ["bcube", l, n] => Ok(generators::bcube(num(l)?, num(n)?)),
        ["dcell", l, n] => Ok(generators::dcell(num(l)?, num(n)?)),
        ["stanford"] => Ok(generators::stanford()),
        ["linear", n] => Ok(generators::linear(num(n)?)),
        ["ring", n] => Ok(generators::ring(num(n)?)),
        ["random", n, extra, seed] => Ok(generators::random_connected(
            num(n)?,
            num(extra)?,
            num(seed)? as u64,
        )),
        other => Err(err(format!("unknown topology spec {other:?}"))),
    }
}

fn parse_flow(args: &[&str], line: usize) -> Result<FlowSpec, ScenarioError> {
    let err = |message: String| ScenarioError { line, message };
    let [src, dst, rate] = args[..3.min(args.len())] else {
        return Err(err("flow needs src dst rate".into()));
    };
    let host = |s: &str| -> Result<HostId, ScenarioError> {
        s.strip_prefix('h')
            .and_then(|t| t.parse().ok())
            .map(HostId)
            .ok_or_else(|| err(format!("expected hN, got {s:?}")))
    };
    let rate: f64 = rate
        .parse()
        .map_err(|_| err(format!("bad rate {rate:?}")))?;
    Ok(FlowSpec {
        src: host(src)?,
        dst: host(dst)?,
        rate,
    })
}

fn parse_switch(
    s: &str,
    names: &HashMap<String, SwitchId>,
    line: usize,
) -> Result<SwitchId, ScenarioError> {
    if let Some(&id) = names.get(s) {
        return Ok(id);
    }
    s.strip_prefix('s')
        .and_then(|t| t.parse().ok())
        .map(SwitchId)
        .ok_or_else(|| ScenarioError {
            line,
            message: format!("unknown switch {s:?}"),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_scenario_provisions() {
        let s = Scenario::parse("topology bcube 1 4\nall-pairs 1000\n").unwrap();
        let dep = s.provision().unwrap();
        assert_eq!(dep.flows.len(), 240);
        assert_eq!(dep.granularity, RuleGranularity::PerFlowPair);
    }

    #[test]
    fn all_pairs_sample_is_deterministic_and_bounded() {
        let text = "topology bcube 1 4\nall-pairs-sample 1000 20 7\n";
        let a = Scenario::parse(text).unwrap().provision().unwrap();
        let b = Scenario::parse(text).unwrap().provision().unwrap();
        assert_eq!(a.flows.len(), 20);
        assert_eq!(a.flows, b.flows, "same text must yield the same sample");
        // A different seed yields a different (but equally sized) sample.
        let c = Scenario::parse("topology bcube 1 4\nall-pairs-sample 1000 20 8\n")
            .unwrap()
            .provision()
            .unwrap();
        assert_eq!(c.flows.len(), 20);
        assert_ne!(a.flows, c.flows);
        // A count beyond the pair universe degrades to all pairs.
        let d = Scenario::parse("topology bcube 1 4\nall-pairs-sample 1000 9999 7\n")
            .unwrap()
            .provision()
            .unwrap();
        assert_eq!(d.flows.len(), 240);
    }

    #[test]
    fn all_pairs_sample_rejects_bad_args() {
        let e = Scenario::parse("topology ring 4\nall-pairs-sample 1000\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("RATE COUNT SEED"));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\n# a comment\ntopology ring 4   # trailing comment\n\nall-pairs 10\n";
        let s = Scenario::parse(text).unwrap();
        assert_eq!(s.topology().switch_count(), 4);
    }

    #[test]
    fn custom_topology_with_flows() {
        let text = "\
switch a
switch b
switch c
link a b
link b c
host a
host c
granularity per-dest
flow h0 h1 500
";
        let s = Scenario::parse(text).unwrap();
        assert_eq!(s.granularity(), RuleGranularity::PerDestination);
        assert_eq!(s.switch("b"), Some(SwitchId(1)));
        let dep = s.provision().unwrap();
        assert_eq!(dep.flows.len(), 1);
        assert_eq!(dep.expected_paths[0].len(), 3);
    }

    #[test]
    fn flow_via_routes_through_waypoints() {
        let text = "topology ring 6\nflow-via h0 h2 100 s4\n";
        let dep = Scenario::parse(text).unwrap().provision().unwrap();
        assert_eq!(dep.expected_paths[0].len(), 5, "the long way round");
        assert!(dep.expected_paths[0].contains(&SwitchId(4)));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let cases = [
            ("topology marsnet 3\n", 1),
            ("topology ring 4\nfloow h0 h1 1\n", 2),
            ("topology ring 4\nflow h0 h1\n", 2),
            ("switch a\nlink a zz\n", 2),
            ("topology ring 4\ngranularity sometimes\n", 2),
            ("topology ring 4\nflow x0 h1 5\n", 2),
        ];
        for (text, want_line) in cases {
            let e = Scenario::parse(text).unwrap_err();
            assert_eq!(e.line, want_line, "{text:?} -> {e}");
        }
    }

    #[test]
    fn missing_or_conflicting_topology_rejected() {
        assert!(Scenario::parse("all-pairs 1\n").is_err());
        let e = Scenario::parse("topology ring 3\nswitch a\n").unwrap_err();
        assert!(e.message.contains("mixes"));
    }

    #[test]
    fn switch_lookup_by_index_works_for_generators() {
        let s = Scenario::parse("topology fattree 4\nall-pairs 1\n").unwrap();
        assert_eq!(s.switch("s7"), Some(SwitchId(7)));
        assert_eq!(s.switch("s99"), None);
        assert_eq!(s.switch("bogus"), None);
    }

    #[test]
    fn display_of_errors() {
        let e = ScenarioError {
            line: 3,
            message: "boom".into(),
        };
        assert_eq!(e.to_string(), "scenario error at line 3: boom");
    }
}
