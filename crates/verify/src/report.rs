//! Findings and reports: the machine-readable output of static
//! verification.

use foces::json_str;
use foces_dataplane::RuleRef;
use foces_headerspace::Wildcard;
use foces_net::SwitchId;
use std::fmt;
use std::fmt::Write as _;

/// Which invariant family a finding violates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FindingKind {
    /// A header region re-enters a switch it already traversed: every
    /// packet in the region forwards forever (until TTL).
    ForwardingLoop,
    /// A header region that matched at least one forwarding rule dies
    /// without reaching an edge port or an explicit drop rule (table miss
    /// downstream, or a forward action out a port with no link).
    Blackhole,
    /// A rule whose match region is fully covered by higher-precedence
    /// rules in the same table: it can never match a packet (dead rule).
    ShadowedRule,
    /// The FCM disagrees with the rule tables: a row names a rule the
    /// view does not hold, or a flow column's recorded rule path is not
    /// what the tables actually forward the flow's header along.
    FcmInconsistency,
    /// An audit walked a deviation path through a rule the FCM has no row
    /// for: the matrix is stale relative to the plane being audited, so
    /// the deviation cannot be classified detectable or undetectable.
    StaleRule,
}

impl FindingKind {
    /// Short machine-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            FindingKind::ForwardingLoop => "loop",
            FindingKind::Blackhole => "blackhole",
            FindingKind::ShadowedRule => "shadowed",
            FindingKind::FcmInconsistency => "fcm",
            FindingKind::StaleRule => "stale-rule",
        }
    }

    /// Whether findings of this kind poison detection verdicts.
    ///
    /// Loops, blackholes and FCM mismatches put counter volume where the
    /// FCM has no explanation (or vice versa), so the runtime must
    /// quarantine the implicated rules. A fully shadowed rule merely
    /// never matches — its counter stays zero and the FCM, built from the
    /// same shadowing-aware trace, never charges it — so it is reported
    /// but does not poison verdicts.
    pub fn is_critical(&self) -> bool {
        !matches!(self, FindingKind::ShadowedRule)
    }
}

impl fmt::Display for FindingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One invariant violation, with a concrete counterexample where the
/// analysis produced one (always, for loop/blackhole/shadowing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated invariant family.
    pub kind: FindingKind,
    /// The switch where the violation manifests (loop re-entry point,
    /// blackhole location, shadowed rule's table, first divergent hop).
    pub switch: SwitchId,
    /// Implicated rules: the traversal history into a loop/blackhole, the
    /// shadowed rule followed by its shadowers, or an FCM column.
    pub rules: Vec<RuleRef>,
    /// The symbolic counterexample region, when the analysis has one.
    pub region: Option<Wildcard>,
    /// A concrete counterexample header (a member of `region`).
    pub header: Option<u64>,
    /// Human-readable explanation.
    pub detail: String,
}

impl Finding {
    /// One-line JSON rendering (flat, hand-rolled — no serde in the
    /// dependency tree).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(s, "\"kind\":{}", json_str(self.kind.label()));
        let _ = write!(s, ",\"critical\":{}", self.kind.is_critical());
        let _ = write!(s, ",\"switch\":{}", self.switch.0);
        s.push_str(",\"rules\":[");
        for (i, r) in self.rules.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&json_str(&r.to_string()));
        }
        s.push(']');
        match &self.region {
            Some(w) => {
                let _ = write!(s, ",\"region\":{}", json_str(&w.to_string()));
            }
            None => s.push_str(",\"region\":null"),
        }
        match self.header {
            Some(h) => {
                let _ = write!(s, ",\"header\":{h}");
            }
            None => s.push_str(",\"header\":null"),
        }
        let _ = write!(s, ",\"detail\":{}", json_str(&self.detail));
        s.push('}');
        s
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] s{}: {}", self.kind, self.switch.0, self.detail)?;
        if let Some(h) = self.header {
            write!(f, " (counterexample header {h:#010x})")?;
        }
        Ok(())
    }
}

/// The result of one verification pass.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Every violation found, in analysis order (traversal, shadowing,
    /// FCM consistency).
    pub findings: Vec<Finding>,
    /// Packet equivalence classes traced to a terminal outcome.
    pub classes_traced: usize,
    /// Rules inspected by the shadowing analysis.
    pub rules_checked: usize,
    /// FCM flow columns re-simulated (0 when the FCM check was skipped).
    pub flows_checked: usize,
    /// Wall-clock time of the pass, seconds.
    pub elapsed_secs: f64,
}

impl VerifyReport {
    /// `true` iff no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings of one kind.
    pub fn of_kind(&self, kind: FindingKind) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(move |f| f.kind == kind)
    }

    /// Number of loop findings.
    pub fn loops(&self) -> usize {
        self.of_kind(FindingKind::ForwardingLoop).count()
    }

    /// Number of blackhole findings.
    pub fn blackholes(&self) -> usize {
        self.of_kind(FindingKind::Blackhole).count()
    }

    /// Number of shadowed/dead-rule findings.
    pub fn shadowed(&self) -> usize {
        self.of_kind(FindingKind::ShadowedRule).count()
    }

    /// Number of FCM consistency findings.
    pub fn inconsistencies(&self) -> usize {
        self.of_kind(FindingKind::FcmInconsistency).count()
    }

    /// Number of stale-rule findings (FCM stale relative to the plane).
    pub fn stale_rules(&self) -> usize {
        self.of_kind(FindingKind::StaleRule).count()
    }

    /// Findings that poison detection verdicts (everything but shadowing).
    pub fn critical(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.kind.is_critical())
    }

    /// The deduplicated, sorted set of rules implicated by **critical**
    /// findings — the rows a runtime must quarantine to keep detecting
    /// soundly on the rest of the network.
    pub fn implicated_rules(&self) -> Vec<RuleRef> {
        let mut rules: Vec<RuleRef> = self
            .critical()
            .flat_map(|f| f.rules.iter().copied())
            .collect();
        rules.sort_unstable();
        rules.dedup();
        rules
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            format!(
                "clean: {} classes traced, {} rules checked, {} flow columns verified in {:.3}s",
                self.classes_traced, self.rules_checked, self.flows_checked, self.elapsed_secs
            )
        } else {
            format!(
                "{} violation(s): {} loop, {} blackhole, {} shadowed, {} fcm, {} stale ({:.3}s)",
                self.findings.len(),
                self.loops(),
                self.blackholes(),
                self.shadowed(),
                self.inconsistencies(),
                self.stale_rules(),
                self.elapsed_secs
            )
        }
    }

    /// Machine-readable rendering: one summary object followed by one
    /// object per finding, each on its own line (JSONL).
    pub fn to_json_lines(&self) -> Vec<String> {
        let mut lines = Vec::with_capacity(self.findings.len() + 1);
        lines.push(format!(
            "{{\"event\":\"verify\",\"clean\":{},\"findings\":{},\"loops\":{},\
             \"blackholes\":{},\"shadowed\":{},\"fcm\":{},\"stale\":{},\"classes\":{},\
             \"rules\":{},\"flows\":{},\"elapsed_secs\":{:.6}}}",
            self.is_clean(),
            self.findings.len(),
            self.loops(),
            self.blackholes(),
            self.shadowed(),
            self.inconsistencies(),
            self.stale_rules(),
            self.classes_traced,
            self.rules_checked,
            self.flows_checked,
            self.elapsed_secs
        ));
        lines.extend(self.findings.iter().map(Finding::to_json));
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_finding() -> Finding {
        Finding {
            kind: FindingKind::ForwardingLoop,
            switch: SwitchId(3),
            rules: vec![
                RuleRef {
                    switch: SwitchId(1),
                    index: 0,
                },
                RuleRef {
                    switch: SwitchId(3),
                    index: 2,
                },
            ],
            region: Some(Wildcard::any(8)),
            header: Some(0x2a),
            detail: "cycle s3 -> s1 -> s3".into(),
        }
    }

    #[test]
    fn finding_renders_flat_json() {
        let j = sample_finding().to_json();
        assert!(j.contains("\"kind\":\"loop\""), "{j}");
        assert!(j.contains("\"critical\":true"), "{j}");
        assert!(j.contains("\"switch\":3"), "{j}");
        assert!(j.contains("\"rules\":[\"s1#r0\",\"s3#r2\"]"), "{j}");
        assert!(j.contains("\"header\":42"), "{j}");
        assert!(!FindingKind::ShadowedRule.is_critical());
    }

    #[test]
    fn report_summary_and_json_lines() {
        let clean = VerifyReport {
            classes_traced: 10,
            rules_checked: 5,
            ..VerifyReport::default()
        };
        assert!(clean.is_clean());
        assert!(clean.summary().starts_with("clean"));
        assert_eq!(clean.to_json_lines().len(), 1);
        assert!(clean.to_json_lines()[0].contains("\"clean\":true"));

        let dirty = VerifyReport {
            findings: vec![sample_finding()],
            ..VerifyReport::default()
        };
        assert!(!dirty.is_clean());
        assert_eq!(dirty.loops(), 1);
        assert_eq!(dirty.implicated_rules().len(), 2);
        assert_eq!(dirty.to_json_lines().len(), 2);
        assert!(dirty.summary().contains("1 loop"));
    }
}
