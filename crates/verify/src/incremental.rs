//! The verifier state: one pass's raw results, kept so the next pass
//! re-derives only what the rules installed since can change.
//!
//! A [`ControllerView`] is append-only, and a traced region keeps its
//! host's pinned source bits, so a rule installed since the last pass can
//! only change the classes of the ingress hosts its match meets
//! ([`foces_atpg::hosts_meeting`]) — the same locality
//! [`foces::Fcm::patched`] rests on. A rule can only shadow, or be
//! shadowed by, rules of its own table. And a flow column's walk follows
//! its concrete header, whose source bits are its ingress host's.

use crate::consistency::{check_columns, stale_rows};
use crate::report::{Finding, VerifyReport};
use crate::shadow::{report_shadows, table_shadows, Shadowed};
use crate::traversal::{replay, trace_host, HostTrace};
use foces::Fcm;
use foces_atpg::hosts_meeting;
use foces_controlplane::ControllerView;
use foces_dataplane::{FlowTable, RuleRef};
use foces_net::HostId;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Incremental static verification: each [`Verifier::update`] re-checks
/// only what the rules installed since the previous one can change, and
/// reports exactly what a full pass over the view would.
///
/// The state holds each host's raw traversal (its loop and blackhole
/// findings in order, each with its dedup key, and its class count), each
/// table's dead rules before the shadowing allowlist, the FCM findings of
/// each ingress host's run of columns, and the table lengths it last saw.
/// An update
///
/// * re-traces only the hosts [`foces_atpg::hosts_meeting`] finds for the
///   rules past those lengths;
/// * re-checks shadowing only in tables that gained rules, then applies
///   the current allowlist to every table's dead rules;
/// * re-walks only the FCM columns whose ingress is a re-traced host, and
///   re-checks every row's liveness;
/// * rebuilds the report by replaying the loop and blackhole dedup in host
///   order, so the findings, their order and every count equal a full
///   pass's.
///
/// The first update of an empty state is the full pass
/// ([`crate::verify_with`] is exactly that). A view that is not an
/// extension of the last one — another topology shape, a table shorter
/// than it was, or a table whose first rules are not the ones last seen
/// (each table's rules are digested) — resets the state and is verified
/// in full.
///
/// **Precondition** for the FCM: it is the FCM of `view` patched
/// ([`foces::Fcm::patched`]) from the FCM the previous update checked, so
/// a host no installed rule meets keeps its columns. Debug builds re-run
/// the full pass after every incremental update and assert equality.
#[derive(Debug, Clone, Default)]
pub struct Verifier {
    /// Each table's length at the last update, and a digest of its rules.
    tables: Vec<(usize, u64)>,
    /// Each host's traversal, indexed by host.
    traces: Vec<HostTrace>,
    /// Each table's dead rules, allowlisted or not, indexed by switch.
    shadows: Vec<Vec<Shadowed>>,
    /// The last FCM's column findings, one run per ingress host in column
    /// order; `None` when the last update checked no FCM.
    columns: Option<Vec<ColumnRun>>,
}

/// One ingress host's run of FCM columns and their findings.
#[derive(Debug, Clone)]
struct ColumnRun {
    ingress: HostId,
    findings: Vec<Finding>,
}

impl Verifier {
    /// Verifies `view`, and `fcm` against it when given, re-checking only
    /// what changed since the previous update (see [`Verifier`]). Rules
    /// in `expected_shadowed` (any order) are not reported as dead.
    pub fn update(
        &mut self,
        view: &ControllerView,
        expected_shadowed: &[RuleRef],
        fcm: Option<&Fcm>,
    ) -> VerifyReport {
        let start = Instant::now();
        let topo = view.topology();
        // The empty state extends no view: its update is the full pass.
        let mut extends = !self.tables.is_empty()
            && self.tables.len() == topo.switch_count()
            && self.traces.len() == topo.host_count();
        let mut held: Vec<usize> = topo
            .switches()
            .map(|s| self.tables.get(s.0).map_or(0, |t| t.0))
            .collect();
        let tables: Vec<(usize, u64)> = topo
            .switches()
            .map(|s| {
                let (table, prefix) = fingerprint(view.table(s), held[s.0]);
                extends &= prefix.is_some() && prefix == self.tables.get(s.0).map(|t| t.1);
                table
            })
            .collect();
        let retrace = if extends {
            let installed = topo.switches().flat_map(|s| {
                let table = view.table(s);
                (held[s.0]..table.len())
                    .map(move |i| table.get(i).expect("in range").match_fields())
            });
            let mut retrace = vec![false; topo.host_count()];
            for h in hosts_meeting(view, installed) {
                retrace[h.0] = true;
            }
            retrace
        } else {
            held.fill(0);
            *self = Verifier {
                tables: Vec::new(),
                traces: vec![HostTrace::default(); topo.host_count()],
                shadows: vec![Vec::new(); topo.switch_count()],
                columns: None,
            };
            vec![true; topo.host_count()]
        };

        for h in topo.hosts().filter(|h| retrace[h.0]) {
            self.traces[h.0] = trace_host(view, h);
        }
        for s in topo.switches().filter(|s| tables[s.0].0 > held[s.0]) {
            self.shadows[s.0] = table_shadows(view, s);
        }
        self.tables = tables;

        let mut report = VerifyReport::default();
        replay(&self.traces, &mut report);
        report_shadows(view, &self.shadows, expected_shadowed, &mut report);
        self.columns = fcm.map(|fcm| {
            report.findings.extend(stale_rows(view, fcm));
            let runs = self.column_runs(view, fcm, &retrace);
            report
                .findings
                .extend(runs.iter().flat_map(|r| r.findings.iter().cloned()));
            report.flows_checked = fcm.flow_count();
            runs
        });
        report.elapsed_secs = start.elapsed().as_secs_f64();

        #[cfg(debug_assertions)]
        if extends {
            let full = Verifier::default().update(view, expected_shadowed, fcm);
            assert_eq!(report.findings, full.findings, "incremental findings");
            assert_eq!(
                (
                    report.classes_traced,
                    report.rules_checked,
                    report.flows_checked
                ),
                (full.classes_traced, full.rules_checked, full.flows_checked),
                "incremental counts"
            );
        }
        report
    }

    /// `fcm`'s column findings by ingress run: the run of a host that is
    /// not re-traced keeps the findings the last FCM's run had; every
    /// other run is walked.
    fn column_runs(
        &mut self,
        view: &ControllerView,
        fcm: &Fcm,
        retrace: &[bool],
    ) -> Vec<ColumnRun> {
        let mut kept: Vec<Option<ColumnRun>> = vec![None; retrace.len()];
        for run in self.columns.take().into_iter().flatten() {
            let h = run.ingress.0;
            kept[h] = Some(run);
        }
        let mut runs = Vec::new();
        let mut j = 0;
        while j < fcm.flow_count() {
            let ingress = fcm.ingress(j);
            let end = (j..fcm.flow_count())
                .find(|&k| fcm.ingress(k) != ingress)
                .unwrap_or(fcm.flow_count());
            let cached = kept.get_mut(ingress.0).and_then(Option::take);
            let findings = match cached {
                Some(run) if !retrace[ingress.0] => run.findings,
                _ => check_columns(view, fcm, j..end),
            };
            runs.push(ColumnRun { ingress, findings });
            j = end;
        }
        runs
    }
}

/// `table`'s length and the digest of its rules, and the digest of its
/// first `held` rules (`None` if it has fewer).
fn fingerprint(table: &FlowTable, held: usize) -> ((usize, u64), Option<u64>) {
    let mut h = DefaultHasher::new();
    let mut prefix = None;
    for (i, rule) in table.iter() {
        if i == held {
            prefix = Some(h.finish());
        }
        rule.hash(&mut h);
    }
    let digest = h.finish();
    if held == table.len() {
        prefix = Some(digest);
    }
    ((table.len(), digest), prefix)
}
