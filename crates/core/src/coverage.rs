//! Static detectability & localization-coverage analysis.
//!
//! FOCES's Theorem 1/2 oracles ([`crate::undetectable_by_rank`],
//! [`crate::rbg_loop_exists`]) answer "is *this one* anomaly detectable?".
//! PR 7's redteam sweep showed that the more dangerous question is
//! structural: are there switches whose *position in the FCM* lets a whole
//! family of forgeries hide? On ring-like topologies one switch can own a
//! dominant share of the FCM rows, and least squares then simply absorbs a
//! naive counter forgery into the flow estimates — the anomaly index never
//! moves. Likewise, leave-one-switch-out localization silently degrades to
//! [`crate::LooStatus::RankLost`] when a switch's removal strands too many
//! flows.
//!
//! This module certifies those properties **before a single epoch runs**,
//! by analyzing the FCM + topology + partition symbolically:
//!
//! * **Row share & residual absorption** (a): for each switch `s`, how much
//!   of a uniform forgery direction `u_s` (the indicator of `s`'s rows)
//!   lies inside the column span of the FCM. Absorption close to 1 with a
//!   dominant row share means least squares will eat the lie; the WARN
//!   carries a *certificate* — the absorbing column combination — so the
//!   operator can see exactly which flows launder the forged counters.
//! * **LOO localizability** (b): per switch, the kernel
//!   [`crate::LooSolver::leave_out`] runs — a Woodbury [`Capacitance`]
//!   over the switch's rows against one sparse factor of the basis Gram,
//!   fully-stranded basis columns pinned to zero — decides, with no
//!   counters and no residuals, whether the reduced system keeps full
//!   rank. The switch is classified [`LooClass::Localizable`],
//!   [`LooClass::RankLost`], or [`LooClass::ConditionalOnMask`]
//!   (localizable now, but a single additional masked switch strands some
//!   flow group).
//! * **Degradation margin** (c): the smallest set of switch losses
//!   (offline / quarantined) that drives some flow unobservable — computed
//!   from the rule histories and verified against the row-mask machinery
//!   ([`Fcm::mask_rows`]) that the degraded detector actually uses.
//! * **Partition boundary coverage** (d): per shard of a
//!   [`ShardedFcm`], whether boundary-flow replication leaves the shard's
//!   sub-system below full column rank (its local Gram matrix singular),
//!   which would force that region onto the quarantine/fallback path from
//!   epoch 0.
//!
//! The output is a [`CoverageReport`] mirroring `foces-verify`'s report
//! shape: typed findings with severities, a one-line summary, and a JSONL
//! rendering for machine consumption. Runtime services run this as a
//! pre-flight gate and re-run it after every FCM rebuild; the `foces
//! coverage` CLI verb exposes it standalone.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::time::Instant;

use foces_linalg::CsrMatrix;
use foces_net::SwitchId;
use foces_sparse::{Capacitance, SparseFactor};

use crate::error::FocesError;
use crate::fcm::Fcm;
use crate::shard::ShardedFcm;

/// Severity of a coverage finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CoverageSeverity {
    /// Informational: worth knowing, not a blind spot by itself.
    Info,
    /// A structural blind spot: the detector or localizer can be evaded
    /// or starved in this configuration.
    Warn,
}

impl CoverageSeverity {
    /// Lowercase label used in reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            CoverageSeverity::Info => "info",
            CoverageSeverity::Warn => "warn",
        }
    }

    /// Whether this is a WARN-severity finding (a structural blind spot).
    pub fn is_warn(&self) -> bool {
        matches!(self, CoverageSeverity::Warn)
    }
}

/// What kind of structural gap a [`CoverageFinding`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoverageKind {
    /// A switch owns a dominant row share *and* a uniform forgery on its
    /// rows is (mostly) inside the FCM's column span: least squares will
    /// absorb naive counter fakes there.
    RowShareAbsorption,
    /// Leave-one-out localization of this switch loses rank: the LOO
    /// localizer will refuse with [`crate::LooStatus::RankLost`].
    LooRankLost,
    /// Localizable today, but contingent on the row mask: removing this
    /// switch leaves some flow group supported by a single other switch,
    /// so one masked/quarantined switch on top strands it.
    LooConditional,
    /// The degradation margin: the smallest switch-loss set that makes
    /// some flow unobservable.
    DegradationMargin,
    /// A cluster shard whose sub-system is below full column rank even
    /// with boundary-flow replication: its local solves are singular.
    BoundaryRankDeficit,
    /// The switch-level analysis was skipped (basis above
    /// [`CoverageConfig::basis_limit`], or the base factorization failed).
    AnalysisTruncated,
}

impl CoverageKind {
    /// Short kebab-case label used in reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            CoverageKind::RowShareAbsorption => "row-share-absorption",
            CoverageKind::LooRankLost => "loo-rank-lost",
            CoverageKind::LooConditional => "loo-conditional",
            CoverageKind::DegradationMargin => "degradation-margin",
            CoverageKind::BoundaryRankDeficit => "boundary-rank-deficit",
            CoverageKind::AnalysisTruncated => "analysis-truncated",
        }
    }
}

/// Leave-one-switch-out localizability classification (tentpole part b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LooClass {
    /// The reduced system keeps full rank: [`crate::LooSolver::leave_out`]
    /// will produce a verdict for this switch.
    Localizable,
    /// Full rank survives, but some flow group is left hanging on a single
    /// other switch — one more masked or quarantined switch strands it.
    ConditionalOnMask,
    /// The reduced system is rank-deficient: the LOO localizer refuses
    /// with [`crate::LooStatus::RankLost`] for this switch.
    RankLost,
}

impl LooClass {
    /// Lowercase label used in reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            LooClass::Localizable => "localizable",
            LooClass::ConditionalOnMask => "conditional-on-mask",
            LooClass::RankLost => "rank-lost",
        }
    }
}

/// The absorbing column combination behind a
/// [`CoverageKind::RowShareAbsorption`] WARN: the least-squares projection
/// of the uniform forgery direction `u_s` onto the FCM's column span,
/// expressed over parent flow columns.
#[derive(Debug, Clone, PartialEq)]
pub struct AbsorptionCertificate {
    /// `(parent flow column, coefficient)` of the largest-magnitude terms
    /// of the absorbing combination, sorted by `|coefficient|` descending.
    pub terms: Vec<(usize, f64)>,
    /// Relative residual `‖u_s − H·c‖ / ‖u_s‖` of the combination — how
    /// much of the forgery escapes the span (0 = fully absorbed).
    pub residual: f64,
    /// Nonzero terms omitted from [`AbsorptionCertificate::terms`].
    pub omitted: usize,
}

impl fmt::Display for AbsorptionCertificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u ≈")?;
        for (i, (col, c)) in self.terms.iter().enumerate() {
            let sign = if *c < 0.0 { '-' } else { '+' };
            if i > 0 || *c < 0.0 {
                write!(f, " {sign}")?;
            }
            write!(f, " {:.3}·f{}", c.abs(), col)?;
        }
        if self.omitted > 0 {
            write!(f, " (+{} more)", self.omitted)?;
        }
        write!(f, " [rel residual {:.2e}]", self.residual)
    }
}

/// Per-switch coverage scores (tentpole parts a and b).
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchCoverage {
    /// The switch.
    pub switch: SwitchId,
    /// FCM rows (rules) this switch owns.
    pub rows: usize,
    /// `rows / total rules` — the switch's share of the equation system.
    pub row_share: f64,
    /// `‖P·u_s‖ / ‖u_s‖` where `P` projects onto the FCM column span and
    /// `u_s` is the indicator of the switch's rows: 1.0 means a uniform
    /// forgery on this switch is fully absorbed by least squares.
    pub absorption: f64,
    /// Leave-one-out localizability class.
    pub loo: LooClass,
    /// Basis columns stranded (excised) when this switch is left out.
    pub flows_stranded: usize,
}

/// Per-shard boundary coverage (tentpole part d).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCoverage {
    /// Region index in the partition.
    pub region: usize,
    /// Rules (rows) in the shard's sub-FCM.
    pub rules: usize,
    /// Flows (columns) in the shard's sub-FCM, including replicated
    /// boundary flows.
    pub flows: usize,
    /// Distinct basis columns of the sub-FCM.
    pub basis_cols: usize,
    /// Boundary flows replicated into this shard.
    pub boundary_flows: usize,
    /// Whether the sub-FCM's basis Gram matrix is positive definite — the
    /// shard's local least-squares solves are well-posed.
    pub full_rank: bool,
    /// `false` when the shard was skipped (basis above the size limit).
    pub analyzed: bool,
}

/// One structural gap surfaced by the analyzer.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageFinding {
    /// What kind of gap.
    pub kind: CoverageKind,
    /// How bad.
    pub severity: CoverageSeverity,
    /// The switch concerned, when the finding is per-switch.
    pub switch: Option<SwitchId>,
    /// The partition region concerned, when the finding is per-shard.
    pub region: Option<usize>,
    /// The dominant score behind the finding (absorption, margin, …);
    /// `NaN` when no single score applies.
    pub score: f64,
    /// Human-readable description.
    pub detail: String,
    /// The absorbing combination, for
    /// [`CoverageKind::RowShareAbsorption`] findings.
    pub certificate: Option<AbsorptionCertificate>,
}

impl CoverageFinding {
    /// Renders the finding as one flat JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(160);
        s.push_str("{\"event\":\"coverage-finding\",\"kind\":\"");
        s.push_str(self.kind.label());
        s.push_str("\",\"severity\":\"");
        s.push_str(self.severity.label());
        s.push('"');
        if let Some(sw) = self.switch {
            s.push_str(&format!(",\"switch\":{}", sw.0));
        }
        if let Some(r) = self.region {
            s.push_str(&format!(",\"region\":{r}"));
        }
        if self.score.is_finite() {
            s.push_str(&format!(",\"score\":{:.6}", self.score));
        }
        s.push_str(",\"detail\":\"");
        s.push_str(&json_escape(&self.detail));
        s.push('"');
        if let Some(cert) = &self.certificate {
            s.push_str(",\"certificate\":\"");
            s.push_str(&json_escape(&cert.to_string()));
            s.push_str(&format!(
                "\",\"certificate_residual\":{:.6e}",
                cert.residual
            ));
        }
        s.push('}');
        s
    }
}

/// Knobs for the coverage analyzer.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageConfig {
    /// Row share at or above which absorption is considered dangerous
    /// (both thresholds must trip for a
    /// [`CoverageKind::RowShareAbsorption`] WARN).
    pub row_share_warn: f64,
    /// Absorption score at or above which a dominant switch WARNs.
    pub absorption_warn: f64,
    /// Maximum certificate terms listed per WARN.
    pub certificate_terms: usize,
    /// Basis-column ceiling for the switch-level analysis; larger systems
    /// skip parts (a)/(b) with an [`CoverageKind::AnalysisTruncated`]
    /// finding. It bounds the pre-flight gate's set-up cost, which grows
    /// with the basis and, through the capacitance, with a switch's rows:
    /// untruncated, FatTree(8) all-pairs takes ~0.1 s with per-destination
    /// rules (4,096 columns) and 3.5 s with per-pair rules (16,256
    /// columns, a 14,336-row core switch).
    pub basis_limit: usize,
}

impl Default for CoverageConfig {
    /// Row share ≥ 0.25 with absorption ≥ 0.5 WARNs; switch-level analysis
    /// capped at 1536 basis columns (FatTree(8) sampled all-pairs runs,
    /// full all-pairs FatTree(8)+ is skipped).
    fn default() -> Self {
        CoverageConfig {
            row_share_warn: 0.25,
            absorption_warn: 0.5,
            certificate_terms: 6,
            basis_limit: 1536,
        }
    }
}

/// The analyzer's verdict: per-switch scores, the degradation margin,
/// per-shard boundary coverage, and the findings derived from them.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageReport {
    /// FCM rows (rules) analyzed.
    pub rule_count: usize,
    /// FCM columns (flows) analyzed.
    pub flow_count: usize,
    /// Distinct basis columns.
    pub basis_cols: usize,
    /// Per-switch scores, ascending by switch id; empty when the
    /// switch-level analysis was truncated.
    pub switches: Vec<SwitchCoverage>,
    /// Minimum number of switch losses that makes some flow unobservable.
    pub degradation_margin: usize,
    /// A flow attaining the margin (parent column index).
    pub margin_flow: Option<usize>,
    /// The witness switch set whose joint loss blinds `margin_flow`.
    pub margin_witness: Vec<SwitchId>,
    /// Per-shard boundary coverage; empty without a partition.
    pub shards: Vec<ShardCoverage>,
    /// Whether the switch-level analysis was skipped (see
    /// [`CoverageConfig::basis_limit`]).
    pub truncated: bool,
    /// All findings, WARNs first.
    pub findings: Vec<CoverageFinding>,
    /// Analysis wall time, seconds.
    pub elapsed_secs: f64,
}

impl CoverageReport {
    /// Number of WARN-severity findings.
    pub fn warn_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == CoverageSeverity::Warn)
            .count()
    }

    /// `true` when no finding is WARN severity.
    pub fn is_clean(&self) -> bool {
        self.warn_count() == 0
    }

    /// Number of switches in the given LOO class.
    pub fn class_count(&self, class: LooClass) -> usize {
        self.switches.iter().filter(|s| s.loo == class).count()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "coverage: {} rules x {} flows ({} basis cols), {} warnings; \
             loo {} localizable / {} conditional / {} rank-lost; margin {}",
            self.rule_count,
            self.flow_count,
            self.basis_cols,
            self.warn_count(),
            self.class_count(LooClass::Localizable),
            self.class_count(LooClass::ConditionalOnMask),
            self.class_count(LooClass::RankLost),
            self.degradation_margin,
        );
        if !self.shards.is_empty() {
            let deficient = self
                .shards
                .iter()
                .filter(|sh| sh.analyzed && !sh.full_rank)
                .count();
            s.push_str(&format!(
                "; {} shards ({} rank-deficient)",
                self.shards.len(),
                deficient
            ));
        }
        if self.truncated {
            s.push_str("; switch-level analysis truncated");
        }
        s
    }

    /// Renders the summary as one flat JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push_str(&format!(
            "{{\"event\":\"coverage\",\"clean\":{},\"warnings\":{},\"rules\":{},\
             \"flows\":{},\"basis_cols\":{},\"switches\":{},\"localizable\":{},\
             \"conditional\":{},\"rank_lost\":{},\"degradation_margin\":{},\
             \"truncated\":{}",
            self.is_clean(),
            self.warn_count(),
            self.rule_count,
            self.flow_count,
            self.basis_cols,
            self.switches.len(),
            self.class_count(LooClass::Localizable),
            self.class_count(LooClass::ConditionalOnMask),
            self.class_count(LooClass::RankLost),
            self.degradation_margin,
            self.truncated,
        ));
        if !self.shards.is_empty() {
            let deficient = self
                .shards
                .iter()
                .filter(|sh| sh.analyzed && !sh.full_rank)
                .count();
            s.push_str(&format!(
                ",\"shards\":{},\"shards_rank_deficient\":{deficient}",
                self.shards.len()
            ));
        }
        s.push_str(&format!(",\"elapsed_secs\":{:.6}}}", self.elapsed_secs));
        s
    }

    /// Renders the report as JSON lines: the summary object first, then one
    /// object per finding. Ends with a newline.
    pub fn to_json_lines(&self) -> String {
        let mut s = self.to_json();
        s.push('\n');
        for f in &self.findings {
            s.push_str(&f.to_json());
            s.push('\n');
        }
        s
    }
}

/// Analyzes a flat (unpartitioned) FCM.
///
/// # Errors
///
/// [`FocesError::EmptyFcm`] when the FCM has no flows or rules. Numerical
/// failures never error: they degrade into findings
/// ([`CoverageKind::AnalysisTruncated`], [`LooClass::RankLost`]) so the
/// pre-flight gates can always render a report.
pub fn analyze_coverage(fcm: &Fcm, config: &CoverageConfig) -> Result<CoverageReport, FocesError> {
    analyze_inner(fcm, None, config)
}

/// Analyzes an FCM together with its cluster partition: everything
/// [`analyze_coverage`] computes, plus per-shard boundary coverage
/// (tentpole part d).
///
/// # Errors
///
/// As for [`analyze_coverage`].
pub fn analyze_cluster_coverage(
    fcm: &Fcm,
    sharded: &ShardedFcm,
    config: &CoverageConfig,
) -> Result<CoverageReport, FocesError> {
    analyze_inner(fcm, Some(sharded), config)
}

fn analyze_inner(
    fcm: &Fcm,
    sharded: Option<&ShardedFcm>,
    config: &CoverageConfig,
) -> Result<CoverageReport, FocesError> {
    if fcm.flow_count() == 0 || fcm.rule_count() == 0 {
        return Err(FocesError::EmptyFcm);
    }
    let start = Instant::now();
    let rules = fcm.rules();
    let groups = fcm.column_groups();
    let basis = fcm.sparse().select_columns(&groups.basis);
    let ncols = basis.cols();

    let mut rows_of: BTreeMap<SwitchId, Vec<usize>> = BTreeMap::new();
    for (i, r) in rules.iter().enumerate() {
        rows_of.entry(r.switch).or_default().push(i);
    }

    let mut warns: Vec<CoverageFinding> = Vec::new();
    let mut infos: Vec<CoverageFinding> = Vec::new();
    let mut switches: Vec<SwitchCoverage> = Vec::new();
    let mut truncated = false;

    if ncols > config.basis_limit {
        truncated = true;
        infos.push(CoverageFinding {
            kind: CoverageKind::AnalysisTruncated,
            severity: CoverageSeverity::Info,
            switch: None,
            region: None,
            score: ncols as f64,
            detail: format!(
                "basis has {ncols} columns (> limit {}); switch-level absorption and \
                 LOO analysis skipped",
                config.basis_limit
            ),
            certificate: None,
        });
    } else {
        match SparseFactor::factor_fresh(&basis.gram_csr()) {
            Err(e) => {
                truncated = true;
                warns.push(CoverageFinding {
                    kind: CoverageKind::AnalysisTruncated,
                    severity: CoverageSeverity::Warn,
                    switch: None,
                    region: None,
                    score: f64::NAN,
                    detail: format!(
                        "basis Gram factorization failed ({e}): the global least-squares \
                         system is rank-deficient; switch-level analysis unavailable"
                    ),
                    certificate: None,
                });
            }
            Ok(factor) => {
                let state = SwitchAnalysis::build(&basis, &factor, rules);
                for (&sw, rows) in &rows_of {
                    let row_share = rows.len() as f64 / rules.len() as f64;
                    let (absorption, certificate) = state.absorption(rows, &groups.basis, config);
                    let (loo, stranded, hinge) = state.classify(rows);
                    if row_share >= config.row_share_warn && absorption >= config.absorption_warn {
                        warns.push(CoverageFinding {
                            kind: CoverageKind::RowShareAbsorption,
                            severity: CoverageSeverity::Warn,
                            switch: Some(sw),
                            region: None,
                            score: absorption,
                            detail: format!(
                                "switch {} owns {:.1}% of the FCM rows and a uniform forgery \
                                 on them is {:.1}% absorbed by least squares — naive counter \
                                 fakes will not move the anomaly index",
                                sw.0,
                                100.0 * row_share,
                                100.0 * absorption
                            ),
                            certificate,
                        });
                    }
                    match loo {
                        LooClass::RankLost => warns.push(CoverageFinding {
                            kind: CoverageKind::LooRankLost,
                            severity: CoverageSeverity::Warn,
                            switch: Some(sw),
                            region: None,
                            score: stranded as f64,
                            detail: format!(
                                "leaving switch {} out strands {stranded} flow group(s) and \
                                 loses rank: the LOO localizer will refuse with RankLost",
                                sw.0
                            ),
                            certificate: None,
                        }),
                        LooClass::ConditionalOnMask => infos.push(CoverageFinding {
                            kind: CoverageKind::LooConditional,
                            severity: CoverageSeverity::Info,
                            switch: Some(sw),
                            region: None,
                            score: stranded as f64,
                            detail: match hinge {
                                Some((col, t)) => format!(
                                    "switch {} is localizable, but flow {} would then hang \
                                     on switch {} alone — one masked switch strands it",
                                    sw.0, col, t.0
                                ),
                                None => format!(
                                    "switch {} is localizable conditional on the row mask",
                                    sw.0
                                ),
                            },
                            certificate: None,
                        }),
                        LooClass::Localizable => {}
                    }
                    switches.push(SwitchCoverage {
                        switch: sw,
                        rows: rows.len(),
                        row_share,
                        absorption,
                        loo,
                        flows_stranded: stranded,
                    });
                }
            }
        }
    }

    // (c) Degradation margin: the cheapest switch-loss set blinding a flow
    // is the switch set of the flow with the fewest distinct switches in
    // its history. Verified below against the mask machinery itself.
    let mut margin = usize::MAX;
    let mut margin_flow = None;
    let mut margin_witness: Vec<SwitchId> = Vec::new();
    for (j, flow) in fcm.flows().iter().enumerate() {
        let distinct: BTreeSet<SwitchId> = flow.rules.iter().map(|r| r.switch).collect();
        if distinct.len() < margin && !distinct.is_empty() {
            margin = distinct.len();
            margin_flow = Some(j);
            margin_witness = distinct.into_iter().collect();
        }
    }
    if margin == usize::MAX {
        margin = 0;
    }
    if let Some(flow) = margin_flow {
        // Cross-check the witness against the real degraded-mode path: mask
        // exactly the witness switches' rows and confirm a flow drops.
        let observed: Vec<bool> = rules
            .iter()
            .map(|r| !margin_witness.contains(&r.switch))
            .collect();
        let dropped = fcm.mask_rows(&observed).dropped_flows();
        debug_assert!(dropped >= 1, "margin witness must drop at least one flow");
        infos.push(CoverageFinding {
            kind: CoverageKind::DegradationMargin,
            severity: CoverageSeverity::Info,
            switch: margin_witness.first().copied(),
            region: None,
            score: margin as f64,
            detail: format!(
                "losing {margin} switch(es) {:?} blinds flow {flow} entirely \
                 ({dropped} flow(s) dropped under that mask)",
                margin_witness.iter().map(|s| s.0).collect::<Vec<_>>()
            ),
            certificate: None,
        });
    }

    // (d) Partition boundary coverage.
    let mut shards: Vec<ShardCoverage> = Vec::new();
    if let Some(sharded) = sharded {
        for view in sharded.shard_views() {
            let sub = view.sub_fcm;
            let sub_groups = sub.column_groups();
            let sub_basis_cols = sub_groups.basis.len();
            if sub_basis_cols > config.basis_limit {
                infos.push(CoverageFinding {
                    kind: CoverageKind::AnalysisTruncated,
                    severity: CoverageSeverity::Info,
                    switch: None,
                    region: Some(view.region),
                    score: sub_basis_cols as f64,
                    detail: format!(
                        "shard {} has {sub_basis_cols} basis columns (> limit {}); \
                         boundary rank check skipped",
                        view.region, config.basis_limit
                    ),
                    certificate: None,
                });
                shards.push(ShardCoverage {
                    region: view.region,
                    rules: sub.rule_count(),
                    flows: sub.flow_count(),
                    basis_cols: sub_basis_cols,
                    boundary_flows: view.boundary_columns.len(),
                    full_rank: false,
                    analyzed: false,
                });
                continue;
            }
            let sub_basis = sub.sparse().select_columns(&sub_groups.basis);
            // Rank probe via the sparse factor: same positive-definiteness
            // tolerance as the dense Cholesky, without densifying the
            // shard's Gram.
            let full_rank = sub.rule_count() >= sub_basis_cols
                && SparseFactor::factor_fresh(&sub_basis.gram_csr()).is_ok();
            if !full_rank {
                warns.push(CoverageFinding {
                    kind: CoverageKind::BoundaryRankDeficit,
                    severity: CoverageSeverity::Warn,
                    switch: None,
                    region: Some(view.region),
                    score: sub_basis_cols as f64,
                    detail: format!(
                        "shard {} ({} rules x {} flows, {} boundary) is below full column \
                         rank: its local least-squares solves are singular",
                        view.region,
                        sub.rule_count(),
                        sub.flow_count(),
                        view.boundary_columns.len()
                    ),
                    certificate: None,
                });
            }
            shards.push(ShardCoverage {
                region: view.region,
                rules: sub.rule_count(),
                flows: sub.flow_count(),
                basis_cols: sub_basis_cols,
                boundary_flows: view.boundary_columns.len(),
                full_rank,
                analyzed: true,
            });
        }
    }

    let mut findings = warns;
    findings.append(&mut infos);
    Ok(CoverageReport {
        rule_count: fcm.rule_count(),
        flow_count: fcm.flow_count(),
        basis_cols: ncols,
        switches,
        degradation_margin: margin,
        margin_flow,
        margin_witness,
        shards,
        truncated,
        findings,
        elapsed_secs: start.elapsed().as_secs_f64(),
    })
}

/// Shared per-analysis state for the switch-level passes: the basis, the
/// sparse factor of its Gram, and the per-column support structure.
struct SwitchAnalysis<'a> {
    basis: &'a CsrMatrix,
    factor: &'a SparseFactor,
    rules: &'a [foces_dataplane::RuleRef],
    /// Rows supporting each basis column.
    col_support: Vec<Vec<usize>>,
}

impl<'a> SwitchAnalysis<'a> {
    fn build(
        basis: &'a CsrMatrix,
        factor: &'a SparseFactor,
        rules: &'a [foces_dataplane::RuleRef],
    ) -> Self {
        let mut col_support: Vec<Vec<usize>> = vec![Vec::new(); basis.cols()];
        for i in 0..basis.rows() {
            for (j, _) in basis.row_iter(i) {
                col_support[j].push(i);
            }
        }
        SwitchAnalysis {
            basis,
            factor,
            rules,
            col_support,
        }
    }

    /// (a) `‖P·u_s‖ / ‖u_s‖` for the uniform forgery direction `u_s`, plus
    /// the absorbing combination when it will be WARNed about.
    fn absorption(
        &self,
        rows: &[usize],
        parent_cols: &[usize],
        config: &CoverageConfig,
    ) -> (f64, Option<AbsorptionCertificate>) {
        if rows.is_empty() {
            return (0.0, None);
        }
        let Ok((resid, x)) = foces_sparse::absorption_coefficients(self.basis, self.factor, rows)
        else {
            return (f64::NAN, None);
        };
        let norm_u = (rows.len() as f64).sqrt();
        let rel = resid / norm_u;
        // ‖P·u‖² = ‖u‖² − ‖u − P·u‖² for an orthogonal projection.
        let absorption = (1.0 - rel * rel).max(0.0).sqrt();
        let mut terms: Vec<(usize, f64)> = x
            .iter()
            .enumerate()
            .filter(|(_, c)| c.abs() > 1e-9)
            .map(|(j, &c)| (parent_cols[j], c))
            .collect();
        terms.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()).then(a.0.cmp(&b.0)));
        let omitted = terms.len().saturating_sub(config.certificate_terms);
        terms.truncate(config.certificate_terms);
        let certificate = (!terms.is_empty()).then_some(AbsorptionCertificate {
            terms,
            residual: rel,
            omitted,
        });
        (absorption, certificate)
    }

    /// (b) The structural half of [`crate::LooSolver::leave_out`], with no
    /// counters: the same [`Capacitance`] over the switch's rows decides
    /// whether the reduced system keeps full rank. Returns `(class,
    /// stranded basis columns, conditional hinge)`.
    fn classify(&self, rows: &[usize]) -> (LooClass, usize, Option<(usize, SwitchId)>) {
        if rows.is_empty() {
            return (LooClass::Localizable, 0, None);
        }
        let cap = Capacitance::new(self.basis, self.factor, rows)
            .expect("the factor is this basis' Gram factor");
        let stranded = cap.stranded().len();
        if cap.rank_lost() {
            return (LooClass::RankLost, stranded, None);
        }
        // Full rank survives. Conditional check: a kept column that lost
        // rows and now hangs on a single other switch is one mask away
        // from being stranded.
        let row_set: BTreeSet<usize> = rows.iter().copied().collect();
        let touched: BTreeSet<usize> = rows
            .iter()
            .flat_map(|&r| self.basis.row_iter(r).map(|(j, _)| j))
            .collect();
        for j in touched {
            if cap.stranded().binary_search(&j).is_ok() {
                continue;
            }
            let remaining: BTreeSet<SwitchId> = self.col_support[j]
                .iter()
                .filter(|r| !row_set.contains(r))
                .map(|&r| self.switch_of(r))
                .collect();
            if remaining.len() == 1 {
                let hinge = remaining.into_iter().next().expect("len checked");
                return (LooClass::ConditionalOnMask, stranded, Some((j, hinge)));
            }
        }
        (LooClass::Localizable, stranded, None)
    }

    fn switch_of(&self, row: usize) -> SwitchId {
        self.rules[row].switch
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars) —
/// mirrors `foces-verify`'s report rendering.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fcm;

    #[test]
    fn empty_fcm_is_refused() {
        // Rules but no flows: nothing to analyze coverage over.
        let rules = vec![foces_dataplane::RuleRef {
            switch: SwitchId(0),
            index: 0,
        }];
        let fcm = Fcm::from_parts(rules, Vec::new());
        assert!(matches!(
            analyze_coverage(&fcm, &CoverageConfig::default()),
            Err(crate::FocesError::EmptyFcm)
        ));
    }

    #[test]
    fn certificate_display_reads_as_a_combination() {
        let cert = AbsorptionCertificate {
            terms: vec![(4, 0.5), (9, -0.25)],
            residual: 0.0123,
            omitted: 3,
        };
        let s = cert.to_string();
        assert!(s.starts_with("u ≈ 0.500·f4"), "{s}");
        assert!(s.contains("- 0.250·f9"), "{s}");
        assert!(s.contains("(+3 more)"), "{s}");
        assert!(s.contains("[rel residual 1.23e-2]"), "{s}");
    }

    #[test]
    fn finding_json_escapes_the_detail() {
        let finding = CoverageFinding {
            kind: CoverageKind::RowShareAbsorption,
            severity: CoverageSeverity::Warn,
            switch: Some(SwitchId(7)),
            region: None,
            score: 0.5,
            detail: "a \"quoted\"\nline".into(),
            certificate: None,
        };
        let j = finding.to_json();
        assert!(j.contains("\"kind\":\"row-share-absorption\""), "{j}");
        assert!(j.contains("\"severity\":\"warn\""), "{j}");
        assert!(j.contains("\"switch\":7"), "{j}");
        assert!(j.contains("a \\\"quoted\\\"\\nline"), "{j}");
    }

    #[test]
    fn severity_and_kind_labels_are_stable() {
        assert!(CoverageSeverity::Warn.is_warn());
        assert!(!CoverageSeverity::Info.is_warn());
        assert_eq!(CoverageSeverity::Info.label(), "info");
        assert_eq!(CoverageKind::LooRankLost.label(), "loo-rank-lost");
        assert_eq!(LooClass::ConditionalOnMask.label(), "conditional-on-mask");
    }
}
