//! Static verification of SDN rule tables for the FOCES reproduction.
//!
//! FOCES detects forwarding anomalies **at runtime** from rule counters;
//! this crate proves, **before any packet flows**, that the controller's
//! intended configuration is itself sound. The two are complementary: a
//! loop or blackhole that is already present in the controller's view is a
//! configuration bug, not a compromised switch, and flagging it as a
//! forwarding anomaly would misdirect the response. The runtime therefore
//! runs these checks as a pre-flight gate and after every reconciled
//! churn epoch, reporting violations as *static* findings.
//!
//! Four analyses over a [`ControllerView`] (and optionally its [`Fcm`]):
//!
//! * **Loop freedom** ([`FindingKind::ForwardingLoop`]) — symbolic
//!   traversal of every packet equivalence class from every host port;
//!   a class re-entering a switch on its own path loops forever (rules
//!   never rewrite headers, so trajectories are deterministic).
//! * **Blackhole freedom** ([`FindingKind::Blackhole`]) — every class the
//!   network *accepts* (matches at least one rule) must reach a host port
//!   or an explicit drop; dying by downstream table miss or by forwarding
//!   out a linkless port is a violation.
//! * **Shadowed/dead rules** ([`FindingKind::ShadowedRule`]) — a rule
//!   fully covered by higher-precedence rules in its table can never
//!   match; decided exactly by wildcard subtraction
//!   ([`foces_headerspace::covers`]).
//! * **FCM consistency** ([`FindingKind::FcmInconsistency`]) — every FCM
//!   row maps to a live rule and every flow column's rule path is what the
//!   tables actually forward ([`verify_fcm`]).
//!
//! Emptiness everywhere is decided **exactly** (wildcard difference), so a
//! clean report is a proof and every finding carries a concrete
//! counterexample header.
//!
//! # Full and incremental passes
//!
//! A [`Verifier`] keeps one pass's raw results per ingress host, per
//! table and per host's run of FCM columns. Its [`Verifier::update`]
//! re-traces only the hosts the rules installed since the previous update
//! meet ([`foces_atpg::hosts_meeting`]), re-checks shadowing only in the
//! tables that gained rules, re-walks only the re-traced hosts' FCM
//! columns, and reports exactly what a full pass would. The pre-flight
//! pass ([`verify_with`], [`verify_view`]) is the update of an empty
//! state and costs every host; the runtime keeps one state and, after
//! each FCM rebuild, runs an update that costs the hosts the churn's new
//! rules meet.
//!
//! # Example
//!
//! ```
//! use foces_controlplane::{provision, uniform_flows, RuleGranularity};
//! use foces_net::generators::fattree;
//! use foces_verify::verify_view;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let topo = fattree(4);
//! let flows = uniform_flows(&topo, 240_000.0);
//! let dep = provision(topo, &flows, RuleGranularity::PerDestination)?;
//! let report = verify_view(&dep.view);
//! assert!(report.is_clean(), "{}", report.summary());
//! # Ok(())
//! # }
//! ```

mod consistency;
mod incremental;
mod report;
mod shadow;
mod traversal;

pub use consistency::verify_fcm;
pub use incremental::Verifier;
pub use report::{Finding, FindingKind, VerifyReport};

use foces::Fcm;
use foces_controlplane::ControllerView;
use foces_dataplane::RuleRef;
use std::time::Instant;

/// Knobs for a verification pass.
#[derive(Debug, Clone)]
pub struct VerifyOptions {
    /// Rules that are shadowed **on purpose** and must not be reported —
    /// typically the drained lower-priority rules a rolling update leaves
    /// behind, as recorded in the controller's journal
    /// ([`ControllerView::touched_rules_since`]). Any order; duplicates
    /// are harmless.
    pub expected_shadowed: Vec<RuleRef>,
    /// Whether to build the view's FCM and check its structural
    /// consistency. Callers that already hold an FCM should pass `false`
    /// and call [`verify_fcm`] themselves, or hand it to
    /// [`Verifier::update`], to avoid re-tracing flows.
    pub check_fcm: bool,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            expected_shadowed: Vec::new(),
            check_fcm: true,
        }
    }
}

/// Verifies a controller view with default options (all four analyses, no
/// shadowing allowlist).
pub fn verify_view(view: &ControllerView) -> VerifyReport {
    verify_with(view, &VerifyOptions::default())
}

/// Verifies a controller view with explicit options: the full pass, which
/// is the update of an empty [`Verifier`].
pub fn verify_with(view: &ControllerView, opts: &VerifyOptions) -> VerifyReport {
    let start = Instant::now();
    let fcm = opts.check_fcm.then(|| Fcm::from_view(view));
    let mut report = Verifier::default().update(view, &opts.expected_shadowed, fcm.as_ref());
    report.elapsed_secs = start.elapsed().as_secs_f64();
    report
}
