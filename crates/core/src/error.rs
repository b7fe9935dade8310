use foces_dataplane::RuleRef;
use foces_linalg::LinalgError;
use std::error::Error;
use std::fmt;

/// Errors surfaced by the FOCES detector.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FocesError {
    /// The counter vector's length does not match the FCM's rule count.
    CounterLengthMismatch {
        /// Number of counters supplied.
        got: usize,
        /// Number of rules (FCM rows) expected.
        expected: usize,
    },
    /// The FCM has no flows (nothing to check).
    EmptyFcm,
    /// A counter is `NaN` or infinite: no flow volume explains it, so the
    /// reading must be treated as not collected rather than solved.
    NonFiniteCounter {
        /// Row (rule) index of the first non-finite counter.
        row: usize,
        /// The reading itself.
        value: f64,
    },
    /// A rule history referenced a rule outside the FCM's rule universe —
    /// the FCM is stale relative to the control plane it was built from.
    UnknownRule(RuleRef),
    /// The underlying linear solve failed beyond all fallbacks.
    Solver(LinalgError),
    /// A sharded FCM failed its boundary-flow reconciliation check: a flow
    /// crossing regions is not represented consistently across the shards
    /// it traverses.
    ShardReconciliation {
        /// Parent column index of the offending flow.
        flow: usize,
        /// Region of the shard where the inconsistency was found
        /// (`usize::MAX` when no single shard is to blame).
        region: usize,
        /// What went wrong.
        detail: &'static str,
    },
}

impl fmt::Display for FocesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FocesError::CounterLengthMismatch { got, expected } => write!(
                f,
                "counter vector has {got} entries but the FCM has {expected} rules"
            ),
            FocesError::EmptyFcm => write!(f, "flow-counter matrix has no flows"),
            FocesError::NonFiniteCounter { row, value } => write!(
                f,
                "counter of row {row} is {value}: a non-finite reading cannot be solved"
            ),
            FocesError::UnknownRule(r) => write!(
                f,
                "history references unknown rule {r}: the FCM is stale relative to the plane"
            ),
            FocesError::Solver(e) => write!(f, "equation system solve failed: {e}"),
            FocesError::ShardReconciliation {
                flow,
                region,
                detail,
            } => {
                if *region == usize::MAX {
                    write!(f, "shard reconciliation failed for flow {flow}: {detail}")
                } else {
                    write!(
                        f,
                        "shard reconciliation failed for flow {flow} in region {region}: {detail}"
                    )
                }
            }
        }
    }
}

impl Error for FocesError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FocesError::Solver(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for FocesError {
    fn from(e: LinalgError) -> Self {
        FocesError::Solver(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = FocesError::CounterLengthMismatch {
            got: 3,
            expected: 5,
        };
        assert!(e.to_string().contains("3"));
        assert!(e.source().is_none());

        let inner = LinalgError::DimensionMismatch("x".into());
        let e = FocesError::from(inner.clone());
        assert_eq!(e, FocesError::Solver(inner));
        assert!(e.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FocesError>();
    }
}
