//! Error type of the thermal simulator.

use oftec_linalg::LinalgError;

/// Errors from building or solving the thermal model.
#[derive(Debug, Clone, PartialEq)]
pub enum ThermalError {
    /// No steady state exists at the requested operating point: leakage
    /// feedback exceeds the package's heat-removal capability (the paper's
    /// "thermal runaway" — objective values tending to infinity in
    /// Figure 6(a)(b)). Holds a short description of how it was detected.
    Runaway(&'static str),
    /// The operating point violates a physical bound (negative current,
    /// fan speed above `ω_max`, ...).
    InvalidOperatingPoint(String),
    /// Model construction was inconsistent (mismatched vector lengths,
    /// unknown units, ...).
    Config(String),
    /// The linear solver failed for a reason other than indefiniteness.
    Solver(LinalgError),
    /// An input or intermediate value was NaN/inf where a finite value is
    /// required (conductances, powers, warm-start states, ...).
    NonFinite(String),
}

/// How the full path reports a folded matrix that is not positive
/// definite: CG meets negative curvature. The reduced path returns the
/// same error when its projected system proves the indefiniteness.
pub(crate) const NEGATIVE_CURVATURE: &str = "negative curvature in the folded network matrix";

impl core::fmt::Display for ThermalError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Runaway(how) => write!(f, "thermal runaway: {how}"),
            Self::InvalidOperatingPoint(what) => write!(f, "invalid operating point: {what}"),
            Self::Config(what) => write!(f, "model configuration error: {what}"),
            Self::Solver(e) => write!(f, "thermal solver failure: {e}"),
            Self::NonFinite(what) => write!(f, "non-finite value in {what}"),
        }
    }
}

impl std::error::Error for ThermalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Solver(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for ThermalError {
    fn from(e: LinalgError) -> Self {
        match e {
            // Loss of positive definiteness IS the runaway signal.
            LinalgError::NotPositiveDefinite(_) => {
                ThermalError::Runaway("thermal network matrix is not positive definite")
            }
            LinalgError::Breakdown("non-positive curvature in CG") => {
                ThermalError::Runaway(NEGATIVE_CURVATURE)
            }
            LinalgError::Singular(_) => ThermalError::Runaway("thermal network matrix is singular"),
            LinalgError::NonFinite(what) => ThermalError::NonFinite(what.to_string()),
            other => ThermalError::Solver(other),
        }
    }
}

impl ThermalError {
    /// Returns `true` for the thermal-runaway condition.
    pub fn is_runaway(&self) -> bool {
        matches!(self, Self::Runaway(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runaway_classification_from_linalg() {
        let e: ThermalError = LinalgError::NotPositiveDefinite(3).into();
        assert!(e.is_runaway());
        let e: ThermalError = LinalgError::Breakdown("non-positive curvature in CG").into();
        assert!(e.is_runaway());
        let e: ThermalError = LinalgError::Singular(0).into();
        assert!(e.is_runaway());
        let e: ThermalError = LinalgError::DimensionMismatch(2, 3).into();
        assert!(!e.is_runaway());
    }

    #[test]
    fn display() {
        assert!(ThermalError::Runaway("x").to_string().contains("runaway"));
        assert!(ThermalError::Config("bad".into())
            .to_string()
            .contains("configuration"));
    }
}
