use std::fmt;

/// Error type for the numeric kernels.
///
/// Every failure carries enough context to diagnose the offending call
/// without a debugger; messages are lowercase without trailing punctuation
/// per the Rust API guidelines.
#[derive(Debug, Clone, PartialEq)]
pub enum NumericError {
    /// A matrix was constructed from rows of inconsistent length, or an
    /// operation was attempted on incompatible dimensions.
    ShapeMismatch {
        /// What the caller supplied.
        got: usize,
        /// What the operation required.
        expected: usize,
    },
    /// LU factorization hit a pivot below the singularity threshold.
    SingularMatrix {
        /// Column at which elimination broke down.
        column: usize,
        /// Magnitude of the best available pivot.
        pivot: f64,
    },
    /// An interpolation grid was empty or not strictly increasing.
    InvalidGrid(&'static str),
    /// A fit was requested with fewer effective points than unknowns.
    InsufficientData {
        /// Number of usable samples found.
        got: usize,
        /// Minimum required.
        required: usize,
    },
    /// A non-finite value (NaN/inf) reached a kernel input.
    NonFinite(&'static str),
}

impl fmt::Display for NumericError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumericError::ShapeMismatch { got, expected } => {
                write!(f, "shape mismatch: got {got}, expected {expected}")
            }
            NumericError::SingularMatrix { column, pivot } => {
                write!(f, "singular matrix at column {column} (pivot {pivot:.3e})")
            }
            NumericError::InvalidGrid(what) => write!(f, "invalid grid: {what}"),
            NumericError::InsufficientData { got, required } => {
                write!(f, "insufficient data: got {got} samples, need {required}")
            }
            NumericError::NonFinite(what) => write!(f, "non-finite value in {what}"),
        }
    }
}

impl std::error::Error for NumericError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errors = [
            NumericError::ShapeMismatch {
                got: 1,
                expected: 2,
            },
            NumericError::SingularMatrix {
                column: 3,
                pivot: 0.0,
            },
            NumericError::InvalidGrid("empty"),
            NumericError::InsufficientData {
                got: 0,
                required: 2,
            },
            NumericError::NonFinite("rhs"),
        ];
        for e in errors {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
            assert!(!s.ends_with('.'));
        }
    }
}
