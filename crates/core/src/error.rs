//! Error type of the SMAT auto-tuner.

use std::error::Error;
use std::fmt;

/// Errors surfaced by training, persistence and the runtime.
#[derive(Debug)]
#[non_exhaustive]
pub enum SmatError {
    /// An underlying matrix operation failed.
    Matrix(smat_matrix::MatrixError),
    /// Saving or loading a model failed.
    Persist(smat_learn::PersistError),
    /// The training corpus was unusable (empty, or single-class).
    Training(String),
    /// A model was applied to data of the wrong precision.
    PrecisionMismatch {
        /// Precision the model was trained for.
        model: String,
        /// Precision of the data.
        data: &'static str,
    },
    /// A format conversion was refused because it would exceed a
    /// resource budget (see
    /// [`SmatConfig::conversion_budget_bytes`](crate::SmatConfig::conversion_budget_bytes)).
    Budget {
        /// Target format of the refused conversion.
        format: &'static str,
        /// Estimated allocation the conversion would have made.
        required_bytes: usize,
        /// The configured budget.
        budget_bytes: usize,
    },
    /// A candidate kernel panicked during measurement.
    KernelPanic {
        /// What was being measured.
        what: String,
        /// Stringified panic payload.
        message: String,
    },
    /// A persisted artifact failed validation (checksum mismatch,
    /// truncation, or structurally impossible contents).
    Corrupt {
        /// What artifact was found corrupt.
        what: String,
        /// Why it was rejected.
        detail: String,
    },
}

impl SmatError {
    /// The stable taxonomy name of this error class, as reported by
    /// the CLI exit path and operational tooling. Deliberately coarse:
    /// one name per variant, never message text.
    pub fn taxonomy(&self) -> &'static str {
        match self {
            SmatError::Matrix(_) => "matrix",
            SmatError::Persist(_) => "persist",
            SmatError::Training(_) => "training",
            SmatError::PrecisionMismatch { .. } => "precision-mismatch",
            SmatError::Budget { .. } => "budget",
            SmatError::KernelPanic { .. } => "kernel-panic",
            SmatError::Corrupt { .. } => "corrupt",
        }
    }

    /// Whether retrying the failed operation could plausibly succeed.
    ///
    /// Only persistence I/O qualifies: a full disk, a flaky mount or a
    /// scripted failpoint may clear between attempts. Everything else —
    /// malformed artifacts, budget refusals, panicking kernels, bad
    /// inputs — is a property of the input or the configuration and
    /// will fail identically on every attempt.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            SmatError::Persist(smat_learn::PersistError::Io(_))
                | SmatError::Matrix(smat_matrix::MatrixError::Io(_))
        )
    }
}

impl fmt::Display for SmatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmatError::Matrix(e) => write!(f, "matrix error: {e}"),
            SmatError::Persist(e) => write!(f, "persistence error: {e}"),
            SmatError::Training(msg) => write!(f, "training failed: {msg}"),
            SmatError::PrecisionMismatch { model, data } => write!(
                f,
                "model trained for {model} precision applied to {data} data"
            ),
            SmatError::Budget {
                format,
                required_bytes,
                budget_bytes,
            } => write!(
                f,
                "conversion to {format} would allocate {required_bytes} bytes, \
                 above the budget of {budget_bytes}"
            ),
            SmatError::KernelPanic { what, message } => {
                write!(f, "{what} panicked: {message}")
            }
            SmatError::Corrupt { what, detail } => {
                write!(f, "corrupt {what}: {detail}")
            }
        }
    }
}

impl Error for SmatError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SmatError::Matrix(e) => Some(e),
            SmatError::Persist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<smat_matrix::MatrixError> for SmatError {
    fn from(e: smat_matrix::MatrixError) -> Self {
        match e {
            smat_matrix::MatrixError::BudgetExceeded {
                format,
                required_bytes,
                budget_bytes,
            } => SmatError::Budget {
                format,
                required_bytes,
                budget_bytes,
            },
            other => SmatError::Matrix(other),
        }
    }
}

impl From<smat_learn::PersistError> for SmatError {
    fn from(e: smat_learn::PersistError) -> Self {
        SmatError::Persist(e)
    }
}

/// Result alias for the core crate.
pub type Result<T> = std::result::Result<T, SmatError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = SmatError::Training("empty corpus".into());
        assert!(e.to_string().contains("empty corpus"));
        assert!(e.source().is_none());

        let e = SmatError::from(smat_matrix::MatrixError::InvalidStructure("x".into()));
        assert!(e.source().is_some());
    }

    #[test]
    fn budget_exceeded_maps_to_budget_variant() {
        let e = SmatError::from(smat_matrix::MatrixError::BudgetExceeded {
            format: "ELL",
            required_bytes: 4096,
            budget_bytes: 1024,
        });
        match &e {
            SmatError::Budget {
                format,
                required_bytes,
                budget_bytes,
            } => {
                assert_eq!(*format, "ELL");
                assert_eq!(*required_bytes, 4096);
                assert_eq!(*budget_bytes, 1024);
            }
            other => panic!("expected Budget, got {other:?}"),
        }
        assert!(e.to_string().contains("above the budget"));
    }

    #[test]
    fn taxonomy_displays() {
        let e = SmatError::KernelPanic {
            what: "ELL candidate".into(),
            message: "index out of bounds".into(),
        };
        assert!(e.to_string().contains("panicked"));
        let e = SmatError::Corrupt {
            what: "installation artifact".into(),
            detail: "checksum mismatch".into(),
        };
        assert!(e.to_string().contains("corrupt"));
    }

    #[test]
    fn taxonomy_names_are_stable_and_exhaustive() {
        let cases: Vec<(SmatError, &str)> = vec![
            (
                SmatError::Matrix(smat_matrix::MatrixError::InvalidStructure("x".into())),
                "matrix",
            ),
            (
                SmatError::Persist(smat_learn::PersistError::Io(std::io::Error::other("d"))),
                "persist",
            ),
            (SmatError::Training("t".into()), "training"),
            (
                SmatError::PrecisionMismatch {
                    model: "f64".into(),
                    data: "f32",
                },
                "precision-mismatch",
            ),
            (
                SmatError::Budget {
                    format: "DIA",
                    required_bytes: 2,
                    budget_bytes: 1,
                },
                "budget",
            ),
            (
                SmatError::KernelPanic {
                    what: "w".into(),
                    message: "m".into(),
                },
                "kernel-panic",
            ),
            (
                SmatError::Corrupt {
                    what: "w".into(),
                    detail: "d".into(),
                },
                "corrupt",
            ),
        ];
        for (err, name) in cases {
            assert_eq!(err.taxonomy(), name, "taxonomy of {err:?}");
            // The operational rendering the CLI emits: "[taxonomy]
            // message". Pinned so log scrapers can rely on it.
            let rendered = format!("[{}] {err}", err.taxonomy());
            assert!(
                rendered.starts_with(&format!("[{name}] ")),
                "rendering of {err:?}: {rendered}"
            );
            // Transience is narrower than taxonomy: of these cases only
            // the I/O-backed persist error can clear on retry (the
            // matrix case here is InvalidStructure, which cannot).
            assert_eq!(
                err.is_transient(),
                name == "persist",
                "transience of {err:?}"
            );
        }
    }

    #[test]
    fn transient_classification() {
        let io = SmatError::Persist(smat_learn::PersistError::Io(std::io::Error::other("disk")));
        assert!(io.is_transient());
        let matrix_io =
            SmatError::Matrix(smat_matrix::MatrixError::Io(std::io::Error::other("mount")));
        assert!(matrix_io.is_transient());
        // Malformed JSON will be malformed on every retry.
        let json_err = serde_json::from_str::<u32>("not json").unwrap_err();
        let json = SmatError::Persist(smat_learn::PersistError::Json(json_err));
        assert!(!json.is_transient());
        assert!(!SmatError::Training("empty".into()).is_transient());
        assert!(!SmatError::Corrupt {
            what: "artifact".into(),
            detail: "checksum".into()
        }
        .is_transient());
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<SmatError>();
    }
}
