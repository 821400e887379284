//! The subsystem's typed error: every user-supplied input (manifest
//! files, area lists, thresholds) fails through [`TuneError`] instead
//! of a panic, per the workspace's `clippy::unwrap_used` discipline.

use std::error::Error;
use std::fmt;

/// Errors raised by the autotuner and the manifest pipelines built on it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TuneError {
    /// The candidate area grid is empty.
    EmptyGrid,
    /// The attribution carries no chains or no fetches — there is
    /// nothing to locate a knee on.
    EmptyAttribution,
    /// An area argument (CSV list or manifest field) did not parse.
    BadArea {
        /// The offending token.
        token: String,
    },
    /// A threshold or tolerance argument did not parse or is not a
    /// finite non-negative number.
    BadThreshold {
        /// The offending token.
        token: String,
    },
    /// A file could not be read or written.
    Io {
        /// The path involved.
        path: String,
        /// The underlying OS error.
        message: String,
    },
    /// A manifest (or one line of a JSONL stream) is not valid JSON.
    Json {
        /// Where the text came from.
        source: String,
        /// The parser's message.
        message: String,
    },
    /// A manifest parsed but lacks a required field (wrong schema or
    /// truncated file).
    MissingField {
        /// Where the manifest came from.
        source: String,
        /// The field that was expected.
        field: String,
    },
    /// A measurement callback failed during the refinement search.
    Measure {
        /// The underlying failure, stringified by the caller.
        message: String,
    },
}

impl fmt::Display for TuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneError::EmptyGrid => write!(f, "candidate area grid is empty"),
            TuneError::EmptyAttribution => {
                write!(f, "attribution has no chains or no fetches to tune on")
            }
            TuneError::BadArea { token } => write!(f, "bad area size '{token}'"),
            TuneError::BadThreshold { token } => write!(f, "bad threshold '{token}'"),
            TuneError::Io { path, message } => write!(f, "{path}: {message}"),
            TuneError::Json { source, message } => write!(f, "{source}: invalid JSON: {message}"),
            TuneError::MissingField { source, field } => {
                write!(f, "{source}: missing field '{field}'")
            }
            TuneError::Measure { message } => write!(f, "measurement failed: {message}"),
        }
    }
}

impl Error for TuneError {}

impl TuneError {
    /// Wraps an I/O error with its path.
    #[must_use]
    pub fn io(path: &std::path::Path, error: &std::io::Error) -> TuneError {
        TuneError::Io { path: path.display().to_string(), message: error.to_string() }
    }

    /// Whether the error is a *usage* mistake (a malformed argument
    /// the caller typed) rather than a pipeline failure. The binaries
    /// share one exit-code convention: `1` for pipeline/tuning
    /// failures, `2` for usage errors, so CI can tell a broken
    /// invocation from a genuinely failing run.
    #[must_use]
    pub fn is_usage(&self) -> bool {
        matches!(
            self,
            TuneError::BadArea { .. } | TuneError::BadThreshold { .. } | TuneError::EmptyGrid
        )
    }

    /// The process exit code the shared convention assigns this error:
    /// `2` for usage mistakes, `1` for everything else.
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        if self.is_usage() {
            2
        } else {
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_specific() {
        assert!(TuneError::EmptyGrid.to_string().contains("grid"));
        assert!(TuneError::BadArea { token: "12q".into() }.to_string().contains("12q"));
        let io = TuneError::io(std::path::Path::new("/nope"), &std::io::Error::other("denied"));
        assert!(io.to_string().contains("/nope") && io.to_string().contains("denied"));
        assert!(TuneError::MissingField { source: "m.json".into(), field: "runs".into() }
            .to_string()
            .contains("runs"));
    }

    #[test]
    fn usage_errors_exit_2_pipeline_errors_exit_1() {
        for usage in [
            TuneError::BadArea { token: "12q".into() },
            TuneError::BadThreshold { token: "nan".into() },
            TuneError::EmptyGrid,
        ] {
            assert!(usage.is_usage(), "{usage}");
            assert_eq!(usage.exit_code(), 2, "{usage}");
        }
        for pipeline in [
            TuneError::EmptyAttribution,
            TuneError::Io { path: "/nope".into(), message: "denied".into() },
            TuneError::Json { source: "m.json".into(), message: "bad".into() },
            TuneError::MissingField { source: "m.json".into(), field: "runs".into() },
            TuneError::Measure { message: "sim exploded".into() },
        ] {
            assert!(!pipeline.is_usage(), "{pipeline}");
            assert_eq!(pipeline.exit_code(), 1, "{pipeline}");
        }
    }
}
