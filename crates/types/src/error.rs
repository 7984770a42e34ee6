//! Error type shared across the EnBlogue workspace.

use std::fmt;

/// Errors surfaced by EnBlogue components.
///
/// The system is a streaming engine: most conditions are handled inline
/// (e.g. unknown tags are simply not tracked), so the error surface is
/// deliberately small: configuration mistakes a caller must fix, missing
/// inputs, and checkpoint failures.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EnBlogueError {
    /// A configuration value was out of its valid range.
    InvalidConfig {
        /// The offending parameter, e.g. `"window_ticks"`.
        parameter: &'static str,
        /// Human-readable description of the violated constraint.
        message: String,
    },
    /// A referenced entity/tag/user was not found.
    NotFound(String),
    /// A snapshot file is unreadable as a snapshot: truncated, checksum
    /// mismatch, bad magic, or structurally malformed. Restores must
    /// surface this instead of panicking — a half-written checkpoint from
    /// a crash is exactly the input the restore path exists for.
    SnapshotCorrupt(String),
    /// A snapshot was written by an incompatible format version.
    SnapshotVersionMismatch {
        /// Version found in the file header.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// A snapshot was taken under a different engine configuration than
    /// the one offered for resume (restored state is only meaningful under
    /// the exact semantic and execution parameters it was built with).
    SnapshotConfigMismatch(String),
    /// Filesystem I/O failed while writing or reading a snapshot.
    SnapshotIo(String),
}

impl EnBlogueError {
    /// Convenience constructor for configuration errors.
    pub fn invalid_config(parameter: &'static str, message: impl Into<String>) -> Self {
        EnBlogueError::InvalidConfig { parameter, message: message.into() }
    }
}

impl fmt::Display for EnBlogueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnBlogueError::InvalidConfig { parameter, message } => {
                write!(f, "invalid configuration for `{parameter}`: {message}")
            }
            EnBlogueError::NotFound(what) => write!(f, "not found: {what}"),
            EnBlogueError::SnapshotCorrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            EnBlogueError::SnapshotVersionMismatch { found, supported } => {
                write!(
                    f,
                    "snapshot version mismatch: file has v{found}, this build reads v{supported}"
                )
            }
            EnBlogueError::SnapshotConfigMismatch(msg) => {
                write!(f, "snapshot configuration mismatch: {msg}")
            }
            EnBlogueError::SnapshotIo(msg) => write!(f, "snapshot i/o error: {msg}"),
        }
    }
}

impl std::error::Error for EnBlogueError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = EnBlogueError::invalid_config("window_ticks", "must be >= 2");
        assert_eq!(err.to_string(), "invalid configuration for `window_ticks`: must be >= 2");

        let err = EnBlogueError::NotFound("checkpoint".into());
        assert!(err.to_string().contains("checkpoint"));
    }

    #[test]
    fn is_std_error() {
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&EnBlogueError::NotFound("user".into()));
    }
}
