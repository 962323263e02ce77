//! Error type of the versioning layer.

use core::fmt;

use sec_erasure::{CodeError, GeneratorForm};

/// Errors returned by archive construction, appending and retrieval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VersioningError {
    /// A version's byte length differs from the archive's object length
    /// (the length of its first version).
    ObjectLengthMismatch {
        /// The archive's object length in bytes.
        expected: usize,
        /// The supplied version's length in bytes.
        actual: usize,
    },
    /// The requested version index does not exist (versions are numbered from
    /// 1, as in the paper).
    NoSuchVersion {
        /// Requested version number.
        requested: usize,
        /// Number of versions currently archived.
        available: usize,
    },
    /// The archive holds no versions yet.
    EmptyArchive,
    /// A shared codec passed to an archive constructor was built for a
    /// different code than the archive configuration names.
    CodecMismatch {
        /// `(n, k, form)` the archive configuration requires.
        expected: (usize, usize, GeneratorForm),
        /// `(n, k, form)` of the supplied codec's code.
        actual: (usize, usize, GeneratorForm),
    },
    /// A stored entry the retrieval needs has too few live blocks for any
    /// read plan.
    Unrecoverable {
        /// Which stored entry could not be read.
        entry: usize,
    },
    /// An underlying erasure-coding error.
    Code(CodeError),
}

impl fmt::Display for VersioningError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VersioningError::ObjectLengthMismatch { expected, actual } => {
                write!(
                    f,
                    "version has {actual} bytes but the archive stores {expected}-byte objects"
                )
            }
            VersioningError::NoSuchVersion { requested, available } => {
                write!(
                    f,
                    "version {requested} does not exist ({available} versions archived)"
                )
            }
            VersioningError::EmptyArchive => write!(f, "the archive holds no versions"),
            VersioningError::CodecMismatch { expected, actual } => {
                write!(
                    f,
                    "shared codec was built for a ({}, {}) {} code but the archive requires a \
                     ({}, {}) {} code",
                    actual.0, actual.1, actual.2, expected.0, expected.1, expected.2
                )
            }
            VersioningError::Unrecoverable { entry } => {
                write!(f, "archive entry {entry} has too few live blocks to be read")
            }
            VersioningError::Code(err) => write!(f, "erasure coding error: {err}"),
        }
    }
}

impl std::error::Error for VersioningError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VersioningError::Code(err) => Some(err),
            _ => None,
        }
    }
}

impl From<CodeError> for VersioningError {
    fn from(err: CodeError) -> Self {
        VersioningError::Code(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(VersioningError::ObjectLengthMismatch {
            expected: 3,
            actual: 5
        }
        .to_string()
        .contains("has 5 bytes but the archive stores 3-byte objects"));
        assert!(VersioningError::NoSuchVersion {
            requested: 7,
            available: 2
        }
        .to_string()
        .contains("7"));
        assert!(VersioningError::EmptyArchive.to_string().contains("no versions"));
        assert!(VersioningError::Unrecoverable { entry: 4 }
            .to_string()
            .contains("entry 4"));
        let wrapped = VersioningError::from(CodeError::UndecodableShareSet);
        assert!(wrapped.to_string().contains("erasure coding"));
        use std::error::Error;
        assert!(wrapped.source().is_some());
        assert!(VersioningError::EmptyArchive.source().is_none());
    }
}
