//! The error type shared by the storage simulator and `sec-engine`.

use core::fmt;

use sec_erasure::CodeError;
use sec_versioning::VersioningError;

/// Errors from the storage simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Too many nodes have failed to serve the request.
    Unrecoverable {
        /// Which archive entry could not be decoded.
        entry: usize,
    },
    /// The requested version does not exist in the archive.
    Versioning(VersioningError),
    /// An erasure-coding error (propagated from decode).
    Code(CodeError),
    /// A node id outside `0..n` was passed to a node-addressing operation
    /// (failure injection, liveness query, repair).
    InvalidNode {
        /// The offending node id.
        node: usize,
        /// Number of nodes the addressed cluster actually has.
        n: usize,
    },
    /// A repair finished rebuilding a node, but the node failed *again*
    /// while the rebuild was in flight, so the repair refused to mark it
    /// live: the rebuilt contents predate the newest failure. The node
    /// stays failed; the caller should re-run the repair.
    RepairRaced {
        /// The node whose repair lost the race with a fresh failure.
        node: usize,
    },
    /// A block outside the placement's geometry was addressed (entry or
    /// codeword position too large).
    InvalidSymbol {
        /// Entry index of the offending block.
        entry: usize,
        /// Codeword position of the offending block.
        position: usize,
        /// Codeword length `n` of the placement.
        n: usize,
        /// Number of entries the placement covers.
        entries: usize,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Unrecoverable { entry } => {
                write!(
                    f,
                    "archive entry {entry} is unrecoverable with the current failures"
                )
            }
            StoreError::Versioning(e) => write!(f, "versioning error: {e}"),
            StoreError::Code(e) => write!(f, "coding error: {e}"),
            StoreError::InvalidNode { node, n } => {
                write!(f, "node id {node} is out of range for a {n}-node cluster")
            }
            StoreError::RepairRaced { node } => {
                write!(
                    f,
                    "node {node} failed again while its repair was in flight; the rebuild was \
                     discarded and the node left failed — re-run the repair"
                )
            }
            StoreError::InvalidSymbol {
                entry,
                position,
                n,
                entries,
            } => write!(
                f,
                "symbol (entry {entry}, position {position}) is out of range for a placement of \
                 {entries} entries with codeword length {n}"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<VersioningError> for StoreError {
    /// Wraps the error, except that an entry the archive could not read from
    /// its live blocks is the engine's [`StoreError::Unrecoverable`], so the
    /// reference archive's failures compare equal to the engine's.
    fn from(e: VersioningError) -> Self {
        match e {
            VersioningError::Unrecoverable { entry } => StoreError::Unrecoverable { entry },
            e => StoreError::Versioning(e),
        }
    }
}

impl From<CodeError> for StoreError {
    fn from(e: CodeError) -> Self {
        StoreError::Code(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_offending_entry_node_or_symbol() {
        assert!(StoreError::Unrecoverable { entry: 2 }
            .to_string()
            .contains("entry 2"));
        assert!(StoreError::InvalidNode { node: 9, n: 6 }
            .to_string()
            .contains("node id 9"));
        assert!(StoreError::RepairRaced { node: 4 }.to_string().contains("node 4"));
        assert!(StoreError::InvalidSymbol {
            entry: 7,
            position: 8,
            n: 6,
            entries: 3
        }
        .to_string()
        .contains("(entry 7, position 8)"));
        let wrapped = StoreError::from(VersioningError::EmptyArchive);
        assert!(wrapped.to_string().starts_with("versioning error:"));
        assert_eq!(
            StoreError::from(VersioningError::Unrecoverable { entry: 3 }),
            StoreError::Unrecoverable { entry: 3 }
        );
        let wrapped = StoreError::from(CodeError::UndecodableShareSet);
        assert!(wrapped.to_string().starts_with("coding error:"));
    }
}
