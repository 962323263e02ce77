//! Redundancy placement strategies (§IV of the paper).
//!
//! * **Colocated** — the coded pieces of every stored object (first version
//!   and all deltas) live on the same set of `n` nodes; node `i` holds
//!   position `i` of every codeword. The paper shows this placement maximizes
//!   whole-archive resilience.
//! * **Dispersed** — each stored object gets its own disjoint set of `n`
//!   nodes, for `n·L` nodes in total.

use crate::node::SymbolKey;
use crate::store::StoreError;

/// Which placement strategy an engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementStrategy {
    /// All entries share one set of `n` nodes.
    Colocated,
    /// Every entry gets its own disjoint set of `n` nodes.
    Dispersed,
}

impl core::fmt::Display for PlacementStrategy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PlacementStrategy::Colocated => write!(f, "colocated"),
            PlacementStrategy::Dispersed => write!(f, "dispersed"),
        }
    }
}

/// A concrete node assignment for `entries` stored objects of codeword length
/// `n` each.
///
/// # Growth contract
///
/// A placement starts out covering the entries that existed when it was
/// built and grows monotonically via [`Placement::grow_to`] as versions are
/// appended: growing never renames an existing symbol's node, it only adds
/// addressable entries (and, under [`PlacementStrategy::Dispersed`], the `n`
/// fresh nodes each new entry lives on). An **empty** placement covers zero
/// entries: under `Dispersed` it therefore has **zero** nodes and rejects
/// every key, while under `Colocated` the `n` physical nodes exist
/// regardless of how many entries they hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    strategy: PlacementStrategy,
    n: usize,
    entries: usize,
}

impl Placement {
    /// Creates a placement for `entries` codewords of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(strategy: PlacementStrategy, n: usize, entries: usize) -> Self {
        assert!(n > 0, "codeword length must be positive");
        Self { strategy, n, entries }
    }

    /// The strategy in use.
    pub fn strategy(&self) -> PlacementStrategy {
        self.strategy
    }

    /// Codeword length `n`.
    pub fn codeword_len(&self) -> usize {
        self.n
    }

    /// Number of stored objects covered by the placement.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Total number of distinct nodes required. An empty dispersed placement
    /// needs zero nodes (consistently with [`Placement::try_node_for`], which
    /// rejects every key until [`Placement::grow_to`] admits entries); a
    /// colocated placement always needs exactly `n`.
    pub fn node_count(&self) -> usize {
        match self.strategy {
            PlacementStrategy::Colocated => self.n,
            PlacementStrategy::Dispersed => self.n * self.entries,
        }
    }

    /// The node that stores the given coded symbol, or
    /// [`StoreError::InvalidSymbol`] when the key lies outside the
    /// placement's geometry.
    pub fn try_node_for(&self, key: SymbolKey) -> Result<usize, StoreError> {
        if key.position >= self.n || key.entry >= self.entries {
            return Err(StoreError::InvalidSymbol {
                entry: key.entry,
                position: key.position,
                n: self.n,
                entries: self.entries,
            });
        }
        Ok(match self.strategy {
            PlacementStrategy::Colocated => key.position,
            PlacementStrategy::Dispersed => key.entry * self.n + key.position,
        })
    }

    /// Grows the placement to cover at least `entries` stored objects (used
    /// when versions are appended after the engine was created).
    /// Growing is monotone — it never shrinks coverage nor reassigns an
    /// already-addressable symbol — and under
    /// [`PlacementStrategy::Dispersed`] each admitted entry adds `n` fresh
    /// nodes to [`Placement::node_count`].
    pub fn grow_to(&mut self, entries: usize) {
        self.entries = self.entries.max(entries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The nodes holding `entry`, in codeword-position order.
    fn nodes_of(p: &Placement, entry: usize) -> Result<Vec<usize>, StoreError> {
        (0..p.codeword_len())
            .map(|position| p.try_node_for(SymbolKey { entry, position }))
            .collect()
    }

    #[test]
    fn colocated_reuses_the_same_nodes() {
        let p = Placement::new(PlacementStrategy::Colocated, 6, 5);
        assert_eq!(p.node_count(), 6);
        assert_eq!(nodes_of(&p, 0), Ok(vec![0, 1, 2, 3, 4, 5]));
        assert_eq!(nodes_of(&p, 4), Ok(vec![0, 1, 2, 3, 4, 5]));
        assert_eq!(p.strategy(), PlacementStrategy::Colocated);
        assert_eq!(p.codeword_len(), 6);
        assert_eq!(p.entries(), 5);
    }

    #[test]
    fn dispersed_uses_disjoint_node_sets() {
        let p = Placement::new(PlacementStrategy::Dispersed, 6, 5);
        assert_eq!(p.node_count(), 30);
        assert_eq!(nodes_of(&p, 0), Ok(vec![0, 1, 2, 3, 4, 5]));
        assert_eq!(nodes_of(&p, 2), Ok(vec![12, 13, 14, 15, 16, 17]));
        // Node sets of different entries never intersect.
        for a in 0..5 {
            for b in (a + 1)..5 {
                let na = nodes_of(&p, a).unwrap();
                let nb = nodes_of(&p, b).unwrap();
                assert!(na.iter().all(|x| !nb.contains(x)));
            }
        }
    }

    #[test]
    fn grow_extends_entry_range() {
        let mut p = Placement::new(PlacementStrategy::Dispersed, 4, 1);
        assert_eq!(p.node_count(), 4);
        p.grow_to(3);
        assert_eq!(p.entries(), 3);
        assert_eq!(p.node_count(), 12);
        // Growing never shrinks.
        p.grow_to(2);
        assert_eq!(p.entries(), 3);
    }

    #[test]
    fn empty_placement_has_no_dispersed_nodes_and_rejects_every_key() {
        // The former `entries.max(1)` quirk reported `n` nodes for an empty
        // dispersed placement while rejecting entry 0; empty now means zero
        // nodes, and growth admits them.
        let mut p = Placement::new(PlacementStrategy::Dispersed, 4, 0);
        assert_eq!(p.node_count(), 0);
        assert!(p
            .try_node_for(SymbolKey {
                entry: 0,
                position: 0,
            })
            .is_err());
        p.grow_to(2);
        assert_eq!(p.node_count(), 8);
        assert_eq!(nodes_of(&p, 1), Ok(vec![4, 5, 6, 7]));
        // Colocated nodes exist independently of entries.
        let colo = Placement::new(PlacementStrategy::Colocated, 4, 0);
        assert_eq!(colo.node_count(), 4);
        assert!(nodes_of(&colo, 0).is_err());
    }

    #[test]
    fn try_addressing_reports_the_offending_key() {
        let p = Placement::new(PlacementStrategy::Dispersed, 6, 2);
        assert_eq!(
            p.try_node_for(SymbolKey {
                entry: 1,
                position: 4,
            }),
            Ok(10)
        );
        let err = p
            .try_node_for(SymbolKey {
                entry: 2,
                position: 0,
            })
            .unwrap_err();
        assert_eq!(
            err,
            StoreError::InvalidSymbol {
                entry: 2,
                position: 0,
                n: 6,
                entries: 2,
            }
        );
        assert!(err.to_string().contains("out of range"));
        assert!(p
            .try_node_for(SymbolKey {
                entry: 0,
                position: 6,
            })
            .is_err());
    }

    #[test]
    fn display_names() {
        assert_eq!(format!("{}", PlacementStrategy::Colocated), "colocated");
        assert_eq!(format!("{}", PlacementStrategy::Dispersed), "dispersed");
    }
}
