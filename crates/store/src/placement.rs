//! Redundancy placement strategies (§IV of the paper).
//!
//! * **Colocated** — the coded pieces of every stored object (first version
//!   and all deltas) live on the same set of `n` nodes; node `i` holds
//!   position `i` of every codeword. The paper shows this placement maximizes
//!   whole-archive resilience.
//! * **Dispersed** — each stored object gets its own disjoint set of `n`
//!   nodes, for `n·L` nodes in total.
//!
//! Either way nodes come in *slabs* of `n`, node `i` holding position `i`;
//! [`PlacementStrategy::slab_slot`] says which slab and slot hold an entry.

use crate::store::StoreError;

/// Which placement strategy an engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementStrategy {
    /// All entries share one set of `n` nodes.
    Colocated,
    /// Every entry gets its own disjoint set of `n` nodes.
    Dispersed,
}

impl PlacementStrategy {
    /// Where `entry`'s blocks live: the index of the slab of `n` nodes that
    /// holds them, and the slot each of those nodes keeps its block in.
    /// Colocated entries share slab 0, one slot each; a dispersed entry has
    /// a slab of its own and fills slot 0 of every node in it.
    pub fn slab_slot(self, entry: usize) -> (usize, usize) {
        match self {
            PlacementStrategy::Colocated => (0, entry),
            PlacementStrategy::Dispersed => (entry, 0),
        }
    }
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
/// Node `s·n + i` is position `i` of slab `s`. A placement for more entries
/// never renames a node an existing entry's block lives on; it only adds
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

    /// Total number of distinct nodes required. An empty dispersed placement
    /// needs zero nodes (consistently with [`Placement::try_node_for`], which
    /// rejects every key of an empty placement); a colocated placement always
    /// needs exactly `n`.
    pub fn node_count(&self) -> usize {
        match self.strategy {
            PlacementStrategy::Colocated => self.n,
            PlacementStrategy::Dispersed => self.n * self.entries,
        }
    }

    /// The node that stores block `position` of stored entry `entry`, or
    /// [`StoreError::InvalidSymbol`] when the pair lies outside the
    /// placement's geometry.
    pub fn try_node_for(&self, entry: usize, position: usize) -> Result<usize, StoreError> {
        if position >= self.n || entry >= self.entries {
            return Err(StoreError::InvalidSymbol {
                entry,
                position,
                n: self.n,
                entries: self.entries,
            });
        }
        let (slab, _) = self.strategy.slab_slot(entry);
        Ok(slab * self.n + position)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The nodes holding `entry`, in codeword-position order.
    fn nodes_of(p: &Placement, entry: usize) -> Result<Vec<usize>, StoreError> {
        (0..p.codeword_len())
            .map(|position| p.try_node_for(entry, position))
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
        assert_eq!(PlacementStrategy::Colocated.slab_slot(4), (0, 4));
    }

    #[test]
    fn dispersed_uses_disjoint_node_sets() {
        let p = Placement::new(PlacementStrategy::Dispersed, 6, 5);
        assert_eq!(p.node_count(), 30);
        assert_eq!(nodes_of(&p, 0), Ok(vec![0, 1, 2, 3, 4, 5]));
        assert_eq!(nodes_of(&p, 2), Ok(vec![12, 13, 14, 15, 16, 17]));
        assert_eq!(PlacementStrategy::Dispersed.slab_slot(2), (2, 0));
        // Node sets of different entries never intersect.
        let mut all: Vec<usize> = (0..5).flat_map(|e| nodes_of(&p, e).unwrap()).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 30);
    }

    /// An engine's placement is rebuilt from its entry count as it grows: a
    /// placement over more entries keeps every earlier assignment.
    #[test]
    fn grow_extends_entry_range() {
        for strategy in [PlacementStrategy::Colocated, PlacementStrategy::Dispersed] {
            let small = Placement::new(strategy, 4, 1);
            let grown = Placement::new(strategy, 4, 3);
            assert_eq!(nodes_of(&small, 0), nodes_of(&grown, 0), "{strategy}");
            assert!(nodes_of(&small, 2).is_err());
            assert!(nodes_of(&grown, 2).is_ok());
        }
        assert_eq!(Placement::new(PlacementStrategy::Dispersed, 4, 1).node_count(), 4);
        assert_eq!(
            Placement::new(PlacementStrategy::Dispersed, 4, 3).node_count(),
            12
        );
    }

    #[test]
    fn empty_placement_has_no_dispersed_nodes_and_rejects_every_key() {
        let p = Placement::new(PlacementStrategy::Dispersed, 4, 0);
        assert_eq!(p.node_count(), 0);
        assert!(p.try_node_for(0, 0).is_err());
        // Colocated nodes exist independently of entries.
        let colo = Placement::new(PlacementStrategy::Colocated, 4, 0);
        assert_eq!(colo.node_count(), 4);
        assert!(nodes_of(&colo, 0).is_err());
    }

    #[test]
    fn try_addressing_reports_the_offending_key() {
        let p = Placement::new(PlacementStrategy::Dispersed, 6, 2);
        assert_eq!(p.try_node_for(1, 4), Ok(10));
        let err = p.try_node_for(2, 0).unwrap_err();
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
        assert!(p.try_node_for(0, 6).is_err());
    }

    #[test]
    fn display_names() {
        assert_eq!(format!("{}", PlacementStrategy::Colocated), "colocated");
        assert_eq!(format!("{}", PlacementStrategy::Dispersed), "dispersed");
    }
}
