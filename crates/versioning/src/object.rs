//! Version numbering of the fixed-size object model.
//!
//! The paper assumes "application level objects are split and transformed into
//! fixed sized objects (arguably with necessary zero padding)"; a byte archive
//! fixes its object length at the first append and zero-pads the last of its
//! `k` blocks (`ByteShards::from_flat`), so all that is left to model here is
//! the paper's 1-based version index.

/// A 1-based version number, matching the paper's `x_1, x_2, …` indexing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VersionId(pub usize);

impl VersionId {
    /// The first version.
    pub const FIRST: VersionId = VersionId(1);

    /// The next version number.
    pub fn next(self) -> VersionId {
        VersionId(self.0 + 1)
    }

    /// Zero-based index into storage vectors.
    pub fn index(self) -> usize {
        self.0 - 1
    }
}

impl core::fmt::Display for VersionId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_id_arithmetic() {
        let v = VersionId::FIRST;
        assert_eq!(v.0, 1);
        assert_eq!(v.index(), 0);
        assert_eq!(v.next(), VersionId(2));
        assert_eq!(format!("{}", VersionId(7)), "v7");
    }
}
