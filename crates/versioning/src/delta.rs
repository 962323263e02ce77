//! Symbol-level deltas between consecutive versions: `z_{j+1} = x_{j+1} − x_j`
//! and their sparsity level `γ` (Definition 1 of the paper). Test-only, like
//! the oracle in [`crate::symbol_archive`] that stores them; the byte path
//! forms its deltas blockwise inside `ArchiveLedger::append`.

use sec_gf::{bulk, GaloisField};

use crate::error::VersioningError;

/// The difference between two consecutive versions of a `k`-symbol object.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Delta<F> {
    data: Vec<F>,
    sparsity: usize,
}

impl<F: GaloisField> Delta<F> {
    /// Computes the delta `new − old`.
    ///
    /// # Errors
    ///
    /// Returns [`VersioningError::ObjectLengthMismatch`] when the versions
    /// have different lengths.
    pub fn between(old: &[F], new: &[F]) -> Result<Self, VersioningError> {
        if old.len() != new.len() {
            return Err(VersioningError::ObjectLengthMismatch {
                expected: old.len(),
                actual: new.len(),
            });
        }
        let data = bulk::diff(new, old);
        let sparsity = bulk::weight(&data);
        Ok(Self { data, sparsity })
    }

    /// Wraps an existing delta vector, computing its sparsity.
    pub fn from_vec(data: Vec<F>) -> Self {
        let sparsity = bulk::weight(&data);
        Self { data, sparsity }
    }

    /// The raw delta symbols.
    pub fn data(&self) -> &[F] {
        &self.data
    }

    /// Consumes the delta and returns the underlying vector.
    pub fn into_vec(self) -> Vec<F> {
        self.data
    }

    /// The sparsity level `γ` — number of non-zero entries.
    pub fn sparsity(&self) -> usize {
        self.sparsity
    }

    /// Object dimension `k`.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the two versions were identical.
    pub fn is_empty(&self) -> bool {
        self.sparsity == 0
    }

    /// `true` when this delta's sparsity is exploitable by SEC for dimension
    /// `k`, i.e. `γ < k/2` so reading `2γ` symbols beats reading `k`
    /// (paper, §III).
    pub fn is_exploitable(&self) -> bool {
        2 * self.sparsity < self.data.len()
    }

    /// Indices of the modified positions.
    pub fn support(&self) -> Vec<usize> {
        self.data
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_zero())
            .map(|(i, _)| i)
            .collect()
    }

    /// Applies the delta to `base`, producing the newer version.
    ///
    /// # Errors
    ///
    /// Returns [`VersioningError::ObjectLengthMismatch`] when the lengths
    /// differ.
    pub fn apply(&self, base: &[F]) -> Result<Vec<F>, VersioningError> {
        if base.len() != self.data.len() {
            return Err(VersioningError::ObjectLengthMismatch {
                expected: self.data.len(),
                actual: base.len(),
            });
        }
        let mut out = base.to_vec();
        bulk::add_assign(&mut out, &self.data);
        Ok(out)
    }

    /// Applies the delta in reverse: given the newer version, recover the
    /// older one. (In characteristic two this is the same operation as
    /// [`Delta::apply`], exposed separately for call-site clarity, e.g. in
    /// Reversed SEC retrieval which walks backwards from the latest version.)
    ///
    /// # Errors
    ///
    /// Returns [`VersioningError::ObjectLengthMismatch`] when the lengths
    /// differ.
    pub fn unapply(&self, newer: &[F]) -> Result<Vec<F>, VersioningError> {
        self.apply(newer)
    }
}

/// Computes the sparsity levels of an entire version sequence:
/// `γ_{j+1} = weight(x_{j+1} − x_j)` for `j = 1, …, L-1`.
///
/// # Errors
///
/// Returns [`VersioningError::ObjectLengthMismatch`] if the versions do not
/// all have the same length.
pub fn sparsity_profile<F: GaloisField>(versions: &[Vec<F>]) -> Result<Vec<usize>, VersioningError> {
    let mut profile = Vec::with_capacity(versions.len().saturating_sub(1));
    for pair in versions.windows(2) {
        profile.push(Delta::between(&pair[0], &pair[1])?.sparsity());
    }
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sec_gf::Gf256;

    fn obj(vals: &[u64]) -> Vec<Gf256> {
        vals.iter().map(|&v| Gf256::from_u64(v)).collect()
    }

    #[test]
    fn delta_between_and_apply_round_trip() {
        let old = obj(&[1, 2, 3, 4, 5]);
        let new = obj(&[1, 9, 3, 4, 7]);
        let d = Delta::between(&old, &new).unwrap();
        assert_eq!(d.sparsity(), 2);
        assert_eq!(d.len(), 5);
        assert!(!d.is_empty());
        assert_eq!(d.support(), vec![1, 4]);
        assert_eq!(d.apply(&old).unwrap(), new);
        assert_eq!(d.unapply(&new).unwrap(), old);
    }

    #[test]
    fn identical_versions_give_empty_delta() {
        let x = obj(&[7, 7, 7]);
        let d = Delta::between(&x, &x).unwrap();
        assert!(d.is_empty());
        assert_eq!(d.sparsity(), 0);
        assert!(d.support().is_empty());
        assert!(d.is_exploitable());
        assert_eq!(d.apply(&x).unwrap(), x);
    }

    #[test]
    fn exploitability_threshold_matches_definition() {
        // k = 5: γ = 2 exploitable (2·2 < 5), γ = 3 not.
        let base = obj(&[0, 0, 0, 0, 0]);
        let two = obj(&[1, 1, 0, 0, 0]);
        let three = obj(&[1, 1, 1, 0, 0]);
        assert!(Delta::between(&base, &two).unwrap().is_exploitable());
        assert!(!Delta::between(&base, &three).unwrap().is_exploitable());
        // k = 4: γ = 2 is not exploitable (2·2 = 4).
        let base4 = obj(&[0, 0, 0, 0]);
        let two4 = obj(&[1, 1, 0, 0]);
        assert!(!Delta::between(&base4, &two4).unwrap().is_exploitable());
    }

    #[test]
    fn mismatched_lengths_error() {
        let a = obj(&[1, 2]);
        let b = obj(&[1, 2, 3]);
        assert!(matches!(
            Delta::between(&a, &b),
            Err(VersioningError::ObjectLengthMismatch { .. })
        ));
        let d = Delta::between(&a, &obj(&[5, 6])).unwrap();
        assert!(matches!(
            d.apply(&b),
            Err(VersioningError::ObjectLengthMismatch { .. })
        ));
    }

    #[test]
    fn from_vec_and_into_vec() {
        let d = Delta::from_vec(obj(&[0, 5, 0]));
        assert_eq!(d.sparsity(), 1);
        assert_eq!(d.data(), obj(&[0, 5, 0]).as_slice());
        assert_eq!(d.into_vec(), obj(&[0, 5, 0]));
    }

    #[test]
    fn sparsity_profile_of_sequence() {
        // Reproduces the §III-D example profile {3, 8, 3, 6} on k = 10.
        let mut versions = vec![obj(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10])];
        let edits: [&[usize]; 4] = [
            &[0, 1, 2],
            &[0, 1, 2, 3, 4, 5, 6, 7],
            &[3, 4, 5],
            &[0, 2, 4, 6, 8, 9],
        ];
        for positions in edits {
            let mut next = versions.last().unwrap().clone();
            for &p in positions {
                next[p] += Gf256::from_u64(0x5A);
            }
            versions.push(next);
        }
        assert_eq!(sparsity_profile(&versions).unwrap(), vec![3, 8, 3, 6]);
        // Single version → empty profile.
        assert_eq!(sparsity_profile(&versions[..1]).unwrap(), Vec::<usize>::new());
        // Ragged versions → error.
        let ragged = vec![obj(&[1, 2]), obj(&[1, 2, 3])];
        assert!(sparsity_profile(&ragged).is_err());
    }
}
