//! Small combinatorial helpers shared by the criterion checks, the exhaustive
//! failure-pattern analysis and the resilience formulas.

/// Iterator over all `r`-element subsets of `0..n`, each yielded as a sorted
/// vector, in lexicographic order.
///
/// # Example
///
/// ```rust
/// use sec_linalg::combinatorics::Combinations;
///
/// let subsets: Vec<Vec<usize>> = Combinations::new(4, 2).collect();
/// assert_eq!(subsets.len(), 6);
/// assert_eq!(subsets[0], vec![0, 1]);
/// assert_eq!(subsets[5], vec![2, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct Combinations {
    n: usize,
    r: usize,
    current: Vec<usize>,
    started: bool,
    done: bool,
}

impl Combinations {
    /// Creates the iterator over `r`-subsets of `0..n`.
    ///
    /// When `r > n` the iterator is immediately empty; when `r == 0` it yields
    /// exactly one empty subset.
    pub fn new(n: usize, r: usize) -> Self {
        Self {
            n,
            r,
            current: (0..r).collect(),
            started: false,
            done: r > n,
        }
    }

    /// Steps to the next subset and lends it, without allocating — the form
    /// for hot loops that only inspect each subset ([`Iterator::next`] is
    /// this plus a copy).
    pub fn advance(&mut self) -> Option<&[usize]> {
        if self.done {
            return None;
        }
        if !self.started {
            self.started = true;
            return Some(&self.current);
        }
        let (n, r) = (self.n, self.r);
        let mut i = r;
        while i > 0 && self.current[i - 1] == i - 1 + n - r {
            i -= 1;
        }
        if i == 0 {
            self.done = true;
            return None;
        }
        self.current[i - 1] += 1;
        for j in i..r {
            self.current[j] = self.current[j - 1] + 1;
        }
        Some(&self.current)
    }
}

impl Iterator for Combinations {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        self.advance().map(<[usize]>::to_vec)
    }
}

/// All `r`-element subsets of `0..n`, collected into a vector.
pub fn combinations(n: usize, r: usize) -> Vec<Vec<usize>> {
    Combinations::new(n, r).collect()
}

/// The binomial coefficient `C(n, r)` as an `f64` (used by the closed-form
/// resilience expressions, eqs. 6–9 and 17–20 of the paper).
pub fn binomial(n: u64, r: u64) -> f64 {
    if r > n {
        return 0.0;
    }
    let r = r.min(n - r);
    let mut acc = 1.0f64;
    for i in 0..r {
        acc = acc * (n - i) as f64 / (i + 1) as f64;
    }
    acc.round()
}

/// The exact binomial coefficient `C(n, r)` as a `u128`.
///
/// # Panics
///
/// Panics on intermediate overflow, which cannot happen for the `n ≤ 64`
/// storage-system sizes this crate targets.
pub fn binomial_exact(n: u64, r: u64) -> u128 {
    if r > n {
        return 0;
    }
    let r = r.min(n - r);
    let mut acc: u128 = 1;
    for i in 0..r {
        acc = acc
            .checked_mul((n - i) as u128)
            .expect("binomial coefficient overflow");
        acc /= (i + 1) as u128;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combinations_counts_match_binomial() {
        for n in 0..8usize {
            for r in 0..=n {
                let combos = combinations(n, r);
                assert_eq!(combos.len() as u128, binomial_exact(n as u64, r as u64));
                // Each subset is sorted and within range, and all are distinct.
                let mut seen = std::collections::HashSet::new();
                for c in &combos {
                    assert!(c.windows(2).all(|w| w[0] < w[1]));
                    assert!(c.iter().all(|&x| x < n));
                    assert!(seen.insert(c.clone()));
                }
            }
        }
    }

    #[test]
    fn combinations_edge_cases() {
        assert_eq!(combinations(5, 0), vec![Vec::<usize>::new()]);
        assert_eq!(combinations(0, 0), vec![Vec::<usize>::new()]);
        assert!(combinations(3, 4).is_empty());
        assert_eq!(combinations(3, 3), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn lexicographic_order() {
        let combos = combinations(5, 3);
        for w in combos.windows(2) {
            assert!(w[0] < w[1], "{:?} should precede {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn binomial_known_values() {
        assert_eq!(binomial(6, 0), 1.0);
        assert_eq!(binomial(6, 4), 15.0);
        assert_eq!(binomial(6, 5), 6.0);
        assert_eq!(binomial(6, 6), 1.0);
        assert_eq!(binomial(6, 7), 0.0);
        assert_eq!(binomial(20, 10), 184756.0);
        assert_eq!(binomial_exact(63, 31), 916312070471295267);
        assert_eq!(binomial_exact(10, 3), 120);
    }

    #[test]
    fn binomial_matches_exact_for_small_inputs() {
        for n in 0..30u64 {
            for r in 0..=n {
                assert_eq!(binomial(n, r), binomial_exact(n, r) as f64, "C({n},{r})");
            }
        }
    }
}
