//! Sample query handling and the paper's Chernoff-bound sample sizing
//! (§4.3 "Sample Size", Table 1).
//!
//! Proteus configures itself from a set of *empty* sample range queries.
//! [`SampleQueries`] stores them canonically and can certify emptiness
//! against a [`KeySet`]. The bound helpers reproduce Table 1:
//! `Pr(p ∈ [p̂-δ, p̂+δ]) ≥ 1 - min(2e^(-2Nδ²), e^(-Nδ²/(2p)) + e^(-Nδ²/(3p)))`.

use crate::key::u64_key;
use crate::keyset::KeySet;

/// A set of closed-interval sample queries in canonical key form.
#[derive(Debug, Clone, Default)]
pub struct SampleQueries {
    lo: Vec<u8>,
    hi: Vec<u8>,
    width: usize,
    n: usize,
}

impl SampleQueries {
    /// An empty sample for `width`-byte canonical keys.
    pub fn new(width: usize) -> Self {
        SampleQueries { lo: Vec::new(), hi: Vec::new(), width, n: 0 }
    }

    /// Build from canonical byte bounds.
    pub fn from_bounds(bounds: &[(Vec<u8>, Vec<u8>)], width: usize) -> Self {
        let mut s = Self::new(width);
        for (lo, hi) in bounds {
            s.push(lo, hi);
        }
        s
    }

    /// Build from `u64` closed ranges.
    pub fn from_u64(ranges: &[(u64, u64)]) -> Self {
        let mut s = Self::new(8);
        for &(lo, hi) in ranges {
            s.push(&u64_key(lo), &u64_key(hi));
        }
        s
    }

    /// Append one closed-range query (bounds must be canonical and
    /// ordered).
    pub fn push(&mut self, lo: &[u8], hi: &[u8]) {
        assert_eq!(lo.len(), self.width);
        assert_eq!(hi.len(), self.width);
        assert!(lo <= hi, "query bounds out of order");
        self.lo.extend_from_slice(lo);
        self.hi.extend_from_slice(hi);
        self.n += 1;
    }

    /// Number of sample queries.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for an empty sample.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Canonical key width in bytes.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Lower bound of the `i`-th query.
    pub fn lo(&self, i: usize) -> &[u8] {
        &self.lo[i * self.width..(i + 1) * self.width]
    }

    /// Upper bound of the `i`-th query.
    pub fn hi(&self, i: usize) -> &[u8] {
        &self.hi[i * self.width..(i + 1) * self.width]
    }

    /// Iterate the queries as `(lo, hi)` slices.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], &[u8])> + '_ {
        (0..self.n).map(|i| (self.lo(i), self.hi(i)))
    }

    /// Drop every sample that intersects the key set, keeping only genuine
    /// empty queries (the model's input contract). Returns the number
    /// removed.
    pub fn retain_empty(&mut self, keys: &KeySet) -> usize {
        let mut new_lo = Vec::with_capacity(self.lo.len());
        let mut new_hi = Vec::with_capacity(self.hi.len());
        let mut kept = 0usize;
        for i in 0..self.n {
            if !keys.range_overlaps(self.lo(i), self.hi(i)) {
                new_lo.extend_from_slice(self.lo(i));
                new_hi.extend_from_slice(self.hi(i));
                kept += 1;
            }
        }
        let removed = self.n - kept;
        self.lo = new_lo;
        self.hi = new_hi;
        self.n = kept;
        removed
    }
}

/// The additive two-term Chernoff tail `e^(-Nδ²/(2p)) + e^(-Nδ²/(3p))`
/// maximized over `p ≤ p_max` (the paper evaluates at `p = 0.1`); this is
/// the right-hand side of Table 1.
pub fn chernoff_tail(n_delta_sq: f64, p_max: f64) -> f64 {
    // Both terms increase with p, so the bound is attained at p = p_max.
    (-n_delta_sq / (2.0 * p_max)).exp() + (-n_delta_sq / (3.0 * p_max)).exp()
}

/// Probability that the estimated FPR deviates from the truth by more than
/// δ, for `n` samples and true FPR at most `p_max`:
/// `min(2e^(-2Nδ²), chernoff_tail)`.
pub fn fpr_estimate_error_bound(n: usize, delta: f64, p_max: f64) -> f64 {
    let nd2 = n as f64 * delta * delta;
    (2.0 * (-2.0 * nd2).exp()).min(chernoff_tail(nd2, p_max))
}

/// Smallest sample size guaranteeing `Pr(|p̂ - p| > δ) ≤ err` for FPRs up
/// to `p_max` — how a user should size the sample queue.
pub fn required_sample_size(delta: f64, p_max: f64, err: f64) -> usize {
    let mut n = 1usize;
    while fpr_estimate_error_bound(n, delta, p_max) > err {
        n *= 2;
        if n > 1 << 40 {
            return n;
        }
    }
    // Binary search the exact threshold inside (n/2, n].
    let (mut lo, mut hi) = (n / 2, n);
    while lo + 1 < hi {
        let mid = (lo + hi) / 2;
        if fpr_estimate_error_bound(mid, delta, p_max) > err {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        // Table 1 of the paper: bounds for Nδ² ∈ {1,...,5}, p ≤ 0.1. Rows
        // 2-5 match e^(-Nδ²/(2p)) + e^(-Nδ²/(3p)) at p = 0.1 exactly; the
        // printed row 1 (0.00425) computes to 0.0425 — the paper appears to
        // have dropped a factor of ten there, so we assert the formula's
        // value.
        let expected =
            [(1.0, 0.0425), (2.0, 0.00132), (3.0, 0.00005), (4.0, 0.000002), (5.0, 0.0000001)];
        for (nd2, bound) in expected {
            let got = chernoff_tail(nd2, 0.1);
            // Table 1 rounds up; we must be at or below each printed bound
            // and within rounding distance of it.
            assert!(got <= bound * 1.01, "Nδ²={nd2}: {got} > {bound}");
            assert!(got > bound * 0.3, "Nδ²={nd2}: {got} ≪ {bound}");
        }
    }

    #[test]
    fn paper_sample_size_examples() {
        // §4.3: 10,000 queries at δ = 0.01 give Nδ² = 1;
        //        50,000 queries at δ = 0.01 give Nδ² = 5 -> error ≤ 1e-7.
        assert!(fpr_estimate_error_bound(10_000, 0.01, 0.1) <= 0.0425 * 1.01);
        assert!(fpr_estimate_error_bound(50_000, 0.01, 0.1) <= 0.0000001 * 1.01);
    }

    #[test]
    fn required_sample_size_is_consistent() {
        let n = required_sample_size(0.01, 0.1, 0.0425);
        assert!(n <= 10_000, "paper's 10K example should satisfy the bound, got {n}");
        assert!(fpr_estimate_error_bound(n, 0.01, 0.1) <= 0.0425);
        if n > 1 {
            assert!(fpr_estimate_error_bound(n - 1, 0.01, 0.1) > 0.0425);
        }
    }

    #[test]
    fn retain_empty_filters_overlapping_samples() {
        let keys = KeySet::from_u64(&[100, 200, 300]);
        let mut s = SampleQueries::from_u64(&[
            (10, 20),   // empty
            (150, 180), // empty
            (190, 210), // overlaps 200
            (300, 400), // overlaps 300
            (301, 400), // empty
        ]);
        let removed = s.retain_empty(&keys);
        assert_eq!(removed, 2);
        assert_eq!(s.len(), 3);
        let got: Vec<(u64, u64)> =
            s.iter().map(|(l, h)| (crate::key::key_u64(l), crate::key::key_u64(h))).collect();
        assert_eq!(got, vec![(10, 20), (150, 180), (301, 400)]);
    }

    #[test]
    fn bounds_accessors() {
        let s = SampleQueries::from_u64(&[(1, 5), (7, 7)]);
        assert_eq!(s.len(), 2);
        assert_eq!(crate::key::key_u64(s.lo(1)), 7);
        assert_eq!(crate::key::key_u64(s.hi(0)), 5);
        assert_eq!(s.width(), 8);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn rejects_inverted_bounds() {
        let mut s = SampleQueries::new(8);
        s.push(&u64_key(10), &u64_key(5));
    }
}
