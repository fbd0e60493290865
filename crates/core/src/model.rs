//! The Contextual Prefix FPR (CPFPR) model — §3 and §4.3 of the paper.
//!
//! The model predicts, for every candidate design of a prefix-based range
//! filter, the expected false positive rate over a sample of empty queries.
//! Everything reduces to three per-query quantities relative to the key set
//! (computed once, in [`QueryCtx`]):
//!
//! * `a = lcp(pred, lo)` — proximity of the query's lower bound to the
//!   closest key below it;
//! * `b = lcp(succ, hi)` — proximity of the upper bound to the closest key
//!   above it;
//! * `c = lcp(lo, hi)` — how wide the query itself is.
//!
//! From these: `lcp(Q, K) = max(a, b)`; the first `l`-region of Q contains a
//! key iff `max(a, min(b, c)) ≥ l`; the last iff `max(b, min(a, c)) ≥ l`.
//!
//! Per-design FPR evaluation batches queries into exponentially sized bins
//! of Bloom-probe counts (§4.3 "Calculate Configuration FPRs"), so each
//! design costs at most `k` batched evaluations regardless of sample size.
//!
//! [`proteus::ProteusModel`] covers Proteus (Eq. 5 / Algorithm 1) and, as
//! its trie-depth-0 slice, 1PBF (Eq. 1); [`two_pbf::TwoPbfModel`] is the
//! closed form of Eq. 4.

pub mod proteus;
pub mod two_pbf;

use crate::keyset::KeySet;
use crate::sample::SampleQueries;

/// Saturation point for all region counts in the model. Counts beyond this
/// make the no-false-positive probability indistinguishable from zero, so
/// exact values past it are irrelevant.
pub const COUNT_SATURATION: u64 = 1 << 40;

/// Per-query context extracted once from the key set (§4.3 "Count Query
/// Prefixes"). All fields are LCP lengths in bits.
#[derive(Debug, Clone, Copy)]
pub struct QueryCtx {
    /// lcp(predecessor key, lo).
    pub a: u16,
    /// lcp(successor key, hi).
    pub b: u16,
    /// lcp(lo, hi).
    pub c: u16,
}

impl QueryCtx {
    /// lcp(Q, K): the deepest granularity at which the query is
    /// indistinguishable from the key set.
    #[inline]
    pub fn lcp_total(self) -> usize {
        self.a.max(self.b) as usize
    }

    /// Is the first `l`-bit region of Q occupied by a key?
    #[inline]
    pub fn first_occupied(self, l: usize) -> bool {
        (self.a.max(self.b.min(self.c)) as usize) >= l
    }

    /// Is the last `l`-bit region of Q occupied by a key?
    #[inline]
    pub fn last_occupied(self, l: usize) -> bool {
        (self.b.max(self.a.min(self.c)) as usize) >= l
    }

    /// Does Q fit inside a single `l`-bit region?
    #[inline]
    pub fn single_region(self, l: usize) -> bool {
        self.c as usize >= l
    }
}

/// Extract contexts for every sample query. The samples must already be
/// empty w.r.t. `keys` (see [`SampleQueries::retain_empty`]).
pub fn extract_contexts(keys: &KeySet, samples: &SampleQueries) -> Vec<QueryCtx> {
    // The paper sorts the left bounds and advances a cursor instead of
    // independent binary searches. Here every query pays its own search,
    // and that is not negligible: for 20 000 queries over 30 841 `u64` keys
    // it is ~3.2 ms of a ~5.6 ms `ProteusModel::build` (2-core x86-64),
    // even with `KeySet::lower_bound` comparing integer key heads.
    samples
        .iter()
        .map(|(lo, hi)| {
            let (a, b) = keys.neighbor_lcps(lo, hi);
            QueryCtx { a: a as u16, b: b as u16, c: crate::key::lcp_bits(lo, hi) as u16 }
        })
        .collect()
}

/// Exponential probe-count bins plus the two degenerate classes
/// (guaranteed false positives and trie-resolved queries).
///
/// Bin `i ≥ 1` holds queries needing a probe count in `[2^(i-1), 2^i)`,
/// together with the sum of counts so the batched evaluation can use the
/// bin average (§4.3).
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeBins {
    counts: Vec<u64>,
    sums: Vec<u64>,
    /// Queries guaranteed to be false positives (lcp(Q,K) ≥ filter
    /// granularity).
    pub guaranteed: u64,
    /// Queries resolved before reaching the Bloom filter (zero probes).
    pub resolved: u64,
}

const BIN_COUNT: usize = 66;

impl Default for ProbeBins {
    fn default() -> Self {
        ProbeBins {
            counts: vec![0; BIN_COUNT],
            sums: vec![0; BIN_COUNT],
            guaranteed: 0,
            resolved: 0,
        }
    }
}

impl ProbeBins {
    /// Record a query needing `n` Bloom probes (`n = 0` means resolved).
    #[inline]
    pub fn add(&mut self, n: u64) {
        if n == 0 {
            self.resolved += 1;
            return;
        }
        let bin = 64 - n.leading_zeros() as usize; // floor(log2 n) + 1
        self.counts[bin] += 1;
        self.sums[bin] = self.sums[bin].saturating_add(n);
    }

    /// Add every query `other` recorded to this one's. Below 2^24 queries
    /// of at most [`COUNT_SATURATION`] probes no sum can saturate, so the
    /// totals do not depend on how queries were split between the two.
    pub(crate) fn absorb(&mut self, other: &ProbeBins) {
        for (n, m) in self.counts.iter_mut().zip(&other.counts) {
            *n += m;
        }
        for (s, t) in self.sums.iter_mut().zip(&other.sums) {
            *s = s.saturating_add(*t);
        }
        self.guaranteed += other.guaranteed;
        self.resolved += other.resolved;
    }

    /// Total queries recorded (including degenerate classes).
    pub fn total(&self) -> u64 {
        self.guaranteed + self.resolved + self.counts.iter().sum::<u64>()
    }

    /// Expected FPR given a per-probe false positive probability `p`:
    /// one batched `1 - (1-p)^avg` per non-empty bin.
    pub fn expected_fpr(&self, p: f64, n_samples: u64) -> f64 {
        if n_samples == 0 {
            return 0.0;
        }
        let mut fp = self.guaranteed as f64;
        if p >= 1.0 {
            fp += self.counts.iter().sum::<u64>() as f64;
        } else if p > 0.0 {
            let log1mp = (1.0 - p).ln();
            for i in 1..BIN_COUNT {
                if self.counts[i] > 0 {
                    let avg = self.sums[i] as f64 / self.counts[i] as f64;
                    fp += self.counts[i] as f64 * (1.0 - (avg * log1mp).exp());
                }
            }
        }
        fp / n_samples as f64
    }
}

/// Incremental per-bit scan state for one query: maintains, as the prefix
/// length grows one bit at a time, the saturating values of
/// `hi_l - lo_l` (region-count numerator), the query offset within an
/// anchor region, and its complement. This turns the per-design geometry of
/// §3.1 into O(1) work per bit.
#[derive(Debug, Clone, Copy)]
pub struct BitScan {
    /// `hi_l - lo_l`, saturating; `|Q_l| = d + 1`.
    pub d: u64,
    /// Bits `[anchor, l)` of `lo` (offset of lo in its anchor region).
    pub off_lo: u64,
    /// `2^(l-anchor) - off_lo` (distance from lo to its region end).
    pub comp_lo: u64,
    /// Bits `[anchor, l)` of `hi`.
    pub off_hi: u64,
}

impl BitScan {
    /// Start a scan anchored at bit `anchor` (the trie depth / l1).
    /// `d` must be seeded with `hi_anchor - lo_anchor`; use
    /// [`BitScan::seed`].
    pub fn seed(lo: &[u8], hi: &[u8], anchor: usize) -> Self {
        let d = crate::key::prefix_count(lo, hi, anchor, COUNT_SATURATION) - 1;
        BitScan { d, off_lo: 0, comp_lo: 1, off_hi: 0 }
    }

    /// Advance past bit `l` (0-indexed): incorporate `lo`'s and `hi`'s bit
    /// `l` into all counters.
    #[inline]
    pub fn step(&mut self, lo_bit: bool, hi_bit: bool) {
        let lo_b = lo_bit as u64;
        let hi_b = hi_bit as u64;
        self.d = (self.d.saturating_mul(2) + hi_b - lo_b).min(COUNT_SATURATION);
        self.off_lo = (self.off_lo.saturating_mul(2) + lo_b).min(COUNT_SATURATION);
        self.comp_lo = (self.comp_lo.saturating_mul(2) - lo_b).min(COUNT_SATURATION);
        self.off_hi = (self.off_hi.saturating_mul(2) + hi_b).min(COUNT_SATURATION);
    }

    /// `|Q_l|` at the current position.
    #[inline]
    pub fn regions(&self) -> u64 {
        (self.d + 1).min(COUNT_SATURATION)
    }

    /// `|L|`: l2-prefixes of Q inside the first anchor region.
    #[inline]
    pub fn left_count(&self) -> u64 {
        self.comp_lo.min(self.regions())
    }

    /// `|R|`: l2-prefixes of Q inside the last anchor region.
    #[inline]
    pub fn right_count(&self) -> u64 {
        (self.off_hi + 1).min(self.regions())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{end_region_counts, get_bit, prefix_count, u64_key};

    #[test]
    fn ctx_occupancy_logic() {
        // Key at lcp 40 below lo, key at lcp 10 above hi, narrow query (c=50).
        let ctx = QueryCtx { a: 40, b: 10, c: 50 };
        assert_eq!(ctx.lcp_total(), 40);
        assert!(ctx.first_occupied(40));
        assert!(!ctx.first_occupied(41));
        // Last region occupied through the pred key when Q is narrow:
        // min(a, c) = 40 >= l for l <= 40.
        assert!(ctx.last_occupied(40));
        assert!(!ctx.last_occupied(41));
        // Wide query: the pred key no longer reaches the last region.
        let wide = QueryCtx { a: 40, b: 10, c: 5 };
        assert!(wide.first_occupied(40));
        assert!(!wide.last_occupied(11));
        assert!(wide.last_occupied(10));
    }

    #[test]
    fn extract_contexts_matches_manual() {
        let keys = KeySet::from_u64(&[1000, 2000]);
        let samples = SampleQueries::from_u64(&[(1200, 1300)]);
        let ctxs = extract_contexts(&keys, &samples);
        assert_eq!(ctxs.len(), 1);
        let ctx = ctxs[0];
        assert_eq!(ctx.a as usize, crate::key::lcp_bits(&u64_key(1000), &u64_key(1200)));
        assert_eq!(ctx.b as usize, crate::key::lcp_bits(&u64_key(2000), &u64_key(1300)));
        assert_eq!(ctx.c as usize, crate::key::lcp_bits(&u64_key(1200), &u64_key(1300)));
    }

    #[test]
    fn bins_batch_correctly() {
        let mut bins = ProbeBins::default();
        bins.add(0); // resolved
        bins.add(1);
        bins.add(3);
        bins.add(3);
        bins.guaranteed += 1;
        assert_eq!(bins.total(), 5);
        // p = 0.5: expected = [1 (guaranteed) + (1-0.5^1) + 2*(1-0.5^3)] / 5.
        let got = bins.expected_fpr(0.5, 5);
        let want = (1.0 + 0.5 + 2.0 * (1.0 - 0.125)) / 5.0;
        assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        // Degenerate p values.
        assert_eq!(bins.expected_fpr(0.0, 5), 1.0 / 5.0);
        assert_eq!(bins.expected_fpr(1.0, 5), 4.0 / 5.0);
    }

    #[test]
    fn bin_boundaries() {
        let mut bins = ProbeBins::default();
        // n = 1 -> bin 1; n in [2,3] -> bin 2; n in [4,7] -> bin 3.
        bins.add(1);
        bins.add(2);
        bins.add(3);
        bins.add(4);
        assert_eq!(bins.counts[1], 1);
        assert_eq!(bins.counts[2], 2);
        assert_eq!(bins.counts[3], 1);
        assert_eq!(bins.sums[2], 5);
    }

    #[test]
    fn bitscan_matches_direct_computation() {
        let pairs = [
            (100u64, 5_000u64),
            (0, u64::MAX),
            (u64::MAX - 3, u64::MAX),
            (0x7FFF_FFFF_FFFF_FF00, 0x8000_0000_0000_00FF),
            (42, 42),
        ];
        for (lo_v, hi_v) in pairs {
            let (lo, hi) = (u64_key(lo_v), u64_key(hi_v));
            for anchor in [0usize, 8, 24, 32] {
                let mut scan = BitScan::seed(&lo, &hi, anchor);
                for l in anchor + 1..=64 {
                    scan.step(get_bit(&lo, l - 1), get_bit(&hi, l - 1));
                    let want_q = prefix_count(&lo, &hi, l, COUNT_SATURATION);
                    assert_eq!(
                        scan.regions(),
                        want_q,
                        "q lo={lo_v:#x} hi={hi_v:#x} a={anchor} l={l}"
                    );
                    if anchor > 0 {
                        let (want_l, want_r) =
                            end_region_counts(&lo, &hi, anchor, l, COUNT_SATURATION);
                        // end_region_counts collapses to |Q_l| when Q fits in
                        // one anchor region; BitScan reports raw L/R, which
                        // also equal |Q_l| in that case.
                        assert_eq!(scan.left_count(), want_l, "L anchor={anchor} l={l}");
                        assert_eq!(scan.right_count(), want_r, "R anchor={anchor} l={l}");
                    }
                }
            }
        }
    }
}
