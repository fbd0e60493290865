//! CPFPR model for a pair of prefix Bloom filters — Eq. 2–4 of the paper.
//!
//! The arXiv rendering of Eq. 4 subtracts the end-region and middle-region
//! "all-negative" terms; independence of the per-region probes makes the
//! consistent form a product, since the chance that no region's probe fires
//! is the product of each region's chance. With `p1`/`p2` the two
//! filters' point FPRs, `w = l2 - l1`, `q1 = |Q_l1|`:
//!
//! ```text
//! P(no FP) = f_L · f_R · ((1-p1) + p1·(1-p2)^(2^w))^(q1 - 2)
//! f_end    = (1-p2)^|end|                 if the end l1-region holds a key
//!            (1-p1) + p1·(1-p2)^|end|     otherwise
//! ```
//!
//! and the binomial sum over middle-region false positives collapses by the
//! binomial theorem — which also removes the overflow the paper reports for
//! ranges beyond 2^15 (§4.3, Table 2 discussion).

use super::{extract_contexts, BitScan, QueryCtx, COUNT_SATURATION};
use crate::key::get_bit;
use crate::keyset::KeySet;
use crate::sample::SampleQueries;
use proteus_amq::standard_bloom_fpr;

/// A 2PBF design: two prefix lengths and the memory split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoPbfDesign {
    /// Prefix length of the first (coarser) filter, in bits.
    pub l1: usize,
    /// Prefix length of the second (finer) filter, in bits.
    pub l2: usize,
    /// Fraction of memory given to the first (shorter-prefix) filter.
    pub split: f64,
    /// FPR the model predicts for this design.
    pub expected_fpr: f64,
}

/// Options for the 2PBF design search.
#[derive(Debug, Clone)]
pub struct TwoPbfOptions {
    /// Memory splits to evaluate; the paper tests one symmetric and two
    /// asymmetric allocations (§4.3): 40-60, 50-50, 60-40.
    pub splits: Vec<f64>,
    /// Evaluate at most this many l2 values per l1 (0 = all).
    pub max_l2_values: usize,
}

impl Default for TwoPbfOptions {
    fn default() -> Self {
        TwoPbfOptions { splits: vec![0.4, 0.5, 0.6], max_l2_values: 0 }
    }
}

/// Per-query geometry for one (l1, l2) pair, the inputs to Eq. 4.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    /// |Q_l1| (saturating).
    q1: u64,
    /// |L|, |R| at l2 granularity (saturating).
    left: u64,
    right: u64,
    /// |Q_l2| for the single-region case.
    q2: u64,
    single: bool,
    first_occ: bool,
    last_occ: bool,
    guaranteed: bool,
}

/// The 2PBF model: evaluates expected FPR per design directly (the paper
/// notes 2PBF modeling is the expensive case because the first filter's
/// probabilistic outcomes must all be considered; the closed form keeps it
/// to a handful of exponentials per query-design pair).
#[derive(Debug)]
pub struct TwoPbfModel {
    /// Summed P(FP) per (l1 index, l2, split index).
    fp_sums: Vec<f64>,
    l1_values: Vec<usize>,
    l2_values: Vec<usize>,
    splits: Vec<f64>,
    bits: usize,
    n_samples: u64,
}

impl TwoPbfModel {
    /// Run the 2PBF modeling pass (Eq. 4) over every feasible
    /// `(l1, l2, split)` under the memory budget.
    pub fn build(
        keys: &KeySet,
        samples: &SampleQueries,
        m_bits: u64,
        opts: &TwoPbfOptions,
    ) -> Self {
        let bits = keys.bits();
        let l1_values: Vec<usize> = (1..bits).collect();
        let l2_values: Vec<usize> = if opts.max_l2_values == 0 || opts.max_l2_values >= bits {
            (2..=bits).collect()
        } else {
            let n = opts.max_l2_values;
            (1..=n).map(|i| ((i * (bits - 1)).div_ceil(n) + 1).min(bits)).collect()
        };
        let ctxs = extract_contexts(keys, samples);
        let n_samples = samples.len() as u64;
        let n_l2 = l2_values.len();
        let n_s = opts.splits.len();

        // Precompute point FPRs per prefix length and split.
        let p1_table: Vec<Vec<f64>> = opts
            .splits
            .iter()
            .map(|&s| {
                (0..=bits)
                    .map(|l| {
                        standard_bloom_fpr((m_bits as f64 * s) as u64, keys.unique_prefixes(l))
                    })
                    .collect()
            })
            .collect();
        let p2_table: Vec<Vec<f64>> = opts
            .splits
            .iter()
            .map(|&s| {
                (0..=bits)
                    .map(|l| {
                        standard_bloom_fpr(
                            (m_bits as f64 * (1.0 - s)) as u64,
                            keys.unique_prefixes(l),
                        )
                    })
                    .collect()
            })
            .collect();

        // One row of `n_l2 * n_s` sums per l1 candidate, in candidate order.
        let row = n_l2 * n_s;
        let mut fp_sums = vec![0.0f64; l1_values.len() * row];
        for (c, &l1) in l1_values.iter().enumerate() {
            let sums = &mut fp_sums[c * row..(c + 1) * row];
            for (i, (lo, hi)) in samples.iter().enumerate() {
                let ctx = ctxs[i];
                let mut scan = BitScan::seed(lo, hi, l1);
                let q1 = crate::key::prefix_count(lo, hi, l1, COUNT_SATURATION);
                let mut vi = 0usize;
                while vi < n_l2 && l2_values[vi] <= l1 {
                    vi += 1;
                }
                if vi >= n_l2 {
                    continue;
                }
                #[allow(clippy::needless_range_loop)] // l2 indexes two parallel tables
                for l2 in l1 + 1..=bits {
                    scan.step(get_bit(lo, l2 - 1), get_bit(hi, l2 - 1));
                    if l2_values[vi] != l2 {
                        continue;
                    }
                    let g = geometry(ctx, l1, l2, q1, &scan);
                    for (si, _) in opts.splits.iter().enumerate() {
                        let p1 = p1_table[si][l1];
                        let p2 = p2_table[si][l2];
                        sums[(vi * n_s) + si] += fp_probability(&g, p1, p2, l2 - l1);
                    }
                    vi += 1;
                    if vi >= n_l2 {
                        break;
                    }
                }
            }
        }
        TwoPbfModel { fp_sums, l1_values, l2_values, splits: opts.splits.clone(), bits, n_samples }
    }

    /// Expected FPR of design `(l1, l2, split_index)`.
    pub fn expected_fpr(&self, l1: usize, l2: usize, split_idx: usize) -> Option<f64> {
        if self.n_samples == 0 {
            return Some(0.0);
        }
        let ci = self.l1_values.iter().position(|&v| v == l1)?;
        let li = self.l2_values.iter().position(|&v| v == l2)?;
        let idx = (ci * self.l2_values.len() + li) * self.splits.len() + split_idx;
        self.fp_sums.get(idx).map(|&s| s / self.n_samples as f64)
    }

    /// Best design over the whole space (ties to later candidates).
    pub fn best_design(&self) -> TwoPbfDesign {
        let mut best = TwoPbfDesign { l1: 1, l2: 2, split: 0.5, expected_fpr: f64::INFINITY };
        for (ci, &l1) in self.l1_values.iter().enumerate() {
            for (li, &l2) in self.l2_values.iter().enumerate() {
                if l2 <= l1 {
                    continue;
                }
                for (si, &split) in self.splits.iter().enumerate() {
                    let idx = (ci * self.l2_values.len() + li) * self.splits.len() + si;
                    let fpr = self.fp_sums[idx] / self.n_samples.max(1) as f64;
                    if fpr <= best.expected_fpr {
                        best = TwoPbfDesign { l1, l2, split, expected_fpr: fpr };
                    }
                }
            }
        }
        best
    }

    /// Key width in bits.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// The memory splits the model evaluated.
    pub fn splits(&self) -> &[f64] {
        &self.splits
    }
}

fn geometry(ctx: QueryCtx, l1: usize, l2: usize, q1: u64, scan: &BitScan) -> Geometry {
    Geometry {
        q1,
        left: scan.left_count(),
        right: scan.right_count(),
        q2: scan.regions(),
        single: ctx.single_region(l1),
        first_occ: ctx.first_occupied(l1),
        last_occ: ctx.last_occupied(l1),
        guaranteed: ctx.lcp_total() >= l2,
    }
}

/// Eq. 4 in product form: the probability this empty query produces a false
/// positive.
fn fp_probability(g: &Geometry, p1: f64, p2: f64, w: usize) -> f64 {
    if g.guaranteed {
        return 1.0;
    }
    let log1mp2 = if p2 >= 1.0 { f64::NEG_INFINITY } else { (1.0 - p2).ln() };
    // (1-p2)^n with saturating n.
    let pow2 = |n: u64| -> f64 {
        if n == 0 {
            1.0
        } else if log1mp2 == f64::NEG_INFINITY {
            0.0
        } else {
            (n as f64 * log1mp2).exp()
        }
    };
    if g.single {
        // One l1-region; occupied iff the query survived the guaranteed
        // check while lcp(Q,K) >= l1.
        let clear2 = pow2(g.q2);
        let no_fp = if g.first_occ || g.last_occ { clear2 } else { (1.0 - p1) + p1 * clear2 };
        return 1.0 - no_fp;
    }
    let f_left = if g.first_occ { pow2(g.left) } else { (1.0 - p1) + p1 * pow2(g.left) };
    let f_right = if g.last_occ { pow2(g.right) } else { (1.0 - p1) + p1 * pow2(g.right) };
    let region = if w >= 63 { COUNT_SATURATION } else { 1u64 << w };
    let g_mid = (1.0 - p1) + p1 * pow2(region);
    let n_mid = g.q1.saturating_sub(2);
    let mids = if n_mid == 0 {
        1.0
    } else if g_mid <= 0.0 {
        0.0
    } else {
        (n_mid as f64 * g_mid.ln()).exp()
    };
    (1.0 - f_left * f_right * mids).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(n_keys: usize, n_q: usize, rmax: u64) -> (KeySet, SampleQueries) {
        let (_, ks, q) = crate::testutil::uniform_setup(n_keys, n_q, rmax, 42);
        (ks, q)
    }

    #[test]
    fn fp_probability_degenerate_cases() {
        let g = Geometry {
            q1: 5,
            left: 3,
            right: 2,
            q2: 100,
            single: false,
            first_occ: false,
            last_occ: false,
            guaranteed: true,
        };
        assert_eq!(fp_probability(&g, 0.01, 0.01, 10), 1.0);

        // Perfect filters (p = 0) and unoccupied ends: no false positives.
        let g = Geometry { guaranteed: false, ..g };
        assert_eq!(fp_probability(&g, 0.0, 0.0, 10), 0.0);

        // Occupied end with p2 = 1: certain false positive.
        let g = Geometry { first_occ: true, ..g };
        assert!((fp_probability(&g, 0.0, 1.0, 10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fp_probability_monotone_in_p() {
        let g = Geometry {
            q1: 10,
            left: 4,
            right: 7,
            q2: 1000,
            single: false,
            first_occ: true,
            last_occ: false,
            guaranteed: false,
        };
        let mut last = 0.0;
        for i in 1..20 {
            let p = i as f64 * 0.05;
            let fp = fp_probability(&g, p, p, 8);
            assert!(fp >= last - 1e-12, "monotone in p: {fp} < {last}");
            last = fp;
        }
    }

    #[test]
    fn single_region_uses_q2() {
        // Narrow query, occupied region: FP prob = 1 - (1-p2)^q2 regardless
        // of p1.
        let g = Geometry {
            q1: 1,
            left: 9,
            right: 9,
            q2: 9,
            single: true,
            first_occ: true,
            last_occ: true,
            guaranteed: false,
        };
        let fp_a = fp_probability(&g, 0.9, 0.1, 8);
        let fp_b = fp_probability(&g, 0.0, 0.1, 8);
        assert!((fp_a - fp_b).abs() < 1e-12);
        assert!((fp_a - (1.0 - 0.9f64.powi(9))).abs() < 1e-9);
    }

    #[test]
    fn model_builds_and_selects() {
        let (keys, samples) = setup(2000, 300, 1 << 12);
        let m = 2000u64 * 12;
        let opts = TwoPbfOptions { max_l2_values: 16, ..Default::default() };
        let model = TwoPbfModel::build(&keys, &samples, m, &opts);
        let design = model.best_design();
        assert!(design.l1 < design.l2);
        assert!(design.expected_fpr.is_finite());
        assert!((0.0..=1.0).contains(&design.expected_fpr));
        // The chosen design must beat (or match) a deliberately bad one
        // (both prefixes at maximum length).
        let bad = model.expected_fpr(63, 64, 1).unwrap();
        assert!(design.expected_fpr <= bad + 1e-12);
    }
}
