//! CPFPR model for Proteus (coarse stage + prefix Bloom filter) — Eq. 5 and
//! Algorithm 1 of the paper.
//!
//! For coarse depth `l1` — any bit depth: the model's geometry is per bit,
//! and the stage is priced in its cheaper encoding
//! ([`ProteusTrie::cheapest`]) — and Bloom prefix length `l2` (`l1 < l2`):
//!
//! ```text
//! P_fp(Q) = 0                         if lcp(Q,K) < l1      (trie resolves)
//!           1 - (1-p)^(I2|L| + I3|R|) if l1 ≤ lcp(Q,K) < l2 (ends reach BF)
//!           1                         if l2 ≤ lcp(Q,K)      (indistinguishable)
//! ```
//!
//! where I2/I3 indicate whether the first/last `l1`-region of Q is occupied
//! by a key, and |L|, |R| are the `l2`-prefix counts inside those regions.
//! When Q fits inside a single occupied `l1`-region the probe count is
//! |Q_l2| (the region is shared, not doubled).
//!
//! Eq. 1 — the 1PBF model — is this model at `l1 = 0`: no query is
//! resolved, every query is "single occupied region", so the probe count is
//! |Q_l2| and the Bloom filter owns the whole budget.
//! [`ProteusModel::bloom_only`] accumulates just that slice.

use super::{extract_contexts, BitScan, ProbeBins, QueryCtx, COUNT_SATURATION};
use crate::key::{get_bit, key_head};
use crate::keyset::KeySet;
use crate::sample::SampleQueries;
use crate::trie::ProteusTrie;
use proteus_amq::standard_bloom_fpr;

/// A Proteus design point: coarse-stage depth and Bloom prefix length, in
/// bits. `l2 == 0` means "no Bloom filter" (trie-only); `l1 == 0` means "no
/// coarse stage" (pure prefix Bloom filter).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProteusDesign {
    /// Coarse-stage depth `l1` in bits (0 = no coarse stage).
    pub trie_depth_bits: usize,
    /// Bloom prefix length `l2` in bits (0 = no Bloom filter).
    pub bloom_prefix_len: usize,
    /// FPR the CPFPR model predicts for this design.
    pub expected_fpr: f64,
    /// Coarse-stage memory the model budgeted at this design (bits): the
    /// stage's size in its cheaper encoding.
    pub trie_mem_bits: u64,
}

impl ProteusDesign {
    /// The 1PBF design point: no trie, one Bloom filter over `prefix_len`-bit
    /// prefixes.
    pub fn bloom_only(prefix_len: usize, expected_fpr: f64) -> Self {
        ProteusDesign {
            trie_depth_bits: 0,
            bloom_prefix_len: prefix_len,
            expected_fpr,
            trie_mem_bits: 0,
        }
    }
}

/// How many non-byte coarse depths the model tries: the deepest ones whose
/// stage fits the budget.
const BIT_DEPTHS: usize = 3;

/// Options controlling the design search.
#[derive(Debug, Clone, Default)]
pub struct ProteusModelOptions {
    /// Evaluate at most this many Bloom prefix lengths per trie depth,
    /// uniformly spaced (§7.2's coarse search for long keys; 0 = all).
    pub max_bloom_lengths: usize,
}

/// Accumulated per-design probe statistics for Proteus.
#[derive(Debug, Clone)]
pub struct ProteusModel {
    /// Coarse depth candidates in bits (ascending, starting at 0).
    l1_candidates: Vec<usize>,
    /// Coarse-stage memory per candidate.
    trie_mem: Vec<u64>,
    /// Queries resolved by the trie alone, per candidate.
    resolved: Vec<u64>,
    /// `bins[c][l2]` for candidate `c`; index l2 in bits (0 unused).
    bins: Vec<Vec<ProbeBins>>,
    /// Which l2 values were evaluated (per candidate, shared list).
    l2_values: Vec<usize>,
    n_samples: u64,
}

impl ProteusModel {
    /// Run the modeling pass of Algorithm 1: extract per-query context and
    /// accumulate probe-count bins for every feasible (l1, l2) design under
    /// the memory budget `m_bits`.
    pub fn build(
        keys: &KeySet,
        samples: &SampleQueries,
        m_bits: u64,
        opts: &ProteusModelOptions,
    ) -> Self {
        // Coarse depth candidates: every byte depth whose stage fits the
        // budget (Algorithm 1 line 6: "for tLen ← 0 such that trieMem(tLen)
        // ≤ m"), and the three deepest bit depths that do — the span
        // bitmap's, whose size doubles per bit, so the depths worth trying
        // sit right under the budget.
        let fits = |l1: usize| {
            ProteusTrie::cheapest(keys, l1).filter(|&(_, mem)| mem <= m_bits).map(|c| (l1, c.1))
        };
        let mut depths: Vec<(usize, u64)> =
            std::iter::once((0, 0)).chain((1..=keys.width()).map_while(|d| fits(d * 8))).collect();
        let span_fits = |l1: &usize| ProteusTrie::span_bits(keys, *l1).is_some_and(|b| b <= m_bits);
        let deepest = (1..=keys.bits()).take_while(span_fits).last().unwrap_or(0);
        for l1 in deepest.saturating_sub(BIT_DEPTHS - 1)..=deepest {
            if let (Err(at), Some(depth)) = (depths.binary_search_by_key(&l1, |c| c.0), fits(l1)) {
                depths.insert(at, depth);
            }
        }
        Self::over_depths(keys, samples, depths.into_iter().unzip(), opts)
    }

    /// The 1PBF model (Eq. 1): the same pass over the single trie-depth
    /// candidate 0, every Bloom prefix length evaluated.
    pub fn bloom_only(keys: &KeySet, samples: &SampleQueries) -> Self {
        Self::over_depths(keys, samples, (vec![0], vec![0]), &ProteusModelOptions::default())
    }

    /// Accumulate probe-count bins for every `(l1, l2)` with `l1` among the
    /// given `(trie depths in bits, their trie memory)`, ascending from 0.
    ///
    /// A query with `lcp(Q,K) ≥ l1` and `lcp(lo,hi) ≥ l1` fits one occupied
    /// `l1`-region, and its Eq. 5 row — a guaranteed false positive for
    /// `l2 ≤ lcp(Q,K)`, then `|Q_l2|` probes — does not depend on `l1`. So
    /// one pass adds each query's row once, to the bucket of the deepest
    /// candidate that sees it that way, and a suffix sum over the buckets
    /// hands it to every shallower candidate. Only where a query spans
    /// several `l1`-regions (`lcp(lo,hi) < l1 ≤ lcp(Q,K)`) do its end
    /// regions depend on `l1`; those candidates walk it one by one.
    fn over_depths(
        keys: &KeySet,
        samples: &SampleQueries,
        (l1_candidates, trie_mem): (Vec<usize>, Vec<u64>),
        opts: &ProteusModelOptions,
    ) -> Self {
        debug_assert!(l1_candidates.first() == Some(&0) && l1_candidates.is_sorted());
        let bits = keys.bits();
        let l2_values = l2_values(bits, opts);
        let ctxs = extract_contexts(keys, samples);
        let n_samples = samples.len() as u64;
        // How many candidates sit at depth `l` or shallower.
        let upto = |l: usize| l1_candidates.partition_point(|&l1| l1 <= l);

        // `bins[b]` collects bucket b's probe rows and `lcps[b]` its
        // histogram of lcp(Q,K); both become candidate b's after the sum.
        let mut bins = vec![vec![ProbeBins::default(); bits + 1]; l1_candidates.len()];
        let mut lcps = vec![vec![0u64; bits + 1]; l1_candidates.len()];
        for ((lo, hi), ctx) in samples.iter().zip(&ctxs) {
            let lcp_total = ctx.lcp_total();
            // Candidate 0 (no coarse stage) sees every query as one region.
            let bucket = upto(lcp_total.min(ctx.c as usize)) - 1;
            lcps[bucket][lcp_total] += 1;
            let row = &mut bins[bucket];
            let probed = &l2_values[l2_values.partition_point(|&l2| l2 <= lcp_total)..];
            if keys.width() <= 8 {
                // |Q_l2| in closed form from the bounds as integers.
                let (lo, hi) = (key_head(lo), key_head(hi));
                for &l2 in probed {
                    let d = (hi >> (64 - l2)) - (lo >> (64 - l2));
                    row[l2].add(d.saturating_add(1).min(COUNT_SATURATION));
                }
            } else if let Some(&last) = probed.last() {
                let mut scan = BitScan::seed(lo, hi, lcp_total);
                let mut next = probed.iter().peekable();
                for (l2, bin) in row.iter_mut().enumerate().take(last + 1).skip(lcp_total + 1) {
                    scan.step(get_bit(lo, l2 - 1), get_bit(hi, l2 - 1));
                    if next.next_if_eq(&&l2).is_some() {
                        bin.add(scan.regions());
                    }
                }
            }
        }
        // Suffix sums, deepest first: when bucket c is added to c - 1 it
        // already holds every deeper bucket.
        for c in (1..l1_candidates.len()).rev() {
            let (shallow, deep) = bins.split_at_mut(c);
            for (cell, deeper) in shallow[c - 1].iter_mut().zip(&deep[0]) {
                cell.absorb(deeper);
            }
            let (shallow, deep) = lcps.split_at_mut(c);
            for (n, deeper) in shallow[c - 1].iter_mut().zip(&deep[0]) {
                *n += deeper;
            }
        }
        for (c, &l1) in l1_candidates.iter().enumerate() {
            // lcps[c][t] becomes #{lcp(Q,K) ≥ t}: the guaranteed count at t.
            for t in (0..bits).rev() {
                lcps[c][t] += lcps[c][t + 1];
            }
            for &l2 in l2_values.iter().filter(|&&l2| l2 > l1) {
                bins[c][l2].guaranteed = lcps[c][l2];
            }
        }
        for ((lo, hi), ctx) in samples.iter().zip(&ctxs) {
            let lcp_total = ctx.lcp_total();
            for c in upto(lcp_total.min(ctx.c as usize))..upto(lcp_total) {
                accumulate_query(lo, hi, *ctx, l1_candidates[c], bits, &l2_values, &mut bins[c]);
            }
        }
        // Candidate 0 counts every query, so lcps[0] says who each resolves.
        let resolved = l1_candidates.iter().map(|&l1| n_samples - lcps[0][l1]).collect();
        ProteusModel { l1_candidates, trie_mem, resolved, bins, l2_values, n_samples }
    }

    /// Expected FPR of the design `(l1, l2)` under budget `m_bits`.
    /// `l2 == 0` evaluates the trie-only design.
    pub fn expected_fpr(&self, keys: &KeySet, l1: usize, l2: usize, m_bits: u64) -> Option<f64> {
        let c = self.l1_candidates.iter().position(|&v| v == l1)?;
        if self.n_samples == 0 {
            return Some(0.0);
        }
        if l2 == 0 {
            return Some(1.0 - self.resolved[c] as f64 / self.n_samples as f64);
        }
        if l2 <= l1 || l2 > keys.bits() {
            return None;
        }
        let bf_bits = m_bits.saturating_sub(self.trie_mem[c]);
        let p = standard_bloom_fpr(bf_bits, keys.unique_prefixes(l2));
        // Unconditional probability: queries the trie resolves never reach
        // the Bloom filter.
        let bf_fpr = self.bins[c][l2].expected_fpr(p, self.n_samples - self.resolved[c]);
        Some(bf_fpr * (self.n_samples - self.resolved[c]) as f64 / self.n_samples as f64)
    }

    /// Algorithm 1's selection — the one selection loop: the design
    /// minimizing expected FPR, ties going to later candidates (the paper's
    /// `≤` comparisons) — among the paper's candidates, depth 0 and the byte
    /// depths. A bit depth, this model's addition to that list, must win
    /// strictly: with no sample to judge by, or none that tells two designs
    /// apart, a filter is the one the paper's list alone would have given.
    pub fn best_design(&self, keys: &KeySet, m_bits: u64) -> ProteusDesign {
        let mut best = ProteusDesign::bloom_only(0, f64::INFINITY);
        for (c, &l1) in self.l1_candidates.iter().enumerate() {
            // The trie-only design (bLen = 0 in Algorithm 1 line 17, which
            // probes nothing), then every Bloom length past the trie — if
            // the trie leaves the Bloom filter any memory at all.
            let has_bloom_bits = self.trie_mem[c] < m_bits;
            let bloom_lens = self.l2_values.iter().filter(|&&l2| has_bloom_bits && l2 > l1);
            for &l2 in std::iter::once(&0).chain(bloom_lens) {
                // `l1` comes from our own candidate list, so the model
                // always has an answer; skip defensively rather than panic.
                let Some(fpr) = self.expected_fpr(keys, l1, l2, m_bits) else { continue };
                let ties_win = l1.is_multiple_of(8);
                if fpr < best.expected_fpr || (ties_win && fpr == best.expected_fpr) {
                    best = ProteusDesign {
                        trie_depth_bits: l1,
                        bloom_prefix_len: l2,
                        expected_fpr: fpr,
                        trie_mem_bits: self.trie_mem[c],
                    };
                }
            }
        }
        best
    }

    /// The trie depths (bits) the model evaluated.
    pub fn l1_candidates(&self) -> &[usize] {
        &self.l1_candidates
    }

    /// The Bloom prefix lengths (bits) the model evaluated.
    pub fn l2_values(&self) -> &[usize] {
        &self.l2_values
    }

    /// Estimated trie memory at depth `l1`, if it was a candidate.
    pub fn trie_mem_for(&self, l1: usize) -> Option<u64> {
        self.l1_candidates.iter().position(|&v| v == l1).map(|c| self.trie_mem[c])
    }
}

/// The Bloom prefix lengths to evaluate for `bits`-bit keys: all of them,
/// or `max_bloom_lengths` uniformly spaced ones (coarse search for long
/// keys).
fn l2_values(bits: usize, opts: &ProteusModelOptions) -> Vec<usize> {
    let n = opts.max_bloom_lengths;
    if n == 0 || n >= bits {
        (1..=bits).collect()
    } else {
        (1..=n).map(|i| (i * bits).div_ceil(n)).collect()
    }
}

/// Accumulate one non-resolved query into the per-l2 bins of trie depth
/// `l1`: the Eq. 5 probe counts as the Bloom prefix length sweeps upward.
fn accumulate_query(
    lo: &[u8],
    hi: &[u8],
    ctx: QueryCtx,
    l1: usize,
    bits: usize,
    l2_values: &[usize],
    bins: &mut [ProbeBins],
) {
    let lcp_total = ctx.lcp_total();
    let first_occ = ctx.first_occupied(l1);
    let last_occ = ctx.last_occupied(l1);
    let single = ctx.single_region(l1);
    let mut scan = BitScan::seed(lo, hi, l1);
    let mut vi = 0usize;
    while vi < l2_values.len() && l2_values[vi] <= l1 {
        vi += 1;
    }
    if vi >= l2_values.len() {
        return;
    }
    for (l2, bin) in bins.iter_mut().enumerate().take(bits + 1).skip(l1 + 1) {
        scan.step(get_bit(lo, l2 - 1), get_bit(hi, l2 - 1));
        if l2_values[vi] != l2 {
            continue;
        }
        vi += 1;
        if l2 <= lcp_total {
            bin.guaranteed += 1;
        } else {
            let probes = if single {
                // Both query ends share the (occupied) l1-region.
                scan.regions()
            } else {
                let mut n = 0u64;
                if first_occ {
                    n += scan.left_count();
                }
                if last_occ {
                    n += scan.right_count();
                }
                n
            };
            bin.add(probes);
        }
        if vi >= l2_values.len() {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::u64_key;
    use crate::testutil::{splitmix, uniform_setup};

    fn normal_keys(n: usize, seed: u64) -> Vec<u64> {
        // Clustered keys (top 24 bits constant) so short tries are cheap.
        let mut s = seed;
        (0..n).map(|_| (0xABu64 << 56) | (splitmix(&mut s) >> 24)).collect()
    }

    fn correlated_queries(
        keys: &[u64],
        ks: &KeySet,
        n: usize,
        corr: u64,
        seed: u64,
    ) -> SampleQueries {
        let mut s = seed;
        let mut out = SampleQueries::new(8);
        while out.len() < n {
            let k = keys[(splitmix(&mut s) % keys.len() as u64) as usize];
            let lo = k + 1 + splitmix(&mut s) % corr;
            let hi = lo + splitmix(&mut s) % 16;
            let (l, h) = (u64_key(lo), u64_key(hi));
            if !ks.range_overlaps(&l, &h) {
                out.push(&l, &h);
            }
        }
        out
    }

    #[test]
    fn trie_resolves_distant_queries() {
        let raw = normal_keys(2000, 1);
        let keys = KeySet::from_u64(&raw);
        // Queries far from keys: different top byte.
        let mut samples = SampleQueries::new(8);
        let mut s = 5u64;
        for _ in 0..200 {
            let lo = splitmix(&mut s) % (1u64 << 50);
            samples.push(&u64_key(lo), &u64_key(lo + 100));
        }
        samples.retain_empty(&keys);
        let model =
            ProteusModel::build(&keys, &samples, 2000 * 10, &ProteusModelOptions::default());
        // An 8-bit (1-byte) trie distinguishes the 0xAB.. cluster from the
        // low key space: everything resolves.
        let fpr = model.expected_fpr(&keys, 8, 0, 2000 * 10).unwrap();
        assert!(fpr < 0.01, "trie-only fpr {fpr}");
        // No trie, no Bloom prefix: not a valid design; l1=0,l2=0 -> fpr 1.
        let fpr0 = model.expected_fpr(&keys, 0, 0, 2000 * 10).unwrap();
        assert!(fpr0 > 0.99);
    }

    #[test]
    fn correlated_queries_need_the_bloom_filter() {
        let raw = normal_keys(3000, 2);
        let keys = KeySet::from_u64(&raw);
        let samples = correlated_queries(&raw, &keys, 500, 1 << 10, 77);
        let m = 3000 * 12;
        let model = ProteusModel::build(&keys, &samples, m, &ProteusModelOptions::default());
        let design = model.best_design(&keys, m);
        // Correlated queries pass any affordable trie; a Bloom filter must
        // be part of the design and its prefix must reach past the
        // correlation distance.
        assert!(design.bloom_prefix_len > 0, "design {design:?}");
        assert!(design.expected_fpr < 0.5, "design {design:?}");
        let trie_only = model.expected_fpr(&keys, design.trie_depth_bits, 0, m).unwrap();
        assert!(design.expected_fpr < trie_only);
    }

    #[test]
    fn deeper_tries_resolve_more() {
        let raw = normal_keys(2000, 3);
        let keys = KeySet::from_u64(&raw);
        let samples = correlated_queries(&raw, &keys, 300, 1 << 20, 99);
        let model = ProteusModel::build(&keys, &samples, 1 << 24, &ProteusModelOptions::default());
        let mut last = 0u64;
        for (c, &l1) in model.l1_candidates.iter().enumerate() {
            assert!(model.resolved[c] >= last, "resolution monotone in depth");
            last = model.resolved[c];
            // And at every depth — 0, the 1PBF slice, included — longer
            // Bloom prefixes leave fewer guaranteed false positives.
            for l2 in l1 + 1..64 {
                assert!(
                    model.bins[c][l2].guaranteed >= model.bins[c][l2 + 1].guaranteed,
                    "guaranteed counts must shrink with longer prefixes (l1={l1}, l2={l2})"
                );
            }
        }
    }

    #[test]
    fn depth_zero_is_the_one_pbf_model() {
        // Uniform keys and uniform ranges: the Fig. 4a setting.
        let (_, keys, samples) = uniform_setup(5000, 500, 1 << 12, 5);
        let m = 5000 * 10;
        let one = ProteusModel::bloom_only(&keys, &samples);
        assert_eq!(one.l1_candidates(), [0]);
        // The slice is the full model's depth-0 row, bit for bit.
        let full = ProteusModel::build(&keys, &samples, m, &ProteusModelOptions::default());
        assert!(full.l1_candidates().len() > 1);
        for l in 1..=64 {
            let (a, b) = (one.expected_fpr(&keys, 0, l, m), full.expected_fpr(&keys, 0, l, m));
            assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits), "l={l}");
        }
        let fpr = |l: usize| one.expected_fpr(&keys, 0, l, m).unwrap();
        // Eq. 1's two cliffs. 5000 uniform keys occupy every 2-bit region:
        // too-short prefixes are guaranteed false positives...
        assert!(fpr(2) > 0.95, "2-bit prefixes should be ~always occupied: {}", fpr(2));
        // ...and at l = 64 - 12 a query spans at most 2 regions, where
        // full-length prefixes multiply the probes per query.
        assert!(fpr(52) < fpr(64), "coarse {} vs full {}", fpr(52), fpr(64));
        // The chosen length sits between them (Fig. 4a): at or below
        // 64 - log2(RMAX), well above the occupied-region cliff.
        let design = one.best_design(&keys, m);
        assert_eq!(design.trie_depth_bits, 0);
        assert!((12..=53).contains(&design.bloom_prefix_len), "chose {design:?}");
        assert!(design.expected_fpr < 0.2, "{design:?}");
        assert_eq!(design.expected_fpr.to_bits(), fpr(design.bloom_prefix_len).to_bits());
    }

    #[test]
    fn coarse_search_subsamples_l2() {
        let raw = normal_keys(500, 4);
        let keys = KeySet::from_u64(&raw);
        let samples = correlated_queries(&raw, &keys, 100, 256, 5);
        let opts = ProteusModelOptions { max_bloom_lengths: 16 };
        let model = ProteusModel::build(&keys, &samples, 500 * 10, &opts);
        assert_eq!(model.l2_values().len(), 16);
        assert_eq!(*model.l2_values().last().unwrap(), 64);
        let design = model.best_design(&keys, 500 * 10);
        assert!(design.expected_fpr.is_finite());
    }

    /// The per-candidate loop the one-pass accumulation replaced, kept as
    /// its reference: every candidate walks every query it does not
    /// resolve.
    fn per_candidate(
        keys: &KeySet,
        samples: &SampleQueries,
        (l1_candidates, trie_mem): (Vec<usize>, Vec<u64>),
        opts: &ProteusModelOptions,
    ) -> ProteusModel {
        let bits = keys.bits();
        let l2_values = l2_values(bits, opts);
        let ctxs = extract_contexts(keys, samples);
        let (mut resolved, mut bins) = (Vec::new(), Vec::new());
        for &l1 in &l1_candidates {
            let mut r = 0u64;
            let mut b = vec![ProbeBins::default(); bits + 1];
            for ((lo, hi), &ctx) in samples.iter().zip(&ctxs) {
                if ctx.lcp_total() < l1 {
                    r += 1;
                    continue;
                }
                accumulate_query(lo, hi, ctx, l1, bits, &l2_values, &mut b);
            }
            resolved.push(r);
            bins.push(b);
        }
        let n_samples = samples.len() as u64;
        ProteusModel { l1_candidates, trie_mem, resolved, bins, l2_values, n_samples }
    }

    /// `width`-byte canonical form of `v` (below 2^32 for width 4): its
    /// 4 or 8 low bytes, or for width 16 all 8 behind a shared `https://`.
    fn embed(v: u64, width: usize) -> Vec<u8> {
        match width {
            4 => u32::try_from(v).unwrap().to_be_bytes().to_vec(),
            8 => v.to_be_bytes().to_vec(),
            _ => [b"https://".as_slice(), &v.to_be_bytes()].concat(),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The one-pass accumulation gives the per-candidate loop's bins,
        /// resolved counts, `expected_fpr` for every `(l1, l2)` and design,
        /// bit for bit. Keys are uniform or in four tight clusters; queries
        /// are uniform, key-correlated, whole or partial gaps between
        /// neighbouring keys (spanning many `l1`-regions: the per-candidate
        /// path), or any of these and random pairs mixed.
        #[test]
        fn one_pass_matches_the_per_candidate_loop(
            seed: u64,
            clustered: bool,
            query_kind in 0u64..4,
            width_kind in 0usize..3,
            coarse_l2: bool,
            bloom_only: bool,
            bits_per_key in 4u64..=40,
        ) {
            let width = [8, 4, 16][width_kind];
            // Values are drawn below `top` + 1, and offsets saturate there.
            let top = if width == 4 { u64::from(u32::MAX) } else { u64::MAX };
            let add = |v: u64, d: u64| v.saturating_add(d).min(top);
            let mut s = seed;
            let mut draw = || splitmix(&mut s) >> (64 - width.min(8) * 8);
            let centers: Vec<u64> = (0..4).map(|_| draw()).collect();
            let n_keys = 16 + (draw() % 1500) as usize;
            let mut raw: Vec<u64> = (0..n_keys)
                .map(|_| {
                    let r = draw();
                    if clustered { add(centers[(r % 4) as usize], r % (1 << 20)) } else { r }
                })
                .collect();
            raw.sort_unstable();
            raw.dedup();
            let keys = KeySet::new(raw.iter().map(|&v| embed(v, width)).collect(), width);
            let mut samples = SampleQueries::new(width);
            for _ in 0..300 {
                let kind = if query_kind == 3 { draw() % 5 } else { query_kind };
                let i = (draw() % raw.len() as u64) as usize;
                let (k, next) = (raw[i], raw.get(i + 1).copied().unwrap_or(top));
                let (r, t) = (draw(), draw());
                let (lo, hi) = match kind {
                    0 => (r, add(r, t >> (r % 64))),
                    1 => (add(k, 1 + r % 4096), add(k, 1 + r % 4096 + t % 16)),
                    2 => {
                        let gap = (next - k) / 4 + 1;
                        (add(k, 1 + r % gap), next.saturating_sub(1 + t % gap))
                    }
                    _ => (r.min(t), r.max(t)),
                };
                if lo <= hi {
                    samples.push(&embed(lo, width), &embed(hi, width));
                }
            }
            samples.retain_empty(&keys);
            let m = keys.len() as u64 * bits_per_key;
            // `bloom_only` evaluates every Bloom prefix length.
            let coarse = coarse_l2 && !bloom_only;
            let opts = ProteusModelOptions { max_bloom_lengths: if coarse { 16 } else { 0 } };
            let fast = if bloom_only {
                ProteusModel::bloom_only(&keys, &samples)
            } else {
                ProteusModel::build(&keys, &samples, m, &opts)
            };
            let depths = (fast.l1_candidates.clone(), fast.trie_mem.clone());
            let reference = per_candidate(&keys, &samples, depths, &opts);
            for &l1 in &fast.l1_candidates {
                for l2 in 0..=keys.bits() {
                    let a = fast.expected_fpr(&keys, l1, l2, m).map(f64::to_bits);
                    let b = reference.expected_fpr(&keys, l1, l2, m).map(f64::to_bits);
                    proptest::prop_assert_eq!(a, b, "l1={} l2={}", l1, l2);
                }
            }
            proptest::prop_assert_eq!(fast.best_design(&keys, m), reference.best_design(&keys, m));
            proptest::prop_assert_eq!(&fast.resolved, &reference.resolved);
            proptest::prop_assert!(fast.bins == reference.bins, "bins differ");
        }
    }

    #[test]
    fn design_respects_memory_budget() {
        let raw = normal_keys(2000, 8);
        let keys = KeySet::from_u64(&raw);
        let samples = correlated_queries(&raw, &keys, 200, 1 << 8, 25);
        for bpk in [6u64, 10, 18] {
            let m = 2000 * bpk;
            let model = ProteusModel::build(&keys, &samples, m, &ProteusModelOptions::default());
            let design = model.best_design(&keys, m);
            assert!(design.trie_mem_bits <= m, "bpk {bpk}: {design:?}");
        }
    }
}
