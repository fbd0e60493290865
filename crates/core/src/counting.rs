//! Approximate range counts — the §4.1 extension.
//!
//! "While Proteus does not support range queries other than emptiness
//! queries, replacing the Bloom filter with a counting Bloom filter would
//! provide this functionality." This module does exactly that: the trained
//! design's Bloom filter is swapped for a counting Bloom filter whose
//! counters accumulate *key multiplicities per l2-prefix*. A range count
//! sums the count-min estimates of every l2-prefix overlapping the range
//! (the same probe pattern as an emptiness query, pruned by the trie), so:
//!
//! * the estimate never undercounts (count-min never underestimates, and
//!   boundary prefixes overcount by at most the keys sharing them);
//! * a range the trie resolves as empty counts exactly zero;
//! * probe cost matches emptiness-query cost at the same design.

use crate::key::{u64_key, ProbeBudget, RegionWalk, Walk};
use crate::keyset::KeySet;
use crate::model::proteus::{ProteusModel, ProteusModelOptions};
use crate::proteus::walk_fine;
use crate::sample::SampleQueries;
use crate::trie::{coarse_stage, ProteusTrie};
use proteus_amq::hash::{HashFamily, PrefixHasher};
use proteus_amq::CountingBloomFilter;

/// Options for [`CountingProteus`].
#[derive(Debug, Clone)]
pub struct CountingProteusOptions {
    /// Hash family for the counting Bloom filter.
    pub hash_family: HashFamily,
    /// Per-query probe budget (prefixes probed per count).
    pub probe_cap: u64,
    /// Hash seed.
    pub seed: u32,
    /// Options forwarded to the CPFPR design search.
    pub model: ProteusModelOptions,
}

impl Default for CountingProteusOptions {
    fn default() -> Self {
        CountingProteusOptions {
            hash_family: HashFamily::Murmur3,
            probe_cap: crate::proteus::DEFAULT_PROBE_CAP,
            seed: 0xC0_47,
            model: ProteusModelOptions::default(),
        }
    }
}

/// Proteus with a counting Bloom filter: supports emptiness *and*
/// approximate range counts at the granularity of the trained l2 prefix.
#[derive(Debug, Clone)]
pub struct CountingProteus {
    trie: Option<ProteusTrie>,
    counts: CountingBloomFilter,
    hasher: PrefixHasher,
    l1: usize,
    l2: usize,
    probe_cap: u64,
}

impl CountingProteus {
    /// Self-design with the CPFPR model (counting filters get a quarter of
    /// the slots per bit, which [`CountingBloomFilter`] accounts for), then
    /// build with per-prefix key multiplicities.
    pub fn train(
        keys: &KeySet,
        samples: &SampleQueries,
        m_bits: u64,
        opts: &CountingProteusOptions,
    ) -> Self {
        let model = ProteusModel::build(keys, samples, m_bits, &opts.model);
        let design = model.best_design(keys, m_bits);
        let l1 = design.trie_depth_bits;
        // A counting filter must exist for counts; default to full length
        // if the emptiness-optimal design was trie-only.
        let l2 = if design.bloom_prefix_len > l1 { design.bloom_prefix_len } else { keys.bits() };
        let trie = coarse_stage(keys, l1);
        let trie_bits = trie.as_ref().map_or(0, |t| t.size_bits());
        let hasher = PrefixHasher::new(opts.hash_family, opts.seed);
        let mut counts =
            CountingBloomFilter::new(m_bits.saturating_sub(trie_bits), keys.unique_prefixes(l2));
        // One increment per key (not per distinct prefix): counters hold
        // per-prefix key multiplicities.
        for key in keys.iter() {
            counts.insert(hasher.hash_prefix(key, l2 as u32));
        }
        CountingProteus { trie, counts, hasher, l1, l2, probe_cap: opts.probe_cap }
    }

    /// The instantiated `(l1, l2)` design in bits.
    pub fn design_bits(&self) -> (usize, usize) {
        (self.l1, self.l2)
    }

    /// Memory footprint in bits (trie + counting filter).
    pub fn size_bits(&self) -> u64 {
        self.trie.as_ref().map_or(0, |t| t.size_bits()) + self.counts.size_bits()
    }

    /// Emptiness query (same contract as [`crate::Proteus`]).
    pub fn query(&self, lo: &[u8], hi: &[u8]) -> bool {
        self.count_estimate(lo, hi) > 0
    }

    /// Upper-bound estimate of the number of keys in `[lo, hi]`, at
    /// l2-prefix granularity: interior prefixes contribute their exact
    /// multiplicities (plus count-min collision noise), boundary prefixes
    /// contribute every key they hold. Returns `u64::MAX` if the probe
    /// budget runs out before every prefix is counted.
    pub fn count_estimate(&self, lo: &[u8], hi: &[u8]) -> u64 {
        let budget = ProbeBudget::new(self.probe_cap);
        let mut walk = RegionWalk::new(lo, hi, &budget);
        let mut total = 0u64;
        let end = walk_fine(self.trie.as_ref(), &mut walk, self.l2, |run| {
            while let Some(prefix) = run.draw() {
                let h = self.hasher.hash_prefix(prefix, self.l2 as u32);
                total += self.counts.count_estimate(h) as u64;
            }
            Walk::Clear
        });
        match end {
            Walk::Exhausted => u64::MAX,
            _ => total,
        }
    }

    /// Convenience u64 form.
    pub fn count_estimate_u64(&self, lo: u64, hi: u64) -> u64 {
        self.count_estimate(&u64_key(lo), &u64_key(hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::splitmix;

    /// Clustered keys (dense within a 2^32 span) + medium-range samples so
    /// the model picks a granularity at which key windows are enumerable.
    fn build(n: usize) -> (Vec<u64>, CountingProteus) {
        let mut s = 11u64;
        let base = 0xAB00_0000_0000_0000u64;
        let keys: Vec<u64> = (0..n).map(|_| base | (splitmix(&mut s) >> 32)).collect();
        let ks = KeySet::from_u64(&keys);
        let mut samples = SampleQueries::new(8);
        let mut t = 1u64;
        while samples.len() < 300 {
            let lo = base | (splitmix(&mut t) >> 32).min(u64::MAX - (1 << 18) - 2);
            let hi = lo + 2 + splitmix(&mut t) % (1 << 18);
            if !ks.range_overlaps(&u64_key(lo), &u64_key(hi)) {
                samples.push(&u64_key(lo), &u64_key(hi));
            }
        }
        // Counting filters need ~4x the memory of plain ones: 32 BPK.
        let f = CountingProteus::train(
            &ks,
            &samples,
            n as u64 * 32,
            &CountingProteusOptions::default(),
        );
        (keys, f)
    }

    #[test]
    fn counts_upper_bound_truth_on_key_windows() {
        let (keys, f) = build(3_000);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        // Windows of 20 consecutive keys: truth = 20 (plus boundary slop).
        let mut checked = 0;
        for w in sorted.chunks(20).take(50) {
            let (lo, hi) = (w[0], *w.last().unwrap());
            let est = f.count_estimate_u64(lo, hi);
            if est == u64::MAX {
                continue; // window too wide for the chosen granularity
            }
            checked += 1;
            assert!(est >= w.len() as u64, "estimate {est} < truth {}", w.len());
        }
        assert!(checked > 10, "too few enumerable windows ({checked})");
    }

    #[test]
    fn mid_gap_ranges_count_zero() {
        let (keys, f) = build(3_000);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let (_, l2) = f.design_bits();
        let granularity = 1u64 << (64 - l2).min(63);
        let mut zeros = 0;
        let mut trials = 0;
        for w in sorted.windows(2) {
            let gap = w[1] - w[0];
            // Mid-gap probe at least one granule away from both keys.
            if gap > granularity.saturating_mul(8) {
                let mid = w[0] + gap / 2;
                trials += 1;
                if f.count_estimate_u64(mid, mid + granularity / 2) == 0 {
                    zeros += 1;
                }
            }
            if trials == 200 {
                break;
            }
        }
        assert!(trials > 20, "test needs wide gaps (got {trials})");
        assert!(zeros * 10 > trials * 7, "{zeros}/{trials} mid-gap ranges counted zero");
    }

    #[test]
    fn emptiness_contract_holds() {
        let (keys, f) = build(1_000);
        for &k in keys.iter().step_by(17) {
            assert!(f.query(&u64_key(k), &u64_key(k)));
            assert!(f.count_estimate_u64(k, k) >= 1);
        }
    }

    #[test]
    fn duplicate_heavy_prefixes_accumulate() {
        // 50 keys inside one 2^16-wide cluster: a window over the cluster
        // must count at least 50.
        let mut keys: Vec<u64> = (0..50u64).map(|i| (7u64 << 40) | (i * 100)).collect();
        keys.extend((1..1000u64).map(|i| i << 44));
        let ks = KeySet::from_u64(&keys);
        let mut samples = SampleQueries::new(8);
        for i in 0..100u64 {
            let lo = (3u64 << 40) | (i << 20);
            samples.push(&u64_key(lo), &u64_key(lo + (1 << 18)));
        }
        samples.retain_empty(&ks);
        let f = CountingProteus::train(
            &ks,
            &samples,
            keys.len() as u64 * 40,
            &CountingProteusOptions::default(),
        );
        let est = f.count_estimate_u64(7 << 40, (7 << 40) | (1 << 20));
        assert!(est >= 50, "cluster count {est} < 50");
    }

    #[test]
    fn a_budget_that_runs_out_never_undercounts() {
        // A window over 6 keys spans several trie leaves. Whatever the cap —
        // in particular one that runs out exactly as a leaf's last prefix is
        // counted — the answer is the saturated "too wide" or the complete
        // estimate, never the sum over the leaves reached so far.
        let (keys, mut f) = build(3_000);
        assert!(f.trie.is_some(), "the regression needs a trie: {:?}", f.design_bits());
        let mut sorted = keys;
        sorted.sort_unstable();
        let (lo, hi) = (sorted[100], sorted[105]);
        f.probe_cap = u64::MAX;
        let complete = f.count_estimate_u64(lo, hi);
        assert!((6..u64::MAX).contains(&complete));
        let mut saturated = 0;
        for cap in 1..=3000 {
            f.probe_cap = cap;
            let est = f.count_estimate_u64(lo, hi);
            assert!(est == u64::MAX || est == complete, "cap {cap}: partial count {est}");
            saturated += u64::from(est == u64::MAX);
            assert!(f.query(&u64_key(lo), &u64_key(hi)));
        }
        assert!((1..3000).contains(&saturated), "the sweep must cross the window's probe count");
    }

    #[test]
    fn budget_exhaustion_saturates() {
        let (_, f) = build(500);
        let (_, l2) = f.design_bits();
        if l2 > 20 {
            // An astronomically wide range cannot be enumerated: saturate
            // rather than lying low.
            assert_eq!(f.count_estimate_u64(0, u64::MAX), u64::MAX);
        }
    }
}
