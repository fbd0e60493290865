//! Rosetta — Robust Space-Time Optimized Range Filter (Luo et al., SIGMOD
//! 2020), the probabilistic state-of-the-art baseline of the Proteus paper
//! (§2.1).
//!
//! Rosetta conceptually encodes every level of a binary trie over the key
//! space into per-level Bloom filters. A range query decomposes into dyadic
//! intervals; each positive probe is "doubted" by probing its two children
//! until the deepest level confirms or everything resolves negative — one
//! [`RegionWalk`] per level, each nested in a positive region of the one
//! above, all drawing on one [`ProbeBudget`]. In
//! practice only the last few levels are instantiated and they receive the
//! whole memory budget (§2.1); our constructor tunes the level count and
//! the bottom-level memory fraction with the same sampled empty queries
//! Proteus uses (the paper gives both filters the sample queue).

use proteus_amq::hash::HashFamily;
use proteus_amq::standard_bloom_fpr;
use proteus_core::codec::{ByteReader, CodecError, FilterKind, WireWrite};
use proteus_core::key::{get_bit, u64_key, ProbeBudget, RegionWalk, Walk};
use proteus_core::model::{extract_contexts, BitScan};
use proteus_core::prefix_bf::PrefixBloom;
use proteus_core::{KeySet, RangeFilter, SampleQueries};

/// Construction options for [`Rosetta`].
#[derive(Debug, Clone)]
pub struct RosettaOptions {
    /// Which hash family the per-level Bloom filters use.
    pub hash_family: HashFamily,
    /// Cap on Bloom probes per query (the doubting budget).
    pub probe_cap: u64,
    /// Seed for the per-level hashers.
    pub seed: u32,
    /// Candidate bottom-level memory fractions for the tuner.
    pub bottom_fractions: Vec<f64>,
    /// Hard cap on instantiated levels (cost control).
    pub max_levels: usize,
}

impl Default for RosettaOptions {
    fn default() -> Self {
        RosettaOptions {
            hash_family: HashFamily::Murmur3,
            probe_cap: proteus_core::DEFAULT_PROBE_CAP,
            seed: 0x0520_2020,
            bottom_fractions: vec![0.5, 0.7, 0.9],
            max_levels: 24,
        }
    }
}

/// The Rosetta baseline: Bloom filters over the deepest `n` prefix levels.
#[derive(Debug, Clone)]
pub struct Rosetta {
    /// Filters for prefix lengths `bits - n + 1 ..= bits`, shortest first.
    filters: Vec<PrefixBloom>,
    /// Prefix length of `filters[0]`.
    top_len: usize,
    bits: usize,
    width: usize,
    probe_cap: u64,
}

impl Rosetta {
    /// Tune (levels, bottom fraction) on the sample queries and build.
    pub fn train(
        keys: &KeySet,
        samples: &SampleQueries,
        m_bits: u64,
        opts: &RosettaOptions,
    ) -> Self {
        let bits = keys.bits();
        // Candidate level counts from the sampled range sizes: enough levels
        // that the dyadic decomposition of typical queries is covered.
        let mut spans: Vec<usize> =
            samples.iter().map(|(lo, hi)| bits - proteus_core::key::lcp_bits(lo, hi)).collect();
        spans.sort_unstable();
        let pick = |q: f64| -> usize {
            if spans.is_empty() {
                1
            } else {
                spans[((spans.len() - 1) as f64 * q) as usize] + 1
            }
        };
        let mut candidates: Vec<usize> = vec![1, pick(0.5), pick(0.95), pick(1.0)];
        candidates.iter_mut().for_each(|c| *c = (*c).clamp(1, opts.max_levels.min(bits)));
        candidates.sort_unstable();
        candidates.dedup();

        let ctxs = extract_contexts(keys, samples);
        let mut best: Option<(f64, usize, f64)> = None; // (fpr, levels, frac)
        for &levels in &candidates {
            for &frac in &opts.bottom_fractions {
                if levels == 1 && frac != opts.bottom_fractions[0] {
                    continue; // fraction is irrelevant with a single level
                }
                let alloc = Self::allocate(m_bits, levels, frac);
                let fpr = Self::estimate_fpr(keys, samples, &ctxs, &alloc, bits);
                if best.is_none_or(|(b, _, _)| fpr < b) {
                    best = Some((fpr, levels, frac));
                }
            }
        }
        let (_, levels, frac) = best.unwrap_or((1.0, 1, 0.5));
        Self::build_with_levels(keys, m_bits, levels, frac, opts)
    }

    /// Build with an explicit level count and bottom fraction.
    pub fn build_with_levels(
        keys: &KeySet,
        m_bits: u64,
        levels: usize,
        bottom_frac: f64,
        opts: &RosettaOptions,
    ) -> Self {
        let bits = keys.bits();
        let levels = levels.clamp(1, bits);
        let alloc = Self::allocate(m_bits, levels, bottom_frac);
        let top_len = bits - levels + 1;
        let filters: Vec<PrefixBloom> = alloc
            .iter()
            .enumerate()
            .map(|(i, &m)| {
                PrefixBloom::build(keys, top_len + i, m, opts.hash_family, opts.seed ^ i as u32)
            })
            .collect();
        Rosetta { filters, top_len, bits, width: keys.width(), probe_cap: opts.probe_cap }
    }

    /// Memory allocation across `levels` filters: the bottom (full-length)
    /// level takes `bottom_frac`, the remainder splits evenly.
    fn allocate(m_bits: u64, levels: usize, bottom_frac: f64) -> Vec<u64> {
        if levels == 1 {
            return vec![m_bits];
        }
        let bottom = (m_bits as f64 * bottom_frac) as u64;
        let upper = (m_bits - bottom) / (levels as u64 - 1);
        let mut v = vec![upper; levels - 1];
        v.push(m_bits - upper * (levels as u64 - 1));
        v
    }

    /// Expected-FPR estimate for the tuner.
    ///
    /// A Rosetta query is a false positive only when a *bottom-level* probe
    /// false-positives; upper-level false positives merely multiply the
    /// descents. We track `U_l`, the expected number of probed-but-empty
    /// regions per level: the top instantiated level probes all |Q_top|
    /// regions; each empty region survives with probability `p_l` and
    /// spawns two children, and each truthfully-occupied end region (there
    /// are at most two, located by the neighbor LCPs) always spawns its
    /// children. The query FPR is then `1 - (1-p_bottom)^U_bottom`.
    fn estimate_fpr(
        keys: &KeySet,
        samples: &SampleQueries,
        ctxs: &[proteus_core::model::QueryCtx],
        alloc: &[u64],
        bits: usize,
    ) -> f64 {
        let levels = alloc.len();
        let top_len = bits - levels + 1;
        let p: Vec<f64> = alloc
            .iter()
            .enumerate()
            .map(|(i, &m)| standard_bloom_fpr(m, keys.unique_prefixes(top_len + i)))
            .collect();
        let occupied = |ctx: &proteus_core::model::QueryCtx, l: usize| -> f64 {
            let mut n = 0.0;
            if ctx.first_occupied(l) {
                n += 1.0;
            }
            if ctx.last_occupied(l) && !ctx.single_region(l) {
                n += 1.0;
            }
            n
        };
        let mut fp_sum = 0.0;
        for (i, (lo, hi)) in samples.iter().enumerate() {
            let ctx = ctxs[i];
            let mut scan = BitScan::seed(lo, hi, top_len - 1);
            scan.step(get_bit(lo, top_len - 1), get_bit(hi, top_len - 1));
            let mut u = (scan.regions() as f64 - occupied(&ctx, top_len)).max(0.0);
            for l in top_len..bits {
                let li = l - top_len;
                let survivors = u * p[li] + occupied(&ctx, l);
                scan.step(get_bit(lo, l), get_bit(hi, l));
                let q_next = scan.regions() as f64;
                u = (2.0 * survivors).min(q_next) - occupied(&ctx, l + 1);
                u = u.max(0.0);
            }
            let p_bottom = p[levels - 1];
            fp_sum += if p_bottom >= 1.0 { 1.0 } else { 1.0 - (u * (1.0 - p_bottom).ln()).exp() };
        }
        fp_sum / samples.len().max(1) as f64
    }

    /// Number of instantiated levels.
    pub fn levels(&self) -> usize {
        self.filters.len()
    }

    /// Shortest instantiated prefix length.
    pub fn top_len(&self) -> usize {
        self.top_len
    }

    /// Total filter memory, in bits.
    pub fn size_bits(&self) -> u64 {
        self.filters.iter().map(|f| f.size_bits()).sum()
    }

    /// Serialize: geometry + every per-level prefix Bloom filter.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.put_u32(self.width as u32);
        out.put_u32(self.bits as u32);
        out.put_u32(self.top_len as u32);
        out.put_u64(self.probe_cap);
        out.put_u32(self.filters.len() as u32);
        for f in &self.filters {
            f.encode_into(out);
        }
    }

    /// Decode a filter previously written by `encode_into`, validating
    /// the level geometry.
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Rosetta, CodecError> {
        let width = r.u32()? as usize;
        let bits = r.u32()? as usize;
        let top_len = r.u32()? as usize;
        let probe_cap = r.u64()?;
        let n = r.u32()? as usize;
        if width == 0 || bits != width * 8 {
            return Err(CodecError::Invalid("rosetta width/bits"));
        }
        if n == 0 || top_len == 0 || top_len + n != bits + 1 {
            return Err(CodecError::Invalid("rosetta level geometry"));
        }
        let mut filters = Vec::with_capacity(n.min(bits));
        for i in 0..n {
            filters.push(PrefixBloom::decode_for(r, width, top_len + i)?);
        }
        Ok(Rosetta { filters, top_len, bits, width, probe_cap })
    }

    /// Closed-range emptiness query: dyadic descent with doubting. The
    /// levels above `top_len` hold no filter, so the descent starts with
    /// the query's `top_len`-bit regions; every level draws on one budget,
    /// and running out of it is the safe positive.
    pub fn query(&self, lo: &[u8], hi: &[u8]) -> bool {
        let budget = ProbeBudget::new(self.probe_cap);
        self.walk_level(0, &[], 0, lo, hi, &budget) != Walk::Clear
    }

    /// [`Rosetta::query`] over `u64` keys (closed range).
    pub fn query_u64(&self, lo: u64, hi: u64) -> bool {
        self.query(&u64_key(lo), &u64_key(hi))
    }

    /// Probe `filters[i]` at each `(top_len + i)`-bit region of `[lo, hi]`
    /// inside the `within`-bit `region`, one at a time, and walk the
    /// children of each positive one a level down; the bottom level has no
    /// children to doubt with, so it probes its regions a chunk at a time.
    fn walk_level(
        &self,
        i: usize,
        region: &[u8],
        within: usize,
        lo: &[u8],
        hi: &[u8],
        budget: &ProbeBudget,
    ) -> Walk {
        let (filter, l) = (&self.filters[i], self.top_len + i);
        let mut walk = RegionWalk::new(lo, hi, budget);
        if l == self.bits {
            return walk.walk(region, within, l, |run| filter.probe_run(run));
        }
        walk.walk(region, within, l, |run| match run.draw() {
            Some(child) if filter.probe(child) == Walk::Hit => {
                self.walk_level(i + 1, child, l, lo, hi, budget)
            }
            _ => Walk::Clear,
        })
    }
}

impl RangeFilter for Rosetta {
    fn may_contain_range(&self, lo: &[u8], hi: &[u8]) -> bool {
        self.query(lo, hi)
    }
    fn size_bits(&self) -> u64 {
        self.size_bits()
    }
    fn name(&self) -> String {
        format!("Rosetta(levels={}, top={})", self.filters.len(), self.top_len)
    }
    fn encode_payload(&self) -> (FilterKind, Vec<u8>) {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        (FilterKind::Rosetta, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn splitmix(s: &mut u64) -> u64 {
        *s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn sample_ranges(ks: &KeySet, n: usize, rmax: u64, seed: u64) -> SampleQueries {
        let mut s = seed;
        let mut q = SampleQueries::new(8);
        while q.len() < n {
            let lo = splitmix(&mut s) % (u64::MAX - rmax - 2);
            let hi = lo + splitmix(&mut s) % rmax.max(1);
            if !ks.range_overlaps(&u64_key(lo), &u64_key(hi)) {
                q.push(&u64_key(lo), &u64_key(hi));
            }
        }
        q
    }

    #[test]
    fn no_false_negatives() {
        let mut s = 1u64;
        let keys: Vec<u64> = (0..2000).map(|_| splitmix(&mut s)).collect();
        let ks = KeySet::from_u64(&keys);
        let samples = sample_ranges(&ks, 200, 64, 7);
        let f = Rosetta::train(&ks, &samples, 2000 * 14, &RosettaOptions::default());
        for &k in keys.iter().step_by(23) {
            assert!(f.query_u64(k, k), "point {k:#x} ({})", f.name());
            assert!(f.query_u64(k.saturating_sub(30), k.saturating_add(30)));
        }
    }

    #[test]
    fn point_workload_gets_low_fpr() {
        let mut s = 2u64;
        let keys: Vec<u64> = (0..5000).map(|_| splitmix(&mut s)).collect();
        let ks = KeySet::from_u64(&keys);
        // Point-query sample: Rosetta should pick ~1 level (a plain Bloom
        // filter) and achieve Bloom-grade FPR.
        let samples = sample_ranges(&ks, 500, 1, 9);
        let f = Rosetta::train(&ks, &samples, 5000 * 14, &RosettaOptions::default());
        assert!(f.levels() <= 3, "{}", f.name());
        let mut fps = 0;
        let mut trials = 0;
        while trials < 3000 {
            let q = splitmix(&mut s);
            if keys.contains(&q) {
                continue;
            }
            trials += 1;
            fps += f.query_u64(q, q) as u32;
        }
        let fpr = fps as f64 / trials as f64;
        assert!(fpr < 0.02, "point FPR {fpr} with {}", f.name());
    }

    /// On uniform keys every level holds |K| distinct prefixes, so upper
    /// levels are expensive and a near-single-level design can genuinely be
    /// Rosetta-optimal (the paper: its "performance trends towards that of
    /// an AMQ"). The tuner's obligation is consistency: the configuration
    /// it picks must not observably lose to the single-level baseline.
    #[test]
    fn tuned_config_is_no_worse_than_single_level() {
        let mut s = 3u64;
        let keys: Vec<u64> = (0..3000).map(|_| splitmix(&mut s)).collect();
        let ks = KeySet::from_u64(&keys);
        let samples = sample_ranges(&ks, 400, 1 << 12, 11);
        let m = 3000 * 16;
        let tuned = Rosetta::train(&ks, &samples, m, &RosettaOptions::default());
        let single = Rosetta::build_with_levels(&ks, m, 1, 0.5, &RosettaOptions::default());
        let mut fps_tuned = 0;
        let mut fps_single = 0;
        let mut trials = 0;
        while trials < 1000 {
            let lo = splitmix(&mut s) % (u64::MAX - (1 << 13));
            let hi = lo + splitmix(&mut s) % (1 << 12);
            if ks.range_overlaps(&u64_key(lo), &u64_key(hi)) {
                continue;
            }
            trials += 1;
            fps_tuned += tuned.query_u64(lo, hi) as u32;
            fps_single += single.query_u64(lo, hi) as u32;
        }
        assert!(
            fps_tuned <= fps_single + 50,
            "tuned Rosetta ({}, {fps_tuned} FPs) lost badly to single-level ({fps_single} FPs)",
            tuned.name()
        );
    }

    /// Clustered keys make short-prefix filters nearly free (|K_l| ≪ |K|),
    /// which is where Rosetta's multi-level structure pays off: correlated
    /// queries resolve in cheap upper levels and the tuner should exploit
    /// that.
    #[test]
    fn clustered_keys_reward_multiple_levels() {
        let mut s = 8u64;
        // 128 dense clusters: |K_l| collapses for l <= 44.
        let keys: Vec<u64> =
            (0..4000).map(|i| ((i % 128) << 44) | (splitmix(&mut s) & 0xFFFF)).collect();
        let ks = KeySet::from_u64(&keys);
        let samples = sample_ranges(&ks, 300, 1 << 10, 19);
        let m = 4000 * 14;
        let tuned = Rosetta::train(&ks, &samples, m, &RosettaOptions::default());
        let single = Rosetta::build_with_levels(&ks, m, 1, 0.5, &RosettaOptions::default());
        let mut fps_tuned = 0;
        let mut fps_single = 0;
        let mut trials = 0;
        while trials < 1000 {
            let lo = splitmix(&mut s) % (u64::MAX - (1 << 11));
            let hi = lo + splitmix(&mut s) % (1 << 10);
            if ks.range_overlaps(&u64_key(lo), &u64_key(hi)) {
                continue;
            }
            trials += 1;
            fps_tuned += tuned.query_u64(lo, hi) as u32;
            fps_single += single.query_u64(lo, hi) as u32;
        }
        assert!(
            fps_tuned <= fps_single,
            "tuned ({}) {fps_tuned} FPs vs single {fps_single} FPs",
            tuned.name()
        );
    }

    #[test]
    fn large_uniform_ranges_degrade_gracefully() {
        // Ranges far bigger than the instantiated levels: Rosetta probes
        // many top-level prefixes; the budget keeps it safe (positive), so
        // no false negatives even out of envelope.
        let mut s = 4u64;
        let keys: Vec<u64> = (0..500).map(|_| splitmix(&mut s)).collect();
        let ks = KeySet::from_u64(&keys);
        let samples = sample_ranges(&ks, 100, 16, 13);
        let opts = RosettaOptions { probe_cap: 1 << 12, ..Default::default() };
        let f = Rosetta::train(&ks, &samples, 500 * 12, &opts);
        assert!(f.query_u64(0, u64::MAX));
    }

    #[test]
    fn allocation_sums_to_budget() {
        for levels in [1usize, 2, 5, 20] {
            for frac in [0.3, 0.5, 0.9] {
                let alloc = Rosetta::allocate(1_000_000, levels, frac);
                assert_eq!(alloc.len(), levels);
                assert_eq!(alloc.iter().sum::<u64>(), 1_000_000);
                if levels > 1 && frac >= 0.5 {
                    // Bottom-heavy allocations keep the deepest filter
                    // largest (the paper's "last few prefix lengths" note).
                    assert!(alloc[levels - 1] >= alloc[0]);
                }
            }
        }
    }

    /// The recursive descent `Rosetta::query` ran before it walked through
    /// `RegionWalk`: `prefix` holds the current `level`-bit prefix
    /// (trailing bits zero). Kept as the reference the walk must answer
    /// like.
    fn descend(
        f: &Rosetta,
        prefix: &mut [u8],
        level: usize,
        lo: &[u8],
        hi: &[u8],
        budget: &mut u64,
    ) -> bool {
        // Region bounds at this level: [prefix·00.., prefix·11..].
        // Disjoint from the query -> resolved negative.
        {
            let mut end = prefix.to_vec();
            proteus_core::key::set_tail_ones(&mut end, level);
            if end.as_slice() < lo || prefix[..] > hi[..] {
                return false;
            }
        }
        if level >= f.top_len {
            let filter = &f.filters[level - f.top_len];
            if *budget == 0 {
                return true;
            }
            *budget -= 1;
            if !filter.contains_prefix_of(prefix) {
                return false;
            }
            if level == f.bits {
                return true; // deepest level positive: report non-empty
            }
        } else if level == f.bits {
            return true;
        }
        // Descend into both children (bit `level` = 0, then 1).
        if descend(f, prefix, level + 1, lo, hi, budget) {
            return true;
        }
        let byte = level / 8;
        let mask = 0x80u8 >> (level % 8);
        prefix[byte] |= mask;
        let r = descend(f, prefix, level + 1, lo, hi, budget);
        prefix[byte] &= !mask;
        r
    }

    fn reference_query(f: &Rosetta, lo: &[u8], hi: &[u8]) -> bool {
        let mut budget = f.probe_cap;
        descend(f, &mut vec![0u8; f.width], 0, lo, hi, &mut budget)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The nested region walks answer every window exactly like the
        /// recursive descent, exhaustion included: 8- and 16-byte keys in
        /// clusters or uniform, every level count the tuner may pick and
        /// each bottom fraction, under a small probe cap and the default;
        /// point, short, key-correlated and very wide windows.
        #[test]
        fn region_walks_answer_like_the_recursive_descent(
            seed: u64,
            wide_keys: bool,
            clustered: bool,
            levels in 1usize..=24,
            frac_pick in 0usize..3,
            small_cap in 1u64..=64,
            bits_per_key in 2u64..=20,
        ) {
            let width = if wide_keys { 16 } else { 8 };
            let top = u128::MAX >> (128 - 8 * width);
            let mut s = seed;
            let mut draw = || (u128::from(splitmix(&mut s)) << 64 | u128::from(splitmix(&mut s))) & top;
            let add = |v: u128, d: u128| v.saturating_add(d).min(top);
            let key = |v: u128| v.to_be_bytes()[16 - width..].to_vec();
            let centers: Vec<u128> = (0..4).map(|_| draw()).collect();
            let n_keys = 16 + (draw() % 600) as usize;
            let raw: Vec<u128> = (0..n_keys)
                .map(|_| {
                    let r = draw();
                    if clustered { add(centers[(r % 4) as usize], r % (1 << 20)) } else { r }
                })
                .collect();
            let ks = KeySet::new(raw.iter().map(|&v| key(v)).collect(), width);
            let frac = [0.5, 0.7, 0.9][frac_pick];
            let opts = RosettaOptions { probe_cap: small_cap, ..Default::default() };
            let mut f = Rosetta::build_with_levels(&ks, n_keys as u64 * bits_per_key, levels, frac, &opts);

            let mut windows: Vec<(u128, u128)> = Vec::new();
            for _ in 0..8 {
                let (k, r) = (raw[(draw() % n_keys as u128) as usize], draw());
                windows.push((k, k));
                windows.push((r, r));
                windows.push((r, add(r, r % 64)));
                let lo = add(k, 1 + r % (1 << 12));
                windows.push((lo, add(lo, draw() % (1 << 12))));
                windows.push((k.saturating_sub(r % 64), add(k, draw() % 64)));
            }
            for _ in 0..2 {
                let r = draw();
                windows.push((r >> (r % 8), add(r, top >> (r % 16))));
            }
            windows.push((0, top));
            for cap in [small_cap, proteus_core::DEFAULT_PROBE_CAP] {
                f.probe_cap = cap;
                for &(lo, hi) in &windows {
                    let (lo, hi) = (key(lo), key(hi));
                    proptest::prop_assert_eq!(
                        f.query(&lo, &hi),
                        reference_query(&f, &lo, &hi),
                        "{} cap {} [{:x?}, {:x?}]", f.name(), cap, lo, hi
                    );
                }
            }
        }
    }

    #[test]
    fn explicit_levels_build() {
        let keys: Vec<u64> = (0..1000u64).map(|i| i * 7919).collect();
        let ks = KeySet::from_u64(&keys);
        let f = Rosetta::build_with_levels(&ks, 1000 * 12, 8, 0.7, &RosettaOptions::default());
        assert_eq!(f.levels(), 8);
        assert_eq!(f.top_len(), 64 - 7);
        for &k in keys.iter().step_by(97) {
            assert!(f.query_u64(k, k));
        }
    }
}
