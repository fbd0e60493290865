//! 2PBF: a pair of prefix Bloom filters (§3.1, Eq. 4) — "equivalent to an
//! instance of Rosetta that uses only 2 filters" (§4).
//!
//! Range queries walk the coarse (l1) regions of the query; every l1-region
//! that the first filter cannot rule out is expanded into its l2-prefixes
//! and probed in the second filter — the Protean shape with a Bloom filter
//! as the coarse stage.

use crate::codec::{ByteReader, CodecError, FilterKind, WireWrite};
use crate::key::{u64_key, ProbeBudget, RegionWalk, Walk};
use crate::keyset::KeySet;
use crate::model::two_pbf::{TwoPbfDesign, TwoPbfModel, TwoPbfOptions};
use crate::prefix_bf::PrefixBloom;
use crate::proteus::{put_header, read_header};
use crate::sample::SampleQueries;
use crate::RangeFilter;
use proteus_amq::hash::HashFamily;

/// Construction options for [`TwoPbf`].
#[derive(Debug, Clone)]
pub struct TwoPbfFilterOptions {
    /// Hash family for both prefix Bloom filters.
    pub hash_family: HashFamily,
    /// Per-query probe budget shared by the two filters.
    pub probe_cap: u64,
    /// Hash seed (the second filter derives its own from it).
    pub seed: u32,
    /// Model search options (memory splits, coarse l2 grid). The search
    /// runs on the calling thread.
    pub model: TwoPbfOptions,
}

impl Default for TwoPbfFilterOptions {
    fn default() -> Self {
        TwoPbfFilterOptions {
            hash_family: HashFamily::Murmur3,
            probe_cap: crate::proteus::DEFAULT_PROBE_CAP,
            seed: 0x2B1F_2B1F,
            model: TwoPbfOptions::default(),
        }
    }
}

/// Two stacked prefix Bloom filters with model-selected prefix lengths and
/// memory split.
#[derive(Debug, Clone)]
pub struct TwoPbf {
    bf1: PrefixBloom,
    bf2: PrefixBloom,
    design: TwoPbfDesign,
    width: usize,
    probe_cap: u64,
}

impl TwoPbf {
    /// Self-design over the (l1, l2, split) space.
    pub fn train(
        keys: &KeySet,
        samples: &SampleQueries,
        m_bits: u64,
        opts: &TwoPbfFilterOptions,
    ) -> Self {
        let model = TwoPbfModel::build(keys, samples, m_bits, &opts.model);
        let design = model.best_design();
        Self::build_with_design(keys, design, m_bits, opts)
    }

    /// Build a fixed design (Fig. 4b sweeps the space).
    pub fn build_with_design(
        keys: &KeySet,
        design: TwoPbfDesign,
        m_bits: u64,
        opts: &TwoPbfFilterOptions,
    ) -> Self {
        let m1 = (m_bits as f64 * design.split) as u64;
        let m2 = m_bits - m1;
        let bf1 = PrefixBloom::build(keys, design.l1, m1, opts.hash_family, opts.seed);
        let bf2 = PrefixBloom::build(keys, design.l2, m2, opts.hash_family, opts.seed ^ 0x9E37);
        TwoPbf { bf1, bf2, design, width: keys.width(), probe_cap: opts.probe_cap }
    }

    /// The instantiated design.
    pub fn design(&self) -> TwoPbfDesign {
        self.design
    }

    /// Closed-range emptiness query.
    pub fn query(&self, lo: &[u8], hi: &[u8]) -> bool {
        let (l1, l2) = (self.design.l1, self.design.l2);
        // Coarse probes and the fine probes nested in them share one budget.
        let budget = ProbeBudget::new(self.probe_cap);
        let mut coarse = RegionWalk::new(lo, hi, &budget);
        let mut fine = RegionWalk::new(lo, hi, &budget);
        // The coarse stage takes its run one region at a time: a region the
        // first filter passes is walked in the second before the next coarse
        // probe is paid for.
        let end = coarse.walk(&[], 0, l1, |run| match run.draw() {
            Some(region) if self.bf1.probe(region) == Walk::Hit => {
                fine.walk(region, l1, l2, |run| self.bf2.probe_run(run))
            }
            _ => Walk::Clear,
        });
        end != Walk::Clear
    }

    /// [`TwoPbf::query`] with `u64` bounds.
    pub fn query_u64(&self, lo: u64, hi: u64) -> bool {
        self.query(&u64_key(lo), &u64_key(hi))
    }

    /// Memory footprint in bits (both filters).
    pub fn size_bits(&self) -> u64 {
        self.bf1.size_bits() + self.bf2.size_bits()
    }

    /// Serialize the filter payload (design + both Bloom filters).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_header(out, self.width, self.probe_cap);
        out.put_u64(self.design.l1 as u64);
        out.put_u64(self.design.l2 as u64);
        out.put_f64(self.design.split);
        out.put_f64(self.design.expected_fpr);
        self.bf1.encode_into(out);
        self.bf2.encode_into(out);
    }

    /// Decode a payload written by [`TwoPbf::encode_into`].
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<TwoPbf, CodecError> {
        let (width, probe_cap) = read_header(r)?;
        let design = TwoPbfDesign {
            l1: r.u64()? as usize,
            l2: r.u64()? as usize,
            split: r.f64()?,
            expected_fpr: r.f64()?,
        };
        if design.l1 > design.l2 {
            return Err(CodecError::Invalid("2pbf prefix lengths"));
        }
        let bf1 = PrefixBloom::decode_for(r, width, design.l1)?;
        let bf2 = PrefixBloom::decode_for(r, width, design.l2)?;
        Ok(TwoPbf { bf1, bf2, design, width, probe_cap })
    }
}

impl RangeFilter for TwoPbf {
    fn may_contain_range(&self, lo: &[u8], hi: &[u8]) -> bool {
        self.query(lo, hi)
    }
    fn size_bits(&self) -> u64 {
        self.size_bits()
    }
    fn name(&self) -> String {
        format!(
            "2PBF(l1={}, l2={}, split={:.1})",
            self.design.l1, self.design.l2, self.design.split
        )
    }
    fn encode_payload(&self) -> (FilterKind, Vec<u8>) {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        (FilterKind::TwoPbf, out)
    }
    fn expected_fpr(&self) -> Option<f64> {
        Some(self.design.expected_fpr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{splitmix, uniform_setup};

    fn setup(n: usize, rmax: u64, seed: u64) -> (Vec<u64>, KeySet, SampleQueries) {
        uniform_setup(n, 300, rmax, seed)
    }

    fn fast_opts() -> TwoPbfFilterOptions {
        TwoPbfFilterOptions {
            model: TwoPbfOptions { max_l2_values: 16, ..Default::default() },
            ..Default::default()
        }
    }

    #[test]
    fn no_false_negatives() {
        let (keys, ks, samples) = setup(1500, 1 << 10, 21);
        let f = TwoPbf::train(&ks, &samples, 1500 * 12, &fast_opts());
        for &k in keys.iter().step_by(11) {
            assert!(f.query_u64(k, k), "point {k} design {:?}", f.design());
            assert!(f.query_u64(k.saturating_sub(20), k.saturating_add(20)));
        }
    }

    #[test]
    fn explicit_design_queries_both_levels() {
        let (keys, ks, _) = setup(1000, 16, 5);
        let design = TwoPbfDesign { l1: 24, l2: 56, split: 0.5, expected_fpr: 0.0 };
        let f = TwoPbf::build_with_design(&ks, design, 1000 * 14, &fast_opts());
        for &k in keys.iter().step_by(17) {
            assert!(f.query_u64(k, k));
        }
        // Far-away small queries should mostly be negative.
        let mut s = 404u64;
        let mut fps = 0;
        for _ in 0..500 {
            let lo = splitmix(&mut s);
            let hi = lo.saturating_add(8);
            if ks.range_overlaps(&u64_key(lo), &u64_key(hi)) {
                continue;
            }
            if f.query_u64(lo, hi) {
                fps += 1;
            }
        }
        assert!(fps < 150, "{fps}/500");
    }

    #[test]
    fn budget_makes_giant_ranges_safe_positives() {
        let (_, ks, _) = setup(100, 16, 6);
        let design = TwoPbfDesign { l1: 60, l2: 64, split: 0.5, expected_fpr: 0.0 };
        let mut opts = fast_opts();
        opts.probe_cap = 128;
        let f = TwoPbf::build_with_design(&ks, design, 100 * 20, &opts);
        // 2^40-wide query at l1=60 has ~2^36 regions: budget exhausts.
        assert!(f.query_u64(1 << 20, 1 << 40));
    }
}
