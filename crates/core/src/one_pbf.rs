//! 1PBF: a single self-designing prefix Bloom filter (§4, Eq. 1).
//!
//! The simplest Protean Range Filter — and, exactly as the paper frames it,
//! Proteus at trie depth 0: the CPFPR model accumulated over the single
//! depth candidate `0` picks the prefix length, and the filter is a
//! [`Proteus`] with no trie. This type only pins that shape (a Bloom filter
//! is always present) and keeps the kind's own wire payload and name.

use crate::codec::{ByteReader, CodecError, FilterKind, WireWrite};
use crate::key::u64_key;
use crate::keyset::KeySet;
use crate::model::proteus::{ProteusDesign, ProteusModel};
use crate::prefix_bf::PrefixBloom;
use crate::proteus::{put_header, read_header, Proteus};
use crate::sample::SampleQueries;
use crate::RangeFilter;
use proteus_amq::hash::HashFamily;

/// Construction options for [`OnePbf`].
#[derive(Debug, Clone)]
pub struct OnePbfOptions {
    /// Hash family for the prefix Bloom filter.
    pub hash_family: HashFamily,
    /// Per-query probe budget (prefixes probed before giving up as
    /// positive).
    pub probe_cap: u64,
    /// Hash seed.
    pub seed: u32,
}

impl Default for OnePbfOptions {
    fn default() -> Self {
        OnePbfOptions {
            hash_family: HashFamily::Murmur3,
            probe_cap: crate::proteus::DEFAULT_PROBE_CAP,
            seed: 0x0B5E_55ED,
        }
    }
}

/// A single prefix Bloom filter with model-selected prefix length: a
/// trie-less [`Proteus`] whose Bloom filter is always present.
#[derive(Debug, Clone)]
pub struct OnePbf(Proteus);

impl OnePbf {
    /// Self-design: pick the prefix length minimizing modeled FPR.
    pub fn train(
        keys: &KeySet,
        samples: &SampleQueries,
        m_bits: u64,
        opts: &OnePbfOptions,
    ) -> Self {
        let mut design = ProteusModel::bloom_only(keys, samples).best_design(keys, m_bits);
        if design.bloom_prefix_len == 0 {
            // No memory, so the model chose "no filter"; a 1PBF still has
            // one — zero bits wide, answering every probe positive.
            design.bloom_prefix_len = keys.bits();
        }
        Self::build_with_prefix_len(keys, design, m_bits, opts)
    }

    /// Build with an explicit design (Fig. 4a sweeps the whole space); see
    /// [`ProteusDesign::bloom_only`].
    pub fn build_with_prefix_len(
        keys: &KeySet,
        design: ProteusDesign,
        m_bits: u64,
        opts: &OnePbfOptions,
    ) -> Self {
        debug_assert_eq!(design.trie_depth_bits, 0, "a 1PBF has no trie");
        let bloom =
            PrefixBloom::build(keys, design.bloom_prefix_len, m_bits, opts.hash_family, opts.seed);
        OnePbf(Proteus {
            trie: None,
            bloom: Some(bloom),
            design,
            width: keys.width(),
            probe_cap: opts.probe_cap,
        })
    }

    /// The instantiated design (`trie_depth_bits` is always 0).
    pub fn design(&self) -> ProteusDesign {
        self.0.design
    }

    /// Closed-range emptiness query on canonical keys.
    pub fn query(&self, lo: &[u8], hi: &[u8]) -> bool {
        self.0.query(lo, hi)
    }

    /// [`OnePbf::query`] with `u64` bounds.
    pub fn query_u64(&self, lo: u64, hi: u64) -> bool {
        self.query(&u64_key(lo), &u64_key(hi))
    }

    /// Memory footprint in bits.
    pub fn size_bits(&self) -> u64 {
        self.0.size_bits()
    }

    /// Serialize the filter payload (design + Bloom filter).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_header(out, self.0.width, self.0.probe_cap);
        out.put_u64(self.0.design.bloom_prefix_len as u64);
        out.put_f64(self.0.design.expected_fpr);
        if let Some(bloom) = &self.0.bloom {
            bloom.encode_into(out);
        }
    }

    /// Decode a payload written by [`OnePbf::encode_into`].
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<OnePbf, CodecError> {
        let (width, probe_cap) = read_header(r)?;
        let design = ProteusDesign::bloom_only(r.u64()? as usize, r.f64()?);
        let bloom = PrefixBloom::decode_for(r, width, design.bloom_prefix_len)?;
        Ok(OnePbf(Proteus { trie: None, bloom: Some(bloom), design, width, probe_cap }))
    }
}

impl RangeFilter for OnePbf {
    fn may_contain_range(&self, lo: &[u8], hi: &[u8]) -> bool {
        self.query(lo, hi)
    }
    fn size_bits(&self) -> u64 {
        self.size_bits()
    }
    fn name(&self) -> String {
        format!("1PBF(l={})", self.0.design.bloom_prefix_len)
    }
    fn encode_payload(&self) -> Option<(FilterKind, Vec<u8>)> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        Some((FilterKind::OnePbf, out))
    }
    fn expected_fpr(&self) -> Option<f64> {
        Some(self.0.design.expected_fpr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{splitmix, uniform_setup};

    fn setup(n: usize, rmax: u64) -> (Vec<u64>, KeySet, SampleQueries) {
        uniform_setup(n, 400, rmax, 11)
    }

    #[test]
    fn no_false_negatives() {
        let (keys, ks, samples) = setup(2000, 1 << 10);
        let f = OnePbf::train(&ks, &samples, 2000 * 12, &OnePbfOptions::default());
        for &k in keys.iter().step_by(13) {
            assert!(f.query_u64(k, k));
            assert!(f.query_u64(k.saturating_sub(5), k.saturating_add(5)));
        }
    }

    #[test]
    fn trained_prefix_respects_range_size() {
        let (_, ks, samples) = setup(3000, 1 << 16);
        let f = OnePbf::train(&ks, &samples, 3000 * 12, &OnePbfOptions::default());
        // For RMAX = 2^16 the optimum sits at or below 64 - 16 = 48 bits
        // (Fig. 4a): longer prefixes multiply probes per query.
        assert!(f.design().bloom_prefix_len <= 49, "{:?}", f.design());
    }

    #[test]
    fn observed_fpr_near_model() {
        let (_, ks, samples) = setup(3000, 1 << 8);
        let m = 3000 * 14;
        let f = OnePbf::train(&ks, &samples, m, &OnePbfOptions::default());
        let mut s = 999u64;
        let mut fps = 0usize;
        let trials = 3000usize;
        let mut done = 0usize;
        while done < trials {
            let lo = splitmix(&mut s) % (u64::MAX - (1 << 8) - 2);
            let hi = lo + 2 + splitmix(&mut s) % (1 << 8);
            if ks.range_overlaps(&u64_key(lo), &u64_key(hi)) {
                continue;
            }
            done += 1;
            if f.query_u64(lo, hi) {
                fps += 1;
            }
        }
        let observed = fps as f64 / trials as f64;
        let predicted = f.design().expected_fpr;
        assert!(
            (observed - predicted).abs() < 0.05 + predicted,
            "observed {observed} predicted {predicted}"
        );
    }
}
