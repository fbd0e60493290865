//! A prefix Bloom filter: a Bloom filter over the `l`-bit prefixes of the
//! key set (§2.1, §3.1). Range queries probe every `l`-bit region of the
//! query window through [`crate::key::RegionWalk`], with
//! [`PrefixBloom::probe_run`] as the visitor: it draws the window's
//! consecutive prefixes a chunk at a time, hashes the chunk up front and
//! lets the Bloom filter test it position by position, so the probes of
//! adjacent regions overlap instead of queueing behind each other.

use crate::codec::{ByteReader, CodecError, WireWrite};
use crate::key::{lcp_bits, Run, Walk};
use crate::keyset::KeySet;
use proteus_amq::bloom::MAX_BATCH;
use proteus_amq::hash::{HashFamily, KeyHash, PrefixHasher};
use proteus_amq::BloomFilter;

/// Bloom filter over fixed-length key prefixes.
#[derive(Debug, Clone)]
pub struct PrefixBloom {
    bloom: BloomFilter,
    hasher: PrefixHasher,
    /// Prefix length in bits.
    prefix_len: usize,
    /// Canonical key width in bytes.
    width: usize,
}

impl PrefixBloom {
    /// Build over the distinct `prefix_len`-bit prefixes of `keys`, using
    /// `m_bits` of memory. The expected insertion count (which fixes the
    /// hash count) is |K_prefix_len|, computed exactly from the sorted keys.
    pub fn build(
        keys: &KeySet,
        prefix_len: usize,
        m_bits: u64,
        family: HashFamily,
        seed: u32,
    ) -> Self {
        assert!(prefix_len >= 1 && prefix_len <= keys.bits());
        let n = keys.unique_prefixes(prefix_len);
        let mut bloom = BloomFilter::new(m_bits, n);
        let hasher = PrefixHasher::new(family, seed);
        // Insert each distinct prefix once: a key starts a new prefix iff it
        // shares fewer than `prefix_len` bits with its predecessor.
        let mut prev: Option<&[u8]> = None;
        for key in keys.iter() {
            let fresh = match prev {
                None => true,
                Some(p) => lcp_bits(p, key) < prefix_len,
            };
            if fresh {
                bloom.insert(hasher.hash_prefix(key, prefix_len as u32));
            }
            prev = Some(key);
        }
        PrefixBloom { bloom, hasher, prefix_len, width: keys.width() }
    }

    /// The prefix length (bits) the filter hashes.
    pub fn prefix_len(&self) -> usize {
        self.prefix_len
    }

    /// Memory footprint in bits.
    pub fn size_bits(&self) -> u64 {
        self.bloom.size_bits()
    }

    /// Serialize: geometry, hasher (family + seed), then the Bloom filter.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.put_u32(self.prefix_len as u32);
        out.put_u32(self.width as u32);
        self.hasher.encode_into(out);
        self.bloom.encode_into(out);
    }

    /// Decode a payload written by [`PrefixBloom::encode_into`] for an
    /// enclosing filter whose own header declares canonical keys `width`
    /// bytes wide and this stage at `prefix_len` bits. The one geometry
    /// check of every kind that embeds prefix Bloom filters: a stage that
    /// disagrees with its enclosing header would hash past the end of the
    /// query keys on its first probe, so it is `Invalid`, not a filter.
    pub fn decode_for(
        r: &mut ByteReader<'_>,
        width: usize,
        prefix_len: usize,
    ) -> Result<PrefixBloom, CodecError> {
        let own_prefix_len = r.u32()? as usize;
        let own_width = r.u32()? as usize;
        if width == 0 || prefix_len == 0 || prefix_len > width * 8 {
            return Err(CodecError::Invalid("prefix bloom geometry"));
        }
        if (own_width, own_prefix_len) != (width, prefix_len) {
            return Err(CodecError::Invalid("prefix bloom disagrees with its filter header"));
        }
        let hasher = PrefixHasher::decode_from(r)?;
        let bloom = BloomFilter::decode_from(r)?;
        Ok(PrefixBloom { bloom, hasher, prefix_len, width })
    }

    /// Probe the single prefix of `key`.
    #[inline]
    pub fn contains_prefix_of(&self, key: &[u8]) -> bool {
        self.bloom.contains(self.hasher.hash_prefix(key, self.prefix_len as u32))
    }

    /// [`PrefixBloom::contains_prefix_of`] of one region, as a walk outcome:
    /// a positive probe is a [`Walk::Hit`].
    #[inline]
    pub fn probe(&self, region: &[u8]) -> Walk {
        if self.contains_prefix_of(region) {
            Walk::Hit
        } else {
            Walk::Clear
        }
    }

    /// The region-walk visitor: draw up to [`MAX_BATCH`] regions from `run`
    /// and probe them together — [`Walk::Hit`] iff
    /// [`PrefixBloom::contains_prefix_of`] holds for any of them.
    #[inline]
    pub fn probe_run(&self, run: &mut Run<'_>) -> Walk {
        let mut hashes = [KeyHash { h1: 0, h2: 0 }; MAX_BATCH];
        let mut n = 0;
        while n < MAX_BATCH {
            let Some(region) = run.draw() else { break };
            hashes[n] = self.hasher.hash_prefix(region, self.prefix_len as u32);
            n += 1;
        }
        if self.bloom.contains_any(&hashes[..n]) {
            Walk::Hit
        } else {
            Walk::Clear
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{u64_key, ProbeBudget, RegionWalk};

    /// Walk `[lo, hi]` at the filter's granularity under `cap` probes;
    /// returns the outcome and the probes left.
    fn window(pb: &PrefixBloom, lo: u64, hi: u64, cap: u64) -> (Walk, u64) {
        let (lo, hi) = (u64_key(lo), u64_key(hi));
        let budget = ProbeBudget::new(cap);
        let end = RegionWalk::new(&lo, &hi, &budget)
            .walk(&[], 0, pb.prefix_len(), |run| pb.probe_run(run));
        (end, budget.left())
    }

    fn build_u64(keys: &[u64], l: usize, bpk: u64) -> (KeySet, PrefixBloom) {
        let ks = KeySet::from_u64(keys);
        let m = ks.len() as u64 * bpk;
        let pb = PrefixBloom::build(&ks, l, m, HashFamily::Murmur3, 1);
        (ks, pb)
    }

    #[test]
    fn no_false_negatives_for_members() {
        let keys: Vec<u64> = (0..1000u64).map(|i| i * 7_919_777).collect();
        for l in [8usize, 24, 48, 64] {
            let (_, pb) = build_u64(&keys, l, 16);
            for &k in &keys {
                assert!(pb.contains_prefix_of(&u64_key(k)), "l={l} key={k}");
            }
        }
    }

    #[test]
    fn range_probe_finds_members() {
        let keys: Vec<u64> = vec![1 << 40, 5 << 40, 9 << 40];
        let (_, pb) = build_u64(&keys, 64, 16);
        assert_eq!(window(&pb, (1 << 40) - 3, (1 << 40) + 3, u64::MAX).0, Walk::Hit);
    }

    #[test]
    fn empty_window_is_mostly_negative() {
        let keys: Vec<u64> = (0..2000u64).map(|i| i << 40).collect();
        let (_, pb) = build_u64(&keys, 24, 14);
        // Windows in the upper half of the space, far from keys: with 24-bit
        // prefixes the probes hit empty regions.
        let mut fps = 0;
        for i in 0..500u64 {
            let lo = (1 << 63) + i * (1 << 30);
            if window(&pb, lo, lo + (1 << 29), 1 << 20).0 != Walk::Clear {
                fps += 1;
            }
        }
        assert!(fps < 50, "{fps}/500 false positives");
    }

    #[test]
    fn budget_exhaustion_is_its_own_outcome() {
        let keys: Vec<u64> = vec![42];
        let (_, pb) = build_u64(&keys, 64, 16);
        // Query spanning far more than 4 regions with no keys: the budget
        // runs out, which is neither a hit nor a clear window.
        assert_eq!(window(&pb, 1 << 20, 1 << 40, 4), (Walk::Exhausted, 0));
    }

    #[test]
    fn window_iteration_counts_regions() {
        let keys: Vec<u64> = vec![u64::MAX]; // keep the filter non-empty
        let (_, pb) = build_u64(&keys, 8, 1 << 12);
        // Window spanning exactly 3 8-bit regions: 3 probes.
        let got = window(&pb, 0x01_00_00_00_00_00_00_00, 0x03_FF_FF_FF_FF_FF_FF_FF, 100);
        assert_eq!(got, (Walk::Clear, 97));
    }

    #[test]
    fn prefix_insert_dedupes() {
        // 1000 keys sharing 8 distinct top bytes: at l = 8 only 8 inserts.
        let keys: Vec<u64> = (0..1000u64).map(|i| ((i % 8) << 56) | i).collect();
        let ks = KeySet::from_u64(&keys);
        let pb = PrefixBloom::build(&ks, 8, 1 << 16, HashFamily::Murmur3, 1);
        // All 8 top-byte regions positive, the rest nearly all negative.
        let mut pos = 0;
        for b in 0..=255u64 {
            let probe = u64_key(b << 56);
            if pb.contains_prefix_of(&probe) {
                pos += 1;
            }
        }
        assert!((8..20).contains(&pos), "{pos} positive top bytes");
    }
}
