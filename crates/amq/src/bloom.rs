//! The standard Bloom filter (Bloom, 1970) used by the paper's prefix
//! filters, with double hashing (Kirsch–Mitzenmacher) over a 128-bit key
//! hash.

use crate::hash::{FastRem, KeyHash};
use crate::optimal_hash_count;
use proteus_succinct::codec::{ByteReader, CodecError, WireWrite};

/// Most items one [`BloomFilter::contains_any`] call takes.
pub const MAX_BATCH: usize = 8;

/// A standard Bloom filter over pre-hashed items.
///
/// The filter is sized explicitly in bits; the number of hash functions is
/// `ceil(m/n * ln 2)` capped at 32, per Eq. 6 of the paper. `n` is the
/// *expected* number of insertions and is fixed at construction because the
/// hash count depends on it.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<u64>,
    /// Size in bits, with the reciprocal every probe position is reduced by.
    m: FastRem,
    k: u32,
    inserted: u64,
}

impl BloomFilter {
    /// Create a filter with `m_bits` of memory expecting `n` insertions.
    ///
    /// A zero-size filter is permitted and reports every query positive
    /// (the degenerate case the CPFPR model assigns FPR 1).
    pub fn new(m_bits: u64, n: u64) -> Self {
        let words = m_bits.div_ceil(64) as usize;
        BloomFilter {
            bits: vec![0u64; words],
            m: FastRem::new(m_bits),
            k: optimal_hash_count(m_bits, n),
            inserted: 0,
        }
    }

    /// Create with an explicit hash count (used by Rosetta, whose per-level
    /// allocation wants uniform hash counts).
    pub fn with_hash_count(m_bits: u64, k: u32) -> Self {
        let words = m_bits.div_ceil(64) as usize;
        BloomFilter {
            bits: vec![0u64; words],
            m: FastRem::new(m_bits),
            k: k.clamp(1, crate::MAX_HASH_FUNCTIONS),
            inserted: 0,
        }
    }

    /// Number of hash functions in use.
    pub fn hash_count(&self) -> u32 {
        self.k
    }

    /// Number of items inserted so far.
    pub fn len(&self) -> u64 {
        self.inserted
    }

    pub fn is_empty(&self) -> bool {
        self.inserted == 0
    }

    /// Insert a pre-hashed item.
    #[inline]
    pub fn insert(&mut self, h: KeyHash) {
        self.inserted += 1;
        if self.m.get() == 0 {
            return;
        }
        for i in 0..self.k {
            let bit = h.probe(i, self.m);
            self.bits[(bit / 64) as usize] |= 1u64 << (bit % 64);
        }
    }

    /// Is position `i` of `h` set?
    #[inline]
    fn test(&self, h: KeyHash, i: u32) -> bool {
        let bit = h.probe(i, self.m);
        self.bits[(bit / 64) as usize] & (1u64 << (bit % 64)) != 0
    }

    /// Query a pre-hashed item. Zero-size filters always report `true`
    /// (never a false negative).
    #[inline]
    pub fn contains(&self, h: KeyHash) -> bool {
        self.m.get() == 0 || (0..self.k).all(|i| self.test(h, i))
    }

    /// Is any of up to [`MAX_BATCH`] pre-hashed items a member? The same
    /// answer as `hashes.iter().any(|h| self.contains(*h))`, computed
    /// position by position: every candidate's `i`-th bit is tested before
    /// any candidate's `i + 1`-th, so the loads of one round are independent
    /// and overlap, and a round only revisits the candidates still standing
    /// (half of them, at the optimal hash count).
    #[inline]
    pub fn contains_any(&self, hashes: &[KeyHash]) -> bool {
        assert!(hashes.len() <= MAX_BATCH);
        if self.m.get() == 0 {
            return !hashes.is_empty();
        }
        let mut alive = 0u32;
        for (j, &h) in hashes.iter().enumerate() {
            alive |= (self.test(h, 0) as u32) << j;
        }
        for i in 1..self.k {
            let mut round = std::mem::take(&mut alive);
            while round != 0 {
                let j = round.trailing_zeros();
                round &= round - 1;
                alive |= (self.test(hashes[j as usize], i) as u32) << j;
            }
            if alive == 0 {
                return false;
            }
        }
        alive != 0
    }

    /// Bits of memory of the bit array.
    pub fn size_bits(&self) -> u64 {
        self.m.get()
    }

    /// Serialize: size, hash count, insertion count, then the raw bit
    /// array words.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.put_u64(self.m.get());
        out.put_u32(self.k);
        out.put_u64(self.inserted);
        for &w in &self.bits {
            out.put_u64(w);
        }
    }

    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<BloomFilter, CodecError> {
        let m = r.u64()?;
        let k = r.u32()?;
        let inserted = r.u64()?;
        if !(1..=crate::MAX_HASH_FUNCTIONS).contains(&k) {
            return Err(CodecError::Invalid("bloom hash count out of range"));
        }
        let nwords = usize::try_from(m.div_ceil(64))
            .map_err(|_| CodecError::Invalid("bloom size overflow"))?;
        if r.remaining()
            < nwords.checked_mul(8).ok_or(CodecError::Invalid("bloom size overflow"))?
        {
            return Err(CodecError::Truncated { needed: nwords * 8, have: r.remaining() });
        }
        let mut bits = Vec::with_capacity(nwords);
        for _ in 0..nwords {
            bits.push(r.u64()?);
        }
        Ok(BloomFilter { bits, m: FastRem::new(m), k, inserted })
    }

    /// Fraction of bits set; diagnostic for load-factor assertions in tests
    /// and benches.
    pub fn fill_ratio(&self) -> f64 {
        if self.m.get() == 0 {
            return 1.0;
        }
        let ones: u64 = self.bits.iter().map(|w| w.count_ones() as u64).sum();
        ones as f64 / self.m.get() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::murmur3::murmur3_x64_128;
    use crate::standard_bloom_fpr;

    fn h(x: u64) -> KeyHash {
        KeyHash::from_u128(murmur3_x64_128(&x.to_le_bytes(), 0))
    }

    #[test]
    fn no_false_negatives() {
        let n = 10_000u64;
        let mut f = BloomFilter::new(n * 10, n);
        for i in 0..n {
            f.insert(h(i));
        }
        for i in 0..n {
            assert!(f.contains(h(i)), "false negative for {i}");
        }
    }

    #[test]
    fn observed_fpr_tracks_eq6() {
        let n = 20_000u64;
        for bpk in [8u64, 12, 16] {
            let mut f = BloomFilter::new(n * bpk, n);
            for i in 0..n {
                f.insert(h(i));
            }
            let trials = 200_000u64;
            let fps = (n..n + trials).filter(|&i| f.contains(h(i))).count() as f64;
            let observed = fps / trials as f64;
            let expected = standard_bloom_fpr(n * bpk, n);
            // The exact model should be tight; allow sampling noise.
            assert!(
                (observed - expected).abs() < expected * 0.15 + 2e-4,
                "bpk={bpk}: observed {observed:.5} vs expected {expected:.5}"
            );
        }
    }

    #[test]
    fn contains_any_is_any_contains() {
        // A crowded filter (4 bits per key, k = 3): batches with no member,
        // with false positives and with a member in every position.
        let n = 2_000u64;
        let mut f = BloomFilter::new(n * 4, n);
        for i in 0..n {
            f.insert(h(i));
        }
        let mut positives = 0;
        for start in (0..3 * n).step_by(5) {
            for len in 0..=MAX_BATCH as u64 {
                let batch: Vec<KeyHash> = (start..start + len).map(h).collect();
                let want = batch.iter().any(|&x| f.contains(x));
                assert_eq!(f.contains_any(&batch), want, "batch {start}+{len}");
                positives += want as u32;
            }
        }
        assert!(positives > 1_000);
        let empty = BloomFilter::new(0, 10);
        assert!(empty.contains_any(&[h(1)]) && !empty.contains_any(&[]));
    }

    #[test]
    fn zero_size_filter_is_always_positive() {
        let mut f = BloomFilter::new(0, 100);
        f.insert(h(1));
        assert!(f.contains(h(1)));
        assert!(f.contains(h(999)));
        assert_eq!(f.fill_ratio(), 1.0);
    }

    #[test]
    fn fill_ratio_near_half_at_optimal_k() {
        // At the optimal hash count a Bloom filter is ~50% full.
        let n = 50_000u64;
        let mut f = BloomFilter::new(n * 10, n);
        for i in 0..n {
            f.insert(h(i));
        }
        let fill = f.fill_ratio();
        assert!((0.42..0.58).contains(&fill), "fill ratio {fill}");
    }

    #[test]
    fn codec_roundtrip_answers_identically() {
        let n = 2000u64;
        let mut f = BloomFilter::new(n * 12, n);
        for i in 0..n {
            f.insert(h(i));
        }
        let mut buf = Vec::new();
        f.encode_into(&mut buf);
        let mut r = ByteReader::new(&buf);
        let back = BloomFilter::decode_from(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.size_bits(), f.size_bits());
        assert_eq!(back.hash_count(), f.hash_count());
        assert_eq!(back.len(), f.len());
        for i in 0..3 * n {
            assert_eq!(back.contains(h(i)), f.contains(h(i)), "item {i}");
        }
    }

    #[test]
    fn codec_rejects_bad_hash_count_and_truncation() {
        let f = BloomFilter::new(1024, 10);
        let mut buf = Vec::new();
        f.encode_into(&mut buf);
        let mut bad = buf.clone();
        bad[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(BloomFilter::decode_from(&mut ByteReader::new(&bad)).is_err());
        for cut in 0..buf.len() {
            assert!(
                BloomFilter::decode_from(&mut ByteReader::new(&buf[..cut])).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn explicit_hash_count_is_respected() {
        let f = BloomFilter::with_hash_count(1024, 5);
        assert_eq!(f.hash_count(), 5);
        let f = BloomFilter::with_hash_count(1024, 99);
        assert_eq!(f.hash_count(), crate::MAX_HASH_FUNCTIONS);
        let f = BloomFilter::with_hash_count(1024, 0);
        assert_eq!(f.hash_count(), 1);
    }
}
