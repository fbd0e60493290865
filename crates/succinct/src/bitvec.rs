//! A plain append-only bit vector, the building block for every LOUDS
//! structure in this crate.

use crate::codec::{ByteReader, CodecError, WireWrite};

/// An append-only bit vector backed by `u64` words.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// An empty bit vector.
    pub fn new() -> Self {
        BitVec { words: Vec::new(), len: 0 }
    }

    /// An empty bit vector with room for `bits` bits before reallocating.
    pub fn with_capacity(bits: usize) -> Self {
        BitVec { words: Vec::with_capacity(bits.div_ceil(64)), len: 0 }
    }

    /// A bit vector of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        BitVec { words: vec![0u64; len.div_ceil(64)], len }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no bit has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a bit.
    #[inline]
    pub fn push(&mut self, bit: bool) {
        let w = self.len / 64;
        if w == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[w] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Read bit `i`. Panics if out of range in debug builds.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Set bit `i` to 1 (the vector must already cover `i`).
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Position of the first set bit at or after `from`, if any.
    pub fn next_set_bit(&self, from: usize) -> Option<usize> {
        if from >= self.len {
            return None;
        }
        let mut w = from / 64;
        // Mask off bits below `from` in the first word.
        let mut word = self.words[w] & (u64::MAX << (from % 64));
        loop {
            if word != 0 {
                let pos = w * 64 + word.trailing_zeros() as usize;
                return (pos < self.len).then_some(pos);
            }
            w += 1;
            if w >= self.words.len() {
                return None;
            }
            word = self.words[w];
        }
    }

    /// Total number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The backing words (trailing bits past `len` are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Memory of the raw bit data in bits (excluding the Vec header),
    /// rounded up to whole words, as used for size accounting.
    pub fn size_bits(&self) -> u64 {
        (self.words.len() * 64) as u64
    }

    /// Serialize: bit length followed by the raw backing words.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.put_u64(self.len as u64);
        for &w in &self.words {
            out.put_u64(w);
        }
    }

    /// Decode the inverse of [`BitVec::encode_into`]. The word count is
    /// derived from the bit length; bits past `len` in the last word must
    /// be zero (several structures rely on `count_ones` honoring `len`).
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<BitVec, CodecError> {
        let len_raw = r.u64()?;
        let len = usize::try_from(len_raw).map_err(|_| CodecError::Invalid("bitvec length"))?;
        let nwords = len.div_ceil(64);
        // Validate against the remaining buffer before allocating.
        if r.remaining() < nwords.checked_mul(8).ok_or(CodecError::Invalid("bitvec length"))? {
            return Err(CodecError::Truncated { needed: nwords * 8, have: r.remaining() });
        }
        let mut words = Vec::with_capacity(nwords);
        for _ in 0..nwords {
            words.push(r.u64()?);
        }
        if len % 64 != 0 {
            if let Some(&last) = words.last() {
                if last >> (len % 64) != 0 {
                    return Err(CodecError::Invalid("bitvec trailing bits set"));
                }
            }
        }
        Ok(BitVec { words, len })
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let mut bv = BitVec::new();
        for b in iter {
            bv.push(b);
        }
        bv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get() {
        let mut bv = BitVec::new();
        let pattern: Vec<bool> = (0..1000).map(|i| i % 3 == 0).collect();
        for &b in &pattern {
            bv.push(b);
        }
        assert_eq!(bv.len(), 1000);
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(bv.get(i), b, "bit {i}");
        }
        assert_eq!(bv.count_ones(), pattern.iter().filter(|&&b| b).count());
    }

    #[test]
    fn next_set_bit_walks_all_ones() {
        let bits: Vec<bool> = (0..500).map(|i| i % 7 == 3).collect();
        let bv: BitVec = bits.iter().copied().collect();
        let mut found = Vec::new();
        let mut pos = 0;
        while let Some(p) = bv.next_set_bit(pos) {
            found.push(p);
            pos = p + 1;
        }
        let expected: Vec<usize> = (0..500).filter(|i| i % 7 == 3).collect();
        assert_eq!(found, expected);
    }

    #[test]
    fn next_set_bit_edge_cases() {
        let bv: BitVec = [false, false, true].iter().copied().collect();
        assert_eq!(bv.next_set_bit(0), Some(2));
        assert_eq!(bv.next_set_bit(2), Some(2));
        assert_eq!(bv.next_set_bit(3), None);
        let empty = BitVec::new();
        assert_eq!(empty.next_set_bit(0), None);
    }

    #[test]
    fn encode_decode_roundtrip() {
        use crate::codec::ByteReader;
        for n in [0usize, 1, 63, 64, 65, 1000] {
            let bits: Vec<bool> = (0..n).map(|i| i % 3 == 1).collect();
            let bv: BitVec = bits.iter().copied().collect();
            let mut buf = Vec::new();
            bv.encode_into(&mut buf);
            let mut r = ByteReader::new(&buf);
            let back = BitVec::decode_from(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(back, bv, "n={n}");
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage_bits() {
        let bv: BitVec = [true, false, true].iter().copied().collect();
        let mut buf = Vec::new();
        bv.encode_into(&mut buf);
        // Set a bit past len=3 in the stored word.
        buf[8] |= 1 << 5;
        let mut r = crate::codec::ByteReader::new(&buf);
        assert!(BitVec::decode_from(&mut r).is_err());
    }

    #[test]
    fn zeros_constructor() {
        let bv = BitVec::zeros(100);
        assert_eq!(bv.len(), 100);
        assert_eq!(bv.count_ones(), 0);
        assert_eq!(bv.next_set_bit(0), None);
    }
}
