//! Constant-time rank over a bit vector.
//!
//! Cumulative popcounts are stored for every 512-bit block (one `u64` per
//! block, a 12.5% overhead — the figure used by the trie cost model in
//! [`crate::cost`]); a query adds at most eight word popcounts on top of a
//! block lookup.

use crate::bitvec::BitVec;

const BLOCK_BITS: usize = 512;
const WORDS_PER_BLOCK: usize = BLOCK_BITS / 64;

/// A bit vector with rank support.
#[derive(Debug, Clone)]
pub struct RankedBits {
    bits: BitVec,
    /// `blocks[b]` = number of ones in bits `[0, b * 512)`.
    blocks: Vec<u64>,
    ones: usize,
}

impl RankedBits {
    /// Build the rank directory over `bits` (one pass, 64 bits per 512-bit block).
    pub fn new(bits: BitVec) -> Self {
        let nblocks = bits.len().div_ceil(BLOCK_BITS);
        let mut blocks = Vec::with_capacity(nblocks + 1);
        let mut acc = 0u64;
        let words = bits.words();
        for b in 0..=nblocks {
            blocks.push(acc);
            if b == nblocks {
                break;
            }
            let start = b * WORDS_PER_BLOCK;
            let end = ((b + 1) * WORDS_PER_BLOCK).min(words.len());
            acc += words[start..end].iter().map(|w| w.count_ones() as u64).sum::<u64>();
        }
        let ones = acc as usize;
        RankedBits { bits, blocks, ones }
    }

    /// Number of ones in `[0, i)`. `i` may equal `len`.
    #[inline]
    pub fn rank1(&self, i: usize) -> usize {
        debug_assert!(i <= self.bits.len(), "rank index {i} > len {}", self.bits.len());
        let block = i / BLOCK_BITS;
        let mut r = self.blocks[block] as usize;
        let words = self.bits.words();
        let first_word = block * WORDS_PER_BLOCK;
        let last_word = i / 64;
        let rem = i % 64;
        // One-word fast path: `i` lands in the block's first word, so the
        // answer is the directory entry plus a single masked popcount —
        // no word loop. This is the common case for the dense LOUDS
        // vectors (rank targets cluster near the directory boundaries).
        if last_word == first_word {
            if rem != 0 && last_word < words.len() {
                r += (words[last_word] & ((1u64 << rem) - 1)).count_ones() as usize;
            }
            return r;
        }
        for word in &words[first_word..last_word] {
            r += word.count_ones() as usize;
        }
        if rem != 0 && last_word < words.len() {
            r += (words[last_word] & ((1u64 << rem) - 1)).count_ones() as usize;
        }
        r
    }

    /// Number of zeros in `[0, i)`.
    #[inline]
    pub fn rank0(&self, i: usize) -> usize {
        i - self.rank1(i)
    }

    /// Total ones.
    pub fn count_ones(&self) -> usize {
        self.ones
    }

    #[inline]
    /// Number of bits.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True for an empty underlying vector.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    #[inline]
    /// The `i`-th bit.
    pub fn get(&self, i: usize) -> bool {
        self.bits.get(i)
    }

    /// Position of the first set bit at or after `from`, if any.
    pub fn next_set_bit(&self, from: usize) -> Option<usize> {
        self.bits.next_set_bit(from)
    }

    /// The underlying bit vector.
    pub fn bits(&self) -> &BitVec {
        &self.bits
    }

    /// Data + rank directory, in bits.
    pub fn size_bits(&self) -> u64 {
        self.bits.size_bits() + (self.blocks.len() * 64) as u64
    }

    /// Access to the cumulative block counts (used by select sampling).
    pub(crate) fn blocks(&self) -> &[u64] {
        &self.blocks
    }

    pub(crate) const BLOCK_BITS: usize = BLOCK_BITS;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_rank(bits: &[bool], i: usize) -> usize {
        bits[..i].iter().filter(|&&b| b).count()
    }

    #[test]
    fn rank_matches_reference_on_patterns() {
        for (name, gen) in [
            ("alternating", Box::new(|i: usize| i.is_multiple_of(2)) as Box<dyn Fn(usize) -> bool>),
            ("sparse", Box::new(|i: usize| i % 97 == 13)),
            ("dense", Box::new(|i: usize| !i.is_multiple_of(7))),
            ("all_ones", Box::new(|_| true)),
            ("all_zeros", Box::new(|_| false)),
        ] {
            let bits: Vec<bool> = (0..3000).map(&gen).collect();
            let rb = RankedBits::new(bits.iter().copied().collect());
            for i in (0..=3000).step_by(37) {
                assert_eq!(rb.rank1(i), reference_rank(&bits, i), "{name} rank1({i})");
                assert_eq!(rb.rank0(i), i - reference_rank(&bits, i), "{name} rank0({i})");
            }
            assert_eq!(rb.rank1(bits.len()), rb.count_ones(), "{name} total");
        }
    }

    #[test]
    fn rank_across_block_boundaries() {
        // Ones exactly at block boundaries exercise the off-by-one paths.
        let mut bv = BitVec::zeros(2048);
        for i in [0usize, 511, 512, 513, 1023, 1024, 2047] {
            bv.set(i);
        }
        let rb = RankedBits::new(bv);
        assert_eq!(rb.rank1(0), 0);
        assert_eq!(rb.rank1(1), 1);
        assert_eq!(rb.rank1(511), 1);
        assert_eq!(rb.rank1(512), 2);
        assert_eq!(rb.rank1(513), 3);
        assert_eq!(rb.rank1(514), 4);
        assert_eq!(rb.rank1(2048), 7);
    }

    #[test]
    fn empty_vector() {
        let rb = RankedBits::new(BitVec::new());
        assert_eq!(rb.rank1(0), 0);
        assert_eq!(rb.count_ones(), 0);
        assert!(rb.is_empty());
    }

    #[test]
    fn size_accounting_includes_directory() {
        let rb = RankedBits::new(BitVec::zeros(5120));
        // 5120 bits data + 11 block entries (10 blocks + sentinel) * 64.
        assert_eq!(rb.size_bits(), 5120 + 11 * 64);
    }
}
