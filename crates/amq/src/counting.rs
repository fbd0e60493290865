//! Counting Bloom filter (Bonomi et al., 2006).
//!
//! §4.1 of the paper: "While Proteus does not support range queries other
//! than emptiness queries, replacing the Bloom filter with a counting Bloom
//! filter would provide this functionality." This module provides that
//! extension: 4-bit saturating counters instead of single bits, which also
//! enables deletion.

use crate::hash::{FastRem, KeyHash};
use crate::optimal_hash_count;

/// Counter width in bits. Four bits is the classic choice: overflow
/// probability is negligible at realistic load factors.
const COUNTER_BITS: u64 = 4;
const COUNTER_MAX: u8 = 15;

/// A counting Bloom filter with 4-bit saturating counters.
///
/// Sized in *total* bits for comparability with [`crate::BloomFilter`]: a
/// counting filter given `m` bits has `m / 4` counters, so at equal memory
/// its FPR model is that of a plain Bloom filter with a quarter of the
/// slots — exactly the trade-off §4.1 alludes to.
#[derive(Debug, Clone)]
pub struct CountingBloomFilter {
    counters: Vec<u8>, // one counter per entry, stored byte-wide, sized as 4 bits each
    slots: FastRem,
    m_bits: u64,
    k: u32,
}

impl CountingBloomFilter {
    /// Create a filter occupying `m_bits` of memory (i.e. `m_bits / 4`
    /// counters) expecting `n` insertions.
    pub fn new(m_bits: u64, n: u64) -> Self {
        let slots = m_bits / COUNTER_BITS;
        CountingBloomFilter {
            counters: vec![0u8; slots as usize],
            slots: FastRem::new(slots),
            m_bits,
            k: optimal_hash_count(slots, n),
        }
    }

    /// Insert an item, incrementing `k` counters (saturating).
    pub fn insert(&mut self, h: KeyHash) {
        if self.slots.get() == 0 {
            return;
        }
        for i in 0..self.k {
            let idx = h.probe(i, self.slots) as usize;
            if self.counters[idx] < COUNTER_MAX {
                self.counters[idx] += 1;
            }
        }
    }

    /// Remove an item. The caller must guarantee the item was inserted;
    /// removing a non-member can introduce false negatives (the standard
    /// counting-Bloom caveat). Saturated counters are left untouched to
    /// preserve the no-false-negative guarantee for other items.
    pub fn remove(&mut self, h: KeyHash) {
        if self.slots.get() == 0 {
            return;
        }
        for i in 0..self.k {
            let idx = h.probe(i, self.slots) as usize;
            if self.counters[idx] > 0 && self.counters[idx] < COUNTER_MAX {
                self.counters[idx] -= 1;
            }
        }
    }

    /// Membership test: all `k` counters non-zero.
    pub fn contains(&self, h: KeyHash) -> bool {
        if self.slots.get() == 0 {
            return true;
        }
        (0..self.k).all(|i| self.counters[h.probe(i, self.slots) as usize] > 0)
    }

    /// A lower bound on the multiplicity of the item: the minimum of its
    /// counters (the count-min sketch estimate). This is what upgrades range
    /// *emptiness* to approximate range *counts* per §4.1.
    pub fn count_estimate(&self, h: KeyHash) -> u8 {
        if self.slots.get() == 0 {
            return COUNTER_MAX;
        }
        (0..self.k).map(|i| self.counters[h.probe(i, self.slots) as usize]).min().unwrap_or(0)
    }

    pub fn size_bits(&self) -> u64 {
        self.m_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::murmur3::murmur3_x64_128;

    fn h(x: u64) -> KeyHash {
        KeyHash::from_u128(murmur3_x64_128(&x.to_le_bytes(), 0))
    }

    #[test]
    fn insert_then_remove_clears_membership_mostly() {
        let mut f = CountingBloomFilter::new(64 * 1024, 1000);
        for i in 0..1000u64 {
            f.insert(h(i));
        }
        for i in 0..1000u64 {
            assert!(f.contains(h(i)));
        }
        for i in 0..1000u64 {
            f.remove(h(i));
        }
        // After removing everything the filter should be (nearly) empty;
        // saturated counters could linger but are wildly unlikely here.
        let survivors = (0..1000u64).filter(|&i| f.contains(h(i))).count();
        assert!(survivors < 5, "{survivors} stale positives after removal");
    }

    #[test]
    fn count_estimate_upper_bounds_truth() {
        let mut f = CountingBloomFilter::new(64 * 1024, 100);
        for _ in 0..3 {
            f.insert(h(42));
        }
        assert!(f.count_estimate(h(42)) >= 3);
        f.insert(h(7));
        assert!(f.count_estimate(h(7)) >= 1);
    }

    #[test]
    fn remove_of_distinct_item_keeps_members() {
        let mut f = CountingBloomFilter::new(64 * 1024, 100);
        for i in 0..100u64 {
            f.insert(h(i));
        }
        // Remove members one by one; all remaining members must stay
        // positive (no false negatives from removal of true members).
        for i in 0..50u64 {
            f.remove(h(i));
            for j in 50..100u64 {
                assert!(f.contains(h(j)));
            }
        }
    }

    #[test]
    fn saturating_counters_do_not_underflow() {
        let mut f = CountingBloomFilter::new(256, 4);
        // Saturate one item's counters.
        for _ in 0..40 {
            f.insert(h(1));
        }
        // Removing more times than inserted must not clear saturated slots.
        for _ in 0..40 {
            f.remove(h(1));
        }
        assert!(f.contains(h(1)), "saturated counters must stay set");
    }
}
