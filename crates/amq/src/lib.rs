//! Approximate Membership Query (AMQ) structures and hash functions.
//!
//! This crate provides the probabilistic substrate of the Proteus range
//! filter (SIGMOD 2022):
//!
//! * [`hash`] — from-scratch implementations of MurmurHash3 (x64_128), used
//!   by the paper for integer workloads, and a CLHash-style carry-less
//!   multiplication hash used for string workloads (§7.1 of the paper).
//! * [`BloomFilter`] — the standard Bloom filter the paper builds Proteus,
//!   1PBF, 2PBF and Rosetta on, with the Eq. 6 false-positive model.
//! * [`CountingBloomFilter`] — the counting variant §4.1 mentions as the path
//!   to supporting range counts/sums.
//!
//! All structures are deliberately deterministic: hash seeds are fixed at
//! construction so that identical inputs yield identical filters, which the
//! reproduction harness relies on.

pub mod bloom;
pub mod counting;
pub mod hash;

pub use bloom::BloomFilter;
pub use counting::CountingBloomFilter;
pub use hash::{clhash::ClHasher, murmur3::murmur3_x64_128, FastRem, KeyHash, PrefixHasher};

/// Natural logarithm of 2, used throughout the Bloom sizing math.
pub const LN2: f64 = core::f64::consts::LN_2;

/// Maximum number of hash functions any filter will use.
///
/// The paper (§4.3, footnote 2) caps the hash count at 32 because `m/n` can
/// be very large for short prefix lengths, and huge hash counts are
/// impractical when a single range query performs many prefix probes.
pub const MAX_HASH_FUNCTIONS: u32 = 32;

/// The number of hash functions the paper's Eq. 6 uses: `ceil(m/n * ln 2)`,
/// capped at [`MAX_HASH_FUNCTIONS`] and floored at 1.
///
/// `m` is the number of bits allocated to the filter and `n` the number of
/// elements (unique key prefixes) stored.
pub fn optimal_hash_count(m_bits: u64, n: u64) -> u32 {
    if n == 0 || m_bits == 0 {
        return 1;
    }
    let k = (m_bits as f64 / n as f64 * LN2).ceil();
    (k as u32).clamp(1, MAX_HASH_FUNCTIONS)
}

/// The expected point-query FPR of a standard Bloom filter with `m` bits,
/// `n` elements and `k = ceil(m/n * ln 2)` (capped) hash functions:
///
/// ```text
/// p = (1 - e^(-k*n/m))^k
/// ```
///
/// The paper's Eq. 6 writes this as `(1 - e^(-ln 2))^k = 0.5^k`, which
/// assumes `k = m/n * ln 2` exactly; because `k` is an integer (and capped
/// at 32), we evaluate the exact expression — the difference is visible in
/// the Fig. 4 model-accuracy experiments. [`eq6_fpr`] provides the paper's
/// literal approximation.
///
/// Degenerate cases: an empty filter never reports positives (`p = 0`); a
/// zero-bit filter must report everything positive (`p = 1`).
pub fn standard_bloom_fpr(m_bits: u64, n: u64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    if m_bits == 0 {
        return 1.0;
    }
    let k = optimal_hash_count(m_bits, n) as f64;
    (1.0 - (-k * n as f64 / m_bits as f64).exp()).powf(k)
}

/// Eq. 6 exactly as printed in the paper: `0.5^ceil(m/n * ln 2)`.
pub fn eq6_fpr(m_bits: u64, n: u64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    if m_bits == 0 {
        return 1.0;
    }
    0.5f64.powi(optimal_hash_count(m_bits, n) as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_count_matches_eq6() {
        // 10 bits per key * ln 2 = 6.93 -> ceil = 7 hash functions.
        assert_eq!(optimal_hash_count(1000, 100), 7);
        // Enormous m/n ratios are capped at 32 (paper footnote 2).
        assert_eq!(optimal_hash_count(1 << 30, 2), 32);
        // Degenerate inputs still give a sane count.
        assert_eq!(optimal_hash_count(0, 10), 1);
        assert_eq!(optimal_hash_count(10, 0), 1);
    }

    #[test]
    fn fpr_exact_vs_eq6() {
        // Eq. 6 is the optimal-k idealization; the exact formula with the
        // ceiled k is slightly larger but close.
        let exact = standard_bloom_fpr(1000, 100);
        let eq6 = eq6_fpr(1000, 100);
        assert!((eq6 - 0.5f64.powi(7)).abs() < 1e-12);
        assert!(exact >= eq6);
        assert!(exact < eq6 * 2.0);
    }

    #[test]
    fn fpr_degenerate_cases() {
        assert_eq!(standard_bloom_fpr(1000, 0), 0.0);
        assert_eq!(standard_bloom_fpr(0, 10), 1.0);
    }

    #[test]
    fn fpr_monotone_in_memory() {
        let mut last = 1.0;
        for bpk in 1..40u64 {
            let p = standard_bloom_fpr(bpk * 1000, 1000);
            assert!(p <= last, "FPR should not increase with memory");
            last = p;
        }
    }
}
