//! Scrambled zipfian key popularity for skewed load generation.
//!
//! Skewed load models "millions of users hammering a hot key set": item
//! popularity follows a Zipf distribution with exponent `theta`, the shape
//! YCSB uses for its `zipfian` request distribution and the workload
//! Memento Filter's update-heavy evaluation argues range filters must
//! survive. [`Zipfian`] reproduces YCSB's
//! constant-time sampler (Gray et al., "Quickly Generating Billion-Record
//! Synthetic Databases"): an `O(n)` harmonic-number precomputation at
//! construction, then each draw costs one uniform variate and a couple of
//! `powf`s.
//!
//! Raw Zipf ranks cluster the hottest items at the smallest indices, which
//! under a *range-sharded* router would land the entire hot set on shard
//! 0. [`Zipfian::next`] therefore spreads ranks over the item space with an
//! FNV-1a hash (YCSB's `ScrambledZipfianGenerator` does the same), so every
//! shard sees traffic while the global popularity histogram stays zipfian.
//! The benchmark harness's `scan_short`, `rw_mixed` and `server_mixed`
//! workloads pick their keys this way.

use rand::{Rng, RngCore};

/// A scrambled Zipf(`n`, `theta`) sampler over items `0..n`.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

/// `zeta(n, theta) = Σ_{i=1..n} 1/i^theta` (the generalized harmonic
/// number). `O(n)` — paid once per sampler, not per draw.
fn zeta(n: u64, theta: f64) -> f64 {
    let mut sum = 0.0;
    for i in 1..=n {
        sum += 1.0 / (i as f64).powf(theta);
    }
    sum
}

impl Zipfian {
    /// Sampler over `n` items with exponent `theta`, each drawn rank
    /// scrambled across `0..n` so hot items spread over the whole key
    /// space (and therefore over every range shard).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is outside `(0, 1)` (the YCSB
    /// algorithm's validity range; `theta = 1` diverges).
    pub fn scrambled(n: u64, theta: f64) -> Zipfian {
        assert!(n > 0, "zipfian over an empty item set");
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0, 1), got {theta}");
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2.min(n), theta);
        Zipfian {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    /// Draw a popularity *rank* in `0..n`: rank 0 is the most popular item.
    fn next_rank<R: RngCore>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// Draw an item index in `0..n`: a zipfian rank, scrambled.
    pub fn next<R: RngCore>(&self, rng: &mut R) -> u64 {
        fnv1a(self.next_rank(rng)) % self.n
    }
}

/// 64-bit FNV-1a over the rank's little-endian bytes: cheap, stateless,
/// and stable across runs (the same rank always maps to the same item, so
/// the hot set is consistent within and across processes).
fn fnv1a(x: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ranks_stay_in_bounds_and_zero_is_hottest() {
        let z = Zipfian::scrambled(1000, 0.99);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0u64; 1000];
        for _ in 0..200_000 {
            let r = z.next_rank(&mut rng) as usize;
            assert!(r < 1000);
            counts[r] += 1;
        }
        let max = *counts.iter().max().unwrap();
        assert_eq!(counts[0], max, "rank 0 must be the most popular");
        // Zipf(0.99): the head dominates — top-10 ranks well over a third
        // of all draws, and far more than the next 90.
        let top10: u64 = counts[..10].iter().sum();
        let next90: u64 = counts[10..100].iter().sum();
        assert!(top10 > 200_000 / 3, "top-10 share too small: {top10}");
        assert!(top10 > next90, "head must outweigh the body: {top10} vs {next90}");
    }

    #[test]
    fn popularity_is_monotone_in_aggregate() {
        let z = Zipfian::scrambled(64, 0.9);
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = vec![0u64; 64];
        for _ in 0..400_000 {
            counts[z.next_rank(&mut rng) as usize] += 1;
        }
        // Compare coarse buckets (exact per-rank monotonicity is noisy).
        let b: Vec<u64> = counts.chunks(16).map(|c| c.iter().sum()).collect();
        assert!(b[0] > b[1] && b[1] > b[2] && b[2] > b[3], "buckets not decreasing: {b:?}");
    }

    #[test]
    fn scrambling_spreads_the_hot_set_across_the_key_space() {
        let n = 1_000_000u64;
        let z = Zipfian::scrambled(n, 0.99);
        let mut rng = StdRng::seed_from_u64(3);
        // Bucket draws into 4 contiguous quarters — the shape a 4-way
        // range-sharded router sees. Unscrambled, the hot head would land
        // entirely in quarter 0; scrambled, every quarter gets real load.
        let mut quarters = [0u64; 4];
        for _ in 0..100_000 {
            let item = z.next(&mut rng);
            assert!(item < n);
            quarters[(item / (n / 4)).min(3) as usize] += 1;
        }
        for (i, &q) in quarters.iter().enumerate() {
            assert!(q > 100_000 / 20, "quarter {i} starved: {quarters:?}");
        }
    }

    #[test]
    fn deterministic_across_identical_seeds() {
        let z = Zipfian::scrambled(5000, 0.99);
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(z.next(&mut a), z.next(&mut b));
        }
    }

    /// The benchmark harness draws its keys through `next`, so a changed
    /// draw would silently change every skewed workload's key stream.
    #[test]
    fn scrambled_draws_match_the_golden_stream() {
        const GOLDEN: [u64; 64] = [
            903731, 519781, 92734, 703458, 437203, 227772, 174405, 353223, 981077, 816769, 68578,
            645926, 45564, 774543, 808283, 310149, 322899, 849555, 816769, 763814, 995587, 611293,
            72680, 930372, 910394, 763814, 174405, 426949, 995587, 420900, 584996, 763814, 155423,
            623005, 852561, 242302, 418438, 28340, 604575, 503579, 872194, 980425, 940685, 995587,
            64717, 174405, 153472, 587624, 606187, 445175, 847940, 880181, 254782, 712414, 817234,
            15577, 353223, 920134, 84648, 577398, 353223, 434310, 292949, 18736,
        ];
        let z = Zipfian::scrambled(1_000_000, 0.99);
        let mut rng = StdRng::seed_from_u64(7);
        let drawn: Vec<u64> = (0..64).map(|_| z.next(&mut rng)).collect();
        assert_eq!(drawn, GOLDEN);
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn rejects_theta_of_one() {
        let _ = Zipfian::scrambled(10, 1.0);
    }
}
