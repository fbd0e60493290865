//! Synthetic datasets matching the distributional properties of the paper's
//! evaluation data (§5 "Datasets").
//!
//! `Uniform` and `Normal` follow the paper's definitions exactly. The two
//! real-world SOSD datasets are external downloads, so to keep the
//! workspace self-contained we generate distribution-matched synthetics:
//! `Books` — heavy low-value skew like Amazon popularity counts;
//! `Facebook` — dense ids covering a narrow range with uniformly
//! distributed gaps.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The four integer dataset families of §5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Keys uniform over `[0, 2^64 - 1]`.
    Uniform,
    /// Keys normal with mean `2^63` and standard deviation `0.01 * 2^64`.
    Normal,
    /// Skewed "popularity" values: most keys small, a long high tail.
    Books,
    /// Dense ids over a narrow range with uniform gaps.
    Facebook,
}

impl Dataset {
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Uniform => "uniform",
            Dataset::Normal => "normal",
            Dataset::Books => "books",
            Dataset::Facebook => "facebook",
        }
    }

    /// Generate `n` distinct keys, sorted ascending.
    pub fn generate(self, n: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0D47_45E7);
        let mut keys: Vec<u64> = Vec::with_capacity(n + n / 4);
        match self {
            Dataset::Uniform => {
                while keys.len() < n {
                    keys.extend((0..n).map(|_| rng.gen::<u64>()));
                    dedup_sorted(&mut keys);
                }
            }
            Dataset::Normal => {
                let mean = (1u64 << 63) as f64;
                let std = 0.01 * 2f64.powi(64);
                while keys.len() < n {
                    keys.extend((0..n).map(|_| {
                        let v = mean + std * sample_standard_normal(&mut rng);
                        v.clamp(0.0, u64::MAX as f64) as u64
                    }));
                    dedup_sorted(&mut keys);
                }
            }
            Dataset::Books => {
                // Popularity counts: lognormal with a heavy low mass. Scale
                // so the bulk sits in the low 2^30 range with a sparse tail.
                while keys.len() < n {
                    keys.extend((0..n).map(|_| {
                        let z = sample_standard_normal(&mut rng);
                        let v = (z * 2.2).exp() * 1_000_000.0;
                        v.clamp(0.0, 1.8e18) as u64
                    }));
                    dedup_sorted(&mut keys);
                }
            }
            Dataset::Facebook => {
                // Upsampled user ids: the paper samples 10M keys out of the
                // 200M dense ids, so the *key set* sees uniform gaps with a
                // mean around 170 over a narrow overall range.
                let mut id = 1u64 << 40;
                for _ in 0..n {
                    id += 1 + rng.gen_range(0..340u64);
                    keys.push(id);
                }
            }
        }
        keys.sort_unstable();
        keys.dedup();
        // Reduce to exactly n by even subsampling (plain truncation would
        // amputate the distribution's upper tail).
        if keys.len() > n {
            let len = keys.len();
            let keys_sub: Vec<u64> = (0..n).map(|i| keys[i * len / n]).collect();
            keys = keys_sub;
        }
        keys
    }
}

/// Box–Muller standard normal sample.
pub fn sample_standard_normal<R: Rng>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > f64::EPSILON {
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

fn dedup_sorted(keys: &mut Vec<u64>) {
    keys.sort_unstable();
    keys.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_datasets_generate_requested_count() {
        for ds in [Dataset::Uniform, Dataset::Normal, Dataset::Books, Dataset::Facebook] {
            let keys = ds.generate(10_000, 42);
            assert_eq!(keys.len(), 10_000, "{}", ds.name());
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "{} sorted distinct", ds.name());
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = Dataset::Normal.generate(1000, 7);
        let b = Dataset::Normal.generate(1000, 7);
        let c = Dataset::Normal.generate(1000, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_spans_the_space() {
        let keys = Dataset::Uniform.generate(10_000, 1);
        assert!(*keys.first().unwrap() < 1 << 56);
        assert!(*keys.last().unwrap() > u64::MAX - (1 << 56));
    }

    #[test]
    fn normal_concentrates_around_the_middle() {
        let keys = Dataset::Normal.generate(50_000, 2);
        let mean = (1u64 << 63) as f64;
        let std = 0.01 * 2f64.powi(64);
        let within_3sigma = keys.iter().filter(|&&k| (k as f64 - mean).abs() < 3.0 * std).count();
        assert!(within_3sigma as f64 > 0.99 * keys.len() as f64);
        // And genuinely clustered: the span is far below the full space.
        let span = keys.last().unwrap() - keys.first().unwrap();
        assert!(span < u64::MAX / 8);
    }

    #[test]
    fn books_is_low_skewed() {
        let keys = Dataset::Books.generate(50_000, 3);
        // Far more than half the keys in the low range (heavy low skew).
        let low = keys.iter().filter(|&&k| k < 10_000_000).count();
        assert!(low * 2 > keys.len(), "{low} of {} below 10M", keys.len());
        // But a long tail exists.
        assert!(*keys.last().unwrap() > 1_000_000_000);
    }

    #[test]
    fn facebook_is_dense_with_small_gaps() {
        let keys = Dataset::Facebook.generate(50_000, 4);
        let span = keys.last().unwrap() - keys.first().unwrap();
        let density = span as f64 / keys.len() as f64;
        assert!((100.0..=250.0).contains(&density), "avg gap {density}");
    }
}
