//! YCSB-Workload-E-style range query generators (§5 "Workloads").
//!
//! Queries have the form `[left, left + offset]` with `offset` uniform in
//! `[2, RMAX]` (0 for point queries). The `left` bound distribution defines
//! the workload:
//!
//! * **Uniform** — `left` uniform over the key space;
//! * **Correlated** — `left` uniform in `[key+1, key+CORRDEGREE]` for a
//!   random dataset key (default CORRDEGREE `2^10`);
//! * **Split** — an even mix of Uniform and Correlated (the particle-physics
//!   motif from §1);
//! * **Real** — `left` bounds drawn from the same distribution as the data
//!   (the paper samples a disjoint subset of the dataset file).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Default correlation distance (§5: "a default CORRDEGREE of 2^10").
pub const DEFAULT_CORR_DEGREE: u64 = 1 << 10;

/// A range-query workload over `u64` keys.
#[derive(Debug, Clone)]
pub enum Workload {
    Uniform {
        rmax: u64,
    },
    Correlated {
        rmax: u64,
        corr_degree: u64,
    },
    /// Even mix: short correlated + long uniform (the §5.1 validation
    /// setting uses distinct range sizes for the two halves).
    Split {
        uniform_rmax: u64,
        correlated_rmax: u64,
        corr_degree: u64,
    },
    /// Left bounds drawn from a reserved pool of dataset-distributed values.
    Real {
        rmax: u64,
    },
    Point,
}

impl Workload {
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Uniform { .. } => "uniform",
            Workload::Correlated { .. } => "correlated",
            Workload::Split { .. } => "split",
            Workload::Real { .. } => "real",
            Workload::Point => "point",
        }
    }
}

/// Generates `[lo, hi]` closed ranges for a workload. `keys` is the sorted
/// key set (for Correlated); `pool` is the reserved left-bound pool (for
/// Real; may be empty otherwise).
pub struct QueryGen<'a> {
    workload: Workload,
    keys: &'a [u64],
    pool: &'a [u64],
    rng: StdRng,
}

impl<'a> QueryGen<'a> {
    pub fn new(workload: Workload, keys: &'a [u64], pool: &'a [u64], seed: u64) -> Self {
        QueryGen { workload, keys, pool, rng: StdRng::seed_from_u64(seed ^ 0x9E37_79B9) }
    }

    /// Next closed query range.
    pub fn next_range(&mut self) -> (u64, u64) {
        match self.workload {
            Workload::Uniform { rmax } => self.uniform(rmax),
            Workload::Correlated { rmax, corr_degree } => self.correlated(rmax, corr_degree),
            Workload::Split { uniform_rmax, correlated_rmax, corr_degree } => {
                if self.rng.gen::<bool>() {
                    self.uniform(uniform_rmax)
                } else {
                    self.correlated(correlated_rmax, corr_degree)
                }
            }
            Workload::Real { rmax } => {
                let left = if self.pool.is_empty() {
                    self.rng.gen::<u64>()
                } else {
                    self.pool[self.rng.gen_range(0..self.pool.len())]
                };
                let off = self.offset(rmax);
                (left, left.saturating_add(off))
            }
            Workload::Point => {
                let left = self.rng.gen::<u64>();
                (left, left)
            }
        }
    }

    fn offset(&mut self, rmax: u64) -> u64 {
        if rmax < 2 {
            rmax
        } else {
            self.rng.gen_range(2..=rmax)
        }
    }

    fn uniform(&mut self, rmax: u64) -> (u64, u64) {
        let off = self.offset(rmax);
        let left = self.rng.gen_range(0..=(u64::MAX - off));
        (left, left + off)
    }

    fn correlated(&mut self, rmax: u64, corr_degree: u64) -> (u64, u64) {
        let key = if self.keys.is_empty() {
            self.rng.gen::<u64>()
        } else {
            self.keys[self.rng.gen_range(0..self.keys.len())]
        };
        let left = key.saturating_add(1 + self.rng.gen_range(0..corr_degree.max(1)));
        let off = self.offset(rmax);
        (left, left.saturating_add(off))
    }

    /// Generate `count` queries that are *empty* with respect to the sorted
    /// `keys` (resampling overlapping ones), as the filters' sample queues
    /// and FPR measurements require.
    pub fn empty_ranges(&mut self, count: usize) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(count);
        let mut attempts = 0u64;
        while out.len() < count {
            let (lo, hi) = self.next_range();
            attempts += 1;
            if !range_overlaps_sorted(self.keys, lo, hi) {
                out.push((lo, hi));
            }
            if attempts > count as u64 * 1000 + 100_000 {
                // Dense key sets can make some (workload, range-size)
                // combinations almost never empty; callers handle a short
                // return (the paper's FPR is over empty queries only).
                eprintln!("warning: only {} of {count} empty queries found; giving up", out.len());
                return out;
            }
        }
        out
    }
}

/// Binary-search overlap test against a sorted key slice.
pub fn range_overlaps_sorted(keys: &[u64], lo: u64, hi: u64) -> bool {
    let idx = keys.partition_point(|&k| k < lo);
    idx < keys.len() && keys[idx] <= hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::Dataset;

    #[test]
    fn offsets_respect_rmax() {
        let keys = Dataset::Uniform.generate(1000, 1);
        let mut g = QueryGen::new(Workload::Uniform { rmax: 128 }, &keys, &[], 2);
        for _ in 0..500 {
            let (lo, hi) = g.next_range();
            assert!(hi - lo >= 2 && hi - lo <= 128);
        }
    }

    #[test]
    fn correlated_queries_land_near_keys() {
        let keys = Dataset::Uniform.generate(5000, 3);
        let mut g = QueryGen::new(
            Workload::Correlated { rmax: 16, corr_degree: DEFAULT_CORR_DEGREE },
            &keys,
            &[],
            4,
        );
        for _ in 0..500 {
            let (lo, _) = g.next_range();
            // Distance from the nearest key at or below lo.
            let idx = keys.partition_point(|&k| k <= lo);
            assert!(idx > 0, "correlated query must have a key below it");
            let dist = lo - keys[idx - 1];
            assert!(dist <= DEFAULT_CORR_DEGREE, "distance {dist}");
        }
    }

    #[test]
    fn empty_ranges_are_empty() {
        let keys = Dataset::Normal.generate(20_000, 5);
        let mut g =
            QueryGen::new(Workload::Correlated { rmax: 256, corr_degree: 1 << 10 }, &keys, &[], 6);
        for (lo, hi) in g.empty_ranges(300) {
            assert!(!range_overlaps_sorted(&keys, lo, hi));
        }
    }

    #[test]
    fn split_mixes_both_kinds() {
        let keys = Dataset::Uniform.generate(2000, 7);
        let mut g = QueryGen::new(
            Workload::Split { uniform_rmax: 1 << 20, correlated_rmax: 16, corr_degree: 256 },
            &keys,
            &[],
            8,
        );
        let mut near = 0;
        let n = 1000;
        for _ in 0..n {
            let (lo, _) = g.next_range();
            let idx = keys.partition_point(|&k| k <= lo);
            if idx > 0 && lo - keys[idx - 1] <= 256 + 1 {
                near += 1;
            }
        }
        assert!((300..700).contains(&near), "{near}/{n} correlated");
    }

    #[test]
    fn real_pool_is_respected() {
        let pool: Vec<u64> = (0..100u64).map(|i| i * 1_000_000).collect();
        let mut g = QueryGen::new(Workload::Real { rmax: 10 }, &[], &pool, 9);
        for _ in 0..200 {
            let (lo, _) = g.next_range();
            assert!(pool.contains(&lo));
        }
    }

    #[test]
    fn point_workload_is_degenerate_ranges() {
        let mut g = QueryGen::new(Workload::Point, &[], &[], 10);
        for _ in 0..100 {
            let (lo, hi) = g.next_range();
            assert_eq!(lo, hi);
        }
    }

    #[test]
    fn determinism_per_seed() {
        let keys = Dataset::Uniform.generate(100, 11);
        let ranges = || {
            let mut g = QueryGen::new(Workload::Uniform { rmax: 64 }, &keys, &[], 1);
            (0..50).map(|_| g.next_range()).collect::<Vec<_>>()
        };
        assert_eq!(ranges(), ranges());
    }
}
