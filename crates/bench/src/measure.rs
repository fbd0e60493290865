//! Measurement helpers: observed FPR over empty query sets and wall-clock
//! timing.

use proteus_core::{RangeFilter, SampleQueries};
use std::time::Instant;

/// Observed false positive rate of `filter` over a set of queries known to
/// be empty: every positive is a false positive.
pub fn measure_fpr<F: RangeFilter + ?Sized>(filter: &F, empty_queries: &SampleQueries) -> f64 {
    if empty_queries.is_empty() {
        return 0.0;
    }
    let fps = empty_queries.iter().filter(|(lo, hi)| filter.may_contain_range(lo, hi)).count();
    fps as f64 / empty_queries.len() as f64
}

/// Time a closure, returning its result and elapsed milliseconds.
pub struct Timed<T> {
    pub value: T,
    pub millis: f64,
}

impl<T> Timed<T> {
    pub fn run(f: impl FnOnce() -> T) -> Timed<T> {
        let t0 = Instant::now();
        let value = f();
        Timed { value, millis: t0.elapsed().as_secs_f64() * 1e3 }
    }
}
