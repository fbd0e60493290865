//! [`FilterFactory`] implementations plugging every baseline into the LSM
//! harness (§6: filters are rebuilt per SST file at flush/compaction time).

use proteus_core::{KeySet, RangeFilter, SampleQueries};
use proteus_filters::{Rosetta, RosettaOptions, Surf, SurfSuffix};
use proteus_lsm::FilterFactory;

/// SuRF factory with a fixed suffix mode, or budget-adaptive suffix sizing
/// when `adaptive` is set (uses whatever suffix bits fit the per-key
/// budget, preferring real bits — the configuration that §6's experiments
/// show as SuRF's strongest for ranges).
#[derive(Debug, Clone)]
pub struct SurfFactory {
    pub mode: SurfSuffix,
    pub adaptive: bool,
}

impl Default for SurfFactory {
    fn default() -> Self {
        SurfFactory { mode: SurfSuffix::Real(4), adaptive: true }
    }
}

impl FilterFactory for SurfFactory {
    fn build(&self, keys: &KeySet, _samples: &SampleQueries, m_bits: u64) -> Box<dyn RangeFilter> {
        if !self.adaptive {
            return Box::new(Surf::build(keys, self.mode));
        }
        // Fit the largest real-suffix configuration within the budget.
        let base = Surf::build(keys, SurfSuffix::Base);
        if base.size_bits() >= m_bits || keys.is_empty() {
            return Box::new(base);
        }
        let spare_per_key = (m_bits - base.size_bits()) / keys.len().max(1) as u64;
        let bits = spare_per_key.min(16) as u32;
        if bits == 0 {
            Box::new(base)
        } else {
            Box::new(Surf::build(keys, SurfSuffix::Real(bits)))
        }
    }

    fn name(&self) -> String {
        if self.adaptive {
            "surf".to_string()
        } else {
            format!("surf-{:?}", self.mode)
        }
    }
}

/// Rosetta factory: tunes per SST with the sampled queries.
#[derive(Debug, Clone, Default)]
pub struct RosettaFactory {
    pub options: RosettaOptions,
}

impl FilterFactory for RosettaFactory {
    fn build(&self, keys: &KeySet, samples: &SampleQueries, m_bits: u64) -> Box<dyn RangeFilter> {
        Box::new(Rosetta::train(keys, samples, m_bits, &self.options))
    }
    fn name(&self) -> String {
        "rosetta".to_string()
    }
}

/// Any factory, plus a tally of what it built: filter names carry the design
/// — for Proteus `(l1 [encoding], l2)` — so a figure run can show which
/// files got which coarse stage without the store knowing about designs.
pub struct DesignTally<F> {
    inner: F,
    built: std::sync::Mutex<std::collections::BTreeMap<String, usize>>,
}

impl<F: FilterFactory> DesignTally<F> {
    pub fn new(inner: F) -> Self {
        DesignTally { inner, built: Default::default() }
    }

    /// `3x Proteus(l1=20 span, l2=58), 1x Proteus(l1=0, l2=55)` — every
    /// design built so far (compactions' included) with its file count.
    pub fn summary(&self) -> String {
        let built = self.built.lock().unwrap();
        built.iter().map(|(name, n)| format!("{n}x {name}")).collect::<Vec<_>>().join(", ")
    }
}

impl<F: FilterFactory> FilterFactory for DesignTally<F> {
    fn build(&self, keys: &KeySet, samples: &SampleQueries, m_bits: u64) -> Box<dyn RangeFilter> {
        let filter = self.inner.build(keys, samples, m_bits);
        *self.built.lock().unwrap().entry(filter.name()).or_default() += 1;
        filter
    }
    fn name(&self) -> String {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_core::key::u64_key;

    #[test]
    fn factories_produce_working_filters() {
        let keys = KeySet::from_u64(&(0..500u64).map(|i| i * 1313).collect::<Vec<_>>());
        let mut samples = SampleQueries::from_u64(&[(5, 10), (700_000, 700_100)]);
        samples.retain_empty(&keys);
        let m = 500 * 14;
        let factories: Vec<Box<dyn FilterFactory>> = vec![
            Box::new(SurfFactory::default()),
            Box::new(SurfFactory { mode: SurfSuffix::Hash(6), adaptive: false }),
            Box::new(RosettaFactory::default()),
        ];
        for f in factories {
            let filter = f.build(&keys, &samples, m);
            assert!(filter.may_contain(&u64_key(1313)), "{}", f.name());
            assert!(filter.size_bits() > 0);
        }
    }

    #[test]
    fn adaptive_surf_grows_with_budget() {
        let keys = KeySet::from_u64(
            &(0..2000u64).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15)).collect::<Vec<_>>(),
        );
        let samples = SampleQueries::new(8);
        let f = SurfFactory::default();
        let small = f.build(&keys, &samples, 2000 * 11);
        let large = f.build(&keys, &samples, 2000 * 20);
        assert!(large.size_bits() > small.size_bits());
    }
}
