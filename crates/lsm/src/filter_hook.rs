//! The filter integration point (§6.1): every SST file gets a range filter
//! built from its keys plus the current sample-query queue, through a
//! [`FilterFactory`]. This module defines the hook and [`ProteusFactory`],
//! the self-designing filter the paper evaluates. A store without filters
//! is a zero-budget one (`DbConfig::bits_per_key(0.0)`): its files never
//! call the factory and hold no filter.

use proteus_core::{KeySet, RangeFilter, SampleQueries};

/// Builds a range filter for one SST file.
///
/// The store calls this at every flush, compaction, and adaptive re-train
/// with the file's keys and the current sample of empty queries — which is
/// exactly the input the paper's self-designing filters need.
///
/// # Example
///
/// A custom factory plugging a fixed-design filter into the store — a
/// trie-less Proteus whose Bloom filter always hashes 48-bit prefixes,
/// whatever the sample says:
///
/// ```
/// use proteus_core::model::proteus::ProteusDesign;
/// use proteus_core::{KeySet, Proteus, ProteusOptions, RangeFilter, SampleQueries};
/// use proteus_lsm::FilterFactory;
///
/// struct Prefix48Factory;
///
/// impl FilterFactory for Prefix48Factory {
///     fn build(&self, keys: &KeySet, _samples: &SampleQueries, m_bits: u64)
///         -> Box<dyn RangeFilter>
///     {
///         let design = ProteusDesign::bloom_only(48, 0.0);
///         Box::new(Proteus::build_with_design(keys, design, m_bits, &ProteusOptions::default()))
///     }
///     fn name(&self) -> String {
///         "prefix48".into()
///     }
/// }
///
/// let keys = KeySet::from_u64(&[100, 200, 300]);
/// let mut samples = SampleQueries::from_u64(&[(400, 450)]);
/// samples.retain_empty(&keys);
/// let filter = Prefix48Factory.build(&keys, &samples, 3 * 1024);
/// assert!(filter.may_contain(&proteus_core::key::u64_key(200)));
/// ```
pub trait FilterFactory: Send + Sync {
    /// `keys` — the file's key set; `samples` — recent empty queries,
    /// already certified empty w.r.t. `keys`; `m_bits` — the memory budget
    /// for this filter, never 0 (a file whose budget rounds to zero bits
    /// gets no filter, and the factory is not called).
    fn build(&self, keys: &KeySet, samples: &SampleQueries, m_bits: u64) -> Box<dyn RangeFilter>;

    /// Display name for experiment output.
    fn name(&self) -> String;
}

/// Factory producing self-designing Proteus filters (the default
/// integration the paper evaluates).
#[derive(Debug, Clone, Default)]
pub struct ProteusFactory {
    /// Options forwarded to every `Proteus::train` call.
    pub options: proteus_core::ProteusOptions,
}

impl FilterFactory for ProteusFactory {
    fn build(&self, keys: &KeySet, samples: &SampleQueries, m_bits: u64) -> Box<dyn RangeFilter> {
        Box::new(proteus_core::Proteus::train(keys, samples, m_bits, &self.options))
    }
    fn name(&self) -> String {
        "proteus".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proteus_factory_builds_working_filters() {
        let keys = KeySet::from_u64(&[100, 200, 300]);
        let mut samples = SampleQueries::from_u64(&[(400, 500)]);
        samples.retain_empty(&keys);
        let f = ProteusFactory::default().build(&keys, &samples, 1024);
        assert!(f.may_contain(&proteus_core::key::u64_key(200)));
        assert!(f.size_bits() > 0);
    }
}
