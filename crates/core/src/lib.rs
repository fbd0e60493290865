//! # proteus-core
//!
//! A from-scratch reproduction of **Proteus: A Self-Designing Range Filter**
//! (Knorr, Lemaire, Lim et al., SIGMOD 2022).
//!
//! Proteus answers approximate range-emptiness queries: given a key set `K`
//! and a query `[lo, hi]`, it returns `false` only when `K ∩ [lo, hi] = ∅`
//! (no false negatives, tunable false positives). Its design — the exact
//! set of `l1`-bit key prefixes (a uniform-depth succinct trie, or a bitmap
//! over the keys' span where that is smaller) combined with a Bloom filter
//! over `l2`-bit prefixes — is chosen per workload by the Contextual Prefix
//! FPR (CPFPR) model from a sample of empty queries.
//!
//! ## Quick start
//!
//! ```
//! use proteus_core::{KeySet, SampleQueries, Proteus, ProteusOptions, key::u64_key};
//!
//! // The data to protect and a sample of (empty) queries like the workload's.
//! let keys = KeySet::from_u64(&[100, 2_000, 30_000, 400_000]);
//! let mut samples = SampleQueries::from_u64(&[(150, 170), (5_000, 5_100)]);
//! samples.retain_empty(&keys);
//!
//! // Self-design within a 10 bits-per-key budget.
//! let filter = Proteus::train(&keys, &samples, 10 * keys.len() as u64,
//!                             &ProteusOptions::default());
//!
//! assert!(filter.query_u64(2_000, 2_000));      // member: always positive
//! assert!(filter.query_u64(90, 110));           // overlapping range: positive
//! ```
//!
//! ## Crate layout
//!
//! * [`key`] — canonical keys, bit-level prefix arithmetic, and
//!   [`key::RegionWalk`], the one walk over a query's prefix regions that
//!   every prefix filter in the workspace probes through;
//! * [`keyset`] — sorted key set + the statistics Algorithm 1 extracts;
//! * [`sample`] — sample queries and Chernoff-bound sizing (Table 1);
//! * [`model`] — the CPFPR model: [`model::proteus`] for Proteus (Eq. 5 /
//!   Algorithm 1) and, as its trie-depth-0 slice, 1PBF (Eq. 1);
//!   [`model::two_pbf`] for 2PBF (Eq. 4);
//! * [`prefix_bf`] / [`trie`] — the two structural components;
//! * [`proteus`], [`two_pbf`] — the three Protean Range Filters evaluated
//!   in the paper: a coarse stage (a trie, nothing, a Bloom filter) in
//!   front of one prefix Bloom filter. 1PBF is a [`Proteus`] without a
//!   coarse stage: the design [`model::proteus::ProteusModel::bloom_only`]
//!   picks, built by [`Proteus::build_with_design`];
//! * [`counting`] — the §4.1 range-count extension (a counting Bloom
//!   filter behind the same coarse stage and walk).

#![warn(missing_docs)]

pub mod codec;
pub mod counting;
pub mod key;
pub mod keyset;
pub mod model;
pub mod prefix_bf;
pub mod proteus;
pub mod sample;
pub mod sync;
pub mod trie;
pub mod two_pbf;

pub use codec::{CodecError, FilterKind};
pub use counting::{CountingProteus, CountingProteusOptions};
pub use keyset::KeySet;
pub use proteus::{Proteus, ProteusOptions, DEFAULT_PROBE_CAP};
pub use sample::SampleQueries;
pub use trie::{CoarseEncoding, ProteusTrie};
pub use two_pbf::{TwoPbf, TwoPbfFilterOptions};

/// The common interface all range filters in this workspace implement —
/// Proteus (1PBF included) and 2PBF here; SuRF and Rosetta in
/// `proteus-filters`. The LSM harness plugs any of them into its SST files
/// through this trait, and every one of them persists (an SST without a
/// filter holds `None`).
pub trait RangeFilter: Send + Sync {
    /// May the closed range `[lo, hi]` contain a key? `false` is exact
    /// (guaranteed empty); `true` may be a false positive. Bounds are
    /// canonical fixed-width keys (see [`key`]).
    fn may_contain_range(&self, lo: &[u8], hi: &[u8]) -> bool;

    /// Point-query form.
    fn may_contain(&self, key: &[u8]) -> bool {
        self.may_contain_range(key, key)
    }

    /// Memory footprint of the filter in bits.
    fn size_bits(&self) -> u64;

    /// Human-readable name including the instantiated design.
    fn name(&self) -> String;

    /// Serialize this filter for the persistent SST filter block: the
    /// stable wire tag plus the kind-specific payload (no envelope — the
    /// caller seals it with magic, version and checksum; see
    /// [`codec::seal`]).
    fn encode_payload(&self) -> (FilterKind, Vec<u8>);

    /// The FPR the filter's design was chosen to have on the sample it was
    /// trained on (the CPFPR model's estimate, persisted with the design).
    /// `None` for filters that are not designed by a model (SuRF, Rosetta).
    fn expected_fpr(&self) -> Option<f64> {
        None
    }
}

/// Fixtures shared by the unit tests of the filters and their models.
#[cfg(test)]
pub(crate) mod testutil {
    use crate::key::u64_key;
    use crate::{KeySet, SampleQueries};

    /// SplitMix64: the deterministic stream every fixture draws from.
    pub fn splitmix(s: &mut u64) -> u64 {
        *s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `n` uniform ranges of 3..=`rmax + 2` keys that miss every key of
    /// `ks`, drawn from the stream `s`.
    pub fn empty_ranges(ks: &KeySet, n: usize, rmax: u64, s: &mut u64) -> SampleQueries {
        let mut q = SampleQueries::new(8);
        while q.len() < n {
            let lo = splitmix(s) % (u64::MAX - rmax - 2);
            let hi = lo + 2 + splitmix(s) % rmax;
            if !ks.range_overlaps(&u64_key(lo), &u64_key(hi)) {
                q.push(&u64_key(lo), &u64_key(hi));
            }
        }
        q
    }

    /// `n_keys` uniform keys, then `n_q` [`empty_ranges`] over them, from
    /// one stream seeded with `seed`.
    pub fn uniform_setup(
        n_keys: usize,
        n_q: usize,
        rmax: u64,
        seed: u64,
    ) -> (Vec<u64>, KeySet, SampleQueries) {
        let mut s = seed;
        let keys: Vec<u64> = (0..n_keys).map(|_| splitmix(&mut s)).collect();
        let ks = KeySet::from_u64(&keys);
        let q = empty_ranges(&ks, n_q, rmax, &mut s);
        (keys, ks, q)
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;
    use key::u64_key;

    #[test]
    fn trait_objects_dispatch() {
        let keys = KeySet::from_u64(&[10, 20, 30]);
        let samples = SampleQueries::from_u64(&[(12, 14), (40, 50)]);
        let one_pbf =
            model::proteus::ProteusModel::bloom_only(&keys, &samples).best_design(&keys, 512);
        let filters: Vec<Box<dyn RangeFilter>> = vec![
            Box::new(Proteus::train(&keys, &samples, 512, &ProteusOptions::default())),
            Box::new(Proteus::build_with_design(&keys, one_pbf, 512, &ProteusOptions::default())),
            Box::new(TwoPbf::train(&keys, &samples, 512, &TwoPbfFilterOptions::default())),
        ];
        for f in &filters {
            assert!(f.may_contain(&u64_key(20)), "{}", f.name());
            assert!(f.may_contain_range(&u64_key(25), &u64_key(35)), "{}", f.name());
            assert!(f.size_bits() > 0, "{}", f.name());
            assert!(!f.name().is_empty());
        }
    }
}
