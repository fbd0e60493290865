//! # proteus-filters
//!
//! The state-of-the-art baseline range filters the Proteus paper evaluates
//! against (§2, §5, §6):
//!
//! * [`Surf`] — the Succinct Range Filter (deterministic; LOUDS-DS trie
//!   with Base/Hash/Real suffix modes);
//! * [`Rosetta`] — the multi-level prefix-Bloom segment-tree filter
//!   (probabilistic; dyadic decomposition with doubting).
//!
//! Both implement [`proteus_core::RangeFilter`], so they can be swapped
//! into the LSM harness and every benchmark interchangeably with Proteus.
//!
//! This crate also hosts [`FilterCodec`], the versioned binary
//! serialization entry point for *every* filter in the workspace (it is
//! the lowest crate that can see all of their types); the LSM harness uses
//! it to embed filters in SST files and reload them on reopen.

#![warn(missing_docs)]

pub mod codec;
pub mod rosetta;
pub mod surf;

pub use codec::{DecodedFilter, FilterCodec};
pub use rosetta::{Rosetta, RosettaOptions};
pub use surf::{Surf, SurfSuffix};

#[cfg(test)]
mod cross_filter_tests {
    use super::*;
    use proteus_core::key::u64_key;
    use proteus_core::{KeySet, RangeFilter, SampleQueries};

    fn splitmix(s: &mut u64) -> u64 {
        *s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Every filter in the workspace obeys the same no-false-negative
    /// contract through the trait object interface.
    #[test]
    fn all_filters_honor_the_contract() {
        let mut s = 42u64;
        let keys: Vec<u64> = (0..1500).map(|_| splitmix(&mut s)).collect();
        let ks = KeySet::from_u64(&keys);
        let mut samples = SampleQueries::new(8);
        while samples.len() < 200 {
            let lo = splitmix(&mut s) % (u64::MAX - 1000);
            let hi = lo + splitmix(&mut s) % 512;
            if !ks.range_overlaps(&u64_key(lo), &u64_key(hi)) {
                samples.push(&u64_key(lo), &u64_key(hi));
            }
        }
        let m = 1500 * 12;
        let filters: Vec<Box<dyn RangeFilter>> = vec![
            Box::new(Surf::build(&ks, SurfSuffix::Base)),
            Box::new(Surf::build(&ks, SurfSuffix::Real(6))),
            Box::new(Surf::build(&ks, SurfSuffix::Hash(6))),
            Box::new(Rosetta::train(&ks, &samples, m, &RosettaOptions::default())),
            Box::new(proteus_core::Proteus::train(
                &ks,
                &samples,
                m,
                &proteus_core::ProteusOptions::default(),
            )),
        ];
        for f in &filters {
            for &k in keys.iter().step_by(31) {
                assert!(f.may_contain(&u64_key(k)), "{}", f.name());
                let lo = u64_key(k.saturating_sub(7));
                let hi = u64_key(k.saturating_add(7));
                assert!(f.may_contain_range(&lo, &hi), "{}", f.name());
            }
            assert!(f.size_bits() > 0);
        }
    }
}
