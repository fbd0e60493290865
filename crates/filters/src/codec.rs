//! `FilterCodec`: the one-stop encode/decode entry point for every range
//! filter in the workspace.
//!
//! Encoding asks the filter for its `(kind, payload)` via
//! [`RangeFilter::encode_payload`] and seals it in the versioned envelope
//! (`proteus_core::codec`: magic, format version, kind tag, length,
//! CRC-32; the section older builds filled with a training fingerprint is
//! written empty and skipped on read). Decoding verifies the envelope and
//! dispatches on the kind tag to the concrete decoder:
//!
//! * corrupt, truncated or version-mismatched bytes → `Err(CodecError)`,
//!   never a panic;
//! * a *valid* envelope carrying a kind tag this build does not know (a
//!   filter from a newer build, or the retired tag 0) →
//!   `Err(CodecError::UnknownTag)`. The SST reader treats it like any other
//!   undecodable block: the file opens and serves without a filter (every
//!   Seek just pays the I/O for it).
//!
//! This module lives in `proteus-filters` because it is the lowest crate
//! that can see every serializable filter type (Proteus and 2PBF from
//! `proteus-core` plus SuRF and Rosetta defined here). 1PBF is a trie-less
//! Proteus and encodes as one; its former kind tag still decodes.

use crate::rosetta::Rosetta;
use crate::surf::Surf;
use proteus_core::codec::{seal, unseal, ByteReader, CodecError, FilterKind};
use proteus_core::{Proteus, RangeFilter, TwoPbf};

/// Outcome of a successful decode.
pub struct DecodedFilter {
    /// The reconstructed filter, ready to serve queries.
    pub filter: Box<dyn RangeFilter>,
}

/// Versioned binary serialization for every range filter in the workspace.
///
/// # Example
///
/// ```
/// use proteus_core::{KeySet, Proteus, ProteusOptions, RangeFilter, SampleQueries};
/// use proteus_core::key::u64_key;
/// use proteus_filters::FilterCodec;
///
/// let keys = KeySet::from_u64(&[1_000, 2_000, 3_000]);
/// let mut samples = SampleQueries::from_u64(&[(1_200, 1_300)]);
/// samples.retain_empty(&keys);
/// let filter = Proteus::train(&keys, &samples, 10 * keys.len() as u64,
///                             &ProteusOptions::default());
///
/// let bytes = FilterCodec::encode(&filter)?;
/// let decoded = FilterCodec::decode(&bytes)?;
/// assert_eq!(decoded.filter.name(), filter.name());
/// assert!(decoded.filter.may_contain(&u64_key(2_000))); // never a false negative
/// # Ok::<(), proteus_core::CodecError>(())
/// ```
pub struct FilterCodec;

impl FilterCodec {
    /// Encode `filter` into a self-describing envelope.
    ///
    /// Never fails: every [`RangeFilter`] has a persistent form. The
    /// `Result` stays so callers' error handling keeps compiling.
    pub fn encode(filter: &dyn RangeFilter) -> Result<Vec<u8>, CodecError> {
        let (kind, payload) = filter.encode_payload();
        Ok(seal(kind, &payload))
    }

    /// Decode an envelope produced by [`FilterCodec::encode`].
    pub fn decode(bytes: &[u8]) -> Result<DecodedFilter, CodecError> {
        let u = unseal(bytes)?;
        let kind = FilterKind::from_tag(u.tag)
            .ok_or(CodecError::UnknownTag { what: "filter kind", tag: u.tag })?;
        let mut r = ByteReader::new(u.payload);
        let filter: Box<dyn RangeFilter> = match kind {
            FilterKind::Proteus => Box::new(Proteus::decode_from(&mut r)?),
            FilterKind::OnePbf => Box::new(Proteus::decode_one_pbf_from(&mut r)?),
            FilterKind::TwoPbf => Box::new(TwoPbf::decode_from(&mut r)?),
            FilterKind::Surf => Box::new(Surf::decode_from(&mut r)?),
            FilterKind::Rosetta => Box::new(Rosetta::decode_from(&mut r)?),
        };
        r.finish()?;
        Ok(DecodedFilter { filter })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surf::SurfSuffix;
    use proteus_core::key::u64_key;
    use proteus_core::model::proteus::ProteusModel;
    use proteus_core::{KeySet, ProteusOptions, SampleQueries, TwoPbfFilterOptions};

    fn fixture_keys() -> (Vec<u64>, KeySet, SampleQueries) {
        let keys: Vec<u64> = (0..800u64).map(|i| i.wrapping_mul(0x9E37_79B9) << 16).collect();
        let ks = KeySet::from_u64(&keys);
        let mut samples = SampleQueries::from_u64(
            &(0..200u64).map(|i| (i * 77 + 13, i * 77 + 50)).collect::<Vec<_>>(),
        );
        samples.retain_empty(&ks);
        (keys, ks, samples)
    }

    fn workspace_filters() -> Vec<Box<dyn RangeFilter>> {
        let (_, ks, samples) = fixture_keys();
        let m = 800 * 12;
        let one_pbf = ProteusModel::bloom_only(&ks, &samples).best_design(&ks, m);
        vec![
            Box::new(Proteus::train(&ks, &samples, m, &ProteusOptions::default())),
            Box::new(Proteus::build_with_design(&ks, one_pbf, m, &ProteusOptions::default())),
            Box::new(TwoPbf::train(&ks, &samples, m, &TwoPbfFilterOptions::default())),
            Box::new(Surf::build(&ks, SurfSuffix::Base)),
            Box::new(Surf::build(&ks, SurfSuffix::Hash(8))),
            Box::new(Surf::build(&ks, SurfSuffix::Real(8))),
            Box::new(Rosetta::train(&ks, &samples, m, &crate::RosettaOptions::default())),
        ]
    }

    #[test]
    fn every_kind_roundtrips_with_identical_answers() {
        let (keys, _, _) = fixture_keys();
        for f in workspace_filters() {
            let bytes = FilterCodec::encode(f.as_ref()).unwrap();
            let g = FilterCodec::decode(&bytes).unwrap().filter;
            assert_eq!(g.name(), f.name());
            assert_eq!(g.size_bits(), f.size_bits(), "{}", f.name());
            for &k in keys.iter().step_by(17) {
                let key = u64_key(k);
                assert_eq!(g.may_contain(&key), f.may_contain(&key), "{} point", f.name());
                let lo = u64_key(k.saturating_sub(99));
                let hi = u64_key(k.saturating_add(99));
                assert_eq!(
                    g.may_contain_range(&lo, &hi),
                    f.may_contain_range(&lo, &hi),
                    "{} range",
                    f.name()
                );
            }
            // Off-key probes must agree too (false positives included).
            for q in (0..5000u64).step_by(37) {
                let key = u64_key(q.wrapping_mul(0xDEAD_BEEF_CAFE));
                assert_eq!(g.may_contain(&key), f.may_contain(&key), "{} fp probe", f.name());
            }
        }
    }

    #[test]
    fn unknown_kind_is_an_unknown_tag() {
        // A future kind, and the reserved tag 0, with and without a payload.
        for (tag, payload) in [(200, &b"future payload"[..]), (0, &[][..])] {
            let sealed = proteus_core::codec::seal_raw(tag, payload);
            let err = FilterCodec::decode(&sealed).err();
            assert_eq!(err, Some(CodecError::UnknownTag { what: "filter kind", tag }));
        }
    }

    #[test]
    fn corruptions_and_truncations_error_never_panic() {
        let f = Surf::build(&KeySet::from_u64(&[1, 500, 90_000]), SurfSuffix::Real(4));
        let bytes = FilterCodec::encode(&f).unwrap();
        for cut in 0..bytes.len() {
            assert!(FilterCodec::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x41;
            assert!(FilterCodec::decode(&bad).is_err(), "corrupt byte {i}");
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic() {
        let mut s = 0xFEED_FACEu64;
        for len in [0usize, 1, 7, 16, 64, 1024] {
            let blob: Vec<u8> = (0..len)
                .map(|_| {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    s as u8
                })
                .collect();
            assert!(FilterCodec::decode(&blob).is_err(), "len {len}");
        }
    }
}
