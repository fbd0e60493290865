//! The persistent filter format, pinned and abused.
//!
//! * **Golden fixtures** — small encoded filters committed under
//!   `tests/fixtures/v2/` assert byte-exact encode output and successful
//!   decode, freezing the current (v2) wire format against accidental
//!   drift. To regenerate after an *intentional* format change (which must
//!   also bump `FORMAT_VERSION`), run:
//!   `PROTEUS_REGEN_FIXTURES=1 cargo test --test filter_codec`.
//! * **v1 rejection** — the PR-2 era fixtures under `tests/fixtures/v1/`
//!   (never regenerated) carry the retired envelope version 1, which
//!   could only ride in SST generations the store no longer opens: every
//!   one must fail decode with `CodecError::UnsupportedVersion(1)`.
//! * **Fuzz-style robustness** — decoding arbitrary bytes, truncations at
//!   every prefix length, and single-byte corruptions of valid encodings
//!   must return `Err(CodecError)`: never a panic, never a filter that
//!   could produce a false negative.

use proteus::core::model::proteus::ProteusDesign;
use proteus::core::model::two_pbf::TwoPbfDesign;
use proteus::core::{
    NoFilter, OnePbf, OnePbfOptions, Proteus, ProteusOptions, RangeFilter, TwoPbf,
    TwoPbfFilterOptions,
};
use proteus::filters::{FilterCodec, Rosetta, RosettaOptions, Surf, SurfSuffix};
use std::path::PathBuf;

fn splitmix(s: &mut u64) -> u64 {
    *s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *s;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The frozen fixture key set: 64 deterministic keys. Do not change — the
/// committed fixtures encode filters built over exactly these keys.
fn fixture_keys() -> proteus::core::KeySet {
    let mut s = 0x0F1E_2D3C_4B5A_6978u64;
    let mut keys: Vec<u64> = (0..64).map(|_| splitmix(&mut s)).collect();
    keys.sort_unstable();
    proteus::core::KeySet::from_u64(&keys)
}

/// Every fixture: (file name, deterministically constructed filter).
///
/// All constructions use *fixed* designs — never the trained model — so
/// future model improvements cannot shift fixture bytes; only a wire-format
/// change can, and that is exactly what this test is meant to catch.
fn fixtures() -> Vec<(&'static str, Box<dyn RangeFilter>)> {
    let ks = fixture_keys();
    let m = 64 * 16;
    vec![
        ("nofilter.bin", Box::new(NoFilter) as Box<dyn RangeFilter>),
        (
            "proteus_l16_l40.bin",
            Box::new(Proteus::build_with_design(
                &ks,
                ProteusDesign {
                    trie_depth_bits: 16,
                    bloom_prefix_len: 40,
                    expected_fpr: 0.015625,
                    trie_mem_bits: 512,
                },
                m,
                &ProteusOptions::default(),
            )),
        ),
        (
            "one_pbf_l32.bin",
            Box::new(OnePbf::build_with_prefix_len(
                &ks,
                ProteusDesign::bloom_only(32, 0.03125),
                m,
                &OnePbfOptions::default(),
            )),
        ),
        (
            "two_pbf_l24_l48.bin",
            Box::new(TwoPbf::build_with_design(
                &ks,
                TwoPbfDesign { l1: 24, l2: 48, split: 0.5, expected_fpr: 0.0625 },
                m,
                &TwoPbfFilterOptions::default(),
            )),
        ),
        ("surf_base.bin", Box::new(Surf::build(&ks, SurfSuffix::Base))),
        ("surf_hash8.bin", Box::new(Surf::build(&ks, SurfSuffix::Hash(8)))),
        ("surf_real8.bin", Box::new(Surf::build(&ks, SurfSuffix::Real(8)))),
        (
            "rosetta_4l.bin",
            Box::new(Rosetta::build_with_levels(&ks, m, 4, 0.7, &RosettaOptions::default())),
        ),
    ]
}

fn fixture_dir(version: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(version)
}

/// The deterministic training fingerprint persisted in the fingerprinted
/// golden fixture: queries at fixed positions/lengths over the fixture
/// key range.
fn fixture_sketch() -> proteus::core::QuerySketch {
    let ks = fixture_keys();
    let bounds: Vec<(Vec<u8>, Vec<u8>)> = (0..256u64)
        .map(|i| {
            let lo = i.wrapping_mul(0x0123_4567_89AB_CDEF);
            (lo.to_be_bytes().to_vec(), lo.saturating_add(1 + i * 512).to_be_bytes().to_vec())
        })
        .collect();
    proteus::core::QuerySketch::from_queries(
        bounds.iter().map(|(l, h)| (l.as_slice(), h.as_slice())),
        ks.key(0),
        ks.key(ks.len() - 1),
    )
}

#[test]
fn golden_fixtures_pin_the_v2_wire_format() {
    let dir = fixture_dir("v2");
    let regen = std::env::var_os("PROTEUS_REGEN_FIXTURES").is_some();
    if regen {
        std::fs::create_dir_all(&dir).unwrap();
    }
    // Every kind without a fingerprint, plus one fingerprinted envelope
    // (the sketch section is part of the wire format too).
    let mut encodings: Vec<(String, Vec<u8>)> = fixtures()
        .into_iter()
        .map(|(name, f)| (name.to_string(), FilterCodec::encode(f.as_ref()).unwrap()))
        .collect();
    let fingerprinted = fixtures().remove(1).1; // the Proteus fixture
    encodings.push((
        "proteus_l16_l40_fp.bin".to_string(),
        FilterCodec::encode_with_fingerprint(fingerprinted.as_ref(), &fixture_sketch()).unwrap(),
    ));
    for (name, encoded) in encodings {
        let path = dir.join(&name);
        if regen {
            std::fs::write(&path, &encoded).unwrap();
            continue;
        }
        let golden = std::fs::read(&path).unwrap_or_else(|e| {
            panic!("missing fixture {name} ({e}); run with PROTEUS_REGEN_FIXTURES=1")
        });
        assert_eq!(
            encoded, golden,
            "{name}: encode output drifted from the committed v2 fixture — \
             if the format change is intentional, bump FORMAT_VERSION and \
             regenerate the fixtures"
        );
        // The committed bytes must also decode into a working filter.
        let decoded = FilterCodec::decode(&golden).unwrap();
        assert!(!decoded.degraded, "{name}");
    }
}

#[test]
fn v2_fingerprint_fixture_roundtrips_sketch() {
    let golden = std::fs::read(fixture_dir("v2").join("proteus_l16_l40_fp.bin"));
    let Ok(golden) = golden else {
        return; // regen run hasn't produced it yet; the golden test covers it
    };
    let decoded = FilterCodec::decode(&golden).unwrap();
    let sketch = decoded.fingerprint.expect("fingerprinted fixture must carry its sketch");
    assert_eq!(sketch, fixture_sketch());
    assert_eq!(sketch.divergence(&fixture_sketch()), 0.0);
}

#[test]
fn golden_v1_fixtures_are_rejected_as_an_unsupported_version() {
    // The v1 fixtures are frozen history: bytes written by the PR-2 codec.
    // Envelope v1 is retired together with the SST generations that could
    // carry it; its bytes must be named as such, never misread or panicked
    // on — intact, truncated or corrupted.
    use proteus::core::CodecError;
    let dir = fixture_dir("v1");
    for (name, _) in fixtures() {
        let golden = std::fs::read(dir.join(name))
            .unwrap_or_else(|e| panic!("missing frozen v1 fixture {name} ({e})"));
        assert!(
            matches!(FilterCodec::decode(&golden), Err(CodecError::UnsupportedVersion(1))),
            "{name}: a v1 envelope must be rejected by version"
        );
        for cut in 0..golden.len() {
            assert!(FilterCodec::decode(&golden[..cut]).is_err(), "{name} cut {cut}");
        }
        for i in 0..golden.len() {
            let mut bad = golden.clone();
            bad[i] ^= 0x01;
            assert!(FilterCodec::decode(&bad).is_err(), "{name} corrupt byte {i}");
        }
    }
}

#[test]
fn truncation_at_every_prefix_length_errors() {
    for (name, filter) in fixtures() {
        let encoded = FilterCodec::encode(filter.as_ref()).unwrap();
        for cut in 0..encoded.len() {
            assert!(
                FilterCodec::decode(&encoded[..cut]).is_err(),
                "{name}: truncation to {cut}/{} bytes must fail decode",
                encoded.len()
            );
        }
    }
}

#[test]
fn single_byte_corruption_anywhere_errors() {
    for (name, filter) in fixtures() {
        let encoded = FilterCodec::encode(filter.as_ref()).unwrap();
        for i in 0..encoded.len() {
            for flip in [0x01u8, 0xFF] {
                let mut bad = encoded.clone();
                bad[i] ^= flip;
                assert!(
                    FilterCodec::decode(&bad).is_err(),
                    "{name}: corrupting byte {i} (xor {flip:#04x}) must fail decode"
                );
            }
        }
    }
}

/// `filter`'s payload, `patch`ed and sealed again: the envelope and its CRC
/// are valid, so only the kind's own validation stands between the bytes
/// and a live filter.
fn resealed(filter: &dyn RangeFilter, patch: impl FnOnce(&mut [u8])) -> Vec<u8> {
    let (kind, mut payload) = filter.encode_payload().unwrap();
    patch(&mut payload);
    proteus::core::codec::seal(kind, &payload)
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

#[test]
fn embedded_bloom_geometry_must_match_the_filter_header() {
    use proteus::core::CodecError;
    let ks = fixture_keys();
    let mut by_name: std::collections::HashMap<_, _> = fixtures().into_iter().collect();
    let trieless = Proteus::build_with_design(
        &ks,
        ProteusDesign {
            trie_depth_bits: 0,
            bloom_prefix_len: 40,
            expected_fpr: 0.0,
            trie_mem_bits: 0,
        },
        64 * 16,
        &ProteusOptions::default(),
    );
    // Per kind: the filter, the payload offset of its first embedded prefix
    // Bloom filter (which opens with its own `prefix_len`, `width` u32s),
    // and the prefix length the enclosing header gives that stage.
    let cases: Vec<(Box<dyn RangeFilter>, usize, u32)> = vec![
        (Box::new(trieless), 45, 40),
        (by_name.remove("one_pbf_l32.bin").unwrap(), 28, 32),
        (by_name.remove("two_pbf_l24_l48.bin").unwrap(), 44, 24),
        (by_name.remove("rosetta_4l.bin").unwrap(), 24, 61),
    ];
    for (filter, at, prefix_len) in cases {
        let name = filter.name();
        let (_, payload) = filter.encode_payload().unwrap();
        assert_eq!((u32_at(&payload, at), u32_at(&payload, at + 4)), (prefix_len, 8), "{name}");
        // A stage hashing a different prefix length than the header walks
        // (false negatives), or keyed wider than the header's keys.
        for (field, value) in [(at, prefix_len - 8), (at + 4, 16)] {
            let bad = resealed(filter.as_ref(), |p| {
                p[field..field + 4].copy_from_slice(&value.to_le_bytes());
            });
            assert!(
                matches!(FilterCodec::decode(&bad), Err(CodecError::Invalid(_))),
                "{name}: embedded field at {field} := {value} must be rejected"
            );
        }
    }

    // The release-mode panic this guards against: a 1PBF over 16-byte keys
    // relabelled as a filter over 8-byte keys — with a prefix past 64 bits
    // its first probe would index past the end of the query key.
    let wide: Vec<Vec<u8>> = (0..64u8).map(|i| vec![i; 16]).collect();
    let wide_refs: Vec<&[u8]> = wide.iter().map(Vec::as_slice).collect();
    let wide_ks = proteus::core::KeySet::from_strings(&wide_refs, 16);
    let mut samples = proteus::core::SampleQueries::new(16);
    samples.push(&[0xF0; 16], &[0xF1; 16]);
    let one = OnePbf::train(&wide_ks, &samples, 64 * 16, &OnePbfOptions::default());
    let relabelled = resealed(&one, |p| p[..4].copy_from_slice(&8u32.to_le_bytes()));
    assert!(matches!(FilterCodec::decode(&relabelled), Err(CodecError::Invalid(_))));
}

#[test]
fn arbitrary_bytes_error_without_panicking() {
    let mut s = 0xACE0_FBA5_E000_0001u64;
    for trial in 0..200 {
        let len = (splitmix(&mut s) % 512) as usize;
        let blob: Vec<u8> = (0..len).map(|_| splitmix(&mut s) as u8).collect();
        assert!(FilterCodec::decode(&blob).is_err(), "trial {trial} len {len}");
    }
    // Blobs that start with the right magic but carry garbage after it.
    for trial in 0..200 {
        let len = 4 + (splitmix(&mut s) % 256) as usize;
        let mut blob: Vec<u8> = (0..len).map(|_| splitmix(&mut s) as u8).collect();
        blob[..4].copy_from_slice(b"PRFC");
        assert!(FilterCodec::decode(&blob).is_err(), "magic trial {trial}");
    }
}

#[test]
fn future_filter_kind_degrades_to_nofilter_not_error() {
    // Forward compatibility: a valid envelope from a newer build with an
    // unknown kind tag keeps serving (degraded) instead of failing the DB.
    let sealed = proteus::core::codec::seal_raw(42, &[1, 2, 3]);
    let decoded = FilterCodec::decode(&sealed).unwrap();
    assert!(decoded.degraded);
    assert_eq!(decoded.filter.name(), "NoFilter");
}
