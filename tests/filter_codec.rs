//! The persistent filter format, pinned and abused.
//!
//! * **Golden fixtures** — small encoded filters committed under
//!   `tests/fixtures/v2/` assert byte-exact encode output and successful
//!   decode, freezing the current (v2) wire format against accidental
//!   drift. To regenerate after an *intentional* format change (which must
//!   also bump `FORMAT_VERSION`), run:
//!   `PROTEUS_REGEN_FIXTURES=1 cargo test --test filter_codec`.
//!   `proteus_span_l9_l40.bin` pins the one addition since v2 was cut — the
//!   Proteus payload's span-bitmap flag bit; every older fixture is
//!   byte-identical to what it was before the bit existed.
//!   `proteus_l16_l40_fp.bin` is frozen history, like `v1/`: the Proteus
//!   fixture as builds that persisted a training fingerprint wrote it. It
//!   must still decode, and re-encodes to `proteus_l16_l40.bin`.
//!   `one_pbf_l32.bin` is frozen history too: a 1PBF under the kind tag it
//!   had while it was a type of its own. It must decode, answer as it did,
//!   and re-encodes as the trie-less Proteus it is. `nofilter.bin` is the
//!   pass-through "no filter" under tag 0, which is retired and never
//!   written: it must decode as `CodecError::UnknownTag`, and regeneration
//!   neither rewrites nor deletes it.
//! * **v1 rejection** — the PR-2 era fixtures under `tests/fixtures/v1/`
//!   (never regenerated) carry the retired envelope version 1, which
//!   could only ride in SST generations the store no longer opens: every
//!   one must fail decode with `CodecError::UnsupportedVersion(1)`.
//! * **Fuzz-style robustness** — decoding arbitrary bytes, truncations at
//!   every prefix length, and single-byte corruptions of valid encodings
//!   must return `Err(CodecError)`: never a panic, never a filter that
//!   could produce a false negative.

use proteus::core::codec::{seal, unseal};
use proteus::core::model::proteus::ProteusDesign;
use proteus::core::model::two_pbf::TwoPbfDesign;
use proteus::core::{
    CodecError, FilterKind, Proteus, ProteusOptions, RangeFilter, TwoPbf, TwoPbfFilterOptions,
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

/// The v2-only fixture: a Proteus whose coarse stage is a span bitmap (a
/// 9-bit depth has no other encoding). Not in [`fixtures`], which doubles as
/// the list of frozen v1 files.
fn span_fixture() -> (&'static str, Box<dyn RangeFilter>) {
    let design = ProteusDesign {
        trie_depth_bits: 9,
        bloom_prefix_len: 40,
        expected_fpr: 0.015625,
        trie_mem_bits: 512,
    };
    let filter =
        Proteus::build_with_design(&fixture_keys(), design, 64 * 16, &ProteusOptions::default());
    assert_eq!(filter.coarse_encoding(), Some(proteus::core::CoarseEncoding::SpanBitmap));
    ("proteus_span_l9_l40.bin", Box::new(filter))
}

/// The 1PBF fixture, written under [`FilterKind::OnePbf`], which nothing
/// writes any more: frozen in `v1/` and `v2/` alike.
const ONE_PBF_FIXTURE: &str = "one_pbf_l32.bin";

/// The retired tag-0 "no filter" (an empty payload), which nothing writes
/// any more: frozen in `v1/` and `v2/` alike.
const NO_FILTER_FIXTURE: &str = "nofilter.bin";

/// Every fixture of the current format.
fn current_fixtures() -> Vec<(&'static str, Box<dyn RangeFilter>)> {
    fixtures().into_iter().chain([span_fixture()]).collect()
}

fn fixture_dir(version: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(version)
}

#[test]
fn golden_fixtures_pin_the_v2_wire_format() {
    let dir = fixture_dir("v2");
    let regen = std::env::var_os("PROTEUS_REGEN_FIXTURES").is_some();
    if regen {
        std::fs::create_dir_all(&dir).unwrap();
    }
    for (name, filter) in current_fixtures() {
        let encoded = FilterCodec::encode(filter.as_ref()).unwrap();
        let path = dir.join(name);
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
        assert!(FilterCodec::decode(&golden).is_ok(), "{name}");
    }
}

#[test]
fn v2_fingerprinted_fixture_decodes_and_reencodes_without_it() {
    // The envelope's fingerprint section is stepped over on read (the CRC
    // still covers it), so a filter block written with one still opens,
    // and what it decodes to encodes as the plain fixture.
    let dir = fixture_dir("v2");
    let read = |name: &str| std::fs::read(dir.join(name)).unwrap();
    let (fingerprinted, plain) = (read("proteus_l16_l40_fp.bin"), read("proteus_l16_l40.bin"));
    assert!(fingerprinted.len() > plain.len());
    let decoded = FilterCodec::decode(&fingerprinted).unwrap();
    assert_eq!(FilterCodec::encode(decoded.filter.as_ref()).unwrap(), plain);
}

#[test]
fn v2_one_pbf_fixture_decodes_as_a_trieless_proteus() {
    let golden = std::fs::read(fixture_dir("v2").join(ONE_PBF_FIXTURE)).unwrap();
    assert_eq!(unseal(&golden).unwrap().tag, FilterKind::OnePbf.tag());
    let filter = FilterCodec::decode(&golden).unwrap().filter;
    // What wrote it: a 32-bit prefix Bloom filter over the fixture keys,
    // hashed with the seed 1PBF had of its own.
    let twin = Proteus::build_with_design(
        &fixture_keys(),
        ProteusDesign::bloom_only(32, 0.03125),
        64 * 16,
        &ProteusOptions { seed: 0x0B5E_55ED, ..Default::default() },
    );
    assert_eq!(filter.size_bits(), twin.size_bits());
    // It answers as it did: every fixture key and the ranges around it, and
    // off-key points and ranges, whose positives are the counts the 1PBF
    // type answered these probes with.
    let ks = fixture_keys();
    for i in 0..ks.len() {
        let k = u64::from_be_bytes(ks.key(i).try_into().unwrap());
        assert!(filter.may_contain(ks.key(i)));
        let (lo, hi) = (k.saturating_sub(1 << 20), k.saturating_add(1 << 20));
        assert!(filter.may_contain_range(&lo.to_be_bytes(), &hi.to_be_bytes()));
    }
    let mut s = 0x1BBF_0000_0000_0001u64;
    let (mut points, mut ranges) = (0, 0);
    for _ in 0..2000 {
        let lo = splitmix(&mut s);
        let hi = lo.saturating_add(splitmix(&mut s) % (1 << 40));
        let (lo, hi) = (lo.to_be_bytes(), hi.to_be_bytes());
        assert_eq!(filter.may_contain(&lo), twin.may_contain(&lo));
        assert_eq!(filter.may_contain_range(&lo, &hi), twin.may_contain_range(&lo, &hi));
        points += filter.may_contain(&lo) as u32;
        ranges += filter.may_contain_range(&lo, &hi) as u32;
    }
    assert_eq!((points, ranges), (2, 300));
    // It re-encodes as what it is.
    assert_eq!(filter.encode_payload().0, FilterKind::Proteus);
    assert_eq!(FilterCodec::encode(filter.as_ref()).unwrap(), FilterCodec::encode(&twin).unwrap());
    // And no cut or single-byte corruption of it decodes.
    for cut in 0..golden.len() {
        assert!(FilterCodec::decode(&golden[..cut]).is_err(), "cut {cut}");
    }
    for i in 0..golden.len() {
        for flip in [0x01u8, 0xFF] {
            let mut bad = golden.clone();
            bad[i] ^= flip;
            assert!(FilterCodec::decode(&bad).is_err(), "corrupt byte {i} (xor {flip:#04x})");
        }
    }
}

#[test]
fn golden_v1_fixtures_are_rejected_as_an_unsupported_version() {
    // The v1 fixtures are frozen history: bytes written by the PR-2 codec.
    // Envelope v1 is retired together with the SST generations that could
    // carry it; its bytes must be named as such, never misread or panicked
    // on — intact, truncated or corrupted.
    let dir = fixture_dir("v1");
    let frozen = [ONE_PBF_FIXTURE, NO_FILTER_FIXTURE];
    for name in fixtures().into_iter().map(|(name, _)| name).chain(frozen) {
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
    for (name, filter) in current_fixtures() {
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
    for (name, filter) in current_fixtures() {
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
    let (kind, mut payload) = filter.encode_payload();
    patch(&mut payload);
    seal(kind, &payload)
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

#[test]
fn embedded_bloom_geometry_must_match_the_filter_header() {
    let ks = fixture_keys();
    let by_name: std::collections::HashMap<_, _> = fixtures().into_iter().collect();
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
    let payload = |filter: &dyn RangeFilter| {
        let (kind, payload) = filter.encode_payload();
        (filter.name(), kind, payload)
    };
    let golden = std::fs::read(fixture_dir("v2").join(ONE_PBF_FIXTURE)).unwrap();
    let one_pbf = unseal(&golden).unwrap().payload.to_vec();
    // Per payload: its kind, the offset of its first embedded prefix Bloom
    // filter (which opens with its own `prefix_len`, `width` u32s), and the
    // prefix length the enclosing header gives that stage.
    let cases = [
        (payload(&trieless), 45, 40),
        ((ONE_PBF_FIXTURE.to_string(), FilterKind::OnePbf, one_pbf.clone()), 28, 32),
        (payload(by_name["two_pbf_l24_l48.bin"].as_ref()), 44, 24),
        (payload(by_name["rosetta_4l.bin"].as_ref()), 24, 61),
    ];
    for ((name, kind, payload), at, prefix_len) in cases {
        assert!(FilterCodec::decode(&seal(kind, &payload)).is_ok(), "{name}");
        assert_eq!((u32_at(&payload, at), u32_at(&payload, at + 4)), (prefix_len, 8), "{name}");
        // A stage hashing a different prefix length than the header walks
        // (false negatives), or keyed wider than the header's keys.
        for (field, value) in [(at, prefix_len - 8), (at + 4, 16)] {
            let mut bad = payload.clone();
            bad[field..field + 4].copy_from_slice(&value.to_le_bytes());
            assert!(
                matches!(FilterCodec::decode(&seal(kind, &bad)), Err(CodecError::Invalid(_))),
                "{name}: embedded field at {field} := {value} must be rejected"
            );
        }
    }

    // The release-mode panic this guards against: a 1PBF over 16-byte keys
    // relabelled as a filter over 8-byte keys — with a prefix past 64 bits
    // its first probe would index past the end of the query key. Once as a
    // trie-less Proteus, once as the golden's tag-2 payload carrying such a
    // stage (design and stage at 100 bits, the stage 16 bytes wide).
    let wide: Vec<Vec<u8>> = (0..64u8).map(|i| vec![i; 16]).collect();
    let wide_ks = proteus::core::KeySet::new(wide, 16);
    let design = ProteusDesign::bloom_only(100, 0.0);
    let one = Proteus::build_with_design(&wide_ks, design, 64 * 16, &ProteusOptions::default());
    let relabelled = resealed(&one, |p| p[..4].copy_from_slice(&8u32.to_le_bytes()));
    assert!(matches!(FilterCodec::decode(&relabelled), Err(CodecError::Invalid(_))));
    let mut relabelled = one_pbf;
    relabelled[12..20].copy_from_slice(&100u64.to_le_bytes());
    relabelled[28..32].copy_from_slice(&100u32.to_le_bytes());
    relabelled[32..36].copy_from_slice(&16u32.to_le_bytes());
    let relabelled = seal(FilterKind::OnePbf, &relabelled);
    assert!(matches!(FilterCodec::decode(&relabelled), Err(CodecError::Invalid(_))));
}

/// Offsets into the span fixture's payload: `width u32, probe_cap u64`, the
/// design's four 8-byte fields, the component flags, then the span bitmap —
/// `depth u32`, the 8-byte base key, `slots u64`, the words.
const FLAGS_AT: usize = 44;
const SPAN_DEPTH_AT: usize = 45;
const SPAN_BASE_AT: usize = 49;
const SPAN_SLOTS_AT: usize = 57;
const SPAN_WORDS_AT: usize = 65;

#[test]
fn a_span_bitmap_payload_is_validated_field_by_field() {
    let (_, filter) = span_fixture();
    let (_, payload) = filter.encode_payload();
    // The layout the offsets above claim: span flag + Bloom flag, depth 9,
    // a base with nothing past its 9th bit, and the slots its words hold.
    assert_eq!(payload[FLAGS_AT], 0b110);
    assert_eq!(u32_at(&payload, SPAN_DEPTH_AT), 9);
    let base = u64::from_be_bytes(payload[SPAN_BASE_AT..SPAN_BASE_AT + 8].try_into().unwrap());
    assert_eq!(base << 9, 0);
    let slots = u64::from_le_bytes(payload[SPAN_SLOTS_AT..SPAN_SLOTS_AT + 8].try_into().unwrap());
    assert!((2..=512).contains(&slots) && slots % 64 != 0, "{slots} slots");
    let last_word = SPAN_WORDS_AT + (slots as usize).div_ceil(64) * 8 - 8;
    assert!(FilterCodec::decode(&resealed(filter.as_ref(), |_| ())).is_ok());

    let put_u64 = |p: &mut [u8], at: usize, v: u64| p[at..at + 8].copy_from_slice(&v.to_le_bytes());
    type Patch<'a> = Box<dyn Fn(&mut [u8]) + 'a>;
    let invalid: Vec<(&str, Patch)> = vec![
        ("a base with bits past its depth", Box::new(|p| p[SPAN_BASE_AT + 7] |= 1)),
        ("a base with a bit right past its depth", Box::new(|p| p[SPAN_BASE_AT + 1] |= 0x40)),
        ("a set bit past the last slot", Box::new(|p| p[last_word + 7] |= 0x80)),
        (
            "a span running past the top of the key space",
            Box::new(|p| p[SPAN_BASE_AT..SPAN_BASE_AT + 2].copy_from_slice(&[0xFF, 0x80])),
        ),
        ("a coarse stage in both encodings", Box::new(|p| p[FLAGS_AT] |= 1)),
        ("an unknown component flag", Box::new(|p| p[FLAGS_AT] |= 8)),
        ("a bitmap deeper than the design says", Box::new(|p| p[SPAN_DEPTH_AT] = 10)),
        ("a bitmap shallower than its base", Box::new(|p| p[SPAN_DEPTH_AT] = 1)),
        ("a bitmap of depth zero", Box::new(|p| p[SPAN_DEPTH_AT] = 0)),
        ("a bitmap deeper than the key", Box::new(|p| p[SPAN_DEPTH_AT] = 65)),
        ("a bitmap of no slots", Box::new(|p| put_u64(p, SPAN_SLOTS_AT, 0))),
        ("a design depth the bitmap does not have", Box::new(|p| put_u64(p, 12, 16))),
    ];
    for (what, patch) in invalid {
        let bad = resealed(filter.as_ref(), |p| patch(p));
        let got = FilterCodec::decode(&bad).map(|d| d.filter.name());
        assert!(matches!(got, Err(CodecError::Invalid(_))), "{what}: {got:?}");
    }
    // A slot count the bytes cannot back is refused before anything is
    // allocated for it — a petabit, or one word more than is there.
    for slots in [1u64 << 50, u64::MAX, 1 << 20] {
        let bad = resealed(filter.as_ref(), |p| put_u64(p, SPAN_SLOTS_AT, slots));
        let got = FilterCodec::decode(&bad).map(|d| d.filter.name());
        assert!(
            matches!(got, Err(CodecError::Truncated { .. } | CodecError::Invalid(_))),
            "{slots} slots: {got:?}"
        );
    }
    // Every cut of the payload, and every single-bit flip of it, under a
    // valid envelope: a typed error or a filter that answers — never a
    // panic. (A flipped bitmap or Bloom bit is a different filter, not a
    // malformed one; the envelope's CRC is what catches those.)
    for cut in 0..payload.len() {
        let sealed = seal(FilterKind::Proteus, &payload[..cut]);
        assert!(FilterCodec::decode(&sealed).is_err(), "payload cut to {cut}");
    }
    let probe = |sealed: &[u8]| {
        if let Ok(decoded) = FilterCodec::decode(sealed) {
            for k in [0u64, 1 << 40, u64::MAX] {
                let _ = decoded.filter.may_contain_range(&k.to_be_bytes(), &u64::MAX.to_be_bytes());
            }
        }
    };
    for bit in 0..payload.len() * 8 {
        probe(&resealed(filter.as_ref(), |p| p[bit / 8] ^= 1 << (bit % 8)));
    }
    // And arbitrary bytes where the bitmap should be.
    let mut s = 0x5BA7_0000_0000_0001u64;
    for _ in 0..300 {
        let tail = (splitmix(&mut s) % 200) as usize;
        let mut bad = payload[..=FLAGS_AT].to_vec();
        bad.extend((0..tail).map(|_| splitmix(&mut s) as u8));
        probe(&seal(FilterKind::Proteus, &bad));
    }
}

#[test]
fn payloads_from_before_the_span_flag_decode_unchanged() {
    // The FST-bearing fixture and the trie-less one still carry flags 0b11
    // and 0b10. (The tag-2 1PBF payload has no flags byte to grow; see
    // `v2_one_pbf_fixture_decodes_as_a_trieless_proteus`.)
    let by_name: std::collections::HashMap<_, _> = fixtures().into_iter().collect();
    let (_, fst) = by_name["proteus_l16_l40.bin"].encode_payload();
    assert_eq!(fst[FLAGS_AT], 0b011);
    let trieless = Proteus::build_with_design(
        &fixture_keys(),
        ProteusDesign::bloom_only(40, 0.0),
        64 * 16,
        &ProteusOptions::default(),
    );
    assert_eq!(trieless.encode_payload().1[FLAGS_AT], 0b010);
    let golden = std::fs::read(fixture_dir("v2").join("proteus_l16_l40.bin")).unwrap();
    let decoded = FilterCodec::decode(&golden).unwrap();
    // Re-encoding what was decoded gives the committed bytes back.
    assert_eq!(FilterCodec::encode(decoded.filter.as_ref()).unwrap(), golden);
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
fn future_filter_kind_is_an_unknown_tag() {
    // A valid envelope from a newer build with a kind tag this one does not
    // know is a typed error, like any other block it cannot decode (the SST
    // reader opens that file without a filter).
    let sealed = proteus::core::codec::seal_raw(42, &[1, 2, 3]);
    let err = FilterCodec::decode(&sealed).err();
    assert_eq!(err, Some(CodecError::UnknownTag { what: "filter kind", tag: 42 }));
}

#[test]
fn v2_nofilter_fixture_is_an_unknown_tag() {
    // Tag 0, the retired pass-through, in an intact v2 envelope.
    let golden = std::fs::read(fixture_dir("v2").join(NO_FILTER_FIXTURE)).unwrap();
    let u = unseal(&golden).unwrap();
    assert_eq!((u.tag, u.payload.len()), (0, 0));
    let err = FilterCodec::decode(&golden).err();
    assert_eq!(err, Some(CodecError::UnknownTag { what: "filter kind", tag: 0 }));
}
