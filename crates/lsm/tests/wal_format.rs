//! WAL on-disk format compatibility: a committed `PRWALv2` golden segment
//! pins the record layout byte-for-byte — framing, codec byte and the
//! zero-RLE stream of the records that compress — the live writer must
//! still emit exactly those bytes, and replay must be *total* — a torn tail
//! recovers the longest valid prefix of commits, every other kind of damage
//! is a typed [`Error::Corruption`], and no malformed input ever panics.
//!
//! The golden fixtures are committed under `tests/fixtures/wal/` and are
//! byte-exact, independent of the current writer. `golden_v1.wal`, a
//! segment of the raw `PRWALv1` records earlier builds wrote, is kept only
//! to prove it is refused by name. Regenerate the v2 fixtures deliberately
//! with
//! `PROTEUS_REGEN_FIXTURES=1 cargo test -p proteus-lsm --test wal_format`.

use proteus_core::codec::crc32;
use proteus_core::key::u64_key;
use proteus_lsm::wal::{
    self, replay_segment, segment_path, Wal, WalOp, WAL_CODEC_RAW, WAL_CODEC_ZERO_RLE,
    WAL_HEADER_LEN, WAL_MAGIC, WAL_TAG_DELETE, WAL_TAG_PUT,
};
use proteus_lsm::{compress, Db, DbConfig, Error, NoFilterFactory, Stats, SyncMode};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const GOLDEN: &str = "tests/fixtures/wal/golden_v2.wal";
const GOLDEN_V1: &str = "tests/fixtures/wal/golden_v1.wal";
const KEY_WIDTH: usize = 8;

fn fixture_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn golden_path() -> PathBuf {
    fixture_path(GOLDEN)
}

fn k(i: u64) -> Vec<u8> {
    u64_key(i).to_vec()
}

/// A key with no zero byte: its record has no zero run but the ones its
/// length prefixes carry.
fn zero_free_key(i: u8) -> Vec<u8> {
    vec![0xA0 | i, 0xB1, 0xC2, 0xD3, 0xE4, 0xF5, 0x16, 0x27]
}

/// The §6.2 value shape: `len / 2` zero bytes, then non-zero bytes.
fn half_zero(len: usize) -> Vec<u8> {
    (0..len).map(|i| if i < len / 2 { 0 } else { (i * 37 % 255) as u8 + 1 }).collect()
}

/// The four commits frozen into the golden segment: a put of a half-zero
/// 128-byte value (stored zero-RLE), a put of zero-free bytes (its stream
/// would save too little, so stored raw), a delete, and a multi-op
/// `WriteBatch` (put + delete + put) that pins batch-as-one-record
/// atomicity into the format.
fn golden_commits() -> Vec<Vec<WalOp>> {
    vec![
        vec![(k(1), Some(half_zero(128)))],
        vec![(zero_free_key(1), Some(b"alpha".to_vec()))],
        vec![(zero_free_key(2), None)],
        vec![(k(3), Some(b"gamma-gamma".to_vec())), (k(1), None), (k(4), Some(vec![0xEE; 40]))],
    ]
}

/// The codec each golden record is stored with.
const GOLDEN_CODECS: [u8; 4] =
    [WAL_CODEC_ZERO_RLE, WAL_CODEC_RAW, WAL_CODEC_RAW, WAL_CODEC_ZERO_RLE];

/// The uncompressed payload of a commit, by hand (independent of the
/// writer): `u32 n_ops` then per op `u8 tag, u64 key_len, key[, u64
/// value_len, value]`.
fn payload_of(ops: &[WalOp]) -> Vec<u8> {
    let mut payload = (ops.len() as u32).to_le_bytes().to_vec();
    for (key, value) in ops {
        payload.push(if value.is_some() { WAL_TAG_PUT } else { WAL_TAG_DELETE });
        payload.extend_from_slice(&(key.len() as u64).to_le_bytes());
        payload.extend_from_slice(key);
        if let Some(v) = value {
            payload.extend_from_slice(&(v.len() as u64).to_le_bytes());
            payload.extend_from_slice(v);
        }
    }
    payload
}

/// A codec-0 record's stored bytes: the codec byte, then the payload.
fn raw_stored(payload: &[u8]) -> Vec<u8> {
    [&[WAL_CODEC_RAW][..], payload].concat()
}

/// A codec-1 record's stored bytes: the codec byte, `raw_len`, then
/// `stream`.
fn rle_stored(raw_len: u32, stream: &[u8]) -> Vec<u8> {
    [&[WAL_CODEC_ZERO_RLE][..], &raw_len.to_le_bytes()[..], stream].concat()
}

/// Append one framed record to `out`: `u32 stored_len`, `u32
/// crc32(stored)`, `stored`.
fn push_framed(out: &mut Vec<u8>, stored: &[u8]) {
    out.extend_from_slice(&(stored.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(stored).to_le_bytes());
    out.extend_from_slice(stored);
}

/// Append the record for `ops` to `out` as the documented rule stores it —
/// zero-RLE only when `4 + stream < payload` — and return its codec.
fn push_record(out: &mut Vec<u8>, ops: &[WalOp]) -> u8 {
    let payload = payload_of(ops);
    let mut stream = Vec::new();
    let (codec, stored) =
        if compress::compress(&payload, &mut stream) && 4 + stream.len() < payload.len() {
            (WAL_CODEC_ZERO_RLE, rle_stored(payload.len() as u32, &stream))
        } else {
            (WAL_CODEC_RAW, raw_stored(&payload))
        };
    push_framed(out, &stored);
    codec
}

/// A segment header for the given key-length limit.
fn header(max_key_bytes: usize) -> Vec<u8> {
    let mut file = WAL_MAGIC.to_vec();
    file.extend_from_slice(&(max_key_bytes as u32).to_le_bytes());
    let crc = crc32(&file);
    file.extend_from_slice(&crc.to_le_bytes());
    assert_eq!(file.len() as u64, WAL_HEADER_LEN);
    file
}

/// A segment of `commits` under a header for `max_key_bytes`, plus the end
/// offset of the header and of every record (the legal truncation
/// boundaries) and each record's codec.
fn encode_segment(max_key_bytes: usize, commits: &[Vec<WalOp>]) -> (Vec<u8>, Vec<usize>, Vec<u8>) {
    let mut file = header(max_key_bytes);
    let mut boundaries = vec![file.len()];
    let mut codecs = Vec::new();
    for commit in commits {
        codecs.push(push_record(&mut file, commit));
        boundaries.push(file.len());
    }
    (file, boundaries, codecs)
}

/// Emit the golden segment byte-for-byte, plus its record boundaries.
fn encode_v2_golden() -> (Vec<u8>, Vec<usize>) {
    let (file, boundaries, codecs) = encode_segment(KEY_WIDTH, &golden_commits());
    assert_eq!(codecs, GOLDEN_CODECS, "the golden must hold both codecs");
    (file, boundaries)
}

fn load_fixture(rel: &str, encode: fn() -> Vec<u8>) -> Vec<u8> {
    let path = fixture_path(rel);
    if std::env::var("PROTEUS_REGEN_FIXTURES").is_ok() || !path.exists() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, encode()).unwrap();
    }
    std::fs::read(&path).unwrap()
}

fn load_golden() -> Vec<u8> {
    load_fixture(GOLDEN, || encode_v2_golden().0)
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("proteus-walfmt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Write `bytes` as a probe segment and replay it.
fn replay_bytes(dir: &Path, bytes: &[u8]) -> proteus_lsm::Result<wal::SegmentReplay> {
    let path = dir.join("probe.wal");
    std::fs::write(&path, bytes).unwrap();
    replay_segment(&path, KEY_WIDTH)
}

/// A segment holding one record of `stored` bytes.
fn one_record(stored: &[u8]) -> Vec<u8> {
    let mut bytes = header(KEY_WIDTH);
    push_framed(&mut bytes, stored);
    bytes
}

#[test]
fn committed_golden_bytes_match_the_generator() {
    // The committed fixture must stay byte-identical to the documented
    // layout; if this fails, someone changed either the fixture or the
    // generator — both are format-freezing mistakes.
    assert_eq!(load_golden(), encode_v2_golden().0, "golden WAL fixture drifted");
    assert_eq!(WAL_MAGIC, *b"PRWALv2\0");
}

#[test]
fn live_writer_emits_the_golden_bytes_exactly() {
    // The writer has no legal freedom in the layout: appending the golden
    // commits through the real `Wal` must reproduce the fixture
    // byte-for-byte (same header, same framing, same codec choice, same
    // token streams, same CRCs).
    let dir = tmpdir("writer-conformance");
    let stats = Stats::default();
    let w = Wal::create(&dir, 1, KEY_WIDTH, SyncMode::Off).unwrap();
    for commit in golden_commits() {
        w.append_commit(&commit, &stats).unwrap();
    }
    w.sync(&stats).unwrap();
    drop(w);
    let written = std::fs::read(segment_path(&dir, 1)).unwrap();
    assert_eq!(written, load_golden(), "live writer diverged from the frozen format");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_decodes_the_golden_segment() {
    let replay = replay_segment(&golden_path(), KEY_WIDTH).unwrap();
    assert!(!replay.torn_tail);
    assert_eq!(replay.commits, golden_commits());
    // The opener's key width is enforced against the header.
    assert!(matches!(replay_segment(&golden_path(), 16), Err(Error::Corruption(_))));
}

#[test]
fn a_prwalv1_segment_is_refused_by_name() {
    // The committed v1 golden is a segment of raw records an earlier build
    // wrote. Its literal magic is pinned here, the only place it appears
    // outside the refusal itself, so the test provably runs on a v1 file.
    let v1 = std::fs::read(fixture_path(GOLDEN_V1)).unwrap();
    assert_eq!(&v1[..8], b"PRWALv1\0", "v1 fixture drifted");
    let dir = tmpdir("v1-refused");
    let path = segment_path(&dir, 1);
    std::fs::write(&path, &v1).unwrap();
    let expect_named = |result: proteus_lsm::Result<()>, what: &str| match result {
        Err(Error::Corruption(msg)) => {
            assert!(msg.contains(&path.display().to_string()), "{what}: file not named: {msg}");
            assert!(msg.contains("PRWALv1") && msg.contains("earlier build"), "{what}: {msg}");
        }
        other => panic!("{what}: a PRWALv1 segment must be Corruption, got {other:?}"),
    };
    expect_named(replay_segment(&path, KEY_WIDTH).map(drop), "replay");
    let opened = Db::open(&dir, DbConfig::default(), Arc::new(NoFilterFactory));
    expect_named(opened.map(drop), "Db::open");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_truncation_sweep_recovers_the_prefix_at_every_cut() {
    let (full, boundaries) = encode_v2_golden();
    let want = golden_commits();
    let dir = tmpdir("torn-sweep");
    for cut in 0..=full.len() {
        let replay = replay_bytes(&dir, &full[..cut])
            .unwrap_or_else(|e| panic!("cut at {cut} must not fail open: {e}"));
        // Number of records whose end fits inside the cut.
        let n_complete = boundaries[1..].iter().filter(|&&b| b <= cut).count();
        assert_eq!(replay.commits, want[..n_complete], "cut {cut}: not the longest prefix");
        // The tail is torn exactly when the cut is not a record boundary
        // (a sub-header file is always a torn header).
        let at_boundary = cut >= WAL_HEADER_LEN as usize && boundaries.contains(&cut);
        assert_eq!(replay.torn_tail, !at_boundary, "cut {cut}: torn_tail mislabeled");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipped_byte_sweep_never_panics_and_types_every_error() {
    // Every flip — in the header, a length, a CRC, a codec byte, a
    // `raw_len`, a token stream or a raw payload — either replays a prefix
    // of the golden commits or is typed corruption.
    let (full, boundaries) = encode_v2_golden();
    let want = golden_commits();
    let last_record_start = boundaries[boundaries.len() - 2];
    let dir = tmpdir("flip-sweep");
    for i in 0..full.len() {
        let mut bytes = full.clone();
        bytes[i] ^= 0xFF;
        let result = replay_bytes(&dir, &bytes); // must never panic
                                                 // Any successful replay must still be a prefix of the real
                                                 // commits — corruption may cost records, never invent them.
        if let Ok(replay) = &result {
            assert!(want.starts_with(&replay.commits), "flip at {i}: replay fabricated commits");
        }
        if i < WAL_HEADER_LEN as usize {
            // Header damage (magic, width or header CRC) is always typed
            // corruption: nothing in the file can be trusted.
            assert!(matches!(result, Err(Error::Corruption(_))), "header flip at {i}");
        } else if i >= last_record_start + 4 {
            // CRC or stored bytes of the *final* record: indistinguishable
            // from a torn write — the record is dropped, the prefix
            // survives.
            let replay = result.unwrap_or_else(|e| panic!("final-record flip at {i}: {e}"));
            assert!(replay.torn_tail, "final-record flip at {i} must read as torn");
            assert_eq!(replay.commits, want[..want.len() - 1]);
        } else if i >= last_record_start {
            // The final record's length field: a grown length reads as a
            // record running past EOF (torn tail); a shrunk one leaves a
            // checksum mismatch with bytes after it (corruption). Either
            // way the damaged record must be gone.
            match result {
                Err(Error::Corruption(_)) => {}
                Err(e) => panic!("flip at {i}: wrong error type {e}"),
                Ok(replay) => {
                    assert!(replay.torn_tail);
                    assert_eq!(replay.commits, want[..want.len() - 1]);
                }
            }
        } else {
            // Mid-log: a flip inside an earlier record's CRC or stored
            // bytes must be hard corruption (intact records follow, so this
            // is not a torn tail). A flip inside a length field may instead
            // masquerade as a torn tail (documented limitation) — but
            // then it must cost every record from the flip on.
            let record_start = *boundaries.iter().take_while(|&&b| b <= i).last().unwrap();
            let in_length_field = i < record_start + 4;
            match result {
                Err(Error::Corruption(_)) => {}
                Err(e) => panic!("flip at {i}: wrong error type {e}"),
                Ok(replay) => {
                    assert!(in_length_field, "non-length flip at {i} must be corruption");
                    assert!(replay.torn_tail);
                    let n_before = boundaries[1..].iter().filter(|&&b| b <= i).count();
                    assert!(replay.commits.len() <= n_before, "flip at {i} kept later records");
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_op_tag_is_typed_corruption_even_with_a_valid_crc() {
    // A structurally plausible record whose op tag is undefined; the CRC
    // is valid, so this cannot be excused as a torn write.
    let mut payload = 1u32.to_le_bytes().to_vec();
    payload.push(7); // no such tag
    payload.extend_from_slice(&(KEY_WIDTH as u64).to_le_bytes());
    payload.extend_from_slice(&k(9));
    let dir = tmpdir("unknown-tag");
    assert!(matches!(
        replay_bytes(&dir, &one_record(&raw_stored(&payload))),
        Err(Error::Corruption(_))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn structural_damage_inside_a_crc_valid_record_is_corruption() {
    let dir = tmpdir("structural");
    let corrupt = |payload: &[u8]| {
        matches!(replay_bytes(&dir, &one_record(&raw_stored(payload))), Err(Error::Corruption(_)))
    };

    // Trailing garbage after the declared ops (CRC covers it, decode
    // must still reject it — a correct record consumes its payload
    // exactly).
    let mut payload = 1u32.to_le_bytes().to_vec();
    payload.push(WAL_TAG_DELETE);
    payload.extend_from_slice(&(KEY_WIDTH as u64).to_le_bytes());
    payload.extend_from_slice(&k(5));
    payload.extend_from_slice(b"junk");
    assert!(corrupt(&payload));

    // A zero-length key (the writer never logs one).
    let mut payload = 1u32.to_le_bytes().to_vec();
    payload.push(WAL_TAG_DELETE);
    payload.extend_from_slice(&0u64.to_le_bytes());
    assert!(corrupt(&payload));

    // A key longer than the segment's recorded key-length limit.
    let big = vec![0xAB; KEY_WIDTH + 1];
    let mut payload = 1u32.to_le_bytes().to_vec();
    payload.push(WAL_TAG_DELETE);
    payload.extend_from_slice(&(big.len() as u64).to_le_bytes());
    payload.extend_from_slice(&big);
    assert!(corrupt(&payload));

    // A commit claiming zero ops (the writer never emits one).
    assert!(corrupt(&0u32.to_le_bytes()));

    // A record with no stored byte at all, and one with an unknown codec.
    for stored in [&[][..], &[2, 1, 0, 0, 0]] {
        let result = replay_bytes(&dir, &one_record(stored));
        assert!(matches!(result, Err(Error::Corruption(_))), "{stored:?}: {result:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crc_valid_records_with_a_bad_token_stream_are_corruption() {
    // The golden's first record, compressed: a valid stream to damage.
    let payload = payload_of(&golden_commits()[0]);
    let mut stream = Vec::new();
    assert!(compress::compress(&payload, &mut stream));
    let raw_len = payload.len() as u32;
    let dir = tmpdir("bad-stream");
    let cases = [
        // A literal length running past the end of the stream.
        ("malformed", rle_stored(raw_len, &[&[0xFF, 0x00], &stream[2..]].concat())),
        // A stream cut inside its last token.
        ("truncated", rle_stored(raw_len, &stream[..stream.len() - 1])),
        // A `raw_len` of 4 GiB, which nothing decodes to.
        ("u32::MAX raw_len", rle_stored(u32::MAX, &stream)),
        // A `raw_len` one byte short of what the stream decodes to.
        ("short raw_len", rle_stored(raw_len - 1, &stream)),
    ];
    for (what, stored) in cases {
        // The CRC is valid, and an intact record follows, so none of these
        // can be excused as a torn write.
        let mut bytes = one_record(&stored);
        push_record(&mut bytes, &golden_commits()[1]);
        let result = replay_bytes(&dir, &bytes);
        assert!(matches!(result, Err(Error::Corruption(_))), "{what}: {result:?}");
        // As the final record, too: the checksum proves it was written so.
        let result = replay_bytes(&dir, &one_record(&stored));
        assert!(matches!(result, Err(Error::Corruption(_))), "{what} (last): {result:?}");
    }
    // The undamaged stream replays.
    let replay = replay_bytes(&dir, &one_record(&rle_stored(raw_len, &stream))).unwrap();
    assert_eq!(replay.commits, golden_commits()[..1]);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- variable-length records ----------------------------------------------

/// Key-length limit frozen into the var-len golden segment (the store's
/// `MAX_KEY_BYTES`).
const VARLEN_MAX: usize = 1024;

const VARLEN_GOLDEN: &str = "tests/fixtures/wal/golden_varlen.wal";

/// The commits frozen into the var-len golden segment: single-byte keys,
/// URL-shaped string keys, a shared-prefix pair, and one 300-byte key so
/// the torn-tail sweep has a cut point at every offset *inside* a long
/// key.
fn varlen_golden_commits() -> Vec<Vec<WalOp>> {
    let long_key = vec![b'L'; 300];
    vec![
        vec![(vec![0x00], Some(b"nul".to_vec()))],
        vec![(b"https://example.com/a".to_vec(), Some(b"page-a".to_vec()))],
        vec![
            (b"https://example.com/a/b".to_vec(), Some(b"page-ab".to_vec())),
            (b"https://example.com/a".to_vec(), None),
        ],
        vec![(long_key, Some(b"long".to_vec()))],
        vec![(vec![0xFF], None)],
    ]
}

fn encode_varlen_golden() -> (Vec<u8>, Vec<usize>) {
    let (file, boundaries, _) = encode_segment(VARLEN_MAX, &varlen_golden_commits());
    (file, boundaries)
}

fn load_varlen_golden() -> Vec<u8> {
    load_fixture(VARLEN_GOLDEN, || encode_varlen_golden().0)
}

#[test]
fn varlen_golden_bytes_match_writer_and_replay() {
    assert_eq!(load_varlen_golden(), encode_varlen_golden().0, "var-len WAL fixture drifted");
    // The live writer reproduces the fixture byte-for-byte.
    let dir = tmpdir("varlen-writer");
    let stats = Stats::default();
    let w = Wal::create(&dir, 1, VARLEN_MAX, SyncMode::Off).unwrap();
    for commit in varlen_golden_commits() {
        w.append_commit(&commit, &stats).unwrap();
    }
    w.sync(&stats).unwrap();
    drop(w);
    let written = std::fs::read(segment_path(&dir, 1)).unwrap();
    assert_eq!(written, load_varlen_golden(), "writer diverged on var-len records");
    // And replay round-trips the commits exactly.
    let replay = replay_segment(&segment_path(&dir, 1), VARLEN_MAX).unwrap();
    assert!(!replay.torn_tail);
    assert_eq!(replay.commits, varlen_golden_commits());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn varlen_torn_tail_sweep_cuts_inside_long_keys() {
    // Every cut point — including each of the 300 offsets inside the long
    // key's bytes — must recover exactly the commits whose records fit,
    // never a partial op and never an error.
    let (full, boundaries) = encode_varlen_golden();
    let want = varlen_golden_commits();
    let dir = tmpdir("varlen-torn");
    let path = dir.join("probe.wal");
    for cut in 0..=full.len() {
        std::fs::write(&path, &full[..cut]).unwrap();
        let replay = replay_segment(&path, VARLEN_MAX)
            .unwrap_or_else(|e| panic!("cut at {cut} must not fail open: {e}"));
        let n_complete = boundaries[1..].iter().filter(|&&b| b <= cut).count();
        assert_eq!(replay.commits, want[..n_complete], "cut {cut}: not the longest prefix");
        let at_boundary = cut >= WAL_HEADER_LEN as usize && boundaries.contains(&cut);
        assert_eq!(replay.torn_tail, !at_boundary, "cut {cut}: torn_tail mislabeled");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
