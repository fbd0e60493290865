//! WAL on-disk format compatibility: a committed `PRWALv1` golden segment
//! pins the record layout byte-for-byte, the live writer must still emit
//! exactly those bytes, and replay must be *total* — a torn tail recovers
//! the longest valid prefix of commits, every other kind of damage is a
//! typed [`Error::Corruption`], and no malformed input ever panics.
//!
//! The golden fixture is committed at `tests/fixtures/wal/golden_v1.wal`
//! and is byte-exact, independent of the current writer. Regenerate
//! deliberately with
//! `PROTEUS_REGEN_FIXTURES=1 cargo test -p proteus-lsm --test wal_format`.

use proteus_core::codec::crc32;
use proteus_core::key::u64_key;
use proteus_lsm::wal::{
    self, replay_segment, segment_path, Wal, WalOp, WAL_HEADER_LEN, WAL_MAGIC, WAL_TAG_DELETE,
    WAL_TAG_PUT,
};
use proteus_lsm::{Error, Stats, SyncMode};
use std::path::{Path, PathBuf};

const GOLDEN: &str = "tests/fixtures/wal/golden_v1.wal";
const KEY_WIDTH: usize = 8;

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN)
}

fn k(i: u64) -> Vec<u8> {
    u64_key(i).to_vec()
}

/// The three commits frozen into the golden segment: a one-op put, a
/// one-op delete, and a multi-op `WriteBatch` (put + delete + put) that
/// pins batch-as-one-record atomicity into the format.
fn golden_commits() -> Vec<Vec<WalOp>> {
    vec![
        vec![(k(1), Some(b"alpha".to_vec()))],
        vec![(k(2), None)],
        vec![(k(3), Some(b"gamma-gamma".to_vec())), (k(1), None), (k(4), Some(vec![0xEE; 40]))],
    ]
}

/// Append one commit record for `ops` to `out`, mirroring the documented
/// layout by hand (independent of the writer): `u32 payload_len`,
/// `u32 crc32(payload)`, payload = `u32 n_ops` then per-op
/// `u8 tag, u64 key_len, key[, u64 value_len, value]`.
fn push_record(out: &mut Vec<u8>, ops: &[WalOp]) {
    let mut payload = (ops.len() as u32).to_le_bytes().to_vec();
    for (key, value) in ops {
        match value {
            Some(v) => {
                payload.push(WAL_TAG_PUT);
                payload.extend_from_slice(&(key.len() as u64).to_le_bytes());
                payload.extend_from_slice(key);
                payload.extend_from_slice(&(v.len() as u64).to_le_bytes());
                payload.extend_from_slice(v);
            }
            None => {
                payload.push(WAL_TAG_DELETE);
                payload.extend_from_slice(&(key.len() as u64).to_le_bytes());
                payload.extend_from_slice(key);
            }
        }
    }
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
}

/// Emit the golden segment byte-for-byte, plus the end offset of the
/// header and of every record (the legal truncation boundaries).
fn encode_v1_golden() -> (Vec<u8>, Vec<usize>) {
    let mut file = Vec::new();
    file.extend_from_slice(&WAL_MAGIC);
    file.extend_from_slice(&(KEY_WIDTH as u32).to_le_bytes());
    let crc = crc32(&file);
    file.extend_from_slice(&crc.to_le_bytes());
    assert_eq!(file.len() as u64, WAL_HEADER_LEN);
    let mut boundaries = vec![file.len()];
    for commit in golden_commits() {
        push_record(&mut file, &commit);
        boundaries.push(file.len());
    }
    (file, boundaries)
}

fn load_golden() -> Vec<u8> {
    let path = golden_path();
    if std::env::var("PROTEUS_REGEN_FIXTURES").is_ok() || !path.exists() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, encode_v1_golden().0).unwrap();
    }
    std::fs::read(&path).unwrap()
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

#[test]
fn committed_golden_bytes_match_the_generator() {
    // The committed fixture must stay byte-identical to the documented
    // layout; if this fails, someone changed either the fixture or the
    // generator — both are format-freezing mistakes.
    assert_eq!(load_golden(), encode_v1_golden().0, "golden WAL fixture drifted");
}

#[test]
fn live_writer_emits_the_golden_bytes_exactly() {
    // The writer has no legal freedom in the layout: appending the golden
    // commits through the real `Wal` must reproduce the fixture
    // byte-for-byte (same header, same per-record framing, same CRCs).
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
fn torn_tail_truncation_sweep_recovers_the_prefix_at_every_cut() {
    let (full, boundaries) = encode_v1_golden();
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
    let (full, boundaries) = encode_v1_golden();
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
            // CRC or payload of the *final* record: indistinguishable
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
            // Mid-log: a flip inside an earlier record's CRC or payload
            // must be hard corruption (intact records follow, so this is
            // not a torn tail). A flip inside a length field may instead
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
    let (mut bytes, _) = encode_v1_golden();
    bytes.truncate(WAL_HEADER_LEN as usize);
    // A structurally plausible record whose op tag is undefined; the CRC
    // is valid, so this cannot be excused as a torn write.
    let mut payload = 1u32.to_le_bytes().to_vec();
    payload.push(7); // no such tag
    payload.extend_from_slice(&(KEY_WIDTH as u64).to_le_bytes());
    payload.extend_from_slice(&k(9));
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    let dir = tmpdir("unknown-tag");
    assert!(matches!(replay_bytes(&dir, &bytes), Err(Error::Corruption(_))));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn structural_damage_inside_a_crc_valid_record_is_corruption() {
    let dir = tmpdir("structural");
    let header = encode_v1_golden().0[..WAL_HEADER_LEN as usize].to_vec();

    // Trailing garbage after the declared ops (CRC covers it, decode
    // must still reject it — a correct record consumes its payload
    // exactly).
    let mut payload = 1u32.to_le_bytes().to_vec();
    payload.push(WAL_TAG_DELETE);
    payload.extend_from_slice(&(KEY_WIDTH as u64).to_le_bytes());
    payload.extend_from_slice(&k(5));
    payload.extend_from_slice(b"junk");
    let mut bytes = header.clone();
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    assert!(matches!(replay_bytes(&dir, &bytes), Err(Error::Corruption(_))));

    // A zero-length key (the writer never logs one).
    let mut payload = 1u32.to_le_bytes().to_vec();
    payload.push(WAL_TAG_DELETE);
    payload.extend_from_slice(&0u64.to_le_bytes());
    let mut bytes = header.clone();
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    assert!(matches!(replay_bytes(&dir, &bytes), Err(Error::Corruption(_))));

    // A key longer than the segment's recorded key-length limit.
    let big = vec![0xAB; KEY_WIDTH + 1];
    let mut payload = 1u32.to_le_bytes().to_vec();
    payload.push(WAL_TAG_DELETE);
    payload.extend_from_slice(&(big.len() as u64).to_le_bytes());
    payload.extend_from_slice(&big);
    let mut bytes = header.clone();
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    assert!(matches!(replay_bytes(&dir, &bytes), Err(Error::Corruption(_))));

    // A commit claiming zero ops (the writer never emits one).
    let payload = 0u32.to_le_bytes().to_vec();
    let mut bytes = header;
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    assert!(matches!(replay_bytes(&dir, &bytes), Err(Error::Corruption(_))));
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
    let mut file = Vec::new();
    file.extend_from_slice(&WAL_MAGIC);
    file.extend_from_slice(&(VARLEN_MAX as u32).to_le_bytes());
    let crc = crc32(&file);
    file.extend_from_slice(&crc.to_le_bytes());
    let mut boundaries = vec![file.len()];
    for commit in varlen_golden_commits() {
        push_record(&mut file, &commit);
        boundaries.push(file.len());
    }
    (file, boundaries)
}

fn load_varlen_golden() -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(VARLEN_GOLDEN);
    if std::env::var("PROTEUS_REGEN_FIXTURES").is_ok() || !path.exists() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, encode_varlen_golden().0).unwrap();
    }
    std::fs::read(&path).unwrap()
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
