//! On-disk format contract: the one `PRSSTv4` layout — varint entry
//! headers, restart-point prefix compression, a restart trailer per block
//! and a check word per block in the index — is pinned by a byte-exact
//! golden plus truncation/bit-flip sweeps that must fail *loudly* (typed
//! corruption, never a panic or a silent misread: no flipped bit reads
//! back). The committed `PRSSTv1`, `PRSSTv2` and `PRSSTv3` goldens (the
//! generations no build reads any more) must be *rejected* the same way: a
//! typed `Error::Corruption` naming the unsupported format, from
//! `SstReader` and from `Db::open` of a store whose `MANIFEST` lists one,
//! which must leave the directory untouched — as must an open that finds
//! SSTs and no `MANIFEST`.
//!
//! The golden fixtures are committed under `tests/fixtures/{v1,v2,v3,v4}/`
//! and are byte-exact: each pins its format forever, hand-encoded
//! independently of the writer. Regenerate
//! deliberately with
//! `PROTEUS_REGEN_FIXTURES=1 cargo test -p proteus-lsm --test sst_format`.

use proteus_core::codec::crc32;
use proteus_core::key::u64_key;
use proteus_lsm::block::check_word;
use proteus_lsm::sst::{Entry, SstCursor, SstReader, SstWriter, SST_FORMAT_VERSION, SST_MAGIC_V4};
use proteus_lsm::{DbConfig, Error, ProteusFactory, QueryQueue, Stats};
use std::path::{Path, PathBuf};
use std::sync::Arc;

mod common;
use common::{dir_contents, manifest_bytes, open_unfiltered};

const GOLDEN_V1: &str = "tests/fixtures/v1/golden_v1.sst";
const GOLDEN_V2: &str = "tests/fixtures/v2/golden_v2.sst";
const GOLDEN_V3: &str = "tests/fixtures/v3/golden_v3.sst";
const GOLDEN_V4: &str = "tests/fixtures/v4/golden_v4.sst";
const N_KEYS: u64 = 500;

fn fixture_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn load_fixture(rel: &str, encode: impl Fn() -> Vec<u8>) -> Vec<u8> {
    let path = fixture_path(rel);
    if std::env::var("PROTEUS_REGEN_FIXTURES").is_ok() || !path.exists() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, encode()).unwrap();
    }
    std::fs::read(&path).unwrap()
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("proteus-sstfmt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Every entry of `sst` in file order, read straight from disk through
/// the cursor; stops at the first block that fails to read or decode.
fn scan_all(sst: SstReader) -> proteus_lsm::Result<Vec<Entry>> {
    let stats = Stats::default();
    let mut cursor = SstCursor::new(Arc::new(sst));
    let mut entries = Vec::new();
    while cursor.step(|sst, b, block| sst.read_block(b, &stats, block).map(drop))? {
        let (k, v) = cursor.current();
        entries.push((k.to_vec(), v.map(<[u8]>::to_vec)));
    }
    Ok(entries)
}

/// Wrap a block body in the raw (codec 0) disk envelope:
/// `[u8 codec][u32 raw_len][u32 stored_len][body]`.
fn raw_disk_block(body: &[u8]) -> Vec<u8> {
    let mut disk = vec![0u8];
    disk.extend_from_slice(&(body.len() as u32).to_le_bytes());
    disk.extend_from_slice(&(body.len() as u32).to_le_bytes());
    disk.extend_from_slice(body);
    disk
}

/// Serialize the 64-byte footer shared by every format version (the
/// version selects the magic and whether `n_tombstones` is meaningful).
/// Offset 40 held a level tag up to the first `PRSSTv3` writers, which the
/// v1 and v3 goldens keep; from `PRSSTv4` on it holds the footer's CRC-32.
#[allow(clippy::too_many_arguments)]
fn encode_footer(
    index_off: u64,
    index_len: u64,
    n_entries: u64,
    n_tombstones: u32,
    at_40: u32,
    width: u32,
    version: u16,
    magic: &[u8; 8],
) -> [u8; 64] {
    let mut footer = [0u8; 64];
    footer[0..8].copy_from_slice(&index_off.to_le_bytes());
    footer[8..16].copy_from_slice(&index_len.to_le_bytes());
    footer[16..24].copy_from_slice(&(index_off + index_len).to_le_bytes());
    footer[24..32].copy_from_slice(&0u64.to_le_bytes()); // filter_len: none
    footer[32..40].copy_from_slice(&n_entries.to_le_bytes());
    footer[40..44].copy_from_slice(&at_40.to_le_bytes());
    footer[44..48].copy_from_slice(&width.to_le_bytes());
    footer[48..50].copy_from_slice(&version.to_le_bytes());
    if version >= 2 {
        footer[50..54].copy_from_slice(&n_tombstones.to_le_bytes());
    }
    footer[56..64].copy_from_slice(magic);
    footer
}

// ---------------------------------------------------------------------------
// PRSSTv1 golden: fixed-width keys, no flag byte, no tombstones.
// ---------------------------------------------------------------------------

fn v1_key(i: u64) -> [u8; 8] {
    u64_key(i * 7)
}

fn v1_value(i: u64) -> Vec<u8> {
    (0..16).map(|j| (i * 31 + j + 1) as u8).collect()
}

/// Emit the v1 SST layout byte-for-byte: raw (codec 0) data blocks with
/// flag-less entries, the fixed-width CRC'd block index, no filter block,
/// and the 64-byte `PRSSTv1` footer.
fn encode_v1_golden() -> Vec<u8> {
    let mut file = Vec::new();
    let mut index: Vec<(Vec<u8>, Vec<u8>, u64, u32)> = Vec::new();
    for chunk in (0..N_KEYS).collect::<Vec<_>>().chunks(100) {
        let mut body = (chunk.len() as u32).to_le_bytes().to_vec();
        for &i in chunk {
            body.extend_from_slice(&v1_key(i));
            let v = v1_value(i);
            body.extend_from_slice(&(v.len() as u32).to_le_bytes());
            body.extend_from_slice(&v);
        }
        let disk = raw_disk_block(&body);
        index.push((
            v1_key(chunk[0]).to_vec(),
            v1_key(*chunk.last().unwrap()).to_vec(),
            file.len() as u64,
            disk.len() as u32,
        ));
        file.extend_from_slice(&disk);
    }
    let index_off = file.len() as u64;
    let mut ib = (index.len() as u32).to_le_bytes().to_vec();
    for (first, last, off, len) in &index {
        ib.extend_from_slice(first);
        ib.extend_from_slice(last);
        ib.extend_from_slice(&off.to_le_bytes());
        ib.extend_from_slice(&len.to_le_bytes());
    }
    let crc = crc32(&ib);
    ib.extend_from_slice(&crc.to_le_bytes());
    let index_len = ib.len() as u64;
    file.extend_from_slice(&ib);
    file.extend_from_slice(&encode_footer(index_off, index_len, N_KEYS, 0, 1, 8, 1, b"PRSSTv1\0"));
    file
}

#[test]
fn committed_golden_bytes_match_the_generator() {
    // The committed fixtures must stay byte-identical to the documented
    // layouts; if this fails, someone changed either a fixture or its
    // generator — both are format-freezing mistakes.
    assert_eq!(load_fixture(GOLDEN_V1, encode_v1_golden), encode_v1_golden(), "v1 drifted");
    assert_eq!(load_fixture(GOLDEN_V2, encode_v2_golden), encode_v2_golden(), "v2 drifted");
    assert_eq!(load_fixture(GOLDEN_V3, encode_v3_golden), encode_v3_golden(), "v3 drifted");
    assert_eq!(load_fixture(GOLDEN_V4, encode_v4_golden), encode_v4_golden(), "v4 drifted");
}

/// Every legacy golden, with the file name `Db::open` would recover it by.
fn legacy_goldens() -> [(&'static str, Vec<u8>, &'static str); 3] {
    [
        ("PRSSTv1", load_fixture(GOLDEN_V1, encode_v1_golden), "00000001.sst"),
        ("PRSSTv2", load_fixture(GOLDEN_V2, encode_v2_golden), "00000002.sst"),
        ("PRSSTv3", load_fixture(GOLDEN_V3, encode_v3_golden), "00000003.sst"),
    ]
}

#[test]
fn legacy_goldens_are_rejected_with_a_typed_error_naming_the_format() {
    let dir = tmpdir("legacy-open");
    for (format, bytes, name) in legacy_goldens() {
        let path = dir.join(name);
        std::fs::write(&path, &bytes).unwrap();
        match SstReader::open(&path, 1) {
            Err(Error::Corruption(msg)) => {
                assert!(msg.contains("unsupported SST format"), "{format}: {msg}");
                assert!(msg.contains(format), "{format} must be named: {msg}");
            }
            other => panic!("{format} golden must fail open with Corruption, got {other:?}"),
        }
        // Truncations of a legacy file are typed errors too, never panics.
        for cut in (0..bytes.len()).step_by(5) {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(SstReader::open(&path, 1).is_err(), "{format} cut {cut}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn db_open_refuses_a_directory_holding_a_legacy_file_and_deletes_nothing() {
    for (i, (format, bytes, _)) in legacy_goldens().into_iter().enumerate() {
        let dir = tmpdir(&format!("legacy-db-{i}"));
        // A real store lists one file, which is then replaced by a file of
        // a retired generation.
        let db = open_unfiltered(&dir, DbConfig::default()).unwrap();
        db.put(b"key", b"value").unwrap();
        db.flush().unwrap();
        drop(db);
        let listed: Vec<PathBuf> = dir_contents(&dir)
            .into_iter()
            .map(|(p, _)| p)
            .filter(|p| p.extension().is_some_and(|x| x == "sst"))
            .collect();
        assert_eq!(listed.len(), 1, "{listed:?}");
        std::fs::write(&listed[0], &bytes).unwrap();
        // An unlisted current-format file, a crash straggler (both of which
        // a successful open would discard) and a foreign file ride along:
        // the failed open must leave every byte as it was.
        write_with_writer(&dir);
        std::fs::write(dir.join("00000077.sst.tmp"), b"unfinished").unwrap();
        std::fs::write(dir.join("notes.txt"), b"not ours").unwrap();
        let before = dir_contents(&dir);
        match open_unfiltered(&dir, DbConfig::default()) {
            Err(Error::Corruption(msg)) => {
                assert!(msg.contains(&format!("unsupported SST format {format}")), "{msg}")
            }
            Err(other) => panic!("{format}: expected Corruption, got {other:?}"),
            Ok(_) => panic!("{format}: Db::open must refuse a legacy file"),
        }
        assert_eq!(dir_contents(&dir), before, "{format}: a refused open must touch nothing");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn db_open_refuses_ssts_without_a_manifest_and_deletes_nothing() {
    // What an earlier build left: SSTs whose levels only their footers
    // knew. The open refuses to guess, and adds no MANIFEST.
    let dir = tmpdir("no-manifest");
    write_with_writer(&dir);
    std::fs::write(dir.join("00000077.sst.tmp"), b"unfinished").unwrap();
    let before = dir_contents(&dir);
    match open_unfiltered(&dir, DbConfig::default()) {
        Err(Error::Corruption(msg)) => assert!(msg.contains("no MANIFEST"), "{msg}"),
        Err(other) => panic!("expected Corruption, got {other:?}"),
        Ok(_) => panic!("Db::open must refuse SSTs without a MANIFEST"),
    }
    assert_eq!(dir_contents(&dir), before, "a refused open must touch nothing");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// PRSSTv2 golden: fixed-width keys plus a per-entry flag byte (tombstones).
// ---------------------------------------------------------------------------

/// Base for keys whose big-endian bytes are all non-zero, so the zero-RLE
/// codec finds nothing to compress and blocks are stored raw (predictable
/// entry offsets for targeted corruption).
const V2_KEY_BASE: u64 = 0x8070_6050_4030_2010;
const N_V2: u64 = 50;

fn v2_tombstone(i: u64) -> bool {
    i % 10 == 3
}

fn v2_value(i: u64) -> Vec<u8> {
    (0..24).map(|j| (i * 37 + j * 11 + 1) as u8 | 1).collect()
}

/// Emit the v2 SST layout byte-for-byte: raw (codec 0) data blocks of
/// `[key(8)][u8 flags][u32 value_len][value]` entries (tombstone =
/// flags 1, value_len 0), the fixed-width index, and the `PRSSTv2` footer
/// with the tombstone count at bytes 50..54.
fn encode_v2_golden() -> Vec<u8> {
    let mut file = Vec::new();
    let mut index: Vec<(Vec<u8>, Vec<u8>, u64, u32)> = Vec::new();
    for chunk in (0..N_V2).collect::<Vec<_>>().chunks(20) {
        let mut body = (chunk.len() as u32).to_le_bytes().to_vec();
        for &i in chunk {
            body.extend_from_slice(&u64_key(V2_KEY_BASE + i));
            if v2_tombstone(i) {
                body.push(0x01);
                body.extend_from_slice(&0u32.to_le_bytes());
            } else {
                body.push(0x00);
                let v = v2_value(i);
                body.extend_from_slice(&(v.len() as u32).to_le_bytes());
                body.extend_from_slice(&v);
            }
        }
        let disk = raw_disk_block(&body);
        index.push((
            u64_key(V2_KEY_BASE + chunk[0]).to_vec(),
            u64_key(V2_KEY_BASE + chunk.last().unwrap()).to_vec(),
            file.len() as u64,
            disk.len() as u32,
        ));
        file.extend_from_slice(&disk);
    }
    let index_off = file.len() as u64;
    let mut ib = (index.len() as u32).to_le_bytes().to_vec();
    for (first, last, off, len) in &index {
        ib.extend_from_slice(first);
        ib.extend_from_slice(last);
        ib.extend_from_slice(&off.to_le_bytes());
        ib.extend_from_slice(&len.to_le_bytes());
    }
    let crc = crc32(&ib);
    ib.extend_from_slice(&crc.to_le_bytes());
    let index_len = ib.len() as u64;
    file.extend_from_slice(&ib);
    let n_tomb = (0..N_V2).filter(|&i| v2_tombstone(i)).count() as u32;
    file.extend_from_slice(&encode_footer(
        index_off,
        index_len,
        N_V2,
        n_tomb,
        0,
        8,
        2,
        b"PRSSTv2\0",
    ));
    file
}

// ---------------------------------------------------------------------------
// PRSSTv3 golden: length-prefixed keys, restart-point prefix compression,
// fixed-width entry headers, no check: refused by name.
// ---------------------------------------------------------------------------

/// The v3 and v4 golden key set: a 1-byte key, URL-style keys with heavy shared
/// prefixes (several per restart interval), and a 300-byte key — sorted,
/// strictly ascending, wildly different lengths.
fn golden_entries() -> Vec<(Vec<u8>, Option<Vec<u8>>)> {
    let mut keys: Vec<Vec<u8>> = vec![vec![0x01]];
    for i in 0..40u32 {
        let page = "x".repeat((i % 5) as usize);
        keys.push(format!("https://example.com/{:02}/page-{page}", i / 4).into_bytes());
    }
    keys.push(vec![b'z'; 300]);
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .enumerate()
        .map(|(i, k)| {
            let v = (i % 7 != 3).then(|| {
                (0..10 + i % 7).map(|j| (i * 13 + j * 5 + 7) as u8 | 1).collect::<Vec<u8>>()
            });
            (k, v)
        })
        .collect()
}

fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// Encode one v3 block body's entry section (everything after the `u32 n`
/// count): `[u16 shared][u16 non_shared][u8 flags][u32 value_len]
/// [key_suffix][value]` per entry, with `shared = 0` at every 16-entry
/// restart point.
fn encode_v3_entries(entries: &[(Vec<u8>, Option<Vec<u8>>)]) -> Vec<u8> {
    let mut payload = Vec::new();
    let mut prev: &[u8] = &[];
    for (idx, (key, value)) in entries.iter().enumerate() {
        let shared = if idx % 16 == 0 { 0 } else { common_prefix(prev, key) };
        payload.extend_from_slice(&(shared as u16).to_le_bytes());
        payload.extend_from_slice(&((key.len() - shared) as u16).to_le_bytes());
        match value {
            Some(v) => {
                payload.push(0x00);
                payload.extend_from_slice(&(v.len() as u32).to_le_bytes());
                payload.extend_from_slice(&key[shared..]);
                payload.extend_from_slice(v);
            }
            None => {
                payload.push(0x01);
                payload.extend_from_slice(&0u32.to_le_bytes());
                payload.extend_from_slice(&key[shared..]);
            }
        }
        prev = key;
    }
    payload
}

/// Entries per data block in the v3 and v4 goldens: 18 puts a second
/// restart point (entry 16) inside each full block, with compressed
/// entries after it.
const GOLDEN_BLOCK_ENTRIES: usize = 18;

/// Emit the v3 SST layout byte-for-byte: raw (codec 0) data blocks of
/// prefix-compressed entries, the length-prefixed CRC'd index, no filter
/// block, and the `PRSSTv3` footer (the width field is only the canonical
/// filter-training width — it does not constrain key lengths).
fn encode_v3_golden() -> Vec<u8> {
    let entries = golden_entries();
    let mut file = Vec::new();
    let mut index: Vec<(Vec<u8>, Vec<u8>, u64, u32)> = Vec::new();
    for chunk in entries.chunks(GOLDEN_BLOCK_ENTRIES) {
        let mut body = (chunk.len() as u32).to_le_bytes().to_vec();
        body.extend_from_slice(&encode_v3_entries(chunk));
        let disk = raw_disk_block(&body);
        index.push((
            chunk[0].0.clone(),
            chunk.last().unwrap().0.clone(),
            file.len() as u64,
            disk.len() as u32,
        ));
        file.extend_from_slice(&disk);
    }
    let index_off = file.len() as u64;
    let mut ib = (index.len() as u32).to_le_bytes().to_vec();
    for (first, last, off, len) in &index {
        ib.extend_from_slice(&(first.len() as u16).to_le_bytes());
        ib.extend_from_slice(first);
        ib.extend_from_slice(&(last.len() as u16).to_le_bytes());
        ib.extend_from_slice(last);
        ib.extend_from_slice(&off.to_le_bytes());
        ib.extend_from_slice(&len.to_le_bytes());
    }
    let crc = crc32(&ib);
    ib.extend_from_slice(&crc.to_le_bytes());
    let index_len = ib.len() as u64;
    file.extend_from_slice(&ib);
    let n_tomb = entries.iter().filter(|(_, v)| v.is_none()).count() as u32;
    file.extend_from_slice(&encode_footer(
        index_off,
        index_len,
        entries.len() as u64,
        n_tomb,
        1,
        8,
        3,
        b"PRSSTv3\0",
    ));
    file
}

// ---------------------------------------------------------------------------
// PRSSTv4 golden: varint entry headers, a restart trailer per block, a check
// word per block in the index, a CRC'd footer.
// ---------------------------------------------------------------------------

/// Append `v` as an LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut v: usize) {
    while v >= 0x80 {
        out.push(0x80 | (v & 0x7F) as u8);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Encode one v4 block payload: per entry `[varint shared][varint
/// non_shared][varint value_len << 1 | tombstone][key_suffix][value]`, with
/// `shared = 0` at every 16-entry restart point, then the offset of every
/// restart point but the first as a `u32`, then the entry count. Returns
/// the bytes plus each entry's offset within them (for targeted
/// corruption).
fn encode_v4_payload(entries: &[(Vec<u8>, Option<Vec<u8>>)]) -> (Vec<u8>, Vec<usize>) {
    let mut payload = Vec::new();
    let mut offsets = Vec::new();
    let mut prev: &[u8] = &[];
    for (idx, (key, value)) in entries.iter().enumerate() {
        offsets.push(payload.len());
        let shared = if idx % 16 == 0 { 0 } else { common_prefix(prev, key) };
        put_varint(&mut payload, shared);
        put_varint(&mut payload, key.len() - shared);
        let value_len = value.as_ref().map_or(0, Vec::len);
        put_varint(&mut payload, value_len << 1 | usize::from(value.is_none()));
        payload.extend_from_slice(&key[shared..]);
        payload.extend_from_slice(value.as_deref().unwrap_or_default());
        prev = key;
    }
    for restart in offsets.iter().step_by(16).skip(1) {
        payload.extend_from_slice(&(*restart as u32).to_le_bytes());
    }
    payload.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    (payload, offsets)
}

/// Fill footer bytes 40..44 with the CRC-32 of the footer, taken with that
/// field zeroed.
fn seal_footer(mut footer: [u8; 64]) -> [u8; 64] {
    footer[40..44].fill(0);
    let crc = crc32(&footer);
    footer[40..44].copy_from_slice(&crc.to_le_bytes());
    footer
}

/// Emit a v4 SST of the golden entries byte-for-byte: raw (codec 0) data
/// blocks of `GOLDEN_BLOCK_ENTRIES` entries, the length-prefixed CRC'd index
/// whose entries end in each block's check word, no filter block, and the
/// CRC'd `PRSSTv4` footer. `damage` edits block 0's payload before it is
/// framed and checked, so the file stays consistent around a block the
/// decoder itself must refuse.
fn encode_v4_file(damage: impl Fn(&mut Vec<u8>)) -> Vec<u8> {
    let entries = golden_entries();
    let mut file = Vec::new();
    let mut ib = Vec::new();
    for (b, chunk) in entries.chunks(GOLDEN_BLOCK_ENTRIES).enumerate() {
        let mut payload = encode_v4_payload(chunk).0;
        if b == 0 {
            damage(&mut payload);
        }
        let disk = raw_disk_block(&payload);
        for key in [&chunk[0].0, &chunk.last().unwrap().0] {
            ib.extend_from_slice(&(key.len() as u16).to_le_bytes());
            ib.extend_from_slice(key);
        }
        ib.extend_from_slice(&(file.len() as u64).to_le_bytes());
        ib.extend_from_slice(&(disk.len() as u32).to_le_bytes());
        ib.extend_from_slice(&check_word(&disk).to_le_bytes());
        file.extend_from_slice(&disk);
    }
    let n_blocks = entries.len().div_ceil(GOLDEN_BLOCK_ENTRIES) as u32;
    let mut ib = [&n_blocks.to_le_bytes()[..], &ib].concat();
    let crc = crc32(&ib);
    ib.extend_from_slice(&crc.to_le_bytes());
    let index_off = file.len() as u64;
    file.extend_from_slice(&ib);
    let n_tomb = entries.iter().filter(|(_, v)| v.is_none()).count() as u32;
    let footer = encode_footer(
        index_off,
        ib.len() as u64,
        entries.len() as u64,
        n_tomb,
        0,
        8,
        4,
        b"PRSSTv4\0",
    );
    file.extend_from_slice(&seal_footer(footer));
    file
}

fn encode_v4_golden() -> Vec<u8> {
    encode_v4_file(|_| {})
}

#[test]
fn v4_golden_decodes_byte_exactly_and_is_self_describing() {
    let bytes = load_fixture(GOLDEN_V4, encode_v4_golden);
    let dir = tmpdir("v4-open");
    let path = dir.join("00000004.sst");
    std::fs::write(&path, &bytes).unwrap();
    let entries = golden_entries();

    let sst = SstReader::open(&path, 4).unwrap();
    assert_eq!(sst.n_entries, entries.len() as u64);
    assert_eq!(sst.n_tombstones, entries.iter().filter(|(_, v)| v.is_none()).count() as u64);
    assert_eq!(sst.min_key, entries[0].0);
    assert_eq!(sst.max_key, entries.last().unwrap().0);
    assert_eq!(sst.filter_width(), 8);
    for b in 0..sst.n_blocks() {
        let meta = sst.block_meta(b);
        let start = meta.offset as usize;
        assert_eq!(meta.check, check_word(&bytes[start..start + meta.len as usize]), "block {b}");
    }

    // Every prefix-compressed entry reconstructs its raw key byte-exactly,
    // tombstones included, in order.
    let scanned = scan_all(sst).unwrap();
    for (i, (k, v)) in scanned.iter().enumerate() {
        assert_eq!(*k, entries[i].0, "entry {i} key");
        assert_eq!(*v, entries[i].1, "entry {i} value");
    }
    assert_eq!(scanned.len(), entries.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn v4_entry_corruption_is_typed_not_silent() {
    let dir = tmpdir("v4-corrupt");
    let path = dir.join("00000004.sst");
    let entries = golden_entries();
    let (payload, offsets) = encode_v4_payload(&entries[..GOLDEN_BLOCK_ENTRIES]);
    // 18 entries: one stored restart offset (entry 16's), then the count.
    let (restart_at, count_at) = (payload.len() - 8, payload.len() - 4);
    let read_block_0 = |bytes: &[u8]| {
        std::fs::write(&path, bytes).unwrap();
        let sst = SstReader::open(&path, 4).unwrap(); // footer and index are fine
        sst.read_block(0, &Stats::default(), &mut Default::default()).map(drop)
    };
    let refused = |what: &str, result: proteus_lsm::Result<()>, why: &str| match result {
        Err(Error::Corruption(msg)) => {
            assert!(msg.contains(&path.display().to_string()), "{what}: file not named: {msg}");
            assert!(msg.contains(why), "{what}: {msg}");
        }
        other => panic!("{what}: expected Corruption, got {other:?}"),
    };

    // Any byte of a stored block that changes fails its check word.
    let mut bytes = encode_v4_golden();
    bytes[9 + offsets[3] + 4] ^= 0x10;
    refused("flipped key byte", read_block_0(&bytes), "check word mismatch");

    // Structural damage under a matching check word: the decoder's own
    // checks, entry by entry. Entry j's header is three one-byte varints
    // at payload offset offsets[j] (the 300-byte key is in another block).
    let damaged = |edit: &dyn Fn(&mut Vec<u8>), what: &str, why: &str| {
        refused(what, read_block_0(&encode_v4_file(edit)), why);
    };
    damaged(&|p| p[offsets[0]] = 1, "nonzero shared at restart", "restart point shares");
    damaged(&|p| p[offsets[1]] = 0x7F, "shared beyond the previous key", "shared prefix longer");
    damaged(&|p| p[offsets[0] + 2] |= 1, "tombstone with a value", "tombstone carries a value");
    damaged(
        &|p| p[restart_at..restart_at + 4].copy_from_slice(&(offsets[15] as u32).to_le_bytes()),
        "restart offset at the wrong entry",
        "restart offset is not where its entry starts",
    );
    damaged(
        &|p| p[count_at..count_at + 4].copy_from_slice(&17u32.to_le_bytes()),
        "entry count one short",
        "trailing bytes",
    );

    // The same corruption surfaces through the Db as a typed error on the
    // affected read path (never a panic, never a silent wrong answer), once
    // a MANIFEST lists the file.
    std::fs::write(&path, &bytes).unwrap();
    std::fs::write(dir.join("MANIFEST"), manifest_bytes(&[(4, 1)])).unwrap();
    let first_key = entries[0].0.clone();
    let db = open_unfiltered(&dir, DbConfig::default()).unwrap();
    assert!(matches!(db.get(&first_key), Err(Error::Corruption(_))));
    assert!(matches!(db.seek(&first_key, &entries[5].0), Err(Error::Corruption(_))));
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn v4_golden_truncation_sweep_never_panics() {
    let orig = encode_v4_golden();
    let dir = tmpdir("v4-truncate");
    let path = dir.join("00000004.sst");
    // Any truncation fails the open: the footer is gone or moved, and a
    // footer that moved fails its magic or its CRC. Always typed, never a
    // panic.
    for cut in 0..orig.len() {
        std::fs::write(&path, &orig[..cut]).unwrap();
        match SstReader::open(&path, 4) {
            Err(Error::Corruption(_)) => {}
            Err(other) => panic!("cut {cut}: open failed with {other:?}"),
            Ok(sst) => panic!("cut {cut}: a truncated file opened with {} blocks", sst.n_blocks()),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn v4_golden_bit_flip_sweep_is_refused_or_fails_the_scan() {
    let orig = encode_v4_golden();
    let dir = tmpdir("v4-flip");
    let path = dir.join("00000004.sst");
    let named = |msg: &str| msg.contains(&path.display().to_string());
    // Flip bit `i % 8` of every byte `i`. Footer and index damage must fail
    // the open; data-block damage must fail the scan. Every failure is
    // `Corruption` naming the file — any other error, a read back, or a
    // panic fails here.
    let (mut refused, mut scan_failed) = (0, 0);
    for i in 0..orig.len() {
        let mut bytes = orig.clone();
        bytes[i] ^= 1 << (i % 8);
        std::fs::write(&path, &bytes).unwrap();
        match SstReader::open(&path, 4) {
            Err(Error::Corruption(msg)) if named(&msg) => refused += 1,
            Err(other) => panic!("flip at byte {i}: open failed with {other:?}"),
            Ok(sst) => match scan_all(sst) {
                Err(Error::Corruption(msg)) if named(&msg) => scan_failed += 1,
                Ok(_) => panic!("flip at byte {i} read back without an error"),
                Err(other) => panic!("flip at byte {i}: scan failed with {other:?}"),
            },
        }
    }
    // Every byte before the index is a data block's.
    let index_off = u64::from_le_bytes(orig[orig.len() - 64..][..8].try_into().unwrap());
    assert_eq!(orig.len(), 1_758);
    assert_eq!((refused, scan_failed), (orig.len() - index_off as usize, index_off as usize));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Write a file through the real writer (variable-length string keys),
/// for sweeps over writer-produced bytes (which may use the compressed
/// block codec, unlike the hand-encoded golden).
fn write_with_writer(dir: &Path) -> PathBuf {
    let stats = Stats::default();
    let queue = QueryQueue::new(4, 1);
    let mut w = SstWriter::create(dir, 9, 8, 1 << 12).unwrap();
    for (key, value) in golden_entries() {
        match value {
            Some(v) => w.add(&key, &v).unwrap(),
            None => w.delete(&key).unwrap(),
        }
    }
    drop(w.finish(&ProteusFactory::default(), &queue, 0.0, &stats).unwrap());
    dir.join("00000009.sst")
}

#[test]
fn writer_output_truncation_sweep_never_panics() {
    let dir = tmpdir("truncate");
    let path = write_with_writer(&dir);
    let orig = std::fs::read(&path).unwrap();
    for cut in (0..orig.len()).step_by(7) {
        std::fs::write(&path, &orig[..cut]).unwrap();
        if let Ok(sst) = SstReader::open(&path, 9) {
            let _ = scan_all(sst);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn golden_fixtures_end_with_pinned_magics() {
    // The last 8 bytes of every footer are the format magic. The current
    // generation's exported constant is pinned against its committed
    // fixture; the retired generations keep their literal magics here —
    // the only place they still appear — so the rejection tests above
    // provably run against genuine legacy files.
    let v1 = load_fixture(GOLDEN_V1, encode_v1_golden);
    let v2 = load_fixture(GOLDEN_V2, encode_v2_golden);
    let v3 = load_fixture(GOLDEN_V3, encode_v3_golden);
    let v4 = load_fixture(GOLDEN_V4, encode_v4_golden);
    assert_eq!(&v1[v1.len() - 8..], b"PRSSTv1\0", "v1 fixture drifted");
    assert_eq!(&v2[v2.len() - 8..], b"PRSSTv2\0", "v2 fixture drifted");
    assert_eq!(&v3[v3.len() - 8..], b"PRSSTv3\0", "v3 fixture drifted");
    assert_eq!(&v4[v4.len() - 8..], &SST_MAGIC_V4, "v4 magic drifted");
    assert_eq!(SST_MAGIC_V4, *b"PRSSTv4\0");
    assert_eq!(SST_FORMAT_VERSION, 4);
    assert_eq!(u16::from_le_bytes([v4[v4.len() - 16], v4[v4.len() - 15]]), SST_FORMAT_VERSION);
}

/// A value whose block literal runs into the zero-RLE codec's 65 535-byte
/// cap just as a 2-byte zero run starts must still read back after a
/// flush. The encoder used to let the short run grow the literal to
/// 65 536 bytes, whose `u16` length wrapped to 0: the flushed block
/// failed every read with "corrupt compressed payload". The key length
/// shifts the value within the block, so each length puts the run at a
/// different distance from the cap.
#[test]
fn a_short_zero_run_at_the_literal_cap_survives_flush() {
    let value = [vec![1u8; 65_526], vec![0, 0], vec![1; 10], vec![0; 1_000]].concat();
    for key_len in 1..=4 {
        let dir = tmpdir(&format!("literal-cap-{key_len}"));
        let db = open_unfiltered(&dir, DbConfig::default()).unwrap();
        let key = vec![b'k'; key_len];
        db.put(&key, &value).unwrap();
        assert_eq!(db.get(&key).unwrap().as_deref(), Some(&value[..]));
        db.flush().unwrap();
        assert_eq!(db.get(&key).unwrap().as_deref(), Some(&value[..]), "key length {key_len}");
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
