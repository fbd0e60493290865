//! On-disk format contract of the `MANIFEST` (`PRMANv1`): a byte-exact
//! golden pins the layout and `MANIFEST_MAGIC`, `Db::open` recovers exactly
//! the live set it lists (and deletes what it does not), every truncation
//! and bit flip of it fails the open with a typed `Error::Corruption`, and
//! a store writes the same layout it reads.
//!
//! The golden is committed under `tests/fixtures/manifest/` and encoded by
//! hand from the documented layout, independently of the store. Regenerate
//! deliberately with
//! `PROTEUS_REGEN_FIXTURES=1 cargo test -p proteus-lsm --test manifest_format`.

use proteus_core::codec::crc32;
use proteus_core::key::u64_key;
use proteus_lsm::manifest::MANIFEST_MAGIC;
use proteus_lsm::sst::SstWriter;
use proteus_lsm::{DbConfig, Error, ProteusFactory, QueryQueue, Stats};
use std::path::{Path, PathBuf};

mod common;
use common::{dir_contents, manifest_bytes, open_unfiltered};

const GOLDEN: &str = "tests/fixtures/manifest/golden_v1.MANIFEST";

/// The golden's live set, in `Version` order: L0 oldest first, then L1 and
/// L2 by key range.
const LISTED: [(u64, u32); 5] = [(7, 0), (9, 0), (4, 1), (5, 1), (2, 2)];

/// What each listed file holds: its keys and the value they carry. Newer
/// layers shadow older ones on every key they share.
fn contents(id: u64) -> (std::ops::RangeInclusive<u64>, &'static [u8]) {
    match id {
        2 => (0..=99, b"l2"),
        4 => (0..=40, b"l1-a"),
        5 => (60..=90, b"l1-b"),
        7 => (10..=70, b"l0-old"),
        9 => (30..=35, b"l0-new"),
        _ => (0..=99, b"unlisted"),
    }
}

fn golden() -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var("PROTEUS_REGEN_FIXTURES").is_ok() || !path.exists() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, manifest_bytes(&LISTED)).unwrap();
    }
    std::fs::read(&path).unwrap()
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("proteus-manfmt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Write SST `id` with [`contents`].
fn write_sst(dir: &Path, id: u64) {
    let (keys, value) = contents(id);
    let mut w = SstWriter::create(dir, id, 8, 4096).unwrap();
    for k in keys {
        w.add(&u64_key(k), value).unwrap();
    }
    let queue = QueryQueue::new(4, 1);
    drop(w.finish(&ProteusFactory::default(), &queue, 0.0, &Stats::default()).unwrap());
}

/// A directory holding every file the golden lists, plus `extra` unlisted
/// ones.
fn store_dir(tag: &str, extra: &[u64]) -> PathBuf {
    let dir = tmpdir(tag);
    for id in LISTED.iter().map(|&(id, _)| id).chain(extra.iter().copied()) {
        write_sst(&dir, id);
    }
    dir
}

#[test]
fn golden_pins_the_layout_and_the_magic() {
    let bytes = golden();
    assert_eq!(bytes, manifest_bytes(&LISTED), "the golden drifted from its layout");
    assert_eq!(MANIFEST_MAGIC, *b"PRMANv1\0");
    assert_eq!(bytes[..8], MANIFEST_MAGIC);
    assert_eq!(bytes.len(), 8 + 12 * LISTED.len() + 4);
    let (body, crc) = bytes.split_at(bytes.len() - 4);
    assert_eq!(crc32(body).to_le_bytes(), crc);
}

#[test]
fn open_recovers_exactly_the_listed_files_at_their_levels() {
    // 11 is an output the crash cut off before the edit that would have
    // listed it, 3 an input retired by an edit before the crash.
    let dir = store_dir("recover", &[3, 11]);
    std::fs::write(dir.join("MANIFEST"), golden()).unwrap();
    let db = open_unfiltered(&dir, DbConfig::default()).unwrap();
    assert_eq!(db.level_file_counts(), [2, 2, 1]);
    assert_eq!(db.stats().ssts_recovered.get(), 5);
    for gone in ["00000003.sst", "00000011.sst"] {
        assert!(!dir.join(gone).exists(), "unlisted {gone} survived the open");
    }
    for k in 0..=99u64 {
        let newest = [9, 7, 4, 5, 2].into_iter().find(|&id| contents(id).0.contains(&k));
        let want = newest.map(|id| contents(id).1.to_vec());
        assert_eq!(db.get_u64(k).unwrap(), want, "key {k}");
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_truncation_and_bit_flip_of_the_golden_fails_open_with_corruption() {
    let bytes = golden();
    // The listed files and an unlisted one are all there, so only the
    // MANIFEST's own damage can fail the open — and nothing may be swept.
    let dir = store_dir("sweep", &[11]);
    let variants = (0..bytes.len()).map(|cut| (format!("cut at {cut}"), bytes[..cut].to_vec()));
    let flips = (0..bytes.len() * 8).map(|bit| {
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        (format!("bit {bit} flipped"), flipped)
    });
    for (what, variant) in variants.chain(flips) {
        std::fs::write(dir.join("MANIFEST"), &variant).unwrap();
        let before = dir_contents(&dir);
        match open_unfiltered(&dir, DbConfig::default()) {
            Err(Error::Corruption(_)) => {}
            Err(other) => panic!("{what}: expected Corruption, got {other:?}"),
            Ok(_) => panic!("{what}: a damaged MANIFEST opened"),
        }
        assert_eq!(dir_contents(&dir), before, "{what}: a refused open must touch nothing");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_store_writes_the_layout_it_reads() {
    let dir = tmpdir("writer");
    let cfg = DbConfig::builder().memtable_bytes(16 << 10).build().unwrap();
    let db = open_unfiltered(&dir, cfg).unwrap();
    for i in 0..6_000u64 {
        db.put_u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), &[7u8; 64]).unwrap();
    }
    db.flush_and_settle().unwrap();
    db.put_u64(1, b"one more L0 file").unwrap();
    db.flush().unwrap();
    let counts = db.level_file_counts();
    drop(db);
    assert!(counts.len() >= 3 && counts[0] == 1, "{counts:?}");

    // Decode by hand: magic, (u64 id, u32 level) entries, CRC-32.
    let bytes = std::fs::read(dir.join("MANIFEST")).unwrap();
    let (body, crc) = bytes.split_at(bytes.len() - 4);
    assert_eq!(body[..8], MANIFEST_MAGIC);
    assert_eq!(crc32(body).to_le_bytes(), crc);
    let entries: Vec<(u64, u32)> = body[8..]
        .chunks_exact(12)
        .map(|e| {
            let id = u64::from_le_bytes(e[..8].try_into().unwrap());
            (id, u32::from_le_bytes(e[8..].try_into().unwrap()))
        })
        .collect();
    assert_eq!((body.len() - 8) % 12, 0);
    assert!(entries.windows(2).all(|w| w[0].1 <= w[1].1), "not in level order: {entries:?}");
    let mut per_level = vec![0usize; counts.len()];
    for &(_, level) in &entries {
        per_level[level as usize] += 1;
    }
    assert_eq!(per_level, counts);
    // Exactly the files on disk: the settle's retired inputs are gone.
    let mut listed: Vec<u64> = entries.iter().map(|&(id, _)| id).collect();
    let mut on_disk: Vec<u64> = dir_contents(&dir)
        .iter()
        .filter_map(|(p, _)| p.file_name()?.to_str()?.strip_suffix(".sst")?.parse().ok())
        .collect();
    listed.sort_unstable();
    on_disk.sort_unstable();
    assert_eq!(listed, on_disk);
    let _ = std::fs::remove_dir_all(&dir);
}
