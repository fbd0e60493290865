//! The one read path, from the outside: `get`, `seek` and `range` walk the
//! same layers in the same recency order, `seek` is the first step of the
//! range merge (no MemTable fork of its own), and `get` stays a point
//! consumer that stops at the first layer knowing the key. A scan reads
//! the MemTables in place: its view is fixed when it is built, and it
//! pays for the rows it consumes, not for the tail behind them.

use proteus_core::key::{key_u64, u64_key};
use proteus_lsm::sst::SstReader;
use proteus_lsm::{Db, DbConfig, Error, ProteusFactory, StatsSnapshot, WriteBatch};
use std::collections::BTreeMap;
use std::sync::Arc;

mod common;
use common::{open_unfiltered, Rng};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("proteus-readpath-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn small_cfg() -> DbConfig {
    DbConfig::builder().memtable_bytes(16 << 10).build().unwrap()
}

/// Filter probes settled between two snapshots: `(true positives, false
/// positives, negatives)`.
fn probes(before: &StatsSnapshot, after: &StatsSnapshot) -> (u64, u64, u64) {
    let d = after.delta(before);
    (d.filter_true_positives, d.filter_false_positives, d.filter_negatives)
}

#[test]
fn newest_layer_wins_and_get_never_probes_the_layers_behind_it() {
    let dir = tmpdir("recency");
    let db = open_unfiltered(&dir, small_cfg()).unwrap();
    // Three generations of key 500: settled deep, then two L0 files.
    for i in 0..3_000u64 {
        db.put_u64(i, b"gen-0").unwrap();
    }
    db.flush_and_settle().unwrap();
    db.put_u64(500, b"gen-1").unwrap();
    db.flush().unwrap();
    db.put_u64(500, b"gen-2").unwrap();
    db.flush().unwrap();
    assert!(db.level_file_counts()[0] >= 2, "{:?}", db.level_file_counts());

    let before = db.stats().snapshot();
    assert_eq!(db.get_u64(500).unwrap().as_deref(), Some(&b"gen-2"[..]));
    let after = db.stats().snapshot();
    // One layer probed, found: the older L0 file and the deep level were
    // never asked.
    assert_eq!(probes(&before, &after), (1, 0, 0));
    let d = after.delta(&before);
    assert_eq!(d.blocks_read + d.cache_hits, 1);

    // The cursor consumer agrees on the winner and yields it once.
    let rows: Vec<_> = db.range_u64(500..=500).unwrap().map(Result::unwrap).collect();
    assert_eq!(rows, vec![(u64_key(500).to_vec(), b"gen-2".to_vec())]);
    assert!(db.seek_u64(500, 500).unwrap());
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seek_merges_the_memtable_overlay_instead_of_forking_around_it() {
    let dir = tmpdir("overlay");
    let db = open_unfiltered(&dir, small_cfg()).unwrap();
    for i in 0..2_000u64 {
        db.put_u64(i * 10, b"settled").unwrap();
    }
    db.flush_and_settle().unwrap();
    // Unflushed overlay: a tombstone over a settled key, and a fresh key.
    db.delete_u64(500).unwrap();
    db.put_u64(505, b"fresh").unwrap();

    // The MemTable tombstone shadows the SST's live record.
    assert!(!db.seek_u64(500, 500).unwrap());
    assert!(!db.seek_u64(496, 504).unwrap());
    assert_eq!(db.get_u64(500).unwrap(), None);
    // A live MemTable record answers, and is credited to the MemTable.
    let before = db.stats().snapshot();
    assert!(db.seek_u64(496, 509).unwrap());
    assert_eq!(db.stats().snapshot().delta(&before).seeks_memtable, 1);
    // An SST record that sorts first answers instead — one merge, one order.
    let before = db.stats().snapshot();
    assert!(db.seek_u64(490, 509).unwrap());
    let d = db.stats().snapshot().delta(&before);
    assert_eq!((d.seeks_found, d.seeks_memtable), (1, 0));
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seek_is_the_first_step_of_range_on_every_layer_mix() {
    let dir = tmpdir("equiv");
    let cfg = small_cfg().to_builder().sample_every(1).build().unwrap();
    let db = Db::open(&dir, cfg, Arc::new(ProteusFactory::default())).unwrap();
    let mut rng = Rng(0x5EEC);
    let mut oracle: BTreeMap<u64, bool> = BTreeMap::new();
    // Settled levels, an L0 file and an unflushed overlay, with deletes in
    // each so tombstones shadow across every boundary.
    for phase in 0..3 {
        for _ in 0..4_000 {
            let k = rng.next() % 40_000 * 1_000;
            if rng.next().is_multiple_of(4) {
                db.delete_u64(k).unwrap();
                oracle.insert(k, false);
            } else {
                db.put_u64(k, &k.to_le_bytes()).unwrap();
                oracle.insert(k, true);
            }
        }
        match phase {
            0 => db.flush_and_settle().unwrap(),
            1 => db.flush().unwrap(),
            _ => {}
        }
    }
    for _ in 0..2_000 {
        let lo = rng.next() % 40_000_000;
        let hi = lo + rng.next() % 3_000;
        let first = db.range_u64(lo..=hi).unwrap().next().transpose().unwrap();
        let want = oracle.range(lo..=hi).find(|(_, live)| **live).map(|(k, _)| *k);
        assert_eq!(first.as_ref().map(|(k, _)| key_u64(k)), want, "range [{lo}, {hi}]");
        assert_eq!(db.seek_u64(lo, hi).unwrap(), want.is_some(), "seek [{lo}, {hi}]");
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_seek_satisfied_early_never_reads_or_blames_the_files_behind_its_first_hit() {
    let dir = tmpdir("lazy");
    let db = open_unfiltered(&dir, small_cfg()).unwrap();
    for i in 100..2_000u64 {
        db.put_u64(i, b"deep").unwrap();
    }
    db.flush_and_settle().unwrap();
    db.put_u64(150, b"l0").unwrap();
    db.flush().unwrap();

    // Both the L0 file and the deep file overlap [150, 1000] and are
    // admitted; the L0 file answers first, so the deep file's first block
    // is never read and its probe is never settled either way.
    let before = db.stats().snapshot();
    assert!(db.seek_u64(150, 1_000).unwrap());
    let after = db.stats().snapshot();
    assert_eq!(probes(&before, &after), (1, 0, 0));
    let d = after.delta(&before);
    assert_eq!(d.blocks_read + d.cache_hits, 1);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn filterless_files_never_feed_the_observed_fpr_evidence() {
    let dir = tmpdir("filterless");
    // A zero filter budget writes files with no filter block at all. The
    // adaptive loop would act on the 400 probes below, were they evidence.
    let cfg = small_cfg().to_builder().adapt_min_probes(50).build().unwrap();
    let db = open_unfiltered(&dir, cfg).unwrap();
    for i in 0..2_000u64 {
        db.put_u64(i * 10, b"v").unwrap();
    }
    db.flush_and_settle().unwrap();
    // Absent keys inside the files' ranges: every probe "passes" for want
    // of a filter and pays I/O — counted as false positives, but evidence
    // about no filter's quality.
    let before = db.stats().snapshot();
    for i in 0..200u64 {
        assert_eq!(db.get_u64(i * 10 + 5).unwrap(), None);
        assert!(!db.seek_u64(i * 10 + 1, i * 10 + 9).unwrap());
    }
    let d = db.stats().snapshot().delta(&before);
    assert_eq!(d.filter_false_positives, 400);
    assert_eq!((d.filter_negatives, d.observed_fp), (0, 0));
    // Nothing to flag or re-train, every file describes as filterless, and
    // no filter was ever built.
    assert_eq!(db.adapt_now().unwrap(), 0);
    let s = db.stats().snapshot();
    assert_eq!((s.filters_flagged, s.filters_retrained, s.filters_built), (0, 0, 0));
    let files: Vec<_> = db.describe().into_iter().flatten().collect();
    assert!(!files.is_empty());
    for file in files {
        assert_eq!((file.filter, file.bits_per_key), (None, None), "file {}", file.id);
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shadowing_is_the_same_layered_and_settled() {
    // One put/overwrite/delete history, twice: left spread over MemTable +
    // L0 + levels (the read path's merge resolves the versions on every
    // scan) and fully settled (compaction's merge resolved them once).
    // Both must show exactly the oracle's live rows.
    let (dir_a, dir_b) = (tmpdir("shadow-layered"), tmpdir("shadow-settled"));
    // Everything fits under L1's size target (four 64 KiB MemTables), so
    // the settled store ends with all of its data in the bottom level.
    let cfg = small_cfg().to_builder().memtable_bytes(64 << 10).build().unwrap();
    let layered = Db::open(&dir_a, cfg.clone(), Arc::new(ProteusFactory::default())).unwrap();
    let settled = Db::open(&dir_b, cfg, Arc::new(ProteusFactory::default())).unwrap();
    let mut rng = Rng(0x5AD0);
    let mut oracle: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
    // A small key space, so later phases overwrite and delete what earlier
    // ones left in deeper layers. The last two phases stay under one
    // MemTable each: phase 1 flushes to a single L0 file, phase 2 is never
    // flushed.
    for (phase, ops) in [6_000usize, 300, 300].into_iter().enumerate() {
        for n in 0..ops {
            let key = u64_key(rng.next() % 3_000 * 7).to_vec();
            let value = (!rng.next().is_multiple_of(3)).then(|| vec![phase as u8; 8 + n % 24]);
            for db in [&layered, &settled] {
                match &value {
                    Some(v) => db.put(&key, v).unwrap(),
                    None => db.delete(&key).unwrap(),
                }
            }
            oracle.insert(key, value);
        }
        match phase {
            0 => layered.flush_and_settle().unwrap(),
            1 => layered.flush().unwrap(),
            _ => {}
        }
    }
    settled.flush_and_settle().unwrap();
    let counts = layered.level_file_counts();
    assert!(counts[0] >= 1 && counts[1..].iter().any(|&n| n > 0), "layered: {counts:?}");
    assert!(layered.sst_tombstones() > 0, "the L0 file carries phase 1's deletes");
    let counts = settled.level_file_counts();
    assert_eq!(counts.iter().filter(|&&n| n > 0).count(), 1, "settled: {counts:?}");
    assert_eq!(settled.sst_tombstones(), 0, "tombstones must be gone from the bottom level");

    let want: Vec<(Vec<u8>, Vec<u8>)> =
        oracle.into_iter().filter_map(|(k, v)| v.map(|v| (k, v))).collect();
    let scan = |db: &Db| -> Vec<(Vec<u8>, Vec<u8>)> {
        db.range::<&[u8], _>(..).unwrap().map(Result::unwrap).collect()
    };
    assert!(want.len() > 500, "{} live rows", want.len());
    assert_eq!(scan(&layered), want, "layered vs oracle");
    assert_eq!(scan(&settled), want, "settled vs oracle");
    drop((layered, settled));
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn a_scan_reads_the_store_as_of_its_construction() {
    // One thread, no sleeps: every write, rotation, flush and compaction
    // below happens between two `next()` calls of `it`, which holds no
    // lock while parked (the lock-doctor suites run this too: a write
    // under a live cursor must be neither an inversion nor a self-deadlock).
    let dir = tmpdir("view");
    let db = open_unfiltered(&dir, small_cfg()).unwrap();
    let mut oracle: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    // Settled files below, an unflushed table on top, the two interleaved.
    for i in 0..1_500u64 {
        db.put_u64(i * 4, b"settled").unwrap();
        oracle.insert(i * 4, b"settled".to_vec());
    }
    db.flush_and_settle().unwrap();
    for i in 0..300u64 {
        db.put_u64(i * 20 + 2, b"overlay").unwrap();
        oracle.insert(i * 20 + 2, b"overlay".to_vec());
    }
    db.delete_u64(40).unwrap();
    oracle.remove(&40);
    let want: Vec<(Vec<u8>, Vec<u8>)> =
        oracle.iter().map(|(k, v)| (u64_key(*k).to_vec(), v.clone())).collect();

    let mut it = db.range::<&[u8], _>(..).unwrap();
    let mut got = vec![it.next().unwrap().unwrap()];

    // Behind the cursor and ahead of it, in the table it is positioned in
    // and in the files under it: overwrite, delete, insert, resurrect.
    db.put_u64(0, b"late").unwrap(); // the row already taken
    db.put_u64(2, b"late").unwrap(); // the cursor's buffered head
    db.put_u64(22, b"late").unwrap(); // overlay row ahead
    db.put_u64(400, b"late").unwrap(); // settled row ahead
    db.delete_u64(42).unwrap(); // overlay row ahead
    db.delete_u64(404).unwrap(); // settled row ahead
    db.put_u64(3, b"late").unwrap(); // new key right at the cursor
    db.put_u64(5_001, b"late").unwrap(); // new key far ahead
    db.put_u64(40, b"late").unwrap(); // resurrects what the view saw deleted
    let mut batch = WriteBatch::new();
    batch.put_u64(62, b"late").delete_u64(82).put_u64(83, b"late").delete_u64(408);
    batch.put_u64(62, b"later"); // twice in one batch: one stamp, replaced in place
    db.write(batch).unwrap();
    // Rotate the table the cursor holds, flush it, compact it away.
    db.flush_and_settle().unwrap();
    assert_eq!(db.level_file_counts()[0], 0);
    for i in 0..200u64 {
        db.put_u64(i * 8 + 1, b"next-table").unwrap();
    }

    got.extend(it.map(Result::unwrap));
    assert_eq!(got.len(), want.len());
    assert_eq!(got, want, "the view moved under a live iterator");

    // A second iterator, built now, sees every one of those writes.
    let rows: BTreeMap<u64, Vec<u8>> = db
        .range::<&[u8], _>(..)
        .unwrap()
        .map(|e| e.map(|(k, v)| (key_u64(&k), v)).unwrap())
        .collect();
    for k in [0, 2, 22, 400, 3, 5_001, 40, 83] {
        assert_eq!(rows.get(&k).map(Vec::as_slice), Some(&b"late"[..]), "key {k}");
    }
    assert_eq!(rows.get(&62).map(Vec::as_slice), Some(&b"later"[..]));
    for k in [42, 404, 82, 408] {
        assert_eq!(rows.get(&k), None, "key {k}");
    }
    assert_eq!(rows.get(&9).map(Vec::as_slice), Some(&b"next-table"[..]));
    assert_eq!(rows.len(), want.len() + 3 + 200 - 4 + 1);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_scan_pays_for_the_memtable_rows_it_consumes() {
    let dir = tmpdir("rows-read");
    // One MemTable layer — the active table, never rotated — over no SST.
    let cfg = DbConfig::builder().memtable_bytes(8 << 20).build().unwrap();
    let db = open_unfiltered(&dir, cfg).unwrap();
    for i in 0..10_000u64 {
        db.put_u64(i * 2, &[7u8; 32]).unwrap();
    }
    assert_eq!(db.stats().memtable_rotations.get(), 0, "all 10 000 keys in the active table");

    // take(10) out of a 10 000-entry table: the ten rows and nothing
    // behind them — a source moves past a row only when the next one is
    // asked for.
    let before = db.stats().snapshot();
    let rows: Vec<_> = db.range_u64(100..).unwrap().take(10).map(Result::unwrap).collect();
    assert_eq!(rows.len(), 10);
    assert_eq!(key_u64(&rows[9].0), 118);
    assert_eq!(db.stats().snapshot().delta(&before).memtable_rows_read, 10);

    // A Seek over a window with nothing in it touches no row at all...
    let before = db.stats().snapshot();
    assert!(!db.seek_u64(101, 101).unwrap());
    assert!(!db.seek_u64(30_000, 40_000).unwrap());
    assert_eq!(db.stats().snapshot().delta(&before).memtable_rows_read, 0);
    // ... and one that hits reads its answer only.
    let before = db.stats().snapshot();
    assert!(db.seek_u64(101, 5_000).unwrap());
    assert_eq!(db.stats().snapshot().delta(&before).memtable_rows_read, 1);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_scan_yields_what_precedes_a_corrupt_block_then_one_error_then_nothing() {
    let dir = tmpdir("corrupt-block");
    let cfg = DbConfig::builder().memtable_bytes(8 << 20).build().unwrap();
    {
        let db = open_unfiltered(&dir, cfg.clone()).unwrap();
        for i in 1_000..4_000u64 {
            db.put_u64(i, &[7u8; 32]).unwrap();
        }
        db.flush().unwrap();
    }
    // One SST; its second data block gets a codec tag no reader knows.
    let ssts: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "sst"))
        .collect();
    let [path] = &ssts[..] else { panic!("one SST: {ssts:?}") };
    let id = path.file_stem().unwrap().to_str().unwrap().parse().unwrap();
    let sst = SstReader::open(path, id).unwrap();
    assert!(sst.n_blocks() > 2);
    let before_bad = key_u64(&sst.block_meta(0).last_key);
    let mut bytes = std::fs::read(path).unwrap();
    bytes[sst.block_meta(1).offset as usize] = 0xEE;
    drop(sst);
    std::fs::write(path, bytes).unwrap();

    // Reopened with a cold cache, under a MemTable row in front of the file.
    let db = open_unfiltered(&dir, cfg).unwrap();
    db.put_u64(5, b"mem").unwrap();
    let mut scan = db.range_u64(..).unwrap();
    let mut keys = Vec::new();
    let err = loop {
        match scan.next() {
            Some(Ok((k, _))) => keys.push(key_u64(&k)),
            Some(Err(e)) => break e,
            None => panic!("the scan ended without reporting the corrupt block"),
        }
    };
    let expected: Vec<u64> = std::iter::once(5).chain(1_000..=before_bad).collect();
    assert_eq!(keys, expected, "every entry before the bad block, in order");
    let name = path.file_name().unwrap().to_str().unwrap();
    assert!(matches!(&err, Error::Corruption(d) if d.contains(name)), "{err:?} names {name}");
    assert!(scan.next().is_none(), "one error, then the end");
    assert!(scan.next().is_none());
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The store's block cache budget (`db::BLOCK_CACHE_BYTES`, pinned by a
/// unit test in `config`).
const BLOCK_CACHE_BYTES: usize = 8 << 20;

/// The data blocks of every SST in `dir`: how many, their stored bytes
/// (what the block cache budgets) and their decoded payload bytes.
fn data_blocks(dir: &std::path::Path) -> (u64, usize, usize) {
    let (mut blocks, mut stored, mut decoded) = (0u64, 0usize, 0usize);
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|x| x != "sst") {
            continue;
        }
        let id = path.file_stem().unwrap().to_str().unwrap().parse().unwrap();
        let sst = SstReader::open(&path, id).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for b in 0..sst.n_blocks() {
            let meta = sst.block_meta(b);
            let at = meta.offset as usize;
            stored += meta.len as usize;
            // The codec header's `raw_len`.
            decoded += u32::from_le_bytes(bytes[at + 1..at + 5].try_into().unwrap()) as usize;
        }
        blocks += sst.n_blocks() as u64;
    }
    (blocks, stored, decoded)
}

/// Scan the whole store twice: the first scan reads every one of its
/// `blocks` data blocks, and the second, with `stored` bytes of them
/// cached, must read none.
fn second_scan_is_served_from_the_cache(db: &Db, keys: u64, blocks: u64) {
    let scan = || db.range_u64(..).unwrap().map(Result::unwrap).count() as u64;
    let before = db.stats().snapshot();
    assert_eq!(scan(), keys);
    let cold = db.stats().snapshot();
    assert_eq!(cold.delta(&before).blocks_read, blocks, "the first scan reads every block");
    assert_eq!(scan(), keys);
    let warm = db.stats().snapshot().delta(&cold);
    assert_eq!(warm.blocks_read, 0, "the second scan is served from the cache");
    assert_eq!(warm.cache_hits, blocks, "one hit per block");
}

#[test]
fn one_cache_budget_holds_a_working_set_just_under_it() {
    const KEYS: u64 = 57_500;
    let dir = tmpdir("cache-budget");
    // 1 MiB tables settle into several files. A budget split into 16
    // hash-selected 512 KiB LRUs overflows its fullest shards on such a
    // layout (one or two large files spread almost evenly), so the second
    // scan below would miss.
    let cfg = DbConfig::builder().memtable_bytes(1 << 20).build().unwrap();
    let db = open_unfiltered(&dir, cfg).unwrap();
    // Incompressible values, so a block's stored size is its decoded size.
    let mut rng = Rng(7);
    let mut value = [0u8; 120];
    for i in 0..KEYS {
        for chunk in value.chunks_mut(8) {
            chunk.copy_from_slice(&rng.next().to_le_bytes()[..chunk.len()]);
        }
        db.put_u64(i, &value).unwrap();
    }
    db.flush_and_settle().unwrap();

    let (blocks, stored, _) = data_blocks(&dir);
    let fill = stored as f64 / BLOCK_CACHE_BYTES as f64;
    assert!((0.85..0.95).contains(&fill), "working set fills {fill:.3} of the cache");
    second_scan_is_served_from_the_cache(&db, KEYS, blocks);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_cache_budgets_blocks_as_stored_so_compressed_blocks_fit_twice() {
    const KEYS: u64 = 96_000;
    let dir = tmpdir("cache-stored");
    let cfg = DbConfig::builder().memtable_bytes(1 << 20).build().unwrap();
    let db = open_unfiltered(&dir, cfg).unwrap();
    // Half-zero values, as the benchmark harness writes them: the zero half
    // compresses away, so a block is stored in about half its bytes.
    let mut rng = Rng(11);
    let mut value = [0u8; 128];
    for i in 0..KEYS {
        for chunk in value[64..].chunks_mut(8) {
            chunk.copy_from_slice(&rng.next().to_le_bytes());
        }
        db.put_u64(i, &value).unwrap();
    }
    db.flush_and_settle().unwrap();

    let (blocks, stored, decoded) = data_blocks(&dir);
    let fill = stored as f64 / BLOCK_CACHE_BYTES as f64;
    assert!((0.85..0.95).contains(&fill), "stored blocks fill {fill:.3} of the cache");
    assert!(decoded > BLOCK_CACHE_BYTES, "decoded blocks take {decoded} bytes");
    second_scan_is_served_from_the_cache(&db, KEYS, blocks);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_block_that_fails_its_check_is_never_cached() {
    let dir = tmpdir("uncached-corrupt");
    let cfg = DbConfig::builder().memtable_bytes(8 << 20).build().unwrap();
    {
        let db = open_unfiltered(&dir, cfg.clone()).unwrap();
        // Keys and values without a zero byte, so no block compresses.
        let mut rng = Rng(3);
        for i in 0..3_000u64 {
            let key = 0x5A5A_5A5A_5A5A_0000 | ((i >> 7) + 1) << 8 | ((i & 127) + 1);
            let value: Vec<u8> = (0..32).map(|_| rng.next() as u8 | 1).collect();
            db.put_u64(key, &value).unwrap();
        }
        db.flush().unwrap();
    }
    let ssts: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "sst"))
        .collect();
    let [path] = &ssts[..] else { panic!("one SST: {ssts:?}") };
    let id = path.file_stem().unwrap().to_str().unwrap().parse().unwrap();
    let sst = SstReader::open(path, id).unwrap();
    let meta = sst.block_meta(1);
    let (at, key) = (meta.offset as usize, key_u64(&meta.first_key));
    let first = key_u64(&sst.block_meta(0).first_key);
    drop(sst);
    // Block 1 is stored raw: its first entry's flags byte sits behind the
    // 9-byte codec header, the entry count and the entry's two lengths.
    // Setting a reserved bit there fails the check and nothing else.
    let mut bytes = std::fs::read(path).unwrap();
    assert_eq!(bytes[at], 0, "incompressible values are stored raw");
    bytes[at + 9 + 4 + 4] = 0x40;
    std::fs::write(path, bytes).unwrap();

    let db = open_unfiltered(&dir, cfg).unwrap();
    let name = path.file_name().unwrap().to_str().unwrap();
    let before = db.stats().snapshot();
    for read in 0..2 {
        let err = db.get_u64(key).unwrap_err();
        assert!(matches!(&err, Error::Corruption(d) if d.contains(name)), "read {read}: {err:?}");
    }
    let d = db.stats().snapshot().delta(&before);
    assert_eq!((d.blocks_read, d.cache_hits), (2, 0), "each read checks the block from disk");
    // The blocks around it are served, and cached, as ever.
    assert!(db.get_u64(first).unwrap().is_some());
    assert!(db.get_u64(first).unwrap().is_some());
    assert_eq!(db.stats().snapshot().delta(&before).cache_hits, 1);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
