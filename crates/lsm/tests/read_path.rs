//! The one read path, from the outside: `get`, `seek` and `range` walk the
//! same layers in the same recency order, `seek` is the first step of the
//! range merge (no MemTable fork of its own), and `get` stays a point
//! consumer that stops at the first layer knowing the key. A scan reads
//! the MemTables in place: its view is fixed when it is built, and it
//! pays for the rows it consumes, not for the tail behind them.

use proteus_core::key::{key_u64, u64_key};
use proteus_lsm::{Db, DbConfig, NoFilterFactory, ProteusFactory, StatsSnapshot, WriteBatch};
use std::collections::BTreeMap;
use std::sync::Arc;

mod common;
use common::Rng;

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
    let db = Db::open(&dir, small_cfg(), Arc::new(NoFilterFactory)).unwrap();
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
    let db = Db::open(&dir, small_cfg(), Arc::new(NoFilterFactory)).unwrap();
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
    let db = Db::open(&dir, small_cfg(), Arc::new(NoFilterFactory)).unwrap();
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
    // A zero filter budget writes files with no filter block at all.
    let cfg = small_cfg().to_builder().bits_per_key(0.0).build().unwrap();
    let db = Db::open(&dir, cfg, Arc::new(ProteusFactory::default())).unwrap();
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
    let db = Db::open(&dir, small_cfg(), Arc::new(NoFilterFactory)).unwrap();
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
    let db = Db::open(&dir, cfg, Arc::new(NoFilterFactory)).unwrap();
    for i in 0..10_000u64 {
        db.put_u64(i * 2, &[7u8; 32]).unwrap();
    }
    assert_eq!(db.stats().memtable_rotations.get(), 0, "all 10 000 keys in the active table");

    // take(10) out of a 10 000-entry table: the ten rows, plus the one
    // each MemTable layer keeps buffered as its merge head — not the
    // ~9 950 behind them.
    let before = db.stats().snapshot();
    let rows: Vec<_> = db.range_u64(100..).unwrap().take(10).map(Result::unwrap).collect();
    assert_eq!(rows.len(), 10);
    assert_eq!(key_u64(&rows[9].0), 118);
    let d = db.stats().snapshot().delta(&before);
    let layers = 1;
    assert!(
        (10..=10 + layers).contains(&d.memtable_rows_read),
        "{} rows read",
        d.memtable_rows_read
    );

    // A Seek over a window with nothing in it touches no row at all...
    let before = db.stats().snapshot();
    assert!(!db.seek_u64(101, 101).unwrap());
    assert!(!db.seek_u64(30_000, 40_000).unwrap());
    assert_eq!(db.stats().snapshot().delta(&before).memtable_rows_read, 0);
    // ... and one that hits reads its answer and the head behind it.
    let before = db.stats().snapshot();
    assert!(db.seek_u64(101, 5_000).unwrap());
    assert_eq!(db.stats().snapshot().delta(&before).memtable_rows_read, 1 + layers);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
