//! The one read path, from the outside: `get`, `seek` and `range` walk the
//! same layers in the same recency order, `seek` is the first step of the
//! range merge (no MemTable fork of its own), and `get` stays a point
//! consumer that stops at the first layer knowing the key.

use proteus_core::key::{key_u64, u64_key};
use proteus_lsm::{Db, DbConfig, NoFilterFactory, ProteusFactory, StatsSnapshot};
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
    DbConfig::builder()
        .memtable_bytes(16 << 10)
        .sst_target_bytes(32 << 10)
        .level_base_bytes(64 << 10)
        .build()
        .unwrap()
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
    assert_eq!((d.filter_negatives, d.observed_fp, d.observed_tn), (0, 0, 0));
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
