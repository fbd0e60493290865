//! # proteus-lsm
//!
//! A self-contained log-structured merge-tree key-value store standing in
//! for RocksDB in the paper's end-to-end evaluation (§6). It reproduces the
//! mechanics the experiments depend on:
//!
//! * MemTable → overlapping L0 → leveled, range-partitioned L1+ with
//!   size-ratio compaction;
//! * shared-state concurrency: `&self` reads and writes, snapshot (MVCC)
//!   reads against an `Arc`-swapped level manifest, MemTable rotation, and
//!   one background thread that flushes, compacts and re-trains filters
//!   (see the [`db`] module docs for the full model);
//! * block-based SST files on disk with zero-RLE compression and an
//!   in-memory index;
//! * a per-SST range filter built at flush/compaction time from the file's
//!   keys and a FIFO queue of sampled empty queries (§6.1), through the
//!   pluggable [`FilterFactory`] hook;
//! * the v2 API surface: typed [`Error`]/[`Result`] on every public
//!   method, exact-key [`Db::get`], first-class deletes (tombstones flow
//!   through MemTable → SST entry flags → compaction → recovery), atomic
//!   [`WriteBatch`] writes and ordered [`Db::range`] scans;
//! * crash-safe writes: a CRC-checksummed write-ahead log with
//!   leader/follower group commit and a configurable [`SyncMode`]
//!   (Always / Interval / Off), replayed by [`Db::open`] so every acked
//!   write survives a crash — see the [`wal`] module docs;
//! * one read path ([`read`]) behind `get`, `seek` and `range`: every
//!   overlapping file's filter is probed first and only positive files
//!   pay index + block I/O — `seek` itself is a thin emptiness wrapper
//!   over the range merge;
//! * a sharded LRU block cache and full (atomic) I/O statistics.
//!
//! Documented substitutions versus real RocksDB: one background thread
//! (LevelDB's arrangement) instead of a pool, zero-RLE instead of
//! LZ4/ZSTD, and scaled-down size defaults (ratios preserved).

#![warn(missing_docs)]

pub mod adapt;
pub mod batch;
pub mod block;
pub mod cache;
mod compact;
pub mod compress;
pub mod config;
pub mod db;
pub mod error;
pub mod filter_hook;
pub mod manifest;
pub mod memtable;
pub mod query_queue;
pub mod read;
pub mod sst;
pub mod stats;
pub mod wal;

pub use batch::WriteBatch;
pub use cache::{BlockCache, ShardedBlockCache};
pub use config::{DbConfig, DbConfigBuilder, SyncMode};
pub use db::Db;
pub use error::{Error, Result};
pub use filter_hook::{FilterFactory, ProteusFactory};
pub use query_queue::QueryQueue;
pub use read::RangeIter;
pub use sst::SstDescription;
pub use stats::{Stats, StatsSnapshot};

#[cfg(test)]
mod db_tests {
    use super::*;
    use proteus_core::key::u64_key;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("proteus-lsm-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn small_cfg() -> DbConfig {
        DbConfig::builder().memtable_bytes(64 << 10).bits_per_key(12.0).build().unwrap()
    }

    /// A store without filters: `cfg` with a zero filter budget, so no file
    /// calls the factory and every file's filter is `None`.
    pub(crate) fn open_unfiltered(dir: &std::path::Path, cfg: DbConfig) -> Result<Db> {
        let cfg = cfg.to_builder().bits_per_key(0.0).build()?;
        Db::open(dir, cfg, Arc::new(ProteusFactory::default()))
    }

    fn value(i: u64) -> Vec<u8> {
        let mut v = vec![0u8; 128];
        v[64..72].copy_from_slice(&i.to_le_bytes());
        v
    }

    #[test]
    fn put_flush_seek_roundtrip() {
        let dir = tmpdir("roundtrip");
        let db = open_unfiltered(&dir, small_cfg()).unwrap();
        for i in 0..5000u64 {
            db.put_u64(i * 1000, &value(i)).unwrap();
        }
        db.flush_and_settle().unwrap();
        assert!(db.sst_count() > 1, "should have spilled to multiple SSTs");
        // Every key findable, points and ranges.
        for i in (0..5000u64).step_by(137) {
            assert!(db.seek_u64(i * 1000, i * 1000).unwrap(), "point {i}");
            assert!(db.seek_u64((i * 1000).saturating_sub(10), i * 1000 + 10).unwrap());
        }
        // Gaps are empty.
        for i in (0..4999u64).step_by(211) {
            assert!(!db.seek_u64(i * 1000 + 1, i * 1000 + 999).unwrap(), "gap {i}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memtable_answers_before_flush() {
        let dir = tmpdir("memtable");
        let db = open_unfiltered(&dir, small_cfg()).unwrap();
        db.put_u64(42, b"v").unwrap();
        assert!(db.seek_u64(40, 44).unwrap());
        assert!(!db.seek_u64(43, 100).unwrap());
        assert_eq!(db.stats().blocks_read.get(), 0, "no I/O before flush");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_moves_data_down_and_preserves_it() {
        let dir = tmpdir("compaction");
        let cfg = small_cfg().to_builder().memtable_bytes(16 << 10).build().unwrap();
        let db = open_unfiltered(&dir, cfg).unwrap();
        for i in 0..20_000u64 {
            db.put_u64((i * 2_654_435_761) % (1 << 40), &value(i)).unwrap();
        }
        db.flush_and_settle().unwrap();
        assert!(db.stats().compactions.get() > 0);
        let counts = db.level_file_counts();
        assert!(counts.len() >= 2, "{counts:?}");
        assert!(counts[0] <= 2, "L0 should have been compacted: {counts:?}");
        // Deeper levels sorted and disjoint is implied by seek correctness:
        for i in (0..20_000u64).step_by(397) {
            let k = (i * 2_654_435_761) % (1 << 40);
            assert!(db.seek_u64(k, k).unwrap(), "key {k} lost in compaction");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn overwrites_keep_newest_value_through_compaction() {
        let dir = tmpdir("overwrite");
        let cfg = small_cfg().to_builder().memtable_bytes(8 << 10).build().unwrap();
        let db = open_unfiltered(&dir, cfg).unwrap();
        for round in 0..4u64 {
            for i in 0..500u64 {
                let mut v = value(i);
                v[0] = round as u8;
                db.put_u64(i * 7, &v).unwrap();
            }
            db.flush().unwrap();
        }
        db.flush_and_settle().unwrap();
        // The store still finds every key exactly once (merge dedupe).
        for i in 0..500u64 {
            assert!(db.seek_u64(i * 7, i * 7).unwrap());
            if i > 0 {
                assert!(!db.seek_u64(i * 7 - 6, i * 7 - 1).unwrap());
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn proteus_filters_cut_io_on_empty_seeks() {
        let dir = tmpdir("proteus-filter");
        let cfg = small_cfg().to_builder().bits_per_key(14.0).sample_every(1).build().unwrap();
        let db = Db::open(&dir, cfg, Arc::new(ProteusFactory::default())).unwrap();
        // Clustered keys so empty queries near the clusters are filterable.
        for i in 0..20_000u64 {
            db.put_u64(i << 20, &value(i)).unwrap();
        }
        // Seed with representative empty queries, then settle so filters are
        // built with samples available.
        let seed: Vec<(Vec<u8>, Vec<u8>)> = (0..2000u64)
            .map(|i| {
                let lo = (i * 37 % 20_000) << 20 | 0x1000;
                (u64_key(lo).to_vec(), u64_key(lo + 0x2000).to_vec())
            })
            .collect();
        db.seed_queries(seed);
        db.flush_and_settle().unwrap();

        let before = db.stats().snapshot();
        let mut fps = 0u64;
        for i in 0..2000u64 {
            let lo = ((i * 97 + 13) % 20_000) << 20 | 0x10000;
            if db.seek_u64(lo, lo + 0x1000).unwrap() {
                fps += 1;
            }
        }
        let after = db.stats().snapshot();
        let delta = after.delta(&before);
        assert_eq!(fps, 0, "queries in gaps must be empty");
        // The filters should have screened out the overwhelming majority of
        // SST probes without I/O.
        assert!(
            delta.filter_negatives > delta.filter_false_positives * 3,
            "negatives {} vs false positives {}",
            delta.filter_negatives,
            delta.filter_false_positives,
        );
        assert!(db.filter_bits() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_filter_baseline_pays_io_for_every_overlap() {
        let dir = tmpdir("nofilter-io");
        let db = open_unfiltered(&dir, small_cfg()).unwrap();
        for i in 0..5000u64 {
            db.put_u64(i << 24, &value(i)).unwrap();
        }
        db.flush_and_settle().unwrap();
        let before = db.stats().snapshot();
        for i in 0..500u64 {
            let lo = (i % 5000) << 24 | 0x1000;
            let _ = db.seek_u64(lo, lo + 0xFF).unwrap();
        }
        let after = db.stats().snapshot();
        let delta = after.delta(&before);
        assert_eq!(delta.filter_negatives, 0);
        // A handful of gap queries fall between file boundaries and touch
        // nothing; every other seek pays a block access.
        assert!(
            delta.blocks_read + delta.cache_hits >= 450,
            "blocks {} + hits {}",
            delta.blocks_read,
            delta.cache_hits
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_discards_unfinished_tmp_files_from_a_crash() {
        let dir = tmpdir("crash-tmp");
        let db = open_unfiltered(&dir, small_cfg()).unwrap();
        for i in 0..2_000u64 {
            db.put_u64(i * 11, &value(i)).unwrap();
        }
        db.flush_and_settle().unwrap();
        let ssts = db.sst_count();
        drop(db);
        // Simulate a crash mid-write: a flush or compaction output the
        // MANIFEST never listed, and a filter rewrite never renamed.
        std::fs::write(dir.join("00000099.sst"), b"partial garbage, no footer").unwrap();
        std::fs::write(dir.join("00000098.sst.tmp"), b"partial garbage, no footer").unwrap();
        let db = open_unfiltered(&dir, small_cfg()).unwrap();
        assert_eq!(db.sst_count(), ssts, "stragglers must not poison recovery");
        assert!(!dir.join("00000099.sst").exists(), "unlisted SST cleaned up");
        assert!(!dir.join("00000098.sst.tmp").exists(), "straggler cleaned up");
        assert!(db.seek_u64(0, 0).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_recovers_levels_and_filters_without_retraining() {
        let dir = tmpdir("reopen");
        let cfg =
            small_cfg().to_builder().memtable_bytes(16 << 10).sample_every(1).build().unwrap();
        let keys: Vec<u64> = (0..8_000u64).map(|i| (i * 2_654_435_761) % (1 << 44)).collect();
        let (counts, filter_bits, sst_count) = {
            let db = Db::open(&dir, cfg.clone(), Arc::new(ProteusFactory::default())).unwrap();
            for &k in &keys {
                db.put_u64(k, &value(k)).unwrap();
            }
            db.flush_and_settle().unwrap();
            (db.level_file_counts(), db.filter_bits(), db.sst_count())
        };

        let db = Db::open(&dir, cfg, Arc::new(ProteusFactory::default())).unwrap();
        assert_eq!(db.level_file_counts(), counts, "level manifest must survive reopen");
        assert_eq!(db.stats().ssts_recovered.get(), sst_count as u64);
        assert_eq!(db.stats().filters_built.get(), 0, "reopen must not retrain");
        // Every filter is in place when `open` returns, before any probe.
        assert_eq!(db.stats().filters_loaded.get(), sst_count as u64);
        assert_eq!(db.stats().filters_degraded.get(), 0);
        let opened = db.stats().snapshot();
        assert_eq!(db.filter_bits(), filter_bits, "filters must reload bit-identically");
        assert_eq!(db.stats().snapshot(), opened, "reading the filters' size loads nothing");
        // Zero false negatives after recovery.
        for &k in keys.iter().step_by(53) {
            assert!(db.seek_u64(k, k).unwrap(), "key {k} lost across reopen");
        }
        // Writes keep working: ids continue past the recovered set.
        db.put_u64(u64::MAX - 5, b"post-reopen").unwrap();
        db.flush().unwrap();
        assert!(db.seek_u64(u64::MAX - 5, u64::MAX - 5).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_corrupt_filter_block_costs_one_file_its_filter_not_the_open() {
        let dir = tmpdir("reopen-degraded");
        let keys: Vec<u64> = (0..8_000u64).map(|i| (i * 2_654_435_761) % (1 << 44)).collect();
        let sst_count = {
            let db = Db::open(&dir, small_cfg(), Arc::new(ProteusFactory::default())).unwrap();
            for &k in &keys {
                db.put_u64(k, &value(k)).unwrap();
            }
            db.flush_and_settle().unwrap();
            db.sst_count()
        };
        assert!(sst_count > 1, "want a multi-file database");
        // Flip one byte inside the filter block of one file.
        let victim = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|x| x == "sst"))
            .unwrap();
        let mut bytes = std::fs::read(&victim).unwrap();
        let footer = bytes.len() - sst::SST_FOOTER_LEN as usize;
        let filter_off =
            u64::from_le_bytes(bytes[footer + 16..footer + 24].try_into().unwrap()) as usize;
        bytes[filter_off + 20] ^= 0xFF;
        std::fs::write(&victim, &bytes).unwrap();

        let db = Db::open(&dir, small_cfg(), Arc::new(ProteusFactory::default())).unwrap();
        // Counted by the open itself, before any probe.
        assert_eq!(db.stats().ssts_recovered.get(), sst_count as u64);
        assert_eq!(db.stats().filters_degraded.get(), 1);
        assert_eq!(db.stats().filters_loaded.get(), sst_count as u64 - 1);
        // The damaged file serves unfiltered: every key is still found.
        for &k in &keys {
            assert!(db.seek_u64(k, k).unwrap(), "key {k} lost behind a degraded filter");
        }
        assert_eq!(db.stats().filters_degraded.get(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_track_seek_outcomes() {
        let dir = tmpdir("stats");
        let db = open_unfiltered(&dir, small_cfg()).unwrap();
        for i in 0..100u64 {
            db.put_u64(i * 100, &value(i)).unwrap();
        }
        db.flush_and_settle().unwrap();
        assert!(db.seek_u64(0, 0).unwrap());
        assert!(!db.seek_u64(1, 99).unwrap());
        assert!(!db.seek_u64(1 << 60, 1 << 61).unwrap());
        let s = db.stats().snapshot();
        assert_eq!(s.seeks, 3);
        assert_eq!(s.seeks_found, 1);
        assert!(s.seeks_filtered >= 1, "out-of-range seek touches nothing");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sampling_skips_memtable_answered_queries() {
        // §6.1 samples *executed empty* queries only. A Seek answered by a
        // MemTable (active or frozen) must not feed the sample queue; a
        // Seek the store executed and found empty must.
        let dir = tmpdir("sampling");
        let cfg = small_cfg().to_builder().sample_every(1).build().unwrap();
        let db = open_unfiltered(&dir, cfg).unwrap();
        db.put_u64(500, b"v").unwrap();

        // Answered by the active MemTable: not an empty query, no offer.
        assert!(db.seek_u64(400, 600).unwrap());
        let s = db.stats().snapshot();
        assert_eq!(s.seeks_memtable, 1);
        assert_eq!(s.sample_offers, 0, "memtable answer must not be sampled");
        assert_eq!(db.stats().sampled_queries.get(), 0);

        // Executed and empty (nothing on disk yet, memtable can't answer):
        // exactly one offer, recorded.
        assert!(!db.seek_u64(1000, 2000).unwrap());
        let s = db.stats().snapshot();
        assert_eq!(s.sample_offers, 1);
        assert_eq!(db.stats().sampled_queries.get(), 1);

        // Same split after the data moves to an SST: a found Seek executes
        // but is non-empty (no offer); an empty Seek offers.
        db.flush_and_settle().unwrap();
        assert!(db.seek_u64(500, 500).unwrap());
        let s = db.stats().snapshot();
        assert_eq!(s.sample_offers, 1, "non-empty executed seek must not be sampled");
        assert!(!db.seek_u64(700, 800).unwrap());
        let s = db.stats().snapshot();
        assert_eq!(s.sample_offers, 2);
        assert_eq!(db.stats().sampled_queries.get(), 2);
        assert_eq!(s.seeks_memtable, 1, "SST-era seeks are not memtable answers");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn get_delete_batch_range_roundtrip() {
        let dir = tmpdir("v2-roundtrip");
        let db = open_unfiltered(&dir, small_cfg()).unwrap();
        for i in 0..2_000u64 {
            db.put_u64(i * 3, &value(i)).unwrap();
        }
        // Reads before any flush.
        assert_eq!(db.get_u64(30).unwrap().unwrap(), value(10));
        assert_eq!(db.get_u64(31).unwrap(), None);
        // Delete a stripe, some before and some after the flush boundary.
        for i in (0..2_000u64).step_by(5) {
            db.delete_u64(i * 3).unwrap();
        }
        db.flush_and_settle().unwrap();
        for i in (0..2_000u64).step_by(7) {
            let want = if i % 5 == 0 { None } else { Some(value(i)) };
            assert_eq!(db.get_u64(i * 3).unwrap(), want, "get({i})");
        }
        // Atomic batch: the overwrite inside the batch wins in order.
        let mut batch = WriteBatch::new();
        batch.put_u64(6, b"first").delete_u64(6).put_u64(6, b"final").delete_u64(9);
        db.write(batch).unwrap();
        assert_eq!(db.get_u64(6).unwrap().as_deref(), Some(&b"final"[..]));
        assert_eq!(db.get_u64(9).unwrap(), None);
        // Ordered scan: sorted, deduplicated, tombstones suppressed.
        let got: Vec<u64> = db
            .range_u64(0..=60)
            .unwrap()
            .map(|e| e.map(|(k, _)| proteus_core::key::key_u64(&k)))
            .collect::<crate::Result<_>>()
            .unwrap();
        // Keys 0..=60 step 3, minus deleted multiples of 15, plus 6 (re-put)
        // and minus 9 (batch-deleted).
        let want: Vec<u64> =
            (0..=20u64).map(|i| i * 3).filter(|k| !(k % 15 == 0 && *k != 6) && *k != 9).collect();
        assert_eq!(got, want);
        assert!(db.stats().deletes.get() >= 400);
        assert_eq!(db.stats().range_scans.get(), 1);
        assert!(db.stats().gets.get() > 0);
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inverted_ranges_are_empty_not_errors() {
        let dir = tmpdir("inverted");
        let db = open_unfiltered(&dir, small_cfg()).unwrap();
        db.put_u64(100, b"v").unwrap();
        // seek with lo > hi: defined as empty, not an assert or an error.
        assert!(!db.seek_u64(200, 100).unwrap());
        assert!(db.seek_u64(100, 100).unwrap());
        // range with inverted or degenerate bounds: empty iterators.
        #[allow(clippy::reversed_empty_ranges)]
        {
            assert_eq!(db.range_u64(200..=100).unwrap().count(), 0);
            assert_eq!(db.range_u64(7..3).unwrap().count(), 0);
        }
        assert_eq!(db.range_u64(100..100).unwrap().count(), 0);
        // Excluded bounds that fall off the key space: empty, not a panic.
        assert_eq!(
            db.range_u64((std::ops::Bound::Excluded(u64::MAX), std::ops::Bound::Unbounded))
                .unwrap()
                .count(),
            0
        );
        // Inverted seeks pay no I/O and are not offered as sample queries.
        let s = db.stats().snapshot();
        assert_eq!(s.sample_offers, 0);
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_length_and_oversized_keys_are_config_errors() {
        let dir = tmpdir("badkeys");
        let db = open_unfiltered(&dir, small_cfg()).unwrap();
        let is_config = |r: crate::Result<()>| matches!(r, Err(crate::Error::Config(_)));
        let oversized = vec![7u8; 2000]; // the key cap is 1024 bytes
        assert!(is_config(db.put(b"", b"v")), "empty key put");
        assert!(is_config(db.put(&oversized, b"v")), "oversized put");
        assert!(is_config(db.delete(b"")), "empty key delete");
        assert!(is_config(db.delete(&oversized)), "oversized delete");
        assert!(is_config(db.get(b"").map(drop)), "empty key get");
        assert!(is_config(db.get(&oversized).map(drop)), "oversized get");
        assert!(is_config(db.seek(b"", b"").map(drop)), "empty key seek");
        let empty: &[u8] = b"";
        assert!(is_config(db.range(empty..=empty).map(drop)), "empty key range bound");
        let big: &[u8] = &oversized;
        assert!(is_config(db.range(big..=big).map(drop)), "oversized range bound");
        // Rejected reads never started: like `gets`/`seeks`, `range_scans`
        // counts validated scans only.
        let s = db.stats().snapshot();
        assert_eq!((s.gets, s.seeks, s.range_scans), (0, 0, 0));
        // Short keys are legal now — any non-empty byte string within the
        // limit round-trips.
        db.put(b"short", b"v").unwrap();
        assert_eq!(db.get(b"short").unwrap().as_deref(), Some(&b"v"[..]));
        // A bad key anywhere in a batch rejects the whole batch.
        let mut batch = WriteBatch::new();
        batch.put_u64(1, b"ok");
        batch.put(b"", b"bad");
        assert!(is_config(db.write(batch)));
        assert_eq!(db.get_u64(1).unwrap(), None, "rejected batch must not apply partially");
        let mut batch = WriteBatch::new();
        batch.put_u64(2, b"ok");
        batch.put(&oversized, b"bad");
        assert!(is_config(db.write(batch)));
        assert_eq!(db.get_u64(2).unwrap(), None, "oversized batch must not apply partially");
        // An invalid configuration is rejected at open, same error type.
        let bad = DbConfig::builder().key_width(0).build();
        assert!(matches!(bad, Err(crate::Error::Config(_))));
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tombstones_shadow_until_bottom_then_drop() {
        let dir = tmpdir("tombstone-drop");
        // L1 (four 128 KiB MemTables) holds the whole load, so it is the
        // bottom level the tombstones are compacted into.
        let cfg = small_cfg().to_builder().memtable_bytes(128 << 10).build().unwrap();
        let db = open_unfiltered(&dir, cfg).unwrap();
        for i in 0..2_000u64 {
            db.put_u64(i * 2, &value(i)).unwrap();
        }
        db.flush_and_settle().unwrap();
        // Delete half the keys; the tombstones start in the MemTable and
        // must shadow the flushed values immediately...
        for i in (0..2_000u64).step_by(2) {
            db.delete_u64(i * 2).unwrap();
        }
        for i in (0..2_000u64).step_by(2) {
            assert_eq!(db.get_u64(i * 2).unwrap(), None, "memtable tombstone {i}");
            assert!(!db.seek_u64(i * 2, i * 2).unwrap());
        }
        // ...and keep shadowing after they reach SSTs and compact.
        db.flush_and_settle().unwrap();
        for i in 0..2_000u64 {
            let want = if i % 2 == 0 { None } else { Some(value(i)) };
            assert_eq!(db.get_u64(i * 2).unwrap(), want, "settled {i}");
        }
        // Bottom-level compaction dropped (at least some) tombstones for
        // good instead of carrying them forever.
        assert!(db.stats().tombstones_dropped.get() > 0, "no tombstone ever dropped");
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hot_key_overwrites_rotate_on_arena_bytes() {
        // Overwriting one key adds no logical bytes, so the logical
        // threshold alone would let the table's arena grow without bound
        // (and, past 4 GiB, wrap its u32 offsets).
        let dir = tmpdir("hot-key");
        let limit = 64 << 10;
        let cfg = DbConfig::builder().memtable_bytes(limit).build().unwrap();
        let db = open_unfiltered(&dir, cfg).unwrap();
        let arena_cap = memtable::ARENA_LIMIT_FACTOR * limit;
        let value = |i: u32| [&i.to_le_bytes()[..], &[0xAB; 1020]].concat();
        for i in 0..20_000u32 {
            db.put(b"hot", &value(i)).unwrap();
            let mem = db.inner.mem_read().unwrap();
            let arena = |t: &db::SharedTable| t.read().unwrap().arena_bytes();
            assert!(arena(&mem.active) < arena_cap, "active table past the cap at put {i}");
            // A rotated table crossed the cap with exactly one entry.
            for imm in &mem.imms {
                assert!(arena(&imm.mem) < arena_cap + 1024 + 3, "imm past the cap");
            }
        }
        assert!(db.stats().memtable_rotations.get() > 0, "20 MB of overwrites never rotated");
        assert_eq!(db.get(b"hot").unwrap(), Some(value(19_999)));
        db.flush_and_settle().unwrap();
        assert_eq!(db.get(b"hot").unwrap(), Some(value(19_999)));
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hot_key_tombstones_rotate_on_version_records() {
        // delete(k) / put(k, []) on one key adds no logical bytes and not
        // one arena byte: all that grows is the key's version chain (every
        // write is its own batch), which must count towards rotation.
        let dir = tmpdir("hot-tombstone");
        let cfg = DbConfig::builder().memtable_bytes(8 << 10).build().unwrap();
        let db = open_unfiltered(&dir, cfg).unwrap();
        for i in 0..12_000u32 {
            if i % 2 == 0 {
                db.delete(b"hot").unwrap();
            } else {
                db.put(b"hot", b"").unwrap();
            }
            let mem = db.inner.mem_read().unwrap();
            let active = mem.active.read().unwrap();
            // (All zero right after the write that rotated.)
            assert!(active.arena_bytes() <= 3, "the key, once per table");
            assert!(active.len() <= 1 && active.bytes() <= 3 + 8);
        }
        let rotations = db.stats().memtable_rotations.get();
        assert!(rotations >= 2, "{rotations} rotations in 12 000 hot-key tombstone flips");
        assert_eq!(db.get(b"hot").unwrap(), Some(vec![]));
        db.flush_and_settle().unwrap();
        assert_eq!(db.get(b"hot").unwrap(), Some(vec![]));
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn background_flush_keeps_acked_writes_visible() {
        // Writes that rotated the MemTable stay findable while the worker
        // flushes them and after it installs the SST (install-before-retire).
        let dir = tmpdir("bg-visibility");
        // rotate every ~30 entries
        let cfg = small_cfg().to_builder().memtable_bytes(4 << 10).build().unwrap();
        let db = open_unfiltered(&dir, cfg).unwrap();
        for i in 0..2_000u64 {
            db.put_u64(i * 3, &value(i)).unwrap();
            if i % 17 == 0 {
                assert!(db.seek_u64(i * 3, i * 3).unwrap(), "acked key {i} invisible");
            }
        }
        assert!(db.stats().memtable_rotations.get() > 0, "rotations must have happened");
        db.flush_and_settle().unwrap();
        assert_eq!(db.stats().flushes.get(), db.stats().memtable_rotations.get());
        for i in (0..2_000u64).step_by(97) {
            assert!(db.seek_u64(i * 3, i * 3).unwrap(), "key {i} lost after settle");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_and_settle_while_writers_rotate_returns_settled() {
        // Settles requested while four writers keep rotating tables must
        // each return. The first starts once every writer is half done, so
        // it has tables to flush while the second halves rotate more; the
        // last starts after the final put, so nothing can land in L0
        // between its completion and the checks below.
        let dir = tmpdir("settle-writers");
        let cfg = small_cfg().to_builder().memtable_bytes(8 << 10).build().unwrap();
        let db = open_unfiltered(&dir, cfg).unwrap();
        let key = |w: u64, i: u64| (i << 8) | w;
        let writing = AtomicUsize::new(4);
        let half_done = std::sync::Barrier::new(5);
        let mut settles = 0;
        std::thread::scope(|s| {
            for w in 0..4u64 {
                let (db, writing, half_done) = (&db, &writing, &half_done);
                s.spawn(move || {
                    for i in 0..1_500u64 {
                        if i == 750 {
                            half_done.wait();
                        }
                        db.put_u64(key(w, i), &value(i)).unwrap();
                    }
                    writing.fetch_sub(1, Ordering::Release);
                });
            }
            half_done.wait();
            loop {
                let last = writing.load(Ordering::Acquire) == 0;
                db.flush_and_settle().unwrap();
                settles += 1;
                if last {
                    break;
                }
            }
        });
        assert!(db.stats().memtable_rotations.get() > 4, "the writers must have rotated");
        assert_eq!(db.level_file_counts()[0], 0, "L0 empty after {settles} settles");
        let version = db.inner.version();
        assert!(compact::pick(&version, db.config(), true).is_none(), "a level is over its target");
        for w in 0..4u64 {
            for i in (0..1_500u64).step_by(53) {
                assert_eq!(db.get_u64(key(w, i)).unwrap(), Some(value(i)), "writer {w} key {i}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Ids of the `*.sst` files in `dir`, sorted.
    fn ssts_on_disk(dir: &std::path::Path) -> Vec<u64> {
        let mut ids: Vec<u64> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| {
                let path = e.ok()?.path();
                if path.extension()? != "sst" {
                    return None;
                }
                path.file_stem()?.to_str()?.parse().ok()
            })
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Ids of the files in `db`'s manifest, sorted.
    fn ssts_in_manifest(db: &Db) -> Vec<u64> {
        let mut ids: Vec<u64> = db.inner.version().levels.iter().flatten().map(|s| s.id).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn adapt_now_amid_flushes_and_compactions_leaves_exactly_the_manifest_on_disk() {
        // Passes interleave with the flushes and compactions a writer
        // drives: no re-trained file may outlive its compaction on disk,
        // and no re-trained filter may lose a key.
        let dir = tmpdir("adapt-churn");
        let cfg = small_cfg()
            .to_builder()
            .memtable_bytes(16 << 10)
            .bits_per_key(6.0)
            .sample_every(1)
            .queue_capacity(256)
            .adapt_min_probes(4)
            .adapt_fpr_threshold(1e-9)
            .build()
            .unwrap();
        let factory = Arc::new(ProteusFactory::default());
        let db = Db::open(&dir, cfg.clone(), factory.clone()).unwrap();
        let n = 3_000u64;
        let done = AtomicBool::new(false);
        let (mut passes, mut retrained) = (0, 0);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..n {
                    db.put_u64(i << 20, &value(i)).unwrap();
                    // Empty Seeks in gaps already written: filter probes
                    // to flag files by, and samples to train on.
                    for s in 0..8 {
                        let j = (i * 8 + s).wrapping_mul(0x9E37_79B9) % (i + 1);
                        db.seek_u64((j << 20) + 1, (j << 20) + (1 << 12)).unwrap();
                    }
                }
                done.store(true, Ordering::Release);
            });
            while !done.load(Ordering::Acquire) {
                retrained += db.adapt_now().unwrap();
                passes += 1;
            }
        });
        db.flush_and_settle().unwrap();
        assert!(retrained > 0, "none of {passes} passes re-trained a filter");
        assert!(db.stats().compactions.get() > 0);
        let every_key_found = |db: &Db| (0..n).all(|i| db.seek_u64(i << 20, i << 20).unwrap());
        assert_eq!(ssts_on_disk(&dir), ssts_in_manifest(&db));
        assert!(every_key_found(&db), "a re-trained filter lost a key");
        drop(db);
        let db = Db::open(&dir, cfg, factory).unwrap();
        assert_eq!(ssts_on_disk(&dir), ssts_in_manifest(&db));
        assert!(every_key_found(&db), "a persisted filter lost a key");
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[cfg(test)]
mod sim {
    //! Deterministic simulation of one store on one thread, in the style
    //! FoundationDB made known. A store recovered without its background
    //! thread ([`Db::recover`]) is driven by a seeded script that interleaves
    //! client operations (put, delete, batch, get, seek, range), worker turns
    //! ([`crate::db::DbInner::turn`]), the three barriers (`flush`,
    //! `flush_and_settle`, `adapt_now`) and crash points (a process kill or a
    //! power loss, then a reopen). Every read is checked against a `BTreeMap`
    //! oracle, and under `ProteusFactory` every Seek also checks each file it
    //! overlaps for a filter false negative. Nothing else runs, so a failing
    //! seed replays exactly, with no sleeps. Scripts with bursts also put
    //! runs of 48 fresh keys in order, above all others, one per step: several
    //! MemTables' worth, flushed into files nothing below them overlaps,
    //! which compaction moves down a level instead of merging.
    //!
    //! A turn is atomic to the script, so the crash windows inside a
    //! compaction are reached by putting files back: before each turn the
    //! live SSTs are hard-linked and the `MANIFEST` copied aside, and after
    //! some compaction turns the store is killed and either (A) the inputs
    //! the turn unlinked come back — a process that died after its
    //! `MANIFEST` edit and before its unlinks — or (B) they and the old
    //! `MANIFEST` do — one that died before its edit. The reopen must serve
    //! the oracle and leave no SST the `MANIFEST` does not list.

    use crate::db::{Db, Turn};
    use crate::filter_hook::{FilterFactory, ProteusFactory};
    use crate::query_queue::clamp_to_file;
    use crate::stats::Stats;
    use crate::{DbConfig, SyncMode, WriteBatch};
    use proteus_core::key::{key_u64, u64_key};
    use std::collections::BTreeMap;
    use std::path::{Path, PathBuf};
    use std::sync::Arc;

    /// Steps per seed; the two tests below run 8 seeds, 10 000 steps in all.
    const STEPS: usize = 1_250;

    /// splitmix64.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }

    type Oracle = BTreeMap<u64, Vec<u8>>;

    /// A value naming its key and the step that wrote it, so any stale
    /// version is caught byte for byte.
    fn value_of(k: u64, step: usize) -> Vec<u8> {
        [k.to_le_bytes(), (step as u64).to_le_bytes()].concat()
    }

    struct Sim {
        seed: u64,
        dir: PathBuf,
        cfg: DbConfig,
        factory: Arc<dyn FilterFactory>,
        proteus: bool,
        /// `None` only inside a crash point.
        db: Option<Db>,
        /// What the store must answer.
        oracle: Oracle,
        /// What a power loss keeps under `SyncMode::Off`: the oracle as of the
        /// last WAL sync — a rotation seals the active segment, and a reopen
        /// syncs the one it resumes.
        durable: Oracle,
        rng: Rng,
        /// Turns taken by kind (flushed, compacted, idle) and crash points.
        turns: [u64; 3],
        crashes: u64,
        /// Where the files a turn may unlink or replace are kept.
        side: PathBuf,
        /// Crashes inside a compaction turn: (A) after its `MANIFEST` edit,
        /// (B) before it.
        windows: [u64; 2],
        /// Counts the simulator's own block reads, kept off the store's.
        io: Stats,
        /// Whether the script writes sorted bursts, the puts left in the
        /// current one, and the key it writes next above (every key any
        /// step has written is at or below it).
        bursts: bool,
        burst_left: usize,
        top: u64,
        /// Trivial moves made by the stores crashed so far.
        moves: u64,
    }

    impl Sim {
        fn new(seed: u64, proteus: bool, bursts: bool) -> Sim {
            let dir =
                std::env::temp_dir().join(format!("proteus-sim-{seed:x}-{}", std::process::id()));
            let side = dir.with_extension("side");
            let _ = std::fs::remove_dir_all(&dir);
            // Tiny thresholds, so a few dozen writes rotate, flush, trigger L0
            // compaction and overflow L1 into L2; a small queue keeps filter
            // training cheap, and a low threshold makes passes re-train.
            // Without `proteus` the budget is zero: a store without filters.
            let sync = if seed.is_multiple_of(2) { SyncMode::Always } else { SyncMode::Off };
            let cfg = DbConfig::builder()
                .memtable_bytes(512)
                .bits_per_key(if proteus { 12.0 } else { 0.0 })
                .sample_every(3)
                .queue_capacity(256)
                .adapt_min_probes(8)
                .adapt_fpr_threshold(0.01)
                .sync_mode(sync)
                .build()
                .unwrap();
            let factory: Arc<dyn FilterFactory> = Arc::new(ProteusFactory::default());
            let db = Db::recover(dir.clone(), cfg.clone(), Arc::clone(&factory)).unwrap();
            Sim {
                seed,
                dir,
                cfg,
                factory,
                proteus,
                db: Some(db),
                oracle: Oracle::new(),
                durable: Oracle::new(),
                rng: Rng(seed),
                turns: [0; 3],
                crashes: 0,
                side,
                windows: [0; 2],
                io: Stats::default(),
                bursts,
                burst_left: 0,
                top: 512 * 7,
                moves: 0,
            }
        }

        fn db(&self) -> &Db {
            self.db.as_ref().expect("a store outside crash points")
        }

        /// Keys cluster on 512 slots, so writes collide, deletes hit live keys
        /// and ranges see gaps.
        fn key(&mut self) -> u64 {
            self.rng.below(512) * 7
        }

        fn run(&mut self) {
            for step in 0..STEPS {
                let rotations = self.db().stats().memtable_rotations.get();
                self.step(step);
                if self.db().stats().memtable_rotations.get() != rotations {
                    self.durable = self.oracle.clone();
                }
            }
            self.db().flush_and_settle().unwrap();
            self.check_all("settled");
            self.crash(false);
            self.check_all("reopened");
            let [flushed, compacted, _] = self.turns;
            let (seed, windows, moves) = (self.seed, self.windows, self.moves);
            eprintln!(
                "seed {seed:#x}: turns {:?}, crash windows A/B {windows:?}, moves {moves}",
                self.turns
            );
            assert!(!self.bursts || moves > 0, "seed {seed:#x}: bursts made no trivial move");
            assert!(
                flushed > 0 && compacted > 0 && self.crashes > 0,
                "seed {seed:#x}: {:?}",
                self.turns
            );
            assert!(windows.iter().all(|&n| n > 0), "seed {seed:#x}: windows {windows:?}");
        }

        fn step(&mut self, step: usize) {
            if self.bursts && self.burst_left == 0 && self.rng.below(48) == 0 {
                self.burst_left = 48;
            }
            if self.burst_left > 0 {
                // One put per step, so a power loss keeps what the last
                // rotation sealed, as for any other put.
                self.burst_left -= 1;
                self.top += 7;
                let (k, v) = (self.top, value_of(self.top, step));
                self.db().put_u64(k, &v).unwrap();
                self.oracle.insert(k, v);
                return;
            }
            let at = format!("seed {:#x} step {step}", self.seed);
            match self.rng.below(128) {
                0..=39 => {
                    let k = self.key();
                    let v = value_of(k, step);
                    self.db().put_u64(k, &v).unwrap();
                    self.oracle.insert(k, v);
                }
                40..=53 => {
                    let k = self.key();
                    self.db().delete_u64(k).unwrap();
                    self.oracle.remove(&k);
                }
                54..=61 => {
                    let mut batch = WriteBatch::new();
                    for i in 0..1 + self.rng.below(8) as usize {
                        let k = self.key();
                        if self.rng.below(3) == 0 {
                            batch.delete_u64(k);
                            self.oracle.remove(&k);
                        } else {
                            let v = value_of(k, step * 16 + i);
                            batch.put_u64(k, &v);
                            self.oracle.insert(k, v);
                        }
                    }
                    self.db().write(batch).unwrap();
                }
                62..=77 => {
                    let k = self.key();
                    let got = self.db().get_u64(k).unwrap();
                    assert_eq!(got.as_ref(), self.oracle.get(&k), "{at}: get({k})");
                }
                78..=97 => {
                    let lo = self.key().saturating_sub(self.rng.below(8));
                    let hi = lo + self.rng.below(40);
                    let got = self.db().seek_u64(lo, hi).unwrap();
                    let want = self.oracle.range(lo..=hi).next().is_some();
                    assert_eq!(got, want, "{at}: seek [{lo}, {hi}]");
                    if self.proteus {
                        self.check_filters(lo, hi, &at);
                    }
                }
                98..=103 => {
                    let lo = self.key().saturating_sub(self.rng.below(16));
                    let hi = lo + self.rng.below(200);
                    assert_eq!(self.scan(lo, hi), self.expect(lo, hi), "{at}: range [{lo}, {hi}]");
                }
                104..=119 => {
                    let settle = self.rng.below(4) == 0;
                    self.keep_live_files();
                    let kind = match self.db().inner.turn(settle).unwrap() {
                        Turn::Flushed => 0,
                        Turn::Compacted => 1,
                        Turn::Idle => 2,
                    };
                    self.turns[kind] += 1;
                    if kind == 1 && self.rng.below(2) == 0 {
                        self.crash_in_compaction(&at);
                    }
                }
                120..=122 => self.db().flush().unwrap(),
                123 => self.db().flush_and_settle().unwrap(),
                124..=125 => drop(self.db().adapt_now().unwrap()),
                126 => {
                    self.crash(false);
                    self.check_all(&format!("{at}: after a process kill"));
                }
                _ => {
                    self.crash(true);
                    self.check_all(&format!("{at}: after a power loss"));
                }
            }
        }

        /// Take the store out for a crash point, keeping its move count.
        fn take_db(&mut self) -> Db {
            let db = self.db.take().expect("a store to crash");
            self.moves += db.stats().trivial_moves.get();
            db
        }

        /// A crash point: kill the store without a flush or a final sync (and
        /// with `power_loss`, drop the active segment's unsynced tail), then
        /// recover it. A process kill loses nothing in any sync mode; a power
        /// loss loses nothing under `Always` and returns to `durable` under
        /// `Off`.
        fn crash(&mut self, power_loss: bool) {
            let db = self.take_db();
            if power_loss {
                db.crash_power_loss();
                if self.cfg.sync_mode() == SyncMode::Off {
                    self.oracle = self.durable.clone();
                }
            } else {
                db.crash();
            }
            self.reopen();
        }

        fn reopen(&mut self) {
            self.crashes += 1;
            let db = Db::recover(self.dir.clone(), self.cfg.clone(), Arc::clone(&self.factory));
            self.db = Some(db.unwrap());
            self.durable = self.oracle.clone();
        }

        /// Hard-link every live SST into `side` and copy the `MANIFEST`
        /// there: what the next turn may unlink or replace.
        fn keep_live_files(&self) {
            let _ = std::fs::remove_dir_all(&self.side);
            std::fs::create_dir_all(&self.side).unwrap();
            for sst in self.db().inner.version().levels.iter().flatten() {
                let name = format!("{:08}.sst", sst.id);
                std::fs::hard_link(self.dir.join(&name), self.side.join(&name)).unwrap();
            }
            std::fs::copy(self.dir.join("MANIFEST"), self.side.join("MANIFEST")).unwrap();
        }

        /// Crash inside the compaction turn just taken: kill the store, put
        /// back the inputs the turn unlinked and, in window (B), the
        /// `MANIFEST` from before its edit, then reopen. The windows take
        /// turns, so every seed that crashes twice reaches both.
        fn crash_in_compaction(&mut self, at: &str) {
            let before_edit = self.windows[0] > self.windows[1];
            self.windows[before_edit as usize] += 1;
            self.take_db().crash();
            for entry in std::fs::read_dir(&self.side).unwrap() {
                let kept = entry.unwrap().path();
                let name = kept.file_name().unwrap();
                let path = self.dir.join(name);
                if name == "MANIFEST" {
                    if before_edit {
                        std::fs::copy(&kept, &path).unwrap();
                    }
                } else if !path.exists() {
                    std::fs::hard_link(&kept, &path).unwrap();
                }
            }
            self.reopen();
            let window = if before_edit { "before" } else { "after" };
            let at = format!("{at}: after a crash {window} a compaction's MANIFEST edit");
            self.check_all(&at);
            let listed: Vec<u64> =
                self.db().inner.version().levels.iter().flatten().map(|s| s.id).collect();
            let unlisted: Vec<u64> =
                ssts_in(&self.dir).into_iter().filter(|id| !listed.contains(id)).collect();
            assert!(unlisted.is_empty(), "{at}: unlisted SSTs {unlisted:?} survived the open");
            for k in (0..512u64).step_by(8).map(|slot| slot * 7) {
                for (lo, hi) in [(k.saturating_sub(3), k + 3), (k + 1, k + 6)] {
                    let want = self.oracle.range(lo..=hi).next().is_some();
                    assert_eq!(
                        self.db().seek_u64(lo, hi).unwrap(),
                        want,
                        "{at}: seek [{lo}, {hi}]"
                    );
                    if self.proteus {
                        self.check_filters(lo, hi, &at);
                    }
                }
            }
        }

        fn scan(&self, lo: u64, hi: u64) -> Vec<(u64, Vec<u8>)> {
            let rows = self.db().range_u64(lo..=hi).unwrap();
            rows.map(|row| row.map(|(k, v)| (key_u64(&k), v)))
                .collect::<crate::Result<_>>()
                .unwrap()
        }

        fn expect(&self, lo: u64, hi: u64) -> Vec<(u64, Vec<u8>)> {
            self.oracle.range(lo..=hi).map(|(&k, v)| (k, v.clone())).collect()
        }

        /// One full ordered scan and a `get` of every key slot.
        fn check_all(&self, at: &str) {
            assert_eq!(self.scan(0, u64::MAX), self.expect(0, u64::MAX), "{at}: full scan");
            for k in (0..512).map(|slot| slot * 7) {
                assert_eq!(
                    self.db().get_u64(k).unwrap().as_ref(),
                    self.oracle.get(&k),
                    "{at}: get({k})"
                );
            }
        }

        /// No live filter may reject `[lo, hi]` for a file holding an entry in
        /// it — a tombstone included, since skipping one resurrects an older
        /// version below it.
        fn check_filters(&self, lo: u64, hi: u64, at: &str) {
            let (lo, hi) = (u64_key(lo), u64_key(hi));
            for sst in self.db().inner.version().levels.iter().flatten() {
                let Some(filter) = sst.filter() else { continue };
                let Some((flo, fhi)) = clamp_to_file(&lo, &hi, &sst.min_key, &sst.max_key) else {
                    continue;
                };
                if filter.may_contain_range(flo, fhi) {
                    continue;
                }
                // The first key ≥ `flo` is in the first block that can hold it.
                let block = sst.read_block(sst.first_candidate_block(flo), &self.io).unwrap();
                let i = block.lower_bound(flo);
                let holds = i < block.len() && block.key(i) <= fhi;
                assert!(!holds, "{at}: the filter of SST {} rejects a range it holds", sst.id);
            }
        }
    }

    /// Ids of the `NNNNNNNN.sst` files in `dir`.
    fn ssts_in(dir: &Path) -> Vec<u64> {
        let names = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().file_name());
        names.filter_map(|n| n.to_str()?.strip_suffix(".sst")?.parse().ok()).collect()
    }

    impl Drop for Sim {
        fn drop(&mut self) {
            drop(self.db.take());
            let _ = std::fs::remove_dir_all(&self.dir);
            let _ = std::fs::remove_dir_all(&self.side);
        }
    }

    #[test]
    fn simulated_stores_without_filters_match_the_oracle() {
        for seed in [0x5EED_0001, 0x5EED_0002, 0x5EED_0003, 0x5EED_0004] {
            Sim::new(seed, false, false).run();
        }
    }

    #[test]
    fn simulated_stores_under_proteus_filters_match_the_oracle_with_no_false_negative() {
        for seed in [0x5EED_0101, 0x5EED_0102, 0x5EED_0103, 0x5EED_0104] {
            Sim::new(seed, true, false).run();
        }
    }

    #[test]
    fn simulated_stores_with_sorted_bursts_move_files_and_match_the_oracle() {
        for (seed, proteus) in [(0x5EED_0201, false), (0x5EED_0202, true)] {
            Sim::new(seed, proteus, true).run();
        }
    }
}
