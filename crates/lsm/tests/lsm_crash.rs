//! Crash-injection suite: every durability promise of the WAL, proven by
//! killing the store at hostile moments and reopening.
//!
//! Two crash models (see `common::CrashKind`): *process kill* drops the
//! store without flushing or syncing anything further — every append that
//! reached the OS survives — and *power loss* additionally truncates the
//! active segment back to its last fsync, so only synced bytes survive.
//! The promises under test:
//!
//! - every acked write survives a process kill in **every** sync mode;
//! - under [`SyncMode::Always`] every acked write survives power loss,
//!   and under [`SyncMode::Off`] losing the unsynced tail never loses
//!   *flushed* data (the documented trade-off);
//! - a `WriteBatch` is all-or-nothing across a torn commit record;
//! - a torn WAL tail never fails `Db::open`;
//! - a deleted key never resurrects through a crash;
//! - unlisted SST stragglers next to a live WAL are deleted, and the WAL
//!   replays exactly once;
//! - a file compaction moved down a level reopens at the level the
//!   `MANIFEST` lists — the old one if the crash beat the edit's rename —
//!   with the filter it was trained with;
//! - concurrent writers are amortized by group commit without losing a
//!   single write.

use proteus_core::key::{key_u64, u64_key};
use proteus_lsm::wal::{self, Wal};
use proteus_lsm::{Db, DbConfig, FilterFactory, ProteusFactory, SyncMode};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

mod common;
use common::{crash_and_reopen, snapshot_live_dir, unfiltered, CrashKind, Rng};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("proteus-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The factory of a store without filters: an [`unfiltered`] configuration
/// never calls it.
fn nofilter() -> Arc<dyn FilterFactory> {
    Arc::new(ProteusFactory::default())
}

/// Tiny thresholds so a few hundred writes cross every lifecycle
/// boundary: rotation, sealed segments, flush + segment deletion,
/// compaction.
fn crash_cfg(mode: SyncMode) -> DbConfig {
    DbConfig::builder().memtable_bytes(4 << 10).sync_mode(mode).build().unwrap()
}

/// Large MemTable (no rotation) so every write lives only in the WAL —
/// the recovery path carries the whole store.
fn wal_only_cfg(mode: SyncMode) -> DbConfig {
    DbConfig::builder().sync_mode(mode).build().unwrap()
}

#[test]
fn acked_writes_survive_process_kill_in_every_sync_mode() {
    for (tag, mode) in [
        ("always", SyncMode::Always),
        ("interval", SyncMode::Interval(Duration::from_millis(2))),
        ("off", SyncMode::Off),
    ] {
        let dir = tmpdir(&format!("kill-{tag}"));
        let cfg = unfiltered(crash_cfg(mode));
        let db = Db::open(&dir, cfg.clone(), nofilter()).unwrap();
        let mut mirror: BTreeMap<u64, Option<Vec<u8>>> = BTreeMap::new();
        let mut rng = Rng(0xC4A5_0000 ^ mode_bits(mode));
        for step in 0..400u64 {
            let k = rng.next() % 256;
            if rng.next().is_multiple_of(5) {
                db.delete_u64(k).unwrap();
                mirror.insert(k, None);
            } else {
                let v = step.to_le_bytes().to_vec();
                db.put_u64(k, &v).unwrap();
                mirror.insert(k, Some(v));
            }
        }
        // A final acked write right before the kill: it can only live in
        // the active segment, so replay must have real work to do.
        db.put_u64(9_999, b"last-ack").unwrap();
        mirror.insert(9_999, Some(b"last-ack".to_vec()));

        let db = crash_and_reopen(db, &dir, &cfg, nofilter(), CrashKind::ProcessKill);
        assert!(
            db.stats().wal_replayed_records.get() > 0,
            "{tag}: crash recovery must replay the active segment"
        );
        for (k, want) in &mirror {
            assert_eq!(
                db.get_u64(*k).unwrap(),
                *want,
                "{tag}: key {k} diverged after kill -9 recovery"
            );
        }
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn mode_bits(mode: SyncMode) -> u64 {
    match mode {
        SyncMode::Always => 1,
        SyncMode::Interval(_) => 2,
        SyncMode::Off => 3,
    }
}

#[test]
fn power_loss_with_sync_always_keeps_every_acked_write() {
    let dir = tmpdir("power-always");
    let cfg = unfiltered(wal_only_cfg(SyncMode::Always));
    let db = Db::open(&dir, cfg.clone(), nofilter()).unwrap();
    for k in 0..60u64 {
        db.put_u64(k, format!("v{k}").as_bytes()).unwrap();
    }
    // Deletes are acked writes too: the tombstone must survive.
    db.delete_u64(7).unwrap();
    db.delete_u64(42).unwrap();

    let db = crash_and_reopen(db, &dir, &cfg, nofilter(), CrashKind::PowerLoss);
    for k in 0..60u64 {
        let want = if k == 7 || k == 42 { None } else { Some(format!("v{k}").into_bytes()) };
        assert_eq!(db.get_u64(k).unwrap(), want, "key {k} after power loss");
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn power_loss_with_sync_off_loses_only_the_unsynced_tail() {
    let dir = tmpdir("power-off");
    let cfg = unfiltered(crash_cfg(SyncMode::Off));
    let db = Db::open(&dir, cfg.clone(), nofilter()).unwrap();
    for k in 0..40u64 {
        db.put_u64(k, b"durable").unwrap();
    }
    // Flush: data moves to an SST, the sealed segments are gone. What
    // follows lives only in the (unsynced) active segment.
    db.flush().unwrap();
    for k in 100..120u64 {
        db.put_u64(k, b"volatile").unwrap();
    }
    db.delete_u64(3).unwrap(); // unsynced tombstone

    let db = crash_and_reopen(db, &dir, &cfg, nofilter(), CrashKind::PowerLoss);
    for k in 0..40u64 {
        // The documented SyncMode::Off trade-off, including its ugliest
        // corner: key 3's delete was acked but unsynced, so the flushed
        // put *resurfaces* after power loss.
        assert_eq!(db.get_u64(k).unwrap().as_deref(), Some(&b"durable"[..]), "flushed key {k}");
    }
    for k in 100..120u64 {
        assert_eq!(db.get_u64(k).unwrap(), None, "unsynced key {k} must be gone");
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn power_loss_with_interval_sync_keeps_writes_past_the_deadline() {
    let dir = tmpdir("power-interval");
    let cfg = unfiltered(wal_only_cfg(SyncMode::Interval(Duration::from_millis(1))));
    let db = Db::open(&dir, cfg.clone(), nofilter()).unwrap();
    db.put_u64(1, b"one").unwrap();
    std::thread::sleep(Duration::from_millis(5));
    // Past the deadline: this commit triggers a sync covering both
    // appends before it acks.
    db.put_u64(2, b"two").unwrap();
    db.put_u64(3, b"maybe").unwrap(); // within the window — may be lost

    let db = crash_and_reopen(db, &dir, &cfg, nofilter(), CrashKind::PowerLoss);
    assert_eq!(db.get_u64(1).unwrap().as_deref(), Some(&b"one"[..]));
    assert_eq!(db.get_u64(2).unwrap().as_deref(), Some(&b"two"[..]));
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_mid_batch_commit_is_all_or_nothing_at_every_cut() {
    // Both batch records are stored zero-RLE — the zero bytes of the
    // length prefixes alone make short values compress — so a cut can land
    // in the codec byte, `raw_len` or anywhere in the token stream. The
    // 128-byte half-zero values (§6.2's shape) put a long zero run and a
    // long literal in the stream.
    let half_zero = |tag: u8| [vec![0u8; 64], vec![tag; 64]].concat();
    torn_batch_at_every_cut(&[b"pre".to_vec(), b"b20".to_vec(), b"b30".to_vec()]);
    torn_batch_at_every_cut(&[half_zero(1), half_zero(20), half_zero(30)]);
}

/// Build a segment by hand: one synced single-put commit, then a three-op
/// batch commit. Truncating anywhere inside the batch
/// record must recover the first commit and *none* of the batch.
fn torn_batch_at_every_cut([pre, b20, b30]: &[Vec<u8>; 3]) {
    let src = tmpdir("torn-batch-src");
    std::fs::create_dir_all(&src).unwrap();
    let stats = proteus_lsm::Stats::default();
    // The segment header records the opener's key-length limit; it must
    // match the config the probe dirs are opened with below.
    let max_key_bytes = wal_only_cfg(SyncMode::Off).max_key_bytes();
    let w = Wal::create(&src, 1, max_key_bytes, SyncMode::Always).unwrap();
    w.append_commit(&[(u64_key(10), Some(pre))], &stats).unwrap();
    w.sync(&stats).unwrap();
    let boundary = std::fs::metadata(wal::segment_path(&src, 1)).unwrap().len() as usize;
    w.append_commit(
        &[
            (u64_key(10), None), // the batch deletes key 10...
            (u64_key(20), Some(b20)),
            (u64_key(30), Some(b30)),
        ],
        &stats,
    )
    .unwrap();
    w.sync(&stats).unwrap();
    drop(w);
    let full = std::fs::read(wal::segment_path(&src, 1)).unwrap();
    let _ = std::fs::remove_dir_all(&src);
    // The batch record's codec byte follows its length and CRC.
    assert_eq!(full[boundary + 8], wal::WAL_CODEC_ZERO_RLE, "the batch record's codec");

    let cfg = unfiltered(wal_only_cfg(SyncMode::Off));
    for cut in boundary..=full.len() {
        let dir = tmpdir("torn-batch-probe");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(wal::segment_path(&dir, 1), &full[..cut]).unwrap();
        let db = Db::open(&dir, cfg.clone(), nofilter())
            .unwrap_or_else(|e| panic!("cut {cut}: torn batch tail failed open: {e}"));
        if cut < full.len() {
            // Torn batch: not a single one of its ops may be visible.
            assert_eq!(
                db.get_u64(10).unwrap().as_ref(),
                Some(pre),
                "cut {cut}: torn batch applied its delete"
            );
            assert_eq!(db.get_u64(20).unwrap(), None, "cut {cut}: partial batch put leaked");
            assert_eq!(db.get_u64(30).unwrap(), None, "cut {cut}: partial batch put leaked");
        } else {
            // The intact record: all three ops, atomically.
            assert_eq!(db.get_u64(10).unwrap(), None, "full: batch delete missing");
            assert_eq!(db.get_u64(20).unwrap().as_ref(), Some(b20));
            assert_eq!(db.get_u64(30).unwrap().as_ref(), Some(b30));
        }
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn straggler_sst_tmp_next_to_live_wal_replays_exactly_once() {
    let dir = tmpdir("straggler");
    let cfg = unfiltered(wal_only_cfg(SyncMode::Always));
    let db = Db::open(&dir, cfg.clone(), nofilter()).unwrap();
    for k in 0..100u64 {
        db.put_u64(k, &k.to_le_bytes()).unwrap();
    }
    db.crash();
    // A flush that died mid-write leaves an SST the MANIFEST never listed,
    // a filter rewrite a `.sst.tmp`; recovery must discard both and replay
    // the WAL exactly once — not zero times (data loss), not twice
    // (duplicate application).
    let stragglers = [dir.join("00000099.sst"), dir.join("00000098.sst.tmp")];
    for straggler in &stragglers {
        std::fs::write(straggler, b"half-written sst garbage").unwrap();
    }

    let db = Db::open(&dir, cfg.clone(), nofilter()).unwrap();
    assert_eq!(db.stats().wal_replayed_records.get(), 100, "one replayed record per commit");
    assert!(stragglers.iter().all(|s| !s.exists()), "recovery must discard the stragglers");
    let scanned: Vec<(u64, Vec<u8>)> = db
        .range_u64(0..=u64::MAX)
        .unwrap()
        .map(|e| e.map(|(k, v)| (key_u64(&k), v)))
        .collect::<proteus_lsm::Result<Vec<_>>>()
        .unwrap();
    let want: Vec<(u64, Vec<u8>)> = (0..100u64).map(|k| (k, k.to_le_bytes().to_vec())).collect();
    assert_eq!(scanned, want, "each key exactly once with its value");

    // Settle and cycle again: the replayed data is now in SSTs and the
    // old segments are gone, so a clean reopen replays nothing.
    db.flush_and_settle().unwrap();
    drop(db);
    let db = Db::open(&dir, cfg, nofilter()).unwrap();
    assert_eq!(db.stats().wal_replayed_records.get(), 0);
    assert_eq!(db.get_u64(57).unwrap().as_deref(), Some(&57u64.to_le_bytes()[..]));
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_moved_file_reopens_at_the_level_the_manifest_lists() {
    let dir = tmpdir("moved");
    let cfg = wal_only_cfg(SyncMode::Always);
    let factory: Arc<dyn FilterFactory> = Arc::new(ProteusFactory::default());
    let db = Db::open(&dir, cfg.clone(), Arc::clone(&factory)).unwrap();
    db.seed_queries(
        (0..256u64).map(|i| (u64_key(i * 64 + 1).to_vec(), u64_key(i * 64 + 40).to_vec())),
    );
    for k in 0..1_000u64 {
        db.put_u64(k * 64, &k.to_le_bytes()).unwrap();
    }
    // One L0 file is under the L0 trigger, so only a settle compacts it:
    // into an empty L1, which nothing overlaps — a move.
    db.flush().unwrap();
    let listed_in_l0 = std::fs::read(dir.join("MANIFEST")).unwrap();
    let [flushed] = &db.describe()[0][..] else { panic!("one flush, one L0 file") };
    let flushed = flushed.clone();
    assert!(flushed.filter.is_some());
    let bits_per_key = flushed.bits_per_key.expect("a filter has a size");
    assert_eq!(bits_per_key, db.filter_bits() as f64 / flushed.entries as f64);
    db.flush_and_settle().unwrap();
    assert_eq!(db.stats().trivial_moves.get(), 1);
    assert_eq!(db.describe(), [vec![], vec![flushed.clone()]]);
    let every_key = |db: &Db| (0..1_000u64).all(|k| db.get_u64(k * 64).unwrap().is_some());

    // Killed after writing `MANIFEST.tmp` and before renaming it: the old
    // `MANIFEST` still lists the file in L0, where it reopens.
    db.crash();
    std::fs::copy(dir.join("MANIFEST"), dir.join("MANIFEST.tmp")).unwrap();
    std::fs::write(dir.join("MANIFEST"), &listed_in_l0).unwrap();
    let reopened = |db: &Db, level: usize| {
        let levels = db.describe();
        let [sst] = &levels[level][..] else { panic!("{levels:?}") };
        assert_eq!(levels.iter().map(Vec::len).sum::<usize>(), 1, "{levels:?}");
        assert_eq!(
            (sst.id, &sst.filter, sst.bits_per_key, sst.expected_fpr),
            (flushed.id, &flushed.filter, flushed.bits_per_key, flushed.expected_fpr)
        );
        assert_eq!(db.stats().filters_loaded.get(), 1, "decoded, not retrained");
    };
    let db = Db::open(&dir, cfg.clone(), Arc::clone(&factory)).unwrap();
    reopened(&db, 0);
    assert!(every_key(&db));

    // Moved again and closed: it reopens in L1 with the same filter.
    db.flush_and_settle().unwrap();
    assert_eq!(db.stats().trivial_moves.get(), 1);
    drop(db);
    let db = Db::open(&dir, cfg, factory).unwrap();
    reopened(&db, 1);
    assert_eq!(db.stats().filters_built.get(), 0);
    assert!(every_key(&db));
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_wal_tail_never_fails_open_and_recovers_the_replayable_prefix() {
    let dir = tmpdir("torn-tail-src");
    let cfg = unfiltered(wal_only_cfg(SyncMode::Always));
    let db = Db::open(&dir, cfg.clone(), nofilter()).unwrap();
    for k in 0..12u64 {
        db.put_u64(k, format!("val-{k}").as_bytes()).unwrap();
    }
    db.crash();
    // The largest-id segment is the active one holding all 12 commits.
    let (_, seg_path) = wal::list_segments(&dir).unwrap().pop().expect("an active segment");
    let full = std::fs::read(&seg_path).unwrap();

    for cut in (0..=full.len()).step_by(7).chain([full.len()]) {
        let probe = tmpdir("torn-tail-probe");
        std::fs::create_dir_all(&probe).unwrap();
        let truncated = &full[..cut];
        std::fs::write(probe.join(seg_path.file_name().unwrap()), truncated).unwrap();
        // Whatever `replay_segment` can salvage is exactly what the store
        // must serve — sub-header files count as empty, never as errors.
        let salvaged = if cut < 16 {
            Vec::new()
        } else {
            let tmp = probe.join("oracle.bin");
            std::fs::write(&tmp, truncated).unwrap();
            let commits = wal::replay_segment(&tmp, cfg.max_key_bytes()).unwrap().commits;
            std::fs::remove_file(&tmp).unwrap();
            commits
        };
        let recovered: std::collections::BTreeMap<u64, Vec<u8>> = salvaged
            .into_iter()
            .flatten()
            .map(|(k, v)| (key_u64(&k), v.expect("script only puts")))
            .collect();
        let db = Db::open(&probe, cfg.clone(), nofilter())
            .unwrap_or_else(|e| panic!("cut {cut}: torn tail failed open: {e}"));
        for k in 0..12u64 {
            assert_eq!(
                db.get_u64(k).unwrap(),
                recovered.get(&k).cloned(),
                "cut {cut}: key {k} diverged from salvageable prefix"
            );
        }
        drop(db);
        let _ = std::fs::remove_dir_all(&probe);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deleted_key_never_resurrects_across_crashes() {
    // With Proteus filters in the stack: a filter may only skip I/O,
    // never bring a deleted key back — even when the tombstone's only
    // copy is the WAL.
    let dir = tmpdir("no-resurrect");
    let cfg = crash_cfg(SyncMode::Always);
    let factory: Arc<dyn FilterFactory> = Arc::new(ProteusFactory::default());
    let db = Db::open(&dir, cfg.clone(), Arc::clone(&factory)).unwrap();
    for k in 0..64u64 {
        db.put_u64(k, b"body").unwrap();
    }
    db.flush_and_settle().unwrap(); // key 33 now lives in an SST
    db.delete_u64(33).unwrap(); // ...and its tombstone only in the WAL

    let db = crash_and_reopen(db, &dir, &cfg, Arc::clone(&factory), CrashKind::ProcessKill);
    assert_eq!(db.get_u64(33).unwrap(), None, "tombstone lost in crash recovery");
    assert!(!db.seek_u64(33, 33).unwrap(), "range filter resurrected a deleted key");

    // Push the tombstone through flush + compaction, crash again: still
    // dead.
    db.flush_and_settle().unwrap();
    let db = crash_and_reopen(db, &dir, &cfg, factory, CrashKind::ProcessKill);
    assert_eq!(db.get_u64(33).unwrap(), None, "delete resurrected after compaction crash");
    assert_eq!(db.get_u64(34).unwrap().as_deref(), Some(&b"body"[..]), "neighbor survived");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_writers_are_group_committed_and_fully_durable() {
    let dir = tmpdir("group-commit");
    let cfg = unfiltered(wal_only_cfg(SyncMode::Always));
    let db = Db::open(&dir, cfg.clone(), nofilter()).unwrap();
    const THREADS: u64 = 4;
    const PER: u64 = 300;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let db = &db;
            s.spawn(move || {
                for i in 0..PER {
                    db.put_u64(t * 10_000 + i, &(t ^ i).to_le_bytes()).unwrap();
                }
            });
        }
    });
    let snap = db.stats().snapshot();
    assert_eq!(snap.wal_appends, THREADS * PER, "one append per acked write");
    assert_eq!(
        snap.group_commit_sizes,
        THREADS * PER,
        "every commit is covered by exactly one sync"
    );
    assert!(snap.wal_syncs >= 1);
    // The whole point of group commit: with 4 writers racing, leaders
    // sync on behalf of followers, so syncs come out well under one per
    // write (the mean group size strictly beats 1).
    assert!(
        snap.wal_syncs < THREADS * PER,
        "no amortization: {} syncs for {} writes",
        snap.wal_syncs,
        THREADS * PER
    );

    let db = crash_and_reopen(db, &dir, &cfg, nofilter(), CrashKind::ProcessKill);
    for t in 0..THREADS {
        for i in 0..PER {
            assert_eq!(
                db.get_u64(t * 10_000 + i).unwrap().as_deref(),
                Some(&(t ^ i).to_le_bytes()[..]),
                "writer {t} op {i} lost"
            );
        }
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn string_keys_survive_kill_and_power_loss_like_u64_keys() {
    // Variable-length keys through the whole crash path: URL-ish strings
    // of wildly different lengths (1 byte up to 900 bytes, shared
    // prefixes included) put/deleted across rotations, then killed and
    // replayed. Every acked write must come back byte-exact.
    let keys: Vec<Vec<u8>> = (0..120u64)
        .map(|i| match i % 4 {
            0 => format!("https://example.com/{:03}", i).into_bytes(),
            1 => format!("https://example.com/{:03}/deep/path?q={}", i, i * 7).into_bytes(),
            2 => vec![b'a' + (i % 26) as u8],
            _ => {
                let mut k = format!("long/{:03}/", i).into_bytes();
                k.resize(900, b'x');
                k
            }
        })
        .collect();
    for (tag, kind) in [("kill", CrashKind::ProcessKill), ("power", CrashKind::PowerLoss)] {
        let dir = tmpdir(&format!("string-{tag}"));
        let cfg = crash_cfg(SyncMode::Always);
        let factory: Arc<dyn FilterFactory> = Arc::new(ProteusFactory::default());
        let db = Db::open(&dir, cfg.clone(), Arc::clone(&factory)).unwrap();
        let mut mirror: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        for (i, k) in keys.iter().enumerate() {
            let v = format!("val-{i}").into_bytes();
            db.put(k, &v).unwrap();
            mirror.insert(k.clone(), Some(v));
        }
        db.flush().unwrap();
        for k in keys.iter().step_by(3) {
            db.delete(k).unwrap();
            mirror.insert(k.clone(), None);
        }
        let db = crash_and_reopen(db, &dir, &cfg, factory, kind);
        for (k, want) in &mirror {
            assert_eq!(
                db.get(k).unwrap(),
                *want,
                "{tag}: key {:?} diverged",
                String::from_utf8_lossy(k)
            );
        }
        // Ordered scan across the recovered store stays globally sorted.
        let scanned: Vec<Vec<u8>> = db
            .range::<&[u8], _>(..)
            .unwrap()
            .map(|e| e.map(|(k, _)| k))
            .collect::<proteus_lsm::Result<_>>()
            .unwrap();
        let live: Vec<&Vec<u8>> =
            mirror.iter().filter(|(_, v)| v.is_some()).map(|(k, _)| k).collect();
        assert_eq!(scanned.len(), live.len(), "{tag}: live key count diverged");
        assert!(scanned.windows(2).all(|w| w[0] < w[1]), "{tag}: scan not sorted");
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn clean_drop_preserves_the_active_memtable_through_the_wal() {
    // Graceful shutdown does a final WAL sync, so buffered writes that
    // never saw a flush still survive — even in SyncMode::Off.
    let dir = tmpdir("clean-drop");
    let cfg = unfiltered(wal_only_cfg(SyncMode::Off));
    let db = Db::open(&dir, cfg.clone(), nofilter()).unwrap();
    for k in 0..50u64 {
        db.put_u64(k, b"buffered").unwrap();
    }
    drop(db);

    let db = Db::open(&dir, cfg, nofilter()).unwrap();
    assert_eq!(db.stats().wal_replayed_records.get(), 50);
    for k in 0..50u64 {
        assert_eq!(db.get_u64(k).unwrap().as_deref(), Some(&b"buffered"[..]), "key {k}");
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn live_dir_snapshot_mid_write_opens_with_every_prior_acked_write() {
    // The copy-the-directory crash model: byte-copy the live dir while a
    // writer hammers it, then open the copy as if the machine had died at
    // that instant. Everything acked (and synced — SyncMode::Always)
    // before the copy began must be in it.
    let dir = tmpdir("live-snap");
    let cfg = unfiltered(wal_only_cfg(SyncMode::Always)); // no rotation mid-copy
    let db = Db::open(&dir, cfg.clone(), nofilter()).unwrap();
    let progress = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let mut snap_dir = PathBuf::new();
    let mut acked_at_snapshot = 0;
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut k = 0u64;
            while !stop.load(Ordering::Acquire) {
                db.put_u64(k, &k.to_le_bytes()).unwrap();
                k += 1;
                progress.store(k, Ordering::Release);
            }
        });
        while progress.load(Ordering::Acquire) < 200 {
            std::thread::yield_now();
        }
        acked_at_snapshot = progress.load(Ordering::Acquire);
        snap_dir = snapshot_live_dir(&dir, "mid-write");
        stop.store(true, Ordering::Release);
    });
    db.crash();

    let db = Db::open(&snap_dir, cfg, nofilter()).unwrap();
    for k in 0..acked_at_snapshot {
        assert_eq!(
            db.get_u64(k).unwrap().as_deref(),
            Some(&k.to_le_bytes()[..]),
            "key {k} was acked before the snapshot began"
        );
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&snap_dir);
    let _ = std::fs::remove_dir_all(&dir);
}
