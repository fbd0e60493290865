//! Multi-threaded stress tests for the concurrent LSM store: N writer +
//! M reader threads over disjoint and overlapping key ranges, asserting
//! zero false negatives for every acked write, no panics or deadlocks,
//! and consistent `Stats` totals after the threads join.
//!
//! Scale knobs (all overridable for the CI release-mode run):
//!
//! * `PROTEUS_STRESS_WRITERS` / `PROTEUS_STRESS_READERS` — thread counts
//!   (default 4 + 4);
//! * `PROTEUS_STRESS_OPS` — per-thread operation count (default 8_000 in
//!   debug builds, 15_000 in release, so the default release run is a
//!   ≥100k-op stress).

use proteus_lsm::db::{Db, DbConfig};
use proteus_lsm::filter_hook::{FilterFactory, ProteusFactory};
use proteus_lsm::sst::SstReader;
use proteus_lsm::WriteBatch;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

mod common;
use common::{open_unfiltered, Rng};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("proteus-conc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Small tables and files so the stress run exercises rotation, flush and
/// compaction constantly, not just the MemTable.
fn stress_cfg() -> DbConfig {
    DbConfig::builder()
        .memtable_bytes(32 << 10)
        .bits_per_key(10.0)
        .sample_every(10)
        .build()
        .unwrap()
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn writers() -> usize {
    env_usize("PROTEUS_STRESS_WRITERS", 4)
}

fn readers() -> usize {
    env_usize("PROTEUS_STRESS_READERS", 4)
}

fn ops_per_thread() -> usize {
    env_usize("PROTEUS_STRESS_OPS", if cfg!(debug_assertions) { 8_000 } else { 15_000 })
}

fn value(k: u64) -> Vec<u8> {
    let mut v = vec![0u8; 32];
    v[..8].copy_from_slice(&k.to_le_bytes());
    v
}

/// Disjoint stripes: writer `w` owns keyspace `w << 40`; readers verify
/// that every key a writer has acked (per-writer atomic high-water mark)
/// is findable, as points and as covering ranges.
#[test]
fn stress_disjoint_ranges_zero_false_negatives() {
    let dir = tmpdir("disjoint");
    let db = Db::open(&dir, stress_cfg(), Arc::new(ProteusFactory::default())).unwrap();
    let n_writers = writers();
    let n_readers = readers();
    let ops = ops_per_thread();
    const STEP: u64 = 1 << 16;
    let key_of = |w: usize, i: u64| ((w as u64) << 40) | (i * STEP);

    let acked: Vec<AtomicU64> = (0..n_writers).map(|_| AtomicU64::new(0)).collect();
    let reader_seeks = AtomicU64::new(0);
    let reader_found = AtomicU64::new(0);
    let reader_empty = AtomicU64::new(0);

    std::thread::scope(|s| {
        for w in 0..n_writers {
            let db = &db;
            let acked = &acked;
            s.spawn(move || {
                for i in 0..ops as u64 {
                    db.put_u64(key_of(w, i), &value(i)).unwrap();
                    // Release-publish: readers trusting this high-water
                    // mark must see the key.
                    acked[w].store(i + 1, Ordering::Release);
                }
            });
        }
        for r in 0..n_readers {
            let db = &db;
            let acked = &acked;
            let (seeks, found, empty) = (&reader_seeks, &reader_found, &reader_empty);
            s.spawn(move || {
                let mut rng = Rng(0xC0FFEE ^ ((r as u64) << 32));
                for _ in 0..ops {
                    let w = (rng.next() % n_writers as u64) as usize;
                    let a = acked[w].load(Ordering::Acquire);
                    let got = if a > 0 && !rng.next().is_multiple_of(4) {
                        // An acked key must be findable — as a point or as
                        // a range that covers it.
                        let i = rng.next() % a;
                        let k = key_of(w, i);
                        let got = if rng.next().is_multiple_of(2) {
                            db.seek_u64(k, k).unwrap()
                        } else {
                            db.seek_u64(k.saturating_sub(STEP / 2), k + STEP / 2).unwrap()
                        };
                        assert!(got, "false negative: writer {w} acked key index {i}");
                        got
                    } else {
                        // A gap between stripe keys: truth unknown only if
                        // writers raced past `a`; never a correctness
                        // assertion, just concurrent read load.
                        let i = rng.next() % (ops as u64);
                        let k = key_of(w, i) + 1;
                        db.seek_u64(k, k + STEP / 4).unwrap()
                    };
                    seeks.fetch_add(1, Ordering::Relaxed);
                    if got {
                        found.fetch_add(1, Ordering::Relaxed);
                    } else {
                        empty.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    // Consistent stats after join: every seek the readers issued is
    // accounted, found/empty splits agree, and §6.1 sampling counted
    // exactly the executed-empty seeks.
    let s = db.stats().snapshot();
    assert_eq!(s.seeks, reader_seeks.load(Ordering::Relaxed));
    assert_eq!(s.seeks_found, reader_found.load(Ordering::Relaxed));
    assert_eq!(s.sample_offers, reader_empty.load(Ordering::Relaxed));
    assert!(s.memtable_rotations > 0, "stress must rotate MemTables");

    // Settle and verify the full dataset (no acked write lost anywhere in
    // the rotation → flush → compaction pipeline).
    db.flush_and_settle().unwrap();
    let s = db.stats().snapshot();
    assert_eq!(s.flushes, s.memtable_rotations, "every rotation must flush");
    for (w, mark) in acked.iter().enumerate() {
        assert_eq!(mark.load(Ordering::Relaxed), ops as u64);
        for i in (0..ops as u64).step_by(101) {
            assert!(db.seek_u64(key_of(w, i), key_of(w, i)).unwrap(), "lost {w}/{i}");
        }
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Overlapping ranges: all writers interleave into the same keyspace
/// (writer `w` owns residues `k ≡ w mod n_writers`), so SSTs, filters and
/// compactions constantly mix data from every writer. Ground truth for a
/// range query is computed from the acked high-water marks *before* the
/// seek, which is a lower bound on the store's contents.
#[test]
fn stress_overlapping_ranges_zero_false_negatives() {
    let dir = tmpdir("overlap");
    let db = open_unfiltered(&dir, stress_cfg()).unwrap();
    let n_writers = writers();
    let n_readers = readers();
    let ops = ops_per_thread();
    const SPREAD: u64 = 1 << 14;
    let key_of = |w: usize, i: u64| i * SPREAD * n_writers as u64 + (w as u64) * SPREAD;

    let acked: Vec<AtomicU64> = (0..n_writers).map(|_| AtomicU64::new(0)).collect();

    std::thread::scope(|s| {
        for w in 0..n_writers {
            let db = &db;
            let acked = &acked;
            s.spawn(move || {
                for i in 0..ops as u64 {
                    db.put_u64(key_of(w, i), &value(i)).unwrap();
                    acked[w].store(i + 1, Ordering::Release);
                }
            });
        }
        for r in 0..n_readers {
            let db = &db;
            let acked = &acked;
            s.spawn(move || {
                let mut rng = Rng(0xFEED ^ ((r as u64) << 32));
                for _ in 0..ops {
                    // Snapshot high-water marks BEFORE issuing the seek.
                    let marks: Vec<u64> = acked.iter().map(|a| a.load(Ordering::Acquire)).collect();
                    let lo = rng.next() % (ops as u64 * SPREAD * n_writers as u64);
                    let hi = lo + rng.next() % (8 * SPREAD * n_writers as u64);
                    // Does any acked key fall in [lo, hi]?
                    let truth = (0..n_writers).any(|w| {
                        let first = lo
                            .saturating_sub((w as u64) * SPREAD)
                            .div_ceil(SPREAD * n_writers as u64);
                        let k = key_of(w, first);
                        first < marks[w] && k >= lo && k <= hi
                    });
                    let got = db.seek_u64(lo, hi).unwrap();
                    assert!(got || !truth, "false negative [{lo:#x},{hi:#x}] with marks {marks:?}");
                }
            });
        }
    });

    db.flush_and_settle().unwrap();
    for w in 0..n_writers {
        for i in (0..ops as u64).step_by(173) {
            assert!(db.seek_u64(key_of(w, i), key_of(w, i)).unwrap(), "lost {w}/{i}");
        }
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Concurrent barriers: `flush` / `flush_and_settle` may race with writes
/// and reads from other threads without deadlocking or losing data.
#[test]
fn stress_concurrent_barriers() {
    let dir = tmpdir("barriers");
    let db = open_unfiltered(&dir, stress_cfg()).unwrap();
    let ops = (ops_per_thread() / 4).max(500) as u64;
    std::thread::scope(|s| {
        for w in 0..2usize {
            let db = &db;
            s.spawn(move || {
                for i in 0..ops {
                    db.put_u64(((w as u64) << 48) | (i * 997), &value(i)).unwrap();
                }
            });
        }
        let db2 = &db;
        s.spawn(move || {
            for _ in 0..20 {
                db2.flush().unwrap();
            }
        });
        let db3 = &db;
        s.spawn(move || {
            for _ in 0..5 {
                db3.flush_and_settle().unwrap();
            }
        });
    });
    db.flush_and_settle().unwrap();
    for w in 0..2u64 {
        for i in (0..ops).step_by(37) {
            assert!(db.seek_u64((w << 48) | (i * 997), (w << 48) | (i * 997)).unwrap());
        }
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Atomic `WriteBatch` visibility: one writer repeatedly rewrites a fixed
/// 8-key set, each round as a single batch carrying one generation
/// number; reader threads scan the covering range and must always observe
/// all 8 keys at exactly one generation — a batch is never visible half
/// applied, no matter how rotations, flushes and compactions interleave —
/// and generations must be monotone per reader (no time travel).
#[test]
fn write_batches_are_atomic_under_concurrent_scans() {
    let dir = tmpdir("batch-atomic");
    let db = open_unfiltered(&dir, stress_cfg()).unwrap();
    let keys: Vec<u64> = (0..8u64).map(|i| (i + 1) << 20).collect();
    let (lo, hi) = (keys[0], *keys.last().unwrap());
    let rounds = (ops_per_thread() / 8).max(250) as u64;

    // Generation 0 so readers always find a complete set. Values are
    // padded so a few hundred batches cross the rotation threshold.
    let write_gen = |gen: u64| {
        let mut b = WriteBatch::with_capacity(keys.len());
        for &k in &keys {
            let mut v = vec![0u8; 64];
            v[..8].copy_from_slice(&gen.to_le_bytes());
            b.put_u64(k, &v);
        }
        db.write(b).unwrap();
    };
    write_gen(0);

    std::thread::scope(|s| {
        let (db, keys) = (&db, &keys);
        let write_gen = &write_gen;
        s.spawn(move || {
            for gen in 1..=rounds {
                write_gen(gen);
            }
        });
        for r in 0..readers().max(2) {
            s.spawn(move || {
                let mut last_gen = 0u64;
                for _ in 0..rounds {
                    let got: Vec<(u64, u64)> = db
                        .range_u64(lo..=hi)
                        .unwrap()
                        .map(|e| {
                            let (k, v) = e.unwrap();
                            (
                                u64::from_be_bytes(k.try_into().unwrap()),
                                u64::from_le_bytes(v[..8].try_into().unwrap()),
                            )
                        })
                        .collect();
                    let scanned: Vec<u64> = got.iter().map(|&(k, _)| k).collect();
                    assert_eq!(&scanned, keys, "reader {r}: key set torn");
                    let gens: Vec<u64> = got.iter().map(|&(_, g)| g).collect();
                    assert!(
                        gens.windows(2).all(|w| w[0] == w[1]),
                        "reader {r}: batch visible half-applied: {gens:?}"
                    );
                    assert!(gens[0] >= last_gen, "reader {r}: generation went backwards");
                    last_gen = gens[0];
                }
            });
        }
    });
    db.flush_and_settle().unwrap();
    let final_gen =
        u64::from_le_bytes(db.get_u64(keys[0]).unwrap().unwrap()[..8].try_into().unwrap());
    assert_eq!(final_gen, rounds, "last batch must win");
    assert!(db.stats().memtable_rotations.get() > 0, "batches must cross rotations");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Compile-time `Send`/`Sync` contract for the store and its extension
/// points (the filters-side contract lives in `tests/filter_contract.rs`
/// at the workspace root). A type losing one of these bounds breaks this
/// test at compile time, not at 2 a.m. under load.
#[test]
fn lsm_types_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Db>();
    assert_send_sync::<proteus_lsm::Stats>();
    assert_send_sync::<proteus_lsm::QueryQueue>();
    assert_send_sync::<proteus_lsm::BlockCache>();
    assert_send_sync::<SstReader>();
    assert_send_sync::<ProteusFactory>();
    assert_send_sync::<Arc<dyn FilterFactory>>();
    assert_send_sync::<Box<dyn proteus_core::RangeFilter>>();
}
