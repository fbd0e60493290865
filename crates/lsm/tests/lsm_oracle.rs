//! Property test: random interleavings of the full API — `put`, `get`,
//! `delete`, `seek`, ordered `range` scans, atomic `WriteBatch`es,
//! `flush` (MemTable rotation) and `flush_and_settle` (full compaction
//! barrier) — against a single-threaded `BTreeMap` oracle. This pins the
//! tombstone and snapshot-visibility semantics of the concurrent store:
//! at every step the store must answer *exactly* what the oracle answers
//! — `get` returns the newest value (generation-tagged, so a stale
//! overwrite or a resurrected delete is caught byte-for-byte), `range`
//! yields the oracle's live entries sorted and deduplicated, `seek`
//! matches the oracle's emptiness, and no rotation/flush/compaction
//! interleaving may hide, corrupt or resurrect a key. A final reopen
//! re-checks everything against the recovered store.
//!
//! The suite runs over two key universes: fixed-width big-endian u64 keys
//! and arbitrary-length byte strings (NUL runs adjacent to the empty key,
//! heavy shared prefixes, 1-byte through 1024-byte keys, the store's cap).

use proptest::prelude::*;
use proteus_lsm::{Db, DbConfig, ProteusFactory, SyncMode, WriteBatch};

mod common;
use common::{crash_and_reopen, CrashKind, Rng};
use proteus_core::key::{key_u64, u64_key};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

fn tmpdir(tag: u64) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("proteus-oracle-{tag:x}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Tiny thresholds so a ~200-op script crosses every boundary: rotation,
/// L0 trigger, level overflow. Without `proteus` the filter budget is zero:
/// a store without filters.
fn oracle_cfg(proteus: bool) -> DbConfig {
    let bits_per_key = if proteus { 12.0 } else { 0.0 };
    DbConfig::builder()
        .memtable_bytes(1 << 10)
        .bits_per_key(bits_per_key)
        .sample_every(3)
        .build()
        .unwrap()
}

#[derive(Debug)]
enum Op {
    Put(u64),
    Get(u64),
    Delete(u64),
    Seek(u64, u64),
    Range(u64, u64),
    /// Atomic batch of (key, is_delete) ops.
    Batch(Vec<(u64, bool)>),
    Flush,
    Settle,
}

/// Generation-tagged value: identifies both the key and the write step,
/// so returning *any* stale version is detectable.
fn value_of(k: u64, step: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(16);
    v.extend_from_slice(&k.to_le_bytes());
    v.extend_from_slice(&(step as u64).to_le_bytes());
    v
}

/// Keys cluster in a narrow space so operations hit real data, duplicates,
/// deletes and gaps; ranges vary from points to wide spans.
fn script(seed: u64, n_ops: usize) -> Vec<Op> {
    let mut rng = Rng(seed);
    let key = |r: &mut Rng| (r.next() % 512) * 7;
    (0..n_ops)
        .map(|_| match rng.next() % 16 {
            0..=4 => Op::Put(key(&mut rng)),
            5..=6 => Op::Delete(key(&mut rng)),
            7..=8 => Op::Get(key(&mut rng)),
            9..=11 => {
                let lo = key(&mut rng).saturating_sub(rng.next() % 8);
                let hi = lo + rng.next() % 40;
                Op::Seek(lo, hi)
            }
            12 => {
                let lo = key(&mut rng).saturating_sub(rng.next() % 16);
                let hi = lo + rng.next() % 200;
                Op::Range(lo, hi)
            }
            13 => {
                let n = 1 + rng.next() as usize % 8;
                Op::Batch((0..n).map(|_| (key(&mut rng), rng.next().is_multiple_of(3))).collect())
            }
            14 => Op::Flush,
            _ => Op::Settle,
        })
        .collect()
}

/// Collect the store's live entries in `[lo, hi]` as (key, value) pairs.
fn db_range(db: &Db, lo: u64, hi: u64) -> Vec<(u64, Vec<u8>)> {
    db.range_u64(lo..=hi)
        .unwrap()
        .map(|e| e.map(|(k, v)| (key_u64(&k), v)))
        .collect::<proteus_lsm::Result<Vec<_>>>()
        .unwrap()
}

/// Exhaustive oracle equivalence: every touched key (live value match,
/// deleted keys stay dead), the gaps between live keys, and one full
/// ordered scan.
fn check_everything(db: &Db, oracle: &BTreeMap<u64, Vec<u8>>, touched: &BTreeSet<u64>, tag: &str) {
    for &k in touched {
        let got = db.get_u64(k).unwrap();
        assert_eq!(got.as_deref(), oracle.get(&k).map(Vec::as_slice), "{tag}: get({k})");
        assert_eq!(db.seek_u64(k, k).unwrap(), oracle.contains_key(&k), "{tag}: seek({k})");
    }
    let keys: Vec<u64> = oracle.keys().copied().collect();
    for w in keys.windows(2) {
        if w[1] > w[0] + 1 {
            assert!(
                !db.seek_u64(w[0] + 1, w[1] - 1).unwrap(),
                "{tag}: phantom key in ({}, {})",
                w[0],
                w[1]
            );
        }
    }
    let full: Vec<(u64, Vec<u8>)> = db_range(db, 0, u64::MAX);
    let want: Vec<(u64, Vec<u8>)> = oracle.iter().map(|(&k, v)| (k, v.clone())).collect();
    assert_eq!(full, want, "{tag}: full ordered scan diverged from oracle");
}

fn run_script(seed: u64, n_ops: usize, proteus: bool) {
    let dir = tmpdir(seed ^ (proteus as u64) << 63 ^ n_ops as u64);
    let factory: Arc<dyn proteus_lsm::FilterFactory> = Arc::new(ProteusFactory::default());
    let db = Db::open(&dir, oracle_cfg(proteus), Arc::clone(&factory)).unwrap();
    let mut oracle: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    // Every key ever written or deleted (deleted keys must stay dead).
    let mut touched: BTreeSet<u64> = BTreeSet::new();
    for (step, op) in script(seed, n_ops).iter().enumerate() {
        match op {
            Op::Put(k) => {
                let v = value_of(*k, step);
                db.put_u64(*k, &v).unwrap();
                oracle.insert(*k, v);
                touched.insert(*k);
            }
            Op::Delete(k) => {
                db.delete_u64(*k).unwrap();
                oracle.remove(k);
                touched.insert(*k);
            }
            Op::Get(k) => {
                let got = db.get_u64(*k).unwrap();
                assert_eq!(
                    got.as_deref(),
                    oracle.get(k).map(Vec::as_slice),
                    "step {step}: get({k}) diverged (seed {seed:#x})"
                );
            }
            Op::Seek(lo, hi) => {
                let got = db.seek_u64(*lo, *hi).unwrap();
                let truth = oracle.range(lo..=hi).next().is_some();
                assert_eq!(
                    got, truth,
                    "step {step}: seek [{lo},{hi}] diverged from oracle (seed {seed:#x})"
                );
            }
            Op::Range(lo, hi) => {
                let got = db_range(&db, *lo, *hi);
                let want: Vec<(u64, Vec<u8>)> =
                    oracle.range(lo..=hi).map(|(&k, v)| (k, v.clone())).collect();
                assert_eq!(got, want, "step {step}: range [{lo},{hi}] diverged (seed {seed:#x})");
            }
            Op::Batch(ops) => {
                let mut batch = WriteBatch::with_capacity(ops.len());
                for (i, &(k, is_delete)) in ops.iter().enumerate() {
                    touched.insert(k);
                    if is_delete {
                        batch.delete_u64(k);
                        oracle.remove(&k);
                    } else {
                        let v = value_of(k, step * 16 + i);
                        batch.put_u64(k, &v);
                        oracle.insert(k, v);
                    }
                }
                db.write(batch).unwrap();
            }
            Op::Flush => db.flush().unwrap(),
            Op::Settle => db.flush_and_settle().unwrap(),
        }
    }
    // Final settle, then the exhaustive checks — live keys, dead keys,
    // gaps, full ordered scan.
    db.flush_and_settle().unwrap();
    check_everything(&db, &oracle, &touched, "settled");

    // Persist everything and reopen cold: recovery must not resurrect a
    // deleted key or lose/corrupt a live one.
    db.flush().unwrap();
    drop(db);
    let db = Db::open(&dir, oracle_cfg(proteus), factory).unwrap();
    check_everything(&db, &oracle, &touched, "reopened");

    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `oracle_cfg` with `SyncMode::Always`: every acked write is synced, so
/// a crash point may not lose a single oracle entry.
fn crash_oracle_cfg(proteus: bool) -> DbConfig {
    oracle_cfg(proteus).to_builder().sync_mode(SyncMode::Always).build().unwrap()
}

/// Like [`run_script`], but with crash points spliced into the
/// interleaving: at each, the store is killed without any graceful
/// shutdown, reopened, and must still answer *exactly* what the oracle
/// answers — zero acked-write loss, zero tombstone resurrection, no
/// matter where the script was (mid-rotation, imms pending flush,
/// compaction half done).
fn run_crash_script(seed: u64, n_ops: usize, proteus: bool) {
    let dir = tmpdir(seed ^ 0xDEAD << 32 ^ (proteus as u64) << 63 ^ n_ops as u64);
    let cfg = crash_oracle_cfg(proteus);
    let factory: Arc<dyn proteus_lsm::FilterFactory> = Arc::new(ProteusFactory::default());
    let mut db = Db::open(&dir, cfg.clone(), Arc::clone(&factory)).unwrap();
    let mut oracle: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut touched: BTreeSet<u64> = BTreeSet::new();
    // Two seed-derived crash points inside the script body.
    let mut crash_rng = Rng(seed ^ 0xC4A5);
    let mut crash_points: Vec<usize> = (0..2).map(|_| crash_rng.next() as usize % n_ops).collect();
    crash_points.sort_unstable();
    crash_points.dedup();
    for (step, op) in script(seed, n_ops).iter().enumerate() {
        if crash_points.contains(&step) {
            db = crash_and_reopen(db, &dir, &cfg, Arc::clone(&factory), CrashKind::ProcessKill);
            check_everything(&db, &oracle, &touched, &format!("post-crash step {step}"));
        }
        match op {
            Op::Put(k) => {
                let v = value_of(*k, step);
                db.put_u64(*k, &v).unwrap();
                oracle.insert(*k, v);
                touched.insert(*k);
            }
            Op::Delete(k) => {
                db.delete_u64(*k).unwrap();
                oracle.remove(k);
                touched.insert(*k);
            }
            Op::Batch(ops) => {
                let mut batch = WriteBatch::with_capacity(ops.len());
                for (i, &(k, is_delete)) in ops.iter().enumerate() {
                    touched.insert(k);
                    if is_delete {
                        batch.delete_u64(k);
                        oracle.remove(&k);
                    } else {
                        let v = value_of(k, step * 16 + i);
                        batch.put_u64(k, &v);
                        oracle.insert(k, v);
                    }
                }
                db.write(batch).unwrap();
            }
            Op::Get(k) => {
                let got = db.get_u64(*k).unwrap();
                assert_eq!(
                    got.as_deref(),
                    oracle.get(k).map(Vec::as_slice),
                    "step {step}: get({k}) diverged (seed {seed:#x})"
                );
            }
            Op::Seek(lo, hi) => {
                let got = db.seek_u64(*lo, *hi).unwrap();
                assert_eq!(got, oracle.range(lo..=hi).next().is_some(), "step {step}: seek");
            }
            Op::Range(lo, hi) => {
                let got = db_range(&db, *lo, *hi);
                let want: Vec<(u64, Vec<u8>)> =
                    oracle.range(lo..=hi).map(|(&k, v)| (k, v.clone())).collect();
                assert_eq!(got, want, "step {step}: range [{lo},{hi}] (seed {seed:#x})");
            }
            Op::Flush => db.flush().unwrap(),
            Op::Settle => db.flush_and_settle().unwrap(),
        }
    }
    // One last crash with whatever is buffered, then a settle + clean
    // reopen: the store must come back identical every time.
    let db = crash_and_reopen(db, &dir, &cfg, Arc::clone(&factory), CrashKind::ProcessKill);
    check_everything(&db, &oracle, &touched, "final crash");
    db.flush_and_settle().unwrap();
    drop(db);
    let db = Db::open(&dir, cfg, factory).unwrap();
    check_everything(&db, &oracle, &touched, "clean reopen after crashes");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 36, ..ProptestConfig::default() })]

    /// No-filter store: every interleaving matches the oracle exactly.
    #[test]
    fn interleavings_match_oracle_nofilter(seed in 0u64..u64::MAX / 2, extra in 0usize..100) {
        run_script(seed, 110 + extra, false);
    }

    /// Proteus-filtered store: filters must only skip I/O, never change
    /// an answer, across the same interleavings.
    #[test]
    fn interleavings_match_oracle_proteus(seed in 0u64..u64::MAX / 2, extra in 0usize..100) {
        run_script(seed, 110 + extra, true);
    }
}

// ---------------------------------------------------------------------------
// Variable-length keys against the same oracle.
// ---------------------------------------------------------------------------

/// Variable-length key generator, drawn from narrow pools so puts, deletes
/// and reads collide: NUL runs adjacent to the (invalid) empty key,
/// arbitrary single bytes, URL-style keys with heavy shared prefixes,
/// 512–1024-byte keys up to the store's `MAX_KEY_BYTES`, and raw
/// big-endian u64 keys mixed into the same ordered space.
fn vkey(r: &mut Rng) -> Vec<u8> {
    match r.next() % 8 {
        0 => vec![0x00; 1 + (r.next() as usize % 3)],
        1 => vec![(r.next() % 200) as u8],
        2..=4 => {
            format!("https://example.com/{:02}/p{}", r.next() % 24, r.next() % 10).into_bytes()
        }
        5 => {
            let mut k = format!("https://example.com/{:02}/", r.next() % 24).into_bytes();
            k.resize(512 + r.next() as usize % 513, b'x');
            k
        }
        _ => u64_key((r.next() % 512) * 7).to_vec(),
    }
}

#[derive(Debug)]
enum VOp {
    Put(Vec<u8>),
    Get(Vec<u8>),
    Delete(Vec<u8>),
    Seek(Vec<u8>, Vec<u8>),
    Range(Vec<u8>, Vec<u8>),
    /// Open-ended scan `lo..`, cut after the first `n` entries.
    Scan(Vec<u8>, usize),
    /// Atomic batch of (key, is_delete) ops.
    Batch(Vec<(Vec<u8>, bool)>),
    Flush,
    Settle,
}

fn vscript(seed: u64, n_ops: usize) -> Vec<VOp> {
    let mut rng = Rng(seed);
    let pair = |r: &mut Rng| {
        let (a, b) = (vkey(r), vkey(r));
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    };
    (0..n_ops)
        .map(|_| match rng.next() % 17 {
            0..=4 => VOp::Put(vkey(&mut rng)),
            5..=6 => VOp::Delete(vkey(&mut rng)),
            7..=8 => VOp::Get(vkey(&mut rng)),
            9..=11 => {
                let (lo, hi) = pair(&mut rng);
                VOp::Seek(lo, hi)
            }
            12 => {
                let (lo, hi) = pair(&mut rng);
                VOp::Range(lo, hi)
            }
            13 => VOp::Scan(vkey(&mut rng), 1 + rng.next() as usize % 100),
            14 => {
                let n = 1 + rng.next() as usize % 8;
                VOp::Batch((0..n).map(|_| (vkey(&mut rng), rng.next().is_multiple_of(3))).collect())
            }
            15 => VOp::Flush,
            _ => VOp::Settle,
        })
        .collect()
}

/// Generation-tagged value for a byte-string key: the write step plus the
/// full key bytes, so both a stale version and a value served under the
/// wrong key are caught byte-for-byte.
fn vvalue_of(k: &[u8], step: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(8 + k.len());
    v.extend_from_slice(&(step as u64).to_le_bytes());
    v.extend_from_slice(k);
    v
}

type ByteOracle = BTreeMap<Vec<u8>, Vec<u8>>;

/// Exhaustive oracle equivalence over byte-string keys: every touched key
/// (live value match, deleted keys stay dead, point seeks agree) plus one
/// full ordered scan compared entry-for-entry.
fn vcheck_everything(db: &Db, oracle: &ByteOracle, touched: &BTreeSet<Vec<u8>>, tag: &str) {
    for k in touched {
        let got = db.get(k).unwrap();
        assert_eq!(got.as_deref(), oracle.get(k).map(Vec::as_slice), "{tag}: get({k:?})");
        assert_eq!(db.seek(k, k).unwrap(), oracle.contains_key(k), "{tag}: seek({k:?})");
    }
    let full: Vec<(Vec<u8>, Vec<u8>)> =
        db.range::<&[u8], _>(..).unwrap().collect::<proteus_lsm::Result<Vec<_>>>().unwrap();
    let want: Vec<(Vec<u8>, Vec<u8>)> =
        oracle.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    assert_eq!(full, want, "{tag}: full ordered scan diverged from oracle");
}

fn run_var_script(seed: u64, n_ops: usize, proteus: bool) {
    let dir = tmpdir(seed ^ 0xBA5E << 40 ^ (proteus as u64) << 62 ^ n_ops as u64);
    let factory: Arc<dyn proteus_lsm::FilterFactory> = Arc::new(ProteusFactory::default());
    let db = Db::open(&dir, oracle_cfg(proteus), Arc::clone(&factory)).unwrap();
    let mut oracle: ByteOracle = BTreeMap::new();
    let mut touched: BTreeSet<Vec<u8>> = BTreeSet::new();
    for (step, op) in vscript(seed, n_ops).iter().enumerate() {
        match op {
            VOp::Put(k) => {
                let v = vvalue_of(k, step);
                db.put(k, &v).unwrap();
                oracle.insert(k.clone(), v);
                touched.insert(k.clone());
            }
            VOp::Delete(k) => {
                db.delete(k).unwrap();
                oracle.remove(k);
                touched.insert(k.clone());
            }
            VOp::Get(k) => {
                let got = db.get(k).unwrap();
                assert_eq!(
                    got.as_deref(),
                    oracle.get(k).map(Vec::as_slice),
                    "step {step}: get({k:?}) diverged (seed {seed:#x})"
                );
            }
            VOp::Seek(lo, hi) => {
                let got = db.seek(lo, hi).unwrap();
                let truth = oracle.range::<Vec<u8>, _>(lo..=hi).next().is_some();
                assert_eq!(got, truth, "step {step}: seek [{lo:?},{hi:?}] (seed {seed:#x})");
            }
            VOp::Range(lo, hi) => {
                let got: Vec<(Vec<u8>, Vec<u8>)> = db
                    .range::<&[u8], _>(lo.as_slice()..=hi.as_slice())
                    .unwrap()
                    .collect::<proteus_lsm::Result<Vec<_>>>()
                    .unwrap();
                let want: Vec<(Vec<u8>, Vec<u8>)> = oracle
                    .range::<Vec<u8>, _>(lo..=hi)
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                assert_eq!(got, want, "step {step}: range [{lo:?},{hi:?}] (seed {seed:#x})");
            }
            VOp::Scan(lo, n) => {
                let got: Vec<(Vec<u8>, Vec<u8>)> = db
                    .range::<&[u8], _>(lo.as_slice()..)
                    .unwrap()
                    .take(*n)
                    .collect::<proteus_lsm::Result<Vec<_>>>()
                    .unwrap();
                let want: Vec<(Vec<u8>, Vec<u8>)> = oracle
                    .range::<Vec<u8>, _>(lo..)
                    .take(*n)
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                assert_eq!(got, want, "step {step}: scan [{lo:?}..) take {n} (seed {seed:#x})");
            }
            VOp::Batch(ops) => {
                let mut batch = WriteBatch::with_capacity(ops.len());
                for (i, (k, is_delete)) in ops.iter().enumerate() {
                    touched.insert(k.clone());
                    if *is_delete {
                        batch.delete(k);
                        oracle.remove(k);
                    } else {
                        let v = vvalue_of(k, step * 16 + i);
                        batch.put(k, &v);
                        oracle.insert(k.clone(), v);
                    }
                }
                db.write(batch).unwrap();
            }
            VOp::Flush => db.flush().unwrap(),
            VOp::Settle => db.flush_and_settle().unwrap(),
        }
    }
    // Final settle, then the exhaustive checks, then a cold reopen:
    // recovery must not resurrect a deleted key or lose/corrupt a live one
    // whatever its length.
    db.flush_and_settle().unwrap();
    vcheck_everything(&db, &oracle, &touched, "settled");
    db.flush().unwrap();
    drop(db);
    let db = Db::open(&dir, oracle_cfg(proteus), factory).unwrap();
    vcheck_everything(&db, &oracle, &touched, "reopened");

    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Variable-length keys, no filters: every interleaving of the byte-
    /// string API matches the oracle exactly, through flush, compaction
    /// and a final reopen.
    #[test]
    fn varlen_interleavings_match_oracle_nofilter(seed in 0u64..u64::MAX / 2, extra in 0usize..80) {
        run_var_script(seed, 100 + extra, false);
    }

    /// The same interleavings through Proteus range filters trained on
    /// canonicalized (width-padded) keys: filters may only skip I/O,
    /// never change an answer — zero false negatives end-to-end.
    #[test]
    fn varlen_interleavings_match_oracle_proteus(seed in 0u64..u64::MAX / 2, extra in 0usize..80) {
        run_var_script(seed, 100 + extra, true);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Kill-and-reopen spliced into random interleavings (no filters):
    /// under `SyncMode::Always` a crash loses nothing and resurrects
    /// nothing, wherever it lands.
    #[test]
    fn crash_interleavings_match_oracle_nofilter(seed in 0u64..u64::MAX / 2, extra in 0usize..60) {
        run_crash_script(seed, 90 + extra, false);
    }

    /// The same crash interleavings through Proteus range filters: filter
    /// rebuild/recovery may only skip I/O, never change an answer.
    #[test]
    fn crash_interleavings_match_oracle_proteus(seed in 0u64..u64::MAX / 2, extra in 0usize..60) {
        run_crash_script(seed, 90 + extra, true);
    }
}
