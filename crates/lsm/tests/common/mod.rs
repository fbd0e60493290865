//! Helpers shared by the lsm integration-test binaries.
#![allow(dead_code)] // compiled once per test binary; not every binary uses every helper

use proteus_lsm::{Db, DbConfig, FilterFactory, ProteusFactory};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Tiny deterministic per-thread RNG (splitmix64).
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// `cfg` with a zero filter budget: the configuration of a store without
/// filters, whose files never call the factory and hold no filter.
pub fn unfiltered(cfg: DbConfig) -> DbConfig {
    cfg.to_builder().bits_per_key(0.0).build().unwrap()
}

/// Open a store without filters (see [`unfiltered`]).
pub fn open_unfiltered(dir: &Path, cfg: DbConfig) -> proteus_lsm::Result<Db> {
    Db::open(dir, unfiltered(cfg), Arc::new(ProteusFactory::default()))
}

/// A `MANIFEST` listing `entries` (`(file id, level)`, L0 oldest first),
/// encoded by hand from the documented layout: the magic, `u64` id +
/// `u32` level per file, then a CRC-32 of every byte before it.
pub fn manifest_bytes(entries: &[(u64, u32)]) -> Vec<u8> {
    let mut bytes = b"PRMANv1\0".to_vec();
    for (id, level) in entries {
        bytes.extend_from_slice(&id.to_le_bytes());
        bytes.extend_from_slice(&level.to_le_bytes());
    }
    let crc = proteus_core::codec::crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes
}

/// Every file in `dir` with its bytes, sorted by path: what a refused
/// open must leave exactly as it found it.
pub fn dir_contents(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .map(|p| (p.clone(), std::fs::read(&p).unwrap()))
        .collect();
    files.sort();
    files
}

/// How a crash point kills the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashKind {
    /// `kill -9`: the process dies, the OS page cache survives. Every
    /// WAL append (which reached the OS before the write was acked) is
    /// still on "disk" at reopen, in any sync mode.
    ProcessKill,
    /// Power failure: the process dies *and* the active WAL segment
    /// loses everything past its last fsync. Only synced data survives.
    PowerLoss,
}

/// Crash point: kill `db` via `kind` — no flush, no graceful shutdown
/// sync — then reopen the same directory and return the recovered store.
/// Panics if the reopen fails (a torn WAL tail must never fail
/// `Db::open`).
pub fn crash_and_reopen(
    db: Db,
    dir: &Path,
    cfg: &DbConfig,
    factory: Arc<dyn FilterFactory>,
    kind: CrashKind,
) -> Db {
    match kind {
        CrashKind::ProcessKill => db.crash(),
        CrashKind::PowerLoss => db.crash_power_loss(),
    }
    Db::open(dir, cfg.clone(), factory).expect("reopen after crash must succeed")
}

/// The dir-snapshot variant of a crash point: byte-copy every regular
/// file of the *live* directory into `<dir>-<tag>` while `db` keeps
/// running, approximating what a crash at this instant would leave on
/// disk. Returns the snapshot directory (caller deletes it).
///
/// Caveat: the copy is not atomic across files. If a rotation+flush
/// completes *during* the copy, a middle generation could be missed
/// (its WAL segment deleted after we passed it, its SST created after
/// the listing) — callers avoid that window by snapshotting stores whose
/// MemTable cannot rotate mid-copy (large `memtable_bytes`).
pub fn snapshot_live_dir(dir: &Path, tag: &str) -> PathBuf {
    let snap = dir.with_file_name(format!(
        "{}-{tag}",
        dir.file_name().and_then(|n| n.to_str()).unwrap_or("snap")
    ));
    let _ = std::fs::remove_dir_all(&snap);
    std::fs::create_dir_all(&snap).unwrap();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if !path.is_file() {
            continue;
        }
        // A file may vanish between the listing and the copy (segment
        // deleted after a flush, SST retired by a compaction) — that is a
        // legal crash state, not an error.
        if let Ok(bytes) = std::fs::read(&path) {
            std::fs::write(snap.join(path.file_name().unwrap()), bytes).unwrap();
        }
    }
    snap
}
