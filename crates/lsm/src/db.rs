//! The LSM-tree key-value store: MemTable → L0 (overlapping) → leveled,
//! range-partitioned L1+ with size-ratio-triggered compaction, per-SST
//! range filters, a block cache, and the v2 read surface — `get`,
//! ordered `range` scans, and the §6.1 closed-`Seek` emptiness probe.
//!
//! ## API v2
//!
//! Every public operation returns the typed [`crate::Result`] (never a
//! bare `std::io::Result`). The write surface is [`Db::put`],
//! [`Db::delete`] and atomic [`Db::write`] batches; the read surface is
//! [`Db::get`], [`Db::range`] (an ordered, deduplicated, tombstone-aware
//! merge iterator) and [`Db::seek`], which is a thin emptiness wrapper
//! around the same merge — all three implemented by the one layer walk
//! in [`crate::read`]; this module holds the handle, the write path, the
//! worker's turn and the background thread's loop (which SST files are
//! live is [`crate::manifest`]'s record, what a compaction picks and does
//! is `compact.rs`, what an adaptive pass decides is [`crate::adapt`]).
//! Deletes are first-class: a tombstone entry
//! shadows every older version of its key through MemTables, SSTs,
//! compaction and recovery, and is only dropped once a compaction output
//! lands at the bottom of the tree, where nothing older can remain.
//!
//! ## Concurrency model
//!
//! [`Db`] is a shared-state concurrent store (`&self` everywhere, `Send +
//! Sync`), mirroring the multi-threaded RocksDB setup the paper evaluates
//! under concurrent reader threads (§6.2):
//!
//! * **MemTables are shared, not copied.** The store-wide MemTable lock
//!   guards only *which* tables exist — the active one and the frozen
//!   FIFO — and serializes writers. Each table is an `Arc` around its own
//!   ranked `RwLock<MemTable>`, so a point read, a flush and any
//!   number of scan cursors hold the same table, and rotation moves the
//!   `Arc` without disturbing any of them.
//! * **Reads** never wait on background work, and on a writer only for
//!   the in-memory apply of one batch. `get` looks through the tables
//!   under a briefly-held store-wide read lock, then takes an
//!   `Arc`-snapshot of the immutable level manifest (`Version`) and runs
//!   against it lock-free. `range` and `seek` fix their whole view under
//!   that same short hold — a position in each table at its current batch
//!   stamp, the `Version` — and then read each table *in place* through a
//!   cursor that owns the table's `Arc` and takes its read lock per row
//!   (see [`crate::read`]); between rows they hold nothing. Block I/O
//!   goes through a sharded cache.
//! * **Writes** hold the store-wide write lock for the whole commit: the
//!   batch is appended to the write-ahead log as one record (see
//!   [`crate::wal`]), so log order equals apply order, then applied to
//!   the active table under that table's write lock with one fresh batch
//!   stamp ([`crate::memtable`]). A [`crate::WriteBatch`] is atomic with
//!   respect to every reader twice over: a reader that starts later waits
//!   out the apply, and a scan already under way reads the table as of an
//!   earlier stamp and sees none of it. The `fdatasync` policy
//!   ([`crate::SyncMode`]) runs *after* the locks are released, which is
//!   what lets concurrent writers share one group-commit sync. When the
//!   table reaches `memtable_bytes` it *rotates*: the active WAL segment
//!   is sealed (synced), the full table is frozen onto an
//!   immutable-memtable FIFO and a fresh active table + segment take its
//!   place. A writer that then finds more than `MAX_IMMUTABLE_MEMTABLES`
//!   frozen tables takes the worker lock and, if the queue is still over,
//!   flushes the oldest one itself (RocksDB's write-stall backpressure).
//! * **One worker lock** (LevelDB's one unit of background work at a
//!   time). A *turn* flushes the oldest frozen MemTable into an L0 SST
//!   (building its range filter from its keys + the sample-query queue,
//!   §6.1, then deleting its sealed WAL segment), else runs the compaction
//!   `compact::pick` chooses. Every turn, adaptive pass
//!   ([`crate::adapt`]) and manifest edit holds the worker lock, whichever
//!   thread runs it. An edit writes the new live set to the `MANIFEST`,
//!   then publishes a new `Arc<Version>` under a short-held write lock
//!   (copy-on-write level vectors); readers holding older versions keep
//!   working — retired SST files are unlinked but their open descriptors
//!   stay readable. One background thread takes turns, runs due adaptive
//!   passes, and sleeps until the next rotation.
//! * **Visibility**: an acked `put` (or `delete`) is always observed. A
//!   reader checks MemTables *before* the manifest, and a flush installs
//!   an SST into the manifest *before* retiring its source MemTable, so
//!   every entry is continuously visible in at least one of the two
//!   places.
//! * **Barriers** run on the caller: [`Db::flush`] rotates and flushes
//!   every frozen MemTable; [`Db::flush_and_settle`] rotates and takes
//!   turns until L0 is empty and every level is within its size target
//!   (the §6.2 "wait for all background compactions" setup step);
//!   [`Db::adapt_now`] runs one adaptive pass.
//!
//! Lock discipline: every lock in this crate is a ranked
//! [`proteus_core::sync`] wrapper, and locks must be acquired in strictly
//! decreasing rank order (the full hierarchy table lives in
//! `ARCHITECTURE.md`). The ranks used here: `WORKER` (90, one unit of
//! background work) > `MEMTABLE` (80, the table set) > `MEMTABLE_DATA`
//! (75, one table's content) > `WAL` (60) > `MANIFEST` (50) >
//! `CACHE_SHARD` (30) > `QUERY_QUEUE` (20). `WORKER` is taken with
//! nothing else held; the other nestings all descend (so no acquisition
//! cycle can form across threads): MemTable → table data (a write
//! applies, a `get` looks up and a scan seeks under the store-wide lock;
//! a table lock guards in-memory work only and is released before the WAL
//! or a block is touched — the one long hold is a flush's read lock on a
//! frozen table, which has no writer to keep waiting), MemTable → WAL
//! (appends and seals happen under the MemTable write lock), and MemTable
//! → manifest (a scan takes its `Version` in the same hold as its tables).
//! Debug builds (and release builds with the `lock-doctor` feature)
//! verify the ordering at runtime and panic, naming both acquisition
//! sites, on any inversion. No lock coordinates the background thread: a
//! rotation `unpark`s it, shutdown is a flag, and the sticky error is
//! set once.
//! An error raised under the worker lock is sticky: it is returned, and
//! so by every later turn, pass, barrier and rotating write. A poisoned
//! foreground lock (another thread panicked) surfaces as
//! [`Error::Poisoned`]; the background thread records it as the sticky
//! error and exits rather than panicking. A poisoned manifest lock is
//! recovered: its content is an `Arc` swapped in a single assignment, so
//! a panic under the lock can never expose a half-edited version.

use crate::batch::WriteBatch;
use crate::cache::ShardedBlockCache;
use crate::error::{Error, Result};
use crate::filter_hook::FilterFactory;
use crate::memtable::MemTable;
use crate::query_queue::QueryQueue;
use crate::read::RangeIter;
use crate::sst::{SstDescription, SstReader, SstWriter};
use crate::stats::Stats;
use crate::wal::{self, Wal};
use crate::{adapt, compact, manifest};
use proteus_core::key::u64_key;
use proteus_core::sync::{rank, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::ops::{Bound, RangeBounds};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError};
use std::thread::{JoinHandle, Thread};
use std::time::Instant;

pub use crate::config::{DbConfig, DbConfigBuilder};
use crate::config::{BLOCK_BYTES, MAX_KEY_BYTES};

/// Block cache capacity in bytes.
pub(crate) const BLOCK_CACHE_BYTES: usize = 8 << 20;
/// Frozen MemTables allowed before a writer stalls (max_write_buffer_number - 1).
pub(crate) const MAX_IMMUTABLE_MEMTABLES: usize = 2;

/// An immutable snapshot of the SST level manifest. `levels[0]` holds
/// overlapping flush outputs (newest last); deeper levels are sorted and
/// disjoint. Cloning is cheap (per-level `Vec<Arc<SstReader>>` copies).
#[derive(Debug, Clone)]
pub(crate) struct Version {
    pub(crate) levels: Vec<Vec<Arc<SstReader>>>,
}

/// One MemTable as the store shares it: writers, point reads, a flush
/// and every scan cursor positioned in it hold the same table, behind its
/// own `MEMTABLE_DATA` lock (see the module docs for what may nest).
pub(crate) type SharedTable = Arc<RwLock<MemTable>>;

fn shared_table(table: MemTable) -> SharedTable {
    Arc::new(RwLock::new(rank::MEMTABLE_DATA, table))
}

/// A table's read lock, surfacing poisoning as a typed error.
pub(crate) fn read_table(table: &SharedTable) -> Result<RwLockReadGuard<'_, MemTable>> {
    table.read().map_err(|_| Error::Poisoned("memtable lock"))
}

/// A frozen MemTable awaiting flush, paired with the sealed WAL segment
/// holding exactly its writes (deleted once the table's SST is
/// installed).
pub(crate) struct Imm {
    pub(crate) mem: SharedTable,
    wal_id: u64,
}

/// MemTable state: the active write buffer plus frozen tables awaiting a
/// background flush (oldest first). The lock around this struct
/// (`MEMTABLE`) decides *which* tables exist and serializes writers; each
/// table's content sits behind its own lock.
pub(crate) struct MemState {
    pub(crate) active: SharedTable,
    pub(crate) imms: Vec<Imm>,
}

impl MemState {
    /// Every table a read must consult, newest first.
    pub(crate) fn tables(&self) -> impl Iterator<Item = &SharedTable> {
        std::iter::once(&self.active).chain(self.imms.iter().rev().map(|imm| &imm.mem))
    }
}

/// What one [`DbInner::turn`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Turn {
    Flushed,
    Compacted,
    Idle,
}

/// Shared state behind the public handle; owned by the caller-facing
/// [`Db`] and by the background thread.
pub(crate) struct DbInner {
    pub(crate) cfg: DbConfig,
    pub(crate) dir: PathBuf,
    mem: RwLock<MemState>,
    wal: Wal,
    manifest: RwLock<Arc<Version>>,
    next_sst_id: AtomicU64,
    pub(crate) factory: Arc<dyn FilterFactory>,
    pub(crate) queue: QueryQueue,
    pub(crate) cache: ShardedBlockCache,
    pub(crate) stats: Arc<Stats>,
    /// Held around every turn, adaptive pass and manifest edit, whichever
    /// thread runs it (see [`DbInner::exclusive`]).
    worker: Mutex<()>,
    /// Set when the `Db` shuts down: the background thread exits at its
    /// next check.
    shutdown: AtomicBool,
    /// First error raised under the worker lock; every later turn, pass,
    /// barrier and rotating write returns it.
    error: OnceLock<String>,
    /// The background thread, which a rotation `unpark`s. Unset on a
    /// store built by [`Db::recover`].
    bg: OnceLock<Thread>,
}

/// A single-process, multi-threaded LSM-tree database with pluggable
/// per-SST range filters. All operations take `&self`; share it across
/// threads by reference (`std::thread::scope`) or inside an `Arc`.
///
/// # Example
///
/// ```
/// use proteus_lsm::{Db, DbConfig, ProteusFactory, WriteBatch};
/// use std::sync::Arc;
///
/// let dir = std::env::temp_dir().join(format!("proteus-doc-db-{}", std::process::id()));
/// let db = Db::open(&dir, DbConfig::default(), Arc::new(ProteusFactory::default()))?;
///
/// db.put_u64(42, b"value")?;
/// assert_eq!(db.get_u64(42)?.as_deref(), Some(&b"value"[..]));
/// assert!(db.seek_u64(40, 50)?); // somewhere in [40, 50] there is a key
///
/// db.delete_u64(42)?; // tombstone: shadows the put everywhere
/// assert_eq!(db.get_u64(42)?, None);
/// assert!(!db.seek_u64(40, 50)?);
///
/// let mut batch = WriteBatch::new(); // atomic multi-op write
/// batch.put_u64(1, b"a").put_u64(2, b"b").delete_u64(1);
/// db.write(batch)?;
///
/// let live: Vec<(Vec<u8>, Vec<u8>)> =
///     db.range_u64(0..=100)?.collect::<proteus_lsm::Result<_>>()?;
/// assert_eq!(live.len(), 1); // only key 2 survives, in sorted order
///
/// db.flush()?; // durability barrier: everything rotated so far is on disk
/// drop(db);
/// # std::fs::remove_dir_all(&dir)?;
/// # Ok::<(), proteus_lsm::Error>(())
/// ```
pub struct Db {
    pub(crate) inner: Arc<DbInner>,
    thread: Option<JoinHandle<()>>,
    /// Crash injection (test support): `Drop` skips the final flush and
    /// sync.
    crash: bool,
}

fn bg_error(msg: &str) -> Error {
    Error::Io(std::io::Error::other(format!("background work failed: {msg}")))
}

impl Db {
    /// Open a database in `dir`, creating it if empty, and start its
    /// background thread. The configuration is validated first
    /// ([`Error::Config`] on a bad knob).
    ///
    /// An existing store is *recovered*: exactly the SST files its
    /// `MANIFEST` lists are reopened at their listed levels, with filters
    /// decoded, never retrained, and unlisted files a crash left are
    /// deleted ([`crate::manifest`]). A damaged `MANIFEST`, a corrupt
    /// footer or index, a listed file of another format generation, or SSTs
    /// with no `MANIFEST` (a store of an earlier build: refused, not
    /// upgraded) fail the open with [`Error::Corruption`], touching nothing;
    /// a corrupt filter block only costs its file the filter.
    ///
    /// Each surviving WAL segment, oldest first, comes back as the MemTable
    /// it held, so every acked write is served again: a sealed segment as a
    /// frozen table that the first turns flush, the newest as the active
    /// table, its segment resumed for appends (one with no record is
    /// deleted). The reopen writes no WAL record. A torn segment tail is
    /// cut silently; damage *before* the last record fails the open with
    /// [`Error::Corruption`].
    ///
    /// If the background thread cannot be started, the open fails with
    /// that I/O error and no thread holds the directory's files.
    pub fn open(
        dir: impl Into<PathBuf>,
        cfg: DbConfig,
        factory: Arc<dyn FilterFactory>,
    ) -> Result<Db> {
        let mut db = Db::recover(dir.into(), cfg, factory)?;
        // An `Err` from the loop — a failed flush, a poisoned lock —
        // becomes the sticky error and the thread exits.
        let bg = Arc::clone(&db.inner);
        let body = move || {
            if let Err(e) = bg.worker_loop() {
                bg.record_error(&e);
            }
        };
        let handle = std::thread::Builder::new().name("proteus-lsm-bg".into()).spawn(body)?;
        let _ = db.inner.bg.set(handle.thread().clone());
        db.thread = Some(handle);
        Ok(db)
    }

    /// Recover (or create) the store in `dir` without starting a thread:
    /// [`Db::open`] minus the spawn. The store is complete on its own —
    /// barriers and stalled writers do their work on the calling thread —
    /// but nothing compacts unless a caller takes a turn.
    pub(crate) fn recover(
        dir: PathBuf,
        cfg: DbConfig,
        factory: Arc<dyn FilterFactory>,
    ) -> Result<Db> {
        cfg.validate()?;
        std::fs::create_dir_all(&dir)?;
        let queue = QueryQueue::new(cfg.queue_capacity(), cfg.sample_every());
        let cache = ShardedBlockCache::new(BLOCK_CACHE_BYTES);
        let stats = Arc::new(Stats::default());
        let (levels, mut next_id) = manifest::recover(&dir, &stats)?;
        // Each surviving segment comes back as the table it held, in id
        // (= generation) order, above every SST: a segment whose flush was
        // listed just before a crash holds that SST's bytes, and everything
        // newer is in a later segment. Every segment but the newest was
        // sealed by a rotation, so its table was frozen; the newest is the
        // active one, resumed in place.
        let mut imms = Vec::new();
        let mut newest = None;
        for (id, path) in wal::list_segments(&dir)? {
            next_id = next_id.max(id + 1);
            let replay = wal::replay_segment(&path, MAX_KEY_BYTES)?;
            if replay.commits.is_empty() {
                std::fs::remove_file(&path)?;
                continue;
            }
            stats.wal_replayed_records.add(replay.commits.len() as u64);
            let mut table = MemTable::new();
            for (k, v) in replay.commits.into_iter().flatten() {
                table.apply(k, v);
            }
            let table = (shared_table(table), id, replay.valid_len);
            if let Some((mem, wal_id, _)) = newest.replace(table) {
                imms.push(Imm { mem, wal_id });
            }
        }
        let (active, id, resume_at) = match newest {
            Some((mem, id, len)) => (mem, id, Some(len)),
            None => (shared_table(MemTable::new()), next_id, None),
        };
        let wal = Wal::open(&dir, id, resume_at, MAX_KEY_BYTES, cfg.sync_mode())?;
        let inner = Arc::new(DbInner {
            cfg,
            dir,
            mem: RwLock::new(rank::MEMTABLE, MemState { active, imms }),
            wal,
            manifest: RwLock::new(rank::MANIFEST, Arc::new(Version { levels })),
            next_sst_id: AtomicU64::new(next_id + 1),
            factory,
            queue,
            cache,
            stats,
            worker: Mutex::new(rank::WORKER, ()),
            shutdown: AtomicBool::new(false),
            error: OnceLock::new(),
            bg: OnceLock::new(),
        });
        Ok(Db { inner, thread: None, crash: false })
    }

    /// Tell the background thread (if any) to exit, wake it and join it.
    fn stop_worker(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.thread.take() {
            h.thread().unpark();
            let _ = h.join();
        }
    }

    /// The configuration this database was opened with.
    pub fn config(&self) -> &DbConfig {
        &self.inner.cfg
    }

    /// Live execution counters (relaxed atomics; see [`Stats`]).
    pub fn stats(&self) -> &Stats {
        &self.inner.stats
    }

    /// Seed the sample query queue (§6.2 seeds it with an initial sample).
    pub fn seed_queries(&self, queries: impl IntoIterator<Item = (Vec<u8>, Vec<u8>)>) {
        self.inner.queue.seed(queries);
        self.inner.stats.sampled_queries.set(self.inner.queue.len() as u64);
    }

    /// Insert a key-value pair. May rotate the MemTable onto the
    /// background flush queue; stalls only when `MAX_IMMUTABLE_MEMTABLES`
    /// rotations are already pending. Keys are arbitrary non-empty byte
    /// strings of at most [`MAX_KEY_BYTES`] bytes ([`Error::Config`]
    /// otherwise).
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.inner.check_key(key)?;
        self.inner.apply_writes(&[(key, Some(value))])
    }

    /// Insert with a `u64` key.
    pub fn put_u64(&self, key: u64, value: &[u8]) -> Result<()> {
        self.put(&u64_key(key), value)
    }

    /// Exact-key lookup: the newest live value for `key`, or `None` if
    /// the key was never written or its newest record is a tombstone.
    /// Checks the MemTables (newest first), then every SST that can hold
    /// the key, admitting each through its range filter first.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.inner.get(key)
    }

    /// [`Db::get`] with a `u64` key.
    pub fn get_u64(&self, key: u64) -> Result<Option<Vec<u8>>> {
        self.get(&u64_key(key))
    }

    /// Delete `key`: records a tombstone that shadows every older version
    /// of the key — in the MemTables, in every SST level, across
    /// compactions and across a reopen — until compaction drops it at the
    /// bottom of the tree. Deleting a key that was never written is a
    /// valid no-op (the tombstone is still recorded).
    pub fn delete(&self, key: &[u8]) -> Result<()> {
        self.inner.check_key(key)?;
        self.inner.stats.deletes.inc();
        self.inner.apply_writes(&[(key, None::<&[u8]>)])
    }

    /// [`Db::delete`] with a `u64` key.
    pub fn delete_u64(&self, key: u64) -> Result<()> {
        self.delete(&u64_key(key))
    }

    /// Apply a [`WriteBatch`] atomically: all of its puts and deletes
    /// become visible together (one MemTable lock hold, one batch stamp),
    /// and no rotation can split them across flush files' worth of
    /// visibility. Every key is validated before anything is applied, so
    /// a bad key rejects the whole batch. An empty batch is a no-op.
    pub fn write(&self, batch: WriteBatch) -> Result<()> {
        let ops = batch.into_ops();
        for (k, _) in &ops {
            self.inner.check_key(k)?;
        }
        if ops.is_empty() {
            return Ok(());
        }
        let deletes = ops.iter().filter(|(_, v)| v.is_none()).count() as u64;
        self.inner.stats.deletes.add(deletes);
        self.inner.apply_writes(&ops)
    }

    /// Ordered scan: an iterator over the live `(key, value)` entries in
    /// `range`, ascending and deduplicated, with deleted keys suppressed.
    /// The merge spans the active and immutable MemTables plus the
    /// manifest snapshot; every overlapping SST is admitted through its
    /// range filter, so a scan over a provably-empty region costs no I/O.
    ///
    /// The iterator is a point-in-time view of the MemTables and manifest
    /// as of the call; later writes, rotations, flushes and compactions
    /// are invisible to it. It reads the MemTables in place — what it
    /// costs is the rows it yields, not the size of the tables — and holds
    /// no lock between `next()` calls, so the calling thread may write
    /// while it iterates. It does keep the tables and files of its view
    /// alive until dropped.
    ///
    /// Bounds follow `std::ops` conventions (`lo..=hi`, `lo..hi`, `..`,
    /// …); named bound keys must be non-empty and at most
    /// [`MAX_KEY_BYTES`] bytes ([`Error::Config`]). An inverted range
    /// (`lo > hi` after normalization) yields an empty iterator, not an
    /// error.
    ///
    /// # Example
    ///
    /// ```
    /// # use proteus_lsm::{Db, DbConfig, NoFilterFactory};
    /// # use std::sync::Arc;
    /// # let dir = std::env::temp_dir().join(format!("proteus-doc-range-{}", std::process::id()));
    /// # let db = Db::open(&dir, DbConfig::default(), Arc::new(NoFilterFactory))?;
    /// for i in 0..10u64 {
    ///     db.put_u64(i, &i.to_le_bytes())?;
    /// }
    /// db.delete_u64(4)?;
    /// let keys: Vec<Vec<u8>> = db
    ///     .range_u64(2..=6)?
    ///     .map(|e| e.map(|(k, _)| k))
    ///     .collect::<proteus_lsm::Result<_>>()?;
    /// assert_eq!(keys.len(), 4); // 2, 3, 5, 6 — the delete is invisible
    /// # drop(db);
    /// # std::fs::remove_dir_all(&dir)?;
    /// # Ok::<(), proteus_lsm::Error>(())
    /// ```
    pub fn range<K, R>(&self, range: R) -> Result<RangeIter<'_>>
    where
        K: AsRef<[u8]>,
        R: RangeBounds<K>,
    {
        // Validate first, like `get`/`seek`: a scan rejected for a bad
        // bound never started.
        let bounds = self.inner.resolve_bounds(range)?;
        self.inner.stats.range_scans.inc();
        match bounds {
            Some((lo, hi)) => RangeIter::new(&self.inner, &lo, &hi),
            None => Ok(RangeIter::empty(&self.inner)),
        }
    }

    /// [`Db::range`] with `u64` bounds.
    pub fn range_u64(&self, range: impl RangeBounds<u64>) -> Result<RangeIter<'_>> {
        fn conv(b: Bound<&u64>) -> Bound<Vec<u8>> {
            match b {
                Bound::Unbounded => Bound::Unbounded,
                Bound::Included(&k) => Bound::Included(u64_key(k).to_vec()),
                Bound::Excluded(&k) => Bound::Excluded(u64_key(k).to_vec()),
            }
        }
        self.range((conv(range.start_bound()), conv(range.end_bound())))
    }

    /// Closed-range `Seek`: does any *live* key exist in `[lo, hi]`? This
    /// is the §6.1 read path — a thin emptiness wrapper over the same
    /// filter-accelerated merge as [`Db::range`]: every overlapping SST's
    /// filter is probed and only filter-positive files pay index + block
    /// I/O. A range whose only in-range entries are tombstones is
    /// (correctly) empty. `lo > hi` is an empty range, not an error.
    pub fn seek(&self, lo: &[u8], hi: &[u8]) -> Result<bool> {
        self.inner.seek(lo, hi)
    }

    /// `Seek` with `u64` bounds.
    pub fn seek_u64(&self, lo: u64, hi: u64) -> Result<bool> {
        self.seek(&u64_key(lo), &u64_key(hi))
    }

    /// Durability barrier: rotate the active MemTable (if non-empty) and
    /// flush every frozen MemTable to an L0 SST, on the calling thread.
    /// Compactions those flushes call for are left to the background
    /// thread; use [`Db::flush_and_settle`] for a full barrier.
    pub fn flush(&self) -> Result<()> {
        self.inner.rotate_active()?;
        self.inner.flush_frozen()
    }

    /// Full barrier: rotate, then take turns on the calling thread until
    /// there is no frozen table and nothing to compact — L0 empty and every
    /// level within its size target: the §6.2 "wait for all background
    /// compactions to finish" setup step (§6.2 also compacts "all L0 SST
    /// files to L1 for sake of consistency").
    pub fn flush_and_settle(&self) -> Result<()> {
        self.inner.rotate_active()?;
        while self.inner.turn(true)? != Turn::Idle {}
        Ok(())
    }

    /// Run one adaptive-maintenance pass on the calling thread: scan every
    /// live SST, flag the ones whose observed FPR crossed the configured
    /// threshold or strayed above its filter's prediction (see
    /// [`crate::adapt`]), re-train their filters on a fresh sample snapshot
    /// and atomically rewrite the filter blocks. Returns the number of
    /// filters the pass re-trained.
    ///
    /// With `adapt_enabled` the background thread also runs exactly this
    /// every `adapt_interval`; calling it directly makes tests and
    /// experiments deterministic. An error in the pass becomes the sticky
    /// error, like an error in any background work.
    pub fn adapt_now(&self) -> Result<usize> {
        self.inner.exclusive(|| adapt::pass(&self.inner))
    }

    /// Number of SST files per level.
    pub fn level_file_counts(&self) -> Vec<usize> {
        self.inner.version().levels.iter().map(|l| l.len()).collect()
    }

    /// Total SST files.
    pub fn sst_count(&self) -> usize {
        self.inner.version().levels.iter().map(|l| l.len()).sum()
    }

    /// Total key-value entries across all SSTs, tombstones included
    /// (duplicates across levels counted per file).
    pub fn sst_entries(&self) -> u64 {
        self.inner.version().levels.iter().flatten().map(|s| s.n_entries).sum()
    }

    /// Total tombstone entries across all SSTs (duplicates counted per
    /// file, like [`Db::sst_entries`]).
    pub fn sst_tombstones(&self) -> u64 {
        self.inner.version().levels.iter().flatten().map(|s| s.n_tombstones).sum()
    }

    /// Total bytes of all SST files.
    pub fn sst_bytes(&self) -> u64 {
        self.inner.version().levels.iter().flatten().map(|s| s.file_bytes).sum()
    }

    /// Every live SST of one manifest version, level by level (L0 oldest
    /// first, deeper levels in key order). Read-only: nothing is probed,
    /// read from disk or reset.
    pub fn describe(&self) -> Vec<Vec<SstDescription>> {
        let v = self.inner.version();
        v.levels.iter().map(|level| level.iter().map(|s| s.describe()).collect()).collect()
    }

    /// Total memory held by the per-SST filters, in bits.
    pub fn filter_bits(&self) -> u64 {
        let v = self.inner.version();
        v.levels.iter().flatten().map(|s| s.filter().map_or(0, |f| f.size_bits())).sum()
    }

    /// Crash injection (test support): simulate an abrupt process kill.
    ///
    /// The background thread exits without draining the flush queue and
    /// the graceful shutdown sync is skipped — nothing is flushed, nothing is
    /// fsynced on the way out. Everything the OS already accepted (every
    /// WAL append — records reach the OS before a write returns) still
    /// survives a reopen in *any* [`crate::SyncMode`], exactly like a
    /// real `kill -9`: a process crash does not empty the page cache.
    /// Use [`Db::crash_power_loss`] to also lose un-synced data.
    pub fn crash(self) {
        self.crash_impl(false);
    }

    /// Crash injection (test support): simulate a power failure — a
    /// process kill ([`Db::crash`]) *plus* the loss of the active WAL
    /// segment's un-synced bytes (the file is truncated to its last
    /// synced offset, discarding what only the page cache held).
    ///
    /// Under [`crate::SyncMode::Always`] this loses no acked write;
    /// under `Off` it can lose everything since the last rotation
    /// (sealed segments are synced at seal time and keep their data).
    pub fn crash_power_loss(self) {
        self.crash_impl(true);
    }

    fn crash_impl(mut self, power_loss: bool) {
        self.crash = true;
        self.stop_worker();
        if power_loss {
            let _ = self.inner.wal.truncate_unsynced();
        }
        // `Drop` runs next; the crash flag makes it skip the final sync.
    }
}

impl Drop for Db {
    /// Stop the background thread, then flush every already-rotated
    /// MemTable; the active MemTable is *not* flushed to an SST,
    /// but its writes survive anyway — they are in the active WAL
    /// segment, which the next [`Db::open`] replays, and the drop ends
    /// with a final segment sync so even a power loss right after it
    /// loses nothing.
    fn drop(&mut self) {
        self.stop_worker();
        if !self.crash {
            // Graceful shutdown. Skipped on crash injection — a killed
            // process gets no parting flush or fsync. A failed flush keeps
            // its tables' sealed segments, which the next open replays.
            let _ = self.inner.flush_frozen();
            let _ = self.inner.wal.sync(&self.inner.stats);
        }
    }
}

impl DbInner {
    /// Current manifest snapshot (read lock held only for the Arc clone).
    /// A poisoned manifest lock is *recovered*: the content is an `Arc`
    /// replaced in a single assignment (see [`DbInner::edit_manifest`]),
    /// so whatever the panicking thread left behind is a complete,
    /// self-consistent version — either the old one or the new one.
    pub(crate) fn version(&self) -> Arc<Version> {
        Arc::clone(&self.manifest.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Apply `edit` to a clone of the current version, record the result
    /// in the `MANIFEST` ([`manifest::store`]; on failure nothing changes),
    /// and only then swap it in, so no lock a reader takes is held across
    /// the fsync. Callers hold the worker lock: a job's snapshot stays the
    /// latest until its own edit, and the `MANIFEST` has one writer. The
    /// swap is one `Arc` assignment, which makes poison recovery in
    /// [`DbInner::version`] sound: no panic can expose a half-edited version.
    pub(crate) fn edit_manifest(&self, edit: impl FnOnce(&mut Version)) -> Result<()> {
        let mut v = (*self.version()).clone();
        edit(&mut v);
        manifest::store(&self.dir, &v)?;
        *self.manifest.write().unwrap_or_else(PoisonError::into_inner) = Arc::new(v);
        Ok(())
    }

    /// MemTable read lock, surfacing poisoning as a typed error.
    pub(crate) fn mem_read(&self) -> Result<RwLockReadGuard<'_, MemState>> {
        self.mem.read().map_err(|_| Error::Poisoned("memtable lock"))
    }

    fn mem_write(&self) -> Result<RwLockWriteGuard<'_, MemState>> {
        self.mem.write().map_err(|_| Error::Poisoned("memtable lock"))
    }

    /// Has shutdown been requested? Lets long background passes stop
    /// between units of work.
    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The sticky error, if one was recorded.
    fn check_error(&self) -> Result<()> {
        match self.error.get() {
            Some(e) => Err(bg_error(e)),
            None => Ok(()),
        }
    }

    /// Run `work` under the worker lock, as every turn, adaptive pass and
    /// manifest edit does, whichever thread runs it. Refuses to start once
    /// an error is recorded: after a failed flush, a later one must not
    /// overtake the stranded generation (out-of-order flushes would break
    /// replay's id-order-equals-recency invariant). An error `work` returns
    /// is recorded as the sticky error, then returned.
    pub(crate) fn exclusive<T>(&self, work: impl FnOnce() -> Result<T>) -> Result<T> {
        let _worker = self.worker.lock().map_err(|_| Error::Poisoned("worker lock"))?;
        self.check_error()?;
        work().inspect_err(|e| self.record_error(e))
    }

    fn alloc_id(&self) -> u64 {
        self.next_sst_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Reject keys the store cannot represent: zero-length keys and any
    /// key longer than [`MAX_KEY_BYTES`].
    pub(crate) fn check_key(&self, key: &[u8]) -> Result<()> {
        if key.is_empty() {
            return Err(Error::config("zero-length keys are not valid"));
        }
        if key.len() > MAX_KEY_BYTES {
            return Err(Error::config(format!(
                "key length {} exceeds the {MAX_KEY_BYTES}-byte key limit",
                key.len()
            )));
        }
        Ok(())
    }

    /// Freeze the active MemTable onto the immutable queue if non-empty,
    /// and wake the background thread to flush it.
    fn publish_rotation(&self, mem: &mut MemState) -> Result<bool> {
        if read_table(&mem.active)?.is_empty() {
            return Ok(false);
        }
        // Seal the active WAL segment first (one fdatasync — so sealed
        // segments are fully durable in every sync mode) and open its
        // successor. On failure the rotation is abandoned with the store
        // intact: the active table keeps accepting writes into the old
        // segment.
        let wal_id = self.wal.rotate(self.alloc_id(), &self.stats)?;
        // Freezing moves the `Arc`: cursors already positioned in the
        // table keep reading the very same one.
        let frozen = std::mem::replace(&mut mem.active, shared_table(MemTable::new()));
        mem.imms.push(Imm { mem: frozen, wal_id });
        self.stats.memtable_rotations.inc();
        if let Some(bg) = self.bg.get() {
            bg.unpark();
        }
        Ok(true)
    }

    /// Freeze the active MemTable onto the immutable queue if non-empty.
    fn rotate_active(&self) -> Result<bool> {
        let mut mem = self.mem_write()?;
        self.publish_rotation(&mut mem)
    }

    /// Apply pre-validated write operations (`None` value = tombstone)
    /// under one MemTable lock acquisition, then pay rotation backpressure
    /// outside the lock. The ops are borrowed all the way down: the WAL
    /// encodes them into its own buffers and the arena MemTable copies
    /// them, so a put allocates nothing.
    fn apply_writes<K: AsRef<[u8]>, V: AsRef<[u8]>>(&self, ops: &[(K, Option<V>)]) -> Result<()> {
        let (seq, rotated) = {
            let mut mem = self.mem_write()?;
            // WAL first, under the MemTable write lock: log order equals
            // apply order, and a failed append leaves the table untouched
            // (nothing unlogged is ever visible).
            let seq = self.wal.append_commit(ops, &self.stats)?;
            // One stamp for the whole batch is what keeps it atomic for
            // scans already under way: their cursors read the table as of
            // an earlier stamp.
            let full = {
                let mut active =
                    mem.active.write().map_err(|_| Error::Poisoned("memtable lock"))?;
                active.new_batch();
                for (k, v) in ops {
                    active.apply_ref(k.as_ref(), v.as_ref().map(AsRef::as_ref));
                }
                active.is_full(self.cfg.memtable_bytes())
            };
            let rotated = full && self.publish_rotation(&mut mem)?;
            (seq, rotated)
        };
        // Durability outside the MemTable lock: waiting for the group
        // fsync here is what lets concurrent committers share one sync
        // without stalling readers or other appenders.
        self.wal.commit(seq, &self.stats)?;
        if rotated {
            self.check_error()?;
            // Backpressure: a writer that finds too many frozen tables
            // queued flushes the oldest one itself, unless the flush it
            // waited out on the worker lock brought the queue back down.
            let over =
                || -> Result<bool> { Ok(self.mem_read()?.imms.len() > MAX_IMMUTABLE_MEMTABLES) };
            if over()? {
                let t0 = Instant::now();
                let flushed = self.exclusive(|| Ok(over()? && self.flush_oldest()?));
                self.stats.write_stall_ns.add(t0.elapsed().as_nanos() as u64);
                flushed?;
            }
        }
        Ok(())
    }

    /// Record the sticky error; the first one recorded wins.
    fn record_error(&self, e: &Error) {
        let _ = self.error.set(e.to_string());
    }

    // ---- the worker's turn and the background thread -------------------

    /// One unit of background work, the most urgent there is: flush the
    /// oldest frozen MemTable, else run the compaction `compact::pick`
    /// chooses (with `settle`, any non-empty L0 compacts). Runs under the
    /// worker lock on the calling thread.
    pub(crate) fn turn(&self, settle: bool) -> Result<Turn> {
        self.exclusive(|| {
            if self.flush_oldest()? {
                return Ok(Turn::Flushed);
            }
            let Some(job) = compact::pick(&self.version(), &self.cfg, settle) else {
                return Ok(Turn::Idle);
            };
            compact::run(self, job)?;
            Ok(Turn::Compacted)
        })
    }

    /// Flush every frozen MemTable, oldest first.
    fn flush_frozen(&self) -> Result<()> {
        self.exclusive(|| {
            while self.flush_oldest()? {}
            Ok(())
        })
    }

    /// The background thread: take turns until there is nothing to do,
    /// run an adaptive pass if `adapt_enabled` and `adapt_interval` has
    /// passed since the last one, then park until a rotation, shutdown or
    /// the next pass. It never waits holding the worker lock, so barriers
    /// and stalled writers take turns of their own meanwhile.
    ///
    /// No wake-up is lost: an `unpark` that lands while the turns run
    /// leaves a token behind, and the next `park` consumes it and returns
    /// at once, so the loop looks again. Spurious returns only cost one
    /// idle look.
    fn worker_loop(&self) -> Result<()> {
        let mut next_pass = Instant::now();
        // On shutdown `Drop` flushes what is still frozen.
        while !self.shutting_down() {
            while !self.shutting_down() && self.turn(false)? != Turn::Idle {}
            if self.cfg.adapt_enabled() && Instant::now() >= next_pass {
                self.exclusive(|| adapt::pass(self))?;
                next_pass = Instant::now() + self.cfg.adapt_interval();
            }
            if self.cfg.adapt_enabled() {
                std::thread::park_timeout(next_pass.saturating_duration_since(Instant::now()));
            } else {
                std::thread::park();
            }
        }
        Ok(())
    }

    /// Flush the oldest frozen MemTable, if there is one, and delete its
    /// sealed WAL segment. Returns whether there was one.
    fn flush_oldest(&self) -> Result<bool> {
        let Some((imm, wal_id)) =
            self.mem_read()?.imms.first().map(|i| (Arc::clone(&i.mem), i.wal_id))
        else {
            return Ok(false);
        };
        // A frozen table has no writer, so this read lock is never waited
        // for and blocks nobody for the length of the flush.
        //
        // On failure keep the MemTable *and* its sealed WAL segment: the
        // data is fully recoverable from the segment at the next open, and
        // the sticky error keeps any newer generation from flushing past
        // the stranded one.
        let reader = read_table(&imm).and_then(|table| self.flush_imm(&table))?;
        // Install the SST before retiring the MemTable so the data is
        // never invisible to a reader.
        self.edit_manifest(|v| v.levels[0].push(Arc::new(reader)))?;
        self.mem_write()?.imms.remove(0);
        self.stats.flushes.inc();
        // The table's data is durable in the installed (synced, listed)
        // SST, so its sealed WAL segment is redundant — delete it. The
        // delete must not be skipped on failure: if an *older* segment
        // outlived a newer generation's flush+delete, the next replay
        // would resurrect its stale values over the SSTs, so a failed
        // unlink is a sticky error that stops every later turn.
        wal::delete_segment(&self.dir, wal_id)?;
        Ok(true)
    }

    /// Write one frozen MemTable to a new L0 SST — tombstones persist as
    /// flagged entries — building its filter from the file's keys and the
    /// current sample queue (§6.1).
    fn flush_imm(&self, imm: &MemTable) -> Result<SstReader> {
        let mut w = self.sst_writer()?;
        for (k, v) in imm.iter() {
            w.push(k, v)?;
        }
        self.finish_sst(w)
    }

    /// Start a new SST under a freshly allocated id.
    pub(crate) fn sst_writer(&self) -> Result<SstWriter> {
        SstWriter::create(&self.dir, self.alloc_id(), self.cfg.key_width(), BLOCK_BYTES)
    }

    /// Seal an SST, training its filter on the current sample queue.
    pub(crate) fn finish_sst(&self, w: SstWriter) -> Result<SstReader> {
        w.finish(self.factory.as_ref(), &self.queue, self.cfg.bits_per_key(), &self.stats)
    }
}

#[cfg(test)]
mod poison_tests {
    //! Regression tests for the panic-safety sweep: a poisoned worker lock
    //! must surface as [`Error::Poisoned`] on the foreground, stop the
    //! background thread via the sticky-error path (no worker panics), and
    //! never turn `Db::drop` into a panic (which, during an unwind, would
    //! be a double panic and abort the process).

    use super::*;
    use crate::NoFilterFactory;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;
    use std::time::Duration;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("proteus-poison-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// Panics recorded from this crate's named worker threads. The chained
    /// hook filters on the `proteus-lsm-` thread-name prefix, so deliberate
    /// test panics (poisoning threads, `catch_unwind` probes) in this or
    /// any concurrently running test never count.
    fn worker_panics() -> &'static AtomicU64 {
        static COUNTER: OnceLock<&'static AtomicU64> = OnceLock::new();
        COUNTER.get_or_init(|| {
            static N: AtomicU64 = AtomicU64::new(0);
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let in_worker =
                    std::thread::current().name().is_some_and(|n| n.starts_with("proteus-lsm-"));
                if in_worker {
                    N.fetch_add(1, Ordering::SeqCst);
                }
                prev(info);
            }));
            &N
        })
    }

    /// Poison the worker lock the way a crashed turn would: panic on a
    /// helper thread while holding it.
    fn poison_worker(db: &Db) {
        let inner = Arc::clone(&db.inner);
        let _ = std::thread::spawn(move || {
            let _g = inner.worker.lock().unwrap();
            panic!("deliberate worker-lock poisoning (test)");
        })
        .join();
        assert!(db.inner.worker.lock().is_err(), "worker lock must now be poisoned");
    }

    /// A store whose background thread wakes every millisecond and has
    /// met a poisoned worker lock: it has recorded the sticky error and
    /// exited by the time this returns.
    fn store_after_background_error(dir: &std::path::Path) -> Db {
        let cfg = DbConfig::builder()
            .adapt_enabled(true)
            .adapt_interval(Duration::from_millis(1))
            .memtable_bytes(1)
            .build()
            .unwrap();
        let db = Db::open(dir, cfg, Arc::new(NoFilterFactory)).unwrap();
        poison_worker(&db);
        let deadline = Instant::now() + Duration::from_secs(5);
        while !db.thread.as_ref().unwrap().is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(db.thread.as_ref().unwrap().is_finished(), "the background thread exits");
        db
    }

    #[test]
    fn drop_with_poisoned_worker_never_panics() {
        worker_panics();
        let dir = tmpdir("drop");
        let db = Db::open(&dir, DbConfig::default(), Arc::new(NoFilterFactory)).unwrap();
        db.put_u64(7, b"survives").unwrap();
        poison_worker(&db);
        // The final flush meets the poisoned lock; `Drop` swallows the
        // error instead of panicking, which would abort a caller that is
        // already unwinding.
        let dropped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || drop(db)));
        assert!(dropped.is_ok(), "Db::drop must complete with a poisoned worker lock");
        // The final WAL sync still ran: the acked write survives a reopen.
        let db = Db::open(&dir, DbConfig::default(), Arc::new(NoFilterFactory)).unwrap();
        assert_eq!(db.get_u64(7).unwrap().as_deref(), Some(&b"survives"[..]));
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn poisoned_worker_surfaces_typed_error_on_barriers() {
        worker_panics();
        let dir = tmpdir("typed");
        let db = Db::open(&dir, DbConfig::default(), Arc::new(NoFilterFactory)).unwrap();
        db.put_u64(1, b"v").unwrap();
        poison_worker(&db);
        assert!(matches!(db.flush(), Err(Error::Poisoned(_))));
        assert!(matches!(db.flush_and_settle(), Err(Error::Poisoned(_))));
        assert!(matches!(db.adapt_now(), Err(Error::Poisoned(_))));
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || drop(db)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn background_thread_exits_sticky_not_panicking_on_poisoned_worker() {
        let panics = worker_panics();
        let before = panics.load(Ordering::SeqCst);
        let dir = tmpdir("workers");
        // Periodic passes every 1 ms: the thread's timed park returns and
        // it takes a turn within the test's lifetime.
        let db = store_after_background_error(&dir);
        assert!(db.inner.error.get().is_some(), "the thread recorded the sticky error");
        let dropped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || drop(db)));
        assert!(dropped.is_ok());
        let after = panics.load(Ordering::SeqCst);
        assert_eq!(
            after - before,
            0,
            "the background thread must take the sticky-error path, not panic"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_rotating_write_returns_the_background_error() {
        worker_panics();
        let dir = tmpdir("rotating");
        let db = store_after_background_error(&dir);
        // With a 1-byte MemTable budget every write rotates.
        let err = db.put_u64(3, b"v").unwrap_err();
        assert!(err.to_string().contains("background work failed"), "{err}");
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || drop(db)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
