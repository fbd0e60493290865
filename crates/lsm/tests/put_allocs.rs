//! Allocation guard for the write path end to end: `Db::put` and
//! `Db::delete` hand borrowed slices to the WAL, which encodes and
//! compresses each commit record into buffers it keeps, and to the arena
//! MemTable, which copies them into a few large chunks. A steady-state
//! write therefore costs (amortised) no heap allocation. An owned op
//! vector, a fresh record buffer or a per-record compression buffer
//! sneaking back in would fail no functional test; it shows up only as
//! allocator traffic under every write, so it is pinned here with a
//! counting allocator.
//!
//! This file is its own test binary on purpose: the `#[global_allocator]`
//! below must not be shared with any other suite, and it holds exactly one
//! test so no concurrently running test adds to the count. The count is
//! per thread, so the store's background thread is not charged to a write.

use proteus_lsm::{Db, DbConfig, NoFilterFactory, SyncMode, WriteBatch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// The system allocator plus a per-thread counter of `alloc` + `realloc`
/// calls (every request that may obtain new memory).
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Count one request on the calling thread. A thread being torn down no
/// longer has its counter; nothing counted runs there.
fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations the calling thread has made so far.
fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a thread-local
// add, which allocates nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Writes of each kind counted.
const WRITES: u64 = 10_000;
/// Writes before counting starts: the WAL's buffers and the MemTable's
/// first chunks grow here.
const WARM_UP: u64 = 1_000;
/// Absolute ceiling per write. The arena grows by chunk, so the expected
/// figure is a few hundredths; an owned copy of the key, the value or the
/// record would read ≥ 1.0.
const MAX_ALLOCS_PER_WRITE: f64 = 0.1;

/// Keys scattered over the whole u64 space, so inserts land all over the
/// skiplist rather than at its tail.
fn key(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Allocations per call of `write` over `n` calls, counted on this thread.
fn per_write(n: u64, mut write: impl FnMut(u64)) -> f64 {
    let before = thread_allocs();
    (0..n).for_each(&mut write);
    (thread_allocs() - before) as f64 / n as f64
}

#[test]
fn steady_state_writes_do_not_allocate() {
    let dir = std::env::temp_dir().join(format!("proteus-put-allocs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // A MemTable far larger than everything written: no rotation, so no
    // flush is charged to a write.
    let cfg =
        DbConfig::builder().memtable_bytes(64 << 20).sync_mode(SyncMode::Off).build().unwrap();
    let db = Db::open(&dir, cfg, Arc::new(NoFilterFactory)).unwrap();
    // The §6.2 value: half zeros, so every put's record is stored zero-RLE.
    let value: Vec<u8> = (0..128u8).map(|i| if i < 64 { 0 } else { i }).collect();
    for i in 0..WARM_UP {
        db.put_u64(key(i), &value).unwrap();
        db.delete_u64(key(i + 1)).unwrap();
    }

    let puts = per_write(WRITES, |i| db.put_u64(key(WARM_UP + i), &value).unwrap());
    let deletes = per_write(WRITES, |i| db.delete_u64(key(i)).unwrap());
    // Batches are built before counting: what `Db::write` allocates beyond
    // the caller's batch is counted, not the batch itself.
    let mut batches: Vec<WriteBatch> = (0..WRITES)
        .map(|i| {
            let mut b = WriteBatch::with_capacity(3);
            b.put_u64(key(2 * WRITES + i), &value).delete_u64(key(i)).put_u64(key(i), &value);
            b
        })
        .collect();
    batches.reverse();
    let writes = per_write(WRITES, |_| db.write(batches.pop().unwrap()).unwrap());

    let stats = db.stats().snapshot();
    assert_eq!(stats.memtable_rotations, 0, "a rotation would charge a flush to a write");
    assert_eq!(stats.wal_appends, 2 * WARM_UP + 3 * WRITES);
    for (what, per) in [("put", puts), ("delete", deletes), ("3-op WriteBatch", writes)] {
        assert!(
            per <= MAX_ALLOCS_PER_WRITE,
            "a steady-state {what} made {per:.4} allocations (ceiling {MAX_ALLOCS_PER_WRITE})"
        );
    }
    eprintln!("allocations per put {puts:.4}, delete {deletes:.4}, 3-op batch {writes:.4}");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
