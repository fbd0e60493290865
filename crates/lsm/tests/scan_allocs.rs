//! Allocation guard for the short scan: `range(lo..).take(50)` over
//! settled SSTs under a MemTable overlay, every block already cached. The
//! merge compares its sources where they stand and each MemTable source
//! copies its row into two buffers it keeps, so what a scan allocates is
//! the two owned halves of each row it yields plus a constant for the
//! scan itself (its bounds, the merge's two vectors, a MemTable cursor's
//! buffers and the caller's collect). A per-row block handle, heap item or
//! key copy sneaking back into the merge would fail no functional test; it
//! shows up only as allocator traffic under every row, so it is pinned
//! here with a counting allocator.
//!
//! This file is its own test binary on purpose: the `#[global_allocator]`
//! below must not be shared with any other suite, and it holds exactly one
//! test so no concurrently running test adds to the count. The count is
//! per thread, so the store's background thread is not charged to a scan.

use proteus_lsm::DbConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

mod common;
use common::{open_unfiltered, Rng};

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

/// Keys settled into SSTs.
const SETTLED: u64 = 20_000;
/// Keys left in the active MemTable on top of them.
const OVERLAY: u64 = 1_000;
const SCANS: usize = 2_000;
const ROWS: usize = 50;
/// What one scan may allocate beyond two copies per yielded row: its two
/// resolved bounds and their shared copy, the merge's source and heap
/// vectors (and their growth), the MemTable cursor's two row buffers (and
/// their growth to the longest key and value), and the collected vector's
/// growth to 50 rows.
const MAX_ALLOCS_PER_SCAN: u64 = 20;

/// A URL-shaped key: a shared scheme and host, then a path of varying
/// length, so rows differ in size as they do in a real key space.
fn url(i: u64) -> Vec<u8> {
    let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let depth = 1 + (h >> 60) as usize % 4;
    let mut key = b"https://example.org".to_vec();
    for d in 0..depth {
        key.extend_from_slice(format!("/{:x}", (h >> (d * 13)) & 0x1FFF).as_bytes());
    }
    key.extend_from_slice(format!("/{i}").as_bytes());
    key
}

#[test]
fn a_short_scan_allocates_two_copies_per_row_and_a_constant() {
    let dir = std::env::temp_dir().join(format!("proteus-scan-allocs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = DbConfig::builder().memtable_bytes(256 << 10).build().unwrap();
    let db = open_unfiltered(&dir, cfg).unwrap();
    for i in 0..SETTLED {
        db.put(&url(i), &[i as u8; 40]).unwrap();
    }
    db.flush_and_settle().unwrap();
    let rotations = db.stats().memtable_rotations.get();
    for i in SETTLED..SETTLED + OVERLAY {
        db.put(&url(i), &[i as u8; 40]).unwrap();
    }
    assert_eq!(db.stats().memtable_rotations.get(), rotations, "the overlay stays in memory");
    let counts = db.level_file_counts();
    assert!(counts.iter().sum::<usize>() >= 2, "{counts:?}");
    // One uncounted pass puts every block in the cache.
    let all = db.range::<&[u8], _>(..).unwrap().count() as u64;
    assert_eq!(all, SETTLED + OVERLAY);

    let mut rng = Rng(7);
    let starts: Vec<Vec<u8>> = (0..SCANS).map(|_| url(rng.next() % (SETTLED + OVERLAY))).collect();
    let before = db.stats().snapshot();
    let (mut rows, mut worst) = (0u64, 0u64);
    for lo in &starts {
        let allocs = thread_allocs();
        let scanned: Vec<_> = db.range(&lo[..]..).unwrap().take(ROWS).map(Result::unwrap).collect();
        let extra = (thread_allocs() - allocs).saturating_sub(2 * scanned.len() as u64);
        rows += scanned.len() as u64;
        worst = worst.max(extra);
    }
    let d = db.stats().snapshot().delta(&before);
    assert_eq!(d.blocks_read, 0, "every block comes from the cache");
    assert!(d.memtable_rows_read > 0, "the overlay takes part");
    assert!(rows > (SCANS * ROWS / 2) as u64, "{rows} rows");
    assert!(
        worst <= MAX_ALLOCS_PER_SCAN,
        "a scan made {worst} allocations beyond two per yielded row; \
         at most {MAX_ALLOCS_PER_SCAN} allowed"
    );
    eprintln!("allocations per scan beyond two per row: max {worst}");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
