//! Allocation guard for the MemTable's own paths: the arena MemTable
//! copies keys and values out of borrowed slices into a few large chunks,
//! so a put costs (amortised) no heap allocation, and a search — a `get`,
//! or a `cursor` walked with `advance` — reads records and arena bytes in
//! place and allocates nothing at all. A per-entry `Vec` or node
//! allocation, or a search that copies a key, would not fail any
//! functional test — it shows up only as allocator traffic under every
//! write or read — so it is pinned here with a counting allocator.
//!
//! This file is its own test binary on purpose: the `#[global_allocator]`
//! below must not be shared with any other suite. The count is per
//! thread, so no concurrently running test adds to another's.

use proteus_lsm::memtable::MemTable;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

const PUTS: usize = 10_000;
const KEY_LEN: usize = 16;
const VALUE_LEN: usize = 64;
/// Absolute ceiling. The arena grows by chunk, so the expected figure is a
/// few dozen allocations per 10 000 puts (0.0055 per put when this guard
/// was written); one allocation per entry would read ≥ 1.0.
const MAX_ALLOCS_PER_PUT: f64 = 0.01;

/// `PUTS` distinct keys in scattered order (an odd multiplier permutes
/// u64), so inserts land all over the skiplist rather than at its tail.
/// Each key's first 8 bytes are unique, and key `i`'s last 8 are `i`.
fn keys() -> Vec<[u8; KEY_LEN]> {
    (0..PUTS as u64).map(|i| key(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i)).collect()
}

fn key(head: u64, tail: u64) -> [u8; KEY_LEN] {
    let mut k = [0u8; KEY_LEN];
    k[..8].copy_from_slice(&head.to_be_bytes());
    k[8..].copy_from_slice(&tail.to_be_bytes());
    k
}

fn head(k: &[u8; KEY_LEN]) -> u64 {
    u64::from_be_bytes(k[..8].try_into().unwrap())
}

/// A table holding every key of `keys`.
fn table(keys: &[[u8; KEY_LEN]]) -> MemTable {
    let mut table = MemTable::new();
    for k in keys {
        table.apply_ref(k, Some(&[0xAB_u8; VALUE_LEN]));
    }
    table
}

#[test]
fn arena_memtable_put_does_not_allocate_per_entry() {
    // Inputs are built before counting starts.
    let keys = keys();
    let value = [0xAB_u8; VALUE_LEN];

    let before = thread_allocs();
    let mut table = MemTable::new();
    for k in &keys {
        table.apply_ref(k, Some(&value));
    }
    let allocs = thread_allocs() - before;

    assert_eq!(table.len(), PUTS);
    let per_put = allocs as f64 / PUTS as f64;
    assert!(
        per_put <= MAX_ALLOCS_PER_PUT,
        "MemTable::apply_ref made {allocs} allocations for {PUTS} puts \
         ({per_put:.4} per put, ceiling {MAX_ALLOCS_PER_PUT})"
    );
}

#[test]
fn a_get_allocates_nothing_hit_or_miss() {
    let keys = keys();
    let table = table(&keys);
    // Misses of both kinds: a key whose head no entry has, and one that
    // ties on an entry's head and differs past it, so the search reads
    // the arena.
    let misses: Vec<[u8; KEY_LEN]> =
        keys.iter().flat_map(|k| [key(!head(k), 0), key(head(k), !0)]).collect();

    let before = thread_allocs();
    let hits = keys.iter().filter(|k| table.get(&k[..]).is_some()).count();
    let found = misses.iter().filter(|k| table.get(&k[..]).is_some()).count();
    let allocs = thread_allocs() - before;

    assert_eq!((hits, found), (PUTS, 0));
    assert_eq!(allocs, 0, "{} gets made {allocs} allocations", 3 * PUTS);
}

#[test]
fn a_cursor_walk_allocates_nothing_per_row() {
    let keys = keys();
    let table = table(&keys);
    let hi = [0x80u8; KEY_LEN];

    let before = thread_allocs();
    // The whole table, then a hundred bounded walks from scattered starts.
    let mut cur = table.cursor(&[], table.stamp());
    let mut rows = std::iter::from_fn(|| table.advance(&mut cur, None)).count();
    for lo in &keys[..100] {
        let mut cur = table.cursor(lo, table.stamp());
        rows += std::iter::from_fn(|| table.advance(&mut cur, Some(&hi[..]))).count();
    }
    let allocs = thread_allocs() - before;

    assert!(rows > PUTS, "walked {rows} rows");
    assert_eq!(allocs, 0, "{rows} rows through cursor + advance made {allocs} allocations");
}
