//! Allocation guard for the Seek: a Seek every candidate file's filter
//! rejects reads no block, builds no cursor and — on keys already as wide
//! as the filter's training width, which is every `u64` workload — pads
//! nothing, so it has no reason to touch the heap. A copied bound or a
//! padded probe key sneaking back in would fail no functional test; it
//! shows up only as allocator traffic under every Seek, so it is pinned
//! here with a counting allocator.
//!
//! The false-positive Seek — one file's filter lets it through and its
//! block comes from disk — is pinned the same way, on the same store
//! reopened with a cold cache: one shared copy of the bounds, the merge's
//! two vectors and the block's stored bytes, which the cache keeps. The
//! block is decoded into a buffer the thread's earlier reads grew, so
//! nothing is allocated per admitted file, per decode or per key.
//!
//! This file is its own test binary on purpose: the `#[global_allocator]`
//! below must not be shared with any other suite, and it holds exactly one
//! test so no concurrently running test adds to the count. The count is
//! per thread: the store's background thread may flush, compact or retrain
//! while a Seek runs, and what it allocates is not the Seek's.

use proteus_core::key::u64_key;
use proteus_lsm::{Db, DbConfig, ProteusFactory};
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

const KEYS: u64 = 40_000;
const SEEKS: usize = 10_000;
/// False-positive Seeks counted on the reopened store.
const FALSE_POSITIVES: usize = 500;
/// The most allocations one false-positive Seek that reads its block from
/// disk may make: the four it makes every time (the shared bounds, the
/// merge's heap and sources, and the block's stored bytes, read into the
/// `Arc` the cache keeps), plus one growth each of the cache's map and
/// slot array. Most such Seeks make exactly four.
const MAX_FALSE_POSITIVE_ALLOCS: u64 = 6;

/// Keys scattered over the whole u64 space, none with any of its low 16 bits
/// set.
fn key(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & !0xFFFF
}

/// A short range just above a stored key: no coarse stage can tell such a
/// query from its key.
fn near_a_key(i: u64, salt: u64) -> (u64, u64) {
    let lo = key(i % KEYS) + 1 + (i ^ salt).wrapping_mul(0xD6E8_FEB8_6659_FD93) % 0x7FFF;
    (lo, lo + i % 32)
}

/// The paper's Split workload: every other query a long range anywhere in
/// the key space, 2^36 to 2^37 keys wide where neighbouring keys are 2^49
/// apart — the half only a coarse stage can answer.
fn split(i: u64, salt: u64) -> (u64, u64) {
    if i % 2 == 1 {
        return near_a_key(i, salt);
    }
    let lo = (i ^ salt).wrapping_mul(0xD6E8_FEB8_6659_FD93) >> 1;
    (lo, lo + (1 << 36) + lo % (1 << 36))
}

/// Load a store trained on `query`, find [`SEEKS`] Seeks every file's filter
/// rejects, and count what running them again allocates; then reopen the
/// store and count what each of [`FALSE_POSITIVES`] Seeks one filter lets
/// through allocates. Returns the designs of the live files those Seeks
/// probed (each filter's `name()`).
fn seeks_allocate_only_what_they_keep(tag: &str, query: fn(u64, u64) -> (u64, u64)) -> Vec<String> {
    let dir =
        std::env::temp_dir().join(format!("proteus-seek-allocs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = DbConfig::builder().memtable_bytes(256 << 10).build().unwrap();
    let db = Db::open(&dir, cfg.clone(), Arc::new(ProteusFactory::default())).unwrap();
    let mut sorted: Vec<u64> = (0..KEYS).map(key).collect();
    sorted.sort_unstable();
    let empty = |&(lo, hi): &(u64, u64)| {
        sorted.get(sorted.partition_point(|&k| k < lo)).is_none_or(|&next| next > hi)
    };
    db.seed_queries(
        (0..5_000)
            .map(|i| query(i * 7, 1))
            .filter(empty)
            .map(|(lo, hi)| (u64_key(lo).to_vec(), u64_key(hi).to_vec())),
    );
    for i in 0..KEYS {
        db.put_u64(key(i), &[i as u8; 64]).unwrap();
    }
    db.flush_and_settle().unwrap();
    assert!(db.level_file_counts().iter().filter(|&&n| n > 0).count() >= 2);

    // A first pass, uncounted, picks the Seeks no file's filter lets through.
    let mut negative: Vec<([u8; 8], [u8; 8])> = Vec::with_capacity(SEEKS);
    for i in 0.. {
        if negative.len() == SEEKS {
            break;
        }
        let Some((lo, hi)) = Some(query(i, 2)).filter(empty) else { continue };
        let (lo, hi) = (u64_key(lo), u64_key(hi));
        let before = db.stats().snapshot().seeks_filtered;
        assert!(!db.seek(&lo, &hi).unwrap(), "the range holds no key");
        if db.stats().snapshot().seeks_filtered > before {
            negative.push((lo, hi));
        }
    }

    let stats = db.stats().snapshot();
    let before = thread_allocs();
    for (lo, hi) in &negative {
        assert!(!db.seek(lo, hi).unwrap());
    }
    let allocs = thread_allocs() - before;
    let after = db.stats().snapshot();

    assert_eq!(after.seeks_filtered - stats.seeks_filtered, SEEKS as u64, "all filter-negative");
    assert_eq!(after.blocks_read, stats.blocks_read);
    // The queue keeps every `sample_every`-th executed-empty query: two
    // owned bounds each, and nothing else may allocate.
    let every = db.config().sample_every();
    let recorded = after.sample_offers / every - stats.sample_offers / every;
    assert!(recorded > 0);
    assert!(
        allocs <= 4 * recorded,
        "{tag}: {SEEKS} filter-negative Seeks made {allocs} allocations; \
         the {recorded} queries the sample queue recorded account for {}",
        2 * recorded
    );
    let live = db.describe().into_iter().flatten();
    let designs = live.map(|sst| sst.filter.expect("every file has a filter")).collect();
    drop(db);

    // Reopened, the block cache is cold: a Seek one filter lets through
    // pays a block read from disk. Only Seeks that did exactly that — one
    // false positive, one block read, no cache hit — and whose offer the
    // sample queue did not record are counted.
    let db = Db::open(&dir, cfg, Arc::new(ProteusFactory::default())).unwrap();
    let every = db.config().sample_every();
    let (mut counted, mut total, mut worst) = (0usize, 0u64, 0u64);
    for i in 0.. {
        if counted == FALSE_POSITIVES {
            break;
        }
        let Some((lo, hi)) = Some(query(i, 3)).filter(empty) else { continue };
        let (lo, hi) = (u64_key(lo), u64_key(hi));
        let before = db.stats().snapshot();
        let allocs_before = thread_allocs();
        assert!(!db.seek(&lo, &hi).unwrap(), "the range holds no key");
        let allocs = thread_allocs() - allocs_before;
        let d = db.stats().snapshot().delta(&before);
        if d.filter_false_positives == 1
            && d.blocks_read == 1
            && d.cache_hits == 0
            && !(before.sample_offers + 1).is_multiple_of(every)
        {
            counted += 1;
            total += allocs;
            worst = worst.max(allocs);
        }
    }
    assert!(
        worst <= MAX_FALSE_POSITIVE_ALLOCS,
        "{tag}: a false-positive Seek that read its block from disk made {worst} allocations \
         (mean {:.2} over {FALSE_POSITIVES}); at most {MAX_FALSE_POSITIVE_ALLOCS} allowed",
        total as f64 / FALSE_POSITIVES as f64
    );
    eprintln!(
        "{tag}: false-positive Seek allocations: mean {:.2}, max {worst}",
        total as f64 / FALSE_POSITIVES as f64
    );
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    designs
}

#[test]
fn filter_negative_seek_allocates_only_what_the_queue_records() {
    // A design names its coarse stage's encoding: `Proteus(l1=19 span,
    // l2=57)`, `l1=16 fst`, or plain `l1=0`.
    let spans = |designs: &[String]| {
        // An FST stage still owns two scratch vectors per probe; neither
        // workload gives it a file to win.
        assert!(!designs.iter().any(|d| d.contains(" fst,")), "{designs:?}");
        designs.iter().filter(|d| d.contains(" span,")).count()
    };
    // Every query a short range just above a stored key, as is the seeded
    // sample: files design themselves a Bloom filter alone (but for the odd
    // small one that trains on the whole queue).
    let designs = seeks_allocate_only_what_they_keep("bloom", near_a_key);
    assert!(spans(&designs) * 10 < designs.len(), "{designs:?}");
    // Half the queries long ranges: the files compaction writes, an eighth
    // of the key space each, put a span bitmap in front of the Bloom filter
    // (a flushed file, spread over all of it, cannot afford one), and a Seek
    // through it — its leaf cursor on the stack — allocates no more than one
    // without.
    let designs = seeks_allocate_only_what_they_keep("span", split);
    assert!(spans(&designs) * 3 > designs.len(), "{designs:?}");
}
