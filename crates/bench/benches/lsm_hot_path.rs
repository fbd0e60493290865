//! Hot-path microbenchmarks for the LSM write/read paths and the succinct
//! rank/select primitives, with the *previous* implementations embedded as
//! baselines so a single run always reports before/after:
//!
//! - `memtable_put`: arena skiplist [`MemTable`] vs the old
//!   `BTreeMap<Vec<u8>, Option<Vec<u8>>>` representation (which allocated
//!   two `Vec`s per entry). A counting global allocator also reports
//!   allocations per op for both.
//! - `memtable_rotate`: flush-style full drain of a filled table.
//! - `block_scan`: borrowing entry access vs copying every entry to owned
//!   `Vec`s the way the merge cursors used to, over a block in the layout
//!   the store writes (`VarBlockBuilder` / `Block::decode_v3`).
//! - `rank_select`: the one-word rank fast path and broadword select vs
//!   the word-loop rank and bit-by-bit in-word select they replaced.
//!
//! Under `cargo bench` (which passes `--bench`) the measured results are
//! written to `BENCH_lsm.json` in the current directory; pass `--quick`
//! for the short CI smoke run. Under `cargo test` each routine runs once
//! as a smoke test and only the allocation-count regression is asserted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use criterion::{black_box, take_results, Criterion};
use proteus_lsm::block::{Block, VarBlockBuilder};
use proteus_lsm::memtable::MemTable;
use proteus_succinct::{BitVec, RankedBits, SelectIndex};

/// Allocation-counting wrapper around the system allocator. Counting is a
/// single relaxed atomic add, paid equally by every variant under test.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const KEY_W: usize = 16;
const VALUE_LEN: usize = 64;
/// Entries per `memtable_put` / `memtable_rotate` iteration.
const N_MEM: usize = 10_000;
/// Entries in the scanned block.
const N_BLOCK: usize = 400;
/// Queries per `rank_select` iteration.
const N_QUERIES: usize = 4096;
/// Bits in the rank/select vector — sized like the per-trie LOUDS
/// vectors this crate actually builds (tens of KB), so the benchmark
/// measures the query arithmetic rather than DRAM latency.
const N_BITS: usize = 1 << 17;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn random_keys(n: usize, seed: u64) -> Vec<[u8; KEY_W]> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            let mut k = [0u8; KEY_W];
            k[..8].copy_from_slice(&xorshift(&mut s).to_be_bytes());
            k[8..].copy_from_slice(&xorshift(&mut s).to_be_bytes());
            k
        })
        .collect()
}

fn patterned_value() -> Vec<u8> {
    (0..VALUE_LEN).map(|i| (i as u8).wrapping_mul(37).wrapping_add(11)).collect()
}

// ---------------------------------------------------------------- memtable

fn bench_memtable(c: &mut Criterion) {
    let keys = random_keys(N_MEM, 0x5EED);
    let value = patterned_value();

    let mut group = c.benchmark_group("memtable_put");
    group.bench_function("arena", |b| {
        b.iter(|| {
            let mut mt = MemTable::new();
            for k in &keys {
                mt.apply_ref(k, Some(&value));
            }
            black_box(mt.len())
        })
    });
    group.bench_function("btreemap_baseline", |b| {
        b.iter(|| {
            let mut map: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
            for k in &keys {
                map.insert(k.to_vec(), Some(value.to_vec()));
            }
            black_box(map.len())
        })
    });
    group.finish();

    // Rotation drains the whole table into an SST; both variants iterate
    // borrowed entries, so this measures pure traversal of the structure.
    let mut mt = MemTable::new();
    let mut map: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
    for k in &keys {
        mt.apply_ref(k, Some(&value));
        map.insert(k.to_vec(), Some(value.to_vec()));
    }
    let mut group = c.benchmark_group("memtable_rotate");
    group.bench_function("arena_scan", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for (k, v) in mt.iter() {
                acc += k.len() + v.map_or(0, <[u8]>::len);
            }
            black_box(acc)
        })
    });
    group.bench_function("btreemap_baseline", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for (k, v) in &map {
                acc += k.len() + v.as_ref().map_or(0, Vec::len);
            }
            black_box(acc)
        })
    });
    group.finish();
}

/// Allocations per `memtable_put` op for the arena table and the old
/// `BTreeMap` representation, measured with the counting allocator.
fn memtable_allocs_per_op() -> (f64, f64) {
    let keys = random_keys(N_MEM, 0xA110C);
    let value = patterned_value();

    let before = ALLOCS.load(Ordering::Relaxed);
    let mut mt = MemTable::new();
    for k in &keys {
        mt.apply_ref(k, Some(&value));
    }
    let arena = (ALLOCS.load(Ordering::Relaxed) - before) as f64 / N_MEM as f64;
    black_box(mt.len());

    let before = ALLOCS.load(Ordering::Relaxed);
    let mut map: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
    for k in &keys {
        map.insert(k.to_vec(), Some(value.to_vec()));
    }
    let baseline = (ALLOCS.load(Ordering::Relaxed) - before) as f64 / N_MEM as f64;
    black_box(map.len());

    (arena, baseline)
}

// -------------------------------------------------------------- block scan

fn build_block() -> Block {
    let mut builder = VarBlockBuilder::new();
    let value = patterned_value();
    let mut s = 0xB10Cu64;
    for i in 0..N_BLOCK {
        let mut k = [0u8; KEY_W];
        k[..8].copy_from_slice(&(i as u64).to_be_bytes());
        k[8..].copy_from_slice(&xorshift(&mut s).to_be_bytes());
        // A few tombstones so the flag branch is exercised.
        let v = if i % 16 == 7 { None } else { Some(value.as_slice()) };
        builder.add(&k, v);
    }
    let (disk, _, _) = builder.finish();
    Block::decode_v3(&disk).expect("bench block decodes")
}

fn bench_block_scan(c: &mut Criterion) {
    let block = build_block();
    let mut group = c.benchmark_group("block_scan");
    group.bench_function("zero_copy", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for i in 0..block.len() {
                let (k, v) = block.entry(i);
                acc += k.len() + v.map_or(0, <[u8]>::len);
            }
            black_box(acc)
        })
    });
    // What the merge cursors used to do for every entry they touched,
    // yielded or not: materialize owned key and value vectors.
    group.bench_function("copying_baseline", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for i in 0..block.len() {
                let (k, v) = block.entry(i);
                let k = k.to_vec();
                let v = v.map(<[u8]>::to_vec);
                acc += k.len() + v.as_ref().map_or(0, Vec::len);
            }
            black_box(acc)
        })
    });
    group.finish();
}

// -------------------------------------------------------------- rank/select

/// The pre-fast-path rank/select algorithms over the same directory
/// layouts: rank always walks the block's words, select walks the
/// cumulative directory linearly from the sample and scans the final word
/// bit by bit.
struct BaselineRankSelect {
    words: Vec<u64>,
    /// Cumulative ones per 512-bit block (sentinel included).
    blocks: Vec<u64>,
    /// Block index of every 512th one.
    samples: Vec<u32>,
}

impl BaselineRankSelect {
    fn new(rb: &RankedBits) -> Self {
        let words = rb.bits().words().to_vec();
        let nblocks = rb.len().div_ceil(512);
        let mut blocks = Vec::with_capacity(nblocks + 1);
        let mut acc = 0u64;
        for b in 0..=nblocks {
            blocks.push(acc);
            if b == nblocks {
                break;
            }
            let end = ((b + 1) * 8).min(words.len());
            acc += words[b * 8..end].iter().map(|w| w.count_ones() as u64).sum::<u64>();
        }
        let ones = acc as usize;
        let mut samples = Vec::new();
        let mut block = 0usize;
        for j in 0..ones.div_ceil(512) {
            let target = (j * 512) as u64;
            while block + 1 < blocks.len() && blocks[block + 1] <= target {
                block += 1;
            }
            samples.push(block as u32);
        }
        BaselineRankSelect { words, blocks, samples }
    }

    fn rank1(&self, i: usize) -> usize {
        let block = i / 512;
        let mut r = self.blocks[block] as usize;
        for word in &self.words[block * 8..i / 64] {
            r += word.count_ones() as usize;
        }
        if !i.is_multiple_of(64) && i / 64 < self.words.len() {
            r += (self.words[i / 64] & ((1u64 << (i % 64)) - 1)).count_ones() as usize;
        }
        r
    }

    fn select1(&self, k: usize) -> usize {
        let mut block = self.samples[k / 512] as usize;
        while block + 1 < self.blocks.len() && self.blocks[block + 1] as usize <= k {
            block += 1;
        }
        let mut remaining = k - self.blocks[block] as usize;
        for (w, &word) in self.words.iter().enumerate().skip(block * 8) {
            let ones = word.count_ones() as usize;
            if remaining < ones {
                let mut wrd = word;
                for _ in 0..remaining {
                    wrd &= wrd - 1;
                }
                return w * 64 + wrd.trailing_zeros() as usize;
            }
            remaining -= ones;
        }
        unreachable!("baseline select out of range");
    }
}

fn bench_rank_select(c: &mut Criterion) {
    // Roughly half the bits set, like the dense LOUDS vectors.
    let mut s = 0xB17_5E7u64;
    let mut bv = BitVec::with_capacity(N_BITS);
    for i in 0..N_BITS {
        if i.is_multiple_of(64) {
            xorshift(&mut s);
        }
        bv.push((s >> (i % 64)) & 1 == 1);
    }
    let rb = RankedBits::new(bv);
    let si = SelectIndex::new(&rb);
    let base = BaselineRankSelect::new(&rb);
    let ones = rb.count_ones();

    let mut q = 0xDECAFu64;
    // Two rank distributions: LOUDS navigation ranks positions that
    // cluster in the first word after a directory boundary (the one-word
    // fast path's target), while uniform positions exercise the word
    // loop on average half a block deep.
    let rank_clustered: Vec<usize> = (0..N_QUERIES)
        .map(|_| {
            let r = xorshift(&mut q) as usize;
            (r % (rb.len() / 512)) * 512 + r % 64
        })
        .collect();
    let rank_uniform: Vec<usize> =
        (0..N_QUERIES).map(|_| xorshift(&mut q) as usize % (rb.len() + 1)).collect();
    let select_queries: Vec<usize> =
        (0..N_QUERIES).map(|_| xorshift(&mut q) as usize % ones).collect();

    let mut group = c.benchmark_group("rank_select");
    group.bench_function("rank1_clustered", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for &i in &rank_clustered {
                acc = acc.wrapping_add(rb.rank1(i));
            }
            black_box(acc)
        })
    });
    group.bench_function("rank1_clustered_baseline", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for &i in &rank_clustered {
                acc = acc.wrapping_add(base.rank1(i));
            }
            black_box(acc)
        })
    });
    group.bench_function("rank1_uniform", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for &i in &rank_uniform {
                acc = acc.wrapping_add(rb.rank1(i));
            }
            black_box(acc)
        })
    });
    group.bench_function("rank1_uniform_baseline", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for &i in &rank_uniform {
                acc = acc.wrapping_add(base.rank1(i));
            }
            black_box(acc)
        })
    });
    group.bench_function("select1", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for &k in &select_queries {
                acc = acc.wrapping_add(si.select1(&rb, k));
            }
            black_box(acc)
        })
    });
    group.bench_function("select1_baseline", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for &k in &select_queries {
                acc = acc.wrapping_add(base.select1(k));
            }
            black_box(acc)
        })
    });
    group.finish();

    // The baselines must agree with the shipped implementations; a bench
    // that measures a wrong baseline proves nothing.
    for &i in rank_clustered.iter().chain(&rank_uniform) {
        assert_eq!(rb.rank1(i), base.rank1(i), "rank baseline diverges at {i}");
    }
    for &k in &select_queries {
        assert_eq!(si.select1(&rb, k), base.select1(k), "select baseline diverges at {k}");
    }
}

// ------------------------------------------------------------------- main

/// Iterations of the measured routine per `Bencher::iter` call, used to
/// report per-op rather than per-batch times.
fn ops_per_iter(name: &str) -> usize {
    match name.split('/').next().unwrap_or("") {
        "memtable_put" | "memtable_rotate" => N_MEM,
        "block_scan" => N_BLOCK,
        "rank_select" => N_QUERIES,
        _ => 1,
    }
}

fn main() {
    let measuring = std::env::args().any(|a| a == "--bench");
    let quick = std::env::args().any(|a| a == "--quick");
    let (warm_up, measure) = if quick {
        (Duration::from_millis(50), Duration::from_millis(150))
    } else {
        (Duration::from_millis(500), Duration::from_millis(2500))
    };
    let mut c =
        Criterion::default().sample_size(10).warm_up_time(warm_up).measurement_time(measure);

    bench_memtable(&mut c);
    bench_block_scan(&mut c);
    bench_rank_select(&mut c);
    let (arena_allocs, btree_allocs) = memtable_allocs_per_op();
    println!(
        "memtable_put allocations/op: arena {arena_allocs:.4}, btreemap baseline {btree_allocs:.4}"
    );

    let results = take_results();
    let expected = [
        "memtable_put/arena",
        "memtable_put/btreemap_baseline",
        "memtable_rotate/arena_scan",
        "memtable_rotate/btreemap_baseline",
        "block_scan/zero_copy",
        "block_scan/copying_baseline",
        "rank_select/rank1_clustered",
        "rank_select/rank1_clustered_baseline",
        "rank_select/rank1_uniform",
        "rank_select/rank1_uniform_baseline",
        "rank_select/select1",
        "rank_select/select1_baseline",
    ];
    assert_eq!(results.len(), expected.len(), "unexpected result count");
    for (r, want) in results.iter().zip(expected) {
        assert_eq!(r.name, want, "bench names drifted from the JSON contract");
        if measuring {
            assert!(
                r.measured && r.mean_ns > 0.0 && r.iters > 0,
                "insane result for {want}: {r:?}"
            );
        }
    }
    // The headline claim of the arena memtable — fewer allocations per put
    // — is cheap and deterministic enough to gate even the smoke run on.
    assert!(
        arena_allocs < btree_allocs,
        "arena memtable must allocate less per put than the BTreeMap baseline \
         (arena {arena_allocs:.4} vs baseline {btree_allocs:.4})"
    );

    if measuring {
        let rows: Vec<String> = results
            .iter()
            .map(|r| {
                let per_op = r.mean_ns / ops_per_iter(&r.name) as f64;
                format!(
                    "    {{\"name\": \"{}\", \"ns_per_op\": {per_op:.2}, \"iters\": {}}}",
                    r.name, r.iters
                )
            })
            .collect();
        let json = format!(
            "{{\n  \"bench\": \"lsm_hot_path\",\n  \"mode\": \"{}\",\n  \
             \"memtable_put_allocs_per_op\": {{\"arena\": {arena_allocs:.4}, \
             \"btreemap_baseline\": {btree_allocs:.4}}},\n  \"rows\": [\n{}\n  ]\n}}\n",
            if quick { "quick" } else { "full" },
            rows.join(",\n")
        );
        // Cargo runs bench binaries from the package root; emit at the
        // workspace root next to the other BENCH_*.json trajectories.
        let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_lsm.json");
        std::fs::write(out, &json).expect("write BENCH_lsm.json");
        println!("wrote {out}");
    }
}
