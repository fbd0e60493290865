//! Proteus inside an LSM-tree key-value store (§6): every SST file gets a
//! self-designed filter built from its keys and a queue of sampled queries;
//! empty Seeks skip their I/O. The API v2 surface — `get`, `delete`,
//! atomic `WriteBatch`es and ordered `range` scans — rides on the same
//! filter-accelerated read path.
//!
//! Run: `cargo run --release --example lsm_integration`

use proteus::lsm::{Db, DbConfig, ProteusFactory, WriteBatch};
use std::sync::Arc;

fn main() -> proteus::lsm::Result<()> {
    let dir = std::env::temp_dir().join(format!("proteus-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cfg = DbConfig::builder().memtable_bytes(512 << 10).bits_per_key(12.0).build()?;
    let db = Db::open(&dir, cfg, Arc::new(ProteusFactory::default()))?;

    // Load clustered keys (every 2^20) with 128-byte values.
    println!("loading 50k keys ...");
    for i in 0..50_000u64 {
        let mut value = vec![0u8; 128];
        value[64..72].copy_from_slice(&i.to_le_bytes());
        db.put_u64(i << 20, &value)?;
    }
    // Seed the sample queue with workload-like empty queries, then settle.
    db.seed_queries((0..5_000u64).map(|i| {
        let lo = ((i * 13) % 50_000) << 20 | 0x8000;
        (
            proteus::core::key::u64_key(lo).to_vec(),
            proteus::core::key::u64_key(lo + 0x4000).to_vec(),
        )
    }));
    db.flush_and_settle()?;
    println!(
        "levels: {:?}, filters: {:.1} bits/key",
        db.level_file_counts(),
        db.filter_bits() as f64 / db.sst_entries().max(1) as f64
    );

    // API v2: read values back, delete, write atomically, scan in order.
    let v = db.get_u64(41 << 20)?.expect("key 41 is loaded");
    assert_eq!(&v[64..72], &41u64.to_le_bytes());
    db.delete_u64(42 << 20)?; // tombstone: shadows the put everywhere
    assert_eq!(db.get_u64(42 << 20)?, None);
    let mut batch = WriteBatch::new(); // all-or-nothing multi-op write
    batch.put_u64(43 << 20, b"replaced-atomically").delete_u64(44 << 20);
    db.write(batch)?;
    let live: Vec<u64> = db
        .range_u64((40u64 << 20)..=(45u64 << 20))?
        .map(|e| e.map(|(k, _)| proteus::core::key::key_u64(&k) >> 20))
        .collect::<proteus::lsm::Result<_>>()?;
    assert_eq!(live, vec![40, 41, 43, 45], "deletes invisible, order preserved");
    println!("get/delete/batch/range OK: live keys 40..=45 = {live:?}");

    // Range Seeks: hits must be found, gap queries should be filtered.
    assert!(db.seek_u64(41 << 20, (41 << 20) + 10)?);
    let before = db.stats().snapshot();
    let mut reported = 0;
    for i in 0..20_000u64 {
        let lo = ((i * 7919) % 50_000) << 20 | 0x10000;
        if db.seek_u64(lo, lo + 0x1000)? {
            reported += 1;
        }
    }
    let delta = db.stats().snapshot().delta(&before);
    println!("20k empty Seeks: {reported} reported non-empty (ground truth: 0)");
    println!(
        "filter negatives: {}, false positives: {} (FPR {:.4}), blocks read: {}",
        delta.filter_negatives,
        delta.filter_false_positives,
        delta.filter_fpr(),
        delta.blocks_read
    );
    println!(
        "without filters every Seek would touch ≥1 block; with Proteus only\n\
         {} of 20000 did.",
        delta.blocks_read
    );

    // The store is Send + Sync with `&self` reads: fan the same workload
    // across reader threads and watch aggregate throughput scale. The
    // measurement loop above already ran this exact query pattern, so the
    // block cache is equally warm for both timed passes — the comparison
    // isolates threading, not caching.
    for threads in [1usize, 4] {
        let t0 = std::time::Instant::now();
        std::thread::scope(|s| {
            for t in 0..threads {
                let db = &db;
                s.spawn(move || {
                    for i in (t as u64..20_000).step_by(threads) {
                        let lo = ((i * 7919) % 50_000) << 20 | 0x10000;
                        let _ = db.seek_u64(lo, lo + 0x1000).unwrap();
                    }
                });
            }
        });
        println!(
            "{threads} reader thread(s): 20k Seeks in {:.0} ms",
            t0.elapsed().as_secs_f64() * 1e3
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
