//! End-to-end integration: the LSM store with each filter factory serves
//! correct answers, and the trained filters genuinely cut I/O for empty
//! range Seeks (the §6 claim at test scale).

use proteus::core::key::u64_key;
use proteus::lsm::{Db, DbConfig, FilterFactory, NoFilterFactory, ProteusFactory, WriteBatch};
use proteus::workloads::{Dataset, QueryGen, Workload};
use std::collections::BTreeSet;
use std::sync::Arc;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("proteus-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn small_cfg(bpk: f64) -> DbConfig {
    DbConfig::builder().memtable_bytes(128 << 10).bits_per_key(bpk).sample_every(1).build().unwrap()
}

struct SurfFactoryLocal;
impl FilterFactory for SurfFactoryLocal {
    fn build(
        &self,
        keys: &proteus::core::KeySet,
        _samples: &proteus::core::SampleQueries,
        _m_bits: u64,
    ) -> Box<dyn proteus::core::RangeFilter> {
        Box::new(proteus::filters::Surf::build(keys, proteus::filters::SurfSuffix::Real(4)))
    }
    fn name(&self) -> String {
        "surf".into()
    }
}

struct RosettaFactoryLocal;
impl FilterFactory for RosettaFactoryLocal {
    fn build(
        &self,
        keys: &proteus::core::KeySet,
        samples: &proteus::core::SampleQueries,
        m_bits: u64,
    ) -> Box<dyn proteus::core::RangeFilter> {
        Box::new(proteus::filters::Rosetta::train(
            keys,
            samples,
            m_bits,
            &proteus::filters::RosettaOptions::default(),
        ))
    }
    fn name(&self) -> String {
        "rosetta".into()
    }
}

fn run_correctness(factory: Arc<dyn FilterFactory>, tag: &str) {
    let dir = tmpdir(tag);
    let raw = Dataset::Uniform.generate(15_000, 11);
    let db = Db::open(&dir, small_cfg(12.0), factory).unwrap();
    let mut mirror = BTreeSet::new();
    for (i, &k) in raw.iter().enumerate() {
        let mut v = vec![0u8; 96];
        v[48..56].copy_from_slice(&(i as u64).to_le_bytes());
        db.put_u64(k, &v).unwrap();
        mirror.insert(k);
    }
    db.flush_and_settle().unwrap();

    // Mixed workload: some overlapping, some empty; answers must match the
    // ground-truth mirror exactly on non-empty, and never report false
    // negatives.
    let mut gen = QueryGen::new(Workload::Uniform { rmax: 1 << 30 }, &raw, &[], 3);
    for _ in 0..2_000 {
        let (lo, hi) = gen.next_range();
        let truth = mirror.range(lo..=hi).next().is_some();
        let got = db.seek_u64(lo, hi).unwrap();
        assert!(got || !truth, "{tag}: false negative [{lo},{hi}]");
        if truth {
            assert!(got, "{tag}: missed non-empty range");
        }
    }
    // Point queries for every 50th key.
    for &k in raw.iter().step_by(50) {
        assert!(db.seek(&u64_key(k), &u64_key(k)).unwrap(), "{tag}: lost key {k}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lsm_correct_with_proteus_filters() {
    run_correctness(Arc::new(ProteusFactory::default()), "proteus");
}

#[test]
fn lsm_correct_with_surf_filters() {
    run_correctness(Arc::new(SurfFactoryLocal), "surf");
}

#[test]
fn lsm_correct_with_rosetta_filters() {
    run_correctness(Arc::new(RosettaFactoryLocal), "rosetta");
}

#[test]
fn lsm_correct_without_filters() {
    run_correctness(Arc::new(NoFilterFactory), "nofilter");
}

#[test]
fn reopened_db_serves_from_persisted_filters_without_retraining() {
    let dir = tmpdir("reopen-e2e");
    let raw = Dataset::Uniform.generate(20_000, 41);
    let mut mirror = BTreeSet::new();
    let cfg = small_cfg(12.0);

    // Phase 1: build a multi-level database with trained Proteus filters,
    // then drop it (simulating process exit).
    let (filter_bits, sst_count, level_counts) = {
        let db = Db::open(&dir, cfg.clone(), Arc::new(ProteusFactory::default())).unwrap();
        let seed: Vec<(Vec<u8>, Vec<u8>)> = (0..2_000u64)
            .map(|i| {
                let lo = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (u64_key(lo).to_vec(), u64_key(lo.saturating_add(1 << 10)).to_vec())
            })
            .collect();
        db.seed_queries(seed);
        for (i, &k) in raw.iter().enumerate() {
            let mut v = vec![0u8; 96];
            v[..8].copy_from_slice(&(i as u64).to_le_bytes());
            db.put_u64(k, &v).unwrap();
            mirror.insert(k);
        }
        db.flush_and_settle().unwrap();
        assert!(db.sst_count() > 1, "want a multi-file database");
        (db.filter_bits(), db.sst_count(), db.level_file_counts())
    };

    // Phase 2: reopen the directory cold and verify recovery.
    let db = Db::open(&dir, cfg, Arc::new(ProteusFactory::default())).unwrap();
    assert_eq!(db.level_file_counts(), level_counts, "level manifest");
    assert_eq!(db.stats().ssts_recovered.get(), sst_count as u64);
    // Filters were reloaded from their SST filter blocks by the open
    // itself, not retrained: the memory footprint is bit-identical and no
    // build ever ran.
    assert_eq!(db.stats().filters_loaded.get(), sst_count as u64);
    assert_eq!(db.stats().filters_degraded.get(), 0);
    assert!(db.stats().filter_load_ns.get() > 0);
    assert_eq!(db.filter_bits(), filter_bits, "filter_bits must survive reopen");

    // No false negatives: every key findable as point and range.
    for &k in raw.iter().step_by(37) {
        assert!(db.seek_u64(k, k).unwrap(), "lost key {k:#x} across reopen");
        assert!(db.seek_u64(k.saturating_sub(9), k.saturating_add(9)).unwrap());
    }
    // Mixed workload answers still match ground truth.
    let mut gen = QueryGen::new(Workload::Uniform { rmax: 1 << 28 }, &raw, &[], 77);
    for _ in 0..1_000 {
        let (lo, hi) = gen.next_range();
        let truth = mirror.range(lo..=hi).next().is_some();
        let got = db.seek_u64(lo, hi).unwrap();
        assert!(got || !truth, "false negative [{lo:#x},{hi:#x}] after reopen");
    }

    // Nothing the reads above did trained or loaded a filter.
    assert_eq!(db.stats().filters_built.get(), 0, "no filter retraining on reopen");
    assert_eq!(db.stats().filters_loaded.get(), sst_count as u64);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deletes_survive_compaction_and_reopen_without_resurrection() {
    // The v2 tombstone lifecycle end to end: delete a third of a settled
    // multi-level store (singles + atomic batches), verify exact `get`
    // answers and ordered `range` scans against a mirror, then reopen
    // cold and verify nothing resurrected and nothing live was lost.
    let dir = tmpdir("delete-e2e");
    let raw = Dataset::Uniform.generate(20_000, 73);
    let cfg = small_cfg(12.0);
    let mut mirror: BTreeSet<u64> = BTreeSet::new();

    let db = Db::open(&dir, cfg.clone(), Arc::new(ProteusFactory::default())).unwrap();
    for &k in &raw {
        db.put_u64(k, &k.to_le_bytes()).unwrap();
        mirror.insert(k);
    }
    db.flush_and_settle().unwrap();

    // Delete every third key: half through single deletes, half through
    // WriteBatches (each batch also re-puts one key, exercising in-batch
    // ordering).
    let mut batch = WriteBatch::new();
    for (n, &k) in raw.iter().step_by(3).enumerate() {
        if n % 2 == 0 {
            db.delete_u64(k).unwrap();
        } else {
            batch.delete_u64(k);
            if batch.len() == 64 {
                db.write(std::mem::take(&mut batch)).unwrap();
            }
        }
        mirror.remove(&k);
    }
    db.write(batch).unwrap();
    db.flush_and_settle().unwrap();
    assert!(db.stats().deletes.get() > 0);
    assert!(
        db.stats().tombstones_dropped.get() > 0,
        "bottom-level compaction should drop tombstones"
    );

    let verify = |db: &Db, tag: &str| {
        for (n, &k) in raw.iter().enumerate() {
            if n % 50 != 0 {
                continue;
            }
            let want = mirror.contains(&k).then(|| k.to_le_bytes().to_vec());
            assert_eq!(db.get_u64(k).unwrap(), want, "{tag}: get({k:#x})");
        }
        // Ordered scans across a few windows match the mirror exactly.
        let mut sorted: Vec<u64> = mirror.iter().copied().collect();
        sorted.sort_unstable();
        for w in sorted.chunks(997).take(5) {
            let (lo, hi) = (w[0], *w.last().unwrap());
            let got: Vec<u64> = db
                .range_u64(lo..=hi)
                .unwrap()
                .map(|e| e.map(|(k, _)| proteus::core::key::key_u64(&k)))
                .collect::<proteus::lsm::Result<_>>()
                .unwrap();
            assert_eq!(got, w.to_vec(), "{tag}: scan [{lo:#x},{hi:#x}]");
        }
    };
    verify(&db, "settled");

    // A cold reopen recovers tombstones like any other entry: no
    // resurrection, no loss, filters loaded not retrained.
    drop(db);
    let db = Db::open(&dir, cfg, Arc::new(ProteusFactory::default())).unwrap();
    assert_eq!(db.stats().filters_built.get(), 0, "reopen must not retrain");
    verify(&db, "reopened");
    // Deleted keys stay dead even as seeks (point emptiness).
    for &k in raw.iter().step_by(3).step_by(17) {
        assert!(!db.seek_u64(k, k).unwrap(), "deleted {k:#x} resurrected as seek");
        assert_eq!(db.get_u64(k).unwrap(), None, "deleted {k:#x} resurrected as get");
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn proteus_filters_reduce_io_versus_no_filter() {
    // Clustered keys, correlated empty queries: a trained filter should
    // eliminate nearly all block reads that the no-filter baseline pays.
    let raw: Vec<u64> = (0..20_000u64).map(|i| i << 20).collect();
    let queries: Vec<(u64, u64)> = (0..4_000u64)
        .map(|i| {
            let lo = ((i * 13) % 20_000) << 20 | 0x10000;
            (lo, lo + 0x8000)
        })
        .collect();
    let seed: Vec<(Vec<u8>, Vec<u8>)> = queries
        .iter()
        .take(2_000)
        .map(|&(lo, hi)| (u64_key(lo).to_vec(), u64_key(hi).to_vec()))
        .collect();

    let run = |factory: Arc<dyn FilterFactory>, tag: &str| -> (u64, u64) {
        let dir = tmpdir(tag);
        let db = Db::open(&dir, small_cfg(14.0), factory).unwrap();
        db.seed_queries(seed.clone());
        for &k in &raw {
            db.put_u64(k, &[7u8; 64]).unwrap();
        }
        db.flush_and_settle().unwrap();
        let before = db.stats().snapshot();
        for &(lo, hi) in &queries {
            assert!(!db.seek_u64(lo, hi).unwrap(), "query must be empty");
        }
        let delta = db.stats().snapshot().delta(&before);
        let _ = std::fs::remove_dir_all(&dir);
        (delta.blocks_read + delta.cache_hits, delta.filter_negatives)
    };

    let (io_proteus, negs) = run(Arc::new(ProteusFactory::default()), "io-proteus");
    let (io_none, _) = run(Arc::new(NoFilterFactory), "io-none");
    assert!(negs > 3_000, "filters should screen most probes: {negs}");
    assert!(
        io_proteus * 5 < io_none.max(5),
        "proteus block accesses {io_proteus} vs no-filter {io_none}"
    );
}

#[test]
fn concurrent_readers_match_ground_truth_during_load() {
    // End-to-end concurrency: four reader threads verify answers against
    // a frozen prefix of the dataset while the writer keeps loading (and
    // the background workers flush, train Proteus filters and compact).
    let dir = tmpdir("concurrent-e2e");
    let raw = Dataset::Uniform.generate(24_000, 97);
    let (frozen, rest) = raw.split_at(8_000);
    let frozen_set: BTreeSet<u64> = frozen.iter().copied().collect();

    let db = Db::open(&dir, small_cfg(12.0), Arc::new(ProteusFactory::default())).unwrap();
    for &k in frozen {
        db.put_u64(k, &[3u8; 64]).unwrap();
    }
    db.flush_and_settle().unwrap();

    std::thread::scope(|s| {
        let (db, frozen_set) = (&db, &frozen_set);
        s.spawn(move || {
            for &k in rest {
                db.put_u64(k, &[5u8; 64]).unwrap();
            }
        });
        for t in 0..4u64 {
            s.spawn(move || {
                // Point lookups over the frozen prefix are exact ground
                // truth even while the writer races ahead.
                for &k in frozen.iter().skip(t as usize).step_by(7) {
                    assert!(db.seek_u64(k, k).unwrap(), "frozen key {k:#x} missing");
                }
                // Gap probes: empty unless a concurrent insert landed
                // there — never assert emptiness, just exercise the path.
                let mut x = 0x9E37_79B9u64 ^ t;
                for _ in 0..2_000 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let lo = x % (1 << 48);
                    let got = db.seek_u64(lo, lo + 100).unwrap();
                    if frozen_set.range(lo..=lo + 100).next().is_some() {
                        assert!(got, "false negative [{lo:#x}, +100]");
                    }
                }
            });
        }
    });

    db.flush_and_settle().unwrap();
    for &k in raw.iter().step_by(61) {
        assert!(db.seek_u64(k, k).unwrap(), "key {k:#x} lost after concurrent load");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn adaptive_lifecycle_recovers_fpr_after_workload_shift() {
    // The self-design loop, closed online: filters trained for a uniform
    // long-range workload face a hard shift to correlated short ranges
    // (the paper's Fig. 7/8 transition). The adaptive pass must flag the
    // decayed files, re-train their filters on the live sample queue, cut
    // the observed FPR back down, and persist the re-trained filters so a
    // reopen serves them without any retraining.
    let dir = tmpdir("adaptive-e2e");
    let raw = Dataset::Uniform.generate(20_000, 7);
    let mirror: BTreeSet<u64> = raw.iter().copied().collect();
    let cfg = small_cfg(12.0)
        .to_builder()
        .adapt_enabled(false) // drive passes via adapt_now() for determinism
        .adapt_min_probes(100)
        .adapt_fpr_threshold(0.02)
        .queue_capacity(2_000) // small queue => the live sample tracks the shift
        .build()
        .unwrap();

    let train_w = Workload::Uniform { rmax: 1 << 15 };
    let shift_w = Workload::Correlated { rmax: 32, corr_degree: 1 << 10 };

    let db = Db::open(&dir, cfg.clone(), Arc::new(ProteusFactory::default())).unwrap();
    let seeds = QueryGen::new(train_w.clone(), &raw, &[], 0xA).empty_ranges(2_000);
    db.seed_queries(seeds.iter().map(|&(lo, hi)| (u64_key(lo).to_vec(), u64_key(hi).to_vec())));
    for &k in &raw {
        db.put_u64(k, &[9u8; 64]).unwrap();
    }
    db.flush_and_settle().unwrap();

    // Run a batch of certified-empty queries; returns the observed filter
    // FPR of the batch. Every answer is checked against ground truth.
    let run = |db: &Db, w: &Workload, n: usize, seed: u64| -> f64 {
        let before = db.stats().snapshot();
        for (lo, hi) in QueryGen::new(w.clone(), &raw, &[], seed).empty_ranges(n) {
            let got = db.seek_u64(lo, hi).unwrap();
            assert!(mirror.range(lo..=hi).next().is_none() || got, "[{lo:#x},{hi:#x}]");
        }
        db.stats().snapshot().delta(&before).observed_fpr()
    };

    let fpr_matched = run(&db, &train_w, 3_000, 1);
    let fpr_shifted = run(&db, &shift_w, 3_000, 2);
    assert!(
        fpr_shifted > fpr_matched,
        "the shift must hurt: matched {fpr_matched:.4} vs shifted {fpr_shifted:.4}"
    );

    // The queue now holds only post-shift samples; one adaptive pass must
    // flag and re-train the decayed filters.
    let retrained = db.adapt_now().unwrap();
    assert!(retrained > 0, "no filters re-trained after a hard workload shift");
    assert_eq!(db.stats().filters_retrained.get(), retrained as u64);
    assert!(db.stats().filters_flagged.get() >= retrained as u64);
    assert!(db.stats().retrain_ns.get() > 0);

    let fpr_adapted = run(&db, &shift_w, 3_000, 3);
    assert!(
        fpr_adapted < fpr_shifted,
        "re-training must recover FPR: shifted {fpr_shifted:.4} vs adapted {fpr_adapted:.4}"
    );

    // Zero false negatives throughout: every key still findable.
    for &k in raw.iter().step_by(53) {
        assert!(db.seek_u64(k, k).unwrap(), "key {k:#x} lost after re-training");
    }

    // Re-trained filter blocks are durable: a cold reopen loads them
    // without any retraining and keeps the adapted FPR.
    let filter_bits = db.filter_bits();
    let sst_count = db.sst_count();
    drop(db);
    let db = Db::open(&dir, cfg, Arc::new(ProteusFactory::default())).unwrap();
    assert_eq!(db.stats().filters_loaded.get(), sst_count as u64);
    assert_eq!(db.filter_bits(), filter_bits, "re-trained filters must reload bit-identically");
    let fpr_reopened = run(&db, &shift_w, 3_000, 4);
    assert_eq!(db.stats().filters_built.get(), 0, "reopen must not retrain");
    assert!(
        fpr_reopened < fpr_shifted,
        "adapted FPR must survive reopen: {fpr_reopened:.4} vs shifted {fpr_shifted:.4}"
    );
    for &k in raw.iter().step_by(101) {
        assert!(db.seek_u64(k, k).unwrap(), "key {k:#x} lost across reopen");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn background_adapter_thread_retrains_on_its_own() {
    // Same shift as above, but the background worker's periodic passes
    // (enabled via `adapt_enabled`) must notice and re-train without any
    // explicit adapt_now() call.
    let dir = tmpdir("adaptive-bg");
    let raw = Dataset::Uniform.generate(10_000, 23);
    let cfg = small_cfg(12.0)
        .to_builder()
        .adapt_enabled(true)
        .adapt_interval(std::time::Duration::from_millis(20))
        .adapt_min_probes(100)
        .adapt_fpr_threshold(0.02)
        .queue_capacity(1_000)
        .build()
        .unwrap();

    let train_w = Workload::Uniform { rmax: 1 << 15 };
    let shift_w = Workload::Correlated { rmax: 32, corr_degree: 1 << 10 };
    let db = Db::open(&dir, cfg, Arc::new(ProteusFactory::default())).unwrap();
    let seeds = QueryGen::new(train_w, &raw, &[], 0xB).empty_ranges(1_000);
    db.seed_queries(seeds.iter().map(|&(lo, hi)| (u64_key(lo).to_vec(), u64_key(hi).to_vec())));
    for &k in &raw {
        db.put_u64(k, &[4u8; 64]).unwrap();
    }
    db.flush_and_settle().unwrap();

    // Shifted traffic; keep seeking until the background worker reacts
    // (bounded: ~15s of 20ms scan intervals is three orders of magnitude
    // more than it needs).
    let mut reacted = false;
    for round in 0..300u64 {
        for (lo, hi) in QueryGen::new(shift_w.clone(), &raw, &[], 0xC0 + round).empty_ranges(200) {
            let _ = db.seek_u64(lo, hi).unwrap();
        }
        if db.stats().filters_retrained.get() > 0 {
            reacted = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    assert!(reacted, "periodic adaptive passes never re-trained a filter");
    // Store still correct under and after the concurrent rewrite.
    for &k in raw.iter().step_by(41) {
        assert!(db.seek_u64(k, k).unwrap(), "key {k:#x} lost during background re-training");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn adaptive_retrain_over_variable_length_keys_has_no_false_negatives() {
    // Keys that are *not* the filter's canonical width (7–15 bytes against
    // the default 8-byte `key_width`): a re-trained filter must be built
    // over the same padded/truncated, de-duplicated key set the writer
    // trained the original on, or it forgets live keys.
    let dir = tmpdir("adaptive-varlen");
    let cfg = DbConfig::builder()
        .adapt_enabled(false) // drive passes via adapt_now() for determinism
        .adapt_min_probes(10)
        .adapt_fpr_threshold(0.001)
        .sample_every(1)
        .build()
        .unwrap();
    let key = |i: usize| format!("k{:06}{}", i * 7, "p".repeat(i % 9)).into_bytes();
    let keys: Vec<Vec<u8>> = (0..5_000).map(key).collect();
    assert!(keys.iter().any(|k| k.len() == 7) && keys.iter().any(|k| k.len() == 15));

    let db = Db::open(&dir, cfg.clone(), Arc::new(ProteusFactory::default())).unwrap();
    for (i, k) in keys.iter().enumerate() {
        db.put(k, &i.to_le_bytes()).unwrap();
    }
    db.flush_and_settle().unwrap();
    // Empty point Seeks right between stored keys: enough filter false
    // positives to cross the (tiny) FPR threshold.
    for i in 0..5_000usize {
        let absent = format!("k{:06}", i * 7 + 3).into_bytes();
        assert!(!db.seek(&absent, &absent).unwrap());
    }
    assert!(db.adapt_now().unwrap() >= 1, "no filter re-trained");
    // The re-trained file starts a fresh probe window: with no reads in
    // between there is nothing to flag.
    assert_eq!(db.adapt_now().unwrap(), 0, "an immediate second pass must re-train nothing");

    let check = |db: &Db, when: &str| {
        for (i, k) in keys.iter().enumerate() {
            let want = i.to_le_bytes();
            assert_eq!(db.get(k).unwrap().as_deref(), Some(&want[..]), "get {i} {when}");
            assert!(db.seek(k, k).unwrap(), "seek {i} {when}");
        }
        let mut sorted = keys.clone();
        sorted.sort();
        let scanned: Vec<Vec<u8>> =
            db.range::<&[u8], _>(..).unwrap().map(|e| e.unwrap().0).collect();
        assert_eq!(scanned, sorted, "range {when}");
    };
    check(&db, "after re-training");
    // The rewritten filter block is what a reopen decodes.
    drop(db);
    let db = Db::open(&dir, cfg, Arc::new(ProteusFactory::default())).unwrap();
    assert!(db.stats().filters_loaded.get() >= 1, "the persisted filter was never decoded");
    check(&db, "after reopen");
    assert_eq!(db.stats().filters_built.get(), 0, "reopen must not retrain");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn adaptive_pass_re_trains_a_file_off_its_prediction_once_its_back_off_is_spent() {
    // A budget that cannot reach the threshold: every pass over the matched
    // workload re-trains the files again, and each re-train doubles the
    // probes the threshold waits for. Then the workload shifts hard. The
    // back-off now outlasts the evidence the shift has produced; what still
    // re-trains a file is that it observes far more false positives than its
    // design predicted, on a sample queue that has turned over since.
    let dir = tmpdir("adaptive-spent");
    let raw = Dataset::Uniform.generate(20_000, 29);
    let cfg = small_cfg(4.0)
        .to_builder()
        .adapt_enabled(false) // drive passes via adapt_now() for determinism
        .adapt_min_probes(100)
        .adapt_fpr_threshold(0.001)
        .queue_capacity(1_000)
        .build()
        .unwrap();
    let train_w = Workload::Uniform { rmax: 1 << 15 };
    let shift_w = Workload::Correlated { rmax: 32, corr_degree: 1 << 10 };

    let db = Db::open(&dir, cfg, Arc::new(ProteusFactory::default())).unwrap();
    let seeds = QueryGen::new(train_w.clone(), &raw, &[], 0xD).empty_ranges(1_000);
    db.seed_queries(seeds.iter().map(|&(lo, hi)| (u64_key(lo).to_vec(), u64_key(hi).to_vec())));
    for &k in &raw {
        db.put_u64(k, &[5u8; 64]).unwrap();
    }
    db.flush_and_settle().unwrap();
    let seek = |w: &Workload, n: usize, seed: u64| {
        for (lo, hi) in QueryGen::new(w.clone(), &raw, &[], seed).empty_ranges(n) {
            assert!(!db.seek_u64(lo, hi).unwrap(), "[{lo:#x},{hi:#x}] is empty");
        }
    };

    // The matched workload, a pass after each round: files re-train until
    // the threshold waits for more probes than a round gives them.
    let mut retrained = 0;
    for round in 0..8 {
        seek(&train_w, 2_000, 0xE0 + round);
        retrained += db.adapt_now().unwrap();
    }
    assert!(retrained > db.sst_count(), "the back-off never climbed: {retrained} re-trains");
    // The shift, with as many queries as the queue holds: it turns over.
    seek(&shift_w, 1_000, 0xF0);
    assert!(db.adapt_now().unwrap() >= 1, "no file re-trained after the shift");
    for &k in raw.iter().step_by(97) {
        assert!(db.seek_u64(k, k).unwrap(), "key {k:#x} lost after re-training");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
