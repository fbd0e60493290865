//! Shared machinery for the end-to-end LSM experiments (§6): database
//! setup, loading, and instrumented Seek execution with ground-truth
//! tracking. Seeks run on the calling thread: concurrent reads are checked
//! by the lsm crate's `lsm_concurrent` tests and measured by the
//! `benchmark/` package's `server_mixed` workload.

use proteus_core::key::u64_key;
use proteus_lsm::{Db, DbConfig, FilterFactory, StatsSnapshot};
use proteus_workloads::value_for_key;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// The §6.2 RocksDB tuning at a quarter of `DbConfig::default()`'s write
/// path, so a laptop-scale load still builds a multi-level tree. The SST
/// and L1 sizes follow from `memtable_bytes`, so the ratios hold by
/// construction; every other knob is the store's default.
pub fn lsm_config(bits_per_key: f64, key_width: usize) -> DbConfig {
    DbConfig::builder()
        .key_width(key_width)
        .memtable_bytes(1 << 20)
        .bits_per_key(bits_per_key)
        .build()
        .expect("bench config is valid")
}

/// Fresh experiment directory (removed if it already exists).
pub fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("proteus-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A loaded database plus a ground-truth mirror of its u64 key set.
pub struct LsmRun {
    pub db: Db,
    pub mirror: BTreeSet<u64>,
    dir: PathBuf,
    /// Keep the directory on drop (set while handing off to a reopen).
    persist: bool,
}

impl LsmRun {
    /// Open, bulk-load `keys` with `value_len`-byte §6.2 values, seed the
    /// sample queue, flush and settle compactions (the paper's consistent
    /// initial state).
    pub fn load(
        tag: &str,
        bpk: f64,
        keys: &[u64],
        value_len: usize,
        seed_queries: &[(u64, u64)],
        factory: Arc<dyn FilterFactory>,
    ) -> LsmRun {
        Self::load_cfg(tag, lsm_config(bpk, 8), keys, value_len, seed_queries, factory)
    }

    /// [`LsmRun::load`] with an explicit configuration (the shift
    /// experiments shrink the write path so compactions — and therefore
    /// filter rebuilds — happen at the scaled-down pace of the paper's).
    pub fn load_cfg(
        tag: &str,
        cfg: DbConfig,
        keys: &[u64],
        value_len: usize,
        seed_queries: &[(u64, u64)],
        factory: Arc<dyn FilterFactory>,
    ) -> LsmRun {
        let dir = fresh_dir(tag);
        let db = Db::open(&dir, cfg, factory).expect("open db");
        db.seed_queries(
            seed_queries.iter().map(|&(lo, hi)| (u64_key(lo).to_vec(), u64_key(hi).to_vec())),
        );
        let mut mirror = BTreeSet::new();
        for &k in keys {
            db.put_u64(k, &value_for_key(k, value_len)).expect("put");
            mirror.insert(k);
        }
        db.flush_and_settle().expect("settle");
        LsmRun { db, mirror, dir, persist: false }
    }

    /// Drop the database and reopen it from disk (the restart path):
    /// filters are *loaded* from the per-SST filter blocks, not rebuilt.
    pub fn reopen(mut self, factory: Arc<dyn FilterFactory>) -> LsmRun {
        let cfg = self.db.config().clone();
        let dir = self.dir.clone();
        let mirror = std::mem::take(&mut self.mirror);
        self.persist = true;
        drop(self);
        let db = Db::open(&dir, cfg, factory).expect("reopen db");
        LsmRun { db, mirror, dir, persist: false }
    }

    /// Insert a key mid-experiment (the Fig. 7 interleaved Puts).
    pub fn put(&mut self, key: u64, value_len: usize) {
        self.db.put_u64(key, &value_for_key(key, value_len)).expect("put");
        self.mirror.insert(key);
    }

    /// Execute a Seek, verifying against ground truth. Returns
    /// `(reported, truly_non_empty)`; a `(true, false)` outcome is an
    /// end-to-end false positive.
    pub fn seek(&self, lo: u64, hi: u64) -> (bool, bool) {
        let truth = self.mirror.range(lo..=hi).next().is_some();
        let got = self.db.seek_u64(lo, hi).expect("seek");
        assert!(got || !truth, "false negative for [{lo}, {hi}]");
        (got, truth)
    }

    /// Run a batch of seeks (each verified by [`LsmRun::seek`]); returns
    /// aggregate batch metrics.
    pub fn run_batch(&self, queries: &[(u64, u64)]) -> BatchResult {
        let before = self.db.stats().snapshot();
        let t0 = Instant::now();
        for &(lo, hi) in queries {
            self.seek(lo, hi);
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let after = self.db.stats().snapshot();
        BatchResult { elapsed_s: elapsed, stats: after.delta(&before) }
    }
}

impl Drop for LsmRun {
    fn drop(&mut self) {
        if !self.persist {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

/// Metrics for one batch of seeks.
#[derive(Debug, Clone)]
pub struct BatchResult {
    pub elapsed_s: f64,
    pub stats: StatsSnapshot,
}

impl BatchResult {
    /// The filter false positive rate in this batch — the metric the
    /// paper's Fig. 6–8 report. (A closed Seek never *returns* a false
    /// positive; filter false positives cost block I/O instead, so the
    /// end-to-end observable is `filter_false_positives / probes`.)
    pub fn fpr(&self) -> f64 {
        self.stats.filter_fpr()
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn lsm_config_scales_the_default_tree_down_by_four() {
        let cfg = super::lsm_config(10.0, 8);
        let sizes = (cfg.memtable_bytes(), cfg.sst_target_bytes(), cfg.level_base_bytes());
        assert_eq!(sizes, (1 << 20, 1 << 20, 4 << 20));
    }
}
