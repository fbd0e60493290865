//! Compaction: which files to fold next (the picking policy, a pure
//! function of a manifest snapshot) and the fold itself — the read path's
//! [`Merge`] over uncached cursors, plus the two decisions that are
//! compaction's own: tombstones are dropped once the output lands at the
//! bottom of the tree, and the output is split into files of one MemTable
//! (`sst_target_bytes`). L0 compacts past [`L0_COMPACTION_TRIGGER`] files,
//! level n past 4 MemTables × [`LEVEL_SIZE_RATIO`]^(n-1). When to compact —
//! once no frozen table is left to flush, in settle mode for
//! `flush_and_settle` — is the worker's turn in [`crate::db`].

use crate::config::DbConfig;
use crate::db::{DbInner, Version};
use crate::error::Result;
use crate::read::Merge;
use crate::sst::{SstCursor, SstReader, SstWriter};
use std::sync::Arc;

/// A compaction the policy decided on: `newer` — every L0 file, newest
/// first, or one file of a deeper `level` — merges with the `older` files of
/// `level + 1` it overlaps. The inputs are pinned from a manifest snapshot
/// (every manifest edit runs under the worker lock, which a job holds from
/// pick to publish, so they cannot disappear before its edit).
#[derive(Debug)]
pub(crate) struct CompactionJob {
    level: usize,
    newer: Vec<Arc<SstReader>>,
    older: Vec<Arc<SstReader>>,
}

/// Per-level size multiplier (RocksDB's `max_bytes_for_level_multiplier`
/// default).
const LEVEL_SIZE_RATIO: u64 = 10;

/// L0 file count over which L0 compacts into L1 (RocksDB's default).
pub(crate) const L0_COMPACTION_TRIGGER: usize = 4;

/// Size target of `level` (≥ 1): `level_base_bytes` at L1, growing by
/// [`LEVEL_SIZE_RATIO`] per level.
fn level_target(cfg: &DbConfig, level: usize) -> u64 {
    cfg.level_base_bytes() * LEVEL_SIZE_RATIO.pow(level.saturating_sub(1) as u32)
}

/// Clones of the files in a sorted, disjoint level overlapping `[lo, hi]`
/// (the snapshot is not modified; the manifest edit removes them by id at
/// publish time).
fn collect_overlapping(level: &[Arc<SstReader>], lo: &[u8], hi: &[u8]) -> Vec<Arc<SstReader>> {
    level.iter().filter(|s| s.overlaps(lo, hi)).cloned().collect()
}

/// Decide the next compaction from a manifest snapshot. In settle mode
/// any non-empty L0 compacts (the §6.2 clean initial state); otherwise
/// only the size triggers fire.
pub(crate) fn pick(v: &Version, cfg: &DbConfig, settle: bool) -> Option<CompactionJob> {
    let next_level = |level: usize| v.levels.get(level + 1).map_or(&[][..], Vec::as_slice);
    let l0 = v.levels.first()?;
    if l0.len() > L0_COMPACTION_TRIGGER || (settle && !l0.is_empty()) {
        // Newest-first rank order for the merge.
        let newer: Vec<Arc<SstReader>> = l0.iter().rev().cloned().collect();
        // Both triggers above imply at least one L0 input.
        let lo = newer.iter().map(|s| &s.min_key).min()?;
        let hi = newer.iter().map(|s| &s.max_key).max()?;
        let older = collect_overlapping(next_level(0), lo, hi);
        return Some(CompactionJob { level: 0, newer, older });
    }
    for level in 1..v.levels.len() {
        let bytes: u64 = v.levels[level].iter().map(|s| s.file_bytes).sum();
        if bytes > level_target(cfg, level) {
            // Pick the file with the smallest min key (simple
            // deterministic cursor; RocksDB round-robins similarly).
            let input = Arc::clone(v.levels[level].first()?);
            let older = collect_overlapping(next_level(level), &input.min_key, &input.max_key);
            return Some(CompactionJob { level, newer: vec![input], older });
        }
    }
    None
}

/// Run `job`: merge its inputs into the target level, publish the edit
/// and retire the inputs.
pub(crate) fn run(db: &DbInner, job: CompactionJob) -> Result<()> {
    let (source_level, target_level) = (job.level, job.level + 1);
    let outputs = merge_inputs(db, &job.newer, &job.older, target_level)?;
    let inputs: Vec<&Arc<SstReader>> = job.newer.iter().chain(&job.older).collect();
    let removed: Vec<u64> = inputs.iter().map(|s| s.id).collect();
    // Publish: drop the inputs from the manifest (files flushed into
    // L0 meanwhile are untouched) and install the outputs sorted.
    db.edit_manifest(|v| {
        if v.levels.len() <= target_level {
            v.levels.resize_with(target_level + 1, Vec::new);
        }
        for level in [source_level, target_level] {
            v.levels[level].retain(|s| !removed.contains(&s.id));
        }
        v.levels[target_level].extend(outputs.iter().cloned());
        v.levels[target_level].sort_by(|a, b| a.min_key.cmp(&b.min_key));
    })?;
    // Retire the inputs, in any order: the `MANIFEST` no longer lists them,
    // so a crash midway leaves orphans the next open deletes. Readers of an
    // older version keep their open descriptors. Mark-before-purge: once
    // the flag is visible no reader re-caches a dead block.
    for sst in inputs {
        sst.mark_retired();
        db.cache.purge_sst(sst.id);
        sst.delete_file();
    }
    db.stats.compactions.inc();
    Ok(())
}

/// Merge `newer` (rank order = recency) and `older` files, writing
/// size-split SSTs for `target_level` and building a fresh filter per
/// output (§6.1: compaction "triggers the construction of new filters on
/// the merged data"). Inputs are read straight from their files, one
/// read per block, and each surviving record goes into the writer as
/// slices borrowed from its decoded block.
///
/// The merge yields only the newest record per key. A surviving
/// tombstone is carried into the output — it may still shadow versions
/// of its key in deeper levels — *unless* the output lands at the bottom
/// of the tree (no non-empty level below the target), where nothing
/// older can exist and the tombstone is dropped for good. Every manifest
/// edit runs under the worker lock, which this merge's turn holds, so one
/// snapshot decides the whole merge.
fn merge_inputs(
    db: &DbInner,
    newer: &[Arc<SstReader>],
    older: &[Arc<SstReader>],
    target_level: usize,
) -> Result<Vec<Arc<SstReader>>> {
    let drop_tombstones =
        db.version().levels.get(target_level + 1..).is_none_or(|d| d.iter().all(Vec::is_empty));
    let mut merge = Merge::new(db, DbInner::uncached_block);
    for sst in newer.iter().chain(older) {
        merge.push_sst(SstCursor::new(Arc::clone(sst)), None, sst.min_key.clone());
    }
    let mut outputs: Vec<Arc<SstReader>> = Vec::new();
    let mut writer: Option<SstWriter> = None;
    for record in merge {
        let (_, pos) = record?;
        let (key, value) = pos.entry();
        if value.is_none() && drop_tombstones {
            db.stats.tombstones_dropped.inc();
            continue;
        }
        let w = match &mut writer {
            Some(w) => w,
            None => writer.insert(db.sst_writer()?),
        };
        w.push(key, value)?;
        if w.bytes_written() >= db.cfg.sst_target_bytes() {
            if let Some(w) = writer.take() {
                outputs.push(Arc::new(db.finish_sst(w)?));
            }
        }
    }
    if let Some(w) = writer {
        outputs.push(Arc::new(db.finish_sst(w)?));
    }
    Ok(outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter_hook::NoFilterFactory;
    use crate::query_queue::QueryQueue;
    use crate::stats::Stats;
    use proteus_core::key::u64_key;
    use std::path::{Path, PathBuf};

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("proteus-pick-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// A ~3 KiB file holding 64 keys spread over `[lo, hi]` (`hi - lo >= 63`).
    fn file(dir: &Path, id: u64, lo: u64, hi: u64) -> Arc<SstReader> {
        let mut w = SstWriter::create(dir, id, 8, 4096).unwrap();
        for i in 0..64 {
            w.add(&u64_key(lo + (hi - lo) * i / 63), &[0xA5u8; 32]).unwrap();
        }
        let queue = QueryQueue::new(1, 1);
        Arc::new(w.finish(&NoFilterFactory, &queue, 0.0, &Stats::default()).unwrap())
    }

    fn ids(files: &[Arc<SstReader>]) -> Vec<u64> {
        files.iter().map(|s| s.id).collect()
    }

    /// 1 KiB MemTables: L1 holds 4 KiB, L2 40 KiB.
    fn cfg() -> DbConfig {
        DbConfig::builder().memtable_bytes(1 << 10).build().unwrap()
    }

    #[test]
    fn nothing_to_do_picks_nothing() {
        let dir = tmpdir("none");
        assert!(pick(&Version { levels: vec![Vec::new()] }, &cfg(), false).is_none());
        assert!(pick(&Version { levels: vec![Vec::new()] }, &cfg(), true).is_none());
        // L0 at (not over) its trigger, L1 under its size target.
        let l0 = (1..=L0_COMPACTION_TRIGGER as u64).map(|id| file(&dir, id, id * 100, 900));
        let v = Version { levels: vec![l0.collect(), vec![file(&dir, 9, 0, 1_000)]] };
        assert!(pick(&v, &cfg(), false).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn l0_over_trigger_takes_every_l0_file_and_the_overlapping_l1_files() {
        let dir = tmpdir("l0");
        let v = Version {
            levels: vec![
                // Flush order (oldest first); together they span [200, 900].
                vec![
                    file(&dir, 1, 200, 500),
                    file(&dir, 2, 400, 900),
                    file(&dir, 3, 300, 600),
                    file(&dir, 4, 250, 350),
                    file(&dir, 5, 700, 800),
                ],
                vec![
                    file(&dir, 6, 0, 100),       // left of the span
                    file(&dir, 7, 150, 250),     // overlaps its low end
                    file(&dir, 8, 900, 1_200),   // touches its high end
                    file(&dir, 9, 1_300, 1_500), // right of the span
                ],
            ],
        };
        let Some(CompactionJob { level: 0, newer, older }) = pick(&v, &cfg(), false) else {
            panic!("five L0 files are over a trigger of four");
        };
        assert_eq!(ids(&newer), [5, 4, 3, 2, 1], "newest first: the merge's rank order");
        assert_eq!(ids(&older), [7, 8]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn settle_compacts_a_non_empty_l0_below_its_trigger() {
        let dir = tmpdir("settle");
        let v = Version { levels: vec![vec![file(&dir, 1, 0, 500)]] };
        assert!(pick(&v, &cfg(), false).is_none(), "one file is under the trigger");
        let Some(CompactionJob { level: 0, newer, older }) = pick(&v, &cfg(), true) else {
            panic!("settle mode must empty L0");
        };
        assert_eq!(ids(&newer), [1]);
        assert!(older.is_empty(), "there is no L1 yet");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn level_over_target_pushes_its_first_file_into_the_overlapping_next_level_files() {
        let dir = tmpdir("level");
        let v = Version {
            levels: vec![
                Vec::new(),
                // Two ~3 KiB files: over L1's 4 KiB target.
                vec![file(&dir, 1, 100, 400), file(&dir, 2, 500, 900)],
                vec![
                    file(&dir, 3, 0, 70),
                    file(&dir, 4, 80, 150),
                    file(&dir, 5, 350, 450),
                    file(&dir, 6, 460, 1_000),
                ],
            ],
        };
        assert!(v.levels[1].iter().map(|s| s.file_bytes).sum::<u64>() > 4 << 10);
        for settle in [false, true] {
            let Some(CompactionJob { level, newer, older }) = pick(&v, &cfg(), settle) else {
                panic!("L1 is over its target");
            };
            assert_eq!((level, ids(&newer)), (1, vec![1]), "the file with the smallest min key");
            assert_eq!(ids(&older), [4, 5], "exactly the L2 files [100, 400] touches");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
