//! The adaptive filter lifecycle: closing the paper's self-design loop
//! *online*.
//!
//! Proteus's §4–§6 claim is that the filter re-designs itself as the
//! workload changes — but a filter is only trained when its SST is written
//! (flush/compaction). A long-lived file whose query distribution shifts
//! after construction silently decays toward worst-case FPR. This module
//! supplies the two decisions that close the loop, and the mechanism:
//!
//! * **When to act** — [`flag_reason`] flags a file when either signal
//!   crosses its configured threshold:
//!   1. *Observed FPR*: every real filter probe records a per-file
//!      false-positive / true-negative outcome ([`SstReader::record_probe`]);
//!      once `adapt_min_probes` probes accumulate, an empirical FPR above
//!      `adapt_fpr_threshold` flags the file.
//!   2. *Distribution drift*: each filter block persists a
//!      [`proteus_core::QuerySketch`] fingerprint of the sample it was
//!      trained on — the file's view of the queue, see
//!      [`QueryQueue::view`]. The file's view of the live queue, sketched
//!      over the same anchors (the file's canonicalized key range —
//!      [`SstReader::live_sketch`]), is compared by total-variation distance;
//!      divergence above `adapt_divergence_threshold` flags the file
//!      *before* the FPR damage fully materializes.
//! * **What to do** — [`retrain`] re-runs the factory (for Proteus, the
//!   full CPFPR `ProteusModel::best_design` search) over the file's keys
//!   and a fresh queue snapshot, then atomically rewrites only the filter
//!   block + footer ([`SstReader::with_new_filter`]): data blocks are
//!   untouched, readers are never blocked, and a crash leaves either the
//!   old or the new filter — both of which reopen cleanly. Which keys
//!   feed the filter, at what width, and which anchors fingerprint the
//!   samples is not decided here: re-training runs the SST writer's own
//!   key feed (`sst::FilterKeys`), so a re-trained filter can
//!   never cover less than the one it replaces.
//!
//! `pass` strings the two together over every live file and publishes the
//! replacement readers. `Db`'s background worker runs it when nothing is
//! left to flush or compact: every `adapt_interval` with `adapt_enabled`,
//! and whenever `Db::adapt_now` asks (and waits) for a pass, which makes
//! tests and experiments deterministic.

use crate::db::{DbConfig, DbInner};
use crate::error::Result;
use crate::query_queue::QueryQueue;
use crate::sst::SstReader;
use crate::stats::Stats;
use crate::FilterFactory;
use std::sync::Arc;
use std::time::Instant;

/// Floor on a file's view of the sample queue: below it a drift comparison
/// is noise, and the file's filter is trained on the whole queue instead.
pub const MIN_DRIFT_SAMPLES: usize = 64;

/// Why an SST was flagged for filter re-training.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlagReason {
    /// The file's observed FPR crossed `adapt_fpr_threshold` after at
    /// least `adapt_min_probes` filter probes.
    HighFpr,
    /// The live sample distribution diverged from the filter's training
    /// fingerprint by more than `adapt_divergence_threshold`.
    Drift,
}

/// Decide whether `sst`'s filter should be re-trained, given the live sample
/// queue. Returns `None` for files without a live filter (nothing to
/// adapt), under-observed files, and files whose signals are within
/// thresholds.
pub fn flag_reason(sst: &SstReader, cfg: &DbConfig, queue: &QueryQueue) -> Option<FlagReason> {
    if !sst.has_live_filter() {
        // Absent or degraded: nothing to compare and nothing worth
        // rewriting.
        return None;
    }
    // The FPR trigger backs off exponentially in the file's retrain
    // count: if re-training could not push the observed FPR under the
    // threshold (the budget simply doesn't allow it for this workload),
    // retraining again every scan would burn CPU for nothing. Each retry
    // needs twice the probe evidence. The drift trigger below is exempt —
    // a *new* distribution shift always deserves a prompt re-train.
    let required = cfg.adapt_min_probes().saturating_mul(1u64 << sst.retrain_count().min(20));
    if sst.observed_probes() >= required && sst.observed_fpr() > cfg.adapt_fpr_threshold() {
        return Some(FlagReason::HighFpr);
    }
    // Both fingerprints are sketched from the file's own view of the queue
    // (`QueryQueue::view`), so a shift inside the file's range moves all of
    // the mass, not the file's share of the key space.
    let trained = sst.training_fingerprint()?;
    let live = sst.live_sketch(queue)?;
    (trained.divergence(&live) > cfg.adapt_divergence_threshold()).then_some(FlagReason::Drift)
}

/// Re-train one SST's filter: collect the file's filter keys, re-run the
/// factory's design search over a fresh snapshot of the sample queue, and
/// atomically rewrite the filter block. Returns the replacement reader
/// (same id, new filter, fresh observation window) for the caller to swap
/// into the manifest.
pub fn retrain(
    sst: &Arc<SstReader>,
    factory: &dyn FilterFactory,
    queue: &QueryQueue,
    bits_per_key: f64,
    stats: &Stats,
) -> Result<SstReader> {
    let t0 = Instant::now();
    let keys = sst.filter_keys(stats)?;
    let (filter, sketch) = keys.train(&sst.min_key, &sst.max_key, factory, queue, bits_per_key);
    let new_reader = sst.with_new_filter(filter, sketch, stats)?;
    stats.retrain_ns.add(t0.elapsed().as_nanos() as u64);
    stats.filters_retrained.inc();
    Ok(new_reader)
}

/// One full adaptive pass over `db`: flag, re-train, publish; returns the
/// number of filters re-trained. Runs on the background worker, the only
/// thread that retires files, so no file it flags can be compacted away
/// before its replacement is published.
pub(crate) fn pass(db: &DbInner) -> Result<usize> {
    let version = db.version();
    let flagged: Vec<&Arc<SstReader>> = version
        .levels
        .iter()
        .flatten()
        .filter(|sst| flag_reason(sst, &db.cfg, &db.queue).is_some())
        .collect();
    db.stats.drift_flags.add(flagged.len() as u64);
    let mut retrained = 0usize;
    for sst in flagged {
        // Re-training every flagged file can take a while right after a
        // shift (every live SST flags at once); re-check shutdown between
        // files so dropping the Db joins within one retrain.
        if db.shutting_down()? {
            break;
        }
        let new = Arc::new(retrain(
            sst,
            db.factory.as_ref(),
            &db.queue,
            db.cfg.bits_per_key(),
            &db.stats,
        )?);
        // Publish: swap the replacement reader into the file's level.
        // Readers holding older versions keep the old reader (same data;
        // the old filter is merely stale, never wrong — filters have no
        // false negatives for the file's keys).
        db.edit_manifest(|v| {
            for slot in v.levels.iter_mut().flatten().filter(|s| s.id == new.id) {
                *slot = Arc::clone(&new);
            }
        });
        retrained += 1;
    }
    Ok(retrained)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter_hook::ProteusFactory;
    use crate::sst::SstWriter;
    use proteus_core::key::u64_key;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("proteus-adapt-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// A queue holding exactly `queries`.
    fn queue_of(queries: &[(u64, u64)]) -> QueryQueue {
        let queue = QueryQueue::new(20_000, 1);
        queue.seed(queries.iter().map(|&(lo, hi)| (u64_key(lo).to_vec(), u64_key(hi).to_vec())));
        queue
    }

    /// SST `id` over the 4 000 keys `(first + i) << 24`, filter trained on
    /// `queue`.
    fn build_sst_at(dir: &std::path::Path, id: u64, first: u64, queue: &QueryQueue) -> SstReader {
        let mut w = SstWriter::create(dir, id, 8, 4096, 0).unwrap();
        for i in first..first + 4_000 {
            w.add(&u64_key(i << 24), &[0u8; 32]).unwrap();
        }
        w.finish(&ProteusFactory::default(), queue, 12.0, &Stats::default()).unwrap()
    }

    /// One SST over clustered keys, filter trained on `train` queries.
    fn build_sst(dir: &std::path::Path, train: &[(u64, u64)]) -> (Arc<SstReader>, Arc<Stats>) {
        (Arc::new(build_sst_at(dir, 1, 0, &queue_of(train))), Arc::new(Stats::default()))
    }

    /// `n` empty queries, one in each of the gaps after keys `from..from + n`.
    fn queries(from: u64, n: usize) -> Vec<(u64, u64)> {
        (from..from + n as u64).map(|i| ((i << 24) + 0x1000, (i << 24) + 0x2000)).collect()
    }

    #[test]
    fn unprobed_or_filterless_files_are_never_flagged() {
        let dir = tmpdir("noflag");
        let (sst, _stats) = build_sst(&dir, &queries(0, 200));
        let cfg = DbConfig::builder().adapt_min_probes(4).build().unwrap();
        let live = queue_of(&queries(0, 200));
        assert_eq!(flag_reason(&sst, &cfg, &live), None, "healthy file must not be flagged");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn high_observed_fpr_flags_the_file() {
        let dir = tmpdir("fpr");
        let (sst, _stats) = build_sst(&dir, &queries(0, 200));
        let cfg =
            DbConfig::builder().adapt_min_probes(10).adapt_fpr_threshold(0.3).build().unwrap();
        for _ in 0..8 {
            sst.record_probe(true);
        }
        for _ in 0..2 {
            sst.record_probe(false);
        }
        assert_eq!(sst.observed_probes(), 10);
        assert!((sst.observed_fpr() - 0.8).abs() < 1e-12);
        let live = QueryQueue::new(16, 1);
        assert_eq!(flag_reason(&sst, &cfg, &live), Some(FlagReason::HighFpr));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn distribution_shift_flags_via_fingerprint_divergence() {
        let dir = tmpdir("drift");
        // Train on queries in the low eighth of the file's key range.
        let (sst, _stats) = build_sst(&dir, &queries(0, 500));
        let cfg = DbConfig::builder().adapt_divergence_threshold(0.5).build().unwrap();
        // Live sample matching training: no flag.
        assert_eq!(flag_reason(&sst, &cfg, &queue_of(&queries(0, 500))), None);
        // Live sample shifted to the high half: flagged as drift.
        let shifted = queue_of(&queries(2_000, 500));
        assert_eq!(flag_reason(&sst, &cfg, &shifted), Some(FlagReason::Drift));
        // Too few live samples: noise, no flag.
        let tiny = queue_of(&queries(2_000, MIN_DRIFT_SAMPLES - 1));
        assert_eq!(flag_reason(&sst, &cfg, &tiny), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drift_is_judged_inside_each_file_of_a_level() {
        let dir = tmpdir("level");
        // Six files side by side, 4 000 keys each, and a workload spread
        // evenly over all of them: every 10th gap of every file is queried.
        let spread: Vec<(u64, u64)> = (0..24_000).step_by(10).flat_map(|i| queries(i, 1)).collect();
        let trained_on = queue_of(&spread);
        let level: Vec<SstReader> =
            (0..6).map(|f| build_sst_at(&dir, f + 1, f * 4_000, &trained_on)).collect();
        let cfg = DbConfig::builder().build().unwrap();
        // The same distribution live: no file sees drift, although 5/6 of
        // the queue lies outside each of them.
        for sst in &level {
            assert_eq!(flag_reason(sst, &cfg, &trained_on), None, "{sst:?}");
        }
        // The queries of file 3 all move into its last tenth; the other five
        // files are asked what they were always asked. At 1/6 of the key
        // space, lumping out-of-range queries into the end buckets would
        // leave this shift at a divergence of at most 1/6.
        let moved: Vec<(u64, u64)> = spread
            .iter()
            .map(|&(lo, hi)| match lo >> 24 {
                i @ 12_000..16_000 => queries(15_600 + i % 400, 1)[0],
                _ => (lo, hi),
            })
            .collect();
        let live = queue_of(&moved);
        let flagged: Vec<u64> = level
            .iter()
            .filter(|sst| flag_reason(sst, &cfg, &live).is_some())
            .map(|s| s.id)
            .collect();
        assert_eq!(flagged, [4], "exactly the file whose in-range queries moved");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retrain_rewrites_filter_block_and_survives_reopen() {
        let dir = tmpdir("retrain");
        let (sst, stats) = build_sst(&dir, &queries(0, 300));
        // The workload moves to the other end of the file.
        let shifted = queue_of(&queries(3_500, 300));
        let new_reader = retrain(&sst, &ProteusFactory::default(), &shifted, 12.0, &stats).unwrap();
        assert_eq!(stats.filters_retrained.get(), 1);
        assert!(stats.retrain_ns.get() > 0);
        assert_eq!(new_reader.id, sst.id);
        assert_eq!(new_reader.n_entries, sst.n_entries);
        assert_eq!(new_reader.observed_probes(), 0, "fresh observation window");
        let f = new_reader.filter().expect("retrained filter present");
        assert!(f.size_bits() > 0);
        // No false negatives: every key still passes the new filter.
        for i in (0..4_000u64).step_by(61) {
            assert!(f.may_contain(&u64_key(i << 24)), "key {i}");
        }
        // The new fingerprint is the shifted view's: the old workload now
        // reads as drift, the new one does not.
        let cfg = DbConfig::builder().build().unwrap();
        assert_eq!(flag_reason(&new_reader, &cfg, &shifted), None);
        assert_eq!(
            flag_reason(&new_reader, &cfg, &queue_of(&queries(0, 300))),
            Some(FlagReason::Drift)
        );
        // The rewritten file reopens with the retrained filter and
        // fingerprint in place (no retraining on the recovery path).
        let reopened = SstReader::open(dir.join("00000001.sst"), 1).unwrap();
        let g = reopened.filter().expect("persisted retrained filter");
        assert_eq!(g.size_bits(), f.size_bits());
        let fp = reopened.training_fingerprint().expect("fingerprint persisted");
        assert_eq!(fp.divergence(new_reader.training_fingerprint().unwrap()), 0.0);
        let fresh = Stats::default();
        // Data blocks byte-identical to the original.
        for b in 0..sst.n_blocks() {
            let x = sst.read_block(b, &stats).unwrap();
            let y = reopened.read_block(b, &fresh).unwrap();
            assert_eq!(x.len(), y.len(), "block {b}");
            for i in 0..x.len() {
                assert_eq!(x.key(i), y.key(i));
                assert_eq!(x.value(i), y.value(i));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_queue_that_misses_the_file_is_the_cold_start_case() {
        let dir = tmpdir("outside");
        let (sst, stats) = build_sst(&dir, &queries(0, 300));
        // Every queued query lies past the file's last key: its view is
        // empty, so the re-train falls back to the whole queue and the new
        // filter carries no fingerprint.
        let outside = queue_of(&queries(10_000, 300));
        let new_reader = retrain(&sst, &ProteusFactory::default(), &outside, 12.0, &stats).unwrap();
        let f = new_reader.filter().expect("retrained filter present");
        for i in (0..4_000u64).step_by(61) {
            assert!(f.may_contain(&u64_key(i << 24)), "key {i}");
        }
        assert!(new_reader.training_fingerprint().is_none());
        // Without a fingerprint no queue can read as drift...
        let cfg =
            DbConfig::builder().adapt_min_probes(10).adapt_fpr_threshold(0.3).build().unwrap();
        assert_eq!(flag_reason(&new_reader, &cfg, &outside), None);
        assert_eq!(flag_reason(&new_reader, &cfg, &queue_of(&queries(0, 300))), None);
        // ...but the observed-FPR trigger still works (twice the evidence:
        // the file has been re-trained once).
        for _ in 0..20 {
            new_reader.record_probe(true);
        }
        assert_eq!(flag_reason(&new_reader, &cfg, &outside), Some(FlagReason::HighFpr));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
