//! The adaptive filter lifecycle: closing the paper's self-design loop
//! *online*.
//!
//! Proteus's §4–§6 claim is that the filter re-designs itself as the
//! workload changes — but a filter is only trained when its SST is written
//! (flush/compaction). A long-lived file whose query distribution shifts
//! after construction silently decays toward worst-case FPR. This module
//! supplies the two decisions that close the loop, and the mechanism:
//!
//! * **When to act** — every real filter probe records a per-file
//!   false-positive / true-negative outcome ([`SstReader::record_probe`]),
//!   and [`flag_reason`] reads that observed FPR two ways:
//!   1. *Over the threshold* ([`FlagReason::HighFpr`]): once
//!      `adapt_min_probes` probes accumulate, an observed FPR above
//!      `adapt_fpr_threshold` flags the file. Each re-train of the file
//!      doubles the probes this takes, so a file whose budget cannot reach
//!      the threshold stops being re-trained over and over.
//!   2. *Off its own prediction* ([`FlagReason::OffPrediction`]): a
//!      model-designed filter carries the FPR the CPFPR model predicted for
//!      it ([`proteus_core::RangeFilter::expected_fpr`]). An observed FPR
//!      above that by more than the paper's §4.3 Chernoff bound
//!      ([`fpr_estimate_error_bound`]) allows at [`OFF_PREDICTION_ALPHA`]
//!      means the file is no longer asked what its design was chosen for.
//!      It flags only once the sample queue has turned over since the
//!      filter was trained ([`QueryQueue::turned_over_since`]): before that
//!      a re-train would rebuild the same design from the same sample. This
//!      rule has no back-off, so a new shift still re-trains a file whose
//!      threshold back-off is spent.
//! * **What to do** — [`retrain`] re-runs the factory (for Proteus, the
//!   full CPFPR `ProteusModel::best_design` search) over the file's keys
//!   and a fresh queue snapshot, then atomically rewrites only the filter
//!   block + footer ([`SstReader::with_new_filter`]): data blocks are
//!   untouched, readers are never blocked, and a crash leaves either the
//!   old or the new filter — both of which reopen cleanly. Which keys
//!   feed the filter, at what width, is not decided here: re-training runs
//!   the SST writer's own key feed (`sst::FilterKeys`), so a re-trained
//!   filter can never cover less than the one it replaces.
//!
//! `pass` strings the two together over every live file and publishes the
//! replacement readers, under the store's worker lock. `Db`'s background
//! thread runs it every `adapt_interval` with `adapt_enabled`, once nothing
//! is left to flush or compact; `Db::adapt_now` runs one on the calling
//! thread, which makes tests and experiments deterministic.

use crate::db::{DbConfig, DbInner};
use crate::error::Result;
use crate::query_queue::QueryQueue;
use crate::sst::SstReader;
use crate::stats::Stats;
use crate::FilterFactory;
use proteus_core::sample::fpr_estimate_error_bound;
use std::sync::Arc;
use std::time::Instant;

/// How unlikely an observed FPR must be under the filter's predicted one
/// before the file counts as off its prediction: the right-hand side of the
/// §4.3 bound, fixed rather than tuned.
pub const OFF_PREDICTION_ALPHA: f64 = 1e-4;

/// Why an SST was flagged for filter re-training, with the numbers the
/// decision read. Displays as "observed 0.031 over 4096 probes vs predicted
/// 0.005".
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlagReason {
    /// The file's observed FPR crossed `adapt_fpr_threshold` after at
    /// least `adapt_min_probes` filter probes, doubled per re-train.
    HighFpr {
        /// The file's observed FPR.
        observed: f64,
        /// The filter probes it was observed over.
        probes: u64,
        /// The `adapt_fpr_threshold` it crossed.
        threshold: f64,
    },
    /// The file's observed FPR is above its filter's predicted FPR by more
    /// than chance allows, and the sample queue has turned over since the
    /// filter was trained.
    OffPrediction {
        /// The file's observed FPR.
        observed: f64,
        /// The filter probes it was observed over.
        probes: u64,
        /// The FPR the CPFPR model predicted for the filter's design.
        predicted: f64,
    },
}

impl std::fmt::Display for FlagReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (observed, probes, against, bound) = match *self {
            FlagReason::HighFpr { observed, probes, threshold } => {
                (observed, probes, "threshold", threshold)
            }
            FlagReason::OffPrediction { observed, probes, predicted } => {
                (observed, probes, "predicted", predicted)
            }
        };
        write!(f, "observed {observed:.3} over {probes} probes vs {against} {bound:.3}")
    }
}

/// Decide whether `sst`'s filter should be re-trained, given the live sample
/// queue. Returns `None` for files without a filter (nothing to adapt),
/// under-observed files, and files that observe what their threshold and
/// their design allow.
pub fn flag_reason(sst: &SstReader, cfg: &DbConfig, queue: &QueryQueue) -> Option<FlagReason> {
    // No filter (zero budget, or a block that would not decode): nothing to
    // compare and nothing worth rewriting.
    let filter = sst.filter()?;
    let (n, observed) = (sst.observed_probes(), sst.observed_fpr());
    // The threshold backs off exponentially in the file's retrain count:
    // if re-training could not push the observed FPR under it (the budget
    // simply doesn't allow it for this workload), retraining again every
    // pass would burn CPU for nothing. Each retry needs twice the probe
    // evidence.
    let required = cfg.adapt_min_probes().saturating_mul(1u64 << sst.retrain_count().min(20));
    let threshold = cfg.adapt_fpr_threshold();
    if n >= required && observed > threshold {
        return Some(FlagReason::HighFpr { observed, probes: n, threshold });
    }
    // A design that still sees what it was chosen for does not flag here,
    // whatever its FPR.
    let predicted = filter.expected_fpr()?;
    let off = n >= cfg.adapt_min_probes()
        && observed > predicted
        && fpr_estimate_error_bound(n as usize, observed - predicted, observed)
            <= OFF_PREDICTION_ALPHA
        && queue.turned_over_since(sst.trained_at());
    off.then_some(FlagReason::OffPrediction { observed, probes: n, predicted })
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
    let (filter, trained_at) = keys.train(&sst.min_key, &sst.max_key, factory, queue, bits_per_key);
    let new_reader = sst.with_new_filter(filter, trained_at)?;
    stats.retrain_ns.add(t0.elapsed().as_nanos() as u64);
    stats.filters_retrained.inc();
    Ok(new_reader)
}

/// One full adaptive pass over `db`: flag, re-train, publish; returns the
/// number of filters re-trained. Runs under the worker lock, which every
/// compaction holds too, so no file it flags can be compacted away before
/// its replacement is published.
pub(crate) fn pass(db: &DbInner) -> Result<usize> {
    let version = db.version();
    let flagged: Vec<&Arc<SstReader>> = version
        .levels
        .iter()
        .flatten()
        .filter(|sst| flag_reason(sst, &db.cfg, &db.queue).is_some())
        .collect();
    db.stats.filters_flagged.add(flagged.len() as u64);
    let mut retrained = 0usize;
    for sst in flagged {
        // Re-training every flagged file can take a while right after a
        // shift (every live SST flags at once); re-check shutdown between
        // files so dropping the Db joins within one retrain.
        if db.shutting_down() {
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
        })?;
        retrained += 1;
    }
    Ok(retrained)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
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

    /// SST 1 over the 4 000 keys `i << 24`, filter trained on `queue`.
    fn build_sst_on(dir: &std::path::Path, queue: &QueryQueue) -> SstReader {
        let mut w = SstWriter::create(dir, 1, 8, 4096).unwrap();
        for i in 0..4_000u64 {
            w.add(&u64_key(i << 24), &[0u8; 32]).unwrap();
        }
        w.finish(&ProteusFactory::default(), queue, 12.0, &Stats::default()).unwrap()
    }

    /// One SST over clustered keys, filter trained on `train` queries.
    fn build_sst(dir: &std::path::Path, train: &[(u64, u64)]) -> (Arc<SstReader>, Arc<Stats>) {
        (Arc::new(build_sst_on(dir, &queue_of(train))), Arc::new(Stats::default()))
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
        let reason = flag_reason(&sst, &cfg, &live).expect("flagged");
        assert!(
            matches!(reason, FlagReason::HighFpr { observed, probes: 10, threshold }
                if (observed - 0.8).abs() < 1e-12 && threshold == 0.3),
            "{reason:?}"
        );
        assert_eq!(reason.to_string(), "observed 0.800 over 10 probes vs threshold 0.300");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_file_is_flagged_off_prediction_once_the_queue_has_turned_over() {
        let dir = tmpdir("off-prediction");
        let queue = queue_of(&queries(0, 300));
        let stats = Stats::default();
        // Five re-trains: the threshold now waits for 1 000 << 5 = 32 000
        // probes, more than this test records.
        let mut sst = Arc::new(build_sst_on(&dir, &queue));
        for _ in 0..5 {
            sst =
                Arc::new(retrain(&sst, &ProteusFactory::default(), &queue, 12.0, &stats).unwrap());
        }
        assert_eq!(sst.trained_at(), queue.recorded());
        let cfg = DbConfig::builder().adapt_min_probes(1_000).build().unwrap();
        let predicted = sst.filter().unwrap().expected_fpr().unwrap();
        assert!(predicted > 0.0 && predicted < cfg.adapt_fpr_threshold(), "{predicted}");
        // A queue that has long turned over since the filter was trained:
        // against it only the observed-vs-predicted test can hold a flag back.
        let moved_on = queue_of(&queries(0, 20_000));
        assert!(moved_on.turned_over_since(sst.trained_at()));

        // 1. 20 000 probes at the predicted rate, rounded up: the observed
        // FPR sits at or just above the prediction, and is never flagged.
        let mut fps = 0u64;
        for i in 1..=20_000u64 {
            let due = (i as f64 * predicted).ceil() as u64;
            sst.record_probe(due > fps);
            fps = due;
            assert_eq!(flag_reason(&sst, &cfg, &moved_on), None, "probe {i}");
        }
        // 2. Every probe a false positive: far off the prediction, and over
        // the threshold, but the queue the filter was trained on has not
        // turned over, so a re-train would see the same sample.
        for i in 0..2_000 {
            sst.record_probe(true);
            assert_eq!(flag_reason(&sst, &cfg, &queue), None, "false positive {i}");
        }
        assert!(sst.observed_fpr() > cfg.adapt_fpr_threshold());
        // The flag carries what it read: 22 000 probes, the observed FPR and
        // the design's prediction.
        let off_prediction = |reason: Option<FlagReason>| {
            matches!(reason,
                Some(FlagReason::OffPrediction { observed, probes: 22_000, predicted: p })
                    if observed == sst.observed_fpr() && p == predicted)
        };
        assert!(off_prediction(flag_reason(&sst, &cfg, &moved_on)));
        // 3. Half a queue of new queries: off its prediction, although the
        // threshold's back-off still holds `HighFpr` back.
        for (lo, hi) in queries(1_000, 9_999) {
            queue.offer(&u64_key(lo), &u64_key(hi));
        }
        assert_eq!(flag_reason(&sst, &cfg, &queue), None, "one query short of half");
        queue.offer(&u64_key(0), &u64_key(1));
        let reason = flag_reason(&sst, &cfg, &queue);
        assert!(off_prediction(reason), "{reason:?}");
        let shown = reason.expect("flagged").to_string();
        let want = format!("observed {:.3} over 22000 probes vs predicted ", sst.observed_fpr());
        assert!(shown.starts_with(&want), "{shown}");
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
        assert_eq!(new_reader.trained_at(), shifted.recorded());
        // The rewritten file reopens with the retrained filter in place (no
        // retraining on the recovery path), trained before this process.
        let reopened = SstReader::open(dir.join("00000001.sst"), 1).unwrap();
        let g = reopened.filter().expect("persisted retrained filter");
        assert_eq!(g.size_bits(), f.size_bits());
        assert_eq!(g.expected_fpr(), f.expected_fpr());
        assert_eq!(reopened.trained_at(), 0);
        let fresh = Stats::default();
        // Data blocks byte-identical to the original.
        let (mut x, mut y) = (Block::default(), Block::default());
        for b in 0..sst.n_blocks() {
            let stored = sst.read_block(b, &stats, &mut x).unwrap();
            assert_eq!(stored, reopened.read_block(b, &fresh, &mut y).unwrap(), "block {b}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_queue_that_misses_the_file_is_the_cold_start_case() {
        let dir = tmpdir("outside");
        let (sst, stats) = build_sst(&dir, &queries(0, 300));
        // Every queued query lies past the file's last key: its view is
        // empty, so the re-train falls back to the whole queue.
        let outside = queue_of(&queries(10_000, 300));
        let new_reader = retrain(&sst, &ProteusFactory::default(), &outside, 12.0, &stats).unwrap();
        let f = new_reader.filter().expect("retrained filter present");
        for i in (0..4_000u64).step_by(61) {
            assert!(f.may_contain(&u64_key(i << 24)), "key {i}");
        }
        // Unprobed, it is not flagged; the observed-FPR trigger works as for
        // any file (twice the evidence: the file has been re-trained once).
        let cfg =
            DbConfig::builder().adapt_min_probes(10).adapt_fpr_threshold(0.3).build().unwrap();
        assert_eq!(flag_reason(&new_reader, &cfg, &outside), None);
        for _ in 0..20 {
            new_reader.record_probe(true);
        }
        let reason = flag_reason(&new_reader, &cfg, &outside);
        assert!(
            matches!(reason, Some(FlagReason::HighFpr { observed, probes: 20, threshold })
                if observed == 1.0 && threshold == 0.3),
            "{reason:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
