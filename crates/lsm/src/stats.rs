//! Execution statistics: the observables behind every §6 figure — I/O
//! counts, filter outcomes, compaction work and filter-construction cost.

use std::sync::atomic::{AtomicU64, Ordering};

/// A relaxed atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `v` to the counter.
    #[inline]
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }
    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
    /// Overwrite the value (used for gauges like `sampled_queries`).
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }
}

/// `num / den`, `0` while nothing has been counted (`den == 0`).
pub(crate) fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Declares [`Stats`] and [`StatsSnapshot`] from one counter list: the
/// `Stats` field (a [`Counter`], with the doc comment given here),
/// [`Stats::snapshot`], the `StatsSnapshot` field (a `u64` of the same
/// name) and [`StatsSnapshot::delta`]. `gauges` are `Stats` fields that
/// hold a level rather than a running count, so they have no place in a
/// snapshot difference.
macro_rules! stats {
    (
        counters { $( $(#[$doc:meta])* $name:ident, )* }
        gauges { $( $(#[$gdoc:meta])* $gauge:ident, )* }
    ) => {
        /// Database-wide counters.
        #[derive(Debug, Default)]
        pub struct Stats {
            $( $(#[$doc])* pub $name: Counter, )*
            $( $(#[$gdoc])* pub $gauge: Counter, )*
        }

        impl Stats {
            /// Snapshot all counters (for diffing across experiment phases).
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot { $( $name: self.$name.get(), )* }
            }
        }

        /// A point-in-time copy of [`Stats`]. Each field mirrors the counter of
        /// the same name; see the [`Stats`] field docs for the semantics.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        #[allow(missing_docs)] // field semantics documented once, on `Stats`
        pub struct StatsSnapshot {
            $( pub $name: u64, )*
        }

        impl StatsSnapshot {
            /// Counter-wise difference (for per-phase reporting).
            pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot { $( $name: self.$name - earlier.$name, )* }
            }
        }
    };
}

stats! {
    counters {
        /// Range Seeks issued.
        seeks,
        /// Exact-key `get` lookups issued.
        gets,
        /// `delete` operations issued (tombstones written), including deletes
        /// inside `WriteBatch`es.
        deletes,
        /// Ordered `range` scans started.
        range_scans,
        /// Tombstones dropped by compactions that reached the bottom of the
        /// tree (nothing older left to shadow).
        tombstones_dropped,
        /// Seeks answered without touching any SST (all filters negative or no
        /// overlapping file).
        seeks_filtered,
        /// Seeks that found a key.
        seeks_found,
        /// Seeks whose first live answer came from a MemTable (active or
        /// immutable). These never feed the sample queue: §6.1 samples
        /// *executed empty* queries only.
        seeks_memtable,
        /// Rows scan cursors materialized (copied) out of MemTables, active
        /// or frozen: what a scan pays for the MemTable layers, whether or
        /// not the merge went on to yield the row.
        memtable_rows_read,
        /// Executed empty queries offered to the sample queue (each may or may
        /// not be recorded, per the every-`n`-th subsampling policy).
        sample_offers,
        /// Active-MemTable rotations into the immutable flush queue.
        memtable_rotations,
        /// Nanoseconds writers spent stalled on flush backpressure (the
        /// immutable-memtable queue was full).
        write_stall_ns,
        /// Per-SST filter probes that returned negative.
        filter_negatives,
        /// Per-SST filter probes that returned positive but the SST had no key
        /// in range (a false positive costing real I/O).
        filter_false_positives,
        /// Per-SST filter probes that returned positive and were right.
        filter_true_positives,
        /// Data blocks fetched from disk.
        blocks_read,
        /// Bytes fetched from disk.
        bytes_read,
        /// Block-cache hits.
        cache_hits,
        /// MemTable flushes.
        flushes,
        /// Compactions that merged their inputs into new files.
        compactions,
        /// Compactions that moved their one input file a level down as it
        /// was — a `MANIFEST` edit, with nothing written, trained or retired
        /// — because nothing in the target level overlapped it.
        trivial_moves,
        /// SST filters constructed at flush and compaction (includes
        /// modeling). A file whose budget rounds to zero bits gets no filter
        /// and is not counted.
        filters_built,
        /// Total nanoseconds spent building those filters (modeling +
        /// construction).
        filter_build_ns,
        /// SST files recovered from disk by `Db::open`.
        ssts_recovered,
        /// Filters decoded from persisted SST filter blocks (no retraining).
        filters_loaded,
        /// Total nanoseconds spent decoding persisted filters.
        filter_load_ns,
        /// Persisted filter blocks that would not decode — corrupt bytes, or
        /// a kind tag this build does not know (a newer build's, or the
        /// retired tag 0) — so their SSTs open without a filter.
        filters_degraded,
        /// Filter probes (real filters only) that answered positive for an SST
        /// with no key in range — the adaptive lifecycle's per-probe false
        /// positive evidence (also accumulated per SST), over the true
        /// negatives in [`Stats::filter_negatives`].
        observed_fp,
        /// SSTs flagged for re-training, for either [`crate::adapt::FlagReason`]:
        /// observed FPR over the threshold, or off its filter's prediction.
        filters_flagged,
        /// Filters re-trained in the background by the adaptive lifecycle
        /// (filter block rewritten in place; data blocks untouched).
        filters_retrained,
        /// Total nanoseconds spent re-training (key scan + modeling +
        /// construction + filter-block rewrite).
        retrain_ns,
        /// WAL commit records appended (a `WriteBatch` is one record).
        wal_appends,
        /// `fdatasync` calls issued against WAL segments that covered at least
        /// one unsynced commit (group-commit leader syncs, interval syncs, and
        /// non-empty rotation seals). The denominator of
        /// [`StatsSnapshot::mean_group_commit`]; syncs that covered nothing are
        /// counted in [`Stats::wal_empty_seals`] instead so the mean is not
        /// deflated by empty rotations.
        wal_syncs,
        /// Rotation seals whose `fdatasync` covered zero unsynced commits
        /// (every record was already durable when the MemTable rotated).
        wal_empty_seals,
        /// Bytes of WAL records appended (headers excluded).
        wal_bytes,
        /// Total commits covered across all WAL syncs; the mean group-commit
        /// size is `group_commit_sizes / wal_syncs` (see
        /// [`StatsSnapshot::mean_group_commit`]).
        group_commit_sizes,
        /// Commit records replayed from surviving WAL segments by
        /// [`crate::Db::open`] (zero on a clean reopen).
        wal_replayed_records,
    }
    gauges {
        /// Keys currently queued as sample queries.
        sampled_queries,
    }
}

impl StatsSnapshot {
    /// Mean commits per WAL sync — the group-commit amortization factor
    /// (`1.0` means every commit paid its own `fdatasync`; `0` before any
    /// sync).
    pub fn mean_group_commit(&self) -> f64 {
        ratio(self.group_commit_sizes, self.wal_syncs)
    }

    /// Observed empirical FPR of real filter probes (the adaptive
    /// lifecycle's database-wide signal): `observed_fp / (observed_fp +
    /// filter_negatives)`, `0` before any probe.
    pub fn observed_fpr(&self) -> f64 {
        ratio(self.observed_fp, self.observed_fp + self.filter_negatives)
    }

    /// Observed false positive rate of the per-SST filters.
    pub fn filter_fpr(&self) -> f64 {
        ratio(self.filter_false_positives, self.filter_false_positives + self.filter_negatives)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = Stats::default();
        s.seeks.inc();
        s.seeks.add(4);
        assert_eq!(s.seeks.get(), 5);
    }

    #[test]
    fn fpr_computation() {
        let s = Stats::default();
        assert_eq!(s.snapshot().filter_fpr(), 0.0);
        s.filter_false_positives.add(1);
        s.filter_negatives.add(9);
        assert!((s.snapshot().filter_fpr() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn mean_group_commit_amortization() {
        let s = Stats::default();
        assert_eq!(s.snapshot().mean_group_commit(), 0.0);
        s.wal_syncs.add(2);
        s.group_commit_sizes.add(10);
        assert!((s.snapshot().mean_group_commit() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn snapshot_delta() {
        let s = Stats::default();
        s.blocks_read.add(10);
        let a = s.snapshot();
        s.blocks_read.add(7);
        s.seeks.add(3);
        let b = s.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.blocks_read, 7);
        assert_eq!(d.seeks, 3);
    }
}
