//! The sample query queue (§6.1): "we create a fixed size query queue and
//! seed it with an initial query sample. Older queries are evicted with a
//! FIFO policy. … we use a queue size of 20K queries and update the queue
//! with every 100th executed empty query."
//!
//! A filter is never trained on the queue as a whole but on its file's
//! [`FileView`] of it ([`QueryQueue::view`]): the read path only asks a file
//! about queries that overlap its key range, clamped to that range, so that
//! is what the file's model must be fed.
//!
//! The queue also counts every query it records ([`QueryQueue::recorded`]).
//! A file remembers that count from when its filter was trained, so the
//! adapter can tell a filter that has met a new sample
//! ([`QueryQueue::turned_over_since`]) from one that would be re-trained on
//! the queries it was already trained on.
//!
//! The queue is internally synchronized so the concurrent `Db` can offer
//! queries from any reader thread and view it from the background
//! worker: the every-`n`-th subsampling counter is a
//! lone atomic (the common case — an offer that is *not* recorded — takes
//! no lock at all), and only the 1-in-`every` recorded offers, seeds and
//! snapshots touch the inner mutex.

use proteus_core::key::{pad_key, pad_key_into};
use proteus_core::keyset::KeySet;
use proteus_core::sync::{rank, Mutex};
use proteus_core::SampleQueries;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::PoisonError;

/// Floor on a file's view of the sample queue: with fewer queries of its
/// own a file has nothing to model, and its filter is trained on the whole
/// queue instead.
pub const MIN_VIEW_SAMPLES: usize = 64;

/// Fixed-capacity FIFO of recent empty range queries.
///
/// # Example
///
/// ```
/// use proteus_lsm::QueryQueue;
/// use proteus_core::key::u64_key;
///
/// // Keep 100 queries, recording every 2nd offer.
/// let queue = QueryQueue::new(100, 2);
/// queue.seed([(u64_key(10).to_vec(), u64_key(20).to_vec())]); // always recorded
/// queue.offer(&u64_key(30), &u64_key(40)); // 1st offer: skipped
/// queue.offer(&u64_key(50), &u64_key(60)); // 2nd offer: recorded
/// assert_eq!(queue.len(), 2);
/// assert_eq!(queue.offered(), 2);
///
/// // A file's view: the queries that reach it, clamped to its key range.
/// let view = queue.view(8, &u64_key(15), &u64_key(55));
/// assert_eq!(view.asked.len(), 2);
/// assert_eq!(view.asked.lo(0), u64_key(15));
/// assert_eq!(view.asked.hi(1), u64_key(55));
/// ```
#[derive(Debug)]
pub struct QueryQueue {
    inner: Mutex<VecDeque<(Vec<u8>, Vec<u8>)>>,
    capacity: usize,
    /// Record every `every`-th offered query.
    every: u64,
    offered: AtomicU64,
    /// Queries ever pushed, by `seed` or `offer`.
    recorded: AtomicU64,
}

/// What one file is asked, out of everything the queue holds.
#[derive(Debug, Clone)]
pub struct FileView {
    /// The queued queries that overlap the file's canonical `[min, max]`,
    /// clamped to it — exactly the bounds the read path hands the file's
    /// filter.
    pub asked: SampleQueries,
    /// Cold start: with fewer than [`MIN_VIEW_SAMPLES`] queries of its own
    /// a file has nothing to model, so it trains on the whole queue
    /// (unclamped) instead; `None` once `asked` suffices.
    pub cold_start: Option<SampleQueries>,
}

impl FileView {
    /// The sample the file's filter is trained on.
    pub fn training(&self) -> &SampleQueries {
        self.cold_start.as_ref().unwrap_or(&self.asked)
    }

    /// Keep only the queries that are empty for `keys` (the model's input
    /// contract).
    pub fn retain_empty(&mut self, keys: &KeySet) {
        self.asked.retain_empty(keys);
        if let Some(whole) = &mut self.cold_start {
            whole.retain_empty(keys);
        }
    }
}

impl QueryQueue {
    /// A queue holding at most `capacity` queries, recording every
    /// `every`-th offer (§6.1 uses 20 000 and 100); a 0 for either counts as 1.
    pub fn new(capacity: usize, every: u64) -> Self {
        let capacity = capacity.max(1);
        QueryQueue {
            inner: Mutex::new(rank::QUERY_QUEUE, VecDeque::with_capacity(capacity)),
            capacity,
            every: every.max(1),
            offered: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
        }
    }

    /// Seed with an initial sample (recorded unconditionally).
    pub fn seed(&self, queries: impl IntoIterator<Item = (Vec<u8>, Vec<u8>)>) {
        let mut q = self.lock_queue();
        for (lo, hi) in queries {
            self.push(&mut q, lo, hi);
        }
    }

    /// Offer an executed empty query; records every `every`-th one.
    /// Returns `true` if the query was recorded.
    pub fn offer(&self, lo: &[u8], hi: &[u8]) -> bool {
        let n = self.offered.fetch_add(1, Ordering::Relaxed) + 1;
        if !n.is_multiple_of(self.every) {
            return false;
        }
        let mut q = self.lock_queue();
        self.push(&mut q, lo.to_vec(), hi.to_vec());
        true
    }

    /// Total queries ever offered (recorded or not).
    pub fn offered(&self) -> u64 {
        self.offered.load(Ordering::Relaxed)
    }

    /// Queries ever recorded, by [`QueryQueue::seed`] or
    /// [`QueryQueue::offer`]: a mark in the queue's history.
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Has the queue taken in at least half its capacity of new queries
    /// since [`QueryQueue::recorded`] read `mark`? Until then a filter
    /// trained at `mark` would be re-trained on mostly the same sample.
    pub fn turned_over_since(&self, mark: u64) -> bool {
        self.recorded().saturating_sub(mark) >= (self.capacity as u64 / 2).max(1)
    }

    fn push(&self, q: &mut VecDeque<(Vec<u8>, Vec<u8>)>, lo: Vec<u8>, hi: Vec<u8>) {
        if q.len() == self.capacity {
            q.pop_front();
        }
        q.push_back((lo, hi));
        self.recorded.fetch_add(1, Ordering::Relaxed);
    }

    /// Take the queue lock, recovering from poison: the queue is a FIFO
    /// of sample queries whose per-entry pushes are atomic, so state left
    /// by a panicking caller (e.g. a `seed` iterator that panicked) is
    /// still a valid queue — sampling must keep working afterwards.
    fn lock_queue(&self) -> proteus_core::sync::MutexGuard<'_, VecDeque<(Vec<u8>, Vec<u8>)>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queries currently recorded.
    pub fn len(&self) -> usize {
        self.lock_queue().len()
    }

    /// True when no query has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The view of the file whose keys span `[min_key, max_key]`, at the
    /// file's filter width: the one sample source of filter training (flush,
    /// compaction, re-train).
    pub fn view(&self, width: usize, min_key: &[u8], max_key: &[u8]) -> FileView {
        let whole = self.snapshot(width);
        let (min, max) = (pad_key(min_key, width), pad_key(max_key, width));
        let mut asked = SampleQueries::new(width);
        for (lo, hi) in whole.iter() {
            if let Some((lo, hi)) = clamp_to_file(lo, hi, &min, &max) {
                asked.push(lo, hi);
            }
        }
        let cold_start = (asked.len() < MIN_VIEW_SAMPLES).then_some(whole);
        FileView { asked, cold_start }
    }

    /// Copy the current contents into a [`SampleQueries`]. Recorded bounds
    /// are arbitrary-length byte strings; each is canonicalized to `width`
    /// the same way filter keys are (NUL-pad + truncate — order-preserving,
    /// so a canonicalized sample still brackets the canonicalized keys it
    /// originally bracketed).
    fn snapshot(&self, width: usize) -> SampleQueries {
        let q = self.lock_queue();
        let mut s = SampleQueries::new(width);
        let (mut clo, mut chi) = (vec![0u8; width], vec![0u8; width]);
        for (lo, hi) in q.iter() {
            pad_key_into(lo, &mut clo);
            pad_key_into(hi, &mut chi);
            if !lo.is_empty() && !hi.is_empty() && clo <= chi {
                s.push(&clo, &chi);
            }
        }
        s
    }
}

/// The part of the query `[lo, hi]` a file spanning `[min, max]` is asked
/// about: `None` if they do not overlap, else the query clamped to the
/// file. The read path's `admit` and [`QueryQueue::view`] both clamp here,
/// so a filter is trained on the bounds it will be probed with.
pub(crate) fn clamp_to_file<'a>(
    lo: &'a [u8],
    hi: &'a [u8],
    min: &'a [u8],
    max: &'a [u8],
) -> Option<(&'a [u8], &'a [u8])> {
    (lo <= max && hi >= min).then(|| (lo.max(min), hi.min(max)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_core::key::u64_key;

    #[test]
    fn fifo_eviction() {
        let q = QueryQueue::new(3, 1);
        for i in 0..5u64 {
            q.offer(&u64_key(i * 10), &u64_key(i * 10 + 1));
        }
        assert_eq!(q.len(), 3);
        let s = q.snapshot(8);
        assert_eq!(proteus_core::key::key_u64(s.lo(0)), 20);
        assert_eq!(proteus_core::key::key_u64(s.lo(2)), 40);
    }

    #[test]
    fn subsampling_every_nth() {
        let q = QueryQueue::new(100, 100);
        for i in 0..1000u64 {
            q.offer(&u64_key(i), &u64_key(i + 1));
        }
        assert_eq!(q.len(), 10, "every 100th of 1000 offers");
        assert_eq!(q.offered(), 1000);
        assert_eq!(q.recorded(), 10);
    }

    #[test]
    fn seed_bypasses_subsampling() {
        let q = QueryQueue::new(100, 100);
        q.seed((0..20u64).map(|i| (u64_key(i).to_vec(), u64_key(i + 1).to_vec())));
        assert_eq!(q.len(), 20);
        assert_eq!(q.recorded(), 20);
        // Half the capacity since a mark turns the queue over; evictions
        // do not count down.
        assert!(!q.turned_over_since(0));
        q.seed((0..30u64).map(|i| (u64_key(i).to_vec(), u64_key(i + 1).to_vec())));
        assert!(q.turned_over_since(0) && !q.turned_over_since(1));
    }

    #[test]
    fn capacity_one_queue_keeps_the_newest_query_from_either_path() {
        // `seed` and `offer` evict the same way: the smallest queue holds
        // whichever query came last, and every recorded query turns it over.
        let q = QueryQueue::new(1, 1);
        q.seed((0..10u64).map(|i| (u64_key(i).to_vec(), u64_key(i + 1).to_vec())));
        assert_eq!(q.len(), 1);
        assert_eq!(proteus_core::key::key_u64(q.snapshot(8).lo(0)), 9);
        assert!(q.turned_over_since(9) && !q.turned_over_since(10));
        for i in 20..30u64 {
            assert!(q.offer(&u64_key(i), &u64_key(i + 1)), "every offer is recorded");
        }
        assert_eq!((q.len(), q.offered(), q.recorded()), (1, 10, 20));
        assert_eq!(proteus_core::key::key_u64(q.snapshot(8).lo(0)), 29);
    }

    #[test]
    fn snapshot_is_usable_sample() {
        let q = QueryQueue::new(10, 1);
        q.offer(&u64_key(5), &u64_key(10));
        let s = q.snapshot(8);
        assert_eq!(s.len(), 1);
        assert_eq!(s.width(), 8);
    }

    #[test]
    fn view_is_the_overlapping_queries_clamped_to_the_file() {
        let q = QueryQueue::new(1_000, 1);
        // 100 queries [10i, 10i + 15]; the file spans [200, 985].
        for i in 0..100u64 {
            q.offer(&u64_key(10 * i), &u64_key(10 * i + 15));
        }
        let view = q.view(8, &u64_key(200), &u64_key(985));
        // Queries 19 (ends at 205) through 98 (starts at 980) reach it.
        assert_eq!(view.asked.len(), 80);
        assert!(view.cold_start.is_none());
        let bounds: Vec<(u64, u64)> = view
            .asked
            .iter()
            .map(|(lo, hi)| (proteus_core::key::key_u64(lo), proteus_core::key::key_u64(hi)))
            .collect();
        assert_eq!(bounds[0], (200, 205), "clamped to the file's first key");
        assert_eq!(bounds[1], (200, 215));
        assert_eq!(bounds[2], (210, 225), "inside: untouched");
        assert_eq!(bounds[79], (980, 985), "clamped to the file's last key");
        assert_eq!(view.training().len(), 80);
        // Too few of its own (here: none): the whole queue, unclamped, is
        // the training sample, and the view stays what it is.
        let cold = q.view(8, &u64_key(5_000), &u64_key(6_000));
        assert!(cold.asked.is_empty());
        assert_eq!(cold.training().len(), 100);
        assert_eq!(proteus_core::key::key_u64(cold.training().lo(0)), 0);
    }

    #[test]
    fn poisoned_queue_keeps_sampling() {
        // Regression test for a panic-reachable site: `seed` takes the
        // inner lock and then drives a caller-supplied iterator, so a
        // panicking iterator poisons the mutex. Every later accessor used
        // `.lock().unwrap()` and panicked on the poison — one adaptation
        // tick's panic would take down every subsequent reader's `offer`
        // and the background worker's `snapshot`. With poison recovery this
        // test passes: the queue holds whatever was pushed before the
        // panic (entry-at-a-time pushes keep it a valid FIFO) and keeps
        // recording.
        let q = QueryQueue::new(10, 1);
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                q.seed((0..5u64).map(|i| {
                    if i == 3 {
                        panic!("iterator blew up mid-seed");
                    }
                    (u64_key(i).to_vec(), u64_key(i + 1).to_vec())
                }));
            })
            .join()
        });
        assert!(panicked.is_err(), "the seeding thread must have panicked");
        // Failing-before: each of these was an unconditional poison panic.
        assert_eq!(q.len(), 3, "entries pushed before the panic survive");
        assert!(q.offer(&u64_key(90), &u64_key(91)), "offer must keep recording");
        assert_eq!(q.len(), 4);
        assert_eq!(q.snapshot(8).len(), 4, "snapshot must keep working");
        assert!(!q.is_empty());
    }

    #[test]
    fn concurrent_offers_record_exact_subsample() {
        // 8 threads × 1000 offers at every=100 must record exactly 80
        // queries: the atomic counter never double-counts or skips.
        let q = QueryQueue::new(1_000, 100);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let q = &q;
                s.spawn(move || {
                    for i in 0..1000u64 {
                        q.offer(&u64_key(t << 32 | i), &u64_key(t << 32 | (i + 1)));
                    }
                });
            }
        });
        assert_eq!(q.offered(), 8_000);
        assert_eq!(q.len(), 80);
    }
}
