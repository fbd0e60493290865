//! The read path: which layers a read over `[lo, hi]` visits, in what
//! order, and how each filter probe's outcome is counted — one decision,
//! made here, for [`crate::Db::get`], [`crate::Db::seek`] and
//! [`crate::Db::range`] alike.
//!
//! Every read walks the layers that can hold a version of a key in
//! recency order:
//!
//! 1. the active MemTable,
//! 2. the immutable (rotated) MemTables, newest first,
//! 3. the SSTs `Version::candidates` yields: L0 newest first, then one
//!    binary-searched run per deeper, disjoint level, shallowest first.
//!
//! Each candidate SST is admitted through its range filter first
//! (`admit`); a filter negative skips the file without I/O,
//! which is what makes reads over a cold, provably-empty region cheap
//! (§6.1). An admitted file hands back a `Probe` that is settled once
//! the read knows whether the file held anything in range —
//! `Probe::settle` is the only place the filter ledgers (`filter_*`,
//! `observed_*`, the per-SST probe window) move.
//!
//! Two consumers share that walk. `get` is the *point* consumer: the first
//! layer with any record of the key — live or tombstone — settles the
//! answer, so older layers are never probed. [`RangeIter`] is the *cursor*
//! consumer: the k-way `Merge` over all layers with tombstones
//! suppressed, and `seek` is its first `next()` plus the §6.1
//! sample-queue offer.
//!
//! `Merge` is the store's only merge of sorted runs. It owns the heap, the
//! `(key, rank)` order and the shadowing rule, and yields the newest
//! record per key — tombstone or not — as an un-materialized position.
//! Compaction is the same merge over the same [`SstCursor`]s, fetching
//! blocks straight from the files instead of through the cache, with its
//! own tombstone policy on top.
//!
//! A scan reads the MemTables *in place*. Under one short hold of the
//! store's MemTable lock, construction visits every table (active and
//! frozen) — noting its current batch stamp and seeking it to `lo` — and
//! takes the `Arc`-swapped `Version` snapshot: the scan's whole view, as
//! of that instant. Each table with anything in range becomes a
//! `MemCursor`: the table's `Arc` plus a node id in the table as of the
//! noted stamp (see [`crate::memtable`]), which from then on materializes
//! one row per refill under a table read lock held just for that row (an
//! empty table costs one uncontended lock and nothing else). Writes that
//! land later carry later stamps and are invisible to it — a whole batch
//! at a time — and since the iterator owns the tables and the files it
//! reads, a rotation, flush or compaction mid-scan hides nothing from it.
//! Between `next()` calls a scan holds no lock at all.
//!
//! Admitted SSTs are read *lazily*: each starts as an unread heap entry
//! keyed by the smallest key it could contribute (`max(lo, min_key)`)
//! and only pays its first block read when the merge actually reaches
//! that position. A `seek` that is satisfied early therefore never
//! touches the files behind its first hit — and those files accumulate
//! no false-positive evidence for a probe whose I/O was never paid.
//!
//! SST positions flow through the merge *zero-copy*: a heap item holds
//! an `(Arc<Block>, index)` position and compares by the key slice
//! borrowed from the decoded block. Bytes are materialized only for the
//! entry a consumer keeps — shadowed duplicates and suppressed tombstones
//! cost no allocation at all, and compaction hands the borrowed slices
//! straight to the SST writer. When a single source survives
//! admission the merge skips the shadow-key bookkeeping (one source never
//! yields duplicates).
//!
//! Shadowing: for equal keys the source with the lower rank (newer layer)
//! wins; older duplicates are skipped. In a [`RangeIter`] a winning
//! tombstone suppresses the key entirely — it yields *live* entries
//! only, sorted and deduplicated.
//!
//! Errors: an I/O or corruption failure is reported once and ends the
//! iteration. A failure while *refilling* a source never discards an
//! entry the merge had already determined — the entry is yielded first
//! and the error surfaces on the following `next()` call.

use crate::block::Block;
use crate::config::MAX_KEY_BYTES;
use crate::db::{read_table, DbInner, SharedTable, Version};
use crate::error::{Error, Result};
use crate::memtable::{Cursor, MemTable};
use crate::query_queue::clamp_to_file;
use crate::sst::{SstCursor, SstReader};
use crate::stats::Stats;
use proteus_core::key::{pad_key_into, INLINE_KEY_BYTES};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

impl Version {
    /// Every SST that can hold a key in `[lo, hi]`, newest layer first:
    /// the overlapping L0 files in reverse flush order, then for each
    /// deeper (sorted, disjoint) level the run of files the range touches,
    /// found by binary search. For a point range that is at most one file
    /// per deeper level.
    pub(crate) fn candidates<'v>(
        &'v self,
        lo: &'v [u8],
        hi: &'v [u8],
    ) -> impl Iterator<Item = &'v Arc<SstReader>> + 'v {
        let (l0, deeper) = match self.levels.split_first() {
            Some((l0, deeper)) => (l0.as_slice(), deeper),
            None => (&[][..], &[][..]),
        };
        l0.iter().rev().filter(move |s| s.overlaps(lo, hi)).chain(deeper.iter().flat_map(
            move |level| {
                let start = level.partition_point(|s| s.max_key.as_slice() < lo);
                level[start..].iter().take_while(move |s| s.min_key.as_slice() <= hi)
            },
        ))
    }
}

/// One filter probe awaiting its outcome: what the file's filter said
/// about a range, to be settled once the read knows what the file held.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Probe {
    /// Did the filter (or the absence of one) let the read through?
    passed: bool,
    /// Did an actual filter answer? False for filterless/degraded files,
    /// whose "positives" say nothing about any filter's quality.
    real: bool,
}

impl Probe {
    /// Record the probe's outcome — the single site that moves the filter
    /// ledgers. `found` says whether the file held any entry in the probed
    /// range (a tombstone counts: the file had to be read to see it).
    ///
    /// * found → true positive;
    /// * passed but nothing there → false positive: the read paid I/O
    ///   for nothing;
    /// * not passed → negative: the filter proved the range empty.
    ///
    /// Only real filters feed the observed-FPR evidence (store-wide
    /// `observed_fp` over `filter_negatives` — only a real filter answers
    /// negative — and the per-SST window an adaptive pass reads).
    fn settle(self, stats: &Stats, sst: &SstReader, found: bool) {
        if found {
            stats.filter_true_positives.inc();
            return;
        }
        if self.passed {
            stats.filter_false_positives.inc();
        } else {
            stats.filter_negatives.inc();
        }
        if self.real {
            sst.record_probe(self.passed);
            if self.passed {
                stats.observed_fp.inc();
            }
        }
    }
}

/// Smallest valid key strictly greater than `key` in the
/// variable-length byte-string order, if one exists within
/// [`MAX_KEY_BYTES`] (used to normalize `Bound::Excluded` lower bounds).
/// Below the length cap the successor is simply `key ++ 0x00`; at the
/// cap it is the big-endian increment, and an all-`0xFF` key at the cap
/// has no successor.
fn key_successor(key: &[u8]) -> Option<Vec<u8>> {
    let mut k = key.to_vec();
    if k.len() < MAX_KEY_BYTES {
        k.push(0x00);
        return Some(k);
    }
    for b in k.iter_mut().rev() {
        if *b < 0xFF {
            *b += 1;
            return Some(k);
        }
        *b = 0;
    }
    None
}

/// Largest valid key strictly smaller than `key` in the
/// variable-length byte-string order, if one exists (normalizes
/// `Bound::Excluded` upper bounds). A key ending in `0x00` shrinks to
/// its prefix; otherwise the last byte decrements and the key extends
/// with `0xFF` to the length cap. The single-byte key `[0x00]` has no
/// valid (non-empty) predecessor.
fn key_predecessor(key: &[u8]) -> Option<Vec<u8>> {
    let mut k = key.to_vec();
    if k.last() == Some(&0x00) {
        k.pop();
        if k.is_empty() {
            return None;
        }
        return Some(k);
    }
    if let Some(b) = k.last_mut() {
        *b -= 1;
    }
    k.resize(MAX_KEY_BYTES, 0xFF);
    Some(k)
}

impl DbInner {
    /// Normalize arbitrary `RangeBounds` into inclusive canonical keys.
    /// `Ok(None)` means the range is provably empty (inverted, or an
    /// excluded bound fell off the key space).
    pub(crate) fn resolve_bounds<K: AsRef<[u8]>>(
        &self,
        range: impl RangeBounds<K>,
    ) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
        let lo = match range.start_bound() {
            Bound::Unbounded => vec![0x00],
            Bound::Included(k) => {
                self.check_key(k.as_ref())?;
                k.as_ref().to_vec()
            }
            Bound::Excluded(k) => {
                self.check_key(k.as_ref())?;
                match key_successor(k.as_ref()) {
                    Some(s) => s,
                    None => return Ok(None),
                }
            }
        };
        let hi = match range.end_bound() {
            Bound::Unbounded => vec![0xFFu8; MAX_KEY_BYTES],
            Bound::Included(k) => {
                self.check_key(k.as_ref())?;
                k.as_ref().to_vec()
            }
            Bound::Excluded(k) => {
                self.check_key(k.as_ref())?;
                match key_predecessor(k.as_ref()) {
                    Some(p) => p,
                    None => return Ok(None),
                }
            }
        };
        Ok((lo <= hi).then_some((lo, hi)))
    }

    /// Probe `sst`'s filter for `[lo, hi]` (clamped to the file's key
    /// range — the filter only describes this file's keys). `None` means
    /// the filter proved the range empty for this file (settled as a
    /// negative; skip it). `Some(probe)` admits the file; the caller
    /// settles the probe once it knows whether the file held anything.
    fn admit(&self, sst: &SstReader, lo: &[u8], hi: &[u8]) -> Option<Probe> {
        let probe = match sst.filter() {
            Some(filter) => {
                // `candidates` only yields files the range overlaps.
                let (flo, fhi) =
                    clamp_to_file(lo, hi, &sst.min_key, &sst.max_key).unwrap_or((lo, hi));
                // The filter was trained on keys canonicalized to the
                // file's fixed training width (NUL-pad + truncate, which
                // is order-preserving), so probes must be canonicalized
                // the same way — padding both bounds keeps the no-false-
                // negative guarantee for the raw range. Bounds already
                // that wide (every `u64` workload) are probed in place.
                let width = sst.filter_width();
                let passed = if flo.len() == width && fhi.len() == width {
                    filter.may_contain_range(flo, fhi)
                } else {
                    // `pad_key` on the stack: a filter width never exceeds
                    // `INLINE_KEY_BYTES`.
                    let (mut a, mut b) = ([0u8; INLINE_KEY_BYTES], [0u8; INLINE_KEY_BYTES]);
                    pad_key_into(flo, &mut a[..width]);
                    pad_key_into(fhi, &mut b[..width]);
                    filter.may_contain_range(&a[..width], &b[..width])
                };
                Probe { passed, real: true }
            }
            None => Probe { passed: true, real: false },
        };
        if probe.passed {
            Some(probe)
        } else {
            probe.settle(&self.stats, sst, false);
            None
        }
    }

    /// Read block `b` of `sst` straight from the file, bypassing the block
    /// cache: background work (compaction) touches every input block
    /// exactly once and must not evict what foreground reads keep warm.
    pub(crate) fn uncached_block(&self, sst: &Arc<SstReader>, b: usize) -> Result<Arc<Block>> {
        sst.read_block(b, &self.stats).map(Arc::new)
    }

    /// Read block `b` of `sst` through the sharded cache.
    fn cached_block(&self, sst: &Arc<SstReader>, b: usize) -> Result<Arc<Block>> {
        let id = (sst.id, b as u32);
        if let Some(block) = self.cache.get(id) {
            self.stats.cache_hits.inc();
            return Ok(block);
        }
        let block = Arc::new(sst.read_block(b, &self.stats)?);
        // Don't cache blocks of a compaction-retired file (we may be
        // reading it through an older snapshot): dead entries would squat
        // on cache budget forever since SST ids are never reused. The
        // double-check undoes an insert that raced with the retire+purge.
        if !sst.is_retired() {
            self.cache.insert(id, Arc::clone(&block));
            if sst.is_retired() {
                self.cache.remove(id);
            }
        }
        Ok(block)
    }

    /// Exact-key read; see [`crate::Db::get`]. The point consumer of the
    /// layer walk: any record — live or tombstone — settles the answer,
    /// because it shadows everything older.
    pub(crate) fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.check_key(key)?;
        self.stats.gets.inc();
        {
            let mem = self.mem_read()?;
            for table in mem.tables() {
                if let Some(v) = read_table(table)?.get(key) {
                    return Ok(v.map(<[u8]>::to_vec));
                }
            }
        }
        let version = self.version();
        for sst in version.candidates(key, key) {
            let Some(probe) = self.admit(sst, key, key) else { continue };
            let record = self.find_in_sst(sst, key)?;
            probe.settle(&self.stats, sst, record.is_some());
            if let Some(value) = record {
                return Ok(value);
            }
        }
        Ok(None)
    }

    /// `sst`'s record of `key`: outer `None` = the file has none (keep
    /// looking in older layers); `Some(None)` = tombstone; `Some(Some(v))`
    /// = live value.
    fn find_in_sst(&self, sst: &Arc<SstReader>, key: &[u8]) -> Result<Option<Option<Vec<u8>>>> {
        let b = sst.first_candidate_block(key);
        if b < sst.n_blocks() && sst.block_meta(b).first_key.as_slice() <= key {
            let block = self.cached_block(sst, b)?;
            let i = block.lower_bound(key);
            if i < block.len() && block.key(i) == key {
                return Ok(Some(block.entry(i).1.map(<[u8]>::to_vec)));
            }
        }
        Ok(None)
    }

    /// The §6.1 closed `Seek`; see [`crate::Db::seek`]. Builds the
    /// filter-admitted merge over `[lo, hi]`, asks for its first live
    /// entry, and offers an executed-empty query to the sample queue.
    pub(crate) fn seek(&self, lo: &[u8], hi: &[u8]) -> Result<bool> {
        self.check_key(lo)?;
        self.check_key(hi)?;
        self.stats.seeks.inc();
        if lo > hi {
            // An inverted range is empty by definition: no I/O, no error,
            // and no sample offer (it is not a meaningful empty query).
            self.stats.seeks_filtered.inc();
            return Ok(false);
        }
        let mut it = RangeIter::new(self, lo, hi)?;
        match it.next() {
            Some(Ok(_)) => {
                self.stats.seeks_found.inc();
                if it.first_from_memtable == Some(true) {
                    self.stats.seeks_memtable.inc();
                }
                Ok(true)
            }
            Some(Err(e)) => Err(e),
            None => {
                if !it.io_paid {
                    self.stats.seeks_filtered.inc();
                }
                // Truly-executed empty query: feed the sample queue
                // (§6.1). The gauge is only refreshed when the queue
                // recorded the query, so the 1-in-`sample_every` common
                // case stays mutex-free for readers.
                self.stats.sample_offers.inc();
                if self.queue.offer(lo, hi) {
                    self.stats.sampled_queries.set(self.queue.len() as u64);
                }
                Ok(false)
            }
        }
    }
}

/// How a merge's SST cursors obtain their blocks: through the block cache
/// ([`DbInner::cached_block`], foreground reads) or straight from the
/// file ([`DbInner::uncached_block`], compaction).
pub(crate) type BlockFetch = fn(&DbInner, &Arc<SstReader>, usize) -> Result<Arc<Block>>;

/// Where a merged record lives. Only `Mem` owns its bytes (its cursor
/// copied the row out under the table's lock); an SST record stays a
/// borrowed position inside its decoded block, held alive by the `Arc`.
pub(crate) enum Pos {
    /// A MemTable row its cursor materialized.
    Mem(Vec<u8>, Option<Vec<u8>>),
    /// An entry of a decoded SST block.
    Block(Arc<Block>, u32),
}

impl Pos {
    /// The record's key, borrowed (what the heap compares by).
    fn key(&self) -> &[u8] {
        match self {
            Pos::Mem(k, _) => k,
            Pos::Block(b, i) => b.key(*i as usize),
        }
    }

    /// The record's key and value (`None` = tombstone), borrowed.
    pub(crate) fn entry(&self) -> (&[u8], Option<&[u8]>) {
        match self {
            Pos::Mem(k, v) => (k, v.as_deref()),
            Pos::Block(b, i) => b.entry(*i as usize),
        }
    }

    /// Materialize a live record's bytes; `None` for a tombstone, which
    /// costs no copy at all.
    fn into_live(self) -> Option<(Vec<u8>, Vec<u8>)> {
        match self {
            Pos::Mem(k, v) => Some((k, v?)),
            Pos::Block(b, i) => {
                let (k, v) = b.entry(i as usize);
                Some((k.to_vec(), v?.to_vec()))
            }
        }
    }
}

/// The head of one merge source as it sits in the heap.
enum Head {
    /// An SST source whose first block has not been read yet; the key is
    /// a lower bound on whatever the file will contribute.
    Unread(Vec<u8>),
    /// The source's current record.
    At(Pos),
}

/// One heap entry: the source's rank (recency; lower = newer) plus its
/// head.
struct HeapItem {
    rank: usize,
    head: Head,
}

impl HeapItem {
    fn key(&self) -> &[u8] {
        match &self.head {
            Head::Unread(k) => k,
            Head::At(pos) => pos.key(),
        }
    }
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for HeapItem {}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapItem {
    /// Inverted so `BinaryHeap` (a max-heap) pops the smallest
    /// `(key, rank)` first: ascending keys, newest layer on ties.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(self.key()).then_with(|| other.rank.cmp(&self.rank))
    }
}

/// One MemTable as a merge source: a position in the shared table as of
/// the stamp the scan was built at. It owns the table (`Arc`), so the
/// view outlives the table's rotation and flush, and takes the table's
/// read lock only for the length of one row copy.
struct MemCursor {
    table: SharedTable,
    cur: Cursor,
    /// Inclusive upper clamp.
    hi: Vec<u8>,
}

/// Copy the next row of `cur`'s view out of `table` (`None` = exhausted).
fn next_row(table: &MemTable, cur: &mut Cursor, hi: &[u8], stats: &Stats) -> Option<Pos> {
    let (k, v) = table.advance(cur, Some(hi))?;
    stats.memtable_rows_read.inc();
    Some(Pos::Mem(k.to_vec(), v.map(<[u8]>::to_vec)))
}

enum Source {
    Mem(MemCursor),
    /// An SST cursor plus, on the read path, the filter probe that
    /// admitted the file — settled when the cursor's head is first read.
    Sst(SstCursor, Option<Probe>),
}

/// The one k-way merge over sorted runs: owns the heap, the `(key, rank)`
/// order and the shadowing rule. Sources are pushed newest first (push
/// order = rank); iteration yields, per distinct key in ascending order,
/// the newest record — a tombstone included — as an un-materialized
/// [`Pos`] together with the rank of the source that supplied it. What to
/// do with a tombstone is the consumer's policy: [`RangeIter`] suppresses
/// it, compaction carries it or drops it at the bottom of the tree.
pub(crate) struct Merge<'a> {
    db: &'a DbInner,
    fetch: BlockFetch,
    heap: BinaryHeap<HeapItem>,
    sources: Vec<Source>,
    /// The last key yielded, to recognise its older versions.
    last_key: Option<Vec<u8>>,
    /// A refill failure held back so the already-determined record could
    /// be yielded first; surfaced by the next `next()` call.
    deferred_error: Option<Error>,
    failed: bool,
}

impl<'a> Merge<'a> {
    pub(crate) fn new(db: &'a DbInner, fetch: BlockFetch) -> Self {
        Merge {
            db,
            fetch,
            heap: BinaryHeap::new(),
            sources: Vec::new(),
            last_key: None,
            deferred_error: None,
            failed: false,
        }
    }

    /// Sources pushed so far (= the rank the next one gets).
    fn len(&self) -> usize {
        self.sources.len()
    }

    /// Add a MemTable run as the table stands now — the caller holds the
    /// store's MemTable lock, so no batch is half applied: note the
    /// table's stamp, seek to `lo` and read the first row in one hold of
    /// the table's lock, and keep a cursor (and the table) only if the
    /// view holds anything in `[lo, hi]`.
    fn push_mem(&mut self, table: &SharedTable, lo: &[u8], hi: &[u8]) -> Result<()> {
        let (cur, head) = {
            let t = read_table(table)?;
            let mut cur = t.cursor(lo, t.stamp());
            let head = next_row(&t, &mut cur, hi, &self.db.stats);
            (cur, head)
        };
        if let Some(pos) = head {
            self.heap.push(HeapItem { rank: self.len(), head: Head::At(pos) });
            let cursor = MemCursor { table: Arc::clone(table), cur, hi: hi.to_vec() };
            self.sources.push(Source::Mem(cursor));
        }
        Ok(())
    }

    /// Add an SST run. Nothing is read yet: the file enters the heap at
    /// `floor`, a lower bound on every key the cursor can yield, and pays
    /// its first block read only when the merge reaches that position.
    pub(crate) fn push_sst(&mut self, cursor: SstCursor, probe: Option<Probe>, floor: Vec<u8>) {
        self.heap.push(HeapItem { rank: self.len(), head: Head::Unread(floor) });
        self.sources.push(Source::Sst(cursor, probe));
    }

    /// Advance source `rank` and return its next record.
    fn advance(&mut self, rank: usize) -> Result<Option<Pos>> {
        match &mut self.sources[rank] {
            Source::Mem(MemCursor { table, cur, hi }) => {
                Ok(next_row(&*read_table(table)?, cur, hi, &self.db.stats))
            }
            Source::Sst(cursor, _) => {
                let (db, fetch) = (self.db, self.fetch);
                Ok(cursor.next_pos(|sst, b| fetch(db, sst, b))?.map(|(b, i)| Pos::Block(b, i)))
            }
        }
    }

    /// Read an unread SST source's head — its first block I/O — and
    /// settle the probe that admitted it: contributing anything in range
    /// is a true positive, nothing a false positive.
    fn materialize(&mut self, rank: usize) -> Result<()> {
        let head = self.advance(rank)?;
        if let Source::Sst(cursor, Some(probe)) = &self.sources[rank] {
            probe.settle(&self.db.stats, cursor.sst(), head.is_some());
        }
        if let Some(pos) = head {
            self.heap.push(HeapItem { rank, head: Head::At(pos) });
        }
        Ok(())
    }
}

impl Iterator for Merge<'_> {
    type Item = Result<(usize, Pos)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        loop {
            if let Some(e) = self.deferred_error.take() {
                self.failed = true;
                return Some(Err(e));
            }
            let HeapItem { rank, head } = self.heap.pop()?;
            let pos = match head {
                Head::At(pos) => pos,
                Head::Unread(_) => {
                    // First touch of this SST: read its head. No record
                    // has been determined yet, so an error surfaces
                    // directly.
                    if let Err(e) = self.materialize(rank) {
                        self.failed = true;
                        return Some(Err(e));
                    }
                    continue;
                }
            };
            // Refill the heap from the source that just advanced. A
            // failure here must not discard the record we already hold:
            // defer it and let this iteration finish first.
            match self.advance(rank) {
                Ok(Some(pos)) => self.heap.push(HeapItem { rank, head: Head::At(pos) }),
                Ok(None) => {}
                Err(e) => self.deferred_error = Some(e),
            }
            // Shadowing — the only site: a key equal to the last one
            // yielded is an older version (the newest popped first by
            // rank) and is skipped without copying anything. A single
            // source never repeats a key, so it skips the bookkeeping
            // (and its per-key copy) entirely.
            if self.sources.len() > 1 {
                let key = pos.key();
                if self.last_key.as_deref() == Some(key) {
                    continue;
                }
                match &mut self.last_key {
                    // Reuse the allocation when the buffer fits.
                    Some(buf) => {
                        buf.clear();
                        buf.extend_from_slice(key);
                    }
                    none => *none = Some(key.to_vec()),
                }
            }
            return Some(Ok((rank, pos)));
        }
    }
}

/// An ordered iterator over the live entries in a closed key range; see
/// the [module docs](self) and [`crate::Db::range`].
///
/// Yields `Result<(key, value)>`: an I/O or corruption error ends the
/// iteration after being reported once.
pub struct RangeIter<'a> {
    merge: Merge<'a>,
    /// Ranks below this are MemTable sources.
    n_mem: usize,
    /// Did any SST get past its filter (i.e. could block I/O be paid)?
    io_paid: bool,
    /// Was the first *live* entry supplied by a MemTable? `None` until
    /// one is yielded.
    first_from_memtable: Option<bool>,
}

impl<'a> RangeIter<'a> {
    /// An iterator that yields nothing (inverted or empty-by-bounds
    /// ranges).
    pub(crate) fn empty(db: &'a DbInner) -> RangeIter<'a> {
        let merge = Merge::new(db, DbInner::cached_block);
        RangeIter { merge, n_mem: 0, io_paid: false, first_from_memtable: None }
    }

    /// Build the merge over `[lo, hi]` (both inclusive, `lo <= hi`).
    /// Probes every candidate SST's filter here (in-memory, settling the
    /// negatives) but defers all block I/O: admitted files enter the
    /// merge unread and are read only when it reaches them.
    pub(crate) fn new(db: &'a DbInner, lo: &[u8], hi: &[u8]) -> Result<RangeIter<'a>> {
        debug_assert!(lo <= hi);
        let mut it = RangeIter::empty(db);
        let merge = &mut it.merge;

        // 1. The view, fixed under one short hold of the store's MemTable
        // lock: a cursor into each table, newest first, at the stamp the
        // table has reached (writers are excluded, so no batch is half
        // applied), and the manifest. A flush installs its SST before
        // retiring its table, so whatever instant this is, every acked
        // write is in one of the two.
        let version = {
            let mem = db.mem_read()?;
            for table in mem.tables() {
                merge.push_mem(table, lo, hi)?;
            }
            db.version()
        };
        it.n_mem = merge.len();

        // 2. The admitted SST candidates of the manifest snapshot.
        for sst in version.candidates(lo, hi) {
            let Some(probe) = db.admit(sst, lo, hi) else {
                continue; // proven empty
            };
            // The smallest key this file could contribute: its entries in
            // range all sit at or above max(lo, min_key), so an unread
            // heap entry at that key materializes exactly when the merge
            // could need the file — and never sooner.
            let floor = sst.min_key.as_slice().max(lo).to_vec();
            merge.push_sst(SstCursor::bounded(Arc::clone(sst), lo, hi), Some(probe), floor);
        }
        it.io_paid = merge.len() > it.n_mem;
        Ok(it)
    }
}

impl Iterator for RangeIter<'_> {
    type Item = Result<(Vec<u8>, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let (rank, pos) = match self.merge.next()? {
                Ok(record) => record,
                Err(e) => return Some(Err(e)),
            };
            // A winning tombstone suppresses its key; only what is
            // actually yielded is materialized.
            if let Some(live) = pos.into_live() {
                self.first_from_memtable.get_or_insert(rank < self.n_mem);
                return Some(Ok(live));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Db, DbConfig, ProteusFactory};
    use proteus_core::key::u64_key;
    use std::sync::Arc;

    /// Everything a filter probe can move, plus the I/O it can cause:
    /// the four store-wide ledgers and the block fetches (a read from disk
    /// or a cache hit, whichever an earlier probe left behind), then every
    /// SST's own probe window (file order is stable: nothing compacts
    /// mid-test).
    fn ledger(db: &Db) -> Vec<u64> {
        let s = db.stats().snapshot();
        let mut ledger = vec![
            s.filter_negatives,
            s.filter_false_positives,
            s.filter_true_positives,
            s.observed_fp,
            s.blocks_read + s.cache_hits,
        ];
        ledger.extend(db.inner.version().levels.iter().flatten().map(|f| f.observed_probes()));
        ledger
    }

    fn delta(before: &[u64], after: &[u64]) -> Vec<u64> {
        after.iter().zip(before).map(|(a, b)| a - b).collect()
    }

    #[test]
    fn get_seek_and_range_settle_an_absent_key_identically() {
        let dir = std::env::temp_dir().join(format!("proteus-probe-ledger-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = DbConfig::builder().memtable_bytes(16 << 10).build().unwrap();
        let db = Db::open(&dir, cfg, Arc::new(ProteusFactory::default())).unwrap();
        let key = |i: u64| (i * 2_654_435_761 % (1 << 24)) << 20;
        for i in 0..12_000u64 {
            db.put_u64(key(i), &[i as u8; 100]).unwrap();
        }
        db.flush_and_settle().unwrap();
        // One more flush leaves an L0 file on top of the settled levels.
        for i in 12_000..12_100u64 {
            db.put_u64(key(i), &[i as u8; 100]).unwrap();
        }
        db.flush().unwrap();
        let counts = db.level_file_counts();
        assert!(counts[0] >= 1 && counts.iter().filter(|&&n| n > 0).count() >= 3, "{counts:?}");

        let (mut negatives, mut false_positives) = (0, 0);
        for i in 0..400u64 {
            // Absent keys: right next to a stored key (shares every prefix
            // a filter could keep — the false-positive case) and in the
            // middle of a gap (the negative case).
            let k = u64_key(key(i * 29) + if i % 2 == 0 { 1 } else { 1 << 19 });
            let l0 = ledger(&db);
            assert_eq!(db.get(&k).unwrap(), None);
            let l1 = ledger(&db);
            assert!(!db.seek(&k, &k).unwrap());
            let l2 = ledger(&db);
            assert_eq!(db.range(&k[..]..=&k[..]).unwrap().count(), 0);
            let l3 = ledger(&db);
            let by_get = delta(&l0, &l1);
            assert_eq!(by_get, delta(&l1, &l2), "get vs seek, key {k:?}");
            assert_eq!(by_get, delta(&l2, &l3), "get vs range, key {k:?}");
            assert_eq!(by_get[2], 0, "an absent key has no true positive");
            negatives += by_get[0];
            false_positives += by_get[1];
        }
        assert!(negatives > 0 && false_positives > 0, "{negatives} neg, {false_positives} fp");
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
