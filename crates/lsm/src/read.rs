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
//! suppressed, and `seek` is its first live entry plus the §6.1
//! sample-queue offer.
//!
//! `Merge` is the store's only merge of sorted runs. It owns the heap, the
//! `(key, rank)` order and the shadowing rule, and stands on the newest
//! record per key — tombstone or not — which its consumer borrows.
//! Compaction is the same merge over the same [`SstCursor`]s, taking a
//! block from the cache only if it is there and otherwise from the file,
//! without caching it, with its own tombstone policy on top. Re-training
//! walks a file's keys through that same background fetch.
//!
//! A scan reads the MemTables *in place*. Under one short hold of the
//! store's MemTable lock, construction visits every table (active and
//! frozen) — noting its current batch stamp and seeking it to `lo` — and
//! takes the `Arc`-swapped `Version` snapshot: the scan's whole view, as
//! of that instant. Each table with anything in range becomes a
//! `MemCursor`: the table's `Arc` plus a node id in the table as of the
//! noted stamp (see [`crate::memtable`]), which from then on materializes
//! one row per step under a table read lock held just for that row (an
//! empty table costs one uncontended lock and nothing else). Writes that
//! land later carry later stamps and are invisible to it — a whole batch
//! at a time — and since the iterator owns the tables and the files it
//! reads, a rotation, flush or compaction mid-scan hides nothing from it.
//! Between `next()` calls a scan holds no lock at all.
//!
//! Admitted SSTs are read *lazily*: each enters the heap unread, standing
//! at the smallest key it could contribute (`max(lo, min_key)`), and pays
//! its first block read only when the merge reaches that position — or
//! when that floor equals a key being stepped past, which happens on the
//! next `advance`. A `seek` that is satisfied early therefore never
//! touches the files behind its first hit — and those files accumulate
//! no false-positive evidence for a probe whose I/O was never paid.
//!
//! Records are compared *where they stand*: the sources stay in one
//! vector, and the heap holds only their ranks, ordered by the key each
//! source currently stands on — an SST cursor's borrowed from the block
//! it holds, a MemTable cursor's from the two buffers it copies each row
//! into and reuses. Moving to the next key steps the winning source and
//! sifts its rank down from the top: no record, block handle or key
//! changes hands, and with two sources a row costs one key comparison
//! while the same source keeps winning. Bytes are materialized only for
//! the entry a consumer keeps — shadowed duplicates and suppressed
//! tombstones cost no allocation at all, and compaction hands the
//! borrowed slices straight to the SST writer.
//!
//! Shadowing: for equal keys the source with the lower rank (newer layer)
//! wins. The older versions of the current key sit at the top's children,
//! and the next `advance` steps them past before the winner moves, so the
//! shadowing key is borrowed from the winner, never copied.
//! In a [`RangeIter`] a winning tombstone suppresses the key entirely — it
//! yields *live* entries only, sorted and deduplicated.
//!
//! Errors: an I/O or corruption failure is reported once and ends the
//! iteration. A source moves only on the `advance` after the one that
//! reached its record, so a failure can never discard an entry already
//! determined: the entry is yielded, and the error surfaces on the
//! following `next()` call.

use crate::block::Block;
use crate::cache::BlockCache;
use crate::config::MAX_KEY_BYTES;
use crate::db::{read_table, DbInner, SharedTable, Version};
use crate::error::Result;
use crate::memtable::{Cursor, MemTable};
use crate::query_queue::clamp_to_file;
use crate::sst::{KeyRange, SstCursor, SstReader};
use crate::stats::Stats;
use proteus_core::key::{pad_key_into, INLINE_KEY_BYTES};
use proteus_core::sync::MutexGuard;
use std::ops::{Bound, RangeBounds};
use std::sync::{Arc, PoisonError};

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
    /// Does the file have a filter? False for a file whose filter is
    /// `None`, whose "positives" say nothing about any filter's quality.
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

    /// The block cache, locked: the one place it is, for the lookup or
    /// the insert of one fetch, never across a file read or a decode. A
    /// poisoned lock is recovered: every cache operation restores the LRU
    /// invariants before it returns, and a panicked reader must not take
    /// block caching down with it.
    fn cache(&self) -> MutexGuard<'_, BlockCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Decode block `b` of `sst` into `block` for background work —
    /// compaction and re-training, which read every block of a file once:
    /// from the block cache if it holds the block, whose bytes passed their
    /// check when they were read, with no recency change; else straight
    /// from the file, uncached, so background work never evicts what
    /// foreground reads keep warm.
    pub(crate) fn background_block(
        &self,
        sst: &Arc<SstReader>,
        b: usize,
        block: &mut Block,
    ) -> Result<()> {
        // Bound first, so the lock is released before the decode.
        let cached = self.cache().peek((sst.id, b as u32));
        match cached {
            Some(stored) => sst.load_cached(b, &stored, block),
            None => sst.read_block(b, &self.stats, block).map(drop),
        }
    }

    /// Decode block `b` of `sst` into `block` through the block cache. A
    /// hit decodes the cached stored bytes; a miss reads, checks and
    /// decodes them, and caches them only once they pass.
    fn cached_block(&self, sst: &Arc<SstReader>, b: usize, block: &mut Block) -> Result<()> {
        let id = (sst.id, b as u32);
        let hit = self.cache().get(id);
        if let Some(stored) = hit {
            self.stats.cache_hits.inc();
            return sst.load_cached(b, &stored, block);
        }
        let stored = sst.read_block(b, &self.stats, block)?;
        self.cache().insert(id, stored);
        Ok(())
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
            let mut block = Block::spare();
            self.cached_block(sst, b, &mut block)?;
            let found = block.seek(key) && block.key() == key;
            let record = found.then(|| block.value().map(<[u8]>::to_vec));
            block.recycle();
            return Ok(record);
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
        if it.advance_live()? {
            self.stats.seeks_found.inc();
            if it.first_from_memtable == Some(true) {
                self.stats.seeks_memtable.inc();
            }
            return Ok(true);
        }
        if !it.io_paid {
            self.stats.seeks_filtered.inc();
        }
        // Truly-executed empty query: feed the sample queue (§6.1). The
        // gauge is only refreshed when the queue recorded the query, so
        // the 1-in-`sample_every` common case stays mutex-free for
        // readers.
        self.stats.sample_offers.inc();
        if self.queue.offer(lo, hi) {
            self.stats.sampled_queries.set(self.queue.len() as u64);
        }
        Ok(false)
    }
}

/// How a merge's SST cursors obtain their blocks: through the block cache
/// ([`DbInner::cached_block`], foreground reads) or, for compaction, from
/// the cache if it holds them and else from the file
/// ([`DbInner::background_block`], which re-training's key walk uses too).
pub(crate) type BlockFetch = fn(&DbInner, &Arc<SstReader>, usize, &mut Block) -> Result<()>;

/// One MemTable as a merge source: a position in the shared table as of
/// the stamp the scan was built at, and the row it stands on, copied out
/// into two buffers the cursor reuses. It owns the table (`Arc`), so the
/// view outlives the table's rotation and flush, and takes the table's
/// read lock only for the length of one row copy.
struct MemCursor {
    table: SharedTable,
    cur: Cursor,
    /// The read's bounds; the upper one clamps the view.
    range: KeyRange,
    row: Row,
}

/// A MemTable row copied out of its table.
#[derive(Default)]
struct Row {
    key: Vec<u8>,
    value: Vec<u8>,
    /// `false` = a tombstone (`value` is then empty).
    live: bool,
}

impl Row {
    /// Copy the next row of `cur`'s view out of `table` into this one,
    /// reusing its buffers; `false` = the view is exhausted.
    fn read(&mut self, table: &MemTable, cur: &mut Cursor, hi: &[u8], stats: &Stats) -> bool {
        let Some((k, v)) = table.advance(cur, Some(hi)) else { return false };
        stats.memtable_rows_read.inc();
        self.key.clear();
        self.key.extend_from_slice(k);
        self.value.clear();
        self.value.extend_from_slice(v.unwrap_or_default());
        self.live = v.is_some();
        true
    }
}

enum Source {
    Mem(MemCursor),
    /// An SST cursor plus, on the read path, the filter probe that
    /// admitted the file — settled by the cursor's first step.
    Sst(SstCursor, Option<Probe>),
}

impl Source {
    /// The key the source stands on — an unread SST stands at its floor —
    /// borrowed where it lies.
    fn key(&self) -> &[u8] {
        match self {
            Source::Mem(m) => &m.row.key,
            Source::Sst(cursor, _) => cursor.key(),
        }
    }
}

/// The one k-way merge over sorted runs: owns the `(key, rank)` order and
/// the shadowing rule. Sources are pushed newest first (push order =
/// rank); each [`Merge::advance`] moves to the next distinct key in
/// ascending order, and [`Merge::current`] borrows its newest record — a
/// tombstone included — from the source that holds it, with that source's
/// rank. What to do with a tombstone is the consumer's policy:
/// [`RangeIter`] suppresses it, compaction carries it or drops it at the
/// bottom of the tree.
///
/// The sources stay where they are; `heap` is a binary min-heap of their
/// ranks, ordered by the keys the sources stand on, and holds every source
/// with an entry left. Its top is the current record.
pub(crate) struct Merge<'a> {
    db: &'a DbInner,
    fetch: BlockFetch,
    sources: Vec<Source>,
    heap: Vec<u32>,
    /// Does the top of the heap stand on the record the last `advance`
    /// returned (to be stepped past by the next one)?
    at_record: bool,
    /// May a child of the top stand on the top's key? `false` only when
    /// the last sift from the top found its smaller child's key strictly
    /// greater — then no older version is there to step past.
    top_repeats: bool,
    failed: bool,
}

impl<'a> Merge<'a> {
    pub(crate) fn new(db: &'a DbInner, fetch: BlockFetch) -> Self {
        Merge {
            db,
            fetch,
            sources: Vec::new(),
            heap: Vec::new(),
            at_record: false,
            top_repeats: true,
            failed: false,
        }
    }

    /// Sources pushed so far (= the rank the next one gets).
    fn len(&self) -> usize {
        self.sources.len()
    }

    /// Add a source (the next rank) and order it into the heap.
    fn push(&mut self, source: Source) {
        self.heap.push(self.len() as u32);
        self.sources.push(source);
        self.sift_up(self.heap.len() - 1);
        self.top_repeats = true;
    }

    /// Add a MemTable run as the table stands now — the caller holds the
    /// store's MemTable lock, so no batch is half applied: note the
    /// table's stamp, seek to `lo` and read the first row in one hold of
    /// the table's lock, and keep a cursor (and the table) only if the
    /// view holds anything in `[lo, hi]`. `range` is the read's one
    /// shared copy of the bounds, made by the first source that keeps it.
    fn push_mem(
        &mut self,
        table: &SharedTable,
        (lo, hi): (&[u8], &[u8]),
        range: &mut Option<KeyRange>,
    ) -> Result<()> {
        let mut row = Row::default();
        let cur = {
            let t = read_table(table)?;
            let mut cur = t.cursor(lo, t.stamp());
            if !row.read(&t, &mut cur, hi, &self.db.stats) {
                return Ok(());
            }
            cur
        };
        let range = range.get_or_insert_with(|| KeyRange::new(lo, hi)).clone();
        self.push(Source::Mem(MemCursor { table: Arc::clone(table), cur, range, row }));
        Ok(())
    }

    /// Add an SST run. Nothing is read yet: the file enters the heap at
    /// its floor (see [`SstCursor::key`]) and pays its first block read
    /// only when the merge reaches that position.
    pub(crate) fn push_sst(&mut self, cursor: SstCursor, probe: Option<Probe>) {
        self.push(Source::Sst(cursor, probe));
    }

    /// The key of the source at heap position `pos`.
    fn key_at(&self, pos: usize) -> &[u8] {
        self.sources[self.heap[pos] as usize].key()
    }

    /// Does heap position `a` sort before `b`: smaller key, or the same
    /// key from a newer source?
    fn before(&self, a: usize, b: usize) -> bool {
        self.key_at(a).cmp(self.key_at(b)).then(self.heap[a].cmp(&self.heap[b])).is_lt()
    }

    fn sift_up(&mut self, mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if !self.before(pos, parent) {
                break;
            }
            self.heap.swap(pos, parent);
            pos = parent;
        }
    }

    /// Restore the heap below `start`. Returns whether a child of `start`
    /// may now stand on the same key as `start` itself: `false` only if
    /// `start` kept its source and its smaller child's key is strictly
    /// greater, learned from the comparison the sift makes anyway.
    fn sift_down(&mut self, start: usize) -> bool {
        let mut pos = start;
        loop {
            let left = 2 * pos + 1;
            if left >= self.heap.len() {
                return pos != start;
            }
            let child = if left + 1 < self.heap.len() && self.before(left + 1, left) {
                left + 1
            } else {
                left
            };
            let keys = self.key_at(child).cmp(self.key_at(pos));
            if keys.then(self.heap[child].cmp(&self.heap[pos])).is_gt() {
                return pos != start || keys.is_eq();
            }
            self.heap.swap(pos, child);
            pos = child;
        }
    }

    /// Step the source at heap position `pos` to its next entry and
    /// restore the heap below `pos` — dropping the source if it has none.
    /// Only the top and its two children are ever stepped; every other
    /// entry sorts after them, so what moves into `pos` never needs to
    /// rise. An unread SST's first step is its first block read, and
    /// settles the probe that admitted it: contributing anything in range
    /// is a true positive, nothing a false positive.
    fn step(&mut self, pos: usize) -> Result<()> {
        let more = match &mut self.sources[self.heap[pos] as usize] {
            Source::Mem(MemCursor { table, cur, range, row }) => {
                row.read(&*read_table(table)?, cur, range.hi(), &self.db.stats)
            }
            Source::Sst(cursor, probe) => {
                let (db, fetch) = (self.db, self.fetch);
                let more = cursor.step(|sst, b, block| fetch(db, sst, b, block))?;
                if let Some(probe) = probe.take() {
                    probe.settle(&db.stats, cursor.sst(), more);
                }
                more
            }
        };
        if !more {
            self.heap.swap_remove(pos);
        }
        let repeats = pos < self.heap.len() && self.sift_down(pos);
        if pos == 0 {
            self.top_repeats = repeats;
        }
        Ok(())
    }

    /// Move to the next distinct key; `Ok(false)` once there is none. An
    /// I/O or corruption failure is returned once, and the merge then
    /// reports the end.
    pub(crate) fn advance(&mut self) -> Result<bool> {
        if self.failed {
            return Ok(false);
        }
        let moved = self.step_to_next();
        self.failed = moved.is_err();
        moved
    }

    fn step_to_next(&mut self) -> Result<bool> {
        if std::mem::take(&mut self.at_record) {
            // Shadowing — the only site. The records equal to the current
            // key sit at the top's children (a key equal to the top's has
            // only such keys above it): each is an older version, or the
            // floor of a file that may hold one, and is stepped past while
            // the shadowing key is still borrowed from the top. Then the
            // top itself moves.
            if self.top_repeats {
                for child in [1, 2] {
                    while child < self.heap.len() && self.key_at(child) == self.key_at(0) {
                        self.step(child)?;
                    }
                }
            }
            self.step(0)?;
        }
        // A file at the top that is still unread stands at its floor, not
        // on a record: read it, and let the heap reorder.
        while let Some(&top) = self.heap.first() {
            if !matches!(&self.sources[top as usize], Source::Sst(c, _) if c.is_unread()) {
                self.at_record = true;
                return Ok(true);
            }
            self.step(0)?;
        }
        Ok(false)
    }

    /// The record the last [`Merge::advance`] that returned `true` moved
    /// to: the rank of its source, its key and its value (`None` = a
    /// tombstone), borrowed from the source.
    pub(crate) fn current(&self) -> (usize, &[u8], Option<&[u8]>) {
        let Some(&top) = self.heap.first() else { return (0, &[], None) };
        let (key, value) = match &self.sources[top as usize] {
            Source::Mem(m) => (&m.row.key[..], m.row.live.then_some(&m.row.value[..])),
            Source::Sst(cursor, _) => cursor.current(),
        };
        (top as usize, key, value)
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
    /// one is reached.
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
        // One copy of the bounds, shared by every source that keeps them
        // and made only once one does: a Seek every filter rejects copies
        // nothing.
        let mut range = None;

        // 1. The view, fixed under one short hold of the store's MemTable
        // lock: a cursor into each table, newest first, at the stamp the
        // table has reached (writers are excluded, so no batch is half
        // applied), and the manifest. A flush installs its SST before
        // retiring its table, so whatever instant this is, every acked
        // write is in one of the two.
        let version = {
            let mem = db.mem_read()?;
            for table in mem.tables() {
                merge.push_mem(table, (lo, hi), &mut range)?;
            }
            db.version()
        };
        it.n_mem = merge.len();

        // 2. The admitted SST candidates of the manifest snapshot.
        for sst in version.candidates(lo, hi) {
            let Some(probe) = db.admit(sst, lo, hi) else {
                continue; // proven empty
            };
            let range = range.get_or_insert_with(|| KeyRange::new(lo, hi)).clone();
            merge.push_sst(SstCursor::bounded(Arc::clone(sst), range), Some(probe));
        }
        it.io_paid = merge.len() > it.n_mem;
        Ok(it)
    }

    /// Move the merge to the next live entry; `Ok(false)` at the end. A
    /// winning tombstone suppresses its key.
    fn advance_live(&mut self) -> Result<bool> {
        while self.merge.advance()? {
            let (rank, _, value) = self.merge.current();
            if value.is_some() {
                self.first_from_memtable.get_or_insert(rank < self.n_mem);
                return Ok(true);
            }
        }
        Ok(false)
    }
}

impl Iterator for RangeIter<'_> {
    type Item = Result<(Vec<u8>, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.advance_live() {
            // Only what is actually yielded is copied.
            Ok(true) => {
                let (_, key, value) = self.merge.current();
                Some(Ok((key.to_vec(), value.unwrap_or_default().to_vec())))
            }
            Ok(false) => None,
            Err(e) => Some(Err(e)),
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
