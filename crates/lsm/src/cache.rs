//! LRU block cache, the analogue of RocksDB's block cache (§6.2 warms it
//! before measuring; §6.3 discusses thrashing when a filter forces too many
//! distinct blocks through it).
//!
//! The cache holds each block's *stored* bytes — codec header and payload,
//! exactly as read from the file, like RocksDB's compressed block cache —
//! and budgets a block by their length. A block is checked in full once,
//! when it is read from the file and before it is cached
//! ([`crate::block::Block::load`]: its check word, then a walk over every
//! entry). Cached bytes never change, so a hit (`Block::load_cached`)
//! decompresses them into a buffer of its own and reads their restart
//! trailer, checking only that its offsets lie inside the entries; it
//! neither verifies the check word nor walks the entries. Stored bytes are
//! about half a decoded block's size on the harness's half-zero values, so
//! one budget holds about twice the blocks.
//!
//! [`BlockCache`] is single-threaded; a store holds one behind one ranked
//! mutex, taken where a read fetches a block: a foreground read looks up
//! and inserts, compaction only [`BlockCache::peek`]s. Nothing
//! removes a block when compaction deletes its file: the dead file's
//! blocks age out of the LRU like any cold block. They can never be
//! served for another file, because a store allocates SST ids from one
//! monotonic counter, so no id names two files in one process, and the
//! cache starts empty at every open.

use std::collections::HashMap;
use std::sync::Arc;

/// Cache key: (SST id, block index).
pub type BlockId = (u64, u32);

/// End-of-list marker for [`Slot::prev`] / [`Slot::next`].
const NIL: u32 = u32::MAX;

/// One resident block and its neighbours in the recency list (indices
/// into [`BlockCache::slots`]).
#[derive(Debug)]
struct Slot {
    id: BlockId,
    block: Option<Arc<[u8]>>,
    /// Next more recently used slot (`NIL` at the head).
    prev: u32,
    /// Next less recently used slot (`NIL` at the tail).
    next: u32,
}

/// A byte-budgeted LRU cache of stored blocks.
///
/// Recency is a doubly linked list threaded through `slots` by index:
/// most recently used at `head`, the eviction victim at `tail`. A hit
/// unlinks its slot and relinks it at the head, an eviction pops the tail,
/// and a freed slot is reused by the next insert, so no operation scans
/// the cache and a hit never allocates.
#[derive(Debug)]
pub struct BlockCache {
    capacity_bytes: usize,
    used_bytes: usize,
    /// Resident id → its slot.
    map: HashMap<BlockId, u32>,
    slots: Vec<Slot>,
    /// Slots whose block was dropped, ready for reuse.
    free: Vec<u32>,
    head: u32,
    tail: u32,
}

impl BlockCache {
    /// Create a cache bounded to `capacity_bytes` of stored block bytes.
    pub fn new(capacity_bytes: usize) -> Self {
        BlockCache {
            capacity_bytes,
            used_bytes: 0,
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Look up a block, refreshing its recency on a hit.
    pub fn get(&mut self, id: BlockId) -> Option<Arc<[u8]>> {
        let s = *self.map.get(&id)?;
        self.touch(s);
        self.slots[s as usize].block.clone()
    }

    /// Look up a block without refreshing its recency: a reader that
    /// visits each block once (compaction) must not keep it warm.
    pub fn peek(&self, id: BlockId) -> Option<Arc<[u8]>> {
        self.slots[*self.map.get(&id)? as usize].block.clone()
    }

    /// Insert a block, evicting least-recently-used entries to fit.
    ///
    /// A block larger than the whole capacity is *bypassed* (served
    /// uncached), never inserted: caching it would evict everything else
    /// and still sit over budget forever, turning every later insert
    /// into an eviction storm against an unevictable resident.
    pub fn insert(&mut self, id: BlockId, block: Arc<[u8]>) {
        let bytes = block.len();
        if bytes > self.capacity_bytes {
            return;
        }
        let s = match self.map.get(&id) {
            Some(&s) => {
                self.touch(s);
                let old = self.slots[s as usize].block.replace(block);
                self.used_bytes -= old.map_or(0, |b| b.len());
                s
            }
            None => {
                let slot = Slot { id, block: Some(block), prev: NIL, next: NIL };
                let s = match self.free.pop() {
                    Some(s) => {
                        self.slots[s as usize] = slot;
                        s
                    }
                    None => {
                        // A cache holds far fewer than `NIL` blocks.
                        self.slots.push(slot);
                        (self.slots.len() - 1) as u32
                    }
                };
                self.map.insert(id, s);
                self.push_front(s);
                s
            }
        };
        self.used_bytes += bytes;
        // Evict from the tail until within budget. The loop terminates
        // because the new block fits the budget on its own and sits at the
        // head (so it is never the victim while anything else remains).
        while self.used_bytes > self.capacity_bytes && self.tail != s {
            self.drop_slot(self.tail);
        }
    }

    /// Unlink slot `s`, forget its id, release its block and budget, and
    /// put the slot on the free list.
    fn drop_slot(&mut self, s: u32) {
        self.unlink(s);
        let slot = &mut self.slots[s as usize];
        self.map.remove(&slot.id);
        self.used_bytes -= slot.block.take().map_or(0, |b| b.len());
        self.free.push(s);
    }

    /// Make linked slot `s` the most recently used.
    fn touch(&mut self, s: u32) {
        if self.head != s {
            self.unlink(s);
            self.push_front(s);
        }
    }

    /// Take slot `s` out of the recency list.
    fn unlink(&mut self, s: u32) {
        let Slot { prev, next, .. } = self.slots[s as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    /// Link slot `s` in as the most recently used.
    fn push_front(&mut self, s: u32) {
        let old_head = self.head;
        let slot = &mut self.slots[s as usize];
        slot.prev = NIL;
        slot.next = old_head;
        match old_head {
            NIL => self.tail = s,
            h => self.slots[h as usize].prev = s,
        }
        self.head = s;
    }

    /// Stored bytes currently held.
    #[cfg(test)]
    fn used_bytes(&self) -> usize {
        self.used_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::VarBlockBuilder;

    /// The stored bytes of a block of `entries` entries. No run of zero
    /// bytes in its keys or values, so every block is stored raw and its
    /// size does not depend on `tag`.
    fn make_block(tag: u64, entries: usize) -> Arc<[u8]> {
        let mut b = VarBlockBuilder::new();
        for i in 0..entries {
            let key = (tag << 32) + i as u64 + 0x0101_0101_0101_0101;
            b.add(&key.to_be_bytes(), Some(&[1u8; 64]));
        }
        let (disk, _, _) = b.finish();
        assert_eq!(disk[0], 0, "stored raw");
        disk.into()
    }

    #[test]
    fn lru_eviction_respects_budget() {
        let block = make_block(0, 10);
        let one = block.len();
        let mut c = BlockCache::new(one * 3 + one / 2);
        for i in 0..10u32 {
            c.insert((7, i), make_block(7, 10));
        }
        assert!(c.used_bytes() <= one * 4, "{} > {}", c.used_bytes(), one * 4);
        assert!(c.map.len() <= 4);
        // The most recent block survives.
        assert!(c.get((7, 9)).is_some());
        assert!(c.get((7, 0)).is_none());
    }

    #[test]
    fn recency_updates_on_get() {
        let block = make_block(0, 10);
        let one = block.len();
        let mut c = BlockCache::new(one * 2 + one / 2);
        c.insert((1, 0), make_block(1, 10));
        c.insert((1, 1), make_block(1, 10));
        // Touch block 0 so block 1 becomes the LRU victim.
        assert!(c.get((1, 0)).is_some());
        c.insert((1, 2), make_block(1, 10));
        assert!(c.get((1, 0)).is_some());
        assert!(c.get((1, 1)).is_none());
    }

    #[test]
    fn peek_leaves_recency_alone() {
        let one = make_block(0, 10).len();
        let mut c = BlockCache::new(one * 2 + one / 2);
        c.insert((1, 0), make_block(1, 10));
        c.insert((1, 1), make_block(1, 10));
        // A peek at block 0 leaves it the LRU victim.
        assert!(c.peek((1, 0)).is_some());
        assert!(c.peek((1, 9)).is_none());
        c.insert((1, 2), make_block(1, 10));
        assert!(c.peek((1, 0)).is_none());
        assert!(c.peek((1, 1)).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = BlockCache::new(0);
        c.insert((1, 0), make_block(1, 5));
        assert!(c.get((1, 0)).is_none());
    }

    #[test]
    fn oversized_block_is_bypassed_not_pinned() {
        let one = make_block(0, 10).len();
        let capacity = one * 4;
        let mut c = BlockCache::new(capacity);
        // A block bigger than the whole budget must be refused outright —
        // before the fix it was cached, could never be evicted, and kept
        // `used_bytes` over budget forever.
        let huge = make_block(99, 1000);
        assert!(huge.len() > capacity);
        c.insert((9, 0), huge);
        assert!(c.map.is_empty(), "oversized block must not be cached");
        assert_eq!(c.used_bytes(), 0);
        assert!(c.get((9, 0)).is_none());
        // Many small blocks behave normally around a repeated bypass:
        // nothing thrashes and the budget holds.
        for i in 0..4u32 {
            c.insert((1, i), make_block(1, 10));
        }
        c.insert((9, 1), make_block(99, 1000));
        for i in 0..4u32 {
            assert!(c.get((1, i)).is_some(), "small block {i} lost to a bypassed insert");
        }
        assert!(c.used_bytes() <= capacity, "{} > {capacity}", c.used_bytes());
    }

    /// The cache as it was before the recency list: every entry carries a
    /// stamp from a clock that ticks on each `get` and `insert`, and an
    /// eviction removes the entry with the smallest stamp by a linear scan
    /// over a plain `Vec`. [`BlockCache`] must evict exactly what this
    /// model evicts.
    struct StampLru {
        capacity: usize,
        used: usize,
        entries: Vec<(BlockId, Arc<[u8]>, u64)>,
        clock: u64,
    }

    impl StampLru {
        fn get(&mut self, id: BlockId) {
            self.clock += 1;
            if let Some(e) = self.entries.iter_mut().find(|e| e.0 == id) {
                e.2 = self.clock;
            }
        }

        fn insert(&mut self, id: BlockId, block: Arc<[u8]>) {
            let bytes = block.len();
            if bytes > self.capacity {
                return;
            }
            self.clock += 1;
            if let Some(i) = self.entries.iter().position(|e| e.0 == id) {
                self.used -= self.entries.swap_remove(i).1.len();
            }
            self.entries.push((id, block, self.clock));
            self.used += bytes;
            while self.used > self.capacity {
                let lru = (0..self.entries.len()).min_by_key(|&i| self.entries[i].2).unwrap();
                self.used -= self.entries.swap_remove(lru).1.len();
            }
        }

        fn resident(&self) -> Vec<BlockId> {
            let mut ids: Vec<BlockId> = self.entries.iter().map(|e| e.0).collect();
            ids.sort_unstable();
            ids
        }
    }

    proptest::proptest! {
        /// The LRU budget invariant: `used_bytes <= capacity` after
        /// *every* operation of any insert/get interleaving,
        /// oversized inserts included (block sizes span well past any
        /// sampled capacity). After every step the cache also holds
        /// exactly the blocks, and exactly the bytes, the stamp-scan
        /// reference [`StampLru`] holds. The script is derived from the
        /// sampled seed with a local xorshift, the same idiom as the
        /// oracle tests.
        #[test]
        fn lru_budget_invariant_under_arbitrary_interleavings(
            seed in 1u64..5000,
            cap_units in 0usize..6,
        ) {
            let one = make_block(0, 10).len();
            // Deliberately misaligned capacity (never a block multiple).
            let capacity = cap_units * one + cap_units * 7;
            let mut c = BlockCache::new(capacity);
            let mut reference =
                StampLru { capacity, used: 0, entries: Vec::new(), clock: 0 };
            let mut x = seed;
            let mut rng = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            for step in 0..120 {
                let id = (rng() % 4, (rng() % 8) as u32);
                match rng() % 3 {
                    // Entry counts 1..40: stored sizes from far below to far
                    // above every sampled capacity.
                    0 | 1 => {
                        let block = make_block(id.0, 1 + rng() as usize % 40);
                        c.insert(id, Arc::clone(&block));
                        reference.insert(id, block);
                    }
                    _ => {
                        proptest::prop_assert_eq!(
                            c.get(id).is_some(),
                            reference.entries.iter().any(|e| e.0 == id)
                        );
                        reference.get(id);
                    }
                }
                proptest::prop_assert!(
                    c.used_bytes() <= capacity,
                    "budget violated at step {}: {} > {}",
                    step,
                    c.used_bytes(),
                    capacity,
                );
                let mut resident: Vec<BlockId> = c.map.keys().copied().collect();
                resident.sort_unstable();
                proptest::prop_assert_eq!(resident, reference.resident(), "step {}", step);
                proptest::prop_assert_eq!(c.used_bytes(), reference.used, "step {}", step);
            }
        }
    }
}
