//! LRU block cache, the analogue of RocksDB's block cache (§6.2 warms it
//! before measuring; §6.3 discusses thrashing when a filter forces too many
//! distinct blocks through it).
//!
//! [`BlockCache`] is the single-threaded LRU core; the concurrent `Db`
//! wraps it in a [`ShardedBlockCache`] — 16 independently locked shards
//! selected by block-id hash, so parallel readers rarely contend on the
//! same mutex (the RocksDB `LRUCache` sharding scheme).

use crate::block::Block;
use proteus_core::sync::{rank, Mutex, MutexGuard};
use std::collections::HashMap;
use std::sync::{Arc, PoisonError};

/// Cache key: (SST id, block index).
pub type BlockId = (u64, u32);

/// End-of-list marker for [`Slot::prev`] / [`Slot::next`].
const NIL: u32 = u32::MAX;

/// One resident block and its neighbours in the recency list (indices
/// into [`BlockCache::slots`]).
#[derive(Debug)]
struct Slot {
    id: BlockId,
    block: Option<Arc<Block>>,
    /// Next more recently used slot (`NIL` at the head).
    prev: u32,
    /// Next less recently used slot (`NIL` at the tail).
    next: u32,
}

/// A byte-budgeted LRU cache of decoded blocks.
///
/// Recency is a doubly linked list threaded through `slots` by index:
/// most recently used at `head`, the eviction victim at `tail`. A hit
/// unlinks its slot and relinks it at the head, an eviction pops the tail,
/// and a freed slot is reused by the next insert, so no operation scans
/// the shard and a hit never allocates.
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
    /// Create a cache bounded to `capacity_bytes` of block payload.
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
    pub fn get(&mut self, id: BlockId) -> Option<Arc<Block>> {
        let s = *self.map.get(&id)?;
        self.touch(s);
        self.slots[s as usize].block.clone()
    }

    /// Insert a block, evicting least-recently-used entries to fit.
    ///
    /// A block larger than the whole capacity is *bypassed* (served
    /// uncached), never inserted: caching it would evict everything else
    /// and still sit over budget forever, turning every later insert
    /// into an eviction storm against an unevictable resident.
    pub fn insert(&mut self, id: BlockId, block: Arc<Block>) {
        let bytes = block.mem_bytes();
        if bytes > self.capacity_bytes {
            return;
        }
        let s = match self.map.get(&id) {
            Some(&s) => {
                self.touch(s);
                let old = self.slots[s as usize].block.replace(block);
                self.used_bytes -= old.map_or(0, |b| b.mem_bytes());
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
                        // A shard holds far fewer than `NIL` blocks.
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

    /// Drop a single entry if present.
    pub fn remove(&mut self, id: BlockId) {
        if let Some(&s) = self.map.get(&id) {
            self.drop_slot(s);
        }
    }

    /// Drop every cached block belonging to `sst_id` (file deleted by
    /// compaction).
    pub fn purge_sst(&mut self, sst_id: u64) {
        let victims: Vec<u32> =
            self.map.iter().filter(|((id, _), _)| *id == sst_id).map(|(_, &s)| s).collect();
        for s in victims {
            self.drop_slot(s);
        }
    }

    /// Unlink slot `s`, forget its id, release its block and budget, and
    /// put the slot on the free list.
    fn drop_slot(&mut self, s: u32) {
        self.unlink(s);
        let slot = &mut self.slots[s as usize];
        self.map.remove(&slot.id);
        self.used_bytes -= slot.block.take().map_or(0, |b| b.mem_bytes());
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

    /// Bytes of cached block payload currently held.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Number of cached blocks.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Number of independently locked shards (power of two).
const CACHE_SHARDS: usize = 16;

/// A concurrent block cache: `CACHE_SHARDS` byte-budgeted LRU shards, each
/// behind its own mutex. A block lives in exactly one shard (chosen by a
/// hash of its id), so two readers touching different blocks almost always
/// take different locks; the capacity is split evenly across shards.
#[derive(Debug)]
pub struct ShardedBlockCache {
    shards: Vec<Mutex<BlockCache>>,
}

impl ShardedBlockCache {
    /// Create a sharded cache; `capacity_bytes` is split across the
    /// shards with the division remainder distributed one byte at a time
    /// (plain `capacity / 16` would silently zero every shard for tiny
    /// capacities and always drop up to 15 bytes of budget).
    pub fn new(capacity_bytes: usize) -> Self {
        let per_shard = capacity_bytes / CACHE_SHARDS;
        let remainder = capacity_bytes % CACHE_SHARDS;
        ShardedBlockCache {
            shards: (0..CACHE_SHARDS)
                .map(|i| {
                    Mutex::new(
                        rank::CACHE_SHARD,
                        BlockCache::new(per_shard + usize::from(i < remainder)),
                    )
                })
                .collect(),
        }
    }

    fn shard(&self, id: BlockId) -> MutexGuard<'_, BlockCache> {
        // Fibonacci-hash the (sst, block) pair so consecutive blocks of one
        // file spread across shards.
        let h = (id.0 ^ ((id.1 as u64) << 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Self::locked(&self.shards[(h >> 60) as usize & (CACHE_SHARDS - 1)])
    }

    /// Take one shard's lock, recovering from poison: every cache op
    /// restores the LRU invariants before returning, and the cache is an
    /// optimization layer — a panicked reader must not take block caching
    /// (or compaction's purges) down with it.
    fn locked(shard: &Mutex<BlockCache>) -> MutexGuard<'_, BlockCache> {
        shard.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Look up a block in its shard, refreshing recency on a hit.
    pub fn get(&self, id: BlockId) -> Option<Arc<Block>> {
        self.shard(id).get(id)
    }

    /// Insert a block into its shard, evicting LRU entries to fit.
    pub fn insert(&self, id: BlockId, block: Arc<Block>) {
        self.shard(id).insert(id, block);
    }

    /// Drop a single entry if present (used to undo an insert that raced
    /// with a purge).
    pub fn remove(&self, id: BlockId) {
        self.shard(id).remove(id);
    }

    /// Drop every cached block belonging to `sst_id` (file deleted by
    /// compaction). Touches all shards.
    pub fn purge_sst(&self, sst_id: u64) {
        for shard in &self.shards {
            Self::locked(shard).purge_sst(sst_id);
        }
    }

    /// Bytes of cached payload across all shards.
    pub fn used_bytes(&self) -> usize {
        self.shards.iter().map(|s| Self::locked(s).used_bytes()).sum()
    }

    /// Cached blocks across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| Self::locked(s).len()).sum()
    }

    /// True when nothing is cached in any shard.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::VarBlockBuilder;

    fn make_block(tag: u64, entries: usize) -> Arc<Block> {
        let mut b = VarBlockBuilder::new();
        for i in 0..entries {
            b.add(&((tag << 32) + i as u64).to_be_bytes(), Some(&[1u8; 64]));
        }
        let (disk, _, _) = b.finish();
        Arc::new(Block::decode_v3(&disk).unwrap())
    }

    #[test]
    fn lru_eviction_respects_budget() {
        let block = make_block(0, 10);
        let one = block.mem_bytes();
        let mut c = BlockCache::new(one * 3 + one / 2);
        for i in 0..10u32 {
            c.insert((7, i), make_block(7, 10));
        }
        assert!(c.used_bytes() <= one * 4, "{} > {}", c.used_bytes(), one * 4);
        assert!(c.len() <= 4);
        // The most recent block survives.
        assert!(c.get((7, 9)).is_some());
        assert!(c.get((7, 0)).is_none());
    }

    #[test]
    fn recency_updates_on_get() {
        let block = make_block(0, 10);
        let one = block.mem_bytes();
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
    fn purge_removes_all_of_an_sst() {
        let mut c = BlockCache::new(1 << 20);
        c.insert((1, 0), make_block(1, 5));
        c.insert((1, 1), make_block(1, 5));
        c.insert((2, 0), make_block(2, 5));
        c.purge_sst(1);
        assert!(c.get((1, 0)).is_none());
        assert!(c.get((1, 1)).is_none());
        assert!(c.get((2, 0)).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = BlockCache::new(0);
        c.insert((1, 0), make_block(1, 5));
        assert!(c.get((1, 0)).is_none());
    }

    #[test]
    fn oversized_block_is_bypassed_not_pinned() {
        let one = make_block(0, 10).mem_bytes();
        let capacity = one * 4;
        let mut c = BlockCache::new(capacity);
        // A block bigger than the whole budget must be refused outright —
        // before the fix it was cached, could never be evicted, and kept
        // `used_bytes` over budget forever.
        let huge = make_block(99, 1000);
        assert!(huge.mem_bytes() > capacity);
        c.insert((9, 0), huge);
        assert_eq!(c.len(), 0, "oversized block must not be cached");
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
        entries: Vec<(BlockId, Arc<Block>, u64)>,
        clock: u64,
    }

    impl StampLru {
        fn get(&mut self, id: BlockId) {
            self.clock += 1;
            if let Some(e) = self.entries.iter_mut().find(|e| e.0 == id) {
                e.2 = self.clock;
            }
        }

        fn insert(&mut self, id: BlockId, block: Arc<Block>) {
            let bytes = block.mem_bytes();
            if bytes > self.capacity {
                return;
            }
            self.clock += 1;
            self.remove(id);
            self.entries.push((id, block, self.clock));
            self.used += bytes;
            while self.used > self.capacity {
                let lru = (0..self.entries.len()).min_by_key(|&i| self.entries[i].2).unwrap();
                self.used -= self.entries.swap_remove(lru).1.mem_bytes();
            }
        }

        fn remove(&mut self, id: BlockId) {
            self.purge(|e| e == id);
        }

        fn purge(&mut self, doomed: impl Fn(BlockId) -> bool) {
            let used = &mut self.used;
            self.entries.retain(|e| {
                let keep = !doomed(e.0);
                if !keep {
                    *used -= e.1.mem_bytes();
                }
                keep
            });
        }

        fn resident(&self) -> Vec<BlockId> {
            let mut ids: Vec<BlockId> = self.entries.iter().map(|e| e.0).collect();
            ids.sort_unstable();
            ids
        }
    }

    proptest::proptest! {
        /// The LRU budget invariant: `used_bytes <= capacity` after
        /// *every* operation of any insert/get/remove/purge interleaving,
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
            let one = make_block(0, 10).mem_bytes();
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
                match rng() % 5 {
                    // Entry counts 1..40: mem_bytes from far below to far
                    // above every sampled capacity.
                    0 | 1 => {
                        let block = make_block(id.0, 1 + rng() as usize % 40);
                        c.insert(id, Arc::clone(&block));
                        reference.insert(id, block);
                    }
                    2 => {
                        proptest::prop_assert_eq!(
                            c.get(id).is_some(),
                            reference.entries.iter().any(|e| e.0 == id)
                        );
                        reference.get(id);
                    }
                    3 => {
                        c.remove(id);
                        reference.remove(id);
                    }
                    _ => {
                        c.purge_sst(id.0);
                        reference.purge(|(sst, _)| sst == id.0);
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

    #[test]
    fn sharded_cache_basic_ops() {
        let c = ShardedBlockCache::new(4 << 20);
        for i in 0..64u32 {
            c.insert((i as u64, i), make_block(i as u64, 5));
        }
        for i in 0..64u32 {
            assert!(c.get((i as u64, i)).is_some(), "block {i}");
        }
        assert!(c.get((99, 0)).is_none());
        assert_eq!(c.len(), 64);
        c.purge_sst(3);
        assert!(c.get((3, 3)).is_none());
        assert!(c.get((4, 4)).is_some());
    }

    #[test]
    fn sharded_cache_concurrent_mixed_load() {
        let c = std::sync::Arc::new(ShardedBlockCache::new(1 << 20));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let c = std::sync::Arc::clone(&c);
                s.spawn(move || {
                    for i in 0..500u32 {
                        let id = (t % 4, i % 64);
                        if c.get(id).is_none() {
                            c.insert(id, make_block(id.0, 5));
                        }
                        if i.is_multiple_of(97) {
                            c.purge_sst(t % 4);
                        }
                    }
                });
            }
        });
        // Budget respected after the storm.
        assert!(c.used_bytes() <= (1 << 20) + (1 << 16));
    }

    #[test]
    fn sharded_capacity_distributes_the_division_remainder() {
        let one = make_block(0, 3).mem_bytes();
        // One shard's worth of budget plus a remainder smaller than the
        // shard count: before the fix `capacity / 16` discarded the
        // remainder, and anything under 16 bytes zeroed every shard.
        let c = ShardedBlockCache::new(CACHE_SHARDS * one + 5);
        let totals: usize = c.shards.iter().map(|s| s.lock().unwrap().capacity_bytes).sum();
        assert_eq!(totals, CACHE_SHARDS * one + 5, "no capacity may be dropped");
        // Every shard can hold the one-block working set it is offered.
        for i in 0..64u32 {
            c.insert((7, i), make_block(7, 3));
        }
        assert!(!c.is_empty(), "tiny remainders must not disable caching");
    }

    /// The undo path [`ShardedBlockCache::remove`] exists for: a reader's
    /// insert racing a compaction retire+purge (see `DbInner::
    /// cached_block`). The reader re-checks the retired flag after its
    /// insert and removes; whichever side loses the race, no block of the
    /// retired file may survive.
    #[test]
    fn insert_vs_purge_race_undoes_the_losing_insert() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let c = std::sync::Arc::new(ShardedBlockCache::new(1 << 20));
        let retired = std::sync::Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = std::sync::Arc::clone(&c);
                let retired = std::sync::Arc::clone(&retired);
                s.spawn(move || {
                    for i in 0..4000u32 {
                        let id = (1u64, i % 32);
                        // The cached_block protocol: insert only while
                        // not retired, then double-check and undo.
                        if !retired.load(Ordering::SeqCst) {
                            c.insert(id, make_block(1, 5));
                            if retired.load(Ordering::SeqCst) {
                                c.remove(id);
                            }
                        }
                        // Unrelated files keep churning throughout.
                        c.insert((2, i % 16), make_block(2, 5));
                    }
                });
            }
            let c = std::sync::Arc::clone(&c);
            let retired = std::sync::Arc::clone(&retired);
            s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(3));
                retired.store(true, Ordering::SeqCst);
                c.purge_sst(1);
            });
        });
        for i in 0..32u32 {
            assert!(c.get((1, i)).is_none(), "zombie block {i} survived retire + purge");
        }
        assert!(c.get((2, 0)).is_some(), "unrelated file must keep its cache entries");
    }
}
