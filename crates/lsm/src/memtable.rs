//! The in-memory write buffer (RocksDB's MemTable, §6.1).
//!
//! The concurrent `Db` keeps one *active* MemTable (mutated under a write
//! lock) plus a FIFO of *immutable* MemTables that have been rotated out
//! and await a background flush. An immutable MemTable is shared as
//! `Arc<MemTable>` and only read ([`MemTable::get`], [`MemTable::iter`],
//! [`MemTable::range_entries`]), so no further synchronization is needed
//! on it.
//!
//! Since API v2 an entry's value is `Option<Vec<u8>>`: `Some` is a live
//! put, `None` is a *tombstone* recording a [`crate::Db::delete`]. A
//! tombstone must be a real entry (not a removal from the map) because it
//! has to shadow older versions of the key living in deeper layers —
//! immutable MemTables and SST files — until compaction drops it at the
//! bottom of the tree.
//!
//! Durability is not this type's job: every entry that reaches a MemTable
//! was first appended to the write-ahead log (see [`crate::wal`]), and
//! [`crate::Db::open`] rebuilds the active table by replaying surviving
//! WAL segments through [`MemTable::apply`] — which is why `apply` takes
//! the same `(key, Option<value>)` shape as a WAL commit op.
//!
//! ## Representation
//!
//! The table is a skiplist over a bump arena rather than a
//! `BTreeMap<Vec<u8>, Option<Vec<u8>>>`. All key and value bytes live in
//! one append-only `Vec<u8>` arena; a node is a handful of integer
//! offsets into it, and the tower (forward) pointers for all nodes live
//! in a single shared pool. A `put` therefore costs zero per-entry heap
//! allocations in the steady state — the arena, node pool and tower pool
//! all grow amortized — where the `BTreeMap` paid one allocation for the
//! key and one for the value on every insert. Overwrites append the new
//! value bytes and repoint the node; the superseded bytes stay garbage in
//! the arena until the whole table is dropped at flush, which is the
//! right trade for a buffer whose lifetime is bounded by
//! `memtable_bytes` — and, for a table that is overwritten far more than
//! it grows, by [`ARENA_LIMIT_FACTOR`] times that in arena bytes
//! ([`MemTable::is_full`]). [`MemTable::bytes`] still reports *logical*
//! bytes (keys + live values + tombstone overhead), not arena bytes, so
//! rotation thresholds behave exactly as they did with the map on any
//! load that is not dominated by overwrites.

use std::fmt;

/// Tallest tower a node can get. With branching factor 4 this covers
/// far more entries than any rotation threshold lets a table hold.
const MAX_HEIGHT: usize = 12;

/// Sentinel "null pointer" in the tower pools.
const NIL: u32 = u32::MAX;

/// Approximate bookkeeping bytes charged per tombstone (a deleted entry
/// stores no value but still occupies the table).
const TOMBSTONE_BYTES: usize = 8;

/// A table rotates once its arena holds this many times its logical-byte
/// threshold ([`MemTable::is_full`]). Not a knob: update-heavy loads peak
/// around 3× at rotation, so 8× only fires on overwrite loops, and
/// `DbConfig::validate` keeps `8 × memtable_bytes` inside the arena's
/// `u32` offsets.
pub const ARENA_LIMIT_FACTOR: usize = 8;

fn entry_bytes(value: Option<&[u8]>) -> usize {
    value.map_or(TOMBSTONE_BYTES, <[u8]>::len)
}

/// One skiplist node: integer offsets into the arena plus the location
/// of its tower in the shared pointer pool.
#[derive(Debug, Clone, Copy)]
struct Node {
    key_off: u32,
    key_len: u32,
    val_off: u32,
    /// Value length; ignored for tombstones.
    val_len: u32,
    tombstone: bool,
    /// First slot of this node's forward pointers in `tower`.
    tower_off: u32,
    height: u8,
}

/// A sorted in-memory buffer of the most recent writes and deletes.
pub struct MemTable {
    /// Bump-allocated key and value bytes (append-only).
    arena: Vec<u8>,
    nodes: Vec<Node>,
    /// Forward-pointer pool; node `n` owns
    /// `tower[n.tower_off .. n.tower_off + n.height]` (level 0 first).
    tower: Vec<u32>,
    /// Forward pointers out of the head pseudo-node.
    head: [u32; MAX_HEIGHT],
    /// Tallest tower currently in use (bounds the search).
    height: usize,
    /// xorshift64 state for tower heights. Seeded deterministically:
    /// reproducible layout, and the expected O(log n) bound needs no
    /// secrecy against these keys.
    rng: u64,
    bytes: usize,
}

impl Default for MemTable {
    fn default() -> Self {
        MemTable {
            arena: Vec::new(),
            nodes: Vec::new(),
            tower: Vec::new(),
            head: [NIL; MAX_HEIGHT],
            height: 1,
            rng: 0x9E37_79B9_7F4A_7C15,
            bytes: 0,
        }
    }
}

impl fmt::Debug for MemTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemTable")
            .field("entries", &self.nodes.len())
            .field("bytes", &self.bytes)
            .field("arena_bytes", &self.arena.len())
            .finish()
    }
}

impl MemTable {
    /// An empty write buffer.
    pub fn new() -> Self {
        MemTable::default()
    }

    /// Insert or overwrite a live value.
    pub fn put(&mut self, key: Vec<u8>, value: Vec<u8>) {
        self.apply_ref(&key, Some(&value));
    }

    /// Record a tombstone for `key`, shadowing any older version of it.
    pub fn delete(&mut self, key: Vec<u8>) {
        self.apply_ref(&key, None);
    }

    /// Insert one entry: `Some` = put, `None` = tombstone. Owned-argument
    /// form used by WAL replay; the bytes are copied into the arena.
    pub fn apply(&mut self, key: Vec<u8>, value: Option<Vec<u8>>) {
        self.apply_ref(&key, value.as_deref());
    }

    /// Insert one entry from borrowed bytes — the write hot path. The
    /// caller keeps ownership (the same buffers were just handed to the
    /// WAL), and the table performs no heap allocation beyond amortized
    /// arena/pool growth.
    pub fn apply_ref(&mut self, key: &[u8], value: Option<&[u8]>) {
        // Record the search path: `update[lvl]` is the last node (NIL =
        // head) strictly before `key` at that level.
        let mut update = [NIL; MAX_HEIGHT];
        let mut cur = NIL; // NIL means "the head"
        for lvl in (0..self.height).rev() {
            loop {
                let next = self.next_at(cur, lvl);
                if next != NIL && self.node_key(next) < key {
                    cur = next;
                } else {
                    break;
                }
            }
            update[lvl] = cur;
        }
        let at = self.next_at(cur, 0);
        if at != NIL && self.node_key(at) == key {
            // Overwrite: append the new value, repoint the node. The key
            // bytes were already charged; swap the value charge.
            let old = &self.nodes[at as usize];
            let old_bytes = if old.tombstone { TOMBSTONE_BYTES } else { old.val_len as usize };
            let (val_off, val_len, tombstone) = self.push_value(value);
            let node = &mut self.nodes[at as usize];
            node.val_off = val_off;
            node.val_len = val_len;
            node.tombstone = tombstone;
            self.bytes = self.bytes - old_bytes + entry_bytes(value);
            return;
        }
        // New key: arena-allocate key + value, then splice a node in.
        let key_off = self.arena.len() as u32;
        self.arena.extend_from_slice(key);
        let (val_off, val_len, tombstone) = self.push_value(value);
        let height = self.random_height();
        let tower_off = self.tower.len() as u32;
        let id = self.nodes.len() as u32;
        self.nodes.push(Node {
            key_off,
            key_len: key.len() as u32,
            val_off,
            val_len,
            tombstone,
            tower_off,
            height: height as u8,
        });
        for (lvl, &upd) in update.iter().enumerate().take(height) {
            let prev = if lvl < self.height { upd } else { NIL };
            let next = self.next_at(prev, lvl);
            self.tower.push(next);
            self.set_next_at(prev, lvl, id);
        }
        if height > self.height {
            self.height = height;
        }
        self.bytes += key.len() + entry_bytes(value);
    }

    /// Exact-key lookup. The outer `Option` is "does this table know the
    /// key at all"; the inner one distinguishes a live value (`Some`)
    /// from a tombstone (`None`). A `None` outer result means the caller
    /// must keep searching older layers.
    pub fn get(&self, key: &[u8]) -> Option<Option<&[u8]>> {
        let n = self.seek_node(key)?;
        (self.node_key(n) == key).then(|| self.node_value(n))
    }

    /// Number of buffered entries (tombstones included).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Approximate buffered bytes (keys + values + tombstone overhead).
    /// This is the *logical* size — superseded values in the arena are
    /// not counted — so rotation triggers on live data, as before.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Physical bytes the arena holds: every key and every value ever
    /// written, superseded ones included.
    pub fn arena_bytes(&self) -> usize {
        self.arena.len()
    }

    /// Should a table with a rotation threshold of `limit` bytes rotate?
    /// On logical bytes — or on arena bytes: an overwrite appends to the
    /// arena without adding logical bytes, so a hot-key update loop would
    /// otherwise grow one table without bound.
    pub fn is_full(&self, limit: usize) -> bool {
        self.bytes >= limit || self.arena.len() >= ARENA_LIMIT_FACTOR.saturating_mul(limit)
    }

    /// Iterate all entries in ascending key order without consuming the
    /// table (the background flusher writes an immutable `Arc<MemTable>`
    /// to disk through this). Tombstones are yielded as `None` values.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], Option<&[u8]>)> {
        Iter { mt: self, cur: self.head[0], hi: None }
    }

    /// Clone every entry with a key in the closed range `[lo, hi]`
    /// (tombstones included), in ascending key order. The range iterator
    /// snapshots MemTable state through this so it can merge without
    /// holding the MemTable lock.
    pub fn range_entries(&self, lo: &[u8], hi: &[u8]) -> Vec<(Vec<u8>, Option<Vec<u8>>)> {
        Iter { mt: self, cur: self.seek_node(lo).unwrap_or(NIL), hi: Some(hi) }
            .map(|(k, v)| (k.to_vec(), v.map(<[u8]>::to_vec)))
            .collect()
    }

    /// Append value bytes to the arena; returns `(off, len, tombstone)`.
    fn push_value(&mut self, value: Option<&[u8]>) -> (u32, u32, bool) {
        match value {
            Some(v) => {
                let off = self.arena.len() as u32;
                self.arena.extend_from_slice(v);
                (off, v.len() as u32, false)
            }
            None => (0, 0, true),
        }
    }

    /// Forward pointer of `node` (NIL = head) at `lvl`.
    #[inline]
    fn next_at(&self, node: u32, lvl: usize) -> u32 {
        if node == NIL {
            self.head[lvl]
        } else {
            let n = &self.nodes[node as usize];
            debug_assert!(lvl < n.height as usize);
            self.tower[n.tower_off as usize + lvl]
        }
    }

    #[inline]
    fn set_next_at(&mut self, node: u32, lvl: usize, to: u32) {
        if node == NIL {
            self.head[lvl] = to;
        } else {
            let off = self.nodes[node as usize].tower_off as usize + lvl;
            self.tower[off] = to;
        }
    }

    #[inline]
    fn node_key(&self, node: u32) -> &[u8] {
        let n = &self.nodes[node as usize];
        &self.arena[n.key_off as usize..n.key_off as usize + n.key_len as usize]
    }

    #[inline]
    fn node_value(&self, node: u32) -> Option<&[u8]> {
        let n = &self.nodes[node as usize];
        if n.tombstone {
            None
        } else {
            Some(&self.arena[n.val_off as usize..n.val_off as usize + n.val_len as usize])
        }
    }

    /// First node with key ≥ `key`, or `None` when every key is smaller.
    fn seek_node(&self, key: &[u8]) -> Option<u32> {
        let mut cur = NIL;
        for lvl in (0..self.height).rev() {
            loop {
                let next = self.next_at(cur, lvl);
                if next != NIL && self.node_key(next) < key {
                    cur = next;
                } else {
                    break;
                }
            }
        }
        let n = self.next_at(cur, 0);
        (n != NIL).then_some(n)
    }

    /// Geometric tower height with branching factor 4 (p = 1/4 per
    /// level), the classic skiplist trade of pointer overhead for hops.
    fn random_height(&mut self) -> usize {
        // xorshift64 — cheap, and quality is irrelevant here.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        let mut h = 1;
        while h < MAX_HEIGHT && x & 3 == 0 {
            h += 1;
            x >>= 2;
        }
        h
    }
}

/// Borrowing in-order walk along the level-0 chain, optionally bounded
/// above by an inclusive `hi`.
struct Iter<'a> {
    mt: &'a MemTable,
    cur: u32,
    hi: Option<&'a [u8]>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a [u8], Option<&'a [u8]>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cur == NIL {
            return None;
        }
        let k = self.mt.node_key(self.cur);
        if let Some(hi) = self.hi {
            if k > hi {
                self.cur = NIL;
                return None;
            }
        }
        let v = self.mt.node_value(self.cur);
        self.cur = self.mt.next_at(self.cur, 0);
        Some((k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_range() {
        let mut m = MemTable::new();
        m.put(vec![0, 5], vec![1]);
        m.put(vec![0, 9], vec![2]);
        assert_eq!(m.get(&[0, 5]), Some(Some(&[1u8][..])));
        assert_eq!(m.get(&[0, 6]), None);
        let in_range = m.range_entries(&[0, 4], &[0, 5]);
        assert_eq!(in_range, vec![(vec![0, 5], Some(vec![1]))]);
        assert!(m.range_entries(&[0, 6], &[0, 8]).is_empty());
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn overwrite_keeps_latest() {
        let mut m = MemTable::new();
        m.put(vec![1], vec![1, 1]);
        m.put(vec![1], vec![2, 2, 2]);
        assert_eq!(m.get(&[1]), Some(Some(&[2u8, 2, 2][..])));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn delete_records_a_tombstone_entry() {
        let mut m = MemTable::new();
        m.put(vec![1], vec![9, 9]);
        m.delete(vec![1]);
        assert_eq!(m.get(&[1]), Some(None), "tombstone must shadow the put");
        assert_eq!(m.len(), 1, "a tombstone is a real entry");
        // Deleting an unknown key still records a tombstone: it may
        // shadow a version of the key living in an older layer.
        m.delete(vec![7]);
        assert_eq!(m.get(&[7]), Some(None));
        assert_eq!(m.range_entries(&[0], &[9]), vec![(vec![1], None), (vec![7], None)]);
        // Re-putting resurrects the key.
        m.put(vec![1], vec![3]);
        assert_eq!(m.get(&[1]), Some(Some(&[3u8][..])));
    }

    #[test]
    fn iter_is_sorted_non_consuming_and_keeps_tombstones() {
        let mut m = MemTable::new();
        m.put(vec![9], vec![b'a']);
        m.put(vec![1], vec![b'b']);
        m.delete(vec![5]);
        let entries: Vec<(u8, bool)> = m.iter().map(|(k, v)| (k[0], v.is_some())).collect();
        assert_eq!(entries, vec![(1, true), (5, false), (9, true)]);
        assert_eq!(m.len(), 3, "iter must not drain");
    }

    #[test]
    fn byte_accounting_grows_and_tracks_overwrites() {
        let mut m = MemTable::new();
        assert_eq!(m.bytes(), 0);
        m.put(vec![1; 8], vec![0; 100]);
        assert!(m.bytes() >= 108);
        let before = m.bytes();
        m.delete(vec![1; 8]); // value swapped for tombstone overhead
        assert!(m.bytes() < before);
        assert!(m.bytes() >= 8);
    }

    #[test]
    fn byte_accounting_is_exact_across_overwrite_and_tombstone_swaps() {
        // Logical bytes must match the old BTreeMap accounting exactly:
        // rotation thresholds and backpressure depend on it.
        let mut m = MemTable::new();
        m.put(vec![7; 4], vec![0; 10]);
        assert_eq!(m.bytes(), 4 + 10);
        // Overwrite with a bigger value: key charged once.
        m.put(vec![7; 4], vec![0; 25]);
        assert_eq!(m.bytes(), 4 + 25);
        // Overwrite with a smaller value shrinks the charge.
        m.put(vec![7; 4], vec![0; 3]);
        assert_eq!(m.bytes(), 4 + 3);
        // Value -> tombstone swaps the value charge for the flat fee.
        m.delete(vec![7; 4]);
        assert_eq!(m.bytes(), 4 + TOMBSTONE_BYTES);
        // Tombstone -> tombstone is a no-op charge-wise.
        m.delete(vec![7; 4]);
        assert_eq!(m.bytes(), 4 + TOMBSTONE_BYTES);
        // Tombstone -> value swaps back.
        m.put(vec![7; 4], vec![0; 9]);
        assert_eq!(m.bytes(), 4 + 9);
        // A second key adds key + value.
        m.put(vec![8; 6], vec![0; 2]);
        assert_eq!(m.bytes(), 4 + 9 + 6 + 2);
        // Empty live value is distinct from a tombstone and charges 0.
        m.put(vec![9; 2], vec![]);
        assert_eq!(m.bytes(), 4 + 9 + 6 + 2 + 2);
        assert_eq!(m.get(&[9, 9]), Some(Some(&[][..])));
    }

    #[test]
    fn matches_btreemap_reference_on_mixed_workload() {
        use std::collections::BTreeMap;
        // Deterministic pseudo-random workload; the old representation is
        // the executable spec.
        let mut model: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        let mut m = MemTable::new();
        let mut x = 0x1234_5678_9abc_def0u64;
        for _ in 0..4000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = (x % 257).to_be_bytes().to_vec();
            if x.is_multiple_of(5) {
                model.insert(key.clone(), None);
                m.delete(key);
            } else {
                let val = vec![(x % 251) as u8; (x % 31) as usize];
                model.insert(key.clone(), Some(val.clone()));
                m.put(key, val);
            }
        }
        assert_eq!(m.len(), model.len());
        let got: Vec<(Vec<u8>, Option<Vec<u8>>)> =
            m.iter().map(|(k, v)| (k.to_vec(), v.map(<[u8]>::to_vec))).collect();
        let want: Vec<(Vec<u8>, Option<Vec<u8>>)> =
            model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        assert_eq!(got, want);
        for (k, v) in &model {
            assert_eq!(m.get(k), Some(v.as_deref()), "key {k:?}");
        }
        assert_eq!(m.get(&300u64.to_be_bytes()), None);
        // Range queries agree with the model on assorted windows.
        for (lo, hi) in [(0u64, 256u64), (10, 20), (100, 100), (200, 9999)] {
            let lo = lo.to_be_bytes();
            let hi = hi.to_be_bytes();
            let got = m.range_entries(&lo, &hi);
            let want: Vec<(Vec<u8>, Option<Vec<u8>>)> = model
                .range::<[u8], _>((
                    std::ops::Bound::Included(&lo[..]),
                    std::ops::Bound::Included(&hi[..]),
                ))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            assert_eq!(got, want);
        }
        // Logical bytes match the old accounting formula.
        let expect_bytes: usize = model
            .iter()
            .map(|(k, v)| k.len() + v.as_deref().map_or(TOMBSTONE_BYTES, <[u8]>::len))
            .sum();
        assert_eq!(m.bytes(), expect_bytes);
    }

    #[test]
    fn range_entries_respects_bounds() {
        let mut m = MemTable::new();
        for i in (0u8..100).step_by(3) {
            m.put(vec![i], vec![i, i]);
        }
        let ks: Vec<u8> = m.range_entries(&[10], &[30]).iter().map(|(k, _)| k[0]).collect();
        assert_eq!(ks, vec![12, 15, 18, 21, 24, 27, 30]);
        assert!(m.range_entries(&[98], &[200])[0].0 == [99]);
        assert!(m.range_entries(&[100], &[200]).is_empty());
    }

    #[test]
    fn overwrites_fill_the_arena_but_not_the_logical_size() {
        let mut m = MemTable::new();
        for _ in 0..64 {
            m.put(vec![1], vec![0; 100]);
        }
        assert_eq!(m.bytes(), 1 + 100, "one live version");
        assert_eq!(m.arena_bytes(), 1 + 64 * 100, "every version ever written");
        assert!(!m.is_full(1_000), "6.4 KB of arena is under 8 x 1000");
        assert!(m.is_full(800), "... but over 8 x 800, with 101 logical bytes");
        assert!(m.is_full(101), "the logical threshold still rotates");
    }
}
