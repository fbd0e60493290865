//! The in-memory write buffer (RocksDB's MemTable, §6.1).
//!
//! The concurrent `Db` keeps one *active* MemTable plus a FIFO of
//! *immutable* MemTables that have been rotated out and await a background
//! flush. Every table — active or frozen — is shared as an `Arc` around a
//! ranked `RwLock<MemTable>`: writers append to the active one under its
//! write lock, a frozen one is only ever read, and a scan holds the `Arc`
//! and re-takes the read lock for each row it materializes (see
//! [`crate::read`]). This type itself knows nothing about locks.
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
//! value bytes and repoint the node; the superseded bytes stay in the
//! arena until the whole table is dropped at flush, which is the right
//! trade for a buffer whose lifetime is bounded by `memtable_bytes` — and,
//! for a table that is overwritten far more than it grows, by
//! [`ARENA_LIMIT_FACTOR`] times that in physical bytes
//! ([`MemTable::is_full`]). [`MemTable::bytes`] still reports *logical*
//! bytes (keys + live values + tombstone overhead), not arena bytes, so
//! rotation thresholds behave exactly as they did with the map on any
//! load that is not dominated by overwrites.
//!
//! ## Batch stamps and views
//!
//! Nothing is ever removed from a table: nodes keep their ids, the
//! level-0 chain only gains links, and the arena only grows. What an
//! overwrite *would* destroy — which value a key had before — is kept
//! too: every entry carries the **stamp** of the write batch that produced
//! it ([`MemTable::new_batch`] starts a batch; every `apply` until the
//! next one shares its stamp), and an overwrite from a later batch pushes
//! the superseded `(value, tombstone, stamp)` onto a version chain hanging
//! off the node before repointing it (the old value bytes are already in
//! the arena, so a record is a few integers). An overwrite inside the
//! *same* batch replaces in place — no reader can ask for half a batch.
//!
//! "The table as of stamp `S`" is therefore an immutable view, however
//! many batches follow: a key's value at `S` is the newest version with
//! stamp ≤ `S`, and a key first written after `S` does not exist. A
//! [`Cursor`] is a position in that view — a node id plus `S` — that
//! [`MemTable::advance`] moves one visible entry at a time, so a scan can
//! drop the table's lock between rows and pick up exactly where it was.
//! [`MemTable::get`], [`MemTable::iter`] and [`MemTable::len`] read the
//! newest version straight off the node, as before.

use std::fmt;

/// Tallest tower a node can get. With branching factor 4 this covers
/// far more entries than any rotation threshold lets a table hold.
const MAX_HEIGHT: usize = 12;

/// Sentinel "null pointer" in the tower pools.
const NIL: u32 = u32::MAX;

/// Approximate bookkeeping bytes charged per tombstone (a deleted entry
/// stores no value but still occupies the table).
const TOMBSTONE_BYTES: usize = 8;

/// A table rotates once its arena and version records hold this many
/// times its logical-byte threshold ([`MemTable::is_full`]). Not a knob: update-heavy loads peak
/// around 3× at rotation, so 8× only fires on overwrite loops, and
/// `DbConfig::validate` keeps `8 × memtable_bytes` inside the arena's
/// `u32` offsets.
pub const ARENA_LIMIT_FACTOR: usize = 8;

fn entry_bytes(value: Option<&[u8]>) -> usize {
    value.map_or(TOMBSTONE_BYTES, <[u8]>::len)
}

/// One version of an entry's value: where its bytes sit in the arena and
/// which batch wrote it. Node `n`'s newest version is `MemTable::vals[n]`;
/// the ones it superseded sit in `MemTable::versions`, chained newest
/// first.
#[derive(Debug, Clone, Copy)]
struct Version {
    off: u32,
    /// Value length; ignored for tombstones.
    len: u32,
    /// The batch that wrote this version.
    stamp: u32,
    /// The version this one superseded (index into `versions`), or `NIL`.
    older: u32,
    tombstone: bool,
}

impl Version {
    fn logical_bytes(&self) -> usize {
        if self.tombstone {
            TOMBSTONE_BYTES
        } else {
            self.len as usize
        }
    }
}

/// One skiplist node — just what a search touches: where the key sits in
/// the arena and where the node's tower sits in the shared pointer pool.
#[derive(Debug, Clone, Copy)]
struct Node {
    key_off: u32,
    key_len: u32,
    /// First slot of this node's forward pointers in `tower`.
    tower_off: u32,
    height: u8,
}

/// A resumable position in one table's key order, reading the table as of
/// a batch stamp (see the [module docs](self)). Made by
/// [`MemTable::cursor`], moved by [`MemTable::advance`]; it borrows
/// nothing, so it stays valid across any number of later writes to the
/// table it came from (and means nothing to any other table).
#[derive(Debug, Clone, Copy)]
pub struct Cursor {
    /// The next node to look at (`NIL` = exhausted).
    next: u32,
    stamp: u32,
}

/// A sorted in-memory buffer of the most recent writes and deletes.
pub struct MemTable {
    /// Bump-allocated key and value bytes (append-only).
    arena: Vec<u8>,
    nodes: Vec<Node>,
    /// Newest version of each node, parallel to `nodes` (kept apart so a
    /// search strides over 16-byte nodes).
    vals: Vec<Version>,
    /// Superseded versions, chained from `vals`.
    versions: Vec<Version>,
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
    /// Stamp of the batch being applied (see [`MemTable::new_batch`]).
    stamp: u32,
}

impl Default for MemTable {
    fn default() -> Self {
        MemTable {
            arena: Vec::new(),
            nodes: Vec::new(),
            vals: Vec::new(),
            versions: Vec::new(),
            tower: Vec::new(),
            head: [NIL; MAX_HEIGHT],
            height: 1,
            rng: 0x9E37_79B9_7F4A_7C15,
            bytes: 0,
            stamp: 0,
        }
    }
}

impl fmt::Debug for MemTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemTable")
            .field("entries", &self.nodes.len())
            .field("bytes", &self.bytes)
            .field("arena_bytes", &self.arena.len())
            .field("versions", &self.versions.len())
            .field("stamp", &self.stamp)
            .finish()
    }
}

impl MemTable {
    /// An empty write buffer.
    pub fn new() -> Self {
        MemTable::default()
    }

    /// Start a new write batch and return its stamp: every entry applied
    /// until the next call carries it, and a view of the table at any
    /// earlier stamp no longer changes. A table that never calls this
    /// keeps everything in batch 0 (plain overwrite-in-place). Saturates
    /// rather than wraps; [`MemTable::is_full`] rotates a table long
    /// before 2³² batches (each one adds at least one physical byte).
    pub fn new_batch(&mut self) -> u32 {
        self.stamp = self.stamp.saturating_add(1);
        self.stamp
    }

    /// Stamp of the newest batch; a view at this stamp is the whole table
    /// as it stands.
    pub fn stamp(&self) -> u32 {
        self.stamp
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
            // bytes were already charged; swap the value charge. A version
            // written by an earlier batch is still what views at that
            // batch's stamp must see, so it moves onto the chain; one
            // written by this batch is simply replaced.
            let old = self.vals[at as usize];
            let mut val = self.push_value(value);
            val.older = if old.stamp == self.stamp {
                old.older
            } else {
                self.versions.push(old);
                (self.versions.len() - 1) as u32
            };
            self.vals[at as usize] = val;
            self.bytes = self.bytes - old.logical_bytes() + entry_bytes(value);
            return;
        }
        // New key: arena-allocate key + value, then splice a node in.
        let key_off = self.arena.len() as u32;
        self.arena.extend_from_slice(key);
        let val = self.push_value(value);
        let height = self.random_height();
        let tower_off = self.tower.len() as u32;
        let id = self.nodes.len() as u32;
        self.nodes.push(Node {
            key_off,
            key_len: key.len() as u32,
            tower_off,
            height: height as u8,
        });
        self.vals.push(val);
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
        (self.node_key(n) == key).then(|| self.value_bytes(&self.vals[n as usize]))
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
    /// On logical bytes — or on physical ones, the arena plus the version
    /// records: an overwrite adds no logical bytes, yet it appends its
    /// value to the arena and (from a new batch) chains a version record —
    /// the latter even when the value is empty or a tombstone — so a
    /// hot-key update loop would otherwise grow one table without bound.
    pub fn is_full(&self, limit: usize) -> bool {
        let physical = self.arena.len() + self.versions.len() * std::mem::size_of::<Version>();
        self.bytes >= limit || physical >= ARENA_LIMIT_FACTOR.saturating_mul(limit)
    }

    /// Iterate all entries in ascending key order without consuming the
    /// table (a flush writes a frozen table to disk through this). Tombstones are yielded as `None` values.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], Option<&[u8]>)> {
        self.walk(Cursor { next: self.head[0], stamp: self.stamp }, None)
    }

    /// `cur` driven to its end while the table stays borrowed.
    fn walk<'a>(
        &'a self,
        mut cur: Cursor,
        hi: Option<&'a [u8]>,
    ) -> impl Iterator<Item = (&'a [u8], Option<&'a [u8]>)> {
        std::iter::from_fn(move || self.advance(&mut cur, hi))
    }

    /// A cursor over the table as of `stamp`, positioned at the first key
    /// ≥ `lo`.
    pub fn cursor(&self, lo: &[u8], stamp: u32) -> Cursor {
        Cursor { next: self.seek_node(lo).unwrap_or(NIL), stamp }
    }

    /// The next entry of `cur`'s view with a key ≤ `hi` (`None` = no upper
    /// bound), tombstones included as `None` values; `None` once the view
    /// is exhausted. Keys first written after the cursor's stamp are
    /// stepped over, and an overwritten key yields the version the stamp
    /// saw.
    pub fn advance<'a>(
        &'a self,
        cur: &mut Cursor,
        hi: Option<&[u8]>,
    ) -> Option<(&'a [u8], Option<&'a [u8]>)> {
        while cur.next != NIL {
            let n = cur.next;
            let k = self.node_key(n);
            if hi.is_some_and(|hi| k > hi) {
                cur.next = NIL;
                break;
            }
            cur.next = self.next_at(n, 0);
            if let Some(version) = self.version_at(n, cur.stamp) {
                return Some((k, self.value_bytes(version)));
            }
        }
        None
    }

    /// Clone every entry with a key in the closed range `[lo, hi]`
    /// (tombstones included), in ascending key order: a `collect` over a
    /// cursor at the newest stamp. Off the store's read path, which
    /// streams the cursor instead; kept for callers that want the rows
    /// owned.
    pub fn range_entries(&self, lo: &[u8], hi: &[u8]) -> Vec<(Vec<u8>, Option<Vec<u8>>)> {
        self.walk(self.cursor(lo, self.stamp), Some(hi))
            .map(|(k, v)| (k.to_vec(), v.map(<[u8]>::to_vec)))
            .collect()
    }

    /// Append value bytes to the arena as a version of the current batch
    /// (with nothing older chained yet).
    fn push_value(&mut self, value: Option<&[u8]>) -> Version {
        let (off, len) = match value {
            Some(v) => {
                let off = self.arena.len() as u32;
                self.arena.extend_from_slice(v);
                (off, v.len() as u32)
            }
            None => (0, 0),
        };
        Version { off, len, stamp: self.stamp, older: NIL, tombstone: value.is_none() }
    }

    /// The version of `node` a view at `stamp` sees: the newest one not
    /// written after it. `None` when the key did not exist yet.
    #[inline]
    fn version_at(&self, node: u32, stamp: u32) -> Option<&Version> {
        let mut v = &self.vals[node as usize];
        while v.stamp > stamp {
            if v.older == NIL {
                return None;
            }
            v = &self.versions[v.older as usize];
        }
        Some(v)
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
    fn value_bytes(&self, v: &Version) -> Option<&[u8]> {
        if v.tombstone {
            None
        } else {
            Some(&self.arena[v.off as usize..v.off as usize + v.len as usize])
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

    #[test]
    fn version_records_count_as_physical_bytes() {
        // Tombstone -> empty value -> tombstone ... from a new batch each
        // time: no logical growth and not one arena byte after the key,
        // only version records — which must still fill the table.
        let mut m = MemTable::new();
        let mut writes = 0usize;
        while !m.is_full(1_000) {
            m.new_batch();
            if writes.is_multiple_of(2) {
                m.delete(vec![1]);
            } else {
                m.put(vec![1], vec![]);
            }
            writes += 1;
            assert!(writes < 10_000, "version records never filled the table");
        }
        assert_eq!(m.arena_bytes(), 1, "the key, once");
        assert!(m.bytes() <= 1 + TOMBSTONE_BYTES);
        assert!(writes * std::mem::size_of::<Version>() >= ARENA_LIMIT_FACTOR * 1_000);
        // The same loop inside one batch replaces in place and chains
        // nothing: the table stays as small as it looks.
        let mut m = MemTable::new();
        for _ in 0..writes {
            m.delete(vec![1]);
            m.put(vec![1], vec![]);
        }
        assert!(!m.is_full(1_000));
    }

    #[test]
    fn a_view_sees_its_stamp_whatever_follows() {
        let mut m = MemTable::new();
        let s1 = m.new_batch();
        m.put(vec![2], vec![b'a']);
        m.put(vec![4], vec![b'b']);
        let s2 = m.new_batch();
        m.put(vec![2], vec![b'A']); // overwrite
        m.delete(vec![4]); // tombstone over a live value
        m.put(vec![3], vec![b'c']); // new key between the two
        m.put(vec![3], vec![b'C']); // same batch: replaced, not chained
        let view = |m: &MemTable, stamp| -> Vec<(u8, Option<u8>)> {
            let rows = take_rows(m, &mut m.cursor(&[0], stamp), &[9], usize::MAX);
            rows.into_iter().map(|(k, v)| (k[0], v.map(|v| v[0]))).collect()
        };
        assert_eq!(view(&m, 0), vec![], "nothing existed before the first batch");
        assert_eq!(view(&m, s1), vec![(2, Some(b'a')), (4, Some(b'b'))]);
        assert_eq!(view(&m, s2), vec![(2, Some(b'A')), (3, Some(b'C')), (4, None)]);
        assert_eq!(m.versions.len(), 2, "one record per cross-batch overwrite");
        // A cursor parked mid-table keeps its view across later batches.
        let mut cur = m.cursor(&[0], s1);
        assert_eq!(m.advance(&mut cur, None), Some((&[2u8][..], Some(&b"a"[..]))));
        m.new_batch();
        m.put(vec![4], vec![b'z']);
        m.put(vec![5], vec![b'n']);
        assert_eq!(m.advance(&mut cur, None), Some((&[4u8][..], Some(&b"b"[..]))));
        assert_eq!(m.advance(&mut cur, None), None);
        // Newest-version reads are unaffected by the chains.
        assert_eq!(m.get(&[4]), Some(Some(&b"z"[..])));
        assert_eq!(m.len(), 4);
    }

    type Rows = Vec<(Vec<u8>, Option<Vec<u8>>)>;
    type Model = std::collections::BTreeMap<Vec<u8>, Option<Vec<u8>>>;

    /// The model's rows in `[lo, hi]` (none when the window is inverted).
    fn window(model: &Model, lo: &[u8], hi: &[u8]) -> Rows {
        if lo > hi {
            return Vec::new();
        }
        let bounds = (std::ops::Bound::Included(lo), std::ops::Bound::Included(hi));
        model.range::<[u8], _>(bounds).map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    /// Up to `max` further rows of `cur`'s view, owned.
    fn take_rows(m: &MemTable, cur: &mut Cursor, hi: &[u8], max: usize) -> Rows {
        let mut rows = Vec::new();
        while rows.len() < max {
            match m.advance(cur, Some(hi)) {
                Some((k, v)) => rows.push((k.to_vec(), v.map(<[u8]>::to_vec))),
                None => break,
            }
        }
        rows
    }

    proptest::proptest! {
        /// The view contract: over any interleaving of writes and new
        /// batches, a cursor opened at any past stamp reads exactly the
        /// `BTreeMap` the table equalled when that stamp was current —
        /// for any `[lo, hi]`, however many writes followed, and also when
        /// it is drained a row at a time *while* they follow. The script is
        /// derived from the sampled seed with a local xorshift, the same
        /// idiom as the oracle tests.
        #[test]
        fn cursors_read_the_table_as_of_their_stamp(seed in 1u64..100_000) {
            let mut x = seed;
            let mut rng = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let key = |r: u64| vec![(r % 24) as u8 + 1; 1 + (r >> 8) as usize % 2];
            let mut m = MemTable::new();
            let mut model = Model::new();
            // `snapshots[s]` = the model when stamp `s` stopped changing.
            let mut snapshots: Vec<Model> = Vec::new();
            // Cursors left half-drained: (cursor, hi, rows still owed).
            let mut parked: Vec<(Cursor, Vec<u8>, Rows)> = Vec::new();
            for _ in 0..160 {
                match rng() % 8 {
                    0 | 1 => {
                        snapshots.push(model.clone());
                        proptest::prop_assert_eq!(m.new_batch() as usize, snapshots.len());
                        // Park a cursor on the view that just closed.
                        let stamp = snapshots.len() - 1;
                        let (lo, hi) = (key(rng()), key(rng()));
                        let owed = window(&snapshots[stamp], &lo, &hi);
                        parked.push((m.cursor(&lo, stamp as u32), hi, owed));
                    }
                    2 => {
                        let k = key(rng());
                        model.insert(k.clone(), None);
                        m.delete(k);
                    }
                    3 if !parked.is_empty() => {
                        // Take one row from a parked cursor, mid-stream.
                        let i = rng() as usize % parked.len();
                        let (cur, hi, owed) = &mut parked[i];
                        let want: Rows = owed.drain(..owed.len().min(1)).collect();
                        proptest::prop_assert_eq!(take_rows(&m, cur, hi, 1), want);
                    }
                    _ => {
                        let r = rng();
                        let (k, v) = (key(r), vec![(r >> 16) as u8; (r >> 24) as usize % 4]);
                        model.insert(k.clone(), Some(v.clone()));
                        m.put(k, v);
                    }
                }
            }
            snapshots.push(model.clone());
            // Every past stamp, fresh cursor, random window.
            for (stamp, snapshot) in snapshots.iter().enumerate() {
                let (lo, hi) = (key(rng()), key(rng()));
                let got = take_rows(&m, &mut m.cursor(&lo, stamp as u32), &hi, usize::MAX);
                proptest::prop_assert_eq!(got, window(snapshot, &lo, &hi), "stamp {}", stamp);
            }
            // The parked cursors finish their views too.
            for (mut cur, hi, owed) in parked {
                proptest::prop_assert_eq!(take_rows(&m, &mut cur, &hi, usize::MAX), owed);
            }
            // Newest-version reads: the plain-table contract still holds.
            proptest::prop_assert_eq!(m.len(), model.len());
            let newest: Rows = m.iter().map(|(k, v)| (k.to_vec(), v.map(<[u8]>::to_vec))).collect();
            proptest::prop_assert_eq!(newest, window(&model, &[0], &[255, 255]));
            for (k, v) in &model {
                proptest::prop_assert_eq!(m.get(k), Some(v.as_deref()));
            }
            let logical: usize =
                model.iter().map(|(k, v)| k.len() + entry_bytes(v.as_deref())).sum();
            proptest::prop_assert_eq!(m.bytes(), logical);
        }
    }
}
