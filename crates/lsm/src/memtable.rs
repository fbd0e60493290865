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
//! one append-only `Vec<u8>` arena. Each node is one *record* in a single
//! `u32` pool, `recs`, and is named by the record's offset there:
//!
//! | slot | holds |
//! |---|---|
//! | 0, 1 | the key's head: its first 8 bytes, big-endian and zero-padded ([`key_head`]), high word first |
//! | 2, 3 | the key's arena offset and length |
//! | 4 | the node's index into `vals`, its newest version |
//! | 5 .. 5 + height | forward pointers (level 0 first), record offsets |
//!
//! A search step therefore reads one record and decides on its head: a
//! strictly smaller head means a strictly smaller key. Only when two heads
//! tie does the key's length matter, and the arena is read only when both
//! keys are longer than 8 bytes. Tied heads agree on the first 8 bytes, and
//! a key of at most 8 bytes is zero-padded into its head. So a key of at
//! most 8 bytes is the tied longer key's prefix, and the lengths order the
//! two; equal lengths mean equal keys. Only between two longer keys does
//! the tail past byte 8 decide, and that tail lives in the arena. A `u64`
//! key's put or get thus never touches the arena before its value.
//!
//! A `put` costs zero per-entry heap allocations in the steady state — the
//! arena, `recs` and `vals` all grow amortized — where the `BTreeMap` paid
//! one allocation for the key and one for the value on every insert.
//! Overwrites append the new value bytes and repoint the node's version;
//! the superseded bytes stay in the arena until the whole table is dropped
//! at flush, which is the right trade for a buffer whose lifetime is
//! bounded by `memtable_bytes` — and, for a table that is overwritten far
//! more than it grows or holds many tiny entries, by
//! [`ARENA_LIMIT_FACTOR`] times that in physical bytes
//! ([`MemTable::is_full`]). [`MemTable::bytes`] still reports *logical*
//! bytes (keys + live values + tombstone overhead), not arena bytes, so
//! rotation thresholds behave exactly as they did with the map on any
//! load that is not dominated by overwrites or by per-node bookkeeping.
//!
//! ## Batch stamps and views
//!
//! Nothing is ever removed from a table: records keep their offsets, the
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
//! [`Cursor`] is a position in that view — a record offset plus `S` — that
//! [`MemTable::advance`] moves one visible entry at a time, so a scan can
//! drop the table's lock between rows and pick up exactly where it was.
//! [`MemTable::get`], [`MemTable::iter`] and [`MemTable::len`] read the
//! newest version straight off the node, as before.

use proteus_core::key::key_head;
use std::cmp::Ordering;
use std::fmt;

/// Tallest tower a node can get. With branching factor 4 this covers
/// far more entries than any rotation threshold lets a table hold.
const MAX_HEIGHT: usize = 12;

/// Sentinel "null pointer" in the forward pointers.
const NIL: u32 = u32::MAX;

/// A record's slots before its forward pointers (see the module docs).
const HEAD_HI: usize = 0;
const HEAD_LO: usize = 1;
const KEY_OFF: usize = 2;
const KEY_LEN: usize = 3;
const VAL: usize = 4;
const TOWER: usize = 5;

/// The head pseudo-node: the record at offset 0, with a full-height tower
/// and no key. Every search starts here and never compares against it.
const HEAD: u32 = 0;

/// Approximate bookkeeping bytes charged per tombstone (a deleted entry
/// stores no value but still occupies the table).
const TOMBSTONE_BYTES: usize = 8;

/// A table rotates once its arena, records and versions hold this many
/// times its logical-byte threshold ([`MemTable::is_full`]). Not a knob:
/// update-heavy loads peak around 3× at rotation, so 8× only fires on
/// overwrite loops and tables of tiny entries, and `DbConfig::validate`
/// keeps `8 × memtable_bytes` inside the arena's `u32` offsets.
pub const ARENA_LIMIT_FACTOR: usize = 8;

fn entry_bytes(value: Option<&[u8]>) -> usize {
    value.map_or(TOMBSTONE_BYTES, <[u8]>::len)
}

/// One version of an entry's value: where its bytes sit in the arena and
/// which batch wrote it. A node's newest version is `MemTable::vals[i]`,
/// `i` its record's `VAL` slot; the ones it superseded sit in
/// `MemTable::versions`, chained newest first.
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

/// A resumable position in one table's key order, reading the table as of
/// a batch stamp (see the [module docs](self)). Made by
/// [`MemTable::cursor`], moved by [`MemTable::advance`]; it borrows
/// nothing, so it stays valid across any number of later writes to the
/// table it came from (and means nothing to any other table).
#[derive(Debug, Clone, Copy)]
pub struct Cursor {
    /// The next record to look at (`NIL` = exhausted).
    next: u32,
    stamp: u32,
}

/// A sorted in-memory buffer of the most recent writes and deletes.
pub struct MemTable {
    /// Bump-allocated key and value bytes (append-only).
    arena: Vec<u8>,
    /// One record per node, the head pseudo-node's first (see the module
    /// docs); append-only.
    recs: Vec<u32>,
    /// Newest version of each node, in insertion order.
    vals: Vec<Version>,
    /// Superseded versions, chained from `vals`.
    versions: Vec<Version>,
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
        let mut recs = vec![0; TOWER + MAX_HEIGHT];
        recs[TOWER..].fill(NIL);
        MemTable {
            arena: Vec::new(),
            recs,
            vals: Vec::new(),
            versions: Vec::new(),
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
            .field("entries", &self.vals.len())
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
        let head = key_head(key);
        let mut update = [HEAD; MAX_HEIGHT];
        let (at, found) = self.search(key, head, &mut update);
        if found {
            // Overwrite: append the new value, repoint the node. The key
            // bytes were already charged; swap the value charge. A version
            // written by an earlier batch is still what views at that
            // batch's stamp must see, so it moves onto the chain; one
            // written by this batch is simply replaced.
            let i = self.recs[at as usize + VAL] as usize;
            let old = self.vals[i];
            let mut val = self.push_value(value);
            val.older = if old.stamp == self.stamp {
                old.older
            } else {
                self.versions.push(old);
                (self.versions.len() - 1) as u32
            };
            self.vals[i] = val;
            self.bytes = self.bytes - old.logical_bytes() + entry_bytes(value);
            return;
        }
        // New key: arena-allocate key + value, then splice a record in.
        // Levels above the current height start from the head, which is
        // what `update` already holds there.
        let key_off = self.arena.len() as u32;
        self.arena.extend_from_slice(key);
        let val = self.push_value(value);
        let height = self.random_height();
        let rec = self.recs.len() as u32;
        self.recs.extend_from_slice(&[
            (head >> 32) as u32,
            head as u32,
            key_off,
            key.len() as u32,
            self.vals.len() as u32,
        ]);
        self.vals.push(val);
        for (lvl, &prev) in update.iter().enumerate().take(height) {
            let slot = prev as usize + TOWER + lvl;
            self.recs.push(self.recs[slot]);
            self.recs[slot] = rec;
        }
        self.height = self.height.max(height);
        self.bytes += key.len() + entry_bytes(value);
    }

    /// Exact-key lookup. The outer `Option` is "does this table know the
    /// key at all"; the inner one distinguishes a live value (`Some`)
    /// from a tombstone (`None`). A `None` outer result means the caller
    /// must keep searching older layers.
    pub fn get(&self, key: &[u8]) -> Option<Option<&[u8]>> {
        let (at, found) = self.search(key, key_head(key), &mut [HEAD; MAX_HEIGHT]);
        found.then(|| self.value_bytes(&self.vals[self.recs[at as usize + VAL] as usize]))
    }

    /// Number of buffered entries (tombstones included).
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
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
    /// On logical bytes — or on physical ones: the arena, the records and
    /// every version, newest or superseded. An overwrite adds no logical
    /// bytes, yet it appends its value to the arena and (from a new batch)
    /// chains a version record — the latter even when the value is empty
    /// or a tombstone — so a hot-key update loop would otherwise grow one
    /// table without bound; and a tiny entry costs far more in its record
    /// and newest version than the logical bytes it is charged.
    pub fn is_full(&self, limit: usize) -> bool {
        self.bytes >= limit || self.physical_bytes() >= ARENA_LIMIT_FACTOR.saturating_mul(limit)
    }

    fn physical_bytes(&self) -> usize {
        self.arena.len()
            + self.recs.len() * std::mem::size_of::<u32>()
            + (self.vals.len() + self.versions.len()) * std::mem::size_of::<Version>()
    }

    /// Iterate all entries in ascending key order without consuming the
    /// table (a flush writes a frozen table to disk through this). Tombstones are yielded as `None` values.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], Option<&[u8]>)> {
        self.walk(Cursor { next: self.next_at(HEAD, 0), stamp: self.stamp }, None)
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
        Cursor { next: self.search(lo, key_head(lo), &mut [HEAD; MAX_HEIGHT]).0, stamp }
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
            let k = self.rec_key(n);
            if hi.is_some_and(|hi| k > hi) {
                cur.next = NIL;
                break;
            }
            cur.next = self.next_at(n, 0);
            if let Some(version) = self.version_at(self.recs[n as usize + VAL], cur.stamp) {
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

    /// The version of node `val` (its index into `vals`) a view at `stamp`
    /// sees: the newest one not written after it. `None` when the key did
    /// not exist yet.
    #[inline]
    fn version_at(&self, val: u32, stamp: u32) -> Option<&Version> {
        let mut v = &self.vals[val as usize];
        while v.stamp > stamp {
            if v.older == NIL {
                return None;
            }
            v = &self.versions[v.older as usize];
        }
        Some(v)
    }

    /// Forward pointer of record `rec` at `lvl`.
    #[inline]
    fn next_at(&self, rec: u32, lvl: usize) -> u32 {
        self.recs[rec as usize + TOWER + lvl]
    }

    #[inline]
    fn rec_key(&self, rec: u32) -> &[u8] {
        let r = &self.recs[rec as usize..rec as usize + TOWER];
        &self.arena[r[KEY_OFF] as usize..r[KEY_OFF] as usize + r[KEY_LEN] as usize]
    }

    #[inline]
    fn value_bytes(&self, v: &Version) -> Option<&[u8]> {
        if v.tombstone {
            None
        } else {
            Some(&self.arena[v.off as usize..v.off as usize + v.len as usize])
        }
    }

    /// Record `rec`'s key against `key`, whose head is `head`: by heads,
    /// then on a tie by length if either key fits its head, and only then
    /// by the arena bytes past the head (see the module docs).
    #[inline]
    fn cmp_rec(&self, rec: u32, key: &[u8], head: u64) -> Ordering {
        let r = &self.recs[rec as usize..rec as usize + TOWER];
        let rec_head = u64::from(r[HEAD_HI]) << 32 | u64::from(r[HEAD_LO]);
        rec_head.cmp(&head).then_with(|| {
            let len = r[KEY_LEN] as usize;
            if len <= 8 || key.len() <= 8 {
                len.cmp(&key.len())
            } else {
                self.rec_key(rec)[8..].cmp(&key[8..])
            }
        })
    }

    /// The first record with a key ≥ `key` (`NIL` when every key is
    /// smaller), and whether its key is `key`. Fills `update[lvl]` with
    /// the last record (`HEAD` included) strictly before `key` at each
    /// level in use.
    fn search(&self, key: &[u8], head: u64, update: &mut [u32; MAX_HEIGHT]) -> (u32, bool) {
        let mut cur = HEAD;
        let mut found = false;
        let mut next = NIL;
        for lvl in (0..self.height).rev() {
            loop {
                next = self.next_at(cur, lvl);
                if next == NIL {
                    found = false;
                    break;
                }
                match self.cmp_rec(next, key, head) {
                    Ordering::Less => cur = next,
                    ord => {
                        found = ord == Ordering::Equal;
                        break;
                    }
                }
            }
            update[lvl] = cur;
        }
        (next, found)
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
            let key = if x.is_multiple_of(3) {
                tied_key(x >> 8)
            } else {
                (x % 257).to_be_bytes().to_vec()
            };
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
        assert_eq!(m.get(&[2, 0, 0, 0, 0, 0, 0, 0, 9]), None, "a tied head, an absent tail");
        // Range queries agree with the model on assorted windows, some of
        // them bounded by keys that tie on their head.
        let u64_windows = [(0u64, 256u64), (10, 20), (100, 100), (200, 9999)]
            .map(|(lo, hi)| (lo.to_be_bytes().to_vec(), hi.to_be_bytes().to_vec()));
        let tied_windows = [
            (vec![1], vec![1, 0, 0, 0, 0, 0, 0, 0, 1, 1]),
            (vec![2, 0, 0], vec![2, 0, 0, 0, 0, 0, 0, 0, 0]),
            (vec![2, 0, 0, 0, 0, 0, 0, 0, 1], vec![3, 0]),
            (vec![3, 0, 0, 0, 0, 0, 0, 0, 0, 0], vec![3, 0, 0, 0, 0, 0, 0, 0, 2]),
        ];
        for (lo, hi) in u64_windows.into_iter().chain(tied_windows) {
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
        // Beside the version records the table holds the key, the head's
        // and the key's records and the key's newest version: the records
        // and that one node's bookkeeping together reach the limit.
        assert_eq!(m.versions.len(), writes - 1, "one record per write after the first");
        let node = m.recs.len() * std::mem::size_of::<u32>() + std::mem::size_of::<Version>();
        assert!(node < 200, "the one node's bookkeeping is {node} B");
        assert!(
            m.versions.len() * std::mem::size_of::<Version>() + node + 1
                >= ARENA_LIMIT_FACTOR * 1_000
        );
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

    /// A key from a domain built to tie on the 8-byte head: `[b]` followed
    /// by 0 to 8 zero bytes (one head for each `b`, keys apart only by
    /// length, some of them longer than 8 bytes), or `[b, 0 × 7]` followed
    /// by a 1- to 3-byte tail (longer than 8 bytes, the same head, ordered
    /// only by the arena bytes past it).
    fn tied_key(r: u64) -> Vec<u8> {
        let mut k = vec![(r % 3) as u8 + 1];
        if (r >> 2).is_multiple_of(2) {
            k.resize(1 + (r >> 3) as usize % 9, 0);
        } else {
            k.resize(8, 0);
            k.extend_from_slice(&vec![((r >> 3) % 3) as u8; 1 + (r >> 5) as usize % 3]);
        }
        k
    }

    #[test]
    fn tiny_entries_fill_the_table_on_their_records() {
        // 3-byte keys with empty values are charged 3 logical bytes each,
        // but each holds a record and a newest version as well: about 16x
        // that in heap. The table must stop growing once arena, records
        // and versions reach 8x its limit, well before its logical bytes
        // do.
        let limit = 1_000;
        let heap = |m: &MemTable| {
            m.arena.len()
                + m.recs.len() * std::mem::size_of::<u32>()
                + (m.vals.len() + m.versions.len()) * std::mem::size_of::<Version>()
        };
        let mut m = MemTable::new();
        let mut i = 0u32;
        while !m.is_full(limit) {
            m.put(i.to_be_bytes()[1..].to_vec(), vec![]);
            i += 1;
        }
        assert!(m.bytes() < limit, "rotated on {} logical bytes", m.bytes());
        // The entry that crossed the cap is the last: one key, one newest
        // version and one record of the tallest tower at most.
        let entry = 3 + std::mem::size_of::<Version>() + (TOWER + MAX_HEIGHT) * 4;
        assert!(heap(&m) < ARENA_LIMIT_FACTOR * limit + entry);
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
            let key = |r: u64| match r % 3 {
                0 => tied_key(r >> 2),
                _ => vec![(r % 24) as u8 + 1; 1 + (r >> 8) as usize % 2],
            };
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
