//! Data block format.
//!
//! A block holds a run of sorted entries in the one layout `PRSSTv3`
//! files use (the block itself carries no version byte):
//!
//! ```text
//! [u32 n] ([u16 shared][u16 non_shared][u8 flags]
//!          [u32 value_len][key_suffix][value])*
//! ```
//!
//! Keys are variable-length with restart-point prefix compression: an
//! entry records how many leading bytes it shares with the previous key
//! (`shared`) and stores only the remaining `non_shared` suffix. Every
//! [`RESTART_INTERVAL`]-th entry is a *restart point* and must encode
//! `shared = 0` (a full key), bounding how far a corrupt prefix chain
//! can propagate. A [`Block`] is walked in place, one key at a time; a
//! lookup binary-searches the restart points' whole keys, then walks.
//!
//! The `flags` byte currently defines bit 0: `1` marks the entry as a
//! *tombstone* (a persisted delete; it must carry a zero-length value).
//! All other bits are reserved and must be zero — a nonzero reserved
//! bit, a tombstone with a value, a zero-length key, a `shared` run
//! longer than the previous key, or out-of-order keys are reported as
//! corruption, never decoded loosely.
//!
//! On disk a block is prefixed by `[u8 codec][u32 raw_len][u32 stored_len]`
//! where codec 0 = raw, 1 = zero-RLE ([`crate::compress`]): the bytes the
//! block cache keeps, checked in full ([`Block::load`]) before first use.
//! Decoding any bytes returns [`crate::Error::Corruption`], never panics.

use crate::compress;
use crate::error::{Error, Result};
use std::cell::{Ref, RefCell};

/// Append `len` as an `N`-byte little-endian wire field: 2 for key spans,
/// 4 for value and block lengths. The writer's block-size budget and key
/// cap keep lengths far below either; debug builds assert it.
#[inline]
fn put_len<const N: usize>(buf: &mut Vec<u8>, len: usize) {
    debug_assert!(len >> (8 * N) == 0, "length {len} overflows a {N}-byte wire field");
    buf.extend_from_slice(&len.to_le_bytes()[..N]);
}

/// Entry flag bit marking a tombstone.
pub const FLAG_TOMBSTONE: u8 = 1;

/// Every this-many entries, the builder emits a full key
/// (`shared = 0`) and the decoder enforces it.
pub const RESTART_INTERVAL: usize = 16;

/// Builder for one data block: variable-length keys with
/// restart-point prefix compression.
#[derive(Debug)]
pub struct VarBlockBuilder {
    buf: Vec<u8>,
    n: u32,
    first_key: Vec<u8>,
    last_key: Vec<u8>,
}

impl Default for VarBlockBuilder {
    fn default() -> Self {
        VarBlockBuilder::new()
    }
}

impl VarBlockBuilder {
    /// Start an empty v3 block.
    pub fn new() -> Self {
        VarBlockBuilder { buf: vec![0u8; 4], n: 0, first_key: Vec::new(), last_key: Vec::new() }
    }

    /// Append an entry. Keys must be non-empty and strictly ascending;
    /// the builder does not re-sort. `Some` is a live value, `None` a
    /// tombstone.
    pub fn add(&mut self, key: &[u8], value: Option<&[u8]>) {
        debug_assert!(!key.is_empty(), "v3 keys are non-empty");
        debug_assert!(
            self.n == 0 || self.last_key.as_slice() < key,
            "keys must be strictly ascending"
        );
        let shared = if (self.n as usize).is_multiple_of(RESTART_INTERVAL) {
            0
        } else {
            self.last_key.iter().zip(key).take_while(|(a, b)| a == b).count()
        };
        let non_shared = key.len() - shared;
        put_len::<2>(&mut self.buf, shared);
        put_len::<2>(&mut self.buf, non_shared);
        // A tombstone is flagged and carries an empty value.
        self.buf.push(if value.is_some() { 0 } else { FLAG_TOMBSTONE });
        let value = value.unwrap_or_default();
        put_len::<4>(&mut self.buf, value.len());
        self.buf.extend_from_slice(&key[shared..]);
        self.buf.extend_from_slice(value);
        if self.n == 0 {
            self.first_key = key.to_vec();
        }
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.n += 1;
    }

    /// True before the first entry is added.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Current uncompressed payload size.
    pub fn raw_len(&self) -> usize {
        self.buf.len()
    }

    /// Finish the block: returns `(disk bytes, first_key, last_key)`.
    pub fn finish(mut self) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
        assert!(self.n > 0, "empty block");
        self.buf[..4].copy_from_slice(&self.n.to_le_bytes());
        (to_disk(self.buf), self.first_key, self.last_key)
    }
}

/// Wrap a finished raw payload in the on-disk codec header, compressing
/// when it pays.
fn to_disk(raw: Vec<u8>) -> Vec<u8> {
    let raw_len = raw.len();
    let mut stored = Vec::new();
    let (codec, payload) =
        if compress::compress(&raw, &mut stored) { (1u8, stored) } else { (0u8, raw) };
    let mut disk = Vec::with_capacity(payload.len() + 9);
    disk.push(codec);
    put_len::<4>(&mut disk, raw_len);
    put_len::<4>(&mut disk, payload.len());
    disk.extend_from_slice(&payload);
    disk
}

fn corrupt(what: &str) -> Error {
    Error::corruption(format!("data block: {what}"))
}

/// The entry at `pos`: its shared length and flags, and where its key
/// suffix, value and successor start; `None` if any runs past `data`.
#[inline]
fn entry_at(data: &[u8], pos: usize) -> Option<(usize, u8, usize, usize, usize)> {
    let h: &[u8; 9] = data.get(pos..)?.first_chunk()?;
    let shared = usize::from(u16::from_le_bytes([h[0], h[1]]));
    let suffix = pos + 9;
    let value = suffix + usize::from(u16::from_le_bytes([h[2], h[3]]));
    let value_len = u32::from_le_bytes([h[5], h[6], h[7], h[8]]) as usize;
    let end = value.checked_add(value_len).filter(|&end| end <= data.len())?;
    Some((shared, h[4], suffix, value, end))
}

/// Strip and validate the codec header; decompress the payload into `out`.
fn decode_disk(disk: &[u8], out: &mut Vec<u8>) -> Result<()> {
    let h: &[u8; 9] = disk.first_chunk().ok_or_else(|| corrupt("shorter than its header"))?;
    let codec = h[0];
    let raw_len = u32::from_le_bytes([h[1], h[2], h[3], h[4]]) as usize;
    let stored_len = u32::from_le_bytes([h[5], h[6], h[7], h[8]]) as usize;
    if disk.len() < 9 + stored_len {
        return Err(corrupt("stored length overruns the block"));
    }
    let payload = &disk[9..9 + stored_len];
    match codec {
        0 if stored_len != raw_len => Err(corrupt("raw block with stored_len != raw_len")),
        0 => {
            out.clear();
            out.extend_from_slice(payload);
            Ok(())
        }
        1 if compress::decompress(payload, raw_len, out) => Ok(()),
        1 => Err(corrupt("corrupt compressed payload")),
        c => Err(corrupt(&format!("unknown codec {c}"))),
    }
}

/// A position in a payload: index and offset of the entry the next step
/// reads, and the current entry's key (resolved from the prefix chain) and
/// value span (`None` for a tombstone).
#[derive(Debug, Default, Clone)]
struct Walk {
    idx: usize,
    pos: usize,
    key: Vec<u8>,
    value: Option<(usize, usize)>,
}

impl Walk {
    /// Stand in front of entry `idx`, the restart point at offset `pos`.
    fn restart(&mut self, idx: usize, pos: usize) {
        (self.idx, self.pos, self.value) = (idx, pos, None);
        self.key.clear();
    }

    /// Step onto the next entry of `data`; fails only off a loaded block,
    /// whose entries lie inside it and share no more than the key before.
    #[inline]
    fn step(&mut self, data: &[u8]) -> bool {
        let Some((shared, flags, suffix, value, end)) = entry_at(data, self.pos) else {
            return false;
        };
        self.key.truncate(shared);
        self.key.extend_from_slice(&data[suffix..value]);
        self.value = (flags & FLAG_TOMBSTONE == 0).then_some((value, end));
        (self.idx, self.pos) = (self.idx + 1, end);
        true
    }
}

/// A data block walked in place, LevelDB-style: its payload decompressed
/// into a buffer it keeps, walked one entry at a time. Loading another
/// block reuses the buffers, so a kept `Block` decodes without allocating.
#[derive(Debug, Default, Clone)]
pub struct Block {
    data: Vec<u8>,
    /// Payload offset of every [`RESTART_INTERVAL`]-th entry.
    restarts: Vec<usize>,
    /// Entries in the block (0 until a load succeeds).
    n: usize,
    walk: Walk,
    /// The walk [`Block::entry`] continues from.
    entry_walk: RefCell<Walk>,
}

impl Block {
    /// A new block holding stored block `disk`, checked; see [`Block::load`].
    pub fn decode_v3(disk: &[u8]) -> Result<Block> {
        let mut block = Block::default();
        block.load(disk).map(|()| block)
    }

    /// Replace this block with stored block `disk`, checked in full: bad
    /// codec, lengths, headers, flags, restart points, prefixes or key
    /// order, a zero-length key or trailing bytes yield
    /// [`Error::Corruption`], never a panic. It then stands before entry 0.
    pub fn load(&mut self, disk: &[u8]) -> Result<()> {
        self.fill(disk, true)
    }

    /// [`Block::load`] for bytes that passed it once (the block cache's):
    /// all but the key order is checked again, so it stays total.
    pub(crate) fn load_cached(&mut self, disk: &[u8]) -> Result<()> {
        self.fill(disk, false)
    }

    fn fill(&mut self, disk: &[u8], check_order: bool) -> Result<()> {
        self.n = 0;
        self.restarts.clear();
        decode_disk(disk, &mut self.data)?;
        let n = self.data.first_chunk().ok_or_else(|| corrupt("missing entry count"))?;
        let n = u32::from_le_bytes(*n) as usize;
        let key = &mut self.walk.key;
        let (mut pos, mut prev_len) = (4, 0);
        for i in 0..n {
            let (shared, flags, suffix, value, end) =
                entry_at(&self.data, pos).ok_or_else(|| corrupt("entry overruns the block"))?;
            let suffix = &self.data[suffix..value];
            let restart = i.is_multiple_of(RESTART_INTERVAL);
            // A key shares its first `shared` bytes with the one before it,
            // so their suffixes alone decide the order.
            let unordered = || i > 0 && key.get(shared..).is_none_or(|prev| suffix <= prev);
            let broken = [
                (flags & !FLAG_TOMBSTONE != 0, "reserved entry flag bits set"),
                (flags & FLAG_TOMBSTONE != 0 && end != value, "tombstone carries a value"),
                (restart && shared != 0, "restart point shares a prefix"),
                (shared > prev_len, "shared prefix longer than the previous key"),
                (shared + suffix.len() == 0, "zero-length key"),
                (check_order && unordered(), "keys out of order"),
            ];
            if let Some((_, what)) = broken.into_iter().find(|&(broken, _)| broken) {
                return Err(corrupt(what));
            }
            if restart {
                self.restarts.push(pos);
            }
            if check_order {
                // The order check resolves each key into the walk's buffer.
                key.truncate(shared);
                key.extend_from_slice(suffix);
            }
            (pos, prev_len) = (end, shared + suffix.len());
        }
        if pos != self.data.len() {
            return Err(corrupt("trailing bytes after the last entry"));
        }
        self.n = n;
        self.walk.restart(0, 4);
        self.entry_walk.get_mut().restart(0, 4);
        Ok(())
    }

    /// Number of entries in the block.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for a block with no entries (never written by the builder).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Step onto the next entry; `false` once past the last.
    pub fn step(&mut self) -> bool {
        self.walk.idx < self.n && self.walk.step(&self.data)
    }

    /// Stand on the first entry with key ≥ `probe`; `false` when there is
    /// none. At most [`RESTART_INTERVAL`] steps past a binary search.
    pub fn seek(&mut self, probe: &[u8]) -> bool {
        let data = &self.data;
        let below = self.restarts.partition_point(|&pos| {
            entry_at(data, pos).is_some_and(|(_, _, suffix, value, _)| &data[suffix..value] < probe)
        });
        let r = below.saturating_sub(1);
        self.walk.restart(r * RESTART_INTERVAL, self.restarts.get(r).map_or(4, |&pos| pos));
        let mut found = self.step();
        while found && self.key() < probe {
            found = self.step();
        }
        found
    }

    /// The current entry's key.
    pub fn key(&self) -> &[u8] {
        &self.walk.key
    }

    /// The current entry's value; `None` marks a tombstone.
    pub fn value(&self) -> Option<&[u8]> {
        self.walk.value.map(|(from, to)| &self.data[from..to])
    }

    /// The `i`-th entry as `(key, Some(value) | None)`, `None` marking a
    /// tombstone: at most [`RESTART_INTERVAL`] steps from the restart point
    /// before it, one from the entry asked for last. The key borrows a buffer
    /// kept for this, so a call while it is held panics, as does `i >= len()`.
    pub fn entry(&self, i: usize) -> (Ref<'_, [u8]>, Option<&[u8]>) {
        assert!(i < self.n, "entry {i} of a block of {}", self.n);
        let mut walk = self.entry_walk.borrow_mut();
        let r = i / RESTART_INTERVAL;
        if walk.idx > i || walk.idx < r * RESTART_INTERVAL {
            walk.restart(r * RESTART_INTERVAL, self.restarts[r]);
        }
        while walk.idx <= i && walk.step(&self.data) {}
        let value = walk.value.map(|(from, to)| &self.data[from..to]);
        drop(walk);
        (Ref::map(self.entry_walk.borrow(), |walk| &walk.key[..]), value)
    }

    /// A block from the calling thread's spares, or a new one: a reader
    /// built per read decodes into buffers an earlier read grew.
    pub(crate) fn spare() -> Block {
        SPARES.try_with(|spares| spares.borrow_mut().pop()).ok().flatten().unwrap_or_default()
    }

    /// Give this block to the calling thread's next reader. A thread keeps
    /// eight at most, and none whose payload outgrew sixteen blocks' worth.
    pub(crate) fn recycle(self) {
        let _ = SPARES.try_with(|spares| {
            let mut spares = spares.borrow_mut();
            if spares.len() < 8 && self.data.capacity() <= 16 * crate::config::BLOCK_BYTES {
                spares.push(self);
            }
        });
    }
}

thread_local! {
    static SPARES: RefCell<Vec<Block>> = const { RefCell::new(Vec::new()) };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_block() -> (Vec<u8>, Vec<Vec<u8>>, Vec<Vec<u8>>) {
        let mut b = VarBlockBuilder::new();
        let keys: Vec<Vec<u8>> = (0..50u64).map(|i| (i * 7).to_be_bytes().to_vec()).collect();
        let vals: Vec<Vec<u8>> = (0..50u64)
            .map(|i| {
                let mut v = vec![0u8; 64];
                v[32..40].copy_from_slice(&i.to_le_bytes());
                v
            })
            .collect();
        for (k, v) in keys.iter().zip(&vals) {
            b.add(k, Some(v));
        }
        let (disk, first, last) = b.finish();
        assert_eq!(first, keys[0]);
        assert_eq!(last, keys[49]);
        (disk, keys, vals)
    }

    #[test]
    fn roundtrip() {
        let (disk, keys, vals) = sample_block();
        let mut block = Block::decode_v3(&disk).unwrap();
        assert_eq!(block.len(), 50);
        for i in (0..50).chain([49, 3, 17, 16, 0]) {
            let (key, value) = block.entry(i);
            assert_eq!((&*key, value), (&keys[i][..], Some(&vals[i][..])), "entry {i}");
        }
        for i in 0..50 {
            assert!(block.step(), "entry {i}");
            assert_eq!((block.key(), block.value()), (&keys[i][..], Some(&vals[i][..])));
        }
        assert!(!block.step());
    }

    #[test]
    fn tombstones_and_empty_values_are_distinguishable() {
        let mut b = VarBlockBuilder::new();
        b.add(&[0, 0, 0, 1], Some(b"alive"));
        b.add(&[0, 0, 0, 2], None);
        b.add(&[0, 0, 0, 3], Some(b""));
        let (disk, _, _) = b.finish();
        let block = Block::decode_v3(&disk).unwrap();
        let entry = |i| {
            let (key, value) = block.entry(i);
            (key.to_vec(), value)
        };
        assert_eq!(entry(0), (vec![0, 0, 0, 1], Some(&b"alive"[..])));
        assert_eq!(entry(1), (vec![0, 0, 0, 2], None));
        // An empty value is alive: distinguishable from a tombstone.
        assert_eq!(entry(2), (vec![0, 0, 0, 3], Some(&b""[..])));
    }

    #[test]
    fn compression_kicks_in_for_zero_heavy_values() {
        let (disk, _, _) = sample_block();
        assert_eq!(disk[0], 1, "half-zero values should compress");
        let raw_len = u32::from_le_bytes(disk[1..5].try_into().unwrap()) as usize;
        let stored = u32::from_le_bytes(disk[5..9].try_into().unwrap()) as usize;
        assert!(stored < raw_len);
        assert_eq!(9 + stored, disk.len());
    }

    #[test]
    fn lower_bound_search() {
        let (disk, _, _) = sample_block();
        let mut block = Block::decode_v3(&disk).unwrap();
        for (probe, found) in [(0u64, 0u64), (7, 7), (8, 14), (120, 126), (343, 343)] {
            assert!(block.seek(&probe.to_be_bytes()), "probe {probe}");
            assert_eq!(block.key(), found.to_be_bytes(), "probe {probe}");
        }
        assert!(!block.seek(&344u64.to_be_bytes()));
    }

    /// Shared-prefix string keys of wildly different lengths, exercising
    /// the prefix chain and the restart points.
    fn var_entries() -> Vec<(Vec<u8>, Option<Vec<u8>>)> {
        let mut out: Vec<(Vec<u8>, Option<Vec<u8>>)> = Vec::new();
        for i in 0..60u32 {
            let key =
                format!("http://site-{:03}.example.com/path/{}", i / 4, "x".repeat(i as usize % 7));
            let val = if i % 5 == 3 { None } else { Some(vec![i as u8; (i as usize * 3) % 40]) };
            out.push((key.into_bytes(), val));
        }
        out.push((vec![0x01], Some(b"tiny".to_vec())));
        out.push((vec![0xFF; 300], Some(Vec::new())));
        out.sort();
        out.dedup_by(|a, b| a.0 == b.0);
        out
    }

    fn build_var(entries: &[(Vec<u8>, Option<Vec<u8>>)]) -> Vec<u8> {
        let mut b = VarBlockBuilder::new();
        for (k, v) in entries {
            b.add(k, v.as_deref());
        }
        let (disk, first, last) = b.finish();
        assert_eq!(first, entries[0].0);
        assert_eq!(last, entries.last().unwrap().0);
        disk
    }

    #[test]
    fn v3_var_keys_roundtrip_with_prefix_compression() {
        let entries = var_entries();
        let disk = build_var(&entries);
        let mut block = Block::decode_v3(&disk).unwrap();
        assert_eq!(block.len(), entries.len());
        // In order, backwards, and one restart interval apart.
        let n = entries.len();
        for i in (0..n).chain((0..n).rev()).chain((0..n).step_by(RESTART_INTERVAL - 1)) {
            let (key, value) = block.entry(i);
            assert_eq!((&*key, value), (&entries[i].0[..], entries[i].1.as_deref()), "entry {i}");
        }
        // Bytes that passed the check decode the same without it.
        let mut cached = Block::default();
        cached.load_cached(&disk).unwrap();
        for (i, (k, v)) in entries.iter().enumerate() {
            assert!(cached.step(), "entry {i}");
            assert_eq!((cached.key(), cached.value()), (&k[..], v.as_deref()), "entry {i}");
        }
        assert!(!cached.step());
        // seek agrees with a linear scan for every key, its neighbours and
        // assorted probes.
        let mut probes: Vec<Vec<u8>> = [
            &b"http://site-000"[..],
            &b"http://site-007.example.com/path/"[..],
            &b"zzz"[..],
            &[0x00][..],
            &[0xFF][..],
        ]
        .map(<[u8]>::to_vec)
        .to_vec();
        for (k, _) in &entries {
            probes.push(k.clone());
            probes.push([&k[..], &[0]].concat());
            probes.push(k[..k.len() - 1].to_vec());
        }
        for probe in &probes {
            let want = entries.iter().find(|(k, _)| k >= probe);
            let got = block.seek(probe).then(|| (block.key().to_vec(), block.value()));
            assert_eq!(got, want.map(|(k, v)| (k.clone(), v.as_deref())), "probe {probe:?}");
        }
        // Prefix compression must actually shrink the payload vs full keys.
        let full: usize = entries.iter().map(|(k, _)| k.len()).sum();
        let raw_len = u32::from_le_bytes(disk[1..5].try_into().unwrap()) as usize;
        assert!(raw_len < full + entries.len() * 9 + 4, "prefix compression saved nothing");
    }

    #[test]
    fn v3_single_entry_and_long_key_blocks_roundtrip() {
        let mut b = VarBlockBuilder::new();
        let key = vec![0xAB; 1024];
        b.add(&key, Some(b"v"));
        let (disk, first, last) = b.finish();
        assert_eq!(first, key);
        assert_eq!(last, key);
        let block = Block::decode_v3(&disk).unwrap();
        assert_eq!(block.len(), 1);
        let (k, v) = block.entry(0);
        assert_eq!((&*k, v), (&key[..], Some(&b"v"[..])));
    }

    #[test]
    fn v3_corruptions_and_truncations_are_errors_not_panics() {
        // Incompressible values so the payload is stored raw and offsets
        // are predictable.
        let mut b = VarBlockBuilder::new();
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..20u8)
            .map(|i| {
                let k = format!("key/{:02}/{}", i, "s".repeat(i as usize % 5)).into_bytes();
                let v: Vec<u8> =
                    (0..13).map(|j| i.wrapping_mul(37).wrapping_add(j * 11) | 1).collect();
                (k, v)
            })
            .collect();
        for (k, v) in &entries {
            b.add(k, Some(v));
        }
        let (disk, _, _) = b.finish();
        assert_eq!(disk[0], 0, "this block must be stored raw");

        // Truncations anywhere must error, never panic.
        for cut in 0..disk.len() {
            assert!(Block::decode_v3(&disk[..cut]).is_err(), "cut {cut}");
        }
        // Unknown codec byte.
        let mut bad = disk.clone();
        bad[0] = 9;
        assert!(Block::decode_v3(&bad).is_err());
        // First entry header starts at payload offset 4 → disk offset 13.
        let e0 = 9 + 4;
        // Reserved flag bits.
        let mut bad = disk.clone();
        bad[e0 + 4] = 0x40;
        assert!(matches!(Block::decode_v3(&bad), Err(Error::Corruption(_))));
        // Tombstone carrying a value.
        let mut bad = disk.clone();
        bad[e0 + 4] = FLAG_TOMBSTONE;
        assert!(matches!(Block::decode_v3(&bad), Err(Error::Corruption(_))));
        // Restart point (entry 0) claiming a shared prefix.
        let mut bad = disk.clone();
        bad[e0..e0 + 2].copy_from_slice(&3u16.to_le_bytes());
        assert!(matches!(Block::decode_v3(&bad), Err(Error::Corruption(_))));
        // Zero-length key: entry 0 with shared=0, non_shared=0.
        let mut bad = disk.clone();
        bad[e0 + 2..e0 + 4].copy_from_slice(&0u16.to_le_bytes());
        assert!(matches!(Block::decode_v3(&bad), Err(Error::Corruption(_))));
        // Shared prefix longer than the previous key (second entry; the
        // first key is "key/00/" → 7 bytes).
        let first_len = entries[0].0.len();
        let e1 = e0 + 9 + first_len + entries[0].1.len();
        let mut bad = disk.clone();
        bad[e1..e1 + 2].copy_from_slice(&((first_len + 50) as u16).to_le_bytes());
        assert!(matches!(Block::decode_v3(&bad), Err(Error::Corruption(_))));
        // Out-of-order keys: rewrite entry 1's suffix to sort before
        // entry 0 (shared=0 plus a suffix byte smaller than 'k').
        let mut bad = disk.clone();
        bad[e1..e1 + 2].copy_from_slice(&0u16.to_le_bytes());
        bad[e1 + 9] = b'a';
        assert!(matches!(Block::decode_v3(&bad), Err(Error::Corruption(_))));
        // Oversized value length escapes the buffer.
        let mut bad = disk.clone();
        bad[e0 + 5..e0 + 9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Block::decode_v3(&bad).is_err());
        // Oversized non_shared escapes the buffer.
        let mut bad = disk;
        bad[e0 + 2..e0 + 4].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(Block::decode_v3(&bad).is_err());
    }

    #[test]
    fn v3_restart_points_bound_the_prefix_chain() {
        // 40 keys sharing a long common prefix: without restarts every
        // entry after the first would store shared > 0; the builder must
        // emit full keys at entries 0, 16, 32.
        let mut b = VarBlockBuilder::new();
        let keys: Vec<Vec<u8>> =
            (0..40u8).map(|i| format!("shared/prefix/run/{i:02}").into_bytes()).collect();
        for k in &keys {
            b.add(k, Some(b"v"));
        }
        let (disk, _, _) = b.finish();
        let block = Block::decode_v3(&disk).unwrap();
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(*block.entry(i).0, k[..]);
        }
        assert_eq!(block.restarts.len(), 3);
    }

    #[test]
    fn a_cached_decode_of_any_bytes_errs_or_walks_without_panicking() {
        // Every single-bit flip and every truncation of a checked block:
        // loaded without the order check, each is an error or a block
        // whose every step, seek and entry stays inside its payload.
        let disk = build_var(&var_entries());
        let mut block = Block::default();
        let mut variants: Vec<Vec<u8>> = (0..disk.len()).map(|cut| disk[..cut].to_vec()).collect();
        for i in 0..disk.len() * 8 {
            let mut bad = disk.clone();
            bad[i / 8] ^= 1 << (i % 8);
            variants.push(bad);
        }
        let mut walked = 0;
        for bytes in &variants {
            if block.load_cached(bytes).is_err() {
                assert_eq!(block.len(), 0);
                assert!(!block.step());
                continue;
            }
            walked += 1;
            let mut n = 0;
            while block.step() {
                n += 1;
            }
            assert_eq!(n, block.len());
            for i in 0..block.len() {
                let _ = block.entry(i);
            }
            let _ = block.seek(b"http://site-007");
        }
        assert!(walked > 0);
    }

    #[test]
    fn a_reused_block_forgets_what_it_held() {
        let mut block = Block::decode_v3(&build_var(&var_entries())).unwrap();
        assert!(block.step());
        let mut b = VarBlockBuilder::new();
        b.add(b"only", None);
        let (disk, _, _) = b.finish();
        block.load(&disk).unwrap();
        assert!(block.step());
        assert_eq!((block.key(), block.value()), (&b"only"[..], None));
        assert!(!block.step());
        // A failed load leaves an empty block, not the previous one.
        assert!(block.load(&disk[..disk.len() - 1]).is_err());
        assert_eq!(block.len(), 0);
        assert!(!block.step());
    }
}
