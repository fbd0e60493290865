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
//! can propagate. The decoder materializes every full key eagerly, so
//! lookups are a plain binary search over decoded spans.
//!
//! The `flags` byte currently defines bit 0: `1` marks the entry as a
//! *tombstone* (a persisted delete; it must carry a zero-length value).
//! All other bits are reserved and must be zero — a nonzero reserved
//! bit, a tombstone with a value, a zero-length key, a `shared` run
//! longer than the previous key, or out-of-order keys are reported as
//! corruption, never decoded loosely.
//!
//! On disk a block is prefixed by `[u8 codec][u32 raw_len][u32 stored_len]`
//! where codec 0 = raw, 1 = zero-RLE ([`crate::compress`]). Decoding
//! arbitrary bytes returns [`crate::Error::Corruption`]; it never panics.

use crate::compress;
use crate::error::{Error, Result};

/// Total little-endian `u16` read: `None` when the slice is too short.
#[inline]
fn le_u16_at(b: &[u8], off: usize) -> Option<u16> {
    let s = b.get(off..off.checked_add(2)?)?;
    Some(u16::from_le_bytes(s.try_into().ok()?))
}

/// Total little-endian `u32` read: `None` when the slice is too short.
#[inline]
fn le_u32_at(b: &[u8], off: usize) -> Option<u32> {
    let s = b.get(off..off.checked_add(4)?)?;
    Some(u32::from_le_bytes(s.try_into().ok()?))
}

/// Checked narrowing for decoder-side offsets; a block whose spans escape
/// `u32` is reported as corruption, never truncated silently.
#[inline]
fn to_u32(v: usize, what: &'static str) -> Result<u32> {
    u32::try_from(v).map_err(|_| corrupt(what))
}

/// Append a length as a little-endian `u32` wire field. Builder payloads
/// are bounded by the writer's block-size budget, far below 4 GiB; debug
/// builds assert the invariant.
#[inline]
fn put_len_u32(buf: &mut Vec<u8>, len: usize) {
    debug_assert!(u32::try_from(len).is_ok(), "length {len} overflows the u32 wire field");
    // lint: allow(truncating-cast): asserted to fit above
    buf.extend_from_slice(&(len as u32).to_le_bytes());
}

/// Append a length as a little-endian `u16` wire field (key spans).
/// Key lengths are bounded well below 64 KiB; debug builds assert.
#[inline]
fn put_len_u16(buf: &mut Vec<u8>, len: usize) {
    debug_assert!(u16::try_from(len).is_ok(), "length {len} overflows the u16 wire field");
    // lint: allow(truncating-cast): asserted to fit above
    buf.extend_from_slice(&(len as u16).to_le_bytes());
}

/// Entry flag bit marking a tombstone.
pub const FLAG_TOMBSTONE: u8 = 1;

/// The fewest payload bytes one entry occupies: its 9-byte header and at
/// least one key byte (only a key longer than its predecessor's shared
/// prefix can sort after it, and the first key is non-empty).
const MIN_ENTRY_BYTES: usize = 10;

/// Every this-many entries, the builder emits a full key
/// (`shared = 0`) and the decoder enforces it.
pub const RESTART_INTERVAL: usize = 16;

/// Builder for one data block: variable-length keys with
/// restart-point prefix compression.
#[derive(Debug)]
pub struct VarBlockBuilder {
    buf: Vec<u8>,
    n: u32,
    first_key: Option<Vec<u8>>,
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
        VarBlockBuilder { buf: vec![0u8; 4], n: 0, first_key: None, last_key: Vec::new() }
    }

    /// Append an entry. Keys must be non-empty and strictly ascending;
    /// the builder does not re-sort. `Some` is a live value, `None` a
    /// tombstone.
    pub fn add(&mut self, key: &[u8], value: Option<&[u8]>) {
        debug_assert!(!key.is_empty(), "v3 keys are non-empty");
        debug_assert!(
            self.first_key.is_none() || self.last_key.as_slice() < key,
            "keys must be strictly ascending"
        );
        let shared = if (self.n as usize).is_multiple_of(RESTART_INTERVAL) {
            0
        } else {
            self.last_key.iter().zip(key).take_while(|(a, b)| a == b).count()
        };
        let non_shared = key.len() - shared;
        put_len_u16(&mut self.buf, shared);
        put_len_u16(&mut self.buf, non_shared);
        match value {
            Some(v) => {
                self.buf.push(0);
                put_len_u32(&mut self.buf, v.len());
                self.buf.extend_from_slice(&key[shared..]);
                self.buf.extend_from_slice(v);
            }
            None => {
                self.buf.push(FLAG_TOMBSTONE);
                self.buf.extend_from_slice(&0u32.to_le_bytes());
                self.buf.extend_from_slice(&key[shared..]);
            }
        }
        if self.first_key.is_none() {
            self.first_key = Some(key.to_vec());
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
        // lint: allow(no-panic): the assert above guarantees at least one entry
        (to_disk(self.buf), self.first_key.unwrap(), self.last_key)
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
    put_len_u32(&mut disk, raw_len);
    put_len_u32(&mut disk, payload.len());
    disk.extend_from_slice(&payload);
    disk
}

/// One materialized entry: spans into `Block::keybuf` / `Block::data`.
#[derive(Debug, Clone, Copy)]
struct VarEntry {
    key_off: u32,
    key_len: u32,
    val_off: u32,
    val_len: u32,
    tombstone: bool,
}

/// A decoded, searchable block.
#[derive(Debug, Clone)]
pub struct Block {
    /// Decoded payload (values are served from here).
    data: Vec<u8>,
    /// Every full key, materialized by resolving the prefix chain.
    keybuf: Vec<u8>,
    entries: Vec<VarEntry>,
}

fn corrupt(what: &str) -> Error {
    Error::corruption(format!("data block: {what}"))
}

/// Strip and validate the codec header, returning the decompressed
/// payload.
fn decode_disk(disk: &[u8]) -> Result<Vec<u8>> {
    if disk.len() < 9 {
        return Err(corrupt("shorter than its header"));
    }
    let codec = disk[0];
    let raw_len = le_u32_at(disk, 1).ok_or_else(|| corrupt("shorter than its header"))? as usize;
    let stored_len = le_u32_at(disk, 5).ok_or_else(|| corrupt("shorter than its header"))? as usize;
    if disk.len() < 9 + stored_len {
        return Err(corrupt("stored length overruns the block"));
    }
    let payload = &disk[9..9 + stored_len];
    match codec {
        0 => {
            if stored_len != raw_len {
                return Err(corrupt("raw block with stored_len != raw_len"));
            }
            Ok(payload.to_vec())
        }
        1 => compress::decompress(payload, raw_len)
            .ok_or_else(|| corrupt("corrupt compressed payload")),
        c => Err(corrupt(&format!("unknown codec {c}"))),
    }
}

impl Block {
    /// Decode a block from disk bytes (including the codec header). Every
    /// full key is materialized eagerly by resolving the prefix chain;
    /// a `shared` run longer than the previous key, a non-restart chain
    /// crossing a restart point, a zero-length key, out-of-order keys,
    /// reserved flag bits, a tombstone with a value, or any overrun
    /// yield [`Error::Corruption`] — never a panic.
    pub fn decode_v3(disk: &[u8]) -> Result<Block> {
        let data = decode_disk(disk)?;
        if data.len() < 4 {
            return Err(corrupt("missing entry count"));
        }
        let n = le_u32_at(&data, 0).ok_or_else(|| corrupt("missing entry count"))? as usize;
        // Every reservation is capped by what the payload can hold: an entry
        // takes at least `MIN_ENTRY_BYTES`, so a corrupt count cannot ask
        // for more than the block could ever decode to.
        let mut entries = Vec::with_capacity(n.min((data.len() - 4) / MIN_ENTRY_BYTES));
        let mut keybuf: Vec<u8> = Vec::new();
        let mut pos = 4usize;
        let mut prev_off = 0usize;
        let mut prev_len = 0usize;
        for i in 0..n {
            if pos + 9 > data.len() {
                return Err(corrupt("entry header overruns the block"));
            }
            let short = || corrupt("entry header overruns the block");
            let shared = le_u16_at(&data, pos).ok_or_else(short)? as usize;
            let non_shared = le_u16_at(&data, pos + 2).ok_or_else(short)? as usize;
            let flags = data[pos + 4];
            if flags & !FLAG_TOMBSTONE != 0 {
                return Err(corrupt(&format!("reserved entry flag bits set ({flags:#04x})")));
            }
            let tombstone = flags & FLAG_TOMBSTONE != 0;
            let vlen = le_u32_at(&data, pos + 5).ok_or_else(short)? as usize;
            if tombstone && vlen != 0 {
                return Err(corrupt("tombstone entry carries a value"));
            }
            if i.is_multiple_of(RESTART_INTERVAL) && shared != 0 {
                return Err(corrupt("restart point shares a prefix"));
            }
            if shared > prev_len {
                return Err(corrupt("shared prefix longer than the previous key"));
            }
            if shared + non_shared == 0 {
                return Err(corrupt("zero-length key"));
            }
            pos += 9;
            if pos + non_shared + vlen > data.len() {
                return Err(corrupt("entry overruns the block"));
            }
            if i == 0 {
                // Sized from the first (full) key: exact when every key has
                // its length, as every `u64` workload's does.
                keybuf.reserve_exact(n.saturating_mul(non_shared).min(data.len()));
            }
            let key_off = keybuf.len();
            keybuf.extend_from_within(prev_off..prev_off + shared);
            keybuf.extend_from_slice(&data[pos..pos + non_shared]);
            if i > 0 {
                let (older, this) = keybuf.split_at(key_off);
                if &older[prev_off..prev_off + prev_len] >= this {
                    return Err(corrupt("keys out of order"));
                }
            }
            let val_off = pos + non_shared;
            entries.push(VarEntry {
                key_off: to_u32(key_off, "key area exceeds u32")?,
                key_len: to_u32(shared + non_shared, "key length exceeds u32")?,
                val_off: to_u32(val_off, "value offset exceeds u32")?,
                val_len: to_u32(vlen, "value length exceeds u32")?,
                tombstone,
            });
            pos = val_off + vlen;
            prev_off = key_off;
            prev_len = shared + non_shared;
        }
        if pos != data.len() {
            return Err(corrupt("trailing bytes after the last entry"));
        }
        // The cache budgets a block by its capacities: give back whatever
        // the first-key estimate over-reserved, or doubling over-grew, when
        // keys vary in length.
        keybuf.shrink_to_fit();
        Ok(Block { data, keybuf, entries })
    }

    /// Number of entries in the block.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True for a block with no entries (never written by the builder).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `i`-th key (entries are sorted ascending).
    pub fn key(&self, i: usize) -> &[u8] {
        let e = self.entries[i];
        &self.keybuf[e.key_off as usize..(e.key_off + e.key_len) as usize]
    }

    /// Is the `i`-th entry a tombstone?
    pub fn is_tombstone(&self, i: usize) -> bool {
        self.entries[i].tombstone
    }

    /// The `i`-th value (empty for a tombstone; use [`Block::entry`] to
    /// tell an empty value from a delete).
    pub fn value(&self, i: usize) -> &[u8] {
        let e = self.entries[i];
        &self.data[e.val_off as usize..(e.val_off + e.val_len) as usize]
    }

    /// The `i`-th entry as `(key, Some(value) | None)` where `None` marks
    /// a tombstone.
    pub fn entry(&self, i: usize) -> (&[u8], Option<&[u8]>) {
        let v = if self.is_tombstone(i) { None } else { Some(self.value(i)) };
        (self.key(i), v)
    }

    /// Index of the first entry with key ≥ `probe`.
    pub fn lower_bound(&self, probe: &[u8]) -> usize {
        let mut lo = 0usize;
        let mut hi = self.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.key(mid) < probe {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Decoded memory footprint (for the block cache budget): what the
    /// block's buffers hold allocated, not just what they use.
    pub fn mem_bytes(&self) -> usize {
        self.data.capacity()
            + self.keybuf.capacity()
            + self.entries.capacity() * std::mem::size_of::<VarEntry>()
    }
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
        let block = Block::decode_v3(&disk).unwrap();
        assert_eq!(block.len(), 50);
        for i in 0..50 {
            assert_eq!(block.key(i), &keys[i][..]);
            assert_eq!(block.value(i), &vals[i][..]);
            assert!(!block.is_tombstone(i));
            assert_eq!(block.entry(i), (&keys[i][..], Some(&vals[i][..])));
        }
    }

    #[test]
    fn tombstones_and_empty_values_are_distinguishable() {
        let mut b = VarBlockBuilder::new();
        b.add(&[0, 0, 0, 1], Some(b"alive"));
        b.add(&[0, 0, 0, 2], None);
        b.add(&[0, 0, 0, 3], Some(b""));
        let (disk, _, _) = b.finish();
        let block = Block::decode_v3(&disk).unwrap();
        assert_eq!(block.entry(0), (&[0, 0, 0, 1][..], Some(&b"alive"[..])));
        assert_eq!(block.entry(1), (&[0, 0, 0, 2][..], None));
        assert!(block.is_tombstone(1));
        // An empty value is alive: distinguishable from a tombstone.
        assert_eq!(block.entry(2), (&[0, 0, 0, 3][..], Some(&b""[..])));
        assert!(!block.is_tombstone(2));
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
        let block = Block::decode_v3(&disk).unwrap();
        assert_eq!(block.lower_bound(&0u64.to_be_bytes()), 0);
        assert_eq!(block.lower_bound(&7u64.to_be_bytes()), 1);
        assert_eq!(block.lower_bound(&8u64.to_be_bytes()), 2);
        assert_eq!(block.lower_bound(&343u64.to_be_bytes()), 49);
        assert_eq!(block.lower_bound(&344u64.to_be_bytes()), 50);
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
        let block = Block::decode_v3(&disk).unwrap();
        assert_eq!(block.len(), entries.len());
        for (i, (k, v)) in entries.iter().enumerate() {
            assert_eq!(block.key(i), &k[..], "key {i}");
            assert_eq!(block.entry(i), (&k[..], v.as_deref()), "entry {i}");
            assert_eq!(block.is_tombstone(i), v.is_none(), "tombstone {i}");
        }
        // lower_bound agrees with a linear scan for assorted probes.
        for probe in [
            &b"http://site-000"[..],
            &b"http://site-007.example.com/path/"[..],
            &b"zzz"[..],
            &[0x00][..],
            &[0xFF][..],
        ] {
            let want = entries.iter().position(|(k, _)| k.as_slice() >= probe);
            let got = block.lower_bound(probe);
            assert_eq!(got, want.unwrap_or(entries.len()), "probe {probe:?}");
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
        assert_eq!(block.entry(0), (&key[..], Some(&b"v"[..])));
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
            assert_eq!(block.key(i), &k[..]);
        }
    }
}
