//! Data block format.
//!
//! A block holds a run of sorted entries in the one layout `PRSSTv4`
//! files use (the block itself carries no version byte):
//!
//! ```text
//! [entry]* [u32 restart offset] × (r − 1) [u32 n]
//! entry: [varint shared][varint non_shared][varint value_len << 1 | tombstone]
//!        [key_suffix][value]
//! ```
//!
//! Keys are variable-length with restart-point prefix compression: an
//! entry records how many leading bytes it shares with the previous key
//! (`shared`) and stores only the remaining `non_shared` suffix. Every
//! [`RESTART_INTERVAL`]-th entry is a *restart point* and must encode
//! `shared = 0` (a full key), bounding how far a corrupt prefix chain
//! can propagate. The block ends in a LevelDB-style trailer: the payload
//! offset of every restart point but the first (which is at 0), then the
//! entry count `n`, which fixes the number of restart points at
//! `r = ⌈n / 16⌉`. A [`Block`] is walked in place, one key at a time; a
//! lookup binary-searches the restart points' whole keys, then walks.
//!
//! The three header fields are LEB128 varints ([`crate::compress`]'s), one
//! byte each for a key suffix under 128 bytes and a value under 64. The
//! third's low bit marks a *tombstone* (a persisted delete), which carries
//! no value. A tombstone with a value, a varint over five bytes, a
//! zero-length key, a `shared` run longer than the previous key, a restart
//! offset that is not where its entry starts, out-of-order keys, bytes
//! between the last entry and the trailer, or no entries at all are
//! reported as corruption, never decoded loosely.
//!
//! On disk a block is prefixed by `[u8 codec][u32 raw_len][u32 stored_len]`
//! where codec 0 = raw, 1 = zero-RLE ([`crate::compress`]): the bytes the
//! block cache keeps. The file's index holds a [`check_word`] of them.
//! [`Block::load`] verifies it and walks every entry, once, when a block
//! is read from its file; a cache hit (`Block::load_cached`) decompresses
//! and reads the trailer, nothing more. Decoding any bytes returns
//! [`crate::Error::Corruption`], never panics.

use crate::compress::{self, get_varint, put_varint};
use crate::error::{Error, Result};
use std::cell::{Ref, RefCell};

/// Append `len` as a little-endian `u32` wire field. The writer's
/// block-size budget and key cap keep lengths far below it; debug builds
/// assert it.
#[inline]
fn put_u32(buf: &mut Vec<u8>, len: usize) {
    debug_assert!(len >> 32 == 0, "length {len} overflows a u32 wire field");
    buf.extend_from_slice(&len.to_le_bytes()[..4]);
}

/// Every this-many entries, the builder emits a full key
/// (`shared = 0`) and the decoder enforces it.
pub const RESTART_INTERVAL: usize = 16;

/// The lane step of [`check_word`]: for a fixed `h` a bijection of `w`,
/// and for a fixed `w` a bijection of `h` (xor, an odd multiplier and a
/// rotation each are one).
#[inline(always)]
fn mix(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31)
}

/// The check word of a block's stored bytes, which the file's index
/// holds: four lanes of `mix` over the little-endian 8-byte words (word
/// `j` to lane `j % 4`, the last one zero-padded), folded in order into
/// the length by `mix`, then through murmur3's `fmix64`.
///
/// Every step after a word is a bijection of the state, so a change
/// confined to one aligned 8-byte word changes that lane's state, then
/// the fold, then the word: every single-bit flip is caught for certain.
/// Wider damage is caught only with high probability, not by proof. Four
/// independent lanes keep four multiplies in flight: about a tenth of
/// `crc32`'s time.
pub fn check_word(stored: &[u8]) -> u64 {
    let mut lanes = [
        0x243F_6A88_85A3_08D3,
        0x1319_8A2E_0370_7344,
        0xA409_3822_299F_31D0,
        0x082E_FA98_EC4E_6C89,
    ];
    let (stripes, tail) = stored.as_chunks::<32>();
    for stripe in stripes {
        let (words, _) = stripe.as_chunks::<8>();
        for (lane, word) in lanes.iter_mut().zip(words) {
            *lane = mix(*lane, u64::from_le_bytes(*word));
        }
    }
    for (lane, word) in lanes.iter_mut().zip(tail.chunks(8)) {
        let mut padded = [0u8; 8];
        padded[..word.len()].copy_from_slice(word);
        *lane = mix(*lane, u64::from_le_bytes(padded));
    }
    let mut h = lanes.into_iter().fold(stored.len() as u64, mix);
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

/// Builder for one data block: variable-length keys with
/// restart-point prefix compression.
#[derive(Debug, Default)]
pub struct VarBlockBuilder {
    buf: Vec<u8>,
    /// Payload offset of every restart point but the first.
    restarts: Vec<usize>,
    n: usize,
    first_key: Vec<u8>,
    last_key: Vec<u8>,
}

impl VarBlockBuilder {
    /// Start an empty block.
    pub fn new() -> Self {
        VarBlockBuilder::default()
    }

    /// Append an entry. Keys must be non-empty and strictly ascending;
    /// the builder does not re-sort. `Some` is a live value, `None` a
    /// tombstone.
    pub fn add(&mut self, key: &[u8], value: Option<&[u8]>) {
        debug_assert!(!key.is_empty(), "keys are non-empty");
        debug_assert!(
            self.n == 0 || self.last_key.as_slice() < key,
            "keys must be strictly ascending"
        );
        let shared = if self.n.is_multiple_of(RESTART_INTERVAL) {
            if self.n > 0 {
                self.restarts.push(self.buf.len());
            }
            0
        } else {
            self.last_key.iter().zip(key).take_while(|(a, b)| a == b).count()
        };
        // A tombstone is flagged and carries an empty value.
        let (value, tombstone) = value.map_or((&[][..], 1), |v| (v, 0));
        put_varint(&mut self.buf, shared);
        put_varint(&mut self.buf, key.len() - shared);
        put_varint(&mut self.buf, value.len() << 1 | tombstone);
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

    /// Current uncompressed payload size, its trailer included.
    pub fn raw_len(&self) -> usize {
        self.buf.len() + 4 * (self.restarts.len() + 1)
    }

    /// Finish the block: returns `(disk bytes, first_key, last_key)`.
    pub fn finish(mut self) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
        assert!(self.n > 0, "empty block");
        for &offset in &self.restarts {
            put_u32(&mut self.buf, offset);
        }
        put_u32(&mut self.buf, self.n);
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
    put_u32(&mut disk, raw_len);
    put_u32(&mut disk, payload.len());
    disk.extend_from_slice(&payload);
    disk
}

fn corrupt(what: &str) -> Error {
    Error::corruption(format!("data block: {what}"))
}

/// The entry at `pos`: its shared length, whether it is a tombstone, and
/// where its key suffix, value and successor start; `None` if any runs
/// past `data`. The common header — one-byte `shared` and `non_shared`, a
/// value under 8 KiB — is read from one 4-byte load, LevelDB's
/// `(p[0] | p[1] | p[2]) < 128` widened to a two-byte third varint (a
/// 128-byte value's is two bytes). A header is followed by at least one
/// key byte, so a block's last entry still has the four.
#[inline(always)]
fn entry_at(data: &[u8], pos: usize) -> Option<(usize, bool, usize, usize, usize)> {
    let fast = match data.get(pos..).and_then(<[u8]>::first_chunk) {
        Some(&[a, b, c, d]) if (a | b) < 0x80 => {
            let (a, b, c, d) = (usize::from(a), usize::from(b), usize::from(c), usize::from(d));
            match (c < 0x80, d < 0x80) {
                (true, _) => Some((a, b, c, pos + 3)),
                (false, true) => Some((a, b, (c & 0x7F) | d << 7, pos + 4)),
                (false, false) => None,
            }
        }
        _ => None,
    };
    let (shared, non_shared, tagged, suffix) = fast.or_else(|| header_at(data, pos))?;
    let value = suffix.checked_add(non_shared)?;
    let end = value.checked_add(tagged >> 1).filter(|&end| end <= data.len())?;
    Some((shared, tagged & 1 == 1, suffix, value, end))
}

/// [`entry_at`]'s header, three varints of any length: `shared`,
/// `non_shared`, `value_len << 1 | tombstone`, and where the key suffix
/// starts. Kept out of line, so the fast path stays small where it is
/// inlined.
#[cold]
#[inline(never)]
fn header_at(data: &[u8], pos: usize) -> Option<(usize, usize, usize, usize)> {
    let (shared, at) = get_varint(data, pos)?;
    let (non_shared, at) = get_varint(data, at)?;
    let (tagged, at) = get_varint(data, at)?;
    Some((shared, non_shared, tagged, at))
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

/// Read the trailer off payload `data`: push every restart offset onto
/// `restarts`, the implied 0 first, cut the trailer from `data` and return
/// the entry count. The offsets must ascend inside the entries, so a walk
/// from any of them starts inside `data`.
fn read_trailer(data: &mut Vec<u8>, restarts: &mut Vec<usize>) -> Result<usize> {
    let (head, n) = data.split_last_chunk::<4>().ok_or_else(|| corrupt("missing entry count"))?;
    let n = u32::from_le_bytes(*n) as usize;
    if n == 0 {
        return Err(corrupt("no entries"));
    }
    let end = head
        .len()
        .checked_sub(4 * (n.div_ceil(RESTART_INTERVAL) - 1))
        .ok_or_else(|| corrupt("restart offsets overrun the block"))?;
    restarts.push(0);
    for offset in head[end..].as_chunks::<4>().0 {
        let offset = u32::from_le_bytes(*offset) as usize;
        if restarts.last().is_some_and(|&last| offset <= last) {
            return Err(corrupt("restart offsets out of order"));
        }
        restarts.push(offset);
    }
    if restarts.last().is_some_and(|&last| last >= end) {
        return Err(corrupt("restart offset past the entries"));
    }
    data.truncate(end);
    Ok(n)
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

    /// Step onto the next entry of `data`; fails only off a block whose
    /// entries were never walked, which may run past it.
    #[inline(always)]
    fn step(&mut self, data: &[u8]) -> bool {
        let Some((shared, tombstone, suffix, value, end)) = entry_at(data, self.pos) else {
            return false;
        };
        self.key.truncate(shared);
        self.key.extend_from_slice(&data[suffix..value]);
        self.value = (!tombstone).then_some((value, end));
        (self.idx, self.pos) = (self.idx + 1, end);
        true
    }
}

/// A data block walked in place, LevelDB-style: its payload decompressed
/// into a buffer it keeps, walked one entry at a time. Loading another
/// block reuses the buffers, so a kept `Block` decodes without allocating.
#[derive(Debug, Default, Clone)]
pub struct Block {
    /// The decompressed payload's entries (its trailer cut off).
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
    /// A new block holding `disk`, the stored bytes of a block outside any
    /// file (a benchmark's or a test's): checked as [`Block::load`] checks
    /// them, but for the check word, which only a file's index holds.
    pub fn decode_v3(disk: &[u8]) -> Result<Block> {
        let mut block = Block::default();
        block.fill(disk, true).map(|()| block)
    }

    /// Replace this block with stored block `disk`, checked in full: a
    /// [`check_word`] other than `check`, or bad codec, lengths, headers,
    /// restart points, prefixes or key order, a zero-length key or
    /// trailing bytes yield [`Error::Corruption`], never a panic. It then
    /// stands before entry 0.
    pub fn load(&mut self, disk: &[u8], check: u64) -> Result<()> {
        if check_word(disk) != check {
            self.clear();
            return Err(corrupt("check word mismatch"));
        }
        self.fill(disk, true)
    }

    /// [`Block::load`] for bytes that passed it once (the block cache's):
    /// it decompresses them and reads the trailer's count and restart
    /// offsets, which must ascend inside the entries; the check word and
    /// the walk over the entries are not repeated. It stays total: a walk
    /// over bytes that never passed stops where an entry runs off the
    /// block, and yields no more than the trailer's count.
    pub(crate) fn load_cached(&mut self, disk: &[u8]) -> Result<()> {
        self.fill(disk, false)
    }

    fn clear(&mut self) {
        self.n = 0;
        self.restarts.clear();
    }

    fn fill(&mut self, disk: &[u8], walk: bool) -> Result<()> {
        self.clear();
        let n = self.decode(disk, walk).inspect_err(|_| self.clear())?;
        self.n = n;
        self.walk.restart(0, 0);
        self.entry_walk.get_mut().restart(0, 0);
        Ok(())
    }

    /// Decompress `disk` into `data`, read its trailer and, if `walk`,
    /// check every entry; returns the entry count.
    fn decode(&mut self, disk: &[u8], walk: bool) -> Result<usize> {
        decode_disk(disk, &mut self.data)?;
        let n = read_trailer(&mut self.data, &mut self.restarts)?;
        if walk {
            self.check_entries(n)?;
        }
        Ok(n)
    }

    /// Walk all `n` entries once, checking each against the format.
    fn check_entries(&mut self, n: usize) -> Result<()> {
        let (data, key) = (&self.data, &mut self.walk.key);
        key.clear();
        let (mut pos, mut prev_len) = (0, 0);
        for i in 0..n {
            let (shared, tombstone, suffix, value, end) =
                entry_at(data, pos).ok_or_else(|| corrupt("entry overruns the block"))?;
            let suffix = &data[suffix..value];
            let restart = i.is_multiple_of(RESTART_INTERVAL);
            // A key shares its first `shared` bytes with the one before it,
            // so their suffixes alone decide the order.
            let unordered = i > 0 && key.get(shared..).is_none_or(|prev| suffix <= prev);
            let broken = [
                (tombstone && end != value, "tombstone carries a value"),
                (restart && shared != 0, "restart point shares a prefix"),
                (
                    restart && self.restarts[i / RESTART_INTERVAL] != pos,
                    "restart offset is not where its entry starts",
                ),
                (shared > prev_len, "shared prefix longer than the previous key"),
                (shared + suffix.len() == 0, "zero-length key"),
                (unordered, "keys out of order"),
            ];
            if let Some((_, what)) = broken.into_iter().find(|&(broken, _)| broken) {
                return Err(corrupt(what));
            }
            key.truncate(shared);
            key.extend_from_slice(suffix);
            (pos, prev_len) = (end, shared + suffix.len());
        }
        if pos != data.len() {
            return Err(corrupt("trailing bytes after the last entry"));
        }
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
    #[inline]
    pub fn step(&mut self) -> bool {
        self.walk.idx < self.n && self.walk.step(&self.data)
    }

    /// Stand on the first entry with key ≥ `probe`; `false` when there is
    /// none. At most [`RESTART_INTERVAL`] steps past a binary search.
    pub fn seek(&mut self, probe: &[u8]) -> bool {
        let data = &self.data;
        // The last restart point whose whole key is below `probe`.
        let (mut below, mut above) = (0, self.restarts.len());
        while below < above {
            let mid = (below + above) / 2;
            let key = entry_at(data, self.restarts[mid]).map(|(_, _, k, v, _)| &data[k..v]);
            if key.is_some_and(|key| key < probe) {
                below = mid + 1;
            } else {
                above = mid;
            }
        }
        let r = below.saturating_sub(1);
        self.walk.restart(r * RESTART_INTERVAL, self.restarts.get(r).map_or(0, |&pos| pos));
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
        let is_corrupt = |bad: &[u8]| matches!(Block::decode_v3(bad), Err(Error::Corruption(_)));

        // Truncations anywhere must error, never panic.
        for cut in 0..disk.len() {
            assert!(Block::decode_v3(&disk[..cut]).is_err(), "cut {cut}");
        }
        // Unknown codec byte.
        let mut bad = disk.clone();
        bad[0] = 9;
        assert!(Block::decode_v3(&bad).is_err());
        // The first entry's three one-byte varints start right after the
        // 9-byte codec header: shared, non_shared, value_len << 1 | tombstone.
        let e0 = 9;
        // Tombstone carrying a value.
        let mut bad = disk.clone();
        bad[e0 + 2] |= 1;
        assert!(is_corrupt(&bad));
        // Restart point (entry 0) claiming a shared prefix.
        let mut bad = disk.clone();
        bad[e0] = 3;
        assert!(is_corrupt(&bad));
        // Zero-length key: entry 0 with shared=0, non_shared=0.
        let mut bad = disk.clone();
        bad[e0 + 1] = 0;
        assert!(is_corrupt(&bad));
        // Shared prefix longer than the previous key (second entry; the
        // first key is "key/00/" → 7 bytes).
        let first_len = entries[0].0.len();
        let e1 = e0 + 3 + first_len + entries[0].1.len();
        let mut bad = disk.clone();
        bad[e1] = (first_len + 50) as u8;
        assert!(is_corrupt(&bad));
        // Out-of-order keys: rewrite entry 1's suffix to sort before
        // entry 0 (shared=0 plus a suffix byte smaller than 'k').
        let mut bad = disk.clone();
        bad[e1] = 0;
        bad[e1 + 3] = b'a';
        assert!(is_corrupt(&bad));
        // A value length whose varint runs on into the key escapes the
        // buffer.
        let mut bad = disk.clone();
        bad[e0 + 2] = 0xFE;
        assert!(is_corrupt(&bad));
        // So does an oversized non_shared.
        let mut bad = disk.clone();
        bad[e0 + 1] = 0xFF;
        assert!(is_corrupt(&bad));
        // A varint of more than five bytes.
        let mut bad = disk.clone();
        bad[e0..e0 + 6].fill(0x80);
        assert!(is_corrupt(&bad));
        // The trailer: 20 entries make two restart points, so one stored
        // offset (entry 16's) and the count close the block.
        let (count, restart) = (disk.len() - 4, disk.len() - 8);
        for (at, value) in
            [(restart, 1u32), (restart, 0), (restart, 10_000), (count, 19), (count, 0)]
        {
            let mut bad = disk.clone();
            bad[at..at + 4].copy_from_slice(&value.to_le_bytes());
            assert!(is_corrupt(&bad), "{value} at {at}");
        }
    }

    #[test]
    fn the_trailer_stores_every_restart_but_the_first_then_the_count() {
        let entries = var_entries();
        let disk = build_var(&entries);
        let block = Block::decode_v3(&disk).unwrap();
        let n = entries.len();
        let mut payload = Vec::new();
        decode_disk(&disk, &mut payload).unwrap();
        let trailer = &payload[block.data.len()..];
        let words: Vec<usize> =
            trailer.chunks(4).map(|w| u32::from_le_bytes(w.try_into().unwrap()) as usize).collect();
        assert_eq!(words.last(), Some(&n));
        assert_eq!(block.restarts[0], 0);
        assert_eq!(&words[..words.len() - 1], &block.restarts[1..]);
        assert_eq!(block.restarts.len(), n.div_ceil(RESTART_INTERVAL));
    }

    #[test]
    fn a_cache_hit_trusts_the_trailer_but_only_inside_the_entries() {
        let disk = build_var(&var_entries());
        let mut payload = Vec::new();
        decode_disk(&disk, &mut payload).unwrap();
        let raw = |payload: &[u8]| {
            let mut d = vec![0u8];
            d.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            d.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            d.extend_from_slice(payload);
            d
        };
        let mut block = Block::default();
        block.load_cached(&raw(&payload)).unwrap();
        assert_eq!(block.len(), var_entries().len());
        // A restart offset past the entries, one out of order, a count
        // whose restarts overrun the payload: refused without a walk.
        let (count, last_restart) = (payload.len() - 4, payload.len() - 8);
        for (at, value) in
            [(last_restart, payload.len() as u32), (last_restart, 0), (count, u32::MAX), (count, 0)]
        {
            let mut bad = payload.clone();
            bad[at..at + 4].copy_from_slice(&value.to_le_bytes());
            assert!(block.load_cached(&raw(&bad)).is_err(), "{value} at {at}");
            assert_eq!(block.len(), 0);
        }
    }

    #[test]
    fn the_check_word_changes_under_every_single_bit_flip_of_a_4_kib_block() {
        // Any bytes: the word covers them as stored. A 4 KiB block plus a
        // 5-byte tail that the last lane word zero-pads.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let stored: Vec<u8> = (0..4096 + 5)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        let word = check_word(&stored);
        let mut flipped = stored.clone();
        for bit in 0..stored.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(check_word(&flipped), word, "flip of bit {bit}");
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        // A cut, a zero appended, two whole words swapped across lanes.
        assert_ne!(check_word(&stored[..stored.len() - 1]), word);
        assert_ne!(check_word(&[&stored[..], &[0]].concat()), word);
        let mut swapped = stored.clone();
        swapped.copy_within(0..8, 4000);
        swapped[..8].copy_from_slice(&stored[4000..4008]);
        assert_ne!(check_word(&swapped), word);
    }

    #[test]
    fn load_refuses_bytes_whose_check_word_differs() {
        let disk = build_var(&var_entries());
        let mut block = Block::default();
        block.load(&disk, check_word(&disk)).unwrap();
        assert!(block.step());
        let err = block.load(&disk, check_word(&disk) ^ 1);
        assert!(
            matches!(err, Err(Error::Corruption(ref m)) if m.contains("check word")),
            "{err:?}"
        );
        assert_eq!(block.len(), 0);
        assert!(!block.step());
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
        // loaded as a cache hit loads it, trusting the trailer and walking
        // nothing, each is an error or a block whose every step, seek and
        // entry stays inside its payload and yields no more than its count.
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
            assert!(n <= block.len());
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
        block.load(&disk, check_word(&disk)).unwrap();
        assert!(block.step());
        assert_eq!((block.key(), block.value()), (&b"only"[..], None));
        assert!(!block.step());
        // A failed load leaves an empty block, not the previous one.
        let cut = &disk[..disk.len() - 1];
        assert!(block.load(cut, check_word(cut)).is_err());
        assert_eq!(block.len(), 0);
        assert!(!block.step());
    }
}
